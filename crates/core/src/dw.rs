//! The weight-gradient computation schedule pass (paper §4, Alg. 1).

use crate::TimeEstimator;
use lancet_ir::{DepGraph, Graph, InstrId, Result};
use std::cell::LazyCell;
use std::collections::{HashMap, HashSet};

/// Outcome of the dW scheduling pass.
#[derive(Debug, Clone, PartialEq)]
pub struct DwScheduleReport {
    /// Number of all-to-all instructions considered.
    pub alltoalls: usize,
    /// Number of dW instructions moved behind an all-to-all.
    pub assigned: usize,
    /// Total estimated all-to-all time (seconds).
    pub total_a2a_time: f64,
    /// Estimated all-to-all time hidden behind scheduled dW compute.
    pub estimated_overlap: f64,
}

impl DwScheduleReport {
    /// Fraction of all-to-all time the pass expects to hide.
    pub fn overlap_fraction(&self) -> f64 {
        if self.total_a2a_time <= 0.0 {
            0.0
        } else {
            self.estimated_overlap / self.total_a2a_time
        }
    }
}

/// Reorders weight-gradient instructions to overlap all-to-alls.
///
/// Implements the paper's two steps:
///
/// 1. **Labelling** (§4.1): dW instruction `w` may overlap all-to-all `a`
///    iff no directed path connects them (checked on the dependency
///    graph's transitive closure). We additionally require that every
///    producer of `w` lands before `a` in the reordered program, so the
///    result is always a valid topological order.
/// 2. **Best-fit greedy** (§4.2 / Alg. 1): for each all-to-all in program
///    order, repeatedly pick the unused candidate minimizing
///    `|t_unoverlapped − t_w|` until the all-to-all is covered.
///
/// The chosen dW instructions are re-inserted immediately after their
/// all-to-all so they launch while the transfer is in flight.
///
/// # Errors
///
/// Propagates profiler shape errors and reorder validation failures (the
/// latter would indicate a bug — the pass only produces valid orders).
///
/// # Example
///
/// ```
/// use lancet_core::{schedule_weight_gradients, Lancet, LancetOptions};
/// use lancet_cost::ClusterSpec;
/// use lancet_ir::GateKind;
/// use lancet_models::{build_training, GptMoeConfig};
///
/// let cfg = GptMoeConfig::tiny(4, GateKind::Switch).with_layers(4);
/// let mut model = build_training(&cfg, &Default::default())?;
/// let lancet = Lancet::new(ClusterSpec::v100(1), 4, LancetOptions::default());
/// let report = schedule_weight_gradients(&mut model.graph, lancet.estimator())?;
/// assert!(report.assigned > 0);
/// assert!(model.graph.validate().is_ok());
/// # Ok::<(), lancet_ir::IrError>(())
/// ```
pub fn schedule_weight_gradients(
    graph: &mut Graph,
    estimator: &TimeEstimator,
) -> Result<DwScheduleReport> {
    let dep = DepGraph::build(graph);
    let a2a_positions = graph.all_to_all_positions();
    let dw_positions = graph.weight_grad_positions();

    // Price through one producer index per pass: an irregular
    // all-to-all reads its partition count off its counts chain.
    let producers = LazyCell::new(|| graph.producer_positions());
    let time = |pos| estimator.time_at(graph, pos, |t| producers.get(&t).copied());
    let mut dw_time: HashMap<usize, f64> = HashMap::new();
    for &p in &dw_positions {
        dw_time.insert(p, time(p)?);
    }

    let mut used: HashSet<usize> = HashSet::new();
    // dW instructions that must stay in place because an already-moved dW
    // depends on them (moving them later would break topological order —
    // dW→dW chains arise from gradient accumulation of shared weights).
    let mut frozen: HashSet<usize> = HashSet::new();
    // a2a position → dW positions scheduled behind it (in pick order).
    let mut assignment: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut total_a2a_time = 0.0;
    let mut estimated_overlap = 0.0;

    for &a in &a2a_positions {
        let t_a = time(a)?;
        total_a2a_time += t_a;
        let mut t_u = t_a;
        // Candidates: independent of the all-to-all in both directions.
        let mut candidates: Vec<usize> = dw_positions
            .iter()
            .copied()
            .filter(|&w| !used.contains(&w) && !frozen.contains(&w) && dep.independent(w, a))
            .collect();
        let mut assigned_here: Vec<usize> = Vec::new();
        while t_u > 0.0 && !candidates.is_empty() {
            // A candidate moves together with its chain of dependent dW
            // instructions that sit before the all-to-all (gradient
            // accumulation `Add`s): the whole *unit* is re-inserted after
            // the all-to-all in original order. The unit is infeasible
            // when some early consumer is not a movable dW (e.g. an FSDP
            // reduce-scatter mid-backward — moving past it would break
            // topological order).
            let unit_of = |w: usize| -> Option<Vec<usize>> {
                let mut unit: Vec<usize> = vec![w];
                let mut i = 0;
                while i < unit.len() {
                    let u = unit[i];
                    i += 1;
                    for &s in dep.succs(u) {
                        if s > a || unit.contains(&s) {
                            continue;
                        }
                        let movable = graph.instrs()[s].role.is_weight_grad()
                            && !used.contains(&s)
                            && !frozen.contains(&s)
                            && dep.independent(s, a);
                        if movable {
                            unit.push(s);
                        } else {
                            return None;
                        }
                    }
                }
                unit.sort_unstable();
                Some(unit)
            };
            // Producers of every unit member must land before the
            // all-to-all: non-moved instructions at earlier positions, or
            // dWs already scheduled behind this/an earlier all-to-all, or
            // fellow unit members.
            let preds_ok = |unit: &[usize]| {
                unit.iter().all(|&m| {
                    dep.preds(m).iter().all(|&q| {
                        if unit.contains(&q) {
                            true
                        } else if used.contains(&q) {
                            assigned_here.contains(&q)
                                || assignment
                                    .iter()
                                    .any(|(&a2, ws): (&usize, &Vec<usize>)| a2 < a && ws.contains(&q))
                        } else {
                            q < a
                        }
                    })
                })
            };
            let unit_time =
                |unit: &[usize]| unit.iter().map(|m| dw_time[m]).sum::<f64>();
            let best = candidates
                .iter()
                .copied()
                .filter(|&w| !frozen.contains(&w) && !used.contains(&w))
                .filter_map(|w| unit_of(w).filter(|u| preds_ok(u)))
                .min_by(|x, y| {
                    let dx = (t_u - unit_time(x)).abs();
                    let dy = (t_u - unit_time(y)).abs();
                    dx.partial_cmp(&dy).expect("finite times")
                });
            let Some(unit) = best else { break };
            t_u -= unit_time(&unit);
            for &m in &unit {
                used.insert(m);
                assigned_here.push(m);
                candidates.retain(|&c| c != m);
                // Freeze every not-yet-moved dW ancestor outside the
                // unit: it must keep its original position.
                let mut stack: Vec<usize> = dep.preds(m).to_vec();
                while let Some(q) = stack.pop() {
                    if graph.instrs()[q].role.is_weight_grad()
                        && !used.contains(&q)
                        && !unit.contains(&q)
                        && frozen.insert(q)
                    {
                        stack.extend_from_slice(dep.preds(q));
                    }
                }
            }
        }
        assignment.insert(a, assigned_here);
        estimated_overlap += (t_a - t_u.max(0.0)).min(t_a);
    }

    // Reorder: walk the original sequence, skipping moved dWs, appending
    // each all-to-all's assignments right after it.
    let instr_ids: Vec<InstrId> = graph.instrs().iter().map(|i| i.id).collect();
    let mut order: Vec<InstrId> = Vec::with_capacity(instr_ids.len());
    for (pos, &id) in instr_ids.iter().enumerate() {
        if used.contains(&pos) {
            continue;
        }
        order.push(id);
        if let Some(ws) = assignment.get(&pos) {
            for &w in ws {
                order.push(instr_ids[w]);
            }
        }
    }
    let assigned = used.len();
    graph.reorder(order)?;
    Ok(DwScheduleReport {
        alltoalls: a2a_positions.len(),
        assigned,
        total_a2a_time,
        estimated_overlap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lancet_cost::{CachingOpProfiler, ClusterSpec, CommCostModel, CommModel, ComputeModel};
    use lancet_ir::{build_backward, BackwardOptions, GateKind, Op, Role};

    fn estimator(gpus: usize) -> TimeEstimator {
        let spec = ClusterSpec::v100(gpus.div_ceil(8));
        let truth = CommModel::new(spec.clone());
        let a2a = CommCostModel::build(&truth, 1 << 28, gpus);
        TimeEstimator::new(
            CachingOpProfiler::new(ComputeModel::new(spec.device.clone())),
            a2a,
            truth,
            gpus,
        )
    }

    /// Two-layer chain with an all-to-all between them; backward produces
    /// dW instructions independent of the backward all-to-all.
    fn training_graph() -> Graph {
        let mut g = Graph::new();
        let ids = g.input("ids", vec![4, 16]);
        let targets = g.input("targets", vec![4, 16]);
        let table = g.weight("wte", vec![32, 64]);
        let w1 = g.weight("w1", vec![64, 64]);
        let w2 = g.weight("w2", vec![64, 64]);
        let lm = g.weight("lm", vec![64, 32]);
        let x = g.emit(Op::Embedding, &[table, ids], Role::Forward).unwrap();
        let h = g.emit(Op::MatMul { transpose_b: false }, &[x, w1], Role::Forward).unwrap();
        let h = g.emit(Op::Gelu, &[h], Role::Forward).unwrap();
        // A "dispatch-like" buffer so the all-to-all has 3 dims.
        let t = g.emit(Op::AllToAll, &[h], Role::Comm).unwrap();
        let h2 = g.emit(Op::MatMul { transpose_b: false }, &[t, w2], Role::Forward).unwrap();
        let logits = g.emit(Op::MatMul { transpose_b: false }, &[h2, lm], Role::Forward).unwrap();
        let _ = g.emit_multi(Op::CrossEntropy, &[logits, targets], Role::Forward).unwrap();
        build_backward(&mut g, &BackwardOptions::default()).unwrap();
        g
    }

    #[test]
    fn pass_produces_valid_reorder_with_assignments() {
        let mut g = training_graph();
        let before: Vec<_> = g.instrs().iter().map(|i| i.id).collect();
        let est = estimator(16);
        let report = schedule_weight_gradients(&mut g, &est).unwrap();
        assert!(g.validate().is_ok());
        // Same instructions, new order.
        let mut after: Vec<_> = g.instrs().iter().map(|i| i.id).collect();
        let mut sorted_before = before.clone();
        sorted_before.sort();
        after.sort();
        assert_eq!(after, sorted_before);
        // The backward all-to-all gets at least one dW scheduled.
        assert!(report.assigned >= 1, "assigned {}", report.assigned);
        assert!(report.estimated_overlap > 0.0);
        assert!(report.overlap_fraction() > 0.0);
    }

    #[test]
    fn moved_dws_sit_after_their_alltoall() {
        let mut g = training_graph();
        let est = estimator(16);
        let report = schedule_weight_gradients(&mut g, &est).unwrap();
        assert!(report.assigned > 0);
        // After the pass, at least one weight-grad op directly follows an
        // all-to-all in program order.
        let instrs = g.instrs();
        let mut found = false;
        for w in instrs.windows(2) {
            if w[0].op.is_all_to_all() && w[1].role.is_weight_grad() {
                found = true;
            }
        }
        assert!(found, "no dW directly after any all-to-all");
    }

    #[test]
    fn overlap_improves_estimated_time() {
        let mut g = training_graph();
        let est = estimator(16);
        let before = est.estimate(&g).unwrap().total;
        schedule_weight_gradients(&mut g, &est).unwrap();
        let after = est.estimate(&g).unwrap().total;
        assert!(after < before, "estimated {after} !< {before}");
    }

    #[test]
    fn moe_training_graph_schedules_many() {
        use lancet_models::{build_training, GptMoeConfig};
        let cfg = GptMoeConfig::tiny(2, GateKind::Switch).with_layers(4);
        let mut m = build_training(&cfg, &BackwardOptions::default()).unwrap();
        let est = estimator(16);
        let report = schedule_weight_gradients(&mut m.graph, &est).unwrap();
        assert!(m.graph.validate().is_ok());
        // Two MoE layers → 8 all-to-alls (4 fwd + 4 bwd); backward ones
        // should attract dW work.
        assert_eq!(report.alltoalls, 8);
        assert!(report.assigned >= 2);
    }

    #[test]
    fn graph_without_alltoall_unchanged() {
        let mut g = Graph::new();
        let ids = g.input("ids", vec![2, 4]);
        let targets = g.input("targets", vec![2, 4]);
        let table = g.weight("wte", vec![16, 8]);
        let lm = g.weight("lm", vec![8, 16]);
        let x = g.emit(Op::Embedding, &[table, ids], Role::Forward).unwrap();
        let logits = g.emit(Op::MatMul { transpose_b: false }, &[x, lm], Role::Forward).unwrap();
        let _ = g.emit_multi(Op::CrossEntropy, &[logits, targets], Role::Forward).unwrap();
        build_backward(&mut g, &BackwardOptions::default()).unwrap();
        let before: Vec<_> = g.instrs().iter().map(|i| i.id).collect();
        let est = estimator(8);
        let report = schedule_weight_gradients(&mut g, &est).unwrap();
        let after: Vec<_> = g.instrs().iter().map(|i| i.id).collect();
        assert_eq!(before, after);
        assert_eq!(report.assigned, 0);
        assert_eq!(report.overlap_fraction(), 0.0);
    }
}
