//! Partition-axis inference (paper §5.2).
//!
//! For a candidate range of instructions, every tensor must be assigned a
//! partition axis such that each operator's constraint relation `F_Z`
//! admits the combination, tensors keep a single axis throughout the
//! pipeline, and boundary tensors are sliceable/reconstructible. The
//! domain follows the paper: not-partitioned, a real axis (batch for
//! token tensors, capacity for expert buffers), or the special irregular
//! axis `A_irr` for the capacity-passing MoE pipeline.
//!
//! Solved as a finite-domain CSP by constraint propagation with
//! backtracking ([`infer_axes`]): each op contributes its admissible
//! (input-axes, output-axes) combinations (the `combos` table — e.g. a
//! batch-split gate is only admissible for gate kinds that tolerate
//! partial batches, and the MoE gather never accepts the capacity axis),
//! weights are pinned replicated, and boundary tensors are restricted to
//! axes with a well-defined slice/concat. Infeasibility is a *result*,
//! not an error: the DP simply skips unpartitionable candidates, which is
//! how e.g. "BPR models only partition after the MoE layer" emerges
//! without a special case.
//!
//! `infer_axes` is a pure function of the graph and range; the search
//! engine in `dp` calls it from multiple worker threads and memoizes
//! whole-candidate evaluations around it. The only graph-wide fact it
//! reads is each tensor's last use (`last_uses`); the engine indexes
//! that once per pass and calls `infer_axes_in`, so a candidate costs
//! O(its range), while the public [`infer_axes`] indexes the graph itself.

use lancet_ir::{Graph, Op, TensorId, TensorKind};
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// A tensor's partition axis within a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartAxis {
    /// Replicated whole (weights).
    None,
    /// Split along the batch dimension (axis 0 of token-shaped tensors,
    /// proportional for flattened `(T,)` metadata).
    Batch,
    /// Split along the capacity dimension (axis 1 of `(E, C, M)` expert
    /// buffers) — the Tutel-style partition.
    Capacity,
    /// The paper's `A_irr`: irregularly partitioned MoE buffers whose
    /// per-expert extents are decided by gating at run time.
    Irregular,
}

/// A consistent axis assignment for every tensor a range touches.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AxisSolution {
    /// Axis per tensor (covers in-range tensors and boundary tensors).
    pub axes: HashMap<TensorId, PartAxis>,
}

impl AxisSolution {
    /// The axis assigned to `t` ([`PartAxis::None`] when untouched).
    pub fn axis(&self, t: TensorId) -> PartAxis {
        self.axes.get(&t).copied().unwrap_or(PartAxis::None)
    }
}

use PartAxis::{Batch as B, Capacity as C, Irregular as I, None as N};

/// The constraint relation `F_Z` of each operator: every admissible
/// (input-axes, output-axes) combination.
fn combos(op: &Op) -> Vec<(Vec<PartAxis>, Vec<PartAxis>)> {
    match op {
        Op::MatMul { .. } | Op::BiasAdd => vec![(vec![B, N], vec![B])],
        Op::Add | Op::Mul => vec![
            (vec![B, B], vec![B]),
            (vec![C, C], vec![C]),
            (vec![I, I], vec![I]),
        ],
        Op::Scale { .. } | Op::Relu | Op::Gelu | Op::Silu | Op::Dropout { .. } => {
            vec![(vec![B], vec![B]), (vec![C], vec![C]), (vec![I], vec![I])]
        }
        Op::Softmax => vec![(vec![B], vec![B])],
        Op::LayerNorm { .. } => vec![(vec![B, N, N], vec![B])],
        Op::RmsNorm { .. } => vec![(vec![B, N], vec![B])],
        Op::Embedding => vec![(vec![N, B], vec![B])],
        Op::AttnScores { .. } | Op::AttnContext { .. } => vec![(vec![B, B], vec![B])],
        // Gates whose decision needs the whole batch admit no partition
        // (paper Fig. 4c): the range simply cannot contain them.
        Op::Gate { kind, .. } => {
            if kind.partitionable_before_moe() {
                vec![(vec![B, N], vec![B, B])]
            } else {
                vec![]
            }
        }
        Op::MoeDispatch { .. } => vec![(vec![B, B, B], vec![I])],
        // All-to-all and experts accept the capacity axis only when the
        // range covers just the all-to-all + experts (gather excluded),
        // and `A_irr` otherwise — the gather constraint below enforces
        // exactly the paper's rule.
        Op::AllToAll => vec![(vec![I], vec![I]), (vec![C], vec![C])],
        Op::ExpertsLayout { .. } | Op::ExpertsLayoutInv { .. } => {
            vec![(vec![I], vec![I]), (vec![C], vec![C])]
        }
        Op::BatchedMatMul { .. } => vec![(vec![I, N], vec![I]), (vec![C, N], vec![C])],
        // The gather only accepts the irregular axis, never capacity
        // (tokens of one capacity slice land at irregular output
        // locations — paper Fig. 5a).
        Op::MoeGather { .. } => vec![(vec![I, B, B], vec![B])],
        // Anything else (loss, backward ops, already-partitioned ops)
        // cannot join a pipeline.
        _ => vec![],
    }
}

/// Infers partition axes for `range`, or `None` when no consistent
/// assignment exists (the range is not partitionable).
///
/// # Example
///
/// ```
/// use lancet_core::{infer_axes, PartAxis};
/// use lancet_ir::{Graph, Op, Role};
///
/// let mut g = Graph::new();
/// let x = g.input("x", vec![4, 8, 16]);
/// let w = g.weight("w", vec![16, 16]);
/// let y = g.emit(Op::MatMul { transpose_b: false }, &[x, w], Role::Forward)?;
/// let _z = g.emit(Op::Gelu, &[y], Role::Forward)?;
/// let sol = infer_axes(&g, 0..2).expect("row-wise ops partition along batch");
/// assert_eq!(sol.axis(x), PartAxis::Batch);
/// assert_eq!(sol.axis(w), PartAxis::None);
/// # Ok::<(), lancet_ir::IrError>(())
/// ```
pub fn infer_axes(graph: &Graph, range: Range<usize>) -> Option<AxisSolution> {
    infer_axes_in(graph, range, &last_uses(graph))
}

/// Position of each tensor's last consumer, indexed by tensor id; `0` for
/// a tensor nothing consumes. An output of a non-empty range is used
/// after it exactly when `last_use[t] >= range.end` (its consumers all
/// come after its producer, so an unused output never compares true).
pub(crate) fn last_uses(graph: &Graph) -> Vec<usize> {
    let mut last = vec![0; graph.tensors().len()];
    for (pos, instr) in graph.instrs().iter().enumerate() {
        for &t in &instr.inputs {
            last[t.0 as usize] = pos;
        }
    }
    last
}

/// [`infer_axes`] over a precomputed [`last_uses`] index of `graph`.
pub(crate) fn infer_axes_in(
    graph: &Graph,
    range: Range<usize>,
    last_use: &[usize],
) -> Option<AxisSolution> {
    let instrs = &graph.instrs()[range.clone()];
    if instrs.is_empty() {
        return None;
    }
    let produced_in_range: HashSet<TensorId> =
        instrs.iter().flat_map(|i| i.outputs.iter().copied()).collect();

    // Boundary validity, checked for every complete assignment the DFS
    // produces — an assignment that satisfies the per-op constraints but
    // leaves an unsliceable tensor on the range boundary forces the
    // search to backtrack into an alternative (e.g. capacity instead of
    // irregular for a Tutel-style range).
    let boundary_ok = |axes: &HashMap<TensorId, PartAxis>| -> bool {
        for instr in instrs {
            for &t in &instr.inputs {
                if produced_in_range.contains(&t) {
                    continue;
                }
                let kind = graph.tensor(t).kind;
                match (kind, axes.get(&t).copied().unwrap_or(N)) {
                    (TensorKind::Weight, N) => {}
                    (TensorKind::Weight, _) => return false,
                    (_, B | C) => {}
                    // Replicated non-weight boundary inputs (e.g. FSDP
                    // all-gathered weights) are consumed whole by every
                    // chunk — fine. Irregular tensors cannot cross.
                    (_, N) => {}
                    (_, _) => return false,
                }
            }
        }
        for instr in instrs {
            for &t in &instr.outputs {
                let used_outside = last_use[t.0 as usize] >= range.end;
                if used_outside && !matches!(axes.get(&t).copied().unwrap_or(N), B | C) {
                    return false;
                }
            }
        }
        true
    };

    let mut axes: HashMap<TensorId, PartAxis> = HashMap::new();
    if !solve(graph, instrs, 0, &mut axes, &boundary_ok) {
        return None;
    }
    Some(AxisSolution { axes })
}

/// Backtracking DFS over the range's instructions, trying each operator
/// combo and unifying tensor assignments.
fn solve(
    graph: &Graph,
    instrs: &[lancet_ir::Instr],
    idx: usize,
    axes: &mut HashMap<TensorId, PartAxis>,
    accept: &dyn Fn(&HashMap<TensorId, PartAxis>) -> bool,
) -> bool {
    let Some(instr) = instrs.get(idx) else { return accept(axes) };
    for (in_axes, out_axes) in combos(&instr.op) {
        if in_axes.len() != instr.inputs.len() || out_axes.len() != instr.outputs.len() {
            continue;
        }
        let mut trail: Vec<TensorId> = Vec::new();
        let mut ok = true;
        for (&t, &a) in instr.inputs.iter().zip(&in_axes).chain(instr.outputs.iter().zip(&out_axes)) {
            // Weights may only be replicated.
            if graph.tensor(t).kind == TensorKind::Weight && a != N {
                ok = false;
                break;
            }
            match axes.get(&t) {
                Some(&existing) if existing != a => {
                    ok = false;
                    break;
                }
                Some(_) => {}
                None => {
                    axes.insert(t, a);
                    trail.push(t);
                }
            }
        }
        if ok && solve(graph, instrs, idx + 1, axes, accept) {
            return true;
        }
        for t in trail {
            axes.remove(&t);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use lancet_ir::{GateKind, Role};

    fn moe_graph(gate: GateKind) -> (Graph, Vec<TensorId>) {
        let mut g = Graph::new();
        let x = g.input("x", vec![4, 8, 16]);
        let wg = g.weight("gate.w", vec![16, 4]);
        let w1 = g.weight("expert.w1", vec![2, 16, 32]);
        let w2 = g.weight("expert.w2", vec![2, 32, 16]);
        let gate_outs = g
            .emit_multi(Op::Gate { kind: gate, experts: 4, capacity: 16 }, &[x, wg], Role::Forward)
            .unwrap();
        let buf = g
            .emit(Op::MoeDispatch { experts: 4, capacity: 16 }, &[x, gate_outs[0], gate_outs[1]], Role::Forward)
            .unwrap();
        let t = g.emit(Op::AllToAll, &[buf], Role::Comm).unwrap();
        let loc = g.emit(Op::ExpertsLayout { gpus: 2 }, &[t], Role::Forward).unwrap();
        let h = g.emit(Op::BatchedMatMul { transpose_b: false }, &[loc, w1], Role::Forward).unwrap();
        let h = g.emit(Op::Gelu, &[h], Role::Forward).unwrap();
        let h = g.emit(Op::BatchedMatMul { transpose_b: false }, &[h, w2], Role::Forward).unwrap();
        let back = g.emit(Op::ExpertsLayoutInv { gpus: 2 }, &[h], Role::Forward).unwrap();
        let back2 = g.emit(Op::AllToAll, &[back], Role::Comm).unwrap();
        let y = g
            .emit(
                Op::MoeGather { experts: 4, capacity: 16, batch: 4, seq: 8 },
                &[back2, gate_outs[0], gate_outs[1]],
                Role::Forward,
            )
            .unwrap();
        let _out = g.emit(Op::Gelu, &[y], Role::Forward).unwrap();
        (g, vec![x, buf, t, y])
    }

    #[test]
    fn full_moe_pipeline_gets_irregular_axes() {
        let (g, ts) = moe_graph(GateKind::Switch);
        // Range = gate .. gather (positions 0..=10).
        let sol = infer_axes(&g, 0..11).expect("pipeline must be partitionable");
        assert_eq!(sol.axis(ts[0]), PartAxis::Batch); // x
        assert_eq!(sol.axis(ts[1]), PartAxis::Irregular); // dispatch buf
        assert_eq!(sol.axis(ts[3]), PartAxis::Batch); // gather output
    }

    #[test]
    fn tutel_style_range_uses_capacity() {
        let (g, ts) = moe_graph(GateKind::Switch);
        // Range = a2a .. a2a (positions 2..=8): dispatch & gather outside.
        let sol = infer_axes(&g, 2..9).expect("capacity partition must work");
        assert_eq!(sol.axis(ts[1]), PartAxis::Capacity); // buffer sliced at capacity
        assert_eq!(sol.axis(ts[2]), PartAxis::Capacity);
    }

    #[test]
    fn bpr_gate_blocks_ranges_containing_it() {
        let (g, _) = moe_graph(GateKind::BatchPrioritized);
        // Any range containing the gate is infeasible…
        assert!(infer_axes(&g, 0..11).is_none());
        // …but the range starting after the gate works (paper Fig. 4c).
        assert!(infer_axes(&g, 1..11).is_some());
    }

    #[test]
    fn range_splitting_pipeline_is_invalid() {
        let (g, _) = moe_graph(GateKind::Switch);
        // Dispatch inside but gather outside: the irregular buffer would
        // cross the boundary.
        assert!(infer_axes(&g, 0..5).is_none());
        // Gather without its dispatch: irregular boundary-in.
        assert!(infer_axes(&g, 9..11).is_none());
    }

    #[test]
    fn dense_ops_partition_along_batch() {
        let mut g = Graph::new();
        let x = g.input("x", vec![4, 8, 16]);
        let gamma = g.weight("g", vec![16]);
        let beta = g.weight("b", vec![16]);
        let w = g.weight("w", vec![16, 16]);
        let xn = g.emit(Op::LayerNorm { eps: 1e-5 }, &[x, gamma, beta], Role::Forward).unwrap();
        let h = g.emit(Op::MatMul { transpose_b: false }, &[xn, w], Role::Forward).unwrap();
        let _r = g.emit(Op::Add, &[xn, h], Role::Forward).unwrap();
        let sol = infer_axes(&g, 0..3).unwrap();
        assert_eq!(sol.axis(x), PartAxis::Batch);
        assert_eq!(sol.axis(w), PartAxis::None);
    }

    #[test]
    fn loss_is_never_partitionable() {
        let mut g = Graph::new();
        let x = g.input("x", vec![2, 4, 8]);
        let t = g.input("t", vec![2, 4]);
        let _ = g.emit_multi(Op::CrossEntropy, &[x, t], Role::Forward).unwrap();
        assert!(infer_axes(&g, 0..1).is_none());
    }

    #[test]
    fn attention_block_partitions() {
        let mut g = Graph::new();
        let x = g.input("x", vec![4, 8, 16]);
        let wq = g.weight("wq", vec![16, 16]);
        let wk = g.weight("wk", vec![16, 16]);
        let wv = g.weight("wv", vec![16, 16]);
        let q = g.emit(Op::MatMul { transpose_b: false }, &[x, wq], Role::Forward).unwrap();
        let k = g.emit(Op::MatMul { transpose_b: false }, &[x, wk], Role::Forward).unwrap();
        let v = g.emit(Op::MatMul { transpose_b: false }, &[x, wv], Role::Forward).unwrap();
        let s = g.emit(Op::AttnScores { heads: 2, causal: true }, &[q, k], Role::Forward).unwrap();
        let p = g.emit(Op::Softmax, &[s], Role::Forward).unwrap();
        let _c = g.emit(Op::AttnContext { heads: 2 }, &[p, v], Role::Forward).unwrap();
        let sol = infer_axes(&g, 0..6).unwrap();
        assert_eq!(sol.axis(x), PartAxis::Batch);
        assert_eq!(sol.axis(s), PartAxis::Batch);
    }

    #[test]
    fn empty_range_is_invalid() {
        let (g, _) = moe_graph(GateKind::Switch);
        assert!(infer_axes(&g, 3..3).is_none());
    }
}
