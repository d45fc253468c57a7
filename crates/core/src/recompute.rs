//! Activation recomputation (gradient checkpointing).
//!
//! Standard large-model training trades compute for memory: activations
//! inside a checkpoint segment are discarded after the forward pass and
//! recomputed from the segment's input just before its backward pass.
//! This pass rewrites a *training* graph accordingly: it clones each
//! segment's forward instructions immediately before the segment's first
//! backward consumer and redirects every backward instruction to the
//! recomputed tensors. The original activations then die at the end of
//! the forward pass, which the liveness-based memory estimator sees
//! directly; the duplicated instructions surface the extra compute in the
//! simulator.

use lancet_ir::{Graph, Instr, IrError, Result, Role, TensorId, TensorKind};
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Outcome of the recomputation pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecomputeReport {
    /// Number of checkpoint segments rewritten.
    pub segments: usize,
    /// Number of forward instructions duplicated.
    pub recomputed_instrs: usize,
}

/// Rewrites `graph` so the forward activations inside each `segment`
/// (disjoint, ascending ranges of forward-region positions) are
/// recomputed before their backward consumers instead of kept alive.
///
/// Communication instructions inside a segment are recomputed too (their
/// collectives re-run — as real checkpointing implementations do for MoE
/// layers, re-dispatching tokens).
///
/// # Errors
///
/// Returns [`IrError::InvalidTransform`] for overlapping/unsorted
/// segments, segments outside the forward region, or segments whose
/// tensors are consumed by *later forward* instructions outside any
/// segment continuation (checkpoint boundaries must cut the graph at
/// tensors that flow forward, which block boundaries do).
///
/// # Example
///
/// ```
/// use lancet_core::recompute_segments;
/// use lancet_ir::{build_backward, GateKind};
/// use lancet_models::{block_boundaries, build_forward, GptMoeConfig};
/// use lancet_sim::estimate_peak_memory;
///
/// let cfg = GptMoeConfig::tiny(2, GateKind::Switch).with_layers(3);
/// let mut graph = build_forward(&cfg)?.graph;
/// build_backward(&mut graph, &Default::default())?;
/// let before = estimate_peak_memory(&graph);
/// let segments = block_boundaries(&graph);
/// recompute_segments(&mut graph, &segments)?;
/// assert!(estimate_peak_memory(&graph) < before);
/// # Ok::<(), lancet_ir::IrError>(())
/// ```
pub fn recompute_segments(graph: &mut Graph, segments: &[Range<usize>]) -> Result<RecomputeReport> {
    for w in segments.windows(2) {
        if w[1].start < w[0].end {
            return Err(IrError::InvalidTransform("segments must be sorted and disjoint".into()));
        }
    }
    let instrs: Vec<Instr> = graph.instrs().to_vec();
    let loss_pos = instrs
        .iter()
        .position(|i| matches!(i.op, lancet_ir::Op::CrossEntropy))
        .unwrap_or(instrs.len());
    for s in segments {
        if s.end > loss_pos || s.is_empty() {
            return Err(IrError::InvalidTransform(format!(
                "segment {s:?} outside forward region (loss at {loss_pos})"
            )));
        }
    }

    // Rebuild the whole graph with recompute clones spliced in.
    let mut dst = Graph::new();
    let mut remap: HashMap<TensorId, TensorId> = HashMap::new();
    for t in graph.tensors() {
        if matches!(t.kind, TensorKind::Input | TensorKind::Weight) {
            let id = dst.add_tensor(t.name.clone(), t.shape.clone(), t.kind);
            remap.insert(t.id, id);
        }
    }
    // For tensors produced inside a segment: the id backward consumers
    // should use after recomputation.
    let mut recomputed: HashMap<TensorId, TensorId> = HashMap::new();
    let mut recomputed_instrs = 0usize;

    // For each segment: internal tensors and the position of the first
    // backward consumer.
    struct Seg {
        range: Range<usize>,
        splice_at: usize,
    }
    let users = graph.user_positions();
    let mut segs: Vec<Seg> = Vec::new();
    for range in segments {
        // Tensors this segment produces; their backward consumers define
        // the splice point.
        let internal: HashSet<TensorId> = instrs[range.clone()]
            .iter()
            .flat_map(|i| i.outputs.iter().copied())
            .collect();
        // Tensors used by later *forward* instructions keep their original
        // (live) values — only backward consumers switch to recomputed
        // copies. The first backward consumer decides the splice point.
        let splice_at = internal
            .iter()
            .flat_map(|t| users.get(t).into_iter().flatten())
            .copied()
            .filter(|&p| p >= loss_pos)
            .min()
            .unwrap_or(instrs.len());
        segs.push(Seg { range: range.clone(), splice_at });
    }

    // Map from splice position to segment indices spliced there (later
    // segments first: backward visits them in reverse).
    let mut splice_map: HashMap<usize, Vec<usize>> = HashMap::new();
    for (idx, s) in segs.iter().enumerate() {
        splice_map.entry(s.splice_at).or_default().push(idx);
    }

    let in_backward = |pos: usize| pos >= loss_pos;
    for (pos, instr) in instrs.iter().enumerate() {
        // Splice recompute clones before the first backward consumer.
        if let Some(seg_idxs) = splice_map.get(&pos) {
            for &si in seg_idxs {
                let seg = &segs[si];
                for fwd in &instrs[seg.range.clone()] {
                    let inputs: Vec<TensorId> = fwd
                        .inputs
                        .iter()
                        .map(|t| recomputed.get(t).copied().unwrap_or_else(|| remap[t]))
                        .collect();
                    let outs = dst.emit_multi(fwd.op.clone(), &inputs, Role::Forward)?;
                    recomputed_instrs += 1;
                    for (&o, n) in fwd.outputs.iter().zip(outs) {
                        recomputed.insert(o, n);
                    }
                }
            }
        }
        // Replay the original instruction; backward instructions read the
        // recomputed tensors where available.
        let inputs: Vec<TensorId> = instr
            .inputs
            .iter()
            .map(|t| {
                if in_backward(pos) {
                    recomputed.get(t).copied().unwrap_or_else(|| remap[t])
                } else {
                    remap[t]
                }
            })
            .collect();
        let outs = dst.emit_multi(instr.op.clone(), &inputs, instr.role)?;
        for (&o, n) in instr.outputs.iter().zip(outs) {
            remap.insert(o, n);
        }
    }
    dst.validate()?;
    *graph = dst;
    Ok(RecomputeReport { segments: segments.len(), recomputed_instrs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lancet_ir::{build_backward, BackwardOptions, GateKind, Op};
    use lancet_models::{block_boundaries, build_forward, GptMoeConfig};
    use lancet_sim::estimate_peak_memory;

    fn training(layers: usize) -> Graph {
        let cfg = GptMoeConfig::gpt2_s_moe(16, GateKind::Switch)
            .with_layers(layers)
            .with_batch(8);
        let mut g = build_forward(&cfg).unwrap().graph;
        build_backward(&mut g, &BackwardOptions::default()).unwrap();
        g
    }

    #[test]
    fn recompute_reduces_peak_memory_and_adds_compute() {
        let mut g = training(4);
        let before_mem = estimate_peak_memory(&g);
        let before_instrs = g.instrs().len();
        let segments = block_boundaries(&g);
        assert!(segments.len() >= 4);
        let report = recompute_segments(&mut g, &segments).unwrap();
        assert!(g.validate().is_ok());
        assert_eq!(report.segments, segments.len());
        let after_mem = estimate_peak_memory(&g);
        assert!(
            after_mem < before_mem,
            "peak memory {after_mem} !< {before_mem}"
        );
        assert!(g.instrs().len() > before_instrs);
    }

    #[test]
    // One-element segment lists are the inputs under test here.
    #[allow(clippy::single_range_in_vec_init)]
    fn recompute_rejects_bad_segments() {
        let mut g = training(2);
        let loss = g.instrs().iter().position(|i| matches!(i.op, Op::CrossEntropy)).unwrap();
        // Overlapping.
        assert!(recompute_segments(&mut g, &[0..5, 3..8]).is_err());
        // Crossing the loss.
        assert!(recompute_segments(&mut g, &[loss - 1..loss + 2]).is_err());
        // Empty.
        assert!(recompute_segments(&mut g, &[4..4]).is_err());
    }

    #[test]
    fn recompute_preserves_instruction_semantics_numerically() {
        use lancet_exec::{Bindings, Executor};
        use lancet_tensor::det::name_seed;
        use lancet_tensor::{Tensor, TensorRng};
        let devices = 2;
        let cfg = GptMoeConfig::tiny(devices, GateKind::Switch);
        let mut g = build_forward(&cfg).unwrap().graph;
        build_backward(
            &mut g,
            &BackwardOptions { sgd_lr: Some(0.1), optimizer: Default::default(), allreduce_grads: false },
        )
        .unwrap();
        // Bind weights by *name* (stable across the rebuild, which
        // renumbers tensor ids).
        let bind = move |g: &Graph| -> Bindings {
            let mut b = Bindings::new(devices);
            for t in g.tensors() {
                match t.kind {
                    TensorKind::Weight => {
                        if t.name.contains("expert") {
                            for d in 0..devices {
                                let mut rng = TensorRng::seed(name_seed(&t.name) ^ (d as u64 + 1));
                                b.set(d, t.id, rng.normal(t.shape.clone(), 0.25));
                            }
                        } else {
                            let mut rng = TensorRng::seed(name_seed(&t.name));
                            b.set_all(t.id, rng.normal(t.shape.clone(), 0.25));
                        }
                    }
                    TensorKind::Input => {
                        for d in 0..devices {
                            let vals: Vec<f32> =
                                (0..t.shape.volume()).map(|i| ((i * 3 + d) % 7) as f32).collect();
                            b.set(d, t.id, Tensor::from_vec(t.shape.clone(), vals).unwrap());
                        }
                    }
                    _ => {}
                }
            }
            b
        };
        let run = |g: &Graph| -> Vec<f32> {
            let out = Executor::new(g, devices).unwrap().run(bind(g)).unwrap();
            g.instrs()
                .iter()
                .filter(|i| matches!(i.op, Op::SgdUpdate { .. }))
                .flat_map(|i| out.get(0, i.outputs[0]).unwrap().data().to_vec())
                .collect()
        };
        let reference = run(&g);
        let segments = block_boundaries(&g);
        let mut rg = g.clone();
        recompute_segments(&mut rg, &segments).unwrap();
        let got = run(&rg);
        assert_eq!(reference, got, "recompute changed training results");
    }

    #[test]
    fn simulated_time_increases_with_recompute() {
        use lancet_cost::{ClusterSpec, CommModel, ComputeModel};
        use lancet_sim::{SimConfig, Simulator};
        let mut g = training(4);
        let spec = ClusterSpec::v100(2);
        let sim = Simulator::new(
            ComputeModel::new(spec.device.clone()),
            CommModel::new(spec),
            SimConfig::new(16),
        );
        let before = sim.simulate(&g);
        let segments = block_boundaries(&g);
        recompute_segments(&mut g, &segments).unwrap();
        let after = sim.simulate(&g);
        assert!(after.compute_busy > before.compute_busy);
        assert!(after.iteration_time > before.iteration_time);
        assert!(after.peak_memory < before.peak_memory);
    }
}
