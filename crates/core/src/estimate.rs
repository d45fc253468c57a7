//! The compiler's iteration-time estimate (two-stream sweep over
//! profiler/cost-model latencies).
//!
//! This is what the passes *believe* execution will cost; the simulator
//! measures what it "actually" costs. The gap between the two is the
//! cost-model error reported in paper Fig. 14. Two approximations live
//! here by design (paper §3): communication times come from the linearly
//! interpolated [`CommCostModel`], and irregular all-to-alls are priced by
//! the static-shape rule — query the uniform model at capacity `C/n`.

use lancet_cost::{CachingOpProfiler, CommCostModel, CommModel};
use lancet_ir::{Graph, Instr, Op, Shape, TensorId};
use std::cell::LazyCell;
use std::collections::HashMap;

/// Breakdown of an estimated timeline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EstimateReport {
    /// Estimated end-to-end time, seconds.
    pub total: f64,
    /// Estimated compute-stream busy time.
    pub compute_busy: f64,
    /// Estimated communication-stream busy time.
    pub comm_busy: f64,
}

/// Prices instruction sequences with the compiler-side cost models.
#[derive(Debug)]
pub struct TimeEstimator {
    profiler: CachingOpProfiler,
    a2a_model: CommCostModel,
    comm_truth: CommModel,
    gpus: usize,
}

impl TimeEstimator {
    /// Builds an estimator.
    ///
    /// `a2a_model` must have been profiled for the same `gpus`;
    /// `comm_truth` prices the (rare) all-reduce instructions for which no
    /// interpolated model is built.
    pub fn new(
        profiler: CachingOpProfiler,
        a2a_model: CommCostModel,
        comm_truth: CommModel,
        gpus: usize,
    ) -> Self {
        TimeEstimator { profiler, a2a_model, comm_truth, gpus }
    }

    /// The underlying op profiler (exposes cache statistics).
    pub fn profiler(&self) -> &CachingOpProfiler {
        &self.profiler
    }

    /// Device count used for collective pricing.
    pub fn gpus(&self) -> usize {
        self.gpus
    }

    /// The ground-truth communication model (topology source for
    /// placement-aware passes).
    pub fn comm_truth(&self) -> &CommModel {
        &self.comm_truth
    }

    /// Estimated latency of a single instruction.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the profiler.
    pub fn instr_time(&self, graph: &Graph, pos: usize) -> lancet_ir::Result<f64> {
        let producers = LazyCell::new(|| graph.producer_positions());
        self.time_at(graph, pos, |t| producers.get(&t).copied())
    }

    /// [`instr_time`](Self::instr_time) with the producer lookup supplied
    /// by the caller, who indexes the graph once for a whole sweep. Only an
    /// irregular all-to-all consults it.
    pub(crate) fn time_at(
        &self,
        graph: &Graph,
        pos: usize,
        producer: impl Fn(TensorId) -> Option<usize>,
    ) -> lancet_ir::Result<f64> {
        let instr = &graph.instrs()[pos];
        let in_shapes: Vec<&Shape> = instr.inputs.iter().map(|&t| &graph.tensor(t).shape).collect();
        let op = &instr.op;
        Ok(match op {
            Op::AllToAll => self.a2a_model.query(op.comm_bytes(&in_shapes)),
            Op::AllToAllIrr => {
                // Static-shape approximation: the n-partitioned irregular
                // all-to-all costs what a uniform one of capacity C/n
                // costs (paper §3).
                let padded = op.comm_bytes(&in_shapes);
                let parts = irr_parts(graph, pos, producer).max(1);
                self.a2a_model.query_partitioned(padded, parts)
            }
            Op::AllReduce => self.comm_truth.all_reduce_time(op.comm_bytes(&in_shapes), self.gpus),
            Op::AllGather { .. } => {
                self.comm_truth.all_gather_time(op.comm_bytes(&in_shapes), self.gpus)
            }
            Op::ReduceScatter { .. } => {
                self.comm_truth.reduce_scatter_time(op.comm_bytes(&in_shapes), self.gpus)
            }
            _ => self.profiler.profile(op, &in_shapes)?,
        })
    }

    /// Runs the two-stream sweep over the whole instruction sequence and
    /// reports the estimated timeline.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the profiler.
    pub fn estimate(&self, graph: &Graph) -> lancet_ir::Result<EstimateReport> {
        let producers = LazyCell::new(|| graph.producer_positions());
        sweep(graph.instrs(), |pos| self.time_at(graph, pos, |t| producers.get(&t).copied()))
    }
}

/// The two-stream sweep: each instruction starts when its inputs are
/// ready and its stream (compute or communication) is free, and takes
/// `time(i)` for the `i`-th instruction of `instrs`. Tensors no
/// instruction of `instrs` produces are ready at 0.
///
/// # Errors
///
/// Propagates the first error of `time`.
pub(crate) fn sweep(
    instrs: &[Instr],
    mut time: impl FnMut(usize) -> lancet_ir::Result<f64>,
) -> lancet_ir::Result<EstimateReport> {
    let mut ready: HashMap<TensorId, f64> = HashMap::new();
    let mut compute_free = 0.0f64;
    let mut comm_free = 0.0f64;
    let mut compute_busy = 0.0;
    let mut comm_busy = 0.0;
    for (i, instr) in instrs.iter().enumerate() {
        let in_ready = instr
            .inputs
            .iter()
            .map(|t| ready.get(t).copied().unwrap_or(0.0))
            .fold(0.0f64, f64::max);
        let dur = time(i)?;
        let end = if instr.op.is_comm() {
            let start = in_ready.max(comm_free);
            comm_free = start + dur;
            comm_busy += dur;
            comm_free
        } else {
            let start = in_ready.max(compute_free);
            compute_free = start + dur;
            compute_busy += dur;
            compute_free
        };
        for &o in &instr.outputs {
            ready.insert(o, end);
        }
    }
    Ok(EstimateReport { total: compute_free.max(comm_free), compute_busy, comm_busy })
}

/// The `n` of the static-shape approximation for an irregular all-to-all:
/// read from the `parts` attribute of the dispatch that originated its
/// counts chain.
fn irr_parts(graph: &Graph, pos: usize, producer: impl Fn(TensorId) -> Option<usize>) -> usize {
    let mut cursor = graph.instrs()[pos].inputs[1];
    for _ in 0..graph.instrs().len() {
        let Some(p) = producer(cursor) else { return 1 };
        match &graph.instrs()[p].op {
            Op::MoeDispatchIrr { parts, .. } => return *parts,
            Op::AllToAllIrr => cursor = graph.instrs()[p].inputs[1],
            _ => return 1,
        }
    }
    1
}

#[cfg(test)]
mod tests {
    use super::*;
    use lancet_cost::{ClusterSpec, ComputeModel};
    use lancet_ir::{GateKind, Role};

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

    #[test]
    fn sequential_chain_sums() {
        let mut g = Graph::new();
        let x = g.input("x", vec![256, 256]);
        let w = g.weight("w", vec![256, 256]);
        let a = g.emit(Op::MatMul { transpose_b: false }, &[x, w], Role::Forward).unwrap();
        let _b = g.emit(Op::MatMul { transpose_b: false }, &[a, w], Role::Forward).unwrap();
        let est = estimator(8);
        let r = est.estimate(&g).unwrap();
        assert!((r.total - r.compute_busy).abs() < 1e-12);
        assert_eq!(r.comm_busy, 0.0);
    }

    #[test]
    fn overlap_reduces_total() {
        let mut g = Graph::new();
        let x = g.input("x", vec![8, 64, 512]);
        let w = g.weight("w", vec![512, 512]);
        let h = g.emit(Op::MatMul { transpose_b: false }, &[x, w], Role::Forward).unwrap();
        let t = g.emit(Op::AllToAll, &[h], Role::Comm).unwrap();
        let _i = g.emit(Op::MatMul { transpose_b: false }, &[x, w], Role::Forward).unwrap();
        let _y = g.emit(Op::MatMul { transpose_b: false }, &[t, w], Role::Forward).unwrap();
        let est = estimator(16);
        let r = est.estimate(&g).unwrap();
        assert!(r.total < r.compute_busy + r.comm_busy);
    }

    #[test]
    fn partitioned_alltoall_priced_at_fraction() {
        let mk = |parts: usize| {
            let mut g = Graph::new();
            let x = g.input("x", vec![4, 16, 64]);
            let wg = g.weight("gate.w", vec![64, 8]);
            let cap0 = g.emit(Op::Zeros { shape: vec![8] }, &[], Role::Forward).unwrap();
            let gate = g
                .emit_multi(
                    Op::GateChunk { kind: GateKind::Switch, experts: 8, capacity: 16, parts },
                    &[x, wg, cap0],
                    Role::Forward,
                )
                .unwrap();
            let d = g
                .emit_multi(Op::MoeDispatchIrr { experts: 8, capacity: 16, parts }, &[x, gate[0], gate[1]], Role::Forward)
                .unwrap();
            let _ = g.emit_multi(Op::AllToAllIrr, &[d[0], d[1]], Role::Comm).unwrap();
            g
        };
        let est = estimator(16);
        let one = est.estimate(&mk(1)).unwrap();
        let four = est.estimate(&mk(4)).unwrap();
        assert!(four.comm_busy < one.comm_busy);
    }

    #[test]
    fn profiler_cache_fills() {
        let mut g = Graph::new();
        let x = g.input("x", vec![64, 64]);
        let _ = g.emit(Op::Relu, &[x], Role::Forward).unwrap();
        let _ = g.emit(Op::Relu, &[x], Role::Forward).unwrap();
        let est = estimator(8);
        est.estimate(&g).unwrap();
        assert_eq!(est.profiler().stats().misses, 1);
        assert_eq!(est.profiler().stats().hits, 1);
    }
}
