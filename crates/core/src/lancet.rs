//! The `Lancet` facade: full optimization flow and iteration-time
//! prediction.

use crate::{
    partition_pass_with, prefetch_allgathers, schedule_weight_gradients, DwScheduleReport,
    PartitionMemo, PartitionOptions, PartitionReport, PrefetchReport, TimeEstimator,
};
use lancet_cost::{
    optimize_placement, CachingOpProfiler, ClusterSpec, CommCostModel, CommModel, ComputeModel,
    ExpertTraffic, PlacementOptions, PlacementPlan, PlacementReport,
};
use lancet_ir::{build_backward, BackwardOptions, Graph, Result};
use std::time::{Duration, Instant};

/// Options controlling the Lancet optimization flow.
#[derive(Debug, Clone)]
pub struct LancetOptions {
    /// Disable the dW scheduling pass (ablation).
    pub disable_dw_schedule: bool,
    /// Disable the operator partition pass (ablation).
    pub disable_partition: bool,
    /// Partition-pass hyper-parameters (ρ, γ, ι).
    pub partition: PartitionOptions,
    /// Backward-graph construction options.
    pub backward: BackwardOptions,
    /// FSDP all-gather prefetch lookahead (0 disables; only affects
    /// graphs containing all-gathers).
    pub prefetch_lookahead: usize,
    /// Expert-placement co-optimization: when a routing histogram is
    /// supplied, [`Lancet::optimize`] runs the placement search next to
    /// the partition pass and attaches the resulting plan to the
    /// outcome. `None` keeps the implicit uniform placement.
    pub placement: Option<PlacementSearch>,
}

/// Inputs for the placement search inside the optimization flow.
#[derive(Debug, Clone)]
pub struct PlacementSearch {
    /// Routing histogram driving the search (collected by
    /// `lancet_moe::RoutingHistogram` or generated synthetically).
    pub traffic: ExpertTraffic,
    /// Search knobs (balance weight, sweep budget).
    pub options: PlacementOptions,
}

impl PlacementSearch {
    /// Wraps a histogram with default search options.
    pub fn new(traffic: ExpertTraffic) -> Self {
        PlacementSearch { traffic, options: PlacementOptions::default() }
    }
}

/// The placement half of an [`OptimizeOutcome`]: the chosen plan plus
/// the before/after cost report, sitting next to [`PartitionReport`] so
/// downstream consumers (simulator replay, serve dispatch) can pick it
/// up from one place.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementOutcome {
    /// The optimized expert→device assignment.
    pub plan: PlacementPlan,
    /// Uniform-vs-optimized cost comparison from the search.
    pub report: PlacementReport,
}

impl Default for LancetOptions {
    fn default() -> Self {
        LancetOptions {
            disable_dw_schedule: false,
            disable_partition: false,
            partition: PartitionOptions::default(),
            backward: BackwardOptions::default(),
            prefetch_lookahead: 1,
            placement: None,
        }
    }
}

impl LancetOptions {
    /// Options for building **decode-serving plans** (prefill and
    /// decode-step graphs in `lancet-decode`).
    ///
    /// Every training/throughput pass is off, deliberately:
    ///
    /// * **Partitioning is disabled** because decode plans harvest
    ///   per-layer K/V activations by the tensor ids recorded at graph
    ///   construction — the partition pass renumbers tensors, which would
    ///   leave those handles dangling. (Decode-step graphs are also
    ///   latency-bound at tiny batch sizes, where partition-pipelining a
    ///   single micro-batch has nothing to overlap.) With partitioning
    ///   off, [`Lancet::optimize_forward`] returns the forward graph
    ///   unchanged, so construction-time ids stay valid — the contract
    ///   `lancet_serve::Plan::build_prefill` checks via
    ///   [`Lancet::options`].
    /// * dW scheduling and prefetch are training passes; no backward
    ///   graph exists at serving time.
    pub fn decode_serving() -> Self {
        LancetOptions {
            disable_dw_schedule: true,
            disable_partition: true,
            prefetch_lookahead: 0,
            ..LancetOptions::default()
        }
    }
}

/// Where the optimizer's wall-clock time went and how effective the
/// search caches were — the measurement behind the paper's Fig. 15
/// optimization-time story (see `fig15_opt_time` in `lancet-bench`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OptimizerStats {
    /// Wall time spent in the partition pass (dominates optimization).
    pub partition_time: Duration,
    /// Wall time spent in autodiff + prefetch placement.
    pub backward_time: Duration,
    /// Wall time spent in dW scheduling.
    pub dw_time: Duration,
    /// `P(i, n, k)` pricings the partition DP had to materialize and
    /// estimate (memo misses).
    pub candidates_evaluated: usize,
    /// Pricings answered by the structural memo — including hits against
    /// evaluations from *earlier* [`Lancet::optimize`] calls, since the
    /// memo lives on the [`Lancet`] instance.
    pub candidates_cached: usize,
    /// Worker threads the partition search ran with.
    pub workers: usize,
}

impl OptimizerStats {
    /// Fraction of DP pricings answered from the memo, in `[0, 1]`.
    pub fn cache_ratio(&self) -> f64 {
        let total = self.candidates_evaluated + self.candidates_cached;
        if total == 0 {
            0.0
        } else {
            self.candidates_cached as f64 / total as f64
        }
    }
}

/// Result of optimizing one model.
#[derive(Debug)]
pub struct OptimizeOutcome {
    /// The optimized training graph (forward partitioned, backward
    /// generated, dW instructions scheduled).
    pub graph: Graph,
    /// Cost-model-predicted iteration time, seconds (paper Fig. 14
    /// compares this against measured time).
    pub predicted_time: f64,
    /// Partition-pass report (empty ranges when disabled).
    pub partition: Option<PartitionReport>,
    /// Expert-placement plan + report (`None` unless a routing histogram
    /// was supplied via [`LancetOptions::placement`]).
    pub placement: Option<PlacementOutcome>,
    /// dW-pass report (`None` when disabled).
    pub dw: Option<DwScheduleReport>,
    /// FSDP prefetch report (zero moves for non-FSDP graphs).
    pub prefetch: PrefetchReport,
    /// Wall-clock time the optimization took (paper Fig. 15).
    pub optimization_time: Duration,
    /// Per-pass timing and search-cache effectiveness.
    pub stats: OptimizerStats,
}

/// The Lancet optimizer: compiler passes wired to a cluster's cost
/// models. See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct Lancet {
    estimator: TimeEstimator,
    options: LancetOptions,
    memo: PartitionMemo,
}

impl Lancet {
    /// Builds an optimizer for a cluster of `gpus` devices described by
    /// `spec`. Profiles the communication cost model up to 1 GiB
    /// transfers (paper §3).
    pub fn new(spec: ClusterSpec, gpus: usize, options: LancetOptions) -> Self {
        let truth = CommModel::new(spec.clone());
        let a2a = CommCostModel::build(&truth, 1 << 30, gpus);
        let profiler = CachingOpProfiler::new(ComputeModel::new(spec.device.clone()));
        Lancet {
            estimator: TimeEstimator::new(profiler, a2a, truth, gpus),
            options,
            memo: PartitionMemo::new(),
        }
    }

    /// The compiler-side time estimator.
    pub fn estimator(&self) -> &TimeEstimator {
        &self.estimator
    }

    /// The options this optimizer was built with. Downstream plan
    /// builders use this to *check* preconditions instead of assuming
    /// them — e.g. KV-harvesting prefill plans require
    /// [`LancetOptions::decode_serving`]-style options (partition
    /// disabled) so graph tensor ids survive optimization.
    pub fn options(&self) -> &LancetOptions {
        &self.options
    }

    /// The structural memo shared by every [`optimize`](Self::optimize)
    /// call on this instance: repeated optimizations of structurally
    /// similar graphs (ablation sweeps, figure regeneration) reuse each
    /// other's partition-candidate evaluations.
    pub fn partition_memo(&self) -> &PartitionMemo {
        &self.memo
    }

    /// Runs the expert-placement search when a histogram is configured.
    /// Devices and node width come from the cluster the optimizer was
    /// built for, so the plan prices against the same topology as every
    /// other pass.
    fn search_placement(&self) -> Option<PlacementOutcome> {
        let search = self.options.placement.as_ref()?;
        let gpn = self.estimator.comm_truth().spec().net.gpus_per_node;
        let (plan, report) =
            optimize_placement(&search.traffic, self.estimator.gpus(), gpn, &search.options);
        Some(PlacementOutcome { plan, report })
    }

    /// Optimizes a *forward* graph into a full training iteration:
    /// operator partitioning (paper §5), autodiff, then dW scheduling
    /// (paper §4).
    ///
    /// # Errors
    ///
    /// Propagates IR/estimation failures from the passes.
    pub fn optimize(&self, forward: Graph) -> Result<OptimizeOutcome> {
        let started = Instant::now();
        let mut stats = OptimizerStats::default();
        let (mut graph, partition) = if self.options.disable_partition {
            (forward, None)
        } else {
            let (g, report) =
                partition_pass_with(&forward, &self.estimator, &self.options.partition, &self.memo)?;
            stats.partition_time = started.elapsed();
            stats.candidates_evaluated = report.memo_misses;
            stats.candidates_cached = report.memo_hits;
            stats.workers = report.workers;
            (g, Some(report))
        };
        let backward_started = Instant::now();
        build_backward(&mut graph, &self.options.backward)?;
        let prefetch = prefetch_allgathers(&mut graph, self.options.prefetch_lookahead)?;
        stats.backward_time = backward_started.elapsed();
        let dw_started = Instant::now();
        let dw = if self.options.disable_dw_schedule {
            None
        } else {
            Some(schedule_weight_gradients(&mut graph, &self.estimator)?)
        };
        stats.dw_time = dw_started.elapsed();
        let predicted_time = self.estimator.estimate(&graph)?.total;
        Ok(OptimizeOutcome {
            graph,
            predicted_time,
            partition,
            placement: self.search_placement(),
            dw,
            prefetch,
            optimization_time: started.elapsed(),
            stats,
        })
    }

    /// Optimizes a *forward* graph for inference serving: the operator
    /// partition pass (paper §5) and the time estimate, with no autodiff,
    /// prefetch, or dW scheduling — none of which exist at serving time.
    ///
    /// This is the plan-building half of a serving runtime: the returned
    /// outcome is deterministic for a given graph and optimizer, so a
    /// plan cache (`lancet-serve`) can key it by model/batch/cluster and
    /// replay it for every request. Partition-candidate pricing reuses
    /// the same [`PartitionMemo`] as [`optimize`](Self::optimize), and
    /// the search/caching measurements land in the same
    /// [`OptimizerStats`].
    ///
    /// # Errors
    ///
    /// Propagates IR/estimation failures from the passes.
    pub fn optimize_forward(&self, forward: Graph) -> Result<OptimizeOutcome> {
        let started = Instant::now();
        let mut stats = OptimizerStats::default();
        let (graph, partition) = if self.options.disable_partition {
            (forward, None)
        } else {
            let (g, report) =
                partition_pass_with(&forward, &self.estimator, &self.options.partition, &self.memo)?;
            stats.partition_time = started.elapsed();
            stats.candidates_evaluated = report.memo_misses;
            stats.candidates_cached = report.memo_hits;
            stats.workers = report.workers;
            (g, Some(report))
        };
        let predicted_time = self.estimator.estimate(&graph)?.total;
        Ok(OptimizeOutcome {
            graph,
            predicted_time,
            partition,
            placement: self.search_placement(),
            dw: None,
            prefetch: PrefetchReport { moved: 0 },
            optimization_time: started.elapsed(),
            stats,
        })
    }

    /// Builds the unoptimized training graph (autodiff only) and predicts
    /// its iteration time — the RAF baseline.
    ///
    /// # Errors
    ///
    /// Propagates IR/estimation failures.
    pub fn baseline(&self, forward: Graph) -> Result<OptimizeOutcome> {
        let started = Instant::now();
        let mut graph = forward;
        build_backward(&mut graph, &self.options.backward)?;
        let predicted_time = self.estimator.estimate(&graph)?.total;
        Ok(OptimizeOutcome {
            graph,
            predicted_time,
            partition: None,
            placement: None,
            dw: None,
            prefetch: PrefetchReport { moved: 0 },
            optimization_time: started.elapsed(),
            stats: OptimizerStats::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lancet_ir::GateKind;
    use lancet_models::{build_forward, GptMoeConfig};

    fn forward(gate: GateKind) -> Graph {
        let cfg = GptMoeConfig::gpt2_s_moe(16, gate).with_layers(4).with_batch(8);
        build_forward(&cfg).unwrap().graph
    }

    #[test]
    fn optimize_beats_baseline_prediction() {
        let lancet = Lancet::new(ClusterSpec::v100(2), 16, LancetOptions::default());
        let base = lancet.baseline(forward(GateKind::Switch)).unwrap();
        let opt = lancet.optimize(forward(GateKind::Switch)).unwrap();
        assert!(opt.graph.validate().is_ok());
        assert!(
            opt.predicted_time < base.predicted_time,
            "optimized {} !< baseline {}",
            opt.predicted_time,
            base.predicted_time
        );
        assert!(opt.partition.as_ref().is_some_and(|p| !p.ranges.is_empty()));
        assert!(opt.dw.as_ref().is_some_and(|d| d.assigned > 0));
    }

    #[test]
    fn ablation_toggles_apply() {
        let only_dw = LancetOptions { disable_partition: true, ..LancetOptions::default() };
        let lancet = Lancet::new(ClusterSpec::v100(2), 16, only_dw);
        let out = lancet.optimize(forward(GateKind::Switch)).unwrap();
        assert!(out.partition.is_none());
        assert!(out.dw.is_some());

        let only_part = LancetOptions { disable_dw_schedule: true, ..LancetOptions::default() };
        let lancet = Lancet::new(ClusterSpec::v100(2), 16, only_part);
        let out = lancet.optimize(forward(GateKind::Switch)).unwrap();
        assert!(out.partition.is_some());
        assert!(out.dw.is_none());
    }

    #[test]
    fn optimization_time_recorded() {
        let lancet = Lancet::new(ClusterSpec::v100(2), 16, LancetOptions::default());
        let out = lancet.optimize(forward(GateKind::Switch)).unwrap();
        assert!(out.optimization_time.as_nanos() > 0);
        assert!(out.stats.partition_time.as_nanos() > 0);
        assert!(out.stats.workers >= 1);
        let report = out.partition.unwrap();
        assert_eq!(out.stats.candidates_cached, report.memo_hits);
        assert_eq!(out.stats.candidates_evaluated, report.memo_misses);
    }

    /// The placement search rides along with `optimize`: a configured
    /// histogram yields a plan next to the partition report, priced on
    /// the optimizer's own cluster topology, deterministically.
    #[test]
    fn optimize_threads_placement_plan() {
        let traffic = ExpertTraffic::synthetic(4, 16, 1024, 1.2, 0.8, 4096, 0x91ACE);
        let options = LancetOptions {
            placement: Some(PlacementSearch::new(traffic)),
            ..LancetOptions::default()
        };
        let lancet = Lancet::new(ClusterSpec::v100(2), 16, options);
        let out = lancet.optimize(forward(GateKind::Switch)).unwrap();
        let placement = out.placement.expect("placement configured");
        assert_eq!(placement.plan.devices(), 16);
        assert!(placement.report.optimized.objective <= placement.report.uniform.objective);
        let again = lancet.optimize(forward(GateKind::Switch)).unwrap();
        assert_eq!(again.placement.unwrap(), placement, "search must be deterministic");
        // Unconfigured optimizers keep the implicit uniform placement.
        let plain = Lancet::new(ClusterSpec::v100(2), 16, LancetOptions::default());
        assert!(plain.optimize(forward(GateKind::Switch)).unwrap().placement.is_none());
    }

    /// `optimize_forward` is the serving-side flow: no backward pass in
    /// the result, deterministic across calls (the plan-cache contract),
    /// and it shares the instance's partition memo with `optimize`.
    #[test]
    fn optimize_forward_is_deterministic_and_forward_only() {
        let lancet = Lancet::new(ClusterSpec::v100(2), 16, LancetOptions::default());
        let first = lancet.optimize_forward(forward(GateKind::Switch)).unwrap();
        assert!(first.dw.is_none());
        assert_eq!(first.prefetch.moved, 0);
        assert!(first.graph.validate().is_ok());
        // Forward-only: autodiff never ran, so no weight-gradient instrs.
        assert!(first.graph.weight_grad_positions().is_empty());

        let second = lancet.optimize_forward(forward(GateKind::Switch)).unwrap();
        assert_eq!(second.predicted_time, first.predicted_time);
        assert_eq!(
            lancet_ir::to_text(&second.graph),
            lancet_ir::to_text(&first.graph),
            "plan building must be deterministic"
        );
        // The second build is answered from the shared partition memo.
        assert_eq!(second.stats.candidates_evaluated, 0);
    }

    /// The memo lives on the `Lancet` instance: re-optimizing the same
    /// model is answered (almost) entirely from cache, with identical
    /// results.
    #[test]
    fn repeat_optimize_hits_partition_memo() {
        let lancet = Lancet::new(ClusterSpec::v100(2), 16, LancetOptions::default());
        let first = lancet.optimize(forward(GateKind::Switch)).unwrap();
        let second = lancet.optimize(forward(GateKind::Switch)).unwrap();
        assert_eq!(second.stats.candidates_evaluated, 0, "second optimize must be fully cached");
        assert!(second.stats.cache_ratio() > 0.99);
        assert_eq!(second.predicted_time, first.predicted_time);
        assert_eq!(
            second.partition.as_ref().unwrap().ranges,
            first.partition.as_ref().unwrap().ranges
        );
        assert!(!lancet.partition_memo().is_empty());
    }
}
