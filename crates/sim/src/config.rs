//! Simulation configuration.

use crate::FaultPlan;
use lancet_cost::{ExpertTraffic, PlacementPlan};

/// Knobs controlling one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of GPUs participating in collectives.
    pub gpus: usize,
    /// Capacity factor used by the model's MoE layers; determines the
    /// expected utilization of irregular all-to-all buffers (actual tokens
    /// ≈ padded / capacity-factor).
    pub capacity_factor: f64,
    /// Relative jitter (±) applied to sampled irregular loads, modelling
    /// routing imbalance and token drops. `0.1` means ±10 %.
    pub load_jitter: f64,
    /// Seed for the deterministic load sampler.
    pub seed: u64,
    /// Multiplier on compute-op latency, modelling framework overhead
    /// differences (the paper notes PyTorch op performance differs from
    /// RAF's; baselines run with a factor > 1).
    pub compute_overhead: f64,
    /// Multiplier on the liveness-based activation-memory estimate
    /// (framework allocator slack; DeepSpeed's is higher, reproducing its
    /// earlier OOM in Fig. 11).
    pub memory_overhead: f64,
    /// Use the hierarchical (two-stage, node-aggregated) all-to-all
    /// implementation instead of naive per-peer exchange.
    pub hierarchical_a2a: bool,
    /// Run non-all-to-all collectives (all-reduce, all-gather,
    /// reduce-scatter) on a second communication channel so they proceed
    /// concurrently with MoE all-to-alls — the arrangement the paper's §8
    /// suggests for tensor/sequence-parallel and gradient traffic.
    pub separate_collective_channel: bool,
    /// Model MegaBlocks-style block-sparse expert kernels (paper §8):
    /// expert matmuls fed by *irregular* buffers are charged for actual
    /// token rows instead of the zero-padded capacity.
    pub block_sparse_experts: bool,
    /// Injected faults (stragglers, degraded links, transient drops).
    /// Empty by default — a healthy cluster. Same plan ⇒ bit-identical
    /// report; see [`FaultPlan`].
    pub fault_plan: FaultPlan,
    /// Expert placement to replay the schedule under. `None` charges
    /// all-to-alls with the stock uniform model; `Some` derives per-layer
    /// inter-node fractions and load factors from the plan + histogram
    /// (see [`PlacementPlan::layer_profiles`]) so optimized and uniform
    /// placements can be compared on the same schedule.
    pub placement: Option<PlacementSim>,
}

/// A placement scenario for simulation replay: the expert→device plan
/// plus the routing histogram it is judged against.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementSim {
    /// Expert→device assignment per MoE layer.
    pub plan: PlacementPlan,
    /// Routing histogram (loads + inter-layer transitions).
    pub traffic: ExpertTraffic,
}

impl SimConfig {
    /// A configuration for `gpus` devices with neutral overheads.
    pub fn new(gpus: usize) -> Self {
        SimConfig {
            gpus,
            capacity_factor: 1.25,
            load_jitter: 0.1,
            seed: 0x1a5ce7,
            compute_overhead: 1.0,
            memory_overhead: 1.0,
            hierarchical_a2a: false,
            separate_collective_channel: false,
            block_sparse_experts: false,
            fault_plan: FaultPlan::none(),
            placement: None,
        }
    }

    /// Sets the compute-overhead multiplier (builder style).
    pub fn with_compute_overhead(mut self, factor: f64) -> Self {
        self.compute_overhead = factor;
        self
    }

    /// Sets the memory-overhead multiplier (builder style).
    pub fn with_memory_overhead(mut self, factor: f64) -> Self {
        self.memory_overhead = factor;
        self
    }

    /// Sets the load-sampler seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the injected-fault schedule (builder style).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Replays the schedule under an expert placement (builder style).
    /// All-to-alls are charged with placement-derived inter-node
    /// fractions and load factors instead of the uniform constants.
    pub fn with_placement(mut self, plan: PlacementPlan, traffic: ExpertTraffic) -> Self {
        self.placement = Some(PlacementSim { plan, traffic });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = SimConfig::new(8)
            .with_compute_overhead(1.1)
            .with_memory_overhead(1.2)
            .with_seed(7)
            .with_fault_plan(crate::FaultPlan::generate(3, 8, 0.5));
        assert_eq!(c.gpus, 8);
        assert_eq!(c.compute_overhead, 1.1);
        assert_eq!(c.memory_overhead, 1.2);
        assert_eq!(c.seed, 7);
        assert!(!c.fault_plan.is_empty());
    }

    #[test]
    fn default_is_healthy() {
        assert!(SimConfig::new(8).fault_plan.is_empty());
    }
}
