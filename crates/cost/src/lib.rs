//! Cost modelling for the Lancet reproduction.
//!
//! The paper's system profiles operator execution times on real GPUs and
//! builds a communication cost model by measuring all-to-alls at
//! power-of-two sizes with linear interpolation in between (§3). Having no
//! GPUs, we substitute an *analytical* hardware model (documented in
//! DESIGN.md): operator latency follows a roofline with kernel-launch
//! overhead and a saturating utilization curve, and network transfers
//! follow a hierarchical (NVLink intra-node / NIC inter-node) model with
//! per-message latency and saturating bandwidth.
//!
//! Two layers matter and are kept deliberately distinct:
//!
//! * **Ground truth** ([`ComputeModel`], [`CommModel`]) — what the
//!   discrete-event simulator charges when "running" an instruction.
//! * **Compiler estimates** ([`CachingOpProfiler`], [`CommCostModel`]) —
//!   what the Lancet passes consult. The profiler caches per-(op, shape)
//!   measurements; the comm cost model interpolates between profiled
//!   points and applies the paper's static-shape `C/n` approximation for
//!   irregular all-to-alls. The gap between the two layers is exactly the
//!   cost-model error the paper measures in Fig. 14.
//!
//! A third concern sits on top of both: **expert placement**
//! ([`optimize_placement`]) searches expert→device assignments against a
//! routing histogram ([`ExpertTraffic`]) so skewed, affinity-correlated
//! workloads pay fewer inter-node bytes than the implicit uniform layout.

#![warn(missing_docs)]

mod comm;
mod compute;
mod device;
mod placement;
mod profiler;

pub use comm::{CommCostModel, CommModel};
pub use compute::ComputeModel;
pub use device::{ClusterKind, ClusterSpec, DeviceSpec, NetworkSpec};
pub use placement::{
    evaluate_placement, optimize_placement, ExpertTraffic, LayerProfile, PlacementCost,
    PlacementOptions, PlacementPlan, PlacementReport,
};
pub use profiler::{CachingOpProfiler, ProfilerStats};
