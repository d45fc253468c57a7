//! The operator partition pass (paper §5).
//!
//! Three stages, one per submodule:
//!
//! 1. Range selection ([`partition_pass`], `dp` module) chooses *which*
//!    instruction ranges to pipeline and into how many parts — a
//!    dynamic program over instruction groups, run by a parallel,
//!    memoized search engine sharing a [`PartitionMemo`].
//! 2. Axis inference ([`infer_axes`], `axis` module) decides *how* each
//!    tensor inside a candidate range splits — a constraint-propagation
//!    solver over per-op axis rules.
//! 3. Codegen ([`apply_partitions`], `codegen` module) rewrites the
//!    chosen ranges into software-pipelined chunk schedules.

mod axis;
mod codegen;
mod dp;

pub use axis::{infer_axes, AxisSolution, PartAxis};
pub use codegen::{apply_partitions, PartitionSpec};
pub use dp::{
    partition_pass, partition_pass_with, PartitionMemo, PartitionOptions, PartitionReport,
};
