//! `lancet-serve`: a concurrent MoE inference-serving runtime on top of
//! the Lancet optimizer stack.
//!
//! Training amortizes the Lancet compiler passes over thousands of
//! identical iterations; serving sees a *stream* of small, deadline-bound
//! requests. This crate closes that gap with three pieces:
//!
//! 1. a **micro-batcher** that groups incoming requests into power-of-two
//!    shape buckets within a bounded batching window,
//! 2. a **plan cache** that maps (model, bucket, cluster) to an optimized
//!    plan — the forward graph after the Lancet partition pass, pre-bound
//!    to the model's weights — so the optimizer's cost is paid once per
//!    key instead of once per request, and
//! 3. **admission control**: a bounded queue that rejects excess load
//!    with a typed [`ServeError::Overloaded`], plus an optional
//!    per-request latency budget that sheds already-late requests.
//!
//! Micro-batching is *transparent*: registration normalizes the model's
//! capacity factor so expert routing is drop-free, which together with
//! the executor's fixed reduction order makes every batched response
//! bit-identical to solo serving. Batching changes throughput, never
//! output bits.
//!
//! The runtime is built to *survive* faults, and ships its own chaos
//! harness to prove it: a seeded [`FaultSpec`] injects slow workers,
//! worker panics, transient execution failures, plan-build failures, and
//! batcher stalls deterministically, while per-request timeouts, bounded
//! retry with backoff, batch degradation to smaller buckets, and panic
//! isolation keep the exactly-once response contract — every admitted
//! request gets exactly one reply or one typed [`ServeError`]. Fault and
//! recovery counters surface in [`ServeStats`].
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use lancet_ir::GateKind;
//! use lancet_models::GptMoeConfig;
//! use lancet_serve::{ServeConfig, ServeRuntime};
//!
//! let runtime = ServeRuntime::start(ServeConfig {
//!     max_batch: 4,
//!     batch_window: Duration::from_millis(1),
//!     ..ServeConfig::default()
//! });
//! let cfg = GptMoeConfig::tiny(1, GateKind::Switch);
//! runtime.register_model(cfg.clone())?;
//!
//! let logits = runtime.submit_blocking(&cfg.name, vec![1.0, 2.0, 3.0, 4.0])?;
//! assert_eq!(logits.shape(), &[cfg.seq, cfg.vocab]);
//! assert!(runtime.stats().completed >= 1);
//! runtime.shutdown();
//! # Ok::<(), lancet_serve::ServeError>(())
//! ```

#![warn(missing_docs)]

mod cache;
mod error;
mod fault;
mod plan;
mod runtime;
mod stats;
mod trace;

pub use cache::{CacheStats, PlanCache};
pub use error::{Result, ServeError};
pub use fault::{FaultInjector, FaultSpec};
pub use plan::{canonical_weights, pack_weights, CanonicalWeights, PackSet, Plan, PlanKey};
pub use runtime::{ServeConfig, ServeRuntime, Ticket};
pub use stats::{Metrics, ServeStats};
pub use trace::{open_loop_trace, replay_open_loop, Lcg, ReplayReport, TraceRequest};
