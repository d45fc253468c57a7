//! `lancet-decode`: autoregressive decode serving with a KV cache and
//! continuous batching.
//!
//! `lancet-serve` answers one-shot forward requests; this crate serves
//! *generation*: a prompt comes in, tokens stream back one at a time,
//! and each token costs a full pass whose attention must see everything
//! generated so far. Three pieces make that efficient and correct:
//!
//! 1. a **KV arena** ([`KvArena`]) holding per-sequence, per-layer
//!    key/value rows with reservation-based admission, slot reuse, and
//!    transactional per-step commit/rollback;
//! 2. a **decode scheduler** ([`DecodeRuntime`]) that advances all
//!    in-flight sequences in lock-step steps and — in
//!    [`BatchMode::Continuous`] — lets new requests *join the running
//!    batch at step boundaries* instead of waiting for a batch window
//!    to drain, with prompts prefilled through serve's plan cache in
//!    power-of-two length buckets;
//! 3. **streamed responses** ([`StreamTicket`]) carrying
//!    sequence-numbered tokens whose emit-by-index idempotence upgrades
//!    serve's exactly-once *response* contract to exactly-once *per
//!    token* under deterministic fault injection.
//!
//! The load-bearing invariant, inherited from serve and proven by this
//! crate's property tests, is **bit-identity**: a KV-cached decode step
//! through [`DecodeModel`] produces the same logits bits as re-running
//! the full sequence through the graph executor, whether the sequence
//! runs solo or batched with others, prefilled exactly or through a
//! padded bucket. Batching and caching change *when* work happens,
//! never *what* comes out.
//!
//! The crate exports the runtime only: the open-loop trace and replay
//! harness its benchmark drives live in `lancet-bench`
//! (`lancet_bench::load`).
//!
//! # Example
//!
//! ```
//! use lancet_ir::GateKind;
//! use lancet_models::GptMoeConfig;
//! use lancet_decode::{DecodeConfig, DecodeRuntime};
//!
//! let runtime = DecodeRuntime::start(DecodeConfig::default());
//! let cfg = GptMoeConfig::tiny(1, GateKind::Switch);
//! runtime.register_model(cfg.clone())?;
//!
//! let ticket = runtime.submit(&cfg.name, &[3, 1, 4], 5)?;
//! let tokens = ticket.collect()?;
//! assert_eq!(tokens.len(), 5);
//! runtime.shutdown();
//! # Ok::<(), lancet_serve::ServeError>(())
//! ```

#![warn(missing_docs)]

mod kv;
mod model;
mod runtime;
mod stream;

pub use kv::{KvArena, SlotId};
pub use model::{argmax, DecodeModel, DecodeSession};
pub use runtime::{BatchMode, DecodeConfig, DecodeRuntime};
pub use stream::{FinishReason, StreamTicket, StreamToken};

// Re-export the error types decode APIs speak (shared with serve).
pub use lancet_serve::{Result, ServeError};
