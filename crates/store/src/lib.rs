//! `lancet-store`: an mmap-friendly, stable on-disk model format.
//!
//! One `ServeRuntime` per process keeps model weights in per-process
//! `Arc`'d tensors, so every replica pays an O(copy) cold start and holds
//! its own copy of every parameter. This crate replaces that with a
//! *store file*: aligned little-endian sections behind a checksummed
//! header and per-tensor table of contents (epserde-style), written once
//! by `lancet pack-model` and opened by any number of replicas. Opening
//! maps the file read-only — tensors and prepacked GEMM panels borrow the
//! mapped pages zero-copy — so N replicas on one host share physical
//! pages and cold start is O(open). Loaded weights are bit-identical to
//! the canonical in-process initialization path (property-tested across
//! the model zoo), and because the store carries the prepacked panels
//! too, replicas skip re-packing at load.
//!
//! Corrupt, truncated, or wrong-version files fail with a typed
//! [`StoreError`] — never UB, never a panic. See `docs/ARCHITECTURE.md`
//! for the layout diagram and [`OpenOptions`] for the open-time switches.
//!
//! # Example
//!
//! ```
//! use std::collections::HashMap;
//! use lancet_store::{open_store, write_store};
//! use lancet_tensor::Tensor;
//!
//! let dir = std::env::temp_dir();
//! let path = dir.join(format!("doc-store-{}.lancet", std::process::id()));
//! let weights = vec![HashMap::from([(
//!     "w".to_string(),
//!     Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0])?,
//! )])];
//! write_store(&path, "demo", &weights, &Vec::new())?;
//!
//! let model = open_store(&path)?;
//! assert_eq!(model.name, "demo");
//! assert_eq!(model.weights[0]["w"].data(), &[1.0, 2.0, 3.0, 4.0]);
//! std::fs::remove_file(&path).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod error;
pub mod format;
pub mod mapping;
mod reader;
mod writer;

pub use error::StoreError;
pub use mapping::mmap_supported;
pub use reader::{open_store, open_store_with, OpenOptions, StoredModel};
pub use writer::{write_store, StoredPacks, WriteSummary};
