//! Training-graph intermediate representation for the Lancet reproduction.
//!
//! The IR models a training iteration as a *sequence of instructions*
//! ([`Instr`]) over statically shaped tensors ([`TensorDef`]), exactly as in
//! the paper (§4): program order is execution-issue order on a device's
//! streams, and the Lancet passes transform the sequence (reordering dW
//! instructions, partitioning forward operators).
//!
//! Main pieces:
//!
//! * [`Op`] — the operator set: dense Transformer compute, fused attention,
//!   MoE gating/dispatch/gather (including the irregular, capacity-passing
//!   partitioned variants of paper Fig. 5c), and collectives.
//! * [`Graph`] — tensor definitions plus the instruction sequence, with
//!   validation, producer/user maps, and builder helpers.
//! * [`DepGraph`] — dependency edges and reachability queries used by the
//!   dW-labelling analysis (paper §4.1).
//! * [`build_backward`] — reverse-mode differentiation that emits explicit
//!   activation-gradient (dX) and weight-gradient (dW) instructions with
//!   [`Role`] tags, giving the scheduling pass its raw material.
//!
//! # Example
//!
//! ```
//! use lancet_ir::{Graph, Op, Role};
//!
//! let mut g = Graph::new();
//! let x = g.input("x", vec![4, 8]);
//! let w = g.weight("w", vec![8, 2]);
//! let y = g.emit(Op::MatMul { transpose_b: false }, &[x, w], Role::Forward)?;
//! assert_eq!(g.tensor(y).shape.dims(), &[4, 2]);
//! assert!(g.validate().is_ok());
//! # Ok::<(), lancet_ir::IrError>(())
//! ```

mod autodiff;
mod dce;
mod dep;
mod dot;
mod error;
mod graph;
mod op;
mod text;
mod types;

pub use autodiff::{build_backward, BackwardOptions, Optimizer};
pub use dce::eliminate_dead_code;
pub use dep::DepGraph;
pub use dot::to_dot;
pub use error::IrError;
pub use graph::{Graph, Instr, TensorDef};
pub use op::Op;
pub use text::{summarize, to_text};
pub use types::{GateKind, InstrId, Role, TensorId, TensorKind};

pub use lancet_tensor::{det, Shape};

/// Result alias for fallible IR operations.
pub type Result<T> = std::result::Result<T, IrError>;
