//! Multi-device SPMD numerical executor for the Lancet IR.
//!
//! Runs a [`lancet_ir::Graph`] on `G` simulated devices holding real `f32`
//! data: compute instructions execute independently per device, collectives
//! (`AllToAll`, `AllToAllIrr`, `AllReduce`) synchronize across devices
//! through the `lancet-moe` data plane.
//!
//! The executor exists to *verify* the compiler: autodiff is checked
//! against finite differences, and the Lancet passes are checked to be
//! semantics-preserving by executing the transformed and original graphs
//! on identical inputs and comparing outputs bit-for-bit (where exact) or
//! within floating-point tolerance.
//!
//! # Example
//!
//! ```
//! use lancet_exec::{Bindings, Executor};
//! use lancet_ir::{Graph, Op, Role};
//! use lancet_tensor::Tensor;
//!
//! let mut g = Graph::new();
//! let x = g.input("x", vec![2, 2]);
//! let y = g.emit(Op::Relu, &[x], Role::Forward)?;
//!
//! let mut b = Bindings::new(1);
//! b.set_all(x, Tensor::from_vec(vec![2, 2], vec![-1.0, 2.0, -3.0, 4.0])?);
//! let out = Executor::new(&g, 1)?.run(b)?;
//! assert_eq!(out.get(0, y).unwrap().data(), &[0.0, 2.0, 0.0, 4.0]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod bindings;
mod error;
mod executor;
mod kernels;

pub use bindings::{init_weights, Bindings, PrepackStats};
pub use error::ExecError;
pub use executor::Executor;

/// Result alias for fallible executor operations.
pub type Result<T> = std::result::Result<T, ExecError>;

/// Evaluates one non-collective op eagerly, outside any graph — the
/// **exact kernels** [`Executor`] runs, exposed for callers that cannot
/// express their computation as a fixed graph (the `lancet-decode`
/// engine's per-step forward, whose attention shapes vary with every
/// sequence's KV length). Because the kernels keep a fixed per-element
/// accumulation order, a value computed here is bit-identical to the same
/// op evaluated inside a graph.
///
/// # Errors
///
/// Returns [`ExecError`] on shape mismatches, kernel failures, or
/// collective ops (which need multi-device context a single eager call
/// does not have). The error's instruction id is a placeholder
/// (`InstrId(u32::MAX)`) since no graph instruction exists.
pub fn eval_op(op: &lancet_ir::Op, ins: &[&lancet_tensor::Tensor]) -> Result<Vec<lancet_tensor::Tensor>> {
    eval_op_packed(op, ins, None)
}

/// [`eval_op`] with an optional prepacked form of the op's `B` operand
/// (`ins[1]` of the matmul family). When the pack's metadata matches the
/// tensor, the kernel skips per-call weight packing — the decode engine
/// packs its weights once at model load and routes every step's matmuls
/// through here. Results are bit-identical to [`eval_op`]; callers are
/// responsible for the pack actually being a snapshot of `ins[1]`'s
/// current values (metadata checks cannot detect a stale pack).
///
/// # Errors
///
/// Same conditions as [`eval_op`].
pub fn eval_op_packed(
    op: &lancet_ir::Op,
    ins: &[&lancet_tensor::Tensor],
    packed_b: Option<&lancet_tensor::PackedTensor>,
) -> Result<Vec<lancet_tensor::Tensor>> {
    use kernels::KernelFailure;
    let instr = lancet_ir::InstrId(u32::MAX);
    kernels::eval(op, ins, packed_b).map_err(|e| match e {
        KernelFailure::Tensor(source) => ExecError::Kernel { instr, op: op.name(), source },
        KernelFailure::Moe(source) => ExecError::Moe { instr, op: op.name(), source },
        KernelFailure::Unsupported(detail) => ExecError::Unsupported { instr, detail },
    })
}
