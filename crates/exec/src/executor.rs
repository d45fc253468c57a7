//! The instruction interpreter.

use crate::kernels::{self, KernelFailure};
use crate::{Bindings, ExecError, Result};
use lancet_ir::{Graph, Op, TensorKind};
use lancet_moe::DispatchedChunk;
use lancet_tensor::Tensor;

/// Executes a validated [`Graph`] over per-device [`Bindings`].
///
/// Compute instructions run independently on each device; collectives
/// synchronize through the `lancet-moe` data plane. See the crate docs for
/// an example.
#[derive(Debug)]
pub struct Executor<'g> {
    graph: &'g Graph,
    devices: usize,
}

impl<'g> Executor<'g> {
    /// Prepares an executor for `graph` on `devices` devices.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Ir`] if the graph fails validation.
    pub fn new(graph: &'g Graph, devices: usize) -> Result<Self> {
        graph.validate()?;
        Ok(Executor { graph, devices })
    }

    /// Prepares an executor for a graph that is already known to be valid
    /// (e.g. it was validated once when a serving plan was built and is
    /// now executed for every request). Skips re-validation, which on a
    /// large model graph is per-call overhead the serving hot path cannot
    /// afford; execution behaves identically to [`Executor::new`]'s.
    pub fn new_prevalidated(graph: &'g Graph, devices: usize) -> Self {
        Executor { graph, devices }
    }

    /// Runs the program, consuming input bindings and returning bindings
    /// extended with every produced tensor.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Unbound`] for missing inputs/weights,
    /// [`ExecError::ShapeMismatch`] for wrongly shaped bindings, and
    /// kernel/data-plane failures wrapped with the offending instruction.
    ///
    /// # Panics
    ///
    /// Panics if `bindings.devices()` differs from the executor's device
    /// count.
    pub fn run(&self, mut bindings: Bindings) -> Result<Bindings> {
        assert_eq!(bindings.devices(), self.devices, "binding/device count mismatch");
        // Check declared shapes of bound inputs and weights.
        for t in self.graph.tensors() {
            if !matches!(t.kind, TensorKind::Input | TensorKind::Weight) {
                continue;
            }
            for d in 0..self.devices {
                let v = bindings.get_required(d, t.id, &t.name)?;
                if v.shape() != t.shape.dims() {
                    return Err(ExecError::ShapeMismatch {
                        name: t.name.clone(),
                        declared: t.shape.dims().to_vec(),
                        bound: v.shape().to_vec(),
                    });
                }
            }
        }

        for instr in self.graph.instrs() {
            if instr.op.is_comm() {
                self.run_collective(instr, &mut bindings)?;
            } else {
                for d in 0..self.devices {
                    // Kernels take borrowed inputs; the borrow ends before
                    // outputs are inserted, so no input is cloned.
                    let outs = {
                        let input_refs: Vec<&Tensor> = instr
                            .inputs
                            .iter()
                            .map(|&t| bindings.get_required(d, t, &self.graph.tensor(t).name))
                            .collect::<Result<_>>()?;
                        // Prepacked weight panels (if `prepack_weights`
                        // ran) live beside the values; hand the matmul
                        // family its `B` operand's pack.
                        let packed = match &instr.op {
                            Op::MatMul { .. }
                            | Op::BatchedMatMul { .. }
                            | Op::Gate { .. }
                            | Op::GateChunk { .. } => {
                                instr.inputs.get(1).and_then(|&t| bindings.packed(d, t))
                            }
                            _ => None,
                        };
                        kernels::eval(&instr.op, &input_refs, packed)
                            .map_err(|e| wrap(e, instr))?
                    };
                    debug_assert_eq!(outs.len(), instr.outputs.len());
                    for (&tid, v) in instr.outputs.iter().zip(outs) {
                        bindings.insert(d, tid, v);
                    }
                }
            }
        }
        Ok(bindings)
    }

    fn run_collective(&self, instr: &lancet_ir::Instr, bindings: &mut Bindings) -> Result<()> {
        let gather = |tid, bindings: &Bindings| -> Result<Vec<Tensor>> {
            (0..self.devices)
                .map(|d| {
                    bindings
                        .get_required(d, tid, &self.graph.tensor(tid).name)
                        .cloned()
                })
                .collect()
        };
        match &instr.op {
            Op::AllToAll => {
                let bufs = gather(instr.inputs[0], bindings)?;
                let out = lancet_moe::all_to_all_uniform(&bufs).map_err(|e| ExecError::Moe {
                    instr: instr.id,
                    op: instr.op.name(),
                    source: e,
                })?;
                for (d, v) in out.into_iter().enumerate() {
                    bindings.insert(d, instr.outputs[0], v);
                }
            }
            Op::AllToAllIrr => {
                let bufs = gather(instr.inputs[0], bindings)?;
                let counts = gather(instr.inputs[1], bindings)?;
                let chunks: Vec<DispatchedChunk> = bufs
                    .into_iter()
                    .zip(counts)
                    .map(|(buf, c)| DispatchedChunk {
                        buf,
                        counts: c.data().iter().map(|&x| x as u32).collect(),
                    })
                    .collect();
                let (out, _stats) =
                    lancet_moe::all_to_all_irregular(&chunks).map_err(|e| ExecError::Moe {
                        instr: instr.id,
                        op: instr.op.name(),
                        source: e,
                    })?;
                for (d, chunk) in out.into_iter().enumerate() {
                    let counts_t = Tensor::from_vec(
                        vec![chunk.counts.len()],
                        chunk.counts.iter().map(|&c| c as f32).collect(),
                    )
                    .expect("counts volume matches");
                    bindings.insert(d, instr.outputs[0], chunk.buf);
                    bindings.insert(d, instr.outputs[1], counts_t);
                }
            }
            Op::AllReduce => {
                let vals = gather(instr.inputs[0], bindings)?;
                let out = lancet_moe::all_reduce_sum(&vals).map_err(|e| ExecError::Moe {
                    instr: instr.id,
                    op: instr.op.name(),
                    source: e,
                })?;
                for (d, v) in out.into_iter().enumerate() {
                    bindings.insert(d, instr.outputs[0], v);
                }
            }
            Op::AllGather { gpus } => {
                if *gpus != self.devices {
                    return Err(ExecError::Unsupported {
                        instr: instr.id,
                        detail: format!("all-gather over {gpus} devices in a {}-device run", self.devices),
                    });
                }
                let shards = gather(instr.inputs[0], bindings)?;
                let refs: Vec<&Tensor> = shards.iter().collect();
                let full = Tensor::concat(&refs, 0).map_err(|e| ExecError::Kernel {
                    instr: instr.id,
                    op: instr.op.name(),
                    source: e,
                })?;
                for d in 0..self.devices {
                    bindings.insert(d, instr.outputs[0], full.clone());
                }
            }
            Op::ReduceScatter { gpus } => {
                if *gpus != self.devices {
                    return Err(ExecError::Unsupported {
                        instr: instr.id,
                        detail: format!("reduce-scatter over {gpus} devices in a {}-device run", self.devices),
                    });
                }
                let vals = gather(instr.inputs[0], bindings)?;
                let summed = lancet_moe::all_reduce_sum(&vals).map_err(|e| ExecError::Moe {
                    instr: instr.id,
                    op: instr.op.name(),
                    source: e,
                })?;
                let full = &summed[0];
                let rows = full.shape()[0];
                let shard_rows = rows / self.devices;
                for d in 0..self.devices {
                    let shard = full
                        .slice_axis(0, d * shard_rows, (d + 1) * shard_rows)
                        .map_err(|e| ExecError::Kernel {
                            instr: instr.id,
                            op: instr.op.name(),
                            source: e,
                        })?;
                    bindings.insert(d, instr.outputs[0], shard);
                }
            }
            other => {
                return Err(ExecError::Unsupported {
                    instr: instr.id,
                    detail: format!("{other} is not a collective"),
                })
            }
        }
        Ok(())
    }
}

fn wrap(e: KernelFailure, instr: &lancet_ir::Instr) -> ExecError {
    match e {
        KernelFailure::Tensor(source) => ExecError::Kernel { instr: instr.id, op: instr.op.name(), source },
        KernelFailure::Moe(source) => ExecError::Moe { instr: instr.id, op: instr.op.name(), source },
        KernelFailure::Unsupported(detail) => ExecError::Unsupported { instr: instr.id, detail },
    }
}
