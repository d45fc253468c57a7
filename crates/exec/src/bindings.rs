//! Per-device tensor bindings for graph execution.

use crate::{ExecError, Result};
use lancet_ir::{Graph, Op, TensorId, TensorKind};
use lancet_tensor::{PackedTensor, Tensor, TensorRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Tensor values for every device participating in an execution.
///
/// Inputs and weights must be bound before [`Executor::run`]; activations
/// are filled in during execution and can be read afterwards.
///
/// Values are reference-counted internally: cloning `Bindings` (or
/// replicating one tensor across devices with [`Bindings::set_all`])
/// shares element buffers instead of copying them. A serving loop can
/// therefore keep one weight-bound `Bindings` per model and clone it for
/// every request without re-allocating any weight storage — see
/// [`Bindings::shares_value`] for the observable guarantee.
///
/// [`Executor::run`]: crate::Executor::run
#[derive(Debug, Clone)]
pub struct Bindings {
    per_device: Vec<HashMap<TensorId, Arc<Tensor>>>,
    /// Prepacked panel forms of bound weights (see
    /// [`Bindings::prepack_weights`]), keyed like `per_device`. A pack is
    /// a value snapshot of its tensor, so every rebinding of a tensor id
    /// (`set`/`set_all`/output insertion) drops that id's pack.
    packed: Vec<HashMap<TensorId, Arc<PackedTensor>>>,
}

/// What [`Bindings::prepack_weights`] built: the observable memory cost of
/// keeping weights resident in panel form.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrepackStats {
    /// Distinct panel buffers built (weights replicated across devices
    /// share one buffer, counted once).
    pub tensors: usize,
    /// Heap bytes held by those buffers.
    pub bytes: u64,
    /// Bindings whose resident pack (installed via
    /// [`Bindings::install_pack`], e.g. loaded from a model store) already
    /// matched and was reused instead of re-packing.
    pub reused: usize,
}

impl Bindings {
    /// Empty bindings for `devices` devices.
    ///
    /// # Panics
    ///
    /// Panics if `devices == 0`.
    pub fn new(devices: usize) -> Self {
        assert!(devices > 0, "need at least one device");
        Bindings { per_device: vec![HashMap::new(); devices], packed: vec![HashMap::new(); devices] }
    }

    /// Number of devices.
    pub fn devices(&self) -> usize {
        self.per_device.len()
    }

    /// Binds `value` on a single device.
    pub fn set(&mut self, device: usize, tensor: TensorId, value: Tensor) {
        self.packed[device].remove(&tensor);
        self.per_device[device].insert(tensor, Arc::new(value));
    }

    /// Binds the same value on every device (replicated weights/inputs).
    /// The element buffer is shared, not copied per device.
    pub fn set_all(&mut self, tensor: TensorId, value: Tensor) {
        let value = Arc::new(value);
        for (d, p) in self.per_device.iter_mut().zip(&mut self.packed) {
            p.remove(&tensor);
            d.insert(tensor, Arc::clone(&value));
        }
    }

    /// Reads a tensor value from a device, if present.
    pub fn get(&self, device: usize, tensor: TensorId) -> Option<&Tensor> {
        self.per_device[device].get(&tensor).map(Arc::as_ref)
    }

    /// Unbinds `tensor` on `device` (dropping its pack) and returns the
    /// value itself, not a copy. A value replicated by
    /// [`Bindings::set_all`] stays shared with the devices not yet taken.
    pub fn take(&mut self, device: usize, tensor: TensorId) -> Option<Arc<Tensor>> {
        self.packed[device].remove(&tensor);
        self.per_device[device].remove(&tensor)
    }

    /// Whether `self` and `other` bind the *same allocation* for `tensor`
    /// on `device` (not merely equal values). This is the executor-reuse
    /// guarantee serving relies on: cloning weight bindings per request
    /// shares buffers, so steady-state serving allocates nothing per call
    /// for weights.
    pub fn shares_value(&self, other: &Bindings, device: usize, tensor: TensorId) -> bool {
        match (self.per_device[device].get(&tensor), other.per_device[device].get(&tensor)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    pub(crate) fn get_required(&self, device: usize, tensor: TensorId, name: &str) -> Result<&Tensor> {
        self.per_device[device]
            .get(&tensor)
            .map(Arc::as_ref)
            .ok_or_else(|| ExecError::Unbound { name: name.to_string() })
    }

    pub(crate) fn insert(&mut self, device: usize, tensor: TensorId, value: Tensor) {
        self.packed[device].remove(&tensor);
        self.per_device[device].insert(tensor, Arc::new(value));
    }

    /// The prepacked panel form of `tensor` on `device`, if one is
    /// resident (and not invalidated by a rebinding since
    /// [`Bindings::prepack_weights`]).
    pub fn packed(&self, device: usize, tensor: TensorId) -> Option<&PackedTensor> {
        self.packed[device].get(&tensor).map(Arc::as_ref)
    }

    /// Every resident pack, as `(device, tensor, panels)`. A panel buffer
    /// shared across devices or bindings appears once per holder; its
    /// `Arc` identifies it.
    pub fn packs(&self) -> impl Iterator<Item = (usize, TensorId, &Arc<PackedTensor>)> {
        self.packed
            .iter()
            .enumerate()
            .flat_map(|(d, map)| map.iter().map(move |(&t, p)| (d, t, p)))
    }

    /// Installs an externally built panel buffer (e.g. deserialized from a
    /// model store) as `tensor`'s resident pack on `device`, sharing the
    /// buffer via its `Arc`. Returns whether the pack was accepted: it is
    /// rejected (and nothing changes) unless the tensor is bound on the
    /// device and the pack's source shape matches the bound value —
    /// the same staleness contract [`PackedTensor::matches`] enforces at
    /// call time, checked here so a mismatched store degrades to the
    /// repack path instead of silently shadowing it.
    ///
    /// A subsequent [`Bindings::prepack_weights`] leaves matching
    /// installed packs in place (counted in [`PrepackStats::reused`]), so
    /// store-loaded replicas skip the packing pass entirely.
    pub fn install_pack(
        &mut self,
        device: usize,
        tensor: TensorId,
        pack: Arc<PackedTensor>,
    ) -> bool {
        let Some(value) = self.per_device[device].get(&tensor) else { return false };
        if !pack.matches(value, pack.transposed()) {
            return false;
        }
        self.packed[device].insert(tensor, pack);
        true
    }

    /// Packs every bound weight that feeds a matmul-family instruction of
    /// `graph` as its `B` operand into the GEMM's panel layout, so
    /// subsequent [`Executor::run`](crate::Executor::run) calls skip
    /// per-call packing for those products. Serving plans call this once
    /// at build time; per-request clones of the bindings share the panel
    /// buffers (they are `Arc`ed like the values).
    ///
    /// Covered ops: `MatMul` (any `transpose_b`), `Gate`/`GateChunk` (the
    /// gate weight), and `BatchedMatMul { transpose_b: false }` (rank-3
    /// expert stacks). A weight consumed with conflicting layouts, or of
    /// unexpected rank (e.g. sliced/transformed before the matmul), is
    /// left unpacked — the kernels then repack per call exactly as before,
    /// so prepacking is always safe to attempt. Weights replicated across
    /// devices (one element buffer) pack once and share the panels.
    pub fn prepack_weights(&mut self, graph: &Graph) -> PrepackStats {
        #[derive(Clone, Copy, PartialEq, Eq)]
        enum Want {
            Mat { transpose_b: bool },
            Batched,
        }
        let mut wanted: HashMap<TensorId, Option<Want>> = HashMap::new();
        for instr in graph.instrs() {
            let want = match &instr.op {
                Op::MatMul { transpose_b } => Want::Mat { transpose_b: *transpose_b },
                Op::Gate { .. } | Op::GateChunk { .. } => Want::Mat { transpose_b: false },
                Op::BatchedMatMul { transpose_b: false } => Want::Batched,
                _ => continue,
            };
            let Some(&tid) = instr.inputs.get(1) else { continue };
            if graph.tensor(tid).kind != TensorKind::Weight {
                continue;
            }
            wanted
                .entry(tid)
                .and_modify(|w| {
                    if *w != Some(want) {
                        *w = None;
                    }
                })
                .or_insert(Some(want));
        }
        let mut order: Vec<(TensorId, Want)> =
            wanted.into_iter().filter_map(|(t, w)| w.map(|w| (t, w))).collect();
        order.sort_by_key(|(t, _)| t.0);

        let mut stats = PrepackStats::default();
        for (tid, want) in order {
            // Replicated weights share one element buffer across devices
            // (one value `Arc`, or shared windows of one owner); key built
            // packs by that buffer so they share one panel buffer.
            let mut built: Vec<(*const f32, Arc<PackedTensor>)> = Vec::new();
            for d in 0..self.per_device.len() {
                let Some(value) = self.per_device[d].get(&tid) else { continue };
                // A matching resident pack (installed from a model store)
                // already serves this binding — keep it, skip the pack.
                if let Some(existing) = self.packed[d].get(&tid) {
                    let keeps = match want {
                        Want::Mat { transpose_b } => existing.matches(value, transpose_b),
                        Want::Batched => value.rank() == 3 && existing.matches(value, false),
                    };
                    if keeps {
                        stats.reused += 1;
                        continue;
                    }
                }
                let key = value.data().as_ptr();
                let pack = match built.iter().find(|(k, _)| *k == key) {
                    Some((_, p)) => Arc::clone(p),
                    None => {
                        let packed = match want {
                            Want::Mat { transpose_b } if value.rank() == 2 => {
                                PackedTensor::pack(value, transpose_b)
                            }
                            Want::Batched if value.rank() == 3 => PackedTensor::pack_batched(value),
                            _ => continue,
                        };
                        let Ok(packed) = packed else { continue };
                        stats.tensors += 1;
                        stats.bytes += packed.bytes();
                        let packed = Arc::new(packed);
                        built.push((key, Arc::clone(&packed)));
                        packed
                    }
                };
                self.packed[d].insert(tid, pack);
            }
        }
        stats
    }
}

/// Randomly initializes every weight of `graph` into fresh [`Bindings`].
///
/// Weights whose name contains `"expert"` are *expert-local*: they receive
/// a different initialization per device (expert parallelism shards
/// experts). All other weights are replicated identically, matching data
/// parallelism.
pub fn init_weights(graph: &Graph, devices: usize, seed: u64) -> Bindings {
    let mut b = Bindings::new(devices);
    for t in graph.tensors() {
        if t.kind != TensorKind::Weight {
            continue;
        }
        // Optimizer state starts at zero.
        if t.name.starts_with("opt.") {
            b.set_all(t.id, Tensor::zeros(t.shape.clone()));
            continue;
        }
        let fan_in = if t.shape.rank() >= 2 { t.shape.dim(t.shape.rank() - 2) } else { t.shape.volume().max(1) };
        let std = 1.0 / (fan_in as f32).sqrt();
        if t.name.contains("expert") {
            for d in 0..devices {
                let mut rng = TensorRng::seed(seed ^ (t.id.0 as u64) << 16 ^ d as u64);
                b.set(d, t.id, rng.normal(t.shape.clone(), std));
            }
        } else {
            let mut rng = TensorRng::seed(seed ^ (t.id.0 as u64) << 16);
            b.set_all(t.id, rng.normal(t.shape.clone(), std));
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use lancet_ir::{Op, Role};

    #[test]
    fn set_all_replicates() {
        let mut b = Bindings::new(3);
        let t = TensorId(0);
        b.set_all(t, Tensor::scalar(5.0));
        for d in 0..3 {
            assert_eq!(b.get(d, t).unwrap().data(), &[5.0]);
        }
    }

    #[test]
    fn init_weights_shards_experts() {
        let mut g = Graph::new();
        let shared = g.weight("w", vec![4, 4]);
        let expert = g.weight("expert.w1", vec![2, 4, 4]);
        let x = g.input("x", vec![2, 4]);
        let _ = g.emit(Op::MatMul { transpose_b: false }, &[x, shared], Role::Forward).unwrap();
        let b = init_weights(&g, 2, 42);
        assert_eq!(b.get(0, shared), b.get(1, shared));
        assert_ne!(b.get(0, expert), b.get(1, expert));
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_panics() {
        let _ = Bindings::new(0);
    }

    #[test]
    fn installed_packs_are_validated_and_reused() {
        let mut g = Graph::new();
        let w = g.weight("w", vec![4, 6]);
        let x = g.input("x", vec![2, 4]);
        let _ = g.emit(Op::MatMul { transpose_b: false }, &[x, w], Role::Forward).unwrap();

        let mut b = Bindings::new(2);
        let value = Tensor::full(vec![4, 6], 0.5);
        b.set_all(w, value.clone());

        // Unbound tensor or mismatched shape: rejected, nothing installed.
        let wrong = Arc::new(PackedTensor::pack(&Tensor::zeros(vec![5, 6]), false).unwrap());
        assert!(!b.install_pack(0, w, Arc::clone(&wrong)));
        assert!(!b.install_pack(0, TensorId(999), Arc::clone(&wrong)));
        assert!(b.packed(0, w).is_none());

        // A matching pack installs and prepack_weights keeps it.
        let good = Arc::new(PackedTensor::pack(&value, false).unwrap());
        assert!(b.install_pack(0, w, Arc::clone(&good)));
        assert!(b.install_pack(1, w, Arc::clone(&good)));
        let stats = b.prepack_weights(&g);
        assert_eq!(stats.reused, 2);
        assert_eq!(stats.tensors, 0);
        assert!(std::ptr::eq(b.packed(0, w).unwrap(), good.as_ref()));

        // Rebinding still invalidates an installed pack.
        b.set(0, w, Tensor::full(vec![4, 6], 1.5));
        assert!(b.packed(0, w).is_none());
    }

    #[test]
    fn clone_and_set_all_share_allocations() {
        let mut b = Bindings::new(2);
        let t = TensorId(0);
        b.set_all(t, Tensor::full(vec![16], 1.0));
        // Replication shares one buffer across devices…
        assert_eq!(
            b.get(0, t).unwrap().data().as_ptr(),
            b.get(1, t).unwrap().data().as_ptr()
        );
        // …and cloning the bindings shares it with the clone.
        let c = b.clone();
        assert!(c.shares_value(&b, 0, t));
        assert!(c.shares_value(&b, 1, t));
        // Rebinding on the clone leaves the original untouched.
        let mut c2 = c.clone();
        c2.set(0, t, Tensor::full(vec![16], 2.0));
        assert!(!c2.shares_value(&b, 0, t));
        assert_eq!(b.get(0, t).unwrap().data()[0], 1.0);
    }
}
