//! Serving plans: an optimized forward graph plus everything needed to
//! execute it repeatedly — pre-bound weights, input handles, and the
//! logits output to slice responses from.
//!
//! A plan is built once per (model, batch bucket, cluster) key by running
//! the Lancet forward optimizer ([`Lancet::optimize_forward`]) over the
//! bucket-sized model graph, then bound against the model's *canonical
//! weights*. Canonical weights are keyed by tensor **name**, not id:
//! the optimizer may renumber tensors while partitioning, and the
//! id-seeded weight initializer would otherwise give every bucket's plan
//! different parameters. Binding by name guarantees all buckets of a
//! model share one set of parameter values — the precondition for
//! micro-batched responses being bit-identical to solo serving.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lancet_cost::ClusterKind;
use lancet_core::{Lancet, OptimizerStats};
use lancet_exec::{init_weights, Bindings, Executor, PrepackStats};
use lancet_ir::{Op, TensorId};
use lancet_models::{build_forward, GptMoeConfig, LayerKv};
use lancet_tensor::{det, PackedTensor, Tensor};

use crate::{Result, ServeError};

/// What makes two serving plans interchangeable: same model, same batch
/// bucket, same cluster. Anything that changes the optimized graph or
/// its schedule must appear here, or the cache would serve stale plans.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Registered model name.
    pub model: String,
    /// Micro-batch bucket size (the graph's batch dimension).
    pub bucket: usize,
    /// Sequence length the graph was built for. Classic serving uses the
    /// model's fixed `cfg.seq`; decode prefill buckets sequences by
    /// length, so plans for different lengths must not collide.
    pub seq: usize,
    /// Device generation the cost models were profiled for.
    pub cluster: ClusterKind,
    /// Cluster size the plan was optimized for.
    pub gpus: usize,
}

impl PlanKey {
    /// A deterministic hash of the key, **stable across processes and
    /// runs** — FNV-1a over a canonical little-endian field encoding.
    ///
    /// The fleet router's consistent routing keys on this value: two
    /// front-end processes (or the same one after a restart) must route a
    /// given plan key to the same replica, or every restart would scatter
    /// traffic and cold every replica's plan cache. `Hash`/`HashMap`'s
    /// default `RandomState` is seeded per process and therefore must
    /// never be used on the routing path; this encoding is pinned by a
    /// regression test on its literal value.
    pub fn stable_hash(&self) -> u64 {
        let mut h = det::FNV_OFFSET;
        let mut eat = |bytes: &[u8]| h = det::fnv1a_extend(h, bytes, det::FNV_PRIME);
        eat(self.model.as_bytes());
        eat(&[0xFF]); // field separator: a name can't contain 0xFF (UTF-8)
        eat(&(self.bucket as u64).to_le_bytes());
        eat(&(self.seq as u64).to_le_bytes());
        eat(self.cluster.name().as_bytes());
        eat(&[0xFF]);
        eat(&(self.gpus as u64).to_le_bytes());
        h
    }
}

/// Per-device canonical weights for one model, keyed by tensor name.
pub type CanonicalWeights = Vec<HashMap<String, Tensor>>;

/// Per-device prepacked GEMM panels, keyed by weight name — what a model
/// store carries alongside [`CanonicalWeights`] so plans skip the packing
/// pass at build time (see [`Plan::build_with_packs`]).
pub type PackSet = Vec<HashMap<String, Arc<PackedTensor>>>;

/// Materializes the canonical weights for `cfg`: one name → tensor map
/// per device, initialized from the *batch = 1* forward graph so the
/// values are independent of any serving bucket's tensor numbering.
///
/// Every value is a shared buffer ([`Tensor::into_shared`]): the
/// initialized elements are moved there, not copied, and a weight
/// replicated across devices is one buffer. Cloning a value — as each
/// plan build and each model registration does — bumps a refcount.
///
/// # Errors
///
/// Returns [`ServeError::Plan`] if the model graph cannot be built or a
/// weight name is not unique (the name is the cross-graph identity).
pub fn canonical_weights(cfg: &GptMoeConfig, seed: u64) -> Result<CanonicalWeights> {
    let model = build_forward(&cfg.clone().with_batch(1))
        .map_err(|e| ServeError::Plan(format!("canonical graph: {e}")))?;
    let devices = cfg.gpus;
    let mut bindings = init_weights(&model.graph, devices, seed);
    let mut per_device: CanonicalWeights = vec![HashMap::new(); devices];
    for id in model.graph.weights() {
        let name = model.graph.tensor(id).name.clone();
        let values = (0..devices)
            .map(|d| bindings.take(d, id))
            .collect::<Option<Vec<_>>>()
            .expect("init_weights binds every weight on every device");
        for (map, value) in per_device.iter_mut().zip(shared_per_device(values)) {
            if map.insert(name.clone(), value).is_some() {
                return Err(ServeError::Plan(format!(
                    "weight name `{name}` is not unique; names key the canonical store"
                )));
            }
        }
    }
    Ok(per_device)
}

/// Moves one weight's per-device values into shared buffers without
/// copying. `init_weights` binds a value to every device (a replicated
/// weight) or to one, so devices sharing a value are adjacent: each run
/// of them drops its extra handles first, then moves the value into one
/// buffer they all share.
fn shared_per_device(values: Vec<Arc<Tensor>>) -> Vec<Tensor> {
    let mut out = Vec::with_capacity(values.len());
    let mut values = values.into_iter().peekable();
    while let Some(value) = values.next() {
        let mut devices = 1;
        while values.next_if(|next| Arc::ptr_eq(&value, next)).is_some() {
            devices += 1;
        }
        let shared = Arc::unwrap_or_clone(value).into_shared();
        out.extend(std::iter::repeat_n(shared, devices));
    }
    out
}

/// Builds the prepacked GEMM panels for `canonical` — what a model store
/// carries next to the weights, and what registration packs once per
/// model: bind every weight, run the executor's prepack pass, and harvest
/// the per-device panels keyed by weight name.
///
/// # Errors
///
/// Returns [`ServeError::Plan`] if the model graph cannot be built or
/// `canonical` is missing a weight.
pub fn pack_weights(cfg: &GptMoeConfig, canonical: &CanonicalWeights) -> Result<PackSet> {
    let graph = build_forward(cfg)
        .map_err(|e| ServeError::Plan(format!("model graph: {e}")))?
        .graph;
    let mut bindings = Bindings::new(canonical.len());
    for id in graph.weights() {
        let name = &graph.tensor(id).name;
        for (d, map) in canonical.iter().enumerate() {
            let value = map
                .get(name)
                .ok_or_else(|| ServeError::Plan(format!("canonical weights missing `{name}`")))?;
            bindings.set(d, id, value.clone());
        }
    }
    bindings.prepack_weights(&graph);
    let mut packs: PackSet = vec![HashMap::new(); canonical.len()];
    for (d, id, pack) in bindings.packs() {
        packs[d].insert(graph.tensor(id).name.clone(), Arc::clone(pack));
    }
    Ok(packs)
}

/// An executable serving plan for one (model, bucket, cluster) key.
#[derive(Debug)]
pub struct Plan {
    graph: lancet_ir::Graph,
    /// Weights pre-bound by name; cloned (refcount bump, PR 4's
    /// `Bindings` are `Arc`-backed) per execution.
    weights: Bindings,
    ids: TensorId,
    targets: TensorId,
    logits: TensorId,
    /// Zero targets to satisfy the loss head; token id 0 is always valid.
    targets_zero: Tensor,
    devices: usize,
    bucket: usize,
    /// Per-layer K/V handles harvested for decode prefill; empty for
    /// classic full-sequence plans (see [`Plan::build_prefill`]).
    kv: Vec<LayerKv>,
    /// Shape of one request's response (the logits minus the batch dim).
    response_shape: Vec<usize>,
    /// Cost-model-predicted iteration time for the plan, seconds.
    pub predicted_time: f64,
    /// Wall-clock time plan construction took (graph build + optimize +
    /// weight binding) — the cost a cache hit avoids.
    pub build_time: Duration,
    /// The panels this plan's build packed itself (`tensors`, `bytes`)
    /// and the bindings it adopted from a pack set instead (`reused`).
    /// Adopted panels are shared with the pack set and every plan that
    /// adopted them, so resident panel memory is counted across plans,
    /// once per buffer, in [`CacheStats::packed_bytes`](crate::CacheStats::packed_bytes).
    pub prepack: PrepackStats,
    /// Partition-search statistics from the optimizer.
    pub stats: OptimizerStats,
}

impl Plan {
    /// Builds and binds the plan for `bucket` requests of `cfg`'s model.
    ///
    /// `cfg`'s batch is overridden by `bucket`; its other fields (and the
    /// `lancet` optimizer's cluster) must match the key this plan will be
    /// cached under. `canonical` must come from [`canonical_weights`] of
    /// the same config.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Plan`] on graph-construction or optimization
    /// failure, or if `canonical` is missing a weight.
    pub fn build(
        lancet: &Lancet,
        cfg: &GptMoeConfig,
        bucket: usize,
        canonical: &CanonicalWeights,
    ) -> Result<Plan> {
        Plan::build_with(lancet, cfg.clone().with_batch(bucket), bucket, canonical, None, false)
    }

    /// [`Plan::build`], additionally adopting prepacked panels (the
    /// registered model's pack set, or one loaded zero-copy from a model
    /// store) for the weights they name. Matching packs are installed
    /// before the prepack pass, which then skips those weights
    /// ([`PrepackStats::reused`]) — so a runtime's bucket plans pack
    /// nothing and share one set of panels. Stale or
    /// mismatched packs are rejected per weight and repacked fresh, so a
    /// wrong pack set degrades to [`Plan::build`] rather than failing.
    ///
    /// # Errors
    ///
    /// As [`Plan::build`].
    pub fn build_with_packs(
        lancet: &Lancet,
        cfg: &GptMoeConfig,
        bucket: usize,
        canonical: &CanonicalWeights,
        packs: Option<&PackSet>,
    ) -> Result<Plan> {
        Plan::build_with(lancet, cfg.clone().with_batch(bucket), bucket, canonical, packs, false)
    }

    /// Builds a **prefill** plan: `bucket` sequences of exactly `seq`
    /// tokens, with every layer's K/V projection harvested so a decode
    /// engine can seed its KV cache from one batched forward pass.
    ///
    /// Harvesting holds pre-optimization [`TensorId`]s against the
    /// optimized graph, which is only sound when the optimizer returns
    /// the graph unchanged — i.e. when partitioning is disabled
    /// ([`lancet_core::LancetOptions::decode_serving`]). Any other
    /// configuration is rejected rather than risking dangling handles.
    ///
    /// # Errors
    ///
    /// [`ServeError::Plan`] if `lancet` was not built with
    /// `disable_partition`, plus every failure mode of [`Plan::build`].
    pub fn build_prefill(
        lancet: &Lancet,
        cfg: &GptMoeConfig,
        bucket: usize,
        seq: usize,
        canonical: &CanonicalWeights,
    ) -> Result<Plan> {
        if !lancet.options().disable_partition {
            return Err(ServeError::Plan(
                "prefill KV harvest requires disable_partition (LancetOptions::decode_serving): \
                 partitioning renumbers tensors and would dangle the harvested K/V handles"
                    .into(),
            ));
        }
        Plan::build_with(
            lancet,
            cfg.clone().with_batch(bucket).with_seq(seq),
            bucket,
            canonical,
            None,
            true,
        )
    }

    fn build_with(
        lancet: &Lancet,
        cfg: GptMoeConfig,
        bucket: usize,
        canonical: &CanonicalWeights,
        packs: Option<&PackSet>,
        harvest_kv: bool,
    ) -> Result<Plan> {
        let started = Instant::now();
        let model = build_forward(&cfg).map_err(|e| ServeError::Plan(format!("graph: {e}")))?;
        let kv = if harvest_kv { model.kv.clone() } else { Vec::new() };
        let out = lancet
            .optimize_forward(model.graph)
            .map_err(|e| ServeError::Plan(format!("optimize: {e}")))?;
        let graph = out.graph;

        let input = |name: &str| {
            graph
                .inputs()
                .into_iter()
                .find(|&t| graph.tensor(t).name == name)
                .ok_or_else(|| ServeError::Plan(format!("optimized graph lost input `{name}`")))
        };
        let ids = input("ids")?;
        let targets = input("targets")?;
        // The partition pass never splits the loss head (it partitions
        // the region before it), so the logits are always input 0 of the
        // single CrossEntropy instruction.
        let ce: Vec<_> =
            graph.instrs().iter().filter(|i| matches!(i.op, Op::CrossEntropy)).collect();
        let logits = match ce.as_slice() {
            [only] => only.inputs[0],
            other => {
                return Err(ServeError::Plan(format!(
                    "expected one loss instruction, found {}",
                    other.len()
                )))
            }
        };
        let logits_shape = graph.tensor(logits).shape.dims().to_vec();
        if logits_shape.first() != Some(&bucket) {
            return Err(ServeError::Plan(format!(
                "logits shape {logits_shape:?} does not lead with bucket {bucket}"
            )));
        }

        let devices = cfg.gpus;
        if canonical.len() != devices {
            return Err(ServeError::Plan(format!(
                "canonical weights cover {} devices, plan needs {devices}",
                canonical.len()
            )));
        }
        let mut weights = Bindings::new(devices);
        for id in graph.weights() {
            let def = graph.tensor(id);
            for (d, map) in canonical.iter().enumerate() {
                let value = map.get(&def.name).ok_or_else(|| {
                    ServeError::Plan(format!("no canonical weight named `{}`", def.name))
                })?;
                if value.shape() != def.shape.dims() {
                    return Err(ServeError::Plan(format!(
                        "weight `{}`: canonical shape {:?} != plan shape {:?}",
                        def.name,
                        value.shape(),
                        def.shape.dims()
                    )));
                }
                weights.set(d, id, value.clone());
            }
        }
        // Adopt the model's panels first: install_pack validates each
        // against the bound value, so a stale set degrades to repacking.
        if let Some(packs) = packs {
            for id in graph.weights() {
                let def = graph.tensor(id);
                for (d, map) in packs.iter().enumerate().take(devices) {
                    if let Some(pack) = map.get(&def.name) {
                        weights.install_pack(d, id, Arc::clone(pack));
                    }
                }
            }
        }
        // Pack matmul weights into the GEMM's panel layout once, at build
        // time — every execution of this cached plan then skips per-call
        // packing. Weights covered by adopted panels are skipped
        // (`PrepackStats::reused`).
        let prepack = weights.prepack_weights(&graph);

        // Harvested handles must still resolve in the optimized graph
        // (they do whenever partitioning is off and ids are preserved).
        for h in &kv {
            let k_dims = graph.tensor(h.k).shape.dims();
            if k_dims != [bucket, cfg.seq, cfg.hidden] {
                return Err(ServeError::Plan(format!(
                    "harvested K for layer {} has shape {:?}, expected {:?} — \
                     the optimizer did not preserve tensor ids",
                    h.layer,
                    k_dims,
                    [bucket, cfg.seq, cfg.hidden]
                )));
            }
        }

        Ok(Plan {
            targets_zero: Tensor::zeros(graph.tensor(targets).shape.dims()),
            response_shape: logits_shape[1..].to_vec(),
            weights,
            ids,
            targets,
            logits,
            devices,
            bucket,
            kv,
            predicted_time: out.predicted_time,
            build_time: started.elapsed(),
            prepack,
            stats: out.stats,
            graph,
        })
    }

    /// The batch bucket this plan serves.
    pub fn bucket(&self) -> usize {
        self.bucket
    }

    /// The weight bindings every execution clones.
    pub(crate) fn weights(&self) -> &Bindings {
        &self.weights
    }

    /// The optimized plan graph, printable via [`lancet_ir::to_text`]
    /// (tests compare a cached plan against a cold rebuild this way).
    pub fn graph(&self) -> &lancet_ir::Graph {
        &self.graph
    }

    /// Executes the plan on a `[bucket, seq]` tensor of token ids and
    /// returns the full batched logits. Weights are shared with the
    /// canonical store (refcount bump, no copy); only the two inputs are
    /// bound fresh.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] on an id-shape mismatch and
    /// [`ServeError::Exec`] if the executor fails.
    pub fn execute(&self, ids: &Tensor) -> Result<Tensor> {
        let want = self.graph.tensor(self.ids).shape.dims();
        if ids.shape() != want {
            return Err(ServeError::BadRequest(format!(
                "ids shape {:?}, plan expects {:?}",
                ids.shape(),
                want
            )));
        }
        let mut bindings = self.weights.clone();
        bindings.set_all(self.ids, ids.clone());
        bindings.set_all(self.targets, self.targets_zero.clone());
        let out = Executor::new_prevalidated(&self.graph, self.devices)
            .run(bindings)
            .map_err(|e| ServeError::Exec(e.to_string()))?;
        Ok(out
            .get(0, self.logits)
            .expect("executor produces the logits")
            .clone())
    }

    /// Executes a prefill plan on a `[bucket, seq]` tensor of token ids,
    /// returning the batched logits **and** every layer's K/V projection
    /// (`[bucket, seq, hidden]` each, layer order) — the tensors a decode
    /// engine copies into its KV cache.
    ///
    /// # Errors
    ///
    /// [`ServeError::Plan`] if this plan was not built by
    /// [`Plan::build_prefill`]; otherwise as [`Plan::execute`].
    pub fn execute_prefill(&self, ids: &Tensor) -> Result<(Tensor, Vec<(Tensor, Tensor)>)> {
        if self.kv.is_empty() {
            return Err(ServeError::Plan(
                "plan has no harvested K/V handles; build it with Plan::build_prefill".into(),
            ));
        }
        let want = self.graph.tensor(self.ids).shape.dims();
        if ids.shape() != want {
            return Err(ServeError::BadRequest(format!(
                "ids shape {:?}, plan expects {:?}",
                ids.shape(),
                want
            )));
        }
        let mut bindings = self.weights.clone();
        bindings.set_all(self.ids, ids.clone());
        bindings.set_all(self.targets, self.targets_zero.clone());
        let out = Executor::new_prevalidated(&self.graph, self.devices)
            .run(bindings)
            .map_err(|e| ServeError::Exec(e.to_string()))?;
        let logits = out.get(0, self.logits).expect("executor produces the logits").clone();
        let kv = self
            .kv
            .iter()
            .map(|h| {
                let k = out.get(0, h.k).expect("executor retains the harvested K").clone();
                let v = out.get(0, h.v).expect("executor retains the harvested V").clone();
                (k, v)
            })
            .collect();
        Ok((logits, kv))
    }

    /// Slices request `row`'s logits out of a batched result (shape
    /// `[seq, vocab]`). Rows are independent under the
    /// drop-free routing contract, so this is exactly what solo serving
    /// would have produced.
    pub fn response(&self, batched: &Tensor, row: usize) -> Tensor {
        assert!(row < self.bucket, "row {row} out of bucket {}", self.bucket);
        let per = self.response_shape.iter().product::<usize>();
        let data = batched.data()[row * per..(row + 1) * per].to_vec();
        Tensor::from_vec(self.response_shape.clone(), data).expect("slice volume matches shape")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lancet_ir::GateKind;

    #[test]
    fn canonical_weights_are_the_initialized_values_in_shared_buffers() {
        let cfg = GptMoeConfig::tiny(2, GateKind::Switch);
        let canonical = canonical_weights(&cfg, 5).unwrap();
        let graph = build_forward(&cfg.clone().with_batch(1)).unwrap().graph;
        let init = init_weights(&graph, 2, 5);
        for id in graph.weights() {
            let name = &graph.tensor(id).name;
            let (a, b) = (&canonical[0][name], &canonical[1][name]);
            assert!(a.is_shared() && b.is_shared(), "{name}");
            assert_eq!((a, b), (init.get(0, id).unwrap(), init.get(1, id).unwrap()), "{name}");
            // Replicated weights share one buffer; expert shards own theirs.
            assert_eq!(a.data().as_ptr() == b.data().as_ptr(), !name.contains("expert"), "{name}");
        }
    }
}
