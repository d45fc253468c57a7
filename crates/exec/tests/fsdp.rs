//! FSDP/ZeRO-3 equivalence: training with sharded weights (all-gather in
//! forward, reduce-scatter of gradients in backward) must compute exactly
//! the same loss as replicated training, and the same weight updates as
//! replicated training with gradient all-reduce.

use lancet_exec::{Bindings, Executor};
use lancet_ir::{build_backward, BackwardOptions, GateKind, Graph, Op, TensorId, TensorKind};
use lancet_models::{build_forward, GptMoeConfig};
use lancet_tensor::det::name_seed;
use lancet_tensor::{Tensor, TensorRng};
use std::collections::HashMap;

const DEVICES: usize = 2;

/// Deterministic full-weight value, keyed by the *base* name (shared
/// between the replicated tensor and its FSDP shards).
fn full_weight(name: &str, shape: &[usize]) -> Tensor {
    let mut rng = TensorRng::seed(name_seed(name));
    let fan_in = if shape.len() >= 2 { shape[shape.len() - 2] } else { 4 };
    rng.normal(shape.to_vec(), 1.0 / (fan_in as f32).sqrt())
}

fn bind(graph: &Graph) -> Bindings {
    let mut b = Bindings::new(DEVICES);
    for t in graph.tensors() {
        match t.kind {
            TensorKind::Weight => {
                if let Some(base) = t.name.strip_suffix(".shard") {
                    // Device d holds rows [d·R/G, (d+1)·R/G) of the full
                    // weight.
                    let mut full_shape = t.shape.dims().to_vec();
                    full_shape[0] *= DEVICES;
                    let full = full_weight(base, &full_shape);
                    let rows = t.shape.dim(0);
                    for d in 0..DEVICES {
                        let shard = full.slice_axis(0, d * rows, (d + 1) * rows).unwrap();
                        b.set(d, t.id, shard);
                    }
                } else if t.name.contains("expert") {
                    for d in 0..DEVICES {
                        let mut rng = TensorRng::seed(name_seed(&t.name) ^ (d as u64 + 1));
                        b.set(d, t.id, rng.normal(t.shape.clone(), 0.25));
                    }
                } else {
                    b.set_all(t.id, full_weight(&t.name, t.shape.dims()));
                }
            }
            TensorKind::Input => {
                for d in 0..DEVICES {
                    let mut rng = TensorRng::seed(name_seed(&t.name) ^ (0xF00 + d as u64));
                    let vals: Vec<f32> =
                        (0..t.shape.volume()).map(|_| rng.below(7) as f32).collect();
                    b.set(d, t.id, Tensor::from_vec(t.shape.clone(), vals).unwrap());
                }
            }
            _ => {}
        }
    }
    b
}

/// Runs one iteration; returns (device-0 loss, updated weights keyed by
/// base name and device).
fn run(graph: &Graph) -> (f32, HashMap<(String, usize), Tensor>) {
    let out = Executor::new(graph, DEVICES).unwrap().run(bind(graph)).unwrap();
    let loss = graph
        .instrs()
        .iter()
        .find(|i| matches!(i.op, Op::CrossEntropy))
        .map(|i| i.outputs[0])
        .unwrap();
    let mut updated = HashMap::new();
    for instr in graph.instrs() {
        if matches!(instr.op, Op::SgdUpdate { .. }) {
            let name = graph.tensor(instr.inputs[0]).name.clone();
            for d in 0..DEVICES {
                updated.insert((name.clone(), d), out.get(d, instr.outputs[0]).unwrap().clone());
            }
        }
    }
    (out.get(0, loss).unwrap().data()[0], updated)
}

fn graphs() -> (Graph, Graph, TensorId) {
    let backward = BackwardOptions { sgd_lr: Some(0.1), optimizer: Default::default(), allreduce_grads: true };
    let base_cfg = GptMoeConfig::tiny(DEVICES, GateKind::Switch);

    let mut replicated = build_forward(&base_cfg).unwrap().graph;
    build_backward(&mut replicated, &backward).unwrap();

    let mut sharded = build_forward(&base_cfg.with_fsdp(true)).unwrap().graph;
    build_backward(&mut sharded, &backward).unwrap();
    let any = replicated.inputs()[0];
    (replicated, sharded, any)
}

#[test]
fn fsdp_forward_loss_is_bit_identical() {
    let (replicated, sharded, _) = graphs();
    let (l_rep, _) = run(&replicated);
    let (l_fsdp, _) = run(&sharded);
    assert_eq!(l_rep.to_bits(), l_fsdp.to_bits(), "{l_rep} vs {l_fsdp}");
}

#[test]
fn fsdp_shard_updates_match_replicated_allreduce_training() {
    let (replicated, sharded, _) = graphs();
    let (_, w_rep) = run(&replicated);
    let (_, w_fsdp) = run(&sharded);
    // Every updated shard equals the matching slice of the replicated
    // (all-reduced) update.
    let mut checked = 0;
    for ((name, d), shard) in &w_fsdp {
        let Some(base) = name.strip_suffix(".shard") else { continue };
        let full = &w_rep[&(base.to_string(), *d)];
        let rows = shard.shape()[0];
        let expect = full.slice_axis(0, d * rows, (d + 1) * rows).unwrap();
        assert!(
            shard.allclose_with(&expect, 1e-5, 1e-4),
            "shard {name} on device {d}: max diff {:?}",
            shard.max_abs_diff(&expect)
        );
        checked += 1;
    }
    assert!(checked >= 8, "only {checked} shards checked");
}

#[test]
fn fsdp_with_prefetch_is_still_exact() {
    use lancet_core::prefetch_allgathers;
    let (_, mut sharded, _) = graphs();
    let (l_before, w_before) = run(&sharded);
    prefetch_allgathers(&mut sharded, 1).unwrap();
    let (l_after, w_after) = run(&sharded);
    // Pure reordering: results identical bit-for-bit.
    assert_eq!(l_before.to_bits(), l_after.to_bits());
    for (key, a) in &w_before {
        assert_eq!(a, &w_after[key], "{key:?}");
    }
}
