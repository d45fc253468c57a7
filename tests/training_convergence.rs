//! "It actually trains": run several SGD iterations of a tiny GPT-MoE
//! through the numerical executor — with and without Lancet optimization —
//! and check that (a) the loss decreases and (b) both variants follow the
//! same trajectory.

use lancet_repro::core::{apply_partitions, infer_axes, PartitionSpec};
use lancet_repro::exec::{Bindings, Executor};
use lancet_repro::ir::{build_backward, BackwardOptions, GateKind, Graph, Op, TensorId, TensorKind};
use lancet_repro::models::{build_forward, GptMoeConfig};
use lancet_repro::tensor::det::name_seed;
use lancet_repro::tensor::{Tensor, TensorRng};
use std::collections::HashMap;

const DEVICES: usize = 2;
const STEPS: usize = 5;

/// Trains for `STEPS` iterations, feeding updated weights back each step;
/// returns the per-step device-0 losses.
fn train(graph: &Graph) -> Vec<f32> {
    // Weight name → current value (replicated; expert weights per device).
    let mut weights: HashMap<(String, usize), Tensor> = HashMap::new();
    for t in graph.tensors() {
        if t.kind != TensorKind::Weight {
            continue;
        }
        for d in 0..DEVICES {
            let seed = if t.name.contains("expert") {
                name_seed(&t.name) ^ (d as u64 + 1)
            } else {
                name_seed(&t.name)
            };
            let mut rng = TensorRng::seed(seed);
            weights.insert((t.name.clone(), d), rng.normal(t.shape.clone(), 0.2));
        }
    }
    let loss_tensor: TensorId = graph
        .instrs()
        .iter()
        .find(|i| matches!(i.op, Op::CrossEntropy))
        .map(|i| i.outputs[0])
        .expect("loss");
    let mut losses = Vec::new();
    for step in 0..STEPS {
        let mut b = Bindings::new(DEVICES);
        for t in graph.tensors() {
            match t.kind {
                TensorKind::Weight => {
                    for d in 0..DEVICES {
                        b.set(d, t.id, weights[&(t.name.clone(), d)].clone());
                    }
                }
                TensorKind::Input => {
                    // Same small corpus every step so the loss can drop.
                    for d in 0..DEVICES {
                        let mut rng = TensorRng::seed(name_seed(&t.name) ^ d as u64 ^ 0xDA7A);
                        let vals: Vec<f32> =
                            (0..t.shape.volume()).map(|_| rng.below(7) as f32).collect();
                        b.set(d, t.id, Tensor::from_vec(t.shape.clone(), vals).unwrap());
                    }
                }
                _ => {}
            }
        }
        let out = Executor::new(graph, DEVICES).unwrap().run(b).unwrap();
        losses.push(out.get(0, loss_tensor).unwrap().data()[0]);
        let _ = step;
        // Harvest updated weights.
        for instr in graph.instrs() {
            if matches!(instr.op, Op::SgdUpdate { .. }) {
                let name = graph.tensor(instr.inputs[0]).name.clone();
                for d in 0..DEVICES {
                    weights.insert((name.clone(), d), out.get(d, instr.outputs[0]).unwrap().clone());
                }
            }
        }
    }
    losses
}

fn build_graphs() -> (Graph, Graph) {
    let cfg = GptMoeConfig::tiny(DEVICES, GateKind::Switch);
    let fwd = build_forward(&cfg).unwrap().graph;
    let backward = BackwardOptions { sgd_lr: Some(0.2), optimizer: Default::default(), allreduce_grads: false };

    let start = fwd.instrs().iter().position(|i| matches!(i.op, Op::Gate { .. })).unwrap();
    let end = fwd.instrs().iter().position(|i| matches!(i.op, Op::MoeGather { .. })).unwrap() + 1;
    let axes = infer_axes(&fwd, start..end).unwrap();
    let mut optimized =
        apply_partitions(&fwd, &[PartitionSpec { range: start..end, parts: 2, axes }]).unwrap();
    build_backward(&mut optimized, &backward).unwrap();

    let mut baseline = fwd;
    build_backward(&mut baseline, &backward).unwrap();
    (baseline, optimized)
}

#[test]
fn loss_decreases_over_steps() {
    let (baseline, _) = build_graphs();
    let losses = train(&baseline);
    assert!(
        losses[STEPS - 1] < losses[0],
        "loss did not decrease: {losses:?}"
    );
}

#[test]
fn optimized_graph_trains_identically() {
    let (baseline, optimized) = build_graphs();
    let base_losses = train(&baseline);
    let opt_losses = train(&optimized);
    for (step, (a, b)) in base_losses.iter().zip(&opt_losses).enumerate() {
        assert!(
            (a - b).abs() <= 1e-4 + 1e-3 * a.abs(),
            "step {step}: baseline loss {a} vs optimized {b}"
        );
    }
}
