//! Mixtral-style architecture (every-layer MoE, top-2, RMSNorm, SwiGLU)
//! through the full numerical stack: execution, finite-difference
//! gradients, and Lancet-pass semantics preservation.

use lancet_exec::{init_weights, Bindings, Executor};
use lancet_ir::{build_backward, BackwardOptions, Graph, Op, TensorKind};
use lancet_models::{build_forward, GptMoeConfig};
use lancet_tensor::det::name_seed;
use lancet_tensor::{Tensor, TensorRng};

const DEVICES: usize = 2;

fn bind(g: &Graph, seed: u64) -> Bindings {
    let mut b = init_weights(g, DEVICES, seed);
    for t in g.tensors() {
        if t.kind == TensorKind::Input {
            for d in 0..DEVICES {
                let mut rng = TensorRng::seed(seed ^ (0xB0 + d as u64) ^ u64::from(t.id.0));
                let vals: Vec<f32> = (0..t.shape.volume()).map(|_| rng.below(7) as f32).collect();
                b.set(d, t.id, Tensor::from_vec(t.shape.clone(), vals).unwrap());
            }
        }
    }
    b
}

fn loss_of(g: &Graph, b: Bindings) -> f32 {
    let out = Executor::new(g, DEVICES).unwrap().run(b).unwrap();
    let loss = g
        .instrs()
        .iter()
        .find(|i| matches!(i.op, Op::CrossEntropy))
        .map(|i| i.outputs[0])
        .unwrap();
    out.get(0, loss).unwrap().data()[0]
}

#[test]
fn mixtral_executes_with_finite_loss() {
    let cfg = GptMoeConfig::mixtral_tiny(DEVICES);
    let mut g = build_forward(&cfg).unwrap().graph;
    build_backward(&mut g, &BackwardOptions::default()).unwrap();
    let l = loss_of(&g, bind(&g, 3));
    assert!(l.is_finite() && l > 0.0, "loss {l}");
}

#[test]
fn mixtral_swiglu_expert_gradients_match_finite_differences() {
    // Single device so finite differences see the whole data path.
    let mut cfg = GptMoeConfig::mixtral_tiny(1);
    cfg.layers = 1;
    let mut g = build_forward(&cfg).unwrap().graph;
    let grads = build_backward(&mut g, &BackwardOptions::default()).unwrap();
    let base = {
        let mut b = init_weights(&g, 1, 7);
        for t in g.tensors() {
            if t.kind == TensorKind::Input {
                let vals: Vec<f32> = (0..t.shape.volume()).map(|i| ((i * 5 + 1) % 7) as f32).collect();
                b.set(0, t.id, Tensor::from_vec(t.shape.clone(), vals).unwrap());
            }
        }
        b
    };
    let run = |b: Bindings| -> f32 {
        let out = Executor::new(&g, 1).unwrap().run(b).unwrap();
        let loss = g
            .instrs()
            .iter()
            .find(|i| matches!(i.op, Op::CrossEntropy))
            .map(|i| i.outputs[0])
            .unwrap();
        out.get(0, loss).unwrap().data()[0]
    };
    let out = Executor::new(&g, 1).unwrap().run(base.clone()).unwrap();
    // Check the SwiGLU expert weights and an RMS gamma.
    for wname in ["h0.moe.expert.w1", "h0.moe.expert.w3", "h0.moe.expert.w2", "h0.ln1.g"] {
        let w = g.weights().into_iter().find(|&w| g.tensor(w).name == wname).unwrap();
        let dw = grads[&w];
        let analytic = out.get(0, dw).unwrap().clone();
        let volume = analytic.volume();
        let eps = 1e-2f32;
        for i in (0..volume).step_by((volume / 4).max(1)).take(4) {
            let mut plus = base.clone();
            let mut t = base.get(0, w).unwrap().clone();
            t.data_mut()[i] += eps;
            plus.set(0, w, t);
            let mut minus = base.clone();
            let mut t = base.get(0, w).unwrap().clone();
            t.data_mut()[i] -= eps;
            minus.set(0, w, t);
            let numeric = (run(plus) - run(minus)) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() <= 5e-2 + 5e-2 * numeric.abs().max(a.abs()),
                "{wname}[{i}]: analytic {a} vs numeric {numeric}"
            );
        }
    }
}

#[test]
fn mixtral_partitioned_pipeline_preserves_loss() {
    use lancet_core::{apply_partitions, infer_axes, PartitionSpec};
    let cfg = GptMoeConfig::mixtral_tiny(DEVICES);
    let fwd = build_forward(&cfg).unwrap().graph;
    // Partition the first MoE pipeline (gate … gather).
    let start = fwd.instrs().iter().position(|i| matches!(i.op, Op::Gate { .. })).unwrap();
    let end = fwd.instrs().iter().position(|i| matches!(i.op, Op::MoeGather { .. })).unwrap() + 1;
    let axes = infer_axes(&fwd, start..end).expect("SwiGLU MoE pipeline partitionable");
    let mut part = apply_partitions(&fwd, &[PartitionSpec { range: start..end, parts: 2, axes }]).unwrap();
    let mut base = fwd;
    build_backward(&mut base, &BackwardOptions::default()).unwrap();
    build_backward(&mut part, &BackwardOptions::default()).unwrap();

    // Name-keyed deterministic binding so both graphs see identical data.
    let bind_named = |g: &Graph| -> Bindings {
        let mut b = Bindings::new(DEVICES);
        for t in g.tensors() {
            match t.kind {
                TensorKind::Weight => {
                    if t.name.contains("expert") {
                        for d in 0..DEVICES {
                            let mut rng = TensorRng::seed(name_seed(&t.name) ^ (d as u64 + 1));
                            b.set(d, t.id, rng.normal(t.shape.clone(), 0.25));
                        }
                    } else {
                        let mut rng = TensorRng::seed(name_seed(&t.name));
                        b.set_all(t.id, rng.normal(t.shape.clone(), 0.25));
                    }
                }
                TensorKind::Input => {
                    for d in 0..DEVICES {
                        let vals: Vec<f32> =
                            (0..t.shape.volume()).map(|i| ((i * 3 + d) % 7) as f32).collect();
                        b.set(d, t.id, Tensor::from_vec(t.shape.clone(), vals).unwrap());
                    }
                }
                _ => {}
            }
        }
        b
    };
    let l_base = loss_of(&base, bind_named(&base));
    let l_part = loss_of(&part, bind_named(&part));
    assert_eq!(l_base.to_bits(), l_part.to_bits(), "{l_base} vs {l_part}");
}
