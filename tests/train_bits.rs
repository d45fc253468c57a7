//! Pins the bits of three SGD steps of the benchmark's training job.
//!
//! The model, optimizer options and device count are perfbench's `train`
//! workload: a 4-layer, hidden-128 Switch GPT-MoE at capacity factor 1.25
//! on two simulated devices, optimized by `Lancet::optimize` and run by
//! `Executor::run`. Every kernel rewrite must keep outputs bit-identical,
//! so one FNV-1a hash over the bits of every step's losses and of the
//! final updated weights covers the whole executed training path:
//! attention, the expert GEMMs and their transposed backward products,
//! the expert-layout shuffles, the collectives and the SGD update.

use lancet_repro::core::{Lancet, LancetOptions};
use lancet_repro::cost::ClusterSpec;
use lancet_repro::exec::{init_weights, Executor};
use lancet_repro::ir::{BackwardOptions, GateKind, Op, TensorKind};
use lancet_repro::models::{build_forward, GptMoeConfig};
use lancet_repro::tensor::{det, Tensor, TensorRng};

const DEVICES: usize = 2;
const STEPS: u64 = 3;
/// Recorded when GELU, softmax and the cross-entropy `ln` moved onto
/// `det`'s transcendentals; it depends on no host libm.
const EXPECTED: u64 = 0x6885_25e4_daf6_9861;

fn fnv1a(h: u64, bits: u32) -> u64 {
    det::fnv1a_extend(h, &bits.to_le_bytes(), det::FNV_PRIME_WIDE)
}

#[test]
fn three_train_steps_are_bit_pinned() {
    let mut cfg = GptMoeConfig::tiny(DEVICES, GateKind::Switch);
    cfg.layers = 4;
    cfg.hidden = 128;
    cfg.heads = 4;
    cfg.ffn = 512;
    cfg.vocab = 512;
    cfg.batch = 4;
    cfg.seq = 32;
    cfg.capacity_factor = 1.25;
    let options = LancetOptions {
        backward: BackwardOptions { sgd_lr: Some(0.05), allreduce_grads: true, ..Default::default() },
        ..LancetOptions::default()
    };
    let forward = build_forward(&cfg).unwrap().graph;
    let graph = Lancet::new(ClusterSpec::v100(1), DEVICES, options).optimize(forward).unwrap().graph;

    let input = |name: &str| {
        graph.tensors().iter().find(|t| t.kind == TensorKind::Input && t.name == name).unwrap().id
    };
    let (ids, targets) = (input("ids"), input("targets"));
    let loss = graph.instrs().iter().find(|i| matches!(i.op, Op::CrossEntropy)).unwrap().outputs[0];
    let updates: Vec<_> = graph
        .instrs()
        .iter()
        .filter(|i| matches!(i.op, Op::SgdUpdate { .. }))
        .map(|i| (i.inputs[0], i.outputs[0]))
        .collect();
    assert!(!updates.is_empty());

    let exec = Executor::new(&graph, DEVICES).unwrap();
    let mut weights = init_weights(&graph, DEVICES, 7);
    let mut hash = det::FNV_OFFSET;
    let (b, s) = (cfg.batch, cfg.seq);
    for step in 0..STEPS {
        let mut bindings = weights.clone();
        for d in 0..DEVICES {
            // Next-token targets of a seeded random token stream.
            let mut rng = TensorRng::seed(step * DEVICES as u64 + d as u64 + 1);
            let stream: Vec<f32> = (0..b * (s + 1)).map(|_| rng.below(cfg.vocab) as f32).collect();
            let rows = stream.chunks(s + 1);
            let x: Vec<f32> = rows.clone().flat_map(|r| r[..s].to_vec()).collect();
            let y: Vec<f32> = rows.flat_map(|r| r[1..].to_vec()).collect();
            bindings.set(d, ids, Tensor::from_vec(vec![b, s], x).unwrap());
            bindings.set(d, targets, Tensor::from_vec(vec![b, s], y).unwrap());
        }
        let out = exec.run(bindings).unwrap();
        for d in 0..DEVICES {
            let l = out.get(d, loss).unwrap().data()[0];
            assert!(l.is_finite(), "step {step} device {d}: loss {l}");
            hash = fnv1a(hash, l.to_bits());
        }
        for &(w, updated) in &updates {
            for d in 0..DEVICES {
                weights.set(d, w, out.get(d, updated).unwrap().clone());
            }
        }
    }
    for &(w, _) in &updates {
        for d in 0..DEVICES {
            hash = weights.get(d, w).unwrap().data().iter().fold(hash, |h, x| fnv1a(h, x.to_bits()));
        }
    }
    assert_eq!(hash, EXPECTED, "train-step bits moved: {hash:#018x}");
}
