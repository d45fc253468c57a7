//! Numerical equivalence of the partitioned (irregular, capacity-passing)
//! MoE pipeline against the unpartitioned layer — the paper's central
//! mathematical-equivalence claim (Fig. 5c), tested bit-for-bit at the IR
//! level. These graphs are exactly what the partition pass emits.

use lancet_exec::{init_weights, Executor};
use lancet_ir::{GateKind, Graph, Op, Role, TensorId};
use lancet_tensor::{Tensor, TensorRng};

struct MoeDims {
    gpus: usize,
    experts: usize,
    cap: usize,
    batch: usize,
    seq: usize,
    hidden: usize,
}

/// Builds the unpartitioned MoE layer graph: x → gate → dispatch → a2a →
/// experts → a2a → gather → y.
fn unpartitioned(d: &MoeDims) -> (Graph, TensorId, TensorId, TensorId, TensorId, TensorId) {
    let mut g = Graph::new();
    let x = g.input("x", vec![d.batch, d.seq, d.hidden]);
    let wg = g.weight("gate.w", vec![d.hidden, d.experts]);
    let w1 = g.weight("expert.w1", vec![d.experts / d.gpus, d.hidden, 2 * d.hidden]);
    let w2 = g.weight("expert.w2", vec![d.experts / d.gpus, 2 * d.hidden, d.hidden]);
    let gate = g
        .emit_multi(
            Op::Gate { kind: GateKind::Switch, experts: d.experts, capacity: d.cap },
            &[x, wg],
            Role::Forward,
        )
        .unwrap();
    let buf = g
        .emit(Op::MoeDispatch { experts: d.experts, capacity: d.cap }, &[x, gate[0], gate[1]], Role::Forward)
        .unwrap();
    let buf = g.emit(Op::AllToAll, &[buf], Role::Comm).unwrap();
    let loc = g.emit(Op::ExpertsLayout { gpus: d.gpus }, &[buf], Role::Forward).unwrap();
    let h = g.emit(Op::BatchedMatMul { transpose_b: false }, &[loc, w1], Role::Forward).unwrap();
    let h = g.emit(Op::Gelu, &[h], Role::Forward).unwrap();
    let h = g.emit(Op::BatchedMatMul { transpose_b: false }, &[h, w2], Role::Forward).unwrap();
    let back = g.emit(Op::ExpertsLayoutInv { gpus: d.gpus }, &[h], Role::Forward).unwrap();
    let back = g.emit(Op::AllToAll, &[back], Role::Comm).unwrap();
    let y = g
        .emit(
            Op::MoeGather { experts: d.experts, capacity: d.cap, batch: d.batch, seq: d.seq },
            &[back, gate[0], gate[1]],
            Role::Forward,
        )
        .unwrap();
    (g, x, wg, w1, w2, y)
}

/// Builds the partitioned pipeline: the batch is sliced into `parts`
/// micro-batches; gating chains capacity state (paper Fig. 5c); each chunk
/// flows through an irregular dispatch/all-to-all/expert/gather pipeline;
/// outputs are concatenated.
fn partitioned(d: &MoeDims, parts: usize) -> (Graph, TensorId, TensorId, TensorId, TensorId, TensorId) {
    let mut g = Graph::new();
    let x = g.input("x", vec![d.batch, d.seq, d.hidden]);
    let wg = g.weight("gate.w", vec![d.hidden, d.experts]);
    let w1 = g.weight("expert.w1", vec![d.experts / d.gpus, d.hidden, 2 * d.hidden]);
    let w2 = g.weight("expert.w2", vec![d.experts / d.gpus, 2 * d.hidden, d.hidden]);

    let mut cap = g.emit(Op::Zeros { shape: vec![d.experts] }, &[], Role::Forward).unwrap();
    let mut outputs = Vec::new();
    let base = d.batch / parts;
    let rem = d.batch % parts;
    let mut start = 0usize;
    for p in 0..parts {
        let len = base + usize::from(p < rem);
        let xc = g.emit(Op::Slice { axis: 0, start, end: start + len }, &[x], Role::Forward).unwrap();
        start += len;
        let gate = g
            .emit_multi(
                Op::GateChunk { kind: GateKind::Switch, experts: d.experts, capacity: d.cap, parts },
                &[xc, wg, cap],
                Role::Forward,
            )
            .unwrap();
        cap = gate[2];
        let disp = g
            .emit_multi(
                Op::MoeDispatchIrr { experts: d.experts, capacity: d.cap, parts },
                &[xc, gate[0], gate[1]],
                Role::Forward,
            )
            .unwrap();
        let a2a = g.emit_multi(Op::AllToAllIrr, &[disp[0], disp[1]], Role::Comm).unwrap();
        let loc = g.emit(Op::ExpertsLayout { gpus: d.gpus }, &[a2a[0]], Role::Forward).unwrap();
        let h = g.emit(Op::BatchedMatMul { transpose_b: false }, &[loc, w1], Role::Forward).unwrap();
        let h = g.emit(Op::Gelu, &[h], Role::Forward).unwrap();
        let h = g.emit(Op::BatchedMatMul { transpose_b: false }, &[h, w2], Role::Forward).unwrap();
        let back = g.emit(Op::ExpertsLayoutInv { gpus: d.gpus }, &[h], Role::Forward).unwrap();
        let ret = g.emit_multi(Op::AllToAllIrr, &[back, a2a[1]], Role::Comm).unwrap();
        let yc = g
            .emit(
                Op::MoeGatherIrr { experts: d.experts, capacity: d.cap, batch: len, seq: d.seq },
                &[ret[0], gate[0], gate[1]],
                Role::Forward,
            )
            .unwrap();
        outputs.push(yc);
    }
    let y = g.emit(Op::Concat { axis: 0 }, &outputs, Role::Forward).unwrap();
    (g, x, wg, w1, w2, y)
}

// Takes the builders' (graph, x, wg, w1, w2, y) tuple apart by field.
#[allow(clippy::too_many_arguments)]
fn run_moe(
    g: &Graph,
    x: TensorId,
    wg: TensorId,
    w1: TensorId,
    w2: TensorId,
    y: TensorId,
    d: &MoeDims,
    seed: u64,
) -> Vec<Tensor> {
    let mut b = init_weights(g, d.gpus, 1234);
    // Identical gate/expert weights across the two graphs come from
    // binding by *name*, so rebuild deterministically here.
    let mut rng = TensorRng::seed(99);
    let wg_v = rng.uniform(vec![d.hidden, d.experts], -1.0, 1.0);
    b.set_all(wg, wg_v);
    for dev in 0..d.gpus {
        let mut rng = TensorRng::seed(500 + dev as u64);
        b.set(dev, w1, rng.normal(vec![d.experts / d.gpus, d.hidden, 2 * d.hidden], 0.3));
        b.set(dev, w2, rng.normal(vec![d.experts / d.gpus, 2 * d.hidden, d.hidden], 0.3));
    }
    for dev in 0..d.gpus {
        let mut rng = TensorRng::seed(seed ^ (dev as u64 + 1));
        b.set(dev, x, rng.uniform(vec![d.batch, d.seq, d.hidden], -1.0, 1.0));
    }
    let out = Executor::new(g, d.gpus).unwrap().run(b).unwrap();
    (0..d.gpus).map(|dev| out.get(dev, y).unwrap().clone()).collect()
}

#[test]
fn partitioned_pipeline_is_bit_identical() {
    // Tight capacity forces drops, the hard case for equivalence.
    let d = MoeDims { gpus: 2, experts: 4, cap: 3, batch: 4, seq: 4, hidden: 6 };
    let (g_ref, x, wg, w1, w2, y) = unpartitioned(&d);
    let reference = run_moe(&g_ref, x, wg, w1, w2, y, &d, 7);
    for parts in [2usize, 4] {
        let (g_p, x, wg, w1, w2, y) = partitioned(&d, parts);
        let got = run_moe(&g_p, x, wg, w1, w2, y, &d, 7);
        for (dev, (a, b)) in reference.iter().zip(&got).enumerate() {
            assert_eq!(a, b, "device {dev}, parts {parts}: outputs differ");
        }
    }
}

#[test]
fn partitioned_pipeline_equivalence_across_seeds() {
    let d = MoeDims { gpus: 2, experts: 4, cap: 4, batch: 6, seq: 2, hidden: 4 };
    let (g_ref, x, wg, w1, w2, y) = unpartitioned(&d);
    let (g_p, xp, wgp, w1p, w2p, yp) = partitioned(&d, 3);
    for seed in [1u64, 2, 3, 4, 5] {
        let reference = run_moe(&g_ref, x, wg, w1, w2, y, &d, seed);
        let got = run_moe(&g_p, xp, wgp, w1p, w2p, yp, &d, seed);
        assert_eq!(reference, got, "seed {seed}");
    }
}

#[test]
fn partitioned_pipeline_four_devices() {
    let d = MoeDims { gpus: 4, experts: 8, cap: 3, batch: 4, seq: 3, hidden: 4 };
    let (g_ref, x, wg, w1, w2, y) = unpartitioned(&d);
    let reference = run_moe(&g_ref, x, wg, w1, w2, y, &d, 11);
    let (g_p, xp, wgp, w1p, w2p, yp) = partitioned(&d, 2);
    let got = run_moe(&g_p, xp, wgp, w1p, w2p, yp, &d, 11);
    assert_eq!(reference, got);
}
