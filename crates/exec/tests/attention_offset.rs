//! Regression tests for the position-offset (KV-cached) attention path.
//!
//! The attention kernels historically assumed full-sequence inputs and
//! recomputed every query's position from the shared shape. The decode
//! engine feeds them *rectangular* shapes — `Sq` trailing queries against
//! an `Sk`-position KV cache — so the position offset `Sk − Sq` must be
//! explicit. These tests pin the contract the whole `lancet-decode`
//! bit-identity story rests on: attending the last position against the
//! cached prefix reproduces the full-sequence forward's row **bit for
//! bit**.

use lancet_exec::{eval_op, Bindings, Executor};
use lancet_ir::{Graph, Op, Role};
use lancet_tensor::det::{self, Lcg};
use lancet_tensor::Tensor;

/// Deterministic pseudo-random fill in [-1, 1).
fn filled(shape: Vec<usize>, seed: u64) -> Tensor {
    let volume: usize = shape.iter().product();
    let mut lcg = Lcg::from_state(seed ^ det::GAMMA);
    let data = (0..volume).map(|_| (det::unit_f64(lcg.next_u64()) * 2.0 - 1.0) as f32).collect();
    Tensor::from_vec(shape, data).expect("volume matches")
}

fn attention(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize) -> Tensor {
    let scores = eval_op(&Op::AttnScores { heads, causal: true }, &[q, k]).unwrap().remove(0);
    let probs = eval_op(&Op::Softmax, &[&scores]).unwrap().remove(0);
    eval_op(&Op::AttnContext { heads }, &[&probs, v]).unwrap().remove(0)
}

#[test]
fn unit_query_against_kv_cache_matches_full_sequence_bitwise() {
    let (b, s, h, heads) = (2, 6, 8, 2);
    let q = filled(vec![b, s, h], 1);
    let k = filled(vec![b, s, h], 2);
    let v = filled(vec![b, s, h], 3);
    let full = attention(&q, &k, &v, heads);

    for i in 0..s {
        // Query = position i alone; KV cache = positions 0..=i. Under the
        // causal mask this is exactly what the full pass computed for row
        // i, so the context row must match bit for bit.
        let qi = q.slice_axis(1, i, i + 1).unwrap();
        let ki = k.slice_axis(1, 0, i + 1).unwrap();
        let vi = v.slice_axis(1, 0, i + 1).unwrap();
        let ctx = attention(&qi, &ki, &vi, heads);
        assert_eq!(ctx.shape(), &[b, 1, h]);
        for bi in 0..b {
            for d in 0..h {
                let cached = ctx.data()[bi * h + d];
                let reference = full.data()[(bi * s + i) * h + d];
                assert_eq!(
                    cached.to_bits(),
                    reference.to_bits(),
                    "position {i}, batch {bi}, dim {d}: {cached} != {reference}"
                );
            }
        }
    }
}

#[test]
fn multi_query_suffix_matches_full_sequence_bitwise() {
    // A chunked decode step: the last 3 queries of an 8-position sequence
    // against the full 8-position cache (offset 5).
    let (b, s, h, heads) = (1, 8, 8, 4);
    let q = filled(vec![b, s, h], 7);
    let k = filled(vec![b, s, h], 8);
    let v = filled(vec![b, s, h], 9);
    let full = attention(&q, &k, &v, heads);

    let suffix = q.slice_axis(1, 5, 8).unwrap();
    let ctx = attention(&suffix, &k, &v, heads);
    assert_eq!(ctx.shape(), &[b, 3, h]);
    for (at, i) in (5..8).enumerate() {
        for d in 0..h {
            assert_eq!(
                ctx.data()[at * h + d].to_bits(),
                full.data()[i * h + d].to_bits(),
                "suffix row {i}, dim {d}"
            );
        }
    }
}

#[test]
fn rectangular_attention_runs_through_the_executor() {
    // The graph path (validation + shape inference) accepts the decode
    // shapes too, and produces the same bits as the eager path.
    let (h, heads, past) = (8, 2, 4);
    let mut g = Graph::new();
    let q = g.input("q", vec![1, 1, h]);
    let k = g.input("k", vec![1, past, h]);
    let v = g.input("v", vec![1, past, h]);
    let scores = g.emit(Op::AttnScores { heads, causal: true }, &[q, k], Role::Forward).unwrap();
    let probs = g.emit(Op::Softmax, &[scores], Role::Forward).unwrap();
    let ctx = g.emit(Op::AttnContext { heads }, &[probs, v], Role::Forward).unwrap();
    g.validate().unwrap();

    let qt = filled(vec![1, 1, h], 11);
    let kt = filled(vec![1, past, h], 12);
    let vt = filled(vec![1, past, h], 13);
    let mut bindings = Bindings::new(1);
    bindings.set_all(q, qt.clone());
    bindings.set_all(k, kt.clone());
    bindings.set_all(v, vt.clone());
    let out = Executor::new(&g, 1).unwrap().run(bindings).unwrap();
    let graph_ctx = out.get(0, ctx).unwrap();
    let eager_ctx = attention(&qt, &kt, &vt, heads);
    assert_eq!(graph_ctx.shape(), &[1, 1, h]);
    assert_eq!(
        graph_ctx.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        eager_ctx.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    );
}

#[test]
fn more_queries_than_keys_is_rejected() {
    let q = filled(vec![1, 4, 8], 1);
    let k = filled(vec![1, 2, 8], 2);
    assert!(eval_op(&Op::AttnScores { heads: 2, causal: true }, &[&q, &k]).is_err());
}

#[test]
fn rectangular_backward_is_rejected_not_misshaped() {
    // dy from a rectangular forward must be refused by the training-only
    // backward kernels instead of silently producing garbage.
    let k = filled(vec![1, 6, 8], 3);
    let dy = filled(vec![1, 2, 1, 6], 4);
    assert!(eval_op(&Op::AttnScoresGradQ { heads: 2, causal: true }, &[&k, &dy]).is_err());
    assert!(eval_op(&Op::AttnScoresGradK { heads: 2, causal: true }, &[&k, &dy]).is_err());
}
