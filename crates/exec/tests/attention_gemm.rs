//! Bit-identity oracles for attention on the batched GEMM.
//!
//! The executor computes `AttnScores`, `AttnContext`, `AttnContextGradP`
//! and `AttnContextGradV` as one batched product over `(batch, head)`
//! slices. The functions below are the scalar loops those kernels
//! replaced, kept verbatim as references: each sums its products from
//! `+0` with the contraction index ascending, the packed GEMM's order, so
//! `eval_op` must reproduce them bit for bit. The inputs cover head
//! widths that are not a multiple of the 16-wide register tile, causal
//! masks with `Sq < Sk` (the KV-cached decode shape), all-zero rows
//! (`+0` and `-0`), and scattered `±0`, `±∞` and NaN values; the sizes
//! straddle the GEMM's small-problem cutoff.

use lancet_exec::eval_op;
use lancet_ir::Op;
use lancet_tensor::pool::{par_ranges, SharedSliceMut};
use lancet_tensor::{Tensor, TensorRng};
use proptest::prelude::*;

fn scores_ref(q: &Tensor, k: &Tensor, heads: &usize, causal: &bool) -> Tensor {
    let (b, s_q, h) = (q.shape()[0], q.shape()[1], q.shape()[2]);
    let s_k = k.shape()[1];
    let offset = s_k - s_q;
    let (heads, causal) = (*heads, *causal);
    let dh = h / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut out = Tensor::zeros(vec![b, heads, s_q, s_k]);
    let (qd, kd) = (q.data(), k.data());
    let view = SharedSliceMut::new(out.data_mut());
    par_ranges(b * heads, 0, |units| {
        for u in units {
            let (bi, hd) = (u / heads, u % heads);
            // SAFETY: each (batch, head) unit owns its score plane.
            let plane = unsafe { view.range_mut(u * s_q * s_k..(u + 1) * s_q * s_k) };
            for i in 0..s_q {
                for j in 0..s_k {
                    plane[i * s_k + j] = if causal && j > i + offset {
                        -1e9
                    } else {
                        let mut acc = 0.0f32;
                        for d in 0..dh {
                            acc += qd[(bi * s_q + i) * h + hd * dh + d]
                                * kd[(bi * s_k + j) * h + hd * dh + d];
                        }
                        acc * scale
                    };
                }
            }
        }
    });
    out
}

fn context_ref(p: &Tensor, v: &Tensor, heads: &usize) -> Tensor {
    let (b, s_k, h) = (v.shape()[0], v.shape()[1], v.shape()[2]);
    let s_q = p.shape()[2];
    let heads = *heads;
    let dh = h / heads;
    let mut out = Tensor::zeros(vec![b, s_q, h]);
    let (pd, vd) = (p.data(), v.data());
    let view = SharedSliceMut::new(out.data_mut());
    par_ranges(b, 0, |batches| {
        for bi in batches {
            // SAFETY: each batch owns its (s_q, h) output block.
            let blk = unsafe { view.range_mut(bi * s_q * h..(bi + 1) * s_q * h) };
            for hd in 0..heads {
                for i in 0..s_q {
                    for j in 0..s_k {
                        // No w == 0.0 short-circuit: 0·inf and
                        // 0·NaN must propagate per IEEE 754.
                        let w = pd[((bi * heads + hd) * s_q + i) * s_k + j];
                        for d in 0..dh {
                            blk[i * h + hd * dh + d] +=
                                w * vd[(bi * s_k + j) * h + hd * dh + d];
                        }
                    }
                }
            }
        }
    });
    out
}

fn context_grad_p_ref(v: &Tensor, dy: &Tensor, heads: &usize) -> Tensor {
    let (b, s, h) = (v.shape()[0], v.shape()[1], v.shape()[2]);
    let heads = *heads;
    let dh = h / heads;
    let mut dp = Tensor::zeros(vec![b, heads, s, s]);
    let (vd, dyd) = (v.data(), dy.data());
    let view = SharedSliceMut::new(dp.data_mut());
    par_ranges(b * heads, 0, |units| {
        for u in units {
            let (bi, hd) = (u / heads, u % heads);
            // SAFETY: each (batch, head) unit owns its plane.
            let plane = unsafe { view.range_mut(u * s * s..(u + 1) * s * s) };
            for i in 0..s {
                for j in 0..s {
                    let mut acc = 0.0f32;
                    for d in 0..dh {
                        acc += dyd[(bi * s + i) * h + hd * dh + d]
                            * vd[(bi * s + j) * h + hd * dh + d];
                    }
                    plane[i * s + j] = acc;
                }
            }
        }
    });
    dp
}

fn context_grad_v_ref(p: &Tensor, dy: &Tensor, heads: &usize) -> Tensor {
    let (b, s, h) = (dy.shape()[0], dy.shape()[1], dy.shape()[2]);
    let heads = *heads;
    let dh = h / heads;
    let mut dv = Tensor::zeros(vec![b, s, h]);
    let (pd, dyd) = (p.data(), dy.data());
    let view = SharedSliceMut::new(dv.data_mut());
    par_ranges(b, 0, |batches| {
        for bi in batches {
            // SAFETY: each batch owns its (s, h) gradient block.
            let blk = unsafe { view.range_mut(bi * s * h..(bi + 1) * s * h) };
            for hd in 0..heads {
                for i in 0..s {
                    for j in 0..s {
                        // No w == 0.0 short-circuit: 0·inf and
                        // 0·NaN must propagate per IEEE 754.
                        let w = pd[((bi * heads + hd) * s + i) * s + j];
                        for d in 0..dh {
                            blk[j * h + hd * dh + d] +=
                                w * dyd[(bi * s + i) * h + hd * dh + d];
                        }
                    }
                }
            }
        }
    });
    dv
}

/// A `shape` tensor in [-2, 2) with hostile values mixed in: `level` 1
/// zeroes a run of whole rows (`row` values each, alternating `+0`/`-0`
/// by row), level 2 also scatters `±0`, and level 3 also scatters `±∞` and
/// NaN.
fn hostile(shape: Vec<usize>, row: usize, level: u8, seed: u64) -> Tensor {
    let mut rng = TensorRng::seed(seed);
    let mut x = rng.uniform(shape, -2.0, 2.0);
    let data = x.data_mut();
    let rows = data.len() / row.max(1);
    if level >= 1 && rows > 0 {
        let lo = rng.below(rows);
        for r in lo..(lo + rng.below(rows - lo) + 1) {
            let z = if r % 2 == 0 { 0.0 } else { -0.0 };
            data[r * row..(r + 1) * row].fill(z);
        }
    }
    let specials: &[f32] = match level {
        0 | 1 => &[],
        2 => &[0.0, -0.0],
        _ => &[0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN],
    };
    if !data.is_empty() {
        for (i, &v) in specials.iter().enumerate() {
            let at = rng.below(data.len());
            data[at] = v;
            // A second copy of each special in another random place.
            data[(at + 7 * i + 1) % data.len()] = v;
        }
    }
    x
}

/// Bit equality, except that any NaN equals any NaN. When both operands
/// of an add are NaN, x86 returns the first one's payload and sign, and
/// the compiler may commute an add; so which NaN comes out depends on
/// code generation, not on the accumulation order under test (IEEE 754
/// leaves it unspecified too). Every other value, `±0` and `±∞`
/// included, must match bit for bit.
fn same(w: f32, g: f32) -> bool {
    w.to_bits() == g.to_bits() || (w.is_nan() && g.is_nan())
}

fn assert_bits(want: &Tensor, got: &Tensor, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(want.shape(), got.shape());
    for (i, (&w, &g)) in want.data().iter().zip(got.data()).enumerate() {
        prop_assert!(same(w, g), "{what}: element {i}: loop {w:?} vs gemm {g:?}");
    }
    Ok(())
}

fn run(op: Op, ins: &[&Tensor]) -> Tensor {
    eval_op(&op, ins).unwrap().remove(0)
}

proptest! {
    #![proptest_config(ProptestConfig::env_cases(32))]

    /// `AttnScores` (`Q·Kᵀ`, scaled, causally masked) and `AttnContext`
    /// (`P·V`) over rectangular `Sq ≤ Sk` shapes.
    #[test]
    fn forward_attention_matches_the_loops(
        dims in (1usize..3, 1usize..5, 1usize..24, 0usize..24, 1usize..40),
        rem in 0usize..4,
        causal in any::<bool>(),
        level in 0u8..4,
        seed in any::<u64>(),
    ) {
        let (b, heads, s_q, extra, dh) = dims;
        let s_k = s_q + extra;
        // Columns past heads · dh are ignored by every head.
        let h = heads * dh + rem % heads;
        let q = hostile(vec![b, s_q, h], h, level, seed);
        let k = hostile(vec![b, s_k, h], h, level, seed ^ 1);
        let v = hostile(vec![b, s_k, h], h, level, seed ^ 2);
        let p = hostile(vec![b, heads, s_q, s_k], s_k, level, seed ^ 3);
        let what = format!("b={b} heads={heads} s_q={s_q} s_k={s_k} h={h} causal={causal} level={level}");
        let got = run(Op::AttnScores { heads, causal }, &[&q, &k]);
        assert_bits(&scores_ref(&q, &k, &heads, &causal), &got, &format!("attn_scores {what}"))?;
        let got = run(Op::AttnContext { heads }, &[&p, &v]);
        assert_bits(&context_ref(&p, &v, &heads), &got, &format!("attn_context {what}"))?;
    }

    /// `AttnContextGradP` (`dY·Vᵀ`) and `AttnContextGradV` (`Pᵀ·dY`) over
    /// the square full-sequence shapes training uses.
    #[test]
    fn context_gradients_match_the_loops(
        dims in (1usize..3, 1usize..5, 1usize..40, 1usize..40),
        rem in 0usize..4,
        level in 0u8..4,
        seed in any::<u64>(),
    ) {
        let (b, heads, s, dh) = dims;
        let h = heads * dh + rem % heads;
        let v = hostile(vec![b, s, h], h, level, seed);
        let dy = hostile(vec![b, s, h], h, level, seed ^ 1);
        let p = hostile(vec![b, heads, s, s], s, level, seed ^ 2);
        let what = format!("b={b} heads={heads} s={s} h={h} level={level}");
        let got = run(Op::AttnContextGradP { heads }, &[&v, &dy]);
        assert_bits(&context_grad_p_ref(&v, &dy, &heads), &got, &format!("grad_p {what}"))?;
        let got = run(Op::AttnContextGradV { heads }, &[&p, &dy]);
        assert_bits(&context_grad_v_ref(&p, &dy, &heads), &got, &format!("grad_v {what}"))?;
    }
}

/// One fixed case per op well above the GEMM's small-problem cutoff, so
/// the packed path runs regardless of which shapes the proptests draw.
#[test]
fn large_heads_take_the_packed_path_bit_identically() {
    let (b, heads, s, dh) = (2, 3, 40, 20);
    let h = heads * dh;
    let q = hostile(vec![b, s, h], h, 3, 11);
    let k = hostile(vec![b, s, h], h, 1, 12);
    let p = hostile(vec![b, heads, s, s], s, 2, 13);
    let check = |want: Tensor, got: Tensor| {
        assert_eq!(want.shape(), got.shape());
        for (&w, &g) in want.data().iter().zip(got.data()) {
            assert!(same(w, g), "{w:?} vs {g:?}");
        }
    };
    for causal in [false, true] {
        check(scores_ref(&q, &k, &heads, &causal), run(Op::AttnScores { heads, causal }, &[&q, &k]));
    }
    check(context_ref(&p, &k, &heads), run(Op::AttnContext { heads }, &[&p, &k]));
    check(context_grad_p_ref(&k, &q, &heads), run(Op::AttnContextGradP { heads }, &[&k, &q]));
    check(context_grad_v_ref(&p, &q, &heads), run(Op::AttnContextGradV { heads }, &[&p, &q]));
}
