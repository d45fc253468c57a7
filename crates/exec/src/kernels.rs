//! Per-instruction numeric kernels (single device).
//!
//! Every contraction routes through `lancet-tensor`'s packed GEMM
//! engine: transposed operands are resolved in its packing copies, and
//! attention runs as one batched product over `(batch, head)` slices.
//! Only the two score gradients stay loops (see `Op::AttnScoresGradQ`),
//! chunked over the same shared thread pool. Every kernel keeps a fixed
//! per-element accumulation order, so results are bit-identical for any
//! worker count.

use lancet_ir::{GateKind, Op};
use lancet_moe::{route, CapacityState, Routing};
use lancet_tensor::gemm::batched_matmul_t;
use lancet_tensor::pool::{par_ranges, SharedSliceMut};
use lancet_tensor::{det, PackedTensor, Tensor, TensorError};

/// Internal kernel failure, wrapped with instruction context by the
/// executor.
#[derive(Debug)]
pub(crate) enum KernelFailure {
    Tensor(TensorError),
    Moe(lancet_moe::MoeError),
    Unsupported(String),
}

impl From<TensorError> for KernelFailure {
    fn from(e: TensorError) -> Self {
        KernelFailure::Tensor(e)
    }
}

impl From<lancet_moe::MoeError> for KernelFailure {
    fn from(e: lancet_moe::MoeError) -> Self {
        KernelFailure::Moe(e)
    }
}

type KResult = Result<Vec<Tensor>, KernelFailure>;

/// Flattens all leading dims into rows: `(…, D) → (N, D)`.
fn as_rows(x: &Tensor) -> Result<Tensor, TensorError> {
    let d = *x.shape().last().unwrap_or(&1);
    let n = x.volume() / d.max(1);
    x.reshape(vec![n, d])
}

/// Reconstructs a slot-based routing from its tensor form; `tokens` is
/// the number of tokens so `k = slots / tokens` can be derived.
fn routing_from(assign: &Tensor, scale: &Tensor, tokens: usize) -> Routing {
    let k = (assign.volume() / tokens.max(1)).max(1);
    Routing {
        k,
        assign: assign.data().iter().map(|&a| a as i32).collect(),
        scale: scale.data().to_vec(),
    }
}

fn routing_tensors(r: &Routing) -> (Tensor, Tensor) {
    let t = r.len();
    let assign = Tensor::from_vec(vec![t], r.assign.iter().map(|&a| a as f32).collect())
        .expect("assign volume");
    let scale = Tensor::from_vec(vec![t], r.scale.clone()).expect("scale volume");
    (assign, scale)
}

/// Splits `(B, S, H)` into per-head slices `(B · heads, S, dh)`, one row
/// copy per `(batch, position, head)`; columns past `heads · dh` are
/// dropped.
fn split_heads(x: &Tensor, heads: usize) -> Result<Tensor, TensorError> {
    let (b, s, h) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let dh = h / heads;
    let mut out = vec![0.0f32; b * heads * s * dh];
    for (row, src) in x.data().chunks_exact(h.max(1)).enumerate() {
        let (bi, i) = (row / s, row % s);
        for hd in 0..heads {
            let dst = ((bi * heads + hd) * s + i) * dh;
            out[dst..dst + dh].copy_from_slice(&src[hd * dh..(hd + 1) * dh]);
        }
    }
    Tensor::from_vec(vec![b * heads, s, dh], out)
}

/// Inverse of [`split_heads`]: `(B · heads, S, dh) → (B, S, H)`, zero in
/// columns past `heads · dh`.
fn merge_heads(x: &Tensor, heads: usize, h: usize) -> Result<Tensor, TensorError> {
    let (bh, s, dh) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let b = bh / heads;
    let mut out = vec![0.0f32; b * s * h];
    for (plane, src) in x.data().chunks_exact((s * dh).max(1)).enumerate() {
        let (bi, hd) = (plane / heads, plane % heads);
        for i in 0..s {
            let dst = (bi * s + i) * h + hd * dh;
            out[dst..dst + dh].copy_from_slice(&src[i * dh..(i + 1) * dh]);
        }
    }
    Tensor::from_vec(vec![b, s, h], out)
}

/// Views a `(B, heads, Sq, Sk)` attention tensor as `(B · heads, Sq, Sk)`.
fn head_planes(p: &Tensor) -> Result<Tensor, TensorError> {
    let d = p.shape();
    p.reshape(vec![d[0] * d[1], d[2], d[3]])
}

/// Moves contiguous `block`-word runs from position `(o, i)` of an
/// `(outer, inner)` grid to position `(i, o)` of the `(inner, outer)`
/// grid: the expert-major/device-major shuffle, one copy per run.
fn swap_blocks(
    x: &Tensor,
    outer: usize,
    inner: usize,
    block: usize,
    shape: Vec<usize>,
) -> Result<Tensor, TensorError> {
    let src = x.data();
    let mut out = vec![0.0f32; src.len()];
    for o in 0..outer {
        for i in 0..inner {
            let (from, to) = ((o * inner + i) * block, (i * outer + o) * block);
            out[to..to + block].copy_from_slice(&src[from..from + block]);
        }
    }
    Tensor::from_vec(shape, out)
}

/// Gating logits and softmax scores for `(B,S,H) x (H,E)`.
fn gate_scores(x: &Tensor, wg: &Tensor) -> Result<Tensor, TensorError> {
    let rows = as_rows(x)?;
    Ok(rows.matmul(wg)?.softmax_last())
}

/// Evaluates a non-collective instruction on one device.
///
/// `packed_b` optionally carries the prepacked panel form of the
/// instruction's weight operand (`ins[1]` of the matmul-family ops); when
/// its metadata matches the bound tensor, the kernel skips per-call `B`
/// packing. The fast path is bit-identical to the repacking path, so a
/// stale or absent pack only costs time, never correctness — but callers
/// (the executor via `Bindings`) still invalidate packs on rebinding,
/// because a pack is a *value* snapshot `matches` cannot vouch for.
pub(crate) fn eval(op: &Op, ins: &[&Tensor], packed_b: Option<&PackedTensor>) -> KResult {
    match op {
        Op::MatMul { transpose_b } => {
            let x = ins[0];
            let w = ins[1];
            let rows = as_rows(x)?;
            let y = match packed_b {
                Some(pb) if pb.matches(w, *transpose_b) => rows.matmul_prepacked(pb)?,
                _ => rows.matmul_t(w, false, *transpose_b)?,
            };
            let mut dims = x.shape().to_vec();
            *dims.last_mut().expect("rank>=1") = y.shape()[1];
            Ok(vec![y.reshape(dims)?])
        }
        Op::MatMulDw => {
            let x = as_rows(ins[0])?;
            let dy = as_rows(ins[1])?;
            Ok(vec![x.matmul_t(&dy, true, false)?])
        }
        Op::BatchedMatMul { transpose_b } => {
            let x = ins[0];
            if !*transpose_b {
                if let Some(pb) = packed_b.filter(|pb| pb.matches(ins[1], false)) {
                    return Ok(vec![x.batched_matmul_prepacked(pb)?]);
                }
            }
            Ok(vec![batched_matmul_t(x, ins[1], false, *transpose_b, 0)?])
        }
        Op::BatchedMatMulDw => {
            // (E,C,K)^T (E,C,N) per expert -> (E,K,N)
            Ok(vec![batched_matmul_t(ins[0], ins[1], true, false, 0)?])
        }
        Op::Add => Ok(vec![ins[0].add(ins[1])?]),
        Op::Mul => Ok(vec![ins[0].mul(ins[1])?]),
        Op::BiasAdd => Ok(vec![ins[0].bias_add(ins[1])?]),
        Op::SumLeading => {
            let rows = as_rows(ins[0])?;
            Ok(vec![rows.sum_axis(0)?])
        }
        Op::Scale { factor } => Ok(vec![ins[0].scale(*factor)]),
        Op::Relu => Ok(vec![ins[0].relu()]),
        Op::ReluGrad => Ok(vec![ins[0].relu_grad(ins[1])?]),
        Op::Gelu => Ok(vec![ins[0].gelu()]),
        Op::GeluGrad => Ok(vec![ins[0].gelu_grad(ins[1])?]),
        Op::Silu => Ok(vec![ins[0].silu()]),
        Op::SiluGrad => Ok(vec![ins[0].silu_grad(ins[1])?]),
        Op::RmsNorm { eps } => Ok(vec![ins[0].rms_norm(ins[1], *eps)?]),
        Op::RmsNormGradX { eps } => {
            let rows = as_rows(ins[0])?;
            let drows = as_rows(ins[2])?;
            let (dx, _) = rows.rms_norm_grad(ins[1], &drows, *eps)?;
            Ok(vec![dx.reshape(ins[0].shape().to_vec())?])
        }
        Op::RmsNormGradGamma { eps } => {
            // dgamma is gamma-independent; evaluate with unit gamma.
            let rows = as_rows(ins[0])?;
            let drows = as_rows(ins[1])?;
            let ones = Tensor::full(vec![*rows.shape().last().expect("rank 2")], 1.0);
            let (_, dgamma) = rows.rms_norm_grad(&ones, &drows, *eps)?;
            Ok(vec![dgamma])
        }
        Op::Softmax => Ok(vec![ins[0].softmax_last()]),
        Op::SoftmaxGrad => Ok(vec![ins[0].softmax_last_grad(ins[1])?]),
        Op::Dropout { .. } => Ok(vec![ins[0].clone()]),
        Op::LayerNorm { eps } => Ok(vec![ins[0].layer_norm(ins[1], ins[2], *eps)?]),
        Op::LayerNormGradX { eps } => {
            let rows = as_rows(ins[0])?;
            let drows = as_rows(ins[2])?;
            let (dx, _, _) = rows.layer_norm_grad(ins[1], &drows, *eps)?;
            Ok(vec![dx.reshape(ins[0].shape().to_vec())?])
        }
        Op::LayerNormGradGamma { eps } => {
            // dgamma does not depend on gamma; evaluate with unit gamma.
            let rows = as_rows(ins[0])?;
            let drows = as_rows(ins[1])?;
            let ones = Tensor::full(vec![*rows.shape().last().expect("rank 2")], 1.0);
            let (_, dgamma, _) = rows.layer_norm_grad(&ones, &drows, *eps)?;
            Ok(vec![dgamma])
        }
        Op::LayerNormGradBeta => {
            let drows = as_rows(ins[0])?;
            Ok(vec![drows.sum_axis(0)?])
        }
        Op::Embedding => {
            let (table, ids) = (ins[0], ins[1]);
            let (v, h) = (table.shape()[0], table.shape()[1]);
            let (b, s) = (ids.shape()[0], ids.shape()[1]);
            let mut out = Tensor::zeros(vec![b, s, h]);
            for (t, &id) in ids.data().iter().enumerate() {
                let id = (id as usize).min(v - 1);
                out.data_mut()[t * h..(t + 1) * h].copy_from_slice(&table.data()[id * h..(id + 1) * h]);
            }
            Ok(vec![out])
        }
        Op::EmbeddingGrad => {
            let (table, ids, dy) = (ins[0], ins[1], ins[2]);
            let (v, h) = (table.shape()[0], table.shape()[1]);
            let mut dtable = Tensor::zeros(vec![v, h]);
            for (t, &id) in ids.data().iter().enumerate() {
                let id = (id as usize).min(v - 1);
                for i in 0..h {
                    dtable.data_mut()[id * h + i] += dy.data()[t * h + i];
                }
            }
            Ok(vec![dtable])
        }
        Op::AttnScores { heads, causal } => {
            let (q, k) = (ins[0], ins[1]);
            // q is (B, Sq, H), k is (B, Sk, H) with Sq ≤ Sk: the queries
            // are the trailing Sq positions, so query i sits at absolute
            // position i + (Sk − Sq). Sq == Sk (offset 0) is the ordinary
            // full-sequence forward; Sq < Sk the KV-cached decode path.
            let (b, s_q, h) = (q.shape()[0], q.shape()[1], q.shape()[2]);
            let s_k = k.shape()[1];
            if s_q > s_k || k.shape()[0] != b || k.shape()[2] != h {
                return Err(KernelFailure::Unsupported(format!(
                    "attn_scores: q {:?} incompatible with k {:?}",
                    q.shape(),
                    k.shape()
                )));
            }
            let offset = s_k - s_q;
            let (heads, causal) = (*heads, *causal);
            let scale = 1.0 / ((h / heads) as f32).sqrt();
            let (qh, kh) = (split_heads(q, heads)?, split_heads(k, heads)?);
            // Q·Kᵀ per (batch, head): each score sums from +0 with d
            // ascending, then is scaled; masked scores are overwritten.
            let mut out = batched_matmul_t(&qh, &kh, false, true, 0)?;
            for plane in out.data_mut().chunks_exact_mut((s_q * s_k).max(1)) {
                for (i, row) in plane.chunks_exact_mut(s_k.max(1)).enumerate() {
                    for (j, x) in row.iter_mut().enumerate() {
                        *x = if causal && j > i + offset { -1e9 } else { *x * scale };
                    }
                }
            }
            Ok(vec![Tensor::from_vec(vec![b, heads, s_q, s_k], out.into_vec())?])
        }
        Op::AttnScoresGradQ { heads, causal } => {
            let (k, dy) = (ins[0], ins[1]);
            // Training graphs are always full-sequence; the KV-cached
            // rectangular forward has no backward.
            if dy.shape()[2] != dy.shape()[3] {
                return Err(KernelFailure::Unsupported(format!(
                    "attn_scores_grad_q: full-sequence (square) dy required, got {:?}",
                    dy.shape()
                )));
            }
            let (b, s, h) = (k.shape()[0], k.shape()[1], k.shape()[2]);
            let (heads, causal) = (*heads, *causal);
            let dh = h / heads;
            let scale = 1.0 / (dh as f32).sqrt();
            let mut dq = Tensor::zeros(vec![b, s, h]);
            let (kd, dyd) = (k.data(), dy.data());
            let view = SharedSliceMut::new(dq.data_mut());
            par_ranges(b, 0, |batches| {
                for bi in batches {
                    // SAFETY: each batch owns its (s, h) gradient block.
                    let blk = unsafe { view.range_mut(bi * s * h..(bi + 1) * s * h) };
                    for hd in 0..heads {
                        for i in 0..s {
                            for j in 0..s {
                                if causal && j > i {
                                    continue;
                                }
                                let g = dyd[((bi * heads + hd) * s + i) * s + j] * scale;
                                for d in 0..dh {
                                    blk[i * h + hd * dh + d] +=
                                        g * kd[(bi * s + j) * h + hd * dh + d];
                                }
                            }
                        }
                    }
                }
            });
            Ok(vec![dq])
        }
        Op::AttnScoresGradK { heads, causal } => {
            let (q, dy) = (ins[0], ins[1]);
            if dy.shape()[2] != dy.shape()[3] {
                return Err(KernelFailure::Unsupported(format!(
                    "attn_scores_grad_k: full-sequence (square) dy required, got {:?}",
                    dy.shape()
                )));
            }
            let (b, s, h) = (q.shape()[0], q.shape()[1], q.shape()[2]);
            let (heads, causal) = (*heads, *causal);
            let dh = h / heads;
            let scale = 1.0 / (dh as f32).sqrt();
            let mut dk = Tensor::zeros(vec![b, s, h]);
            let (qd, dyd) = (q.data(), dy.data());
            let view = SharedSliceMut::new(dk.data_mut());
            par_ranges(b, 0, |batches| {
                for bi in batches {
                    // SAFETY: each batch owns its (s, h) gradient block.
                    let blk = unsafe { view.range_mut(bi * s * h..(bi + 1) * s * h) };
                    for hd in 0..heads {
                        for i in 0..s {
                            for j in 0..s {
                                if causal && j > i {
                                    continue;
                                }
                                let g = dyd[((bi * heads + hd) * s + i) * s + j] * scale;
                                for d in 0..dh {
                                    blk[j * h + hd * dh + d] +=
                                        g * qd[(bi * s + i) * h + hd * dh + d];
                                }
                            }
                        }
                    }
                }
            });
            Ok(vec![dk])
        }
        Op::AttnContext { heads } => {
            let (p, v) = (ins[0], ins[1]);
            // p is (B, heads, Sq, Sk), v is (B, Sk, H): Sq < Sk is the
            // KV-cached decode path (see Op::AttnScores above).
            let (b, s_k, h) = (v.shape()[0], v.shape()[1], v.shape()[2]);
            let s_q = p.shape()[2];
            if p.shape()[0] != b || p.shape()[3] != s_k || s_q > s_k {
                return Err(KernelFailure::Unsupported(format!(
                    "attn_context: p {:?} incompatible with v {:?}",
                    p.shape(),
                    v.shape()
                )));
            }
            // P·V per (batch, head), summed over key positions ascending.
            let ctx = batched_matmul_t(&head_planes(p)?, &split_heads(v, *heads)?, false, false, 0)?;
            Ok(vec![merge_heads(&ctx, *heads, h)?])
        }
        Op::AttnContextGradP { heads } => {
            let (v, dy) = (ins[0], ins[1]);
            let (b, s) = (v.shape()[0], v.shape()[1]);
            // dY·Vᵀ per (batch, head), summed over d ascending.
            let (vh, dyh) = (split_heads(v, *heads)?, split_heads(dy, *heads)?);
            let dp = batched_matmul_t(&dyh, &vh, false, true, 0)?;
            Ok(vec![Tensor::from_vec(vec![b, *heads, s, s], dp.into_vec())?])
        }
        Op::AttnContextGradV { heads } => {
            let (p, dy) = (ins[0], ins[1]);
            // Pᵀ·dY per (batch, head), summed over query positions ascending.
            let dv = batched_matmul_t(&head_planes(p)?, &split_heads(dy, *heads)?, true, false, 0)?;
            Ok(vec![merge_heads(&dv, *heads, dy.shape()[2])?])
        }
        Op::CrossEntropy => {
            let (logits, targets) = (ins[0], ins[1]);
            let v = *logits.shape().last().expect("rank 3");
            let probs = logits.softmax_last();
            let t = targets.volume();
            let mut loss = 0.0f32;
            for (ti, &tgt) in targets.data().iter().enumerate() {
                let tgt = (tgt as usize).min(v - 1);
                let p = probs.data()[ti * v + tgt].max(1e-12);
                loss -= det::ln(p);
            }
            loss /= t as f32;
            Ok(vec![Tensor::from_vec(vec![1], vec![loss])?, probs])
        }
        Op::CrossEntropyGrad => {
            let (probs, targets) = (ins[0], ins[1]);
            let v = *probs.shape().last().expect("rank 3");
            let t = targets.volume();
            let mut d = probs.scale(1.0 / t as f32);
            for (ti, &tgt) in targets.data().iter().enumerate() {
                let tgt = (tgt as usize).min(v - 1);
                d.data_mut()[ti * v + tgt] -= 1.0 / t as f32;
            }
            Ok(vec![d])
        }
        Op::Gate { kind, experts: _, capacity } => {
            let scores_input = gate_scores_input(ins, packed_b)?;
            let r = route_from_scores(*kind, &scores_input, *capacity, None)?;
            let (assign, scale) = routing_tensors(&r);
            Ok(vec![assign, scale])
        }
        Op::GateChunk { kind, experts, capacity, .. } => {
            let scores_input = gate_scores_input(ins, packed_b)?;
            let cap_in = ins[2];
            let mut state = CapacityState::from_used(
                cap_in.data().iter().map(|&x| x as u32).collect(),
            );
            if state.experts() != *experts {
                return Err(KernelFailure::Unsupported(format!(
                    "capacity state has {} experts, op declares {}",
                    state.experts(),
                    experts
                )));
            }
            let r = route_from_scores(*kind, &scores_input, *capacity, Some(&mut state))?;
            let (assign, scale) = routing_tensors(&r);
            let cap_out = Tensor::from_vec(
                vec![*experts],
                state.used().iter().map(|&u| u as f32).collect(),
            )?;
            Ok(vec![assign, scale, cap_out])
        }
        Op::GateGradX { .. } | Op::GateGradW { .. } => {
            let (x, wg, assign, dscale) = (ins[0], ins[1], ins[2], ins[3]);
            let rows = as_rows(x)?;
            let scores = gate_scores(x, wg)?;
            let (t, e) = (scores.shape()[0], scores.shape()[1]);
            let k = (assign.volume() / t.max(1)).max(1);
            // The gate's scale outputs are either raw probabilities
            // (k = 1, Switch-style) or probabilities normalized over the
            // chosen set (top-k, GShard-style); the normalization is
            // inferable from k.
            let normalized = k > 1;
            let mut dlogits = Tensor::zeros(vec![t, e]);
            for ti in 0..t {
                let yrow = &scores.data()[ti * e..(ti + 1) * e];
                let chosen: Vec<(usize, f32)> = (0..k)
                    .filter_map(|j| {
                        let a = assign.data()[ti * k + j];
                        if a < 0.0 { None } else { Some((a as usize, dscale.data()[ti * k + j])) }
                    })
                    .collect();
                if chosen.is_empty() {
                    continue;
                }
                // dL/dp (upstream gradient on the softmax probabilities).
                let mut dp = vec![0.0f32; e];
                if normalized {
                    // Forward: scale_j = p_j / S with S = Σ p over the
                    // *original* top-k selection (dropped slots lose their
                    // output but still participated in the normalizer).
                    // Recompute that selection from the scores — same
                    // ordering rule as the router (descending score, ties
                    // by index).
                    let mut selection: Vec<usize> = (0..e).collect();
                    selection.sort_by(|&a, &b| {
                        yrow[b].partial_cmp(&yrow[a]).expect("finite").then(a.cmp(&b))
                    });
                    selection.truncate(k.min(e));
                    let sum: f32 = selection.iter().map(|&c| yrow[c]).sum::<f32>().max(1e-12);
                    for &(cj, gj) in &chosen {
                        // ∂(p_cj / S)/∂p_m = (δ_{cj m} S − p_cj) / S².
                        for &cm in &selection {
                            let delta = if cj == cm { sum } else { 0.0 };
                            dp[cm] += gj * (delta - yrow[cj]) / (sum * sum);
                        }
                    }
                } else {
                    for &(c, g) in &chosen {
                        dp[c] += g;
                    }
                }
                // Softmax backward: dlogit_j = p_j (dp_j − Σ_m dp_m p_m).
                let dot: f32 = (0..e).map(|m| dp[m] * yrow[m]).sum();
                for j in 0..e {
                    dlogits.data_mut()[ti * e + j] = yrow[j] * (dp[j] - dot);
                }
            }
            if matches!(op, Op::GateGradX { .. }) {
                let dx = dlogits.matmul_t(wg, false, true)?;
                Ok(vec![dx.reshape(x.shape().to_vec())?])
            } else {
                Ok(vec![rows.matmul_t(&dlogits, true, false)?])
            }
        }
        Op::MoeDispatch { experts, capacity } | Op::MoeDispatchIrr { experts, capacity, .. } => {
            let x = as_rows(ins[0])?;
            let r = routing_from(ins[1], ins[2], x.shape()[0]);
            match op {
                Op::MoeDispatch { .. } => {
                    Ok(vec![lancet_moe::dispatch_dense(&x, &r, *experts, *capacity)?])
                }
                _ => {
                    let chunk = lancet_moe::dispatch_irregular(&x, &r, *experts, *capacity)?;
                    let counts = Tensor::from_vec(
                        vec![*experts],
                        chunk.counts.iter().map(|&c| c as f32).collect(),
                    )?;
                    Ok(vec![chunk.buf, counts])
                }
            }
        }
        Op::MoeDispatchGrad { experts, capacity, batch, seq }
        | Op::MoeDispatchIrrGrad { experts, capacity, batch, seq } => {
            // dx[t] = Σ_j dbuf[assign[t,j], slot[t,j]] — a gather with
            // unit scale on every kept slot (the forward replicated the
            // token to each chosen expert).
            let (assign, dbuf) = (ins[0], ins[1]);
            let tokens = batch * seq;
            let k = (assign.volume() / tokens.max(1)).max(1);
            let unit_scale: Vec<f32> = assign.data().iter().map(|&a| if a < 0.0 { 0.0 } else { 1.0 }).collect();
            let r = Routing {
                k,
                assign: assign.data().iter().map(|&a| a as i32).collect(),
                scale: unit_scale,
            };
            let dx = lancet_moe::gather_dense(dbuf, &r, *experts, *capacity)?;
            let h = dbuf.shape()[2];
            Ok(vec![dx.reshape(vec![*batch, *seq, h])?])
        }
        Op::MoeGather { experts, capacity, batch, seq }
        | Op::MoeGatherIrr { experts, capacity, batch, seq } => {
            let r = routing_from(ins[1], ins[2], batch * seq);
            let y = lancet_moe::gather_dense(ins[0], &r, *experts, *capacity)?;
            let h = ins[0].shape()[2];
            Ok(vec![y.reshape(vec![*batch, *seq, h])?])
        }
        Op::MoeGatherGradBuf { experts, capacity } | Op::MoeGatherIrrGradBuf { experts, capacity } => {
            // dbuf[e_s, pos_s] = scale_s · dy[token(s)] per kept slot,
            // with buffer positions assigned exactly as dispatch does.
            let (assign, scale, dy) = (ins[0], ins[1], ins[2]);
            let dy_rows = as_rows(dy)?;
            let h = *dy_rows.shape().last().expect("rank 2");
            let tokens = dy_rows.shape()[0];
            let k = (assign.volume() / tokens.max(1)).max(1);
            let mut dbuf = Tensor::zeros(vec![*experts, *capacity, h]);
            let mut next = vec![0usize; *experts];
            for (idx, &a) in assign.data().iter().enumerate() {
                if a < 0.0 {
                    continue;
                }
                let e = a as usize;
                let pos = next[e];
                next[e] += 1;
                let token = idx / k;
                let w = scale.data()[idx];
                let dst = (e * capacity + pos) * h;
                for i in 0..h {
                    dbuf.data_mut()[dst + i] = w * dy_rows.data()[token * h + i];
                }
            }
            Ok(vec![dbuf])
        }
        Op::MoeGatherGradScale { experts: _, capacity } => {
            // dscale_s = ⟨dy[token(s)], buf[e_s, pos_s]⟩ per kept slot.
            let (buf, assign, dy) = (ins[0], ins[1], ins[2]);
            let dy_rows = as_rows(dy)?;
            let h = *dy_rows.shape().last().expect("rank 2");
            let tokens = dy_rows.shape()[0];
            let slots = assign.volume();
            let k = (slots / tokens.max(1)).max(1);
            let experts = buf.shape()[0];
            let mut dscale = Tensor::zeros(vec![slots]);
            let mut next = vec![0usize; experts];
            for (idx, &a) in assign.data().iter().enumerate() {
                if a < 0.0 {
                    continue;
                }
                let e = a as usize;
                let pos = next[e];
                next[e] += 1;
                let token = idx / k;
                let src = (e * capacity + pos) * h;
                let mut acc = 0.0f32;
                for i in 0..h {
                    acc += buf.data()[src + i] * dy_rows.data()[token * h + i];
                }
                dscale.data_mut()[idx] = acc;
            }
            Ok(vec![dscale])
        }
        Op::ExpertsLayout { gpus } => {
            // (gpus · El, C, M) → (El, gpus · C, M): the (gpus, El) grid of
            // C·M runs is transposed.
            let (b, gpus) = (ins[0], *gpus);
            let (e, c, m) = (b.shape()[0], b.shape()[1], b.shape()[2]);
            if gpus == 0 || e % gpus != 0 {
                return Err(KernelFailure::Unsupported(format!(
                    "experts_layout: {e} experts over {gpus} devices"
                )));
            }
            let el = e / gpus;
            Ok(vec![swap_blocks(b, gpus, el, c * m, vec![el, gpus * c, m])?])
        }
        Op::ExpertsLayoutInv { gpus } => {
            let (b, gpus) = (ins[0], *gpus);
            let (el, gc, m) = (b.shape()[0], b.shape()[1], b.shape()[2]);
            if gpus == 0 || gc % gpus != 0 {
                return Err(KernelFailure::Unsupported(format!(
                    "experts_layout_inv: {gc} rows over {gpus} devices"
                )));
            }
            let c = gc / gpus;
            Ok(vec![swap_blocks(b, el, gpus, c * m, vec![el * gpus, c, m])?])
        }
        Op::Slice { axis, start, end } => Ok(vec![ins[0].slice_axis(*axis, *start, *end)?]),
        Op::Pad { axis, before, after } => {
            let x = ins[0];
            let mut parts: Vec<Tensor> = Vec::with_capacity(3);
            if *before > 0 {
                parts.push(Tensor::zeros(x.shape_obj().with_dim(*axis, *before)));
            }
            parts.push(x.clone());
            if *after > 0 {
                parts.push(Tensor::zeros(x.shape_obj().with_dim(*axis, *after)));
            }
            let refs: Vec<&Tensor> = parts.iter().collect();
            Ok(vec![Tensor::concat(&refs, *axis)?])
        }
        Op::Concat { axis } => Ok(vec![Tensor::concat(ins, *axis)?]),
        Op::Zeros { shape } => Ok(vec![Tensor::zeros(shape.clone())]),
        Op::SgdUpdate { lr } => Ok(vec![ins[0].sub(&ins[1].scale(*lr))?]),
        Op::SgdMomentumUpdate { lr, momentum } => {
            let (w, dw, vel) = (ins[0], ins[1], ins[2]);
            let vel_next = vel.scale(*momentum).add(dw)?;
            let w_next = w.sub(&vel_next.scale(*lr))?;
            Ok(vec![w_next, vel_next])
        }
        Op::AdamUpdate { lr, beta1, beta2, eps } => {
            let (w, dw, m, v) = (ins[0], ins[1], ins[2], ins[3]);
            let m_next = m.scale(*beta1).add(&dw.scale(1.0 - beta1))?;
            let v_next = v.scale(*beta2).add(&dw.mul(dw)?.scale(1.0 - beta2))?;
            let mut w_next = w.clone();
            for i in 0..w_next.volume() {
                let step = lr * m_next.data()[i] / (v_next.data()[i].sqrt() + eps);
                w_next.data_mut()[i] -= step;
            }
            Ok(vec![w_next, m_next, v_next])
        }
        Op::AllToAll
        | Op::AllToAllIrr
        | Op::AllReduce
        | Op::AllGather { .. }
        | Op::ReduceScatter { .. } => Err(KernelFailure::Unsupported(
            "collectives are handled by the executor".into(),
        )),
    }
}

/// Extracts `(T,E)` logits for a gate instruction's inputs `[x, wg, …]`,
/// using the prepacked form of `wg` when one matches.
fn gate_scores_input(ins: &[&Tensor], packed: Option<&PackedTensor>) -> Result<Tensor, KernelFailure> {
    let rows = as_rows(ins[0])?;
    Ok(match packed {
        Some(pb) if pb.matches(ins[1], false) => rows.matmul_prepacked(pb)?,
        _ => rows.matmul(ins[1])?,
    })
}

fn route_from_scores(
    kind: GateKind,
    logits: &Tensor,
    capacity: usize,
    state: Option<&mut CapacityState>,
) -> Result<Routing, KernelFailure> {
    Ok(route(kind, logits, capacity, state)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experts_layout_moves_whole_expert_runs() {
        // 2 devices × 3 local experts, capacity 2, width 3: element value =
        // its flat index, so every output position names its source.
        let (gpus, el, c, m) = (2, 3, 2, 3);
        let values = (0..gpus * el * c * m).map(|v| v as f32).collect();
        let x = Tensor::from_vec(vec![gpus * el, c, m], values).unwrap();
        let y = eval(&Op::ExpertsLayout { gpus }, &[&x], None).unwrap().remove(0);
        assert_eq!(y.shape(), &[el, gpus * c, m]);
        for l in 0..el {
            for g in 0..gpus {
                for r in 0..c * m {
                    let got = y.data()[(l * gpus + g) * c * m + r];
                    assert_eq!(got, x.data()[(g * el + l) * c * m + r], "expert {l}, device {g}");
                }
            }
        }
        let back = eval(&Op::ExpertsLayoutInv { gpus }, &[&y], None).unwrap().remove(0);
        assert_eq!(back, x);
        for bad in [0, 5] {
            assert!(eval(&Op::ExpertsLayout { gpus: bad }, &[&x], None).is_err());
            assert!(eval(&Op::ExpertsLayoutInv { gpus: bad }, &[&y], None).is_err());
        }
    }
}
