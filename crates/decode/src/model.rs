//! Eager KV-cached forward passes through the *exact* executor kernels.
//!
//! [`DecodeModel`] holds a model's canonical weights by name and replays
//! the same operator sequence `lancet_models::build_forward` emits — via
//! [`lancet_exec::eval_op`], i.e. the very kernels the graph executor
//! runs — but one decode step at a time against a [`KvArena`] instead of
//! re-running the whole sequence. Bit-identity with the full-sequence
//! forward is not approximate, it is structural:
//!
//! * the attention kernels take rectangular `q(B,Sq,H) × k(B,Sk,H)` with
//!   an explicit position offset, so a cached single-query step computes
//!   the same masked scores/softmax/context row as the last row of the
//!   square pass (covered by `exec`'s offset-attention regression tests);
//! * every other forward kernel is row-independent over tokens (GEMM
//!   accumulates only over the contraction dim; norms, activations, and
//!   biases are per-row), so batching `n` single-token rows from
//!   different sequences cannot change any row's bits;
//! * MoE routing is per-token for every gate kind except expert-choice
//!   (rejected at construction) once capacity is **drop-free** — the
//!   step path sizes capacity at `tokens · k`, the same value a
//!   serving-normalized config (`capacity_factor = experts`) yields;
//! * collectives vanish at one device: `AllToAll` is an exact copy for
//!   `gpus == 1`, and `Dropout` is identity at execution time, so both
//!   are skipped (or value-identity, for the expert layout pair, which
//!   is still executed for fidelity);
//! * the model has no positional embeddings — position enters only
//!   through the causal mask — so cached rows never go stale.

use lancet_exec::{eval_op, eval_op_packed};
use lancet_ir::{GateKind, Op};
use lancet_models::GptMoeConfig;
use lancet_serve::{CanonicalWeights, Result, ServeError};
use lancet_tensor::{PackedTensor, Tensor};

use crate::kv::{KvArena, SlotId};

const NORM_EPS: f32 = 1e-5;

#[derive(Debug)]
struct Norm {
    g: Tensor,
    /// `None` for RMS norm (no beta).
    b: Option<Tensor>,
}

/// A matmul weight held alongside its prepacked panel form. Decode runs
/// the same weights every step, so packing once at model build and
/// handing the panels to [`eval_op_packed`] removes the per-step `pack_b`
/// that otherwise dominates small-`m` (one token per sequence) GEMMs.
/// Packing never changes bits — the packed kernel accumulates in the
/// same order — and a failed pack degrades to the repack-per-call path.
#[derive(Debug)]
struct Packed {
    w: Tensor,
    p: Option<PackedTensor>,
}

impl Packed {
    /// A rank-2 weight consumed as `MatMul { transpose_b: false }` B.
    fn mat(w: Tensor) -> Self {
        let p = PackedTensor::pack(&w, false).ok();
        Packed { w, p }
    }

    /// A rank-3 expert stack consumed as `BatchedMatMul` B.
    fn batched(w: Tensor) -> Self {
        let p = PackedTensor::pack_batched(&w).ok();
        Packed { w, p }
    }

    /// Like [`mat`](Self::mat)/[`batched`](Self::batched), but adopting a
    /// store-carried panel when it matches the weight (decode consumes
    /// every B un-transposed). A missing or stale pack falls back to
    /// packing fresh, so adoption never changes results — only skips
    /// work.
    fn adopt(
        w: Tensor,
        pack: Option<&std::sync::Arc<PackedTensor>>,
        batched: bool,
    ) -> Self {
        if let Some(p) = pack {
            let rank_ok = if batched { w.shape().len() == 3 } else { w.shape().len() == 2 };
            if rank_ok && !p.transposed() && p.matches(&w, false) {
                return Packed { w, p: Some((**p).clone()) };
            }
        }
        if batched {
            Packed::batched(w)
        } else {
            Packed::mat(w)
        }
    }
}

#[derive(Debug)]
struct Attn {
    wq: Packed,
    bq: Tensor,
    wk: Packed,
    bk: Tensor,
    wv: Packed,
    bv: Tensor,
    wo: Packed,
    bo: Tensor,
}

#[derive(Debug)]
enum Ffn {
    Dense { w1: Packed, b1: Tensor, w2: Packed, b2: Tensor },
    Swiglu { w1: Packed, w3: Packed, w2: Packed },
    Moe { gate: Packed, w1: Packed, w2: Packed, w3: Option<Packed>, shared: Option<Box<(Packed, Packed)>> },
}

#[derive(Debug)]
struct Block {
    ln1: Norm,
    attn: Attn,
    ln2: Norm,
    ffn: Ffn,
}

/// A single-device decode engine over a model's canonical weights.
/// See the module docs of `model.rs` for the bit-identity argument.
#[derive(Debug)]
pub struct DecodeModel {
    cfg: GptMoeConfig,
    wte: Tensor,
    blocks: Vec<Block>,
    ln_f: Norm,
    lm_head: Packed,
}

/// Run one op through the executor kernels, returning its sole output.
fn ev(op: Op, ins: &[&Tensor]) -> Result<Tensor> {
    let mut out = eval_op(&op, ins).map_err(|e| ServeError::Exec(e.to_string()))?;
    Ok(out.remove(0))
}

/// [`ev`] for matmul-family ops whose `B` operand is a [`Packed`] weight:
/// the kernel reuses the resident panels instead of packing per call.
fn evp(op: Op, a: &Tensor, b: &Packed) -> Result<Tensor> {
    let mut out = eval_op_packed(&op, &[a, &b.w], b.p.as_ref())
        .map_err(|e| ServeError::Exec(e.to_string()))?;
    Ok(out.remove(0))
}

/// Index of the largest value in `row`; ties break to the lowest index
/// (the same rule the routing kernels use), making sampling-free decode
/// deterministic.
pub fn argmax(row: &[f32]) -> u32 {
    let mut best = 0usize;
    for (i, &x) in row.iter().enumerate() {
        if x > row[best] {
            best = i;
        }
    }
    best as u32
}

impl DecodeModel {
    /// Build a decode engine from a registered model's config and
    /// canonical weights.
    ///
    /// Rejections are typed [`ServeError::BadRequest`]s:
    /// * `gpus != 1` — decode runs single-device; multi-device expert
    ///   parallelism has no KV-cached path here;
    /// * `fsdp` — sharded weights would need all-gathers per step;
    /// * expert-choice gating — experts pick tokens over the *whole
    ///   batch*, so a token's output depends on its batch-mates even
    ///   drop-free, which breaks the batched-equals-solo contract.
    pub fn new(cfg: &GptMoeConfig, canonical: &CanonicalWeights) -> Result<Self> {
        Self::new_with_packs(cfg, canonical, None)
    }

    /// [`new`](Self::new), additionally adopting prepacked GEMM panels
    /// (typically mapped zero-copy from a model store) for the weights
    /// they name — a store-loaded decode engine then packs nothing at
    /// build time. Stale packs are rejected per weight and repacked, so
    /// a wrong pack set degrades to [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn new_with_packs(
        cfg: &GptMoeConfig,
        canonical: &CanonicalWeights,
        packs: Option<&std::collections::HashMap<String, std::sync::Arc<PackedTensor>>>,
    ) -> Result<Self> {
        if cfg.gpus != 1 {
            return Err(ServeError::BadRequest(format!(
                "decode serving is single-device; `{}` wants {} gpus",
                cfg.name, cfg.gpus
            )));
        }
        if cfg.fsdp {
            return Err(ServeError::BadRequest(format!(
                "decode serving does not support FSDP-sharded weights (`{}`)",
                cfg.name
            )));
        }
        if matches!(cfg.gate, GateKind::ExpertChoice) {
            return Err(ServeError::BadRequest(
                "expert-choice gating routes over the whole batch; batched decode \
                 would not be bit-identical to solo decode"
                    .into(),
            ));
        }
        let w = canonical.first().ok_or_else(|| {
            ServeError::Plan("canonical weights hold no devices".into())
        })?;
        let take = |name: String| -> Result<Tensor> {
            w.get(&name)
                .cloned()
                .ok_or_else(|| ServeError::Plan(format!("canonical weights missing `{name}`")))
        };
        let norm = |name: &str| -> Result<Norm> {
            Ok(Norm {
                g: take(format!("{name}.g"))?,
                b: if cfg.rms_norm { None } else { Some(take(format!("{name}.b"))?) },
            })
        };
        let mat = |name: String| -> Result<Packed> {
            let w = take(name.clone())?;
            Ok(Packed::adopt(w, packs.and_then(|m| m.get(&name)), false))
        };
        let batched = |name: String| -> Result<Packed> {
            let w = take(name.clone())?;
            Ok(Packed::adopt(w, packs.and_then(|m| m.get(&name)), true))
        };
        let mut blocks = Vec::with_capacity(cfg.layers);
        for l in 0..cfg.layers {
            let pre = |n: &str| format!("h{l}.{n}");
            let attn = Attn {
                wq: mat(pre("attn.wq"))?,
                bq: take(pre("attn.bq"))?,
                wk: mat(pre("attn.wk"))?,
                bk: take(pre("attn.bk"))?,
                wv: mat(pre("attn.wv"))?,
                bv: take(pre("attn.bv"))?,
                wo: mat(pre("attn.wo"))?,
                bo: take(pre("attn.bo"))?,
            };
            let ffn = if cfg.moe_layers().contains(&l) {
                Ffn::Moe {
                    gate: mat(pre("moe.gate.w"))?,
                    w1: batched(pre("moe.expert.w1"))?,
                    w2: batched(pre("moe.expert.w2"))?,
                    w3: cfg.swiglu.then(|| batched(pre("moe.expert.w3"))).transpose()?,
                    shared: cfg
                        .shared_expert
                        .then(|| {
                            Ok::<_, ServeError>(Box::new((
                                mat(pre("moe.shared.w1"))?,
                                mat(pre("moe.shared.w2"))?,
                            )))
                        })
                        .transpose()?,
                }
            } else if cfg.swiglu {
                Ffn::Swiglu {
                    w1: mat(pre("ffn.w1"))?,
                    w3: mat(pre("ffn.w3"))?,
                    w2: mat(pre("ffn.w2"))?,
                }
            } else {
                Ffn::Dense {
                    w1: mat(pre("ffn.w1"))?,
                    b1: take(pre("ffn.b1"))?,
                    w2: mat(pre("ffn.w2"))?,
                    b2: take(pre("ffn.b2"))?,
                }
            };
            blocks.push(Block { ln1: norm(&pre("ln1"))?, attn, ln2: norm(&pre("ln2"))?, ffn });
        }
        Ok(DecodeModel {
            cfg: cfg.clone(),
            wte: take("wte".into())?,
            blocks,
            ln_f: norm("ln_f")?,
            lm_head: mat("lm_head".into())?,
        })
    }

    /// The model configuration this engine decodes.
    pub fn cfg(&self) -> &GptMoeConfig {
        &self.cfg
    }

    fn norm_fwd(&self, n: &Norm, x: &Tensor) -> Result<Tensor> {
        match &n.b {
            Some(b) => ev(Op::LayerNorm { eps: NORM_EPS }, &[x, &n.g, b]),
            None => ev(Op::RmsNorm { eps: NORM_EPS }, &[x, &n.g]),
        }
    }

    fn linear(&self, x: &Tensor, w: &Packed, b: Option<&Tensor>) -> Result<Tensor> {
        let y = evp(Op::MatMul { transpose_b: false }, x, w)?;
        match b {
            Some(b) => ev(Op::BiasAdd, &[&y, b]),
            None => Ok(y),
        }
    }

    /// Feed-forward sub-block on `xn` of shape `[b, s, h]`. Dropout ops
    /// are identity at execution time and are skipped; `AllToAll` is an
    /// exact copy at one device and is skipped.
    fn ffn_fwd(&self, ffn: &Ffn, xn: &Tensor) -> Result<Tensor> {
        match ffn {
            Ffn::Dense { w1, b1, w2, b2 } => {
                let h = self.linear(xn, w1, Some(b1))?;
                let h = ev(Op::Gelu, &[&h])?;
                self.linear(&h, w2, Some(b2))
            }
            Ffn::Swiglu { w1, w3, w2 } => {
                let a = self.linear(xn, w1, None)?;
                let a = ev(Op::Silu, &[&a])?;
                let b = self.linear(xn, w3, None)?;
                let gated = ev(Op::Mul, &[&a, &b])?;
                self.linear(&gated, w2, None)
            }
            Ffn::Moe { gate, w1, w2, w3, shared } => {
                let experts = self.cfg.experts();
                let (batch, seq) = (xn.shape()[0], xn.shape()[1]);
                // Drop-free capacity: every token reaches all k of its
                // experts, making routing per-token and therefore
                // batch-composition-independent.
                let capacity = batch * seq * self.cfg.gate.k();
                let gate_out = eval_op_packed(
                    &Op::Gate { kind: self.cfg.gate, experts, capacity },
                    &[xn, &gate.w],
                    gate.p.as_ref(),
                )
                .map_err(|e| ServeError::Exec(e.to_string()))?;
                let (assign, scale) = (&gate_out[0], &gate_out[1]);
                let buf = ev(Op::MoeDispatch { experts, capacity }, &[xn, assign, scale])?;
                let shared_out = match shared {
                    Some(sw) => {
                        let s = self.linear(xn, &sw.0, None)?;
                        let s = ev(Op::Gelu, &[&s])?;
                        Some(self.linear(&s, &sw.1, None)?)
                    }
                    None => None,
                };
                let loc = ev(Op::ExpertsLayout { gpus: 1 }, &[&buf])?;
                let hx = match w3 {
                    Some(w3) => {
                        let a = evp(Op::BatchedMatMul { transpose_b: false }, &loc, w1)?;
                        let a = ev(Op::Silu, &[&a])?;
                        let b = evp(Op::BatchedMatMul { transpose_b: false }, &loc, w3)?;
                        let gated = ev(Op::Mul, &[&a, &b])?;
                        evp(Op::BatchedMatMul { transpose_b: false }, &gated, w2)?
                    }
                    None => {
                        let hx = evp(Op::BatchedMatMul { transpose_b: false }, &loc, w1)?;
                        let hx = ev(Op::Gelu, &[&hx])?;
                        evp(Op::BatchedMatMul { transpose_b: false }, &hx, w2)?
                    }
                };
                let back = ev(Op::ExpertsLayoutInv { gpus: 1 }, &[&hx])?;
                let routed = ev(
                    Op::MoeGather { experts, capacity, batch, seq },
                    &[&back, assign, scale],
                )?;
                match shared_out {
                    Some(s) => ev(Op::Add, &[&routed, &s]),
                    None => Ok(routed),
                }
            }
        }
    }

    /// Full-sequence (square-attention) forward over one prompt.
    /// Returns the logits `[1, s, vocab]` and per-layer `(k, v)` tensors
    /// `[1, s, hidden]` for seeding a [`KvArena`] slot.
    pub fn prefill_full(&self, prompt: &[u32]) -> Result<(Tensor, Vec<(Tensor, Tensor)>)> {
        if prompt.is_empty() {
            return Err(ServeError::BadRequest("empty prompt".into()));
        }
        let s = prompt.len();
        let ids = Tensor::from_vec(vec![1, s], prompt.iter().map(|&t| t as f32).collect())
            .map_err(|e| ServeError::BadRequest(e.to_string()))?;
        let mut x = ev(Op::Embedding, &[&self.wte, &ids])?;
        let mut kvs = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            let xn = self.norm_fwd(&block.ln1, &x)?;
            let q = self.linear(&xn, &block.attn.wq, Some(&block.attn.bq))?;
            let k = self.linear(&xn, &block.attn.wk, Some(&block.attn.bk))?;
            let v = self.linear(&xn, &block.attn.wv, Some(&block.attn.bv))?;
            let scores = ev(Op::AttnScores { heads: self.cfg.heads, causal: true }, &[&q, &k])?;
            let probs = ev(Op::Softmax, &[&scores])?;
            let ctx = ev(Op::AttnContext { heads: self.cfg.heads }, &[&probs, &v])?;
            let proj = self.linear(&ctx, &block.attn.wo, Some(&block.attn.bo))?;
            x = ev(Op::Add, &[&x, &proj])?;
            let xn = self.norm_fwd(&block.ln2, &x)?;
            let f = self.ffn_fwd(&block.ffn, &xn)?;
            x = ev(Op::Add, &[&x, &f])?;
            kvs.push((k, v));
        }
        let xf = self.norm_fwd(&self.ln_f, &x)?;
        let logits = self.linear(&xf, &self.lm_head, None)?;
        Ok((logits, kvs))
    }

    /// One decode step for `n` sequences: feed each sequence's newest
    /// token, append its K/V rows to the arena (uncommitted — the caller
    /// [commits](KvArena::commit) after the step's tokens are safely
    /// emitted, or [rolls back](KvArena::rollback) to retry), and return
    /// logits `[n, 1, vocab]`.
    ///
    /// Attention is ragged — per sequence, a `[1, 1, h]` query against
    /// that sequence's cached `[1, len+1, h]` keys/values — while every
    /// other op runs batched over `[n, 1, h]`.
    pub fn step(&self, tokens: &[u32], arena: &mut KvArena, slots: &[SlotId]) -> Result<Tensor> {
        let n = tokens.len();
        if n == 0 || n != slots.len() {
            return Err(ServeError::BadRequest(format!(
                "step wants matching non-empty tokens/slots, got {n}/{}",
                slots.len()
            )));
        }
        let h = self.cfg.hidden;
        let ids = Tensor::from_vec(vec![n, 1], tokens.iter().map(|&t| t as f32).collect())
            .map_err(|e| ServeError::BadRequest(e.to_string()))?;
        let mut x = ev(Op::Embedding, &[&self.wte, &ids])?;
        for (l, block) in self.blocks.iter().enumerate() {
            let xn = self.norm_fwd(&block.ln1, &x)?;
            let q = self.linear(&xn, &block.attn.wq, Some(&block.attn.bq))?;
            let k = self.linear(&xn, &block.attn.wk, Some(&block.attn.bk))?;
            let v = self.linear(&xn, &block.attn.wv, Some(&block.attn.bv))?;
            let mut ctx = vec![0.0f32; n * h];
            for i in 0..n {
                arena.append_row(slots[i], l, &k.data()[i * h..(i + 1) * h], &v.data()[i * h..(i + 1) * h])?;
                let len = arena.len(slots[i]) + 1; // committed rows + the one just appended
                let qi = Tensor::from_vec(vec![1, 1, h], q.data()[i * h..(i + 1) * h].to_vec())
                    .map_err(|e| ServeError::Exec(e.to_string()))?;
                let ki = Tensor::from_vec(vec![1, len, h], arena.k_data(slots[i], l).to_vec())
                    .map_err(|e| ServeError::Exec(e.to_string()))?;
                let vi = Tensor::from_vec(vec![1, len, h], arena.v_data(slots[i], l).to_vec())
                    .map_err(|e| ServeError::Exec(e.to_string()))?;
                let scores = ev(Op::AttnScores { heads: self.cfg.heads, causal: true }, &[&qi, &ki])?;
                let probs = ev(Op::Softmax, &[&scores])?;
                let ci = ev(Op::AttnContext { heads: self.cfg.heads }, &[&probs, &vi])?;
                ctx[i * h..(i + 1) * h].copy_from_slice(ci.data());
            }
            let ctx = Tensor::from_vec(vec![n, 1, h], ctx).map_err(|e| ServeError::Exec(e.to_string()))?;
            let proj = self.linear(&ctx, &block.attn.wo, Some(&block.attn.bo))?;
            x = ev(Op::Add, &[&x, &proj])?;
            let xn = self.norm_fwd(&block.ln2, &x)?;
            let f = self.ffn_fwd(&block.ffn, &xn)?;
            x = ev(Op::Add, &[&x, &f])?;
        }
        let xf = self.norm_fwd(&self.ln_f, &x)?;
        self.linear(&xf, &self.lm_head, None)
    }

    /// Seed an arena slot from a prefill's per-layer `(k, v)` tensors
    /// (shape `[1, tokens, hidden]`, or a longer padded prefill of which
    /// only the first `tokens` rows are real).
    pub fn seed_slot(
        &self,
        arena: &mut KvArena,
        slot: SlotId,
        kvs: &[(Tensor, Tensor)],
        tokens: usize,
    ) -> Result<()> {
        let h = self.cfg.hidden;
        let rows: Vec<(&[f32], &[f32])> = kvs
            .iter()
            .map(|(k, v)| (&k.data()[..tokens * h], &v.data()[..tokens * h]))
            .collect();
        arena.seed(slot, &rows, tokens)
    }
}

/// A synchronous single-sequence decode session: prefill once, then one
/// greedy (argmax) token per [`step`](DecodeSession::step). This is both
/// the simplest client of [`DecodeModel`] and the *reference* the
/// batched runtime is tested against — batching must reproduce these
/// exact tokens.
#[derive(Debug)]
pub struct DecodeSession {
    model: std::sync::Arc<DecodeModel>,
    arena: KvArena,
    slot: SlotId,
    last_logits: Vec<f32>,
}

impl DecodeSession {
    /// A session able to hold `max_tokens` K/V rows.
    pub fn new(model: std::sync::Arc<DecodeModel>, max_tokens: usize) -> Self {
        let cfg = model.cfg().clone();
        let mut arena = KvArena::new(cfg.layers, cfg.hidden, max_tokens);
        let slot = arena.alloc(max_tokens).expect("fresh arena fits its own capacity");
        DecodeSession { model, arena, slot, last_logits: Vec::new() }
    }

    /// Run the prompt through the full-sequence forward, seed the cache,
    /// and return the greedy next token.
    pub fn prefill(&mut self, prompt: &[u32]) -> Result<u32> {
        let (logits, kvs) = self.model.prefill_full(prompt)?;
        self.model.seed_slot(&mut self.arena, self.slot, &kvs, prompt.len())?;
        let vocab = *logits.shape().last().unwrap();
        self.last_logits = logits.data()[(prompt.len() - 1) * vocab..prompt.len() * vocab].to_vec();
        Ok(argmax(&self.last_logits))
    }

    /// Feed one token, returning the greedy next token.
    pub fn step(&mut self, token: u32) -> Result<u32> {
        let logits = self.model.step(&[token], &mut self.arena, &[self.slot])?;
        self.arena.commit(self.slot);
        self.last_logits = logits.data().to_vec();
        Ok(argmax(&self.last_logits))
    }

    /// Logits of the most recent position, `[vocab]`. Empty before the
    /// first [`prefill`](Self::prefill).
    pub fn last_logits(&self) -> &[f32] {
        &self.last_logits
    }
}
