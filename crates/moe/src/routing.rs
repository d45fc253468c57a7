//! Token-to-expert routing with expert capacity and token dropping.
//!
//! Routing is *slot-based*: every token owns `k` slots (k = 1 for Switch,
//! BPR, random and hash gates; k ≥ 1 for GShard-style top-k). Slot `j` of
//! token `t` lives at flat index `t·k + j`.

use crate::{CapacityState, MoeError, Result};
use lancet_ir::GateKind;
use lancet_tensor::{det, Tensor};

/// The outcome of routing a sequence of tokens.
///
/// `assign[t·k + j]` is the target expert of token `t`'s `j`-th slot, or
/// `-1` when that slot was dropped (capacity overflow). `scale[t·k + j]`
/// is the combine weight applied to the expert output (0 for dropped
/// slots).
#[derive(Debug, Clone, PartialEq)]
pub struct Routing {
    /// Experts chosen per token.
    pub k: usize,
    /// Target expert per slot (−1 = dropped), length `tokens · k`.
    pub assign: Vec<i32>,
    /// Combine weight per slot (0 for dropped slots).
    pub scale: Vec<f32>,
}

impl Routing {
    /// Number of slots (`tokens · k`).
    pub fn len(&self) -> usize {
        self.assign.len()
    }

    /// True when no tokens were routed.
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// Number of tokens routed.
    pub fn tokens(&self) -> usize {
        self.assign.len() / self.k.max(1)
    }

    /// Number of dropped slots.
    pub fn num_dropped(&self) -> usize {
        self.assign.iter().filter(|&&e| e < 0).count()
    }

    /// Number of tokens whose *every* slot was dropped (the token gets a
    /// zero MoE output and passes through the residual only).
    pub fn fully_dropped_tokens(&self) -> usize {
        self.assign
            .chunks(self.k.max(1))
            .filter(|slots| slots.iter().all(|&e| e < 0))
            .count()
    }

    /// Concatenates per-chunk routings back into batch order.
    ///
    /// # Panics
    ///
    /// Panics if the chunks disagree on `k` or no chunks are given.
    pub fn concat(chunks: &[Routing]) -> Routing {
        let k = chunks.first().expect("at least one chunk").k;
        let mut assign = Vec::new();
        let mut scale = Vec::new();
        for c in chunks {
            assert_eq!(c.k, k, "chunks must agree on k");
            assign.extend_from_slice(&c.assign);
            scale.extend_from_slice(&c.scale);
        }
        Routing { k, assign, scale }
    }

    /// Tokens with at least one kept slot on `expert`, in token order.
    pub fn tokens_for(&self, expert: usize) -> Vec<usize> {
        let k = self.k.max(1);
        (0..self.tokens())
            .filter(|&t| (0..k).any(|j| self.assign[t * k + j] == expert as i32))
            .collect()
    }

    /// Kept slots on `expert` (count ≤ capacity by construction).
    pub fn slots_for(&self, expert: usize) -> usize {
        self.assign.iter().filter(|&&e| e == expert as i32).count()
    }
}

fn softmax_scores(logits: &Tensor) -> Result<(usize, usize, Tensor)> {
    if logits.rank() != 2 {
        return Err(MoeError::BadLogits { shape: logits.shape().to_vec() });
    }
    let (t, e) = (logits.shape()[0], logits.shape()[1]);
    if e == 0 {
        return Err(MoeError::BadLogits { shape: logits.shape().to_vec() });
    }
    Ok((t, e, logits.softmax_last()))
}

fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// Indices of the `k` largest entries, descending (ties by lower index).
fn top_k(row: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..row.len()).collect();
    idx.sort_by(|&a, &b| row[b].partial_cmp(&row[a]).expect("finite scores").then(a.cmp(&b)));
    idx.truncate(k);
    idx
}

/// Deterministic, position-independent hash of a token's gating scores.
///
/// Random/hash gates must assign experts from per-token information only
/// (not batch position), otherwise micro-batching would change routing.
fn token_hash(row: &[f32], seed: u64) -> u64 {
    row.iter().fold(det::FNV_OFFSET ^ seed, |h, v| {
        det::fnv1a_step(h, u64::from(v.to_bits()), det::FNV_PRIME_WIDE)
    })
}

/// Routes tokens to experts under the given gate.
///
/// `logits` is `(T, E)`: the pre-softmax gating scores of each token.
/// `capacity` is the per-expert capacity `C` of the *full* batch. When
/// `state` is provided (capacity-passing partitioned gating, paper
/// Fig. 5c), routing consumes from the shared state so that consecutive
/// chunks reproduce the unpartitioned drop set.
///
/// For [`GateKind::TopK`] gates, each token claims up to `k` slots on its
/// `k` best experts (token-major, best-expert-first contention order) and
/// combine weights are normalized over the *selected* experts (GShard
/// convention); dropped slots lose their share.
///
/// # Errors
///
/// * [`MoeError::NotPartitionable`] if `state` is provided for a gate that
///   needs whole-batch information (batch-prioritized, expert-choice).
/// * [`MoeError::BadLogits`] on malformed logits.
///
/// [`GateKind::ExpertChoice`] uses the inverted selection (experts pick
/// their top-`capacity` tokens); its routing uses `k = E` slots per token
/// and never drops an expert slot.
///
/// # Example
///
/// ```
/// use lancet_ir::GateKind;
/// use lancet_moe::route;
/// use lancet_tensor::Tensor;
///
/// // Two tokens, three experts; token 0 prefers expert 1.
/// let logits = Tensor::from_vec(vec![2, 3], vec![0.0, 4.0, 0.0, 3.0, 0.0, 0.0])?;
/// let routing = route(GateKind::Switch, &logits, 8, None)?;
/// assert_eq!(routing.assign, vec![1, 0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn route(
    kind: GateKind,
    logits: &Tensor,
    capacity: usize,
    state: Option<&mut CapacityState>,
) -> Result<Routing> {
    let (t, e, scores) = softmax_scores(logits)?;
    let k = kind.k().min(e);
    let mut local_state = CapacityState::new(e);
    let state = match state {
        Some(s) => {
            if !kind.partitionable_before_moe() {
                return Err(MoeError::NotPartitionable(kind.name()));
            }
            if s.experts() != e {
                return Err(MoeError::SizeMismatch {
                    what: "capacity state",
                    expected: e,
                    actual: s.experts(),
                });
            }
            s
        }
        None => &mut local_state,
    };
    if matches!(kind, GateKind::ExpertChoice) {
        // Expert-choice routing inverts the selection: every expert picks
        // its top-`capacity` tokens over the whole batch (Zhou et al.).
        // A token may be picked by several experts (or none); slot layout
        // is k = E with slot e of token t used iff expert e chose t.
        // There is no token dropping — experts always fill exactly
        // min(capacity, T) slots.
        let k = e;
        let mut assign = vec![-1i32; t * k];
        let mut scale = vec![0.0f32; t * k];
        for expert in 0..e {
            let mut by_score: Vec<usize> = (0..t).collect();
            by_score.sort_by(|&a, &b| {
                let (pa, pb) = (scores.data()[a * e + expert], scores.data()[b * e + expert]);
                pb.partial_cmp(&pa).expect("finite scores").then(a.cmp(&b))
            });
            for &token in by_score.iter().take(capacity.min(t)) {
                assign[token * k + expert] = expert as i32;
                scale[token * k + expert] = scores.data()[token * e + expert];
            }
        }
        return Ok(Routing { k, assign, scale });
    }

    let mut assign = vec![-1i32; t * k];
    let mut scale = vec![0.0f32; t * k];
    // Per-token expert choices, ranked.
    let choices = |row: &[f32]| -> Vec<usize> {
        match kind {
            GateKind::Switch | GateKind::BatchPrioritized => vec![argmax(row)],
            GateKind::TopK { .. } => top_k(row, k),
            GateKind::Random => vec![(token_hash(row, 0x5eed) % e as u64) as usize],
            GateKind::Hash => vec![(token_hash(row, 0) % e as u64) as usize],
            GateKind::ExpertChoice => unreachable!("handled above"),
        }
    };

    // Order in which tokens contend for capacity: token order for
    // first-come gates, importance order for batch-prioritized routing.
    let order: Vec<usize> = match kind {
        GateKind::BatchPrioritized => {
            let mut idx: Vec<usize> = (0..t).collect();
            let importance: Vec<f32> = (0..t)
                .map(|i| {
                    let row = &scores.data()[i * e..(i + 1) * e];
                    row.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
                })
                .collect();
            // Stable sort: ties resolved by token order, keeping the
            // routing deterministic.
            idx.sort_by(|&a, &b| importance[b].partial_cmp(&importance[a]).expect("finite scores"));
            idx
        }
        _ => (0..t).collect(),
    };

    for &token in &order {
        let row = &scores.data()[token * e..(token + 1) * e];
        let chosen = choices(row);
        // GShard normalization: weights over the selected experts sum to 1
        // (before drops).
        let norm: f32 = if kind.normalizes_scales() {
            chosen.iter().map(|&c| row[c]).sum::<f32>().max(1e-12)
        } else {
            1.0
        };
        for (j, &expert) in chosen.iter().enumerate() {
            if state.try_consume(expert, capacity).is_some() {
                assign[token * k + j] = expert as i32;
                scale[token * k + j] = row[expert] / norm;
            }
        }
    }
    Ok(Routing { k, assign, scale })
}

/// Direct micro-batching *without* capacity passing (paper Fig. 5b):
/// each of the `parts` chunks is routed independently with proportionally
/// reduced capacity `⌈C/parts⌉`. Exists to demonstrate the extra token
/// dropping that Lancet's capacity-passing scheme avoids.
///
/// # Errors
///
/// Same conditions as [`route`], plus the gate must be partitionable.
pub fn route_direct_microbatch(
    kind: GateKind,
    logits: &Tensor,
    capacity: usize,
    parts: usize,
) -> Result<Routing> {
    if !kind.partitionable_before_moe() {
        return Err(MoeError::NotPartitionable(kind.name()));
    }
    let t = logits.shape()[0];
    let parts = parts.clamp(1, t.max(1));
    let chunk_cap = capacity.div_ceil(parts);
    let chunks = logits.split_axis(0, parts)?;
    let mut routed = Vec::with_capacity(parts);
    for chunk in &chunks {
        routed.push(route(kind, chunk, chunk_cap, None)?);
    }
    Ok(Routing::concat(&routed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lancet_tensor::TensorRng;

    #[test]
    fn token_hash_is_pinned() {
        // Recorded before FNV-1a moved to `lancet_tensor::det`: hash gates
        // route by this value.
        assert_eq!(token_hash(&[0.5, -1.25, 3.0], 7), 0x9d3e_74a7_1837_33b6);
        assert_eq!(token_hash(&[f32::MIN_POSITIVE], u64::MAX), 0x508d_07b2_a07e_466e);
    }

    fn logits(t: usize, e: usize, seed: u64) -> Tensor {
        TensorRng::seed(seed).uniform(vec![t, e], -2.0, 2.0)
    }

    #[test]
    fn switch_routes_to_argmax_when_capacity_ample() {
        let l = Tensor::from_vec(vec![2, 3], vec![0.1, 5.0, 0.2, 3.0, 0.0, 0.0]).unwrap();
        let r = route(GateKind::Switch, &l, 10, None).unwrap();
        assert_eq!(r.assign, vec![1, 0]);
        assert!(r.scale[0] > 0.9);
        assert_eq!(r.num_dropped(), 0);
        assert_eq!(r.tokens(), 2);
    }

    #[test]
    fn switch_drops_first_come_on_overflow() {
        // All four tokens want expert 0; capacity 2 keeps the first two.
        let l = Tensor::from_vec(vec![4, 2], vec![5.0, 0.0, 5.0, 0.0, 5.0, 0.0, 5.0, 0.0]).unwrap();
        let r = route(GateKind::Switch, &l, 2, None).unwrap();
        assert_eq!(r.assign, vec![0, 0, -1, -1]);
        assert_eq!(r.scale[2], 0.0);
        assert_eq!(r.num_dropped(), 2);
        assert_eq!(r.fully_dropped_tokens(), 2);
    }

    #[test]
    fn topk_selects_best_two_with_normalized_scales() {
        let l = Tensor::from_vec(vec![1, 4], vec![3.0, 1.0, 2.0, -1.0]).unwrap();
        let r = route(GateKind::TopK { k: 2 }, &l, 10, None).unwrap();
        assert_eq!(r.k, 2);
        assert_eq!(r.assign, vec![0, 2]); // experts 0 then 2 (descending score)
        // Normalized over the chosen pair.
        assert!((r.scale[0] + r.scale[1] - 1.0).abs() < 1e-6);
        assert!(r.scale[0] > r.scale[1]);
    }

    #[test]
    fn topk_partial_drop_keeps_other_slot() {
        // Two tokens, both choosing experts (0, 1); expert 0 capacity 1.
        let l = Tensor::from_vec(vec![2, 2], vec![2.0, 1.0, 2.0, 1.0]).unwrap();
        let r = route(GateKind::TopK { k: 2 }, &l, 1, None).unwrap();
        // Token 0 gets both slots; token 1 loses both (capacity 1 each).
        assert_eq!(r.assign, vec![0, 1, -1, -1]);
        assert_eq!(r.fully_dropped_tokens(), 1);
    }

    #[test]
    fn topk_capacity_never_exceeded() {
        let l = logits(64, 4, 3);
        let r = route(GateKind::TopK { k: 2 }, &l, 10, None).unwrap();
        for e in 0..4 {
            assert!(r.slots_for(e) <= 10);
        }
    }

    #[test]
    fn topk_capacity_passing_equals_unpartitioned() {
        for seed in 0..5 {
            let l = logits(24, 4, seed);
            let cap = 9;
            let full = route(GateKind::TopK { k: 2 }, &l, cap, None).unwrap();
            for parts in [2usize, 3] {
                let mut state = CapacityState::new(4);
                let chunks: Vec<Routing> = l
                    .split_axis(0, parts)
                    .unwrap()
                    .iter()
                    .map(|c| route(GateKind::TopK { k: 2 }, c, cap, Some(&mut state)).unwrap())
                    .collect();
                assert_eq!(Routing::concat(&chunks), full, "seed {seed} parts {parts}");
            }
        }
    }

    #[test]
    fn bpr_drops_lowest_importance() {
        // All tokens want expert 0; token 2 has the weakest preference and
        // must be dropped despite arriving earlier than token 3.
        let l = Tensor::from_vec(
            vec![4, 2],
            vec![5.0, 0.0, 4.0, 0.0, 1.0, 0.0, 3.0, 0.0],
        )
        .unwrap();
        let r = route(GateKind::BatchPrioritized, &l, 3, None).unwrap();
        assert_eq!(r.assign, vec![0, 0, -1, 0]);
    }

    #[test]
    fn bpr_rejects_partial_batch() {
        let l = logits(4, 2, 0);
        let mut s = CapacityState::new(2);
        assert!(matches!(
            route(GateKind::BatchPrioritized, &l, 2, Some(&mut s)),
            Err(MoeError::NotPartitionable(_))
        ));
    }

    #[test]
    fn expert_choice_fills_every_expert_exactly() {
        let l = logits(12, 3, 4);
        let r = route(GateKind::ExpertChoice, &l, 4, None).unwrap();
        assert_eq!(r.k, 3);
        for e in 0..3 {
            assert_eq!(r.slots_for(e), 4, "expert {e} must pick exactly C tokens");
        }
        // No token dropping concept: total kept slots = E·C.
        assert_eq!(r.len() - r.num_dropped(), 12);
    }

    #[test]
    fn expert_choice_picks_highest_scoring_tokens() {
        // Token 0 overwhelmingly prefers expert 0; with capacity 1 it must
        // be expert 0's single pick.
        let l = Tensor::from_vec(vec![3, 2], vec![9.0, 0.0, 1.0, 1.0, 0.0, 2.0]).unwrap();
        let r = route(GateKind::ExpertChoice, &l, 1, None).unwrap();
        assert_eq!(r.assign[0], 0); // token 0, slot 0: expert 0 chose token 0
        assert_eq!(r.assign[2 * 2 + 1], 1); // expert 1 chose token 2
    }

    #[test]
    fn expert_choice_rejects_partial_batch() {
        let l = logits(4, 2, 0);
        let mut s = CapacityState::new(2);
        assert!(matches!(
            route(GateKind::ExpertChoice, &l, 2, Some(&mut s)),
            Err(MoeError::NotPartitionable(_))
        ));
    }

    #[test]
    fn capacity_passing_equals_unpartitioned() {
        for seed in 0..5 {
            let l = logits(24, 4, seed);
            let cap = 4; // tight: forces drops
            let full = route(GateKind::Switch, &l, cap, None).unwrap();
            for parts in [2usize, 3, 4] {
                let mut state = CapacityState::new(4);
                let chunks = l.split_axis(0, parts).unwrap();
                let routed: Vec<Routing> = chunks
                    .iter()
                    .map(|c| route(GateKind::Switch, c, cap, Some(&mut state)).unwrap())
                    .collect();
                assert_eq!(Routing::concat(&routed), full, "seed {seed} parts {parts}");
            }
        }
    }

    #[test]
    fn direct_microbatch_can_drop_more() {
        // Tokens concentrated on one expert early in the batch: direct
        // micro-batching halves the first chunk's capacity and drops extra
        // tokens (the paper's Fig. 5b scenario).
        let mut vals = Vec::new();
        for t in 0..8 {
            if t < 6 {
                vals.extend_from_slice(&[5.0, 0.0]);
            } else {
                vals.extend_from_slice(&[0.0, 5.0]);
            }
        }
        let l = Tensor::from_vec(vec![8, 2], vals).unwrap();
        let full = route(GateKind::Switch, &l, 6, None).unwrap();
        assert_eq!(full.num_dropped(), 0);
        let direct = route_direct_microbatch(GateKind::Switch, &l, 6, 2).unwrap();
        assert!(direct.num_dropped() > 0, "direct micro-batching should drop extra tokens");
    }

    #[test]
    fn random_and_hash_are_partition_invariant() {
        for kind in [GateKind::Random, GateKind::Hash] {
            let l = logits(16, 4, 9);
            let full = route(kind, &l, 100, None).unwrap();
            let mut state = CapacityState::new(4);
            let chunks = l.split_axis(0, 4).unwrap();
            let routed: Vec<Routing> = chunks
                .iter()
                .map(|c| route(kind, c, 100, Some(&mut state)).unwrap())
                .collect();
            assert_eq!(Routing::concat(&routed), full, "{kind:?}");
        }
    }

    #[test]
    fn tokens_for_lists_kept_tokens() {
        let l = Tensor::from_vec(vec![3, 2], vec![5.0, 0.0, 0.0, 5.0, 5.0, 0.0]).unwrap();
        let r = route(GateKind::Switch, &l, 10, None).unwrap();
        assert_eq!(r.tokens_for(0), vec![0, 2]);
        assert_eq!(r.tokens_for(1), vec![1]);
    }

    #[test]
    fn bad_logits_rejected() {
        let l = Tensor::zeros(vec![4]);
        assert!(matches!(
            route(GateKind::Switch, &l, 2, None),
            Err(MoeError::BadLogits { .. })
        ));
    }

    #[test]
    fn k_clamped_to_expert_count() {
        let l = logits(4, 2, 1);
        let r = route(GateKind::TopK { k: 5 }, &l, 10, None).unwrap();
        assert_eq!(r.k, 2);
    }
}
