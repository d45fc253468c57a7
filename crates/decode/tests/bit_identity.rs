//! The decode engine's load-bearing invariant: a KV-cached decode step
//! produces **bit-identical** logits to re-running the whole sequence
//! through the graph executor.
//!
//! The reference path is maximally independent of the path under test:
//! `Plan::build_prefill` + `Plan::execute` runs the *optimized graph*
//! through the multi-device `Executor` (full square attention, no
//! cache), while `DecodeSession` runs the eager `eval_op` chain one
//! token at a time against the arena. Equality is asserted on raw f32
//! bits, not a tolerance.

use std::sync::Arc;

use lancet_core::{Lancet, LancetOptions};
use lancet_cost::{ClusterKind, ClusterSpec};
use lancet_decode::{DecodeModel, DecodeSession};
use lancet_ir::GateKind;
use lancet_models::GptMoeConfig;
use lancet_serve::{canonical_weights, CanonicalWeights, Plan};
use lancet_tensor::det::Lcg;
use lancet_tensor::Tensor;
use proptest::prelude::*;

/// Model zoo: every architectural axis the decode engine claims to
/// support (layer norm vs RMS, GELU MLP vs SwiGLU, switch vs top-k vs
/// batch-prioritized routing, shared expert, every layer MoE).
fn variant(which: usize) -> GptMoeConfig {
    match which % 4 {
        0 => GptMoeConfig::tiny(1, GateKind::Switch),
        1 => GptMoeConfig::tiny(1, GateKind::TopK { k: 2 }).with_shared_expert(true),
        2 => GptMoeConfig::tiny(1, GateKind::BatchPrioritized),
        _ => GptMoeConfig::mixtral_tiny(1),
    }
}

fn serving_normalized(cfg: GptMoeConfig) -> GptMoeConfig {
    let experts = cfg.experts() as f64;
    cfg.with_capacity_factor(experts)
}

/// Last-position logits of a full-sequence pass over `tokens`, via the
/// optimized-graph executor.
fn reference_last_row(
    lancet: &Lancet,
    cfg: &GptMoeConfig,
    canonical: &CanonicalWeights,
    tokens: &[u32],
) -> Vec<u32> {
    let plan = Plan::build_prefill(lancet, cfg, 1, tokens.len(), canonical)
        .expect("reference plan builds");
    let ids = Tensor::from_vec(
        vec![1, tokens.len()],
        tokens.iter().map(|&t| t as f32).collect::<Vec<_>>(),
    )
    .unwrap();
    let logits = plan.execute(&ids).expect("reference plan executes");
    let vocab = *logits.shape().last().unwrap();
    logits.data()[(tokens.len() - 1) * vocab..tokens.len() * vocab]
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

fn assert_decode_matches(cfg: GptMoeConfig, prompt: &[u32], steps: usize) {
    let cfg = serving_normalized(cfg);
    let canonical = canonical_weights(&cfg, 11).unwrap();
    let model = Arc::new(DecodeModel::new(&cfg, &canonical).unwrap());
    let lancet = Lancet::new(
        ClusterSpec::of(ClusterKind::A100, 1),
        1,
        LancetOptions::decode_serving(),
    );

    let mut session = DecodeSession::new(model, prompt.len() + steps + 1);
    let mut tokens = prompt.to_vec();
    let mut next = session.prefill(prompt).unwrap();
    for step in 0..=steps {
        let got: Vec<u32> = session.last_logits().iter().map(|x| x.to_bits()).collect();
        let want = reference_last_row(&lancet, &cfg, &canonical, &tokens);
        assert_eq!(
            got, want,
            "`{}`: cached logits diverge from the full-sequence forward at step {step} \
             (seq len {})",
            cfg.name,
            tokens.len()
        );
        if step == steps {
            break;
        }
        tokens.push(next);
        next = session.step(next).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::env_cases(6))]

    /// For random prompts, models, and generation lengths, every decode
    /// step's logits equal the full-sequence forward's last row, bit for
    /// bit.
    #[test]
    fn cached_decode_is_bit_identical_to_full_forward(
        which in 0usize..4,
        seed in any::<u64>(),
        plen in 1usize..6,
        steps in 1usize..5,
    ) {
        let cfg = variant(which);
        let vocab = cfg.vocab as u64;
        // An LCG stepped from the proptest seed keeps prompts varied but
        // replayable from the failure seed alone.
        let mut lcg = Lcg::from_state(seed);
        let prompt: Vec<u32> = (0..plen).map(|_| ((lcg.next_u64() >> 33) % vocab) as u32).collect();
        assert_decode_matches(cfg, &prompt, steps);
    }
}

/// Deterministic anchors for each variant (fast signal on regressions,
/// independent of the proptest sampler).
#[test]
fn every_variant_decodes_bit_identically() {
    for which in 0..4 {
        assert_decode_matches(variant(which), &[3, 1, 4, 1], 3);
    }
}
