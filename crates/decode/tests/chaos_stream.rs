//! Chaos conformance for *streaming*: under the full fault mix
//! (slow workers, transient exec failures, plan-build failures, and
//! partial-commit worker panics injected mid-decode), every admitted
//! ticket observes
//!
//! * a **gapless, duplicate-free** token sequence `0, 1, 2, …` — the
//!   exactly-once-per-token contract;
//! * tokens that are a **bit-exact prefix of the fault-free solo run**
//!   (retries recompute from the rolled-back KV cache, so recovery can
//!   never alter content);
//! * exactly one terminal event — completion with all `max_new` tokens,
//!   or one typed error after a conformant prefix.
//!
//! A second harness pins the whole outcome sequence: with a fixed
//! `LANCET_CHAOS_SEED` and serialized admission, two fresh runtimes
//! replay the identical faults and deliver identical outcomes.

use std::sync::Arc;

use lancet_decode::{BatchMode, DecodeConfig, DecodeModel, DecodeRuntime, DecodeSession};
use lancet_ir::GateKind;
use lancet_models::GptMoeConfig;
use lancet_serve::{canonical_weights, FaultSpec};

fn chaos_seed() -> u64 {
    std::env::var("LANCET_CHAOS_SEED")
        .ok()
        .and_then(|v| {
            let v = v.trim();
            v.strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16).ok())
                .unwrap_or_else(|| v.parse().ok())
        })
        .unwrap_or(0xC4A05)
}

fn tiny() -> GptMoeConfig {
    GptMoeConfig::tiny(1, GateKind::Switch)
}

fn workload() -> Vec<(Vec<u32>, usize)> {
    (0..12)
        .map(|i| {
            let plen = 1 + (i * 7 + 3) % 5;
            let prompt = (0..plen).map(|j| ((i * 13 + j * 5 + 1) % 11) as u32).collect();
            (prompt, 2 + (i * 11 + 5) % 7)
        })
        .collect()
}

fn solo_reference(prompt: &[u32], max_new: usize) -> Vec<u32> {
    let cfg = tiny();
    let experts = cfg.experts() as f64;
    let normalized = cfg.with_capacity_factor(experts);
    let canonical = canonical_weights(&normalized, 0xdec0).unwrap();
    let model = Arc::new(DecodeModel::new(&normalized, &canonical).unwrap());
    let mut session = DecodeSession::new(model, prompt.len() + max_new);
    let mut out = vec![session.prefill(prompt).unwrap()];
    while out.len() < max_new {
        let last = *out.last().unwrap();
        out.push(session.step(last).unwrap());
    }
    out
}

/// Consume a ticket event-by-event, asserting the streaming contract.
/// Returns `(tokens, finished_ok)`.
fn consume_conformant(ticket: lancet_decode::StreamTicket) -> (Vec<u32>, bool) {
    let mut tokens = Vec::new();
    let mut errors = 0usize;
    while let Some(ev) = ticket.next() {
        match ev {
            Ok(tok) => {
                assert_eq!(
                    tok.index,
                    tokens.len(),
                    "stream must be gapless and duplicate-free"
                );
                assert_eq!(errors, 0, "no tokens after a terminal error");
                tokens.push(tok.token);
            }
            Err(_) => errors += 1,
        }
    }
    assert!(errors <= 1, "at most one terminal error");
    (tokens, errors == 0)
}

#[test]
fn chaos_mid_stream_loses_and_duplicates_nothing() {
    let cfg = tiny();
    let runtime = DecodeRuntime::start(DecodeConfig {
        mode: BatchMode::Continuous,
        max_inflight: 4,
        fault: Some(FaultSpec::chaos(chaos_seed())),
        ..DecodeConfig::default()
    });
    runtime.register_model(cfg.clone()).unwrap();

    let tickets: Vec<_> = workload()
        .into_iter()
        .map(|(prompt, max_new)| {
            let t = runtime.submit(&cfg.name, &prompt, max_new).unwrap();
            (prompt, max_new, t)
        })
        .collect();

    let mut completed = 0usize;
    for (prompt, max_new, ticket) in tickets {
        let (tokens, finished) = consume_conformant(ticket);
        let reference = solo_reference(&prompt, max_new);
        assert_eq!(
            tokens,
            reference[..tokens.len()],
            "delivered tokens must be a bit-exact prefix of the fault-free run ({prompt:?})"
        );
        if finished {
            assert_eq!(tokens.len(), max_new, "a completed stream delivers every token");
            completed += 1;
        }
        // A failed stream's prefix length is otherwise unconstrained —
        // conformance is about the tokens that *did* flow.
    }
    let stats = runtime.stats();
    assert!(stats.injected_faults > 0, "the chaos mix must actually fire");
    assert_eq!(stats.outstanding(), 0, "every admitted stream terminated");
    assert!(completed > 0, "the runtime survives chaos, not just fails fast");
    runtime.shutdown();
}

/// With serialized admission (one sequence in flight, consumed to
/// completion before the next submit) the scheduler's fault draws are a
/// pure function of the seed — so the entire outcome sequence replays
/// bit-identically.
fn serialized_outcomes(seed: u64) -> Vec<(Vec<u32>, bool)> {
    let cfg = tiny();
    let runtime = DecodeRuntime::start(DecodeConfig {
        max_inflight: 1,
        fault: Some(FaultSpec::chaos(seed)),
        ..DecodeConfig::default()
    });
    runtime.register_model(cfg.clone()).unwrap();
    let outcomes = workload()
        .into_iter()
        .map(|(prompt, max_new)| {
            let ticket = runtime.submit(&cfg.name, &prompt, max_new).unwrap();
            consume_conformant(ticket)
        })
        .collect();
    runtime.shutdown();
    outcomes
}

#[test]
fn fixed_seed_replays_bit_identically() {
    let seed = chaos_seed();
    let first = serialized_outcomes(seed);
    let second = serialized_outcomes(seed);
    assert_eq!(first, second, "same LANCET_CHAOS_SEED must replay the same outcomes");
    if std::env::var_os("LANCET_CHAOS_SEED").is_none() {
        // Pinned literally for the default seed, so a changed fault-draw
        // order fails even when two runs of the same build agree.
        let shape: Vec<(usize, bool)> = first.iter().map(|(t, ok)| (t.len(), *ok)).collect();
        let (t, f) = (true, false);
        let pinned =
            [(7, t), (4, t), (8, t), (5, t), (0, f), (6, t), (3, t), (7, t), (4, t), (8, t), (5, t), (2, t)];
        assert_eq!(shape, pinned, "(tokens delivered, finished) per request");
    }
    assert!(
        first.iter().any(|(_, ok)| !ok) || first.iter().all(|(_, ok)| *ok),
        "outcome vector is well-formed"
    );
}
