//! Runtime conformance: batched, bucketed, windowed — same bits.
//!
//! The batched-equals-solo contract: whatever the admission policy,
//! prefill path, or batch composition, every stream's tokens equal the
//! sequence's solo [`DecodeSession`] run.

use std::sync::Arc;
use std::time::Duration;

use lancet_decode::{
    BatchMode, DecodeConfig, DecodeModel, DecodeRuntime, DecodeSession, ServeError,
};
use lancet_ir::GateKind;
use lancet_models::GptMoeConfig;
use lancet_serve::{canonical_weights, FaultSpec};

const SEED: u64 = 0xdec0; // DecodeConfig::default().seed

fn tiny() -> GptMoeConfig {
    GptMoeConfig::tiny(1, GateKind::Switch)
}

/// The prompts the batched runs must reproduce token-for-token; varied
/// lengths and `max_new` so sequences join and leave the batch at
/// different steps.
fn workload() -> Vec<(Vec<u32>, usize)> {
    vec![
        (vec![3, 1, 4], 6),
        (vec![1, 5], 3),
        (vec![9, 2, 6, 5], 8),
        (vec![5], 5),
        (vec![8, 9, 7, 9, 3], 2),
        (vec![2, 3], 7),
    ]
}

fn solo_tokens(model: &Arc<DecodeModel>, prompt: &[u32], max_new: usize) -> Vec<u32> {
    let mut session = DecodeSession::new(model.clone(), prompt.len() + max_new);
    let mut out = vec![session.prefill(prompt).unwrap()];
    while out.len() < max_new {
        let last = *out.last().unwrap();
        out.push(session.step(last).unwrap());
    }
    out
}

fn reference_model(cfg: &GptMoeConfig) -> Arc<DecodeModel> {
    let normalized = cfg.clone().with_capacity_factor(cfg.experts() as f64);
    let canonical = canonical_weights(&normalized, SEED).unwrap();
    Arc::new(DecodeModel::new(&normalized, &canonical).unwrap())
}

fn run_workload(config: DecodeConfig) -> Vec<Vec<u32>> {
    let cfg = tiny();
    let runtime = DecodeRuntime::start(config);
    runtime.register_model(cfg.clone()).unwrap();
    let tickets: Vec<_> = workload()
        .into_iter()
        .map(|(prompt, max_new)| runtime.submit(&cfg.name, &prompt, max_new).unwrap())
        .collect();
    let streams: Vec<Vec<u32>> = tickets.into_iter().map(|t| t.collect().unwrap()).collect();
    runtime.shutdown();
    streams
}

#[test]
fn continuous_batching_reproduces_solo_tokens() {
    let model = reference_model(&tiny());
    let streams = run_workload(DecodeConfig {
        mode: BatchMode::Continuous,
        max_inflight: 3, // force joins mid-flight: 6 requests, 3 slots
        ..DecodeConfig::default()
    });
    for ((prompt, max_new), got) in workload().iter().zip(&streams) {
        assert_eq!(got, &solo_tokens(&model, prompt, *max_new), "prompt {prompt:?}");
    }
}

#[test]
fn windowed_batching_reproduces_the_same_tokens() {
    let streams = run_workload(DecodeConfig {
        mode: BatchMode::Windowed,
        max_inflight: 3,
        ..DecodeConfig::default()
    });
    let continuous = run_workload(DecodeConfig {
        mode: BatchMode::Continuous,
        max_inflight: 3,
        ..DecodeConfig::default()
    });
    assert_eq!(streams, continuous, "admission policy must never change output bits");
}

#[test]
fn bucketed_prefill_equals_eager_prefill() {
    let bucketed = run_workload(DecodeConfig::default());
    // Every prefill plan build fails, so every request degrades to the
    // eager exact-length prefill.
    let cfg = tiny();
    let runtime = DecodeRuntime::start(DecodeConfig {
        fault: Some(FaultSpec { plan_fail: 1.0, ..FaultSpec::quiet(5) }),
        ..DecodeConfig::default()
    });
    runtime.register_model(cfg.clone()).unwrap();
    let eager: Vec<Vec<u32>> = workload()
        .into_iter()
        .map(|(prompt, max_new)| runtime.submit(&cfg.name, &prompt, max_new).unwrap())
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.collect().unwrap())
        .collect();
    runtime.shutdown();
    assert_eq!(
        bucketed, eager,
        "padded power-of-two prefill must be bit-identical to exact-length prefill"
    );
    let stats = runtime.stats();
    assert_eq!(stats.degraded, workload().len() as u64, "every prefill took the eager path");
    assert_eq!(stats.cache.len, 0, "no prefill plan was built");
}

#[test]
fn bucketed_prefill_hits_the_plan_cache() {
    let cfg = tiny();
    let runtime = DecodeRuntime::start(DecodeConfig::default());
    runtime.register_model(cfg.clone()).unwrap();
    // Same power-of-two bucket (4): lengths 3 and 4 share one plan.
    runtime.submit(&cfg.name, &[1, 2, 3], 2).unwrap().collect().unwrap();
    runtime.submit(&cfg.name, &[4, 5, 6, 7], 2).unwrap().collect().unwrap();
    runtime.submit(&cfg.name, &[8, 9], 2).unwrap().collect().unwrap(); // bucket 2
    let stats = runtime.stats();
    assert_eq!(stats.cache.misses, 2, "two distinct seq buckets");
    assert!(stats.cache.hits >= 1, "the shared bucket must hit");
    runtime.shutdown();
}

#[test]
fn stats_cover_streaming_latencies() {
    let cfg = tiny();
    let runtime = DecodeRuntime::start(DecodeConfig::default());
    runtime.register_model(cfg.clone()).unwrap();
    for _ in 0..3 {
        runtime.submit(&cfg.name, &[1, 2], 5).unwrap().collect().unwrap();
    }
    let stats = runtime.stats();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.outstanding(), 0);
    assert!(stats.ttft_p50_ms > 0.0, "TTFT percentiles populated");
    assert!(stats.itl_p50_ms > 0.0, "ITL percentiles populated");
    assert!(stats.batches >= 12, "4 post-prefill steps per request");
    runtime.shutdown();
}

#[test]
fn submission_rejections_are_typed() {
    let cfg = tiny();
    let runtime = DecodeRuntime::start(DecodeConfig {
        kv_capacity_tokens: 16,
        ..DecodeConfig::default()
    });
    runtime.register_model(cfg.clone()).unwrap();

    assert!(matches!(
        runtime.submit("nope", &[1], 1),
        Err(ServeError::UnknownModel(_))
    ));
    assert!(matches!(
        runtime.submit(&cfg.name, &[], 1),
        Err(ServeError::BadRequest(_))
    ));
    assert!(matches!(
        runtime.submit(&cfg.name, &[1], 0),
        Err(ServeError::BadRequest(_))
    ));
    assert!(
        matches!(runtime.submit(&cfg.name, &[1, 2], 40), Err(ServeError::BadRequest(_))),
        "a request that can never fit the KV arena is refused at the door"
    );
    assert!(
        matches!(runtime.submit(&cfg.name, &[1, 2], usize::MAX), Err(ServeError::BadRequest(_))),
        "a reservation that overflows is refused, not wrapped"
    );
    assert!(matches!(
        runtime.submit(&cfg.name, &[99], 1),
        Err(ServeError::BadRequest(_))
    ));
    runtime.shutdown();
    assert!(matches!(runtime.submit(&cfg.name, &[1], 1), Err(ServeError::ShuttingDown)));
}

#[test]
fn overload_rejections_leave_nothing_outstanding() {
    // Every decode step sleeps, so the head sequence holds the only
    // in-flight slot while a second request fills the one-deep queue:
    // the third submission must be refused as overload, and a refused
    // request was never accepted, so it must not count as outstanding.
    let cfg = tiny();
    let runtime = DecodeRuntime::start(DecodeConfig {
        queue_depth: 1,
        max_inflight: 1,
        fault: Some(FaultSpec {
            slow_worker: 1.0,
            slow_delay: Duration::from_millis(300),
            ..FaultSpec::quiet(7)
        }),
        ..DecodeConfig::default()
    });
    runtime.register_model(cfg.clone()).unwrap();
    let head = runtime.submit(&cfg.name, &[3, 1], 3).unwrap();
    assert!(head.next().unwrap().is_ok(), "head prefilled and running");
    let queued = runtime.submit(&cfg.name, &[1, 5], 1).unwrap();
    assert!(matches!(
        runtime.submit(&cfg.name, &[2], 1),
        Err(ServeError::Overloaded { depth: 1 })
    ));
    assert_eq!(head.collect().unwrap().len(), 2, "the rest of the head stream");
    assert_eq!(queued.collect().unwrap().len(), 1);
    runtime.shutdown();
    let stats = runtime.stats();
    assert_eq!(stats.rejected_overload, 1);
    assert_eq!(stats.outstanding(), 0, "a rejected request was never accepted");
    assert_eq!(stats.submitted, 2);
}

#[test]
fn duplicate_registration_is_rejected() {
    let cfg = tiny();
    let runtime = DecodeRuntime::start(DecodeConfig::default());
    runtime.register_model(cfg.clone()).unwrap();
    assert!(matches!(runtime.register_model(cfg.clone()), Err(ServeError::BadRequest(_))));
    let model = reference_model(&cfg);
    let got = runtime.submit(&cfg.name, &[3, 1, 4], 4).unwrap().collect().unwrap();
    assert_eq!(got, solo_tokens(&model, &[3, 1, 4], 4), "the first registration still serves");
    runtime.shutdown();
}

#[test]
fn kv_backpressure_queues_rather_than_fails() {
    let cfg = tiny();
    // Arena fits ~2 concurrent requests; 6 submitted. Excess requests
    // wait for slots and still finish with the right tokens.
    let model = reference_model(&cfg);
    let runtime = DecodeRuntime::start(DecodeConfig {
        kv_capacity_tokens: 20,
        max_inflight: 8,
        ..DecodeConfig::default()
    });
    runtime.register_model(cfg.clone()).unwrap();
    let tickets: Vec<_> = workload()
        .into_iter()
        .map(|(p, m)| runtime.submit(&cfg.name, &p, m).unwrap())
        .collect();
    for ((prompt, max_new), ticket) in workload().iter().zip(tickets) {
        assert_eq!(ticket.collect().unwrap(), solo_tokens(&model, prompt, *max_new));
    }
    runtime.shutdown();
}

#[test]
fn unsupported_models_are_rejected_at_registration() {
    let runtime = DecodeRuntime::start(DecodeConfig::default());
    assert!(
        matches!(
            runtime.register_model(GptMoeConfig::tiny(2, GateKind::Switch)),
            Err(ServeError::BadRequest(_))
        ),
        "multi-gpu"
    );
    assert!(
        matches!(
            runtime.register_model(tiny().with_fsdp(true)),
            Err(ServeError::BadRequest(_))
        ),
        "fsdp"
    );
    assert!(
        matches!(
            runtime.register_model(GptMoeConfig::tiny(1, GateKind::ExpertChoice)),
            Err(ServeError::BadRequest(_))
        ),
        "expert-choice gating is batch-dependent"
    );
    runtime.shutdown();
}

#[test]
fn step_deadline_trades_itl_for_joins() {
    // Smoke the deadline path: a positive step deadline must not change
    // tokens, only timing.
    let model = reference_model(&tiny());
    let streams = run_workload(DecodeConfig {
        step_deadline: Duration::from_millis(1),
        max_inflight: 4,
        ..DecodeConfig::default()
    });
    for ((prompt, max_new), got) in workload().iter().zip(&streams) {
        assert_eq!(got, &solo_tokens(&model, prompt, *max_new));
    }
}

/// The decode twin of serve's crash race: `submit` once checked the
/// shutdown flag outside the queue lock, and `shutdown` stored it outside
/// too. A request pushed after the scheduler's last drain was never
/// served, and its stream never ended. Four submitters spin against a
/// shutdown that lands 2–6 ms in; every accepted stream must finish. A
/// one-deep queue keeps the final drain short, so the race stays wide:
/// the old code lost a stream in 7–24 of 100 rounds.
#[test]
fn submit_racing_shutdown_loses_no_stream() {
    let cfg = tiny();
    for round in 0..100 {
        let runtime = DecodeRuntime::start(DecodeConfig { queue_depth: 1, ..DecodeConfig::default() });
        runtime.register_model(cfg.clone()).unwrap();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let (runtime, cfg) = (&runtime, &cfg);
                s.spawn(move || {
                    while let Ok(_) | Err(ServeError::Overloaded { .. }) =
                        runtime.submit(&cfg.name, &[t + 1, 2], 1)
                    {}
                });
            }
            std::thread::sleep(Duration::from_millis(2 + round % 5));
            runtime.shutdown();
        });
        assert_eq!(runtime.stats().outstanding(), 0, "round {round}: an accepted stream was lost");
    }
}
