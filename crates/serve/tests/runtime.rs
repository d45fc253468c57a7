//! End-to-end serving-runtime contracts: transparent (bit-identical)
//! micro-batching, plan-cache equivalence with cold optimization,
//! admission control, deadline shedding, and drain-on-shutdown.

use std::sync::Arc;
use std::time::Duration;

use lancet_cost::ClusterSpec;
use lancet_core::{Lancet, LancetOptions};
use lancet_ir::{to_text, GateKind};
use lancet_models::GptMoeConfig;
use lancet_serve::{canonical_weights, Plan, PlanKey, ServeConfig, ServeError, ServeRuntime};

fn tiny() -> GptMoeConfig {
    GptMoeConfig::tiny(1, GateKind::Switch)
}

/// Distinct, deterministic token sequences for request `i`.
fn ids_for(i: usize, cfg: &GptMoeConfig) -> Vec<f32> {
    (0..cfg.seq).map(|s| ((i * 3 + s * 5 + 1) % cfg.vocab) as f32).collect()
}

/// Micro-batched responses carry exactly the bits solo serving produces:
/// batching is a throughput optimization, not a numerics change.
#[test]
fn batched_responses_bit_identical_to_solo() {
    let cfg = tiny();

    // Solo runtime: every request is its own batch of one.
    let solo = ServeRuntime::start(ServeConfig {
        max_batch: 1,
        batch_window: Duration::ZERO,
        ..ServeConfig::default()
    });
    solo.register_model(cfg.clone()).unwrap();
    let solo_responses: Vec<_> =
        (0..4).map(|i| solo.submit_blocking(&cfg.name, ids_for(i, &cfg)).unwrap()).collect();
    solo.shutdown();

    // Batched runtime: a generous window so all four requests coalesce.
    let batched = ServeRuntime::start(ServeConfig {
        max_batch: 4,
        batch_window: Duration::from_millis(250),
        ..ServeConfig::default()
    });
    batched.register_model(cfg.clone()).unwrap();
    let tickets: Vec<_> =
        (0..4).map(|i| batched.submit(&cfg.name, ids_for(i, &cfg)).unwrap()).collect();
    let responses: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();

    let stats = batched.stats();
    assert!(
        stats.batches < stats.completed,
        "requests must actually have shared a batch (batches {}, completed {})",
        stats.batches,
        stats.completed
    );
    batched.shutdown();

    for (i, (batched, solo)) in responses.iter().zip(&solo_responses).enumerate() {
        assert_eq!(batched.shape(), solo.shape());
        assert_eq!(
            batched.data(),
            solo.data(),
            "request {i}: batched response must be bit-identical to solo serving"
        );
    }
}

/// A cache hit returns the same plan a cold optimize would build for the
/// same key — cached serving is an optimization, never a different plan.
#[test]
fn cached_plan_matches_cold_optimize() {
    let cfg = tiny();
    let config = ServeConfig {
        max_batch: 2,
        batch_window: Duration::from_millis(100),
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::start(config.clone());
    runtime.register_model(cfg.clone()).unwrap();
    let tickets: Vec<_> =
        (0..2).map(|i| runtime.submit(&cfg.name, ids_for(i, &cfg)).unwrap()).collect();
    for t in tickets {
        t.wait().unwrap();
    }
    let key = PlanKey {
        model: cfg.name.clone(),
        bucket: 2,
        seq: cfg.seq,
        cluster: config.cluster,
        gpus: cfg.gpus,
    };
    let cached = runtime.plan_cache().get(&key).expect("the bucket-2 plan is resident");

    // Cold rebuild: fresh optimizer, same normalized config and seed.
    let normalized = cfg.clone().with_capacity_factor(cfg.experts() as f64);
    let canonical = canonical_weights(&normalized, config.seed).unwrap();
    let lancet = Lancet::new(ClusterSpec::of(config.cluster, 1), cfg.gpus, LancetOptions::default());
    let cold = Plan::build(&lancet, &normalized, 2, &canonical).unwrap();

    assert_eq!(to_text(cached.graph()), to_text(cold.graph()), "same key ⇒ same optimized plan");
    assert_eq!(cached.predicted_time, cold.predicted_time);
    runtime.shutdown();
}

/// Repeat traffic on one bucket is answered from the plan cache.
#[test]
fn repeat_traffic_hits_plan_cache() {
    let cfg = tiny();
    let runtime = ServeRuntime::start(ServeConfig {
        max_batch: 1,
        batch_window: Duration::ZERO,
        ..ServeConfig::default()
    });
    runtime.register_model(cfg.clone()).unwrap();
    for i in 0..6 {
        runtime.submit_blocking(&cfg.name, ids_for(i, &cfg)).unwrap();
    }
    let stats = runtime.stats();
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.cache.misses, 1, "one bucket ⇒ one plan build");
    assert_eq!(stats.cache.hits, 5);
    assert!(stats.cache_hit_rate() > 0.8);
    assert_eq!(stats.outstanding(), 0);
    runtime.shutdown();
}

/// Admission control: the bounded queue rejects excess load with a typed
/// error instead of queueing without bound.
#[test]
fn overload_is_rejected_at_admission() {
    let cfg = tiny();
    let runtime = ServeRuntime::start(ServeConfig {
        queue_depth: 2,
        max_batch: 8,
        // Long window: requests sit in the admission queue while we fill it.
        batch_window: Duration::from_millis(400),
        ..ServeConfig::default()
    });
    runtime.register_model(cfg.clone()).unwrap();

    let t1 = runtime.submit(&cfg.name, ids_for(0, &cfg)).unwrap();
    let t2 = runtime.submit(&cfg.name, ids_for(1, &cfg)).unwrap();
    let err = runtime.submit(&cfg.name, ids_for(2, &cfg)).unwrap_err();
    assert_eq!(err, ServeError::Overloaded { depth: 2 });
    assert_eq!(runtime.stats().rejected_overload, 1);

    // The admitted requests still complete (shutdown drains the queue).
    runtime.shutdown();
    t1.wait().unwrap();
    t2.wait().unwrap();
    assert_eq!(runtime.stats().completed, 2);
}

/// Requests that out-wait their latency budget are shed with a typed
/// deadline error, not silently dropped or uselessly executed.
#[test]
fn expired_requests_are_shed() {
    let cfg = tiny();
    let runtime = ServeRuntime::start(ServeConfig {
        max_batch: 8,
        batch_window: Duration::from_millis(60),
        latency_budget: Duration::from_millis(1),
        ..ServeConfig::default()
    });
    runtime.register_model(cfg.clone()).unwrap();
    let t1 = runtime.submit(&cfg.name, ids_for(0, &cfg)).unwrap();
    let t2 = runtime.submit(&cfg.name, ids_for(1, &cfg)).unwrap();
    // Neither fills the batch, so both sit past the 1 ms budget and are
    // shed when the 60 ms window closes.
    let e1 = t1.wait().unwrap_err();
    let e2 = t2.wait().unwrap_err();
    for e in [e1, e2] {
        match e {
            ServeError::DeadlineExceeded { waited_ms } => assert!(waited_ms >= 1.0),
            other => panic!("expected deadline shed, got {other:?}"),
        }
    }
    let stats = runtime.stats();
    assert_eq!(stats.shed_deadline, 2);
    assert_eq!(stats.outstanding(), 0);
    runtime.shutdown();
}

/// Malformed requests are rejected synchronously with typed errors.
#[test]
fn malformed_requests_rejected() {
    let cfg = tiny();
    let runtime = ServeRuntime::start(ServeConfig::default());
    runtime.register_model(cfg.clone()).unwrap();

    assert!(matches!(
        runtime.submit("nope", ids_for(0, &cfg)),
        Err(ServeError::UnknownModel(m)) if m == "nope"
    ));
    assert!(matches!(
        runtime.submit(&cfg.name, vec![0.0; cfg.seq + 1]),
        Err(ServeError::BadRequest(_))
    ));
    let mut oob = ids_for(0, &cfg);
    oob[0] = cfg.vocab as f32; // one past the vocabulary
    assert!(matches!(runtime.submit(&cfg.name, oob), Err(ServeError::BadRequest(_))));
    assert!(matches!(
        runtime.register_model(cfg.clone()),
        Err(ServeError::BadRequest(_))
    ));

    runtime.shutdown();
    assert!(matches!(runtime.submit(&cfg.name, ids_for(0, &cfg)), Err(ServeError::ShuttingDown)));
}

/// Shutdown drains: everything admitted before the call still gets its
/// response, and the stats ledger balances to zero outstanding.
#[test]
fn shutdown_drains_admitted_requests() {
    let cfg = tiny();
    let runtime = ServeRuntime::start(ServeConfig {
        max_batch: 4,
        batch_window: Duration::from_millis(300),
        ..ServeConfig::default()
    });
    runtime.register_model(cfg.clone()).unwrap();
    let tickets: Vec<_> =
        (0..3).map(|i| runtime.submit(&cfg.name, ids_for(i, &cfg)).unwrap()).collect();
    runtime.shutdown(); // long window: requests are still queued here
    for t in tickets {
        t.wait().unwrap();
    }
    let stats = runtime.stats();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.outstanding(), 0);
    assert!(stats.p50_ms > 0.0 && stats.throughput_rps > 0.0);
}

/// Two registered models serve concurrently without sharing plans.
#[test]
fn multiple_models_share_the_runtime() {
    let a = tiny();
    let mut b = tiny();
    b.name = "Tiny-MoE-B".into();
    b.layers = 1;

    let runtime = ServeRuntime::start(ServeConfig {
        max_batch: 2,
        batch_window: Duration::from_millis(5),
        ..ServeConfig::default()
    });
    runtime.register_model(a.clone()).unwrap();
    runtime.register_model(b.clone()).unwrap();

    let ta: Vec<_> = (0..2).map(|i| runtime.submit(&a.name, ids_for(i, &a)).unwrap()).collect();
    let tb: Vec<_> = (0..2).map(|i| runtime.submit(&b.name, ids_for(i, &b)).unwrap()).collect();
    let ra: Vec<_> = ta.into_iter().map(|t| t.wait().unwrap()).collect();
    let rb: Vec<_> = tb.into_iter().map(|t| t.wait().unwrap()).collect();
    assert_eq!(ra[0].shape(), &[a.seq, a.vocab]);
    assert_eq!(rb[0].shape(), &[b.seq, b.vocab]);
    // A one-layer and a two-layer model cannot produce identical logits.
    assert_ne!(ra[0].data(), rb[0].data());
    let keys = runtime.plan_cache().keys();
    assert!(keys.iter().any(|k| k.model == a.name) && keys.iter().any(|k| k.model == b.name));
    runtime.shutdown();
}

/// The runtime is usable through an `Arc` from many owners, and dropping
/// the last handle shuts it down cleanly (no thread leak, no hang).
#[test]
fn drop_shuts_down() {
    let cfg = tiny();
    let runtime = ServeRuntime::start(ServeConfig::default());
    runtime.register_model(cfg.clone()).unwrap();
    let clone = Arc::clone(&runtime);
    clone.submit_blocking(&cfg.name, ids_for(0, &cfg)).unwrap();
    drop(clone);
    drop(runtime); // Drop must join the batcher and workers without hanging.
}

/// Affinity dispatch: with one exec worker every batch's preferred
/// worker IS that worker, so each completed request is a placement hit —
/// the deterministic floor the placement bench asserts. Responses
/// stay bit-identical to a no-affinity run (affinity only picks *which*
/// worker executes, never *what* it computes).
#[test]
fn affinity_single_worker_hits_every_request() {
    let cfg = tiny();
    let plain = ServeRuntime::start(ServeConfig {
        exec_workers: 1,
        ..ServeConfig::default()
    });
    plain.register_model(cfg.clone()).unwrap();
    let baseline: Vec<_> =
        (0..4).map(|i| plain.submit_blocking(&cfg.name, ids_for(i, &cfg)).unwrap()).collect();
    assert_eq!(plain.stats().placement_hits, 0, "affinity off ⇒ no counting");
    plain.shutdown();

    let runtime = ServeRuntime::start(ServeConfig {
        exec_workers: 1,
        affinity: true,
        ..ServeConfig::default()
    });
    runtime.register_model(cfg.clone()).unwrap();
    let responses: Vec<_> =
        (0..4).map(|i| runtime.submit_blocking(&cfg.name, ids_for(i, &cfg)).unwrap()).collect();
    let stats = runtime.stats();
    runtime.shutdown();
    assert_eq!(stats.placement_hits, 4, "single worker: every request lands preferred");
    assert_eq!(stats.placement_misses, 0);
    for (a, b) in responses.iter().zip(&baseline) {
        assert_eq!(a.data(), b.data(), "affinity must not change response bits");
    }
}

/// With several workers, every affinity-tagged request is accounted as
/// exactly one hit or one miss (work stealing keeps the pool busy but
/// never loses a request), and all responses arrive.
#[test]
fn affinity_multi_worker_accounts_every_request() {
    let cfg = tiny();
    let runtime = ServeRuntime::start(ServeConfig {
        exec_workers: 2,
        affinity: true,
        max_batch: 1,
        batch_window: Duration::ZERO,
        ..ServeConfig::default()
    });
    runtime.register_model(cfg.clone()).unwrap();
    let tickets: Vec<_> =
        (0..16).map(|i| runtime.submit(&cfg.name, ids_for(i, &cfg)).unwrap()).collect();
    for t in tickets {
        t.wait().unwrap();
    }
    let stats = runtime.stats();
    runtime.shutdown();
    assert_eq!(stats.completed, 16);
    assert_eq!(
        stats.placement_hits + stats.placement_misses,
        16,
        "every affinity batch is a hit or a miss (hits {}, misses {})",
        stats.placement_hits,
        stats.placement_misses
    );
}
