//! Chaos conformance for the serving runtime: under deterministic fault
//! injection, every admitted request still gets exactly one reply (a
//! response or a typed error), seeded replays reproduce identical fault
//! counters, and the optimized (partitioned) plans stay bit-identical to
//! unpartitioned references even on a fault-degraded backend.

use std::time::Duration;

use lancet_ir::GateKind;
use lancet_models::GptMoeConfig;
use lancet_serve::{FaultSpec, ServeConfig, ServeError, ServeRuntime, ServeStats};

fn tiny() -> GptMoeConfig {
    GptMoeConfig::tiny(1, GateKind::Switch)
}

/// Distinct, deterministic token sequences for request `i`.
fn ids_for(i: usize, cfg: &GptMoeConfig) -> Vec<f32> {
    (0..cfg.seq).map(|s| ((i * 3 + s * 5 + 1) % cfg.vocab) as f32).collect()
}

/// The counters a seeded replay must reproduce exactly. Latency
/// percentiles and throughput are wall-clock and excluded by design.
fn fault_ledger(stats: &ServeStats) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        stats.submitted,
        stats.completed,
        stats.failed,
        stats.timed_out,
        stats.injected_faults,
        stats.retried,
        stats.degraded,
        stats.worker_panics,
    )
}

/// Drives `n` sequential requests through a single-worker, batch-of-one
/// runtime — the deterministic configuration: every fault draw happens in
/// one fixed global order, so counters are replayable.
fn deterministic_drive(seed: u64, n: usize) -> (ServeStats, Vec<Result<Vec<f32>, ServeError>>) {
    let cfg = tiny();
    let runtime = ServeRuntime::start(ServeConfig {
        max_batch: 1,
        batch_window: Duration::ZERO,
        exec_workers: 1,
        fault: Some(FaultSpec::chaos(seed)),
        ..ServeConfig::default()
    });
    runtime.register_model(cfg.clone()).unwrap();
    let replies: Vec<_> = (0..n)
        .map(|i| runtime.submit_blocking(&cfg.name, ids_for(i, &cfg)).map(|t| t.data().to_vec()))
        .collect();
    runtime.shutdown();
    (runtime.stats(), replies)
}

/// Exactly-once under chaos: every admitted request gets one reply — a
/// response or a *typed* error — and the ledger drains to zero
/// outstanding. No fault schedule may lose a ticket.
#[test]
fn no_admitted_request_is_lost_under_chaos() {
    let cfg = tiny();
    for seed in [0xC4A05u64, 3, 77] {
        let runtime = ServeRuntime::start(ServeConfig {
            max_batch: 4,
            batch_window: Duration::from_millis(1),
            fault: Some(FaultSpec::chaos(seed)),
            ..ServeConfig::default()
        });
        runtime.register_model(cfg.clone()).unwrap();
        let tickets: Vec<_> =
            (0..24).map(|i| runtime.submit(&cfg.name, ids_for(i, &cfg)).unwrap()).collect();
        let mut ok = 0u64;
        let mut typed_errors = 0u64;
        for t in tickets {
            match t.wait() {
                Ok(response) => {
                    assert_eq!(response.shape(), &[cfg.seq, cfg.vocab]);
                    ok += 1;
                }
                Err(
                    ServeError::Exec(_)
                    | ServeError::Plan(_)
                    | ServeError::WorkerPanic(_)
                    | ServeError::TimedOut { .. },
                ) => typed_errors += 1,
                Err(other) => panic!("seed {seed}: untyped chaos outcome {other:?}"),
            }
        }
        runtime.shutdown();
        let stats = runtime.stats();
        assert_eq!(ok + typed_errors, 24, "seed {seed}: every ticket answered exactly once");
        assert_eq!(stats.outstanding(), 0, "seed {seed}: ledger must drain");
        assert_eq!(stats.completed, ok);
    }
}

/// Seeded replay: the same chaos seed over the same request sequence
/// reproduces the fault/recovery counters *and* every reply bit, run
/// after run.
#[test]
fn seeded_chaos_replay_reproduces_stats() {
    let seed = 0xC4A05;
    let (stats_a, replies_a) = deterministic_drive(seed, 16);
    let (stats_b, replies_b) = deterministic_drive(seed, 16);
    assert_eq!(fault_ledger(&stats_a), fault_ledger(&stats_b), "replay must reproduce counters");
    assert_eq!(replies_a, replies_b, "replay must reproduce every reply bit");
    assert!(stats_a.injected_faults > 0, "the chaos spec must actually inject");
    // Pinned literally, so a changed fault-draw order fails even when two
    // runs of the same build agree.
    assert_eq!(fault_ledger(&stats_a), (16, 15, 1, 0, 9, 4, 0, 1));
    for (i, reply) in replies_a.iter().enumerate() {
        match (i, reply) {
            (11, Err(ServeError::WorkerPanic(_))) => {}
            (11, other) => panic!("reply 11 must be the injected panic, got {other:?}"),
            (_, reply) => assert!(reply.is_ok(), "reply {i}: {reply:?}"),
        }
    }
    // A different seed is a different experiment.
    let (stats_c, _) = deterministic_drive(seed ^ 1, 16);
    assert_ne!(
        fault_ledger(&stats_a),
        fault_ledger(&stats_c),
        "different seeds should draw different fault schedules"
    );
}

/// Bounded retry masks transient execution failures: with headroom in
/// `max_retries`, injected exec faults cost retries, not failed requests.
#[test]
fn retry_masks_transient_exec_failures() {
    let cfg = tiny();
    let runtime = ServeRuntime::start(ServeConfig {
        max_batch: 1,
        batch_window: Duration::ZERO,
        exec_workers: 1,
        max_retries: 8,
        retry_backoff: Duration::from_micros(100),
        fault: Some(FaultSpec { exec_fail: 0.4, ..FaultSpec::quiet(0xC4A05) }),
        ..ServeConfig::default()
    });
    runtime.register_model(cfg.clone()).unwrap();
    for i in 0..8 {
        runtime.submit_blocking(&cfg.name, ids_for(i, &cfg)).unwrap();
    }
    runtime.shutdown();
    let stats = runtime.stats();
    assert_eq!(stats.completed, 8, "retries must absorb every transient fault");
    assert_eq!(stats.failed, 0);
    assert!(stats.retried > 0, "the 40% fault rate must have fired at least once");
    assert_eq!(stats.injected_faults, stats.retried, "every exec fault costs one retry");
}

/// Plan-build failure degrades the batch to smaller buckets instead of
/// failing wholesale, and bottoms out in typed errors when no bucket
/// builds.
#[test]
fn plan_failure_degrades_then_fails_typed() {
    let cfg = tiny();
    let runtime = ServeRuntime::start(ServeConfig {
        max_batch: 4,
        batch_window: Duration::from_millis(250),
        exec_workers: 1,
        fault: Some(FaultSpec { plan_fail: 1.0, ..FaultSpec::quiet(5) }),
        ..ServeConfig::default()
    });
    runtime.register_model(cfg.clone()).unwrap();
    let tickets: Vec<_> =
        (0..4).map(|i| runtime.submit(&cfg.name, ids_for(i, &cfg)).unwrap()).collect();
    for t in tickets {
        match t.wait() {
            Err(ServeError::Plan(_)) => {}
            other => panic!("expected a typed plan failure, got {other:?}"),
        }
    }
    runtime.shutdown();
    let stats = runtime.stats();
    assert_eq!(stats.failed, 4);
    assert_eq!(stats.outstanding(), 0);
    if stats.batches < stats.submitted {
        // Requests actually shared a batch, so the halving path ran
        // before bottoming out at single-request buckets.
        assert!(stats.degraded >= 1, "multi-request batch with failing plans must degrade");
    }
}

/// A panicking worker is isolated: its batch gets typed errors, the
/// worker thread survives, and later requests are served normally.
#[test]
fn worker_panic_is_isolated() {
    let cfg = tiny();
    let runtime = ServeRuntime::start(ServeConfig {
        max_batch: 1,
        batch_window: Duration::ZERO,
        exec_workers: 1,
        fault: Some(FaultSpec { worker_panic: 1.0, ..FaultSpec::quiet(9) }),
        ..ServeConfig::default()
    });
    runtime.register_model(cfg.clone()).unwrap();
    for i in 0..3 {
        match runtime.submit_blocking(&cfg.name, ids_for(i, &cfg)) {
            Err(ServeError::WorkerPanic(why)) => assert!(why.contains("injected")),
            other => panic!("expected an isolated panic, got {other:?}"),
        }
    }
    runtime.shutdown();
    let stats = runtime.stats();
    // Three panics answered by the same lone worker thread: isolation,
    // not thread replacement, keeps the pool alive.
    assert_eq!(stats.worker_panics, 3);
    assert_eq!(stats.failed, 3);
    assert_eq!(stats.outstanding(), 0);
}

/// The per-request timeout answers stale requests with a typed error: a
/// stalled batcher holds the batch past the deadline, and the worker
/// refuses to execute it late.
#[test]
fn timeout_answers_stale_requests() {
    let cfg = tiny();
    let runtime = ServeRuntime::start(ServeConfig {
        max_batch: 1,
        batch_window: Duration::ZERO,
        exec_workers: 1,
        request_timeout: Duration::from_millis(5),
        fault: Some(FaultSpec {
            queue_stall: 1.0,
            stall_delay: Duration::from_millis(20),
            ..FaultSpec::quiet(2)
        }),
        ..ServeConfig::default()
    });
    runtime.register_model(cfg.clone()).unwrap();
    match runtime.submit_blocking(&cfg.name, ids_for(0, &cfg)) {
        Err(ServeError::TimedOut { waited_ms }) => assert!(waited_ms >= 5.0),
        other => panic!("expected a timeout, got {other:?}"),
    }
    runtime.shutdown();
    let stats = runtime.stats();
    assert_eq!(stats.timed_out, 1);
    assert_eq!(stats.outstanding(), 0);
}

/// The optimized (partitioned) plans stay bit-identical to unpartitioned
/// references even when the backend is fault-degraded — slow workers,
/// transient failures masked by retries, stalled batches. Faults may cost
/// time, never bits.
#[test]
fn optimized_plans_bit_identical_on_degraded_backend() {
    let cfg = tiny();

    // Healthy, unpartitioned reference.
    let reference = ServeRuntime::start(ServeConfig {
        max_batch: 1,
        batch_window: Duration::ZERO,
        partition: false,
        ..ServeConfig::default()
    });
    reference.register_model(cfg.clone()).unwrap();
    let expected: Vec<_> =
        (0..6).map(|i| reference.submit_blocking(&cfg.name, ids_for(i, &cfg)).unwrap()).collect();
    reference.shutdown();

    // Partitioned plans on a degraded (slow but correct) backend.
    let degraded = ServeRuntime::start(ServeConfig {
        max_batch: 1,
        batch_window: Duration::ZERO,
        exec_workers: 1,
        partition: true,
        max_retries: 16,
        retry_backoff: Duration::from_micros(100),
        fault: Some(FaultSpec {
            slow_worker: 0.5,
            slow_delay: Duration::from_millis(1),
            exec_fail: 0.3,
            queue_stall: 0.25,
            stall_delay: Duration::from_millis(1),
            ..FaultSpec::quiet(0xC4A05)
        }),
        ..ServeConfig::default()
    });
    degraded.register_model(cfg.clone()).unwrap();
    for (i, want) in expected.iter().enumerate() {
        let got = degraded.submit_blocking(&cfg.name, ids_for(i, &cfg)).unwrap();
        assert_eq!(got.shape(), want.shape());
        assert_eq!(
            got.data(),
            want.data(),
            "request {i}: degraded partitioned response must be bit-identical"
        );
    }
    degraded.shutdown();
    let stats = degraded.stats();
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.failed, 0);
    assert!(stats.injected_faults > 0, "the degraded run must actually have been degraded");
}
