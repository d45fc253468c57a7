//! Fleet semantics: stable routing, work stealing, bounded admission,
//! merged stats, and the crash chaos gate (zero lost tickets).

use std::time::Duration;

use lancet_fleet::{Fleet, FleetConfig};
use lancet_ir::GateKind;
use lancet_models::GptMoeConfig;
use lancet_serve::{FaultSpec, ServeConfig, ServeError};

fn tiny_cfg(name: &str) -> GptMoeConfig {
    let mut cfg = GptMoeConfig::tiny(1, GateKind::Switch);
    cfg.name = name.into();
    cfg
}

fn quick_serve() -> ServeConfig {
    ServeConfig {
        max_batch: 4,
        batch_window: Duration::from_millis(1),
        exec_workers: 1,
        ..ServeConfig::default()
    }
}

/// Fault injection that sleeps `ms` before every batch: `slow_worker`
/// at 1.0 always fires, so each batch costs its execution plus `ms`.
fn every_batch_delayed(ms: u64) -> Option<FaultSpec> {
    Some(FaultSpec { slow_worker: 1.0, slow_delay: Duration::from_millis(ms), ..FaultSpec::quiet(0) })
}

fn prompt(cfg: &GptMoeConfig, salt: usize) -> Vec<f32> {
    (0..cfg.seq).map(|t| ((t + salt) % cfg.vocab) as f32).collect()
}

#[test]
fn routing_is_stable_and_health_aware() {
    let fleet = Fleet::start(FleetConfig {
        replicas: 4,
        serve: quick_serve(),
        ..FleetConfig::default()
    });
    let cfg = tiny_cfg("routed");
    fleet.register_model(cfg.clone()).unwrap();

    let home = fleet.route_of("routed").unwrap();
    for _ in 0..10 {
        assert_eq!(fleet.route_of("routed").unwrap(), home, "routing must be deterministic");
    }
    assert!(matches!(fleet.route_of("nope"), Err(ServeError::UnknownModel(_))));

    // With stealing disabled, every request lands on the routed replica.
    let strict = Fleet::start(FleetConfig {
        replicas: 4,
        serve: quick_serve(),
        steal_threshold: usize::MAX,
    });
    strict.register_model(cfg.clone()).unwrap();
    let home = strict.route_of("routed").unwrap();
    for i in 0..6 {
        strict.submit_blocking("routed", prompt(&cfg, i)).unwrap();
    }
    let stats = strict.stats();
    assert_eq!(stats.per_replica[home].completed, 6);
    assert_eq!(stats.merged.completed, 6);
    assert_eq!(stats.stolen, 0);
    for (i, r) in stats.per_replica.iter().enumerate() {
        if i != home {
            assert_eq!(r.submitted, 0, "replica {i} saw traffic it does not own");
        }
    }

    // Crashing the home replica re-routes the model somewhere healthy.
    strict.crash(home);
    let rerouted = strict.route_of("routed").unwrap();
    assert_ne!(rerouted, home);
    assert_eq!(strict.healthy(), 3);
    strict.submit_blocking("routed", prompt(&cfg, 99)).unwrap();
    strict.shutdown();
    fleet.shutdown();

    // A zero replica count reads as 1.
    let single = Fleet::start(FleetConfig { replicas: 0, ..FleetConfig::default() });
    assert_eq!(single.replicas(), 1);
    single.shutdown();
}

#[test]
fn work_stealing_spreads_a_hot_model() {
    // One model, so consistent routing aims everything at one replica;
    // a 10ms delay on every batch makes its queue build instantly, and a
    // threshold of 1 lets the fleet spill to the idle replica.
    let fleet = Fleet::start(FleetConfig {
        replicas: 2,
        serve: ServeConfig {
            max_batch: 1,
            batch_window: Duration::ZERO,
            exec_workers: 1,
            fault: every_batch_delayed(10),
            ..ServeConfig::default()
        },
        steal_threshold: 1,
    });
    let cfg = tiny_cfg("hot");
    fleet.register_model(cfg.clone()).unwrap();

    let tickets: Vec<_> =
        (0..24).map(|i| fleet.submit("hot", prompt(&cfg, i)).unwrap()).collect();
    for t in tickets {
        t.wait().unwrap();
    }
    let stats = fleet.stats();
    assert_eq!(stats.merged.completed, 24);
    assert!(stats.stolen > 0, "a hot replica with an idle peer must shed load");
    assert!(
        stats.per_replica.iter().all(|r| r.completed > 0),
        "both replicas must end up serving: {:?}",
        stats.per_replica.iter().map(|r| r.completed).collect::<Vec<_>>()
    );
    assert_eq!(stats.merged.outstanding(), 0);
    fleet.shutdown();
}

#[test]
fn admission_stays_bounded_per_replica() {
    // Tiny queues + a 100ms delay on every batch: the fleet must overflow to the
    // other replica first, then reject with the same typed error a
    // single runtime gives.
    let fleet = Fleet::start(FleetConfig {
        replicas: 2,
        serve: ServeConfig {
            queue_depth: 2,
            max_batch: 1,
            batch_window: Duration::ZERO,
            exec_workers: 1,
            fault: every_batch_delayed(100),
            ..ServeConfig::default()
        },
        steal_threshold: usize::MAX,
    });
    let cfg = tiny_cfg("bounded");
    fleet.register_model(cfg.clone()).unwrap();

    let mut admitted = Vec::new();
    let mut rejected = 0usize;
    for i in 0..32 {
        match fleet.submit("bounded", prompt(&cfg, i)) {
            Ok(t) => admitted.push(t),
            Err(ServeError::Overloaded { depth }) => {
                assert_eq!(depth, 2);
                rejected += 1;
            }
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    assert!(rejected > 0, "2 replicas × (queue 2 + in flight) cannot admit 32 instant submits");
    for t in admitted {
        t.wait().unwrap();
    }
    assert_eq!(fleet.stats().merged.outstanding(), 0);
    fleet.shutdown();
}

#[test]
fn crash_loses_no_admitted_ticket() {
    // The chaos gate: fill the routed replica's queue, kill it, and
    // require every admitted ticket to still produce a response via
    // re-routing — zero lost, zero Crashed surfaced to callers.
    let fleet = Fleet::start(FleetConfig {
        replicas: 3,
        serve: ServeConfig {
            max_batch: 2,
            batch_window: Duration::from_millis(1),
            exec_workers: 1,
            fault: every_batch_delayed(5),
            ..ServeConfig::default()
        },
        steal_threshold: usize::MAX,
    });
    let cfg = tiny_cfg("fragile");
    fleet.register_model(cfg.clone()).unwrap();
    let home = fleet.route_of("fragile").unwrap();

    let tickets: Vec<_> =
        (0..20).map(|i| fleet.submit("fragile", prompt(&cfg, i)).unwrap()).collect();
    fleet.crash(home);

    for t in tickets {
        t.wait().expect("a fleet ticket must survive a replica crash");
    }
    let stats = fleet.stats();
    assert_eq!(stats.healthy, 2);
    assert_eq!(stats.merged.completed, 20, "every admitted request completed somewhere");
    assert_eq!(stats.merged.outstanding(), 0, "exactly-once: nothing admitted is unanswered");
    // The crash must actually have been disruptive for the gate to mean
    // anything: the dead replica answered Crashed for its queue, and
    // those tickets were re-routed.
    assert!(stats.merged.crashed > 0, "the crash drained nothing — gate is vacuous");
    assert_eq!(stats.rerouted, stats.merged.crashed);
    // Determinism makes re-execution safe: identical prompts from before
    // and after the crash agree bit-for-bit.
    let before = fleet.submit_blocking("fragile", prompt(&cfg, 7)).unwrap();
    let after = fleet.submit_blocking("fragile", prompt(&cfg, 7)).unwrap();
    assert_eq!(before, after);
    fleet.shutdown();
}

#[test]
fn merged_stats_sum_replica_counters() {
    let fleet = Fleet::start(FleetConfig {
        replicas: 2,
        serve: quick_serve(),
        ..FleetConfig::default()
    });
    let a = tiny_cfg("model-a");
    let b = tiny_cfg("model-b");
    fleet.register_model(a.clone()).unwrap();
    fleet.register_model(b.clone()).unwrap();
    for i in 0..4 {
        fleet.submit_blocking("model-a", prompt(&a, i)).unwrap();
        fleet.submit_blocking("model-b", prompt(&b, i)).unwrap();
    }
    let stats = fleet.stats();
    let sum: u64 = stats.per_replica.iter().map(|r| r.completed).sum();
    assert_eq!(stats.merged.completed, 8);
    assert_eq!(sum, 8);
    assert_eq!(
        stats.merged.latency_samples.len(),
        stats.per_replica.iter().map(|r| r.latency_samples.len()).sum::<usize>()
    );
    fleet.shutdown();
}
