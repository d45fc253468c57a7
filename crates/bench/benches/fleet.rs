//! Fleet scaling, cold start and crash fail-over.
//!
//! Packs a small model into a `lancet-store` file, then:
//!
//! * cold start — times opening the store and registering its weights
//!   against regenerating them, keeping first-request latency separate,
//!   and requires store-loaded replies to equal generated ones bit for bit;
//! * scaling — sends the same closed burst through 1→4 store-backed
//!   replicas and requires 4 replicas to reach ≥ 2.5x one replica's
//!   throughput. One exec worker per replica plus a fixed delay before
//!   every batch (fault injection with `slow_worker: 1.0`) emulate
//!   fixed-latency devices, so this table measures routing and
//!   stealing, not host-CPU contention: it is tagged `emulated`;
//! * compute — the same burst through 1 and 2 replicas with no delay,
//!   measured on host compute alone and not gated (a host with `c` cores
//!   cannot scale past `c`x);
//! * chaos — crashes the routed replica with its queue full and requires
//!   every admitted ticket to answer via re-routing (zero lost).
//!
//! Run modes:
//!
//! * `cargo bench -p lancet-bench --bench fleet` — full run, writes
//!   `results/BENCH_fleet.json`.
//! * `cargo bench -p lancet-bench --bench fleet -- --quick` — shorter
//!   bursts, every floor, no artifact.

use std::time::{Duration, Instant};

use lancet_bench::Json;
use lancet_fleet::{Fleet, FleetConfig};
use lancet_ir::GateKind;
use lancet_models::GptMoeConfig;
use lancet_serve::{canonical_weights, pack_weights, FaultSpec, ServeConfig, ServeRuntime};
use lancet_store::{open_store, write_store};

/// Largest fleet size swept.
const REPLICAS: usize = 4;
/// Delay before every batch of the scaling sweep, emulating device time, ms.
const DELAY_MS: u64 = 10;
/// Delay before every batch of the crash leg, ms.
const CHAOS_DELAY_MS: u64 = 5;
/// Scaling floor at `REPLICAS` replicas.
const MIN_SPEEDUP: f64 = 2.5;
/// Replicas and burst size of the crash leg.
const CHAOS_REPLICAS: usize = 3;
const CHAOS_REQUESTS: usize = 24;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let requests = if quick { 64 } else { 96 };
    let serve = ServeConfig {
        max_batch: 2,
        batch_window: Duration::from_millis(1),
        exec_workers: 1,
        ..ServeConfig::default()
    };
    // `slow_worker: 1.0` always fires, so every batch costs its
    // execution plus the delay.
    let delayed = |ms: u64| ServeConfig {
        fault: Some(FaultSpec {
            slow_worker: 1.0,
            slow_delay: Duration::from_millis(ms),
            ..FaultSpec::quiet(serve.seed)
        }),
        ..serve.clone()
    };
    let mut cfg = GptMoeConfig::tiny(1, GateKind::Switch);
    cfg.name = "GPT2-XS-MoE-fleet".into();
    println!(
        "fleet: {requests} requests, 1→{REPLICAS} replicas, {DELAY_MS} ms per-batch delay, \
         model {}{}",
        cfg.name,
        if quick { " (quick)" } else { "" }
    );

    // ── Cold start: pack the model once, then time the store path
    // against regenerating weights, keeping first-request latency (plan
    // build + execute) separate from load time.
    let normalized = cfg.clone().with_capacity_factor(cfg.experts() as f64);
    let canonical = canonical_weights(&normalized, serve.seed).expect("canonical weights");
    let packs = pack_weights(&normalized, &canonical).expect("pack panels");
    let store_path =
        std::env::temp_dir().join(format!("lancet-fleet-bench-{}.lancet", std::process::id()));
    let t = Instant::now();
    let summary =
        write_store(&store_path, &normalized.name, &canonical, &packs).expect("write store");
    let pack_write_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let stored = open_store(&store_path).expect("open store");
    let open_ms = t.elapsed().as_secs_f64() * 1e3;

    let prompt = |salt: usize| -> Vec<f32> {
        (0..cfg.seq).map(|t| ((t + salt) % cfg.vocab) as f32).collect()
    };

    let rt_stored = ServeRuntime::start(serve.clone());
    let t = Instant::now();
    rt_stored
        .register_model_with_weights(
            cfg.clone(),
            stored.weights.clone(),
            Some(stored.packs.clone()),
        )
        .expect("register stored");
    let register_stored_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let stored_reply = rt_stored.submit_blocking(&cfg.name, prompt(0)).expect("stored reply");
    let first_request_ms = t.elapsed().as_secs_f64() * 1e3;
    rt_stored.shutdown();

    let rt_gen = ServeRuntime::start(serve.clone());
    let t = Instant::now();
    rt_gen.register_model(cfg.clone()).expect("register generated");
    let register_generated_ms = t.elapsed().as_secs_f64() * 1e3;
    let gen_reply = rt_gen.submit_blocking(&cfg.name, prompt(0)).expect("generated reply");
    rt_gen.shutdown();
    assert_eq!(stored_reply, gen_reply, "store-loaded weights diverged from generated weights");
    println!(
        "\n  cold start: store {:.2} MiB written in {pack_write_ms:.1} ms, opened in \
         {open_ms:.2} ms ({}), register stored {register_stored_ms:.1} ms vs generated \
         {register_generated_ms:.1} ms, first request {first_request_ms:.1} ms",
        summary.bytes as f64 / (1024.0 * 1024.0),
        if stored.mapped { "mapped" } else { "heap fallback" }
    );

    // ── Scaling: the same closed burst through 1..=max replicas under
    // `serve`. Returns max replicas' speedup over one and the table.
    let sweep = |label: &str, serve: &ServeConfig, max: usize| -> (f64, Json) {
        println!("\n  {label}");
        println!("  replicas   wall (ms)   req/s   speedup   p50 (ms)   p99 (ms)   stolen");
        let mut rows = Vec::new();
        let mut base_rps = 0.0f64;
        let mut speedup = 0.0f64;
        for n in 1..=max {
            let fleet =
                Fleet::start(FleetConfig { replicas: n, serve: serve.clone(), steal_threshold: 1 });
            fleet
                .register_model_with_weights(cfg.clone(), &stored.weights, Some(&stored.packs))
                .expect("register");
            // Pre-build every bucket's plan on every replica, then run one
            // settling wave, so the timed burst measures steady-state
            // service rather than plan compilation.
            fleet.warm(&cfg.name).expect("warm");
            let warm: Vec<_> =
                (0..(2 * n)).map(|i| fleet.submit(&cfg.name, prompt(i)).expect("submit")).collect();
            for t in warm {
                t.wait().expect("warm reply");
            }

            let t = Instant::now();
            let tickets: Vec<_> =
                (0..requests).map(|i| fleet.submit(&cfg.name, prompt(i)).expect("submit")).collect();
            for ticket in tickets {
                ticket.wait().expect("reply");
            }
            let wall = t.elapsed().as_secs_f64();
            let stats = fleet.stats();
            fleet.shutdown();
            assert_eq!(stats.merged.outstanding(), 0, "{n}-replica leg left requests unanswered");

            let rps = requests as f64 / wall;
            if n == 1 {
                base_rps = rps;
            }
            speedup = rps / base_rps;
            println!(
                "  {n:>8} {:>11.1} {:>7.1} {:>8.2}x {:>10.2} {:>10.2} {:>8}",
                wall * 1e3,
                rps,
                speedup,
                stats.merged.p50_ms,
                stats.merged.p99_ms,
                stats.stolen
            );
            rows.push(Json::obj([
                ("replicas", n.into()),
                ("requests", requests.into()),
                ("wall_ms", Json::fixed(wall * 1e3, 1)),
                ("throughput_rps", Json::fixed(rps, 1)),
                ("speedup", Json::fixed(speedup, 3)),
                ("p50_ms", Json::fixed(stats.merged.p50_ms, 3)),
                ("p99_ms", Json::fixed(stats.merged.p99_ms, 3)),
                ("stolen", stats.stolen.into()),
            ]));
        }
        (speedup, Json::arr(rows))
    };
    let (speedup, scaling) =
        sweep(&format!("emulated: {DELAY_MS} ms delay before every batch"), &delayed(DELAY_MS), REPLICAS);
    // Measured on host compute alone: no gate.
    let (_, compute) = sweep("compute: no delay (not gated)", &serve, 2);
    // With device time emulated, 4 replicas must buy well over half
    // their nominal capacity.
    assert!(
        speedup >= MIN_SPEEDUP,
        "{REPLICAS} replicas reached only {speedup:.2}x a single replica (floor {MIN_SPEEDUP}x)"
    );

    // ── Chaos leg: kill the routed replica with its queue full; every
    // admitted ticket must still answer via re-routing.
    let fleet = Fleet::start(FleetConfig {
        replicas: CHAOS_REPLICAS,
        serve: delayed(CHAOS_DELAY_MS),
        steal_threshold: usize::MAX,
    });
    fleet
        .register_model_with_weights(cfg.clone(), &stored.weights, Some(&stored.packs))
        .expect("register");
    let home = fleet.route_of(&cfg.name).expect("route");
    let tickets: Vec<_> =
        (0..CHAOS_REQUESTS).map(|i| fleet.submit(&cfg.name, prompt(i)).expect("submit")).collect();
    fleet.crash(home);
    let lost = tickets.into_iter().map(|t| t.wait()).filter(Result::is_err).count();
    let chaos = fleet.stats();
    fleet.shutdown();
    assert!(
        lost == 0 && chaos.merged.outstanding() == 0,
        "chaos leg lost {lost} tickets ({} unanswered)",
        chaos.merged.outstanding()
    );
    println!(
        "\n  chaos: crashed replica {home}/{CHAOS_REPLICAS} with {} queued tickets drained, \
         {} re-routed, 0 lost",
        chaos.merged.crashed, chaos.rerouted
    );
    println!(
        "\nscaling floor: {REPLICAS} replicas at {speedup:.2}x ≥ {MIN_SPEEDUP}x, chaos 0 lost — OK"
    );
    let _ = std::fs::remove_file(&store_path);
    if quick {
        return;
    }

    let artifact = Json::obj([
        ("bench", "fleet".into()),
        (
            "workload",
            Json::obj([
                ("requests", requests.into()),
                ("max_batch", serve.max_batch.into()),
                ("seed", serve.seed.into()),
            ]),
        ),
        (
            "model",
            Json::obj([
                ("name", cfg.name.as_str().into()),
                ("layers", cfg.layers.into()),
                ("hidden", cfg.hidden.into()),
                ("experts", cfg.experts().into()),
                ("vocab", cfg.vocab.into()),
            ]),
        ),
        (
            "cold_start",
            Json::obj([
                ("store_bytes", summary.bytes.into()),
                ("store_tensors", summary.tensors.into()),
                ("store_packs", summary.packs.into()),
                ("deduped", summary.deduped.into()),
                ("pack_write_ms", Json::fixed(pack_write_ms, 2)),
                ("open_ms", Json::fixed(open_ms, 3)),
                ("mapped", stored.mapped.into()),
                ("register_stored_ms", Json::fixed(register_stored_ms, 2)),
                ("register_generated_ms", Json::fixed(register_generated_ms, 2)),
                ("first_request_ms", Json::fixed(first_request_ms, 2)),
            ]),
        ),
        (
            "scaling",
            Json::obj([
                ("emulated", true.into()),
                ("batch_delay_ms", DELAY_MS.into()),
                ("rows", scaling),
            ]),
        ),
        ("compute", Json::obj([("emulated", false.into()), ("rows", compute)])),
        (
            "chaos",
            Json::obj([
                ("replicas", CHAOS_REPLICAS.into()),
                ("batch_delay_ms", CHAOS_DELAY_MS.into()),
                ("requests", CHAOS_REQUESTS.into()),
                ("crashed", chaos.merged.crashed.into()),
                ("rerouted", chaos.rerouted.into()),
                ("lost", lost.into()),
            ]),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_fleet.json");
    artifact.save(path).expect("write BENCH_fleet.json");
    println!("wrote {path}");
}
