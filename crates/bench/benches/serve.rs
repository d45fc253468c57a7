//! Steady-state serving vs cold optimize-per-request.
//!
//! Benchmarks the `lancet-serve` runtime on a serving-scaled GPT2-S-MoE
//! (the paper model's hidden/FFN/head geometry with serving-sized depth,
//! sequence, and vocabulary so the CPU executor answers in
//! milliseconds): the *cold* path rebuilds the plan for every request —
//! a fresh optimizer, partition search, weight binding, then one
//! batch-of-one execution — while the *steady-state* path serves bursts
//! through a warm plan cache with micro-batching. The measured per-
//! request speedup is asserted against a floor and recorded to
//! `results/BENCH_serve.json` alongside an open-loop replay's serving
//! stats (latency percentiles, throughput, cache effectiveness).
//!
//! Run modes:
//!
//! * `cargo bench -p lancet-bench --bench serve` — full run, writes the
//!   JSON artifact.
//! * `cargo bench -p lancet-bench --bench serve -- --quick` — smoke run:
//!   fewer samples, smaller model, no artifact; the transparent-batching
//!   bit-identity check and the speedup floor still apply.

use std::time::Duration;

use criterion::Criterion;
use lancet_bench::Json;
use lancet_cost::{ClusterKind, ClusterSpec};
use lancet_core::{Lancet, LancetOptions};
use lancet_ir::GateKind;
use lancet_models::GptMoeConfig;
use lancet_serve::{
    canonical_weights, open_loop_trace, replay_open_loop, Plan, ServeConfig, ServeRuntime,
};
use lancet_tensor::Tensor;

/// Steady-state serving must beat cold optimize-per-request by at least
/// this factor per request (the plan cache's reason to exist).
const MIN_SPEEDUP: f64 = 5.0;
/// Requests per steady-state burst (one criterion iteration).
const BURST: usize = 12;

/// Serving-scaled GPT2-S-MoE: the paper model's hidden/FFN/head geometry
/// with serving-sized sequence, vocabulary and depth.
fn serving_scaled_gpt2s(quick: bool) -> GptMoeConfig {
    let cfg = GptMoeConfig::gpt2_s_moe(1, GateKind::Switch);
    if quick {
        cfg.with_layers(4).with_seq(8).with_vocab(128)
    } else {
        cfg.with_layers(4).with_seq(8).with_vocab(256)
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut c = Criterion::default();
    c.sample_size(if quick { 2 } else { 4 });

    let cluster = ClusterKind::A100;
    let cfg = serving_scaled_gpt2s(quick);
    let config = ServeConfig {
        cluster,
        max_batch: 4,
        batch_window: Duration::from_millis(2),
        ..ServeConfig::default()
    };
    let trace_len = if quick { 16 } else { 48 };
    let rate_hz = 40.0;
    let trace = open_loop_trace(trace_len.max(BURST), rate_hz, cfg.seq, cfg.vocab, 0xbead);

    // The transparent-batching contract, checked on the exact benched
    // model: micro-batched responses must equal solo serving bit for bit.
    {
        let solo = ServeRuntime::start(ServeConfig {
            max_batch: 1,
            batch_window: Duration::ZERO,
            ..config.clone()
        });
        solo.register_model(cfg.clone()).unwrap();
        let want: Vec<_> = (0..4)
            .map(|i| solo.submit_blocking(&cfg.name, trace[i].ids.clone()).unwrap())
            .collect();
        solo.shutdown();

        let batched = ServeRuntime::start(ServeConfig {
            batch_window: Duration::from_millis(250),
            ..config.clone()
        });
        batched.register_model(cfg.clone()).unwrap();
        let tickets: Vec<_> =
            (0..4).map(|i| batched.submit(&cfg.name, trace[i].ids.clone()).unwrap()).collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let got = t.wait().unwrap();
            assert_eq!(got.data(), want[i].data(), "request {i} not bit-identical to solo");
        }
        batched.shutdown();
        println!("bit-identity: micro-batched == solo serving (4 requests)\n");
    }

    // Cold baseline: fresh optimizer (empty partition memo) + plan build
    // + batch-of-one execution, per request.
    let normalized = cfg.clone().with_capacity_factor(cfg.experts() as f64);
    let canonical = canonical_weights(&normalized, config.seed).unwrap();
    let solo_ids = Tensor::from_vec(vec![1, cfg.seq], trace[0].ids.clone()).unwrap();
    c.bench_function("serve/cold_optimize_per_request", |b| {
        b.iter(|| {
            let lancet =
                Lancet::new(ClusterSpec::of(cluster, 1), cfg.gpus, LancetOptions::default());
            let plan = Plan::build(&lancet, &normalized, 1, &canonical).unwrap();
            plan.execute(&solo_ids).unwrap()
        })
    });

    // Steady state: closed bursts through a warm plan cache. Warm every
    // power-of-two bucket first so the measurement sees only hits.
    let runtime = ServeRuntime::start(config.clone());
    runtime.register_model(cfg.clone()).unwrap();
    let mut bucket = 1;
    while bucket <= config.max_batch.next_power_of_two() {
        let tickets: Vec<_> =
            (0..bucket).map(|i| runtime.submit(&cfg.name, trace[i].ids.clone()).unwrap()).collect();
        tickets.into_iter().for_each(|t| {
            t.wait().unwrap();
        });
        bucket *= 2;
    }
    c.bench_function("serve/steady_state_burst", |b| {
        b.iter(|| {
            let tickets: Vec<_> = (0..BURST)
                .map(|i| runtime.submit(&cfg.name, trace[i].ids.clone()).unwrap())
                .collect();
            tickets.into_iter().for_each(|t| {
                t.wait().unwrap();
            });
        })
    });

    let cold_ns = c.summary("serve/cold_optimize_per_request").expect("ran").min_ns;
    let steady_ns = c.summary("serve/steady_state_burst").expect("ran").min_ns / BURST as f64;
    let speedup = cold_ns / steady_ns.max(1.0);
    println!("\nper-request: cold {:.1} ms, steady {:.1} ms — {speedup:.1}x", cold_ns / 1e6, steady_ns / 1e6);
    assert!(
        speedup >= MIN_SPEEDUP,
        "serving regression: steady-state {speedup:.2}x vs cold is below the {MIN_SPEEDUP}x floor"
    );

    // Open-loop replay for the serving-quality numbers.
    let replay = replay_open_loop(&runtime, &cfg.name, &trace[..trace_len]);
    let stats = runtime.stats();
    runtime.shutdown();
    assert!(stats.cache_hit_rate() > 0.0, "plan cache never hit");
    assert_eq!(replay.lost(trace_len), 0, "lost responses");
    assert_eq!(runtime.stats().outstanding(), 0, "unanswered requests after drain");
    println!(
        "replay: {} ok / {} shed / {} rejected, p50 {:.1} ms, p99 {:.1} ms, mean batch {:.2}, hit rate {:.0}%",
        replay.ok,
        replay.shed,
        replay.rejected,
        stats.p50_ms,
        stats.p99_ms,
        stats.mean_batch,
        stats.cache_hit_rate() * 100.0
    );

    if !quick {
        let rows = c.summaries().iter().map(|s| {
            Json::obj([
                ("name", s.name.as_str().into()),
                ("mean_ns", Json::fixed(s.mean_ns, 1)),
                ("min_ns", Json::fixed(s.min_ns, 1)),
                ("samples", s.samples.into()),
            ])
        });
        let artifact = Json::obj([
            ("bench", "serve".into()),
            (
                "model",
                Json::obj([
                    ("name", cfg.name.as_str().into()),
                    ("layers", cfg.layers.into()),
                    ("hidden", cfg.hidden.into()),
                    ("seq", cfg.seq.into()),
                    ("vocab", cfg.vocab.into()),
                    ("experts", cfg.experts().into()),
                ]),
            ),
            (
                "serve_config",
                Json::obj([
                    ("max_batch", config.max_batch.into()),
                    ("batch_window_ms", (config.batch_window.as_millis() as u64).into()),
                    ("burst", BURST.into()),
                ]),
            ),
            ("results", Json::arr(rows)),
            (
                "per_request_ms",
                Json::obj([
                    ("cold", Json::fixed(cold_ns / 1e6, 2)),
                    ("steady", Json::fixed(steady_ns / 1e6, 2)),
                    ("speedup", Json::fixed(speedup, 2)),
                ]),
            ),
            (
                "replay",
                Json::obj([
                    ("requests", trace_len.into()),
                    ("rate_hz", Json::fixed(rate_hz, 0)),
                    ("ok", replay.ok.into()),
                    ("shed", replay.shed.into()),
                    ("rejected", replay.rejected.into()),
                    ("lost", replay.lost(trace_len).into()),
                    ("p50_ms", Json::fixed(stats.p50_ms, 1)),
                    ("p95_ms", Json::fixed(stats.p95_ms, 1)),
                    ("p99_ms", Json::fixed(stats.p99_ms, 1)),
                    ("mean_batch", Json::fixed(stats.mean_batch, 2)),
                ]),
            ),
            (
                "plan_cache",
                Json::obj([
                    ("hits", stats.cache.hits.into()),
                    ("misses", stats.cache.misses.into()),
                    ("evictions", stats.cache.evictions.into()),
                    ("hit_rate", Json::fixed(stats.cache_hit_rate(), 2)),
                ]),
            ),
        ]);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_serve.json");
        artifact.save(path).expect("write BENCH_serve.json");
        println!("\nwrote {path}");
    }
}
