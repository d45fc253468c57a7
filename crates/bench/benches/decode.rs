//! Continuous vs windowed batching in the decode runtime.
//!
//! Replays a deterministic open-loop generation trace through
//! `lancet-decode` twice — continuous batching (joins at step boundaries)
//! and the windowed baseline (a new batch only after the last drains) —
//! and asserts the floors: continuous wins on mean time-to-first-token,
//! and on both legs every stream delivers its full, gapless token
//! sequence with nothing left unanswered.
//!
//! Run modes:
//!
//! * `cargo bench -p lancet-bench --bench decode` — full run, adds an
//!   in-flight-cap sweep and writes `results/BENCH_decode.json`.
//! * `cargo bench -p lancet-bench --bench decode -- --quick` — shorter
//!   trace, both floors, no artifact.

use lancet_bench::Json;
use lancet_decode::{
    decode_trace, replay_decode, BatchMode, DecodeConfig, DecodeReplayReport, DecodeRuntime,
};
use lancet_ir::GateKind;
use lancet_models::GptMoeConfig;
use lancet_serve::ServeStats;

/// Trace seed.
const SEED: u64 = 0xdec0de;
/// Mean arrival rate, requests per second.
const RATE_HZ: f64 = 200.0;
/// In-flight cap of the continuous-vs-windowed comparison.
const INFLIGHT: usize = 8;
const PROMPT_LEN: (usize, usize) = (4, 12);
const MAX_NEW: (usize, usize) = (8, 24);

/// A decode-sized model: deep enough that a step costs real time (so
/// windowed head-of-line blocking is visible), small enough that the
/// quick gate stays in CI budget.
fn decode_model() -> GptMoeConfig {
    let mut cfg = GptMoeConfig::tiny(1, GateKind::Switch);
    cfg.name = "GPT2-XS-MoE-decode".into();
    cfg.layers = 4;
    cfg.hidden = 64;
    cfg.heads = 4;
    cfg.ffn = 128;
    cfg.vocab = 128;
    cfg.batch = 1;
    cfg.seq = 32;
    cfg
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let requests = if quick { 16 } else { 32 };
    let cfg = decode_model();

    // Near-simultaneous arrivals with varied generation lengths: under
    // windowed batching the whole second wave waits out the slowest
    // first-wave sequence before its prefill, so continuous batching's
    // step-boundary joins should win mean TTFT by construction.
    let trace = decode_trace(requests, RATE_HZ, PROMPT_LEN, MAX_NEW, cfg.vocab, SEED);
    let expected_tokens: usize = trace.iter().map(|r| r.max_new).sum();
    println!(
        "decode: {requests} requests @ {RATE_HZ:.0}/s (open loop), prompts 4–12, gen 8–24, \
         model {} ({} layers, hidden {}), in-flight cap {INFLIGHT}{}",
        cfg.name,
        cfg.layers,
        cfg.hidden,
        if quick { " (quick)" } else { "" }
    );

    let run_leg = |mode: BatchMode, cap: usize| -> (DecodeReplayReport, ServeStats) {
        let runtime = DecodeRuntime::start(DecodeConfig {
            mode,
            max_inflight: cap,
            ..DecodeConfig::default()
        });
        runtime.register_model(cfg.clone()).expect("register");
        let report = replay_decode(&runtime, &cfg.name, &trace);
        runtime.shutdown();
        (report, runtime.stats())
    };
    let (cont, cont_stats) = run_leg(BatchMode::Continuous, INFLIGHT);
    let (win, win_stats) = run_leg(BatchMode::Windowed, INFLIGHT);

    println!("\n  policy       TTFT mean/p95 (ms)   ITL mean (ms)   tok/s   lost");
    for (name, r) in [("continuous", &cont), ("windowed", &win)] {
        println!(
            "  {name:<12} {:>8.2} / {:<8.2} {:>13.3} {:>7.0} {:>6}",
            r.mean_ttft_ms, r.p95_ttft_ms, r.mean_itl_ms, r.tokens_per_sec, r.token_gaps
        );
    }

    // ── Zero-loss floor: every admitted stream delivers its full,
    // gapless token sequence on both legs.
    for (name, r, stats) in [("continuous", &cont, &cont_stats), ("windowed", &win, &win_stats)] {
        assert!(
            r.rejected == 0 && r.failed == 0,
            "{name} leg dropped requests ({} rejected, {} failed)",
            r.rejected,
            r.failed
        );
        assert_eq!(r.token_gaps, 0, "{name} leg violated the streaming contract");
        assert_eq!(r.tokens, expected_tokens, "{name} leg lost tokens");
        assert_eq!(stats.outstanding(), 0, "{name} leg left streams unanswered");
    }

    // ── Win floor: joining at step boundaries instead of waiting out the
    // running batch is the whole point of the scheduler.
    let ttft_win_pct = (1.0 - cont.mean_ttft_ms / win.mean_ttft_ms) * 100.0;
    assert!(
        cont.mean_ttft_ms < win.mean_ttft_ms,
        "continuous batching did not improve mean TTFT ({:.2} ms vs windowed {:.2} ms)",
        cont.mean_ttft_ms,
        win.mean_ttft_ms
    );
    println!(
        "\nwin floor: continuous TTFT {:.2} ms < windowed {:.2} ms ({ttft_win_pct:.1}% better), \
         {expected_tokens}/{expected_tokens} tokens, zero gaps — OK",
        cont.mean_ttft_ms, win.mean_ttft_ms
    );
    if quick {
        return;
    }

    // ── In-flight sweep: throughput and latency as the continuous
    // scheduler admits more concurrent sequences.
    println!("\n  in-flight   tok/s   TTFT p50/p95 (ms)   ITL p50/p95 (ms)");
    let sweep: Vec<Json> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|cap| {
            let (r, s) = run_leg(BatchMode::Continuous, cap);
            println!(
                "  {cap:>9} {:>7.0} {:>8.2} / {:<8.2} {:>7.3} / {:<7.3}",
                r.tokens_per_sec, s.ttft_p50_ms, s.ttft_p95_ms, s.itl_p50_ms, s.itl_p95_ms
            );
            Json::obj([
                ("inflight", cap.into()),
                ("tokens_per_sec", Json::fixed(r.tokens_per_sec, 1)),
                ("ttft_p50_ms", Json::fixed(s.ttft_p50_ms, 3)),
                ("ttft_p95_ms", Json::fixed(s.ttft_p95_ms, 3)),
                ("itl_p50_ms", Json::fixed(s.itl_p50_ms, 3)),
                ("itl_p95_ms", Json::fixed(s.itl_p95_ms, 3)),
            ])
        })
        .collect();
    let leg = |r: &DecodeReplayReport| {
        Json::obj([
            ("mean_ttft_ms", Json::fixed(r.mean_ttft_ms, 3)),
            ("p95_ttft_ms", Json::fixed(r.p95_ttft_ms, 3)),
            ("mean_itl_ms", Json::fixed(r.mean_itl_ms, 3)),
            ("tokens_per_sec", Json::fixed(r.tokens_per_sec, 1)),
        ])
    };
    let range = |(lo, hi): (usize, usize)| Json::arr([lo.into(), hi.into()]);
    let artifact = Json::obj([
        ("bench", "decode".into()),
        (
            "workload",
            Json::obj([
                ("requests", requests.into()),
                ("rate_hz", Json::fixed(RATE_HZ, 1)),
                ("prompt_len", range(PROMPT_LEN)),
                ("max_new", range(MAX_NEW)),
                ("tokens", expected_tokens.into()),
                ("seed", SEED.into()),
            ]),
        ),
        (
            "model",
            Json::obj([
                ("name", cfg.name.as_str().into()),
                ("layers", cfg.layers.into()),
                ("hidden", cfg.hidden.into()),
                ("heads", cfg.heads.into()),
                ("experts", cfg.experts().into()),
                ("vocab", cfg.vocab.into()),
            ]),
        ),
        (
            "comparison",
            Json::obj([
                ("inflight", INFLIGHT.into()),
                ("continuous", leg(&cont)),
                ("windowed", leg(&win)),
                ("ttft_win_pct", Json::fixed(ttft_win_pct, 2)),
            ]),
        ),
        ("sweep", Json::arr(sweep)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_decode.json");
    artifact.save(path).expect("write BENCH_decode.json");
    println!("wrote {path}");
}
