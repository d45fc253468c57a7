//! `lancet` — command-line front end for the Lancet reproduction.
//!
//! ```text
//! lancet optimize   --model s --cluster v100 --gpus 16 --gate switch [--trace t.json]
//! lancet compare    --model l --cluster a100 --gpus 32 --gate bpr
//! lancet serve-bench [--requests 64] [--rate 40] [--quick]
//! lancet chaos-bench [--seed N] [--quick]
//! lancet placement-bench [--seed N] [--gpus 16] [--experts 32] [--quick]
//! lancet decode-bench [--requests 32] [--rate 200] [--inflight 8] [--quick]
//! lancet tune-gemm [--samples 3] [--quick]
//! lancet pack-model [--model tiny] [--gpus 1] [--out results/model-tiny.lancet]
//! lancet fleet-bench [--replicas 4] [--requests 96] [--floor 10] [--quick]
//! ```
//!
//! `optimize` runs the Lancet passes on one configuration and reports the
//! predicted and simulated iteration time (optionally dumping the IR and
//! a Chrome trace). `compare` runs every system (DeepSpeed / Tutel / RAF /
//! Lancet) on the same configuration. `serve-bench` drives the
//! `lancet-serve` runtime with a synthetic open-loop request trace and
//! reports serving throughput, latency percentiles, and plan-cache
//! effectiveness against a cold optimize-per-request baseline.
//! `chaos-bench` is the fault-injection conformance gate: it replays a
//! seeded fault schedule through the simulator and the serving runtime
//! and fails unless reports are bit-identical across replays, fault
//! counters reproduce, and no admitted request loses its reply.
//! `placement-bench` collects a skewed routing histogram, runs the
//! expert-placement search, and proves the win floor: the optimized
//! placement must move no more inter-node bytes than uniform, beat it
//! strictly in simulated step time, and the serving runtime's affinity
//! dispatch must land every single-worker request on its preferred
//! worker. The full run writes `results/BENCH_placement.json`.
//! `decode-bench` replays a deterministic open-loop generation trace
//! through the `lancet-decode` runtime twice — continuous batching vs
//! the windowed baseline — and fails unless continuous wins on mean
//! time-to-first-token with zero lost tokens; the full run sweeps the
//! in-flight cap and writes `results/BENCH_decode.json`.
//! `tune-gemm` searches GEMM cache blockings (`MC/KC/NC`) per weight
//! shape and `m` class on the detected ISA and writes the table to
//! `results/TUNE_gemm.json`; runtimes opt in via `LANCET_GEMM_TUNE`.
//! Blocking never changes computed bits, only traversal, so a tuned
//! table is purely a performance knob.
//! `pack-model` writes a model's canonical weights and prepacked GEMM
//! panels to a `lancet-store` file that runtimes load zero-copy (mmap).
//! `fleet-bench` drives closed bursts through 1→N replica fleets and
//! fails unless throughput scales (quick gate: 4 replicas ≥ 2.5× one)
//! and a mid-burst replica crash loses zero admitted requests; the full
//! run writes `results/BENCH_fleet.json` including cold-start timings
//! (store-mapped vs generated registration, separate from first-request
//! latency).

use lancet_repro::baselines::{run_system, System};
use lancet_repro::core::{Lancet, LancetOptions};
use lancet_repro::cost::{ClusterKind, ClusterSpec, CommModel, ComputeModel};
use lancet_repro::ir::{summarize, to_text, GateKind};
use lancet_repro::models::{build_forward, GptMoeConfig};
use lancet_repro::sim::{to_chrome_trace, SimConfig, Simulator};
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "\
usage: lancet <optimize|compare|serve-bench|chaos-bench|placement-bench|decode-bench|tune-gemm|pack-model|fleet-bench> [options]

pack-model options:
  --model <s|l|mixtral|tiny>  model to pack (default: tiny)
  --gpus <N>                device count to canonicalize for (default: 1)
  --out <FILE>              store path (default: results/model-<name>.lancet)
  --seed <N>                weight seed (default: the serving default)

fleet-bench options:
  --replicas <N>            largest fleet size swept (default: 4)
  --requests <N>            burst size per fleet size (default: 96; quick: 48)
  --floor <MS>              per-batch service floor, emulating a fixed-latency
                            device on small hosts (default: 10)
  --quick                   scaling + crash gates only, no artifact (verify.sh)

tune-gemm options:
  --samples <N>             timed runs per candidate blocking (default: 3)
  --quick                   small candidate grid, no artifact written

placement-bench options:
  --seed <N>                histogram seed (default: LANCET_PLACEMENT_SEED, then 0x91ACE)
  --gpus <N>                device count for the placement search (default: 16)
  --experts <N>             experts per MoE layer (default: 32)
  --layers <N>              MoE layer count in the histogram (default: 4)
  --tokens <N>              tokens routed per layer (default: 8192; quick: 2048)
  --quick                   assert the win floor only; skip the JSON artifact

serve-bench options:
  --requests <N>            open-loop trace length (default: 64; quick: 24)
  --rate <HZ>               mean request arrival rate (default: 40; quick: 200)
  --max-batch <N>           micro-batcher bucket cap (default: 4)
  --window <MS>             batching window in ms (default: 2)
  --quick                   seconds-bounded smoke run (used by verify.sh)

chaos-bench options:
  --seed <N>                fault seed (default: LANCET_CHAOS_SEED, then 0xC4A05)
  --requests <N>            serve-leg request count (default: 32; quick: 12)
  --quick                   seconds-bounded conformance run (used by verify.sh)

decode-bench options:
  --requests <N>            decode trace length (default: 32; quick: 16)
  --rate <HZ>               mean arrival rate in req/s (default: 200)
  --inflight <N>            max concurrently decoding sequences (default: 8)
  --quick                   TTFT floor + zero-loss gate only (used by verify.sh)

options:
  --model <s|l|mixtral|tiny>  benchmark model (default: s)
  --cluster <a100|v100>     simulated cluster (default: v100)
  --gpus <N>                GPU count, multiple of 8 preferred (default: 16)
  --gate <switch|bpr|top2|random|hash>   gating algorithm (default: switch)
  --batch <N>               per-GPU batch size (default: paper value)
  --layers <N>              override layer count
  --no-dw                   disable the dW scheduling pass
  --no-partition            disable the operator partition pass
  --fsdp                    shard large weights FSDP/ZeRO-3 style
  --recompute               checkpoint activations per transformer block
  --hierarchical            use the hierarchical (node-aggregated) all-to-all
  --gantt                   print an ASCII timeline of the optimized run
  --trace <file.json>       write a Chrome trace of the optimized run
  --dump-ir <file.txt>      write the optimized IR as text
";

fn parse_args() -> Result<(String, HashMap<String, String>), String> {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().ok_or_else(|| "missing command".to_string())?;
    let mut opts = HashMap::new();
    let flags = [
        "--no-dw",
        "--no-partition",
        "--fsdp",
        "--recompute",
        "--hierarchical",
        "--gantt",
        "--quick",
    ];
    let mut iter = args.peekable();
    while let Some(a) = iter.next() {
        if flags.contains(&a.as_str()) {
            opts.insert(a.trim_start_matches("--").to_string(), "true".into());
        } else if let Some(key) = a.strip_prefix("--") {
            let v = iter.next().ok_or_else(|| format!("missing value for --{key}"))?;
            opts.insert(key.to_string(), v);
        } else {
            return Err(format!("unexpected argument `{a}`"));
        }
    }
    Ok((cmd, opts))
}

fn build_config(opts: &HashMap<String, String>) -> Result<(GptMoeConfig, ClusterKind), String> {
    let cluster = match opts.get("cluster").map(String::as_str).unwrap_or("v100") {
        "a100" => ClusterKind::A100,
        "v100" => ClusterKind::V100,
        other => return Err(format!("unknown cluster `{other}`")),
    };
    let gate = match opts.get("gate").map(String::as_str).unwrap_or("switch") {
        "switch" => GateKind::Switch,
        "bpr" => GateKind::BatchPrioritized,
        "top2" => GateKind::TopK { k: 2 },
        "random" => GateKind::Random,
        "hash" => GateKind::Hash,
        other => return Err(format!("unknown gate `{other}`")),
    };
    let gpus: usize = opts
        .get("gpus")
        .map(|v| v.parse().map_err(|_| format!("bad --gpus `{v}`")))
        .transpose()?
        .unwrap_or(16);
    let mut cfg = match opts.get("model").map(String::as_str).unwrap_or("s") {
        "s" => GptMoeConfig::gpt2_s_moe(gpus, gate)
            .with_batch(if cluster == ClusterKind::A100 { 24 } else { 16 }),
        "l" => GptMoeConfig::gpt2_l_moe(gpus, gate)
            .with_batch(if cluster == ClusterKind::A100 { 48 } else { 8 }),
        "mixtral" => GptMoeConfig::mixtral_moe(gpus).with_batch(8),
        "tiny" => GptMoeConfig::tiny(gpus, gate),
        other => return Err(format!("unknown model `{other}`")),
    };
    if let Some(b) = opts.get("batch") {
        cfg = cfg.with_batch(b.parse().map_err(|_| format!("bad --batch `{b}`"))?);
    }
    if let Some(l) = opts.get("layers") {
        cfg = cfg.with_layers(l.parse().map_err(|_| format!("bad --layers `{l}`"))?);
    }
    if opts.contains_key("fsdp") {
        cfg = cfg.with_fsdp(true);
    }
    Ok((cfg, cluster))
}

fn cmd_optimize(opts: &HashMap<String, String>) -> Result<(), String> {
    let (cfg, cluster) = build_config(opts)?;
    let spec = ClusterSpec::of(cluster, cfg.gpus.div_ceil(8).max(1));
    let options = LancetOptions {
        disable_dw_schedule: opts.contains_key("no-dw"),
        disable_partition: opts.contains_key("no-partition"),
        ..Default::default()
    };
    println!(
        "optimizing {} ({} layers, hidden {}, {} experts, batch {}/GPU, {} gate) for {} × {}…",
        cfg.name, cfg.layers, cfg.hidden, cfg.experts(), cfg.batch, cfg.gate, cfg.gpus, cluster
    );
    let lancet = Lancet::new(spec.clone(), cfg.gpus, options);
    let fwd = build_forward(&cfg).map_err(|e| e.to_string())?.graph;
    let mut outcome = lancet.optimize(fwd).map_err(|e| e.to_string())?;
    if opts.contains_key("recompute") {
        use lancet_repro::core::recompute_segments;
        use lancet_repro::models::block_boundaries;
        let segments = block_boundaries(&outcome.graph);
        let report =
            recompute_segments(&mut outcome.graph, &segments).map_err(|e| e.to_string())?;
        println!(
            "recomputation: {} segments, {} forward instructions duplicated",
            report.segments, report.recomputed_instrs
        );
        // The prediction must reflect the post-recompute graph.
        outcome.predicted_time = lancet
            .estimator()
            .estimate(&outcome.graph)
            .map_err(|e| e.to_string())?
            .total;
    }
    if outcome.prefetch.moved > 0 {
        println!("prefetch pass: {} all-gathers hoisted", outcome.prefetch.moved);
    }

    if let Some(p) = &outcome.partition {
        println!(
            "partition pass: {} range(s), {} P(i,n,k) evaluations, forward {:.1} → {:.1} ms (estimated)",
            p.ranges.len(),
            p.evaluations,
            p.unpartitioned_forward_time * 1e3,
            p.estimated_forward_time * 1e3
        );
    }
    if let Some(d) = &outcome.dw {
        println!(
            "dW schedule pass: {} dWs moved behind {} all-to-alls ({:.0}% of a2a time covered)",
            d.assigned,
            d.alltoalls,
            d.overlap_fraction() * 100.0
        );
    }
    println!("optimized graph: {}", summarize(&outcome.graph));
    println!("optimization took {:?}", outcome.optimization_time);

    let sim = Simulator::new(
        ComputeModel::new(spec.device.clone()),
        CommModel::new(spec),
        SimConfig {
            hierarchical_a2a: opts.contains_key("hierarchical"),
            ..SimConfig::new(cfg.gpus)
        },
    );
    let report = sim.simulate(&outcome.graph);
    println!(
        "simulated iteration: {:.1} ms (predicted {:.1} ms, error {:.1}%)",
        report.iteration_time * 1e3,
        outcome.predicted_time * 1e3,
        (outcome.predicted_time - report.iteration_time).abs() / report.iteration_time * 100.0
    );
    println!(
        "communication: {:.1} ms busy, {:.1} ms exposed ({:.0}% hidden){}",
        report.comm_busy * 1e3,
        report.exposed_comm() * 1e3,
        report.overlap_ratio() * 100.0,
        if report.oom { "  [OOM!]" } else { "" }
    );

    if opts.contains_key("gantt") {
        println!();
        print!("{}", lancet_repro::sim::render_gantt(&report, 72));
    }
    if let Some(path) = opts.get("trace") {
        std::fs::write(path, to_chrome_trace(&report)).map_err(|e| e.to_string())?;
        println!("wrote Chrome trace to {path} (open in chrome://tracing or ui.perfetto.dev)");
    }
    if let Some(path) = opts.get("dump-ir") {
        std::fs::write(path, to_text(&outcome.graph)).map_err(|e| e.to_string())?;
        println!("wrote IR text to {path}");
    }
    Ok(())
}

fn cmd_compare(opts: &HashMap<String, String>) -> Result<(), String> {
    let (cfg, cluster) = build_config(opts)?;
    println!(
        "comparing systems on {} ({} gate), {} × {}:\n",
        cfg.name, cfg.gate, cfg.gpus, cluster
    );
    println!("{:<12} {:>12} {:>16} {:>12}", "system", "iter (ms)", "exposed comm", "overlap");
    let mut best_baseline = f64::INFINITY;
    let mut lancet_time = None;
    for system in System::headline() {
        let out = run_system(system, &cfg, cluster).map_err(|e| e.to_string())?;
        let r = &out.report;
        let iter = if r.oom { "OOM".to_string() } else { format!("{:.1}", r.iteration_time * 1e3) };
        println!(
            "{:<12} {:>12} {:>14.1}ms {:>11.0}%",
            system.name(),
            iter,
            r.exposed_comm() * 1e3,
            r.overlap_ratio() * 100.0
        );
        if !r.oom {
            if system == System::Lancet {
                lancet_time = Some(r.iteration_time);
            } else {
                best_baseline = best_baseline.min(r.iteration_time);
            }
        }
    }
    if let Some(l) = lancet_time {
        println!("\nLancet speedup vs best baseline: {:.2}x", best_baseline / l);
    }
    Ok(())
}

/// The serving-scaled GPT2-S-MoE: the paper model's hidden/FFN/head
/// geometry with serving-sized sequence, vocabulary, and depth so the
/// CPU executor answers requests in milliseconds instead of minutes.
fn serving_scaled_gpt2s(quick: bool) -> GptMoeConfig {
    let cfg = GptMoeConfig::gpt2_s_moe(1, GateKind::Switch);
    if quick {
        cfg.with_layers(4).with_seq(8).with_vocab(128)
    } else {
        cfg.with_layers(4).with_seq(8).with_vocab(256)
    }
}

fn cmd_tune_gemm(opts: &HashMap<String, String>) -> Result<(), String> {
    use lancet_repro::tensor::gemm::detected_isa;
    use lancet_repro::tensor::tune::{tune_gpt2s_moe, TuneOptions, GPT2S_MOE_SHAPES};

    let quick = opts.contains_key("quick");
    let samples = opts
        .get("samples")
        .map(|v| v.parse::<usize>().map_err(|_| format!("bad --samples `{v}`")))
        .transpose()?
        .unwrap_or(3);
    println!(
        "tune-gemm: searching MC/KC/NC blockings for {} GPT2-S-MoE weight shapes on `{}`{}",
        GPT2S_MOE_SHAPES.len(),
        detected_isa(),
        if quick { " (quick grid)" } else { "" }
    );
    let table = tune_gpt2s_moe(TuneOptions { samples, quick, ..TuneOptions::default() }, |e| {
        println!(
            "  {:>8} m={:<3} k={:<4} n={:<4} -> mc={:<3} kc={:<3} nc={:<4}  {:>6.0} us (default {:.0} us, {:.2}x)",
            e.m_class.name(),
            e.m_class.representative_m(),
            e.k,
            e.n,
            e.spec.mc,
            e.spec.kc,
            e.spec.nc,
            e.tuned_ns as f64 / 1e3,
            e.default_ns as f64 / 1e3,
            e.default_ns as f64 / e.tuned_ns.max(1) as f64
        );
    });
    if quick {
        println!("\nquick run: table not written (rerun without --quick for the artifact)");
        return Ok(());
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/TUNE_gemm.json");
    std::fs::write(path, table.to_json()).map_err(|e| format!("write {path}: {e}"))?;
    println!("\nwrote {} entries to {path}", table.len());
    println!("enable with LANCET_GEMM_TUNE=1 (or a path to the table)");
    Ok(())
}

fn cmd_serve_bench(opts: &HashMap<String, String>) -> Result<(), String> {
    use lancet_repro::serve::{
        canonical_weights, open_loop_trace, replay_open_loop, Plan, ServeConfig, ServeRuntime,
    };
    use std::time::{Duration, Instant};

    let quick = opts.contains_key("quick");
    let parse = |key: &str, default: f64| -> Result<f64, String> {
        opts.get(key)
            .map(|v| v.parse::<f64>().map_err(|_| format!("bad --{key} `{v}`")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let requests = parse("requests", if quick { 24.0 } else { 64.0 })? as usize;
    let rate = parse("rate", if quick { 200.0 } else { 40.0 })?;
    let max_batch = parse("max-batch", 4.0)? as usize;
    let window = Duration::from_secs_f64(parse("window", 2.0)? / 1e3);
    let cluster = ClusterKind::A100;

    let cfg = serving_scaled_gpt2s(quick);
    println!(
        "serve-bench: {} (layers {}, seq {}, vocab {}), {} requests at {rate:.0} req/s, \
         max batch {max_batch}, window {:?}",
        cfg.name, cfg.layers, cfg.seq, cfg.vocab, requests, window
    );
    let trace = open_loop_trace(requests, rate, cfg.seq, cfg.vocab, 0xbead);

    // Cold baseline: what a runtime without a plan cache would pay per
    // request — a fresh optimizer (empty partition memo), plan build,
    // then one batch-of-one execution.
    let config = ServeConfig { cluster, max_batch, batch_window: window, ..ServeConfig::default() };
    let normalized = cfg.clone().with_capacity_factor(cfg.experts() as f64);
    let canonical = canonical_weights(&normalized, config.seed).map_err(|e| e.to_string())?;
    let solo_ids = lancet_repro::tensor::Tensor::from_vec(
        vec![1, cfg.seq],
        trace[0].ids.clone(),
    )
    .map_err(|e| e.to_string())?;
    let cold_samples = if quick { 2 } else { 4 };
    let mut cold_ms = Vec::new();
    for _ in 0..cold_samples {
        let started = Instant::now();
        let lancet = Lancet::new(ClusterSpec::of(cluster, 1), cfg.gpus, LancetOptions::default());
        let plan =
            Plan::build(&lancet, &normalized, 1, &canonical).map_err(|e| e.to_string())?;
        plan.execute(&solo_ids).map_err(|e| e.to_string())?;
        cold_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let cold_mean = cold_ms.iter().sum::<f64>() / cold_ms.len() as f64;
    println!("cold optimize-per-request: {cold_mean:.1} ms/request (n={cold_samples})");

    let runtime = ServeRuntime::start(config);
    runtime.register_model(cfg.clone()).map_err(|e| e.to_string())?;

    // Warm every power-of-two bucket the batcher can form, so the
    // steady-state measurement sees only cache hits.
    let mut bucket = 1;
    while bucket <= max_batch.next_power_of_two() {
        let tickets: Result<Vec<_>, _> =
            (0..bucket).map(|i| runtime.submit(&cfg.name, trace[i % requests].ids.clone())).collect();
        for t in tickets.map_err(|e| e.to_string())? {
            t.wait().map_err(|e| e.to_string())?;
        }
        bucket *= 2;
    }

    // Steady state: a closed burst through the warm cache measures the
    // per-request service cost with batching, no arrival idle time.
    let burst = if quick { 16 } else { 48 };
    let started = Instant::now();
    let tickets: Result<Vec<_>, _> =
        (0..burst).map(|i| runtime.submit(&cfg.name, trace[i % requests].ids.clone())).collect();
    for t in tickets.map_err(|e| e.to_string())? {
        t.wait().map_err(|e| e.to_string())?;
    }
    let steady_ms = started.elapsed().as_secs_f64() * 1e3 / burst as f64;
    let speedup = cold_mean / steady_ms;
    println!("steady-state (warm cache): {steady_ms:.1} ms/request ({speedup:.1}x vs cold)");

    // Open-loop replay: the serving-quality numbers.
    let replay = replay_open_loop(&runtime, &cfg.name, &trace);
    let stats = runtime.stats();
    println!(
        "\nopen-loop replay: {} ok, {} rejected, {} shed, {} failed in {:.2} s",
        replay.ok,
        replay.rejected,
        replay.shed,
        replay.failed,
        replay.wall.as_secs_f64()
    );
    println!(
        "latency p50/p95/p99: {:.1} / {:.1} / {:.1} ms   throughput {:.1} req/s   mean batch {:.2}",
        stats.p50_ms, stats.p95_ms, stats.p99_ms, stats.throughput_rps, stats.mean_batch
    );
    println!(
        "plan cache: {} hits, {} misses ({:.0}% hit rate), {} evictions, {} resident, \
         {:.1} KiB prepacked weights",
        stats.cache.hits,
        stats.cache.misses,
        stats.cache_hit_rate() * 100.0,
        stats.cache.evictions,
        stats.cache.len,
        stats.cache.packed_bytes as f64 / 1024.0
    );
    runtime.shutdown();

    // Smoke contract (verify.sh runs this in --quick mode): the cache
    // must be doing its job and no response may be lost.
    let lost = replay.lost(requests);
    let outstanding = runtime.stats().outstanding();
    if stats.cache_hit_rate() <= 0.0 {
        return Err("serve-bench: plan-cache hit rate is zero".into());
    }
    if lost != 0 || outstanding != 0 {
        return Err(format!(
            "serve-bench: lost responses (replay lost {lost}, outstanding {outstanding})"
        ));
    }
    println!("\nsmoke contract: cache hit rate > 0, zero lost responses — OK");
    Ok(())
}

/// The counters a seeded chaos replay must reproduce exactly (wall-clock
/// quantities like latency percentiles are excluded by design).
fn chaos_ledger(stats: &lancet_repro::serve::ServeStats) -> [u64; 8] {
    [
        stats.submitted,
        stats.completed,
        stats.failed,
        stats.timed_out,
        stats.injected_faults,
        stats.retried,
        stats.degraded,
        stats.worker_panics,
    ]
}

fn cmd_chaos_bench(opts: &HashMap<String, String>) -> Result<(), String> {
    use lancet_repro::serve::{FaultSpec, ServeConfig, ServeRuntime};
    use lancet_repro::sim::FaultPlan;
    use std::time::Duration;

    let quick = opts.contains_key("quick");
    let seed: u64 = match opts.get("seed") {
        Some(v) => v.parse().map_err(|_| format!("bad --seed `{v}`"))?,
        None => std::env::var("LANCET_CHAOS_SEED")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0xC4A05),
    };
    let requests: usize = opts
        .get("requests")
        .map(|v| v.parse().map_err(|_| format!("bad --requests `{v}`")))
        .transpose()?
        .unwrap_or(if quick { 12 } else { 32 });
    println!("chaos-bench: seed {seed:#x}, {requests} serve requests{}", if quick { " (quick)" } else { "" });

    // ── Sim leg: a seeded fault schedule replayed through the simulator
    // must produce bit-identical reports, and faults must only slow the
    // iteration down.
    let (cfg, cluster) = build_config(&HashMap::from([(
        "model".to_string(),
        if quick { "tiny".to_string() } else { "s".to_string() },
    )]))?;
    let spec = ClusterSpec::of(cluster, cfg.gpus.div_ceil(8).max(1));
    let graph = {
        let mut g = build_forward(&cfg).map_err(|e| e.to_string())?.graph;
        lancet_repro::ir::build_backward(&mut g, &Default::default()).map_err(|e| e.to_string())?;
        g
    };
    let simulate = |plan: lancet_repro::sim::FaultPlan| {
        let sim = Simulator::new(
            ComputeModel::new(spec.device.clone()),
            CommModel::new(spec.clone()),
            SimConfig::new(cfg.gpus).with_fault_plan(plan),
        );
        sim.simulate(&graph)
    };
    let healthy = simulate(FaultPlan::none());
    let fault_plan = FaultPlan::generate(seed, cfg.gpus, healthy.iteration_time);
    let a = simulate(fault_plan.clone());
    let b = simulate(fault_plan);
    if a != b {
        return Err("chaos-bench: sim replay is not bit-identical".into());
    }
    if a.iteration_time < healthy.iteration_time - 1e-12 {
        return Err("chaos-bench: faults sped the simulated iteration up".into());
    }
    println!(
        "sim: healthy {:.1} ms → faulted {:.1} ms ({} compute slowed, {} comm degraded, \
         {} drops, +{:.1} ms injected) — replay bit-identical",
        healthy.iteration_time * 1e3,
        a.iteration_time * 1e3,
        a.faults.compute_slowed,
        a.faults.comm_degraded,
        a.faults.link_drops,
        a.faults.injected_delay * 1e3
    );

    // ── Serve leg 1: deterministic replay. A single-worker, batch-of-one
    // sequential drive draws every fault in one fixed order, so the fault
    // ledger must reproduce exactly.
    let tiny = GptMoeConfig::tiny(1, GateKind::Switch);
    let ids_for = |i: usize| -> Vec<f32> {
        (0..tiny.seq).map(|s| ((i * 3 + s * 5 + 1) % tiny.vocab) as f32).collect()
    };
    let drive = |seed: u64| -> Result<lancet_repro::serve::ServeStats, String> {
        let runtime = ServeRuntime::start(ServeConfig {
            max_batch: 1,
            batch_window: Duration::ZERO,
            exec_workers: 1,
            fault: Some(FaultSpec::chaos(seed)),
            ..ServeConfig::default()
        });
        runtime.register_model(tiny.clone()).map_err(|e| e.to_string())?;
        for i in 0..requests {
            // Chaos replies may be typed errors; losing one is the bug.
            let _ = runtime.submit_blocking(&tiny.name, ids_for(i));
        }
        runtime.shutdown();
        Ok(runtime.stats())
    };
    let first = drive(seed)?;
    let second = drive(seed)?;
    if chaos_ledger(&first) != chaos_ledger(&second) {
        return Err(format!(
            "chaos-bench: serve replay diverged ({:?} vs {:?})",
            chaos_ledger(&first),
            chaos_ledger(&second)
        ));
    }
    if first.outstanding() != 0 {
        return Err(format!("chaos-bench: {} requests lost in replay drive", first.outstanding()));
    }
    println!(
        "serve replay: {} completed, {} failed, {} injected faults, {} retries, \
         {} panics isolated — ledgers identical",
        first.completed, first.failed, first.injected_faults, first.retried, first.worker_panics
    );

    // ── Serve leg 2: concurrent chaos. Multiple workers, real batching,
    // every fault class armed — every admitted ticket must still resolve.
    let runtime = ServeRuntime::start(ServeConfig {
        max_batch: 4,
        batch_window: Duration::from_millis(1),
        request_timeout: Duration::from_millis(500),
        fault: Some(FaultSpec::chaos(seed)),
        ..ServeConfig::default()
    });
    runtime.register_model(tiny.clone()).map_err(|e| e.to_string())?;
    let tickets: Vec<_> = (0..requests)
        .map(|i| runtime.submit(&tiny.name, ids_for(i)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut answered = 0usize;
    for t in tickets {
        let _ = t.wait(); // ok or typed error — both count as answered
        answered += 1;
    }
    runtime.shutdown();
    let stats = runtime.stats();
    if answered != requests || stats.outstanding() != 0 {
        return Err(format!(
            "chaos-bench: lost tickets under concurrent chaos ({answered}/{requests} answered, \
             {} outstanding)",
            stats.outstanding()
        ));
    }
    println!(
        "serve chaos: {requests}/{requests} tickets answered ({} ok, {} failed, {} timed out, \
         {} degraded batches), zero lost",
        stats.completed, stats.failed, stats.timed_out, stats.degraded
    );
    println!("\nchaos conformance: replay bit-identical, ledgers reproduce, zero lost — OK");
    Ok(())
}

fn cmd_placement_bench(opts: &HashMap<String, String>) -> Result<(), String> {
    use lancet_repro::cost::{optimize_placement, PlacementOptions, PlacementPlan};
    use lancet_repro::moe::{RoutingHistogram, Workload};
    use lancet_repro::serve::{ServeConfig, ServeRuntime};
    use std::time::Duration;

    let quick = opts.contains_key("quick");
    let seed: u64 = match opts.get("seed") {
        Some(v) => v.parse().map_err(|_| format!("bad --seed `{v}`"))?,
        None => std::env::var("LANCET_PLACEMENT_SEED")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0x91ACE),
    };
    let parse_usize = |key: &str, default: usize| -> Result<usize, String> {
        opts.get(key)
            .map(|v| v.parse::<usize>().map_err(|_| format!("bad --{key} `{v}`")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let devices = parse_usize("gpus", 16)?;
    let experts = parse_usize("experts", 32)?;
    let layers = parse_usize("layers", 4)?;
    let tokens = parse_usize("tokens", if quick { 2048 } else { 8192 })?;
    let mut options = PlacementOptions::default();
    if let Ok(v) = std::env::var("LANCET_PLACEMENT_SWEEPS") {
        if let Ok(s) = v.trim().parse() {
            options.sweeps = s;
        }
    }
    let spec = ClusterSpec::of(ClusterKind::V100, devices.div_ceil(8).max(1));
    let gpn = spec.net.gpus_per_node.min(devices).max(1);
    println!(
        "placement-bench: seed {seed:#x}, {layers} MoE layers × {experts} experts on \
         {devices} GPUs ({gpn}/node), Zipf(1.2) routing over {tokens} tokens{}",
        if quick { " (quick)" } else { "" }
    );

    // ── Histogram: route a skewed workload through the real gate and
    // collect per-expert loads + inter-layer transitions.
    let bytes_per_token = 768 * 4; // GPT2-S hidden, fp32 activations
    let hist = RoutingHistogram::collect(
        Workload::Zipf { exponent: 1.2 },
        layers,
        experts,
        tokens,
        bytes_per_token,
        seed,
    )
    .map_err(|e| e.to_string())?;
    let traffic = hist.into_traffic();

    // ── Cost leg: uniform vs optimized placement under the analytical
    // objective (inter-node all-to-all bytes + overload penalty).
    let uniform_plan = PlacementPlan::uniform(layers, experts, devices);
    let (opt_plan, report) = optimize_placement(&traffic, devices, gpn, &options);
    let mib = |b: u64| b as f64 / (1u64 << 20) as f64;
    println!("\n  placement   inter-node MiB   load factor   objective(MiB)");
    for (name, c) in [("uniform", report.uniform), ("optimized", report.optimized)] {
        println!(
            "  {name:<11} {:>14.2} {:>13.3} {:>16.2}",
            mib(c.inter_node_bytes),
            c.load_factor,
            c.objective / (1u64 << 20) as f64
        );
    }
    println!(
        "  search: {} swaps accepted over {} evaluations",
        report.moves, report.evaluations
    );
    if report.optimized.inter_node_bytes > report.uniform.inter_node_bytes {
        return Err("placement-bench: optimized placement moved MORE bytes across nodes".into());
    }
    if report.optimized.objective > report.uniform.objective {
        return Err("placement-bench: optimized objective worse than uniform".into());
    }

    // ── Sim leg: replay the same training schedule under both placements;
    // the optimized plan must not be slower, and on this skewed workload
    // it must be strictly faster.
    let (cfg, cluster) = build_config(&HashMap::from([
        ("model".to_string(), if quick { "tiny".to_string() } else { "s".to_string() }),
        ("gpus".to_string(), devices.to_string()),
    ]))?;
    let sim_spec = ClusterSpec::of(cluster, devices.div_ceil(8).max(1));
    let graph = build_forward(&cfg).map_err(|e| e.to_string())?.graph;
    let simulate = |plan: &PlacementPlan| {
        let sim = Simulator::new(
            ComputeModel::new(sim_spec.device.clone()),
            CommModel::new(sim_spec.clone()),
            SimConfig::new(devices).with_placement(plan.clone(), traffic.clone()),
        );
        sim.simulate(&graph).iteration_time
    };
    let sim_uniform = simulate(&uniform_plan);
    let sim_optimized = simulate(&opt_plan);
    let sim_replay = simulate(&opt_plan);
    println!(
        "\nsim ({}): uniform {:.2} ms → optimized {:.2} ms ({:.2}% faster)",
        cfg.name,
        sim_uniform * 1e3,
        sim_optimized * 1e3,
        (1.0 - sim_optimized / sim_uniform) * 100.0
    );
    if sim_optimized >= sim_uniform {
        return Err(format!(
            "placement-bench: optimized placement did not beat uniform in simulation \
             ({:.3} ms vs {:.3} ms)",
            sim_optimized * 1e3,
            sim_uniform * 1e3
        ));
    }
    if sim_replay != sim_optimized {
        return Err("placement-bench: simulated placement replay is not bit-identical".into());
    }

    // ── Serve leg: affinity dispatch. One worker makes every preference
    // trivially satisfiable, so the hit counter must equal the request
    // count; a second run with more workers checks hit+miss accounting.
    let tiny = GptMoeConfig::tiny(1, GateKind::Switch);
    let requests = if quick { 8 } else { 16 };
    let drive = |workers: usize| -> Result<lancet_repro::serve::ServeStats, String> {
        let runtime = ServeRuntime::start(ServeConfig {
            max_batch: 1,
            batch_window: Duration::ZERO,
            exec_workers: workers,
            affinity: true,
            ..ServeConfig::default()
        });
        runtime.register_model(tiny.clone()).map_err(|e| e.to_string())?;
        for i in 0..requests {
            let ids: Vec<f32> =
                (0..tiny.seq).map(|s| ((i * 3 + s * 5 + 1) % tiny.vocab) as f32).collect();
            runtime.submit_blocking(&tiny.name, ids).map_err(|e| e.to_string())?;
        }
        runtime.shutdown();
        Ok(runtime.stats())
    };
    let solo = drive(1)?;
    let duo = drive(2)?;
    println!(
        "serve affinity: 1 worker {} hits / {} misses; 2 workers {} hits / {} misses",
        solo.placement_hits, solo.placement_misses, duo.placement_hits, duo.placement_misses
    );
    if solo.placement_hits != requests as u64 || solo.placement_misses != 0 {
        return Err(format!(
            "placement-bench: single-worker affinity must hit every request \
             ({} hits, {} misses of {requests})",
            solo.placement_hits, solo.placement_misses
        ));
    }
    if duo.placement_hits + duo.placement_misses != requests as u64 {
        return Err("placement-bench: affinity hit+miss accounting lost requests".into());
    }

    println!(
        "\nwin floor: optimized ≤ uniform inter-node bytes, strict sim win, \
         affinity hits {} of {requests} — OK",
        solo.placement_hits
    );

    if !quick {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/BENCH_placement.json");
        let out = format!(
            "{{\n  \"bench\": \"placement\",\n  \"workload\": {{\"kind\": \"zipf\", \
             \"exponent\": 1.2, \"layers\": {layers}, \"experts\": {experts}, \
             \"tokens\": {tokens}, \"devices\": {devices}, \"gpus_per_node\": {gpn}, \
             \"seed\": {seed}}},\n  \
             \"cost\": {{\n    \"uniform\": {{\"inter_node_mib\": {:.2}, \"load_factor\": {:.3}, \
             \"objective_mib\": {:.2}}},\n    \"optimized\": {{\"inter_node_mib\": {:.2}, \
             \"load_factor\": {:.3}, \"objective_mib\": {:.2}}},\n    \"moves\": {}, \
             \"evaluations\": {}\n  }},\n  \
             \"sim\": {{\"model\": \"{}\", \"uniform_ms\": {:.3}, \"optimized_ms\": {:.3}, \
             \"win_pct\": {:.2}}},\n  \
             \"serve\": {{\"requests\": {requests}, \"solo_hits\": {}, \"solo_misses\": {}, \
             \"duo_hits\": {}, \"duo_misses\": {}}}\n}}\n",
            mib(report.uniform.inter_node_bytes),
            report.uniform.load_factor,
            report.uniform.objective / (1u64 << 20) as f64,
            mib(report.optimized.inter_node_bytes),
            report.optimized.load_factor,
            report.optimized.objective / (1u64 << 20) as f64,
            report.moves,
            report.evaluations,
            cfg.name,
            sim_uniform * 1e3,
            sim_optimized * 1e3,
            (1.0 - sim_optimized / sim_uniform) * 100.0,
            solo.placement_hits,
            solo.placement_misses,
            duo.placement_hits,
            duo.placement_misses,
        );
        std::fs::write(path, out).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_decode_bench(opts: &HashMap<String, String>) -> Result<(), String> {
    use lancet_repro::decode::{
        decode_trace, replay_decode, BatchMode, DecodeConfig, DecodeReplayReport, DecodeRuntime,
    };
    use lancet_repro::serve::ServeStats;

    let quick = opts.contains_key("quick");
    let parse_usize = |key: &str, default: usize| -> Result<usize, String> {
        opts.get(key)
            .map(|v| v.parse::<usize>().map_err(|_| format!("bad --{key} `{v}`")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let requests = parse_usize("requests", if quick { 16 } else { 32 })?;
    let inflight = parse_usize("inflight", 8)?;
    let rate: f64 = match opts.get("rate") {
        Some(v) => v.parse().map_err(|_| format!("bad --rate `{v}`"))?,
        None => 200.0,
    };
    let seed: u64 = 0xdec0de;

    // A decode-sized model: deep enough that a step costs real time (so
    // windowed head-of-line blocking is visible), small enough that the
    // quick gate stays in CI budget.
    let mut cfg = GptMoeConfig::tiny(1, GateKind::Switch);
    cfg.name = "GPT2-XS-MoE-decode".into();
    cfg.layers = 4;
    cfg.hidden = 64;
    cfg.heads = 4;
    cfg.ffn = 128;
    cfg.vocab = 128;
    cfg.batch = 1;
    cfg.seq = 32;

    // Near-simultaneous arrivals with varied generation lengths: under
    // windowed batching the whole second wave waits out the slowest
    // first-wave sequence before its prefill, so continuous batching's
    // step-boundary joins should win mean TTFT by construction.
    let trace = decode_trace(requests, rate, (4, 12), (8, 24), cfg.vocab, seed);
    let expected_tokens: usize = trace.iter().map(|r| r.max_new).sum();
    println!(
        "decode-bench: {requests} requests @ {rate:.0}/s (open loop), prompts 4–12, \
         gen 8–24, model {} ({} layers, hidden {}), in-flight cap {inflight}{}",
        cfg.name,
        cfg.layers,
        cfg.hidden,
        if quick { " (quick)" } else { "" }
    );

    let run_leg = |mode: BatchMode, cap: usize| -> Result<(DecodeReplayReport, ServeStats), String> {
        let runtime = DecodeRuntime::start(DecodeConfig {
            mode,
            max_inflight: cap,
            ..DecodeConfig::default()
        });
        runtime.register_model(cfg.clone()).map_err(|e| e.to_string())?;
        let report = replay_decode(&runtime, &cfg.name, &trace);
        runtime.shutdown();
        Ok((report, runtime.stats()))
    };

    let (cont, cont_stats) = run_leg(BatchMode::Continuous, inflight)?;
    let (win, win_stats) = run_leg(BatchMode::Windowed, inflight)?;

    println!("\n  policy       TTFT mean/p95 (ms)   ITL mean (ms)   tok/s   lost");
    for (name, r) in [("continuous", &cont), ("windowed", &win)] {
        println!(
            "  {name:<12} {:>8.2} / {:<8.2} {:>13.3} {:>7.0} {:>6}",
            r.mean_ttft_ms, r.p95_ttft_ms, r.mean_itl_ms, r.tokens_per_sec, r.token_gaps
        );
    }

    // ── Zero-loss floor: every admitted stream delivers its full,
    // gapless token sequence on both legs.
    for (name, r, stats) in
        [("continuous", &cont, &cont_stats), ("windowed", &win, &win_stats)]
    {
        if r.rejected != 0 || r.failed != 0 {
            return Err(format!(
                "decode-bench: {name} leg dropped requests ({} rejected, {} failed)",
                r.rejected, r.failed
            ));
        }
        if r.token_gaps != 0 {
            return Err(format!(
                "decode-bench: {name} leg violated the streaming contract ({} token gaps)",
                r.token_gaps
            ));
        }
        if r.tokens != expected_tokens {
            return Err(format!(
                "decode-bench: {name} leg lost tokens ({} delivered, {expected_tokens} expected)",
                r.tokens
            ));
        }
        if stats.outstanding() != 0 {
            return Err(format!(
                "decode-bench: {name} leg left {} streams unanswered",
                stats.outstanding()
            ));
        }
    }

    // ── Win floor: continuous batching must beat the windowed baseline
    // on mean TTFT — joining at step boundaries instead of waiting out
    // the running batch is the whole point of the scheduler.
    if cont.mean_ttft_ms >= win.mean_ttft_ms {
        return Err(format!(
            "decode-bench: continuous batching did not improve mean TTFT \
             ({:.2} ms vs windowed {:.2} ms)",
            cont.mean_ttft_ms, win.mean_ttft_ms
        ));
    }
    println!(
        "\nwin floor: continuous TTFT {:.2} ms < windowed {:.2} ms ({:.1}% better), \
         {expected_tokens}/{expected_tokens} tokens, zero gaps — OK",
        cont.mean_ttft_ms,
        win.mean_ttft_ms,
        (1.0 - cont.mean_ttft_ms / win.mean_ttft_ms) * 100.0
    );

    if !quick {
        // ── In-flight sweep: throughput and latency as the continuous
        // scheduler admits more concurrent sequences.
        println!("\n  in-flight   tok/s   TTFT p50/p95 (ms)   ITL p50/p95 (ms)");
        let mut sweep = Vec::new();
        for cap in [1usize, 2, 4, 8] {
            let (r, s) = run_leg(BatchMode::Continuous, cap)?;
            println!(
                "  {cap:>9} {:>7.0} {:>8.2} / {:<8.2} {:>7.3} / {:<7.3}",
                r.tokens_per_sec, s.ttft_p50_ms, s.ttft_p95_ms, s.itl_p50_ms, s.itl_p95_ms
            );
            sweep.push(format!(
                "    {{\"inflight\": {cap}, \"tokens_per_sec\": {:.1}, \
                 \"ttft_p50_ms\": {:.3}, \"ttft_p95_ms\": {:.3}, \
                 \"itl_p50_ms\": {:.3}, \"itl_p95_ms\": {:.3}}}",
                r.tokens_per_sec, s.ttft_p50_ms, s.ttft_p95_ms, s.itl_p50_ms, s.itl_p95_ms
            ));
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/BENCH_decode.json");
        let out = format!(
            "{{\n  \"bench\": \"decode\",\n  \"workload\": {{\"requests\": {requests}, \
             \"rate_hz\": {rate:.1}, \"prompt_len\": [4, 12], \"max_new\": [8, 24], \
             \"tokens\": {expected_tokens}, \"seed\": {seed}}},\n  \
             \"model\": {{\"name\": \"{}\", \"layers\": {}, \"hidden\": {}, \"heads\": {}, \
             \"experts\": {}, \"vocab\": {}}},\n  \
             \"comparison\": {{\n    \"inflight\": {inflight},\n    \
             \"continuous\": {{\"mean_ttft_ms\": {:.3}, \"p95_ttft_ms\": {:.3}, \
             \"mean_itl_ms\": {:.3}, \"tokens_per_sec\": {:.1}}},\n    \
             \"windowed\": {{\"mean_ttft_ms\": {:.3}, \"p95_ttft_ms\": {:.3}, \
             \"mean_itl_ms\": {:.3}, \"tokens_per_sec\": {:.1}}},\n    \
             \"ttft_win_pct\": {:.2}\n  }},\n  \"sweep\": [\n{}\n  ]\n}}\n",
            cfg.name,
            cfg.layers,
            cfg.hidden,
            cfg.heads,
            cfg.experts(),
            cfg.vocab,
            cont.mean_ttft_ms,
            cont.p95_ttft_ms,
            cont.mean_itl_ms,
            cont.tokens_per_sec,
            win.mean_ttft_ms,
            win.p95_ttft_ms,
            win.mean_itl_ms,
            win.tokens_per_sec,
            (1.0 - cont.mean_ttft_ms / win.mean_ttft_ms) * 100.0,
            sweep.join(",\n"),
        );
        std::fs::write(path, out).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Builds the prepacked GEMM panels that `write_store` serializes next to
/// the canonical weights: bind every weight, run the executor's prepack
/// pass, and harvest the per-device panels keyed by weight name.
fn store_pack_panels(
    cfg: &GptMoeConfig,
    canonical: &lancet_repro::serve::CanonicalWeights,
) -> Result<lancet_repro::store::StoredPacks, String> {
    use lancet_repro::exec::Bindings;

    let model = build_forward(cfg).map_err(|e| format!("model graph: {e}"))?;
    let graph = model.graph;
    let devices = canonical.len();
    let mut bindings = Bindings::new(devices);
    for id in graph.weights() {
        let def = graph.tensor(id);
        for (d, map) in canonical.iter().enumerate() {
            let value = map
                .get(&def.name)
                .ok_or_else(|| format!("canonical weights missing `{}`", def.name))?;
            bindings.set(d, id, value.clone());
        }
    }
    bindings.prepack_weights(&graph);

    let mut packs: lancet_repro::store::StoredPacks = vec![HashMap::new(); devices];
    for id in graph.weights() {
        let name = &graph.tensor(id).name;
        for (d, map) in packs.iter_mut().enumerate() {
            if let Some(p) = bindings.packed(d, id) {
                map.insert(name.clone(), std::sync::Arc::new(p.clone()));
            }
        }
    }
    Ok(packs)
}

fn cmd_pack_model(opts: &HashMap<String, String>) -> Result<(), String> {
    use lancet_repro::serve::{canonical_weights, ServeConfig};
    use lancet_repro::store::{open_store_with, write_store, OpenOptions};
    use std::time::Instant;

    // pack-model defaults to the smallest single-device model; serving
    // hosts are the consumers, not the 16-GPU training sweeps.
    let mut opts = opts.clone();
    opts.entry("model".into()).or_insert_with(|| "tiny".into());
    opts.entry("gpus".into()).or_insert_with(|| "1".into());
    let model_key = opts.get("model").cloned().unwrap_or_else(|| "tiny".into());
    let (cfg, _cluster) = build_config(&opts)?;
    let seed: u64 = match opts.get("seed") {
        Some(v) => v.parse().map_err(|_| format!("bad --seed `{v}`"))?,
        None => ServeConfig::default().seed,
    };
    let out = opts.get("out").cloned().unwrap_or_else(|| {
        format!("{}/results/model-{model_key}.lancet", env!("CARGO_MANIFEST_DIR"))
    });

    // The store must hold exactly what register_model would generate, so
    // normalize the capacity factor the same way the runtime does.
    let cfg = cfg.clone().with_capacity_factor(cfg.experts() as f64);
    println!(
        "pack-model: {} ({} layers, hidden {}, {} experts) × {} device(s), seed {seed:#x}",
        cfg.name,
        cfg.layers,
        cfg.hidden,
        cfg.experts(),
        cfg.gpus
    );

    let t = Instant::now();
    let canonical = canonical_weights(&cfg, seed).map_err(|e| e.to_string())?;
    let gen_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let packs = store_pack_panels(&cfg, &canonical)?;
    let pack_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let summary = write_store(std::path::Path::new(&out), &cfg.name, &canonical, &packs)
        .map_err(|e| format!("write {out}: {e}"))?;
    let write_ms = t.elapsed().as_secs_f64() * 1e3;

    // Reopen with the full data checksum on and prove the round trip is
    // bit-identical before calling the file good.
    let t = Instant::now();
    let stored = open_store_with(
        std::path::Path::new(&out),
        OpenOptions { mmap: None, verify_data: Some(true) },
    )
    .map_err(|e| format!("verify {out}: {e}"))?;
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    for (d, map) in canonical.iter().enumerate() {
        for (name, tensor) in map {
            let got = stored.weights[d]
                .get(name)
                .ok_or_else(|| format!("round trip lost `{name}` on device {d}"))?;
            if got.data() != tensor.data() {
                return Err(format!("round trip corrupted `{name}` on device {d}"));
            }
        }
    }

    println!(
        "  weights   {:>8.1} ms to generate, {} tensors ({} deduped to shared payloads)",
        gen_ms, summary.tensors, summary.deduped
    );
    println!("  panels    {:>8.1} ms to prepack, {} pack entries", pack_ms, summary.packs);
    println!(
        "  store     {:>8.1} ms to write, {:.2} MiB, full-checksum reopen {:.1} ms ({})",
        write_ms,
        summary.bytes as f64 / (1024.0 * 1024.0),
        open_ms,
        if stored.mapped { "mapped" } else { "heap fallback" }
    );
    println!("wrote {out}");
    Ok(())
}

fn cmd_fleet_bench(opts: &HashMap<String, String>) -> Result<(), String> {
    use lancet_repro::fleet::{Fleet, FleetConfig};
    use lancet_repro::serve::{canonical_weights, ServeConfig, ServeRuntime};
    use lancet_repro::store::{open_store, write_store};
    use std::time::{Duration, Instant};

    let quick = opts.contains_key("quick");
    let parse_usize = |key: &str, default: usize| -> Result<usize, String> {
        opts.get(key)
            .map(|v| v.parse::<usize>().map_err(|_| format!("bad --{key} `{v}`")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let replicas_max = parse_usize("replicas", 4)?.max(1);
    let requests = parse_usize("requests", if quick { 64 } else { 96 })?.max(replicas_max);
    let floor_ms = parse_usize("floor", 10)? as u64;

    // One exec worker per replica and a fixed per-batch service floor
    // emulate N fixed-latency devices, so the scaling table measures the
    // fleet's routing/stealing, not host-CPU contention.
    let serve = ServeConfig {
        max_batch: 2,
        batch_window: Duration::from_millis(1),
        exec_workers: 1,
        service_floor: Duration::from_millis(floor_ms),
        ..ServeConfig::default()
    };
    let cfg = {
        let mut c = GptMoeConfig::tiny(1, GateKind::Switch);
        c.name = "GPT2-XS-MoE-fleet".into();
        c
    };
    println!(
        "fleet-bench: {requests} requests, 1→{replicas_max} replicas, {floor_ms} ms service \
         floor, model {}{}",
        cfg.name,
        if quick { " (quick)" } else { "" }
    );

    // ── Cold start: pack the model once, then time the store path
    // against regenerating weights, keeping first-request latency (plan
    // build + execute) separate from load time.
    let normalized = cfg.clone().with_capacity_factor(cfg.experts() as f64);
    let canonical = canonical_weights(&normalized, serve.seed).map_err(|e| e.to_string())?;
    let packs = store_pack_panels(&normalized, &canonical)?;
    let store_path =
        std::env::temp_dir().join(format!("lancet-fleet-bench-{}.lancet", std::process::id()));
    let t = Instant::now();
    let summary = write_store(&store_path, &normalized.name, &canonical, &packs)
        .map_err(|e| e.to_string())?;
    let pack_write_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let stored = open_store(&store_path).map_err(|e| e.to_string())?;
    let open_ms = t.elapsed().as_secs_f64() * 1e3;

    let prompt = |salt: usize| -> Vec<f32> {
        (0..cfg.seq).map(|t| ((t + salt) % cfg.vocab) as f32).collect()
    };

    let rt_stored = ServeRuntime::start(serve.clone());
    let t = Instant::now();
    rt_stored
        .register_model_with_weights(cfg.clone(), stored.weights.clone(), Some(stored.packs.clone()))
        .map_err(|e| e.to_string())?;
    let register_stored_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let stored_reply = rt_stored.submit_blocking(&cfg.name, prompt(0)).map_err(|e| e.to_string())?;
    let first_request_ms = t.elapsed().as_secs_f64() * 1e3;
    rt_stored.shutdown();

    let rt_gen = ServeRuntime::start(serve.clone());
    let t = Instant::now();
    rt_gen.register_model(cfg.clone()).map_err(|e| e.to_string())?;
    let register_generated_ms = t.elapsed().as_secs_f64() * 1e3;
    let gen_reply = rt_gen.submit_blocking(&cfg.name, prompt(0)).map_err(|e| e.to_string())?;
    rt_gen.shutdown();
    if stored_reply != gen_reply {
        return Err("fleet-bench: store-loaded weights diverged from generated weights".into());
    }

    println!(
        "\n  cold start: store {:.2} MiB written in {pack_write_ms:.1} ms, opened in \
         {open_ms:.2} ms ({}), register stored {register_stored_ms:.1} ms vs generated \
         {register_generated_ms:.1} ms, first request {first_request_ms:.1} ms",
        summary.bytes as f64 / (1024.0 * 1024.0),
        if stored.mapped { "mapped" } else { "heap fallback" }
    );

    // ── Scaling sweep: the same closed burst through 1..=N replicas.
    println!("\n  replicas   wall (ms)   req/s   speedup   p50 (ms)   p99 (ms)   stolen");
    let mut rows: Vec<String> = Vec::new();
    let mut base_rps = 0.0f64;
    let mut gate_speedup = 0.0f64;
    for n in 1..=replicas_max {
        let fleet = Fleet::start(FleetConfig {
            replicas: n,
            serve: serve.clone(),
            steal_threshold: 1,
        });
        fleet
            .register_model_with_weights(cfg.clone(), &stored.weights, Some(&stored.packs))
            .map_err(|e| e.to_string())?;
        // Pre-build every bucket's plan on every replica, then run one
        // settling wave, so the timed burst measures steady-state
        // service rather than plan compilation.
        fleet.warm(&cfg.name).map_err(|e| e.to_string())?;
        let warm: Vec<_> = (0..(2 * n))
            .map(|i| fleet.submit(&cfg.name, prompt(i)))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        for t in warm {
            t.wait().map_err(|e| e.to_string())?;
        }

        let t = Instant::now();
        let tickets: Vec<_> = (0..requests)
            .map(|i| fleet.submit(&cfg.name, prompt(i)))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        for ticket in tickets {
            ticket.wait().map_err(|e| e.to_string())?;
        }
        let wall = t.elapsed().as_secs_f64();
        let stats = fleet.stats();
        fleet.shutdown();
        if stats.merged.outstanding() != 0 {
            return Err(format!(
                "fleet-bench: {n}-replica leg left {} requests unanswered",
                stats.merged.outstanding()
            ));
        }

        let rps = requests as f64 / wall;
        if n == 1 {
            base_rps = rps;
        }
        let speedup = rps / base_rps;
        if n == replicas_max.min(4) {
            gate_speedup = speedup;
        }
        println!(
            "  {n:>8} {:>11.1} {:>7.1} {:>8.2}x {:>10.2} {:>10.2} {:>8}",
            wall * 1e3,
            rps,
            speedup,
            stats.merged.p50_ms,
            stats.merged.p99_ms,
            stats.stolen
        );
        rows.push(format!(
            "    {{\"replicas\": {n}, \"requests\": {requests}, \"wall_ms\": {:.1}, \
             \"throughput_rps\": {:.1}, \"speedup\": {:.3}, \"p50_ms\": {:.3}, \
             \"p99_ms\": {:.3}, \"stolen\": {}}}",
            wall * 1e3,
            rps,
            speedup,
            stats.merged.p50_ms,
            stats.merged.p99_ms,
            stats.stolen
        ));
    }

    // ── Scaling floor: with device time emulated, 4 replicas must buy
    // well over half their nominal capacity.
    if replicas_max >= 4 && gate_speedup < 2.5 {
        return Err(format!(
            "fleet-bench: 4 replicas reached only {gate_speedup:.2}x a single replica \
             (floor 2.5x)"
        ));
    }

    // ── Chaos leg: kill the routed replica with its queue full; every
    // admitted ticket must still answer via re-routing.
    let chaos_replicas = replicas_max.clamp(2, 3);
    let chaos_requests = 24usize;
    let fleet = Fleet::start(FleetConfig {
        replicas: chaos_replicas,
        serve: ServeConfig { service_floor: Duration::from_millis(5), ..serve.clone() },
        steal_threshold: usize::MAX,
    });
    fleet
        .register_model_with_weights(cfg.clone(), &stored.weights, Some(&stored.packs))
        .map_err(|e| e.to_string())?;
    let home = fleet.route_of(&cfg.name).map_err(|e| e.to_string())?;
    let tickets: Vec<_> = (0..chaos_requests)
        .map(|i| fleet.submit(&cfg.name, prompt(i)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    fleet.crash(home);
    let mut lost = 0usize;
    for ticket in tickets {
        if ticket.wait().is_err() {
            lost += 1;
        }
    }
    let chaos = fleet.stats();
    fleet.shutdown();
    if lost != 0 || chaos.merged.outstanding() != 0 {
        return Err(format!(
            "fleet-bench: chaos leg lost {lost} tickets ({} unanswered)",
            chaos.merged.outstanding()
        ));
    }
    println!(
        "\n  chaos: crashed replica {home}/{chaos_replicas} with {} queued tickets drained, \
         {} re-routed, 0 lost",
        chaos.merged.crashed, chaos.rerouted
    );
    println!(
        "\nscaling floor: {} replicas at {gate_speedup:.2}x ≥ 2.5x, chaos 0 lost — OK",
        replicas_max.min(4)
    );
    let _ = std::fs::remove_file(&store_path);

    if !quick {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/BENCH_fleet.json");
        let out = format!(
            "{{\n  \"bench\": \"fleet\",\n  \"workload\": {{\"requests\": {requests}, \
             \"service_floor_ms\": {floor_ms}, \"max_batch\": {}, \"seed\": {}}},\n  \
             \"model\": {{\"name\": \"{}\", \"layers\": {}, \"hidden\": {}, \
             \"experts\": {}, \"vocab\": {}}},\n  \
             \"cold_start\": {{\"store_bytes\": {}, \"store_tensors\": {}, \
             \"store_packs\": {}, \"deduped\": {}, \"pack_write_ms\": {pack_write_ms:.2}, \
             \"open_ms\": {open_ms:.3}, \"mapped\": {}, \
             \"register_stored_ms\": {register_stored_ms:.2}, \
             \"register_generated_ms\": {register_generated_ms:.2}, \
             \"first_request_ms\": {first_request_ms:.2}}},\n  \
             \"scaling\": [\n{}\n  ],\n  \
             \"chaos\": {{\"replicas\": {chaos_replicas}, \"requests\": {chaos_requests}, \
             \"crashed\": {}, \"rerouted\": {}, \"lost\": {lost}}}\n}}\n",
            serve.max_batch,
            serve.seed,
            cfg.name,
            cfg.layers,
            cfg.hidden,
            cfg.experts(),
            cfg.vocab,
            summary.bytes,
            summary.tensors,
            summary.packs,
            summary.deduped,
            stored.mapped,
            rows.join(",\n"),
            chaos.merged.crashed,
            chaos.rerouted,
        );
        std::fs::write(path, out).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args() {
        Ok((cmd, opts)) => {
            let result = match cmd.as_str() {
                "optimize" => cmd_optimize(&opts),
                "compare" => cmd_compare(&opts),
                "serve-bench" => cmd_serve_bench(&opts),
                "tune-gemm" => cmd_tune_gemm(&opts),
                "chaos-bench" => cmd_chaos_bench(&opts),
                "placement-bench" => cmd_placement_bench(&opts),
                "decode-bench" => cmd_decode_bench(&opts),
                "pack-model" => cmd_pack_model(&opts),
                "fleet-bench" => cmd_fleet_bench(&opts),
                "help" | "--help" | "-h" => {
                    print!("{USAGE}");
                    Ok(())
                }
                other => Err(format!("unknown command `{other}`")),
            };
            match result {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}\n\n{USAGE}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
