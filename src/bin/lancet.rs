//! `lancet` — command-line front end for the Lancet reproduction.
//!
//! ```text
//! lancet optimize   --model s --cluster v100 --gpus 16 --gate switch [--trace t.json]
//! lancet compare    --model l --cluster a100 --gpus 32 --gate bpr
//! lancet tune-gemm  [--samples 3] [--quick]
//! lancet pack-model [--model tiny] [--gpus 1] [--out results/model-tiny.lancet]
//! ```
//!
//! `optimize` runs the Lancet passes on one configuration and reports the
//! predicted and simulated iteration time (optionally dumping the IR and
//! a Chrome trace). `compare` runs every system (DeepSpeed / Tutel / RAF /
//! Lancet) on the same configuration.
//! `tune-gemm` searches GEMM cache blockings (`MC/KC/NC`) per weight
//! shape and `m` class on the detected ISA and writes the table to
//! `results/TUNE_gemm.json`; runtimes opt in via `LANCET_GEMM_TUNE`.
//! Blocking never changes computed bits, only traversal, so a tuned
//! table is purely a performance knob.
//! `pack-model` writes a model's canonical weights and prepacked GEMM
//! panels to a `lancet-store` file that runtimes load zero-copy (mmap).
//!
//! The serving, decode, placement and fleet benchmarks are bench targets
//! of `lancet-bench`: `cargo bench -p lancet-bench --bench <name>
//! [-- --quick]`.

use lancet_repro::baselines::{run_system, System};
use lancet_repro::core::{Lancet, LancetOptions};
use lancet_repro::cost::{ClusterKind, ClusterSpec, CommModel, ComputeModel};
use lancet_repro::ir::{summarize, to_text, GateKind};
use lancet_repro::models::{build_forward, GptMoeConfig};
use lancet_repro::sim::{to_chrome_trace, SimConfig, Simulator};
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "\
usage: lancet <optimize|compare|tune-gemm|pack-model> [options]

pack-model options:
  --model <s|l|mixtral|tiny>  model to pack (default: tiny)
  --gpus <N>                device count to canonicalize for (default: 1)
  --out <FILE>              store path (default: results/model-<name>.lancet)
  --seed <N>                weight seed (default: the serving default)

tune-gemm options:
  --samples <N>             timed runs per candidate blocking (default: 3)
  --quick                   small candidate grid, no artifact written

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

fn cmd_pack_model(opts: &HashMap<String, String>) -> Result<(), String> {
    use lancet_repro::serve::{canonical_weights, pack_weights, ServeConfig};
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
    let packs = pack_weights(&cfg, &canonical).map_err(|e| e.to_string())?;
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

fn main() -> ExitCode {
    match parse_args() {
        Ok((cmd, opts)) => {
            let result = match cmd.as_str() {
                "optimize" => cmd_optimize(&opts),
                "compare" => cmd_compare(&opts),
                "tune-gemm" => cmd_tune_gemm(&opts),
                "pack-model" => cmd_pack_model(&opts),
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
