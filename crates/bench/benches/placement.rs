//! Expert placement on a skewed routing workload: uniform vs optimized.
//!
//! Collects a Zipf(1.2) routing histogram through the real gate, runs the
//! expert-placement search, and proves the win floor on three legs:
//!
//! * cost — the optimized placement moves no more inter-node bytes than
//!   uniform and has no worse objective;
//! * sim — it is strictly faster in simulated step time, and the replay
//!   is bit-identical;
//! * serve — affinity dispatch with one worker lands every request on its
//!   preferred worker, and hit + miss accounting covers every request with
//!   two workers.
//!
//! Run modes:
//!
//! * `cargo bench -p lancet-bench --bench placement` — full run (GPT2-S,
//!   8192 tokens), writes `results/BENCH_placement.json`.
//! * `cargo bench -p lancet-bench --bench placement -- --quick` — smaller
//!   histogram and model, every floor still asserted, no artifact.

use std::time::Duration;

use lancet_bench::Json;
use lancet_cost::{
    optimize_placement, ClusterKind, ClusterSpec, CommModel, ComputeModel, PlacementCost,
    PlacementOptions, PlacementPlan,
};
use lancet_ir::GateKind;
use lancet_models::{build_forward, GptMoeConfig};
use lancet_moe::{RoutingHistogram, Workload};
use lancet_serve::{ServeConfig, ServeRuntime, ServeStats};
use lancet_sim::{SimConfig, Simulator};

/// Routing-histogram seed.
const SEED: u64 = 0x91ACE;
const DEVICES: usize = 16;
const EXPERTS: usize = 32;
const LAYERS: usize = 4;
const ZIPF: f64 = 1.2;
/// GPT2-S hidden, fp32 activations.
const BYTES_PER_TOKEN: u64 = 768 * 4;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let tokens = if quick { 2048 } else { 8192 };
    let spec = ClusterSpec::of(ClusterKind::V100, DEVICES.div_ceil(8));
    let gpn = spec.net.gpus_per_node.min(DEVICES);
    println!(
        "placement: seed {SEED:#x}, {LAYERS} MoE layers × {EXPERTS} experts on {DEVICES} GPUs \
         ({gpn}/node), Zipf({ZIPF}) routing over {tokens} tokens{}",
        if quick { " (quick)" } else { "" }
    );

    // ── Cost leg: uniform vs optimized placement under the analytical
    // objective (inter-node all-to-all bytes + overload penalty).
    let traffic = RoutingHistogram::collect(
        Workload::Zipf { exponent: ZIPF },
        LAYERS,
        EXPERTS,
        tokens,
        BYTES_PER_TOKEN,
        SEED,
    )
    .expect("routing histogram")
    .into_traffic();
    let uniform_plan = PlacementPlan::uniform(LAYERS, EXPERTS, DEVICES);
    let (opt_plan, report) =
        optimize_placement(&traffic, DEVICES, gpn, &PlacementOptions::default());
    let mib = |b: f64| b / (1u64 << 20) as f64;
    println!("\n  placement   inter-node MiB   load factor   objective(MiB)");
    for (name, c) in [("uniform", report.uniform), ("optimized", report.optimized)] {
        println!(
            "  {name:<11} {:>14.2} {:>13.3} {:>16.2}",
            mib(c.inter_node_bytes as f64),
            c.load_factor,
            mib(c.objective)
        );
    }
    println!("  search: {} swaps accepted over {} evaluations", report.moves, report.evaluations);
    assert!(
        report.optimized.inter_node_bytes <= report.uniform.inter_node_bytes,
        "optimized placement moved MORE bytes across nodes"
    );
    assert!(
        report.optimized.objective <= report.uniform.objective,
        "optimized objective worse than uniform"
    );

    // ── Sim leg: replay the same training schedule under both placements;
    // on this skewed workload the optimized plan must be strictly faster.
    let cfg = if quick {
        GptMoeConfig::tiny(DEVICES, GateKind::Switch)
    } else {
        GptMoeConfig::gpt2_s_moe(DEVICES, GateKind::Switch).with_batch(16)
    };
    let graph = build_forward(&cfg).expect("model graph").graph;
    let simulate = |plan: &PlacementPlan| {
        let sim = Simulator::new(
            ComputeModel::new(spec.device.clone()),
            CommModel::new(spec.clone()),
            SimConfig::new(DEVICES).with_placement(plan.clone(), traffic.clone()),
        );
        sim.simulate(&graph).iteration_time
    };
    let sim_uniform = simulate(&uniform_plan);
    let sim_optimized = simulate(&opt_plan);
    let win_pct = (1.0 - sim_optimized / sim_uniform) * 100.0;
    println!(
        "\nsim ({}): uniform {:.2} ms → optimized {:.2} ms ({win_pct:.2}% faster)",
        cfg.name,
        sim_uniform * 1e3,
        sim_optimized * 1e3
    );
    assert!(
        sim_optimized < sim_uniform,
        "optimized placement did not beat uniform in simulation ({:.3} ms vs {:.3} ms)",
        sim_optimized * 1e3,
        sim_uniform * 1e3
    );
    assert_eq!(simulate(&opt_plan), sim_optimized, "simulated placement replay not bit-identical");

    // ── Serve leg: affinity dispatch. One worker makes every preference
    // trivially satisfiable, so the hit counter must equal the request
    // count; a second run with more workers checks hit+miss accounting.
    let tiny = GptMoeConfig::tiny(1, GateKind::Switch);
    let requests: u64 = if quick { 8 } else { 16 };
    let drive = |workers: usize| -> ServeStats {
        let runtime = ServeRuntime::start(ServeConfig {
            max_batch: 1,
            batch_window: Duration::ZERO,
            exec_workers: workers,
            affinity: true,
            ..ServeConfig::default()
        });
        runtime.register_model(tiny.clone()).expect("register");
        for i in 0..requests as usize {
            let ids = (0..tiny.seq).map(|s| ((i * 3 + s * 5 + 1) % tiny.vocab) as f32).collect();
            runtime.submit_blocking(&tiny.name, ids).expect("serve");
        }
        runtime.shutdown();
        runtime.stats()
    };
    let solo = drive(1);
    let duo = drive(2);
    println!(
        "serve affinity: 1 worker {} hits / {} misses; 2 workers {} hits / {} misses",
        solo.placement_hits, solo.placement_misses, duo.placement_hits, duo.placement_misses
    );
    assert!(
        solo.placement_hits == requests && solo.placement_misses == 0,
        "single-worker affinity must hit every request ({} hits, {} misses of {requests})",
        solo.placement_hits,
        solo.placement_misses
    );
    assert_eq!(
        duo.placement_hits + duo.placement_misses,
        requests,
        "affinity hit+miss accounting lost requests"
    );
    println!(
        "\nwin floor: optimized ≤ uniform inter-node bytes, strict sim win, \
         affinity hits {requests} of {requests} — OK"
    );

    if !quick {
        let cost = |c: PlacementCost| {
            Json::obj([
                ("inter_node_mib", Json::fixed(mib(c.inter_node_bytes as f64), 2)),
                ("load_factor", Json::fixed(c.load_factor, 3)),
                ("objective_mib", Json::fixed(mib(c.objective), 2)),
            ])
        };
        let artifact = Json::obj([
            ("bench", "placement".into()),
            (
                "workload",
                Json::obj([
                    ("kind", "zipf".into()),
                    ("exponent", ZIPF.into()),
                    ("layers", LAYERS.into()),
                    ("experts", EXPERTS.into()),
                    ("tokens", tokens.into()),
                    ("devices", DEVICES.into()),
                    ("gpus_per_node", gpn.into()),
                    ("seed", SEED.into()),
                ]),
            ),
            (
                "cost",
                Json::obj([
                    ("uniform", cost(report.uniform)),
                    ("optimized", cost(report.optimized)),
                    ("moves", report.moves.into()),
                    ("evaluations", report.evaluations.into()),
                ]),
            ),
            (
                "sim",
                Json::obj([
                    ("model", cfg.name.as_str().into()),
                    ("uniform_ms", Json::fixed(sim_uniform * 1e3, 3)),
                    ("optimized_ms", Json::fixed(sim_optimized * 1e3, 3)),
                    ("win_pct", Json::fixed(win_pct, 2)),
                ]),
            ),
            (
                "serve",
                Json::obj([
                    ("requests", requests.into()),
                    ("solo_hits", solo.placement_hits.into()),
                    ("solo_misses", solo.placement_misses.into()),
                    ("duo_hits", duo.placement_hits.into()),
                    ("duo_misses", duo.placement_misses.into()),
                ]),
            ),
        ]);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_placement.json");
        artifact.save(path).expect("write BENCH_placement.json");
        println!("wrote {path}");
    }
}
