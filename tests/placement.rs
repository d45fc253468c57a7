//! Property tests for the expert-placement pipeline's determinism
//! contract (docs/ARCHITECTURE.md, "Expert placement & affinity
//! routing"): the same histogram seed and worker count must yield a
//! bit-identical [`PlacementPlan`], and the skewed-routing simulation
//! win over uniform placement must reproduce exactly across replays.
//!
//! Runs 10 cases by default; set `LANCET_PROPTEST_CASES` to raise the
//! coverage without editing this file.

use lancet_repro::cost::{optimize_placement, PlacementOptions, PlacementPlan};
use lancet_repro::cost::{ClusterKind, ClusterSpec, CommModel, ComputeModel};
use lancet_repro::models::{build_forward, GptMoeConfig};
use lancet_repro::moe::{RoutingHistogram, Workload};
use lancet_repro::sim::{SimConfig, Simulator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::env_cases(10))]

    /// Same seed + worker count ⇒ the histogram, the search, and the
    /// resulting plan are all bit-identical. The search is also
    /// swap-only, so every device keeps its uniform expert count (the
    /// memory-capacity invariant).
    #[test]
    fn placement_search_is_deterministic(
        seed in any::<u64>(),
        layers in 1usize..5,
        experts_pow in 4u32..6,
        devices_pow in 3u32..5,
        tokens in 256usize..1024,
    ) {
        let experts = 1usize << experts_pow;
        let devices = (1usize << devices_pow).min(experts);
        let collect = || {
            RoutingHistogram::collect(
                Workload::Zipf { exponent: 1.2 }, layers, experts, tokens, 3072, seed,
            )
            .unwrap()
            .into_traffic()
        };
        let traffic = collect();
        prop_assert_eq!(&traffic, &collect(), "histogram collection diverged");

        let opts = PlacementOptions::default();
        let (plan_a, report_a) = optimize_placement(&traffic, devices, 8, &opts);
        let (plan_b, report_b) = optimize_placement(&traffic, devices, 8, &opts);
        prop_assert_eq!(&plan_a, &plan_b, "placement search diverged");
        prop_assert_eq!(report_a.moves, report_b.moves);
        prop_assert!(report_a.optimized.objective <= report_a.uniform.objective + 1e-9);

        // Swap-only: per-device expert counts match the uniform plan's.
        let uniform = PlacementPlan::uniform(layers, experts, devices);
        for l in 0..layers {
            let mut want = vec![0usize; devices];
            let mut got = vec![0usize; devices];
            for e in 0..experts {
                want[uniform.device_of(l, e)] += 1;
                got[plan_a.device_of(l, e)] += 1;
            }
            prop_assert_eq!(&want, &got, "layer {} capacity changed", l);
        }
    }

    /// Replaying the same schedule under the same placement is
    /// bit-identical, and the optimized placement never simulates
    /// slower than uniform on a skewed histogram.
    #[test]
    fn skewed_sim_win_reproduces(seed in any::<u64>()) {
        let (layers, experts, devices, tokens) = (2usize, 32usize, 16usize, 512usize);
        let traffic = RoutingHistogram::collect(
            Workload::Zipf { exponent: 1.2 }, layers, experts, tokens, 3072, seed,
        )
        .unwrap()
        .into_traffic();
        let (optimized, _) =
            optimize_placement(&traffic, devices, 8, &PlacementOptions::default());
        let uniform = PlacementPlan::uniform(layers, experts, devices);

        let cfg = GptMoeConfig::tiny(devices, lancet_repro::ir::GateKind::Switch);
        let graph = build_forward(&cfg).unwrap().graph;
        let spec = ClusterSpec::of(ClusterKind::V100, devices.div_ceil(8));
        let simulate = |plan: &PlacementPlan| {
            let sim = Simulator::new(
                ComputeModel::new(spec.device.clone()),
                CommModel::new(spec.clone()),
                SimConfig::new(devices).with_placement(plan.clone(), traffic.clone()),
            );
            sim.simulate(&graph).iteration_time
        };
        let t_uniform = simulate(&uniform);
        let t_optimized = simulate(&optimized);
        prop_assert!(
            t_optimized <= t_uniform + 1e-12,
            "optimized placement simulated slower: {} vs {}",
            t_optimized,
            t_uniform
        );
        prop_assert_eq!(simulate(&uniform).to_bits(), t_uniform.to_bits());
        prop_assert_eq!(simulate(&optimized).to_bits(), t_optimized.to_bits());
    }
}

/// The pinned configuration behind `results/BENCH_placement.json` must
/// keep its *strict* simulation win and move no more inter-node bytes
/// than uniform — the placement bench's floors, gated here by the test
/// suite — a fixed anchor alongside the randomized non-strict property
/// above.
#[test]
fn pinned_skewed_workload_wins_strictly() {
    let (layers, experts, devices, tokens, seed) = (4usize, 32usize, 16usize, 2048usize, 0x91ACE);
    let traffic = RoutingHistogram::collect(
        Workload::Zipf { exponent: 1.2 }, layers, experts, tokens, 3072, seed,
    )
    .unwrap()
    .into_traffic();
    let (optimized, report) =
        optimize_placement(&traffic, devices, 8, &PlacementOptions::default());
    assert!(report.optimized.objective < report.uniform.objective);
    assert!(
        report.optimized.inter_node_bytes <= report.uniform.inter_node_bytes,
        "optimized placement moved more bytes across nodes than uniform: {} vs {}",
        report.optimized.inter_node_bytes,
        report.uniform.inter_node_bytes
    );

    let cfg = GptMoeConfig::tiny(devices, lancet_repro::ir::GateKind::Switch);
    let graph = build_forward(&cfg).unwrap().graph;
    let spec = ClusterSpec::of(ClusterKind::V100, devices.div_ceil(8));
    let simulate = |plan: PlacementPlan| {
        let sim = Simulator::new(
            ComputeModel::new(spec.device.clone()),
            CommModel::new(spec.clone()),
            SimConfig::new(devices).with_placement(plan, traffic.clone()),
        );
        sim.simulate(&graph).iteration_time
    };
    let t_uniform = simulate(PlacementPlan::uniform(layers, experts, devices));
    let t_optimized = simulate(optimized);
    assert!(
        t_optimized < t_uniform,
        "pinned skewed workload lost its strict sim win: {t_optimized} vs {t_uniform}"
    );
}
