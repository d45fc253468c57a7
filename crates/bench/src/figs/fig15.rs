//! Paper Fig. 15 — Lancet's optimization (compile) time, dominated by the
//! operator-partition pass and not a function of cluster size.

use crate::{gpu_sweep, paper_config, print_table, Model, Record};
use lancet_baselines::{run_system, System};
use lancet_core::{partition_pass_with, PartitionMemo, PartitionOptions, TimeEstimator};
use lancet_cost::ClusterKind;
use lancet_ir::GateKind;
use std::time::Instant;

/// Measures optimization wall-clock time across models and GPU counts.
pub fn run(quick: bool) -> Vec<Record> {
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for model in Model::all() {
        for gpus in gpu_sweep(quick) {
            let cfg = paper_config(model, ClusterKind::A100, gpus, GateKind::Switch);
            let out = run_system(System::Lancet, &cfg, ClusterKind::A100).expect("run");
            let opt = out.opt_time.expect("lancet reports opt time").as_secs_f64();
            let pricings = out.partition.as_ref().map_or(0, |p| p.evaluations);
            rows.push(vec![
                model.name().into(),
                gpus.to_string(),
                format!("{opt:.2}"),
                pricings.to_string(),
            ]);
            let mut r = Record::new("fig15");
            r.model = model.name().into();
            r.cluster = "A100".into();
            r.gpus = gpus;
            r.system = "Lancet".into();
            r.gate = "switch".into();
            r.opt_time_s = Some(opt);
            // P(i, n, k) pricings requested: the search's work, free of
            // the host noise in its time.
            r.extra = Some(pricings as f64);
            records.push(r);
        }
    }
    print_table(
        "Fig. 15 — optimization time, Switch gate (seconds)",
        &["Model", "GPUs", "Optimization time (s)", "P(i,n,k) pricings"],
        &rows,
    );
    println!(
        "\nReading: optimization time is largely independent of GPU count, \
         matching the paper. Unlike the paper's, it barely grows with layer \
         count (GPT2-L ≈ GPT2-S): the structural memo prices each distinct \
         segment once and answers the repeated layers in time linear in the \
         segment. Absolute values are far below the paper's ~minutes because \
         our op profiler is analytical rather than running real kernels."
    );
    records
}

/// One timed configuration of the partition-search engine.
struct EngineRun {
    /// Display / record name.
    system: &'static str,
    /// Search-engine knobs under test.
    opts: PartitionOptions,
    /// Whether to reuse the memo warmed by the previous configurations
    /// (models repeated `Lancet::optimize` calls on one instance).
    reuse_memo: bool,
}

/// Times one partition-pass run and returns `(wall seconds, report)`.
fn time_partition(
    forward: &lancet_ir::Graph,
    estimator: &TimeEstimator,
    opts: &PartitionOptions,
    memo: &PartitionMemo,
) -> (f64, lancet_core::PartitionReport) {
    let started = Instant::now();
    let (_, report) = partition_pass_with(forward, estimator, opts, memo).expect("partition pass");
    (started.elapsed().as_secs_f64(), report)
}

/// The optimization-time *story*: the same DP search run by the
/// pre-engine sequential evaluator, then with worker threads, then with
/// the structural memo (cold and warm). Complements [`run`], which
/// reports end-to-end optimization time; this isolates the partition
/// pass — where that time goes — on GPT2-S-MoE with default options.
pub fn run_engine(quick: bool) -> Vec<Record> {
    engine_runs(quick).into_iter().map(|(record, _)| record).collect()
}

/// [`run_engine`]'s table, with each configuration's partition report.
fn engine_runs(quick: bool) -> Vec<(Record, lancet_core::PartitionReport)> {
    let gpus = 16;
    let cfg = paper_config(Model::S, ClusterKind::A100, gpus, GateKind::Switch);
    let cfg = if quick { cfg.with_layers(4) } else { cfg };
    let forward = lancet_models::build_forward(&cfg).expect("build").graph;
    let lancet = lancet_core::Lancet::new(
        lancet_cost::ClusterSpec::a100(gpus / 8),
        gpus,
        lancet_core::LancetOptions::default(),
    );
    let estimator = lancet.estimator();

    let configs = [
        EngineRun {
            system: "sequential (baseline)",
            opts: PartitionOptions { workers: 1, memoize: false, ..Default::default() },
            reuse_memo: false,
        },
        EngineRun {
            system: "parallel",
            opts: PartitionOptions { workers: 4, memoize: false, ..Default::default() },
            reuse_memo: false,
        },
        EngineRun {
            system: "parallel+memo (cold)",
            opts: PartitionOptions::default(),
            reuse_memo: false,
        },
        EngineRun {
            system: "parallel+memo (warm)",
            opts: PartitionOptions::default(),
            reuse_memo: true,
        },
    ];

    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut baseline_time = None;
    let mut baseline_report = None;
    let shared_memo = PartitionMemo::new();
    for run in &configs {
        let fresh_memo = PartitionMemo::new();
        let memo = if run.reuse_memo { &shared_memo } else { &fresh_memo };
        // Warm the shared memo for the "(warm)" row with the cold run's
        // evaluations, like repeated `Lancet::optimize` calls would.
        let memo = if run.opts.memoize && !run.reuse_memo { &shared_memo } else { memo };
        let (secs, report) = time_partition(&forward, estimator, &run.opts, memo);
        let base = *baseline_time.get_or_insert(secs);
        match &baseline_report {
            None => baseline_report = Some(report.clone()),
            Some(b) => {
                assert_eq!(report.ranges, b.ranges, "{}: ranges diverged from sequential", run.system);
                assert_eq!(
                    report.estimated_forward_time, b.estimated_forward_time,
                    "{}: estimate diverged from sequential",
                    run.system
                );
            }
        }
        rows.push(vec![
            run.system.into(),
            format!("{}", report.workers),
            format!("{:.3}", secs),
            format!("{:.1}x", base / secs.max(1e-12)),
            report.evaluations.to_string(),
            report.memo_hits.to_string(),
            format!("{:.0}%", report.memo_hit_ratio() * 100.0),
        ]);
        let mut r = Record::new("fig15_engine");
        r.model = cfg.name.clone();
        r.cluster = "A100".into();
        r.gpus = gpus;
        r.system = run.system.into();
        r.gate = "switch".into();
        r.opt_time_s = Some(secs);
        r.extra = Some(report.memo_hit_ratio());
        records.push((r, report));
    }
    print_table(
        "Fig. 15 supplement — partition-search engine, GPT2-S-MoE (A100, 16 GPUs)",
        &["Engine", "Workers", "partition_pass (s)", "Speedup", "Pricings", "Memo hits", "Hit rate"],
        &rows,
    );
    println!(
        "\nReading: every engine returns bit-identical ranges and estimates \
         (asserted above). The memo delivers the bulk of the speedup — GPT2's \
         repeated layers mean most DP candidates are structurally identical — \
         and a warm memo (repeated optimize calls on one Lancet instance) \
         reduces the search to pure cache lookups. Thread workers help only \
         when the host actually has spare cores."
    );
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The engine's acceptance gate: the default engine with a warm memo
    /// — the steady state of repeated `Lancet::optimize` calls — is at
    /// least 2x faster than the sequential, unmemoized search on
    /// GPT2-S-MoE; every engine returns bit-identical results (asserted
    /// inside `engine_runs`). The cold engine is gated on its memo
    /// counters, not on seconds, whose ratio to the sequential run's
    /// swings with scheduler noise: it must answer some pricings from the
    /// memo and so materialize fewer pipelines than the sequential search
    /// (its seconds stay in the figure record). Thread workers add speedup
    /// only on multi-core hosts, so this gate does not depend on them.
    #[test]
    fn engine_speedup_at_least_2x() {
        let runs = engine_runs(true);
        assert_eq!(runs.len(), 4);
        let run = |system: &str| {
            runs.iter().find(|(r, _)| r.system == system).expect("missing engine record")
        };
        let secs = |system: &str| run(system).0.opt_time_s.expect("timed");
        let sequential = secs("sequential (baseline)");
        let warm = secs("parallel+memo (warm)");
        assert!(
            sequential >= 2.0 * warm,
            "warm memoized search not 2x faster: sequential {sequential}s vs warm {warm}s"
        );
        let (_, seq) = run("sequential (baseline)");
        let (_, cold) = run("parallel+memo (cold)");
        assert!(cold.memo_hits > 0, "cold run must report memo hits");
        assert!(
            cold.memo_misses < seq.memo_misses,
            "cold memoized search priced {} pipelines, sequential {}",
            cold.memo_misses,
            seq.memo_misses
        );
    }
}
