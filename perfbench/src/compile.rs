//! `compile`: cold optimization of GPT2-S-MoE for 16 V100s on 2 nodes
//! (the paper's Fig. 15 setting), the one size at which the partition
//! pass actually pipelines. Exercises `core`, `cost`, `ir` and `sim`; no
//! tensor kernels run.
//!
//! The traced run calls each public pass in turn, then records the
//! simulated step and exposed communication of Lancet, Tutel and RAF from
//! `run_system`. Those are deterministic: they change only when plans do.

use crate::report::{median, percentile, setups, timed, Outcome};
use crate::Args;
use lancet_baselines::{run_system, System};
use lancet_core::{
    partition_pass_with, schedule_weight_gradients, Lancet, LancetOptions, PartitionMemo,
};
use lancet_cost::{ClusterKind, ClusterSpec, CommModel, ComputeModel};
use lancet_ir::{build_backward, GateKind, Graph};
use lancet_models::{build_forward, GptMoeConfig};
use lancet_sim::{SimConfig, Simulator};
use std::time::Instant;

const GPUS: usize = 16;
const NODES: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Pass-by-pass repetitions in the traced run.
const PASS_RUNS: usize = 5;

fn model() -> GptMoeConfig {
    GptMoeConfig::gpt2_s_moe(GPUS, GateKind::Switch).with_batch(16)
}

/// Set-up: build the model's forward graph and compile it once, fixing
/// the reference plan every timed compile must reproduce exactly.
fn setup() -> Result<(Graph, Plan), String> {
    let g = build_forward(&model()).map_err(|e| e.to_string())?.graph;
    g.validate().map_err(|e| e.to_string())?;
    let reference = compile(g.clone())?;
    Ok((g, reference))
}

/// What one compile produced, for the determinism check.
#[derive(PartialEq, Debug)]
struct Plan {
    predicted_bits: u64,
    instrs: usize,
    ranges: usize,
    dw_assigned: usize,
}

fn compile(fwd: Graph) -> Result<Plan, String> {
    let lancet = Lancet::new(ClusterSpec::v100(NODES), GPUS, LancetOptions::default());
    let out = lancet.optimize(fwd).map_err(|e| e.to_string())?;
    out.graph
        .validate()
        .map_err(|e| format!("optimized graph invalid: {e}"))?;
    Ok(Plan {
        predicted_bits: out.predicted_time.to_bits(),
        instrs: out.graph.instrs().len(),
        ranges: out.partition.map_or(0, |p| p.ranges.len()),
        dw_assigned: out.dw.map_or(0, |d| d.assigned),
    })
}

/// End-to-end: cold compiles back to back for `--seconds`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let ((fwd, reference), setup_s) = setups(SETUPS, setup)?;
    let mut out = Outcome::new();

    let mut compile_ms = Vec::new();
    let started = Instant::now();
    while started.elapsed() < args.seconds {
        let input = fwd.clone();
        out.attempted += 1;
        let (plan, t) = timed(|| compile(input));
        match plan {
            Ok(plan) => {
                compile_ms.push(t);
                out.check(plan == reference, || {
                    format!("compile produced {plan:?}, expected {reference:?}")
                });
            }
            Err(e) => {
                out.failed += 1;
                compile_ms.push(f64::INFINITY);
                eprintln!("compile failed: {e}");
            }
        }
    }
    let ok: Vec<f64> = compile_ms
        .iter()
        .copied()
        .filter(|t| t.is_finite())
        .collect();
    let p50 = median(&compile_ms);
    out.metric("setup_s", setup_s, "s");
    out.metric("p50_ms", p50, "ms");
    out.metric("tail_ms", percentile(&compile_ms, 0.9), "ms");
    out.metric(
        "rate_per_s",
        ok.len() as f64 / (ok.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    // A compile is not streamed: its first output is its whole result.
    out.metric("ttft_p50_ms", p50, "ms");
    Ok(out)
}

/// Calls each pass of `Lancet::optimize` in turn, `PASS_RUNS` times, and
/// reports the median time of each plus the deterministic plan counts,
/// then the simulated Lancet, Tutel and RAF steps.
pub fn trace(out: &mut Outcome) -> Result<(), String> {
    let fwd = &build_forward(&model()).map_err(|e| e.to_string())?.graph;
    let opts = LancetOptions::default();
    let spec = ClusterSpec::v100(NODES);
    let (mut build, mut part, mut back, mut dw, mut est, mut simulate) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let mut counts = None;
    for _ in 0..PASS_RUNS {
        out.attempted += 1;
        let (lancet, t) = timed(|| Lancet::new(spec.clone(), GPUS, opts.clone()));
        build.push(t);
        let estimator = lancet.estimator();
        let (r, t) =
            timed(|| partition_pass_with(fwd, estimator, &opts.partition, &PartitionMemo::new()));
        part.push(t);
        let (mut graph, report) = r.map_err(|e| e.to_string())?;
        let (r, t) = timed(|| build_backward(&mut graph, &opts.backward));
        back.push(t);
        r.map_err(|e| e.to_string())?;
        let (r, t) = timed(|| schedule_weight_gradients(&mut graph, estimator));
        dw.push(t);
        let dw_report = r.map_err(|e| e.to_string())?;
        let (r, t) = timed(|| estimator.estimate(&graph));
        est.push(t);
        r.map_err(|e| e.to_string())?;
        let valid = graph.validate();
        out.check(valid.is_ok(), || {
            format!("pass-by-pass graph invalid: {valid:?}")
        });
        let sim = Simulator::new(
            ComputeModel::new(spec.device.clone()),
            CommModel::new(spec.clone()),
            SimConfig::new(GPUS),
        );
        let (_, t) = timed(|| sim.simulate(&graph));
        simulate.push(t);
        let now = (
            report.evaluations,
            report.ranges.len(),
            dw_report.assigned,
            graph.instrs().len(),
        );
        out.check(counts.is_none_or(|c| c == now), || {
            format!("pass counts changed between runs: {now:?}")
        });
        counts = Some(now);
    }
    let (candidates, ranges, assigned, instrs) = counts.expect("at least one pass run");
    out.metric("cost.model_build_ms", median(&build), "ms");
    out.metric("core.partition_ms", median(&part), "ms");
    out.metric("ir.backward_ms", median(&back), "ms");
    out.metric("core.dw_ms", median(&dw), "ms");
    out.metric("core.estimate_ms", median(&est), "ms");
    out.metric("sim.simulate_ms", median(&simulate), "ms");
    out.metric("core.partition_candidates", candidates as f64, "count");
    out.metric("core.partition_ranges", ranges as f64, "count");
    out.metric("core.dw_assigned", assigned as f64, "count");
    out.metric("ir.instrs", instrs as f64, "count");

    for (system, step, exposed) in [
        (
            System::Lancet,
            "sim.lancet_step_ms",
            "sim.lancet_exposed_comm_ms",
        ),
        (
            System::Tutel,
            "sim.tutel_step_ms",
            "sim.tutel_exposed_comm_ms",
        ),
        (System::Raf, "sim.raf_step_ms", "sim.raf_exposed_comm_ms"),
    ] {
        out.attempted += 1;
        let r = run_system(system, &model(), ClusterKind::V100).map_err(|e| e.to_string())?;
        out.metric(step, r.report.iteration_time * 1e3, "sim_ms");
        out.metric(exposed, r.report.exposed_comm() * 1e3, "sim_ms");
    }
    Ok(())
}
