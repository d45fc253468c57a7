//! Cross-crate integration: the complete Lancet flow from model
//! construction through optimization to simulated measurement.

use lancet_repro::baselines::{run_system, System};
use lancet_repro::cost::ClusterKind;
use lancet_repro::ir::GateKind;
use lancet_repro::models::GptMoeConfig;

fn benchmark_cfg(gate: GateKind) -> GptMoeConfig {
    GptMoeConfig::gpt2_s_moe(16, gate).with_layers(6).with_batch(8)
}

#[test]
fn lancet_dominates_every_baseline_on_both_clusters() {
    for cluster in [ClusterKind::A100, ClusterKind::V100] {
        let cfg = benchmark_cfg(GateKind::Switch);
        let lancet = run_system(System::Lancet, &cfg, cluster).unwrap();
        for baseline in [System::DeepSpeed, System::Tutel, System::Raf] {
            let out = run_system(baseline, &cfg, cluster).unwrap();
            assert!(
                lancet.report.iteration_time < out.report.iteration_time,
                "{cluster}: Lancet {:.1}ms !< {} {:.1}ms",
                lancet.report.iteration_time * 1e3,
                baseline.name(),
                out.report.iteration_time * 1e3
            );
        }
    }
}

#[test]
fn speedup_magnitude_matches_paper_band() {
    // The paper reports 1.1–1.3x end-to-end vs the best baseline at
    // multi-node scale; assert we land in a generous version of that band
    // (regression guard for calibration drift).
    let cfg = GptMoeConfig::gpt2_s_moe(16, GateKind::Switch).with_batch(16);
    let lancet = run_system(System::Lancet, &cfg, ClusterKind::V100).unwrap();
    let best_baseline = [System::DeepSpeed, System::Tutel, System::Raf]
        .into_iter()
        .map(|s| run_system(s, &cfg, ClusterKind::V100).unwrap().report.iteration_time)
        .fold(f64::INFINITY, f64::min);
    let speedup = best_baseline / lancet.report.iteration_time;
    assert!(
        (1.05..1.6).contains(&speedup),
        "speedup {speedup:.2}x outside expected band"
    );
}

#[test]
fn bpr_gate_still_accelerates() {
    // Batch-prioritized routing restricts partitioning to after the MoE
    // layer (paper Fig. 4c) but Lancet must still win.
    let cfg = benchmark_cfg(GateKind::BatchPrioritized);
    let lancet = run_system(System::Lancet, &cfg, ClusterKind::V100).unwrap();
    let raf = run_system(System::Raf, &cfg, ClusterKind::V100).unwrap();
    assert!(lancet.report.iteration_time < raf.report.iteration_time);
}

#[test]
fn cost_model_prediction_is_tight() {
    let cfg = benchmark_cfg(GateKind::Switch);
    let out = run_system(System::Lancet, &cfg, ClusterKind::V100).unwrap();
    let predicted = out.predicted.unwrap();
    let measured = out.report.iteration_time;
    let err = (predicted - measured).abs() / measured;
    assert!(err < 0.10, "prediction error {:.1}% ≥ 10%", err * 100.0);
}

#[test]
fn weak_scaling_increases_iteration_time() {
    // More nodes → more inter-node all-to-all traffic → slower iterations
    // for everyone (the premise of the weak-scaling figures).
    let mut prev = 0.0;
    for gpus in [8usize, 16, 32] {
        let cfg = GptMoeConfig::gpt2_s_moe(gpus, GateKind::Switch).with_layers(6).with_batch(8);
        let t = run_system(System::Raf, &cfg, ClusterKind::V100)
            .unwrap()
            .report
            .iteration_time;
        assert!(t > prev, "{gpus} GPUs: {t} !> {prev}");
        prev = t;
    }
}

#[test]
fn exposed_communication_reduction_is_substantial() {
    let cfg = GptMoeConfig::gpt2_s_moe(16, GateKind::Switch).with_batch(16);
    let lancet = run_system(System::Lancet, &cfg, ClusterKind::V100).unwrap();
    let raf = run_system(System::Raf, &cfg, ClusterKind::V100).unwrap();
    let reduction = 1.0 - lancet.report.exposed_comm() / raf.report.exposed_comm();
    assert!(
        reduction > 0.35,
        "non-overlapped comm reduction {:.0}% too small",
        reduction * 100.0
    );
}

#[test]
fn default_plan_bytes_are_golden() {
    use lancet_repro::core::{Lancet, LancetOptions};
    use lancet_repro::cost::ClusterSpec;
    use lancet_repro::models::build_forward;

    let cfg = benchmark_cfg(GateKind::Switch);
    let lancet = Lancet::new(ClusterSpec::v100(2), cfg.gpus, LancetOptions::default());
    let fwd = build_forward(&cfg).unwrap().graph;
    let out = lancet.optimize(fwd).unwrap();
    // FNV-1a-64 over the printed program: stable across processes and
    // platforms, unlike `DefaultHasher`.
    let hash = lancet_repro::tensor::det::fnv1a(lancet_repro::ir::to_text(&out.graph).as_bytes());
    // The partition-level training plan for the benchmark config, byte
    // for byte. This is the compatibility surface every future pass must
    // not move by default: serving plan caches and decode snapshots key
    // on stable tensor ids. If a change to the optimizer is
    // *intentional*, re-run this test with `--nocapture`,
    // confirm the printed hash is identical across two separate runs, and
    // update the constant together with a CHANGELOG note.
    println!("GOLDEN {hash:#018x}");
    assert_eq!(
        hash, 0x8dcae55ff5ce38d2,
        "the default partition-level plan changed: either an optimizer \
         pass regressed, or a deliberate change needs this golden hash \
         (and dependent plan caches) re-baselined"
    );
}
