//! Smoke tests for every figure harness in quick mode: each must run,
//! produce records, and satisfy the paper's qualitative claims.

use lancet_bench::figs;
use lancet_ir::GateKind;

#[test]
fn fig02_breakdown_orders() {
    let records = figs::fig02::run(true);
    assert!(!records.is_empty());
    // All-to-all must dominate expert compute (the motivation).
    for r in &records {
        assert!(r.extra.unwrap() > 1.5, "a2a/expert ratio {:?} too low", r.extra);
    }
}

#[test]
fn fig05_capacity_passing_never_overdrops() {
    let records = figs::fig05::run(true);
    let lancet_drops: f64 = records
        .iter()
        .filter(|r| r.system == "capacity-passing")
        .map(|r| r.iteration_ms.unwrap())
        .sum();
    let direct_drops: f64 = records
        .iter()
        .filter(|r| r.system == "direct-microbatch")
        .map(|r| r.iteration_ms.unwrap())
        .sum();
    assert!(lancet_drops < direct_drops, "{lancet_drops} !< {direct_drops}");
}

#[test]
fn fig06_produces_sweep_points() {
    let records = figs::fig06::run(true);
    assert!(records.len() >= 4);
}

#[test]
fn fig11_lancet_wins_quick_grid() {
    let records = figs::fig11::run(GateKind::Switch, true);
    // For each (model, cluster): Lancet has the smallest iteration time.
    for model in ["GPT2-S-MoE", "GPT2-L-MoE"] {
        for cluster in ["A100", "V100"] {
            let of = |sys: &str| {
                records
                    .iter()
                    .find(|r| r.model == model && r.cluster == cluster && r.system == sys)
                    .and_then(|r| r.iteration_ms)
            };
            let lancet = of("Lancet").unwrap();
            for sys in ["DeepSpeed", "Tutel", "RAF"] {
                if let Some(t) = of(sys) {
                    assert!(lancet < t, "{model}/{cluster}: Lancet {lancet} !< {sys} {t}");
                }
            }
        }
    }
}

#[test]
fn fig13_overlap_ordering() {
    let records = figs::fig13::run(true);
    for model in ["GPT2-S-MoE", "GPT2-L-MoE"] {
        let exposed = |sys: &str| {
            records
                .iter()
                .find(|r| r.model == model && r.cluster == "V100" && r.system == sys)
                .and_then(|r| r.exposed_comm_ms)
                .unwrap()
        };
        assert!(exposed("Lancet") < exposed("Tutel"), "{model}");
        assert!(exposed("Tutel") < exposed("DeepSpeed"), "{model}");
    }
}

#[test]
fn fig14_prediction_error_under_10_percent() {
    let records = figs::fig14::run(true);
    for r in &records {
        let (p, m) = (r.predicted_ms.unwrap(), r.iteration_ms.unwrap());
        let err = (p - m).abs() / m;
        assert!(err < 0.10, "{}/{}: error {:.1}%", r.model, r.system, err * 100.0);
    }
}

#[test]
fn fig15_opt_time_grows_with_depth() {
    let records = figs::fig15::run(true);
    let of = |model: &str| records.iter().find(|r| r.model == model).unwrap();
    for model in ["GPT2-S-MoE", "GPT2-L-MoE"] {
        assert!(of(model).opt_time_s.unwrap() > 0.0, "{model}: optimization time recorded");
    }
    // The deeper model's search does more work. Its wall time differs
    // from GPT2-S's by less than the host's noise, so the test compares
    // P(i, n, k) pricings, which are deterministic.
    let pricings = |model: &str| of(model).extra.unwrap();
    assert!(pricings("GPT2-L-MoE") > pricings("GPT2-S-MoE"));
}

#[test]
fn fig16_combined_beats_each_alone() {
    let records = figs::fig16::run(true);
    for model in ["GPT2-S-MoE", "GPT2-L-MoE"] {
        for cluster in ["A100", "V100"] {
            let speedup = |sys: &str| {
                records
                    .iter()
                    .find(|r| r.model == model && r.cluster == cluster && r.system == sys)
                    .and_then(|r| r.extra)
                    .unwrap()
            };
            let both = speedup("Lancet");
            assert!(both >= speedup("Lancet (dW only)") - 1e-9, "{model}/{cluster}");
            assert!(both >= speedup("Lancet (partition only)") - 1e-9, "{model}/{cluster}");
            assert!(both > 1.05, "{model}/{cluster}: combined speedup {both}");
        }
    }
}
