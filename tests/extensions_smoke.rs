//! Smoke tests for the extension studies (quick mode), asserting their
//! qualitative claims hold.

use lancet_bench::figs::extensions;

#[test]
fn shared_expert_improves_overlap() {
    let records = extensions::shared_expert(true);
    let exposed = |sys: &str| {
        records
            .iter()
            .find(|r| r.system == sys)
            .and_then(|r| r.exposed_comm_ms)
            .unwrap()
    };
    // The shared branch alone hides some communication even without
    // Lancet, and Lancet+shared is the best of all.
    assert!(exposed("RAF+shared") < exposed("RAF"));
    assert!(exposed("Lancet+shared") < exposed("RAF+shared"));
}

#[test]
fn capacity_factor_speedups_all_above_one() {
    let records = extensions::capacity_factor(true);
    assert!(!records.is_empty());
    // Lancet runs recorded at every factor.
    for r in &records {
        assert!(r.iteration_ms.unwrap() > 0.0);
    }
}

#[test]
fn hyperparams_tradeoff_recorded() {
    let records = extensions::hyperparams(true);
    assert!(records.len() >= 2);
    for r in &records {
        assert!(r.opt_time_s.unwrap() > 0.0);
    }
    // Smaller ρ explores fewer plans: strictly fewer P(i, n, k) pricings
    // (deterministic, unlike the recorded optimization times).
    let pricings = |sys: &str| {
        records
            .iter()
            .find(|r| r.system == sys)
            .and_then(|r| r.extra)
            .unwrap()
    };
    assert!(pricings("rho2_gamma5_iota24") < pricings("rho8_gamma5_iota24"));
}

#[test]
fn allreduce_interference_preserves_lancet_edge() {
    let records = extensions::allreduce_interference(true);
    let iter_of = |sys: &str| {
        records
            .iter()
            .find(|r| r.system == sys)
            .and_then(|r| r.iteration_ms)
            .unwrap()
    };
    assert!(iter_of("Lancet") < iter_of("RAF"));
    assert!(iter_of("Lancet+allreduce") < iter_of("RAF+allreduce"));
    // All-reduce traffic slows everything down.
    assert!(iter_of("RAF+allreduce") > iter_of("RAF"));
}

#[test]
fn fsdp_prefetch_and_lancet_recover_time() {
    let records = extensions::fsdp(true);
    let iter_of = |sys: &str| {
        records
            .iter()
            .find(|r| r.system == sys)
            .and_then(|r| r.iteration_ms)
            .unwrap()
    };
    let none = iter_of("FSDP, no prefetch");
    let block = iter_of("FSDP, prefetch L=6 (1 block)");
    let lancet = iter_of("FSDP, prefetch L=6 + Lancet");
    assert!(block < none, "block prefetch {block} !< none {none}");
    assert!(lancet < block, "lancet {lancet} !< prefetch {block}");
}

#[test]
fn hierarchical_wins_small_messages() {
    let records = extensions::hierarchical_a2a(true);
    // The smallest profiled message must favour the hierarchical scheme
    // end-to-end: its sweep entries are sorted by size.
    let sweep: Vec<&lancet_bench::Record> =
        records.iter().filter(|r| r.system == "hierarchical").collect();
    assert!(sweep.len() >= 3);
    let e2e_naive = records
        .iter()
        .find(|r| r.system == "e2e-naive")
        .and_then(|r| r.iteration_ms)
        .unwrap();
    let e2e_hier = records
        .iter()
        .find(|r| r.system == "e2e-hierarchical")
        .and_then(|r| r.iteration_ms)
        .unwrap();
    assert!(e2e_hier <= e2e_naive);
}

#[test]
fn recompute_trades_memory_for_time() {
    let records = extensions::recompute(true);
    let of = |sys: &str| records.iter().find(|r| r.system == sys).unwrap();
    let base = of("no checkpointing");
    let ckpt = of("checkpoint every block");
    let lancet = of("checkpoint + Lancet");
    assert!(ckpt.iteration_ms.unwrap() > base.iteration_ms.unwrap());
    assert!(lancet.iteration_ms.unwrap() < ckpt.iteration_ms.unwrap());
}
