//! Plan-cache semantics: pointer-equal hits, key discrimination,
//! LRU eviction, and scripted counter sequences.

use std::sync::Arc;

use lancet_cost::{ClusterKind, ClusterSpec};
use lancet_core::{Lancet, LancetOptions};
use lancet_ir::GateKind;
use lancet_models::GptMoeConfig;
use lancet_serve::{canonical_weights, pack_weights, Plan, PlanCache, PlanKey};

fn tiny_cfg() -> GptMoeConfig {
    let cfg = GptMoeConfig::tiny(1, GateKind::Switch);
    let experts = cfg.experts() as f64;
    cfg.with_capacity_factor(experts)
}

fn optimizer(cluster: ClusterKind, gpus: usize) -> Lancet {
    Lancet::new(ClusterSpec::of(cluster, 1), gpus, LancetOptions::default())
}

fn key(model: &str, bucket: usize, cluster: ClusterKind) -> PlanKey {
    PlanKey { model: model.into(), bucket, seq: 4, cluster, gpus: 1 }
}

fn build_plan(cluster: ClusterKind, bucket: usize) -> Plan {
    let cfg = tiny_cfg();
    let canonical = canonical_weights(&cfg, 7).unwrap();
    Plan::build(&optimizer(cluster, cfg.gpus), &cfg, bucket, &canonical).unwrap()
}

#[test]
fn same_key_returns_pointer_equal_plan() {
    let cache = PlanCache::new(4);
    let k = key("tiny", 2, ClusterKind::A100);
    let first = cache.get_or_insert_with(&k, || Ok(build_plan(ClusterKind::A100, 2))).unwrap();
    let second = cache.get_or_insert_with(&k, || panic!("second lookup must hit")).unwrap();
    assert!(Arc::ptr_eq(&first, &second), "a cache hit must return the resident plan");
}

#[test]
fn distinct_cluster_configs_get_distinct_entries() {
    let cache = PlanCache::new(4);
    let a100 = cache
        .get_or_insert_with(&key("tiny", 1, ClusterKind::A100), || {
            Ok(build_plan(ClusterKind::A100, 1))
        })
        .unwrap();
    let v100 = cache
        .get_or_insert_with(&key("tiny", 1, ClusterKind::V100), || {
            Ok(build_plan(ClusterKind::V100, 1))
        })
        .unwrap();
    assert!(!Arc::ptr_eq(&a100, &v100), "cluster kind must discriminate plans");
    assert_eq!(cache.len(), 2);
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (0, 2));
}

#[test]
fn eviction_respects_capacity_and_lru_order() {
    let cache = PlanCache::new(2);
    for bucket in [1usize, 2, 4] {
        let k = key("tiny", bucket, ClusterKind::A100);
        cache.get_or_insert_with(&k, || Ok(build_plan(ClusterKind::A100, bucket))).unwrap();
    }
    assert_eq!(cache.len(), 2, "capacity bound must hold");
    assert_eq!(cache.stats().evictions, 1);
    // Bucket 1 was least recently used and must be the one evicted.
    let resident: Vec<usize> = cache.keys().into_iter().map(|k| k.bucket).collect();
    assert_eq!(resident, vec![2, 4]);

    // Touching bucket 2 protects it from the next eviction.
    assert!(cache.get(&key("tiny", 2, ClusterKind::A100)).is_some());
    cache.get_or_insert_with(&key("tiny", 8, ClusterKind::A100), || {
        Ok(build_plan(ClusterKind::A100, 8))
    })
    .unwrap();
    let resident: Vec<usize> = cache.keys().into_iter().map(|k| k.bucket).collect();
    assert_eq!(resident, vec![2, 8], "bucket 4 was LRU after the touch");
}

#[test]
fn counters_match_scripted_sequence() {
    let cache = PlanCache::new(2);
    let k1 = key("tiny", 1, ClusterKind::A100);
    let k2 = key("tiny", 2, ClusterKind::A100);

    assert!(cache.get(&k1).is_none()); //                         miss 1
    cache.insert(k1.clone(), build_plan(ClusterKind::A100, 1));
    assert!(cache.get(&k1).is_some()); //                         hit 1
    assert!(cache.get(&k1).is_some()); //                         hit 2
    assert!(cache.get(&k2).is_none()); //                         miss 2
    cache.get_or_insert_with(&k2, || Ok(build_plan(ClusterKind::A100, 2))).unwrap(); // miss 3
    cache.get_or_insert_with(&k2, || panic!("must hit")).unwrap(); //               hit 3

    let stats = cache.stats();
    assert_eq!(stats.hits, 3, "scripted hits");
    assert_eq!(stats.misses, 3, "scripted misses");
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.len, 2);
    assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
}

#[test]
fn packed_bytes_track_resident_plans() {
    let cache = PlanCache::new(2);
    let k1 = key("tiny", 1, ClusterKind::A100);
    let plan = cache.get_or_insert_with(&k1, || Ok(build_plan(ClusterKind::A100, 1))).unwrap();
    assert!(plan.prepack.tensors > 0, "a GPT-MoE plan has matmul weights to prepack");
    assert!(plan.prepack.bytes > 0);
    assert_eq!(cache.stats().packed_bytes, plan.prepack.bytes);

    let k2 = key("tiny", 2, ClusterKind::A100);
    let plan2 = cache.get_or_insert_with(&k2, || Ok(build_plan(ClusterKind::A100, 2))).unwrap();
    assert_eq!(cache.stats().packed_bytes, plan.prepack.bytes + plan2.prepack.bytes);

    // Eviction releases the evicted plan's share of the footprint.
    let k3 = key("tiny", 4, ClusterKind::A100);
    let plan3 = cache.get_or_insert_with(&k3, || Ok(build_plan(ClusterKind::A100, 4))).unwrap();
    assert_eq!(cache.stats().packed_bytes, plan2.prepack.bytes + plan3.prepack.bytes);

    // Plans adopting one model's pack set share its panels: four warm
    // buckets hold one model's panel bytes — not four times them, and not
    // zero because no plan packed anything itself.
    let cfg = tiny_cfg();
    let canonical = canonical_weights(&cfg, 7).unwrap();
    let packs = pack_weights(&cfg, &canonical).unwrap();
    let set_bytes: u64 = packs[0].values().map(|p| p.bytes()).sum();
    assert!(set_bytes > 0);
    let lancet = optimizer(ClusterKind::A100, cfg.gpus);
    let shared = PlanCache::new(4);
    let build = |bucket| {
        let plan = Plan::build_with_packs(&lancet, &cfg, bucket, &canonical, Some(&packs)).unwrap();
        assert_eq!(plan.prepack.bytes, 0, "bucket {bucket} adopts every panel");
        Ok(plan)
    };
    for bucket in [1usize, 2, 4, 8] {
        shared.get_or_insert_with(&key("tiny", bucket, ClusterKind::A100), || build(bucket)).unwrap();
    }
    assert_eq!(shared.stats().packed_bytes, set_bytes);
    // Evicting one bucket frees nothing while the others hold the panels.
    shared.get_or_insert_with(&key("tiny", 16, ClusterKind::A100), || build(16)).unwrap();
    assert_eq!(shared.stats().evictions, 1);
    assert_eq!(shared.stats().packed_bytes, set_bytes);
}

#[test]
fn stable_hash_is_pinned_across_processes() {
    // Fleet routing keys on this value; it must never depend on process
    // state (`RandomState`, ASLR, …). The literal pins the FNV-1a
    // construction — if this test breaks, replicas built from different
    // binaries would route the same key to different shards.
    let k = key("tiny", 2, ClusterKind::A100);
    assert_eq!(k.stable_hash(), 0xf7a9_5dee_d97e_f35c);
    assert_eq!(k.stable_hash(), k.clone().stable_hash(), "pure function of the key");

    // Every field must perturb the hash.
    let base = k.stable_hash();
    let variants = [
        key("tinz", 2, ClusterKind::A100),
        key("tiny", 4, ClusterKind::A100),
        key("tiny", 2, ClusterKind::V100),
        PlanKey { seq: 8, ..k.clone() },
        PlanKey { gpus: 2, ..k.clone() },
    ];
    for v in variants {
        assert_ne!(v.stable_hash(), base, "{v:?} must hash differently");
    }
}

#[test]
fn failed_build_inserts_nothing() {
    let cache = PlanCache::new(2);
    let k = key("tiny", 1, ClusterKind::A100);
    let err = cache
        .get_or_insert_with(&k, || Err(lancet_serve::ServeError::Plan("boom".into())))
        .unwrap_err();
    assert!(matches!(err, lancet_serve::ServeError::Plan(_)));
    assert!(cache.is_empty());
    assert_eq!(cache.stats().misses, 1);
}
