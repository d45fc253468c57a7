//! Store round trip over the model zoo: pack every variant to a store
//! file, load it back through the zero-copy (mmap) path, and require the
//! loaded replica to be bit-identical to the generated one — both the
//! raw weight bits and a full forward pass through the serving runtime.

use std::path::PathBuf;
use std::time::Duration;

use lancet_repro::ir::GateKind;
use lancet_repro::models::GptMoeConfig;
use lancet_repro::serve::{canonical_weights, pack_weights, ServeConfig, ServeRuntime};
use lancet_repro::store::{open_store, write_store};

const SEED: u64 = 0x57_0e;

/// The variants a store file must faithfully carry: every gate family,
/// the Mixtral-style block (RMS norm + SwiGLU + MoE-every-layer), the
/// shared-expert branch, a multi-device model (exercising the replicated
/// payload dedupe), and a scaled GPT2-S with production-sized GEMMs.
fn zoo() -> Vec<GptMoeConfig> {
    let named = |mut cfg: GptMoeConfig, name: &str| {
        cfg.name = name.into();
        cfg
    };
    vec![
        named(GptMoeConfig::tiny(1, GateKind::Switch), "zoo-switch"),
        named(GptMoeConfig::tiny(1, GateKind::TopK { k: 2 }), "zoo-top2"),
        named(GptMoeConfig::tiny(1, GateKind::Hash), "zoo-hash"),
        named(GptMoeConfig::mixtral_tiny(1), "zoo-mixtral"),
        named(GptMoeConfig::tiny(1, GateKind::Switch).with_shared_expert(true), "zoo-shared"),
        named(GptMoeConfig::tiny(2, GateKind::Switch), "zoo-2dev"),
        named(
            GptMoeConfig::gpt2_s_moe(1, GateKind::Switch)
                .with_layers(2)
                .with_vocab(128)
                .with_seq(16)
                .with_batch(2),
            "zoo-gpt2s-scaled",
        ),
    ]
}

fn store_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lancet-roundtrip-{}-{tag}.lancet", std::process::id()))
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        max_batch: 2,
        batch_window: Duration::from_millis(1),
        exec_workers: 1,
        ..ServeConfig::default()
    }
}

#[test]
fn every_zoo_variant_survives_the_store_bit_identical() {
    for cfg in zoo() {
        // Generate exactly what register_model would: normalized
        // capacity factor, the runtime's deterministic weight seed.
        let normalized = cfg.clone().with_capacity_factor(cfg.experts() as f64);
        let seed = ServeConfig::default().seed;
        let canonical = canonical_weights(&normalized, seed).expect("canonical weights");
        let packs = pack_weights(&normalized, &canonical).expect("pack panels");

        let path = store_path(&cfg.name);
        write_store(&path, &normalized.name, &canonical, &packs)
            .unwrap_or_else(|e| panic!("{}: write: {e}", cfg.name));
        let stored = open_store(&path).unwrap_or_else(|e| panic!("{}: open: {e}", cfg.name));

        // Raw weight bits match on every device.
        assert_eq!(stored.devices, normalized.gpus, "{}", cfg.name);
        for (d, map) in canonical.iter().enumerate() {
            assert_eq!(stored.weights[d].len(), map.len(), "{} device {d}", cfg.name);
            for (name, tensor) in map {
                let got = &stored.weights[d][name];
                assert_eq!(got.shape(), tensor.shape(), "{} `{name}`", cfg.name);
                assert_eq!(got.data(), tensor.data(), "{} `{name}` bits", cfg.name);
            }
        }

        // A forward pass through the serving runtime agrees bit-for-bit
        // between generated weights and the store-loaded (pack-adopting)
        // replica.
        let generated = ServeRuntime::start(serve_cfg());
        generated.register_model(cfg.clone()).expect("register generated");
        let loaded = ServeRuntime::start(serve_cfg());
        loaded
            .register_model_with_weights(cfg.clone(), stored.weights.clone(), Some(stored.packs.clone()))
            .expect("register stored");

        let prompt: Vec<f32> = (0..cfg.seq).map(|t| ((t * 3 + 1) % cfg.vocab) as f32).collect();
        let want = generated.submit_blocking(&cfg.name, prompt.clone()).expect("generated forward");
        let got = loaded.submit_blocking(&cfg.name, prompt).expect("loaded forward");
        assert_eq!(want, got, "{}: store-loaded forward diverged", cfg.name);

        generated.shutdown();
        loaded.shutdown();
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn multi_device_store_dedupes_replicated_payloads() {
    let cfg = GptMoeConfig::tiny(2, GateKind::Switch);
    let normalized = cfg.clone().with_capacity_factor(cfg.experts() as f64);
    let canonical = canonical_weights(&normalized, SEED).expect("canonical weights");
    let packs = pack_weights(&normalized, &canonical).expect("pack panels");

    let path = store_path("dedupe");
    let summary = write_store(&path, &normalized.name, &canonical, &packs).expect("write");
    assert!(
        summary.deduped > 0,
        "a 2-device model replicates its dense weights; the store must collapse them"
    );

    let stored = open_store(&path).expect("open");
    // Replicated entries come back on both devices with identical bits.
    for (name, tensor) in &canonical[0] {
        if canonical[1].get(name).map(|t| t.data()) == Some(tensor.data()) {
            assert_eq!(stored.weights[0][name].data(), stored.weights[1][name].data());
        }
    }
    let _ = std::fs::remove_file(&path);
}
