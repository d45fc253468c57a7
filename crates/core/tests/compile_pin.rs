//! Cross-build pins of the `compile` benchmark's plan: GPT2-S-MoE on 16
//! V100s (2 nodes), batch 16, one search worker.
//!
//! The benchmark only checks each compile against its own binary's first
//! compile; these constants were recorded once and tie every build to the
//! same plan, the same predicted time and the same search. A change that
//! moves any of them changed what the optimizer plans or how many
//! candidates it prices, and must say so.

use lancet_core::{Lancet, LancetOptions, PartitionOptions};
use lancet_cost::ClusterSpec;
use lancet_ir::{to_text, GateKind};
use lancet_models::{build_forward, GptMoeConfig};
use lancet_tensor::det::fnv1a;

fn optimizer(gpus: usize, partition: PartitionOptions) -> Lancet {
    Lancet::new(ClusterSpec::v100(2), gpus, LancetOptions { partition, ..Default::default() })
}

#[test]
fn compile_config_plan_is_pinned() {
    let cfg = GptMoeConfig::gpt2_s_moe(16, GateKind::Switch).with_batch(16);
    let fwd = build_forward(&cfg).unwrap().graph;
    let lancet = optimizer(16, PartitionOptions { workers: 1, ..Default::default() });
    let out = lancet.optimize(fwd).unwrap();
    let part = out.partition.as_ref().expect("partition pass ran");
    let dw = out.dw.as_ref().expect("dW pass ran");
    let got = (
        fnv1a(to_text(&out.graph).as_bytes()),
        out.predicted_time.to_bits(),
        part.ranges.len(),
        out.graph.instrs().len(),
        dw.assigned,
        (part.evaluations, part.memo_hits, part.memo_misses),
    );
    // predicted_time 0.379156264730843 s
    assert_eq!(got, (0x6570_649d_43ca_30c7, 0x3fd8_4418_a345_eb57, 6, 1638, 294, (6729, 5281, 1448)));
}

/// `max_range_groups: 0` admits no candidate range at all; like the other
/// zero limits it means 1, so every group can still be priced alone.
#[test]
fn zero_max_range_groups_means_one() {
    let cfg = GptMoeConfig::gpt2_s_moe(16, GateKind::Switch).with_layers(2);
    let fwd = build_forward(&cfg).unwrap().graph;
    let zero = optimizer(16, PartitionOptions { max_range_groups: 0, ..Default::default() })
        .optimize(fwd.clone())
        .unwrap();
    let one = optimizer(16, PartitionOptions { max_range_groups: 1, ..Default::default() })
        .optimize(fwd)
        .unwrap();
    assert!(zero.graph.validate().is_ok());
    assert_eq!(zero.partition, one.partition);
    assert_eq!(to_text(&zero.graph), to_text(&one.graph));
    assert_eq!(zero.predicted_time.to_bits(), one.predicted_time.to_bits());
}
