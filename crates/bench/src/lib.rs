//! Benchmark harness regenerating every figure of the Lancet paper.
//!
//! Each `figs::figNN` module reproduces one evaluation figure: it runs the
//! relevant (system, model, cluster) grid through the unified runner,
//! prints a paper-style markdown table, and returns machine-readable
//! [`Record`]s (also dumped as JSON by the `all_figures` binary for
//! EXPERIMENTS.md bookkeeping).
//!
//! Run an individual figure with e.g.
//! `cargo run --release -p lancet-bench --bin fig11_throughput_switch`,
//! or everything with `… --bin all_figures`. Every binary accepts
//! `--quick` to shrink the sweep for smoke testing.

pub mod figs;
pub mod load;
mod record;
mod timer;

pub use record::{save_json, Json, Record};
pub use timer::{interleaved, Summary};

use lancet_cost::ClusterKind;
use lancet_ir::GateKind;
use lancet_models::GptMoeConfig;

/// The two benchmark models, paper §7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// GPT2-S-MoE: 12 layers, hidden 768.
    S,
    /// GPT2-L-MoE: 24 layers, hidden 1024.
    L,
}

impl Model {
    /// Paper display name.
    pub fn name(self) -> &'static str {
        match self {
            Model::S => "GPT2-S-MoE",
            Model::L => "GPT2-L-MoE",
        }
    }

    /// Both models.
    pub fn all() -> [Model; 2] {
        [Model::S, Model::L]
    }
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The per-GPU batch sizes of paper §7: "on A100, we use batch size 24 per
/// GPU for GPT2-S-MoE and 48 for GPT2-L-MoE. On V100, we use batch size 16
/// for GPT2-S-MoE and 8 for GPT2-L-MoE."
pub fn paper_batch(model: Model, cluster: ClusterKind) -> usize {
    match (model, cluster) {
        (Model::S, ClusterKind::A100) => 24,
        (Model::L, ClusterKind::A100) => 48,
        (Model::S, ClusterKind::V100) => 16,
        (Model::L, ClusterKind::V100) => 8,
    }
}

/// Builds the paper-configured model for a cluster.
pub fn paper_config(model: Model, cluster: ClusterKind, gpus: usize, gate: GateKind) -> GptMoeConfig {
    let cfg = match model {
        Model::S => GptMoeConfig::gpt2_s_moe(gpus, gate),
        Model::L => GptMoeConfig::gpt2_l_moe(gpus, gate),
    };
    cfg.with_batch(paper_batch(model, cluster))
}

/// GPU counts for the weak-scaling sweeps (paper: 1–8 nodes of 8 GPUs).
pub fn gpu_sweep(quick: bool) -> Vec<usize> {
    if quick {
        vec![16]
    } else {
        vec![8, 16, 32, 64]
    }
}

/// Prints a markdown table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", header.join(" | "));
    println!("|{}|", header.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Formats seconds as milliseconds with 1 decimal.
pub fn ms(seconds: f64) -> String {
    format!("{:.1}", seconds * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_batches_match_section7() {
        assert_eq!(paper_batch(Model::S, ClusterKind::A100), 24);
        assert_eq!(paper_batch(Model::L, ClusterKind::A100), 48);
        assert_eq!(paper_batch(Model::S, ClusterKind::V100), 16);
        assert_eq!(paper_batch(Model::L, ClusterKind::V100), 8);
    }

    #[test]
    fn paper_config_builds() {
        let cfg = paper_config(Model::L, ClusterKind::A100, 32, GateKind::Switch);
        assert_eq!(cfg.layers, 24);
        assert_eq!(cfg.batch, 48);
        assert_eq!(cfg.experts(), 64);
    }

    #[test]
    fn sweeps() {
        assert_eq!(gpu_sweep(true), vec![16]);
        assert_eq!(gpu_sweep(false), vec![8, 16, 32, 64]);
    }
}
