//! Deterministic fault injection for the cluster simulator.
//!
//! A production MoE cluster is never uniformly healthy: individual GPUs
//! straggle (thermal throttling, noisy neighbours), links degrade (ECN
//! storms, flapping optics), and packets are occasionally lost and
//! retransmitted. The Lancet paper evaluates on healthy clusters, but the
//! overlap schedules it produces must *degrade gracefully* — a straggler
//! should stretch the timeline, not change what the graph computes.
//!
//! A [`FaultPlan`] is a seeded schedule of fault windows that the
//! simulation engine consults when pricing each instruction:
//!
//! * [`FaultKind::Straggler`] — a device computes `slowdown`× slower
//!   while the window is active. The simulator tracks one representative
//!   (slowest) device, so any active straggler stretches compute ops.
//! * [`FaultKind::DegradedLink`] — collectives pay `factor`× their
//!   healthy duration (bandwidth loss on the bottleneck link).
//! * [`FaultKind::JitteredLink`] — collectives pay a per-instruction
//!   jitter in `[1, 1 + amplitude]`, sampled deterministically from the
//!   plan seed and the instruction position.
//! * [`FaultKind::LinkDrops`] — each collective in the window is dropped
//!   (and retransmitted, paying `1 + retransmit`× its duration) with the
//!   given probability, decided deterministically per position.
//!
//! Every decision is a pure function of `(plan, instruction position,
//! start time)`, so the same plan on the same graph produces a
//! **bit-identical** [`SimReport`](crate::SimReport) on every run — the
//! property the chaos-conformance suite asserts.

use lancet_ir::det;

/// One kind of injected fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// GPU `gpu` runs compute `slowdown`× slower (`slowdown >= 1`).
    Straggler {
        /// Index of the straggling device (informational; the simulator's
        /// representative timeline adopts the slowest device's pace).
        gpu: usize,
        /// Compute-duration multiplier, `>= 1`.
        slowdown: f64,
    },
    /// The bottleneck link delivers `factor`× slower collectives.
    DegradedLink {
        /// Communication-duration multiplier, `>= 1`.
        factor: f64,
    },
    /// Collectives see deterministic per-instruction jitter in
    /// `[1, 1 + amplitude]`.
    JitteredLink {
        /// Maximum relative jitter (`0.3` means up to +30 %).
        amplitude: f64,
    },
    /// Collectives are dropped and retransmitted with a fixed
    /// probability, decided deterministically per instruction.
    LinkDrops {
        /// Per-collective drop probability in `[0, 1]`.
        probability: f64,
        /// Extra duration paid on a drop, as a fraction of the healthy
        /// duration (`1.0` = a full retransmission).
        retransmit: f64,
    },
}

/// A fault active during `[from, until)` seconds of simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultWindow {
    /// Window start, seconds from iteration start.
    pub from: f64,
    /// Window end (exclusive); `f64::INFINITY` covers the whole run.
    pub until: f64,
    /// What goes wrong while the window is active.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// Whether the window is active at time `t`.
    pub fn active_at(&self, t: f64) -> bool {
        t >= self.from && t < self.until
    }
}

/// A seeded, deterministic schedule of injected faults.
///
/// # Example
///
/// ```
/// use lancet_sim::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::new(7)
///     .with(0.0, f64::INFINITY, FaultKind::Straggler { gpu: 3, slowdown: 1.5 })
///     .with(0.001, 0.002, FaultKind::DegradedLink { factor: 2.0 });
/// assert!(!plan.is_empty());
/// assert!(plan.compute_factor(0.0) > 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed driving the plan's per-instruction jitter and drop decisions.
    pub seed: u64,
    /// The scheduled fault windows.
    pub windows: Vec<FaultWindow>,
}

/// Salt separating jitter draws from drop draws.
const SALT_JITTER: u64 = 0x6a17_7e4a;
const SALT_DROP: u64 = 0xd40f_11e5;

/// SplitMix64-style hash of `(seed, salt, position)` to a unit float —
/// the deterministic randomness source behind jitter and drop decisions.
fn unit(seed: u64, salt: u64, pos: u64) -> f64 {
    det::unit_f64(det::mix64(seed ^ salt.wrapping_mul(det::GAMMA) ^ pos.wrapping_mul(det::MIX_M1)))
}

impl FaultPlan {
    /// An empty plan (no faults) carrying `seed` for later jitter draws.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, windows: Vec::new() }
    }

    /// The healthy cluster: no faults at all.
    pub fn none() -> Self {
        FaultPlan::new(0)
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Adds a fault window (builder style).
    pub fn with(mut self, from: f64, until: f64, kind: FaultKind) -> Self {
        self.windows.push(FaultWindow { from, until, kind });
        self
    }

    /// Generates a seeded schedule of 2–5 fault windows spread over
    /// `[0, horizon)` seconds for a `gpus`-device cluster: a mix of
    /// stragglers, degraded/jittered links, and transient drops, with
    /// magnitudes clamped to the slow-but-correct regime (all factors
    /// `>= 1`). Identical `(seed, gpus, horizon)` produce identical
    /// plans.
    ///
    /// # Panics
    ///
    /// Panics if `horizon <= 0` or `gpus == 0`.
    pub fn generate(seed: u64, gpus: usize, horizon: f64) -> Self {
        assert!(horizon > 0.0, "fault horizon must be positive");
        assert!(gpus > 0, "need at least one device");
        let draw = |salt: u64, pos: u64| unit(seed, salt, pos);
        let count = 2 + (draw(1, 0) * 4.0) as usize; // 2..=5
        let mut plan = FaultPlan::new(seed);
        for i in 0..count {
            let i = i as u64;
            let from = draw(2, i) * horizon * 0.8;
            let until = from + (0.05 + draw(3, i) * 0.55) * horizon;
            let kind = match (draw(4, i) * 4.0) as usize {
                0 => FaultKind::Straggler {
                    gpu: (draw(5, i) * gpus as f64) as usize % gpus,
                    slowdown: 1.2 + draw(6, i) * 1.8, // 1.2..3.0
                },
                1 => FaultKind::DegradedLink { factor: 1.5 + draw(7, i) * 2.5 }, // 1.5..4.0
                2 => FaultKind::JitteredLink { amplitude: 0.1 + draw(8, i) * 0.6 },
                _ => FaultKind::LinkDrops {
                    probability: 0.05 + draw(9, i) * 0.45,
                    retransmit: 0.5 + draw(10, i) * 1.5,
                },
            };
            plan.windows.push(FaultWindow { from, until, kind });
        }
        plan
    }

    /// Compute-duration multiplier at time `t`: the slowdown of the
    /// slowest active straggler (the representative device's pace), `1`
    /// when none is active.
    pub fn compute_factor(&self, t: f64) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.active_at(t))
            .filter_map(|w| match w.kind {
                FaultKind::Straggler { slowdown, .. } => Some(slowdown.max(1.0)),
                _ => None,
            })
            .fold(1.0, f64::max)
    }

    /// Communication-duration multiplier for the instruction at program
    /// position `pos` starting at time `t`, and whether a transient drop
    /// (retransmission) fired. Degradation factors multiply; jitter and
    /// drops are decided deterministically from the plan seed and `pos`.
    pub fn comm_factor(&self, t: f64, pos: usize) -> (f64, bool) {
        let mut factor = 1.0;
        let mut dropped = false;
        for w in self.windows.iter().filter(|w| w.active_at(t)) {
            match w.kind {
                FaultKind::Straggler { .. } => {}
                FaultKind::DegradedLink { factor: f } => factor *= f.max(1.0),
                FaultKind::JitteredLink { amplitude } => {
                    factor *= 1.0 + amplitude.max(0.0) * unit(self.seed, SALT_JITTER, pos as u64);
                }
                FaultKind::LinkDrops { probability, retransmit } => {
                    if unit(self.seed, SALT_DROP, pos as u64) < probability {
                        factor *= 1.0 + retransmit.max(0.0);
                        dropped = true;
                    }
                }
            }
        }
        (factor, dropped)
    }
}

/// How injected faults shaped one simulated iteration — carried on
/// [`SimReport`](crate::SimReport) so fault impact is an observable
/// quantity, not something to eyeball off a Gantt chart.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSummary {
    /// Compute instructions stretched by an active straggler.
    pub compute_slowed: usize,
    /// Communication instructions stretched by link degradation/jitter.
    pub comm_degraded: usize,
    /// Communication instructions that paid a retransmission.
    pub link_drops: usize,
    /// Total extra seconds injected across both streams (the sum of
    /// per-instruction stretch; overlap may hide part of it end-to-end).
    pub injected_delay: f64,
}

impl FaultSummary {
    /// Whether any fault actually fired during the iteration.
    pub fn any(&self) -> bool {
        self.compute_slowed > 0 || self.comm_degraded > 0 || self.link_drops > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_draws_are_pinned() {
        // Recorded before the mixer moved to `lancet_tensor::det`.
        let got = [(0, 0, 0), (11, SALT_JITTER, 3), (0xfa11, SALT_DROP, 1 << 40)]
            .map(|(seed, salt, pos)| unit(seed, salt, pos).to_bits());
        assert_eq!(got, [0, 0x3fc4_12ce_c401_27ec, 0x3fad_3e53_0292_2560]);
    }

    #[test]
    fn windows_gate_activity() {
        let w = FaultWindow {
            from: 1.0,
            until: 2.0,
            kind: FaultKind::DegradedLink { factor: 2.0 },
        };
        assert!(!w.active_at(0.5));
        assert!(w.active_at(1.0));
        assert!(w.active_at(1.999));
        assert!(!w.active_at(2.0));
    }

    #[test]
    fn compute_factor_takes_slowest_straggler() {
        let plan = FaultPlan::new(1)
            .with(0.0, 10.0, FaultKind::Straggler { gpu: 0, slowdown: 1.5 })
            .with(0.0, 10.0, FaultKind::Straggler { gpu: 1, slowdown: 2.5 })
            .with(0.0, 10.0, FaultKind::DegradedLink { factor: 9.0 });
        assert_eq!(plan.compute_factor(5.0), 2.5);
        assert_eq!(plan.compute_factor(11.0), 1.0);
    }

    #[test]
    fn comm_factor_composes_and_reports_drops() {
        let plan = FaultPlan::new(1)
            .with(0.0, 10.0, FaultKind::DegradedLink { factor: 2.0 })
            .with(0.0, 10.0, FaultKind::LinkDrops { probability: 1.0, retransmit: 1.0 });
        let (f, dropped) = plan.comm_factor(1.0, 0);
        assert_eq!(f, 4.0); // 2.0 degradation × (1 + 1.0) retransmit
        assert!(dropped);
        let (f, dropped) = plan.comm_factor(11.0, 0);
        assert_eq!(f, 1.0);
        assert!(!dropped);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let plan = FaultPlan::new(42).with(0.0, 1.0, FaultKind::JitteredLink { amplitude: 0.3 });
        for pos in 0..64 {
            let (a, _) = plan.comm_factor(0.5, pos);
            let (b, _) = plan.comm_factor(0.5, pos);
            assert_eq!(a, b, "same (seed, pos) must draw the same jitter");
            assert!((1.0..=1.3).contains(&a), "jitter {a} out of [1, 1.3]");
        }
    }

    #[test]
    fn generate_is_deterministic_and_slow_but_correct() {
        let a = FaultPlan::generate(0xc4a05, 16, 0.1);
        let b = FaultPlan::generate(0xc4a05, 16, 0.1);
        assert_eq!(a, b);
        assert!((2..=5).contains(&a.windows.len()));
        for w in &a.windows {
            assert!(w.from >= 0.0 && w.until > w.from);
            match w.kind {
                FaultKind::Straggler { slowdown, gpu } => {
                    assert!(slowdown >= 1.0 && gpu < 16)
                }
                FaultKind::DegradedLink { factor } => assert!(factor >= 1.0),
                FaultKind::JitteredLink { amplitude } => assert!(amplitude >= 0.0),
                FaultKind::LinkDrops { probability, retransmit } => {
                    assert!((0.0..=1.0).contains(&probability) && retransmit >= 0.0)
                }
            }
        }
        let c = FaultPlan::generate(0xc4a06, 16, 0.1);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn empty_plan_is_identity() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.compute_factor(0.0), 1.0);
        assert_eq!(plan.comm_factor(0.0, 3), (1.0, false));
    }
}
