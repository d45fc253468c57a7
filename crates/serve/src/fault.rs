//! Deterministic fault injection for the serving runtime.
//!
//! Chaos testing a concurrent runtime only works if the chaos is
//! *replayable*: the same fault seed must produce the same injected
//! faults, so a failure found once can be reproduced forever. The
//! [`FaultInjector`] therefore draws every decision from a SplitMix64
//! hash of `(seed, site, sequence number)` — no wall clock, no OS
//! randomness — where each injection site (worker delay, worker panic,
//! execution failure, plan-build failure, batcher stall) keeps its own
//! atomic sequence counter.
//!
//! The injector decides *what* goes wrong; the runtime's survival
//! machinery (per-request timeout, bounded retry with backoff, batch
//! degradation, panic isolation — see
//! [`ServeConfig`](crate::ServeConfig)) decides how to keep the
//! exactly-once response contract anyway. Injected faults are counted in
//! [`ServeStats::injected_faults`](crate::ServeStats::injected_faults).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Probabilities and magnitudes of the faults to inject, plus the seed
/// all decisions derive from. All probabilities are per injection-site
/// *opportunity* (one batch execution, one plan build, …), in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed every fault decision derives from.
    pub seed: u64,
    /// Probability that a worker sleeps [`slow_delay`](Self::slow_delay)
    /// before executing a batch (a straggling executor: slow but correct).
    pub slow_worker: f64,
    /// How long a slow worker sleeps.
    pub slow_delay: Duration,
    /// Probability that a worker panics mid-batch. The runtime isolates
    /// the panic and answers the batch's requests with
    /// [`ServeError::WorkerPanic`](crate::ServeError::WorkerPanic).
    pub worker_panic: f64,
    /// Probability that one execution attempt fails transiently (the
    /// retry path's trigger).
    pub exec_fail: f64,
    /// Probability that one plan build fails (the batch-degradation
    /// path's trigger).
    pub plan_fail: f64,
    /// Probability that the batcher stalls for
    /// [`stall_delay`](Self::stall_delay) after forming a batch.
    pub queue_stall: f64,
    /// How long a batcher stall lasts.
    pub stall_delay: Duration,
}

impl FaultSpec {
    /// A spec that injects nothing (useful as a base for builders).
    pub fn quiet(seed: u64) -> Self {
        FaultSpec {
            seed,
            slow_worker: 0.0,
            slow_delay: Duration::from_millis(5),
            worker_panic: 0.0,
            exec_fail: 0.0,
            plan_fail: 0.0,
            queue_stall: 0.0,
            stall_delay: Duration::from_millis(5),
        }
    }

    /// The moderate everything-at-once mix the chaos-conformance tests
    /// drive: every fault class fires with non-trivial probability,
    /// magnitudes stay small enough that a short trace still finishes in
    /// seconds.
    pub fn chaos(seed: u64) -> Self {
        FaultSpec {
            seed,
            slow_worker: 0.25,
            slow_delay: Duration::from_millis(2),
            worker_panic: 0.10,
            exec_fail: 0.20,
            plan_fail: 0.20,
            queue_stall: 0.15,
            stall_delay: Duration::from_millis(2),
        }
    }
}

/// Injection sites, each with an independent deterministic draw sequence.
#[derive(Debug, Clone, Copy)]
#[repr(usize)]
enum Site {
    SlowWorker = 0,
    WorkerPanic = 1,
    ExecFail = 2,
    PlanFail = 3,
    QueueStall = 4,
}

/// Per-site salts separating the draw streams.
const SITE_SALTS: [u64; 5] = [0x51c3_a11d, 0x9a21_c001, 0xe8ec_fa17, 0x91a2_bad5, 0x57a1_1ed0];

/// SplitMix64 hash of `(seed, salt, seq)` to a unit float.
fn unit(seed: u64, salt: u64, seq: u64) -> f64 {
    let mut z = seed
        ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ seq.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded source of fault decisions, shared by the batcher and every
/// exec worker. Thread-safe; each site's decisions form a deterministic
/// sequence regardless of which thread consumes them.
#[derive(Debug)]
pub struct FaultInjector {
    spec: FaultSpec,
    seqs: [AtomicU64; 5],
}

impl FaultInjector {
    /// An injector drawing from `spec`.
    pub fn new(spec: FaultSpec) -> Self {
        FaultInjector { spec, seqs: Default::default() }
    }

    /// The spec this injector draws from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Draws the next decision for `site` against probability `p`.
    fn fire(&self, site: Site, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let at = site as usize;
        let seq = self.seqs[at].fetch_add(1, Ordering::Relaxed);
        unit(self.spec.seed, SITE_SALTS[at], seq) < p
    }

    /// Should this batch execution run on a slowed worker? Returns the
    /// sleep to inject.
    ///
    /// Site methods are `pub` so other deterministic runtimes (the
    /// `lancet-decode` step loop) can share one replayable fault stream
    /// instead of inventing a parallel injector.
    pub fn worker_delay(&self) -> Option<Duration> {
        self.fire(Site::SlowWorker, self.spec.slow_worker).then_some(self.spec.slow_delay)
    }

    /// Should this batch execution panic the worker?
    pub fn worker_panic(&self) -> bool {
        self.fire(Site::WorkerPanic, self.spec.worker_panic)
    }

    /// Should this execution attempt fail transiently?
    pub fn exec_fault(&self) -> bool {
        self.fire(Site::ExecFail, self.spec.exec_fail)
    }

    /// Should this plan build fail?
    pub fn plan_fault(&self) -> bool {
        self.fire(Site::PlanFail, self.spec.plan_fail)
    }

    /// Should the batcher stall after forming this batch? Returns the
    /// sleep to inject.
    pub fn batcher_stall(&self) -> Option<Duration> {
        self.fire(Site::QueueStall, self.spec.queue_stall).then_some(self.spec.stall_delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_spec_never_fires() {
        let inj = FaultInjector::new(FaultSpec::quiet(7));
        for _ in 0..100 {
            assert!(inj.worker_delay().is_none());
            assert!(!inj.worker_panic());
            assert!(!inj.exec_fault());
            assert!(!inj.plan_fault());
            assert!(inj.batcher_stall().is_none());
        }
    }

    #[test]
    fn sequences_are_deterministic_per_seed() {
        let draw = |seed: u64| -> Vec<bool> {
            let inj = FaultInjector::new(FaultSpec { exec_fail: 0.5, ..FaultSpec::quiet(seed) });
            (0..64).map(|_| inj.exec_fault()).collect()
        };
        assert_eq!(draw(3), draw(3), "same seed ⇒ same decision sequence");
        assert_ne!(draw(3), draw(4), "different seeds should diverge");
    }

    #[test]
    fn sites_draw_independent_streams() {
        let spec = FaultSpec { exec_fail: 0.5, plan_fail: 0.5, ..FaultSpec::quiet(11) };
        let a = FaultInjector::new(spec.clone());
        let execs: Vec<bool> = (0..64).map(|_| a.exec_fault()).collect();
        let plans: Vec<bool> = (0..64).map(|_| a.plan_fault()).collect();
        assert_ne!(execs, plans, "sites must not share a stream");
        // Consuming one site must not perturb another: interleave draws.
        let b = FaultInjector::new(spec);
        let execs_b: Vec<bool> = (0..64)
            .map(|_| {
                let e = b.exec_fault();
                b.plan_fault();
                e
            })
            .collect();
        assert_eq!(execs, execs_b);
    }

    #[test]
    fn probability_one_always_fires() {
        let inj = FaultInjector::new(FaultSpec {
            slow_worker: 1.0,
            worker_panic: 1.0,
            queue_stall: 1.0,
            ..FaultSpec::quiet(1)
        });
        for _ in 0..16 {
            assert!(inj.worker_delay().is_some());
            assert!(inj.worker_panic());
            assert!(inj.batcher_stall().is_some());
        }
    }
}
