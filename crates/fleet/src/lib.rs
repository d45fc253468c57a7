//! `lancet-fleet`: a front-end that shards traffic across N replica
//! [`ServeRuntime`]s.
//!
//! One [`ServeRuntime`] is a single "machine": its own worker pool, plan
//! cache, and bounded admission queue. A [`Fleet`] stands in front of N
//! of them and adds the three behaviours a multi-replica deployment
//! needs:
//!
//! 1. **Consistent routing.** Each request is routed by the *stable*
//!    hash of its [`PlanKey`] ([`PlanKey::stable_hash`] — never
//!    `RandomState`, which differs per process) through
//!    highest-random-weight hashing over the healthy replicas. Requests
//!    that would share a cached plan land on the same replica, so the
//!    fleet-wide plan-cache hit rate matches a single runtime's instead
//!    of degrading by 1/N, and removing a replica only re-routes the
//!    keys that lived there.
//! 2. **Work stealing.** Consistent routing concentrates load under
//!    skewed traffic. When the routed replica's admission queue runs
//!    [`FleetConfig::steal_threshold`] deeper than the least-loaded
//!    healthy replica's, the request goes to the least-loaded one
//!    instead (counted in [`FleetStats::stolen`]). Admission stays
//!    bounded per replica: when every healthy replica is full the
//!    caller sees the same typed [`ServeError::Overloaded`] a single
//!    runtime gives.
//! 3. **Crash fail-over.** [`Fleet::crash`] kills a replica abruptly
//!    (its queued requests are answered [`ServeError::Crashed`]).
//!    [`FleetTicket::wait`] treats that answer as retriable and
//!    resubmits through the surviving replicas, so an admitted request
//!    is never lost — the chaos gate asserts zero.
//!
//! Replica inference is deterministic (same request → same bits on any
//! replica), which is what makes crash re-execution safe: a re-routed
//! request can only ever observe one answer value.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use lancet_models::GptMoeConfig;
use lancet_serve::{
    CanonicalWeights, PackSet, PlanKey, Result, ServeConfig, ServeError, ServeRuntime,
    ServeStats, Ticket,
};
use lancet_tensor::{det, Tensor};

/// Fleet knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Replica count (default 2). `0` means 1.
    pub replicas: usize,
    /// Per-replica runtime configuration (every replica is identical).
    pub serve: ServeConfig,
    /// How much deeper (in queued requests) the routed replica may run
    /// than the least-loaded healthy replica before the request is
    /// stolen. Small values spread load aggressively at the cost of
    /// plan-cache locality; `usize::MAX` disables stealing.
    pub steal_threshold: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig { replicas: 2, serve: ServeConfig::default(), steal_threshold: 4 }
    }
}

/// Fleet-wide statistics: the merged view plus the per-replica pieces.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// All replicas merged through [`ServeStats::merge`] — counters
    /// summed, percentiles recomputed over the pooled latency windows.
    pub merged: ServeStats,
    /// Each replica's own snapshot, fleet index order.
    pub per_replica: Vec<ServeStats>,
    /// Requests re-submitted to a surviving replica after their first
    /// replica crashed with them queued.
    pub rerouted: u64,
    /// Requests steered away from their routed replica (work stealing,
    /// or overflow from a replica at its admission bound).
    pub stolen: u64,
    /// Healthy (not crashed) replicas right now.
    pub healthy: usize,
}

struct Inner {
    replicas: Vec<Arc<ServeRuntime>>,
    healthy: Vec<AtomicBool>,
    serve: ServeConfig,
    /// Per-model routing key: the stable hash of the [`PlanKey`] the
    /// model's full batches plan under. One key per model keeps all of a
    /// model's traffic (and therefore all its plan-cache entries) on one
    /// replica — exactly what maximizes the fleet-wide hit rate.
    routes: RwLock<HashMap<String, u64>>,
    steal_threshold: usize,
    rerouted: AtomicU64,
    stolen: AtomicU64,
}

/// A multi-replica serving fleet. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Fleet {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("replicas", &self.inner.replicas.len())
            .field("healthy", &self.healthy())
            .finish()
    }
}

/// A claim on one fleet request's response. Unlike a plain [`Ticket`],
/// waiting re-routes through a surviving replica when the original one
/// crashed — the caller never sees [`ServeError::Crashed`].
#[must_use = "an unawaited ticket discards its response"]
#[derive(Debug)]
pub struct FleetTicket {
    fleet: Fleet,
    ticket: Ticket,
    model: String,
    ids: Vec<f32>,
}

impl FleetTicket {
    /// Blocks until the response arrives, transparently resubmitting to
    /// a healthy replica if the serving one crashes first.
    ///
    /// # Errors
    ///
    /// Everything [`Fleet::submit`] rejects with, plus execution-time
    /// failures — but never [`ServeError::Crashed`].
    pub fn wait(mut self) -> Result<Tensor> {
        loop {
            match self.ticket.wait() {
                Err(ServeError::Crashed) => {
                    self.fleet.inner.rerouted.fetch_add(1, Ordering::Relaxed);
                    self.ticket = self.fleet.submit_ticket(&self.model, self.ids.clone())?;
                }
                other => return other,
            }
        }
    }
}

impl Fleet {
    /// Starts `config.replicas` (at least 1) identical [`ServeRuntime`]s.
    pub fn start(config: FleetConfig) -> Fleet {
        let n = config.replicas.max(1);
        let replicas: Vec<_> =
            (0..n).map(|_| ServeRuntime::start(config.serve.clone())).collect();
        let healthy = (0..n).map(|_| AtomicBool::new(true)).collect();
        Fleet {
            inner: Arc::new(Inner {
                replicas,
                healthy,
                serve: config.serve,
                routes: RwLock::new(HashMap::new()),
                steal_threshold: config.steal_threshold,
                rerouted: AtomicU64::new(0),
                stolen: AtomicU64::new(0),
            }),
        }
    }

    /// Registers `cfg` on every replica (generated canonical weights,
    /// replicated N times).
    ///
    /// # Errors
    ///
    /// As [`ServeRuntime::register_model`]; a failure on any replica
    /// fails the registration.
    pub fn register_model(&self, cfg: GptMoeConfig) -> Result<()> {
        for r in &self.inner.replicas {
            r.register_model(cfg.clone())?;
        }
        self.record_route(&cfg);
        Ok(())
    }

    /// Registers `cfg` on every replica with caller-supplied weights —
    /// the model-store path. Cloning the weights per replica is an
    /// `Arc` bump per tensor when they came from a mapped store, so N
    /// replicas share one copy of the pages.
    ///
    /// # Errors
    ///
    /// As [`ServeRuntime::register_model_with_weights`].
    pub fn register_model_with_weights(
        &self,
        cfg: GptMoeConfig,
        canonical: &CanonicalWeights,
        packs: Option<&PackSet>,
    ) -> Result<()> {
        for r in &self.inner.replicas {
            r.register_model_with_weights(cfg.clone(), canonical.clone(), packs.cloned())?;
        }
        self.record_route(&cfg);
        Ok(())
    }

    /// Pre-builds `model`'s execution plans on every replica (see
    /// [`ServeRuntime::warm_model`]): with stealing enabled any replica
    /// can serve any model, so a cold plan cache anywhere turns into
    /// tail latency for somebody.
    ///
    /// # Errors
    ///
    /// As [`ServeRuntime::warm_model`] — the first failing replica aborts
    /// the warmup.
    pub fn warm(&self, model: &str) -> Result<()> {
        for r in &self.inner.replicas {
            r.warm_model(model)?;
        }
        Ok(())
    }

    /// Computes and stores the model's routing key: the stable hash of
    /// the plan key its full batches resolve to.
    fn record_route(&self, cfg: &GptMoeConfig) {
        let key = PlanKey {
            model: cfg.name.clone(),
            bucket: self.inner.serve.max_batch.max(1).next_power_of_two(),
            seq: cfg.seq,
            cluster: self.inner.serve.cluster,
            gpus: cfg.gpus,
        };
        self.inner
            .routes
            .write()
            .expect("routes lock")
            .insert(cfg.name.clone(), key.stable_hash());
    }

    /// The replica index `model`'s traffic routes to right now (healthy
    /// set + stable hash). Exposed for tests and operational tooling.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] if `model` was never registered;
    /// [`ServeError::ShuttingDown`] if no healthy replica remains.
    pub fn route_of(&self, model: &str) -> Result<usize> {
        let key = self.route_key(model)?;
        self.route_hash(key).ok_or(ServeError::ShuttingDown)
    }

    fn route_key(&self, model: &str) -> Result<u64> {
        self.inner
            .routes
            .read()
            .expect("routes lock")
            .get(model)
            .copied()
            .ok_or_else(|| ServeError::UnknownModel(model.into()))
    }

    /// Highest-random-weight choice over the healthy replicas: each
    /// replica scores `mix(key, index)` and the max wins. Stable across
    /// processes, and removing a replica re-routes only its keys.
    fn route_hash(&self, key: u64) -> Option<usize> {
        (0..self.inner.replicas.len())
            .filter(|&i| self.inner.healthy[i].load(Ordering::Acquire))
            .max_by_key(|&i| hrw_score(key, i as u64))
    }

    /// Submits one request, routing by the model's stable plan key with
    /// work stealing under skew.
    ///
    /// # Errors
    ///
    /// As [`ServeRuntime::submit`]; [`ServeError::Overloaded`] only when
    /// every healthy replica is at its admission bound, and
    /// [`ServeError::ShuttingDown`] when no healthy replica remains.
    pub fn submit(&self, model: &str, ids: Vec<f32>) -> Result<FleetTicket> {
        let ticket = self.submit_ticket(model, ids.clone())?;
        Ok(FleetTicket { fleet: self.clone(), ticket, model: model.into(), ids })
    }

    /// [`submit`](Self::submit), then block for the response.
    ///
    /// # Errors
    ///
    /// Everything `submit` rejects with, plus execution-time failures.
    pub fn submit_blocking(&self, model: &str, ids: Vec<f32>) -> Result<Tensor> {
        self.submit(model, ids)?.wait()
    }

    fn submit_ticket(&self, model: &str, ids: Vec<f32>) -> Result<Ticket> {
        let key = self.route_key(model)?;
        // One iteration per replica bounds the crash-race retry loop: a
        // submit can only fail with `Crashed` by losing a race with that
        // replica's crash, which also unroutes it.
        for _ in 0..self.inner.replicas.len() {
            let Some(routed) = self.route_hash(key) else { break };
            let target = self.steal_target(routed);
            match self.inner.replicas[target].submit(model, ids.clone()) {
                Ok(ticket) => {
                    if target != routed {
                        self.inner.stolen.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(ticket);
                }
                Err(ServeError::Crashed) => {
                    self.inner.healthy[target].store(false, Ordering::Release);
                }
                Err(ServeError::Overloaded { depth }) => {
                    // The bound is per replica; only give up once no
                    // healthy replica can admit. Overflow to the
                    // emptiest one that still has room.
                    return match self.least_loaded_admitting(target) {
                        Some(alt) => {
                            let ticket = self.inner.replicas[alt].submit(model, ids)?;
                            self.inner.stolen.fetch_add(1, Ordering::Relaxed);
                            Ok(ticket)
                        }
                        None => Err(ServeError::Overloaded { depth }),
                    };
                }
                Err(other) => return Err(other),
            }
        }
        Err(ServeError::ShuttingDown)
    }

    /// The replica to actually submit to: the routed one, unless its
    /// queue runs `steal_threshold` deeper than the least-loaded healthy
    /// replica's.
    fn steal_target(&self, routed: usize) -> usize {
        if self.inner.steal_threshold == usize::MAX || self.inner.replicas.len() == 1 {
            return routed;
        }
        let routed_len = self.inner.replicas[routed].queue_len();
        let mut best = routed;
        let mut best_len = routed_len;
        for (i, r) in self.inner.replicas.iter().enumerate() {
            if i != routed && self.inner.healthy[i].load(Ordering::Acquire) {
                let len = r.queue_len();
                if len < best_len {
                    best = i;
                    best_len = len;
                }
            }
        }
        if best != routed && routed_len >= best_len.saturating_add(self.inner.steal_threshold) {
            best
        } else {
            routed
        }
    }

    /// The healthy replica (≠ `not`) with the shortest queue that still
    /// has admission room, if any.
    fn least_loaded_admitting(&self, not: usize) -> Option<usize> {
        self.inner
            .replicas
            .iter()
            .enumerate()
            .filter(|&(i, r)| {
                i != not
                    && self.inner.healthy[i].load(Ordering::Acquire)
                    && r.queue_len() < r.queue_capacity()
            })
            .min_by_key(|&(_, r)| r.queue_len())
            .map(|(i, _)| i)
    }

    /// Kills replica `index` abruptly ([`ServeRuntime::crash`]): it is
    /// removed from routing, its queued requests are answered
    /// [`ServeError::Crashed`], and fleet tickets waiting on them
    /// resubmit to the survivors. No-op on an out-of-range index.
    pub fn crash(&self, index: usize) {
        let Some(flag) = self.inner.healthy.get(index) else { return };
        // Unroute first, so resubmissions can't land back on the corpse.
        flag.store(false, Ordering::Release);
        self.inner.replicas[index].crash();
    }

    /// Healthy (not crashed) replica count.
    pub fn healthy(&self) -> usize {
        self.inner.healthy.iter().filter(|h| h.load(Ordering::Acquire)).count()
    }

    /// Total replica count (healthy or not).
    pub fn replicas(&self) -> usize {
        self.inner.replicas.len()
    }

    /// A point-in-time fleet snapshot: merged + per-replica stats.
    pub fn stats(&self) -> FleetStats {
        let per_replica: Vec<ServeStats> =
            self.inner.replicas.iter().map(|r| r.stats()).collect();
        FleetStats {
            merged: ServeStats::merge(&per_replica),
            per_replica,
            rerouted: self.inner.rerouted.load(Ordering::Relaxed),
            stolen: self.inner.stolen.load(Ordering::Relaxed),
            healthy: self.healthy(),
        }
    }

    /// Shuts every replica down gracefully (queued work executes).
    pub fn shutdown(&self) {
        for r in &self.inner.replicas {
            r.shutdown();
        }
    }
}

/// The per-replica score for highest-random-weight routing: a
/// SplitMix64-style mix of the routing key and the replica index.
/// Deterministic across processes by construction.
fn hrw_score(key: u64, replica: u64) -> u64 {
    det::mix64(key ^ replica.wrapping_mul(det::GAMMA))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hrw_score_is_pinned() {
        // Recorded before the mixer moved to `lancet_tensor::det`: routing
        // must survive refactors, or every restart re-scatters traffic.
        let got = [(0, 0), (1, 2), (0xdead_beef, 3), (u64::MAX, 7)].map(|(k, r)| hrw_score(k, r));
        assert_eq!(got, [0, 0xbeeb_8da1_658e_ec67, 0xf680_a609_a2ad_52f3, 0x8bde_40ab_8762_3c48]);
    }

    #[test]
    fn hrw_is_deterministic_and_spreads() {
        // Same (key, replica) → same score; across many keys, a 4-way
        // fleet sees every replica win sometimes.
        assert_eq!(hrw_score(42, 3), hrw_score(42, 3));
        let mut wins = [0usize; 4];
        for key in 0..256u64 {
            let best = (0..4).max_by_key(|&i| hrw_score(key.wrapping_mul(0x9E37), i)).unwrap();
            wins[best as usize] += 1;
        }
        assert!(wins.iter().all(|&w| w > 16), "skewed HRW wins: {wins:?}");
    }

    #[test]
    fn removing_a_replica_only_moves_its_keys() {
        // The HRW property the fleet relies on for crash fail-over:
        // keys not routed to the removed replica keep their placement.
        for key in 0..512u64 {
            let all: usize = (0..4).max_by_key(|&i| hrw_score(key, i as u64)).unwrap();
            let without_3: usize = (0..3).max_by_key(|&i| hrw_score(key, i as u64)).unwrap();
            if all != 3 {
                assert_eq!(all, without_3, "key {key} moved although replica 3 held it not");
            }
        }
    }
}
