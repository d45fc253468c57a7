//! Runtime observability: counters, latency percentiles, throughput.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::cache::CacheStats;

/// How many latency samples the percentile window retains. Old samples
/// are overwritten ring-buffer style, so percentiles describe *recent*
/// behaviour on long-running servers while staying O(1) in memory.
const LATENCY_WINDOW: usize = 8192;

/// Shared mutable metric state, updated by every runtime thread.
///
/// Public (with public counters) so sibling runtimes — `lancet-decode`'s
/// step scheduler — report through the same instrument instead of
/// duplicating the ring/percentile machinery.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// Requests accepted past the submission checks.
    pub submitted: AtomicU64,
    /// Requests (or decode streams) answered successfully.
    pub completed: AtomicU64,
    /// Requests shed at the door because the queue was full.
    pub rejected_overload: AtomicU64,
    /// Requests shed because their latency budget had already lapsed.
    pub shed_deadline: AtomicU64,
    /// Requests answered with a terminal error.
    pub failed: AtomicU64,
    /// Requests answered with a timeout error.
    pub timed_out: AtomicU64,
    /// Batches executed (decode: steps run).
    pub batches: AtomicU64,
    /// Requests summed over executed batches (decode: step occupancy).
    pub batched_requests: AtomicU64,
    /// Faults the chaos injector fired.
    pub injected_faults: AtomicU64,
    /// Execution attempts retried after a transient failure.
    pub retried: AtomicU64,
    /// Batches degraded to a fallback path (smaller bucket / eager prefill).
    pub degraded: AtomicU64,
    /// Worker panics isolated (decode: partial-commit crashes survived).
    pub worker_panics: AtomicU64,
    /// Requests routed to their preferred placement.
    pub placement_hits: AtomicU64,
    /// Requests that missed their preferred placement.
    pub placement_misses: AtomicU64,
    /// Requests answered [`ServeError::Crashed`](crate::ServeError::Crashed)
    /// because their replica was killed while they were queued.
    pub crashed: AtomicU64,
    latencies: Mutex<LatencyRing>,
    /// Time-to-first-token samples (decode serving), ms.
    ttft: Mutex<LatencyRing>,
    /// Inter-token-latency samples (decode serving), ms.
    itl: Mutex<LatencyRing>,
}

#[derive(Debug, Default)]
struct LatencyRing {
    samples: Vec<f64>,
    next: usize,
}

impl LatencyRing {
    fn push(&mut self, ms: f64) {
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(ms);
        } else {
            let at = self.next;
            self.samples[at] = ms;
        }
        self.next = (self.next + 1) % LATENCY_WINDOW;
    }

    fn sorted(&self) -> Vec<f64> {
        let mut samples = self.samples.clone();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
        samples
    }
}

impl Metrics {
    /// A fresh instrument; `started` anchors the throughput clock.
    pub fn new() -> Self {
        Metrics {
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected_overload: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            injected_faults: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            placement_hits: AtomicU64::new(0),
            placement_misses: AtomicU64::new(0),
            crashed: AtomicU64::new(0),
            latencies: Mutex::new(LatencyRing::default()),
            ttft: Mutex::new(LatencyRing::default()),
            itl: Mutex::new(LatencyRing::default()),
        }
    }

    /// Records one served request's end-to-end latency in milliseconds.
    pub fn record_latency(&self, ms: f64) {
        self.latencies.lock().expect("metrics lock").push(ms);
    }

    /// Records one streamed sequence's time-to-first-token, ms.
    pub fn record_ttft(&self, ms: f64) {
        self.ttft.lock().expect("metrics lock").push(ms);
    }

    /// Records one inter-token gap on a streamed sequence, ms.
    pub fn record_itl(&self, ms: f64) {
        self.itl.lock().expect("metrics lock").push(ms);
    }

    /// Builds a consistent snapshot.
    pub fn snapshot(&self, queue_depth: usize, cache: CacheStats) -> ServeStats {
        let samples = self.latencies.lock().expect("metrics lock").sorted();
        let ttft = self.ttft.lock().expect("metrics lock").sorted();
        let itl = self.itl.lock().expect("metrics lock").sorted();
        let completed = self.completed.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            batches,
            injected_faults: self.injected_faults.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            placement_hits: self.placement_hits.load(Ordering::Relaxed),
            placement_misses: self.placement_misses.load(Ordering::Relaxed),
            crashed: self.crashed.load(Ordering::Relaxed),
            queue_depth,
            cache,
            p50_ms: percentile(&samples, 0.50),
            p95_ms: percentile(&samples, 0.95),
            p99_ms: percentile(&samples, 0.99),
            ttft_p50_ms: percentile(&ttft, 0.50),
            ttft_p95_ms: percentile(&ttft, 0.95),
            itl_p50_ms: percentile(&itl, 0.50),
            itl_p95_ms: percentile(&itl, 0.95),
            throughput_rps: completed as f64 / self.started.elapsed().as_secs_f64().max(1e-9),
            mean_batch: if batches == 0 {
                0.0
            } else {
                self.batched_requests.load(Ordering::Relaxed) as f64 / batches as f64
            },
            latency_samples: samples,
            ttft_samples: ttft,
            itl_samples: itl,
        }
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

/// The q-th percentile (nearest-rank) of an ascending-sorted sample set;
/// 0 when empty.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A point-in-time view of the runtime's health — the numbers an operator
/// watches and the serve bench records.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered with a response.
    pub completed: u64,
    /// Requests rejected at admission because the queue was full.
    pub rejected_overload: u64,
    /// Requests shed from the queue after exceeding their latency budget.
    pub shed_deadline: u64,
    /// Requests that failed during planning or execution.
    pub failed: u64,
    /// Requests answered with [`ServeError::TimedOut`] because they
    /// out-waited the per-request timeout before execution.
    ///
    /// [`ServeError::TimedOut`]: crate::ServeError::TimedOut
    pub timed_out: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Faults the configured [`FaultSpec`](crate::FaultSpec) injected
    /// (slow workers, panics, execution/plan failures, batcher stalls).
    /// Always zero without fault injection.
    pub injected_faults: u64,
    /// Execution attempts retried after a transient failure.
    pub retried: u64,
    /// Batches degraded to smaller buckets after a plan-build failure.
    pub degraded: u64,
    /// Worker panics isolated by the runtime (the worker thread and all
    /// other requests survived each one).
    pub worker_panics: u64,
    /// Requests executed by the worker their placement preferred (the
    /// one holding their hot expert). Always zero unless affinity
    /// dispatch is enabled (`ServeConfig::affinity`).
    pub placement_hits: u64,
    /// Requests whose batch was stolen by a non-preferred worker —
    /// preference is soft, so a free worker never idles while work is
    /// queued. Zero without affinity dispatch.
    pub placement_misses: u64,
    /// Requests answered [`ServeError::Crashed`] because their replica
    /// was killed while they were queued (chaos testing / fleet
    /// fail-over). The fleet front-end re-routes these; a standalone
    /// runtime surfaces them to the caller.
    ///
    /// [`ServeError::Crashed`]: crate::ServeError::Crashed
    pub crashed: u64,
    /// Requests waiting in the admission queue right now.
    pub queue_depth: usize,
    /// Plan-cache effectiveness counters.
    pub cache: CacheStats,
    /// Median end-to-end latency over the recent window, ms.
    pub p50_ms: f64,
    /// 95th-percentile latency over the recent window, ms.
    pub p95_ms: f64,
    /// 99th-percentile latency over the recent window, ms.
    pub p99_ms: f64,
    /// Median time-to-first-token over the recent window, ms. Zero
    /// unless a decode runtime streams through these metrics.
    pub ttft_p50_ms: f64,
    /// 95th-percentile time-to-first-token, ms.
    pub ttft_p95_ms: f64,
    /// Median inter-token latency over the recent window, ms. Zero
    /// unless a decode runtime streams through these metrics.
    pub itl_p50_ms: f64,
    /// 95th-percentile inter-token latency, ms.
    pub itl_p95_ms: f64,
    /// Completed requests per second since the runtime started.
    pub throughput_rps: f64,
    /// Mean requests per executed micro-batch.
    pub mean_batch: f64,
    /// The sorted end-to-end latency window behind the `p*_ms` fields.
    /// Carried so [`ServeStats::merge`] can recompute exact fleet-wide
    /// percentiles instead of averaging per-replica ones (averaged
    /// percentiles are statistically meaningless under skew).
    pub latency_samples: Vec<f64>,
    /// The sorted time-to-first-token window behind `ttft_p*_ms`.
    pub ttft_samples: Vec<f64>,
    /// The sorted inter-token-latency window behind `itl_p*_ms`.
    pub itl_samples: Vec<f64>,
}

impl ServeStats {
    /// Fraction of plan lookups answered from the cache, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Requests that were admitted but never answered. Zero whenever the
    /// runtime has drained (the exactly-once delivery invariant).
    pub fn outstanding(&self) -> u64 {
        self.submitted
            - self.completed
            - self.shed_deadline
            - self.failed
            - self.timed_out
            - self.crashed
    }

    /// Aggregates per-replica snapshots into one fleet-wide view.
    ///
    /// Counters sum. Latency/TTFT/ITL percentiles are recomputed over the
    /// *pooled* sample windows — never averaged per replica, which would
    /// understate tail latency whenever one replica is slower than the
    /// rest. Throughput sums (replicas serve concurrently); `mean_batch`
    /// is weighted by each replica's batch count.
    pub fn merge(stats: &[ServeStats]) -> ServeStats {
        let mut out = ServeStats::default();
        let mut batch_weighted = 0.0;
        for s in stats {
            out.submitted += s.submitted;
            out.completed += s.completed;
            out.rejected_overload += s.rejected_overload;
            out.shed_deadline += s.shed_deadline;
            out.failed += s.failed;
            out.timed_out += s.timed_out;
            out.batches += s.batches;
            out.injected_faults += s.injected_faults;
            out.retried += s.retried;
            out.degraded += s.degraded;
            out.worker_panics += s.worker_panics;
            out.placement_hits += s.placement_hits;
            out.placement_misses += s.placement_misses;
            out.crashed += s.crashed;
            out.queue_depth += s.queue_depth;
            out.cache.hits += s.cache.hits;
            out.cache.misses += s.cache.misses;
            out.cache.evictions += s.cache.evictions;
            out.cache.len += s.cache.len;
            out.cache.packed_bytes += s.cache.packed_bytes;
            out.throughput_rps += s.throughput_rps;
            batch_weighted += s.mean_batch * s.batches as f64;
            out.latency_samples.extend_from_slice(&s.latency_samples);
            out.ttft_samples.extend_from_slice(&s.ttft_samples);
            out.itl_samples.extend_from_slice(&s.itl_samples);
        }
        let sort = |v: &mut Vec<f64>| v.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
        sort(&mut out.latency_samples);
        sort(&mut out.ttft_samples);
        sort(&mut out.itl_samples);
        out.p50_ms = percentile(&out.latency_samples, 0.50);
        out.p95_ms = percentile(&out.latency_samples, 0.95);
        out.p99_ms = percentile(&out.latency_samples, 0.99);
        out.ttft_p50_ms = percentile(&out.ttft_samples, 0.50);
        out.ttft_p95_ms = percentile(&out.ttft_samples, 0.95);
        out.itl_p50_ms = percentile(&out.itl_samples, 0.50);
        out.itl_p95_ms = percentile(&out.itl_samples, 0.95);
        out.mean_batch = if out.batches == 0 { 0.0 } else { batch_weighted / out.batches as f64 };
        out
    }
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats {
            submitted: 0,
            completed: 0,
            rejected_overload: 0,
            shed_deadline: 0,
            failed: 0,
            timed_out: 0,
            batches: 0,
            injected_faults: 0,
            retried: 0,
            degraded: 0,
            worker_panics: 0,
            placement_hits: 0,
            placement_misses: 0,
            crashed: 0,
            queue_depth: 0,
            cache: CacheStats::default(),
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
            ttft_p50_ms: 0.0,
            ttft_p95_ms: 0.0,
            itl_p50_ms: 0.0,
            itl_p95_ms: 0.0,
            throughput_rps: 0.0,
            mean_batch: 0.0,
            latency_samples: Vec::new(),
            ttft_samples: Vec::new(),
            itl_samples: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn merge_matches_single_instrument_oracle() {
        // Two replicas that each saw half the traffic must merge into the
        // same snapshot one instrument would have produced seeing it all.
        let whole = Metrics::new();
        let a = Metrics::new();
        let b = Metrics::new();
        for i in 0..200u64 {
            let ms = ((i * 37) % 91) as f64 + 0.5;
            whole.record_latency(ms);
            if i % 2 == 0 { a.record_latency(ms) } else { b.record_latency(ms) }
            if i % 3 == 0 {
                whole.record_ttft(ms * 2.0);
                a.record_ttft(ms * 2.0);
            }
            if i % 5 == 0 {
                whole.record_itl(ms / 4.0);
                b.record_itl(ms / 4.0);
            }
        }
        for (m, n) in [(&whole, 200u64), (&a, 100), (&b, 100)] {
            m.submitted.store(n + 8, Ordering::Relaxed);
            m.completed.store(n, Ordering::Relaxed);
            m.failed.store(3, Ordering::Relaxed);
            m.timed_out.store(2, Ordering::Relaxed);
            m.shed_deadline.store(2, Ordering::Relaxed);
            m.crashed.store(1, Ordering::Relaxed);
            m.batches.store(n / 4, Ordering::Relaxed);
            m.batched_requests.store(n, Ordering::Relaxed);
        }

        let oracle = whole.snapshot(3, CacheStats::default());
        let merged = ServeStats::merge(&[
            a.snapshot(1, CacheStats::default()),
            b.snapshot(2, CacheStats::default()),
        ]);

        assert_eq!(merged.completed, oracle.completed);
        assert_eq!(merged.submitted, 216);
        assert_eq!(merged.failed, 6);
        assert_eq!(merged.crashed, 2);
        assert_eq!(merged.queue_depth, 3);
        assert_eq!(merged.batches, oracle.batches);
        assert_eq!(merged.latency_samples, oracle.latency_samples);
        assert_eq!(merged.p50_ms, oracle.p50_ms);
        assert_eq!(merged.p95_ms, oracle.p95_ms);
        assert_eq!(merged.p99_ms, oracle.p99_ms);
        assert_eq!(merged.ttft_p50_ms, oracle.ttft_p50_ms);
        assert_eq!(merged.ttft_p95_ms, oracle.ttft_p95_ms);
        assert_eq!(merged.itl_p50_ms, oracle.itl_p50_ms);
        assert_eq!(merged.itl_p95_ms, oracle.itl_p95_ms);
        assert!((merged.mean_batch - oracle.mean_batch).abs() < 1e-12);
        // outstanding() accounts crashed rows: 216 - 200 - 4 - 6 - 4 - 2 = 0.
        assert_eq!(merged.outstanding(), 0);
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        let merged = ServeStats::merge(&[]);
        assert_eq!(merged.submitted, 0);
        assert_eq!(merged.p99_ms, 0.0);
        assert_eq!(merged.mean_batch, 0.0);
        assert_eq!(merged.outstanding(), 0);
    }

    #[test]
    fn latency_window_wraps() {
        let m = Metrics::new();
        for i in 0..(LATENCY_WINDOW + 10) {
            m.record_latency(i as f64);
        }
        let ring = m.latencies.lock().unwrap();
        assert_eq!(ring.samples.len(), LATENCY_WINDOW);
        // The oldest 10 samples were overwritten by the newest 10.
        assert_eq!(ring.samples[0], LATENCY_WINDOW as f64);
        assert_eq!(ring.samples[9], (LATENCY_WINDOW + 9) as f64);
    }
}
