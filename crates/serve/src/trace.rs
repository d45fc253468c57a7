//! Deterministic synthetic request traces.
//!
//! Serving benchmarks replay an *open-loop* arrival process: requests
//! arrive on a wall-clock schedule regardless of whether the server keeps
//! up, which is what exposes queueing and backpressure behaviour (a
//! closed loop self-throttles and can never overload the runtime). The
//! schedule is Poisson-ish — exponential interarrival gaps — drawn from a
//! tiny linear congruential generator ([`Lcg`]) so traces are reproducible
//! without a `rand` dependency, matching the hermetic-build rule.

use std::time::{Duration, Instant};

use lancet_tensor::det::Lcg;

use crate::runtime::ServeRuntime;
use crate::ServeError;

/// One synthetic request: an arrival offset from trace start plus the
/// token ids to serve.
#[derive(Debug, Clone)]
pub struct TraceRequest {
    /// When the request arrives, relative to the start of the replay.
    pub at: Duration,
    /// Token ids, one sequence of length `seq` (values in `[0, vocab)`).
    pub ids: Vec<f32>,
}

/// Generates `n` requests with exponential (Poisson-process) interarrival
/// gaps at `rate_hz` requests/second, each carrying `seq` uniformly drawn
/// token ids below `vocab`. Fully determined by `seed`.
///
/// # Panics
///
/// Panics if `rate_hz <= 0`, `vocab == 0`, or `seq == 0`.
pub fn open_loop_trace(n: usize, rate_hz: f64, seq: usize, vocab: usize, seed: u64) -> Vec<TraceRequest> {
    assert!(rate_hz > 0.0, "rate must be positive");
    assert!(seq > 0 && vocab > 0, "need a nonempty token space");
    let mut lcg = Lcg::new(seed);
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            at += -lcg.next_f64().ln() / rate_hz;
            let ids = (0..seq).map(|_| lcg.next_below(vocab as u64) as f32).collect();
            TraceRequest { at: Duration::from_secs_f64(at), ids }
        })
        .collect()
}

/// Outcome tally of an open-loop trace replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayReport {
    /// Requests answered with logits.
    pub ok: usize,
    /// Requests rejected at admission ([`ServeError::Overloaded`]).
    pub rejected: usize,
    /// Requests shed past their latency budget.
    pub shed: usize,
    /// Requests that failed for any other reason.
    pub failed: usize,
    /// Wall-clock time from the first submission until every response
    /// was collected.
    pub wall: Duration,
}

impl ReplayReport {
    /// Requests that left the replay without any outcome — always zero
    /// under the runtime's exactly-once delivery contract.
    pub fn lost(&self, submitted: usize) -> usize {
        submitted - self.ok - self.rejected - self.shed - self.failed
    }
}

/// Replays `trace` against `runtime` open-loop: each request is
/// submitted at its arrival time regardless of how the server is keeping
/// up (the discipline that actually exercises queueing, batching, and
/// backpressure), then every outstanding ticket is awaited.
pub fn replay_open_loop(
    runtime: &ServeRuntime,
    model: &str,
    trace: &[TraceRequest],
) -> ReplayReport {
    let mut report = ReplayReport::default();
    let mut tickets = Vec::with_capacity(trace.len());
    let started = Instant::now();
    for request in trace {
        if let Some(gap) = request.at.checked_sub(started.elapsed()) {
            std::thread::sleep(gap);
        }
        match runtime.submit(model, request.ids.clone()) {
            Ok(ticket) => tickets.push(ticket),
            Err(ServeError::Overloaded { .. }) => report.rejected += 1,
            Err(_) => report.failed += 1,
        }
    }
    for ticket in tickets {
        match ticket.wait() {
            Ok(_) => report.ok += 1,
            Err(ServeError::DeadlineExceeded { .. }) => report.shed += 1,
            Err(ServeError::Overloaded { .. }) => report.rejected += 1,
            Err(_) => report.failed += 1,
        }
    }
    report.wall = started.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_streams_are_pinned() {
        // Recorded before `Lcg` moved to `lancet_tensor::det`: every
        // seeded trace replays from these draws.
        let mut lcg = Lcg::new(0);
        assert_eq!([lcg.next_u64(), lcg.next_u64()], [0xaa80_754d_1a1a_8d4f, 0xb3c4_904a_6d27_8932]);
        let mut lcg = Lcg::new(0xbead);
        assert_eq!(lcg.next_f64().to_bits(), 0x3fd0_c6bc_3858_8900);
        assert_eq!((0..4).map(|_| lcg.next_below(1000)).collect::<Vec<_>>(), [27, 580, 641, 962]);
    }

    #[test]
    fn trace_is_deterministic_and_ordered() {
        let a = open_loop_trace(64, 100.0, 8, 11, 7);
        let b = open_loop_trace(64, 100.0, 8, 11, 7);
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.ids, y.ids);
        }
        assert!(a.windows(2).all(|w| w[0].at < w[1].at), "arrivals must be monotone");
        assert!(a.iter().all(|r| r.ids.iter().all(|&t| (0.0..11.0).contains(&t))));
    }

    #[test]
    fn mean_interarrival_tracks_rate() {
        let t = open_loop_trace(4000, 50.0, 1, 11, 3);
        let mean = t.last().unwrap().at.as_secs_f64() / 4000.0;
        assert!((mean - 0.02).abs() < 0.002, "mean gap {mean} far from 1/50");
    }
}
