//! Open-loop load for the serving benches.
//!
//! Serving benches replay an *open-loop* arrival process: requests
//! arrive on a wall-clock schedule regardless of whether the server
//! keeps up, which is what exposes queueing and backpressure (a closed
//! loop self-throttles and never overloads the runtime). Arrivals follow
//! a Poisson process — exponential gaps — drawn from [`Lcg`], so a trace
//! is a pure function of its seed.
//!
//! One arrival loop serves both runtimes; a per-request
//! closure draws the payload from the same stream right after each gap:
//! token ids for `lancet-serve` ([`serve_trace`]), a prompt and a
//! generation length for `lancet-decode` ([`decode_trace`]).

use std::time::{Duration, Instant};

use lancet_decode::{DecodeRuntime, StreamTicket};
use lancet_serve::{ServeError, ServeRuntime};
use lancet_tensor::det::Lcg;

/// One request of a trace: when it arrives, relative to the start of
/// the replay, and what it asks for.
#[derive(Debug, Clone)]
pub struct Arrival<T> {
    /// Arrival offset from the start of the replay.
    pub at: Duration,
    /// The request's payload.
    pub request: T,
}

/// `n` arrivals of a Poisson process at `rate_hz` requests per second.
/// Each request draws its exponential gap from the seeded stream, then
/// its payload through `payload`.
///
/// # Panics
///
/// Panics if `rate_hz <= 0`.
fn arrivals<T>(
    n: usize,
    rate_hz: f64,
    seed: u64,
    mut payload: impl FnMut(&mut Lcg) -> T,
) -> Vec<Arrival<T>> {
    assert!(rate_hz > 0.0, "rate must be positive");
    let mut lcg = Lcg::new(seed);
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            at += -lcg.next_f64().ln() / rate_hz;
            Arrival { at: Duration::from_secs_f64(at), request: payload(&mut lcg) }
        })
        .collect()
}

/// A serve trace: each request carries `seq` token ids drawn uniformly
/// below `vocab`.
///
/// # Panics
///
/// Panics if `rate_hz <= 0`, `vocab == 0`, or `seq == 0`.
pub fn serve_trace(n: usize, rate_hz: f64, seq: usize, vocab: usize, seed: u64) -> Vec<Arrival<Vec<f32>>> {
    assert!(seq > 0 && vocab > 0, "need a nonempty token space");
    arrivals(n, rate_hz, seed, |lcg| (0..seq).map(|_| lcg.next_below(vocab as u64) as f32).collect())
}

/// One generation request.
#[derive(Debug, Clone)]
pub struct Generate {
    /// Prompt token ids.
    pub prompt: Vec<u32>,
    /// Number of tokens to generate.
    pub max_new: usize,
}

/// A decode trace: prompt lengths uniform in `prompt_len` and
/// generation lengths uniform in `max_new` (both inclusive), token ids
/// below `vocab`. Varied `max_new` is what lets continuous batching beat
/// the windowed baseline: sequences finish at different times, and
/// continuous admission refills the freed slots at once.
///
/// # Panics
///
/// Panics if `rate_hz <= 0` or a range is empty.
pub fn decode_trace(
    n: usize,
    rate_hz: f64,
    prompt_len: (usize, usize),
    max_new: (usize, usize),
    vocab: usize,
    seed: u64,
) -> Vec<Arrival<Generate>> {
    let inclusive =
        |lcg: &mut Lcg, (lo, hi): (usize, usize)| lo + lcg.next_below((hi - lo + 1) as u64) as usize;
    arrivals(n, rate_hz, seed, |lcg| {
        let plen = inclusive(lcg, prompt_len);
        let max_new = inclusive(lcg, max_new);
        let prompt = (0..plen).map(|_| lcg.next_below(vocab as u64) as u32).collect();
        Generate { prompt, max_new }
    })
}

/// Submits each request of `trace` at its arrival time, however far
/// behind the runtime is, and returns when the replay started.
fn pace<T>(trace: &[Arrival<T>], mut submit: impl FnMut(&T)) -> Instant {
    let started = Instant::now();
    for arrival in trace {
        if let Some(gap) = arrival.at.checked_sub(started.elapsed()) {
            std::thread::sleep(gap);
        }
        submit(&arrival.request);
    }
    started
}

/// Outcome tally of a serve replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeReplay {
    /// Requests answered with logits.
    pub ok: usize,
    /// Requests rejected at admission ([`ServeError::Overloaded`]).
    pub rejected: usize,
    /// Requests shed past their latency budget.
    pub shed: usize,
    /// Requests that failed for any other reason.
    pub failed: usize,
}

impl ServeReplay {
    /// Requests that left the replay without any outcome — always zero
    /// under the runtime's exactly-once delivery contract.
    pub fn lost(&self, submitted: usize) -> usize {
        submitted - self.ok - self.rejected - self.shed - self.failed
    }
}

/// Replays `trace` against `runtime` open-loop, then awaits every
/// outstanding ticket.
pub fn replay_serve(runtime: &ServeRuntime, model: &str, trace: &[Arrival<Vec<f32>>]) -> ServeReplay {
    let mut report = ServeReplay::default();
    let mut tickets = Vec::with_capacity(trace.len());
    pace(trace, |ids| match runtime.submit(model, ids.clone()) {
        Ok(ticket) => tickets.push(ticket),
        Err(ServeError::Overloaded { .. }) => report.rejected += 1,
        Err(_) => report.failed += 1,
    });
    for ticket in tickets {
        match ticket.wait() {
            Ok(_) => report.ok += 1,
            Err(ServeError::DeadlineExceeded { .. }) => report.shed += 1,
            Err(ServeError::Overloaded { .. }) => report.rejected += 1,
            Err(_) => report.failed += 1,
        }
    }
    report
}

/// What a decode replay observed.
#[derive(Debug, Clone, Default)]
pub struct DecodeReplay {
    /// Submissions rejected at the door (overload / bad request).
    pub rejected: usize,
    /// Streams that ended in a typed error.
    pub failed: usize,
    /// Tokens delivered across all streams.
    pub tokens: usize,
    /// Streaming-contract violations: out-of-order, duplicated, or
    /// skipped token indices. Must be zero — a non-zero count means a
    /// stream lost or duplicated a token.
    pub token_gaps: usize,
    /// Mean time-to-first-token over streams that produced one, ms.
    pub mean_ttft_ms: f64,
    /// 95th-percentile TTFT, ms.
    pub p95_ttft_ms: f64,
    /// Mean inter-token gap over all consecutive token pairs, ms.
    pub mean_itl_ms: f64,
    /// Delivered tokens per wall-clock second.
    pub tokens_per_sec: f64,
}

/// Pulls `ticket` to its end: each token's arrival in ms since
/// `submitted`, how many tokens broke index order, and whether the
/// stream ended without an error.
fn consume(ticket: StreamTicket, submitted: Instant) -> (Vec<f64>, usize, bool) {
    let (mut at_ms, mut gaps, mut expect, mut finished) = (Vec::new(), 0, 0, true);
    while let Some(event) = ticket.next() {
        match event {
            Ok(token) => {
                at_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
                gaps += usize::from(token.index != expect);
                expect = token.index + 1;
            }
            Err(_) => finished = false,
        }
    }
    (at_ms, gaps, finished)
}

/// Replays `trace` against `runtime` open-loop, consuming every stream
/// on its own thread (tokens are pulled as they are produced, so TTFT
/// and ITL reflect the scheduler, not the harness).
pub fn replay_decode(runtime: &DecodeRuntime, model: &str, trace: &[Arrival<Generate>]) -> DecodeReplay {
    let mut streams = Vec::new();
    let mut report = DecodeReplay::default();
    let started = pace(trace, |req| {
        let submitted = Instant::now();
        match runtime.submit(model, &req.prompt, req.max_new) {
            Ok(ticket) => streams.push(std::thread::spawn(move || consume(ticket, submitted))),
            Err(_) => report.rejected += 1,
        }
    });
    let (mut ttfts, mut itls) = (Vec::new(), Vec::new());
    for stream in streams {
        let (at_ms, gaps, finished) = stream.join().expect("stream collector");
        report.failed += usize::from(!finished);
        report.token_gaps += gaps;
        report.tokens += at_ms.len();
        ttfts.extend(at_ms.first());
        itls.extend(at_ms.windows(2).map(|w| w[1] - w[0]));
    }
    let mean = |xs: &[f64]| if xs.is_empty() { 0.0 } else { xs.iter().sum::<f64>() / xs.len() as f64 };
    ttfts.sort_by(f64::total_cmp);
    // Nearest rank: the ceil(0.95·n)-th smallest.
    let p95 = ((ttfts.len() as f64 * 0.95).ceil() as usize).max(1) - 1;
    DecodeReplay {
        mean_ttft_ms: mean(&ttfts),
        p95_ttft_ms: ttfts.get(p95).copied().unwrap_or(0.0),
        mean_itl_ms: mean(&itls),
        tokens_per_sec: report.tokens as f64 / started.elapsed().as_secs_f64(),
        ..report
    }
}

#[cfg(test)]
mod tests {
    use lancet_tensor::det::fnv1a;

    use super::*;

    /// FNV-1a over serve payloads: every id's f32 bits, LE.
    fn serve_pin(trace: &[Arrival<Vec<f32>>]) -> u64 {
        let bytes: Vec<u8> =
            trace.iter().flat_map(|a| &a.request).flat_map(|t| t.to_bits().to_le_bytes()).collect();
        fnv1a(&bytes)
    }

    /// FNV-1a over decode payloads: prompt length and `max_new` as LE
    /// `u64`, then each prompt token as LE `u32`.
    fn decode_pin(trace: &[Arrival<Generate>]) -> u64 {
        let mut bytes = Vec::new();
        for Arrival { request: g, .. } in trace {
            bytes.extend_from_slice(&(g.prompt.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&(g.max_new as u64).to_le_bytes());
            g.prompt.iter().for_each(|t| bytes.extend_from_slice(&t.to_le_bytes()));
        }
        fnv1a(&bytes)
    }

    #[test]
    fn bench_payloads_are_pinned() {
        // Recorded from the serve and decode benches' full-mode traces
        // while each runtime crate still generated its own.
        assert_eq!(serve_pin(&serve_trace(48, 40.0, 8, 256, 0xbead)), 0x59c0_5971_046b_59ff);
        assert_eq!(decode_pin(&decode_trace(32, 200.0, (4, 12), (8, 24), 128, 0xdec0de)), 0xf74b_90fc_7a7d_1742);
    }

    #[test]
    fn trace_is_deterministic_and_ordered() {
        let a = serve_trace(64, 100.0, 8, 11, 7);
        let b = serve_trace(64, 100.0, 8, 11, 7);
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.request, y.request);
        }
        assert!(a.windows(2).all(|w| w[0].at < w[1].at), "arrivals must be monotone");
        assert!(a.iter().all(|r| r.request.iter().all(|&t| (0.0..11.0).contains(&t))));

        let a = decode_trace(64, 100.0, (4, 12), (8, 24), 11, 7);
        let b = decode_trace(64, 100.0, (4, 12), (8, 24), 11, 7);
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!((&x.request.prompt, x.request.max_new), (&y.request.prompt, y.request.max_new));
        }
        assert!(a.windows(2).all(|w| w[0].at < w[1].at), "arrivals must be monotone");
        for Arrival { request: g, .. } in &a {
            assert!((4..=12).contains(&g.prompt.len()) && (8..=24).contains(&g.max_new));
            assert!(g.prompt.iter().all(|&t| t < 11));
        }
    }

    #[test]
    fn mean_interarrival_tracks_rate() {
        let t = serve_trace(4000, 50.0, 1, 11, 3);
        let mean = t.last().unwrap().at.as_secs_f64() / 4000.0;
        assert!((mean - 0.02).abs() < 0.002, "mean gap {mean} far from 1/50");
        let t = decode_trace(4000, 50.0, (1, 1), (1, 1), 11, 3);
        let mean = t.last().unwrap().at.as_secs_f64() / 4000.0;
        assert!((mean - 0.02).abs() < 0.002, "mean gap {mean} far from 1/50");
    }
}
