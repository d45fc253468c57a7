//! Deterministic open-loop decode traces and their replay harness.
//!
//! Mirrors serve's `open_loop_trace`/`replay_open_loop` for streaming
//! decode: arrivals follow a seeded Poisson process, prompts and
//! generation lengths are drawn from seeded ranges (varied `max_new` is
//! what makes continuous batching beat the windowed baseline — sequences
//! finish at different times, and continuous admission refills the freed
//! slots immediately), and the replay verifies the streaming contract
//! while it measures TTFT / inter-token latency.

use std::time::{Duration, Instant};

use lancet_tensor::det::Lcg;

use crate::runtime::DecodeRuntime;
use crate::stream::StreamTicket;

/// One scripted decode request.
#[derive(Debug, Clone)]
pub struct DecodeTraceRequest {
    /// Arrival time relative to replay start.
    pub at: Duration,
    /// Prompt token ids.
    pub prompt: Vec<u32>,
    /// Number of tokens to generate.
    pub max_new: usize,
}

/// A seeded open-loop decode trace: `n` requests at `rate_hz` Poisson
/// arrivals, prompt lengths uniform in `prompt_len` and generation
/// lengths uniform in `max_new` (both inclusive), token ids below
/// `vocab`.
pub fn decode_trace(
    n: usize,
    rate_hz: f64,
    prompt_len: (usize, usize),
    max_new: (usize, usize),
    vocab: usize,
    seed: u64,
) -> Vec<DecodeTraceRequest> {
    let mut rng = Lcg::new(seed);
    let mut at = Duration::ZERO;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        // Exponential inter-arrival gap (open loop: the schedule does
        // not react to service times).
        let gap = -rng.next_f64().ln() / rate_hz.max(1e-9);
        at += Duration::from_secs_f64(gap);
        let plen = prompt_len.0 + rng.next_below((prompt_len.1 - prompt_len.0 + 1) as u64) as usize;
        let gen = max_new.0 + rng.next_below((max_new.1 - max_new.0 + 1) as u64) as usize;
        let prompt = (0..plen).map(|_| rng.next_below(vocab as u64) as u32).collect();
        out.push(DecodeTraceRequest { at, prompt, max_new: gen });
    }
    out
}

/// What a decode replay observed.
#[derive(Debug, Clone, Default)]
pub struct DecodeReplayReport {
    /// Streams that completed normally.
    pub ok: usize,
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
    /// Wall-clock of the whole replay.
    pub wall: Duration,
    /// Delivered tokens per wall-clock second.
    pub tokens_per_sec: f64,
}

struct StreamOutcome {
    ttft_ms: Option<f64>,
    itl_ms: Vec<f64>,
    tokens: usize,
    gaps: usize,
    finished: bool,
}

fn consume(ticket: StreamTicket, submitted: Instant) -> StreamOutcome {
    let mut outcome =
        StreamOutcome { ttft_ms: None, itl_ms: Vec::new(), tokens: 0, gaps: 0, finished: false };
    let mut expect = 0usize;
    let mut last = submitted;
    let mut errored = false;
    while let Some(ev) = ticket.next() {
        match ev {
            Ok(tok) => {
                let now = Instant::now();
                if tok.index != expect {
                    outcome.gaps += 1;
                }
                expect = tok.index + 1;
                if outcome.tokens == 0 {
                    outcome.ttft_ms = Some((now - submitted).as_secs_f64() * 1e3);
                } else {
                    outcome.itl_ms.push((now - last).as_secs_f64() * 1e3);
                }
                last = now;
                outcome.tokens += 1;
            }
            Err(_) => errored = true,
        }
    }
    outcome.finished = !errored;
    outcome
}

/// Replay a trace against a runtime, consuming every stream on its own
/// thread (tokens are pulled as they are produced, so TTFT/ITL reflect
/// the scheduler, not the harness).
pub fn replay_decode(
    runtime: &DecodeRuntime,
    model: &str,
    trace: &[DecodeTraceRequest],
) -> DecodeReplayReport {
    let start = Instant::now();
    let mut collectors = Vec::new();
    let mut report = DecodeReplayReport::default();
    for req in trace {
        if let Some(gap) = req.at.checked_sub(start.elapsed()) {
            std::thread::sleep(gap);
        }
        let submitted = Instant::now();
        match runtime.submit(model, &req.prompt, req.max_new) {
            Ok(ticket) => {
                collectors.push(std::thread::spawn(move || consume(ticket, submitted)));
            }
            Err(_) => report.rejected += 1,
        }
    }
    let mut ttfts = Vec::new();
    let mut itl_sum = 0.0;
    let mut itl_n = 0usize;
    for c in collectors {
        let o = c.join().expect("stream collector");
        if o.finished {
            report.ok += 1;
        } else {
            report.failed += 1;
        }
        report.tokens += o.tokens;
        report.token_gaps += o.gaps;
        if let Some(t) = o.ttft_ms {
            ttfts.push(t);
        }
        itl_sum += o.itl_ms.iter().sum::<f64>();
        itl_n += o.itl_ms.len();
    }
    report.wall = start.elapsed();
    if !ttfts.is_empty() {
        report.mean_ttft_ms = ttfts.iter().sum::<f64>() / ttfts.len() as f64;
        ttfts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((ttfts.len() as f64) * 0.95).ceil() as usize;
        report.p95_ttft_ms = ttfts[rank.clamp(1, ttfts.len()) - 1];
    }
    if itl_n > 0 {
        report.mean_itl_ms = itl_sum / itl_n as f64;
    }
    let secs = report.wall.as_secs_f64();
    if secs > 0.0 {
        report.tokens_per_sec = report.tokens as f64 / secs;
    }
    report
}
