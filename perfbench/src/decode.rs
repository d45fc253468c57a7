//! `decode`: a closed loop of 8 concurrent generation streams (prompts of
//! 13–16 tokens, 32 new tokens each) into `DecodeRuntime` with continuous
//! batching. It covers the eager `eval_op` kernels at 8-row GEMM shapes,
//! the KV arena and prefill joins, and bypasses `Executor::run` for steps
//! and the partition pass entirely.
//!
//! One generator thread pulls tokens round-robin. Each round first takes
//! the step's token from every established stream, then the first token
//! of streams submitted in an earlier round, so no token waits behind
//! another stream's prefill to be timestamped. The first wave of streams
//! asks for 4, 8, …, 32 tokens, which staggers completions: in steady
//! state one stream finishes and one joins every 4 steps. Timing starts
//! once that first wave has drained.

use crate::report::{median, ms, percentile, setups, timed, Outcome, Rng};
use crate::Args;
use lancet_core::{Lancet, LancetOptions};
use lancet_cost::{ClusterKind, ClusterSpec};
use lancet_decode::{
    DecodeConfig, DecodeModel, DecodeRuntime, DecodeSession, KvArena, StreamTicket,
};
use lancet_ir::GateKind;
use lancet_models::GptMoeConfig;
use lancet_serve::{canonical_weights, CanonicalWeights, Plan};
use lancet_tensor::Tensor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent streams (= the runtime's in-flight cap).
const STREAMS: usize = 8;
const NEW_TOKENS: usize = 32;
/// Prompt lengths, inclusive: all fall in the 16-token prefill bucket.
const PROMPT: (usize, usize) = (13, 16);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Every `SAMPLE_EVERY`-th timed stream is checked against a solo
/// greedy `DecodeSession`, up to `MAX_SAMPLES` per run.
const SAMPLE_EVERY: usize = 8;
const MAX_SAMPLES: usize = 4;
const CLUSTER: ClusterKind = ClusterKind::A100;

fn model() -> GptMoeConfig {
    let mut cfg = GptMoeConfig::tiny(1, GateKind::Switch);
    cfg.name = "bench-decode-moe".into();
    cfg.layers = 4;
    cfg.hidden = 384;
    cfg.heads = 6;
    cfg.ffn = 1536;
    cfg.vocab = 512;
    cfg.batch = 1;
    cfg.seq = 64;
    cfg
}

/// The config as registered: capacity normalized to drop-free routing.
fn normalized() -> GptMoeConfig {
    let cfg = model();
    let experts = cfg.experts() as f64;
    cfg.with_capacity_factor(experts)
}

fn config(seed: u64) -> DecodeConfig {
    DecodeConfig {
        cluster: CLUSTER,
        max_inflight: STREAMS,
        seed,
        ..DecodeConfig::default()
    }
}

fn prompt(rng: &mut Rng) -> Vec<u32> {
    let len = PROMPT.0 + rng.below(PROMPT.1 - PROMPT.0 + 1);
    rng.tokens(len, model().vocab)
}

struct Ready {
    runtime: DecodeRuntime,
    register_ms: f64,
}

/// Set-up: start the runtime, register the model, and run one short
/// stream so the prefill plan is built.
fn setup(seed: u64) -> Result<Ready, String> {
    let cfg = model();
    let runtime = DecodeRuntime::start(config(seed));
    let (r, register_ms) = timed(|| runtime.register_model(cfg.clone()));
    r.map_err(|e| e.to_string())?;
    let warm: Vec<u32> = (0..PROMPT.1 as u32).collect();
    let tokens = runtime
        .submit(&cfg.name, &warm, 2)
        .and_then(StreamTicket::collect)
        .map_err(|e| e.to_string())?;
    if tokens.len() != 2 {
        return Err(format!("warm-up stream returned {} tokens", tokens.len()));
    }
    Ok(Ready {
        runtime,
        register_ms,
    })
}

/// One generation stream owned by the generator.
struct Stream {
    ticket: StreamTicket,
    prompt: Vec<u32>,
    max_new: usize,
    tokens: Vec<u32>,
    submitted: Instant,
    last: Instant,
    /// Generator round that submitted it; its first token is pulled in a
    /// later round.
    round: u64,
    timed: bool,
}

/// A client position: the stream it is reading and, once that stream
/// has one token left, its already-submitted successor.
struct Client {
    current: Option<Stream>,
    next: Option<Stream>,
}

struct Loop {
    ttft_ms: Vec<f64>,
    itl_ms: Vec<f64>,
    tokens_in_window: usize,
    window_s: f64,
    samples: Vec<(Vec<u32>, Vec<u32>)>,
}

fn closed_loop(seed: u64, seconds: Duration, runtime: &DecodeRuntime, out: &mut Outcome) -> Loop {
    let name = model().name;
    let mut rng = Rng::new(seed, 0xdec0de);
    let mut l = Loop {
        ttft_ms: Vec::new(),
        itl_ms: Vec::new(),
        tokens_in_window: 0,
        window_s: 0.0,
        samples: Vec::new(),
    };
    let mut window: Option<(Instant, Instant)> = None;
    let mut ramp_left = STREAMS;
    let mut timed_done = 0usize;
    let mut last_in_window = None;
    let mut missed_ttft = 0usize;

    let mut submit =
        |max_new: usize, round: u64, timed: bool, out: &mut Outcome| -> Option<Stream> {
            let p = prompt(&mut rng);
            out.attempted += 1;
            let submitted = Instant::now();
            match runtime.submit(&name, &p, max_new) {
                Ok(ticket) => Some(Stream {
                    ticket,
                    prompt: p,
                    max_new,
                    tokens: Vec::new(),
                    submitted,
                    last: submitted,
                    round,
                    timed,
                }),
                Err(e) => {
                    eprintln!("submit failed: {e}");
                    out.failed += 1;
                    None
                }
            }
        };

    let mut round = 0u64;
    let mut clients: Vec<Client> = (0..STREAMS)
        .map(|i| Client {
            current: submit(NEW_TOKENS * (i + 1) / STREAMS, round, false, out),
            next: None,
        })
        .collect();
    while clients.iter().any(|c| c.current.is_some()) {
        round += 1;
        // Established streams first, then first tokens of earlier joins.
        for first_tokens in [false, true] {
            for c in &mut clients {
                let Some(s) = c.current.as_mut() else {
                    continue;
                };
                if s.tokens.is_empty() != first_tokens || (first_tokens && s.round >= round) {
                    continue;
                }
                let ev = s.ticket.next();
                let now = Instant::now();
                let in_window = window.is_some_and(|(a, b)| now >= a && now < b);
                let accepting = window.is_none_or(|(_, end)| now < end);
                let done = match ev {
                    Some(Ok(tok)) => {
                        let index = s.tokens.len();
                        out.check(tok.index == index, || {
                            format!("stream gap: token index {} after {index} tokens", tok.index)
                        });
                        if index == 0 {
                            if s.timed {
                                l.ttft_ms.push(ms(now - s.submitted));
                            }
                        } else if in_window {
                            l.itl_ms.push(ms(now - s.last));
                        }
                        if in_window {
                            l.tokens_in_window += 1;
                            last_in_window = Some(now);
                        }
                        s.last = now;
                        s.tokens.push(tok.token);
                        // One token left: queue the successor now, so it
                        // joins at the very step boundary this stream
                        // frees its slot and every step runs a full batch.
                        if s.tokens.len() + 1 == s.max_new && accepting {
                            c.next = submit(NEW_TOKENS, round, window.is_some(), out);
                            missed_ttft += usize::from(c.next.is_none() && window.is_some());
                        }
                        if s.tokens.len() == s.max_new {
                            let end = s.ticket.next();
                            out.check(end.is_none(), || {
                                format!("stream continued past {} tokens: {end:?}", s.max_new)
                            });
                        }
                        s.tokens.len() == s.max_new
                    }
                    Some(Err(e)) => {
                        eprintln!("stream failed: {e}");
                        out.failed += 1;
                        missed_ttft += usize::from(s.timed && s.tokens.is_empty());
                        true
                    }
                    None => {
                        out.check(false, || {
                            format!(
                                "stream ended after {} of {} tokens",
                                s.tokens.len(),
                                s.max_new
                            )
                        });
                        true
                    }
                };
                if !done {
                    continue;
                }
                let s = c.current.take().expect("stream being read");
                if s.timed && s.tokens.len() == s.max_new {
                    timed_done += 1;
                    if timed_done.is_multiple_of(SAMPLE_EVERY) && l.samples.len() < MAX_SAMPLES {
                        l.samples.push((s.prompt, s.tokens));
                    }
                }
                if window.is_none() {
                    ramp_left -= 1;
                    if ramp_left == 0 {
                        let start = Instant::now();
                        window = Some((start, start + seconds));
                    }
                }
                c.current = c.next.take();
                if c.current.is_none() && window.is_none_or(|(_, end)| Instant::now() < end) {
                    // The stream failed before its successor was queued.
                    c.current = submit(NEW_TOKENS, round, window.is_some(), out);
                    missed_ttft += usize::from(c.current.is_none() && window.is_some());
                }
            }
        }
    }
    if let (Some((start, _)), Some(last)) = (window, last_in_window) {
        l.window_s = (last - start).as_secs_f64();
    }
    // A failed stream misses every latency limit.
    l.ttft_ms
        .extend(std::iter::repeat_n(f64::INFINITY, missed_ttft));
    l
}

/// Sampled streams must equal a solo greedy `DecodeSession`.
fn check_samples(
    model: &Arc<DecodeModel>,
    samples: &[(Vec<u32>, Vec<u32>)],
    out: &mut Outcome,
) -> Result<(), String> {
    out.check(!samples.is_empty(), || "no streams sampled".into());
    for (prompt, tokens) in samples {
        let mut session = DecodeSession::new(Arc::clone(model), prompt.len() + tokens.len());
        let mut reference = vec![session.prefill(prompt).map_err(|e| e.to_string())?];
        while reference.len() < tokens.len() {
            let last = *reference.last().expect("non-empty");
            reference.push(session.step(last).map_err(|e| e.to_string())?);
        }
        out.check(&reference == tokens, || {
            format!("stream {tokens:?} differs from solo decode {reference:?}")
        });
    }
    out.record("streams_checked", samples.len().to_string());
    Ok(())
}

/// The model as the runtime serves it, built outside the runtime.
fn reference_model(seed: u64) -> Result<(Arc<DecodeModel>, CanonicalWeights), String> {
    let canonical = canonical_weights(&normalized(), seed).map_err(|e| e.to_string())?;
    let model = DecodeModel::new(&normalized(), &canonical).map_err(|e| e.to_string())?;
    Ok((Arc::new(model), canonical))
}

/// Stops the runtime and runs the checks every decode run ends with.
fn finish(
    runtime: &DecodeRuntime,
    model: &Arc<DecodeModel>,
    l: &Loop,
    out: &mut Outcome,
) -> Result<(), String> {
    runtime.shutdown();
    let outstanding = runtime.stats().outstanding();
    out.check(outstanding == 0, || {
        format!("{outstanding} admitted streams never answered")
    });
    out.check(!l.itl_ms.is_empty() && !l.ttft_ms.is_empty(), || {
        "timed phase recorded no tokens".into()
    });
    check_samples(model, &l.samples, out)?;
    out.record("itl_samples", l.itl_ms.len().to_string());
    out.record("ttft_samples", l.ttft_ms.len().to_string());
    Ok(())
}

/// End-to-end: `SETUPS` set-ups, then the closed loop for `--seconds`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let (ready, setup_s) = setups(SETUPS, || setup(args.seed))?;
    let runtime = ready.runtime;

    let mut out = Outcome::new();
    let l = closed_loop(args.seed, args.seconds, &runtime, &mut out);
    if !l.itl_ms.is_empty() && !l.ttft_ms.is_empty() {
        out.metric("setup_s", setup_s, "s");
        out.metric("p50_ms", median(&l.itl_ms), "ms");
        out.metric("tail_ms", percentile(&l.itl_ms, 0.99), "ms");
        out.metric("rate_per_s", l.tokens_in_window as f64 / l.window_s, "1/s");
        out.metric("ttft_p50_ms", median(&l.ttft_ms), "ms");
    }
    let (model, _) = reference_model(args.seed)?;
    finish(&runtime, &model, &l, &mut out)?;
    Ok(out)
}

/// The decode layers, timed from outside: registration, a closed loop of
/// `seconds`, and the model's step and prefill at the loop's shapes.
pub fn trace(args: &Args, seconds: Duration, out: &mut Outcome) -> Result<(), String> {
    let ready = setup(args.seed)?;
    let runtime = ready.runtime;
    let l = closed_loop(args.seed, seconds, &runtime, out);
    let stats = runtime.stats();
    let (model, canonical) = reference_model(args.seed)?;
    let (step, short_step) = step_ms(&model, args.seed)?;
    out.metric("decode.step_ms", step, "ms");
    out.metric("decode.step7_ms", short_step, "ms");
    out.metric("decode.prefill_ms", prefill_ms(&canonical)?, "ms");
    if !l.itl_ms.is_empty() {
        out.metric("decode.sched_ms", median(&l.itl_ms) - step, "ms");
    }
    out.metric("decode.tokens_per_step", stats.mean_batch, "count");
    out.metric("decode.register_ms", ready.register_ms, "ms");
    finish(&runtime, &model, &l, out)
}

/// `DecodeModel::step` over a full batch of `STREAMS` sequences holding
/// 32 cached tokens each (mid-generation), and over one sequence fewer;
/// medians of repeated steps that are rolled back so every one sees the
/// same cache.
fn step_ms(model: &DecodeModel, seed: u64) -> Result<(f64, f64), String> {
    let cfg = model.cfg();
    let mut arena = KvArena::new(cfg.layers, cfg.hidden, STREAMS * (PROMPT.1 + NEW_TOKENS));
    let mut rng = Rng::new(seed, 0x57e9);
    let mut slots = Vec::new();
    let mut tokens = Vec::new();
    for _ in 0..STREAMS {
        let slot = arena.alloc(PROMPT.1 + NEW_TOKENS).ok_or("arena full")?;
        let p = rng.tokens(PROMPT.1, cfg.vocab);
        let (_, kvs) = model.prefill_full(&p).map_err(|e| e.to_string())?;
        model
            .seed_slot(&mut arena, slot, &kvs, p.len())
            .map_err(|e| e.to_string())?;
        slots.push(slot);
        tokens.push(p[0]);
    }
    let commit = |arena: &mut KvArena| slots.iter().for_each(|&s| arena.commit(s));
    let rollback = |arena: &mut KvArena| slots.iter().for_each(|&s| arena.rollback(s));
    for _ in 0..NEW_TOKENS / 2 {
        model
            .step(&tokens, &mut arena, &slots)
            .map_err(|e| e.to_string())?;
        commit(&mut arena);
    }
    let mut time = |n: usize| -> Result<f64, String> {
        let mut times = Vec::new();
        for _ in 0..20 {
            let (r, t) = timed(|| model.step(&tokens[..n], &mut arena, &slots[..n]));
            r.map_err(|e| e.to_string())?;
            rollback(&mut arena);
            times.push(t);
        }
        Ok(median(&times))
    };
    Ok((time(STREAMS)?, time(STREAMS - 1)?))
}

/// One prompt through the runtime's prefill path: the 16-token bucket's
/// cached plan, which also harvests every layer's K/V.
fn prefill_ms(canonical: &CanonicalWeights) -> Result<f64, String> {
    let cfg = normalized();
    let lancet = Lancet::new(
        ClusterSpec::of(CLUSTER, 1),
        cfg.gpus,
        LancetOptions::decode_serving(),
    );
    let plan =
        Plan::build_prefill(&lancet, &cfg, 1, PROMPT.1, canonical).map_err(|e| e.to_string())?;
    let ids: Vec<f32> = (0..PROMPT.1).map(|t| t as f32).collect();
    let ids = Tensor::from_vec(vec![1, PROMPT.1], ids).map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for _ in 0..10 {
        let (r, t) = timed(|| plan.execute_prefill(&ids));
        r.map_err(|e| e.to_string())?;
        times.push(t);
    }
    Ok(median(&times))
}
