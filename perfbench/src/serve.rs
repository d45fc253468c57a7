//! `serve`: a closed loop of 8 outstanding forward requests into
//! `ServeRuntime` on warm plans — the serve-bench model (GPT2-S width,
//! 4 layers, seq 8) on one device. There are no collectives, so this is
//! the no-change control for communication and overlap work.
//!
//! One generator thread keeps 8 requests outstanding: it waits for the
//! oldest and submits a replacement. The runtime runs one exec worker on
//! a one-thread compute pool, so the busy threads stay within two cores.

use crate::report::{median, ms, percentile, same_bits, setups, timed, Outcome, Rng};
use crate::Args;
use lancet_core::{Lancet, LancetOptions};
use lancet_cost::{ClusterKind, ClusterSpec};
use lancet_ir::GateKind;
use lancet_models::GptMoeConfig;
use lancet_serve::{canonical_weights, Plan, PlanKey, ServeConfig, ServeRuntime, Ticket};
use lancet_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests kept outstanding by the generator (= the largest batch).
const INFLIGHT: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Distinct request bodies the generator cycles through.
const POOL: usize = 64;
/// Every `SAMPLE_EVERY`-th response is checked against solo execution,
/// up to `MAX_SAMPLES` per run.
const SAMPLE_EVERY: usize = 16;
const MAX_SAMPLES: usize = 12;
const CLUSTER: ClusterKind = ClusterKind::A100;
/// Full-batch forwards timed in the traced run.
const FORWARDS: usize = 10;

fn model() -> GptMoeConfig {
    GptMoeConfig::gpt2_s_moe(1, GateKind::Switch)
        .with_layers(4)
        .with_seq(8)
        .with_vocab(256)
}

fn config(seed: u64) -> ServeConfig {
    ServeConfig {
        cluster: CLUSTER,
        exec_workers: 1,
        max_batch: INFLIGHT,
        seed,
        ..ServeConfig::default()
    }
}

struct Ready {
    runtime: Arc<ServeRuntime>,
    register_ms: f64,
    warm_ms: f64,
}

/// Set-up: start the runtime, register the model, build every bucket's
/// plan.
fn setup(seed: u64) -> Result<Ready, String> {
    let cfg = model();
    let runtime = ServeRuntime::start(config(seed));
    let (r, register_ms) = timed(|| runtime.register_model(cfg.clone()));
    r.map_err(|e| e.to_string())?;
    let (r, warm_ms) = timed(|| runtime.warm_model(&cfg.name));
    r.map_err(|e| e.to_string())?;
    Ok(Ready {
        runtime,
        register_ms,
        warm_ms,
    })
}

/// What the closed loop observed.
struct Loop {
    latency_ms: Vec<f64>,
    submit_us: Vec<f64>,
    /// Successful completions inside the timed phase.
    completed: usize,
    wall_s: f64,
    /// `(request body, response)` pairs to check.
    samples: Vec<(usize, Tensor)>,
}

fn closed_loop(
    seconds: Duration,
    runtime: &ServeRuntime,
    bodies: &[Vec<f32>],
    out: &mut Outcome,
) -> Loop {
    let name = model().name;
    let mut l = Loop {
        latency_ms: Vec::new(),
        submit_us: Vec::new(),
        completed: 0,
        wall_s: 0.0,
        samples: Vec::new(),
    };
    let mut next = 0usize;
    let mut inflight: VecDeque<(usize, Instant, Ticket)> = VecDeque::new();
    let mut submit = |l: &mut Loop, out: &mut Outcome, inflight: &mut VecDeque<_>| {
        let body = next % POOL;
        next += 1;
        let ids = bodies[body].clone();
        out.attempted += 1;
        let sent = Instant::now();
        let r = runtime.submit(&name, ids);
        l.submit_us.push(sent.elapsed().as_secs_f64() * 1e6);
        match r {
            Ok(ticket) => inflight.push_back((body, sent, ticket)),
            Err(e) => {
                eprintln!("submit failed: {e}");
                out.failed += 1;
                l.latency_ms.push(f64::INFINITY);
            }
        }
    };
    for _ in 0..INFLIGHT {
        submit(&mut l, out, &mut inflight);
    }
    let started = Instant::now();
    let mut responses = 0usize;
    while started.elapsed() < seconds {
        let Some((body, sent, ticket)) = inflight.pop_front() else {
            break;
        };
        match ticket.wait() {
            Ok(resp) => {
                l.latency_ms.push(ms(sent.elapsed()));
                l.completed += 1;
                responses += 1;
                if responses.is_multiple_of(SAMPLE_EVERY) && l.samples.len() < MAX_SAMPLES {
                    l.samples.push((body, resp));
                }
            }
            Err(e) => {
                eprintln!("request failed: {e}");
                out.failed += 1;
                l.latency_ms.push(f64::INFINITY);
            }
        }
        submit(&mut l, out, &mut inflight);
    }
    l.wall_s = started.elapsed().as_secs_f64();
    // Drain: the remaining requests count as attempted and must succeed,
    // but fall outside the timed phase.
    for (_, _, ticket) in inflight {
        if let Err(e) = ticket.wait() {
            eprintln!("request failed: {e}");
            out.failed += 1;
        }
    }
    l
}

/// Sampled responses must equal a solo (batch of one) `Plan::execute`.
fn check_samples(
    seed: u64,
    bodies: &[Vec<f32>],
    samples: &[(usize, Tensor)],
    out: &mut Outcome,
) -> Result<(), String> {
    let cfg = model();
    let normalized = cfg.clone().with_capacity_factor(cfg.experts() as f64);
    let canonical = canonical_weights(&normalized, seed).map_err(|e| e.to_string())?;
    let lancet = Lancet::new(
        ClusterSpec::of(CLUSTER, 1),
        normalized.gpus,
        LancetOptions::default(),
    );
    let plan = Plan::build(&lancet, &normalized, 1, &canonical).map_err(|e| e.to_string())?;
    out.check(!samples.is_empty(), || "no responses sampled".into());
    for (body, resp) in samples {
        let ids =
            Tensor::from_vec(vec![1, cfg.seq], bodies[*body].clone()).map_err(|e| e.to_string())?;
        let solo = plan.response(&plan.execute(&ids).map_err(|e| e.to_string())?, 0);
        out.check(
            solo.shape() == resp.shape() && same_bits(solo.data(), resp.data()),
            || format!("response to request body {body} differs from solo execution"),
        );
    }
    out.record("responses_checked", samples.len().to_string());
    Ok(())
}

/// The request bodies the generator cycles through, drawn from the seed.
fn bodies(seed: u64) -> Vec<Vec<f32>> {
    let cfg = model();
    let mut rng = Rng::new(seed, 0x5e7e);
    (0..POOL)
        .map(|_| {
            rng.tokens(cfg.seq, cfg.vocab)
                .into_iter()
                .map(|t| t as f32)
                .collect()
        })
        .collect()
}

/// Stops the runtime and runs the checks every serve run ends with.
fn finish(
    seed: u64,
    runtime: &ServeRuntime,
    bodies: &[Vec<f32>],
    l: &Loop,
    out: &mut Outcome,
) -> Result<(), String> {
    runtime.shutdown();
    let outstanding = runtime.stats().outstanding();
    out.check(outstanding == 0, || {
        format!("{outstanding} admitted requests never answered")
    });
    check_samples(seed, bodies, &l.samples, out)?;
    out.record("latency_samples", l.latency_ms.len().to_string());
    Ok(())
}

/// End-to-end: `SETUPS` set-ups, then the closed loop for `--seconds`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let bodies = bodies(args.seed);
    let (ready, setup_s) = setups(SETUPS, || setup(args.seed))?;
    let runtime = ready.runtime;

    let mut out = Outcome::new();
    let l = closed_loop(args.seconds, &runtime, &bodies, &mut out);
    let p50 = median(&l.latency_ms);
    out.metric("setup_s", setup_s, "s");
    out.metric("p50_ms", p50, "ms");
    out.metric("tail_ms", percentile(&l.latency_ms, 0.95), "ms");
    out.metric("rate_per_s", l.completed as f64 / l.wall_s, "1/s");
    // A response is not streamed: its first output is the whole response.
    out.metric("ttft_p50_ms", p50, "ms");
    finish(args.seed, &runtime, &bodies, &l, &mut out)?;
    Ok(out)
}

/// The serve layers, timed from outside: set-up phases, a closed loop of
/// `seconds`, and a full batch through the runtime's cached plan.
pub fn trace(args: &Args, seconds: Duration, out: &mut Outcome) -> Result<(), String> {
    let cfg = model();
    let bodies = bodies(args.seed);
    let ready = setup(args.seed)?;
    let runtime = ready.runtime;
    let l = closed_loop(seconds, &runtime, &bodies, out);
    let stats = runtime.stats();
    let key = PlanKey {
        model: cfg.name.clone(),
        bucket: INFLIGHT,
        seq: cfg.seq,
        cluster: CLUSTER,
        gpus: cfg.gpus,
    };
    let plan = runtime
        .plan_cache()
        .get(&key)
        .ok_or("full-batch plan not cached")?;
    let batch: Vec<f32> = bodies[..INFLIGHT].concat();
    let ids = Tensor::from_vec(vec![INFLIGHT, cfg.seq], batch).map_err(|e| e.to_string())?;
    let mut forward_ms = Vec::new();
    for _ in 0..FORWARDS {
        let (r, t) = timed(|| plan.execute(&ids));
        r.map_err(|e| e.to_string())?;
        forward_ms.push(t);
    }
    let forward = median(&forward_ms);
    out.metric("exec.forward_ms", forward, "ms");
    out.metric("serve.queue_ms", median(&l.latency_ms) - forward, "ms");
    out.metric("serve.submit_us", median(&l.submit_us), "us");
    out.metric("serve.mean_batch", stats.mean_batch, "count");
    out.metric("serve.cache_hit_rate", stats.cache_hit_rate(), "ratio");
    out.metric("serve.register_ms", ready.register_ms, "ms");
    out.metric("serve.warm_ms", ready.warm_ms, "ms");
    finish(args.seed, &runtime, &bodies, &l, out)
}
