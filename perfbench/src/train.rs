//! `train`: SGD training steps of a small GPT-MoE on two simulated
//! devices — forward, backward, gradient all-reduce and update — run by
//! `Executor::run` on the graph `Lancet::optimize` produces.
//!
//! The traced run replays one step instruction by instruction through
//! `lancet_exec::eval_op` (the kernels `Executor::run` uses) and the
//! `lancet_moe` collectives, checks the replay is bit-identical to the
//! executor, buckets its time by op class, and writes the measured spans
//! and the simulated timeline of the same graph as Chrome traces.

use crate::report::{json_array, median, percentile, same_bits, setups, timed, Outcome, Rng};
use crate::Args;
use lancet_core::{Lancet, LancetOptions, OptimizeOutcome};
use lancet_cost::{ClusterSpec, CommModel, ComputeModel};
use lancet_exec::{init_weights, Bindings, Executor};
use lancet_ir::{BackwardOptions, GateKind, Graph, Op, TensorId, TensorKind};
use lancet_models::{build_forward, GptMoeConfig};
use lancet_moe::DispatchedChunk;
use lancet_sim::{to_chrome_trace, SimConfig, SimReport, Simulator, Stream, TimelineEvent};
use lancet_tensor::Tensor;
use std::collections::HashMap;
use std::time::Instant;

const DEVICES: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The replayed op time may differ from the untraced step by at most
/// this share of the step (the rest is interpreter overhead).
const REPLAY_TOLERANCE: f64 = 0.25;

fn model() -> GptMoeConfig {
    let mut cfg = GptMoeConfig::tiny(DEVICES, GateKind::Switch);
    cfg.name = "bench-train-moe".into();
    cfg.layers = 4;
    cfg.hidden = 128;
    cfg.heads = 4;
    cfg.ffn = 512;
    cfg.vocab = 512;
    cfg.batch = 4;
    cfg.seq = 32;
    cfg.capacity_factor = 1.25;
    cfg
}

fn options() -> LancetOptions {
    LancetOptions {
        backward: BackwardOptions {
            sgd_lr: Some(0.05),
            allreduce_grads: true,
            ..Default::default()
        },
        ..LancetOptions::default()
    }
}

/// A ready-to-step training job.
struct Job {
    cfg: GptMoeConfig,
    outcome: OptimizeOutcome,
    weights: Bindings,
    ids: TensorId,
    targets: TensorId,
    loss: TensorId,
    /// `(weight, updated weight)` per SGD update instruction.
    updates: Vec<(TensorId, TensorId)>,
    optimize_ms: f64,
    init_ms: f64,
}

fn input(graph: &Graph, name: &str) -> Result<TensorId, String> {
    graph
        .tensors()
        .iter()
        .find(|t| t.kind == TensorKind::Input && t.name == name)
        .map(|t| t.id)
        .ok_or_else(|| format!("optimized graph has no `{name}` input"))
}

fn setup(seed: u64) -> Result<Job, String> {
    let cfg = model();
    let (outcome, optimize_ms) = timed(|| {
        let forward = build_forward(&cfg).map_err(|e| e.to_string())?.graph;
        Lancet::new(ClusterSpec::v100(1), DEVICES, options())
            .optimize(forward)
            .map_err(|e| e.to_string())
    });
    let outcome = outcome?;
    let graph = &outcome.graph;
    let (weights, init_ms) = timed(|| init_weights(graph, DEVICES, seed));
    let loss = graph
        .instrs()
        .iter()
        .find(|i| matches!(i.op, Op::CrossEntropy))
        .map(|i| i.outputs[0])
        .ok_or("no loss")?;
    let updates = graph
        .instrs()
        .iter()
        .filter(|i| matches!(i.op, Op::SgdUpdate { .. }))
        .map(|i| (i.inputs[0], i.outputs[0]))
        .collect();
    Ok(Job {
        ids: input(graph, "ids")?,
        targets: input(graph, "targets")?,
        loss,
        updates,
        weights,
        optimize_ms,
        init_ms,
        cfg,
        outcome,
    })
}

impl Job {
    fn graph(&self) -> &Graph {
        &self.outcome.graph
    }

    /// Tokens one step trains on, over all devices.
    fn tokens_per_step(&self) -> usize {
        self.cfg.batch * self.cfg.seq * DEVICES
    }

    /// Step `step`'s bindings: the current weights plus a batch drawn from
    /// the seed (next-token targets of a random token stream).
    fn bindings(&self, seed: u64, step: u64) -> Bindings {
        let (b, s) = (self.cfg.batch, self.cfg.seq);
        let mut bindings = self.weights.clone();
        for d in 0..DEVICES {
            let mut rng = Rng::new(seed, step * DEVICES as u64 + d as u64 + 1);
            let stream = rng.tokens(b * (s + 1), self.cfg.vocab);
            let mut ids = Vec::with_capacity(b * s);
            let mut targets = Vec::with_capacity(b * s);
            for row in stream.chunks(s + 1) {
                ids.extend(row[..s].iter().map(|&t| t as f32));
                targets.extend(row[1..].iter().map(|&t| t as f32));
            }
            bindings.set(
                d,
                self.ids,
                Tensor::from_vec(vec![b, s], ids).expect("ids volume"),
            );
            bindings.set(
                d,
                self.targets,
                Tensor::from_vec(vec![b, s], targets).expect("targets volume"),
            );
        }
        bindings
    }

    /// Adopts a step's updated weights; returns its device-0 loss.
    fn advance(&mut self, out: &Bindings) -> Result<f32, String> {
        for &(w, updated) in &self.updates {
            for d in 0..DEVICES {
                let v = out.get(d, updated).ok_or("missing updated weight")?.clone();
                self.weights.set(d, w, v);
            }
        }
        Ok(out.get(0, self.loss).ok_or("missing loss")?.data()[0])
    }
}

/// Runs step `step` and adopts its updated weights; returns the step's
/// wall time in ms (infinite when the step failed) and its loss.
fn train_step(
    job: &mut Job,
    exec: &Executor<'_>,
    seed: u64,
    step: u64,
    out: &mut Outcome,
) -> Result<(f64, Option<f32>), String> {
    let bindings = job.bindings(seed, step);
    out.attempted += 1;
    let (result, t) = timed(|| exec.run(bindings));
    match result {
        Ok(b) => {
            let loss = job.advance(&b)?;
            out.check(loss.is_finite(), || {
                format!("step {step}: loss {loss} is not finite")
            });
            Ok((t, Some(loss)))
        }
        Err(e) => {
            out.failed += 1;
            eprintln!("step {step} failed: {e}");
            Ok((f64::INFINITY, None))
        }
    }
}

/// End-to-end: training steps back to back for `--seconds`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let (mut job, setup_s) = setups(SETUPS, || setup(args.seed))?;
    let graph = job.graph().clone();
    let exec = Executor::new(&graph, DEVICES).map_err(|e| e.to_string())?;

    let mut out = Outcome::new();
    // One warm-up step fills caches before timing.
    train_step(&mut job, &exec, args.seed, 0, &mut out)?;
    let (mut step_ms, mut losses) = (Vec::new(), Vec::new());
    let mut step = 1;
    let started = Instant::now();
    while started.elapsed() < args.seconds {
        let (t, loss) = train_step(&mut job, &exec, args.seed, step, &mut out)?;
        step += 1;
        step_ms.push(t);
        losses.extend(loss.map(f64::from));
    }
    let wall = started.elapsed().as_secs_f64();
    let p50 = median(&step_ms);
    out.metric("setup_s", setup_s, "s");
    out.metric("p50_ms", p50, "ms");
    out.metric("tail_ms", percentile(&step_ms, 0.9), "ms");
    out.metric(
        "rate_per_s",
        (losses.len() * job.tokens_per_step()) as f64 / wall,
        "1/s",
    );
    // A step is not streamed: its first output is its whole result.
    out.metric("ttft_p50_ms", p50, "ms");

    // The replay check runs after the timed phase, on the next step.
    let bindings = job.bindings(args.seed, step);
    let expected = exec.run(bindings.clone()).map_err(|e| e.to_string())?;
    let replayed = replay(&graph, &bindings)?;
    compare(&mut out, &graph, &expected, &replayed);
    out.record("losses", json_array(&losses));
    Ok(out)
}

/// Op classes the traced step is bucketed into, in report order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Class {
    Gemm,
    GemmDw,
    Attention,
    Route,
    Pointwise,
    Optimizer,
    AllToAll,
    AllReduce,
}

fn class(op: &Op) -> Class {
    match op {
        Op::MatMul { .. } | Op::BatchedMatMul { .. } => Class::Gemm,
        Op::MatMulDw | Op::BatchedMatMulDw => Class::GemmDw,
        Op::AttnScores { .. }
        | Op::AttnScoresGradQ { .. }
        | Op::AttnScoresGradK { .. }
        | Op::AttnContext { .. }
        | Op::AttnContextGradP { .. }
        | Op::AttnContextGradV { .. }
        | Op::Softmax
        | Op::SoftmaxGrad => Class::Attention,
        Op::Gate { .. }
        | Op::GateGradX { .. }
        | Op::GateGradW { .. }
        | Op::GateChunk { .. }
        | Op::MoeDispatch { .. }
        | Op::MoeDispatchGrad { .. }
        | Op::MoeGather { .. }
        | Op::MoeGatherGradBuf { .. }
        | Op::MoeGatherGradScale { .. }
        | Op::MoeDispatchIrr { .. }
        | Op::MoeDispatchIrrGrad { .. }
        | Op::MoeGatherIrr { .. }
        | Op::MoeGatherIrrGradBuf { .. }
        | Op::ExpertsLayout { .. }
        | Op::ExpertsLayoutInv { .. } => Class::Route,
        Op::SgdUpdate { .. } | Op::SgdMomentumUpdate { .. } | Op::AdamUpdate { .. } => {
            Class::Optimizer
        }
        Op::AllToAll | Op::AllToAllIrr => Class::AllToAll,
        Op::AllReduce | Op::AllGather { .. } | Op::ReduceScatter { .. } => Class::AllReduce,
        _ => Class::Pointwise,
    }
}

/// One instruction-by-instruction replay of a step.
struct Replay {
    values: Vec<HashMap<TensorId, Tensor>>,
    /// Milliseconds per op class.
    class_ms: HashMap<Class, f64>,
    a2a_calls: usize,
    a2a_bytes: usize,
    allreduce_calls: usize,
    allreduce_bytes: usize,
    /// Measured spans, one per instruction (all devices), in seconds from
    /// the replay's start.
    timeline: Vec<TimelineEvent>,
}

impl Replay {
    fn op_ms(&self) -> f64 {
        self.class_ms.values().sum()
    }
}

/// Replays `graph` on `bindings` the way `Executor::run` does: compute
/// ops per device through `eval_op`, collectives through `lancet_moe`.
fn replay(graph: &Graph, bindings: &Bindings) -> Result<Replay, String> {
    let mut values: Vec<HashMap<TensorId, Tensor>> = vec![HashMap::new(); DEVICES];
    for t in graph.tensors() {
        if matches!(t.kind, TensorKind::Input | TensorKind::Weight) {
            for (d, map) in values.iter_mut().enumerate() {
                let v = bindings
                    .get(d, t.id)
                    .ok_or_else(|| format!("`{}` unbound", t.name))?;
                map.insert(t.id, v.clone());
            }
        }
    }
    let mut r = Replay {
        values,
        class_ms: HashMap::new(),
        a2a_calls: 0,
        a2a_bytes: 0,
        allreduce_calls: 0,
        allreduce_bytes: 0,
        timeline: Vec::with_capacity(graph.instrs().len()),
    };
    let origin = Instant::now();
    for (pos, instr) in graph.instrs().iter().enumerate() {
        let get = |r: &Replay, d: usize, t: TensorId| -> Result<Tensor, String> {
            r.values[d]
                .get(&t)
                .cloned()
                .ok_or_else(|| format!("instr {pos}: input {} missing", t.0))
        };
        let start = origin.elapsed();
        let mut spent = 0.0;
        match &instr.op {
            Op::AllToAll | Op::AllReduce => {
                let bufs = (0..DEVICES)
                    .map(|d| get(&r, d, instr.inputs[0]))
                    .collect::<Result<Vec<_>, _>>()?;
                let bytes: usize = bufs.iter().map(|b| b.volume() * 4).sum();
                let (outs, t) = if matches!(instr.op, Op::AllToAll) {
                    r.a2a_calls += 1;
                    r.a2a_bytes += bytes;
                    timed(|| lancet_moe::all_to_all_uniform(&bufs))
                } else {
                    r.allreduce_calls += 1;
                    r.allreduce_bytes += bytes;
                    timed(|| lancet_moe::all_reduce_sum(&bufs))
                };
                spent += t;
                for (d, v) in outs.map_err(|e| e.to_string())?.into_iter().enumerate() {
                    r.values[d].insert(instr.outputs[0], v);
                }
            }
            Op::AllToAllIrr => {
                let mut chunks = Vec::with_capacity(DEVICES);
                for d in 0..DEVICES {
                    let buf = get(&r, d, instr.inputs[0])?;
                    let counts = get(&r, d, instr.inputs[1])?
                        .data()
                        .iter()
                        .map(|&x| x as u32)
                        .collect();
                    chunks.push(DispatchedChunk { buf, counts });
                }
                r.a2a_calls += 1;
                r.a2a_bytes += chunks.iter().map(|c| c.buf.volume() * 4).sum::<usize>();
                let (outs, t) = timed(|| lancet_moe::all_to_all_irregular(&chunks));
                spent += t;
                for (d, chunk) in outs.map_err(|e| e.to_string())?.0.into_iter().enumerate() {
                    let counts = chunk.counts.iter().map(|&c| c as f32).collect();
                    let counts = Tensor::from_vec(vec![chunk.counts.len()], counts)
                        .map_err(|e| e.to_string())?;
                    r.values[d].insert(instr.outputs[0], chunk.buf);
                    r.values[d].insert(instr.outputs[1], counts);
                }
            }
            op if op.is_comm() => {
                return Err(format!("collective `{}` is not replayed", op.name()))
            }
            op => {
                for d in 0..DEVICES {
                    let outs = {
                        let ins = instr
                            .inputs
                            .iter()
                            .map(|t| {
                                r.values[d]
                                    .get(t)
                                    .ok_or_else(|| format!("instr {pos}: input {} missing", t.0))
                            })
                            .collect::<Result<Vec<_>, _>>()?;
                        let (outs, t) = timed(|| lancet_exec::eval_op(op, &ins));
                        spent += t;
                        outs.map_err(|e| e.to_string())?
                    };
                    for (&tid, v) in instr.outputs.iter().zip(outs) {
                        r.values[d].insert(tid, v);
                    }
                }
            }
        }
        *r.class_ms.entry(class(&instr.op)).or_insert(0.0) += spent;
        r.timeline.push(TimelineEvent {
            position: pos,
            op: instr.op.name(),
            stream: if instr.op.is_comm() {
                Stream::Comm
            } else {
                Stream::Compute
            },
            start: start.as_secs_f64(),
            end: start.as_secs_f64() + spent / 1e3,
            tile: None,
        });
    }
    Ok(r)
}

/// Every tensor the replay produced must equal the executor's bit for bit.
fn compare(out: &mut Outcome, graph: &Graph, expected: &Bindings, replayed: &Replay) {
    let mut compared = 0usize;
    for (d, values) in replayed.values.iter().enumerate() {
        for (&tid, v) in values {
            compared += 1;
            let same = expected
                .get(d, tid)
                .is_some_and(|e| e.shape() == v.shape() && same_bits(e.data(), v.data()));
            out.check(same, || {
                format!(
                    "replay differs from Executor::run on `{}` (device {d})",
                    graph.tensor(tid).name
                )
            });
        }
    }
    out.check(compared > 0, || "replay compared no tensors".into());
}

/// Replays of the traced step.
const REPLAYS: usize = 5;

/// The train layers, timed from outside: one step replayed op by op, set-up
/// passes, plan counts and the cost model's prediction.
pub fn trace(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let (mut optimize_ms, mut init_ms) = (Vec::new(), Vec::new());
    let (mut job, _) = setups(SETUPS, || {
        let j = setup(args.seed)?;
        optimize_ms.push(j.optimize_ms);
        init_ms.push(j.init_ms);
        Ok(j)
    })?;
    let graph = job.graph().clone();
    let exec = Executor::new(&graph, DEVICES).map_err(|e| e.to_string())?;
    train_step(&mut job, &exec, args.seed, 0, out)?;
    let bindings = job.bindings(args.seed, 1);
    let expected = exec.run(bindings.clone()).map_err(|e| e.to_string())?;
    let mut run_ms = Vec::new();
    let mut replays = Vec::new();
    // Interleave untraced executor steps and replays of the same step so
    // both see the same machine state.
    for _ in 0..REPLAYS {
        let (r, t) = timed(|| exec.run(bindings.clone()));
        r.map_err(|e| e.to_string())?;
        run_ms.push(t);
        replays.push(replay(&graph, &bindings)?);
    }
    for r in &replays {
        compare(out, &graph, &expected, r);
    }
    out.attempted += REPLAYS as u64;
    let step_ms = median(&run_ms);
    let op_ms: Vec<f64> = replays.iter().map(Replay::op_ms).collect();
    let interp_ms = step_ms - median(&op_ms);
    out.check(interp_ms.abs() <= REPLAY_TOLERANCE * step_ms, || {
        format!(
            "replayed op time {:.2} ms vs untraced step {step_ms:.2} ms",
            median(&op_ms)
        )
    });
    let class = |c: Class| {
        median(
            &replays
                .iter()
                .map(|r| r.class_ms.get(&c).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let mib = |b: usize| b as f64 / (1 << 20) as f64;
    let first = &replays[0];

    out.metric("tensor.gemm_ms", class(Class::Gemm), "ms");
    out.metric("tensor.gemm_dw_ms", class(Class::GemmDw), "ms");
    out.metric("moe.a2a_ms", class(Class::AllToAll), "ms");
    out.metric("moe.a2a_calls", first.a2a_calls as f64, "count");
    out.metric("moe.a2a_mib", mib(first.a2a_bytes), "MiB");
    out.metric("moe.allreduce_ms", class(Class::AllReduce), "ms");
    out.metric("moe.allreduce_calls", first.allreduce_calls as f64, "count");
    out.metric("moe.allreduce_mib", mib(first.allreduce_bytes), "MiB");
    out.metric("exec.attention_ms", class(Class::Attention), "ms");
    out.metric("exec.pointwise_ms", class(Class::Pointwise), "ms");
    out.metric("moe.route_ms", class(Class::Route), "ms");
    out.metric("exec.optimizer_ms", class(Class::Optimizer), "ms");
    out.metric("exec.interp_ms", interp_ms, "ms");
    out.metric("exec.step_ms", step_ms, "ms");
    out.metric("core.optimize_ms", median(&optimize_ms), "ms");
    out.metric("exec.init_ms", median(&init_ms), "ms");
    out.metric(
        "core.train_dw_assigned",
        job.outcome.dw.as_ref().map_or(0, |d| d.assigned) as f64,
        "count",
    );
    out.metric(
        "core.train_partition_ranges",
        job.outcome.partition.as_ref().map_or(0, |p| p.ranges.len()) as f64,
        "count",
    );
    out.metric("ir.train_instrs", graph.instrs().len() as f64, "count");
    out.metric(
        "cost.predicted_step_ms",
        job.outcome.predicted_time * 1e3,
        "model_ms",
    );
    let loss = expected.get(0, job.loss).ok_or("missing loss")?.data()[0];
    out.check(loss.is_finite(), || {
        format!("traced step: loss {loss} is not finite")
    });
    out.metric("models.loss_last", f64::from(loss), "nats");

    // Measured spans and the simulated timeline of the same graph, side
    // by side in the Chrome trace format.
    let measured = SimReport {
        iteration_time: first.timeline.last().map_or(0.0, |e| e.end),
        compute_busy: first
            .timeline
            .iter()
            .filter(|e| e.stream == Stream::Compute)
            .map(TimelineEvent::duration)
            .sum(),
        comm_busy: first
            .timeline
            .iter()
            .filter(|e| e.stream == Stream::Comm)
            .map(TimelineEvent::duration)
            .sum(),
        overlapped: 0.0,
        peak_memory: 0,
        oom: false,
        faults: Default::default(),
        timeline: first.timeline.clone(),
    };
    let spec = ClusterSpec::v100(1);
    let sim = Simulator::new(
        ComputeModel::new(spec.device.clone()),
        CommModel::new(spec),
        SimConfig::new(DEVICES),
    );
    let simulated = sim.simulate(&graph);
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for (name, report) in [
        ("train-measured.trace.json", &measured),
        ("train-simulated.trace.json", &simulated),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, to_chrome_trace(report))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    out.record("traces", "[\"perfbench/out/train-measured.trace.json\", \"perfbench/out/train-simulated.trace.json\"]".into());
    Ok(())
}
