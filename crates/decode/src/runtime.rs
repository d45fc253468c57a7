//! The decode scheduler: continuous batching over a shared KV arena.
//!
//! One scheduler thread owns everything mutable — per-model [`KvArena`]s
//! and the in-flight sequence set — and advances all sequences in
//! lock-step *decode steps* (one new token per in-flight sequence per
//! step). The interesting part is **admission**:
//!
//! * [`BatchMode::Continuous`] — a queued request joins the running
//!   batch at the *next step boundary* whenever a slot is free. Arrivals
//!   never wait for the current batch to finish, which is what keeps
//!   time-to-first-token flat as sequence lengths diverge.
//! * [`BatchMode::Windowed`] — the static baseline: a new batch is
//!   admitted only once the previous batch has fully drained, the way a
//!   fixed micro-batch window behaves. Same kernels, same outputs, worse
//!   tail TTFT; the `decode` bench target measures the gap.
//!
//! Either way the **tokens are identical**: batching only changes *when*
//! a sequence is stepped, and every kernel row is independent of its
//! batch-mates (see [`crate::model`]), so a sequence's token stream
//! equals its solo [`DecodeSession`](crate::DecodeSession) run bit for
//! bit.
//!
//! Prefill goes through serve's [`PlanCache`]: prompts are right-padded
//! to power-of-two length buckets and run through a cached
//! [`Plan::build_prefill`] graph whose K/V projections seed the arena
//! (pad rows are computed then discarded; under causal masking they
//! cannot influence prompt rows). If the plan build fails — including
//! injected plan faults — the scheduler degrades to an eager un-bucketed
//! prefill rather than failing the request.
//!
//! Faults are injected through the same seeded
//! [`FaultInjector`](lancet_serve::FaultInjector) the serve runtime
//! uses, and the recovery invariant is stronger than serve's
//! exactly-once *response*: it is exactly-once *per token*. A failed
//! step rolls the arena back and recomputes — bit-identical, so a retry
//! re-derives the same tokens. A simulated worker panic commits a
//! *partial* emission first; the retry re-emits from the start of the
//! step and the stream's emit-by-index idempotence drops the duplicates.
//! Streams therefore observe a gapless token sequence followed by one
//! terminal event, no matter what the injector does.
//!
//! Admission, shutdown, registry and retry are serve's admission core
//! ([`Admission`](lancet_serve::Admission)): the scheduler parks until a
//! submit or `shutdown` wakes it, instead of polling.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use lancet_core::{Lancet, LancetOptions};
use lancet_cost::{ClusterKind, ClusterSpec};
use lancet_models::GptMoeConfig;
use lancet_serve::{
    canonical_weights, drop_free, retry, Admission, CanonicalWeights, FaultInjector, FaultSpec,
    Metrics, Phase, Plan, PlanCache, PlanKey, Registry, Result, ServeError, ServeStats, State,
    Step,
};
use lancet_tensor::Tensor;

use crate::kv::{KvArena, SlotId};
use crate::model::{argmax, DecodeModel};
use crate::stream::{stream_channel, FinishReason, StreamHandle, StreamTicket};

/// How the scheduler admits queued requests into the running batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchMode {
    /// Join at any step boundary with a free slot (continuous batching).
    Continuous,
    /// Admit a new batch only when the previous one fully drained
    /// (static micro-batch baseline).
    Windowed,
}

/// Decode runtime configuration. A zero count limit (`queue_depth`,
/// `max_inflight`, `kv_capacity_tokens`, `plan_capacity`) means 1.
#[derive(Debug, Clone)]
pub struct DecodeConfig {
    /// Cluster kind for prefill plan optimization and cache keying.
    pub cluster: ClusterKind,
    /// Admission policy.
    pub mode: BatchMode,
    /// Maximum concurrently decoding sequences per model (default 8).
    pub max_inflight: usize,
    /// KV arena capacity in tokens per model (default 4096). A request
    /// reserves `prompt + max_new` tokens at admission.
    pub kv_capacity_tokens: usize,
    /// How long a step boundary waits for arrivals to join a non-full
    /// continuous batch. `ZERO`, the default, never waits. Trades a
    /// bounded ITL bump for larger steps.
    pub step_deadline: Duration,
    /// Admission queue bound (default 256); excess submissions are
    /// rejected with [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Prefill plan-cache capacity.
    pub plan_capacity: usize,
    /// How many times a transiently failed decode step or prefill
    /// ([`ServeError::Exec`]) is retried before the affected streams fail.
    pub max_retries: u32,
    /// Base backoff slept before the first retry; doubles each retry.
    pub retry_backoff: Duration,
    /// Seed for canonical weight initialization.
    pub seed: u64,
    /// Optional deterministic fault injection.
    pub fault: Option<FaultSpec>,
}

impl Default for DecodeConfig {
    fn default() -> Self {
        DecodeConfig {
            cluster: ClusterKind::A100,
            mode: BatchMode::Continuous,
            max_inflight: 8,
            kv_capacity_tokens: 4096,
            step_deadline: Duration::ZERO,
            queue_depth: 256,
            plan_capacity: 8,
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            seed: 0xdec0,
            fault: None,
        }
    }
}

struct ModelEntry {
    cfg: GptMoeConfig,
    model: Arc<DecodeModel>,
    lancet: Lancet,
    canonical: CanonicalWeights,
}

struct Pending {
    model: String,
    prompt: Vec<u32>,
    max_new: usize,
    handle: StreamHandle,
    submitted: Instant,
}

struct Shared {
    /// The config with its zero limits resolved.
    config: DecodeConfig,
    admission: Admission<Pending>,
    models: Registry<ModelEntry>,
    metrics: Metrics,
    cache: PlanCache,
    faults: FaultInjector,
}

/// An in-flight sequence owned by the scheduler.
struct Active {
    slot: SlotId,
    handle: StreamHandle,
    /// Tokens emitted so far (== the next emission index).
    generated: usize,
    max_new: usize,
    /// The newest token — next step's input.
    next_token: u32,
    submitted: Instant,
    last_emit: Instant,
}

/// Per-model scheduler state: the arena and the running batch.
struct ModelRun {
    entry: Arc<ModelEntry>,
    arena: KvArena,
    active: Vec<Active>,
}

/// The decode-serving runtime. See the module docs of `runtime.rs`.
pub struct DecodeRuntime {
    shared: Arc<Shared>,
    scheduler: Mutex<Option<JoinHandle<()>>>,
}

impl DecodeRuntime {
    /// Start the runtime: spawns the scheduler thread.
    pub fn start(cfg: DecodeConfig) -> Self {
        let config = DecodeConfig {
            queue_depth: cfg.queue_depth.max(1),
            max_inflight: cfg.max_inflight.max(1),
            kv_capacity_tokens: cfg.kv_capacity_tokens.max(1),
            plan_capacity: cfg.plan_capacity.max(1),
            ..cfg
        };
        let shared = Arc::new(Shared {
            admission: Admission::new(config.queue_depth),
            models: Registry::default(),
            metrics: Metrics::new(),
            cache: PlanCache::new(config.plan_capacity),
            faults: FaultInjector::new(config.fault.clone().unwrap_or_else(|| FaultSpec::quiet(0))),
            config,
        });
        let scheduler = Scheduler { shared: shared.clone(), runs: HashMap::new(), panics: 0 };
        let sched = thread::Builder::new()
            .name("lancet-decode-scheduler".into())
            .spawn(move || scheduler.run())
            .expect("spawn decode scheduler");
        DecodeRuntime { shared, scheduler: Mutex::new(Some(sched)) }
    }

    /// Register a model: normalizes its capacity factor to the expert
    /// count (drop-free routing — the batched-equals-solo precondition),
    /// initializes canonical weights, and builds the eager decode engine
    /// plus a partition-disabled optimizer for prefill plans.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for a model decode cannot serve or a
    /// name that is already registered.
    pub fn register_model(&self, cfg: GptMoeConfig) -> Result<()> {
        let cfg = drop_free(cfg);
        let canonical = canonical_weights(&cfg, self.shared.config.seed)?;
        self.register_model_with_weights(cfg, canonical, None)
    }

    /// [`register_model`](Self::register_model) with caller-supplied
    /// weights — the model-store load path. `packs` carries prepacked
    /// GEMM panels (decode is single-device, so only device 0's map);
    /// matching panels are adopted instead of re-packed, stale ones are
    /// repacked fresh.
    ///
    /// # Errors
    ///
    /// As [`register_model`](Self::register_model).
    pub fn register_model_with_weights(
        &self,
        cfg: GptMoeConfig,
        canonical: CanonicalWeights,
        packs: Option<&HashMap<String, Arc<lancet_tensor::PackedTensor>>>,
    ) -> Result<()> {
        let cfg = drop_free(cfg);
        let model = Arc::new(DecodeModel::new_with_packs(&cfg, &canonical, packs)?);
        let lancet = Lancet::new(
            ClusterSpec::of(self.shared.config.cluster, 1),
            cfg.gpus,
            LancetOptions::decode_serving(),
        );
        self.shared.models.insert(cfg.name.clone(), ModelEntry { cfg, model, lancet, canonical })
    }

    /// Submit a prompt for `max_new` greedily decoded tokens. Returns a
    /// [`StreamTicket`] delivering tokens as they are produced.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for a request that can never run (one
    /// that overflows the KV arena included), else as serve's `submit`.
    pub fn submit(&self, model: &str, prompt: &[u32], max_new: usize) -> Result<StreamTicket> {
        let entry = self.shared.models.get(model)?;
        if prompt.is_empty() {
            return Err(ServeError::BadRequest("empty prompt".into()));
        }
        if max_new == 0 {
            return Err(ServeError::BadRequest("max_new must be at least 1".into()));
        }
        let capacity = self.shared.config.kv_capacity_tokens;
        if prompt.len().checked_add(max_new).is_none_or(|reserve| reserve > capacity) {
            return Err(ServeError::BadRequest(format!(
                "request needs {} + {max_new} KV tokens, arena capacity is {capacity}",
                prompt.len()
            )));
        }
        let vocab = entry.cfg.vocab;
        if prompt.iter().any(|&t| t as usize >= vocab) {
            return Err(ServeError::BadRequest(format!("prompt token out of vocabulary ({vocab})")));
        }
        let (handle, ticket) = stream_channel();
        let pending =
            Pending { model: model.into(), prompt: prompt.to_vec(), max_new, handle, submitted: Instant::now() };
        self.shared.admission.submit(pending, &self.shared.metrics)?;
        Ok(ticket)
    }

    /// Runtime statistics: serve's counters plus the decode latency
    /// distributions (`ttft_*`, `itl_*`).
    pub fn stats(&self) -> ServeStats {
        let shared = &self.shared;
        shared.metrics.snapshot(shared.admission.queued(), shared.cache.stats(), shared.faults.fired())
    }

    /// Drain and stop: in-flight sequences finish, queued requests are
    /// served, new submissions are refused with
    /// [`ServeError::ShuttingDown`].
    pub fn shutdown(&self) {
        self.shared.admission.close(Phase::Draining);
        if let Some(h) = self.scheduler.lock().unwrap().take() {
            let _ = h.join();
        }
    }
}

impl Drop for DecodeRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct Scheduler {
    shared: Arc<Shared>,
    runs: HashMap<String, ModelRun>,
    /// Monotone counter keying the deterministic partial-commit cut.
    panics: u64,
}

impl Scheduler {
    /// Each turn admits what the queue head allows, prefills it, and
    /// advances every running batch one step. With nothing running and
    /// nothing queued it parks; draining, it exits once both are empty.
    fn run(mut self) {
        loop {
            let config = &self.shared.config;
            let busy = self.runs.values().any(|r| !r.active.is_empty());
            // In continuous mode a positive step deadline lets arrivals
            // join a non-full batch before the next step.
            let free = self.runs.values().any(|r| r.active.len() < config.max_inflight);
            let mut deadline = (busy && free && config.mode == BatchMode::Continuous)
                .then_some(config.step_deadline)
                .filter(|d| !d.is_zero());
            let runs = &mut self.runs;
            let turn = self.shared.admission.next(|state, _| {
                let staged = pick(state, runs, &self.shared);
                let idle = staged.is_empty() && state.queue.is_empty();
                match (busy, idle, state.phase()) {
                    (true, true, Phase::Open) if deadline.is_some() => Step::Wait(deadline.take()),
                    (false, true, Phase::Open) => Step::Wait(None),
                    (false, true, _) => Step::Exit,
                    _ => Step::Take(staged),
                }
            });
            let Some(mut staged) = turn else { return };
            // Arrivals during the prefills join this step: a burst steps together.
            while !staged.is_empty() {
                staged.into_iter().for_each(|(pending, slot)| self.prefill_admitted(pending, slot));
                staged = pick(&mut self.shared.admission.lock(), &mut self.runs, &self.shared);
            }
            for run in self.runs.values_mut().filter(|r| !r.active.is_empty()) {
                step_batch(&self.shared, run, &mut self.panics);
            }
        }
    }

    /// Prefill one admitted request and install it as an active
    /// sequence, emitting its first token (TTFT).
    fn prefill_admitted(&mut self, pending: Pending, slot: SlotId) {
        let shared = &self.shared;
        let run = self.runs.get_mut(&pending.model).expect("run created at admission");
        let first = retry(shared.config.max_retries, shared.config.retry_backoff, &shared.metrics, |_| {
            if shared.faults.exec_fault() {
                return Err(ServeError::Exec("injected transient prefill failure".into()));
            }
            prefill(shared, run, slot, &pending.prompt)
        });
        match first {
            Ok(first) => {
                shared.metrics.record_ttft(pending.submitted.elapsed().as_secs_f64() * 1e3);
                pending.handle.emit(0, first);
                let mut seq = Active {
                    slot,
                    handle: pending.handle,
                    generated: 1,
                    max_new: pending.max_new,
                    next_token: first,
                    submitted: pending.submitted,
                    last_emit: Instant::now(),
                };
                if seq.generated >= seq.max_new {
                    finish_seq(shared, &mut run.arena, &mut seq);
                } else {
                    run.active.push(seq);
                }
            }
            Err(e) => {
                run.arena.release(slot);
                shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
                pending.handle.fail(e);
            }
        }
    }
}

/// The admission pick over the locked queue: pop requests off the head
/// (FIFO, head-of-line blocking) while their model's batch takes them
/// and its arena can reserve their KV slot.
fn pick(
    state: &mut State<Pending>,
    runs: &mut HashMap<String, ModelRun>,
    shared: &Shared,
) -> Vec<(Pending, SlotId)> {
    let config = &shared.config;
    let mut staged: Vec<(Pending, SlotId)> = Vec::new();
    while let Some(front) = state.queue.front() {
        let run = runs.entry(front.model.clone()).or_insert_with(|| {
            // `submit` admits only registered models, and registration is
            // permanent.
            let entry = shared.models.get(&front.model).expect("admitted model is registered");
            let arena = KvArena::new(entry.cfg.layers, entry.cfg.hidden, config.kv_capacity_tokens);
            ModelRun { entry, arena, active: Vec::new() }
        });
        let staged_here = staged.iter().filter(|(p, _)| p.model == front.model).count();
        // Windowed: only an empty engine takes a new window.
        let windowed = config.mode == BatchMode::Windowed && !run.active.is_empty();
        if windowed || run.active.len() + staged_here >= config.max_inflight {
            break;
        }
        let Some(slot) = run.arena.alloc(front.prompt.len() + front.max_new) else {
            break; // KV backpressure: stay queued until a slot frees.
        };
        staged.push((state.queue.pop_front().expect("front exists"), slot));
    }
    staged
}

/// One prefill attempt: through a cached seq-bucketed plan, degrading to
/// an eager exact-length prefill if the plan build or padded execution
/// fails. Seeds the slot; returns the first generated token.
fn prefill(shared: &Shared, run: &mut ModelRun, slot: SlotId, prompt: &[u32]) -> Result<u32> {
    let entry = &run.entry;
    let logits = match bucketed_prefill(shared, entry, &mut run.arena, slot, prompt) {
        Ok(logits) => logits,
        Err(_) => {
            shared.metrics.degraded.fetch_add(1, Ordering::Relaxed);
            let (logits, kvs) = entry.model.prefill_full(prompt)?;
            entry.model.seed_slot(&mut run.arena, slot, &kvs, prompt.len())?;
            logits
        }
    };
    let vocab = *logits.shape().last().unwrap();
    Ok(argmax(&logits.data()[(prompt.len() - 1) * vocab..prompt.len() * vocab]))
}

/// Prefill through a cached seq-bucketed plan: pad the prompt to the
/// next power of two, run the harvested-K/V graph, keep only the real
/// rows. Causal masking makes right-padding invisible to prompt rows,
/// so the seeded cache is bit-identical to an exact-length prefill.
fn bucketed_prefill(
    shared: &Shared,
    entry: &ModelEntry,
    arena: &mut KvArena,
    slot: SlotId,
    prompt: &[u32],
) -> Result<Tensor> {
    let bucket = prompt.len().next_power_of_two();
    let key = PlanKey {
        model: entry.cfg.name.clone(),
        bucket: 1,
        seq: bucket,
        cluster: shared.config.cluster,
        gpus: entry.cfg.gpus,
    };
    let plan = shared.cache.get_or_insert_with(&key, || {
        if shared.faults.plan_fault() {
            return Err(ServeError::Plan("injected plan-build failure".into()));
        }
        Plan::build_prefill(&entry.lancet, &entry.cfg, 1, bucket, &entry.canonical)
    })?;
    let ids = prompt.iter().map(|&t| t as f32).chain(std::iter::repeat(0.0)).take(bucket).collect();
    let ids = Tensor::from_vec(vec![1, bucket], ids).map_err(|e| ServeError::Exec(e.to_string()))?;
    let (logits, kvs) = plan.execute_prefill(&ids)?;
    entry.model.seed_slot(arena, slot, &kvs, prompt.len())?;
    Ok(logits)
}

/// Run one decode step for a model's batch: compute, survive injected
/// faults, emit exactly-once, commit or roll back the arena.
/// `panics` is the partial-commit counter.
fn step_batch(shared: &Shared, run: &mut ModelRun, panics: &mut u64) {
    let config = &shared.config;
    let tokens: Vec<u32> = run.active.iter().map(|s| s.next_token).collect();
    let slots: Vec<SlotId> = run.active.iter().map(|s| s.slot).collect();
    let n = tokens.len();
    let rollback = |arena: &mut KvArena| slots.iter().for_each(|&slot| arena.rollback(slot));

    let next = retry(config.max_retries, config.retry_backoff, &shared.metrics, |attempt| {
        if let Some(pause) = shared.faults.worker_delay() {
            thread::sleep(pause);
        }
        let logits = if shared.faults.exec_fault() {
            Err(ServeError::Exec("injected transient step failure".into()))
        } else {
            run.entry.model.step(&tokens, &mut run.arena, &slots)
        };
        let logits = logits.inspect_err(|_| rollback(&mut run.arena))?;
        let vocab = *logits.shape().last().unwrap();
        let next: Vec<u32> =
            (0..n).map(|i| argmax(&logits.data()[i * vocab..(i + 1) * vocab])).collect();

        // Simulated worker panic: commit a deterministic *partial*
        // prefix of the step's emissions, then crash the attempt. The
        // retry recomputes the same tokens (rollback + deterministic
        // kernels) and re-emits from index 0 of the step; the streams'
        // emit-by-index idempotence swallows the duplicates — the
        // exactly-once-per-token proof obligation of the chaos tests.
        if shared.faults.worker_panic() && attempt < config.max_retries {
            shared.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
            *panics += 1;
            let cut = (*panics as usize) % n.max(1);
            for (seq, &tok) in run.active.iter().zip(&next).take(cut) {
                seq.handle.emit(seq.generated, tok);
            }
            rollback(&mut run.arena);
            return Err(ServeError::Exec("injected worker panic".into()));
        }
        Ok(next)
    });
    let next = match next {
        Ok(next) => next,
        Err(err) => return fail_batch(shared, run, err),
    };

    // Durable commit: tokens out (idempotent), rows committed.
    let now = Instant::now();
    shared.metrics.batches.fetch_add(1, Ordering::Relaxed);
    shared.metrics.batched_requests.fetch_add(n as u64, Ordering::Relaxed);
    for (seq, &tok) in run.active.iter_mut().zip(&next) {
        if seq.handle.emit(seq.generated, tok) {
            shared.metrics.record_itl((now - seq.last_emit).as_secs_f64() * 1e3);
        }
        seq.last_emit = now;
        seq.generated += 1;
        seq.next_token = tok;
        run.arena.commit(seq.slot);
    }
    let mut i = 0;
    while i < run.active.len() {
        if run.active[i].generated >= run.active[i].max_new {
            let mut seq = run.active.swap_remove(i);
            finish_seq(shared, &mut run.arena, &mut seq);
        } else {
            i += 1;
        }
    }
}

/// Complete a sequence: terminal event, slot release, latency account.
fn finish_seq(shared: &Shared, arena: &mut KvArena, seq: &mut Active) {
    // Counters first: a consumer unblocked by `finish` must already see
    // itself counted in `stats()`.
    arena.release(seq.slot);
    shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
    shared.metrics.record_latency(seq.submitted.elapsed().as_secs_f64() * 1e3);
    seq.handle.finish(FinishReason::Length);
}

/// A step exhausted its retries: every stream in the batch gets the
/// typed error (after whatever tokens already made it out) and its slot
/// is reclaimed.
fn fail_batch(shared: &Shared, run: &mut ModelRun, err: ServeError) {
    for seq in run.active.drain(..) {
        run.arena.release(seq.slot);
        shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
        seq.handle.fail(err.clone());
    }
}
