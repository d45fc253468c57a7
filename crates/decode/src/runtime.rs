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

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use lancet_core::{Lancet, LancetOptions};
use lancet_cost::{ClusterKind, ClusterSpec};
use lancet_models::GptMoeConfig;
use lancet_serve::{
    canonical_weights, CanonicalWeights, FaultInjector, FaultSpec, Metrics, Plan, PlanCache,
    PlanKey, Result, ServeError, ServeStats,
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

/// Decode runtime configuration. Zero-valued fields fall back to the
/// `LANCET_DECODE_*` environment variables documented in
/// `docs/CONFIG.md`, then to built-in defaults.
#[derive(Debug, Clone)]
pub struct DecodeConfig {
    /// Cluster kind for prefill plan optimization and cache keying.
    pub cluster: ClusterKind,
    /// Admission policy.
    pub mode: BatchMode,
    /// Maximum concurrently decoding sequences per model
    /// (0 → `LANCET_DECODE_INFLIGHT` → 8).
    pub max_inflight: usize,
    /// KV arena capacity in tokens per model
    /// (0 → `LANCET_DECODE_KV_TOKENS` → 4096). A request reserves
    /// `prompt + max_new` tokens at admission.
    pub kv_capacity_tokens: usize,
    /// How long a step boundary waits for arrivals to join a non-full
    /// continuous batch (`None` → `LANCET_DECODE_STEP_DEADLINE_MS` → 0,
    /// i.e. never wait). Trades a bounded ITL bump for larger steps.
    pub step_deadline: Option<Duration>,
    /// Admission queue bound (0 → 256); excess submissions are rejected
    /// with [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Prefill through cached seq-bucketed plans (`true`) or always
    /// eagerly per prompt (`false`).
    pub prefill_buckets: bool,
    /// Prefill plan-cache capacity.
    pub plan_capacity: usize,
    /// Retries per decode step / prefill execution before the affected
    /// streams fail.
    pub max_retries: u32,
    /// Sleep between retries.
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
            max_inflight: 0,
            kv_capacity_tokens: 0,
            step_deadline: None,
            queue_depth: 0,
            prefill_buckets: true,
            plan_capacity: 8,
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            seed: 0xdec0,
            fault: None,
        }
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok().filter(|&v| v > 0)
}

fn resolve(v: usize, env: &str, default: usize) -> usize {
    if v > 0 {
        v
    } else {
        env_usize(env).unwrap_or(default)
    }
}

/// Resolved runtime limits (config → env → default).
#[derive(Debug, Clone)]
struct Limits {
    mode: BatchMode,
    max_inflight: usize,
    kv_capacity_tokens: usize,
    step_deadline: Duration,
    queue_depth: usize,
    prefill_buckets: bool,
    max_retries: u32,
    retry_backoff: Duration,
    cluster: ClusterKind,
}

impl Limits {
    fn from(cfg: &DecodeConfig) -> Self {
        let step_deadline = cfg.step_deadline.unwrap_or_else(|| {
            Duration::from_millis(env_usize("LANCET_DECODE_STEP_DEADLINE_MS").unwrap_or(0) as u64)
        });
        Limits {
            mode: cfg.mode,
            max_inflight: resolve(cfg.max_inflight, "LANCET_DECODE_INFLIGHT", 8),
            kv_capacity_tokens: resolve(cfg.kv_capacity_tokens, "LANCET_DECODE_KV_TOKENS", 4096),
            step_deadline,
            queue_depth: resolve(cfg.queue_depth, "LANCET_SERVE_QUEUE_DEPTH", 256),
            prefill_buckets: cfg.prefill_buckets,
            max_retries: cfg.max_retries,
            retry_backoff: cfg.retry_backoff,
            cluster: cfg.cluster,
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
    limits: Limits,
    queue: Mutex<VecDeque<Pending>>,
    cv: Condvar,
    shutting_down: AtomicBool,
    models: Mutex<HashMap<String, Arc<ModelEntry>>>,
    metrics: Metrics,
    cache: PlanCache,
    injector: Option<FaultInjector>,
    seed: u64,
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

/// The decode-serving runtime. See the [module docs](self).
pub struct DecodeRuntime {
    shared: Arc<Shared>,
    scheduler: Mutex<Option<JoinHandle<()>>>,
}

impl DecodeRuntime {
    /// Start the runtime: spawns the scheduler thread.
    pub fn start(cfg: DecodeConfig) -> Self {
        let limits = Limits::from(&cfg);
        let shared = Arc::new(Shared {
            limits,
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            models: Mutex::new(HashMap::new()),
            metrics: Metrics::new(),
            cache: PlanCache::new(cfg.plan_capacity.max(1)),
            injector: cfg.fault.clone().map(FaultInjector::new),
            seed: cfg.seed,
        });
        let sched = {
            let shared = shared.clone();
            thread::Builder::new()
                .name("lancet-decode-scheduler".into())
                .spawn(move || Scheduler::new(shared).run())
                .expect("spawn decode scheduler")
        };
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
    /// name that is already registered (running sequences keep the entry
    /// they were admitted with, so a silent replace would split them from
    /// new submissions).
    pub fn register_model(&self, cfg: GptMoeConfig) -> Result<()> {
        let normalized = cfg.clone().with_capacity_factor(cfg.experts() as f64);
        let canonical = canonical_weights(&normalized, self.shared.seed)?;
        self.register_entry(normalized, canonical, None)
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
        packs: Option<&std::collections::HashMap<String, Arc<lancet_tensor::PackedTensor>>>,
    ) -> Result<()> {
        let normalized = cfg.clone().with_capacity_factor(cfg.experts() as f64);
        self.register_entry(normalized, canonical, packs)
    }

    fn register_entry(
        &self,
        normalized: GptMoeConfig,
        canonical: CanonicalWeights,
        packs: Option<&std::collections::HashMap<String, Arc<lancet_tensor::PackedTensor>>>,
    ) -> Result<()> {
        let model = Arc::new(DecodeModel::new_with_packs(&normalized, &canonical, packs)?);
        let lancet = Lancet::new(
            ClusterSpec::of(self.shared.limits.cluster, 1),
            normalized.gpus,
            LancetOptions::decode_serving(),
        );
        let mut models = self.shared.models.lock().unwrap();
        if models.contains_key(&normalized.name) {
            return Err(ServeError::BadRequest(format!(
                "model `{}` is already registered",
                normalized.name
            )));
        }
        let entry = Arc::new(ModelEntry { cfg: normalized.clone(), model, lancet, canonical });
        models.insert(normalized.name.clone(), entry);
        Ok(())
    }

    /// Submit a prompt for `max_new` greedily decoded tokens. Returns a
    /// [`StreamTicket`] delivering tokens as they are produced.
    pub fn submit(&self, model: &str, prompt: &[u32], max_new: usize) -> Result<StreamTicket> {
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let entry = self
            .shared
            .models
            .lock()
            .unwrap()
            .get(model)
            .cloned()
            .ok_or_else(|| ServeError::UnknownModel(model.into()))?;
        if prompt.is_empty() {
            return Err(ServeError::BadRequest("empty prompt".into()));
        }
        if max_new == 0 {
            return Err(ServeError::BadRequest("max_new must be at least 1".into()));
        }
        let reserve = prompt.len() + max_new;
        if reserve > self.shared.limits.kv_capacity_tokens {
            return Err(ServeError::BadRequest(format!(
                "request needs {reserve} KV tokens, arena capacity is {}",
                self.shared.limits.kv_capacity_tokens
            )));
        }
        if prompt.iter().any(|&t| t as usize >= entry.cfg.vocab) {
            return Err(ServeError::BadRequest(format!(
                "prompt token out of vocabulary ({})",
                entry.cfg.vocab
            )));
        }
        let (handle, ticket) = stream_channel();
        {
            let mut q = self.shared.queue.lock().unwrap();
            if q.len() >= self.shared.limits.queue_depth {
                self.shared.metrics.rejected_overload.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded { depth: self.shared.limits.queue_depth });
            }
            q.push_back(Pending {
                model: model.into(),
                prompt: prompt.to_vec(),
                max_new,
                handle,
                submitted: Instant::now(),
            });
            // Counted only once queued: `submitted` means accepted.
            self.shared.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        }
        self.shared.cv.notify_all();
        Ok(ticket)
    }

    /// Runtime statistics: serve's counters plus the decode latency
    /// distributions (`ttft_*`, `itl_*`).
    pub fn stats(&self) -> ServeStats {
        let depth = self.shared.queue.lock().unwrap().len();
        self.shared.metrics.snapshot(depth, self.shared.cache.stats())
    }

    /// Drain and stop: in-flight sequences finish, queued requests are
    /// served, new submissions are refused with
    /// [`ServeError::ShuttingDown`].
    pub fn shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
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
    fn new(shared: Arc<Shared>) -> Self {
        Scheduler { shared, runs: HashMap::new(), panics: 0 }
    }

    fn run(&mut self) {
        loop {
            let admitted = self.admit();
            let stepped = self.step_all();
            if admitted || stepped {
                // In continuous mode a positive step deadline lets
                // arrivals join a non-full batch before the next step.
                let limits = &self.shared.limits;
                if limits.mode == BatchMode::Continuous
                    && limits.step_deadline > Duration::ZERO
                    && self.free_capacity()
                {
                    let q = self.shared.queue.lock().unwrap();
                    if q.is_empty() {
                        let _ = self.shared.cv.wait_timeout(q, limits.step_deadline).unwrap();
                    }
                }
                continue;
            }
            // Idle: no admissible work, nothing in flight to step.
            let q = self.shared.queue.lock().unwrap();
            let draining = self.shared.shutting_down.load(Ordering::SeqCst);
            if draining && q.is_empty() && self.runs.values().all(|r| r.active.is_empty()) {
                return;
            }
            if q.is_empty() {
                let _ = self.shared.cv.wait_timeout(q, Duration::from_millis(20)).unwrap();
            }
        }
    }

    fn free_capacity(&self) -> bool {
        self.runs.values().any(|r| r.active.len() < self.shared.limits.max_inflight)
    }

    /// Pull admissible requests off the queue (FIFO, head-of-line
    /// blocking) and prefill them into the running batch. Returns
    /// whether anything was admitted.
    fn admit(&mut self) -> bool {
        let limits = self.shared.limits.clone();
        let mut staged: Vec<(String, Pending, SlotId)> = Vec::new();
        {
            let mut q = self.shared.queue.lock().unwrap();
            while let Some(front) = q.front() {
                let Some(entry) = self.shared.models.lock().unwrap().get(&front.model).cloned()
                else {
                    let p = q.pop_front().unwrap();
                    p.handle.fail(ServeError::UnknownModel(p.model.clone()));
                    self.shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
                    continue;
                };
                let run = self.runs.entry(front.model.clone()).or_insert_with(|| ModelRun {
                    arena: KvArena::new(entry.cfg.layers, entry.cfg.hidden, limits.kv_capacity_tokens),
                    active: Vec::new(),
                    entry,
                });
                let staged_here = staged.iter().filter(|(m, ..)| *m == front.model).count();
                let occupancy = run.active.len() + staged_here;
                let admissible = match limits.mode {
                    BatchMode::Continuous => occupancy < limits.max_inflight,
                    // Windowed: only an empty engine takes a new window.
                    BatchMode::Windowed => run.active.is_empty() && occupancy < limits.max_inflight,
                };
                if !admissible {
                    break;
                }
                let reserve = front.prompt.len() + front.max_new;
                let Some(slot) = run.arena.alloc(reserve) else {
                    break; // KV backpressure: stay queued until a slot frees.
                };
                let p = q.pop_front().unwrap();
                staged.push((p.model.clone(), p, slot));
            }
        }
        let any = !staged.is_empty();
        for (model, pending, slot) in staged {
            self.prefill_admitted(&model, pending, slot);
        }
        any
    }

    /// Prefill one admitted request and install it as an active
    /// sequence, emitting its first token (TTFT).
    fn prefill_admitted(&mut self, model: &str, pending: Pending, slot: SlotId) {
        let run = self.runs.get_mut(model).expect("run created at admission");
        match prefill_with_retry(&self.shared, run, slot, &pending.prompt) {
            Ok(first) => {
                let now = Instant::now();
                self.shared
                    .metrics
                    .record_ttft(pending.submitted.elapsed().as_secs_f64() * 1e3);
                pending.handle.emit(0, first);
                let mut seq = Active {
                    slot,
                    handle: pending.handle,
                    generated: 1,
                    max_new: pending.max_new,
                    next_token: first,
                    submitted: pending.submitted,
                    last_emit: now,
                };
                if seq.generated >= seq.max_new {
                    finish_seq(&self.shared, &mut run.arena, &mut seq);
                } else {
                    run.active.push(seq);
                }
            }
            Err(e) => {
                run.arena.release(slot);
                self.shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
                pending.handle.fail(e);
            }
        }
    }

    /// Advance every model's running batch by one decode step. Returns
    /// whether any step ran.
    fn step_all(&mut self) -> bool {
        let mut stepped = false;
        for run in self.runs.values_mut() {
            if run.active.is_empty() {
                continue;
            }
            stepped = true;
            self.panics = step_batch(&self.shared, run, self.panics);
        }
        stepped
    }
}

/// Execute one prefill with fault injection and bounded retry; seed the
/// slot; return the first generated token.
fn prefill_with_retry(
    shared: &Shared,
    run: &mut ModelRun,
    slot: SlotId,
    prompt: &[u32],
) -> Result<u32> {
    let limits = &shared.limits;
    let mut attempt = 0u32;
    loop {
        let injected = shared.injector.as_ref().is_some_and(|i| i.exec_fault());
        if injected {
            shared.metrics.injected_faults.fetch_add(1, Ordering::Relaxed);
        }
        let result = if injected {
            Err(ServeError::Exec("injected transient prefill failure".into()))
        } else {
            prefill_once(shared, run, slot, prompt)
        };
        match result {
            Ok(first) => return Ok(first),
            Err(e) => {
                attempt += 1;
                if attempt > limits.max_retries {
                    return Err(e);
                }
                shared.metrics.retried.fetch_add(1, Ordering::Relaxed);
                thread::sleep(limits.retry_backoff);
            }
        }
    }
}

/// One prefill attempt: bucketed plan path with eager fallback.
fn prefill_once(shared: &Shared, run: &mut ModelRun, slot: SlotId, prompt: &[u32]) -> Result<u32> {
    let entry = run.entry.clone();
    if shared.limits.prefill_buckets {
        match bucketed_prefill(shared, &entry, &mut run.arena, slot, prompt) {
            Ok(first) => return Ok(first),
            Err(_) => {
                // Plan build or padded execution failed — degrade to the
                // eager un-bucketed path instead of failing the request.
                shared.metrics.degraded.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let (logits, kvs) = entry.model.prefill_full(prompt)?;
    entry.model.seed_slot(&mut run.arena, slot, &kvs, prompt.len())?;
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
) -> Result<u32> {
    let bucket = prompt.len().next_power_of_two();
    let key = PlanKey {
        model: entry.cfg.name.clone(),
        bucket: 1,
        seq: bucket,
        cluster: shared.limits.cluster,
        gpus: entry.cfg.gpus,
    };
    let plan = shared.cache.get_or_insert_with(&key, || {
        if shared.injector.as_ref().is_some_and(|i| i.plan_fault()) {
            shared.metrics.injected_faults.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Plan("injected plan-build failure".into()));
        }
        Plan::build_prefill(&entry.lancet, &entry.cfg, 1, bucket, &entry.canonical)
    })?;
    let mut ids = vec![0.0f32; bucket];
    for (i, &t) in prompt.iter().enumerate() {
        ids[i] = t as f32;
    }
    let ids = Tensor::from_vec(vec![1, bucket], ids).map_err(|e| ServeError::Exec(e.to_string()))?;
    let (logits, kvs) = plan.execute_prefill(&ids)?;
    entry.model.seed_slot(arena, slot, &kvs, prompt.len())?;
    let vocab = *logits.shape().last().unwrap();
    Ok(argmax(&logits.data()[(prompt.len() - 1) * vocab..prompt.len() * vocab]))
}

/// Run one decode step for a model's batch: compute, survive injected
/// faults, emit exactly-once, commit or roll back the arena.
/// Returns the updated partial-commit counter.
fn step_batch(shared: &Shared, run: &mut ModelRun, mut panics: u64) -> u64 {
    let limits = &shared.limits;
    let tokens: Vec<u32> = run.active.iter().map(|s| s.next_token).collect();
    let slots: Vec<SlotId> = run.active.iter().map(|s| s.slot).collect();
    let n = tokens.len();

    let mut attempt = 0u32;
    loop {
        if let Some(d) = shared.injector.as_ref().and_then(|i| i.worker_delay()) {
            shared.metrics.injected_faults.fetch_add(1, Ordering::Relaxed);
            thread::sleep(d);
        }
        let injected = shared.injector.as_ref().is_some_and(|i| i.exec_fault());
        if injected {
            shared.metrics.injected_faults.fetch_add(1, Ordering::Relaxed);
        }
        let result = if injected {
            Err(ServeError::Exec("injected transient step failure".into()))
        } else {
            run.entry.model.step(&tokens, &mut run.arena, &slots)
        };
        let logits = match result {
            Ok(logits) => logits,
            Err(e) => {
                for &slot in &slots {
                    run.arena.rollback(slot);
                }
                attempt += 1;
                if attempt > limits.max_retries {
                    fail_batch(shared, run, e);
                    return panics;
                }
                shared.metrics.retried.fetch_add(1, Ordering::Relaxed);
                thread::sleep(limits.retry_backoff);
                continue;
            }
        };

        let vocab = *logits.shape().last().unwrap();
        let next: Vec<u32> =
            (0..n).map(|i| argmax(&logits.data()[i * vocab..(i + 1) * vocab])).collect();

        // Simulated worker panic: commit a deterministic *partial*
        // prefix of the step's emissions, then crash the attempt. The
        // retry recomputes the same tokens (rollback + deterministic
        // kernels) and re-emits from index 0 of the step; the streams'
        // emit-by-index idempotence swallows the duplicates — the
        // exactly-once-per-token proof obligation of the chaos tests.
        if shared.injector.as_ref().is_some_and(|i| i.worker_panic()) && attempt < limits.max_retries
        {
            shared.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
            shared.metrics.injected_faults.fetch_add(1, Ordering::Relaxed);
            panics += 1;
            let cut = (panics as usize) % n.max(1);
            for (seq, &tok) in run.active.iter().zip(&next).take(cut) {
                seq.handle.emit(seq.generated, tok);
            }
            for &slot in &slots {
                run.arena.rollback(slot);
            }
            attempt += 1;
            shared.metrics.retried.fetch_add(1, Ordering::Relaxed);
            continue;
        }

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
        return panics;
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
