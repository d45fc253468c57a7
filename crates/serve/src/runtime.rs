//! The serving runtime: admission control, deadline-bounded
//! micro-batching, and plan-cached execution on a worker pool.
//!
//! # Thread topology
//!
//! ```text
//! submitters ──► admission queue ──► batcher ──► exec queue ──► workers
//!    (N)          (bounded:          (1 thread,   (bounded)      (M threads,
//!                  Overloaded         groups by                   plan cache +
//!                  past depth)        model into                  Executor)
//!                                     buckets)
//! ```
//!
//! Both queues are a bounded [`Admission`] queue, so overload surfaces as
//! a typed [`ServeError::Overloaded`] at the door instead of unbounded
//! memory growth, and a slow executor backpressures the batcher rather
//! than letting batches pile up. The batcher and the workers are thin
//! loops around their decisions over the locked queue (`next_batch`,
//! `next_exec`). Requests that out-wait their latency budget are shed
//! with [`ServeError::DeadlineExceeded`] before execution — running them
//! would spend executor time on an answer that is already useless.
//!
//! # Transparent batching
//!
//! Registration normalizes each model's capacity factor to its expert
//! count ([`drop_free`]), which makes routing drop-free: every expert can
//! absorb every token, so no token's output depends on what else shares
//! its micro-batch. Combined with the executor's fixed per-element
//! reduction order, a batched response is bit-identical to what solo
//! (batch = 1) serving would have produced — micro-batching is purely a
//! throughput optimization, invisible in the output bits (covered by the
//! `batched_responses_bit_identical_to_solo` integration test).

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lancet_core::{Lancet, LancetOptions};
use lancet_cost::{optimize_placement, ClusterKind, ClusterSpec, ExpertTraffic, PlacementOptions, PlacementPlan};
use lancet_models::GptMoeConfig;
use lancet_tensor::{det, pool, Tensor};

use crate::admission::{drop_free, retry, Admission, Phase, Registry, State, Step};
use crate::cache::PlanCache;
use crate::fault::{FaultInjector, FaultSpec};
use crate::plan::{canonical_weights, pack_weights, CanonicalWeights, PackSet, Plan, PlanKey};
use crate::stats::{Metrics, ServeStats};
use crate::{Result, ServeError};

/// Serving-runtime knobs. A zero count limit (`queue_depth`,
/// `max_batch`, `plan_capacity`) means 1; `exec_workers` resolves a zero
/// as documented on it.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Device generation the plan optimizer's cost models target.
    pub cluster: ClusterKind,
    /// Admission-queue bound; requests beyond it are rejected with
    /// [`ServeError::Overloaded`] (default 256).
    pub queue_depth: usize,
    /// Most requests per micro-batch (buckets are powers of two up to
    /// this, rounded up). `0` means 1.
    pub max_batch: usize,
    /// How long the batcher waits for a full batch before dispatching a
    /// partial one. Zero dispatches immediately (no batching delay).
    pub batch_window: Duration,
    /// Per-request queueing budget; requests that wait longer are shed
    /// with [`ServeError::DeadlineExceeded`]. Zero disables shedding.
    pub latency_budget: Duration,
    /// Executor worker threads. `0` resolves like the compute pool's
    /// worker knob (`LANCET_WORKERS`, then machine size).
    pub exec_workers: usize,
    /// Plan-cache capacity (plans, not bytes). `0` means 1.
    pub plan_capacity: usize,
    /// Run the Lancet partition pass when building plans. Costs more at
    /// plan-build time (all of it amortized by the cache), buys the
    /// paper's overlap schedule inside each plan.
    pub partition: bool,
    /// Seed for canonical weight initialization.
    pub seed: u64,
    /// Per-request end-to-end timeout: requests still unexecuted after
    /// this long are answered with [`ServeError::TimedOut`] instead of a
    /// late response. Zero disables the timeout. Unlike
    /// [`latency_budget`](Self::latency_budget) (queue-side shedding,
    /// checked by the batcher), the timeout is checked by the worker just
    /// before execution, so it also catches time lost in the exec queue.
    pub request_timeout: Duration,
    /// How many times a transiently failed execution
    /// ([`ServeError::Exec`]) is retried before the error is delivered.
    pub max_retries: u32,
    /// Base backoff slept before the first retry; doubles each retry.
    pub retry_backoff: Duration,
    /// Deterministic fault injection (chaos testing). `None` — the
    /// default — injects nothing: its sites return before they draw.
    pub fault: Option<FaultSpec>,
    /// Affinity-aware dispatch: at registration each model gets an
    /// expert→worker [`PlacementPlan`] (exec workers play the role of
    /// devices), every batch is tagged with the worker holding its hot
    /// expert, and workers prefer their own batches from the exec queue.
    /// Preference is soft — a free worker steals rather than idles — and
    /// outcomes land in `placement_hits` / `placement_misses` on
    /// [`ServeStats`]. Off by default: batches go to whichever worker
    /// frees up first and the counters stay zero.
    pub affinity: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cluster: ClusterKind::A100,
            queue_depth: 256,
            max_batch: 8,
            batch_window: Duration::from_millis(2),
            latency_budget: Duration::ZERO,
            exec_workers: 0,
            plan_capacity: 16,
            partition: true,
            seed: 0x5e4e,
            request_timeout: Duration::ZERO,
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            fault: None,
            affinity: false,
        }
    }
}

/// One registered model: its (capacity-normalized) config, a dedicated
/// optimizer whose partition memo is shared by every bucket's plan
/// build, and the canonical name-keyed weights every plan binds.
#[derive(Debug)]
struct ModelEntry {
    cfg: GptMoeConfig,
    lancet: Lancet,
    canonical: CanonicalWeights,
    /// Expert→worker plan for affinity dispatch (`None` unless
    /// [`ServeConfig::affinity`] is set).
    placement: Option<PlacementPlan>,
    /// The model's prepacked GEMM panels, packed once at registration
    /// (or carried in from a model store); every bucket's plan adopts
    /// them instead of re-packing.
    packs: PackSet,
}

/// A request waiting in a queue.
pub(crate) struct Pending {
    pub(crate) model: String,
    pub(crate) ids: Vec<f32>,
    pub(crate) enqueued: Instant,
    pub(crate) slot: Arc<ResponseSlot>,
}

/// A micro-batch handed from the batcher to an exec worker. The bucket
/// is derived where it's used (`serve_entries`), since timeout filtering
/// and degradation can shrink the entry set after extraction.
pub(crate) struct Batch {
    pub(crate) model: String,
    pub(crate) entries: Vec<Pending>,
    /// Worker index holding the batch's hot expert (affinity dispatch);
    /// `None` when affinity is off — any worker takes it, uncounted.
    pub(crate) preferred: Option<usize>,
}

/// The write-once response cell behind a [`Ticket`].
#[derive(Debug, Default)]
pub(crate) struct ResponseSlot {
    pub(crate) state: Mutex<Option<Result<Tensor>>>,
    ready: Condvar,
}

impl ResponseSlot {
    /// First delivery wins; returns whether this call was it.
    pub(crate) fn deliver(&self, result: Result<Tensor>) -> bool {
        let mut state = self.state.lock().expect("slot lock");
        if state.is_some() {
            return false;
        }
        *state = Some(result);
        self.ready.notify_all();
        true
    }
}

/// A claim on one request's eventual response. Waiting consumes the
/// ticket, so a response can be received at most once — together with
/// the slot's write-once cell this gives exactly-once delivery.
#[must_use = "an unawaited ticket discards its response"]
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<ResponseSlot>,
}

impl Ticket {
    /// Blocks until the response (or rejection) arrives.
    pub fn wait(self) -> Result<Tensor> {
        let state = self.slot.state.lock().expect("slot lock");
        let mut state = self.slot.ready.wait_while(state, |s| s.is_none()).expect("slot lock");
        state.take().expect("woken with a response")
    }
}

/// State shared by submitters, the batcher, and the exec workers.
struct Shared {
    config: ServeConfig,
    exec_workers: usize,
    models: Registry<ModelEntry>,
    cache: PlanCache,
    metrics: Metrics,
    admission: Admission<Pending>,
    exec: Admission<Batch>,
    faults: FaultInjector,
}

/// Handles to the runtime's threads, held until shutdown.
struct Threads {
    batcher: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

/// A concurrent MoE inference-serving runtime.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct ServeRuntime {
    shared: Arc<Shared>,
    threads: Mutex<Option<Threads>>,
}

impl std::fmt::Debug for ServeRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeRuntime").field("stats", &self.stats()).finish()
    }
}

impl ServeRuntime {
    /// Starts the runtime: one batcher thread plus the configured number
    /// of exec workers. Models are registered afterwards with
    /// [`register_model`](Self::register_model).
    pub fn start(config: ServeConfig) -> Arc<ServeRuntime> {
        let config = ServeConfig {
            queue_depth: config.queue_depth.max(1),
            max_batch: config.max_batch.max(1),
            plan_capacity: config.plan_capacity.max(1),
            ..config
        };
        let exec_workers = pool::resolve_workers(config.exec_workers);
        if config.fault.is_some() {
            silence_injected_panics();
        }
        let shared = Arc::new(Shared {
            admission: Admission::new(config.queue_depth),
            // Enough slack that workers rarely idle, small enough that a
            // stalled executor backpressures the batcher quickly.
            exec: Admission::new(exec_workers * 2),
            exec_workers,
            cache: PlanCache::new(config.plan_capacity),
            metrics: Metrics::new(),
            models: Registry::default(),
            faults: FaultInjector::new(config.fault.clone().unwrap_or_else(|| FaultSpec::quiet(0))),
            config,
        });
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-batcher".into())
                .spawn(move || batcher_loop(&shared))
                .expect("spawn batcher")
        };
        let workers = (0..exec_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-exec-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn exec worker")
            })
            .collect();
        Arc::new(ServeRuntime {
            shared,
            threads: Mutex::new(Some(Threads { batcher, workers })),
        })
    }

    /// Registers `cfg` under its `name`, building the canonical weights,
    /// their GEMM panels and the model's plan optimizer. Each is built
    /// once per model: every bucket's plan binds the canonical weights by
    /// refcount and adopts the panels. The capacity factor is normalized
    /// to the expert count so routing is drop-free — the transparent-
    /// batching precondition (see the module docs).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] if the name is already registered;
    /// [`ServeError::Plan`] if the model graph cannot be built.
    pub fn register_model(&self, cfg: GptMoeConfig) -> Result<()> {
        let cfg = drop_free(cfg);
        let canonical = canonical_weights(&cfg, self.shared.config.seed)?;
        self.register_model_with_weights(cfg, canonical, None)
    }

    /// Registers `cfg` with caller-supplied weights — the model-store
    /// load path, where the canonical weights (and, optionally, the
    /// prepacked GEMM panels) come from a mapped store file instead of
    /// seeded generation. Without `packs`, the panels are packed here,
    /// once ([`pack_weights`]). Either way every plan build adopts them
    /// instead of re-packing, so no bucket's plan build does packing work.
    ///
    /// The capacity factor is normalized exactly as in
    /// [`register_model`](Self::register_model) — normalization never
    /// changes weight shapes, only routing capacity, so stored weights
    /// stay valid.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] if the name is taken or the weights
    /// don't cover `cfg.gpus` devices; [`ServeError::Plan`] if the model
    /// graph cannot be built or `canonical` lacks one of its weights.
    pub fn register_model_with_weights(
        &self,
        cfg: GptMoeConfig,
        canonical: CanonicalWeights,
        packs: Option<PackSet>,
    ) -> Result<()> {
        let cfg = drop_free(cfg);
        let packed = packs.as_ref().map_or(cfg.gpus, |p| p.len());
        for (what, devices) in [("weights", canonical.len()), ("packs", packed)] {
            if devices != cfg.gpus {
                return Err(ServeError::BadRequest(format!(
                    "{what} cover {devices} devices, model `{}` needs {}",
                    cfg.name, cfg.gpus
                )));
            }
        }
        let config = &self.shared.config;
        let lancet = Lancet::new(
            ClusterSpec::of(config.cluster, 1),
            cfg.gpus,
            LancetOptions { disable_partition: !config.partition, ..LancetOptions::default() },
        );
        // Affinity dispatch: optimize an expert→worker plan against a
        // seeded synthetic routing histogram (Zipf skew + inter-layer
        // affinity). Workers play the role of devices, one per "node",
        // so the search spreads hot experts across the pool and the
        // dispatcher can aim each request at the worker holding its hot
        // expert. Deterministic per (model shape, runtime seed).
        let placement = config.affinity.then(|| {
            let layers = cfg.moe_layers().len().max(1);
            let traffic = ExpertTraffic::synthetic(
                layers,
                cfg.experts(),
                4096,
                1.2,
                0.8,
                (cfg.hidden * 4) as u64,
                config.seed,
            );
            let options = PlacementOptions::default();
            optimize_placement(&traffic, self.shared.exec_workers, 1, &options).0
        });
        let packs = match packs {
            Some(packs) => packs,
            None => pack_weights(&cfg, &canonical)?,
        };
        self.shared.models.insert(cfg.name.clone(), ModelEntry { cfg, lancet, canonical, placement, packs })
    }

    /// Submits one request — `ids` is a single sequence of token ids for
    /// `model` — and returns a [`Ticket`] for its response.
    ///
    /// # Errors
    ///
    /// Rejects immediately with [`ServeError::UnknownModel`] /
    /// [`ServeError::BadRequest`] on a malformed request,
    /// [`ServeError::Overloaded`] when the admission queue is at its
    /// bound, or [`ServeError::ShuttingDown`] / [`ServeError::Crashed`].
    pub fn submit(&self, model: &str, ids: Vec<f32>) -> Result<Ticket> {
        let entry = self.shared.models.get(model)?;
        let cfg = &entry.cfg;
        if ids.len() != cfg.seq {
            return Err(ServeError::BadRequest(format!(
                "{} token ids, model `{model}` serves sequences of {}",
                ids.len(),
                cfg.seq
            )));
        }
        let vocab = cfg.vocab as f32;
        if let Some(bad) = ids.iter().find(|&&t| t < 0.0 || t >= vocab || t.fract() != 0.0) {
            return Err(ServeError::BadRequest(format!(
                "token id {bad} outside vocabulary of {}",
                cfg.vocab
            )));
        }
        let slot = Arc::new(ResponseSlot::default());
        let pending =
            Pending { model: model.into(), ids, enqueued: Instant::now(), slot: Arc::clone(&slot) };
        self.shared.admission.submit(pending, &self.shared.metrics)?;
        Ok(Ticket { slot })
    }

    /// [`submit`](Self::submit), then block for the response.
    ///
    /// # Errors
    ///
    /// Everything `submit` rejects with, plus execution-time failures.
    pub fn submit_blocking(&self, model: &str, ids: Vec<f32>) -> Result<Tensor> {
        self.submit(model, ids)?.wait()
    }

    /// A point-in-time statistics snapshot.
    pub fn stats(&self) -> ServeStats {
        let shared = &self.shared;
        shared.metrics.snapshot(shared.admission.queued(), shared.cache.stats(), shared.faults.fired())
    }

    /// The plan cache (for inspection; plans are managed internally).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.shared.cache
    }

    /// The admission-queue bound: the configured `queue_depth`, or 1
    /// when that was `0`.
    pub fn queue_capacity(&self) -> usize {
        self.shared.admission.depth()
    }

    /// Requests waiting in the admission queue right now. Cheap (one
    /// lock, no snapshot) — the fleet front-end polls this per submit
    /// for its work-stealing decision.
    pub fn queue_len(&self) -> usize {
        self.shared.admission.queued()
    }

    /// Pre-builds `model`'s execution plan for every batch bucket
    /// (1, 2, 4, …, up to `max_batch` rounded to a power of two) into the
    /// plan cache, so the first real requests measure steady-state
    /// service instead of plan compilation. Plans adopt the panels packed
    /// at registration, so warming optimizes graphs and packs nothing.
    /// Management-plane operation: it bypasses admission, batching, and
    /// fault injection, and is idempotent — buckets already cached are
    /// left untouched.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] if `model` was never registered;
    /// [`ServeError::Plan`] if a plan cannot be built.
    pub fn warm_model(&self, model: &str) -> Result<()> {
        let entry = self.shared.models.get(model)?;
        let top = bucket_for(self.shared.config.max_batch);
        for bucket in (0..).map(|log| 1usize << log).take_while(|&b| b <= top) {
            let key = PlanKey {
                model: model.into(),
                bucket,
                seq: entry.cfg.seq,
                cluster: self.shared.config.cluster,
                gpus: entry.cfg.gpus,
            };
            self.shared.cache.get_or_insert_with(&key, || {
                Plan::build_with_packs(
                    &entry.lancet,
                    &entry.cfg,
                    bucket,
                    &entry.canonical,
                    Some(&entry.packs),
                )
            })?;
        }
        Ok(())
    }

    /// Stops admissions, drains both queues (every in-flight request
    /// still gets its response), and joins all runtime threads.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&self) {
        self.stop(Phase::Draining);
    }

    /// Kills the replica abruptly (chaos testing / fleet fail-over
    /// drills). Unlike [`shutdown`](Self::shutdown) — which executes
    /// everything already admitted — `crash` answers every *queued*
    /// request with [`ServeError::Crashed`] without executing it.
    /// Batches a worker had already started still complete and deliver
    /// normally (they are in no queue), preserving exactly-once
    /// delivery: after `crash` returns, every admitted request has been
    /// answered — with its response or with `Crashed` — and
    /// [`ServeStats::outstanding`] is zero.
    ///
    /// Idempotent, and a later `shutdown` (or `Drop`) is a no-op.
    ///
    /// [`ServeStats::outstanding`]: crate::ServeStats::outstanding
    pub fn crash(&self) {
        self.stop(Phase::Crashed);
    }

    /// Closes both queues in order and joins their threads; a crash closes
    /// the exec queue at once, and whatever is left queued is answered.
    fn stop(&self, phase: Phase) {
        let threads = self.threads.lock().expect("threads lock").take();
        let shared = &self.shared;
        shared.admission.close(phase);
        if phase == Phase::Crashed {
            shared.exec.close(phase);
        }
        if let Some(threads) = threads {
            threads.batcher.join().expect("batcher panicked");
            shared.exec.close(Phase::Draining);
            for worker in threads.workers {
                worker.join().expect("exec worker panicked");
            }
        }
        let batched = shared.exec.drain().into_iter().flat_map(|batch| batch.entries);
        deliver_crashed(shared, shared.admission.drain().into_iter().chain(batched));
    }
}

/// Answers `entries` with [`ServeError::Crashed`], counting each.
fn deliver_crashed(shared: &Shared, entries: impl IntoIterator<Item = Pending>) {
    for pending in entries {
        shared.metrics.crashed.fetch_add(1, Ordering::Relaxed);
        let delivered = pending.slot.deliver(Err(ServeError::Crashed));
        debug_assert!(delivered, "a queued request cannot already have a response");
    }
}

impl Drop for ServeRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The smallest power-of-two bucket that fits `n` requests.
fn bucket_for(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// The batcher: groups admitted requests into per-model buckets and
/// feeds the exec queue until `next_batch` says to exit.
fn batcher_loop(shared: &Shared) {
    let decide = |state: &mut _, now| next_batch(state, &shared.config, &shared.metrics, now);
    while let Some(mut batch) = shared.admission.next(decide) {
        // Injected queue stall: the batcher freezes with the batch in
        // hand (admission lock released — submitters keep queueing).
        if let Some(pause) = shared.faults.batcher_stall() {
            std::thread::sleep(pause);
        }
        batch.preferred = preferred_worker(shared, &batch);
        // Handed back only if the runtime crashed while the batch waited
        // for room: the workers are exiting, so it can no longer execute.
        if let Err(batch) = shared.exec.push_wait(batch) {
            deliver_crashed(shared, batch.entries);
        }
    }
}

/// The batcher's decision at `now`: shed expired requests, then batch the
/// oldest request's model once it is full, its window has passed, or the
/// queue is draining. A crash leaves the queue to the crash drain.
pub(crate) fn next_batch(
    state: &mut State<Pending>,
    config: &ServeConfig,
    metrics: &Metrics,
    now: Instant,
) -> Step<Batch> {
    if state.phase() == Phase::Crashed {
        return Step::Exit;
    }
    shed_expired(&mut state.queue, config.latency_budget, metrics, now);
    let Some(front) = state.queue.front() else {
        return if state.phase() == Phase::Open { Step::Wait(None) } else { Step::Exit };
    };
    let model = front.model.clone();
    let waited = now.saturating_duration_since(front.enqueued);
    let matching = state.queue.iter().filter(|p| p.model == model).count();
    if matching >= config.max_batch || waited >= config.batch_window || state.phase() == Phase::Draining
    {
        Step::Take(extract(&mut state.queue, &model, config.max_batch))
    } else {
        Step::Wait(Some(config.batch_window - waited))
    }
}

/// Sheds queued requests that have out-waited the latency budget.
fn shed_expired(queue: &mut VecDeque<Pending>, budget: Duration, metrics: &Metrics, now: Instant) {
    if budget.is_zero() {
        return;
    }
    queue.retain(|pending| {
        let waited = now.saturating_duration_since(pending.enqueued);
        if waited <= budget {
            return true;
        }
        metrics.shed_deadline.fetch_add(1, Ordering::Relaxed);
        let waited_ms = waited.as_secs_f64() * 1e3;
        let delivered = pending.slot.deliver(Err(ServeError::DeadlineExceeded { waited_ms }));
        debug_assert!(delivered, "a queued request cannot already have a response");
        false
    });
}

/// Removes up to `max` requests for `model` from the queue (preserving
/// the relative order of everything else) and wraps them in a batch.
fn extract(queue: &mut VecDeque<Pending>, model: &str, max: usize) -> Batch {
    let mut taken = 0;
    let (entries, rest): (Vec<_>, Vec<_>) = queue.drain(..).partition(|pending| {
        let take = pending.model == model && taken < max;
        taken += usize::from(take);
        take
    });
    *queue = rest.into();
    Batch { model: model.into(), entries, preferred: None }
}

/// An exec worker: pops batches, resolves their plan through the cache,
/// executes, and delivers per-request responses until `next_exec` says
/// to exit.
fn worker_loop(shared: &Shared, index: usize) {
    while let Some(batch) = shared.exec.next(|state, _| next_exec(state, index)) {
        if let Some(preferred) = batch.preferred {
            let metrics = &shared.metrics;
            let counter =
                if preferred == index { &metrics.placement_hits } else { &metrics.placement_misses };
            counter.fetch_add(batch.entries.len() as u64, Ordering::Relaxed);
        }
        run_batch(shared, batch);
    }
}

/// Worker `index`'s decision: the first batch preferring it, else the
/// front one (affinity is soft — a free worker never idles while work is
/// queued). On a crash it stops picking up batches at once; a batch it
/// is already running is in no queue and completes.
pub(crate) fn next_exec(state: &mut State<Batch>, index: usize) -> Step<Batch> {
    let (phase, queue) = (state.phase(), &mut state.queue);
    let pick = queue.iter().position(|b| b.preferred == Some(index));
    match (phase, pick.or((!queue.is_empty()).then_some(0))) {
        (Phase::Crashed, _) => Step::Exit,
        (_, Some(at)) => Step::Take(queue.remove(at).expect("picked position exists")),
        (Phase::Open, None) => Step::Wait(None),
        (Phase::Draining, None) => Step::Exit,
    }
}

/// The worker a batch should land on: each request's hot expert (a
/// deterministic hash-gate proxy over its token ids — serving has no
/// routed activations to inspect at dispatch time) is mapped through the
/// model's layer-0 placement, and the batch majority wins (ties toward
/// the lower worker index). `None` when affinity is off or the model has
/// no plan.
fn preferred_worker(shared: &Shared, batch: &Batch) -> Option<usize> {
    if !shared.config.affinity || batch.entries.is_empty() {
        return None;
    }
    let entry = shared.models.get(&batch.model).ok()?;
    let plan = entry.placement.as_ref()?;
    let experts = entry.cfg.experts();
    let mut votes = vec![0usize; shared.exec_workers.max(1)];
    for pending in &batch.entries {
        let worker = plan.device_of(0, hot_expert(&pending.ids, experts));
        if let Some(v) = votes.get_mut(worker) {
            *v += 1;
        }
    }
    let (worker, &count) = votes.iter().enumerate().max_by_key(|&(i, &v)| (v, usize::MAX - i))?;
    if count == 0 { None } else { Some(worker) }
}

/// The expert a request's tokens concentrate on, by a deterministic
/// hash gate: each token id hashes to an expert, the most-hit expert
/// wins (ties toward the lower index). A stand-in for the first MoE
/// layer's gate — cheap, stateless, and stable across replays.
fn hot_expert(ids: &[f32], experts: usize) -> usize {
    let experts = experts.max(1);
    let mut counts = vec![0u32; experts];
    for &id in ids {
        counts[(det::splitmix64(id.to_bits() as u64) % experts as u64) as usize] += 1;
    }
    (0..experts).max_by_key(|&i| (counts[i], Reverse(i))).unwrap_or(0)
}

// True on this thread while an *injected* panic unwinds (so the panic
// hook stays quiet for chaos the runtime is about to catch anyway).
thread_local! {
    static INJECTED_PANIC: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that suppresses the report
/// for injected panics and delegates everything else to the previous
/// hook. Only called when fault injection is configured.
fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !INJECTED_PANIC.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// A human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload.downcast_ref::<&str>().copied();
    text.or(payload.downcast_ref::<String>().map(String::as_str)).unwrap_or("worker panicked").into()
}

/// Executes one micro-batch and delivers every response exactly once —
/// even if the serve path panics.
fn run_batch(shared: &Shared, batch: Batch) {
    shared.metrics.batches.fetch_add(1, Ordering::Relaxed);
    shared.metrics.batched_requests.fetch_add(batch.entries.len() as u64, Ordering::Relaxed);
    let Batch { model, entries, preferred: _ } = batch;

    // Per-request timeout: answer requests that are already past their
    // end-to-end deadline instead of spending executor time on them.
    let timeout = shared.config.request_timeout;
    let (stale, live): (Vec<_>, Vec<_>) = entries
        .into_iter()
        .partition(|pending| !timeout.is_zero() && pending.enqueued.elapsed() > timeout);
    for pending in stale {
        shared.metrics.timed_out.fetch_add(1, Ordering::Relaxed);
        let waited_ms = pending.enqueued.elapsed().as_secs_f64() * 1e3;
        let delivered = pending.slot.deliver(Err(ServeError::TimedOut { waited_ms }));
        debug_assert!(delivered, "a queued request cannot already have a response");
    }
    if live.is_empty() {
        return;
    }

    // Panic isolation: hold every slot outside the unwind boundary, so a
    // panicking serve path (injected or real) still answers each request
    // whose response hadn't been delivered when the panic hit.
    let slots: Vec<Arc<ResponseSlot>> = live.iter().map(|p| Arc::clone(&p.slot)).collect();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        serve_entries(shared, &model, live);
    }));
    INJECTED_PANIC.with(|f| f.set(false));
    if let Err(payload) = outcome {
        let why = panic_message(payload.as_ref());
        shared.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
        for slot in &slots {
            // First-write-wins: requests answered before the panic keep
            // their responses; only the rest see the panic error.
            if slot.deliver(Err(ServeError::WorkerPanic(why.clone()))) {
                shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Serves `entries` as one bucket: execute (retrying transient failures),
/// degrade to two half-sized buckets if the plan cannot be built, and
/// deliver every response.
fn serve_entries(shared: &Shared, model: &str, entries: Vec<Pending>) {
    let bucket = bucket_for(entries.len());
    let config = &shared.config;
    // Plan failures are not retried — a deterministic build fails the
    // same way every time; they degrade below.
    let result = retry(config.max_retries, config.retry_backoff, &shared.metrics, |_| {
        execute_entries(shared, model, bucket, &entries)
    });
    match result {
        Ok((plan, logits)) => {
            for (row, pending) in entries.iter().enumerate() {
                let response = plan.response(&logits, row);
                let waited_ms = pending.enqueued.elapsed().as_secs_f64() * 1e3;
                // Count before delivering: a waiter that wakes on this
                // response must already see it in the stats ledger.
                shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
                shared.metrics.record_latency(waited_ms);
                let delivered = pending.slot.deliver(Ok(response));
                debug_assert!(delivered, "double delivery for a batched request");
            }
        }
        Err(ServeError::Plan(_)) if entries.len() > 1 => {
            // Graceful degradation: the bucket's plan can't be built, so
            // split the batch and serve each half under a smaller bucket
            // (whose plan builds independently). Recursion bottoms out at
            // single-request batches, which deliver the error typed.
            shared.metrics.degraded.fetch_add(1, Ordering::Relaxed);
            let mut front = entries;
            let back = front.split_off(front.len() / 2);
            serve_entries(shared, model, front);
            serve_entries(shared, model, back);
        }
        Err(err) => {
            for pending in &entries {
                shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
                let delivered = pending.slot.deliver(Err(err.clone()));
                debug_assert!(delivered, "double delivery for a failed request");
            }
        }
    }
}

/// One execution attempt: resolve the plan (through the cache), pad the
/// `[bucket, seq]` id tensor, run it. Fault-injection sites live here —
/// each fires at most once per attempt, so retries redraw their fate.
fn execute_entries(
    shared: &Shared,
    model: &str,
    bucket: usize,
    entries: &[Pending],
) -> Result<(Arc<Plan>, Tensor)> {
    if let Some(pause) = shared.faults.worker_delay() {
        std::thread::sleep(pause);
    }
    if shared.faults.worker_panic() {
        INJECTED_PANIC.with(|f| f.set(true));
        panic!("injected worker panic");
    }
    let entry = shared.models.get(model)?;
    let key = PlanKey {
        model: model.into(),
        bucket,
        seq: entry.cfg.seq,
        cluster: shared.config.cluster,
        gpus: entry.cfg.gpus,
    };
    let plan = shared.cache.get_or_insert_with(&key, || {
        // Plan faults fire inside the build closure: cache hits are
        // immune, exactly like a real optimizer failure would be.
        if shared.faults.plan_fault() {
            return Err(ServeError::Plan("injected plan-build fault".into()));
        }
        Plan::build_with_packs(
            &entry.lancet,
            &entry.cfg,
            bucket,
            &entry.canonical,
            Some(&entry.packs),
        )
    })?;

    let seq = entry.cfg.seq;
    // Pad with token id 0 — rows are independent under drop-free
    // routing, so padding never leaks into a real request's response.
    let mut data = vec![0.0f32; bucket * seq];
    for (row, pending) in entries.iter().enumerate() {
        data[row * seq..(row + 1) * seq].copy_from_slice(&pending.ids);
    }
    let ids = Tensor::from_vec(vec![bucket, seq], data)
        .map_err(|e| ServeError::BadRequest(e.to_string()))?;
    if shared.faults.exec_fault() {
        return Err(ServeError::Exec("injected transient execution fault".into()));
    }
    let logits = plan.execute(&ids)?;
    Ok((plan, logits))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_expert_is_pinned() {
        // Recorded before the mixer moved to `lancet_tensor::det`.
        let solo: Vec<usize> = (0..12).map(|id| hot_expert(&[id as f32], 97)).collect();
        assert_eq!(solo, [49, 18, 45, 57, 68, 50, 26, 33, 77, 21, 48, 27]);
        assert_eq!(hot_expert(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0], 5), 3);
    }

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_for(0), 1);
        assert_eq!(bucket_for(1), 1);
        assert_eq!(bucket_for(3), 4);
        assert_eq!(bucket_for(8), 8);
        assert_eq!(bucket_for(9), 16);
    }

    #[test]
    fn warm_buckets_share_the_models_weights_and_panels() {
        let runtime =
            ServeRuntime::start(ServeConfig { exec_workers: 1, max_batch: 4, ..ServeConfig::default() });
        let cfg = GptMoeConfig::tiny(1, lancet_ir::GateKind::Switch);
        runtime.register_model(cfg.clone()).unwrap();
        runtime.warm_model(&cfg.name).unwrap();
        let entry = runtime.shared.models.get(&cfg.name).unwrap();
        let (canonical, packs) = (&entry.canonical[0], &entry.packs[0]);
        assert!(!packs.is_empty(), "registration packs the model's panels");
        let cache = runtime.plan_cache();
        let plans: Vec<Arc<Plan>> = cache.keys().iter().map(|k| cache.get(k).unwrap()).collect();
        assert_eq!(plans.len(), 3, "buckets 1, 2 and 4");
        for plan in &plans {
            assert_eq!((plan.prepack.tensors, plan.prepack.bytes), (0, 0), "bucket {}", plan.bucket());
            assert_eq!(plan.prepack.reused, packs.len(), "bucket {}", plan.bucket());
        }
        for plan in &plans[..2] {
            let graph = plan.graph();
            for id in graph.weights() {
                let name = &graph.tensor(id).name;
                let value = plan.weights().get(0, id).unwrap();
                assert!(canonical[name].is_shared(), "{name}");
                assert_eq!(value.data().as_ptr(), canonical[name].data().as_ptr(), "{name} was copied");
                let bound = plan.weights().packs().find(|&(_, t, _)| t == id).map(|(_, _, p)| p);
                match (packs.get(name), bound) {
                    (Some(pack), Some(bound)) => assert!(Arc::ptr_eq(pack, bound), "{name} was repacked"),
                    (None, None) => {}
                    (pack, bound) => panic!("{name}: pack set {} but plan {}", pack.is_some(), bound.is_some()),
                }
            }
        }
        let set_bytes: u64 = packs.values().map(|p| p.bytes()).sum();
        assert_eq!(runtime.stats().cache.packed_bytes, set_bytes, "one model's panels, counted once");
        runtime.shutdown();
    }
}
