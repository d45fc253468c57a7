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
//! Both queues are bounded, so overload surfaces as a typed
//! [`ServeError::Overloaded`] at the door instead of unbounded memory
//! growth, and a slow executor backpressures the batcher rather than
//! letting batches pile up. Requests that out-wait their latency budget
//! are shed with [`ServeError::DeadlineExceeded`] before execution —
//! running them would spend executor time on an answer that is already
//! useless.
//!
//! # Transparent batching
//!
//! Registration normalizes each model's capacity factor to its expert
//! count, which makes routing *drop-free*: every expert can absorb every
//! token, so no token's output depends on what else shares its
//! micro-batch. Combined with the executor's fixed per-element reduction
//! order, a batched response is bit-identical to what solo (batch = 1)
//! serving would have produced — micro-batching is purely a throughput
//! optimization, invisible in the output bits (covered by the
//! `batched_responses_bit_identical_to_solo` integration test).

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lancet_core::{Lancet, LancetOptions};
use lancet_cost::{optimize_placement, ClusterKind, ClusterSpec, ExpertTraffic, PlacementOptions, PlacementPlan};
use lancet_models::GptMoeConfig;
use lancet_tensor::{det, pool, Tensor};

use crate::cache::PlanCache;
use crate::fault::{FaultInjector, FaultSpec};
use crate::plan::{canonical_weights, CanonicalWeights, PackSet, Plan, PlanKey};
use crate::stats::{Metrics, ServeStats};
use crate::{Result, ServeError};

/// Fallback admission-queue depth when neither the config nor
/// `LANCET_SERVE_QUEUE_DEPTH` specifies one.
const DEFAULT_QUEUE_DEPTH: usize = 256;

/// The admission-queue bound of the serve and decode runtimes:
/// `configured` when nonzero, else `LANCET_SERVE_QUEUE_DEPTH` (read per
/// call; tests mutate it), else 256.
pub fn resolve_queue_depth(configured: usize) -> usize {
    if configured > 0 {
        configured
    } else {
        parse_queue_depth(std::env::var("LANCET_SERVE_QUEUE_DEPTH").ok().as_deref())
    }
}

/// A `LANCET_SERVE_QUEUE_DEPTH` value as a depth. Unset, empty,
/// unparsable, or `0` all mean the default; surrounding whitespace is
/// ignored.
fn parse_queue_depth(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_QUEUE_DEPTH)
}

/// Serving-runtime knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Device generation the plan optimizer's cost models target.
    pub cluster: ClusterKind,
    /// Admission-queue bound; requests beyond it are rejected with
    /// [`ServeError::Overloaded`]. `0` reads `LANCET_SERVE_QUEUE_DEPTH`,
    /// falling back to 256.
    pub queue_depth: usize,
    /// Most requests per micro-batch (buckets are powers of two up to
    /// this, rounded up).
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
    /// Plan-cache capacity (plans, not bytes).
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
    /// default — injects nothing and costs nothing on the hot path.
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
    /// Minimum wall-clock service time per executed batch: when a batch
    /// finishes faster, the worker sleeps out the remainder. Zero (the
    /// default) disables the floor. This emulates a fixed-latency device
    /// for fleet-scaling experiments on small hosts — N replicas sleeping
    /// concurrently scale near-linearly the way N accelerators would,
    /// where N CPU-bound replicas on one core would not.
    pub service_floor: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cluster: ClusterKind::A100,
            queue_depth: 0,
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
            service_floor: Duration::ZERO,
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
    /// Prepacked GEMM panels carried in from a model store; plan builds
    /// adopt them instead of re-packing (`None` for generated weights).
    packs: Option<Arc<PackSet>>,
}

/// A request waiting in a queue.
struct Pending {
    model: String,
    ids: Vec<f32>,
    enqueued: Instant,
    slot: Arc<ResponseSlot>,
}

/// A micro-batch handed from the batcher to an exec worker. The bucket
/// is derived where it's used (`serve_entries`), since timeout filtering
/// and degradation can shrink the entry set after extraction.
struct Batch {
    model: String,
    entries: Vec<Pending>,
    /// Worker index holding the batch's hot expert (affinity dispatch);
    /// `None` when affinity is off — any worker takes it, uncounted.
    preferred: Option<usize>,
}

/// The write-once response cell behind a [`Ticket`].
#[derive(Debug)]
struct ResponseSlot {
    state: Mutex<Option<Result<Tensor>>>,
    ready: Condvar,
}

impl ResponseSlot {
    fn new() -> Self {
        ResponseSlot { state: Mutex::new(None), ready: Condvar::new() }
    }

    /// First delivery wins; returns whether this call was it.
    fn deliver(&self, result: Result<Tensor>) -> bool {
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
        let mut state = self.slot.state.lock().expect("slot lock");
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            state = self.slot.ready.wait(state).expect("slot lock");
        }
    }
}

/// State shared by submitters, the batcher, and the exec workers.
struct Shared {
    config: ServeConfig,
    queue_depth: usize,
    exec_depth: usize,
    exec_workers: usize,
    models: RwLock<HashMap<String, Arc<ModelEntry>>>,
    cache: PlanCache,
    metrics: Metrics,
    admission: Mutex<VecDeque<Pending>>,
    admitted: Condvar,
    exec: Mutex<VecDeque<Batch>>,
    exec_not_empty: Condvar,
    exec_not_full: Condvar,
    shutting_down: AtomicBool,
    batcher_done: AtomicBool,
    /// Abrupt-stop flag ([`ServeRuntime::crash`]): queued work is drained
    /// with [`ServeError::Crashed`] instead of being executed.
    crashed: AtomicBool,
    injector: Option<FaultInjector>,
}

impl Shared {
    /// `Ok` while the runtime accepts requests. Authoritative only under
    /// the admission lock, where `crash` and `shutdown` set the flags.
    fn admitting(&self) -> Result<()> {
        if self.crashed.load(Ordering::Acquire) {
            Err(ServeError::Crashed)
        } else if self.shutting_down.load(Ordering::Acquire) {
            Err(ServeError::ShuttingDown)
        } else {
            Ok(())
        }
    }
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
        let queue_depth = resolve_queue_depth(config.queue_depth);
        let exec_workers = pool::resolve_workers(config.exec_workers);
        let injector = config.fault.clone().map(FaultInjector::new);
        if injector.is_some() {
            silence_injected_panics();
        }
        let shared = Arc::new(Shared {
            queue_depth,
            // Enough slack that workers rarely idle, small enough that a
            // stalled executor backpressures the batcher quickly.
            exec_depth: exec_workers * 2,
            exec_workers,
            cache: PlanCache::new(config.plan_capacity),
            metrics: Metrics::new(),
            models: RwLock::new(HashMap::new()),
            admission: Mutex::new(VecDeque::new()),
            admitted: Condvar::new(),
            exec: Mutex::new(VecDeque::new()),
            exec_not_empty: Condvar::new(),
            exec_not_full: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            batcher_done: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            injector,
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

    /// Registers `cfg` under its `name`, building the canonical weights
    /// and the model's plan optimizer. The capacity factor is normalized
    /// to the expert count so routing is drop-free — the transparent-
    /// batching precondition (see the module docs).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] if the name is already registered;
    /// [`ServeError::Plan`] if the model graph cannot be built.
    pub fn register_model(&self, cfg: GptMoeConfig) -> Result<()> {
        let cfg = cfg.clone().with_capacity_factor(cfg.experts() as f64);
        let canonical = canonical_weights(&cfg, self.shared.config.seed)?;
        self.register_entry(cfg, canonical, None)
    }

    /// Registers `cfg` with caller-supplied weights — the model-store
    /// load path, where the canonical weights (and, optionally, the
    /// prepacked GEMM panels) come from a mapped store file instead of
    /// seeded generation. When `packs` is given, plan builds adopt the
    /// panels instead of re-packing, so a store-loaded replica's first
    /// plan build does no packing work at all.
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
    /// graph cannot be built.
    pub fn register_model_with_weights(
        &self,
        cfg: GptMoeConfig,
        canonical: CanonicalWeights,
        packs: Option<PackSet>,
    ) -> Result<()> {
        let cfg = cfg.clone().with_capacity_factor(cfg.experts() as f64);
        if canonical.len() != cfg.gpus {
            return Err(ServeError::BadRequest(format!(
                "weights cover {} devices, model `{}` needs {}",
                canonical.len(),
                cfg.name,
                cfg.gpus
            )));
        }
        if let Some(p) = &packs {
            if p.len() != cfg.gpus {
                return Err(ServeError::BadRequest(format!(
                    "packs cover {} devices, model `{}` needs {}",
                    p.len(),
                    cfg.name,
                    cfg.gpus
                )));
            }
        }
        self.register_entry(cfg, canonical, packs.map(Arc::new))
    }

    fn register_entry(
        &self,
        cfg: GptMoeConfig,
        canonical: CanonicalWeights,
        packs: Option<Arc<PackSet>>,
    ) -> Result<()> {
        let lancet = Lancet::new(
            ClusterSpec::of(self.shared.config.cluster, 1),
            cfg.gpus,
            LancetOptions {
                disable_partition: !self.shared.config.partition,
                ..LancetOptions::default()
            },
        );
        // Affinity dispatch: optimize an expert→worker plan against a
        // seeded synthetic routing histogram (Zipf skew + inter-layer
        // affinity). Workers play the role of devices, one per "node",
        // so the search spreads hot experts across the pool and the
        // dispatcher can aim each request at the worker holding its hot
        // expert. Deterministic per (model shape, runtime seed).
        let placement = if self.shared.config.affinity {
            let layers = cfg.moe_layers().len().max(1);
            let traffic = ExpertTraffic::synthetic(
                layers,
                cfg.experts(),
                4096,
                1.2,
                0.8,
                (cfg.hidden * 4) as u64,
                self.shared.config.seed,
            );
            let (plan, _) = optimize_placement(
                &traffic,
                self.shared.exec_workers,
                1,
                &PlacementOptions::default(),
            );
            Some(plan)
        } else {
            None
        };
        let mut models = self.shared.models.write().expect("models lock");
        if models.contains_key(&cfg.name) {
            return Err(ServeError::BadRequest(format!(
                "model `{}` is already registered",
                cfg.name
            )));
        }
        models.insert(
            cfg.name.clone(),
            Arc::new(ModelEntry { cfg, lancet, canonical, placement, packs }),
        );
        Ok(())
    }

    /// Submits one request — `ids` is a single sequence of token ids for
    /// `model` — and returns a [`Ticket`] for its response.
    ///
    /// # Errors
    ///
    /// Rejects immediately with [`ServeError::UnknownModel`] /
    /// [`ServeError::BadRequest`] on a malformed request,
    /// [`ServeError::Overloaded`] when the admission queue is at its
    /// bound, or [`ServeError::ShuttingDown`].
    pub fn submit(&self, model: &str, ids: Vec<f32>) -> Result<Ticket> {
        let shared = &self.shared;
        shared.admitting()?;
        let entry = {
            let models = shared.models.read().expect("models lock");
            models.get(model).cloned().ok_or_else(|| ServeError::UnknownModel(model.into()))?
        };
        if ids.len() != entry.cfg.seq {
            return Err(ServeError::BadRequest(format!(
                "{} token ids, model `{model}` serves sequences of {}",
                ids.len(),
                entry.cfg.seq
            )));
        }
        let vocab = entry.cfg.vocab as f32;
        if let Some(bad) = ids.iter().find(|&&t| t < 0.0 || t >= vocab || t.fract() != 0.0) {
            return Err(ServeError::BadRequest(format!(
                "token id {bad} outside vocabulary of {}",
                entry.cfg.vocab
            )));
        }

        let slot = Arc::new(ResponseSlot::new());
        {
            let mut queue = shared.admission.lock().expect("admission lock");
            // `crash` and `shutdown` set their flags under this lock, so a
            // request pushed here is one their drains will find; the check
            // above only fails fast.
            shared.admitting()?;
            if queue.len() >= shared.queue_depth {
                shared.metrics.rejected_overload.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded { depth: shared.queue_depth });
            }
            queue.push_back(Pending {
                model: model.into(),
                ids,
                enqueued: Instant::now(),
                slot: Arc::clone(&slot),
            });
            // Counted before the lock drops, so a crash drain can never
            // answer a request that is not yet counted as submitted.
            shared.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        }
        shared.admitted.notify_all();
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
        let depth = self.shared.admission.lock().expect("admission lock").len();
        self.shared.metrics.snapshot(depth, self.shared.cache.stats())
    }

    /// The plan cache (for inspection; plans are managed internally).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.shared.cache
    }

    /// The resolved admission-queue bound: the configured `queue_depth`,
    /// or — when that was `0` — `LANCET_SERVE_QUEUE_DEPTH`, falling back
    /// to the built-in default of 256.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue_depth
    }

    /// Requests waiting in the admission queue right now. Cheap (one
    /// lock, no snapshot) — the fleet front-end polls this per submit
    /// for its work-stealing decision.
    pub fn queue_len(&self) -> usize {
        self.shared.admission.lock().expect("admission lock").len()
    }

    /// Pre-builds `model`'s execution plan for every batch bucket
    /// (1, 2, 4, …, up to `max_batch` rounded to a power of two) into the
    /// plan cache, so the first real requests measure steady-state
    /// service instead of plan compilation. Management-plane operation:
    /// it bypasses admission, batching, and fault injection, and is
    /// idempotent — buckets already cached are left untouched.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] if `model` was never registered;
    /// [`ServeError::Plan`] if a plan cannot be built.
    pub fn warm_model(&self, model: &str) -> Result<()> {
        let entry = {
            let models = self.shared.models.read().expect("models lock");
            models.get(model).cloned().ok_or_else(|| ServeError::UnknownModel(model.into()))?
        };
        let top = bucket_for(self.shared.config.max_batch);
        let mut bucket = 1usize;
        loop {
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
                    entry.packs.as_deref(),
                )
            })?;
            if bucket >= top {
                break;
            }
            bucket *= 2;
        }
        Ok(())
    }

    /// Stops admissions, drains both queues (every in-flight request
    /// still gets its response), and joins all runtime threads.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&self) {
        let threads = self.threads.lock().expect("threads lock").take();
        let Some(threads) = threads else { return };
        let shared = &self.shared;
        set_flags(&[&shared.shutting_down], &shared.admission, &[&shared.admitted]);
        threads.batcher.join().expect("batcher panicked");
        set_flags(&[&shared.batcher_done], &shared.exec, &[&shared.exec_not_empty]);
        for worker in threads.workers {
            worker.join().expect("exec worker panicked");
        }
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
        let threads = self.threads.lock().expect("threads lock").take();
        let shared = &self.shared;
        // The batcher checks `crashed` under the admission lock; the
        // workers and a batcher blocked in `push_batch` check it under the
        // exec lock. Passing through both locks means none of them can
        // miss it between its check and its wait.
        let (crashed, draining) = (&shared.crashed, &shared.shutting_down);
        set_flags(&[crashed, draining], &shared.admission, &[&shared.admitted]);
        set_flags(&[crashed], &shared.exec, &[&shared.exec_not_full, &shared.exec_not_empty]);
        if let Some(threads) = threads {
            threads.batcher.join().expect("batcher panicked");
            set_flags(&[&shared.batcher_done], &shared.exec, &[&shared.exec_not_empty]);
            for worker in threads.workers {
                worker.join().expect("exec worker panicked");
            }
        }
        // All threads are gone; whatever is still queued was admitted but
        // never started. Drain it with the typed crash error.
        let queued: Vec<Pending> = shared
            .admission
            .lock()
            .expect("admission lock")
            .drain(..)
            .chain(
                shared
                    .exec
                    .lock()
                    .expect("exec lock")
                    .drain(..)
                    .flat_map(|batch| batch.entries),
            )
            .collect();
        deliver_crashed(shared, queued);
    }
}

/// Sets `flags` while holding `lock` — the mutex their waiters check them
/// under — then wakes every waiter on `wake`. A waiter holds `lock` from
/// its check to its `wait`, so it either sees the flags set or is already
/// waiting when the notify comes: setting them outside the lock could
/// land between its check and its `wait` and lose the wakeup for good.
fn set_flags<T>(flags: &[&AtomicBool], lock: &Mutex<T>, wake: &[&Condvar]) {
    {
        let _guard = lock.lock().expect("runtime lock");
        for flag in flags {
            flag.store(true, Ordering::Release);
        }
    }
    for cv in wake {
        cv.notify_all();
    }
}

/// Answers `entries` with [`ServeError::Crashed`], counting each.
fn deliver_crashed(shared: &Shared, entries: Vec<Pending>) {
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

/// The batcher: groups admitted requests into per-model buckets, shedding
/// the ones whose latency budget expired, and feeds the exec queue.
/// Exits once shutdown is flagged *and* the admission queue is drained.
fn batcher_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut queue = shared.admission.lock().expect("admission lock");
            loop {
                // A crash is abrupt: leave everything queued for the
                // crash drain instead of batching it.
                if shared.crashed.load(Ordering::Acquire) {
                    return;
                }
                shed_expired(shared, &mut queue);
                let Some(front) = queue.front() else {
                    if shared.shutting_down.load(Ordering::Acquire) {
                        return;
                    }
                    queue = shared.admitted.wait(queue).expect("admission lock");
                    continue;
                };
                let model = front.model.clone();
                let waited = front.enqueued.elapsed();
                let matching = queue.iter().filter(|p| p.model == model).count();
                let draining = shared.shutting_down.load(Ordering::Acquire);
                if matching >= shared.config.max_batch
                    || waited >= shared.config.batch_window
                    || draining
                {
                    break extract(&mut queue, &model, shared.config.max_batch);
                }
                let (q, _) = shared
                    .admitted
                    .wait_timeout(queue, shared.config.batch_window - waited)
                    .expect("admission lock");
                queue = q;
            }
        };
        // Injected queue stall: the batcher freezes with the batch in
        // hand (admission lock released — submitters keep queueing).
        if let Some(inj) = &shared.injector {
            if let Some(delay) = inj.batcher_stall() {
                shared.metrics.injected_faults.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(delay);
            }
        }
        let mut batch = batch;
        batch.preferred = preferred_worker(shared, &batch);
        push_batch(shared, batch);
    }
}

/// Sheds queued requests that have out-waited the latency budget.
fn shed_expired(shared: &Shared, queue: &mut VecDeque<Pending>) {
    let budget = shared.config.latency_budget;
    if budget.is_zero() {
        return;
    }
    let mut kept = VecDeque::with_capacity(queue.len());
    for pending in queue.drain(..) {
        let waited = pending.enqueued.elapsed();
        if waited > budget {
            shared.metrics.shed_deadline.fetch_add(1, Ordering::Relaxed);
            let delivered = pending.slot.deliver(Err(ServeError::DeadlineExceeded {
                waited_ms: waited.as_secs_f64() * 1e3,
            }));
            debug_assert!(delivered, "a queued request cannot already have a response");
        } else {
            kept.push_back(pending);
        }
    }
    *queue = kept;
}

/// Removes up to `max` requests for `model` from the queue (preserving
/// the relative order of everything else) and wraps them in a batch.
fn extract(queue: &mut VecDeque<Pending>, model: &str, max: usize) -> Batch {
    let mut entries = Vec::new();
    let mut rest = VecDeque::with_capacity(queue.len());
    for pending in queue.drain(..) {
        if pending.model == model && entries.len() < max {
            entries.push(pending);
        } else {
            rest.push_back(pending);
        }
    }
    *queue = rest;
    Batch { model: model.into(), entries, preferred: None }
}

/// Blocks until the (bounded) exec queue has room, then enqueues. If the
/// runtime crashes while the batcher is blocked here, the in-hand batch
/// is answered with [`ServeError::Crashed`] (it can no longer execute —
/// the workers are exiting).
fn push_batch(shared: &Shared, batch: Batch) {
    let mut exec = shared.exec.lock().expect("exec lock");
    while exec.len() >= shared.exec_depth {
        if shared.crashed.load(Ordering::Acquire) {
            drop(exec);
            deliver_crashed(shared, batch.entries);
            return;
        }
        exec = shared.exec_not_full.wait(exec).expect("exec lock");
    }
    exec.push_back(batch);
    drop(exec);
    shared.exec_not_empty.notify_one();
}

/// An exec worker: pops batches, resolves their plan through the cache,
/// executes, and delivers per-request responses. Exits once the batcher
/// is done and the exec queue is empty.
fn worker_loop(shared: &Shared, index: usize) {
    loop {
        let batch = {
            let mut exec = shared.exec.lock().expect("exec lock");
            loop {
                // A crash is abrupt: stop picking up queued batches (the
                // crash drain answers them). The batch this worker may
                // already be running is not in any queue and completes.
                if shared.crashed.load(Ordering::Acquire) {
                    return;
                }
                // Affinity: take the first batch preferring this worker;
                // otherwise steal the front one (preference is soft — a
                // free worker never idles while work is queued).
                let pick = exec
                    .iter()
                    .position(|b| b.preferred == Some(index))
                    .or(if exec.is_empty() { None } else { Some(0) });
                if let Some(at) = pick {
                    let batch = exec.remove(at).expect("picked position exists");
                    shared.exec_not_full.notify_one();
                    break batch;
                }
                if shared.batcher_done.load(Ordering::Acquire) {
                    return;
                }
                exec = shared.exec_not_empty.wait(exec).expect("exec lock");
            }
        };
        if let Some(preferred) = batch.preferred {
            let requests = batch.entries.len() as u64;
            if preferred == index {
                shared.metrics.placement_hits.fetch_add(requests, Ordering::Relaxed);
            } else {
                shared.metrics.placement_misses.fetch_add(requests, Ordering::Relaxed);
            }
        }
        run_batch(shared, batch);
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
    let entry = {
        let models = shared.models.read().expect("models lock");
        models.get(&batch.model).cloned()?
    };
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
    let mut best = 0;
    for (i, &c) in counts.iter().enumerate() {
        if c > counts[best] {
            best = i;
        }
    }
    best
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
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".into()
    }
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
    let mut live = Vec::with_capacity(entries.len());
    for pending in entries {
        let waited = pending.enqueued.elapsed();
        if !timeout.is_zero() && waited > timeout {
            shared.metrics.timed_out.fetch_add(1, Ordering::Relaxed);
            let delivered = pending
                .slot
                .deliver(Err(ServeError::TimedOut { waited_ms: waited.as_secs_f64() * 1e3 }));
            debug_assert!(delivered, "a queued request cannot already have a response");
        } else {
            live.push(pending);
        }
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

/// Serves `entries` as one bucket: execute (with bounded retry on
/// transient failures), degrade to two half-sized buckets if the plan
/// cannot be built, and deliver every response.
fn serve_entries(shared: &Shared, model: &str, entries: Vec<Pending>) {
    let bucket = bucket_for(entries.len());
    let mut attempt = 0u32;
    let result = loop {
        match execute_entries(shared, model, bucket, &entries) {
            // Transient execution failure: bounded retry with doubling
            // backoff. Plan failures are not retried — a deterministic
            // build fails the same way every time; they degrade below.
            Err(ServeError::Exec(_)) if attempt < shared.config.max_retries => {
                shared.metrics.retried.fetch_add(1, Ordering::Relaxed);
                let backoff = shared.config.retry_backoff * 2u32.saturating_pow(attempt);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                attempt += 1;
            }
            other => break other,
        }
    };
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
    if let Some(inj) = &shared.injector {
        if let Some(delay) = inj.worker_delay() {
            shared.metrics.injected_faults.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(delay);
        }
        if inj.worker_panic() {
            shared.metrics.injected_faults.fetch_add(1, Ordering::Relaxed);
            INJECTED_PANIC.with(|f| f.set(true));
            panic!("injected worker panic");
        }
    }
    let entry = {
        let models = shared.models.read().expect("models lock");
        models.get(model).cloned().ok_or_else(|| ServeError::UnknownModel(model.into()))?
    };
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
        if let Some(inj) = &shared.injector {
            if inj.plan_fault() {
                shared.metrics.injected_faults.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Plan("injected plan-build fault".into()));
            }
        }
        Plan::build_with_packs(
            &entry.lancet,
            &entry.cfg,
            bucket,
            &entry.canonical,
            entry.packs.as_deref(),
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
    if let Some(inj) = &shared.injector {
        if inj.exec_fault() {
            shared.metrics.injected_faults.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Exec("injected transient execution fault".into()));
        }
    }
    let exec_started = Instant::now();
    let logits = plan.execute(&ids)?;
    // Device emulation: pad the batch out to the configured service
    // floor, so fleet-scaling runs on small hosts see accelerator-like
    // fixed service times instead of CPU contention.
    let floor = shared.config.service_floor;
    if !floor.is_zero() {
        let elapsed = exec_started.elapsed();
        if elapsed < floor {
            std::thread::sleep(floor - elapsed);
        }
    }
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
    fn queue_depth_values_parse_or_fall_back() {
        // The pure parser; `tests/env_and_errors.rs` drives the env var
        // itself through a runtime.
        let cases = [
            (None, 256),
            (Some(""), 256),
            (Some(" 12 "), 12),
            (Some("0"), 256),
            (Some("-3"), 256),
            (Some("abc"), 256),
            (Some("18446744073709551616"), 256), // overflows usize
        ];
        for (value, want) in cases {
            assert_eq!(parse_queue_depth(value), want, "{value:?}");
        }
    }
}
