//! The admission core both serving runtimes drive: a bounded FIFO and its
//! lifecycle phase behind one lock, the model registry, and the retry rule.
//!
//! Every lifecycle change is a transition on the locked [`State`], so a
//! consumer that checks the phase and then waits holds the same lock the
//! whole time: no flag can change between its check and its wait, and no
//! wakeup can be lost. Consumers decide what to do next with a function
//! over the locked state and a supplied `now` (a [`Step`]); the runtime
//! threads are thin loops around [`Admission::next`], and a
//! single-threaded test can call the same decisions directly.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

use lancet_models::GptMoeConfig;

use crate::stats::Metrics;
use crate::{Result, ServeError};

/// Where a queue is in its life. Phases only move forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Accepting work.
    Open,
    /// Refusing new work; consumers finish what is queued, then exit.
    Draining,
    /// Refusing new work; consumers exit at once and leave what is queued
    /// to a drain.
    Crashed,
}

/// The state one admission lock guards.
#[derive(Debug)]
pub struct State<P> {
    /// Queued work, oldest first.
    pub queue: VecDeque<P>,
    /// Private: only [`close`](Self::close) moves it, and only forward.
    phase: Phase,
}

impl<P> State<P> {
    /// The lifecycle phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Offers `item`, checking the phase first and then the depth. A
    /// refused item is handed back with [`ServeError::ShuttingDown`],
    /// [`ServeError::Crashed`] or [`ServeError::Overloaded`].
    pub fn push(&mut self, item: P, depth: usize) -> std::result::Result<(), (P, ServeError)> {
        match self.phase {
            Phase::Draining => Err((item, ServeError::ShuttingDown)),
            Phase::Crashed => Err((item, ServeError::Crashed)),
            Phase::Open if self.queue.len() >= depth => Err((item, ServeError::Overloaded { depth })),
            Phase::Open => {
                self.queue.push_back(item);
                Ok(())
            }
        }
    }

    /// Advances the phase to `phase` (never backwards). Returns whether it
    /// moved, which is when parked consumers must be woken to see it.
    pub fn close(&mut self, phase: Phase) -> bool {
        let moved = phase > self.phase;
        self.phase = self.phase.max(phase);
        moved
    }
}

/// What a consumer does next, decided over the locked state.
#[derive(Debug)]
pub enum Step<T> {
    /// Proceed with `T`. Taking may have freed room, so producers wake.
    Take(T),
    /// Park until woken, or at most this long.
    Wait(Option<Duration>),
    /// Stop consuming.
    Exit,
}

/// A bounded FIFO and its lifecycle phase behind one `Mutex` with one
/// `Condvar`, shared by producers and consumers.
#[derive(Debug)]
pub struct Admission<P> {
    state: Mutex<State<P>>,
    changed: Condvar,
    depth: usize,
}

impl<P> Admission<P> {
    /// An open, empty queue holding at most `depth` items.
    pub fn new(depth: usize) -> Self {
        let state = State { queue: VecDeque::new(), phase: Phase::Open };
        Admission { state: Mutex::new(state), changed: Condvar::new(), depth }
    }

    /// The queue bound.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Locks the state, for a decision made outside [`next`](Self::next).
    pub fn lock(&self) -> MutexGuard<'_, State<P>> {
        self.state.lock().expect("admission lock")
    }

    /// Items queued right now.
    pub fn queued(&self) -> usize {
        self.lock().queue.len()
    }

    /// Admits one request in one locked transition: [`State::push`], then
    /// the `submitted` or `rejected_overload` count. Counting under the
    /// lock means a crash drain never answers an uncounted request.
    ///
    /// # Errors
    ///
    /// The refusal [`State::push`] hands back.
    pub fn submit(&self, item: P, metrics: &Metrics) -> Result<()> {
        let mut state = self.lock();
        match state.push(item, self.depth) {
            Ok(()) => metrics.submitted.fetch_add(1, Ordering::Relaxed),
            Err((_, err @ ServeError::Overloaded { .. })) => {
                metrics.rejected_overload.fetch_add(1, Ordering::Relaxed);
                return Err(err);
            }
            Err((_, err)) => return Err(err),
        };
        drop(state);
        self.changed.notify_all();
        Ok(())
    }

    /// Blocks until there is room, then queues `item`; hands it back if
    /// the queue closes first.
    pub fn push_wait(&self, mut item: P) -> std::result::Result<(), P> {
        let mut state = self.lock();
        loop {
            match state.push(item, self.depth) {
                Ok(()) => break,
                Err((back, ServeError::Overloaded { .. })) => item = back,
                Err((back, _)) => return Err(back),
            }
            state = self.changed.wait(state).expect("admission lock");
        }
        drop(state);
        self.changed.notify_all();
        Ok(())
    }

    /// Advances the phase ([`State::close`]), waking every parked thread
    /// if it moved.
    pub fn close(&self, phase: Phase) {
        if self.lock().close(phase) {
            self.changed.notify_all();
        }
    }

    /// Removes and returns everything still queued.
    pub fn drain(&self) -> Vec<P> {
        self.lock().queue.drain(..).collect()
    }

    /// The consumer loop: `decide` over the locked state until it takes
    /// (`Some`) or exits (`None`), parking whenever it says to wait. The
    /// lock is held from each decision to its wait.
    pub fn next<T>(&self, mut decide: impl FnMut(&mut State<P>, Instant) -> Step<T>) -> Option<T> {
        let mut state = self.lock();
        loop {
            state = match decide(&mut state, Instant::now()) {
                Step::Take(taken) => {
                    drop(state);
                    self.changed.notify_all();
                    return Some(taken);
                }
                Step::Exit => return None,
                Step::Wait(None) => self.changed.wait(state).expect("admission lock"),
                Step::Wait(Some(limit)) => {
                    self.changed.wait_timeout(state, limit).expect("admission lock").0
                }
            };
        }
    }
}

/// Registered models by name.
#[derive(Debug)]
pub struct Registry<E> {
    entries: RwLock<HashMap<String, Arc<E>>>,
}

impl<E> Default for Registry<E> {
    fn default() -> Self {
        Registry { entries: RwLock::new(HashMap::new()) }
    }
}

impl<E> Registry<E> {
    /// Registers `entry` under `name`.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] if the name is taken: running work keeps
    /// the entry it was admitted with, so a silent replace would split it
    /// from new submissions.
    pub fn insert(&self, name: String, entry: E) -> Result<()> {
        let mut entries = self.entries.write().expect("registry lock");
        if entries.contains_key(&name) {
            return Err(ServeError::BadRequest(format!("model `{name}` is already registered")));
        }
        entries.insert(name, Arc::new(entry));
        Ok(())
    }

    /// The entry registered under `name`.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] if there is none.
    pub fn get(&self, name: &str) -> Result<Arc<E>> {
        let entries = self.entries.read().expect("registry lock");
        entries.get(name).cloned().ok_or_else(|| ServeError::UnknownModel(name.into()))
    }
}

/// `cfg` with its capacity factor normalized to its expert count, which
/// makes routing drop-free: every expert can absorb every token, so no
/// row's output depends on what shares its batch.
pub fn drop_free(cfg: GptMoeConfig) -> GptMoeConfig {
    let experts = cfg.experts() as f64;
    cfg.with_capacity_factor(experts)
}

/// The one retry rule: rerun `attempt` (given its attempt index) while it
/// fails with a transient [`ServeError::Exec`] and fewer than
/// `max_retries` retries were spent, sleeping `backoff · 2^attempt` before
/// each retry. Other errors are deterministic and return at once.
///
/// # Errors
///
/// The last attempt's error.
pub fn retry<T>(
    max_retries: u32,
    backoff: Duration,
    metrics: &Metrics,
    mut attempt: impl FnMut(u32) -> Result<T>,
) -> Result<T> {
    let mut n = 0;
    loop {
        match attempt(n) {
            Err(ServeError::Exec(_)) if n < max_retries => {
                metrics.retried.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff * 2u32.saturating_pow(n));
                n += 1;
            }
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    //! A seeded, single-threaded schedule explorer. It plays serve's
    //! submitters, batcher and exec workers as virtual threads against the
    //! real core: [`Admission::submit`], the `State` transitions, and the
    //! batcher's and workers' own decisions (`next_batch`, `next_exec`)
    //! under a virtual clock. A [`det::Lcg`] draws the interleaving —
    //! submits from several clients, batch takes and answers, a drain, a
    //! crash and its drain, and clock ticks — and every schedule checks:
    //!
    //! * every accepted request is answered exactly once;
    //! * nothing is accepted after close;
    //! * `Overloaded` comes back exactly when the queue is at its depth;
    //! * a transition that adds work or closes the queue wakes every
    //!   parked consumer (no consumer stays parked on a condition that no
    //!   longer holds).

    use super::*;
    use crate::runtime::{next_batch, next_exec, Batch, Pending, ResponseSlot};
    use crate::ServeConfig;
    use lancet_tensor::{det, Tensor};

    const DEPTH: usize = 4;
    const EXEC_DEPTH: usize = 2;
    const WORKERS: usize = 2;
    const CLIENTS: u64 = 3;
    const EVENTS: usize = 64;

    /// Where a virtual thread is.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Park {
        Runnable,
        /// Parked until woken or the virtual clock reaches this time.
        Until(Duration),
        /// Parked until woken.
        Untimed,
        Exited,
    }

    struct World {
        rng: det::Lcg,
        config: ServeConfig,
        metrics: Metrics,
        admission: Admission<Pending>,
        exec: Admission<Batch>,
        base: Instant,
        clock: Duration,
        batcher: Park,
        /// The batch the batcher holds while it waits for exec room.
        holding: Option<Batch>,
        workers: [Park; WORKERS],
        /// Batches taken by a worker and not yet answered.
        running: [Option<Batch>; WORKERS],
        accepted: Vec<Arc<ResponseSlot>>,
        overloads: u64,
        stopping: Option<Phase>,
    }

    impl World {
        fn new(seed: u64) -> Self {
            let mut rng = det::Lcg::new(seed);
            let config = ServeConfig {
                max_batch: 1 + rng.next_below(3) as usize,
                batch_window: Duration::from_millis(rng.next_below(3)),
                latency_budget: Duration::from_millis(rng.next_below(2) * 6),
                ..ServeConfig::default()
            };
            World {
                rng,
                config,
                metrics: Metrics::new(),
                admission: Admission::new(DEPTH),
                exec: Admission::new(EXEC_DEPTH),
                base: Instant::now(),
                clock: Duration::ZERO,
                batcher: Park::Runnable,
                holding: None,
                workers: [Park::Runnable; WORKERS],
                running: [None, None],
                accepted: Vec::new(),
                overloads: 0,
                stopping: None,
            }
        }

        fn now(&self) -> Instant {
            self.base + self.clock
        }

        fn answer(slot: &ResponseSlot, result: Result<Tensor>) {
            assert!(slot.deliver(result), "a request was answered twice");
        }

        /// Wakes every thread parked on the admission queue (the batcher,
        /// unless it waits for exec room) or on the exec queue.
        fn wake(&mut self, exec: bool) {
            let parked = |p: &mut Park| {
                if matches!(p, Park::Untimed | Park::Until(_)) {
                    *p = Park::Runnable;
                }
            };
            if exec == self.holding.is_some() {
                parked(&mut self.batcher);
            }
            if exec {
                self.workers.iter_mut().for_each(parked);
            }
        }

        fn submit(&mut self, client: u64) {
            let (queued, phase) = {
                let state = self.admission.lock();
                (state.queue.len(), state.phase())
            };
            let slot = Arc::new(ResponseSlot::default());
            let model = ["a", "b"][(client % 2) as usize].to_string();
            let pending =
                Pending { model, ids: Vec::new(), enqueued: self.now(), slot: Arc::clone(&slot) };
            match self.admission.submit(pending, &self.metrics) {
                Ok(()) => {
                    assert_eq!(phase, Phase::Open, "accepted after close");
                    assert!(queued < DEPTH, "accepted past the depth");
                    self.accepted.push(slot);
                    self.wake(false);
                }
                Err(ServeError::Overloaded { depth }) => {
                    assert_eq!((phase, queued, depth), (Phase::Open, DEPTH, DEPTH), "overload");
                    self.overloads += 1;
                }
                Err(ServeError::ShuttingDown) => assert_eq!(phase, Phase::Draining),
                Err(ServeError::Crashed) => assert_eq!(phase, Phase::Crashed),
                Err(other) => panic!("untyped refusal {other:?}"),
            }
        }

        /// Closes `queue` to `phase`, waking its consumers if it says to.
        fn close(&mut self, exec: bool, phase: Phase) {
            let moved =
                if exec { self.exec.lock().close(phase) } else { self.admission.lock().close(phase) };
            if moved {
                self.wake(exec);
            }
        }

        /// One turn of the batcher: offer the batch it holds, or decide.
        fn run_batcher(&mut self) {
            if let Some(batch) = self.holding.take() {
                let pushed = self.exec.lock().push(batch, EXEC_DEPTH);
                match pushed {
                    Ok(()) => {
                        self.wake(true);
                        self.batcher = Park::Runnable;
                    }
                    Err((batch, ServeError::Overloaded { .. })) => {
                        self.holding = Some(batch);
                        self.batcher = Park::Untimed;
                    }
                    // The runtime crashed while the batch waited for room.
                    Err((batch, _)) => {
                        batch.entries.iter().for_each(|p| Self::answer(&p.slot, Err(ServeError::Crashed)));
                    }
                }
                return;
            }
            let now = self.now();
            let step = next_batch(&mut self.admission.lock(), &self.config, &self.metrics, now);
            self.batcher = match step {
                Step::Take(batch) => {
                    assert!(!batch.entries.is_empty() && batch.entries.len() <= self.config.max_batch);
                    self.holding = Some(batch);
                    Park::Runnable
                }
                Step::Wait(None) => Park::Untimed,
                Step::Wait(Some(limit)) => Park::Until(self.clock + limit),
                Step::Exit => {
                    // `stop` joins the batcher, then drains the exec queue.
                    self.close(true, Phase::Draining);
                    Park::Exited
                }
            };
        }

        /// One turn of worker `w`: answer the batch it runs, or decide.
        fn run_worker(&mut self, w: usize) {
            if let Some(batch) = self.running[w].take() {
                let rows = batch.entries.len();
                for pending in &batch.entries {
                    Self::answer(&pending.slot, Ok(Tensor::zeros(vec![rows])));
                }
                return;
            }
            let step = next_exec(&mut self.exec.lock(), w);
            self.workers[w] = match step {
                Step::Take(batch) => {
                    self.running[w] = Some(batch);
                    // Taking frees room: the batcher wakes if it waits for it.
                    self.wake(true);
                    Park::Runnable
                }
                Step::Wait(None) => Park::Untimed,
                Step::Wait(Some(_)) => panic!("workers never wait timed"),
                Step::Exit => Park::Exited,
            };
        }

        fn tick(&mut self, by: Duration) {
            self.clock += by;
            let clock = self.clock;
            let due = |p: &mut Park| {
                if matches!(*p, Park::Until(at) if at <= clock) {
                    *p = Park::Runnable;
                }
            };
            due(&mut self.batcher);
            self.workers.iter_mut().for_each(due);
        }

        /// Threads that can take a turn: runnable ones, and workers
        /// holding a batch to answer.
        fn ready(&self) -> Vec<usize> {
            let mut ready = Vec::new();
            if self.batcher == Park::Runnable {
                ready.push(WORKERS);
            }
            for w in 0..WORKERS {
                if self.workers[w] == Park::Runnable || self.running[w].is_some() {
                    ready.push(w);
                }
            }
            ready
        }

        fn turn(&mut self, thread: usize) {
            if thread == WORKERS {
                self.run_batcher();
            } else {
                self.run_worker(thread);
            }
        }

        /// No thread is parked untimed on a condition that no longer holds.
        fn check_wakes(&self, at: &str) {
            let admission = self.admission.lock();
            let exec = self.exec.lock();
            let exec_blocked = exec.phase() == Phase::Open && exec.queue.len() >= EXEC_DEPTH;
            let exec_idle = exec.phase() == Phase::Open && exec.queue.is_empty();
            if self.batcher == Park::Untimed {
                let blocked = if self.holding.is_some() {
                    exec_blocked
                } else {
                    admission.phase() == Phase::Open && admission.queue.is_empty()
                };
                assert!(blocked, "{at}: the batcher was not woken");
            }
            for (w, park) in self.workers.iter().enumerate() {
                assert!(*park != Park::Untimed || exec_idle, "{at}: worker {w} was not woken");
            }
        }

        /// One random event.
        fn event(&mut self) {
            let ready = self.ready();
            match self.rng.next_below(10) {
                0..=2 => {
                    let client = self.rng.next_below(CLIENTS);
                    self.submit(client);
                }
                3..=6 if !ready.is_empty() => {
                    let pick = ready[self.rng.next_below(ready.len() as u64) as usize];
                    self.turn(pick);
                }
                7 => {
                    let by = self.rng.next_below(3);
                    self.tick(Duration::from_millis(by));
                }
                8 if self.stopping.is_none() && self.rng.next_below(8) == 0 => self.stop(Phase::Draining),
                9 if self.stopping.is_none() && self.rng.next_below(12) == 0 => self.stop(Phase::Crashed),
                _ => {}
            }
        }

        /// Begins `ServeRuntime::stop`: close the admission queue, and on a
        /// crash the exec queue too.
        fn stop(&mut self, phase: Phase) {
            self.stopping = Some(phase);
            self.close(false, phase);
            if phase == Phase::Crashed {
                self.close(true, phase);
            }
        }

        /// Stops the runtime (if no event did), runs every thread to its
        /// exit, and answers what is left queued, as `stop` does.
        fn finish(&mut self) {
            if self.stopping.is_none() {
                self.stop(Phase::Draining);
            }
            loop {
                self.check_wakes("finish");
                let ready = self.ready();
                if let Some(&thread) = ready.first() {
                    self.turn(thread);
                } else if let Some(at) = [self.batcher].iter().chain(&self.workers).find_map(|p| match p {
                    Park::Until(at) => Some(*at),
                    _ => None,
                }) {
                    self.tick(at.saturating_sub(self.clock));
                } else {
                    break;
                }
            }
            let parked = [self.batcher].iter().chain(&self.workers).all(|p| *p == Park::Exited);
            assert!(parked, "a thread never exited: {:?} {:?}", self.batcher, self.workers);
            let batched: Vec<Pending> = self.exec.drain().into_iter().flat_map(|b| b.entries).collect();
            for pending in self.admission.drain().into_iter().chain(batched) {
                assert_eq!(self.stopping, Some(Phase::Crashed), "a drain left work queued");
                Self::answer(&pending.slot, Err(ServeError::Crashed));
            }
        }
    }

    fn explore(seed: u64) {
        let mut world = World::new(seed);
        for i in 0..EVENTS {
            world.event();
            world.check_wakes(&format!("seed {seed:#x} event {i}"));
        }
        world.finish();
        for (i, slot) in world.accepted.iter().enumerate() {
            let answered = slot.state.lock().unwrap().is_some();
            assert!(answered, "seed {seed:#x}: accepted request {i} was never answered");
        }
        let submitted = world.metrics.submitted.load(Ordering::Relaxed);
        assert_eq!(submitted, world.accepted.len() as u64, "seed {seed:#x}: submitted count");
        let rejected = world.metrics.rejected_overload.load(Ordering::Relaxed);
        assert_eq!(rejected, world.overloads, "seed {seed:#x}: overload count");
    }

    #[test]
    fn seeded_schedules_answer_every_accepted_request_once() {
        for seed in 0..2_000 {
            explore(seed);
        }
    }

    #[test]
    fn close_only_moves_forward_and_reports_the_move() {
        let mut state = State::<u8> { queue: VecDeque::new(), phase: Phase::Open };
        assert!(state.close(Phase::Draining));
        assert!(!state.close(Phase::Draining), "closing twice is no transition");
        assert!(state.close(Phase::Crashed));
        assert!(!state.close(Phase::Draining), "a crashed queue never reopens to draining");
        assert_eq!(state.phase, Phase::Crashed);
    }

    #[test]
    fn retry_backs_off_only_on_transient_errors() {
        let metrics = Metrics::new();
        let mut calls = 0;
        let out: Result<()> = retry(2, Duration::ZERO, &metrics, |_| {
            calls += 1;
            Err(ServeError::Exec("flaky".into()))
        });
        assert_eq!((out.is_err(), calls), (true, 3), "two retries after the first attempt");
        let mut calls = 0;
        let out: Result<()> = retry(2, Duration::ZERO, &metrics, |_| {
            calls += 1;
            Err(ServeError::Plan("deterministic".into()))
        });
        assert_eq!((out.is_err(), calls), (true, 1), "only Exec is transient");
        assert_eq!(metrics.retried.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn registry_rejects_duplicates_and_types_misses() {
        let registry = Registry::default();
        registry.insert("m".into(), 1u8).unwrap();
        assert!(matches!(registry.insert("m".into(), 2), Err(ServeError::BadRequest(_))));
        assert_eq!(*registry.get("m").unwrap(), 1, "the first registration stays");
        assert!(matches!(registry.get("x"), Err(ServeError::UnknownModel(_))));
    }
}
