//! A persistent, work-stealing-free thread pool shared by every tensor
//! kernel (and, through re-export, by the executor and the MoE data
//! plane).
//!
//! # Design
//!
//! The pool is deliberately simple: one job at a time, claimed task-by-task
//! from a shared atomic counter. There are no per-worker deques and no
//! stealing — kernels submit a small number of *coarse* tasks (one per
//! worker, each covering a contiguous block of output rows / experts /
//! elements), so a single counter is contention-free in practice and the
//! task→data mapping stays deterministic.
//!
//! The submitting thread participates in its own job, so a pool sized for
//! `n` workers spawns `n - 1` OS threads. Nested submissions (a pooled
//! task calling [`ThreadPool::parallel_for`] again) run inline on the
//! calling thread instead of deadlocking on the single job slot, and so
//! does a submission that finds the job slot occupied by *another*
//! thread's job (e.g. two serving workers executing micro-batches
//! concurrently): the pool accelerates whoever claims it first and every
//! other submitter simply computes on its own thread.
//!
//! # Determinism contract
//!
//! The pool itself never reorders arithmetic: a job is a pure function of
//! the task index, every output element is written by exactly one task,
//! and each kernel fixes its per-element accumulation order independently
//! of how tasks are chunked (see `gemm`). Any worker count therefore
//! produces bit-identical tensors — the same contract
//! `PartitionOptions::workers` established for the partition search.
//!
//! # Sizing
//!
//! [`ThreadPool::global`] sizes itself once from the `LANCET_WORKERS`
//! environment variable (read a single time, see [`env_workers`]); unset
//! or `0` falls back to the machine's available parallelism capped at 8,
//! mirroring `PartitionOptions::workers = 0`.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// `LANCET_WORKERS`, parsed at most once per process (see
/// `parse_workers` for the accepted values).
pub fn env_workers() -> Option<usize> {
    static PARSED: OnceLock<Option<usize>> = OnceLock::new();
    *PARSED.get_or_init(|| parse_workers(std::env::var("LANCET_WORKERS").ok().as_deref()))
}

/// A `LANCET_WORKERS` value as a worker count. Unset, empty, unparsable,
/// or `0` all give `None`, which means "auto-size from the machine";
/// surrounding whitespace is ignored.
fn parse_workers(value: Option<&str>) -> Option<usize> {
    value.and_then(|v| v.trim().parse::<usize>().ok()).filter(|&n| n > 0)
}

/// The worker count a `workers: 0` knob resolves to on this machine:
/// `LANCET_WORKERS` if set, otherwise available parallelism capped at 8.
pub fn default_workers() -> usize {
    env_workers().unwrap_or_else(|| {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
    })
}

/// Resolves a `workers` knob: `0` means [`default_workers`].
pub fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        default_workers()
    } else {
        requested
    }
}

/// A borrowed job: tasks are claimed from `next` until it reaches `tasks`.
#[derive(Clone)]
struct Job {
    /// The task body, lifetime-erased. Valid until the job completes —
    /// the submitter blocks in `parallel_for` until every task has run,
    /// so workers never observe a dangling closure.
    func: TaskFn,
    next: Arc<AtomicUsize>,
    tasks: usize,
}

#[derive(Clone, Copy)]
struct TaskFn(&'static (dyn Fn(usize) + Sync));

// SAFETY: the referenced closure is `Sync`, and `parallel_for` keeps it
// alive (and its captured borrows valid) until every task completed.
unsafe impl Send for TaskFn {}

struct State {
    job: Option<Job>,
    /// Bumped on every submission so sleeping workers can tell a new job
    /// from the one they already drained.
    generation: u64,
    /// Tasks of the current job that have finished executing.
    completed: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers sleep here between jobs.
    work_cv: Condvar,
    /// The submitter sleeps here while stragglers finish.
    done_cv: Condvar,
}

/// The persistent worker pool. See the module docs.
pub struct ThreadPool {
    shared: Arc<Shared>,
    threads: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("threads", &self.threads).finish()
    }
}

thread_local! {
    /// Set while this thread is executing pool tasks (worker threads, and
    /// the submitter inside `parallel_for`); nested submissions then run
    /// inline.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl ThreadPool {
    /// A pool executing jobs on `threads` threads total (the submitting
    /// thread counts as one, so `threads - 1` OS threads are spawned).
    /// `threads = 0` resolves via [`default_workers`].
    pub fn new(threads: usize) -> Self {
        let threads = resolve_workers(threads).max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State { job: None, generation: 0, completed: 0, shutdown: false }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lancet-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, threads, handles }
    }

    /// The process-wide pool used by all tensor kernels, sized by
    /// [`default_workers`] on first use.
    pub fn global() -> &'static ThreadPool {
        static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
        GLOBAL.get_or_init(|| ThreadPool::new(0))
    }

    /// Total threads executing jobs (including the submitter).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0), f(1), …, f(tasks - 1)` across the pool, returning when
    /// all calls completed. The submitting thread participates. Tasks may
    /// run in any order and concurrently; callers must make them write
    /// disjoint data.
    ///
    /// Runs inline (in ascending task order) when the pool has one
    /// thread, `tasks <= 1`, or when called from inside a pool task.
    pub fn parallel_for<F: Fn(usize) + Sync>(&self, tasks: usize, f: F) {
        if tasks == 0 {
            return;
        }
        let nested = IN_POOL.with(|c| c.get());
        if self.threads <= 1 || tasks == 1 || nested {
            for i in 0..tasks {
                f(i);
            }
            return;
        }
        let obj: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: lifetime erasure only; we block below until `completed
        // == tasks`, so `f` (and everything it borrows) outlives all uses.
        let func = TaskFn(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(obj)
        });
        let next = Arc::new(AtomicUsize::new(0));
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            if st.job.is_some() {
                // Another thread's job occupies the single slot (e.g. two
                // serving workers executing micro-batches concurrently).
                // Degrade gracefully: run this job inline on the caller.
                // Determinism is unaffected — tasks compute the same
                // values regardless of which thread runs them.
                drop(st);
                for i in 0..tasks {
                    f(i);
                }
                return;
            }
            st.job = Some(Job { func, next: Arc::clone(&next), tasks });
            st.generation += 1;
            st.completed = 0;
        }
        self.shared.work_cv.notify_all();

        // Participate until the task counter runs dry.
        IN_POOL.with(|c| c.set(true));
        let mut mine = 0usize;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            f(i);
            mine += 1;
        }
        IN_POOL.with(|c| c.set(false));

        let mut st = self.shared.state.lock().expect("pool lock");
        st.completed += mine;
        while st.completed < tasks {
            st = self.shared.done_cv.wait(st).expect("pool wait");
        }
        st.job = None;
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    IN_POOL.with(|c| c.set(true));
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool lock");
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    seen = st.generation;
                    if let Some(job) = st.job.clone() {
                        break job;
                    }
                }
                st = shared.work_cv.wait(st).expect("pool wait");
            }
        };
        let mut mine = 0usize;
        loop {
            let i = job.next.fetch_add(1, Ordering::Relaxed);
            if i >= job.tasks {
                break;
            }
            (job.func.0)(i);
            mine += 1;
        }
        if mine > 0 {
            let mut st = shared.state.lock().expect("pool lock");
            st.completed += mine;
            if st.completed >= job.tasks {
                shared.done_cv.notify_all();
            }
        }
    }
}

/// Splits `items` into at most `tasks` contiguous ranges and runs `f` on
/// each over the [global pool](ThreadPool::global). Earlier ranges get the
/// remainder, matching `Tensor::split_axis`. `tasks = 0` resolves via
/// [`default_workers`].
pub fn par_ranges<F: Fn(Range<usize>) + Sync>(items: usize, tasks: usize, f: F) {
    let tasks = resolve_workers(tasks).min(items);
    if tasks <= 1 {
        if items > 0 {
            f(0..items);
        }
        return;
    }
    let base = items / tasks;
    let rem = items % tasks;
    ThreadPool::global().parallel_for(tasks, |t| {
        let start = t * base + t.min(rem);
        let len = base + usize::from(t < rem);
        f(start..start + len);
    });
}

/// A length-checked shared view of a mutable `f32` buffer for tasks that
/// write provably disjoint regions.
///
/// Rust cannot express "these closures write disjoint sub-slices of one
/// buffer" through `&mut` borrows handed to a `Fn` job, so kernels wrap
/// the output buffer in this and carve out their region per task.
#[derive(Clone, Copy)]
pub struct SharedSliceMut<'a> {
    ptr: *mut f32,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [f32]>,
}

// SAFETY: access is only through `range_mut`, whose contract pushes
// disjointness onto the caller.
unsafe impl Send for SharedSliceMut<'_> {}
unsafe impl Sync for SharedSliceMut<'_> {}

impl<'a> SharedSliceMut<'a> {
    /// Wraps `buf` for disjoint multi-task mutation.
    pub fn new(buf: &'a mut [f32]) -> Self {
        SharedSliceMut { ptr: buf.as_mut_ptr(), len: buf.len(), _marker: std::marker::PhantomData }
    }

    /// Buffer length in elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mutable access to `range`.
    ///
    /// # Safety
    ///
    /// No two concurrently live borrows (across all tasks of the current
    /// job) may overlap.
    ///
    /// # Panics
    ///
    /// Panics if `range` exceeds the buffer.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn range_mut(&self, range: Range<usize>) -> &mut [f32] {
        assert!(range.start <= range.end && range.end <= self.len, "range out of bounds");
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.end - range.start) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_values_parse_or_fall_back() {
        // `None` is docs/CONFIG.md's default: auto-size from the machine.
        let cases = [
            (None, None),
            (Some(""), None),
            (Some(" 3 "), Some(3)),
            (Some("\t1\n"), Some(1)),
            (Some("0"), None),
            (Some("-1"), None),
            (Some("two"), None),
            (Some("18446744073709551616"), None), // overflows usize
        ];
        for (value, want) in cases {
            assert_eq!(parse_workers(value), want, "{value:?}");
        }
    }

    #[test]
    fn parallel_for_covers_every_task_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..128).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(128, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = ThreadPool::new(3);
        for round in 0..50 {
            let sum = AtomicUsize::new(0);
            pool.parallel_for(round + 1, |i| {
                sum.fetch_add(i + 1, Ordering::Relaxed);
            });
            let n = round + 1;
            assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2, "round {round}");
        }
    }

    #[test]
    fn nested_submission_runs_inline() {
        let pool = ThreadPool::global();
        let total = AtomicUsize::new(0);
        pool.parallel_for(4, |_| {
            // Would deadlock on the single job slot if not inlined.
            pool.parallel_for(4, |j| {
                total.fetch_add(j, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * (0..4).sum::<usize>());
    }

    #[test]
    fn par_ranges_partitions_exactly() {
        let mut buf = vec![0.0f32; 103];
        let view = SharedSliceMut::new(&mut buf);
        par_ranges(103, 7, |r| {
            // SAFETY: ranges from par_ranges are disjoint.
            let chunk = unsafe { view.range_mut(r.clone()) };
            for (off, x) in chunk.iter_mut().enumerate() {
                *x = (r.start + off) as f32;
            }
        });
        for (i, &x) in buf.iter().enumerate() {
            assert_eq!(x, i as f32);
        }
    }

    #[test]
    fn single_thread_pool_runs_inline_in_order() {
        let pool = ThreadPool::new(1);
        let order = std::sync::Mutex::new(Vec::new());
        pool.parallel_for(5, |i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn concurrent_submitters_from_many_threads() {
        // Several OS threads race `parallel_for` on the same pool; losers
        // of the job slot must fall back to inline execution rather than
        // deadlock or corrupt the winner's job. Every task of every
        // submission must still run exactly once.
        let pool = ThreadPool::new(4);
        std::thread::scope(|s| {
            for t in 0..8 {
                let pool = &pool;
                s.spawn(move || {
                    for round in 0..20 {
                        let tasks = 16 + (t + round) % 7;
                        let hits: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
                        pool.parallel_for(tasks, |i| {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        });
                        assert!(
                            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                            "thread {t} round {round}: task ran zero or multiple times"
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn overlapping_par_ranges_jobs_run_every_task_once() {
        // Two threads submit `par_ranges` jobs to the global pool at the
        // same time, with tasks slow enough that the jobs overlap.
        for round in 0..200 {
            let counters: Vec<Vec<AtomicUsize>> =
                (0..2).map(|_| (0..64).map(|_| AtomicUsize::new(0)).collect()).collect();
            std::thread::scope(|s| {
                for c in &counters {
                    s.spawn(move || {
                        par_ranges(64, 8, |r| {
                            for i in r {
                                std::thread::sleep(std::time::Duration::from_micros(50));
                                c[i].fetch_add(1, Ordering::Relaxed);
                            }
                        });
                    });
                }
            });
            for (t, c) in counters.iter().enumerate() {
                for (i, x) in c.iter().enumerate() {
                    assert_eq!(
                        x.load(Ordering::Relaxed),
                        1,
                        "round {round}: submitter {t} task {i} ran wrong number of times"
                    );
                }
            }
        }
    }

    #[test]
    fn overlapping_par_ranges_writes_are_complete() {
        for round in 0..200 {
            let mut bufs = vec![vec![0.0f32; 4096]; 2];
            std::thread::scope(|s| {
                for (t, buf) in bufs.iter_mut().enumerate() {
                    s.spawn(move || {
                        let view = SharedSliceMut::new(buf.as_mut_slice());
                        par_ranges(4096, 8, |r| {
                            // SAFETY: ranges from par_ranges are disjoint.
                            let chunk = unsafe { view.range_mut(r.clone()) };
                            for (off, x) in chunk.iter_mut().enumerate() {
                                *x = (r.start + off + t) as f32 + 1.0;
                            }
                        });
                    });
                }
            });
            for (t, buf) in bufs.iter().enumerate() {
                for (i, &x) in buf.iter().enumerate() {
                    assert_eq!(x, (i + t) as f32 + 1.0, "round {round} submitter {t} elem {i}");
                }
            }
        }
    }

    #[test]
    fn tiled_matmul_is_bit_identical_under_concurrent_submitters() {
        use crate::{gemm, TensorRng};
        let mut rng = TensorRng::seed(42);
        let a = rng.uniform(vec![130, 300], -1.0, 1.0);
        let b = rng.uniform(vec![300, 170], -1.0, 1.0);
        let reference = gemm::matmul_reference(&a, &b, false, false).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..30 {
                        let y = gemm::matmul_tiled(&a, &b, false, false, 0).unwrap();
                        assert_eq!(y.data(), reference.data(), "tiled diverged under concurrency");
                    }
                });
            }
        });
    }

    #[test]
    fn resolve_workers_zero_is_auto() {
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(3), 3);
    }
}
