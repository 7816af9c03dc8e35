//! Persistent work-stealing thread pool shared by every hot path in the
//! workspace — an in-tree replacement for the slice of `rayon` this
//! repository would otherwise use.
//!
//! One global pool is lazily created on first use. Worker count comes from
//! `std::thread::available_parallelism`, overridable with the
//! `NAUTILUS_THREADS` environment variable (highest precedence) or
//! [`request_threads`] (effective only before the pool starts). Each worker
//! owns a local LIFO deque; submitted scopes push to a shared FIFO injector,
//! jobs spawned *from* a worker go to that worker's local deque, and idle
//! workers steal FIFO from their peers — the classic work-stealing shape.
//!
//! Two properties make the pool safe to drop into numeric kernels:
//!
//! 1. **Deterministic results.** [`scope_chunks`] hands each task a
//!    caller-chosen disjoint `&mut` chunk of the output, and [`join_all`]
//!    returns results in input order. Work *placement* varies run to run;
//!    work *partitioning* never does, so a kernel that is deterministic per
//!    chunk is bit-identical to its sequential execution at every thread
//!    count.
//! 2. **No deadlock under nesting.** A thread waiting for its scope to
//!    finish executes pending pool jobs instead of blocking (help-first
//!    waiting), so kernels may freely call back into the pool from inside
//!    pool jobs — and on a single-core machine everything degrades to plain
//!    inline execution.
//!
//! Tests and benches can clamp the *effective* parallelism (the task-split
//! width helpers use) with [`with_parallelism_limit`]; because of property
//! (1) this only changes speed, never results.
//!
//! When [`crate::telemetry`] collection is on, the pool reports scope
//! spans (`pool.scope`) plus task/steal/park counters, both aggregate
//! (`pool.tasks`, `pool.steals`, `pool.parks`) and per worker
//! (`pool.worker<i>.*`, including an injector queue-depth gauge sampled
//! at each park). Disabled, each site costs one relaxed atomic load.

use crate::telemetry;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Thread count requested via [`request_threads`]; 0 = unset.
static REQUESTED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Test/bench clamp on effective parallelism; 0 = unclamped.
static PARALLELISM_LIMIT: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    /// Index of the pool worker running on this thread, if any.
    static WORKER_INDEX: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Index of the pool worker running the current thread (`None` off-pool).
/// Telemetry uses this to label trace threads `pool-worker-<i>`.
pub fn current_worker() -> Option<usize> {
    WORKER_INDEX.with(|w| w.get())
}

struct Pool {
    /// Shared FIFO injector for jobs submitted from non-worker threads.
    injector: Mutex<VecDeque<Job>>,
    /// Wakes parked workers when work arrives.
    work_cvar: Condvar,
    /// Per-worker local deques (LIFO for the owner, FIFO for thieves).
    locals: Vec<Mutex<VecDeque<Job>>>,
    /// Total threads participating in parallel sections (workers + caller).
    threads: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn configured_threads() -> usize {
    if let Ok(v) = std::env::var("NAUTILUS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    let requested = REQUESTED_THREADS.load(Ordering::Relaxed);
    if requested >= 1 {
        return requested;
    }
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        telemetry::set_worker_index_fn(current_worker);
        let threads = configured_threads().max(1);
        // The submitting thread participates via help-first waiting, so we
        // spawn one fewer OS thread than the target parallelism.
        let workers = threads - 1;
        let pool = Pool {
            injector: Mutex::new(VecDeque::new()),
            work_cvar: Condvar::new(),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            threads,
        };
        pool
    })
}

/// Spawns the worker threads the first time the pool is actually used.
/// Kept separate from `pool()` so that merely *querying* thread counts
/// never starts OS threads.
static WORKERS_STARTED: OnceLock<()> = OnceLock::new();

fn ensure_workers() -> &'static Pool {
    let p = pool();
    WORKERS_STARTED.get_or_init(|| {
        for idx in 0..p.locals.len() {
            std::thread::Builder::new()
                .name(format!("nautilus-pool-{idx}"))
                .spawn(move || worker_loop(p, idx))
                .expect("spawn pool worker");
        }
    });
    p
}

fn worker_loop(p: &'static Pool, idx: usize) {
    WORKER_INDEX.with(|w| w.set(Some(idx)));
    // Per-worker counters, interned once per thread so the hot loop only
    // pays relaxed atomics.
    let c_tasks = telemetry::counter(&format!("pool.worker{idx}.tasks"));
    let c_parks = telemetry::counter(&format!("pool.worker{idx}.parks"));
    let c_depth = telemetry::counter(&format!("pool.worker{idx}.queue_depth"));
    loop {
        if let Some(job) = p.try_pop(Some(idx)) {
            c_tasks.add(1);
            job();
            continue;
        }
        // Park until work arrives. The timed wait bounds the one benign
        // race (a local push landing between our empty-check and the wait).
        let guard = p.injector.lock().unwrap();
        if guard.is_empty() {
            telemetry::POOL_PARKS.add(1);
            c_parks.add(1);
            c_depth.set(guard.len() as u64);
            // Balance the parked-workers gauge around the wait; capture
            // the switch once so a mid-wait enable cannot unbalance it.
            let track = telemetry::metrics_enabled();
            if track {
                telemetry::POOL_PARKED_WORKERS.add(1);
            }
            let _ = p.work_cvar.wait_timeout(guard, Duration::from_millis(10)).unwrap();
            if track {
                telemetry::POOL_PARKED_WORKERS.add(-1);
            }
        }
    }
}

impl Pool {
    /// Pops the next job: own local LIFO, then the injector FIFO, then a
    /// FIFO steal from a peer.
    fn try_pop(&self, me: Option<usize>) -> Option<Job> {
        if let Some(i) = me {
            if let Some(job) = self.locals[i].lock().unwrap().pop_back() {
                return Some(job);
            }
        }
        if let Some(job) = self.injector.lock().unwrap().pop_front() {
            return Some(job);
        }
        for (j, local) in self.locals.iter().enumerate() {
            if Some(j) == me {
                continue;
            }
            if let Some(job) = local.lock().unwrap().pop_front() {
                telemetry::POOL_STEALS.add(1);
                if telemetry::enabled() {
                    if let Some(i) = me {
                        telemetry::counter(&format!("pool.worker{i}.steals")).add(1);
                    }
                }
                return Some(job);
            }
        }
        None
    }

    fn push(&self, job: Job) {
        telemetry::POOL_TASKS.add(1);
        let me = WORKER_INDEX.with(|w| w.get());
        match me {
            Some(i) => self.locals[i].lock().unwrap().push_back(job),
            None => self.injector.lock().unwrap().push_back(job),
        }
        self.work_cvar.notify_one();
    }
}

/// Countdown latch a scope waits on; also carries the first panic payload
/// so worker-side panics resurface on the submitting thread.
struct Latch {
    remaining: Mutex<usize>,
    done_cvar: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Latch {
    fn new(n: usize) -> Self {
        Latch { remaining: Mutex::new(n), done_cvar: Condvar::new(), panic: Mutex::new(None) }
    }

    fn complete(&self, panicked: Option<Box<dyn std::any::Any + Send>>) {
        if let Some(payload) = panicked {
            let mut slot = self.panic.lock().unwrap();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut remaining = self.remaining.lock().unwrap();
        *remaining -= 1;
        if *remaining == 0 {
            self.done_cvar.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *self.remaining.lock().unwrap() == 0
    }
}

/// Effective parallelism: the configured pool width, clamped by any active
/// [`with_parallelism_limit`]. Kernels size their task splits with this.
pub fn num_threads() -> usize {
    let configured = pool().threads;
    let limit = PARALLELISM_LIMIT.load(Ordering::Relaxed);
    if limit >= 1 {
        configured.min(limit)
    } else {
        configured
    }
}

/// Chunk length that splits `total` items into at most [`num_threads`]
/// contiguous chunks whose lengths are multiples of `align` (the final
/// chunk absorbs the remainder). Blocked kernels use this to hand
/// [`scope_chunks`] macro-tile-aligned output partitions: every task
/// boundary lands on an `align` multiple, so per-tile work never straddles
/// tasks. Partition *placement* still follows the thread count, but the
/// per-element computation order inside a tile does not — results stay
/// bit-identical at any width.
pub fn aligned_chunk_len(total: usize, align: usize) -> usize {
    let align = align.max(1);
    let blocks = total.div_ceil(align).max(1);
    let tasks = num_threads().min(blocks);
    blocks.div_ceil(tasks) * align
}

/// Requests a pool width (e.g. from `SystemConfig::threads`). Only
/// effective before the pool's first use; `NAUTILUS_THREADS` wins over it,
/// and `0` means "decide automatically". Returns whether the request can
/// still influence the pool (false once the pool is live).
pub fn request_threads(n: usize) -> bool {
    REQUESTED_THREADS.store(n, Ordering::Relaxed);
    POOL.get().is_none()
}

/// Runs `f` with effective parallelism clamped to `n` (≥ 1), restoring the
/// previous clamp afterwards. The clamp changes task-split widths only —
/// results are bit-identical at any setting — so it is safe (if blunt)
/// under concurrent use from other threads.
pub fn with_parallelism_limit<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = PARALLELISM_LIMIT.swap(n.max(1), Ordering::Relaxed);
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            PARALLELISM_LIMIT.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Runs every task to completion, using pool workers plus the calling
/// thread. Tasks may borrow from the caller's stack: the call does not
/// return until all of them have finished. Panics in any task resurface
/// here after the whole scope completes.
pub fn run_scope<'scope>(tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
    if tasks.is_empty() {
        return;
    }
    let _sp = telemetry::span("pool", "pool.scope");
    if tasks.len() == 1 || num_threads() <= 1 {
        for task in tasks {
            task();
        }
        return;
    }
    let p = ensure_workers();
    let latch = std::sync::Arc::new(Latch::new(tasks.len()));
    {
        for task in tasks {
            let latch_ref = latch.clone();
            let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(task));
                latch_ref.complete(result.err());
            });
            // SAFETY: only the lifetime is transmuted. Every job holds
            // borrows that live for 'scope; this function blocks below
            // until the latch confirms all jobs have run, so no job can
            // outlive the data it borrows.
            let job: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job)
            };
            p.push(job);
        }
        // Help-first wait: execute pending jobs (ours or anyone's) instead
        // of blocking, so nested scopes cannot deadlock.
        let me = WORKER_INDEX.with(|w| w.get());
        loop {
            if latch.is_done() {
                break;
            }
            if let Some(job) = p.try_pop(me) {
                job();
                continue;
            }
            let remaining = latch.remaining.lock().unwrap();
            if *remaining == 0 {
                break;
            }
            // Timed so a job injected between our empty-check and this wait
            // (by a nested scope on another thread) cannot strand us.
            let _ = latch.done_cvar.wait_timeout(remaining, Duration::from_millis(1)).unwrap();
        }
    }
    let payload = latch.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Parallel-for over disjoint `chunk_len`-sized pieces of `data` (the last
/// chunk may be shorter). `f` receives the chunk index and the chunk;
/// because the partitioning is caller-chosen and each chunk is exclusive,
/// results are bit-identical to the sequential loop at any thread count.
pub fn scope_chunks<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    let chunk_len = chunk_len.max(1);
    if chunk_len >= data.len() || num_threads() <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let f_ref = &f;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = data
        .chunks_mut(chunk_len)
        .enumerate()
        .map(|(i, chunk)| Box::new(move || f_ref(i, chunk)) as Box<dyn FnOnce() + Send + '_>)
        .collect();
    run_scope(tasks);
}

/// Runs heterogeneous tasks concurrently and returns their results **in
/// input order**, regardless of completion order.
pub fn join_all<'scope, T: Send>(tasks: Vec<Box<dyn FnOnce() -> T + Send + 'scope>>) -> Vec<T> {
    let n = tasks.len();
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    {
        let work: Vec<Box<dyn FnOnce() + Send + '_>> = tasks
            .into_iter()
            .zip(slots.iter_mut())
            .map(|(task, slot)| {
                Box::new(move || {
                    *slot = Some(task());
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_scope(work);
    }
    slots.into_iter().map(|s| s.expect("pool task completed")).collect()
}

/// Convenience pair fan-out: runs `a` and `b` concurrently, returning
/// `(a(), b())`.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let mut ra: Option<RA> = None;
    let mut rb: Option<RB> = None;
    {
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
            Box::new(|| ra = Some(a())),
            Box::new(|| rb = Some(b())),
        ];
        run_scope(tasks);
    }
    (ra.expect("pool task completed"), rb.expect("pool task completed"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn num_threads_is_at_least_one() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn scope_chunks_fills_disjoint_output() {
        let mut out = vec![0u64; 1000];
        scope_chunks(&mut out, 64, |ci, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (ci * 64 + j) as u64;
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as u64);
        }
    }

    #[test]
    fn scope_chunks_matches_sequential_at_every_limit() {
        let run = |limit: usize| {
            with_parallelism_limit(limit, || {
                let mut out = vec![0.0f64; 777];
                scope_chunks(&mut out, 50, |ci, chunk| {
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v = ((ci * 50 + j) as f64).sqrt() * 3.7;
                    }
                });
                out
            })
        };
        let seq = run(1);
        for limit in [2usize, 8] {
            assert_eq!(run(limit), seq, "limit {limit} diverged");
        }
    }

    #[test]
    fn join_all_preserves_input_order() {
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..100usize)
            .map(|i| {
                Box::new(move || {
                    // Vary the work so completion order differs from
                    // submission order.
                    let mut acc = i;
                    for _ in 0..(100 - i) * 10 {
                        acc = std::hint::black_box(acc + 1) - 1;
                    }
                    acc
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let results = join_all(tasks);
        assert_eq!(results, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scopes_complete() {
        let counter = AtomicU64::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
            .map(|_| {
                Box::new(|| {
                    let inner: Vec<Box<dyn FnOnce() -> u64 + Send>> =
                        (0..8).map(|j| Box::new(move || j as u64) as Box<_>).collect();
                    let sum: u64 = join_all(inner).into_iter().sum();
                    counter.fetch_add(sum, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_scope(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 8 * 28);
    }

    #[test]
    fn panics_propagate_to_caller() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..4)
                .map(|i| {
                    Box::new(move || {
                        if i == 2 {
                            panic!("task {i} failed");
                        }
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            run_scope(tasks);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn join_runs_both_sides() {
        let (a, b) = join(|| 2 + 2, || "ok".to_string());
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn aligned_chunk_len_respects_alignment_and_width() {
        with_parallelism_limit(4, || {
            for total in [1usize, 7, 64, 100, 1000] {
                for align in [1usize, 8, 64] {
                    let chunk = aligned_chunk_len(total, align);
                    assert_eq!(chunk % align, 0, "chunk {chunk} not {align}-aligned");
                    let chunks = total.div_ceil(chunk);
                    assert!(chunks <= 4, "{chunks} chunks for total {total} at width 4");
                }
            }
        });
        with_parallelism_limit(1, || {
            assert!(aligned_chunk_len(1000, 8) >= 1000, "width 1 must not split");
        });
    }

    #[test]
    fn parallelism_limit_restores_on_exit() {
        let before = num_threads();
        with_parallelism_limit(1, || assert_eq!(num_threads(), 1));
        assert_eq!(num_threads(), before);
    }
}
