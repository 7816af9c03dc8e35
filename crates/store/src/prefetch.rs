//! Asynchronous feature-store I/O: epoch-aware read prefetch and
//! write-behind for materialization output.
//!
//! Training re-reads every materialized feature key once per epoch (the
//! paper leans on the OS page cache to make those re-reads cheap, §3).
//! Synchronous reads still leave the trainer idle while chunk N+1 is read
//! and decoded; the [`EpochPrefetcher`] removes that bubble by fetching
//! epoch e+1's chunks on dedicated I/O threads while the trainer computes
//! epoch e (double buffering, readahead depth 1, driven by the trainer's
//! deterministic epoch schedule).
//!
//! Determinism discipline (same as the compute pool's): the I/O threads
//! only read and decode. All *accounting* — page-cache model traffic and
//! the shared [`crate::SharedIoStats`] counters — happens on the consumer
//! thread, per key in feed order and per chunk in append order, exactly
//! as the synchronous path does. Prefetched training is therefore
//! bit-identical to synchronous training, at any thread count, including
//! every telemetry byte counter. Modeled chunks (the simulated backend's)
//! are accounted in the same order at their recorded size, and their keys
//! yield no tensor.

use crate::tensor_store::{concat_chunks, load_chunk, ChunkRef, StoreError, TensorStore};
use nautilus_tensor::Tensor;
use nautilus_util::{eventlog, telemetry};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// How a [`TensorStore`] schedules its physical I/O.
#[derive(Debug, Clone, Copy)]
pub struct IoPolicy {
    /// Let [`EpochPrefetcher`] overlap chunk read+decode with training
    /// compute (off: every read is synchronous on the calling thread).
    pub prefetch: bool,
    /// Dedicated I/O threads per prefetcher / write-behind engine.
    pub io_threads: usize,
    /// Defer [`TensorStore::append_many`] chunk writes to I/O threads
    /// (reads barrier on pending writes; errors surface at the next
    /// barrier or [`TensorStore::flush_writes`]).
    pub write_behind: bool,
    /// Debug knob: artificial delay per prefetched chunk read, ms. Used by
    /// stall-injection tests to prove the trainer blocks on slow I/O
    /// instead of consuming stale buffers.
    pub read_delay_ms: u64,
}

impl Default for IoPolicy {
    fn default() -> Self {
        IoPolicy { prefetch: true, io_threads: 2, write_behind: false, read_delay_ms: 0 }
    }
}

/// Locks a mutex, riding through poisoning: everything guarded in this
/// module is counter/queue state that stays consistent under panic.
fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn wait_ok<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(|p| p.into_inner())
}

// ---------------------------------------------------------------------------
// Fetch slots and the read engine
// ---------------------------------------------------------------------------

type FetchResult = Result<(Tensor, u64), StoreError>;

enum SlotState {
    Pending,
    Done(FetchResult),
    Taken,
}

/// One-shot rendezvous between an I/O thread and the consumer.
struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Self {
        Slot { state: Mutex::new(SlotState::Pending), cv: Condvar::new() }
    }

    fn set(&self, r: FetchResult) {
        *lock_ok(&self.state) = SlotState::Done(r);
        self.cv.notify_all();
    }

    fn is_done(&self) -> bool {
        !matches!(*lock_ok(&self.state), SlotState::Pending)
    }

    /// Blocks until the fetch finishes and moves the result out.
    fn take(&self) -> FetchResult {
        let mut st = lock_ok(&self.state);
        while matches!(*st, SlotState::Pending) {
            st = wait_ok(&self.cv, st);
        }
        match std::mem::replace(&mut *st, SlotState::Taken) {
            SlotState::Done(r) => r,
            _ => Err(StoreError::BadChunk("prefetch slot consumed twice".into())),
        }
    }
}

struct FetchJob {
    path: PathBuf,
    slot: Arc<Slot>,
    delay_ms: u64,
}

struct EngineShared {
    queue: Mutex<VecDeque<FetchJob>>,
    cv: Condvar,
    shutdown: AtomicBool,
}

/// Dedicated I/O threads draining a fetch queue. Reads and decodes happen
/// here; the consumer thread does all accounting.
struct Engine {
    shared: Arc<EngineShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Engine {
    fn spawn(threads: usize) -> Self {
        let shared = Arc::new(EngineShared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("nautilus-io-{i}"))
                    .spawn(move || fetch_worker(&shared))
                    .expect("spawn io thread")
            })
            .collect();
        Engine { shared, workers }
    }

    fn submit(&self, job: FetchJob) {
        lock_ok(&self.shared.queue).push_back(job);
        self.shared.cv.notify_one();
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn fetch_worker(shared: &EngineShared) {
    loop {
        let job = {
            let mut q = lock_ok(&shared.queue);
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                if let Some(j) = q.pop_front() {
                    break Some(j);
                }
                q = wait_ok(&shared.cv, q);
            }
        };
        let Some(FetchJob { path, slot, delay_ms }) = job else { return };
        if delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(delay_ms));
        }
        slot.set(load_chunk(&path));
    }
}

// ---------------------------------------------------------------------------
// The epoch prefetcher
// ---------------------------------------------------------------------------

struct KeyPlan {
    key: String,
    record_shape: Vec<usize>,
    chunks: Vec<ChunkRef>,
}

/// Per-key, per-chunk fetch slots for one issued generation (`None` for a
/// modeled chunk, which has nothing to fetch).
type Generation = Vec<Vec<Option<Arc<Slot>>>>;

/// Double-buffered, epoch-aware readahead over a set of store keys.
///
/// Construction snapshots the chunk layout of every key (training keys are
/// re-read once per epoch; validation keys once, after the last epoch) and
/// issues generation 0. Consuming generation e via
/// [`EpochPrefetcher::epoch`] issues generation e+1 — and, after the last
/// training epoch, the validation generation — so the next epoch's read and
/// decode overlap the current epoch's compute.
///
/// When the store's [`IoPolicy`] disables prefetching (or there is nothing
/// to read ahead), no threads are spawned and every call falls back to the
/// synchronous chunk-granular read path with identical results.
///
/// Each call returns one tensor per key that holds payloads, in key order;
/// a key of modeled chunks is read through the ledger and yields none.
pub struct EpochPrefetcher<'s> {
    store: &'s TensorStore,
    train: Vec<KeyPlan>,
    valid: Vec<KeyPlan>,
    epochs: usize,
    delay_ms: u64,
    engine: Option<Engine>,
    issued: VecDeque<(usize, Generation)>,
    valid_issued: Option<Generation>,
}

impl std::fmt::Debug for EpochPrefetcher<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochPrefetcher")
            .field("train_keys", &self.train.len())
            .field("valid_keys", &self.valid.len())
            .field("epochs", &self.epochs)
            .field("async", &self.engine.is_some())
            .finish()
    }
}

impl<'s> EpochPrefetcher<'s> {
    /// Plans readahead for `train_keys` (read every epoch, `epochs` times)
    /// and `valid_keys` (read once after the last epoch) and issues the
    /// first generation.
    ///
    /// Fails fast with [`StoreError::MissingKey`] when a key does not
    /// exist — the same error the first synchronous read would hit.
    pub fn new(
        store: &'s TensorStore,
        train_keys: &[String],
        valid_keys: &[String],
        epochs: usize,
    ) -> Result<Self, StoreError> {
        let plan_for = |keys: &[String]| -> Result<Vec<KeyPlan>, StoreError> {
            keys.iter()
                .map(|k| {
                    let p = store.chunk_plan(k)?;
                    Ok(KeyPlan { key: k.clone(), record_shape: p.record_shape, chunks: p.chunks })
                })
                .collect()
        };
        let train = plan_for(train_keys)?;
        let valid = plan_for(valid_keys)?;
        let policy = store.io_policy();
        let payloads = |plans: &[KeyPlan]| -> usize {
            plans.iter().flat_map(|k| &k.chunks).filter(|c| c.path.is_some()).count()
        };
        let total_chunks = payloads(&train) * epochs + payloads(&valid);
        let engine = (policy.prefetch && policy.io_threads > 0 && total_chunks > 0)
            .then(|| Engine::spawn(policy.io_threads));
        let mut pf = EpochPrefetcher {
            store,
            train,
            valid,
            epochs,
            delay_ms: policy.read_delay_ms,
            engine,
            issued: VecDeque::new(),
            valid_issued: None,
        };
        if pf.engine.is_some() {
            if epochs > 0 {
                let gen = pf.issue_keys(true);
                pf.issued.push_back((0, gen));
            } else {
                pf.valid_issued = Some(pf.issue_keys(false));
            }
        }
        Ok(pf)
    }

    /// Whether reads are actually being overlapped (false in the
    /// synchronous fallback).
    pub fn is_async(&self) -> bool {
        self.engine.is_some()
    }

    fn issue_keys(&self, train: bool) -> Generation {
        let engine = self.engine.as_ref().expect("issue requires an engine");
        let plans = if train { &self.train } else { &self.valid };
        plans
            .iter()
            .map(|kp| {
                kp.chunks
                    .iter()
                    .map(|c| {
                        let path = c.path.clone()?;
                        let slot = Arc::new(Slot::new());
                        let delay_ms = self.delay_ms;
                        engine.submit(FetchJob { path, slot: slot.clone(), delay_ms });
                        Some(slot)
                    })
                    .collect()
            })
            .collect()
    }

    /// Consumes one generation: waits for every chunk, accounts the reads
    /// deterministically (key order, then append order), and concatenates
    /// each key's chunks.
    fn consume(&self, generation: Generation, train: bool) -> Result<Vec<Tensor>, StoreError> {
        let plans = if train { &self.train } else { &self.valid };
        let ready = generation.iter().flatten().flatten().all(|s| s.is_done());
        if ready {
            telemetry::PREFETCH_HITS.add(1);
        } else {
            telemetry::PREFETCH_STALLS.add(1);
            eventlog::warn(
                "prefetch.stall",
                &[("train", eventlog::Value::Bool(train))],
            );
        }
        // The stall span makes "trainer blocked on I/O" visible in traces.
        let _sp = (!ready).then(|| telemetry::span("store", "prefetch.wait"));
        let mut out = Vec::with_capacity(plans.len());
        for (kp, slots) in plans.iter().zip(generation) {
            let mut parts = Vec::with_capacity(slots.len());
            for (c, slot) in kp.chunks.iter().zip(slots) {
                let n = match slot {
                    Some(slot) => {
                        let (t, n) = slot.take()?;
                        parts.push(t);
                        n
                    }
                    None => c.bytes,
                };
                self.store.account_chunk_read(&c.cache_key, n);
            }
            if parts.len() == kp.chunks.len() {
                out.push(concat_chunks(&kp.record_shape, parts)?);
            }
        }
        Ok(out)
    }

    /// Synchronous fallback: the plain chunk-granular scan (identical
    /// bytes, identical accounting order).
    fn read_sync(&self, train: bool) -> Result<Vec<Tensor>, StoreError> {
        let plans = if train { &self.train } else { &self.valid };
        let scans = plans.iter().map(|kp| self.store.scan(&kp.key));
        scans.filter_map(Result::transpose).collect()
    }

    /// Tensors for training epoch `e`, one per `train_keys` entry, in key
    /// order. Must be called with consecutive epochs starting at 0.
    pub fn epoch(&mut self, e: usize) -> Result<Vec<Tensor>, StoreError> {
        if self.engine.is_none() {
            return self.read_sync(true);
        }
        let Some((gen_e, generation)) = self.issued.pop_front() else {
            return self.read_sync(true);
        };
        debug_assert_eq!(gen_e, e, "epochs must be consumed in order");
        // Double buffer: issue the next generation *before* blocking on
        // this one so the pipe never runs dry.
        if e + 1 < self.epochs {
            let next = self.issue_keys(true);
            self.issued.push_back((e + 1, next));
        } else if self.valid_issued.is_none() && !self.valid.is_empty() {
            self.valid_issued = Some(self.issue_keys(false));
        }
        self.consume(generation, true)
    }

    /// Tensors for the validation keys, in key order. Call after the last
    /// training epoch (its readahead was issued alongside that epoch).
    pub fn valid(&mut self) -> Result<Vec<Tensor>, StoreError> {
        match self.valid_issued.take() {
            Some(generation) => self.consume(generation, false),
            None => self.read_sync(false),
        }
    }
}

// ---------------------------------------------------------------------------
// Write-behind
// ---------------------------------------------------------------------------

struct WbState {
    in_flight: usize,
    first_error: Option<String>,
}

struct WbShared {
    queue: Mutex<VecDeque<(PathBuf, Vec<u8>)>>,
    cv: Condvar,
    state: Mutex<WbState>,
    done_cv: Condvar,
    shutdown: AtomicBool,
}

/// Deferred chunk writer backing [`TensorStore::append_many`]'s
/// write-behind mode. Encoding (and therefore byte counts, manifest
/// bookkeeping, and budget charges) stays synchronous; only the
/// `fs::write` of each chunk moves to I/O threads. Readers barrier on
/// [`WriteBehind::drain`] before touching chunk files, which also
/// surfaces the first deferred write error.
pub(crate) struct WriteBehind {
    shared: Arc<WbShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for WriteBehind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock_ok(&self.shared.state);
        f.debug_struct("WriteBehind").field("in_flight", &st.in_flight).finish()
    }
}

impl WriteBehind {
    pub(crate) fn new() -> Self {
        WriteBehind {
            shared: Arc::new(WbShared {
                queue: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
                state: Mutex::new(WbState { in_flight: 0, first_error: None }),
                done_cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
            }),
            workers: Mutex::new(Vec::new()),
        }
    }

    fn ensure_workers(&self, threads: usize) {
        let mut workers = lock_ok(&self.workers);
        if !workers.is_empty() {
            return;
        }
        self.shared.shutdown.store(false, Ordering::SeqCst);
        for i in 0..threads.max(1) {
            let shared = self.shared.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("nautilus-wb-{i}"))
                    .spawn(move || write_worker(&shared))
                    .expect("spawn write-behind thread"),
            );
        }
    }

    pub(crate) fn enqueue(&self, path: PathBuf, data: Vec<u8>, threads: usize) {
        self.ensure_workers(threads);
        lock_ok(&self.shared.state).in_flight += 1;
        lock_ok(&self.shared.queue).push_back((path, data));
        self.shared.cv.notify_one();
        telemetry::WRITE_BEHIND_CHUNKS.add(1);
    }

    /// Blocks until every queued write has landed; returns the first
    /// deferred write error, if any (clearing it).
    pub(crate) fn drain(&self) -> Result<(), StoreError> {
        let mut st = lock_ok(&self.shared.state);
        while st.in_flight > 0 {
            st = wait_ok(&self.shared.done_cv, st);
        }
        match st.first_error.take() {
            Some(msg) => Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::Other,
                format!("deferred chunk write failed: {msg}"),
            ))),
            None => Ok(()),
        }
    }

    /// Drains, then stops and joins the workers (store shutdown).
    pub(crate) fn shutdown(&self) -> Result<(), StoreError> {
        let result = self.drain();
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        for w in lock_ok(&self.workers).drain(..) {
            let _ = w.join();
        }
        result
    }
}

fn write_worker(shared: &WbShared) {
    loop {
        let job = {
            let mut q = lock_ok(&shared.queue);
            loop {
                if let Some(j) = q.pop_front() {
                    break Some(j);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = wait_ok(&shared.cv, q);
            }
        };
        let Some((path, data)) = job else { return };
        let result = {
            let _sp = telemetry::span("store", "store.chunk_write");
            std::fs::write(&path, &data)
        };
        let mut st = lock_ok(&shared.state);
        if let Err(e) = result {
            eventlog::error(
                "write_behind.error",
                &[
                    ("path", eventlog::Value::Str(&path.display().to_string())),
                    ("error", eventlog::Value::Str(&e.to_string())),
                ],
            );
            st.first_error.get_or_insert_with(|| format!("{}: {e}", path.display()));
        }
        st.in_flight -= 1;
        drop(st);
        shared.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::SharedIoStats;
    use nautilus_tensor::init::{randn, seeded_rng};

    fn temp_store(tag: &str, io: SharedIoStats) -> TensorStore {
        let p = std::env::temp_dir().join(format!(
            "nautilus-prefetch-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        TensorStore::open(p, io).unwrap()
    }

    fn populate(store: &mut TensorStore, key: &str, chunks: usize, seed: u64) {
        let mut rng = seeded_rng(seed);
        for _ in 0..chunks {
            store.append_many(&[(key.to_string(), randn([4, 6], 1.0, &mut rng))]).unwrap();
        }
    }

    fn run_epochs(
        store: &TensorStore,
        epochs: usize,
    ) -> (Vec<Vec<Tensor>>, Vec<Tensor>, bool) {
        let train = vec!["a:train".to_string(), "b:train".to_string()];
        let valid = vec!["a:valid".to_string()];
        let mut pf = EpochPrefetcher::new(store, &train, &valid, epochs).unwrap();
        let was_async = pf.is_async();
        let per_epoch: Vec<Vec<Tensor>> =
            (0..epochs).map(|e| pf.epoch(e).unwrap()).collect();
        let v = pf.valid().unwrap();
        (per_epoch, v, was_async)
    }

    #[test]
    fn prefetched_reads_match_synchronous_reads_bit_for_bit() {
        let make = |tag: &str| {
            let io = SharedIoStats::new();
            let mut s = temp_store(tag, io.clone());
            populate(&mut s, "a:train", 3, 1);
            populate(&mut s, "b:train", 2, 2);
            populate(&mut s, "a:valid", 1, 3);
            (s, io)
        };
        let (pre_store, pre_io) = make("async");
        let (mut sync_store, sync_io) = make("sync");
        sync_store.set_io_policy(IoPolicy { prefetch: false, ..IoPolicy::default() });

        pre_io.reset();
        sync_io.reset();
        let (pre_epochs, pre_valid, was_async) = run_epochs(&pre_store, 3);
        let (sync_epochs, sync_valid, was_sync) = run_epochs(&sync_store, 3);
        assert!(was_async, "default policy must prefetch");
        assert!(!was_sync, "disabled policy must fall back to sync reads");
        assert_eq!(pre_epochs, sync_epochs, "epoch tensors must be bit-identical");
        assert_eq!(pre_valid, sync_valid);
        assert_eq!(
            pre_io.snapshot(),
            sync_io.snapshot(),
            "per-chunk accounting must be identical, hits and misses alike"
        );
        let root_a = pre_store.root().to_path_buf();
        let root_b = sync_store.root().to_path_buf();
        drop((pre_store, sync_store));
        let _ = std::fs::remove_dir_all(root_a);
        let _ = std::fs::remove_dir_all(root_b);
    }

    #[test]
    fn missing_key_fails_fast() {
        let s = temp_store("missing", SharedIoStats::new());
        let err =
            EpochPrefetcher::new(&s, &["nope:train".to_string()], &[], 2).unwrap_err();
        assert!(matches!(err, StoreError::MissingKey(_)));
    }

    #[test]
    fn zero_epochs_still_prefetches_validation() {
        let io = SharedIoStats::new();
        let mut s = temp_store("zeroep", io.clone());
        populate(&mut s, "a:valid", 2, 4);
        let (v, _) = s.read_all("a:valid").unwrap();
        io.reset();
        let mut pf =
            EpochPrefetcher::new(&s, &[], &["a:valid".to_string()], 0).unwrap();
        assert!(pf.is_async());
        let got = pf.valid().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], v);
        let root = s.root().to_path_buf();
        drop(pf);
        drop(s);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn delayed_io_blocks_until_data_is_ready() {
        let io = SharedIoStats::new();
        let mut s = temp_store("delay", io.clone());
        populate(&mut s, "a:train", 2, 7);
        let (sync_t, _) = s.read_all("a:train").unwrap();
        io.reset();
        s.set_io_policy(IoPolicy { read_delay_ms: 25, ..IoPolicy::default() });
        let mut pf =
            EpochPrefetcher::new(&s, &["a:train".to_string()], &[], 1).unwrap();
        assert!(pf.is_async());
        let t0 = std::time::Instant::now();
        let got = pf.epoch(0).unwrap();
        // The consumer must have blocked for the injected delay rather
        // than returning stale/partial data.
        assert!(t0.elapsed() >= std::time::Duration::from_millis(20));
        assert_eq!(got[0], sync_t, "slow I/O still yields the exact bytes");
        let root = s.root().to_path_buf();
        drop(pf);
        drop(s);
        let _ = std::fs::remove_dir_all(root);
    }
}
