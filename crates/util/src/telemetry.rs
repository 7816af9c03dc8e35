//! In-tree tracing + metrics substrate (hermetic, no registry deps).
//!
//! Three pieces, mirroring what `tracing` + `metrics` + a Chrome exporter
//! would otherwise provide:
//!
//! 1. **Spans** — [`span`] returns an RAII guard carrying a monotonic
//!    [`Instant`]; guards maintain a thread-local parent stack (so every
//!    event knows its depth and parent), and completed spans are buffered
//!    in per-thread ring buffers that drain into a global collector when
//!    full. Pool worker threads are labeled with their worker index.
//! 2. **Counters** — [`Counter`] values registered by name: monotonic
//!    adds ([`Counter::add`]) or gauge-style sets ([`Counter::set`]), all
//!    relaxed atomics. The subsystem counters every crate shares (FLOPs,
//!    disk/cache bytes, pool task/steal/park counts, pagecache hits and
//!    misses, simplex iterations, branch-and-bound nodes) are predeclared
//!    statics; ad-hoc names (e.g. per-worker) intern through [`counter`].
//! 3. **Exporters** — [`export_to`] writes Chrome trace-event JSON
//!    (loadable in Perfetto / `chrome://tracing`) via the in-tree
//!    [`crate::json`] module; [`summary`] aggregates per-span-name
//!    count/total/mean/max for terminal tables; [`prometheus_text`]
//!    renders counters, gauges, and histograms in the Prometheus text
//!    exposition format for live scraping.
//!
//! Beyond counters there are [`Gauge`]s (set/add of an `i64` level:
//! queue depths, resident bytes, parked workers) and log2-bucketed
//! [`Histogram`]s, plus **labeled metric families**: [`counter_with`] /
//! [`histogram_with`] intern one metric per distinct label set (e.g.
//! `serve.request_us{endpoint="predict",tenant="alice"}`), canonicalized
//! by sorting label keys and bounded to [`MAX_LABEL_SETS`] sets per base
//! name — overflow label sets collapse into a `_other` series so a
//! hostile tenant-id stream cannot grow memory without bound.
//!
//! Collection is **off by default**. Two independent switches exist:
//! *tracing* (span buffering toward a Chrome trace, gated by the
//! `NAUTILUS_TRACE` environment variable — see [`init_from_env`] — or
//! [`enable`]/[`enable_to`]) and *metrics* (counter/gauge/histogram
//! recording, additionally switchable alone via [`enable_metrics`] so a
//! long-running server can serve `/metrics` without accumulating span
//! events). [`enable`] turns both on; [`disable`] turns both off. The
//! disabled path of every instrumentation site is a single relaxed atomic
//! load; no clocks are read and no allocation happens, so instrumented
//! hot loops cost the same as untraced ones (the `telemetry` bench group
//! gates this).
//!
//! Span naming convention: `<subsystem>.<operation>` with the crate-ish
//! subsystem as the category — e.g. `("core", "cycle.train")`,
//! `("store", "store.read_all")`, `("milp", "milp.solve")`.

use crate::json::Json;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Per-thread ring capacity (events) before draining into the collector.
const RING_CAP: usize = 4096;

/// Span-collection (tracing) switch. Every span site loads this once
/// (relaxed) and bails when false — that load *is* the disabled-path cost.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Metric-recording switch (counters/gauges/histograms). Independent of
/// [`ENABLED`] so a server can expose live `/metrics` without buffering
/// span events; [`enable`] sets both, [`enable_metrics`] just this one.
static METRICS: AtomicBool = AtomicBool::new(false);

/// True when span (trace) collection is active.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// True when metric recording (counters/gauges/histograms) is active.
#[inline(always)]
pub fn metrics_enabled() -> bool {
    METRICS.load(Ordering::Relaxed)
}

/// A finished span, in collector form.
#[derive(Debug, Clone)]
struct Event {
    name: &'static str,
    cat: &'static str,
    tid: u64,
    start_us: u64,
    dur_us: u64,
    depth: u32,
    parent: Option<&'static str>,
}

/// One thread's shared ring of finished spans. The owning thread locks it
/// briefly per event (uncontended); the exporter locks it to snapshot.
/// Registered in the global state so events survive thread exit and are
/// visible from live pool workers at export time.
struct ThreadRing {
    tid: u64,
    label: Mutex<String>,
    events: Mutex<Vec<Event>>,
}

struct Global {
    epoch: Instant,
    /// Events drained out of full thread rings.
    drained: Mutex<Vec<Event>>,
    /// Live (and retired) per-thread rings.
    threads: Mutex<Vec<Arc<ThreadRing>>>,
    /// Registered counters, in registration order.
    counters: Mutex<Vec<&'static Counter>>,
    /// Interned dynamically named counters (name → leaked static).
    interned: Mutex<Vec<(&'static str, &'static Counter)>>,
    /// Registered histograms, in registration order.
    histograms: Mutex<Vec<&'static Histogram>>,
    /// Interned dynamically named histograms (name → leaked static).
    interned_hists: Mutex<Vec<(&'static str, &'static Histogram)>>,
    /// Registered gauges, in registration order.
    gauges: Mutex<Vec<&'static Gauge>>,
    /// Interned dynamically named gauges (name → leaked static).
    interned_gauges: Mutex<Vec<(&'static str, &'static Gauge)>>,
    next_tid: AtomicU64,
    /// Trace-file destination configured via env/`enable_to`.
    out_path: Mutex<Option<PathBuf>>,
}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| Global {
        epoch: Instant::now(),
        drained: Mutex::new(Vec::new()),
        threads: Mutex::new(Vec::new()),
        counters: Mutex::new(Vec::new()),
        interned: Mutex::new(Vec::new()),
        histograms: Mutex::new(Vec::new()),
        interned_hists: Mutex::new(Vec::new()),
        gauges: Mutex::new(Vec::new()),
        interned_gauges: Mutex::new(Vec::new()),
        next_tid: AtomicU64::new(1),
        out_path: Mutex::new(None),
    })
}

fn now_us() -> u64 {
    global().epoch.elapsed().as_micros() as u64
}

/// Worker-index provider installed by `pool` so thread labels can say
/// `pool-worker-N` without a dependency cycle.
static WORKER_INDEX_FN: OnceLock<fn() -> Option<usize>> = OnceLock::new();

/// Installs the pool's worker-index accessor (called once by the pool).
pub fn set_worker_index_fn(f: fn() -> Option<usize>) {
    let _ = WORKER_INDEX_FN.set(f);
}

struct LocalState {
    ring: Arc<ThreadRing>,
    /// Parent stack: names of the currently open spans on this thread.
    stack: RefCell<Vec<&'static str>>,
}

thread_local! {
    static LOCAL: RefCell<Option<LocalState>> = const { RefCell::new(None) };
}

fn with_local<R>(f: impl FnOnce(&LocalState) -> R) -> R {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_none() {
            let g = global();
            let tid = g.next_tid.fetch_add(1, Ordering::Relaxed);
            let worker = WORKER_INDEX_FN.get().and_then(|f| f());
            let label = match worker {
                Some(i) => format!("pool-worker-{i}"),
                None => std::thread::current()
                    .name()
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| format!("thread-{tid}")),
            };
            let ring = Arc::new(ThreadRing {
                tid,
                label: Mutex::new(label),
                events: Mutex::new(Vec::new()),
            });
            g.threads.lock().unwrap().push(ring.clone());
            *slot = Some(LocalState { ring, stack: RefCell::new(Vec::new()) });
        }
        f(slot.as_ref().expect("local state initialized"))
    })
}

fn record_event(name: &'static str, cat: &'static str, start_us: u64, end_us: u64) {
    with_local(|local| {
        let mut stack = local.stack.borrow_mut();
        // This span's name sits on top (pushed at creation) — pop it; the
        // remaining top is the parent.
        if stack.last() == Some(&name) {
            stack.pop();
        }
        let depth = stack.len() as u32;
        let parent = stack.last().copied();
        drop(stack);
        let ev = Event {
            name,
            cat,
            tid: local.ring.tid,
            start_us,
            dur_us: end_us.saturating_sub(start_us),
            depth,
            parent,
        };
        let mut events = local.ring.events.lock().unwrap();
        events.push(ev);
        if events.len() >= RING_CAP {
            let full = std::mem::take(&mut *events);
            drop(events);
            global().drained.lock().unwrap().extend(full);
        }
    });
}

/// RAII span guard returned by [`span`]. When collection is disabled the
/// guard is inert (no clock read, no thread-local touch).
pub struct Span {
    data: Option<SpanData>,
}

struct SpanData {
    name: &'static str,
    cat: &'static str,
    start_us: u64,
}

/// Opens a span named `name` under category (subsystem) `cat`.
///
/// Cheap when disabled: one relaxed atomic load, then an inert guard.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    if !enabled() {
        return Span { data: None };
    }
    let start_us = now_us();
    with_local(|local| local.stack.borrow_mut().push(name));
    Span { data: Some(SpanData { name, cat, start_us }) }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(data) = self.data.take() {
            record_event(data.name, data.cat, data.start_us, now_us());
        }
    }
}

/// A named metric: monotonic counter or gauge, relaxed atomics throughout.
/// Declare as a `static` and bump with [`Counter::add`]; the first touch
/// while collection is enabled registers it for export.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// A new counter; `const` so it can back a `static`.
    pub const fn new(name: &'static str) -> Self {
        Counter { name, value: AtomicU64::new(0), registered: AtomicBool::new(false) }
    }

    /// The counter's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` (no-op while metric recording is disabled).
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !metrics_enabled() {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
        self.ensure_registered();
    }

    /// Gauge-style overwrite (no-op while metric recording is disabled).
    #[inline]
    pub fn set(&'static self, v: u64) {
        if !metrics_enabled() {
            return;
        }
        self.value.store(v, Ordering::Relaxed);
        self.ensure_registered();
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn ensure_registered(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            global().counters.lock().unwrap().push(self);
        }
    }
}

/// A named level metric: an `i64` that can go up and down (queue depths,
/// resident-variant counts, cache occupancy, parked workers). Same
/// lifecycle as [`Counter`]: declare as a `static` (or intern via
/// [`gauge`]), relaxed atomics throughout, no-op while metric recording
/// is disabled, first touch while enabled registers it for export.
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
    registered: AtomicBool,
}

impl Gauge {
    /// A new gauge; `const` so it can back a `static`.
    pub const fn new(name: &'static str) -> Self {
        Gauge { name, value: AtomicI64::new(0), registered: AtomicBool::new(false) }
    }

    /// The gauge's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Overwrites the level (no-op while metric recording is disabled).
    #[inline]
    pub fn set(&'static self, v: i64) {
        if !metrics_enabled() {
            return;
        }
        self.value.store(v, Ordering::Relaxed);
        self.ensure_registered();
    }

    /// Adds `delta` (may be negative; no-op while metric recording is
    /// disabled).
    #[inline]
    pub fn add(&'static self, delta: i64) {
        if !metrics_enabled() {
            return;
        }
        self.value.fetch_add(delta, Ordering::Relaxed);
        self.ensure_registered();
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn ensure_registered(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            global().gauges.lock().unwrap().push(self);
        }
    }
}

macro_rules! declare_gauges {
    ($($(#[$doc:meta])* $ident:ident => $name:literal;)*) => {
        $($(#[$doc])* pub static $ident: Gauge = Gauge::new($name);)*
        /// Every predeclared gauge, so exports list them (zeros included)
        /// even when a subsystem never ran.
        fn predeclared_gauges() -> Vec<&'static Gauge> {
            vec![$(&$ident),*]
        }
    };
}

declare_gauges! {
    /// Accepted connections waiting in the server's admission queue.
    SERVE_CONN_QUEUE_DEPTH => "serve.conn_queue_depth";
    /// Requests waiting in the micro-batcher's queue.
    SERVE_BATCH_QUEUE_DEPTH => "serve.batch_queue_depth";
    /// Variant deltas currently resident in the model registry.
    SERVE_RESIDENT_VARIANTS => "serve.resident_variants";
    /// Bytes of evicted variant deltas held by the on-disk delta store.
    SERVE_DELTA_STORE_BYTES => "serve.delta_store_bytes";
    /// Bytes currently occupied in the modeled page cache.
    PAGECACHE_USED_BYTES => "pagecache.used_bytes";
    /// Pool workers currently parked waiting for work.
    POOL_PARKED_WORKERS => "pool.parked_workers";
    /// Measured sequential-read bandwidth from the last I/O calibration
    /// probe, bytes/s (0 until a probe has run).
    CALIBRATED_SEQ_READ_BPS => "calibrate.seq_read_bytes_per_sec";
    /// Measured random-read bandwidth from the last I/O calibration
    /// probe, bytes/s.
    CALIBRATED_RAND_READ_BPS => "calibrate.rand_read_bytes_per_sec";
    /// Measured write bandwidth from the last I/O calibration probe,
    /// bytes/s.
    CALIBRATED_WRITE_BPS => "calibrate.write_bytes_per_sec";
    /// Worker processes the distributed coordinator currently believes
    /// alive (join/leave tracked by heartbeat probes).
    DIST_WORKERS_ALIVE => "dist.workers_alive";
    /// Shards currently dispatched under an active lease.
    DIST_SHARDS_INFLIGHT => "dist.shards_inflight";
    /// Measured coordinator→worker network bandwidth from the last echo
    /// micro-probe, bytes/s (0 until a probe has run).
    CALIBRATED_NET_BPS => "calibrate.net_bytes_per_sec";
}

/// Interns a dynamically named gauge, returning a `'static` handle (the
/// gauge analogue of [`counter`]).
pub fn gauge(name: &str) -> &'static Gauge {
    let mut interned = global().interned_gauges.lock().unwrap();
    if let Some(&(_, g)) = interned.iter().find(|(n, _)| *n == name) {
        return g;
    }
    let leaked_name: &'static str = Box::leak(name.to_string().into_boxed_str());
    let g: &'static Gauge = Box::leak(Box::new(Gauge::new(leaked_name)));
    interned.push((leaked_name, g));
    g
}

macro_rules! declare_counters {
    ($($(#[$doc:meta])* $ident:ident => $name:literal;)*) => {
        $($(#[$doc])* pub static $ident: Counter = Counter::new($name);)*
        /// Every predeclared counter, so exports list them (zeros
        /// included) even when a subsystem never ran.
        fn predeclared() -> Vec<&'static Counter> {
            vec![$(&$ident),*]
        }
    };
}

/// Number of log2 buckets: index 0 holds zeros, index `i >= 1` holds
/// samples in `[2^(i-1), 2^i - 1]`, up to index 64 for values with the
/// high bit set.
pub const HIST_BUCKETS: usize = 65;

/// Aggregate view of one [`Histogram`], as used by [`summary_table`] and
/// the trace export. Quantiles interpolate linearly within the containing
/// log2 bucket (capped at the exact recorded max); an empty histogram
/// reports all zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Histogram name.
    pub name: &'static str,
    /// Number of recorded samples.
    pub count: u64,
    /// Median estimate.
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Exact maximum recorded sample.
    pub max: u64,
}

/// A log2-bucketed histogram of `u64` samples (latencies in µs, batch
/// sizes, ...): 65 relaxed atomic buckets plus exact count/sum/max.
/// Declare as a `static` and feed it with [`Histogram::record`]; like
/// [`Counter`], recording is a no-op while collection is disabled, and
/// the first sample recorded while enabled registers the histogram for
/// [`summary_table`] and the Chrome-trace export.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    registered: AtomicBool,
}

impl Histogram {
    /// A new histogram; `const` so it can back a `static`.
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The histogram's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Bucket index for a sample: `0` for zero, otherwise
    /// `floor(log2(v)) + 1` — so bucket `i >= 1` spans `[2^(i-1), 2^i - 1]`.
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `i`.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            64.. => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Inclusive lower bound of bucket `i` (the smallest sample that can
    /// land there).
    pub fn bucket_lower_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            64.. => 1u64 << 63,
            _ => 1u64 << (i - 1),
        }
    }

    /// Records `v` (no-op while metric recording is disabled).
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !metrics_enabled() {
            return;
        }
        self.observe(v);
        self.ensure_registered();
    }

    /// The unconditional recording path (shared by [`Histogram::record`]
    /// and tests): bucket increment plus exact count/sum/max updates, all
    /// relaxed atomics.
    fn observe(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// A relaxed snapshot of the per-bucket counts. Consumers that need a
    /// self-consistent view (cumulative Prometheus buckets, windowed
    /// delta quantiles) take one snapshot and derive everything from it.
    pub fn bucket_counts(&self) -> [u64; HIST_BUCKETS] {
        let mut out = [0u64; HIST_BUCKETS];
        for (o, b) in out.iter_mut().zip(self.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Quantile estimate for `q` in `[0, 1]`: finds the bucket containing
    /// the `ceil(q · count)`-th smallest sample and interpolates linearly
    /// within it (the upper bound is capped at the exact recorded max, so
    /// top-quantile estimates never exceed any observed sample).
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        Self::quantile_from_counts(&self.bucket_counts(), self.max.load(Ordering::Relaxed), q)
    }

    /// The quantile estimator over an explicit bucket snapshot — shared
    /// by [`Histogram::quantile`] and consumers computing quantiles over
    /// *windowed deltas* of two snapshots (the serving watchdog).
    pub fn quantile_from_counts(counts: &[u64; HIST_BUCKETS], max: u64, q: f64) -> u64 {
        let count: u64 = counts.iter().sum();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let lower = Self::bucket_lower_bound(i);
                // Cap at the exact max: tighter than the bucket bound for
                // the top bucket, exact whenever every sample in the
                // bucket equals the max. `.max(lower)` guards the racy
                // case where `max` lags a concurrent record.
                let upper = Self::bucket_upper_bound(i).min(max).max(lower);
                let frac = (target - seen) as f64 / c as f64;
                // Saturate + clamp: `(upper - lower) as f64` can round up
                // past the true width for the widest buckets.
                let step = ((upper - lower) as f64 * frac).round() as u64;
                return lower.saturating_add(step).min(upper);
            }
            seen += c;
        }
        max
    }

    /// Aggregated view (count, p50/p95/p99, exact max); all zeros when no
    /// samples were recorded.
    pub fn summarize(&self) -> HistogramSummary {
        HistogramSummary {
            name: self.name,
            count: self.count(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    fn ensure_registered(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            global().histograms.lock().unwrap().push(self);
        }
    }
}

macro_rules! declare_histograms {
    ($($(#[$doc:meta])* $ident:ident => $name:literal;)*) => {
        $($(#[$doc])* pub static $ident: Histogram = Histogram::new($name);)*
        /// Every predeclared histogram, so exports list them (zeros
        /// included) even when a subsystem never ran.
        fn predeclared_histograms() -> Vec<&'static Histogram> {
            vec![$(&$ident),*]
        }
    };
}

declare_histograms! {
    /// End-to-end serving latency of one HTTP prediction request, µs.
    SERVE_REQUEST_US => "serve.request_us";
    /// Latency of one micro-batch forward (collect → forward → scatter), µs.
    SERVE_BATCH_US => "serve.batch_us";
    /// Time a micro-batch's first record waited at the batcher's door
    /// (first enqueue → dispatch), µs.
    SERVE_DOOR_WAIT_US => "serve.door_wait_us";
}

/// Interns a dynamically named histogram, returning a `'static` handle
/// (the histogram analogue of [`counter`]).
pub fn histogram(name: &str) -> &'static Histogram {
    let mut interned = global().interned_hists.lock().unwrap();
    if let Some(&(_, h)) = interned.iter().find(|(n, _)| *n == name) {
        return h;
    }
    let leaked_name: &'static str = Box::leak(name.to_string().into_boxed_str());
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new(leaked_name)));
    interned.push((leaked_name, h));
    h
}

declare_counters! {
    /// Prediction requests answered by the serving front-end.
    SERVE_REQUESTS => "serve.requests";
    /// Connections picked up by a serving handler (`serve.requests /
    /// serve.connections` is the reuse persistent connections buy).
    SERVE_CONNECTIONS => "serve.connections";
    /// Requests shed with 503 (admission queue full / endpoint at cap).
    SERVE_SHED => "serve.shed";
    /// Micro-batches executed by the serving batcher.
    SERVE_BATCHES => "serve.batches";
    /// Records carried by those micro-batches (mean batch size =
    /// `serve.batch_size / serve.batches`).
    SERVE_BATCH_RECORDS => "serve.batch_size";
    /// Variant deltas evicted from the registry to the delta store.
    SERVE_EVICTIONS => "serve.evictions";
    /// Variant deltas faulted back in from the delta store.
    SERVE_FAULT_INS => "serve.fault_ins";
    /// Records served through a shared base-trunk forward pass alongside
    /// at least one other tenant's records.
    SERVE_TRUNK_SHARED_RECORDS => "serve.trunk_shared_records";
    /// FLOPs executed/charged by the backend.
    FLOPS => "flops";
    /// Bytes read from disk (page-cache misses).
    DISK_READ_BYTES => "disk_read_bytes";
    /// Bytes served from the page cache.
    CACHED_READ_BYTES => "cached_read_bytes";
    /// Bytes written to disk.
    DISK_WRITE_BYTES => "disk_write_bytes";
    /// Tasks submitted to the shared thread pool.
    POOL_TASKS => "pool.tasks";
    /// Successful steals from a peer worker's deque.
    POOL_STEALS => "pool.steals";
    /// Times a pool worker parked waiting for work.
    POOL_PARKS => "pool.parks";
    /// Page-cache read hits (object count).
    PAGECACHE_HITS => "pagecache.hits";
    /// Page-cache read misses (object count).
    PAGECACHE_MISSES => "pagecache.misses";
    /// Gauge: the disk-throughput constant (bytes/s) the MILP consumed on
    /// its most recent solve — measured when I/O calibration is on, the
    /// static default otherwise.
    PLANNER_DISK_BPS => "planner.disk_bytes_per_sec";
    /// Bytes copied into packed GEMM A/B panels (and im2col columns).
    GEMM_PACK_BYTES => "gemm.pack_bytes";
    /// Register-tile microkernel invocations in the blocked GEMM.
    GEMM_MICROKERNEL_CALLS => "gemm.microkernel_calls";
    /// int8 row-quantized GEMM invocations (the serving quant path).
    QGEMM_CALLS => "qgemm.calls";
    /// Output rows produced by the int8 row-quantized GEMM.
    QGEMM_ROWS => "qgemm.rows";
    /// Scratch-arena takes served by a recycled buffer.
    SCRATCH_HITS => "scratch.hits";
    /// Scratch-arena takes that fell through to a fresh allocation.
    SCRATCH_MISSES => "scratch.misses";
    /// Simplex pivot iterations across all LP solves.
    SIMPLEX_ITERATIONS => "simplex.iterations";
    /// Branch-and-bound nodes explored across all MILP solves.
    BB_NODES => "bb.nodes";
    /// Shard dispatch retries by the distributed coordinator (failed or
    /// timed-out attempts that were requeued with backoff).
    DIST_RETRIES => "dist.retries";
    /// Shard leases that expired without a worker reply and were
    /// reassigned.
    DIST_LEASE_TIMEOUTS => "dist.lease_timeouts";
    /// Shards completed successfully by remote workers.
    DIST_SHARDS_DONE => "dist.shards_done";
}

/// Interns a dynamically named counter (e.g. `pool.worker3.steals`),
/// returning a `'static` handle that can be cached and bumped cheaply.
pub fn counter(name: &str) -> &'static Counter {
    let mut interned = global().interned.lock().unwrap();
    if let Some(&(_, c)) = interned.iter().find(|(n, _)| *n == name) {
        return c;
    }
    let leaked_name: &'static str = Box::leak(name.to_string().into_boxed_str());
    let c: &'static Counter = Box::leak(Box::new(Counter::new(leaked_name)));
    interned.push((leaked_name, c));
    c
}

/// Cardinality bound for labeled metric families: at most this many
/// distinct label sets are interned per base name; further new label
/// sets collapse into one overflow series whose label values are all
/// `"_other"`. Keeps an unbounded tenant-id stream from growing the
/// metric table (and the `/metrics` payload) without limit.
pub const MAX_LABEL_SETS: usize = 64;

/// Inert sinks handed out by `*_with` while metric recording is disabled
/// so the disabled path does no formatting, locking, or interning. They
/// carry an empty name and are filtered from every export (recording into
/// them is already a no-op while disabled; the filter covers the race
/// where metrics get enabled between lookup and record).
static DISABLED_COUNTER: Counter = Counter::new("");
static DISABLED_HISTOGRAM: Histogram = Histogram::new("");

fn escape_label_value(out: &mut String, v: &str) {
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
}

/// Canonical interned name for `base` + `labels`: keys sorted, values
/// escaped, rendered as `base{k="v",k2="v2"}` — exactly the label block
/// the Prometheus encoder re-emits.
fn labeled_name(base: &str, labels: &[(&str, &str)]) -> String {
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_by_key(|&(k, _)| k);
    let mut s = String::with_capacity(base.len() + 16 * sorted.len() + 2);
    s.push_str(base);
    s.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(k);
        s.push_str("=\"");
        escape_label_value(&mut s, v);
        s.push('"');
    }
    s.push('}');
    s
}

/// Looks up or creates the interned member for one label set, enforcing
/// the per-family cardinality bound. Generic over the metric kind so
/// counters and histograms share one implementation.
fn intern_labeled<'a, T>(
    interned: &mut Vec<(&'static str, &'static T)>,
    base: &str,
    labels: &[(&str, &str)],
    make: fn(&'static str) -> T,
) -> &'static T {
    let name = labeled_name(base, labels);
    if let Some(&(_, m)) = interned.iter().find(|(n, _)| *n == name) {
        return m;
    }
    let mut prefix = String::with_capacity(base.len() + 1);
    prefix.push_str(base);
    prefix.push('{');
    let live = interned.iter().filter(|(n, _)| n.starts_with(prefix.as_str())).count();
    let final_name = if live >= MAX_LABEL_SETS {
        let capped: Vec<(&str, &str)> = labels.iter().map(|&(k, _)| (k, "_other")).collect();
        let capped_name = labeled_name(base, &capped);
        if let Some(&(_, m)) = interned.iter().find(|(n, _)| *n == capped_name) {
            return m;
        }
        capped_name
    } else {
        name
    };
    let leaked_name: &'static str = Box::leak(final_name.into_boxed_str());
    let m: &'static T = Box::leak(Box::new(make(leaked_name)));
    interned.push((leaked_name, m));
    m
}

/// One member of a labeled counter family, e.g.
/// `counter_with("serve.errors", &[("tenant", id), ("code", "4xx")])`.
/// Label order does not matter (keys are sorted into a canonical name);
/// at most [`MAX_LABEL_SETS`] distinct label sets per base name, beyond
/// which an `_other` overflow series absorbs new sets. Returns an inert
/// unregistered counter while metric recording is disabled.
pub fn counter_with(base: &str, labels: &[(&str, &str)]) -> &'static Counter {
    if !metrics_enabled() {
        return &DISABLED_COUNTER;
    }
    let mut interned = global().interned.lock().unwrap();
    intern_labeled(&mut interned, base, labels, Counter::new)
}

/// One member of a labeled histogram family, e.g.
/// `histogram_with("serve.request_us", &[("endpoint", "predict"), ("tenant", id)])`.
/// Same canonicalization and cardinality bound as [`counter_with`].
pub fn histogram_with(base: &str, labels: &[(&str, &str)]) -> &'static Histogram {
    if !metrics_enabled() {
        return &DISABLED_HISTOGRAM;
    }
    let mut interned = global().interned_hists.lock().unwrap();
    intern_labeled(&mut interned, base, labels, Histogram::new)
}

/// Enables both trace collection and metric recording, without
/// configuring a trace-file destination (export manually via
/// [`export_to`]).
pub fn enable() {
    let _ = global();
    METRICS.store(true, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Enables metric recording only (counters/gauges/histograms — the
/// `/metrics` plane) without buffering span events, so a long-running
/// server pays no trace memory. A later [`enable`] upgrades to full
/// tracing; [`disable`] turns both off.
pub fn enable_metrics() {
    let _ = global();
    METRICS.store(true, Ordering::Relaxed);
}

/// Enables collection and remembers `path` as the trace destination for
/// [`export`].
pub fn enable_to(path: impl Into<PathBuf>) {
    *global().out_path.lock().unwrap() = Some(path.into());
    enable();
}

/// Disables trace collection and metric recording. Already-buffered
/// events and metric values are kept.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    METRICS.store(false, Ordering::Relaxed);
}

/// The configured trace destination, if any.
pub fn trace_path() -> Option<PathBuf> {
    global().out_path.lock().unwrap().clone()
}

/// Reads `NAUTILUS_TRACE`; when set (to the trace output path), enables
/// collection toward it. Idempotent and cheap to call from every session
/// constructor. Returns whether collection is enabled afterwards.
pub fn init_from_env() -> bool {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        if let Ok(path) = std::env::var("NAUTILUS_TRACE") {
            if !path.trim().is_empty() {
                enable_to(path.trim());
            }
        }
    });
    enabled()
}

/// Clears all buffered events and zeroes every registered counter
/// (test/bench hygiene).
pub fn reset() {
    let g = global();
    g.drained.lock().unwrap().clear();
    for ring in g.threads.lock().unwrap().iter() {
        ring.events.lock().unwrap().clear();
    }
    for c in g.counters.lock().unwrap().iter() {
        c.value.store(0, Ordering::Relaxed);
    }
    for h in g.histograms.lock().unwrap().iter() {
        h.reset();
    }
    for gg in g.gauges.lock().unwrap().iter() {
        gg.value.store(0, Ordering::Relaxed);
    }
}

/// Snapshot of everything collected so far (drained + live rings),
/// ordered by start time.
fn snapshot_events() -> Vec<Event> {
    let g = global();
    let mut events = g.drained.lock().unwrap().clone();
    for ring in g.threads.lock().unwrap().iter() {
        events.extend(ring.events.lock().unwrap().iter().cloned());
    }
    events.sort_by_key(|e| (e.tid, e.start_us, std::cmp::Reverse(e.dur_us)));
    events
}

fn registered_counters() -> Vec<&'static Counter> {
    let mut out = predeclared();
    for c in global().counters.lock().unwrap().iter() {
        if !c.name().is_empty() && !out.iter().any(|p| std::ptr::eq(*p, *c)) {
            out.push(c);
        }
    }
    out
}

fn registered_histograms() -> Vec<&'static Histogram> {
    let mut out = predeclared_histograms();
    for h in global().histograms.lock().unwrap().iter() {
        if !h.name().is_empty() && !out.iter().any(|p| std::ptr::eq(*p, *h)) {
            out.push(h);
        }
    }
    out
}

fn registered_gauges() -> Vec<&'static Gauge> {
    let mut out = predeclared_gauges();
    for g in global().gauges.lock().unwrap().iter() {
        if !g.name().is_empty() && !out.iter().any(|p| std::ptr::eq(*p, *g)) {
            out.push(g);
        }
    }
    out
}

/// Every registered gauge with its current level (predeclared ones
/// included), for status endpoints.
pub fn gauge_values() -> Vec<(&'static str, i64)> {
    registered_gauges().iter().map(|g| (g.name(), g.get())).collect()
}

/// Aggregated view of every registered histogram (predeclared ones
/// included, so empty histograms render as all-zero rows).
pub fn histogram_summaries() -> Vec<HistogramSummary> {
    registered_histograms().iter().map(|h| h.summarize()).collect()
}

/// Aggregated statistics for one span name.
#[derive(Debug, Clone)]
pub struct SpanSummary {
    /// Span name (`<subsystem>.<operation>`).
    pub name: &'static str,
    /// Category (subsystem).
    pub cat: &'static str,
    /// Number of completed spans.
    pub count: u64,
    /// Sum of durations, seconds.
    pub total_secs: f64,
    /// Mean duration, seconds.
    pub mean_secs: f64,
    /// Maximum duration, seconds.
    pub max_secs: f64,
}

/// Per-span-name aggregation (count/total/mean/max), sorted by total
/// descending.
pub fn summary() -> Vec<SpanSummary> {
    let mut by_name: Vec<SpanSummary> = Vec::new();
    for e in snapshot_events() {
        let secs = e.dur_us as f64 / 1e6;
        match by_name.iter_mut().find(|s| s.name == e.name) {
            Some(s) => {
                s.count += 1;
                s.total_secs += secs;
                s.max_secs = s.max_secs.max(secs);
            }
            None => by_name.push(SpanSummary {
                name: e.name,
                cat: e.cat,
                count: 1,
                total_secs: secs,
                mean_secs: 0.0,
                max_secs: secs,
            }),
        }
    }
    for s in &mut by_name {
        s.mean_secs = s.total_secs / s.count as f64;
    }
    by_name.sort_by(|a, b| b.total_secs.total_cmp(&a.total_secs));
    by_name
}

/// [`summary`] rendered as an aligned text table (plus the non-zero
/// counters), ready to print.
pub fn summary_table() -> String {
    let rows = summary();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>8} {:>12} {:>12} {:>12}\n",
        "span", "count", "total_s", "mean_s", "max_s"
    ));
    for s in &rows {
        out.push_str(&format!(
            "{:<28} {:>8} {:>12.6} {:>12.6} {:>12.6}\n",
            s.name, s.count, s.total_secs, s.mean_secs, s.max_secs
        ));
    }
    let counters: Vec<_> =
        registered_counters().into_iter().filter(|c| c.get() > 0).collect();
    if !counters.is_empty() {
        out.push_str(&format!("{:<40} {:>20}\n", "counter", "value"));
        for c in counters {
            out.push_str(&format!("{:<40} {:>20}\n", c.name(), c.get()));
        }
    }
    let gauges: Vec<_> =
        registered_gauges().into_iter().filter(|g| g.get() != 0).collect();
    if !gauges.is_empty() {
        out.push_str(&format!("{:<40} {:>20}\n", "gauge", "value"));
        for g in gauges {
            out.push_str(&format!("{:<40} {:>20}\n", g.name(), g.get()));
        }
    }
    let hists: Vec<_> =
        histogram_summaries().into_iter().filter(|h| h.count > 0).collect();
    if !hists.is_empty() {
        out.push_str(&format!(
            "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            "histogram", "count", "p50", "p95", "p99", "max"
        ));
        for h in hists {
            out.push_str(&format!(
                "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
                h.name, h.count, h.p50, h.p95, h.p99, h.max
            ));
        }
    }
    out
}

/// Maps a dotted metric name onto the Prometheus name charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots and other invalid characters
/// become underscores.
fn sanitize_metric_name(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for (i, ch) in s.chars().enumerate() {
        let valid = ch.is_ascii_alphabetic()
            || ch == '_'
            || ch == ':'
            || (i > 0 && ch.is_ascii_digit());
        out.push(if valid { ch } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Splits an interned name into `(base, label_block)`:
/// `serve.request_us{tenant="a"}` → `("serve.request_us", Some("tenant=\"a\""))`.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.find('{') {
        Some(i) if name.ends_with('}') => (&name[..i], Some(&name[i + 1..name.len() - 1])),
        _ => (name, None),
    }
}

/// Groups registered metrics by base name (registration order preserved)
/// so each Prometheus family is emitted contiguously under one `# TYPE`.
fn group_by_base<T>(items: Vec<T>, name_of: fn(&T) -> &'static str) -> Vec<(String, Vec<T>)> {
    let mut groups: Vec<(String, Vec<T>)> = Vec::new();
    for item in items {
        let (base, _) = split_labels(name_of(&item));
        let sane = sanitize_metric_name(base);
        match groups.iter_mut().find(|(b, _)| *b == sane) {
            Some((_, members)) => members.push(item),
            None => groups.push((sane, vec![item])),
        }
    }
    groups
}

fn push_series(out: &mut String, sane: &str, suffix: &str, labels: Option<&str>, extra: Option<&str>, value: &str) {
    out.push_str(sane);
    out.push_str(suffix);
    match (labels, extra) {
        (None, None) => {}
        (l, e) => {
            out.push('{');
            if let Some(l) = l {
                out.push_str(l);
            }
            if let Some(e) = e {
                if l.is_some() {
                    out.push(',');
                }
                out.push_str(e);
            }
            out.push('}');
        }
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Renders every registered counter, gauge, and histogram in the
/// Prometheus text exposition format (`text/plain; version=0.0.4`):
/// counters and gauges as single series, histograms as cumulative
/// `_bucket{le="..."}` series plus `_sum` and `_count`, label blocks
/// carried over from [`counter_with`]/[`histogram_with`] names.
///
/// Consistency under concurrent recording: each histogram's buckets are
/// snapshotted once and every derived series (`_bucket`, `+Inf`,
/// `_count`) is computed from that one snapshot, so cumulative bucket
/// counts are monotone and the `+Inf` bucket always equals `_count`
/// (`_sum` is a separate relaxed load and may lead by in-flight
/// samples). Empty buckets below the maximum populated one are elided —
/// Prometheus histograms permit arbitrary bucket layouts.
pub fn prometheus_text() -> String {
    let mut out = String::new();
    for (sane, members) in group_by_base(registered_counters(), |c| c.name()) {
        out.push_str(&format!("# TYPE {sane} counter\n"));
        for c in members {
            let (_, labels) = split_labels(c.name());
            push_series(&mut out, &sane, "", labels, None, &c.get().to_string());
        }
    }
    for (sane, members) in group_by_base(registered_gauges(), |g| g.name()) {
        out.push_str(&format!("# TYPE {sane} gauge\n"));
        for g in members {
            let (_, labels) = split_labels(g.name());
            push_series(&mut out, &sane, "", labels, None, &g.get().to_string());
        }
    }
    for (sane, members) in group_by_base(registered_histograms(), |h| h.name()) {
        out.push_str(&format!("# TYPE {sane} histogram\n"));
        for h in members {
            let (_, labels) = split_labels(h.name());
            let counts = h.bucket_counts();
            let total: u64 = counts.iter().sum();
            let mut cum = 0u64;
            for (i, &c) in counts.iter().enumerate().take(HIST_BUCKETS - 1) {
                if c == 0 {
                    continue;
                }
                cum += c;
                let le = format!("le=\"{}\"", Histogram::bucket_upper_bound(i));
                push_series(&mut out, &sane, "_bucket", labels, Some(&le), &cum.to_string());
            }
            push_series(&mut out, &sane, "_bucket", labels, Some("le=\"+Inf\""), &total.to_string());
            push_series(&mut out, &sane, "_sum", labels, None, &h.sum().to_string());
            push_series(&mut out, &sane, "_count", labels, None, &total.to_string());
        }
    }
    out
}

fn trace_json() -> Json {
    let g = global();
    let mut trace_events: Vec<Json> = Vec::new();
    // Process + thread metadata so Perfetto shows friendly names.
    trace_events.push(Json::obj([
        ("name", Json::Str("process_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::Int(1)),
        ("tid", Json::Int(0)),
        ("args", Json::obj([("name", Json::Str("nautilus".into()))])),
    ]));
    for ring in g.threads.lock().unwrap().iter() {
        trace_events.push(Json::obj([
            ("name", Json::Str("thread_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(ring.tid as i128)),
            (
                "args",
                Json::obj([("name", Json::Str(ring.label.lock().unwrap().clone()))]),
            ),
        ]));
    }
    let events = snapshot_events();
    let last_ts = events.iter().map(|e| e.start_us + e.dur_us).max().unwrap_or(0);
    for e in &events {
        let mut args = vec![("depth".to_string(), Json::Int(e.depth as i128))];
        if let Some(p) = e.parent {
            args.push(("parent".to_string(), Json::Str(p.to_string())));
        }
        trace_events.push(Json::obj([
            ("name", Json::Str(e.name.to_string())),
            ("cat", Json::Str(e.cat.to_string())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Int(e.start_us as i128)),
            ("dur", Json::Int(e.dur_us as i128)),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(e.tid as i128)),
            ("args", Json::Obj(args)),
        ]));
    }
    for c in registered_counters() {
        trace_events.push(Json::obj([
            ("name", Json::Str(c.name().to_string())),
            ("ph", Json::Str("C".into())),
            ("ts", Json::Int(last_ts as i128)),
            ("pid", Json::Int(1)),
            ("args", Json::obj([("value", Json::Int(c.get() as i128))])),
        ]));
    }
    for g in registered_gauges() {
        trace_events.push(Json::obj([
            ("name", Json::Str(g.name().to_string())),
            ("ph", Json::Str("C".into())),
            ("ts", Json::Int(last_ts as i128)),
            ("pid", Json::Int(1)),
            ("args", Json::obj([("value", Json::Int(g.get() as i128))])),
        ]));
    }
    // Histograms export as counter events whose args carry the quantile
    // series — Perfetto plots each arg as its own track.
    for h in histogram_summaries() {
        trace_events.push(Json::obj([
            ("name", Json::Str(h.name.to_string())),
            ("ph", Json::Str("C".into())),
            ("ts", Json::Int(last_ts as i128)),
            ("pid", Json::Int(1)),
            (
                "args",
                Json::obj([
                    ("count", Json::Int(h.count as i128)),
                    ("p50", Json::Int(h.p50 as i128)),
                    ("p95", Json::Int(h.p95 as i128)),
                    ("p99", Json::Int(h.p99 as i128)),
                    ("max", Json::Int(h.max as i128)),
                ]),
            ),
        ]));
    }
    Json::obj([("traceEvents", Json::Arr(trace_events))])
}

/// Writes the accumulated trace (spans + counters) as Chrome trace-event
/// JSON to `path`. Events are not consumed; later exports rewrite the
/// file with the fuller picture.
pub fn export_to(path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, trace_json().to_string_pretty())
}

/// Exports to the destination configured via `NAUTILUS_TRACE` /
/// [`enable_to`]. Returns the path written, or `None` when no
/// destination is configured.
pub fn export() -> std::io::Result<Option<PathBuf>> {
    match trace_path() {
        Some(path) => {
            export_to(&path)?;
            Ok(Some(path))
        }
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Collection state is process-global, so everything that toggles it
    // lives in this one test (Rust runs tests in one process); the
    // fuller multi-thread/nesting validation runs in the dedicated
    // `tests/telemetry_trace.rs` integration binary.
    #[test]
    fn spans_counters_summary_and_export_round_trip() {
        assert!(!enabled(), "collection must start disabled");
        {
            // Disabled spans are inert.
            let _s = span("test", "t.disabled");
            FLOPS.add(5);
            SERVE_REQUEST_US.record(9);
        }
        assert_eq!(FLOPS.get(), 0, "disabled counter must not count");
        assert_eq!(SERVE_REQUEST_US.count(), 0, "disabled histogram must not record");

        enable();
        reset();
        {
            let _outer = span("test", "t.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("test", "t.inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            {
                let _inner = span("test", "t.inner");
            }
        }
        FLOPS.add(7);
        let c = counter("test.dynamic");
        c.add(3);
        assert!(std::ptr::eq(c, counter("test.dynamic")), "interning is stable");
        SERVE_REQUEST_US.record(100);
        SERVE_REQUEST_US.record(1000);
        let dh = histogram("test.dynamic_hist");
        assert!(std::ptr::eq(dh, histogram("test.dynamic_hist")), "hist interning is stable");

        let rows = summary();
        let outer = rows.iter().find(|s| s.name == "t.outer").expect("outer present");
        let inner = rows.iter().find(|s| s.name == "t.inner").expect("inner present");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        assert!(outer.total_secs >= inner.total_secs, "parent covers child");
        assert!(inner.max_secs >= inner.mean_secs);
        assert_eq!(FLOPS.get(), 7);
        assert_eq!(counter("test.dynamic").get(), 3);

        let path = std::env::temp_dir()
            .join(format!("nautilus-telemetry-unit-{}.json", std::process::id()));
        export_to(&path).expect("export");
        let data = std::fs::read(&path).expect("read back");
        let parsed: Json = crate::json::from_slice(&data).expect("valid json");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents array");
        let xs: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert!(xs.len() >= 3, "outer + 2 inner events");
        // The inner span's recorded parent is the outer span.
        let inner_ev = xs
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("t.inner"))
            .expect("inner event");
        assert_eq!(
            inner_ev.get("args").and_then(|a| a.get("parent")).and_then(|p| p.as_str()),
            Some("t.outer")
        );
        assert!(
            events.iter().any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C")
                && e.get("name").and_then(|n| n.as_str()) == Some("flops")),
            "counter events present"
        );

        // The recorded histogram reaches the summary table and the trace
        // export (as a counter event carrying the quantile series).
        let hs = histogram_summaries();
        let req = hs.iter().find(|h| h.name == "serve.request_us").expect("registered");
        assert_eq!(req.count, 2);
        assert_eq!(req.max, 1000);
        let hist_ev = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("C")
                    && e.get("name").and_then(|n| n.as_str()) == Some("serve.request_us")
            })
            .expect("histogram counter event");
        assert_eq!(
            hist_ev.get("args").and_then(|a| a.get("count")).and_then(|v| v.as_u64()),
            Some(2)
        );
        assert!(hist_ev.get("args").and_then(|a| a.get("p50")).is_some());

        let table = summary_table();
        assert!(table.contains("t.outer") && table.contains("flops"));
        assert!(table.contains("serve.request_us"), "histogram row in table:\n{table}");

        // Gauges: set/add (negative deltas included), registration, table.
        // (`add` on a test-private gauge: the pool's own gauges move
        // under this test whenever a sibling test runs pool work.)
        SERVE_BATCH_QUEUE_DEPTH.set(4);
        assert_eq!(SERVE_BATCH_QUEUE_DEPTH.get(), 4);
        let dg = gauge("test.dynamic_gauge");
        dg.add(2);
        dg.add(-1);
        assert_eq!(dg.get(), 1);
        dg.set(-7);
        assert!(std::ptr::eq(dg, gauge("test.dynamic_gauge")), "gauge interning is stable");
        assert!(summary_table().contains("serve.batch_queue_depth"));

        // Labeled families: canonical label order, stable interning.
        let lc = counter_with("test.errors", &[("tenant", "alice"), ("code", "4xx")]);
        lc.add(2);
        assert!(
            std::ptr::eq(lc, counter_with("test.errors", &[("code", "4xx"), ("tenant", "alice")])),
            "label order canonicalized"
        );
        let lh = histogram_with("test.lat_us", &[("tenant", "bob")]);
        lh.record(7);
        lh.record(100);

        // Cardinality bound: past MAX_LABEL_SETS distinct sets, new label
        // sets collapse into one `_other` overflow series.
        for i in 0..MAX_LABEL_SETS {
            counter_with("test.card", &[("t", &format!("t{i}"))]).add(1);
        }
        let over_a = counter_with("test.card", &[("t", "overflow-a")]);
        let over_b = counter_with("test.card", &[("t", "overflow-b")]);
        assert!(std::ptr::eq(over_a, over_b), "overflow sets share one series");
        assert_eq!(over_a.name(), "test.card{t=\"_other\"}");

        // Prometheus exposition: families typed once, labels carried
        // through, cumulative buckets with +Inf == _count.
        let text = prometheus_text();
        assert!(text.contains("# TYPE flops counter"), "typed counter family:\n{text}");
        assert!(text.contains("\nflops 7\n"));
        assert!(text.contains("# TYPE serve_batch_queue_depth gauge"));
        assert!(text.contains("\nserve_batch_queue_depth 4\n"));
        assert!(text.contains("test_errors{code=\"4xx\",tenant=\"alice\"} 2"));
        assert!(text.contains("# TYPE test_lat_us histogram"));
        assert!(text.contains("test_lat_us_bucket{tenant=\"bob\",le=\"7\"} 1"));
        assert!(text.contains("test_lat_us_bucket{tenant=\"bob\",le=\"127\"} 2"));
        assert!(text.contains("test_lat_us_bucket{tenant=\"bob\",le=\"+Inf\"} 2"));
        assert!(text.contains("test_lat_us_sum{tenant=\"bob\"} 107"));
        assert!(text.contains("test_lat_us_count{tenant=\"bob\"} 2"));
        assert_eq!(
            text.matches("# TYPE test_card counter").count(),
            1,
            "one TYPE line per family"
        );

        disable();
        reset();
        assert_eq!(SERVE_REQUEST_US.count(), 0, "reset clears histograms");
        assert_eq!(SERVE_BATCH_QUEUE_DEPTH.get(), 0, "reset clears gauges");
        SERVE_BATCH_QUEUE_DEPTH.set(9);
        assert_eq!(SERVE_BATCH_QUEUE_DEPTH.get(), 0, "disabled gauge must not record");
        assert!(
            std::ptr::eq(counter_with("test.errors", &[("tenant", "x")]), &DISABLED_COUNTER),
            "disabled families return the inert sink"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn exposition_name_and_label_helpers() {
        assert_eq!(sanitize_metric_name("serve.request_us"), "serve_request_us");
        assert_eq!(sanitize_metric_name("9lives"), "_lives");
        assert_eq!(sanitize_metric_name("a-b/c"), "a_b_c");
        assert_eq!(split_labels("plain"), ("plain", None));
        assert_eq!(
            split_labels("base{tenant=\"a\",code=\"4xx\"}"),
            ("base", Some("tenant=\"a\",code=\"4xx\""))
        );
        assert_eq!(
            labeled_name("m", &[("b", "2"), ("a", "x\"y\\z")]),
            "m{a=\"x\\\"y\\\\z\",b=\"2\"}"
        );
    }

    #[test]
    fn histogram_bucket_boundaries_and_empty_formatting() {
        // Boundaries: zero gets its own bucket; each power of two opens a
        // new one.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index((1 << 32) - 1), 32);
        assert_eq!(Histogram::bucket_index(1 << 32), 33);
        assert_eq!(Histogram::bucket_index(1 << 63), 64);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(1), 1);
        assert_eq!(Histogram::bucket_upper_bound(2), 3);
        assert_eq!(Histogram::bucket_upper_bound(10), 1023);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
        assert_eq!(Histogram::bucket_lower_bound(0), 0);
        assert_eq!(Histogram::bucket_lower_bound(1), 1);
        assert_eq!(Histogram::bucket_lower_bound(2), 2);
        assert_eq!(Histogram::bucket_lower_bound(10), 512);
        assert_eq!(Histogram::bucket_lower_bound(64), 1u64 << 63);
        // Every bucket's bounds nest: lower(i) == upper(i-1) + 1.
        for i in 1..=64usize {
            assert_eq!(
                Histogram::bucket_lower_bound(i),
                Histogram::bucket_upper_bound(i - 1).wrapping_add(1),
                "bucket {i} bounds are contiguous"
            );
        }

        // Empty histogram: all-zero summary that formats cleanly.
        let empty = Histogram::new("test.empty_hist");
        let s = empty.summarize();
        assert_eq!((s.count, s.p50, s.p95, s.p99, s.max), (0, 0, 0, 0, 0));
        assert_eq!(empty.quantile(0.5), 0);
        let row = format!(
            "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}",
            s.name, s.count, s.p50, s.p95, s.p99, s.max
        );
        assert!(row.starts_with("test.empty_hist"));

        // Quantiles over 1..=100: within-bucket linear interpolation puts
        // the estimates near the true order statistics instead of jumping
        // to the containing power-of-two bound.
        let h = Histogram::new("test.quantiles");
        for v in 1..=100u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.quantile(0.0), 1, "lowest sample sits in bucket [1,1]");
        assert_eq!(h.quantile(0.5), 50, "rank 50 of 19/32 through bucket [32,63]");
        assert_eq!(h.quantile(0.95), 95, "rank 95 interpolated in bucket [64,100]");
        assert_eq!(h.quantile(0.99), 99, "rank 99 interpolated in bucket [64,100]");
        assert_eq!(h.quantile(1.0), 100, "top of the top bucket is the exact max");
        let s = h.summarize();
        assert_eq!(s.max, 100);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        // Monotone in q.
        let mut prev = 0u64;
        for i in 0..=20 {
            let v = h.quantile(i as f64 / 20.0);
            assert!(v >= prev, "quantile must be monotone in q");
            prev = v;
        }

        // Exact powers of two: a single-valued bucket where the value is
        // both the max and the lower bound collapses to the exact value.
        let p = Histogram::new("test.pow2");
        for _ in 0..5 {
            p.observe(8);
        }
        assert_eq!(p.quantile(0.5), 8, "max-capping pins single-valued buckets");
        assert_eq!(p.quantile(1.0), 8);

        // Zeros-only and extreme values.
        let z = Histogram::new("test.zeros");
        z.observe(0);
        z.observe(0);
        assert_eq!(z.quantile(0.5), 0);
        assert_eq!(z.quantile(1.0), 0);
        let m = Histogram::new("test.extreme");
        m.observe(1);
        m.observe(u64::MAX);
        assert_eq!(m.quantile(0.0), 1);
        assert_eq!(m.quantile(1.0), u64::MAX, "top bucket interpolates up to the max");
    }
}
