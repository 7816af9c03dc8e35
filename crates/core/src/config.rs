//! System configuration: budgets, planner cost constants, and the hardware
//! profile used by the simulated backend.

use nautilus_util::json_struct;

/// Cost constants the *optimizer* uses (paper §3, user-overridable system
/// config). These intentionally differ from the simulated hardware profile:
/// the paper configures its planner with 500 MB/s disk and 6 TFLOP/s (50% of
/// Titan X peak), conservative relative to page-cache-served reads and
/// optimistic relative to small-batch GPU efficiency.
#[derive(Debug, Clone, Copy)]
pub struct PlannerCosts {
    /// Assumed disk read throughput in bytes/second.
    pub disk_bytes_per_sec: f64,
    /// Assumed compute throughput in FLOP/s.
    pub flops_per_sec: f64,
}

json_struct!(PlannerCosts { disk_bytes_per_sec, flops_per_sec });

impl Default for PlannerCosts {
    fn default() -> Self {
        PlannerCosts { disk_bytes_per_sec: 500e6, flops_per_sec: 6e12 }
    }
}

impl PlannerCosts {
    /// Converts a byte count into "missed compute" FLOPs — the paper's
    /// `cload` metric: load time × compute throughput. There is no wire
    /// term: a distributed run is a single-box session whose units train
    /// remotely, and it must plan exactly as the single box does.
    pub fn load_cost_flops(&self, bytes: u64) -> f64 {
        bytes as f64 / self.disk_bytes_per_sec * self.flops_per_sec
    }
}

/// Hardware behavior of the simulated backend.
///
/// `achieved_flops_per_sec` is deliberately below the planner's assumption
/// (small-batch DL training does not reach 50% of peak), and cached reads
/// run at DRAM speed — together these reproduce the regime in which the
/// paper's results live (selective materialization beats both recompute-
/// everything and load-everything).
#[derive(Debug, Clone, Copy)]
pub struct HardwareProfile {
    /// Sustained training throughput in FLOP/s.
    pub achieved_flops_per_sec: f64,
    /// Raw disk throughput in bytes/second (reads that miss cache; writes).
    pub disk_bytes_per_sec: f64,
    /// Page-cache-served read throughput in bytes/second.
    pub dram_bytes_per_sec: f64,
    /// Bytes of DRAM available to the page-cache model.
    pub page_cache_bytes: u64,
    /// Fixed cost of setting up one training session (model build, device
    /// placement, data pipeline) per training unit per cycle, seconds.
    pub session_overhead_secs: f64,
    /// Fixed per-epoch overhead (shuffle, pipeline warmup), seconds.
    pub epoch_overhead_secs: f64,
    /// Fixed per-mini-batch overhead (kernel launches, host sync), seconds.
    pub batch_overhead_secs: f64,
}

json_struct!(HardwareProfile {
    achieved_flops_per_sec,
    disk_bytes_per_sec,
    dram_bytes_per_sec,
    page_cache_bytes,
    session_overhead_secs,
    epoch_overhead_secs,
    batch_overhead_secs
});

impl Default for HardwareProfile {
    fn default() -> Self {
        HardwareProfile {
            achieved_flops_per_sec: 5e12,
            disk_bytes_per_sec: 500e6,
            dram_bytes_per_sec: 8e9,
            page_cache_bytes: 6 * (1 << 30),
            session_overhead_secs: 3.0,
            epoch_overhead_secs: 0.3,
            batch_overhead_secs: 0.002,
        }
    }
}

/// Feature-store I/O calibration knobs.
///
/// `calibrate` replaces the planner's static
/// `PlannerCosts::disk_bytes_per_sec` with a startup micro-probe of the
/// actual machine, re-blended with the observed page-cache hit curve at
/// every re-plan. (Store reads and writes themselves have no knobs: each
/// runs on the calling thread.)
#[derive(Debug, Clone, Copy)]
pub struct IoConfig {
    /// Measure disk bandwidth at session start and feed it to MAT-OPT
    /// instead of the static planner constant.
    pub calibrate: bool,
    /// Bytes transferred per calibration measurement.
    pub calibrate_probe_bytes: u64,
}

json_struct!(IoConfig { calibrate, calibrate_probe_bytes });

impl Default for IoConfig {
    fn default() -> Self {
        IoConfig { calibrate: false, calibrate_probe_bytes: 4 << 20 }
    }
}

/// Knobs for the online inference server (`nautilus-serve`).
///
/// The serving layer lives downstream of training: a session exports its
/// best trained model and the server answers prediction requests over a
/// loopback HTTP endpoint, micro-batching concurrent requests into one
/// forward pass. These knobs bound its queues and batching behavior.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Maximum records fused into one forward pass by the micro-batcher.
    pub max_batch: usize,
    /// Upper bound on how long the batcher holds a partial batch for
    /// requests that are announced but not yet enqueued, microseconds,
    /// counted from the batch's oldest record. A cap, not a wait: with
    /// nobody on the way (or the batch full) dispatch is immediate.
    pub max_delay_us: u64,
    /// Bound on the accepted-connection queue; connections beyond this are
    /// shed with `503` + `Retry-After` instead of queueing unboundedly.
    pub queue_limit: usize,
    /// Handler threads draining the connection queue.
    pub handler_threads: usize,
    /// Read timeout on a connection, milliseconds. A request that stalls
    /// part-way gets `408` instead of pinning a handler thread; a
    /// persistent connection with nothing buffered for this long is idle
    /// and is closed without a response.
    pub request_timeout_ms: u64,
    /// Largest request body accepted, bytes (`413` beyond this).
    pub max_body_bytes: usize,
    /// Maximum variants kept resident; publishing or faulting in beyond
    /// this LRU-evicts the coldest variant's delta to the delta store.
    pub max_resident_variants: usize,
    /// Directory backing the delta checkpoint store (eviction target and
    /// fault-in source). `None` disables eviction.
    pub delta_store_dir: Option<String>,
    /// Tenant id answered by the un-suffixed endpoints (`/predict`,
    /// `/model`).
    pub default_tenant: String,
    /// Row-quantize published variants to int8 by default: dense-layer
    /// weights get per-channel symmetric scales at publish time and the
    /// serving forward runs the i32-accumulating int8 kernel. Off by
    /// default — quantization trades a bounded logit delta for throughput,
    /// and the determinism policy keeps every numerics change opt-in.
    pub quantize_int8: bool,
}

json_struct!(ServingConfig {
    max_batch,
    max_delay_us,
    queue_limit,
    handler_threads,
    request_timeout_ms,
    max_body_bytes,
    max_resident_variants,
    delta_store_dir,
    default_tenant,
    quantize_int8
});

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            max_batch: 8,
            max_delay_us: 2_000,
            queue_limit: 64,
            handler_threads: 4,
            request_timeout_ms: 2_000,
            max_body_bytes: 1 << 20,
            max_resident_variants: 64,
            delta_store_dir: None,
            default_tenant: "default".to_string(),
            quantize_int8: false,
        }
    }
}

/// Knobs for the live observability plane: metric recording for the
/// server's `/metrics` exposition, the health watchdog's sampling tick
/// and SLO thresholds, and the structured event log.
///
/// SLO thresholds follow the convention `0` = "not enforced": the
/// watchdog still samples and exposes its rolling windows, but never
/// flips `/healthz` to `degraded` on that signal. This keeps default
/// deployments (and the existing test matrix) healthy unless an operator
/// opts into a budget.
#[derive(Debug, Clone)]
pub struct ObservabilityConfig {
    /// Record counters/gauges/histograms while the server runs (powers
    /// `/metrics` and the `/stats` latency block). Metric recording is
    /// independent of span tracing, so this does not grow trace buffers.
    pub metrics: bool,
    /// Health-watchdog sampling period, milliseconds. `0` disables the
    /// watchdog thread entirely (`/healthz` then reports instantaneous
    /// component state only).
    pub watchdog_tick_ms: u64,
    /// Rolling-window length, in ticks, over which SLO signals are
    /// evaluated; health recovers after one clean window.
    pub watchdog_window: usize,
    /// Degrade when the micro-batcher queue depth exceeds this at any
    /// sampled tick in the window. `0` = not enforced.
    pub slo_queue_depth: usize,
    /// Degrade when the windowed p99 of `serve.batch_us` exceeds this,
    /// microseconds. `0` = not enforced.
    pub slo_batch_p99_us: u64,
    /// Degrade when more than this many requests were shed within the
    /// window. `0` = not enforced.
    pub slo_shed_per_window: u64,
    /// Structured event-log destination: a file path, or `stderr`/`-`
    /// for standard error. `None` leaves the log to the `NAUTILUS_LOG`
    /// environment variable.
    pub log: Option<String>,
    /// Minimum event level written to the log: `debug`, `info`, `warn`,
    /// or `error`.
    pub log_level: String,
}

json_struct!(ObservabilityConfig {
    metrics,
    watchdog_tick_ms,
    watchdog_window,
    slo_queue_depth,
    slo_batch_p99_us,
    slo_shed_per_window,
    log,
    log_level
});

impl Default for ObservabilityConfig {
    fn default() -> Self {
        ObservabilityConfig {
            metrics: true,
            watchdog_tick_ms: 100,
            watchdog_window: 10,
            slo_queue_depth: 0,
            slo_batch_p99_us: 0,
            slo_shed_per_window: 0,
            log: None,
            log_level: "info".to_string(),
        }
    }
}

/// Knobs for the distributed execution plane (`nautilus-dist`).
///
/// The coordinator is a `ModelSelection` whose units train on
/// `RemoteUnits`: one shard per fused training unit, assigned to remote
/// worker processes with heartbeat-monitored leases, failed or timed-out
/// shards retried with capped exponential backoff. These knobs affect only
/// *when* and *where* units train — never the plan or its numerics, so
/// distributed selection output is the single-box output at any worker
/// count (see DESIGN.md "Distributed execution plane").
#[derive(Debug, Clone, Copy)]
pub struct DistConfig {
    /// Lease length for one dispatched shard, milliseconds: a worker that
    /// neither answers nor fails within this window forfeits the shard,
    /// which is retried elsewhere (counted in `dist.lease_timeouts`).
    pub lease_timeout_ms: u64,
    /// Period between coordinator `/healthz` probes of idle-state workers,
    /// milliseconds. A worker that misses a probe is declared dead and its
    /// in-flight leases are reassigned.
    pub heartbeat_ms: u64,
    /// Maximum retry attempts per shard (beyond the first try) before the
    /// distributed run fails.
    pub max_shard_retries: u32,
    /// Base delay for shard retry backoff, milliseconds; attempt `k`
    /// waits `retry_backoff_ms * 2^k`, capped by `retry_backoff_cap_ms`.
    pub retry_backoff_ms: u64,
    /// Upper bound on the exponential retry backoff, milliseconds.
    pub retry_backoff_cap_ms: u64,
    /// TCP connect + health-probe timeout, milliseconds.
    pub connect_timeout_ms: u64,
    /// Bytes echoed per worker by the network micro-probe at connect
    /// (reported, never fed to the planner).
    pub net_probe_bytes: u64,
}

json_struct!(DistConfig {
    lease_timeout_ms,
    heartbeat_ms,
    max_shard_retries,
    retry_backoff_ms,
    retry_backoff_cap_ms,
    connect_timeout_ms,
    net_probe_bytes
});

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            lease_timeout_ms: 60_000,
            heartbeat_ms: 500,
            max_shard_retries: 4,
            retry_backoff_ms: 100,
            retry_backoff_cap_ms: 5_000,
            connect_timeout_ms: 2_000,
            net_probe_bytes: 1 << 20,
        }
    }
}

/// Full system configuration (paper §3: budgets, expected maximum records,
/// throughput values; all user-overridable).
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Disk storage budget `Bdisk` for materialized layer outputs, bytes.
    pub disk_budget_bytes: u64,
    /// Runtime memory budget `Bmem` for fused-model training, bytes.
    pub memory_budget_bytes: u64,
    /// Expected maximum number of training records `r` (grown by
    /// exponential backoff when exceeded, §4.2.3).
    pub max_records: usize,
    /// Planner cost constants.
    pub planner: PlannerCosts,
    /// Simulated hardware. The real backend ignores the throughput knobs
    /// but sizes the feature store's page-cache model from
    /// `page_cache_bytes`.
    pub hardware: HardwareProfile,
    /// Workspace memory reserved for kernel scratch, bytes (§4.3.3 type 2).
    pub workspace_bytes: u64,
    /// Shuffle the training set each epoch (seeded by `(records, epoch)`,
    /// so every execution strategy sees the identical permutation and the
    /// logical-equivalence guarantee is preserved).
    pub shuffle_each_epoch: bool,
    /// MILP node budget per solve.
    pub milp_max_nodes: u64,
    /// MILP wall-clock budget per solve, seconds.
    pub milp_time_limit_secs: u64,
    /// Worker threads for the shared compute pool (`0` = decide from the
    /// host's available parallelism). `NAUTILUS_THREADS` overrides this,
    /// and the value only takes effect if set before the pool's first use.
    pub threads: usize,
    /// Chrome-trace output path. `Some(path)` enables the telemetry layer
    /// for the whole process and exports the trace there when the session
    /// drops. `NAUTILUS_TRACE` offers the same knob environmentally.
    pub trace: Option<String>,
    /// GEMM microkernel preference for the real backend: `"safe"` (the
    /// portable, bit-stable default) or `"fma"` (the explicit AVX2+FMA
    /// microkernel, used only when the host supports it). Applied
    /// process-wide when a session with a real backend is created;
    /// `NAUTILUS_GEMM_KERNEL` overrides it environmentally. See DESIGN.md
    /// "Determinism policy" for why FMA is opt-in.
    pub gemm_kernel: String,
    /// Online inference server knobs (queue bounds, micro-batching).
    pub serving: ServingConfig,
    /// Feature-store I/O calibration knobs.
    pub io: IoConfig,
    /// Live observability knobs (`/metrics`, health watchdog SLOs,
    /// structured event log).
    pub observability: ObservabilityConfig,
    /// Distributed execution plane knobs (leases, retries, network probe).
    pub dist: DistConfig,
}

json_struct!(SystemConfig {
    disk_budget_bytes,
    memory_budget_bytes,
    max_records,
    planner,
    hardware,
    workspace_bytes,
    shuffle_each_epoch,
    milp_max_nodes,
    milp_time_limit_secs,
    threads,
    trace,
    gemm_kernel,
    serving,
    io,
    observability,
    dist
});

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            disk_budget_bytes: 25 * (1 << 30), // 25 GB, §5
            memory_budget_bytes: 10 * (1 << 30), // 10 GB, §5
            max_records: 10_000,
            planner: PlannerCosts::default(),
            hardware: HardwareProfile::default(),
            workspace_bytes: 1 << 30, // "e.g., 1GB", §4.3.3
            shuffle_each_epoch: true,
            milp_max_nodes: 50_000,
            milp_time_limit_secs: 30,
            threads: 0,
            trace: None,
            gemm_kernel: "safe".to_string(),
            serving: ServingConfig::default(),
            io: IoConfig::default(),
            observability: ObservabilityConfig::default(),
            dist: DistConfig::default(),
        }
    }
}

impl SystemConfig {
    /// Starts a fluent builder seeded with the paper-scale defaults.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder { cfg: SystemConfig::default() }
    }

    /// A configuration scaled down for tiny real-backend runs: megabyte
    /// budgets, small `r`, negligible fixed overheads. A builder preset —
    /// refine it further with [`SystemConfig::into_builder`].
    pub fn tiny() -> Self {
        SystemConfig::builder()
            .disk_budget_bytes(64 << 20)
            .memory_budget_bytes(256 << 20)
            .max_records(256)
            .planner(PlannerCosts { disk_bytes_per_sec: 500e6, flops_per_sec: 5e9 })
            .hardware(HardwareProfile {
                achieved_flops_per_sec: 2e9,
                page_cache_bytes: 64 << 20,
                session_overhead_secs: 0.01,
                epoch_overhead_secs: 0.001,
                batch_overhead_secs: 0.0,
                ..HardwareProfile::default()
            })
            .workspace_bytes(8 << 20)
            .milp_max_nodes(20_000)
            .milp_time_limit_secs(10)
            .build()
    }

    /// Reopens this configuration as a builder for further overrides.
    pub fn into_builder(self) -> SystemConfigBuilder {
        SystemConfigBuilder { cfg: self }
    }
}

/// Fluent builder for [`SystemConfig`]; obtained from
/// [`SystemConfig::builder`] (paper-scale defaults) or
/// [`SystemConfig::into_builder`] (refine a preset such as
/// [`SystemConfig::tiny`]).
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    cfg: SystemConfig,
}

impl SystemConfigBuilder {
    /// Disk storage budget `Bdisk` for materialized layers, bytes.
    pub fn disk_budget_bytes(mut self, v: u64) -> Self {
        self.cfg.disk_budget_bytes = v;
        self
    }

    /// Runtime memory budget `Bmem` for fused training, bytes.
    pub fn memory_budget_bytes(mut self, v: u64) -> Self {
        self.cfg.memory_budget_bytes = v;
        self
    }

    /// Expected maximum number of training records `r`.
    pub fn max_records(mut self, v: usize) -> Self {
        self.cfg.max_records = v;
        self
    }

    /// Planner cost constants (optimizer's view of the hardware).
    pub fn planner(mut self, v: PlannerCosts) -> Self {
        self.cfg.planner = v;
        self
    }

    /// Overrides only the planner's compute-throughput assumption.
    pub fn planner_flops_per_sec(mut self, v: f64) -> Self {
        self.cfg.planner.flops_per_sec = v;
        self
    }

    /// Overrides only the planner's disk-throughput assumption.
    pub fn planner_disk_bytes_per_sec(mut self, v: f64) -> Self {
        self.cfg.planner.disk_bytes_per_sec = v;
        self
    }

    /// Simulated hardware profile.
    pub fn hardware(mut self, v: HardwareProfile) -> Self {
        self.cfg.hardware = v;
        self
    }

    /// Workspace memory reserved for kernel scratch, bytes.
    pub fn workspace_bytes(mut self, v: u64) -> Self {
        self.cfg.workspace_bytes = v;
        self
    }

    /// Shuffle the training set each epoch.
    pub fn shuffle_each_epoch(mut self, v: bool) -> Self {
        self.cfg.shuffle_each_epoch = v;
        self
    }

    /// MILP node budget per solve.
    pub fn milp_max_nodes(mut self, v: u64) -> Self {
        self.cfg.milp_max_nodes = v;
        self
    }

    /// MILP wall-clock budget per solve, seconds.
    pub fn milp_time_limit_secs(mut self, v: u64) -> Self {
        self.cfg.milp_time_limit_secs = v;
        self
    }

    /// Worker threads for the shared compute pool (`0` = auto).
    pub fn threads(mut self, v: usize) -> Self {
        self.cfg.threads = v;
        self
    }

    /// Enables telemetry and writes the Chrome trace to `path` when the
    /// session drops (equivalent to setting `NAUTILUS_TRACE=path`).
    pub fn trace(mut self, path: impl Into<String>) -> Self {
        self.cfg.trace = Some(path.into());
        self
    }

    /// Replaces the whole serving configuration.
    pub fn serving(mut self, v: ServingConfig) -> Self {
        self.cfg.serving = v;
        self
    }

    /// Maximum records fused into one serving forward pass.
    pub fn serve_max_batch(mut self, v: usize) -> Self {
        self.cfg.serving.max_batch = v;
        self
    }

    /// Maximum micro-batcher wait for batch-mates, microseconds.
    pub fn serve_max_delay_us(mut self, v: u64) -> Self {
        self.cfg.serving.max_delay_us = v;
        self
    }

    /// Bound on the server's accepted-connection queue.
    pub fn serve_queue_limit(mut self, v: usize) -> Self {
        self.cfg.serving.queue_limit = v;
        self
    }

    /// Handler threads draining the server's connection queue.
    pub fn serve_handler_threads(mut self, v: usize) -> Self {
        self.cfg.serving.handler_threads = v;
        self
    }

    /// Per-connection read timeout, milliseconds.
    pub fn serve_request_timeout_ms(mut self, v: u64) -> Self {
        self.cfg.serving.request_timeout_ms = v;
        self
    }

    /// Largest request body accepted by the server, bytes.
    pub fn serve_max_body_bytes(mut self, v: usize) -> Self {
        self.cfg.serving.max_body_bytes = v;
        self
    }

    /// Maximum model variants kept resident before LRU delta eviction.
    pub fn serve_max_resident_variants(mut self, v: usize) -> Self {
        self.cfg.serving.max_resident_variants = v;
        self
    }

    /// Directory backing the delta checkpoint store (enables eviction).
    pub fn serve_delta_store_dir(mut self, path: impl Into<String>) -> Self {
        self.cfg.serving.delta_store_dir = Some(path.into());
        self
    }

    /// Tenant id served by the un-suffixed `/predict` and `/model` routes.
    pub fn serve_default_tenant(mut self, id: impl Into<String>) -> Self {
        self.cfg.serving.default_tenant = id.into();
        self
    }

    /// Row-quantize published variants to int8 for serving by default.
    pub fn serve_quantize_int8(mut self, v: bool) -> Self {
        self.cfg.serving.quantize_int8 = v;
        self
    }

    /// GEMM microkernel preference: `"safe"` (default) or `"fma"`.
    pub fn gemm_kernel(mut self, v: impl Into<String>) -> Self {
        self.cfg.gemm_kernel = v.into();
        self
    }

    /// Replaces the whole feature-store I/O configuration.
    pub fn io(mut self, v: IoConfig) -> Self {
        self.cfg.io = v;
        self
    }

    /// Measure disk bandwidth at session start and feed it to MAT-OPT.
    pub fn io_calibrate(mut self, v: bool) -> Self {
        self.cfg.io.calibrate = v;
        self
    }

    /// Bytes transferred per calibration measurement.
    pub fn io_calibrate_probe_bytes(mut self, v: u64) -> Self {
        self.cfg.io.calibrate_probe_bytes = v;
        self
    }

    /// Replaces the whole observability configuration.
    pub fn observability(mut self, v: ObservabilityConfig) -> Self {
        self.cfg.observability = v;
        self
    }

    /// Record live metrics while the server runs (powers `/metrics`).
    pub fn obs_metrics(mut self, v: bool) -> Self {
        self.cfg.observability.metrics = v;
        self
    }

    /// Health-watchdog sampling period, milliseconds (`0` disables).
    pub fn obs_watchdog_tick_ms(mut self, v: u64) -> Self {
        self.cfg.observability.watchdog_tick_ms = v;
        self
    }

    /// Rolling-window length, in watchdog ticks.
    pub fn obs_watchdog_window(mut self, v: usize) -> Self {
        self.cfg.observability.watchdog_window = v;
        self
    }

    /// SLO: maximum tolerated micro-batcher queue depth (`0` = off).
    pub fn obs_slo_queue_depth(mut self, v: usize) -> Self {
        self.cfg.observability.slo_queue_depth = v;
        self
    }

    /// SLO: maximum tolerated windowed batch-latency p99, µs (`0` = off).
    pub fn obs_slo_batch_p99_us(mut self, v: u64) -> Self {
        self.cfg.observability.slo_batch_p99_us = v;
        self
    }

    /// SLO: maximum tolerated shed requests per window (`0` = off).
    pub fn obs_slo_shed_per_window(mut self, v: u64) -> Self {
        self.cfg.observability.slo_shed_per_window = v;
        self
    }

    /// Structured event-log destination (path, or `stderr`/`-`).
    pub fn obs_log(mut self, dest: impl Into<String>) -> Self {
        self.cfg.observability.log = Some(dest.into());
        self
    }

    /// Minimum event level written to the log.
    pub fn obs_log_level(mut self, level: impl Into<String>) -> Self {
        self.cfg.observability.log_level = level.into();
        self
    }

    /// Replaces the whole distributed-execution configuration.
    pub fn dist(mut self, v: DistConfig) -> Self {
        self.cfg.dist = v;
        self
    }

    /// Lease length for one dispatched shard, milliseconds.
    pub fn dist_lease_timeout_ms(mut self, v: u64) -> Self {
        self.cfg.dist.lease_timeout_ms = v;
        self
    }

    /// Coordinator heartbeat probe period, milliseconds.
    pub fn dist_heartbeat_ms(mut self, v: u64) -> Self {
        self.cfg.dist.heartbeat_ms = v;
        self
    }

    /// Maximum retry attempts per shard beyond the first try.
    pub fn dist_max_shard_retries(mut self, v: u32) -> Self {
        self.cfg.dist.max_shard_retries = v;
        self
    }

    /// Base delay for shard retry backoff, milliseconds.
    pub fn dist_retry_backoff_ms(mut self, v: u64) -> Self {
        self.cfg.dist.retry_backoff_ms = v;
        self
    }

    /// Upper bound on the exponential retry backoff, milliseconds.
    pub fn dist_retry_backoff_cap_ms(mut self, v: u64) -> Self {
        self.cfg.dist.retry_backoff_cap_ms = v;
        self
    }

    /// TCP connect + health-probe timeout, milliseconds.
    pub fn dist_connect_timeout_ms(mut self, v: u64) -> Self {
        self.cfg.dist.connect_timeout_ms = v;
        self
    }

    /// Bytes echoed per worker by the network micro-probe.
    pub fn dist_net_probe_bytes(mut self, v: u64) -> Self {
        self.cfg.dist.net_probe_bytes = v;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> SystemConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_cost_matches_paper_formula() {
        let p = PlannerCosts::default();
        // 500 MB at 500 MB/s = 1 s = 6 TFLOP of missed compute.
        let c = p.load_cost_flops(500_000_000);
        assert!((c - 6e12).abs() / 6e12 < 1e-9);
    }

    #[test]
    fn defaults_match_paper_budgets() {
        let c = SystemConfig::default();
        assert_eq!(c.disk_budget_bytes, 25 * 1024 * 1024 * 1024);
        assert_eq!(c.memory_budget_bytes, 10 * 1024 * 1024 * 1024);
        assert_eq!(c.max_records, 10_000);
    }

    #[test]
    fn builder_defaults_match_default_config() {
        let built = SystemConfig::builder().build();
        let def = SystemConfig::default();
        assert_eq!(built.disk_budget_bytes, def.disk_budget_bytes);
        assert_eq!(built.memory_budget_bytes, def.memory_budget_bytes);
        assert_eq!(built.max_records, def.max_records);
        assert_eq!(built.threads, def.threads);
    }

    #[test]
    fn builder_setters_override_each_knob() {
        let cfg = SystemConfig::builder()
            .disk_budget_bytes(123)
            .memory_budget_bytes(456)
            .max_records(7)
            .planner(PlannerCosts { disk_bytes_per_sec: 1.0, flops_per_sec: 2.0 })
            .hardware(HardwareProfile { page_cache_bytes: 99, ..HardwareProfile::default() })
            .workspace_bytes(8)
            .shuffle_each_epoch(false)
            .milp_max_nodes(9)
            .milp_time_limit_secs(10)
            .threads(4)
            .trace("/tmp/trace.json")
            .build();
        assert_eq!(cfg.disk_budget_bytes, 123);
        assert_eq!(cfg.memory_budget_bytes, 456);
        assert_eq!(cfg.max_records, 7);
        assert_eq!(cfg.planner.flops_per_sec, 2.0);
        assert_eq!(cfg.hardware.page_cache_bytes, 99);
        assert_eq!(cfg.workspace_bytes, 8);
        assert!(!cfg.shuffle_each_epoch);
        assert_eq!(cfg.milp_max_nodes, 9);
        assert_eq!(cfg.milp_time_limit_secs, 10);
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.trace.as_deref(), Some("/tmp/trace.json"));
    }

    #[test]
    fn tiny_preset_reopens_as_builder() {
        let cfg = SystemConfig::tiny().into_builder().threads(2).build();
        assert_eq!(cfg.disk_budget_bytes, 64 << 20);
        assert_eq!(cfg.max_records, 256);
        assert_eq!(cfg.threads, 2);
    }

    #[test]
    fn serving_knobs_build_and_round_trip() {
        use nautilus_util::json::{FromJson, ToJson};
        let cfg = SystemConfig::builder()
            .serve_max_batch(16)
            .serve_max_delay_us(500)
            .serve_queue_limit(3)
            .serve_handler_threads(2)
            .serve_request_timeout_ms(250)
            .serve_max_body_bytes(4096)
            .serve_max_resident_variants(12)
            .serve_delta_store_dir("/tmp/deltas")
            .serve_default_tenant("acme")
            .build();
        assert_eq!(cfg.serving.max_batch, 16);
        assert_eq!(cfg.serving.max_delay_us, 500);
        assert_eq!(cfg.serving.queue_limit, 3);
        assert_eq!(cfg.serving.handler_threads, 2);
        assert_eq!(cfg.serving.request_timeout_ms, 250);
        assert_eq!(cfg.serving.max_body_bytes, 4096);
        assert_eq!(cfg.serving.max_resident_variants, 12);
        assert_eq!(cfg.serving.delta_store_dir.as_deref(), Some("/tmp/deltas"));
        assert_eq!(cfg.serving.default_tenant, "acme");

        let bytes = nautilus_util::json::to_vec(&cfg.serving.to_json());
        let back = ServingConfig::from_json(&nautilus_util::json::from_slice(&bytes).unwrap())
            .expect("serving config round-trips through json");
        assert_eq!(back.max_batch, 16);
        assert_eq!(back.queue_limit, 3);
        assert_eq!(back.max_body_bytes, 4096);
        assert_eq!(back.max_resident_variants, 12);
        assert_eq!(back.delta_store_dir.as_deref(), Some("/tmp/deltas"));
        assert_eq!(back.default_tenant, "acme");
    }

    #[test]
    fn io_knobs_build_and_round_trip() {
        use nautilus_util::json::{FromJson, ToJson};
        let cfg =
            SystemConfig::builder().io_calibrate(true).io_calibrate_probe_bytes(1 << 20).build();
        assert!(cfg.io.calibrate);
        assert_eq!(cfg.io.calibrate_probe_bytes, 1 << 20);

        let bytes = nautilus_util::json::to_vec(&cfg.io.to_json());
        let back = IoConfig::from_json(&nautilus_util::json::from_slice(&bytes).unwrap())
            .expect("io config round-trips through json");
        assert!(back.calibrate);
        assert_eq!(back.calibrate_probe_bytes, 1 << 20);
    }

    #[test]
    fn config_json_with_the_removed_io_pipeline_fields_still_parses() {
        use nautilus_util::json::{FromJson, ToJson};
        // A config saved when the store had an asynchronous pipeline carries
        // four `io` fields that no longer exist; unknown fields are ignored.
        let mut cfg = SystemConfig::tiny();
        cfg.io.calibrate = true;
        let text = String::from_utf8(nautilus_util::json::to_vec(&cfg.to_json())).unwrap();
        let old = text.replacen(
            "\"io\":{",
            "\"io\":{\"prefetch\":true,\"io_threads\":2,\"write_behind\":true,\"read_delay_ms\":0,",
            1,
        );
        assert_ne!(old, text, "the io object was found and extended");
        let json = nautilus_util::json::from_slice(old.as_bytes()).unwrap();
        let back = SystemConfig::from_json(&json).expect("a config with the removed io fields parses");
        assert!(back.io.calibrate);
        assert_eq!(back.io.calibrate_probe_bytes, cfg.io.calibrate_probe_bytes);
    }

    #[test]
    fn observability_knobs_build_and_round_trip() {
        use nautilus_util::json::{FromJson, ToJson};
        let cfg = SystemConfig::builder()
            .obs_metrics(false)
            .obs_watchdog_tick_ms(25)
            .obs_watchdog_window(6)
            .obs_slo_queue_depth(4)
            .obs_slo_batch_p99_us(50_000)
            .obs_slo_shed_per_window(2)
            .obs_log("/tmp/events.jsonl")
            .obs_log_level("warn")
            .build();
        assert!(!cfg.observability.metrics);
        assert_eq!(cfg.observability.watchdog_tick_ms, 25);
        assert_eq!(cfg.observability.watchdog_window, 6);
        assert_eq!(cfg.observability.slo_queue_depth, 4);
        assert_eq!(cfg.observability.slo_batch_p99_us, 50_000);
        assert_eq!(cfg.observability.slo_shed_per_window, 2);
        assert_eq!(cfg.observability.log.as_deref(), Some("/tmp/events.jsonl"));
        assert_eq!(cfg.observability.log_level, "warn");

        let bytes = nautilus_util::json::to_vec(&cfg.observability.to_json());
        let back =
            ObservabilityConfig::from_json(&nautilus_util::json::from_slice(&bytes).unwrap())
                .expect("observability config round-trips through json");
        assert!(!back.metrics);
        assert_eq!(back.watchdog_tick_ms, 25);
        assert_eq!(back.slo_queue_depth, 4);
        assert_eq!(back.log.as_deref(), Some("/tmp/events.jsonl"));
    }

    #[test]
    fn observability_defaults_record_metrics_but_enforce_no_slos() {
        let o = ObservabilityConfig::default();
        assert!(o.metrics, "metrics power /metrics and must default on");
        assert!(o.watchdog_tick_ms > 0 && o.watchdog_window > 0);
        assert_eq!(
            (o.slo_queue_depth, o.slo_batch_p99_us, o.slo_shed_per_window),
            (0, 0, 0),
            "SLO budgets are opt-in: default deployments never self-degrade"
        );
    }

    #[test]
    fn io_defaults_enable_async_pipeline_but_not_calibration() {
        let io = IoConfig::default();
        assert!(io.calibrate_probe_bytes > 0);
        assert!(!io.calibrate, "calibration is opt-in (it touches the disk at startup)");
    }

    #[test]
    fn dist_knobs_build_and_round_trip() {
        use nautilus_util::json::{FromJson, ToJson};
        let cfg = SystemConfig::builder()
            .dist_lease_timeout_ms(1234)
            .dist_heartbeat_ms(50)
            .dist_max_shard_retries(2)
            .dist_retry_backoff_ms(10)
            .dist_retry_backoff_cap_ms(100)
            .dist_connect_timeout_ms(500)
            .dist_net_probe_bytes(4096)
            .build();
        assert_eq!(cfg.dist.lease_timeout_ms, 1234);
        assert_eq!(cfg.dist.heartbeat_ms, 50);
        assert_eq!(cfg.dist.max_shard_retries, 2);
        assert_eq!(cfg.dist.retry_backoff_ms, 10);
        assert_eq!(cfg.dist.retry_backoff_cap_ms, 100);
        assert_eq!(cfg.dist.connect_timeout_ms, 500);
        assert_eq!(cfg.dist.net_probe_bytes, 4096);

        let bytes = nautilus_util::json::to_vec(&cfg.dist.to_json());
        let back = DistConfig::from_json(&nautilus_util::json::from_slice(&bytes).unwrap())
            .expect("dist config round-trips through json");
        assert_eq!(back.lease_timeout_ms, 1234);
        assert_eq!(back.max_shard_retries, 2);
    }

    #[test]
    fn sim_hardware_is_slower_than_planner_assumption() {
        let c = SystemConfig::default();
        assert!(c.hardware.achieved_flops_per_sec < c.planner.flops_per_sec);
        assert!(c.hardware.dram_bytes_per_sec > c.planner.disk_bytes_per_sec);
    }
}
