//! Execution backends: the clock a session runs on.
//!
//! The session, materializer and trainer run one code path on both
//! backends and report every duration as a difference of
//! [`Backend::elapsed_secs`]. Every byte either backend moves or models is
//! counted by the feature store ([`nautilus_store::TensorStore`], the one
//! IO ledger); what differs is the device behind the clock:
//!
//! * the **real** backend is this machine. Its clock is wall time, the
//!   program executes tensor math over real records, and IO and overheads
//!   already cost real time;
//! * the **simulated** backend is a clock and a cost model. Records carry
//!   counts but no payload, so nothing executes; instead a virtual clock
//!   advances by compute at the achieved-FLOPs rate, the fixed
//!   session/epoch/batch overheads from the [`HardwareProfile`], the
//!   measured wall time of CPU work the program really does on either
//!   backend (such as planning), and the ledger's IO: disk reads and
//!   writes at disk rate, cached reads at DRAM rate.
//!
//! The busy-time counter divided by elapsed time is the paper's GPU
//! utilization metric (Fig 11).

use crate::config::HardwareProfile;
use nautilus_store::SharedIoStats;
use nautilus_util::telemetry;
use std::time::Instant;

/// Which backend a session runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Actually execute training on CPU (tiny scale).
    Real,
    /// Charge costs to a virtual clock (paper scale).
    Simulated,
}

/// The session's clock.
#[derive(Debug)]
pub struct Backend {
    kind: BackendKind,
    hw: HardwareProfile,
    started: Instant,
    /// Virtual compute and overhead seconds (simulated only).
    sim_clock: f64,
    /// Seconds attributed to useful compute.
    busy_secs: f64,
    /// Total FLOPs charged.
    flops: f64,
    /// The ledger's counters, shared with the session's stores.
    pub io: SharedIoStats,
}

impl Backend {
    /// Creates a backend of the given kind over the ledger counters `io`.
    pub fn new(kind: BackendKind, hw: HardwareProfile, io: SharedIoStats) -> Self {
        let started = Instant::now();
        Backend { kind, hw, started, sim_clock: 0.0, busy_secs: 0.0, flops: 0.0, io }
    }

    /// A fresh backend of the same kind and hardware sharing this one's IO
    /// counters: the private accounting of a concurrent worker, folded back
    /// with [`Backend::absorb_compute`].
    pub fn fork(&self) -> Backend {
        Backend::new(self.kind, self.hw, self.io.clone())
    }

    /// True when tensors must actually be computed.
    pub fn is_real(&self) -> bool {
        self.kind == BackendKind::Real
    }

    /// Elapsed seconds: wall time (real), or the virtual clock plus the
    /// ledger's IO time (simulated).
    pub fn elapsed_secs(&self) -> f64 {
        match self.kind {
            BackendKind::Real => self.started.elapsed().as_secs_f64(),
            BackendKind::Simulated => {
                let io = self.io.snapshot();
                self.sim_clock
                    + (io.disk_read_bytes + io.disk_write_bytes) as f64 / self.hw.disk_bytes_per_sec
                    + io.cached_read_bytes as f64 / self.hw.dram_bytes_per_sec
            }
        }
    }

    /// Seconds attributed to useful compute so far.
    pub fn busy_secs(&self) -> f64 {
        self.busy_secs
    }

    /// Total FLOPs charged so far.
    pub fn total_flops(&self) -> f64 {
        self.flops
    }

    /// Folds compute accounted by a worker backend into this one. Used when
    /// independent training units run concurrently on the real backend: each
    /// worker tracks its own busy time and FLOPs (IO stats are already shared
    /// through [`SharedIoStats`]), and the session backend absorbs them so
    /// aggregate metrics match the serial accounting.
    pub fn absorb_compute(&mut self, busy_secs: f64, flops: f64) {
        self.busy_secs += busy_secs;
        self.flops += flops;
    }

    /// Charges `flops` of training/inference compute.
    ///
    /// Simulated: advances the clock. Real: records the measured duration
    /// the caller observed (`measured_secs`), attributing it to busy time.
    pub fn charge_compute(&mut self, flops: f64, measured_secs: Option<f64>) {
        self.flops += flops;
        telemetry::FLOPS.add(flops as u64);
        match self.kind {
            BackendKind::Simulated => {
                let secs = flops / self.hw.achieved_flops_per_sec;
                self.sim_clock += secs;
                self.busy_secs += secs;
            }
            BackendKind::Real => {
                if let Some(s) = measured_secs {
                    self.busy_secs += s;
                }
            }
        }
    }

    /// Charges fixed overhead seconds (simulated only — on the real
    /// backend overheads are real time).
    pub fn charge_overhead(&mut self, secs: f64) {
        if self.kind == BackendKind::Simulated {
            self.sim_clock += secs;
        }
    }

    /// Per-unit-session fixed overhead.
    pub fn charge_session_overhead(&mut self) {
        self.charge_overhead(self.hw.session_overhead_secs);
    }

    /// Per-epoch fixed overhead.
    pub fn charge_epoch_overhead(&mut self) {
        self.charge_overhead(self.hw.epoch_overhead_secs);
    }

    /// Per-mini-batch fixed overhead.
    pub fn charge_batch_overhead(&mut self) {
        self.charge_overhead(self.hw.batch_overhead_secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautilus_store::TensorStore;

    fn sim() -> Backend {
        let hw = HardwareProfile {
            achieved_flops_per_sec: 1e9,
            disk_bytes_per_sec: 1e6,
            dram_bytes_per_sec: 1e9,
            page_cache_bytes: 10_000,
            session_overhead_secs: 1.0,
            epoch_overhead_secs: 0.5,
            batch_overhead_secs: 0.1,
        };
        Backend::new(BackendKind::Simulated, hw, SharedIoStats::new())
    }

    #[test]
    fn compute_advances_clock_and_busy() {
        let mut b = sim();
        b.charge_compute(2e9, None);
        assert!((b.elapsed_secs() - 2.0).abs() < 1e-9);
        assert!((b.busy_secs() - 2.0).abs() < 1e-9);
        assert_eq!(b.total_flops(), 2e9);
    }

    /// A fresh store at a per-test path, counting into `b`'s ledger.
    fn store(b: &Backend, tag: &str) -> (TensorStore, std::path::PathBuf) {
        let dir = format!("nautilus-backend-{tag}-{}", std::process::id());
        let root = std::env::temp_dir().join(dir);
        let _ = std::fs::remove_dir_all(&root);
        (TensorStore::open(&root, b.io.clone()).unwrap(), root)
    }

    /// A modeled `[n]` record batch of `20 + 4 n` encoded bytes.
    fn modeled(n: usize) -> [(String, Vec<usize>, usize); 1] {
        [("x".to_string(), Vec::new(), n)]
    }

    #[test]
    fn first_read_is_disk_second_is_dram() {
        let b = sim();
        let (mut s, root) = store(&b, "reads");
        s.append_modeled(&modeled(245)).unwrap(); // 1000 B at disk rate
        drop(s);
        // Reopened, the store's page-cache model starts cold.
        let s = TensorStore::open(&root, b.io.clone()).unwrap();
        s.scan("x").unwrap();
        let after_miss = b.elapsed_secs();
        assert!((after_miss - 2e-3).abs() < 1e-12, "{after_miss}");
        s.scan("x").unwrap();
        let delta = b.elapsed_secs() - after_miss;
        assert!((delta - 1e-6).abs() < 1e-12, "{delta}");
        let io = b.io.snapshot();
        assert_eq!((io.disk_read_bytes, io.cached_read_bytes), (1000, 1000));
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn writes_and_overheads() {
        let mut b = sim();
        let (mut s, root) = store(&b, "writes");
        s.append_modeled(&modeled(495)).unwrap(); // 2000 B
        assert!((b.elapsed_secs() - 2e-3).abs() < 1e-9);
        b.charge_session_overhead();
        b.charge_epoch_overhead();
        b.charge_batch_overhead();
        assert!((b.elapsed_secs() - (2e-3 + 1.6)).abs() < 1e-9);
        assert_eq!(b.io.snapshot().disk_write_bytes, 2000);
        assert_eq!(b.busy_secs(), 0.0, "IO and overhead are not busy compute");
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn real_backend_uses_wall_clock_and_skips_charges() {
        let mut b = Backend::new(
            BackendKind::Real,
            HardwareProfile::default(),
            SharedIoStats::new(),
        );
        b.charge_overhead(1000.0);
        b.charge_compute(1e12, Some(0.25));
        assert!(b.elapsed_secs() < 10.0, "wall clock, not charged time");
        assert!((b.busy_secs() - 0.25).abs() < 1e-9);
    }
}
