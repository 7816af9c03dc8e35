//! Execution backends: the device a session runs on.
//!
//! The session, materializer and trainer run one code path on both
//! backends and report every duration as a difference of
//! [`Backend::elapsed_secs`]. What differs is the device behind it:
//!
//! * the **real** backend is this machine. Its clock is wall time, the
//!   program executes tensor math over real records, and `charge_*` calls
//!   only update counters (IO and overheads already cost real time);
//! * the **simulated** backend is a clock and a cost model. Records carry
//!   counts but no payload, so nothing executes; instead a virtual clock
//!   advances by compute at the achieved-FLOPs rate, reads through the
//!   [`PageCacheModel`] (disk on miss, DRAM on hit, keyed per object),
//!   writes at disk rate, the fixed session/epoch/batch overheads from the
//!   [`HardwareProfile`], and the measured wall time of CPU work the
//!   program really does on either backend, such as planning.
//!
//! The busy-time counter divided by elapsed time is the paper's GPU
//! utilization metric (Fig 11).

use crate::config::HardwareProfile;
use nautilus_store::{PageCacheModel, SharedIoStats};
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

/// The accounting backend.
#[derive(Debug)]
pub struct Backend {
    kind: BackendKind,
    hw: HardwareProfile,
    started: Instant,
    /// Virtual clock, seconds (simulated only).
    sim_clock: f64,
    /// Seconds attributed to useful compute.
    busy_secs: f64,
    /// Total FLOPs charged.
    flops: f64,
    /// Shared IO counters (also wired into the real stores).
    pub io: SharedIoStats,
    cache: PageCacheModel,
}

impl Backend {
    /// Creates a backend of the given kind.
    pub fn new(kind: BackendKind, hw: HardwareProfile, io: SharedIoStats) -> Self {
        let cache = PageCacheModel::new(hw.page_cache_bytes);
        Backend { kind, hw, started: Instant::now(), sim_clock: 0.0, busy_secs: 0.0, flops: 0.0, io, cache }
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

    /// Elapsed seconds: wall time (real) or virtual clock (simulated).
    pub fn elapsed_secs(&self) -> f64 {
        match self.kind {
            BackendKind::Real => self.started.elapsed().as_secs_f64(),
            BackendKind::Simulated => self.sim_clock,
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

    /// Charges a read of `bytes` of object `key`.
    ///
    /// Simulated: page-cache model decides disk vs. DRAM time and updates
    /// the IO counters. Real: the store already did the IO and counted it;
    /// this is a no-op.
    pub fn charge_read(&mut self, key: &str, bytes: u64) {
        if self.kind == BackendKind::Real {
            return;
        }
        let outcome = self.cache.read(key, bytes);
        if outcome.miss_bytes > 0 {
            self.io.record_disk_read(outcome.miss_bytes);
            self.sim_clock += outcome.miss_bytes as f64 / self.hw.disk_bytes_per_sec;
        }
        if outcome.hit_bytes > 0 {
            self.io.record_cached_read(outcome.hit_bytes);
            self.sim_clock += outcome.hit_bytes as f64 / self.hw.dram_bytes_per_sec;
        }
    }

    /// A write of `bytes` to object `key` that the program performs: the
    /// real device runs `save` and counts its bytes; the simulated device
    /// charges the modeled write instead and skips `save`.
    pub fn write<E>(
        &mut self,
        key: &str,
        bytes: u64,
        save: impl FnOnce() -> Result<(), E>,
    ) -> Result<(), E> {
        match self.kind {
            BackendKind::Real => {
                save()?;
                self.io.record_write(bytes);
            }
            BackendKind::Simulated => self.charge_write(key, bytes),
        }
        Ok(())
    }

    /// Charges a modeled write of `bytes` to object `key` (simulated only:
    /// real stores count their own writes, and writes only the simulated
    /// device models, such as the raw snapshot, cost nothing here).
    pub fn charge_write(&mut self, key: &str, bytes: u64) {
        if self.kind == BackendKind::Real {
            return;
        }
        self.cache.write(key, bytes);
        self.io.record_write(bytes);
        self.sim_clock += bytes as f64 / self.hw.disk_bytes_per_sec;
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

    /// Invalidate a cached object (dropped materialization).
    pub fn invalidate_cache(&mut self, key: &str) {
        self.cache.invalidate(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn first_read_is_disk_second_is_dram() {
        let mut b = sim();
        b.charge_read("x", 1000);
        let after_miss = b.elapsed_secs();
        assert!((after_miss - 1e-3).abs() < 1e-9, "{after_miss}");
        b.charge_read("x", 1000);
        let delta = b.elapsed_secs() - after_miss;
        assert!((delta - 1e-6).abs() < 1e-9, "{delta}");
        let io = b.io.snapshot();
        assert_eq!(io.disk_read_bytes, 1000);
        assert_eq!(io.cached_read_bytes, 1000);
    }

    #[test]
    fn writes_and_overheads() {
        let mut b = sim();
        b.charge_write("w", 2000);
        assert!((b.elapsed_secs() - 2e-3).abs() < 1e-9);
        b.charge_session_overhead();
        b.charge_epoch_overhead();
        b.charge_batch_overhead();
        assert!((b.elapsed_secs() - (2e-3 + 1.6)).abs() < 1e-9);
        assert_eq!(b.io.snapshot().disk_write_bytes, 2000);
        assert_eq!(b.busy_secs(), 0.0, "IO and overhead are not busy compute");
    }

    #[test]
    fn real_backend_uses_wall_clock_and_skips_charges() {
        let mut b = Backend::new(
            BackendKind::Real,
            HardwareProfile::default(),
            SharedIoStats::new(),
        );
        b.charge_read("x", 1_000_000);
        b.charge_write("y", 1_000_000);
        b.charge_overhead(1000.0);
        b.charge_compute(1e12, Some(0.25));
        assert!(b.elapsed_secs() < 10.0, "wall clock, not charged time");
        assert_eq!(b.io.snapshot().disk_read_bytes, 0);
        assert!((b.busy_secs() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn invalidation_forces_disk_again() {
        let mut b = sim();
        b.charge_read("x", 1000);
        b.invalidate_cache("x");
        b.charge_read("x", 1000);
        assert_eq!(b.io.snapshot().disk_read_bytes, 2000);
    }
}
