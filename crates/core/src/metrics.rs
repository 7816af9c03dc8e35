//! Run statistics and per-cycle reports.

use nautilus_store::IoStats;
use nautilus_util::json_struct;

/// Cumulative statistics of a model-selection session.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Total elapsed seconds (virtual clock on the simulated backend).
    pub elapsed_secs: f64,
    /// Seconds attributed to useful compute.
    pub busy_secs: f64,
    /// Total FLOPs charged/executed.
    pub flops: f64,
    /// Bytes read from disk (page-cache misses on either backend).
    pub disk_read_bytes: u64,
    /// Bytes served from the page cache (the feature store's model of the
    /// OS page cache, on either backend).
    pub cached_read_bytes: u64,
    /// Bytes written.
    pub disk_write_bytes: u64,
}

json_struct!(RunStats {
    elapsed_secs,
    busy_secs,
    flops,
    disk_read_bytes,
    cached_read_bytes,
    disk_write_bytes
});

impl RunStats {
    /// Average compute utilization so far (the Fig 11 "GPU utilization"
    /// proxy).
    pub fn utilization(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            (self.busy_secs / self.elapsed_secs).min(1.0)
        }
    }

    pub(crate) fn from_parts(elapsed_secs: f64, busy_secs: f64, flops: f64, io: IoStats) -> Self {
        RunStats {
            elapsed_secs,
            busy_secs,
            flops,
            disk_read_bytes: io.disk_read_bytes,
            cached_read_bytes: io.cached_read_bytes,
            disk_write_bytes: io.disk_write_bytes,
        }
    }
}

/// Workload-initialization timing breakdown (Fig 6B's init split).
#[derive(Debug, Clone, Copy, Default)]
pub struct InitReport {
    /// Seconds creating the original model checkpoints.
    pub original_checkpoints_secs: f64,
    /// Seconds profiling the candidates.
    pub profiling_secs: f64,
    /// Seconds running the optimizer (MILP + fusion).
    pub optimize_secs: f64,
    /// Seconds generating checkpoints for the optimized plans.
    pub plan_checkpoints_secs: f64,
    /// Seconds the materialization MILP itself took (a slice of
    /// `optimize_secs`; zero for strategies that skip the MILP).
    pub milp_secs: f64,
    /// Total initialization seconds.
    pub total_secs: f64,
    /// Number of training units after fusion.
    pub num_units: usize,
    /// Number of materialized layers chosen.
    pub num_materialized: usize,
    /// Theoretical speedup (Eq 11) of the workload.
    pub theoretical_speedup: f64,
}

json_struct!(InitReport {
    original_checkpoints_secs,
    profiling_secs,
    optimize_secs,
    plan_checkpoints_secs,
    milp_secs,
    total_secs,
    num_units,
    num_materialized,
    theoretical_speedup
});

/// Report for one model-selection cycle (`fit` call).
#[derive(Debug, Clone)]
pub struct CycleReport {
    /// 1-based cycle number.
    pub cycle: usize,
    /// Training records accumulated through this cycle.
    pub train_records: usize,
    /// Validation records accumulated through this cycle.
    pub valid_records: usize,
    /// Seconds this cycle spent on materialization (data + features).
    pub materialize_secs: f64,
    /// Seconds this cycle spent training and evaluating.
    pub train_secs: f64,
    /// Total model-selection seconds for this cycle.
    pub cycle_secs: f64,
    /// Per-candidate validation accuracy (`None` on the simulated backend).
    pub accuracies: Vec<(String, Option<f32>)>,
    /// Best candidate by validation accuracy, when available.
    pub best: Option<(String, f32)>,
    /// Cumulative stats at the end of this cycle.
    pub stats: RunStats,
}

json_struct!(CycleReport {
    cycle,
    train_records,
    valid_records,
    materialize_secs,
    train_secs,
    cycle_secs,
    accuracies,
    best,
    stats
});

#[cfg(test)]
mod tests {
    use super::*;
    use nautilus_util::json::{from_slice, to_vec, FromJson};

    fn round_trip<T: nautilus_util::json::ToJson + FromJson>(v: &T) -> T {
        let bytes = to_vec(v);
        let json = from_slice(&bytes).expect("serialized report parses");
        T::from_json(&json).expect("report deserializes")
    }

    #[test]
    fn run_stats_json_round_trip() {
        let s = RunStats {
            elapsed_secs: 12.5,
            busy_secs: 7.25,
            flops: 3.5e9,
            disk_read_bytes: 1024,
            cached_read_bytes: 2048,
            disk_write_bytes: 512,
        };
        let back = round_trip(&s);
        assert_eq!(back.elapsed_secs, s.elapsed_secs);
        assert_eq!(back.busy_secs, s.busy_secs);
        assert_eq!(back.flops, s.flops);
        assert_eq!(back.disk_read_bytes, s.disk_read_bytes);
        assert_eq!(back.cached_read_bytes, s.cached_read_bytes);
        assert_eq!(back.disk_write_bytes, s.disk_write_bytes);
    }

    #[test]
    fn init_report_json_round_trip() {
        let r = InitReport {
            original_checkpoints_secs: 0.5,
            profiling_secs: 1.5,
            optimize_secs: 2.5,
            plan_checkpoints_secs: 0.25,
            milp_secs: 1.75,
            total_secs: 4.75,
            num_units: 3,
            num_materialized: 7,
            theoretical_speedup: 2.1,
        };
        let back = round_trip(&r);
        assert_eq!(back.milp_secs, r.milp_secs);
        assert_eq!(back.total_secs, r.total_secs);
        assert_eq!(back.num_units, r.num_units);
        assert_eq!(back.num_materialized, r.num_materialized);
        assert_eq!(back.theoretical_speedup, r.theoretical_speedup);
    }

    #[test]
    fn cycle_report_json_round_trip() {
        let r = CycleReport {
            cycle: 4,
            train_records: 100,
            valid_records: 25,
            materialize_secs: 0.75,
            train_secs: 3.25,
            cycle_secs: 4.0,
            accuracies: vec![("m0".into(), Some(0.875)), ("m1".into(), None)],
            best: Some(("m0".into(), 0.875)),
            stats: RunStats { elapsed_secs: 9.0, ..Default::default() },
        };
        let back = round_trip(&r);
        assert_eq!(back.cycle, r.cycle);
        assert_eq!(back.train_records, r.train_records);
        assert_eq!(back.accuracies, r.accuracies);
        assert_eq!(back.best, r.best);
        assert_eq!(back.stats.elapsed_secs, r.stats.elapsed_secs);
    }

    #[test]
    fn utilization_bounds() {
        let mut s = RunStats { elapsed_secs: 10.0, busy_secs: 6.0, ..Default::default() };
        assert!((s.utilization() - 0.6).abs() < 1e-9);
        s.busy_secs = 20.0;
        assert_eq!(s.utilization(), 1.0);
        s.elapsed_secs = 0.0;
        assert_eq!(s.utilization(), 0.0);
    }
}
