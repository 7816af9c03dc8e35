//! The training workloads: labeling cycles through `ModelSelection::{new,fit}`
//! on the real backend.
//!
//! One *session* is a fixed amount of work — build the candidates, generate
//! the seed's data, `ModelSelection::new`, then `cycles` calls of `fit()` on
//! growing data. Sessions repeat until the measuring window is used up; the
//! reported time is the median session, so one scheduler hiccup moves
//! nothing. Set-up is sampled once per session plus a few set-up-only rounds.

use crate::result::{digest_bits, dir_bytes, peak_rss_mb, Check};
use crate::{probes, spans, stats, Outcome, RunOpts};
use nautilus_core::mat_opt::MilpRunStats;
use nautilus_core::metrics::{CycleReport, InitReport};
use nautilus_core::session::{CycleInput, ModelSelection};
use nautilus_core::workloads::{Scale, WorkloadKind, WorkloadSpec};
use nautilus_core::{BackendKind, CandidateModel, RunStats, Strategy, SystemConfig};
use nautilus_data::{Dataset, ImageDatasetConfig, NerDatasetConfig};
use std::path::Path;
use std::time::Instant;

/// A training workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    /// Which of the paper's workloads supplies the candidate grid.
    pub kind: WorkloadKind,
    /// Execution strategy under test.
    pub strategy: Strategy,
    /// Labeling cycles per session.
    pub cycles: usize,
    /// Newly labeled training records per cycle.
    pub n_train: usize,
    /// Newly labeled validation records per cycle.
    pub n_valid: usize,
    /// Initial expected-maximum-records `r`. Chosen below the session's final
    /// record count so the backoff re-plan + re-materialize path is inside
    /// the timed region.
    pub max_records: usize,
}

/// Set-up-only rounds before the window (set-up is tens of milliseconds, so
/// its median needs more samples than the sessions alone provide).
const SETUP_ROUNDS: usize = 12;

/// The reference run trains every `REF_STRIDE`-th candidate with the *other*
/// strategy for the first `REF_CYCLES` cycles. Each candidate trains
/// independently of the rest of the set, so a subset is a valid reference.
const REF_STRIDE: usize = 4;
const REF_CYCLES: usize = 2;

impl TrainSpec {
    fn workload(&self) -> WorkloadSpec {
        WorkloadSpec {
            kind: self.kind,
            scale: Scale::Tiny,
        }
    }

    fn config(&self) -> SystemConfig {
        SystemConfig::tiny()
            .into_builder()
            .max_records(self.max_records)
            .build()
    }

    /// The seed's labeled pool: `cycles` batches of `n_train + n_valid`.
    fn data(&self, seed: u64, cycles: usize) -> Dataset {
        let n = cycles * (self.n_train + self.n_valid);
        let w = self.workload();
        match self.kind {
            WorkloadKind::Ftu => ImageDatasetConfig {
                seed,
                ..w.image_config()
            }
            .generate(n),
            _ => NerDatasetConfig {
                seed,
                ..w.ner_config()
            }
            .generate(n),
        }
    }

    fn cycle_input(&self, pool: &Dataset, cycle: usize) -> CycleInput {
        let per = self.n_train + self.n_valid;
        let (train, valid) = pool
            .range(cycle * per, (cycle + 1) * per)
            .split_at(self.n_train);
        CycleInput::Real { train, valid }
    }
}

/// One finished session.
struct Session {
    setup_secs: f64,
    /// Σ wall-clock around `fit()`, harness clock.
    cycles_secs: f64,
    /// Σ over the first [`SHARED_CYCLES`] cycles.
    shared_secs: f64,
    reports: Vec<CycleReport>,
    /// Per cycle, accuracy bits in candidate order.
    bits: Vec<Vec<u32>>,
    init: InitReport,
    stats: RunStats,
    feature_bytes: u64,
    disk_bytes: u64,
    milp: Option<MilpRunStats>,
}

/// `ftr2_nautilus` and `ftr2_current` share their first three cycles.
pub const SHARED_CYCLES: usize = 3;

/// Bit patterns of one cycle's accuracies in candidate order (`names`). A
/// report lists them unit by unit, which depends on the strategy's fusion.
fn accuracy_bits(r: &CycleReport, names: &[String]) -> Vec<u32> {
    names
        .iter()
        .map(|n| {
            let found = r.accuracies.iter().find(|(name, _)| name == n);
            found.and_then(|(_, a)| *a).map_or(u32::MAX, f32::to_bits)
        })
        .collect()
}

/// Everything before the first `fit()`: candidates, data, `ModelSelection::new`.
fn set_up(
    spec: &TrainSpec,
    strategy: Strategy,
    seed: u64,
    cycles: usize,
    stride: usize,
    workdir: &Path,
) -> Result<(ModelSelection, Dataset, f64), String> {
    // Clearing a previous round's files is the harness's cost, not set-up.
    let _ = std::fs::remove_dir_all(workdir);
    let t0 = Instant::now();
    let candidates: Vec<CandidateModel> = spec
        .workload()
        .candidates()?
        .into_iter()
        .step_by(stride)
        .collect();
    let pool = spec.data(seed, cycles);
    let session = ModelSelection::new(
        candidates,
        spec.config(),
        strategy,
        BackendKind::Real,
        workdir,
    )
    .map_err(|e| e.to_string())?;
    Ok((session, pool, t0.elapsed().as_secs_f64()))
}

fn run_session(
    spec: &TrainSpec,
    seed: u64,
    cycles: usize,
    index: usize,
    workdir: &Path,
    keep_for_probes: bool,
) -> Result<(Session, Option<(ModelSelection, Dataset)>), String> {
    let group = |c: usize| (index * 1000 + c + 1) as u64;
    let _sp = spans::span("bench.session", group(0));
    let (mut session, pool, setup_secs) = {
        let _sp = spans::span("core.session_new", group(0));
        set_up(spec, spec.strategy, seed, cycles, 1, workdir)?
    };
    let mut reports = Vec::with_capacity(cycles);
    let (mut cycles_secs, mut shared_secs) = (0.0, 0.0);
    for c in 0..cycles {
        let input = spec.cycle_input(&pool, c);
        let _sp = spans::span("core.fit", group(c));
        let t0 = Instant::now();
        let report = session
            .fit(input)
            .map_err(|e| format!("fit cycle {}: {e}", c + 1))?;
        let secs = t0.elapsed().as_secs_f64();
        cycles_secs += secs;
        if c < SHARED_CYCLES {
            shared_secs += secs;
        }
        reports.push(report);
    }
    let names: Vec<String> = session
        .candidates()
        .iter()
        .map(|c| c.name.clone())
        .collect();
    let done = Session {
        setup_secs,
        cycles_secs,
        shared_secs,
        bits: reports.iter().map(|r| accuracy_bits(r, &names)).collect(),
        reports,
        init: session.init_report(),
        stats: session.stats(),
        feature_bytes: session.feature_bytes(),
        disk_bytes: dir_bytes(workdir),
        milp: session.milp_stats().cloned(),
    };
    Ok((done, keep_for_probes.then_some((session, pool))))
}

/// Runs one training workload.
pub fn run(spec: &TrainSpec, opts: &RunOpts, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();
    let cycles = if opts.quick {
        spec.cycles.min(2)
    } else {
        spec.cycles
    };
    let workdir = scratch.join("session");

    // Set-up-only rounds.
    let mut setups = Vec::new();
    for _ in 0..if opts.quick { 1 } else { SETUP_ROUNDS } {
        match set_up(spec, spec.strategy, opts.seed, cycles, 1, &workdir) {
            Ok((session, _, secs)) => {
                drop(session);
                setups.push(secs);
            }
            Err(e) => return out.abort(format!("set-up: {e}")),
        }
    }

    // The window: whole sessions until it is used up.
    let mut sessions: Vec<Session> = Vec::new();
    let window = Instant::now();
    let probe_inputs = loop {
        out.attempted += cycles as u64;
        // Predicted from the previous session, so the traced run knows which
        // session is the last and keeps it alive for the probes.
        let last = window.elapsed().as_secs_f64()
            + sessions
                .last()
                .map_or(0.0, |s| s.setup_secs + s.cycles_secs)
            >= opts.seconds;
        match run_session(
            spec,
            opts.seed,
            cycles,
            sessions.len(),
            &workdir,
            opts.traced && last,
        ) {
            Ok((s, kept)) => {
                sessions.push(s);
                if last || window.elapsed().as_secs_f64() >= opts.seconds {
                    break kept;
                }
            }
            Err(e) => {
                out.failed += 1;
                return out.abort(e);
            }
        }
    };
    // Before the reference run adds its own work to the program's counters.
    let counters = opts.traced.then(probes::read_counters);
    let n = sessions.len() as u64;
    setups.extend(sessions.iter().map(|s| s.setup_secs));
    let cycle_times: Vec<f64> = sessions.iter().map(|s| s.cycles_secs).collect();
    let p50_s = stats::median(&cycle_times);
    let records = (cycles * (spec.n_train + spec.n_valid)) as f64;
    let m = &mut out.metrics;
    m.set("setup_s", stats::median(&setups), setups.len() as u64);
    m.set("p50_ms", p50_s * 1e3, n);
    m.set("tail_ms", stats::tail(&cycle_times).1 * 1e3, n);
    m.set("rate_per_s", records / p50_s, n);

    // Checks. 1: every session of this run computed the same thing.
    let first = &sessions[0];
    out.accuracy_bits = first.bits.clone();
    out.digest = digest_bits(out.accuracy_bits.iter().flatten().copied());
    let same_bits = sessions.iter().all(|s| s.bits == out.accuracy_bits);
    out.checks.push(Check::new(
        "sessions_bit_identical",
        same_bits,
        format!("{n} sessions x {cycles} cycles, per-candidate accuracy bits"),
    ));
    let exact = |s: &Session| {
        (
            s.stats.flops.to_bits(),
            s.stats.disk_write_bytes,
            s.stats.disk_read_bytes,
            s.stats.cached_read_bytes,
            s.disk_bytes,
        )
    };
    out.checks.push(Check::new(
        "exact_counts_repeat",
        sessions.iter().all(|s| exact(s) == exact(first)),
        format!(
            "flops {:.0}, write {} B, disk read {} B, cached read {} B, on disk {} B",
            first.stats.flops,
            first.stats.disk_write_bytes,
            first.stats.disk_read_bytes,
            first.stats.cached_read_bytes,
            first.disk_bytes
        ),
    ));
    let all_valid = out
        .accuracy_bits
        .iter()
        .flatten()
        .all(|&b| b != u32::MAX && (0.0..=1.0).contains(&f32::from_bits(b)));
    out.checks.push(Check::new(
        "accuracies_in_range",
        all_valid,
        "every candidate, every cycle",
    ));

    // 2: the paper's logical equivalence, against the other strategy.
    let ref_cycles = REF_CYCLES.min(cycles);
    out.attempted += ref_cycles as u64;
    match reference(spec, opts.seed, ref_cycles, &scratch.join("reference")) {
        Ok(reference) => {
            let own: Vec<Vec<u32>> = out.accuracy_bits[..ref_cycles]
                .iter()
                .map(|c| c.iter().copied().step_by(REF_STRIDE).collect())
                .collect();
            out.checks.push(Check::new(
                "equivalent_to_other_strategy",
                own == reference,
                format!(
                    "cycles 1-{ref_cycles}, every {REF_STRIDE}th candidate ({} models), bit-identical accuracies",
                    own[0].len()
                ),
            ));
        }
        Err(e) => {
            out.failed += 1;
            out.checks
                .push(Check::new("equivalent_to_other_strategy", false, e));
        }
    }

    if opts.traced {
        let last = sessions.last().expect("at least one session ran");
        let m = &mut out.metrics;
        m.set("trace.p50_ms", p50_s * 1e3, n);
        m.set("core.init.profile_s", last.init.profiling_secs, 1);
        m.set("core.init.optimize_s", last.init.optimize_secs, 1);
        m.set(
            "core.init.checkpoints_s",
            last.init.original_checkpoints_secs + last.init.plan_checkpoints_secs,
            1,
        );
        let sum = |f: fn(&CycleReport) -> f64| {
            stats::median(
                &sessions
                    .iter()
                    .map(|s| s.reports.iter().map(f).sum())
                    .collect::<Vec<f64>>(),
            )
        };
        m.set("core.materialize_s", sum(|r| r.materialize_secs), n);
        m.set("core.train_s", sum(|r| r.train_secs), n);
        let shared: Vec<f64> = sessions.iter().map(|s| s.shared_secs).collect();
        m.set("core.cycles_1to3_s", stats::median(&shared), n);
        m.set("core.units", last.init.num_units as f64, 1);
        m.set(
            "core.materialized_layers",
            last.init.num_materialized as f64,
            1,
        );
        m.set("core.theoretical_speedup", last.init.theoretical_speedup, 1);
        m.set("core.flops", last.stats.flops, 1);
        m.set("core.utilization", last.stats.utilization(), 1);
        if let Some(milp) = &last.milp {
            m.set("milp.solve_ms", milp.elapsed.as_secs_f64() * 1e3, 1);
            m.set("milp.nodes", milp.nodes as f64, 1);
            m.set("milp.vars", milp.num_vars as f64, 1);
            m.set("milp.constraints", milp.num_constraints as f64, 1);
        }
        const MB: f64 = 1e6;
        m.set("disk_mb", last.disk_bytes as f64 / MB, 1);
        m.set("store.write_mb", last.stats.disk_write_bytes as f64 / MB, 1);
        m.set(
            "store.disk_read_mb",
            last.stats.disk_read_bytes as f64 / MB,
            1,
        );
        m.set(
            "store.cached_read_mb",
            last.stats.cached_read_bytes as f64 / MB,
            1,
        );
        m.set(
            "store.bytes_per_record",
            last.feature_bytes as f64 / records,
            1,
        );
        let reads = (last.stats.disk_read_bytes + last.stats.cached_read_bytes) as f64;
        if reads > 0.0 {
            m.set(
                "store.pagecache_hit_ratio",
                last.stats.cached_read_bytes as f64 / reads,
                1,
            );
        }
        if let Some(counters) = &counters {
            probes::counters(m, counters, n as f64);
        }
        if let Some((session, pool)) = probe_inputs {
            probes::training(m, spec, &session, &pool, &scratch.join("probe"));
        }
    }
    out.metrics.set("peak_rss_mb", peak_rss_mb(), 1);
    out
}

/// Accuracy bits of the first `cycles` cycles under the *other* strategy,
/// for every [`REF_STRIDE`]-th candidate.
fn reference(
    spec: &TrainSpec,
    seed: u64,
    cycles: usize,
    workdir: &Path,
) -> Result<Vec<Vec<u32>>, String> {
    let other = match spec.strategy {
        Strategy::CurrentPractice => Strategy::Nautilus,
        _ => Strategy::CurrentPractice,
    };
    let _sp = spans::span("bench.reference", 0);
    // The generators draw records one after another from the seeded stream,
    // so a shorter pool is a prefix of the sessions' pool: same data.
    let (mut session, pool, _) = set_up(spec, other, seed, cycles, REF_STRIDE, workdir)?;
    let names: Vec<String> = session
        .candidates()
        .iter()
        .map(|c| c.name.clone())
        .collect();
    (0..cycles)
        .map(|c| {
            session
                .fit(spec.cycle_input(&pool, c))
                .map(|r| accuracy_bits(&r, &names))
                .map_err(|e| format!("reference fit cycle {}: {e}", c + 1))
        })
        .collect()
}
