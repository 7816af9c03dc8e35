//! End-to-end telemetry validation: a tiny real-backend session with
//! tracing enabled must export a well-formed Chrome trace-event file
//! covering every instrumented subsystem.
//!
//! This lives in its own integration binary (own process) because the
//! telemetry collector is process-global state.

use nautilus_repro::core::session::{CycleInput, ModelSelection};
use nautilus_repro::core::workloads::{Scale, WorkloadKind, WorkloadSpec};
use nautilus_repro::core::{BackendKind, Strategy, SystemConfig};
use nautilus_repro::util::json::{self, Json};
use nautilus_repro::util::telemetry;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn workdir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("nautilus-it-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn get<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
    match obj {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn get_int(obj: &Json, key: &str) -> Option<i128> {
    match get(obj, key) {
        Some(Json::Int(v)) => Some(*v),
        Some(Json::Num(v)) if v.fract() == 0.0 => Some(*v as i128),
        _ => None,
    }
}

fn get_str<'a>(obj: &'a Json, key: &str) -> Option<&'a str> {
    match get(obj, key) {
        Some(Json::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

#[test]
fn traced_session_exports_valid_chrome_trace() {
    let trace_path = workdir("out").join("trace.json");

    let spec = WorkloadSpec { kind: WorkloadKind::Ftr2, scale: Scale::Tiny };
    let mut candidates = spec.candidates().expect("workload builds");
    candidates.truncate(2);
    let config = SystemConfig::tiny()
        .into_builder()
        .trace(trace_path.display().to_string())
        .build();
    let wd = workdir("session");
    let mut session =
        ModelSelection::new(candidates, config, Strategy::Nautilus, BackendKind::Real, &wd)
            .expect("session initializes");

    let pool = spec.ner_config().generate(64);
    for cycle in 0..2 {
        let (batch, _) = pool.split_at(32 * (cycle + 1));
        let (_, tail) = batch.split_at(32 * cycle);
        let (train, valid) = tail.split_at(24);
        session.fit(CycleInput::Real { train, valid }).expect("cycle runs");
    }
    // Sessions export on drop; an explicit export also works and lets the
    // test proceed without relying on drop order.
    let written = telemetry::export().expect("export succeeds");
    assert_eq!(written.as_deref(), Some(trace_path.as_path()));
    drop(session);

    let bytes = std::fs::read(&trace_path).expect("trace file exists");
    let root = json::from_slice(&bytes).expect("trace parses as JSON");
    let Some(Json::Arr(events)) = get(&root, "traceEvents") else {
        panic!("trace must contain a traceEvents array");
    };
    assert!(!events.is_empty(), "trace must contain events");

    let mut cats: BTreeSet<String> = BTreeSet::new();
    let mut names: BTreeSet<String> = BTreeSet::new();
    let mut counters: BTreeSet<String> = BTreeSet::new();
    // (tid, ts, end) for nesting validation.
    let mut spans: Vec<(i128, i128, i128)> = Vec::new();
    for e in events {
        let ph = get_str(e, "ph").expect("every event has ph");
        match ph {
            "X" => {
                let ts = get_int(e, "ts").expect("X event has ts");
                let dur = get_int(e, "dur").expect("X event has dur");
                assert!(ts >= 0, "negative timestamp");
                assert!(dur >= 0, "negative duration");
                assert_eq!(get_int(e, "pid"), Some(1));
                let tid = get_int(e, "tid").expect("X event has tid");
                names.insert(get_str(e, "name").expect("X event has a name").to_string());
                cats.insert(get_str(e, "cat").expect("X event has cat").to_string());
                spans.push((tid, ts, ts + dur));
            }
            "C" => {
                counters.insert(get_str(e, "name").expect("counter name").to_string());
                let args = get(e, "args").expect("counter args");
                if get_int(args, "value").is_none() {
                    // Histograms export as counter events carrying their
                    // quantile series instead of a single value.
                    for q in ["count", "p50", "p95", "p99", "max"] {
                        assert!(get_int(args, q).is_some(), "histogram arg {q} is integral");
                    }
                }
            }
            "M" => {}
            other => panic!("unexpected event phase {other:?}"),
        }
    }

    for want in ["core", "store", "dnn", "milp", "pool"] {
        assert!(cats.contains(want), "missing spans from subsystem {want:?}; got {cats:?}");
    }
    // The session's per-cycle phases.
    for want in ["cycle.fit", "cycle.materialize", "cycle.train"] {
        assert!(names.contains(want), "missing span {want:?}");
    }
    for want in
        ["flops", "disk_read_bytes", "cached_read_bytes", "disk_write_bytes", "pool.steals"]
    {
        assert!(counters.contains(want), "missing counter {want:?}; got {counters:?}");
    }

    // Per-thread nesting: spans on one thread either nest or are disjoint.
    // Timestamps are truncated to whole microseconds, so allow 1us slack.
    spans.sort_by_key(|&(tid, ts, end)| (tid, ts, std::cmp::Reverse(end)));
    let mut stack: Vec<(i128, i128, i128)> = Vec::new();
    for &(tid, ts, end) in &spans {
        while let Some(&(ptid, _, pend)) = stack.last() {
            if ptid != tid || pend <= ts {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&(_, _, pend)) = stack.last() {
            assert!(end <= pend + 1, "span [{ts}, {end}] escapes enclosing span ending {pend}");
        }
        stack.push((tid, ts, end));
    }

    let _ = std::fs::remove_dir_all(trace_path.parent().unwrap());
    let _ = std::fs::remove_dir_all(&wd);
}
