//! The benchmark's own span recorder, used only by the `--trace 1` run.
//!
//! Spans wrap the harness's calls into each layer's public functions (spans
//! *inside* the program are a later change). Every span records name, start,
//! end, the span that caused it and a group id shared by all spans of one
//! cycle or one request. Spans stay in memory and are written once, as Chrome
//! trace-event JSON, when the run ends. With the recorder off a span costs
//! one relaxed load.

use nautilus_util::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are microseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Unique id of this span (1-based; 0 is "no span").
    pub sid: u32,
    /// The span that caused this one, if any.
    pub parent: Option<u32>,
    /// Shared by every span of one cycle / one request.
    pub group: u64,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Recording thread (small dense index, for the trace's `tid`).
    pub thread: u32,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs.
    pub end_us: f64,
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_SID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static DONE: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns the recorder on (trace runs only).
pub fn enable() {
    epoch();
    ON.store(true, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// RAII guard of an open span; records it when dropped.
pub struct Span(Option<Open>);

struct Open {
    sid: u32,
    parent: Option<u32>,
    group: u64,
    name: &'static str,
    start: Instant,
}

impl Span {
    /// This span's id, for parenting spans opened on other threads
    /// (`None` while the recorder is off).
    pub fn id(&self) -> Option<u32> {
        self.0.as_ref().map(|o| o.sid)
    }
}

/// Opens a span whose parent is the innermost open span of this thread.
pub fn span(name: &'static str, group: u64) -> Span {
    if !enabled() {
        return Span(None);
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    open(name, group, parent)
}

/// Opens a span under an explicit parent — the way work handed to another
/// thread stays attached to the span that caused it.
pub fn span_under(parent: Option<u32>, name: &'static str, group: u64) -> Span {
    if !enabled() {
        return Span(None);
    }
    open(name, group, parent)
}

fn open(name: &'static str, group: u64, parent: Option<u32>) -> Span {
    let sid = NEXT_SID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(sid));
    Span(Some(Open {
        sid,
        parent,
        group,
        name,
        start: Instant::now(),
    }))
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(o) = self.0.take() else { return };
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == o.sid) {
                s.remove(pos);
            }
        });
        let e = epoch();
        let rec = SpanRec {
            sid: o.sid,
            parent: o.parent,
            group: o.group,
            name: o.name,
            thread: THREAD.with(|t| *t),
            start_us: o.start.duration_since(e).as_secs_f64() * 1e6,
            end_us: end.duration_since(e).as_secs_f64() * 1e6,
        };
        // A poisoned lock only means another thread panicked mid-push; the
        // vector is still valid.
        DONE.lock().unwrap_or_else(|p| p.into_inner()).push(rec);
    }
}

/// Every span recorded so far.
pub fn snapshot() -> Vec<SpanRec> {
    DONE.lock().unwrap_or_else(|p| p.into_inner()).clone()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: usize,
    /// Σ duration, µs.
    pub total_us: f64,
    /// Σ self time, µs.
    pub self_us: f64,
}

/// Self time of every span: its duration minus the part of its interval its
/// children cover. Children may overlap one another (they can run on other
/// threads) and may stick out of the parent; only the *union* of their
/// intervals, clipped to the parent, is subtracted.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<u32, f64> {
    let mut children: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.sid).unwrap_or_default();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start_us;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_us));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.sid, (s.end_us - s.start_us) - covered)
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_us += s.end_us - s.start_us;
        t.self_us += selfs[&s.sid];
    }
    out
}

/// Writes `spans` as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
pub fn write_chrome_trace(spans: &[SpanRec], path: &Path) -> std::io::Result<()> {
    let mut events = vec![Json::obj([
        ("name", Json::Str("process_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::Int(1)),
        ("tid", Json::Int(0)),
        (
            "args",
            Json::obj([("name", Json::Str("nautilus-benchmark".into()))]),
        ),
    ])];
    for s in spans {
        events.push(Json::obj([
            ("name", Json::Str(s.name.into())),
            (
                "cat",
                Json::Str(s.name.split('.').next().unwrap_or("").into()),
            ),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Num(s.start_us)),
            ("dur", Json::Num(s.end_us - s.start_us)),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(i128::from(s.thread))),
            (
                "args",
                Json::obj([
                    ("sid", Json::Int(i128::from(s.sid))),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(i128::from(p))),
                    ),
                    ("group", Json::Int(i128::from(s.group))),
                ]),
            ),
        ]));
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(
        path,
        Json::obj([("traceEvents", Json::Arr(events))]).to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(sid: u32, parent: Option<u32>, thread: u32, start_us: f64, end_us: f64) -> SpanRec {
        SpanRec {
            sid,
            parent,
            group: 1,
            name: "t.x",
            thread,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec(1, None, 0, 0.0, 100.0),
            // Two children on other threads overlapping in [20, 30].
            rec(2, Some(1), 1, 10.0, 30.0),
            rec(3, Some(1), 2, 20.0, 50.0),
            // A child that sticks out of the parent: only [90, 100] counts.
            rec(4, Some(1), 1, 90.0, 130.0),
            // A grandchild covers part of span 3, not of span 1.
            rec(5, Some(3), 2, 25.0, 45.0),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100.0 - (40.0 + 10.0));
        assert_eq!(st[&2], 20.0);
        assert_eq!(st[&3], 30.0 - 20.0);
        assert_eq!(st[&4], 40.0);
        assert_eq!(st[&5], 20.0);
        let by_name = totals_by_name(&spans);
        assert_eq!(by_name["t.x"].count, 5);
        assert_eq!(by_name["t.x"].total_us, 100.0 + 20.0 + 30.0 + 40.0 + 20.0);
        assert_eq!(by_name["t.x"].self_us, 50.0 + 20.0 + 10.0 + 40.0 + 20.0);
    }

    #[test]
    fn a_child_nested_in_a_sibling_is_not_counted_twice() {
        let spans = vec![
            rec(1, None, 0, 0.0, 10.0),
            rec(2, Some(1), 0, 1.0, 9.0),
            rec(3, Some(1), 1, 2.0, 3.0),
        ];
        assert_eq!(self_times(&spans)[&1], 2.0);
    }

    /// The only test that touches the global recorder (tests share a process).
    #[test]
    fn guards_nest_per_thread_and_attach_across_threads() {
        assert!(span("t.off", 0).id().is_none(), "recorder starts off");
        enable();
        let outer = span("t.outer", 7);
        let outer_id = outer.id();
        assert!(outer_id.is_some());
        {
            let _inner = span("t.inner", 7);
        }
        std::thread::scope(|s| {
            s.spawn(|| drop(span_under(outer_id, "t.remote", 7)));
        });
        drop(outer);
        let spans: Vec<SpanRec> = snapshot().into_iter().filter(|s| s.group == 7).collect();
        let by = |n: &str| {
            spans
                .iter()
                .find(|s| s.name == n)
                .expect("span recorded")
                .clone()
        };
        assert_eq!(by("t.outer").parent, None);
        assert_eq!(by("t.inner").parent, outer_id);
        assert_eq!(by("t.remote").parent, outer_id);
        assert_ne!(by("t.remote").thread, by("t.outer").thread);
        assert!(by("t.inner").start_us >= by("t.outer").start_us);
        assert!(by("t.inner").end_us <= by("t.outer").end_us);

        let path = std::env::temp_dir().join(format!(
            "nautilus-benchmark-spans-{}.json",
            std::process::id()
        ));
        write_chrome_trace(&spans, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let json = Json::parse(&text).unwrap();
        assert_eq!(
            json.get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(4)
        );
    }
}
