//! Structured JSON-line event log (std-only, hermetic).
//!
//! The [`telemetry`](crate::telemetry) module answers *"how much / how
//! fast"*; this module answers *"what happened"*: discrete state
//! transitions that matter in production — hot-swap publishes, LRU
//! evictions and fault-ins, overload shedding, calibration results, SLO
//! breaches. Each event is one JSON object per line:
//!
//! ```text
//! {"ts_ms":1754730000123,"level":"warn","event":"serve.shed","queue_depth":64}
//! ```
//!
//! Properties:
//!
//! - **Off by default, one relaxed load when off.** [`emit`] bails on a
//!   single atomic level check before touching any field, clock, or
//!   lock, so instrumented sites cost nothing in unobserved runs.
//! - **Leveled.** [`Level::Debug`] through [`Level::Error`]; the sink's
//!   threshold filters below it.
//! - **Rate-limited per event name.** At most [`rate_limit`] lines per
//!   event name per second; excess lines are dropped and summarized by a
//!   `log.suppressed` record when the window rolls, so a shed storm or a
//!   flapping SLO cannot turn the log into the bottleneck.
//! - **Gated by `NAUTILUS_LOG`** (a path, or `stderr`/`-` for standard
//!   error; level via `NAUTILUS_LOG_LEVEL`) through [`init_from_env`],
//!   or programmatically via [`init_file`]/[`init_stderr`] — the
//!   builder-facing `SystemConfig` observability block routes here.

use crate::json::Json;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity, ordered: `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Diagnostic chatter (never emitted unless explicitly requested).
    Debug = 0,
    /// Normal state transitions (publish, fault-in, calibration).
    Info = 1,
    /// Degradations the system absorbs (shed, stall, SLO breach).
    Warn = 2,
    /// Failures surfaced to callers.
    Error = 3,
}

impl Level {
    /// Lower-case name as written into the `level` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a level name (case-insensitive); `None` for unknown names.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

/// A typed field value; borrows strings so disabled sites never allocate.
#[derive(Debug, Clone, Copy)]
pub enum Value<'a> {
    /// String field.
    Str(&'a str),
    /// Unsigned integer field.
    U64(u64),
    /// Signed integer field.
    I64(i64),
    /// Float field.
    F64(f64),
    /// Boolean field.
    Bool(bool),
}

impl Value<'_> {
    fn to_json(self) -> Json {
        match self {
            Value::Str(s) => Json::Str(s.to_string()),
            Value::U64(v) => Json::Int(v as i128),
            Value::I64(v) => Json::Int(v as i128),
            Value::F64(v) => Json::Num(v),
            Value::Bool(v) => Json::Bool(v),
        }
    }
}

/// Threshold sentinel meaning "no sink configured".
const OFF: u8 = u8::MAX;

/// The emit gate: minimum level that reaches the sink, `OFF` when the
/// log is disabled. One relaxed load of this *is* the disabled path.
static THRESHOLD: AtomicU8 = AtomicU8::new(OFF);

/// Default per-event-name rate limit (lines per second).
pub const DEFAULT_RATE_LIMIT: u32 = 50;

struct RateEntry {
    event: String,
    window_start_ms: u64,
    emitted: u32,
    suppressed: u64,
}

struct Sink {
    out: Box<dyn Write + Send>,
    rate_limit: u32,
    rates: Vec<RateEntry>,
}

fn sink() -> &'static Mutex<Option<Sink>> {
    static SINK: OnceLock<Mutex<Option<Sink>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// True when an event at `level` would reach the sink (modulo rate
/// limiting). One relaxed atomic load.
#[inline(always)]
pub fn enabled(level: Level) -> bool {
    level as u8 >= THRESHOLD.load(Ordering::Relaxed)
}

/// Routes events at `level` and above to standard error.
pub fn init_stderr(level: Level) {
    init_writer(Box::new(std::io::stderr()), level);
}

/// Routes events at `level` and above to `path` (append mode, created if
/// missing). Returns the I/O error if the file cannot be opened.
pub fn init_file(path: &Path, level: Level) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    init_writer(Box::new(f), level);
    Ok(())
}

/// Installs an arbitrary sink (replacing any previous one) and opens the
/// gate at `level`.
pub fn init_writer(out: Box<dyn Write + Send>, level: Level) {
    *sink().lock().unwrap() = Some(Sink {
        out,
        rate_limit: DEFAULT_RATE_LIMIT,
        rates: Vec::new(),
    });
    THRESHOLD.store(level as u8, Ordering::Relaxed);
}

/// Overrides the per-event-name rate limit (lines/second) of the current
/// sink; no-op when no sink is installed.
pub fn set_rate_limit(per_sec: u32) {
    if let Some(s) = sink().lock().unwrap().as_mut() {
        s.rate_limit = per_sec.max(1);
    }
}

/// Closes the gate and drops the sink (flushing it first).
pub fn disable() {
    THRESHOLD.store(OFF, Ordering::Relaxed);
    if let Some(mut s) = sink().lock().unwrap().take() {
        let _ = s.out.flush();
    }
}

/// Reads `NAUTILUS_LOG` (a file path, or `stderr`/`-`) and
/// `NAUTILUS_LOG_LEVEL` (default `info`); installs the sink on first
/// call. Idempotent and cheap to call from every entry point. Returns
/// whether the log is enabled afterwards.
pub fn init_from_env() -> bool {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let Ok(dest) = std::env::var("NAUTILUS_LOG") else { return };
        let dest = dest.trim();
        if dest.is_empty() {
            return;
        }
        let level = std::env::var("NAUTILUS_LOG_LEVEL")
            .ok()
            .and_then(|s| Level::parse(&s))
            .unwrap_or(Level::Info);
        if dest == "stderr" || dest == "-" {
            init_stderr(level);
        } else {
            let _ = init_file(Path::new(dest), level);
        }
    });
    THRESHOLD.load(Ordering::Relaxed) != OFF
}

fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

/// Emits one structured event: a JSON line with `ts_ms`, `level`,
/// `event`, and the given fields. Disabled/filtered levels cost one
/// relaxed load; over-rate events are dropped and later summarized.
pub fn emit(level: Level, event: &str, fields: &[(&str, Value)]) {
    if !enabled(level) {
        return;
    }
    let ts = now_ms();
    let mut guard = sink().lock().unwrap();
    let Some(s) = guard.as_mut() else { return };

    // Per-event-name rate accounting on 1s windows.
    let limit = s.rate_limit;
    let idx = match s.rates.iter().position(|r| r.event == event) {
        Some(i) => i,
        None => {
            s.rates.push(RateEntry {
                event: event.to_string(),
                window_start_ms: ts,
                emitted: 0,
                suppressed: 0,
            });
            s.rates.len() - 1
        }
    };
    let (window_rolled, suppressed_last_window) = {
        let r = &mut s.rates[idx];
        if ts.saturating_sub(r.window_start_ms) >= 1_000 {
            let sup = r.suppressed;
            r.window_start_ms = ts;
            r.emitted = 0;
            r.suppressed = 0;
            (sup > 0, sup)
        } else {
            (false, 0)
        }
    };
    if window_rolled {
        let line = Json::obj([
            ("ts_ms", Json::Int(ts as i128)),
            ("level", Json::Str("warn".into())),
            ("event", Json::Str("log.suppressed".into())),
            ("of", Json::Str(event.to_string())),
            ("count", Json::Int(suppressed_last_window as i128)),
        ])
        .to_string();
        let _ = writeln!(s.out, "{line}");
    }
    {
        let r = &mut s.rates[idx];
        if r.emitted >= limit {
            r.suppressed += 1;
            return;
        }
        r.emitted += 1;
    }

    let mut pairs: Vec<(String, Json)> = Vec::with_capacity(fields.len() + 3);
    pairs.push(("ts_ms".into(), Json::Int(ts as i128)));
    pairs.push(("level".into(), Json::Str(level.as_str().into())));
    pairs.push(("event".into(), Json::Str(event.to_string())));
    for (k, v) in fields {
        pairs.push(((*k).to_string(), v.to_json()));
    }
    let line = Json::Obj(pairs).to_string();
    let _ = writeln!(s.out, "{line}");
    let _ = s.out.flush();
}

/// [`emit`] at [`Level::Info`].
pub fn info(event: &str, fields: &[(&str, Value)]) {
    emit(Level::Info, event, fields);
}

/// [`emit`] at [`Level::Warn`].
pub fn warn(event: &str, fields: &[(&str, Value)]) {
    emit(Level::Warn, event, fields);
}

/// [`emit`] at [`Level::Error`].
pub fn error(event: &str, fields: &[(&str, Value)]) {
    emit(Level::Error, event, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sink and gate are process-global, so every test that installs
    // one lives in this single test function.
    #[test]
    fn leveled_rate_limited_json_lines_round_trip() {
        assert!(!enabled(Level::Error), "log must start disabled");
        // Disabled emit is a no-op (and must not panic with no sink).
        emit(Level::Error, "test.ignored", &[("k", Value::U64(1))]);

        let path = std::env::temp_dir()
            .join(format!("nautilus-eventlog-unit-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        init_file(&path, Level::Info).expect("init sink");
        assert!(enabled(Level::Info) && enabled(Level::Error));
        assert!(!enabled(Level::Debug), "below-threshold levels stay closed");

        emit(Level::Debug, "test.filtered", &[]);
        info("serve.publish", &[("tenant", Value::Str("alice")), ("version", Value::U64(3))]);
        warn("serve.shed", &[("queue_depth", Value::U64(64))]);
        error(
            "test.error",
            &[("path", Value::Str("/tmp/x \"q\"")), ("fatal", Value::Bool(false))],
        );

        // Rate limiting: the cap applies per event name within a window.
        set_rate_limit(5);
        for _ in 0..20 {
            info("test.flood", &[]);
        }
        info("test.other", &[("f", Value::F64(1.5))]);

        disable();
        assert!(!enabled(Level::Error));

        let data = std::fs::read_to_string(&path).expect("read log");
        let lines: Vec<&str> = data.lines().collect();
        // Every line parses as a JSON object with the envelope fields.
        for l in &lines {
            let j: Json = crate::json::from_str(l).expect("valid json line");
            assert!(j.get("ts_ms").and_then(|v| v.as_u64()).is_some());
            assert!(j.get("level").and_then(|v| v.as_str()).is_some());
            assert!(j.get("event").and_then(|v| v.as_str()).is_some());
        }
        let events: Vec<String> = lines
            .iter()
            .map(|l| {
                let j: Json = crate::json::from_str(l).unwrap();
                j.get("event").and_then(|v| v.as_str()).unwrap().to_string()
            })
            .collect();
        assert!(!events.iter().any(|e| e == "test.filtered"), "debug filtered out");
        assert!(events.iter().any(|e| e == "serve.publish"));
        let publish: Json = crate::json::from_str(
            lines[events.iter().position(|e| e == "serve.publish").unwrap()],
        )
        .unwrap();
        assert_eq!(publish.get("tenant").and_then(|v| v.as_str()), Some("alice"));
        assert_eq!(publish.get("version").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(
            events.iter().filter(|e| *e == "test.flood").count(),
            5,
            "flood capped at the rate limit"
        );
        assert!(events.iter().any(|e| e == "test.other"), "other events unaffected");
        let _ = std::fs::remove_file(&path);
    }
}
