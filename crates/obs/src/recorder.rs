//! Crash flight recorder: a bounded, process-wide ring of the most recent
//! span events, dumped to `flight-<ts>.json` when something dies.
//!
//! The global [`crate::trace::Tracer`] copies every closed span in here
//! (private tracers do not feed the ring, so tests stay isolated). The ring
//! keeps the last [`FLIGHT_CAPACITY`] events; on a panic, a simulated
//! `FaultyStore` kill, or an explicit [`dump`] call, the ring is written as
//! a Chrome trace-event document with a top-level `"reason"` key — so every
//! crash-matrix failure comes with a trace of what the process was doing.
//!
//! Like the tracer, the disabled path is one relaxed atomic load.

use crate::json;
use crate::trace::TraceEvent;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Once, OnceLock};

/// Events kept in the global flight ring.
pub const FLIGHT_CAPACITY: usize = 4_096;

struct Flight {
    enabled: AtomicBool,
    ring: Mutex<VecDeque<TraceEvent>>,
    dump_dir: Mutex<Option<PathBuf>>,
    /// Distinguishes dumps written within the same second.
    seq: AtomicU64,
}

fn flight() -> &'static Flight {
    static FLIGHT: OnceLock<Flight> = OnceLock::new();
    FLIGHT.get_or_init(|| Flight {
        enabled: AtomicBool::new(crate::trace::env_trace_enabled()),
        ring: Mutex::new(VecDeque::new()),
        dump_dir: Mutex::new(None),
        seq: AtomicU64::new(0),
    })
}

/// Whether the recorder is accepting events (relaxed load).
pub fn enabled() -> bool {
    flight().enabled.load(Ordering::Relaxed)
}

/// Turns the recorder on or off. Initialized from `ORION_TRACE`.
pub fn set_enabled(on: bool) {
    flight().enabled.store(on, Ordering::Relaxed);
}

/// Copies one closed span into the ring (no-op while disabled).
pub fn record(event: &TraceEvent) {
    let f = flight();
    if !f.enabled.load(Ordering::Relaxed) {
        return;
    }
    let mut ring = f.ring.lock();
    if ring.len() >= FLIGHT_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(event.clone());
}

/// Registers the directory [`dump`] writes into. `SharedDurableDb::open`
/// points this at the database directory so crash dumps land next to the
/// data they describe.
pub fn set_dump_dir(dir: &Path) {
    *flight().dump_dir.lock() = Some(dir.to_path_buf());
}

/// The currently registered dump directory, if any.
pub fn dump_dir() -> Option<PathBuf> {
    flight().dump_dir.lock().clone()
}

/// Number of events currently in the ring.
pub fn len() -> usize {
    flight().ring.lock().len()
}

/// Whether the ring holds no events.
pub fn is_empty() -> bool {
    len() == 0
}

/// Empties the ring (enabled flag and dump dir are untouched).
pub fn clear() {
    flight().ring.lock().clear();
}

/// The most recent `n` events, oldest first — the slow-query log attaches
/// these as a context snippet next to a captured plan.
pub fn recent(n: usize) -> Vec<TraceEvent> {
    let ring = flight().ring.lock();
    let skip = ring.len().saturating_sub(n);
    ring.iter().skip(skip).cloned().collect()
}

/// Dumps the ring to the registered dump directory. Returns the written
/// path, or `None` when the recorder is disabled, no directory is
/// registered, or the write fails (a crash dump must never crash harder).
pub fn dump(reason: &str) -> Option<PathBuf> {
    if !enabled() {
        return None;
    }
    let dir = dump_dir()?;
    dump_to_dir(&dir, reason).ok()
}

/// Dumps the ring into `dir` as `flight-<epoch-secs>-<seq>.json`
/// regardless of whether a dump directory is registered.
pub fn dump_to_dir(dir: &Path, reason: &str) -> std::io::Result<PathBuf> {
    let f = flight();
    let events: Vec<TraceEvent> = f.ring.lock().iter().cloned().collect();
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let seq = f.seq.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("flight-{secs}-{seq}.json"));
    let doc = json::Value::object()
        .with("reason", reason)
        .with("traceEvents", crate::trace::chrome_events_json(&events));
    std::fs::create_dir_all(dir)?;
    std::fs::write(&path, doc.to_string_pretty())?;
    Ok(path)
}

/// Installs a panic hook (once per process) that dumps the flight ring
/// before delegating to the previous hook. Dumps only when the recorder is
/// enabled and a dump directory is registered, so the hook is inert in
/// untraced processes.
pub fn install_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(path) = dump("panic") {
                eprintln!("flight recorder dumped to {}", path.display());
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::validate_chrome_trace;

    fn event(name: &str, start_ns: u64, end_ns: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat: "test",
            tid: 1,
            span_id: start_ns + 1,
            parent_id: 0,
            trace_id: 0,
            start_ns,
            end_ns,
            args: Vec::new(),
        }
    }

    // The recorder is process-global, so exercise it in one test to avoid
    // cross-test interference.
    #[test]
    fn ring_records_bounded_and_dumps_parseable_json() {
        let was = enabled();
        set_enabled(true);
        clear();
        for i in 0..(FLIGHT_CAPACITY as u64 + 10) {
            record(&event("e", i * 1_000, i * 1_000 + 500));
        }
        assert_eq!(len(), FLIGHT_CAPACITY);
        let tail = recent(3);
        assert_eq!(tail.len(), 3);
        // Oldest-first: the last element is the newest event recorded.
        assert_eq!(tail[2].start_ns, (FLIGHT_CAPACITY as u64 + 9) * 1_000);

        let dir = std::env::temp_dir().join("orion_obs_test").join("recorder");
        let path = dump_to_dir(&dir, "unit-test").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("reason").and_then(json::Value::as_str), Some("unit-test"));
        validate_chrome_trace(&doc).unwrap();

        // Disabled recorder accepts nothing and dump() declines.
        set_enabled(false);
        clear();
        record(&event("ignored", 0, 1));
        assert!(is_empty());
        assert!(dump("nope").is_none());

        std::fs::remove_dir_all(&dir).ok();
        set_enabled(was);
    }
}
