//! In-memory span recorder for traced runs.
//!
//! A span is one public call the benchmark makes into a layer: its name,
//! start, end, and the span that caused it. Spans are kept in memory and
//! written out once, when the run ends. While tracing is off, [`span`]
//! returns an inert guard and records nothing, so untraced runs pay one
//! relaxed atomic load per call.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Innermost open span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Turn recording on or off. Spans opened while off stay inert.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The innermost open span on this thread, to parent spans that other
/// threads open on this one's behalf.
pub fn current() -> u64 {
    CURRENT.with(Cell::get)
}

/// Open guard; the span closes when it drops.
pub struct Guard {
    live: Option<(u64, u64, String, u64, u64)>,
}

/// Open a span under this thread's innermost open span.
pub fn span(name: impl Into<String>) -> Guard {
    span_under(current(), name)
}

/// Open a span under an explicit parent (0 = root).
pub fn span_under(parent: u64, name: impl Into<String>) -> Guard {
    if !enabled() {
        return Guard { live: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let prev = CURRENT.with(|c| c.replace(id));
    let start = epoch().elapsed().as_nanos() as u64;
    Guard {
        live: Some((id, parent, name.into(), start, prev)),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, name, start_ns, prev)) = self.live.take() {
            let end_ns = epoch().elapsed().as_nanos() as u64;
            CURRENT.with(|c| c.set(prev));
            if let Ok(mut spans) = SPANS.lock() {
                spans.push(Span {
                    id,
                    parent,
                    name,
                    start_ns,
                    end_ns,
                });
            }
        }
    }
}

/// Everything recorded so far, in closing order.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span table poisoned").clone()
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children may overlap each other when
/// they ran on different threads).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Self times in milliseconds, grouped by span name.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<String, Vec<f64>> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name.clone())
            .or_default()
            .push(selfs[&s.id] as f64 / 1e6);
    }
    out
}

/// The span dump: one JSON object per line.
pub fn dump(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, selfs[&s.id]
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            sp(1, 0, 0, 100),
            sp(2, 1, 10, 40),
            sp(3, 1, 30, 60),  // overlaps 2 (another thread)
            sp(4, 1, 90, 120), // runs past the parent's end
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50 - 10);
        assert_eq!(selfs[&2], 30);
    }
}
