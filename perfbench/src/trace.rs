//! The benchmark's own span store.
//!
//! Spans are recorded around calls into the crates' public functions; the
//! program itself is not instrumented.  The global `sfi_obs` trace store
//! is deliberately not used: the engine's always-on per-trial spans fill
//! its fixed capacity in every workload and would evict these records.
//!
//! Durations are kept in nanoseconds, since many trials (early crashes)
//! finish in well under a microsecond; they are rounded to microseconds
//! only when exported to the Chrome/Perfetto format.

use sfi_obs::span::{SpanRecord, TraceRecord};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Rec {
    id: u64,
    parent: u64,
    name: &'static str,
    cat: &'static str,
    tid: u64,
    job: Option<u64>,
    start_ns: u64,
    dur_ns: u64,
}

/// A thread-safe in-memory store of finished spans.  A disabled store
/// still times spans (callers use the returned durations) but keeps
/// nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    origin_us: u64,
    next_id: AtomicU64,
    records: Mutex<Vec<Rec>>,
}

/// An open span; [`Span::end`] records it and returns its duration.
#[derive(Debug)]
#[must_use = "a span is only recorded by `end`"]
pub struct Span<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    cat: &'static str,
    job: Option<u64>,
    start: Instant,
}

impl Tracer {
    /// A store that keeps records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            origin_us: sfi_obs::clock::now_micros(),
            next_id: AtomicU64::new(1),
            records: Mutex::new(Vec::new()),
        }
    }

    /// Whether records are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span named `name` in layer `cat` under `parent` (0 for a
    /// root); spans of one trial or job share `job`.
    pub fn span(
        &self,
        name: &'static str,
        cat: &'static str,
        parent: u64,
        job: Option<u64>,
    ) -> Span<'_> {
        Span {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            cat,
            job,
            start: Instant::now(),
        }
    }

    /// Records an interval measured elsewhere (for example from client
    /// timestamps taken on another thread).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        name: &'static str,
        cat: &'static str,
        parent: u64,
        job: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, parent, name, cat, job, start, end);
        id
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        cat: &'static str,
        job: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let rec = Rec {
            id,
            parent,
            name,
            cat,
            tid: sfi_obs::span::current_tid(),
            job,
            start_ns: nanos(start.saturating_duration_since(self.origin)),
            dur_ns: nanos(end.saturating_duration_since(start)),
        };
        self.records
            .lock()
            .expect("span store lock poisoned")
            .push(rec);
    }

    /// Number of records kept.
    pub fn len(&self) -> usize {
        self.records.lock().expect("span store lock poisoned").len()
    }

    /// Whether no record is kept.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total and self time in seconds per span name.  A span's self time
    /// is its duration minus the part of it that its children cover.
    pub fn times_by_name(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let records = self.records.lock().expect("span store lock poisoned");
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for r in records.iter().filter(|r| r.parent != 0) {
            children
                .entry(r.parent)
                .or_default()
                .push((r.start_ns, r.start_ns + r.dur_ns));
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for r in records.iter() {
            let end = r.start_ns + r.dur_ns;
            let covered = children
                .get_mut(&r.id)
                .map_or(0, |spans| covered_ns(spans, r.start_ns, end));
            let entry = out.entry(r.name).or_default();
            entry.0 += r.dur_ns as f64 * 1e-9;
            entry.1 += (r.dur_ns - covered) as f64 * 1e-9;
        }
        out
    }

    /// The records as a Chrome trace-event document (loadable in
    /// Perfetto), rendered by `sfi_obs::chrome_trace_json`.
    pub fn chrome_json(&self) -> String {
        let records = self.records.lock().expect("span store lock poisoned");
        let exported: Vec<TraceRecord> = records
            .iter()
            .map(|r| {
                TraceRecord::Span(SpanRecord {
                    id: r.id,
                    parent: r.parent,
                    name: r.name,
                    cat: r.cat,
                    tid: r.tid,
                    job: r.job,
                    start_us: self.origin_us + r.start_ns / 1_000,
                    dur_us: r.dur_ns / 1_000,
                    args: Vec::new(),
                })
            })
            .collect();
        sfi_obs::chrome_trace_json(&exported)
    }
}

impl Span<'_> {
    /// The span id, for use as a child's parent.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Closes the span, records it and returns its duration.
    pub fn end(self) -> Duration {
        let end = Instant::now();
        self.tracer.push(
            self.id,
            self.parent,
            self.name,
            self.cat,
            self.job,
            self.start,
            end,
        );
        end.saturating_duration_since(self.start)
    }
}

/// Nanoseconds in `d`, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Length of the union of `spans`, clipped to `[start, end)`.
fn covered_ns(spans: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    spans.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in spans.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut spans = vec![(10, 20), (15, 30), (40, 50)];
        assert_eq!(covered_ns(&mut spans, 0, 45), 25);
    }

    #[test]
    fn nested_spans_export_with_parent_links() {
        let tracer = Tracer::new(true);
        let root = tracer.span("trial", "bench", 0, Some(7));
        let child = tracer.span("cpu.replay", "cpu", root.id(), Some(7));
        std::thread::sleep(Duration::from_millis(2));
        child.end();
        let total = root.end();
        let times = tracer.times_by_name();
        let (root_total, root_self) = times["trial"];
        assert!((root_total - total.as_secs_f64()).abs() < 1e-9);
        assert!(root_self < root_total);
        let json = tracer.chrome_json();
        assert!(
            json.starts_with('[') && json.contains("\"parent\":1") && json.contains("\"job\":7")
        );
    }

    #[test]
    fn a_disabled_store_keeps_nothing() {
        let tracer = Tracer::new(false);
        tracer.span("x", "y", 0, None).end();
        assert!(tracer.is_empty());
    }
}
