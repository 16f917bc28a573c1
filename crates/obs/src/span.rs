//! Lightweight span tracing with Chrome trace-event export.
//!
//! A [`Span`] is an RAII guard: it stamps a monotonic start time at
//! construction and, when dropped, turns into a [`SpanRecord`] carrying
//! its duration, parent link and free-form args.  Records first land in a
//! small **per-thread buffer** (a plain `Vec` push, no locks), which is
//! drained into the bounded process-wide [`TraceStore`] when it fills,
//! when the thread exits, or when the instrumented layer calls
//! [`flush_thread`] at a coarse boundary (cell completion, worker exit,
//! build phase end).  The store is the process's one bounded telemetry
//! store: it evicts oldest-first and counts what it dropped, whatever the
//! record kind.
//!
//! Besides spans the store holds [`CounterRecord`]s — sampled counter
//! series (per-worker utilization) that Chrome's trace viewer renders as
//! stacked counter tracks — and structured [`Event`]s, which
//! [`record_event`] pushes straight into the store, stamped under its lock
//! so that events are stored in timestamp order.  Each view (the daemon's
//! `events` and `trace` frames) takes its own newest records through
//! [`TraceStore::snapshot`]'s filter.
//!
//! [`chrome_trace_json`] serializes any record slice into the Chrome
//! trace-event JSON array format (`chrome://tracing`, Perfetto): spans
//! become complete events (`"ph":"X"`) with microsecond `ts`/`dur`,
//! counters become `"ph":"C"` events and events become instant events
//! (`"ph":"i"`).  Records are sorted by timestamp so the output is
//! monotonic regardless of cross-thread flush order.
//!
//! The overhead contract of the crate holds: recording a span is two
//! monotonic clock reads and a `Vec` push on thread-private memory; the
//! store mutex is only touched once per [`THREAD_BUFFER_CAPACITY`]
//! records, at explicit coarse-boundary flushes, or per lifecycle event.
//! What the store holds scales with jobs and cells, never with trials.

use crate::clock;
use crate::event::{Event, FieldValue};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Default capacity of the process-wide trace store, in records.
pub const DEFAULT_TRACE_CAPACITY: usize = 16_384;

/// Records buffered per thread before the store mutex is touched.
pub const THREAD_BUFFER_CAPACITY: usize = 128;

/// One entry of the trace store.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A finished span.
    Span(SpanRecord),
    /// A sampled counter series.
    Counter(CounterRecord),
    /// A structured lifecycle event.
    Event(Event),
}

impl TraceRecord {
    /// The job this record is attributed to, if any.
    pub fn job(&self) -> Option<u64> {
        match self {
            TraceRecord::Span(span) => span.job,
            TraceRecord::Counter(counter) => counter.job,
            TraceRecord::Event(event) => event.job,
        }
    }

    /// Whether this record is a structured event.
    pub fn is_event(&self) -> bool {
        matches!(self, TraceRecord::Event(_))
    }

    /// The record's timestamp (a span's start) in monotonic microseconds.
    pub fn ts_us(&self) -> u64 {
        match self {
            TraceRecord::Span(span) => span.start_us,
            TraceRecord::Counter(counter) => counter.ts_us,
            TraceRecord::Event(event) => event.ts_us,
        }
    }
}

/// A finished span: a named, categorized interval on one thread.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root span.
    pub parent: u64,
    /// Span name (`cell`, `sta`, `job_running`, …).
    pub name: &'static str,
    /// Category: the layer that emitted it (`core`, `engine`, `sched`, …).
    pub cat: &'static str,
    /// Trace-local thread id (stable per OS thread, dense from 1).
    pub tid: u64,
    /// The job this span belongs to, if known.
    pub job: Option<u64>,
    /// Start, in monotonic microseconds ([`clock::now_micros`]).
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Free-form args, shown in the trace viewer's detail pane.
    pub args: Vec<(&'static str, FieldValue)>,
}

/// A sampled counter series (Chrome `"ph":"C"`): one timestamped set of
/// named values, e.g. a worker's busy/idle/steal micros at exit.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterRecord {
    /// Counter track name.
    pub name: &'static str,
    /// Trace-local thread id of the emitter.
    pub tid: u64,
    /// The job this sample belongs to, if known.
    pub job: Option<u64>,
    /// Sample time, in monotonic microseconds.
    pub ts_us: u64,
    /// The series: `(name, value)` pairs.
    pub series: Vec<(&'static str, f64)>,
}

/// The calling thread's stable trace thread id (dense from 1).
pub fn current_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }
    TID.with(|cell| {
        if cell.get() == 0 {
            cell.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        cell.get()
    })
}

/// Allocates a fresh process-unique span id.
fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// An in-flight span.  Dropping (or calling [`Span::finish`]) stamps the
/// duration and queues the record on the thread buffer.
#[derive(Debug)]
pub struct Span {
    record: Option<SpanRecord>,
}

impl Span {
    /// Starts a root span.
    pub fn begin(name: &'static str, cat: &'static str) -> Span {
        Span::with_parent(name, cat, 0)
    }

    /// Starts a span with an explicit parent id (0 for none).
    pub fn with_parent(name: &'static str, cat: &'static str, parent: u64) -> Span {
        Span {
            record: Some(SpanRecord {
                id: next_span_id(),
                parent,
                name,
                cat,
                tid: current_tid(),
                job: None,
                start_us: clock::now_micros(),
                dur_us: 0,
                args: Vec::new(),
            }),
        }
    }

    /// Starts a child of this span.
    pub fn child(&self, name: &'static str, cat: &'static str) -> Span {
        Span::with_parent(name, cat, self.id())
    }

    /// This span's id, for parent links across threads.
    pub fn id(&self) -> u64 {
        self.record.as_ref().map_or(0, |record| record.id)
    }

    /// Attributes the span to a job (builder style).
    pub fn job(mut self, job: u64) -> Span {
        if let Some(record) = self.record.as_mut() {
            record.job = Some(job);
        }
        self
    }

    /// Attaches a free-form arg (builder style).
    pub fn arg(mut self, name: &'static str, value: impl Into<FieldValue>) -> Span {
        if let Some(record) = self.record.as_mut() {
            record.args.push((name, value.into()));
        }
        self
    }

    /// Attaches a free-form arg to an already-bound span.
    pub fn set_arg(&mut self, name: &'static str, value: impl Into<FieldValue>) {
        if let Some(record) = self.record.as_mut() {
            record.args.push((name, value.into()));
        }
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(mut record) = self.record.take() {
            record.dur_us = clock::now_micros().saturating_sub(record.start_us);
            push_record(TraceRecord::Span(record));
        }
    }
}

/// Emits a span record with explicit timestamps, for intervals that do
/// not map to one RAII scope (a cell spanning several workers, a job's
/// queued segment).  Returns the new span's id.
#[allow(clippy::too_many_arguments)]
pub fn record_span(
    name: &'static str,
    cat: &'static str,
    start_us: u64,
    dur_us: u64,
    parent: u64,
    job: Option<u64>,
    args: Vec<(&'static str, FieldValue)>,
) -> u64 {
    let id = next_span_id();
    push_record(TraceRecord::Span(SpanRecord {
        id,
        parent,
        name,
        cat,
        tid: current_tid(),
        job,
        start_us,
        dur_us,
        args,
    }));
    id
}

/// Emits a counter sample (rendered as a counter track by the viewer).
pub fn record_counter(name: &'static str, job: Option<u64>, series: Vec<(&'static str, f64)>) {
    push_record(TraceRecord::Counter(CounterRecord {
        name,
        tid: current_tid(),
        job,
        ts_us: clock::now_micros(),
        series,
    }));
}

/// Records a structured event straight into the store, bypassing the
/// thread buffer so the events view is current at once.  The timestamp
/// is stamped under the store lock: racing threads still store their
/// events in timestamp order.
pub fn record_event(mut event: Event) {
    let mut inner = trace().lock();
    event.ts_us = clock::now_micros();
    inner.push(TraceRecord::Event(event));
}

/// The per-thread buffer; its `Drop` flushes whatever the thread queued
/// but never explicitly drained.
struct ThreadBuffer(Vec<TraceRecord>);

impl Drop for ThreadBuffer {
    fn drop(&mut self) {
        if !self.0.is_empty() {
            trace().extend(self.0.drain(..));
        }
    }
}

thread_local! {
    static BUFFER: RefCell<ThreadBuffer> =
        RefCell::new(ThreadBuffer(Vec::with_capacity(THREAD_BUFFER_CAPACITY)));
}

/// Queues a record on the calling thread's buffer, draining it into the
/// store when full.
fn push_record(record: TraceRecord) {
    let full = BUFFER
        .try_with(|buffer| {
            let mut buffer = buffer.borrow_mut();
            buffer.0.push(record);
            buffer.0.len() >= THREAD_BUFFER_CAPACITY
        })
        // Thread teardown: the buffer destructor already ran, so this
        // late record goes straight to the store.
        .unwrap_or(true);
    if full {
        flush_thread();
    }
}

/// Drains the calling thread's buffered records into the store.  Call at
/// coarse boundaries (cell completion, worker exit, phase end) so traces
/// fetched over the wire are current.
pub fn flush_thread() {
    let _ = BUFFER.try_with(|buffer| {
        let mut buffer = buffer.borrow_mut();
        if !buffer.0.is_empty() {
            trace().extend(buffer.0.drain(..));
        }
    });
}

/// The bounded process-wide trace store: newest records win, evictions
/// are counted.
#[derive(Debug)]
pub struct TraceStore {
    inner: Mutex<StoreInner>,
}

#[derive(Debug)]
struct StoreInner {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl TraceStore {
    /// A store bounded to `capacity` records (at least 1).
    pub fn new(capacity: usize) -> TraceStore {
        TraceStore {
            inner: Mutex::new(StoreInner {
                buf: VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.inner.lock().expect("trace store poisoned")
    }

    /// Appends records, evicting oldest entries beyond the capacity.
    pub fn extend(&self, records: impl IntoIterator<Item = TraceRecord>) {
        let mut inner = self.lock();
        for record in records {
            inner.push(record);
        }
    }

    /// The newest `limit` records that `keep` accepts, oldest first.
    pub fn snapshot(&self, limit: usize, keep: impl Fn(&TraceRecord) -> bool) -> Vec<TraceRecord> {
        let inner = self.lock();
        let mut records: Vec<TraceRecord> = inner
            .buf
            .iter()
            .rev()
            .filter(|record| keep(record))
            .take(limit)
            .cloned()
            .collect();
        records.reverse();
        records
    }

    /// Records of any kind evicted since process start.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }
}

impl StoreInner {
    /// Appends one record, evicting (and counting) the oldest when full.
    fn push(&mut self, record: TraceRecord) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(record);
    }
}

/// The process-wide trace store singleton.
pub fn trace() -> &'static TraceStore {
    static TRACE: OnceLock<TraceStore> = OnceLock::new();
    TRACE.get_or_init(|| TraceStore::new(DEFAULT_TRACE_CAPACITY))
}

/// Serializes records into the Chrome trace-event JSON array format
/// (loadable in `chrome://tracing` and Perfetto).  Spans become complete
/// events (`"ph":"X"`), counters become counter events (`"ph":"C"`) and
/// events become process-wide instant events (`"ph":"i"`); records are
/// sorted by timestamp so `ts` is monotonic.
pub fn chrome_trace_json(records: &[TraceRecord]) -> String {
    let mut sorted: Vec<&TraceRecord> = records.iter().collect();
    sorted.sort_by_key(|record| record.ts_us());
    let mut out = String::from("[");
    for (i, record) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match record {
            TraceRecord::Span(span) => {
                let _ = write!(
                    out,
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"name\":{},\"cat\":{}",
                    span.tid,
                    span.start_us,
                    span.dur_us,
                    json_string(span.name),
                    json_string(span.cat),
                );
                out.push_str(",\"args\":{");
                let _ = write!(out, "\"id\":{},\"parent\":{}", span.id, span.parent);
                if let Some(job) = span.job {
                    let _ = write!(out, ",\"job\":{job}");
                }
                for (name, value) in &span.args {
                    write_field(&mut out, name, value);
                }
                out.push_str("}}");
            }
            TraceRecord::Counter(counter) => {
                let _ = write!(
                    out,
                    "{{\"ph\":\"C\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":{}",
                    counter.tid,
                    counter.ts_us,
                    json_string(counter.name),
                );
                out.push_str(",\"args\":{");
                for (i, (name, value)) in counter.series.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}:", json_string(name));
                    if value.is_finite() {
                        let _ = write!(out, "{value}");
                    } else {
                        out.push_str("null");
                    }
                }
                out.push_str("}}");
            }
            TraceRecord::Event(event) => {
                let _ = write!(
                    out,
                    "{{\"ph\":\"i\",\"s\":\"p\",\"pid\":1,\"tid\":0,\"ts\":{},\"name\":{},\"cat\":\"event\"",
                    event.ts_us,
                    json_string(event.kind),
                );
                out.push_str(",\"args\":{");
                for (name, id) in [("job", event.job), ("cell", event.cell)] {
                    if let Some(id) = id {
                        write_field(&mut out, name, &FieldValue::U64(id));
                    }
                }
                for (name, value) in &event.fields {
                    write_field(&mut out, name, value);
                }
                out.push_str("}}");
            }
        }
    }
    out.push(']');
    out
}

/// Appends one `"name":value` member to an open JSON object.
fn write_field(out: &mut String, name: &str, value: &FieldValue) {
    if !out.ends_with('{') {
        out.push(',');
    }
    let _ = write!(out, "{}:", json_string(name));
    match value {
        FieldValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::F64(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        FieldValue::F64(_) => out.push_str("null"),
        FieldValue::Str(s) => out.push_str(&json_string(s)),
    }
}

/// A JSON string literal (quoted, escaped).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_flush_and_filter_by_job() {
        let store = TraceStore::new(64);
        let root = Span::begin("root", "test").job(7);
        let root_id = root.id();
        let child = root.child("child", "test").arg("trials", 6u64);
        let child_parent = {
            // Inspect before drop: the child links to the root.
            child.record.as_ref().expect("open span").parent
        };
        assert_eq!(child_parent, root_id);
        drop(child);
        drop(root);
        flush_thread();
        // The thread buffer drains into the *global* store; pull the two
        // spans out of it and replay them into a private store to keep
        // this test independent of other tests' records.
        let records = trace().snapshot(usize::MAX, |r| r.job() == Some(7));
        store.extend(records.iter().cloned());
        let mine = store.snapshot(usize::MAX, |r| r.job() == Some(7));
        assert!(mine
            .iter()
            .any(|r| matches!(r, TraceRecord::Span(s) if s.name == "root" && s.id == root_id)));

        let child = trace()
            .snapshot(usize::MAX, |_| true)
            .into_iter()
            .find_map(|r| match r {
                TraceRecord::Span(s) if s.parent == root_id => Some(s),
                _ => None,
            })
            .expect("child span reached the store");
        assert_eq!(child.name, "child");
        assert_eq!(child.args, vec![("trials", FieldValue::U64(6))]);
        assert_eq!(
            child.job, None,
            "job attribution is per span, not inherited"
        );
    }

    #[test]
    fn the_store_is_bounded_and_counts_drops() {
        let store = TraceStore::new(2);
        for i in 0..5u64 {
            store.extend([TraceRecord::Counter(CounterRecord {
                name: "c",
                tid: 1,
                job: None,
                ts_us: i,
                series: vec![("v", i as f64)],
            })]);
        }
        assert_eq!(store.dropped(), 3);
        let records = store.snapshot(usize::MAX, |_| true);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].ts_us(), 3, "oldest surviving record first");
    }

    #[test]
    fn each_view_takes_its_own_newest_records() {
        let store = TraceStore::new(16);
        for i in 0..6u64 {
            store.extend([
                TraceRecord::Event(Event {
                    ts_us: 2 * i,
                    ..Event::new("tick").job(i % 2)
                }),
                TraceRecord::Counter(CounterRecord {
                    name: "c",
                    tid: 1,
                    job: Some(i % 2),
                    ts_us: 2 * i + 1,
                    series: Vec::new(),
                }),
            ]);
        }
        let events = store.snapshot(2, TraceRecord::is_event);
        assert_eq!(
            events.iter().map(TraceRecord::ts_us).collect::<Vec<_>>(),
            vec![8, 10],
            "newest events, oldest first, though counters are newer"
        );
        let job0 = store.snapshot(usize::MAX, |r| !r.is_event() && r.job() == Some(0));
        assert_eq!(
            job0.iter().map(TraceRecord::ts_us).collect::<Vec<_>>(),
            vec![1, 5, 9]
        );
    }

    #[test]
    fn racing_events_are_stored_in_timestamp_order() {
        const JOB: u64 = 0x0e7e_0e7e;
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for thread in 0..4u64 {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    for i in 0..500u64 {
                        record_event(
                            Event::new("race")
                                .job(JOB)
                                .field("thread", thread)
                                .field("i", i),
                        );
                    }
                });
            }
        });
        let records = trace().snapshot(usize::MAX, |r| r.is_event() && r.job() == Some(JOB));
        assert_eq!(records.len(), 2000);
        assert!(
            records.windows(2).all(|w| w[0].ts_us() <= w[1].ts_us()),
            "the event view is oldest first"
        );
    }

    #[test]
    fn chrome_export_is_a_sorted_array_with_required_keys() {
        let mut records = vec![
            TraceRecord::Counter(CounterRecord {
                name: "worker_utilization",
                tid: 3,
                job: Some(1),
                ts_us: 900,
                series: vec![("busy_us", 700.0), ("idle_us", f64::NAN)],
            }),
            TraceRecord::Span(SpanRecord {
                id: 2,
                parent: 1,
                name: "cell \"a\"\n",
                cat: "engine",
                tid: 3,
                job: Some(1),
                start_us: 100,
                dur_us: 50,
                args: vec![
                    ("trials", FieldValue::U64(6)),
                    ("note", FieldValue::Str("x".into())),
                ],
            }),
        ];
        records.push(TraceRecord::Event(Event {
            ts_us: 950,
            ..Event::new("job_done").job(1).field("state", "done")
        }));
        records.push(TraceRecord::Event(Event {
            ts_us: 960,
            ..Event::new("drain_begin").field("running", 0u64)
        }));
        let json = chrome_trace_json(&records);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(
            json.contains(
                "{\"ph\":\"i\",\"s\":\"p\",\"pid\":1,\"tid\":0,\"ts\":950,\"name\":\"job_done\",\"cat\":\"event\",\"args\":{\"job\":1,\"state\":\"done\"}}"
            ),
            "{json}"
        );
        assert!(json.contains("\"args\":{\"running\":0}"), "{json}");
        // Sorted by ts: the span (ts 100) precedes the counter (ts 900).
        let span_at = json.find("\"ph\":\"X\"").expect("span event");
        let counter_at = json.find("\"ph\":\"C\"").expect("counter event");
        assert!(span_at < counter_at);
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"ts\":100,\"dur\":50"));
        assert!(json.contains("\"name\":\"cell \\\"a\\\"\\n\""));
        assert!(json.contains("\"trials\":6"));
        assert!(json.contains("\"busy_us\":700"));
        assert!(json.contains("\"idle_us\":null"), "{json}");
    }

    #[test]
    fn explicit_records_carry_ids_and_jobs() {
        let id = record_span("job_queued", "sched", 10, 5, 0, Some(42), Vec::new());
        assert!(id > 0);
        record_counter("u", Some(42), vec![("busy_us", 1.0)]);
        flush_thread();
        let records = trace().snapshot(usize::MAX, |r| r.job() == Some(42));
        assert!(records
            .iter()
            .any(|r| matches!(r, TraceRecord::Span(s) if s.id == id && s.dur_us == 5)));
        assert!(records
            .iter()
            .any(|r| matches!(r, TraceRecord::Counter(c) if c.series == vec![("busy_us", 1.0)])));
    }
}
