//! The daemon's observability surface: JSON encodings of registry
//! snapshots and trace-store records for the `metrics`/`events`/`trace`
//! wire frames, and the optional Prometheus text-exposition listener
//! (`--metrics-addr`).
//!
//! The wire encoding follows the workspace JSON conventions: 64-bit
//! integers travel as decimal strings (JSON numbers are doubles and lose
//! precision past 2^53 — counters of simulated cycles get there), and
//! non-finite histogram bounds are spelled out (`"+Inf"`) because the
//! canonical encoder maps non-finite floats to `null`.

use sfi_core::json::Json;
use sfi_obs::{AlertStatus, Event, FieldValue, Sample, SampleValue, Snapshot, TraceRecord};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Formats a histogram upper bound the way Prometheus spells `le` labels.
fn le_string(bound: f64) -> String {
    if bound.is_infinite() {
        "+Inf".into()
    } else {
        format!("{bound}")
    }
}

fn sample_to_json(sample: &Sample) -> Json {
    let labels = Json::obj(
        sample
            .labels
            .iter()
            .map(|(name, value)| (*name, Json::Str(value.clone())))
            .collect::<Vec<_>>(),
    );
    let value = match &sample.value {
        SampleValue::Counter(v) => Json::Str(v.to_string()),
        SampleValue::Gauge(v) => Json::Num(*v as f64),
        SampleValue::Histogram(h) => Json::obj([
            (
                "buckets",
                Json::Arr(
                    h.buckets
                        .iter()
                        .map(|&(le, count)| {
                            Json::obj([
                                ("le", Json::Str(le_string(le))),
                                ("count", Json::Str(count.to_string())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("sum", Json::Num(h.sum)),
            ("count", Json::Str(h.count.to_string())),
        ]),
    };
    Json::obj([("labels", labels), ("value", value)])
}

/// Encodes a registry snapshot as the `metrics` frame's `snapshot` member:
/// `{"families": [{"name", "help", "kind", "samples": [...]}]}`.
pub fn snapshot_to_json(snapshot: &Snapshot) -> Json {
    Json::obj([(
        "families",
        Json::Arr(
            snapshot
                .families
                .iter()
                .map(|family| {
                    Json::obj([
                        ("name", Json::Str(family.name.into())),
                        ("help", Json::Str(family.help.into())),
                        ("kind", Json::Str(family.kind.as_str().into())),
                        (
                            "samples",
                            Json::Arr(family.samples.iter().map(sample_to_json).collect()),
                        ),
                    ])
                })
                .collect(),
        ),
    )])
}

/// Encodes named span args or event fields as one JSON object.
fn fields_to_json(fields: &[(&'static str, FieldValue)]) -> Json {
    Json::obj(
        fields
            .iter()
            .map(|(name, value)| {
                let encoded = match value {
                    FieldValue::U64(v) => Json::Str(v.to_string()),
                    FieldValue::F64(v) => Json::Num(*v),
                    FieldValue::Str(v) => Json::Str(v.clone()),
                };
                (*name, encoded)
            })
            .collect::<Vec<_>>(),
    )
}

/// Encodes one structured event: timestamp, kind, optional job/cell span
/// ids, and the free-form fields.
pub fn event_to_json(event: &Event) -> Json {
    let mut pairs = vec![
        ("ts_us", Json::Str(event.ts_us.to_string())),
        ("kind", Json::Str(event.kind.into())),
    ];
    if let Some(job) = event.job {
        pairs.push(("job", Json::Str(job.to_string())));
    }
    if let Some(cell) = event.cell {
        pairs.push(("cell", Json::Str(cell.to_string())));
    }
    pairs.push(("fields", fields_to_json(&event.fields)));
    Json::obj(pairs)
}

/// Encodes one trace-store record.
///
/// Spans and counters (the `trace` frame's `spans` member) carry the
/// Chrome trace-event phase vocabulary in `ph` (`"X"` complete span,
/// `"C"` counter series) so clients can convert records to a
/// `chrome://tracing` file mechanically; events (the `events` frame's
/// `events` member) keep their own layout, [`event_to_json`].  Timestamps
/// and span ids travel as decimal strings per the workspace u64
/// convention.
fn trace_record_to_json(record: &TraceRecord) -> Json {
    match record {
        TraceRecord::Span(span) => {
            let mut pairs = vec![
                ("ph", Json::Str("X".into())),
                ("name", Json::Str(span.name.into())),
                ("cat", Json::Str(span.cat.into())),
                ("tid", Json::Num(span.tid as f64)),
                ("ts_us", Json::Str(span.start_us.to_string())),
                ("dur_us", Json::Str(span.dur_us.to_string())),
                ("id", Json::Str(span.id.to_string())),
                ("parent", Json::Str(span.parent.to_string())),
            ];
            if let Some(job) = span.job {
                pairs.push(("job", Json::Str(job.to_string())));
            }
            pairs.push(("args", fields_to_json(&span.args)));
            Json::obj(pairs)
        }
        TraceRecord::Counter(counter) => {
            let mut pairs = vec![
                ("ph", Json::Str("C".into())),
                ("name", Json::Str(counter.name.into())),
                ("tid", Json::Num(counter.tid as f64)),
                ("ts_us", Json::Str(counter.ts_us.to_string())),
            ];
            if let Some(job) = counter.job {
                pairs.push(("job", Json::Str(job.to_string())));
            }
            pairs.push((
                "series",
                Json::obj(
                    counter
                        .series
                        .iter()
                        .map(|&(name, value)| (name, Json::Num(value)))
                        .collect::<Vec<_>>(),
                ),
            ));
            Json::obj(pairs)
        }
        TraceRecord::Event(event) => event_to_json(event),
    }
}

/// Encodes a batch of trace-store records (oldest first): the `trace`
/// frame's `spans` member or the `events` frame's `events` member.
pub fn trace_to_json(records: &[TraceRecord]) -> Json {
    Json::Arr(records.iter().map(trace_record_to_json).collect())
}

/// Encodes alert-rule statuses as the `alerts` frame's `alerts` member.
pub fn alerts_to_json(statuses: &[AlertStatus]) -> Json {
    Json::Arr(
        statuses
            .iter()
            .map(|status| {
                Json::obj([
                    ("rule", Json::Str(status.rule.clone())),
                    ("family", Json::Str(status.family.clone())),
                    ("kind", Json::Str(status.kind.into())),
                    ("threshold", Json::Num(status.threshold)),
                    (
                        "value",
                        if status.value.is_finite() {
                            Json::Num(status.value)
                        } else {
                            Json::Null
                        },
                    ),
                    ("firing", Json::Bool(status.firing)),
                    (
                        "since_us",
                        match status.since_us {
                            Some(us) => Json::Str(us.to_string()),
                            None => Json::Null,
                        },
                    ),
                    ("fired_total", Json::Str(status.fired_total.to_string())),
                    (
                        "resolved_total",
                        Json::Str(status.resolved_total.to_string()),
                    ),
                ])
            })
            .collect(),
    )
}

/// A minimal HTTP/1.x listener serving the daemon's observability routes:
/// `GET /metrics` (Prometheus text exposition), `GET /healthz` (liveness
/// JSON), `GET /trace` (Chrome trace-event JSON of the trace store's
/// spans and counters) and
/// `GET /alerts` (alert-rule statuses).  Unknown paths get 404, non-GET
/// methods 405.
///
/// One thread, one connection at a time: scrapes are a few kilobytes every
/// few seconds, and the snapshot itself is lock-free, so there is nothing
/// to parallelize.  Dropping the listener stops the thread.
pub struct PrometheusListener {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl PrometheusListener {
    /// Binds `addr` (port 0 for ephemeral) and starts serving scrapes.
    pub fn start(addr: &str) -> io::Result<PrometheusListener> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stopping = Arc::new(AtomicBool::new(false));
        let handle = {
            let stopping = stopping.clone();
            thread::spawn(move || {
                for stream in listener.incoming() {
                    if stopping.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(stream) = stream else { continue };
                    let _ = serve_scrape(stream);
                }
            })
        };
        Ok(PrometheusListener {
            addr,
            stopping,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for PrometheusListener {
    fn drop(&mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Largest request head (request line plus headers) the listener reads.
const MAX_REQUEST_BYTES: u64 = 8 * 1024;

/// Time a peer gets to send its whole request head.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Reads from a stream until a fixed instant: each read waits at most the
/// time left, so a peer that drips bytes cannot stretch the deadline.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    until: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// Answers one request: reads the request head, routes on method and
/// path, writes one response and closes.
///
/// The listener serves one connection at a time, so a silent or dripping
/// peer would wedge every later scrape: the request head must arrive
/// whole within [`REQUEST_DEADLINE`] and fit in [`MAX_REQUEST_BYTES`].
/// A larger head gets `431` and the rest of it is left unread; a request
/// line that is not UTF-8 gets `400`.
fn serve_scrape(stream: TcpStream) -> io::Result<()> {
    stream.set_write_timeout(Some(REQUEST_DEADLINE))?;
    let (status, content_type, body) = match read_request_line(&stream)? {
        Some(request_line) => match String::from_utf8(request_line) {
            Ok(request_line) => route(&request_line),
            Err(_) => (
                "400 Bad Request",
                "text/plain; charset=utf-8",
                "request line is not UTF-8\n".to_string(),
            ),
        },
        None => (
            "431 Request Header Fields Too Large",
            "text/plain; charset=utf-8",
            "request head too large\n".to_string(),
        ),
    };
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut writer = stream;
    writer.write_all(head.as_bytes())?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

/// Reads the request head and returns its first line's bytes, or `None`
/// when the head does not fit in [`MAX_REQUEST_BYTES`].  The headers are
/// drained up to the blank line; none of them affect routing.
fn read_request_line(stream: &TcpStream) -> io::Result<Option<Vec<u8>>> {
    let until = Instant::now() + REQUEST_DEADLINE;
    let mut reader = BufReader::new(DeadlineReader { stream, until }.take(MAX_REQUEST_BYTES));
    let mut request_line = Vec::new();
    reader.read_until(b'\n', &mut request_line)?;
    loop {
        let mut line = Vec::new();
        if reader.read_until(b'\n', &mut line)? == 0 {
            // End of input: the peer's, or the byte limit's.
            return Ok((reader.get_ref().limit() > 0).then_some(request_line));
        }
        if line.iter().all(u8::is_ascii_whitespace) {
            return Ok(Some(request_line));
        }
    }
}

/// The status, content type and body answering `request_line`.
fn route(request_line: &str) -> (&'static str, &'static str, String) {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    // Route on the path alone; ignore any `?query` suffix.
    let target = parts.next().unwrap_or("");
    let path = target.split('?').next().unwrap_or("");
    if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed; only GET is served\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                sfi_obs::prometheus::CONTENT_TYPE,
                sfi_obs::prometheus::render(&sfi_obs::metrics().snapshot()),
            ),
            "/healthz" => ("200 OK", "application/json", healthz_body()),
            "/trace" => (
                "200 OK",
                "application/json",
                sfi_obs::chrome_trace_json(
                    &sfi_obs::trace().snapshot(usize::MAX, |r| !r.is_event()),
                ),
            ),
            "/alerts" => {
                let statuses = sfi_obs::alerts::alerts().evaluate(&sfi_obs::metrics().snapshot());
                ("200 OK", "application/json", {
                    let mut text = alerts_to_json(&statuses).to_string();
                    text.push('\n');
                    text
                })
            }
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "unknown path; try /metrics, /healthz, /trace or /alerts\n".to_string(),
            ),
        }
    }
}

/// The `/healthz` body: uptime plus scheduler liveness gauges, readable by
/// humans and machine-checkable by the CI smoke.
fn healthz_body() -> String {
    let metrics = sfi_obs::metrics();
    let queued: i64 = metrics
        .sched_queue_depth
        .iter()
        .map(sfi_obs::Gauge::get)
        .sum();
    let uptime = sfi_obs::clock::now_micros() as f64 / 1e6;
    let draining = metrics.draining.get() != 0;
    let doc = Json::obj([
        (
            "status",
            Json::Str(if draining { "draining" } else { "ok" }.into()),
        ),
        ("draining", Json::Bool(draining)),
        ("uptime_seconds", Json::Num((uptime * 1e3).round() / 1e3)),
        ("queued_jobs", Json::Num(queued as f64)),
        (
            "running_jobs",
            Json::Num(metrics.sched_running.get() as f64),
        ),
    ]);
    let mut text = doc.to_string();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn snapshot_encodes_counters_as_decimal_strings() {
        sfi_obs::metrics().trials.inc();
        let doc = snapshot_to_json(&sfi_obs::metrics().snapshot());
        let families = doc.get("families").and_then(Json::as_arr).expect("array");
        let trials = families
            .iter()
            .find(|f| f.get("name").and_then(Json::as_str) == Some("sfi_trials_total"))
            .expect("sfi_trials_total present");
        assert_eq!(trials.get("kind").and_then(Json::as_str), Some("counter"));
        let samples = trials.get("samples").and_then(Json::as_arr).expect("array");
        let value = samples[0].get("value").expect("value");
        let count: u64 = value.as_str().expect("string").parse().expect("decimal");
        assert!(count >= 1);
    }

    #[test]
    fn histogram_bounds_spell_infinity() {
        sfi_obs::metrics().job_wait_seconds.observe(0.002);
        let doc = snapshot_to_json(&sfi_obs::metrics().snapshot());
        let text = doc.to_string();
        assert!(text.contains("\"+Inf\""), "{text}");
        // The canonical encoder must never see a non-finite number.
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn events_encode_span_ids_and_fields() {
        let event = Event::new("unit_test").job(7).cell(3).field("bytes", 42u64);
        let doc = event_to_json(&event);
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("unit_test"));
        assert_eq!(doc.get("job").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("cell").and_then(Json::as_u64), Some(3));
        let fields = doc.get("fields").expect("fields");
        assert_eq!(fields.get("bytes").and_then(Json::as_u64), Some(42));
    }

    #[test]
    fn trace_records_encode_with_phase_discriminators() {
        use sfi_obs::{CounterRecord, SpanRecord};
        let records = [
            TraceRecord::Span(SpanRecord {
                id: 9,
                parent: 2,
                name: "cell",
                cat: "engine",
                tid: 3,
                job: Some(7),
                start_us: 100,
                dur_us: 42,
                args: vec![("cell", FieldValue::U64(1))],
            }),
            TraceRecord::Counter(CounterRecord {
                name: "worker_utilization",
                tid: 3,
                job: None,
                ts_us: 150,
                series: vec![("busy_us", 40.0)],
            }),
        ];
        let doc = trace_to_json(&records);
        let arr = doc.as_arr().expect("array");
        assert_eq!(arr[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(arr[0].get("ts_us").and_then(Json::as_u64), Some(100));
        assert_eq!(arr[0].get("dur_us").and_then(Json::as_u64), Some(42));
        assert_eq!(arr[0].get("job").and_then(Json::as_u64), Some(7));
        let args = arr[0].get("args").expect("args");
        assert_eq!(args.get("cell").and_then(Json::as_u64), Some(1));
        assert_eq!(arr[1].get("ph").and_then(Json::as_str), Some("C"));
        assert!(arr[1].get("job").is_none(), "untagged counter omits job");
        let series = arr[1].get("series").expect("series");
        assert_eq!(series.get("busy_us").and_then(Json::as_f64), Some(40.0));
        // The document survives the canonical encoder round trip.
        assert!(Json::parse(&doc.to_string()).is_ok());
    }

    #[test]
    fn alert_statuses_encode_state_and_counters() {
        let statuses = [sfi_obs::AlertStatus {
            rule: "scheduler_queue_saturated".into(),
            family: "sfi_sched_queue_depth".into(),
            kind: "gauge_above",
            threshold: 8.0,
            value: 11.0,
            firing: true,
            since_us: Some(1_000_000),
            fired_total: 2,
            resolved_total: 1,
        }];
        let doc = alerts_to_json(&statuses);
        let status = &doc.as_arr().expect("array")[0];
        assert_eq!(status.get("firing").and_then(Json::as_bool), Some(true));
        assert_eq!(
            status.get("since_us").and_then(Json::as_u64),
            Some(1_000_000)
        );
        assert_eq!(status.get("fired_total").and_then(Json::as_u64), Some(2));
        assert_eq!(
            status.get("kind").and_then(Json::as_str),
            Some("gauge_above")
        );
    }

    fn http_get(addr: std::net::SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream.write_all(request.as_bytes()).expect("writes");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("reads");
        response
    }

    #[test]
    fn listener_routes_healthz_trace_and_rejections() {
        let listener = PrometheusListener::start("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr();

        let health = http_get(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        let body = health.split("\r\n\r\n").nth(1).expect("has body");
        let doc = Json::parse(body.trim()).expect("healthz is JSON");
        // The drain gauge is process-global and other tests may flip it,
        // so assert the status/draining members agree rather than pin one.
        let draining = doc.get("draining").and_then(Json::as_bool).expect("bool");
        assert_eq!(
            doc.get("status").and_then(Json::as_str),
            Some(if draining { "draining" } else { "ok" })
        );
        assert!(doc.get("uptime_seconds").and_then(Json::as_f64).unwrap() >= 0.0);
        assert!(doc.get("queued_jobs").is_some());
        assert!(doc.get("running_jobs").is_some());

        let trace = http_get(addr, "GET /trace HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(trace.starts_with("HTTP/1.1 200 OK\r\n"), "{trace}");
        let body = trace.split("\r\n\r\n").nth(1).expect("has body");
        assert!(Json::parse(body).expect("trace is JSON").as_arr().is_some());

        let alerts = http_get(addr, "GET /alerts HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(alerts.starts_with("HTTP/1.1 200 OK\r\n"), "{alerts}");
        let body = alerts.split("\r\n\r\n").nth(1).expect("has body");
        assert!(Json::parse(body.trim())
            .expect("alerts is JSON")
            .as_arr()
            .is_some());

        let missing = http_get(addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(
            missing.starts_with("HTTP/1.1 404 Not Found\r\n"),
            "{missing}"
        );

        let posted = http_get(addr, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(
            posted.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"),
            "{posted}"
        );
    }

    #[test]
    fn oversized_request_gets_431_and_the_listener_keeps_serving() {
        let listener = PrometheusListener::start("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr();
        let start = Instant::now();
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        // 64 KiB of request line and no newline: the listener must answer
        // once it has read its limit, not wait for the line to end.
        stream
            .write_all(format!("GET /{}", "a".repeat(64 * 1024)).as_bytes())
            .expect("writes");
        let mut status_line = String::new();
        BufReader::new(&stream)
            .read_line(&mut status_line)
            .expect("gets a response");
        assert!(status_line.starts_with("HTTP/1.1 431 "), "{status_line:?}");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "{:?}",
            start.elapsed()
        );
        drop(stream);

        let scrape = http_get(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(scrape.starts_with("HTTP/1.1 200 OK\r\n"), "{scrape}");
    }

    /// Sends `head`, half-closes, and returns what came back: the empty
    /// string when the listener closed (or reset) without answering.
    fn send_head(addr: std::net::SocketAddr, head: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(15)))
            .expect("timeout");
        // The listener may answer and close before reading everything.
        let _ = stream.write_all(head);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        String::from_utf8_lossy(&response).into_owned()
    }

    #[test]
    fn non_utf8_request_line_gets_400_and_the_listener_keeps_serving() {
        let listener = PrometheusListener::start("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr();
        let response = send_head(addr, &[0xff; 16]);
        assert!(response.starts_with("HTTP/1.1 400 "), "{response:?}");
        let response = send_head(addr, b"GET /\xffhealthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 400 "), "{response:?}");
        let health = http_get(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
    }

    #[test]
    fn random_request_heads_get_a_status_line_or_a_close() {
        use rand::{Rng, SeedableRng};
        let listener = PrometheusListener::start("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr();
        let limit = MAX_REQUEST_BYTES as usize;
        // A valid head padded with one header to exactly `len` bytes.
        let padded = |len: usize| {
            let mut head = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
            head.resize(len - 4, b'a');
            head.extend_from_slice(b"\r\n\r\n");
            head
        };
        let mut heads: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"GET /healthz HTTP/1.1\r".to_vec(),
            b"GET /healthz HTTP/1.1\rHost: x\r\r".to_vec(),
            b"GET /healthz".to_vec(),
            b"GET /heal\0thz HTTP/1.1\r\n\r\n".to_vec(),
            b"\0\0\0\r\n\r\n".to_vec(),
            b"GET /healthz HTTP/1.1\r\nX-Bytes: \xff\xfe\0\r\n\r\n".to_vec(),
            padded(limit - 1),
            padded(limit),
            padded(limit + 1),
            vec![0xff; limit + 1],
            vec![b'\r'; limit],
        ];
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x4ead);
        let alphabet = b"GET /healthz\r\n\0\xff\xc3: ";
        for _ in 0..48 {
            let len = rng.gen_range(0..96usize);
            heads.push(
                (0..len)
                    .map(|_| {
                        if rng.gen_bool(0.7) {
                            alphabet[rng.gen_range(0..alphabet.len())]
                        } else {
                            rng.gen_range(0..=255u8)
                        }
                    })
                    .collect(),
            );
        }
        for head in &heads {
            let response = send_head(addr, head);
            assert!(
                response.is_empty()
                    || response.starts_with("HTTP/1.1 2")
                    || response.starts_with("HTTP/1.1 4"),
                "head {:?} got {response:?}",
                String::from_utf8_lossy(&head[..head.len().min(64)])
            );
        }
        let health = http_get(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
    }

    #[test]
    fn prometheus_listener_serves_a_wellformed_scrape() {
        sfi_obs::metrics().trials.inc();
        let listener = PrometheusListener::start("127.0.0.1:0").expect("binds");
        let mut stream = TcpStream::connect(listener.local_addr()).expect("connects");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("writes");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("reads");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains(sfi_obs::prometheus::CONTENT_TYPE));
        let body = response.split("\r\n\r\n").nth(1).expect("has body");
        assert!(body.contains("# TYPE sfi_trials_total counter"), "{body}");
        assert!(body.contains("sfi_trials_total "), "{body}");
    }
}
