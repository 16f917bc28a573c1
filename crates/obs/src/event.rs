//! Structured events.
//!
//! Events are small typed records — a kind, a monotonic timestamp, the
//! job/cell span they belong to, and a handful of named fields — recorded
//! by the scheduler at lifecycle edges (submitted, started, preempted,
//! evicted, …) through [`crate::span::record_event`].  They live in the
//! bounded trace store beside spans and counters, so a post-mortem of a
//! cancelled or evicted job sees the tail of its history in one place.
//!
//! Event rates are lifecycle-bounded (a few per job), never per-trial, so
//! recording one takes the store lock directly.

/// One named field value of an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer (ids, counts, bytes).
    U64(u64),
    /// A float (latencies, rates).
    F64(f64),
    /// A short string (states, client ids, reasons).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(value: u64) -> Self {
        FieldValue::U64(value)
    }
}

impl From<usize> for FieldValue {
    fn from(value: usize) -> Self {
        FieldValue::U64(value as u64)
    }
}

impl From<f64> for FieldValue {
    fn from(value: f64) -> Self {
        FieldValue::F64(value)
    }
}

impl From<&str> for FieldValue {
    fn from(value: &str) -> Self {
        FieldValue::Str(value.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(value: String) -> Self {
        FieldValue::Str(value)
    }
}

/// One structured event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic timestamp, microseconds since the process epoch
    /// ([`crate::clock::now_micros`]); stamped when the event is recorded.
    pub ts_us: u64,
    /// Event kind, e.g. `job_submitted` or `result_evicted`.
    pub kind: &'static str,
    /// The job span this event belongs to, if any.
    pub job: Option<u64>,
    /// The campaign-cell span within the job, if any.
    pub cell: Option<u64>,
    /// Additional named fields.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// A new event of the given kind; [`crate::span::record_event`]
    /// stamps its timestamp.
    pub fn new(kind: &'static str) -> Self {
        Event {
            ts_us: 0,
            kind,
            job: None,
            cell: None,
            fields: Vec::new(),
        }
    }

    /// Attaches the job span id.
    pub fn job(mut self, job: u64) -> Self {
        self.job = Some(job);
        self
    }

    /// Attaches the cell span id.
    pub fn cell(mut self, cell: u64) -> Self {
        self.cell = Some(cell);
        self
    }

    /// Attaches a named field.
    pub fn field(mut self, name: &'static str, value: impl Into<FieldValue>) -> Self {
        self.fields.push((name, value.into()));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_carry_spans_and_fields() {
        let event = Event::new("result_evicted")
            .job(7)
            .cell(3)
            .field("bytes", 4096u64)
            .field("client", "alice");
        assert_eq!(event.job, Some(7));
        assert_eq!(event.cell, Some(3));
        assert_eq!(event.fields[0], ("bytes", FieldValue::U64(4096)));
        assert_eq!(
            event.fields[1],
            ("client", FieldValue::Str("alice".to_string()))
        );
    }
}
