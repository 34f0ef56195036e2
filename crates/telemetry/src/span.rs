//! Span tracing: nested wall-clock regions with annotations.

use std::time::Duration;

use crate::{Telemetry, Value};

/// Closed spans a collector retains; closing one more drops the record
/// of the span that closed longest ago. Open spans are always kept.
pub const MAX_CLOSED_SPANS: usize = 4096;

/// A finished (or still-open) span as stored in the collector.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name, e.g. `pass:regex-canonicalize`.
    pub name: String,
    /// Start time relative to the collector's creation.
    pub start: Duration,
    /// Wall-clock duration (zero until the span closes).
    pub duration: Duration,
    /// Nesting depth at open time (0 = root).
    pub depth: usize,
    /// Key/value annotations, in insertion order.
    pub attrs: Vec<(String, Value)>,
    /// Whether the span has closed.
    pub closed: bool,
}

/// An open span; records its duration when dropped.
///
/// Obtained from [`Telemetry::span`]. Annotations can be attached at any
/// point before the span closes.
#[derive(Debug)]
pub struct Span {
    telemetry: Telemetry,
    id: u64,
    start: std::time::Instant,
}

pub(crate) fn enter(telemetry: Telemetry, name: String) -> Span {
    let start = std::time::Instant::now();
    let id = {
        let mut inner = telemetry.lock();
        let depth = inner.open.len();
        let rel_start = start.duration_since(inner.epoch);
        let id = inner.next_span;
        inner.next_span += 1;
        inner.spans.insert(
            id,
            SpanRecord {
                name,
                start: rel_start,
                duration: Duration::ZERO,
                depth,
                attrs: Vec::new(),
                closed: false,
            },
        );
        inner.open.push(id);
        id
    };
    Span { telemetry, id, start }
}

impl Span {
    /// Attach a key/value annotation.
    pub fn annotate(&self, key: impl Into<String>, value: impl Into<Value>) {
        let mut inner = self.telemetry.lock();
        let record = inner.spans.get_mut(&self.id).expect("open spans are retained");
        record.attrs.push((key.into(), value.into()));
    }

    /// Close the span now (equivalent to dropping it).
    pub fn close(self) {}

    /// The span's name.
    pub fn name(&self) -> String {
        self.telemetry.lock().spans[&self.id].name.clone()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        let mut inner = self.telemetry.lock();
        // Only closed spans are ever dropped from the collector, so the
        // record is there; `Drop` must not panic regardless.
        if let Some(record) = inner.spans.get_mut(&self.id) {
            record.duration = elapsed;
            record.closed = true;
        }
        // Tolerate out-of-order drops: remove this span wherever it sits
        // in the open stack.
        inner.open.retain(|open| *open != self.id);
        inner.closed.push_back(self.id);
        if inner.closed.len() > MAX_CLOSED_SPANS {
            if let Some(oldest) = inner.closed.pop_front() {
                inner.spans.remove(&oldest);
            }
        }
    }
}
