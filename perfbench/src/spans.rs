//! An in-memory span recorder for the traced run. Each span records its
//! name, start, end, parent and request id; spans stay in memory and are
//! written out once, at the end.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `server.http_parse`.
    pub name: &'static str,
    /// Request id shared by every span of one replayed request.
    pub request: u32,
    /// Offset of the start from the recorder's epoch.
    pub start: Duration,
    /// Offset of the end from the recorder's epoch.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Records spans around calls, or (disabled) just makes the calls.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u32,
}

impl Recorder {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Recorder {
        Recorder { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), request: 0 }
    }

    /// Start the next request id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            request: self.request,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.epoch.elapsed();
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the time its children
    /// cover (children of one span never overlap in a sequential replay).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration());
            }
        }
        own
    }

    /// Self times grouped by span name, in µs.
    pub fn self_us_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            by_name.entry(span.name).or_default().push(own.as_secs_f64() * 1e6);
        }
        by_name
    }

    /// Durations (children included) grouped by span name, in µs.
    pub fn total_us_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for span in &self.spans {
            by_name.entry(span.name).or_default().push(span.duration().as_secs_f64() * 1e6);
        }
        by_name
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\
                     \"parent\":{}}}\n",
                    s.name,
                    s.request,
                    s.start.as_nanos(),
                    s.end.as_nanos(),
                    s.parent.map_or("null".to_owned(), |p| p.to_string())
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.next_request();
        rec.span("outer", |rec| {
            std::thread::sleep(Duration::from_millis(2));
            rec.span("inner", |_| std::thread::sleep(Duration::from_millis(5)));
        });
        let own = rec.self_times();
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert!(own[0] >= Duration::from_millis(2) && own[0] < Duration::from_millis(5));
        assert!(own[1] >= Duration::from_millis(5));
        assert!(rec.spans().iter().all(|s| s.request == 1));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", |_| 7), 7);
        assert!(rec.spans().is_empty());
    }
}
