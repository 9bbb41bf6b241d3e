//! In-memory span log of the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! and written out as JSONL when the run ends. Each span carries a name,
//! start and end (ns since the log was opened), its parent, the workload
//! and, where it belongs to one, the workload-wide point index. A span's
//! self time is its duration minus the part of it its children cover.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: String,
    /// Start, ns since the log opened.
    pub start_ns: u64,
    /// End, ns since the log opened (`None` while open).
    pub end_ns: Option<u64>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Workload-wide point index, for per-point spans.
    pub point: Option<usize>,
}

impl Span {
    /// The span's duration (0 while open).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns
            .map_or(0, |end| end.saturating_sub(self.start_ns))
    }
}

/// A thread-safe, append-only span log.
pub struct SpanLog {
    origin: Instant,
    workload: String,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log for `workload`, its clock starting now.
    pub fn new(workload: &str) -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds from the log's origin to `at`.
    pub fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span starting now; close it with [`SpanLog::close`].
    pub fn open(&self, name: &str, parent: Option<usize>, point: Option<usize>) -> usize {
        self.push(Span {
            name: name.to_string(),
            start_ns: self.offset(Instant::now()),
            end_ns: None,
            parent,
            point,
        })
    }

    /// Closes an open span now.
    pub fn close(&self, id: usize) {
        let end = self.offset(Instant::now());
        self.spans.lock().expect("span log poisoned")[id].end_ns = Some(end);
    }

    /// Records a finished span covering `[start_ns, end_ns]`.
    pub fn record(
        &self,
        name: &str,
        parent: Option<usize>,
        point: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: Some(end_ns),
            parent,
            point,
        })
    }

    /// A copy of every span, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Self time of span `id`: its duration minus the union of its direct
    /// children's intervals.
    pub fn self_ns(&self, id: usize) -> u64 {
        let spans = self.spans.lock().expect("span log poisoned");
        let span = &spans[id];
        let Some(end) = span.end_ns else { return 0 };
        let mut children: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .filter_map(|s| Some((s.start_ns.max(span.start_ns), s.end_ns?.min(end))))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        span.duration_ns().saturating_sub(covered)
    }

    /// Writes the log as JSONL, one span per line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, span) in self.spans().iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"workload\":\"{}\",\"point\":{}}}",
                span.name,
                span.start_ns,
                span.end_ns.map_or("null".to_string(), |e| e.to_string()),
                opt(span.parent),
                self.workload,
                opt(span.point)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let log = SpanLog::new("test");
        let root = log.record("root", None, None, 0, 100);
        log.record("a", Some(root), None, 10, 40);
        log.record("b", Some(root), None, 30, 50);
        log.record("c", Some(root), None, 90, 120);
        log.record("grandchild", Some(1), None, 10, 40);
        assert_eq!(log.self_ns(root), 100 - 40 - 10);
        assert_eq!(log.self_ns(1), 0);
    }
}
