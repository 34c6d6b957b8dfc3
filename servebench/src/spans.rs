//! An in-memory span log recorded from the benchmark's own code
//! around each call into a layer, written out when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `serve.http.read_request`.
    pub name: &'static str,
    /// The request this span belongs to.
    pub req: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// All spans of one run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Times `f` as a span named `name`, nested in whichever span is
    /// open; spans `f` opens become its children.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut SpanLog) -> R,
    ) -> R {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(idx);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[idx].start_ns = self.at(start);
        self.spans[idx].end_ns = self.at(end);
        out
    }

    /// Records a span measured elsewhere, with no parent.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) -> usize {
        let span = Span {
            name,
            req,
            parent: None,
            start_ns: self.at(start),
            end_ns: self.at(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records a span measured elsewhere under `parent`.
    pub fn record_child(
        &mut self,
        parent: usize,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let req = self.spans[parent].req;
        let span = Span {
            name,
            req,
            parent: Some(parent),
            start_ns: self.at(start),
            end_ns: self.at(end),
        };
        self.spans.push(span);
    }

    /// Every span recorded.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per name: each span's duration minus the time its
    /// children cover, summed, in microseconds.
    #[must_use]
    pub fn self_time_us(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += s.ns().saturating_sub(covered) as f64 / 1e3;
        }
        out
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn write_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
