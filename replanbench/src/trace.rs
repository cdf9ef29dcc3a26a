//! The benchmark's own span recorder.
//!
//! A span is recorded around each call into a public function of one layer:
//! its name, the op it belongs to, its parent span, and its start and end.
//! Spans stay in a buffer allocated up front while the run measures and are
//! written out when it ends.  With tracing off every call is a plain
//! pass-through.

use crate::stats::Histogram;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Spans after which a traced window ends early, which keeps the written
/// trace a few MB long.
pub const MAX_SPANS: usize = 50_000;

/// Room beyond [`MAX_SPANS`] for the rest of the cycle a window finishes
/// once the buffer is full: a replan-flap cycle is 7 ops of 8 spans, a
/// daemon-fleet cycle 56 ops of at most 5.
const CYCLE_SLACK: usize = 1_024;

/// Span handle; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// One recorded span (times in ns since the tracer was created).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    /// A recorder that records (`enabled`) or passes every call through.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            spans: enabled.then(|| Vec::with_capacity(MAX_SPANS + CYCLE_SLACK)),
        }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Whether [`MAX_SPANS`] are recorded; the window should end.
    pub fn full(&self) -> bool {
        self.spans.as_ref().is_some_and(|s| s.len() >= MAX_SPANS)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: SpanId) -> SpanId {
        let start_ns = self.now_ns();
        let spans = self.spans.as_mut()?;
        spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        if let (Some(spans), Some(id)) = (self.spans.as_mut(), id) {
            spans[id].end_ns = end_ns;
        }
    }

    /// Name a span after the fact (a socket request is classified as an L1
    /// hit or miss only once it has returned).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if let (Some(spans), Some(id)) = (self.spans.as_mut(), id) {
            spans[id].name = name;
        }
    }

    /// Record a span around `f`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, op, parent);
        let result = f();
        self.close(id);
        result
    }

    /// Duration of a closed span in ns (0 with tracing off).
    pub fn duration_ns(&self, id: SpanId) -> u64 {
        match (&self.spans, id) {
            (Some(spans), Some(id)) => spans[id].ns(),
            _ => 0,
        }
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Histogram {
        let mut h = Histogram::default();
        for span in self.spans.iter().flatten().filter(|s| s.name == name) {
            h.record(span.ns());
        }
        h
    }

    /// Self times (ns) of every span called `name`: its duration minus the
    /// time its child spans cover (children of one span never overlap).
    pub fn self_times(&self, name: &str) -> Histogram {
        let spans = self.spans.as_deref().unwrap_or_default();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.ns();
            }
        }
        let mut h = Histogram::default();
        for (span, children) in spans.iter().zip(&child_ns) {
            if span.name == name {
                h.record(span.ns().saturating_sub(*children));
            }
        }
        h
    }

    /// Write every span as one tab-separated line:
    /// `id parent op name start_ns end_ns` (parent `-` for a root span).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().flatten().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_spans() {
        let mut t = Tracer::new(true);
        let op = t.open("op", 7, None);
        t.span("child", 7, op, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(op);
        let total = t.durations("op").percentile(0.5).unwrap();
        let child = t.durations("child").percentile(0.5).unwrap();
        let own = t.self_times("op").percentile(0.5).unwrap();
        assert!(child >= 2e6 && total >= child);
        // Bucket means are within 0.8% of each true value.
        assert!((own - (total - child)).abs() <= 0.01 * total);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_passes_results_through() {
        let mut t = Tracer::new(false);
        let id = t.open("op", 1, None);
        assert_eq!(t.span("x", 1, id, || 41 + 1), 42);
        t.close(id);
        assert_eq!(id, None);
        assert_eq!(t.durations("x").len(), 0);
        assert_eq!(t.duration_ns(id), 0);
    }
}
