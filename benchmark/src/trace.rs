//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends.
//!
//! A span is `{name, start_ns, end_ns, parent, round}`; a layer's *self
//! time* is its spans' duration minus the part their child spans cover.
//! End-to-end metrics are measured with a [disabled](Tracer::disabled)
//! tracer, whose calls reduce to one branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`daemon.send`).
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; 0 while still open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The round (or repetition) the span belongs to.
    pub round: u32,
}

/// Handle returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder for one thread of control.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records.
    pub fn enabled() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, round: u32) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            round,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span`, which must be the innermost open one.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order (a harness bug).
    pub fn exit(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds (measured even when recording is off).
    pub fn timed<R>(&mut self, name: &'static str, round: u32, f: impl FnOnce() -> R) -> (R, f64) {
        let span = self.enter(name, round);
        let start = Instant::now();
        let result = f();
        let seconds = start.elapsed().as_secs_f64();
        self.exit(span);
        (result, seconds)
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in nanoseconds: each closed span's duration
    /// minus the durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let covered = span.end_ns.saturating_sub(span.start_ns);
                own[parent] = own[parent].saturating_sub(covered);
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            *by_name.entry(span.name).or_insert(0) += own;
        }
        by_name
    }

    /// Writes one JSON object per span to `path`.
    ///
    /// # Errors
    ///
    /// File creation or write failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{}}}",
                span.name, span.start_ns, span.end_ns, span.round
            )?;
        }
        out.flush()
    }
}
