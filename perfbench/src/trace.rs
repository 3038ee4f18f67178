//! The benchmark's own span recorder. Spans wrap the benchmark's calls
//! into the public API of each layer; nothing is recorded inside the
//! program. With tracing off, [`Tracer::clock`] reads no clock and
//! nothing is recorded. In the measured phase one operation in
//! [`SAMPLE_EVERY`] is traced, which keeps the span store and the
//! written trace small at hundreds of thousands of symbols per second.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::{self_times, Interval};

/// One measured operation in this many is traced.
pub const SAMPLE_EVERY: u64 = 64;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.call`, e.g. `net.submit`; the layer is the text before
    /// the first dot.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    /// Nanoseconds since the tracer's epoch; 0 while still open.
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request id shared by every span of one symbol or transform.
    pub req: u64,
}

/// In-memory span store, written out once the run ends.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Index of the first span of the measured phase; earlier spans
    /// belong to set-up.
    measured_from: usize,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), measured_from: 0 }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Whether the measured operation `id` is traced.
    pub fn sampled(&self, id: u64) -> bool {
        self.on && id.is_multiple_of(SAMPLE_EVERY)
    }

    /// The current instant when tracing, `None` (and no clock read)
    /// otherwise.
    pub fn clock(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// [`Tracer::clock`] for an operation that may not be sampled.
    pub fn clock_if(&self, traced: bool) -> Option<Instant> {
        (self.on && traced).then(Instant::now)
    }

    /// Marks the end of set-up: later spans make up the waterfall.
    pub fn begin_measuring(&mut self) {
        self.measured_from = self.spans.len();
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a closed span that started at `start` and ends now.
    /// Returns its index, or `None` when tracing is off.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Option<Instant>,
        parent: Option<usize>,
        req: u64,
    ) -> Option<usize> {
        let start = start?;
        let end = Instant::now();
        self.push(Span { name, start: self.ns(start), end: self.ns(end), parent, req })
    }

    /// Records a span between two instants the caller already read;
    /// nothing when tracing is off.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.push(Span { name, start: self.ns(start), end: self.ns(end), parent, req })
    }

    /// Opens a span starting at `start`; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, start: Option<Instant>, req: u64) -> Option<usize> {
        let start = start?;
        self.push(Span { name, start: self.ns(start), end: 0, parent: None, req })
    }

    /// Closes an open span now.
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.ns(Instant::now());
        }
    }

    fn push(&mut self, span: Span) -> Option<usize> {
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ns of every span called `name`, ascending.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        crate::stats::sorted(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end - s.start) as f64)
                .collect(),
        )
    }

    /// The measured phase's waterfall: each layer's self time per
    /// traced operation, in ns, and the number of traced operations.
    pub fn self_ns_per_op(&self) -> (BTreeMap<&'static str, f64>, usize) {
        let from = self.measured_from;
        let spans = &self.spans[from..];
        let intervals: Vec<Interval> = spans
            .iter()
            .map(|s| Interval {
                start: s.start,
                end: s.end.max(s.start),
                parent: s.parent.and_then(|p| p.checked_sub(from)),
            })
            .collect();
        let ops = spans.iter().map(|s| s.req).collect::<std::collections::BTreeSet<_>>().len();
        let mut by_layer = BTreeMap::new();
        for (span, own) in spans.iter().zip(self_times(&intervals)) {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            *by_layer.entry(layer).or_insert(0.0) += own as f64 / ops as f64;
        }
        (by_layer, ops)
    }

    /// Writes every span as CSV (`id,name,start_ns,end_ns,parent,req`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent,req")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(out, "{i},{},{},{},{parent},{}", s.name, s.start, s.end, s.req)?;
        }
        out.flush()
    }
}
