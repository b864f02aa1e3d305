//! In-memory span recorder for the traced run.
//!
//! Spans are opened around calls into the library from the benchmark's
//! own code, kept in memory, and written out only when the run ends.
//! A span's self time is its duration minus the time its child spans
//! cover; children never overlap, because spans open and close on one
//! thread in stack order.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval, in seconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `connectors.edge.build`.
    pub name: &'static str,
    /// Start offset in seconds.
    pub start: f64,
    /// End offset in seconds.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records nested spans and named counts for one traced call.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<(&'static str, f64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Adds `value` to the count `name` (counts start at zero).
    pub fn count(&mut self, name: &'static str, value: f64) {
        match self.counts.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += value,
            None => self.counts.push((name, value)),
        }
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The count `name`, or 0 if it was never recorded.
    pub fn counted(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// Duration of span `i` minus the durations of its direct children.
    pub fn self_time(&self, i: usize) -> f64 {
        let span = &self.spans[i];
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| s.end - s.start)
            .fold(0.0, |a, b| a + b);
        span.end - span.start - children
    }

    /// Summed duration of every span named `name` (0 if none; folded from
    /// +0.0 because an empty `f64` sum is -0.0).
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .fold(0.0, |a, b| a + b)
    }

    /// Summed self time of every span named `name` (0 if none).
    pub fn self_total(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_time(i))
            .fold(0.0, |a, b| a + b)
    }

    /// The spans and counts as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}}}",
                s.name, s.start, s.end
            );
        }
        out.push_str("], \"counts\": {");
        for (i, (name, v)) in self.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {v}");
        }
        out.push_str("}}");
        out
    }
}
