//! In-memory span recorder for traced runs.
//!
//! Spans are recorded from the benchmark's side, around calls into each
//! layer's public functions; the program itself carries no tracing.  Every
//! operation (a scenario or a DSE candidate) is one span tree sharing the
//! operation's index.  Spans stay in memory until the run ends.

use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The operation the span belongs to.
    pub op: u64,
    pub id: u32,
    /// The span that caused this one (`None` for an operation's root).
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Offsets from the start of the traced run.
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }

    pub fn to_json(&self) -> String {
        let parent = self.parent.map_or("null".to_string(), |p| p.to_string());
        format!(
            "{{\"op\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            self.op,
            self.id,
            self.name,
            self.start.as_nanos(),
            self.end.as_nanos()
        )
    }
}

/// Records spans relative to one origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Times `f` as span `name` of operation `op` under `parent`, returning
    /// its result and the new span's id.
    pub fn span<T>(
        &mut self,
        op: u64,
        parent: Option<u32>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = self.origin.elapsed();
        let value = f();
        let end = self.origin.elapsed();
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start,
            end,
        });
        (value, id)
    }

    /// Opens a span whose end is set later with [`Tracer::close`] (for
    /// roots that enclose their children).
    pub fn open(&mut self, op: u64, parent: Option<u32>, name: &'static str) -> u32 {
        let (_, id) = self.span(op, parent, name, || ());
        id
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end = self.origin.elapsed();
    }

    pub fn get(&self, id: u32) -> &Span {
        &self.spans[id as usize]
    }

    /// Total time of the spans recorded under `parent`, in seconds.
    pub fn children_s(&self, parent: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.duration().as_secs_f64())
            .sum()
    }

    /// Total time of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64())
            .sum()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}
