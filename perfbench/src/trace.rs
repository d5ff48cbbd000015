//! In-memory span recording around the benchmark's own calls into the
//! layers' public functions.
//!
//! A span is `(name, start, end, parent, request id)`. Spans are kept
//! in a preallocated vector and written out once, at exit, so the
//! recording itself costs two clock reads and one push per span. With
//! recording off the same calls are still timed (end-to-end metrics
//! need the durations) but nothing is stored.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a recorded span; `SpanId::ROOT` is "no parent".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The parent of top-level spans.
    pub const ROOT: SpanId = SpanId(u32::MAX);
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified operation name, e.g. `session.process_batch`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Enclosing span, or [`SpanId::ROOT`].
    pub parent: SpanId,
    /// Request the span served: a pass, frame or request number.
    pub request: u64,
}

/// A span recorder; recording can be switched off and on.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `on`, with room for `capacity` spans
    /// before it has to grow.
    pub fn new(epoch: Instant, on: bool, capacity: usize) -> Self {
        Tracer { epoch, on, spans: Vec::with_capacity(if on { capacity } else { 0 }) }
    }

    /// Switches recording on or off (already recorded spans stay).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span that ran from `start` to `end`; returns its id
    /// (or [`SpanId::ROOT`] when recording is off).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return SpanId::ROOT;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, request });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Opens a span whose end is filled in by [`Tracer::close`]; used
    /// for parents, which must exist before their children.
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> (SpanId, Instant) {
        let now = Instant::now();
        (self.record(name, parent, request, now, now), now)
    }

    /// Closes a span opened with [`Tracer::open`]; returns its duration.
    pub fn close(&mut self, id: SpanId, started: Instant) -> Duration {
        let now = Instant::now();
        if id != SpanId::ROOT {
            let end = self.ns(now);
            self.spans[id.0 as usize].end_ns = end;
        }
        now - started
    }

    /// Runs `f` inside a span; returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, request, start, end);
        (out, end - start)
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans (their parents are re-based).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != SpanId::ROOT {
                s.parent = SpanId(s.parent.0 + base);
            }
            s
        }));
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent =
                if s.parent == SpanId::ROOT { "null".to_string() } else { s.parent.0.to_string() };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(Instant::now(), false, 16);
        let (v, d) = t.time("x", SpanId::ROOT, 0, || 41 + 1);
        assert_eq!(v, 42);
        assert!(d >= Duration::ZERO);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn parents_and_absorbed_spans_keep_their_links() {
        let epoch = Instant::now();
        let mut main = Tracer::new(epoch, true, 16);
        let (pass, started) = main.open("pass", SpanId::ROOT, 7);
        main.time("child", pass, 7, || ());
        main.close(pass, started);
        let mut other = Tracer::new(epoch, true, 16);
        let (p2, s2) = other.open("pass", SpanId::ROOT, 8);
        other.time("child", p2, 8, || ());
        other.close(p2, s2);
        main.absorb(other);
        assert_eq!(main.spans().iter().filter(|s| s.name == "child").count(), 2);
        assert_eq!(main.spans()[1].parent, pass);
        assert_eq!(main.spans()[3].parent, SpanId(2));
        assert!(main.spans()[0].end_ns >= main.spans()[1].end_ns);
    }
}
