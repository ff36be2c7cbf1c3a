//! In-memory spans recorded around calls into the program's public API.
//!
//! A span has a name, a start and an end, the span it is attributed to
//! (its parent) and a trace id: one per replayed interval, one per read.
//! Spans stay in memory until the run ends, then [`Tracer::write_tsv`]
//! writes them out. A span's self time is its duration minus the
//! durations of the spans attributed to it. Most children run inside
//! their parent; a twin measurement (a replica interval, an in-process
//! read) runs next to the span it explains and is attributed to it, so
//! the parent's self time is what the twin does not cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span (`NONE` for "no parent").
pub type SpanId = u32;
/// The parent id of a root span.
pub const NONE: SpanId = u32::MAX;

struct Span {
    trace: u64,
    parent: SpanId,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Aggregated self time of one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTime {
    /// Sum of self times, in nanoseconds (signed: a twin child can be a
    /// little longer than the work its parent did).
    pub total_ns: i64,
    /// Spans of this name.
    pub count: u64,
}

impl SelfTime {
    /// Mean self time per span, in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total_ns as f64 / self.count as f64 / 1e3
    }
}

/// The span recorder. A disabled tracer runs the timed closures and
/// records nothing, so untraced and traced intervals share one code path.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    /// An empty, enabled recorder.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// True while spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder was made.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// `t` in nanoseconds since the recorder was made.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its id (`NONE` when disabled).
    pub fn record(
        &mut self,
        trace: u64,
        parent: SpanId,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        self.spans.push(Span {
            trace,
            parent,
            name,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        trace: u64,
        parent: SpanId,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(trace, parent, name, start, end);
        out
    }

    /// Opens a span whose end is not known yet (a parent); close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, trace: u64, parent: SpanId, name: &'static str) -> SpanId {
        let now = self.now();
        self.record(trace, parent, name, now, now)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        let now = self.now();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = now;
        }
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0i64; self.spans.len()];
        for span in &self.spans {
            if let Some(slot) = child_ns.get_mut(span.parent as usize) {
                *slot += (span.end_ns - span.start_ns) as i64;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.total_ns += (span.end_ns - span.start_ns) as i64 - children;
            entry.count += 1;
        }
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Writes the spans of several recorders, one tab-separated line each:
/// `phase trace id parent name start_ns end_ns` (`-` for no parent).
pub fn write_tsv(path: &Path, tracers: &[(&str, &Tracer)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "phase\ttrace\tid\tparent\tname\tstart_ns\tend_ns")?;
    for (phase, tr) in tracers {
        for (id, s) in tr.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{phase}\t{}\t{id}\t{parent}\t{}\t{}\t{}",
                s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}
