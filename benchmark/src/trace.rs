//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around each call the benchmark makes into a
//! library layer. Every span has a name, a start, an end and the span that
//! was open when it started (its parent). Closing a span folds it into
//! per-name totals: calls, total time, self time (its duration minus the
//! time its children cover) and a duration histogram. The first
//! [`KEEP_SPANS`] spans are also kept verbatim and written out at exit; a
//! traced run makes millions of spans, and keeping all of them would let the
//! recorder's own memory dominate the run it measures.

use crate::stats::Histogram;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept verbatim for the trace file.
pub const KEEP_SPANS: usize = 200_000;

/// A registered span name (see [`Tracer::name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanName(usize);

/// One closed span, as written to the trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Open order, unique per recorder.
    pub seq: u64,
    /// `seq` of the span open when this one started.
    pub parent: Option<u64>,
    /// What the span timed.
    pub name: SpanName,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

#[derive(Debug)]
struct Open {
    seq: u64,
    name: SpanName,
    start_ns: u64,
    /// Time covered by this span's closed children so far.
    child_ns: u64,
}

#[derive(Debug, Clone, Default)]
struct Agg {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
    hist: Histogram,
}

/// The span recorder. Disabled recorders ignore every call, so untraced
/// code paths can share the traced ones.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    names: Vec<&'static str>,
    aggs: Vec<Agg>,
    stack: Vec<Open>,
    next_seq: u64,
    root_ns: u64,
    kept: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            names: Vec::new(),
            aggs: Vec::new(),
            stack: Vec::new(),
            next_seq: 0,
            root_ns: 0,
            kept: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between top-level spans.
    ///
    /// # Panics
    /// Panics if a span is open.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled tracing inside an open span");
        self.enabled = on;
    }

    /// Registers `name` (idempotent) and returns its handle.
    pub fn name(&mut self, name: &'static str) -> SpanName {
        if let Some(i) = self.names.iter().position(|&n| n == name) {
            return SpanName(i);
        }
        self.names.push(name);
        self.aggs.push(Agg::default());
        SpanName(self.names.len() - 1)
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = (SpanName, &'static str)> + '_ {
        self.names.iter().enumerate().map(|(i, &n)| (SpanName(i), n))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now.
    pub fn open(&mut self, name: SpanName) {
        if self.enabled {
            let t = self.now_ns();
            self.open_at(name, t);
        }
    }

    /// Closes the innermost open span now.
    pub fn close(&mut self) {
        if self.enabled {
            let t = self.now_ns();
            self.close_at(t);
        }
    }

    /// Opens a span at an explicit time (nanoseconds since creation).
    pub fn open_at(&mut self, name: SpanName, t_ns: u64) {
        if !self.enabled {
            return;
        }
        self.stack.push(Open { seq: self.next_seq, name, start_ns: t_ns, child_ns: 0 });
        self.next_seq += 1;
    }

    /// Closes the innermost open span at an explicit time.
    ///
    /// # Panics
    /// Panics if no span is open.
    pub fn close_at(&mut self, t_ns: u64) {
        if !self.enabled {
            return;
        }
        let open = self.stack.pop().expect("close without an open span");
        let dur = t_ns.saturating_sub(open.start_ns);
        self.fold(open.name, dur, dur.saturating_sub(open.child_ns));
        match self.stack.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => self.root_ns += dur,
        }
        if self.kept.len() < KEEP_SPANS {
            self.kept.push(Span {
                seq: open.seq,
                parent: self.stack.last().map(|p| p.seq),
                name: open.name,
                start_ns: open.start_ns,
                end_ns: t_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Records a child of the innermost open span whose duration was
    /// measured elsewhere (for example by the library itself). It covers
    /// part of its parent but has no timestamps of its own.
    ///
    /// # Panics
    /// Panics if no span is open.
    pub fn child(&mut self, name: SpanName, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last_mut().expect("child without an open span");
        parent.child_ns += dur_ns;
        self.fold(name, dur_ns, dur_ns);
    }

    fn fold(&mut self, name: SpanName, dur: u64, self_ns: u64) {
        let a = &mut self.aggs[name.0];
        a.calls += 1;
        a.total_ns += dur;
        a.self_ns += self_ns;
        a.hist.record(dur);
    }

    /// Closed spans of `name`.
    pub fn calls(&self, name: SpanName) -> u64 {
        self.aggs[name.0].calls
    }

    /// Summed duration of the closed spans of `name`, seconds.
    pub fn total_s(&self, name: SpanName) -> f64 {
        self.aggs[name.0].total_ns as f64 * 1e-9
    }

    /// Summed self time of the closed spans of `name`, seconds.
    pub fn self_s(&self, name: SpanName) -> f64 {
        self.aggs[name.0].self_ns as f64 * 1e-9
    }

    /// Percentile `p` of the span durations of `name`, microseconds.
    pub fn percentile_us(&self, name: SpanName, p: f64) -> Option<f64> {
        self.aggs[name.0].hist.percentile_ns(p).map(|ns| ns * 1e-3)
    }

    /// Summed duration of all top-level spans, seconds.
    pub fn root_s(&self) -> f64 {
        self.root_ns as f64 * 1e-9
    }

    /// The spans kept verbatim, in close order.
    pub fn kept(&self) -> &[Span] {
        &self.kept
    }

    /// Renders the kept spans as TSV (`seq parent name start_ns end_ns`),
    /// with a trailing comment counting the spans not kept.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("seq\tparent\tname\tstart_ns\tend_ns\n");
        for s in &self.kept {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}",
                s.seq, self.names[s.name.0], s.start_ns, s.end_ns
            );
        }
        let _ = writeln!(out, "# {} later spans folded into totals only", self.dropped);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let mut t = Tracer::new(true);
        let (a, b, c, d) = (t.name("a"), t.name("b"), t.name("c"), t.name("d"));
        t.open_at(a, 0);
        t.open_at(b, 10);
        t.open_at(c, 12);
        t.close_at(15); // c: 3, nested two deep
        t.close_at(20); // b: 10, of which c covers 3
        t.open_at(d, 20);
        t.close_at(30); // d: 10, adjacent to b
        t.close_at(40); // a: 40, of which b and d cover 20
        let self_ns = |n| (t.self_s(n) * 1e9).round() as u64;
        assert_eq!((self_ns(a), self_ns(b), self_ns(c), self_ns(d)), (20, 7, 3, 10));
        assert_eq!((t.total_s(a) * 1e9).round() as u64, 40);
        assert_eq!((t.root_s() * 1e9).round() as u64, 40);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(self_ns(a) + self_ns(b) + self_ns(c) + self_ns(d), 40);
        let parents: Vec<_> = t.kept().iter().map(|s| (s.seq, s.parent)).collect();
        assert_eq!(parents, vec![(2, Some(1)), (1, Some(0)), (3, Some(0)), (0, None)]);
    }

    #[test]
    fn measured_children_cover_their_parent() {
        let mut t = Tracer::new(true);
        let (p, q) = (t.name("p"), t.name("q"));
        t.open_at(p, 100);
        t.child(q, 30);
        t.child(q, 20);
        t.close_at(200);
        assert_eq!((t.self_s(p) * 1e9).round() as u64, 50);
        assert_eq!((t.self_s(q) * 1e9).round() as u64, 50);
        assert_eq!(t.calls(q), 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        let a = t.name("a");
        t.open(a);
        t.child(a, 5);
        t.close();
        assert_eq!(t.calls(a), 0);
        assert_eq!(t.root_s(), 0.0);
        assert!(t.kept().is_empty());
    }
}
