//! `aiacc-trace` — structured, zero-overhead-when-off tracing for the whole
//! stack.
//!
//! The paper's entire argument is read off timelines: §III measures that one
//! stream drives ≤30 % of the TCP bandwidth, and Fig. 7 shows the
//! multi-stream win as per-stream communication lanes overlapping in time.
//! [`TraceSink`] records exactly those lanes — span open/close and instant
//! events keyed by virtual [`SimTime`] — and exports them as a Chrome-trace
//! JSON file that `chrome://tracing` or <https://ui.perfetto.dev> renders as
//! a Fig. 7-style timeline.
//!
//! The sink lives inside [`crate::Simulator`], so every layer that already
//! holds the simulator (the collective engine, the AIACC engine, the
//! training loop) can emit events without new plumbing. When tracing is
//! disabled (the default) every record call returns after one branch and no
//! allocation happens, so simulation results are bit-identical with and
//! without the sink armed.
//!
//! Event grouping follows the Chrome trace model: a *process* id per
//! subsystem (see [`track`]) and a *thread* id per lane within it — for the
//! communication-stream track, the thread id **is** the stream slot, so
//! concurrent all-reduce units render as parallel lanes.
//!
//! # Example
//!
//! ```
//! use aiacc_simnet::trace::{track, TraceSink};
//! use aiacc_simnet::SimTime;
//!
//! let mut sink = TraceSink::default();
//! sink.enable();
//! sink.span_begin(SimTime::ZERO, track::STREAMS, 0, "op#0 1.0 MiB", "unit");
//! sink.span_end(SimTime::from_secs_f64(0.5), track::STREAMS, 0, "op#0 1.0 MiB", "unit");
//! let json = sink.to_chrome_json();
//! assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"E\""));
//! ```

use crate::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// Well-known trace tracks (Chrome-trace process ids), one per subsystem.
pub mod track {
    /// Training loop: iteration spans, backward/comm-done markers, crashes.
    pub const TRAINER: u32 = 1;
    /// Engine control lane: sync rounds, queue depth, resubmission markers.
    pub const ENGINE: u32 = 2;
    /// Per-stream communication lanes; the thread id is the stream slot.
    pub const STREAMS: u32 = 3;
    /// Collective operations; the thread id is the operation id.
    pub const COLLECTIVES: u32 = 4;
    /// Network substrate: fault events and active-flow counters.
    pub const NET: u32 = 5;
}

/// What kind of Chrome-trace record an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// Span open (`ph:"B"`).
    Begin,
    /// Span close (`ph:"E"`).
    End,
    /// Point event (`ph:"i"`).
    Instant,
    /// Counter sample (`ph:"C"`).
    Counter,
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual time the event happened.
    pub at: SimTime,
    /// Record kind.
    pub phase: TracePhase,
    /// Track (Chrome-trace process id); see [`track`].
    pub pid: u32,
    /// Lane within the track (Chrome-trace thread id).
    pub tid: u64,
    /// Event name (span names must match between `Begin` and `End`).
    pub name: String,
    /// Category tag.
    pub cat: &'static str,
    /// Counter value, or a numeric annotation on an instant event.
    pub value: Option<f64>,
}

/// Structured trace recorder with Chrome-trace export.
///
/// Disabled by default: every record method first checks
/// [`TraceSink::is_enabled`] and returns immediately when tracing is off, so
/// an un-armed sink costs one branch per call site and allocates nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSink {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl TraceSink {
    /// Arms the sink: subsequent record calls are kept.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether the sink is recording. Callers building event names with
    /// `format!` should check this first to keep the disabled path
    /// allocation-free.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// All recorded events, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Drops all recorded events (the sink stays armed).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Opens a span on `(pid, tid)` at `at`.
    pub fn span_begin(&mut self, at: SimTime, pid: u32, tid: u64, name: &str, cat: &'static str) {
        self.push(at, TracePhase::Begin, pid, tid, name, cat, None);
    }

    /// Closes the innermost span on `(pid, tid)`; `name` should match the
    /// matching [`TraceSink::span_begin`].
    pub fn span_end(&mut self, at: SimTime, pid: u32, tid: u64, name: &str, cat: &'static str) {
        self.push(at, TracePhase::End, pid, tid, name, cat, None);
    }

    /// Records a point event, optionally annotated with a numeric `value`.
    pub fn instant(
        &mut self,
        at: SimTime,
        pid: u32,
        tid: u64,
        name: &str,
        cat: &'static str,
        value: Option<f64>,
    ) {
        self.push(at, TracePhase::Instant, pid, tid, name, cat, value);
    }

    /// Records a counter sample on track `pid`.
    pub fn counter(&mut self, at: SimTime, pid: u32, name: &str, value: f64) {
        self.push(at, TracePhase::Counter, pid, 0, name, "counter", Some(value));
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        at: SimTime,
        phase: TracePhase,
        pid: u32,
        tid: u64,
        name: &str,
        cat: &'static str,
        value: Option<f64>,
    ) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent { at, phase, pid, tid, name: name.to_string(), cat, value });
    }

    /// Serializes the trace in Chrome-trace ("Trace Event Format") JSON,
    /// loadable by `chrome://tracing` and <https://ui.perfetto.dev>.
    ///
    /// Timestamps are microseconds of virtual time. Process/thread metadata
    /// records name the subsystems and per-stream lanes.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 256);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut emit = |out: &mut String, body: &str| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('{');
            out.push_str(body);
            out.push('}');
        };

        // Metadata: name every track and each per-stream lane.
        let mut pids = BTreeSet::new();
        let mut stream_tids = BTreeSet::new();
        for ev in &self.events {
            pids.insert(ev.pid);
            if ev.pid == track::STREAMS {
                stream_tids.insert(ev.tid);
            }
        }
        for pid in pids {
            let name = match pid {
                track::TRAINER => "trainer",
                track::ENGINE => "aiacc-engine",
                track::STREAMS => "comm-streams",
                track::COLLECTIVES => "collectives",
                track::NET => "network",
                _ => "track",
            };
            emit(
                &mut out,
                &format!(
                    "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"{name}\"}}"
                ),
            );
        }
        for tid in stream_tids {
            emit(
                &mut out,
                &format!(
                    "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{tid},\
                     \"args\":{{\"name\":\"stream {tid}\"}}",
                    track::STREAMS
                ),
            );
        }

        for ev in &self.events {
            let ph = match ev.phase {
                TracePhase::Begin => "B",
                TracePhase::End => "E",
                TracePhase::Instant => "i",
                TracePhase::Counter => "C",
            };
            let ts = ev.at.as_nanos() as f64 / 1e3;
            let mut body = String::with_capacity(96);
            body.push_str("\"name\":\"");
            escape_json_into(&ev.name, &mut body);
            body.push_str("\",\"cat\":\"");
            escape_json_into(ev.cat, &mut body);
            body.push_str(&format!(
                "\",\"ph\":\"{ph}\",\"ts\":{ts:.3},\"pid\":{},\"tid\":{}",
                ev.pid, ev.tid
            ));
            match (ev.phase, ev.value) {
                (TracePhase::Counter, Some(v)) => {
                    body.push_str(&format!(",\"args\":{{\"value\":{}}}", json_f64(v)));
                }
                (TracePhase::Instant, v) => {
                    body.push_str(",\"s\":\"t\"");
                    if let Some(v) = v {
                        body.push_str(&format!(",\"args\":{{\"value\":{}}}", json_f64(v)));
                    }
                }
                _ => {}
            }
            emit(&mut out, &body);
        }
        out.push_str("]}");
        out
    }

    /// Derives summary metrics from the recorded events; see
    /// [`TraceSummary`].
    pub fn summary(&self) -> TraceSummary {
        // Per-stream busy time and the concurrency sweep over stream lanes.
        let mut deltas: Vec<(u64, i64)> = Vec::new();
        let mut open: BTreeMap<u64, (u64, u32)> = BTreeMap::new(); // lane -> (opened_at, depth)
        let mut busy: BTreeMap<u64, f64> = BTreeMap::new();
        let mut lanes = BTreeSet::new();
        let mut max_queue_depth = 0.0f64;
        let mut resubmissions = 0u64;
        let mut resubmit_latency_sum = 0.0f64;
        for ev in &self.events {
            match (ev.pid, ev.phase) {
                (track::STREAMS, TracePhase::Begin) => {
                    lanes.insert(ev.tid);
                    deltas.push((ev.at.as_nanos(), 1));
                    let slot = open.entry(ev.tid).or_insert((ev.at.as_nanos(), 0));
                    if slot.1 == 0 {
                        slot.0 = ev.at.as_nanos();
                    }
                    slot.1 += 1;
                }
                (track::STREAMS, TracePhase::End) => {
                    deltas.push((ev.at.as_nanos(), -1));
                    if let Some(slot) = open.get_mut(&ev.tid) {
                        slot.1 = slot.1.saturating_sub(1);
                        if slot.1 == 0 {
                            *busy.entry(ev.tid).or_default() +=
                                (ev.at.as_nanos() - slot.0) as f64 / 1e9;
                        }
                    }
                }
                (track::ENGINE, TracePhase::Counter) if ev.name == "queue_depth" => {
                    max_queue_depth = max_queue_depth.max(ev.value.unwrap_or(0.0));
                }
                (track::ENGINE, TracePhase::Instant) if ev.name == "resubmit" => {
                    resubmissions += 1;
                    resubmit_latency_sum += ev.value.unwrap_or(0.0);
                }
                _ => {}
            }
        }
        deltas.sort_unstable();
        let (mut active, mut any_secs, mut overlap_secs) = (0i64, 0.0f64, 0.0f64);
        let mut prev = deltas.first().map_or(0, |&(t, _)| t);
        for (t, d) in deltas {
            let dt = (t - prev) as f64 / 1e9;
            if active >= 1 {
                any_secs += dt;
            }
            if active >= 2 {
                overlap_secs += dt;
            }
            active += d;
            prev = t;
        }
        TraceSummary {
            stream_lanes: lanes.len(),
            per_stream_busy_secs: busy.into_iter().collect(),
            comm_busy_secs: any_secs,
            overlap_fraction: if any_secs > 0.0 { overlap_secs / any_secs } else { 0.0 },
            max_queue_depth,
            resubmissions,
            mean_resubmission_latency_secs: if resubmissions > 0 {
                resubmit_latency_sum / resubmissions as f64
            } else {
                0.0
            },
        }
    }
}

/// Counters and histogram-style aggregates derived from a recorded trace.
///
/// `overlap_fraction` is the share of communication-busy time during which
/// **two or more** stream lanes were simultaneously active — the direct,
/// measurable form of the paper's Fig. 7 multi-stream overlap claim.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Distinct per-stream lanes that carried at least one all-reduce unit.
    pub stream_lanes: usize,
    /// Busy seconds per stream lane, keyed by lane (stream slot).
    pub per_stream_busy_secs: Vec<(u64, f64)>,
    /// Seconds during which at least one stream lane was active.
    pub comm_busy_secs: f64,
    /// Share of `comm_busy_secs` with ≥ 2 lanes concurrently active (0–1).
    pub overlap_fraction: f64,
    /// Deepest all-reduce unit queue observed.
    pub max_queue_depth: f64,
    /// Units cancelled and resubmitted by the stall watchdog.
    pub resubmissions: u64,
    /// Mean time a resubmitted unit had been in flight before its watchdog
    /// fired, in seconds.
    pub mean_resubmission_latency_secs: f64,
}

/// Escapes `s` as JSON string content (without surrounding quotes).
fn escape_json_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Formats a float as a JSON number (finite inputs only).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = TraceSink::default();
        sink.span_begin(t(0.0), track::STREAMS, 0, "x", "unit");
        sink.instant(t(0.0), track::NET, 0, "y", "fault", Some(1.0));
        sink.counter(t(0.0), track::ENGINE, "queue_depth", 3.0);
        assert!(sink.events().is_empty());
    }

    #[test]
    fn enabled_sink_keeps_events_in_order() {
        let mut sink = TraceSink::default();
        sink.enable();
        sink.span_begin(t(0.0), track::STREAMS, 0, "a", "unit");
        sink.span_end(t(1.0), track::STREAMS, 0, "a", "unit");
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.events()[0].phase, TracePhase::Begin);
        assert_eq!(sink.events()[1].phase, TracePhase::End);
    }

    #[test]
    fn summary_measures_overlap_and_busy_time() {
        let mut sink = TraceSink::default();
        sink.enable();
        // Lane 0 busy [0,2]; lane 1 busy [1,3]: union 3 s, overlap 1 s.
        sink.span_begin(t(0.0), track::STREAMS, 0, "a", "unit");
        sink.span_begin(t(1.0), track::STREAMS, 1, "b", "unit");
        sink.span_end(t(2.0), track::STREAMS, 0, "a", "unit");
        sink.span_end(t(3.0), track::STREAMS, 1, "b", "unit");
        let s = sink.summary();
        assert_eq!(s.stream_lanes, 2);
        assert!((s.comm_busy_secs - 3.0).abs() < 1e-9);
        assert!((s.overlap_fraction - 1.0 / 3.0).abs() < 1e-9);
        let busy: f64 = s.per_stream_busy_secs.iter().map(|&(_, b)| b).sum();
        assert!((busy - 4.0).abs() < 1e-9);
    }

    #[test]
    fn summary_aggregates_counters_and_resubmits() {
        let mut sink = TraceSink::default();
        sink.enable();
        sink.counter(t(0.0), track::ENGINE, "queue_depth", 2.0);
        sink.counter(t(1.0), track::ENGINE, "queue_depth", 7.0);
        sink.instant(t(2.0), track::ENGINE, 0, "resubmit", "watchdog", Some(0.5));
        sink.instant(t(3.0), track::ENGINE, 0, "resubmit", "watchdog", Some(1.5));
        let s = sink.summary();
        assert_eq!(s.max_queue_depth, 7.0);
        assert_eq!(s.resubmissions, 2);
        assert!((s.mean_resubmission_latency_secs - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chrome_json_escapes_and_names_tracks() {
        let mut sink = TraceSink::default();
        sink.enable();
        sink.span_begin(t(0.0), track::STREAMS, 3, "quote\"back\\slash", "unit");
        sink.span_end(t(1.0), track::STREAMS, 3, "quote\"back\\slash", "unit");
        let json = sink.to_chrome_json();
        assert!(json.contains("quote\\\"back\\\\slash"));
        assert!(json.contains("\"name\":\"stream 3\""));
        assert!(json.contains("\"name\":\"comm-streams\""));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn empty_trace_exports_valid_skeleton() {
        let sink = TraceSink::default();
        assert_eq!(sink.to_chrome_json(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
    }
}
