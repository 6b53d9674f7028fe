//! End-to-end guarantees of the tracing layer: the exported Chrome trace is
//! well-formed, its stream lanes agree with the engine's own counters, a
//! comm-bound multi-stream run really overlaps (the acceptance criterion of
//! the paper's Fig. 7 claim), and arming the sink never perturbs the
//! simulation.

use aiacc::prelude::*;
use aiacc::simnet::trace::track;
use aiacc::simnet::TracePhase;
use std::collections::HashMap;

/// A comm-bound workload: VGG-16's 528 MB of gradients on 30 Gbps TCP keep
/// AIACC's stream pool saturated.
fn comm_bound_cfg(trace: bool) -> TrainingSimConfig {
    TrainingSimConfig::new(
        ClusterSpec::tcp_v100(16),
        aiacc::dnn::zoo::vgg16(),
        EngineKind::aiacc_default(),
    )
    .with_iterations(0, 1)
    .with_trace(trace)
}

// ---------------------------------------------------------------------------
// A minimal JSON validity checker (the workspace has no JSON crate): parses
// one complete JSON value and requires it to consume the whole input.

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\n' | b'\r') {
        i += 1;
    }
    i
}

fn parse_string(b: &[u8], mut i: usize) -> Result<usize, String> {
    if b.get(i) != Some(&b'"') {
        return Err(format!("expected string at {i}"));
    }
    i += 1;
    while i < b.len() {
        match b[i] {
            b'"' => return Ok(i + 1),
            b'\\' => match b.get(i + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => i += 2,
                Some(b'u') => {
                    let hex = b.get(i + 2..i + 6).ok_or("truncated \\u escape")?;
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at {i}"));
                    }
                    i += 6;
                }
                _ => return Err(format!("bad escape at {i}")),
            },
            c if c < 0x20 => return Err(format!("raw control byte {c:#x} in string at {i}")),
            _ => i += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_value(b: &[u8], i: usize) -> Result<usize, String> {
    let i = skip_ws(b, i);
    match b.get(i) {
        Some(b'"') => parse_string(b, i),
        Some(b'{') => {
            let mut i = skip_ws(b, i + 1);
            if b.get(i) == Some(&b'}') {
                return Ok(i + 1);
            }
            loop {
                i = parse_string(b, skip_ws(b, i))?;
                i = skip_ws(b, i);
                if b.get(i) != Some(&b':') {
                    return Err(format!("expected ':' at {i}"));
                }
                i = parse_value(b, i + 1)?;
                i = skip_ws(b, i);
                match b.get(i) {
                    Some(b',') => i += 1,
                    Some(b'}') => return Ok(i + 1),
                    _ => return Err(format!("expected ',' or '}}' at {i}")),
                }
            }
        }
        Some(b'[') => {
            let mut i = skip_ws(b, i + 1);
            if b.get(i) == Some(&b']') {
                return Ok(i + 1);
            }
            loop {
                i = parse_value(b, i)?;
                i = skip_ws(b, i);
                match b.get(i) {
                    Some(b',') => i += 1,
                    Some(b']') => return Ok(i + 1),
                    _ => return Err(format!("expected ',' or ']' at {i}")),
                }
            }
        }
        Some(b't') if b[i..].starts_with(b"true") => Ok(i + 4),
        Some(b'f') if b[i..].starts_with(b"false") => Ok(i + 5),
        Some(b'n') if b[i..].starts_with(b"null") => Ok(i + 4),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let mut j = i + 1;
            while j < b.len() && matches!(b[j], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
                j += 1;
            }
            Ok(j)
        }
        other => Err(format!("unexpected {other:?} at {i}")),
    }
}

fn assert_valid_json(s: &str) {
    let b = s.as_bytes();
    let end = parse_value(b, 0).unwrap_or_else(|e| panic!("invalid JSON: {e}"));
    assert_eq!(skip_ws(b, end), b.len(), "trailing garbage after JSON value");
}

// ---------------------------------------------------------------------------

#[test]
fn traced_run_is_bit_identical_to_untraced() {
    let untraced = run_training_sim(comm_bound_cfg(false));
    let traced = run_training_sim(comm_bound_cfg(true));
    assert_eq!(untraced.iter_secs, traced.iter_secs, "tracing perturbed the simulation");
    assert_eq!(untraced.samples_per_sec, traced.samples_per_sec);
}

#[test]
fn untraced_run_records_no_events() {
    let mut sim = TrainingSim::new(comm_bound_cfg(false));
    let _ = sim.run_iteration();
    assert!(sim.trace().events().is_empty(), "disabled sink must allocate nothing");
}

#[test]
fn chrome_export_is_valid_json_with_balanced_spans() {
    let mut sim = TrainingSim::new(comm_bound_cfg(true));
    let _ = sim.run_iteration();
    let events = sim.trace().events();
    assert!(!events.is_empty());

    // Every lane's B/E events nest: depth never goes negative and every
    // span opened is closed by the end of the (completed) iteration.
    let mut stacks: HashMap<(u32, u64), Vec<&str>> = HashMap::new();
    for ev in events {
        match ev.phase {
            TracePhase::Begin => stacks.entry((ev.pid, ev.tid)).or_default().push(&ev.name),
            TracePhase::End => {
                let top = stacks
                    .get_mut(&(ev.pid, ev.tid))
                    .and_then(Vec::pop)
                    .unwrap_or_else(|| panic!("E without B on ({}, {})", ev.pid, ev.tid));
                assert_eq!(top, ev.name, "mismatched span close on ({}, {})", ev.pid, ev.tid);
            }
            _ => {}
        }
    }
    for ((pid, tid), stack) in &stacks {
        assert!(stack.is_empty(), "unclosed span {:?} on ({pid}, {tid})", stack.last());
    }

    // Timestamps never go backwards (the sink records in simulator order).
    for w in events.windows(2) {
        assert!(w[0].at <= w[1].at, "trace out of order");
    }

    assert_valid_json(&sim.trace().to_chrome_json());
}

#[test]
fn stream_lanes_match_engine_peak_streams() {
    let mut sim = TrainingSim::new(comm_bound_cfg(true));
    let report = sim.run(); // 0 warm-up + 1 measured iteration
    assert!(report.samples_per_sec > 0.0);
    let stats = sim.engine_stats().expect("aiacc engine exposes stats");
    let summary = sim.trace().summary();
    assert_eq!(
        summary.stream_lanes, stats.peak_streams,
        "trace lanes disagree with the engine's peak concurrent streams"
    );
}

#[test]
fn multi_stream_comm_bound_run_overlaps() {
    // The acceptance criterion: on a comm-bound model with a multi-stream
    // engine, the trace must show >= 2 concurrent per-stream lanes and a
    // strictly positive overlap fraction (Fig. 7b).
    let mut sim = TrainingSim::new(comm_bound_cfg(true));
    let _ = sim.run_iteration();
    let s = sim.trace().summary();
    assert!(s.stream_lanes >= 2, "expected >= 2 stream lanes, got {}", s.stream_lanes);
    assert!(
        s.overlap_fraction > 0.0,
        "expected concurrent stream activity, overlap fraction was 0"
    );
    assert!(s.comm_busy_secs > 0.0);
    let busy_lanes = s.per_stream_busy_secs.iter().filter(|&&(_, b)| b > 0.0).count();
    assert!(busy_lanes >= 2, "expected >= 2 busy lanes, got {busy_lanes}");
}

#[test]
fn single_stream_run_never_overlaps() {
    // Control: with one communication stream there is exactly one lane and
    // the overlap fraction is zero by construction.
    let cfg = TrainingSimConfig::new(
        ClusterSpec::tcp_v100(16),
        aiacc::dnn::zoo::vgg16(),
        EngineKind::Aiacc(AiaccConfig::default().with_streams(1)),
    )
    .with_iterations(0, 1)
    .with_trace(true);
    let mut sim = TrainingSim::new(cfg);
    let _ = sim.run_iteration();
    let s = sim.trace().summary();
    assert_eq!(s.stream_lanes, 1);
    assert_eq!(s.overlap_fraction, 0.0);
}

#[test]
fn trace_covers_every_subsystem_track() {
    let mut sim = TrainingSim::new(comm_bound_cfg(true));
    let _ = sim.run_iteration();
    let events = sim.trace().events();
    for (pid, what) in [
        (track::TRAINER, "iteration spans"),
        (track::ENGINE, "engine control events"),
        (track::STREAMS, "per-stream unit spans"),
        (track::COLLECTIVES, "collective phase spans"),
        (track::NET, "network counters"),
    ] {
        assert!(events.iter().any(|e| e.pid == pid), "no events on track {pid} ({what})");
    }
    // The iteration span and its phase markers are present.
    assert!(events.iter().any(|e| e.pid == track::TRAINER && e.name == "iter 0"));
    assert!(events.iter().any(|e| e.pid == track::TRAINER && e.name == "backward done"));
    assert!(events.iter().any(|e| e.pid == track::TRAINER && e.name == "comm done"));
}
