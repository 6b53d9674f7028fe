//! The repository benchmark: four workloads that each stress different
//! layers of the simulator, timed from outside through the library's `pub`
//! API, with outputs checked against committed digests.
//!
//! Every workload is a closed loop in one host process: each library call
//! waits for the previous one. See `README.md` for the workloads, metrics,
//! bounds and how to compare two commits.

#![forbid(unsafe_code)]

pub mod dataplane;
pub mod fabric;
pub mod report;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod train;

use aiacc::simnet::{Event, SimTime, Simulator, SolverStats};
use report::{Digest, Metric};
use std::time::Instant;
use trace::{SpanName, Tracer};

/// Workload names, in the order the all-workloads mode runs them.
pub const WORKLOADS: [&str; 4] =
    ["fabric_churn", "train_paper", "stream_saturated", "dataplane_ef"];

/// End-to-end metrics, reported by every workload of an untraced run.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics, reported by every workload of a traced run (a layer
/// the workload never enters reads 0). Shares are self time over the traced
/// timed wall; counts cover the fixed, digest-checked part of the run.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("simnet.solve_share", "share"),
    ("simnet.apply_share", "share"),
    ("simnet.queue_share", "share"),
    ("simnet.unattributed_share", "share"),
    ("simnet.start_flow_share", "share"),
    ("cluster.share", "share"),
    ("trainer.share", "share"),
    ("core.handler_share", "share"),
    ("core.perseus_share.none", "share"),
    ("core.perseus_share.fp16", "share"),
    ("core.perseus_share.int8", "share"),
    ("core.perseus_share.topk64", "share"),
    ("baselines.handler_share", "share"),
    ("collectives.share", "share"),
    ("sched.share", "share"),
    ("dnn.share", "share"),
    ("optim.share", "share"),
    ("bench.loop_share", "share"),
    ("trace.unattributed_share", "share"),
    ("trace.covered_share", "share"),
    ("trace.overhead_ratio", "ratio"),
    ("simnet.comp_solve_ratio", "ratio"),
    ("sched.per_job_setup_share", "ratio"),
    ("simnet.events", "count"),
    ("simnet.recomputes", "count"),
    ("simnet.comps_solved", "count"),
    ("simnet.parts_solved", "count"),
    ("simnet.fill_rounds", "count"),
    ("simnet.par_solves", "count"),
    ("core.handler_calls", "count"),
    ("baselines.handler_calls", "count"),
    ("collectives.calls", "count"),
    ("core.sync_rounds", "count"),
    ("core.units_launched", "count"),
    ("core.peak_streams", "count"),
    ("sched.jobs_completed", "count"),
    ("sched.peak_backlog", "count"),
    ("sched.peak_active", "count"),
    ("sched.windows", "count"),
    ("core.wire_bytes_per_step.none", "B"),
    ("core.wire_bytes_per_step.fp16", "B"),
    ("core.wire_bytes_per_step.int8", "B"),
    ("core.wire_bytes_per_step.topk64", "B"),
    ("compress.fp16_gbps", "GB/s"),
    ("compress.int8_gbps", "GB/s"),
    ("compress.topk64_gbps", "GB/s"),
    ("collectives.ring_allreduce_gbps", "GB/s"),
    ("trainer.single_worker_steps_per_s", "1/s"),
];

/// What one run of a workload is asked to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunCfg {
    /// Seed for every generated input.
    pub seed: u64,
    /// Wall-clock budget of the timed part, seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed operations (events, iterations, jobs or steps).
    pub attempted: u64,
    /// Timed operations that failed an in-process check.
    pub failed: u64,
    /// [`END_TO_END`] values (of the traced work, in a traced run).
    pub e2e: Vec<Metric>,
    /// [`PER_LAYER`] values the workload measured (traced runs only).
    pub layers: Vec<Metric>,
    /// Further values that are printed but not compared.
    pub info: Vec<Metric>,
    /// Output digests to check against the reference.
    pub digests: Vec<Digest>,
    /// Failed checks, for the log.
    pub problems: Vec<String>,
    /// The kept spans as TSV (traced runs only).
    pub spans: String,
}

impl Outcome {
    /// Records a failed check covering `ops` timed operations.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.problems.push(why);
    }
}

/// Runs one workload by name.
pub fn run_workload(name: &str, cfg: &RunCfg) -> Result<Outcome, String> {
    match name {
        "fabric_churn" => Ok(fabric::run(cfg)),
        "train_paper" => Ok(train::run(cfg)),
        "stream_saturated" => stream::run(cfg),
        "dataplane_ef" => Ok(dataplane::run(cfg)),
        other => Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    }
}

/// Minimum constructions behind `setup_s`.
const SETUP_MIN_REPS: usize = 5;
/// Constructions continue until they have taken this long in total: on a
/// shared host the speed drifts from one half second to the next, and a
/// median over a shorter window varies more between runs (README,
/// "Calibration").
const SETUP_MIN_TOTAL_S: f64 = 2.0;

/// Times `build` repeatedly and returns the median wall time with the last
/// value built (earlier ones are dropped outside the timed region).
pub fn time_setup<T>(mut build: impl FnMut() -> T) -> (f64, T) {
    let mut walls = Vec::new();
    let mut spent = 0.0;
    loop {
        let t = Instant::now();
        let built = std::hint::black_box(build());
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        spent += wall;
        if walls.len() >= SETUP_MIN_REPS && spent >= SETUP_MIN_TOTAL_S {
            return (stats::median(&walls), built);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
///
/// # Panics
/// Panics where `/proc/self/status` has no `VmHWM` line (non-Linux hosts).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// The [`END_TO_END`] metrics from their measured values. `peak_rss_mib`
/// is read when the digest-checked part ends, so that how much further a
/// fast host gets within the budget does not change it.
pub fn e2e_metrics(setup_s: f64, ops_per_s: f64, peak_rss_mib: f64) -> Vec<Metric> {
    let values = [setup_s, ops_per_s, peak_rss_mib];
    END_TO_END.iter().zip(values).map(|(&(n, u), v)| Metric::new(n, v, u)).collect()
}

/// Per-op wall times for the printed output: the median `op_ms_p50` as the
/// workload defines it, and over `op_walls_s` the sample count and
/// `op_ms_tail`, the highest percentile with at least ten samples beyond it.
pub fn op_info(op_ms_p50: f64, op_walls_s: &[f64]) -> Vec<Metric> {
    let mut out = vec![
        Metric::new("op_ms_p50", op_ms_p50, "ms"),
        Metric::new("op_samples", op_walls_s.len() as f64, "count"),
    ];
    if let Some(p) = stats::tail_percentile(op_walls_s.len()) {
        out.push(Metric::new("op_ms_tail", stats::percentile(op_walls_s, p) * 1e3, "ms"));
        out.push(Metric::new("op_ms_tail_percentile", p, "pct"));
    }
    out
}

/// Spans of [`Simulator::next_event`] and the solver phases inside it.
#[derive(Debug, Clone, Copy)]
pub struct NextEventSpans {
    next_event: SpanName,
    solve: SpanName,
    apply: SpanName,
    queue: SpanName,
}

impl NextEventSpans {
    /// Registers the span names.
    pub fn new(tr: &mut Tracer) -> Self {
        NextEventSpans {
            next_event: tr.name("simnet.next_event"),
            solve: tr.name("simnet.solve"),
            apply: tr.name("simnet.apply"),
            queue: tr.name("simnet.queue"),
        }
    }

    /// Calls `sim.next_event()` in a span whose children are the solver's
    /// own solve/apply/queue timings of that call (phases that took no time
    /// are not recorded).
    pub fn next_event(&self, sim: &mut Simulator, tr: &mut Tracer) -> Option<(SimTime, Event)> {
        if !tr.enabled() {
            return sim.next_event();
        }
        tr.open(self.next_event);
        let b0 = sim.net().solve_breakdown();
        let next = sim.next_event();
        let b1 = sim.net().solve_breakdown();
        for (name, d) in [
            (self.solve, b1.solve_s - b0.solve_s),
            (self.apply, b1.apply_s - b0.apply_s),
            (self.queue, b1.queue_s - b0.queue_s),
        ] {
            if d > 0.0 {
                tr.child(name, (d * 1e9) as u64);
            }
        }
        tr.close();
        next
    }
}

/// The `simnet.*` work counts between two solver snapshots that `events`
/// simulator events apart.
pub fn solver_metrics(a: SolverStats, b: SolverStats, events: u64) -> Vec<Metric> {
    let c = |name: &str, x: u64, y: u64| Metric::new(name, (y - x) as f64, "count");
    let solved = (b.comps_solved - a.comps_solved) as f64;
    let existing = (b.comps_existing - a.comps_existing) as f64;
    vec![
        Metric::new("simnet.events", events as f64, "count"),
        c("simnet.recomputes", a.recomputes, b.recomputes),
        c("simnet.comps_solved", a.comps_solved, b.comps_solved),
        c("simnet.parts_solved", a.parts_solved, b.parts_solved),
        c("simnet.fill_rounds", a.fill_rounds, b.fill_rounds),
        c("simnet.par_solves", a.par_solves, b.par_solves),
        Metric::new(
            "simnet.comp_solve_ratio",
            if existing > 0.0 { solved / existing } else { 0.0 },
            "ratio",
        ),
    ]
}

/// The per-layer metric a span's self time counts toward.
fn share_metric(span: &str) -> &'static str {
    match span {
        "simnet.solve" => "simnet.solve_share",
        "simnet.apply" => "simnet.apply_share",
        "simnet.queue" => "simnet.queue_share",
        // The part of `next_event` the library's own phase timers miss.
        "simnet.next_event" => "simnet.unattributed_share",
        "simnet.start_flow" => "simnet.start_flow_share",
        "core.perseus_allreduce.none" => "core.perseus_share.none",
        "core.perseus_allreduce.fp16" => "core.perseus_share.fp16",
        "core.perseus_allreduce.int8" => "core.perseus_share.int8",
        "core.perseus_allreduce.topk64" => "core.perseus_share.topk64",
        s if s.starts_with("cluster.") => "cluster.share",
        s if s.starts_with("trainer.") => "trainer.share",
        s if s.starts_with("core.") => "core.handler_share",
        s if s.starts_with("baselines.") => "baselines.handler_share",
        s if s.starts_with("collectives.") => "collectives.share",
        s if s.starts_with("sched.") => "sched.share",
        s if s.starts_with("dnn.") => "dnn.share",
        s if s.starts_with("optim.") => "optim.share",
        s if s.starts_with("bench.") => "bench.loop_share",
        other => panic!("span {other:?} belongs to no layer"),
    }
}

/// Adds to `out` the self-time share of every recorded span over
/// `traced_wall_s` and the handler call counts (several spans may count
/// toward one metric; [`full_layer_table`] sums them), per-span detail for
/// the printed output, and the kept spans.
pub fn layer_shares(tr: &Tracer, traced_wall_s: f64, out: &mut Outcome) {
    for (id, span) in tr.names() {
        out.layers.push(Metric::new(share_metric(span), tr.self_s(id) / traced_wall_s, "share"));
        let calls = tr.calls(id) as f64;
        let counted = match span.split('.').next() {
            Some("core") if !span.starts_with("core.perseus") => Some("core.handler_calls"),
            Some("baselines") => Some("baselines.handler_calls"),
            Some("collectives") => Some("collectives.calls"),
            _ => None,
        };
        if let Some(name) = counted {
            out.layers.push(Metric::new(name, calls, "count"));
        }
        out.info.push(Metric::new(format!("{span}.self_s"), tr.self_s(id), "s"));
        out.info.push(Metric::new(format!("{span}.calls"), calls, "count"));
        for p in [50.0, 99.0] {
            if let Some(us) = tr.percentile_us(id, p) {
                out.info.push(Metric::new(format!("{span}.us_p{p}"), us, "us"));
            }
        }
    }
    let covered = (tr.root_s() / traced_wall_s).min(1.0);
    out.layers.push(Metric::new("trace.covered_share", covered, "share"));
    out.layers.push(Metric::new("trace.unattributed_share", 1.0 - covered, "share"));
    out.info.push(Metric::new("trace.wall_s", traced_wall_s, "s"));
    out.spans = tr.to_tsv();
}

/// Orders `measured` as [`PER_LAYER`], filling unmeasured layers with 0.
///
/// # Panics
/// Panics if `measured` names a metric outside the catalogue.
pub fn full_layer_table(measured: &[Metric]) -> Vec<Metric> {
    for m in measured {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == m.name),
            "per-layer metric {} is not in the catalogue",
            m.name
        );
    }
    PER_LAYER
        .iter()
        .map(|&(n, u)| {
            let v = measured.iter().filter(|m| m.name == n).map(|m| m.value).sum();
            Metric::new(n, v, u)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|&(n, _)| n).collect();
        for (i, n) in all.iter().enumerate() {
            assert!(report::valid_metric_name(n), "{n}");
            assert!(!all[..i].contains(n), "{n} listed twice");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let names_in = |section: &str| -> Vec<String> {
            let start = json.find(&format!("\"{section}\"")).expect("section present");
            let body = &json[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let e2e: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        assert_eq!(names_in("per_layer"), layers);
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
    }

    #[test]
    fn layer_table_fills_unmeasured_layers_with_zero() {
        let t = full_layer_table(&[Metric::new("simnet.events", 5.0, "count")]);
        assert_eq!(t.len(), PER_LAYER.len());
        assert_eq!(t.iter().find(|m| m.name == "simnet.events").map(|m| m.value), Some(5.0));
        assert!(t.iter().filter(|m| m.name != "simnet.events").all(|m| m.value == 0.0));
    }
}
