//! The streaming figure: steady-state service throughput of a shared
//! cluster under a saturating open-loop arrival stream — AIACC vs
//! single-stream Horovod — plus a bounded-memory scale witness that replays
//! a million-job arrival stream through the same pipeline.
//!
//! The headline metric is *service capacity*: jobs drained per simulated
//! second when arrivals outpace the cluster, so the scheduler is never
//! idle and the only limit is how fast each engine clears its gangs. The
//! scale witness runs arrival-limited instead (the backlog stays tiny) and
//! exists to pin the O(window) memory claim: live state is bounded by the
//! slot pool and the quantile sketch compacts to a few thousand items no
//! matter how many jobs flow through.

use crate::report::Table;
use aiacc_cluster::ClusterSpec;
use aiacc_sched::stream::{run_stream, ArrivalCfg, ArrivalProcess, StreamCfg, StreamStats};
use aiacc_sched::{ClusterMetrics, JobMix, MultiJobCfg, PlacePolicy, Workload, WorkloadCfg};
use aiacc_simnet::par;
use aiacc_trainer::EngineKind;

/// Jobs per saturated capacity run (full mode).
pub const STREAM_SATURATED_JOBS: u64 = 10_000;

/// Jobs per saturated capacity run in quick mode.
pub const STREAM_SATURATED_QUICK_JOBS: u64 = 2_000;

/// Jobs replayed by the full-scale bounded-memory witness.
pub const STREAM_SCALE_JOBS: u64 = 1_000_000;

/// Jobs replayed by the quick-mode scale witness.
pub const STREAM_SCALE_QUICK_JOBS: u64 = 20_000;

/// Mean inter-arrival gap that saturates the cluster (arrivals far faster
/// than service, so the backlog grows and capacity is the bottleneck).
const SATURATED_GAP_SECS: f64 = 0.000_1;

/// Mean inter-arrival gap for the arrival-limited scale witness.
const SCALE_GAP_SECS: f64 = 0.02;

/// Iterations per streamed job (short jobs keep the event count per job
/// small so capacity reflects scheduling + communication, not epochs).
const STREAM_ITERATIONS: usize = 2;

/// Arrival seed shared by every cell so engines face the identical stream.
const STREAM_SEED: u64 = 7;

/// One engine's cell of the streaming figure.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamPoint {
    /// Engine label (`aiacc` / `horovod` / `mixed`).
    pub engine: &'static str,
    /// Jobs emitted by the arrival source.
    pub jobs: u64,
    /// End-of-run cluster summary (sketch percentiles, running means).
    pub summary: ClusterMetrics,
    /// Streaming counters: backlog, slot, and sketch bounds.
    pub stats: StreamStats,
}

impl StreamPoint {
    /// Steady-state service throughput, jobs per simulated second.
    pub fn throughput_jobs_per_sec(&self) -> f64 {
        let served = self.stats.completed - self.stats.failed;
        if self.summary.makespan_secs > 0.0 {
            served as f64 / self.summary.makespan_secs
        } else {
            0.0
        }
    }
}

/// The shared streaming scenario: tiny mix on a 4-node × 8-V100 TCP
/// cluster, packed placement, Poisson arrivals with `gap` mean seconds.
fn stream_cfg(engine: Option<EngineKind>, jobs: u64, gap: f64) -> StreamCfg {
    // The workload field is unused in streaming mode; one placeholder job
    // satisfies the batch constructor's shape.
    let wl = Workload::generate(&WorkloadCfg::new(1, 1).with_mix(JobMix::Tiny));
    let base = MultiJobCfg::new(ClusterSpec::tcp_v100(32), PlacePolicy::Packed, wl);
    let mut arrivals = ArrivalCfg::new(ArrivalProcess::Poisson, jobs, STREAM_SEED);
    arrivals.mean_interarrival_secs = gap;
    arrivals.iterations = STREAM_ITERATIONS;
    arrivals.engine = engine;
    StreamCfg::new(base, arrivals).with_window((jobs / 10).max(1))
}

fn run_point(engine: &'static str, kind: Option<EngineKind>, jobs: u64, gap: f64) -> StreamPoint {
    let report = run_stream(stream_cfg(kind, jobs, gap)).expect("streaming run");
    let summary = report.summary.expect("natural end has a summary");
    StreamPoint { engine, jobs, summary, stats: report.stats }
}

/// Runs the saturated capacity cell for each engine, in parallel.
pub fn saturated_points(jobs: u64) -> Vec<StreamPoint> {
    let cells: [(&'static str, EngineKind); 2] = [
        ("aiacc", EngineKind::aiacc_default()),
        ("horovod", EngineKind::Horovod(Default::default())),
    ];
    par::map(&cells, |&(label, kind)| run_point(label, Some(kind), jobs, SATURATED_GAP_SECS))
}

/// Runs the arrival-limited scale witness: `jobs` arrivals through the
/// bounded slot pool with the default (alternating-engine) mix.
pub fn scale_point(jobs: u64) -> StreamPoint {
    run_point("mixed", None, jobs, SCALE_GAP_SECS)
}

/// Steady-state throughput for `engine` over `points`.
pub fn steady_throughput(points: &[StreamPoint], engine: &str) -> f64 {
    points
        .iter()
        .find(|p| p.engine == engine)
        .unwrap_or_else(|| panic!("no stream point for engine {engine}"))
        .throughput_jobs_per_sec()
}

/// The capacity gate: AIACC drains strictly more jobs per simulated second
/// than Horovod, and every cell saturated and completed without a failure.
pub fn check_saturated(points: &[StreamPoint]) {
    let aiacc = steady_throughput(points, "aiacc");
    let horovod = steady_throughput(points, "horovod");
    assert!(
        aiacc > horovod,
        "steady-state capacity headline broken: aiacc {aiacc:.1} jobs/s vs \
         horovod {horovod:.1} jobs/s"
    );
    // The stream actually saturated: a deep backlog formed and drained.
    for p in points {
        assert!(
            p.stats.peak_backlog as u64 > p.jobs / 2,
            "{}: peak backlog {} never saturated",
            p.engine,
            p.stats.peak_backlog
        );
        assert_eq!(p.stats.completed, p.jobs);
        assert_eq!(p.stats.failed, 0);
    }
}

/// The bounded-memory gate on the scale witness: every job completes, and
/// backlog, live gangs and the quantile sketch stay bounded.
pub fn check_scale(p: &StreamPoint) {
    assert_eq!(p.stats.completed, p.jobs);
    assert_eq!(p.stats.failed, 0);
    // Arrival-limited: live state never approaches the job count.
    assert!(p.stats.peak_backlog < 100, "backlog {} not bounded", p.stats.peak_backlog);
    assert!(p.stats.peak_active <= p.stats.nslots);
    assert!(
        p.stats.sketch_stored_items as u64 * 4 < p.jobs,
        "sketch stores {} of {} jobs — not sublinear",
        p.stats.sketch_stored_items,
        p.jobs
    );
}

/// The streaming figure: one row per saturated engine cell plus the scale
/// witness, with the backlog/sketch bounds that prove memory stays O(window).
/// Panics if the cells fail [`check_saturated`] or [`check_scale`].
pub fn fig_stream(saturated_jobs: u64, scale_jobs: u64) -> Table {
    let mut points = saturated_points(saturated_jobs);
    check_saturated(&points);
    let scale = scale_point(scale_jobs);
    check_scale(&scale);
    points.push(scale);
    stream_table(points)
}

/// Renders the streaming figure's rows. The gates only hold at the sizes
/// `repro` runs, so the determinism test renders tiny runs through here.
fn stream_table(points: Vec<StreamPoint>) -> Table {
    let mut t = Table::new(
        "Streaming: steady-state service capacity under saturating arrivals (packed, 4x8 V100, TCP)",
        &[
            "engine",
            "jobs",
            "completed",
            "throughput_jobs_per_s",
            "jct_p50_s",
            "jct_p99_s",
            "peak_backlog",
            "peak_active",
            "nslots",
            "windows",
            "sketch_items",
            "sketch_rank_err",
            "failed",
        ],
    );
    for p in points {
        t.push(vec![
            p.engine.to_string(),
            p.jobs.to_string(),
            p.stats.completed.to_string(),
            format!("{:.3}", p.throughput_jobs_per_sec()),
            format!("{:.4}", p.summary.jct_p50_secs),
            format!("{:.4}", p.summary.jct_p99_secs),
            p.stats.peak_backlog.to_string(),
            p.stats.peak_active.to_string(),
            p.stats.nslots.to_string(),
            p.stats.windows_emitted.to_string(),
            p.stats.sketch_stored_items.to_string(),
            p.stats.sketch_max_rank_error.to_string(),
            p.stats.failed.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aiacc_sustains_higher_steady_state_throughput() {
        check_saturated(&saturated_points(STREAM_SATURATED_QUICK_JOBS));
    }

    #[test]
    fn scale_witness_stays_bounded() {
        check_scale(&scale_point(STREAM_SCALE_QUICK_JOBS));
    }

    #[test]
    fn figure_is_deterministic() {
        let run = || {
            let mut points = saturated_points(500);
            points.push(scale_point(500));
            stream_table(points)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.rows.len(), 3);
        assert_eq!(a.rows, b.rows, "stream figure must be reproducible");
    }
}
