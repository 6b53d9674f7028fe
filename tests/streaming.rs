//! Streaming-replay oracle tests: batch differential, snapshot/resume
//! bit-identity, chaos determinism and bounded-memory witnesses.

use aiacc_cluster::ClusterSpec;
use aiacc_sched::stream::{ArrivalCfg, ArrivalProcess, StreamCfg, StreamSim};
use aiacc_sched::{
    summarize, JobMix, MultiJobCfg, MultiJobSim, PlacePolicy, RecoveryPolicy, Workload, WorkloadCfg,
};
use aiacc_simnet::{FaultPlan, SimDuration, SimTime};

/// A unique temp path per test (tests run in parallel in one process).
fn tmp_path(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("aiacc_stream_{}_{}", std::process::id(), name));
    p.to_string_lossy().into_owned()
}

fn base_cfg(gpus: usize) -> MultiJobCfg {
    // The workload field is unused in streaming mode; give it one
    // placeholder job to satisfy the batch constructor's shape.
    let wl = Workload::generate(&WorkloadCfg::new(1, 1).with_mix(JobMix::Tiny));
    MultiJobCfg::new(ClusterSpec::tcp_v100(gpus), PlacePolicy::Packed, wl)
}

/// Streaming a saved trace with per-job rows reproduces the batch run of
/// the same workload exactly: same per-job TSV rows, summary means within
/// float-fold tolerance, percentiles within the sketch bound (here exact,
/// because the sample count is far below the sketch capacity).
#[test]
fn stream_trace_replay_matches_batch() {
    let wl =
        Workload::generate(&WorkloadCfg::new(60, 11).with_mix(JobMix::Tiny).with_interarrival(1.0));
    let trace_path = tmp_path("diff.tsv");
    std::fs::write(&trace_path, wl.to_tsv()).unwrap();

    let batch = MultiJobSim::new(MultiJobCfg::new(
        ClusterSpec::tcp_v100(32),
        PlacePolicy::Packed,
        wl.clone(),
    ))
    .run();
    let batch_metrics = summarize(&batch);
    let batch_rows: Vec<String> = batch.jobs.iter().map(|j| j.tsv_row()).collect();

    let arrivals = ArrivalCfg::new(ArrivalProcess::Trace { path: trace_path.clone() }, 0, 0);
    let cfg = StreamCfg::new(base_cfg(32), arrivals)
        .with_window(1_000_000) // no window rows mid-run
        .with_per_job_rows(true);
    let report = StreamSim::try_new(cfg).unwrap().run().unwrap();
    std::fs::remove_file(&trace_path).ok();

    let mut stream_rows: Vec<String> =
        report.lines.iter().filter(|l| !l.starts_with("window\t")).cloned().collect();
    // Stream rows are in completion order; batch rows in id order.
    stream_rows.sort_by_key(|r| r.split('\t').next().unwrap().parse::<usize>().unwrap());
    assert_eq!(stream_rows, batch_rows, "per-job rows must match batch exactly");

    let s = report.summary.expect("natural end has a summary");
    assert_eq!(s.njobs, batch_metrics.njobs);
    assert_eq!(s.njobs_failed, batch_metrics.njobs_failed);
    let close = |a: f64, b: f64, what: &str| {
        assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{what}: stream {a} vs batch {b}");
    };
    close(s.jct_mean_secs, batch_metrics.jct_mean_secs, "jct mean");
    close(s.queue_delay_mean_secs, batch_metrics.queue_delay_mean_secs, "queue delay mean");
    close(s.makespan_secs, batch_metrics.makespan_secs, "makespan");
    close(s.fabric_utilization, batch_metrics.fabric_utilization, "fabric utilization");
    close(s.jain_fairness, batch_metrics.jain_fairness, "jain fairness");
    // 60 samples in a 1024-capacity sketch: no compaction, exact quantiles.
    assert_eq!(report.stats.sketch_max_rank_error, 0);
    close(s.jct_p50_secs, batch_metrics.jct_p50_secs, "p50");
    close(s.jct_p95_secs, batch_metrics.jct_p95_secs, "p95");
    close(s.jct_p99_secs, batch_metrics.jct_p99_secs, "p99");
}

fn poisson_cfg(total: u64, snapshot: Option<(u64, String)>) -> StreamCfg {
    let mut arrivals = ArrivalCfg::new(ArrivalProcess::Poisson, total, 7);
    arrivals.mean_interarrival_secs = 1.0;
    let mut cfg = StreamCfg::new(base_cfg(32), arrivals).with_window(50).with_per_job_rows(true);
    if let Some((every, path)) = snapshot {
        cfg = cfg.with_snapshots(every, path);
    }
    cfg
}

/// Stopping at a snapshot and resuming reproduces the uninterrupted run's
/// output byte-for-byte: `stopped.lines + resumed.lines == full.lines`, and
/// the resumed summary equals the uninterrupted one bitwise.
#[test]
fn snapshot_resume_is_byte_identical() {
    let snap_a = tmp_path("resume_a.snap");
    let snap_b = tmp_path("resume_b.snap");

    let full =
        StreamSim::try_new(poisson_cfg(400, Some((150, snap_b.clone())))).unwrap().run().unwrap();
    assert!(!full.stats.stopped_at_snapshot);
    assert!(full.stats.snapshots_written >= 1, "full run must hit the snapshot interval");

    let stopped = StreamSim::try_new(
        poisson_cfg(400, Some((150, snap_a.clone()))).with_stop_after_snapshot(true),
    )
    .unwrap()
    .run()
    .unwrap();
    assert!(stopped.stats.stopped_at_snapshot);
    assert!(stopped.summary.is_none(), "a stopped run does not own the summary");
    assert!(stopped.stats.completed >= 150 && stopped.stats.completed < 400);

    let resumed =
        StreamSim::resume_from_file(poisson_cfg(400, Some((150, snap_a.clone()))), &snap_a)
            .unwrap()
            .run()
            .unwrap();
    std::fs::remove_file(&snap_a).ok();
    std::fs::remove_file(&snap_b).ok();

    let mut joined = stopped.lines.clone();
    joined.extend(resumed.lines.iter().cloned());
    assert_eq!(joined, full.lines, "stopped+resumed output must equal the uninterrupted run");
    assert_eq!(
        format!("{:?}", resumed.summary),
        format!("{:?}", full.summary),
        "resumed summary must be bit-identical"
    );
    // The restored accumulator is cumulative: the resumed run reports the
    // whole horizon, not just its own segment.
    assert_eq!(resumed.stats.completed, full.stats.completed);
    assert!(stopped.stats.completed < full.stats.completed);
}

/// Snapshot/resume bit-identity holds under chaos too: crashes, restarts
/// and permanently-down nodes all land before the quiescent point and are
/// restored from the snapshot (generations, down nodes, carried bytes).
#[test]
fn snapshot_resume_survives_chaos() {
    let snap = tmp_path("chaos.snap");
    let make = || {
        // Crashes aimed at the packed low nodes while dense arrivals keep
        // them busy, so the recovery path is exercised deterministically.
        let plan = FaultPlan::new()
            .crash_node_for(0, SimTime::from_secs_f64(3.0), SimDuration::from_secs_f64(2.0))
            .crash_node_for(1, SimTime::from_secs_f64(6.0), SimDuration::from_secs_f64(2.0))
            .straggle_node(
                2,
                2.0,
                SimTime::from_secs_f64(4.0),
                Some(SimDuration::from_secs_f64(3.0)),
            );
        let base = base_cfg(32).with_faults(plan).with_recovery(RecoveryPolicy::Restart);
        let mut arrivals = ArrivalCfg::new(ArrivalProcess::Poisson, 300, 9);
        arrivals.mean_interarrival_secs = 0.1;
        arrivals.iterations = 12;
        StreamCfg::new(base, arrivals)
            .with_window(40)
            .with_per_job_rows(true)
            .with_snapshots(120, snap.clone())
    };

    let full = StreamSim::try_new(make()).unwrap().run().unwrap();
    let stopped = StreamSim::try_new(make().with_stop_after_snapshot(true)).unwrap().run().unwrap();
    assert!(stopped.stats.stopped_at_snapshot);
    let resumed = StreamSim::resume_from_file(make(), &snap).unwrap().run().unwrap();
    std::fs::remove_file(&snap).ok();

    let mut joined = stopped.lines.clone();
    joined.extend(resumed.lines.iter().cloned());
    assert_eq!(joined, full.lines);
    assert_eq!(format!("{:?}", resumed.summary), format!("{:?}", full.summary));
    // Chaos actually exercised the recovery path.
    let s = full.summary.unwrap();
    assert!(s.crashes_total > 0, "chaos plan must produce at least one crash");
}

/// A snapshot refuses to resume into a different configuration.
#[test]
fn snapshot_rejects_mismatched_config() {
    let snap = tmp_path("mismatch.snap");
    let stopped = StreamSim::try_new(
        poisson_cfg(200, Some((80, snap.clone()))).with_stop_after_snapshot(true),
    )
    .unwrap()
    .run()
    .unwrap();
    assert!(stopped.stats.stopped_at_snapshot);
    let mut other = poisson_cfg(200, Some((80, snap.clone())));
    other.arrivals.seed = 8; // different arrival stream
    let err = StreamSim::resume_from_file(other, &snap).err().expect("must reject");
    std::fs::remove_file(&snap).ok();
    assert!(err.to_string().contains("digest"), "got: {err}");
}

/// A snapshot whose sketch header claims an absurd level count is an
/// error, not an allocation abort or a capacity-overflow panic.
#[test]
fn snapshot_rejects_corrupted_sketch() {
    let snap = tmp_path("sketch.snap");
    let cfg = || poisson_cfg(200, Some((80, snap.clone())));
    StreamSim::try_new(cfg().with_stop_after_snapshot(true)).unwrap().run().unwrap();
    let text = std::fs::read_to_string(&snap).unwrap();
    std::fs::remove_file(&snap).ok();
    for levels in ["100000000000000", "18446744073709551615"] {
        let corrupt: String = text
            .lines()
            .map(|l| match l.strip_prefix("sketch\t") {
                Some(rec) => {
                    let (head, rest) = rec.split_once(" levels=").expect("sketch has levels");
                    let tail = rest.split_once(' ').map_or("", |(_, t)| t);
                    format!("sketch\t{head} levels={levels} {tail}\n")
                }
                None => format!("{l}\n"),
            })
            .collect();
        assert_ne!(corrupt, text, "the sketch line was edited");
        let err = StreamSim::try_resume(cfg(), &corrupt).err().expect("must reject");
        assert!(err.to_string().contains("sketch:"), "levels={levels}: {err}");
    }
}

/// The same configuration always produces the same output (run-to-run
/// determinism of the full streaming pipeline, chaos included).
#[test]
fn streaming_is_deterministic_under_chaos() {
    let make = || {
        let base = base_cfg(32)
            .with_faults(FaultPlan::chaos(5, 4, SimDuration::from_secs_f64(15.0), 2))
            .with_recovery(RecoveryPolicy::Shrink);
        let mut arrivals = ArrivalCfg::new(ArrivalProcess::Bursty, 250, 13);
        arrivals.mean_interarrival_secs = 0.8;
        StreamCfg::new(base, arrivals).with_window(25).with_per_job_rows(true)
    };
    let a = StreamSim::try_new(make()).unwrap().run().unwrap();
    let b = StreamSim::try_new(make()).unwrap().run().unwrap();
    assert_eq!(a.lines, b.lines);
    assert_eq!(format!("{:?}", a.summary), format!("{:?}", b.summary));
    assert_eq!(a.stats, b.stats);
}

/// The slot pool bounds live state: every job completes, concurrency never
/// exceeds the pool, and the cumulative sketch stays far below one entry
/// per job.
#[test]
fn slot_pool_bounds_live_state() {
    let mut arrivals = ArrivalCfg::new(ArrivalProcess::Diurnal { period_secs: 120.0 }, 2_000, 21);
    arrivals.mean_interarrival_secs = 0.05; // heavy load: forces queueing + slot reuse
    arrivals.iterations = 2;
    let cfg = StreamCfg::new(base_cfg(32), arrivals).with_window(200).with_nslots(24);
    let report = StreamSim::try_new(cfg).unwrap().run().unwrap();
    let stats = &report.stats;
    assert_eq!(stats.emitted, 2_000);
    assert_eq!(stats.completed, 2_000);
    assert_eq!(stats.nslots, 24);
    assert!(stats.peak_active <= 24, "peak active {} > pool", stats.peak_active);
    assert!(stats.peak_active > 1, "load must actually overlap jobs");
    assert_eq!(stats.windows_emitted, 10);
    assert!(
        stats.sketch_stored_items < 2_000,
        "sketch must compact below one item per job, got {}",
        stats.sketch_stored_items
    );
}
