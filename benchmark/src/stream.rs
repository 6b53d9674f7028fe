//! `stream_saturated`: streaming replay of tiny jobs arriving faster than
//! the cluster drains them.
//!
//! Each job's fabric is tiny, so per-job turnover dominates: placement,
//! the `ClusterNet::subnet` view, engine construction, slot recycling, the
//! backlog and the JCT sketch. Arrivals are an open Poisson loop in
//! simulated time only; the host drives one `StreamSim` at a time, each
//! replaying the same input.

use crate::report::{fnv1a, Digest, Metric, FNV_BASIS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{e2e_metrics, layer_shares, op_info, peak_rss_mib, time_setup, Outcome, RunCfg};
use aiacc::cluster::{ClusterNet, ClusterSpec, ComputeModel, GpuFreeList};
use aiacc::dnn::{zoo, DType};
use aiacc::sched::stream::{ArrivalCfg, ArrivalProcess, StreamCfg, StreamSim};
use aiacc::sched::{
    try_place, ClusterMetrics, JobMix, MultiJobCfg, PlacePolicy, Workload, WorkloadCfg,
};
use aiacc::simnet::Simulator;
use std::hint::black_box;
use std::time::Instant;

/// Jobs per replay.
const JOBS: u64 = 10_000;
/// Mean inter-arrival gap, seconds: far below the service time, so the
/// backlog grows throughout.
const GAP_S: f64 = 1e-4;
const ITERATIONS: usize = 2;
/// A run always times at least this many replays.
const MIN_REPS: usize = 2;

fn cluster() -> ClusterSpec {
    ClusterSpec::tcp_v100(32)
}

/// The streaming configuration: 4 x 8 V100 on TCP, packed placement,
/// alternating AIACC and Horovod jobs, one metrics window per tenth.
pub fn stream_cfg(seed: u64, jobs: u64) -> StreamCfg {
    let mut arrivals = ArrivalCfg::new(ArrivalProcess::Poisson, jobs, seed);
    arrivals.mix = JobMix::Tiny;
    arrivals.iterations = ITERATIONS;
    arrivals.mean_interarrival_secs = GAP_S;
    // The batch workload is unused in streaming mode; the constructor
    // needs one.
    let placeholder = Workload::generate(&WorkloadCfg::new(1, 1).with_mix(JobMix::Tiny));
    let base = MultiJobCfg::new(cluster(), PlacePolicy::Packed, placeholder);
    StreamCfg::new(base, arrivals).with_window((jobs / 10).max(1))
}

/// One replay's output digest: every report line plus the summary row.
pub fn report_digest(lines: &[String], summary: Option<&ClusterMetrics>) -> u64 {
    let mut h = FNV_BASIS;
    for l in lines {
        h = fnv1a(h, l.as_bytes());
        h = fnv1a(h, b"\n");
    }
    h = fnv1a(h, summary.map_or_else(String::new, ClusterMetrics::to_tsv_row).as_bytes());
    h
}

/// Times the per-job library calls a replay makes, once per job of an
/// equally sized tiny-mix workload, each in its own span.
fn replay_job_setup(seed: u64, tr: &mut Tracer) {
    let (gen, place, subnet, build, timing) = (
        tr.name("sched.workload_generate"),
        tr.name("sched.try_place"),
        tr.name("cluster.subnet"),
        tr.name("trainer.engine_build"),
        tr.name("cluster.iteration_timing"),
    );
    let root = tr.name("bench.replay");
    let spec = cluster();
    let mut sim = Simulator::new();
    let physical = ClusterNet::build(&spec, sim.net_mut());
    let free = GpuFreeList::new(&spec);
    tr.open(root);
    tr.open(gen);
    let wl = Workload::generate(
        &WorkloadCfg::new(JOBS as usize, seed)
            .with_mix(JobMix::Tiny)
            .with_iterations(ITERATIONS)
            .with_interarrival(GAP_S),
    );
    tr.close();
    for job in &wl.jobs {
        let model = zoo::by_name(&job.model).expect("tiny-mix models are in the zoo");
        tr.open(place);
        let placement = try_place(PlacePolicy::Packed, job.gpus, &free);
        tr.close();
        let placement = placement.expect("an empty 32-GPU cluster fits any tiny job");
        tr.open(subnet);
        black_box(physical.subnet(placement.spec.clone(), &placement.ranks));
        tr.close();
        tr.open(build);
        black_box(job.engine.build(&model, placement.spec.world_size()));
        tr.close();
        tr.open(timing);
        let compute = ComputeModel::new(placement.spec.node.gpu.clone());
        black_box(compute.iteration_timing(&model, model.default_batch_per_gpu(), DType::F32));
        tr.close();
    }
    tr.close();
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let scfg = stream_cfg(cfg.seed, JOBS);
    let (setup_s, _) = time_setup(|| StreamSim::try_new(scfg.clone()));
    let mut out = Outcome::default();
    let mut tr = Tracer::new(false);
    let (new_span, run_span, rep_span) =
        (tr.name("sched.stream_new"), tr.name("sched.stream_run"), tr.name("bench.rep"));

    let mut first: Option<u64> = None;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut stats = None;
    let mut rss = 0.0;
    let started = Instant::now();
    let mut k = 0;
    while k < MIN_REPS || started.elapsed().as_secs_f64() < cfg.seconds {
        let on = cfg.trace && k % 2 == 0;
        tr.set_enabled(on);
        let t = Instant::now();
        tr.open(rep_span);
        tr.open(new_span);
        let sim = StreamSim::try_new(scfg.clone()).map_err(|e| e.to_string())?;
        tr.close();
        tr.open(run_span);
        let report = sim.run().map_err(|e| e.to_string())?;
        tr.close();
        tr.close();
        let wall = t.elapsed().as_secs_f64();
        let st = &report.stats;
        out.attempted += st.completed;
        if st.failed > 0 {
            out.fail(st.failed, format!("replay {k}: {} jobs failed", st.failed));
        }
        if st.completed != JOBS || st.emitted != JOBS || report.summary.is_none() {
            out.fail(JOBS - st.completed.min(JOBS), format!("replay {k}: incomplete: {st:?}"));
        }
        // Every replay of the same input must write the same report.
        let digest = report_digest(&report.lines, report.summary.as_ref());
        match first {
            None => first = Some(digest),
            Some(d) if d != digest => {
                out.fail(st.completed, format!("replay {k} differs from replay 0"))
            }
            Some(_) => {}
        }
        stats.get_or_insert_with(|| st.clone());
        if k + 1 == MIN_REPS {
            rss = peak_rss_mib();
        }
        if on { &mut traced } else { &mut plain }.push((wall, st.completed));
        k += 1;
    }
    tr.set_enabled(false);

    let main = if cfg.trace { &traced } else { &plain };
    let jobs_per_s: Vec<f64> = main.iter().map(|&(w, j)| j as f64 / w).collect();
    let ms_per_job: Vec<f64> = main.iter().map(|&(w, j)| w / j as f64).collect();
    out.e2e = e2e_metrics(setup_s, median(&jobs_per_s), rss);
    out.info.extend(op_info(median(&ms_per_job) * 1e3, &ms_per_job));
    out.info.push(Metric::new("reps", main.len() as f64, "count"));
    out.digests = vec![Digest {
        key: "report_hash".into(),
        value: format!("{:016x}", first.expect("at least one replay")),
        covers: JOBS,
    }];

    if cfg.trace {
        let replay_started = Instant::now();
        tr.set_enabled(true);
        replay_job_setup(cfg.seed, &mut tr);
        tr.set_enabled(false);
        let replay_wall = replay_started.elapsed().as_secs_f64();
        let traced_wall: f64 = traced.iter().map(|&(w, _)| w).sum::<f64>() + replay_wall;
        layer_shares(&tr, traced_wall, &mut out);
        let replay_cost: f64 = tr
            .names()
            .filter(|(_, n)| {
                [
                    "sched.try_place",
                    "cluster.subnet",
                    "trainer.engine_build",
                    "cluster.iteration_timing",
                ]
                .contains(n)
            })
            .map(|(id, _)| tr.total_s(id))
            .sum();
        let run_per_rep = tr.total_s(run_span) / tr.calls(run_span) as f64;
        let plain_walls: Vec<f64> = plain.iter().map(|&(w, _)| w).collect();
        let traced_walls: Vec<f64> = traced.iter().map(|&(w, _)| w).collect();
        let st = stats.expect("at least one replay");
        out.layers.extend([
            Metric::new("sched.per_job_setup_share", replay_cost / run_per_rep, "ratio"),
            Metric::new(
                "trace.overhead_ratio",
                median(&traced_walls) / median(&plain_walls),
                "ratio",
            ),
            Metric::new("sched.jobs_completed", st.completed as f64, "count"),
            Metric::new("sched.peak_backlog", st.peak_backlog as f64, "count"),
            Metric::new("sched.peak_active", st.peak_active as f64, "count"),
            Metric::new("sched.windows", st.windows_emitted as f64, "count"),
        ]);
    }
    Ok(out)
}
