//! `aiacc-sim` — run one simulated distributed-training job from the
//! command line.
//!
//! ```text
//! aiacc-sim [train] [--model NAME] [--gpus N] [--engine aiacc|horovod|ddp|byteps|kvstore]
//!           [--streams N] [--granularity MIB] [--batch N] [--rdma]
//!           [--racks NODES_PER_RACK] [--flat-solver]
//!           [--compress none|fp16|int8|topk:K] [--compression] [--tree]
//!           [--tune BUDGET] [--iters N] [--verbose]
//!           [--faults degrade|flap|straggler|crash] [--trace OUT.json]
//!           [--jobs N]
//!
//! aiacc-sim schedule [--policy packed|spread|topo|all] [--njobs N] [--seed S]
//!           [--gpus N] [--engine E] [--mix comm-heavy|mixed|tiny] [--iters N]
//!           [--rdma] [--compress SCHEME] [--verbose]
//!           [--load FILE.tsv] [--save FILE.tsv] [--trace OUT.json]
//!           [--jobs N]
//! ```
//!
//! `aiacc-sim` simulates one training job; `aiacc-sim schedule` admits a
//! whole seeded *workload* of jobs onto one shared cluster — gang-placed by
//! the chosen policy, their gradient flows contending on the same fabric —
//! and prints per-job completion times plus cluster tail-JCT metrics as
//! deterministic TSV.
//!
//! `--jobs N` (or the `AIACC_JOBS` environment variable) sets how many
//! worker threads the shared persistent pool may use. It accelerates
//! parallel sweeps — e.g. the `--tune` batch evaluations, or `schedule
//! --policy all`'s per-policy fan-out — and the real data-parallel step of
//! a `train --compress` run (worker shards, codecs and the ring fold). The
//! simulated network runs on one thread. Results are bit-identical
//! regardless of the worker count.
//!
//! `--racks N` packs nodes into racks of `N` behind 2:1-oversubscribed ToR
//! uplinks and a shared spine, so cross-rack gradient traffic contends the
//! way it does on a real datacenter fabric (the default is a flat,
//! single-tier network). `--flat-solver` runs the job (or every scheduled
//! job) with the flat whole-network solve instead of the partitioned
//! rack-by-rack fluid solver — results are bit-identical either way; the
//! flag exists for benchmarking and for the CI equivalence check.
//!
//! Count flags (`--gpus`, `--iters`, `--streams`, `--batch`, `--njobs`,
//! `--racks`, `--tune`, `--jobs`) must be positive; a zero is a usage error
//! (exit 2), like an unknown flag.
//!
//! `--compress SCHEME` puts a gradient compressor on the wire for the AIACC
//! engine: `fp16` and `int8` quantize every unit, `topk:K` keeps the top
//! 1/K coordinates by magnitude (RedSync-style, with error-feedback
//! residuals), and `none` (the default) sends raw f32. The timing plane
//! charges the exact compressed byte count plus a compress/decompress
//! compute cost; with a lossy scheme the train command also trains a real
//! MLP through the exact data plane twice — uncompressed and compressed —
//! and prints the measured loss delta and per-step wire bytes.
//! `--compression` is kept as an alias for `--compress fp16`.
//!
//! `--verbose` prints solver diagnostics — per-run statistics and the
//! solve/apply/queue wall-time breakdown — to stderr; by default they are
//! suppressed.
//!
//! Examples:
//! `aiacc-sim --model vgg16 --gpus 32 --engine horovod`
//! `aiacc-sim --model bert_large --gpus 64 --rdma --tune 40`
//! `aiacc-sim --model resnet50 --gpus 16 --faults degrade`
//! `aiacc-sim --model vgg16 --gpus 16 --trace trace.json` (open in Perfetto)
//! `aiacc-sim schedule --njobs 8 --policy packed --seed 7`
//! `aiacc-sim schedule --njobs 8 --policy all --jobs 4`

use aiacc::collectives::Algo;
use aiacc::prelude::*;
use aiacc::sched::{JobMix, MultiJobSim, RecoveryPolicy};
use aiacc::simnet::{FaultPlan, SolveMode};
use aiacc::trainer::tune::tune_aiacc;

struct Args {
    model: String,
    gpus: usize,
    engine: String,
    streams: Option<usize>,
    granularity_mib: Option<f64>,
    batch: Option<usize>,
    rdma: bool,
    racks: Option<usize>,
    solve_mode: SolveMode,
    compress: Scheme,
    tree: bool,
    tune: Option<usize>,
    iters: usize,
    verbose: bool,
    faults: Option<String>,
    trace: Option<String>,
    jobs: Option<usize>,
}

/// Builds the canned fault scenario selected by `--faults`.
///
/// Each scenario targets logical nodes, so it adapts to any cluster size;
/// the training simulation resolves node targets to that node's NIC
/// resources.
fn fault_scenario(name: &str, nodes: usize) -> Result<FaultPlan, String> {
    let last = nodes.saturating_sub(1) as u32;
    match name {
        // Every NIC loses half its capacity early on and never recovers.
        "degrade" => {
            let mut plan = FaultPlan::new();
            for n in 0..nodes as u32 {
                plan = plan.degrade_node(n, 0.5, SimTime::from_secs_f64(0.1), None);
            }
            Ok(plan)
        }
        // The last node's NIC goes dark for 100 ms mid-iteration.
        "flap" => Ok(FaultPlan::new().with_event(aiacc::simnet::FaultEvent {
            target: aiacc::simnet::FaultTarget::Node(last),
            kind: aiacc::simnet::FaultKind::Flap,
            at: SimTime::from_secs_f64(0.3),
            duration: Some(SimDuration::from_secs_f64(0.1)),
        })),
        // One node computes 1.5× slower for a two-second window.
        "straggler" => Ok(FaultPlan::new().straggle_node(
            last,
            1.5,
            SimTime::from_secs_f64(0.2),
            Some(SimDuration::from_secs_f64(2.0)),
        )),
        // One node dies mid-run; the job pays a checkpoint restart.
        "crash" => Ok(FaultPlan::new().crash_node(last, SimTime::from_secs_f64(1.0))),
        other => Err(format!("unknown fault scenario {other}; use degrade|flap|straggler|crash")),
    }
}

/// Parses the value after the flag at `argv[*i]` and moves `i` onto it.
fn flag_value<T: std::str::FromStr>(argv: &[String], i: &mut usize) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let flag = &argv[*i];
    *i += 1;
    let value = argv.get(*i).ok_or_else(|| format!("{flag} needs a value"))?;
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parses a count flag's value, rejecting zero as a usage error instead of
/// letting it reach a library assertion.
fn count_value(argv: &[String], i: &mut usize, what: &str) -> Result<usize, String> {
    match flag_value(argv, i)? {
        0 => Err(format!("{} needs a positive {what}", argv[*i - 1])),
        n => Ok(n),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        model: "resnet50".to_string(),
        gpus: 32,
        engine: "aiacc".to_string(),
        streams: None,
        granularity_mib: None,
        batch: None,
        rdma: false,
        racks: None,
        solve_mode: SolveMode::Partitioned,
        compress: Scheme::None,
        tree: false,
        tune: None,
        iters: 3,
        verbose: false,
        faults: None,
        trace: None,
        jobs: None,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--model" => args.model = flag_value(argv, &mut i)?,
            "--gpus" => args.gpus = count_value(argv, &mut i, "GPU count")?,
            "--engine" => args.engine = flag_value(argv, &mut i)?,
            "--streams" => args.streams = Some(count_value(argv, &mut i, "stream count")?),
            "--granularity" => {
                let mib: f64 = flag_value(argv, &mut i)?;
                if mib.is_nan() || mib <= 0.0 {
                    return Err("--granularity needs a positive size in MiB".to_string());
                }
                args.granularity_mib = Some(mib);
            }
            "--batch" => args.batch = Some(count_value(argv, &mut i, "batch size")?),
            "--rdma" => args.rdma = true,
            "--racks" => args.racks = Some(count_value(argv, &mut i, "nodes-per-rack count")?),
            "--flat-solver" => args.solve_mode = SolveMode::Full,
            "--compress" => args.compress = flag_value(argv, &mut i)?,
            "--compression" => args.compress = Scheme::Fp16,
            "--tree" => args.tree = true,
            "--tune" => args.tune = Some(count_value(argv, &mut i, "warm-up budget")?),
            "--iters" => args.iters = count_value(argv, &mut i, "iteration count")?,
            "--verbose" => args.verbose = true,
            "--faults" => args.faults = Some(flag_value(argv, &mut i)?),
            "--trace" => args.trace = Some(flag_value(argv, &mut i)?),
            "--jobs" => args.jobs = Some(count_value(argv, &mut i, "integer")?),
            "--help" | "-h" => {
                return Err("usage: aiacc-sim [train] [--model NAME] [--gpus N] [--engine E] \
                            [--streams N] [--granularity MIB] [--batch N] [--rdma] \
                            [--racks NODES_PER_RACK] [--flat-solver] \
                            [--compress none|fp16|int8|topk:K] [--compression] [--tree] \
                            [--tune BUDGET] [--iters N] [--verbose] \
                            [--faults degrade|flap|straggler|crash] [--trace OUT.json] \
                            [--jobs N]\n       aiacc-sim schedule ... \
                            (multi-job scheduler; see `aiacc-sim schedule --help`)\n\
                            --compress puts a gradient compressor on the AIACC wire \
                            (topk:K keeps 1/K coordinates, with error feedback); \
                            --compression is an alias for --compress fp16.\n\
                            --verbose prints solver diagnostics to stderr.\n\
                            --flat-solver solves the whole network on every change \
                            instead of only the dirty components (same output)."
                    .to_string())
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
        i += 1;
    }
    Ok(args)
}

struct SchedArgs {
    policy: String,
    njobs: usize,
    seed: u64,
    gpus: usize,
    engine: Option<String>,
    mix: String,
    iters: usize,
    rdma: bool,
    racks: Option<usize>,
    solve_mode: SolveMode,
    compress: Scheme,
    verbose: bool,
    load: Option<String>,
    save: Option<String>,
    trace: Option<String>,
    jobs: Option<usize>,
    chaos: bool,
    chaos_events: usize,
    chaos_horizon_secs: f64,
    recovery: String,
    stream: bool,
    arrivals: String,
    interarrival: Option<f64>,
    arrival_period_secs: f64,
    window: u64,
    nslots: Option<usize>,
    snapshot_every: Option<u64>,
    snapshot: Option<String>,
    resume: Option<String>,
    stop_after_snapshot: bool,
    per_job: bool,
}

fn parse_sched_args(argv: &[String]) -> Result<SchedArgs, String> {
    let mut args = SchedArgs {
        policy: "packed".to_string(),
        njobs: 8,
        seed: 7,
        gpus: 32,
        engine: None,
        mix: "comm-heavy".to_string(),
        iters: 6,
        rdma: false,
        racks: None,
        solve_mode: SolveMode::Partitioned,
        compress: Scheme::None,
        verbose: false,
        load: None,
        save: None,
        trace: None,
        jobs: None,
        chaos: false,
        chaos_events: 4,
        chaos_horizon_secs: 40.0,
        recovery: "restart".to_string(),
        stream: false,
        arrivals: "poisson".to_string(),
        interarrival: None,
        arrival_period_secs: 600.0,
        window: 1000,
        nslots: None,
        snapshot_every: None,
        snapshot: None,
        resume: None,
        stop_after_snapshot: false,
        per_job: false,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--policy" => args.policy = flag_value(argv, &mut i)?,
            "--njobs" => args.njobs = flag_value(argv, &mut i)?,
            "--seed" => args.seed = flag_value(argv, &mut i)?,
            "--gpus" => args.gpus = count_value(argv, &mut i, "GPU count")?,
            "--engine" => args.engine = Some(flag_value(argv, &mut i)?),
            "--mix" => args.mix = flag_value(argv, &mut i)?,
            "--iters" => args.iters = flag_value(argv, &mut i)?,
            "--rdma" => args.rdma = true,
            "--racks" => args.racks = Some(count_value(argv, &mut i, "nodes-per-rack count")?),
            "--flat-solver" => args.solve_mode = SolveMode::Full,
            "--compress" => args.compress = flag_value(argv, &mut i)?,
            "--verbose" => args.verbose = true,
            "--load" => args.load = Some(flag_value(argv, &mut i)?),
            "--save" => args.save = Some(flag_value(argv, &mut i)?),
            "--trace" => args.trace = Some(flag_value(argv, &mut i)?),
            "--jobs" => args.jobs = Some(count_value(argv, &mut i, "integer")?),
            "--chaos" => args.chaos = true,
            "--chaos-events" => args.chaos_events = flag_value(argv, &mut i)?,
            "--chaos-horizon" => {
                let secs: f64 = flag_value(argv, &mut i)?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err("--chaos-horizon needs a positive number of seconds".to_string());
                }
                args.chaos_horizon_secs = secs;
            }
            "--recovery" => args.recovery = flag_value(argv, &mut i)?,
            "--stream" => args.stream = true,
            "--arrivals" => args.arrivals = flag_value(argv, &mut i)?,
            "--interarrival" => args.interarrival = Some(flag_value(argv, &mut i)?),
            "--arrival-period" => args.arrival_period_secs = flag_value(argv, &mut i)?,
            "--window" => args.window = flag_value(argv, &mut i)?,
            "--nslots" => args.nslots = Some(flag_value(argv, &mut i)?),
            "--snapshot-every" => args.snapshot_every = Some(flag_value(argv, &mut i)?),
            "--snapshot" => args.snapshot = Some(flag_value(argv, &mut i)?),
            "--resume" => args.resume = Some(flag_value(argv, &mut i)?),
            "--stop-after-snapshot" => args.stop_after_snapshot = true,
            "--per-job" => args.per_job = true,
            "--help" | "-h" => {
                return Err("usage: aiacc-sim schedule [--policy packed|spread|topo|all] \
                            [--njobs N] [--seed S] [--gpus N] [--engine E] \
                            [--mix comm-heavy|mixed|tiny] [--iters N] [--rdma] \
                            [--racks NODES_PER_RACK] [--flat-solver] \
                            [--compress none|fp16|int8|topk:K] [--verbose] \
                            [--load FILE.tsv] [--save FILE.tsv] [--trace OUT.json] [--jobs N] \
                            [--chaos] [--chaos-events N] [--chaos-horizon SECS] \
                            [--recovery restart|shrink|fail]\n       \
                            aiacc-sim schedule --stream \
                            [--arrivals poisson|diurnal|bursty|TRACE.tsv] [--njobs N] \
                            [--interarrival SECS] [--arrival-period SECS] [--window N] \
                            [--nslots N] [--snapshot-every N] [--snapshot PATH] \
                            [--resume PATH] [--stop-after-snapshot] [--per-job]"
                    .to_string())
            }
            other => return Err(format!("unknown flag {other} (try schedule --help)")),
        }
        i += 1;
    }
    // A generated batch workload needs jobs and iterations; the streaming
    // replay reports its own errors, and a loaded workload ignores both.
    if !args.stream && args.load.is_none() {
        if args.njobs == 0 {
            return Err("--njobs needs a positive job count".to_string());
        }
        if args.iters == 0 {
            return Err("--iters needs a positive iteration count".to_string());
        }
    }
    Ok(args)
}

/// Renders one policy's scenario as deterministic TSV: a per-job block
/// followed by the cluster-metrics block. Fixed 9-digit float precision so
/// equal runs are byte-for-byte equal regardless of `--jobs`.
fn sched_render(report: &aiacc::sched::MultiJobReport) -> String {
    let mut out = String::from(aiacc::sched::JobOutcome::tsv_header());
    out.push('\n');
    for j in &report.jobs {
        out.push_str(&j.tsv_row());
        out.push('\n');
    }
    let m = aiacc::sched::summarize(report);
    out.push_str(aiacc::sched::ClusterMetrics::tsv_header());
    out.push('\n');
    out.push_str(&m.to_tsv_row());
    out.push('\n');
    out
}

/// `schedule --stream`: open-loop arrivals drained through the slot-pool
/// streaming replay. Headers are printed only on a fresh run so that a
/// stopped run's output concatenated with its resumed run's output is
/// byte-identical to the uninterrupted run.
fn cmd_schedule_stream(
    args: &SchedArgs,
    recovery: RecoveryPolicy,
    engine: Option<EngineKind>,
    chaos: Option<&FaultPlan>,
) -> Result<(), String> {
    use aiacc::sched::stream::{ArrivalCfg, ArrivalProcess, StreamCfg, StreamSim};
    let policy = PlacePolicy::by_name(&args.policy)
        .ok_or_else(|| format!("unknown policy {}; use packed|spread|topo", args.policy))?;
    let process = match args.arrivals.as_str() {
        "poisson" => ArrivalProcess::Poisson,
        "diurnal" => ArrivalProcess::Diurnal { period_secs: args.arrival_period_secs },
        "bursty" => ArrivalProcess::Bursty,
        path => ArrivalProcess::Trace { path: path.to_string() },
    };
    let mut arrivals = ArrivalCfg::new(process, args.njobs as u64, args.seed);
    arrivals.mix = JobMix::by_name(&args.mix)
        .ok_or_else(|| format!("unknown mix {}; use comm-heavy|mixed|tiny", args.mix))?;
    arrivals.iterations = args.iters;
    if let Some(gap) = args.interarrival {
        arrivals.mean_interarrival_secs = gap;
    }
    arrivals.engine = engine;
    if args.compress != Scheme::None {
        if let Some(EngineKind::Aiacc(c)) = &mut arrivals.engine {
            *c = c.with_compress(args.compress);
        }
    }
    // The batch workload field is unused in streaming mode; a one-job
    // placeholder satisfies the constructor.
    let placeholder = Workload::generate(&WorkloadCfg::new(1, 1).with_mix(JobMix::Tiny));
    let base = sched_cfg(args, policy, placeholder, recovery, chaos);
    let mut cfg = StreamCfg::new(base, arrivals)
        .with_window(args.window)
        .with_per_job_rows(args.per_job)
        .with_stop_after_snapshot(args.stop_after_snapshot);
    if let Some(n) = args.nslots {
        cfg = cfg.with_nslots(n);
    }
    if let Some(every) = args.snapshot_every {
        let path = args.snapshot.clone().unwrap_or_else(|| "stream.snap".to_string());
        cfg = cfg.with_snapshots(every, path);
    }
    let sim = match &args.resume {
        Some(path) => StreamSim::resume_from_file(cfg, path).map_err(|e| e.to_string())?,
        None => StreamSim::try_new(cfg).map_err(|e| e.to_string())?,
    };
    let report = sim.run().map_err(|e| e.to_string())?;
    if args.resume.is_none() {
        if args.per_job {
            println!("{}", aiacc::sched::JobOutcome::tsv_header());
        }
        println!("{}", aiacc::sched::window_tsv_header());
    }
    for line in &report.lines {
        println!("{line}");
    }
    if let Some(m) = &report.summary {
        println!("{}", aiacc::sched::ClusterMetrics::tsv_header());
        println!("{}", m.to_tsv_row());
    }
    let st = &report.stats;
    eprintln!(
        "[aiacc-sim] stream: {} emitted / {} completed / {} failed | {} window(s) | \
         {} slot(s), peak {} active, peak backlog {} | {} snapshot(s){} | \
         sketch ≤{} rank error over {} stored",
        st.emitted,
        st.completed,
        st.failed,
        st.windows_emitted,
        st.nslots,
        st.peak_active,
        st.peak_backlog,
        st.snapshots_written,
        if st.stopped_at_snapshot { ", stopped at snapshot" } else { "" },
        st.sketch_max_rank_error,
        st.sketch_stored_items,
    );
    Ok(())
}

/// Builds the cluster selected by the shared `--gpus/--rdma/--racks` flags.
fn cluster_spec(gpus: usize, rdma: bool, racks: Option<usize>) -> ClusterSpec {
    let mut cluster = if rdma { ClusterSpec::rdma_v100(gpus) } else { ClusterSpec::tcp_v100(gpus) };
    if let Some(n) = racks {
        let nic = cluster.node.nic;
        cluster = cluster.with_rack_layer(aiacc::cluster::RackSpec::oversubscribed_2to1(n, &nic));
    }
    cluster
}

/// One policy's shared-cluster scenario as the `schedule` flags describe
/// it. A chaos plan also arms the straggler detector: jobs 30 % slower than
/// the cluster-median slowdown get the NIC-health mitigation.
fn sched_cfg(
    args: &SchedArgs,
    policy: PlacePolicy,
    workload: Workload,
    recovery: RecoveryPolicy,
    chaos: Option<&FaultPlan>,
) -> MultiJobCfg {
    let mut cfg =
        MultiJobCfg::new(cluster_spec(args.gpus, args.rdma, args.racks), policy, workload)
            .with_recovery(recovery)
            .with_solve_mode(args.solve_mode);
    if let Some(plan) = chaos {
        cfg = cfg.with_faults(plan.clone()).with_straggler_mitigation(1.3);
    }
    cfg
}

/// The single-job run the `train` flags describe, on `cluster`.
fn train_cfg(
    args: &Args,
    cluster: ClusterSpec,
    model: ModelProfile,
    engine: EngineKind,
) -> TrainingSimConfig {
    let mut cfg = TrainingSimConfig::new(cluster, model, engine)
        .with_iterations(1, args.iters)
        .with_trace(args.trace.is_some())
        .with_solve_mode(args.solve_mode);
    if let Some(b) = args.batch {
        cfg = cfg.with_batch(b);
    }
    cfg
}

fn cmd_schedule(argv: &[String]) -> Result<(), String> {
    let args = parse_sched_args(argv)?;
    if let Some(n) = args.jobs {
        aiacc::simnet::par::set_jobs(n);
    }
    let recovery = RecoveryPolicy::by_name(&args.recovery).ok_or_else(|| {
        format!("unknown recovery policy {}; use restart|shrink|fail", args.recovery)
    })?;
    let engine = args.engine.as_deref().map(|label| {
        EngineKind::by_label(label).ok_or_else(|| {
            format!("unknown engine {label}; use aiacc|horovod|pytorch-ddp|byteps|mxnet-kvstore")
        })
    });
    let engine = engine.transpose()?;
    let cluster = cluster_spec(args.gpus, args.rdma, args.racks);
    let chaos_plan = args.chaos.then(|| {
        let horizon = SimDuration::from_secs_f64(args.chaos_horizon_secs);
        let plan = FaultPlan::chaos(args.seed, cluster.nodes, horizon, args.chaos_events);
        let (seed, events) = (args.seed, plan.events().len());
        eprintln!(
            "[aiacc-sim] chaos plan (seed {seed}): {events} event(s), recovery `{}`",
            recovery.name()
        );
        plan
    });
    if args.stream {
        return cmd_schedule_stream(&args, recovery, engine, chaos_plan.as_ref());
    }
    let mut workload = match &args.load {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Workload::from_tsv(&text)?
        }
        None => {
            let mix = JobMix::by_name(&args.mix)
                .ok_or_else(|| format!("unknown mix {}; use comm-heavy|mixed|tiny", args.mix))?;
            let mut cfg =
                WorkloadCfg::new(args.njobs, args.seed).with_mix(mix).with_iterations(args.iters);
            if let Some(engine) = engine {
                cfg = cfg.with_engine(engine);
            }
            Workload::generate(&cfg)
        }
    };
    for j in &mut workload.jobs {
        if let EngineKind::Aiacc(c) = &mut j.engine {
            // `--compress` applies to every job that runs the AIACC engine;
            // the baseline engines have no compression knob.
            if args.compress != Scheme::None {
                *c = c.with_compress(args.compress);
            }
            // Crashed collectives can wedge a stream: under chaos, arm
            // AIACC's stall watchdog with a bounded resubmission budget so
            // retries back off instead of thrashing.
            if args.chaos {
                *c =
                    c.with_stall_timeout(SimDuration::from_secs_f64(0.5)).with_max_resubmissions(4);
            }
        }
    }
    if let Some(path) = &args.save {
        std::fs::write(path, workload.to_tsv()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("[aiacc-sim] workload trace saved to {path}");
    }
    let policies: Vec<PlacePolicy> = if args.policy == "all" {
        PlacePolicy::all().to_vec()
    } else {
        vec![PlacePolicy::by_name(&args.policy)
            .ok_or_else(|| format!("unknown policy {}; use packed|spread|topo|all", args.policy))?]
    };
    // One scenario per policy, fanned out over `--jobs` workers; each
    // scenario's event loop stays single-threaded, so output is
    // bit-identical for any worker count.
    let blocks = aiacc::simnet::par::map(&policies, |&policy| {
        let cfg = sched_cfg(&args, policy, workload.clone(), recovery, chaos_plan.as_ref())
            .with_trace(args.trace.is_some());
        let sim = MultiJobSim::try_new(cfg).map_err(|e| e.to_string())?;
        Ok(if args.trace.is_some() {
            let (report, json) = sim.run_with_trace();
            (sched_render(&report), report.solver.to_string(), json)
        } else {
            let report = sim.run();
            (sched_render(&report), report.solver.to_string(), String::new())
        })
    });
    let blocks = blocks.into_iter().collect::<Result<Vec<_>, String>>()?;
    for (policy, (block, solver, json)) in policies.iter().zip(&blocks) {
        println!("# policy {}", policy.name());
        print!("{block}");
        if args.verbose {
            eprintln!("[aiacc-sim] solver ({}): {solver}", policy.name());
        }
        if let Some(path) = &args.trace {
            let out = if policies.len() == 1 {
                path.clone()
            } else {
                format!("{}.{}.json", path.trim_end_matches(".json"), policy.name())
            };
            std::fs::write(&out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!("[aiacc-sim] trace written to {out} (open in https://ui.perfetto.dev)");
        }
    }
    Ok(())
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("schedule") {
        if let Err(msg) = cmd_schedule(&argv[1..]) {
            eprintln!("{msg}");
            std::process::exit(2);
        }
        return;
    }
    // `train` is the implicit default subcommand; accept it spelled out.
    if argv.first().map(String::as_str) == Some("train") {
        argv.remove(0);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if let Some(n) = args.jobs {
        aiacc::simnet::par::set_jobs(n);
    }
    let Some(model) = zoo::by_name(&args.model) else {
        eprintln!(
            "unknown model {}; available: vgg16 resnet50 resnet101 transformer bert_large \
             gpt2_xl insightface_r50 ctr_production tiny_cnn",
            args.model
        );
        std::process::exit(2);
    };
    let cluster = cluster_spec(args.gpus, args.rdma, args.racks);

    let fault_plan = match args.faults.as_deref() {
        Some(name) => match fault_scenario(name, cluster.nodes) {
            Ok(plan) => Some(plan),
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        },
        None => None,
    };

    let mut aiacc_cfg = AiaccConfig::default();
    if fault_plan.is_some() {
        // Under injected faults, arm the stall watchdog so hung streams are
        // resubmitted instead of wedging the iteration.
        aiacc_cfg = aiacc_cfg.with_stall_timeout(SimDuration::from_secs_f64(0.5));
    }
    if let Some(s) = args.streams {
        aiacc_cfg = aiacc_cfg.with_streams(s);
    }
    if let Some(g) = args.granularity_mib {
        aiacc_cfg = aiacc_cfg.with_granularity(g * 1024.0 * 1024.0);
    }
    if args.compress != Scheme::None {
        aiacc_cfg = aiacc_cfg.with_compress(args.compress);
    }
    if args.tree {
        aiacc_cfg = aiacc_cfg.with_algo(Algo::Tree);
    }
    if let Some(budget) = args.tune {
        eprintln!("[aiacc-sim] auto-tuning ({budget} warm-up iterations)...");
        let (tuned, report) = tune_aiacc(&model, &cluster, budget, 7, None);
        eprintln!(
            "[aiacc-sim] tuned: {} streams / {:.0} MiB / {:?} ({:.4}s per iteration)",
            tuned.streams,
            tuned.granularity / (1024.0 * 1024.0),
            tuned.algo,
            report.best_value
        );
        aiacc_cfg = tuned;
        if args.compress != Scheme::None {
            aiacc_cfg = aiacc_cfg.with_compress(args.compress);
        }
    }

    let engine = match EngineKind::by_label(&args.engine) {
        Some(EngineKind::Aiacc(_)) => EngineKind::Aiacc(aiacc_cfg),
        Some(engine) => engine,
        None => {
            eprintln!("unknown engine {}; use aiacc|horovod|ddp|byteps|kvstore", args.engine);
            std::process::exit(2);
        }
    };

    let mut cfg = train_cfg(&args, cluster, model, engine);
    if let Some(plan) = &fault_plan {
        eprintln!(
            "[aiacc-sim] fault scenario `{}`: {} event(s)",
            args.faults.as_deref().unwrap(),
            plan.events().len()
        );
        cfg = cfg.with_faults(plan.clone());
    }
    let mut sim = TrainingSim::new(cfg);
    let _ = sim.run_iteration(); // warm-up
    let detail = sim.run_iteration_detailed();
    let report = sim.run();
    println!("{report}");
    if args.compress.is_lossy() && args.engine == "aiacc" {
        // Measure what the lossy wire actually costs: train a real MLP
        // through the exact data plane twice — uncompressed and compressed
        // (with error feedback) — and report the loss delta alongside the
        // measured per-step wire bytes. Serial and fully seeded, so the
        // lines are byte-identical for any `--jobs` count.
        let make = |scheme: Scheme| {
            let mut c = DataParallelConfig::new(vec![4, 16, 3], 4, 8);
            c.compress = scheme;
            DataParallelTrainer::new(c)
        };
        let (mut exact, mut lossy) = (make(Scheme::None), make(args.compress));
        let loss_exact = exact.train(120).losses.last().copied().unwrap_or(f64::NAN);
        let loss_lossy = lossy.train(120).losses.last().copied().unwrap_or(f64::NAN);
        let test = Dataset::gaussian_blobs(1000, 4, 3, 12345);
        let (wire_exact, wire_lossy) = (exact.last_step_wire_bytes(), lossy.last_step_wire_bytes());
        println!(
            "compressed data plane ({}): wire {} B/step vs {} B/step f32 ({:.1}x smaller) | \
             final loss {:.4} vs {:.4} exact (delta {:+.4}) | accuracy {:.3} vs {:.3} exact",
            args.compress,
            wire_lossy,
            wire_exact,
            wire_exact as f64 / wire_lossy as f64,
            loss_lossy,
            loss_exact,
            loss_lossy - loss_exact,
            lossy.accuracy(&test),
            exact.accuracy(&test),
        );
    }
    if args.verbose {
        let bd = sim.solve_breakdown();
        eprintln!(
            "[aiacc-sim] solver: {} | {:.3}s solve / {:.3}s apply / {:.3}s queue",
            sim.solver_stats(),
            bd.solve_s,
            bd.apply_s,
            bd.queue_s,
        );
    }
    println!(
        "iteration breakdown: backward ends {:.1} ms | comm done {:.1} ms | tail {:.1} ms",
        detail.backward_end_secs * 1e3,
        detail.comm_done_secs * 1e3,
        detail.comm_tail_secs() * 1e3,
    );
    if detail.fault_impacted() {
        println!(
            "fault impact: {} capacity event(s) | {} crash(es) | {:.2} s recovering",
            detail.fault_events, detail.crashes, detail.recovery_secs,
        );
    }
    if let Some(path) = &args.trace {
        let json = sim.trace().to_chrome_json();
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("failed to write trace {path}: {e}");
            std::process::exit(1);
        }
        let s = sim.trace().summary();
        println!(
            "trace: {} events -> {path} (open in chrome://tracing or https://ui.perfetto.dev)",
            sim.trace().events().len()
        );
        println!(
            "trace summary: {} stream lane(s) | overlap {:.0}% | max queue depth {} | \
             {} resubmission(s)",
            s.stream_lanes,
            s.overlap_fraction * 100.0,
            s.max_queue_depth,
            s.resubmissions,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn zero_counts_are_usage_errors() {
        for (args, err) in [
            (&["--gpus", "0"][..], "--gpus needs a positive GPU count"),
            (&["--iters", "0"], "--iters needs a positive iteration count"),
            (&["--streams", "0"], "--streams needs a positive stream count"),
            (&["--batch", "0"], "--batch needs a positive batch size"),
            (&["--racks", "0"], "--racks needs a positive nodes-per-rack count"),
            (&["--tune", "0"], "--tune needs a positive warm-up budget"),
            (&["--granularity", "0"], "--granularity needs a positive size in MiB"),
            (&["--granularity", "NaN"], "--granularity needs a positive size in MiB"),
        ] {
            assert_eq!(parse_args(&strings(args)).err().as_deref(), Some(err), "{args:?}");
        }
        for (args, err) in [
            (&["--gpus", "0"][..], "--gpus needs a positive GPU count"),
            (&["--njobs", "0"], "--njobs needs a positive job count"),
            (&["--iters", "0"], "--iters needs a positive iteration count"),
            (&["--racks", "0"], "--racks needs a positive nodes-per-rack count"),
        ] {
            assert_eq!(parse_sched_args(&strings(args)).err().as_deref(), Some(err), "{args:?}");
        }
        // The streaming replay validates its own arrival count.
        assert!(parse_sched_args(&strings(&["--stream", "--njobs", "0"])).is_ok());
    }

    #[test]
    fn bad_schedule_inputs_are_usage_errors() {
        for horizon in ["NaN", "-5", "0", "inf"] {
            let args = strings(&["--chaos", "--chaos-horizon", horizon]);
            assert_eq!(
                parse_sched_args(&args).err().as_deref(),
                Some("--chaos-horizon needs a positive number of seconds"),
                "--chaos-horizon {horizon}"
            );
        }
        // A generated job larger than the cluster is a typed error, not a panic.
        let args = strings(&["--gpus", "1", "--mix", "tiny", "--njobs", "3"]);
        assert_eq!(cmd_schedule(&args).err().as_deref(), Some("job 0 requests 8 of 1 GPUs"));
    }

    #[test]
    fn flat_solver_flag_reaches_both_configs() {
        for (flags, mode) in
            [(&[][..], SolveMode::Partitioned), (&["--flat-solver"], SolveMode::Full)]
        {
            let args = parse_args(&strings(flags)).unwrap_or_else(|e| panic!("{e}"));
            let cfg = train_cfg(
                &args,
                ClusterSpec::tcp_v100(8),
                zoo::tiny_cnn(),
                EngineKind::aiacc_default(),
            );
            assert_eq!(cfg.solve_mode, mode, "train {flags:?}");
            let args = parse_sched_args(&strings(flags)).unwrap_or_else(|e| panic!("{e}"));
            let wl = Workload::generate(&WorkloadCfg::new(1, 1));
            let recovery = RecoveryPolicy::Restart;
            let cfg = sched_cfg(&args, PlacePolicy::Packed, wl, recovery, None);
            assert_eq!(cfg.solve_mode, mode, "schedule {flags:?}");
        }
    }
}
