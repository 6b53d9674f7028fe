//! # aiacc-sched — multi-job cluster scheduling over a shared fabric
//!
//! The AIACC-Training paper evaluates engines one job at a time, but its
//! motivating deployment is a *shared* GPU cloud: many DDL jobs arriving
//! over time, gang-scheduled onto the same nodes, their gradient flows
//! contending for the same NICs. This crate closes that gap:
//!
//! - [`workload`]: seeded job generation (Poisson-style arrivals over
//!   model-zoo presets) and TSV trace load/save.
//! - [`placement`]: gang placement policies — [`PlacePolicy::Packed`],
//!   [`PlacePolicy::Spread`], [`PlacePolicy::TopologyAware`] — over a
//!   [`aiacc_cluster::GpuFreeList`], always producing *regular* gang shapes
//!   that every collective builder already understands.
//! - [`multijob`]: the [`MultiJobSim`] driver, which multiplexes one
//!   [`aiacc_core::ddl::DdlEngine`] per running job over a single shared
//!   [`aiacc_simnet::Simulator`] event loop, so cross-job fabric contention
//!   emerges from the max-min flow allocation rather than from an analytic
//!   slowdown model.
//! - [`metrics`]: tail-JCT percentiles, queueing delay, makespan, fabric
//!   utilization, and Jain fairness per scenario.
//!
//! Everything is deterministic: a scenario is a pure function of
//! `(cluster, workload, policy)`, a single-job scenario is bit-identical to
//! the single-job [`aiacc_trainer::TrainingSim`], and sweep parallelism
//! (via [`aiacc_simnet::par`]) never touches the event loop.
//!
//! ```
//! use aiacc_cluster::ClusterSpec;
//! use aiacc_sched::{run_multijob, summarize, MultiJobCfg, PlacePolicy, Workload, WorkloadCfg};
//!
//! let wl = Workload::generate(&WorkloadCfg::new(3, 7).with_mix(aiacc_sched::JobMix::Tiny));
//! let cfg = MultiJobCfg::new(ClusterSpec::tcp_v100(16), PlacePolicy::Packed, wl);
//! let report = run_multijob(cfg);
//! let m = summarize(&report);
//! assert_eq!(m.njobs, 3);
//! assert!(m.jct_p99_secs >= m.jct_p50_secs);
//! ```

pub mod error;
pub mod metrics;
pub mod multijob;
pub mod placement;
pub mod stream;
pub mod workload;

pub use error::SchedError;
pub use metrics::{jain_fairness, summarize, ClusterMetrics};
pub use multijob::{
    run_multijob, JobOutcome, MultiJobCfg, MultiJobReport, MultiJobSim, RecoveryPolicy,
};
pub use placement::{try_place, PlacePolicy, Placement};
pub use stream::{
    run_stream, window_tsv_header, ArrivalCfg, ArrivalProcess, StreamCfg, StreamReport, StreamSim,
    StreamStats,
};
pub use workload::{JobMix, JobSpec, Workload, WorkloadCfg};
