//! Trace-driven streaming replay: an open-loop arrival source feeding the
//! multi-job driver through a bounded pool of recycled job slots, so
//! horizons of a million jobs and more run in O(window) memory.
//!
//! # Design
//!
//! Batch mode materializes every [`JobSpec`] and [`crate::JobOutcome`] up
//! front; memory grows with the horizon. Streaming mode replaces both ends:
//!
//! - **Arrivals** come from an `ArrivalSource` — a seeded open-loop
//!   generator ([`ArrivalProcess::Poisson`], [`ArrivalProcess::Diurnal`],
//!   [`ArrivalProcess::Bursty`]) or a saved workload TSV replayed line by
//!   line ([`ArrivalProcess::Trace`]). Exactly one future arrival is staged
//!   at a time; the source never materializes the horizon.
//! - **Outcomes** fold into an `Acc`: cumulative counters, running
//!   `Σjct`/`Σjct²` (mean and Jain fairness in O(1) memory), and a mergeable
//!   [`QuantileSketch`] for tail percentiles, plus a per-window copy that is
//!   flushed as one TSV row every `window` completions.
//! - **Slots**: `jobs[i]` becomes a recycled slot. A finishing tenant bumps
//!   the slot's generation (`epoch`), so token scopes — folded modulo
//!   `StreamState::gen_mod` into the 16-bit scope space — from a previous
//!   tenant are dropped on delivery, exactly like pre-crash events in batch
//!   mode. Per-tag fabric byte accumulators are re-zeroed on slot reuse.
//!
//! # Snapshots
//!
//! Long horizons are resumable through *regeneration-point* snapshots: once
//! at least `snapshot_every` jobs have completed **and** the system is
//! quiescent (every slot vacant, queue empty, no flows in flight, no fault
//! or crash/repair events pending, next arrival staged), the entire sim
//! state is O(1): the accumulator, the arrival source cursor, slot
//! generations, down nodes and per-node carried-byte counters. The snapshot
//! stores exactly that, as text with shortest-round-trip float formatting,
//! so a resumed run re-schedules the staged arrival into a fresh simulator
//! and continues **byte-identically**: concatenating the output of a run
//! stopped at a snapshot with the output of its resumption reproduces the
//! uninterrupted run's output exactly. (Stale timers from evicted epochs
//! that the uninterrupted run still delivers are no-ops and only shift
//! absolute event sequence numbers, never the relative order of live
//! events; carried-byte accumulators are *seeded* with the saved values
//! rather than re-added, so float non-associativity cannot split the runs.)

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fs::File;
use std::io::{BufRead, BufReader, Seek, SeekFrom};

use aiacc_cluster::{ClusterNet, GpuFreeList};
use aiacc_dnn::zoo;
use aiacc_simnet::{FaultTarget, SimTime, Simulator, Token};
use aiacc_trainer::{EngineKind, QuantileSketch};

use crate::error::SchedError;
use crate::metrics::ClusterMetrics;
use crate::multijob::{
    JobOutcome, JobRun, JobState, MultiJobCfg, MultiJobSim, ARRIVAL_KIND, CRASH_KIND, REPAIR_KIND,
};
use crate::workload::{JobMix, JobSpec, SplitMix64};

/// First line of every snapshot file; bumped on incompatible format changes.
const SNAPSHOT_MAGIC: &str = "aiacc-stream-snapshot v1";

fn serr(msg: impl Into<String>) -> SchedError {
    SchedError::Stream { msg: msg.into() }
}

/// How the open-loop source spaces and shapes arrivals.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals (exponential inter-arrival gaps).
    Poisson,
    /// Poisson arrivals whose instantaneous rate swings sinusoidally over
    /// `period_secs` between 0.25× and 1.75× the base rate — a day/night
    /// load curve.
    Diurnal {
        /// Length of one full rate oscillation, seconds.
        period_secs: f64,
    },
    /// Two-phase burst/calm modulation (MMPP-style): bursts arrive 6× as
    /// fast, calm phases 1.5× as slow, with geometric phase dwells.
    Bursty,
    /// Replay a saved [`crate::Workload::to_tsv`] trace file, streamed line
    /// by line (arbitrary length, never fully loaded).
    Trace {
        /// Path to the TSV trace.
        path: String,
    },
}

impl ArrivalProcess {
    /// Parses a CLI spelling: `poisson`, `diurnal`, `bursty`, or a path
    /// (anything containing `/` or `.`) which selects trace replay.
    pub fn by_name(s: &str) -> Option<ArrivalProcess> {
        match s {
            "poisson" => Some(ArrivalProcess::Poisson),
            "diurnal" => Some(ArrivalProcess::Diurnal { period_secs: 600.0 }),
            "bursty" => Some(ArrivalProcess::Bursty),
            _ if s.contains('/') || s.contains('.') => {
                Some(ArrivalProcess::Trace { path: s.to_string() })
            }
            _ => None,
        }
    }
}

/// Configuration of the open-loop arrival source.
#[derive(Debug, Clone)]
pub struct ArrivalCfg {
    /// Arrival process preset or trace replay.
    pub process: ArrivalProcess,
    /// Jobs to emit before the source runs dry. `0` means unlimited, which
    /// is only legal for traces (they end at EOF).
    pub total_jobs: u64,
    /// Seed for inter-arrival gaps and job sampling (generated processes).
    pub seed: u64,
    /// Mean inter-arrival gap at the base rate, seconds.
    pub mean_interarrival_secs: f64,
    /// Model/gang-size mix sampled per job (generated processes).
    pub mix: JobMix,
    /// Engine for every job; `None` alternates AIACC/Horovod by job parity.
    pub engine: Option<EngineKind>,
    /// Iterations per generated job.
    pub iterations: usize,
}

impl ArrivalCfg {
    /// A source with generator defaults matching [`crate::WorkloadCfg`]:
    /// tiny mix, 6 iterations, 5 s mean gap, alternating engines.
    pub fn new(process: ArrivalProcess, total_jobs: u64, seed: u64) -> ArrivalCfg {
        ArrivalCfg {
            process,
            total_jobs,
            seed,
            mean_interarrival_secs: 5.0,
            mix: JobMix::Tiny,
            engine: None,
            iterations: 6,
        }
    }
}

/// Streaming cursor over a saved workload TSV.
struct TraceReader {
    path: String,
    reader: BufReader<File>,
    /// Byte offset of the next unread line — the snapshot cursor.
    offset: u64,
}

impl TraceReader {
    fn open(path: &str, offset: u64) -> Result<TraceReader, SchedError> {
        let mut f = File::open(path).map_err(|e| serr(format!("cannot open trace {path}: {e}")))?;
        if offset > 0 {
            f.seek(SeekFrom::Start(offset))
                .map_err(|e| serr(format!("cannot seek trace {path} to {offset}: {e}")))?;
        }
        Ok(TraceReader { path: path.to_string(), reader: BufReader::new(f), offset })
    }

    fn next_line(&mut self) -> Result<Option<String>, SchedError> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| serr(format!("cannot read trace {}: {e}", self.path)))?;
        if n == 0 {
            return Ok(None);
        }
        self.offset += n as u64;
        Ok(Some(line))
    }
}

/// The saved numeric state of an [`ArrivalSource`] (one snapshot line).
struct SourceSave {
    emitted: u64,
    rng: u64,
    clock: f64,
    burst: bool,
    burst_left: u32,
    trace_offset: u64,
}

/// Open-loop arrival generator/replayer. Emits one [`JobSpec`] per call and
/// carries O(1) state, so its cursor fits in a snapshot line.
pub(crate) struct ArrivalSource {
    cfg: ArrivalCfg,
    rng: SplitMix64,
    /// Arrival clock, seconds: the last emitted job's arrival time.
    clock: f64,
    /// Jobs emitted so far; doubles as the next generated job id.
    emitted: u64,
    /// Bursty-process phase (true while inside a burst).
    burst: bool,
    /// Arrivals left before the bursty process flips phase.
    burst_left: u32,
    trace: Option<TraceReader>,
}

impl ArrivalSource {
    fn new(cfg: ArrivalCfg) -> Result<ArrivalSource, SchedError> {
        let trace = match &cfg.process {
            ArrivalProcess::Trace { path } => Some(TraceReader::open(path, 0)?),
            _ => {
                if cfg.total_jobs == 0 {
                    return Err(serr("generated arrivals need total_jobs > 0"));
                }
                if !(cfg.mean_interarrival_secs.is_finite() && cfg.mean_interarrival_secs > 0.0) {
                    return Err(serr(format!(
                        "mean inter-arrival must be positive and finite, got {}",
                        cfg.mean_interarrival_secs
                    )));
                }
                if cfg.iterations == 0 {
                    return Err(serr("generated jobs need iterations > 0"));
                }
                if let ArrivalProcess::Diurnal { period_secs } = cfg.process {
                    if !(period_secs.is_finite() && period_secs > 0.0) {
                        return Err(serr(format!(
                            "diurnal period must be positive and finite, got {period_secs}"
                        )));
                    }
                }
                None
            }
        };
        // Distinct from the batch generator's constant so the same seed
        // produces an independent stream.
        let rng = SplitMix64(cfg.seed ^ 0xA1AC_C5C4_ED00_0002);
        Ok(ArrivalSource { cfg, rng, clock: 0.0, emitted: 0, burst: false, burst_left: 0, trace })
    }

    /// Inverse rate multiplier applied to the mean gap for the next draw.
    fn gap_multiplier(&mut self) -> f64 {
        match &self.cfg.process {
            ArrivalProcess::Poisson | ArrivalProcess::Trace { .. } => 1.0,
            ArrivalProcess::Diurnal { period_secs } => {
                1.0 / (1.0 + 0.75 * (std::f64::consts::TAU * self.clock / period_secs).sin())
            }
            ArrivalProcess::Bursty => {
                if self.burst_left == 0 {
                    self.burst = !self.burst;
                    self.burst_left = 1 + (self.rng.next_u64() % 32) as u32;
                }
                self.burst_left -= 1;
                if self.burst {
                    1.0 / 6.0
                } else {
                    1.5
                }
            }
        }
    }

    /// Emits the next job, or `None` when the source is exhausted.
    fn next(&mut self) -> Result<Option<JobSpec>, SchedError> {
        if self.cfg.total_jobs > 0 && self.emitted >= self.cfg.total_jobs {
            return Ok(None);
        }
        if let Some(tr) = &mut self.trace {
            loop {
                let Some(line) = tr.next_line()? else { return Ok(None) };
                let t = line.trim();
                if t.is_empty() || t.starts_with('#') || t.starts_with("id\t") {
                    continue;
                }
                let spec = JobSpec::parse_tsv_row(t)
                    .map_err(|e| serr(format!("trace {}: {e}", tr.path)))?;
                self.emitted += 1;
                return Ok(Some(spec));
            }
        }
        let id = self.emitted;
        if id > 0 {
            let mult = self.gap_multiplier();
            self.clock += self.rng.next_exp(self.cfg.mean_interarrival_secs * mult);
        }
        self.emitted += 1;
        let choices = self.cfg.mix.choices();
        let (model, gpus) = choices[(self.rng.next_u64() % choices.len() as u64) as usize];
        let engine = match &self.cfg.engine {
            Some(e) => *e,
            None if id.is_multiple_of(2) => EngineKind::aiacc_default(),
            None => EngineKind::by_label("horovod").expect("horovod engine registered"),
        };
        Ok(Some(JobSpec {
            id: id as usize,
            arrival_secs: self.clock,
            model: model.to_string(),
            gpus,
            engine,
            iterations: self.cfg.iterations,
            seed: self.cfg.seed.wrapping_add(1 + id),
        }))
    }

    /// One snapshot line capturing the full cursor (floats print with
    /// shortest-round-trip formatting, so restore is exact).
    fn save_line(&self) -> String {
        format!(
            "source\t{} {} {} {} {} {}",
            self.emitted,
            self.rng.0,
            self.clock,
            self.burst as u8,
            self.burst_left,
            self.trace.as_ref().map_or(0, |t| t.offset),
        )
    }

    fn restore(&mut self, s: &SourceSave) -> Result<(), SchedError> {
        self.emitted = s.emitted;
        self.rng = SplitMix64(s.rng);
        self.clock = s.clock;
        self.burst = s.burst;
        self.burst_left = s.burst_left;
        match &self.trace {
            Some(tr) => {
                let path = tr.path.clone();
                self.trace = Some(TraceReader::open(&path, s.trace_offset)?);
            }
            None if s.trace_offset != 0 => {
                return Err(serr("snapshot has a trace cursor but the run has no trace source"));
            }
            None => {}
        }
        Ok(())
    }
}

/// Configuration of a streaming replay run.
#[derive(Debug, Clone)]
pub struct StreamCfg {
    /// Cluster/policy/fault/recovery config. `base.workload` and
    /// `base.trace` are ignored — arrivals come from [`StreamCfg::arrivals`]
    /// and structured tracing is unbounded-memory by construction.
    pub base: MultiJobCfg,
    /// The open-loop arrival source.
    pub arrivals: ArrivalCfg,
    /// Concurrent job slots; `None` defaults to `2 × world_size`, clamped to
    /// `[16, 1024]` (suspended tenants hold a slot without holding GPUs, so
    /// the pool is sized above the GPU-limited concurrency).
    pub nslots: Option<usize>,
    /// Completions per windowed-metrics row.
    pub window: u64,
    /// Write a resumable snapshot after every this many completions (at the
    /// next quiescent point).
    pub snapshot_every: Option<u64>,
    /// Snapshot file path (default `stream.snap`).
    pub snapshot_path: Option<String>,
    /// Stop the run right after the first snapshot is written (for testing
    /// resume bit-identity and for chunked long runs).
    pub stop_after_snapshot: bool,
    /// Emit one TSV row per finished job (diffable against batch mode).
    pub per_job_rows: bool,
}

impl StreamCfg {
    /// Streaming defaults: 1000-completion windows, no snapshots, no
    /// per-job rows, auto-sized slot pool.
    pub fn new(base: MultiJobCfg, arrivals: ArrivalCfg) -> StreamCfg {
        StreamCfg {
            base,
            arrivals,
            nslots: None,
            window: 1000,
            snapshot_every: None,
            snapshot_path: None,
            stop_after_snapshot: false,
            per_job_rows: false,
        }
    }

    /// Sets the windowed-metrics flush interval (completions).
    pub fn with_window(mut self, window: u64) -> StreamCfg {
        self.window = window;
        self
    }

    /// Overrides the slot-pool size.
    pub fn with_nslots(mut self, nslots: usize) -> StreamCfg {
        self.nslots = Some(nslots);
        self
    }

    /// Enables periodic snapshots.
    pub fn with_snapshots(mut self, every: u64, path: impl Into<String>) -> StreamCfg {
        self.snapshot_every = Some(every);
        self.snapshot_path = Some(path.into());
        self
    }

    /// Stops right after the first snapshot (chunked runs, resume tests).
    pub fn with_stop_after_snapshot(mut self, stop: bool) -> StreamCfg {
        self.stop_after_snapshot = stop;
        self
    }

    /// Emits one TSV row per finished job.
    pub fn with_per_job_rows(mut self, on: bool) -> StreamCfg {
        self.per_job_rows = on;
        self
    }
}

/// FIFO backlog entry: a suspended slot awaiting re-placement, or an arrived
/// job not yet admitted to a slot.
enum QueueEntry {
    Slot(usize),
    Spec(JobSpec),
}

/// O(1)-memory accumulator over finished jobs: cumulative totals plus the
/// currently-filling window.
struct Acc {
    emitted: u64,
    completed: u64,
    failed: u64,
    jct_sketch: QuantileSketch,
    jct_sum: f64,
    jct_sumsq: f64,
    delay_sum: f64,
    first_arrival_secs: f64,
    last_finish_secs: f64,
    crashes: u64,
    restarts: u64,
    shrinks: u64,
    mitigations: u64,
    recovery_secs: f64,
    windows_emitted: u64,
    win_sketch: QuantileSketch,
    win_count: u64,
    win_failed: u64,
    win_jct_sum: f64,
    win_delay_sum: f64,
    win_start_secs: f64,
    peak_backlog: usize,
    peak_active: usize,
}

impl Acc {
    fn new() -> Acc {
        Acc {
            emitted: 0,
            completed: 0,
            failed: 0,
            jct_sketch: QuantileSketch::new_default(),
            jct_sum: 0.0,
            jct_sumsq: 0.0,
            delay_sum: 0.0,
            first_arrival_secs: f64::INFINITY,
            last_finish_secs: 0.0,
            crashes: 0,
            restarts: 0,
            shrinks: 0,
            mitigations: 0,
            recovery_secs: 0.0,
            windows_emitted: 0,
            win_sketch: QuantileSketch::new_default(),
            win_count: 0,
            win_failed: 0,
            win_jct_sum: 0.0,
            win_delay_sum: 0.0,
            win_start_secs: 0.0,
            peak_backlog: 0,
            peak_active: 0,
        }
    }

    fn save_line(&self) -> String {
        format!(
            "acc\t{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            self.emitted,
            self.completed,
            self.failed,
            self.jct_sum,
            self.jct_sumsq,
            self.delay_sum,
            self.first_arrival_secs,
            self.last_finish_secs,
            self.crashes,
            self.restarts,
            self.shrinks,
            self.mitigations,
            self.recovery_secs,
            self.windows_emitted,
            self.win_count,
            self.win_failed,
            self.win_jct_sum,
            self.win_delay_sum,
            self.win_start_secs,
            self.peak_backlog,
            self.peak_active,
        )
    }

    /// Inverse of [`Acc::save_line`]; sketches are restored separately.
    fn restore(fields: &[&str]) -> Result<Acc, SchedError> {
        if fields.len() != 21 {
            return Err(serr(format!("snapshot acc line has {} fields, want 21", fields.len())));
        }
        let mut a = Acc::new();
        a.emitted = pf(fields[0], "acc emitted")?;
        a.completed = pf(fields[1], "acc completed")?;
        a.failed = pf(fields[2], "acc failed")?;
        a.jct_sum = pf(fields[3], "acc jct_sum")?;
        a.jct_sumsq = pf(fields[4], "acc jct_sumsq")?;
        a.delay_sum = pf(fields[5], "acc delay_sum")?;
        a.first_arrival_secs = pf(fields[6], "acc first_arrival")?;
        a.last_finish_secs = pf(fields[7], "acc last_finish")?;
        a.crashes = pf(fields[8], "acc crashes")?;
        a.restarts = pf(fields[9], "acc restarts")?;
        a.shrinks = pf(fields[10], "acc shrinks")?;
        a.mitigations = pf(fields[11], "acc mitigations")?;
        a.recovery_secs = pf(fields[12], "acc recovery_secs")?;
        a.windows_emitted = pf(fields[13], "acc windows_emitted")?;
        a.win_count = pf(fields[14], "acc win_count")?;
        a.win_failed = pf(fields[15], "acc win_failed")?;
        a.win_jct_sum = pf(fields[16], "acc win_jct_sum")?;
        a.win_delay_sum = pf(fields[17], "acc win_delay_sum")?;
        a.win_start_secs = pf(fields[18], "acc win_start_secs")?;
        a.peak_backlog = pf(fields[19], "acc peak_backlog")?;
        a.peak_active = pf(fields[20], "acc peak_active")?;
        Ok(a)
    }
}

fn pf<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, SchedError>
where
    T::Err: std::fmt::Display,
{
    s.parse::<T>().map_err(|e| serr(format!("snapshot: bad {what} {s:?}: {e}")))
}

/// Everything the streaming driver adds to [`MultiJobSim`].
pub(crate) struct StreamState {
    /// Modulus folding slot generations into the 16-bit scope space:
    /// `0xFFFF / nslots`. Read by [`MultiJobSim`]'s scope/epoch routing.
    pub(crate) gen_mod: u32,
    source: ArrivalSource,
    /// The one future arrival whose timer is in the event queue.
    staged: Option<JobSpec>,
    source_done: bool,
    /// FIFO backlog in arrival order (mirrors the batch queue semantics).
    queue: VecDeque<QueueEntry>,
    /// Vacant slot indices; min-heap so admission fills the lowest slot.
    free_slots: BinaryHeap<Reverse<usize>>,
    acc: Acc,
    /// Chronological output rows (window rows, optionally per-job rows).
    lines: Vec<String>,
    per_job_rows: bool,
    window: u64,
    snapshot_every: Option<u64>,
    snapshot_path: Option<String>,
    stop_after_snapshot: bool,
    /// Completion count that arms the next snapshot.
    next_snapshot_at: u64,
    /// Armed: write at the next quiescent point.
    snapshot_due: bool,
    stop_requested: bool,
    snapshots_written: u32,
    /// Crash timers still in the event queue (quiescence gate).
    pub(crate) pending_crashes: usize,
    /// Conservative lower bound on the smallest gang size in `queue`
    /// (only lowered on push, reset when the queue empties): the backfill
    /// walk is skipped whenever fewer GPUs than this are free.
    min_queued_gpus: usize,
    /// Conservative upper bound on the largest gang size in `queue` (only
    /// raised on push, reset when the queue empties): rules out hopeless
    /// entries without a walk.
    max_queued_gpus: usize,
    /// FNV-1a digest of the canonical run configuration; a snapshot resumes
    /// only into the exact configuration that wrote it.
    digest: u64,
}

/// Flush the (finished or partial) window as one `window\t…` TSV row and
/// reset the per-window accumulators.
fn emit_window_row(st: &mut StreamState, backlog: usize, active: usize, end_secs: f64) {
    let a = &mut st.acc;
    let ok = a.win_count - a.win_failed;
    let span = end_secs - a.win_start_secs;
    let throughput = if span > 0.0 { a.win_count as f64 / span } else { 0.0 };
    let q = |s: &QuantileSketch, p: f64| s.quantile(p).unwrap_or(0.0);
    let jct_mean = if ok > 0 { a.win_jct_sum / ok as f64 } else { 0.0 };
    let delay_mean = if ok > 0 { a.win_delay_sum / ok as f64 } else { 0.0 };
    let line = format!(
        "window\t{}\t{}\t{:.9}\t{:.9}\t{:.9}\t{:.9}\t{:.9}\t{:.9}\t{:.9}\t{}\t{}\t{}",
        a.windows_emitted,
        a.win_count,
        end_secs,
        throughput,
        q(&a.win_sketch, 50.0),
        q(&a.win_sketch, 95.0),
        q(&a.win_sketch, 99.0),
        jct_mean,
        delay_mean,
        backlog,
        active,
        a.win_failed,
    );
    a.windows_emitted += 1;
    a.win_sketch = QuantileSketch::new_default();
    a.win_count = 0;
    a.win_failed = 0;
    a.win_jct_sum = 0.0;
    a.win_delay_sum = 0.0;
    a.win_start_secs = end_secs;
    st.lines.push(line);
}

/// Header matching the `window\t…` rows (tab-separated, 13 columns).
pub fn window_tsv_header() -> &'static str {
    "window\tidx\tjobs\tend_s\tthroughput_jobs_per_s\tjct_p50_s\tjct_p95_s\tjct_p99_s\
     \tjct_mean_s\tqueue_mean_s\tbacklog\tactive\tfailed"
}

/// Folds one outcome into the accumulator (failed jobs are excluded from
/// JCT/delay statistics but counted everywhere else, mirroring
/// [`crate::metrics::summarize`]).
fn fold_outcome(st: &mut StreamState, nslots: usize, out: &JobOutcome) {
    let backlog = st.queue.len();
    let active = nslots - st.free_slots.len();
    let a = &mut st.acc;
    a.completed += 1;
    a.first_arrival_secs = a.first_arrival_secs.min(out.arrival_secs);
    a.last_finish_secs = a.last_finish_secs.max(out.finish_secs);
    a.crashes += out.crashes as u64;
    a.restarts += out.restarts as u64;
    a.shrinks += out.shrinks as u64;
    a.mitigations += out.mitigations as u64;
    a.recovery_secs += out.recovery_secs;
    if out.failed {
        a.failed += 1;
        a.win_failed += 1;
    } else {
        let jct = out.jct_secs();
        let delay = out.queue_delay_secs();
        a.jct_sketch.insert(jct);
        a.win_sketch.insert(jct);
        a.jct_sum += jct;
        a.jct_sumsq += jct * jct;
        a.delay_sum += delay;
        a.win_jct_sum += jct;
        a.win_delay_sum += delay;
    }
    a.win_count += 1;
    if st.per_job_rows {
        st.lines.push(out.tsv_row());
    }
    if st.acc.win_count == st.window {
        emit_window_row(st, backlog, active, out.finish_secs);
    }
    if st.snapshot_every.is_some() && st.acc.completed >= st.next_snapshot_at {
        st.snapshot_due = true;
    }
}

/// Terminal accounting for a streamed job: recycle the slot (bump its
/// generation so lingering events die) and fold the outcome. Called from
/// [`MultiJobSim`]'s `finish_job`.
pub(crate) fn fold_finished(sim: &mut MultiJobSim, id: usize, out: JobOutcome) {
    {
        let job = &mut sim.jobs[id];
        job.epoch = job.epoch.wrapping_add(1);
        job.state = JobState::Vacant;
        job.outcome = None;
        job.scopes.clear();
    }
    let nslots = sim.jobs.len();
    let st = sim.stream.as_mut().expect("fold_finished outside streaming mode");
    st.free_slots.push(Reverse(id));
    fold_outcome(st, nslots, &out);
}

/// Pops the lowest vacant slot, installs the spec and tries to place it.
/// Restores the slot on placement failure.
fn try_admit(sim: &mut MultiJobSim, spec: &JobSpec) -> bool {
    let slot = {
        let st = sim.stream.as_mut().expect("stream mode");
        match st.free_slots.pop() {
            Some(Reverse(s)) => s,
            None => return false,
        }
    };
    let model = zoo::by_name(&spec.model).expect("spec validated at emission");
    sim.jobs[slot].install(model, spec.clone());
    if sim.try_start(slot) {
        let active = sim.jobs.len() - sim.stream.as_ref().expect("stream mode").free_slots.len();
        let st = sim.stream.as_mut().expect("stream mode");
        st.acc.peak_active = st.acc.peak_active.max(active);
        true
    } else {
        sim.jobs[slot].state = JobState::Vacant;
        sim.stream.as_mut().expect("stream mode").free_slots.push(Reverse(slot));
        false
    }
}

/// Fails an arrived-but-never-admitted spec (permanent capacity loss), the
/// slotless analogue of `fail_unplaced` on a `Pending` job.
fn fail_spec(sim: &mut MultiJobSim, spec: &JobSpec) {
    let t = sim.sim.now().as_secs_f64();
    let out = JobOutcome {
        id: spec.id,
        model: spec.model.clone(),
        gpus: spec.gpus,
        engine: spec.engine.label().to_string(),
        arrival_secs: spec.arrival_secs,
        start_secs: t,
        finish_secs: t,
        nodes_used: 0,
        iter_secs: Vec::new(),
        comm_bytes_delivered: 0.0,
        comm_bytes_launched: 0.0,
        crashes: 0,
        restarts: 0,
        shrinks: 0,
        recovery_secs: 0.0,
        mitigations: 0,
        failed: true,
    };
    let nslots = sim.jobs.len();
    let st = sim.stream.as_mut().expect("stream mode");
    fold_outcome(st, nslots, &out);
}

/// Streaming FIFO dispatch with backfill, mirroring the batch
/// `dispatch_queue`: suspended slots are re-placed, waiting specs are
/// admitted, and entries that can never fit again fail deterministically.
pub(crate) fn dispatch(sim: &mut MultiJobSim) {
    let mut i = 0;
    // Refreshed after every successful start; placement cannot succeed for a
    // gang larger than the free-GPU total, and a spec cannot be admitted
    // with no vacant slot, so such entries are skipped with an integer
    // compare instead of a placement attempt — this keeps the backfill walk
    // cheap when a deep backlog queues behind a saturated cluster.
    let mut free_gpus = sim.free.total_free();
    // Nothing can be hopeless when every queued gang fits the up capacity
    // (or repairs are pending), and nothing can start once fewer GPUs than
    // the smallest queued gang are free — together these end the walk early
    // instead of touching every backlogged entry. The bounds are
    // conservative, so cutting the walk short is always sound.
    let no_hopeless = {
        let st = sim.stream.as_ref().expect("stream mode");
        sim.pending_repairs > 0 || st.max_queued_gpus <= sim.up_capacity()
    };
    // Placement is a pure function of (policy, gang size, free list), and the
    // free list only changes on a successful start — so once a gang size has
    // failed to place, every later entry of the same size must fail too until
    // something starts. Caching those sizes turns the pathological fragmented
    // regime (a few GPUs free that no queued shape fits) from one placement
    // attempt per backlogged entry into one per distinct gang size.
    let mut failed_sizes: Vec<usize> = Vec::new();
    loop {
        {
            let st = sim.stream.as_ref().expect("stream mode");
            if no_hopeless && st.min_queued_gpus > free_gpus {
                break;
            }
        }
        let (slot, gpus) = {
            let st = sim.stream.as_mut().expect("stream mode");
            if i >= st.queue.len() {
                if st.queue.is_empty() {
                    st.min_queued_gpus = usize::MAX;
                    st.max_queued_gpus = 0;
                }
                break;
            }
            match &st.queue[i] {
                QueueEntry::Slot(s) => (Some(*s), sim.jobs[*s].spec.gpus),
                QueueEntry::Spec(spec) => (None, spec.gpus),
            }
        };
        let slots_free =
            slot.is_some() || !sim.stream.as_ref().expect("stream mode").free_slots.is_empty();
        if gpus > free_gpus || !slots_free {
            // Cannot start right now; still fail deterministically the
            // entries that can never fit again (as the batch walk does).
            if sim.pending_repairs == 0 && gpus > sim.up_capacity() {
                let entry = sim
                    .stream
                    .as_mut()
                    .expect("stream mode")
                    .queue
                    .remove(i)
                    .expect("index checked");
                match entry {
                    QueueEntry::Slot(s) => sim.fail_unplaced(s),
                    QueueEntry::Spec(spec) => fail_spec(sim, &spec),
                }
            } else {
                i += 1;
            }
            continue;
        }
        // A cached size cannot be hopeless (its gpus fit the free total,
        // which never exceeds the up capacity), so skipping is exactly the
        // attempt-and-requeue path minus the provably-futile attempt.
        if failed_sizes.contains(&gpus) {
            i += 1;
            continue;
        }
        match slot {
            Some(slot) => {
                if sim.try_start(slot) {
                    sim.stream.as_mut().expect("stream mode").queue.remove(i);
                    free_gpus = sim.free.total_free();
                    failed_sizes.clear();
                } else if sim.pending_repairs == 0 && sim.jobs[slot].spec.gpus > sim.up_capacity() {
                    sim.stream.as_mut().expect("stream mode").queue.remove(i);
                    sim.fail_unplaced(slot);
                } else {
                    failed_sizes.push(gpus);
                    i += 1;
                }
            }
            None => {
                let entry = sim
                    .stream
                    .as_mut()
                    .expect("stream mode")
                    .queue
                    .remove(i)
                    .expect("index checked");
                let QueueEntry::Spec(spec) = entry else { unreachable!("kind checked") };
                if try_admit(sim, &spec) {
                    free_gpus = sim.free.total_free();
                    failed_sizes.clear();
                } else if sim.pending_repairs == 0 && spec.gpus > sim.up_capacity() {
                    fail_spec(sim, &spec);
                } else {
                    failed_sizes.push(gpus);
                    let st = sim.stream.as_mut().expect("stream mode");
                    st.queue.insert(i, QueueEntry::Spec(spec));
                    i += 1;
                }
            }
        }
    }
}

/// Checks a spec against the cluster the way batch `try_new` validates a
/// workload.
fn validate_spec(spec: &JobSpec, capacity: usize) -> Result<(), SchedError> {
    if spec.gpus == 0 || spec.gpus > capacity {
        return Err(SchedError::BadGangSize { job: spec.id, gpus: spec.gpus, capacity });
    }
    if spec.iterations == 0 {
        return Err(SchedError::ZeroIterations { job: spec.id });
    }
    if zoo::by_name(&spec.model).is_none() {
        return Err(SchedError::UnknownModel { job: spec.id, model: spec.model.clone() });
    }
    Ok(())
}

/// Handles a streamed ARRIVAL event: stage and schedule the *successor*
/// first (so its timer's sequence number precedes everything the current
/// admission schedules, matching the batch driver which schedules every
/// arrival up front), then admit or enqueue the current spec.
pub(crate) fn on_arrival(sim: &mut MultiJobSim) -> Result<(), SchedError> {
    let spec = sim
        .stream
        .as_mut()
        .expect("stream mode")
        .staged
        .take()
        .expect("ARRIVAL event with no staged spec");
    let next = {
        let st = sim.stream.as_mut().expect("stream mode");
        if st.source_done {
            None
        } else {
            st.source.next()?
        }
    };
    match next {
        Some(n) => {
            validate_spec(&n, sim.cfg.cluster.world_size())?;
            if n.arrival_secs < spec.arrival_secs {
                return Err(serr(format!(
                    "arrivals must be non-decreasing: job {} at {} after {}",
                    n.id, n.arrival_secs, spec.arrival_secs
                )));
            }
            sim.sim.schedule_at(
                SimTime::from_secs_f64(n.arrival_secs),
                Token::new(ARRIVAL_KIND, n.id as u32, 0),
            );
            sim.stream.as_mut().expect("stream mode").staged = Some(n);
        }
        None => sim.stream.as_mut().expect("stream mode").source_done = true,
    }
    sim.stream.as_mut().expect("stream mode").acc.emitted += 1;
    if !try_admit(sim, &spec) {
        let st = sim.stream.as_mut().expect("stream mode");
        st.min_queued_gpus = st.min_queued_gpus.min(spec.gpus);
        st.max_queued_gpus = st.max_queued_gpus.max(spec.gpus);
        st.queue.push_back(QueueEntry::Spec(spec));
        let backlog = st.queue.len();
        st.acc.peak_backlog = st.acc.peak_backlog.max(backlog);
        dispatch(sim);
    }
    Ok(())
}

/// The run is over: stopped at a snapshot, or source dry, nothing staged,
/// backlog empty and every slot vacant.
pub(crate) fn finished(sim: &MultiJobSim) -> bool {
    let st = sim.stream.as_ref().expect("stream mode");
    st.stop_requested
        || st.source_done
            && st.staged.is_none()
            && st.queue.is_empty()
            && st.free_slots.len() == sim.jobs.len()
}

/// A regeneration point: the only live state is the accumulator and the
/// staged arrival, so a snapshot is O(1). All checks are O(1) — this runs
/// after every event while a snapshot is armed.
fn quiescent(sim: &MultiJobSim) -> bool {
    let st = sim.stream.as_ref().expect("stream mode");
    st.staged.is_some()
        && st.queue.is_empty()
        && st.free_slots.len() == sim.jobs.len()
        && st.pending_crashes == 0
        && sim.pending_repairs == 0
        && sim.sim.net().flow_count() == 0
        && !sim.sim.faults_pending()
}

/// Serializes the full resumable state at a quiescent point.
fn serialize_snapshot(sim: &MultiJobSim) -> String {
    let st = sim.stream.as_ref().expect("stream mode");
    let mut out = String::new();
    out.push_str(SNAPSHOT_MAGIC);
    out.push('\n');
    out.push_str(&format!("digest\t{}\n", st.digest));
    out.push_str(&format!("nslots\t{}\n", sim.jobs.len()));
    let gens: Vec<String> = sim.jobs.iter().map(|j| j.epoch.to_string()).collect();
    out.push_str(&format!("gens\t{}\n", gens.join(" ")));
    let down: Vec<String> = (0..sim.cfg.cluster.nodes)
        .filter(|&n| sim.free.node_is_down(n))
        .map(|n| n.to_string())
        .collect();
    out.push_str(&format!("down\t{}\n", down.join(" ")));
    let carried: Vec<String> = (0..sim.cfg.cluster.nodes)
        .map(|n| format!("{}", sim.sim.net().carried_bytes(sim.physical.node_tx_resource(n))))
        .collect();
    out.push_str(&format!("carried\t{}\n", carried.join(" ")));
    out.push_str(&st.source.save_line());
    out.push('\n');
    let staged = st.staged.as_ref().expect("quiescent point has a staged arrival");
    out.push_str(&format!("staged\t{}\n", staged.to_tsv_row()));
    out.push_str(&st.acc.save_line());
    out.push('\n');
    out.push_str(&format!("sched\t{} {}\n", st.next_snapshot_at, st.snapshots_written));
    out.push_str(&format!("sketch\t{}\n", st.acc.jct_sketch.to_text()));
    out.push_str(&format!("winsketch\t{}\n", st.acc.win_sketch.to_text()));
    out.push_str("end\n");
    out
}

/// Parsed form of [`serialize_snapshot`].
struct Snapshot {
    digest: u64,
    nslots: usize,
    gens: Vec<u32>,
    down: Vec<usize>,
    carried: Vec<f64>,
    source: SourceSave,
    staged: JobSpec,
    acc: Acc,
    next_snapshot_at: u64,
    snapshots_written: u32,
}

fn parse_snapshot(text: &str) -> Result<Snapshot, SchedError> {
    let mut lines = text.lines();
    let magic = lines.next().ok_or_else(|| serr("empty snapshot"))?;
    if magic != SNAPSHOT_MAGIC {
        return Err(serr(format!("unsupported snapshot header {magic:?}")));
    }
    let mut field = |tag: &str| -> Result<&str, SchedError> {
        let line =
            lines.next().ok_or_else(|| serr(format!("snapshot truncated before {tag:?}")))?;
        line.strip_prefix(tag)
            .and_then(|r| r.strip_prefix('\t'))
            .ok_or_else(|| serr(format!("snapshot: expected {tag:?} line, got {line:?}")))
    };
    let digest = pf(field("digest")?, "digest")?;
    let nslots = pf(field("nslots")?, "nslots")?;
    let gens = field("gens")?
        .split_whitespace()
        .map(|s| pf::<u32>(s, "slot generation"))
        .collect::<Result<Vec<u32>, SchedError>>()?;
    let down = field("down")?
        .split_whitespace()
        .map(|s| pf::<usize>(s, "down node"))
        .collect::<Result<Vec<usize>, SchedError>>()?;
    let carried = field("carried")?
        .split_whitespace()
        .map(|s| pf::<f64>(s, "carried bytes"))
        .collect::<Result<Vec<f64>, SchedError>>()?;
    let src: Vec<&str> = field("source")?.split_whitespace().collect();
    if src.len() != 6 {
        return Err(serr(format!("snapshot source line has {} fields, want 6", src.len())));
    }
    let source = SourceSave {
        emitted: pf(src[0], "source emitted")?,
        rng: pf(src[1], "source rng")?,
        clock: pf(src[2], "source clock")?,
        burst: pf::<u8>(src[3], "source burst")? != 0,
        burst_left: pf(src[4], "source burst_left")?,
        trace_offset: pf(src[5], "source trace offset")?,
    };
    let staged =
        JobSpec::parse_tsv_row(field("staged")?).map_err(|e| serr(format!("staged spec: {e}")))?;
    let acc_fields: Vec<&str> = field("acc")?.split_whitespace().collect();
    let mut acc = Acc::restore(&acc_fields)?;
    let sched: Vec<&str> = field("sched")?.split_whitespace().collect();
    if sched.len() != 2 {
        return Err(serr(format!("snapshot sched line has {} fields, want 2", sched.len())));
    }
    let next_snapshot_at = pf(sched[0], "next_snapshot_at")?;
    let snapshots_written = pf(sched[1], "snapshots_written")?;
    acc.jct_sketch =
        QuantileSketch::from_text(field("sketch")?).map_err(|e| serr(format!("sketch: {e}")))?;
    acc.win_sketch = QuantileSketch::from_text(field("winsketch")?)
        .map_err(|e| serr(format!("winsketch: {e}")))?;
    // "end" has no payload after the tag; it is a bare line.
    match lines.next() {
        Some("end") => {}
        other => return Err(serr(format!("snapshot truncated before end marker (got {other:?})"))),
    }
    Ok(Snapshot {
        digest,
        nslots,
        gens,
        down,
        carried,
        source,
        staged,
        acc,
        next_snapshot_at,
        snapshots_written,
    })
}

/// Writes the armed snapshot. Schedule state advances *before* serializing,
/// so the file records the post-write values and the resumed run continues
/// with exactly the state the uninterrupted run has after writing.
fn write_snapshot(sim: &mut MultiJobSim) -> Result<(), SchedError> {
    let path = {
        let st = sim.stream.as_mut().expect("stream mode");
        st.snapshot_due = false;
        st.next_snapshot_at =
            st.acc.completed + st.snapshot_every.expect("snapshot armed without interval");
        st.snapshots_written += 1;
        st.snapshot_path.clone().unwrap_or_else(|| "stream.snap".to_string())
    };
    let text = serialize_snapshot(sim);
    std::fs::write(&path, text).map_err(|e| serr(format!("cannot write snapshot {path}: {e}")))?;
    let st = sim.stream.as_mut().expect("stream mode");
    if st.stop_after_snapshot {
        st.stop_requested = true;
    }
    Ok(())
}

pub(crate) fn maybe_snapshot(sim: &mut MultiJobSim) -> Result<(), SchedError> {
    if !sim.stream.as_ref().expect("stream mode").snapshot_due || !quiescent(sim) {
        return Ok(());
    }
    write_snapshot(sim)
}

/// The error for an event queue that drained with streaming work left.
pub(crate) fn drained(sim: &MultiJobSim) -> SchedError {
    let st = sim.stream.as_ref().expect("stream mode");
    serr(format!(
        "event queue drained with work left (staged={}, backlog={}, active={})",
        st.staged.is_some(),
        st.queue.len(),
        sim.jobs.len() - st.free_slots.len(),
    ))
}

/// Queues a suspended slot for re-placement once its checkpoint restore
/// completes.
pub(crate) fn requeue(sim: &mut MultiJobSim, slot: usize) {
    let gpus = sim.jobs[slot].spec.gpus;
    let st = sim.stream.as_mut().expect("stream mode");
    st.min_queued_gpus = st.min_queued_gpus.min(gpus);
    st.max_queued_gpus = st.max_queued_gpus.max(gpus);
    st.queue.push_back(QueueEntry::Slot(slot));
    let backlog = st.queue.len();
    st.acc.peak_backlog = st.acc.peak_backlog.max(backlog);
    dispatch(sim);
}

/// End-of-run cluster summary from the O(1) accumulator (percentiles come
/// from the sketch; mean/fairness from the running sums).
fn make_summary(sim: &MultiJobSim) -> ClusterMetrics {
    let st = sim.stream.as_ref().expect("stream mode");
    let a = &st.acc;
    let ok = a.completed - a.failed;
    let makespan = if a.completed > 0 { a.last_finish_secs - a.first_arrival_secs } else { 0.0 };
    let nodes = sim.cfg.cluster.nodes;
    let nic_rate = sim.cfg.cluster.node.nic.bytes_per_sec();
    let carried: f64 =
        (0..nodes).map(|n| sim.sim.net().carried_bytes(sim.physical.node_tx_resource(n))).sum();
    let fabric_utilization =
        if makespan > 0.0 { carried / (nic_rate * nodes as f64 * makespan) } else { 0.0 };
    let q = |p: f64| a.jct_sketch.quantile(p).unwrap_or(0.0);
    let jain_fairness = if ok == 0 || a.jct_sumsq == 0.0 {
        1.0
    } else {
        (a.jct_sum * a.jct_sum) / (ok as f64 * a.jct_sumsq)
    };
    ClusterMetrics {
        policy: sim.cfg.policy.name().to_string(),
        njobs: a.emitted as usize,
        jct_p50_secs: q(50.0),
        jct_p95_secs: q(95.0),
        jct_p99_secs: q(99.0),
        jct_mean_secs: if ok > 0 { a.jct_sum / ok as f64 } else { 0.0 },
        queue_delay_mean_secs: if ok > 0 { a.delay_sum / ok as f64 } else { 0.0 },
        makespan_secs: makespan,
        fabric_utilization,
        jain_fairness,
        njobs_failed: a.failed as usize,
        crashes_total: a.crashes.min(u32::MAX as u64) as u32,
        restarts_total: a.restarts.min(u32::MAX as u64) as u32,
        shrinks_total: a.shrinks.min(u32::MAX as u64) as u32,
        mitigations_total: a.mitigations.min(u32::MAX as u64) as u32,
        recovery_total_secs: a.recovery_secs,
    }
}

/// FNV-1a over the canonical configuration string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn config_digest(cfg: &StreamCfg, nslots: usize) -> u64 {
    let b = &cfg.base;
    let canon = format!(
        "{:?}|{}|{:?}|{}|{:?}|{:?}|{:?}|{:?}|{}|{}|{:?}|{}",
        b.cluster,
        b.policy.name(),
        b.framework,
        b.jitter_frac,
        b.faults,
        b.recovery,
        b.straggler_threshold,
        cfg.arrivals,
        cfg.window,
        nslots,
        cfg.snapshot_every,
        cfg.per_job_rows,
    );
    fnv1a(canon.as_bytes())
}

/// Aggregate statistics of a streaming run (beyond the cluster summary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamStats {
    /// Jobs emitted by the source.
    pub emitted: u64,
    /// Jobs finished (completed or failed).
    pub completed: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Windowed-metrics rows flushed.
    pub windows_emitted: u64,
    /// Slot-pool size (the concurrency bound).
    pub nslots: usize,
    /// Peak backlog length observed.
    pub peak_backlog: usize,
    /// Peak concurrently-admitted jobs observed.
    pub peak_active: usize,
    /// Snapshots written this run.
    pub snapshots_written: u32,
    /// The run stopped at a snapshot instead of draining the source.
    pub stopped_at_snapshot: bool,
    /// The cumulative JCT sketch's worst-case rank error.
    pub sketch_max_rank_error: u64,
    /// Items the cumulative JCT sketch holds (memory bound witness).
    pub sketch_stored_items: usize,
}

/// Result of a streaming run.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Chronological output rows: `window\t…` rows and (when enabled)
    /// per-job rows in completion order.
    pub lines: Vec<String>,
    /// Cluster summary — `None` when the run stopped at a snapshot (the
    /// resumed run owns the horizon's summary).
    pub summary: Option<ClusterMetrics>,
    /// Run statistics.
    pub stats: StreamStats,
}

/// A streaming replay run: [`MultiJobSim`] in slot mode plus the arrival
/// source, windowed accumulator and snapshot machinery.
pub struct StreamSim {
    sim: MultiJobSim,
}

impl StreamSim {
    /// Builds a fresh streaming run.
    pub fn try_new(cfg: StreamCfg) -> Result<StreamSim, SchedError> {
        StreamSim::build(cfg, None)
    }

    /// Resumes from snapshot text written by a run with the *same*
    /// configuration (digest-checked).
    pub fn try_resume(cfg: StreamCfg, snapshot_text: &str) -> Result<StreamSim, SchedError> {
        StreamSim::build(cfg, Some(snapshot_text))
    }

    /// Resumes from a snapshot file.
    pub fn resume_from_file(cfg: StreamCfg, path: &str) -> Result<StreamSim, SchedError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| serr(format!("cannot read snapshot {path}: {e}")))?;
        StreamSim::build(cfg, Some(&text))
    }

    fn build(cfg: StreamCfg, snap: Option<&str>) -> Result<StreamSim, SchedError> {
        let base = cfg.base.clone();
        let nodes = base.cluster.nodes;
        let world = base.cluster.world_size();
        for ev in base.faults.events() {
            if let FaultTarget::Node(n) = ev.target {
                if n as usize >= nodes {
                    return Err(SchedError::FaultNodeOutOfRange { node: n, nodes });
                }
            }
        }
        if cfg.window == 0 {
            return Err(serr("window must be positive"));
        }
        if let Some(every) = cfg.snapshot_every {
            if every == 0 {
                return Err(serr("snapshot interval must be positive"));
            }
        }
        let nslots = cfg.nslots.unwrap_or_else(|| (2 * world).clamp(16, 1024));
        if nslots == 0 {
            return Err(serr("slot pool must be positive"));
        }
        let gen_mod = 0xFFFFusize / nslots;
        if gen_mod < 2 {
            return Err(serr(format!(
                "{nslots} slots leave no generation space in the 16-bit scope (max 32767)"
            )));
        }
        let digest = config_digest(&cfg, nslots);

        let mut source = ArrivalSource::new(cfg.arrivals.clone())?;
        let mut sim = Simulator::new();
        sim.net_mut().set_solve_mode(base.solve_mode);
        let physical = ClusterNet::build(&base.cluster, sim.net_mut());
        let mut free = GpuFreeList::new(&base.cluster);
        let faults = base.faults.resolve_links(|n| {
            vec![physical.node_tx_resource(n as usize), physical.node_rx_resource(n as usize)]
        });

        let mut jobs: Vec<JobRun> = (0..nslots).map(|_| JobRun::vacant()).collect();
        let mut pending_repairs = 0usize;
        let mut pending_crashes = 0usize;
        let mut acc = Acc::new();
        let mut next_snapshot_at = cfg.snapshot_every.unwrap_or(0);
        let mut snapshots_written = 0u32;
        let staged;

        match snap {
            None => {
                sim.install_faults(&faults);
                let first =
                    source.next()?.ok_or_else(|| serr("arrival source produced no jobs"))?;
                validate_spec(&first, world)?;
                sim.schedule_at(
                    SimTime::from_secs_f64(first.arrival_secs),
                    Token::new(ARRIVAL_KIND, first.id as u32, 0),
                );
                staged = Some(first);
                for (node, at, repair) in faults.crash_spans() {
                    sim.schedule_at(at, Token::new(CRASH_KIND, node, 0));
                    pending_crashes += 1;
                    if let Some(up_at) = repair {
                        sim.schedule_at(up_at, Token::new(REPAIR_KIND, node, 0));
                        pending_repairs += 1;
                    }
                }
            }
            Some(text) => {
                let s = parse_snapshot(text)?;
                if s.digest != digest {
                    return Err(serr(
                        "snapshot was written by a different configuration (digest mismatch)",
                    ));
                }
                if s.nslots != nslots {
                    return Err(serr(format!(
                        "snapshot has {} slots, run is configured for {nslots}",
                        s.nslots
                    )));
                }
                if s.gens.len() != nslots {
                    return Err(serr(format!(
                        "snapshot has {} slot generations, want {nslots}",
                        s.gens.len()
                    )));
                }
                if s.carried.len() != nodes {
                    return Err(serr(format!(
                        "snapshot has {} carried-byte counters, cluster has {nodes} nodes",
                        s.carried.len()
                    )));
                }
                for (j, g) in jobs.iter_mut().zip(&s.gens) {
                    j.epoch = *g;
                }
                for &n in &s.down {
                    if n >= nodes {
                        return Err(serr(format!(
                            "snapshot marks node {n} down, cluster has {nodes} nodes"
                        )));
                    }
                    free.set_node_down(n);
                }
                // Seed (not add) the saved accumulators: float addition is
                // not associative, so only exact seeding keeps every later
                // partial sum bitwise identical to the uninterrupted run.
                for (n, &bytes) in s.carried.iter().enumerate() {
                    sim.net_mut().seed_carried_bytes(physical.node_tx_resource(n), bytes);
                }
                source.restore(&s.source)?;
                validate_spec(&s.staged, world)?;
                sim.schedule_at(
                    SimTime::from_secs_f64(s.staged.arrival_secs),
                    Token::new(ARRIVAL_KIND, s.staged.id as u32, 0),
                );
                staged = Some(s.staged);
                acc = s.acc;
                next_snapshot_at = s.next_snapshot_at;
                snapshots_written = s.snapshots_written;
                // Quiescence at write time implies the fault horizon was
                // exhausted, so no faults or crash/repair timers are
                // re-installed; the resolved plan stays available because
                // `compute_factor` is a pure function of (plan, node, time).
            }
        }

        let st = StreamState {
            gen_mod: gen_mod as u32,
            source,
            staged,
            source_done: false,
            queue: VecDeque::new(),
            free_slots: (0..nslots).map(Reverse).collect(),
            acc,
            lines: Vec::new(),
            per_job_rows: cfg.per_job_rows,
            window: cfg.window,
            snapshot_every: cfg.snapshot_every,
            snapshot_path: cfg.snapshot_path.clone(),
            stop_after_snapshot: cfg.stop_after_snapshot,
            next_snapshot_at,
            snapshot_due: false,
            stop_requested: false,
            snapshots_written,
            pending_crashes,
            min_queued_gpus: usize::MAX,
            max_queued_gpus: 0,
            digest,
        };
        Ok(StreamSim {
            sim: MultiJobSim {
                cfg: base,
                sim,
                physical,
                free,
                faults,
                jobs,
                queue: Vec::new(),
                pending_repairs,
                stream: Some(Box::new(st)),
            },
        })
    }

    /// Runs until the source drains (or the first snapshot, with
    /// [`StreamCfg::stop_after_snapshot`]).
    pub fn run(mut self) -> Result<StreamReport, SchedError> {
        self.sim.run_loop()?;
        let stopped = self.sim.stream.as_ref().expect("stream mode").stop_requested;
        if !stopped {
            let st = self.sim.stream.as_mut().expect("stream mode");
            if st.acc.win_count > 0 {
                let end = st.acc.last_finish_secs;
                emit_window_row(st, 0, 0, end);
            }
        }
        let summary = if stopped { None } else { Some(make_summary(&self.sim)) };
        let nslots = self.sim.jobs.len();
        let st = self.sim.stream.take().expect("stream mode");
        let a = st.acc;
        Ok(StreamReport {
            lines: st.lines,
            summary,
            stats: StreamStats {
                emitted: a.emitted,
                completed: a.completed,
                failed: a.failed,
                windows_emitted: a.windows_emitted,
                nslots,
                peak_backlog: a.peak_backlog,
                peak_active: a.peak_active,
                snapshots_written: st.snapshots_written,
                stopped_at_snapshot: stopped,
                sketch_max_rank_error: a.jct_sketch.max_rank_error(),
                sketch_stored_items: a.jct_sketch.stored_items(),
            },
        })
    }
}

/// One-shot convenience: build and run a streaming scenario.
pub fn run_stream(cfg: StreamCfg) -> Result<StreamReport, SchedError> {
    StreamSim::try_new(cfg)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(process: ArrivalProcess, n: u64) -> ArrivalCfg {
        ArrivalCfg::new(process, n, 42)
    }

    #[test]
    fn process_by_name_round_trips() {
        assert_eq!(ArrivalProcess::by_name("poisson"), Some(ArrivalProcess::Poisson));
        assert!(matches!(ArrivalProcess::by_name("diurnal"), Some(ArrivalProcess::Diurnal { .. })));
        assert_eq!(ArrivalProcess::by_name("bursty"), Some(ArrivalProcess::Bursty));
        assert_eq!(
            ArrivalProcess::by_name("traces/wl.tsv"),
            Some(ArrivalProcess::Trace { path: "traces/wl.tsv".to_string() })
        );
        assert_eq!(ArrivalProcess::by_name("nope"), None);
    }

    #[test]
    fn source_is_deterministic_and_monotone() {
        let mut a = ArrivalSource::new(cfg(ArrivalProcess::Poisson, 50)).unwrap();
        let mut b = ArrivalSource::new(cfg(ArrivalProcess::Poisson, 50)).unwrap();
        let mut last = 0.0;
        for _ in 0..50 {
            let ja = a.next().unwrap().unwrap();
            let jb = b.next().unwrap().unwrap();
            assert_eq!(ja, jb);
            assert!(ja.arrival_secs >= last);
            last = ja.arrival_secs;
        }
        assert!(a.next().unwrap().is_none());
    }

    #[test]
    fn diurnal_and_bursty_stay_monotone() {
        for p in [ArrivalProcess::Diurnal { period_secs: 120.0 }, ArrivalProcess::Bursty] {
            let mut s = ArrivalSource::new(cfg(p, 200)).unwrap();
            let mut last = 0.0;
            while let Some(j) = s.next().unwrap() {
                assert!(j.arrival_secs >= last, "arrivals must be non-decreasing");
                last = j.arrival_secs;
            }
        }
    }

    #[test]
    fn source_cursor_save_restore_is_exact() {
        let mut s = ArrivalSource::new(cfg(ArrivalProcess::Bursty, 100)).unwrap();
        for _ in 0..37 {
            s.next().unwrap().unwrap();
        }
        let line = s.save_line();
        let fields: Vec<&str> = line.strip_prefix("source\t").unwrap().split_whitespace().collect();
        let save = SourceSave {
            emitted: fields[0].parse().unwrap(),
            rng: fields[1].parse().unwrap(),
            clock: fields[2].parse().unwrap(),
            burst: fields[3].parse::<u8>().unwrap() != 0,
            burst_left: fields[4].parse().unwrap(),
            trace_offset: fields[5].parse().unwrap(),
        };
        let mut r = ArrivalSource::new(cfg(ArrivalProcess::Bursty, 100)).unwrap();
        r.restore(&save).unwrap();
        loop {
            let x = s.next().unwrap();
            let y = r.next().unwrap();
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn generated_source_rejects_bad_config() {
        assert!(ArrivalSource::new(cfg(ArrivalProcess::Poisson, 0)).is_err());
        let mut c = cfg(ArrivalProcess::Poisson, 5);
        c.mean_interarrival_secs = 0.0;
        assert!(ArrivalSource::new(c).is_err());
        let mut c = cfg(ArrivalProcess::Poisson, 5);
        c.iterations = 0;
        assert!(ArrivalSource::new(c).is_err());
    }

    #[test]
    fn acc_save_line_round_trips() {
        let mut a = Acc::new();
        a.emitted = 9;
        a.completed = 7;
        a.failed = 1;
        a.jct_sum = 0.1 + 0.2; // a value that needs shortest-round-trip
        a.first_arrival_secs = 0.5;
        a.last_finish_secs = 123.456;
        a.peak_backlog = 3;
        let line = a.save_line();
        let fields: Vec<&str> = line.strip_prefix("acc\t").unwrap().split_whitespace().collect();
        let b = Acc::restore(&fields).unwrap();
        assert_eq!(a.emitted, b.emitted);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.jct_sum.to_bits(), b.jct_sum.to_bits());
        assert_eq!(a.first_arrival_secs.to_bits(), b.first_arrival_secs.to_bits());
        assert_eq!(a.peak_backlog, b.peak_backlog);
        // Infinity (the empty-accumulator first-arrival) round-trips too.
        let fresh = Acc::new();
        let line = fresh.save_line();
        let fields: Vec<&str> = line.strip_prefix("acc\t").unwrap().split_whitespace().collect();
        let back = Acc::restore(&fields).unwrap();
        assert!(back.first_arrival_secs.is_infinite());
    }

    #[test]
    fn digest_tracks_configuration() {
        use crate::placement::PlacePolicy;
        use crate::workload::{Workload, WorkloadCfg};
        use aiacc_cluster::ClusterSpec;
        let wl = Workload::generate(&WorkloadCfg::new(1, 1));
        let base = MultiJobCfg::new(ClusterSpec::tcp_v100(16), PlacePolicy::Packed, wl);
        let a = StreamCfg::new(base.clone(), ArrivalCfg::new(ArrivalProcess::Poisson, 10, 1));
        let b = a.clone().with_window(77);
        assert_ne!(config_digest(&a, 16), config_digest(&b, 16));
        assert_eq!(config_digest(&a, 16), config_digest(&a.clone(), 16));
    }
}
