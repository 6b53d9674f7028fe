//! Seeded workload generation and TSV trace load/save.
//!
//! A workload is a list of DDL jobs with Poisson-style arrivals, each
//! naming a model from [`aiacc_dnn::zoo`], a GPU count, an engine, and an
//! iteration budget. Generation is a pure function of the seed (the same
//! SplitMix64 scheme as [`aiacc_cluster::jitter_factor`]), so a workload can
//! be regenerated anywhere — or frozen to a TSV trace and reloaded
//! byte-for-byte.

use aiacc_baselines::HorovodConfig;
use aiacc_dnn::zoo;
use aiacc_trainer::EngineKind;

/// One job of a multi-job workload.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Stable job id (index into the workload).
    pub id: usize,
    /// Arrival time in seconds since the scenario start.
    pub arrival_secs: f64,
    /// Model name resolvable by [`zoo::by_name`].
    pub model: String,
    /// Requested gang size in GPUs.
    pub gpus: usize,
    /// Communication engine the job trains with.
    pub engine: EngineKind,
    /// Training iterations the job runs before completing.
    pub iterations: usize,
    /// Compute-jitter seed for the job's workers.
    pub seed: u64,
}

/// Job-mix presets for the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobMix {
    /// Communication-heavy models (VGG-16/BERT-Large): the regime where
    /// fabric contention dominates and the paper's multi-stream advantage
    /// shows up in the JCT tail.
    CommHeavy,
    /// A production-style mix across Table 1 models and gang sizes.
    Mixed,
    /// Tiny CNNs — fast smoke-test scenarios for CI.
    Tiny,
}

impl JobMix {
    /// The `(model, gpus)` choices this mix samples from.
    pub(crate) fn choices(self) -> &'static [(&'static str, usize)] {
        match self {
            JobMix::CommHeavy => &[("vgg16", 8), ("vgg16", 8), ("bert_large", 8), ("vgg16", 12)],
            JobMix::Mixed => &[
                ("resnet50", 8),
                ("vgg16", 8),
                ("bert_large", 16),
                ("transformer", 4),
                ("resnet50", 12),
            ],
            JobMix::Tiny => &[("tiny_cnn", 4), ("tiny_cnn", 8), ("tiny_cnn", 12)],
        }
    }

    /// The preset's name (round-trips through [`JobMix::by_name`]).
    pub fn name(self) -> &'static str {
        match self {
            JobMix::CommHeavy => "comm-heavy",
            JobMix::Mixed => "mixed",
            JobMix::Tiny => "tiny",
        }
    }

    /// Looks a preset up by name.
    pub fn by_name(name: &str) -> Option<JobMix> {
        match name {
            "comm-heavy" => Some(JobMix::CommHeavy),
            "mixed" => Some(JobMix::Mixed),
            "tiny" => Some(JobMix::Tiny),
            _ => None,
        }
    }
}

/// Generator parameters for [`Workload::generate`].
#[derive(Debug, Clone)]
pub struct WorkloadCfg {
    /// Number of jobs.
    pub njobs: usize,
    /// Seed driving arrivals and the model/size draw.
    pub seed: u64,
    /// Mean inter-arrival gap in seconds (exponential).
    pub mean_interarrival_secs: f64,
    /// Which models/sizes to draw.
    pub mix: JobMix,
    /// Engine override: `Some` pins every job to one engine (how the
    /// AIACC-vs-Horovod tail comparison is run); `None` alternates
    /// AIACC/Horovod per job for mixed tenancy.
    pub engine: Option<EngineKind>,
    /// Iterations per job.
    pub iterations: usize,
}

impl WorkloadCfg {
    /// A comm-heavy scenario of `njobs` jobs: 3 s mean inter-arrival,
    /// 6 iterations per job, mixed AIACC/Horovod tenancy.
    pub fn new(njobs: usize, seed: u64) -> Self {
        WorkloadCfg {
            njobs,
            seed,
            mean_interarrival_secs: 3.0,
            mix: JobMix::CommHeavy,
            engine: None,
            iterations: 6,
        }
    }

    /// Pins every job to `engine`.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Selects the job mix.
    pub fn with_mix(mut self, mix: JobMix) -> Self {
        self.mix = mix;
        self
    }

    /// Sets the per-job iteration budget.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the mean inter-arrival gap.
    pub fn with_interarrival(mut self, secs: f64) -> Self {
        self.mean_interarrival_secs = secs;
        self
    }
}

/// A fully-specified multi-job scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The jobs, ordered by id (and non-decreasing arrival time).
    pub jobs: Vec<JobSpec>,
}

/// Minimal deterministic RNG (SplitMix64 — the same finalizer the compute
/// jitter uses, so no external `rand` machinery is needed). The full `u64`
/// state is exposed crate-internally so the streaming arrival source can
/// freeze and restore it across snapshots.
pub(crate) struct SplitMix64(pub(crate) u64);

impl SplitMix64 {
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        x
    }

    /// Uniform in `[0, 1)` with 53-bit resolution.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean (inverse-CDF).
    pub(crate) fn next_exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }
}

impl Workload {
    /// Generates a workload deterministically from `cfg`.
    ///
    /// # Panics
    /// Panics if `cfg.njobs` or `cfg.iterations` is zero, or the mean
    /// inter-arrival gap is negative or not finite.
    pub fn generate(cfg: &WorkloadCfg) -> Workload {
        assert!(cfg.njobs > 0, "workload needs at least one job");
        assert!(cfg.iterations > 0, "jobs need at least one iteration");
        assert!(
            cfg.mean_interarrival_secs.is_finite() && cfg.mean_interarrival_secs >= 0.0,
            "invalid mean inter-arrival"
        );
        let mut rng = SplitMix64(cfg.seed ^ 0xA1AC_C5C4_ED00_0001);
        let choices = cfg.mix.choices();
        let mut at = 0.0f64;
        let jobs = (0..cfg.njobs)
            .map(|id| {
                if id > 0 {
                    at += rng.next_exp(cfg.mean_interarrival_secs);
                }
                let (model, gpus) = choices[(rng.next_u64() % choices.len() as u64) as usize];
                let engine = cfg.engine.unwrap_or_else(|| {
                    if id % 2 == 0 {
                        EngineKind::aiacc_default()
                    } else {
                        EngineKind::Horovod(HorovodConfig::default())
                    }
                });
                JobSpec {
                    id,
                    arrival_secs: at,
                    model: model.to_string(),
                    gpus,
                    engine,
                    iterations: cfg.iterations,
                    seed: cfg.seed.wrapping_add(1 + id as u64),
                }
            })
            .collect();
        Workload { jobs }
    }

    /// Serializes the workload to the TSV trace format (header + one row
    /// per job, `\n`-terminated) accepted by [`Workload::from_tsv`].
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tarrival_secs\tmodel\tgpus\tengine\titerations\tseed\n");
        for j in &self.jobs {
            out.push_str(&j.to_tsv_row());
            out.push('\n');
        }
        out
    }

    /// Parses a TSV trace produced by [`Workload::to_tsv`].
    ///
    /// # Errors
    /// Returns a description of the first malformed line (wrong column
    /// count, unparsable number, unknown model or engine).
    pub fn from_tsv(text: &str) -> Result<Workload, String> {
        let mut jobs = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if lineno == 0 || line.trim().is_empty() {
                continue; // header
            }
            jobs.push(
                JobSpec::parse_tsv_row(line).map_err(|e| format!("line {}: {e}", lineno + 1))?,
            );
        }
        if jobs.is_empty() {
            return Err("trace has no jobs".to_string());
        }
        Ok(Workload { jobs })
    }
}

impl JobSpec {
    /// Parses one data row of the [`Workload::to_tsv`] trace format. The
    /// streaming replayer uses this to consume traces of arbitrary length
    /// line by line without materializing the whole workload.
    ///
    /// # Errors
    /// Returns a description of the defect (wrong column count, unparsable
    /// number, unknown model or engine).
    pub fn parse_tsv_row(line: &str) -> Result<JobSpec, String> {
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() != 7 {
            return Err(format!("expected 7 columns, got {}", cols.len()));
        }
        let parse = |what: &str, s: &str| -> Result<f64, String> {
            s.parse::<f64>().map_err(|_| format!("bad {what}: {s:?}"))
        };
        let model = cols[2].to_string();
        if zoo::by_name(&model).is_none() {
            return Err(format!("unknown model {model:?}"));
        }
        let engine =
            EngineKind::by_label(cols[4]).ok_or_else(|| format!("unknown engine {:?}", cols[4]))?;
        Ok(JobSpec {
            id: parse("id", cols[0])? as usize,
            arrival_secs: parse("arrival", cols[1])?,
            model,
            gpus: parse("gpus", cols[3])? as usize,
            engine,
            iterations: parse("iterations", cols[5])? as usize,
            seed: parse("seed", cols[6])? as u64,
        })
    }

    /// Serializes this spec as one [`Workload::to_tsv`] data row (no
    /// trailing newline), the exact inverse of [`JobSpec::parse_tsv_row`].
    pub fn to_tsv_row(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.id,
            self.arrival_secs,
            self.model,
            self.gpus,
            self.engine.label(),
            self.iterations,
            self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorkloadCfg::new(8, 7);
        assert_eq!(Workload::generate(&cfg), Workload::generate(&cfg));
    }

    #[test]
    fn seeds_change_the_draw() {
        let a = Workload::generate(&WorkloadCfg::new(8, 7));
        let b = Workload::generate(&WorkloadCfg::new(8, 8));
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_are_nondecreasing_and_first_is_zero() {
        let w = Workload::generate(&WorkloadCfg::new(16, 3));
        assert_eq!(w.jobs[0].arrival_secs, 0.0);
        for pair in w.jobs.windows(2) {
            assert!(pair[1].arrival_secs >= pair[0].arrival_secs);
        }
    }

    #[test]
    fn tsv_round_trips() {
        let w = Workload::generate(&WorkloadCfg::new(8, 42));
        let text = w.to_tsv();
        let back = Workload::from_tsv(&text).expect("round trip");
        assert_eq!(w, back);
        assert_eq!(back.to_tsv(), text);
    }

    #[test]
    fn tsv_rejects_unknown_model() {
        let bad = "id\tarrival_secs\tmodel\tgpus\tengine\titerations\tseed\n\
                   0\t0.0\tnope\t8\taiacc\t5\t1\n";
        assert!(Workload::from_tsv(bad).unwrap_err().contains("unknown model"));
    }

    #[test]
    fn engine_labels_round_trip() {
        for label in ["aiacc", "horovod", "pytorch-ddp", "byteps", "mxnet-kvstore"] {
            assert_eq!(EngineKind::by_label(label).expect("known").label(), label);
        }
        assert_eq!(EngineKind::by_label("ddp").expect("alias").label(), "pytorch-ddp");
        assert_eq!(EngineKind::by_label("kvstore").expect("alias").label(), "mxnet-kvstore");
        assert!(EngineKind::by_label("gloo").is_none());
    }

    #[test]
    fn every_mix_resolves_in_the_zoo() {
        for mix in [JobMix::CommHeavy, JobMix::Mixed, JobMix::Tiny] {
            for &(model, gpus) in mix.choices() {
                assert!(zoo::by_name(model).is_some(), "{model} missing from zoo");
                assert!(gpus > 0);
            }
            assert_eq!(JobMix::by_name(mix.name()), Some(mix));
        }
    }
}
