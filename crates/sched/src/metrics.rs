//! Cluster-level scheduling metrics: tail JCT, queueing delay, makespan,
//! fabric utilization, and Jain fairness.
//!
//! Percentiles use the nearest-rank helpers from
//! [`aiacc_trainer::metrics`], so `schedule` reports and single-job
//! benchmark tables agree on the definition.
//!
//! Under chaos, failed jobs (killed by [`crate::RecoveryPolicy::Fail`] or by
//! permanent capacity loss) are *excluded* from the JCT/queue-delay/fairness
//! statistics — their truncated timelines are not completion times — and
//! reported separately via [`ClusterMetrics::njobs_failed`], alongside the
//! crash/restart/shrink/mitigation totals and the total recovery wall-clock.

use crate::multijob::MultiJobReport;
use aiacc_trainer::metrics::{p50, p95, p99};

/// Summary metrics of one multi-job scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterMetrics {
    /// Placement policy name.
    pub policy: String,
    /// Number of jobs in the scenario.
    pub njobs: usize,
    /// Median job completion time, seconds.
    pub jct_p50_secs: f64,
    /// 95th-percentile job completion time, seconds.
    pub jct_p95_secs: f64,
    /// 99th-percentile job completion time, seconds.
    pub jct_p99_secs: f64,
    /// Mean job completion time, seconds.
    pub jct_mean_secs: f64,
    /// Mean time jobs spent queued before placement, seconds.
    pub queue_delay_mean_secs: f64,
    /// Last finish minus first arrival, seconds.
    pub makespan_secs: f64,
    /// Mean NIC transmit utilization across nodes over the makespan.
    pub fabric_utilization: f64,
    /// Jain fairness index over per-job completion times (1 = all equal).
    pub jain_fairness: f64,
    /// Jobs that never completed (killed by the recovery policy or left
    /// without a feasible placement).
    pub njobs_failed: usize,
    /// Node crashes that hit running gangs, summed over jobs.
    pub crashes_total: u32,
    /// Checkpoint restarts paid, summed over jobs.
    pub restarts_total: u32,
    /// Elastic shrink operations paid, summed over jobs.
    pub shrinks_total: u32,
    /// Straggler mitigations applied, summed over jobs.
    pub mitigations_total: u32,
    /// Wall-clock spent in recovery pauses, summed over jobs, seconds.
    pub recovery_total_secs: f64,
}

/// Jain's fairness index `(Σx)² / (n · Σx²)` over `xs`; 1.0 when all values
/// are equal, approaching `1/n` when one value dominates. Returns 1.0 for an
/// empty or all-zero slice.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sumsq: f64 = xs.iter().map(|x| x * x).sum();
    if sumsq == 0.0 {
        return 1.0;
    }
    sum * sum / (n as f64 * sumsq)
}

/// Reduces a [`MultiJobReport`] to its headline cluster metrics. JCT and
/// queue-delay statistics cover completed jobs only; failures are counted in
/// [`ClusterMetrics::njobs_failed`].
pub fn summarize(report: &MultiJobReport) -> ClusterMetrics {
    let completed: Vec<_> = report.jobs.iter().filter(|j| !j.failed).collect();
    let jcts: Vec<f64> = completed.iter().map(|j| j.jct_secs()).collect();
    let delays: Vec<f64> = completed.iter().map(|j| j.queue_delay_secs()).collect();
    let nc = completed.len();
    let mean = |xs: &[f64]| if xs.is_empty() { 0.0 } else { xs.iter().sum::<f64>() / nc as f64 };
    ClusterMetrics {
        policy: report.policy.name().to_string(),
        njobs: report.jobs.len(),
        jct_p50_secs: p50(&jcts).unwrap_or(0.0),
        jct_p95_secs: p95(&jcts).unwrap_or(0.0),
        jct_p99_secs: p99(&jcts).unwrap_or(0.0),
        jct_mean_secs: mean(&jcts),
        queue_delay_mean_secs: mean(&delays),
        makespan_secs: report.makespan_secs,
        fabric_utilization: report.fabric_utilization,
        jain_fairness: jain_fairness(&jcts),
        njobs_failed: report.jobs.len() - nc,
        crashes_total: report.jobs.iter().map(|j| j.crashes).sum(),
        restarts_total: report.jobs.iter().map(|j| j.restarts).sum(),
        shrinks_total: report.jobs.iter().map(|j| j.shrinks).sum(),
        mitigations_total: report.jobs.iter().map(|j| j.mitigations).sum(),
        recovery_total_secs: report.jobs.iter().map(|j| j.recovery_secs).sum(),
    }
}

impl ClusterMetrics {
    /// The TSV header matching [`ClusterMetrics::to_tsv_row`].
    pub fn tsv_header() -> &'static str {
        "policy\tnjobs\tjct_p50_s\tjct_p95_s\tjct_p99_s\tjct_mean_s\tqueue_delay_mean_s\tmakespan_s\tfabric_util\tjain\tfailed\tcrashes\trestarts\tshrinks\tmitigations\trecovery_s"
    }

    /// One deterministic TSV row (fixed 9-digit precision, so equal runs are
    /// byte-for-byte equal).
    pub fn to_tsv_row(&self) -> String {
        format!(
            "{}\t{}\t{:.9}\t{:.9}\t{:.9}\t{:.9}\t{:.9}\t{:.9}\t{:.9}\t{:.9}\t{}\t{}\t{}\t{}\t{}\t{:.9}",
            self.policy,
            self.njobs,
            self.jct_p50_secs,
            self.jct_p95_secs,
            self.jct_p99_secs,
            self.jct_mean_secs,
            self.queue_delay_mean_secs,
            self.makespan_secs,
            self.fabric_utilization,
            self.jain_fairness,
            self.njobs_failed,
            self.crashes_total,
            self.restarts_total,
            self.shrinks_total,
            self.mitigations_total,
            self.recovery_total_secs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_extremes() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
        assert!((jain_fairness(&[3.0, 3.0, 3.0]) - 1.0).abs() < 1e-12);
        // One job hogging: index tends to 1/n.
        let j = jain_fairness(&[10.0, 0.0, 0.0, 0.0]);
        assert!((j - 0.25).abs() < 1e-12, "{j}");
    }

    #[test]
    fn jain_is_scale_invariant() {
        let a = jain_fairness(&[1.0, 2.0, 3.0]);
        let b = jain_fairness(&[10.0, 20.0, 30.0]);
        assert!((a - b).abs() < 1e-12);
    }
}
