//! Gradient debugging: NaN / Inf detection.
//!
//! §IV: AIACC-Training "offers debugging support like identifying NaN (not a
//! number) values from individual gradients — a headache for many users
//! during DDL." This module scans per-tensor gradients and reports exactly
//! which parameter produced the first few non-finite values.

use aiacc_dnn::GradId;
use std::fmt;

/// One non-finite gradient value.
#[derive(Debug, Clone, PartialEq)]
pub struct NonFiniteReport {
    /// Gradient tensor id.
    pub grad: GradId,
    /// Tensor name (e.g. `"layer3.conv2.weight"`).
    pub name: String,
    /// Element index within the tensor.
    pub index: usize,
    /// The offending value (NaN or ±∞), stored as bits-preserving f32.
    pub value: f32,
}

impl fmt::Display for NonFiniteReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] = {} ({})", self.name, self.index, self.value, self.grad)
    }
}

/// Scans named gradient tensors for NaN/Inf, reporting at most
/// `max_reports` findings (scanning everything but truncating the report
/// keeps the cost of pathological iterations bounded).
///
/// # Example
/// ```
/// use aiacc_dnn::GradId;
/// use aiacc_optim::debug::find_non_finite;
/// let grads = vec![(GradId(0), "fc.weight".to_string(), vec![1.0, f32::NAN])];
/// let reports = find_non_finite(&grads, 10);
/// assert_eq!(reports.len(), 1);
/// assert_eq!(reports[0].index, 1);
/// ```
pub fn find_non_finite(
    grads: &[(GradId, String, Vec<f32>)],
    max_reports: usize,
) -> Vec<NonFiniteReport> {
    let mut out = Vec::new();
    for (id, name, values) in grads {
        for (i, &v) in values.iter().enumerate() {
            if !v.is_finite() {
                if out.len() < max_reports {
                    out.push(NonFiniteReport { grad: *id, name: name.clone(), index: i, value: v });
                } else {
                    return out;
                }
            }
        }
    }
    out
}

/// `true` when every value in every tensor is finite (the fast path executed
/// each iteration when NaN checking is enabled).
pub fn all_finite(grads: &[(GradId, String, Vec<f32>)]) -> bool {
    grads.iter().all(|(_, _, v)| v.iter().all(|x| x.is_finite()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn named(id: u32, vals: Vec<f32>) -> (GradId, String, Vec<f32>) {
        (GradId(id), format!("t{id}"), vals)
    }

    #[test]
    fn clean_gradients_report_nothing() {
        let g = vec![named(0, vec![1.0, -2.0]), named(1, vec![0.0])];
        assert!(find_non_finite(&g, 10).is_empty());
        assert!(all_finite(&g));
    }

    #[test]
    fn finds_nan_and_inf_with_locations() {
        let g = vec![
            named(0, vec![1.0, f32::NAN, 3.0]),
            named(1, vec![f32::INFINITY]),
            named(2, vec![f32::NEG_INFINITY, 0.0]),
        ];
        let r = find_non_finite(&g, 10);
        assert_eq!(r.len(), 3);
        assert_eq!((r[0].grad, r[0].index), (GradId(0), 1));
        assert!(r[0].value.is_nan());
        assert_eq!(r[1].name, "t1");
        assert!(!all_finite(&g));
    }

    #[test]
    fn report_truncated_at_limit() {
        let g = vec![named(0, vec![f32::NAN; 100])];
        assert_eq!(find_non_finite(&g, 5).len(), 5);
    }

    #[test]
    fn display_is_informative() {
        let r = find_non_finite(&[named(3, vec![f32::NAN])], 1);
        let s = format!("{}", r[0]);
        assert!(s.contains("t3[0]"), "{s}");
    }
}
