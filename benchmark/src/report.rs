//! Metrics, output digests and the rendering of results.

use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`, starting with a letter or digit.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `s`, `1/s`, `share`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit }
    }
}

/// Whether `name` is a legal metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, the first a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// A digest of outputs the benchmark checks against the committed
/// reference, and how many timed operations it vouches for.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    /// Key within the workload, e.g. `event_hash`.
    pub key: String,
    /// The digest value, as text.
    pub value: String,
    /// Timed operations whose output the digest covers; a mismatch fails
    /// them all.
    pub covers: u64,
}

/// How a digest compared with the committed reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigestStatus {
    /// Equal to the reference.
    Match,
    /// Different from the reference, or missing from it.
    Mismatch,
    /// The reference has no entry for this seed.
    Unchecked,
}

impl DigestStatus {
    /// Lower-case label for the printed digest lines.
    pub fn label(self) -> &'static str {
        match self {
            DigestStatus::Match => "match",
            DigestStatus::Mismatch => "mismatch",
            DigestStatus::Unchecked => "unchecked",
        }
    }
}

/// Compares `digests` of one run with the reference table (lines of
/// `workload<TAB>seed<TAB>key<TAB>value`; `#` starts a comment). A seed with
/// no reference lines for the workload is unchecked.
pub fn check_digests(
    reference: &str,
    workload: &str,
    seed: u64,
    digests: &[Digest],
) -> Vec<DigestStatus> {
    let seed = seed.to_string();
    let rows: Vec<(&str, &str)> = reference
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            (f.len() == 4 && f[0] == workload && f[1] == seed).then(|| (f[2], f[3]))
        })
        .collect();
    digests
        .iter()
        .map(|d| {
            if rows.is_empty() {
                DigestStatus::Unchecked
            } else if rows.iter().any(|&(k, v)| k == d.key && v == d.value) {
                DigestStatus::Match
            } else {
                DigestStatus::Mismatch
            }
        })
        .collect()
}

/// Operations failed by mismatched digests, capped at `attempted`.
pub fn failed_by_digests(digests: &[Digest], status: &[DigestStatus], attempted: u64) -> u64 {
    let failed: u64 = digests
        .iter()
        .zip(status)
        .filter(|(_, &s)| s == DigestStatus::Mismatch)
        .map(|(d, _)| d.covers)
        .sum();
    failed.min(attempted)
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Formats a number the way JSON needs it: every digit, never `NaN`.
///
/// # Panics
/// Panics on a non-finite value, which no metric may take.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in ["setup_s", "simnet.solve_share", "core.perseus_share.topk64", "9a-b"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "µs", "a\tb", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn a_perturbed_output_fails_the_operations_it_covers() {
        let reference = "# comment\nw\t1\thash\tabc\nw\t1\tcount\t7\nother\t2\thash\tzzz\n";
        let run = |hash: &str| {
            vec![
                Digest { key: "hash".into(), value: hash.into(), covers: 40 },
                Digest { key: "count".into(), value: "7".into(), covers: 40 },
            ]
        };
        let good = run("abc");
        let st = check_digests(reference, "w", 1, &good);
        assert_eq!(st, vec![DigestStatus::Match, DigestStatus::Match]);
        assert_eq!(failed_by_digests(&good, &st, 100), 0);

        let bad = run("abd");
        let st = check_digests(reference, "w", 1, &bad);
        assert_eq!(st, vec![DigestStatus::Mismatch, DigestStatus::Match]);
        let failed = failed_by_digests(&bad, &st, 100);
        assert_eq!(failed, 40);
        assert!(failed as f64 / 100.0 > 0.0, "failed share must rise");

        let st = check_digests(reference, "w", 3, &bad);
        assert_eq!(st, vec![DigestStatus::Unchecked; 2]);
        assert_eq!(failed_by_digests(&bad, &st, 100), 0);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line =
            result_line(true, 3, 0, &[Metric::new("a", 1.25, "s"), Metric::new("b", 7.0, "1/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"s\"}, \"b\": {\"value\": 7, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
