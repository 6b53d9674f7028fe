//! `aiacc-benchmark` — times the repository's four benchmark workloads and
//! checks their outputs.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--workload` one workload runs in this process. Without it, every
//! workload runs in a child process of its own, one after another, so peak
//! memory is per workload and pool threads never carry over. Each metric is
//! printed as `metric<TAB>workload<TAB>value<TAB>unit`; the last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones). A report with a run manifest, and with `--trace 1` the kept spans,
//! is written under the cargo target directory. The exit code is 1 when an
//! output check fails and 2 on a usage error.

use aiacc_benchmark::report::{self, json_string, DigestStatus, Metric};
use aiacc_benchmark::{full_layer_table, run_workload, RunCfg, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const REFERENCE: &str = include_str!("../reference.tsv");

/// The default budget: `run_seconds` of `BENCHMARK.json`.
fn default_seconds() -> f64 {
    include_str!("../../BENCHMARK.json")
        .split("\"run_seconds\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|v| v.trim().parse().ok())
        .expect("BENCHMARK.json sets run_seconds")
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    cfg: RunCfg,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: None, cfg: RunCfg { seed: 1, seconds: default_seconds(), trace: false } };
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| argv.get(i + 1).ok_or_else(|| format!("{} needs a value", argv[i]));
        match argv[i].as_str() {
            "--workload" => {
                let w = value(i)?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; expected one of {WORKLOADS:?}"));
                }
                args.workload = Some(w.clone());
                i += 1;
            }
            "--seed" => {
                args.cfg.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                let s: f64 = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                args.cfg.seconds = s;
                i += 1;
            }
            "--trace" => {
                args.cfg.trace = match value(i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
                i += 1;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(args)
}

/// Solver/sweep pool width: two workers where the host has them.
fn pool_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// Short revision of the checkout, or `unknown` outside a git repository.
fn revision() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git_dir = root.join(".git");
    if !git_dir.exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .arg("--git-dir")
        .arg(&git_dir)
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where reports go: `bench-report/` beside the executable, inside the
/// cargo target directory.
fn report_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("bench-report")))
        .unwrap_or_else(|| PathBuf::from("benchmark/target/bench-report"))
}

fn run_one(workload: &str, cfg: &RunCfg) -> ExitCode {
    let workers = pool_workers();
    aiacc::simnet::par::set_jobs(workers);
    let out = match run_workload(workload, cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("[bench] {workload}: {e}");
            return ExitCode::from(1);
        }
    };
    let status = report::check_digests(REFERENCE, workload, cfg.seed, &out.digests);
    let failed = (out.failed + report::failed_by_digests(&out.digests, &status, out.attempted))
        .min(out.attempted);
    let correct = failed == 0 && out.attempted > 0;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    for p in &out.problems {
        eprintln!("[bench] {workload}: check failed: {p}");
    }
    for (d, s) in out.digests.iter().zip(&status) {
        eprintln!("[bench] {workload}: digest {} = {} ({})", d.key, d.value, s.label());
    }
    let failed_share = failed as f64 / out.attempted.max(1) as f64;
    let layers = if cfg.trace { full_layer_table(&out.layers) } else { Vec::new() };
    let prefix = if cfg.trace { "traced." } else { "" };
    let mut printed: Vec<Metric> = out
        .e2e
        .iter()
        .map(|m| Metric::new(format!("{prefix}{}", m.name), m.value, m.unit))
        .collect();
    printed.extend(layers.iter().cloned());
    printed.extend(out.info.iter().cloned());
    printed.push(Metric::new("failed_share", failed_share, "share"));
    for m in &printed {
        println!("{}\t{workload}\t{}\t{}", m.name, m.value, m.unit);
    }

    let headline = if cfg.trace { &layers } else { &out.e2e };
    let unchecked = status.iter().all(|&s| s == DigestStatus::Unchecked);
    let manifest = format!(
        "{{\"rev\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_cpus\": {host_cpus}, \"pool_workers\": {workers}, \"digests\": {}}}",
        json_string(&revision()),
        json_string(workload),
        cfg.seed,
        report::json_number(cfg.seconds),
        cfg.trace,
        json_string(if unchecked { "unchecked" } else { "checked" }),
    );
    let digests: Vec<String> = out
        .digests
        .iter()
        .zip(&status)
        .map(|(d, s)| {
            format!(
                "{{\"key\": {}, \"value\": {}, \"status\": {}}}",
                json_string(&d.key),
                json_string(&d.value),
                json_string(s.label())
            )
        })
        .collect();
    let full = format!(
        "{{\"manifest\": {manifest}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \
         \"metrics\": {}, \"digests\": [{}], \"problems\": [{}]}}\n",
        out.attempted,
        report::metrics_json(&printed),
        digests.join(", "),
        out.problems.iter().map(|p| json_string(p)).collect::<Vec<_>>().join(", "),
    );
    let dir = report_dir();
    let stem = format!("{workload}-seed{}{}", cfg.seed, if cfg.trace { "-trace" } else { "" });
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), full))
        .and_then(|()| match cfg.trace {
            true => std::fs::write(dir.join(format!("{stem}-spans.tsv")), &out.spans),
            false => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("[bench] cannot write the report under {}: {e}", dir.display());
    }
    println!("{}", report::result_line(correct, out.attempted, failed, headline));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload in a child process and relays its output; the last
/// line sums the children's results, metrics keyed `<workload>.<metric>`.
fn run_all(cfg: &RunCfg) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("[bench] cannot locate this executable: {e}");
            return ExitCode::from(1);
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        eprintln!("[bench] {w} (seed {}, {} s, trace {})", cfg.seed, cfg.seconds, cfg.trace);
        let mut child = Command::new(&exe);
        child.args(["--workload", w, "--seed", &cfg.seed.to_string()]);
        child.args(["--seconds", &cfg.seconds.to_string()]);
        if cfg.trace {
            child.args(["--trace", "1"]);
        }
        let child = child.stderr(std::process::Stdio::inherit()).output();
        let output = match child {
            Ok(o) => o,
            Err(e) => {
                eprintln!("[bench] {w}: cannot start: {e}");
                return ExitCode::from(1);
            }
        };
        correct &= output.status.success();
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        attempted += json_u64(last, "attempted").unwrap_or(0);
        failed += json_u64(last, "failed").unwrap_or(0);
        let catalogue: &[(&str, &'static str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
        for line in lines {
            println!("{line}");
            if let [name, _, value, _] = line.split('\t').collect::<Vec<_>>()[..] {
                let known = catalogue.iter().find(|&&(n, _)| n == name);
                if let (Some(&(_, unit)), Ok(v)) = (known, value.parse()) {
                    metrics.push(Metric::new(format!("{w}.{name}"), v, unit));
                }
            }
        }
    }
    println!("{}", report::result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The unsigned integer after `"key": ` in a one-line JSON object.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    rest.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: aiacc-benchmark [--workload {}] [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(w) => run_one(w, &args.cfg),
        None => run_all(&args.cfg),
    }
}
