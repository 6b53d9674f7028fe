//! Regenerates every table and figure of the evaluation: the paper's and
//! its extensions' (chaos, streaming, compression).
//!
//! ```text
//! repro [EXPERIMENT ...] [--quick] [--out DIR] [--jobs N]
//!
//! EXPERIMENT: a table (table1 bandwidth fig2 fig9..fig15 fig_multijob
//!             fig_chaos fig_stream fig_scale ctr insightface dawnbench tuning
//!             ablation_* compress_*), a group (ablations compress) or all
//! --quick     reduced sweeps (fewer GPU counts, seeds, jobs and budget)
//! --out DIR   write each table as TSV under DIR (default: results/)
//! --jobs N    fan sweep points out over N worker threads (default: all
//!             cores; output is bit-identical to --jobs 1)
//! ```
//!
//! The chaos, streaming, fabric-scale and compression tables panic when
//! their headline breaks. Usage errors exit 2 before anything runs; a
//! failed write exits 1.

use aiacc_bench::*;
use std::path::PathBuf;

/// Builds one table; the argument is `--quick`.
type Build = fn(bool) -> Table;

/// Every table `repro` writes, in run order: `(name, group, builder)`. A
/// table runs when its name, its group, or `all` is requested.
const EXPERIMENTS: &[(&str, &str, Build)] = &[
    ("table1", "", |_| table1_models()),
    ("bandwidth", "", |_| bandwidth_utilization()),
    ("fig2", "", |q| fig2_motivation(pick(q, FULL_GPU_SWEEP, QUICK_GPU_SWEEP))),
    ("fig9", "", |q| fig9_cv(pick(q, FULL_GPU_SWEEP, QUICK_GPU_SWEEP))),
    ("fig10", "", |q| fig10_nlp(pick(q, FULL_GPU_SWEEP, QUICK_GPU_SWEEP))),
    ("fig11", "", |q| fig11_tensorflow(pick(q, FULL_GPU_SWEEP, QUICK_GPU_SWEEP))),
    ("fig12", "", |q| fig12_mxnet(pick(q, FULL_GPU_SWEEP, QUICK_GPU_SWEEP))),
    ("fig13", "", |q| fig13_hybrid(pick(q, FULL_GPU_SWEEP, QUICK_GPU_SWEEP))),
    ("fig14", "", |_| fig14_batch_sweep()),
    ("fig15", "", |_| fig15_rdma()),
    ("fig_multijob", "", |q| {
        fig_multijob(pick(q, MULTIJOB_SWEEP, MULTIJOB_QUICK_SWEEP), pick(q, 6, 3))
    }),
    ("fig_chaos", "", |q| fig_chaos(pick(q, CHAOS_SEEDS, CHAOS_QUICK_SEEDS), 6)),
    ("fig_stream", "", |q| {
        fig_stream(
            pick(q, STREAM_SATURATED_JOBS, STREAM_SATURATED_QUICK_JOBS),
            pick(q, STREAM_SCALE_JOBS, STREAM_SCALE_QUICK_JOBS),
        )
    }),
    ("fig_scale", "", |q| fig_scale(pick(q, &SCALE_FULL, &SCALE_QUICK))),
    ("ctr", "", |q| ctr_production_speedup(pick(q, 128, 32))),
    ("insightface", "", |q| insightface_speedup(pick(q, 128, 32))),
    ("dawnbench", "", |_| dawnbench_table()),
    ("tuning", "", |q| tuning_report(pick(q, 60, 15))),
    ("ablation_flow_cap", "ablations", |_| ablation_flow_cap()),
    ("ablation_byteps_servers", "ablations", |_| ablation_byteps_servers()),
    ("ablation_sync_scheme", "ablations", |_| ablation_sync_scheme()),
    ("ablation_granularity", "ablations", |_| ablation_granularity()),
    ("ablation_tree_vs_ring", "ablations", |_| ablation_tree_vs_ring()),
    ("ablation_meta_solver", "ablations", |q| ablation_meta_solver(pick(q, 60, 15))),
    ("compress_data_plane", "compress", |q| compress_data_plane(pick(q, 150, 120))),
    ("compress_frontier", "compress", |q| {
        compress_frontier(pick(q, FRONTIER_STREAMS, FRONTIER_QUICK_STREAMS))
    }),
    ("compress_tuning", "compress", |q| compress_tuning(pick(q, 30, 12))),
];

/// The full-size value, or the reduced one under `--quick`.
fn pick<T>(quick: bool, full: T, reduced: T) -> T {
    if quick {
        reduced
    } else {
        full
    }
}

/// A parsed command line.
#[derive(Debug, PartialEq)]
struct Opts {
    /// Names of the tables to build, in [`EXPERIMENTS`] order.
    names: Vec<&'static str>,
    quick: bool,
    out: PathBuf,
    jobs: Option<usize>,
}

/// Parses the arguments after the program name. Every experiment name and
/// flag is validated here, so a typo fails before any sweep runs.
fn parse(args: &[String]) -> Result<Opts, String> {
    let mut quick = false;
    let mut out = PathBuf::from("results");
    let mut jobs = None;
    let mut wanted = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            flag @ ("--out" | "--jobs") => {
                let value = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{flag} needs a value"))?;
                if flag == "--out" {
                    out = PathBuf::from(value);
                } else {
                    match value.parse::<usize>() {
                        Ok(n) if n > 0 => jobs = Some(n),
                        _ => return Err(format!("--jobs needs a positive integer, got {value}")),
                    }
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            name => wanted.push(name),
        }
    }
    let hits = |w: &str, &(n, g, _): &(&str, &str, Build)| w == "all" || w == n || w == g;
    if let Some(w) = wanted.iter().find(|w| !EXPERIMENTS.iter().any(|e| hits(w, e))) {
        return Err(format!("unknown experiment {w}"));
    }
    if wanted.is_empty() {
        wanted.push("all");
    }
    let names =
        EXPERIMENTS.iter().filter(|e| wanted.iter().any(|w| hits(w, e))).map(|e| e.0).collect();
    Ok(Opts { names, quick, out, jobs })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args).unwrap_or_else(|e| {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|&(n, _, _)| n).collect();
        eprintln!(
            "repro: {e}\nusage: repro [EXPERIMENT ...] [--quick] [--out DIR] [--jobs N]\n\
             EXPERIMENT: {} ablations compress all",
            names.join(" ")
        );
        std::process::exit(2);
    });
    if let Some(n) = opts.jobs {
        aiacc_simnet::par::set_jobs(n);
    }
    for &(name, _, build) in EXPERIMENTS.iter().filter(|(n, _, _)| opts.names.contains(n)) {
        eprintln!("[repro] running {name} ...");
        let t = build(opts.quick);
        println!("{t}");
        let path = opts.out.join(format!("{name}.tsv"));
        if let Err(e) = t.write_tsv(&path) {
            eprintln!("repro: could not write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    eprintln!("[repro] done: {} experiment(s); TSV in {}", opts.names.len(), opts.out.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Opts, String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn selects_tables_in_run_order() {
        let every = parse_strs(&[]).unwrap();
        assert_eq!(every.names.len(), EXPERIMENTS.len());
        assert_eq!((every.quick, every.jobs, &every.out), (false, None, &PathBuf::from("results")));
        assert_eq!(every, parse_strs(&["all"]).unwrap());
        let names = |args: &[&str]| parse_strs(args).unwrap().names;
        assert_eq!(names(&["fig9", "table1", "fig9"]), ["table1", "fig9"]);
        assert_eq!(
            names(&["fig_stream", "ablation_flow_cap"]),
            ["fig_stream", "ablation_flow_cap"]
        );
        assert_eq!(names(&["ablations"]).len(), 6);
        let compress = ["compress_data_plane", "compress_frontier", "compress_tuning"];
        assert_eq!(names(&["compress"]), compress);
        let opts = parse_strs(&["fig2", "--quick", "--out", "/tmp/x", "--jobs", "3"]).unwrap();
        assert_eq!((opts.quick, opts.out, opts.jobs), (true, PathBuf::from("/tmp/x"), Some(3)));
    }

    #[test]
    fn rejects_bad_arguments() {
        for (args, err) in [
            (&["table1", "fgi9"][..], "unknown experiment fgi9"),
            (&["table1", "--fast"], "unknown flag --fast"),
            (&["table1", "--out"], "--out needs a value"),
            (&["--out", "--quick"], "--out needs a value"),
            (&["--jobs"], "--jobs needs a value"),
            (&["--jobs", "0"], "--jobs needs a positive integer, got 0"),
            (&["--jobs", "-1"], "--jobs needs a positive integer, got -1"),
            (&["--jobs", "two"], "--jobs needs a positive integer, got two"),
        ] {
            assert_eq!(parse_strs(args).unwrap_err(), err, "{args:?}");
        }
    }
}
