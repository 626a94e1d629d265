//! `qbench` — the repository's benchmark.
//!
//! A closed loop with one client sends SQL text to
//! `QueryEngine::execute` and single-row batches to
//! `QueryEngine::ingest`, over four workloads that stress different
//! layers. An untraced run reports what a user sees (latency
//! percentiles, throughput, set-up time, memory); a traced run splits
//! the same operations over the repository's layers. See `README.md`
//! beside this package's manifest.

mod alloc;
mod cli;
mod host;
mod metrics;
mod run;
mod stats;
mod stream;
mod trace;

use metrics::{RunResult, Sample, END_TO_END};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use stream::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// `<target dir>/qbench`, found from this executable's own path
/// (`<target dir>/<profile>/qbench`), so output stays inside the
/// checkout wherever the target directory was put.
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("qbench")))
        .unwrap_or_else(|| PathBuf::from("target/qbench"))
}

/// The engine reads seventeen `QUERYER_*` knobs from the environment;
/// one left set in a shell silently measures a different program.
fn refuse_knobs(allow: bool) -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("QUERYER_"))
        .collect();
    match set.as_slice() {
        [] => Ok(()),
        _ if allow => {
            println!("environment: {} set (--allow-env)", set.join(", "));
            Ok(())
        }
        _ => Err(format!(
            "{} is set and changes what the engine does; unset it or pass --allow-env",
            set.join(", ")
        )),
    }
}

fn print_samples(samples: &[Sample]) {
    for m in samples {
        println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// One workload in this process; the last line printed is the result.
fn run_one(args: &cli::Args, workload: Workload) -> Result<(), run::RunError> {
    let cfg = run::RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: out_dir(),
    };
    println!(
        "qbench {}: seed {}, {} s, {}; nproc {}, {}, commit {}",
        workload.name(),
        cfg.seed,
        cfg.seconds,
        if cfg.trace { "traced" } else { "untraced" },
        host::nproc(),
        host::rustc_version(),
        host::git_commit()
    );
    let report = run::run(&cfg)?;
    println!(
        "  stream_fingerprint {:016x}; {} query samples, {} ingest samples, each the best of {:.2} passes{}",
        report.stream_fingerprint,
        report.query_samples,
        report.ingest_samples,
        report.passes,
        if report.noisy {
            "; NOISY: the calibration loop moved more than 10 % across the run"
        } else {
            ""
        }
    );
    print_samples(&report.metrics);
    let known = &report.deviations;
    if known.baq_only_rows > 0 {
        println!(
            "  oracle: {} rows of the Batch Approach are missing from the sampled dedup-joins (Deduplicate-Join's discard rule; see README)",
            known.baq_only_rows
        );
    }
    if known.stale_answers > 0 {
        println!(
            "  oracle: {} sampled queries changed their answer when the written table's Link Index was dropped (stale after ingest; see README)",
            known.stale_answers
        );
    }
    println!(
        "  failed_ops_share {} ({} of {} operations and oracle checks)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    if cfg.trace {
        println!(
            "  spans: {}",
            cfg.out_dir
                .join(format!("{}.trace.jsonl", workload.name()))
                .display()
        );
    }
    let result = RunResult {
        correct: report.failed == 0,
        attempted: report.attempted,
        failed: report.failed,
        metrics: report.metrics,
    };
    println!("{}", result.to_json_line());
    Ok(())
}

/// Runs one workload in a child process (so that `peak_rss_mb` is that
/// workload's alone), echoes what it printed, and returns its result.
fn run_child(
    args: &cli::Args,
    workload: Workload,
    seed: u64,
    trace: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find qbench itself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.allow_env {
        cmd.arg("--allow-env");
    }
    // `output` waits for the child to end before returning.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in lines {
        println!("{l}");
    }
    if !out.status.success() {
        return Err(format!(
            "the {} child exited with {}",
            workload.name(),
            out.status
        ));
    }
    RunResult::from_json_line(last)
        .ok_or_else(|| format!("the {} child printed no result line", workload.name()))
}

/// `--all` and `--repeat`: children per workload, then the summary.
fn run_many(args: &cli::Args) -> Result<bool, String> {
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut all_correct = true;
    for w in workloads {
        println!("== {} — {}", w.name(), w.why());
        let mut untraced = Vec::new();
        // The acceptance rule takes its spread over runs that each have
        // another seed, so `--repeat` does too.
        for i in 0..args.repeat.unwrap_or(1) {
            let r = run_child(args, w, args.seed.wrapping_add(i as u64), false)?;
            all_correct &= r.correct;
            untraced.push(r);
        }
        let traced = run_child(args, w, args.seed, true)?;
        all_correct &= traced.correct;
        if untraced.len() >= 2 {
            println!(
                "  spread over {} untraced runs, seeds {}..={} (iqr = quartile distance / median):",
                untraced.len(),
                args.seed,
                args.seed.wrapping_add(untraced.len() as u64 - 1)
            );
            for d in &END_TO_END {
                let values: Vec<f64> = untraced
                    .iter()
                    .filter_map(|r| r.metrics.iter().find(|m| m.name == d.name))
                    .map(|m| m.value)
                    .collect();
                let (min, max) = values
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                        (lo.min(v), hi.max(v))
                    });
                println!(
                    "  {:<16} min {:>12.4}  median {:>12.4}  max {:>12.4} {:<4} iqr {:>6.2} %",
                    d.name,
                    min,
                    stats::median(&values),
                    max,
                    d.unit,
                    100.0 * stats::quartile_spread(&values)
                );
            }
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(a) => a,
        Err(message) => {
            eprintln!("qbench: {message}\n\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    if args.help {
        println!("{}", cli::USAGE);
        return ExitCode::SUCCESS;
    }
    if let Err(message) = refuse_knobs(args.allow_env) {
        eprintln!("qbench: {message}");
        return ExitCode::from(2);
    }
    let outcome = match args.workload {
        // A single run that measured but found wrong output still exits
        // 0: its result line carries `"correct": false`.
        Some(w) if args.repeat.is_none() => {
            run_one(&args, w).map(|()| true).map_err(|e| e.to_string())
        }
        _ => run_many(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("qbench: a workload reported failed operations");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("qbench: {message}");
            ExitCode::FAILURE
        }
    }
}
