//! What the benchmark reads from the machine it runs on: a calibration
//! loop that tells a noisy host from a slow program, the process's
//! memory high-water mark, and the facts that identify a run.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Milliseconds one pass of a fixed CPU-bound loop takes (the fastest of
/// five, so a single preemption does not count as drift). It runs
/// before and after each workload: the work is constant, so a change
/// between the two readings is the host's doing, not the program's.
pub fn calibrate_ms() -> f64 {
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
            let mut acc = 0u64;
            for _ in 0..black_box(12_000_000u32) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.wrapping_add(x);
            }
            black_box(acc);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// A `kB` field of `/proc/self/status`, in MiB (0 where the file or the
/// field is missing, i.e. off Linux).
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(field)?
                    .trim_start_matches(':')
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Current resident set of this process (`VmRSS`), MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version` of the toolchain on the path.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"])
}

/// The checked-out commit, or `unknown` outside a git repository.
pub fn git_commit() -> String {
    first_line_of("git", &["rev-parse", "--short=12", "HEAD"])
}
