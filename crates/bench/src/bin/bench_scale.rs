//! Scaling matrix for the ER index build and resolve path: runs the
//! fixed-seed DBLP-Scholar workload at 2k / 20k / 100k / 500k records
//! (plus 1M when `QUERYER_SCALE=full`) and writes `BENCH_scale.json`
//! with per-size build / pipeline-stage timings, decision counts, block
//! counts, and resident-set estimates. `docs/SCALING.md` publishes the
//! measured curve; CI's `scale-smoke` job runs the matrix capped at 20k
//! with `--check` so decision counts at every committed size are pinned.
//!
//! Usage: `bench_scale [OUT_PATH] [--check] [--max N]` (default
//! `BENCH_scale.json` in the current directory).
//!
//! - `--max N` drops matrix sizes above `N` records — CI smoke uses
//!   `--max 20000` to stay fast on shared runners.
//! - `--check` diffs the decision counts (`comparisons`,
//!   `candidate_pairs`, `matches_found`) of every size present in a
//!   pre-existing OUT_PATH against the fresh run and exits non-zero on
//!   drift. Sizes missing from the baseline (e.g. a capped smoke run
//!   checked against the full committed matrix — or vice versa) are
//!   skipped, so the 20k smoke validates the 2k and 20k rows of the
//!   committed 500k matrix.
//!
//! Timings are informational and never gated (shared runners flake);
//! only decision counts are pinned. Sizes ≤ 20k run 3 repetitions
//! (median); larger sizes run once — at 100k+ a single pass already
//! dominates the noise floor.
//!
//! Memory columns come from `/proc/self/status`: `vm_rss_kb` is the
//! resident set right after the size's resolve completes, `vm_hwm_kb`
//! the process-wide high-water mark *so far* — sizes run ascending, so
//! the HWM at a row approximates that size's peak. Both are 0 on
//! non-Linux hosts.

use queryer_datagen::scholarly;
use queryer_er::{DedupMetrics, ErConfig, LinkIndex, ResolveRequest, TableErIndex};
use std::fmt::Write as _;
use std::time::Instant;

const SEED: u64 = 99;

/// Matrix sizes. The 2k point is the pinned workload of the test
/// suites (same dataset, seed, and resolve-all query: 21384 / 201).
const MATRIX: [usize; 4] = [2_000, 20_000, 100_000, 500_000];
/// Repetitions (median) at sizes ≤ 20k.
const SMALL_REPS: usize = 3;
/// Behind `QUERYER_SCALE=full` only: ~2× the 500k wall time again.
const FULL_SIZE: usize = 1_000_000;

/// The per-size decision counts `--check` pins.
const CHECKED_COUNTS: [&str; 3] = ["comparisons", "candidate_pairs", "matches_found"];

struct SizeRow {
    records: usize,
    reps: usize,
    build_ns: u64,
    resolve_ns: u64,
    stages_ns: [u64; 6],
    comparisons: u64,
    candidate_pairs: u64,
    matches_found: u64,
    n_blocks: usize,
    vm_rss_kb: u64,
    vm_hwm_kb: u64,
}

fn median_ns(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Extracts `"key": <u64>` from the hand-rolled JSON (no serde in the
/// offline dependency set).
fn json_u64(s: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = s.find(&pat)? + pat.len();
    let rest = s[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Reads a `kB` field (`VmRSS`, `VmHWM`) from `/proc/self/status`.
/// Returns 0 where procfs is unavailable.
fn proc_status_kb(key: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':').map(str::trim))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn run_size(n: usize, reps: usize) -> SizeRow {
    let cfg = ErConfig::default();
    let ds = scholarly::dblp_scholar(n, SEED);
    assert_eq!(ds.table.len(), n);

    let build_start = Instant::now();
    let er = TableErIndex::build(&ds.table, &cfg);
    let build_ns = build_start.elapsed().as_nanos() as u64;

    let qe: Vec<u32> = (0..n as u32).collect();
    let mut totals = Vec::with_capacity(reps);
    let mut stage_ns: [Vec<u64>; 6] = Default::default();
    let mut last = DedupMetrics::default();
    for _ in 0..reps {
        let mut li = LinkIndex::new(n);
        let mut m = DedupMetrics::default();
        // Cold resolve caches every rep: the scaling curve measures the
        // first-query cost, not the cross-query cache.
        er.clear_ep_cache();
        let t0 = Instant::now();
        er.run(ResolveRequest::records(&ds.table, &qe, &mut li).metrics(&mut m))
            .expect("unlimited resolve on the indexed table");
        totals.push(t0.elapsed().as_nanos() as u64);
        let stages = [
            m.blocking,
            m.block_join,
            m.purging,
            m.filtering,
            m.edge_pruning,
            m.resolution,
        ];
        for (acc, d) in stage_ns.iter_mut().zip(stages) {
            acc.push(d.as_nanos() as u64);
        }
        last = m;
    }
    SizeRow {
        records: n,
        reps,
        build_ns,
        resolve_ns: median_ns(totals),
        stages_ns: stage_ns.map(median_ns),
        comparisons: last.comparisons,
        candidate_pairs: last.candidate_pairs,
        matches_found: last.matches_found,
        n_blocks: er.n_blocks(),
        vm_rss_kb: proc_status_kb("VmRSS"),
        vm_hwm_kb: proc_status_kb("VmHWM"),
    }
}

/// One JSON line per size so `--check` can pair baseline and fresh rows
/// by their `"records"` field with plain string search.
fn row_json(r: &SizeRow) -> String {
    let names = [
        "blocking",
        "block_join",
        "purging",
        "filtering",
        "edge_pruning",
        "comparison_execution",
    ];
    let mut stages = String::new();
    for (i, (name, ns)) in names.iter().zip(&r.stages_ns).enumerate() {
        if i > 0 {
            stages.push_str(", ");
        }
        let _ = write!(stages, "\"{name}\": {ns}");
    }
    format!(
        "{{\"records\": {}, \"reps\": {}, \"build_ns\": {}, \"resolve_total_ns\": {}, \
         \"stages_ns\": {{{stages}}}, \"comparisons\": {}, \"candidate_pairs\": {}, \
         \"matches_found\": {}, \"n_blocks\": {}, \"vm_rss_kb\": {}, \"vm_hwm_kb\": {}}}",
        r.records,
        r.reps,
        r.build_ns,
        r.resolve_ns,
        r.comparisons,
        r.candidate_pairs,
        r.matches_found,
        r.n_blocks,
        r.vm_rss_kb,
        r.vm_hwm_kb,
    )
}

/// Finds the baseline row for a size (rows are one line each).
fn baseline_row(base: &str, records: usize) -> Option<&str> {
    let pat = format!("\"records\": {records},");
    base.lines().find(|l| l.contains(&pat))
}

/// log-log slope between consecutive rows: the empirical scaling
/// exponent (1.0 = linear, 2.0 = quadratic).
fn exponent(n0: usize, t0: u64, n1: usize, t1: u64) -> f64 {
    if t0 == 0 || t1 == 0 || n0 == n1 {
        return f64::NAN;
    }
    (t1 as f64 / t0 as f64).ln() / (n1 as f64 / n0 as f64).ln()
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut check = false;
    let mut max: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--max" => {
                let v = args.next().and_then(|v| v.parse().ok());
                let Some(v) = v else {
                    eprintln!("--max needs a record count; usage: bench_scale [OUT_PATH] [--check] [--max N]");
                    std::process::exit(2);
                };
                max = Some(v);
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}; usage: bench_scale [OUT_PATH] [--check] [--max N]");
                std::process::exit(2);
            }
            path => {
                if out_path.replace(path.to_string()).is_some() {
                    eprintln!(
                        "more than one OUT_PATH given; usage: bench_scale [OUT_PATH] [--check] [--max N]"
                    );
                    std::process::exit(2);
                }
            }
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_scale.json".to_string());
    let baseline = if check {
        match std::fs::read_to_string(&out_path) {
            Ok(s) => Some(s),
            Err(_) => {
                eprintln!("--check: no baseline at {out_path}; treating run as fresh");
                None
            }
        }
    } else {
        None
    };
    let full = std::env::var("QUERYER_SCALE").is_ok_and(|v| v.eq_ignore_ascii_case("full"));
    let mut sizes: Vec<usize> = MATRIX.to_vec();
    if full {
        sizes.push(FULL_SIZE);
    }
    if let Some(m) = max {
        sizes.retain(|&n| n <= m);
    }
    if sizes.is_empty() {
        eprintln!("--max {} leaves no matrix sizes", max.unwrap_or(0));
        std::process::exit(2);
    }

    let mut rows = Vec::with_capacity(sizes.len());
    for &n in &sizes {
        let reps = if n <= 20_000 { SMALL_REPS } else { 1 };
        eprintln!(
            "bench_scale: {n} records ({reps} rep{})",
            if reps == 1 { "" } else { "s" }
        );
        rows.push(run_size(n, reps));
    }

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"dataset\": \"dblp_scholar\", \"seed\": {SEED}, \"qe\": \"all\"}},"
    );
    let _ = writeln!(json, "  \"sizes\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {}{}",
            row_json(r),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_scale.json");
    println!("{json}");
    println!("wrote {out_path}");

    // Human-readable curve with empirical log-log exponents between
    // consecutive sizes (source data for docs/SCALING.md).
    println!("records    build_ms  resolve_ms  comparisons   rss_mb  b_exp  r_exp");
    for (i, r) in rows.iter().enumerate() {
        let (b_exp, r_exp) = if i == 0 {
            (f64::NAN, f64::NAN)
        } else {
            let p = &rows[i - 1];
            (
                exponent(p.records, p.build_ns, r.records, r.build_ns),
                exponent(p.records, p.resolve_ns, r.records, r.resolve_ns),
            )
        };
        println!(
            "{:>7}  {:>9.1}  {:>10.1}  {:>11}  {:>7}  {:>5.2}  {:>5.2}",
            r.records,
            r.build_ns as f64 / 1e6,
            r.resolve_ns as f64 / 1e6,
            r.comparisons,
            r.vm_rss_kb / 1024,
            b_exp,
            r_exp,
        );
    }

    if let Some(base) = baseline {
        let mut drift = false;
        let mut checked = 0usize;
        for r in &rows {
            let Some(line) = baseline_row(&base, r.records) else {
                eprintln!("--check: size {} absent from baseline; skipped", r.records);
                continue;
            };
            checked += 1;
            let fresh = row_json(r);
            for key in CHECKED_COUNTS {
                let old = json_u64(line, key);
                let new = json_u64(&fresh, key);
                if old != new {
                    eprintln!(
                        "--check: {key}@{} drifted: baseline {} vs fresh {}",
                        r.records,
                        old.map_or_else(|| "<missing>".into(), |v| v.to_string()),
                        new.map_or_else(|| "<missing>".into(), |v| v.to_string()),
                    );
                    drift = true;
                }
            }
        }
        if drift {
            eprintln!("--check: decision counts drifted from the committed baseline");
            std::process::exit(1);
        }
        if checked == 0 {
            eprintln!("--check: no overlapping sizes between run and baseline");
            std::process::exit(1);
        }
        println!("--check: decision counts match the baseline at {checked} size(s)");
    }
}
