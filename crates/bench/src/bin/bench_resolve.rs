//! Pinned resolve-path smoke benchmark: runs a small, fixed-seed
//! deduplication workload and writes `BENCH_resolve.json` (median ns per
//! pipeline stage, comparison-execution throughput) so CI and future PRs
//! can track the hot-path trajectory. Unlike the Criterion benches this
//! is cheap enough to run on every push.
//!
//! Each repetition resolves the workload three times: a **cold** pass on
//! freshly cleared resolve caches (the numbers every previous PR
//! tracked), a **warm** pass — same query entities, fresh Link Index,
//! caches left hot — measuring what the cross-query resolve cache
//! (`QUERYER_EP_CACHE`) saves a repeated/overlapping query, and a
//! **governed** warm pass under a never-tripping `ResolveBudget`
//! (deadline + comparison cap + cancel token), measuring the overhead of
//! budget/cancel governance when it does nothing. Warm decision counts
//! must equal the cold ones (cache state never changes decisions), so
//! `--check` pins both; the governed pass asserts its counts in-process.
//!
//! A final **snapshot leg** persists the warm index + resolved Link
//! Index to a temp file, reopens it, and asserts the reopened index
//! serves the identical decision counts in-process — the crash-safe
//! persistence path exercised on the exact pinned workload.
//! `snapshot_write_ns_median` / `snapshot_open_ns_median` /
//! `snapshot_file_bytes` are informational: `index_build_ns` vs
//! `snapshot_open_ns_median` is the cold-start trade-off a deployment
//! tunes `QUERYER_SNAPSHOT` by.
//!
//! With `--ingest`, an extra leg runs a scripted insert → query →
//! compact → query sequence on a copy of the workload *after* all
//! pinned measurement: it times the delta apply, the first post-ingest
//! resolve and the compaction, and asserts in-process that links pinned
//! before compaction keep serving after it and that the compacted index
//! is decision-identical to a rebuild. `snapshot_breakeven` summarises
//! the open-vs-build cold-start trade-off.
//!
//! Usage: `bench_resolve [OUT_PATH] [--check] [--ingest]` (default
//! `BENCH_resolve.json` in the current directory). With `--check`, the
//! decision counts (cold `comparisons` / `candidate_pairs` /
//! `matches_found` plus their `warm_*` twins) of a pre-existing OUT_PATH
//! are captured before the run and diffed against the fresh results
//! afterwards; any drift exits non-zero. CI runs this against the
//! committed JSON, so decision regressions fail the build while timings
//! (which flake on shared runners) stay informational. The cache
//! hit-count fields are informational too: they vary legitimately across
//! `QUERYER_EP_CACHE` modes, and `--check` must stay green in every
//! mode. `QUERYER_BENCH_REPS` overrides the repetition count (default 7;
//! medians want an odd number).

use queryer_datagen::scholarly;
use queryer_er::{
    Affected, CancelToken, DedupMetrics, DeltaOp, ErConfig, LinkIndex, ResolveBudget,
    ResolveRequest, TableErIndex,
};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const RECORDS: usize = 2000;
const SEED: u64 = 99;

/// The decision counts `--check` pins (timings are never compared).
/// Warm counts are pinned to the same committed values as the cold ones:
/// the warm pass re-resolves the identical workload against a fresh Link
/// Index, so any divergence means cache state leaked into decisions.
const CHECKED_COUNTS: [&str; 6] = [
    "comparisons",
    "candidate_pairs",
    "matches_found",
    "warm_comparisons",
    "warm_candidate_pairs",
    "warm_matches_found",
];

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

fn main() {
    let mut out_path: Option<String> = None;
    let mut check = false;
    let mut ingest = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            "--ingest" => ingest = true,
            "--help" | "-h" => {
                println!("usage: bench_resolve [OUT_PATH] [--check] [--ingest]");
                return;
            }
            flag if flag.starts_with("--") => {
                // A typo'd flag must not silently become the output path
                // (it would skip the baseline diff and pass vacuously).
                eprintln!(
                    "unknown flag {flag}; usage: bench_resolve [OUT_PATH] [--check] [--ingest]"
                );
                std::process::exit(2);
            }
            path => {
                if out_path.replace(path.to_string()).is_some() {
                    eprintln!(
                        "more than one OUT_PATH given; usage: bench_resolve [OUT_PATH] [--check] [--ingest]"
                    );
                    std::process::exit(2);
                }
            }
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_resolve.json".to_string());
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
    let reps: usize = std::env::var("QUERYER_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);

    let ds = scholarly::dblp_scholar(RECORDS, SEED);
    let cfg = ErConfig::default();

    let build_start = Instant::now();
    let er = TableErIndex::build(&ds.table, &cfg);
    let build_ns = build_start.elapsed().as_nanos() as u64;

    let qe: Vec<u32> = (0..ds.table.len() as u32).collect();

    // Warmup (also verifies the workload finds links at all).
    {
        let mut li = LinkIndex::new(ds.table.len());
        let mut m = DedupMetrics::default();
        er.clear_ep_cache();
        let out = er
            .run(ResolveRequest::records(&ds.table, &qe, &mut li).metrics(&mut m))
            .expect("warmup resolve");
        assert!(m.comparisons > 0, "workload must execute comparisons");
        assert!(!out.dr.is_empty());
    }

    let stages_of = |m: &DedupMetrics| -> [Duration; 6] {
        [
            m.blocking,
            m.block_join,
            m.purging,
            m.filtering,
            m.edge_pruning,
            m.resolution,
        ]
    };
    let mut total_ns = Vec::with_capacity(reps);
    let mut warm_total_ns = Vec::with_capacity(reps);
    let mut governed_total_ns = Vec::with_capacity(reps);
    let mut stage_ns: [Vec<u64>; 6] = Default::default();
    let mut warm_stage_ns: [Vec<u64>; 6] = Default::default();
    let mut comp_per_sec = Vec::with_capacity(reps);
    let mut last = DedupMetrics::default();
    let mut last_warm = DedupMetrics::default();
    for _ in 0..reps {
        let mut li = LinkIndex::new(ds.table.len());
        let mut m = DedupMetrics::default();
        // Cold EP cache each rep: threshold computation is part of the
        // per-query cost the paper measures.
        er.clear_ep_cache();
        let t0 = Instant::now();
        er.run(ResolveRequest::records(&ds.table, &qe, &mut li).metrics(&mut m))
            .expect("cold resolve");
        total_ns.push(t0.elapsed().as_nanos() as u64);
        for (acc, d) in stage_ns.iter_mut().zip(stages_of(&m)) {
            acc.push(d.as_nanos() as u64);
        }
        let res_secs = m.resolution.as_secs_f64();
        comp_per_sec.push(if res_secs > 0.0 {
            (m.comparisons as f64 / res_secs) as u64
        } else {
            0
        });
        last = m;

        // Warm pass: the identical workload against a fresh Link Index
        // with the resolve caches left hot — the repeated/overlapping
        // query shape the cross-query cache exists for. Decision counts
        // must match the cold pass exactly.
        let mut li_warm = LinkIndex::new(ds.table.len());
        let mut mw = DedupMetrics::default();
        let t0 = Instant::now();
        er.run(ResolveRequest::records(&ds.table, &qe, &mut li_warm).metrics(&mut mw))
            .expect("warm resolve");
        warm_total_ns.push(t0.elapsed().as_nanos() as u64);
        for (acc, d) in warm_stage_ns.iter_mut().zip(stages_of(&mw)) {
            acc.push(d.as_nanos() as u64);
        }
        last_warm = mw;

        // Governed pass: the same warm workload under a budget that
        // never trips (far deadline, huge comparison cap, live but
        // uncancelled token) — measuring what governance costs when it
        // does nothing. Decisions must match the warm pass exactly: a
        // non-exhausted budget only splits comparison batches, and each
        // decision is a pure function of the pair.
        let budget = ResolveBudget::unlimited()
            .with_deadline(Duration::from_secs(24 * 3600))
            .with_max_comparisons(u64::MAX)
            .with_cancel(CancelToken::new());
        let mut li_gov = LinkIndex::new(ds.table.len());
        let mut mg = DedupMetrics::default();
        let t0 = Instant::now();
        let gov_out = er
            .run(
                ResolveRequest::records(&ds.table, &qe, &mut li_gov)
                    .budget(budget.clone())
                    .metrics(&mut mg),
            )
            .expect("governed resolve");
        governed_total_ns.push(t0.elapsed().as_nanos() as u64);
        assert!(gov_out.completion.is_complete(), "budget must not trip");
        assert_eq!(mg.comparisons, last_warm.comparisons);
        assert_eq!(mg.matches_found, last_warm.matches_found);
    }

    // Snapshot leg: persist the warm index + a resolved Link Index,
    // reopen it, and verify the opened index serves the build path's
    // exact decision counts. Write/open timings are informational (the
    // cold-start cost a snapshot saves is `index_build_ns` vs
    // `snapshot_open_ns_median`).
    let snap_dir = std::env::temp_dir().join(format!("qer-bench-snap-{}", std::process::id()));
    let snap_path = queryer_er::snapshot_path(&snap_dir, ds.table.name());
    let mut snap_li = LinkIndex::new(ds.table.len());
    let mut snap_m = DedupMetrics::default();
    er.run(ResolveRequest::records(&ds.table, &qe, &mut snap_li).metrics(&mut snap_m))
        .expect("snapshot-leg resolve");
    let mut snap_write_ns = Vec::with_capacity(reps);
    let mut snap_open_ns = Vec::with_capacity(reps);
    let mut snap_open_nocache_ns = Vec::with_capacity(reps);
    let mut opened = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        queryer_er::write_index_snapshot(&snap_path, &er, &snap_li, &ds.table)
            .expect("snapshot write");
        snap_write_ns.push(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        opened = Some(
            queryer_er::open_index_snapshot(&snap_path, &ds.table, &cfg).expect("snapshot open"),
        );
        snap_open_ns.push(t0.elapsed().as_nanos() as u64);
        // Caches-off open (the `QUERYER_SNAPSHOT_CACHES=off` variant):
        // skips decoding the warm-cache sections entirely — the
        // fastest-open / coldest-serve end of the snapshot trade-off.
        let t0 = Instant::now();
        let _ = queryer_er::open_index_snapshot_with_caches(&snap_path, &ds.table, &cfg, false)
            .expect("snapshot open without caches");
        snap_open_nocache_ns.push(t0.elapsed().as_nanos() as u64);
    }
    let snapshot_file_bytes = std::fs::metadata(&snap_path).map(|m| m.len()).unwrap_or(0);
    let (snap_er, _snap_li) = opened.expect("at least one rep");
    let mut li_snap = LinkIndex::new(ds.table.len());
    let mut ms = DedupMetrics::default();
    snap_er
        .run(ResolveRequest::records(&ds.table, &qe, &mut li_snap).metrics(&mut ms))
        .expect("resolve on reopened snapshot");
    assert_eq!(ms.comparisons, last_warm.comparisons);
    assert_eq!(ms.candidate_pairs, last_warm.candidate_pairs);
    assert_eq!(ms.matches_found, last_warm.matches_found);
    std::fs::remove_dir_all(&snap_dir).ok();
    let snapshot_write = median_ns(snap_write_ns);
    let snapshot_open = median_ns(snap_open_ns);
    let snapshot_open_nocache = median_ns(snap_open_nocache_ns);

    // Ingest leg (`--ingest`): a scripted insert → query → compact →
    // query sequence on a *copy* of the workload, run after all pinned
    // measurement so it cannot disturb the gated legs. It times the
    // delta apply, the first post-ingest resolve, and the compaction,
    // and asserts in-process that (a) links pinned before compaction
    // keep serving afterwards (the re-resolve does zero comparisons)
    // and (b) the compacted index equals a fresh build of the mutated
    // table in every decision count.
    const INGEST_OPS: usize = 64;
    let ingest_leg = if ingest {
        let mut table = ds.table.clone();
        let mut live = TableErIndex::build(&table, &cfg);
        let mut li = LinkIndex::new(table.len());
        let mut m0 = DedupMetrics::default();
        live.run(ResolveRequest::all(&table, &mut li).metrics(&mut m0))
            .expect("pre-ingest resolve");
        assert_eq!(m0.comparisons, last.comparisons, "pre-ingest leg drifted");

        // Insert: near-duplicates of a deterministic spread of rows.
        let ops: Vec<DeltaOp> = (0..INGEST_OPS)
            .map(|i| DeltaOp::Insert {
                values: table
                    .record((i * 37 % RECORDS) as u32)
                    .expect("source row")
                    .values
                    .clone(),
            })
            .collect();
        for op in &ops {
            op.apply_to_table(&mut table).expect("apply op to table");
        }
        let t0 = Instant::now();
        let applied = live.apply_delta(&table, &ops).expect("apply_delta");
        let apply_ns = t0.elapsed().as_nanos() as u64;
        match &applied.affected {
            Affected::Ids(ids) => {
                li.grow(table.len());
                li.invalidate(ids);
            }
            Affected::All => li = LinkIndex::new(table.len()),
        }

        // Query: the maintained Link Index re-resolves only what the
        // batch invalidated.
        let mut m1 = DedupMetrics::default();
        let t0 = Instant::now();
        live.run(ResolveRequest::all(&table, &mut li).metrics(&mut m1))
            .expect("post-ingest resolve");
        let post_ingest_ns = t0.elapsed().as_nanos() as u64;

        // Compact, then query again: pinned decisions must survive.
        let t0 = Instant::now();
        live.compact(&table).expect("compact");
        let compact_ns = t0.elapsed().as_nanos() as u64;
        assert!(!live.has_delta(), "compact must clear the delta side");
        let mut m2 = DedupMetrics::default();
        live.run(ResolveRequest::all(&table, &mut li).metrics(&mut m2))
            .expect("post-compact resolve");
        assert_eq!(
            m2.comparisons, 0,
            "links pinned before compaction must keep serving after it"
        );

        // And the compacted index is decision-identical to a rebuild.
        let oracle = TableErIndex::build(&table, &cfg);
        let (mut li_a, mut li_b) = (LinkIndex::new(table.len()), LinkIndex::new(table.len()));
        let (mut ma, mut mb) = (DedupMetrics::default(), DedupMetrics::default());
        live.run(ResolveRequest::all(&table, &mut li_a).metrics(&mut ma))
            .expect("compacted resolve");
        oracle
            .run(ResolveRequest::all(&table, &mut li_b).metrics(&mut mb))
            .expect("oracle resolve");
        assert_eq!(
            ma.comparisons, mb.comparisons,
            "compacted comparisons drifted"
        );
        assert_eq!(
            ma.matches_found, mb.matches_found,
            "compacted matches drifted"
        );
        Some((apply_ns, post_ingest_ns, compact_ns, m1))
    } else {
        None
    };

    // `comparison_execution` is `DedupMetrics::resolution` ("Resolution"
    // in the paper's Table 6) — named here for the pipeline stage it
    // times, since it is the stage the kernel work targets.
    let names = [
        "blocking",
        "block_join",
        "purging",
        "filtering",
        "edge_pruning",
        "comparison_execution",
    ];
    let stage_medians: Vec<u64> = stage_ns.into_iter().map(median_ns).collect();
    let warm_stage_medians: Vec<u64> = warm_stage_ns.into_iter().map(median_ns).collect();
    let stages_json_of = |medians: &[u64]| {
        let mut out = String::new();
        for (i, (name, ns)) in names.iter().zip(medians).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {ns}");
        }
        out
    };
    let stages_json = stages_json_of(&stage_medians);
    let warm_stages_json = stages_json_of(&warm_stage_medians);
    let cold_total = median_ns(total_ns);
    let warm_total = median_ns(warm_total_ns);
    let governed_total = median_ns(governed_total_ns);

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"dataset\": \"dblp_scholar\", \"records\": {RECORDS}, \"seed\": {SEED}, \"qe\": \"all\"}},"
    );
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"ep_cache_mode\": \"{}\",", cfg.ep_cache.label());
    let _ = writeln!(json, "  \"index_build_ns\": {build_ns},");
    let _ = writeln!(json, "  \"resolve_total_ns_median\": {cold_total},");
    let _ = writeln!(json, "  \"stages_ns_median\": {{{stages_json}}},");
    let _ = writeln!(json, "  \"comparisons\": {},", last.comparisons);
    let _ = writeln!(json, "  \"candidate_pairs\": {},", last.candidate_pairs);
    let _ = writeln!(json, "  \"matches_found\": {},", last.matches_found);
    let _ = writeln!(json, "  \"resolve_warm_total_ns_median\": {warm_total},");
    let _ = writeln!(json, "  \"stages_warm_ns_median\": {{{warm_stages_json}}},");
    let _ = writeln!(json, "  \"warm_comparisons\": {},", last_warm.comparisons);
    let _ = writeln!(
        json,
        "  \"warm_candidate_pairs\": {},",
        last_warm.candidate_pairs
    );
    let _ = writeln!(
        json,
        "  \"warm_matches_found\": {},",
        last_warm.matches_found
    );
    let _ = writeln!(
        json,
        "  \"warm_ep_cache_hits\": {},",
        last_warm.ep_cache_hits
    );
    let _ = writeln!(
        json,
        "  \"warm_decision_cache_hits\": {},",
        last_warm.decision_cache_hits
    );
    let _ = writeln!(json, "  \"snapshot_write_ns_median\": {snapshot_write},");
    let _ = writeln!(json, "  \"snapshot_open_ns_median\": {snapshot_open},");
    let _ = writeln!(
        json,
        "  \"snapshot_open_nocache_ns_median\": {snapshot_open_nocache},"
    );
    let _ = writeln!(json, "  \"snapshot_file_bytes\": {snapshot_file_bytes},");
    // The cold-start trade-off in one field: does opening the snapshot
    // beat rebuilding the index from the table? Informational — at this
    // small pinned scale the build often wins; the crossover is the
    // point of the scale curve in BENCH_scale.json.
    let _ = writeln!(
        json,
        "  \"snapshot_breakeven\": {{\"index_build_ns\": {build_ns}, \
         \"snapshot_open_ns_median\": {snapshot_open}, \"open_is_faster\": {}}},",
        snapshot_open < build_ns
    );
    if let Some((apply_ns, post_ingest_ns, compact_ns, m1)) = &ingest_leg {
        let _ = writeln!(
            json,
            "  \"ingest\": {{\"ops\": {INGEST_OPS}, \"apply_ns\": {apply_ns}, \
             \"post_ingest_resolve_ns\": {post_ingest_ns}, \"compact_ns\": {compact_ns}, \
             \"post_ingest_comparisons\": {}, \"post_ingest_matches\": {}}},",
            m1.comparisons, m1.matches_found
        );
    }
    let _ = writeln!(
        json,
        "  \"governed_warm_total_ns_median\": {governed_total},"
    );
    let _ = writeln!(
        json,
        "  \"comparisons_per_sec_median\": {}",
        median_ns(comp_per_sec)
    );
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_resolve.json");
    println!("{json}");
    println!("wrote {out_path}");

    // Warm-over-cold speedups (informational — timings are never gated).
    let speedup = |cold: u64, warm: u64| {
        if warm > 0 {
            cold as f64 / warm as f64
        } else {
            f64::INFINITY
        }
    };
    println!(
        "warm speedup: total {:.2}x, edge_pruning {:.2}x, comparison_execution {:.2}x",
        speedup(cold_total, warm_total),
        speedup(stage_medians[4], warm_stage_medians[4]),
        speedup(stage_medians[5], warm_stage_medians[5]),
    );
    // Budget/cancel governance overhead on the warm workload
    // (informational): the governed pass carries a deadline, comparison
    // cap and cancel token that never trip, so this is the pure cost of
    // the polls and batch splits.
    // Snapshot economics (informational): open-vs-build is the cold
    // start a snapshot trades for write-time fsyncs. At this small
    // pinned scale the build is cheap enough that opening (which also
    // restores the warm caches) can cost more than building cold.
    println!(
        "snapshot: write {snapshot_write} ns, open {snapshot_open} ns \
         (caches off: {snapshot_open_nocache} ns), build {build_ns} ns, \
         file {snapshot_file_bytes} bytes, breakeven: open {} build",
        if snapshot_open < build_ns {
            "beats"
        } else {
            "loses to"
        },
    );
    if let Some((apply_ns, post_ingest_ns, compact_ns, _)) = &ingest_leg {
        println!(
            "ingest: {INGEST_OPS} inserts applied in {apply_ns} ns, \
             post-ingest resolve {post_ingest_ns} ns, compact {compact_ns} ns \
             (pinned links survived compaction: post-compact resolve did 0 comparisons)",
        );
    }
    println!(
        "governance overhead (warm): {:+.1}% ({} ns vs {} ns)",
        if warm_total > 0 {
            (governed_total as f64 / warm_total as f64 - 1.0) * 100.0
        } else {
            0.0
        },
        governed_total,
        warm_total,
    );

    if let Some(base) = baseline {
        let mut drift = false;
        for key in CHECKED_COUNTS {
            let old = json_u64(&base, key);
            let new = json_u64(&json, key);
            if old != new {
                eprintln!(
                    "--check: {key} drifted: baseline {} vs fresh {}",
                    old.map_or_else(|| "<missing>".into(), |v| v.to_string()),
                    new.map_or_else(|| "<missing>".into(), |v| v.to_string()),
                );
                drift = true;
            }
        }
        if drift {
            eprintln!("--check: decision counts drifted from the committed baseline");
            std::process::exit(1);
        }
        println!("--check: decision counts match the baseline");
    }
}
