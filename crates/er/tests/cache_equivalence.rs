//! Equivalence of the cross-query decision memo and a cold one.
//!
//! An index memoizes the comparison decisions of pairs with a *stale*
//! endpoint — a record a write un-resolved in the Link Index — since
//! only those are asked again: a pair with a resolved endpoint is
//! decided by the Link Index, and a pair of two never-resolved records
//! is new. These properties pin that memo state never shows: over
//! random dirty corpora and *sessions* of overlapping point and range
//! queries interleaved with `apply_delta` writes and
//! `LinkIndex::invalidate` calls — the shape the memo exists for — an
//! index whose memo carries over matches one whose memo is cleared
//! before every query, and one built from scratch for every query
//! (bit-identical DR sets, links, and decision counts after every
//! query), across every `WeightScheme` and several thread counts. A second re-ask after a write is served from
//! the memo. The memo needs no cap: after every query it holds no more
//! entries than the kernel runs since the index was built or compacted,
//! and a compaction empties it. Frontier scans must also emit the pair
//! sequence of an in-test oracle that prunes against a fresh threshold
//! sweep.

#![allow(clippy::field_reassign_with_default)] // config tweaks read clearer as assignments

use proptest::prelude::*;
use queryer_common::knobs::proptest_cases;
use queryer_common::PairSet;
use queryer_er::edge_pruning::{bulk_node_thresholds, EdgePruner, EpSeen};
use queryer_er::{
    Affected, DedupMetrics, DeltaOp, ErConfig, LinkIndex, MetaBlockingConfig, ResolveRequest,
    TableErIndex, WeightScheme,
};
use queryer_storage::{RecordId, Schema, Table, Value};

/// Small vocabulary so random records actually share blocking tokens.
const VOCAB: [&str; 12] = [
    "entity",
    "resolution",
    "collective",
    "query",
    "driven",
    "deep",
    "learning",
    "data",
    "big",
    "edbt",
    "vldb",
    "2008",
];

fn cell() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..VOCAB.len(), 0..4)
}

fn rows() -> impl Strategy<Value = Vec<(Vec<usize>, Vec<usize>)>> {
    proptest::collection::vec((cell(), cell()), 2..24)
}

/// A query sequence: each element becomes a point query (`true`) or an
/// inclusive range query over the table, both taken modulo table size —
/// adjacent queries overlap freely.
fn queries() -> impl Strategy<Value = Vec<(bool, usize, usize)>> {
    proptest::collection::vec((any::<bool>(), 0usize..64, 0usize..64), 1..6)
}

fn render(words: &[usize]) -> Value {
    if words.is_empty() {
        Value::Null
    } else {
        let text: Vec<&str> = words.iter().map(|&w| VOCAB[w]).collect();
        Value::str(text.join(" "))
    }
}

fn build_table(rows: &[(Vec<usize>, Vec<usize>)]) -> Table {
    let mut t = Table::new("p", Schema::of_strings(&["id", "title", "venue"]));
    for (i, (a, b)) in rows.iter().enumerate() {
        t.push_row(vec![format!("{i}").into(), render(a), render(b)])
            .unwrap();
    }
    t
}

fn scheme_of(w: usize) -> WeightScheme {
    match w % 3 {
        0 => WeightScheme::Cbs,
        1 => WeightScheme::Ecbs,
        _ => WeightScheme::Js,
    }
}

fn meta_of(m: usize) -> MetaBlockingConfig {
    // Only the EP-running configs matter here.
    if m.is_multiple_of(2) {
        MetaBlockingConfig::All
    } else {
        MetaBlockingConfig::BpEp
    }
}

fn cfg_with(scheme: WeightScheme, meta: MetaBlockingConfig, threads: usize) -> ErConfig {
    let mut cfg = ErConfig::default().with_meta(meta);
    cfg.weight_scheme = scheme;
    cfg.threads = threads;
    cfg
}

/// Node-centric EP from public accessors alone: every neighbourhood
/// weighted by `EdgePruner`, every threshold from a fresh sweep (not
/// the index's stored vector), an edge kept when either endpoint's
/// threshold admits it, each pair emitted once in frontier order.
fn oracle_pairs(idx: &TableErIndex, frontier: &[RecordId]) -> Vec<(RecordId, RecordId)> {
    let th = bulk_node_thresholds(idx, 1).unwrap();
    let keeps = |w: f64, t: f64| w + 1e-12 >= t;
    let mut pruner = EdgePruner::new(idx);
    let mut seen = PairSet::new();
    let mut out = Vec::new();
    for &q in frontier {
        for (c, w) in pruner.neighborhood(q) {
            if (keeps(w, th[q as usize]) || keeps(w, th[c as usize])) && seen.insert(q, c) {
                out.push((q, c));
            }
        }
    }
    out
}

/// Materialized query list for one table: point queries as singletons,
/// range queries as inclusive id runs, everything modulo table size.
fn concrete_queries(spec: &[(bool, usize, usize)], n: usize) -> Vec<Vec<RecordId>> {
    spec.iter()
        .map(|&(point, a, b)| {
            let a = a % n;
            if point {
                vec![a as RecordId]
            } else {
                let b = b % n;
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                (lo..=hi).map(|r| r as RecordId).collect()
            }
        })
        .collect()
}

/// Per-query observable outcome: DR set, links added, and the decision
/// counts of the metrics delta.
#[derive(Debug, Clone, PartialEq, Eq)]
struct QueryTrace {
    dr: Vec<RecordId>,
    new_links: usize,
    comparisons: u64,
    candidate_pairs: u64,
    matches_found: u64,
}

/// Applies `op` to `table` and to every index in `idxs`, returning the
/// first index's invalidation scope.
fn write(table: &mut Table, idxs: &mut [&mut TableErIndex], op: DeltaOp) -> Affected {
    op.apply_to_table(table).unwrap();
    let ops = [op];
    let mut affected = None;
    for idx in idxs.iter_mut() {
        let applied = idx.apply_delta(table, &ops).unwrap();
        affected.get_or_insert(applied.affected);
    }
    affected.unwrap()
}

fn link_matrix(li: &LinkIndex, n: usize) -> Vec<bool> {
    let n = n as RecordId;
    let mut links = Vec::with_capacity((n * n) as usize);
    for a in 0..n {
        for b in 0..n {
            links.push(li.are_linked(a, b));
        }
    }
    links
}

/// Runs a query sequence over one shared Link Index and returns per-query
/// traces plus the final link matrix. With `cold`, the index's decision
/// memo is cleared before every query.
fn run_sequence(
    table: &Table,
    idx: &TableErIndex,
    queries: &[Vec<RecordId>],
    cold: bool,
) -> (Vec<QueryTrace>, Vec<bool>) {
    let mut li = LinkIndex::new(table.len());
    let mut traces = Vec::with_capacity(queries.len());
    for qe in queries {
        if cold {
            idx.clear_ep_cache();
        }
        let mut m = DedupMetrics::default();
        let out = idx
            .run(ResolveRequest::records(table, qe, &mut li).metrics(&mut m))
            .unwrap();
        traces.push(QueryTrace {
            dr: out.dr,
            new_links: out.new_links,
            comparisons: m.comparisons,
            candidate_pairs: m.candidate_pairs,
            matches_found: m.matches_found,
        });
    }
    (traces, link_matrix(&li, table.len()))
}

/// A deterministic pseudo-random table large enough (> the resolver's
/// parallel-scan cutoff of 256) that the scan takes its parallel
/// survivor-fill branch, which the small proptest corpora never reach.
fn large_table(n: usize) -> Table {
    let mut t = Table::new("p", Schema::of_strings(&["id", "title", "venue"]));
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..n {
        let words: Vec<&str> = (0..1 + (next() as usize % 3))
            .map(|_| VOCAB[next() as usize % VOCAB.len()])
            .collect();
        let venue = VOCAB[9 + (next() as usize % 3)];
        t.push_row(vec![
            format!("{i}").into(),
            Value::str(words.join(" ")),
            Value::str(venue),
        ])
        .unwrap();
    }
    t
}

/// Frontier scans — including the parallel survivor fill — emit exactly
/// the oracle's pair sequence, for every weight scheme, and a second
/// scan of the same frontier emits it again.
#[test]
fn parallel_memo_scan_matches_oracle() {
    let table = large_table(420);
    let all: Vec<RecordId> = (0..table.len() as RecordId).collect();
    for scheme in [WeightScheme::Cbs, WeightScheme::Ecbs, WeightScheme::Js] {
        let idx = TableErIndex::build(&table, &cfg_with(scheme, MetaBlockingConfig::All, 4));
        for frontier in [&all[..5], &all[..300], &all[..]] {
            let want = oracle_pairs(&idx, frontier);
            idx.clear_ep_cache();
            let (mut seen_cold, mut seen_warm) = (EpSeen::new(), EpSeen::new());
            let cold = idx
                .try_edge_pruned_pairs(frontier, &mut seen_cold, &mut DedupMetrics::default())
                .expect("edge pruning");
            let warm = idx
                .try_edge_pruned_pairs(frontier, &mut seen_warm, &mut DedupMetrics::default())
                .expect("edge pruning");
            let case = format!("scheme {scheme:?} frontier {}", frontier.len());
            assert_eq!(cold, want, "cold vs oracle, {case}");
            assert_eq!(warm, want, "warm vs oracle, {case}");
            if frontier.len() == all.len() {
                assert!(!want.is_empty(), "workload must generate pairs");
            }
        }
    }
}

/// One session step: `(kind, a, b, title, venue)`, ids modulo the
/// table size. Kinds 0–3 query ids `a..=b` (a point query when they
/// meet), 4 un-resolves them in the Link Index alone, 5 inserts a row
/// (a copy of row `a` when `title` is empty), 6 updates row `a`, 7
/// deletes it, and 8 compacts the index.
type StepSpec = (usize, usize, usize, Vec<usize>, Vec<usize>);

fn steps() -> impl Strategy<Value = Vec<StepSpec>> {
    proptest::collection::vec((0usize..9, 0usize..64, 0usize..64, cell(), cell()), 1..12)
}

/// How a session serves its queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Serve {
    /// One live index; its memo carries from query to query.
    Carried,
    /// The live index with its memo cleared before every query.
    Cold,
    /// A from-scratch build of the current table for every query.
    Fresh,
}

/// Runs a session of queries and writes over a copy of `table` with one
/// shared Link Index, maintained by the engine's rule after each write,
/// and returns the per-query traces and the final link matrix. After
/// every query the serving index's memo holds at most one entry per
/// kernel run since that index was built or compacted, and after every
/// compaction it is empty.
fn run_session(
    table: &Table,
    cfg: &ErConfig,
    steps: &[StepSpec],
    serve: Serve,
) -> (Vec<QueryTrace>, Vec<bool>) {
    let mut table = table.clone();
    let mut idx = TableErIndex::build(&table, cfg);
    let mut li = LinkIndex::new(table.len());
    let mut traces = Vec::new();
    let mut kernel_runs = 0;
    for (kind, a, b, title, venue) in steps {
        let n = table.len();
        let (a, b) = (a % n, b % n);
        let ids: Vec<RecordId> = (a.min(b)..=a.max(b)).map(|r| r as RecordId).collect();
        let op = match kind {
            0..=3 => {
                let fresh;
                let served = match serve {
                    Serve::Carried => &idx,
                    Serve::Cold => {
                        idx.clear_ep_cache();
                        &idx
                    }
                    Serve::Fresh => {
                        fresh = TableErIndex::build(&table, cfg);
                        kernel_runs = 0;
                        &fresh
                    }
                };
                let mut m = DedupMetrics::default();
                let out = served
                    .run(ResolveRequest::records(&table, &ids, &mut li).metrics(&mut m))
                    .unwrap();
                traces.push(QueryTrace {
                    dr: out.dr,
                    new_links: out.new_links,
                    comparisons: m.comparisons,
                    candidate_pairs: m.candidate_pairs,
                    matches_found: m.matches_found,
                });
                kernel_runs += m.decision_cache_misses;
                let memo = served.resolve_cache_sizes().2;
                assert!(
                    memo as u64 <= kernel_runs,
                    "memo of {memo} entries after {kernel_runs} kernel runs (steps {steps:?})"
                );
                continue;
            }
            4 => {
                li.invalidate(&ids);
                continue;
            }
            8 => {
                idx.compact(&table).unwrap();
                assert_eq!(
                    idx.resolve_cache_sizes().2,
                    0,
                    "compaction empties the memo"
                );
                kernel_runs = 0;
                continue;
            }
            5 if title.is_empty() => DeltaOp::Insert {
                values: table.record(a as RecordId).unwrap().values.clone(),
            },
            5 => DeltaOp::Insert {
                values: vec![format!("{n}").into(), render(title), render(venue)],
            },
            6 => DeltaOp::Update {
                id: a as RecordId,
                values: vec![format!("{a}").into(), render(title), render(venue)],
            },
            _ => DeltaOp::Delete { id: a as RecordId },
        };
        let affected = write(&mut table, &mut [&mut idx], op);
        li.follow_write(table.len(), &affected);
    }
    (traces, link_matrix(&li, table.len()))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: proptest_cases(16),
        .. ProptestConfig::default()
    })]

    /// Sessions of overlapping point + range queries interleaved with
    /// `apply_delta` writes, Link-Index invalidations and compactions
    /// produce identical per-query DR sets, links, and decision counts
    /// whether the memo carries over between queries (at `threads`
    /// workers), starts cold before every query, or every query is
    /// served by a from-scratch build of the current table (both
    /// sequentially). The memo stays within its bound throughout.
    #[test]
    fn write_interleaved_sessions_identical_with_cold_memos_and_fresh_builds(
        rows in rows(),
        steps in steps(),
        scheme in 0usize..3,
        meta in 0usize..2,
        threads in 1usize..5,
    ) {
        let table = build_table(&rows);
        let cfg = cfg_with(scheme_of(scheme), meta_of(meta), threads);
        let got = run_session(&table, &cfg, &steps, Serve::Carried);
        let mut seq_cfg = cfg.clone();
        seq_cfg.threads = 1;
        for serve in [Serve::Cold, Serve::Fresh] {
            let want = run_session(&table, &seq_cfg, &steps, serve);
            prop_assert_eq!(&got.0, &want.0, "{:?}: query traces diverged (steps {:?})", serve, &steps);
            prop_assert_eq!(&got.1, &want.1, "{:?}: final links diverged", serve);
        }
    }

    /// Sequences of overlapping point + range queries produce identical
    /// per-query DR sets, links, and decision counts whether the memo
    /// carries over between queries (at `threads` workers) or starts
    /// cold before every query (sequentially) — later queries served
    /// from memoized decisions may not change a single observable.
    #[test]
    fn query_sequences_identical_with_cold_memos(
        rows in rows(),
        spec in queries(),
        scheme in 0usize..3,
        meta in 0usize..2,
        threads in 1usize..5,
    ) {
        let table = build_table(&rows);
        let qs = concrete_queries(&spec, table.len());
        let cfg = cfg_with(scheme_of(scheme), meta_of(meta), threads);
        let got = run_sequence(&table, &TableErIndex::build(&table, &cfg), &qs, false);
        let mut seq_cfg = cfg.clone();
        seq_cfg.threads = 1;
        let want = run_sequence(&table, &TableErIndex::build(&table, &seq_cfg), &qs, true);
        prop_assert_eq!(&got.0, &want.0, "query traces diverged (queries {:?})", &qs);
        prop_assert_eq!(&got.1, &want.1, "final links diverged");
    }

    /// Without writes the memo stays empty. Re-running the *same*
    /// sequence after a write that un-resolves every record goes
    /// through the memo and is bit-identical to the first run; after
    /// the next such write, the second re-run is served from it —
    /// zero decision misses.
    #[test]
    fn warm_rerun_identical_and_served_from_cache(
        rows in rows(),
        spec in queries(),
        scheme in 0usize..3,
        meta in 0usize..2,
    ) {
        let mut table = build_table(&rows);
        let qs = concrete_queries(&spec, table.len());
        let cfg = cfg_with(scheme_of(scheme), meta_of(meta), 1);
        let mut idx = TableErIndex::build(&table, &cfg);
        let cold = run_sequence(&table, &idx, &qs, false);
        prop_assert_eq!(idx.resolve_cache_sizes(), (0, 0, 0), "no write, no memo");
        let mut li = LinkIndex::new(table.len());
        for pass in 0..3 {
            if pass > 0 {
                // A write that moves no decision (an all-NULL row joins
                // no block), then every record un-resolved.
                let null_row = DeltaOp::Insert { values: vec![Value::Null; 3] };
                let affected = write(&mut table, &mut [&mut idx], null_row);
                li.follow_write(table.len(), &affected);
                li.invalidate_all();
            }
            let mut traces = Vec::new();
            for qe in &qs {
                let mut m = DedupMetrics::default();
                let out = idx.run(ResolveRequest::records(&table, qe, &mut li).metrics(&mut m)).unwrap();
                if pass == 2 {
                    prop_assert_eq!(m.decision_cache_misses, 0, "decisions must all be hot");
                }
                traces.push(QueryTrace {
                    dr: out.dr,
                    new_links: out.new_links,
                    comparisons: m.comparisons,
                    candidate_pairs: m.candidate_pairs,
                    matches_found: m.matches_found,
                });
            }
            prop_assert_eq!(&traces, &cold.0, "pass {} diverged from cold", pass);
        }
    }
}
