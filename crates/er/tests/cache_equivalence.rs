//! Equivalence of the cross-query decision memo and a cold one.
//!
//! An index memoizes pair comparison decisions across queries. These
//! properties pin that memo state never shows: over random dirty
//! corpora and *sequences* of overlapping point and range queries
//! sharing one Link Index — the exact shape the memo exists for — an
//! index whose memo carries over from query to query matches one whose
//! memo is cleared before every query (bit-identical DR sets, links,
//! and decision counts after every query of the sequence), across every
//! `WeightScheme`, both `EdgePruningScope`s, and several thread counts.
//! Frontier scans must also emit the pair sequence of an in-test oracle
//! that prunes against a fresh threshold sweep.

#![allow(clippy::field_reassign_with_default)] // config tweaks read clearer as assignments

use proptest::prelude::*;
use queryer_common::knobs::proptest_cases;
use queryer_common::PairSet;
use queryer_er::edge_pruning::{bulk_node_thresholds, EdgePruner, EpSeen};
use queryer_er::{
    DedupMetrics, EdgePruningScope, ErConfig, LinkIndex, MetaBlockingConfig, ResolveRequest,
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

fn build_table(rows: &[(Vec<usize>, Vec<usize>)]) -> Table {
    let mut t = Table::new("p", Schema::of_strings(&["id", "title", "venue"]));
    for (i, (a, b)) in rows.iter().enumerate() {
        let render = |words: &[usize]| {
            if words.is_empty() {
                Value::Null
            } else {
                let text: Vec<&str> = words.iter().map(|&w| VOCAB[w]).collect();
                Value::str(text.join(" "))
            }
        };
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

fn scope_of(s: usize) -> EdgePruningScope {
    if s.is_multiple_of(2) {
        EdgePruningScope::NodeCentric
    } else {
        EdgePruningScope::Global
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

fn cfg_with(
    scheme: WeightScheme,
    scope: EdgePruningScope,
    meta: MetaBlockingConfig,
    threads: usize,
) -> ErConfig {
    let mut cfg = ErConfig::default().with_meta(meta);
    cfg.weight_scheme = scheme;
    cfg.ep_scope = scope;
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
    let n = table.len() as RecordId;
    let mut links = Vec::with_capacity((n * n) as usize);
    for a in 0..n {
        for b in 0..n {
            links.push(li.are_linked(a, b));
        }
    }
    (traces, links)
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
        let idx = TableErIndex::build(
            &table,
            &cfg_with(
                scheme,
                EdgePruningScope::NodeCentric,
                MetaBlockingConfig::All,
                4,
            ),
        );
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

/// A bounded decision memo (CLOCK eviction) never changes a decision: a
/// capped index replays the uncapped index's query traces exactly, while
/// the memo stays under its entry budget after every query. A tiny cap
/// forces heavy eviction on the large parallel workload.
#[test]
fn capped_caches_identical_and_bounded() {
    let table = large_table(420);
    let all: Vec<RecordId> = (0..table.len() as RecordId).collect();
    let queries: Vec<&[RecordId]> = vec![&all[..5], &all[..300], &all[..], &all[..300], &all[..5]];
    let unbounded_cfg = cfg_with(
        WeightScheme::Ecbs,
        EdgePruningScope::NodeCentric,
        MetaBlockingConfig::All,
        4,
    );
    let mut capped_cfg = unbounded_cfg.clone();
    capped_cfg.decision_cache_cap = 256;

    let unbounded = TableErIndex::build(&table, &unbounded_cfg);
    let capped = TableErIndex::build(&table, &capped_cfg);
    let mut li_u = LinkIndex::new(table.len());
    let mut li_c = LinkIndex::new(table.len());
    for (i, qe) in queries.iter().enumerate() {
        let mut m_u = DedupMetrics::default();
        let mut m_c = DedupMetrics::default();
        let out_u = unbounded
            .run(ResolveRequest::records(&table, qe, &mut li_u).metrics(&mut m_u))
            .unwrap();
        let out_c = capped
            .run(ResolveRequest::records(&table, qe, &mut li_c).metrics(&mut m_c))
            .unwrap();
        assert_eq!(out_c.dr, out_u.dr, "query {i}");
        assert_eq!(out_c.new_links, out_u.new_links, "query {i}");
        assert_eq!(m_c.comparisons, m_u.comparisons, "query {i}");
        assert_eq!(m_c.candidate_pairs, m_u.candidate_pairs, "query {i}");
        assert_eq!(m_c.matches_found, m_u.matches_found, "query {i}");

        let (_, _, dec) = capped.resolve_cache_sizes();
        assert!(dec <= 256, "decision cache over budget: {dec}");
    }
    // The budget really bit: the unbounded run kept more entries.
    let (_, _, dec_u) = unbounded.resolve_cache_sizes();
    assert!(dec_u > 256, "cap must be exercised");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: proptest_cases(16),
        .. ProptestConfig::default()
    })]

    /// An entry-capped decision memo over random tables and query
    /// sequences: identical per-query traces and final links vs the
    /// unbounded index, with the memo at or under its budget after each
    /// query.
    #[test]
    fn capped_query_sequences_identical_to_unbounded(
        rows in rows(),
        spec in queries(),
        scheme in 0usize..3,
        meta in 0usize..2,
        dec_cap in 1usize..64,
        threads in 1usize..5,
    ) {
        let table = build_table(&rows);
        let qs = concrete_queries(&spec, table.len());
        let base = cfg_with(
            scheme_of(scheme),
            EdgePruningScope::NodeCentric,
            meta_of(meta),
            threads,
        );
        let mut capped_cfg = base.clone();
        capped_cfg.decision_cache_cap = dec_cap;

        let unbounded = TableErIndex::build(&table, &base);
        let want = run_sequence(&table, &unbounded, &qs, false);

        let capped = TableErIndex::build(&table, &capped_cfg);
        let mut li = LinkIndex::new(table.len());
        let mut traces = Vec::new();
        for qe in &qs {
            let mut m = DedupMetrics::default();
            let out = capped.run(ResolveRequest::records(&table, qe, &mut li).metrics(&mut m)).unwrap();
            traces.push(QueryTrace {
                dr: out.dr,
                new_links: out.new_links,
                comparisons: m.comparisons,
                candidate_pairs: m.candidate_pairs,
                matches_found: m.matches_found,
            });
            let (_, _, dec) = capped.resolve_cache_sizes();
            prop_assert!(dec <= dec_cap, "decision cache {} over cap {}", dec, dec_cap);
        }
        prop_assert_eq!(&traces, &want.0, "capped traces diverged");
        let n = table.len() as RecordId;
        let mut links = Vec::with_capacity((n * n) as usize);
        for a in 0..n {
            for b in 0..n {
                links.push(li.are_linked(a, b));
            }
        }
        prop_assert_eq!(&links, &want.1, "capped final links diverged");
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
        scope in 0usize..2,
        meta in 0usize..2,
        threads in 1usize..5,
    ) {
        let table = build_table(&rows);
        let qs = concrete_queries(&spec, table.len());
        let cfg = cfg_with(scheme_of(scheme), scope_of(scope), meta_of(meta), threads);
        let got = run_sequence(&table, &TableErIndex::build(&table, &cfg), &qs, false);
        let mut seq_cfg = cfg.clone();
        seq_cfg.threads = 1;
        let want = run_sequence(&table, &TableErIndex::build(&table, &seq_cfg), &qs, true);
        prop_assert_eq!(&got.0, &want.0, "query traces diverged (queries {:?})", &qs);
        prop_assert_eq!(&got.1, &want.1, "final links diverged");
    }

    /// Re-running the *same* sequence against the same cached index
    /// (fresh Link Index, hot memo) is served from the memo — zero
    /// decision misses on the node-centric path — and remains
    /// bit-identical to the cold run.
    #[test]
    fn warm_rerun_identical_and_served_from_cache(
        rows in rows(),
        spec in queries(),
        scheme in 0usize..3,
        meta in 0usize..2,
    ) {
        let table = build_table(&rows);
        let qs = concrete_queries(&spec, table.len());
        let cfg = cfg_with(
            scheme_of(scheme),
            EdgePruningScope::NodeCentric,
            meta_of(meta),
            1,
        );
        let idx = TableErIndex::build(&table, &cfg);
        let cold = run_sequence(&table, &idx, &qs, false);
        let mut li = LinkIndex::new(table.len());
        let mut warm_traces = Vec::new();
        for qe in &qs {
            let mut m = DedupMetrics::default();
            let out = idx.run(ResolveRequest::records(&table, qe, &mut li).metrics(&mut m)).unwrap();
            prop_assert_eq!(m.decision_cache_misses, 0, "decisions must all be hot");
            warm_traces.push(QueryTrace {
                dr: out.dr,
                new_links: out.new_links,
                comparisons: m.comparisons,
                candidate_pairs: m.candidate_pairs,
                matches_found: m.matches_found,
            });
        }
        prop_assert_eq!(&warm_traces, &cold.0, "warm rerun diverged from cold");
    }
}
