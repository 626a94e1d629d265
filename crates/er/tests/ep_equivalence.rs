//! Edge Pruning is one algorithm whatever feeds it.
//!
//! Node-centric pruning has one enumerator, which counts each frontier
//! node's neighbourhood and reads the thresholds the build swept,
//! sequentially or fanned out across worker threads. These properties
//! pin that down over random dirty corpora: the threshold sweep — and
//! the vector the build stored — is bit-equal to a plain in-test
//! mean-of-weights oracle at every thread count, and an index at 1..8
//! threads emits the identical candidate pair sequence as a sequential
//! one for every frontier size from 1 to the whole table — and hence
//! identical DR sets / links / metrics counts after a full resolve —
//! across every `WeightScheme` and both `EdgePruningScope`s.

#![allow(clippy::field_reassign_with_default)] // config tweaks read clearer as assignments

use proptest::prelude::*;
use queryer_common::knobs::proptest_cases;
use queryer_common::PairSet;
use queryer_er::edge_pruning::{bulk_node_thresholds, EdgePruner};
use queryer_er::{
    CooccurrenceScratch, DedupMetrics, EdgePruningScope, ErConfig, LinkIndex, MetaBlockingConfig,
    ResolveRequest, TableErIndex, WeightScheme,
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

/// Builds two indexes over the same table: one with `threads` workers
/// and the sequential reference.
fn build_pair(
    table: &Table,
    scheme: WeightScheme,
    scope: EdgePruningScope,
    meta: MetaBlockingConfig,
    threads: usize,
) -> (TableErIndex, TableErIndex) {
    let mut par_cfg = ErConfig::default().with_meta(meta);
    par_cfg.weight_scheme = scheme;
    par_cfg.ep_scope = scope;
    par_cfg.threads = threads;
    let mut seq_cfg = par_cfg.clone();
    seq_cfg.threads = 1;
    (
        TableErIndex::build(table, &par_cfg),
        TableErIndex::build(table, &seq_cfg),
    )
}

/// The oracle the threshold sweep is pinned to: a node's threshold is the
/// mean weight of its edges, neighbourhood counted from the blocking
/// graph, accumulated in first-touch order (0 when isolated).
fn oracle_threshold(idx: &TableErIndex, e: RecordId) -> f64 {
    let pruner = EdgePruner::new(idx);
    let mut scratch = CooccurrenceScratch::new();
    let nbh = idx.cooccurrences_into(e, &mut scratch);
    if nbh.is_empty() {
        return 0.0;
    }
    let mut sum = 0.0f64;
    for &(other, cbs) in nbh {
        sum += pruner.weight(e, other, cbs);
    }
    sum / nbh.len() as f64
}

/// `try_edge_pruned_pairs` without the hit/miss accounting.
fn pairs_of(
    idx: &TableErIndex,
    frontier: &[RecordId],
    seen: &mut PairSet,
) -> Vec<(RecordId, RecordId)> {
    idx.try_edge_pruned_pairs(frontier, seen, &mut DedupMetrics::default())
        .expect("edge pruning")
}

/// A deterministic pseudo-random table large enough (> the resolver's
/// parallel cutoff of 256) that a broad frontier actually takes the
/// multi-threaded survivor fill / frontier scan, which the small
/// proptest corpora never reach.
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

/// The three frontier shapes — point query (frontier well under
/// `n_records`/32), sequential broad frontier, and the parallel fan-out
/// (frontier ≥ 256 with several workers) — all emit exactly the
/// sequential index's pair sequence, for both EP scopes.
#[test]
fn parallel_frontier_scan_matches_sequential() {
    let table = large_table(420);
    let all: Vec<RecordId> = (0..table.len() as RecordId).collect();
    for scope in [EdgePruningScope::NodeCentric, EdgePruningScope::Global] {
        for scheme in [WeightScheme::Cbs, WeightScheme::Ecbs, WeightScheme::Js] {
            let (par_idx, seq_idx) = build_pair(&table, scheme, scope, MetaBlockingConfig::All, 4);
            for frontier in [&all[..5], &all[..300], &all[..]] {
                let pairs_par = pairs_of(&par_idx, frontier, &mut PairSet::new());
                let pairs_seq = pairs_of(&seq_idx, frontier, &mut PairSet::new());
                assert_eq!(
                    pairs_par,
                    pairs_seq,
                    "scope {scope:?} scheme {scheme:?} frontier {}",
                    frontier.len()
                );
                if frontier.len() == all.len() {
                    assert!(!pairs_par.is_empty(), "workload must generate pairs");
                }
            }
        }
    }
}

/// The enumerator's resolve-all fast path — rank-ownership dedup with
/// no per-surviving-edge `PairSet` insert — emits the exact pair
/// sequence of the insert-probing loop, on cold and warm memos,
/// sequentially and across the parallel fan-out. Seeding the carried set with the self-pair
/// `(0, 0)` forces the insert-probing loop (a non-empty `pair_seen`
/// disables the fast path) without perturbing output, since EP
/// survivor lists never contain self-pairs.
#[test]
fn resolve_all_fast_path_matches_insert_probing() {
    let table = large_table(420);
    let all: Vec<RecordId> = (0..table.len() as RecordId).collect();
    for scheme in [WeightScheme::Cbs, WeightScheme::Ecbs, WeightScheme::Js] {
        for threads in [1usize, 4] {
            let mut cfg = ErConfig::default().with_meta(MetaBlockingConfig::All);
            cfg.weight_scheme = scheme;
            cfg.threads = threads;
            let idx = TableErIndex::build(&table, &cfg);
            // The first pass starts on empty memos, the second replays them.
            for pass in ["cold", "warm"] {
                let case = format!("scheme {scheme:?} threads {threads} {pass}");

                let mut fresh = PairSet::new();
                let fast = pairs_of(&idx, &all, &mut fresh);
                // The fast path performs no inserts — an empty carried
                // set after a full-table scan proves it actually ran
                // (and pins the documented `pair_seen` contract for this
                // shape).
                assert!(
                    fresh.is_empty(),
                    "fast path must not populate pair_seen ({case})"
                );

                let mut seeded = PairSet::new();
                seeded.insert(0, 0);
                let classic = pairs_of(&idx, &all, &mut seeded);
                assert!(seeded.len() > 1, "classic path must record its pairs");

                assert_eq!(fast, classic, "{case}");
                assert!(!fast.is_empty(), "workload must generate pairs");
            }
        }
    }
}

/// A full-length frontier containing a duplicate must fall back to the
/// insert-probing loop — rank ownership would emit the duplicated
/// node's edges twice. The trailing duplicate contributes nothing the
/// insert-probing loop hasn't already recorded, so the emission equals
/// the duplicate-free prefix's run exactly.
#[test]
fn duplicate_full_frontier_falls_back_to_classic() {
    let table = large_table(420);
    let n = table.len();
    let cfg = ErConfig::default().with_meta(MetaBlockingConfig::All);
    let idx = TableErIndex::build(&table, &cfg);
    // Same length as the table, but record 0 appears twice and the last
    // record never: `frontier.len() == n_records` holds, distinctness
    // does not.
    let mut dup: Vec<RecordId> = (0..(n - 1) as RecordId).collect();
    dup.push(0);
    let mut seen_dup = PairSet::new();
    let pairs_dup = pairs_of(&idx, &dup, &mut seen_dup);
    assert!(
        !seen_dup.is_empty(),
        "duplicate frontier must take the insert-probing loop"
    );
    let mut seen_prefix = PairSet::new();
    let pairs_prefix = pairs_of(&idx, &dup[..n - 1], &mut seen_prefix);
    assert_eq!(pairs_dup, pairs_prefix);
    assert!(!pairs_dup.is_empty(), "workload must generate pairs");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: proptest_cases(16),
        .. ProptestConfig::default()
    })]

    /// The threshold sweep computes, for every node, at every thread
    /// count from 1 to 8, the exact bits of the mean-of-weights oracle —
    /// and so does the vector the build stored.
    #[test]
    fn bulk_thresholds_bit_equal_oracle(
        rows in rows(),
        scheme in 0usize..3,
        meta in 0usize..2,
    ) {
        let table = build_table(&rows);
        let mut cfg = ErConfig::default().with_meta(meta_of(meta));
        cfg.weight_scheme = scheme_of(scheme);
        let idx = TableErIndex::build(&table, &cfg);
        let oracle: Vec<u64> = (0..idx.n_records() as RecordId)
            .map(|e| oracle_threshold(&idx, e).to_bits())
            .collect();
        let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(&bits(idx.bulk_ep_thresholds()), &oracle, "stored vector");
        for threads in 1usize..=8 {
            let swept = bulk_node_thresholds(&idx, threads).unwrap();
            prop_assert_eq!(&bits(&swept), &oracle, "threads {}", threads);
        }
    }

    /// `try_edge_pruned_pairs` emits the identical pair sequence at any
    /// thread count and sequentially for every frontier prefix of sizes
    /// 1..=n — including pairs carried over in `pair_seen`.
    #[test]
    fn pair_sets_identical_for_all_frontier_sizes(
        rows in rows(),
        scheme in 0usize..3,
        scope in 0usize..2,
        threads in 1usize..9,
    ) {
        let table = build_table(&rows);
        let (par_idx, seq_idx) = build_pair(
            &table,
            scheme_of(scheme),
            scope_of(scope),
            MetaBlockingConfig::All,
            threads,
        );
        let all: Vec<RecordId> = (0..table.len() as RecordId).collect();
        for size in 1..=all.len() {
            let frontier = &all[..size];
            let mut seen_par = PairSet::new();
            let mut seen_seq = PairSet::new();
            let pairs_par = pairs_of(&par_idx, frontier, &mut seen_par);
            let pairs_seq = pairs_of(&seq_idx, frontier, &mut seen_seq);
            prop_assert_eq!(
                &pairs_par, &pairs_seq,
                "pair sequences diverged at frontier size {}", size
            );
            // A second call with the same carried pair_seen must emit
            // nothing on either index (all pairs already recorded) —
            // except after the node-centric resolve-all shape, which
            // records nothing and so replays in full.
            if !seen_par.is_empty() {
                prop_assert!(pairs_of(&par_idx, frontier, &mut seen_par).is_empty());
                prop_assert!(pairs_of(&seq_idx, frontier, &mut seen_seq).is_empty());
            }
        }
    }

    /// Full resolve: DR sets, links, and decision counts
    /// (candidate pairs, comparisons, matches) are identical at any
    /// thread count and sequentially.
    #[test]
    fn resolve_decisions_identical(
        rows in rows(),
        scheme in 0usize..3,
        scope in 0usize..2,
        meta in 0usize..2,
        threads in 1usize..9,
        qe_mask in 1u32..255,
    ) {
        let table = build_table(&rows);
        let (par_idx, seq_idx) = build_pair(
            &table,
            scheme_of(scheme),
            scope_of(scope),
            meta_of(meta),
            threads,
        );
        let qe: Vec<RecordId> = (0..table.len() as RecordId)
            .filter(|&r| qe_mask & (1 << (r % 8)) != 0)
            .collect();

        let mut li_par = LinkIndex::new(table.len());
        let mut m_par = DedupMetrics::default();
        let out_par = par_idx.run(ResolveRequest::records(&table, &qe, &mut li_par).metrics(&mut m_par)).unwrap();

        let mut li_seq = LinkIndex::new(table.len());
        let mut m_seq = DedupMetrics::default();
        let out_seq = seq_idx.run(ResolveRequest::records(&table, &qe, &mut li_seq).metrics(&mut m_seq)).unwrap();

        prop_assert_eq!(&out_par.dr, &out_seq.dr, "DR sets diverged (qe {:?})", &qe);
        prop_assert_eq!(out_par.new_links, out_seq.new_links);
        prop_assert_eq!(m_par.candidate_pairs, m_seq.candidate_pairs);
        prop_assert_eq!(m_par.comparisons, m_seq.comparisons);
        prop_assert_eq!(m_par.matches_found, m_seq.matches_found);
        for a in 0..table.len() as RecordId {
            for b in 0..table.len() as RecordId {
                prop_assert_eq!(
                    li_par.are_linked(a, b),
                    li_seq.are_linked(a, b),
                    "links diverged at ({}, {})", a, b
                );
            }
        }
    }
}
