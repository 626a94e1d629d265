//! Edge Pruning is one algorithm whatever feeds it.
//!
//! Node-centric pruning has one enumerator, which reads neighbourhoods
//! either from build-time CBS partials (`EpCacheMode::On`, thresholds
//! and survivor rows memoized across queries) or by counting them per
//! query (`EpCacheMode::Off`, thresholds always from the bulk sweep,
//! nothing memoized), sequentially or fanned out across worker threads.
//! These properties pin that down over random dirty corpora: the bulk
//! threshold sweep is bit-equal to a plain in-test mean-of-weights
//! oracle at every thread count, and `Off` at 1..8 threads emits the
//! identical candidate pair sequence as sequential `On` for every
//! frontier size from 1 to the whole table — and hence identical DR
//! sets / links / metrics counts after a full resolve — across every
//! `WeightScheme` and both `EdgePruningScope`s.

#![allow(clippy::field_reassign_with_default)] // config tweaks read clearer as assignments

use proptest::prelude::*;
use queryer_common::knobs::proptest_cases;
use queryer_common::PairSet;
use queryer_er::edge_pruning::{bulk_node_thresholds, EdgePruner};
use queryer_er::{
    CooccurrenceScratch, DedupMetrics, EdgePruningScope, EpCacheMode, ErConfig, LinkIndex,
    MetaBlockingConfig, ResolveRequest, TableErIndex, WeightScheme,
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

/// Builds two indexes over the same table: `Off` (no CBS partials, no
/// memo) with `threads` EP workers, and the sequential `On` reference.
fn build_pair(
    table: &Table,
    scheme: WeightScheme,
    scope: EdgePruningScope,
    meta: MetaBlockingConfig,
    threads: usize,
) -> (TableErIndex, TableErIndex) {
    let mut off_cfg = ErConfig::default().with_meta(meta);
    off_cfg.weight_scheme = scheme;
    off_cfg.ep_scope = scope;
    off_cfg.threads = threads;
    off_cfg.ep_cache = EpCacheMode::Off;
    let mut on_cfg = off_cfg.clone();
    on_cfg.threads = 1;
    on_cfg.ep_cache = EpCacheMode::On;
    (
        TableErIndex::build(table, &off_cfg),
        TableErIndex::build(table, &on_cfg),
    )
}

/// The oracle the bulk sweep is pinned to: a node's threshold is the
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

/// `edge_pruned_pairs` without the hit/miss accounting.
fn pairs_of(
    idx: &TableErIndex,
    frontier: &[RecordId],
    seen: &mut PairSet,
) -> Vec<(RecordId, RecordId)> {
    idx.edge_pruned_pairs(frontier, seen, &mut DedupMetrics::default())
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
/// sequential `On` pair sequence under `Off`, for both EP scopes.
#[test]
fn parallel_frontier_scan_matches_sequential() {
    let table = large_table(420);
    let all: Vec<RecordId> = (0..table.len() as RecordId).collect();
    for scope in [EdgePruningScope::NodeCentric, EdgePruningScope::Global] {
        for scheme in [WeightScheme::Cbs, WeightScheme::Ecbs, WeightScheme::Js] {
            let (off_idx, on_idx) = build_pair(&table, scheme, scope, MetaBlockingConfig::All, 4);
            for frontier in [&all[..5], &all[..300], &all[..]] {
                let pairs_off = pairs_of(&off_idx, frontier, &mut PairSet::new());
                let pairs_on = pairs_of(&on_idx, frontier, &mut PairSet::new());
                assert_eq!(
                    pairs_off,
                    pairs_on,
                    "scope {scope:?} scheme {scheme:?} frontier {}",
                    frontier.len()
                );
                if frontier.len() == all.len() {
                    assert!(!pairs_off.is_empty(), "workload must generate pairs");
                }
            }
            assert_eq!(
                off_idx.resolve_cache_sizes(),
                (0, 0, 0),
                "off must memoize nothing"
            );
        }
    }
}

/// The enumerator's resolve-all fast path — rank-ownership dedup with
/// no per-surviving-edge `PairSet` insert — emits the exact pair
/// sequence of the insert-probing loop, in both cache modes,
/// sequentially and across the parallel fan-out. Seeding the carried set with the self-pair
/// `(0, 0)` forces the insert-probing loop (a non-empty `pair_seen`
/// disables the fast path) without perturbing output, since EP
/// survivor lists never contain self-pairs.
#[test]
fn resolve_all_fast_path_matches_insert_probing() {
    let table = large_table(420);
    let all: Vec<RecordId> = (0..table.len() as RecordId).collect();
    for scheme in [WeightScheme::Cbs, WeightScheme::Ecbs, WeightScheme::Js] {
        for mode in [EpCacheMode::Off, EpCacheMode::On] {
            for threads in [1usize, 4] {
                let mut cfg = ErConfig::default().with_meta(MetaBlockingConfig::All);
                cfg.weight_scheme = scheme;
                cfg.threads = threads;
                cfg.ep_cache = mode;
                let idx = TableErIndex::build(&table, &cfg);
                let case = format!("scheme {scheme:?} mode {mode:?} threads {threads}");

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

    /// The bulk sweep computes, for every node, at every thread count
    /// from 1 to 8, and from either neighbourhood source (CBS partials
    /// or counting), the exact bits of the mean-of-weights oracle.
    #[test]
    fn bulk_thresholds_bit_equal_oracle(
        rows in rows(),
        scheme in 0usize..3,
        meta in 0usize..2,
        mode in 0usize..2,
    ) {
        let table = build_table(&rows);
        let mut cfg = ErConfig::default().with_meta(meta_of(meta));
        cfg.weight_scheme = scheme_of(scheme);
        cfg.ep_cache = [EpCacheMode::Off, EpCacheMode::On][mode];
        let idx = TableErIndex::build(&table, &cfg);
        let oracle: Vec<u64> = (0..idx.n_records() as RecordId)
            .map(|e| oracle_threshold(&idx, e).to_bits())
            .collect();
        for threads in 1usize..=8 {
            let swept: Vec<u64> = bulk_node_thresholds(&idx, threads)
                .iter()
                .map(|t| t.to_bits())
                .collect();
            prop_assert_eq!(&swept, &oracle, "threads {}", threads);
        }
    }

    /// `edge_pruned_pairs` emits the identical pair sequence under `Off`
    /// (any thread count) and sequential `On` for every frontier prefix
    /// of sizes 1..=n — including pairs carried over in `pair_seen`.
    #[test]
    fn pair_sets_identical_for_all_frontier_sizes(
        rows in rows(),
        scheme in 0usize..3,
        scope in 0usize..2,
        threads in 1usize..9,
    ) {
        let table = build_table(&rows);
        let (off_idx, on_idx) = build_pair(
            &table,
            scheme_of(scheme),
            scope_of(scope),
            MetaBlockingConfig::All,
            threads,
        );
        let all: Vec<RecordId> = (0..table.len() as RecordId).collect();
        for size in 1..=all.len() {
            let frontier = &all[..size];
            let mut seen_off = PairSet::new();
            let mut seen_on = PairSet::new();
            let pairs_off = pairs_of(&off_idx, frontier, &mut seen_off);
            let pairs_on = pairs_of(&on_idx, frontier, &mut seen_on);
            prop_assert_eq!(
                &pairs_off, &pairs_on,
                "pair sequences diverged at frontier size {}", size
            );
            // A second call with the same carried pair_seen must emit
            // nothing in either mode (all pairs already recorded) —
            // except after the node-centric resolve-all shape, which
            // records nothing and so replays in full.
            if !seen_off.is_empty() {
                prop_assert!(pairs_of(&off_idx, frontier, &mut seen_off).is_empty());
                prop_assert!(pairs_of(&on_idx, frontier, &mut seen_on).is_empty());
            }
        }
    }

    /// Full resolve: DR sets, links, and decision counts
    /// (candidate pairs, comparisons, matches) are identical between
    /// `Off` at any thread count and sequential `On`.
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
        let (off_idx, on_idx) = build_pair(
            &table,
            scheme_of(scheme),
            scope_of(scope),
            meta_of(meta),
            threads,
        );
        let qe: Vec<RecordId> = (0..table.len() as RecordId)
            .filter(|&r| qe_mask & (1 << (r % 8)) != 0)
            .collect();

        let mut li_off = LinkIndex::new(table.len());
        let mut m_off = DedupMetrics::default();
        let out_off = off_idx.run(ResolveRequest::records(&table, &qe, &mut li_off).metrics(&mut m_off)).unwrap();

        let mut li_on = LinkIndex::new(table.len());
        let mut m_on = DedupMetrics::default();
        let out_on = on_idx.run(ResolveRequest::records(&table, &qe, &mut li_on).metrics(&mut m_on)).unwrap();

        prop_assert_eq!(&out_off.dr, &out_on.dr, "DR sets diverged (qe {:?})", &qe);
        prop_assert_eq!(out_off.new_links, out_on.new_links);
        prop_assert_eq!(m_off.candidate_pairs, m_on.candidate_pairs);
        prop_assert_eq!(m_off.comparisons, m_on.comparisons);
        prop_assert_eq!(m_off.matches_found, m_on.matches_found);
        prop_assert_eq!(m_off.ep_cache_hits + m_off.ep_cache_misses, 0, "off counts no memo traffic");
        prop_assert_eq!(off_idx.resolve_cache_sizes(), (0, 0, 0));
        for a in 0..table.len() as RecordId {
            for b in 0..table.len() as RecordId {
                prop_assert_eq!(
                    li_off.are_linked(a, b),
                    li_on.are_linked(a, b),
                    "links diverged at ({}, {})", a, b
                );
            }
        }
    }
}
