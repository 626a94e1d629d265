//! Edge Pruning is one algorithm whatever feeds it.
//!
//! Node-centric (WNP) pruning has one enumerator, which counts each frontier
//! node's neighbourhood, reads the thresholds the build swept, and
//! emits each pair at the endpoint the query scanned first —
//! sequentially or fanned out across worker threads. These properties
//! pin that down over random dirty corpora: the threshold sweep — and
//! the vector the build stored — is bit-equal to a plain in-test
//! mean-of-weights oracle at every thread count; the enumerator emits,
//! call by call over random sequences of overlapping, duplicated and
//! repeated frontiers, exactly what an in-test insert-probing emitter
//! over a carried pair set emits — also over a skewed corpus, where
//! Block Filtering drops blocks, served merged with a live delta whose
//! patched thresholds must equal the oracle's; with Edge Pruning off,
//! the same node scan emits, call by call, the unordered pairs of an in-test
//! block-major collector over a carried pair set, with and without a
//! live delta; and an index at 1..8
//! threads emits the identical candidate pair sequence as a sequential
//! one for every frontier size from 1 to the whole table — and hence
//! identical DR sets / links / metrics counts after a full resolve —
//! across every `WeightScheme`.

#![allow(clippy::field_reassign_with_default)] // config tweaks read clearer as assignments

use proptest::prelude::*;
use queryer_common::knobs::proptest_cases;
use queryer_common::PairSet;
use queryer_er::edge_pruning::{bulk_node_thresholds, EdgePruner, EpSeen};
use queryer_er::{
    BlockId, CooccurrenceScratch, DedupMetrics, DeltaOp, ErConfig, LinkIndex, MetaBlockingConfig,
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

/// A cell of `words` from the vocabulary (NULL when empty).
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
    // The EP-running configs; the EP-off ones have a property of their own.
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
    meta: MetaBlockingConfig,
    threads: usize,
) -> (TableErIndex, TableErIndex) {
    let mut par_cfg = ErConfig::default().with_meta(meta);
    par_cfg.weight_scheme = scheme;
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

/// `try_edge_pruned_pairs` without the metrics.
fn pairs_of(
    idx: &TableErIndex,
    frontier: &[RecordId],
    seen: &mut EpSeen,
) -> Vec<(RecordId, RecordId)> {
    idx.try_edge_pruned_pairs(frontier, seen, &mut DedupMetrics::default())
        .expect("edge pruning")
}

/// The oracle node-centric emission is pinned to: the insert-probing
/// emitter. Each frontier node's survivor row — the neighbours whose
/// edge either endpoint's stored threshold admits, in first-touch
/// order — is emitted in frontier order through a pair set carried
/// across calls, so a pair goes out the first time any call meets it.
fn oracle_emit(
    idx: &TableErIndex,
    frontier: &[RecordId],
    seen: &mut PairSet,
) -> Vec<(RecordId, RecordId)> {
    let th = idx.bulk_ep_thresholds();
    let keeps = |w: f64, t: f64| w + 1e-12 >= t;
    let pruner = EdgePruner::new(idx);
    let mut scratch = CooccurrenceScratch::new();
    let mut out = Vec::new();
    for &q in frontier {
        for &(c, cbs) in idx.cooccurrences_into(q, &mut scratch) {
            let w = pruner.weight(q, c, cbs);
            if (keeps(w, th[q as usize]) || keeps(w, th[c as usize])) && seen.insert(q, c) {
                out.push((q, c));
            }
        }
    }
    out
}

/// The oracle EP-off emission is pinned to: the block-major collector.
/// The frontier's `(block, entity)` entries — each entity's blocks off
/// the ITBI, less the purged ones under BP and the ones the entity does
/// not retain under BF — are grouped by block, and each entity pairs
/// with every other member of the block's filtered (BF) or raw row
/// through a pair set carried across calls.
fn oracle_blocks(
    idx: &TableErIndex,
    frontier: &[RecordId],
    seen: &mut PairSet,
) -> Vec<(RecordId, RecordId)> {
    let meta = idx.config().meta;
    let mut eqbi: Vec<(BlockId, RecordId)> = frontier
        .iter()
        .flat_map(|&q| idx.blocks_of(q).iter().map(move |&b| (b, q)))
        .collect();
    if meta.purging() {
        eqbi.retain(|&(b, _)| !idx.is_purged(b));
    }
    if meta.filtering() {
        eqbi.retain(|&(b, q)| idx.retains(q, b));
    }
    eqbi.sort_by_key(|&(b, _)| b);
    let mut out = Vec::new();
    for (b, q) in eqbi {
        let others = if meta.filtering() {
            idx.filtered_block(b)
        } else {
            idx.raw_block(b)
        };
        for &c in others {
            if c != q && seen.insert(q, c) {
                out.push((q, c));
            }
        }
    }
    out
}

/// `pairs` as unordered pairs, sorted; a pair emitted twice stays twice.
fn unordered(pairs: &[(RecordId, RecordId)]) -> Vec<(RecordId, RecordId)> {
    let mut v: Vec<_> = pairs.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
    v.sort_unstable();
    v
}

/// An EP index over `table` with `scheme` and `threads`.
fn node_centric(table: &Table, scheme: WeightScheme, threads: usize) -> TableErIndex {
    let mut cfg = ErConfig::default().with_meta(MetaBlockingConfig::All);
    cfg.weight_scheme = scheme;
    cfg.threads = threads;
    TableErIndex::build(table, &cfg)
}

/// One frontier call of a random sequence over an `n`-record table: a
/// window of the table starting at `start` (wrapping), whose length
/// `kind` picks — 5 (a point-query shape, which keeps a fresh query's
/// scan order sparse), 300, the whole table (both promote it to dense
/// and reach the resolver's parallel cutoff), any size in 1..=n, or any
/// size with its first half repeated at the end — optionally scanned
/// in reverse.
fn frontier_of(n: usize, (kind, start, len, rev): (usize, usize, usize, bool)) -> Vec<RecordId> {
    let len = match kind {
        0 => 5,
        1 => 300,
        2 => n,
        _ => len,
    };
    let mut f: Vec<RecordId> = (0..len).map(|i| ((start + i) % n) as RecordId).collect();
    if kind == 4 {
        f.extend_from_within(..len / 2);
    }
    if rev {
        f.reverse();
    }
    f
}

/// A deterministic pseudo-random table large enough (> the resolver's
/// parallel cutoff of 256) that a broad frontier actually takes the
/// multi-threaded survivor fill, which the small
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

/// A pseudo-random table of `n` records drawn from `seed`: 2..8 title
/// words over a 64-word vocabulary skewed to its low end, so block sizes
/// spread (Block Purging drops the largest) and most records sit in more
/// blocks than Block Filtering retains, plus one of three venues.
fn random_corpus(n: usize, seed: u64) -> Table {
    let mut t = Table::new("p", Schema::of_strings(&["id", "title", "venue"]));
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as usize
    };
    for i in 0..n {
        let words: Vec<String> = (0..2 + next() % 6)
            .map(|_| format!("t{}", (next() % 64).min(next() % 64)))
            .collect();
        let venue = VOCAB[9 + next() % 3];
        t.push_row(vec![
            format!("{i}").into(),
            Value::str(words.join(" ")),
            Value::str(venue),
        ])
        .unwrap();
    }
    t
}

/// Up to five single-row writes over a 300-record corpus: `(kind,
/// target, title words, venue words)`, kind 0 = insert, 1 = update,
/// 2 = delete.
type Write = (usize, usize, Vec<usize>, Vec<usize>);

fn writes() -> impl Strategy<Value = Vec<Write>> {
    proptest::collection::vec((0usize..3, 0usize..300, cell(), cell()), 0..6)
}

/// Applies each write to `table` and then, as a batch of its own, to
/// `idx`, which serves the result as a live delta.
fn apply_writes(table: &mut Table, idx: &mut TableErIndex, writes: &[Write]) {
    for (kind, id, title, venue) in writes {
        let id = (id % table.len()) as RecordId;
        let values = vec![format!("{id}").into(), render(title), render(venue)];
        let op = match kind {
            0 => DeltaOp::Insert { values },
            1 => DeltaOp::Update { id, values },
            _ => DeltaOp::Delete { id },
        };
        op.apply_to_table(table).unwrap();
        idx.apply_delta(table, &[op]).unwrap();
    }
}

/// The three frontier shapes — point query (frontier well under
/// `n_records`/32), sequential broad frontier, and the parallel fan-out
/// (frontier ≥ 256 with several workers) — all emit exactly the
/// sequential index's pair sequence, for every weight scheme.
#[test]
fn parallel_frontier_scan_matches_sequential() {
    let table = large_table(420);
    let all: Vec<RecordId> = (0..table.len() as RecordId).collect();
    for scheme in [WeightScheme::Cbs, WeightScheme::Ecbs, WeightScheme::Js] {
        let (par_idx, seq_idx) = build_pair(&table, scheme, MetaBlockingConfig::All, 4);
        for frontier in [&all[..5], &all[..300], &all[..]] {
            let pairs_par = pairs_of(&par_idx, frontier, &mut EpSeen::new());
            let pairs_seq = pairs_of(&seq_idx, frontier, &mut EpSeen::new());
            assert_eq!(
                pairs_par,
                pairs_seq,
                "scheme {scheme:?} frontier {}",
                frontier.len()
            );
            if frontier.len() == all.len() {
                assert!(!pairs_par.is_empty(), "workload must generate pairs");
            }
        }
    }
}

/// The resolve-all shape — the whole table in one frontier — emits the
/// insert-probing oracle's pair sequence, sequentially and across the
/// parallel fan-out, and a second call with the same carried state
/// emits nothing.
#[test]
fn resolve_all_matches_insert_probing_oracle() {
    let table = large_table(420);
    let all: Vec<RecordId> = (0..table.len() as RecordId).collect();
    for scheme in [WeightScheme::Cbs, WeightScheme::Ecbs, WeightScheme::Js] {
        for threads in [1usize, 4] {
            let idx = node_centric(&table, scheme, threads);
            let case = format!("scheme {scheme:?} threads {threads}");
            let (mut seen, mut oracle_seen) = (EpSeen::new(), PairSet::new());
            let pairs = pairs_of(&idx, &all, &mut seen);
            assert_eq!(pairs, oracle_emit(&idx, &all, &mut oracle_seen), "{case}");
            assert!(!pairs.is_empty(), "workload must generate pairs");
            assert!(pairs_of(&idx, &all, &mut seen).is_empty(), "{case}");
        }
    }
}

/// A full-length frontier containing a duplicate: the repeated node was
/// scanned earlier in the same frontier, so its second occurrence emits
/// nothing — the oracle's emission, and the duplicate-free prefix's.
#[test]
fn duplicate_full_frontier_matches_oracle() {
    let table = large_table(420);
    let n = table.len();
    let idx = node_centric(&table, WeightScheme::Cbs, 4);
    // Same length as the table, but record 0 appears twice and the last
    // record never.
    let mut dup: Vec<RecordId> = (0..(n - 1) as RecordId).collect();
    dup.push(0);
    let pairs_dup = pairs_of(&idx, &dup, &mut EpSeen::new());
    assert_eq!(pairs_dup, oracle_emit(&idx, &dup, &mut PairSet::new()));
    let pairs_prefix = pairs_of(&idx, &dup[..n - 1], &mut EpSeen::new());
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

    /// Node-centric emission over a random sequence of frontier calls
    /// sharing one query's state — overlapping windows, duplicates,
    /// re-scans, reversed scans, sizes 1..=n, through the sparse and the
    /// dense scan order — equals the insert-probing oracle's call by
    /// call, for every weight scheme at 1..8 threads.
    #[test]
    fn scan_order_emission_matches_oracle_over_call_sequences(
        scheme in 0usize..3,
        threads in 1usize..9,
        calls in proptest::collection::vec((0usize..5, 0usize..420, 1usize..=420, any::<bool>()), 1..8),
    ) {
        let table = large_table(420);
        let idx = node_centric(&table, scheme_of(scheme), threads);
        let (mut seen, mut oracle_seen) = (EpSeen::new(), PairSet::new());
        for (i, &call) in calls.iter().enumerate() {
            let frontier = frontier_of(table.len(), call);
            prop_assert_eq!(
                pairs_of(&idx, &frontier, &mut seen),
                oracle_emit(&idx, &frontier, &mut oracle_seen),
                "call {} {:?}", i, call
            );
        }
    }

    /// Node-centric pruning over the skewed corpus, where Block
    /// Filtering drops blocks, served merged with a live delta of 0–5
    /// random writes: every record's stored threshold is bit-equal to
    /// the mean-of-weights oracle's, and the enumerator emits, call by
    /// call over random frontier sequences, exactly the insert-probing
    /// oracle's pairs — for every weight scheme at 1, 2 and 4 threads.
    #[test]
    fn node_centric_over_skewed_corpus_and_live_delta(
        seed in any::<u64>(),
        scheme in 0usize..3,
        threads in prop_oneof![Just(1usize), Just(2), Just(4)],
        writes in writes(),
        calls in proptest::collection::vec((0usize..5, 0usize..420, 1usize..=420, any::<bool>()), 1..8),
    ) {
        let mut table = random_corpus(300, seed);
        let mut idx = node_centric(&table, scheme_of(scheme), threads);
        apply_writes(&mut table, &mut idx, &writes);
        let stored = idx.bulk_ep_thresholds();
        prop_assert_eq!(stored.len(), table.len());
        for e in 0..table.len() as RecordId {
            prop_assert_eq!(
                stored[e as usize].to_bits(),
                oracle_threshold(&idx, e).to_bits(),
                "threshold of {}", e
            );
        }
        let (mut seen, mut oracle_seen) = (EpSeen::new(), PairSet::new());
        for (i, &call) in calls.iter().enumerate() {
            let frontier = frontier_of(table.len(), call);
            prop_assert_eq!(
                pairs_of(&idx, &frontier, &mut seen),
                oracle_emit(&idx, &frontier, &mut oracle_seen),
                "call {} {:?}", i, call
            );
        }
    }

    /// With Edge Pruning off — BP+BF, BP and NONE —
    /// the node scan emits, over random corpora and call by call over
    /// random sequences of overlapping, duplicated and repeated
    /// frontiers, exactly the unordered pairs the block-major collector
    /// emits through a carried pair set, each once, at 1, 2 and 4
    /// threads: on the built index, and served merged with a live delta
    /// of random inserts, updates and deletes.
    #[test]
    fn ep_off_emission_matches_block_collector_over_call_sequences(
        seed in any::<u64>(),
        meta in 0usize..3,
        threads in prop_oneof![Just(1usize), Just(2), Just(4)],
        writes in writes(),
        calls in proptest::collection::vec((0usize..5, 0usize..420, 1usize..=420, any::<bool>()), 1..8),
    ) {
        let mut table = random_corpus(300, seed);
        let metas = [MetaBlockingConfig::BpBf, MetaBlockingConfig::Bp, MetaBlockingConfig::None];
        let mut cfg = ErConfig::default().with_meta(metas[meta]);
        cfg.threads = threads;
        let mut idx = TableErIndex::build(&table, &cfg);
        apply_writes(&mut table, &mut idx, &writes);
        prop_assert_eq!(idx.has_delta(), !writes.is_empty());
        let (mut seen, mut oracle_seen) = (EpSeen::new(), PairSet::new());
        for (i, &call) in calls.iter().enumerate() {
            let frontier = frontier_of(table.len(), call);
            prop_assert_eq!(
                unordered(&pairs_of(&idx, &frontier, &mut seen)),
                unordered(&oracle_blocks(&idx, &frontier, &mut oracle_seen)),
                "call {} {:?}", i, call
            );
        }
    }

    /// `try_edge_pruned_pairs` emits the identical pair sequence at any
    /// thread count and sequentially for every frontier prefix of sizes
    /// 1..=n — including pairs carried over in the query's state.
    #[test]
    fn pair_sets_identical_for_all_frontier_sizes(
        rows in rows(),
        scheme in 0usize..3,
        threads in 1usize..9,
    ) {
        let table = build_table(&rows);
        let (par_idx, seq_idx) =
            build_pair(&table, scheme_of(scheme), MetaBlockingConfig::All, threads);
        let all: Vec<RecordId> = (0..table.len() as RecordId).collect();
        for size in 1..=all.len() {
            let frontier = &all[..size];
            let mut seen_par = EpSeen::new();
            let mut seen_seq = EpSeen::new();
            let pairs_par = pairs_of(&par_idx, frontier, &mut seen_par);
            let pairs_seq = pairs_of(&seq_idx, frontier, &mut seen_seq);
            prop_assert_eq!(
                &pairs_par, &pairs_seq,
                "pair sequences diverged at frontier size {}", size
            );
            // A second call with the same carried state emits nothing
            // on either index: every pair already went out.
            prop_assert!(pairs_of(&par_idx, frontier, &mut seen_par).is_empty());
            prop_assert!(pairs_of(&seq_idx, frontier, &mut seen_seq).is_empty());
        }
    }

    /// Full resolve: DR sets, links, and decision counts
    /// (candidate pairs, comparisons, matches) are identical at any
    /// thread count and sequentially.
    #[test]
    fn resolve_decisions_identical(
        rows in rows(),
        scheme in 0usize..3,
        meta in 0usize..2,
        threads in 1usize..9,
        qe_mask in 1u32..255,
    ) {
        let table = build_table(&rows);
        let (par_idx, seq_idx) = build_pair(&table, scheme_of(scheme), meta_of(meta), threads);
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
