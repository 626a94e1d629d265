//! Decision-equivalence of the interned hot path and the string path.
//!
//! The resolve loop compares interned profiles (sorted `u32` token
//! symbols + pre-lowercased attributes) while `Matcher::similarity`
//! tokenizes and lowercases records on the fly. These properties pin the
//! two paths together over random dirty corpora and every
//! `SimilarityKind`: identical similarity values per pair, identical
//! match decisions, and identical DR sets / links when a full resolve is
//! replayed through a reference implementation of the pre-interning
//! pipeline (Query Blocking → Block-Join → BP → BF → EP →
//! string-matcher Comparison-Execution).

#![allow(clippy::field_reassign_with_default)] // config tweaks read clearer as assignments

use proptest::prelude::*;
use queryer_common::knobs::proptest_cases;
use queryer_common::{FxHashSet, PairSet};
use queryer_er::blocking::build_query_blocks;
use queryer_er::config::EdgePruningScope;
use queryer_er::edge_pruning::{prune_global, EdgePruner};
use queryer_er::index::{BlockId, CooccurrenceScratch};
use queryer_er::{
    BlockingKind, DedupMetrics, ErConfig, LinkIndex, Matcher, MetaBlockingConfig, ResolveRequest,
    SimilarityKind, TableErIndex,
};
use queryer_storage::{RecordId, Schema, Table, Value};

/// Small vocabulary so random records actually share blocking tokens.
const VOCAB: [&str; 14] = [
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
    "sigmod",
    "e.r",
    "2008",
];

fn cell() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..VOCAB.len(), 0..4)
}

fn rows() -> impl Strategy<Value = Vec<(Vec<usize>, Vec<usize>)>> {
    proptest::collection::vec((cell(), cell()), 2..28)
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

fn kind_of(k: usize) -> SimilarityKind {
    match k % 5 {
        0 => SimilarityKind::MeanJaroWinkler,
        1 => SimilarityKind::TokenJaccard,
        2 => SimilarityKind::TokenOverlap,
        3 => SimilarityKind::MeanLevenshtein,
        _ => SimilarityKind::Hybrid,
    }
}

fn meta_of(m: usize) -> MetaBlockingConfig {
    match m % 5 {
        0 => MetaBlockingConfig::All,
        1 => MetaBlockingConfig::BpBf,
        2 => MetaBlockingConfig::BpEp,
        3 => MetaBlockingConfig::Bp,
        _ => MetaBlockingConfig::None,
    }
}

fn scope_of(s: usize) -> EdgePruningScope {
    // Both scopes are safe to pin bit-wise here because the test keeps
    // the default CBS weights: integer-valued f64s sum exactly, so
    // prune_global's mean is identical whichever order the two paths
    // enumerate edges in.
    if s.is_multiple_of(2) {
        EdgePruningScope::NodeCentric
    } else {
        EdgePruningScope::Global
    }
}

fn blocking_of(b: usize) -> BlockingKind {
    if b.is_multiple_of(2) {
        BlockingKind::Token
    } else {
        BlockingKind::NGram(3)
    }
}

/// The reference node-centric threshold: the plain mean of `e`'s edge
/// weights over its counted neighbourhood (0 when isolated).
fn mean_edge_weight(idx: &TableErIndex, pruner: &EdgePruner<'_>, e: RecordId) -> f64 {
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

/// The pre-interning resolve pipeline, replayed through public APIs with
/// the record/string matcher: Query Blocking (`build_query_blocks`) →
/// Block-Join (TBI key lookup) → BP → BF → EP/block pairs →
/// string-path Comparison-Execution, with LI bookkeeping and transitive
/// expansion. Returns DR_E exactly like `TableErIndex::run`.
fn reference_resolve(
    table: &Table,
    idx: &TableErIndex,
    qe: &[RecordId],
    li: &mut LinkIndex,
) -> Vec<RecordId> {
    let cfg = idx.config();
    let matcher = Matcher::new(cfg, idx.skip_col());
    let mut pair_seen = PairSet::new();
    let mut frontier: Vec<RecordId> = {
        let mut seen = FxHashSet::default();
        qe.iter()
            .copied()
            .filter(|&q| !li.is_resolved(q) && seen.insert(q))
            .collect()
    };
    while !frontier.is_empty() {
        let qbi = build_query_blocks(
            table,
            &frontier,
            cfg.blocking,
            cfg.min_token_len,
            idx.skip_col(),
        );
        let mut eqbi: Vec<(BlockId, Vec<RecordId>)> = qbi
            .into_iter()
            .filter_map(|(token, q_list)| idx.block_of_key(&token).map(|b| (b, q_list)))
            .collect();
        if cfg.meta.purging() {
            eqbi.retain(|(b, _)| !idx.is_purged(*b));
        }
        if cfg.meta.filtering() {
            for (b, q_list) in &mut eqbi {
                q_list.retain(|&q| idx.retains(q, *b));
            }
            eqbi.retain(|(_, q_list)| !q_list.is_empty());
        }
        let pairs: Vec<(RecordId, RecordId)> = if cfg.meta.edge_pruning() {
            let pruner = EdgePruner::new(idx);
            let mut scratch = CooccurrenceScratch::new();
            match cfg.ep_scope {
                EdgePruningScope::NodeCentric => {
                    let mut out = Vec::new();
                    for &q in &frontier {
                        for &(c, cbs) in idx.cooccurrences_into(q, &mut scratch) {
                            if pair_seen.contains(q, c) {
                                continue;
                            }
                            // Union rule: either endpoint's mean admits
                            // the weight (same 1e-12 slack as production).
                            let w = pruner.weight(q, c, cbs);
                            let kept = w + 1e-12 >= mean_edge_weight(idx, &pruner, q)
                                || w + 1e-12 >= mean_edge_weight(idx, &pruner, c);
                            if kept && pair_seen.insert(q, c) {
                                out.push((q, c));
                            }
                        }
                    }
                    out
                }
                EdgePruningScope::Global => {
                    let mut edges = Vec::new();
                    let mut edge_seen = PairSet::new();
                    for &q in &frontier {
                        for &(c, cbs) in idx.cooccurrences_into(q, &mut scratch) {
                            if edge_seen.insert(q, c) {
                                edges.push((q, c, pruner.weight(q, c, cbs)));
                            }
                        }
                    }
                    prune_global(&edges)
                        .into_iter()
                        .filter(|&(a, b)| pair_seen.insert(a, b))
                        .collect()
                }
            }
        } else {
            let mut out = Vec::new();
            for (b, q_list) in &eqbi {
                let others = if cfg.meta.filtering() {
                    idx.filtered_block(*b)
                } else {
                    idx.raw_block(*b)
                };
                for &q in q_list {
                    for &c in others {
                        if c != q && pair_seen.insert(q, c) {
                            out.push((q, c));
                        }
                    }
                }
            }
            out
        };
        let mut partners: Vec<RecordId> = Vec::new();
        for (q, c) in pairs {
            if li.are_linked(q, c) {
                partners.push(c);
                continue;
            }
            // The string path: tokenize + lowercase per comparison.
            if matcher.is_match(table.record_unchecked(q), table.record_unchecked(c)) {
                li.add_link(q, c);
                partners.push(c);
            }
        }
        for &q in &frontier {
            li.mark_resolved(q);
        }
        frontier = if cfg.transitive {
            let mut seen = FxHashSet::default();
            partners
                .into_iter()
                .filter(|&c| !li.is_resolved(c) && seen.insert(c))
                .collect()
        } else {
            Vec::new()
        };
    }
    if cfg.transitive {
        li.closure(qe.iter().copied())
    } else {
        let mut out: FxHashSet<RecordId> = qe.iter().copied().collect();
        for &q in qe {
            out.extend(li.neighbors(q).iter().copied());
        }
        let mut v: Vec<RecordId> = out.into_iter().collect();
        v.sort_unstable();
        v
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: proptest_cases(24),
        .. ProptestConfig::default()
    })]

    /// Pairwise: similarity values and match decisions of the interned
    /// path are identical to the string path for every record pair and
    /// every similarity kind.
    #[test]
    fn interned_similarity_equals_string_similarity(
        rows in rows(),
        kind in 0usize..5,
        thr in prop_oneof![Just(0.5f64), Just(0.75), Just(0.85), Just(0.95)],
    ) {
        let table = build_table(&rows);
        let mut cfg = ErConfig::default();
        cfg.similarity = kind_of(kind);
        cfg.match_threshold = thr;
        let idx = TableErIndex::build(&table, &cfg);
        let matcher = Matcher::new(&cfg, idx.skip_col());
        for a in 0..table.len() as RecordId {
            for b in 0..table.len() as RecordId {
                let ra = table.record_unchecked(a);
                let rb = table.record_unchecked(b);
                let s_str = matcher.similarity(ra, rb);
                let s_int = matcher.similarity_interned(idx.profile(a), idx.profile(b));
                prop_assert_eq!(
                    s_str.to_bits(), s_int.to_bits(),
                    "similarity diverged on ({}, {}) kind {:?}: {} vs {}",
                    a, b, cfg.similarity, s_str, s_int
                );
                prop_assert_eq!(
                    matcher.is_match(ra, rb),
                    matcher.is_match_interned(idx.profile(a), idx.profile(b)),
                    "decision diverged on ({}, {})", a, b
                );
            }
        }
    }

    /// End-to-end: a full `resolve` over the interned/ITBI path yields
    /// exactly the links and DR set of the pre-interning reference
    /// pipeline, across meta-blocking configs and similarity kinds.
    #[test]
    fn resolve_equals_reference_pipeline(
        rows in rows(),
        kind in 0usize..5,
        meta in 0usize..5,
        scope in 0usize..2,
        blk in 0usize..2,
        qe_mask in 1u32..255,
    ) {
        let table = build_table(&rows);
        let mut cfg = ErConfig::default().with_meta(meta_of(meta));
        cfg.similarity = kind_of(kind);
        cfg.ep_scope = scope_of(scope);
        cfg.blocking = blocking_of(blk);
        let idx = TableErIndex::build(&table, &cfg);
        let qe: Vec<RecordId> = (0..table.len() as RecordId)
            .filter(|&r| qe_mask & (1 << (r % 8)) != 0)
            .collect();

        let mut li_hot = LinkIndex::new(table.len());
        let mut m = DedupMetrics::default();
        let out = idx.run(ResolveRequest::records(&table, &qe, &mut li_hot).metrics(&mut m)).unwrap();
        prop_assert_eq!(m.qbi_tokenized_records, 0, "hot path must not tokenize");

        idx.clear_ep_cache();
        let mut li_ref = LinkIndex::new(table.len());
        let dr_ref = reference_resolve(&table, &idx, &qe, &mut li_ref);

        prop_assert_eq!(&out.dr, &dr_ref, "DR sets diverged (qe {:?})", &qe);
        for a in 0..table.len() as RecordId {
            for b in 0..table.len() as RecordId {
                prop_assert_eq!(
                    li_hot.are_linked(a, b),
                    li_ref.are_linked(a, b),
                    "links diverged at ({}, {})", a, b
                );
            }
        }
    }
}
