//! Decision-equivalence of the interned hot path and the raw records.
//!
//! The resolve loop compares interned profiles (sorted `u32` token
//! symbols + pre-lowercased attributes) built once per record. The
//! string oracle below is what those profiles stand for: it renders,
//! lowercases and tokenizes the two raw records on every comparison.
//! These properties pin the two together over random dirty corpora and
//! every `SimilarityKind`: identical similarity values per pair,
//! identical match decisions, and identical DR sets / links when a full
//! resolve is replayed through a reference implementation of the
//! pipeline (tokenizing Query Blocking → Block-Join → BP → BF → EP →
//! string-oracle Comparison-Execution).

#![allow(clippy::field_reassign_with_default)] // config tweaks read clearer as assignments

mod oracle;

use oracle::{record_keys, record_tokens};
use proptest::prelude::*;
use queryer_common::knobs::proptest_cases;
use queryer_common::{FxHashMap, FxHashSet, PairSet};
use queryer_er::edge_pruning::EdgePruner;
use queryer_er::index::{BlockId, CooccurrenceScratch};
use queryer_er::similarity::{jaccard_sorted, jaro_winkler, levenshtein_sim, overlap_sorted};
use queryer_er::{
    BlockingKind, CompiledMatcher, DedupMetrics, ErConfig, KernelScratch, LinkIndex,
    MetaBlockingConfig, ResolveRequest, SimilarityKind, TableErIndex,
};
use queryer_storage::{Record, RecordId, Schema, Table, Value};

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

fn blocking_of(b: usize) -> BlockingKind {
    if b.is_multiple_of(2) {
        BlockingKind::Token
    } else {
        BlockingKind::NGram(3)
    }
}

/// The string oracle: profile similarity computed from two raw records
/// on every call — render, lowercase and tokenize, then the sorted-merge
/// token measures or the per-attribute string mean.
struct StringOracle {
    kind: SimilarityKind,
    threshold: f64,
    min_token_len: usize,
    skip_col: Option<usize>,
}

impl StringOracle {
    fn new(cfg: &ErConfig, skip_col: Option<usize>) -> Self {
        Self {
            kind: cfg.similarity,
            threshold: cfg.match_threshold,
            min_token_len: cfg.min_token_len,
            skip_col,
        }
    }

    /// The sorted, deduplicated profile token set of a record.
    fn sorted_tokens(&self, rec: &Record) -> Vec<String> {
        let mut v: Vec<String> = record_tokens(rec, self.min_token_len, self.skip_col)
            .into_iter()
            .collect();
        v.sort_unstable();
        v
    }

    fn similarity(&self, a: &Record, b: &Record) -> f64 {
        let tokens = || (self.sorted_tokens(a), self.sorted_tokens(b));
        match self.kind {
            SimilarityKind::MeanJaroWinkler => self.mean_string(a, b, jaro_winkler),
            SimilarityKind::MeanLevenshtein => self.mean_string(a, b, levenshtein_sim),
            SimilarityKind::TokenJaccard => {
                let (ta, tb) = tokens();
                jaccard_sorted(&ta, &tb)
            }
            SimilarityKind::TokenOverlap => {
                let (ta, tb) = tokens();
                overlap_sorted(&ta, &tb)
            }
            SimilarityKind::Hybrid => {
                let jw = self.mean_string(a, b, jaro_winkler);
                if jw >= self.threshold {
                    // Short-circuit: max(jw, overlap) already ≥ threshold.
                    return jw;
                }
                let (ta, tb) = tokens();
                jw.max(overlap_sorted(&ta, &tb))
            }
        }
    }

    fn is_match(&self, a: &Record, b: &Record) -> bool {
        self.similarity(a, b) >= self.threshold
    }

    /// Mean per-attribute similarity over attributes where both sides
    /// are non-null (the id column skipped), with an early abort once
    /// the remaining attributes cannot lift the mean to the threshold.
    fn mean_string(&self, a: &Record, b: &Record, sim: fn(&str, &str) -> f64) -> f64 {
        let mut comparable: u32 = 0;
        for (i, (va, vb)) in a.values.iter().zip(b.values.iter()).enumerate() {
            if Some(i) != self.skip_col && !va.is_null() && !vb.is_null() {
                comparable += 1;
            }
        }
        if comparable == 0 {
            return 0.0;
        }
        let n = comparable as f64;
        let mut sum = 0.0;
        let mut remaining = comparable;
        for (i, (va, vb)) in a.values.iter().zip(b.values.iter()).enumerate() {
            if Some(i) == self.skip_col || va.is_null() || vb.is_null() {
                continue;
            }
            let sa = va.render();
            let sb = vb.render();
            sum += sim(&sa.to_lowercase(), &sb.to_lowercase());
            remaining -= 1;
            // Upper bound on the final mean; abort when unreachable.
            if (sum + remaining as f64) / n < self.threshold {
                return (sum + remaining as f64) / n;
            }
        }
        sum / n
    }
}

/// Query Blocking by tokenization: the Query Block Index (QBI) of the
/// entities `qe`, built "by invoking the same blocking function that was
/// used for the construction of the TBI". Maps token → query-entity ids.
fn build_query_blocks(
    table: &Table,
    qe: &[RecordId],
    kind: BlockingKind,
    min_token_len: usize,
    skip_col: Option<usize>,
) -> FxHashMap<String, Vec<RecordId>> {
    let mut qbi: FxHashMap<String, Vec<RecordId>> = FxHashMap::default();
    for &id in qe {
        let record = table.record_unchecked(id);
        for token in record_keys(record, kind, min_token_len, skip_col) {
            qbi.entry(token).or_default().push(id);
        }
    }
    qbi
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

/// The resolve pipeline, replayed through public APIs with the string
/// oracle: tokenizing Query Blocking (`build_query_blocks`) → Block-Join
/// (TBI key lookup) → BP → BF → EP/block pairs → string-oracle
/// Comparison-Execution, with LI bookkeeping and transitive expansion.
/// Returns DR_E exactly like `TableErIndex::run`.
fn reference_resolve(
    table: &Table,
    idx: &TableErIndex,
    qe: &[RecordId],
    li: &mut LinkIndex,
) -> Vec<RecordId> {
    let cfg = idx.config();
    let oracle = StringOracle::new(cfg, idx.skip_col());
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
            let mut out = Vec::new();
            for &q in &frontier {
                for &(c, cbs) in idx.cooccurrences_into(q, &mut scratch) {
                    if pair_seen.contains(q, c) {
                        continue;
                    }
                    // Union rule: either endpoint's mean admits the
                    // weight (same 1e-12 slack as production).
                    let w = pruner.weight(q, c, cbs);
                    let kept = w + 1e-12 >= mean_edge_weight(idx, &pruner, q)
                        || w + 1e-12 >= mean_edge_weight(idx, &pruner, c);
                    if kept && pair_seen.insert(q, c) {
                        out.push((q, c));
                    }
                }
            }
            out
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
            // The string oracle: tokenize + lowercase per comparison.
            if oracle.is_match(table.record_unchecked(q), table.record_unchecked(c)) {
                li.add_link(q, c);
                partners.push(c);
            }
        }
        for &q in &frontier {
            li.mark_resolved(q);
        }
        frontier = {
            let mut seen = FxHashSet::default();
            partners
                .into_iter()
                .filter(|&c| !li.is_resolved(c) && seen.insert(c))
                .collect()
        };
    }
    li.closure(qe.iter().copied())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: proptest_cases(24),
        .. ProptestConfig::default()
    })]

    /// Pairwise: similarity values and match decisions of the compiled
    /// matcher over the index's interned profiles are identical to the
    /// string oracle over the raw records, for every record pair and
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
        let oracle = StringOracle::new(&cfg, idx.skip_col());
        let matcher = CompiledMatcher::new(cfg.similarity, thr, &idx);
        let mut scratch = KernelScratch::new();
        for a in 0..table.len() as RecordId {
            for b in 0..table.len() as RecordId {
                let ra = table.record_unchecked(a);
                let rb = table.record_unchecked(b);
                let s_str = oracle.similarity(ra, rb);
                let s_int = matcher.similarity(a, b);
                prop_assert_eq!(
                    s_str.to_bits(), s_int.to_bits(),
                    "similarity diverged on ({}, {}) kind {:?}: {} vs {}",
                    a, b, cfg.similarity, s_str, s_int
                );
                prop_assert_eq!(
                    oracle.is_match(ra, rb),
                    matcher.decide(a, b, &mut scratch),
                    "decision diverged on ({}, {})", a, b
                );
            }
        }
    }

    /// End-to-end: a full `run` over the interned/ITBI path yields
    /// exactly the links and DR set of the tokenizing reference
    /// pipeline, across meta-blocking configs and similarity kinds.
    #[test]
    fn resolve_equals_reference_pipeline(
        rows in rows(),
        kind in 0usize..5,
        meta in 0usize..5,
        blk in 0usize..2,
        qe_mask in 1u32..255,
    ) {
        let table = build_table(&rows);
        let mut cfg = ErConfig::default().with_meta(meta_of(meta));
        cfg.similarity = kind_of(kind);
        cfg.blocking = blocking_of(blk);
        let idx = TableErIndex::build(&table, &cfg);
        let qe: Vec<RecordId> = (0..table.len() as RecordId)
            .filter(|&r| qe_mask & (1 << (r % 8)) != 0)
            .collect();

        let mut li_hot = LinkIndex::new(table.len());
        let mut m = DedupMetrics::default();
        let out = idx.run(ResolveRequest::records(&table, &qe, &mut li_hot).metrics(&mut m)).unwrap();

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
