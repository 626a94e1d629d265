//! Equivalence of the compiled comparison kernels + parallel
//! Comparison-Execution executor and the canonical similarity.
//!
//! The resolve hot path decides pairs through `CompiledMatcher`'s
//! per-attribute kernels, whose threshold-aware early exits (Jaro
//! length/prefix/histogram bounds with in-scan cutoffs, Jaccard
//! size-ratio bound, banded Levenshtein, overlap merge aborts) must
//! never flip a decision, and whose executor fans pair batches across
//! worker threads. These properties pin the compiled decisions
//! bit-identical to the canonical similarity
//! (`CompiledMatcher::similarity`, no early exits) compared against the
//! threshold, over random dirty corpora: decisions per pair, and DR
//! sets / links / decision counts after full resolves — across every
//! `SimilarityKind`, thresholds sitting exactly on the early-exit
//! decision boundaries, thread counts 1..8, and non-ASCII / oversized /
//! NULL attributes. Decisions and similarities are also pinned to be
//! independent of which endpoint of a pair is the query side.

#![allow(clippy::field_reassign_with_default)] // config tweaks read clearer as assignments

/// Everything a resolve decides: the DR set, the link pairs, and the
/// decision counts (candidate pairs, comparisons, matches).
type ResolveKey = (Vec<RecordId>, Vec<(RecordId, RecordId)>, u64, u64, u64);

use proptest::prelude::*;
use queryer_common::knobs::proptest_cases;
use queryer_er::{
    CompiledMatcher, DedupMetrics, ErConfig, KernelScratch, LinkIndex, ResolveRequest,
    SimilarityKind, TableErIndex,
};
use queryer_storage::{RecordId, Schema, Table, Value};

/// Vocabulary exercising every kernel edge: plain ASCII, shared typo
/// variants, digits, non-ASCII words (invalid histograms, generic Jaro
/// path), and one token longer than the 128-byte ASCII fast-path limit.
const VOCAB: [&str; 16] = [
    "entity",
    "resolution",
    "resolutoin",
    "collective",
    "query",
    "driven",
    "data",
    "big",
    "edbt",
    "vldb",
    "2008",
    "café",
    "münchen",
    "データベース",
    "naïve",
    "averyverylongtokenthatkeepsrepeatingitselfuntilitcrossestheonehundredandtwentyeightbytelimitofthebitmaskjaroscanpathzzzzzzzzzzzzzz",
];

fn cell() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..VOCAB.len(), 0..4)
}

fn rows() -> impl Strategy<Value = Vec<(Vec<usize>, Vec<usize>)>> {
    proptest::collection::vec((cell(), cell()), 2..20)
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

/// The next f64 above `x` — thresholds one ulp past a similarity value
/// sit exactly on the other side of the `≥` decision boundary.
fn next_up(x: f64) -> f64 {
    if x <= 0.0 || !x.is_finite() {
        return x;
    }
    f64::from_bits(x.to_bits() + 1)
}

/// Thresholds on the decision boundary of `idx`'s data under `kind`: up
/// to four similarity values in (0, 1) of actual pairs, each with the
/// threshold one ulp above it. The mean kinds' early abort reads the
/// threshold, so the values are probed at the default one.
fn boundary_thresholds(idx: &TableErIndex, kind: SimilarityKind) -> Vec<f64> {
    let probe = CompiledMatcher::new(kind, ErConfig::default().match_threshold, idx);
    let n = idx.n_records() as RecordId;
    let mut thresholds: Vec<f64> = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            let s = probe.similarity(a, b);
            if s.is_finite() && s > 0.0 && s < 1.0 {
                thresholds.push(s);
                thresholds.push(next_up(s));
                if thresholds.len() >= 8 {
                    return thresholds;
                }
            }
        }
    }
    thresholds
}

/// Pins compiled decisions against the canonical similarity for every
/// pair of `table` under `kind`/`threshold`.
fn assert_pairs_equivalent(
    table: &Table,
    idx: &TableErIndex,
    kind: SimilarityKind,
    threshold: f64,
) {
    let compiled = CompiledMatcher::new(kind, threshold, idx);
    let mut scratch = KernelScratch::new();
    for a in 0..table.len() as RecordId {
        // The executor batches comparisons by query record: one
        // load_query per same-query run, then decide_loaded per pair.
        // Loading once up front here mirrors that shape and must never
        // flip a decision against the per-pair decide path.
        let qs = compiled.load_query(a);
        for b in 0..table.len() as RecordId {
            let reference = compiled.similarity(a, b) >= threshold;
            let decided = compiled.decide(a, b, &mut scratch);
            assert_eq!(
                decided, reference,
                "decision diverged on ({a}, {b}) kind {kind:?} thr {threshold}"
            );
            let batched = compiled.decide_loaded(&qs, b, &mut scratch);
            assert_eq!(
                batched, reference,
                "batched decision diverged on ({a}, {b}) kind {kind:?} thr {threshold}"
            );
        }
    }
}

/// A deterministic pseudo-random table big enough that a full resolve
/// clears the executor's parallel cutoff (1024 pairs per round).
fn large_table(n: usize) -> Table {
    let mut t = Table::new("p", Schema::of_strings(&["id", "title", "venue"]));
    let mut state = 0xa076_1d64_78bd_642fu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..n {
        let words: Vec<&str> = (0..1 + (next() as usize % 3))
            .map(|_| VOCAB[next() as usize % 11]) // ASCII slice of the vocab
            .collect();
        let venue = VOCAB[8 + (next() as usize % 3)];
        t.push_row(vec![
            format!("{i}").into(),
            Value::str(words.join(" ")),
            Value::str(venue),
        ])
        .unwrap();
    }
    t
}

/// The parallel executor must emit identical links/DR/decision counts
/// for every worker count, on a workload large enough that the chunked
/// `std::thread::scope` branch actually runs.
#[test]
fn parallel_executor_matches_sequential() {
    let table = large_table(420);
    let mut baseline: Option<(Vec<RecordId>, usize, u64, u64, u64)> = None;
    for workers in 1..=8usize {
        let mut cfg = ErConfig::default();
        cfg.threads = workers;
        let idx = TableErIndex::build(&table, &cfg);
        let mut li = LinkIndex::new(table.len());
        let mut m = DedupMetrics::default();
        let out = idx
            .run(ResolveRequest::all(&table, &mut li).metrics(&mut m))
            .unwrap();
        if workers > 1 {
            assert!(
                m.candidate_pairs >= 1024,
                "workload too small to exercise the parallel branch"
            );
        }
        let key = (
            out.dr,
            out.new_links,
            m.candidate_pairs,
            m.comparisons,
            m.matches_found,
        );
        match &baseline {
            None => baseline = Some(key),
            Some(b) => assert_eq!(&key, b, "diverged at {workers} workers"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: proptest_cases(16),
        .. ProptestConfig::default()
    })]

    /// Compiled kernels decide every pair exactly like the canonical
    /// similarity, for every similarity kind at a spread of fixed
    /// thresholds.
    #[test]
    fn kernel_decisions_equal_reference(
        rows in rows(),
        kind in 0usize..5,
        thr in prop_oneof![
            Just(0.0f64), Just(0.3), Just(0.5), Just(0.75),
            Just(0.85), Just(0.95), Just(1.0)
        ],
    ) {
        let table = build_table(&rows);
        let idx = TableErIndex::build(&table, &ErConfig::default());
        assert_pairs_equivalent(&table, &idx, kind_of(kind), thr);
    }

    /// Thresholds sitting exactly *on* similarity values occurring in
    /// the data (and one ulp above them) — the hardest spots for the
    /// early-exit bounds, since `sim ≥ t` flips across one bit.
    #[test]
    fn kernel_decisions_equal_reference_at_boundaries(
        rows in rows(),
        kind in 0usize..5,
    ) {
        let table = build_table(&rows);
        let idx = TableErIndex::build(&table, &ErConfig::default());
        let kind = kind_of(kind);
        for thr in boundary_thresholds(&idx, kind) {
            assert_pairs_equivalent(&table, &idx, kind, thr);
        }
    }

    /// A pair's decision and similarity do not depend on which endpoint
    /// is the query side: `decide(q, c) == decide(c, q)`, the batched
    /// path agrees both ways, and `similarity` is bit-equal both ways —
    /// for every similarity kind, at fixed thresholds and at thresholds
    /// on (and one ulp above) similarity values of the data. The
    /// decision memo keys unordered pairs, and pair generation emits a
    /// pair from whichever endpoint it scans first.
    #[test]
    fn kernel_decisions_do_not_depend_on_orientation(
        rows in rows(),
        kind in 0usize..5,
    ) {
        let table = build_table(&rows);
        let idx = TableErIndex::build(&table, &ErConfig::default());
        let kind = kind_of(kind);
        let n = table.len() as RecordId;
        let mut thresholds = vec![0.0, 0.5, 0.85, 1.0];
        thresholds.extend(boundary_thresholds(&idx, kind));
        for thr in thresholds {
            let matcher = CompiledMatcher::new(kind, thr, &idx);
            let mut scratch = KernelScratch::new();
            for a in 0..n {
                let qa = matcher.load_query(a);
                for b in 0..a {
                    let qb = matcher.load_query(b);
                    prop_assert_eq!(
                        matcher.similarity(a, b).to_bits(),
                        matcher.similarity(b, a).to_bits(),
                        "similarity of ({}, {}) kind {:?}", a, b, kind
                    );
                    let ab = matcher.decide(a, b, &mut scratch);
                    prop_assert_eq!(
                        ab,
                        matcher.decide(b, a, &mut scratch),
                        "decision of ({}, {}) kind {:?} thr {}", a, b, kind, thr
                    );
                    prop_assert_eq!(
                        matcher.decide_loaded(&qa, b, &mut scratch),
                        matcher.decide_loaded(&qb, a, &mut scratch),
                        "batched decision of ({}, {}) kind {:?} thr {}", a, b, kind, thr
                    );
                }
            }
        }
    }

    /// Full resolve through the compiled executor: DR sets, links, and
    /// decision counts are identical across thread counts (including the
    /// sequential path) for every similarity kind.
    #[test]
    fn resolve_decisions_identical_across_threads(
        rows in rows(),
        kind in 0usize..5,
        thr in prop_oneof![Just(0.5f64), Just(0.85), Just(0.95)],
        qe_mask in 1u32..255,
    ) {
        let table = build_table(&rows);
        let qe: Vec<RecordId> = (0..table.len() as RecordId)
            .filter(|&r| qe_mask & (1 << (r % 8)) != 0)
            .collect();
        let mut baseline: Option<ResolveKey> = None;
        for workers in [1usize, 2, 3, 8] {
            let mut cfg = ErConfig::default();
            cfg.similarity = kind_of(kind);
            cfg.match_threshold = thr;
            cfg.threads = workers;
            let idx = TableErIndex::build(&table, &cfg);
            let mut li = LinkIndex::new(table.len());
            let mut m = DedupMetrics::default();
            let out = idx.run(ResolveRequest::records(&table, &qe, &mut li).metrics(&mut m)).unwrap();
            let mut links: Vec<(RecordId, RecordId)> = Vec::new();
            for a in 0..table.len() as RecordId {
                for b in (a + 1)..table.len() as RecordId {
                    if li.are_linked(a, b) {
                        links.push((a, b));
                    }
                }
            }
            let key = (out.dr, links, m.candidate_pairs, m.comparisons, m.matches_found);
            match &baseline {
                None => baseline = Some(key),
                Some(b) => prop_assert_eq!(&key, b, "diverged at {} workers", workers),
            }
        }
    }
}
