//! Compiled comparison kernels: the Comparison-Execution decision
//! function specialized once per resolve instead of re-resolved per
//! pair.
//!
//! "We follow a schema-agnostic approach and we compare the values of all
//! corresponding attributes between entity pairs" (Sec. 6.1(iv)). Entity
//! matching itself is orthogonal to the framework (Sec. 4), so the
//! similarity kind and threshold are pluggable:
//! [`CompiledMatcher::new`] turns the configured [`SimilarityKind`] +
//! threshold into a [`CompareKernel`] operating on the index's
//! kernel-ready per-record data — pre-lowercased attribute text,
//! per-attribute [`AttrMeta`] (character lengths, Winkler prefix bytes),
//! and interned sorted token slices with their fixed-width token
//! signatures. Each kernel carries *threshold-aware early exits* that
//! reject a pair before the O(len²)-ish similarity work whenever a cheap
//! upper bound already proves the similarity cannot reach the threshold.
//! Filter before verify: every kernel first decides from fixed-width
//! bounds — signatures, lengths, prefix bytes, histograms — and sorts the
//! attribute order, merges token slices or reads attribute text only for
//! the pairs those bounds leave open:
//!
//! * **Token signature** (overlap, Jaccard, the overlap half of hybrid)
//!   — `Σ_b min(sA[b], sB[b])` over the two records' 32 bucket counts
//!   ([`crate::index::InternedProfile::sig`]) is an exact integer upper
//!   bound on `|A∩B|`, read in one vectorised pass with no merge.
//! * **JW-mean / hybrid** — per-attribute Jaro upper bounds from the
//!   length difference (a match count can never exceed the shorter
//!   length) plus the exact Winkler common prefix read off the stored
//!   prefix bytes; a whole pair is rejected when the bounds cannot lift
//!   the attribute mean to the threshold — tested before the evaluation
//!   order is sorted — and each attribute's Jaro scan itself aborts once
//!   the matches found plus the characters left cannot reach the
//!   per-attribute requirement ([`crate::similarity::jaro_winkler_ge`]).
//! * **Jaccard-interned** — `|A∩B|/|A∪B| ≤ U/(|A|+|B|−U)` with
//!   `U = min(signature bound, min(|A|,|B|))`, which is never looser
//!   than the size-ratio bound `min(|A|,|B|)/max(|A|,|B|)`.
//! * **Overlap-interned** — the signature bound against the smallest
//!   intersection that reaches the threshold, then a merge that aborts
//!   once the intersection can no longer reach it.
//! * **Levenshtein-mean** — the length-difference lower bound on edit
//!   distance plus a banded two-row DP with a threshold-derived cutoff
//!   ([`crate::similarity::levenshtein_within`]).
//!
//! # Decision equivalence
//!
//! Decisions are **bit-identical** to the canonical similarity
//! [`CompiledMatcher::similarity`] compared against the threshold,
//! pinned the same way `ep_equivalence.rs` pins Edge Pruning
//! (`tests/kernel_equivalence.rs`). The argument has two halves:
//!
//! * *Exact when completed*: every value a kernel feeds into a decision
//!   is produced by the same expressions the canonical path runs (the
//!   `mean_lowered` accumulation and the `similarity_interned_raw`
//!   dispatch below are the one definition of each;
//!   `jaro_winkler_ge` / `levenshtein_within` return bit-identical
//!   scores when they return at all), so a pair that survives the
//!   bounds gets the canonical comparison.
//! * *Sound when rejected*: every upper bound is shaped like the exact
//!   expression it bounds, so IEEE-754 monotonicity of `+`, `/`, `min`
//!   carries the mathematical inequality into f64 — and each comparison
//!   against the threshold additionally leaves
//!   [`BOUND_SLACK`] (1e-9, six orders
//!   of magnitude above the accumulated rounding error), so a bound only
//!   rejects a pair whose canonical similarity is certainly below the
//!   threshold. Bounds inside the slack band fall through to the exact
//!   computation.
//!
//! The canonical similarity itself is pinned to the raw records — render,
//! lowercase, tokenize, compare — by `tests/interned_equivalence.rs`.

use crate::config::SimilarityKind;
use crate::index::{sig_common, AttrMeta, InternedProfile, TableErIndex};
use crate::similarity::{
    jaccard_sorted, jaro_winkler, jaro_winkler_ge, levenshtein_sim, levenshtein_within,
    overlap_sorted, JaroScratch, BOUND_SLACK,
};
use queryer_storage::RecordId;

/// Winkler prefix scale — must match `similarity::jaro_winkler`.
const PREFIX_SCALE: f64 = 0.1;

/// Per-worker scratch for the compiled kernels: the Jaro positions
/// table plus the per-attribute buffers of the mean kernels. The
/// parallel executor owns one per thread.
#[derive(Default)]
pub struct KernelScratch {
    jaro: JaroScratch,
    /// Per-column upper bound (0.0 for non-comparable columns).
    ub: Vec<f64>,
    /// Per-column exact similarity, filled in evaluation order.
    sims: Vec<f64>,
    /// Comparable column indices, cheapest string comparison first.
    order: Vec<u32>,
}

impl KernelScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The per-attribute comparison kernel a [`SimilarityKind`] compiles to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareKernel {
    /// Mean Jaro-Winkler over comparable attributes with
    /// length-difference + common-prefix upper bounds and an in-scan
    /// match-count cutoff.
    JwMean,
    /// Mean Levenshtein similarity with the length-difference distance
    /// bound and a banded, cutoff-carrying DP.
    LevMean,
    /// Jaccard over interned token slices with the signature and
    /// size-ratio bound.
    JaccardInterned,
    /// Overlap coefficient over interned token slices: the signature
    /// bound, then a sorted merge with a required-count cutoff.
    OverlapInterned,
    /// `max(JW-mean, overlap)` — the overlap half is the cheap one, so
    /// the kernel decides it first and only falls into the JW-mean
    /// kernel when containment alone does not already match.
    Hybrid,
}

/// A matcher compiled against one [`TableErIndex`]: similarity kind and
/// attribute layout resolved once, decisions executed over kernel-ready
/// per-record data. `Sync`, so the Comparison-Execution executor shares
/// one across worker threads (each with its own [`KernelScratch`]).
#[derive(Debug, Clone, Copy)]
pub struct CompiledMatcher<'idx> {
    idx: &'idx TableErIndex,
    kind: SimilarityKind,
    kernel: CompareKernel,
    threshold: f64,
}

impl<'idx> CompiledMatcher<'idx> {
    /// Compiles `kind` at `threshold` against `idx`: the kernel and
    /// attribute layout are resolved here, once, and every decision
    /// then runs over the index's kernel-ready per-record data. The
    /// resolver compiles the index's own configured kind and threshold;
    /// tests vary both over one index.
    pub fn new(kind: SimilarityKind, threshold: f64, idx: &'idx TableErIndex) -> Self {
        let kernel = match kind {
            SimilarityKind::MeanJaroWinkler => CompareKernel::JwMean,
            SimilarityKind::MeanLevenshtein => CompareKernel::LevMean,
            SimilarityKind::TokenJaccard => CompareKernel::JaccardInterned,
            SimilarityKind::TokenOverlap => CompareKernel::OverlapInterned,
            SimilarityKind::Hybrid => CompareKernel::Hybrid,
        };
        Self {
            idx,
            kind,
            kernel,
            threshold,
        }
    }

    /// The kernel this matcher compiled to.
    pub fn kernel(&self) -> CompareKernel {
        self.kernel
    }

    /// The decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Match decision for an indexed record pair — bit-identical to
    /// `similarity(q, c) >= threshold`, but with the threshold-aware
    /// early exits engaged.
    pub fn decide(&self, q: RecordId, c: RecordId, scratch: &mut KernelScratch) -> bool {
        self.decide_loaded(&self.load_query(q), c, scratch)
    }

    /// Loads the query-side half of a comparison once, for a run of
    /// candidate pairs sharing `q`. The executor's candidate pairs
    /// arrive grouped by query record (frontier scan order), so one
    /// load serves the whole run — see
    /// [`CompiledMatcher::decide_loaded`].
    pub fn load_query(&self, q: RecordId) -> QuerySide<'idx> {
        QuerySide {
            q,
            profile: self.idx.profile(q),
            meta: self.idx.attr_meta(q),
        }
    }

    /// [`CompiledMatcher::decide`] with the query side pre-loaded via
    /// [`CompiledMatcher::load_query`]. Decisions are bit-identical to
    /// `decide` — the loads are pure index reads, hoisted, not changed
    /// (pinned by `tests/kernel_equivalence.rs`).
    pub fn decide_loaded(
        &self,
        qs: &QuerySide<'idx>,
        c: RecordId,
        scratch: &mut KernelScratch,
    ) -> bool {
        let a = qs.profile;
        let b = self.idx.profile(c);
        match self.kernel {
            CompareKernel::JwMean => self.decide_mean(qs, c, b, scratch, MeanAttr::JaroWinkler),
            CompareKernel::LevMean => self.decide_mean(qs, c, b, scratch, MeanAttr::Levenshtein),
            CompareKernel::JaccardInterned => self.decide_jaccard(a, b),
            CompareKernel::OverlapInterned => overlap_ge(a, b, self.threshold),
            CompareKernel::Hybrid => {
                // Decision = (overlap ≥ t) ∨ (jw-mean ≥ t); the signature
                // bound and sorted u32 merge are orders cheaper than the
                // Jaro scans, so they go first (the canonical path computes
                // jw first only because it must *return* the max).
                overlap_ge(a, b, self.threshold)
                    || self.decide_mean(qs, c, b, scratch, MeanAttr::JaroWinkler)
            }
        }
    }

    /// Exact similarity of an indexed record pair — the canonical
    /// computation (`similarity_interned_raw`), with no kernel early
    /// exits. `decide` is pinned to it bit for bit, and it is pinned to
    /// the raw records by `tests/interned_equivalence.rs`.
    pub fn similarity(&self, q: RecordId, c: RecordId) -> f64 {
        similarity_interned_raw(
            self.kind,
            self.threshold,
            self.idx.profile(q),
            self.idx.profile(c),
        )
    }

    /// Jaccard with an upper bound checked before any merge work:
    /// `|A∩B| ≤ U = min(sig_common, min(|A|,|B|))`, and `x/(|A|+|B|−x)`
    /// grows with `x`, so `J ≤ U/(|A|+|B|−U)` — the canonical expression
    /// evaluated at `U`, so f64 monotonicity carries the inequality. With
    /// an uninformative signature it is the size-ratio bound `min/max`.
    fn decide_jaccard(&self, a: InternedProfile<'_>, b: InternedProfile<'_>) -> bool {
        let (la, lb) = (a.tokens.len(), b.tokens.len());
        if la + lb > 0 {
            let u = sig_common(a.sig, b.sig).min(la.min(lb));
            if (u as f64 / (la + lb - u) as f64) < self.threshold - BOUND_SLACK {
                return false;
            }
        }
        jaccard_sorted(a.tokens, b.tokens) >= self.threshold
    }

    /// The shared mean-over-attributes decision kernel.
    ///
    /// Evaluation runs cheapest-string-first: short attributes (venues,
    /// years) resolve to *exact* contributions for a few cycles each,
    /// which tightens the requirement left for the long attributes
    /// (titles, author lists) so far that their scans usually abort
    /// within a few characters — or are rejected outright by their
    /// metadata upper bounds. Computation order is free to vary because
    /// only *which* exact values exist matters, never the order they
    /// were produced in: once every attribute has its exact similarity,
    /// the values are folded **in canonical column order** through the
    /// verbatim [`mean_lowered`] accumulation (including its
    /// abort-on-unreachable check), so the accepted/rejected boundary is
    /// bit-identical to the canonical path. All out-of-order rejection
    /// checks are conservative: they compare against the threshold with
    /// [`BOUND_SLACK`] in hand, which dwarfs the f64 re-association
    /// error of the bound sums.
    fn decide_mean(
        &self,
        qs: &QuerySide<'_>,
        c: RecordId,
        b: InternedProfile<'_>,
        scratch: &mut KernelScratch,
        attr: MeanAttr,
    ) -> bool {
        let a = qs.profile;
        let ma = qs.meta;
        let mb = self.idx.attr_meta(c);
        let t = self.threshold;
        let n_cols = a.attrs.len();

        // Bound pass: per-column upper bounds (0.0 for non-comparable
        // columns) and their sum.
        let mut comparable: u32 = 0;
        let mut rest_ub = 0.0f64;
        scratch.ub.clear();
        scratch.ub.resize(n_cols, 0.0);
        for i in 0..n_cols {
            if a.attrs[i].is_some() && b.attrs[i].is_some() {
                comparable += 1;
                let ub = match attr {
                    MeanAttr::JaroWinkler => jw_attr_ub(&ma[i], &mb[i]),
                    MeanAttr::Levenshtein => lev_attr_ub(&ma[i], &mb[i]),
                };
                scratch.ub[i] = ub;
                rest_ub += ub;
            }
        }
        if comparable == 0 {
            return 0.0 >= t; // canonical value for no comparable attrs
        }
        let n = comparable as f64;
        let tn = t * n;
        // Whole-pair bound before the evaluation order is built: the
        // condition the exact pass's first iteration tests (`sum_exact`
        // is still 0).
        if rest_ub < tn - BOUND_SLACK {
            return false;
        }
        // Evaluation order: comparable columns, cheapest string
        // comparison first.
        scratch.order.clear();
        scratch.order.extend(
            (0..n_cols as u32)
                .filter(|&i| a.attrs[i as usize].is_some() && b.attrs[i as usize].is_some()),
        );
        let cost = |i: u32| ma[i as usize].chars.max(mb[i as usize].chars);
        scratch.order.sort_unstable_by_key(|&i| cost(i));

        // Exact pass in evaluation order: `rest_ub` always bounds the
        // not-yet-computed columns, `sum_exact` accumulates computed ones.
        scratch.sims.clear();
        scratch.sims.resize(n_cols, 0.0);
        let mut sum_exact = 0.0f64;
        for oi in 0..scratch.order.len() {
            let i = scratch.order[oi] as usize;
            if sum_exact + rest_ub < tn - BOUND_SLACK {
                return false; // remaining bounds cannot lift the mean to t
            }
            let (Some(sa), Some(sb)) = (&a.attrs[i], &b.attrs[i]) else {
                unreachable!("order holds comparable columns only");
            };
            rest_ub -= scratch.ub[i];
            // This column alone must contribute at least `needed` (the
            // rest is already counted at its bound; the slack inside the
            // `_ge` cutoffs absorbs the re-association error here).
            let needed = tn - sum_exact - rest_ub;
            let s = match attr {
                MeanAttr::JaroWinkler => jaro_winkler_ge(sa, sb, needed, &mut scratch.jaro),
                MeanAttr::Levenshtein => {
                    let lmax = ma[i].chars.max(mb[i].chars) as usize;
                    lev_sim_ge(sa, sb, lmax, needed)
                }
            };
            let Some(s) = s else {
                return false; // certainly below its requirement
            };
            scratch.sims[i] = s;
            sum_exact += s;
        }

        // Canonical fold: the exact per-column values accumulated in
        // column order through the verbatim `mean_lowered` loop.
        let mut sum = 0.0;
        let mut remaining = comparable;
        for i in 0..n_cols {
            if a.attrs[i].is_none() || b.attrs[i].is_none() {
                continue;
            }
            sum += scratch.sims[i];
            remaining -= 1;
            // The canonical abort, verbatim: when it fires the canonical
            // similarity is this (sub-threshold) upper bound.
            if (sum + remaining as f64) / n < t {
                return false;
            }
        }
        sum / n >= t
    }
}

/// The canonical interned-similarity dispatch: the one definition of
/// how each [`SimilarityKind`] computes over interned profiles, which
/// [`CompiledMatcher::similarity`] runs as is and the kernels' exact
/// paths reproduce, so the kind → computation mapping has one home.
pub(crate) fn similarity_interned_raw(
    kind: SimilarityKind,
    threshold: f64,
    a: InternedProfile<'_>,
    b: InternedProfile<'_>,
) -> f64 {
    match kind {
        SimilarityKind::MeanJaroWinkler => mean_lowered(a.attrs, b.attrs, threshold, jaro_winkler),
        SimilarityKind::MeanLevenshtein => {
            mean_lowered(a.attrs, b.attrs, threshold, levenshtein_sim)
        }
        SimilarityKind::TokenJaccard => jaccard_sorted(a.tokens, b.tokens),
        SimilarityKind::TokenOverlap => overlap_sorted(a.tokens, b.tokens),
        SimilarityKind::Hybrid => {
            let jw = mean_lowered(a.attrs, b.attrs, threshold, jaro_winkler);
            if jw >= threshold {
                // Short-circuit: max(jw, overlap) already ≥ threshold.
                return jw;
            }
            jw.max(overlap_sorted(a.tokens, b.tokens))
        }
    }
}

/// The canonical per-attribute mean over pre-lowercased attribute slices
/// (`None` encodes NULL / skipped columns): mean similarity over the
/// attributes where both sides are non-null, with an early abort once
/// the remaining attributes cannot lift the mean to the threshold (each
/// contributes at most 1.0). Shared verbatim by the canonical dispatch
/// and the mean kernels' final fold — there is exactly one definition
/// of this loop, which is what makes the kernel equivalence arguments
/// hold.
pub(crate) fn mean_lowered(
    a: &[Option<Box<str>>],
    b: &[Option<Box<str>>],
    threshold: f64,
    sim: fn(&str, &str) -> f64,
) -> f64 {
    let mut comparable: u32 = 0;
    for (va, vb) in a.iter().zip(b.iter()) {
        if va.is_some() && vb.is_some() {
            comparable += 1;
        }
    }
    if comparable == 0 {
        return 0.0;
    }
    let n = comparable as f64;
    let mut sum = 0.0;
    let mut remaining = comparable;
    for (va, vb) in a.iter().zip(b.iter()) {
        let (Some(sa), Some(sb)) = (va, vb) else {
            continue;
        };
        sum += sim(sa, sb);
        remaining -= 1;
        // Upper bound on the final mean; abort when unreachable.
        if (sum + remaining as f64) / n < threshold {
            return (sum + remaining as f64) / n;
        }
    }
    sum / n
}

/// The query-side half of a comparison, loaded once per candidate run:
/// the record's interned profile plus its per-attribute metadata.
/// Comparison batching by record (`run_comparison_kernels`) keeps one
/// of these alive across a run of pairs sharing the same query record,
/// so the q-side profile/metadata lookups are paid once per run instead
/// of once per pair.
#[derive(Clone, Copy)]
pub struct QuerySide<'idx> {
    q: RecordId,
    profile: InternedProfile<'idx>,
    meta: &'idx [AttrMeta],
}

impl QuerySide<'_> {
    /// The record this side was loaded from.
    pub fn record(&self) -> RecordId {
        self.q
    }
}

/// Which per-attribute similarity a mean kernel runs.
#[derive(Clone, Copy)]
enum MeanAttr {
    JaroWinkler,
    Levenshtein,
}

/// Upper bound on the Jaro-Winkler score of two attributes from their
/// metadata alone: Jaro can match at most `min(|a|,|b|)` characters —
/// tightened to the character-class multiset intersection
/// ([`AttrMeta::hist_common`]) when both histograms are valid — shaped
/// exactly like the final Jaro expression (so f64 monotonicity applies)
/// and boosted by the exact Winkler common prefix when the stored
/// prefix bytes are ASCII (byte equality ⇔ char equality), by the
/// conservative maximum of 4 otherwise.
fn jw_attr_ub(a: &AttrMeta, b: &AttrMeta) -> f64 {
    let (la, lb) = (a.chars as usize, b.chars as usize);
    if la == 0 && lb == 0 {
        return 1.0;
    }
    if la == 0 || lb == 0 {
        return 0.0;
    }
    let m_cap = if a.hist_valid && b.hist_valid {
        a.hist_common(b)
    } else {
        la.min(lb)
    };
    let j_ub = ((m_cap as f64 / la as f64 + m_cap as f64 / lb as f64) + 1.0) / 3.0;
    j_ub + prefix_ub(a, b) as f64 * PREFIX_SCALE * (1.0 - j_ub)
}

/// Upper bound on (or the exact value of) the Winkler common prefix:
/// the index of the first differing prefix byte (the lowest set byte of
/// the XOR, read little-endian), capped at the shorter prefix. Branch
/// free, since the first difference is data-dependent.
fn prefix_ub(a: &AttrMeta, b: &AttrMeta) -> usize {
    if !(a.ascii_prefix && b.ascii_prefix) {
        return 4;
    }
    let diff = u32::from_le_bytes(a.prefix) ^ u32::from_le_bytes(b.prefix);
    ((diff.trailing_zeros() / 8) as usize).min(a.prefix_len.min(b.prefix_len) as usize)
}

/// Upper bound on the Levenshtein similarity of two attributes: every
/// alignment pays at least `||a|-|b||` insertions/deletions, and at most
/// [`AttrMeta::hist_common`] character pairings can be free, so
/// `d ≥ max_len − Σ min` when both histograms are valid.
fn lev_attr_ub(a: &AttrMeta, b: &AttrMeta) -> f64 {
    let (la, lb) = (a.chars as usize, b.chars as usize);
    let lmax = la.max(lb);
    if lmax == 0 {
        return 1.0;
    }
    let d_min = if a.hist_valid && b.hist_valid {
        lmax - a.hist_common(b).min(lmax)
    } else {
        la.abs_diff(lb)
    };
    1.0 - d_min as f64 / lmax as f64
}

/// Decision-only overlap test: `overlap_sorted(a, b) ≥ t`. The required
/// count is the smallest integer whose overlap clears `t - BOUND_SLACK`;
/// a pair whose signature bound ([`sig_common`]) is below it is rejected
/// with no merge, and the merge itself aborts as soon as the
/// intersection found plus the elements left on the shorter side cannot
/// reach it. Either rejection certifies the canonical value is below
/// `t`; a completed merge compares the canonical expression itself.
fn overlap_ge(pa: InternedProfile<'_>, pb: InternedProfile<'_>, t: f64) -> bool {
    let (a, b) = (pa.tokens, pb.tokens);
    if a.is_empty() && b.is_empty() {
        return 1.0 >= t; // canonical value for two empty token sets
    }
    if a.is_empty() || b.is_empty() {
        return 0.0 >= t;
    }
    let lmin = a.len().min(b.len());
    let lminf = lmin as f64;
    let mut req = {
        let est = (t - BOUND_SLACK) * lminf;
        if est <= 0.0 {
            0
        } else {
            est.floor() as usize
        }
    };
    while req <= lmin && (req as f64 / lminf) < t - BOUND_SLACK {
        req += 1;
    }
    if sig_common(pa.sig, pb.sig) < req {
        return false; // the intersection is at most the signature bound
    }
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        if inter + (a.len() - i).min(b.len() - j) < req {
            return false; // intersection can no longer reach `req`
        }
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    // The canonical `overlap_sorted` expression on the exact count.
    inter as f64 / a.len().min(b.len()) as f64 >= t
}

/// Threshold-aware Levenshtein similarity: `None` only when the score
/// is provably below `min_sim`, otherwise `Some` with bits identical to
/// [`levenshtein_sim`]. The required similarity translates into a
/// distance cutoff (rounded up, plus one, so the slack covers the f64
/// boundary) for the banded DP.
fn lev_sim_ge(a: &str, b: &str, lmax_chars: usize, min_sim: f64) -> Option<f64> {
    if lmax_chars == 0 {
        return Some(1.0); // canonical value for two empty attributes
    }
    if min_sim > 1.0 + BOUND_SLACK {
        return None; // similarity is capped at 1.0
    }
    let lmaxf = lmax_chars as f64;
    let kf = (1.0 - min_sim + BOUND_SLACK) * lmaxf;
    let k = if kf <= 0.0 { 0 } else { kf.floor() as usize } + 1;
    let d = levenshtein_within(a, b, k)?;
    Some(1.0 - d as f64 / lmaxf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ErConfig;
    use queryer_storage::{Schema, Table, Value};

    fn table() -> Table {
        let mut t = Table::new("p", Schema::of_strings(&["id", "title", "venue"]));
        let rows = [
            ("0", "collective entity resolution", "edbt"),
            ("1", "collective entity resolutoin", "edbt"),
            ("2", "query driven entity resolution", "vldb"),
            ("3", "deep learning for vision", "cvpr"),
            ("4", "café métadonnées", "münchen"),
        ];
        for (id, title, venue) in rows {
            t.push_row(vec![id.into(), title.into(), venue.into()])
                .unwrap();
        }
        t
    }

    /// A table over `columns` whose rows are `rows`, `""` standing for
    /// NULL, indexed under the default configuration (which skips a
    /// column named `id`).
    fn indexed(columns: &[&str], rows: &[&[&str]]) -> TableErIndex {
        let mut t = Table::new("p", Schema::of_strings(columns));
        for row in rows {
            let values = row
                .iter()
                .map(|v| {
                    if v.is_empty() {
                        Value::Null
                    } else {
                        Value::str(*v)
                    }
                })
                .collect();
            t.push_row(values).unwrap();
        }
        TableErIndex::build(&t, &ErConfig::default())
    }

    #[test]
    fn decisions_match_canonical_similarity_for_all_kinds() {
        let t = table();
        let idx = TableErIndex::build(&t, &ErConfig::default());
        for kind in [
            SimilarityKind::MeanJaroWinkler,
            SimilarityKind::MeanLevenshtein,
            SimilarityKind::TokenJaccard,
            SimilarityKind::TokenOverlap,
            SimilarityKind::Hybrid,
        ] {
            for thr in [0.0, 0.5, 0.85, 0.95, 1.0] {
                let compiled = CompiledMatcher::new(kind, thr, &idx);
                let mut scratch = KernelScratch::new();
                for q in 0..t.len() as RecordId {
                    for c in 0..t.len() as RecordId {
                        assert_eq!(
                            compiled.decide(q, c, &mut scratch),
                            compiled.similarity(q, c) >= thr,
                            "decision diverged on ({q}, {c}) {kind:?} thr {thr}"
                        );
                    }
                }
            }
        }
    }

    /// Token-kernel decisions at the overlap threshold. Per size `l`, a
    /// record of `l` words is paired with records sharing exactly
    /// `⌈0.85·l⌉` of them and one fewer, each as long as it and three
    /// words longer. Every pair is decided like the canonical similarity
    /// under the three token kinds, and of the pairs one short of the
    /// threshold the signature rejects some while the merge decides the
    /// others.
    #[test]
    fn token_kernels_decide_at_the_overlap_threshold() {
        let t = 0.85;
        let mut titles: Vec<String> = Vec::new();
        let mut pairs: Vec<(RecordId, RecordId, usize)> = Vec::new();
        for l in [5usize, 7, 10, 13, 17, 20, 27, 33, 40, 60] {
            let req = (85 * l).div_ceil(100);
            let a = titles.len() as RecordId;
            let own = |i: usize| format!("a{l}x{i}");
            titles.push((0..l).map(own).collect::<Vec<_>>().join(" "));
            for (shared, extra) in [(req, 0), (req - 1, 0), (req, 3), (req - 1, 3)] {
                let fresh = (0..l - shared + extra).map(|i| format!("f{l}s{shared}e{extra}x{i}"));
                let words: Vec<String> = (0..shared).map(own).chain(fresh).collect();
                pairs.push((a, titles.len() as RecordId, shared));
                titles.push(words.join(" "));
            }
        }
        let rows: Vec<[&str; 1]> = titles.iter().map(|title| [title.as_str()]).collect();
        let rows: Vec<&[&str]> = rows.iter().map(|r| r.as_slice()).collect();
        let idx = indexed(&["title"], &rows);

        let mut scratch = KernelScratch::new();
        for kind in [
            SimilarityKind::TokenOverlap,
            SimilarityKind::TokenJaccard,
            SimilarityKind::Hybrid,
        ] {
            let m = CompiledMatcher::new(kind, t, &idx);
            for &(a, b, _) in &pairs {
                assert_eq!(
                    m.decide(a, b, &mut scratch),
                    m.similarity(a, b) >= t,
                    "({a}, {b}) {kind:?}"
                );
            }
        }
        let overlap = CompiledMatcher::new(SimilarityKind::TokenOverlap, t, &idx);
        let (mut sig_rejects, mut merge_decides) = (0, 0);
        for &(a, b, shared) in &pairs {
            let (pa, pb) = (idx.profile(a), idx.profile(b));
            let req = (85 * pa.tokens.len()).div_ceil(100);
            assert_eq!(
                overlap.decide(a, b, &mut scratch),
                shared == req,
                "({a}, {b})"
            );
            if shared < req {
                if sig_common(pa.sig, pb.sig) < req {
                    sig_rejects += 1;
                } else {
                    merge_decides += 1;
                }
            }
        }
        assert!(
            sig_rejects > 0 && merge_decides > 0,
            "{sig_rejects} / {merge_decides}"
        );
    }

    #[test]
    fn prefix_ub_is_the_common_prefix_of_ascii_prefixes() {
        let words = [
            "", "a", "ab", "abc", "abcd", "abce", "abd", "b", "ba", "abcdz", "a1c", "ab d",
        ];
        for x in words {
            for y in words {
                let (mx, my) = (AttrMeta::of(x), AttrMeta::of(y));
                let common = x.bytes().zip(y.bytes()).take(4).take_while(|(p, q)| p == q);
                assert_eq!(prefix_ub(&mx, &my), common.count(), "{x:?} {y:?}");
            }
        }
        assert_eq!(prefix_ub(&AttrMeta::of("é"), &AttrMeta::of("e")), 4);
    }

    #[test]
    fn kernel_resolution_follows_kind() {
        let t = table();
        let idx = TableErIndex::build(&t, &ErConfig::default());
        let compiled = CompiledMatcher::new(SimilarityKind::Hybrid, 0.85, &idx);
        assert_eq!(compiled.kernel(), CompareKernel::Hybrid);
        assert!((compiled.threshold() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn typo_duplicates_match_with_jw() {
        let idx = indexed(
            &["name", "street", "city"],
            &[
                &["jonathan smith", "23 baker street", "london"],
                &["jonathon smith", "23 baker stret", "london"],
                &["maria garcia", "99 ocean avenue", "london"],
            ],
        );
        let m = CompiledMatcher::new(SimilarityKind::MeanJaroWinkler, 0.85, &idx);
        let mut scratch = KernelScratch::new();
        assert!(m.decide(0, 1, &mut scratch));
        assert!(!m.decide(0, 2, &mut scratch));
    }

    #[test]
    fn nulls_are_skipped_not_penalized() {
        let idx = indexed(
            &["title", "year"],
            &[
                &["entity resolution", ""],
                &["entity resolution", "2008"],
                &["", ""],
            ],
        );
        let m = CompiledMatcher::new(SimilarityKind::MeanJaroWinkler, 0.9, &idx);
        let mut scratch = KernelScratch::new();
        assert!(m.decide(0, 1, &mut scratch));
        // An all-null record never matches, not even itself.
        assert!(!m.decide(2, 2, &mut scratch));
    }

    #[test]
    fn hybrid_catches_abbreviation_containment() {
        let conference = "International Conference on Extending Database Technology";
        let idx = indexed(
            &["venue", "full_name"],
            &[&["EDBT 2008", conference], &[conference, ""]],
        );
        let hybrid = CompiledMatcher::new(SimilarityKind::Hybrid, 0.8, &idx);
        let jw = CompiledMatcher::new(SimilarityKind::MeanJaroWinkler, 0.8, &idx);
        let mut scratch = KernelScratch::new();
        // Pure mean-JW fails here, and so would Jaccard (6 / 8 tokens);
        // token overlap (containment) succeeds.
        assert!(!jw.decide(0, 1, &mut scratch));
        assert!(hybrid.decide(0, 1, &mut scratch));
    }

    #[test]
    fn skip_col_excluded_from_similarity() {
        let idx = indexed(
            &["id", "text"],
            &[&["AAAA", "same text"], &["ZZZZ", "same text"]],
        );
        assert_eq!(idx.skip_col(), Some(0));
        let m = CompiledMatcher::new(SimilarityKind::MeanJaroWinkler, 0.99, &idx);
        let mut scratch = KernelScratch::new();
        assert!(
            m.decide(0, 1, &mut scratch),
            "differing id column must not count"
        );
    }

    #[test]
    fn similarity_symmetric() {
        let idx = indexed(
            &["title", "venue"],
            &[
                &["entity resolution on big data", "sigmod"],
                &["e.r on big data", "acm sigmod"],
            ],
        );
        let m = CompiledMatcher::new(SimilarityKind::Hybrid, 0.8, &idx);
        let mut scratch = KernelScratch::new();
        let (s1, s2) = (m.similarity(0, 1), m.similarity(1, 0));
        assert!((s1 - s2).abs() < 1e-12, "{s1} vs {s2}");
        assert_eq!(m.decide(0, 1, &mut scratch), m.decide(1, 0, &mut scratch));
    }
}
