//! Edge Pruning (EP) — the comparison-refinement half of Meta-Blocking
//! (Sec. 4): build a blocking graph with one node per entity, one edge
//! per co-occurring pair, weight each edge with the likelihood that the
//! incident entities match, and discard low-weight edges.
//!
//! The threshold is node-centric (WNP): each entity's is the mean edge
//! weight of its neighbourhood in the whole blocking graph, swept once
//! at build ([`bulk_node_thresholds`]), and an edge survives if either
//! endpoint's threshold admits it. Survival is thus a function of the
//! table alone, never of the query that asks, which is what keeps a
//! Dedupe query equal to the batch approach under every weight scheme.

use crate::config::WeightScheme;
use crate::govern::{fan_out, ResolveError, ResolveStage};
use crate::index::{CooccurrenceScratch, TableErIndex};
use crate::resolver::RANK_AMORTIZE;
use queryer_common::FxHashMap;
use queryer_storage::RecordId;

/// Numeric slack for threshold comparisons, shared by every reader of
/// a WNP threshold (the node scan and a delta apply's vote-flip test),
/// so they can never disagree on an edge.
pub(crate) const EPS: f64 = 1e-12;

/// The one threshold comparison the pruning rule is built from: the
/// edge survives a threshold when its weight reaches it within [`EPS`].
#[inline]
pub(crate) fn keeps(w: f64, threshold: f64) -> bool {
    w + EPS >= threshold
}

/// Edge-weight computations over a table's blocking graph, kept as the
/// test oracles' public way to weigh edges: the resolver and the
/// threshold sweep call `weight_of` directly.
///
/// Owns a reusable [`CooccurrenceScratch`], so neighbourhood scans are
/// dense counter sweeps instead of per-entity hash maps — hence the
/// `&mut self` receiver on [`EdgePruner::neighborhood`].
pub struct EdgePruner<'a> {
    idx: &'a TableErIndex,
    scheme: WeightScheme,
    n_blocks: f64,
    scratch: CooccurrenceScratch,
}

/// Weight of the edge `(a, b)` under `scheme` given the common-block
/// count `cbs` (free function so neighbourhood scans can weight while
/// the pruner's scratch is borrowed). Bit-symmetric in `a` and `b`
/// under every scheme.
#[inline]
pub(crate) fn weight_of(
    idx: &TableErIndex,
    scheme: WeightScheme,
    n_blocks: f64,
    a: RecordId,
    b: RecordId,
    cbs: u32,
) -> f64 {
    match scheme {
        WeightScheme::Cbs => cbs as f64,
        WeightScheme::Ecbs => {
            let ba = idx.retained_blocks(a).len().max(1) as f64;
            let bb = idx.retained_blocks(b).len().max(1) as f64;
            // Multiply the two endpoint factors first: IEEE
            // multiplication commutes, so `weight_of(a, b)` and
            // `weight_of(b, a)` are bit-equal — the symmetry the
            // scan-order emission of node-centric pruning relies on.
            let la = (n_blocks / ba).ln().max(0.0);
            let lb = (n_blocks / bb).ln().max(0.0);
            cbs as f64 * (la * lb)
        }
        WeightScheme::Js => {
            let ba = idx.retained_blocks(a).len() as f64;
            let bb = idx.retained_blocks(b).len() as f64;
            let denom = ba + bb - cbs as f64;
            if denom <= 0.0 {
                1.0
            } else {
                cbs as f64 / denom
            }
        }
    }
}

impl<'a> EdgePruner<'a> {
    /// Creates a pruner bound to a table index.
    pub fn new(idx: &'a TableErIndex) -> Self {
        Self {
            idx,
            scheme: idx.config().weight_scheme,
            n_blocks: idx.n_unpurged_blocks().max(1) as f64,
            scratch: CooccurrenceScratch::new(),
        }
    }

    /// Weight of the edge `(a, b)` given their common-block count `cbs`.
    #[inline]
    pub fn weight(&self, a: RecordId, b: RecordId, cbs: u32) -> f64 {
        weight_of(self.idx, self.scheme, self.n_blocks, a, b, cbs)
    }

    /// The weighted neighbourhood of `e`: every distinct co-occurring
    /// entity in `e`'s retained blocks with its edge weight.
    pub fn neighborhood(&mut self, e: RecordId) -> Vec<(RecordId, f64)> {
        let Self {
            idx,
            scheme,
            n_blocks,
            scratch,
        } = self;
        idx.cooccurrences_into(e, scratch)
            .iter()
            .map(|&(other, cbs)| (other, weight_of(idx, *scheme, *n_blocks, e, other, cbs)))
            .collect()
    }
}

/// The WNP threshold accumulation over an already-materialized
/// neighbourhood: mean edge weight in the given order (0 when
/// isolated). This is the single definition every threshold producer
/// shares — the build's sweep and the delta apply's patch feed it the
/// same neighbourhood in the same first-touch order, so their `f64`
/// accumulation is bit-identical.
pub(crate) fn threshold_over(
    idx: &TableErIndex,
    scheme: WeightScheme,
    n_blocks: f64,
    e: RecordId,
    nbh: &[(RecordId, u32)],
) -> f64 {
    if nbh.is_empty() {
        return 0.0;
    }
    let sum = if scheme == WeightScheme::Cbs {
        // Whole-number weights: summing the counts as integers gives
        // the same f64 as accumulating them one by one (both are exact
        // far beyond any neighbourhood's total) without the serial
        // dependency of a float accumulator.
        nbh.iter().map(|&(_, cbs)| u64::from(cbs)).sum::<u64>() as f64
    } else {
        let mut sum = 0.0f64;
        for &(other, cbs) in nbh {
            sum += weight_of(idx, scheme, n_blocks, e, other, cbs);
        }
        sum
    };
    sum / nbh.len() as f64
}

/// One query's pair-generation dedup state, carried across its rounds
/// so no pair is emitted twice: the order in which the query scanned
/// the nodes of its frontiers, which decides where the node scan emits
/// each pair. A scanned node holds its 1-based sequence number, an
/// unscanned one reads 0, and a pair is emitted only at the endpoint
/// scanned first.
///
/// That is exact because a survivor row is a pure function of the
/// index and the node, and `weight_of` and the WNP union rule are
/// both symmetric — so a pair is in both endpoints' rows or in
/// neither. Emitting it at the endpoint scanned first therefore
/// reproduces the first-occurrence order of a carried pair set, with
/// one order read per edge instead of a hash insert per survivor; a
/// node scanned before emits nothing, its pairs all went out then.
///
/// A point query scans a handful of nodes, so the numbers start in a
/// small hash map; once the query has scanned 1/`RANK_AMORTIZE` of
/// the table they move, for good, into a dense per-record array — the
/// amortisation rule of the resolver's frontier dedup.
#[derive(Debug, Default)]
pub struct EpSeen {
    /// Nodes numbered so far (= the last number handed out).
    scanned: u32,
    sparse: FxHashMap<RecordId, u32>,
    /// Empty until promoted; then one slot per record.
    dense: Vec<u32>,
}

impl EpSeen {
    /// Fresh state for a new query.
    pub fn new() -> Self {
        Self::default()
    }

    /// `e`'s sequence number, 0 when the query has not scanned it.
    #[inline]
    pub(crate) fn get(&self, e: RecordId) -> u32 {
        if self.dense.is_empty() {
            self.sparse.get(&e).copied().unwrap_or(0)
        } else {
            self.dense[e as usize]
        }
    }

    /// Gives `e` the next sequence number unless it already has one,
    /// returning whether it did; `n_records` sizes the dense array.
    pub(crate) fn assign(&mut self, e: RecordId, n_records: usize) -> bool {
        if self.get(e) != 0 {
            return false;
        }
        self.scanned += 1;
        if self.dense.is_empty() && self.scanned as usize * RANK_AMORTIZE >= n_records {
            self.dense = vec![0; n_records];
            for (q, s) in std::mem::take(&mut self.sparse) {
                self.dense[q as usize] = s;
            }
        }
        if self.dense.is_empty() {
            self.sparse.insert(e, self.scanned);
        } else {
            self.dense[e as usize] = self.scanned;
        }
        true
    }

    /// Whether the node numbered `sq` emits its edge to `c`: it does
    /// unless `c` was scanned first, in which case `c` already has.
    #[inline]
    pub(crate) fn owns(&self, sq: u32, c: RecordId) -> bool {
        let sc = self.get(c);
        sc == 0 || sc > sq
    }
}

/// Bulk node-centric threshold pass: computes the WNP threshold of
/// *every* node of the table in one sweep, partitioning the node set
/// across `threads` workers (each with its own [`CooccurrenceScratch`]).
/// Each slot of the returned vector depends only on its own node's
/// neighbourhood, so the result is independent of the partitioning.
///
/// [`TableErIndex::build`] runs it once and keeps the vector, as does a
/// delta apply whose weights read global statistics (ECBS / JS). A
/// panicking worker surfaces as [`ResolveError::WorkerPanicked`] at the
/// build stage, and every worker's part is dropped with the error.
pub fn bulk_node_thresholds(idx: &TableErIndex, threads: usize) -> Result<Vec<f64>, ResolveError> {
    let scheme = idx.config().weight_scheme;
    let n_blocks = idx.n_unpurged_blocks().max(1) as f64;
    let parts = fan_out(
        idx.n_records(),
        threads,
        "build.thresholds.worker",
        ResolveStage::Build,
        |nodes| {
            let mut scratch = CooccurrenceScratch::new();
            nodes
                .map(|e| {
                    let e = e as RecordId;
                    let nbh = idx.cooccurrences_into(e, &mut scratch);
                    threshold_over(idx, scheme, n_blocks, e, nbh)
                })
                .collect::<Vec<f64>>()
        },
    )?;
    Ok(parts.concat())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ErConfig, MetaBlockingConfig};
    use queryer_storage::{Schema, Table};

    fn table() -> Table {
        let mut t = Table::new("p", Schema::of_strings(&["title"]));
        t.push_row(vec!["collective entity resolution edbt".into()])
            .unwrap();
        t.push_row(vec!["collective entity resolution edbt".into()])
            .unwrap();
        t.push_row(vec!["entity matching survey".into()]).unwrap();
        t.push_row(vec!["deep learning".into()]).unwrap();
        t
    }

    fn idx() -> TableErIndex {
        // No BP/BF: keep EP weight assertions independent of the other
        // meta-blocking stages (tiny fixtures trip the purging heuristic).
        TableErIndex::build(
            &table(),
            &ErConfig::default().with_meta(MetaBlockingConfig::None),
        )
    }

    #[test]
    fn cbs_weights_count_common_blocks() {
        let idx = idx();
        let mut ep = EdgePruner::new(&idx);
        let nbh = ep.neighborhood(0);
        let w1 = nbh.iter().find(|(e, _)| *e == 1).unwrap().1;
        let w2 = nbh.iter().find(|(e, _)| *e == 2).unwrap().1;
        assert_eq!(w1, 4.0); // shares all four tokens with record 1
        assert_eq!(w2, 1.0); // shares only "entity" with record 2
        assert!(nbh.iter().all(|(e, _)| *e != 3));
    }

    #[test]
    fn bulk_thresholds_are_neighbourhood_means() {
        // Node 0's mean weight is (4 + 1)/2 = 2.5; node 2 sees two
        // weight-1 edges; the isolated node 3 gets 0 — for any thread
        // count.
        let idx = idx();
        for threads in [1, 2, 7] {
            let th = bulk_node_thresholds(&idx, threads).unwrap();
            assert_eq!(th, vec![2.5, 2.5, 1.0, 0.0], "threads {threads}");
        }
        // Union semantics: the weak edge (0,2) fails node 0's vote but
        // node 2 keeps it.
        let th = bulk_node_thresholds(&idx, 1).unwrap();
        assert!(!keeps(1.0, th[0]) && keeps(1.0, th[2]));
    }

    #[test]
    fn bulk_vector_is_index_data_and_survives_clear() {
        // The build swept the vector; reads return the same buffer and a
        // cache clear leaves it in place.
        let idx = TableErIndex::build(&table(), &ErConfig::default());
        let swept = bulk_node_thresholds(&idx, 1).unwrap();
        assert_eq!(swept.len(), idx.n_records());
        assert_eq!(idx.bulk_ep_thresholds(), swept.as_slice());
        let before = idx.bulk_ep_thresholds().as_ptr();
        idx.clear_ep_cache();
        assert_eq!(idx.bulk_ep_thresholds().as_ptr(), before);
        assert_eq!(idx.bulk_ep_thresholds(), swept.as_slice());
    }

    proptest::proptest! {
        /// Every scheme weighs `(a, b)` and `(b, a)` to the same bits —
        /// the symmetry node-centric emission's scan-order rule rests
        /// on — over random tables whose records sit in 1..8 blocks of a
        /// 40-token vocabulary, for any common-block count.
        #[test]
        fn weight_of_is_bit_symmetric(
            rows in proptest::collection::vec(proptest::collection::vec(0usize..40, 1..8), 2..16),
            cbs in 0u32..64,
        ) {
            let mut t = Table::new("p", Schema::of_strings(&["title"]));
            for words in &rows {
                let text: Vec<String> = words.iter().map(|w| format!("w{w}")).collect();
                t.push_row(vec![text.join(" ").into()]).unwrap();
            }
            let idx = TableErIndex::build(&t, &ErConfig::default().with_meta(MetaBlockingConfig::None));
            let n_blocks = idx.n_unpurged_blocks().max(1) as f64;
            for scheme in [WeightScheme::Cbs, WeightScheme::Ecbs, WeightScheme::Js] {
                for a in 0..idx.n_records() as RecordId {
                    for b in 0..a {
                        let ab = weight_of(&idx, scheme, n_blocks, a, b, cbs);
                        let ba = weight_of(&idx, scheme, n_blocks, b, a, cbs);
                        proptest::prop_assert_eq!(ab.to_bits(), ba.to_bits(), "{:?} ({}, {})", scheme, a, b);
                    }
                }
            }
        }
    }

    /// The scan order numbers nodes 1, 2, … in assignment order, never
    /// renumbers one, reads 0 for the rest, and moves from the map to
    /// the dense array exactly when the scanned count reaches
    /// 1/`RANK_AMORTIZE` of the table (a table size that is a multiple
    /// of it and one that is not), carrying every number across.
    #[test]
    fn scan_order_numbers_once_and_promotes_at_the_amortisation_point() {
        for n in [13 * RANK_AMORTIZE, 420] {
            let promote_at = n.div_ceil(RANK_AMORTIZE);
            let mut order = EpSeen::new();
            // 11 is coprime to both sizes: a scan order unlike id order.
            let ids: Vec<RecordId> = (0..n).map(|i| (i * 11 % n) as RecordId).collect();
            for (k, &e) in ids.iter().enumerate().take(promote_at + 2) {
                assert!(order.assign(e, n));
                assert!(!order.assign(e, n), "renumbered {e}");
                let scanned = k + 1;
                assert_eq!(
                    order.dense.is_empty(),
                    scanned < promote_at,
                    "n {n}, after {scanned}"
                );
                for (j, &f) in ids.iter().enumerate() {
                    let want = if j <= k { j as u32 + 1 } else { 0 };
                    assert_eq!(order.get(f), want, "n {n}, after {scanned}, node {f}");
                }
            }
        }
    }

    #[test]
    fn ecbs_and_js_schemes_bounded() {
        let mut cfg = ErConfig::default().with_meta(MetaBlockingConfig::None);
        cfg.weight_scheme = WeightScheme::Ecbs;
        let i = TableErIndex::build(&table(), &cfg);
        let mut ep = EdgePruner::new(&i);
        for (_, w) in ep.neighborhood(0) {
            assert!(w >= 0.0);
        }
        cfg.weight_scheme = WeightScheme::Js;
        let i = TableErIndex::build(&table(), &cfg);
        let mut ep = EdgePruner::new(&i);
        for (_, w) in ep.neighborhood(0) {
            assert!((0.0..=1.0).contains(&w));
        }
    }
}
