//! Edge Pruning (EP) — the comparison-refinement half of Meta-Blocking
//! (Sec. 4): build a blocking graph with one node per entity, one edge
//! per co-occurring pair, weight each edge with the likelihood that the
//! incident entities match, and discard low-weight edges.
//!
//! Two threshold scopes are provided (see [`crate::config::EdgePruningScope`]):
//! node-centric (WNP-style, the default — deterministic per table, hence
//! query-stable) and global (WEP-style over the examined subgraph).

use crate::config::WeightScheme;
use crate::govern::{fan_out, ResolveError, ResolveStage};
use crate::index::{CooccurrenceScratch, TableErIndex};
use queryer_storage::RecordId;

/// Numeric slack for threshold comparisons, shared by every pruning
/// rule so the node-centric and global scopes can never drift apart.
pub(crate) const EPS: f64 = 1e-12;

/// The one threshold comparison all pruning rules are built from: the
/// edge survives a threshold when its weight reaches it within [`EPS`].
#[inline]
pub(crate) fn keeps(w: f64, threshold: f64) -> bool {
    w + EPS >= threshold
}

/// Edge-weight and pruning computations over a table's blocking graph.
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
/// the pruner's scratch is borrowed).
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
            cbs as f64 * (n_blocks / ba).ln().max(0.0) * (n_blocks / bb).ln().max(0.0)
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

/// Node-centric EP survivors of `e` over an already-materialized
/// neighbourhood: appends to `out` the neighbours whose edge `e` keeps
/// under the redefined-WNP union rule (either endpoint's threshold in
/// `th` admits the weight), in neighbourhood — first-touch scan —
/// order. The other endpoint's threshold is only read when `e`'s own
/// vote fails.
pub(crate) fn survivors_over(
    idx: &TableErIndex,
    scheme: WeightScheme,
    n_blocks: f64,
    e: RecordId,
    nbh: &[(RecordId, u32)],
    th: &[f64],
    out: &mut Vec<RecordId>,
) {
    let th_e = th[e as usize];
    for &(other, cbs) in nbh {
        let w = weight_of(idx, scheme, n_blocks, e, other, cbs);
        if keeps(w, th_e) || keeps(w, th[other as usize]) {
            out.push(other);
        }
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

/// Global (WEP-style) pruning over an explicit edge list: keeps edges
/// whose weight is at least the mean weight of the list.
pub fn prune_global(edges: &[(RecordId, RecordId, f64)]) -> Vec<(RecordId, RecordId)> {
    if edges.is_empty() {
        return Vec::new();
    }
    let mean = edges.iter().map(|(_, _, w)| w).sum::<f64>() / edges.len() as f64;
    edges
        .iter()
        .filter(|(_, _, w)| keeps(*w, mean))
        .map(|&(a, b, _)| (a, b))
        .collect()
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

    #[test]
    fn global_pruning_keeps_at_least_mean() {
        let edges = vec![(0, 1, 4.0), (0, 2, 1.0), (1, 2, 1.0)];
        let kept = prune_global(&edges);
        assert_eq!(kept, vec![(0, 1)]);
        assert!(prune_global(&[]).is_empty());
        // Uniform weights: everything survives.
        let uniform = vec![(0, 1, 2.0), (1, 2, 2.0)];
        assert_eq!(prune_global(&uniform).len(), 2);
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
