//! Per-stage metrics of the Deduplicate operator, powering the paper's
//! Table 6 time breakdown and the comparison counts of Figs. 9–13.

use std::time::Duration;

/// Timings and counters accumulated by one or more `resolve` calls.
#[derive(Debug, Clone, Default)]
pub struct DedupMetrics {
    /// Query Blocking: building the QBI from the query entities. Always
    /// zero: every query entity is a record of the indexed table, whose
    /// QBI⋈TBI is its ITBI row — an index lookup paid at build time
    /// (the Block-Join lookup is timed in `block_join`). Kept so a
    /// Table 6 breakdown still has the column.
    pub blocking: Duration,
    /// Block-Join: hash-joining QBI keys against the TBI.
    pub block_join: Duration,
    /// Block Purging share of meta-blocking.
    pub purging: Duration,
    /// Block Filtering share of meta-blocking.
    pub filtering: Duration,
    /// Edge Pruning share of meta-blocking.
    pub edge_pruning: Duration,
    /// Comparison-Execution ("Resolution" in Table 6).
    pub resolution: Duration,
    /// Pairwise comparisons actually executed (the paper's "Comp." /
    /// "Executed Comparisons" measure).
    pub comparisons: u64,
    /// Candidate pairs that survived meta-blocking (before the
    /// executed-once / already-linked filters).
    pub candidate_pairs: u64,
    /// Matches found (links added).
    pub matches_found: u64,
    /// Entities whose link-sets were computed (not served from the LI).
    pub entities_processed: u64,
    /// Always 0: Edge Pruning keeps no cross-query memo any more (each
    /// survivor row is computed where it is used). The field stays until
    /// the benchmark stops reading it.
    pub ep_cache_hits: u64,
    /// Always 0, like [`DedupMetrics::ep_cache_hits`].
    pub ep_cache_misses: u64,
    /// Comparisons whose decision was served from the pair-keyed
    /// decision cache — kernel work skipped entirely. These pairs still
    /// count in `comparisons`: decision counts never depend on cache
    /// state.
    pub decision_cache_hits: u64,
    /// Comparisons that ran a kernel and memoized their decision.
    pub decision_cache_misses: u64,
    /// Candidate pairs that were scheduled for comparison but never
    /// compared because the [`ResolveBudget`](crate::ResolveBudget) was
    /// exhausted or the resolve was cancelled mid-round. Always 0 for a
    /// run whose outcome is [`Completion::Complete`](crate::Completion).
    pub pairs_uncompared: u64,
    /// Time spent waiting to acquire the shared Link Index lock
    /// (read snapshots + the final delta commit) when the request names
    /// a `&RwLock<LinkIndex>`. Always zero on a `&mut LinkIndex`, which
    /// takes no lock. This is the contention signal qbench reports as
    /// `er.link_index.lock_wait_ms`.
    pub lock_wait: Duration,
}

impl DedupMetrics {
    /// Total Meta-Blocking time (BP + BF + EP).
    pub fn meta_blocking(&self) -> Duration {
        self.purging + self.filtering + self.edge_pruning
    }

    /// Total time spent inside the ER pipeline.
    pub fn total_er(&self) -> Duration {
        self.blocking + self.block_join + self.meta_blocking() + self.resolution
    }

    /// Folds another metrics record into this one.
    pub fn merge(&mut self, other: &DedupMetrics) {
        self.blocking += other.blocking;
        self.block_join += other.block_join;
        self.purging += other.purging;
        self.filtering += other.filtering;
        self.edge_pruning += other.edge_pruning;
        self.resolution += other.resolution;
        self.comparisons += other.comparisons;
        self.candidate_pairs += other.candidate_pairs;
        self.matches_found += other.matches_found;
        self.entities_processed += other.entities_processed;
        self.ep_cache_hits += other.ep_cache_hits;
        self.ep_cache_misses += other.ep_cache_misses;
        self.decision_cache_hits += other.decision_cache_hits;
        self.decision_cache_misses += other.decision_cache_misses;
        self.pairs_uncompared += other.pairs_uncompared;
        self.lock_wait += other.lock_wait;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_everything() {
        let mut a = DedupMetrics {
            blocking: Duration::from_millis(1),
            comparisons: 10,
            matches_found: 2,
            ..Default::default()
        };
        let b = DedupMetrics {
            blocking: Duration::from_millis(2),
            resolution: Duration::from_millis(5),
            comparisons: 5,
            ep_cache_hits: 4,
            ep_cache_misses: 6,
            decision_cache_hits: 7,
            decision_cache_misses: 8,
            lock_wait: Duration::from_millis(4),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.blocking, Duration::from_millis(3));
        assert_eq!(a.comparisons, 15);
        assert_eq!(a.matches_found, 2);
        assert_eq!(a.ep_cache_hits, 4);
        assert_eq!(a.ep_cache_misses, 6);
        assert_eq!(a.decision_cache_hits, 7);
        assert_eq!(a.decision_cache_misses, 8);
        assert_eq!(a.lock_wait, Duration::from_millis(4));
        assert_eq!(a.total_er(), Duration::from_millis(8));
    }

    #[test]
    fn meta_blocking_sums_three_stages() {
        let m = DedupMetrics {
            purging: Duration::from_millis(1),
            filtering: Duration::from_millis(2),
            edge_pruning: Duration::from_millis(3),
            ..Default::default()
        };
        assert_eq!(m.meta_blocking(), Duration::from_millis(6));
    }
}
