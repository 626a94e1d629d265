//! Query-level metrics: the measures reported across the paper's
//! evaluation — total time TT, executed comparisons (Figs. 9–13), and
//! the per-stage breakdown of Table 6.

use queryer_er::DedupMetrics;
use std::time::Duration;

/// Metrics of one query execution.
#[derive(Debug, Clone, Default)]
pub struct QueryMetrics {
    /// Total execution time (the paper's TT), including batch cleaning
    /// when running in Batch mode.
    pub total: Duration,
    /// Merged ER-pipeline metrics from every Deduplicate /
    /// Deduplicate-Join operator in the plan.
    pub er: DedupMetrics,
    /// Group-Entities time ("Group" in Table 6).
    pub grouping: Duration,
    /// Relational join time (hash joins, dedup-join matching).
    pub join: Duration,
    /// Batch cleaning time (Batch mode only).
    pub batch_clean: Duration,
    /// Number of query entities fed to Deduplicate operators (|QE|).
    pub qe_entities: u64,
    /// Number of entities in the deduplicated result sets (|DR|).
    pub dr_entities: u64,
    /// Result rows returned.
    pub rows_out: usize,
    /// Base-table records the scans visited: every record of the table,
    /// or only the selection index's candidates for a sargable filter.
    pub rows_scanned: u64,
    /// Branch comparison estimates computed by the cost-based planner
    /// (left branch, right branch), when AES planned a join.
    pub estimated_comparisons: Option<(u64, u64)>,
    /// Rendered physical plan.
    pub plan: String,
}

impl QueryMetrics {
    /// Executed pairwise comparisons.
    pub fn comparisons(&self) -> u64 {
        self.er.comparisons
    }

    /// Time not attributed to a named stage ("Other" in Table 6:
    /// table scans, filters, projection, parsing, planning).
    pub fn other(&self) -> Duration {
        let accounted = self.er.total_er() + self.grouping + self.join + self.batch_clean;
        self.total.saturating_sub(accounted)
    }

    /// Table 6 row: percentage share of each stage of the total time —
    /// (Block-Join, Meta-Blocking, Resolution, Group, Other). The
    /// Query-Blocking share is folded into Block-Join as in the paper's
    /// presentation.
    pub fn breakdown_percent(&self) -> [f64; 5] {
        let total = self.total.as_secs_f64();
        if total <= 0.0 {
            return [0.0; 5];
        }
        let pct = |d: Duration| 100.0 * d.as_secs_f64() / total;
        [
            pct(self.er.blocking + self.er.block_join),
            pct(self.er.meta_blocking()),
            pct(self.er.resolution),
            pct(self.grouping),
            pct(self.other() + self.join + self.batch_clean),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_is_unaccounted_remainder() {
        let mut m = QueryMetrics {
            total: Duration::from_millis(100),
            grouping: Duration::from_millis(10),
            ..Default::default()
        };
        m.er.resolution = Duration::from_millis(60);
        assert_eq!(m.other(), Duration::from_millis(30));
    }

    #[test]
    fn breakdown_sums_to_hundred() {
        let mut m = QueryMetrics {
            total: Duration::from_millis(200),
            ..Default::default()
        };
        m.er.blocking = Duration::from_millis(10);
        m.er.block_join = Duration::from_millis(10);
        m.er.purging = Duration::from_millis(5);
        m.er.filtering = Duration::from_millis(5);
        m.er.edge_pruning = Duration::from_millis(20);
        m.er.resolution = Duration::from_millis(100);
        m.grouping = Duration::from_millis(20);
        let b = m.breakdown_percent();
        let sum: f64 = b.iter().sum();
        assert!((sum - 100.0).abs() < 1.0, "{b:?}");
        assert!(b[2] > b[1], "resolution should dominate meta-blocking here");
    }

    #[test]
    fn zero_total_is_safe() {
        let m = QueryMetrics::default();
        assert_eq!(m.breakdown_percent(), [0.0; 5]);
        assert_eq!(m.other(), Duration::ZERO);
    }
}
