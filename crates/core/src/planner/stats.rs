//! Table-level ER statistics (Sec. 7.2.1(i), second half).
//!
//! "For the estimated |DR_E|, a sample of each table is eagerly cleaned
//! offline, during the initial data loading. From that, we calculate the
//! duplication factor df." — and — "we pre-compute for every table pair
//! the percentage of entities that join."

use crate::error::Result;
use crate::tuple::join_key;
use queryer_common::FxHashSet;
use queryer_er::{DedupMetrics, LinkIndex, ResolveRequest, TableErIndex};
use queryer_storage::{RecordId, Table, Value};

/// Records cleaned for the df estimate.
const DF_SAMPLE_TARGET: usize = 400;
/// Left-side records sampled for the join-percentage estimate.
const JOIN_SAMPLE_TARGET: usize = 1000;

/// Statistics of a registered table. The engine samples them on the
/// first read after registration or an ingest, not at load time: the
/// sample is cleaned through the table's own index, and no plan reads
/// the result.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Duplication factor df = |DR_sample| / |sample| (≥ 1.0): a df of
    /// 1.2 means a query's resolved result is expected to be 20% larger
    /// than its selected set.
    pub duplication_factor: f64,
    /// Sample size used.
    pub sample_size: usize,
}

/// Cleans a stride sample of the table (with a throwaway Link
/// Index, so the real LI stays cold) and derives the duplication factor
/// as the average duplicate-cluster size of the resolved sample — the
/// expansion |DR_E| / (distinct entities selected) a query should expect.
/// A failed resolve (a poisoned index, a lost worker) is the error.
pub fn compute_table_stats(table: &Table, er: &TableErIndex) -> Result<TableStats> {
    let n = table.len();
    if n == 0 {
        return Ok(TableStats {
            duplication_factor: 1.0,
            sample_size: 0,
        });
    }
    let stride = n.div_ceil(DF_SAMPLE_TARGET).max(1);
    let sample: Vec<RecordId> = (0..n).step_by(stride).map(|i| i as RecordId).collect();
    let mut li = LinkIndex::new(n);
    let mut metrics = DedupMetrics::default();
    let outcome = er.run(ResolveRequest::records(table, &sample, &mut li).metrics(&mut metrics))?;
    let clusters: FxHashSet<RecordId> = outcome.clusters.into_iter().collect();
    Ok(TableStats {
        duplication_factor: (outcome.dr.len() as f64 / clusters.len().max(1) as f64).max(1.0),
        sample_size: sample.len(),
    })
}

/// Percentage (0..=1) of sampled `left` records whose `left_col` value
/// occurs in `right`'s `right_col` column.
pub fn join_percentage(left: &Table, left_col: usize, right: &Table, right_col: usize) -> f64 {
    if left.is_empty() || right.is_empty() {
        return 0.0;
    }
    let right_keys: FxHashSet<Value> = right
        .records()
        .iter()
        .map(|r| join_key(r.value(right_col)).into_owned())
        .filter(|v| !v.is_null())
        .collect();
    let stride = left.len().div_ceil(JOIN_SAMPLE_TARGET).max(1);
    let mut hits = 0usize;
    let mut sampled = 0usize;
    let mut i = 0usize;
    while i < left.len() {
        sampled += 1;
        let key = join_key(left.record_unchecked(i as RecordId).value(left_col));
        if !key.is_null() && right_keys.contains(&*key) {
            hits += 1;
        }
        i += stride;
    }
    hits as f64 / sampled.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use queryer_er::ErConfig;
    use queryer_storage::Schema;

    #[test]
    fn df_reflects_duplicates() {
        let mut t = Table::new("p", Schema::of_strings(&["id", "title"]));
        for i in 0..30 {
            t.push_row(vec![
                format!("{i}").into(),
                format!("unique paper title number {i} zzz{i}").into(),
            ])
            .unwrap();
        }
        // Add near-duplicates of the first 10.
        for i in 0..10 {
            t.push_row(vec![
                format!("d{i}").into(),
                format!("unique paper title number {i} zzz{i} x").into(),
            ])
            .unwrap();
        }
        let er = TableErIndex::build(&t, &ErConfig::default());
        let stats = compute_table_stats(&t, &er).unwrap();
        assert!(stats.duplication_factor > 1.0, "{stats:?}");
        assert!(stats.sample_size > 0);
    }

    #[test]
    fn clean_table_df_is_one() {
        let mut t = Table::new("p", Schema::of_strings(&["id", "w"]));
        for i in 0..20 {
            t.push_row(vec![
                format!("{i}").into(),
                format!("word{i} alpha{i}").into(),
            ])
            .unwrap();
        }
        let er = TableErIndex::build(&t, &ErConfig::default());
        let stats = compute_table_stats(&t, &er).unwrap();
        assert!((stats.duplication_factor - 1.0).abs() < 1e-9);
    }

    #[test]
    fn join_percentage_counts_matches() {
        let mut a = Table::new("a", Schema::of_strings(&["k"]));
        let mut b = Table::new("b", Schema::of_strings(&["k"]));
        for i in 0..10 {
            a.push_row(vec![format!("k{i}").into()]).unwrap();
        }
        for i in 0..5 {
            b.push_row(vec![format!("k{i}").into()]).unwrap();
        }
        let pct = join_percentage(&a, 0, &b, 0);
        assert!((pct - 0.5).abs() < 1e-9);
        let pct_rev = join_percentage(&b, 0, &a, 0);
        assert!((pct_rev - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_tables_are_safe() {
        let t = Table::new("e", Schema::of_strings(&["id"]));
        let er = TableErIndex::build(&t, &ErConfig::default());
        let stats = compute_table_stats(&t, &er).unwrap();
        assert_eq!(stats.sample_size, 0);
        assert_eq!(join_percentage(&t, 0, &t, 0), 0.0);
    }
}
