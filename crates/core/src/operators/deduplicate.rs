//! The Deduplicate operator (Sec. 6.1) — "the key concept of ER
//! integration into traditional query processing".
//!
//! It consumes the (filtered) rows of a single table — the query entity
//! set QE_E — and emits its super-set DR_E: one ref per record of
//! QE_E ∪ duplicates, each annotated with its duplicate-cluster id. The
//! internal pipeline (Query Blocking → Block-Join → Meta-Blocking →
//! Comparison-Execution, Fig. 3) lives in `queryer_er::resolver`; this
//! operator contributes the relational plumbing and metrics accounting.

use crate::error::Result;
use crate::operators::{drain, non_empty, ExecContext, Operator};
use crate::tuple::{Batch, EntityRef};
use queryer_er::{DedupMetrics, ResolveRequest};
use queryer_storage::RecordId;
use std::sync::Arc;

/// Pipeline-breaking Deduplicate operator over one table's rows.
pub struct DeduplicateOp {
    ctx: Arc<ExecContext>,
    input: Option<Box<dyn Operator>>,
    table_idx: usize,
}

impl DeduplicateOp {
    /// Creates the operator; `input` must produce rows of table
    /// `table_idx` only.
    pub fn new(ctx: Arc<ExecContext>, input: Box<dyn Operator>, table_idx: usize) -> Self {
        Self {
            ctx,
            input: Some(input),
            table_idx,
        }
    }
}

impl Operator for DeduplicateOp {
    fn next(&mut self) -> Result<Option<Batch>> {
        let Some(mut input) = self.input.take() else {
            return Ok(None);
        };
        let qe: Vec<RecordId> = drain(input.as_mut())?
            .rows()
            .map(|refs| refs[0].record)
            .collect();
        Ok(non_empty(resolve_to_refs(&self.ctx, self.table_idx, &qe)?))
    }
}

/// Shared resolution plumbing (also used by the Deduplicate-Join
/// operator): resolves `qe` against its table, merges ER metrics into the
/// query metrics, and returns DR_E as one-slot rows annotated with the
/// cluster ids the resolve read off the Link Index. A failed resolve (a
/// poisoned index, a lost worker) is the query's error.
pub fn resolve_to_refs(ctx: &ExecContext, table_idx: usize, qe: &[RecordId]) -> Result<Batch> {
    let table = &ctx.tables[table_idx];
    let er = &ctx.er[table_idx];
    let mut er_metrics = DedupMetrics::default();

    // Shared-LI resolve: concurrent queries over the same table proceed
    // simultaneously — the resolver takes short read locks for its LI
    // probes and one brief write section to commit its link delta,
    // instead of owning the write lock for the whole resolve.
    let outcome =
        er.run(ResolveRequest::records(table, qe, &*ctx.li[table_idx]).metrics(&mut er_metrics))?;

    let mut refs = Batch::with_capacity(1, outcome.dr.len());
    for (&record, &cluster) in outcome.dr.iter().zip(&outcome.clusters) {
        refs.push(&[EntityRef {
            table: table_idx,
            record,
            cluster,
        }]);
    }

    let mut m = ctx.metrics.lock();
    m.er.merge(&er_metrics);
    m.qe_entities += qe.len() as u64;
    m.dr_entities += outcome.dr.len() as u64;
    Ok(refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::scan::TableScanOp;
    use crate::operators::VecOperator;
    use parking_lot::{Mutex, RwLock};
    use queryer_er::{ErConfig, LinkIndex, TableErIndex};
    use queryer_storage::{Schema, Table};

    fn make_ctx() -> Arc<ExecContext> {
        let mut t = Table::new("p", Schema::of_strings(&["id", "title"]));
        t.push_row(vec!["0".into(), "collective entity resolution".into()])
            .unwrap();
        t.push_row(vec!["1".into(), "collective entity resolutoin".into()])
            .unwrap();
        t.push_row(vec!["2".into(), "something else entirely".into()])
            .unwrap();
        let cfg = ErConfig::default();
        let er = TableErIndex::build(&t, &cfg);
        let li = LinkIndex::new(t.len());
        Arc::new(ExecContext {
            tables: vec![Arc::new(t)],
            er: vec![Arc::new(er)],
            li: vec![Arc::new(RwLock::new(li))],
            metrics: Mutex::new(Default::default()),
        })
    }

    #[test]
    fn emits_qe_plus_duplicates_with_clusters() {
        let ctx = make_ctx();
        // QE = {0} only; its duplicate 1 must be pulled in.
        let mut only_zero = drain(&mut TableScanOp::new(ctx.clone(), 0, None)).unwrap();
        only_zero.retain(|refs| refs[0].record == 0);
        let mut op = DeduplicateOp::new(ctx.clone(), Box::new(VecOperator::new(only_zero)), 0);
        let out = drain(&mut op).unwrap();
        let ids: Vec<RecordId> = out.rows().map(|refs| refs[0].record).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(out.row(0)[0].cluster, out.row(1)[0].cluster);
        let m = ctx.metrics.lock();
        assert_eq!(m.qe_entities, 1);
        assert_eq!(m.dr_entities, 2);
        assert!(m.er.comparisons > 0);
    }

    #[test]
    fn unrelated_record_stays_singleton() {
        let ctx = make_ctx();
        let scan = TableScanOp::new(ctx.clone(), 0, None);
        let mut op = DeduplicateOp::new(ctx.clone(), Box::new(scan), 0);
        let out = drain(&mut op).unwrap();
        assert_eq!(out.len(), 3);
        let r2 = out.rows().find(|refs| refs[0].record == 2).unwrap();
        assert_eq!(r2[0].cluster, 2);
    }
}
