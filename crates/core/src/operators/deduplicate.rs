//! The Deduplicate operator (Sec. 6.1) — "the key concept of ER
//! integration into traditional query processing".
//!
//! It consumes the (filtered) tuples of a single table — the query entity
//! set QE_E — and emits its super-set DR_E: one tuple per record of
//! QE_E ∪ duplicates, each annotated with its duplicate-cluster id. The
//! internal pipeline (Query Blocking → Block-Join → Meta-Blocking →
//! Comparison-Execution, Fig. 3) lives in `queryer_er::resolver`; this
//! operator contributes the relational plumbing and metrics accounting.

use crate::operators::{drain, ExecContext, Operator};
use crate::tuple::{EntityRef, Tuple};
use queryer_er::{DedupMetrics, ResolveRequest};
use queryer_storage::RecordId;
use std::sync::Arc;

/// Pipeline-breaking Deduplicate operator over one table's tuples.
pub struct DeduplicateOp {
    ctx: Arc<ExecContext>,
    input: Option<Box<dyn Operator>>,
    table_idx: usize,
    output: std::vec::IntoIter<Tuple>,
}

impl DeduplicateOp {
    /// Creates the operator; `input` must produce tuples of table
    /// `table_idx` only.
    pub fn new(ctx: Arc<ExecContext>, input: Box<dyn Operator>, table_idx: usize) -> Self {
        Self {
            ctx,
            input: Some(input),
            table_idx,
            output: Vec::new().into_iter(),
        }
    }

    fn materialize(&mut self, mut input: Box<dyn Operator>) {
        let qe: Vec<RecordId> = drain(input.as_mut())
            .into_iter()
            .map(|t| t.entities[0].record)
            .collect();
        let tuples = resolve_to_tuples(&self.ctx, self.table_idx, &qe);
        self.output = tuples.into_iter();
    }
}

impl Operator for DeduplicateOp {
    fn next(&mut self) -> Option<Tuple> {
        if let Some(input) = self.input.take() {
            self.materialize(input);
        }
        self.output.next()
    }
}

/// Shared resolution plumbing (also used by the Deduplicate-Join
/// operator): resolves `qe` against its table, merges ER metrics into the
/// query metrics, and renders DR_E as cluster-annotated tuples.
pub fn resolve_to_tuples(ctx: &Arc<ExecContext>, table_idx: usize, qe: &[RecordId]) -> Vec<Tuple> {
    let table = &ctx.tables[table_idx];
    let er = &ctx.er[table_idx];
    let mut er_metrics = DedupMetrics::default();

    // Shared-LI resolve: concurrent queries over the same table proceed
    // simultaneously — the resolver takes short read locks for its LI
    // probes and one brief write section to commit its link delta,
    // instead of owning the write lock for the whole resolve.
    //
    // invariant: the engine resolves a table against its own index
    // (same ctx slot), so the lengths always agree, and an unlimited
    // budget never reports WorkerPanicked unless a kernel truly died.
    let outcome = er
        .run(ResolveRequest::records(table, qe, &*ctx.li[table_idx]).metrics(&mut er_metrics))
        .expect("resolve against the table's own index");

    let cluster_of = {
        let li = ctx.li[table_idx].read();
        er.cluster_map(&li, &outcome.dr)
    };

    {
        let mut m = ctx.metrics.lock();
        m.er.merge(&er_metrics);
        m.qe_entities += qe.len() as u64;
        m.dr_entities += outcome.dr.len() as u64;
    }

    outcome
        .dr
        .iter()
        .map(|&id| {
            let record = table.record_unchecked(id);
            Tuple {
                values: record.values.clone(),
                entities: vec![EntityRef {
                    table: table_idx,
                    record: id,
                    cluster: *cluster_of.get(&id).unwrap_or(&id),
                }],
            }
        })
        .collect()
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
        let scan = TableScanOp::new(ctx.clone(), 0, None);
        let mut only_zero = Vec::new();
        let mut s = scan;
        while let Some(t) = s.next() {
            if t.entities[0].record == 0 {
                only_zero.push(t);
            }
        }
        let mut op = DeduplicateOp::new(ctx.clone(), Box::new(VecOperator::new(only_zero)), 0);
        let out = drain(&mut op);
        let ids: Vec<RecordId> = out.iter().map(|t| t.entities[0].record).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(out[0].entities[0].cluster, out[1].entities[0].cluster);
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
        let out = drain(&mut op);
        assert_eq!(out.len(), 3);
        let t2 = out.iter().find(|t| t.entities[0].record == 2).unwrap();
        assert_eq!(t2.entities[0].cluster, 2);
    }
}
