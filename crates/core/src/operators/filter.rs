//! Row filters: the plain relational filter plus the cluster-aware
//! variant needed when a filter is evaluated over already-deduplicated
//! (or batch-cleaned) data. Both read the predicate's columns from the
//! stored tables through each row's refs.

use crate::binding::BoundSchema;
use crate::error::Result;
use crate::operators::{drain, non_empty, ExecContext, Operator};
use crate::tuple::{Batch, EntityRef, RefRow};
use queryer_common::FxHashSet;
use queryer_sql::BoundExpr;
use queryer_storage::RecordId;
use std::sync::Arc;

/// A predicate bound against a layout, ready to test refs rows.
struct RowPredicate {
    ctx: Arc<ExecContext>,
    predicate: BoundExpr,
    locations: Vec<(usize, usize)>,
}

impl RowPredicate {
    fn holds(&self, refs: &[EntityRef]) -> bool {
        self.predicate.eval_bool(&RefRow {
            tables: &self.ctx.tables,
            locations: &self.locations,
            refs,
        })
    }
}

/// Plain relational filter (batch-at-a-time).
pub struct FilterOp {
    input: Box<dyn Operator>,
    predicate: RowPredicate,
}

impl FilterOp {
    /// Creates a filter over `input`, whose rows have layout `schema`.
    pub fn new(
        ctx: Arc<ExecContext>,
        input: Box<dyn Operator>,
        predicate: BoundExpr,
        schema: &BoundSchema,
    ) -> Self {
        Self {
            input,
            predicate: RowPredicate {
                ctx,
                predicate,
                locations: schema.locations(),
            },
        }
    }
}

impl Operator for FilterOp {
    fn next(&mut self) -> Result<Option<Batch>> {
        while let Some(mut batch) = self.input.next()? {
            batch.retain(|refs| self.predicate.holds(refs));
            if !batch.is_empty() {
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }
}

/// Cluster-aware filter over resolved/cluster-annotated single-table
/// streams: keeps **every member** of a cluster in which at least one
/// member satisfies the predicate. This is the filter semantics a query
/// over deduplicated grouped entities has — a hyper-entity matches when
/// any of its fused values matches — used by the Batch Approach plans and
/// by the Fig. 5 naive plan where Deduplicate sits below the filter.
pub struct ClusterFilterOp {
    input: Option<Box<dyn Operator>>,
    predicate: RowPredicate,
}

impl ClusterFilterOp {
    /// Creates a cluster-aware filter over `input`, whose rows have
    /// layout `schema`.
    pub fn new(
        ctx: Arc<ExecContext>,
        input: Box<dyn Operator>,
        predicate: BoundExpr,
        schema: &BoundSchema,
    ) -> Self {
        Self {
            input: Some(input),
            predicate: RowPredicate {
                ctx,
                predicate,
                locations: schema.locations(),
            },
        }
    }
}

impl Operator for ClusterFilterOp {
    fn next(&mut self) -> Result<Option<Batch>> {
        let Some(mut input) = self.input.take() else {
            return Ok(None);
        };
        let mut rows = drain(input.as_mut())?;
        let mut passing_clusters: FxHashSet<(usize, RecordId)> = FxHashSet::default();
        for refs in rows.rows() {
            if self.predicate.holds(refs) {
                passing_clusters.extend(refs.iter().map(|e| (e.table, e.cluster)));
            }
        }
        rows.retain(|refs| {
            refs.iter()
                .all(|e| passing_clusters.contains(&(e.table, e.cluster)))
        });
        Ok(non_empty(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::VecOperator;
    use parking_lot::Mutex;
    use queryer_sql::{bind, parse_select};
    use queryer_storage::{Schema, Table, Value};

    /// One column `a` holding 0..10; the filters see it through refs.
    fn setup() -> (Arc<ExecContext>, BoundSchema) {
        let mut t = Table::new("t", Schema::of_strings(&["a"]));
        for v in 0..10 {
            t.push_row(vec![Value::Int(v)]).unwrap();
        }
        let schema = BoundSchema::from_table("t", 0, &t);
        let ctx = Arc::new(ExecContext {
            tables: vec![Arc::new(t)],
            er: vec![],
            li: vec![],
            metrics: Mutex::new(Default::default()),
        });
        (ctx, schema)
    }

    fn pred(schema: &BoundSchema, s: &str) -> BoundExpr {
        let stmt = parse_select(&format!("SELECT * FROM t WHERE {s}")).unwrap();
        bind(&stmt.where_clause.unwrap(), schema).unwrap()
    }

    /// Rows of `(record, cluster)` pairs.
    fn input(rows: &[(RecordId, RecordId)]) -> Box<dyn Operator> {
        let mut b = Batch::new(1);
        for &(record, cluster) in rows {
            b.push(&[EntityRef {
                table: 0,
                record,
                cluster,
            }]);
        }
        Box::new(VecOperator::new(b))
    }

    fn records(b: &Batch) -> Vec<RecordId> {
        b.rows().map(|r| r[0].record).collect()
    }

    #[test]
    fn plain_filter_drops_rows() {
        let (ctx, schema) = setup();
        let p = pred(&schema, "a >= 3");
        let mut f = FilterOp::new(ctx, input(&[(1, 1), (5, 5)]), p, &schema);
        let out = drain(&mut f).unwrap();
        assert_eq!(records(&out), vec![5]);
    }

    #[test]
    fn cluster_filter_keeps_whole_cluster() {
        // Records 1 and 2 share cluster 1; only record 2 passes.
        let (ctx, schema) = setup();
        let p = pred(&schema, "a = 2");
        let mut f = ClusterFilterOp::new(ctx, input(&[(1, 1), (2, 1), (9, 9)]), p, &schema);
        let out = drain(&mut f).unwrap();
        assert_eq!(
            records(&out),
            vec![1, 2],
            "both members of cluster 1 survive"
        );
    }

    #[test]
    fn cluster_filter_drops_fully_failing_cluster() {
        let (ctx, schema) = setup();
        let p = pred(&schema, "a = 99");
        let mut f = ClusterFilterOp::new(ctx, input(&[(1, 1), (2, 1)]), p, &schema);
        assert!(f.next().unwrap().is_none());
    }
}
