//! Table scan, with the filter over a base table evaluated inside it.

use crate::error::Result;
use crate::operators::{non_empty, ExecContext, Operator};
use crate::tuple::{Batch, EntityRef};
use queryer_sql::{BoundExpr, CompareOp};
use queryer_storage::{RecordId, Table, Value};
use std::ops::Bound;
use std::sync::Arc;

/// Rows per batch the streaming operators emit.
pub const BATCH_ROWS: usize = 1024;

/// Scans a base table, emitting one ref per record, in batches. In
/// Batch mode the scan annotates each record with its batch-computed
/// cluster; otherwise every record starts as its own cluster.
///
/// With a predicate, the scan tests each record in place and emits only
/// the records that pass. When a conjunct of the predicate is sargable,
/// the table's selection index narrows the records visited to its
/// candidates; the full predicate is still tested on each, so the output
/// — rows and order — is the full scan's.
pub struct TableScanOp {
    ctx: Arc<ExecContext>,
    table_idx: usize,
    cluster_of: Option<Arc<Vec<RecordId>>>,
    predicate: Option<BoundExpr>,
    /// The records left to visit, chosen on the first `next`.
    rows: Option<Rows>,
}

enum Rows {
    /// Every record from this id on.
    All(RecordId),
    /// The selection index's candidates, ascending.
    Candidates(std::vec::IntoIter<RecordId>),
}

impl TableScanOp {
    /// Creates a scan over `table_idx`, optionally with a precomputed
    /// record → cluster map (Batch Approach).
    pub fn new(
        ctx: Arc<ExecContext>,
        table_idx: usize,
        cluster_of: Option<Arc<Vec<RecordId>>>,
    ) -> Self {
        Self {
            ctx,
            table_idx,
            cluster_of,
            predicate: None,
            rows: None,
        }
    }

    /// Emits only the records that satisfy `predicate`, bound against
    /// the table's own column layout.
    pub fn with_predicate(mut self, predicate: BoundExpr) -> Self {
        self.predicate = Some(predicate);
        self
    }
}

impl Operator for TableScanOp {
    fn next(&mut self) -> Result<Option<Batch>> {
        let table = &self.ctx.tables[self.table_idx];
        let predicate = self.predicate.as_ref();
        let rows = self.rows.get_or_insert_with(|| {
            let (visits, rows) = match predicate.and_then(|p| candidates(table, p)) {
                Some(ids) => (ids.len(), Rows::Candidates(ids.into_iter())),
                None => (table.len(), Rows::All(0)),
            };
            self.ctx.metrics.lock().rows_scanned += visits as u64;
            rows
        });
        // A candidate list is the batch's exact bound; a full scan's
        // predicate may reject most records, so its batch grows.
        let mut batch = match rows {
            Rows::Candidates(ids) => Batch::with_capacity(1, ids.len().min(BATCH_ROWS)),
            Rows::All(_) => Batch::new(1),
        };
        while batch.len() < BATCH_ROWS {
            let id = match rows {
                Rows::All(next) if (*next as usize) < table.len() => {
                    *next += 1;
                    *next - 1
                }
                Rows::Candidates(ids) => match ids.next() {
                    Some(id) => id,
                    None => break,
                },
                Rows::All(_) => break,
            };
            let values = &table.record_unchecked(id).values;
            if predicate.is_some_and(|p| !p.eval_bool(values)) {
                continue;
            }
            let cluster = match &self.cluster_of {
                Some(map) => map[id as usize],
                None => id,
            };
            batch.push(&[EntityRef {
                table: self.table_idx,
                record: id,
                cluster,
            }]);
        }
        Ok(non_empty(batch))
    }
}

/// A `(lower, upper)` interval one sargable conjunct puts on a column.
type Interval<'a> = (usize, Bound<&'a Value>, Bound<&'a Value>);

/// The records the selection index narrows `predicate` to, ascending:
/// the candidates of the column whose sargable conjuncts leave the
/// fewest. `None` — visit every record — when no conjunct is sargable,
/// no touched column is indexed, or the fewest is more than half the
/// table (sorting that many ids costs more than reading the rest).
fn candidates(table: &Table, predicate: &BoundExpr) -> Option<Vec<RecordId>> {
    let mut intervals: Vec<Interval<'_>> = Vec::new();
    sargable(predicate, &mut intervals);
    intervals.sort_unstable_by_key(|&(col, ..)| col);
    let fewest = intervals
        .chunk_by(|a, b| a.0 == b.0)
        .filter_map(|on_col| {
            table.value_range(on_col[0].0, on_col.iter().map(|&(_, lo, hi)| (lo, hi)))
        })
        .min_by_key(|ids| ids.len())?;
    if fewest.len() > table.len() / 2 {
        return None;
    }
    let mut ids = fewest.to_vec();
    ids.sort_unstable();
    Some(ids)
}

/// Collects the sargable conjuncts of `expr`: `=`, `<`, `<=`, `>`, `>=`
/// and non-negated `BETWEEN` between a column and non-NULL literals,
/// under any number of `AND`s. Everything else is left to the recheck.
fn sargable<'a>(expr: &'a BoundExpr, out: &mut Vec<Interval<'a>>) {
    use Bound::{Excluded, Included, Unbounded};
    let literal = |e: &'a BoundExpr| match e {
        BoundExpr::Literal(v) if !v.is_null() => Some(v),
        _ => None,
    };
    match expr {
        BoundExpr::And(l, r) => {
            sargable(l, out);
            sargable(r, out);
        }
        BoundExpr::Compare { left, op, right } => {
            // `literal op column` reads as `column op' literal`.
            let (col, op, v) = match (left.as_ref(), right.as_ref()) {
                (BoundExpr::Column(c), r) => match literal(r) {
                    Some(v) => (*c, *op, v),
                    None => return,
                },
                (l, BoundExpr::Column(c)) => match literal(l) {
                    Some(v) => (*c, flip(*op), v),
                    None => return,
                },
                _ => return,
            };
            out.push(match op {
                CompareOp::Eq => (col, Included(v), Included(v)),
                CompareOp::Lt => (col, Unbounded, Excluded(v)),
                CompareOp::Le => (col, Unbounded, Included(v)),
                CompareOp::Gt => (col, Excluded(v), Unbounded),
                CompareOp::Ge => (col, Included(v), Unbounded),
                CompareOp::Neq => return,
            });
        }
        BoundExpr::Between {
            expr,
            low,
            high,
            negated: false,
        } => {
            if let (BoundExpr::Column(col), Some(lo), Some(hi)) =
                (expr.as_ref(), literal(low), literal(high))
            {
                out.push((*col, Included(lo), Included(hi)));
            }
        }
        _ => {}
    }
}

/// The operator that keeps `a op b` true with the operands swapped.
fn flip(op: CompareOp) -> CompareOp {
    match op {
        CompareOp::Lt => CompareOp::Gt,
        CompareOp::Le => CompareOp::Ge,
        CompareOp::Gt => CompareOp::Lt,
        CompareOp::Ge => CompareOp::Le,
        symmetric => symmetric,
    }
}
