//! Physical operators.
//!
//! QueryER "utilizes the established database pipelining architecture
//! where the output of an operator is passed to its parent by
//! implementing the Iterator Interface" (Sec. 7.2.2). Every operator
//! implements [`Operator`]; its `next` is fallible, so a failed resolve
//! reaches `QueryEngine::execute` as an error, not a panic.
//!
//! A row's values are needed only at the top of a plan, so they are
//! built once, there. Below that **materialisation point** operators
//! exchange [`Batch`]es of entity refs (table, record, cluster), and
//! read a value from the stored table only where they need one: the
//! scan for its predicate, the joins for their keys, a filter above a
//! join. The materialisation point — Group-Entities in an ER plan,
//! [`project::MaterializeOp`] in a plain one — builds each output row
//! with only the columns the Project or Aggregate above it reads, and
//! emits it as a `Vec<Value>`.
//!
//! Scan and filter stream batches of up to [`scan::BATCH_ROWS`] rows;
//! the ER operators and the joins' build sides are pipeline breakers
//! that drain their input on first `next`, like sorts in a classical
//! engine.

pub mod aggregate;
pub mod dedup_join;
pub mod deduplicate;
pub mod filter;
pub mod group_entities;
pub mod hash_join;
pub mod limit;
pub mod project;
pub mod scan;

use crate::error::Result;
use crate::metrics::QueryMetrics;
use crate::tuple::Batch;
use parking_lot::{Mutex, RwLock};
use queryer_er::{LinkIndex, TableErIndex};
use queryer_storage::{Table, Value};
use std::sync::Arc;

/// The Volcano iterator interface. Below the materialisation point an
/// operator produces [`Batch`]es of refs; above it, one row of values
/// (`Operator<Vec<Value>>`) at a time.
pub trait Operator<T = Batch> {
    /// Produces the next batch (never an empty one) or row, `Ok(None)`
    /// when exhausted, or the error that stopped the plan.
    fn next(&mut self) -> Result<Option<T>>;
}

/// Shared execution state: the catalog slice visible to this query plus
/// the metrics sink. The link indices are the live per-table LIs for
/// Dedupe queries, or the batch-cleaned LIs when running the Batch
/// Approach baseline.
pub struct ExecContext {
    /// Tables by catalog index.
    pub tables: Vec<Arc<Table>>,
    /// ER index per table.
    pub er: Vec<Arc<TableErIndex>>,
    /// Link index per table.
    pub li: Vec<Arc<RwLock<LinkIndex>>>,
    /// Metrics accumulated by the operators.
    pub metrics: Mutex<QueryMetrics>,
}

/// Drains a refs operator into one batch.
pub fn drain(op: &mut dyn Operator) -> Result<Batch> {
    let mut all = Batch::default();
    while let Some(batch) = op.next()? {
        all.append(batch);
    }
    Ok(all)
}

/// Drains a row operator.
pub fn drain_rows(op: &mut dyn Operator<Vec<Value>>) -> Result<Vec<Vec<Value>>> {
    let mut rows = Vec::new();
    while let Some(row) = op.next()? {
        rows.push(row);
    }
    Ok(rows)
}

/// A pre-built batch as an operator.
#[cfg(test)]
pub(crate) struct VecOperator {
    batch: Option<Batch>,
}

#[cfg(test)]
impl VecOperator {
    /// Emits `batch`, unless it is empty.
    pub fn new(batch: Batch) -> Self {
        Self {
            batch: non_empty(batch),
        }
    }
}

#[cfg(test)]
impl Operator for VecOperator {
    fn next(&mut self) -> Result<Option<Batch>> {
        Ok(self.batch.take())
    }
}

/// `batch` as the next output of an operator, which never emits an
/// empty batch. A pipeline breaker returns all it has this way from its
/// first `next`, and `Ok(None)` after.
fn non_empty(batch: Batch) -> Option<Batch> {
    Some(batch).filter(|b| !b.is_empty())
}
