//! Record-level hash equijoin.
//!
//! Used both as the plain SQL join and as the Deduplicate-Join Operation
//! of Alg. 2 once both sides are resolved: joining the *member records*
//! of two resolved sets produces a witnessing pair for every cluster pair
//! whose members join, and the downstream Group-Entities operator expands
//! each witnessed cluster pair to its full membership — equivalent to
//! Alg. 2's `E_left × E_right` Cartesian products after grouping.

use crate::error::Result;
use crate::operators::{drain, ExecContext, Operator};
use crate::tuple::{join_key, Batch, EntityRef};
use queryer_common::{FxHashMap, Stopwatch};
use queryer_storage::Value;
use std::sync::Arc;

/// Hash join: builds on the right input, probes with the left, and
/// emits one batch of joined rows per left batch that matched.
pub struct HashJoinOp {
    ctx: Arc<ExecContext>,
    left: Box<dyn Operator>,
    right: Option<Box<dyn Operator>>,
    /// `(slot, column)` of the join column within left rows.
    left_key: (usize, usize),
    /// `(slot, column)` of the join column within right rows.
    right_key: (usize, usize),
    /// The right rows, and the rows of each non-NULL key among them.
    build: Batch,
    table: FxHashMap<Value, Vec<usize>>,
}

impl HashJoinOp {
    /// Creates a join on `left[left_key] = right[right_key]`, each key
    /// the `(slot, column)` its side's rows read the join value from.
    pub fn new(
        ctx: Arc<ExecContext>,
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        left_key: (usize, usize),
        right_key: (usize, usize),
    ) -> Self {
        Self {
            ctx,
            left,
            right: Some(right),
            left_key,
            right_key,
            build: Batch::default(),
            table: FxHashMap::default(),
        }
    }

    fn key(&self, refs: &[EntityRef], (slot, col): (usize, usize)) -> &Value {
        refs[slot].value(&self.ctx.tables, col)
    }
}

impl Operator for HashJoinOp {
    fn next(&mut self) -> Result<Option<Batch>> {
        // Build phase on first call.
        if let Some(mut right) = self.right.take() {
            let mut sw = Stopwatch::new();
            sw.start();
            self.build = drain(right.as_mut())?;
            let mut table: FxHashMap<Value, Vec<usize>> = FxHashMap::default();
            for (i, refs) in self.build.rows().enumerate() {
                let key = join_key(self.key(refs, self.right_key));
                if !key.is_null() {
                    table.entry(key.into_owned()).or_default().push(i);
                }
            }
            self.table = table;
            sw.stop();
            self.ctx.metrics.lock().join += sw.elapsed();
        }
        while let Some(left) = self.left.next()? {
            let mut out = Batch::new(left.width() + self.build.width());
            for left_refs in left.rows() {
                let key = join_key(self.key(left_refs, self.left_key));
                if key.is_null() {
                    continue;
                }
                // Each left row's matches come out last-built first.
                for &ri in self.table.get(&*key).into_iter().flatten().rev() {
                    out.push(left_refs);
                    out.push(self.build.row(ri));
                }
            }
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::VecOperator;
    use parking_lot::Mutex;
    use queryer_storage::{Schema, Table};

    /// Table 0 holds the left keys, table 1 the right ones, one column.
    fn ctx(left: Vec<Value>, right: Vec<Value>) -> Arc<ExecContext> {
        let table = |name, keys: Vec<Value>| {
            let mut t = Table::new(name, Schema::of_strings(&["k"]));
            for k in keys {
                t.push_row(vec![k]).unwrap();
            }
            Arc::new(t)
        };
        Arc::new(ExecContext {
            tables: vec![table("l", left), table("r", right)],
            er: vec![],
            li: vec![],
            metrics: Mutex::new(Default::default()),
        })
    }

    /// Every record of table `table` as a one-slot row.
    fn scan(ctx: &ExecContext, table: usize) -> Box<dyn Operator> {
        let mut b = Batch::new(1);
        for record in 0..ctx.tables[table].len() as u32 {
            b.push(&[EntityRef {
                table,
                record,
                cluster: record,
            }]);
        }
        Box::new(VecOperator::new(b))
    }

    fn join(ctx: Arc<ExecContext>) -> Batch {
        let (l, r) = (scan(&ctx, 0), scan(&ctx, 1));
        drain(&mut HashJoinOp::new(ctx, l, r, (0, 0), (0, 0))).unwrap()
    }

    #[test]
    fn joins_matching_keys() {
        let keys = |ks: &[&str]| ks.iter().map(Value::str).collect();
        let ctx = ctx(
            keys(&["edbt", "vldb", "none"]),
            keys(&["edbt", "edbt", "vldb"]),
        );
        let out = join(ctx.clone());
        assert_eq!(out.len(), 3); // edbt×2 + vldb×1
        let pairs: Vec<(u32, u32)> = out.rows().map(|r| (r[0].record, r[1].record)).collect();
        assert_eq!(pairs, vec![(0, 1), (0, 0), (1, 2)]);
        for r in out.rows() {
            assert_eq!(r[0].value(&ctx.tables, 0), r[1].value(&ctx.tables, 0));
        }
    }

    #[test]
    fn null_keys_never_join() {
        assert!(join(ctx(vec![Value::Null], vec![Value::Null])).is_empty());
    }

    #[test]
    fn numeric_cross_type_join() {
        let out = join(ctx(vec![Value::Int(3)], vec![Value::Float(3.0)]));
        assert_eq!(out.len(), 1);
    }
}
