//! Projection, and the plain plan's materialisation point under it.

use crate::binding::BoundSchema;
use crate::error::Result;
use crate::operators::{ExecContext, Operator};
use crate::tuple::Batch;
use queryer_sql::BoundExpr;
use queryer_storage::Value;
use std::sync::Arc;

/// Projects bound expressions over input rows. `Star` items are
/// expanded to plain column expressions at planning time. When the
/// expressions are the input's columns in order, each input row is
/// passed on as it is.
pub struct ProjectOp {
    input: Box<dyn Operator<Vec<Value>>>,
    exprs: Vec<BoundExpr>,
    identity: bool,
}

impl ProjectOp {
    /// Creates a projection; `exprs` are bound against the input rows.
    pub fn new(input: Box<dyn Operator<Vec<Value>>>, exprs: Vec<BoundExpr>) -> Self {
        let identity = exprs
            .iter()
            .enumerate()
            .all(|(i, e)| matches!(e, BoundExpr::Column(c) if *c == i));
        Self {
            input,
            exprs,
            identity,
        }
    }
}

impl Operator<Vec<Value>> for ProjectOp {
    fn next(&mut self) -> Result<Option<Vec<Value>>> {
        Ok(self.input.next()?.map(|row| {
            if self.identity && row.len() == self.exprs.len() {
                row
            } else {
                self.exprs.iter().map(|e| e.eval(&row)).collect()
            }
        }))
    }
}

/// The materialisation point of a plain (non-ER) plan: turns each refs
/// row into a row of the layout offsets the Project or Aggregate above
/// it reads, read from the stored tables.
pub struct MaterializeOp {
    ctx: Arc<ExecContext>,
    input: Box<dyn Operator>,
    /// `(slot, column)` of each output column.
    columns: Vec<(usize, usize)>,
    batch: Batch,
    next_row: usize,
}

impl MaterializeOp {
    /// Creates the operator over `input`, whose rows have layout
    /// `schema`; each output row holds the offsets `columns`, in order.
    pub fn new(
        ctx: Arc<ExecContext>,
        input: Box<dyn Operator>,
        schema: &BoundSchema,
        columns: &[usize],
    ) -> Self {
        let locations = schema.locations();
        Self {
            ctx,
            input,
            columns: columns.iter().map(|&c| locations[c]).collect(),
            batch: Batch::default(),
            next_row: 0,
        }
    }
}

impl Operator<Vec<Value>> for MaterializeOp {
    fn next(&mut self) -> Result<Option<Vec<Value>>> {
        while self.next_row == self.batch.len() {
            match self.input.next()? {
                Some(batch) => (self.batch, self.next_row) = (batch, 0),
                None => return Ok(None),
            }
        }
        let refs = self.batch.row(self.next_row);
        self.next_row += 1;
        Ok(Some(
            self.columns
                .iter()
                .map(|&(slot, col)| refs[slot].value(&self.ctx.tables, col).clone())
                .collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{drain_rows, VecOperator};
    use crate::tuple::EntityRef;
    use parking_lot::Mutex;
    use queryer_storage::{Schema, Table};

    /// Row operator over fixed rows.
    struct Rows(std::vec::IntoIter<Vec<Value>>);

    impl Operator<Vec<Value>> for Rows {
        fn next(&mut self) -> Result<Option<Vec<Value>>> {
            Ok(self.0.next())
        }
    }

    fn project(rows: Vec<Vec<Value>>, exprs: Vec<BoundExpr>) -> Vec<Vec<Value>> {
        let input = Box::new(Rows(rows.into_iter()));
        drain_rows(&mut ProjectOp::new(input, exprs)).unwrap()
    }

    #[test]
    fn projects_selected_columns() {
        let row = vec![Value::Int(1), Value::str("x"), Value::Int(9)];
        let out = project(
            vec![row.clone()],
            vec![BoundExpr::Column(2), BoundExpr::Column(1)],
        );
        assert_eq!(out, vec![vec![Value::Int(9), Value::str("x")]]);
        // The identity over a wider row still projects.
        let out = project(vec![row], vec![BoundExpr::Column(0)]);
        assert_eq!(out, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn materializes_the_requested_columns_from_refs() {
        let mut t = Table::new("t", Schema::of_strings(&["a", "b"]));
        t.push_row(vec![Value::Int(1), Value::str("x")]).unwrap();
        t.push_row(vec![Value::Int(2), Value::str("y")]).unwrap();
        let schema = BoundSchema::from_table("t", 0, &t);
        let ctx = Arc::new(ExecContext {
            tables: vec![Arc::new(t)],
            er: vec![],
            li: vec![],
            metrics: Mutex::new(Default::default()),
        });
        let mut refs = Batch::new(1);
        for record in [1, 0] {
            refs.push(&[EntityRef {
                table: 0,
                record,
                cluster: record,
            }]);
        }
        let input = Box::new(VecOperator::new(refs));
        let out = drain_rows(&mut MaterializeOp::new(ctx, input, &schema, &[1, 0])).unwrap();
        assert_eq!(
            out,
            vec![
                vec![Value::str("y"), Value::Int(2)],
                vec![Value::str("x"), Value::Int(1)]
            ]
        );
    }
}
