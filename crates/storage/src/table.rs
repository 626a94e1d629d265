//! In-memory tables (the paper's *entity collections*).

use crate::error::{Result, StorageError};
use crate::record::{Record, RecordId};
use crate::schema::Schema;
use crate::value::Value;
use std::cmp::Ordering;
use std::mem::discriminant;
use std::ops::Bound;
use std::sync::{Arc, OnceLock};

/// A named, row-oriented in-memory table with dense record ids.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Arc<Schema>,
    records: Vec<Record>,
    /// The selection index, one slot per column: built by the first
    /// [`Table::value_range`] on that column, dropped by every write.
    /// `Some` holds the ids of the column's non-null values sorted by
    /// (`cmp_sql`, id); `None` marks a column whose values have no total
    /// order under `cmp_sql`.
    sorted: Vec<OnceLock<Option<Vec<RecordId>>>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let sorted = (0..schema.len()).map(|_| OnceLock::new()).collect();
        Self {
            name: name.into(),
            schema: Arc::new(schema),
            records: Vec::new(),
            sorted,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// All records, ordered by id.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Record by id (`None` when out of range).
    #[inline]
    pub fn record(&self, id: RecordId) -> Option<&Record> {
        self.records.get(id as usize)
    }

    /// Record by id; panics when out of range (ids are produced by this
    /// table's own indices, so out-of-range access is a logic error).
    #[inline]
    pub fn record_unchecked(&self, id: RecordId) -> &Record {
        &self.records[id as usize]
    }

    /// Number of records (the paper's |E|).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the table has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a row, assigning the next dense id, which is returned.
    pub fn push_row(&mut self, values: Vec<Value>) -> Result<RecordId> {
        if values.len() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.len(),
                actual: values.len(),
            });
        }
        let id = self.records.len() as RecordId;
        self.records.push(Record::new(id, values));
        self.drop_selection_index();
        Ok(id)
    }

    /// Replaces the values of an existing row in place, keeping its id.
    /// Deletions are modelled as an all-NULL overwrite (a row that emits
    /// no blocking keys), so ids stay dense and every downstream index
    /// keeps its record-id addressing.
    pub fn set_row(&mut self, id: RecordId, values: Vec<Value>) -> Result<()> {
        if values.len() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.len(),
                actual: values.len(),
            });
        }
        if (id as usize) >= self.records.len() {
            return Err(StorageError::NotFound(format!(
                "record {id} in table '{}'",
                self.name
            )));
        }
        self.records[id as usize] = Record::new(id, values);
        self.drop_selection_index();
        Ok(())
    }

    /// Pre-allocates room for `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        self.records.reserve(additional);
    }

    /// Column values projected by name (test/debug helper).
    pub fn column(&self, name: &str) -> Result<Vec<&Value>> {
        let idx = self.schema.try_index_of(name)?;
        Ok(self.records.iter().map(|r| r.value(idx)).collect())
    }

    /// The rows whose value in column `col` lies in every one of
    /// `intervals` (each a `(lower, upper)` pair of non-NULL bounds)
    /// under [`Value::cmp_sql`], as ids ordered by (value, id). NULL
    /// cells are never in it; no interval at all selects every non-NULL
    /// cell.
    ///
    /// Served by the column's selection index, which the first call
    /// builds (a sort of the column) and the next write drops. `None`
    /// when the column cannot be indexed: `cmp_sql` is a total order
    /// only within one type and without NaN (mixed `Int`/`Float` above
    /// 2^53 is not transitive), so a column whose non-null values are of
    /// more than one type, or hold a NaN, has no index.
    pub fn value_range<'v>(
        &self,
        col: usize,
        intervals: impl IntoIterator<Item = (Bound<&'v Value>, Bound<&'v Value>)>,
    ) -> Option<&[RecordId]> {
        let sorted = self.sorted[col]
            .get_or_init(|| self.sort_column(col))
            .as_deref()?;
        // `cmp_sql` against a fixed bound is monotone along a one-type,
        // NaN-free column, so each edge is one binary search.
        let at =
            |id: &RecordId, bound: &Value| self.records[*id as usize].values[col].cmp_sql(bound);
        let (mut start, mut end) = (0, sorted.len());
        for (lower, upper) in intervals {
            start = start.max(match lower {
                Bound::Included(lo) => sorted.partition_point(|id| at(id, lo) == Ordering::Less),
                Bound::Excluded(lo) => sorted.partition_point(|id| at(id, lo) != Ordering::Greater),
                Bound::Unbounded => 0,
            });
            end = end.min(match upper {
                Bound::Included(hi) => sorted.partition_point(|id| at(id, hi) != Ordering::Greater),
                Bound::Excluded(hi) => sorted.partition_point(|id| at(id, hi) == Ordering::Less),
                Bound::Unbounded => sorted.len(),
            });
        }
        Some(&sorted[start..end.max(start)])
    }

    /// Builds column `col`'s selection index, or `None` when its
    /// non-null values are of more than one type or include a NaN.
    fn sort_column(&self, col: usize) -> Option<Vec<RecordId>> {
        let mut kind = None;
        for record in &self.records {
            match &record.values[col] {
                Value::Null => continue,
                Value::Float(f) if f.is_nan() => return None,
                v => {
                    if *kind.get_or_insert(discriminant(v)) != discriminant(v) {
                        return None;
                    }
                }
            }
        }
        let mut ids: Vec<RecordId> = self
            .records
            .iter()
            .filter(|r| !r.values[col].is_null())
            .map(|r| r.id)
            .collect();
        ids.sort_unstable_by(|&a, &b| {
            let (va, vb) = (
                &self.records[a as usize].values[col],
                &self.records[b as usize].values[col],
            );
            va.cmp_sql(vb).then(a.cmp(&b))
        });
        Some(ids)
    }

    fn drop_selection_index(&mut self) {
        for column in &mut self.sorted {
            column.take();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field};

    fn sample() -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Str),
                Field::new("n", DataType::Int),
            ]),
        );
        t.push_row(vec![Value::str("x"), Value::Int(1)]).unwrap();
        t.push_row(vec![Value::str("y"), Value::Int(2)]).unwrap();
        t
    }

    #[test]
    fn dense_ids() {
        let t = sample();
        assert_eq!(t.len(), 2);
        assert_eq!(t.record(0).unwrap().id, 0);
        assert_eq!(t.record(1).unwrap().id, 1);
        assert!(t.record(2).is_none());
    }

    #[test]
    fn arity_checked() {
        let mut t = sample();
        assert!(t.push_row(vec![Value::str("z")]).is_err());
    }

    #[test]
    fn column_projection() {
        let t = sample();
        let col = t.column("n").unwrap();
        assert_eq!(col, vec![&Value::Int(1), &Value::Int(2)]);
        assert!(t.column("missing").is_err());
    }

    fn eq(v: &Value) -> [(Bound<&Value>, Bound<&Value>); 1] {
        [(Bound::Included(v), Bound::Included(v))]
    }

    #[test]
    fn value_range_orders_by_value_then_id_and_skips_nulls() {
        let mut t = Table::new("t", Schema::new(vec![Field::new("n", DataType::Int)]));
        for v in [
            Value::Int(5),
            Value::Null,
            Value::Int(3),
            Value::Int(5),
            Value::Int(9),
        ] {
            t.push_row(vec![v]).unwrap();
        }
        assert_eq!(t.value_range(0, []).unwrap(), &[2, 0, 3, 4]);
        let five = Value::Int(5);
        assert_eq!(t.value_range(0, eq(&five)).unwrap(), &[0, 3]);
        let above = [(Bound::Excluded(&five), Bound::Unbounded)];
        assert_eq!(t.value_range(0, above).unwrap(), &[4]);
        let below = [(Bound::Unbounded, Bound::Excluded(&five))];
        assert_eq!(t.value_range(0, below).unwrap(), &[2]);
        // Intervals intersect; a reversed or disjoint one is empty.
        let (three, nine) = (Value::Int(3), Value::Int(9));
        let both = [
            (Bound::Excluded(&three), Bound::Unbounded),
            (Bound::Unbounded, Bound::Excluded(&nine)),
        ];
        assert_eq!(t.value_range(0, both).unwrap(), &[0, 3]);
        let reversed = [(Bound::Included(&nine), Bound::Included(&three))];
        assert!(t.value_range(0, reversed).unwrap().is_empty());
    }

    #[test]
    fn writes_drop_the_index() {
        let mut t = sample();
        let two = Value::Int(2);
        assert_eq!(t.value_range(1, eq(&two)).unwrap(), &[1]);
        t.set_row(0, vec![Value::str("x"), Value::Int(2)]).unwrap();
        assert_eq!(t.value_range(1, eq(&two)).unwrap(), &[0, 1]);
        t.push_row(vec![Value::str("z"), Value::Int(2)]).unwrap();
        assert_eq!(t.value_range(1, eq(&two)).unwrap(), &[0, 1, 2]);
    }

    #[test]
    fn mixed_or_nan_columns_are_not_indexed() {
        let schema = || Schema::new(vec![Field::new("v", DataType::Float)]);
        let mut mixed = Table::new("m", schema());
        mixed.push_row(vec![Value::Int(1)]).unwrap();
        mixed.push_row(vec![Value::Float(1.5)]).unwrap();
        assert!(mixed.value_range(0, []).is_none());
        let mut nan = Table::new("n", schema());
        nan.push_row(vec![Value::Float(1.0)]).unwrap();
        nan.push_row(vec![Value::Float(f64::NAN)]).unwrap();
        assert!(nan.value_range(0, []).is_none());
        // Overwriting the NaN makes the column indexable again.
        nan.set_row(1, vec![Value::Null]).unwrap();
        assert_eq!(nan.value_range(0, []).unwrap(), &[0]);
    }
}
