//! What flows between physical operators below the materialisation
//! point: batches of entity references, not copied values.

use queryer_sql::Row;
use queryer_storage::{RecordId, Table, Value};
use std::borrow::Cow;
use std::sync::Arc;

/// Provenance of one base-table slot of a row: which record the slot's
/// values live in and which duplicate cluster it belongs to. Before
/// deduplication, `cluster == record` (every record is its own cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntityRef {
    /// Index of the base table in the engine's catalog.
    pub table: usize,
    /// Record id within the table.
    pub record: RecordId,
    /// Cluster representative (minimum member record id).
    pub cluster: RecordId,
}

impl EntityRef {
    /// The record's value in column `col`, read from `tables` in place.
    #[inline]
    pub fn value<'t>(&self, tables: &'t [Arc<Table>], col: usize) -> &'t Value {
        tables[self.table].record_unchecked(self.record).value(col)
    }
}

/// Rows of entity references: `width` refs per row (one per base-table
/// slot of the layout), rows back to back in one buffer, so a batch
/// costs no allocation per row.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Batch {
    width: usize,
    refs: Vec<EntityRef>,
}

impl Batch {
    /// An empty batch of `width`-slot rows.
    pub fn new(width: usize) -> Self {
        Self {
            width,
            refs: Vec::new(),
        }
    }

    /// An empty batch with room for `rows` rows of `width` slots.
    pub fn with_capacity(width: usize, rows: usize) -> Self {
        Self {
            width,
            refs: Vec::with_capacity(width * rows),
        }
    }

    /// Slots per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.refs.len().checked_div(self.width).unwrap_or(0)
    }

    /// `true` when the batch holds no row.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Row `i`: one ref per slot.
    pub fn row(&self, i: usize) -> &[EntityRef] {
        &self.refs[i * self.width..(i + 1) * self.width]
    }

    /// The rows in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[EntityRef]> + '_ {
        self.refs.chunks_exact(self.width.max(1))
    }

    /// Appends one row, given as its slots in order (possibly in parts:
    /// a join pushes the left row and then the right one).
    pub fn push(&mut self, slots: &[EntityRef]) {
        self.refs.extend_from_slice(slots);
    }

    /// Appends every row of `other`, which must have this batch's width
    /// unless either is empty.
    pub fn append(&mut self, mut other: Batch) {
        if self.refs.is_empty() {
            *self = other;
        } else if !other.refs.is_empty() {
            debug_assert_eq!(self.width, other.width, "appending rows of another layout");
            self.refs.append(&mut other.refs);
        }
    }

    /// Keeps the rows for which `keep` holds, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&[EntityRef]) -> bool) {
        let width = self.width.max(1);
        let mut kept = 0;
        for i in 0..self.refs.len() / width {
            let row = i * width..(i + 1) * width;
            if keep(&self.refs[row.clone()]) {
                self.refs.copy_within(row, kept * width);
                kept += 1;
            }
        }
        self.refs.truncate(kept * width);
    }
}

/// One row of a [`Batch`] seen as values: an expression bound against
/// the row's layout reads offset `i` from the table of slot
/// `locations[i].0`, column `locations[i].1`, in place.
pub struct RefRow<'a> {
    /// The catalog's tables.
    pub tables: &'a [Arc<Table>],
    /// `(slot, column)` per layout offset (see
    /// [`crate::binding::BoundSchema::locations`]).
    pub locations: &'a [(usize, usize)],
    /// The row's refs, one per slot.
    pub refs: &'a [EntityRef],
}

impl Row for RefRow<'_> {
    #[inline]
    fn column(&self, i: usize) -> &Value {
        let (slot, col) = self.locations[i];
        self.refs[slot].value(self.tables, col)
    }
}

/// Normalizes a value for equijoin key comparison: integral floats become
/// ints so that `Int(3)` joins `Float(3.0)` the way `sql_eq` equates them.
/// Every other value is its own key, borrowed.
pub fn join_key(v: &Value) -> Cow<'_, Value> {
    match v {
        Value::Float(f) if f.fract() == 0.0 && f.abs() < i64::MAX as f64 => {
            Cow::Owned(Value::Int(*f as i64))
        }
        other => Cow::Borrowed(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(record: RecordId) -> EntityRef {
        EntityRef {
            table: 0,
            record,
            cluster: record,
        }
    }

    #[test]
    fn batch_rows_are_width_slots_back_to_back() {
        let mut b = Batch::new(2);
        b.push(&[e(0)]);
        b.push(&[e(1)]);
        b.push(&[e(2), e(3)]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(1), &[e(2), e(3)]);
        let firsts: Vec<RecordId> = b.rows().map(|r| r[0].record).collect();
        assert_eq!(firsts, vec![0, 2]);
    }

    #[test]
    fn retain_and_append_keep_row_order() {
        let mut b = Batch::new(1);
        for r in 0..6 {
            b.push(&[e(r)]);
        }
        b.retain(|row| row[0].record % 2 == 1);
        let mut all = Batch::default();
        all.append(b);
        let mut more = Batch::new(1);
        more.push(&[e(9)]);
        all.append(more);
        let ids: Vec<RecordId> = all.rows().map(|r| r[0].record).collect();
        assert_eq!(ids, vec![1, 3, 5, 9]);
        assert_eq!(all.width(), 1);
    }

    #[test]
    fn join_key_normalizes_integral_floats() {
        assert_eq!(*join_key(&Value::Float(3.0)), Value::Int(3));
        assert_eq!(*join_key(&Value::Float(3.5)), Value::Float(3.5));
        assert_eq!(*join_key(&Value::str("a")), Value::str("a"));
        assert_eq!(*join_key(&Value::Null), Value::Null);
    }
}
