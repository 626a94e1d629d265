//! Row layouts: mapping alias-qualified column names to tuple offsets.

use crate::error::{CoreError, Result};
use queryer_sql::{ColumnBinder, ColumnRef, SqlError};
use queryer_storage::Table;

/// One base-table slot of a row layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slot {
    /// Alias used by column references.
    pub alias: String,
    /// Index of the table in the engine's catalog.
    pub table_idx: usize,
    /// Number of columns contributed by this slot.
    pub n_cols: usize,
}

/// The layout of tuples produced by an operator: ordered slots, each
/// contributing its table's columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundSchema {
    /// Base-table slots in order.
    pub slots: Vec<Slot>,
    /// Flattened `(slot position, column name)` per tuple offset.
    pub columns: Vec<(usize, String)>,
}

impl BoundSchema {
    /// Layout of a single-table scan.
    pub fn from_table(alias: &str, table_idx: usize, table: &Table) -> Self {
        let columns = table
            .schema()
            .fields()
            .iter()
            .map(|f| (0usize, f.name.clone()))
            .collect();
        Self {
            slots: vec![Slot {
                alias: alias.to_string(),
                table_idx,
                n_cols: table.schema().len(),
            }],
            columns,
        }
    }

    /// Layout of a join output: left slots followed by right slots.
    pub fn concat(left: &BoundSchema, right: &BoundSchema) -> Self {
        let mut slots = left.slots.clone();
        let offset = left.slots.len();
        slots.extend(right.slots.iter().cloned());
        let mut columns = left.columns.clone();
        columns.extend(right.columns.iter().map(|(s, n)| (s + offset, n.clone())));
        Self { slots, columns }
    }

    /// Number of columns in the tuple.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// `true` when the layout has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Tuple offset where a slot's columns start.
    pub fn slot_offset(&self, slot_pos: usize) -> usize {
        self.slots[..slot_pos].iter().map(|s| s.n_cols).sum()
    }

    /// Where offset `offset` lives: its slot, and its column in the
    /// slot's table.
    pub fn location(&self, offset: usize) -> (usize, usize) {
        let slot = self.columns[offset].0;
        (slot, offset - self.slot_offset(slot))
    }

    /// [`BoundSchema::location`] of every offset, in order: where a
    /// [`crate::tuple::RefRow`] reads each column of the layout.
    pub fn locations(&self) -> Vec<(usize, usize)> {
        (0..self.len()).map(|o| self.location(o)).collect()
    }

    /// Resolves a column reference to a tuple offset. Qualified
    /// references match their slot alias; bare references must be unique
    /// across slots.
    pub fn offset_of(&self, col: &ColumnRef) -> Result<usize> {
        let mut found: Option<usize> = None;
        for (offset, (slot_pos, name)) in self.columns.iter().enumerate() {
            if !name.eq_ignore_ascii_case(&col.column) {
                continue;
            }
            if let Some(q) = &col.table {
                if !self.slots[*slot_pos].alias.eq_ignore_ascii_case(q) {
                    continue;
                }
            }
            if found.is_some() {
                return Err(CoreError::Sql(SqlError::Bind {
                    message: format!("ambiguous column '{col}'"),
                }));
            }
            found = Some(offset);
        }
        found.ok_or_else(|| {
            CoreError::Sql(SqlError::Bind {
                message: format!("unknown column '{col}'"),
            })
        })
    }

    /// Output column labels; qualified (`alias.col`) when the layout has
    /// more than one slot.
    pub fn column_labels(&self) -> Vec<String> {
        let qualify = self.slots.len() > 1;
        self.columns
            .iter()
            .map(|(slot, name)| {
                if qualify {
                    format!("{}.{name}", self.slots[*slot].alias)
                } else {
                    name.clone()
                }
            })
            .collect()
    }
}

impl ColumnBinder for BoundSchema {
    fn resolve(&self, col: &ColumnRef) -> queryer_sql::Result<usize> {
        self.offset_of(col).map_err(|e| match e {
            CoreError::Sql(se) => se,
            other => SqlError::Bind {
                message: other.to_string(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use queryer_storage::Schema;

    fn schema() -> BoundSchema {
        let p = Table::new("P", Schema::of_strings(&["id", "title", "venue"]));
        let v = Table::new("V", Schema::of_strings(&["id", "title", "rank"]));
        BoundSchema::concat(
            &BoundSchema::from_table("p", 0, &p),
            &BoundSchema::from_table("v", 1, &v),
        )
    }

    #[test]
    fn qualified_lookup() {
        let s = schema();
        assert_eq!(s.offset_of(&ColumnRef::qualified("p", "title")).unwrap(), 1);
        assert_eq!(s.offset_of(&ColumnRef::qualified("v", "title")).unwrap(), 4);
        assert_eq!(s.offset_of(&ColumnRef::qualified("v", "rank")).unwrap(), 5);
    }

    #[test]
    fn bare_lookup_requires_uniqueness() {
        let s = schema();
        assert_eq!(s.offset_of(&ColumnRef::bare("rank")).unwrap(), 5);
        assert!(s.offset_of(&ColumnRef::bare("title")).is_err());
        assert!(s.offset_of(&ColumnRef::bare("nope")).is_err());
    }

    #[test]
    fn labels_qualified_for_joins() {
        let s = schema();
        assert_eq!(s.column_labels()[0], "p.id");
        assert_eq!(s.column_labels()[4], "v.title");
        let p = Table::new("P", Schema::of_strings(&["id", "title"]));
        let single = BoundSchema::from_table("p", 0, &p);
        assert_eq!(single.column_labels(), vec!["id", "title"]);
    }

    #[test]
    fn slot_offsets() {
        let s = schema();
        assert_eq!(s.slot_offset(0), 0);
        assert_eq!(s.slot_offset(1), 3);
        assert_eq!(
            s.locations(),
            vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        );
    }

    #[test]
    fn case_insensitive_resolution() {
        let s = schema();
        assert_eq!(s.offset_of(&ColumnRef::qualified("P", "TITLE")).unwrap(), 1);
    }
}
