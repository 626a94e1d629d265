//! Tuples flowing between physical operators.

use queryer_storage::{RecordId, Value};

/// Provenance of one base-table slot inside a tuple: which record the
/// values came from and which duplicate cluster it belongs to. Before
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

/// A row flowing through the pipeline: the concatenated column values of
/// one record combination, plus one [`EntityRef`] per base-table slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    /// Column values, concatenated across slots.
    pub values: Vec<Value>,
    /// Per-slot provenance, aligned with the schema's slot order.
    pub entities: Vec<EntityRef>,
}

impl Tuple {
    /// Concatenates two tuples (join output).
    pub fn concat(mut self, right: Tuple) -> Tuple {
        self.values.extend(right.values);
        self.entities.extend(right.entities);
        self
    }
}

/// Normalizes a value for equijoin key comparison: integral floats become
/// ints so that `Int(3)` joins `Float(3.0)` the way `sql_eq` equates them.
pub fn join_key(v: &Value) -> Value {
    match v {
        Value::Float(f) if f.fract() == 0.0 && f.abs() < i64::MAX as f64 => Value::Int(*f as i64),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_appends_both_parts() {
        let a = Tuple {
            values: vec![Value::Int(1)],
            entities: vec![EntityRef {
                table: 0,
                record: 0,
                cluster: 0,
            }],
        };
        let b = Tuple {
            values: vec![Value::str("x")],
            entities: vec![EntityRef {
                table: 1,
                record: 5,
                cluster: 3,
            }],
        };
        let c = a.concat(b);
        assert_eq!(c.values.len(), 2);
        let clusters: Vec<RecordId> = c.entities.iter().map(|e| e.cluster).collect();
        assert_eq!(clusters, vec![0, 3]);
    }

    #[test]
    fn join_key_normalizes_integral_floats() {
        assert_eq!(join_key(&Value::Float(3.0)), Value::Int(3));
        assert_eq!(join_key(&Value::Float(3.5)), Value::Float(3.5));
        assert_eq!(join_key(&Value::str("a")), Value::str("a"));
        assert_eq!(join_key(&Value::Null), Value::Null);
    }
}
