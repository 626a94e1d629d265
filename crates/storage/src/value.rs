//! Dynamically-typed cell values.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single cell value of a record.
///
/// Strings are reference-counted so that records can be cloned through the
/// operator pipeline (Deduplicate-Join produces Cartesian products of
/// cluster members, Sec. 6.2) without re-allocating attribute text.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL / missing value. The paper's grouping operator maps nulls
    /// to an empty value (Sec. 6.3).
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(Arc<str>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// `true` for [`Value::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Borrows the string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer content, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view: integers widen to floats.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Renders the value as display text; `Null` renders empty, which is
    /// the representation the Group-Entities operator uses. The
    /// [`fmt::Display`] impl writes the same text without allocating.
    pub fn render(&self) -> Cow<'_, str> {
        match self {
            Value::Null => Cow::Borrowed(""),
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Float(f) => Cow::Owned(format_float(*f)),
            Value::Str(s) => Cow::Borrowed(s),
        }
    }

    /// Three-way comparison with SQL-ish semantics: numeric types compare
    /// numerically across `Int`/`Float`; `Null` compares less than
    /// everything (used only for stable ordering, not predicate truth);
    /// numbers sort before strings.
    pub fn cmp_sql(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            (Int(_) | Float(_), Str(_)) => Ordering::Less,
            (Str(_), Int(_) | Float(_)) => Ordering::Greater,
        }
    }

    /// SQL equality used by predicates and equi-joins. `Null` never equals
    /// anything, including `Null` (three-valued logic collapsed to false).
    pub fn sql_eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => false,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a == b,
            (Int(a), Float(b)) | (Float(b), Int(a)) => (*a as f64) == *b,
            (Str(a), Str(b)) => a == b,
            _ => false,
        }
    }
}

/// Formats a float the way the CSV writer and `render` expose it:
/// integral floats print without the trailing `.0` noise removed — we keep
/// Rust's shortest-roundtrip formatting for lossless CSV round-trips.
/// `Display` writes the same text.
fn format_float(f: f64) -> String {
    format!("{f}")
}

/// Structural equality (used for hash-join keys and result comparison).
/// Unlike [`Value::sql_eq`], `Null == Null` here and floats compare by bit
/// pattern so that `Value` can implement `Eq`/`Hash` coherently.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Str(a), Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Int(i) => {
                state.write_u8(1);
                state.write_i64(*i);
            }
            Value::Float(f) => {
                state.write_u8(2);
                state.write_u64(f.to_bits());
            }
            Value::Str(s) => {
                state.write_u8(3);
                state.write(s.as_bytes());
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => Ok(()),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_eq_nulls_never_equal() {
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(!Value::Null.sql_eq(&Value::Int(1)));
    }

    #[test]
    fn structural_eq_nulls_equal() {
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert!(Value::Int(3).sql_eq(&Value::Float(3.0)));
        assert!(!Value::Int(3).sql_eq(&Value::Float(3.5)));
    }

    #[test]
    fn ordering_numbers_before_strings() {
        assert_eq!(Value::Int(10).cmp_sql(&Value::str("a")), Ordering::Less);
        assert_eq!(Value::str("b").cmp_sql(&Value::str("a")), Ordering::Greater);
        assert_eq!(Value::Int(2).cmp_sql(&Value::Float(2.5)), Ordering::Less);
    }

    #[test]
    fn null_renders_empty() {
        assert_eq!(Value::Null.render(), "");
        assert_eq!(Value::Int(42).render(), "42");
        assert_eq!(Value::str("x").render(), "x");
    }

    #[test]
    fn hash_respects_structural_eq() {
        use queryer_common::FxBuildHasher;
        use std::hash::BuildHasher;
        let h = FxBuildHasher::default();
        assert_eq!(h.hash_one(Value::str("ab")), h.hash_one(Value::str("ab")));
        assert_ne!(h.hash_one(Value::Int(1)), h.hash_one(Value::str("1")));
    }
}
