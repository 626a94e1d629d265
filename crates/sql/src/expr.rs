//! Expression binding (name resolution) and evaluation.

use crate::ast::{ColumnRef, CompareOp, Expr};
use crate::error::{Result, SqlError};
use queryer_storage::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::str::Chars;

/// A row an expression reads its columns from, by position. Operators
/// evaluate predicates and projections over whatever row shape they
/// hold (a slice of values, or references into stored tables) without
/// first copying it into a scratch row.
pub trait Row {
    /// The value at position `i`.
    fn column(&self, i: usize) -> &Value;
}

impl Row for [Value] {
    #[inline]
    fn column(&self, i: usize) -> &Value {
        &self[i]
    }
}

impl Row for Vec<Value> {
    #[inline]
    fn column(&self, i: usize) -> &Value {
        &self[i]
    }
}

impl<const N: usize> Row for [Value; N] {
    #[inline]
    fn column(&self, i: usize) -> &Value {
        &self[i]
    }
}

/// Resolves column references to positions in an evaluation row.
pub trait ColumnBinder {
    /// Position of the column in the row, or a bind error.
    fn resolve(&self, col: &ColumnRef) -> Result<usize>;
}

/// An expression with all column references resolved to row offsets,
/// ready for repeated evaluation.
#[derive(Debug, Clone)]
pub enum BoundExpr {
    /// Row offset.
    Column(usize),
    /// Constant.
    Literal(Value),
    /// Comparison.
    Compare {
        /// Left operand.
        left: Box<BoundExpr>,
        /// Operator.
        op: CompareOp,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Conjunction.
    And(Box<BoundExpr>, Box<BoundExpr>),
    /// Disjunction.
    Or(Box<BoundExpr>, Box<BoundExpr>),
    /// Negation.
    Not(Box<BoundExpr>),
    /// IN list.
    InList {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Candidates.
        list: Vec<BoundExpr>,
        /// NOT IN.
        negated: bool,
    },
    /// BETWEEN (inclusive).
    Between {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Lower bound.
        low: Box<BoundExpr>,
        /// Upper bound.
        high: Box<BoundExpr>,
        /// NOT BETWEEN.
        negated: bool,
    },
    /// LIKE pattern.
    Like {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Raw pattern (kept for display).
        pattern: String,
        /// NOT LIKE.
        negated: bool,
    },
    /// IS NULL.
    IsNull {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// IS NOT NULL.
        negated: bool,
    },
    /// Integer modulo (`MOD(x, k)` / `x % k`).
    Mod(Box<BoundExpr>, Box<BoundExpr>),
}

/// Binds `expr` against a row layout. Aggregate functions are rejected —
/// they are only legal in the projection list and are handled by the
/// physical Aggregate operator.
pub fn bind(expr: &Expr, binder: &dyn ColumnBinder) -> Result<BoundExpr> {
    Ok(match expr {
        Expr::Column(c) => BoundExpr::Column(binder.resolve(c)?),
        Expr::Literal(v) => BoundExpr::Literal(v.clone()),
        Expr::Compare { left, op, right } => BoundExpr::Compare {
            left: Box::new(bind(left, binder)?),
            op: *op,
            right: Box::new(bind(right, binder)?),
        },
        Expr::And(l, r) => BoundExpr::And(Box::new(bind(l, binder)?), Box::new(bind(r, binder)?)),
        Expr::Or(l, r) => BoundExpr::Or(Box::new(bind(l, binder)?), Box::new(bind(r, binder)?)),
        Expr::Not(e) => BoundExpr::Not(Box::new(bind(e, binder)?)),
        Expr::InList {
            expr,
            list,
            negated,
        } => BoundExpr::InList {
            expr: Box::new(bind(expr, binder)?),
            list: list
                .iter()
                .map(|e| bind(e, binder))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => BoundExpr::Between {
            expr: Box::new(bind(expr, binder)?),
            low: Box::new(bind(low, binder)?),
            high: Box::new(bind(high, binder)?),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => BoundExpr::Like {
            expr: Box::new(bind(expr, binder)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => BoundExpr::IsNull {
            expr: Box::new(bind(expr, binder)?),
            negated: *negated,
        },
        Expr::Func { name, args } => match (name.as_str(), args.len()) {
            ("MOD", 2) => BoundExpr::Mod(
                Box::new(bind(&args[0], binder)?),
                Box::new(bind(&args[1], binder)?),
            ),
            ("COUNT" | "SUM" | "AVG" | "MIN" | "MAX", _) => {
                return Err(SqlError::Unsupported(format!(
                    "aggregate {name} is only allowed in the SELECT list"
                )))
            }
            _ => {
                return Err(SqlError::Unsupported(format!(
                    "function {name}/{}",
                    args.len()
                )))
            }
        },
    })
}

impl BoundExpr {
    /// Evaluates to a scalar value. Boolean sub-expressions evaluate to
    /// `Int(1)` / `Int(0)`.
    pub fn eval<R: Row + ?Sized>(&self, row: &R) -> Value {
        match self {
            BoundExpr::Column(i) => row.column(*i).clone(),
            BoundExpr::Literal(v) => v.clone(),
            BoundExpr::Mod(l, r) => match (l.eval(row).as_int(), r.eval(row).as_int()) {
                (Some(a), Some(b)) if b != 0 => Value::Int(a.rem_euclid(b)),
                _ => Value::Null,
            },
            predicate => Value::Int(predicate.eval_bool(row) as i64),
        }
    }

    /// Evaluates as a predicate; SQL NULL semantics collapse to `false`.
    /// Column and literal operands are compared in place, not cloned.
    pub fn eval_bool<R: Row + ?Sized>(&self, row: &R) -> bool {
        match self {
            BoundExpr::Compare { left, op, right } => {
                let (l, r) = (left.operand(row), right.operand(row));
                if l.is_null() || r.is_null() {
                    return false;
                }
                match op {
                    CompareOp::Eq => l.sql_eq(&r),
                    CompareOp::Neq => !l.sql_eq(&r),
                    CompareOp::Lt => l.cmp_sql(&r) == Ordering::Less,
                    CompareOp::Le => l.cmp_sql(&r) != Ordering::Greater,
                    CompareOp::Gt => l.cmp_sql(&r) == Ordering::Greater,
                    CompareOp::Ge => l.cmp_sql(&r) != Ordering::Less,
                }
            }
            BoundExpr::And(l, r) => l.eval_bool(row) && r.eval_bool(row),
            BoundExpr::Or(l, r) => l.eval_bool(row) || r.eval_bool(row),
            BoundExpr::Not(e) => !e.eval_bool(row),
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.operand(row);
                if v.is_null() {
                    return false;
                }
                let found = list.iter().any(|e| v.sql_eq(&e.operand(row)));
                found != *negated
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let (v, lo, hi) = (expr.operand(row), low.operand(row), high.operand(row));
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return false;
                }
                let inside =
                    v.cmp_sql(&lo) != Ordering::Less && v.cmp_sql(&hi) != Ordering::Greater;
                inside != *negated
            }
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => match expr.operand(row).as_str() {
                None => false,
                Some(s) => like_match(pattern, s) != *negated,
            },
            BoundExpr::IsNull { expr, negated } => expr.operand(row).is_null() != *negated,
            BoundExpr::Column(_) | BoundExpr::Literal(_) | BoundExpr::Mod(..) => {
                // Truthiness of a scalar: non-null, non-zero.
                match &*self.operand(row) {
                    Value::Null => false,
                    Value::Int(i) => *i != 0,
                    Value::Float(f) => *f != 0.0,
                    Value::Str(s) => !s.is_empty(),
                }
            }
        }
    }

    /// The operand's value: borrowed from the row or the literal where
    /// it is one, computed otherwise.
    fn operand<'a, R: Row + ?Sized>(&'a self, row: &'a R) -> Cow<'a, Value> {
        match self {
            BoundExpr::Column(i) => Cow::Borrowed(row.column(*i)),
            BoundExpr::Literal(v) => Cow::Borrowed(v),
            computed => Cow::Owned(computed.eval(row)),
        }
    }

    /// Rewrites every column position `i` the expression reads to
    /// `f(i)`, visiting the columns left to right (repeats included).
    pub fn remap_columns(&mut self, f: &mut impl FnMut(usize) -> usize) {
        match self {
            BoundExpr::Column(i) => *i = f(*i),
            BoundExpr::Literal(_) => {}
            BoundExpr::Compare {
                left: l, right: r, ..
            }
            | BoundExpr::And(l, r)
            | BoundExpr::Or(l, r)
            | BoundExpr::Mod(l, r) => {
                l.remap_columns(f);
                r.remap_columns(f);
            }
            BoundExpr::Not(e)
            | BoundExpr::Like { expr: e, .. }
            | BoundExpr::IsNull { expr: e, .. } => e.remap_columns(f),
            BoundExpr::InList { expr, list, .. } => {
                expr.remap_columns(f);
                list.iter_mut().for_each(|e| e.remap_columns(f));
            }
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                expr.remap_columns(f);
                low.remap_columns(f);
                high.remap_columns(f);
            }
        }
    }
}

/// SQL LIKE matching: `%` matches any run (including empty), `_` matches
/// exactly one character. Case-sensitive, as in most engines.
///
/// Iterative and allocation-free: on a mismatch it backtracks only to
/// the latest `%`, letting that `%` absorb one more character, which is
/// enough because an earlier `%` could only absorb what the latest one
/// already can. Worst case O(|pattern| · |text|).
pub fn like_match(pattern: &str, text: &str) -> bool {
    let (mut p, mut t) = (pattern.chars(), text.chars());
    // The pattern just past the latest `%`, and the text it resumes at.
    let mut retry: Option<(Chars<'_>, Chars<'_>)> = None;
    loop {
        match p.next() {
            Some('%') => retry = Some((p.clone(), t.clone())),
            pc => {
                match (pc, t.next()) {
                    (None, None) => return true,
                    (Some('_'), Some(_)) => continue,
                    (Some(c), Some(tc)) if c == tc => continue,
                    _ => {}
                }
                let Some((rp, rt)) = &mut retry else {
                    return false;
                };
                if rt.next().is_none() {
                    return false;
                }
                (p, t) = (rp.clone(), rt.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;

    struct VecBinder(Vec<&'static str>);
    impl ColumnBinder for VecBinder {
        fn resolve(&self, col: &ColumnRef) -> Result<usize> {
            self.0
                .iter()
                .position(|c| c.eq_ignore_ascii_case(&col.column))
                .ok_or_else(|| SqlError::Bind {
                    message: format!("unknown column {col}"),
                })
        }
    }

    fn bound(sql_where: &str, cols: Vec<&'static str>) -> BoundExpr {
        let stmt = parse_select(&format!("SELECT * FROM t WHERE {sql_where}")).unwrap();
        bind(&stmt.where_clause.unwrap(), &VecBinder(cols)).unwrap()
    }

    #[test]
    fn comparisons() {
        let e = bound("a >= 5 AND b = 'x'", vec!["a", "b"]);
        assert!(e.eval_bool(&[Value::Int(5), Value::str("x")]));
        assert!(!e.eval_bool(&[Value::Int(4), Value::str("x")]));
        assert!(!e.eval_bool(&[Value::Null, Value::str("x")]));
    }

    #[test]
    fn null_never_compares_true() {
        let e = bound("a = a", vec!["a"]);
        assert!(!e.eval_bool(&[Value::Null]));
        let e = bound("a <> 1", vec!["a"]);
        assert!(!e.eval_bool(&[Value::Null]));
    }

    #[test]
    fn in_and_between() {
        let e = bound("a IN (1, 2, 3)", vec!["a"]);
        assert!(e.eval_bool(&[Value::Int(2)]));
        assert!(!e.eval_bool(&[Value::Int(9)]));
        let e = bound("a NOT IN (1)", vec!["a"]);
        assert!(e.eval_bool(&[Value::Int(2)]));
        let e = bound("a BETWEEN 2 AND 4", vec!["a"]);
        assert!(e.eval_bool(&[Value::Int(2)]));
        assert!(e.eval_bool(&[Value::Int(4)]));
        assert!(!e.eval_bool(&[Value::Int(5)]));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("ab%", "abcdef"));
        assert!(like_match("%def", "abcdef"));
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "abbc"));
        assert!(like_match("%", ""));
        assert!(like_match("a%b%c", "axxbyyc"));
        assert!(!like_match("abc", "ABC"));
        let e = bound("a LIKE 'ed%'", vec!["a"]);
        assert!(e.eval_bool(&[Value::str("edbt")]));
        assert!(!e.eval_bool(&[Value::Int(3)]));
    }

    /// The recursive matcher `like_match` replaced: exponential on
    /// several `%`, but its reading of the pattern is the definition.
    fn like_oracle(pattern: &str, text: &str) -> bool {
        fn rec(p: &[char], t: &[char]) -> bool {
            match p.first() {
                None => t.is_empty(),
                Some('%') => (0..=t.len()).any(|k| rec(&p[1..], &t[k..])),
                Some('_') => !t.is_empty() && rec(&p[1..], &t[1..]),
                Some(&c) => t.first() == Some(&c) && rec(&p[1..], &t[1..]),
            }
        }
        let p: Vec<char> = pattern.chars().collect();
        let t: Vec<char> = text.chars().collect();
        rec(&p, &t)
    }

    proptest::proptest! {
        #[test]
        fn like_match_equals_the_recursive_oracle(
            pattern in "[ab\u{e9}%_]{0,8}",
            text in "[ab\u{e9}\u{df}_%]{0,10}",
        ) {
            proptest::prop_assert_eq!(
                like_match(&pattern, &text),
                like_oracle(&pattern, &text),
                "{:?} LIKE {:?}", text, pattern
            );
        }
    }

    #[test]
    fn like_does_not_backtrack_exponentially() {
        // Thirty `%` against a near-miss text: the recursive matcher
        // takes exponentially many steps here; the iterative one does not.
        let pattern = "%a".repeat(30) + "b";
        assert!(!like_match(&pattern, &"a".repeat(60)));
        assert!(like_match(&pattern, &("a".repeat(60) + "b")));
    }

    #[test]
    fn is_null() {
        let e = bound("a IS NULL", vec!["a"]);
        assert!(e.eval_bool(&[Value::Null]));
        assert!(!e.eval_bool(&[Value::Int(0)]));
        let e = bound("a IS NOT NULL", vec!["a"]);
        assert!(e.eval_bool(&[Value::Int(0)]));
    }

    #[test]
    fn modulo() {
        let e = bound("MOD(id, 10) < 1", vec!["id"]);
        assert!(e.eval_bool(&[Value::Int(20)]));
        assert!(!e.eval_bool(&[Value::Int(21)]));
        // Division by zero → NULL → false.
        let e = bound("MOD(id, 0) = 0", vec!["id"]);
        assert!(!e.eval_bool(&[Value::Int(20)]));
        // Negative operands: rem_euclid keeps the result non-negative.
        let e = bound("id % 10 = 7", vec!["id"]);
        assert!(e.eval_bool(&[Value::Int(-3)]));
    }

    #[test]
    fn remap_visits_columns_left_to_right() {
        let mut e = bound(
            "c IN (a, 1) AND MOD(b, 2) = 0 OR NOT c LIKE 'x'",
            vec!["a", "b", "c"],
        );
        let mut seen = Vec::new();
        e.remap_columns(&mut |i| {
            seen.push(i);
            2 - i
        });
        assert_eq!(seen, vec![2, 0, 1, 2]);
        assert!(e.eval_bool(&[Value::str("y"), Value::Int(4), Value::str("y")]));
        assert!(!e.eval_bool(&[Value::str("x"), Value::Int(4), Value::str("y")]));
    }

    #[test]
    fn aggregates_rejected_in_where() {
        let stmt = parse_select("SELECT * FROM t WHERE COUNT(a) > 1").unwrap();
        assert!(bind(&stmt.where_clause.unwrap(), &VecBinder(vec!["a"])).is_err());
    }

    #[test]
    fn unknown_column_is_bind_error() {
        let stmt = parse_select("SELECT * FROM t WHERE nope = 1").unwrap();
        assert!(bind(&stmt.where_clause.unwrap(), &VecBinder(vec!["a"])).is_err());
    }
}
