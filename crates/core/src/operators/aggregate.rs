//! Aggregation over the (possibly deduplicated and grouped) result
//! stream — the aggregation-query extension listed as future work in
//! Sec. 10. In a Dedupe query the aggregate runs **after**
//! Group-Entities, so `COUNT(*)` counts real-world entities rather than
//! dirty records.

use crate::error::Result;
use crate::operators::Operator;
use queryer_sql::BoundExpr;
use queryer_storage::Value;

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(col)`.
    Count,
    /// `SUM(col)`.
    Sum,
    /// `AVG(col)`.
    Avg,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
}

impl AggFunc {
    /// Parses an upper-cased function name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }
}

/// One aggregate to compute; `arg` is `None` for `COUNT(*)` and bound
/// against the input rows otherwise.
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Bound argument expression.
    pub arg: Option<BoundExpr>,
}

/// Computes all aggregates in one pass, emitting a single row.
pub struct AggregateOp {
    input: Option<Box<dyn Operator<Vec<Value>>>>,
    specs: Vec<AggSpec>,
}

impl AggregateOp {
    /// Creates the aggregate operator.
    pub fn new(input: Box<dyn Operator<Vec<Value>>>, specs: Vec<AggSpec>) -> Self {
        Self {
            input: Some(input),
            specs,
        }
    }
}

struct Accumulator {
    count: u64,
    sum: f64,
    saw_numeric: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl Accumulator {
    fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            saw_numeric: false,
            min: None,
            max: None,
        }
    }

    fn push(&mut self, v: Value) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        if let Some(f) = v.as_f64() {
            self.sum += f;
            self.saw_numeric = true;
        }
        let replace_min = self
            .min
            .as_ref()
            .is_none_or(|m| v.cmp_sql(m) == std::cmp::Ordering::Less);
        if replace_min {
            self.min = Some(v.clone());
        }
        let replace_max = self
            .max
            .as_ref()
            .is_none_or(|m| v.cmp_sql(m) == std::cmp::Ordering::Greater);
        if replace_max {
            self.max = Some(v);
        }
    }
}

impl Operator<Vec<Value>> for AggregateOp {
    fn next(&mut self) -> Result<Option<Vec<Value>>> {
        let Some(mut input) = self.input.take() else {
            return Ok(None);
        };
        let mut star_count = 0u64;
        let mut accs: Vec<Accumulator> = self.specs.iter().map(|_| Accumulator::new()).collect();
        while let Some(row) = input.next()? {
            star_count += 1;
            for (spec, acc) in self.specs.iter().zip(accs.iter_mut()) {
                if let Some(arg) = &spec.arg {
                    acc.push(arg.eval(&row));
                }
            }
        }
        let values = self
            .specs
            .iter()
            .zip(accs)
            .map(|(spec, acc)| match (spec.func, &spec.arg) {
                (AggFunc::Count, None) => Value::Int(star_count as i64),
                (AggFunc::Count, Some(_)) => Value::Int(acc.count as i64),
                (AggFunc::Sum, _) => {
                    if acc.saw_numeric {
                        Value::Float(acc.sum)
                    } else {
                        Value::Null
                    }
                }
                (AggFunc::Avg, _) => {
                    if acc.saw_numeric && acc.count > 0 {
                        Value::Float(acc.sum / acc.count as f64)
                    } else {
                        Value::Null
                    }
                }
                (AggFunc::Min, _) => acc.min.unwrap_or(Value::Null),
                (AggFunc::Max, _) => acc.max.unwrap_or(Value::Null),
            })
            .collect();
        Ok(Some(values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::drain_rows;

    /// Row operator over fixed one-column rows.
    struct Rows(std::vec::IntoIter<Value>);

    impl Operator<Vec<Value>> for Rows {
        fn next(&mut self) -> Result<Option<Vec<Value>>> {
            Ok(self.0.next().map(|v| vec![v]))
        }
    }

    fn rows(values: Vec<Value>) -> Box<dyn Operator<Vec<Value>>> {
        Box::new(Rows(values.into_iter()))
    }

    fn run(specs: Vec<AggSpec>) -> Vec<Value> {
        let input = rows(vec![
            Value::Int(1),
            Value::Int(5),
            Value::Int(3),
            Value::Null,
        ]);
        let out = drain_rows(&mut AggregateOp::new(input, specs)).unwrap();
        assert_eq!(out.len(), 1);
        out.into_iter().next().unwrap()
    }

    #[test]
    fn count_star_counts_rows_including_null() {
        let v = run(vec![AggSpec {
            func: AggFunc::Count,
            arg: None,
        }]);
        assert_eq!(v, vec![Value::Int(4)]);
    }

    #[test]
    fn count_col_skips_nulls() {
        let v = run(vec![AggSpec {
            func: AggFunc::Count,
            arg: Some(BoundExpr::Column(0)),
        }]);
        assert_eq!(v, vec![Value::Int(3)]);
    }

    #[test]
    fn sum_avg_min_max() {
        let specs = [AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max]
            .into_iter()
            .map(|f| AggSpec {
                func: f,
                arg: Some(BoundExpr::Column(0)),
            })
            .collect();
        let v = run(specs);
        assert_eq!(v[0], Value::Float(9.0));
        assert_eq!(v[1], Value::Float(3.0));
        assert_eq!(v[2], Value::Int(1));
        assert_eq!(v[3], Value::Int(5));
    }

    #[test]
    fn empty_input() {
        let mut op = AggregateOp::new(
            rows(vec![]),
            vec![
                AggSpec {
                    func: AggFunc::Count,
                    arg: None,
                },
                AggSpec {
                    func: AggFunc::Min,
                    arg: Some(BoundExpr::Column(0)),
                },
            ],
        );
        let out = drain_rows(&mut op).unwrap();
        assert_eq!(out, vec![vec![Value::Int(0), Value::Null]]);
    }
}
