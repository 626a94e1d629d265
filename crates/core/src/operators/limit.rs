//! Row-count limit.

use crate::error::Result;
use crate::operators::Operator;
use queryer_storage::Value;

/// Stops the stream after `n` rows.
pub struct LimitOp {
    input: Box<dyn Operator<Vec<Value>>>,
    remaining: usize,
}

impl LimitOp {
    /// Creates a limit.
    pub fn new(input: Box<dyn Operator<Vec<Value>>>, n: usize) -> Self {
        Self {
            input,
            remaining: n,
        }
    }
}

impl Operator<Vec<Value>> for LimitOp {
    fn next(&mut self) -> Result<Option<Vec<Value>>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let row = self.input.next()?;
        self.remaining -= row.is_some() as usize;
        Ok(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::drain_rows;

    struct Count(i64);

    impl Operator<Vec<Value>> for Count {
        fn next(&mut self) -> Result<Option<Vec<Value>>> {
            self.0 -= 1;
            Ok((self.0 >= 0).then(|| vec![Value::Int(self.0)]))
        }
    }

    #[test]
    fn truncates_stream() {
        let mut l = LimitOp::new(Box::new(Count(3)), 2);
        assert_eq!(drain_rows(&mut l).unwrap().len(), 2);
    }

    #[test]
    fn zero_limit_empty() {
        let mut l = LimitOp::new(Box::new(Count(1)), 0);
        assert!(drain_rows(&mut l).unwrap().is_empty());
    }
}
