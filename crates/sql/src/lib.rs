//! SQL substrate for QueryER.
//!
//! QueryER extends SQL with a single keyword: `SELECT DEDUP …` denotes
//! that "the results should be resolved for duplicates before being
//! returned to the user; otherwise the typical SQL semantics are used"
//! (Sec. 3). The supported query class is the paper's: flat conjunctive /
//! disjunctive SP and SPJ queries with equijoins (Sec. 5), plus the
//! aggregation extension flagged as future work in Sec. 10.
//!
//! The crate provides the Query Parser of Fig. 2 (lexer → AST) and the
//! logical-plan construction with predicate pushdown that produces "the
//! best non ER-enabled query plan" the Advanced ER Solution starts from
//! (Sec. 7.2.1).

pub mod ast;
pub mod error;
pub mod expr;
pub mod lexer;
pub mod logical;
pub mod parser;

pub use ast::{ColumnRef, CompareOp, Expr, JoinClause, SelectItem, SelectStatement, TableRef};
pub use error::{Result, SqlError};
pub use expr::{bind, like_match, BoundExpr, ColumnBinder, Row};
pub use logical::{plan_select, LogicalPlan, SchemaProvider};
pub use parser::parse_select;
