//! Logical plans and the non-ER query planner.
//!
//! Produces the plan of Fig. 1: left-deep join trees with per-table
//! filters pushed below the joins. This is "the best non ER-enabled query
//! plan that contains the best operators placement" which the Advanced ER
//! Solution takes as input (Sec. 7.2.1) before inserting the Deduplicate /
//! Deduplicate-Join / Group-Entities operators.

use crate::ast::{ColumnRef, Expr, JoinClause, SelectItem, SelectStatement, TableRef};
use crate::error::{Result, SqlError};
use std::fmt;

/// Supplies table schemas to the planner for name resolution.
pub trait SchemaProvider {
    /// Column names of `table`, or `None` if the table does not exist.
    fn table_columns(&self, table: &str) -> Option<Vec<String>>;
}

/// A relational logical plan over the supported SPJ query class.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Base-table scan.
    Scan {
        /// Table name in the engine's catalog.
        table: String,
        /// Alias used by column references.
        alias: String,
    },
    /// Row filter.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Predicate (unbound).
        predicate: Expr,
    },
    /// Inner equijoin.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Column of the left input.
        left_col: ColumnRef,
        /// Column of the right input.
        right_col: ColumnRef,
    },
    /// Projection; `dedup` marks a Dedupe query (Sec. 3).
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Projected items.
        items: Vec<SelectItem>,
        /// Whether the DEDUP keyword was present.
        dedup: bool,
    },
    /// Row-count limit.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Maximum rows.
        n: usize,
    },
}

impl LogicalPlan {
    /// The aliases of all base tables in this subtree, in scan order.
    pub fn aliases(&self) -> Vec<&str> {
        match self {
            LogicalPlan::Scan { alias, .. } => vec![alias],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Limit { input, .. } => input.aliases(),
            LogicalPlan::Join { left, right, .. } => {
                let mut v = left.aliases();
                v.extend(right.aliases());
                v
            }
        }
    }

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            LogicalPlan::Scan { table, alias } => {
                if table == alias {
                    writeln!(f, "{pad}TableScan: {table}")
                } else {
                    writeln!(f, "{pad}TableScan: {table} AS {alias}")
                }
            }
            LogicalPlan::Filter { input, predicate } => {
                writeln!(f, "{pad}Filter: {predicate}")?;
                input.fmt_indent(f, indent + 1)
            }
            LogicalPlan::Join {
                left,
                right,
                left_col,
                right_col,
            } => {
                writeln!(f, "{pad}Join: {left_col} = {right_col}")?;
                left.fmt_indent(f, indent + 1)?;
                right.fmt_indent(f, indent + 1)
            }
            LogicalPlan::Project {
                input,
                items,
                dedup,
            } => {
                let cols: Vec<String> = items
                    .iter()
                    .map(|i| match i {
                        SelectItem::Star => "*".to_string(),
                        SelectItem::Expr {
                            expr,
                            alias: Some(a),
                        } => format!("{expr} AS {a}"),
                        SelectItem::Expr { expr, alias: None } => expr.to_string(),
                    })
                    .collect();
                writeln!(
                    f,
                    "{pad}Project{}: {}",
                    if *dedup { " (DEDUP)" } else { "" },
                    cols.join(", ")
                )?;
                input.fmt_indent(f, indent + 1)
            }
            LogicalPlan::Limit { input, n } => {
                writeln!(f, "{pad}Limit: {n}")?;
                input.fmt_indent(f, indent + 1)
            }
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}

/// Per-query name-resolution scope: alias → (table, columns).
pub struct Scope {
    entries: Vec<(String, String, Vec<String>)>,
}

impl Scope {
    /// Builds the scope for a statement, validating tables and aliases.
    pub fn new(stmt: &SelectStatement, schemas: &dyn SchemaProvider) -> Result<Self> {
        let mut entries = Vec::new();
        let mut add = |tr: &TableRef| -> Result<()> {
            let cols = schemas
                .table_columns(&tr.name)
                .ok_or_else(|| SqlError::Bind {
                    message: format!("unknown table '{}'", tr.name),
                })?;
            let alias = tr.effective_alias().to_string();
            if entries.iter().any(|(a, _, _)| *a == alias) {
                return Err(SqlError::Bind {
                    message: format!("duplicate table alias '{alias}'"),
                });
            }
            entries.push((alias, tr.name.clone(), cols));
            Ok(())
        };
        add(&stmt.from)?;
        for j in &stmt.joins {
            add(&j.table)?;
        }
        Ok(Self { entries })
    }

    /// All aliases in scan order.
    pub fn aliases(&self) -> Vec<&str> {
        self.entries.iter().map(|(a, _, _)| a.as_str()).collect()
    }

    /// The table name behind an alias.
    pub fn table_of(&self, alias: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(a, _, _)| a == alias)
            .map(|(_, t, _)| t.as_str())
    }

    /// Resolves a column reference to its owning alias.
    pub fn alias_of_column(&self, col: &ColumnRef) -> Result<String> {
        if let Some(q) = &col.table {
            let (alias, _, cols) = self
                .entries
                .iter()
                .find(|(a, _, _)| a.eq_ignore_ascii_case(q))
                .ok_or_else(|| SqlError::Bind {
                    message: format!("unknown table or alias '{q}'"),
                })?;
            if !cols.iter().any(|c| c.eq_ignore_ascii_case(&col.column)) {
                return Err(SqlError::Bind {
                    message: format!("table '{alias}' has no column '{}'", col.column),
                });
            }
            return Ok(alias.clone());
        }
        let mut owner: Option<&str> = None;
        for (alias, _, cols) in &self.entries {
            if cols.iter().any(|c| c.eq_ignore_ascii_case(&col.column)) {
                if owner.is_some() {
                    return Err(SqlError::Bind {
                        message: format!("ambiguous column '{}'", col.column),
                    });
                }
                owner = Some(alias);
            }
        }
        owner.map(str::to_string).ok_or_else(|| SqlError::Bind {
            message: format!("unknown column '{}'", col.column),
        })
    }

    /// The distinct aliases referenced by an expression (errors on
    /// unresolvable columns).
    pub fn aliases_of_expr(&self, expr: &Expr) -> Result<Vec<String>> {
        let mut cols = Vec::new();
        expr.columns(&mut cols);
        let mut out: Vec<String> = Vec::new();
        for c in cols {
            let a = self.alias_of_column(&c)?;
            if !out.contains(&a) {
                out.push(a);
            }
        }
        Ok(out)
    }
}

/// Builds the logical plan for a statement: left-deep joins in FROM
/// order, single-table conjuncts pushed down to their branch, the rest
/// applied above the last join.
pub fn plan_select(stmt: &SelectStatement, schemas: &dyn SchemaProvider) -> Result<LogicalPlan> {
    let scope = Scope::new(stmt, schemas)?;

    // Partition the WHERE clause.
    let mut branch_filters: Vec<(String, Vec<Expr>)> = scope
        .aliases()
        .iter()
        .map(|a| (a.to_string(), Vec::new()))
        .collect();
    let mut residual: Vec<Expr> = Vec::new();
    if let Some(w) = &stmt.where_clause {
        for conjunct in w.split_conjuncts() {
            let aliases = scope.aliases_of_expr(conjunct)?;
            if aliases.len() == 1 {
                let slot = branch_filters
                    .iter_mut()
                    .find(|(a, _)| *a == aliases[0])
                    .expect("alias exists in scope");
                slot.1.push(conjunct.clone());
            } else {
                residual.push(conjunct.clone());
            }
        }
    }

    let branch = |alias: &str| -> LogicalPlan {
        let table = scope.table_of(alias).expect("alias in scope").to_string();
        let scan = LogicalPlan::Scan {
            table,
            alias: alias.to_string(),
        };
        let filters = &branch_filters
            .iter()
            .find(|(a, _)| a == alias)
            .expect("alias slot")
            .1;
        match Expr::conjunction(filters.clone()) {
            Some(pred) => LogicalPlan::Filter {
                input: Box::new(scan),
                predicate: pred,
            },
            None => scan,
        }
    };

    // Left-deep join tree in FROM order.
    let mut plan = branch(stmt.from.effective_alias());
    let mut in_tree: Vec<String> = vec![stmt.from.effective_alias().to_string()];
    for JoinClause { table, left, right } in &stmt.joins {
        let new_alias = table.effective_alias().to_string();
        let la = scope.alias_of_column(left)?;
        let ra = scope.alias_of_column(right)?;
        // Normalize: `tree_col` references the existing tree, `new_col`
        // the newly joined table.
        let (tree_col, new_col) = if ra == new_alias && in_tree.contains(&la) {
            (left.clone(), right.clone())
        } else if la == new_alias && in_tree.contains(&ra) {
            (right.clone(), left.clone())
        } else {
            return Err(SqlError::Bind {
                message: format!(
                    "join condition {left} = {right} must reference the joined table '{new_alias}' \
                     and an already-joined table"
                ),
            });
        };
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(branch(&new_alias)),
            left_col: tree_col,
            right_col: new_col,
        };
        in_tree.push(new_alias);
    }

    if let Some(pred) = Expr::conjunction(residual) {
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: pred,
        };
    }

    plan = LogicalPlan::Project {
        input: Box::new(plan),
        items: stmt.items.clone(),
        dedup: stmt.dedup,
    };
    if let Some(n) = stmt.limit {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            n,
        };
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;

    struct TestSchemas;
    impl SchemaProvider for TestSchemas {
        fn table_columns(&self, table: &str) -> Option<Vec<String>> {
            match table {
                "P" | "p" => Some(vec!["id", "Title", "Author", "venue", "Year"]),
                "V" | "v" => Some(vec!["id", "title", "Description", "Rank"]),
                _ => None,
            }
            .map(|v| v.into_iter().map(String::from).collect())
        }
    }

    fn plan(sql: &str) -> LogicalPlan {
        plan_select(&parse_select(sql).unwrap(), &TestSchemas).unwrap()
    }

    #[test]
    fn motivating_example_plan_shape() {
        let p = plan(
            "SELECT DEDUP P.Title, P.Year, V.Rank FROM P INNER JOIN V ON P.venue = V.title \
             WHERE P.venue = 'EDBT'",
        );
        let text = p.to_string();
        // Filter is pushed below the join onto P's branch (Fig. 1).
        let filter_pos = text.find("Filter").unwrap();
        let join_pos = text.find("Join").unwrap();
        assert!(
            join_pos < filter_pos,
            "filter must be under the join:\n{text}"
        );
        assert!(text.contains("Project (DEDUP)"));
    }

    #[test]
    fn multi_table_conjunct_stays_above_join() {
        let p = plan("SELECT * FROM P JOIN V ON P.venue = V.title WHERE P.Year = V.Rank");
        match p {
            LogicalPlan::Project { input, .. } => {
                assert!(matches!(*input, LogicalPlan::Filter { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn bare_columns_resolve_uniquely() {
        // "venue" exists only in P; "Rank" only in V.
        let p = plan("SELECT * FROM P JOIN V ON venue = V.title WHERE Rank = 1");
        assert_eq!(p.aliases(), vec!["P", "V"]);
    }

    #[test]
    fn ambiguous_column_rejected() {
        let stmt =
            parse_select("SELECT * FROM P JOIN V ON P.venue = V.title WHERE id = 1").unwrap();
        let err = plan_select(&stmt, &TestSchemas).unwrap_err();
        assert!(matches!(err, SqlError::Bind { .. }));
    }

    #[test]
    fn unknown_table_and_column_rejected() {
        let stmt = parse_select("SELECT * FROM Nope").unwrap();
        assert!(plan_select(&stmt, &TestSchemas).is_err());
        let stmt = parse_select("SELECT * FROM P WHERE nope = 1").unwrap();
        assert!(plan_select(&stmt, &TestSchemas).is_err());
    }

    #[test]
    fn join_sides_normalized() {
        // Join written "V.title = P.venue" still makes P the tree side.
        let p = plan("SELECT * FROM P JOIN V ON V.title = P.venue");
        match p {
            LogicalPlan::Project { input, .. } => match *input {
                LogicalPlan::Join {
                    left_col,
                    right_col,
                    ..
                } => {
                    assert_eq!(left_col, ColumnRef::qualified("P", "venue"));
                    assert_eq!(right_col, ColumnRef::qualified("V", "title"));
                }
                other => panic!("expected join, got {other:?}"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn duplicate_alias_rejected() {
        let stmt = parse_select("SELECT * FROM P JOIN P ON P.venue = P.venue").unwrap();
        assert!(plan_select(&stmt, &TestSchemas).is_err());
    }

    #[test]
    fn or_predicate_not_split() {
        let p = plan(
            "SELECT * FROM P JOIN V ON P.venue = V.title WHERE P.Year = 1 OR P.venue = 'EDBT'",
        );
        // Single-table OR still pushes down as one unit.
        let text = p.to_string();
        let filter_pos = text.find("Filter").unwrap();
        let join_pos = text.find("Join").unwrap();
        assert!(join_pos < filter_pos, "{text}");
    }
}
