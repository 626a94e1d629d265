//! Physical planning: transforming the non-ER logical plan into operator
//! trees for each execution strategy (Sec. 7).
//!
//! * **Plain** — ordinary SQL over the dirty data (no ER operators).
//! * **NES** (Naïve ER Solution, Fig. 6) — Deduplicate above every
//!   branch's filter, relational join of the resolved sets.
//! * **NES-eager** (Fig. 5) — Deduplicate directly above each table scan,
//!   cluster-aware filters above; the strawman naive plan.
//! * **AES** (Advanced ER Solution, Figs. 7–8) — estimates comparisons
//!   per branch, deduplicates the branch that "yields the lowest number
//!   of comparisons" first, and substitutes the join with the
//!   Dirty-Left/Dirty-Right Deduplicate-Join operator.
//! * **Batch** — the Batch Approach baseline: queries over batch-cleaned
//!   clusters with hyper-entity (any-member) predicate semantics.
//!
//! All ER strategies place Group-Entities directly before the final
//! Project (Sec. 7.2.1(ii)). It is the plan's materialisation point:
//! everything below it passes entity refs, and it builds only the
//! columns the Project or Aggregate above it reads. A plain plan has a
//! `Materialize` there instead, which builds the same columns without
//! grouping.

pub mod cost;
pub mod stats;

use crate::binding::BoundSchema;
use crate::engine::{ExecMode, QueryEngine};
use crate::error::{CoreError, Result};
use crate::operators::aggregate::{AggFunc, AggSpec, AggregateOp};
use crate::operators::dedup_join::{DedupJoinOp, DirtySide};
use crate::operators::deduplicate::DeduplicateOp;
use crate::operators::filter::{ClusterFilterOp, FilterOp};
use crate::operators::group_entities::GroupEntitiesOp;
use crate::operators::hash_join::HashJoinOp;
use crate::operators::limit::LimitOp;
use crate::operators::project::{MaterializeOp, ProjectOp};
use crate::operators::scan::TableScanOp;
use crate::operators::{ExecContext, Operator};
use queryer_common::FxHashMap;
use queryer_sql::{bind, BoundExpr, Expr, LogicalPlan, SelectItem};
use queryer_storage::{RecordId, Value};
use std::sync::Arc;

/// A fully built physical plan.
pub struct PlanOutput {
    /// Root operator: the result rows.
    pub root: Box<dyn Operator<Vec<Value>>>,
    /// Output column labels.
    pub columns: Vec<String>,
    /// Rendered plan (EXPLAIN).
    pub explain: String,
    /// AES branch comparison estimates (left, right) if a cost decision
    /// was made.
    pub estimated: Option<(u64, u64)>,
}

pub(crate) struct Planner<'a> {
    pub engine: &'a QueryEngine,
    pub ctx: &'a Arc<ExecContext>,
    pub mode: ExecMode,
    /// Batch cluster maps per table index (Batch mode only).
    pub batch_clusters: FxHashMap<usize, Arc<Vec<RecordId>>>,
    pub estimated: Option<(u64, u64)>,
    pub out_columns: Vec<String>,
}

/// A plan's top, above its materialisation point: the row operator and
/// its EXPLAIN lines.
type Top = (Box<dyn Operator<Vec<Value>>>, Vec<String>);

/// A plan below its materialisation point: a refs stream.
struct Built {
    op: Box<dyn Operator>,
    schema: BoundSchema,
    explain: Vec<String>,
    /// Whether the stream is already resolved/cluster-annotated.
    resolved: bool,
    /// Index of the table in the engine's catalog when this is a
    /// single-table branch.
    single_table: Option<usize>,
    /// Predicate pushed onto this branch (for cost estimation).
    predicate: Option<Expr>,
}

fn indent(lines: Vec<String>) -> Vec<String> {
    lines.into_iter().map(|l| format!("  {l}")).collect()
}

impl<'a> Planner<'a> {
    pub(crate) fn build(&mut self, plan: &LogicalPlan) -> Result<PlanOutput> {
        let (root, explain) = self.build_rows(plan)?;
        Ok(PlanOutput {
            root,
            columns: std::mem::take(&mut self.out_columns),
            explain: explain.join("\n"),
            estimated: self.estimated,
        })
    }

    /// The top of a plan, above its materialisation point: a projection
    /// or an aggregate, under any number of LIMITs.
    fn build_rows(&mut self, plan: &LogicalPlan) -> Result<Top> {
        match plan {
            LogicalPlan::Limit { input, n } => {
                let (op, child) = self.build_rows(input)?;
                let mut explain = vec![format!("Limit: {n}")];
                explain.extend(indent(child));
                Ok((Box::new(LimitOp::new(op, *n)), explain))
            }
            LogicalPlan::Project { input, items, .. } => self.build_project(input, items),
            _ => Err(CoreError::Plan("a plan must end in a projection".into())),
        }
    }

    fn er_mode(&self) -> bool {
        matches!(
            self.mode,
            ExecMode::Nes
                | ExecMode::NesEager
                | ExecMode::Aes
                | ExecMode::AesDirtyLeft
                | ExecMode::AesDirtyRight
                | ExecMode::Batch
        )
    }

    fn build_node(&mut self, plan: &LogicalPlan) -> Result<Built> {
        match plan {
            LogicalPlan::Scan { table, alias } => self.build_scan(table, alias, None),
            LogicalPlan::Filter { input, predicate } => self.build_filter(input, predicate),
            LogicalPlan::Join {
                left,
                right,
                left_col,
                right_col,
            } => self.build_join(left, right, left_col, right_col),
            LogicalPlan::Project { .. } | LogicalPlan::Limit { .. } => Err(CoreError::Plan(
                "a projection or LIMIT must be at the top of a plan".into(),
            )),
        }
    }

    /// Whether a filter over a base-table scan sees resolved data: Batch
    /// scans carry batch clusters, NES-eager deduplicates right above
    /// the scan. Such a filter keeps whole clusters, so it cannot run
    /// inside the scan.
    fn scan_is_resolved(&self) -> bool {
        matches!(self.mode, ExecMode::Batch | ExecMode::NesEager)
    }

    /// A scan of `table`; with a `predicate`, the scan evaluates it and
    /// emits only the records that pass.
    fn build_scan(&mut self, table: &str, alias: &str, predicate: Option<Expr>) -> Result<Built> {
        let idx = self.engine.table_idx(table)?;
        let t = self.engine.table_by_idx(idx);
        let schema = BoundSchema::from_table(alias, idx, &t);
        let (cluster_of, batch_note) = match self.batch_clusters.get(&idx) {
            Some(map) => (Some(map.clone()), " [batch clusters]"),
            None => (None, ""),
        };
        let mut op = TableScanOp::new(self.ctx.clone(), idx, cluster_of);
        let mut label = format!("TableScan: {table} AS {alias}{batch_note}");
        if let Some(pred) = &predicate {
            op = op.with_predicate(bind(pred, &schema)?);
            label = format!("{label} [filter: {pred}]");
        }
        let mut built = Built {
            op: Box::new(op),
            schema,
            explain: vec![label],
            resolved: self.mode == ExecMode::Batch,
            single_table: Some(idx),
            predicate,
        };
        // Fig. 5 naive plan: Deduplicate directly above the table scan.
        if self.mode == ExecMode::NesEager {
            built = self.wrap_deduplicate(built)?;
        }
        Ok(built)
    }

    fn build_filter(&mut self, input: &LogicalPlan, predicate: &Expr) -> Result<Built> {
        // A filter over a base-table scan runs inside the scan, which
        // then clones only the records that pass.
        if !self.scan_is_resolved() {
            if let Some((table, alias, pred)) = filtered_scan(input, predicate) {
                return self.build_scan(table, alias, Some(pred));
            }
        }
        let child = self.build_node(input)?;
        let bound = bind(predicate, &child.schema)?;
        let ctx = self.ctx.clone();
        let (op, label): (Box<dyn Operator>, &str) = if child.resolved {
            // Filtering resolved/cluster-annotated data must keep whole
            // clusters (hyper-entity any-member semantics).
            (
                Box::new(ClusterFilterOp::new(ctx, child.op, bound, &child.schema)),
                "ClusterFilter",
            )
        } else {
            (
                Box::new(FilterOp::new(ctx, child.op, bound, &child.schema)),
                "Filter",
            )
        };
        let mut explain = vec![format!("{label}: {predicate}")];
        explain.extend(indent(child.explain));
        let combined_pred = match child.predicate {
            Some(prev) => Expr::And(Box::new(prev), Box::new(predicate.clone())),
            None => predicate.clone(),
        };
        Ok(Built {
            op,
            schema: child.schema,
            explain,
            resolved: child.resolved,
            single_table: child.single_table,
            predicate: Some(combined_pred),
        })
    }

    fn wrap_deduplicate(&mut self, child: Built) -> Result<Built> {
        let table_idx = child
            .single_table
            .ok_or_else(|| CoreError::Plan("Deduplicate requires a single-table branch".into()))?;
        let mut explain = vec![format!(
            "Deduplicate: {}",
            self.engine.table_by_idx(table_idx).name()
        )];
        explain.extend(indent(child.explain));
        Ok(Built {
            op: Box::new(DeduplicateOp::new(self.ctx.clone(), child.op, table_idx)),
            schema: child.schema,
            explain,
            resolved: true,
            single_table: Some(table_idx),
            predicate: child.predicate,
        })
    }

    fn estimate(&self, built: &Built) -> u64 {
        let idx = built.single_table.expect("estimation on table branch");
        let table = self.engine.table_by_idx(idx);
        let er = &self.ctx.er[idx];
        let li = self.ctx.li[idx].read();
        cost::estimate_branch_comparisons(&table, er, &li, built.predicate.as_ref(), &built.schema)
    }

    fn build_join(
        &mut self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        left_col: &queryer_sql::ColumnRef,
        right_col: &queryer_sql::ColumnRef,
    ) -> Result<Built> {
        let mut l = self.build_node(left)?;
        let mut r = self.build_node(right)?;
        let left_key = l.schema.location(l.schema.offset_of(left_col)?);
        let right_key = r.schema.location(r.schema.offset_of(right_col)?);
        let schema = BoundSchema::concat(&l.schema, &r.schema);
        let join_desc = format!("{left_col} = {right_col}");

        let (op, label): (Box<dyn Operator>, String) = match self.mode {
            ExecMode::Plain | ExecMode::Batch | ExecMode::NesEager => {
                let label = format!("HashJoin: {join_desc}");
                (
                    Box::new(HashJoinOp::new(
                        self.ctx.clone(),
                        l.op,
                        r.op,
                        left_key,
                        right_key,
                    )),
                    label,
                )
            }
            ExecMode::Nes => {
                // Fig. 6: Deduplicate above each branch's filter, then a
                // relational join of the resolved sets.
                if !l.resolved {
                    l = self.wrap_deduplicate(l)?;
                }
                if !r.resolved {
                    r = self.wrap_deduplicate(r)?;
                }
                let label = format!("DedupJoinOperation: {join_desc}");
                (
                    Box::new(HashJoinOp::new(
                        self.ctx.clone(),
                        l.op,
                        r.op,
                        left_key,
                        right_key,
                    )),
                    label,
                )
            }
            ExecMode::Aes | ExecMode::AesDirtyLeft | ExecMode::AesDirtyRight => {
                // Decide which side to clean first: "the planner […]
                // places the Deduplicate Operator to the branch that
                // yields the lowest number of comparisons" (Sec. 7.2.1).
                // The forced variants override the estimate for the
                // cleaning-order ablation of Table 5.
                let dirty_side = if !l.resolved && !r.resolved {
                    match self.mode {
                        ExecMode::AesDirtyLeft => DirtySide::Left,
                        ExecMode::AesDirtyRight => DirtySide::Right,
                        _ => {
                            let est_l = self.estimate(&l);
                            let est_r = self.estimate(&r);
                            self.estimated = Some((est_l, est_r));
                            if est_l <= est_r {
                                DirtySide::Right
                            } else {
                                DirtySide::Left
                            }
                        }
                    }
                } else if l.resolved {
                    DirtySide::Right
                } else {
                    DirtySide::Left
                };
                match dirty_side {
                    DirtySide::Right => {
                        if !l.resolved {
                            l = self.wrap_deduplicate(l)?;
                        }
                        let dirty_table = r.single_table.ok_or_else(|| {
                            CoreError::Plan("dirty join branch must be a single table".into())
                        })?;
                        let label = format!("DedupJoin[Dirty-Right]: {join_desc}");
                        (
                            Box::new(DedupJoinOp::new(
                                self.ctx.clone(),
                                l.op,
                                r.op,
                                left_key,
                                right_key,
                                DirtySide::Right,
                                dirty_table,
                            )),
                            label,
                        )
                    }
                    DirtySide::Left => {
                        if !r.resolved {
                            r = self.wrap_deduplicate(r)?;
                        }
                        let dirty_table = l.single_table.ok_or_else(|| {
                            CoreError::Plan("dirty join branch must be a single table".into())
                        })?;
                        let label = format!("DedupJoin[Dirty-Left]: {join_desc}");
                        (
                            Box::new(DedupJoinOp::new(
                                self.ctx.clone(),
                                l.op,
                                r.op,
                                left_key,
                                right_key,
                                DirtySide::Left,
                                dirty_table,
                            )),
                            label,
                        )
                    }
                }
            }
            ExecMode::Auto => unreachable!("Auto is resolved before planning"),
        };

        let mut explain = vec![label];
        explain.extend(indent(l.explain));
        explain.extend(indent(r.explain));
        Ok(Built {
            op,
            schema,
            explain,
            resolved: self.er_mode(),
            single_table: None,
            predicate: None,
        })
    }

    fn build_project(&mut self, input: &LogicalPlan, items: &[SelectItem]) -> Result<Top> {
        let mut child = self.build_node(input)?;
        // ER strategies: resolve SP branches before grouping.
        if self.er_mode() && !child.resolved {
            child = self.wrap_deduplicate(child)?;
        }

        // The output, bound against the child's layout.
        let has_agg = items.iter().any(|i| {
            matches!(i, SelectItem::Expr { expr: Expr::Func { name, .. }, .. }
                if AggFunc::from_name(name).is_some())
        });
        let mut labels = Vec::new();
        let mut exprs: Vec<BoundExpr> = Vec::new();
        let mut specs: Vec<AggSpec> = Vec::new();
        if has_agg {
            for item in items {
                let SelectItem::Expr { expr, alias } = item else {
                    return Err(CoreError::Sql(queryer_sql::SqlError::Unsupported(
                        "cannot mix * with aggregates".into(),
                    )));
                };
                let Expr::Func { name, args } = expr else {
                    return Err(CoreError::Sql(queryer_sql::SqlError::Unsupported(
                        "cannot mix plain columns with aggregates (no GROUP BY support)".into(),
                    )));
                };
                let func = AggFunc::from_name(name).ok_or_else(|| {
                    CoreError::Sql(queryer_sql::SqlError::Unsupported(format!(
                        "function {name}"
                    )))
                })?;
                let arg = match args.first() {
                    Some(a) => Some(bind(a, &child.schema)?),
                    None => None,
                };
                if func != AggFunc::Count && arg.is_none() {
                    return Err(CoreError::Sql(queryer_sql::SqlError::Unsupported(format!(
                        "{name} requires an argument"
                    ))));
                }
                specs.push(AggSpec { func, arg });
                labels.push(alias.clone().unwrap_or_else(|| expr.to_string()));
            }
        } else {
            // Star expands to every column.
            let all_labels = child.schema.column_labels();
            for item in items {
                match item {
                    SelectItem::Star => {
                        for (offset, label) in all_labels.iter().enumerate() {
                            exprs.push(BoundExpr::Column(offset));
                            labels.push(label.clone());
                        }
                    }
                    SelectItem::Expr { expr, alias } => {
                        exprs.push(bind(expr, &child.schema)?);
                        labels.push(alias.clone().unwrap_or_else(|| expr.to_string()));
                    }
                }
            }
        }

        // The columns the output reads, in the order it first reads
        // them: the materialisation point builds exactly these, and the
        // output is rebound to their positions in its rows.
        let mut columns: Vec<usize> = Vec::new();
        let mut position = |offset: usize| {
            columns
                .iter()
                .position(|&c| c == offset)
                .unwrap_or_else(|| {
                    columns.push(offset);
                    columns.len() - 1
                })
        };
        let args = specs.iter_mut().filter_map(|s| s.arg.as_mut());
        for e in exprs.iter_mut().chain(args) {
            e.remap_columns(&mut position);
        }

        let (rows, point): (Box<dyn Operator<Vec<Value>>>, &str) = if self.er_mode() {
            let op = GroupEntitiesOp::new(self.ctx.clone(), child.op, &child.schema, &columns);
            (Box::new(op), "GroupEntities")
        } else {
            let op = MaterializeOp::new(self.ctx.clone(), child.op, &child.schema, &columns);
            (Box::new(op), "Materialize")
        };
        let mut below = vec![point.to_string()];
        below.extend(indent(child.explain));

        let (op, label): (Box<dyn Operator<Vec<Value>>>, String) = if has_agg {
            let label = format!("Aggregate: {}", labels.join(", "));
            (Box::new(AggregateOp::new(rows, specs)), label)
        } else {
            let label = format!("Project: {}", labels.join(", "));
            (Box::new(ProjectOp::new(rows, exprs)), label)
        };
        let mut explain = vec![label];
        explain.extend(indent(below));
        self.out_columns = labels;
        Ok((op, explain))
    }
}

/// `input` filtered by `predicate`, when `input` is a base-table scan
/// under any number of filters: the scan's table and alias, and the
/// conjunction of every filter on the way, innermost first.
fn filtered_scan<'p>(input: &'p LogicalPlan, predicate: &Expr) -> Option<(&'p str, &'p str, Expr)> {
    match input {
        LogicalPlan::Scan { table, alias } => Some((table, alias, predicate.clone())),
        LogicalPlan::Filter {
            input,
            predicate: inner,
        } => {
            let (table, alias, below) = filtered_scan(input, inner)?;
            Some((
                table,
                alias,
                Expr::And(Box::new(below), Box::new(predicate.clone())),
            ))
        }
        _ => None,
    }
}
