//! The QueryER engine facade (Fig. 2): Query Parser → Query Planner →
//! Query Executor, with per-table ER indices built once-off at
//! registration and a Link Index amended by every query.

use crate::error::{CoreError, Result};
use crate::metrics::QueryMetrics;
use crate::operators::{drain_rows, ExecContext};
use crate::planner::stats::{compute_table_stats, join_percentage, TableStats};
use crate::planner::{PlanOutput, Planner};
use crate::result::QueryResult;
use parking_lot::{Mutex, RwLock};
use queryer_common::FxHashMap;
use queryer_er::{
    Affected, AppliedDelta, DedupMetrics, DeltaOp, ErConfig, LinkIndex, ResolveRequest,
    TableErIndex,
};
use queryer_sql::{parse_select, plan_select, LogicalPlan, SchemaProvider, SelectStatement};
use queryer_storage::{RecordId, Table};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Execution strategy for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// `DEDUP` queries run under AES, everything else as plain SQL.
    #[default]
    Auto,
    /// Plain SQL over the dirty data — no ER operators.
    Plain,
    /// Naïve ER Solution (Fig. 6): Deduplicate above each branch filter.
    Nes,
    /// Naïve ER plan 1 (Fig. 5): Deduplicate directly above each scan.
    NesEager,
    /// Advanced ER Solution (Figs. 7–8): cost-based operator placement.
    Aes,
    /// AES with the dirty join side forced to the left branch — used by
    /// the cleaning-order ablation (Table 5).
    AesDirtyLeft,
    /// AES with the dirty join side forced to the right branch.
    AesDirtyRight,
    /// Batch Approach baseline: clean everything first, then query.
    Batch,
}

impl ExecMode {
    /// Display label used by the benchmark harness.
    pub fn label(&self) -> &'static str {
        match self {
            ExecMode::Auto => "AUTO",
            ExecMode::Plain => "SQL",
            ExecMode::Nes => "NES",
            ExecMode::NesEager => "NES-eager",
            ExecMode::Aes => "AES",
            ExecMode::AesDirtyLeft => "AES[dirty-left]",
            ExecMode::AesDirtyRight => "AES[dirty-right]",
            ExecMode::Batch => "BA",
        }
    }
}

/// Execution context plus the Batch-mode preparation artifacts:
/// `(context, batch cluster maps, total cleaning time, merged cleaning
/// metrics)`.
type ContextSetup = (
    Arc<ExecContext>,
    FxHashMap<usize, Arc<Vec<RecordId>>>,
    Duration,
    DedupMetrics,
);

/// Result of batch-cleaning one table (the paper's D′ = {E_G}).
pub(crate) struct BatchClean {
    pub li: Arc<RwLock<LinkIndex>>,
    pub cluster_of: Arc<Vec<RecordId>>,
    pub duration: Duration,
    pub metrics: DedupMetrics,
}

pub(crate) struct RegisteredTable {
    pub table: Arc<Table>,
    pub er: Arc<TableErIndex>,
    pub li: Arc<RwLock<LinkIndex>>,
    /// Sampled on the first [`QueryEngine::duplication_factor`] read
    /// and emptied by every ingest: cleaning the sample is a resolve,
    /// and neither registration nor a write should pay for one whose
    /// result nobody has asked for.
    pub stats: OnceLock<TableStats>,
    pub batch: Mutex<Option<Arc<BatchClean>>>,
}

/// The QueryER engine: register dirty tables, then issue
/// `SELECT [DEDUP] …` queries against them.
pub struct QueryEngine {
    cfg: ErConfig,
    tables: Vec<RegisteredTable>,
    by_name: FxHashMap<String, usize>,
    join_pct_cache: Mutex<FxHashMap<(usize, usize, usize, usize), f64>>,
}

impl QueryEngine {
    /// Creates an engine with the given ER configuration.
    pub fn new(cfg: ErConfig) -> Self {
        Self {
            cfg,
            tables: Vec::new(),
            by_name: FxHashMap::default(),
            join_pct_cache: Mutex::new(FxHashMap::default()),
        }
    }

    /// The ER configuration.
    pub fn config(&self) -> &ErConfig {
        &self.cfg
    }

    /// Registers a table: builds its TBI/ITBI (once-off, Sec. 3) and an
    /// empty Link Index. Returns the catalog index. A failed index build
    /// is a [`CoreError::Resolve`] and registers nothing.
    pub fn register_table(&mut self, table: Table) -> Result<usize> {
        let name = table.name().to_lowercase();
        if self.by_name.contains_key(&name) {
            return Err(CoreError::Plan(format!(
                "table '{}' is already registered",
                table.name()
            )));
        }
        let er = TableErIndex::try_build(&table, &self.cfg)?;
        let li = LinkIndex::new(table.len());
        let idx = self.tables.len();
        self.tables.push(RegisteredTable {
            table: Arc::new(table),
            er: Arc::new(er),
            li: Arc::new(RwLock::new(li)),
            stats: OnceLock::new(),
            batch: Mutex::new(None),
        });
        self.by_name.insert(name, idx);
        Ok(idx)
    }

    /// Applies a batch of row mutations to a registered table and folds
    /// them into its *live* ER index — the incremental-ingest path. No
    /// full rebuild: the index grows an LSM-style delta side served
    /// merged with the base, and only the cached resolve state whose
    /// block neighbourhoods the batch touched is invalidated (see
    /// [`queryer_er::Affected`]); everything else stays warm.
    ///
    /// The whole batch is validated up front (id ranges, row arity) and
    /// applied atomically: a validation error leaves table, index and
    /// Link Index untouched. Queries in flight keep the table/index
    /// pair their context cloned (copy-on-write); queries planned after
    /// `ingest` returns see the mutated data.
    ///
    /// Once the delta side has absorbed as many ops as the index's base
    /// was built from records ([`TableErIndex::compaction_due`]), the
    /// index is compacted — rebuilt from the table's rows — before
    /// `ingest` returns, so each rebuild costs O(1) per write amortized;
    /// [`QueryEngine::compact`] does it on demand.
    ///
    /// An empty batch is a no-op: it reports [`Affected::Ids`] with no
    /// ids and leaves table, index, Link Index and derived state as
    /// they were (a poisoned index included).
    ///
    /// An index a panicked write left poisoned is rebuilt here instead
    /// of applied to, from rows that include that write's. A failed
    /// rebuild (this one, or the one that replaces an index a query
    /// still holds) is a [`CoreError::Resolve`] and, like a validation
    /// error, leaves table, index and Link Index untouched. A delta
    /// apply that fails in place is a [`CoreError::Resolve`] too; the
    /// table then holds the batch and the index is poisoned, so queries
    /// fail until [`QueryEngine::compact`] or the next `ingest` rebuilds
    /// it. A failed automatic compaction is reported after the batch is
    /// in and the Link Index follows it: the index keeps serving the
    /// merged view.
    pub fn ingest(&mut self, name: &str, ops: &[DeltaOp]) -> Result<AppliedDelta> {
        let idx = self.table_idx(name)?;
        let rt = &mut self.tables[idx];
        if ops.is_empty() {
            return Ok(AppliedDelta {
                affected: Affected::Ids(Vec::new()),
                pending_ops: rt.er.pending_delta_ops(),
            });
        }

        // Up-front validation so the table mutations below cannot fail
        // partway: id in range at its point in the batch, row arity.
        let n_cols = rt.table.schema().fields().len();
        let mut running = rt.table.len();
        for op in ops {
            match op {
                DeltaOp::Insert { values } => {
                    if values.len() != n_cols {
                        return Err(CoreError::Plan(format!(
                            "ingest into '{name}': insert arity {} != {n_cols} columns",
                            values.len()
                        )));
                    }
                    running += 1;
                }
                DeltaOp::Update { id, values } => {
                    if values.len() != n_cols {
                        return Err(CoreError::Plan(format!(
                            "ingest into '{name}': update arity {} != {n_cols} columns",
                            values.len()
                        )));
                    }
                    if (*id as usize) >= running {
                        return Err(CoreError::Plan(format!(
                            "ingest into '{name}': update id {id} out of range"
                        )));
                    }
                }
                DeltaOp::Delete { id } => {
                    if (*id as usize) >= running {
                        return Err(CoreError::Plan(format!(
                            "ingest into '{name}': delete id {id} out of range"
                        )));
                    }
                }
            }
        }

        // Fold the batch into the rows and the ER index. Copy-on-write:
        // in-flight query contexts keep the Arcs they cloned; contexts
        // made after this see the new pair. When the index Arc is
        // shared (a query context still holds it) or poisoned (a
        // panicked earlier write left it unable to take a delta), the
        // delta cannot be applied in place: the batch goes into a copy
        // of the rows, a fresh index is built from it, and the two are
        // published together only once the build succeeded.
        let applied = match Arc::get_mut(&mut rt.er).filter(|er| !er.is_poisoned()) {
            Some(er) => {
                let table = Arc::make_mut(&mut rt.table);
                for op in ops {
                    op.apply_to_table(table)?;
                }
                er.apply_delta(table, ops)?
            }
            None => {
                let mut table = Table::clone(&rt.table);
                for op in ops {
                    op.apply_to_table(&mut table)?;
                }
                rt.er = Arc::new(TableErIndex::try_build(&table, &self.cfg)?);
                rt.table = Arc::new(table);
                AppliedDelta {
                    affected: Affected::All,
                    pending_ops: 0,
                }
            }
        };
        self.after_write(idx, &applied.affected);

        // Auto-compaction runs once the write is wholly in: a failed
        // fold leaves the index serving the merged view, which the Link
        // Index already follows.
        if self.tables[idx].er.compaction_due() {
            self.fold(idx)?;
        }
        Ok(applied)
    }

    /// Brings a table's derived engine state up to a write. The Link
    /// Index grows to the table and un-resolves the affected ids, or
    /// every record; either way the marks taken back turn stale, so the
    /// decision memo serves their pairs' re-asks. The sampled stats,
    /// batch cleanings and join percentages are dropped.
    fn after_write(&mut self, idx: usize, affected: &Affected) {
        let rt = &mut self.tables[idx];
        rt.li.write().follow_write(rt.table.len(), affected);
        rt.stats.take();
        *rt.batch.lock() = None;
        self.join_pct_cache
            .lock()
            .retain(|k, _| k.0 != idx && k.2 != idx);
    }

    /// Folds a table's pending ingest delta into fresh base buffers
    /// (decision-identical). With no delta live it only drops the
    /// decision memo, even while a query context holds the index `Arc`.
    /// A poisoned index is rebuilt from the table's rows, and since the
    /// write that poisoned it never reached the Link Index or the
    /// derived state, the recovery un-resolves every record and drops
    /// that state. A failed rebuild is a [`CoreError::Resolve`] and
    /// keeps the index it would replace.
    pub fn compact(&mut self, name: &str) -> Result<()> {
        let idx = self.table_idx(name)?;
        self.fold(idx)
    }

    /// The one fold path of [`QueryEngine::compact`] and `ingest`'s
    /// automatic compaction: a rebuild into a fresh `Arc` when a delta
    /// is live or the index is poisoned, otherwise a memo clear. Query
    /// contexts holding the old `Arc` keep serving from it.
    fn fold(&mut self, idx: usize) -> Result<()> {
        let rt = &mut self.tables[idx];
        let recovering = rt.er.is_poisoned();
        if rt.er.has_delta() || recovering {
            rt.er = Arc::new(TableErIndex::try_build(&rt.table, &self.cfg)?);
        } else {
            rt.er.clear_ep_cache();
        }
        if recovering {
            self.after_write(idx, &Affected::All);
        }
        Ok(())
    }

    /// Registers a table parsed from CSV text (header row, inferred
    /// all-string schema).
    pub fn register_csv_str(&mut self, name: &str, csv: &str) -> Result<usize> {
        let table = queryer_storage::csv::table_from_csv_str_infer(name, csv)?;
        self.register_table(table)
    }

    /// Registers a table loaded from a CSV file (header row, inferred
    /// all-string schema). The file is read once.
    pub fn register_csv_path(
        &mut self,
        name: &str,
        path: impl AsRef<std::path::Path>,
    ) -> Result<usize> {
        let path = path.as_ref();
        let file =
            std::fs::File::open(path).map_err(|source| queryer_storage::StorageError::Io {
                context: format!("opening {}", path.display()),
                source,
            })?;
        let table = queryer_storage::csv::table_from_reader_infer(name, file)?;
        self.register_table(table)
    }

    /// Registered table names.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.iter().map(|t| t.table.name()).collect()
    }

    /// Shared handle to a registered table.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        Ok(self.tables[self.table_idx(name)?].table.clone())
    }

    pub(crate) fn table_idx(&self, name: &str) -> Result<usize> {
        self.by_name
            .get(&name.to_lowercase())
            .copied()
            .ok_or_else(|| CoreError::Plan(format!("unknown table '{name}'")))
    }

    pub(crate) fn table_by_idx(&self, idx: usize) -> Arc<Table> {
        self.tables[idx].table.clone()
    }

    /// The sampled duplication factor of a table (Sec. 7.2.1), as of
    /// its current rows: the first read after registration or an ingest
    /// cleans the sample (through the table's own index, so it also
    /// warms that index's resolve caches); later reads are served.
    pub fn duplication_factor(&self, name: &str) -> Result<f64> {
        let rt = &self.tables[self.table_idx(name)?];
        if let Some(stats) = rt.stats.get() {
            return Ok(stats.duplication_factor);
        }
        let stats = compute_table_stats(&rt.table, &rt.er)?;
        Ok(rt.stats.get_or_init(|| stats).duplication_factor)
    }

    /// The ER index of a table (for inspection/benchmarks).
    pub fn er_index(&self, name: &str) -> Result<Arc<TableErIndex>> {
        Ok(self.tables[self.table_idx(name)?].er.clone())
    }

    /// `(resolved entities, links)` currently in a table's Link Index.
    pub fn link_index_stats(&self, name: &str) -> Result<(usize, usize)> {
        let rt = &self.tables[self.table_idx(name)?];
        let li = rt.li.read();
        Ok((li.resolved_count(), li.link_count()))
    }

    /// Runs `f` with read access to a table's Link Index (benchmarks use
    /// this to measure Pair Completeness against ground truth).
    pub fn with_link_index<R>(&self, name: &str, f: impl FnOnce(&LinkIndex) -> R) -> Result<R> {
        let rt = &self.tables[self.table_idx(name)?];
        let li = rt.li.read();
        Ok(f(&li))
    }

    /// Runs `f` with read access to the batch-cleaned Link Index of a
    /// table (building the batch cleaning if needed).
    pub fn with_batch_link_index<R>(
        &self,
        name: &str,
        f: impl FnOnce(&LinkIndex) -> R,
    ) -> Result<R> {
        let idx = self.table_idx(name)?;
        let batch = self.ensure_batch(idx)?;
        let li = batch.li.read();
        Ok(f(&li))
    }

    /// Forgets all per-query resolution state (the "Without LI" ablation
    /// of Fig. 11).
    pub fn clear_link_indices(&self) {
        for rt in &self.tables {
            rt.li.write().clear();
        }
    }

    /// Pre-computed percentage of `left` entities that join `right` on
    /// the given columns (cached).
    pub fn join_pct(
        &self,
        left: &str,
        left_col: &str,
        right: &str,
        right_col: &str,
    ) -> Result<f64> {
        let li = self.table_idx(left)?;
        let ri = self.table_idx(right)?;
        let lt = &self.tables[li].table;
        let rt = &self.tables[ri].table;
        let lc = lt.schema().try_index_of(left_col)?;
        let rc = rt.schema().try_index_of(right_col)?;
        let key = (li, lc, ri, rc);
        if let Some(&pct) = self.join_pct_cache.lock().get(&key) {
            return Ok(pct);
        }
        let pct = join_percentage(lt, lc, rt, rc);
        self.join_pct_cache.lock().insert(key, pct);
        Ok(pct)
    }

    /// Batch-cleans a table (cached): the offline ER pass of the Batch
    /// Approach, producing complete links and cluster assignments. A
    /// failed resolve (a poisoned index, a lost worker) caches nothing.
    pub(crate) fn ensure_batch(&self, idx: usize) -> Result<Arc<BatchClean>> {
        let rt = &self.tables[idx];
        let mut guard = rt.batch.lock();
        if let Some(b) = guard.as_ref() {
            return Ok(b.clone());
        }
        let t0 = Instant::now();
        // The batch LI is born shared: resolve_all goes through the same
        // delta-commit path as concurrent query serving, and readers of
        // an in-progress batch clean (none today, but `with_batch_link_index`
        // hands out the same lock) never observe a half-applied round.
        let li = Arc::new(RwLock::new(LinkIndex::new(rt.table.len())));
        let mut metrics = DedupMetrics::default();
        // DR_E of every record is the whole table, so the outcome's
        // cluster ids are indexed by record id.
        let outcome = rt
            .er
            .run(ResolveRequest::all(&rt.table, &*li).metrics(&mut metrics))?;
        let batch = Arc::new(BatchClean {
            li,
            cluster_of: Arc::new(outcome.clusters),
            duration: t0.elapsed(),
            metrics,
        });
        *guard = Some(batch.clone());
        Ok(batch)
    }

    /// Drops cached batch cleanings (to re-measure cleaning time).
    pub fn clear_batch_cache(&self) {
        for rt in &self.tables {
            *rt.batch.lock() = None;
        }
    }

    fn resolve_mode(stmt: &SelectStatement, mode: ExecMode) -> ExecMode {
        match mode {
            ExecMode::Auto => {
                if stmt.dedup {
                    ExecMode::Aes
                } else {
                    ExecMode::Plain
                }
            }
            other => other,
        }
    }

    fn logical_plan(&self, stmt: &SelectStatement) -> Result<LogicalPlan> {
        Ok(plan_select(stmt, &EngineSchemas(self))?)
    }

    fn make_context(&self, mode: ExecMode) -> Result<ContextSetup> {
        let mut batch_clusters = FxHashMap::default();
        let mut batch_duration = Duration::ZERO;
        let mut batch_metrics = DedupMetrics::default();
        let li: Vec<Arc<RwLock<LinkIndex>>> = if mode == ExecMode::Batch {
            (0..self.tables.len())
                .map(|i| {
                    let b = self.ensure_batch(i)?;
                    batch_clusters.insert(i, b.cluster_of.clone());
                    batch_duration += b.duration;
                    batch_metrics.merge(&b.metrics);
                    Ok(b.li.clone())
                })
                .collect::<Result<_>>()?
        } else {
            self.tables.iter().map(|t| t.li.clone()).collect()
        };
        let ctx = Arc::new(ExecContext {
            tables: self.tables.iter().map(|t| t.table.clone()).collect(),
            er: self.tables.iter().map(|t| t.er.clone()).collect(),
            li,
            metrics: Mutex::new(QueryMetrics::default()),
        });
        Ok((ctx, batch_clusters, batch_duration, batch_metrics))
    }

    /// Parses, plans and executes a query with automatic strategy choice
    /// (`DEDUP` → AES, plain SQL otherwise).
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.execute_with(sql, ExecMode::Auto)
    }

    /// Parses, plans and executes a query under an explicit strategy.
    pub fn execute_with(&self, sql: &str, mode: ExecMode) -> Result<QueryResult> {
        let t0 = Instant::now();
        let stmt = parse_select(sql)?;
        let mode = Self::resolve_mode(&stmt, mode);
        let logical = self.logical_plan(&stmt)?;
        let (ctx, batch_clusters, batch_duration, batch_metrics) = self.make_context(mode)?;
        let mut planner = Planner {
            engine: self,
            ctx: &ctx,
            mode,
            batch_clusters,
            estimated: None,
            out_columns: Vec::new(),
        };
        let PlanOutput {
            mut root,
            columns,
            explain,
            estimated,
        } = planner.build(&logical)?;

        let rows = drain_rows(root.as_mut())?;
        drop(root);

        let mut metrics = ctx.metrics.lock().clone();
        metrics.total = t0.elapsed() + batch_duration;
        metrics.batch_clean = batch_duration;
        metrics.er.merge(&batch_metrics);
        metrics.rows_out = rows.len();
        metrics.estimated_comparisons = estimated;
        metrics.plan = explain;
        Ok(QueryResult {
            columns,
            rows,
            metrics,
        })
    }

    /// Renders the physical plan a query would execute under a strategy.
    pub fn explain(&self, sql: &str, mode: ExecMode) -> Result<String> {
        let stmt = parse_select(sql)?;
        let mode = Self::resolve_mode(&stmt, mode);
        let logical = self.logical_plan(&stmt)?;
        let (ctx, batch_clusters, _, _) = self.make_context(mode)?;
        let mut planner = Planner {
            engine: self,
            ctx: &ctx,
            mode,
            batch_clusters,
            estimated: None,
            out_columns: Vec::new(),
        };
        Ok(planner.build(&logical)?.explain)
    }
}

struct EngineSchemas<'a>(&'a QueryEngine);

impl SchemaProvider for EngineSchemas<'_> {
    fn table_columns(&self, table: &str) -> Option<Vec<String>> {
        let idx = self.0.by_name.get(&table.to_lowercase())?;
        Some(
            self.0.tables[*idx]
                .table
                .schema()
                .fields()
                .iter()
                .map(|f| f.name.clone())
                .collect(),
        )
    }
}
