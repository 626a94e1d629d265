//! One run of one workload: set-up, the timed closed loop, the output
//! oracle, and the metrics that come out of it.
//!
//! The program under test receives only the generated tables, SQL text
//! and `DeltaOp`s, through `QueryEngine::execute` and
//! `QueryEngine::ingest`. Layers are measured from outside: by timing
//! calls into public functions and by reading the `QueryMetrics` the
//! engine already returns.

use crate::alloc::{self, AllocReading};
use crate::host;
use crate::metrics::Sample;
use crate::stats;
use crate::stream::{self, Op, Reset, Workload};
use crate::trace::{Recorder, Source};
use queryer_core::planner::stats::compute_table_stats;
use queryer_core::{ExecMode, QueryEngine, QueryMetrics};
use queryer_er::{
    open_index_snapshot, write_index_snapshot, Affected, AppliedDelta, DeltaOp, ErConfig,
    LinkIndex, TableErIndex,
};
use queryer_sql::{parse_select, plan_select, SchemaProvider};
use queryer_storage::Table;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// `setup_s` is the median of at least this many set-ups in a run...
const MIN_SETUPS: usize = 3;
/// ...and of more while they have taken less than this together: a
/// 0.05 s set-up needs more repetitions than a 1 s one to give a median
/// that holds still.
const SETUP_BUDGET_S: f64 = 1.0;
/// Checks the DQ ≡ BAQ oracle makes per workload: one per sampled
/// query, two per sampled dedup-join.
const ORACLE_CHECKS: usize = 24;

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced pass writes `<workload>.trace.jsonl` and keeps
    /// its snapshot scratch file.
    pub out_dir: PathBuf,
}

pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub noisy: bool,
    pub stream_fingerprint: u64,
    pub query_samples: usize,
    pub ingest_samples: usize,
    /// Passes the timed phase ran, the share of an unfinished last one
    /// included.
    pub passes: f64,
    /// See `oracle_dq_equals_baq`.
    pub deviations: Deviations,
    /// End-to-end metrics for an untraced run, per-layer for a traced one.
    pub metrics: Vec<Sample>,
}

/// A failure of the benchmark itself (not of an operation under test,
/// which is counted and reported instead).
pub type RunError = Box<dyn std::error::Error>;

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Table schemas for replaying `plan_select` outside the engine.
struct Schemas(Vec<(String, Vec<String>)>);

impl Schemas {
    fn of(tables: &[&Table]) -> Self {
        Self(
            tables
                .iter()
                .map(|t| {
                    let columns = t.schema().names().iter().map(|c| c.to_string()).collect();
                    (t.name().to_lowercase(), columns)
                })
                .collect(),
        )
    }
}

impl SchemaProvider for Schemas {
    fn table_columns(&self, table: &str) -> Option<Vec<String>> {
        let table = table.to_lowercase();
        self.0
            .iter()
            .find(|(name, _)| *name == table)
            .map(|(_, columns)| columns.clone())
    }
}

/// What one set-up took, and what it built.
struct Setup {
    tables: Vec<Table>,
    engine: QueryEngine,
    total: Duration,
    generate: Duration,
    register: Duration,
}

fn set_up(workload: Workload, seed: u64) -> Result<Setup, RunError> {
    let t0 = Instant::now();
    let tables = workload.tables(seed);
    let generate = t0.elapsed();
    let t1 = Instant::now();
    let mut engine = QueryEngine::new(ErConfig::default());
    for t in &tables {
        engine.register_table(t.clone())?;
    }
    let register = t1.elapsed();
    if let Some(sql) = workload.warm_up() {
        black_box(engine.execute(sql)?);
    }
    Ok(Setup {
        tables,
        engine,
        total: t0.elapsed(),
        generate,
        register,
    })
}

/// Drops the Link Index and every resolve cache of the named tables.
fn cold_reset(engine: &QueryEngine, tables: &[Table]) -> Result<(), RunError> {
    engine.clear_link_indices();
    for t in tables {
        engine.er_index(t.name())?.clear_ep_cache();
    }
    Ok(())
}

/// A bench-owned copy of a table and its index, fed the same writes as
/// the engine so that `apply_delta` and `compact` can be timed alone.
/// Its caches hold only what writes leave there, so it pays less cache
/// invalidation than the engine's index does.
struct Mirror {
    table: Table,
    er: TableErIndex,
}

impl Mirror {
    fn new(table: &Table) -> Self {
        Self {
            er: TableErIndex::build(table, &ErConfig::default()),
            table: table.clone(),
        }
    }

    fn apply(&mut self, op: &DeltaOp) -> Result<u64, RunError> {
        op.apply_to_table(&mut self.table)?;
        let t0 = Instant::now();
        self.er.apply_delta(&self.table, std::slice::from_ref(op))?;
        Ok(ns(t0.elapsed()))
    }
}

/// Sums over the operations of the first pass (its blocks, and every
/// probe write). They depend on the seed alone, so two runs must print
/// them identically.
#[derive(Default)]
struct Counts {
    rows_out: u64,
    qe_entities: u64,
    dr_entities: u64,
    candidate_pairs: u64,
    comparisons: u64,
    matches: u64,
    entities_processed: u64,
    ep_hits: u64,
    ep_misses: u64,
    decision_hits: u64,
    decision_misses: u64,
    cache_entries: u64,
    links: u64,
    resolved: u64,
    affected_ids: u64,
    affected_all: u64,
    pending_ops: u64,
    traced_queries: u64,
    alloc_calls: u64,
    alloc_bytes: u64,
}

impl Counts {
    fn add_query(&mut self, m: &QueryMetrics) {
        self.rows_out += m.rows_out as u64;
        self.qe_entities += m.qe_entities;
        self.dr_entities += m.dr_entities;
        self.candidate_pairs += m.er.candidate_pairs;
        self.comparisons += m.er.comparisons;
        self.matches += m.er.matches_found;
        self.entities_processed += m.er.entities_processed;
        self.ep_hits += m.er.ep_cache_hits;
        self.ep_misses += m.er.ep_cache_misses;
        self.decision_hits += m.er.decision_cache_hits;
        self.decision_misses += m.er.decision_cache_misses;
    }

    fn add_write(&mut self, applied: &AppliedDelta) {
        match &applied.affected {
            Affected::Ids(ids) => self.affected_ids += ids.len() as u64,
            Affected::All => self.affected_all += 1,
        }
        self.pending_ops = applied.pending_ops as u64;
    }
}

/// Nanosecond sums over the traced operations, by layer.
#[derive(Default)]
struct LayerTimes {
    queries: u64,
    query_span: u64,
    /// The queries that ran untraced beside them in a traced run.
    untraced_queries: u64,
    untraced_query_span: u64,
    parse: u64,
    logical_plan: u64,
    physical_plan: u64,
    query_blocking: u64,
    edge_pruning: u64,
    resolution: u64,
    group_entities: u64,
    join: u64,
    scan_filter_project: u64,
    plain_sql: u64,
    lock_wait: u64,
    decision_misses: u64,
    overrun: u64,
    /// Span of every traced write, and of those inside the timed phase.
    write_span: u64,
    phase_write_span: u64,
    delta_apply: u64,
    ingest_overhead: u64,
    /// `estimated ÷ executed` comparisons of each query the cost-based
    /// planner estimated and that executed any.
    estimate_ratios: Vec<f64>,
}

/// The closed loop's state: everything one client accumulates.
struct Loop<'a> {
    cfg: &'a RunConfig,
    engine: QueryEngine,
    schemas: Schemas,
    mirror: Option<Mirror>,
    epoch: Instant,
    recorder: Recorder,
    attempted: u64,
    failed: u64,
    /// Latency of each query and each write of a pass: the best over
    /// the passes run so far (see [`keep_best`]).
    query_ms: Vec<f64>,
    ingest_ms: Vec<f64>,
    /// Position of the next query and the next write in their pass.
    query_at: usize,
    ingest_at: usize,
    /// Whether the ops now running are traced; see [`traces_part`].
    tracing: bool,
    counts: Counts,
    times: LayerTimes,
}

/// A traced run traces every other part (a block of the stream, a
/// chunk of the probe writes), counted across passes; the rest run
/// exactly as in an untraced run and give the rate tracing is compared
/// to. Blocks hold the same mix, so the two halves do the same work.
/// Which half is traced swaps every ten parts, so that the five session
/// orders of `spj_session` (part `n` has order `n % 5`) are each
/// traced, and each left alone, twice in twenty sessions.
fn traces_part(n: usize) -> bool {
    (n + n / 10).is_multiple_of(2)
}

/// Records the latency of the op at position `*at` of its pass, keeping
/// the lowest seen over the passes, and moves on to the next position.
///
/// Every pass runs the same operations from the same state, so an op's
/// latencies differ only by what else the host was doing, and that only
/// ever adds time. The lowest is the one least touched by it: a slow
/// spell of the host has to cover every pass of an op to show.
fn keep_best(best: &mut Vec<f64>, at: &mut usize, latency_ms: f64) {
    match best.get_mut(*at) {
        Some(b) => *b = b.min(latency_ms),
        None => best.push(latency_ms),
    }
    *at += 1;
}

impl Loop<'_> {
    fn query(&mut self, sql: &str, counted: bool) {
        let traced = self.tracing;
        self.attempted += 1;
        let before = traced.then(|| {
            alloc::set_counting(true);
            AllocReading::now()
        });
        let start = Instant::now();
        let result = self.engine.execute(sql);
        let span = ns(start.elapsed());
        let allocs = before.map(|b| {
            alloc::set_counting(false);
            AllocReading::now().since(b)
        });
        // A failed op keeps its place in the pass, with the time it took.
        keep_best(&mut self.query_ms, &mut self.query_at, ms(span));
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("qbench: query failed: {e}\n  {sql}");
                self.failed += 1;
                return;
            }
        };
        let m = &result.metrics;
        if self.cfg.workload.expects_zero_comparisons() && m.comparisons() != 0 {
            eprintln!(
                "qbench: {} comparisons on a warm query\n  {sql}",
                m.comparisons()
            );
            self.failed += 1;
        }
        if counted {
            self.counts.add_query(m);
            if let Some(a) = allocs {
                self.counts.traced_queries += 1;
                self.counts.alloc_calls += a.calls;
                self.counts.alloc_bytes += a.bytes;
            }
        }
        if traced {
            self.attribute_query(sql, ns(start.duration_since(self.epoch)), span, m);
        } else {
            self.times.untraced_queries += 1;
            self.times.untraced_query_span += span;
        }
        black_box(result);
    }

    /// Splits a traced query's span over the layers.
    fn attribute_query(&mut self, sql: &str, start_ns: u64, span: u64, m: &QueryMetrics) {
        // Replays of the front half of `execute` on the same text. The
        // engine offers parse → logical → physical only as one call
        // (`explain`), so the physical share is that call minus the two
        // stages timed alone.
        let t = Instant::now();
        let stmt = parse_select(sql);
        let parse = ns(t.elapsed());
        let t = Instant::now();
        black_box(stmt.map(|s| plan_select(&s, &self.schemas)).ok());
        let logical = ns(t.elapsed());
        let t = Instant::now();
        black_box(self.engine.explain(sql, ExecMode::Auto).ok());
        let physical = ns(t.elapsed()).saturating_sub(parse + logical);
        // The same query with the ER operators taken out: what scan,
        // filter and projection cost on their own.
        let plain = sql.replacen("SELECT DEDUP", "SELECT", 1);
        let t = Instant::now();
        black_box(self.engine.execute_with(&plain, ExecMode::Plain).ok());
        let plain_sql = ns(t.elapsed());

        let blocking = ns(m.er.blocking + m.er.block_join);
        let edge_pruning = ns(m.er.meta_blocking());
        let resolution = ns(m.er.resolution);
        let (own, overrun) = self.recorder.record_op(
            "op.query",
            start_ns,
            start_ns + span,
            &[
                ("sql.parse", parse, Source::Replay),
                ("sql.logical_plan", logical, Source::Replay),
                ("core.planner.physical_plan", physical, Source::Replay),
                ("er.blocking.query_blocking", blocking, Source::Metrics),
                ("er.edge_pruning", edge_pruning, Source::Metrics),
                ("er.kernel.resolution", resolution, Source::Metrics),
                (
                    "core.operators.group_entities",
                    ns(m.grouping),
                    Source::Metrics,
                ),
                ("core.operators.join", ns(m.join), Source::Metrics),
            ],
        );
        let t = &mut self.times;
        t.queries += 1;
        t.query_span += span;
        t.parse += parse;
        t.logical_plan += logical;
        t.physical_plan += physical;
        t.query_blocking += blocking;
        t.edge_pruning += edge_pruning;
        t.resolution += resolution;
        t.group_entities += ns(m.grouping);
        t.join += ns(m.join);
        t.scan_filter_project += own;
        t.overrun += overrun;
        t.plain_sql += plain_sql;
        t.lock_wait += ns(m.er.lock_wait);
        t.decision_misses += m.er.decision_cache_misses;
        if let Some((left, right)) = m.estimated_comparisons {
            if m.comparisons() > 0 {
                t.estimate_ratios
                    .push((left + right) as f64 / m.comparisons() as f64);
            }
        }
    }

    fn write(&mut self, table: &str, op: &DeltaOp, counted: bool, in_phase: bool) {
        let traced = self.tracing;
        self.attempted += 1;
        let start = Instant::now();
        let result = self.engine.ingest(table, std::slice::from_ref(op));
        let span = ns(start.elapsed());
        keep_best(&mut self.ingest_ms, &mut self.ingest_at, ms(span));
        let applied = match result {
            Ok(a) => a,
            Err(e) => {
                eprintln!("qbench: write failed: {e}\n  {op:?}");
                self.failed += 1;
                return;
            }
        };
        if counted {
            self.counts.add_write(&applied);
        }
        // The mirror takes every write, traced or not, to stay in step.
        let Some(mirror) = &mut self.mirror else {
            return;
        };
        match mirror.apply(op) {
            Ok(apply) if traced => {
                let start_ns = ns(start.duration_since(self.epoch));
                let (own, overrun) = self.recorder.record_op(
                    "op.write",
                    start_ns,
                    start_ns + span,
                    &[("er.delta.apply", apply, Source::Replay)],
                );
                self.times.write_span += span;
                if in_phase {
                    self.times.phase_write_span += span;
                }
                self.times.delta_apply += apply;
                self.times.ingest_overhead += own;
                self.times.overrun += overrun;
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("qbench: mirror refused a write the engine took: {e}");
                self.failed += 1;
            }
        }
    }

    /// Reads the cross-query state the first pass left behind.
    fn sample_state(&mut self, tables: &[Table]) -> Result<(), RunError> {
        for t in tables {
            let (thresholds, survivors, decisions) =
                self.engine.er_index(t.name())?.resolve_cache_sizes();
            self.counts.cache_entries += (thresholds + survivors + decisions) as u64;
            let (resolved, links) = self.engine.link_index_stats(t.name())?;
            self.counts.resolved += resolved as u64;
            self.counts.links += links as u64;
        }
        Ok(())
    }
}

/// What the oracle found that is known of the parent commit and
/// therefore printed, not counted as failed.
#[derive(Default)]
pub struct Deviations {
    /// Rows the Batch Approach returned and the incremental dedup-joins
    /// of the sample did not.
    pub baq_only_rows: usize,
    /// Sampled queries a written table answered differently before and
    /// after its Link Index and caches were dropped.
    pub stale_answers: usize,
}

/// Canonical rows of `sql` under `mode`, or the error as text.
fn rows_under(engine: &QueryEngine, sql: &str, mode: ExecMode) -> Result<Vec<Vec<String>>, String> {
    engine
        .execute_with(sql, mode)
        .map(|r| r.canonical_rows())
        .map_err(|e| e.to_string())
}

/// Counts one oracle check; a failed one is reported with its query.
fn check(lp: &mut Loop, sql: &str, verdict: Result<(), String>) {
    lp.attempted += 1;
    if let Err(why) = verdict {
        eprintln!("qbench: oracle: {why}\n  {sql}");
        lp.failed += 1;
    }
}

/// The paper's DQ ≡ BAQ on a seeded sample of the window's queries: a
/// `DEDUP` query answered incrementally must return what the Batch
/// Approach (clean the whole table, then query) returns.
///
/// Single-table queries are held to row-set equality. A dedup-join is
/// not: Deduplicate-Join discards a selected record whose own join key
/// finds no partner before resolving it (Alg. 1 line 4), so an entity
/// that joins only through a duplicate outside the selection is in BAQ
/// and not in DQ — at the parent commit, one row in about a thousand.
/// For joins the oracle therefore checks what does hold exactly: every
/// DQ row is a BAQ row, and the session's warm answer equals the answer
/// from a cold Link Index and caches.
///
/// Nor is a table that took writes: at the parent commit the Link Index
/// that single-row writes leave behind can answer a query differently
/// from Batch, from a rebuilt engine and from itself once
/// cleared (README, *Output oracle*). There the sample is answered
/// first as the run left the engine, then the Link Index and caches are
/// dropped and DQ ≡ BAQ is checked from cold.
///
/// Both known deviations are returned as counts to print, not failures.
fn oracle_dq_equals_baq(
    lp: &mut Loop,
    queries: &[&str],
    tables: &[Table],
) -> Result<Deviations, RunError> {
    let joins = lp.cfg.workload == Workload::SpjSession;
    let written = lp.cfg.workload.writes_in_stream();
    let sample = if joins {
        ORACLE_CHECKS / 2
    } else {
        ORACLE_CHECKS
    };
    let step = (queries.len() / sample).max(1);
    let offset = lp.cfg.seed as usize % step;
    let sample: Vec<&str> = queries
        .iter()
        .copied()
        .skip(offset)
        .step_by(step)
        .take(sample)
        .collect();
    let mut deviations = Deviations::default();
    let as_left: Vec<_> = sample
        .iter()
        .map(|sql| rows_under(&lp.engine, sql, ExecMode::Auto))
        .collect();
    if written {
        cold_reset(&lp.engine, tables)?;
    }
    for (sql, as_left) in sample.into_iter().zip(as_left) {
        let dq = if written {
            let cold = rows_under(&lp.engine, sql, ExecMode::Auto);
            deviations.stale_answers += usize::from(cold != as_left);
            cold
        } else {
            as_left
        };
        let baq = rows_under(&lp.engine, sql, ExecMode::Batch);
        let verdict = match (&dq, &baq) {
            (Ok(dq), Ok(baq)) if !joins && dq == baq => Ok(()),
            (Ok(dq), Ok(baq)) if !joins => Err(format!(
                "{} rows incrementally, {} under Batch",
                dq.len(),
                baq.len()
            )),
            // An aggregate over a join that lacks a row has no BAQ row
            // to be found in; it is held to cold ≡ warm below only.
            (Ok(_), Ok(_)) if sql.contains("COUNT(*)") => Ok(()),
            // Both are sorted, so membership is a binary search.
            (Ok(dq), Ok(baq)) => match dq.iter().find(|r| baq.binary_search(r).is_err()) {
                None => {
                    deviations.baq_only_rows += baq.len() - dq.len();
                    Ok(())
                }
                Some(row) => Err(format!("a row Batch does not return: {row:?}")),
            },
            (Err(e), _) | (_, Err(e)) => Err(e.clone()),
        };
        check(lp, sql, verdict);
        if joins {
            cold_reset(&lp.engine, tables)?;
            let cold = rows_under(&lp.engine, sql, ExecMode::Auto);
            let verdict = if cold == dq {
                Ok(())
            } else {
                Err("the warm session answer differs from the cold one".to_string())
            };
            check(lp, sql, verdict);
        }
    }
    Ok(deviations)
}

/// Ingest ≡ rebuild: the live table must answer as a fresh engine
/// registered on its final rows does.
fn oracle_ingest_equals_rebuild(lp: &mut Loop) -> Result<(), RunError> {
    let table = (*lp.engine.table("dsd")?).clone();
    let n = table.len();
    let mut fresh = QueryEngine::new(ErConfig::default());
    fresh.register_table(table)?;
    let mut checks = vec!["SELECT DEDUP COUNT(*) FROM dsd".to_string()];
    for (lo, hi) in [(0, n / 10), (n / 3, n / 2), (n - n / 8, n)] {
        checks.push(format!(
            "SELECT DEDUP * FROM dsd WHERE id >= {lo} AND id < {hi}"
        ));
    }
    for sql in &checks {
        let live = rows_under(&lp.engine, sql, ExecMode::Auto);
        let rebuilt = rows_under(&fresh, sql, ExecMode::Auto);
        let verdict = if live == rebuilt {
            live.map(|_| ())
        } else {
            Err("the live table and a rebuild of it answer differently".to_string())
        };
        check(lp, sql, verdict);
    }
    Ok(())
}

/// What building one table's index costs, measured on a bench-owned
/// index (traced runs only).
#[derive(Default)]
struct BuildCosts {
    build: u64,
    table_stats: u64,
    bulk_thresholds: u64,
    snapshot_write: u64,
    snapshot_open: u64,
    snapshot_bytes: u64,
    blocks: u64,
    unpurged_blocks: u64,
    total_comparisons: u64,
    rss_mb: f64,
    heap_bytes: u64,
    records: u64,
}

impl BuildCosts {
    fn measure(&mut self, table: &Table, scratch: &Path) -> Result<(), RunError> {
        let cfg = ErConfig::default();
        let t = Instant::now();
        drop(black_box(TableErIndex::build(table, &cfg)));
        self.build += ns(t.elapsed());
        // Built a second time to meter its memory: the counting
        // allocator would slow the timed build.
        let rss = host::rss_mb();
        alloc::set_counting(true);
        let heap = AllocReading::now();
        let er = TableErIndex::build(table, &cfg);
        self.heap_bytes += AllocReading::now().since(heap).retained();
        alloc::set_counting(false);
        self.rss_mb += (host::rss_mb() - rss).max(0.0);
        self.records += table.len() as u64;
        self.blocks += er.n_blocks() as u64;
        self.unpurged_blocks += er.n_unpurged_blocks() as u64;
        self.total_comparisons += er.total_comparisons();

        // Registration sweeps the thresholds as part of its statistics
        // sample; timed alone first, then dropped so that the
        // statistics below cost what they cost inside `register_table`
        // and the snapshot carries a cold index.
        let t = Instant::now();
        black_box(er.bulk_ep_thresholds());
        self.bulk_thresholds += ns(t.elapsed());
        er.clear_ep_cache();
        let t = Instant::now();
        black_box(compute_table_stats(table, &er));
        self.table_stats += ns(t.elapsed());
        er.clear_ep_cache();

        let li = LinkIndex::new(table.len());
        let t = Instant::now();
        write_index_snapshot(scratch, &er, &li, table)?;
        self.snapshot_write += ns(t.elapsed());
        self.snapshot_bytes += std::fs::metadata(scratch)?.len();
        let t = Instant::now();
        black_box(open_index_snapshot(scratch, table, &cfg)?);
        self.snapshot_open += ns(t.elapsed());
        std::fs::remove_file(scratch)?;
        Ok(())
    }
}

pub fn run(cfg: &RunConfig) -> Result<RunReport, RunError> {
    let w = cfg.workload;
    let calib_before = host::calibrate_ms();

    // The set-up the first pass runs on. Every later pass sets up again,
    // and more set-ups follow the timed phase (see below): one is too
    // short a measurement to compare across commits.
    let Setup {
        tables,
        engine,
        total,
        generate,
        register,
    } = set_up(w, cfg.seed)?;
    let mut setup_s = vec![total.as_secs_f64()];
    let mut generate_ms = vec![ms(ns(generate))];
    let mut register_ms = vec![ms(ns(register))];

    let mut build = BuildCosts::default();
    if cfg.trace {
        std::fs::create_dir_all(&cfg.out_dir)?;
        let scratch = cfg.out_dir.join(format!("{}.snapshot.tmp", w.name()));
        for t in &tables {
            build.measure(t, &scratch)?;
        }
    }

    // A pass: the workload's blocks and, on a read-only workload, the
    // probe writes to a side table, untimed, in chunks spread evenly
    // between the blocks (they then meet the host at the same moments
    // the queries do, where one burst after the blocks would meet it at
    // one). The stream depends on the seed and the registered tables
    // alone, so every pass replays the same operations.
    let blocks: Vec<Vec<Op>> = {
        let mut stream = w.stream(cfg.seed, &tables);
        (0..w.pass_blocks()).map(|_| stream.next_block()).collect()
    };
    let probe = (!w.writes_in_stream()).then(|| stream::probe_table(cfg.seed));
    let probe_writes = probe
        .as_ref()
        .map_or(Vec::new(), |p| stream::probe_writes(cfg.seed, p));
    let chunks: Vec<&[Op]> = probe_writes.chunks(stream::WRITES_PER_BLOCK).collect();

    let mut schema_tables: Vec<&Table> = tables.iter().collect();
    schema_tables.extend(probe.as_ref());
    let mut lp = Loop {
        cfg,
        engine,
        schemas: Schemas::of(&schema_tables),
        mirror: None,
        epoch: Instant::now(),
        recorder: Recorder::default(),
        attempted: 0,
        failed: 0,
        query_ms: Vec::new(),
        ingest_ms: Vec::new(),
        query_at: 0,
        ingest_at: 0,
        tracing: false,
        counts: Counts::default(),
        times: LayerTimes::default(),
    };

    // The timed phase: one whole pass, then further passes, each on a
    // fresh set-up, until the time is up (the last one stops at the end
    // of the block it is in). Counts, and the memory high-water mark,
    // are the first pass's, so they do not depend on how many followed.
    let started = Instant::now();
    let time_is_up = || started.elapsed().as_secs_f64() >= cfg.seconds;
    let mut passes = 0.0;
    let mut parts = 0;
    let mut peak_rss = 0.0;
    let mut compact_ns = 0;
    'timed: loop {
        let first = passes == 0.0;
        if !first {
            // The engine the last pass wrote to goes before its
            // successor is built, as it would between two processes.
            lp.engine = QueryEngine::new(ErConfig::default());
            let again = set_up(w, cfg.seed)?;
            setup_s.push(again.total.as_secs_f64());
            generate_ms.push(ms(ns(again.generate)));
            register_ms.push(ms(ns(again.register)));
            lp.engine = again.engine;
        }
        if let Some(probe) = &probe {
            lp.engine.register_table(probe.clone())?;
        }
        if cfg.trace {
            lp.mirror = Some(Mirror::new(probe.as_ref().unwrap_or(&tables[0])));
        }
        (lp.query_at, lp.ingest_at) = (0, 0);
        let mut chunks_done = 0;
        for (b, ops) in blocks.iter().enumerate() {
            if !first && time_is_up() {
                passes += b as f64 / blocks.len() as f64;
                break 'timed;
            }
            lp.tracing = cfg.trace && traces_part(parts);
            parts += 1;
            if w.reset() == Reset::PerBlock {
                cold_reset(&lp.engine, &tables)?;
            }
            for op in ops {
                match op {
                    Op::Query(sql) => {
                        if w.reset() == Reset::PerQuery {
                            cold_reset(&lp.engine, &tables)?;
                        }
                        lp.query(sql, first);
                    }
                    Op::Write { table, op } => lp.write(table, op, first, true),
                }
            }
            while chunks_done < (b + 1) * chunks.len() / blocks.len() {
                lp.tracing = cfg.trace && traces_part(chunks_done);
                for op in chunks[chunks_done] {
                    if let Op::Write { table, op } = op {
                        lp.write(table, op, first, false);
                    }
                }
                chunks_done += 1;
            }
        }
        if first {
            lp.sample_state(&tables)?;
            peak_rss = host::peak_rss_mb();
            // The mirror now holds a pass's writes as pending delta
            // (the next pass builds its own).
            if let Some(m) = &mut lp.mirror {
                let t = Instant::now();
                m.er.compact(&m.table)?;
                compact_ns = ns(t.elapsed());
            }
        }
        passes += 1.0;
        if time_is_up() {
            break;
        }
    }
    // Untimed from here on.
    let calib_after = host::calibrate_ms();
    let drift = (calib_after - calib_before).abs() / calib_before;
    while setup_s.len() < MIN_SETUPS || setup_s.iter().sum::<f64>() < SETUP_BUDGET_S {
        let again = set_up(w, cfg.seed)?;
        setup_s.push(again.total.as_secs_f64());
        generate_ms.push(ms(ns(again.generate)));
        register_ms.push(ms(ns(again.register)));
    }

    let window_ops: Vec<&Op> = blocks.iter().flatten().chain(&probe_writes).collect();
    let window_queries: Vec<&str> = window_ops
        .iter()
        .filter_map(|op| match op {
            Op::Query(sql) => Some(sql.as_str()),
            Op::Write { .. } => None,
        })
        .collect();
    let deviations = oracle_dq_equals_baq(&mut lp, &window_queries, &tables)?;
    if w.writes_in_stream() {
        oracle_ingest_equals_rebuild(&mut lp)?;
    }

    let (mut query_ms, mut ingest_ms) = (lp.query_ms, lp.ingest_ms);
    let (query_samples, ingest_samples) = (query_ms.len(), ingest_ms.len());

    let metrics = if cfg.trace {
        lp.recorder
            .write_jsonl(&cfg.out_dir.join(format!("{}.trace.jsonl", w.name())))?;
        let c = &lp.counts;
        let t = &lp.times;
        // Shares are of the traced op time of the timed phase; the two
        // `er.delta` / `ingest_overhead` shares are of the write time,
        // wherever the writes ran.
        let op_span = (t.query_span + t.phase_write_span) as f64;
        let share = |layer: u64| ratio(layer as f64, op_span);
        let per_query_us = |layer: u64| ratio(layer as f64 / 1e3, t.queries as f64);
        let er_total = t.query_blocking + t.edge_pruning + t.resolution;
        // Mean query latency of the traced blocks and of the others.
        let traced_ms = ratio(ms(t.query_span), t.queries as f64);
        let untraced_ms = ratio(ms(t.untraced_query_span), t.untraced_queries as f64);
        vec![
            Sample::new("datagen.generate_ms", stats::median(&generate_ms)),
            Sample::new("core.engine.register_ms", stats::median(&register_ms)),
            Sample::new("core.planner.table_stats_ms", ms(build.table_stats)),
            Sample::new("er.index.build_ms", ms(build.build)),
            Sample::new("er.index.blocks.count", build.blocks as f64),
            Sample::new(
                "er.index.unpurged_blocks.count",
                build.unpurged_blocks as f64,
            ),
            Sample::new(
                "er.index.total_comparisons.count",
                build.total_comparisons as f64,
            ),
            Sample::new("er.index.rss_mb", build.rss_mb),
            Sample::new(
                "er.index.bytes_per_record",
                ratio(build.heap_bytes as f64, build.records as f64),
            ),
            Sample::new(
                "er.edge_pruning.bulk_thresholds_ms",
                ms(build.bulk_thresholds),
            ),
            Sample::new("er.snapshot.write_ms", ms(build.snapshot_write)),
            Sample::new("er.snapshot.open_ms", ms(build.snapshot_open)),
            Sample::new(
                "er.snapshot.file_mb",
                build.snapshot_bytes as f64 / (1 << 20) as f64,
            ),
            Sample::new("sql.parse_us", per_query_us(t.parse)),
            Sample::new("sql.parse_share", share(t.parse)),
            Sample::new("sql.logical_plan_us", per_query_us(t.logical_plan)),
            Sample::new("sql.logical_plan_share", share(t.logical_plan)),
            Sample::new(
                "core.planner.physical_plan_us",
                per_query_us(t.physical_plan),
            ),
            Sample::new("core.planner.physical_plan_share", share(t.physical_plan)),
            Sample::new(
                "core.planner.estimate_ratio",
                if t.estimate_ratios.is_empty() {
                    0.0
                } else {
                    stats::median(&t.estimate_ratios)
                },
            ),
            Sample::new(
                "core.operators.scan_filter_project_ms",
                ms(t.scan_filter_project),
            ),
            Sample::new(
                "core.operators.scan_filter_project_share",
                share(t.scan_filter_project),
            ),
            Sample::new("core.operators.plain_sql_ms", ms(t.plain_sql)),
            Sample::new("core.operators.group_entities_ms", ms(t.group_entities)),
            Sample::new(
                "core.operators.group_entities_share",
                share(t.group_entities),
            ),
            Sample::new("core.operators.join_ms", ms(t.join)),
            Sample::new("core.operators.join_share", share(t.join)),
            Sample::new("core.operators.rows_out.count", c.rows_out as f64),
            Sample::new("core.operators.qe_entities.count", c.qe_entities as f64),
            Sample::new("core.operators.dr_entities.count", c.dr_entities as f64),
            Sample::new("er.resolver.total_ms", ms(er_total)),
            Sample::new("er.resolver.total_share", share(er_total)),
            Sample::new("er.blocking.query_blocking_ms", ms(t.query_blocking)),
            Sample::new("er.blocking.query_blocking_share", share(t.query_blocking)),
            Sample::new("er.edge_pruning.ms", ms(t.edge_pruning)),
            Sample::new("er.edge_pruning.share", share(t.edge_pruning)),
            Sample::new(
                "er.edge_pruning.candidate_pairs.count",
                c.candidate_pairs as f64,
            ),
            Sample::new("er.kernel.resolution_ms", ms(t.resolution)),
            Sample::new("er.kernel.resolution_share", share(t.resolution)),
            Sample::new(
                "er.kernel.ns_per_comparison",
                ratio(t.resolution as f64, t.decision_misses as f64),
            ),
            Sample::new("er.kernel.comparisons.count", c.comparisons as f64),
            Sample::new("er.kernel.matches.count", c.matches as f64),
            Sample::new(
                "er.cache.ep_hit_ratio",
                ratio(c.ep_hits as f64, (c.ep_hits + c.ep_misses) as f64),
            ),
            Sample::new(
                "er.cache.decision_hit_ratio",
                ratio(
                    c.decision_hits as f64,
                    (c.decision_hits + c.decision_misses) as f64,
                ),
            ),
            Sample::new("er.cache.entries.count", c.cache_entries as f64),
            Sample::new(
                "er.link_index.served_ratio",
                1.0 - ratio(c.entities_processed as f64, c.dr_entities as f64),
            ),
            Sample::new("er.link_index.links.count", c.links as f64),
            Sample::new("er.link_index.resolved.count", c.resolved as f64),
            Sample::new("er.link_index.lock_wait_ms", ms(t.lock_wait)),
            Sample::new("er.delta.apply_ms", ms(t.delta_apply)),
            Sample::new(
                "er.delta.apply_share",
                ratio(t.delta_apply as f64, t.write_span as f64),
            ),
            Sample::new("er.delta.compact_ms", ms(compact_ns)),
            Sample::new("er.delta.affected_ids.count", c.affected_ids as f64),
            Sample::new("er.delta.affected_all.count", c.affected_all as f64),
            Sample::new("er.delta.pending_ops.count", c.pending_ops as f64),
            Sample::new("core.engine.ingest_overhead_ms", ms(t.ingest_overhead)),
            Sample::new(
                "core.engine.ingest_overhead_share",
                ratio(t.ingest_overhead as f64, t.write_span as f64),
            ),
            Sample::new("core.engine.write_time_share", share(t.phase_write_span)),
            Sample::new("host.calib_ms", calib_before),
            Sample::new("host.calib_drift", drift),
            Sample::new(
                "alloc.count_per_query",
                ratio(c.alloc_calls as f64, c.traced_queries as f64),
            ),
            Sample::new(
                "alloc.bytes_per_query",
                ratio(c.alloc_bytes as f64, c.traced_queries as f64),
            ),
            Sample::new("trace.overhead_share", 1.0 - ratio(untraced_ms, traced_ms)),
            Sample::new(
                "trace.overrun_share",
                ratio(t.overrun as f64, (t.query_span + t.write_span) as f64),
            ),
        ]
    } else {
        // Op time of one pass: its queries and, where the stream itself
        // writes, its writes (probe writes are beside the stream).
        let writes_ms = if w.writes_in_stream() {
            ingest_ms.iter().sum()
        } else {
            0.0
        };
        let op_s = (query_ms.iter().sum::<f64>() + writes_ms) / 1e3;
        let (query_p50, query_p95) = stats::p50_p95(&mut query_ms);
        let (ingest_p50, ingest_p95) = stats::p50_p95(&mut ingest_ms);
        let need = |v: Option<f64>, what: &str| {
            v.ok_or_else(|| format!("too few samples for {what}: the workload is undersized"))
        };
        vec![
            Sample::new("setup_s", stats::median(&setup_s)),
            Sample::new("query_p50_ms", need(query_p50, "query_p50_ms")?),
            Sample::new("query_p95_ms", need(query_p95, "query_p95_ms")?),
            Sample::new("queries_per_s", ratio(query_ms.len() as f64, op_s)),
            Sample::new("ingest_p50_ms", need(ingest_p50, "ingest_p50_ms")?),
            Sample::new("ingest_p95_ms", need(ingest_p95, "ingest_p95_ms")?),
            Sample::new("peak_rss_mb", peak_rss),
        ]
    };

    Ok(RunReport {
        attempted: lp.attempted,
        failed: lp.failed,
        noisy: drift > 0.10,
        stream_fingerprint: stream::fingerprint(window_ops),
        query_samples,
        ingest_samples,
        passes,
        deviations,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::keep_best;

    #[test]
    fn an_ops_latency_is_the_lowest_of_its_passes() {
        let mut best = Vec::new();
        // Two whole passes of three ops, then a pass cut short.
        for pass in [&[3.0, 5.0, 4.0][..], &[4.0, 2.0, 4.5], &[1.0]] {
            let mut at = 0;
            for &latency in pass {
                keep_best(&mut best, &mut at, latency);
            }
            assert_eq!(at, pass.len());
        }
        assert_eq!(best, [1.0, 2.0, 4.0]);
    }
}
