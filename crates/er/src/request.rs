//! The unified resolve entry point: one [`ResolveRequest`] describes
//! *what* to resolve (a query entity set or the whole table), *which*
//! Link Index handle it reads and commits to (an owned `&mut` or a
//! shared `RwLock`), and the optional trimmings (a [`ResolveBudget`], a
//! [`DedupMetrics`] sink) — executed by [`TableErIndex::run`]. Every
//! resolve takes *the* path: one entry check, one round loop, one Link
//! Index commit.
//!
//! ```
//! use queryer_er::{ErConfig, LinkIndex, ResolveRequest, TableErIndex};
//! use queryer_storage::{Schema, Table};
//!
//! let mut table = Table::new("people", Schema::of_strings(&["id", "name"]));
//! table.push_row(vec!["0".into(), "jo ann smith".into()]).unwrap();
//! table.push_row(vec!["1".into(), "jo ann smith".into()]).unwrap();
//! let idx = TableErIndex::build(&table, &ErConfig::default());
//! let mut li = LinkIndex::new(table.len());
//!
//! // Point query, owned LI:
//! let out = idx.run(ResolveRequest::records(&table, &[0], &mut li)).unwrap();
//! assert_eq!(out.dr, vec![0, 1]);
//!
//! // Whole table, with metrics:
//! let mut m = queryer_er::DedupMetrics::default();
//! let out = idx
//!     .run(ResolveRequest::all(&table, &mut li).metrics(&mut m))
//!     .unwrap();
//! assert!(out.completion.is_complete());
//! ```

use crate::govern::{ResolveBudget, ResolveError};
use crate::index::TableErIndex;
use crate::link_index::{LinkDelta, LinkIndex};
use crate::metrics::DedupMetrics;
use crate::resolver::ResolveOutcome;
use parking_lot::RwLock;
use queryer_storage::{RecordId, Table};
use std::time::{Duration, Instant};

/// What a resolve targets: an explicit query entity set, or every
/// record of the table (the batch-ER building block).
#[derive(Debug, Clone, Copy)]
pub enum ResolveTarget<'a> {
    /// Resolve these query entities (duplicates found transitively per
    /// the config).
    Records(&'a [RecordId]),
    /// Resolve the whole table.
    All,
}

/// The Link Index handle a resolve runs against. Both `&mut LinkIndex`
/// and `&RwLock<LinkIndex>` convert [`Into`] this, so call sites just
/// pass whichever they hold; the resolve protocol is the same for both
/// — read, accumulate privately, commit once — and the handle only
/// decides whether reading and committing take a lock.
pub enum LiMode<'a> {
    /// The caller owns the index for the call; no locking.
    Exclusive(&'a mut LinkIndex),
    /// N concurrent resolvers over one shared index: short-lived read
    /// locks, one brief write lock for the commit.
    Shared(&'a RwLock<LinkIndex>),
}

impl LiMode<'_> {
    /// Runs `f` over the Link Index as committed so far. A shared
    /// handle holds a read lock for exactly this call — callers keep
    /// `f` to hash probes, never Edge Pruning or comparison work — and
    /// charges the time spent acquiring it to `wait`.
    pub(crate) fn read<R>(&self, wait: &mut Duration, f: impl FnOnce(&LinkIndex) -> R) -> R {
        match self {
            LiMode::Exclusive(li) => f(li),
            LiMode::Shared(lock) => {
                let t0 = Instant::now();
                let guard = lock.read();
                *wait += t0.elapsed();
                f(&guard)
            }
        }
    }

    /// Publishes a query's private delta with one [`LinkIndex::commit`]
    /// (under one brief write lock on a shared handle, its acquisition
    /// charged to `wait`). Returns how many of the delta's links were
    /// new to the index.
    pub(crate) fn commit(&mut self, delta: &LinkDelta, wait: &mut Duration) -> usize {
        match self {
            LiMode::Exclusive(li) => li.commit(delta),
            LiMode::Shared(lock) => {
                let t0 = Instant::now();
                let mut guard = lock.write();
                *wait += t0.elapsed();
                guard.commit(delta)
            }
        }
    }
}

impl<'a> From<&'a mut LinkIndex> for LiMode<'a> {
    fn from(li: &'a mut LinkIndex) -> Self {
        LiMode::Exclusive(li)
    }
}

impl<'a> From<&'a RwLock<LinkIndex>> for LiMode<'a> {
    fn from(li: &'a RwLock<LinkIndex>) -> Self {
        LiMode::Shared(li)
    }
}

/// One resolve call, fully described: target, Link-Index handle, and
/// optional budget / metrics sink. Build with
/// [`ResolveRequest::records`] or [`ResolveRequest::all`], refine with
/// the builder methods, execute with [`TableErIndex::run`].
pub struct ResolveRequest<'a> {
    pub(crate) table: &'a Table,
    pub(crate) target: ResolveTarget<'a>,
    pub(crate) li: LiMode<'a>,
    pub(crate) budget: Option<ResolveBudget>,
    pub(crate) metrics: Option<&'a mut DedupMetrics>,
}

impl<'a> ResolveRequest<'a> {
    /// A request resolving the query entities `qe` of `table`. `li`
    /// accepts `&mut LinkIndex` (owned) or `&RwLock<LinkIndex>`
    /// (shared/concurrent).
    pub fn records(table: &'a Table, qe: &'a [RecordId], li: impl Into<LiMode<'a>>) -> Self {
        Self {
            table,
            target: ResolveTarget::Records(qe),
            li: li.into(),
            budget: None,
            metrics: None,
        }
    }

    /// A request resolving every record of `table` (batch ER).
    pub fn all(table: &'a Table, li: impl Into<LiMode<'a>>) -> Self {
        Self {
            table,
            target: ResolveTarget::All,
            li: li.into(),
            budget: None,
            metrics: None,
        }
    }

    /// Governs the resolve with `budget` (deadline / comparison cap /
    /// cancel token). Without this the run is unlimited.
    pub fn budget(mut self, budget: ResolveBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Accumulates stage timings and counters into `metrics`. Without
    /// this a scratch sink is used and discarded.
    pub fn metrics(mut self, metrics: &'a mut DedupMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }
}

impl TableErIndex {
    /// Executes a [`ResolveRequest`] — the one resolve entry point; see
    /// the [module docs](crate::request) for examples.
    ///
    /// The call only *reads* the Link Index while it works, accumulates
    /// its links and resolved marks in a private [`LinkDelta`], and
    /// publishes them with one commit at the end; a call that returns
    /// `Err` commits nothing. Budgets, partial outcomes and retry
    /// convergence are described in [`crate::govern`].
    ///
    /// Concurrency contract: N threads may call this for N different
    /// queries over one `Arc<TableErIndex>` and one `RwLock<LinkIndex>`
    /// simultaneously. Each query resolves against short-lived read
    /// snapshots (locks held for hash probes only, never across Edge
    /// Pruning or comparison work) and commits in one brief write
    /// critical section that dedups against concurrently-committed
    /// links. Because every match decision is a pure function of the
    /// immutable index, concurrent execution is serializable: any
    /// interleaving leaves the LI (links + resolved marks) identical to
    /// a serial execution of the same queries — races only cause
    /// duplicate work, which the commit dedups (pinned by
    /// `tests/concurrent_equivalence.rs`). A query that discovers
    /// nothing new (the warm, fully-resolved common case) skips the
    /// write lock entirely, so warm reads scale with reader concurrency.
    pub fn run(&self, req: ResolveRequest<'_>) -> Result<ResolveOutcome, ResolveError> {
        let ResolveRequest {
            table,
            target,
            li,
            budget,
            metrics,
        } = req;
        let budget = budget.unwrap_or_default();
        let mut scratch = DedupMetrics::default();
        let metrics = metrics.unwrap_or(&mut scratch);
        let all: Vec<RecordId>;
        let qe: &[RecordId] = match target {
            ResolveTarget::Records(qe) => qe,
            ResolveTarget::All => {
                all = (0..table.len() as RecordId).collect();
                &all
            }
        };
        self.resolve_and_commit(table, qe, li, metrics, &budget)
    }
}
