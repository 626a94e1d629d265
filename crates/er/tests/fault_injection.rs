//! Fault-injection proof of the resolver's panic isolation (requires
//! `--features failpoints`).
//!
//! Each test arms one failpoint site planted inside a `thread::scope`
//! fan-out (or at a stage boundary), drives a resolve into it, and
//! asserts the contract the governance layer promises:
//!
//! - a panicking **worker** is consumed at its join and surfaces as
//!   `ResolveError::WorkerPanicked { stage }` — never an unwinding
//!   resolve call;
//! - after the fault (site disarmed), the *same* index serves
//!   byte-identical decisions to a freshly built one: workers write no
//!   shared state (the decision memo takes a batch only after all its
//!   workers joined), so a lost worker cannot leave half-written state
//!   behind;
//! - a resolve that returns `Err` has committed nothing — the caller's
//!   Link Index is exactly as it was, whichever kind of handle it passed
//!   — so the call can simply be retried;
//! - the one compound mutation (`clear_ep_cache`) poisons the index if
//!   interrupted mid-flight, and a poisoned index refuses to resolve
//!   with `ResolveError::Poisoned` instead of serving a half-cleared
//!   decision memo;
//! - delay actions (the CI fault-matrix mode) perturb timing only —
//!   decisions stay bit-identical.
//!
//! The failpoint registry is process-global, so every test serializes on
//! one mutex and disarms all sites before releasing it.

#![cfg(feature = "failpoints")]
#![allow(clippy::field_reassign_with_default)] // config tweaks read clearer as assignments

use parking_lot::{Mutex, RwLock};
use queryer_common::failpoints::{self, FailAction};
use queryer_er::{
    DedupMetrics, DeltaOp, EdgePruningScope, ErConfig, LinkIndex, MetaBlockingConfig, ResolveError,
    ResolveRequest, ResolveStage, SimilarityKind, TableErIndex, WeightScheme,
};
use queryer_storage::{RecordId, Schema, Table};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Serializes tests: failpoints are process-global state.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Guard that holds the test lock and disarms every site on drop, so a
/// failing assertion cannot leak an armed site into the next test.
struct FaultGuard<'a>(#[allow(dead_code)] parking_lot::MutexGuard<'a, ()>);

impl Drop for FaultGuard<'_> {
    fn drop(&mut self) {
        failpoints::disarm_all();
    }
}

fn faults() -> FaultGuard<'static> {
    let guard = FAULT_LOCK.lock();
    failpoints::disarm_all();
    FaultGuard(guard)
}

/// Workload big enough that every parallel fan-out actually spawns:
/// frontier ≥ the 256-node parallel-scan cutoff and first-round pair
/// volume ≥ the 1024-pair parallel-comparison cutoff.
fn workload() -> Table {
    queryer_datagen::scholarly::dblp_scholar(1000, 7).table
}

/// All knobs pinned to 4 threads so the scoped fan-outs (and their
/// failpoints) run on every machine, plus a choice of EP scope.
fn cfg(scope: EdgePruningScope) -> ErConfig {
    let mut cfg = ErConfig::default();
    cfg.ep_scope = scope;
    cfg.threads = 4;
    cfg
}

/// The observable outcome of a full resolve: DR, decision counts, and
/// the complete link matrix.
#[derive(Debug, PartialEq)]
struct Decisions {
    dr: Vec<RecordId>,
    comparisons: u64,
    candidate_pairs: u64,
    matches_found: u64,
    links: Vec<bool>,
}

fn resolve_decisions(idx: &TableErIndex, table: &Table) -> Decisions {
    let mut li = LinkIndex::new(table.len());
    let mut m = DedupMetrics::default();
    let out = idx
        .run(ResolveRequest::all(table, &mut li).metrics(&mut m))
        .unwrap();
    let n = table.len() as RecordId;
    let mut links = Vec::with_capacity((n * n) as usize);
    for a in 0..n {
        for b in 0..n {
            links.push(li.are_linked(a, b));
        }
    }
    Decisions {
        dr: out.dr,
        comparisons: m.comparisons,
        candidate_pairs: m.candidate_pairs,
        matches_found: m.matches_found,
        links,
    }
}

/// After a fault, the injured index must serve byte-identical decisions
/// to a freshly built one.
fn assert_serves_like_fresh(injured: &TableErIndex, table: &Table, config: &ErConfig) {
    let fresh = TableErIndex::build(table, config);
    let got = resolve_decisions(injured, table);
    let want = resolve_decisions(&fresh, table);
    assert_eq!(got, want, "injured index diverged from a fresh build");
    assert!(got.comparisons > 0, "workload must execute comparisons");
}

/// One armed-panic round-trip: arm `site`, expect `resolve_all` to
/// return `WorkerPanicked` at `stage`, disarm, and prove the index still
/// serves like a fresh one.
fn assert_worker_panic_isolated(site: &str, config: &ErConfig, stage: ResolveStage) {
    let table = workload();
    let idx = TableErIndex::build(&table, config);

    failpoints::arm(site, FailAction::Panic);
    let mut li = LinkIndex::new(table.len());
    let mut m = DedupMetrics::default();
    let err = idx
        .run(ResolveRequest::all(&table, &mut li).metrics(&mut m))
        .unwrap_err();
    assert_eq!(
        err,
        ResolveError::WorkerPanicked { stage },
        "site {site} must surface as a typed worker panic"
    );
    assert!(!idx.is_poisoned(), "worker panics never poison the index");

    failpoints::disarm(site);
    assert_serves_like_fresh(&idx, &table, config);
}

#[test]
fn tokenize_worker_panic_fails_build_with_typed_error() {
    let _guard = faults();
    let table = workload();
    let config = cfg(EdgePruningScope::NodeCentric);

    failpoints::arm("build.tokenize.worker", FailAction::Panic);
    let err = TableErIndex::try_build(&table, &config).unwrap_err();
    assert_eq!(
        err,
        ResolveError::WorkerPanicked {
            stage: ResolveStage::Build
        }
    );

    failpoints::disarm("build.tokenize.worker");
    let idx = TableErIndex::try_build(&table, &config).unwrap();
    assert_serves_like_fresh(&idx, &table, &config);
}

#[test]
fn threshold_worker_panic_fails_build_with_typed_error() {
    let _guard = faults();
    let table = workload();
    // WNP thresholds are swept at build for node-centric EP configs.
    let config = cfg(EdgePruningScope::NodeCentric);

    failpoints::arm("build.thresholds.worker", FailAction::Panic);
    let err = TableErIndex::try_build(&table, &config).unwrap_err();
    assert_eq!(
        err,
        ResolveError::WorkerPanicked {
            stage: ResolveStage::Build
        }
    );

    failpoints::disarm("build.thresholds.worker");
    let idx = TableErIndex::try_build(&table, &config).unwrap();
    assert_serves_like_fresh(&idx, &table, &config);
}

/// Under ECBS weights a delta re-sweeps every threshold after the
/// overlay is in. A worker lost there fails the apply with a typed
/// error and poisons the index — its thresholds no longer match its
/// graph — and a compaction (a rebuild of the mutated table) recovers
/// it.
#[test]
fn threshold_resweep_panic_poisons_the_apply_until_compact() {
    let _guard = faults();
    let mut table = workload();
    let mut config = cfg(EdgePruningScope::NodeCentric);
    config.weight_scheme = WeightScheme::Ecbs;
    let mut idx = TableErIndex::build(&table, &config);
    let op = DeltaOp::Insert {
        values: table.record(0).unwrap().values.clone(),
    };
    op.apply_to_table(&mut table).unwrap();

    failpoints::arm("build.thresholds.worker", FailAction::Panic);
    let err = idx.apply_delta(&table, &[op]).unwrap_err();
    assert_eq!(
        err,
        ResolveError::WorkerPanicked {
            stage: ResolveStage::Build
        }
    );
    assert!(idx.is_poisoned(), "a torn threshold re-sweep must poison");
    let mut li = LinkIndex::new(table.len());
    assert_eq!(
        idx.run(ResolveRequest::all(&table, &mut li)).unwrap_err(),
        ResolveError::Poisoned
    );

    failpoints::disarm("build.thresholds.worker");
    idx.compact(&table).unwrap();
    assert!(!idx.is_poisoned(), "compaction rebuilds a sound index");
    assert_serves_like_fresh(&idx, &table, &config);
}

#[test]
fn survivor_fill_worker_panic_is_isolated() {
    let _guard = faults();
    assert_worker_panic_isolated(
        "ep.survivors.worker",
        &cfg(EdgePruningScope::NodeCentric),
        ResolveStage::EdgePruning,
    );
}

#[test]
fn global_scan_worker_panic_is_isolated() {
    let _guard = faults();
    // "ep.scan.worker" belongs to the Global (WEP) frontier scan alone.
    assert_worker_panic_isolated(
        "ep.scan.worker",
        &cfg(EdgePruningScope::Global),
        ResolveStage::EdgePruning,
    );
}

#[test]
fn comparison_worker_panic_is_isolated() {
    let _guard = faults();
    assert_worker_panic_isolated(
        "cmp.worker",
        &cfg(EdgePruningScope::NodeCentric),
        ResolveStage::ComparisonExecution,
    );
}

#[test]
fn resolver_thread_panic_leaves_index_clean() {
    let _guard = faults();
    let table = workload();
    let config = cfg(EdgePruningScope::NodeCentric);
    let idx = TableErIndex::build(&table, &config);

    // "resolve.round" fires on the *caller's* thread, so the panic
    // unwinds out of resolve_all itself — the shape of a bug in resolver
    // glue rather than in a worker. The index must stay valid; the
    // unwound call's uncommitted links are simply dropped.
    failpoints::arm("resolve.round", FailAction::Panic);
    let mut li = LinkIndex::new(table.len());
    let mut m = DedupMetrics::default();
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        let _ = idx.run(ResolveRequest::all(&table, &mut li).metrics(&mut m));
    }));
    assert!(unwound.is_err(), "armed resolve.round must panic");
    assert!(!idx.is_poisoned());

    failpoints::disarm("resolve.round");
    assert_serves_like_fresh(&idx, &table, &config);
}

/// A resolve that fails in a *later* round has, by then, found links
/// and finished rounds — and still commits none of it. Round one here is
/// a single entity with eight candidate pairs, so it runs sequentially
/// and never reaches the armed site; it links the eight "hub" records,
/// whose round-two frontier carries > 1024 candidate pairs and fans the
/// comparison kernels out into the armed `cmp.worker`. The `&mut
/// LinkIndex` must come back exactly as it went in, and a retry after
/// disarming must converge to the full answer.
#[test]
fn failed_later_round_commits_nothing_and_retry_converges() {
    let _guard = faults();
    let mut table = Table::new("p", Schema::of_strings(&["id", "words"]));
    let mut push = |words: String| {
        let id = table.len().to_string();
        table.push_row(vec![id.into(), words.into()]).unwrap();
    };
    push("alpha".into());
    for _ in 0..8 {
        push("alpha hub".into());
    }
    for i in 0..300 {
        push(format!("hub filler{i}"));
    }
    // No meta-blocking: every co-occurring pair is a candidate, so the
    // round sizes above are exact. Containment makes "alpha" match
    // "alpha hub" (overlap coefficient 1) and nothing match a filler.
    let mut config = ErConfig::default().with_meta(MetaBlockingConfig::None);
    config.similarity = SimilarityKind::TokenOverlap;
    config.match_threshold = 0.95;
    config.threads = 4;
    let idx = TableErIndex::build(&table, &config);

    // Reference on a separate build, so `idx`'s decision cache stays
    // cold and round two's kernel batch keeps its fan-out size.
    let full = {
        let mut li = LinkIndex::new(table.len());
        let out = TableErIndex::build(&table, &config)
            .run(ResolveRequest::records(&table, &[0], &mut li))
            .unwrap();
        assert_eq!(out.dr, (0..9).collect::<Vec<RecordId>>());
        (out.dr, li.link_count(), li.resolved_count())
    };

    // A Link Index with prior content, so "unchanged" is not "empty".
    let mut li = LinkIndex::new(table.len());
    li.add_link(100, 101);
    li.mark_resolved(100);
    let before = (li.link_count(), li.resolved_count());

    failpoints::arm("cmp.worker", FailAction::Panic);
    let mut m = DedupMetrics::default();
    let err = idx
        .run(ResolveRequest::records(&table, &[0], &mut li).metrics(&mut m))
        .unwrap_err();
    assert_eq!(
        err,
        ResolveError::WorkerPanicked {
            stage: ResolveStage::ComparisonExecution
        }
    );
    assert!(
        m.matches_found >= 8 && m.entities_processed >= 1,
        "round one must have completed and found its links before the fault"
    );
    assert_eq!(
        (li.link_count(), li.resolved_count()),
        before,
        "a failed resolve must commit nothing"
    );
    assert!(!li.are_linked(0, 1) && !li.is_resolved(0));

    failpoints::disarm("cmp.worker");
    let out = idx
        .run(ResolveRequest::records(&table, &[0], &mut li))
        .unwrap();
    assert_eq!(out.dr, full.0);
    assert_eq!(
        (li.link_count(), li.resolved_count()),
        (before.0 + full.1, before.1 + full.2),
        "the retry must land the full answer next to the prior content"
    );
}

/// The same contract on a shared handle, under concurrency: three
/// queries that each lose a comparison worker commit nothing to the
/// `RwLock<LinkIndex>`, and three retries after disarming converge to
/// the reference links with every record resolved.
#[test]
fn concurrent_worker_panics_commit_nothing_and_retry_converges() {
    let _guard = faults();
    let table = workload();
    let config = cfg(EdgePruningScope::NodeCentric);
    let idx = TableErIndex::build(&table, &config);
    // Reference on a *separate* build: running it on `idx` would fill
    // the decision cache and shrink the faulted attempt's kernel batch
    // below the parallel cutoff, so the armed site would never fire.
    let reference = resolve_decisions(&TableErIndex::build(&table, &config), &table);

    let li = RwLock::new(LinkIndex::new(table.len()));
    let resolve_on_three_threads = || -> Vec<Result<(), ResolveError>> {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| s.spawn(|| idx.run(ResolveRequest::all(&table, &li)).map(drop)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("resolver thread"))
                .collect()
        })
    };

    failpoints::arm("cmp.worker", FailAction::Panic);
    for outcome in resolve_on_three_threads() {
        assert_eq!(
            outcome,
            Err(ResolveError::WorkerPanicked {
                stage: ResolveStage::ComparisonExecution
            })
        );
    }
    {
        let g = li.read();
        assert_eq!(g.link_count(), 0, "failed queries must commit no links");
        assert_eq!(g.resolved_count(), 0, "failed queries must mark nothing");
    }

    failpoints::disarm("cmp.worker");
    for outcome in resolve_on_three_threads() {
        assert_eq!(outcome, Ok(()));
    }
    let li = li.into_inner();
    assert_eq!(li.resolved_count(), table.len());
    let n = table.len() as RecordId;
    let links: Vec<bool> = (0..n)
        .flat_map(|a| (0..n).map(move |b| (a, b)))
        .map(|(a, b)| li.are_linked(a, b))
        .collect();
    assert_eq!(
        links, reference.links,
        "retry must converge to the reference"
    );
}

#[test]
fn interrupted_cache_clear_poisons_the_index() {
    let _guard = faults();
    let table = workload();
    let config = cfg(EdgePruningScope::NodeCentric);
    let idx = TableErIndex::build(&table, &config);

    // Warm the decision memo so the clear actually has state to tear
    // down.
    let mut li = LinkIndex::new(table.len());
    let mut m = DedupMetrics::default();
    idx.run(ResolveRequest::all(&table, &mut li).metrics(&mut m))
        .unwrap();

    // "cache.clear" fires inside the clear, before the decision memo
    // goes — a panic there stands in for one that unwinds mid-clear,
    // which is exactly what the poison latch exists to fence off.
    failpoints::arm("cache.clear", FailAction::Panic);
    let unwound = catch_unwind(AssertUnwindSafe(|| idx.clear_ep_cache()));
    assert!(unwound.is_err(), "armed cache.clear must panic");
    assert!(idx.is_poisoned(), "interrupted clear must poison");

    failpoints::disarm("cache.clear");
    let mut li = LinkIndex::new(table.len());
    let mut m = DedupMetrics::default();
    let err = idx
        .run(ResolveRequest::all(&table, &mut li).metrics(&mut m))
        .unwrap_err();
    assert_eq!(err, ResolveError::Poisoned);

    // A completed clear on a healthy index does not poison.
    let fresh = TableErIndex::build(&table, &config);
    fresh.clear_ep_cache();
    assert!(!fresh.is_poisoned());
}

#[test]
fn delay_actions_change_no_decisions() {
    let _guard = faults();
    let table = workload();
    let config = cfg(EdgePruningScope::NodeCentric);

    let baseline = {
        let idx = TableErIndex::build(&table, &config);
        resolve_decisions(&idx, &table)
    };

    // The CI fault-matrix mode: every site armed with a small delay to
    // widen scheduling windows. Everything must stay bit-identical.
    for site in [
        "build.tokenize.worker",
        "build.thresholds.worker",
        "ep.survivors.worker",
        "ep.scan.worker",
        "cmp.worker",
        "resolve.round",
    ] {
        failpoints::arm(site, FailAction::Delay(1));
    }
    let idx = TableErIndex::build(&table, &config);
    let delayed = resolve_decisions(&idx, &table);
    failpoints::disarm_all();
    assert_eq!(delayed, baseline, "delays must not change decisions");
}
