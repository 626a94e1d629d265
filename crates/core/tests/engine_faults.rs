//! Faults at the SQL surface: a resolve that fails under a query comes
//! back from `QueryEngine::execute` as a typed error, never as a panic.
//!
//! The sites are armed through `queryer_common::failpoints`, which is
//! compiled in only with `--features queryer-er/failpoints`; without it
//! arming is a no-op and the test returns at once.

use parking_lot::{Mutex, MutexGuard};
use queryer_common::failpoints::{self, FailAction};
use queryer_core::{CoreError, QueryEngine};
use queryer_er::{DeltaOp, ErConfig, ResolveError, ResolveStage, WeightScheme};
use queryer_storage::csv::table_from_csv_str_infer;
use queryer_storage::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Serializes the tests: failpoints are process-global state.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Holds the test lock and disarms every site on drop, so a failing
/// assertion cannot leak an armed site into the next test.
struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for FaultGuard {
    fn drop(&mut self) {
        failpoints::disarm_all();
    }
}

fn faults() -> FaultGuard {
    let guard = FAULT_LOCK.lock();
    failpoints::disarm_all();
    FaultGuard(guard)
}

/// Dirty publications: duplicate clusters {0,1}, {2,3} and a singleton.
const PUBS: &str = "\
id,title,authors,venue,year
0,collective entity resolution,allan blake,edbt,2008
1,collective entity resolution,a. blake,extending database technology,2008
2,entity resolution on big data,jane davids,sigmod,2017
3,entity resolution on big data,j. davids,sigmod,2017
4,query optimization survey,maria lopez,vldb,2015
";

/// Under ECBS weights an ingest re-sweeps every WNP threshold. A worker
/// lost there fails the ingest and poisons the index; the next dedup
/// query reaches the poisoned index through Deduplicate and returns
/// `Resolve(Poisoned)` instead of unwinding.
#[test]
fn poisoned_index_is_an_error_of_the_query_not_a_panic() {
    let _faults = faults();
    let mut e = QueryEngine::new(ErConfig {
        weight_scheme: WeightScheme::Ecbs,
        ..ErConfig::default()
    });
    e.register_csv_str("P", PUBS).unwrap();
    let copy = DeltaOp::Insert {
        values: e.table("P").unwrap().record(4).unwrap().values.clone(),
    };
    failpoints::arm("build.thresholds.worker", FailAction::Panic);
    if !failpoints::is_armed("build.thresholds.worker") {
        return; // failpoints are not compiled in
    }
    let ingested = e.ingest("P", &[copy]);
    failpoints::disarm("build.thresholds.worker");
    assert!(
        matches!(
            ingested,
            Err(CoreError::Resolve(ResolveError::WorkerPanicked {
                stage: ResolveStage::Build
            }))
        ),
        "{ingested:?}"
    );

    let sql = "SELECT DEDUP title, venue FROM P WHERE year >= 2008";
    let answer = catch_unwind(AssertUnwindSafe(|| e.execute(sql))).expect("execute unwound");
    assert!(
        matches!(answer, Err(CoreError::Resolve(ResolveError::Poisoned))),
        "{:?}",
        answer.map(|r| r.rows)
    );
}

/// The default configuration sweeps the WNP thresholds while it builds a
/// table's index. A worker lost there fails `register_table` with a typed
/// error, and the table is not registered.
#[test]
fn failed_build_is_an_error_of_register_table_not_a_panic() {
    let _faults = faults();
    let mut e = QueryEngine::new(ErConfig::default());
    let table = table_from_csv_str_infer("P", PUBS).unwrap();
    failpoints::arm("build.thresholds.worker", FailAction::Panic);
    if !failpoints::is_armed("build.thresholds.worker") {
        return; // failpoints are not compiled in
    }
    let registered =
        catch_unwind(AssertUnwindSafe(|| e.register_table(table))).expect("register unwound");
    failpoints::disarm("build.thresholds.worker");
    assert!(
        matches!(
            registered,
            Err(CoreError::Resolve(ResolveError::WorkerPanicked {
                stage: ResolveStage::Build
            }))
        ),
        "{registered:?}"
    );
    assert!(e.table("P").is_err(), "a failed build registers nothing");
}

/// A panic inside a table's first delta apply poisons its index before
/// any delta exists, and skips the Link Index and derived-state upkeep
/// of that write. `compact`, and separately the next `ingest`, rebuild
/// the index from the table's rows (the failed write's included) and
/// un-resolve every record: the engine then answers as one registered
/// fresh over those rows.
#[test]
fn panicked_first_write_is_recovered_by_compact_and_by_the_next_ingest() {
    let _faults = faults();
    let sql = "SELECT DEDUP title, venue FROM P WHERE year >= 2008";
    for recover_by_ingest in [false, true] {
        let mut e = QueryEngine::new(ErConfig::default());
        e.register_csv_str("P", PUBS).unwrap();
        // Resolve everything first, so a Link Index the recovery left
        // alone would still link 0 and 1 after 1 is rewritten.
        e.execute(sql).unwrap();
        let row = |e: &QueryEngine, id| e.table("P").unwrap().record(id).unwrap().values.clone();
        let failed_write = [
            DeltaOp::Update {
                id: 1,
                values: row(&e, 4),
            },
            DeltaOp::Insert { values: row(&e, 0) },
        ];
        failpoints::arm("delta.apply", FailAction::Panic);
        if !failpoints::is_armed("delta.apply") {
            return; // failpoints are not compiled in
        }
        let failed = catch_unwind(AssertUnwindSafe(|| e.ingest("P", &failed_write)));
        failpoints::disarm("delta.apply");
        assert!(failed.is_err(), "the armed apply panics");

        if recover_by_ingest {
            let copy = DeltaOp::Insert { values: row(&e, 2) };
            e.ingest("P", &[copy]).expect("the next ingest recovers");
        } else {
            e.compact("P").expect("compact recovers");
        }
        let mut fresh = QueryEngine::new(ErConfig::default());
        fresh
            .register_table(e.table("P").unwrap().as_ref().clone())
            .unwrap();
        let want = fresh.execute(sql).unwrap().canonical_rows();
        let got = e.execute(sql).expect("the recovered index serves");
        assert_eq!(
            got.canonical_rows(),
            want,
            "recovered by ingest: {recover_by_ingest}"
        );
    }
}

/// An ingest that cannot apply in place — a query context still holds
/// the index — builds a fresh index from a copy of the rows. A worker
/// lost in that build fails the ingest and publishes nothing: the
/// table keeps its pre-batch rows, and the engine answers as one
/// registered fresh over them.
#[test]
fn failed_fallback_rebuild_leaves_table_and_index_untouched() {
    let _faults = faults();
    let sql = "SELECT DEDUP title, venue FROM P WHERE year >= 2008";
    let mut e = QueryEngine::new(ErConfig::default());
    e.register_csv_str("P", PUBS).unwrap();
    let before = e.table("P").unwrap();
    let held = e.er_index("P").unwrap();
    let update = DeltaOp::Update {
        id: 1,
        values: before.record(4).unwrap().values.clone(),
    };
    failpoints::arm("build.thresholds.worker", FailAction::Panic);
    if !failpoints::is_armed("build.thresholds.worker") {
        return; // failpoints are not compiled in
    }
    let failed = catch_unwind(AssertUnwindSafe(|| e.ingest("P", &[update]))).expect("unwound");
    failpoints::disarm("build.thresholds.worker");
    drop(held);
    assert!(
        matches!(
            failed,
            Err(CoreError::Resolve(ResolveError::WorkerPanicked {
                stage: ResolveStage::Build
            }))
        ),
        "{failed:?}"
    );
    assert_eq!(
        e.table("P").unwrap().records(),
        before.records(),
        "a failed batch leaves the rows as they were"
    );

    let mut fresh = QueryEngine::new(ErConfig::default());
    fresh.register_table(before.as_ref().clone()).unwrap();
    let want = fresh.execute(sql).unwrap().canonical_rows();
    let got = e.execute(sql).expect("the old index serves");
    assert_eq!(got.canonical_rows(), want);
}

/// A batch that fills the delta to as many ops as the base has records
/// makes compaction due. A worker lost in that compaction's build fails
/// the ingest after the batch is in; the index keeps serving the merged
/// view and the Link Index must follow the batch all the same, or the
/// links the batch broke are served and its new records are not
/// covered. The engine then answers as one registered fresh over the
/// new rows.
#[test]
fn failed_auto_compaction_still_brings_the_link_index_along() {
    let _faults = faults();
    let sql = "SELECT DEDUP title, venue FROM P WHERE year >= 2008";
    let mut e = QueryEngine::new(ErConfig::default());
    e.register_csv_str("P", PUBS).unwrap();
    let base = e.table("P").unwrap().len();
    // Resolve everything first, so a Link Index left alone would still
    // link 0 and 1 after 1 is rewritten.
    e.execute(sql).unwrap();
    let row4 = e.table("P").unwrap().record(4).unwrap().values.clone();
    let mut batch = vec![DeltaOp::Update {
        id: 1,
        values: row4,
    }];
    batch.extend((1..base).map(|i| {
        DeltaOp::Insert {
            values: ["id", "title", "author", "venue"]
                .iter()
                .map(|c| format!("{c}{i}"))
                .chain([format!("{}", 1000 + i % 1000)])
                .map(|v| Value::Str(v.into()))
                .collect(),
        }
    }));
    failpoints::arm("build.thresholds.worker", FailAction::Panic);
    if !failpoints::is_armed("build.thresholds.worker") {
        return; // failpoints are not compiled in
    }
    let failed = catch_unwind(AssertUnwindSafe(|| e.ingest("P", &batch))).expect("unwound");
    failpoints::disarm("build.thresholds.worker");
    assert!(
        matches!(
            failed,
            Err(CoreError::Resolve(ResolveError::WorkerPanicked {
                stage: ResolveStage::Build
            }))
        ),
        "{failed:?}"
    );
    assert_eq!(e.table("P").unwrap().len(), 2 * base - 1, "the batch is in");

    let mut fresh = QueryEngine::new(ErConfig::default());
    fresh
        .register_table(e.table("P").unwrap().as_ref().clone())
        .unwrap();
    let want = fresh.execute(sql).unwrap().canonical_rows();
    let got = catch_unwind(AssertUnwindSafe(|| e.execute(sql))).expect("execute unwound");
    assert_eq!(got.expect("the merged view serves").canonical_rows(), want);
}
