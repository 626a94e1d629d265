//! Engine-level incremental ingest: `QueryEngine::ingest` mutates a
//! registered table in place, folds the batch into the live ER index,
//! and queries planned afterwards see the new rows — no re-register,
//! no full rebuild on the happy path.

use queryer_core::engine::QueryEngine;
use queryer_core::CoreError;
use queryer_er::{Affected, DeltaOp, ErConfig};
use std::sync::Arc;

/// Dirty publications: duplicate clusters {0,1}, {2,3}, {5,6} and two
/// singletons (same catalog as `engine_integration.rs`).
const PUBS: &str = "\
id,title,authors,venue,year
0,collective entity resolution,allan blake,edbt,2008
1,collective entity resolution,a. blake,extending database technology,2008
2,entity resolution on big data,jane davids,sigmod,2017
3,entity resolution on big data,j. davids,sigmod,2017
4,query optimization survey,maria lopez,vldb,2015
5,consumer data matching,lisa davidson,edbt,2015
6,consumer data matching,l. davidson,edbt,2015
7,streaming joins at scale,omar haddad,vldb,2019
";

fn engine() -> QueryEngine {
    let mut e = QueryEngine::new(ErConfig::default());
    e.register_csv_str("P", PUBS).unwrap();
    e
}

const EDBT_DEDUP: &str = "SELECT DEDUP title, year FROM P WHERE venue = 'edbt'";
const EDBT_PLAIN: &str = "SELECT title FROM P WHERE venue = 'edbt'";

#[test]
fn inserted_duplicate_joins_its_cluster() {
    let mut e = engine();
    assert_eq!(e.execute(EDBT_DEDUP).unwrap().rows.len(), 2);

    // A near-copy of record 0 arrives; plain SQL must surface the raw
    // row, DEDUP must fold it into cluster {0,1}.
    let row = e.table("P").unwrap().record(0).unwrap().values.clone();
    e.ingest("P", &[DeltaOp::Insert { values: row }]).unwrap();

    assert_eq!(e.table("P").unwrap().len(), 9);
    assert!(e.er_index("P").unwrap().has_delta(), "delta side is live");
    assert_eq!(e.execute(EDBT_PLAIN).unwrap().rows.len(), 4);
    assert_eq!(
        e.execute(EDBT_DEDUP).unwrap().rows.len(),
        2,
        "the inserted duplicate must group with its cluster, not add a row"
    );
}

#[test]
fn update_merges_and_delete_shrinks() {
    let mut e = engine();
    let vldb = "SELECT DEDUP title FROM P WHERE venue = 'vldb'";
    assert_eq!(e.execute(vldb).unwrap().rows.len(), 2);

    // Record 4 becomes a near-copy of record 7: the two vldb singletons
    // collapse into one cluster.
    e.ingest(
        "P",
        &[DeltaOp::Update {
            id: 4,
            values: vec![
                "4".into(),
                "streaming joins at scale".into(),
                "o. haddad".into(),
                "vldb".into(),
                "2019".into(),
            ],
        }],
    )
    .unwrap();
    assert_eq!(e.execute(vldb).unwrap().rows.len(), 1);

    // Deleting record 6 nulls the row: plain SQL stops matching it and
    // cluster {5,6} degrades to the singleton {5}.
    e.ingest("P", &[DeltaOp::Delete { id: 6 }]).unwrap();
    assert_eq!(e.execute(EDBT_PLAIN).unwrap().rows.len(), 2);
    assert_eq!(e.execute(EDBT_DEDUP).unwrap().rows.len(), 2);
}

/// Compaction is due once the delta holds as many ops as the base has
/// records: on the 8-row table, 7 pending ops leave the delta live and
/// the 8th compacts it, with answers unchanged.
#[test]
fn auto_compaction_triggers_once_the_delta_matches_the_base() {
    let mut e = engine();
    let copy_of_2 = |e: &QueryEngine| DeltaOp::Insert {
        values: e.table("P").unwrap().record(2).unwrap().values.clone(),
    };
    let batch = vec![copy_of_2(&e); 7];
    assert_eq!(e.ingest("P", &batch).unwrap().pending_ops, 7);
    let er = e.er_index("P").unwrap();
    assert!(er.has_delta(), "7 pending ops < 8 base records");
    drop(er);

    let applied = e.ingest("P", &[copy_of_2(&e)]).unwrap();
    assert_eq!(applied.pending_ops, 8);
    let er = e.er_index("P").unwrap();
    assert!(!er.has_delta(), "8 pending ops >= 8 base records");
    assert_eq!(er.pending_delta_ops(), 0);
    assert_eq!(er.n_records(), 16);

    let sql = "SELECT DEDUP title FROM P WHERE venue = 'sigmod'";
    let mut fresh = QueryEngine::new(ErConfig::default());
    fresh
        .register_table((*e.table("P").unwrap()).clone())
        .unwrap();
    let live = e.execute(sql).unwrap().canonical_rows();
    assert_eq!(live, fresh.execute(sql).unwrap().canonical_rows());
    assert_eq!(
        live.len(),
        1,
        "every inserted copy folds into cluster {{2,3}}"
    );
}

/// An empty batch is a no-op, even while a query context holds the
/// index `Arc`: no rebuild, no invalidation, no ids affected.
#[test]
fn empty_batch_leaves_a_shared_index_and_its_links_alone() {
    let mut e = engine();
    e.execute("SELECT DEDUP title FROM P").unwrap();
    let links = e.link_index_stats("P").unwrap();
    assert!(links.1 > 0, "the resolve linked the duplicates");
    let held = e.er_index("P").unwrap();

    let applied = e.ingest("P", &[]).unwrap();
    assert_eq!(applied.affected, Affected::Ids(vec![]));
    assert_eq!(e.link_index_stats("P").unwrap(), links);
    assert!(Arc::ptr_eq(&held, &e.er_index("P").unwrap()));
}

#[test]
fn explicit_compact_is_decision_identical() {
    let mut e = engine();
    let row = e.table("P").unwrap().record(0).unwrap().values.clone();
    e.ingest("P", &[DeltaOp::Insert { values: row }]).unwrap();
    assert!(e.er_index("P").unwrap().has_delta());

    let before = e.execute(EDBT_DEDUP).unwrap().canonical_rows();
    e.compact("P").unwrap();
    assert!(!e.er_index("P").unwrap().has_delta());
    assert_eq!(
        e.execute(EDBT_DEDUP).unwrap().canonical_rows(),
        before,
        "compaction must not change a query result"
    );
}

/// With no delta live, `compact` drops the decision memo even while
/// a query context still holds the index `Arc`.
#[test]
fn compact_empties_the_memo_of_a_shared_index() {
    let mut e = engine();
    e.execute(EDBT_DEDUP).unwrap();
    let row = e.table("P").unwrap().record(0).unwrap().values.clone();
    e.ingest("P", &[DeltaOp::Insert { values: row }]).unwrap();
    e.compact("P").unwrap();
    assert!(!e.er_index("P").unwrap().has_delta());

    // The write left cluster {0,1} stale: its re-query fills the memo.
    e.execute(EDBT_DEDUP).unwrap();
    let held = e.er_index("P").unwrap();
    assert!(
        held.resolve_cache_sizes().2 > 0,
        "the stale re-query fills the memo"
    );
    e.compact("P").unwrap();
    assert_eq!(held.resolve_cache_sizes().2, 0, "compact empties the memo");
    assert!(Arc::ptr_eq(&held, &e.er_index("P").unwrap()));
}

#[test]
fn shared_index_falls_back_to_rebuild() {
    let mut e = engine();
    // An in-flight query context still holds the index Arc: the delta
    // cannot be folded in place, so ingest rebuilds a fresh index and
    // reports everything affected.
    let held = e.er_index("P").unwrap();
    let row = e.table("P").unwrap().record(0).unwrap().values.clone();
    let applied = e.ingest("P", &[DeltaOp::Insert { values: row }]).unwrap();
    assert!(matches!(applied.affected, Affected::All));

    let fresh = e.er_index("P").unwrap();
    assert!(!Arc::ptr_eq(&held, &fresh), "index was replaced");
    assert_eq!(held.n_records(), 8, "the held index still serves old rows");
    assert_eq!(fresh.n_records(), 9);
    assert!(!fresh.has_delta(), "a rebuild starts delta-free");
    assert_eq!(e.execute(EDBT_DEDUP).unwrap().rows.len(), 2);
}

#[test]
fn invalid_batches_are_rejected_atomically() {
    let mut e = engine();

    // Second op is bad: nothing from the batch may stick.
    let good = e.table("P").unwrap().record(0).unwrap().values.clone();
    let err = e
        .ingest(
            "P",
            &[
                DeltaOp::Insert { values: good },
                DeltaOp::Insert {
                    values: vec!["wrong arity".into()],
                },
            ],
        )
        .unwrap_err();
    assert!(matches!(err, CoreError::Plan(_)), "got {err:?}");
    assert_eq!(e.table("P").unwrap().len(), 8, "batch must not half-apply");
    assert!(!e.er_index("P").unwrap().has_delta());

    let err = e.ingest("P", &[DeltaOp::Delete { id: 99 }]).unwrap_err();
    assert!(matches!(err, CoreError::Plan(_)), "got {err:?}");

    let err = e
        .ingest(
            "P",
            &[DeltaOp::Update {
                id: 8, // out of range — the table has ids 0..=7
                values: e.table("P").unwrap().record(0).unwrap().values.clone(),
            }],
        )
        .unwrap_err();
    assert!(matches!(err, CoreError::Plan(_)), "got {err:?}");

    let err = e.ingest("NOPE", &[]).unwrap_err();
    assert!(matches!(err, CoreError::Plan(_)), "got {err:?}");

    // And the engine still answers queries after every rejection.
    assert_eq!(e.execute(EDBT_DEDUP).unwrap().rows.len(), 2);
}

/// Point and range filters are answered through the table's selection
/// index, which every write drops: the very next query sees an
/// inserted, updated or deleted row — and still visits only the rows
/// the index hands it.
#[test]
fn point_and_range_queries_see_each_write_at_once() {
    let mut e = engine();
    let ids = |e: &QueryEngine, filter: &str| {
        let r = e
            .execute(&format!("SELECT id FROM P WHERE {filter}"))
            .unwrap();
        let ids: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
        (ids, r.metrics.rows_scanned)
    };
    let point = "id = '8'";
    let range = "year BETWEEN '2016' AND '2019'";
    assert_eq!(ids(&e, point), (vec![], 0));
    assert_eq!(
        ids(&e, range),
        (vec!["2".into(), "3".into(), "7".into()], 3)
    );

    let row = |id: &str, year: &str| -> Vec<queryer_storage::Value> {
        vec![
            id.into(),
            "fresh".into(),
            "new author".into(),
            "vldb".into(),
            year.into(),
        ]
    };
    e.ingest(
        "P",
        &[DeltaOp::Insert {
            values: row("8", "2018"),
        }],
    )
    .unwrap();
    assert_eq!(ids(&e, point), (vec!["8".into()], 1));
    assert_eq!(ids(&e, range).0, ["2", "3", "7", "8"]);

    e.ingest(
        "P",
        &[DeltaOp::Update {
            id: 8,
            values: row("8", "2001"),
        }],
    )
    .unwrap();
    assert_eq!(ids(&e, point), (vec!["8".into()], 1));
    assert_eq!(
        ids(&e, range),
        (vec!["2".into(), "3".into(), "7".into()], 3)
    );
    e.ingest(
        "P",
        &[DeltaOp::Update {
            id: 4,
            values: row("4", "2016"),
        }],
    )
    .unwrap();
    assert_eq!(ids(&e, range).0, ["2", "3", "4", "7"]);

    e.ingest("P", &[DeltaOp::Delete { id: 8 }, DeltaOp::Delete { id: 3 }])
        .unwrap();
    assert_eq!(ids(&e, point), (vec![], 0));
    assert_eq!(
        ids(&e, range),
        (vec!["2".into(), "4".into(), "7".into()], 3)
    );
}

/// A four-record chain 0–1–2–3 (Jaccard ≥ 0.3 between neighbours, no
/// token shared otherwise), fully resolved, then record 3 is rewritten
/// with the same tokens. The write invalidates 3 and its neighbour 2;
/// record 0 is two hops away, and a point query on it must still come
/// back with the whole cluster — as a freshly registered engine does.
#[test]
fn point_query_after_a_write_sees_the_whole_cluster() {
    let mut cfg = ErConfig::default().with_meta(queryer_er::MetaBlockingConfig::None);
    cfg.similarity = queryer_er::SimilarityKind::TokenJaccard;
    cfg.match_threshold = 0.3;
    let mut e = QueryEngine::new(cfg.clone());
    e.register_csv_str(
        "T",
        "id,words\n0,a1 a2 a3\n1,a2 a3 b1 b2\n2,b1 b2 c1 c2\n3,c1 c2 d1\n4,zz yy\n",
    )
    .unwrap();
    let point = "SELECT DEDUP words FROM T WHERE id = '0'";
    assert_eq!(
        e.execute("SELECT DEDUP words FROM T").unwrap().rows.len(),
        2
    );
    let whole = e.execute(point).unwrap().canonical_rows();

    e.ingest(
        "T",
        &[DeltaOp::Update {
            id: 3,
            values: vec!["3".into(), "d1 c2 c1".into()],
        }],
    )
    .unwrap();

    let mut fresh = QueryEngine::new(cfg);
    fresh
        .register_table((*e.table("T").unwrap()).clone())
        .unwrap();
    let live = e.execute(point).unwrap().canonical_rows();
    assert_eq!(live, fresh.execute(point).unwrap().canonical_rows());
    assert_eq!(live.len(), 1);
    assert_ne!(live, whole, "the fused row carries record 3's new text");
}

/// The duplication factor is sampled when somebody reads it, not when
/// a table is registered or written: neither leaves a trace of a
/// resolve in the index's caches, and a read after a write equals the
/// statistic computed from scratch on the written table.
#[test]
fn duplication_factor_is_sampled_on_read_and_follows_writes() {
    let mut e = engine();
    let copy_of = |e: &QueryEngine, id| DeltaOp::Insert {
        values: e.table("P").unwrap().record(id).unwrap().values.clone(),
    };
    e.ingest("P", &[copy_of(&e, 4)]).unwrap();
    assert_eq!(
        e.er_index("P").unwrap().resolve_cache_sizes(),
        (0, 0, 0),
        "register + ingest must not resolve anything"
    );

    let before = e.duplication_factor("P").unwrap();
    e.ingest("P", &[copy_of(&e, 7), copy_of(&e, 7)]).unwrap();
    let after = e.duplication_factor("P").unwrap();
    assert!(after > before, "two more duplicates: {before} -> {after}");

    let table = e.table("P").unwrap();
    let rebuilt = queryer_er::TableErIndex::build(&table, &ErConfig::default());
    let from_scratch = queryer_core::planner::stats::compute_table_stats(&table, &rebuilt).unwrap();
    assert_eq!(after, from_scratch.duplication_factor);
}

/// Canonical rows of one answer.
type Rows = Vec<Vec<String>>;

/// Runs query, ingest, re-query, ingest, re-query over the catalog —
/// each write inserts a copy of record 5 — and returns every answer
/// beside a freshly registered engine's answer on the same rows, the
/// third query's served decisions, and the memo size after each query.
/// With `cold_third`, the memo is cleared before the third query.
fn query_ingest_session(sql: &str, cold_third: bool) -> (Vec<(Rows, Rows)>, u64, Vec<usize>) {
    let mut e = engine();
    let copy_of_5 = |e: &QueryEngine| DeltaOp::Insert {
        values: e.table("P").unwrap().record(5).unwrap().values.clone(),
    };
    let (mut answers, mut third_hits, mut memo) = (Vec::new(), 0, Vec::new());
    for step in 0..3 {
        if step > 0 {
            let op = copy_of_5(&e);
            e.ingest("P", &[op]).unwrap();
        }
        if step == 2 && cold_third {
            e.er_index("P").unwrap().clear_ep_cache();
        }
        let live = e.execute(sql).unwrap();
        if step == 2 {
            third_hits = live.metrics.er.decision_cache_hits;
        }
        let mut fresh = QueryEngine::new(ErConfig::default());
        fresh
            .register_table((*e.table("P").unwrap()).clone())
            .unwrap();
        answers.push((
            live.canonical_rows(),
            fresh.execute(sql).unwrap().canonical_rows(),
        ));
        memo.push(e.er_index("P").unwrap().resolve_cache_sizes().2);
    }
    (answers, third_hits, memo)
}

/// The decision memo keeps what writes un-resolve, and nothing else.
/// Queries without a write leave it empty however many run. A write's
/// re-query re-resolves the invalidated records through it, and after
/// the next write touching the same cluster the third query's
/// re-resolve is served from it: more decisions served than with the
/// memo cleared first. Every answer equals a freshly registered
/// engine's.
#[test]
fn memo_serves_the_records_writes_unresolve() {
    let e = engine();
    for _ in 0..3 {
        e.execute(EDBT_DEDUP).unwrap();
        e.execute("SELECT DEDUP title FROM P").unwrap();
    }
    assert_eq!(
        e.er_index("P").unwrap().resolve_cache_sizes(),
        (0, 0, 0),
        "no write, no memo"
    );

    let sql = "SELECT DEDUP title, venue FROM P";
    let (answers, hits, memo) = query_ingest_session(sql, false);
    for (step, (live, fresh)) in answers.iter().enumerate() {
        assert_eq!(live, fresh, "query {step} differs from a fresh engine");
    }
    assert_eq!(memo[0], 0, "the first query precedes every write");
    assert!(memo[1] > 0, "the re-query after a write fills the memo");
    let (cold_answers, cold_hits, _) = query_ingest_session(sql, true);
    assert_eq!(cold_answers, answers);
    assert!(
        hits > cold_hits,
        "the third query is served from the memo: {hits} vs {cold_hits} served cold"
    );
}
