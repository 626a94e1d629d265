//! Link-Index invariants at engine level (the Fig. 11 behaviour):
//! monotone comparison decay on overlapping queries, unchanged answers,
//! and the paper's Pair Completeness floor.

use queryer::common::FxHashSet;
use queryer::core::engine::QueryEngine;
use queryer::datagen::{scholarly, workload};
use queryer::prelude::*;

fn setup() -> (QueryEngine, queryer::datagen::Dataset) {
    let venues = scholarly::oag_venues(120, 31);
    let papers = scholarly::oag_papers(1200, 32, &venues);
    let mut e = QueryEngine::new(ErConfig::default());
    e.register_table(papers.table.clone()).unwrap();
    (e, papers)
}

#[test]
fn overlapping_queries_get_progressively_cheaper() {
    let (e, ds) = setup();
    let queries = workload::overlapping_range_queries(&ds, "oagp");
    let mut comparisons = Vec::new();
    for q in &queries {
        let r = e.execute(&q.sql).unwrap();
        comparisons.push(r.metrics.comparisons());
    }
    // Q11..Q13 touch mostly-resolved entities: their cost must stay well
    // below the first query's (which resolved 38% of the table).
    assert!(
        comparisons[1] < comparisons[0],
        "warm queries must be cheaper: {comparisons:?}"
    );
    // Re-running the last query is free.
    let again = e.execute(&queries[3].sql).unwrap();
    assert_eq!(again.metrics.comparisons(), 0, "fully resolved QE");
}

#[test]
fn warm_and_cold_answers_are_identical() {
    let (e, ds) = setup();
    let queries = workload::overlapping_range_queries(&ds, "oagp");
    let warm: Vec<_> = queries
        .iter()
        .map(|q| e.execute(&q.sql).unwrap().canonical_rows())
        .collect();
    for (q, expected) in queries.iter().zip(&warm) {
        e.clear_link_indices();
        let cold = e.execute(&q.sql).unwrap().canonical_rows();
        assert_eq!(&cold, expected, "{} differs warm vs cold", q.name);
    }
}

#[test]
fn pair_completeness_meets_paper_floor() {
    let (e, ds) = setup();
    // Resolve everything via the widest query.
    e.execute("SELECT DEDUP id FROM oagp").unwrap();
    let qe: FxHashSet<u32> = (0..ds.len() as u32).collect();
    let pc = e
        .with_link_index("oagp", |li| {
            ds.truth.pc_for_qe(&qe, |a, b| li.label(a) == li.label(b))
        })
        .unwrap();
    assert!(pc >= 0.82, "paper floor: PC never below 0.82, got {pc}");
}

#[test]
fn link_index_stats_grow_monotonically() {
    let (e, ds) = setup();
    let queries = workload::overlapping_range_queries(&ds, "oagp");
    let mut last = (0usize, 0usize);
    for q in &queries {
        e.execute(&q.sql).unwrap();
        let now = e.link_index_stats("oagp").unwrap();
        assert!(now.0 >= last.0, "resolved count must grow");
        assert!(now.1 >= last.1, "link count must grow");
        last = now;
    }
    assert!(last.0 > 0);
}
