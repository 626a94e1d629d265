//! Serial-equivalence of concurrent query serving over one shared
//! Link Index.
//!
//! A `ResolveRequest` over a `&RwLock<LinkIndex>` lets N threads resolve
//! N queries against one `TableErIndex` simultaneously: each query reads
//! the LI through short-lived read locks, accumulates its discoveries
//! in a private `LinkDelta`, and publishes them in one brief write
//! critical section whose commit dedups against links committed by
//! concurrent queries meanwhile. Because decisions are pure functions
//! of the immutable index and survivor emission is endpoint-symmetric,
//! the discovered link relation is a fixed graph — so any interleaving
//! of concurrent queries must leave the LI (links *and* resolved
//! marks) identical to the serial execution of the same queries, which
//! is exactly what this suite pins:
//!
//! - overlapping concurrent queries end state-identical to the serial
//!   order, for default and capped-cache configurations;
//! - fully-overlapping concurrent warm-ups (every thread resolves the
//!   whole table) are decision-identical to one sequential warm-up,
//!   and every thread reports the full DR;
//! - a single query on a shared handle matches the same query on an
//!   owned `&mut LinkIndex` bit-for-bit (DR, links, decision counts);
//! - `LinkDelta` commits are idempotent, dedup cross-thread duplicate
//!   links, and never drop a concurrently-added neighbor;
//! - on the pinned workload, a warm 512-query stream drained by four
//!   workers answers every query as the serial drain does, and a
//!   query / insert mix (readers under a read lock on the table and
//!   index, `apply_delta` under the write lock) leaves the live
//!   overlay, the maintained Link Index and the compacted index
//!   deciding what a rebuild decides.
//!
//! That concurrently *failing* queries commit nothing is pinned in
//! `fault_injection.rs`: an armed failpoint is process-global, and only
//! that binary serializes every one of its tests on one lock.

#![allow(clippy::field_reassign_with_default)] // config tweaks read clearer as assignments

use parking_lot::RwLock;
use proptest::prelude::*;
use queryer_common::knobs::proptest_cases;
use queryer_er::{
    Affected, DedupMetrics, DeltaOp, ErConfig, LinkDelta, LinkIndex, ResolveOutcome,
    ResolveRequest, TableErIndex,
};
use queryer_storage::{RecordId, Table, Value};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Canonical observable state of a Link Index: the sorted set of
/// unordered link pairs plus the per-record resolved flags.
fn fingerprint(li: &LinkIndex) -> (BTreeSet<(RecordId, RecordId)>, Vec<bool>) {
    let n = li.len() as RecordId;
    let mut links = BTreeSet::new();
    let mut resolved = Vec::with_capacity(li.len());
    for id in 0..n {
        for &nb in li.neighbors(id) {
            links.insert((id.min(nb), id.max(nb)));
        }
        resolved.push(li.is_resolved(id));
    }
    (links, resolved)
}

fn workload(n: usize, seed: u64) -> Table {
    queryer_datagen::scholarly::dblp_scholar(n, seed).table
}

/// Overlapping QE slices covering the table: each window shares more
/// than half its records with its neighbours, so concurrent queries
/// race on the same frontier entities.
fn overlapping_slices(n: usize, windows: usize) -> Vec<Vec<RecordId>> {
    let step = n.div_ceil(windows);
    let width = (2 * step).min(n);
    (0..windows)
        .map(|k| {
            let start = k * step;
            (start..(start + width).min(n))
                .map(|id| id as RecordId)
                .collect()
        })
        .collect()
}

/// Serial reference: the same queries resolved in order against one
/// exclusively-owned Link Index.
fn serial_reference(
    idx: &TableErIndex,
    table: &Table,
    qes: &[Vec<RecordId>],
) -> (LinkIndex, Vec<ResolveOutcome>) {
    let mut li = LinkIndex::new(table.len());
    let outcomes = qes
        .iter()
        .map(|qe| {
            let mut m = DedupMetrics::default();
            idx.run(ResolveRequest::records(table, qe, &mut li).metrics(&mut m))
                .expect("serial reference resolve")
        })
        .collect();
    (li, outcomes)
}

/// Concurrent run: one thread per query, all against one shared LI.
fn concurrent_run(
    idx: &TableErIndex,
    table: &Table,
    qes: &[Vec<RecordId>],
) -> (LinkIndex, Vec<(ResolveOutcome, DedupMetrics)>) {
    let li = RwLock::new(LinkIndex::new(table.len()));
    let outcomes = thread::scope(|s| {
        let handles: Vec<_> = qes
            .iter()
            .map(|qe| {
                let li = &li;
                s.spawn(move || {
                    let mut m = DedupMetrics::default();
                    let out = idx
                        .run(ResolveRequest::records(table, qe, li).metrics(&mut m))
                        .expect("concurrent shared resolve");
                    (out, m)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query thread"))
            .collect()
    });
    (li.into_inner(), outcomes)
}

fn assert_concurrent_equals_serial(cfg: &ErConfig, table: &Table, qes: &[Vec<RecordId>]) {
    let idx = TableErIndex::build(table, cfg);
    let (li_serial, _) = serial_reference(&idx, table, qes);
    assert!(
        li_serial.link_count() > 0,
        "workload must discover links or the equivalence is vacuous"
    );
    let (li_shared, outcomes) = concurrent_run(&idx, table, qes);
    assert_eq!(
        fingerprint(&li_shared),
        fingerprint(&li_serial),
        "concurrent end state must equal the serial end state"
    );
    let final_links = li_shared.link_count();
    let committed: usize = outcomes.iter().map(|(o, _)| o.new_links).sum();
    assert_eq!(
        committed, final_links,
        "every link is committed as new by exactly one query"
    );
    // DR_E reads the post-commit LI: each query's DR is its QE closure
    // at some point between its own commit and the final state, so it
    // must sit inside the QE closure of the final LI.
    for ((out, _), qe) in outcomes.iter().zip(qes) {
        assert!(out.completion.is_complete());
        let final_closure: BTreeSet<RecordId> =
            li_shared.closure(qe.iter().copied()).into_iter().collect();
        for id in &out.dr {
            assert!(final_closure.contains(id), "DR outside the final closure");
        }
    }
}

#[test]
fn overlapping_concurrent_queries_match_serial_end_state() {
    let table = workload(600, 11);
    let qes = overlapping_slices(table.len(), 8);
    assert_concurrent_equals_serial(&ErConfig::default(), &table, &qes);
}

#[test]
fn capped_caches_keep_concurrent_equal_to_serial() {
    let table = workload(400, 31);
    let qes = overlapping_slices(table.len(), 6);
    let mut cfg = ErConfig::default();
    cfg.decision_cache_cap = 128;
    assert_concurrent_equals_serial(&cfg, &table, &qes);
}

#[test]
fn fully_overlapping_warmups_are_decision_identical_to_sequential() {
    let table = workload(400, 23);
    let cfg = ErConfig::default();
    let idx = TableErIndex::build(&table, &cfg);

    // Sequential warm-up: one exclusive resolve_all.
    let mut li_ref = LinkIndex::new(table.len());
    let mut m_ref = DedupMetrics::default();
    let out_ref = idx
        .run(ResolveRequest::all(&table, &mut li_ref).metrics(&mut m_ref))
        .expect("sequential warm-up");

    // Concurrent warm-up: four threads, each resolving the whole table
    // against one shared LI. Each thread compares whatever is not yet
    // resolved at its probe time, so every thread's post-commit LI
    // holds complete link-sets for all records.
    let li = RwLock::new(LinkIndex::new(table.len()));
    let outcomes: Vec<(ResolveOutcome, DedupMetrics)> = thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let li = &li;
                let idx = &idx;
                let table = &table;
                s.spawn(move || {
                    let mut m = DedupMetrics::default();
                    let out = idx
                        .run(ResolveRequest::all(table, li).metrics(&mut m))
                        .expect("concurrent warm-up");
                    (out, m)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread"))
            .collect()
    });

    let li_shared = li.into_inner();
    assert_eq!(fingerprint(&li_shared), fingerprint(&li_ref));
    assert!(li_shared.resolved_count() == table.len());
    let committed: usize = outcomes.iter().map(|(o, _)| o.new_links).sum();
    assert_eq!(committed, li_ref.link_count());
    for (out, _) in &outcomes {
        assert!(out.completion.is_complete());
        assert_eq!(
            out.dr, out_ref.dr,
            "every warm-up thread must report the full-table DR"
        );
    }
}

#[test]
fn single_shared_resolve_matches_exclusive() {
    let table = workload(300, 5);
    let cfg = ErConfig::default();
    let idx = TableErIndex::build(&table, &cfg);
    let n = table.len() as RecordId;
    let queries: Vec<Vec<RecordId>> = vec![
        vec![7],
        (10..40).collect(),
        (0..n).collect(), // resolve-all shape
    ];
    for qe in &queries {
        let mut li_ex = LinkIndex::new(table.len());
        let mut m_ex = DedupMetrics::default();
        let out_ex = idx
            .run(ResolveRequest::records(&table, qe, &mut li_ex).metrics(&mut m_ex))
            .expect("exclusive resolve");

        // Fresh index so cross-query caches warmed by the exclusive run
        // cannot leak into the shared run's metrics.
        let idx2 = TableErIndex::build(&table, &cfg);
        let li = RwLock::new(LinkIndex::new(table.len()));
        let mut m_sh = DedupMetrics::default();
        let out_sh = idx2
            .run(ResolveRequest::records(&table, qe, &li).metrics(&mut m_sh))
            .expect("shared resolve");

        assert_eq!(out_sh.dr, out_ex.dr);
        assert_eq!(out_sh.new_links, out_ex.new_links);
        assert!(out_sh.completion.is_complete() && out_ex.completion.is_complete());
        assert_eq!(m_sh.comparisons, m_ex.comparisons);
        assert_eq!(m_sh.candidate_pairs, m_ex.candidate_pairs);
        assert_eq!(m_sh.matches_found, m_ex.matches_found);
        assert_eq!(fingerprint(&li.into_inner()), fingerprint(&li_ex));
    }
}

/// The seeded serving stream over the pinned workload: 512 queries,
/// 60% point lookups, ~35% year ranges, ~5% whole-table resolves — the
/// shapes the engine's Deduplicate operator hands the resolver.
fn serving_stream(table: &Table) -> Vec<Vec<RecordId>> {
    let n = table.len();
    let year_col = table.schema().index_of("year").expect("a year column");
    let years: Vec<i64> = (0..n as RecordId)
        .map(|id| match table.record_unchecked(id).values[year_col] {
            Value::Int(y) => y,
            _ => 0,
        })
        .collect();
    // Xorshift, so the stream is the same on every run and host.
    let mut state = 99u64.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..512)
        .map(|_| {
            let shape = next() % 20;
            if shape == 0 {
                return (0..n as RecordId).collect();
            }
            if shape < 8 {
                let a = 1990 + (next() % 33) as i64;
                let b = (a + (next() % 8) as i64).min(2022);
                let qe: Vec<RecordId> = (0..n as RecordId)
                    .filter(|&id| (a..=b).contains(&years[id as usize]))
                    .collect();
                if !qe.is_empty() {
                    return qe;
                }
            }
            vec![(next() % n as u64) as RecordId]
        })
        .collect()
}

/// `workers` threads pull item indices off one shared cursor until
/// `len` are served; the results come back in item order.
fn drain<T: Send>(len: usize, workers: usize, serve: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let cursor = AtomicUsize::new(0);
    let mut served: Vec<(usize, T)> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            break mine;
                        }
                        mine.push((i, serve(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("drain worker"))
            .collect()
    });
    assert_eq!(served.len(), len, "every item is served exactly once");
    served.sort_by_key(|&(i, _)| i);
    served.into_iter().map(|(_, t)| t).collect()
}

#[test]
fn warm_stream_drained_by_four_workers_equals_serial() {
    let table = workload(2000, 99);
    let idx = TableErIndex::build(&table, &ErConfig::default());
    let stream = serving_stream(&table);
    // Serial warm-up: afterwards the Link Index answers every query, so
    // each answer is a function of the stream alone.
    let li = RwLock::new(LinkIndex::new(table.len()));
    let mut m = DedupMetrics::default();
    idx.run(ResolveRequest::all(&table, &li).metrics(&mut m))
        .expect("warm-up");
    assert_eq!((m.comparisons, m.matches_found), (21384, 201), "warm-up");

    let drain_with = |workers| {
        drain(stream.len(), workers, |i| {
            let mut m = DedupMetrics::default();
            let out = idx
                .run(ResolveRequest::records(&table, &stream[i], &li).metrics(&mut m))
                .expect("stream resolve");
            (m.comparisons, m.matches_found, out.dr)
        })
    };
    let serial = drain_with(1);
    for (i, (concurrent, serial)) in drain_with(4).iter().zip(&serial).enumerate() {
        assert_eq!(
            concurrent, serial,
            "query {i}: 4 workers vs the serial drain"
        );
    }
    assert_eq!(serial.len(), 512);
    assert!(serial.iter().all(|(cmp, matches, _)| cmp + matches == 0));
    let dr_rows: usize = serial.iter().map(|(_, _, dr)| dr.len()).sum();
    assert_eq!(dr_rows, 102111);
}

#[test]
fn query_insert_mix_drained_by_four_workers_equals_a_rebuild() {
    let cfg = ErConfig::default();
    let base = workload(2000, 99);
    let queries = serving_stream(&base);
    // One lock over the (table, index) pair: a query can never see a
    // table the index has not absorbed.
    let state = RwLock::new((base.clone(), TableErIndex::build(&base, &cfg)));
    let li = RwLock::new(LinkIndex::new(base.len()));
    state
        .read()
        .1
        .run(ResolveRequest::all(&base, &li))
        .expect("warm-up");

    // Every tenth item inserts a copy of a base row; the rest query.
    let inserted = drain(256, 4, |i| {
        if i % 10 != 9 {
            let guard = state.read();
            let (table, idx) = &*guard;
            idx.run(ResolveRequest::records(table, &queries[i], &li))
                .expect("query beside writers");
            return false;
        }
        let op = DeltaOp::Insert {
            values: base
                .record_unchecked((i * 53 % 2000) as RecordId)
                .values
                .clone(),
        };
        let mut guard = state.write();
        let (table, idx) = &mut *guard;
        op.apply_to_table(table).expect("insert row");
        let applied = idx.apply_delta(table, &[op]).expect("apply delta");
        let mut li = li.write();
        match &applied.affected {
            Affected::Ids(ids) => {
                li.grow(table.len());
                li.invalidate(ids);
            }
            Affected::All => *li = LinkIndex::new(table.len()),
        }
        true
    });
    assert_eq!(inserted.iter().filter(|&&w| w).count(), 25);
    assert_eq!(inserted.iter().filter(|&&w| !w).count(), 231);

    let (table, mut idx) = state.into_inner();
    assert_eq!(table.len(), 2025);
    let resolve_all = |idx: &TableErIndex, mut li: LinkIndex| {
        let mut m = DedupMetrics::default();
        let out = idx
            .run(ResolveRequest::all(&table, &mut li).metrics(&mut m))
            .expect("resolve all");
        (out.dr, fingerprint(&li), m.comparisons, m.matches_found)
    };
    let fresh = || LinkIndex::new(table.len());
    let rebuilt = resolve_all(&TableErIndex::build(&table, &cfg), fresh());
    assert!(rebuilt.3 > 201, "the copies must match their originals");
    // (`assert!`, not `assert_eq!`: a failure should not print 2025 ids.)
    assert!(
        resolve_all(&idx, fresh()) == rebuilt,
        "live overlay vs rebuilt"
    );
    let maintained = resolve_all(&idx, li.into_inner());
    assert!(
        maintained.0 == rebuilt.0 && maintained.1 == rebuilt.1,
        "maintained Link Index vs rebuilt"
    );
    idx.compact(&table).expect("compact");
    assert!(!idx.has_delta());
    assert!(
        resolve_all(&idx, fresh()) == rebuilt,
        "compacted vs rebuilt"
    );
}

#[test]
fn commit_never_drops_concurrently_added_neighbor() {
    // A query builds its delta against a snapshot that predates a
    // concurrent commit; publishing the delta must merge with — never
    // clobber — the links added in between.
    let mut li = LinkIndex::new(8);
    let mut delta = LinkDelta::new();
    assert!(delta.add_link(2, 3));
    delta.mark_resolved(3);

    // Concurrent query commits first: link (1,2), and 1 resolved.
    li.add_link(1, 2);
    li.mark_resolved(1);

    assert_eq!(li.commit(&delta), 1);
    assert!(li.are_linked(1, 2), "pre-existing link survives the commit");
    assert!(li.are_linked(2, 3));
    assert!(li.is_resolved(1) && li.is_resolved(3));
    assert_eq!(li.closure([1]), vec![1, 2, 3]);
    assert_eq!(li.closure([3]), vec![1, 2, 3]);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: proptest_cases(8),
        .. ProptestConfig::default()
    })]

    /// Any interleaving of concurrent overlapping queries leaves the LI
    /// equal to the serial order, over random tables and random query
    /// windows.
    #[test]
    fn concurrent_end_state_equals_serial_over_random_slices(
        n in 60usize..160,
        seed in 0u64..1000,
        spans in proptest::collection::vec((0usize..100, 1usize..60), 2..6),
    ) {
        let table = workload(n, seed);
        let n = table.len();
        let qes: Vec<Vec<RecordId>> = spans
            .iter()
            .map(|&(start, len)| {
                // start < n and len >= 1, so every window is non-empty.
                let start = start % n;
                (start..(start + len).min(n)).map(|id| id as RecordId).collect()
            })
            .collect();
        let idx = TableErIndex::build(&table, &ErConfig::default());
        let (li_serial, _) = serial_reference(&idx, &table, &qes);
        let (li_shared, outcomes) = concurrent_run(&idx, &table, &qes);
        prop_assert_eq!(fingerprint(&li_shared), fingerprint(&li_serial));
        for (out, _) in &outcomes {
            prop_assert!(out.completion.is_complete());
        }
    }

    /// Split a random link workload across k private deltas: committing
    /// them all (in any order, twice each) equals exclusive add_link of
    /// the union — commits are idempotent, dedup duplicates across
    /// deltas, and keep the adjacency symmetric.
    #[test]
    fn delta_commits_equal_exclusive_adds(
        pairs in proptest::collection::vec((0u32..24, 0u32..24), 0..40),
        marks in proptest::collection::vec(0u32..24, 0..12),
        k in 1usize..4,
    ) {
        // Exclusive reference.
        let mut li_ref = LinkIndex::new(24);
        for &(a, b) in &pairs {
            li_ref.add_link(a, b);
        }
        for &id in &marks {
            li_ref.mark_resolved(id);
        }

        // Split round-robin across k deltas (duplicates may land in
        // different deltas — the cross-thread duplicate case).
        let mut deltas: Vec<LinkDelta> = (0..k).map(|_| LinkDelta::new()).collect();
        for (i, &(a, b)) in pairs.iter().enumerate() {
            deltas[i % k].add_link(a, b);
        }
        for (i, &id) in marks.iter().enumerate() {
            deltas[i % k].mark_resolved(id);
        }

        let mut li = LinkIndex::new(24);
        let mut committed = 0;
        for d in &deltas {
            committed += li.commit(d);
        }
        prop_assert_eq!(committed, li_ref.link_count());
        // Idempotence: re-committing every delta changes nothing.
        for d in &deltas {
            prop_assert_eq!(li.commit(d), 0);
        }
        prop_assert_eq!(fingerprint(&li), fingerprint(&li_ref));

        // Adjacency stays symmetric and closures agree endpoint-to-
        // endpoint for every committed link.
        for id in 0..24u32 {
            for &nb in li.neighbors(id) {
                prop_assert!(li.neighbors(nb).contains(&id));
                prop_assert_eq!(li.closure([id]), li.closure([nb]));
            }
        }
    }
}
