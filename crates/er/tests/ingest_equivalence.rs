//! Incremental-ingest equivalence: a live [`TableErIndex`] that absorbed
//! any interleaving of insert/update/delete deltas and queries must be
//! **decision-identical to rebuild-from-scratch** after every delta —
//! same DR sets, same links, same comparison/candidate/match counts.
//!
//! Two serving shapes are pinned after every batch:
//!
//! * *fresh-LI batch resolve* — the live (base ∪ delta) index resolving
//!   the whole mutated table into an empty Link Index equals a fresh
//!   `TableErIndex::build` of the mutated table doing the same;
//! * *maintained-LI resolve* — the engine-shaped path: the Link Index
//!   survives the delta with only the affected ids invalidated
//!   ([`Affected`]), then a resolve converges to the same links as the
//!   oracle's from-empty resolve.
//!
//! Explicit cases cover the sharp edges — duplicate insert (a
//! byte-identical record must *link*, never dedup at ingest), delete of
//! a matched record, an update that changes a record's blocks, one
//! batch in which two blocks cross in size, the empty batch, a
//! snapshot written over a live delta, and pinned
//! decisions surviving compaction (the no-op `compact()` is a unit test
//! in `src/delta.rs`) — and a property test drives
//! random op/query interleavings across weight schemes,
//! meta-blocking configs, and thread counts, checking after every batch
//! that the threshold vector the index patched (or re-swept) is the
//! rebuild's, bit for bit.

#![allow(clippy::field_reassign_with_default)] // config tweaks read clearer as assignments

use proptest::prelude::*;
use queryer_common::knobs::proptest_cases;
use queryer_er::edge_pruning::bulk_node_thresholds;
use queryer_er::{
    Affected, CooccurrenceScratch, DedupMetrics, DeltaOp, ErConfig, LinkIndex, MetaBlockingConfig,
    ResolveRequest, TableErIndex, WeightScheme,
};
use queryer_storage::{RecordId, Schema, Table, Value};

/// Small vocabulary so random records actually share blocking tokens.
const VOCAB: [&str; 12] = [
    "entity",
    "resolution",
    "collective",
    "query",
    "driven",
    "deep",
    "learning",
    "data",
    "big",
    "edbt",
    "vldb",
    "2008",
];

fn cell() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..VOCAB.len(), 0..4)
}

fn rows() -> impl Strategy<Value = Vec<(Vec<usize>, Vec<usize>)>> {
    proptest::collection::vec((cell(), cell()), 2..16)
}

/// One op spec: `(kind, target, title words, venue words)`. Kinds are
/// biased toward duplicate-heavy mutations: 0 = insert a byte-identical
/// copy of an existing row, 1–2 = insert fresh, 3–4 = update, 5 = delete.
type OpSpec = (usize, usize, Vec<usize>, Vec<usize>);

fn op_spec() -> impl Strategy<Value = OpSpec> {
    (0usize..6, 0usize..64, cell(), cell())
}

/// Delta batches, each applied (and checked) as one `apply_delta` call.
fn batches() -> impl Strategy<Value = Vec<Vec<OpSpec>>> {
    proptest::collection::vec(proptest::collection::vec(op_spec(), 1..5), 1..4)
}

fn render(words: &[usize]) -> Value {
    if words.is_empty() {
        Value::Null
    } else {
        let text: Vec<&str> = words.iter().map(|&w| VOCAB[w]).collect();
        Value::str(text.join(" "))
    }
}

fn build_table(rows: &[(Vec<usize>, Vec<usize>)]) -> Table {
    let mut t = Table::new("p", Schema::of_strings(&["id", "title", "venue"]));
    for (i, (a, b)) in rows.iter().enumerate() {
        t.push_row(vec![format!("{i}").into(), render(a), render(b)])
            .unwrap();
    }
    t
}

fn scheme_of(w: usize) -> WeightScheme {
    match w % 3 {
        0 => WeightScheme::Cbs,
        1 => WeightScheme::Ecbs,
        _ => WeightScheme::Js,
    }
}

fn meta_of(m: usize) -> MetaBlockingConfig {
    match m % 5 {
        0 => MetaBlockingConfig::All,
        1 => MetaBlockingConfig::BpEp,
        2 => MetaBlockingConfig::BpBf,
        3 => MetaBlockingConfig::Bp,
        _ => MetaBlockingConfig::None,
    }
}

fn cfg_of(scheme: usize, meta: usize, threads: usize) -> ErConfig {
    let mut cfg = ErConfig::default().with_meta(meta_of(meta));
    cfg.weight_scheme = scheme_of(scheme);
    cfg.threads = threads;
    cfg
}

/// Materializes one op spec against the table's *current* state and
/// applies it to the table, so ids stay valid at their point in the
/// batch exactly like a caller driving [`DeltaOp::apply_to_table`].
fn make_op(spec: &OpSpec, table: &mut Table) -> DeltaOp {
    let (kind, target, a, b) = spec;
    let n = table.len();
    let op = match kind {
        0 => DeltaOp::Insert {
            values: table
                .record((*target % n) as RecordId)
                .unwrap()
                .values
                .clone(),
        },
        1 | 2 => DeltaOp::Insert {
            values: vec![format!("{n}").into(), render(a), render(b)],
        },
        3 | 4 => DeltaOp::Update {
            id: (*target % n) as RecordId,
            values: vec![format!("{}", *target % n).into(), render(a), render(b)],
        },
        _ => DeltaOp::Delete {
            id: (*target % n) as RecordId,
        },
    };
    op.apply_to_table(table).unwrap();
    op
}

fn link_matrix(li: &LinkIndex, n: usize) -> Vec<bool> {
    let n = n as RecordId;
    let mut m = Vec::with_capacity((n * n) as usize);
    for a in 0..n {
        for b in 0..n {
            m.push(li.are_linked(a, b));
        }
    }
    m
}

/// Resolves the whole table into a fresh Link Index and returns the
/// observable outcome: DR, link matrix, decision counts.
fn full_resolve(idx: &TableErIndex, table: &Table) -> (Vec<RecordId>, Vec<bool>, u64, u64, u64) {
    let mut li = LinkIndex::new(table.len());
    let mut m = DedupMetrics::default();
    let out = idx
        .run(ResolveRequest::all(table, &mut li).metrics(&mut m))
        .unwrap();
    (
        out.dr,
        link_matrix(&li, table.len()),
        m.comparisons,
        m.candidate_pairs,
        m.matches_found,
    )
}

/// The tentpole invariant: the live index equals a from-scratch rebuild
/// of the mutated table in every decision-observable way, and the
/// maintained Link Index converges to the oracle's links.
fn assert_rebuild_equivalent(
    idx: &TableErIndex,
    table: &Table,
    cfg: &ErConfig,
    maintained_li: &mut LinkIndex,
) {
    let oracle = TableErIndex::build(table, cfg);
    let (dr_o, links_o, cmp_o, cand_o, match_o) = full_resolve(&oracle, table);
    let (dr_l, links_l, cmp_l, cand_l, match_l) = full_resolve(idx, table);
    assert_eq!(dr_l, dr_o, "DR diverged from rebuild");
    assert_eq!(links_l, links_o, "links diverged from rebuild");
    assert_eq!(cmp_l, cmp_o, "comparison count diverged from rebuild");
    assert_eq!(cand_l, cand_o, "candidate pairs diverged from rebuild");
    assert_eq!(match_l, match_o, "match count diverged from rebuild");

    // Engine-shaped path: the Link Index survived the delta with only
    // affected ids invalidated; resolving now must converge to the
    // oracle's links — targeted invalidation dropped enough.
    let mut m = DedupMetrics::default();
    let out = idx
        .run(ResolveRequest::all(table, &mut *maintained_li).metrics(&mut m))
        .unwrap();
    assert_eq!(out.dr, dr_o, "maintained-LI DR diverged");
    assert_eq!(
        link_matrix(maintained_li, table.len()),
        links_o,
        "maintained-LI links diverged: targeted invalidation kept stale state"
    );
}

/// What a live index serves after a delta is `oracle`'s, a rebuild of
/// the mutated table: every neighbourhood holds the same edges in the
/// same order, and the threshold vector the apply patched in place
/// (CBS) or re-swept (ECBS / JS) is bit-equal to a sweep over the
/// rebuild. Then a point-query-only history, before anything resolves
/// the whole table (which would repair a Link Index the delta left
/// stale, or one `Affected` was too narrow for): a point query for
/// every record, each on its own clone of the maintained Link Index
/// `li`, does the work the rebuild does from that same Link Index and
/// answers with the rebuild's cluster.
fn graph_and_point_queries_match_rebuild(
    idx: &TableErIndex,
    oracle: &TableErIndex,
    table: &Table,
    cfg: &ErConfig,
    li: &LinkIndex,
) -> Result<(), TestCaseError> {
    let (mut s_l, mut s_o) = (CooccurrenceScratch::new(), CooccurrenceScratch::new());
    for r in 0..table.len() as RecordId {
        prop_assert_eq!(
            idx.cooccurrences_into(r, &mut s_l),
            oracle.cooccurrences_into(r, &mut s_o),
            "neighbourhood of {}",
            r
        );
    }
    let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<u64>>();
    let want = if cfg.meta.edge_pruning() {
        bulk_node_thresholds(oracle, cfg.effective_threads()).unwrap()
    } else {
        Vec::new()
    };
    prop_assert_eq!(
        bits(idx.bulk_ep_thresholds()),
        bits(&want),
        "stored thresholds diverged from a sweep over the rebuild"
    );

    let mut li_all = LinkIndex::new(table.len());
    oracle.run(ResolveRequest::all(table, &mut li_all)).unwrap();
    for r in 0..table.len() as RecordId {
        let (mut li_l, mut li_o) = (li.clone(), li.clone());
        let (mut m_l, mut m_o) = (DedupMetrics::default(), DedupMetrics::default());
        let out_l = idx
            .run(ResolveRequest::records(table, &[r], &mut li_l).metrics(&mut m_l))
            .unwrap();
        let out_o = oracle
            .run(ResolveRequest::records(table, &[r], &mut li_o).metrics(&mut m_o))
            .unwrap();
        prop_assert_eq!(&out_l.dr, &out_o.dr, "point query {} after delta", r);
        prop_assert_eq!(
            m_l.candidate_pairs,
            m_o.candidate_pairs,
            "point query {} candidate pairs after delta",
            r
        );
        prop_assert_eq!(
            out_l.dr,
            li_all.closure([r]),
            "point query {} on the maintained LI missed the rebuild's cluster",
            r
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: proptest_cases(12),
        ..ProptestConfig::default()
    })]

    /// Random interleavings of delta batches and resolves are
    /// decision-identical to rebuild-from-scratch after every batch,
    /// across schemes × meta configs × thread counts.
    #[test]
    fn interleaved_deltas_equal_rebuild(
        rows in rows(),
        batches in batches(),
        scheme in 0usize..3,
        meta in 0usize..5,
        threads in 1usize..5,
        probe in 0usize..64,
    ) {
        let cfg = cfg_of(scheme, meta, threads);
        let mut table = build_table(&rows);
        let mut idx = TableErIndex::build(&table, &cfg);
        let mut li = LinkIndex::new(table.len());

        // Warm the maintained LI with a pre-delta point query, so the
        // deltas hit cached EP state and existing links, not a blank
        // slate.
        let qe = [(probe % table.len()) as RecordId];
        let mut m = DedupMetrics::default();
        idx.run(ResolveRequest::records(&table, &qe, &mut li).metrics(&mut m))
            .unwrap();

        for batch in &batches {
            let ops: Vec<DeltaOp> = batch.iter().map(|s| make_op(s, &mut table)).collect();
            let applied = idx.apply_delta(&table, &ops).unwrap();
            li.follow_write(table.len(), &applied.affected);

            let oracle = TableErIndex::build(&table, &cfg);
            graph_and_point_queries_match_rebuild(&idx, &oracle, &table, &cfg, &li)?;
            assert_rebuild_equivalent(&idx, &table, &cfg, &mut li);

            // Interleaved point queries between batches, compared
            // like-for-like against an oracle with the same query
            // history.
            let qe = [(probe % table.len()) as RecordId];

            // Cold path: both indexes resolve the point query from a
            // blank LI — pins the delta-aware blocking/EP point path.
            let mut li_f = LinkIndex::new(table.len());
            let mut m = DedupMetrics::default();
            let out_f = idx
                .run(ResolveRequest::records(&table, &qe, &mut li_f).metrics(&mut m))
                .unwrap();
            let mut li_fo = LinkIndex::new(table.len());
            let mut m_o = DedupMetrics::default();
            let out_fo = oracle
                .run(ResolveRequest::records(&table, &qe, &mut li_fo).metrics(&mut m_o))
                .unwrap();
            prop_assert_eq!(out_f.dr, out_fo.dr, "cold point-query DR diverged after delta");
            prop_assert_eq!(
                m.comparisons, m_o.comparisons,
                "cold point-query comparisons diverged after delta"
            );

            // Warm path: the maintained LI just completed a full
            // resolve, so the oracle's equivalent history is a full
            // resolve into its own LI first, then the point query.
            let mut m = DedupMetrics::default();
            let out = idx
                .run(ResolveRequest::records(&table, &qe, &mut li).metrics(&mut m))
                .unwrap();
            let mut li_o = LinkIndex::new(table.len());
            let mut m_o = DedupMetrics::default();
            oracle
                .run(ResolveRequest::all(&table, &mut li_o).metrics(&mut m_o))
                .unwrap();
            let out_o = oracle
                .run(ResolveRequest::records(&table, &qe, &mut li_o).metrics(&mut m_o))
                .unwrap();
            prop_assert_eq!(out.dr, out_o.dr, "warm point-query DR diverged after delta");
        }
    }

    /// Compaction folds the delta into fresh base buffers without
    /// changing a single decision: resolve outcomes before and after
    /// `compact()` are identical, and the maintained LI needs no work.
    #[test]
    fn compaction_is_decision_invisible(
        rows in rows(),
        batch in proptest::collection::vec(op_spec(), 1..5),
        scheme in 0usize..3,
        meta in 0usize..5,
    ) {
        let cfg = cfg_of(scheme, meta, 2);
        let mut table = build_table(&rows);
        let mut idx = TableErIndex::build(&table, &cfg);
        let mut li = LinkIndex::new(table.len());

        let ops: Vec<DeltaOp> = batch.iter().map(|s| make_op(s, &mut table)).collect();
        let applied = idx.apply_delta(&table, &ops).unwrap();
        li.follow_write(table.len(), &applied.affected);

        let before = full_resolve(&idx, &table);
        // Pin the maintained LI's links before compaction...
        let mut m = DedupMetrics::default();
        idx.run(ResolveRequest::all(&table, &mut li).metrics(&mut m)).unwrap();
        let links_before = link_matrix(&li, table.len());

        idx.compact(&table).unwrap();
        prop_assert!(!idx.has_delta());
        prop_assert_eq!(idx.pending_delta_ops(), 0);

        let after = full_resolve(&idx, &table);
        prop_assert_eq!(before, after, "compaction changed decisions");

        // ...and they survive compaction: re-resolving does zero work.
        let mut m = DedupMetrics::default();
        idx.run(ResolveRequest::all(&table, &mut li).metrics(&mut m)).unwrap();
        prop_assert_eq!(m.comparisons, 0, "compaction invalidated pinned links");
        prop_assert_eq!(link_matrix(&li, table.len()), links_before);
    }
}

fn dup_table() -> Table {
    let mut t = Table::new("p", Schema::of_strings(&["id", "title", "venue"]));
    let rows = [
        ("0", "collective entity resolution", "edbt"),
        ("1", "collective entity resolution", "edbt"),
        ("2", "query driven entity resolution", "vldb"),
        ("3", "deep learning for vision", "cvpr"),
    ];
    for (id, title, venue) in rows {
        t.push_row(vec![id.into(), title.into(), venue.into()])
            .unwrap();
    }
    t
}

/// A byte-identical insert must *link* to the original at resolve time —
/// ingest never dedups rows, the ER layer decides.
#[test]
fn duplicate_insert_links_not_dedups() {
    let cfg = ErConfig::default();
    let mut table = dup_table();
    let mut idx = TableErIndex::build(&table, &cfg);
    let mut li = LinkIndex::new(table.len());

    let n_before = table.len();
    let op = DeltaOp::Insert {
        values: table.record(0).unwrap().values.clone(),
    };
    op.apply_to_table(&mut table).unwrap();
    assert_eq!(table.len(), n_before + 1, "ingest must keep the row");
    let applied = idx.apply_delta(&table, &[op]).unwrap();
    li.follow_write(table.len(), &applied.affected);

    let new_id = n_before as RecordId;
    let mut m = DedupMetrics::default();
    let out = idx
        .run(ResolveRequest::records(&table, &[new_id], &mut li).metrics(&mut m))
        .unwrap();
    assert!(li.are_linked(0, new_id), "identical rows must link");
    assert!(li.are_linked(1, new_id), "transitively too");
    assert_eq!(out.dr, vec![0, 1, new_id]);
    assert_rebuild_equivalent(&idx, &table, &cfg, &mut li);
}

/// Deleting a record that had matched: its links are dropped, its former
/// partner stays resolvable, and the live index equals a rebuild of the
/// nulled table.
#[test]
fn delete_of_matched_record() {
    let cfg = ErConfig::default();
    let mut table = dup_table();
    let mut idx = TableErIndex::build(&table, &cfg);
    let mut li = LinkIndex::new(table.len());

    let mut m = DedupMetrics::default();
    idx.run(ResolveRequest::records(&table, &[0], &mut li).metrics(&mut m))
        .unwrap();
    assert!(li.are_linked(0, 1));

    let op = DeltaOp::Delete { id: 1 };
    op.apply_to_table(&mut table).unwrap();
    assert!(
        table.record(1).unwrap().values.iter().all(Value::is_null),
        "delete nulls the row in place"
    );
    let applied = idx.apply_delta(&table, &[op]).unwrap();
    match &applied.affected {
        Affected::Ids(ids) => {
            assert!(
                ids.contains(&0) && ids.contains(&1),
                "both endpoints affected"
            )
        }
        Affected::All => {}
    }
    li.follow_write(table.len(), &applied.affected);
    assert!(!li.are_linked(0, 1), "links to a deleted record must drop");
    assert_rebuild_equivalent(&idx, &table, &cfg, &mut li);
}

/// An update that moves a record to entirely different blocks: old links
/// die, new links form, decisions equal a rebuild.
#[test]
fn update_that_changes_blocks() {
    let cfg = ErConfig::default();
    let mut table = dup_table();
    let mut idx = TableErIndex::build(&table, &cfg);
    let mut li = LinkIndex::new(table.len());

    let mut m = DedupMetrics::default();
    idx.run(ResolveRequest::records(&table, &[0], &mut li).metrics(&mut m))
        .unwrap();
    assert!(li.are_linked(0, 1));

    // Record 1 stops being a "collective entity resolution" paper and
    // becomes a byte-duplicate of the vision paper.
    let op = DeltaOp::Update {
        id: 1,
        values: table.record(3).unwrap().values.clone(),
    };
    op.apply_to_table(&mut table).unwrap();
    let applied = idx.apply_delta(&table, &[op]).unwrap();
    li.follow_write(table.len(), &applied.affected);
    assert!(!li.are_linked(0, 1), "stale link must not survive the move");

    let mut m = DedupMetrics::default();
    idx.run(ResolveRequest::records(&table, &[1], &mut li).metrics(&mut m))
        .unwrap();
    assert!(li.are_linked(1, 3), "record links in its new blocks");
    assert_rebuild_equivalent(&idx, &table, &cfg, &mut li);
}

/// An insert that touches neither endpoint's profile nor the untouched
/// endpoint's neighbourhood can still take a candidate pair away: the
/// edge 0–1 (weight 2) survives only on record 0's vote (threshold 2;
/// record 1's own is 3), the inserted record shares three blocks with
/// record 0 alone, and record 0's threshold rises to 7/3. Record 1 is
/// not dirty — its CBS row is what it was — yet its survivor row
/// changes and its link to 0 is stale, and `Affected` must say so.
#[test]
fn threshold_flip_unlinks_an_untouched_neighbour() {
    let mut cfg = ErConfig::default().with_meta(MetaBlockingConfig::BpEp);
    cfg.similarity = queryer_er::SimilarityKind::TokenJaccard;
    cfg.match_threshold = 0.15;
    let mut table = Table::new("p", Schema::of_strings(&["id", "words"]));
    for (id, words) in [
        ("0", "t1 t2 t3 s1 s2 u1 u2"),
        ("1", "s1 s2 v1 v2 v3 v4"),
        ("2", "u1 u2"),
        ("3", "v1 v2 v3 v4"),
    ] {
        table.push_row(vec![id.into(), words.into()]).unwrap();
    }
    let mut idx = TableErIndex::build(&table, &cfg);
    let mut li = LinkIndex::new(table.len());
    idx.run(ResolveRequest::all(&table, &mut li)).unwrap();
    assert!(
        li.are_linked(0, 1),
        "0–1 is a candidate on 0's vote, and matches"
    );

    let op = DeltaOp::Insert {
        values: vec!["4".into(), "t1 t2 t3".into()],
    };
    op.apply_to_table(&mut table).unwrap();
    let applied = idx.apply_delta(&table, &[op]).unwrap();
    let ids = applied
        .affected
        .ids()
        .expect("CBS + node-centric is targeted");
    assert!(ids.contains(&1), "record 1 lost a surviving edge: {ids:?}");
    assert!(!ids.contains(&3), "record 3 is out of reach: {ids:?}");
    li.follow_write(table.len(), &applied.affected);
    assert!(!li.are_linked(0, 1), "a rebuild never compares 0 and 1");
    // A point query on 1 computes its survivor row from the patched
    // thresholds; a resolve-all would hide a stale one behind 0's
    // ownership of the pair.
    let (mut m_l, mut m_o) = (DedupMetrics::default(), DedupMetrics::default());
    idx.run(ResolveRequest::records(&table, &[1], &mut li.clone()).metrics(&mut m_l))
        .unwrap();
    TableErIndex::build(&table, &cfg)
        .run(ResolveRequest::records(&table, &[1], &mut li.clone()).metrics(&mut m_o))
        .unwrap();
    assert_eq!(m_l.candidate_pairs, m_o.candidate_pairs);
    assert_rebuild_equivalent(&idx, &table, &cfg, &mut li);
    assert!(!li.are_linked(0, 1) && li.are_linked(0, 4) && li.are_linked(1, 3));
}

/// One batch in which a block shrinks past another while that one
/// grows: records 1 and 2 leave `bee` (4 → 2 members) for `cee` (3 →
/// 5). No other block's size lies within either block's old..=new span,
/// so neither move alone can reorder a row — but the two spans overlap,
/// and record 0, which the batch does not touch, holds both blocks. Its
/// ITBI row must swap them, which reorders its neighbourhood and, with
/// three singleton blocks ahead of them, changes which of the two Block
/// Filtering drops. Under every meta-blocking config.
#[test]
fn blocks_crossing_in_size_within_one_batch() {
    for meta in [
        MetaBlockingConfig::All,
        MetaBlockingConfig::BpEp,
        MetaBlockingConfig::BpBf,
        MetaBlockingConfig::Bp,
        MetaBlockingConfig::None,
    ] {
        let cfg = ErConfig::default().with_meta(meta);
        let mut table = Table::new("p", Schema::of_strings(&["id", "words"]));
        for (id, words) in [
            ("0", "bee cee u1 u2 u3"),
            ("1", "bee"),
            ("2", "bee"),
            ("3", "bee"),
            ("4", "cee"),
            ("5", "cee"),
        ] {
            table.push_row(vec![id.into(), words.into()]).unwrap();
        }
        let mut idx = TableErIndex::build(&table, &cfg);
        let mut li = LinkIndex::new(table.len());
        idx.run(ResolveRequest::all(&table, &mut li)).unwrap();

        let ops: Vec<DeltaOp> = [1, 2]
            .map(|id: RecordId| DeltaOp::Update {
                id,
                values: vec![format!("{id}").into(), "cee".into()],
            })
            .to_vec();
        for op in &ops {
            op.apply_to_table(&mut table).unwrap();
        }
        let applied = idx.apply_delta(&table, &ops).unwrap();
        li.follow_write(table.len(), &applied.affected);

        let oracle = TableErIndex::build(&table, &cfg);
        graph_and_point_queries_match_rebuild(&idx, &oracle, &table, &cfg, &li)
            .unwrap_or_else(|e| panic!("{meta:?}: {e:?}"));
        assert_rebuild_equivalent(&idx, &table, &cfg, &mut li);
    }
}

/// The cost shape of a single-row write under the default config, in
/// counts: on a 1 000-row `dsd` table whose caches and Link Index are
/// warm, 50 inserts / updates / deletes never invalidate everything,
/// invalidate over a third of the table in at most 5 writes and under
/// a quarter on average, and leave the threshold vector what the build
/// of a rebuilt index sweeps.
#[test]
fn single_row_writes_cost_what_they_changed() {
    let cfg = ErConfig::default();
    let mut table = queryer_datagen::scholarly::dblp_scholar(1000, 7).table;
    let n0 = table.len();
    let mut idx = TableErIndex::build(&table, &cfg);
    // Point queries first, then everything: a warm decision memo.
    for r in (0..n0 as RecordId).step_by(50) {
        idx.run(ResolveRequest::records(
            &table,
            &[r],
            &mut LinkIndex::new(n0),
        ))
        .unwrap();
    }
    let mut li = LinkIndex::new(n0);
    idx.run(ResolveRequest::all(&table, &mut li)).unwrap();

    let mut affected = 0;
    let mut wide = 0;
    for i in 0..50usize {
        let of = ((i * 7919 + 13) % n0) as RecordId;
        let mut values = table.record(of).unwrap().values.clone();
        let title = values[1].render().into_owned();
        let op = match i % 10 {
            // A near-copy: the title loses its first word.
            0 | 2 | 4 | 6 | 8 => {
                values[0] = Value::Int(table.len() as i64);
                values[1] = Value::str(title.split_once(' ').map_or("", |(_, rest)| rest));
                DeltaOp::Insert { values }
            }
            // Same blocks, new profile / new blocks.
            1 | 9 => {
                values[1] = Value::str(title.split(' ').rev().collect::<Vec<_>>().join(" "));
                DeltaOp::Update { id: of, values }
            }
            5 => {
                values[3] = table.record((of + 1) % n0 as RecordId).unwrap().values[3].clone();
                DeltaOp::Update { id: of, values }
            }
            _ => DeltaOp::Delete { id: of },
        };
        op.apply_to_table(&mut table).unwrap();
        let applied = idx.apply_delta(&table, &[op]).unwrap();
        let ids = applied
            .affected
            .ids()
            .expect("the default config never invalidates everything");
        affected += ids.len();
        wide += usize::from(ids.len() * 3 > table.len());
        let rebuilt = TableErIndex::build(&table, &cfg);
        assert_eq!(idx.bulk_ep_thresholds(), rebuilt.bulk_ep_thresholds());

        // The engine's maintenance, then reads that warm things again.
        li.follow_write(table.len(), &applied.affected);
        idx.run(ResolveRequest::all(&table, &mut li)).unwrap();
    }
    // One write in ten here moves a record into or out of a block most
    // of the table retains; every retainer's CBS row then changes by
    // one, so that write alone is table-wide. Each of the other 45
    // stays under a third of the table, and the mean over all 50 under
    // a quarter.
    assert!(wide <= 5, "{wide} table-wide writes");
    assert!(
        affected / 50 <= table.len() / 4,
        "mean affected {}",
        affected / 50
    );
}

/// The pinned workload (2000 scholarly records, seed 99) under one
/// batch of 64 near-duplicate inserts: the maintained Link Index
/// re-resolves only what the batch invalidated (25455 comparisons, 278
/// matches), links pinned before a compaction keep serving after it,
/// and the compacted index decides what a rebuild decides — at the
/// default worker count and 4-way chunked.
#[test]
fn pinned_workload_batch_insert_then_compact() {
    let base = queryer_datagen::scholarly::dblp_scholar(2000, 99).table;
    let counts = |idx: &TableErIndex, table: &Table, li: &mut LinkIndex| {
        let mut m = DedupMetrics::default();
        idx.run(ResolveRequest::all(table, li).metrics(&mut m))
            .unwrap();
        (m.comparisons, m.matches_found)
    };
    for threads in [ErConfig::default().threads, 4] {
        let mut cfg = ErConfig::default();
        cfg.threads = threads;
        let mut table = base.clone();
        let mut idx = TableErIndex::build(&table, &cfg);
        let mut li = LinkIndex::new(table.len());
        assert_eq!(
            counts(&idx, &table, &mut li),
            (21384, 201),
            "pre-ingest, threads {threads}"
        );

        let ops: Vec<DeltaOp> = (0..64)
            .map(|i| DeltaOp::Insert {
                values: table.record(i * 37 % 2000).unwrap().values.clone(),
            })
            .collect();
        for op in &ops {
            op.apply_to_table(&mut table).unwrap();
        }
        let applied = idx.apply_delta(&table, &ops).unwrap();
        li.follow_write(table.len(), &applied.affected);
        assert_eq!(
            counts(&idx, &table, &mut li),
            (25455, 278),
            "post-ingest, threads {threads}"
        );

        idx.compact(&table).unwrap();
        assert!(!idx.has_delta(), "compact must clear the delta side");
        assert_eq!(
            counts(&idx, &table, &mut li).0,
            0,
            "re-resolve after compact"
        );

        let rebuilt = TableErIndex::build(&table, &cfg);
        assert_eq!(
            counts(&idx, &table, &mut LinkIndex::new(table.len())),
            counts(&rebuilt, &table, &mut LinkIndex::new(table.len())),
            "compacted vs rebuilt"
        );
    }
}

/// The empty batch is a true no-op: no delta side is created, nothing
/// is invalidated.
#[test]
fn empty_delta_is_noop() {
    let cfg = ErConfig::default();
    let table = dup_table();
    let mut idx = TableErIndex::build(&table, &cfg);
    let applied = idx.apply_delta(&table, &[]).unwrap();
    assert_eq!(applied.affected.ids(), Some(&[][..]));
    assert_eq!(applied.pending_ops, 0);
    assert!(!idx.has_delta(), "empty batch must not open a delta side");
}

/// A snapshot written while a delta is live reopens as a rebuild of the
/// mutated table beside the links the live index had: resolving the
/// whole table on both sides then agrees on DR, links and counts.
#[test]
fn snapshot_of_live_delta_reopens_identically() {
    // A QUERYER_FAILPOINT spec can arm the snapshot I/O sites
    // process-wide; this test asserts a clean round trip, so it disarms
    // them (surgically, and a no-op without the `failpoints` feature).
    for site in [
        "snapshot.write.torn",
        "snapshot.write.crash-before-rename",
        "snapshot.open.short-read",
    ] {
        queryer_common::failpoints::disarm(site);
    }
    // The pinned workload: one insert leaves most of the table resolved,
    // so a reopen that lost links or resolved marks shows in the counts.
    let cfg = ErConfig::default();
    let mut table = queryer_datagen::scholarly::dblp_scholar(2000, 99).table;
    let mut idx = TableErIndex::build(&table, &cfg);
    let mut li = LinkIndex::new(table.len());
    idx.run(ResolveRequest::all(&table, &mut li)).unwrap();

    let op = DeltaOp::Insert {
        values: table.record(0).unwrap().values.clone(),
    };
    op.apply_to_table(&mut table).unwrap();
    let applied = idx.apply_delta(&table, &[op]).unwrap();
    li.follow_write(table.len(), &applied.affected);
    assert!(idx.has_delta());

    let dir = std::env::temp_dir().join(format!("queryer_ingest_snap_{}", std::process::id()));
    let path = dir.join("live.qsnap");
    let ungrown = LinkIndex::new(table.len() - 1);
    assert!(
        matches!(
            queryer_er::write_index_snapshot(&path, &idx, &ungrown, &table),
            Err(queryer_er::SnapshotError::Corrupt)
        ) && !path.exists(),
        "a Link Index that misses the inserted record must not be written"
    );
    queryer_er::write_index_snapshot(&path, &idx, &li, &table).unwrap();
    let (opened, mut li_o) = queryer_er::open_index_snapshot(&path, &table, &cfg).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let resolve_all = |idx: &TableErIndex, li: &mut LinkIndex| {
        let mut m = DedupMetrics::default();
        let out = idx
            .run(ResolveRequest::all(&table, &mut *li).metrics(&mut m))
            .unwrap();
        (
            out.dr,
            link_matrix(li, table.len()),
            m.comparisons,
            m.candidate_pairs,
            m.matches_found,
        )
    };
    let live = resolve_all(&idx, &mut li);
    assert!(live.2 > 0, "the delta left something to re-resolve");
    let reopened = resolve_all(&opened, &mut li_o);
    assert_eq!(
        (reopened.2, reopened.3, reopened.4),
        (live.2, live.3, live.4)
    );
    assert!(reopened.0 == live.0, "DR diverged after reopen");
    assert!(reopened.1 == live.1, "links diverged after reopen");
}
