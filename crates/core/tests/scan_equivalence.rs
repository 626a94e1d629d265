//! The filter over a base table runs inside the scan, narrowed by the
//! table's selection index when a conjunct is sargable. These properties
//! pin that scan to the pair it replaced — an unfused `TableScanOp`
//! followed by `FilterOp` — row for row and in order, over tables built
//! to break an ordering (NULL, NaN, `-0.0`, equal `Int`/`Float` pairs,
//! numeric-looking strings, ints above 2^53), with writes interleaved.

use parking_lot::{Mutex, RwLock};
use proptest::prelude::*;
use queryer_common::knobs::proptest_cases;
use queryer_core::binding::BoundSchema;
use queryer_core::operators::deduplicate::DeduplicateOp;
use queryer_core::operators::filter::FilterOp;
use queryer_core::operators::group_entities::GroupEntitiesOp;
use queryer_core::operators::scan::TableScanOp;
use queryer_core::operators::{drain, drain_rows, ExecContext};
use queryer_core::tuple::Batch;
use queryer_core::{ExecMode, QueryEngine};
use queryer_er::{DeltaOp, ErConfig};
use queryer_sql::{bind, parse_select, BoundExpr};
use queryer_storage::{DataType, Field, Schema, Table, Value};
use std::sync::Arc;

const BIG: i64 = 1 << 53;

/// `i` holds only ints, `s` only strings, `f` only floats (a NaN in
/// some tables), `m` a bit of everything.
const COLUMNS: [&str; 4] = ["i", "s", "f", "m"];

/// Literal texts predicates compare with: every type, the Int/Float
/// pairs that compare equal, and ints on both sides of 2^53.
const LITERALS: [&str; 14] = [
    "-1",
    "0",
    "3",
    "9007199254740993",
    "-9007199254740993",
    "0.5",
    "-0.0",
    "3.0",
    "9007199254740992.0",
    "'1'",
    "'a'",
    "'NaN'",
    "'-0'",
    "'\u{e9}'",
];

/// The comparisons a selection index serves (`<>` is not one).
const SARGABLE_OPS: [&str; 5] = ["=", "<", "<=", ">", ">="];

fn int_cell() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        (-2i64..6).prop_map(Value::Int),
        prop_oneof![Just(BIG), Just(BIG + 1), Just(-BIG - 1)].prop_map(Value::Int),
    ]
    .boxed()
}

fn str_cell() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        "1|01|10|-0|NaN|a|ab|\u{e9}|3.0".prop_map(Value::str),
        Just(Value::str("")),
    ]
    .boxed()
}

fn float_cell() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        (-3i64..4).prop_map(|i| Value::Float(i as f64 / 2.0)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(BIG as f64)),
        Just(Value::Float(f64::NAN)),
    ]
    .boxed()
}

fn mixed_cell() -> BoxedStrategy<Value> {
    prop_oneof![int_cell(), str_cell(), float_cell()].boxed()
}

fn row() -> impl Strategy<Value = Vec<Value>> {
    (int_cell(), str_cell(), float_cell(), mixed_cell()).prop_map(|(i, s, f, m)| vec![i, s, f, m])
}

/// Rows for a table; unless `nan_in_f`, the `f` column's NaNs become
/// NULLs so that the column can be indexed.
fn rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    (proptest::collection::vec(row(), 0..24), proptest::bool::ANY).prop_map(
        |(mut rows, nan_in_f)| {
            if !nan_in_f {
                for r in &mut rows {
                    if matches!(r[2], Value::Float(f) if f.is_nan()) {
                        r[2] = Value::Null;
                    }
                }
            }
            rows
        },
    )
}

fn column() -> impl Strategy<Value = &'static str> {
    (0..COLUMNS.len()).prop_map(|c| COLUMNS[c])
}

fn literal() -> impl Strategy<Value = &'static str> {
    (0..LITERALS.len()).prop_map(|l| LITERALS[l])
}

/// The sargable conjuncts with the column each is on: each comparison
/// but `<>` with each literal, either way round, and `BETWEEN`s from
/// each literal to itself and to two others (reversed and empty ones
/// among them), on each column.
fn sargable_conjuncts() -> Vec<(usize, String)> {
    let mut all = Vec::new();
    for (c, col) in COLUMNS.iter().enumerate() {
        for (l, lit) in LITERALS.iter().enumerate() {
            for op in SARGABLE_OPS {
                all.push((c, format!("{col} {op} {lit}")));
                all.push((c, format!("{lit} {op} {col}")));
            }
            for step in [0, 1, 5] {
                let hi = LITERALS[(l + step) % LITERALS.len()];
                all.push((c, format!("{col} BETWEEN {lit} AND {hi}")));
            }
        }
    }
    all
}

/// One of [`sargable_conjuncts`].
fn sargable() -> BoxedStrategy<String> {
    let all = sargable_conjuncts();
    (0..all.len()).prop_map(move |i| all[i].1.clone()).boxed()
}

/// A predicate over the four columns: sargable conjuncts alone, two
/// ranges on one column, ranges on two columns (through `AND`), and the
/// shapes the index must leave to the recheck — `<>`, `NOT BETWEEN`,
/// `IN`, `LIKE`, `IS NULL`, `OR`, `NOT`.
fn predicate() -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        sargable(),
        (column(), literal(), literal())
            .prop_map(|(c, lo, hi)| format!("{c} > {lo} AND {c} <= {hi}")),
        (column(), literal()).prop_map(|(c, l)| format!("{c} <> {l}")),
        (column(), literal(), literal())
            .prop_map(|(c, lo, hi)| format!("{c} NOT BETWEEN {lo} AND {hi}")),
        (column(), literal(), literal()).prop_map(|(c, a, b)| format!("{c} IN ({a}, {b})")),
        (column(), "[1a%_]{0,3}").prop_map(|(c, p)| format!("{c} LIKE '{p}'")),
        column().prop_map(|c| format!("{c} IS NULL")),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        // `AND` twice: conjunctions are what the index has to pick from.
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| format!("({l}) AND ({r})")),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| format!("({l}) AND ({r})")),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| format!("({l}) OR ({r})")),
            inner.prop_map(|e| format!("NOT ({e})")),
        ]
    })
}

/// A write: an insert, an update or a delete of the row at
/// `at % len` (an insert when the table is empty).
fn write() -> impl Strategy<Value = (u8, usize, Vec<Value>)> {
    (0u8..3, 0usize..64, row())
}

fn delta(kind: u8, at: usize, values: Vec<Value>, len: usize) -> DeltaOp {
    let id = (at % len.max(1)) as u32;
    match kind {
        _ if kind == 0 || len == 0 => DeltaOp::Insert { values },
        1 => DeltaOp::Update { id, values },
        _ => DeltaOp::Delete { id },
    }
}

fn table(rows: &[Vec<Value>]) -> Table {
    let schema = Schema::new(vec![
        Field::new("i", DataType::Int),
        Field::new("s", DataType::Str),
        Field::new("f", DataType::Float),
        Field::new("m", DataType::Str),
    ]);
    let mut t = Table::new("t", schema);
    for r in rows {
        t.push_row(r.clone()).unwrap();
    }
    t
}

fn bound(table: &Table, pred: &str) -> BoundExpr {
    let stmt = parse_select(&format!("SELECT * FROM t WHERE {pred}")).unwrap();
    let schema = BoundSchema::from_table("t", 0, table);
    bind(&stmt.where_clause.unwrap(), &schema).unwrap()
}

/// A context holding just `table`: scans and filters need nothing else.
fn scan_context(table: &Arc<Table>) -> Arc<ExecContext> {
    Arc::new(ExecContext {
        tables: vec![table.clone()],
        er: Vec::new(),
        li: Vec::new(),
        metrics: Mutex::new(Default::default()),
    })
}

/// What `SELECT * FROM t WHERE pred` returned before the scan
/// evaluated predicates: the unfused pair's rows.
fn unfused_rows(e: &QueryEngine, pred: &str) -> Vec<Vec<Value>> {
    let table = e.table("t").unwrap();
    let (_, unfused, _) = both_scans(&table, pred);
    unfused
        .rows()
        .map(|refs| table.record_unchecked(refs[0].record).values.clone())
        .collect()
}

/// What the plans built before the scan evaluated predicates produce
/// under `SELECT DEDUP *`: the unfused pair, Deduplicate and
/// Group-Entities, run on a copy of the engine's Link Index so that the
/// engine's own query afterwards starts from the same state.
fn unfused_dedup_rows(e: &QueryEngine, pred: &str) -> Vec<Vec<Value>> {
    let table = e.table("t").unwrap();
    let ctx = Arc::new(ExecContext {
        tables: vec![table.clone()],
        er: vec![e.er_index("t").unwrap()],
        li: vec![Arc::new(RwLock::new(
            e.with_link_index("t", Clone::clone).unwrap(),
        ))],
        metrics: Mutex::new(Default::default()),
    });
    let schema = BoundSchema::from_table("t", 0, &table);
    let scan = TableScanOp::new(ctx.clone(), 0, None);
    let filter = FilterOp::new(ctx.clone(), Box::new(scan), bound(&table, pred), &schema);
    let dedup = DeduplicateOp::new(ctx.clone(), Box::new(filter), 0);
    let every_column: Vec<usize> = (0..schema.len()).collect();
    let mut group = GroupEntitiesOp::new(ctx, Box::new(dedup), &schema, &every_column);
    drain_rows(&mut group).unwrap()
}

/// Drains `WHERE pred` over `table` through the fused scan and through
/// the unfused pair, and counts the records the fused scan visited.
fn both_scans(table: &Arc<Table>, pred: &str) -> (Batch, Batch, u64) {
    let ctx = scan_context(table);
    let p = bound(table, pred);
    let fused = drain(&mut TableScanOp::new(ctx.clone(), 0, None).with_predicate(p.clone()));
    let visited = ctx.metrics.lock().rows_scanned;
    let schema = BoundSchema::from_table("t", 0, table);
    let scan = Box::new(TableScanOp::new(ctx.clone(), 0, None));
    let unfused = drain(&mut FilterOp::new(ctx, scan, p, &schema));
    (fused.unwrap(), unfused.unwrap(), visited)
}

/// Applies the next write, if any, to the table in place: the Arc is
/// not shared, so the table keeps the selection index its queries
/// built, and only the write itself can drop it.
fn write_in_place(table: &mut Arc<Table>, write: Option<&(u8, usize, Vec<Value>)>) {
    if let Some((kind, at, values)) = write.cloned() {
        let op = delta(kind, at, values, table.len());
        op.apply_to_table(Arc::get_mut(table).expect("no query holds the table"))
            .unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: proptest_cases(64),
        .. ProptestConfig::default()
    })]

    /// The fused scan emits the tuples — values, provenance, order —
    /// that the unfused pair does, before and after every write.
    #[test]
    fn scan_with_predicate_equals_scan_then_filter(
        rows in rows(),
        writes in proptest::collection::vec(write(), 0..6),
        preds in proptest::collection::vec(predicate(), 1..4),
    ) {
        let mut t = Arc::new(table(&rows));
        for step in 0..=writes.len() {
            for pred in &preds {
                let (fused, unfused, _) = both_scans(&t, pred);
                prop_assert_eq!(fused, unfused, "after {} writes: WHERE {}", step, pred);
            }
            write_in_place(&mut t, writes.get(step));
        }
    }

    /// For one sargable conjunct on an indexed column the selection
    /// index is exact: the scan visits only the rows it returns — or,
    /// past half the table, every row — before and after every write.
    #[test]
    fn each_sargable_conjunct_is_exact_across_writes(
        rows in rows(),
        writes in proptest::collection::vec(write(), 0..3),
    ) {
        let mut t = Arc::new(table(&rows));
        for step in 0..=writes.len() {
            for (col, pred) in sargable_conjuncts() {
                let (fused, unfused, visited) = both_scans(&t, &pred);
                let returned = fused.len();
                prop_assert_eq!(fused, unfused, "after {} writes: WHERE {}", step, pred);
                let indexed = t.value_range(col, []).is_some();
                let expected = if indexed && returned <= t.len() / 2 { returned } else { t.len() };
                prop_assert_eq!(visited, expected as u64, "after {} writes: WHERE {}", step, pred);
            }
            write_in_place(&mut t, writes.get(step));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: proptest_cases(32),
        .. ProptestConfig::default()
    })]

    /// Through the engine, with writes through `ingest`: under Plain,
    /// NES and AES the filtered-scan plans return, in order, the rows the
    /// unfused pair leads to.
    #[test]
    fn engine_plans_equal_the_unfused_pair(
        rows in rows(),
        writes in proptest::collection::vec(write(), 0..6),
        preds in proptest::collection::vec(prop_oneof![predicate(), sargable()], 2..6),
    ) {
        let mut e = QueryEngine::new(ErConfig::default());
        e.register_table(table(&rows)).unwrap();
        for step in 0..=writes.len() {
            for pred in &preds {
                let sql = format!("SELECT * FROM t WHERE {pred}");
                let want = unfused_rows(&e, pred);
                let got = e.execute_with(&sql, ExecMode::Plain).unwrap().rows;
                prop_assert_eq!(got, want, "Plain after {} writes: {}", step, sql);

                let sql = format!("SELECT DEDUP * FROM t WHERE {pred}");
                for mode in [ExecMode::Nes, ExecMode::Aes] {
                    let want = unfused_dedup_rows(&e, pred);
                    let got = e.execute_with(&sql, mode).unwrap().rows;
                    prop_assert_eq!(got, want, "{:?} after {} writes: {}", mode, step, sql);
                }
            }
            if let Some((kind, at, values)) = writes.get(step).cloned() {
                let op = delta(kind, at, values, e.table("t").unwrap().len());
                e.ingest("t", &[op]).unwrap();
            }
        }
    }
}

/// The plans themselves: a filter over a base table is part of the scan
/// under Plain, NES and AES, and stays a cluster-aware filter above
/// resolved data under Batch and NES-eager.
#[test]
fn filters_over_base_tables_run_inside_the_scan() {
    let mut e = QueryEngine::new(ErConfig::default());
    e.register_table(table(&[vec![
        Value::Int(1),
        Value::str("a"),
        Value::Float(0.5),
        Value::Null,
    ]]))
    .unwrap();
    let sql = "SELECT DEDUP * FROM t WHERE i = 1";
    for mode in [ExecMode::Plain, ExecMode::Nes, ExecMode::Aes] {
        let plan = e.explain(sql, mode).unwrap();
        assert!(
            plan.contains("TableScan: t AS t [filter: i = 1]"),
            "{mode:?}:\n{plan}"
        );
        assert!(!plan.contains("Filter:"), "{mode:?}:\n{plan}");
    }
    for mode in [ExecMode::Batch, ExecMode::NesEager] {
        let plan = e.explain(sql, mode).unwrap();
        assert!(plan.contains("ClusterFilter: i = 1"), "{mode:?}:\n{plan}");
    }
}
