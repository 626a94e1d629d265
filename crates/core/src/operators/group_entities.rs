//! The Group-Entities operator (Sec. 6.3).
//!
//! "Takes as input a DR_E and provides as output a grouped set DR_G
//! containing a single record for each set of duplicate entities. It acts
//! as an aggregate function that groups all attribute values ∀ e_i ≡ e_j
//! by concatenation." Contradicting values render as
//! `value1 | value2`, consistent values as the value itself, nulls as
//! empty — exactly the hyper-entity presentation of Table 3.

use crate::binding::BoundSchema;
use crate::error::Result;
use crate::operators::{drain, ExecContext, Operator};
use crate::tuple::{Batch, EntityRef};
use parking_lot::RwLockReadGuard;
use queryer_common::{FxHashSet, Stopwatch};
use queryer_er::LinkIndex;
use queryer_storage::{RecordId, Value};
use std::fmt::Write;
use std::ops::Range;
use std::sync::Arc;

/// Separator used when fusing contradicting attribute values.
pub const GROUP_SEPARATOR: &str = " | ";

/// Pipeline-breaking grouping operator, and the materialisation point of
/// every ER plan: one output row per distinct cluster combination,
/// rendering each requested column over the **full** cluster membership
/// (walked off the Link Index's member ring, so members that never
/// passed the filter or the join still contribute their values, in
/// member-id order). It builds only the
/// columns the operator above it reads.
pub struct GroupEntitiesOp {
    ctx: Arc<ExecContext>,
    input: Option<Box<dyn Operator>>,
    /// Catalog index of each slot's table.
    slot_tables: Vec<usize>,
    /// `(slot, column)` of each output column.
    columns: Vec<(usize, usize)>,
    output: std::vec::IntoIter<Vec<Value>>,
}

impl GroupEntitiesOp {
    /// Creates the operator over `input`, whose rows have layout
    /// `schema`; each output row holds the layout offsets `columns`, in
    /// that order.
    pub fn new(
        ctx: Arc<ExecContext>,
        input: Box<dyn Operator>,
        schema: &BoundSchema,
        columns: &[usize],
    ) -> Self {
        let locations = schema.locations();
        Self {
            ctx,
            input: Some(input),
            slot_tables: schema.slots.iter().map(|s| s.table_idx).collect(),
            columns: columns.iter().map(|&c| locations[c]).collect(),
            output: Vec::new().into_iter(),
        }
    }

    fn materialize(&self, rows: &Batch) -> Vec<Vec<Value>> {
        // Group by the cluster-id combination, preserving first-seen
        // order. A one-slot stream groups by the cluster id; a wider one
        // by the slices of one buffer holding every row's key.
        let representatives: Vec<&[EntityRef]> = if rows.width() == 1 {
            let mut seen: FxHashSet<RecordId> = FxHashSet::default();
            rows.rows().filter(|r| seen.insert(r[0].cluster)).collect()
        } else {
            let keys: Vec<RecordId> = rows.rows().flatten().map(|e| e.cluster).collect();
            let mut seen: FxHashSet<&[RecordId]> = FxHashSet::default();
            keys.chunks_exact(rows.width().max(1))
                .zip(rows.rows())
                .filter(|(key, _)| seen.insert(key))
                .map(|(_, r)| r)
                .collect()
        };

        // One Link-Index read guard per table for the whole pass.
        let mut guards: Vec<(usize, RwLockReadGuard<'_, LinkIndex>)> = Vec::new();
        for &t in &self.slot_tables {
            if guards.iter().all(|(g, _)| *g != t) {
                guards.push((t, self.ctx.li[t].read()));
            }
        }
        let slot_li: Vec<&LinkIndex> = self
            .slot_tables
            .iter()
            .map(|&t| &*guards.iter().find(|(g, _)| *g == t).expect("guarded").1)
            .collect();

        // Each slot's cluster members, walked off its Link-Index ring
        // into one buffer per row and sorted, so values fuse in member-id
        // order; `spans[slot]` is the slot's run of the buffer.
        let mut members: Vec<RecordId> = Vec::new();
        let mut spans: Vec<Range<usize>> = Vec::new();
        let mut distinct: Vec<&Value> = Vec::new();
        let mut scratch = String::new();
        let mut out = Vec::with_capacity(representatives.len());
        for rep in representatives {
            members.clear();
            spans.clear();
            for (slot, e) in rep.iter().enumerate() {
                let start = members.len();
                members.extend(slot_li[slot].ring(e.cluster));
                members[start..].sort_unstable();
                spans.push(start..members.len());
            }
            let row = self
                .columns
                .iter()
                .map(|&(slot, col)| {
                    let table = &self.ctx.tables[self.slot_tables[slot]];
                    fuse_column(
                        members[spans[slot].clone()]
                            .iter()
                            .map(|&m| table.record_unchecked(m).value(col)),
                        &mut distinct,
                        &mut scratch,
                    )
                })
                .collect();
            out.push(row);
        }
        out
    }
}

impl Operator<Vec<Value>> for GroupEntitiesOp {
    fn next(&mut self) -> Result<Option<Vec<Value>>> {
        if let Some(mut input) = self.input.take() {
            let rows = drain(input.as_mut())?;
            let mut sw = Stopwatch::new();
            sw.start();
            self.output = self.materialize(&rows).into_iter();
            sw.stop();
            self.ctx.metrics.lock().grouping += sw.elapsed();
        }
        Ok(self.output.next())
    }
}

/// Fuses one attribute across cluster members: distinct non-null values
/// in member order; a single distinct value keeps its original type,
/// several concatenate with [`GROUP_SEPARATOR`], none is `Null`. Values
/// are distinct when their renderings are, so `Int(7)` and `Str("7")`
/// are one value. `distinct` and `scratch` are scratch space, cleared
/// here: the renderings are written into `scratch`, so a fused value
/// costs one allocation, its own.
fn fuse_column<'a>(
    member_values: impl Iterator<Item = &'a Value>,
    distinct: &mut Vec<&'a Value>,
    scratch: &mut String,
) -> Value {
    distinct.clear();
    for v in member_values {
        if !v.is_null() && !distinct.iter().any(|d| renders_same(d, v)) {
            distinct.push(v);
        }
    }
    match distinct.as_slice() {
        [] => Value::Null,
        [one] => (*one).clone(),
        [first, rest @ ..] => {
            scratch.clear();
            // invariant: writing to a `String` cannot fail.
            let _ = write!(scratch, "{first}");
            for v in rest {
                let _ = write!(scratch, "{GROUP_SEPARATOR}{v}");
            }
            Value::Str(Arc::from(scratch.as_str()))
        }
    }
}

/// `a.render() == b.render()`, rendering only across types. Within one
/// type the renderings are equal exactly when the values are, except
/// that every NaN renders `NaN` (and `-0.0` renders `-0`, distinct
/// from `0`, as its bits are).
fn renders_same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        }
        _ => a.render() == b.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{drain_rows, VecOperator};
    use parking_lot::{Mutex, RwLock};
    use queryer_er::{ErConfig, TableErIndex};
    use queryer_storage::{Schema, Table};

    fn make_ctx() -> (Arc<ExecContext>, BoundSchema) {
        let mut t = Table::new("p", Schema::of_strings(&["id", "title", "year"]));
        t.push_row(vec![
            "0".into(),
            "collective entity resolution".into(),
            "2008".into(),
        ])
        .unwrap();
        t.push_row(vec!["1".into(), "collective e.r".into(), Value::Null])
            .unwrap();
        t.push_row(vec!["2".into(), "other paper".into(), "2017".into()])
            .unwrap();
        let mut li = LinkIndex::new(t.len());
        li.add_link(0, 1);
        let schema = BoundSchema::from_table("p", 0, &t);
        (ctx_over(t, li), schema)
    }

    /// A one-table context holding `t` and its Link Index `li`.
    fn ctx_over(t: Table, li: LinkIndex) -> Arc<ExecContext> {
        let er = TableErIndex::build(&t, &ErConfig::default());
        Arc::new(ExecContext {
            tables: vec![Arc::new(t)],
            er: vec![Arc::new(er)],
            li: vec![Arc::new(RwLock::new(li))],
            metrics: Mutex::new(Default::default()),
        })
    }

    /// Groups one-slot rows of `(record, cluster)` into rows of the
    /// layout offsets `columns`.
    fn group(
        ctx: &Arc<ExecContext>,
        schema: &BoundSchema,
        rows: &[(RecordId, RecordId)],
        columns: &[usize],
    ) -> Vec<Vec<Value>> {
        let mut input = Batch::new(1);
        for &(record, cluster) in rows {
            input.push(&[EntityRef {
                table: 0,
                record,
                cluster,
            }]);
        }
        let input = Box::new(VecOperator::new(input));
        drain_rows(&mut GroupEntitiesOp::new(
            ctx.clone(),
            input,
            schema,
            columns,
        ))
        .unwrap()
    }

    #[test]
    fn groups_cluster_into_single_row() {
        let (ctx, schema) = make_ctx();
        let out = group(&ctx, &schema, &[(0, 0), (1, 0), (2, 2)], &[0, 1, 2]);
        assert_eq!(out.len(), 2);
        // Contradicting titles concatenate; missing year is filled from
        // the non-null member (Table 3 semantics).
        assert_eq!(
            out[0][1],
            Value::str("collective entity resolution | collective e.r")
        );
        assert_eq!(out[0][2], Value::str("2008"));
        assert_eq!(out[1][1], Value::str("other paper"));
    }

    #[test]
    fn builds_only_the_requested_columns_in_their_order() {
        let (ctx, schema) = make_ctx();
        let out = group(&ctx, &schema, &[(0, 0), (1, 0), (2, 2)], &[2, 1]);
        assert_eq!(
            out,
            vec![
                vec![
                    Value::str("2008"),
                    Value::str("collective entity resolution | collective e.r")
                ],
                vec![Value::str("2017"), Value::str("other paper")],
            ]
        );
        assert_eq!(group(&ctx, &schema, &[(2, 2)], &[]), vec![Vec::new()]);
    }

    #[test]
    fn membership_pulled_from_link_index_closure() {
        let (ctx, schema) = make_ctx();
        // Only record 0's row arrives, but the grouped row must still
        // include record 1's values via the LI closure.
        let out = group(&ctx, &schema, &[(0, 0)], &[0, 1, 2]);
        assert_eq!(out.len(), 1);
        assert!(out[0][1].render().contains("collective e.r"));
    }

    #[test]
    fn members_fuse_in_id_order_and_include_what_the_join_dropped() {
        let mut t = Table::new("p", Schema::of_strings(&["id", "title"]));
        for (id, title) in ["a", "b", "c", "d"].into_iter().enumerate() {
            t.push_row(vec![id.to_string().into(), title.into()])
                .unwrap();
        }
        let mut li = LinkIndex::new(t.len());
        li.add_link(0, 1);
        li.add_link(0, 2);
        assert_eq!(li.label(2), 0);
        assert_eq!(
            li.ring(0).collect::<Vec<_>>(),
            [0, 2, 1],
            "the ring is not in id order"
        );
        let one = BoundSchema::from_table("l", 0, &t);
        let schema = BoundSchema::concat(&one, &BoundSchema::from_table("r", 0, &t));
        let ctx = ctx_over(t, li);
        // A self-join row that kept only member 2 of cluster {0, 1, 2}
        // on its left side, and the linkless record 3 on its right.
        let e = |record, cluster| EntityRef {
            table: 0,
            record,
            cluster,
        };
        let mut input = Batch::new(2);
        input.push(&[e(2, 0), e(3, 3)]);
        let mut op = GroupEntitiesOp::new(
            ctx.clone(),
            Box::new(VecOperator::new(input)),
            &schema,
            &[1, 3, 0],
        );
        assert_eq!(
            drain_rows(&mut op).unwrap(),
            vec![vec![
                Value::str("a | b | c"),
                Value::str("d"),
                Value::str("0 | 1 | 2"),
            ]]
        );
        // One slot, through a member that is not the label.
        assert_eq!(
            group(&ctx, &one, &[(1, 0)], &[1]),
            vec![vec![Value::str("a | b | c")]]
        );
    }

    #[test]
    fn all_null_column_stays_null() {
        let (ctx, schema) = make_ctx();
        // Pretend record 1 is its own cluster (no link): year stays null.
        {
            let mut li = ctx.li[0].write();
            li.clear();
        }
        let out = group(&ctx, &schema, &[(1, 1)], &[0, 1, 2]);
        assert!(out[0][2].is_null());
    }

    #[test]
    fn fuse_column_rules() {
        let a = Value::str("x");
        let b = Value::str("y");
        let n = Value::Null;
        let fuse =
            |vs: &[&Value]| fuse_column(vs.iter().copied(), &mut Vec::new(), &mut String::new());
        assert_eq!(fuse(&[&n, &n]), Value::Null);
        assert_eq!(fuse(&[&a, &n, &a]), Value::str("x"));
        assert_eq!(fuse(&[&a, &b]), Value::str("x | y"));
        // Single distinct value keeps its type.
        let i = Value::Int(7);
        assert_eq!(fuse(&[&i, &i]), Value::Int(7));
        // Values are distinct by rendering: the first of the equal ones
        // stays, whatever its type.
        let (s7, f7) = (Value::str("7"), Value::Float(7.0));
        assert_eq!(fuse(&[&s7, &i, &f7]), Value::str("7"));
        let (zero, neg_zero) = (Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(fuse(&[&zero, &neg_zero]), Value::str("0 | -0"));
        let (nan, neg_nan) = (Value::Float(f64::NAN), Value::Float(-f64::NAN));
        assert!(matches!(fuse(&[&nan, &neg_nan]), Value::Float(f) if f.is_nan()));
    }

    /// The fusion rule as it was first written: distinct by rendered
    /// text, one `String` per member value.
    fn fuse_oracle(member_values: &[Value]) -> Value {
        let mut distinct: Vec<&Value> = Vec::new();
        let mut seen: Vec<String> = Vec::new();
        for v in member_values.iter().filter(|v| !v.is_null()) {
            let rendered = v.render().into_owned();
            if !seen.contains(&rendered) {
                seen.push(rendered);
                distinct.push(v);
            }
        }
        match distinct.len() {
            0 => Value::Null,
            1 => distinct[0].clone(),
            _ => Value::str(seen.join(GROUP_SEPARATOR)),
        }
    }

    fn member_value() -> impl proptest::strategy::Strategy<Value = Value> {
        use proptest::prelude::*;
        prop_oneof![
            Just(Value::Null),
            (-3i64..4).prop_map(Value::Int),
            (-3i64..4).prop_map(|i| Value::Float(i as f64)),
            Just(Value::Float(-0.0)),
            Just(Value::Float(f64::NAN)),
            Just(Value::Float(0.5)),
            "-?[0-3]|0\\.5|NaN|-0|x".prop_map(Value::str),
        ]
    }

    proptest::proptest! {
        #[test]
        fn fuse_column_is_bit_identical_to_the_rendering_rule(
            members in proptest::collection::vec(member_value(), 0..6),
        ) {
            let fused = fuse_column(members.iter(), &mut Vec::new(), &mut String::new());
            let expected = fuse_oracle(&members);
            // Structural equality compares floats by bit pattern.
            proptest::prop_assert_eq!(fused, expected, "{:?}", members);
        }
    }
}
