//! The Group-Entities operator (Sec. 6.3).
//!
//! "Takes as input a DR_E and provides as output a grouped set DR_G
//! containing a single record for each set of duplicate entities. It acts
//! as an aggregate function that groups all attribute values ∀ e_i ≡ e_j
//! by concatenation." Contradicting values render as
//! `value1 | value2`, consistent values as the value itself, nulls as
//! empty — exactly the hyper-entity presentation of Table 3.

use crate::binding::BoundSchema;
use crate::operators::{drain, ExecContext, Operator};
use crate::tuple::{EntityRef, Tuple};
use queryer_common::{FxHashMap, FxHashSet, Stopwatch};
use queryer_storage::{RecordId, Value};
use std::sync::Arc;

/// Separator used when fusing contradicting attribute values.
pub const GROUP_SEPARATOR: &str = " | ";

/// Pipeline-breaking grouping operator: one output tuple per distinct
/// cluster combination, rendering each slot's columns over the **full**
/// cluster membership (fetched through the Link Index closure, so
/// members that never passed the filter still contribute their values).
pub struct GroupEntitiesOp {
    ctx: Arc<ExecContext>,
    input: Option<Box<dyn Operator>>,
    schema: BoundSchema,
    output: std::vec::IntoIter<Tuple>,
}

impl GroupEntitiesOp {
    /// Creates the operator; `schema` is the layout of the input tuples.
    pub fn new(ctx: Arc<ExecContext>, input: Box<dyn Operator>, schema: BoundSchema) -> Self {
        Self {
            ctx,
            input: Some(input),
            schema,
            output: Vec::new().into_iter(),
        }
    }

    fn materialize(&mut self, mut input: Box<dyn Operator>) {
        let tuples = drain(input.as_mut());
        let mut sw = Stopwatch::new();
        sw.start();

        // Group by the cluster-id combination, preserving first-seen
        // order. The keys of all tuples sit in one buffer, `width` ids
        // each, and the set borrows its keys from there.
        let width = self.schema.slots.len();
        let keys: Vec<RecordId> = tuples
            .iter()
            .flat_map(|t| t.entities.iter().map(|e| e.cluster))
            .collect();
        debug_assert_eq!(keys.len(), tuples.len() * width, "one entity per slot");
        let mut seen: FxHashSet<&[RecordId]> = FxHashSet::default();
        let representatives: Vec<&Tuple> = keys
            .chunks_exact(width)
            .zip(&tuples)
            .filter(|(key, _)| seen.insert(key))
            .map(|(_, t)| t)
            .collect();

        // Memoised membership of the multi-member clusters per
        // (table, cluster); a cluster with no link is its own member.
        let mut members_cache: FxHashMap<(usize, RecordId), Vec<RecordId>> = FxHashMap::default();
        let mut distinct: Vec<&Value> = Vec::new();
        let mut out = Vec::with_capacity(representatives.len());
        for rep in representatives {
            let mut values: Vec<Value> = Vec::with_capacity(self.schema.len());
            for (slot, e) in self.schema.slots.iter().zip(&rep.entities) {
                let table = &self.ctx.tables[slot.table_idx];
                let li = &self.ctx.li[slot.table_idx];
                if li.read().neighbors(e.cluster).is_empty() {
                    let record = table.record_unchecked(e.cluster);
                    values.extend_from_slice(&record.values[..slot.n_cols]);
                    continue;
                }
                let members = members_cache
                    .entry((slot.table_idx, e.cluster))
                    .or_insert_with(|| li.read().closure([e.cluster]));
                for col in 0..slot.n_cols {
                    values.push(fuse_column(
                        members
                            .iter()
                            .map(|&m| table.record_unchecked(m).value(col)),
                        &mut distinct,
                    ));
                }
            }
            out.push(Tuple {
                values,
                entities: rep
                    .entities
                    .iter()
                    .map(|e| EntityRef {
                        table: e.table,
                        record: e.cluster,
                        cluster: e.cluster,
                    })
                    .collect(),
            });
        }
        sw.stop();
        {
            let mut m = self.ctx.metrics.lock();
            m.grouping += sw.elapsed();
        }
        self.output = out.into_iter();
    }
}

/// Fuses one attribute across cluster members: distinct non-null values
/// in member order; a single distinct value keeps its original type,
/// several concatenate with [`GROUP_SEPARATOR`], none is `Null`. Values
/// are distinct when their renderings are, so `Int(7)` and `Str("7")`
/// are one value; `distinct` is scratch space, cleared here.
fn fuse_column<'a>(
    member_values: impl Iterator<Item = &'a Value>,
    distinct: &mut Vec<&'a Value>,
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
            let mut fused = first.render().into_owned();
            for v in rest {
                fused.push_str(GROUP_SEPARATOR);
                fused.push_str(&v.render());
            }
            Value::str(fused)
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

impl Operator for GroupEntitiesOp {
    fn next(&mut self) -> Option<Tuple> {
        if let Some(input) = self.input.take() {
            self.materialize(input);
        }
        self.output.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::VecOperator;
    use parking_lot::{Mutex, RwLock};
    use queryer_er::{ErConfig, LinkIndex, TableErIndex};
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
        let er = TableErIndex::build(&t, &ErConfig::default());
        let mut li = LinkIndex::new(t.len());
        li.add_link(0, 1);
        let schema = BoundSchema::from_table("p", 0, &t);
        (
            Arc::new(ExecContext {
                tables: vec![Arc::new(t)],
                er: vec![Arc::new(er)],
                li: vec![Arc::new(RwLock::new(li))],
                metrics: Mutex::new(Default::default()),
            }),
            schema,
        )
    }

    fn tup(ctx: &Arc<ExecContext>, record: RecordId, cluster: RecordId) -> Tuple {
        Tuple {
            values: ctx.tables[0].record_unchecked(record).values.clone(),
            entities: vec![EntityRef {
                table: 0,
                record,
                cluster,
            }],
        }
    }

    #[test]
    fn groups_cluster_into_single_row() {
        let (ctx, schema) = make_ctx();
        let input = vec![tup(&ctx, 0, 0), tup(&ctx, 1, 0), tup(&ctx, 2, 2)];
        let mut op = GroupEntitiesOp::new(ctx.clone(), Box::new(VecOperator::new(input)), schema);
        let out = drain(&mut op);
        assert_eq!(out.len(), 2);
        // Contradicting titles concatenate; missing year is filled from
        // the non-null member (Table 3 semantics).
        assert_eq!(
            out[0].values[1],
            Value::str("collective entity resolution | collective e.r")
        );
        assert_eq!(out[0].values[2], Value::str("2008"));
        assert_eq!(out[1].values[1], Value::str("other paper"));
    }

    #[test]
    fn membership_pulled_from_link_index_closure() {
        let (ctx, schema) = make_ctx();
        // Only record 0's tuple arrives, but the grouped row must still
        // include record 1's values via the LI closure.
        let input = vec![tup(&ctx, 0, 0)];
        let mut op = GroupEntitiesOp::new(ctx.clone(), Box::new(VecOperator::new(input)), schema);
        let out = drain(&mut op);
        assert_eq!(out.len(), 1);
        assert!(out[0].values[1].render().contains("collective e.r"));
    }

    #[test]
    fn all_null_column_stays_null() {
        let (ctx, schema) = make_ctx();
        let mut only_1 = tup(&ctx, 1, 1);
        only_1.entities[0].cluster = 1;
        // Pretend record 1 is its own cluster (no link): year stays null.
        {
            let mut li = ctx.li[0].write();
            li.clear();
        }
        let mut op = GroupEntitiesOp::new(
            ctx.clone(),
            Box::new(VecOperator::new(vec![only_1])),
            schema,
        );
        let out = drain(&mut op);
        assert!(out[0].values[2].is_null());
    }

    #[test]
    fn fuse_column_rules() {
        let a = Value::str("x");
        let b = Value::str("y");
        let n = Value::Null;
        let fuse = |vs: &[&Value]| fuse_column(vs.iter().copied(), &mut Vec::new());
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
            let fused = fuse_column(members.iter(), &mut Vec::new());
            let expected = fuse_oracle(&members);
            // Structural equality compares floats by bit pattern.
            proptest::prop_assert_eq!(fused, expected, "{:?}", members);
        }
    }
}
