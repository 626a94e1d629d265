//! The Deduplicate-Join operator (Sec. 6.2, Alg. 1).
//!
//! "Analogous to the common relational join operators with one exception:
//! it knows whether the input for each side is dirty data or not and
//! consequently performs the corresponding cleaning operations."
//!
//! The Dirty-Right type takes a resolved set from the left and a dirty
//! QE set from the right: it (1) discards the dirty entities that do not
//! join with any left member (Alg. 1 line 4), (2) applies the Deduplicate
//! pipeline to the survivors (line 5), and (3) joins the two resolved
//! sets (line 11). Dirty-Left mirrors the sides. The output is always a
//! consistent resolved stream so that multi-join plans can chain it.

use crate::error::Result;
use crate::operators::deduplicate::resolve_to_refs;
use crate::operators::{drain, non_empty, ExecContext, Operator};
use crate::tuple::{join_key, Batch, EntityRef};
use queryer_common::{FxHashMap, FxHashSet, Stopwatch};
use queryer_storage::{RecordId, Value};
use std::borrow::Cow;
use std::sync::Arc;

/// Which input of the join is the dirty (unresolved) one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirtySide {
    /// Left input is dirty (Alg. 1, DIRTY-LEFT).
    Left,
    /// Right input is dirty (Alg. 1, DIRTY-RIGHT).
    Right,
}

/// The Deduplicate-Join operator.
pub struct DedupJoinOp {
    ctx: Arc<ExecContext>,
    left: Option<Box<dyn Operator>>,
    right: Option<Box<dyn Operator>>,
    /// `(slot, column)` of the join column within left rows.
    left_key: (usize, usize),
    /// `(slot, column)` of the join column within right rows.
    right_key: (usize, usize),
    /// Which side arrives dirty.
    dirty: DirtySide,
    /// Index of the dirty side's table in the engine's catalog (always a
    /// single-table branch).
    dirty_table: usize,
}

impl DedupJoinOp {
    /// Creates a Deduplicate-Join. The clean side must already be a
    /// resolved stream (output of Deduplicate or of another
    /// Deduplicate-Join); the dirty side is a plain scan/filter branch of
    /// `dirty_table`. Each key is the `(slot, column)` its side's rows
    /// read the join value from.
    pub fn new(
        ctx: Arc<ExecContext>,
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        left_key: (usize, usize),
        right_key: (usize, usize),
        dirty: DirtySide,
        dirty_table: usize,
    ) -> Self {
        Self {
            ctx,
            left: Some(left),
            right: Some(right),
            left_key,
            right_key,
            dirty,
            dirty_table,
        }
    }

    /// The join key of a row, read from its table in place.
    fn key<'a>(&'a self, refs: &[EntityRef], (slot, col): (usize, usize)) -> Cow<'a, Value> {
        join_key(refs[slot].value(&self.ctx.tables, col))
    }

    fn join(&self, mut left: Box<dyn Operator>, mut right: Box<dyn Operator>) -> Result<Batch> {
        let (clean, dirty, clean_key, dirty_key) = match self.dirty {
            DirtySide::Right => (
                drain(left.as_mut())?,
                drain(right.as_mut())?,
                self.left_key,
                self.right_key,
            ),
            DirtySide::Left => (
                drain(right.as_mut())?,
                drain(left.as_mut())?,
                self.right_key,
                self.left_key,
            ),
        };

        // Alg. 1 line 4: QE' ← discard(QE ⋈ DR): keep only the dirty
        // entities whose join value occurs among the resolved side's
        // member records.
        let mut sw = Stopwatch::new();
        sw.start();
        let clean_keys: FxHashSet<Cow<'_, Value>> = clean
            .rows()
            .map(|refs| self.key(refs, clean_key))
            .filter(|v| !v.is_null())
            .collect();
        let qe: Vec<RecordId> = dirty
            .rows()
            .filter(|refs| clean_keys.contains(&self.key(refs, dirty_key)))
            .map(|refs| refs[0].record)
            .collect();
        sw.stop();
        self.ctx.metrics.lock().join += sw.elapsed();

        // Alg. 1 line 5: resolve the surviving dirty entities.
        let resolved_dirty = resolve_to_refs(&self.ctx, self.dirty_table, &qe)?;

        // Alg. 1 line 11 / Alg. 2: join the two resolved sets at record
        // level; Group-Entities later expands witnessed cluster pairs to
        // full membership, which realises the E_left × E_right semantics.
        let mut sw = Stopwatch::new();
        sw.start();
        let mut table: FxHashMap<Cow<'_, Value>, Vec<usize>> = FxHashMap::default();
        for (i, refs) in resolved_dirty.rows().enumerate() {
            let k = self.key(refs, dirty_key);
            if !k.is_null() {
                table.entry(k).or_default().push(i);
            }
        }
        let mut out = Batch::new(clean.width() + resolved_dirty.width());
        for clean_refs in clean.rows() {
            let k = self.key(clean_refs, clean_key);
            if k.is_null() {
                continue;
            }
            for &di in table.get(&k).into_iter().flatten() {
                let dirty_refs = resolved_dirty.row(di);
                match self.dirty {
                    DirtySide::Right => {
                        out.push(clean_refs);
                        out.push(dirty_refs);
                    }
                    DirtySide::Left => {
                        out.push(dirty_refs);
                        out.push(clean_refs);
                    }
                }
            }
        }
        sw.stop();
        self.ctx.metrics.lock().join += sw.elapsed();
        Ok(out)
    }
}

impl Operator for DedupJoinOp {
    fn next(&mut self) -> Result<Option<Batch>> {
        let (Some(left), Some(right)) = (self.left.take(), self.right.take()) else {
            return Ok(None);
        };
        Ok(non_empty(self.join(left, right)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::deduplicate::DeduplicateOp;
    use crate::operators::scan::TableScanOp;
    use crate::operators::VecOperator;
    use parking_lot::{Mutex, RwLock};
    use queryer_er::{ErConfig, LinkIndex, TableErIndex};
    use queryer_storage::{Schema, Table};

    /// Two tables: publications P (dirty: 0≡1 with different venue
    /// spellings) and venues V (dirty: 0≡1, abbreviation vs full name,
    /// bridged by the description attribute like the paper's V1/V4).
    fn make_ctx() -> Arc<ExecContext> {
        let mut p = Table::new("p", Schema::of_strings(&["id", "title", "venue", "year"]));
        p.push_row(vec![
            "0".into(),
            "collective entity resolution".into(),
            "edbt".into(),
            "2008".into(),
        ])
        .unwrap();
        p.push_row(vec![
            "1".into(),
            "collective entity resolution".into(),
            "extending database technology".into(),
            "2008".into(),
        ])
        .unwrap();
        p.push_row(vec![
            "2".into(),
            "query plans".into(),
            "sigmod".into(),
            "2010".into(),
        ])
        .unwrap();

        let mut v = Table::new("v", Schema::of_strings(&["id", "title", "descr", "rank"]));
        v.push_row(vec![
            "0".into(),
            "edbt".into(),
            "extending database technology".into(),
            Value::Null,
        ])
        .unwrap();
        v.push_row(vec![
            "1".into(),
            "extending database technology".into(),
            "edbt".into(),
            "1".into(),
        ])
        .unwrap();
        v.push_row(vec![
            "2".into(),
            "vldb".into(),
            "very large data bases".into(),
            "1".into(),
        ])
        .unwrap();

        let cfg = ErConfig::default();
        let er_p = TableErIndex::build(&p, &cfg);
        let er_v = TableErIndex::build(&v, &cfg);
        Arc::new(ExecContext {
            li: vec![
                Arc::new(RwLock::new(LinkIndex::new(p.len()))),
                Arc::new(RwLock::new(LinkIndex::new(v.len()))),
            ],
            tables: vec![Arc::new(p), Arc::new(v)],
            er: vec![Arc::new(er_p), Arc::new(er_v)],
            metrics: Mutex::new(Default::default()),
        })
    }

    #[test]
    fn dirty_right_resolves_and_joins() {
        let ctx = make_ctx();
        // Left: resolved P restricted to QE = {0} (venue = 'edbt').
        let mut qe = drain(&mut TableScanOp::new(ctx.clone(), 0, None)).unwrap();
        qe.retain(|refs| refs[0].record == 0);
        let left = DeduplicateOp::new(ctx.clone(), Box::new(VecOperator::new(qe)), 0);
        // Right: dirty V scan.
        let right = TableScanOp::new(ctx.clone(), 1, None);
        let mut j = DedupJoinOp::new(
            ctx.clone(),
            Box::new(left),
            Box::new(right),
            (0, 2), // p.venue
            (0, 1), // v.title
            DirtySide::Right,
            1,
        );
        let out = drain(&mut j).unwrap();
        // P0 joins V0 ("edbt"), and P0's duplicate P1 joins V1 (full
        // name) — both V members were resolved into one cluster.
        assert_eq!(out.len(), 2);
        assert_eq!(out.width(), 2);
        for refs in out.rows() {
            assert_eq!(refs[0].table, 0);
            assert_eq!(refs[1].table, 1);
        }
        let v_clusters: FxHashSet<RecordId> = out.rows().map(|refs| refs[1].cluster).collect();
        assert_eq!(v_clusters.len(), 1, "V0 and V1 share one cluster");
        // V2 ("vldb") was discarded before cleaning: QE' excluded it.
        assert!(out.rows().all(|refs| refs[1].record != 2));
    }

    #[test]
    fn dirty_left_mirrors_sides() {
        let ctx = make_ctx();
        // Left: dirty P scan; right: resolved V (whole table).
        let left = TableScanOp::new(ctx.clone(), 0, None);
        let v_scan = TableScanOp::new(ctx.clone(), 1, None);
        let right = DeduplicateOp::new(ctx.clone(), Box::new(v_scan), 1);
        let mut j = DedupJoinOp::new(
            ctx.clone(),
            Box::new(left),
            Box::new(right),
            (0, 2),
            (0, 1),
            DirtySide::Left,
            0,
        );
        let out = drain(&mut j).unwrap();
        // Output slot order must stay (P, V) even though P was dirty.
        assert!(!out.is_empty());
        for refs in out.rows() {
            assert_eq!(refs[0].table, 0);
            assert_eq!(refs[1].table, 1);
        }
        // P2 ("sigmod") joins nothing and is absent.
        assert!(out.rows().all(|refs| refs[0].record != 2));
    }
}
