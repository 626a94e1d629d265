//! Incremental ingest: LSM-style delta maintenance of a
//! [`TableErIndex`] without a full rebuild.
//!
//! The built index is a set of immutable CSR buffers (Sec. 3: "all
//! indexes are built once-off"). A live table cannot afford a rebuild
//! per mutation, so [`TableErIndex::apply_delta`] layers a delta side
//! over the CSR base: small hash-map overlays that shadow exactly the
//! rows a batch of [`DeltaOp`]s touches, while every unaffected row
//! keeps serving from the zero-copy base buffers. Periodic
//! [`TableErIndex::compact`] folds the overlay back into fresh CSR
//! buffers (a rebuild of the mutated table — the delta is then empty by
//! construction).
//!
//! # Decision equivalence
//!
//! The invariant pinned by `tests/ingest_equivalence.rs`: after any
//! interleaving of deltas and queries, every resolve decision is
//! identical to what a from-scratch rebuild of the mutated table would
//! produce. That requires reproducing the *table-level* meta-blocking
//! pipeline, not just patching memberships:
//!
//! - **Block Purging is global**: the threshold is recomputed over the
//!   merged block cardinalities on every apply (emptied blocks
//!   contribute cardinality 0, which [`purge_flags`] ignores — exactly
//!   the blocks a rebuild would not have).
//! - **ITBI order is semantic**: the base sorts each record's blocks by
//!   `(size, block id)`, and base block ids ascend in `(first member,
//!   key position within that member)` order. A row holding a block
//!   whose `(size, first member, key position)` key moved is put back
//!   into that order — precisely the order a rebuild would assign — so
//!   Block Filtering retains the same prefix. Blocks whose key did not
//!   move are still in order among themselves, so a row whose moved
//!   blocks all sit between the right neighbours is left alone and any
//!   other row of R is sorted again.
//! - **Emptied blocks are force-purged** (even with purging disabled)
//!   so the unpurged-block count — an input of the ECBS/JS edge
//!   weights — matches the rebuild, which has no such blocks at all.
//!
//! # Targeted invalidation
//!
//! A write costs what it changed. Call a record *dirty* when its
//! candidate neighbourhood (CBS row) changed: the touched records, the
//! records whose retained blocks changed, and the current retainers of
//! every block whose filtered contents changed. The candidate relation
//! is symmetric (`q` co-occurs with `p` iff they retain a common
//! block), so a changed edge weight makes *both* endpoints dirty. Every
//! dirty record's row is counted afresh, in the first-touch order a
//! rebuild would give it. (A stored row follows the retained
//! *sequence* — under ECBS/JS the f64 sum behind a threshold depends on
//! that order — so a record whose retained prefix was merely reordered
//! counts as dirty too: 137 of the 117 470 ids the traced `live_ingest`
//! run invalidates.)
//!
//! Under a config whose node weights are purely local — CBS weights
//! with node-centric EP, or no EP at all — the apply then
//!
//! - overwrites each dirty record's slot of the index's threshold
//!   vector with the mean of its new row: nothing is swept again;
//! - finds the non-dirty neighbours `q` whose survivor row changes:
//!   those where the vote of a dirty `p` on their edge *flips*. The
//!   edge's weight is unchanged (else `q` would be dirty) and so is
//!   `q`'s own threshold, so under the union rule the edge can change
//!   sides only through `keeps(w, th_old(p)) != keeps(w, th_new(p))`.
//!   CBS weights are whole numbers and one mover shifts a threshold by
//!   about 1/|row|, so this is rare;
//! - drops the comparison decisions that touch an updated or deleted
//!   profile;
//! - reports [`Affected::Ids`] = dirty ∪ flipped ∪ the current
//!   neighbours of updated/deleted records.
//!
//! That set holds every record whose link-set can differ from a
//! rebuild's. A record's links are its surviving candidate pairs that
//! match. Its survivor row changes only if it is dirty or flipped. A
//! match decision changes only if one of the two profiles did, and the
//! other endpoint then either still neighbours the changed record (the
//! third term) or lost it as a neighbour — which changed its own CBS
//! row, so it is dirty. [`crate::LinkIndex::invalidate`] widens the ids
//! to their whole duplicate clusters, which is what keeps a point query
//! two links away from a write honest.
//!
//! Only when the active config makes node weights depend on *global*
//! index statistics (ECBS/JS read the unpurged-block count;
//! global-scope EP averages over every edge) does the apply fall back
//! to reporting [`Affected::All`]; under node-centric EP it then
//! re-sweeps the whole threshold vector once, since every node's
//! weights may have moved.

use crate::config::{EdgePruningScope, WeightScheme};
use crate::edge_pruning::{bulk_node_thresholds, keeps, threshold_over, weight_of};
use crate::govern::{PoisonGuard, ResolveError};
use crate::index::{
    cardinality, count_cooccurrences, token_sig, AttrMeta, BlockId, TableErIndex, TokenSig,
};
use crate::purging::purge_flags;
use crate::tokenizer::{record_keys, record_tokens};
use queryer_common::{failpoints, unpack_pair, FxHashMap, FxHashSet};
use queryer_storage::{RecordId, StorageError, Table, Value};
use std::cmp::Ordering;

/// One mutation of a live table, expressed against dense record ids.
///
/// Ops are applied to the [`Table`] first (see
/// [`DeltaOp::apply_to_table`]) and then to the index as one batch via
/// [`TableErIndex::apply_delta`]. Deletions keep the dense id space: a
/// delete overwrites the row with NULLs, which emits no blocking keys
/// and therefore leaves every block — exactly how a rebuild of the
/// mutated table would treat the row.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Append a new row; it receives the next dense record id.
    Insert {
        /// The new row's values, one per schema column.
        values: Vec<Value>,
    },
    /// Replace an existing row's values in place.
    Update {
        /// The row to overwrite.
        id: RecordId,
        /// Replacement values, one per schema column.
        values: Vec<Value>,
    },
    /// Remove a row's content (all-NULL overwrite; the id stays dense).
    Delete {
        /// The row to remove.
        id: RecordId,
    },
}

impl DeltaOp {
    /// Applies this op's table-side mutation, returning the touched
    /// record id. Call this for each op (in order) *before* handing the
    /// batch to [`TableErIndex::apply_delta`], which reads the final
    /// row contents from the table.
    pub fn apply_to_table(&self, table: &mut Table) -> Result<RecordId, StorageError> {
        match self {
            DeltaOp::Insert { values } => table.push_row(values.clone()),
            DeltaOp::Update { id, values } => {
                table.set_row(*id, values.clone())?;
                Ok(*id)
            }
            DeltaOp::Delete { id } => {
                table.set_row(*id, vec![Value::Null; table.schema().len()])?;
                Ok(*id)
            }
        }
    }

    /// The record id this op touches, given the table length at its
    /// point in the batch (`None` only for inserts, which mint the next
    /// dense id).
    pub fn target(&self) -> Option<RecordId> {
        match self {
            DeltaOp::Insert { .. } => None,
            DeltaOp::Update { id, .. } | DeltaOp::Delete { id } => Some(*id),
        }
    }
}

/// Which cached resolve state (and which Link Index entries) a delta
/// invalidated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Affected {
    /// Targeted invalidation: only these records' links can differ from
    /// what a rebuild would find (see the module docs for why); the
    /// Link Index entries of everything else stay valid, and the EP
    /// thresholds were patched in place. Sorted ascending, deduped.
    Ids(Vec<RecordId>),
    /// The active config derives node weights from global index
    /// statistics, so any record's links may have moved and the whole
    /// Link Index has to be dropped.
    All,
}

impl Affected {
    /// The invalidated ids, when the delta was targeted.
    pub fn ids(&self) -> Option<&[RecordId]> {
        match self {
            Affected::Ids(ids) => Some(ids),
            Affected::All => None,
        }
    }
}

/// Outcome of [`TableErIndex::apply_delta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedDelta {
    /// The invalidation scope — feed [`Affected::Ids`] to
    /// [`crate::LinkIndex::invalidate`] (after
    /// [`crate::LinkIndex::grow`]), or clear the LI on
    /// [`Affected::All`].
    pub affected: Affected,
    /// Ops accumulated in the delta side since the last compaction
    /// (including this batch) — the auto-compaction trigger input.
    pub pending_ops: usize,
}

/// The delta side of a [`TableErIndex`]: hash-map overlays shadowing
/// exactly the rows mutations touched, merged with the CSR base at
/// probe time by the index's accessors. Grows with every
/// [`TableErIndex::apply_delta`]; folded away by
/// [`TableErIndex::compact`].
#[derive(Debug)]
pub(crate) struct DeltaIndex {
    /// Merged record count (base + inserts).
    pub(crate) n_records: usize,
    /// Record count of the immutable base (delta ids start here).
    pub(crate) base_n_records: usize,
    /// Merged block count (base + minted keys).
    pub(crate) n_blocks: usize,
    /// Block count of the immutable base.
    pub(crate) base_n_blocks: usize,
    /// Ops applied since the base was built (compaction trigger).
    pub(crate) pending_ops: usize,
    /// Keys of blocks minted by deltas, in mint order (block id − base).
    pub(crate) new_keys: Vec<String>,
    /// Token → minted block id (the delta side of the TBI hash index).
    pub(crate) new_key_to_block: FxHashMap<String, BlockId>,
    /// Raw block contents for blocks whose membership changed (and all
    /// minted blocks). Record ids ascending, like the base CSR.
    pub(crate) raw_rows: FxHashMap<BlockId, Vec<RecordId>>,
    /// Post-BP/BF block contents for blocks whose filtered membership
    /// changed (and all minted blocks). Record ids ascending.
    pub(crate) filtered_rows: FxHashMap<BlockId, Vec<RecordId>>,
    /// Full merged purge flags (indexed by block id, covers base +
    /// minted blocks) — purging is a global decision, so the whole
    /// vector is recomputed per apply.
    pub(crate) purged: Vec<bool>,
    /// Merged BP threshold.
    pub(crate) purge_threshold: u64,
    /// Merged unpurged-block count (the ECBS/JS `n_blocks` input).
    pub(crate) n_unpurged: usize,
    /// ITBI rows for records whose block list or order changed, sorted
    /// by the rebuild-equivalent `(size, first member, key position)`.
    pub(crate) row_blocks: FxHashMap<RecordId, Vec<BlockId>>,
    /// Retained (post BP+BF) prefix for the same records.
    pub(crate) row_retained: FxHashMap<RecordId, Vec<BlockId>>,
    /// Profile tokens minted by deltas → their symbols, which count up
    /// from the base interner's length.
    pub(crate) ext_map: FxHashMap<String, u32>,
    /// Sorted profile-token symbols for touched records, with their
    /// [`token_sig`]. A delta-minted symbol never equals a base one, so
    /// signatures bound intersections across base and delta rows alike.
    pub(crate) row_tokens: FxHashMap<RecordId, (Vec<u32>, TokenSig)>,
    /// Pre-lowercased attributes for touched records (schema width).
    pub(crate) row_attrs: FxHashMap<RecordId, Vec<Option<Box<str>>>>,
    /// Kernel attribute metadata for touched records (schema width).
    pub(crate) row_meta: FxHashMap<RecordId, Vec<AttrMeta>>,
}

impl DeltaIndex {
    fn from_base(idx: &TableErIndex) -> Self {
        let purged = idx.purged.clone();
        let n_unpurged = purged.iter().filter(|&&p| !p).count();
        Self {
            n_records: idx.n_records,
            base_n_records: idx.n_records,
            n_blocks: idx.raw_blocks.n_rows(),
            base_n_blocks: idx.raw_blocks.n_rows(),
            pending_ops: 0,
            new_keys: Vec::new(),
            new_key_to_block: FxHashMap::default(),
            raw_rows: FxHashMap::default(),
            filtered_rows: FxHashMap::default(),
            purged,
            purge_threshold: idx.purge_threshold,
            n_unpurged,
            row_blocks: FxHashMap::default(),
            row_retained: FxHashMap::default(),
            ext_map: FxHashMap::default(),
            row_tokens: FxHashMap::default(),
            row_attrs: FxHashMap::default(),
            row_meta: FxHashMap::default(),
        }
    }

    /// Merged raw contents of a block: overlay row if the block was
    /// touched (or minted), base CSR row otherwise.
    #[inline]
    pub(crate) fn raw_row<'a>(&'a self, idx: &'a TableErIndex, b: BlockId) -> &'a [RecordId] {
        if let Some(row) = self.raw_rows.get(&b) {
            return row;
        }
        debug_assert!(
            (b as usize) < self.base_n_blocks,
            "minted blocks are always overlaid"
        );
        idx.raw_blocks.row(b as usize)
    }

    /// Merged post-BP/BF contents of a block.
    #[inline]
    pub(crate) fn filtered_row<'a>(&'a self, idx: &'a TableErIndex, b: BlockId) -> &'a [RecordId] {
        if let Some(row) = self.filtered_rows.get(&b) {
            return row;
        }
        debug_assert!(
            (b as usize) < self.base_n_blocks,
            "minted blocks are always overlaid"
        );
        idx.filtered_blocks.row(b as usize)
    }

    /// Merged ITBI row of a record.
    #[inline]
    pub(crate) fn blocks_row<'a>(&'a self, idx: &'a TableErIndex, id: RecordId) -> &'a [BlockId] {
        if let Some(row) = self.row_blocks.get(&id) {
            return row;
        }
        debug_assert!(
            (id as usize) < self.base_n_records,
            "inserted records are always overlaid"
        );
        idx.entity_blocks.row(id as usize)
    }

    /// Merged retained prefix of a record.
    #[inline]
    pub(crate) fn retained_row<'a>(&'a self, idx: &'a TableErIndex, id: RecordId) -> &'a [BlockId] {
        if let Some(row) = self.row_retained.get(&id) {
            return row;
        }
        debug_assert!(
            (id as usize) < self.base_n_records,
            "inserted records are always overlaid"
        );
        idx.entity_retained.row(id as usize)
    }

    /// Merged block key.
    #[inline]
    pub(crate) fn key_of<'a>(&'a self, idx: &'a TableErIndex, b: BlockId) -> &'a str {
        if (b as usize) < self.base_n_blocks {
            &idx.keys[b as usize]
        } else {
            &self.new_keys[b as usize - self.base_n_blocks]
        }
    }
}

/// Per-apply memo behind [`rebuild_order`]: record → (blocking key →
/// position in that record's key iteration).
type KeyPositions = FxHashMap<RecordId, FxHashMap<String, u32>>;

/// Orders two blocks the way a rebuild's ITBI would: by `(merged size,
/// first raw member, position of the block's key within that member's
/// key set)`. A rebuild assigns block ids in exactly the `(first member,
/// key position)` order (a key is first seen at its lowest-id emitter,
/// at that record's key-iteration position — a pure function of record
/// content), so this reproduces its `(size, id)` order. `lens` holds the
/// merged block sizes. The key position costs a tokenization of the
/// first member (memoized in `keypos`) and is only looked at for two
/// same-sized blocks first seen at the same record.
fn rebuild_order(
    idx: &TableErIndex,
    d: &DeltaIndex,
    table: &Table,
    lens: &[usize],
    keypos: &mut KeyPositions,
    a: BlockId,
    b: BlockId,
) -> Ordering {
    // Ranked blocks come from ITBI rows, so they have members.
    let (first_a, first_b) = (d.raw_row(idx, a)[0], d.raw_row(idx, b)[0]);
    lens[a as usize]
        .cmp(&lens[b as usize])
        .then(first_a.cmp(&first_b))
        .then_with(|| {
            let pos = keypos.entry(first_a).or_insert_with(|| {
                record_keys(
                    table.record_unchecked(first_a),
                    idx.cfg.blocking,
                    idx.cfg.min_token_len,
                    idx.skip_col,
                )
                .into_iter()
                .enumerate()
                .map(|(i, k)| (k, i as u32))
                .collect()
            });
            // A block's first member emits its key.
            pos[d.key_of(idx, a)].cmp(&pos[d.key_of(idx, b)])
        })
}

impl TableErIndex {
    /// Whether a delta side is live (served merged with the base until
    /// [`TableErIndex::compact`]).
    pub fn has_delta(&self) -> bool {
        self.delta.is_some()
    }

    /// Ops accumulated in the delta side since the base was built.
    pub fn pending_delta_ops(&self) -> usize {
        self.delta.as_ref().map_or(0, |d| d.pending_ops)
    }

    /// Applies one batch of mutations to the index, after the same ops
    /// were applied to `table` (see [`DeltaOp::apply_to_table`]). The
    /// batch is validated in full before anything is mutated; a
    /// validation error leaves the index untouched and serving.
    ///
    /// Every probe-time accessor then serves the merged (base ∪ delta)
    /// view, and the resolve state follows the batch instead of being
    /// dropped: the EP thresholds of the records whose candidate
    /// neighbourhood changed are overwritten with their new values,
    /// only those records (and the rare neighbour whose edge to one of
    /// them changes sides) are reported affected, and only pairs with
    /// an updated or deleted record lose their comparison decisions —
    /// see the module docs and [`Affected`]. Configs whose edge weights
    /// read global index statistics (ECBS / JS schemes, global-scope
    /// EP) report [`Affected::All`] instead, and ECBS / JS under
    /// node-centric EP get one threshold re-sweep.
    ///
    /// Panic safety: like [`TableErIndex::clear_ep_cache`], the apply
    /// is a compound mutation under a poison latch — the `"delta.apply"`
    /// failpoint stands in for a mid-apply fault in tests.
    pub fn apply_delta(
        &mut self,
        table: &Table,
        ops: &[DeltaOp],
    ) -> Result<AppliedDelta, ResolveError> {
        if self.is_poisoned() {
            return Err(ResolveError::Poisoned);
        }
        // -- Validate the whole batch up front (no partial applies). --
        let mut running = self.n_records();
        let mut touched: Vec<RecordId> = Vec::new();
        let mut touched_set: FxHashSet<RecordId> = FxHashSet::default();
        let mut profile_changed: Vec<RecordId> = Vec::new();
        // Rows whose *last* op in the batch is a delete: only those must
        // read back all-NULL from the (post-batch) table — an earlier
        // delete superseded by a later update is a legitimate sequence.
        let mut deleted: FxHashSet<RecordId> = FxHashSet::default();
        for op in ops {
            let rid = match op {
                DeltaOp::Insert { .. } => {
                    let rid = running as RecordId;
                    running += 1;
                    rid
                }
                DeltaOp::Update { id, .. } => {
                    if (*id as usize) >= running {
                        return Err(ResolveError::InvalidDelta {
                            reason: "update id out of range at its point in the batch",
                        });
                    }
                    deleted.remove(id);
                    profile_changed.push(*id);
                    *id
                }
                DeltaOp::Delete { id } => {
                    if (*id as usize) >= running {
                        return Err(ResolveError::InvalidDelta {
                            reason: "delete id out of range at its point in the batch",
                        });
                    }
                    deleted.insert(*id);
                    profile_changed.push(*id);
                    *id
                }
            };
            if touched_set.insert(rid) {
                touched.push(rid);
            }
        }
        if running != table.len() {
            return Err(ResolveError::InvalidDelta {
                reason: "batch does not account for the table's record count",
            });
        }
        for id in &deleted {
            if !table
                .record(*id)
                .is_some_and(|r| r.values.iter().all(Value::is_null))
            {
                return Err(ResolveError::InvalidDelta {
                    reason: "delete must overwrite the table row with NULLs first",
                });
            }
        }
        if ops.is_empty() {
            return Ok(AppliedDelta {
                affected: Affected::Ids(Vec::new()),
                pending_ops: self.pending_delta_ops(),
            });
        }

        // Invalidation is targeted when node weights are purely local:
        // CBS weights under node-centric EP, or no EP at all.
        let targeted = !self.cfg.meta.edge_pruning()
            || (self.cfg.weight_scheme == WeightScheme::Cbs
                && self.cfg.ep_scope == EdgePruningScope::NodeCentric);
        let ep_targeted = targeted && self.cfg.meta.edge_pruning();

        let guard = PoisonGuard::new(&self.poisoned);
        failpoints::fire("delta.apply");
        let mut d = match self.delta.take() {
            Some(d) => *d,
            None => DeltaIndex::from_base(self),
        };

        // -- Phase 1: re-tokenize each touched record once (its final
        // contents), patch raw block memberships, overlay profiles. --
        let mut t0: FxHashSet<BlockId> = FxHashSet::default(); // raw membership changed
        for &rid in &touched {
            let record = table.record_unchecked(rid);
            let keys = record_keys(
                record,
                self.cfg.blocking,
                self.cfg.min_token_len,
                self.skip_col,
            );
            let mut new_blocks: Vec<BlockId> = Vec::with_capacity(keys.len());
            for key in keys {
                let b = if let Some(&b) = self.key_to_block.get(&key) {
                    b
                } else if let Some(&b) = d.new_key_to_block.get(&key) {
                    b
                } else {
                    let b = d.n_blocks as BlockId;
                    d.n_blocks += 1;
                    d.new_keys.push(key.clone());
                    d.new_key_to_block.insert(key, b);
                    d.raw_rows.insert(b, Vec::new());
                    d.filtered_rows.insert(b, Vec::new());
                    d.purged.push(false);
                    b
                };
                new_blocks.push(b);
            }
            let old_blocks: Vec<BlockId> = if let Some(row) = d.row_blocks.get(&rid) {
                row.clone()
            } else if (rid as usize) < d.base_n_records {
                self.entity_blocks.row(rid as usize).to_vec()
            } else {
                Vec::new()
            };
            let new_set: FxHashSet<BlockId> = new_blocks.iter().copied().collect();
            let old_set: FxHashSet<BlockId> = old_blocks.iter().copied().collect();
            for &b in &old_blocks {
                if !new_set.contains(&b) {
                    let row = d
                        .raw_rows
                        .entry(b)
                        .or_insert_with(|| self.raw_blocks.row(b as usize).to_vec());
                    if let Ok(at) = row.binary_search(&rid) {
                        row.remove(at);
                    }
                    t0.insert(b);
                }
            }
            for &b in &new_blocks {
                if !old_set.contains(&b) {
                    let row = d.raw_rows.entry(b).or_insert_with(|| {
                        if (b as usize) < d.base_n_blocks {
                            self.raw_blocks.row(b as usize).to_vec()
                        } else {
                            Vec::new()
                        }
                    });
                    if let Err(at) = row.binary_search(&rid) {
                        row.insert(at, rid);
                    }
                    t0.insert(b);
                }
            }
            d.row_blocks.insert(rid, new_blocks); // re-sorted in phase 4

            let mut syms: Vec<u32> = Vec::new();
            for tok in record_tokens(record, self.cfg.min_token_len, self.skip_col) {
                let s = if let Some(s) = self.interner.get(&tok) {
                    s
                } else if let Some(&s) = d.ext_map.get(&tok) {
                    s
                } else {
                    let s = (self.interner.len() + d.ext_map.len()) as u32;
                    d.ext_map.insert(tok, s);
                    s
                };
                syms.push(s);
            }
            syms.sort_unstable();
            let sig = token_sig(&syms);
            d.row_tokens.insert(rid, (syms, sig));
            let mut lower: Vec<Option<Box<str>>> = Vec::with_capacity(self.n_cols);
            let mut meta: Vec<AttrMeta> = Vec::with_capacity(self.n_cols);
            for (i, v) in record.values.iter().enumerate() {
                if Some(i) == self.skip_col || v.is_null() {
                    lower.push(None);
                    meta.push(AttrMeta::default());
                } else {
                    let lowered = v.render().to_lowercase().into_boxed_str();
                    meta.push(AttrMeta::of(&lowered));
                    lower.push(Some(lowered));
                }
            }
            d.row_attrs.insert(rid, lower);
            d.row_meta.insert(rid, meta);
        }
        d.n_records = table.len();

        // -- Phase 2: recompute the global purge decision over the
        // merged cardinalities; collect flag flips. Emptied blocks are
        // force-purged even with purging off — a rebuild would not have
        // them, and the unpurged count feeds the ECBS/JS weights. --
        let mut flips: FxHashSet<BlockId> = FxHashSet::default();
        let lens: Vec<usize> = (0..d.n_blocks)
            .map(|b| d.raw_row(self, b as BlockId).len())
            .collect();
        if self.cfg.meta.purging() {
            let cards: Vec<u64> = lens.iter().map(|&n| cardinality(n)).collect();
            let (thr, mut flags) = purge_flags(&cards, self.cfg.purging_smooth_factor);
            for (b, &n) in lens.iter().enumerate() {
                if n == 0 {
                    flags[b] = true;
                }
                if flags[b] != d.purged[b] {
                    flips.insert(b as BlockId);
                }
            }
            d.purge_threshold = thr;
            d.purged = flags;
        } else {
            for (b, &n) in lens.iter().enumerate() {
                let empty = n == 0;
                if empty != d.purged[b] {
                    flips.insert(b as BlockId);
                    d.purged[b] = empty;
                }
            }
        }
        d.n_unpurged = d.purged.iter().filter(|&&p| !p).count();

        // -- Phase 3: the ITBI rows to revisit. A block's sort key
        // `(size, first member, key position)` moved when its raw
        // membership changed (`t0`) or when its first member's key set
        // did; R = the touched rows plus every member of a block whose
        // sort key or purge flag moved. --
        let mut key_moved: Vec<BlockId> = t0.into_iter().collect();
        for &rid in &touched {
            for &b in &d.row_blocks[&rid] {
                if d.raw_row(self, b).first() == Some(&rid) {
                    key_moved.push(b);
                }
            }
        }
        let mut moved = vec![false; d.n_blocks];
        let mut r_set: FxHashSet<RecordId> = touched_set.clone();
        for &b in &key_moved {
            moved[b as usize] = true;
            r_set.extend(d.raw_row(self, b).iter().copied());
        }
        for &b in &flips {
            r_set.extend(d.raw_row(self, b).iter().copied());
        }
        let mut r_list: Vec<RecordId> = r_set.into_iter().collect();
        r_list.sort_unstable();

        // -- Phase 4: restore each row of R to its rebuild order and
        // re-filter it; patch the filtered block contents it
        // leaves/joins. Blocks whose key did not move are still in
        // order among themselves, so an untouched row whose moved blocks
        // all sit between the right neighbours is left alone. `dirty`
        // collects the records whose own retained blocks changed,
        // `changed_blocks` the blocks somebody left or joined. --
        let mut keypos = KeyPositions::default();
        let mut dirty: FxHashSet<RecordId> = touched_set.clone();
        let mut changed_blocks: FxHashSet<BlockId> = FxHashSet::default();
        let mut unpurged: Vec<BlockId> = Vec::new();
        for &rid in &r_list {
            let cur: &[BlockId] = match d.row_blocks.get(&rid) {
                Some(row) => row,
                None => self.entity_blocks.row(rid as usize),
            };
            let mut order = |a, b| rebuild_order(self, &d, table, &lens, &mut keypos, a, b);
            let is_touched = touched_set.contains(&rid);
            let in_order = !is_touched
                && cur.iter().enumerate().all(|(i, &b)| {
                    !moved[b as usize]
                        || ((i == 0 || order(cur[i - 1], b).is_lt())
                            && (i + 1 == cur.len() || order(b, cur[i + 1]).is_lt()))
                });
            let resorted: Option<Vec<BlockId>> = (!in_order).then(|| {
                let mut row = cur.to_vec();
                row.sort_unstable_by(|&a, &b| order(a, b));
                row
            });

            unpurged.clear();
            unpurged.extend(
                resorted
                    .as_deref()
                    .unwrap_or(cur)
                    .iter()
                    .copied()
                    .filter(|&b| !d.purged[b as usize]),
            );
            let keep = if self.cfg.meta.filtering() {
                ((self.cfg.filtering_ratio * unpurged.len() as f64).ceil() as usize)
                    .min(unpurged.len())
            } else {
                unpurged.len()
            };
            let new_retained = &unpurged[..keep];
            let old_retained: &[BlockId] = match d.row_retained.get(&rid) {
                Some(row) => row,
                None if (rid as usize) < d.base_n_records => self.entity_retained.row(rid as usize),
                None => &[],
            };
            if in_order && new_retained == old_retained {
                continue;
            }
            for &b in old_retained {
                if !new_retained.contains(&b) {
                    let frow = d
                        .filtered_rows
                        .entry(b)
                        .or_insert_with(|| self.filtered_blocks.row(b as usize).to_vec());
                    if let Ok(at) = frow.binary_search(&rid) {
                        frow.remove(at);
                    }
                    changed_blocks.insert(b);
                }
            }
            for &b in new_retained {
                if !old_retained.contains(&b) {
                    let frow = d.filtered_rows.entry(b).or_insert_with(|| {
                        if (b as usize) < d.base_n_blocks {
                            self.filtered_blocks.row(b as usize).to_vec()
                        } else {
                            Vec::new()
                        }
                    });
                    if let Err(at) = frow.binary_search(&rid) {
                        frow.insert(at, rid);
                    }
                    changed_blocks.insert(b);
                }
            }
            // A CBS row is stored in first-touch order over the
            // retained *sequence*, so a reordered prefix is recounted
            // even when it holds the same blocks.
            if new_retained != old_retained {
                dirty.insert(rid);
            }
            d.row_retained.insert(rid, new_retained.to_vec());
            if let Some(row) = resorted {
                d.row_blocks.insert(rid, row);
            }
        }
        // -- Phase 5: the dirty set — the records whose candidate
        // neighbourhood (CBS row) changed: those whose own retained
        // blocks changed, plus the current retainers of every block
        // somebody left or joined — and their new rows, counted afresh
        // in a rebuild's first-touch order.
        //
        // Under a targeted config the old threshold is the record's slot
        // of the index's vector and the new one falls out of the new
        // row, and with them the non-dirty neighbours whose surviving
        // edge to the record flips; the new
        // neighbours of an updated/deleted record are collected too —
        // their links to it were decided against the old profile. --
        for &b in &changed_blocks {
            dirty.extend(d.filtered_row(self, b).iter().copied());
        }
        let mut dirty_list: Vec<RecordId> = dirty.iter().copied().collect();
        dirty_list.sort_unstable();
        let scheme = self.cfg.weight_scheme;
        let n_blocks = d.n_unpurged.max(1) as f64;
        let changed_profiles: FxHashSet<RecordId> = profile_changed.iter().copied().collect();
        let mut patched: Vec<(RecordId, f64)> = Vec::new();
        let mut flipped: Vec<RecordId> = Vec::new();
        let mut relinked: Vec<RecordId> = Vec::new();
        let mut counts: Vec<u32> = vec![0; d.n_records];
        let mut row: Vec<(RecordId, u32)> = Vec::new();
        for &p in &dirty_list {
            let relinks = targeted && changed_profiles.contains(&p);
            if !(ep_targeted || relinks) {
                continue;
            }
            // CBS weights read nothing but the count, so the shared
            // threshold and weight definitions are safe to call while
            // the delta side is detached from `self`. A record inserted
            // by this batch has no old threshold.
            let th_old = if ep_targeted {
                self.ep_thresholds.get(p as usize).copied()
            } else {
                None
            };
            count_cooccurrences(
                p,
                d.retained_row(self, p),
                |b| d.filtered_row(self, b),
                &mut counts,
                &mut row,
            );
            if ep_targeted {
                let th_new = threshold_over(self, scheme, n_blocks, p, &row);
                // CBS weights are whole numbers and one mover shifts a
                // threshold by about 1/|row|: unless a whole number
                // separates the two thresholds no edge can flip, and
                // the row need not be walked.
                let may_flip = |th_old: f64| {
                    let (lo, hi) = (th_old.min(th_new), th_old.max(th_new));
                    (lo.floor() as i64 - 1..=hi.ceil() as i64 + 1)
                        .any(|w| keeps(w as f64, lo) != keeps(w as f64, hi))
                };
                if let Some(th_old) = th_old.filter(|&th| may_flip(th)) {
                    for &(q, cbs) in &row {
                        let w = weight_of(self, scheme, n_blocks, p, q, cbs);
                        if keeps(w, th_old) != keeps(w, th_new) && !dirty.contains(&q) {
                            flipped.push(q);
                        }
                    }
                }
                patched.push((p, th_new));
            }
            if relinks {
                relinked.extend(row.iter().map(|&(q, _)| q));
            }
        }

        // -- Phase 6: invalidation. Targeted: each dirty record's slot
        // of the threshold vector takes its new value, and the affected
        // ids are the records whose survivor rows or decisions can have
        // changed. --
        let affected = if targeted {
            if ep_targeted {
                self.ep_thresholds.resize(d.n_records, 0.0);
                for &(p, th) in &patched {
                    self.ep_thresholds[p as usize] = th;
                }
            }
            let mut a_list = dirty_list;
            a_list.extend(flipped);
            a_list.extend(relinked);
            a_list.sort_unstable();
            a_list.dedup();
            Affected::Ids(a_list)
        } else {
            Affected::All
        };
        // Comparison decisions are pure functions of the two profiles:
        // only updated/deleted records can hold stale entries (inserts
        // never had any).
        if !profile_changed.is_empty() {
            self.decisions.retain(|key| {
                let (a, b) = unpack_pair(key);
                !changed_profiles.contains(&a) && !changed_profiles.contains(&b)
            });
        }

        d.pending_ops += ops.len();
        let pending_ops = d.pending_ops;
        self.delta = Some(Box::new(d));
        // ECBS / JS weights read the merged unpurged-block count, so
        // under node-centric EP every threshold may have moved: one
        // sweep over the merged graph replaces the vector. A worker
        // panic leaves the index poisoned (the delta is already in).
        if !targeted && self.cfg.node_centric_ep() {
            self.ep_thresholds = bulk_node_thresholds(self, self.cfg.effective_threads())?;
        }
        guard.disarm();
        Ok(AppliedDelta {
            affected,
            pending_ops,
        })
    }

    /// Folds the delta side back into fresh CSR buffers by rebuilding
    /// from the mutated table. A no-op (bit-identical, caches kept)
    /// when no delta is live; otherwise the rebuilt index starts with
    /// cold caches — decisions are unaffected, the caches only memoize
    /// pure functions of the index. On error the index is left
    /// untouched and still serving the merged view.
    pub fn compact(&mut self, table: &Table) -> Result<(), ResolveError> {
        if self.delta.is_none() {
            return Ok(());
        }
        if table.len() != self.n_records() {
            return Err(ResolveError::TableMismatch {
                expected: self.n_records(),
                got: table.len(),
            });
        }
        *self = Self::try_build(table, &self.cfg)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ErConfig;
    use queryer_storage::Schema;

    /// `compact()` with no live delta leaves the index as it was: the
    /// same CSR buffers, purge flags and WNP thresholds.
    #[test]
    fn noop_compact_is_bit_identical() {
        let mut table = Table::new("p", Schema::of_strings(&["id", "title", "venue"]));
        for (id, title, venue) in [
            ("0", "collective entity resolution", "edbt"),
            ("1", "collective entity resolution", "edbt"),
            ("2", "query driven entity resolution", "vldb"),
            ("3", "deep learning for vision", "cvpr"),
        ] {
            table
                .push_row(vec![id.into(), title.into(), venue.into()])
                .unwrap();
        }
        let mut idx = TableErIndex::build(&table, &ErConfig::default());
        let state = |idx: &TableErIndex| {
            (
                [
                    idx.raw_blocks.clone(),
                    idx.filtered_blocks.clone(),
                    idx.entity_blocks.clone(),
                    idx.entity_retained.clone(),
                ],
                idx.purged.clone(),
                idx.ep_thresholds
                    .iter()
                    .map(|t| t.to_bits())
                    .collect::<Vec<u64>>(),
            )
        };
        let before = state(&idx);
        assert_eq!(before.2.len(), table.len(), "the build swept thresholds");
        idx.compact(&table).unwrap();
        assert_eq!(
            state(&idx),
            before,
            "no-op compact must leave the index bit-identical"
        );
    }

    /// A row of words `w<n>` for each `n`, as one title value.
    fn words(ns: &[u32]) -> Value {
        let text: Vec<String> = ns.iter().map(|n| format!("w{n}")).collect();
        Value::str(text.join(" "))
    }

    proptest::proptest! {
        /// Rows a delta touches carry the signature of their tokens, like
        /// built rows do. Inserts and updates draw words beyond the base
        /// vocabulary, so some symbols are minted by the delta; one
        /// insert has 300 tokens, past the signature's `u8::MAX` guard.
        #[test]
        fn delta_rows_carry_the_signature_of_their_tokens(
            base in proptest::collection::vec(proptest::collection::vec(0u32..40, 0..6), 1..12),
            ops in proptest::collection::vec(
                (proptest::prelude::any::<bool>(), 0u32..64, proptest::collection::vec(0u32..80, 0..8)),
                1..10,
            ),
        ) {
            let mut table = Table::new("p", Schema::of_strings(&["title"]));
            for row in &base {
                table.push_row(vec![words(row)]).unwrap();
            }
            let mut idx = TableErIndex::build(&table, &ErConfig::default());
            let long: Vec<u32> = (1000..1300).collect();
            let mut batch = vec![DeltaOp::Insert { values: vec![words(&long)] }];
            for (insert, id, row) in &ops {
                batch.push(if *insert {
                    DeltaOp::Insert { values: vec![words(row)] }
                } else {
                    DeltaOp::Update { id: id % base.len() as u32, values: vec![words(row)] }
                });
            }
            for op in &batch {
                op.apply_to_table(&mut table).unwrap();
            }
            idx.apply_delta(&table, &batch).unwrap();
            for id in 0..idx.n_records() as RecordId {
                let p = idx.profile(id);
                proptest::prop_assert_eq!(*p.sig, token_sig(p.tokens), "record {}", id);
            }
        }
    }
}
