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
//!   key position within that member)` order. Delta-affected rows are
//!   re-sorted by that same `(size, first member, key position)` key,
//!   which is precisely the order a rebuild would assign — so Block
//!   Filtering retains the same prefix.
//! - **Emptied blocks are force-purged** (even with purging disabled)
//!   so the unpurged-block count — an input of the ECBS/JS edge
//!   weights — matches the rebuild, which has no such blocks at all.
//!
//! # Targeted invalidation
//!
//! A delta drops exactly the cached artefacts whose inputs changed and
//! keeps everything else warm. Let *dirty* = records whose candidate
//! neighbourhood (CBS row) changed, and *A* = dirty ∪ their current
//! neighbours. Then every memoized EP threshold and survivor list
//! outside *A* is still a pure function of unchanged inputs
//! (the candidate relation is symmetric: `q` co-occurs with `p` iff
//! some retained block of `p` has `q` in its filtered contents), and
//! every comparison decision not touching an updated/deleted profile is
//! still valid. Only when the active config makes node weights depend
//! on *global* index statistics (ECBS/JS read the unpurged-block count;
//! global-scope EP averages over every edge) does the apply fall back
//! to a full cache clear and reports [`Affected::All`].

use crate::config::WeightScheme;
use crate::govern::{PoisonGuard, ResolveError};
use crate::index::{cardinality, AttrMeta, BlockId, TableErIndex};
use crate::purging::purge_flags;
use crate::tokenizer::{record_keys, record_tokens};
use queryer_common::{failpoints, unpack_pair, FxHashMap, FxHashSet};
use queryer_storage::{RecordId, StorageError, Table, Value};

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
    /// Targeted invalidation: exactly these records' cached thresholds,
    /// survivor lists, and links are stale; everything else stays warm.
    /// Sorted ascending, deduped.
    Ids(Vec<RecordId>),
    /// The active config derives node weights from global index
    /// statistics, so every cached EP artefact (and the whole Link
    /// Index) had to be dropped.
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
    /// CBS partial rows for records whose candidate neighbourhood
    /// changed, materialized eagerly at apply time (the cached EP path
    /// requires partials for every record it touches). Only populated
    /// when the base has partials.
    pub(crate) cbs_rows: FxHashMap<RecordId, Vec<(RecordId, u32)>>,
    /// Profile tokens minted by deltas (symbol − base interner length).
    pub(crate) ext_tokens: Vec<String>,
    /// Token text → minted symbol.
    pub(crate) ext_map: FxHashMap<String, u32>,
    /// Sorted profile-token symbols for touched records.
    pub(crate) row_tokens: FxHashMap<RecordId, Vec<u32>>,
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
            cbs_rows: FxHashMap::default(),
            ext_tokens: Vec::new(),
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

/// The rebuild-equivalent ITBI sort key of a block: `(merged size,
/// first raw member, position of the block's key within that member's
/// key set)`. A rebuild assigns block ids in exactly this lexicographic
/// order (a key is first seen at its lowest-id emitter, at that
/// record's key-iteration position — a pure function of record
/// content), so sorting a delta-affected row by it reproduces the
/// rebuild's `(size, id)` order. Memoized per apply in `rank`; the
/// per-record key→position maps are memoized in `keypos`.
fn block_rank(
    idx: &TableErIndex,
    d: &DeltaIndex,
    table: &Table,
    b: BlockId,
    rank: &mut FxHashMap<BlockId, (RecordId, u32)>,
    keypos: &mut FxHashMap<RecordId, FxHashMap<String, u32>>,
) -> (RecordId, u32) {
    if let Some(&r) = rank.get(&b) {
        return r;
    }
    let row = d.raw_row(idx, b);
    debug_assert!(
        !row.is_empty(),
        "ranked blocks come from ITBI rows, so they have members"
    );
    let fm = row[0];
    let pos = keypos.entry(fm).or_insert_with(|| {
        record_keys(
            table.record_unchecked(fm),
            idx.cfg.blocking,
            idx.cfg.min_token_len,
            idx.skip_col,
        )
        .into_iter()
        .enumerate()
        .map(|(i, k)| (k, i as u32))
        .collect()
    });
    let epos = *pos
        .get(d.key_of(idx, b))
        .expect("a block's first member emits its key");
    rank.insert(b, (fm, epos));
    (fm, epos)
}

impl TableErIndex {
    /// Whether a delta side is live (served merged with the base; a
    /// snapshot cannot be written until [`TableErIndex::compact`]).
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
    /// view, and the cached resolve state is invalidated *targetedly*:
    /// only records whose candidate neighbourhood or profile changed —
    /// plus their current neighbours — lose their cached EP
    /// thresholds, survivor lists, and comparison decisions (see
    /// [`Affected`]). Configs whose edge weights read global index
    /// statistics (ECBS / JS schemes, global-scope EP) get a full cache
    /// clear instead.
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
                    let s = (self.interner.len() + d.ext_tokens.len()) as u32;
                    d.ext_tokens.push(tok.clone());
                    d.ext_map.insert(tok, s);
                    s
                };
                syms.push(s);
            }
            syms.sort_unstable();
            d.row_tokens.insert(rid, syms);
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

        // -- Phase 3: the affected-row closure R. A row must be
        // re-sorted/re-filtered when it holds a block whose size or
        // purge flag changed — or whose rebuild id *would* change
        // because its first member's key set changed (`t_rank`). --
        let mut t_rank: FxHashSet<BlockId> = FxHashSet::default();
        for &rid in &touched {
            for &b in &d.row_blocks[&rid] {
                if d.raw_row(self, b).first() == Some(&rid) {
                    t_rank.insert(b);
                }
            }
        }
        let mut r_set: FxHashSet<RecordId> = touched_set.clone();
        for &b in t0.iter().chain(flips.iter()).chain(t_rank.iter()) {
            r_set.extend(d.raw_row(self, b).iter().copied());
        }
        let mut r_list: Vec<RecordId> = r_set.iter().copied().collect();
        r_list.sort_unstable();

        // -- Phase 4: re-sort and re-filter every row in R; patch the
        // filtered block contents it leaves/joins. --
        let mut rank: FxHashMap<BlockId, (RecordId, u32)> = FxHashMap::default();
        let mut keypos: FxHashMap<RecordId, FxHashMap<String, u32>> = FxHashMap::default();
        let mut tf: FxHashSet<BlockId> = FxHashSet::default(); // filtered contents changed
        for &rid in &r_list {
            let row: Vec<BlockId> = if let Some(r) = d.row_blocks.get(&rid) {
                r.clone()
            } else {
                self.entity_blocks.row(rid as usize).to_vec()
            };
            let mut keyed: Vec<(usize, RecordId, u32, BlockId)> = Vec::with_capacity(row.len());
            for &b in &row {
                let (fm, epos) = block_rank(self, &d, table, b, &mut rank, &mut keypos);
                keyed.push((d.raw_row(self, b).len(), fm, epos, b));
            }
            keyed.sort_unstable();
            let row: Vec<BlockId> = keyed.iter().map(|k| k.3).collect();

            let old_retained: Vec<BlockId> = if let Some(r) = d.row_retained.get(&rid) {
                r.clone()
            } else if (rid as usize) < d.base_n_records {
                self.entity_retained.row(rid as usize).to_vec()
            } else {
                Vec::new()
            };
            let unpurged: Vec<BlockId> = row
                .iter()
                .copied()
                .filter(|&b| !d.purged[b as usize])
                .collect();
            let keep = if self.cfg.meta.filtering() {
                ((self.cfg.filtering_ratio * unpurged.len() as f64).ceil() as usize)
                    .min(unpurged.len())
            } else {
                unpurged.len()
            };
            let new_retained: Vec<BlockId> = unpurged[..keep].to_vec();
            let new_rset: FxHashSet<BlockId> = new_retained.iter().copied().collect();
            let old_rset: FxHashSet<BlockId> = old_retained.iter().copied().collect();
            for &b in &old_retained {
                if !new_rset.contains(&b) {
                    let frow = d
                        .filtered_rows
                        .entry(b)
                        .or_insert_with(|| self.filtered_blocks.row(b as usize).to_vec());
                    if let Ok(at) = frow.binary_search(&rid) {
                        frow.remove(at);
                    }
                    tf.insert(b);
                }
            }
            for &b in &new_retained {
                if !old_rset.contains(&b) {
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
                    tf.insert(b);
                }
            }
            d.row_blocks.insert(rid, row);
            d.row_retained.insert(rid, new_retained);
        }

        // -- Phase 5: the dirty set — records whose candidate
        // neighbourhood (CBS row) changed: R itself, plus the current
        // retainers of every block whose filtered contents changed.
        // When the base carries CBS partials, their merged rows are
        // materialized eagerly (the cached EP path requires a partial
        // row for every record it touches). --
        let mut dirty: FxHashSet<RecordId> = r_set;
        for &b in &tf {
            dirty.extend(d.filtered_row(self, b).iter().copied());
        }
        let mut dirty_list: Vec<RecordId> = dirty.iter().copied().collect();
        dirty_list.sort_unstable();
        if self.cbs_adj.is_some() {
            let mut counts: Vec<u32> = vec![0; d.n_records];
            let mut out: Vec<(RecordId, u32)> = Vec::new();
            for &rid in &dirty_list {
                out.clear();
                for &b in d.retained_row(self, rid) {
                    for &other in d.filtered_row(self, b) {
                        if other != rid {
                            let c = &mut counts[other as usize];
                            if *c == 0 {
                                out.push((other, 0));
                            }
                            *c += 1;
                        }
                    }
                }
                for (r, cnt) in &mut out {
                    let c = &mut counts[*r as usize];
                    *cnt = *c;
                    *c = 0;
                }
                d.cbs_rows.insert(rid, out.clone());
            }
        }

        // -- Phase 6: invalidation. Targeted when node weights are
        // purely local (CBS weights under node-centric EP, or no EP at
        // all): A = dirty ∪ current neighbours of dirty. Every pair
        // whose candidate status or weight inputs changed has both
        // endpoints in A — removed pairs make both endpoints dirty, so
        // chasing *current* neighbours suffices. --
        let targeted = !self.cfg.meta.edge_pruning()
            || (self.cfg.weight_scheme == WeightScheme::Cbs
                && self.cfg.ep_scope == crate::config::EdgePruningScope::NodeCentric);
        // The bulk threshold vector is all-or-nothing: any delta drops it.
        *self.ep_thresholds.lock() = None;
        let affected = if targeted {
            let mut a_set: FxHashSet<RecordId> = dirty;
            for &rid in &dirty_list {
                if let Some(row) = d.cbs_rows.get(&rid) {
                    a_set.extend(row.iter().map(|&(other, _)| other));
                } else {
                    for &b in d.retained_row(self, rid) {
                        for &other in d.filtered_row(self, b) {
                            if other != rid {
                                a_set.insert(other);
                            }
                        }
                    }
                }
            }
            let mut a_list: Vec<RecordId> = a_set.into_iter().collect();
            a_list.sort_unstable();
            let mut keys: Vec<u64> = Vec::with_capacity(a_list.len() * 3);
            for &rid in &a_list {
                for scheme in [WeightScheme::Cbs, WeightScheme::Ecbs, WeightScheme::Js] {
                    keys.push(crate::index::scheme_node_key(scheme, rid));
                }
            }
            self.resolve_cache.thresholds.remove_batch(&keys);
            self.resolve_cache.survivors.remove_batch(&keys);
            Affected::Ids(a_list)
        } else {
            self.resolve_cache.thresholds.clear();
            self.resolve_cache.survivors.clear();
            Affected::All
        };
        // Comparison decisions are pure functions of the two profiles:
        // only updated/deleted records can hold stale entries (inserts
        // never had any).
        if !profile_changed.is_empty() {
            let changed: FxHashSet<RecordId> = profile_changed.iter().copied().collect();
            self.resolve_cache.decisions.retain(|key| {
                let (a, b) = unpack_pair(key);
                !changed.contains(&a) && !changed.contains(&b)
            });
        }

        d.pending_ops += ops.len();
        let pending_ops = d.pending_ops;
        self.delta = Some(Box::new(d));
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
