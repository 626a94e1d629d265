//! The per-table ER index: TBI + ITBI with table-level meta-blocking
//! decisions baked in at build time.
//!
//! Sec. 3: "All indexes are built once-off during initialization of each
//! table and are stored in memory." The Inverse Table Block Index is
//! "sorted in ascending order by their block size", which is exactly what
//! Block Filtering needs.
//!
//! # Build phases
//!
//! [`TableErIndex::build`] is organised so that a 100k–1M-record table
//! never materializes a per-record `Vec` or an intermediate pair vector;
//! every relation lives in a counting-pass [`queryer_common::Csr`] from
//! the moment it exists:
//!
//! 1. **Tokenize + intern** (`tokenize_table`): one sweep over the
//!    records produces the blocking keys, the record→key CSR, the
//!    profile-token interner and arena, and the pre-lowercased
//!    attributes with their kernel metadata. Each record is tokenized
//!    once ([`crate::tokenizer::RecordTokenizer`]); under Token Blocking
//!    its profile tokens are its key set, so a chunk's token vocabulary
//!    is its key vocabulary. The sweep is chunked across
//!    `ErConfig::threads` workers (`QUERYER_THREADS`, `0` = auto); each
//!    worker interns into chunk-local tables and the sequential merge
//!    re-interns the chunk vocabularies in chunk order,
//!    which reproduces the single-threaded first-seen symbol order
//!    exactly — the built index is bit-identical for every thread count
//!    (pinned by `tests/build_equivalence.rs`).
//! 2. **TBI** — `raw_blocks` is the [`Csr::transpose`] of the record→key
//!    CSR: two counting passes, no `(block, record)` pair vector.
//! 3. **Block Purging** — one table-level threshold over the raw block
//!    cardinalities ([`crate::purging`]).
//! 4. **ITBI** — the record→key CSR is re-sorted row-in-place by
//!    `(block size, block id)`; no second buffer.
//! 5. **Block Filtering** — each record's retained prefix is appended to
//!    the `entity_retained` CSR; `filtered_blocks` is its transpose.
//! 6. **WNP thresholds** — under Edge Pruning, every
//!    node's threshold (the mean edge weight of its neighbourhood in the
//!    whole blocking graph) is swept once
//!    ([`crate::edge_pruning::bulk_node_thresholds`]) on the same
//!    build-thread pool and kept as one `Vec<f64>`, a table-level fact
//!    like the purge threshold and the retained prefixes.

use crate::config::{BlockingKind, ErConfig};
use crate::edge_pruning::bulk_node_thresholds;
use crate::govern::{fan_out, ResolveError, ResolveStage};
use crate::purging::purge_flags;
use crate::tokenizer::{AttrColumns, RecordTokenizer};
use parking_lot::Mutex;
use queryer_common::{Csr, FxHashMap, FxHashSet, TokenInterner};
use queryer_storage::{Record, RecordId, Table};
use std::sync::atomic::{AtomicBool, Ordering};

/// Identifier of a block within a table's TBI.
pub type BlockId = u32;

/// Borrowed view of one record's interned comparison data, built once at
/// index-build time. Comparison-Execution runs entirely over this view:
/// token-set similarities sorted-merge the `tokens` symbol slices, and
/// mean Jaro-Winkler reads the pre-lowercased `attrs` — no tokenization,
/// no case folding, no allocation per comparison.
#[derive(Debug, Clone, Copy)]
pub struct InternedProfile<'a> {
    /// Pre-lowercased rendered attribute text, one slot per schema
    /// column; `None` for NULLs and for the skipped id column.
    pub attrs: &'a [Option<Box<str>>],
    /// The record's distinct profile tokens as interned symbols, sorted
    /// ascending.
    pub tokens: &'a [u32],
    /// The [`TokenSig`] of `tokens`: the fixed-width summary the token
    /// kernels bound the intersection with before any merge.
    pub sig: &'a TokenSig,
}

/// Buckets of a [`TokenSig`].
pub const SIG_BUCKETS: usize = 32;

/// A record's token signature: per bucket, how many of its distinct
/// interned symbols hash there, under a multiplicative hash of the
/// symbol. For two records, `Σ_i min(a[i], b[i])` is an upper bound on
/// their number of common tokens. A record with more than `u8::MAX`
/// tokens gets the all-`u8::MAX` signature, which bounds nothing.
pub type TokenSig = [u8; SIG_BUCKETS];

/// The signature of a record with more than `u8::MAX` tokens, whose
/// bucket counts could overflow: every bucket full, so it bounds nothing.
const SATURATED_SIG: TokenSig = [u8::MAX; SIG_BUCKETS];

/// The tokens and signature of a delta row that has none stored.
static NO_TOKENS: (Vec<u32>, TokenSig) = (Vec::new(), [0; SIG_BUCKETS]);

/// The signature bucket of a symbol: the top five bits of a
/// multiplicative (Fibonacci) hash, which spreads the dense interned
/// symbol range evenly over the buckets.
#[inline]
fn sig_bucket(sym: u32) -> usize {
    (sym.wrapping_mul(0x9E37_79B9) >> (32 - SIG_BUCKETS.trailing_zeros())) as usize
}

/// The token signature of a sorted, deduplicated symbol slice: bucket
/// counts of its symbols, or the all-`u8::MAX` signature when it holds
/// more than `u8::MAX` symbols (a count could not be stored).
pub(crate) fn token_sig(tokens: &[u32]) -> TokenSig {
    if tokens.len() > u8::MAX as usize {
        return SATURATED_SIG;
    }
    let mut sig = [0u8; SIG_BUCKETS];
    for &t in tokens {
        sig[sig_bucket(t)] += 1;
    }
    sig
}

/// `Σ_i min(a[i], b[i])`: an upper bound on the intersection size of the
/// two symbol sets the signatures summarise. A common symbol lands in
/// the same bucket on both sides, so each bucket's common symbols are at
/// most its smaller count. When both sides are saturated the sum says
/// nothing, and `usize::MAX` is returned; a single saturated side still
/// yields the other side's size, which bounds the intersection.
#[inline]
pub(crate) fn sig_common(a: &TokenSig, b: &TokenSig) -> usize {
    let sum: u16 = a
        .iter()
        .zip(b.iter())
        .map(|(&x, &y)| u16::from(x.min(y)))
        .sum();
    if sum == SIG_BUCKETS as u16 * u16::from(u8::MAX) {
        usize::MAX
    } else {
        usize::from(sum)
    }
}

/// One decision-memo entry: the kernel's decision on a pair and the
/// write epoch it was taken at.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemoEntry {
    pub(crate) epoch: u32,
    pub(crate) matched: bool,
}

// The stamp fits in the padding of a `(u64, bool)` slot: an entry stays
// 16 B with its key.
const _: () = assert!(std::mem::size_of::<(u64, MemoEntry)>() == 16);

/// Kernel-ready per-attribute metadata, precomputed at index-build time
/// alongside [`InternedProfile`] so the compiled comparison kernels
/// ([`crate::kernel`]) can evaluate their threshold-aware upper bounds
/// without touching the attribute text: the character length feeds the
/// Jaro length-difference and Levenshtein band bounds, and the prefix
/// bytes feed the Jaro-Winkler common-prefix bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrMeta {
    /// Character count of the lowered attribute (0 for NULL / skipped).
    pub chars: u32,
    /// First (up to) 4 bytes of the lowered text, zero-padded.
    pub prefix: [u8; 4],
    /// Number of meaningful bytes in `prefix`.
    pub prefix_len: u8,
    /// Whether the `prefix` bytes are pure ASCII — then byte equality
    /// over two prefixes equals character equality, and the Winkler
    /// common-prefix count derived from them is exact rather than the
    /// conservative maximum of 4.
    pub ascii_prefix: bool,
    /// Whether `hist` is meaningful: the whole attribute is ASCII and at
    /// most 128 bytes (so counts cannot saturate and byte matches equal
    /// character matches — the same precondition as the fast Jaro path).
    pub hist_valid: bool,
    /// Character-class counts (26 letters, 10 digits, 1 other): the
    /// summed per-class minimum of two histograms upper-bounds the Jaro
    /// match count and lower-bounds the Levenshtein distance via
    /// `d ≥ max_len − Σ min` — a multiset-intersection bound computed
    /// without touching the strings.
    pub hist: [u8; HIST_CLASSES],
}

/// Character classes tracked by [`AttrMeta::hist`].
pub const HIST_CLASSES: usize = 37;

#[inline]
fn hist_class(b: u8) -> usize {
    match b {
        b'a'..=b'z' => (b - b'a') as usize,
        b'0'..=b'9' => 26 + (b - b'0') as usize,
        _ => 36, // merging rarer bytes only loosens (never breaks) bounds
    }
}

impl Default for AttrMeta {
    fn default() -> Self {
        Self {
            chars: 0,
            prefix: [0; 4],
            prefix_len: 0,
            ascii_prefix: false,
            hist_valid: false,
            hist: [0; HIST_CLASSES],
        }
    }
}

impl AttrMeta {
    pub(crate) fn of(text: &str) -> Self {
        let bytes = text.as_bytes();
        let plen = bytes.len().min(4);
        let mut prefix = [0u8; 4];
        prefix[..plen].copy_from_slice(&bytes[..plen]);
        let hist_valid = text.is_ascii() && bytes.len() <= 128;
        let mut hist = [0u8; HIST_CLASSES];
        if hist_valid {
            for &b in bytes {
                hist[hist_class(b)] += 1;
            }
        }
        Self {
            chars: text.chars().count() as u32,
            prefix,
            prefix_len: plen as u8,
            ascii_prefix: bytes[..plen].is_ascii(),
            hist_valid,
            hist,
        }
    }

    /// Σ per-class min of two histograms: an upper bound on the number
    /// of equal-character pairings between the two attributes. Only
    /// meaningful when both sides are `hist_valid`.
    ///
    /// The sum runs in `u8` lanes, which vectorise, and is exact: a
    /// `hist_valid` attribute holds at most 128 bytes, so its counts sum
    /// to at most 128, and the per-class minima of two of them to at most
    /// 128 < 256. An attribute that is not `hist_valid` has an all-zero
    /// histogram and adds nothing.
    #[inline]
    pub fn hist_common(&self, other: &AttrMeta) -> usize {
        self.hist
            .iter()
            .zip(other.hist.iter())
            .fold(0u8, |acc, (&x, &y)| acc.wrapping_add(x.min(y))) as usize
    }
}

/// Reusable dense scratch for co-occurrence counting: a counts array
/// indexed by record id plus a first-touch list, so each frontier entity
/// is counted (by `count_cooccurrences`) without allocating a fresh
/// hash map.
#[derive(Debug, Default)]
pub struct CooccurrenceScratch {
    /// Dense per-record counters; only entries named in `out` are
    /// non-zero between calls' reset sweeps.
    counts: Vec<u32>,
    /// Co-occurring entities in first-touch order with their CBS counts.
    out: Vec<(RecordId, u32)>,
}

impl CooccurrenceScratch {
    /// Creates an empty scratch; the counts array grows lazily to the
    /// table size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts `id`'s neighbourhood over a graph of `n_records` records
    /// into this scratch (see [`count_cooccurrences`]). The returned
    /// slice is valid until the next call.
    #[inline]
    fn count<'g>(
        &mut self,
        id: RecordId,
        n_records: usize,
        retained: &[BlockId],
        members: impl Fn(BlockId) -> &'g [RecordId],
    ) -> &[(RecordId, u32)] {
        if self.counts.len() < n_records {
            self.counts.resize(n_records, 0);
        }
        count_cooccurrences(id, retained, members, &mut self.counts, &mut self.out);
        &self.out
    }
}

/// The one co-occurrence counting loop: fills `out` with the distinct
/// co-occurring entities of `id` — the other members of every block in
/// its `retained` row, read through `members` — in first-touch order
/// with their common-block (CBS) counts. `counts` is a dense per-record
/// counter array (at least as long as the largest record id + 1) that is
/// all zeroes on entry and again on return; only the touched counters
/// are reset.
///
/// Every neighbourhood the index serves — the build-time threshold
/// sweep and the query-time scans over the base graph or the merged
/// delta view ([`TableErIndex::cooccurrences_into`]), and the delta
/// apply's recount of dirty rows — runs this loop, so a threshold
/// swept at build and one patched by a delta accumulate their weights
/// in the same first-touch order (pinned by `tests/ingest_equivalence.rs`).
#[inline]
pub(crate) fn count_cooccurrences<'g>(
    id: RecordId,
    retained: &[BlockId],
    members: impl Fn(BlockId) -> &'g [RecordId],
    counts: &mut [u32],
    out: &mut Vec<(RecordId, u32)>,
) {
    out.clear();
    for &b in retained {
        for &other in members(b) {
            if other != id {
                let c = &mut counts[other as usize];
                if *c == 0 {
                    out.push((other, 0));
                }
                *c += 1;
            }
        }
    }
    // Harvest and reset only the touched counters.
    for (rid, cnt) in out.iter_mut() {
        let c = &mut counts[*rid as usize];
        *cnt = *c;
        *c = 0;
    }
}

/// Immutable per-table ER index. Build once, share freely (`Sync`).
///
/// The blocking graph is CSR-packed in both directions: block→records
/// (`raw_blocks`, `filtered_blocks`) and record→blocks (`entity_blocks`,
/// `entity_retained`) are flat offsets+data buffers, so a neighbourhood
/// scan is a contiguous slice sweep with no per-row heap indirection.
#[derive(Debug)]
pub struct TableErIndex {
    pub(crate) cfg: ErConfig,
    pub(crate) skip_col: Option<usize>,
    pub(crate) n_records: usize,
    /// Block key (token) per block.
    pub(crate) keys: Vec<String>,
    /// Token → block id (the TBI hash index).
    pub(crate) key_to_block: FxHashMap<String, BlockId>,
    /// Full block contents (pre meta-blocking), ids ascending.
    pub(crate) raw_blocks: Csr<RecordId>,
    /// Table-level Block Purging decision per block.
    pub(crate) purged: Vec<bool>,
    /// The BP cardinality threshold (`u64::MAX` = nothing purged).
    pub(crate) purge_threshold: u64,
    /// Block contents after BP + BF: the entities that *retain* the block.
    /// Empty for purged blocks. Ids ascending.
    pub(crate) filtered_blocks: Csr<RecordId>,
    /// ITBI: per record, its blocks sorted ascending by (size, id).
    pub(crate) entity_blocks: Csr<BlockId>,
    /// Per record, the retained (post BP+BF) prefix of `entity_blocks`.
    pub(crate) entity_retained: Csr<BlockId>,
    /// Interner over the table's profile tokens.
    pub(crate) interner: TokenInterner,
    /// Per record, its sorted interned profile-token slice.
    pub(crate) profile_tokens: Csr<u32>,
    /// Per record, the [`token_sig`] of its `profile_tokens` slice.
    pub(crate) profile_sigs: Vec<TokenSig>,
    /// Per record × column (stride = schema width), the pre-lowercased
    /// rendered attribute text; `None` for NULLs and the id column.
    pub(crate) lower_attrs: Vec<Option<Box<str>>>,
    /// Per record × column (same stride), kernel-ready attribute
    /// metadata (char lengths, Winkler prefix bytes) for the compiled
    /// comparison kernels' upper bounds.
    pub(crate) attr_meta: Vec<AttrMeta>,
    /// Schema width (the `lower_attrs` stride).
    pub(crate) n_cols: usize,
    /// The node-centric (WNP) Edge Pruning threshold of every record,
    /// swept at build for EP configs (empty otherwise) and
    /// patched in place by [`TableErIndex::apply_delta`]. Index data,
    /// not cache: nothing clears it.
    pub(crate) ep_thresholds: Vec<f64>,
    /// The cross-query comparison-decision memo, keyed by packed
    /// unordered pair ([`queryer_common::pack_pair`]). A decision is a
    /// pure function of the two profiles, so serving it across queries
    /// never changes a result; an entry taken before a write to either
    /// endpoint no longer serves ([`TableErIndex::memo_serves`]). It
    /// holds only pairs some query compared while an endpoint was stale,
    /// one entry per pair, so it never outgrows the kernel runs since
    /// the last build; compaction and every rebuild empty it.
    pub(crate) decisions: Mutex<FxHashMap<u64, MemoEntry>>,
    /// Set when a panic unwound through a delta apply
    /// ([`TableErIndex::apply_delta`]); every later resolve then returns
    /// [`ResolveError::Poisoned`]. Worker panics during resolve never
    /// set this — workers write no shared state, so the index stays
    /// sound (see `crate::govern`).
    pub(crate) poisoned: AtomicBool,
    /// The incremental-ingest delta side ([`crate::delta`]): overlays
    /// shadowing exactly the rows mutations touched, `None` until the
    /// first [`TableErIndex::apply_delta`] and again after
    /// [`TableErIndex::compact`]. Every accessor below merges it with
    /// the CSR base; the no-delta hot path costs one branch.
    pub(crate) delta: Option<Box<crate::delta::DeltaIndex>>,
}

impl TableErIndex {
    /// Builds the index for `table` under `cfg`. The id column (named
    /// "id", case-insensitive) is excluded from blocking when
    /// `cfg.skip_id_column` is set.
    ///
    /// Panics if a build worker thread panics; [`TableErIndex::try_build`]
    /// is the non-panicking variant.
    pub fn build(table: &Table, cfg: &ErConfig) -> Self {
        match Self::try_build(table, cfg) {
            Ok(idx) => idx,
            Err(e) => panic!("index build failed: {e}"),
        }
    }

    /// [`TableErIndex::build`], but a panicking build worker is caught
    /// at its join and surfaced as
    /// [`ResolveError::WorkerPanicked`]`{ stage: Build }` instead of
    /// unwinding through the caller. Nothing escapes a failed build —
    /// the partially-built buffers are dropped with the error.
    pub fn try_build(table: &Table, cfg: &ErConfig) -> Result<Self, ResolveError> {
        let skip_col = if cfg.skip_id_column {
            table
                .schema()
                .fields()
                .iter()
                .position(|f| f.name.eq_ignore_ascii_case("id"))
        } else {
            None
        };
        // Phase 1: one (parallel) tokenize + intern sweep over the
        // records — blocking keys, profile symbols, lowered attributes.
        let TokenizedTable {
            keys,
            key_to_block,
            entity_keys,
            interner,
            profile_tokens,
            profile_sigs,
            lower_attrs,
            attr_meta,
        } = tokenize_table(table, cfg, skip_col)?;

        let n_blocks = keys.len();

        // Phase 2, TBI: invert the record→key CSR into block→records by
        // a counting-pass transpose. Record ids ascend within each block
        // because the transpose scans source rows in order.
        let raw_blocks: Csr<RecordId> = entity_keys.transpose(n_blocks);

        // Phase 3, Block Purging: one table-level threshold
        // (query-stable).
        let (purge_thr, purged) = if cfg.meta.purging() {
            let cards: Vec<u64> = raw_blocks.rows().map(|b| cardinality(b.len())).collect();
            purge_flags(&cards, cfg.purging_smooth_factor)
        } else {
            (u64::MAX, vec![false; n_blocks])
        };

        // Phase 4, ITBI: the record→key CSR already holds each record's
        // distinct blocks; sorting every row in place ascending by
        // (size, id) turns it into the ITBI without another buffer.
        let mut entity_blocks: Csr<BlockId> = entity_keys;
        for rid in 0..table.len() {
            entity_blocks
                .row_mut(rid)
                .sort_unstable_by_key(|&b| (raw_blocks.row_len(b as usize), b));
        }

        // Phase 5, Block Filtering: per entity, retain the first ⌈p·m⌉
        // of its m unpurged blocks (smallest first) — also table-level.
        let mut entity_retained: Csr<BlockId> =
            Csr::with_capacity(table.len(), entity_blocks.total_len());
        let mut unpurged: Vec<BlockId> = Vec::new();
        for rid in 0..table.len() {
            unpurged.clear();
            unpurged.extend(
                entity_blocks
                    .row(rid)
                    .iter()
                    .copied()
                    .filter(|&b| !purged[b as usize]),
            );
            let keep = if cfg.meta.filtering() {
                ((cfg.filtering_ratio * unpurged.len() as f64).ceil() as usize).min(unpurged.len())
            } else {
                unpurged.len()
            };
            entity_retained.push_row(&unpurged[..keep])?;
        }

        // Invert retention by the same counting-pass transpose: per
        // block, the entities that retain it, record ids ascending.
        let filtered_blocks: Csr<RecordId> = entity_retained.transpose(n_blocks);

        let n_cols = table.schema().len();

        let mut idx = Self {
            cfg: cfg.clone(),
            skip_col,
            n_records: table.len(),
            keys,
            key_to_block,
            raw_blocks,
            purged,
            purge_threshold: purge_thr,
            filtered_blocks,
            entity_blocks,
            entity_retained,
            interner,
            profile_tokens,
            profile_sigs,
            lower_attrs,
            attr_meta,
            n_cols,
            ep_thresholds: Vec::new(),
            decisions: Mutex::default(),
            poisoned: AtomicBool::new(false),
            delta: None,
        };
        // Phase 6, WNP thresholds: one sweep over the finished blocking
        // graph gives every node its node-centric EP threshold, so no
        // query ever computes one.
        if cfg.meta.edge_pruning() {
            idx.ep_thresholds = bulk_node_thresholds(&idx, cfg.effective_threads())?;
        }
        Ok(idx)
    }

    /// Whether a panic unwound through a delta apply; a poisoned index
    /// refuses further resolves with [`ResolveError::Poisoned`].
    /// Rebuild or [`compact`](TableErIndex::compact) it to recover.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// The configuration this index was built with.
    pub fn config(&self) -> &ErConfig {
        &self.cfg
    }

    /// Index of the skipped id column, if any.
    pub fn skip_col(&self) -> Option<usize> {
        self.skip_col
    }

    /// Number of records in the indexed table (including records
    /// inserted through the delta side).
    pub fn n_records(&self) -> usize {
        match &self.delta {
            Some(d) => d.n_records,
            None => self.n_records,
        }
    }

    /// Number of blocks — the paper's |TBI| (Table 7).
    pub fn n_blocks(&self) -> usize {
        match &self.delta {
            Some(d) => d.n_blocks,
            None => self.raw_blocks.n_rows(),
        }
    }

    /// Number of blocks that survive Block Purging.
    pub fn n_unpurged_blocks(&self) -> usize {
        match &self.delta {
            Some(d) => d.n_unpurged,
            None => self.purged.iter().filter(|&&p| !p).count(),
        }
    }

    /// The table-level BP threshold.
    pub fn purge_threshold(&self) -> u64 {
        match &self.delta {
            Some(d) => d.purge_threshold,
            None => self.purge_threshold,
        }
    }

    /// Block id for a token, if the token occurs in the table.
    pub fn block_of_key(&self, token: &str) -> Option<BlockId> {
        if let Some(&b) = self.key_to_block.get(token) {
            return Some(b);
        }
        self.delta
            .as_ref()
            .and_then(|d| d.new_key_to_block.get(token).copied())
    }

    /// The token of a block.
    pub fn block_key(&self, b: BlockId) -> &str {
        match &self.delta {
            Some(d) => d.key_of(self, b),
            None => &self.keys[b as usize],
        }
    }

    /// Full (pre meta-blocking) contents of a block.
    #[inline]
    pub fn raw_block(&self, b: BlockId) -> &[RecordId] {
        match &self.delta {
            Some(d) => d.raw_row(self, b),
            None => self.raw_blocks.row(b as usize),
        }
    }

    /// Post BP+BF contents of a block (empty when purged).
    #[inline]
    pub fn filtered_block(&self, b: BlockId) -> &[RecordId] {
        match &self.delta {
            Some(d) => d.filtered_row(self, b),
            None => self.filtered_blocks.row(b as usize),
        }
    }

    /// Whether BP removed this block.
    pub fn is_purged(&self, b: BlockId) -> bool {
        match &self.delta {
            Some(d) => d.purged[b as usize],
            None => self.purged[b as usize],
        }
    }

    /// ITBI lookup: all blocks of a record, ascending by size.
    #[inline]
    pub fn blocks_of(&self, id: RecordId) -> &[BlockId] {
        match &self.delta {
            Some(d) => d.blocks_row(self, id),
            None => self.entity_blocks.row(id as usize),
        }
    }

    /// Blocks the record retains after BP+BF (prefix of `blocks_of`).
    #[inline]
    pub fn retained_blocks(&self, id: RecordId) -> &[BlockId] {
        match &self.delta {
            Some(d) => d.retained_row(self, id),
            None => self.entity_retained.row(id as usize),
        }
    }

    /// Whether `id` retains block `b` (binary search on the filtered
    /// contents, which are sorted by record id).
    pub fn retains(&self, id: RecordId, b: BlockId) -> bool {
        self.filtered_block(b).binary_search(&id).is_ok()
    }

    /// Total comparisons ‖B‖ = Σ‖b‖ over raw blocks.
    pub fn total_comparisons(&self) -> u64 {
        match &self.delta {
            Some(d) => (0..d.n_blocks)
                .map(|b| cardinality(d.raw_row(self, b as BlockId).len()))
                .sum(),
            None => self.raw_blocks.rows().map(|b| cardinality(b.len())).sum(),
        }
    }

    /// The record's interned comparison profile (pre-lowercased
    /// attributes + sorted token symbols + their signature) — the
    /// Comparison-Execution hot-path view. Symbols minted for delta-only
    /// tokens sit above [`TableErIndex::interner`]'s range; the kernels
    /// compare symbols only for equality, which stays exact across base
    /// and delta records (a token textually present in the base always
    /// reuses its base symbol).
    #[inline]
    pub fn profile(&self, id: RecordId) -> InternedProfile<'_> {
        if let Some(d) = &self.delta {
            if let Some(attrs) = d.row_attrs.get(&id) {
                let (tokens, sig) = d.row_tokens.get(&id).unwrap_or(&NO_TOKENS);
                return InternedProfile { attrs, tokens, sig };
            }
        }
        let base = id as usize * self.n_cols;
        InternedProfile {
            attrs: &self.lower_attrs[base..base + self.n_cols],
            tokens: self.profile_tokens.row(id as usize),
            sig: &self.profile_sigs[id as usize],
        }
    }

    /// Sorted interned profile-token symbols of a record.
    #[inline]
    pub fn profile_tokens(&self, id: RecordId) -> &[u32] {
        if let Some(d) = &self.delta {
            if let Some((tokens, _)) = d.row_tokens.get(&id) {
                return tokens;
            }
        }
        self.profile_tokens.row(id as usize)
    }

    /// Kernel-ready per-attribute metadata of a record, one entry per
    /// schema column aligned with [`TableErIndex::profile`]'s `attrs`.
    #[inline]
    pub fn attr_meta(&self, id: RecordId) -> &[AttrMeta] {
        if let Some(d) = &self.delta {
            if let Some(meta) = d.row_meta.get(&id) {
                return meta;
            }
        }
        let base = id as usize * self.n_cols;
        &self.attr_meta[base..base + self.n_cols]
    }

    /// The profile-token interner of the base build (diagnostics and
    /// the build-equivalence suite). With a live delta, tokens first
    /// seen through mutations carry symbols at or above
    /// `interner().len()`, which this interner does not resolve.
    pub fn interner(&self) -> &TokenInterner {
        &self.interner
    }

    /// Scratch-based co-occurrence counting: fills `scratch` with the
    /// distinct co-occurring entities of `id` (first-touch order) and
    /// their CBS counts, reusing the dense counters across calls, over
    /// the (merged) blocking graph. The returned slice is valid until the
    /// next call with this scratch.
    pub fn cooccurrences_into<'s>(
        &self,
        id: RecordId,
        scratch: &'s mut CooccurrenceScratch,
    ) -> &'s [(RecordId, u32)] {
        match &self.delta {
            Some(d) => scratch.count(id, d.n_records, d.retained_row(self, id), |b| {
                d.filtered_row(self, b)
            }),
            None => scratch.count(
                id,
                self.n_records,
                self.entity_retained.row(id as usize),
                |b| self.filtered_blocks.row(b as usize),
            ),
        }
    }

    /// The node-centric EP threshold of every record — the vector the
    /// build swept ([`crate::edge_pruning::bulk_node_thresholds`]) and
    /// every delta since has patched. Empty unless the config runs Edge
    /// Pruning.
    pub fn bulk_ep_thresholds(&self) -> &[f64] {
        &self.ep_thresholds
    }

    /// The write epoch a decision memoised now is stamped with.
    pub(crate) fn write_epoch(&self) -> u32 {
        self.delta.as_ref().map_or(0, |d| d.write_epoch)
    }

    /// Whether a memo entry still serves the pair `(q, c)`: neither
    /// endpoint was updated or deleted after the entry was taken.
    #[inline]
    pub(crate) fn memo_serves(&self, entry: MemoEntry, q: RecordId, c: RecordId) -> bool {
        let Some(d) = &self.delta else {
            return true;
        };
        let epoch = |id: RecordId| d.epochs.get(id as usize).copied().unwrap_or(0);
        entry.epoch >= epoch(q).max(epoch(c))
    }

    /// Size of the cross-query decision memo as `(0, 0, pair
    /// decisions)`. The first two slots always read 0; they stay while
    /// the benchmark destructures three sizes. Diagnostics for benches
    /// and ablations.
    pub fn resolve_cache_sizes(&self) -> (usize, usize, usize) {
        (0, 0, self.decisions.lock().len())
    }

    /// Drops the cross-query decision memo (test/ablation helper; the
    /// benchmark calls it by this name to measure cold queries). The
    /// WNP thresholds are index data, not cache, and are never dropped.
    /// Every memo entry is the kernel's exact decision for its pair, so
    /// any subset of the memo is a valid memo: a clear cut short leaves
    /// nothing wrong, and needs no poison latch.
    pub fn clear_ep_cache(&self) {
        self.decisions.lock().clear();
    }
}

/// Everything phase 1 of [`TableErIndex::build`] produces in one sweep
/// over the records: the blocking-key vocabulary, the record→key CSR
/// (the pre-sort ITBI), the profile-token interner + arena with the
/// per-record token signatures, and the lowered attributes with kernel
/// metadata.
struct TokenizedTable {
    /// Block key (token) per block id, in table-first-seen order.
    keys: Vec<String>,
    /// Token → block id (the TBI hash index).
    key_to_block: FxHashMap<String, BlockId>,
    /// Per record, its distinct blocking keys as global block ids, in
    /// the record's key-iteration order (unsorted).
    entity_keys: Csr<BlockId>,
    /// Interner over the table's profile tokens.
    interner: TokenInterner,
    /// Per record, its sorted interned profile-token slice.
    profile_tokens: Csr<u32>,
    /// Per record, the signature of its profile-token slice.
    profile_sigs: Vec<TokenSig>,
    /// Per record × column, the pre-lowercased rendered attribute text.
    lower_attrs: Vec<Option<Box<str>>>,
    /// Per record × column, kernel-ready attribute metadata.
    attr_meta: Vec<AttrMeta>,
}

/// Per-record rows of ids over a chunk-local vocabulary, which assigns
/// ids in chunk-first-seen order.
#[derive(Default)]
struct LocalRows {
    vocab: TokenInterner,
    /// Per record in the chunk, how many ids it emitted.
    lens: Vec<u32>,
    /// Flat per-record chunk-local ids.
    syms: Vec<u32>,
}

impl LocalRows {
    /// Appends one record's row, interning in the set's iteration order.
    fn push_row(&mut self, items: &FxHashSet<&str>) {
        self.lens.push(items.len() as u32);
        for item in items {
            let id = self.vocab.intern(item);
            self.syms.push(id);
        }
    }

    /// The rows, each as a slice of chunk-local ids.
    fn rows(&self) -> impl Iterator<Item = &[u32]> {
        self.lens.iter().scan(0usize, |at, &len| {
            let row = &self.syms[*at..*at + len as usize];
            *at += len as usize;
            Some(row)
        })
    }
}

/// One worker's chunk of the tokenize/intern sweep: blocking keys and
/// profile tokens as *chunk-local* ids over chunk-local vocabularies,
/// plus the chunk's attribute columns. The merge re-interns the
/// vocabularies into the global tables in chunk order, which reproduces
/// the sequential first-seen id assignment exactly — see
/// [`tokenize_table`].
struct TokenizeChunk {
    keys: LocalRows,
    /// The profile tokens under n-gram blocking; `None` under Token
    /// Blocking, where they are `keys`.
    tokens: Option<LocalRows>,
    /// Lowered attributes, record-major (chunk × n_cols).
    attrs: AttrColumns,
}

/// Tokenizes one record chunk into chunk-local vocabularies. The
/// per-record key/token sets iterate in an order that is a pure function
/// of the record (FxHash has no per-process randomness), so a record
/// contributes the same id sequence whichever chunk it lands in — the
/// property the bit-identical merge relies on.
fn tokenize_chunk(records: &[Record], cfg: &ErConfig, skip_col: Option<usize>) -> TokenizeChunk {
    let mut tokenizer = RecordTokenizer::new(cfg, skip_col);
    let mut out = TokenizeChunk {
        keys: LocalRows::default(),
        tokens: matches!(cfg.blocking, BlockingKind::NGram(_)).then(LocalRows::default),
        attrs: AttrColumns::default(),
    };
    for record in records {
        let rec = tokenizer.tokenize(record, Some(&mut out.attrs));
        out.keys.push_row(rec.keys());
        if let Some(tokens) = &mut out.tokens {
            tokens.push_row(rec.tokens());
        }
    }
    out
}

/// Phase 1 of [`TableErIndex::build`]: tokenize + intern the whole table
/// in one sweep, chunked across `ErConfig::effective_threads` workers.
///
/// Bit-identity across thread counts: a blocking key / profile token
/// receives its global id at its first occurrence in record-scan order.
/// Workers record chunk-local first-seen vocabularies; the merge walks
/// the chunks in record order and re-interns each chunk's vocabulary in
/// its local id order (= the chunk's first-seen scan order). The first
/// chunk containing a string therefore assigns its global id, at a
/// position determined by scan order within that chunk — exactly the
/// sequential assignment. Per-record rows are then remapped
/// local→global, so every CSR buffer, symbol, and attribute lands
/// byte-identical to a single-threaded build (`tests/build_equivalence.rs`).
fn tokenize_table(
    table: &Table,
    cfg: &ErConfig,
    skip_col: Option<usize>,
) -> Result<TokenizedTable, ResolveError> {
    let records = table.records();
    // Each worker owns private chunk-local buffers, so a panicking
    // worker leaves nothing shared half-written; the whole build is
    // abandoned with a typed error.
    let chunks: Vec<TokenizeChunk> = fan_out(
        records.len(),
        cfg.effective_threads(),
        "build.tokenize.worker",
        ResolveStage::Build,
        |range| tokenize_chunk(&records[range], cfg, skip_col),
    )?;

    let n_cols = table.schema().len();
    let total_keys: usize = chunks.iter().map(|c| c.keys.syms.len()).sum();
    let total_tokens: usize = chunks
        .iter()
        .map(|c| c.tokens.as_ref().unwrap_or(&c.keys).syms.len())
        .sum();
    let mut keys: Vec<String> = Vec::new();
    let mut key_to_block: FxHashMap<String, BlockId> = FxHashMap::default();
    let mut interner = TokenInterner::new();
    let mut entity_keys: Csr<BlockId> = Csr::with_capacity(records.len(), total_keys);
    let mut profile_tokens = Csr::with_capacity(records.len(), total_tokens);
    let mut profile_sigs: Vec<TokenSig> = Vec::with_capacity(records.len());
    let mut lower_attrs: Vec<Option<Box<str>>> = Vec::with_capacity(records.len() * n_cols);
    let mut attr_meta: Vec<AttrMeta> = Vec::with_capacity(records.len() * n_cols);
    let mut row: Vec<u32> = Vec::new();
    let mut key_remap: Vec<u32> = Vec::new();
    let mut token_remap: Vec<u32> = Vec::new();

    for chunk in chunks {
        key_remap.clear();
        for sym in 0..chunk.keys.vocab.len() as u32 {
            let key = chunk.keys.vocab.resolve(sym);
            let bid = match key_to_block.get(key) {
                Some(&bid) => bid,
                None => {
                    let bid = keys.len() as BlockId;
                    keys.push(key.to_owned());
                    key_to_block.insert(key.to_owned(), bid);
                    bid
                }
            };
            key_remap.push(bid);
        }
        for ids in chunk.keys.rows() {
            row.clear();
            row.extend(ids.iter().map(|&s| key_remap[s as usize]));
            entity_keys.push_row(&row)?;
        }
        let tokens = chunk.tokens.as_ref().unwrap_or(&chunk.keys);
        token_remap.clear();
        for sym in 0..tokens.vocab.len() as u32 {
            token_remap.push(interner.intern(tokens.vocab.resolve(sym)));
        }
        for ids in tokens.rows() {
            row.clear();
            row.extend(ids.iter().map(|&s| token_remap[s as usize]));
            row.sort_unstable();
            profile_tokens.push_row(&row)?;
            profile_sigs.push(token_sig(&row));
        }
        lower_attrs.extend(chunk.attrs.lower);
        attr_meta.extend(chunk.attrs.meta);
    }

    Ok(TokenizedTable {
        keys,
        key_to_block,
        entity_keys,
        interner,
        profile_tokens,
        profile_sigs,
        lower_attrs,
        attr_meta,
    })
}

/// `n(n-1)/2`. Zero for the empty block (deltas can drain a block that
/// a from-scratch build would simply not have).
#[inline]
pub fn cardinality(n: usize) -> u64 {
    let n = n as u64;
    n * n.saturating_sub(1) / 2
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // config tweaks read clearer as assignments
mod tests {
    use super::*;
    use crate::config::MetaBlockingConfig;
    use queryer_storage::Schema;

    fn table() -> Table {
        let mut t = Table::new("p", Schema::of_strings(&["id", "title"]));
        t.push_row(vec!["0".into(), "collective entity resolution".into()])
            .unwrap();
        t.push_row(vec!["1".into(), "collective e.r".into()])
            .unwrap();
        t.push_row(vec!["2".into(), "entity resolution on big data".into()])
            .unwrap();
        t.push_row(vec!["3".into(), "big data".into()]).unwrap();
        t
    }

    #[test]
    fn itbi_sorted_by_block_size() {
        let idx = TableErIndex::build(&table(), &ErConfig::default());
        for rid in 0..idx.n_records() as u32 {
            let sizes: Vec<usize> = idx
                .blocks_of(rid)
                .iter()
                .map(|&b| idx.raw_block(b).len())
                .collect();
            assert!(
                sizes.windows(2).all(|w| w[0] <= w[1]),
                "ITBI must be size-sorted"
            );
        }
    }

    #[test]
    fn id_column_not_blocked() {
        let idx = TableErIndex::build(&table(), &ErConfig::default());
        assert!(idx.block_of_key("0").is_none());
        assert!(idx.block_of_key("collective").is_some());
    }

    #[test]
    fn filtering_retains_prefix() {
        let mut cfg = ErConfig::default();
        cfg.filtering_ratio = 0.5;
        let idx = TableErIndex::build(&table(), &cfg);
        for rid in 0..idx.n_records() as u32 {
            let all = idx.blocks_of(rid).len();
            let kept = idx.retained_blocks(rid).len();
            assert!(kept <= all);
            assert!(kept >= 1 || all == 0);
        }
    }

    #[test]
    fn no_meta_blocking_keeps_everything() {
        let cfg = ErConfig::default().with_meta(MetaBlockingConfig::None);
        let idx = TableErIndex::build(&table(), &cfg);
        assert_eq!(idx.purge_threshold(), u64::MAX);
        for b in 0..idx.n_blocks() as u32 {
            assert_eq!(idx.raw_block(b), idx.filtered_block(b));
        }
    }

    #[test]
    fn retains_matches_filtered_contents() {
        let idx = TableErIndex::build(&table(), &ErConfig::default());
        for rid in 0..idx.n_records() as u32 {
            for &b in idx.retained_blocks(rid) {
                assert!(idx.retains(rid, b));
            }
        }
    }

    /// Map-based reference co-occurrence counting (what the removed
    /// allocating `cooccurrences` used to compute).
    fn cooccurrence_map(idx: &TableErIndex, id: RecordId) -> FxHashMap<RecordId, u32> {
        let mut counts: FxHashMap<RecordId, u32> = FxHashMap::default();
        for &b in idx.retained_blocks(id) {
            for &other in idx.filtered_block(b) {
                if other != id {
                    *counts.entry(other).or_insert(0) += 1;
                }
            }
        }
        counts
    }

    #[test]
    fn cooccurrence_counts() {
        let cfg = ErConfig::default().with_meta(MetaBlockingConfig::None);
        let idx = TableErIndex::build(&table(), &cfg);
        let mut scratch = CooccurrenceScratch::new();
        let co: FxHashMap<RecordId, u32> = idx
            .cooccurrences_into(0, &mut scratch)
            .iter()
            .copied()
            .collect();
        // record 0 shares "collective" with 1, "entity"+"resolution" with 2.
        assert_eq!(co.get(&1), Some(&1));
        assert_eq!(co.get(&2), Some(&2));
        assert_eq!(co.get(&3), None);
        assert_eq!(co.get(&0), None, "a record never co-occurs with itself");
    }

    #[test]
    fn scratch_cooccurrences_match_map_and_reset() {
        let cfg = ErConfig::default().with_meta(MetaBlockingConfig::None);
        let idx = TableErIndex::build(&table(), &cfg);
        let mut scratch = CooccurrenceScratch::new();
        // Reuse the same scratch across every record: stale counters from
        // a previous call must never leak into the next one.
        for rid in 0..idx.n_records() as u32 {
            let via_map = cooccurrence_map(&idx, rid);
            let via_scratch: FxHashMap<RecordId, u32> = idx
                .cooccurrences_into(rid, &mut scratch)
                .iter()
                .copied()
                .collect();
            assert_eq!(via_map, via_scratch, "record {rid}");
        }
    }

    #[test]
    fn thresholds_swept_only_for_node_centric_ep() {
        let with_ep = TableErIndex::build(&table(), &ErConfig::default());
        assert_eq!(with_ep.bulk_ep_thresholds().len(), with_ep.n_records());
        // No Edge Pruning → no per-node thresholds.
        let no_ep = ErConfig::default().with_meta(MetaBlockingConfig::BpBf);
        assert!(TableErIndex::build(&table(), &no_ep)
            .bulk_ep_thresholds()
            .is_empty());
    }

    #[test]
    fn stored_thresholds_are_neighbourhood_means() {
        // The build's sweep must leave, for any thread count, each
        // node's mean CBS weight over its counted neighbourhood.
        for threads in [1usize, 3] {
            let mut cfg = ErConfig::default();
            cfg.threads = threads;
            let idx = TableErIndex::build(&table(), &cfg);
            let mut scratch = CooccurrenceScratch::new();
            for rid in 0..idx.n_records() as u32 {
                let nbh = idx.cooccurrences_into(rid, &mut scratch);
                let mean = if nbh.is_empty() {
                    0.0
                } else {
                    nbh.iter().map(|&(_, c)| f64::from(c)).sum::<f64>() / nbh.len() as f64
                };
                assert_eq!(
                    idx.bulk_ep_thresholds()[rid as usize],
                    mean,
                    "record {rid} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn clear_ep_cache_drops_memos_and_keeps_thresholds() {
        let idx = TableErIndex::build(&table(), &ErConfig::default());
        let thresholds = idx.bulk_ep_thresholds().to_vec();
        let entry = |matched| MemoEntry { epoch: 0, matched };
        idx.decisions
            .lock()
            .extend([(7, entry(true)), (9, entry(false))]);
        assert_eq!(idx.resolve_cache_sizes(), (0, 0, 2));
        idx.clear_ep_cache();
        assert_eq!(idx.resolve_cache_sizes(), (0, 0, 0));
        assert_eq!(idx.bulk_ep_thresholds(), thresholds.as_slice());
    }

    #[test]
    fn profiles_are_interned_sorted_and_lowered() {
        let idx = TableErIndex::build(&table(), &ErConfig::default());
        for rid in 0..idx.n_records() as u32 {
            let p = idx.profile(rid);
            assert!(
                p.tokens.windows(2).all(|w| w[0] < w[1]),
                "token symbols sorted + deduped"
            );
            // The id column is skipped; the title column is lowered text.
            assert_eq!(p.attrs[0], None);
            let title = p.attrs[1].as_deref().unwrap();
            assert_eq!(title, title.to_lowercase());
        }
        // Symbols resolve back to profile tokens.
        let p0 = idx.profile(0);
        let texts: Vec<&str> = p0
            .tokens
            .iter()
            .map(|&s| idx.interner().resolve(s))
            .collect();
        assert!(texts.contains(&"collective"));
        assert!(texts.contains(&"resolution"));
    }

    /// `n` distinct symbols that all land in signature bucket 0, so that
    /// more than `u8::MAX` of them would overflow a bucket count.
    fn one_bucket_symbols(n: usize) -> Vec<u32> {
        (0u32..).filter(|&s| sig_bucket(s) == 0).take(n).collect()
    }

    proptest::proptest! {
        /// `sig_common` never undercounts an intersection: two windows
        /// `[0, n_a)` and `[shift, shift + n_b)` over a pool of distinct
        /// symbols, 0–300 each (so past the `u8::MAX` guard), drawn either
        /// from a dense symbol range or from symbols that all share one
        /// bucket.
        #[test]
        fn sig_common_bounds_the_intersection(
            n_a in 0usize..301,
            n_b in 0usize..301,
            shift in 0usize..301,
            dense_from in 0u32..1_000_000,
            one_bucket in proptest::prelude::any::<bool>(),
        ) {
            let pool: Vec<u32> = if one_bucket {
                one_bucket_symbols(601)
            } else {
                (dense_from..dense_from + 601).collect()
            };
            let (a, b) = (&pool[..n_a], &pool[shift..shift + n_b]);
            let inter = n_a.min(shift + n_b).saturating_sub(shift);
            let bound = sig_common(&token_sig(a), &token_sig(b));
            proptest::prop_assert!(bound >= inter, "bound {} < |A∩B| {}", bound, inter);
        }

        /// The `u8`-lane fold of `hist_common` equals the per-class sum
        /// widened to `usize` for every pair of `hist_valid` attributes.
        #[test]
        fn hist_common_u8_fold_is_exact(
            a in proptest::collection::vec(0usize..4, 0..301),
            b in proptest::collection::vec(0usize..4, 0..301),
        ) {
            let text = |v: &[usize]| -> String { v.iter().map(|&c| ['a', 'b', '7', ' '][c]).collect() };
            let (ma, mb) = (AttrMeta::of(&text(&a)), AttrMeta::of(&text(&b)));
            if ma.hist_valid && mb.hist_valid {
                let wide: usize = ma
                    .hist
                    .iter()
                    .zip(mb.hist.iter())
                    .map(|(&x, &y)| usize::from(x.min(y)))
                    .sum();
                proptest::prop_assert_eq!(ma.hist_common(&mb), wide);
            }
        }
    }

    #[test]
    fn saturated_signatures_bound_nothing() {
        let many = one_bucket_symbols(300);
        assert_eq!(token_sig(&many), SATURATED_SIG);
        assert_eq!(sig_common(&SATURATED_SIG, &SATURATED_SIG), usize::MAX);
        // One saturated side still bounds by the other side's size.
        assert_eq!(sig_common(&SATURATED_SIG, &token_sig(&many[..7])), 7);
        assert_eq!(sig_common(&token_sig(&[]), &token_sig(&many[..7])), 0);
    }

    #[test]
    fn every_record_carries_the_signature_of_its_tokens() {
        let idx = TableErIndex::build(&table(), &ErConfig::default());
        for rid in 0..idx.n_records() as RecordId {
            let p = idx.profile(rid);
            assert_eq!(*p.sig, token_sig(p.tokens), "record {rid}");
        }
    }

    /// The three-record table the Token Blocking tests run on.
    fn blocking_table() -> Table {
        let mut t = Table::new("p", Schema::of_strings(&["title"]));
        t.push_row(vec!["collective entity resolution".into()])
            .unwrap();
        t.push_row(vec!["collective e.r".into()]).unwrap();
        t.push_row(vec!["big data".into()]).unwrap();
        t
    }

    #[test]
    fn blocks_group_by_token() {
        let idx = TableErIndex::build(&blocking_table(), &ErConfig::default());
        let collective = idx.block_of_key("collective").unwrap();
        assert_eq!(idx.raw_block(collective), &[0, 1]);
        let entity = idx.block_of_key("entity").unwrap();
        assert_eq!(idx.raw_block(entity), &[0]);
        assert!(idx.block_of_key("e.r").is_some());
        assert_eq!(idx.n_blocks(), 6); // collective, entity, resolution, e.r, big, data
    }

    #[test]
    fn block_contents_sorted_unique() {
        let idx = TableErIndex::build(&blocking_table(), &ErConfig::default());
        for b in 0..idx.n_blocks() as BlockId {
            let row = idx.raw_block(b);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "block {b}: {row:?}");
        }
    }

    #[test]
    fn itbi_row_is_the_query_blocks_of_the_record() {
        // A record's ITBI row is its Query Blocking output already joined
        // against the TBI: exactly the blocks of its own tokens.
        let idx = TableErIndex::build(&blocking_table(), &ErConfig::default());
        let mut keys: Vec<&str> = idx.blocks_of(1).iter().map(|&b| idx.block_key(b)).collect();
        keys.sort_unstable();
        assert_eq!(keys, ["collective", "e.r"]);
    }
}
