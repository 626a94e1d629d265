//! Persisting a [`TableErIndex`] + [`LinkIndex`] to disk and reopening
//! them without a rebuild.
//!
//! This module maps the ER index onto the generic crash-safe sectioned
//! container of [`queryer_storage::snapshot`] (ROADMAP item 1: cold
//! start O(open) instead of O(build)). The index is already flat —
//! CSR offsets/data buffers, interned string arenas, dense per-record
//! vectors — so every section is a straight little-endian dump with no
//! pointer fix-ups:
//!
//! | section               | contents                                       |
//! |-----------------------|------------------------------------------------|
//! | `index.meta`          | record/column counts, skip column, BP threshold |
//! | `index.keys`          | block key strings, block-id order               |
//! | `index.raw_blocks`    | TBI CSR (block → records, pre meta-blocking)    |
//! | `index.purged`        | Block Purging flags                             |
//! | `index.filtered_blocks` | post-BP/BF CSR                                |
//! | `index.entity_blocks` | ITBI CSR (record → blocks)                      |
//! | `index.entity_retained` | retained-prefix CSR                           |
//! | `index.interner`      | profile-token strings, symbol order             |
//! | `index.profile_tokens`| per-record sorted symbol CSR                    |
//! | `index.lower_attrs`   | pre-lowercased attribute text                   |
//! | `index.attr_meta`     | kernel metadata (48 bytes/attribute)            |
//! | `index.cbs_adj`       | CBS partials CSR (when the config builds them)  |
//! | `ep.thresholds`       | bulk EP threshold vector (+ a reserved 0 count) |
//! | `cache.thresholds`    | cross-query threshold memo, sorted by key       |
//! | `cache.survivors`     | cross-query survivor lists, sorted by key       |
//! | `cache.decisions`     | pair-decision memo, sorted by key               |
//! | `links`               | Link Index: resolved flags + adjacency          |
//!
//! # Invalidation
//!
//! The container's table hash is [`content_fingerprint`]: FNV-1a 64
//! over the schema, every record value (type-tagged and framed), the
//! *decision-relevant* configuration fields (blocking scheme, token
//! length, meta-blocking mode, weight scheme, EP scope, similarity,
//! threshold, transitivity — not thread counts or cache capacities,
//! which never change decisions), and whether CBS partials are built.
//! Editing a row or retuning a decision knob therefore reopens as
//! [`SnapshotError::StaleTableHash`] and the caller rebuilds; retuning
//! the thread knob keeps the snapshot valid.
//!
//! # Validation
//!
//! The container layer already rejects truncation, bit flips, torn
//! writes, version skew, and stale content before any section is
//! readable. This layer adds semantic validation on top: CSR offset
//! monotonicity ([`queryer_common::Csr::from_raw_parts`]), cross-section
//! count agreement, and id-range checks on every stored record/block/
//! symbol id — so even a checksum-colliding file can never produce an
//! index that panics or aliases at query time. Any such failure is
//! [`SnapshotError::Corrupt`] naming the section.

use crate::config::ErConfig;
use crate::index::{AttrMeta, ResolveCache, TableErIndex, HIST_CLASSES};
use crate::link_index::LinkIndex;
use parking_lot::Mutex;
use queryer_common::checksum::Fnv64;
use queryer_common::{Csr, FxHashMap, TokenArena, TokenInterner};
use queryer_storage::snapshot::wire::{PayloadReader, PayloadWriter};
use queryer_storage::snapshot::{SnapshotReader, SnapshotWriter};
use queryer_storage::{RecordId, Table, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

pub use queryer_storage::snapshot::SnapshotError;

/// Sentinel for "no skipped id column" in `index.meta`.
const NO_SKIP_COL: u64 = u64::MAX;

fn corrupt(section: &str) -> SnapshotError {
    SnapshotError::Corrupt {
        section: section.to_string(),
    }
}

/// Fingerprint of everything a snapshot's validity depends on: schema,
/// record values, and the decision-relevant configuration. See the
/// module docs for what is (and deliberately is not) included.
pub fn content_fingerprint(table: &Table, cfg: &ErConfig) -> u64 {
    let mut h = Fnv64::new();
    h.update_framed(b"queryer-index-snapshot-v1");

    // Schema: field names + type tags.
    h.update_u64(table.schema().len() as u64);
    for f in table.schema().fields() {
        h.update_framed(f.name.as_bytes());
        h.update_u64(match f.dtype {
            queryer_storage::DataType::Int => 0,
            queryer_storage::DataType::Float => 1,
            queryer_storage::DataType::Str => 2,
        });
    }

    // Records: every value, type-tagged so e.g. Str("1") ≠ Int(1).
    h.update_u64(table.len() as u64);
    for r in table.records() {
        for v in &r.values {
            match v {
                Value::Null => h.update_u64(0),
                Value::Int(i) => {
                    h.update_u64(1);
                    h.update_u64(*i as u64);
                }
                Value::Float(f) => {
                    h.update_u64(2);
                    h.update_u64(f.to_bits());
                }
                Value::Str(s) => {
                    h.update_u64(3);
                    h.update_framed(s.as_bytes());
                }
            }
        }
    }

    // Decision-relevant configuration. Thread counts and cache
    // capacities are excluded on purpose: they never change
    // decisions (property-pinned by the equivalence suites), so a
    // snapshot survives retuning them.
    match cfg.blocking {
        crate::config::BlockingKind::Token => h.update_u64(0),
        crate::config::BlockingKind::NGram(n) => {
            h.update_u64(1);
            h.update_u64(n as u64);
        }
    }
    h.update_u64(cfg.min_token_len as u64);
    h.update_u64(cfg.skip_id_column as u64);
    h.update_u64(cfg.purging_smooth_factor.to_bits());
    h.update_u64(cfg.filtering_ratio.to_bits());
    h.update_u64(match cfg.meta {
        crate::config::MetaBlockingConfig::All => 0,
        crate::config::MetaBlockingConfig::BpBf => 1,
        crate::config::MetaBlockingConfig::BpEp => 2,
        crate::config::MetaBlockingConfig::Bp => 3,
        crate::config::MetaBlockingConfig::None => 4,
    });
    h.update_u64(crate::index::scheme_tag(cfg.weight_scheme));
    h.update_u64(match cfg.ep_scope {
        crate::config::EdgePruningScope::NodeCentric => 0,
        crate::config::EdgePruningScope::Global => 1,
    });
    h.update_u64(match cfg.similarity {
        crate::config::SimilarityKind::MeanJaroWinkler => 0,
        crate::config::SimilarityKind::TokenJaccard => 1,
        crate::config::SimilarityKind::TokenOverlap => 2,
        crate::config::SimilarityKind::MeanLevenshtein => 3,
        crate::config::SimilarityKind::Hybrid => 4,
    });
    h.update_u64(cfg.match_threshold.to_bits());
    h.update_u64(cfg.transitive as u64);
    // CBS partials are part of the on-disk shape: a snapshot written
    // with them cannot serve a config that skips them, and vice versa.
    h.update_u64((cfg.meta.edge_pruning() && cfg.ep_cache.enabled()) as u64);

    h.finish()
}

/// File name a table's snapshot lives under inside the snapshot
/// directory: a sanitized human-readable prefix plus the FNV of the
/// exact name (so distinct tables never collide after sanitization).
pub fn snapshot_file_name(table_name: &str) -> String {
    let mut prefix: String = table_name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .take(48)
        .collect();
    if prefix.is_empty() {
        prefix.push('t');
    }
    format!(
        "{prefix}-{:016x}.qsnap",
        queryer_common::fnv1a64(table_name.as_bytes())
    )
}

/// Full path of a table's snapshot under `dir`.
pub fn snapshot_path(dir: &Path, table_name: &str) -> PathBuf {
    dir.join(snapshot_file_name(table_name))
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_csr(w: &mut PayloadWriter, csr: &Csr<u32>) {
    w.put_u32_slice(csr.offsets());
    w.put_u32_slice(csr.data());
}

fn put_strings<'a>(w: &mut PayloadWriter, n: usize, strings: impl Iterator<Item = &'a str>) {
    w.put_u64(n as u64);
    for s in strings {
        w.put_framed(s.as_bytes());
    }
}

/// Serializes `index` + `li` into a snapshot image and writes it
/// crash-atomically to `path`. `table` is the content the index was
/// built from — it supplies the invalidation fingerprint.
pub fn write_index_snapshot(
    path: &Path,
    index: &TableErIndex,
    li: &LinkIndex,
    table: &Table,
) -> Result<(), SnapshotError> {
    if index.has_delta() {
        // The payload below serializes the base CSR buffers; with a
        // live ingest delta those no longer describe the served view
        // (and the fingerprint would go stale anyway). Compact first.
        return Err(SnapshotError::PendingDelta);
    }
    let mut snap = SnapshotWriter::new(content_fingerprint(table, &index.cfg));

    let mut w = PayloadWriter::new();
    w.put_u64(index.n_records as u64);
    w.put_u64(index.n_cols as u64);
    w.put_u64(index.skip_col.map_or(NO_SKIP_COL, |c| c as u64));
    w.put_u64(index.purge_threshold);
    snap.section("index.meta", w.into_bytes());

    let mut w = PayloadWriter::new();
    put_strings(
        &mut w,
        index.keys.len(),
        index.keys.iter().map(|s| s.as_str()),
    );
    snap.section("index.keys", w.into_bytes());

    let mut w = PayloadWriter::new();
    put_csr(&mut w, &index.raw_blocks);
    snap.section("index.raw_blocks", w.into_bytes());

    let mut w = PayloadWriter::new();
    w.put_u64(index.purged.len() as u64);
    for &p in &index.purged {
        w.put_u8(p as u8);
    }
    snap.section("index.purged", w.into_bytes());

    let mut w = PayloadWriter::new();
    put_csr(&mut w, &index.filtered_blocks);
    snap.section("index.filtered_blocks", w.into_bytes());

    let mut w = PayloadWriter::new();
    put_csr(&mut w, &index.entity_blocks);
    snap.section("index.entity_blocks", w.into_bytes());

    let mut w = PayloadWriter::new();
    put_csr(&mut w, &index.entity_retained);
    snap.section("index.entity_retained", w.into_bytes());

    let mut w = PayloadWriter::new();
    put_strings(&mut w, index.interner.len(), index.interner.strings());
    snap.section("index.interner", w.into_bytes());

    let mut w = PayloadWriter::new();
    put_csr(&mut w, index.profile_tokens.as_csr());
    snap.section("index.profile_tokens", w.into_bytes());

    let mut w = PayloadWriter::new();
    w.put_u64(index.lower_attrs.len() as u64);
    for attr in &index.lower_attrs {
        match attr {
            None => w.put_u8(0),
            Some(s) => {
                w.put_u8(1);
                w.put_framed(s.as_bytes());
            }
        }
    }
    snap.section("index.lower_attrs", w.into_bytes());

    let mut w = PayloadWriter::new();
    w.put_u64(index.attr_meta.len() as u64);
    for m in &index.attr_meta {
        w.put_u32(m.chars);
        w.put_raw(&m.prefix);
        w.put_u8(m.prefix_len);
        w.put_u8(m.ascii_prefix as u8);
        w.put_u8(m.hist_valid as u8);
        w.put_raw(&m.hist);
    }
    snap.section("index.attr_meta", w.into_bytes());

    let mut w = PayloadWriter::new();
    match &index.cbs_adj {
        None => w.put_u8(0),
        Some(adj) => {
            w.put_u8(1);
            w.put_u32_slice(adj.offsets());
            w.put_u64(adj.data().len() as u64);
            for &(nbr, cbs) in adj.data() {
                w.put_u32(nbr);
                w.put_u32(cbs);
            }
        }
    }
    snap.section("index.cbs_adj", w.into_bytes());

    // EP thresholds: the bulk vector. The trailing count is where the
    // per-entity threshold entries of earlier writers sat; it stays in
    // the layout, always 0, so the format version need not move.
    let mut w = PayloadWriter::new();
    match &*index.ep_thresholds.lock() {
        None => w.put_u8(0),
        Some(bulk) => {
            w.put_u8(1);
            w.put_u64(bulk.len() as u64);
            for &t in bulk.iter() {
                w.put_f64(t);
            }
        }
    }
    w.put_u64(0);
    snap.section("ep.thresholds", w.into_bytes());

    // Cross-query caches, sorted by key so the file image is
    // deterministic for identical cache contents.
    let mut w = PayloadWriter::new();
    let mut entries: Vec<(u64, f64)> = Vec::new();
    index
        .resolve_cache
        .thresholds
        .for_each(|k, &v| entries.push((k, v)));
    entries.sort_unstable_by_key(|&(k, _)| k);
    w.put_u64(entries.len() as u64);
    for (k, v) in entries {
        w.put_u64(k);
        w.put_f64(v);
    }
    snap.section("cache.thresholds", w.into_bytes());

    let mut w = PayloadWriter::new();
    let mut entries: Vec<(u64, Arc<[RecordId]>)> = Vec::new();
    index
        .resolve_cache
        .survivors
        .for_each(|k, v| entries.push((k, Arc::clone(v))));
    entries.sort_unstable_by_key(|&(k, _)| k);
    w.put_u64(entries.len() as u64);
    for (k, v) in entries {
        w.put_u64(k);
        w.put_u32_slice(&v);
    }
    snap.section("cache.survivors", w.into_bytes());

    let mut w = PayloadWriter::new();
    let mut entries: Vec<(u64, bool)> = Vec::new();
    index
        .resolve_cache
        .decisions
        .for_each(|k, &v| entries.push((k, v)));
    entries.sort_unstable_by_key(|&(k, _)| k);
    w.put_u64(entries.len() as u64);
    for (k, v) in entries {
        w.put_u64(k);
        w.put_u8(v as u8);
    }
    snap.section("cache.decisions", w.into_bytes());

    // Link Index: resolved flags + adjacency (neighbour order is
    // semantic — preserved verbatim; map iteration order is not —
    // sorted by id).
    let mut w = PayloadWriter::new();
    w.put_u64(li.resolved.len() as u64);
    for &r in &li.resolved {
        w.put_u8(r as u8);
    }
    w.put_u64(li.n_links as u64);
    let mut adj: Vec<(RecordId, &Vec<RecordId>)> = li.adj.iter().map(|(&k, v)| (k, v)).collect();
    adj.sort_unstable_by_key(|&(k, _)| k);
    w.put_u64(adj.len() as u64);
    for (id, nbrs) in adj {
        w.put_u32(id);
        w.put_u32_slice(nbrs);
    }
    snap.section("links", w.into_bytes());

    snap.write_to(path)
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn take_csr(r: &mut PayloadReader<'_>, section: &str) -> Result<Csr<u32>, SnapshotError> {
    let offsets = r.take_u32_vec()?;
    let data = r.take_u32_vec()?;
    Csr::from_raw_parts(offsets, data).ok_or_else(|| corrupt(section))
}

fn take_strings(r: &mut PayloadReader<'_>, section: &str) -> Result<Vec<String>, SnapshotError> {
    let n = r.take_len(1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let bytes = r.take_framed()?;
        let s = std::str::from_utf8(bytes).map_err(|_| corrupt(section))?;
        out.push(s.to_string());
    }
    Ok(out)
}

/// Reads a section into a [`PayloadReader`].
fn section<'a>(snap: &'a SnapshotReader, name: &str) -> Result<PayloadReader<'a>, SnapshotError> {
    Ok(PayloadReader::new(snap.expect_section(name)?))
}

/// Asserts a fully-consumed payload — trailing bytes mean the section
/// was written by a different (buggy or hostile) encoder.
fn finish(r: PayloadReader<'_>, name: &str) -> Result<(), SnapshotError> {
    if r.is_exhausted() {
        Ok(())
    } else {
        Err(corrupt(name))
    }
}

/// Checks every id in `ids` is `< bound`.
fn check_ids(ids: &[u32], bound: usize, section: &str) -> Result<(), SnapshotError> {
    if ids.iter().all(|&v| (v as usize) < bound) {
        Ok(())
    } else {
        Err(corrupt(section))
    }
}

/// Opens the snapshot at `path` and reconstructs the index + Link Index
/// it holds. `table` and `cfg` describe the *current* content and
/// configuration; any drift reopens as
/// [`SnapshotError::StaleTableHash`], any damage as the corresponding
/// typed error — the caller's cue to rebuild.
///
/// Whether the persisted warm resolve caches are decoded follows the
/// `QUERYER_SNAPSHOT_CACHES` knob (default on); use
/// [`open_index_snapshot_with_caches`] to decide in code.
pub fn open_index_snapshot(
    path: &Path,
    table: &Table,
    cfg: &ErConfig,
) -> Result<(TableErIndex, LinkIndex), SnapshotError> {
    open_index_snapshot_with_caches(path, table, cfg, queryer_common::knobs::snapshot_caches())
}

/// [`open_index_snapshot`] with the warm-cache decode decided by
/// `caches` instead of the environment. With `caches` false, the
/// EP-threshold, survivor, and decision cache sections are skipped
/// entirely (the file-level commit CRC still validates the whole image
/// at open): the index starts with empty caches, exactly as a fresh
/// build would, and the first queries recompute bit-identical entries
/// on demand — decisions never depend on cache state.
pub fn open_index_snapshot_with_caches(
    path: &Path,
    table: &Table,
    cfg: &ErConfig,
    caches: bool,
) -> Result<(TableErIndex, LinkIndex), SnapshotError> {
    let snap = SnapshotReader::open(path, content_fingerprint(table, cfg))?;

    // index.meta
    let mut r = section(&snap, "index.meta")?;
    let n_records = r.take_u64()? as usize;
    let n_cols = r.take_u64()? as usize;
    let skip_raw = r.take_u64()?;
    let purge_threshold = r.take_u64()?;
    finish(r, "index.meta")?;
    if n_records != table.len() || n_cols != table.schema().len() {
        return Err(corrupt("index.meta"));
    }
    let skip_col = if skip_raw == NO_SKIP_COL {
        None
    } else if (skip_raw as usize) < n_cols {
        Some(skip_raw as usize)
    } else {
        return Err(corrupt("index.meta"));
    };

    // index.keys → keys + rebuilt TBI hash index.
    let mut r = section(&snap, "index.keys")?;
    let keys = take_strings(&mut r, "index.keys")?;
    finish(r, "index.keys")?;
    let n_blocks = keys.len();
    let mut key_to_block: FxHashMap<String, u32> = FxHashMap::default();
    key_to_block.reserve(n_blocks);
    for (b, k) in keys.iter().enumerate() {
        if key_to_block.insert(k.clone(), b as u32).is_some() {
            // Duplicate block keys can't come from a real build.
            return Err(corrupt("index.keys"));
        }
    }

    // Block-side CSRs.
    let mut r = section(&snap, "index.raw_blocks")?;
    let raw_blocks = take_csr(&mut r, "index.raw_blocks")?;
    finish(r, "index.raw_blocks")?;
    if raw_blocks.n_rows() != n_blocks {
        return Err(corrupt("index.raw_blocks"));
    }
    check_ids(raw_blocks.data(), n_records, "index.raw_blocks")?;

    let mut r = section(&snap, "index.purged")?;
    let n_purged = r.take_len(1)?;
    let mut purged = Vec::with_capacity(n_purged);
    for _ in 0..n_purged {
        purged.push(r.take_u8()? != 0);
    }
    finish(r, "index.purged")?;
    if purged.len() != n_blocks {
        return Err(corrupt("index.purged"));
    }

    let mut r = section(&snap, "index.filtered_blocks")?;
    let filtered_blocks = take_csr(&mut r, "index.filtered_blocks")?;
    finish(r, "index.filtered_blocks")?;
    if filtered_blocks.n_rows() != n_blocks {
        return Err(corrupt("index.filtered_blocks"));
    }
    check_ids(filtered_blocks.data(), n_records, "index.filtered_blocks")?;

    // Record-side CSRs.
    let mut r = section(&snap, "index.entity_blocks")?;
    let entity_blocks = take_csr(&mut r, "index.entity_blocks")?;
    finish(r, "index.entity_blocks")?;
    if entity_blocks.n_rows() != n_records {
        return Err(corrupt("index.entity_blocks"));
    }
    check_ids(entity_blocks.data(), n_blocks, "index.entity_blocks")?;

    let mut r = section(&snap, "index.entity_retained")?;
    let entity_retained = take_csr(&mut r, "index.entity_retained")?;
    finish(r, "index.entity_retained")?;
    if entity_retained.n_rows() != n_records {
        return Err(corrupt("index.entity_retained"));
    }
    check_ids(entity_retained.data(), n_blocks, "index.entity_retained")?;

    // Interner: re-interning in symbol order reassigns identical
    // symbols (dense, first-seen).
    let mut r = section(&snap, "index.interner")?;
    let strings = take_strings(&mut r, "index.interner")?;
    finish(r, "index.interner")?;
    let mut interner = TokenInterner::new();
    for (i, s) in strings.iter().enumerate() {
        if interner.intern(s) != i as u32 {
            // A duplicate string would break the dense symbol order.
            return Err(corrupt("index.interner"));
        }
    }

    let mut r = section(&snap, "index.profile_tokens")?;
    let profile_csr = take_csr(&mut r, "index.profile_tokens")?;
    finish(r, "index.profile_tokens")?;
    if profile_csr.n_rows() != n_records {
        return Err(corrupt("index.profile_tokens"));
    }
    check_ids(profile_csr.data(), interner.len(), "index.profile_tokens")?;
    let profile_tokens = TokenArena::from_csr(profile_csr);

    // Attributes.
    let mut r = section(&snap, "index.lower_attrs")?;
    let n_attrs = r.take_len(1)?;
    if n_attrs != n_records * n_cols {
        return Err(corrupt("index.lower_attrs"));
    }
    let mut lower_attrs: Vec<Option<Box<str>>> = Vec::with_capacity(n_attrs);
    for _ in 0..n_attrs {
        match r.take_u8()? {
            0 => lower_attrs.push(None),
            1 => {
                let bytes = r.take_framed()?;
                let s = std::str::from_utf8(bytes).map_err(|_| corrupt("index.lower_attrs"))?;
                lower_attrs.push(Some(s.into()));
            }
            _ => return Err(corrupt("index.lower_attrs")),
        }
    }
    finish(r, "index.lower_attrs")?;

    let mut r = section(&snap, "index.attr_meta")?;
    let n_meta = r.take_len(4 + 4 + 3 + HIST_CLASSES)?;
    if n_meta != n_records * n_cols {
        return Err(corrupt("index.attr_meta"));
    }
    let mut attr_meta = Vec::with_capacity(n_meta);
    for _ in 0..n_meta {
        let chars = r.take_u32()?;
        let prefix: [u8; 4] = r.take_bytes(4)?.try_into().unwrap();
        let prefix_len = r.take_u8()?;
        if prefix_len > 4 {
            return Err(corrupt("index.attr_meta"));
        }
        let ascii_prefix = r.take_u8()? != 0;
        let hist_valid = r.take_u8()? != 0;
        let hist: [u8; HIST_CLASSES] = r.take_bytes(HIST_CLASSES)?.try_into().unwrap();
        attr_meta.push(AttrMeta {
            chars,
            prefix,
            prefix_len,
            ascii_prefix,
            hist_valid,
            hist,
        });
    }
    finish(r, "index.attr_meta")?;

    // CBS partials: presence must match what the current config would
    // build (the fingerprint already encodes this bit, so a mismatch
    // here means a corrupt section rather than drift).
    let mut r = section(&snap, "index.cbs_adj")?;
    let cbs_expected = cfg.meta.edge_pruning() && cfg.ep_cache.enabled();
    let cbs_adj = match r.take_u8()? {
        0 => None,
        1 => {
            let offsets = r.take_u32_vec()?;
            let n = r.take_len(8)?;
            let mut data: Vec<(RecordId, u32)> = Vec::with_capacity(n);
            for _ in 0..n {
                let nbr = r.take_u32()?;
                if nbr as usize >= n_records {
                    return Err(corrupt("index.cbs_adj"));
                }
                data.push((nbr, r.take_u32()?));
            }
            let adj = Csr::from_raw_parts(offsets, data).ok_or_else(|| corrupt("index.cbs_adj"))?;
            if adj.n_rows() != n_records {
                return Err(corrupt("index.cbs_adj"));
            }
            Some(adj)
        }
        _ => return Err(corrupt("index.cbs_adj")),
    };
    finish(r, "index.cbs_adj")?;
    if cbs_adj.is_some() != cbs_expected {
        return Err(corrupt("index.cbs_adj"));
    }

    // EP thresholds + cross-query caches — skipped wholesale when the
    // caller opens without warm caches (`QUERYER_SNAPSHOT_CACHES=off`):
    // the sections stay unread (the commit CRC already validated the
    // whole image), and the index starts cold exactly like a fresh
    // build. The maps are otherwise rebuilt under the *current*
    // capacity knobs — a smaller cap simply readmits fewer entries
    // (eviction never changes decisions).
    let resolve_cache = ResolveCache::for_config(cfg);
    let ep_thresholds = if !caches {
        None
    } else {
        let mut r = section(&snap, "ep.thresholds")?;
        let bulk = match r.take_u8()? {
            0 => None,
            1 => {
                let n = r.take_len(8)?;
                if n != n_records {
                    return Err(corrupt("ep.thresholds"));
                }
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(r.take_f64()?);
                }
                Some(Arc::new(v))
            }
            _ => return Err(corrupt("ep.thresholds")),
        };
        // A file carrying per-entity threshold entries predates their
        // removal; refuse it so the caller rebuilds.
        if r.take_u64()? != 0 {
            return Err(corrupt("ep.thresholds"));
        }
        finish(r, "ep.thresholds")?;

        let mut r = section(&snap, "cache.thresholds")?;
        let n = r.take_len(16)?;
        for _ in 0..n {
            let k = r.take_u64()?;
            let v = r.take_f64()?;
            resolve_cache.thresholds.insert_if_absent(k, v);
        }
        finish(r, "cache.thresholds")?;

        let mut r = section(&snap, "cache.survivors")?;
        let n = r.take_len(16)?;
        for _ in 0..n {
            let k = r.take_u64()?;
            let ids = r.take_u32_vec()?;
            check_ids(&ids, n_records, "cache.survivors")?;
            resolve_cache.survivors.insert_if_absent(k, ids.into());
        }
        finish(r, "cache.survivors")?;

        let mut r = section(&snap, "cache.decisions")?;
        let n = r.take_len(9)?;
        for _ in 0..n {
            let k = r.take_u64()?;
            let v = match r.take_u8()? {
                0 => false,
                1 => true,
                _ => return Err(corrupt("cache.decisions")),
            };
            resolve_cache.decisions.insert_if_absent(k, v);
        }
        finish(r, "cache.decisions")?;
        bulk
    };

    // Link Index.
    let mut r = section(&snap, "links")?;
    let n_resolved = r.take_len(1)?;
    if n_resolved != n_records {
        return Err(corrupt("links"));
    }
    let mut resolved = Vec::with_capacity(n_resolved);
    for _ in 0..n_resolved {
        resolved.push(r.take_u8()? != 0);
    }
    let n_links = r.take_u64()? as usize;
    let n_adj = r.take_len(4)?;
    let mut adj: FxHashMap<RecordId, Vec<RecordId>> = FxHashMap::default();
    adj.reserve(n_adj);
    for _ in 0..n_adj {
        let id = r.take_u32()?;
        if id as usize >= n_records {
            return Err(corrupt("links"));
        }
        let nbrs = r.take_u32_vec()?;
        check_ids(&nbrs, n_records, "links")?;
        if adj.insert(id, nbrs).is_some() {
            return Err(corrupt("links"));
        }
    }
    finish(r, "links")?;
    let li = LinkIndex {
        resolved,
        adj,
        n_links,
    };

    let index = TableErIndex {
        cfg: cfg.clone(),
        skip_col,
        n_records,
        keys,
        key_to_block,
        raw_blocks,
        purged,
        purge_threshold,
        filtered_blocks,
        entity_blocks,
        entity_retained,
        interner,
        profile_tokens,
        lower_attrs,
        attr_meta,
        n_cols,
        ep_thresholds: Mutex::new(ep_thresholds),
        cbs_adj,
        resolve_cache,
        poisoned: AtomicBool::new(false),
        delta: None,
    };
    Ok((index, li))
}
