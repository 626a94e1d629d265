//! Persisting a table's resolution — its [`LinkIndex`] — to disk, and
//! reopening it beside a rebuilt [`TableErIndex`].
//!
//! QueryER builds its indexes once per table and keeps them in memory
//! (Sec. 3); what accumulates across queries is the Link Index, the one
//! piece of state a rebuild cannot reproduce. So the file keeps exactly
//! that — a resolved flag per record and the duplicate adjacency — as
//! the one payload of the crash-safe framing of
//! [`queryer_storage::snapshot`], and [`open_index_snapshot`] rebuilds
//! the blocking graph, profiles and WNP thresholds with
//! [`TableErIndex::build`]. Decoding those structures measured no
//! cheaper than building them at any table size, so a reopened index is
//! by construction a rebuild and cannot diverge from one; the resolve
//! caches start cold, as after any build.
//!
//! # Invalidation
//!
//! The file's fingerprint is [`content_fingerprint`]: FNV-1a 64 over
//! the schema, every record value (type-tagged and framed), and the
//! *decision-relevant* configuration fields (blocking scheme, token
//! length, meta-blocking mode, weight scheme, similarity, threshold —
//! not thread counts, which never change decisions). Editing a row or
//! retuning a decision knob therefore reopens as
//! [`SnapshotError::StaleTableHash`], and the caller falls back to an
//! empty Link Index; retuning the thread knob keeps the snapshot valid.
//!
//! # Validation
//!
//! The framing already rejects truncation, bit flips, torn writes,
//! version skew, and stale content before the payload is readable. On
//! top of it the payload decoder checks that the resolved flags cover
//! exactly the table's records, that every stored id is in range, that
//! no record's adjacency appears twice, and that the adjacency is a
//! link set: symmetric, with no self-link, no repeated neighbour, and
//! as many links as the stored count. So even a checksum-colliding file
//! can never produce a Link Index that panics or aliases at query time,
//! or whose derived clusters disagree with its links. The clusters
//! themselves (each record's label and member ring) are not stored;
//! decoding derives them from the adjacency. Any such failure is
//! [`SnapshotError::Corrupt`], and is reported before the build starts.

use crate::config::ErConfig;
use crate::index::TableErIndex;
use crate::link_index::{LinkIndex, Mark};
use queryer_common::checksum::Fnv64;
use queryer_common::FxHashMap;
use queryer_storage::snapshot::{read_snapshot, write_snapshot, PayloadReader};
use queryer_storage::{RecordId, Table, Value};
use std::path::Path;

pub use queryer_storage::snapshot::SnapshotError;

/// Fingerprint of everything a snapshot's validity depends on: schema,
/// record values, and the decision-relevant configuration. See the
/// module docs for what is (and deliberately is not) included.
pub fn content_fingerprint(table: &Table, cfg: &ErConfig) -> u64 {
    let mut h = Fnv64::new();
    h.update_framed(b"queryer-index-snapshot-v2");

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

    // Decision-relevant configuration. Thread counts are excluded on
    // purpose: they never change decisions (property-pinned by the
    // equivalence suites), so a snapshot survives retuning them.
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
    h.update_u64(match cfg.weight_scheme {
        crate::config::WeightScheme::Cbs => 0,
        crate::config::WeightScheme::Ecbs => 1,
        crate::config::WeightScheme::Js => 2,
    });
    h.update_u64(match cfg.similarity {
        crate::config::SimilarityKind::MeanJaroWinkler => 0,
        crate::config::SimilarityKind::TokenJaccard => 1,
        crate::config::SimilarityKind::TokenOverlap => 2,
        crate::config::SimilarityKind::MeanLevenshtein => 3,
        crate::config::SimilarityKind::Hybrid => 4,
    });
    h.update_u64(cfg.match_threshold.to_bits());

    h.finish()
}

/// Writes `li` crash-atomically to `path`, stamped with the fingerprint
/// of `table` under `index`'s configuration. `table` is the content the
/// links were resolved over — with a live ingest delta, the mutated
/// table — so the file reopens against exactly that content. A Link
/// Index or index that does not cover `table` record for record is
/// refused as [`SnapshotError::Corrupt`] before anything is written.
pub fn write_index_snapshot(
    path: &Path,
    index: &TableErIndex,
    li: &LinkIndex,
    table: &Table,
) -> Result<(), SnapshotError> {
    if li.len() != table.len() || index.n_records() != table.len() {
        return Err(SnapshotError::Corrupt);
    }
    // Resolved flags + adjacency, little-endian (neighbour order is
    // semantic — preserved verbatim; map iteration order is not —
    // sorted by id). Stale marks are a decision-memo hint, not part of
    // the resolution: they persist as unresolved, so the format keeps
    // one flag byte.
    let mut out = Vec::new();
    out.extend_from_slice(&(li.marks.len() as u64).to_le_bytes());
    out.extend(li.marks.iter().map(|&m| (m == Mark::Resolved) as u8));
    out.extend_from_slice(&(li.n_links as u64).to_le_bytes());
    let mut adj: Vec<(RecordId, &Vec<RecordId>)> = li.adj.iter().map(|(&k, v)| (k, v)).collect();
    adj.sort_unstable_by_key(|&(k, _)| k);
    out.extend_from_slice(&(adj.len() as u64).to_le_bytes());
    for (id, nbrs) in adj {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&(nbrs.len() as u64).to_le_bytes());
        for &v in nbrs {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    write_snapshot(path, content_fingerprint(table, &index.cfg), &out)
}

/// Decodes and validates the Link-Index payload against `n_records`.
fn decode_links(payload: &[u8], n_records: usize) -> Result<LinkIndex, SnapshotError> {
    let mut r = PayloadReader::new(payload);
    let n_resolved = r.take_len(1)?;
    if n_resolved != n_records {
        return Err(SnapshotError::Corrupt);
    }
    let mut marks = Vec::with_capacity(n_resolved);
    for _ in 0..n_resolved {
        marks.push(if r.take_u8()? != 0 {
            Mark::Resolved
        } else {
            Mark::Unresolved
        });
    }
    let n_links = r.take_u64()? as usize;
    let n_adj = r.take_len(4)?;
    let mut adj: FxHashMap<RecordId, Vec<RecordId>> = FxHashMap::default();
    adj.reserve(n_adj);
    // Every entry `id → v` as the unordered pair it claims, split by
    // which endpoint's list holds it: a symmetric adjacency lists each
    // link once from each side, so the two sorted halves are equal.
    let (mut from_low, mut from_high) = (Vec::new(), Vec::new());
    let in_range = |v: RecordId| (v as usize) < n_records;
    for _ in 0..n_adj {
        let id = r.take_u32()?;
        if !in_range(id) {
            return Err(SnapshotError::Corrupt);
        }
        let nbrs = r.take_u32_vec()?;
        for &v in &nbrs {
            if !in_range(v) || v == id {
                return Err(SnapshotError::Corrupt);
            }
            if id < v {
                from_low.push((id, v));
            } else {
                from_high.push((v, id));
            }
        }
        if adj.insert(id, nbrs).is_some() {
            return Err(SnapshotError::Corrupt);
        }
    }
    // Trailing bytes mean a different (buggy or hostile) encoder.
    if !r.is_exhausted() {
        return Err(SnapshotError::Corrupt);
    }
    from_low.sort_unstable();
    from_high.sort_unstable();
    // A repeated neighbour repeats its pair within one half.
    let repeats = |pairs: &[(RecordId, RecordId)]| pairs.windows(2).any(|w| w[0] == w[1]);
    if from_low != from_high || repeats(&from_low) || from_low.len() != n_links {
        return Err(SnapshotError::Corrupt);
    }
    Ok(LinkIndex::from_parts(marks, adj, n_links))
}

/// Opens the snapshot at `path` and returns a freshly built index of
/// `table` beside the Link Index the file holds. `table` and `cfg`
/// describe the *current* content and configuration; any drift reopens
/// as [`SnapshotError::StaleTableHash`], any damage as the
/// corresponding typed error — the caller's cue to fall back to an
/// empty Link Index. The file is validated in full before the build
/// starts, so a rejected file costs no build.
pub fn open_index_snapshot(
    path: &Path,
    table: &Table,
    cfg: &ErConfig,
) -> Result<(TableErIndex, LinkIndex), SnapshotError> {
    let payload = read_snapshot(path, content_fingerprint(table, cfg))?;
    let li = decode_links(&payload, table.len())?;
    Ok((TableErIndex::build(table, cfg), li))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A links payload written out by hand: `n` unresolved records, the
    /// stored link count, and the adjacency entries as given.
    fn payload(n: usize, n_links: u64, adj: &[(RecordId, &[RecordId])]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(n as u64).to_le_bytes());
        out.resize(out.len() + n, 0);
        out.extend_from_slice(&n_links.to_le_bytes());
        out.extend_from_slice(&(adj.len() as u64).to_le_bytes());
        for &(id, nbrs) in adj {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(nbrs.len() as u64).to_le_bytes());
            for &v in nbrs {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    fn corrupt(payload: &[u8], n: usize) -> bool {
        matches!(decode_links(payload, n), Err(SnapshotError::Corrupt))
    }

    #[test]
    fn a_link_set_decodes_with_its_clusters() {
        let li = decode_links(&payload(4, 2, &[(0, &[2]), (2, &[0, 3]), (3, &[2])]), 4).unwrap();
        assert_eq!(li.link_count(), 2);
        assert_eq!(
            (0..4).map(|id| li.label(id)).collect::<Vec<_>>(),
            [0, 1, 0, 0]
        );
        assert_eq!(li.closure([3]), [0, 2, 3]);
    }

    #[test]
    fn an_asymmetric_adjacency_is_corrupt() {
        // 0 lists 1, but 1 does not list 0: the first `invalidate(&[0])`
        // would count one link down that was never counted up.
        let p = payload(3, 1, &[(0, &[1]), (1, &[2]), (2, &[1])]);
        assert!(corrupt(&p, 3));
        let p = payload(3, 1, &[(0, &[1])]);
        assert!(corrupt(&p, 3));
    }

    #[test]
    fn a_self_link_is_corrupt() {
        let p = payload(3, 1, &[(1, &[1])]);
        assert!(corrupt(&p, 3));
    }

    #[test]
    fn a_repeated_neighbour_is_corrupt() {
        let p = payload(3, 2, &[(0, &[1, 1]), (1, &[0, 0])]);
        assert!(corrupt(&p, 3));
    }

    #[test]
    fn a_link_count_off_the_entries_is_corrupt() {
        for n_links in [0, 2, u64::MAX] {
            let p = payload(3, n_links, &[(0, &[1]), (1, &[0])]);
            assert!(corrupt(&p, 3), "n_links {n_links}");
        }
    }
}
