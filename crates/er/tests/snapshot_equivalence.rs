//! Snapshot round-trip fidelity and corruption handling.
//!
//! The crash-safety contract this suite pins, end to end at the ER
//! level (the framing-level byte checks live in
//! `queryer-storage/src/snapshot.rs`):
//!
//! - **Round trip is bit-identical.** The file holds the Link Index;
//!   re-serializing a reopened pair reproduces the original image byte
//!   for byte — every resolved mark and link survives — across weight
//!   schemes, thread counts, warm and cold
//!   Link Indexes, and degenerate (empty / one-record) tables. A
//!   reopened pair then *behaves* identically: same DR sets and
//!   decision counts on the next query as the index that wrote it, and
//!   the cache hit/miss counters of a fresh build holding the same
//!   links. A resolved table stays resolved: on the pinned workload a
//!   reopened resolve-all does no comparison at all.
//! - **Damage is detected, typed, and never served.** Truncation at
//!   every byte length and a bit flip at every byte reopen as a
//!   structural [`SnapshotError`] — never `Ok`, and never misreported
//!   as content drift.
//! - **Drift is detected as drift.** Editing a record or retuning a
//!   decision-relevant knob reopens as
//!   [`SnapshotError::StaleTableHash`]; retuning the thread knob keeps
//!   the snapshot valid.
//! - **Falling back to an empty Link Index is decision-identical.** On
//!   the pinned bench workload, a build beside an empty Link Index after
//!   a detected corruption serves the exact
//!   decision counts (21384 comparisons / 201 matches) of a never-
//!   persisted run, and so does an intact reopen.

#![allow(clippy::field_reassign_with_default)] // config tweaks read clearer as assignments

use parking_lot::Mutex;
use proptest::prelude::*;
use queryer_common::knobs::proptest_cases;
use queryer_er::{
    open_index_snapshot, write_index_snapshot, DedupMetrics, ErConfig, LinkIndex,
    MetaBlockingConfig, ResolveRequest, SimilarityKind, SnapshotError, TableErIndex, WeightScheme,
};
use queryer_storage::{RecordId, Schema, Table, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A `QUERYER_FAILPOINT` spec can arm the snapshot failpoint sites
/// process-wide. Every test here
/// manages faults explicitly instead: it takes this lock and starts —
/// and ends — with the snapshot sites disarmed. Disarming is a no-op
/// without the `failpoints` feature, and surgical (per-site), so
/// delay sites armed at other fan-outs stay armed.
static IO_LOCK: Mutex<()> = Mutex::new(());

const SNAPSHOT_SITES: [&str; 3] = [
    "snapshot.write.torn",
    "snapshot.write.crash-before-rename",
    "snapshot.open.short-read",
];

struct IoGuard<'a>(#[allow(dead_code)] parking_lot::MutexGuard<'a, ()>);
impl Drop for IoGuard<'_> {
    fn drop(&mut self) {
        for site in SNAPSHOT_SITES {
            queryer_common::failpoints::disarm(site);
        }
    }
}

fn snapshot_io() -> IoGuard<'static> {
    let guard = IO_LOCK.lock();
    for site in SNAPSHOT_SITES {
        queryer_common::failpoints::disarm(site);
    }
    IoGuard(guard)
}

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

fn build_table(rows: &[(Vec<usize>, Vec<usize>)]) -> Table {
    let mut t = Table::new("p", Schema::of_strings(&["id", "title", "venue"]));
    for (i, (a, b)) in rows.iter().enumerate() {
        let render = |words: &[usize]| {
            if words.is_empty() {
                Value::Null
            } else {
                let text: Vec<&str> = words.iter().map(|&w| VOCAB[w]).collect();
                Value::str(text.join(" "))
            }
        };
        t.push_row(vec![format!("{i}").into(), render(a), render(b)])
            .unwrap();
    }
    t
}

fn cell() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..VOCAB.len(), 0..4)
}

fn rows() -> impl Strategy<Value = Vec<(Vec<usize>, Vec<usize>)>> {
    proptest::collection::vec((cell(), cell()), 2..20)
}

/// A fresh path under the OS temp dir, unique per call so parallel
/// tests (and proptest cases) never collide.
fn fresh_path(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "qer-snap-eq-{}-{tag}-{n}.qsnap",
        std::process::id()
    ))
}

/// Removes the snapshot (and any stray temp sibling) on drop, so a
/// failing assertion doesn't leak files into the OS temp dir.
struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
        let mut tmp = self.0.as_os_str().to_os_string();
        tmp.push(".tmp");
        std::fs::remove_file(PathBuf::from(tmp)).ok();
    }
}

fn scheme_of(w: usize) -> WeightScheme {
    match w % 3 {
        0 => WeightScheme::Cbs,
        1 => WeightScheme::Ecbs,
        _ => WeightScheme::Js,
    }
}

fn count_triple(m: &DedupMetrics) -> (u64, u64, u64) {
    (m.comparisons, m.candidate_pairs, m.matches_found)
}

fn cache_counters(m: &DedupMetrics) -> (u64, u64, u64, u64) {
    (
        m.ep_cache_hits,
        m.ep_cache_misses,
        m.decision_cache_hits,
        m.decision_cache_misses,
    )
}

/// Snapshot `(index, li)` to a fresh temp file and return the raw image.
fn snapshot_bytes(index: &TableErIndex, li: &LinkIndex, table: &Table, tag: &str) -> Vec<u8> {
    let path = fresh_path(tag);
    let _cleanup = Cleanup(path.clone());
    write_index_snapshot(&path, index, li, table).expect("snapshot write");
    std::fs::read(&path).expect("snapshot readback")
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: proptest_cases(12),
        .. ProptestConfig::default()
    })]

    /// Build → resolve (warming caches and links) → persist → reopen:
    /// the reopened pair re-serializes to the identical byte image, and
    /// behaves identically on the next query — the same DR and decision
    /// counts as the index that wrote it, and the same cache hit/miss
    /// counters as a fresh build holding the same links (a reopen is a
    /// rebuild; its caches start cold). State evolution stays in
    /// lockstep: after the follow-up query both sides re-serialize
    /// identically again.
    #[test]
    fn round_trip_is_bit_identical_and_behaviour_preserving(
        rows in rows(),
        scheme in 0usize..3,
        threads in 1usize..4,
        warm_mask in 0u32..255,
        query_mask in 1u32..255,
    ) {
        let _io = snapshot_io();
        let table = build_table(&rows);
        let mut cfg = ErConfig::default().with_meta(MetaBlockingConfig::All);
        cfg.weight_scheme = scheme_of(scheme);
        cfg.threads = threads;
        let idx1 = TableErIndex::build(&table, &cfg);
        let mut li1 = LinkIndex::new(table.len());

        // Warm phase: resolve a subset so links and resolved marks carry
        // state into the snapshot. An empty mask snapshots an empty Link
        // Index.
        let warm: Vec<RecordId> = (0..table.len() as RecordId)
            .filter(|&r| warm_mask & (1 << (r % 8)) != 0)
            .collect();
        if !warm.is_empty() {
            let mut m = DedupMetrics::default();
            idx1.run(ResolveRequest::records(&table, &warm, &mut li1).metrics(&mut m)).unwrap();
        }

        let path = fresh_path("roundtrip");
        let _cleanup = Cleanup(path.clone());
        write_index_snapshot(&path, &idx1, &li1, &table).expect("snapshot write");
        let image1 = std::fs::read(&path).expect("snapshot readback");

        let mut li3 = li1.clone();
        let (idx2, mut li2) = open_index_snapshot(&path, &table, &cfg).expect("snapshot open");
        let image2 = snapshot_bytes(&idx2, &li2, &table, "reser");
        prop_assert_eq!(&image1, &image2, "re-serialized image diverged");

        // Behaviour: the same follow-up query on both sides.
        let qe: Vec<RecordId> = (0..table.len() as RecordId)
            .filter(|&r| query_mask & (1 << (r % 8)) != 0)
            .collect();
        let mut m1 = DedupMetrics::default();
        let out1 = idx1.run(ResolveRequest::records(&table, &qe, &mut li1).metrics(&mut m1)).unwrap();
        let mut m2 = DedupMetrics::default();
        let out2 = idx2.run(ResolveRequest::records(&table, &qe, &mut li2).metrics(&mut m2)).unwrap();
        prop_assert_eq!(&out1.dr, &out2.dr, "DR diverged after reopen");
        prop_assert_eq!(out1.new_links, out2.new_links);
        prop_assert_eq!(count_triple(&m1), count_triple(&m2));
        let idx3 = TableErIndex::build(&table, &cfg);
        let mut m3 = DedupMetrics::default();
        idx3.run(ResolveRequest::records(&table, &qe, &mut li3).metrics(&mut m3)).unwrap();
        prop_assert_eq!(
            cache_counters(&m2),
            cache_counters(&m3),
            "a reopen diverged from a build holding the same links"
        );

        // State evolution stays in lockstep.
        let after1 = snapshot_bytes(&idx1, &li1, &table, "after1");
        let after2 = snapshot_bytes(&idx2, &li2, &table, "after2");
        prop_assert_eq!(&after1, &after2, "post-query images diverged");
    }
}

/// The degenerate tables: zero records and one record round-trip
/// bit-identically and the reopened index resolves without panicking.
#[test]
fn empty_and_single_record_tables_round_trip() {
    let _io = snapshot_io();
    for n in [0usize, 1] {
        let mut table = Table::new("tiny", Schema::of_strings(&["id", "title", "venue"]));
        for i in 0..n {
            table
                .push_row(vec![
                    format!("{i}").into(),
                    Value::str("entity resolution"),
                    Value::str("edbt"),
                ])
                .unwrap();
        }
        let cfg = ErConfig::default();
        let idx = TableErIndex::build(&table, &cfg);
        let li = LinkIndex::new(table.len());
        let path = fresh_path("tiny");
        let _cleanup = Cleanup(path.clone());
        write_index_snapshot(&path, &idx, &li, &table).expect("snapshot write");
        let image = std::fs::read(&path).unwrap();
        let (idx2, mut li2) = open_index_snapshot(&path, &table, &cfg).expect("snapshot open");
        assert_eq!(
            image,
            snapshot_bytes(&idx2, &li2, &table, "tiny-reser"),
            "{n}-record image diverged"
        );
        let mut m = DedupMetrics::default();
        let out = idx2
            .run(ResolveRequest::all(&table, &mut li2).metrics(&mut m))
            .unwrap();
        assert_eq!(out.dr.len(), n);
    }
}

/// A structurally-damaged snapshot must fail `open` with a *structural*
/// typed error: `Ok` would serve garbage, `StaleTableHash` would
/// misreport damage as drift (hiding e.g. a failing disk behind a
/// "content changed" story).
fn assert_structural_rejection(err: Result<(TableErIndex, LinkIndex), SnapshotError>, what: &str) {
    match err {
        Ok(_) => panic!("{what}: damaged snapshot opened successfully"),
        Err(
            SnapshotError::Truncated
            | SnapshotError::BadMagic
            | SnapshotError::VersionMismatch { .. }
            | SnapshotError::ChecksumMismatch,
        ) => {}
        Err(e) => panic!("{what}: damage misreported as {e}"),
    }
}

/// A small warmed snapshot image plus everything needed to reopen it.
fn small_snapshot() -> (Table, ErConfig, Vec<u8>) {
    let rows: Vec<(Vec<usize>, Vec<usize>)> = (0..6)
        .map(|i| {
            (
                vec![i % VOCAB.len(), (i + 1) % VOCAB.len()],
                vec![9 + i % 3],
            )
        })
        .collect();
    let table = build_table(&rows);
    let cfg = ErConfig::default();
    let idx = TableErIndex::build(&table, &cfg);
    let mut li = LinkIndex::new(table.len());
    let mut m = DedupMetrics::default();
    idx.run(ResolveRequest::all(&table, &mut li).metrics(&mut m))
        .unwrap();
    let image = snapshot_bytes(&idx, &li, &table, "small");
    (table, cfg, image)
}

/// Truncation at every possible length — a torn write can stop
/// anywhere, including mid-header, mid-payload, and inside the trailing
/// checksum — is detected at open as a structural error.
#[test]
fn truncation_at_every_length_detected() {
    let _io = snapshot_io();
    let (table, cfg, image) = small_snapshot();
    let path = fresh_path("trunc");
    let _cleanup = Cleanup(path.clone());
    for cut in 0..image.len() {
        std::fs::write(&path, &image[..cut]).unwrap();
        assert_structural_rejection(
            open_index_snapshot(&path, &table, &cfg),
            &format!("truncated to {cut} bytes"),
        );
    }
    // The intact image still opens — the harness damaged the copies,
    // not the original.
    std::fs::write(&path, &image).unwrap();
    open_index_snapshot(&path, &table, &cfg).expect("intact image must open");
}

/// A single flipped bit anywhere in the file — magic, version, hash,
/// payload length, payload, the trailing CRC — is detected at open.
/// The bit position rotates per byte; the framing's own unit tests
/// flip a bit in every byte of an in-memory image.
#[test]
fn bit_flip_at_every_byte_detected() {
    let _io = snapshot_io();
    let (table, cfg, image) = small_snapshot();
    let path = fresh_path("flip");
    let _cleanup = Cleanup(path.clone());
    for i in 0..image.len() {
        let mut damaged = image.clone();
        damaged[i] ^= 1 << (i % 8);
        std::fs::write(&path, &damaged).unwrap();
        assert_structural_rejection(
            open_index_snapshot(&path, &table, &cfg),
            &format!("bit flip at byte {i}"),
        );
    }
}

/// Content drift — an edited record, a retuned decision knob — reopens
/// as `StaleTableHash`; a retuned thread knob does not invalidate, and
/// the reopened index serves identical decisions.
#[test]
fn drift_detected_as_stale_thread_retunes_are_not_drift() {
    let _io = snapshot_io();
    let (table, cfg, image) = small_snapshot();
    let path = fresh_path("drift");
    let _cleanup = Cleanup(path.clone());
    std::fs::write(&path, &image).unwrap();

    // Edited content: rebuild the table with one changed cell.
    let mut edited = Table::new("p", Schema::of_strings(&["id", "title", "venue"]));
    for (i, r) in table.records().iter().enumerate() {
        let mut vals: Vec<Value> = r.values.clone();
        if i == 2 {
            vals[1] = Value::str("edited title");
        }
        edited.push_row(vals).unwrap();
    }
    match open_index_snapshot(&path, &edited, &cfg) {
        Err(SnapshotError::StaleTableHash { .. }) => {}
        other => panic!("edited table must reopen as StaleTableHash, got {other:?}"),
    }

    // Retuned decision knob.
    let mut decision_cfg = cfg.clone();
    decision_cfg.similarity = SimilarityKind::TokenJaccard;
    decision_cfg.match_threshold = 0.5;
    match open_index_snapshot(&path, &table, &decision_cfg) {
        Err(SnapshotError::StaleTableHash { .. }) => {}
        other => panic!("decision-knob drift must reopen as StaleTableHash, got {other:?}"),
    }

    // A retuned thread knob: never decision-relevant, so the snapshot
    // stays valid and decisions match the original run.
    let idx_fresh = TableErIndex::build(&table, &cfg);
    let mut li_fresh = LinkIndex::new(table.len());
    let mut m_fresh = DedupMetrics::default();
    let out_fresh = idx_fresh
        .run(ResolveRequest::all(&table, &mut li_fresh).metrics(&mut m_fresh))
        .unwrap();
    let mut par_cfg = cfg.clone();
    par_cfg.threads = 7;
    let (idx2, _snapshot_links) = open_index_snapshot(&path, &table, &par_cfg)
        .unwrap_or_else(|e| panic!("thread retune must not drift: {e}"));
    // The snapshot carries the original run's links; resolve from a
    // fresh Link Index view to compare pure decisions.
    let mut li2 = LinkIndex::new(table.len());
    let mut m2 = DedupMetrics::default();
    let out2 = idx2
        .run(ResolveRequest::all(&table, &mut li2).metrics(&mut m2))
        .unwrap();
    assert_eq!(out_fresh.dr, out2.dr, "thread retune");
    assert_eq!(count_triple(&m_fresh), count_triple(&m2), "thread retune");
}

/// A resolved table stays resolved across a reopen: resolve all of the
/// pinned workload (21384 comparisons, 201 matches), persist, reopen,
/// and resolving all again does no comparison and returns the same DR.
#[test]
fn pinned_workload_stays_resolved_across_reopen() {
    let _io = snapshot_io();
    let ds = queryer_datagen::scholarly::dblp_scholar(2000, 99);
    let cfg = ErConfig::default();
    let idx = TableErIndex::build(&ds.table, &cfg);
    let mut li = LinkIndex::new(ds.table.len());
    let mut m = DedupMetrics::default();
    let first = idx
        .run(ResolveRequest::all(&ds.table, &mut li).metrics(&mut m))
        .unwrap();
    assert_eq!((m.comparisons, m.matches_found), (21384, 201));

    let path = fresh_path("warm");
    let _cleanup = Cleanup(path.clone());
    write_index_snapshot(&path, &idx, &li, &ds.table).expect("snapshot write");
    let (opened, mut li_o) = open_index_snapshot(&path, &ds.table, &cfg).expect("snapshot open");
    let mut m_o = DedupMetrics::default();
    let again = opened
        .run(ResolveRequest::all(&ds.table, &mut li_o).metrics(&mut m_o))
        .unwrap();
    assert_eq!(m_o.comparisons, 0, "a reopened resolved table re-resolved");
    assert_eq!(again.dr, first.dr);
}

/// The acceptance scenario on the pinned bench workload: a corrupted
/// snapshot is detected (typed, structural), never served, and the
/// fallback to an empty Link Index — like an intact reopen — serves the
/// exact pinned decision counts of a never-persisted run: 21384
/// comparisons / 201 matches on `dblp_scholar(2000, 99)`.
#[test]
fn pinned_workload_recovers_identically_after_corruption() {
    let _io = snapshot_io();
    let ds = queryer_datagen::scholarly::dblp_scholar(2000, 99);
    let cfg = ErConfig::default();

    // Never-persisted baseline.
    let baseline_idx = TableErIndex::build(&ds.table, &cfg);
    let mut baseline_li = LinkIndex::new(ds.table.len());
    let mut baseline_m = DedupMetrics::default();
    let baseline = baseline_idx
        .run(ResolveRequest::all(&ds.table, &mut baseline_li).metrics(&mut baseline_m))
        .unwrap();
    assert_eq!(baseline_m.comparisons, 21384, "pinned workload drifted");
    assert_eq!(baseline_m.matches_found, 201, "pinned workload drifted");

    // Persist the cold index, then corrupt the middle of the file.
    let path = fresh_path("pinned");
    let _cleanup = Cleanup(path.clone());
    let cold_li = LinkIndex::new(ds.table.len());
    write_index_snapshot(&path, &baseline_idx, &cold_li, &ds.table).expect("snapshot write");
    let image = std::fs::read(&path).unwrap();
    let mut damaged = image.clone();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x10;
    std::fs::write(&path, &damaged).unwrap();
    assert_structural_rejection(
        open_index_snapshot(&path, &ds.table, &cfg),
        "pinned-workload corruption",
    );

    // Fallback: a build beside an empty Link Index — decisions identical.
    let rebuilt = TableErIndex::build(&ds.table, &cfg);
    let mut li_r = LinkIndex::new(ds.table.len());
    let mut m_r = DedupMetrics::default();
    let out_r = rebuilt
        .run(ResolveRequest::all(&ds.table, &mut li_r).metrics(&mut m_r))
        .unwrap();
    assert_eq!(m_r.comparisons, 21384);
    assert_eq!(m_r.matches_found, 201);
    assert_eq!(out_r.dr, baseline.dr);

    // Intact reopen: also decision-identical.
    std::fs::write(&path, &image).unwrap();
    let (opened, mut li_o) =
        open_index_snapshot(&path, &ds.table, &cfg).expect("intact snapshot must open");
    let mut m_o = DedupMetrics::default();
    let out_o = opened
        .run(ResolveRequest::all(&ds.table, &mut li_o).metrics(&mut m_o))
        .unwrap();
    assert_eq!(m_o.comparisons, 21384);
    assert_eq!(m_o.matches_found, 201);
    assert_eq!(out_o.dr, baseline.dr);
}

/// Crash-fault legs (requires `--features failpoints`): the torn-write,
/// crash-before-rename, and short-read sites prove the atomic-write
/// protocol end to end. The failpoint registry is process-global, so
/// these serialize on one mutex and disarm everything on drop.
#[cfg(feature = "failpoints")]
mod faults {
    use super::*;
    use queryer_common::failpoints::{self, FailAction};

    struct FaultGuard<'a>(#[allow(dead_code)] parking_lot::MutexGuard<'a, ()>);
    impl Drop for FaultGuard<'_> {
        fn drop(&mut self) {
            failpoints::disarm_all();
        }
    }

    /// Like [`snapshot_io`], but fully disarmed on both edges: these
    /// tests arm sites themselves and must not leak them.
    fn faults() -> FaultGuard<'static> {
        let guard = IO_LOCK.lock();
        failpoints::disarm_all();
        FaultGuard(guard)
    }

    fn tmp_sibling(path: &std::path::Path) -> PathBuf {
        let mut s = path.as_os_str().to_os_string();
        s.push(".tmp");
        PathBuf::from(s)
    }

    /// A torn write commits a prefix of the image; the open path must
    /// reject the file and a rebuild must serve the workload.
    #[test]
    fn torn_write_detected_at_open() {
        let _guard = faults();
        let (table, cfg, _) = small_snapshot();
        let idx = TableErIndex::build(&table, &cfg);
        let li = LinkIndex::new(table.len());
        let path = fresh_path("torn");
        let _cleanup = Cleanup(path.clone());

        failpoints::arm("snapshot.write.torn", FailAction::Delay(0));
        write_index_snapshot(&path, &idx, &li, &table).expect("torn write still commits");
        failpoints::disarm("snapshot.write.torn");

        assert_structural_rejection(open_index_snapshot(&path, &table, &cfg), "torn write");

        // Recovery: rewrite cleanly over the damaged file.
        write_index_snapshot(&path, &idx, &li, &table).expect("clean rewrite");
        let (opened, mut li2) = open_index_snapshot(&path, &table, &cfg).expect("reopen");
        let mut m = DedupMetrics::default();
        opened
            .run(ResolveRequest::all(&table, &mut li2).metrics(&mut m))
            .unwrap();
        assert!(m.comparisons > 0);
    }

    /// A crash after the temp-file fsync but before the rename leaves
    /// the final path untouched: nothing (first write) or the previous
    /// intact snapshot (rewrite), plus an ignorable stray temp file.
    #[test]
    fn crash_before_rename_preserves_previous_snapshot() {
        let _guard = faults();
        let (table, cfg, _) = small_snapshot();
        let idx = TableErIndex::build(&table, &cfg);
        let li = LinkIndex::new(table.len());
        let path = fresh_path("crash");
        let _cleanup = Cleanup(path.clone());

        // First write crashes: no final file at all.
        failpoints::arm("snapshot.write.crash-before-rename", FailAction::Delay(0));
        let err = write_index_snapshot(&path, &idx, &li, &table);
        assert!(matches!(err, Err(SnapshotError::Io { .. })), "got {err:?}");
        assert!(!path.exists(), "crashed write must not publish the file");
        assert!(tmp_sibling(&path).exists(), "temp file is left behind");
        failpoints::disarm("snapshot.write.crash-before-rename");

        // Clean write, then a crashed rewrite: the old snapshot stays
        // intact and keeps opening.
        write_index_snapshot(&path, &idx, &li, &table).expect("clean write");
        let before = std::fs::read(&path).unwrap();
        failpoints::arm("snapshot.write.crash-before-rename", FailAction::Delay(0));
        let err = write_index_snapshot(&path, &idx, &li, &table);
        assert!(matches!(err, Err(SnapshotError::Io { .. })), "got {err:?}");
        failpoints::disarm("snapshot.write.crash-before-rename");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "old snapshot damaged"
        );
        open_index_snapshot(&path, &table, &cfg).expect("old snapshot must still open");
    }

    /// A short read (the disk returns fewer bytes than the file holds)
    /// is indistinguishable from truncation and must be rejected; the
    /// same file opens once the fault clears.
    #[test]
    fn short_read_detected_then_recovers() {
        let _guard = faults();
        let (table, cfg, image) = small_snapshot();
        let path = fresh_path("short");
        let _cleanup = Cleanup(path.clone());
        std::fs::write(&path, &image).unwrap();

        failpoints::arm("snapshot.open.short-read", FailAction::Delay(0));
        assert_structural_rejection(open_index_snapshot(&path, &table, &cfg), "short read");
        failpoints::disarm("snapshot.open.short-read");

        open_index_snapshot(&path, &table, &cfg).expect("open after fault clears");
    }
}
