//! Crash-safe sectioned snapshot container.
//!
//! This is the generic on-disk layer under the ER snapshot (the
//! persisted Link Index): a single file holding named binary *sections*,
//! stamped and checksummed so that every way a file can be damaged —
//! truncation, bit rot, a torn write, a version or content mismatch —
//! is *detected at open* and surfaced as a typed [`SnapshotError`]
//! instead of ever being served. A caller of the ER snapshot turns any
//! open failure into a fallback to an empty Link Index.
//!
//! # File layout
//!
//! ```text
//! magic            8 bytes   b"QERSNAP1"
//! format version   u32 LE    bumped on any layout change
//! table hash       u64 LE    caller-supplied content fingerprint
//! section count    u32 LE
//! header CRC       u32 LE    CRC-32C of the 24 header bytes above
//! per section:
//!   name length    u16 LE
//!   name           UTF-8 bytes
//!   payload length u64 LE
//!   payload        bytes
//!   section CRC    u32 LE    CRC-32C of name ‖ payload
//! commit CRC       u32 LE    CRC-32C of everything above
//! ```
//!
//! The trailing commit CRC doubles as the commit record: a write that
//! died mid-file cannot have a valid commit CRC, so a torn write is
//! indistinguishable from (and handled like) corruption.
//!
//! # Write protocol
//!
//! [`SnapshotWriter::write_to`] is crash-atomic: the bytes go to a
//! sibling temp file, the temp file is fsynced, renamed over the final
//! path, and the directory is fsynced. A crash at any point leaves
//! either the old snapshot, no snapshot, or a stray `*.tmp` (ignored by
//! opens) — never a half-written file at the final path. Three
//! failpoint sites make the crash windows testable:
//! `snapshot.write.torn` (payload truncated but committed anyway, i.e.
//! a disk lying about a completed write), `snapshot.write.crash-before-rename`
//! (die after the temp fsync), and `snapshot.open.short-read` (reader
//! sees a prefix of the file).

use crate::error::StorageError;
use queryer_common::checksum::{crc32c, Crc32c};
use queryer_common::failpoints;
use std::fmt;
use std::fs;
use std::io::{Read, Write};
use std::path::Path;

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"QERSNAP1";

/// Current snapshot format version. Bump on any layout change — an
/// older or newer file then reopens as [`SnapshotError::VersionMismatch`]
/// and the caller discards the file.
pub const FORMAT_VERSION: u32 = 1;

/// Suffix of the temporary file a write stages into before its rename.
const TMP_SUFFIX: &str = ".tmp";

/// Why a snapshot could not be written, or why an on-disk snapshot was
/// rejected at open. Every rejection is *typed* so the caller can log
/// the precise failure while discarding the file.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file is a snapshot of a different format generation.
    VersionMismatch {
        /// Version stamped in the file.
        found: u32,
        /// Version this binary reads/writes ([`FORMAT_VERSION`]).
        expected: u32,
    },
    /// A checksum did not validate — bit rot, a torn write, or any
    /// other in-place damage.
    ChecksumMismatch {
        /// Which part failed: a section name, `"header"`, or
        /// `"commit"`.
        section: String,
    },
    /// The snapshot is structurally intact but was taken of different
    /// content (table rows or decision-relevant configuration changed).
    StaleTableHash {
        /// Fingerprint stamped in the file.
        found: u64,
        /// Fingerprint of the current table + configuration.
        expected: u64,
    },
    /// The file ends before the declared structure does (truncation /
    /// short read).
    Truncated,
    /// A section decoded cleanly by checksum but failed semantic
    /// validation (e.g. CSR offsets out of order) — only reachable via
    /// a checksum collision or an encoder bug, but never served.
    Corrupt {
        /// Which section failed validation.
        section: String,
    },
    /// An I/O error while reading or writing the snapshot.
    Io {
        /// What was being attempted.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "snapshot: bad magic (not a snapshot file)"),
            SnapshotError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot: format version {found} (this binary reads {expected})"
            ),
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "snapshot: checksum mismatch in section '{section}'")
            }
            SnapshotError::StaleTableHash { found, expected } => write!(
                f,
                "snapshot: stale table hash {found:#018x} (current content is {expected:#018x})"
            ),
            SnapshotError::Truncated => write!(f, "snapshot: file truncated"),
            SnapshotError::Corrupt { section } => {
                write!(f, "snapshot: section '{section}' failed validation")
            }
            SnapshotError::Io { context, source } => {
                write!(f, "snapshot: i/o error while {context}: {source}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<SnapshotError> for StorageError {
    fn from(e: SnapshotError) -> Self {
        match e {
            SnapshotError::Io { context, source } => StorageError::Io { context, source },
            other => StorageError::Io {
                context: other.to_string(),
                source: std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
            },
        }
    }
}

fn io_err(context: &str, source: std::io::Error) -> SnapshotError {
    SnapshotError::Io {
        context: context.to_string(),
        source,
    }
}

/// Builds a snapshot in memory section by section, then commits it to
/// disk atomically.
#[derive(Debug)]
pub struct SnapshotWriter {
    table_hash: u64,
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Starts a snapshot stamped with the caller's content fingerprint.
    pub fn new(table_hash: u64) -> Self {
        Self {
            table_hash,
            sections: Vec::new(),
        }
    }

    /// Appends a named section. Names must be unique per snapshot (the
    /// reader indexes by name); order is preserved.
    pub fn section(&mut self, name: &str, payload: Vec<u8>) {
        debug_assert!(
            self.sections.iter().all(|(n, _)| n != name),
            "duplicate snapshot section '{name}'"
        );
        self.sections.push((name.to_string(), payload));
    }

    /// Serializes the snapshot to its final byte image (header,
    /// sections, trailing commit CRC).
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.table_hash.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let header_crc = crc32c(&out);
        out.extend_from_slice(&header_crc.to_le_bytes());
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
            let mut crc = Crc32c::new();
            crc.update(name.as_bytes());
            crc.update(payload);
            out.extend_from_slice(&crc.finish().to_le_bytes());
        }
        let commit = crc32c(&out);
        out.extend_from_slice(&commit.to_le_bytes());
        out
    }

    /// Writes the snapshot to `path` crash-atomically: stage into a
    /// sibling `*.tmp`, fsync it, rename over `path`, fsync the parent
    /// directory. Creates missing parent directories.
    pub fn write_to(&self, path: &Path) -> Result<(), SnapshotError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)
                    .map_err(|e| io_err("creating the snapshot directory", e))?;
            }
        }
        let mut bytes = self.to_bytes();

        // Torn-write fault: the disk "commits" a prefix of the file.
        // The commit CRC can then never validate, so the open path must
        // reject this file — exactly what the torn-write tests assert.
        failpoints::fire("snapshot.write.torn");
        if failpoints::is_armed("snapshot.write.torn") {
            let keep = bytes.len().saturating_sub(bytes.len() / 3 + 1);
            bytes.truncate(keep);
        }

        let tmp = tmp_path(path);
        {
            let mut f =
                fs::File::create(&tmp).map_err(|e| io_err("creating the snapshot temp file", e))?;
            f.write_all(&bytes)
                .map_err(|e| io_err("writing the snapshot temp file", e))?;
            f.sync_all()
                .map_err(|e| io_err("fsyncing the snapshot temp file", e))?;
        }

        // Crash-before-rename fault: the process dies after the temp
        // fsync. The final path is untouched (old snapshot or nothing);
        // the stray temp file is ignored by opens.
        failpoints::fire("snapshot.write.crash-before-rename");
        if failpoints::is_armed("snapshot.write.crash-before-rename") {
            return Err(io_err(
                "renaming the snapshot (simulated crash before rename)",
                std::io::Error::new(std::io::ErrorKind::Interrupted, "failpoint"),
            ));
        }

        fs::rename(&tmp, path).map_err(|e| io_err("renaming the snapshot into place", e))?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                // Persist the rename itself; without this a crash can
                // roll the directory entry back to the old file.
                if let Ok(dir) = fs::File::open(parent) {
                    let _ = dir.sync_all();
                }
            }
        }
        Ok(())
    }
}

/// Sibling temp path a write stages into.
fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(TMP_SUFFIX);
    std::path::PathBuf::from(s)
}

/// A validated, fully-read snapshot: every checksum (header, each
/// section, commit) verified before any section is reachable.
#[derive(Debug)]
pub struct SnapshotReader {
    table_hash: u64,
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotReader {
    /// Opens and validates `path`. `expected_table_hash` is the
    /// fingerprint of the *current* table content + configuration; a
    /// structurally-valid snapshot of different content is rejected as
    /// [`SnapshotError::StaleTableHash`]. Structural checks run first,
    /// so damage reports as damage and drift as drift.
    pub fn open(path: &Path, expected_table_hash: u64) -> Result<Self, SnapshotError> {
        let mut f = fs::File::open(path).map_err(|e| io_err("opening the snapshot", e))?;
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)
            .map_err(|e| io_err("reading the snapshot", e))?;

        // Short-read fault: the reader observes a prefix of the file.
        failpoints::fire("snapshot.open.short-read");
        if failpoints::is_armed("snapshot.open.short-read") {
            bytes.truncate(bytes.len() / 2);
        }

        Self::from_bytes(&bytes, expected_table_hash)
    }

    /// Validates a snapshot byte image (the testable core of
    /// [`SnapshotReader::open`]).
    pub fn from_bytes(bytes: &[u8], expected_table_hash: u64) -> Result<Self, SnapshotError> {
        // Header: magic, version, table hash, section count, CRC.
        if bytes.len() < MAGIC.len() {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let mut cur = Cursor {
            bytes,
            pos: MAGIC.len(),
        };
        let version = cur.take_u32()?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let table_hash = cur.take_u64()?;
        let n_sections = cur.take_u32()?;
        let header_crc = crc32c(&bytes[..cur.pos]);
        if cur.take_u32()? != header_crc {
            return Err(SnapshotError::ChecksumMismatch {
                section: "header".to_string(),
            });
        }

        // Sections. (Capacity is clamped: a re-sealed header declaring
        // billions of sections still fails `Truncated` below, and must
        // not pre-allocate proportionally to the lie.)
        let mut sections = Vec::with_capacity((n_sections as usize).min(1024));
        for _ in 0..n_sections {
            let name_len = cur.take_u16()? as usize;
            let name_bytes = cur.take_bytes(name_len)?;
            let payload_len = cur.take_u64()?;
            let payload_len = usize::try_from(payload_len).map_err(|_| SnapshotError::Truncated)?;
            let payload = cur.take_bytes(payload_len)?;
            // Checksum before interpretation: a flipped bit inside the
            // name must report as the damage it is, not as a strange
            // name.
            let mut crc = Crc32c::new();
            crc.update(name_bytes);
            crc.update(payload);
            let stored = cur.take_u32()?;
            if stored != crc.finish() {
                return Err(SnapshotError::ChecksumMismatch {
                    section: String::from_utf8_lossy(name_bytes).into_owned(),
                });
            }
            // A checksum-valid non-UTF-8 name can only come from a
            // different encoder (the writer only emits string names).
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| SnapshotError::Corrupt {
                    section: "<section name>".to_string(),
                })?
                .to_string();
            sections.push((name, payload.to_vec()));
        }

        // Commit record: CRC of everything before it, and nothing after.
        let commit_at = cur.pos;
        let stored_commit = cur.take_u32()?;
        if stored_commit != crc32c(&bytes[..commit_at]) {
            return Err(SnapshotError::ChecksumMismatch {
                section: "commit".to_string(),
            });
        }
        if cur.pos != bytes.len() {
            // Trailing garbage means the file is not the image the
            // commit CRC covered.
            return Err(SnapshotError::ChecksumMismatch {
                section: "commit".to_string(),
            });
        }

        // Structure is sound; now check it describes *this* content.
        if table_hash != expected_table_hash {
            return Err(SnapshotError::StaleTableHash {
                found: table_hash,
                expected: expected_table_hash,
            });
        }

        Ok(Self {
            table_hash,
            sections,
        })
    }

    /// The content fingerprint the snapshot was stamped with.
    pub fn table_hash(&self) -> u64 {
        self.table_hash
    }

    /// Section names in file order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// Payload of the named section, if present.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_slice())
    }

    /// Payload of a section the format requires;
    /// [`SnapshotError::Corrupt`] when absent.
    pub fn expect_section(&self, name: &str) -> Result<&[u8], SnapshotError> {
        self.section(name).ok_or_else(|| SnapshotError::Corrupt {
            section: name.to_string(),
        })
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn take_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take_bytes(2)?.try_into().unwrap()))
    }

    fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take_bytes(4)?.try_into().unwrap()))
    }

    fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take_bytes(8)?.try_into().unwrap()))
    }
}

/// Little-endian payload encoding/decoding helpers for snapshot
/// *sections* — the ER encoder builds every section payload with
/// [`wire::PayloadWriter`] and reads it back with
/// [`wire::PayloadReader`], which
/// turns any out-of-bounds read into [`SnapshotError::Truncated`]
/// instead of a panic.
pub mod wire {
    use super::SnapshotError;

    /// Appends little-endian primitives to a section payload.
    #[derive(Debug, Default)]
    pub struct PayloadWriter {
        buf: Vec<u8>,
    }

    impl PayloadWriter {
        /// Creates an empty payload.
        pub fn new() -> Self {
            Self::default()
        }

        /// Appends one byte.
        pub fn put_u8(&mut self, v: u8) {
            self.buf.push(v);
        }

        /// Appends a `u32` little-endian.
        pub fn put_u32(&mut self, v: u32) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        /// Appends a `u64` little-endian.
        pub fn put_u64(&mut self, v: u64) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        /// Appends a `u32` slice as a length prefix plus raw LE words.
        pub fn put_u32_slice(&mut self, vals: &[u32]) {
            self.put_u64(vals.len() as u64);
            for &v in vals {
                self.put_u32(v);
            }
        }

        /// Finishes the payload.
        pub fn into_bytes(self) -> Vec<u8> {
            self.buf
        }
    }

    /// Reads little-endian primitives back out of a section payload;
    /// every read is bounds-checked into [`SnapshotError::Truncated`].
    #[derive(Debug)]
    pub struct PayloadReader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> PayloadReader<'a> {
        /// Wraps a section payload.
        pub fn new(bytes: &'a [u8]) -> Self {
            Self { bytes, pos: 0 }
        }

        /// Whether every byte has been consumed — decoders assert this
        /// so a payload with trailing garbage is rejected, not ignored.
        pub fn is_exhausted(&self) -> bool {
            self.pos == self.bytes.len()
        }

        /// Takes `n` raw bytes.
        pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
            let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
            if end > self.bytes.len() {
                return Err(SnapshotError::Truncated);
            }
            let out = &self.bytes[self.pos..end];
            self.pos = end;
            Ok(out)
        }

        /// Takes one byte.
        pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
            Ok(self.take_bytes(1)?[0])
        }

        /// Takes a little-endian `u32`.
        pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
            Ok(u32::from_le_bytes(self.take_bytes(4)?.try_into().unwrap()))
        }

        /// Takes a little-endian `u64`.
        pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
            Ok(u64::from_le_bytes(self.take_bytes(8)?.try_into().unwrap()))
        }

        /// Takes a `u64` length and validates it against the remaining
        /// bytes assuming `elem_size`-byte elements, so a corrupt length
        /// can never trigger a huge allocation.
        pub fn take_len(&mut self, elem_size: usize) -> Result<usize, SnapshotError> {
            let n = self.take_u64()?;
            let n = usize::try_from(n).map_err(|_| SnapshotError::Truncated)?;
            let need = n.checked_mul(elem_size).ok_or(SnapshotError::Truncated)?;
            if need > self.bytes.len() - self.pos {
                return Err(SnapshotError::Truncated);
            }
            Ok(n)
        }

        /// Takes a length-prefixed `u32` slice (inverse of
        /// [`PayloadWriter::put_u32_slice`]).
        pub fn take_u32_vec(&mut self) -> Result<Vec<u32>, SnapshotError> {
            let n = self.take_len(4)?;
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(self.take_u32()?);
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotWriter {
        let mut w = SnapshotWriter::new(0xDEAD_BEEF_CAFE_F00D);
        w.section("alpha", b"hello".to_vec());
        w.section("beta", vec![]);
        w.section("gamma", (0u8..=255).collect());
        w
    }

    #[test]
    fn round_trip_in_memory() {
        let bytes = sample().to_bytes();
        let r = SnapshotReader::from_bytes(&bytes, 0xDEAD_BEEF_CAFE_F00D).unwrap();
        assert_eq!(r.table_hash(), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(r.section("alpha"), Some(&b"hello"[..]));
        assert_eq!(r.section("beta"), Some(&[][..]));
        assert_eq!(r.section("gamma").unwrap().len(), 256);
        assert_eq!(r.section("delta"), None);
        assert!(r.expect_section("delta").is_err());
        let names: Vec<&str> = r.section_names().collect();
        assert_eq!(names, ["alpha", "beta", "gamma"]);
    }

    #[test]
    fn round_trip_on_disk() {
        // A QUERYER_FAILPOINT spec can arm the snapshot crash sites
        // process-wide; this test asserts a clean round trip, so it runs
        // with those sites disarmed (surgically — other sites keep their
        // env arming; no-op without the feature).
        for site in [
            "snapshot.write.torn",
            "snapshot.write.crash-before-rename",
            "snapshot.open.short-read",
        ] {
            failpoints::disarm(site);
        }
        let dir = std::env::temp_dir().join(format!("qer-snap-test-{}", std::process::id()));
        let path = dir.join("t.snap");
        sample().write_to(&path).unwrap();
        let r = SnapshotReader::open(&path, 0xDEAD_BEEF_CAFE_F00D).unwrap();
        assert_eq!(r.section("alpha"), Some(&b"hello"[..]));
        // No temp file is left behind after a clean commit.
        assert!(!tmp_path(&path).exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_hash_is_typed_after_structure_validates() {
        let bytes = sample().to_bytes();
        match SnapshotReader::from_bytes(&bytes, 1) {
            Err(SnapshotError::StaleTableHash { found, expected }) => {
                assert_eq!(found, 0xDEAD_BEEF_CAFE_F00D);
                assert_eq!(expected, 1);
            }
            other => panic!("expected StaleTableHash, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_version_skew() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            SnapshotReader::from_bytes(&bytes, 0xDEAD_BEEF_CAFE_F00D),
            Err(SnapshotError::BadMagic)
        ));

        // Version skew: patch the version field and re-seal both CRCs so
        // only the version differs.
        let mut w = sample().to_bytes();
        w[8..12].copy_from_slice(&99u32.to_le_bytes());
        let header_crc = crc32c(&w[..24]);
        w[24..28].copy_from_slice(&header_crc.to_le_bytes());
        let end = w.len() - 4;
        let commit = crc32c(&w[..end]);
        w[end..].copy_from_slice(&commit.to_le_bytes());
        assert!(matches!(
            SnapshotReader::from_bytes(&w, 0xDEAD_BEEF_CAFE_F00D),
            Err(SnapshotError::VersionMismatch {
                found: 99,
                expected: FORMAT_VERSION
            })
        ));
    }

    #[test]
    fn every_truncation_point_is_detected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = SnapshotReader::from_bytes(&bytes[..cut], 0xDEAD_BEEF_CAFE_F00D)
                .expect_err("truncated snapshot must never validate");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated
                        | SnapshotError::BadMagic
                        | SnapshotError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = sample().to_bytes();
        for byte in 0..bytes.len() {
            let mut dam = bytes.clone();
            dam[byte] ^= 0x01;
            assert!(
                SnapshotReader::from_bytes(&dam, 0xDEAD_BEEF_CAFE_F00D).is_err(),
                "bit flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(matches!(
            SnapshotReader::from_bytes(&bytes, 0xDEAD_BEEF_CAFE_F00D),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_length_never_overallocates() {
        // A payload declaring 2^60 elements must fail fast on the
        // length check, not attempt the allocation.
        let mut w = wire::PayloadWriter::new();
        w.put_u64(1u64 << 60);
        let bytes = w.into_bytes();
        let mut r = wire::PayloadReader::new(&bytes);
        assert!(matches!(r.take_len(8), Err(SnapshotError::Truncated)));
    }

    #[test]
    fn payload_wire_round_trip() {
        let mut w = wire::PayloadWriter::new();
        w.put_u8(7);
        w.put_u32(0xABCD);
        w.put_u64(u64::MAX - 1);
        w.put_u32_slice(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = wire::PayloadReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xABCD);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.take_u32_vec().unwrap(), vec![1, 2, 3]);
        assert!(r.is_exhausted());
    }
}
