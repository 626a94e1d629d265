//! Crash-safe framing for the ER snapshot file.
//!
//! This is the on-disk layer under the ER snapshot (the persisted Link
//! Index): one payload in one file, stamped and checksummed so that
//! every way a file can be damaged — truncation, bit rot, a torn write,
//! a version or content mismatch — is *detected at open* and surfaced
//! as a typed [`SnapshotError`] instead of ever being served. A caller
//! of the ER snapshot turns any open failure into a fallback to an
//! empty Link Index.
//!
//! # File layout
//!
//! ```text
//! magic            8 bytes   b"QERSNAP1"
//! format version   u32 LE    bumped on any layout change
//! fingerprint      u64 LE    caller-supplied content fingerprint
//! payload length   u64 LE
//! payload          bytes
//! CRC              u32 LE    CRC-32C of every byte above
//! ```
//!
//! The trailing CRC doubles as the commit record: a write that died
//! mid-file cannot have a valid CRC, so a torn write is
//! indistinguishable from (and handled like) corruption.
//!
//! # Write protocol
//!
//! [`write_snapshot`] is crash-atomic: the bytes go to a sibling temp
//! file, the temp file is fsynced, renamed over the final path, and the
//! directory is fsynced. A crash at any point leaves either the old
//! snapshot, no snapshot, or a stray `*.tmp` (ignored by opens) — never
//! a half-written file at the final path. Three failpoint sites make
//! the crash windows testable: `snapshot.write.torn` (payload truncated
//! but committed anyway, i.e. a disk lying about a completed write),
//! `snapshot.write.crash-before-rename` (die after the temp fsync), and
//! `snapshot.open.short-read` (reader sees a prefix of the file).

use queryer_common::checksum::crc32c;
use queryer_common::failpoints;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"QERSNAP1";

/// Current snapshot format version. Bump on any layout change — an
/// older or newer file then reopens as [`SnapshotError::VersionMismatch`]
/// and the caller discards the file.
pub const FORMAT_VERSION: u32 = 2;

/// Bytes before the payload: magic, version, fingerprint, length.
const HEADER_LEN: usize = MAGIC.len() + 4 + 8 + 8;

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
    /// The CRC did not validate, or bytes follow it — bit rot, a torn
    /// write, or any other in-place damage.
    ChecksumMismatch,
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
    /// The payload passed the CRC but failed semantic validation (e.g.
    /// an id out of range) — only reachable via a checksum collision or
    /// an encoder bug, but never served.
    Corrupt,
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
            SnapshotError::ChecksumMismatch => write!(f, "snapshot: checksum mismatch"),
            SnapshotError::StaleTableHash { found, expected } => write!(
                f,
                "snapshot: stale table hash {found:#018x} (current content is {expected:#018x})"
            ),
            SnapshotError::Truncated => write!(f, "snapshot: file truncated"),
            SnapshotError::Corrupt => write!(f, "snapshot: payload failed validation"),
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

fn io_err(context: &str, source: std::io::Error) -> SnapshotError {
    SnapshotError::Io {
        context: context.to_string(),
        source,
    }
}

/// The final byte image of a snapshot: header, payload, trailing CRC.
fn frame(fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32c(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Writes `payload` to `path` crash-atomically, stamped with the
/// caller's content `fingerprint`: stage into a sibling `*.tmp`, fsync
/// it, rename over `path`, fsync the parent directory. Creates missing
/// parent directories.
pub fn write_snapshot(path: &Path, fingerprint: u64, payload: &[u8]) -> Result<(), SnapshotError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(|e| io_err("creating the snapshot directory", e))?;
        }
    }
    let mut bytes = frame(fingerprint, payload);

    // Torn-write fault: the disk "commits" a prefix of the file. The
    // CRC can then never validate, so the open path must reject this
    // file — exactly what the torn-write tests assert.
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

    // Crash-before-rename fault: the process dies after the temp fsync.
    // The final path is untouched (old snapshot or nothing); the stray
    // temp file is ignored by opens.
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
            // Persist the rename itself; without this a crash can roll
            // the directory entry back to the old file.
            if let Ok(dir) = fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    Ok(())
}

/// Sibling temp path a write stages into.
fn tmp_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(TMP_SUFFIX);
    PathBuf::from(s)
}

/// Opens `path`, validates it in full and returns its payload.
/// `expected_fingerprint` is the fingerprint of the *current* content
/// and configuration; a structurally valid snapshot of different
/// content is rejected as [`SnapshotError::StaleTableHash`].
pub fn read_snapshot(path: &Path, expected_fingerprint: u64) -> Result<Vec<u8>, SnapshotError> {
    let mut bytes = fs::read(path).map_err(|e| io_err("reading the snapshot", e))?;

    // Short-read fault: the reader observes a prefix of the file.
    failpoints::fire("snapshot.open.short-read");
    if failpoints::is_armed("snapshot.open.short-read") {
        bytes.truncate(bytes.len() / 2);
    }

    unframe(&bytes, expected_fingerprint).map(<[u8]>::to_vec)
}

/// Validates a snapshot byte image and returns its payload (the
/// testable core of [`read_snapshot`]). Structural checks run first, so
/// damage reports as damage and drift as drift.
fn unframe(bytes: &[u8], expected_fingerprint: u64) -> Result<&[u8], SnapshotError> {
    if bytes.len() < MAGIC.len() {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut r = PayloadReader::new(&bytes[MAGIC.len()..]);
    let version = r.take_u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let fingerprint = r.take_u64()?;
    let len = r.take_len(1)?;
    let payload = r.take_bytes(len)?;
    // The CRC covers everything before it, and nothing may follow it:
    // trailing bytes mean the file is not the image the CRC sealed.
    if r.take_u32()? != crc32c(&bytes[..HEADER_LEN + len]) || !r.is_exhausted() {
        return Err(SnapshotError::ChecksumMismatch);
    }

    // Structure is sound; now check it describes *this* content.
    if fingerprint != expected_fingerprint {
        return Err(SnapshotError::StaleTableHash {
            found: fingerprint,
            expected: expected_fingerprint,
        });
    }
    Ok(payload)
}

/// Reads little-endian primitives out of a byte image; every read is
/// bounds-checked into [`SnapshotError::Truncated`] instead of a panic.
/// The framing above and the ER payload decoder both read through it.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Wraps a byte image.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Whether every byte has been consumed — decoders assert this so a
    /// payload with trailing garbage is rejected, not ignored.
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
    /// bytes assuming `elem_size`-byte elements, so a corrupt length can
    /// never trigger a huge allocation.
    pub fn take_len(&mut self, elem_size: usize) -> Result<usize, SnapshotError> {
        let n = self.take_u64()?;
        let n = usize::try_from(n).map_err(|_| SnapshotError::Truncated)?;
        let need = n.checked_mul(elem_size).ok_or(SnapshotError::Truncated)?;
        if need > self.bytes.len() - self.pos {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    /// Takes a `u64` length prefix and that many little-endian `u32`s.
    pub fn take_u32_vec(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let n = self.take_len(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.take_u32()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FP: u64 = 0xDEAD_BEEF_CAFE_F00D;

    fn payload() -> Vec<u8> {
        (0u8..=255).chain(*b"hello").collect()
    }

    fn sample() -> Vec<u8> {
        frame(FP, &payload())
    }

    /// Overwrites the trailing CRC so it seals the (patched) bytes
    /// before it again.
    fn reseal(image: &mut [u8]) {
        let end = image.len() - 4;
        let crc = crc32c(&image[..end]);
        image[end..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn round_trip_in_memory() {
        assert_eq!(unframe(&sample(), FP).unwrap(), &payload()[..]);
        assert_eq!(unframe(&frame(FP, &[]), FP).unwrap(), &[] as &[u8]);
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
        write_snapshot(&path, FP, &payload()).unwrap();
        assert_eq!(read_snapshot(&path, FP).unwrap(), payload());
        // No temp file is left behind after a clean commit.
        assert!(!tmp_path(&path).exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_hash_is_typed_after_structure_validates() {
        match unframe(&sample(), 1) {
            Err(SnapshotError::StaleTableHash { found, expected }) => {
                assert_eq!(found, FP);
                assert_eq!(expected, 1);
            }
            other => panic!("expected StaleTableHash, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_version_skew() {
        let mut bytes = sample();
        bytes[0] ^= 0xFF;
        assert!(matches!(unframe(&bytes, FP), Err(SnapshotError::BadMagic)));

        // Version skew: patch the version field and re-seal the CRC so
        // only the version differs.
        let mut w = sample();
        w[8..12].copy_from_slice(&99u32.to_le_bytes());
        reseal(&mut w);
        assert!(matches!(
            unframe(&w, FP),
            Err(SnapshotError::VersionMismatch {
                found: 99,
                expected: FORMAT_VERSION
            })
        ));
    }

    /// A file in the version-1 sectioned layout (a header CRC, then per
    /// section a u16-framed name, the payload and a section CRC, then a
    /// commit CRC) reopens as a version mismatch, not as damage.
    #[test]
    fn v1_sectioned_image_is_a_version_mismatch() {
        let name = b"links";
        let mut v1 = Vec::new();
        v1.extend_from_slice(&MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&FP.to_le_bytes());
        v1.extend_from_slice(&1u32.to_le_bytes());
        let header_crc = crc32c(&v1);
        v1.extend_from_slice(&header_crc.to_le_bytes());
        v1.extend_from_slice(&(name.len() as u16).to_le_bytes());
        v1.extend_from_slice(name);
        v1.extend_from_slice(&(payload().len() as u64).to_le_bytes());
        v1.extend_from_slice(&payload());
        let section_crc = crc32c(&[&name[..], &payload()].concat());
        v1.extend_from_slice(&section_crc.to_le_bytes());
        let commit = crc32c(&v1);
        v1.extend_from_slice(&commit.to_le_bytes());
        assert!(matches!(
            unframe(&v1, FP),
            Err(SnapshotError::VersionMismatch {
                found: 1,
                expected: FORMAT_VERSION
            })
        ));
    }

    #[test]
    fn every_truncation_point_is_detected() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let err =
                unframe(&bytes[..cut], FP).expect_err("truncated snapshot must never validate");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated
                        | SnapshotError::BadMagic
                        | SnapshotError::ChecksumMismatch
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = sample();
        for byte in 0..bytes.len() {
            let mut dam = bytes.clone();
            dam[byte] ^= 0x01;
            assert!(
                unframe(&dam, FP).is_err(),
                "bit flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample();
        bytes.push(0);
        assert!(matches!(
            unframe(&bytes, FP),
            Err(SnapshotError::ChecksumMismatch)
        ));
    }

    #[test]
    fn corrupt_length_never_overallocates() {
        // A payload declaring 2^60 elements must fail fast on the
        // length check, not attempt the allocation.
        let bytes = (1u64 << 60).to_le_bytes();
        let mut r = PayloadReader::new(&bytes);
        assert!(matches!(r.take_len(8), Err(SnapshotError::Truncated)));

        // So must a re-sealed frame whose payload length is a lie.
        let mut w = sample();
        w[20..28].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal(&mut w);
        assert!(matches!(unframe(&w, FP), Err(SnapshotError::Truncated)));
    }

    #[test]
    fn payload_reader_round_trip() {
        let mut bytes = vec![7u8];
        bytes.extend_from_slice(&0xABCDu32.to_le_bytes());
        bytes.extend_from_slice(&(u64::MAX - 1).to_le_bytes());
        bytes.extend_from_slice(&3u64.to_le_bytes());
        for v in [1u32, 2, 3] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xABCD);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.take_u32_vec().unwrap(), vec![1, 2, 3]);
        assert!(r.is_exhausted());
    }
}
