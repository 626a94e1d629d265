//! Checksums for the on-disk snapshot format.
//!
//! Two hand-rolled primitives (the build is offline, so no external
//! crates): CRC-32C (Castagnoli polynomial, table-driven) guards a
//! snapshot file against bit rot and torn writes, and FNV-1a 64
//! fingerprints table content + decision-relevant configuration so a
//! stale snapshot is detected instead of served.

/// CRC-32C (Castagnoli) lookup table, built at compile time.
static CRC32C_TABLE: [u32; 256] = build_crc32c_table();

const fn build_crc32c_table() -> [u32; 256] {
    // Reflected Castagnoli polynomial.
    const POLY: u32 = 0x82F6_3B78;
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32C of `bytes`.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32C_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64 hasher for content fingerprints. Not
/// collision-resistant against adversaries — it detects *drift*
/// (changed table content or configuration), not tampering.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Absorbs `bytes` into the fingerprint.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    /// Absorbs a length-prefixed byte string, so `("ab","c")` and
    /// `("a","bc")` fingerprint differently.
    #[inline]
    pub fn update_framed(&mut self, bytes: &[u8]) {
        self.update(&(bytes.len() as u64).to_le_bytes());
        self.update(bytes);
    }

    /// Absorbs a `u64` in little-endian byte order.
    #[inline]
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Returns the final fingerprint.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_known_vectors() {
        // Published CRC-32C test vectors.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(
            crc32c(b"The quick brown fox jumps over the lazy dog"),
            0x2262_0404
        );
    }

    #[test]
    fn crc32c_detects_single_bit_flip() {
        let mut data = vec![0u8; 256];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i * 7) as u8;
        }
        let base = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32c(&data), base, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn fnv_known_vectors() {
        // Published FNV-1a 64 test vectors.
        let fnv = |bytes: &[u8]| {
            let mut h = Fnv64::new();
            h.update(bytes);
            h.finish()
        };
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_framing_disambiguates_boundaries() {
        let mut a = Fnv64::new();
        a.update_framed(b"ab");
        a.update_framed(b"c");
        let mut b = Fnv64::new();
        b.update_framed(b"a");
        b.update_framed(b"bc");
        assert_ne!(a.finish(), b.finish());
    }
}
