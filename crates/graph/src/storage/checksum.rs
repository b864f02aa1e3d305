//! Dependency-free CRC32 (IEEE 802.3 polynomial, reflected) used by the
//! storage manifests, build journals, and round checkpoints.
//!
//! The implementation is slicing-by-8 (Kounavis & Berry, ISCC 2005):
//! eight 256-entry tables built at compile time fold eight input bytes
//! per step, and a trailing partial word goes through the classic
//! byte-at-a-time walk of the first table. Same polynomial, same digests
//! as the byte-at-a-time walk (a unit test pins the two together), so
//! manifests, journals and checkpoints written by either verify under
//! the other. No external crate, no allocation, deterministic by
//! construction. It exists for **corruption detection** (torn writes,
//! truncated shards, bit rot), not authentication.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// The slicing-by-8 tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k][b]` is the CRC contribution
/// of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        // lint: allow(cast, "i < 256, and TryFrom is not usable in a const initializer")
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
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            // lint: allow(cast, "masked to 8 bits, so always < 256")
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
};

/// Folds one byte into a (pre-inverted) CRC register.
#[inline]
fn byte_step(crc: u32, b: u8) -> u32 {
    let [low, ..] = crc.to_le_bytes();
    (crc >> 8) ^ TABLES[0][usize::from(low ^ b)]
}

/// Incremental CRC32 state: feed bytes with [`Crc32::update`], read the
/// digest with [`Crc32::finish`].
///
/// ```rust
/// use decolor_graph::storage::Crc32;
/// let mut a = Crc32::new();
/// a.update(b"hello ");
/// a.update(b"world");
/// assert_eq!(a.finish(), decolor_graph::storage::crc32(b"hello world"));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Crc32(u32);

impl Crc32 {
    /// Fresh state (empty input digests to 0).
    pub fn new() -> Crc32 {
        Crc32(0)
    }

    /// Folds `bytes` into the running checksum, eight bytes per step.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = !self.0;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let [a, b, c, d] = (crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]])).to_le_bytes();
            crc = TABLES[7][usize::from(a)]
                ^ TABLES[6][usize::from(b)]
                ^ TABLES[5][usize::from(c)]
                ^ TABLES[4][usize::from(d)]
                ^ TABLES[3][usize::from(w[4])]
                ^ TABLES[2][usize::from(w[5])]
                ^ TABLES[1][usize::from(w[6])]
                ^ TABLES[0][usize::from(w[7])];
        }
        for &b in words.remainder() {
            crc = byte_step(crc, b);
        }
        self.0 = !crc;
    }

    /// The digest of everything fed so far (the state stays usable).
    pub fn finish(&self) -> u32 {
        self.0
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table walk slicing-by-8 replaces, kept as its
    /// oracle.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0u32, |crc, &b| byte_step(crc, b))
    }

    /// Deterministic test bytes (an xorshift stream).
    fn bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()[3]
            })
            .collect()
    }

    #[test]
    fn slicing_by_8_matches_reference_at_every_short_length() {
        let data = bytes(64 + 8, 0x5EED);
        for len in 0..=64 {
            // Every start offset within a word: unaligned slices too.
            for start in 0..8 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_reference(s), "len {len}, start {start}");
            }
        }
    }

    #[test]
    fn slicing_by_8_matches_reference_over_random_splits() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            usize::try_from(x % bound).unwrap()
        };
        for trial in 0..200u64 {
            let data = bytes(next(3000) + 1, trial);
            let mut inc = Crc32::new();
            let mut at = 0;
            while at < data.len() {
                let take = next(40).min(data.len() - at);
                inc.update(&data[at..at + take]);
                at += take;
            }
            assert_eq!(inc.finish(), crc32_reference(&data), "trial {trial}");
        }
    }

    #[test]
    fn matches_known_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut inc = Crc32::new();
        for chunk in data.chunks(97) {
            inc.update(chunk);
        }
        assert_eq!(inc.finish(), crc32(&data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0x5Au8; 4096];
        let clean = crc32(&data);
        data[2048] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }
}
