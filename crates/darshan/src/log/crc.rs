//! CRC-32 (IEEE 802.3 polynomial) used to checksum log regions.
//!
//! [`Crc32::update`] runs slicing-by-8: eight 256-entry tables let it
//! fold eight input bytes per step with eight independent lookups
//! instead of a chain of eight dependent ones. The polynomial and the
//! bit order are the classic bytewise CRC-32's, so every checksum is
//! the same.

/// Streaming CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

const POLY: u32 = 0xedb8_8320;

/// `t[0]` is the bytewise table; `t[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            }
        }
        t
    })
}

impl Crc32 {
    /// Start a new hash.
    #[must_use]
    pub fn new() -> Self {
        Crc32 { state: 0xffff_ffff }
    }

    /// Feed bytes into the hash.
    pub fn update(&mut self, data: &[u8]) {
        let t = tables();
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xff) as usize]
                ^ t[2][((hi >> 8) & 0xff) as usize]
                ^ t[1][((hi >> 16) & 0xff) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        self.state = crc;
    }

    /// Finish and return the checksum.
    #[must_use]
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xffff_ffff
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of a byte slice.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_test_vectors() {
        // Standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32::new();
        c.update(&data[..10]);
        c.update(&data[10..]);
        assert_eq!(c.finalize(), crc32(data));
    }

    /// The plain bytewise loop: the oracle slicing-by-8 must agree with.
    fn bytewise(state: u32, data: &[u8]) -> u32 {
        let t = &tables()[0];
        data.iter().fold(state, |crc, &b| {
            (crc >> 8) ^ t[((crc ^ u32::from(b)) & 0xff) as usize]
        })
    }

    fn oracle(data: &[u8]) -> u32 {
        bytewise(0xffff_ffff, data) ^ 0xffff_ffff
    }

    /// A deterministic byte pattern (xorshift64).
    fn pattern(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn slicing_by_8_matches_bytewise_at_every_length_and_alignment() {
        let data = pattern(1_100 + 8, 0x9e37_79b9);
        for start in 0..8 {
            for len in 0..=1_100 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), oracle(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn split_updates_match_one_shot() {
        let small = pattern(100, 7);
        for split in 0..=small.len() {
            let mut c = Crc32::new();
            c.update(&small[..split]);
            c.update(&small[split..]);
            assert_eq!(c.finalize(), oracle(&small), "split at {split}");
        }
        let big = pattern(64 << 10, 11);
        let want = oracle(&big);
        for seed in 1..=8 {
            // Seeded split points, 1..=2,048 bytes apart.
            let draws = pattern(2 * big.len(), seed);
            let mut steps = draws
                .chunks_exact(2)
                .map(|p| 1 + ((usize::from(p[0]) << 3) | (usize::from(p[1]) & 7)));
            let mut c = Crc32::new();
            let mut pos = 0;
            while pos < big.len() {
                let end = (pos + steps.next().unwrap()).min(big.len());
                c.update(&big[pos..end]);
                pos = end;
            }
            assert_eq!(c.finalize(), want, "seed {seed}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 64];
        let before = crc32(&data);
        data[17] ^= 0x04;
        assert_ne!(before, crc32(&data));
    }
}
