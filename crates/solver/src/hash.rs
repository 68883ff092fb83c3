//! A fixed-key, cross-process stable hasher.
//!
//! `std::collections::hash_map::DefaultHasher` documents its algorithm as
//! unspecified — it may change between Rust releases, and `RandomState`
//! variants change between *processes*. Anything persisted to disk must
//! therefore be hashed by an algorithm we own. [`StableHasher`] is an
//! in-repo SipHash-2-4 with compile-time-fixed keys and width-normalised
//! integer writes:
//!
//! - every `write_uN`/`write_iN` feeds the value's little-endian bytes at
//!   its declared width, and
//! - `write_usize`/`write_isize` are normalised to 64 bits,
//!
//! so a given byte/value stream hashes identically on every platform,
//! every process, and every Rust release. Bump `CACHE_FORMAT_VERSION` in
//! `proof-cache` if the keys or the algorithm ever change — old records
//! must not be trusted across a hash change.

use std::hash::{Hash, Hasher};

// Fixed SipHash keys ("GillianR", "ustProof"). Changing them invalidates
// every persisted proof-cache record; bump its format version if you do.
const KEY0: u64 = 0x4769_6c6c_6961_6e52;
const KEY1: u64 = 0x7573_7450_726f_6f66;

/// SipHash-2-4 with fixed keys. See the module docs for the stability
/// contract.
#[derive(Clone, Debug)]
pub struct StableHasher {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    /// Unprocessed trailing bytes, packed little-endian.
    tail: u64,
    /// Number of valid bytes in `tail` (0..8).
    ntail: usize,
    /// Total bytes fed so far.
    length: u64,
}

macro_rules! sip_round {
    ($v0:expr, $v1:expr, $v2:expr, $v3:expr) => {{
        $v0 = $v0.wrapping_add($v1);
        $v1 = $v1.rotate_left(13);
        $v1 ^= $v0;
        $v0 = $v0.rotate_left(32);
        $v2 = $v2.wrapping_add($v3);
        $v3 = $v3.rotate_left(16);
        $v3 ^= $v2;
        $v0 = $v0.wrapping_add($v3);
        $v3 = $v3.rotate_left(21);
        $v3 ^= $v0;
        $v2 = $v2.wrapping_add($v1);
        $v1 = $v1.rotate_left(17);
        $v1 ^= $v2;
        $v2 = $v2.rotate_left(32);
    }};
}

impl StableHasher {
    pub fn new() -> StableHasher {
        StableHasher {
            v0: KEY0 ^ 0x736f_6d65_7073_6575,
            v1: KEY1 ^ 0x646f_7261_6e64_6f6d,
            v2: KEY0 ^ 0x6c79_6765_6e65_7261,
            v3: KEY1 ^ 0x7465_6462_7974_6573,
            tail: 0,
            ntail: 0,
            length: 0,
        }
    }

    /// One-shot convenience: the stable hash of a single `Hash` value.
    pub fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = StableHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[inline]
    fn compress(&mut self, m: u64) {
        self.v3 ^= m;
        sip_round!(self.v0, self.v1, self.v2, self.v3);
        sip_round!(self.v0, self.v1, self.v2, self.v3);
        self.v0 ^= m;
    }
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::new()
    }
}

impl Hasher for StableHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.length = self.length.wrapping_add(bytes.len() as u64);
        let mut rest = bytes;
        if self.ntail > 0 {
            let need = 8 - self.ntail;
            let take = need.min(rest.len());
            for (i, b) in rest[..take].iter().enumerate() {
                self.tail |= u64::from(*b) << (8 * (self.ntail + i));
            }
            self.ntail += take;
            rest = &rest[take..];
            if self.ntail < 8 {
                return;
            }
            let m = self.tail;
            self.compress(m);
            self.tail = 0;
            self.ntail = 0;
        }
        let mut chunks = rest.chunks_exact(8);
        for chunk in &mut chunks {
            let m = u64::from_le_bytes(chunk.try_into().unwrap());
            self.compress(m);
        }
        for (i, b) in chunks.remainder().iter().enumerate() {
            self.tail |= u64::from(*b) << (8 * i);
        }
        self.ntail = chunks.remainder().len();
    }

    fn finish(&self) -> u64 {
        let mut v0 = self.v0;
        let mut v1 = self.v1;
        let mut v2 = self.v2;
        let mut v3 = self.v3;
        let b = ((self.length & 0xff) << 56) | self.tail;
        v3 ^= b;
        sip_round!(v0, v1, v2, v3);
        sip_round!(v0, v1, v2, v3);
        v0 ^= b;
        v2 ^= 0xff;
        sip_round!(v0, v1, v2, v3);
        sip_round!(v0, v1, v2, v3);
        sip_round!(v0, v1, v2, v3);
        sip_round!(v0, v1, v2, v3);
        v0 ^ v1 ^ v2 ^ v3
    }

    // Width-normalised integer writes: fixed little-endian byte streams,
    // identical on every platform.

    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }
    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }
    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as i64 as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors from the SipHash paper (appendix A): key
    /// 0x0f0e..00, input 0x00, 0x0001, ... This checks the core algorithm
    /// independently of our fixed keys.
    #[test]
    fn matches_siphash_2_4_reference_vectors() {
        // Expected outputs for inputs of length 0..8 from the reference
        // implementation with k = 000102..0f.
        const EXPECTED: [u64; 8] = [
            0x726fdb47dd0e0e31,
            0x74f839c593dc67fd,
            0x0d6c8009d9a94f5a,
            0x85676696d7fb7e2d,
            0xcf2794e0277187b7,
            0x18765564cd99a68d,
            0xcbc9466e58fee3ce,
            0xab0200f58b01d137,
        ];
        let k0 = 0x0706050403020100u64;
        let k1 = 0x0f0e0d0c0b0a0908u64;
        for (len, expected) in EXPECTED.iter().enumerate() {
            let mut h = StableHasher::new();
            // Re-key to the reference key.
            h.v0 = k0 ^ 0x736f_6d65_7073_6575;
            h.v1 = k1 ^ 0x646f_7261_6e64_6f6d;
            h.v2 = k0 ^ 0x6c79_6765_6e65_7261;
            h.v3 = k1 ^ 0x7465_6462_7974_6573;
            let input: Vec<u8> = (0..len as u8).collect();
            h.write(&input);
            assert_eq!(h.finish(), *expected, "input length {len}");
        }
    }

    /// Golden values with *our* fixed keys. If these change, the on-disk
    /// proof-cache format is silently broken: bump its version instead of
    /// updating the constants.
    #[test]
    fn golden_values_are_pinned() {
        assert_eq!(StableHasher::new().finish(), 0x8055f32766b8dd12);
        assert_eq!(StableHasher::hash_of("gillian"), 0xa2ec303f90fddbb4);
        assert_eq!(
            StableHasher::hash_of(&0x1234_5678_9abc_def0u64),
            0x954123ea18f69808
        );
        assert_eq!(StableHasher::hash_of(&(-1i128)), 0xa2c8b6295f8b72cc);
    }

    #[test]
    fn chunked_writes_match_one_shot() {
        let data: Vec<u8> = (0..=255).collect();
        let mut one = StableHasher::new();
        one.write(&data);
        for split in [1usize, 3, 7, 8, 9, 64, 255] {
            let mut h = StableHasher::new();
            for chunk in data.chunks(split) {
                h.write(chunk);
            }
            assert_eq!(h.finish(), one.finish(), "split {split}");
        }
    }

    #[test]
    fn usize_and_u64_agree() {
        let mut a = StableHasher::new();
        a.write_usize(42);
        let mut b = StableHasher::new();
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn str_hashing_is_prefix_free() {
        // ("ab", "c") and ("a", "bc") must differ: str's Hash impl feeds a
        // 0xff terminator after the bytes.
        let h1 = {
            let mut h = StableHasher::new();
            "ab".hash(&mut h);
            "c".hash(&mut h);
            h.finish()
        };
        let h2 = {
            let mut h = StableHasher::new();
            "a".hash(&mut h);
            "bc".hash(&mut h);
            h.finish()
        };
        assert_ne!(h1, h2);
    }
}
