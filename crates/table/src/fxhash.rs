//! A small, fast, non-cryptographic hasher (the `FxHash` algorithm used by
//! rustc), implemented in-tree to avoid an extra dependency.
//!
//! Group-by keys are short integer tuples; SipHash (the std default) is a
//! measurable bottleneck for them, while FxHash is essentially a multiply
//! and a rotate per word. HashDoS resistance is irrelevant here: keys come
//! from our own dictionary codes, not from untrusted input.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` alias using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;
/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED64: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The rustc-style Fx hasher. One wrapping multiply + rotate per 8 bytes.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED64);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.add_to_hash(word);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&"a"), hash_of(&"b"));
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
    }

    #[test]
    fn map_smoke() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, "x");
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&999), Some(&"x"));
    }

    #[test]
    fn unaligned_byte_lengths() {
        // Exercise the remainder path in `write`.
        for len in 0..32usize {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let mut h1 = FxHasher::default();
            h1.write(&bytes);
            let mut h2 = FxHasher::default();
            h2.write(&bytes);
            assert_eq!(h1.finish(), h2.finish(), "len {len}");
        }
    }

    #[test]
    fn spread_over_buckets() {
        // Sanity: sequential keys should not all collide mod a power of two.
        let mut buckets = [0usize; 16];
        for i in 0..1600u64 {
            buckets[(hash_of(&i) % 16) as usize] += 1;
        }
        assert!(buckets.iter().all(|&c| c > 0), "all buckets used: {buckets:?}");
    }
}
