//! Deterministic, fast hashing for hot point-lookup maps.
//!
//! `std::collections::HashMap`'s default `RandomState` buys DoS resistance
//! the simulator does not need (all keys are internal ids) and pays for it
//! twice: SipHash is slow on the small integer keys the hot paths use, and
//! the per-process random seed makes iteration order differ between runs —
//! a determinism hazard lying in wait for anyone who iterates.
//!
//! [`FxHasher`] is the FNV-successor multiply-rotate hash used by rustc
//! (reimplemented here; no external dependency): a handful of cycles per
//! word, fixed seed, identical across runs and platforms. Use
//! [`FxHashMap`]/[`FxHashSet`] for maps that are only ever point-looked-up;
//! maps whose iteration order feeds simulation behavior should stay
//! `BTreeMap`, whose order is semantic.

// lint: allow(determinism) — this module IS the fixed-seed hasher the rule asks for; the std types are re-exported with FxHasher plugged in
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` with the deterministic [`FxHasher`].
// lint: allow(determinism) — fixed-seed FxHasher, not RandomState
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` with the deterministic [`FxHasher`].
// lint: allow(determinism) — fixed-seed FxHasher, not RandomState
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// rustc's Fx hash: `hash = (hash rotl 5 ⊕ word) × SEED` per 8-byte word.
/// Not DoS-resistant, not for untrusted keys — simulator-internal ids only.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            // lint: allow(panic_discipline) — chunks_exact(8) yields exactly 8 bytes
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// 64-bit FNV-1a: the workspace's one *stable* byte fold. Where
/// [`FxHasher`] may change with the map implementation, FNV-1a outputs are
/// pinned forever — RNG stream labels ([`crate::rng`]), ECMP flow hashes
/// and the testbed's metric digests are all this fold, so committed
/// baselines depend on its exact bits.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Fold `bytes` in, one at a time.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold the eight little-endian bytes of `v` in.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
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
    fn deterministic_across_instances() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&(7u32, 9u64)), hash_of(&(7u32, 9u64)));
        assert_eq!(hash_of(&"flow"), hash_of(&"flow"));
    }

    #[test]
    fn small_keys_spread() {
        // Sequential ids must not collapse into few buckets.
        let hashes: FxHashSet<u64> = (0..10_000u64).map(|i| hash_of(&i)).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1, "a");
        m.insert(u64::MAX, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.get(&u64::MAX), Some(&"b"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn unaligned_byte_tails_differ() {
        assert_ne!(hash_of(&[1u8, 2, 3]), hash_of(&[1u8, 2, 4]));
        assert_ne!(hash_of(&"abc"), hash_of(&"abd"));
    }
}
