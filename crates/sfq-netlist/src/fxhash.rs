//! A fixed, fast hasher for the factoring searches' integer-keyed maps.
//!
//! The searches key their maps and sets by `u128` support words and signal
//! ids and probe them millions of times per catalog build. std's SipHash
//! guards against adversarial keys, which these are not, so this is the
//! multiply–rotate scheme of `rustc`'s FxHash instead. It can change speed
//! but never output: no search result depends on map iteration order
//! (every argmax and ranking over a map uses a total order).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash state: one word, folded with each written word by
/// rotate–xor–multiply.
#[derive(Default, Clone, Copy)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(u64::from(b)));
    }
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    /// The product's high bits are its best mixed; the rotation moves them
    /// to where hash tables take their bucket index.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// `HashMap` with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with [`FxHasher`].
pub(crate) type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;
