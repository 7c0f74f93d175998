//! The hasher behind the cache's slot map and the coalescer's window set.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes one packed [`crate::CacheKey`] with a single multiply.
///
/// Keys come only from the kernel planner's own adjacency walk, never from
/// outside input, so the flooding resistance SipHash pays for buys
/// nothing here. The product's high bits depend on every key bit, and
/// `finish` rotates them down because the std map picks a bucket from the
/// low bits of the hash.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Map keyed by packed cache keys.
pub(crate) type KeyMap<V> = HashMap<u64, V, BuildHasherDefault<KeyHasher>>;

/// Set of packed cache keys.
pub(crate) type KeySet = HashSet<u64, BuildHasherDefault<KeyHasher>>;

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use super::*;
    use crate::CacheKey;

    #[test]
    fn same_row_on_different_pes_lands_in_different_buckets() {
        // Packed keys that differ only in the PE half must still differ
        // in the low bits the map picks buckets with.
        let build = BuildHasherDefault::<KeyHasher>::default();
        let low = |pe| build.hash_one(CacheKey { pe, row: 7 }.pack()) & 0xffff;
        let buckets: KeySet = (0..8).map(low).collect();
        assert_eq!(buckets.len(), 8);
    }
}
