//! Keyed fast hashing for the prefetchers' tables.
//!
//! The tables are probed on every access the prefetchers observe, and
//! their keys are integers: lines, PCs and pairs of them. Instead of
//! std's SipHash, costly for such small keys, [`FastState`] folds each
//! key word into the state with one multiply-xorshift finalizer
//! ([`mix64`]).
//!
//! Each map draws its own key from [`RandomState`], the process-random
//! source behind std's default hasher: traces are input from outside
//! the program, and a fixed key would let a crafted trace pile its
//! lines into one bucket. No output depends on the key, because no
//! table is ever iterated; the analyzer's `hash-iteration` lint holds
//! the aliases below to that, as it does `HashMap` itself.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use voyager_trace::gen::mix64;

/// A `HashMap` hashed by [`FastState`].
pub(crate) type FastMap<K, V> = HashMap<K, V, FastState>;

/// Builds [`FastHasher`]s that share one random key.
#[derive(Debug)]
pub(crate) struct FastState {
    key: u64,
}

impl Default for FastState {
    fn default() -> Self {
        FastState {
            key: RandomState::new().hash_one(0u64),
        }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        FastHasher(self.key)
    }
}

/// Multiply-xorshift hasher: each word written replaces the state `h`
/// with `mix64(h ^ word)`.
pub(crate) struct FastHasher(u64);

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = mix64(self.0 ^ word);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_hash_equal_within_a_map() {
        let s = FastState::default();
        assert_eq!(s.hash_one((3u64, 4u64)), s.hash_one((3u64, 4u64)));
        assert_ne!(s.hash_one((3u64, 4u64)), s.hash_one((4u64, 3u64)));
        assert_ne!(s.hash_one(1u64), s.hash_one(2u64));
    }

    #[test]
    fn each_map_draws_its_own_key() {
        let (a, b) = (FastState::default(), FastState::default());
        assert_ne!(a.key, b.key);
        assert_ne!(a.hash_one(7u64), b.hash_one(7u64));
    }

    #[test]
    fn byte_writes_fold_in_words() {
        let s = FastState::default();
        let mut h = s.build_hasher();
        h.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        let mut w = s.build_hasher();
        w.write_u64(1);
        w.write_u64(2);
        assert_eq!(h.finish(), w.finish());
    }

    #[test]
    fn maps_behave_like_std() {
        let mut m: FastMap<(u64, u64), usize> = FastMap::default();
        for i in 0..1000u64 {
            m.insert((i, i * 3), i as usize);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(10, 30)), Some(&10));
        assert_eq!(m.get(&(30, 10)), None);
    }
}
