//! Declares the crate's hash-map alias.

use std::collections::HashMap;

/// A map with its own hasher.
pub(crate) type LineMap<K, V> = HashMap<K, V, std::hash::RandomState>;
