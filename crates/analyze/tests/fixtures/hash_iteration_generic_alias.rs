//! Fixture: a generic alias of `HashMap` (here with a custom hasher)
//! is a hash container too, so iterating a field of that type trips
//! `hash-iteration`.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

type LineMap<K, V> = HashMap<K, V, BuildHasherDefault<std::hash::DefaultHasher>>;

struct Table {
    lines: LineMap<u64, u64>,
}

fn _total(t: &Table) -> u64 {
    t.lines.values().sum()
}
