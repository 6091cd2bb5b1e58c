//! VLDP: the Variable Length Delta Prefetcher (Shevgoor et al., MICRO
//! 2015).

use std::collections::BTreeMap;

use voyager_trace::{page_of, MemoryAccess};

use crate::fasthash::FastMap;
use crate::Prefetcher;

/// Longest delta history matched by the prediction tables.
const MAX_HISTORY: usize = 3;

/// Fixed-width delta history, newest last, right-aligned and
/// zero-padded at the front. Recorded deltas are never zero, so the
/// padding is unambiguous.
type History = [i64; MAX_HISTORY];

#[derive(Debug, Clone, Copy)]
struct PageState {
    last_line: u64,
    history: History,
    /// How many trailing entries of `history` are valid deltas.
    len: usize,
}

/// Shifts `delta` into the newest slot of `history`.
fn push_delta(history: &mut History, len: &mut usize, delta: i64) {
    for i in 0..MAX_HISTORY - 1 {
        history[i] = history[i + 1];
    }
    history[MAX_HISTORY - 1] = delta;
    *len = (*len + 1).min(MAX_HISTORY);
}

/// The newest `len` deltas of `history` as a right-aligned, zero-padded
/// table key.
fn key_of(history: &History, len: usize) -> History {
    let mut key = [0i64; MAX_HISTORY];
    key[MAX_HISTORY - len..].copy_from_slice(&history[MAX_HISTORY - len..]);
    key
}

/// Idealized VLDP: per page it tracks the recent *delta history* and
/// looks the history up in per-length delta prediction tables,
/// preferring the longest matching history — learning
/// `P(delta_{t+1} | delta_{t-n} .. delta_t)` (the paper's Eq. 7). This
/// captures recurring multi-delta patterns (e.g. +1,+1,+5) that a
/// single-stride prefetcher cannot.
///
/// Histories are fixed-width arrays and the tables are keyed by those
/// arrays directly, so `access` does no per-access heap allocation
/// (the caller-scratch contract) and table iteration order is
/// deterministic.
#[derive(Debug, Default)]
pub struct Vldp {
    pages: FastMap<u64, PageState>,
    /// One table per history length: history key (newest last) -> next
    /// delta.
    tables: Vec<BTreeMap<History, i64>>,
    degree: usize,
}

impl Vldp {
    /// Creates a VLDP prefetcher with degree 1.
    pub fn new() -> Self {
        Vldp {
            pages: FastMap::default(),
            tables: (0..MAX_HISTORY).map(|_| BTreeMap::new()).collect(),
            degree: 1,
        }
    }

    fn predict_delta(&self, history: &History, len: usize) -> Option<i64> {
        // Longest match first.
        for l in (1..=len.min(MAX_HISTORY)).rev() {
            if let Some(&d) = self.tables[l - 1].get(&key_of(history, l)) {
                return Some(d);
            }
        }
        None
    }
}

impl Prefetcher for Vldp {
    fn name(&self) -> &'static str {
        "vldp"
    }

    fn access(&mut self, access: &MemoryAccess, out: &mut Vec<u64>) {
        out.clear();
        let line = access.line();
        let page = page_of(access.addr);
        // `PageState` is `Copy`: work on a copy and write it back, so
        // the page-table borrow does not overlap the delta tables'.
        let mut state = *self.pages.entry(page).or_insert(PageState {
            last_line: line,
            history: [0; MAX_HISTORY],
            len: 0,
        });
        let delta = line as i64 - state.last_line as i64;
        if delta != 0 {
            // Train every history length with the observed next delta.
            for l in 1..=state.len.min(MAX_HISTORY) {
                self.tables[l - 1].insert(key_of(&state.history, l), delta);
            }
            push_delta(&mut state.history, &mut state.len, delta);
            state.last_line = line;
            self.pages.insert(page, state);
        }
        // Predict: walk forward applying predicted deltas.
        let (mut h, mut len) = (state.history, state.len);
        let mut cur = line;
        for _ in 0..self.degree {
            match self.predict_delta(&h, len) {
                Some(d) => match cur.checked_add_signed(d) {
                    Some(next) => {
                        out.push(next);
                        cur = next;
                        push_delta(&mut h, &mut len, d);
                    }
                    None => break,
                },
                None => break,
            }
        }
    }

    fn degree(&self) -> usize {
        self.degree
    }

    fn set_degree(&mut self, degree: usize) {
        assert!(degree > 0, "degree must be positive");
        self.degree = degree;
    }

    fn metadata_bytes(&self) -> usize {
        let table_bytes: usize = self
            .tables
            .iter()
            .enumerate()
            .map(|(i, t)| t.len() * (8 * (i + 1) + 8))
            .sum();
        self.pages.len() * 40 + table_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(p: &mut Vldp, lines: &[u64]) -> Vec<Vec<u64>> {
        lines
            .iter()
            .map(|&l| p.access_collect(&MemoryAccess::new(1, l * 64)))
            .collect()
    }

    #[test]
    fn learns_repeating_multi_delta_pattern() {
        let mut p = Vldp::new();
        // Pattern +1,+1,+5 within one page region, repeated.
        let mut lines = Vec::new();
        let mut l = 1000u64;
        for i in 0..30 {
            lines.push(l);
            l += if i % 3 == 2 { 5 } else { 1 };
        }
        let preds = run(&mut p, &lines);
        // Late in the stream predictions should be correct.
        let mut correct = 0;
        for t in 20..29 {
            if preds[t].first() == Some(&lines[t + 1]) {
                correct += 1;
            }
        }
        assert!(
            correct >= 7,
            "VLDP failed the +1,+1,+5 pattern: {correct}/9"
        );
    }

    #[test]
    fn longest_history_disambiguates() {
        let mut p = Vldp::new();
        // After (+1,+2) comes +3; after (+2,+2) comes +9. A 1-delta
        // table alone cannot separate these (both end in +2).
        run(&mut p, &[10, 11, 13, 16]); // +1,+2 -> +3
        run(&mut p, &[100, 102, 104, 113]); // +2,+2 -> +9
        let preds = run(&mut p, &[200, 201, 203]); // ends with +1,+2
        assert_eq!(preds[2], vec![206], "expected +3 via 2-delta history");
    }

    #[test]
    fn degree_chains_deltas() {
        let mut p = Vldp::new();
        p.set_degree(3);
        run(&mut p, &[50, 52, 54, 56]);
        let preds = p.access_collect(&MemoryAccess::new(1, 58 * 64));
        assert_eq!(preds, vec![60, 62, 64]);
    }

    #[test]
    fn histories_are_per_page() {
        let mut p = Vldp::new();
        // Page A strides +1; page B strides +2 (lines 0.. are page 0,
        // lines 64.. page 1, etc.).
        for i in 0..8u64 {
            p.access_collect(&MemoryAccess::new(1, i * 64)); // page 0, +1 lines
            p.access_collect(&MemoryAccess::new(1, 64 * 64 + i * 2 * 64)); // page 1+, +2 lines
        }
        let a = p.access_collect(&MemoryAccess::new(1, 8 * 64));
        assert_eq!(a, vec![9]);
    }
}
