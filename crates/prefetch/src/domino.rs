//! Domino: two-address global temporal correlation.

use voyager_trace::MemoryAccess;

use crate::fasthash::FastMap;
use crate::Prefetcher;

/// Idealized Domino (Bakhshalipour et al., HPCA 2018): like STMS it
/// replays the global history stream, but it indexes the history by the
/// *pair* of the last two lines, falling back to a single-line index
/// when the pair has not been seen — learning
/// `P(addr_{t+1} | addr_{t-1}, addr_t)` (the paper's Eq. 4).
#[derive(Debug, Default)]
pub struct Domino {
    history: Vec<u64>,
    pair_pos: FastMap<(u64, u64), usize>,
    single_pos: FastMap<u64, usize>,
    prev: Option<u64>,
    degree: usize,
}

impl Domino {
    /// Creates a Domino prefetcher with degree 1.
    pub fn new() -> Self {
        Domino {
            history: Vec::new(),
            pair_pos: FastMap::default(),
            single_pos: FastMap::default(),
            prev: None,
            degree: 1,
        }
    }
}

impl Prefetcher for Domino {
    fn name(&self) -> &'static str {
        "domino"
    }

    fn access(&mut self, access: &MemoryAccess, out: &mut Vec<u64>) {
        out.clear();
        let line = access.line();
        // Predict: prefer the two-address index, fall back to one.
        let pos = self
            .prev
            .and_then(|p| self.pair_pos.get(&(p, line)).copied())
            .or_else(|| self.single_pos.get(&line).copied());
        if let Some(pos) = pos {
            out.extend(self.history[pos + 1..].iter().take(self.degree).copied());
        }
        // Train.
        let idx = self.history.len();
        if let Some(p) = self.prev {
            self.pair_pos.insert((p, line), idx);
        }
        self.single_pos.insert(line, idx);
        self.history.push(line);
        self.prev = Some(line);
    }

    fn degree(&self) -> usize {
        self.degree
    }

    fn set_degree(&mut self, degree: usize) {
        assert!(degree > 0, "degree must be positive");
        self.degree = degree;
    }

    fn metadata_bytes(&self) -> usize {
        self.history.len() * 8 + self.pair_pos.len() * 24 + self.single_pos.len() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(p: &mut Domino, lines: &[u64]) -> Vec<Vec<u64>> {
        lines
            .iter()
            .map(|&l| p.access_collect(&MemoryAccess::new(1, l * 64)))
            .collect()
    }

    #[test]
    fn pair_context_disambiguates() {
        let mut p = Domino::new();
        // Stream: 1,2,9 ... 3,2,7 ... then "1,2" should predict 9 and
        // "3,2" should predict 7 — STMS would confuse these (2 is
        // followed by different lines).
        let preds = run(&mut p, &[1, 2, 9, 3, 2, 7, 1, 2, 0, 3, 2, 0]);
        assert_eq!(preds[7], vec![9], "context (1,2) -> 9");
        assert_eq!(preds[10], vec![7], "context (3,2) -> 7");
    }

    #[test]
    fn falls_back_to_single_index() {
        let mut p = Domino::new();
        let preds = run(&mut p, &[5, 6, 0, 9, 5]);
        // Pair (9,5) unseen; single index for 5 predicts 6.
        assert_eq!(preds[4], vec![6]);
    }

    #[test]
    fn degree_follows_history() {
        let mut p = Domino::new();
        p.set_degree(2);
        let preds = run(&mut p, &[1, 2, 3, 4, 1, 2]);
        assert_eq!(preds[5], vec![3, 4]);
    }

    #[test]
    fn metadata_accounts_all_tables() {
        let mut p = Domino::new();
        run(&mut p, &[1, 2, 3]);
        assert!(p.metadata_bytes() > 3 * 8);
    }
}
