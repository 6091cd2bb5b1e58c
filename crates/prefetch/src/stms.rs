//! STMS: sampled temporal memory streaming over the global stream.

use voyager_trace::MemoryAccess;

use crate::fasthash::FastMap;
use crate::Prefetcher;

/// Idealized STMS (Wenisch et al., HPCA 2009): records the global
/// access stream in a history buffer; on an access to line `A`, finds
/// the most recent previous occurrence of `A` and prefetches the lines
/// that followed it. This learns `P(addr_{t+1} | addr_t)` over the
/// global stream (the paper's Eq. 2).
///
/// # Example
///
/// ```
/// use voyager_prefetch::{Prefetcher, Stms};
/// use voyager_trace::MemoryAccess;
///
/// let mut p = Stms::new();
/// for addr in [0, 64, 128, 0] {
///     let preds = p.access_collect(&MemoryAccess::new(1, addr));
///     if addr == 0 && preds.len() == 1 {
///         assert_eq!(preds[0], 1); // line 1 followed line 0 last time
///     }
/// }
/// ```
#[derive(Debug, Default)]
pub struct Stms {
    history: Vec<u64>,
    last_pos: FastMap<u64, usize>,
    degree: usize,
}

impl Stms {
    /// Creates an STMS prefetcher with degree 1.
    pub fn new() -> Self {
        Stms {
            history: Vec::new(),
            last_pos: FastMap::default(),
            degree: 1,
        }
    }
}

impl Prefetcher for Stms {
    fn name(&self) -> &'static str {
        "stms"
    }

    fn access(&mut self, access: &MemoryAccess, out: &mut Vec<u64>) {
        out.clear();
        let line = access.line();
        if let Some(&pos) = self.last_pos.get(&line) {
            out.extend(self.history[pos + 1..].iter().take(self.degree).copied());
        }
        self.last_pos.insert(line, self.history.len());
        self.history.push(line);
    }

    fn degree(&self) -> usize {
        self.degree
    }

    fn set_degree(&mut self, degree: usize) {
        assert!(degree > 0, "degree must be positive");
        self.degree = degree;
    }

    fn metadata_bytes(&self) -> usize {
        // History buffer: 8 B per entry; index: ~16 B per unique line.
        self.history.len() * 8 + self.last_pos.len() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(p: &mut Stms, lines: &[u64]) -> Vec<Vec<u64>> {
        lines
            .iter()
            .map(|&l| p.access_collect(&MemoryAccess::new(1, l * 64)))
            .collect()
    }

    #[test]
    fn repeating_global_sequence_is_predicted() {
        let mut p = Stms::new();
        let preds = run(&mut p, &[10, 20, 30, 10, 20, 30]);
        assert!(preds[0].is_empty(), "no history yet");
        assert_eq!(preds[3], vec![20], "A -> B learned");
        assert_eq!(preds[4], vec![30]);
    }

    #[test]
    fn degree_extends_the_stream() {
        let mut p = Stms::new();
        p.set_degree(3);
        let preds = run(&mut p, &[1, 2, 3, 4, 1]);
        assert_eq!(preds[4], vec![2, 3, 4]);
    }

    #[test]
    fn uses_most_recent_occurrence() {
        let mut p = Stms::new();
        // 5 is followed by 6 first, later by 7; most recent wins.
        let preds = run(&mut p, &[5, 6, 5, 7, 5]);
        assert_eq!(preds[4], vec![7]);
    }

    #[test]
    #[should_panic(expected = "degree must be positive")]
    fn rejects_zero_degree() {
        Stms::new().set_degree(0);
    }

    #[test]
    fn metadata_grows_with_history() {
        let mut p = Stms::new();
        run(&mut p, &[1, 2, 3]);
        assert!(p.metadata_bytes() >= 3 * 8);
    }
}
