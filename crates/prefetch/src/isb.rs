//! ISB: PC-localized temporal correlation.

use voyager_trace::MemoryAccess;

use crate::fasthash::FastMap;
use crate::Prefetcher;

/// Idealized ISB (Jain & Lin, MICRO 2013): maintains a *PC-localized*
/// stream per load PC and memorizes successor pairs within each stream,
/// learning `P(addr_PC | addr_t)` (the paper's Eq. 3) — the next address
/// that the current PC will access, given the address it accesses now.
///
/// The real ISB linearizes streams into a structural address space with
/// bounded on-chip metadata; since the paper evaluates an idealized ISB
/// (unbounded, zero-cost metadata), the structural indirection is
/// unnecessary and the per-PC successor map is behaviourally equivalent.
///
/// Degree-`k` prefetching follows the successor chain `k` steps, which
/// matches ISB's stream-replay behaviour.
#[derive(Debug, Default)]
pub struct Isb {
    /// (pc, line) -> next line observed in that PC's stream.
    successor: FastMap<(u64, u64), u64>,
    /// pc -> last line accessed by that pc.
    last_by_pc: FastMap<u64, u64>,
    degree: usize,
}

impl Isb {
    /// Creates an ISB prefetcher with degree 1.
    pub fn new() -> Self {
        Isb {
            successor: FastMap::default(),
            last_by_pc: FastMap::default(),
            degree: 1,
        }
    }
}

impl Prefetcher for Isb {
    fn name(&self) -> &'static str {
        "isb"
    }

    fn access(&mut self, access: &MemoryAccess, out: &mut Vec<u64>) {
        out.clear();
        let line = access.line();
        let pc = access.pc;
        // Train: link the previous line in this PC's stream to this one.
        if let Some(&prev) = self.last_by_pc.get(&pc) {
            self.successor.insert((pc, prev), line);
        }
        self.last_by_pc.insert(pc, line);
        // Predict: follow this PC's successor chain.
        let mut cur = line;
        for _ in 0..self.degree {
            match self.successor.get(&(pc, cur)) {
                Some(&next) => {
                    out.push(next);
                    cur = next;
                }
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
        // Successor pairs dominate: ~24 B per mapping (two tagged
        // pointers in the PS/SP maps of the real design).
        self.successor.len() * 24 + self.last_by_pc.len() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(pc: u64, line: u64) -> MemoryAccess {
        MemoryAccess::new(pc, line * 64)
    }

    #[test]
    fn pc_streams_are_independent() {
        let mut p = Isb::new();
        // PC 1 walks 10 -> 11 -> 12; PC 2 interleaves 50 -> 60.
        for &(pc, l) in &[(1, 10), (2, 50), (1, 11), (2, 60), (1, 12)] {
            p.access_collect(&acc(pc, l));
        }
        // Revisit: PC 1 at 10 should predict 11 even though the global
        // stream had 50 after 10.
        let preds = p.access_collect(&acc(1, 10));
        assert_eq!(preds, vec![11]);
        let preds = p.access_collect(&acc(2, 50));
        assert_eq!(preds, vec![60]);
    }

    #[test]
    fn degree_follows_chain() {
        let mut p = Isb::new();
        for l in [1u64, 2, 3, 4] {
            p.access_collect(&acc(7, l));
        }
        p.set_degree(3);
        let preds = p.access_collect(&acc(7, 1));
        assert_eq!(preds, vec![2, 3, 4]);
    }

    #[test]
    fn retrains_on_changed_successor() {
        let mut p = Isb::new();
        for l in [1u64, 2, 1, 9] {
            p.access_collect(&acc(7, l));
        }
        let preds = p.access_collect(&acc(7, 1));
        assert_eq!(preds, vec![9], "newest successor replaces the old");
    }

    #[test]
    fn no_prediction_for_unseen_address() {
        let mut p = Isb::new();
        assert!(p.access_collect(&acc(1, 42)).is_empty());
    }

    #[test]
    fn training_happens_before_prediction() {
        // The access that just arrived must not predict itself through a
        // stale chain: 1 -> 1 self-loop.
        let mut p = Isb::new();
        p.access_collect(&acc(1, 5));
        p.access_collect(&acc(1, 5));
        let preds = p.access_collect(&acc(1, 5));
        assert_eq!(preds, vec![5], "self-loop is representable");
    }
}
