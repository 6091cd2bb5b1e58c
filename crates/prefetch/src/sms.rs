//! SMS: Spatial Memory Streaming (Somogyi et al., ISCA 2006).

use voyager_trace::MemoryAccess;

use crate::fasthash::FastMap;
use crate::Prefetcher;

/// Lines per spatial region (the paper's SMS uses page-sized regions;
/// with 64-byte lines and 4 KiB pages that is 64 lines).
const REGION_LINES: u64 = 64;

/// How many accesses a spatial generation records before it is
/// archived.
const GENERATION_LEN: usize = 64;

#[derive(Debug, Clone)]
struct Generation {
    /// (trigger PC, trigger offset) — the SMS history key.
    key: (u64, u64),
    bitmap: u64,
    accesses: usize,
}

/// Idealized SMS: learns recurring *spatial footprints*. The first
/// access to a region opens a generation keyed by (PC, offset-in-
/// region); subsequent accesses to the region set bits in its
/// footprint. When a later trigger matches a stored key, the recorded
/// footprint is prefetched — applying old spatial patterns to new,
/// unseen regions, which is what lets spatial prefetchers cover
/// compulsory misses.
#[derive(Debug, Default)]
pub struct Sms {
    active: FastMap<u64, Generation>,
    history: FastMap<(u64, u64), u64>,
    degree: usize,
}

impl Sms {
    /// Creates an SMS prefetcher with degree 4 (footprints are
    /// inherently multi-line; the paper's Fig. 9 hybrid-style splits
    /// still apply via [`Prefetcher::set_degree`]).
    pub fn new() -> Self {
        Sms {
            active: FastMap::default(),
            history: FastMap::default(),
            degree: 4,
        }
    }
}

impl Prefetcher for Sms {
    fn name(&self) -> &'static str {
        "sms"
    }

    fn access(&mut self, access: &MemoryAccess, out: &mut Vec<u64>) {
        out.clear();
        let line = access.line();
        let region = line / REGION_LINES;
        let offset = line % REGION_LINES;
        match self.active.get_mut(&region) {
            Some(generation) => {
                generation.bitmap |= 1 << offset;
                generation.accesses += 1;
                if generation.accesses >= GENERATION_LEN {
                    let (key, bitmap) = (generation.key, generation.bitmap);
                    self.active.remove(&region);
                    self.history.insert(key, bitmap);
                }
            }
            None => {
                // Region trigger: open a generation and replay any
                // stored footprint for this (PC, offset) key.
                let key = (access.pc, offset);
                self.active.insert(
                    region,
                    Generation {
                        key,
                        bitmap: 1 << offset,
                        accesses: 1,
                    },
                );
                if let Some(&bitmap) = self.history.get(&key) {
                    let base = region * REGION_LINES;
                    for o in 0..REGION_LINES {
                        if o != offset && bitmap & (1 << o) != 0 {
                            out.push(base + o);
                            if out.len() == self.degree {
                                break;
                            }
                        }
                    }
                }
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
        self.active.len() * 32 + self.history.len() * 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_footprint_on_new_region() {
        let mut p = Sms::new();
        // Region 0: trigger at offset 3 by PC 7, then touch offsets 5
        // and 9; fill the generation so it archives.
        p.access_collect(&MemoryAccess::new(7, 3 * 64));
        p.access_collect(&MemoryAccess::new(8, 5 * 64));
        p.access_collect(&MemoryAccess::new(8, 9 * 64));
        for _ in 0..GENERATION_LEN {
            p.access_collect(&MemoryAccess::new(8, 5 * 64));
        }
        // New region 10 triggered by the same (PC 7, offset 3):
        // footprint offsets 5 and 9 are prefetched relative to region
        // 10.
        let preds = p.access_collect(&MemoryAccess::new(7, (10 * 64 + 3) * 64));
        assert_eq!(preds, vec![10 * 64 + 5, 10 * 64 + 9]);
    }

    #[test]
    fn no_prediction_without_history() {
        let mut p = Sms::new();
        assert!(p.access_collect(&MemoryAccess::new(1, 0)).is_empty());
    }

    #[test]
    fn degree_truncates_footprint() {
        let mut p = Sms::new();
        p.set_degree(1);
        p.access_collect(&MemoryAccess::new(7, 0));
        for o in 1..8u64 {
            p.access_collect(&MemoryAccess::new(8, o * 64));
        }
        for _ in 0..GENERATION_LEN {
            p.access_collect(&MemoryAccess::new(8, 64));
        }
        let preds = p.access_collect(&MemoryAccess::new(7, 64 * 64 * 5));
        assert!(preds.len() <= 1);
    }
}
