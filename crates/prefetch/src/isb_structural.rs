//! ISB with a structural address space — the full MICRO 2013 design.
//!
//! [`crate::Isb`] models the *idealized* ISB of the paper's evaluation
//! (an unbounded per-PC successor map). This module implements the
//! mechanism of the real design: PC-localized streams are *linearized*
//! into a contiguous **structural address space**, so that temporal
//! successor metadata becomes a spatially sequential layout that can be
//! cached and prefetched itself.
//!
//! * **PS map** (physical -> structural): assigns each line a structural
//!   address when it is first appended to a stream.
//! * **SP map** (structural -> physical): the inverse, used to translate
//!   the predicted structural neighbourhood back to prefetchable lines.
//! * **Stream divergence**: when a trained successor pair breaks (the
//!   stream takes a different path), the line is *re-linearized* at the
//!   end of the new stream, keeping hot streams contiguous.

use voyager_trace::MemoryAccess;

use crate::fasthash::FastMap;
use crate::Prefetcher;

/// Lines allocated per stream chunk in the structural space.
const CHUNK: u64 = 256;

/// ISB with explicit structural-address linearization.
///
/// Degree-`k` prefetching reads the next `k` structural addresses of
/// the current line's stream and maps them back through the SP map —
/// a single sequential metadata walk, which is exactly the property
/// the real hardware exploits.
#[derive(Debug, Default)]
pub struct IsbStructural {
    /// physical line -> structural address.
    ps: FastMap<u64, u64>,
    /// structural address -> physical line.
    sp: FastMap<u64, u64>,
    /// pc -> structural address of its stream's last element.
    stream_tail: FastMap<u64, u64>,
    /// Next unallocated structural chunk base.
    next_chunk: u64,
    degree: usize,
}

impl IsbStructural {
    /// Creates the prefetcher with degree 1.
    pub fn new() -> Self {
        IsbStructural::default().with_degree_one()
    }

    fn with_degree_one(mut self) -> Self {
        self.degree = 1;
        self
    }

    /// Number of distinct structural addresses allocated so far.
    pub fn structural_footprint(&self) -> usize {
        self.sp.len()
    }

    fn allocate_chunk(&mut self) -> u64 {
        let base = self.next_chunk;
        self.next_chunk += CHUNK;
        base
    }

    /// Places an unlinearized `line` at the structural position
    /// following `tail`, returning its structural address. If the slot
    /// is occupied by a diverged line, that line's mapping is evicted
    /// (it is re-linearized when its own stream touches it again).
    fn append_after(&mut self, tail: Option<u64>, line: u64) -> u64 {
        debug_assert!(!self.ps.contains_key(&line));
        let target = match tail {
            // Next slot in the stream, unless the chunk is exhausted.
            Some(t) if (t + 1) % CHUNK != 0 => t + 1,
            _ => self.allocate_chunk(),
        };
        if let Some(prev) = self.sp.insert(target, line) {
            if prev != line {
                self.ps.remove(&prev);
            }
        }
        self.ps.insert(line, target);
        target
    }
}

impl Prefetcher for IsbStructural {
    fn name(&self) -> &'static str {
        "isb-structural"
    }

    fn access(&mut self, access: &MemoryAccess, out: &mut Vec<u64>) {
        out.clear();
        let line = access.line();
        // Train: a line already in the structural space keeps its
        // position (streams are stable under replay); only new lines
        // are appended after the PC's stream tail.
        let tail = self.stream_tail.get(&access.pc).copied();
        let sa = match self.ps.get(&line) {
            Some(&existing) => existing,
            None => self.append_after(tail, line),
        };
        self.stream_tail.insert(access.pc, sa);
        // Predict: walk the structural space forward from this line's
        // *trained* position. After append_after, `sa` is the stream
        // tail, so predictions come from the previously linearized
        // continuation (if this position had one from an earlier pass).
        for k in 1..=self.degree as u64 {
            match self.sp.get(&(sa + k)) {
                Some(&next) => out.push(next),
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
        // PS and SP entries are ~12 B each in the real design's
        // compressed encoding; streams tails are per-PC registers.
        self.ps.len() * 12 + self.sp.len() * 12 + self.stream_tail.len() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(pc: u64, line: u64) -> MemoryAccess {
        MemoryAccess::new(pc, line * 64)
    }

    #[test]
    fn stable_stream_is_predicted_on_second_pass() {
        let mut p = IsbStructural::new();
        let stream = [10u64, 55, 23, 89, 41];
        for &l in &stream {
            p.access_collect(&acc(7, l));
        }
        // Second pass: each access should predict the next element.
        let mut correct = 0;
        for (i, &l) in stream.iter().enumerate() {
            let preds = p.access_collect(&acc(7, l));
            if i + 1 < stream.len() && preds == vec![stream[i + 1]] {
                correct += 1;
            }
        }
        assert!(correct >= 3, "structural replay failed: {correct}/4");
    }

    #[test]
    fn streams_are_linearized_contiguously() {
        let mut p = IsbStructural::new();
        for &l in &[1u64, 2, 3, 4] {
            p.access_collect(&acc(9, l));
        }
        // All four lines must occupy consecutive structural addresses.
        let sas: Vec<u64> = [1u64, 2, 3, 4].iter().map(|l| p.ps[l]).collect();
        for w in sas.windows(2) {
            assert_eq!(w[1], w[0] + 1, "stream not contiguous: {sas:?}");
        }
    }

    #[test]
    fn divergence_relinearizes() {
        let mut p = IsbStructural::new();
        // Stream A-B-C, then A-D-C: C must follow D afterwards.
        for &l in &[100u64, 200, 300] {
            p.access_collect(&acc(1, l));
        }
        for &l in &[100u64, 400, 300] {
            p.access_collect(&acc(1, l));
        }
        let preds = p.access_collect(&acc(1, 400));
        assert_eq!(preds, vec![300], "C should follow D after divergence");
    }

    #[test]
    fn per_pc_streams_do_not_interleave_structurally() {
        let mut p = IsbStructural::new();
        p.access_collect(&acc(1, 10));
        p.access_collect(&acc(2, 99));
        p.access_collect(&acc(1, 11));
        // PC 1's stream stays contiguous despite PC 2's interleaving.
        assert_eq!(p.ps[&11], p.ps[&10] + 1);
        // PC 2 lives in a different chunk.
        assert_ne!(p.ps[&99] / CHUNK, p.ps[&10] / CHUNK);
    }

    #[test]
    fn degree_walks_the_structural_space() {
        let mut p = IsbStructural::new();
        for &l in &[5u64, 6, 7, 8, 9] {
            p.access_collect(&acc(3, l));
        }
        p.set_degree(3);
        let preds = p.access_collect(&acc(3, 5));
        assert_eq!(preds, vec![6, 7, 8]);
    }

    #[test]
    fn footprint_grows_with_unique_lines() {
        let mut p = IsbStructural::new();
        for l in 0..100u64 {
            p.access_collect(&acc(1, l));
        }
        assert_eq!(p.structural_footprint(), 100);
        assert!(p.metadata_bytes() > 100 * 24);
    }
}
