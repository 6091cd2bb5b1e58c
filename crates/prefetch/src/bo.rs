//! Best-Offset prefetching (Michaud, HPCA 2016).

use std::collections::VecDeque;

use voyager_trace::MemoryAccess;

use crate::fasthash::FastMap;
use crate::Prefetcher;

/// Offsets tested by the learning phase. Michaud uses offsets whose
/// prime factorisation is limited to {2, 3, 5}; this is that list up
/// to 64, plus their negatives.
const CANDIDATE_OFFSETS: [i64; 26] = [
    1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30, 32, 36, 40, 45, 48, 50, 54, 60,
];

/// The largest candidate offset: every score reads membership of
/// `line - MAX_OFFSET ..= line - 1`, which spans at most two blocks.
const MAX_OFFSET: u64 = 60;

/// Length of one learning round in accesses.
const ROUND_LEN: usize = 256;

/// Size of the recent-requests window.
const RECENT_LEN: usize = 128;

/// Idealized Best-Offset prefetcher: periodically scores each candidate
/// offset `d` by checking whether `X - d` was recently accessed when `X`
/// arrives, then prefetches with the best-scoring offset. Degree-`k`
/// issues `X + d, X + 2d, ..., X + kd` (the usual multi-degree
/// extension).
///
/// This is the paper's spatial baseline ("BO"): strong on streaming
/// regions, blind to non-spatial correlation.
///
/// The recent-requests set is the window of the last 128 lines, with
/// one quirk: when the oldest copy of a line leaves the window, the
/// line leaves the set, even if a newer copy of it is still in the
/// window. Scores therefore miss a line that repeats within 128
/// accesses once its first copy ages out: a known fidelity gap, kept so
/// that the simulated statistics stay comparable (see ROADMAP.md).
#[derive(Debug)]
pub struct BestOffset {
    recent: VecDeque<u64>,
    /// The recent-requests set as membership bitmaps of 64-line blocks:
    /// bit `line % 64` of the entry for `line / 64`. Blocks with no
    /// member are removed, so the table holds at most `RECENT_LEN`
    /// entries.
    blocks: FastMap<u64, u64>,
    scores: [u32; CANDIDATE_OFFSETS.len()],
    round_pos: usize,
    best: i64,
    degree: usize,
}

impl Default for BestOffset {
    fn default() -> Self {
        Self::new()
    }
}

impl BestOffset {
    /// Creates a Best-Offset prefetcher with degree 1 and an initial
    /// offset of +1.
    pub fn new() -> Self {
        BestOffset {
            recent: VecDeque::with_capacity(RECENT_LEN),
            blocks: FastMap::default(),
            scores: [0; CANDIDATE_OFFSETS.len()],
            round_pos: 0,
            best: 1,
            degree: 1,
        }
    }

    /// The offset currently used for prefetching.
    pub fn current_offset(&self) -> i64 {
        self.best
    }

    fn block(&self, block: u64) -> u64 {
        self.blocks.get(&block).copied().unwrap_or(0)
    }

    /// Membership of `line - 60 ..= line - 1` in the recent set, as a
    /// word whose bit `60 - d` is set when `line - d` is a member.
    /// Lines below 0 are never members.
    fn window(&self, line: u64) -> u64 {
        let Some(last) = line.checked_sub(1) else {
            return 0;
        };
        // `last` sits at bit `64 + r` of the two blocks `[hi - 1, hi]`,
        // so `line - d` sits at bit `65 + r - d`, which is at least 5:
        // shifting right by `r + 5` puts it at bit `60 - d`. The pair
        // is a `u128`, so that shift (up to 68 bits) never wraps.
        let (hi, r) = (last / 64, last % 64);
        let lo = hi.checked_sub(1).map_or(0, |b| self.block(b));
        let pair = (u128::from(self.block(hi)) << 64) | u128::from(lo);
        (pair >> (r + 5)) as u64 & ((1 << MAX_OFFSET) - 1)
    }

    fn remember(&mut self, line: u64) {
        if self.recent.len() == RECENT_LEN {
            if let Some(old) = self.recent.pop_front() {
                if let Some(bits) = self.blocks.get_mut(&(old / 64)) {
                    *bits &= !(1 << (old % 64));
                    if *bits == 0 {
                        self.blocks.remove(&(old / 64));
                    }
                }
            }
        }
        self.recent.push_back(line);
        *self.blocks.entry(line / 64).or_insert(0) |= 1 << (line % 64);
    }
}

impl Prefetcher for BestOffset {
    fn name(&self) -> &'static str {
        "bo"
    }

    fn access(&mut self, access: &MemoryAccess, out: &mut Vec<u64>) {
        out.clear();
        let line = access.line();
        // Learning: credit offsets d for which line - d is recent.
        let window = self.window(line);
        if window != 0 {
            for (score, &d) in self.scores.iter_mut().zip(&CANDIDATE_OFFSETS) {
                *score += (window >> (MAX_OFFSET as i64 - d)) as u32 & 1;
            }
        }
        self.round_pos += 1;
        if self.round_pos == ROUND_LEN {
            // Smallest offset wins ties: short offsets are the timelier
            // choice and match the reference design's preference.
            let mut best_idx = 0;
            for i in 1..CANDIDATE_OFFSETS.len() {
                if self.scores[i] > self.scores[best_idx] {
                    best_idx = i;
                }
            }
            if self.scores[best_idx] > 0 {
                self.best = CANDIDATE_OFFSETS[best_idx];
            }
            self.scores = [0; CANDIDATE_OFFSETS.len()];
            self.round_pos = 0;
        }
        self.remember(line);
        // Prefetch with the current best offset.
        out.extend((1..=self.degree as i64).filter_map(|k| line.checked_add_signed(self.best * k)));
    }

    fn degree(&self) -> usize {
        self.degree
    }

    fn set_degree(&mut self, degree: usize) {
        assert!(degree > 0, "degree must be positive");
        self.degree = degree;
    }

    fn metadata_bytes(&self) -> usize {
        // Recent-request table + score table: the real design is ~4 KB.
        RECENT_LEN * 8 + CANDIDATE_OFFSETS.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(p: &mut BestOffset, lines: impl IntoIterator<Item = u64>) -> Vec<Vec<u64>> {
        lines
            .into_iter()
            .map(|l| p.access_collect(&MemoryAccess::new(1, l * 64)))
            .collect()
    }

    #[test]
    fn learns_stride_two() {
        let mut p = BestOffset::new();
        stream(&mut p, (0..600).map(|i| 1000 + 2 * i));
        assert_eq!(p.current_offset(), 2);
        let preds = p.access_collect(&MemoryAccess::new(1, (1000 + 1200) * 64));
        assert_eq!(preds, vec![1000 + 1200 + 2]);
    }

    #[test]
    fn learns_unit_stride_and_degree_extends() {
        let mut p = BestOffset::new();
        p.set_degree(3);
        stream(&mut p, 5000..5600);
        assert_eq!(p.current_offset(), 1);
        let preds = p.access_collect(&MemoryAccess::new(1, 5600 * 64));
        assert_eq!(preds, vec![5601, 5602, 5603]);
    }

    #[test]
    fn random_stream_keeps_some_offset() {
        let mut p = BestOffset::new();
        // Large random-ish jumps: scores stay 0, offset stays at init.
        stream(&mut p, (0..600).map(|i| (i * 7919 + 13) % 1_000_000));
        // Must still produce *a* prediction (the design always has an
        // active offset).
        let preds = p.access_collect(&MemoryAccess::new(1, 64_000));
        assert_eq!(preds.len(), 1);
    }

    #[test]
    fn metadata_is_small_and_constant() {
        let mut p = BestOffset::new();
        let before = p.metadata_bytes();
        stream(&mut p, 0..1000);
        assert_eq!(p.metadata_bytes(), before, "BO metadata is fixed-size");
        assert!(before < 8 * 1024);
    }

    /// The recent set as a `VecDeque` window plus a `HashSet`, scored
    /// with one probe per candidate offset: the structure the block
    /// bitmaps replaced, kept as their reference.
    struct Reference {
        recent: VecDeque<u64>,
        set: std::collections::HashSet<u64>,
        scores: [u32; CANDIDATE_OFFSETS.len()],
        round_pos: usize,
        best: i64,
        degree: usize,
    }

    impl Reference {
        fn new(degree: usize) -> Self {
            Reference {
                recent: VecDeque::new(),
                set: std::collections::HashSet::new(),
                scores: [0; CANDIDATE_OFFSETS.len()],
                round_pos: 0,
                best: 1,
                degree,
            }
        }

        fn access(&mut self, line: u64) -> Vec<u64> {
            for (i, &d) in CANDIDATE_OFFSETS.iter().enumerate() {
                if let Some(base) = line.checked_add_signed(-d) {
                    if self.set.contains(&base) {
                        self.scores[i] += 1;
                    }
                }
            }
            self.round_pos += 1;
            if self.round_pos == ROUND_LEN {
                let mut best_idx = 0;
                for i in 1..CANDIDATE_OFFSETS.len() {
                    if self.scores[i] > self.scores[best_idx] {
                        best_idx = i;
                    }
                }
                if self.scores[best_idx] > 0 {
                    self.best = CANDIDATE_OFFSETS[best_idx];
                }
                self.scores = [0; CANDIDATE_OFFSETS.len()];
                self.round_pos = 0;
            }
            if self.recent.len() == RECENT_LEN {
                if let Some(old) = self.recent.pop_front() {
                    self.set.remove(&old);
                }
            }
            self.recent.push_back(line);
            self.set.insert(line);
            (1..=self.degree as i64)
                .filter_map(|k| line.checked_add_signed(self.best * k))
                .collect()
        }
    }

    /// Runs `lines` through both structures at every degree 1 to 4 and
    /// compares scores, round position, chosen offset and predictions
    /// after each access. Returns how many rounds completed.
    fn agree_with_reference(lines: &[u64]) -> usize {
        let mut rounds = 0;
        for degree in 1..=4 {
            let mut p = BestOffset::new();
            p.set_degree(degree);
            let mut r = Reference::new(degree);
            for (t, &line) in lines.iter().enumerate() {
                let got = p.access_collect(&MemoryAccess::new(1, line * 64));
                let want = r.access(line);
                assert_eq!(got, want, "predictions at access {t} (line {line})");
                assert_eq!(p.scores, r.scores, "scores at access {t} (line {line})");
                assert_eq!(p.round_pos, r.round_pos);
                assert_eq!(p.current_offset(), r.best, "offset at access {t}");
                assert!(p.blocks.len() <= RECENT_LEN);
                rounds += usize::from(p.round_pos == 0);
            }
        }
        rounds
    }

    fn random_lines(
        seed: u64,
        n: usize,
        mut next: impl FnMut(&mut StdRng, u64) -> u64,
    ) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut line = 0;
        (0..n)
            .map(|_| {
                line = next(&mut rng, line);
                line
            })
            .collect()
    }

    use voyager_trace::rng::{Rng, SeedableRng, StdRng};

    #[test]
    fn bitmaps_match_reference_on_repeats_within_the_window() {
        // A few hundred distinct lines, so most lines repeat while an
        // older copy is still in the window; the bottom of the range
        // has no base for the larger offsets.
        for seed in 0..4 {
            let lines = random_lines(seed, 3_000, |rng, _| rng.gen_range(0..300u64));
            assert!(agree_with_reference(&lines) >= 4 * 11);
        }
    }

    #[test]
    fn bitmaps_match_reference_below_line_64() {
        for seed in 0..4 {
            let lines = random_lines(seed, 1_500, |rng, _| rng.gen_range(0..70u64));
            agree_with_reference(&lines);
        }
        let mut sweep: Vec<u64> = (0..64).collect();
        sweep.extend((0..64).rev());
        sweep.extend((0..600).map(|i| i % 97));
        agree_with_reference(&sweep);
    }

    #[test]
    fn bitmaps_match_reference_at_block_edges() {
        // `line - 1` at block offsets 61, 62 and 63, with members in
        // the block below, the block itself and the block above.
        for seed in 0..4 {
            let lines = random_lines(seed, 3_000, |rng, _| {
                let block = rng.gen_range(1..6u64);
                let offset = [61, 62, 63, 0, 1, 30][rng.gen_range(0..6usize)];
                block * 64 + offset + u64::from(rng.gen_range(0..2u32) == 0)
            });
            agree_with_reference(&lines);
        }
        for r in [61u64, 62, 63] {
            // A unit-stride run that ends with `line - 1` at offset r,
            // then the line itself.
            let mut lines: Vec<u64> = (640 + r - 70..640 + r).collect();
            lines.push(640 + r + 1);
            lines.extend((0..300).map(|i| 640 + r + 1 + (i % 61)));
            agree_with_reference(&lines);
        }
    }

    #[test]
    fn bitmaps_match_reference_on_strided_streams_over_many_rounds() {
        // Runs of candidate and non-candidate strides with noise, so the
        // chosen offset changes across ROUND_LEN rollovers.
        for seed in 0..4 {
            let mut stride = 1i64;
            let lines = random_lines(seed, 6_000, |rng, line| {
                if rng.gen_range(0..400u32) == 0 {
                    stride = [1, 2, 3, 7, 16, 45, 60, 61, -4][rng.gen_range(0..9usize)];
                }
                if rng.gen_range(0..8u32) == 0 {
                    rng.gen_range(0..1_000_000u64)
                } else {
                    line.saturating_add_signed(stride)
                }
            });
            assert!(agree_with_reference(&lines) >= 4 * 23);
        }
    }

    #[test]
    fn a_popped_line_leaves_the_set_while_a_newer_copy_remains() {
        // Line 1000 enters twice; when its first copy ages out of the
        // window, the line leaves the set although its second copy is
        // still there, so 1001 earns offset 1 no credit.
        let mut p = BestOffset::new();
        let mut lines = vec![1000];
        lines.extend((0..63).map(|i| 10_000 + 100 * i));
        lines.push(1000);
        lines.extend((63..127).map(|i| 10_000 + 100 * i));
        stream(&mut p, lines.iter().copied());
        assert_eq!(p.recent.len(), RECENT_LEN);
        assert_eq!(p.recent.iter().filter(|&&l| l == 1000).count(), 1);
        assert_eq!(p.scores[0], 0);
        p.access_collect(&MemoryAccess::new(1, 1001 * 64));
        assert_eq!(p.scores[0], 0, "offset 1 must not be credited");
        lines.push(1001);
        agree_with_reference(&lines);
    }
}
