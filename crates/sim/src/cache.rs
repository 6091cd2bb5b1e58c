//! Set-associative LRU cache with prefetch tracking.

use crate::CacheConfig;

/// Tag of an empty way. No line number reaches it: a line is a byte
/// address divided by 64.
const EMPTY: u64 = u64::MAX;

/// A way's state beside its tag and LRU stamp.
#[derive(Debug, Clone, Copy)]
struct WayState {
    /// Set when the line was brought in by a prefetch and has not yet
    /// served a demand access.
    prefetched: bool,
    /// Cycle at which a prefetched line's data arrives (late prefetches
    /// pay the residual latency on the first demand hit).
    ready_at: f64,
}

/// The state of a way never filled.
const EMPTY_STATE: WayState = WayState {
    prefetched: false,
    ready_at: 0.0,
};

/// Result of a demand lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LookupResult {
    pub hit: bool,
    /// `true` when the hit consumed a prefetched line for the first
    /// time (a *useful* prefetch).
    pub first_use_of_prefetch: bool,
    /// Residual cycles until a late prefetch's data arrives (0 for
    /// normal hits).
    pub residual: f64,
}

const MISS: LookupResult = LookupResult {
    hit: false,
    first_use_of_prefetch: false,
    residual: 0.0,
};

/// A set-associative, true-LRU cache over cache-line numbers.
///
/// Tracks per-line prefetch bits so the simulator can account prefetch
/// accuracy (a prefetch is *useful* when a demand access hits the line
/// before it is evicted).
///
/// Line numbers must be below `u64::MAX`, which marks an empty way;
/// every line of a 64-bit address is.
///
/// # Example
///
/// ```
/// use voyager_sim::{Cache, CacheConfig};
///
/// let mut c = Cache::new(&CacheConfig { bytes: 4096, ways: 4, latency: 3 });
/// assert!(!c.demand_access(7, 0.0));
/// c.fill(7, 0.0, false);
/// assert!(c.demand_access(7, 1.0));
/// ```
#[derive(Debug)]
pub struct Cache {
    ways: usize,
    /// `sets - 1`; set counts are powers of two.
    set_mask: usize,
    /// Each way's line, set by set; [`EMPTY`] for a way never filled.
    /// A line is in at most one way.
    tags: Vec<u64>,
    /// Each way's LRU stamp; 0 for a way never filled, so the least
    /// recent way of a set is its first empty way if it has one.
    stamps: Vec<u64>,
    state: Vec<WayState>,
    stamp: u64,
    /// Demand accesses observed.
    pub(crate) accesses: u64,
    /// Demand misses observed.
    pub(crate) misses: u64,
    /// Prefetched lines that were evicted unused.
    pub(crate) prefetches_evicted_unused: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see
    /// [`CacheConfig::sets`]).
    pub fn new(config: &CacheConfig) -> Self {
        let sets = config.sets();
        let n = sets * config.ways;
        Cache {
            ways: config.ways,
            set_mask: sets - 1,
            tags: vec![EMPTY; n],
            stamps: vec![0; n],
            state: vec![EMPTY_STATE; n],
            stamp: 0,
            accesses: 0,
            misses: 0,
            prefetches_evicted_unused: 0,
        }
    }

    /// Index of the first way of `line`'s set.
    fn set_start(&self, line: u64) -> usize {
        (line as usize & self.set_mask) * self.ways
    }

    /// Index of the way holding `line`, if any. Every way's tag is
    /// compared, without a branch per way: a line is in at most one.
    fn find(&self, line: u64) -> Option<usize> {
        let start = self.set_start(line);
        let tags = &self.tags[start..start + self.ways];
        let mut way_plus_one = 0;
        for (i, &tag) in tags.iter().enumerate() {
            way_plus_one |= usize::from(tag == line) * (i + 1);
        }
        way_plus_one.checked_sub(1).map(|w| start + w)
    }

    /// Simple boolean demand access (for doc examples and tests);
    /// returns `true` on hit and records statistics.
    pub fn demand_access(&mut self, line: u64, now: f64) -> bool {
        self.lookup(line, now).hit
    }

    pub(crate) fn lookup(&mut self, line: u64, now: f64) -> LookupResult {
        self.accesses += 1;
        self.stamp += 1;
        let Some(w) = self.find(line) else {
            self.misses += 1;
            return MISS;
        };
        self.stamps[w] = self.stamp;
        let way = &mut self.state[w];
        LookupResult {
            hit: true,
            first_use_of_prefetch: std::mem::take(&mut way.prefetched),
            residual: (way.ready_at - now).max(0.0),
        }
    }

    /// Returns `true` if `line` is present (no statistics, no LRU
    /// update).
    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// Inserts `line`, evicting the set's least recently used line if
    /// needed; does nothing if `line` is already present. `prefetch`
    /// marks the line as prefetched with data arriving at `ready_at`.
    pub fn fill(&mut self, line: u64, ready_at: f64, prefetch: bool) {
        if !self.contains(line) {
            self.insert(line, ready_at, prefetch);
        }
    }

    /// [`fill`](Cache::fill) for a line the caller knows is absent,
    /// such as one whose lookup just missed.
    pub(crate) fn insert(&mut self, line: u64, ready_at: f64, prefetch: bool) {
        debug_assert!(line != EMPTY && !self.contains(line));
        self.stamp += 1;
        let start = self.set_start(line);
        let end = start + self.ways;
        // The first empty way, else the least recent one. (`min_by_key`
        // compiles to conditional moves; the same search as an
        // `if stamp < oldest` loop compiled to data-dependent branches
        // and ran slower.)
        let victim = start
            + self.stamps[start..end]
                .iter()
                .enumerate()
                .min_by_key(|&(_, &stamp)| stamp)
                .map_or(0, |(i, _)| i);
        if self.state[victim].prefetched {
            self.prefetches_evicted_unused += 1;
        }
        self.tags[victim] = line;
        self.stamps[victim] = self.stamp;
        self.state[victim] = WayState {
            prefetched: prefetch,
            ready_at,
        };
    }

    /// Number of demand accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of demand misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio (0.0 before any access).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways.
        Cache::new(&CacheConfig {
            bytes: 4 * 64,
            ways: 2,
            latency: 1,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.demand_access(4, 0.0));
        c.fill(4, 0.0, false);
        assert!(c.demand_access(4, 0.0));
        assert_eq!(c.accesses(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even lines, 2 sets).
        c.fill(0, 0.0, false);
        c.fill(2, 0.0, false);
        c.demand_access(0, 0.0); // touch 0 so 2 is LRU
        c.fill(4, 0.0, false); // evicts 2
        assert!(c.contains(0));
        assert!(!c.contains(2));
        assert!(c.contains(4));
    }

    #[test]
    fn prefetch_bit_counts_first_use_only() {
        let mut c = tiny();
        c.fill(6, 0.0, true);
        let r1 = c.lookup(6, 5.0);
        assert!(r1.hit && r1.first_use_of_prefetch);
        let r2 = c.lookup(6, 6.0);
        assert!(r2.hit && !r2.first_use_of_prefetch);
    }

    #[test]
    fn late_prefetch_pays_residual() {
        let mut c = tiny();
        c.fill(8, 100.0, true);
        let r = c.lookup(8, 40.0);
        assert_eq!(r.residual, 60.0);
        let r = c.lookup(8, 200.0);
        assert_eq!(r.residual, 0.0);
    }

    #[test]
    fn unused_prefetch_eviction_is_counted() {
        let mut c = tiny();
        c.fill(0, 0.0, true);
        c.fill(2, 0.0, false);
        c.fill(4, 0.0, false); // evicts line 0 (prefetched, never used)
        assert_eq!(c.prefetches_evicted_unused, 1);
    }

    #[test]
    fn miss_ratio_tracks_accesses() {
        let mut c = tiny();
        assert_eq!(c.miss_ratio(), 0.0);
        c.demand_access(1, 0.0);
        c.fill(1, 0.0, false);
        c.demand_access(1, 0.0);
        assert!((c.miss_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn refill_of_present_line_is_noop() {
        let mut c = tiny();
        c.fill(3, 0.0, false);
        c.fill(3, 0.0, true); // must not duplicate or re-mark
        let r = c.lookup(3, 0.0);
        assert!(r.hit && !r.first_use_of_prefetch);
    }

    /// The cache as an array of `Line` structs, indexed with `%`, that
    /// checks presence before every fill: the model the tag, stamp and
    /// state arrays replaced, kept as their reference.
    mod reference {
        use super::super::LookupResult;

        #[derive(Clone, Copy)]
        struct Line {
            tag: u64,
            valid: bool,
            lru: u64,
            prefetched: bool,
            ready_at: f64,
        }

        const INVALID: Line = Line {
            tag: 0,
            valid: false,
            lru: 0,
            prefetched: false,
            ready_at: 0.0,
        };

        pub(super) struct Cache {
            sets: usize,
            ways: usize,
            lines: Vec<Line>,
            stamp: u64,
            pub(super) accesses: u64,
            pub(super) misses: u64,
            pub(super) prefetches_evicted_unused: u64,
        }

        impl Cache {
            pub(super) fn new(sets: usize, ways: usize) -> Self {
                Cache {
                    sets,
                    ways,
                    lines: vec![INVALID; sets * ways],
                    stamp: 0,
                    accesses: 0,
                    misses: 0,
                    prefetches_evicted_unused: 0,
                }
            }

            fn set_range(&self, line: u64) -> std::ops::Range<usize> {
                let set = (line as usize) % self.sets;
                set * self.ways..(set + 1) * self.ways
            }

            /// Each way's line, set by set (`None` for an empty way).
            pub(super) fn layout(&self) -> Vec<Option<u64>> {
                self.lines
                    .iter()
                    .map(|l| l.valid.then_some(l.tag))
                    .collect()
            }

            pub(super) fn lookup(&mut self, line: u64, now: f64) -> LookupResult {
                self.accesses += 1;
                self.stamp += 1;
                let range = self.set_range(line);
                for l in &mut self.lines[range] {
                    if l.valid && l.tag == line {
                        l.lru = self.stamp;
                        let first_use = l.prefetched;
                        l.prefetched = false;
                        let residual = (l.ready_at - now).max(0.0);
                        return LookupResult {
                            hit: true,
                            first_use_of_prefetch: first_use,
                            residual,
                        };
                    }
                }
                self.misses += 1;
                LookupResult {
                    hit: false,
                    first_use_of_prefetch: false,
                    residual: 0.0,
                }
            }

            pub(super) fn contains(&self, line: u64) -> bool {
                let range = self.set_range(line);
                self.lines[range].iter().any(|l| l.valid && l.tag == line)
            }

            pub(super) fn fill(&mut self, line: u64, ready_at: f64, prefetch: bool) {
                if self.contains(line) {
                    return;
                }
                self.stamp += 1;
                let range = self.set_range(line);
                let (lo, hi) = (range.start, range.end);
                let stamp = self.stamp;
                let victim_idx = self.lines[lo..hi]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| if l.valid { l.lru } else { 0 })
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                let victim = &mut self.lines[lo..hi][victim_idx];
                if victim.valid && victim.prefetched {
                    self.prefetches_evicted_unused += 1;
                }
                *victim = Line {
                    tag: line,
                    valid: true,
                    lru: stamp,
                    prefetched: prefetch,
                    ready_at,
                };
            }
        }
    }

    fn layout(c: &Cache) -> Vec<Option<u64>> {
        c.tags.iter().map(|&t| (t != EMPTY).then_some(t)).collect()
    }

    /// Drives the cache and the reference with one seeded random
    /// sequence of lookups, fills (public and after a miss) and
    /// presence probes over a few lines per way, comparing every
    /// result, the ways' contents after every step, and the counters.
    fn agree_with_reference(sets: usize, ways: usize, seed: u64) {
        use voyager_trace::rng::{Rng, SeedableRng, StdRng};
        let cfg = CacheConfig {
            bytes: sets * ways * 64,
            ways,
            latency: 1,
        };
        let mut c = Cache::new(&cfg);
        let mut r = reference::Cache::new(sets, ways);
        let mut rng = StdRng::seed_from_u64(seed);
        let span = (3 * sets * ways) as u64;
        let mut now = 0.0;
        for step in 0..4_000 {
            now += f64::from(rng.gen_range(0..4u32));
            let line = rng.gen_range(0..span) + [0, 1 << 40][rng.gen_range(0..2usize)];
            let ready_at = now + f64::from(rng.gen_range(0..300u32));
            let prefetch = rng.gen_range(0..3u32) == 0;
            match rng.gen_range(0..4u32) {
                0 => {
                    // A demand walk: lookup, and insert on a miss.
                    let got = c.lookup(line, now);
                    assert_eq!(got, r.lookup(line, now), "lookup at step {step}");
                    if !got.hit {
                        c.insert(line, ready_at, prefetch);
                        r.fill(line, ready_at, prefetch);
                    }
                }
                1 => assert_eq!(
                    c.lookup(line, now),
                    r.lookup(line, now),
                    "lookup at step {step}"
                ),
                2 => {
                    c.fill(line, ready_at, prefetch);
                    r.fill(line, ready_at, prefetch);
                }
                _ => assert_eq!(c.contains(line), r.contains(line), "step {step}"),
            }
            assert_eq!(layout(&c), r.layout(), "ways after step {step}");
            assert_eq!(
                (c.accesses, c.misses, c.prefetches_evicted_unused),
                (r.accesses, r.misses, r.prefetches_evicted_unused),
                "counters after step {step}"
            );
        }
        assert!(c.prefetches_evicted_unused > 0 && c.misses > 0 && c.misses < c.accesses);
    }

    #[test]
    fn lru_matches_reference() {
        for (seed, (sets, ways)) in [(1, 2), (2, 2), (4, 4), (16, 8), (8, 16)]
            .into_iter()
            .enumerate()
        {
            agree_with_reference(sets, ways, seed as u64);
        }
    }

    #[test]
    fn empty_ways_fill_in_order_under_both_policies() {
        let mut c = Cache::new(&CacheConfig {
            bytes: 4 * 64,
            ways: 4,
            latency: 1,
        });
        for line in [40, 10, 30, 20] {
            c.fill(line, 0.0, false);
        }
        assert_eq!(layout(&c), vec![Some(40), Some(10), Some(30), Some(20)]);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn set_counts_must_be_powers_of_two() {
        Cache::new(&CacheConfig {
            bytes: 6 * 64,
            ways: 2,
            latency: 1,
        });
    }
}
