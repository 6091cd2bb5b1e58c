//! The layered candidate tables and their deterministic hash layout.
//!
//! Two direct-mapped, power-of-two-sized tables:
//!
//! * the **page-transition table**, keyed by a hash of the most recent
//!   `history` page tokens, storing up to `page_topk` successor pages
//!   with soft-label-derived weights;
//! * the **PC-indexed offset table**, keyed by the last PC token,
//!   storing up to `offset_topk` offsets.
//!
//! Every structure is fixed at construction from the [`TableConfig`]:
//! insertion never allocates, so the memory footprint can never exceed
//! the configured budget. Collisions on a bucket are resolved by a
//! space-saving-style frequency decay: the resident entry's mass is
//! decremented per colliding occurrence and the entry is evicted (and
//! the bucket re-claimed) once its mass is exhausted — so sustained
//! heavy keys displace one-off ones deterministically.

/// Sentinel for an unused candidate slot inside an entry.
const EMPTY_TOKEN: u32 = u32::MAX;

/// Most candidates one entry may store (`page_topk`, `offset_topk`):
/// a lookup ranks an entry in a stack buffer this long.
/// [`TableConfig::validate`] and `load_tables` enforce it; every
/// geometry in use stores 2–8.
pub(crate) const MAX_TOPK: usize = 16;

/// Seed separating the page-layer hash domain from the offset layer's.
const PAGE_HASH_SEED: u64 = 0xA076_1D64_78BD_642F;
/// Seed for the offset-layer hash domain.
const OFFSET_HASH_SEED: u64 = 0xE703_7ED1_A0B4_28DB;

/// `splitmix64`-style finalizer: the same mixing constants as
/// `voyager_tensor::rng`'s generator, used here as a stateless hash so
/// the index layout is a pure function of the key — identical across
/// rebuilds, processes, and platforms.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic key of a page-history window: hashes the last
/// `history` tokens of `pages` (all of them when the window is
/// shorter). Pure function — the layout-determinism property tests
/// pin this.
pub fn page_key(pages: &[usize], history: usize) -> u64 {
    let start = pages.len().saturating_sub(history.max(1));
    let mut h = PAGE_HASH_SEED;
    for &t in &pages[start..] {
        h = mix64(h ^ t as u64);
    }
    h
}

/// Deterministic key of the offset layer: the last PC token of the
/// window (the tables are PC-indexed, like the paper's baseline
/// prefetcher tables).
pub fn offset_key(pc: usize) -> u64 {
    mix64(OFFSET_HASH_SEED ^ pc as u64)
}

/// Geometry and budget of a [`DistilledTables`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableConfig {
    /// Page-history tokens hashed into the page-layer key.
    pub history: usize,
    /// Successor pages stored per page-table entry.
    pub page_topk: usize,
    /// Offsets stored per offset-table entry.
    pub offset_topk: usize,
    /// `log2` of the page-table bucket count.
    pub page_buckets_log2: u32,
    /// `log2` of the offset-table bucket count.
    pub offset_buckets_log2: u32,
    /// Hard ceiling on the table storage footprint;
    /// [`TableConfig::validate`] rejects geometries that exceed it and
    /// the tables never allocate after construction.
    pub memory_budget_bytes: usize,
    /// Rows per teacher forward sweep during distillation.
    pub distill_batch: usize,
}

/// Bytes of one table entry: tag + mass + `topk` (token, weight)
/// pairs.
fn entry_bytes(topk: usize) -> usize {
    8 + 4 + topk * (4 + 4)
}

impl TableConfig {
    /// A geometry sized to `budget` bytes: fixed candidate widths
    /// (8 successor pages, 4 offsets, history 4) with the offset table
    /// at 1024 buckets and the page table taking the largest
    /// power-of-two bucket count that still fits.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is below 64 KiB (too small for any useful
    /// table tier).
    pub fn for_budget(budget: usize) -> Self {
        assert!(
            budget >= 64 * 1024,
            "table budget {budget} below the 64 KiB floor"
        );
        let (page_topk, offset_topk, history) = (8, 4, 4);
        let offset_buckets_log2 = 10;
        let offset_bytes = (1usize << offset_buckets_log2) * entry_bytes(offset_topk);
        let remaining = budget - offset_bytes;
        let max_buckets = remaining / entry_bytes(page_topk);
        // Largest power of two with `buckets * entry <= remaining`.
        let page_buckets_log2 = usize::BITS - 1 - max_buckets.leading_zeros();
        let cfg = TableConfig {
            history,
            page_topk,
            offset_topk,
            page_buckets_log2,
            offset_buckets_log2,
            memory_budget_bytes: budget,
            distill_batch: 128,
        };
        cfg.validate();
        cfg
    }

    /// Bytes the two tables occupy with this geometry (fixed at
    /// construction; insertion never changes it).
    pub fn layout_bytes(&self) -> usize {
        (1usize << self.page_buckets_log2) * entry_bytes(self.page_topk)
            + (1usize << self.offset_buckets_log2) * entry_bytes(self.offset_topk)
    }

    /// Validates internal consistency, including that the layout fits
    /// the memory budget.
    ///
    /// # Panics
    ///
    /// Panics on zero widths, widths above 16, oversized bucket
    /// exponents, or a layout that exceeds `memory_budget_bytes`.
    pub fn validate(&self) {
        assert!(self.history > 0, "history must be positive");
        assert!(
            self.page_topk > 0 && self.offset_topk > 0,
            "top-k widths must be positive"
        );
        assert!(
            self.page_topk <= MAX_TOPK && self.offset_topk <= MAX_TOPK,
            "top-k widths must be at most {MAX_TOPK}"
        );
        assert!(self.distill_batch > 0, "distill batch must be positive");
        assert!(
            self.page_buckets_log2 <= 28 && self.offset_buckets_log2 <= 28,
            "bucket exponent too large"
        );
        assert!(
            self.layout_bytes() <= self.memory_budget_bytes,
            "table layout ({} bytes) exceeds the memory budget ({} bytes)",
            self.layout_bytes(),
            self.memory_budget_bytes
        );
    }
}

/// What an insertion did, for the distiller's statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The key claimed an empty bucket.
    Claimed,
    /// The key was already resident; its soft labels were merged.
    Merged,
    /// A different key holds the bucket and survived (its mass was
    /// decayed by one).
    CollisionKept,
    /// A different key held the bucket, ran out of mass, and was
    /// evicted; this key claimed the bucket.
    Evicted,
}

/// One direct-mapped candidate table (a "layer"): `buckets` entries of
/// `topk` weighted candidates each, flat storage, no pointers.
#[derive(Debug, Clone, PartialEq)]
struct CandidateTable {
    topk: usize,
    mask: u64,
    /// Full key hash per bucket (valid when `mass > 0`).
    tags: Vec<u64>,
    /// Occurrence mass per bucket; `0.0` marks an empty bucket.
    mass: Vec<f32>,
    /// `buckets * topk` candidate tokens (`EMPTY_TOKEN` = unused).
    tokens: Vec<u32>,
    /// `buckets * topk` accumulated soft-label weights.
    weights: Vec<f32>,
}

impl CandidateTable {
    fn new(buckets_log2: u32, topk: usize) -> Self {
        let buckets = 1usize << buckets_log2;
        CandidateTable {
            topk,
            mask: (buckets - 1) as u64,
            tags: vec![0; buckets],
            mass: vec![0.0; buckets],
            tokens: vec![EMPTY_TOKEN; buckets * topk],
            weights: vec![0.0; buckets * topk],
        }
    }

    fn bucket(&self, key: u64) -> usize {
        (key & self.mask) as usize
    }

    fn slots(&self, b: usize) -> (&[u32], &[f32]) {
        let (lo, hi) = (b * self.topk, (b + 1) * self.topk);
        (&self.tokens[lo..hi], &self.weights[lo..hi])
    }

    fn slots_mut(&mut self, b: usize) -> (&mut [u32], &mut [f32]) {
        let (lo, hi) = (b * self.topk, (b + 1) * self.topk);
        (&mut self.tokens[lo..hi], &mut self.weights[lo..hi])
    }

    /// Merges soft labels into an entry's candidate slots: accumulate
    /// on token match, fill an empty slot, else displace the lightest
    /// stored candidate when the incoming weight beats it.
    fn merge(tokens: &mut [u32], weights: &mut [f32], soft: &[(u32, f32)]) {
        for &(tok, w) in soft {
            if let Some(i) = tokens.iter().position(|&t| t == tok) {
                weights[i] += w;
            } else if let Some(i) = tokens.iter().position(|&t| t == EMPTY_TOKEN) {
                tokens[i] = tok;
                weights[i] = w;
            } else {
                let mut min_i = 0;
                for i in 1..weights.len() {
                    if weights[i] < weights[min_i] {
                        min_i = i;
                    }
                }
                if w > weights[min_i] {
                    tokens[min_i] = tok;
                    weights[min_i] = w;
                }
            }
        }
    }

    fn insert(&mut self, key: u64, soft: &[(u32, f32)]) -> InsertOutcome {
        let b = self.bucket(key);
        if self.mass[b] == 0.0 {
            self.tags[b] = key;
            self.mass[b] = 1.0;
            let (tokens, weights) = self.slots_mut(b);
            tokens.fill(EMPTY_TOKEN);
            weights.fill(0.0);
            Self::merge(tokens, weights, soft);
            return InsertOutcome::Claimed;
        }
        if self.tags[b] == key {
            self.mass[b] += 1.0;
            let (tokens, weights) = self.slots_mut(b);
            Self::merge(tokens, weights, soft);
            return InsertOutcome::Merged;
        }
        // Collision: decay the resident entry; evict once exhausted.
        self.mass[b] -= 1.0;
        if self.mass[b] > 0.0 {
            return InsertOutcome::CollisionKept;
        }
        self.tags[b] = key;
        self.mass[b] = 1.0;
        let (tokens, weights) = self.slots_mut(b);
        tokens.fill(EMPTY_TOKEN);
        weights.fill(0.0);
        Self::merge(tokens, weights, soft);
        InsertOutcome::Evicted
    }

    /// The candidate slots for `key`, if resident.
    fn get(&self, key: u64) -> Option<(&[u32], &[f32])> {
        let b = self.bucket(key);
        (self.mass[b] > 0.0 && self.tags[b] == key).then(|| self.slots(b))
    }

    fn occupied(&self) -> usize {
        self.mass.iter().filter(|&&m| m > 0.0).count()
    }

    fn bytes(&self) -> usize {
        self.tags.len() * 8 + self.mass.len() * 4 + self.tokens.len() * 4 + self.weights.len() * 4
    }
}

/// The distilled student: page-transition table + PC-indexed offset
/// table, with a fixed hash layout and memory budget.
///
/// Built by [`distill`](crate::distill) (or incrementally via the
/// `insert_*` methods), served via [`DistilledTables::predict`], and
/// shipped through [`DistilledTables::save`] /
/// [`DistilledTables::load`].
#[derive(Debug, Clone, PartialEq)]
pub struct DistilledTables {
    cfg: TableConfig,
    pages: CandidateTable,
    offsets: CandidateTable,
}

impl DistilledTables {
    /// Creates empty tables with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`TableConfig::validate`]).
    pub fn new(cfg: &TableConfig) -> Self {
        cfg.validate();
        DistilledTables {
            cfg: *cfg,
            pages: CandidateTable::new(cfg.page_buckets_log2, cfg.page_topk),
            offsets: CandidateTable::new(cfg.offset_buckets_log2, cfg.offset_topk),
        }
    }

    /// The geometry this instance was built with.
    pub fn config(&self) -> &TableConfig {
        &self.cfg
    }

    /// Actual bytes held by the two tables. Constant for the lifetime
    /// of the instance and always `<= memory_budget_bytes`.
    pub fn memory_bytes(&self) -> usize {
        self.pages.bytes() + self.offsets.bytes()
    }

    /// Occupied page-table buckets.
    pub fn page_entries(&self) -> usize {
        self.pages.occupied()
    }

    /// Occupied offset-table buckets.
    pub fn offset_entries(&self) -> usize {
        self.offsets.occupied()
    }

    /// Accumulates one observation of `page_hist` with the teacher's
    /// soft page labels into the page-transition table.
    pub fn insert_page(&mut self, page_hist: &[usize], soft: &[(u32, f32)]) -> InsertOutcome {
        self.pages
            .insert(page_key(page_hist, self.cfg.history), soft)
    }

    /// Accumulates one observation of `pc` with the teacher's soft
    /// offset labels into the offset table.
    pub fn insert_offset(&mut self, pc: usize, soft: &[(u32, f32)]) -> InsertOutcome {
        self.offsets.insert(offset_key(pc), soft)
    }

    /// Degree-`k` table inference for one request context: up to `k`
    /// `(page_token, offset_token, score)` candidates ranked by the
    /// product of the normalized per-layer weights — the same ranking
    /// scheme as the neural paths. Returns `None` (a **table miss**)
    /// when either layer has no entry for the context; the serving
    /// layer then falls back to the int8 path.
    ///
    /// Bumps the process-global `infer.table.*` hit/miss counters.
    pub fn predict(
        &self,
        page_hist: &[usize],
        pc: usize,
        k: usize,
    ) -> Option<Vec<(u32, u32, f32)>> {
        let out = self.predict_quiet(page_hist, pc, k);
        match out {
            Some(_) => crate::note_table_hit(),
            None => crate::note_table_miss(),
        }
        out
    }

    /// [`DistilledTables::predict`] without touching the telemetry
    /// counters — used by the distillation report's self-evaluation so
    /// building tables does not inflate serving metrics.
    pub fn predict_quiet(
        &self,
        page_hist: &[usize],
        pc: usize,
        k: usize,
    ) -> Option<Vec<(u32, u32, f32)>> {
        if k == 0 {
            return None;
        }
        let (ptoks, pweights) = self.pages.get(page_key(page_hist, self.cfg.history))?;
        let (otoks, oweights) = self.offsets.get(offset_key(pc))?;
        let mut page_buf = [(EMPTY_TOKEN, 0.0); MAX_TOPK];
        let mut offset_buf = [(EMPTY_TOKEN, 0.0); MAX_TOPK];
        let pages = rank_candidates(ptoks, pweights, &mut page_buf);
        let offsets = rank_candidates(otoks, oweights, &mut offset_buf);
        if pages.is_empty() || offsets.is_empty() {
            return None;
        }
        let mut top: Vec<(u32, u32, f32)> = Vec::with_capacity(k.min(pages.len() * offsets.len()));
        for &(p, pw) in pages {
            for &(o, ow) in offsets {
                let score = pw * ow;
                // Stable, descending, bounded at k: a pair goes after
                // every kept pair that scores at least as high, so `top`
                // is the first k of the full order — the exact ordering
                // discipline of the neural paths' `rank_row`.
                let at = top.partition_point(|c| c.2.total_cmp(&score).is_ge());
                if at < k {
                    if top.len() == k {
                        top.pop();
                    }
                    top.insert(at, (p, o, score));
                }
            }
        }
        Some(top)
    }

    /// Borrows the raw storage of both layers, in a fixed field order,
    /// for serialization.
    pub(crate) fn raw(&self) -> RawTables<'_> {
        RawTables {
            page_tags: &self.pages.tags,
            page_mass: &self.pages.mass,
            page_tokens: &self.pages.tokens,
            page_weights: &self.pages.weights,
            offset_tags: &self.offsets.tags,
            offset_mass: &self.offsets.mass,
            offset_tokens: &self.offsets.tokens,
            offset_weights: &self.offsets.weights,
        }
    }

    /// Rebuilds an instance from deserialized raw storage.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths do not match `cfg`'s geometry
    /// (callers validate lengths while reading).
    pub(crate) fn from_raw(cfg: TableConfig, raw: OwnedRawTables) -> Self {
        cfg.validate();
        let page_buckets = 1usize << cfg.page_buckets_log2;
        let offset_buckets = 1usize << cfg.offset_buckets_log2;
        assert_eq!(raw.page_tags.len(), page_buckets);
        assert_eq!(raw.page_tokens.len(), page_buckets * cfg.page_topk);
        assert_eq!(raw.offset_tags.len(), offset_buckets);
        assert_eq!(raw.offset_tokens.len(), offset_buckets * cfg.offset_topk);
        DistilledTables {
            cfg,
            pages: CandidateTable {
                topk: cfg.page_topk,
                mask: (page_buckets - 1) as u64,
                tags: raw.page_tags,
                mass: raw.page_mass,
                tokens: raw.page_tokens,
                weights: raw.page_weights,
            },
            offsets: CandidateTable {
                topk: cfg.offset_topk,
                mask: (offset_buckets - 1) as u64,
                tags: raw.offset_tags,
                mass: raw.offset_mass,
                tokens: raw.offset_tokens,
                weights: raw.offset_weights,
            },
        }
    }
}

/// Ranks the non-empty candidates of one entry into `buf`, descending
/// by weight (ties by ascending token — the shared top-k convention),
/// normalized so the weights of the returned prefix sum to 1.
fn rank_candidates<'b>(
    tokens: &[u32],
    weights: &[f32],
    buf: &'b mut [(u32, f32); MAX_TOPK],
) -> &'b [(u32, f32)] {
    let mut len = 0;
    for (&t, &w) in tokens.iter().zip(weights) {
        if t != EMPTY_TOKEN {
            buf[len] = (t, w);
            len += 1;
        }
    }
    let out = &mut buf[..len];
    out.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let sum: f32 = out.iter().map(|&(_, w)| w).sum();
    if sum > 0.0 {
        for c in out.iter_mut() {
            c.1 /= sum;
        }
    }
    out
}

/// Borrowed raw storage (serialization helper).
pub(crate) struct RawTables<'a> {
    pub(crate) page_tags: &'a [u64],
    pub(crate) page_mass: &'a [f32],
    pub(crate) page_tokens: &'a [u32],
    pub(crate) page_weights: &'a [f32],
    pub(crate) offset_tags: &'a [u64],
    pub(crate) offset_mass: &'a [f32],
    pub(crate) offset_tokens: &'a [u32],
    pub(crate) offset_weights: &'a [f32],
}

/// Owned raw storage (deserialization helper).
pub(crate) struct OwnedRawTables {
    pub(crate) page_tags: Vec<u64>,
    pub(crate) page_mass: Vec<f32>,
    pub(crate) page_tokens: Vec<u32>,
    pub(crate) page_weights: Vec<f32>,
    pub(crate) offset_tags: Vec<u64>,
    pub(crate) offset_mass: Vec<f32>,
    pub(crate) offset_tokens: Vec<u32>,
    pub(crate) offset_weights: Vec<f32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> TableConfig {
        TableConfig {
            history: 2,
            page_topk: 2,
            offset_topk: 2,
            page_buckets_log2: 3,
            offset_buckets_log2: 3,
            memory_budget_bytes: 64 * 1024,
            distill_batch: 4,
        }
    }

    #[test]
    fn keys_are_pure_functions_of_the_window() {
        let a = page_key(&[1, 2, 3, 4], 2);
        assert_eq!(a, page_key(&[9, 9, 3, 4], 2), "only last `history` count");
        assert_ne!(a, page_key(&[1, 2, 3, 5], 2));
        assert_eq!(a, page_key(&[1, 2, 3, 4], 2));
        assert_ne!(page_key(&[7], 4), offset_key(7), "layer domains separate");
        assert_eq!(offset_key(3), offset_key(3));
        assert_ne!(offset_key(3), offset_key(4));
    }

    #[test]
    fn claim_merge_and_lookup() {
        let mut t = DistilledTables::new(&tiny_cfg());
        assert_eq!(
            t.insert_page(&[1, 2], &[(5, 0.6), (7, 0.3)]),
            InsertOutcome::Claimed
        );
        assert_eq!(
            t.insert_page(&[1, 2], &[(5, 0.2), (9, 0.5)]),
            InsertOutcome::Merged
        );
        assert_eq!(t.insert_offset(3, &[(11, 0.9)]), InsertOutcome::Claimed);
        let preds = t.predict(&[1, 2], 3, 4).unwrap();
        // Page 5 accumulated 0.8; the merge displaced 7 (0.3) with 9
        // (0.5) in the 2-wide entry.
        assert_eq!(preds[0].0, 5);
        assert_eq!(preds[0].1, 11);
        assert_eq!(preds[1].0, 9);
        assert!(preds[0].2 > preds[1].2);
        // Unknown contexts miss on either layer.
        assert!(t.predict(&[8, 8], 3, 2).is_none());
        assert!(t.predict(&[1, 2], 4, 2).is_none());
    }

    #[test]
    fn collision_decay_evicts_light_keys_and_keeps_heavy_ones() {
        let mut t = DistilledTables::new(&tiny_cfg());
        // Find two histories that collide in the 8-bucket page table.
        let base = [1usize, 2];
        let mut other = None;
        'search: for a in 0..64usize {
            for b in 0..64usize {
                let cand = [a, b];
                if cand != base
                    && page_key(&cand, 2) != page_key(&base, 2)
                    && (page_key(&cand, 2) & 7) == (page_key(&base, 2) & 7)
                {
                    other = Some(cand);
                    break 'search;
                }
            }
        }
        let other = other.expect("an 8-bucket table must have colliding keys");
        // Resident key observed 3 times -> mass 3.
        for _ in 0..3 {
            t.insert_page(&base, &[(1, 1.0)]);
        }
        // Two colliding observations decay it but do not evict...
        assert_eq!(
            t.insert_page(&other, &[(2, 1.0)]),
            InsertOutcome::CollisionKept
        );
        assert_eq!(
            t.insert_page(&other, &[(2, 1.0)]),
            InsertOutcome::CollisionKept
        );
        assert!(t.pages.get(page_key(&base, 2)).is_some());
        // ...the third exhausts its mass and takes the bucket.
        assert_eq!(t.insert_page(&other, &[(2, 1.0)]), InsertOutcome::Evicted);
        assert!(t.pages.get(page_key(&base, 2)).is_none());
        assert!(t.pages.get(page_key(&other, 2)).is_some());
    }

    #[test]
    fn memory_is_fixed_at_construction_and_within_budget() {
        let cfg = tiny_cfg();
        let mut t = DistilledTables::new(&cfg);
        let bytes = t.memory_bytes();
        assert!(bytes <= cfg.memory_budget_bytes);
        assert_eq!(bytes, cfg.layout_bytes());
        for i in 0..10_000usize {
            t.insert_page(&[i, i * 3], &[(i as u32 % 50, 0.5)]);
            t.insert_offset(i % 997, &[(i as u32 % 64, 0.5)]);
        }
        assert_eq!(t.memory_bytes(), bytes, "insertion must never allocate");
        assert!(t.page_entries() <= 8);
        assert!(t.offset_entries() <= 8);
    }

    #[test]
    #[should_panic(expected = "exceeds the memory budget")]
    fn oversized_layout_is_rejected() {
        let mut cfg = tiny_cfg();
        cfg.memory_budget_bytes = 16;
        DistilledTables::new(&cfg);
    }

    #[test]
    #[should_panic(expected = "top-k widths must be at most 16")]
    fn entry_wider_than_the_rank_buffer_is_rejected() {
        let mut cfg = tiny_cfg();
        cfg.page_topk = MAX_TOPK + 1;
        DistilledTables::new(&cfg);
    }

    /// The lookup as it ranked before it ranked in place, kept as the
    /// reference: both layers ranked into fresh vectors, every pair of
    /// them stable-sorted by score, then cut to `k`.
    fn all_pairs_predict(
        t: &DistilledTables,
        page_hist: &[usize],
        pc: usize,
        k: usize,
    ) -> Option<Vec<(u32, u32, f32)>> {
        fn ranked_candidates(tokens: &[u32], weights: &[f32]) -> Vec<(u32, f32)> {
            let mut out: Vec<(u32, f32)> = tokens
                .iter()
                .zip(weights)
                .filter(|&(&t, _)| t != EMPTY_TOKEN)
                .map(|(&t, &w)| (t, w))
                .collect();
            out.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let sum: f32 = out.iter().map(|&(_, w)| w).sum();
            if sum > 0.0 {
                for c in &mut out {
                    c.1 /= sum;
                }
            }
            out
        }
        if k == 0 {
            return None;
        }
        let (ptoks, pweights) = t.pages.get(page_key(page_hist, t.cfg.history))?;
        let (otoks, oweights) = t.offsets.get(offset_key(pc))?;
        let pages = ranked_candidates(ptoks, pweights);
        let offsets = ranked_candidates(otoks, oweights);
        if pages.is_empty() || offsets.is_empty() {
            return None;
        }
        let mut pairs = Vec::with_capacity(pages.len() * offsets.len());
        for &(p, pw) in &pages {
            for &(o, ow) in &offsets {
                pairs.push((p, o, pw * ow));
            }
        }
        for i in 1..pairs.len() {
            let mut j = i;
            while j > 0 && pairs[j].2.total_cmp(&pairs[j - 1].2) == std::cmp::Ordering::Greater {
                pairs.swap(j, j - 1);
                j -= 1;
            }
        }
        pairs.truncate(k);
        Some(pairs)
    }

    #[test]
    fn lookup_matches_the_all_pairs_reference_bit_for_bit() {
        let mut state = 0x7AB1_E5EED_u64;
        let mut next = move |bound: u64| {
            state = mix64(state);
            state % bound
        };
        // Few tokens and a small weight palette: ties and repeated
        // tokens are common, and about one slot in five stays empty.
        // Every fourth table also stores weights a loaded snapshot
        // could hold (negative, -0, NaN, infinite).
        const PALETTE: [f32; 6] = [0.0, 0.125, 0.25, 0.25, 0.5, 3.0];
        const SPECIAL: [f32; 4] = [-0.5, -0.0, f32::NAN, f32::INFINITY];
        let bits = |r: Option<Vec<(u32, u32, f32)>>| {
            r.map(|v| {
                v.into_iter()
                    .map(|(p, o, s)| (p, o, s.to_bits()))
                    .collect::<Vec<_>>()
            })
        };
        for round in 0..400usize {
            let cfg = TableConfig {
                page_topk: 2 + next(7) as usize,
                offset_topk: 2 + next(7) as usize,
                ..tiny_cfg()
            };
            let mut t = DistilledTables::new(&cfg);
            let (hist, pc) = ([round, round + 1], round);
            t.insert_page(&hist, &[]);
            t.insert_offset(pc, &[]);
            let pb = t.pages.bucket(page_key(&hist, cfg.history));
            let ob = t.offsets.bucket(offset_key(pc));
            for (layer, b) in [(&mut t.pages, pb), (&mut t.offsets, ob)] {
                let (tokens, weights) = layer.slots_mut(b);
                for (tok, w) in tokens.iter_mut().zip(weights) {
                    *tok = if next(5) == 0 {
                        EMPTY_TOKEN
                    } else {
                        next(6) as u32
                    };
                    *w = if round % 4 == 3 && next(3) == 0 {
                        SPECIAL[next(4) as usize]
                    } else {
                        PALETTE[next(6) as usize]
                    };
                }
            }
            for k in 0..=9 {
                assert_eq!(
                    bits(t.predict_quiet(&hist, pc, k)),
                    bits(all_pairs_predict(&t, &hist, pc, k)),
                    "round {round}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn for_budget_fits_and_scales() {
        let small = TableConfig::for_budget(64 * 1024);
        let big = TableConfig::for_budget(4 * 1024 * 1024);
        small.validate();
        big.validate();
        assert!(small.layout_bytes() <= 64 * 1024);
        assert!(big.layout_bytes() <= 4 * 1024 * 1024);
        assert!(big.page_buckets_log2 > small.page_buckets_log2);
    }
}
