//! Panel packing for the GEMM micro-kernels.
//!
//! The x86 tiles read A and B where they lie (see `simd::x86`), so on
//! the x86 tiers the only operand still packed is B, and only when
//! NT's `[n, k]` storage puts a tile's columns `k` apart or B's rows
//! are a page or more apart: it is copied once per call (or served
//! from the cache below) into NR-wide column panels (`[panel][p][NR]`,
//! zero-padded on the right). The packed driver of the other tiers
//! (NEON and the scalar tier) also copies each MR-row block of A into
//! a `[p][MR]` panel (zero-padded at the bottom), after which every
//! layout feeds its layout-blind kernels unit-stride.
//!
//! Zero padding is exact under the fused-multiply-add contract:
//! `fma(0.0, 0.0, acc) == acc` bit-for-bit, so padded lanes never
//! perturb real outputs (they are simply not stored back).
//!
//! Scratch buffers are thread-local and grow to the high-water mark;
//! this module is on the analyzer's sanctioned-allocation list for
//! exactly that reason (same policy as `infer::Arena`).

use crate::kernels::Layout;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Reusable per-thread packing scratch. `a` holds all `[k][MR]`
/// row-block panels, `b` holds all `[k][NR]` panels of the call, and
/// `i8acc` is the per-row i32 accumulator strip used by the scalar
/// fused int8 path.
#[derive(Default)]
pub(crate) struct PackScratch {
    pub(crate) a: Vec<f32>,
    pub(crate) b: Vec<f32>,
    pub(crate) i8acc: Vec<i32>,
}

thread_local! {
    static SCRATCH: RefCell<PackScratch> = RefCell::new(PackScratch::default());
}

/// Runs `f` with this thread's packing scratch. Kernels never nest,
/// so the `RefCell` borrow is unique by construction.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut PackScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Runs `f(row, strip)` for each of `rows` rows with this thread's
/// reusable `n`-length i32 strip, re-zeroed before every call. This is
/// the scalar fused-int8 path's whole scratch story — one strip
/// instead of an `m × n` accumulator buffer — kept here so the
/// amortized growth lives in the sanctioned module.
pub(crate) fn for_each_zeroed_i8_strip(
    n: usize,
    rows: usize,
    mut f: impl FnMut(usize, &mut [i32]),
) {
    with_scratch(|s| {
        s.i8acc.clear();
        s.i8acc.resize(n, 0);
        for i in 0..rows {
            for v in s.i8acc.iter_mut() {
                *v = 0;
            }
            f(i, &mut s.i8acc);
        }
    });
}

// ---------------------------------------------------------------------
// Packed-B panel cache (ROADMAP PR-9 follow-up).
//
// Model weights sit on the B side of the backward data-gradient
// product (`dY @ W^T`, the NT layout x86 still packs) and of every
// forward GEMM on the packing tiers, and they keep the same bytes
// across thousands of calls between optimizer steps. Re-packing them
// into NR-wide panels on every call is pure overhead —
// the panels are a deterministic function of (bytes, layout, panel
// width). This cache keys packed panels on the tensor's content
// version (`Tensor2::version`, refreshed on every mutation, so
// invalidation is automatic) plus the pack-shaping parameters.
//
// Single-use B operands — activations, whose versions never repeat —
// must not churn the cache, so a key is only *promoted* into the cache
// the second time it misses (a small ring remembers recently missed
// keys). Weights therefore pay two packs and then hit forever;
// activations always pack into the reusable thread scratch and never
// allocate a cache entry. Entries are LRU-evicted beyond a byte and
// entry budget. Everything is thread-local (no locks on the hot path);
// each trainer replica's thread warms its own copy.
//
// Cache hits are bitwise-exact by construction: `pack_b` is
// deterministic, and an unchanged version guarantees unchanged operand
// bytes. `packed_b_cache_stats` exposes hit/miss counters so tests and
// benches can assert the steady state.

/// Identity of one packed-B image: content version of the source
/// tensor plus every parameter that shapes the panel bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct BKey {
    version: u64,
    layout: Layout,
    k: usize,
    n: usize,
    nrw: usize,
}

/// Max panel bytes the per-thread cache may retain.
const B_CACHE_MAX_BYTES: usize = 64 << 20;
/// Max entries per thread (weights in flight are ~a dozen keys).
const B_CACHE_MAX_ENTRIES: usize = 32;
/// Recently missed keys remembered for second-miss promotion.
const B_MISS_RING: usize = 32;

#[derive(Default)]
struct BCache {
    /// `(key, panels, last-use tick)`; linear scan — the entry cap is
    /// tiny next to the cost of one pack.
    entries: Vec<(BKey, Rc<Vec<f32>>, u64)>,
    missed: Vec<BKey>,
    miss_cursor: usize,
    tick: u64,
}

thread_local! {
    static B_CACHE: RefCell<BCache> = RefCell::new(BCache::default());
}

static B_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static B_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

/// `(hits, misses)` of the packed-B cache across all threads since
/// process start. A miss is any versioned lookup that had to pack,
/// whether or not the result was then promoted into the cache.
pub fn packed_b_cache_stats() -> (u64, u64) {
    (
        B_CACHE_HITS.load(Ordering::Relaxed),
        B_CACHE_MISSES.load(Ordering::Relaxed),
    )
}

/// Drops this thread's cached panels and promotion ring (test support;
/// steady-state code never needs it).
pub fn clear_packed_b_cache() {
    B_CACHE.with(|c| {
        let mut c = c.borrow_mut();
        c.entries.clear();
        c.missed.clear();
        c.miss_cursor = 0;
    });
}

/// Looks up (or, on a second miss, builds and caches) the packed-B
/// panels for a *versioned* operand. Returns `None` for `version == 0`
/// (unversioned: slice-level callers) or when the key was not seen
/// recently — the caller then packs into its scratch as before.
pub(crate) fn cached_b(
    b: &[f32],
    layout: Layout,
    k: usize,
    n: usize,
    nrw: usize,
    version: u64,
) -> Option<Rc<Vec<f32>>> {
    if version == 0 {
        return None;
    }
    let key = BKey {
        version,
        layout,
        k,
        n,
        nrw,
    };
    B_CACHE.with(|c| {
        let mut c = c.borrow_mut();
        c.tick += 1;
        let now = c.tick;
        if let Some(entry) = c.entries.iter_mut().find(|(ek, _, _)| *ek == key) {
            entry.2 = now;
            B_CACHE_HITS.fetch_add(1, Ordering::Relaxed);
            return Some(Rc::clone(&entry.1));
        }
        B_CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
        if let Some(pos) = c.missed.iter().position(|mk| *mk == key) {
            // Second miss: this operand repeats across calls — promote.
            c.missed.swap_remove(pos);
            if c.miss_cursor > c.missed.len() {
                c.miss_cursor = 0;
            }
            let mut panels = Vec::new();
            pack_b(b, layout, k, n, nrw, &mut panels);
            let panels = Rc::new(panels);
            c.entries.push((key, Rc::clone(&panels), now));
            evict(&mut c);
            return Some(panels);
        }
        // First sighting: remember the key, let the caller use scratch.
        if c.missed.len() < B_MISS_RING {
            c.missed.push(key);
        } else {
            let cur = c.miss_cursor;
            c.missed[cur] = key;
            c.miss_cursor = (cur + 1) % B_MISS_RING;
        }
        None
    })
}

/// Evicts least-recently-used entries until the cache fits its entry
/// and byte budgets.
fn evict(c: &mut BCache) {
    let bytes = |e: &[(BKey, Rc<Vec<f32>>, u64)]| -> usize {
        e.iter().map(|(_, p, _)| p.len() * size_of::<f32>()).sum()
    };
    while c.entries.len() > B_CACHE_MAX_ENTRIES || bytes(&c.entries) > B_CACHE_MAX_BYTES {
        let Some(oldest) = c
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, _, t))| *t)
            .map(|(i, _)| i)
        else {
            return; // empty cache is already within budget
        };
        c.entries.swap_remove(oldest);
    }
}

/// Packs the `m` rows of A into `ceil(m / mrw)` row-block panels laid
/// out `[block][p][mrw]` in `dst`, zero-padding the last block's
/// missing rows. For NN/NT, A is `[m, k]` row-major; for TN,
/// A is `[k, m]` (the pack is where the transpose happens, once per
/// call instead of per tile visit).
pub(crate) fn pack_a(
    a: &[f32],
    layout: Layout,
    m: usize,
    k: usize,
    mrw: usize,
    dst: &mut Vec<f32>,
) {
    let blocks = m.div_ceil(mrw);
    dst.resize(blocks * k * mrw, 0.0);
    for bi in 0..blocks {
        let i0 = bi * mrw;
        let mr = mrw.min(m - i0);
        let panel = &mut dst[bi * k * mrw..(bi + 1) * k * mrw];
        match (mr, mrw) {
            (8, 8) => pack_full_block::<8>(a, layout, m, k, i0, panel),
            // Any other block (NEON's 4-row blocks, a short last
            // block): element by element through A's row and column
            // strides.
            _ => {
                let (rs, cs) = match layout {
                    Layout::TN => (1, m),
                    Layout::NN | Layout::NT => (k, 1),
                };
                for (p, step) in panel.chunks_exact_mut(mrw).enumerate() {
                    let (real, pad) = step.split_at_mut(mr);
                    for (r, x) in real.iter_mut().enumerate() {
                        *x = a[(i0 + r) * rs + p * cs];
                    }
                    pad.fill(0.0);
                }
            }
        }
    }
}

/// Packs the full `MR`-row block of A starting at row `i0` into its
/// `[p][MR]` panel with fixed-width copies. At the scalar tier's 8 × 8
/// tile a pack element by element, or by a runtime-width copy per `p`
/// (a `memcpy` call), rivals the product itself.
fn pack_full_block<const MR: usize>(
    a: &[f32],
    layout: Layout,
    m: usize,
    k: usize,
    i0: usize,
    panel: &mut [f32],
) {
    let steps = panel.chunks_exact_mut(MR);
    match layout {
        Layout::NN | Layout::NT => {
            let rows: [&[f32]; MR] = std::array::from_fn(|r| &a[(i0 + r) * k..(i0 + r + 1) * k]);
            for (p, step) in steps.enumerate() {
                for (x, row) in step.iter_mut().zip(&rows) {
                    *x = row[p];
                }
            }
        }
        Layout::TN => {
            for (step, src) in steps.zip(a[i0..].chunks(m)) {
                step.copy_from_slice(&src[..MR]);
            }
        }
    }
}

/// Packs all of B into `ceil(n / nrw)` column panels laid out
/// `[panel][p][nrw]` in `dst`, zero-padding the last panel's missing
/// columns. For NN/TN, B is `[k, n]` row-major; for NT, B is `[n, k]`
/// (again the pack performs the transpose once per call).
pub(crate) fn pack_b(
    b: &[f32],
    layout: Layout,
    k: usize,
    n: usize,
    nrw: usize,
    dst: &mut Vec<f32>,
) {
    let panels = n.div_ceil(nrw);
    dst.resize(panels * k * nrw, 0.0);
    for t in 0..panels {
        let j0 = t * nrw;
        let w = nrw.min(n - j0);
        let base = t * k * nrw;
        match layout {
            Layout::NN | Layout::TN => {
                for p in 0..k {
                    let src = &b[p * n + j0..p * n + j0 + w];
                    dst[base + p * nrw..base + p * nrw + w].copy_from_slice(src);
                }
            }
            Layout::NT => {
                for (c, row) in b[j0 * k..(j0 + w) * k].chunks_exact(k).enumerate() {
                    for (p, &v) in row.iter().enumerate() {
                        dst[base + p * nrw + c] = v;
                    }
                }
            }
        }
        if w < nrw {
            for p in 0..k {
                for slot in &mut dst[base + p * nrw + w..base + (p + 1) * nrw] {
                    *slot = 0.0;
                }
            }
        }
    }
}

/// Number of live entries in this thread's packed-B cache (test
/// support).
#[cfg(test)]
pub(crate) fn b_cache_len() -> usize {
    B_CACHE.with(|c| c.borrow().entries.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor2;

    fn fill(len: usize) -> Vec<f32> {
        (0..len).map(|i| (i as f32) * 0.5 - 3.0).collect()
    }

    #[test]
    fn cached_b_promotes_on_second_miss_and_matches_fresh_pack() {
        clear_packed_b_cache();
        let mut rng = crate::rng::StdRng::seed_from_u64(77);
        use crate::rng::SeedableRng;
        let mut t = Tensor2::uniform(9, 13, 1.0, &mut rng);
        let (k, n) = t.shape();
        let nrw = 8;
        // First sighting only records the key.
        assert!(cached_b(t.as_slice(), Layout::NN, k, n, nrw, t.version()).is_none());
        // Second miss promotes; panels must match a fresh pack exactly.
        let p = cached_b(t.as_slice(), Layout::NN, k, n, nrw, t.version())
            .expect("second miss promotes");
        let mut fresh = Vec::new();
        pack_b(t.as_slice(), Layout::NN, k, n, nrw, &mut fresh);
        assert_eq!(p.len(), fresh.len());
        for (a, b) in p.iter().zip(&fresh) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Third call is a hit on the same entry.
        let p2 = cached_b(t.as_slice(), Layout::NN, k, n, nrw, t.version()).expect("hit");
        assert!(Rc::ptr_eq(&p, &p2));
        // Different pack shaping is a different key, not a stale hit.
        assert!(cached_b(t.as_slice(), Layout::NN, k, n, 16, t.version()).is_none());
        // Mutation refreshes the version: the old entry can never be
        // served for the new bytes.
        let v_old = t.version();
        t.set(0, 0, 42.0);
        assert_ne!(t.version(), v_old);
        assert!(cached_b(t.as_slice(), Layout::NN, k, n, nrw, t.version()).is_none());
        let p3 = cached_b(t.as_slice(), Layout::NN, k, n, nrw, t.version())
            .expect("promoted after mutation");
        let mut fresh2 = Vec::new();
        pack_b(t.as_slice(), Layout::NN, k, n, nrw, &mut fresh2);
        for (a, b) in p3.iter().zip(&fresh2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Unversioned operands never touch the cache.
        assert!(cached_b(t.as_slice(), Layout::NN, k, n, nrw, 0).is_none());
        assert!(cached_b(t.as_slice(), Layout::NN, k, n, nrw, 0).is_none());
        clear_packed_b_cache();
    }

    #[test]
    fn cache_entry_budget_is_enforced() {
        clear_packed_b_cache();
        let t = Tensor2::full(4, 4, 1.0);
        // Synthetic versions; each key is seen twice so it promotes.
        for v in 1..=(B_CACHE_MAX_ENTRIES as u64 + 9) {
            assert!(cached_b(t.as_slice(), Layout::NN, 4, 4, 8, v).is_none());
            assert!(cached_b(t.as_slice(), Layout::NN, 4, 4, 8, v).is_some());
        }
        assert!(b_cache_len() <= B_CACHE_MAX_ENTRIES);
        clear_packed_b_cache();
    }

    #[test]
    fn cache_stats_accumulate() {
        clear_packed_b_cache();
        let (h0, m0) = packed_b_cache_stats();
        let t = Tensor2::full(3, 3, 2.0);
        let v = t.version();
        assert!(cached_b(t.as_slice(), Layout::NN, 3, 3, 8, v).is_none());
        let _ = cached_b(t.as_slice(), Layout::NN, 3, 3, 8, v);
        let _ = cached_b(t.as_slice(), Layout::NN, 3, 3, 8, v);
        let (h1, m1) = packed_b_cache_stats();
        // Other test threads may also bump the global counters, so
        // assert only the lower bound from this thread's calls.
        assert!(h1 > h0);
        assert!(m1 >= m0 + 2);
        clear_packed_b_cache();
    }

    #[test]
    fn pack_a_matches_all_layouts_with_padding() {
        let (m, k) = (9, 7);
        // Row-major [m, k] for NN/NT; [k, m] for TN holding the same
        // logical matrix a[i][p] = i * 100 + p.
        let a_nn: Vec<f32> = (0..m * k).map(|x| ((x / k) * 100 + x % k) as f32).collect();
        let a_tn: Vec<f32> = (0..k * m).map(|x| ((x % m) * 100 + x / m) as f32).collect();
        for (layout, a, mrw) in [
            (Layout::NN, &a_nn, 4),
            (Layout::NT, &a_nn, 4),
            (Layout::TN, &a_tn, 4),
            (Layout::NN, &a_nn, 8),
            (Layout::NT, &a_nn, 8),
            (Layout::TN, &a_tn, 8),
        ] {
            let mut dst = vec![9.0; 3]; // stale junk must be overwritten
            pack_a(a, layout, m, k, mrw, &mut dst);
            let blocks = m.div_ceil(mrw); // last block: mr = 1 < mrw
            assert_eq!(dst.len(), blocks * k * mrw);
            for bi in 0..blocks {
                let base = bi * k * mrw;
                for p in 0..k {
                    for r in 0..mrw {
                        let i = bi * mrw + r;
                        let want = if i < m { (i * 100 + p) as f32 } else { 0.0 };
                        assert_eq!(
                            dst[base + p * mrw + r],
                            want,
                            "layout {layout:?} mrw={mrw} bi={bi} p={p} r={r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pack_b_matches_all_layouts_with_padding() {
        let (k, n) = (3, 11);
        let nrw = 4;
        // Logical b[p][j] = p * 100 + j; [k, n] for NN/TN, [n, k] for NT.
        let b_nn: Vec<f32> = (0..k * n).map(|x| ((x / n) * 100 + x % n) as f32).collect();
        let b_nt: Vec<f32> = (0..n * k).map(|x| ((x % k) * 100 + x / k) as f32).collect();
        for (layout, b) in [
            (Layout::NN, &b_nn),
            (Layout::TN, &b_nn),
            (Layout::NT, &b_nt),
        ] {
            let mut dst = fill(5); // stale junk must be overwritten
            pack_b(b, layout, k, n, nrw, &mut dst);
            let panels = n.div_ceil(nrw);
            assert_eq!(dst.len(), panels * k * nrw);
            for t in 0..panels {
                for p in 0..k {
                    for c in 0..nrw {
                        let j = t * nrw + c;
                        let want = if j < n { (p * 100 + j) as f32 } else { 0.0 };
                        assert_eq!(
                            dst[t * k * nrw + p * nrw + c],
                            want,
                            "layout {layout:?} t={t} p={p} c={c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_is_reused_across_calls() {
        let cap = with_scratch(|s| {
            s.b.resize(1024, 0.0);
            s.b.capacity()
        });
        let cap2 = with_scratch(|s| {
            s.b.clear();
            s.b.capacity()
        });
        assert!(cap2 >= cap);
    }
}
