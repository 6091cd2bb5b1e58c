//! x86-64 micro-kernels: AVX2/FMA and AVX-512F register tiles for
//! f32 GEMM, plus the AVX2 widening kernel for the int8 path.
//!
//! Every function here is a safe `#[target_feature]` function: the
//! arithmetic intrinsics are safe to use once the feature is enabled,
//! and the pointer loads/stores are wrapped in `unsafe` blocks whose
//! bounds are established by slice ops or assertions above them. The
//! *callers* (the dispatch sites in `simd`) carry the `// SAFETY:`
//! obligations that the CPU really has the feature — dispatch only
//! selects these after `is_x86_feature_detected!` succeeds.
//!
//! The f32 tiles read their operands where they lie ([`Operands`]):
//! A through a row and a column stride, B one row of the tile's
//! columns at a time. Nothing is copied into panels except a B the
//! driver packs (and caches) first: NT's transposed one, or one whose
//! rows are a page or more apart.
//!
//! Identity contract: the f32 tiles accumulate each output element
//! over `p` in ascending order with `vfmadd` — the same correctly
//! rounded fused multiply-add the scalar tile and the naive reference
//! perform with `f32::mul_add` — so results are bitwise-identical to
//! theirs. The int8 kernel is exact integer arithmetic (|i8·i8| ≤
//! 16384 fits i16; see `MAX_GEMM_I8_K` for the i32 bound).

use super::store_clipped;
use std::arch::x86_64::{
    __m128i, __m256i, _mm256_add_epi32, _mm256_add_ps, _mm256_castsi256_si128, _mm256_cmpgt_epi32,
    _mm256_cvtepi16_epi32, _mm256_cvtepi32_ps, _mm256_cvtepi8_epi16, _mm256_extracti128_si256,
    _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_maskload_ps, _mm256_mul_ps, _mm256_mullo_epi16,
    _mm256_set1_epi16, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32, _mm256_setzero_ps,
    _mm256_setzero_si256, _mm256_storeu_ps, _mm256_sub_epi32, _mm512_add_ps, _mm512_fmadd_ps,
    _mm512_loadu_ps, _mm512_maskz_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
    _mm_loadu_si128,
};

/// Where a register tile reads its operands, in place.
///
/// A's element `(i, p)` sits at `a[i * a_rs + p * a_cs]`: strides
/// `(k, 1)` for the row-major `[m, k]` A of NN and NT, `(1, m)` for
/// TN's `[k, m]`, which is already in the order a tile consumes it.
/// B's element `(p, j)` sits at `b[p * ldb + j]`: B itself for NN and
/// TN (`ldb = n`), or one packed `[k][NR]` panel (`ldb = NR`).
pub(crate) struct Operands<'a> {
    pub(crate) a: &'a [f32],
    pub(crate) a_rs: usize,
    pub(crate) a_cs: usize,
    pub(crate) b: &'a [f32],
    pub(crate) ldb: usize,
    pub(crate) k: usize,
}

impl Operands<'_> {
    /// Offsets of the `MR` A rows read by a tile whose `mr` real rows
    /// start at row `i`. Rows past the last real one repeat it, so a
    /// short block never touches a row it was not given (their results
    /// are computed and never stored).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ mr ≤ MR`, `k ≥ 1` and every read
    /// `a[offset + p * a_cs]` with `p < k` lies inside `a`: the bound
    /// the tiles' A loads rely on.
    fn a_rows<const MR: usize>(&self, i: usize, mr: usize) -> [usize; MR] {
        assert!(
            (1..=MR).contains(&mr) && self.k > 0,
            "tile of {mr} rows, depth {}",
            self.k
        );
        let rows: [usize; MR] =
            std::array::from_fn(|r| i.saturating_add(r.min(mr - 1)).saturating_mul(self.a_rs));
        let last = rows.into_iter().fold(0, usize::max);
        assert!(
            reach(last, self.a_cs, self.k, 1) <= self.a.len(),
            "A rows {i}..{} reach past {} elements",
            i + mr,
            self.a.len()
        );
        rows
    }

    /// Checks the bound the tiles' B loads rely on.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ nr ≤ nrw`, `k ≥ 1` and every read
    /// `b[jb + p * ldb + c]` with `p < k`, `c < nr` lies inside `b`.
    fn check_b(&self, jb: usize, nr: usize, nrw: usize) {
        assert!(
            (1..=nrw).contains(&nr) && self.k > 0,
            "tile of {nr} columns, depth {}",
            self.k
        );
        assert!(
            reach(jb, self.ldb, self.k, nr) <= self.b.len(),
            "B columns {jb}..{} reach past {} elements",
            jb + nr,
            self.b.len()
        );
    }
}

/// `base + (k − 1) · stride + extent`, saturating, so an overflow fails
/// the bound it is compared with instead of wrapping past it.
fn reach(base: usize, stride: usize, k: usize, extent: usize) -> usize {
    (k - 1)
        .saturating_mul(stride)
        .saturating_add(base)
        .saturating_add(extent)
}

/// AVX2/FMA f32 register tile: MR = 6 rows × NR = 16 columns held in
/// twelve ymm accumulators, over A rows `i..i + mr` and the `nr ≤ 16`
/// columns of `src.b` starting at `jb`. A panel narrower than 16 loads
/// its columns with `vmaskmovps`; the result lands at rows
/// `i..i + mr`, columns `j0..j0 + nr` of `out` (row stride `n`).
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
pub(crate) fn tile_f32_avx2(
    src: &Operands<'_>,
    i: usize,
    mr: usize,
    jb: usize,
    nr: usize,
    out: &mut [f32],
    j0: usize,
    n: usize,
    acc: bool,
) {
    let rows = src.a_rows::<6>(i, mr);
    src.check_b(jb, nr, 16);
    let (ap, bp, a_cs, ldb) = (src.a.as_ptr(), src.b.as_ptr(), src.a_cs, src.ldb);
    // Lanes of the two 8-wide halves that hold real columns. With no
    // real column in the upper half its load starts at the lower one,
    // so no address leaves `b`.
    let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let m0 = _mm256_cmpgt_epi32(_mm256_set1_epi32(nr.min(8) as i32), lanes);
    let m1 = _mm256_cmpgt_epi32(_mm256_set1_epi32(nr.saturating_sub(8) as i32), lanes);
    let hi = if nr > 8 { 8 } else { 0 };
    let mut c = [[_mm256_setzero_ps(); 2]; 6];
    for p in 0..src.k {
        let brow = jb + p * ldb;
        // SAFETY: `check_b` bounded `jb + (k − 1)·ldb + nr ≤ b.len()`,
        // so for `p < k` columns `brow..brow + nr` lie inside `b`. The
        // plain loads run only when `nr == 16`; the masked ones enable
        // only lanes below `nr`, and masked-off lanes are never read.
        let (b0, b1) = unsafe {
            if nr == 16 {
                (
                    _mm256_loadu_ps(bp.add(brow)),
                    _mm256_loadu_ps(bp.add(brow + 8)),
                )
            } else {
                (
                    _mm256_maskload_ps(bp.add(brow), m0),
                    _mm256_maskload_ps(bp.add(brow + hi), m1),
                )
            }
        };
        for (cr, &row) in c.iter_mut().zip(&rows) {
            // SAFETY: `a_rows` bounded `row + (k − 1)·a_cs < a.len()`
            // for every offset it returned, and `p < k`.
            let x = unsafe { *ap.add(row + p * a_cs) };
            let xv = _mm256_set1_ps(x);
            cr[0] = _mm256_fmadd_ps(xv, b0, cr[0]);
            cr[1] = _mm256_fmadd_ps(xv, b1, cr[1]);
        }
    }
    if mr == 6 && nr == 16 {
        for (r, cr) in c.iter().enumerate() {
            let start = (i + r) * n + j0;
            let dst = &mut out[start..start + 16];
            // SAFETY: `dst` is exactly 16 f32s by the slice op above.
            unsafe {
                let p = dst.as_mut_ptr();
                let (mut v0, mut v1) = (cr[0], cr[1]);
                if acc {
                    v0 = _mm256_add_ps(_mm256_loadu_ps(p), v0);
                    v1 = _mm256_add_ps(_mm256_loadu_ps(p.add(8)), v1);
                }
                _mm256_storeu_ps(p, v0);
                _mm256_storeu_ps(p.add(8), v1);
            }
        }
    } else {
        let mut spill = [0.0f32; 6 * 16];
        for (r, cr) in c.iter().enumerate() {
            // SAFETY: `spill` holds 6 rows of 16 f32s; `r < 6`.
            unsafe {
                _mm256_storeu_ps(spill.as_mut_ptr().add(r * 16), cr[0]);
                _mm256_storeu_ps(spill.as_mut_ptr().add(r * 16 + 8), cr[1]);
            }
        }
        store_clipped(&spill, 16, out, i, mr, j0, n, nr, acc);
    }
}

/// AVX-512F f32 register tile: MR = 8 rows × NR = 32 columns in
/// sixteen zmm accumulators (wide enough to keep both FMA ports of a
/// server core busy). Same operands, edge handling and identity
/// contract as [`tile_f32_avx2`]; a narrow panel's columns load with
/// zero-masked `vmovups`.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
pub(crate) fn tile_f32_avx512(
    src: &Operands<'_>,
    i: usize,
    mr: usize,
    jb: usize,
    nr: usize,
    out: &mut [f32],
    j0: usize,
    n: usize,
    acc: bool,
) {
    let rows = src.a_rows::<8>(i, mr);
    src.check_b(jb, nr, 32);
    let (ap, bp, a_cs, ldb) = (src.a.as_ptr(), src.b.as_ptr(), src.a_cs, src.ldb);
    // As in the AVX2 tile: masks from the panel's width, and an upper
    // load with no real column starts at the lower one.
    let m0 = lane_mask(nr.min(16));
    let m1 = lane_mask(nr.saturating_sub(16));
    let hi = if nr > 16 { 16 } else { 0 };
    let mut c = [[_mm512_setzero_ps(); 2]; 8];
    for p in 0..src.k {
        let brow = jb + p * ldb;
        // SAFETY: `check_b` bounded `jb + (k − 1)·ldb + nr ≤ b.len()`,
        // so for `p < k` columns `brow..brow + nr` lie inside `b`. The
        // plain loads run only when `nr == 32`; the masked ones enable
        // only lanes below `nr`, and masked-off lanes are never read.
        let (b0, b1) = unsafe {
            if nr == 32 {
                (
                    _mm512_loadu_ps(bp.add(brow)),
                    _mm512_loadu_ps(bp.add(brow + 16)),
                )
            } else {
                (
                    _mm512_maskz_loadu_ps(m0, bp.add(brow)),
                    _mm512_maskz_loadu_ps(m1, bp.add(brow + hi)),
                )
            }
        };
        for (cr, &row) in c.iter_mut().zip(&rows) {
            // SAFETY: `a_rows` bounded `row + (k − 1)·a_cs < a.len()`
            // for every offset it returned, and `p < k`.
            let x = unsafe { *ap.add(row + p * a_cs) };
            let xv = _mm512_set1_ps(x);
            cr[0] = _mm512_fmadd_ps(xv, b0, cr[0]);
            cr[1] = _mm512_fmadd_ps(xv, b1, cr[1]);
        }
    }
    if mr == 8 && nr == 32 {
        for (r, cr) in c.iter().enumerate() {
            let start = (i + r) * n + j0;
            let dst = &mut out[start..start + 32];
            // SAFETY: `dst` is exactly 32 f32s by the slice op above.
            unsafe {
                let p = dst.as_mut_ptr();
                let (mut v0, mut v1) = (cr[0], cr[1]);
                if acc {
                    v0 = _mm512_add_ps(_mm512_loadu_ps(p), v0);
                    v1 = _mm512_add_ps(_mm512_loadu_ps(p.add(16)), v1);
                }
                _mm512_storeu_ps(p, v0);
                _mm512_storeu_ps(p.add(16), v1);
            }
        }
    } else {
        let mut spill = [0.0f32; 8 * 32];
        for (r, cr) in c.iter().enumerate() {
            // SAFETY: `spill` holds 8 rows of 32 f32s; `r < 8`.
            unsafe {
                _mm512_storeu_ps(spill.as_mut_ptr().add(r * 32), cr[0]);
                _mm512_storeu_ps(spill.as_mut_ptr().add(r * 32 + 16), cr[1]);
            }
        }
        store_clipped(&spill, 32, out, i, mr, j0, n, nr, acc);
    }
}

/// The 16-lane mask enabling lanes `0..w`, `w ≤ 16`.
fn lane_mask(w: usize) -> u16 {
    ((1u32 << w) - 1) as u16
}

/// Accumulates a 16-column strip of one int8 output row: for each
/// `p`, widen 16 i8 weights to i16, multiply by the broadcast
/// activation (|i8·i8| ≤ 16384, exact in i16), widen to i32 and add.
/// Returns the two 8-lane i32 accumulators for columns `j..j + 16`.
/// Keeps the scalar path's skip of zero activations (exact for
/// integer arithmetic).
#[target_feature(enable = "avx2")]
fn i8_strip(a_row: &[i8], b: &[i8], n: usize, j: usize) -> (__m256i, __m256i) {
    let mut acc0 = _mm256_setzero_si256();
    let mut acc1 = _mm256_setzero_si256();
    for (p, &cv) in a_row.iter().enumerate() {
        if cv == 0 {
            continue;
        }
        let bs = &b[p * n + j..p * n + j + 16];
        // SAFETY: `bs` is exactly 16 i8s by the slice op above; the
        // unaligned 128-bit load reads exactly those 16 bytes.
        let bv: __m128i = unsafe { _mm_loadu_si128(bs.as_ptr().cast()) };
        let wide = _mm256_mullo_epi16(_mm256_cvtepi8_epi16(bv), _mm256_set1_epi16(cv as i16));
        acc0 = _mm256_add_epi32(acc0, _mm256_cvtepi16_epi32(_mm256_castsi256_si128(wide)));
        acc1 = _mm256_add_epi32(
            acc1,
            _mm256_cvtepi16_epi32(_mm256_extracti128_si256::<1>(wide)),
        );
    }
    (acc0, acc1)
}

/// AVX2 int8 GEMM with the dequantization epilogue fused into the
/// register tile: the i32 accumulators never touch memory. Per row
/// `i`, `out[i][j] (+)= scales[i]·sw · (acc − zw·sums[i])`, with the
/// correction in wrapping i32 arithmetic and the i32→f32 conversion
/// rounding to nearest even — both identical to the scalar reference.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
pub(crate) fn gemm_i8_dequant(
    a: &[i8],
    b: &[i8],
    m: usize,
    n: usize,
    k: usize,
    scales: &[f32],
    sums: &[i32],
    sw: f32,
    zw: i32,
    out: &mut [f32],
    accumulate: bool,
) {
    let nb = n - n % 16;
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        let corr = zw.wrapping_mul(sums[i]);
        let s = scales[i] * sw;
        let vc = _mm256_set1_epi32(corr);
        let vs = _mm256_set1_ps(s);
        let mut j = 0;
        while j < nb {
            let (acc0, acc1) = i8_strip(a_row, b, n, j);
            let mut f0 = _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_sub_epi32(acc0, vc)), vs);
            let mut f1 = _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_sub_epi32(acc1, vc)), vs);
            // SAFETY: `j + 16 <= nb <= n`, so both 8-lane loads and
            // stores land inside `orow` (length n).
            unsafe {
                let p = orow.as_mut_ptr().add(j);
                if accumulate {
                    f0 = _mm256_add_ps(_mm256_loadu_ps(p), f0);
                    f1 = _mm256_add_ps(_mm256_loadu_ps(p.add(8)), f1);
                }
                _mm256_storeu_ps(p, f0);
                _mm256_storeu_ps(p.add(8), f1);
            }
            j += 16;
        }
        for (j, o) in orow.iter_mut().enumerate().skip(nb) {
            let v = s * (super::i8_dot_col(a_row, b, n, j).wrapping_sub(corr)) as f32;
            *o = if accumulate { *o + v } else { v };
        }
    }
}
