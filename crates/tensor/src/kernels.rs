//! Register-tiled matrix-multiply kernels with runtime SIMD dispatch.
//!
//! Every matrix product in the workspace — the LSTM gate projections,
//! the attention scoring, and all of autograd's backward products —
//! funnels through [`gemm`] / [`gemm_acc`] here, for all three
//! transpose layouts ([`Layout`]). The kernels write into a
//! caller-provided output buffer, so steady-state training and
//! inference perform no per-call heap allocation beyond what the
//! caller chooses to reuse.
//!
//! # Design
//!
//! Entry points dispatch once per call on the CPU tier selected by
//! [`crate::simd`] runtime feature detection. Every tier sweeps a
//! register tile over the output through one of two drivers:
//!
//! * The **x86 tiers** (AVX2/FMA `6 × 16`, AVX-512F `8 × 32`) read A
//!   and B in place — A through a row and a column stride, so TN's
//!   `[k, m]` storage needs no transpose, and B row by row with masked
//!   loads for a narrow last panel. Only NT's transposed B, or a B
//!   whose rows are a page or more apart, is packed into panels first.
//! * **NEON** (`4 × 8`) and the portable **scalar** tier (`8 × 8`)
//!   pack both operands into zero-padded panels once per call and run
//!   a layout-blind tile over them. The scalar tier runs on hosts
//!   without AVX2+FMA or NEON, and wherever [`set_force_scalar`] or
//!   the `force-scalar` feature selects it.
//!
//! [`naive_gemm`], the triple loop, is the value reference every tier
//! is tested against.
//!
//! # Determinism
//!
//! Each output element is accumulated over the reduction index `p` in
//! strictly increasing order by a **fused multiply-add** chain:
//! `f32::mul_add` in the scalar tile and the naive kernel, `vfmadd` /
//! `fmla` in the vector tiles. An IEEE-754 fma is correctly rounded,
//! so the same chain produces the same bits on every host; blocking,
//! packing (zero padding is exact: `fma(0, 0, acc) == acc`), the
//! padded rows and columns of an edge tile (computed, never stored) and
//! tile shape change *which elements* are computed when, never the
//! arithmetic *within* an element. Naive and every tier are therefore
//! bitwise-identical, on and across hosts. On x86-64 the scalar tile
//! and the naive kernel are
//! compiled twice — once plain, once with the `fma` target feature —
//! and the fast copy is picked at runtime, so neither pays a libm
//! `fmaf` call per element on FMA hardware (the bits are identical
//! either way).

use crate::simd;
use crate::Tensor2;

pub use crate::simd::{active_isa, detected_isa, force_scalar, set_force_scalar, Isa};

/// Maximum reduction depth `k` for the int8 kernel before an `i32`
/// accumulator could overflow: the worst-case `i8 × i8` product is
/// `(−128) · (−128) = 16 384`, so at most
/// `⌊(2³¹ − 1) / 16 384⌋ = 131 071` terms are always representable.
/// Enforced with `debug_assert!` at the [`gemm_i8_dequant`] entry
/// point; layers here sit orders of magnitude below it.
pub const MAX_GEMM_I8_K: usize = (i32::MAX as usize) / (128 * 128);

/// Transpose layout of a GEMM: which operand, if any, is consumed
/// transposed.
///
/// Shapes (with output `[m, n]` and reduction depth `k`):
///
/// * `NN`: `a [m, k] @ b [k, n]`
/// * `TN`: `a [k, m]` (transposed) `@ b [k, n]`
/// * `NT`: `a [m, k] @ b [n, k]` (transposed)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `a @ b` with both operands in natural orientation.
    NN,
    /// `a^T @ b`: the left operand is stored `[k, m]`.
    TN,
    /// `a @ b^T`: the right operand is stored `[n, k]`.
    NT,
}

#[cfg(feature = "obs")]
static GEMM_CALLS: voyager_obs::Counter = voyager_obs::Counter::new();
#[cfg(feature = "obs")]
static GEMM_FLOPS: voyager_obs::Counter = voyager_obs::Counter::new();

/// Tallies one kernel invocation (`2·m·n·k` flops). Compiles to
/// nothing without the `obs` feature, keeping the default hot path
/// untouched.
#[cfg(feature = "obs")]
fn note_gemm(m: usize, n: usize, k: usize) {
    GEMM_CALLS.inc();
    GEMM_FLOPS.add(2 * (m as u64) * (n as u64) * (k as u64));
}

#[cfg(not(feature = "obs"))]
fn note_gemm(_m: usize, _n: usize, _k: usize) {}

/// Total [`gemm`] / [`gemm_acc`] invocations since start (or the last
/// [`reset_kernel_metrics`]). Always 0 without the `obs` feature.
pub fn gemm_invocations() -> u64 {
    #[cfg(feature = "obs")]
    {
        GEMM_CALLS.get()
    }
    #[cfg(not(feature = "obs"))]
    {
        0
    }
}

/// Total floating-point operations (`2·m·n·k` per call) tallied by the
/// GEMM entry points. Always 0 without the `obs` feature.
pub fn gemm_flops() -> u64 {
    #[cfg(feature = "obs")]
    {
        GEMM_FLOPS.get()
    }
    #[cfg(not(feature = "obs"))]
    {
        0
    }
}

/// Zeroes the kernel counters (benchmark phase boundaries). A no-op
/// without the `obs` feature.
pub fn reset_kernel_metrics() {
    #[cfg(feature = "obs")]
    {
        GEMM_CALLS.reset();
        GEMM_FLOPS.reset();
        INT8_GEMM_CALLS.reset();
        INT8_GEMM_OPS.reset();
    }
}

/// Output shape `(m, n)` and reduction depth `k` of `a ? b` under
/// `layout`, checking that the operand shapes agree.
///
/// # Panics
///
/// Panics if the reduction dimensions of `a` and `b` differ.
pub fn gemm_dims(a: &Tensor2, b: &Tensor2, layout: Layout) -> (usize, usize, usize) {
    let (ar, ac) = a.shape();
    let (br, bc) = b.shape();
    let (m, k, n, bk) = match layout {
        Layout::NN => (ar, ac, bc, br),
        Layout::TN => (ac, ar, bc, br),
        Layout::NT => (ar, ac, br, bc),
    };
    assert_eq!(
        k, bk,
        "gemm {layout:?} shape mismatch: {ar}x{ac} vs {br}x{bc}"
    );
    (m, n, k)
}

/// Matrix multiply `out = a ? b` for the given [`Layout`], writing
/// into the caller-provided `out` (resized/reshaped to `[m, n]` if
/// needed; its allocation is reused when already large enough).
/// Dispatches to the active tier (see [`active_isa`]).
///
/// # Panics
///
/// Panics if the operand shapes disagree under `layout`.
pub fn gemm(a: &Tensor2, b: &Tensor2, layout: Layout, out: &mut Tensor2) {
    let (m, n, k) = gemm_dims(a, b, layout);
    note_gemm(m, n, k);
    reshape_for_output(out, m, n);
    let (a, bver, b) = (a.as_slice(), b.version(), b.as_slice());
    gemm_impl(a, b, layout, m, n, k, out.as_mut_slice(), false, bver);
}

/// Matrix multiply-accumulate `out += a ? b` for the given
/// [`Layout`].
///
/// # Panics
///
/// Panics if the operand shapes disagree under `layout`, or if `out`
/// is not already `[m, n]`.
pub fn gemm_acc(a: &Tensor2, b: &Tensor2, layout: Layout, out: &mut Tensor2) {
    let (m, n, k) = gemm_dims(a, b, layout);
    note_gemm(m, n, k);
    assert_eq!(out.shape(), (m, n), "gemm_acc output shape mismatch");
    let (a, bver, b) = (a.as_slice(), b.version(), b.as_slice());
    gemm_impl(a, b, layout, m, n, k, out.as_mut_slice(), true, bver);
}

/// Ensures `out` is an `[m, n]` tensor, reusing its buffer.
fn reshape_for_output(out: &mut Tensor2, m: usize, n: usize) {
    if out.shape() != (m, n) {
        *out = Tensor2::zeros(m, n);
    }
}

/// Matrix multiply over raw slices: `out (+)= a ? b` with explicit
/// `(m, n, k)` dimensions. This is the entry point for operands that
/// are *sub-blocks* of a larger tensor — the hierarchical output head
/// multiplies one hidden row against the contiguous `[branch, hidden]`
/// leaf-weight block of each shortlisted cluster, which has no
/// `Tensor2` of its own. Routes through the identical dispatch as
/// [`gemm`], so results are bitwise-identical to a whole-tensor call
/// on the same bytes; slice operands carry no content version, so the
/// packed-B cache is bypassed.
///
/// # Panics
///
/// Panics if the slice lengths do not match `m·k` / `k·n` (per
/// `layout`) and `m·n`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_slices(
    a: &[f32],
    b: &[f32],
    layout: Layout,
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f32],
    accumulate: bool,
) {
    assert_eq!(a.len(), m * k, "gemm_slices lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_slices rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_slices output length mismatch");
    note_gemm(m, n, k);
    gemm_impl(a, b, layout, m, n, k, out, accumulate, 0);
}

/// `out (+)= a ? b` for `m` row-major rows `a` cut from a larger buffer
/// (`[m, k]`, so `layout` is `NN` or `NT`) against a whole tensor `b`:
/// [`gemm_slices`] that keeps `b`'s content version, so the LSTM's
/// per-step products against the same recurrent weights reuse its
/// packed panels wherever `b` is packed (see `simd::gemm_simd`).
/// Bitwise-identical to [`gemm_slices`].
///
/// # Panics
///
/// Panics on a `TN` layout or mismatched lengths.
pub(crate) fn gemm_rows_against(
    a: &[f32],
    m: usize,
    b: &Tensor2,
    layout: Layout,
    out: &mut [f32],
    accumulate: bool,
) {
    assert_ne!(
        layout,
        Layout::TN,
        "gemm_rows_against takes row-major lhs rows"
    );
    let (k, n) = match layout {
        Layout::NT => (b.cols(), b.rows()),
        _ => b.shape(),
    };
    assert_eq!(a.len(), m * k, "gemm_rows_against lhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_rows_against output length mismatch");
    note_gemm(m, n, k);
    let (bver, b) = (b.version(), b.as_slice());
    gemm_impl(a, b, layout, m, n, k, out, accumulate, bver);
}

/// `a ? b` into the `[m, n]` `out` on the active tier (see
/// [`active_isa`]), after the shapes were checked.
#[allow(clippy::too_many_arguments)]
fn gemm_impl(
    a: &[f32],
    b: &[f32],
    layout: Layout,
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f32],
    acc: bool,
    b_version: u64,
) {
    if n == 0 || m == 0 {
        return;
    }
    if k == 0 {
        // An empty reduction contributes exactly 0.0 to every element,
        // same as the reference's zero-length accumulator chain (the
        // `+= 0.0` matters bitwise: it normalises -0.0 in `out`).
        for o in out.iter_mut() {
            if acc {
                *o += 0.0;
            } else {
                *o = 0.0;
            }
        }
        return;
    }
    let isa = simd::active_isa();
    simd::gemm_simd(isa, a, b, layout, m, n, k, out, acc, b_version);
}

/// Reference kernel: the straightforward triple loop, one sequential
/// fused-multiply-add accumulator per output element. Golden-value
/// tests compare the dispatched kernels against this, and benchmarks
/// report it as the baseline.
///
/// # Panics
///
/// Panics if the operand shapes disagree under `layout`.
pub fn naive_gemm(a: &Tensor2, b: &Tensor2, layout: Layout, out: &mut Tensor2) {
    let (m, n, k) = gemm_dims(a, b, layout);
    reshape_for_output(out, m, n);
    let (a, b) = (a.as_slice(), b.as_slice());
    simd::run_naive(a, b, layout, m, n, k, out.as_mut_slice());
}

/// Naive kernel body, shared by the plain and `fma`-target-feature
/// compilations picked in [`simd::run_naive`].
#[inline(always)]
pub(crate) fn naive_body(
    a: &[f32],
    b: &[f32],
    layout: Layout,
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f32],
) {
    for i in 0..m {
        for (j, o) in out[i * n..(i + 1) * n].iter_mut().enumerate() {
            let mut s = 0.0f32;
            for p in 0..k {
                let (x, y) = match layout {
                    Layout::NN => (a[i * k + p], b[p * n + j]),
                    Layout::TN => (a[p * m + i], b[p * n + j]),
                    Layout::NT => (a[i * k + p], b[j * k + p]),
                };
                s = x.mul_add(y, s);
            }
            *o = s;
        }
    }
}

#[cfg(feature = "obs")]
static INT8_GEMM_CALLS: voyager_obs::Counter = voyager_obs::Counter::new();
#[cfg(feature = "obs")]
static INT8_GEMM_OPS: voyager_obs::Counter = voyager_obs::Counter::new();

#[cfg(feature = "obs")]
fn note_gemm_i8(m: usize, n: usize, k: usize) {
    INT8_GEMM_CALLS.inc();
    INT8_GEMM_OPS.add(2 * (m as u64) * (n as u64) * (k as u64));
}

#[cfg(not(feature = "obs"))]
fn note_gemm_i8(_m: usize, _n: usize, _k: usize) {}

/// Total [`gemm_i8_dequant`] invocations since start (or the last
/// [`reset_kernel_metrics`]). Always 0 without the `obs`
/// feature.
pub fn int8_gemm_invocations() -> u64 {
    #[cfg(feature = "obs")]
    {
        INT8_GEMM_CALLS.get()
    }
    #[cfg(not(feature = "obs"))]
    {
        0
    }
}

/// Total integer multiply-add operations (`2·m·n·k` per call) tallied
/// by [`gemm_i8_dequant`]. Always 0 without the `obs` feature.
pub fn int8_gemm_ops() -> u64 {
    #[cfg(feature = "obs")]
    {
        INT8_GEMM_OPS.get()
    }
    #[cfg(not(feature = "obs"))]
    {
        0
    }
}

/// Quantized matrix multiply with the dequantization epilogue fused
/// in, over `i8` operands all row-major (NN layout — the `[in, out]`
/// orientation `QuantizedTensor` weights are stored in, so no
/// transpose is needed at call sites):
/// `out[i][j] (+)= scales[i] · sw · (acc[i][j] − zw · sums[i])`, where
/// `acc[i][j] = Σ_p a[i][p] · b[p][j]` accumulates in `i32`. `scales`
/// and `sums` are the per-row activation quantization parameters
/// (`QuantizedRows`), `sw`/`zw` the weight scale and zero point.
///
/// Dispatches to widening SIMD kernels (i8 → i16 products, which are
/// exact at magnitude ≤ 16 384, accumulated in i32 lanes that never
/// leave registers) on AVX2 and NEON hosts; the scalar tier streams
/// `b` row by row as a scalar-times-row AXPY into one reusable
/// `n`-length i32 strip. Rows of `a` with a zero code are skipped on
/// every path — exact for integers, and common after symmetric
/// activation quantization of post-sigmoid gates. Integer arithmetic
/// has no rounding, the correction subtraction uses wrapping i32
/// arithmetic and the i32 → f32 conversion rounds to nearest even on
/// every path, so scalar and SIMD results are bitwise-identical. With
/// `accumulate`, contributions are added on top of `out`
/// (`gates += wh·h` in the quantized LSTM); otherwise `out` is
/// overwritten.
///
/// The worst-case product is `(−128) · (−128) = 16 384`, so `i32`
/// accumulation is overflow-free only up to `k =` [`MAX_GEMM_I8_K`]
/// `= 131 071` terms; a `debug_assert!` enforces the bound here.
///
/// # Panics
///
/// Panics if the slice lengths do not match `m·k`, `k·n`, `m·n`, and
/// `m` for `scales` / `sums`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_i8_dequant(
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
    assert_eq!(a.len(), m * k, "gemm_i8_dequant lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_i8_dequant rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_i8_dequant output length mismatch");
    assert_eq!(scales.len(), m, "gemm_i8_dequant scales length mismatch");
    assert_eq!(sums.len(), m, "gemm_i8_dequant sums length mismatch");
    debug_assert!(
        k <= MAX_GEMM_I8_K,
        "gemm_i8_dequant depth {k} exceeds the i32 overflow bound {MAX_GEMM_I8_K}"
    );
    note_gemm_i8(m, n, k);
    if !simd::gemm_i8_dequant_vector(a, b, m, n, k, scales, sums, sw, zw, out, accumulate) {
        gemm_i8_dequant_scalar(a, b, m, n, k, scales, sums, sw, zw, out, accumulate);
    }
}

/// Scalar fused-dequant fallback: one reusable n-length i32 strip per
/// row (thread-local, sanctioned scratch) instead of an `m × n`
/// buffer.
#[allow(clippy::too_many_arguments)]
fn gemm_i8_dequant_scalar(
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
    simd::pack::for_each_zeroed_i8_strip(n, m, |i, accrow| {
        i8_axpy_row(&a[i * k..(i + 1) * k], b, n, k, accrow);
        let corr = zw.wrapping_mul(sums[i]);
        let sc = scales[i] * sw;
        let orow = &mut out[i * n..(i + 1) * n];
        for (o, &acc) in orow.iter_mut().zip(accrow.iter()) {
            let v = sc * (acc.wrapping_sub(corr)) as f32;
            *o = if accumulate { *o + v } else { v };
        }
    });
}

/// One output row of the scalar int8 kernel: `out_row[j] += Σ_p
/// a_row[p] · b[p][j]` over a zeroed `out_row`.
///
/// Four A-coefficients per pass: the i32 output row is streamed `k/4`
/// times instead of `k` times, which dominates the cost at the skinny
/// shapes inference produces (`m` = batch, often 1). Integer
/// arithmetic is exact, so the blocking cannot change the result.
fn i8_axpy_row(a_row: &[i8], b: &[i8], n: usize, k: usize, out_row: &mut [i32]) {
    let mut p = 0;
    while p + 4 <= k {
        let c0 = a_row[p] as i32;
        let c1 = a_row[p + 1] as i32;
        let c2 = a_row[p + 2] as i32;
        let c3 = a_row[p + 3] as i32;
        if c0 | c1 | c2 | c3 != 0 {
            let (b0, rest) = b[p * n..(p + 4) * n].split_at(n);
            let (b1, rest) = rest.split_at(n);
            let (b2, b3) = rest.split_at(n);
            for ((((o, &v0), &v1), &v2), &v3) in out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
            {
                *o += c0 * v0 as i32 + c1 * v1 as i32 + c2 * v2 as i32 + c3 * v3 as i32;
            }
        }
        p += 4;
    }
    for (&ap, p) in a_row[p..].iter().zip(p..k) {
        if ap == 0 {
            continue;
        }
        let ap = ap as i32;
        let b_row = &b[p * n..(p + 1) * n];
        for (o, &bv) in out_row.iter_mut().zip(b_row) {
            *o += ap * bv as i32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::thread_rng;
    use crate::rng::{Rng, SeedableRng, StdRng};

    const LAYOUTS: [Layout; 3] = [Layout::NN, Layout::TN, Layout::NT];

    fn operands(
        m: usize,
        n: usize,
        k: usize,
        layout: Layout,
        rng: &mut impl Rng,
    ) -> (Tensor2, Tensor2) {
        let (ashape, bshape) = match layout {
            Layout::NN => ((m, k), (k, n)),
            Layout::TN => ((k, m), (k, n)),
            Layout::NT => ((m, k), (n, k)),
        };
        (
            Tensor2::uniform(ashape.0, ashape.1, 1.0, rng),
            Tensor2::uniform(bshape.0, bshape.1, 1.0, rng),
        )
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: length");
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx} at {i}: {x} != {y}");
        }
    }

    /// Every tier this CPU can run (`is_x86_feature_detected!` on
    /// x86-64), whatever the detected one is.
    fn host_tiers() -> Vec<Isa> {
        [Isa::Scalar, Isa::Avx2, Isa::Avx512, Isa::Neon]
            .into_iter()
            .filter(|&isa| simd::supports(isa))
            .collect()
    }

    /// `a ? b` through the SIMD driver on an explicit tier, bypassing
    /// dispatch.
    fn gemm_on(isa: Isa, a: &Tensor2, b: &Tensor2, layout: Layout) -> Vec<f32> {
        let (m, n, k) = gemm_dims(a, b, layout);
        let mut out = vec![f32::NAN; m * n];
        let (a, bv, b) = (a.as_slice(), b.version(), b.as_slice());
        simd::gemm_simd(isa, a, b, layout, m, n, k, &mut out, false, bv);
        out
    }

    #[test]
    fn blocked_matches_naive_bitwise_across_shapes() {
        let mut rng = thread_rng();
        // The active tier's driver against the triple loop, at sizes
        // below, at, above, and far from tile multiples.
        let shapes = [
            (1, 1, 1),
            (2, 3, 4),
            (4, 8, 16),
            (5, 9, 7),
            (7, 17, 13),
            (12, 24, 32),
            (33, 65, 31),
            (64, 64, 64),
        ];
        for layout in LAYOUTS {
            for &(m, n, k) in &shapes {
                let (a, b) = operands(m, n, k, layout, &mut rng);
                let mut blocked = Tensor2::zeros(1, 1);
                let mut naive = Tensor2::zeros(1, 1);
                gemm(&a, &b, layout, &mut blocked);
                naive_gemm(&a, &b, layout, &mut naive);
                assert_eq!(blocked.shape(), (m, n));
                assert_bits_eq(
                    blocked.as_slice(),
                    naive.as_slice(),
                    &format!("{layout:?} {m}x{n}x{k}"),
                );
            }
        }
    }

    #[test]
    fn simd_matches_scalar_bitwise_per_layout_and_tail() {
        let _guard = simd::test_toggle_lock();
        let mut rng = thread_rng();
        // Shapes hitting full tiles and every (mr, nr) tail class of
        // every tier's tile: 8x8 scalar, 6x16 AVX2, 8x32 AVX-512,
        // 4x8 NEON — plus k values below and above the tile heights.
        let shapes = [
            (1, 1, 1),
            (2, 3, 4),
            (3, 5, 2),
            (4, 8, 5),
            (5, 9, 7),
            (6, 16, 3),
            (7, 17, 13),
            (8, 32, 4),
            (9, 33, 5),
            (11, 31, 17),
            (12, 24, 32),
            (13, 40, 21),
            (16, 48, 64),
            (33, 65, 31),
        ];
        for layout in LAYOUTS {
            for &(m, n, k) in &shapes {
                let (a, b) = operands(m, n, k, layout, &mut rng);
                let mut reference = Tensor2::zeros(1, 1);
                naive_gemm(&a, &b, layout, &mut reference);
                let mut fast = Tensor2::zeros(1, 1);
                gemm(&a, &b, layout, &mut fast);
                set_force_scalar(true);
                let mut slow = Tensor2::zeros(1, 1);
                gemm(&a, &b, layout, &mut slow);
                set_force_scalar(false);
                let ctx = format!("{layout:?} {m}x{n}x{k}");
                let detected = detected_isa().name();
                assert_bits_eq(
                    fast.as_slice(),
                    slow.as_slice(),
                    &format!("{ctx} ({detected})"),
                );
                assert_bits_eq(
                    slow.as_slice(),
                    reference.as_slice(),
                    &format!("{ctx} (forced scalar vs naive)"),
                );
                // Every tier the host has, through the driver.
                for isa in host_tiers() {
                    assert_bits_eq(
                        &gemm_on(isa, &a, &b, layout),
                        reference.as_slice(),
                        &format!("{ctx} ({})", isa.name()),
                    );
                }
            }
        }
    }

    #[test]
    fn acc_is_bitwise_identical_across_dispatch() {
        let _guard = simd::test_toggle_lock();
        let mut rng = thread_rng();
        for layout in LAYOUTS {
            let (a, b) = operands(7, 17, 13, layout, &mut rng);
            let (c, d) = operands(7, 17, 5, layout, &mut rng);
            // `gemm_acc` adds each element's whole chain to `out`.
            let (mut first, mut second) = (Tensor2::zeros(1, 1), Tensor2::zeros(1, 1));
            naive_gemm(&a, &b, layout, &mut first);
            naive_gemm(&c, &d, layout, &mut second);
            let pairs = first.as_slice().iter().zip(second.as_slice());
            let reference: Vec<f32> = pairs.map(|(x, y)| x + y).collect();
            let mut fast = Tensor2::zeros(1, 1);
            gemm(&a, &b, layout, &mut fast);
            gemm_acc(&c, &d, layout, &mut fast);
            set_force_scalar(true);
            let mut slow = Tensor2::zeros(1, 1);
            gemm(&a, &b, layout, &mut slow);
            gemm_acc(&c, &d, layout, &mut slow);
            set_force_scalar(false);
            assert_bits_eq(fast.as_slice(), slow.as_slice(), &format!("{layout:?}"));
            let ctx = format!("{layout:?} (forced scalar vs naive)");
            assert_bits_eq(slow.as_slice(), &reference, &ctx);
        }
    }

    #[test]
    fn acc_adds_on_top_of_existing_output() {
        let mut rng = thread_rng();
        for layout in LAYOUTS {
            let (a, b) = operands(6, 10, 5, layout, &mut rng);
            let (c, d) = operands(6, 10, 3, layout, &mut rng);
            let mut fused = Tensor2::zeros(1, 1);
            gemm(&a, &b, layout, &mut fused);
            gemm_acc(&c, &d, layout, &mut fused);
            let mut first = Tensor2::zeros(1, 1);
            let mut second = Tensor2::zeros(1, 1);
            gemm(&a, &b, layout, &mut first);
            gemm(&c, &d, layout, &mut second);
            for ((f, x), y) in fused
                .as_slice()
                .iter()
                .zip(first.as_slice())
                .zip(second.as_slice())
            {
                assert_eq!(f.to_bits(), (x + y).to_bits(), "{layout:?}");
            }
        }
    }

    #[test]
    fn property_random_shapes_agree_across_dispatch_paths() {
        let _guard = simd::test_toggle_lock();
        // Seeded loop: deterministic shapes and data, byte-stable
        // across hosts (splitmix64), so a failure reproduces exactly.
        let mut rng = StdRng::seed_from_u64(0x9E37_79B9_7F4A_7C15);
        for round in 0..48 {
            let m = rng.gen_range(1..40u64) as usize;
            let n = rng.gen_range(1..72u64) as usize;
            let k = rng.gen_range(1..48u64) as usize;
            let layout = LAYOUTS[(round % 3) as usize];
            let (a, b) = operands(m, n, k, layout, &mut rng);
            let mut fast = Tensor2::zeros(1, 1);
            gemm(&a, &b, layout, &mut fast);
            set_force_scalar(true);
            let mut slow = Tensor2::zeros(1, 1);
            gemm(&a, &b, layout, &mut slow);
            set_force_scalar(false);
            let mut reference = Tensor2::zeros(1, 1);
            naive_gemm(&a, &b, layout, &mut reference);
            let ctx = format!("round {round} {layout:?} {m}x{n}x{k}");
            assert_bits_eq(fast.as_slice(), reference.as_slice(), &ctx);
            assert_bits_eq(slow.as_slice(), reference.as_slice(), &ctx);
            for isa in host_tiers() {
                let on = gemm_on(isa, &a, &b, layout);
                assert_bits_eq(
                    &on,
                    reference.as_slice(),
                    &format!("{ctx} ({})", isa.name()),
                );
            }

            // Int8: SIMD and scalar vs the exact integer reference (unit
            // scales; |acc| < 48 · 16 384 < 2²⁴ converts to f32 exactly).
            let qa = random_i8(m * k, &mut rng);
            let qb = random_i8(k * n, &mut rng);
            let qfast = gemm_i8_unit(&qa, &qb, m, n, k);
            set_force_scalar(true);
            let qslow = gemm_i8_unit(&qa, &qb, m, n, k);
            set_force_scalar(false);
            assert_bits_eq(&qfast, &qslow, &format!("{ctx} int8 dispatch"));
            assert_bits_eq(
                &qfast,
                &int_gemm_f32(&qa, &qb, m, n, k),
                &format!("{ctx} int8"),
            );
        }
    }

    #[test]
    fn packed_b_cache_is_bitwise_invisible() {
        // Repeated GEMMs against the same weight tensor promote its
        // packed panels into the cache; every repeat must be
        // bitwise-identical to the first (fresh-pack) call and to the
        // naive reference, and mutating the weight must be picked up.
        let mut rng = StdRng::seed_from_u64(0xCAC4E);
        for layout in LAYOUTS {
            let (a, mut b) = operands(7, 33, 17, layout, &mut rng);
            let mut reference = Tensor2::zeros(1, 1);
            naive_gemm(&a, &b, layout, &mut reference);
            let mut first = Tensor2::zeros(1, 1);
            gemm(&a, &b, layout, &mut first);
            assert_bits_eq(first.as_slice(), reference.as_slice(), "first call");
            for round in 0..4 {
                let mut again = Tensor2::zeros(1, 1);
                gemm(&a, &b, layout, &mut again);
                assert_bits_eq(
                    again.as_slice(),
                    reference.as_slice(),
                    &format!("{layout:?} cached round {round}"),
                );
            }
            // Invalidate: new bytes, new version, new results.
            b.row_mut(0)[0] += 1.0;
            let mut reference2 = Tensor2::zeros(1, 1);
            naive_gemm(&a, &b, layout, &mut reference2);
            for round in 0..3 {
                let mut got = Tensor2::zeros(1, 1);
                gemm(&a, &b, layout, &mut got);
                assert_bits_eq(
                    got.as_slice(),
                    reference2.as_slice(),
                    &format!("{layout:?} post-mutation round {round}"),
                );
            }
        }
    }

    #[test]
    fn gemm_slices_matches_tensor_entry_bitwise() {
        let _guard = simd::test_toggle_lock();
        let mut rng = StdRng::seed_from_u64(0x51_1CE5);
        for layout in LAYOUTS {
            for &(m, n, k) in &[
                (1usize, 256usize, 64usize),
                (5, 9, 7),
                (1, 1, 1),
                (4, 33, 16),
            ] {
                let (a, b) = operands(m, n, k, layout, &mut rng);
                let mut whole = Tensor2::zeros(1, 1);
                gemm(&a, &b, layout, &mut whole);
                for force in [false, true] {
                    set_force_scalar(force);
                    let mut out = vec![0.0f32; m * n];
                    gemm_slices(a.as_slice(), b.as_slice(), layout, m, n, k, &mut out, false);
                    assert_bits_eq(
                        &out,
                        whole.as_slice(),
                        &format!("{layout:?} {m}x{n}x{k} force={force}"),
                    );
                    // Accumulate path: adds exactly one more product.
                    gemm_slices(a.as_slice(), b.as_slice(), layout, m, n, k, &mut out, true);
                    let doubled: Vec<f32> = whole.as_slice().iter().map(|&v| v + v).collect();
                    assert_bits_eq(&out, &doubled, &format!("{layout:?} acc force={force}"));
                }
                set_force_scalar(false);
            }
        }
    }

    #[test]
    fn in_place_reads_are_exact_at_their_edges() {
        let mut rng = StdRng::seed_from_u64(0xED6E);
        let tiers = host_tiers();
        // TN with m off every tile height, n mod 32 in {1, 15, 17, 31},
        // k = 1, and B rows a page or more apart (packed, not read in
        // place), on every tier and layout.
        for layout in LAYOUTS {
            for &(m, n, k) in &[
                (7, 33, 1),
                (13, 47, 5),
                (23, 49, 1),
                (9, 63, 12),
                (1, 1, 1),
                (5, 15, 3),
                (8, 17, 1),
                (6, 31, 9),
                (9, 1041, 3),
            ] {
                let (a, b) = operands(m, n, k, layout, &mut rng);
                let mut reference = Tensor2::zeros(1, 1);
                naive_gemm(&a, &b, layout, &mut reference);
                for &isa in &tiers {
                    let ctx = format!("{layout:?} {m}x{n}x{k} ({})", isa.name());
                    let got = gemm_on(isa, &a, &b, layout);
                    assert_bits_eq(&got, reference.as_slice(), &ctx);
                }
            }
        }
        // A cut from a larger buffer whose other rows are NaN, against
        // a versioned B (`gemm_rows_against`), and the same bytes as
        // unversioned slices (`gemm_slices`).
        for layout in [Layout::NN, Layout::NT] {
            let (m, n, k) = (11, 49, 7);
            let (a, b) = operands(m, n, k, layout, &mut rng);
            let mut reference = Tensor2::zeros(1, 1);
            naive_gemm(&a, &b, layout, &mut reference);
            let mut buf = vec![f32::NAN; (m + 6) * k];
            buf[3 * k..(3 + m) * k].copy_from_slice(a.as_slice());
            let rows = &buf[3 * k..(3 + m) * k];
            let mut out = vec![0.0f32; m * n];
            gemm_rows_against(rows, m, &b, layout, &mut out, false);
            assert_bits_eq(&out, reference.as_slice(), &format!("{layout:?} against"));
            gemm_slices(rows, b.as_slice(), layout, m, n, k, &mut out, false);
            assert_bits_eq(&out, reference.as_slice(), &format!("{layout:?} slices"));
        }
        // NN and TN read B in place, so they never enter the packed-B
        // cache; NT still packs, and promotes its key on the second miss,
        // and so does an NN B whose rows are a page or more apart.
        for isa in tiers
            .into_iter()
            .filter(|&t| matches!(t, Isa::Avx2 | Isa::Avx512))
        {
            simd::clear_packed_b_cache();
            for layout in [Layout::NN, Layout::TN] {
                let (a, b) = operands(9, 40, 6, layout, &mut rng);
                for _ in 0..3 {
                    gemm_on(isa, &a, &b, layout);
                }
                assert_eq!(simd::pack::b_cache_len(), 0, "{layout:?} ({})", isa.name());
            }
            let (a, b) = operands(9, 40, 6, Layout::NT, &mut rng);
            gemm_on(isa, &a, &b, Layout::NT);
            assert_eq!(
                simd::pack::b_cache_len(),
                0,
                "NT first miss ({})",
                isa.name()
            );
            gemm_on(isa, &a, &b, Layout::NT);
            assert_eq!(
                simd::pack::b_cache_len(),
                1,
                "NT second miss ({})",
                isa.name()
            );
            let (a, b) = operands(3, 1024, 4, Layout::NN, &mut rng);
            gemm_on(isa, &a, &b, Layout::NN);
            gemm_on(isa, &a, &b, Layout::NN);
            assert_eq!(simd::pack::b_cache_len(), 2, "wide NN ({})", isa.name());
            simd::clear_packed_b_cache();
        }
    }

    #[test]
    fn degenerate_shapes_are_handled() {
        let a = Tensor2::zeros(0, 3);
        let b = Tensor2::zeros(3, 4);
        let mut out = Tensor2::zeros(1, 1);
        gemm(&a, &b, Layout::NN, &mut out);
        assert_eq!(out.shape(), (0, 4));

        let a = Tensor2::zeros(2, 0);
        let b = Tensor2::zeros(0, 4);
        gemm(&a, &b, Layout::NN, &mut out);
        assert_eq!(out.shape(), (2, 4));
        assert!(out.as_slice().iter().all(|&v| v == 0.0));

        let a = Tensor2::zeros(2, 3);
        let b = Tensor2::zeros(3, 0);
        gemm(&a, &b, Layout::NN, &mut out);
        assert_eq!(out.shape(), (2, 0));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_shapes_panic() {
        let a = Tensor2::zeros(2, 3);
        let b = Tensor2::zeros(4, 5);
        let mut out = Tensor2::zeros(1, 1);
        gemm(&a, &b, Layout::NN, &mut out);
    }

    fn random_i8(len: usize, rng: &mut impl Rng) -> Vec<i8> {
        (0..len)
            .map(|_| rng.gen_range(-128i32..=127) as i8)
            .collect()
    }

    /// The exact `i32` product `a[m, k] · b[k, n]` by the triple loop.
    fn int_gemm(a: &[i8], b: &[i8], m: usize, n: usize, k: usize) -> Vec<i32> {
        (0..m * n)
            .map(|ij| {
                let (i, j) = (ij / n, ij % n);
                (0..k)
                    .map(|p| a[i * k + p] as i32 * b[p * n + j] as i32)
                    .sum()
            })
            .collect()
    }

    /// [`int_gemm`] with each element converted to f32 (round to
    /// nearest even).
    fn int_gemm_f32(a: &[i8], b: &[i8], m: usize, n: usize, k: usize) -> Vec<f32> {
        int_gemm(a, b, m, n, k)
            .into_iter()
            .map(|v| v as f32)
            .collect()
    }

    /// [`gemm_i8_dequant`] with unit scales and no zero point: the
    /// accumulator itself, converted to f32, over a nonzero `out` that
    /// must be overwritten.
    fn gemm_i8_unit(a: &[i8], b: &[i8], m: usize, n: usize, k: usize) -> Vec<f32> {
        let mut out = vec![1.0f32; m * n];
        let (scales, sums) = (vec![1.0f32; m], vec![0i32; m]);
        gemm_i8_dequant(a, b, m, n, k, &scales, &sums, 1.0, 0, &mut out, false);
        out
    }

    #[test]
    fn gemm_i8_matches_integer_reference() {
        let mut rng = thread_rng();
        for &(m, n, k) in &[(1usize, 1usize, 1usize), (3, 5, 4), (4, 7, 9), (2, 16, 33)] {
            let a = random_i8(m * k, &mut rng);
            let b = random_i8(k * n, &mut rng);
            // |acc| ≤ 33 · 16 384 < 2²⁴: unit scales are exact.
            assert_bits_eq(
                &gemm_i8_unit(&a, &b, m, n, k),
                &int_gemm_f32(&a, &b, m, n, k),
                &format!("({m},{n},{k})"),
            );
        }
    }

    #[test]
    fn gemm_i8_boundary_depth_is_exact() {
        let _guard = simd::test_toggle_lock();
        // Worst-case magnitudes at the documented depth limit: the
        // accumulator reaches 131 071 · 16 384 = 2 147 467 264, just
        // below i32::MAX, and converts to f32 by rounding; an overflow
        // would wrap negative. n = 16 drives the vector strip path,
        // n = 1 the scalar-tail path.
        let k = MAX_GEMM_I8_K;
        let want = (k as i64 * 16_384) as i32;
        assert!((want as i64) == k as i64 * 16_384, "bound fits i32");
        for n in [1usize, 16] {
            let a = vec![-128i8; k];
            let b = vec![-128i8; k * n];
            for force in [false, true] {
                set_force_scalar(force);
                let out = gemm_i8_unit(&a, &b, 1, n, k);
                assert!(out.iter().all(|&v| v == want as f32), "n={n} force={force}");
            }
        }
        set_force_scalar(false);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn gemm_i8_depth_beyond_bound_is_rejected_in_debug() {
        let r = std::panic::catch_unwind(|| {
            let k = MAX_GEMM_I8_K + 1;
            gemm_i8_unit(&vec![0i8; k], &vec![0i8; k], 1, 1, k);
        });
        assert!(r.is_err());
    }

    #[test]
    fn gemm_i8_dequant_matches_unfused_reference_across_dispatch() {
        let _guard = simd::test_toggle_lock();
        let mut rng = StdRng::seed_from_u64(42);
        let sw = 0.031_25f32;
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (1, 16, 8),
            (2, 17, 9),
            (3, 33, 5),
            (4, 40, 21),
        ] {
            let a = random_i8(m * k, &mut rng);
            let b = random_i8(k * n, &mut rng);
            let scales: Vec<f32> = (0..m).map(|i| 0.01 + i as f32 * 0.003).collect();
            let sums: Vec<i32> = a
                .chunks_exact(k)
                .map(|row| row.iter().map(|&v| v as i32).sum())
                .collect();
            let zw = rng.gen_range(-5i32..=5);
            // Unfused reference: the integer triple loop, then the
            // epilogue.
            let acc = int_gemm(&a, &b, m, n, k);
            for accumulate in [false, true] {
                let base: Vec<f32> = (0..m * n).map(|x| x as f32 * 0.5 - 7.0).collect();
                let mut want = base.clone();
                for i in 0..m {
                    let corr = zw.wrapping_mul(sums[i]);
                    let sc = scales[i] * sw;
                    for j in 0..n {
                        let v = sc * (acc[i * n + j].wrapping_sub(corr)) as f32;
                        let o = &mut want[i * n + j];
                        *o = if accumulate { *o + v } else { v };
                    }
                }
                for force in [false, true] {
                    set_force_scalar(force);
                    let mut got = base.clone();
                    gemm_i8_dequant(
                        &a, &b, m, n, k, &scales, &sums, sw, zw, &mut got, accumulate,
                    );
                    assert_bits_eq(
                        &got,
                        &want,
                        &format!("{m}x{n}x{k} accumulate={accumulate} force={force}"),
                    );
                }
            }
        }
        set_force_scalar(false);
    }

    #[test]
    fn gemm_i8_rejects_bad_lengths() {
        let r = std::panic::catch_unwind(|| {
            gemm_i8_unit(&[1, 2], &[3, 4], 2, 2, 2);
        });
        assert!(r.is_err());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn int8_metrics_tally_calls_and_ops() {
        let a = vec![1i8; 4 * 8];
        let b = vec![1i8; 8 * 16];
        let calls0 = int8_gemm_invocations();
        let ops0 = int8_gemm_ops();
        gemm_i8_unit(&a, &b, 4, 16, 8);
        assert!(int8_gemm_invocations() > calls0);
        assert!(int8_gemm_ops() >= ops0 + 2 * 4 * 16 * 8);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn kernel_metrics_tally_calls_and_flops() {
        // Other tests run GEMMs concurrently, so assert on deltas of
        // locally-known work rather than absolute values.
        let a = Tensor2::zeros(4, 8);
        let b = Tensor2::zeros(8, 16);
        let mut out = Tensor2::zeros(4, 16);
        let calls0 = gemm_invocations();
        let flops0 = gemm_flops();
        gemm(&a, &b, Layout::NN, &mut out);
        gemm_acc(&a, &b, Layout::NN, &mut out);
        assert!(gemm_invocations() >= calls0 + 2);
        assert!(gemm_flops() >= flops0 + 2 * 2 * 4 * 16 * 8);
    }
}
