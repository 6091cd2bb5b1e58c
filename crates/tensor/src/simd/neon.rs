//! AArch64 NEON micro-kernels: 4 × 8 f32 register tiles via fused
//! `fmla`, plus widening int8 kernels via `smlal`.
//!
//! NEON is part of the baseline aarch64 target, so these are plain
//! safe functions — no runtime gate is needed and the intrinsics'
//! target-feature requirement is satisfied crate-wide. Pointer loads
//! and stores still carry `unsafe` blocks whose bounds come from the
//! slice ops immediately above them.
//!
//! Identity contract: `vfmaq_n_f32` is the same correctly rounded
//! IEEE fused multiply-add as the scalar reference's `f32::mul_add`,
//! applied per output element over ascending `p`, so f32 results are
//! bitwise-identical to the scalar path. The int8 kernels are exact
//! integer arithmetic.

use super::store_clipped;
use std::arch::aarch64::{
    int32x4_t, vaddq_f32, vcvtq_f32_s32, vdupq_n_f32, vdupq_n_s32, vfmaq_n_f32, vget_high_s16,
    vget_low_s16, vld1_s8, vld1q_f32, vmlal_n_s16, vmovl_s8, vmulq_n_f32, vst1q_f32, vsubq_s32,
};

/// NEON f32 register tile: MR = 4 rows × NR = 8 columns in eight
/// 128-bit accumulators. Same packed-panel format and store clipping
/// as the x86 tiles.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tile_f32(
    ap: &[f32],
    bp: &[f32],
    k: usize,
    out: &mut [f32],
    r0: usize,
    mr: usize,
    j0: usize,
    n: usize,
    nr: usize,
    acc: bool,
) {
    let mut c = [[vdupq_n_f32(0.0); 2]; 4];
    for (bs, av) in bp.chunks_exact(8).zip(ap.chunks_exact(4)).take(k) {
        // SAFETY: `chunks_exact(8)` yields slices of exactly 8 f32s,
        // so both 4-lane loads stay in bounds.
        let (b0, b1) = unsafe { (vld1q_f32(bs.as_ptr()), vld1q_f32(bs.as_ptr().add(4))) };
        for (cr, &x) in c.iter_mut().zip(av) {
            cr[0] = vfmaq_n_f32(cr[0], b0, x);
            cr[1] = vfmaq_n_f32(cr[1], b1, x);
        }
    }
    if mr == 4 && nr == 8 {
        for (r, cr) in c.iter().enumerate() {
            let start = (r0 + r) * n + j0;
            let dst = &mut out[start..start + 8];
            // SAFETY: `dst` is exactly 8 f32s by the slice op above.
            unsafe {
                let p = dst.as_mut_ptr();
                let (mut v0, mut v1) = (cr[0], cr[1]);
                if acc {
                    v0 = vaddq_f32(vld1q_f32(p), v0);
                    v1 = vaddq_f32(vld1q_f32(p.add(4)), v1);
                }
                vst1q_f32(p, v0);
                vst1q_f32(p.add(4), v1);
            }
        }
    } else {
        let mut spill = [0.0f32; 4 * 8];
        for (r, cr) in c.iter().enumerate() {
            // SAFETY: `spill` holds 4 rows of 8 f32s; `r < 4`.
            unsafe {
                vst1q_f32(spill.as_mut_ptr().add(r * 8), cr[0]);
                vst1q_f32(spill.as_mut_ptr().add(r * 8 + 4), cr[1]);
            }
        }
        store_clipped(&spill, 8, out, r0, mr, j0, n, nr, acc);
    }
}

/// Accumulates an 8-column strip of one int8 output row: widen 8 i8
/// weights to i16, fused widening multiply-add by the broadcast
/// activation into two i32 quads. Skips zero activations like the
/// scalar reference (exact for integers).
fn i8_strip(a_row: &[i8], b: &[i8], n: usize, j: usize) -> (int32x4_t, int32x4_t) {
    let mut acc0 = vdupq_n_s32(0);
    let mut acc1 = vdupq_n_s32(0);
    for (p, &cv) in a_row.iter().enumerate() {
        if cv == 0 {
            continue;
        }
        let bs = &b[p * n + j..p * n + j + 8];
        // SAFETY: `bs` is exactly 8 i8s by the slice op above; the
        // 64-bit load reads exactly those 8 bytes.
        let bv = unsafe { vld1_s8(bs.as_ptr()) };
        let wide = vmovl_s8(bv);
        acc0 = vmlal_n_s16(acc0, vget_low_s16(wide), cv as i16);
        acc1 = vmlal_n_s16(acc1, vget_high_s16(wide), cv as i16);
    }
    (acc0, acc1)
}

/// NEON int8 GEMM with the dequantization epilogue fused into the
/// register strip; mirrors the AVX2 version and the scalar reference
/// bit-for-bit (wrapping i32 correction, round-to-nearest-even
/// i32→f32 conversion).
#[allow(clippy::too_many_arguments)]
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
    let nb = n - n % 8;
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        let corr = zw.wrapping_mul(sums[i]);
        let s = scales[i] * sw;
        let vc = vdupq_n_s32(corr);
        let mut j = 0;
        while j < nb {
            let (acc0, acc1) = i8_strip(a_row, b, n, j);
            let mut f0 = vmulq_n_f32(vcvtq_f32_s32(vsubq_s32(acc0, vc)), s);
            let mut f1 = vmulq_n_f32(vcvtq_f32_s32(vsubq_s32(acc1, vc)), s);
            // SAFETY: `j + 8 <= nb <= n`, so both 4-lane loads and
            // stores land inside `orow` (length n).
            unsafe {
                let p = orow.as_mut_ptr().add(j);
                if accumulate {
                    f0 = vaddq_f32(vld1q_f32(p), f0);
                    f1 = vaddq_f32(vld1q_f32(p.add(4)), f1);
                }
                vst1q_f32(p, f0);
                vst1q_f32(p.add(4), f1);
            }
            j += 8;
        }
        for (j, o) in orow.iter_mut().enumerate().skip(nb) {
            let v = s * (super::i8_dot_col(a_row, b, n, j).wrapping_sub(corr)) as f32;
            *o = if accumulate { *o + v } else { v };
        }
    }
}
