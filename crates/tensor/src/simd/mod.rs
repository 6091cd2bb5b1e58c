//! Runtime CPU dispatch for the GEMM micro-kernels.
//!
//! The GEMM entry points in [`kernels`](crate::kernels) pick an
//! instruction-set tier **once** per process via [`Isa`] detection
//! (`is_x86_feature_detected!` on x86-64, baseline NEON on aarch64)
//! and route every kernel invocation through it. Two drivers serve
//! the four tiers: the x86 tiers read their operands in place
//! (`gemm_in_place`), and NEON and the portable scalar tier pack
//! them into panels first (`gemm_packed`). The value
//! reference every tier is tested against is
//! [`naive_gemm`](crate::kernels::naive_gemm).
//!
//! # Bitwise identity across tiers
//!
//! Every tier — scalar, AVX2/FMA, AVX-512, NEON — accumulates each
//! output element over the reduction index `p` in strictly increasing
//! order using *fused* multiply-adds (`f32::mul_add` in the scalar
//! tile and the naive reference, `vfmadd`/`fmla` in the vector
//! kernels). An IEEE-754 fused multiply-add is correctly rounded, so
//! the same sequence of fmas produces the same bits on every CPU; the
//! tiers differ only in *how many elements* advance per instruction,
//! never in the per-element arithmetic. Golden tests in `kernels`
//! assert this bitwise agreement for every layout and tail shape.
//!
//! # Forcing the scalar tier
//!
//! The portable scalar tier has two switches:
//!
//! * [`set_force_scalar`] — a runtime toggle used by benchmarks and
//!   the golden tests to compare tiers through unmodified call sites.
//! * The `force-scalar` cargo feature — a compile-time kill switch CI
//!   uses to run whole test suites over the portable tier.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub(crate) mod pack;

pub use pack::{clear_packed_b_cache, packed_b_cache_stats};

#[cfg(target_arch = "aarch64")]
pub(crate) mod neon;
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

/// The instruction-set tier the GEMM kernels dispatch to.
///
/// Ordinals (see [`Isa::ordinal`]) are stable and exported as the
/// `tensor.gemm.dispatch` gauge by `voyagerctl metrics`:
/// `0 = scalar`, `1 = avx2`, `2 = avx512`, `3 = neon`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable 8 × 8 register tile (`f32::mul_add`), driven through
    /// the packing driver NEON uses.
    Scalar,
    /// AVX2 + FMA: 8-lane f32 tiles, 16-lane i8→i16 widening dots.
    Avx2,
    /// AVX-512F/BW: 16-lane f32 tiles (two FMA ports on server parts).
    Avx512,
    /// AArch64 NEON: 4-lane f32 tiles via `fmla`.
    Neon,
}

impl Isa {
    /// Lower-case tier name, as reported in bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
            Isa::Neon => "neon",
        }
    }

    /// Stable numeric id for the `tensor.gemm.dispatch` gauge.
    pub fn ordinal(self) -> i64 {
        match self {
            Isa::Scalar => 0,
            Isa::Avx2 => 1,
            Isa::Avx512 => 2,
            Isa::Neon => 3,
        }
    }

    /// `(MR, NR)` register-tile shape of this tier's micro-kernel.
    /// Tile shape never affects results (per-element arithmetic is
    /// tile-independent), only throughput.
    pub(crate) fn tile_dims(self) -> (usize, usize) {
        match self {
            Isa::Scalar => (8, 8),
            Isa::Neon => (4, 8),
            Isa::Avx2 => (6, 16),
            Isa::Avx512 => (8, 32),
        }
    }
}

/// When set, all kernel entry points route to the scalar tier
/// regardless of detected CPU features. Results are bitwise-identical
/// either way; this exists for benchmarks and golden tests.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Routes all subsequent kernel calls through the scalar tier
/// (`true`) or the detected SIMD tier (`false`); see the module docs
/// for the identity contract.
pub fn set_force_scalar(force: bool) {
    FORCE_SCALAR.store(force, Ordering::Relaxed);
}

/// Returns whether the scalar tier is currently forced.
pub fn force_scalar() -> bool {
    FORCE_SCALAR.load(Ordering::Relaxed)
}

/// Cached hardware probe: the best available tier plus whether the
/// host has a hardware FMA unit (used to pick the fast compiled copy
/// of the scalar tile and the naive reference — same arithmetic, same
/// bits, no libm round trip per element).
static DETECTED: OnceLock<(Isa, bool)> = OnceLock::new();

#[cfg(target_arch = "x86_64")]
fn detect_hw() -> (Isa, bool) {
    let best = [Isa::Avx512, Isa::Avx2]
        .into_iter()
        .find(|&isa| supports(isa));
    (best.unwrap_or(Isa::Scalar), is_x86_feature_detected!("fma"))
}

#[cfg(target_arch = "aarch64")]
fn detect_hw() -> (Isa, bool) {
    // NEON (with fused `fmla`) is part of the baseline aarch64 target.
    (Isa::Neon, false)
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn detect_hw() -> (Isa, bool) {
    (Isa::Scalar, false)
}

fn detection() -> (Isa, bool) {
    *DETECTED.get_or_init(|| match detect_hw() {
        // Compile-time kill switch: pretend the host has no vector
        // tier. The scalar tier still uses the FMA-compiled copies —
        // identical bits, they only skip the libm fma round trip per
        // element.
        (_, fma) if cfg!(feature = "force-scalar") => (Isa::Scalar, fma),
        hw => hw,
    })
}

/// The tier the kernels will actually use for the next call: the
/// detected tier, downgraded to [`Isa::Scalar`] while
/// [`set_force_scalar`] is on or when built with the `force-scalar`
/// feature.
pub fn active_isa() -> Isa {
    if force_scalar() {
        Isa::Scalar
    } else {
        detection().0
    }
}

/// The tier runtime feature detection selected for this host,
/// ignoring the force switches (still [`Isa::Scalar`] under the
/// `force-scalar` feature, which disables detection entirely).
pub fn detected_isa() -> Isa {
    detection().0
}

/// Whether the host has a hardware FMA unit (drives the choice of
/// compiled copy for the scalar tile and the naive reference on
/// x86-64).
pub(crate) fn fma_available() -> bool {
    detection().1
}

use crate::kernels::Layout;

/// Cache-blocking budget for one group of A row blocks: sized to fit
/// mid-level cache alongside one B panel on typical server parts
/// (256 KB of A + at most 64 KB of B panel).
const GROUP_A_BYTES: usize = 256 * 1024;

/// Row stride at which the x86 driver stops reading B in place: with
/// B's rows a page or more apart, every row of a panel is a fresh page
/// for the TLB and for the hardware prefetchers, which do not cross
/// pages, so contiguous panels read faster (and a weight that repeats,
/// as in serving, is packed once through the packed-B cache).
const B_IN_PLACE_MAX_ROW_BYTES: usize = 4096;

/// Whether this CPU can run `isa`'s kernels, whatever the force
/// switches say. Detection picks the best tier it allows, the GEMM
/// driver checks it before running a tier it is handed, and the tests
/// use it to run every tier the host has.
pub(crate) fn supports(isa: Isa) -> bool {
    match isa {
        Isa::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => {
            supports(Isa::Avx2)
                && is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
        }
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => true,
        _ => false,
    }
}

/// The GEMM entry of every tier: computes the whole `[m, n]` product
/// into `out`.
///
/// The x86 tiers read A and B in place; NEON and the scalar tier pack
/// both first (see [`gemm_packed`]). `b_version` is the B
/// operand's content-version stamp (`Tensor2::version`), or `0` for
/// unversioned slice operands; it lets a driver that packs B serve the
/// panels from the packed-B cache (see [`pack::cached_b`]).
///
/// # Panics
///
/// Panics if this CPU cannot run `isa` (see [`supports`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_simd(
    isa: Isa,
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
    assert!(supports(isa), "this CPU cannot run {} kernels", isa.name());
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 | Isa::Avx512 => gemm_in_place(isa, a, b, layout, m, n, k, out, acc, b_version),
        _ => gemm_packed(isa, a, b, layout, m, n, k, out, acc, b_version),
    }
}

/// The x86 driver: the register tiles read their operands where they
/// lie. A goes through a row and a column stride (`(k, 1)` for NN and
/// NT, `(1, m)` for TN, whose `[k, m]` storage is already the order a
/// tile consumes), and B row by row for NN and TN. B is packed into
/// `[k][NR]` panels first, through the packed-B cache, only when NT
/// stores it transposed or its rows are at least
/// [`B_IN_PLACE_MAX_ROW_BYTES`] apart.
///
/// Groups of row blocks (~256 KB of A, sized to sit in L2) sweep each
/// ~k·NR B panel in turn (BLIS-style cache blocking), so a panel is
/// loaded once per group and stays cache-resident while the group's
/// row blocks stream past it. Loop order only changes which output
/// tiles compute first, never the per-element fma chain, so results
/// stay bitwise identical.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn gemm_in_place(
    isa: Isa,
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
    let (mrw, nrw) = isa.tile_dims();
    let (a_rs, a_cs) = match layout {
        Layout::TN => (1, m),
        Layout::NN | Layout::NT => (k, 1),
    };
    let blocks = m.div_ceil(mrw);
    let group = (GROUP_A_BYTES / (k * mrw * size_of::<f32>())).max(1);
    let mut sweep = |b: &[f32], packed: bool| {
        for g0 in (0..blocks).step_by(group) {
            let g1 = (g0 + group).min(blocks);
            for j in (0..n).step_by(nrw) {
                let nr = nrw.min(n - j);
                // In place, a panel's columns start at `j` of each B
                // row; packed, panel `j / nrw` is a `[k][nrw]` block.
                let (b, ldb, jb) = if packed {
                    let t = j / nrw;
                    (&b[t * k * nrw..(t + 1) * k * nrw], nrw, 0)
                } else {
                    (b, n, j)
                };
                let src = x86::Operands {
                    a,
                    a_rs,
                    a_cs,
                    b,
                    ldb,
                    k,
                };
                for bi in g0..g1 {
                    let i = bi * mrw;
                    let mr = mrw.min(m - i);
                    match isa {
                        // SAFETY: `gemm_simd` asserted that this CPU
                        // has avx512f (`supports`).
                        Isa::Avx512 => unsafe {
                            x86::tile_f32_avx512(&src, i, mr, jb, nr, out, j, n, acc)
                        },
                        // SAFETY: the only other tier routed here is
                        // Avx2, and `gemm_simd` asserted that this CPU
                        // has avx2 and fma (`supports`).
                        _ => unsafe { x86::tile_f32_avx2(&src, i, mr, jb, nr, out, j, n, acc) },
                    }
                }
            }
        }
    };
    if layout != Layout::NT && n * size_of::<f32>() < B_IN_PLACE_MAX_ROW_BYTES {
        sweep(b, false);
        return;
    }
    match pack::cached_b(b, layout, k, n, nrw, b_version) {
        Some(panels) => sweep(&panels, true),
        None => pack::with_scratch(|s| {
            pack::pack_b(b, layout, k, n, nrw, &mut s.b);
            sweep(&s.b, true);
        }),
    }
}

/// Packed-panel GEMM driver, for the tiers that do not read operands
/// in place (NEON and the scalar tier). Packs B into NR-wide
/// panels once for the whole call (or takes them from the packed-B
/// cache) and each MR-row block of A once per block, then sweeps the
/// layout-blind register tile over the panels with the same group
/// blocking as the x86 driver.
#[allow(clippy::too_many_arguments)]
fn gemm_packed(
    isa: Isa,
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
    let (mrw, nrw) = isa.tile_dims();
    let cached = pack::cached_b(b, layout, k, n, nrw, b_version);
    pack::with_scratch(|s| {
        let pack::PackScratch {
            a: sa,
            b: scratch_b,
            ..
        } = s;
        let sb: &[f32] = match &cached {
            Some(panels) => panels,
            None => {
                pack::pack_b(b, layout, k, n, nrw, scratch_b);
                scratch_b
            }
        };
        pack::pack_a(a, layout, m, k, mrw, sa);
        sweep_packed(isa, sa, sb, k, n, m, out, acc);
    });
}

/// Sweeps the tier's register tile over packed panels: `sa` holds the
/// `[p][MR]` row blocks of the output's `rows` rows, `sb` the
/// `[p][NR]` column panels of B. On x86-64 hosts with an FMA unit the
/// scalar tier runs a copy of the sweep compiled with the `fma` target
/// feature, its tile inlined, so no element pays a libm `fmaf` call.
/// Both copies compile the same `f32::mul_add` source, so the bits
/// never depend on which copy ran. The copy must hold the tile: the
/// driver sweeps inside `pack::with_scratch`'s closure, which a
/// target-feature wrapper around the driver would not reach.
#[allow(clippy::too_many_arguments)]
fn sweep_packed(
    isa: Isa,
    sa: &[f32],
    sb: &[f32],
    k: usize,
    n: usize,
    rows: usize,
    out_rows: &mut [f32],
    acc: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Scalar && fma_available() {
        // SAFETY: `fma_available` is true only after
        // `is_x86_feature_detected!("fma")` succeeded on this CPU, so
        // the target-feature contract of the copy holds.
        unsafe { sweep_packed_fma(sa, sb, k, n, rows, out_rows, acc) };
        return;
    }
    sweep_packed_body(isa, sa, sb, k, n, rows, out_rows, acc);
}

/// The scalar tier's sweep compiled with the `fma` target feature —
/// see [`sweep_packed`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
fn sweep_packed_fma(
    sa: &[f32],
    sb: &[f32],
    k: usize,
    n: usize,
    rows: usize,
    out_rows: &mut [f32],
    acc: bool,
) {
    sweep_packed_body(Isa::Scalar, sa, sb, k, n, rows, out_rows, acc);
}

/// [`sweep_packed`]'s loops, with the same group blocking as the x86
/// driver: groups of row blocks (~256 KB of A) sweep each B panel in
/// turn.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn sweep_packed_body(
    isa: Isa,
    sa: &[f32],
    sb: &[f32],
    k: usize,
    n: usize,
    rows: usize,
    out_rows: &mut [f32],
    acc: bool,
) {
    let (mrw, nrw) = isa.tile_dims();
    let blocks = rows.div_ceil(mrw);
    let panel_a = k * mrw;
    let group = (GROUP_A_BYTES / (panel_a * size_of::<f32>())).max(1);
    for g0 in (0..blocks).step_by(group) {
        let g1 = (g0 + group).min(blocks);
        for t in 0..n.div_ceil(nrw) {
            let j = t * nrw;
            let nr = nrw.min(n - j);
            let bpanel = &sb[t * k * nrw..(t + 1) * k * nrw];
            for bi in g0..g1 {
                let r0 = bi * mrw;
                let mr = mrw.min(rows - r0);
                let apanel = &sa[bi * panel_a..(bi + 1) * panel_a];
                match isa {
                    #[cfg(target_arch = "aarch64")]
                    Isa::Neon => neon::tile_f32(apanel, bpanel, k, out_rows, r0, mr, j, n, nr, acc),
                    // `gemm_simd` routes only Scalar and NEON here.
                    _ => tile_f32_portable(apanel, bpanel, k, out_rows, r0, mr, j, n, nr, acc),
                }
            }
        }
    }
}

/// Portable packed register tile: MR = 8 rows × NR = 8 columns over
/// `[k][8]` A and B panels, the same panel format, store clipping and
/// fma chain as the NEON tile, one element at a time. A full tile runs
/// fixed trip counts, so its 64 accumulators stay in eight vector
/// registers: eight independent fma chains, enough to cover the fma
/// latency (four rows leave the chains latency-bound at half the fma
/// throughput). An edge tile accumulates only its `mr × nr` real
/// elements.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_f32_portable(
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
    let panels = bp.chunks_exact(8).zip(ap.chunks_exact(8)).take(k);
    let mut c = [[0.0f32; 8]; 8];
    if mr == 8 && nr == 8 {
        // One named accumulator row per A row: with the rows of one
        // array, the vectoriser shuffles lanes across rows instead of
        // issuing one 8-wide fma per row.
        let [mut t0, mut t1, mut t2, mut t3, mut t4, mut t5, mut t6, mut t7] = c;
        for (bs, av) in panels {
            let (x0, x1, x2, x3) = (av[0], av[1], av[2], av[3]);
            let (x4, x5, x6, x7) = (av[4], av[5], av[6], av[7]);
            for (j, &bv) in bs.iter().enumerate() {
                t0[j] = x0.mul_add(bv, t0[j]);
                t1[j] = x1.mul_add(bv, t1[j]);
                t2[j] = x2.mul_add(bv, t2[j]);
                t3[j] = x3.mul_add(bv, t3[j]);
                t4[j] = x4.mul_add(bv, t4[j]);
                t5[j] = x5.mul_add(bv, t5[j]);
                t6[j] = x6.mul_add(bv, t6[j]);
                t7[j] = x7.mul_add(bv, t7[j]);
            }
        }
        // Literal extents: the inlined store moves whole rows instead
        // of calling `memcpy` per row.
        let t = [t0, t1, t2, t3, t4, t5, t6, t7];
        store_clipped(t.as_flattened(), 8, out, r0, 8, j0, n, 8, acc);
    } else {
        for (bs, av) in panels {
            for (cr, &x) in c.iter_mut().zip(&av[..mr]) {
                for (d, &bv) in cr[..nr].iter_mut().zip(bs) {
                    *d = x.mul_add(bv, *d);
                }
            }
        }
        store_clipped(c.as_flattened(), 8, out, r0, mr, j0, n, nr, acc);
    }
}

/// Copies (or adds, for `gemm_acc`) an `mr × nr` register tile from
/// its `nrw`-wide spill buffer into the output, clipping the padded
/// lanes. Shared by every tier's edge-tile path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn store_clipped(
    spill: &[f32],
    nrw: usize,
    out: &mut [f32],
    r0: usize,
    mr: usize,
    j0: usize,
    n: usize,
    nr: usize,
    acc: bool,
) {
    for r in 0..mr {
        let src = &spill[r * nrw..r * nrw + nr];
        let start = (r0 + r) * n + j0;
        let dst = &mut out[start..start + nr];
        if acc {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        } else {
            dst.copy_from_slice(src);
        }
    }
}

/// Runs the naive reference kernel through its fastest compiled copy;
/// same dual-compilation story as [`sweep_packed`].
pub(crate) fn run_naive(
    a: &[f32],
    b: &[f32],
    layout: Layout,
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: `fma_available` is true only after
        // `is_x86_feature_detected!("fma")` succeeded on this CPU, so
        // the target-feature contract of the clone holds.
        unsafe { naive_fma(a, b, layout, m, n, k, out) };
        return;
    }
    crate::kernels::naive_body(a, b, layout, m, n, k, out);
}

/// The naive kernel body compiled with the `fma` target feature — see
/// [`run_naive`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
fn naive_fma(a: &[f32], b: &[f32], layout: Layout, m: usize, n: usize, k: usize, out: &mut [f32]) {
    crate::kernels::naive_body(a, b, layout, m, n, k, out);
}

/// Runs [`crate::infer::lstm_cell`]'s loops through their fastest
/// compiled copy: one built with the `avx512f` target feature when the
/// active tier is AVX-512 (16-lane loops instead of baseline x86-64's
/// 4), the plain build otherwise. Both compile the same source, and
/// the bits cannot depend on the copy: Rust never contracts `a * b + c`
/// into an fma, and `/` and `clamp` are exact at any width.
pub(crate) fn lstm_cell(gates: &mut [f32], c: &mut [f32], h: &mut [f32], hidden: usize) {
    #[cfg(target_arch = "x86_64")]
    if active_isa() == Isa::Avx512 {
        // SAFETY: `active_isa` yields Avx512 only after
        // `is_x86_feature_detected!` confirmed avx512f on this CPU (see
        // `supports`), so the target-feature contract of the copy holds.
        unsafe { lstm_cell_avx512(gates, c, h, hidden) };
        return;
    }
    crate::infer::lstm_cell_body(gates, c, h, hidden);
}

/// The LSTM cell compiled with the `avx512f` target feature — see
/// [`lstm_cell`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn lstm_cell_avx512(gates: &mut [f32], c: &mut [f32], h: &mut [f32], hidden: usize) {
    crate::infer::lstm_cell_body(gates, c, h, hidden);
}

/// Runs one step of BPTT's gate loop (`tape::lstm_bptt_step_body`)
/// through its fastest compiled copy, picked as for [`lstm_cell`] and
/// with the same bits on every copy.
pub(crate) fn lstm_bptt_step(
    gates: &[f32],
    c: &[f32],
    c_prev: &[f32],
    dh: &[f32],
    dc: &mut [f32],
    dpre: &mut [f32],
    hidden: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if active_isa() == Isa::Avx512 {
        // SAFETY: `active_isa` yields Avx512 only after
        // `is_x86_feature_detected!` confirmed avx512f on this CPU (see
        // `supports`), so the target-feature contract of the copy holds.
        unsafe { lstm_bptt_step_avx512(gates, c, c_prev, dh, dc, dpre, hidden) };
        return;
    }
    crate::tape::lstm_bptt_step_body(gates, c, c_prev, dh, dc, dpre, hidden);
}

/// BPTT's gate loop compiled with the `avx512f` target feature — see
/// [`lstm_bptt_step`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn lstm_bptt_step_avx512(
    gates: &[f32],
    c: &[f32],
    c_prev: &[f32],
    dh: &[f32],
    dc: &mut [f32],
    dpre: &mut [f32],
    hidden: usize,
) {
    crate::tape::lstm_bptt_step_body(gates, c, c_prev, dh, dc, dpre, hidden);
}

/// Runs the active SIMD tier's fused int8-dequant kernel, or returns
/// `false` when the scalar tier is active (the caller then runs the
/// portable AXPY reference). Kept here so `unsafe` dispatch stays
/// inside this module.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_i8_dequant_vector(
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
) -> bool {
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 | Isa::Avx512 => {
            // SAFETY: Avx2/Avx512 are selected only after
            // `is_x86_feature_detected!("avx2")` succeeded on this CPU
            // (see `detect_hw`), satisfying the kernel's target feature.
            unsafe { x86::gemm_i8_dequant(a, b, m, n, k, scales, sums, sw, zw, out, accumulate) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => {
            neon::gemm_i8_dequant(a, b, m, n, k, scales, sums, sw, zw, out, accumulate);
            true
        }
        _ => false,
    }
}

/// Scalar dot product of activation row `a_row` with column `j` of
/// the row-major `[k, n]` int8 weight matrix — the column tail of the
/// vector int8 kernels. Skips zero activations like the AXPY
/// reference (exact for integers).
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
pub(crate) fn i8_dot_col(a_row: &[i8], b: &[i8], n: usize, j: usize) -> i32 {
    let mut acc = 0i32;
    for (p, &cv) in a_row.iter().enumerate() {
        if cv != 0 {
            acc += cv as i32 * b[p * n + j] as i32;
        }
    }
    acc
}

/// Serializes tests that toggle the global [`set_force_scalar`]
/// switch so concurrent toggles cannot interleave. Tests that merely
/// *run* kernels need no lock — results are bitwise-identical on
/// every path, so a mid-test toggle cannot change what they observe.
#[cfg(test)]
pub(crate) fn test_toggle_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_round_trips() {
        let _guard = test_toggle_lock();
        set_force_scalar(true);
        assert!(force_scalar());
        assert_eq!(active_isa(), Isa::Scalar);
        set_force_scalar(false);
        assert!(!force_scalar());
        assert_eq!(active_isa(), detected_isa());
    }

    #[test]
    fn ordinals_and_names_are_stable() {
        for (isa, ord, name) in [
            (Isa::Scalar, 0, "scalar"),
            (Isa::Avx2, 1, "avx2"),
            (Isa::Avx512, 2, "avx512"),
            (Isa::Neon, 3, "neon"),
        ] {
            assert_eq!(isa.ordinal(), ord);
            assert_eq!(isa.name(), name);
        }
    }

    /// `len` values drawn from a seeded stream, every fourth one a
    /// special: ±0, ±∞, NaN, magnitudes past the activations' ±9 clamp,
    /// subnormals and the extremes of `f32`.
    fn gate_inputs(len: usize, seed: u64) -> Vec<f32> {
        use crate::rng::{Rng, SeedableRng, StdRng};
        const SPECIAL: [f32; 12] = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            9.5,
            -23.0,
            1e-40,
            -1e-42,
            f32::MIN_POSITIVE,
            f32::MAX,
            -f32::MAX,
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|i| match i % 4 {
                0 => SPECIAL[rng.gen_range(0..SPECIAL.len() as u64) as usize],
                _ => rng.gen_range(-4.0f32..4.0),
            })
            .collect()
    }

    /// Equal bits, or NaN on both sides: Rust leaves the sign and
    /// payload of a NaN result unspecified, so only NaN-ness is pinned.
    fn assert_same_bits(got: &[f32], want: &[f32], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: length");
        for (j, (x, y)) in got.iter().zip(want).enumerate() {
            let same = x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
            assert!(
                same,
                "{ctx} at {j}: {x:e} ({:#x}) != {y:e} ({:#x})",
                x.to_bits(),
                y.to_bits()
            );
        }
    }

    #[test]
    fn gate_loop_copies_are_bitwise_identical() {
        let _guard = test_toggle_lock();
        let batch = 3;
        for hidden in [1usize, 15, 17, 48] {
            let cells = batch * hidden;
            let ctx = format!("hidden {hidden} ({})", detected_isa().name());
            let run_cell = |force: bool| {
                set_force_scalar(force);
                let mut gates = gate_inputs(4 * cells, hidden as u64);
                let mut c = gate_inputs(cells, 100 + hidden as u64);
                let mut h = vec![0.0f32; cells];
                crate::infer::lstm_cell(&mut gates, &mut c, &mut h, hidden);
                set_force_scalar(false);
                [gates, c, h]
            };
            for (got, want) in run_cell(false).iter().zip(&run_cell(true)) {
                assert_same_bits(got, want, &format!("lstm_cell {ctx}"));
            }
            let run_bptt = |force: bool| {
                set_force_scalar(force);
                let gates = gate_inputs(4 * cells, 200 + hidden as u64);
                let c = gate_inputs(cells, 300 + hidden as u64);
                let c_prev = gate_inputs(cells, 400 + hidden as u64);
                let dh = gate_inputs(cells, 500 + hidden as u64);
                let mut dc = gate_inputs(cells, 600 + hidden as u64);
                let mut dpre = vec![0.0f32; 4 * cells];
                lstm_bptt_step(&gates, &c, &c_prev, &dh, &mut dc, &mut dpre, hidden);
                set_force_scalar(false);
                [dc, dpre]
            };
            for (got, want) in run_bptt(false).iter().zip(&run_bptt(true)) {
                assert_same_bits(got, want, &format!("BPTT step {ctx}"));
            }
        }
    }

    #[test]
    fn portable_tile_copies_are_bitwise_identical() {
        // The plain copy runs only on hosts without FMA, so compare it
        // here with the copy the dispatch picks on this host, over
        // every tail class of the 8 × 8 tile: full tiles, short row
        // blocks, narrow panels, both, and depth 1.
        for (t, &(rows, n, k)) in [
            (8usize, 8usize, 1usize),
            (8, 8, 13),
            (5, 8, 5),
            (8, 5, 7),
            (1, 1, 1),
            (2, 7, 1),
            (7, 13, 9),
            (17, 17, 3),
        ]
        .iter()
        .enumerate()
        {
            let seed = 700 + 10 * t as u64;
            let sa = gate_inputs(rows.div_ceil(8) * k * 8, seed);
            let sb = gate_inputs(n.div_ceil(8) * k * 8, seed + 1);
            for acc in [false, true] {
                let base = gate_inputs(rows * n, seed + 2);
                let (mut plain, mut picked) = (base.clone(), base);
                sweep_packed_body(Isa::Scalar, &sa, &sb, k, n, rows, &mut plain, acc);
                sweep_packed(Isa::Scalar, &sa, &sb, k, n, rows, &mut picked, acc);
                let ctx = format!("{rows}x{n} k={k} acc={acc} fma={}", fma_available());
                assert_same_bits(&picked, &plain, &ctx);
            }
        }
    }

    #[test]
    fn tile_dims_are_positive() {
        for isa in [Isa::Scalar, Isa::Avx2, Isa::Avx512, Isa::Neon] {
            let (mr, nr) = isa.tile_dims();
            assert!(mr > 0 && nr > 0);
        }
    }
}
