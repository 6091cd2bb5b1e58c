//! Tape-free inference support: a preallocated buffer arena, the
//! shared forward-math helpers, and per-row activation quantization.
//!
//! The autograd [`Tape`](crate::Tape) records every op's output tensor
//! so gradients can flow backwards — bookkeeping a serving path never
//! needs. This module supplies the pieces of a tape-free engine:
//!
//! * [`Arena`] — a per-model pool of [`Tensor2`] buffers addressed by
//!   [`BufId`]. Buffers are resized in place and reuse their
//!   allocation, so a steady-state forward pass (same batch shape as
//!   the last call) performs **zero heap allocation**. Growth events
//!   and bytes are counted, per arena and globally, so tests and
//!   metrics can assert the steady state.
//! * [`sigmoid`], [`tanh`], [`softmax_rows_inplace`],
//!   [`add_row_inplace`], [`lstm_cell`] and [`lstm_seq_forward`] — the
//!   exact forward math the tape ops use (the tape calls these same
//!   functions), which is what makes the fast f32 path bitwise
//!   identical to the tape forward.
//! * [`QuantizedRows`] / [`quantize_rows_into`] — per-row symmetric
//!   int8 activation quantization feeding the
//!   [`gemm_i8_dequant`](crate::kernels::gemm_i8_dequant) kernel.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::Tensor2;

// Always-on (non-feature-gated) counters: the runtime's zero-alloc
// serving test asserts on them without enabling the `obs` feature.
// Plain relaxed atomics bumped only on (rare) growth events.
static ARENA_GROW_EVENTS: AtomicU64 = AtomicU64::new(0);
static ARENA_GROWN_BYTES: AtomicU64 = AtomicU64::new(0);
static FAST_PATH_CALLS: AtomicU64 = AtomicU64::new(0);

/// Total arena buffer growth events across all arenas in the process
/// (a buffer needed a larger allocation). Flat in steady state.
pub fn arena_grow_events() -> u64 {
    ARENA_GROW_EVENTS.load(Ordering::Relaxed)
}

/// Cumulative bytes newly allocated by arena buffer growth across all
/// arenas in the process.
pub fn arena_grown_bytes() -> u64 {
    ARENA_GROWN_BYTES.load(Ordering::Relaxed)
}

/// Total tape-free fast-path inference calls recorded via
/// [`note_fast_path_call`].
pub fn fast_path_calls() -> u64 {
    FAST_PATH_CALLS.load(Ordering::Relaxed)
}

/// Tallies one fast-path inference call (called by the model's
/// `predict_fast` / `predict_int8` entry points).
pub fn note_fast_path_call() {
    FAST_PATH_CALLS.fetch_add(1, Ordering::Relaxed);
}

/// Handle to one buffer slot inside an [`Arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufId(usize);

/// A pool of reusable [`Tensor2`] buffers for tape-free inference.
///
/// Register one slot per intermediate of the forward graph, then per
/// call [`Arena::take`] a buffer, shape it with [`Arena::shape`] (or
/// do both with [`Arena::acquire`]), compute into it, and
/// [`Arena::put`] it back. `take`/`put` are `mem::take`-based moves,
/// so holding one buffer mutably while reading others through
/// [`Arena::get`] needs no split borrows and costs no allocation.
///
/// Shaping zeroes the buffer (like a fresh `Tensor2::zeros`) and only
/// allocates when the required element count exceeds anything the slot
/// has held before; with stable batch shapes every call after the
/// first is allocation-free.
#[derive(Debug, Default)]
pub struct Arena {
    bufs: Vec<Tensor2>,
    grow_events: u64,
    grown_bytes: u64,
}

impl Arena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena::default()
    }

    /// Registers a new (empty) buffer slot.
    pub fn register(&mut self) -> BufId {
        self.bufs.push(Tensor2::zeros(0, 0));
        BufId(self.bufs.len() - 1)
    }

    /// Borrows the buffer in slot `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this arena.
    pub fn get(&self, id: BufId) -> &Tensor2 {
        &self.bufs[id.0]
    }

    /// Moves the buffer out of slot `id`, leaving an empty tensor.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this arena.
    pub fn take(&mut self, id: BufId) -> Tensor2 {
        std::mem::take(&mut self.bufs[id.0])
    }

    /// Returns a buffer to slot `id` (usually after [`Arena::take`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this arena.
    pub fn put(&mut self, id: BufId, t: Tensor2) {
        self.bufs[id.0] = t;
    }

    /// Takes the buffer in `id` and shapes it to `[rows, cols]`,
    /// zero-filled, recording any growth. The caller computes into it
    /// and hands it back with [`Arena::put`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this arena.
    pub fn acquire(&mut self, id: BufId, rows: usize, cols: usize) -> Tensor2 {
        let mut t = self.take(id);
        self.shape_tensor(&mut t, rows, cols);
        t
    }

    /// Shapes `t` to `[rows, cols]` (zero-filled, reusing its
    /// allocation) and records growth against this arena's counters.
    fn shape_tensor(&mut self, t: &mut Tensor2, rows: usize, cols: usize) {
        let before = t.capacity();
        t.resize(rows, cols);
        let after = t.capacity();
        if after > before {
            let bytes = ((after - before) * std::mem::size_of::<f32>()) as u64;
            self.grow_events += 1;
            self.grown_bytes += bytes;
            ARENA_GROW_EVENTS.fetch_add(1, Ordering::Relaxed);
            ARENA_GROWN_BYTES.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Buffer growth events since this arena was created.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    /// Bytes newly allocated by this arena's buffer growth.
    pub fn grown_bytes(&self) -> u64 {
        self.grown_bytes
    }
}

/// Numerator coefficients of the odd rational approximation
/// `tanh(x) ≈ x·P(x²) / Q(x²)` on `[-9, 9]`, lowest degree first.
///
/// Fitted by weighted linear least squares against a 30-digit
/// reference and iterated towards minimax (Lawson reweighting); the
/// fit itself is within 1.9e-8 of `tanh`, and f32 evaluation keeps the
/// total error under 3.6e-7 over every finite `f32`.
const TANH_P: [f32; 5] = [
    0.9999999,
    0.1337321,
    0.0034865935,
    2.0471925e-5,
    1.3184187e-8,
];
/// Denominator coefficients of the `tanh` approximation (`Q(0) = 1`).
const TANH_Q: [f32; 5] = [1.0, 0.46706507, 0.02584203, 0.00032714, 7.7026834e-7];
/// Beyond `±9`, `tanh` is within 3.1e-8 of `±1`, so clamping the input
/// there loses nothing an `f32` result can hold.
const TANH_CLAMP: f32 = 9.0;

/// Hyperbolic tangent used by every `tanh` in the workspace (the tape's
/// `tanh` op, the LSTM cell update, the tape-free engine).
///
/// Branch-free and libm-free: an input clamp, two degree-4 polynomials
/// in `x²`, one divide and an output clamp, written with plain
/// arithmetic so loops over it auto-vectorize. (`f32::mul_add` would be
/// a libm call on the baseline x86-64 target.) Within 3.6e-7 of the
/// exact `tanh` everywhere; odd, bounded to `[-1, 1]`, exactly `±1` at
/// `±∞`, and NaN in, NaN out (`clamp` keeps NaN, unlike `min`/`max`).
#[inline]
pub fn tanh(x: f32) -> f32 {
    let x = x.clamp(-TANH_CLAMP, TANH_CLAMP);
    let y = x * x;
    let p = (((TANH_P[4] * y + TANH_P[3]) * y + TANH_P[2]) * y + TANH_P[1]) * y + TANH_P[0];
    let q = (((TANH_Q[4] * y + TANH_Q[3]) * y + TANH_Q[2]) * y + TANH_Q[1]) * y + TANH_Q[0];
    (x * p / q).clamp(-1.0, 1.0)
}

/// The logistic sigmoid used by every sigmoid in the workspace, as
/// `σ(x) = ½·tanh(x/2) + ½` over [`tanh`]: branch-free, libm-free and
/// within 1.9e-7 of the exact value. It saturates to exactly `0` and
/// `1` (so padding logits of `-1e30` contribute nothing) and stays in
/// `[0, 1]`.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    0.5 * tanh(0.5 * x) + 0.5
}

/// One LSTM cell update over a batch, in place.
///
/// `gates` holds `[batch, 4·hidden]` pre-activations in `i, f, g, o`
/// order and is left holding the activated gates; `c` holds the
/// `[batch, hidden]` previous cell state and is left holding the new
/// one; `h` receives the new hidden state. Per element, in the tape's
/// op order: `c' = (σ(f)·c) + (σ(i)·tanh(g))`, `h' = σ(o)·tanh(c')`.
///
/// Gates are activated one block at a time, so each loop runs a single
/// nonlinearity over contiguous memory and vectorizes; on AVX-512
/// hosts a copy compiled for that width runs, with the same bits (see
/// [`crate::simd`]). The tape's `lstm_seq` op, `predict_fast` and
/// `predict_int8` all update their cells here.
///
/// # Panics
///
/// Panics if the buffer lengths disagree with `hidden`.
pub fn lstm_cell(gates: &mut [f32], c: &mut [f32], h: &mut [f32], hidden: usize) {
    assert!(
        hidden > 0
            && gates.len() == 4 * c.len()
            && c.len() == h.len()
            && c.len().is_multiple_of(hidden),
        "lstm_cell: {} gates, {} cells, {} outputs for hidden {hidden}",
        gates.len(),
        c.len(),
        h.len()
    );
    crate::simd::lstm_cell(gates, c, h, hidden);
}

/// [`lstm_cell`]'s loops, shared by the plain and `avx512f` copies
/// that [`crate::simd::lstm_cell`] picks from.
#[inline(always)]
pub(crate) fn lstm_cell_body(gates: &mut [f32], c: &mut [f32], h: &mut [f32], hidden: usize) {
    let rows = gates
        .chunks_exact_mut(4 * hidden)
        .zip(c.chunks_exact_mut(hidden).zip(h.chunks_exact_mut(hidden)));
    for (g, (c, h)) in rows {
        let (sig_if, rest) = g.split_at_mut(2 * hidden);
        let (g_gate, o_gate) = rest.split_at_mut(hidden);
        for v in sig_if.iter_mut() {
            *v = sigmoid(*v);
        }
        for v in g_gate.iter_mut() {
            *v = tanh(*v);
        }
        for v in o_gate.iter_mut() {
            *v = sigmoid(*v);
        }
        let (i_gate, f_gate) = sig_if.split_at(hidden);
        let (i_gate, f_gate, g_gate, o_gate) = (
            &i_gate[..hidden],
            &f_gate[..hidden],
            &g_gate[..hidden],
            &o_gate[..hidden],
        );
        let (c, h) = (&mut c[..hidden], &mut h[..hidden]);
        for j in 0..hidden {
            let fc = f_gate[j] * c[j];
            let ig = i_gate[j] * g_gate[j];
            c[j] = fc + ig;
            h[j] = o_gate[j] * tanh(c[j]);
        }
    }
}

/// Runs an LSTM over a time-major sequence from the zero state.
///
/// `x` is `[steps·batch, input]` with step `t` in rows
/// `t·batch .. (t+1)·batch`; `wx` is `[input, 4·hidden]`, `wh`
/// `[hidden, 4·hidden]` and `bias` has `4·hidden` entries. The caller
/// shapes the outputs: `gates` (`[steps·batch, 4·hidden]`) is left
/// holding every step's activated gates, `cells` and `hs`
/// (`[steps·batch, hidden]`) every step's cell and hidden states, so
/// the final hidden state is the last `batch` rows of `hs`. Their
/// previous contents are ignored.
///
/// The input projection of all steps is one GEMM. Each step then
/// accumulates `h_{t-1}·wh` onto its rows and adds the bias, which is
/// bitwise the per-step `x_t·wx + h_{t-1}·wh + bias`: every GEMM output
/// element is one fma chain over its own row, whatever the row count.
/// Step 0 skips the recurrent product, whose `h_{-1}` is zero.
///
/// # Panics
///
/// Panics if the shapes are inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn lstm_seq_forward(
    x: &Tensor2,
    wx: &Tensor2,
    wh: &Tensor2,
    bias: &[f32],
    steps: usize,
    gates: &mut Tensor2,
    cells: &mut Tensor2,
    hs: &mut Tensor2,
) {
    let rows = x.rows();
    let (hidden, g4) = wh.shape();
    assert!(
        steps > 0 && rows.is_multiple_of(steps),
        "lstm_seq: {rows} rows do not split into {steps} steps"
    );
    assert_eq!(
        (gates.shape(), cells.shape(), hs.shape(), bias.len()),
        ((rows, g4), (rows, hidden), (rows, hidden), g4),
        "lstm_seq: output buffers do not match {rows} rows of {hidden} units"
    );
    let batch = rows / steps;
    crate::kernels::gemm(x, wx, crate::kernels::Layout::NN, gates);
    let (gates, cells, hs) = (
        gates.as_mut_slice(),
        cells.as_mut_slice(),
        hs.as_mut_slice(),
    );
    cells[..batch * hidden].fill(0.0);
    for t in 0..steps {
        let (g0, s0) = (t * batch * g4, t * batch * hidden);
        let (g1, s1) = (g0 + batch * g4, s0 + batch * hidden);
        let step_gates = &mut gates[g0..g1];
        if t > 0 {
            crate::kernels::gemm_rows_against(
                &hs[s0 - batch * hidden..s0],
                batch,
                wh,
                crate::kernels::Layout::NN,
                step_gates,
                true,
            );
        }
        add_bias_rows(step_gates, bias);
        if t > 0 {
            cells.copy_within(s0 - batch * hidden..s0, s0);
        }
        lstm_cell(step_gates, &mut cells[s0..s1], &mut hs[s0..s1], hidden);
    }
}

/// Row-wise softmax, in place, with the exact accumulation order of
/// the tape's `softmax_rows` op (per-row max, `exp(v - max)` summed in
/// column order, then one divide per element).
pub fn softmax_rows_inplace(t: &mut Tensor2) {
    let (m, _) = t.shape();
    for i in 0..m {
        let row = t.row_mut(i);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for o in row.iter_mut() {
            *o = (*o - max).exp();
            sum += *o;
        }
        for o in row.iter_mut() {
            *o /= sum;
        }
    }
}

/// Adds a `[1, n]` bias row to every row of `t`, with the exact loop
/// of the tape's `add_row` / `lstm_seq` bias add.
///
/// # Panics
///
/// Panics if `bias.len() != t.cols()`.
pub fn add_row_inplace(t: &mut Tensor2, bias: &[f32]) {
    let n = t.cols();
    assert_eq!(bias.len(), n, "bias must have {n} columns");
    add_bias_rows(t.as_mut_slice(), bias);
}

/// Adds `bias` to every `bias.len()`-wide row of the row-major `rows`.
fn add_bias_rows(rows: &mut [f32], bias: &[f32]) {
    if bias.is_empty() {
        return;
    }
    for row in rows.chunks_exact_mut(bias.len()) {
        for (v, &bv) in row.iter_mut().zip(bias) {
            *v += bv;
        }
    }
}

/// Per-row symmetric int8 quantization of an activation matrix:
/// `row ≈ scale_i * q_row` with `scale_i = max|row| / 127` and no zero
/// point. `sums[i]` carries `Σ_p q[i][p]`, the term an int8 GEMM needs
/// to correct for the *weight* tensor's zero point.
#[derive(Debug, Default)]
pub struct QuantizedRows {
    /// Quantized values, row-major `[rows, cols]`.
    pub data: Vec<i8>,
    /// Per-row dequantization scales.
    pub scales: Vec<f32>,
    /// Per-row sums of quantized values.
    pub sums: Vec<i32>,
    rows: usize,
    cols: usize,
}

impl QuantizedRows {
    /// Creates an empty buffer; fill it with [`quantize_rows_into`].
    pub fn new() -> Self {
        QuantizedRows::default()
    }

    /// Shape `(rows, cols)` of the quantized matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// One quantized row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> &[i8] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }
}

/// Quantizes `src` into `q` per row (symmetric, scale `max|v| / 127`).
/// Reuses `q`'s buffers; steady-state calls with stable shapes do not
/// allocate. All-zero rows get scale `0.0` and all-zero codes, which
/// dequantize exactly to zero.
pub fn quantize_rows_into(src: &Tensor2, q: &mut QuantizedRows) {
    let (m, n) = src.shape();
    q.rows = m;
    q.cols = n;
    q.data.clear();
    q.data.resize(m * n, 0);
    q.scales.clear();
    q.scales.resize(m, 0.0);
    q.sums.clear();
    q.sums.resize(m, 0);
    for i in 0..m {
        let row = src.row(i);
        let amax = row.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let dst = &mut q.data[i * n..(i + 1) * n];
        if amax == 0.0 || !amax.is_finite() {
            // Degenerate row: all-zero codes, scale 0 -> exact zeros.
            for d in dst.iter_mut() {
                *d = 0;
            }
            q.scales[i] = 0.0;
            q.sums[i] = 0;
            continue;
        }
        let inv = 127.0 / amax;
        let mut sum = 0i32;
        for (d, &v) in dst.iter_mut().zip(row) {
            let code = (v * inv).round().clamp(-127.0, 127.0) as i32;
            sum += code;
            *d = code as i8;
        }
        q.scales[i] = amax / 127.0;
        q.sums[i] = sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{SeedableRng, StdRng};

    #[test]
    fn arena_reuses_buffers_without_regrowth() {
        let mut arena = Arena::new();
        let a = arena.register();
        let b = arena.register();
        let mut t = arena.acquire(a, 4, 8);
        t.set(0, 0, 1.0);
        arena.put(a, t);
        let grows_after_first = arena.grow_events();
        assert!(grows_after_first >= 1);
        for _ in 0..10 {
            let t = arena.acquire(a, 4, 8);
            // Zero-filled on acquire, previous contents gone.
            assert!(t.as_slice().iter().all(|&v| v == 0.0));
            arena.put(a, t);
            let u = arena.acquire(b, 2, 2);
            arena.put(b, u);
        }
        // Same shapes: no further growth on either slot.
        assert_eq!(arena.grow_events(), grows_after_first + 1); // +1: b's first acquire
                                                                // Shrinking doesn't grow either.
        let t = arena.acquire(a, 2, 3);
        assert_eq!(t.shape(), (2, 3));
        arena.put(a, t);
        assert_eq!(arena.grow_events(), grows_after_first + 1);
        // Growing past capacity is counted, with bytes.
        let bytes_before = arena.grown_bytes();
        let t = arena.acquire(a, 64, 64);
        arena.put(a, t);
        assert_eq!(arena.grow_events(), grows_after_first + 2);
        assert!(arena.grown_bytes() > bytes_before);
    }

    #[test]
    fn global_counters_track_arena_growth() {
        let g0 = arena_grow_events();
        let b0 = arena_grown_bytes();
        let mut arena = Arena::new();
        let id = arena.register();
        let t = arena.acquire(id, 16, 16);
        arena.put(id, t);
        assert!(arena_grow_events() > g0);
        assert!(arena_grown_bytes() > b0);
        let g1 = arena_grow_events();
        let t = arena.acquire(id, 16, 16);
        arena.put(id, t);
        assert_eq!(arena_grow_events(), g1);
    }

    #[test]
    fn fast_path_call_counter_increments() {
        let c0 = fast_path_calls();
        note_fast_path_call();
        assert!(fast_path_calls() > c0);
    }

    /// Every finite `f32` at a stride of 2⁸ bit patterns (both signs),
    /// with the exact value from f64 arithmetic.
    fn strided_finite_sweep() -> impl Iterator<Item = f32> {
        (0..0x7f80_0000u32)
            .step_by(1 << 8)
            .flat_map(|bits| [f32::from_bits(bits), -f32::from_bits(bits)])
    }

    #[test]
    fn tanh_is_accurate_odd_and_bounded() {
        let mut worst = 0.0f64;
        for x in strided_finite_sweep() {
            let t = tanh(x);
            worst = worst.max((t as f64 - (x as f64).tanh()).abs());
            assert_eq!(tanh(-x).to_bits(), (-t).to_bits(), "odd at {x}");
            assert!((-1.0..=1.0).contains(&t), "tanh({x}) = {t}");
        }
        assert!(worst <= 5e-7, "tanh max error {worst}");
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh(f32::MAX), 1.0);
        assert!(tanh(f32::NAN).is_nan());
        assert_eq!(tanh(0.0), 0.0);
    }

    #[test]
    fn sigmoid_is_accurate_and_saturates() {
        let mut worst = 0.0f64;
        for x in strided_finite_sweep() {
            let s = sigmoid(x);
            worst = worst.max((s as f64 - 1.0 / (1.0 + (-(x as f64)).exp())).abs());
            assert!((0.0..=1.0).contains(&s), "sigmoid({x}) = {s}");
        }
        assert!(worst <= 2.5e-7, "sigmoid max error {worst}");
        assert_eq!(sigmoid(f32::INFINITY), 1.0);
        assert_eq!(sigmoid(f32::NEG_INFINITY), 0.0);
        // Padding logits (-1e30) contribute exactly nothing.
        assert_eq!(sigmoid(-1e30), 0.0);
        assert_eq!(sigmoid(0.0), 0.5);
        assert!(sigmoid(f32::NAN).is_nan());
    }

    #[test]
    fn lstm_cell_matches_scalar_formula() {
        let mut rng = StdRng::seed_from_u64(9);
        let (batch, hidden) = (3, 5);
        let pre = Tensor2::uniform(batch, 4 * hidden, 2.0, &mut rng);
        let c0 = Tensor2::uniform(batch, hidden, 1.0, &mut rng);
        let mut gates = pre.as_slice().to_vec();
        let mut c = c0.as_slice().to_vec();
        let mut h = vec![0.0; batch * hidden];
        lstm_cell(&mut gates, &mut c, &mut h, hidden);
        for r in 0..batch {
            let p = pre.row(r);
            for j in 0..hidden {
                let (i, f) = (sigmoid(p[j]), sigmoid(p[hidden + j]));
                let (g, o) = (tanh(p[2 * hidden + j]), sigmoid(p[3 * hidden + j]));
                let cj = f * c0.get(r, j) + i * g;
                assert_eq!(c[r * hidden + j].to_bits(), cj.to_bits());
                assert_eq!(h[r * hidden + j].to_bits(), (o * tanh(cj)).to_bits());
                assert_eq!(
                    gates[r * 4 * hidden + 2 * hidden + j].to_bits(),
                    g.to_bits()
                );
            }
        }
    }

    #[test]
    fn softmax_inplace_matches_reference() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = Tensor2::uniform(3, 7, 2.0, &mut rng);
        // Reference: the tape op's out-of-place formula.
        let (m, n) = t.shape();
        let mut reference = Tensor2::zeros(m, n);
        for i in 0..m {
            let row = t.row(i);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for (o, &v) in reference.row_mut(i).iter_mut().zip(row) {
                *o = (v - max).exp();
                sum += *o;
            }
            for o in reference.row_mut(i) {
                *o /= sum;
            }
        }
        let mut x = t.clone();
        softmax_rows_inplace(&mut x);
        for (a, b) in x.as_slice().iter().zip(reference.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn quantize_rows_roundtrip_and_sums() {
        let t = Tensor2::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 0.0, 0.0]]);
        let mut q = QuantizedRows::new();
        quantize_rows_into(&t, &mut q);
        assert_eq!(q.shape(), (2, 3));
        // Row 0: scale 2/127, codes round(v * 127/2).
        assert_eq!(q.row(0), &[64, -127, 32]);
        assert_eq!(q.sums[0], 64 - 127 + 32);
        for (&code, &v) in q.row(0).iter().zip(t.row(0)) {
            assert!((code as f32 * q.scales[0] - v).abs() <= q.scales[0]);
        }
        // All-zero row: exact.
        assert_eq!(q.row(1), &[0, 0, 0]);
        assert_eq!(q.scales[1], 0.0);
        assert_eq!(q.sums[1], 0);
    }

    #[test]
    fn quantize_rows_reuse_does_not_reallocate() {
        let mut rng = StdRng::seed_from_u64(17);
        let t = Tensor2::uniform(8, 32, 1.0, &mut rng);
        let mut q = QuantizedRows::new();
        quantize_rows_into(&t, &mut q);
        let caps = (q.data.capacity(), q.scales.capacity(), q.sums.capacity());
        for _ in 0..20 {
            quantize_rows_into(&t, &mut q);
            assert_eq!(
                (q.data.capacity(), q.scales.capacity(), q.sums.capacity()),
                caps
            );
        }
    }
}
