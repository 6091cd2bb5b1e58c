//! Int8 inference layers: a real quantized compute path.
//!
//! [`compress`](crate::compress) *simulates* int8 deployment
//! (quantize → dequantize → f32 GEMM); this module *computes* in int8.
//! Weights are quantized once up front with the existing per-tensor
//! affine [`QuantizedTensor`] scheme and kept as `i8` codes;
//! activations are quantized per row on the fly
//! ([`voyager_tensor::infer::quantize_rows_into`], symmetric, no zero
//! point); the matmul itself is the one int8 kernel,
//! [`gemm_i8_dequant`](voyager_tensor::kernels::gemm_i8_dequant),
//! which accumulates `i8×i8→i32` and dequantizes in the same pass.
//!
//! Dequantization folds the weight zero point out of the integer
//! accumulator using the cached per-row activation sums: with
//! activations `x[i][p] ≈ sa_i·qx[i][p]` and weights
//! `w[p][j] ≈ sw·(qw[p][j] − zw)`,
//!
//! ```text
//! out[i][j] ≈ sa_i · sw · (acc[i][j] − zw · Σ_p qx[i][p])
//! ```
//!
//! and the whole thing — integer GEMM plus scale-and-correct
//! epilogue — is one kernel call. On SIMD tiers the i32 accumulators
//! never leave registers, and the scalar tier keeps one `n`-length
//! i32 strip, so no `m × n` i32 scratch buffer exists. Output buffers
//! are caller-provided and reused across calls; the steady state
//! performs no heap allocation.

use voyager_tensor::infer::{add_row_inplace, QuantizedRows};
use voyager_tensor::kernels::gemm_i8_dequant;
use voyager_tensor::Tensor2;

use crate::compress::QuantizedTensor;

/// An int8 weight matrix prepared for [`gemm_i8_dequant`] matmuls.
///
/// Keeps the codes in the `[in, out]` row-major orientation
/// [`QuantizedTensor`] produces, which is exactly the NN layout the
/// kernel consumes — no transpose at quantization or inference time.
#[derive(Debug, Clone)]
pub struct QuantizedMatmul {
    w: QuantizedTensor,
}

impl QuantizedMatmul {
    /// Quantizes an `[in, out]` f32 weight matrix.
    pub fn from_tensor(w: &Tensor2) -> Self {
        QuantizedMatmul {
            w: QuantizedTensor::quantize(w),
        }
    }

    /// `(in, out)` shape of the underlying weight matrix.
    pub fn shape(&self) -> (usize, usize) {
        self.w.shape()
    }

    /// Int8 storage size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.w.size_bytes()
    }

    /// Computes `out = x · w` (or `out += x · w` when `accumulate`)
    /// from pre-quantized activation rows; `out` must already be
    /// shaped `[rows, out]`. The integer GEMM and the per-row
    /// dequantization epilogue run as one fused kernel call.
    ///
    /// # Panics
    ///
    /// Panics if `x`'s columns disagree with the weight input
    /// dimension or `out` has the wrong shape.
    pub fn forward_into(&self, x: &QuantizedRows, out: &mut Tensor2, accumulate: bool) {
        let (m, k) = x.shape();
        let (wk, n) = self.w.shape();
        assert_eq!(k, wk, "quantized matmul reduction mismatch: {k} vs {wk}");
        assert_eq!(out.shape(), (m, n), "quantized matmul output shape");
        gemm_i8_dequant(
            &x.data,
            self.w.data(),
            m,
            n,
            k,
            &x.scales,
            &x.sums,
            self.w.scale(),
            self.w.zero_point(),
            out.as_mut_slice(),
            accumulate,
        );
    }

    /// Computes one output row `out = x[row] · w` from pre-quantized
    /// activation rows — the `m = 1` GEMM the hierarchical head uses to
    /// score a single shortlisted cluster's branch block.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range, the reduction dims disagree, or
    /// `out` is not `[n]`-shaped.
    pub fn forward_row_into(&self, x: &QuantizedRows, row: usize, out: &mut [f32]) {
        let (m, k) = x.shape();
        let (wk, n) = self.w.shape();
        assert!(row < m, "row {row} out of {m}");
        assert_eq!(k, wk, "quantized matmul reduction mismatch: {k} vs {wk}");
        assert_eq!(out.len(), n, "quantized matmul output width");
        gemm_i8_dequant(
            x.row(row),
            self.w.data(),
            1,
            n,
            k,
            &x.scales[row..row + 1],
            &x.sums[row..row + 1],
            self.w.scale(),
            self.w.zero_point(),
            out,
            false,
        );
    }
}

/// An int8 linear layer: quantized weights plus an f32 bias row.
#[derive(Debug, Clone)]
pub struct QuantizedLinear {
    w: QuantizedMatmul,
    bias: Vec<f32>,
}

impl QuantizedLinear {
    /// Quantizes an `[in, out]` weight matrix and captures the
    /// `[1, out]` bias (kept in f32 — it is added after
    /// dequantization, as is standard for int8 inference).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `[1, out]`.
    pub fn new(w: &Tensor2, bias: &Tensor2) -> Self {
        assert_eq!(bias.shape(), (1, w.cols()), "bias shape mismatch");
        QuantizedLinear {
            w: QuantizedMatmul::from_tensor(w),
            bias: bias.as_slice().to_vec(),
        }
    }

    /// `(in, out)` shape of the weight matrix.
    pub fn shape(&self) -> (usize, usize) {
        self.w.shape()
    }

    /// Computes `out = x · w + bias` into the caller-shaped `out`.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch (see
    /// [`QuantizedMatmul::forward_into`]).
    pub fn forward_into(&self, x: &QuantizedRows, out: &mut Tensor2) {
        self.w.forward_into(x, out, false);
        add_row_inplace(out, &self.bias);
    }
}

/// An int8 LSTM cell for inference: both fused gate matrices
/// quantized, bias in f32, gate nonlinearities applied by the caller
/// (they stay in f32, where the tape-free engine shares the exact
/// formulas with the tape).
#[derive(Debug, Clone)]
pub struct QuantizedLstm {
    wx: QuantizedMatmul,
    wh: QuantizedMatmul,
    bias: Vec<f32>,
    hidden: usize,
}

impl QuantizedLstm {
    /// Quantizes an LSTM cell's fused `[input, 4*hidden]` /
    /// `[hidden, 4*hidden]` weights and captures its `[1, 4*hidden]`
    /// bias.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent with `hidden`.
    pub fn new(wx: &Tensor2, wh: &Tensor2, bias: &Tensor2, hidden: usize) -> Self {
        assert_eq!(wx.cols(), 4 * hidden, "wx gate width mismatch");
        assert_eq!(wh.shape(), (hidden, 4 * hidden), "wh shape mismatch");
        assert_eq!(bias.shape(), (1, 4 * hidden), "bias shape mismatch");
        QuantizedLstm {
            wx: QuantizedMatmul::from_tensor(wx),
            wh: QuantizedMatmul::from_tensor(wh),
            bias: bias.as_slice().to_vec(),
            hidden,
        }
    }

    /// Number of hidden units.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Writes the input projections `qx · wx` of every row of `qx` into
    /// the caller-shaped `[rows, 4*hidden]` buffer — for a time-major
    /// window, every timestep's at once.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn input_into(&self, qx: &QuantizedRows, gates: &mut Tensor2) {
        self.wx.forward_into(qx, gates, false);
    }

    /// Completes one timestep's gate pre-activations: `gates` holds the
    /// step's input projections (from [`QuantizedLstm::input_into`]) and
    /// receives `+ qh · wh + bias`.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn step_into(&self, qh: &QuantizedRows, gates: &mut Tensor2) {
        self.wh.forward_into(qh, gates, true);
        add_row_inplace(gates, &self.bias);
    }
}

/// An int8 two-level hierarchical page head: a quantized cluster
/// linear layer plus per-cluster branch blocks.
///
/// Each cluster's `[branch, hidden]` slice of the leaf table is stored
/// *transposed* (`[hidden, branch]`, quantized independently) so
/// scoring a shortlisted cluster for one activation row is a single
/// `m = 1` NN-layout [`gemm_i8_dequant`] call — no transposition at
/// inference time, and per-cluster quantization scales keep the
/// dequantization error local to each block.
#[derive(Debug, Clone)]
pub struct QuantizedHierHead {
    cluster: QuantizedLinear,
    blocks: Vec<QuantizedMatmul>,
    branch: usize,
    num_classes: usize,
}

impl QuantizedHierHead {
    /// Quantizes a hierarchical head: the `[hidden, clusters]` cluster
    /// weights + `[1, clusters]` bias and the leaf table. The leaf
    /// tensor may be shaped `[clusters, branch * hidden]` (the training
    /// layout) or `[clusters * branch, hidden]`; both describe the same
    /// flat memory and only its length is checked.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent.
    pub fn new(
        cluster_w: &Tensor2,
        cluster_b: &Tensor2,
        leaves: &Tensor2,
        clusters: usize,
        branch: usize,
        num_classes: usize,
    ) -> Self {
        let hidden = cluster_w.rows();
        assert_eq!(cluster_w.cols(), clusters, "cluster head width mismatch");
        assert_eq!(
            leaves.len(),
            clusters * branch * hidden,
            "leaf table size mismatch"
        );
        assert!(
            num_classes <= clusters * branch && num_classes > (clusters - 1) * branch,
            "grid {clusters}x{branch} inconsistent with {num_classes} classes"
        );
        let flat = leaves.as_slice();
        let mut blocks = Vec::with_capacity(clusters);
        let mut block = Tensor2::zeros(hidden, branch);
        for c in 0..clusters {
            for j in 0..branch {
                let leaf = &flat[(c * branch + j) * hidden..][..hidden];
                for (i, &v) in leaf.iter().enumerate() {
                    block.set(i, j, v);
                }
            }
            blocks.push(QuantizedMatmul::from_tensor(&block));
        }
        QuantizedHierHead {
            cluster: QuantizedLinear::new(cluster_w, cluster_b),
            blocks,
            branch,
            num_classes,
        }
    }

    /// Number of clusters.
    pub fn clusters(&self) -> usize {
        self.blocks.len()
    }

    /// Branch factor (classes per cluster).
    pub fn branch(&self) -> usize {
        self.branch
    }

    /// Number of real classes (the grid tail beyond this is padding).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Int8 storage of all quantized weights, in bytes.
    pub fn size_bytes(&self) -> usize {
        self.cluster.shape().0 * self.cluster.shape().1
            + self
                .blocks
                .iter()
                .map(QuantizedMatmul::size_bytes)
                .sum::<usize>()
    }

    /// Computes `[batch, clusters]` cluster logits into `out`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn cluster_logits_into(&self, x: &QuantizedRows, out: &mut Tensor2) {
        self.cluster.forward_into(x, out);
    }

    /// Computes the `branch` leaf logits of one `(activation row,
    /// cluster)` pair into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range or `out` is not
    /// `[branch]`-shaped.
    pub fn branch_logits_into(
        &self,
        x: &QuantizedRows,
        row: usize,
        cluster: usize,
        out: &mut [f32],
    ) {
        self.blocks[cluster].forward_row_into(x, row, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voyager_tensor::infer::quantize_rows_into;
    use voyager_tensor::rng::{SeedableRng, StdRng};

    fn assert_close(got: &Tensor2, want: &Tensor2, tol: f32) {
        assert_eq!(got.shape(), want.shape());
        let scale = want.as_slice().iter().fold(1.0f32, |a, &v| a.max(v.abs()));
        for (&g, &w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!(
                (g - w).abs() <= tol * scale,
                "{g} vs {w} (tol {tol} x {scale})"
            );
        }
    }

    #[test]
    fn quantized_matmul_tracks_f32_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        let x = Tensor2::uniform(5, 24, 1.5, &mut rng);
        let w = Tensor2::uniform(24, 12, 0.8, &mut rng);
        let qm = QuantizedMatmul::from_tensor(&w);
        let mut qx = QuantizedRows::new();
        quantize_rows_into(&x, &mut qx);
        let mut out = Tensor2::zeros(5, 12);
        qm.forward_into(&qx, &mut out, false);
        assert_close(&out, &x.matmul(&w), 0.03);
    }

    #[test]
    fn quantized_linear_adds_bias_and_reuses_buffers() {
        let mut rng = StdRng::seed_from_u64(22);
        let x = Tensor2::uniform(4, 16, 1.0, &mut rng);
        let w = Tensor2::uniform(16, 8, 0.5, &mut rng);
        let b = Tensor2::uniform(1, 8, 0.5, &mut rng);
        let ql = QuantizedLinear::new(&w, &b);
        let mut want = x.matmul(&w);
        add_row_inplace(&mut want, b.as_slice());

        let mut qx = QuantizedRows::new();
        let mut out = Tensor2::zeros(4, 8);
        quantize_rows_into(&x, &mut qx);
        ql.forward_into(&qx, &mut out);
        assert_close(&out, &want, 0.03);

        // Steady state: repeated calls never grow the output buffer
        // (the fused kernel needs no i32 scratch at all).
        let caps = out.capacity();
        for _ in 0..10 {
            quantize_rows_into(&x, &mut qx);
            ql.forward_into(&qx, &mut out);
            assert_eq!(out.capacity(), caps);
        }
    }

    #[test]
    fn quantized_lstm_gates_track_f32_reference() {
        let mut rng = StdRng::seed_from_u64(23);
        let hidden = 6;
        let x = Tensor2::uniform(3, 10, 1.0, &mut rng);
        let h = Tensor2::uniform(3, hidden, 1.0, &mut rng);
        let wx = Tensor2::uniform(10, 4 * hidden, 0.6, &mut rng);
        let wh = Tensor2::uniform(hidden, 4 * hidden, 0.6, &mut rng);
        let bias = Tensor2::uniform(1, 4 * hidden, 0.4, &mut rng);
        let qc = QuantizedLstm::new(&wx, &wh, &bias, hidden);
        assert_eq!(qc.hidden(), hidden);

        let mut want = x.matmul(&wx);
        let hw = h.matmul(&wh);
        want.add_scaled(&hw, 1.0);
        add_row_inplace(&mut want, bias.as_slice());

        let (mut qx, mut qh) = (QuantizedRows::new(), QuantizedRows::new());
        quantize_rows_into(&x, &mut qx);
        quantize_rows_into(&h, &mut qh);
        let mut gates = Tensor2::zeros(3, 4 * hidden);
        qc.input_into(&qx, &mut gates);
        qc.step_into(&qh, &mut gates);
        assert_close(&gates, &want, 0.05);
    }

    #[test]
    fn forward_row_matches_full_batch() {
        let mut rng = StdRng::seed_from_u64(24);
        let x = Tensor2::uniform(5, 12, 1.0, &mut rng);
        let w = Tensor2::uniform(12, 7, 0.6, &mut rng);
        let qm = QuantizedMatmul::from_tensor(&w);
        let mut qx = QuantizedRows::new();
        quantize_rows_into(&x, &mut qx);
        let mut full = Tensor2::zeros(5, 7);
        qm.forward_into(&qx, &mut full, false);
        let mut row_out = vec![0.0f32; 7];
        for r in 0..5 {
            qm.forward_row_into(&qx, r, &mut row_out);
            assert_eq!(&row_out[..], full.row(r), "row {r}");
        }
    }

    #[test]
    fn hier_head_blocks_track_f32_leaf_scores() {
        let mut rng = StdRng::seed_from_u64(25);
        let (hidden, clusters, branch, num_classes) = (10, 4, 3, 11);
        let cw = Tensor2::uniform(hidden, clusters, 0.7, &mut rng);
        let cb = Tensor2::uniform(1, clusters, 0.3, &mut rng);
        let leaves = Tensor2::uniform(clusters * branch, hidden, 0.7, &mut rng);
        let qh = QuantizedHierHead::new(&cw, &cb, &leaves, clusters, branch, num_classes);
        assert_eq!(qh.clusters(), clusters);
        assert_eq!(qh.branch(), branch);
        assert_eq!(qh.num_classes(), num_classes);
        assert!(qh.size_bytes() >= hidden * (clusters + clusters * branch));

        let x = Tensor2::uniform(3, hidden, 1.0, &mut rng);
        let mut qx = QuantizedRows::new();
        quantize_rows_into(&x, &mut qx);

        let mut cl = Tensor2::zeros(3, clusters);
        qh.cluster_logits_into(&qx, &mut cl);
        let mut want_cl = x.matmul(&cw);
        add_row_inplace(&mut want_cl, cb.as_slice());
        assert_close(&cl, &want_cl, 0.03);

        let mut out = vec![0.0f32; branch];
        for row in 0..3 {
            for c in 0..clusters {
                qh.branch_logits_into(&qx, row, c, &mut out);
                for (j, &got) in out.iter().enumerate() {
                    let want: f32 = x
                        .row(row)
                        .iter()
                        .zip(leaves.row(c * branch + j))
                        .map(|(&a, &b)| a * b)
                        .sum();
                    let scale = want.abs().max(1.0);
                    assert!(
                        (got - want).abs() <= 0.05 * scale,
                        "row {row} cluster {c} slot {j}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_activations_produce_exact_bias() {
        // All-zero activation rows quantize to scale 0 / all-zero codes
        // and must contribute exactly nothing.
        let w = Tensor2::full(4, 3, 0.7);
        let b = Tensor2::from_rows(&[&[1.0, -2.0, 3.0]]);
        let ql = QuantizedLinear::new(&w, &b);
        let x = Tensor2::zeros(2, 4);
        let mut qx = QuantizedRows::new();
        quantize_rows_into(&x, &mut qx);
        let mut out = Tensor2::zeros(2, 3);
        ql.forward_into(&qx, &mut out);
        for i in 0..2 {
            assert_eq!(out.row(i), b.row(0));
        }
    }
}
