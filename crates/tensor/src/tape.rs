//! Reverse-mode automatic differentiation over [`Tensor2`] values.

use crate::rng::Rng;

use crate::Tensor2;

/// Handle to a node on a [`Tape`].
///
/// `Var` is a plain index and is only meaningful for the tape that
/// produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

#[derive(Debug)]
pub(crate) enum Op {
    Leaf {
        requires_grad: bool,
    },
    Matmul {
        a: Var,
        b: Var,
    },
    Add {
        a: Var,
        b: Var,
    },
    AddRow {
        a: Var,
        bias: Var,
    },
    Sub {
        a: Var,
        b: Var,
    },
    Mul {
        a: Var,
        b: Var,
    },
    Scale {
        a: Var,
        c: f32,
    },
    Sigmoid {
        a: Var,
    },
    Tanh {
        a: Var,
    },
    Relu {
        a: Var,
    },
    ConcatCols {
        parts: Vec<Var>,
    },
    SliceCols {
        a: Var,
        start: usize,
        len: usize,
    },
    SoftmaxRows {
        a: Var,
    },
    SelectRows {
        a: Var,
        rows: Vec<usize>,
    },
    ChunkDot {
        q: Var,
        chunks: Var,
        n_chunks: usize,
    },
    ChunkWeightedSum {
        w: Var,
        chunks: Var,
    },
    MulMask {
        a: Var,
        mask: Tensor2,
    },
    /// A whole LSTM sequence; keeps every step's activated gates, cell
    /// and hidden states (`[steps·batch, ..]`, time-major) for BPTT.
    LstmSeq {
        x: Var,
        wx: Var,
        wh: Var,
        bias: Var,
        steps: usize,
        gates: Tensor2,
        cells: Tensor2,
        hs: Tensor2,
    },
    SumAll {
        a: Var,
    },
    MeanAll {
        a: Var,
    },
    SoftmaxCe {
        logits: Var,
        targets: Vec<usize>,
        probs: Tensor2,
    },
    BceLogits {
        logits: Var,
        targets: Tensor2,
    },
}

pub(crate) struct Node {
    pub(crate) op: Op,
    pub(crate) value: Tensor2,
}

/// A single-use computation graph.
///
/// Build the forward pass with the op methods ([`Tape::matmul`],
/// [`Tape::sigmoid`], ...), then call [`Tape::backward`] on the final
/// (typically scalar) node. Gradients of leaves created with
/// `requires_grad = true` are then available through [`Tape::grad`].
///
/// A tape is intended to be built, differentiated and dropped once per
/// training step; [`Tape::clear`] allows reusing the allocation.
///
/// # Example
///
/// ```
/// use voyager_tensor::{Tape, Tensor2};
///
/// let mut tape = Tape::new();
/// let x = tape.leaf(Tensor2::from_rows(&[&[0.5, -0.5]]), true);
/// let y = tape.tanh(x);
/// let loss = tape.sum_all(y);
/// tape.backward(loss);
/// let g = tape.grad(x).unwrap();
/// assert!((g.get(0, 0) - (1.0 - 0.5f32.tanh().powi(2))).abs() < 1e-6);
/// ```
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: Vec<Node>,
    pub(crate) grads: Vec<Option<Tensor2>>,
}

impl std::fmt::Debug for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tape({} nodes)", self.nodes.len())
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Drops all nodes and gradients, keeping allocations for reuse.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.grads.clear();
    }

    /// Returns the forward value of `v`.
    pub fn value(&self, v: Var) -> &Tensor2 {
        &self.nodes[v.0].value
    }

    /// Returns the accumulated gradient of `v`, if [`Tape::backward`] has
    /// produced one (leaves created with `requires_grad = false` and
    /// unreachable nodes have no gradient).
    pub fn grad(&self, v: Var) -> Option<&Tensor2> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    fn push(&mut self, op: Op, value: Tensor2) -> Var {
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    /// Records a leaf holding `value`. If `requires_grad` is true its
    /// gradient is accumulated during [`Tape::backward`].
    pub fn leaf(&mut self, value: Tensor2, requires_grad: bool) -> Var {
        self.push(Op::Leaf { requires_grad }, value)
    }

    /// Matrix product `a @ b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        self.push(Op::Matmul { a, b }, value)
    }

    /// Element-wise sum of two same-shaped tensors.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).zip(self.value(b), |x, y| x + y);
        self.push(Op::Add { a, b }, value)
    }

    /// Adds a `[1, n]` bias row to every row of `a` (`[m, n]`).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `[1, a.cols]`.
    pub fn add_row(&mut self, a: Var, bias: Var) -> Var {
        let (m, n) = self.value(a).shape();
        let bshape = self.value(bias).shape();
        assert_eq!(bshape, (1, n), "bias must be [1,{n}], got {bshape:?}");
        let mut value = self.value(a).clone();
        let b = self.value(bias).as_slice().to_vec();
        for i in 0..m {
            for (v, &bv) in value.row_mut(i).iter_mut().zip(&b) {
                *v += bv;
            }
        }
        self.push(Op::AddRow { a, bias }, value)
    }

    /// Element-wise difference `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).zip(self.value(b), |x, y| x - y);
        self.push(Op::Sub { a, b }, value)
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).zip(self.value(b), |x, y| x * y);
        self.push(Op::Mul { a, b }, value)
    }

    /// Multiplies every element by the constant `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let value = self.value(a).map(|v| v * c);
        self.push(Op::Scale { a, c }, value)
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.value(a).map(sigmoid);
        self.push(Op::Sigmoid { a }, value)
    }

    /// Element-wise hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).map(crate::infer::tanh);
        self.push(Op::Tanh { a }, value)
    }

    /// Element-wise rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|v| v.max(0.0));
        self.push(Op::Relu { a }, value)
    }

    /// Concatenates tensors with equal row counts along the column axis.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the row counts differ.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols of zero tensors");
        let m = self.value(parts[0]).rows();
        let total: usize = parts.iter().map(|&p| self.value(p).cols()).sum();
        let mut value = Tensor2::zeros(m, total);
        for i in 0..m {
            let mut off = 0;
            for &p in parts {
                let pv = self.value(p);
                assert_eq!(pv.rows(), m, "concat_cols row mismatch");
                let row = pv.row(i);
                value.row_mut(i)[off..off + row.len()].copy_from_slice(row);
                off += row.len();
            }
        }
        self.push(
            Op::ConcatCols {
                parts: parts.to_vec(),
            },
            value,
        )
    }

    /// Extracts columns `[start, start + len)` of `a`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let av = self.value(a);
        let (m, n) = av.shape();
        assert!(
            start + len <= n,
            "slice_cols range {start}..{} out of {n}",
            start + len
        );
        let mut value = Tensor2::zeros(m, len);
        for i in 0..m {
            value
                .row_mut(i)
                .copy_from_slice(&av.row(i)[start..start + len]);
        }
        self.push(Op::SliceCols { a, start, len }, value)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let value = softmax_rows(self.value(a));
        self.push(Op::SoftmaxRows { a }, value)
    }

    /// Gathers rows of `a` by index: `out[i] = a[rows[i]]`, producing
    /// `[rows.len(), a.cols]`. Indices may repeat — the backward pass
    /// scatter-*adds* each output-row gradient into its source row, so
    /// a row selected twice accumulates both contributions.
    ///
    /// This is the expansion step of the hierarchical softmax loss:
    /// each (sample, positive-cluster) pair replicates that sample's
    /// hidden row once per cluster it must score.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn select_rows(&mut self, a: Var, rows: &[usize]) -> Var {
        let av = self.value(a);
        let (m, n) = av.shape();
        let mut value = Tensor2::zeros(rows.len(), n);
        for (i, &r) in rows.iter().enumerate() {
            assert!(r < m, "select_rows index {r} out of range for {m} rows");
            value.row_mut(i).copy_from_slice(av.row(r));
        }
        self.push(
            Op::SelectRows {
                a,
                rows: rows.to_vec(),
            },
            value,
        )
    }

    /// Per-row dot products between a query and `n_chunks` equal-width
    /// column chunks: for query `q` of shape `[m, d]` and `chunks` of
    /// shape `[m, n_chunks * d]`, produces `[m, n_chunks]` with
    /// `out[i][s] = q[i] . chunks[i][s*d .. (s+1)*d]`.
    ///
    /// This is the scoring step of the paper's page-aware offset
    /// embedding: the page embedding (query) is scored against each
    /// offset-embedding "expert" (chunk).
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent with `n_chunks`.
    pub fn chunk_dot(&mut self, q: Var, chunks: Var, n_chunks: usize) -> Var {
        let (m, d) = self.value(q).shape();
        let cshape = self.value(chunks).shape();
        assert_eq!(cshape, (m, n_chunks * d), "chunk_dot shape mismatch");
        let mut value = Tensor2::zeros(m, n_chunks);
        for i in 0..m {
            let qrow = self.value(q).row(i);
            let crow = self.value(chunks).row(i);
            for s in 0..n_chunks {
                let chunk = &crow[s * d..(s + 1) * d];
                value.set(i, s, qrow.iter().zip(chunk).map(|(&x, &y)| x * y).sum());
            }
        }
        self.push(
            Op::ChunkDot {
                q,
                chunks,
                n_chunks,
            },
            value,
        )
    }

    /// Per-row weighted sum of column chunks: for weights `w` of shape
    /// `[m, n]` and `chunks` of shape `[m, n * d]`, produces `[m, d]`
    /// with `out[i] = sum_s w[i][s] * chunks[i][s*d .. (s+1)*d]`.
    ///
    /// This is the mixing step of the paper's page-aware offset
    /// embedding (Eq. 10).
    ///
    /// # Panics
    ///
    /// Panics if `chunks.cols` is not a multiple of `w.cols`.
    pub fn chunk_weighted_sum(&mut self, w: Var, chunks: Var) -> Var {
        let (m, n) = self.value(w).shape();
        let (cm, cn) = self.value(chunks).shape();
        assert_eq!(cm, m, "chunk_weighted_sum row mismatch");
        assert!(n > 0 && cn % n == 0, "chunk width must divide evenly");
        let d = cn / n;
        let mut value = Tensor2::zeros(m, d);
        for i in 0..m {
            let wrow = self.value(w).row(i);
            let crow = self.value(chunks).row(i);
            let out = value.row_mut(i);
            for s in 0..n {
                let ws = wrow[s];
                for (o, &c) in out.iter_mut().zip(&crow[s * d..(s + 1) * d]) {
                    *o += ws * c;
                }
            }
        }
        self.push(Op::ChunkWeightedSum { w, chunks }, value)
    }

    /// Inverted dropout: each element is zeroed with probability
    /// `1 - keep_prob` and survivors are scaled by `1 / keep_prob`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < keep_prob <= 1.0`.
    pub fn dropout<R: Rng>(&mut self, a: Var, keep_prob: f32, rng: &mut R) -> Var {
        assert!(
            keep_prob > 0.0 && keep_prob <= 1.0,
            "keep_prob must be in (0, 1]"
        );
        let (m, n) = self.value(a).shape();
        let inv = 1.0 / keep_prob;
        let mask = Tensor2::from_vec(
            m,
            n,
            (0..m * n)
                .map(|_| {
                    if rng.gen::<f32>() < keep_prob {
                        inv
                    } else {
                        0.0
                    }
                })
                .collect(),
        );
        self.mul_mask(a, mask)
    }

    /// Multiplies by a constant (non-differentiated) mask tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mul_mask(&mut self, a: Var, mask: Tensor2) -> Var {
        let value = self.value(a).zip(&mask, |x, y| x * y);
        self.push(Op::MulMask { a, mask }, value)
    }

    /// A single-layer LSTM over a whole time-major sequence, as one
    /// tape node.
    ///
    /// `x` is `[steps·batch, input]` with step `t` in rows
    /// `t·batch .. (t+1)·batch`; `wx` is `[input, 4·hidden]`, `wh`
    /// `[hidden, 4·hidden]` and `bias` `[1, 4·hidden]` (gate order
    /// `i, f, g, o`). Starting from the zero state, produces the final
    /// hidden state `[batch, hidden]`.
    ///
    /// The forward is [`infer::lstm_seq_forward`](crate::infer::lstm_seq_forward):
    /// one GEMM for every step's input projection, then per step the
    /// recurrent product, the bias and the shared cell update. Its
    /// values are bitwise those of the per-step chain of `matmul`,
    /// `add`, `add_row`, `slice_cols`, `sigmoid`, `tanh`, `mul` and
    /// `add` ops. The backward runs BPTT with the elementwise gate
    /// algebra fused into one loop per step, and computes `dX`, `dWx`
    /// and `dWh` each as one GEMM over all steps.
    ///
    /// # Panics
    ///
    /// Panics if `x`'s rows do not split into `steps` equal steps, or
    /// the weights are not four gates of `hidden` columns each.
    pub fn lstm_seq(&mut self, x: Var, wx: Var, wh: Var, bias: Var, steps: usize) -> Var {
        let (rows, input) = self.value(x).shape();
        let (hidden, g4) = self.value(wh).shape();
        let wx_shape = self.value(wx).shape();
        let bias_shape = self.value(bias).shape();
        assert!(
            steps > 0 && rows.is_multiple_of(steps),
            "lstm_seq: {rows} rows do not split into {steps} steps"
        );
        assert_eq!(
            g4,
            4 * hidden,
            "lstm_seq: wh is {hidden}x{g4}, not 4 gates of {hidden}"
        );
        assert_eq!(
            wx_shape,
            (input, g4),
            "lstm_seq: wx is {wx_shape:?}, expected {:?}",
            (input, g4)
        );
        assert_eq!(
            bias_shape,
            (1, g4),
            "lstm_seq: bias is {bias_shape:?}, expected {:?}",
            (1, g4)
        );
        let mut gates = Tensor2::zeros(rows, g4);
        let mut cells = Tensor2::zeros(rows, hidden);
        let mut hs = Tensor2::zeros(rows, hidden);
        crate::infer::lstm_seq_forward(
            self.value(x),
            self.value(wx),
            self.value(wh),
            self.value(bias).as_slice(),
            steps,
            &mut gates,
            &mut cells,
            &mut hs,
        );
        let batch = rows / steps;
        let last = hs.as_slice()[(rows - batch) * hidden..].to_vec();
        let value = Tensor2::from_vec(batch, hidden, last);
        self.push(
            Op::LstmSeq {
                x,
                wx,
                wh,
                bias,
                steps,
                gates,
                cells,
                hs,
            },
            value,
        )
    }

    /// Sum of all elements, as a `[1, 1]` tensor.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Tensor2::scalar(self.value(a).sum());
        self.push(Op::SumAll { a }, value)
    }

    /// Mean of all elements, as a `[1, 1]` tensor.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = Tensor2::scalar(self.value(a).mean());
        self.push(Op::MeanAll { a }, value)
    }

    /// Mean softmax cross-entropy between row logits and integer class
    /// targets, as a `[1, 1]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != logits.rows` or any target is out of
    /// range.
    pub fn softmax_cross_entropy(&mut self, logits: Var, targets: &[usize]) -> Var {
        let lv = self.value(logits);
        let (m, n) = lv.shape();
        assert_eq!(targets.len(), m, "one target per row required");
        let probs = softmax_rows(lv);
        let mut loss = 0.0;
        for (i, &t) in targets.iter().enumerate() {
            assert!(t < n, "target {t} out of range for {n} classes");
            loss -= probs.get(i, t).max(1e-12).ln();
        }
        loss /= m as f32;
        self.push(
            Op::SoftmaxCe {
                logits,
                targets: targets.to_vec(),
                probs,
            },
            Tensor2::scalar(loss),
        )
    }

    /// Mean binary cross-entropy with logits against a same-shaped
    /// `{0, 1}` target tensor (the multi-label loss of the paper's
    /// Section 4.4), as a `[1, 1]` tensor.
    ///
    /// Uses the numerically stable formulation
    /// `max(x, 0) - x * t + ln(1 + e^{-|x|})`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn bce_with_logits(&mut self, logits: Var, targets: &Tensor2) -> Var {
        let lv = self.value(logits);
        assert_eq!(
            lv.shape(),
            targets.shape(),
            "bce_with_logits shape mismatch"
        );
        let mut loss = 0.0;
        for (&x, &t) in lv.as_slice().iter().zip(targets.as_slice()) {
            loss += x.max(0.0) - x * t + (-x.abs()).exp().ln_1p();
        }
        loss /= lv.len().max(1) as f32;
        self.push(
            Op::BceLogits {
                logits,
                targets: targets.clone(),
            },
            Tensor2::scalar(loss),
        )
    }

    /// Runs reverse-mode differentiation from `output`, seeding its
    /// gradient with ones. Gradients accumulate into every reachable
    /// leaf that was created with `requires_grad = true` (and all
    /// interior nodes, retrievable via [`Tape::grad`]).
    ///
    /// Under `debug_assertions` the tape is first validated with
    /// [`Tape::verify`]; a structurally invalid tape aborts rather
    /// than differentiating garbage.
    pub fn backward(&mut self, output: Var) {
        #[cfg(debug_assertions)]
        {
            let check = self.verify(output);
            assert!(
                check.is_ok(),
                "tape verification failed before backward: {}",
                check.err().map(|e| e.to_string()).unwrap_or_default()
            );
        }
        self.grads = (0..self.nodes.len()).map(|_| None).collect();
        let seed = {
            let (m, n) = self.value(output).shape();
            Tensor2::full(m, n, 1.0)
        };
        self.grads[output.0] = Some(seed);
        for idx in (0..=output.0).rev() {
            let Some(g) = self.grads[idx].take() else {
                continue;
            };
            self.backprop_node(idx, &g);
            self.grads[idx] = Some(g);
        }
        // Drop gradients of non-differentiable leaves so callers cannot
        // mistake them for parameter gradients.
        for (idx, node) in self.nodes.iter().enumerate() {
            if let Op::Leaf {
                requires_grad: false,
            } = node.op
            {
                self.grads[idx] = None;
            }
        }
    }

    fn accumulate(&mut self, v: Var, delta: Tensor2) {
        match &mut self.grads[v.0] {
            Some(existing) => existing.add_scaled(&delta, 1.0),
            slot @ None => *slot = Some(delta),
        }
    }

    fn backprop_node(&mut self, idx: usize, g: &Tensor2) {
        // `g` is the gradient of the final output w.r.t. node `idx`.
        match &self.nodes[idx].op {
            Op::Leaf { .. } => {}
            Op::Matmul { a, b } => {
                let (a, b) = (*a, *b);
                let da = g.matmul_nt(self.value(b));
                let db = self.value(a).matmul_tn(g);
                self.accumulate(a, da);
                self.accumulate(b, db);
            }
            Op::Add { a, b } => {
                let (a, b) = (*a, *b);
                self.accumulate(a, g.clone());
                self.accumulate(b, g.clone());
            }
            Op::AddRow { a, bias } => {
                let (a, bias) = (*a, *bias);
                self.accumulate(a, g.clone());
                self.accumulate(bias, column_sums(g));
            }
            Op::Sub { a, b } => {
                let (a, b) = (*a, *b);
                self.accumulate(a, g.clone());
                self.accumulate(b, g.map(|v| -v));
            }
            Op::Mul { a, b } => {
                let (a, b) = (*a, *b);
                let da = g.zip(self.value(b), |gv, bv| gv * bv);
                let db = g.zip(self.value(a), |gv, av| gv * av);
                self.accumulate(a, da);
                self.accumulate(b, db);
            }
            Op::Scale { a, c } => {
                let (a, c) = (*a, *c);
                self.accumulate(a, g.map(|v| v * c));
            }
            Op::Sigmoid { a } => {
                let a = *a;
                let da = g.zip(&self.nodes[idx].value, |gv, y| gv * y * (1.0 - y));
                self.accumulate(a, da);
            }
            Op::Tanh { a } => {
                let a = *a;
                let da = g.zip(&self.nodes[idx].value, |gv, y| gv * (1.0 - y * y));
                self.accumulate(a, da);
            }
            Op::Relu { a } => {
                let a = *a;
                let da = g.zip(
                    &self.nodes[idx].value,
                    |gv, y| if y > 0.0 { gv } else { 0.0 },
                );
                self.accumulate(a, da);
            }
            Op::ConcatCols { parts } => {
                let parts = parts.clone();
                let m = g.rows();
                let mut off = 0;
                for p in parts {
                    let w = self.value(p).cols();
                    let mut dp = Tensor2::zeros(m, w);
                    for i in 0..m {
                        dp.row_mut(i).copy_from_slice(&g.row(i)[off..off + w]);
                    }
                    off += w;
                    self.accumulate(p, dp);
                }
            }
            Op::SliceCols { a, start, len } => {
                let (a, start, len) = (*a, *start, *len);
                let (m, n) = self.value(a).shape();
                let mut da = Tensor2::zeros(m, n);
                for i in 0..m {
                    da.row_mut(i)[start..start + len].copy_from_slice(g.row(i));
                }
                self.accumulate(a, da);
            }
            Op::SoftmaxRows { a } => {
                let a = *a;
                let y = self.nodes[idx].value.clone();
                let (m, n) = y.shape();
                let mut da = Tensor2::zeros(m, n);
                for i in 0..m {
                    let dotp: f32 = g
                        .row(i)
                        .iter()
                        .zip(y.row(i))
                        .map(|(&gv, &yv)| gv * yv)
                        .sum();
                    for ((d, &gv), &yv) in da.row_mut(i).iter_mut().zip(g.row(i)).zip(y.row(i)) {
                        *d = yv * (gv - dotp);
                    }
                }
                self.accumulate(a, da);
            }
            Op::SelectRows { a, rows } => {
                let a = *a;
                let rows = rows.clone();
                let (m, n) = self.value(a).shape();
                let mut da = Tensor2::zeros(m, n);
                for (i, &r) in rows.iter().enumerate() {
                    for (d, &gv) in da.row_mut(r).iter_mut().zip(g.row(i)) {
                        *d += gv;
                    }
                }
                self.accumulate(a, da);
            }
            Op::ChunkDot {
                q,
                chunks,
                n_chunks,
            } => {
                let (q, chunks, n) = (*q, *chunks, *n_chunks);
                let (m, d) = self.value(q).shape();
                let mut dq = Tensor2::zeros(m, d);
                let mut dc = Tensor2::zeros(m, n * d);
                for i in 0..m {
                    let qrow = self.value(q).row(i);
                    let crow = self.value(chunks).row(i);
                    for s in 0..n {
                        let gv = g.get(i, s);
                        let chunk = &crow[s * d..(s + 1) * d];
                        for (dqv, &cv) in dq.row_mut(i).iter_mut().zip(chunk) {
                            *dqv += gv * cv;
                        }
                        for (dcv, &qv) in dc.row_mut(i)[s * d..(s + 1) * d].iter_mut().zip(qrow) {
                            *dcv += gv * qv;
                        }
                    }
                }
                self.accumulate(q, dq);
                self.accumulate(chunks, dc);
            }
            Op::ChunkWeightedSum { w, chunks } => {
                let (w, chunks) = (*w, *chunks);
                let (m, n) = self.value(w).shape();
                let d = self.value(chunks).cols() / n;
                let mut dw = Tensor2::zeros(m, n);
                let mut dc = Tensor2::zeros(m, n * d);
                for i in 0..m {
                    let wrow = self.value(w).row(i);
                    let crow = self.value(chunks).row(i);
                    let grow = g.row(i);
                    for s in 0..n {
                        let chunk = &crow[s * d..(s + 1) * d];
                        dw.set(i, s, grow.iter().zip(chunk).map(|(&gv, &cv)| gv * cv).sum());
                        for (dcv, &gv) in dc.row_mut(i)[s * d..(s + 1) * d].iter_mut().zip(grow) {
                            *dcv += wrow[s] * gv;
                        }
                    }
                }
                self.accumulate(w, dw);
                self.accumulate(chunks, dc);
            }
            Op::MulMask { a, mask } => {
                let a = *a;
                let da = g.zip(mask, |gv, mv| gv * mv);
                self.accumulate(a, da);
            }
            Op::LstmSeq {
                x,
                wx,
                wh,
                bias,
                steps,
                gates,
                cells,
                hs,
            } => {
                let (x, wx, wh, bias) = (*x, *wx, *wh, *bias);
                let dpre = lstm_seq_pre_grads(g, gates, cells, self.value(wh), *steps);
                let batch = g.rows();
                let (rows, hidden) = hs.shape();
                // Parameter and input gradients, each one GEMM over all
                // steps. `dWh` pairs h_{t-1} with step t's gate
                // gradients; step 0 has no predecessor (h_{-1} = 0).
                let dx = dpre.matmul_nt(self.value(wx));
                let dwx = self.value(x).matmul_tn(&dpre);
                let mut dwh = Tensor2::zeros(hidden, 4 * hidden);
                crate::kernels::gemm_slices(
                    &hs.as_slice()[..(rows - batch) * hidden],
                    &dpre.as_slice()[batch * 4 * hidden..],
                    crate::kernels::Layout::TN,
                    hidden,
                    4 * hidden,
                    rows - batch,
                    dwh.as_mut_slice(),
                    false,
                );
                self.accumulate(x, dx);
                self.accumulate(wx, dwx);
                self.accumulate(wh, dwh);
                self.accumulate(bias, column_sums(&dpre));
            }
            Op::SumAll { a } => {
                let a = *a;
                let (m, n) = self.value(a).shape();
                let da = Tensor2::full(m, n, g.get(0, 0));
                self.accumulate(a, da);
            }
            Op::MeanAll { a } => {
                let a = *a;
                let (m, n) = self.value(a).shape();
                let da = Tensor2::full(m, n, g.get(0, 0) / (m * n).max(1) as f32);
                self.accumulate(a, da);
            }
            Op::SoftmaxCe {
                logits,
                targets,
                probs,
            } => {
                let logits = *logits;
                let m = probs.rows();
                let scale = g.get(0, 0) / m as f32;
                let mut da = probs.map(|p| p * scale);
                for (i, &t) in targets.iter().enumerate() {
                    let v = da.get(i, t);
                    da.set(i, t, v - scale);
                }
                self.accumulate(logits, da);
            }
            Op::BceLogits { logits, targets } => {
                let logits = *logits;
                let lv = self.value(logits);
                let scale = g.get(0, 0) / lv.len().max(1) as f32;
                // A slice loop over the borrowed logits, which vectorizes
                // (a closure over `Tensor2::zip` ran one divide at a time).
                let mut da = Tensor2::zeros(lv.rows(), lv.cols());
                let pairs = lv.as_slice().iter().zip(targets.as_slice());
                for (d, (&x, &t)) in da.as_mut_slice().iter_mut().zip(pairs) {
                    *d = (sigmoid(x) - t) * scale;
                }
                self.accumulate(logits, da);
            }
        }
    }
}

// Forward math is shared with the tape-free engine in `crate::infer`,
// which is what guarantees fast-path outputs are bitwise identical.
use crate::infer::sigmoid;

fn softmax_rows(t: &Tensor2) -> Tensor2 {
    let mut out = t.clone();
    crate::infer::softmax_rows_inplace(&mut out);
    out
}

/// The `[1, n]` sum of `t`'s rows, in row order: the gradient of a
/// bias broadcast over them.
fn column_sums(t: &Tensor2) -> Tensor2 {
    let mut sums = Tensor2::zeros(1, t.cols());
    for i in 0..t.rows() {
        for (d, &v) in sums.row_mut(0).iter_mut().zip(t.row(i)) {
            *d += v;
        }
    }
    sums
}

/// BPTT through an `lstm_seq` node: from the gradient `dh` of the final
/// hidden state, returns the gradient of every step's gate
/// pre-activations (`[steps·batch, 4·hidden]`, time-major).
///
/// Walking the steps backwards, one fused loop per step
/// ([`lstm_bptt_step_body`]) turns the running `dh_t` and `dc_t` into the
/// four gate gradients and `dc_{t-1}`; one GEMM per step then carries
/// `dh_{t-1}` through the recurrent weights.
fn lstm_seq_pre_grads(
    dh_final: &Tensor2,
    gates: &Tensor2,
    cells: &Tensor2,
    wh: &Tensor2,
    steps: usize,
) -> Tensor2 {
    let (rows, hidden) = cells.shape();
    let g4 = 4 * hidden;
    let batch = rows / steps;
    let mut dpre = Tensor2::zeros(rows, g4);
    let mut dh = dh_final.as_slice().to_vec();
    let mut dc = vec![0.0f32; batch * hidden];
    let zeros = vec![0.0f32; batch * hidden];
    let (gates, cells) = (gates.as_slice(), cells.as_slice());
    for t in (0..steps).rev() {
        let (g0, s0) = (t * batch * g4, t * batch * hidden);
        let (g1, s1) = (g0 + batch * g4, s0 + batch * hidden);
        let c_prev = if t > 0 {
            &cells[s0 - batch * hidden..s0]
        } else {
            &zeros
        };
        crate::simd::lstm_bptt_step(
            &gates[g0..g1],
            &cells[s0..s1],
            c_prev,
            &dh,
            &mut dc,
            &mut dpre.as_mut_slice()[g0..g1],
            hidden,
        );
        if t > 0 {
            crate::kernels::gemm_rows_against(
                &dpre.as_slice()[g0..g1],
                batch,
                wh,
                crate::kernels::Layout::NT,
                &mut dh,
                false,
            );
        }
    }
    dpre
}

/// One step of BPTT's gate loop, over every row of the step: from the
/// step's activated `gates` (`[batch, 4·hidden]`), cells `c` and
/// previous cells `c_prev` (`[batch, hidden]`, zeros at step 0) and the
/// running `dh`, writes the four gate pre-activation gradients into
/// `dpre` and turns `dc` from `dc_t` into `dc_{t-1}`.
///
/// A function of its own over plain slices, so the loop compiles
/// without the tape's bookkeeping around it; [`crate::simd`] runs it
/// through an `avx512f` copy on AVX-512 hosts, with the same bits.
#[inline(always)]
pub(crate) fn lstm_bptt_step_body(
    gates: &[f32],
    c: &[f32],
    c_prev: &[f32],
    dh: &[f32],
    dc: &mut [f32],
    dpre: &mut [f32],
    hidden: usize,
) {
    let rows = gates
        .chunks_exact(4 * hidden)
        .zip(dpre.chunks_exact_mut(4 * hidden))
        .zip(c.chunks_exact(hidden).zip(c_prev.chunks_exact(hidden)))
        .zip(dh.chunks_exact(hidden).zip(dc.chunks_exact_mut(hidden)));
    for (((gate, dgate), (c, c_prev)), (dh, dc)) in rows {
        // Every slice is cut to `hidden` here, so the loop below
        // carries no bounds checks and vectorizes.
        let (i, f, g, o) = (
            &gate[..hidden],
            &gate[hidden..2 * hidden],
            &gate[2 * hidden..3 * hidden],
            &gate[3 * hidden..4 * hidden],
        );
        let (c, c_prev, dh, dc) = (
            &c[..hidden],
            &c_prev[..hidden],
            &dh[..hidden],
            &mut dc[..hidden],
        );
        let (di, rest) = dgate.split_at_mut(hidden);
        let (df, rest) = rest.split_at_mut(hidden);
        let (dg, d_o) = rest.split_at_mut(hidden);
        let d_o = &mut d_o[..hidden];
        for j in 0..hidden {
            let tc = crate::infer::tanh(c[j]);
            let dcj = dc[j] + dh[j] * o[j] * (1.0 - tc * tc);
            d_o[j] = dh[j] * tc * o[j] * (1.0 - o[j]);
            di[j] = dcj * g[j] * i[j] * (1.0 - i[j]);
            dg[j] = dcj * i[j] * (1.0 - g[j] * g[j]);
            df[j] = dcj * c_prev[j] * f[j] * (1.0 - f[j]);
            dc[j] = dcj * f[j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedableRng;

    fn approx(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn matmul_backward_matches_manual() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor2::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]), true);
        let b = tape.leaf(Tensor2::from_rows(&[&[5.0], &[6.0]]), true);
        let c = tape.matmul(a, b);
        let loss = tape.sum_all(c);
        tape.backward(loss);
        // dC = ones(2,1); dA = dC @ B^T = [[5,6],[5,6]]; dB = A^T @ dC = [[4],[6]]
        assert_eq!(tape.grad(a).unwrap().as_slice(), &[5.0, 6.0, 5.0, 6.0]);
        assert_eq!(tape.grad(b).unwrap().as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn add_row_broadcasts_and_backprops() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor2::zeros(3, 2), true);
        let b = tape.leaf(Tensor2::from_rows(&[&[1.0, 2.0]]), true);
        let c = tape.add_row(a, b);
        assert_eq!(tape.value(c).row(2), &[1.0, 2.0]);
        let loss = tape.sum_all(c);
        tape.backward(loss);
        assert_eq!(tape.grad(b).unwrap().as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let mut tape = Tape::new();
        let a = tape.leaf(
            Tensor2::from_rows(&[&[1.0, 2.0, 3.0], &[-1.0, 0.0, 1.0]]),
            false,
        );
        let s = tape.softmax_rows(a);
        for i in 0..2 {
            approx(tape.value(s).row(i).iter().sum::<f32>(), 1.0, 1e-6);
        }
    }

    #[test]
    fn softmax_ce_gradient_is_probs_minus_onehot() {
        let mut tape = Tape::new();
        let logits = tape.leaf(Tensor2::from_rows(&[&[0.0, 0.0]]), true);
        let loss = tape.softmax_cross_entropy(logits, &[1]);
        approx(tape.value(loss).get(0, 0), (2.0f32).ln(), 1e-6);
        tape.backward(loss);
        let g = tape.grad(logits).unwrap();
        approx(g.get(0, 0), 0.5, 1e-6);
        approx(g.get(0, 1), -0.5, 1e-6);
    }

    #[test]
    fn bce_with_logits_matches_closed_form() {
        let mut tape = Tape::new();
        let logits = tape.leaf(Tensor2::from_rows(&[&[0.0, 2.0]]), true);
        let targets = Tensor2::from_rows(&[&[1.0, 0.0]]);
        let loss = tape.bce_with_logits(logits, &targets);
        let expect = (((2.0f32).ln()) + (2.0 + (1.0 + (-2.0f32).exp()).ln())) / 2.0;
        approx(tape.value(loss).get(0, 0), expect, 1e-5);
        tape.backward(loss);
        let g = tape.grad(logits).unwrap();
        approx(g.get(0, 0), (0.5 - 1.0) / 2.0, 1e-6);
        approx(g.get(0, 1), (sigmoid(2.0) - 0.0) / 2.0, 1e-6);
    }

    #[test]
    fn concat_slice_roundtrip() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor2::from_rows(&[&[1.0, 2.0]]), true);
        let b = tape.leaf(Tensor2::from_rows(&[&[3.0]]), true);
        let c = tape.concat_cols(&[a, b]);
        assert_eq!(tape.value(c).as_slice(), &[1.0, 2.0, 3.0]);
        let s = tape.slice_cols(c, 1, 2);
        assert_eq!(tape.value(s).as_slice(), &[2.0, 3.0]);
        let loss = tape.sum_all(s);
        tape.backward(loss);
        assert_eq!(tape.grad(a).unwrap().as_slice(), &[0.0, 1.0]);
        assert_eq!(tape.grad(b).unwrap().as_slice(), &[1.0]);
    }

    #[test]
    fn select_rows_gathers_and_scatter_adds() {
        let mut tape = Tape::new();
        let a = tape.leaf(
            Tensor2::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]),
            true,
        );
        let s = tape.select_rows(a, &[2, 0, 2]);
        assert_eq!(tape.value(s).as_slice(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let loss = tape.sum_all(s);
        tape.backward(loss);
        // Row 2 selected twice -> gradient 2; row 1 never -> 0.
        assert_eq!(
            tape.grad(a).unwrap().as_slice(),
            &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0]
        );
    }

    #[test]
    #[should_panic(expected = "select_rows index")]
    fn select_rows_rejects_out_of_range() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor2::zeros(2, 2), false);
        let _ = tape.select_rows(a, &[0, 2]);
    }

    #[test]
    fn chunk_dot_and_weighted_sum_forward() {
        let mut tape = Tape::new();
        // q = [1, 0]; chunks = [[1,2],[3,4]] flattened -> dots = [1, 3]
        let q = tape.leaf(Tensor2::from_rows(&[&[1.0, 0.0]]), false);
        let chunks = tape.leaf(Tensor2::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]), false);
        let scores = tape.chunk_dot(q, chunks, 2);
        assert_eq!(tape.value(scores).as_slice(), &[1.0, 3.0]);
        let w = tape.leaf(Tensor2::from_rows(&[&[0.25, 0.75]]), false);
        let mixed = tape.chunk_weighted_sum(w, chunks);
        assert_eq!(tape.value(mixed).as_slice(), &[0.25 + 2.25, 0.5 + 3.0]);
    }

    /// Records the per-step chain that `lstm_seq` fuses, from primitive
    /// ops, binding each weight once: per step `x_t·wx + h·wh + bias`,
    /// the four gate slices and activations, and the cell update.
    /// Returns the per-step input leaves and the final hidden state.
    fn lstm_chain(tape: &mut Tape, x: &Tensor2, w: [Var; 3], steps: usize) -> (Vec<Var>, Var) {
        let [wx, wh, b] = w;
        let (rows, input) = x.shape();
        let batch = rows / steps;
        let hidden = tape.value(wh).rows();
        let mut h = tape.leaf(Tensor2::zeros(batch, hidden), false);
        let mut c = tape.leaf(Tensor2::zeros(batch, hidden), false);
        let mut xs = Vec::new();
        for t in 0..steps {
            let rows_t = x.as_slice()[t * batch * input..(t + 1) * batch * input].to_vec();
            let xt = tape.leaf(Tensor2::from_vec(batch, input, rows_t), true);
            xs.push(xt);
            let xa = tape.matmul(xt, wx);
            let ha = tape.matmul(h, wh);
            let s = tape.add(xa, ha);
            let pre = tape.add_row(s, b);
            let [i, f, g, o] = std::array::from_fn(|k| tape.slice_cols(pre, k * hidden, hidden));
            let i = tape.sigmoid(i);
            let f = tape.sigmoid(f);
            let g = tape.tanh(g);
            let o = tape.sigmoid(o);
            let fc = tape.mul(f, c);
            let ig = tape.mul(i, g);
            c = tape.add(fc, ig);
            let ct = tape.tanh(c);
            h = tape.mul(o, ct);
        }
        (xs, h)
    }

    fn assert_rel_close(got: &[f32], want: &[f32], tol: f32, what: &str) {
        let scale = want.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let err = got
            .iter()
            .zip(want)
            .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
        assert!(
            err <= tol * scale,
            "{what}: max error {err} against scale {scale}"
        );
    }

    #[test]
    fn lstm_seq_matches_primitive_chain() {
        let mut rng = crate::rng::StdRng::seed_from_u64(31);
        let (steps, batch, input, hidden) = (4, 3, 5, 6);
        let xs = Tensor2::uniform(steps * batch, input, 1.0, &mut rng);
        let weights = [
            Tensor2::uniform(input, 4 * hidden, 0.8, &mut rng),
            Tensor2::uniform(hidden, 4 * hidden, 0.8, &mut rng),
            Tensor2::uniform(1, 4 * hidden, 0.5, &mut rng),
        ];
        let probe = Tensor2::uniform(batch, hidden, 1.0, &mut rng);

        let mut fused = Tape::new();
        let x = fused.leaf(xs.clone(), true);
        let w: [Var; 3] = std::array::from_fn(|k| fused.leaf(weights[k].clone(), true));
        let h = fused.lstm_seq(x, w[0], w[1], w[2], steps);
        let p = fused.leaf(probe.clone(), false);
        let hp = fused.mul(h, p);
        let loss = fused.sum_all(hp);
        fused.backward(loss);

        let mut chain = Tape::new();
        let w2: [Var; 3] = std::array::from_fn(|k| chain.leaf(weights[k].clone(), true));
        let (x2, h2) = lstm_chain(&mut chain, &xs, w2, steps);
        let p2 = chain.leaf(probe, false);
        let hp2 = chain.mul(h2, p2);
        let loss2 = chain.sum_all(hp2);
        chain.backward(loss2);

        let bits = |t: &Tensor2| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(fused.value(h)), bits(chain.value(h2)), "forward");
        for (k, name) in ["wx", "wh", "bias"].into_iter().enumerate() {
            assert_rel_close(
                fused.grad(w[k]).unwrap().as_slice(),
                chain.grad(w2[k]).unwrap().as_slice(),
                1e-5,
                name,
            );
        }
        let dx: Vec<f32> = x2
            .iter()
            .flat_map(|&v| chain.grad(v).unwrap().as_slice().to_vec())
            .collect();
        assert_rel_close(fused.grad(x).unwrap().as_slice(), &dx, 1e-5, "x");
    }

    #[test]
    #[should_panic(expected = "lstm_seq")]
    fn lstm_seq_rejects_non_four_gate_weights() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor2::zeros(4, 3), false);
        let wx = tape.leaf(Tensor2::zeros(3, 12), false);
        let wh = tape.leaf(Tensor2::zeros(4, 12), false);
        let b = tape.leaf(Tensor2::zeros(1, 12), false);
        let _ = tape.lstm_seq(x, wx, wh, b, 2);
    }

    #[test]
    #[should_panic(expected = "lstm_seq")]
    fn lstm_seq_rejects_ragged_steps() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor2::zeros(5, 3), false);
        let wx = tape.leaf(Tensor2::zeros(3, 8), false);
        let wh = tape.leaf(Tensor2::zeros(2, 8), false);
        let b = tape.leaf(Tensor2::zeros(1, 8), false);
        let _ = tape.lstm_seq(x, wx, wh, b, 2);
    }

    #[test]
    fn dropout_keep_prob_one_is_identity() {
        let mut rng = crate::rng::thread_rng();
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor2::from_rows(&[&[1.0, -2.0, 3.0]]), false);
        let d = tape.dropout(a, 1.0, &mut rng);
        assert_eq!(tape.value(d).as_slice(), &[1.0, -2.0, 3.0]);
    }

    #[test]
    fn non_grad_leaf_has_no_gradient() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor2::scalar(2.0), false);
        let b = tape.leaf(Tensor2::scalar(3.0), true);
        let c = tape.mul(a, b);
        tape.backward(c);
        assert!(tape.grad(a).is_none());
        assert_eq!(tape.grad(b).unwrap().get(0, 0), 2.0);
    }

    #[test]
    fn fan_out_accumulates() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor2::scalar(3.0), true);
        let b = tape.mul(a, a); // a^2 -> grad 2a = 6
        tape.backward(b);
        approx(tape.grad(a).unwrap().get(0, 0), 6.0, 1e-6);
    }

    #[test]
    fn clear_resets_tape() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor2::scalar(1.0), true);
        let _ = tape.tanh(a);
        assert_eq!(tape.len(), 2);
        tape.clear();
        assert!(tape.is_empty());
    }
}
