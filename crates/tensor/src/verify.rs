//! Autograd-tape validation.
//!
//! [`Tape::verify`] checks three invariants of a recorded tape before
//! gradients flow through it:
//!
//! 1. **Topological well-formedness** — every op's inputs refer to
//!    nodes recorded *earlier* on the tape. The reverse sweep in
//!    [`Tape::backward`] silently computes garbage if an input points
//!    forward (its gradient contribution is dropped).
//! 2. **Shape consistency** — each node's stored forward value has
//!    exactly the shape its op implies from its inputs' shapes. A
//!    mismatch means the tape was corrupted (or an op implementation
//!    disagrees with its own contract) and backward would accumulate
//!    misshapen gradients or panic mid-sweep.
//! 3. **Gradient-flow reachability** — every `requires_grad` leaf is
//!    reachable by walking inputs backward from the output. Unreachable
//!    parameters are *dead subgraphs*: they silently receive no
//!    gradient and never train. These are reported as warnings, not
//!    errors, because partial backward passes are legitimate.
//!
//! Under `debug_assertions` the whole check runs automatically at the
//! top of every [`Tape::backward`] call, so any test or debug run
//! exercises it for free; release builds skip it.

use crate::tape::{Op, Tape, Var};

/// A structural defect that makes a tape unsafe to differentiate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TapeError {
    /// Node `node`'s op reads input `input`, which is not an earlier
    /// node on the tape.
    IndexOutOfOrder {
        /// The offending node.
        node: usize,
        /// The input index it refers to.
        input: usize,
    },
    /// Node `node`'s stored value has a different shape than its op
    /// implies.
    ShapeMismatch {
        /// The offending node.
        node: usize,
        /// A short op name for diagnostics.
        op: &'static str,
        /// Shape the op's inputs imply.
        expected: (usize, usize),
        /// Shape actually stored.
        got: (usize, usize),
    },
    /// Node `node`'s op carries inputs whose shapes are mutually
    /// inconsistent (e.g. a matmul inner-dimension mismatch), with a
    /// description of the conflict.
    InconsistentInputs {
        /// The offending node.
        node: usize,
        /// A short op name for diagnostics.
        op: &'static str,
        /// What is inconsistent.
        detail: String,
    },
    /// The verification root is not a node on the tape.
    OutputOutOfRange {
        /// The requested root index.
        output: usize,
        /// Tape length.
        len: usize,
    },
}

impl std::fmt::Display for TapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TapeError::IndexOutOfOrder { node, input } => write!(
                f,
                "node {node} reads input {input}, which is not an earlier tape node"
            ),
            TapeError::ShapeMismatch {
                node,
                op,
                expected,
                got,
            } => write!(
                f,
                "node {node} ({op}) stores shape {got:?} but its inputs imply {expected:?}"
            ),
            TapeError::InconsistentInputs { node, op, detail } => {
                write!(f, "node {node} ({op}) has inconsistent inputs: {detail}")
            }
            TapeError::OutputOutOfRange { output, len } => {
                write!(f, "output {output} out of range for tape of {len} nodes")
            }
        }
    }
}

/// Outcome of a successful [`Tape::verify`]: statistics plus warnings
/// that do not make differentiation unsound.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TapeReport {
    /// Nodes checked (the whole tape).
    pub nodes: usize,
    /// `requires_grad` leaves reachable from the verified output.
    pub live_params: usize,
    /// `requires_grad` leaves *not* reachable from the verified
    /// output: dead subgraphs that will receive no gradient.
    pub dead_params: Vec<Var>,
}

impl Tape {
    /// Validates the tape rooted at `output`. See the module docs for
    /// the three checks. Returns a [`TapeReport`] whose `dead_params`
    /// lists `requires_grad` leaves that `output` does not depend on.
    ///
    /// # Errors
    ///
    /// Returns the first [`TapeError`] found in tape order.
    pub fn verify(&self, output: Var) -> Result<TapeReport, TapeError> {
        if output.0 >= self.nodes.len() {
            return Err(TapeError::OutputOutOfRange {
                output: output.0,
                len: self.nodes.len(),
            });
        }
        // Pass 1+2: ordering and shapes, in tape (= topological) order.
        for idx in 0..self.nodes.len() {
            for input in op_inputs(&self.nodes[idx].op) {
                if input >= idx {
                    return Err(TapeError::IndexOutOfOrder { node: idx, input });
                }
            }
            self.check_shape(idx)?;
        }
        // Pass 3: reachability from the output via reverse BFS.
        let mut reached = vec![false; self.nodes.len()];
        reached[output.0] = true;
        let mut queue = vec![output.0];
        while let Some(idx) = queue.pop() {
            for input in op_inputs(&self.nodes[idx].op) {
                if !reached[input] {
                    reached[input] = true;
                    queue.push(input);
                }
            }
        }
        let mut report = TapeReport {
            nodes: self.nodes.len(),
            ..TapeReport::default()
        };
        for (idx, node) in self.nodes.iter().enumerate() {
            if let Op::Leaf {
                requires_grad: true,
            } = node.op
            {
                if reached[idx] {
                    report.live_params += 1;
                } else {
                    report.dead_params.push(Var(idx));
                }
            }
        }
        Ok(report)
    }

    /// Checks that node `idx`'s stored value has the shape its op
    /// implies. Input indices are already known to be in range.
    fn check_shape(&self, idx: usize) -> Result<(), TapeError> {
        let shape = |v: &Var| self.nodes[v.0].value.shape();
        let got = self.nodes[idx].value.shape();
        let op = &self.nodes[idx].op;
        let mismatch = |name: &'static str, expected: (usize, usize)| {
            if expected == got {
                Ok(())
            } else {
                Err(TapeError::ShapeMismatch {
                    node: idx,
                    op: name,
                    expected,
                    got,
                })
            }
        };
        let inconsistent = |name: &'static str, detail: String| {
            Err(TapeError::InconsistentInputs {
                node: idx,
                op: name,
                detail,
            })
        };
        match op {
            Op::Leaf { .. } => Ok(()),
            Op::Matmul { a, b } => {
                let ((m, k), (k2, n)) = (shape(a), shape(b));
                if k != k2 {
                    return inconsistent("matmul", format!("inner dims {k} vs {k2}"));
                }
                mismatch("matmul", (m, n))
            }
            Op::Add { a, b } | Op::Sub { a, b } | Op::Mul { a, b } => {
                let name = match op {
                    Op::Add { .. } => "add",
                    Op::Sub { .. } => "sub",
                    _ => "mul",
                };
                if shape(a) != shape(b) {
                    return inconsistent(
                        name,
                        format!("operands {:?} vs {:?}", shape(a), shape(b)),
                    );
                }
                mismatch(name, shape(a))
            }
            Op::AddRow { a, bias } => {
                let (m, n) = shape(a);
                if shape(bias) != (1, n) {
                    return inconsistent(
                        "add_row",
                        format!("bias {:?} for input {:?}", shape(bias), (m, n)),
                    );
                }
                mismatch("add_row", (m, n))
            }
            Op::Scale { a, .. } => mismatch("scale", shape(a)),
            Op::Sigmoid { a } => mismatch("sigmoid", shape(a)),
            Op::Tanh { a } => mismatch("tanh", shape(a)),
            Op::Relu { a } => mismatch("relu", shape(a)),
            Op::ConcatCols { parts } => {
                let Some(first) = parts.first() else {
                    return inconsistent("concat_cols", "zero parts".into());
                };
                let m = shape(first).0;
                let mut total = 0usize;
                for p in parts {
                    let (pm, pn) = shape(p);
                    if pm != m {
                        return inconsistent("concat_cols", format!("rows {pm} vs {m}"));
                    }
                    total += pn;
                }
                mismatch("concat_cols", (m, total))
            }
            Op::SliceCols { a, start, len } => {
                let (m, n) = shape(a);
                if start + len > n {
                    return inconsistent(
                        "slice_cols",
                        format!("range {start}..{} out of {n}", start + len),
                    );
                }
                mismatch("slice_cols", (m, *len))
            }
            Op::SoftmaxRows { a } => mismatch("softmax_rows", shape(a)),
            Op::SelectRows { a, rows } => {
                let (m, n) = shape(a);
                if let Some(&r) = rows.iter().find(|&&r| r >= m) {
                    return inconsistent(
                        "select_rows",
                        format!("index {r} out of range for {m} rows"),
                    );
                }
                mismatch("select_rows", (rows.len(), n))
            }
            Op::ChunkDot {
                q,
                chunks,
                n_chunks,
            } => {
                let ((m, d), cs) = (shape(q), shape(chunks));
                if cs != (m, n_chunks * d) {
                    return inconsistent(
                        "chunk_dot",
                        format!("chunks {cs:?} for query {:?} × {n_chunks}", (m, d)),
                    );
                }
                mismatch("chunk_dot", (m, *n_chunks))
            }
            Op::ChunkWeightedSum { w, chunks } => {
                let ((m, n), (cm, cn)) = (shape(w), shape(chunks));
                if cm != m || n == 0 || cn % n != 0 {
                    return inconsistent(
                        "chunk_weighted_sum",
                        format!("chunks {:?} for weights {:?}", (cm, cn), (m, n)),
                    );
                }
                mismatch("chunk_weighted_sum", (m, cn / n))
            }
            Op::MulMask { a, mask } => {
                if shape(a) != mask.shape() {
                    return inconsistent(
                        "mul_mask",
                        format!("mask {:?} for input {:?}", mask.shape(), shape(a)),
                    );
                }
                mismatch("mul_mask", shape(a))
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
                let ((rows, input), (hidden, g4)) = (shape(x), shape(wh));
                if *steps == 0 || !rows.is_multiple_of(*steps) {
                    return inconsistent(
                        "lstm_seq",
                        format!("{rows} rows do not split into {steps} steps"),
                    );
                }
                if g4 != 4 * hidden || shape(wx) != (input, g4) || shape(bias) != (1, g4) {
                    return inconsistent(
                        "lstm_seq",
                        format!(
                            "weights {:?}/{:?}/{:?} for input {:?}",
                            shape(wx),
                            (hidden, g4),
                            shape(bias),
                            (rows, input)
                        ),
                    );
                }
                let saved = (gates.shape(), cells.shape(), hs.shape());
                if saved != ((rows, g4), (rows, hidden), (rows, hidden)) {
                    return inconsistent(
                        "lstm_seq",
                        format!("saved states {saved:?} for {rows} rows of {hidden} units"),
                    );
                }
                mismatch("lstm_seq", (rows / steps, hidden))
            }
            Op::SumAll { .. } => mismatch("sum_all", (1, 1)),
            Op::MeanAll { .. } => mismatch("mean_all", (1, 1)),
            Op::SoftmaxCe {
                logits,
                targets,
                probs,
            } => {
                let (m, n) = shape(logits);
                if probs.shape() != (m, n) {
                    return inconsistent(
                        "softmax_cross_entropy",
                        format!("cached probs {:?} for logits {:?}", probs.shape(), (m, n)),
                    );
                }
                if targets.len() != m {
                    return inconsistent(
                        "softmax_cross_entropy",
                        format!("{} targets for {m} rows", targets.len()),
                    );
                }
                if let Some(&t) = targets.iter().find(|&&t| t >= n) {
                    return inconsistent(
                        "softmax_cross_entropy",
                        format!("target {t} out of range for {n} classes"),
                    );
                }
                mismatch("softmax_cross_entropy", (1, 1))
            }
            Op::BceLogits { logits, targets } => {
                if shape(logits) != targets.shape() {
                    return inconsistent(
                        "bce_with_logits",
                        format!(
                            "targets {:?} for logits {:?}",
                            targets.shape(),
                            shape(logits)
                        ),
                    );
                }
                mismatch("bce_with_logits", (1, 1))
            }
        }
    }
}

/// The input node indices an op reads.
fn op_inputs(op: &Op) -> Vec<usize> {
    match op {
        Op::Leaf { .. } => Vec::new(),
        Op::Matmul { a, b } | Op::Add { a, b } | Op::Sub { a, b } | Op::Mul { a, b } => {
            vec![a.0, b.0]
        }
        Op::AddRow { a, bias } => vec![a.0, bias.0],
        Op::Scale { a, .. }
        | Op::Sigmoid { a }
        | Op::Tanh { a }
        | Op::Relu { a }
        | Op::SliceCols { a, .. }
        | Op::SoftmaxRows { a }
        | Op::SelectRows { a, .. }
        | Op::MulMask { a, .. }
        | Op::SumAll { a }
        | Op::MeanAll { a } => vec![a.0],
        Op::ConcatCols { parts } => parts.iter().map(|v| v.0).collect(),
        Op::ChunkDot { q, chunks, .. } => vec![q.0, chunks.0],
        Op::LstmSeq {
            x, wx, wh, bias, ..
        } => vec![x.0, wx.0, wh.0, bias.0],
        Op::ChunkWeightedSum { w, chunks } => vec![w.0, chunks.0],
        Op::SoftmaxCe { logits, .. } => vec![logits.0],
        Op::BceLogits { logits, .. } => vec![logits.0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Node;
    use crate::Tensor2;

    /// A well-formed two-layer computation: all params live.
    fn healthy_tape() -> (Tape, Var) {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor2::from_rows(&[&[1.0, 2.0]]), false);
        let w = tape.leaf(Tensor2::from_rows(&[&[0.5], &[0.25]]), true);
        let b = tape.leaf(Tensor2::from_rows(&[&[0.1]]), true);
        let h = tape.matmul(x, w);
        let hb = tape.add_row(h, b);
        let y = tape.tanh(hb);
        let loss = tape.sum_all(y);
        (tape, loss)
    }

    #[test]
    fn healthy_tape_is_clean() {
        let (tape, loss) = healthy_tape();
        let report = tape.verify(loss).unwrap();
        assert_eq!(report.nodes, 7);
        assert_eq!(report.live_params, 2);
        assert!(report.dead_params.is_empty());
    }

    #[test]
    fn injected_shape_mismatch_is_caught() {
        let (mut tape, loss) = healthy_tape();
        // Corrupt the matmul result node (index 3): [1,1] -> [2,2].
        tape.nodes[3].value = Tensor2::zeros(2, 2);
        match tape.verify(loss) {
            Err(TapeError::ShapeMismatch {
                node: 3,
                op: "matmul",
                expected: (1, 1),
                got: (2, 2),
            }) => {}
            other => panic!("expected matmul shape mismatch, got {other:?}"),
        }
    }

    #[test]
    fn inconsistent_matmul_inputs_are_caught() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor2::zeros(1, 2), true);
        let b = tape.leaf(Tensor2::zeros(2, 1), false);
        let c = tape.matmul(a, b);
        // Widen `b` after the fact: inner dims now disagree.
        tape.nodes[1].value = Tensor2::zeros(3, 1);
        assert!(matches!(
            tape.verify(c),
            Err(TapeError::InconsistentInputs { op: "matmul", .. })
        ));
    }

    #[test]
    fn dead_parameter_subgraph_is_reported() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor2::from_rows(&[&[1.0]]), false);
        let w_live = tape.leaf(Tensor2::from_rows(&[&[2.0]]), true);
        // A parameter wired into a side computation the loss never
        // uses: it will get no gradient.
        let w_dead = tape.leaf(Tensor2::from_rows(&[&[3.0]]), true);
        let _side = tape.mul(x, w_dead);
        let y = tape.mul(x, w_live);
        let loss = tape.sum_all(y);
        let report = tape.verify(loss).unwrap();
        assert_eq!(report.live_params, 1);
        assert_eq!(report.dead_params, vec![w_dead]);
        // backward() itself agrees: the dead parameter has no grad.
        tape.backward(loss);
        assert!(tape.grad(w_dead).is_none());
        assert!(tape.grad(w_live).is_some());
    }

    #[test]
    fn forward_reference_is_caught() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor2::scalar(1.0), true);
        let b = tape.tanh(a);
        // Hand-craft a node whose input points at itself (index 2).
        tape.nodes.push(Node {
            op: Op::Tanh { a: Var(2) },
            value: Tensor2::scalar(0.0),
        });
        let bad = Var(2);
        assert_eq!(
            tape.verify(bad),
            Err(TapeError::IndexOutOfOrder { node: 2, input: 2 })
        );
        let _ = b;
    }

    #[test]
    fn out_of_range_output_is_caught() {
        let tape = Tape::new();
        assert_eq!(
            tape.verify(Var(0)),
            Err(TapeError::OutputOutOfRange { output: 0, len: 0 })
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "tape verification failed")]
    fn backward_verifies_under_debug_assertions() {
        let (mut tape, loss) = healthy_tape();
        tape.nodes[3].value = Tensor2::zeros(2, 2);
        tape.backward(loss);
    }

    /// A valid two-step `lstm_seq` over a batch of two; returns the
    /// tape, the loss, and the node index of the recurrent weights.
    fn lstm_seq_tape() -> (Tape, Var, usize) {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor2::full(4, 3, 0.5), false);
        let wx = tape.leaf(Tensor2::full(3, 8, 0.1), true);
        let wh = tape.leaf(Tensor2::full(2, 8, -0.1), true);
        let b = tape.leaf(Tensor2::zeros(1, 8), true);
        let h = tape.lstm_seq(x, wx, wh, b, 2);
        let loss = tape.sum_all(h);
        (tape, loss, wh.0)
    }

    #[test]
    fn lstm_seq_shapes_are_verified() {
        let (tape, loss, _) = lstm_seq_tape();
        let report = tape.verify(loss).unwrap();
        assert_eq!(report.live_params, 3);

        // Recurrent weights that are not four gates of `hidden` units.
        let (mut tape, loss, wh) = lstm_seq_tape();
        tape.nodes[wh].value = Tensor2::zeros(2, 6);
        assert!(matches!(
            tape.verify(loss),
            Err(TapeError::InconsistentInputs { op: "lstm_seq", .. })
        ));

        // An input whose rows no longer split into the recorded steps.
        let (mut tape, loss, _) = lstm_seq_tape();
        tape.nodes[0].value = Tensor2::zeros(5, 3);
        assert!(matches!(
            tape.verify(loss),
            Err(TapeError::InconsistentInputs { op: "lstm_seq", .. })
        ));

        // A stored output of the wrong batch.
        let (mut tape, loss, _) = lstm_seq_tape();
        tape.nodes[4].value = Tensor2::zeros(4, 2);
        assert_eq!(
            tape.verify(loss),
            Err(TapeError::ShapeMismatch {
                node: 4,
                op: "lstm_seq",
                expected: (2, 2),
                got: (4, 2),
            })
        );
    }

    #[test]
    fn verify_scales_to_model_sized_tapes() {
        // A deeper chain exercising every structural op once.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor2::zeros(4, 6), false);
        let p = tape.slice_cols(x, 0, 3);
        let q = tape.slice_cols(x, 3, 3);
        let cat = tape.concat_cols(&[p, q]);
        let w = tape.leaf(Tensor2::zeros(6, 4), true);
        let h = tape.matmul(cat, w);
        let s = tape.softmax_rows(h);
        let ce = tape.softmax_cross_entropy(h, &[0, 1, 2, 3]);
        let sm = tape.sum_all(s);
        let total = tape.add(ce, sm);
        let report = tape.verify(total).unwrap();
        assert_eq!(report.live_params, 1);
        assert!(report.dead_params.is_empty());
    }
}
