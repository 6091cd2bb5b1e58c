//! Finite-difference gradient checking.
//!
//! Every op on the [`Tape`](crate::Tape) is verified against a central
//! finite difference in this crate's tests; downstream layer code (the
//! LSTM cell, the expert-attention embedding) reuses these helpers for
//! end-to-end checks.

use crate::Tensor2;

/// Computes a central finite-difference gradient of `f` with respect to
/// each input tensor.
///
/// `f` receives the perturbed inputs and must return a scalar loss. The
/// returned vector contains one gradient tensor per input, shaped like
/// that input.
///
/// # Example
///
/// ```
/// use voyager_tensor::{gradcheck, Tensor2};
///
/// let inputs = vec![Tensor2::from_rows(&[&[2.0]])];
/// let grads = gradcheck::numeric_grad(
///     |xs| {
///         let v = xs[0].get(0, 0);
///         v * v
///     },
///     &inputs,
///     1e-3,
/// );
/// assert!((grads[0].get(0, 0) - 4.0).abs() < 1e-2);
/// ```
pub fn numeric_grad(f: impl Fn(&[Tensor2]) -> f32, inputs: &[Tensor2], eps: f32) -> Vec<Tensor2> {
    let mut grads = Vec::with_capacity(inputs.len());
    for (which, input) in inputs.iter().enumerate() {
        let (rows, cols) = input.shape();
        let mut grad = Tensor2::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let mut plus: Vec<Tensor2> = inputs.to_vec();
                plus[which].set(r, c, input.get(r, c) + eps);
                let mut minus: Vec<Tensor2> = inputs.to_vec();
                minus[which].set(r, c, input.get(r, c) - eps);
                grad.set(r, c, (f(&plus) - f(&minus)) / (2.0 * eps));
            }
        }
        grads.push(grad);
    }
    grads
}

/// Asserts that `analytic` and `numeric` agree element-wise within a
/// mixed absolute/relative tolerance.
///
/// # Panics
///
/// Panics with a descriptive message on the first element that
/// disagrees.
pub fn assert_grads_close(analytic: &Tensor2, numeric: &Tensor2, tol: f32) {
    assert_eq!(analytic.shape(), numeric.shape(), "gradient shape mismatch");
    for (i, (&a, &n)) in analytic
        .as_slice()
        .iter()
        .zip(numeric.as_slice())
        .enumerate()
    {
        let denom = 1.0f32.max(a.abs()).max(n.abs());
        assert!(
            (a - n).abs() / denom < tol,
            "gradient mismatch at flat index {i}: analytic {a}, numeric {n}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{SeedableRng, StdRng};
    use crate::{Tape, Var};

    /// Checks one tape-built graph against finite differences.
    fn check(build: impl Fn(&mut Tape, &[Var]) -> Var, inputs: &[Tensor2], tol: f32) {
        let loss_of = |xs: &[Tensor2]| -> f32 {
            let mut tape = Tape::new();
            let vars: Vec<Var> = xs.iter().map(|x| tape.leaf(x.clone(), false)).collect();
            let out = build(&mut tape, &vars);
            tape.value(out).get(0, 0)
        };
        let numeric = numeric_grad(loss_of, inputs, 1e-2);

        let mut tape = Tape::new();
        let vars: Vec<Var> = inputs.iter().map(|x| tape.leaf(x.clone(), true)).collect();
        let out = build(&mut tape, &vars);
        tape.backward(out);
        for (var, num) in vars.iter().zip(&numeric) {
            let analytic = tape.grad(*var).expect("missing analytic gradient");
            assert_grads_close(analytic, num, tol);
        }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn gradcheck_matmul_chain() {
        let mut rng = rng();
        let a = Tensor2::uniform(3, 4, 0.5, &mut rng);
        let b = Tensor2::uniform(4, 2, 0.5, &mut rng);
        check(
            |t, v| {
                let c = t.matmul(v[0], v[1]);
                let s = t.tanh(c);
                t.sum_all(s)
            },
            &[a, b],
            2e-2,
        );
    }

    #[test]
    fn gradcheck_sigmoid_mul_sub() {
        let mut rng = rng();
        let a = Tensor2::uniform(2, 3, 1.0, &mut rng);
        let b = Tensor2::uniform(2, 3, 1.0, &mut rng);
        check(
            |t, v| {
                let s = t.sigmoid(v[0]);
                let m = t.mul(s, v[1]);
                let d = t.sub(m, v[0]);
                let sc = t.scale(d, 0.7);
                t.mean_all(sc)
            },
            &[a, b],
            2e-2,
        );
    }

    #[test]
    fn gradcheck_softmax_rows() {
        let mut rng = rng();
        let a = Tensor2::uniform(2, 4, 1.0, &mut rng);
        let w = Tensor2::uniform(2, 4, 1.0, &mut rng);
        check(
            |t, v| {
                let s = t.softmax_rows(v[0]);
                let m = t.mul(s, v[1]);
                t.sum_all(m)
            },
            &[a, w],
            2e-2,
        );
    }

    #[test]
    fn gradcheck_softmax_cross_entropy() {
        let mut rng = rng();
        let a = Tensor2::uniform(3, 5, 1.0, &mut rng);
        check(|t, v| t.softmax_cross_entropy(v[0], &[0, 3, 2]), &[a], 2e-2);
    }

    #[test]
    fn gradcheck_bce_with_logits() {
        let mut rng = rng();
        let a = Tensor2::uniform(2, 4, 1.0, &mut rng);
        let targets = Tensor2::from_rows(&[&[1.0, 0.0, 1.0, 0.0], &[0.0, 0.0, 1.0, 1.0]]);
        check(|t, v| t.bce_with_logits(v[0], &targets), &[a], 2e-2);
    }

    #[test]
    fn gradcheck_concat_slice_relu() {
        let mut rng = rng();
        let a = Tensor2::uniform(2, 3, 1.0, &mut rng);
        let b = Tensor2::uniform(2, 2, 1.0, &mut rng);
        check(
            |t, v| {
                let c = t.concat_cols(&[v[0], v[1]]);
                let s = t.slice_cols(c, 1, 3);
                let r = t.relu(s);
                t.sum_all(r)
            },
            &[a, b],
            2e-2,
        );
    }

    #[test]
    fn gradcheck_attention_ops() {
        let mut rng = rng();
        // Full attention pattern: scores = chunk_dot, weights = softmax,
        // mixed = chunk_weighted_sum — exactly the page-aware offset
        // embedding of the paper.
        let q = Tensor2::uniform(2, 3, 0.8, &mut rng);
        let chunks = Tensor2::uniform(2, 12, 0.8, &mut rng); // 4 experts of dim 3
        check(
            |t, v| {
                let scores = t.chunk_dot(v[0], v[1], 4);
                let w = t.softmax_rows(scores);
                let mixed = t.chunk_weighted_sum(w, v[1]);
                let sq = t.mul(mixed, mixed);
                t.sum_all(sq)
            },
            &[q, chunks],
            3e-2,
        );
    }

    #[test]
    fn gradcheck_select_rows_with_repeats() {
        let mut rng = rng();
        // Repeated indices: row 1 is selected twice, row 2 never — the
        // scatter-add backward must accumulate duplicates and leave
        // unselected rows at zero.
        let a = Tensor2::uniform(3, 4, 1.0, &mut rng);
        let w = Tensor2::uniform(4, 4, 1.0, &mut rng);
        check(
            |t, v| {
                let s = t.select_rows(v[0], &[1, 0, 1, 0]);
                let m = t.mul(s, v[1]);
                let sm = t.tanh(m);
                t.sum_all(sm)
            },
            &[a, w],
            2e-2,
        );
    }

    #[test]
    fn gradcheck_lstm_seq() {
        let mut rng = rng();
        // Three steps of a batch of two through a 2-unit LSTM: BPTT must
        // carry gradient through both the hidden and the cell state.
        let (steps, batch, input, hidden) = (3, 2, 3, 2);
        let x = Tensor2::uniform(steps * batch, input, 1.0, &mut rng);
        let wx = Tensor2::uniform(input, 4 * hidden, 0.8, &mut rng);
        let wh = Tensor2::uniform(hidden, 4 * hidden, 0.8, &mut rng);
        let bias = Tensor2::uniform(1, 4 * hidden, 0.5, &mut rng);
        let probe = Tensor2::uniform(batch, hidden, 1.0, &mut rng);
        check(
            |t, v| {
                let h = t.lstm_seq(v[0], v[1], v[2], v[3], steps);
                let p = t.leaf(probe.clone(), false);
                let hp = t.mul(h, p);
                let sq = t.mul(hp, h);
                t.sum_all(sq)
            },
            &[x, wx, wh, bias],
            2e-2,
        );
    }

    #[test]
    fn gradcheck_add_row_bias() {
        let mut rng = rng();
        let a = Tensor2::uniform(3, 2, 1.0, &mut rng);
        let bias = Tensor2::uniform(1, 2, 1.0, &mut rng);
        check(
            |t, v| {
                let c = t.add_row(v[0], v[1]);
                let s = t.tanh(c);
                t.mean_all(s)
            },
            &[a, bias],
            2e-2,
        );
    }
}
