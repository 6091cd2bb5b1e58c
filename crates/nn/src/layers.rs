//! Layers used by the Voyager architecture (Fig. 2 of the paper).

use voyager_tensor::rng::Rng;
use voyager_tensor::{Tensor2, Var};

use crate::{Layer, ParamId, ParamStore, Session};

/// A fully-connected layer `y = x W + b`.
///
/// # Example
///
/// ```
/// use voyager_nn::{Layer, Linear, ParamStore, Session};
/// use voyager_tensor::Tensor2;
/// use voyager_tensor::rng::{StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut store = ParamStore::new();
/// let fc = Linear::new(&mut store, "fc", 3, 2, &mut rng);
/// let mut sess = Session::new();
/// let x = sess.tape.leaf(Tensor2::zeros(4, 3), false);
/// let y = fc.forward(&mut sess, &store, x);
/// assert_eq!(sess.tape.value(y).shape(), (4, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: ParamId,
    bias: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a `in_dim -> out_dim` layer in `store` with Xavier
    /// initialisation.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let weight = store.register(
            format!("{name}.weight"),
            Tensor2::xavier(in_dim, out_dim, rng),
        );
        let bias = store.register(format!("{name}.bias"), Tensor2::zeros(1, out_dim));
        Linear {
            weight,
            bias,
            in_dim,
            out_dim,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Id of the weight matrix parameter.
    pub fn weight_id(&self) -> ParamId {
        self.weight
    }

    /// Id of the bias parameter.
    pub fn bias_id(&self) -> ParamId {
        self.bias
    }
}

impl Layer<Var> for Linear {
    type Output = Var;

    /// Applies the layer to a `[batch, in_dim]` input.
    fn forward(&self, sess: &mut Session, store: &ParamStore, x: Var) -> Var {
        let w = sess.param(store, self.weight);
        let b = sess.param(store, self.bias);
        let xw = sess.tape.matmul(x, w);
        sess.tape.add_row(xw, b)
    }
}

/// A lookup-table embedding layer.
///
/// Voyager uses three of these: PC, page and offset embeddings
/// (Section 4.1). Lookups go through [`Session::gather`], so gradients
/// are sparse and only touched rows are updated.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Registers a `vocab x dim` embedding table initialised uniformly in
    /// `[-0.1, 0.1]`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        let table = store.register(
            format!("{name}.table"),
            Tensor2::uniform(vocab, dim, 0.1, rng),
        );
        Embedding { table, vocab, dim }
    }

    /// Vocabulary size (number of rows).
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension (number of columns).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Id of the table parameter.
    pub fn table_id(&self) -> ParamId {
        self.table
    }
}

impl<'a> Layer<&'a [usize]> for Embedding {
    type Output = Var;

    /// Looks up a batch of ids, producing a `[ids.len(), dim]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of vocabulary.
    fn forward(&self, sess: &mut Session, store: &ParamStore, ids: &'a [usize]) -> Var {
        sess.gather(store, self.table, ids)
    }
}

/// A standard LSTM cell (Hochreiter & Schmidhuber) with a fused gate
/// matrix, matching the page/offset LSTMs of Fig. 2 (1 layer, 256 units
/// in the paper's Table 1).
///
/// Gate layout in the fused `[.., 4*hidden]` matrices is `i, f, g, o`.
/// The forget-gate bias is initialised to 1.0, the usual trick to avoid
/// premature forgetting early in training.
///
/// The cell runs over a whole history window at once
/// ([`LstmCell::forward_seq`]): one tape node, one binding of each
/// weight, hence one optimizer update per weight per step.
#[derive(Debug, Clone)]
pub struct LstmCell {
    wx: ParamId,
    wh: ParamId,
    bias: ParamId,
    input_dim: usize,
    hidden: usize,
}

impl LstmCell {
    /// Registers an LSTM cell mapping `input_dim` inputs to `hidden`
    /// units.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden: usize,
        rng: &mut R,
    ) -> Self {
        let wx = store.register(
            format!("{name}.wx"),
            Tensor2::xavier(input_dim, 4 * hidden, rng),
        );
        let wh = store.register(
            format!("{name}.wh"),
            Tensor2::xavier(hidden, 4 * hidden, rng),
        );
        let mut b = Tensor2::zeros(1, 4 * hidden);
        for j in hidden..2 * hidden {
            b.set(0, j, 1.0); // forget gate bias
        }
        let bias = store.register(format!("{name}.bias"), b);
        LstmCell {
            wx,
            wh,
            bias,
            input_dim,
            hidden,
        }
    }

    /// Number of hidden units.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Parameter id of the fused `[input_dim, 4*hidden]` input weights.
    pub fn wx_id(&self) -> ParamId {
        self.wx
    }

    /// Parameter id of the fused `[hidden, 4*hidden]` recurrent weights.
    pub fn wh_id(&self) -> ParamId {
        self.wh
    }

    /// Parameter id of the fused `[1, 4*hidden]` gate bias.
    pub fn bias_id(&self) -> ParamId {
        self.bias
    }

    /// Runs the cell over a time-major sequence from the zero state and
    /// returns the final hidden state, `[batch, hidden]`.
    ///
    /// `x` is `[steps·batch, input_dim]`, step `t` in rows
    /// `t·batch .. (t+1)·batch`. The whole window is one
    /// [`lstm_seq`](voyager_tensor::Tape::lstm_seq) node, and the
    /// weights are bound once, however many steps there are.
    ///
    /// # Panics
    ///
    /// Panics if `x`'s rows do not split into `steps` steps or its width
    /// is not `input_dim`.
    pub fn forward_seq(&self, sess: &mut Session, store: &ParamStore, x: Var, steps: usize) -> Var {
        let wx = sess.param(store, self.wx);
        let wh = sess.param(store, self.wh);
        let b = sess.param(store, self.bias);
        sess.tape.lstm_seq(x, wx, wh, b, steps)
    }
}

/// The paper's page-aware offset embedding (Section 4.2.2, Fig. 3).
///
/// The offset embedding of width `n_experts * dim` is interpreted as
/// `n_experts` chunk embeddings ("experts"). The page embedding acts as
/// the attention *query*; each expert chunk is both *key* and *value*.
/// Scaled dot-product scores are softmax-normalised and the output is
/// the weighted sum of expert chunks — a `[batch, dim]` page-aware
/// offset embedding. This resolves the offset-aliasing problem without
/// learning a distinct embedding per (page, offset) pair.
#[derive(Debug, Clone, Copy)]
pub struct ExpertAttention {
    n_experts: usize,
    scale: f32,
}

impl ExpertAttention {
    /// Creates the attention mechanism with `n_experts` experts and the
    /// scaling factor `f` of Eq. 9 (the paper uses `f` in `(0, 1]`; a
    /// common choice is `1/sqrt(dim)`).
    ///
    /// # Panics
    ///
    /// Panics if `n_experts == 0` or `scale <= 0`.
    pub fn new(n_experts: usize, scale: f32) -> Self {
        assert!(n_experts > 0, "need at least one expert");
        assert!(scale > 0.0, "scale must be positive");
        ExpertAttention { n_experts, scale }
    }

    /// Number of experts.
    pub fn n_experts(&self) -> usize {
        self.n_experts
    }

    /// The score scaling factor `f` of Eq. 9.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Like the [`Layer`] `forward` but also returns the attention
    /// weights (`[batch, n_experts]`), useful for inspection and
    /// tests. Follows the same `(sess, store, input)` convention; the
    /// layer has no parameters, so `store` is unused.
    pub fn forward_with_weights(
        &self,
        sess: &mut Session,
        _store: &ParamStore,
        (page, offset_experts): (Var, Var),
    ) -> (Var, Var) {
        let t = &mut sess.tape;
        let scores = t.chunk_dot(page, offset_experts, self.n_experts);
        let scaled = t.scale(scores, self.scale);
        let weights = t.softmax_rows(scaled);
        let mixed = t.chunk_weighted_sum(weights, offset_experts);
        (mixed, weights)
    }
}

impl Layer<(Var, Var)> for ExpertAttention {
    type Output = Var;

    /// Applies attention to a `(page, offset_experts)` pair: `page` is
    /// `[batch, dim]`, `offset_experts` is `[batch, n_experts * dim]`;
    /// the result is `[batch, dim]`. The layer has no parameters, so
    /// `store` is unused.
    fn forward(&self, sess: &mut Session, store: &ParamStore, input: (Var, Var)) -> Var {
        self.forward_with_weights(sess, store, input).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Adam;
    use voyager_tensor::rng::{SeedableRng, StdRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn linear_shapes() {
        let mut rng = rng();
        let mut store = ParamStore::new();
        let fc = Linear::new(&mut store, "fc", 5, 3, &mut rng);
        assert_eq!((fc.in_dim(), fc.out_dim()), (5, 3));
        let mut sess = Session::new();
        let x = sess.tape.leaf(Tensor2::zeros(2, 5), false);
        let y = fc.forward(&mut sess, &store, x);
        assert_eq!(sess.tape.value(y).shape(), (2, 3));
    }

    #[test]
    fn embedding_lookup_matches_table() {
        let mut rng = rng();
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "e", 10, 4, &mut rng);
        assert_eq!((emb.vocab(), emb.dim()), (10, 4));
        let row3: Vec<f32> = store.value(emb.table_id()).row(3).to_vec();
        let mut sess = Session::new();
        let v = emb.forward(&mut sess, &store, &[3]);
        assert_eq!(sess.tape.value(v).row(0), &row3[..]);
    }

    #[test]
    fn lstm_state_changes_with_input() {
        let mut rng = rng();
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 3, 4, &mut rng);
        assert_eq!(cell.hidden(), 4);
        assert_eq!(cell.input_dim(), 3);
        let mut sess = Session::new();
        // One sequence, time-major: the state after step 1, and after
        // steps 1 and 2.
        let x1 = sess
            .tape
            .leaf(Tensor2::from_rows(&[&[1.0, 0.0, -1.0]]), false);
        let h1 = cell.forward_seq(&mut sess, &store, x1, 1);
        let x12 = sess.tape.leaf(
            Tensor2::from_rows(&[&[1.0, 0.0, -1.0], &[0.0, 2.0, 0.0]]),
            false,
        );
        let h2 = cell.forward_seq(&mut sess, &store, x12, 2);
        assert_ne!(
            sess.tape.value(h1).as_slice(),
            sess.tape.value(h2).as_slice()
        );
        // Bounded activations.
        for &v in sess.tape.value(h2).as_slice() {
            assert!(v.abs() <= 1.0);
        }
    }

    #[test]
    fn lstm_learns_to_remember_first_input() {
        // Tiny sequence task: output after 3 steps should equal the first
        // input's sign. Verifies end-to-end gradient flow through time.
        let mut rng = rng();
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 1, 8, &mut rng);
        let head = Linear::new(&mut store, "head", 8, 1, &mut rng);
        let mut adam = Adam::new(0.02);
        let mut final_loss = f32::INFINITY;
        for step in 0..300 {
            let first = if step % 2 == 0 { 1.0f32 } else { -1.0 };
            let mut sess = Session::new();
            let x = sess
                .tape
                .leaf(Tensor2::from_rows(&[&[first], &[0.0], &[0.0]]), false);
            let h = cell.forward_seq(&mut sess, &store, x, 3);
            let y = head.forward(&mut sess, &store, h);
            let t = sess.tape.leaf(Tensor2::scalar(first), false);
            let d = sess.tape.sub(y, t);
            let sq = sess.tape.mul(d, d);
            let loss = sess.tape.mean_all(sq);
            final_loss = sess.tape.value(loss).get(0, 0);
            sess.step(loss, &mut store, &mut adam);
        }
        assert!(final_loss < 0.1, "LSTM failed to learn: loss {final_loss}");
    }

    #[test]
    fn expert_attention_output_is_convex_combination() {
        let mut sess = Session::new();
        let store = ParamStore::new();
        // Two experts with constant chunks [1,1] and [3,3]: output must
        // lie between them.
        let page = sess.tape.leaf(Tensor2::from_rows(&[&[0.2, -0.1]]), false);
        let chunks = sess
            .tape
            .leaf(Tensor2::from_rows(&[&[1.0, 1.0, 3.0, 3.0]]), false);
        let attn = ExpertAttention::new(2, 1.0);
        let (out, w) = attn.forward_with_weights(&mut sess, &store, (page, chunks));
        let wsum: f32 = sess.tape.value(w).row(0).iter().sum();
        assert!((wsum - 1.0).abs() < 1e-6);
        for &v in sess.tape.value(out).as_slice() {
            assert!((1.0..=3.0).contains(&v), "not convex: {v}");
        }
    }

    #[test]
    fn expert_attention_matches_paper_figure3_example() {
        // Fig. 3 of the paper: page embedding (0.5, -0.5), offset
        // embedding chunks (0.3,0.6), (-0.4,0.2), (0.8,-0.4), with
        // unscaled dot-product attention. The dot products are
        // (-0.15, -0.3, 0.6), so the third chunk dominates after the
        // softmax (the figure rounds its weights; the exact softmax is
        // (0.251, 0.216, 0.532) giving output (0.415, -0.019)).
        let mut sess = Session::new();
        let store = ParamStore::new();
        let page = sess.tape.leaf(Tensor2::from_rows(&[&[0.5, -0.5]]), false);
        let chunks = sess.tape.leaf(
            Tensor2::from_rows(&[&[0.3, 0.6, -0.4, 0.2, 0.8, -0.4]]),
            false,
        );
        let attn = ExpertAttention::new(3, 1.0);
        let (out, w) = attn.forward_with_weights(&mut sess, &store, (page, chunks));
        let weights = sess.tape.value(w).row(0).to_vec();
        let argmax = (0..3)
            .max_by(|&a, &b| weights[a].total_cmp(&weights[b]))
            .unwrap();
        assert_eq!(argmax, 2, "third expert should dominate: {weights:?}");
        assert!((weights[2] - 0.532).abs() < 0.01, "weights {weights:?}");
        let o = sess.tape.value(out).row(0).to_vec();
        assert!(
            (o[0] - 0.415).abs() < 0.01 && (o[1] + 0.019).abs() < 0.01,
            "out {o:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one expert")]
    fn expert_attention_rejects_zero_experts() {
        let _ = ExpertAttention::new(0, 1.0);
    }
}
