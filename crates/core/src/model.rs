//! The Voyager neural network (paper Fig. 2).

use voyager_tensor::rng::{SeedableRng, StdRng};

use voyager_nn::{
    compress, Adam, Embedding, ExpertAttention, GradSet, HierarchicalSoftmax, Layer, Linear,
    LstmCell, ParamStore, Session,
};
use voyager_tensor::{Tensor2, Var};

use crate::{OutputHead, VoyagerConfig};

/// A minibatch of token sequences: `[batch][seq_len]` ids for PCs,
/// pages and offsets.
#[derive(Debug, Clone, Default)]
pub struct SeqBatch {
    /// PC token ids.
    pub pc: Vec<Vec<usize>>,
    /// Page token ids.
    pub page: Vec<Vec<usize>>,
    /// Offset token ids (0..64).
    pub offset: Vec<Vec<usize>>,
}

impl SeqBatch {
    /// Number of sequences in the batch.
    pub fn len(&self) -> usize {
        self.page.len()
    }

    /// Returns `true` when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.page.is_empty()
    }

    /// Sequence length (0 for an empty batch).
    pub fn seq_len(&self) -> usize {
        self.page.first().map_or(0, Vec::len)
    }

    /// Walks `[batch][seq_len]` ids time-major: every sequence's
    /// step-0 id, then every step-1 id, and so on — the row order of
    /// the LSTM input (`[seq_len·batch, ..]`).
    pub(crate) fn time_major(ids: &[Vec<usize>]) -> impl Iterator<Item = usize> + '_ {
        let steps = ids.first().map_or(0, Vec::len);
        (0..steps).flat_map(move |t| ids.iter().map(move |seq| seq[t]))
    }

    pub(crate) fn validate(&self) {
        assert_eq!(self.pc.len(), self.page.len(), "pc/page batch mismatch");
        assert_eq!(
            self.offset.len(),
            self.page.len(),
            "offset/page batch mismatch"
        );
        let l = self.seq_len();
        assert!(l > 0, "empty sequences");
        for seq in self.pc.iter().chain(&self.page).chain(&self.offset) {
            assert_eq!(seq.len(), l, "ragged sequence lengths");
        }
    }
}

/// The page output head: a flat dense linear layer (the paper's
/// trained configuration, `O(V)` per step) or the two-level
/// hierarchical softmax (Section 5.5, `O(sqrt(V))`).
#[derive(Debug)]
pub(crate) enum PageHead {
    /// Flat `[hidden, vocab]` linear head.
    Dense(Linear),
    /// Two-level cluster/branch head.
    Hier(HierarchicalSoftmax),
}

/// The `clusters x branch` grid used for a hierarchical page head over
/// `vocab` classes: `branch = min(ceil(sqrt(vocab)), 256)` (capped so
/// the per-cluster leaf GEMM stays register-blocking-friendly at huge
/// vocabularies), `clusters = ceil(vocab / branch)`.
pub fn hier_shape(vocab: usize) -> (usize, usize) {
    let v = vocab.max(1);
    let branch = ((v as f64).sqrt().ceil() as usize).clamp(1, 256);
    (v.div_ceil(branch), branch)
}

/// The hierarchical neural prefetching model.
///
/// Owns its parameters and optimizer; [`VoyagerModel::train_multi`] /
/// [`VoyagerModel::train_single`] run one gradient step and
/// [`VoyagerModel::predict`] produces degree-k candidate
/// (page, offset) token pairs.
#[derive(Debug)]
pub struct VoyagerModel {
    pub(crate) cfg: VoyagerConfig,
    pub(crate) store: ParamStore,
    adam: Adam,
    rng: StdRng,
    pub(crate) pc_emb: Embedding,
    pub(crate) page_emb: Embedding,
    pub(crate) offset_emb: Embedding,
    pub(crate) attn: ExpertAttention,
    pub(crate) page_lstm: LstmCell,
    pub(crate) offset_lstm: LstmCell,
    pub(crate) page_head: PageHead,
    pub(crate) offset_head: Linear,
    pub(crate) page_vocab: usize,
    pub(crate) offset_vocab: usize,
    pub(crate) infer: crate::fastpath::InferState,
}

impl VoyagerModel {
    /// Builds a model for the given vocabulary sizes.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`VoyagerConfig::validate`]).
    pub fn new(
        cfg: &VoyagerConfig,
        pc_vocab: usize,
        page_vocab: usize,
        offset_vocab: usize,
    ) -> Self {
        cfg.validate();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let pc_emb = Embedding::new(
            &mut store,
            "pc_emb",
            pc_vocab.max(1),
            cfg.pc_embed,
            &mut rng,
        );
        let page_emb = Embedding::new(
            &mut store,
            "page_emb",
            page_vocab.max(1),
            cfg.page_embed,
            &mut rng,
        );
        // With attention, the offset embedding is `experts` chunks of
        // page_embed each (Fig. 3); the naive ablation uses a plain
        // page_embed-wide embedding that aliases across pages.
        let offset_width = if cfg.page_aware_attention {
            cfg.offset_embed()
        } else {
            cfg.page_embed
        };
        let offset_emb = Embedding::new(
            &mut store,
            "offset_emb",
            offset_vocab,
            offset_width,
            &mut rng,
        );
        let attn = ExpertAttention::new(cfg.experts, 1.0 / (cfg.page_embed as f32).sqrt());
        let input_dim = input_dim(cfg);
        let page_lstm = LstmCell::new(&mut store, "page_lstm", input_dim, cfg.lstm_units, &mut rng);
        let offset_lstm = LstmCell::new(
            &mut store,
            "offset_lstm",
            input_dim,
            cfg.lstm_units,
            &mut rng,
        );
        let page_head = match cfg.output_head {
            OutputHead::Dense => PageHead::Dense(Linear::new(
                &mut store,
                "page_head",
                cfg.lstm_units,
                page_vocab.max(1),
                &mut rng,
            )),
            OutputHead::Hier => {
                let (clusters, branch) = hier_shape(page_vocab);
                PageHead::Hier(HierarchicalSoftmax::with_shape(
                    &mut store,
                    "page_head",
                    cfg.lstm_units,
                    page_vocab.max(1),
                    clusters,
                    branch,
                    &mut rng,
                ))
            }
        };
        let offset_head = Linear::new(
            &mut store,
            "offset_head",
            cfg.lstm_units,
            offset_vocab,
            &mut rng,
        );
        VoyagerModel {
            cfg: *cfg,
            store,
            adam: Adam::new(cfg.learning_rate),
            rng,
            pc_emb,
            page_emb,
            offset_emb,
            attn,
            page_lstm,
            offset_lstm,
            page_head,
            offset_head,
            page_vocab,
            offset_vocab,
            infer: crate::fastpath::InferState::default(),
        }
    }

    /// Page vocabulary size the heads were built for.
    pub fn page_vocab(&self) -> usize {
        self.page_vocab
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &VoyagerConfig {
        &self.cfg
    }

    /// Borrows the parameter store (for size accounting).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutably borrows the parameter store (for pruning/quantization in
    /// the Section 5.4 experiments).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Applies one learning-rate decay step (Table 1: ratio 2).
    pub fn decay_lr(&mut self) {
        self.adam.decay_lr(self.cfg.lr_decay);
    }

    /// Storage accounting for Fig. 17.
    pub fn model_size(&self) -> compress::ModelSize {
        compress::model_size(&self.store)
    }

    /// Writes a weight checkpoint (the Section 5.5 profile-then-deploy
    /// workflow: train offline, ship the weights to the inference
    /// engine). A `&mut` reference may be passed for `writer`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        voyager_nn::serialize::save_params(writer, &self.store)
    }

    /// Restores a checkpoint written by [`VoyagerModel::save`] into a
    /// model built with the same configuration and vocabulary sizes.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or layout mismatch (different
    /// config or vocabulary).
    pub fn load<R: std::io::Read>(
        &mut self,
        reader: R,
    ) -> Result<(), voyager_nn::serialize::LoadParamsError> {
        voyager_nn::serialize::load_params(reader, &mut self.store)
    }

    /// Writes a *training-state* checkpoint: weights plus optimizer
    /// state (Adam moments, step count, decayed learning rate), so an
    /// interrupted training run resumes exactly where it stopped —
    /// unlike [`VoyagerModel::save`], which ships weights only.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_training_state<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        voyager_nn::serialize::save_training_state(writer, &self.store, &self.adam)
    }

    /// Restores a checkpoint written by
    /// [`VoyagerModel::save_training_state`] into a model built with the
    /// same configuration and vocabulary sizes.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or layout mismatch.
    pub fn load_training_state<R: std::io::Read>(
        &mut self,
        reader: R,
    ) -> Result<(), voyager_nn::serialize::LoadParamsError> {
        voyager_nn::serialize::load_training_state(reader, &mut self.store, &mut self.adam)
    }

    /// Clones all parameter values, for broadcasting to replicas built
    /// with the same configuration and vocabulary sizes (see
    /// [`VoyagerModel::import_param_values`]).
    pub fn export_param_values(&self) -> Vec<Tensor2> {
        self.store.export_values()
    }

    /// Overwrites this model's parameters with values exported from a
    /// same-layout model via [`VoyagerModel::export_param_values`].
    ///
    /// # Panics
    ///
    /// Panics on layout mismatch.
    pub fn import_param_values(&mut self, values: &[Tensor2]) {
        self.store.import_values(values);
    }

    /// Forward + backward on a multi-label batch *without* updating the
    /// parameters: returns the summed loss and the materialized
    /// gradients. Data-parallel workers run this on their shard; the
    /// aggregated set is applied with [`VoyagerModel::apply_grad_set`].
    ///
    /// Dropout is driven by the model's own RNG, so replicas are only
    /// bitwise-reproducible when `dropout_keep == 1.0`.
    pub fn grad_multi(
        &mut self,
        batch: &SeqBatch,
        page_targets: &Tensor2,
        offset_targets: &Tensor2,
    ) -> (f32, GradSet) {
        assert_eq!(page_targets.shape(), (batch.len(), self.page_vocab));
        assert_eq!(offset_targets.shape(), (batch.len(), self.offset_vocab));
        let mut sess = Session::new();
        let loss = self.multi_loss(
            &mut sess,
            batch,
            PageMulti::Dense(page_targets),
            offset_targets,
        );
        let value = sess.tape.value(loss).get(0, 0);
        (value, sess.collect_grads(loss))
    }

    /// Sparse-target counterpart of [`VoyagerModel::grad_multi`]: page
    /// positives arrive as per-row class lists instead of a `[batch,
    /// vocab]` multi-hot, so target construction stays `O(positives)`
    /// at 100x vocabularies.
    pub fn grad_multi_sparse(
        &mut self,
        batch: &SeqBatch,
        page_positives: &[Vec<usize>],
        offset_targets: &Tensor2,
    ) -> (f32, GradSet) {
        assert_eq!(
            page_positives.len(),
            batch.len(),
            "one positive list per row"
        );
        assert_eq!(offset_targets.shape(), (batch.len(), self.offset_vocab));
        let mut sess = Session::new();
        let loss = self.multi_loss(
            &mut sess,
            batch,
            PageMulti::Sparse(page_positives),
            offset_targets,
        );
        let value = sess.tape.value(loss).get(0, 0);
        (value, sess.collect_grads(loss))
    }

    /// Single-label counterpart of [`VoyagerModel::grad_multi`].
    pub fn grad_single(
        &mut self,
        batch: &SeqBatch,
        page_targets: &[usize],
        offset_targets: &[usize],
    ) -> (f32, GradSet) {
        let mut sess = Session::new();
        let loss = self.single_loss(&mut sess, batch, page_targets, offset_targets);
        let value = sess.tape.value(loss).get(0, 0);
        (value, sess.collect_grads(loss))
    }

    /// Applies one optimizer step from gradients collected via
    /// [`VoyagerModel::grad_multi`] / [`VoyagerModel::grad_single`]
    /// (possibly reduced across replicas with
    /// [`GradSet::merge_scaled`]).
    pub fn apply_grad_set(&mut self, grads: &GradSet) {
        self.adam.apply_grad_set(&mut self.store, grads);
    }

    /// Builds the combined page + offset loss for a multi-label batch,
    /// routing the page side through the configured output head.
    fn multi_loss(
        &mut self,
        sess: &mut Session,
        batch: &SeqBatch,
        page_targets: PageMulti<'_>,
        offset_targets: &Tensor2,
    ) -> Var {
        let (ph, oh) = self.forward_trunk(sess, batch, true);
        let lp = match (&self.page_head, page_targets) {
            (PageHead::Dense(lin), PageMulti::Dense(t)) => {
                let pl = lin.forward(sess, &self.store, ph);
                sess.tape.bce_with_logits(pl, t)
            }
            (PageHead::Dense(lin), PageMulti::Sparse(pos)) => {
                let mut t = Tensor2::zeros(pos.len(), self.page_vocab.max(1));
                for (row, classes) in pos.iter().enumerate() {
                    for &c in classes {
                        assert!(
                            c < self.page_vocab,
                            "page class {c} out of {}",
                            self.page_vocab
                        );
                        t.set(row, c, 1.0);
                    }
                }
                let pl = lin.forward(sess, &self.store, ph);
                sess.tape.bce_with_logits(pl, &t)
            }
            (PageHead::Hier(hs), PageMulti::Dense(t)) => {
                let pos = dense_to_positives(t);
                hs.loss_multi(sess, &self.store, ph, &pos)
            }
            (PageHead::Hier(hs), PageMulti::Sparse(pos)) => {
                hs.loss_multi(sess, &self.store, ph, pos)
            }
        };
        let ol = self.offset_head.forward(sess, &self.store, oh);
        let lo = sess.tape.bce_with_logits(ol, offset_targets);
        sess.tape.add(lp, lo)
    }

    /// Builds the combined page + offset loss for a single-label batch.
    fn single_loss(
        &mut self,
        sess: &mut Session,
        batch: &SeqBatch,
        page_targets: &[usize],
        offset_targets: &[usize],
    ) -> Var {
        let (ph, oh) = self.forward_trunk(sess, batch, true);
        let lp = match &self.page_head {
            PageHead::Dense(lin) => {
                let pl = lin.forward(sess, &self.store, ph);
                sess.tape.softmax_cross_entropy(pl, page_targets)
            }
            PageHead::Hier(hs) => hs.loss(sess, &self.store, ph, page_targets),
        };
        let ol = self.offset_head.forward(sess, &self.store, oh);
        let lo = sess.tape.softmax_cross_entropy(ol, offset_targets);
        sess.tape.add(lp, lo)
    }

    /// Shared trunk (embeddings → attention → both LSTMs): returns the
    /// final `(page_h, offset_h)` hidden states. The caller applies the
    /// heads, which depend on the configured page output head.
    ///
    /// The whole window runs time-major (`[seq_len·batch, ..]` rows):
    /// one gather per embedding table, one attention, one concat, one
    /// dropout mask (drawn in the row order of the per-step masks it
    /// replaces), and one `lstm_seq` node per LSTM.
    fn forward_trunk(&mut self, sess: &mut Session, batch: &SeqBatch, train: bool) -> (Var, Var) {
        batch.validate();
        let mut parts: Vec<Var> = Vec::with_capacity(3);
        if self.cfg.features.pc {
            let pc_ids: Vec<usize> = SeqBatch::time_major(&batch.pc).collect();
            parts.push(self.pc_emb.forward(sess, &self.store, &pc_ids));
        }
        if self.cfg.features.address {
            let page_ids: Vec<usize> = SeqBatch::time_major(&batch.page).collect();
            let offset_ids: Vec<usize> = SeqBatch::time_major(&batch.offset).collect();
            let pg = self.page_emb.forward(sess, &self.store, &page_ids);
            let of = self.offset_emb.forward(sess, &self.store, &offset_ids);
            // The page-aware offset embedding (Section 4.2.2), or the
            // naive shared offset embedding in the aliasing ablation.
            let of_ctx = if self.cfg.page_aware_attention {
                self.attn.forward(sess, &self.store, (pg, of))
            } else {
                of
            };
            parts.push(pg);
            parts.push(of_ctx);
        }
        let mut x = sess.tape.concat_cols(&parts);
        if train && self.cfg.dropout_keep < 1.0 {
            x = sess.tape.dropout(x, self.cfg.dropout_keep, &mut self.rng);
        }
        let steps = batch.seq_len();
        let page_h = self.page_lstm.forward_seq(sess, &self.store, x, steps);
        let offset_h = self.offset_lstm.forward_seq(sess, &self.store, x, steps);
        (page_h, offset_h)
    }

    /// One multi-label training step (Section 4.4): binary cross-entropy
    /// against multi-hot page and offset targets. Returns the summed
    /// loss.
    ///
    /// # Panics
    ///
    /// Panics if target shapes do not match `[batch, vocab]`.
    pub fn train_multi(
        &mut self,
        batch: &SeqBatch,
        page_targets: &Tensor2,
        offset_targets: &Tensor2,
    ) -> f32 {
        assert_eq!(page_targets.shape(), (batch.len(), self.page_vocab));
        assert_eq!(offset_targets.shape(), (batch.len(), self.offset_vocab));
        let mut sess = Session::new();
        let loss = self.multi_loss(
            &mut sess,
            batch,
            PageMulti::Dense(page_targets),
            offset_targets,
        );
        let value = sess.tape.value(loss).get(0, 0);
        sess.step(loss, &mut self.store, &mut self.adam);
        value
    }

    /// One multi-label training step with sparse page targets: per-row
    /// lists of positive page classes instead of a `[batch, vocab]`
    /// multi-hot tensor. With the hierarchical head this is the only
    /// step cost that exists — nothing `O(vocab)` is ever materialized.
    /// Returns the summed loss.
    ///
    /// # Panics
    ///
    /// Panics on row-count mismatch, an empty positive list (with the
    /// hierarchical head), or out-of-range classes.
    pub fn train_multi_sparse(
        &mut self,
        batch: &SeqBatch,
        page_positives: &[Vec<usize>],
        offset_targets: &Tensor2,
    ) -> f32 {
        assert_eq!(
            page_positives.len(),
            batch.len(),
            "one positive list per row"
        );
        assert_eq!(offset_targets.shape(), (batch.len(), self.offset_vocab));
        let mut sess = Session::new();
        let loss = self.multi_loss(
            &mut sess,
            batch,
            PageMulti::Sparse(page_positives),
            offset_targets,
        );
        let value = sess.tape.value(loss).get(0, 0);
        sess.step(loss, &mut self.store, &mut self.adam);
        value
    }

    /// One single-label training step (softmax cross-entropy), used by
    /// the Fig. 12 / Fig. 15 ablations. Returns the summed loss.
    pub fn train_single(
        &mut self,
        batch: &SeqBatch,
        page_targets: &[usize],
        offset_targets: &[usize],
    ) -> f32 {
        let mut sess = Session::new();
        let loss = self.single_loss(&mut sess, batch, page_targets, offset_targets);
        let value = sess.tape.value(loss).get(0, 0);
        sess.step(loss, &mut self.store, &mut self.adam);
        value
    }

    /// Degree-`k` inference: returns, per sequence, up to `k`
    /// `(page_token, offset_token, score)` candidates ranked by the
    /// product of page and offset probabilities (the paper's top-k
    /// extension of its argmax inference).
    pub fn predict(&mut self, batch: &SeqBatch, k: usize) -> Vec<Vec<(u32, u32, f32)>> {
        let mut sess = Session::new();
        let (ph, oh) = self.forward_trunk(&mut sess, batch, false);
        let ol = self.offset_head.forward(&mut sess, &self.store, oh);
        let op = sess.tape.softmax_rows(ol);
        match &self.page_head {
            PageHead::Dense(lin) => {
                let pl = lin.forward(&mut sess, &self.store, ph);
                let pp = sess.tape.softmax_rows(pl);
                let page_probs = sess.tape.value(pp);
                let offset_probs = sess.tape.value(op);
                // Candidate selection and ranking are shared with the
                // tape-free fast path (crate::fastpath), so the two
                // cannot drift.
                let mut scratch = crate::fastpath::RankScratch::default();
                let mut out = Vec::with_capacity(batch.len());
                for row in 0..batch.len() {
                    out.push(crate::fastpath::rank_row(
                        page_probs,
                        offset_probs,
                        row,
                        k,
                        self.page_vocab,
                        self.offset_vocab,
                        &mut scratch,
                    ));
                }
                out
            }
            PageHead::Hier(hs) => {
                // The hierarchical scoring (cluster GEMM → shortlist →
                // branch GEMMs) is ONE routine shared with predict_fast
                // — identity between the two paths holds by
                // construction.
                let h = sess.tape.value(ph);
                let offset_probs = sess.tape.value(op);
                crate::fastpath::hier_candidates(
                    &self.store,
                    hs,
                    h,
                    self.cfg.hier_fan,
                    &mut self.infer.hier,
                );
                let st = &mut self.infer;
                let mut out = Vec::with_capacity(batch.len());
                for row in 0..batch.len() {
                    out.push(crate::fastpath::rank_row_sparse(
                        &st.hier,
                        row,
                        offset_probs,
                        k,
                        self.offset_vocab,
                        &mut st.rank,
                    ));
                }
                out
            }
        }
    }
}

/// Multi-label page targets: the dense `[batch, vocab]` multi-hot the
/// original API takes, or per-row positive-class lists.
enum PageMulti<'a> {
    Dense(&'a Tensor2),
    Sparse(&'a [Vec<usize>]),
}

/// Scans a dense multi-hot tensor into per-row positive class lists
/// (entries > 0.5 count as positive).
fn dense_to_positives(targets: &Tensor2) -> Vec<Vec<usize>> {
    (0..targets.rows())
        .map(|row| {
            targets
                .row(row)
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v > 0.5)
                .map(|(c, _)| c)
                .collect()
        })
        .collect()
}

fn input_dim(cfg: &VoyagerConfig) -> usize {
    let mut dim = 0;
    if cfg.features.pc {
        dim += cfg.pc_embed;
    }
    if cfg.features.address {
        dim += cfg.page_embed * 2; // page embedding + page-aware offset embedding
    }
    dim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeatureSet;
    use voyager_tensor::Tensor2;

    fn batch(b: usize, l: usize) -> SeqBatch {
        SeqBatch {
            pc: vec![vec![0; l]; b],
            page: (0..b).map(|i| vec![i % 3; l]).collect(),
            offset: (0..b).map(|i| vec![(i * 7) % 64; l]).collect(),
        }
    }

    #[test]
    fn predict_shapes_and_scores() {
        let cfg = VoyagerConfig::test();
        let mut m = VoyagerModel::new(&cfg, 16, 32, 64);
        let preds = m.predict(&batch(3, cfg.seq_len), 4);
        assert_eq!(preds.len(), 3);
        for row in &preds {
            assert_eq!(row.len(), 4);
            // Ranked descending.
            for w in row.windows(2) {
                assert!(w[0].2 >= w[1].2);
            }
            for &(p, o, s) in row {
                assert!((p as usize) < 32 && (o as usize) < 64);
                assert!((0.0..=1.0).contains(&s));
            }
        }
    }

    #[test]
    fn multi_label_loss_decreases_on_fixed_batch() {
        let cfg = VoyagerConfig::test();
        let mut m = VoyagerModel::new(&cfg, 16, 32, 64);
        let b = batch(8, cfg.seq_len);
        let mut pt = Tensor2::zeros(8, 32);
        let mut ot = Tensor2::zeros(8, 64);
        for i in 0..8 {
            pt.set(i, (i * 5) % 32, 1.0);
            ot.set(i, (i * 11) % 64, 1.0);
        }
        let first = m.train_multi(&b, &pt, &ot);
        let mut last = first;
        for _ in 0..30 {
            last = m.train_multi(&b, &pt, &ot);
        }
        assert!(
            last < first * 0.8,
            "loss did not decrease: {first} -> {last}"
        );
    }

    #[test]
    fn single_label_overfits_tiny_mapping() {
        let cfg = VoyagerConfig::test();
        let mut m = VoyagerModel::new(&cfg, 16, 8, 64);
        // Two distinguishable sequences with distinct labels.
        let b = SeqBatch {
            pc: vec![vec![1; 4], vec![2; 4]],
            page: vec![vec![3; 4], vec![5; 4]],
            offset: vec![vec![10; 4], vec![20; 4]],
        };
        for _ in 0..80 {
            m.train_single(&b, &[6, 7], &[30, 40]);
        }
        let preds = m.predict(&b, 1);
        assert_eq!(preds[0][0].0, 6);
        assert_eq!(preds[0][0].1, 30);
        assert_eq!(preds[1][0].0, 7);
        assert_eq!(preds[1][0].1, 40);
    }

    #[test]
    fn grad_then_apply_matches_train_multi() {
        // The decomposed collect/apply path must reproduce the fused
        // train_multi path bit for bit (dropout is off in the test
        // config, so both run the same computation).
        let cfg = VoyagerConfig::test();
        let mut fused = VoyagerModel::new(&cfg, 16, 32, 64);
        let mut split = VoyagerModel::new(&cfg, 16, 32, 64);
        let b = batch(6, cfg.seq_len);
        let mut pt = Tensor2::zeros(6, 32);
        let mut ot = Tensor2::zeros(6, 64);
        for i in 0..6 {
            pt.set(i, (i * 5) % 32, 1.0);
            ot.set(i, (i * 11) % 64, 1.0);
        }
        for _ in 0..3 {
            let lf = fused.train_multi(&b, &pt, &ot);
            let (ls, grads) = split.grad_multi(&b, &pt, &ot);
            split.apply_grad_set(&grads);
            assert_eq!(lf, ls);
        }
        for ((_, _, va), (_, _, vb)) in fused.store().iter().zip(split.store().iter()) {
            assert_eq!(va.as_slice(), vb.as_slice());
        }
    }

    #[test]
    fn grad_multi_has_one_entry_per_parameter() {
        // Every parameter is bound once per step, so the gradient set
        // holds one entry per parameter tensor and no id twice.
        let cfg = VoyagerConfig::test();
        let mut m = VoyagerModel::new(&cfg, 16, 32, 64);
        let b = batch(5, cfg.seq_len);
        let mut pt = Tensor2::zeros(5, 32);
        let mut ot = Tensor2::zeros(5, 64);
        for i in 0..5 {
            pt.set(i, (i * 3) % 32, 1.0);
            ot.set(i, (i * 9) % 64, 1.0);
        }
        let (_, grads) = m.grad_multi(&b, &pt, &ot);
        let mut ids: Vec<_> = grads.iter().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), m.store().len());
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), m.store().len(), "a parameter appears twice");
    }

    #[test]
    fn time_major_orders_rows_by_step() {
        let ids = vec![vec![1, 2, 3], vec![4, 5, 6]];
        let flat: Vec<usize> = SeqBatch::time_major(&ids).collect();
        assert_eq!(flat, vec![1, 4, 2, 5, 3, 6]);
        assert_eq!(SeqBatch::time_major(&[]).count(), 0);
    }

    #[test]
    fn param_value_export_import_syncs_replicas() {
        let cfg = VoyagerConfig::test();
        let mut a = VoyagerModel::new(&cfg, 16, 32, 64);
        let mut cfg2 = cfg;
        cfg2.seed = 99; // different init, same layout
        let mut b = VoyagerModel::new(&cfg2, 16, 32, 64);
        let b4 = batch(4, cfg.seq_len);
        let mut pt = Tensor2::zeros(4, 32);
        let mut ot = Tensor2::zeros(4, 64);
        for i in 0..4 {
            pt.set(i, i * 7, 1.0);
            ot.set(i, i * 13, 1.0);
        }
        for _ in 0..5 {
            a.train_multi(&b4, &pt, &ot);
        }
        b.import_param_values(&a.export_param_values());
        assert_eq!(a.predict(&b4, 2), b.predict(&b4, 2));
    }

    #[test]
    fn training_state_roundtrip_resumes_bitwise() {
        let cfg = VoyagerConfig::test();
        let mut a = VoyagerModel::new(&cfg, 16, 32, 64);
        let b4 = batch(4, cfg.seq_len);
        let mut pt = Tensor2::zeros(4, 32);
        let mut ot = Tensor2::zeros(4, 64);
        for i in 0..4 {
            pt.set(i, i * 7, 1.0);
            ot.set(i, i * 13, 1.0);
        }
        for _ in 0..5 {
            a.train_multi(&b4, &pt, &ot);
        }
        a.decay_lr(); // state beyond the weights must survive the roundtrip
        let mut buf = Vec::new();
        a.save_training_state(&mut buf).unwrap();
        let mut b = VoyagerModel::new(&cfg, 16, 32, 64);
        b.load_training_state(buf.as_slice()).unwrap();
        for _ in 0..5 {
            let la = a.train_multi(&b4, &pt, &ot);
            let lb = b.train_multi(&b4, &pt, &ot);
            assert_eq!(la, lb);
        }
    }

    #[test]
    fn pc_feature_can_be_disabled() {
        let cfg = VoyagerConfig::test().with_features(FeatureSet {
            pc: false,
            address: true,
        });
        let mut m = VoyagerModel::new(&cfg, 16, 32, 64);
        let preds = m.predict(&batch(2, cfg.seq_len), 1);
        assert_eq!(preds.len(), 2);
    }

    #[test]
    fn model_size_tracks_config_scale() {
        let small = VoyagerModel::new(&VoyagerConfig::test(), 16, 32, 64).model_size();
        let mut big_cfg = VoyagerConfig::test();
        big_cfg.page_embed *= 2;
        big_cfg.lstm_units *= 2;
        let big = VoyagerModel::new(&big_cfg, 16, 32, 64).model_size();
        assert!(big.params > small.params);
        assert_eq!(small.dense_f32, small.params * 4);
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let cfg = VoyagerConfig::test();
        let mut a = VoyagerModel::new(&cfg, 16, 32, 64);
        // Perturb A away from initialisation.
        let b4 = batch(4, cfg.seq_len);
        let mut pt = Tensor2::zeros(4, 32);
        let mut ot = Tensor2::zeros(4, 64);
        for i in 0..4 {
            pt.set(i, i * 7, 1.0);
            ot.set(i, i * 13, 1.0);
        }
        for _ in 0..20 {
            a.train_multi(&b4, &pt, &ot);
        }
        let mut buf = Vec::new();
        a.save(&mut buf).unwrap();
        let mut cfg2 = cfg;
        cfg2.seed = 999; // different init, same layout
        let mut b = VoyagerModel::new(&cfg2, 16, 32, 64);
        b.load(buf.as_slice()).unwrap();
        assert_eq!(a.predict(&b4, 2), b.predict(&b4, 2));
    }

    #[test]
    fn load_rejects_mismatched_vocab() {
        let cfg = VoyagerConfig::test();
        let a = VoyagerModel::new(&cfg, 16, 32, 64);
        let mut buf = Vec::new();
        a.save(&mut buf).unwrap();
        let mut b = VoyagerModel::new(&cfg, 16, 48, 64);
        assert!(b.load(buf.as_slice()).is_err());
    }

    #[test]
    #[should_panic(expected = "ragged sequence")]
    fn ragged_batch_rejected() {
        let cfg = VoyagerConfig::test();
        let mut m = VoyagerModel::new(&cfg, 16, 32, 64);
        let bad = SeqBatch {
            pc: vec![vec![0; 4]],
            page: vec![vec![0; 3]],
            offset: vec![vec![0; 4]],
        };
        let _ = m.predict(&bad, 1);
    }
}
