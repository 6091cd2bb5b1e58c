//! The Delta-LSTM baseline (Hashemi et al., "Learning Memory Access
//! Patterns", 2018).
//!
//! The paper's neural baseline: an LSTM over a flat vocabulary of
//! cache-line *deltas*, trained with softmax cross-entropy to predict
//! the next delta in the global stream (Eq. 8). It can learn strides
//! and recurring delta patterns but, lacking an address vocabulary, it
//! cannot perform temporal (address-correlation) prefetching — the gap
//! Voyager closes. Its flat delta vocabulary is also why it is 20–56×
//! larger than Voyager before compression (Section 5.4).

use std::collections::HashMap;
use std::time::Instant;

use voyager_tensor::rng::{SeedableRng, StdRng};

use voyager_nn::{Adam, Embedding, Layer, Linear, LstmCell, ParamStore, Session};
use voyager_trace::Trace;

use crate::data::{history_window, positions_with_history};
use crate::online::epochs;
use crate::OnlineRun;

/// Hyperparameters for the Delta-LSTM baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaLstmConfig {
    /// History window length.
    pub seq_len: usize,
    /// Delta-embedding size.
    pub embed: usize,
    /// LSTM units.
    pub hidden: usize,
    /// Maximum number of distinct delta tokens (most frequent kept;
    /// Hashemi et al. need ~50K for good coverage — the class-explosion
    /// problem).
    pub max_deltas: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Accesses per online epoch.
    pub epoch_accesses: usize,
    /// Gradient passes over each epoch's samples (see
    /// [`crate::VoyagerConfig::train_passes`]).
    pub train_passes: usize,
    /// Prefetch degree.
    pub degree: usize,
    /// RNG seed.
    pub seed: u64,
}

impl DeltaLstmConfig {
    /// Configuration at the scale of the original paper (50K deltas,
    /// 256-wide embeddings) — used for size accounting, not training.
    pub fn paper() -> Self {
        DeltaLstmConfig {
            seq_len: 16,
            embed: 256,
            hidden: 256,
            max_deltas: 50_000,
            batch_size: 256,
            learning_rate: 0.001,
            epoch_accesses: 50_000_000,
            train_passes: 1,
            degree: 1,
            seed: 0x0D_E17A,
        }
    }

    /// Scaled configuration matched to [`crate::VoyagerConfig::scaled`].
    pub fn scaled() -> Self {
        DeltaLstmConfig {
            seq_len: 8,
            embed: 32,
            hidden: 32,
            max_deltas: 2_048,
            batch_size: 64,
            learning_rate: 0.004,
            epoch_accesses: 9_000,
            train_passes: 6,
            degree: 1,
            seed: 0x0D_E17A,
        }
    }

    /// Tiny configuration for unit tests.
    pub fn test() -> Self {
        DeltaLstmConfig {
            seq_len: 4,
            embed: 8,
            hidden: 16,
            max_deltas: 64,
            batch_size: 16,
            learning_rate: 0.01,
            epoch_accesses: 600,
            train_passes: 3,
            degree: 1,
            seed: 0x0D_E17A,
        }
    }

    /// Returns a copy with a different degree.
    pub fn with_degree(mut self, degree: usize) -> Self {
        assert!(degree > 0, "degree must be positive");
        self.degree = degree;
        self
    }
}

impl Default for DeltaLstmConfig {
    fn default() -> Self {
        DeltaLstmConfig::scaled()
    }
}

/// The Delta-LSTM model and its online runner.
#[derive(Debug)]
pub struct DeltaLstm {
    store: ParamStore,
    adam: Adam,
    emb: Embedding,
    lstm: LstmCell,
    head: Linear,
    vocab: usize,
}

impl DeltaLstm {
    /// Builds the model for a delta vocabulary of `vocab` tokens
    /// (including the rare token).
    pub fn new(cfg: &DeltaLstmConfig, vocab: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "delta_emb", vocab, cfg.embed, &mut rng);
        let lstm = LstmCell::new(&mut store, "delta_lstm", cfg.embed, cfg.hidden, &mut rng);
        let head = Linear::new(&mut store, "delta_head", cfg.hidden, vocab, &mut rng);
        DeltaLstm {
            store,
            adam: Adam::new(cfg.learning_rate),
            emb,
            lstm,
            head,
            vocab,
        }
    }

    /// Total scalar parameter count (dominated by the delta embedding
    /// and output layer — the class-explosion cost).
    pub fn num_params(&self) -> usize {
        self.store.num_scalars()
    }

    /// Embeds the windows time-major (one gather), runs the LSTM over
    /// them as one node, and applies the head to the final state.
    fn forward(&mut self, sess: &mut Session, batch: &[&[u32]]) -> voyager_tensor::Var {
        let steps = batch[0].len();
        let ids: Vec<usize> = (0..steps)
            .flat_map(|t| batch.iter().map(move |s| s[t] as usize))
            .collect();
        let x = self.emb.forward(sess, &self.store, &ids);
        let h = self.lstm.forward_seq(sess, &self.store, x, steps);
        self.head.forward(sess, &self.store, h)
    }

    fn train_batch(&mut self, batch: &[&[u32]], targets: &[usize]) -> f32 {
        let mut sess = Session::new();
        let logits = self.forward(&mut sess, batch);
        let loss = sess.tape.softmax_cross_entropy(logits, targets);
        let v = sess.tape.value(loss).get(0, 0);
        sess.step(loss, &mut self.store, &mut self.adam);
        v
    }

    fn predict_batch(&mut self, batch: &[&[u32]], k: usize) -> Vec<Vec<u32>> {
        let mut sess = Session::new();
        let logits = self.forward(&mut sess, batch);
        let probs = sess.tape.softmax_rows(logits);
        let pv = sess.tape.value(probs);
        (0..batch.len())
            .map(|row| {
                pv.topk_row(row, k.min(self.vocab))
                    .into_iter()
                    .map(|i| i as u32)
                    .collect()
            })
            .collect()
    }

    /// Runs the online train/predict protocol over a stream, mirroring
    /// [`OnlineRun::execute`] for Voyager.
    pub fn run_online(stream: &Trace, cfg: &DeltaLstmConfig) -> OnlineRun {
        // Delta tokenization: most frequent line deltas keep a token,
        // everything else is the rare token (last id).
        let lines: Vec<u64> = stream.iter().map(|a| a.line()).collect();
        let mut freq: HashMap<i64, u32> = HashMap::new();
        for w in lines.windows(2) {
            *freq.entry(w[1] as i64 - w[0] as i64).or_default() += 1;
        }
        let mut top: Vec<(i64, u32)> = freq.into_iter().collect();
        top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        top.truncate(cfg.max_deltas);
        let deltas: Vec<i64> = top.into_iter().map(|(d, _)| d).collect();
        let index: HashMap<i64, u32> = deltas
            .iter()
            .enumerate()
            .map(|(i, &d)| (d, i as u32))
            .collect();
        let rare = deltas.len() as u32;
        let vocab = deltas.len() + 1;
        // Token stream: token[t] = delta from access t-1 to t (token[0]
        // is rare).
        let tokens: Vec<u32> = std::iter::once(rare)
            .chain(lines.windows(2).map(|w| {
                index
                    .get(&(w[1] as i64 - w[0] as i64))
                    .copied()
                    .unwrap_or(rare)
            }))
            .collect();

        let windows = |chunk: &[usize]| -> Vec<&[u32]> {
            chunk
                .iter()
                .map(|&t| history_window(&tokens, t, cfg.seq_len))
                .collect()
        };

        let mut model = DeltaLstm::new(cfg, vocab);
        let n = stream.len();
        let mut run = OnlineRun::empty(n, model.num_params(), model.num_params() * 4);
        for (epoch, accesses) in epochs(n, cfg.epoch_accesses, cfg.seq_len).enumerate() {
            let positions: Vec<usize> =
                positions_with_history(accesses.clone(), cfg.seq_len).collect();
            if epoch > 0 {
                let t0 = Instant::now();
                for chunk in positions.chunks(cfg.batch_size) {
                    let preds = model.predict_batch(&windows(chunk), cfg.degree);
                    for (&t, ds) in chunk.iter().zip(preds) {
                        let mut out = Vec::new();
                        for d in ds {
                            if d != rare {
                                if let Some(line) = lines[t].checked_add_signed(deltas[d as usize])
                                {
                                    if !out.contains(&line) {
                                        out.push(line);
                                    }
                                }
                            }
                        }
                        run.predictions[t] = out;
                    }
                }
                run.predict_seconds += t0.elapsed().as_secs_f64();
                run.predicted_accesses += accesses.len();
            }
            // Train: target is the next delta token.
            let t0 = Instant::now();
            let mut total = 0.0f64;
            let mut batches = 0;
            let trainable: Vec<usize> = positions
                .iter()
                .copied()
                .filter(|&t| t + 1 < n && tokens[t + 1] != rare)
                .collect();
            for _pass in 0..cfg.train_passes.max(1) {
                for chunk in trainable.chunks(cfg.batch_size) {
                    let targets: Vec<usize> =
                        chunk.iter().map(|&t| tokens[t + 1] as usize).collect();
                    total += model.train_batch(&windows(chunk), &targets) as f64;
                    batches += 1;
                }
            }
            run.train_seconds += t0.elapsed().as_secs_f64();
            // An epoch with no trainable sample records no loss.
            if batches > 0 {
                run.epoch_losses.push((total / batches as f64) as f32);
            }
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voyager_trace::MemoryAccess;

    fn strided_stream(n: usize) -> Trace {
        // Repeating delta pattern +1, +1, +5 — learnable from deltas.
        let mut line = 1000u64;
        let mut t = Trace::new("strided");
        for i in 0..n {
            t.push(MemoryAccess::new(7, line * 64));
            line += match i % 3 {
                0 | 1 => 1,
                _ => 5,
            };
        }
        t
    }

    #[test]
    fn learns_repeating_delta_pattern() {
        let stream = strided_stream(2400);
        let run = DeltaLstm::run_online(&stream, &DeltaLstmConfig::test());
        let score = run.unified_score(&stream);
        assert!(
            score.value() > 0.5,
            "Delta-LSTM failed on delta pattern: {score}"
        );
    }

    #[test]
    fn cannot_learn_pure_address_correlation() {
        // Irregular repeating *addresses* with 16 distinct transition
        // deltas, while the vocabulary only holds 2: most transitions
        // become rare tokens — the class-explosion problem that keeps
        // Delta-LSTM from temporal prefetching.
        // splitmix-style scrambling so every transition has a unique
        // delta (a linear sequence mod m would only have two!).
        let pattern: Vec<u64> = (0u64..16)
            .map(|i| {
                let mut x = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (x ^ (x >> 31)) % 50_000_000
            })
            .collect();
        let mut t = Trace::new("addr");
        for _ in 0..150 {
            for &l in &pattern {
                t.push(MemoryAccess::new(3, l * 64));
            }
        }
        let mut cfg = DeltaLstmConfig::test();
        cfg.max_deltas = 2; // too small to represent the pattern's deltas
        let run = DeltaLstm::run_online(&t, &cfg);
        let score = run.unified_score(&t);
        assert!(
            score.value() < 0.3,
            "should fail without delta coverage: {score}"
        );
    }

    #[test]
    fn paper_config_is_much_larger_than_scaled() {
        let paper = DeltaLstm::new(&DeltaLstmConfig::paper(), 50_001);
        let scaled = DeltaLstm::new(&DeltaLstmConfig::scaled(), 2_049);
        assert!(paper.num_params() > 20 * scaled.num_params());
    }

    #[test]
    fn an_epoch_without_samples_records_no_loss() {
        // 2·len + 1 accesses: the third epoch holds a single access,
        // which has no next delta to train on.
        let cfg = DeltaLstmConfig::test();
        let stream = strided_stream(2 * cfg.epoch_accesses + 1);
        let run = DeltaLstm::run_online(&stream, &cfg);
        assert_eq!(run.epoch_losses.len(), 2, "{:?}", run.epoch_losses);
        assert!(run.epoch_losses.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn empty_stream_ok() {
        let run = DeltaLstm::run_online(&Trace::new("e"), &DeltaLstmConfig::test());
        assert!(run.predictions.is_empty());
    }
}
