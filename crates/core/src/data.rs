//! The sample pipeline: history windows and training targets.
//!
//! Every model input in the workspace is a *history window*: the
//! `seq_len` tokens ending at a stream position. [`history_window`]
//! cuts one, [`positions_with_history`] says which positions have one,
//! and [`SeqBatch::from_windows`] stacks windows into model inputs.
//!
//! [`TrainingSet`] is the one place that decides which positions are
//! trainable and what their targets are. It materializes every sample,
//! addressable by index and in stream order, so both consumers can cut
//! it into contiguous sample ranges: [`OnlineRun`](crate::OnlineRun)
//! takes each epoch as one range, and the data-parallel trainer in
//! `voyager-runtime` shards each step into ranges that every worker
//! agrees on regardless of the worker count.

use std::ops::Range;

use voyager_trace::labels::compute_labels;
use voyager_trace::vocab::{TokenizedAccess, Vocabulary};
use voyager_trace::Trace;

use crate::{LabelMode, SeqBatch, VoyagerConfig, VoyagerModel};

/// The history window ending at stream position `t`: the `seq_len`
/// tokens `t + 1 - seq_len ..= t`.
///
/// # Panics
///
/// Panics if `t` has no full window (`t + 1 < seq_len`) or lies past
/// the end of `tokens`.
pub(crate) fn history_window<T>(tokens: &[T], t: usize, seq_len: usize) -> &[T] {
    &tokens[t + 1 - seq_len..=t]
}

/// The positions of `range` that have a full history window, i.e.
/// those a model can predict at.
pub fn positions_with_history(range: Range<usize>, seq_len: usize) -> Range<usize> {
    range.start.max(seq_len - 1).min(range.end)..range.end
}

impl SeqBatch {
    /// Stacks the history windows ending at `positions` (the `seq_len`
    /// tokens up to and including each position) into a batch, one row
    /// per position.
    ///
    /// # Panics
    ///
    /// Panics if a position has no full window.
    pub fn from_windows(
        tokens: &[TokenizedAccess],
        positions: impl IntoIterator<Item = usize>,
        seq_len: usize,
    ) -> SeqBatch {
        let mut batch = SeqBatch::default();
        for t in positions {
            let window = history_window(tokens, t, seq_len);
            batch
                .pc
                .push(window.iter().map(|a| a.pc as usize).collect());
            batch
                .page
                .push(window.iter().map(|a| a.page as usize).collect());
            batch
                .offset
                .push(window.iter().map(|a| a.offset as usize).collect());
        }
        batch
    }
}

/// One trainable stream position: its index and its `(page, offset)`
/// target tokens (exactly one in single-label mode).
#[derive(Debug, Clone)]
struct TrainSample {
    index: usize,
    targets: Vec<(u32, u32)>,
}

/// A materialized, index-addressable training set over an access
/// stream: the vocabulary, the tokenized stream, and every trainable
/// sample with its targets.
///
/// Samples keep stream order. [`TrainingSet::slice_batch`] builds the
/// model inputs for any contiguous sample range, which is the primitive
/// the data-parallel trainer shards on.
#[derive(Debug)]
pub struct TrainingSet {
    vocab: Vocabulary,
    tokens: Vec<TokenizedAccess>,
    samples: Vec<TrainSample>,
    seq_len: usize,
    labels: LabelMode,
}

impl TrainingSet {
    /// Profiles `stream` (vocabulary + labels) and materializes every
    /// trainable sample under `cfg.labels`: a position is trainable when
    /// its history window exists and a label of the configured scheme —
    /// any of the five candidates for the multi-label scheme of Section
    /// 4.4, the one chosen scheme in single-label mode — tokenizes to a
    /// non-rare page. Those labels are the sample's targets.
    pub fn build(stream: &Trace, cfg: &VoyagerConfig) -> TrainingSet {
        cfg.validate();
        let vocab = Vocabulary::build(stream, &cfg.vocab);
        let tokens = vocab.tokenize(stream);
        let labels = compute_labels(stream);
        let rare = vocab.rare_page_token();
        let target = |j: u32| {
            let tok = tokens[j as usize];
            (tok.page != rare).then_some((tok.page, tok.offset))
        };
        let samples = labels
            .iter()
            .enumerate()
            .skip(cfg.seq_len - 1)
            .filter_map(|(index, label)| {
                let targets: Vec<(u32, u32)> = match cfg.labels {
                    LabelMode::Multi => label.candidates().filter_map(target).collect(),
                    LabelMode::Single(scheme) => {
                        label.get(scheme).and_then(target).into_iter().collect()
                    }
                };
                (!targets.is_empty()).then_some(TrainSample { index, targets })
            })
            .collect();
        TrainingSet {
            vocab,
            tokens,
            samples,
            seq_len: cfg.seq_len,
            labels: cfg.labels,
        }
    }

    /// Number of trainable samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when the stream produced no trainable samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The vocabulary the stream was tokenized with (use its sizes to
    /// construct matching models).
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The tokenized stream, one entry per access.
    pub fn tokens(&self) -> &[TokenizedAccess] {
        &self.tokens
    }

    /// History window length of every sample.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Builds model inputs and multi-label targets for samples
    /// `start..end` (in stream order): the history-window batch plus
    /// each row's positive pages and positive offsets, in target order.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn slice_batch(
        &self,
        start: usize,
        end: usize,
    ) -> (SeqBatch, Vec<Vec<usize>>, Vec<Vec<usize>>) {
        assert!(
            start < end && end <= self.samples.len(),
            "bad sample range {start}..{end}"
        );
        let rows = &self.samples[start..end];
        let (pages, offsets) = rows
            .iter()
            .map(|s| {
                s.targets
                    .iter()
                    .map(|&(p, o)| (p as usize, o as usize))
                    .unzip()
            })
            .unzip();
        (self.batch_of(rows), pages, offsets)
    }

    /// The samples whose stream positions fall in `positions`. Samples
    /// keep stream order, so they form one contiguous sample range.
    pub(crate) fn samples_at(&self, positions: Range<usize>) -> Range<usize> {
        let first_at = |p: usize| self.samples.partition_point(|s| s.index < p);
        first_at(positions.start)..first_at(positions.end)
    }

    /// One gradient step of `model` on samples `samples` with the
    /// configured objective: multi-label BCE against every candidate
    /// target, or softmax cross-entropy in single-label mode. Returns the
    /// step's loss.
    pub(crate) fn train_step(&self, model: &mut VoyagerModel, samples: Range<usize>) -> f32 {
        match self.labels {
            LabelMode::Multi => {
                let (batch, pt, ot) = self.slice_batch(samples.start, samples.end);
                model.train_multi(&batch, &pt, &ot)
            }
            LabelMode::Single(_) => {
                let rows = &self.samples[samples];
                let (pages, offsets): (Vec<usize>, Vec<usize>) = rows
                    .iter()
                    .map(|s| (s.targets[0].0 as usize, s.targets[0].1 as usize))
                    .unzip();
                model.train_single(&self.batch_of(rows), &pages, &offsets)
            }
        }
    }

    fn batch_of(&self, rows: &[TrainSample]) -> SeqBatch {
        SeqBatch::from_windows(&self.tokens, rows.iter().map(|s| s.index), self.seq_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voyager_trace::MemoryAccess;

    fn stream() -> Trace {
        let mut t = Trace::new("s");
        for i in 0..600u64 {
            t.push(MemoryAccess::new(100 + i % 4, ((i * 17) % 300) * 64));
        }
        t
    }

    #[test]
    fn samples_follow_the_usable_filter() {
        let cfg = VoyagerConfig::test();
        let set = TrainingSet::build(&stream(), &cfg);
        assert!(!set.is_empty());
        assert_eq!(set.seq_len(), cfg.seq_len);
        // No sample may predate a full history window.
        let (batch, pt, ot) = set.slice_batch(0, set.len().min(8));
        assert_eq!(batch.len(), set.len().min(8));
        assert_eq!(batch.seq_len(), cfg.seq_len);
        assert_eq!(pt.len(), batch.len());
        assert_eq!(ot.len(), batch.len());
        // Every row has at least one positive page and offset target.
        for (pages, offsets) in pt.iter().zip(&ot) {
            assert!(!pages.is_empty());
            assert_eq!(pages.len(), offsets.len());
        }
    }

    #[test]
    fn slicing_is_consistent_with_the_whole() {
        let cfg = VoyagerConfig::test();
        let set = TrainingSet::build(&stream(), &cfg);
        let n = set.len().min(10);
        let (whole, wpt, wot) = set.slice_batch(0, n);
        let mid = n / 2;
        let (a, apt, aot) = set.slice_batch(0, mid);
        let (b, bpt, bot) = set.slice_batch(mid, n);
        assert_eq!(a.len() + b.len(), whole.len());
        for (i, row) in a.page.iter().chain(&b.page).enumerate() {
            assert_eq!(row, &whole.page[i]);
        }
        assert_eq!([apt, bpt].concat(), wpt);
        assert_eq!([aot, bot].concat(), wot);
    }

    #[test]
    fn windows_end_at_their_position() {
        assert_eq!(history_window(&[1, 2, 3, 4, 5], 3, 2), &[3, 4]);
        assert_eq!(positions_with_history(0..10, 4), 3..10);
        assert!(positions_with_history(0..2, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "bad sample range")]
    fn empty_range_is_rejected() {
        let set = TrainingSet::build(&stream(), &VoyagerConfig::test());
        let _ = set.slice_batch(3, 3);
    }
}
