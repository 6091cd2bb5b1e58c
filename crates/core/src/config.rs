//! Voyager hyperparameters (the paper's Table 1) and ablation switches.

use voyager_trace::labels::LabelScheme;
use voyager_trace::vocab::VocabConfig;

/// Which labeling scheme(s) train the model (Section 4.4 / Fig. 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelMode {
    /// The full multi-label scheme: BCE over all five candidate labels.
    Multi,
    /// A single labeling scheme with softmax cross-entropy (used for the
    /// Fig. 12 and Fig. 15 ablations, e.g. Voyager-global, Voyager-PC).
    Single(LabelScheme),
}

/// Which output head scores the page vocabulary (Section 5.5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OutputHead {
    /// A flat `[hidden, vocab]` linear head — `O(V)` per step. The
    /// paper's trained configuration.
    #[default]
    Dense,
    /// Two-level hierarchical softmax — `O(sqrt(V))` classes touched per
    /// step, enabling vocabularies 100x larger at comparable step time
    /// (Section 5.5's future-work direction).
    Hier,
}

/// Which inputs feed the model (Fig. 12's feature ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureSet {
    /// Include the PC embedding in the input (the paper finds the PC is
    /// *not* a useful feature, only a useful labeler).
    pub pc: bool,
    /// Include the address (page + offset) history — Voyager's key
    /// feature.
    pub address: bool,
}

impl Default for FeatureSet {
    fn default() -> Self {
        FeatureSet {
            pc: true,
            address: true,
        }
    }
}

/// Hyperparameters for Voyager.
///
/// [`VoyagerConfig::paper`] carries the exact Table 1 values;
/// [`VoyagerConfig::scaled`] (the default) is the configuration used by
/// this reproduction's experiments — same architecture, smaller widths,
/// sized for CPU training on ~10⁵-access traces (DESIGN.md,
/// substitution 4). [`VoyagerConfig::test`] is a tiny config for unit
/// tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoyagerConfig {
    /// History window length (Table 1: 16).
    pub seq_len: usize,
    /// Adam learning rate (Table 1: 0.001).
    pub learning_rate: f32,
    /// Learning-rate decay ratio applied when the epoch loss plateaus
    /// (Table 1: 2).
    pub lr_decay: f32,
    /// PC embedding size (Table 1: 64).
    pub pc_embed: usize,
    /// Page embedding size (Table 1: 256).
    pub page_embed: usize,
    /// Number of offset-embedding experts (Table 1: 100; total offset
    /// embedding size = experts * page_embed = 25600).
    pub experts: usize,
    /// LSTM units for both the page and offset LSTM (Table 1: 256).
    /// Both LSTMs have one layer, as in Table 1.
    pub lstm_units: usize,
    /// Dropout keep ratio (Table 1: 0.8).
    pub dropout_keep: f32,
    /// Minibatch size (Table 1: 256).
    pub batch_size: usize,
    /// Accesses per online-training epoch (Section 5.1 uses 50M
    /// instructions; this reproduction uses LLC accesses directly).
    pub epoch_accesses: usize,
    /// Gradient passes over each epoch's samples. The paper trains
    /// continuously over 50M-instruction epochs; at this reproduction's
    /// scale the multi-label BCE objective needs a few passes per epoch
    /// to converge comparably.
    pub train_passes: usize,
    /// Prefetch degree (predictions per access; Fig. 9 sweeps 1..8).
    pub degree: usize,
    /// Labeling mode.
    pub labels: LabelMode,
    /// Input feature selection.
    pub features: FeatureSet,
    /// Use the page-aware offset embedding (Section 4.2.2). Disabling
    /// it reverts to the naive page/offset decomposition of Section
    /// 4.2.1 — the offset-aliasing ablation.
    pub page_aware_attention: bool,
    /// Vocabulary construction (page cap, delta tokens, PC cap).
    pub vocab: VocabConfig,
    /// Page output head: flat dense softmax or the two-level
    /// hierarchical head. The offset head (64 classes) is always dense.
    pub output_head: OutputHead,
    /// Clusters shortlisted per prediction when `output_head` is
    /// [`OutputHead::Hier`] (leaf scores are only computed for the
    /// `hier_fan` most probable clusters).
    pub hier_fan: usize,
    /// RNG seed for initialisation and dropout.
    pub seed: u64,
}

impl VoyagerConfig {
    /// The exact Table 1 configuration. Training this on a CPU is slow;
    /// it exists for fidelity (asserted in tests) and for model-size
    /// accounting at paper scale (Fig. 17).
    pub fn paper() -> Self {
        VoyagerConfig {
            seq_len: 16,
            learning_rate: 0.001,
            lr_decay: 2.0,
            pc_embed: 64,
            page_embed: 256,
            experts: 100,
            lstm_units: 256,
            dropout_keep: 0.8,
            batch_size: 256,
            epoch_accesses: 50_000_000,
            train_passes: 1,
            degree: 1,
            labels: LabelMode::Multi,
            features: FeatureSet::default(),
            page_aware_attention: true,
            vocab: VocabConfig {
                max_pages: 100_000,
                max_deltas: 10,
                min_address_freq: 2,
                max_pcs: 65_536,
            },
            output_head: OutputHead::Dense,
            hier_fan: 4,
            seed: 0x1337,
        }
    }

    /// The scaled configuration used by this reproduction's experiments:
    /// identical architecture with smaller widths (page 32, 4 experts,
    /// 32 LSTM units) and epochs matched to the scaled traces.
    pub fn scaled() -> Self {
        VoyagerConfig {
            seq_len: 8,
            learning_rate: 0.004,
            lr_decay: 2.0,
            pc_embed: 16,
            page_embed: 32,
            experts: 4,
            lstm_units: 48,
            dropout_keep: 0.9,
            batch_size: 64,
            // Long enough to span a cold-cache warm-up plus at least one
            // full traversal period of the scaled workloads, so that the
            // transitions trained in epoch k recur in epoch k + 1.
            epoch_accesses: 9_000,
            train_passes: 6,
            degree: 1,
            labels: LabelMode::Multi,
            features: FeatureSet::default(),
            page_aware_attention: true,
            vocab: VocabConfig {
                max_pages: 2_048,
                max_deltas: 10,
                min_address_freq: 2,
                max_pcs: 2_048,
            },
            output_head: OutputHead::Dense,
            hier_fan: 4,
            seed: 0x1337,
        }
    }

    /// A tiny configuration for fast unit tests.
    pub fn test() -> Self {
        VoyagerConfig {
            seq_len: 4,
            learning_rate: 0.01,
            lr_decay: 2.0,
            pc_embed: 8,
            page_embed: 12,
            experts: 2,
            lstm_units: 16,
            dropout_keep: 1.0,
            batch_size: 16,
            epoch_accesses: 600,
            train_passes: 3,
            degree: 1,
            labels: LabelMode::Multi,
            features: FeatureSet::default(),
            page_aware_attention: true,
            vocab: VocabConfig {
                max_pages: 256,
                max_deltas: 8,
                min_address_freq: 2,
                max_pcs: 256,
            },
            output_head: OutputHead::Dense,
            hier_fan: 4,
            seed: 0x1337,
        }
    }

    /// Total offset embedding width (`experts * page_embed`; Table 1:
    /// 25600).
    pub fn offset_embed(&self) -> usize {
        self.experts * self.page_embed
    }

    /// Returns a copy with a different labeling mode.
    pub fn with_labels(mut self, labels: LabelMode) -> Self {
        self.labels = labels;
        self
    }

    /// Returns a copy with a different feature set.
    pub fn with_features(mut self, features: FeatureSet) -> Self {
        self.features = features;
        self
    }

    /// Returns a copy with a different prefetch degree.
    pub fn with_degree(mut self, degree: usize) -> Self {
        assert!(degree > 0, "degree must be positive");
        self.degree = degree;
        self
    }

    /// Returns a copy with a different page output head.
    pub fn with_output_head(mut self, head: OutputHead) -> Self {
        self.output_head = head;
        self
    }

    /// Returns a copy with a different cluster shortlist width for the
    /// hierarchical head.
    pub fn with_hier_fan(mut self, fan: usize) -> Self {
        assert!(fan > 0, "hier_fan must be positive");
        self.hier_fan = fan;
        self
    }

    /// Returns a copy without delta tokens ("Voyager w/o delta",
    /// Section 5.3.1).
    pub fn without_deltas(mut self) -> Self {
        self.vocab = self.vocab.without_deltas();
        self
    }

    /// Returns a copy using the naive page/offset decomposition instead
    /// of the page-aware offset embedding (the Section 4.2.1 ablation,
    /// which suffers offset aliasing).
    pub fn without_attention(mut self) -> Self {
        self.page_aware_attention = false;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (zero sizes, keep ratio out of
    /// range).
    pub fn validate(&self) {
        assert!(self.seq_len >= 2, "need at least 2 steps of history");
        assert!(self.page_embed > 0 && self.experts > 0 && self.lstm_units > 0);
        assert!(self.dropout_keep > 0.0 && self.dropout_keep <= 1.0);
        assert!(self.batch_size > 0 && self.degree > 0);
        assert!(
            self.features.address || self.features.pc,
            "at least one input feature required"
        );
        assert!(self.hier_fan > 0, "hier_fan must be positive");
    }
}

impl Default for VoyagerConfig {
    fn default() -> Self {
        VoyagerConfig::scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table1() {
        let c = VoyagerConfig::paper();
        assert_eq!(c.seq_len, 16);
        assert_eq!(c.learning_rate, 0.001);
        assert_eq!(c.lr_decay, 2.0);
        assert_eq!(c.pc_embed, 64);
        assert_eq!(c.page_embed, 256);
        assert_eq!(c.offset_embed(), 25_600); // Table 1: offset embedding 25600
        assert_eq!(c.experts, 100); // Table 1: # experts
        assert_eq!(c.lstm_units, 256);
        assert_eq!(c.dropout_keep, 0.8);
        assert_eq!(c.batch_size, 256);
        c.validate();
    }

    #[test]
    fn scaled_and_test_configs_validate() {
        VoyagerConfig::scaled().validate();
        VoyagerConfig::test().validate();
    }

    #[test]
    fn builders_compose() {
        let c = VoyagerConfig::test()
            .with_degree(4)
            .with_labels(LabelMode::Single(LabelScheme::Pc))
            .without_deltas()
            .with_features(FeatureSet {
                pc: false,
                address: true,
            });
        assert_eq!(c.degree, 4);
        assert_eq!(c.labels, LabelMode::Single(LabelScheme::Pc));
        assert_eq!(c.vocab.max_deltas, 0);
        assert!(!c.features.pc);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "degree must be positive")]
    fn zero_degree_rejected() {
        let _ = VoyagerConfig::test().with_degree(0);
    }

    #[test]
    fn output_head_defaults_to_dense_and_builds() {
        assert_eq!(VoyagerConfig::test().output_head, OutputHead::Dense);
        assert_eq!(OutputHead::default(), OutputHead::Dense);
        let c = VoyagerConfig::test()
            .with_output_head(OutputHead::Hier)
            .with_hier_fan(8);
        assert_eq!(c.output_head, OutputHead::Hier);
        assert_eq!(c.hier_fan, 8);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "hier_fan must be positive")]
    fn zero_hier_fan_rejected() {
        let _ = VoyagerConfig::test().with_hier_fan(0);
    }

    #[test]
    #[should_panic(expected = "at least one input feature")]
    fn featureless_config_rejected() {
        VoyagerConfig::test()
            .with_features(FeatureSet {
                pc: false,
                address: false,
            })
            .validate();
    }
}
