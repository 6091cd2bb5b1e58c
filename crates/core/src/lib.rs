//! Voyager: a hierarchical neural model of data prefetching.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Shi et al., ASPLOS 2021): an LSTM-based prefetcher that learns both
//! *delta* and *address* correlations by decomposing addresses into
//! pages and offsets.
//!
//! # Architecture (paper Fig. 2)
//!
//! 1. **Embedding layer** — independent embeddings for the PC, the page
//!    and the offset of each access in a history window.
//! 2. **Page-aware offset embedding** — a dot-product attention over
//!    "expert" chunks of the offset embedding, queried by the page
//!    embedding (Section 4.2.2). This resolves offset aliasing without a
//!    per-address embedding.
//! 3. **Two LSTMs** — a page LSTM and an offset LSTM over the embedded
//!    history.
//! 4. **Linear + softmax / sigmoid heads** — probability distributions
//!    over the page vocabulary and the 64 offsets.
//!
//! Training uses the **multi-label** scheme of Section 4.4 (binary
//! cross-entropy over the candidate labels of five localization
//! schemes), the **delta vocabulary** of Section 4.3 for infrequent
//! addresses, and the paper's **online protocol** (Section 5.1): the
//! model trains on epoch *k* and predicts epoch *k + 1*. The
//! profile-driven protocol of Section 5.5 is also implemented
//! ([`OnlineRun::execute_profiled`], with [`VoyagerModel::save`] /
//! [`VoyagerModel::load`] checkpointing for its deploy step), along
//! with the ablation switches the evaluation needs: single-label
//! training, feature selection, no-delta vocabulary, and the naive
//! page/offset split of Section 4.2.1.
//!
//! # Quickstart
//!
//! ```no_run
//! use voyager::{OnlineRun, VoyagerConfig};
//! use voyager_sim::{llc_stream, SimConfig};
//! use voyager_trace::gen::{Benchmark, GeneratorConfig};
//!
//! let trace = Benchmark::Pr.generate(&GeneratorConfig::medium());
//! let stream = llc_stream(&trace, &SimConfig::scaled());
//! let run = OnlineRun::execute(&stream, &VoyagerConfig::test());
//! println!("unified accuracy/coverage: {}", run.unified_score(&stream));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod data;
mod delta_lstm;
mod fastpath;
mod model;
mod online;
mod replay;

pub use voyager_tensor::rng;

pub use config::{FeatureSet, LabelMode, OutputHead, VoyagerConfig};
pub use data::{positions_with_history, TrainingSet};
pub use delta_lstm::{DeltaLstm, DeltaLstmConfig};
pub use model::{hier_shape, InvalidWindow, SeqBatch, TokenStream, VoyagerModel};
pub use online::OnlineRun;
pub use replay::ReplayPrefetcher;
