//! Neural-network building blocks for the Voyager prefetcher reproduction.
//!
//! Built on [`voyager_tensor`]'s tape autograd, this crate provides what
//! the paper's model (Fig. 2) needs and nothing more:
//!
//! * [`ParamStore`] / [`Session`] — named parameter tensors plus the glue
//!   that binds them onto a fresh [`Tape`](voyager_tensor::Tape) each
//!   training step and routes gradients back (including sparse gradients
//!   for embedding gathers). A parameter is bound once per session, so
//!   it gets one gradient and one optimizer update per step.
//! * [`Adam`] — the paper's optimizer (Table 1), with gradient clipping
//!   on the global gradient norm and learning-rate decay.
//! * Layers: [`Linear`], [`Embedding`] and [`ExpertAttention`] — the
//!   page-aware offset embedding mechanism of Section 4.2.2 — applied
//!   through the uniform [`Layer`] contract
//!   (`layer.forward(sess, store, input)`), and [`LstmCell`], which runs
//!   a whole time-major history window as one tape node
//!   ([`LstmCell::forward_seq`]).
//! * [`compress`] — magnitude pruning and 8-bit quantization used in
//!   Section 5.4 to shrink Voyager 110–200× below Delta-LSTM.
//! * [`HierarchicalSoftmax`] — the Section 5.5 future-work output head
//!   (`O(sqrt(V))` classes evaluated per step instead of `O(V)`).
//! * [`serialize`] — parameter checkpointing for the Section 5.5
//!   profile-then-deploy workflow.
//! * [`soft`] — soft-label (top-k token/probability) extraction from
//!   the output heads, the teacher side of table distillation.
//!
//! # Example: one gradient step on a tiny regression
//!
//! ```
//! use voyager_nn::{Adam, Layer, Linear, ParamStore, Session};
//! use voyager_tensor::Tensor2;
//! use voyager_tensor::rng::{StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut store = ParamStore::new();
//! let layer = Linear::new(&mut store, "fc", 2, 1, &mut rng);
//! let mut adam = Adam::new(0.05);
//!
//! let x = Tensor2::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
//! let target = Tensor2::from_rows(&[&[1.0], &[-1.0]]);
//! let mut last = f32::INFINITY;
//! for _ in 0..50 {
//!     let mut sess = Session::new();
//!     let xv = sess.tape.leaf(x.clone(), false);
//!     let y = layer.forward(&mut sess, &store, xv);
//!     let t = sess.tape.leaf(target.clone(), false);
//!     let diff = sess.tape.sub(y, t);
//!     let sq = sess.tape.mul(diff, diff);
//!     let loss = sess.tape.mean_all(sq);
//!     last = sess.tape.value(loss).get(0, 0);
//!     sess.step(loss, &mut store, &mut adam);
//! }
//! assert!(last < 1e-2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compress;
pub mod qinfer;
pub mod serialize;
pub mod soft;

mod grads;
mod hier_softmax;
mod layer;
mod layers;
mod optim;
mod params;

pub use voyager_tensor::rng;

pub use grads::{GradEntry, GradSet};
pub use hier_softmax::{HierarchicalSoftmax, PAD_MASK};
pub use layer::Layer;
pub use layers::{Embedding, ExpertAttention, Linear, LstmCell};
pub use optim::{Adam, AdamState};
pub use params::{ParamId, ParamStore, Session};
pub use qinfer::{QuantizedHierHead, QuantizedLinear, QuantizedLstm, QuantizedMatmul};
pub use soft::{SoftLabelExtractor, SoftLabels};
