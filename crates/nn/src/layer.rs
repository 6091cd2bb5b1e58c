//! The [`Layer`] contract: one calling convention for every layer.

use crate::{ParamStore, Session};

/// Uniform forward-pass contract for the layers in this crate.
///
/// Every layer applies as `layer.forward(sess, store, input)`, in that
/// argument order, regardless of what the input is — a single
/// activation [`Var`](voyager_tensor::Var), a batch of embedding ids,
/// or a `(page, offset)` pair for the attention. The contract a
/// `forward` implementation must uphold:
///
/// * **Record, don't mutate** — it records the layer's computation as
///   nodes on `sess.tape` and returns handles to them. It never
///   modifies `store`; parameter updates happen later through
///   [`Session::step`](crate::Session::step).
/// * **Parameters via the session** — parameter tensors are bound onto
///   the tape with [`Session::param`](crate::Session::param) /
///   [`Session::gather`](crate::Session::gather) so their gradients
///   flow back to `store` by [`ParamId`](crate::ParamId).
/// * **Pure and deterministic** — the recorded values depend only on
///   the input handles and the current parameter values; calling
///   `forward` twice on identical sessions records identical nodes.
///
/// Layers whose application yields more than one interesting value
/// (e.g. [`ExpertAttention`](crate::ExpertAttention)'s attention
/// weights) or takes extra shape arguments (the
/// [`LstmCell`](crate::LstmCell)'s step count) expose inherent methods
/// that follow the same `(sess, store, input)` order.
///
/// # Example
///
/// ```
/// use voyager_nn::{Layer, Linear, ParamStore, Session};
/// use voyager_tensor::rng::{SeedableRng, StdRng};
/// use voyager_tensor::Tensor2;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut store = ParamStore::new();
/// let fc = Linear::new(&mut store, "fc", 3, 2, &mut rng);
/// let mut sess = Session::new();
/// let x = sess.tape.leaf(Tensor2::zeros(4, 3), false);
/// let y = fc.forward(&mut sess, &store, x);
/// assert_eq!(sess.tape.value(y).shape(), (4, 2));
/// ```
pub trait Layer<Input> {
    /// Value produced by one forward application.
    type Output;

    /// Records the layer's forward computation for `input` on
    /// `sess.tape`, reading parameters from `store`.
    fn forward(&self, sess: &mut Session, store: &ParamStore, input: Input) -> Self::Output;
}
