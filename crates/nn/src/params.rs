//! Parameter storage and the per-step training session.

use voyager_tensor::{Tape, Tensor2, Var};

use crate::grads::{GradEntry, GradSet};
use crate::Adam;

/// Identifier of a parameter tensor inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ParamId(pub(crate) usize);

/// Named collection of trainable parameter tensors.
///
/// Layers register their weights here at construction time and refer to
/// them by [`ParamId`]. The store outlives the per-step [`Session`] /
/// [`Tape`](voyager_tensor::Tape) objects.
#[derive(Debug, Default)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Tensor2>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ParamStore::default()
    }

    /// Registers a parameter tensor and returns its id.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor2) -> ParamId {
        self.names.push(name.into());
        self.values.push(value);
        ParamId(self.values.len() - 1)
    }

    /// Number of registered parameter tensors.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrows the current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor2 {
        &self.values[id.0]
    }

    /// Mutably borrows the current value of a parameter.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor2 {
        &mut self.values[id.0]
    }

    /// Returns the registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates over `(id, name, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor2)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (ParamId(i), self.names[i].as_str(), v))
    }

    /// Total number of scalar parameters across all tensors.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor2::len).sum()
    }

    /// Clones every parameter value, in registration order. Together
    /// with [`ParamStore::import_values`] this synchronizes model
    /// replicas built by the same constructor (data-parallel training
    /// keeps worker replicas equal to the master this way).
    pub fn export_values(&self) -> Vec<Tensor2> {
        self.values.clone()
    }

    /// Overwrites every parameter with `values` (in registration order),
    /// as exported by [`ParamStore::export_values`] from a store with
    /// identical layout.
    ///
    /// # Panics
    ///
    /// Panics on count or shape mismatch.
    pub fn import_values(&mut self, values: &[Tensor2]) {
        assert_eq!(
            values.len(),
            self.values.len(),
            "store has {} tensors, import has {}",
            self.values.len(),
            values.len()
        );
        for (i, (dst, src)) in self.values.iter_mut().zip(values).enumerate() {
            assert_eq!(
                dst.shape(),
                src.shape(),
                "tensor {:?} shape mismatch",
                self.names[i]
            );
            *dst = src.clone();
        }
    }
}

/// One forward/backward pass: a fresh tape plus the bookkeeping needed to
/// route tape gradients back to [`ParamStore`] parameters.
///
/// Dense parameters enter the tape through [`Session::param`]; embedding
/// rows enter through [`Session::gather`], which keeps the (potentially
/// huge) table off the tape and produces *sparse* row gradients, exactly
/// like a lazy embedding update in a deep-learning framework.
#[derive(Debug, Default)]
pub struct Session {
    /// The underlying autograd tape. Exposed so model code can record
    /// arbitrary ops between layer calls.
    pub tape: Tape,
    dense: Vec<(ParamId, Var)>,
    sparse: Vec<(ParamId, Vec<usize>, Var)>,
}

impl Session {
    /// Creates an empty session.
    pub fn new() -> Self {
        Session::default()
    }

    /// Binds the full value of parameter `id` onto the tape as a
    /// differentiable leaf and returns its [`Var`].
    ///
    /// A parameter is bound at most once per session: binding it again
    /// returns the existing leaf, so every use accumulates into one
    /// gradient, the optimizer updates it once per step, and clipping
    /// sees the true global norm.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        if let Some(&(_, var)) = self.dense.iter().find(|(bound, _)| *bound == id) {
            return var;
        }
        let var = self.tape.leaf(store.value(id).clone(), true);
        self.dense.push((id, var));
        var
    }

    /// Gathers `rows` of the embedding table `id` into a
    /// `[rows.len(), dim]` differentiable leaf.
    ///
    /// The backward pass scatter-adds the leaf's gradient back into only
    /// the touched rows.
    ///
    /// # Panics
    ///
    /// Panics if any row index is out of bounds.
    pub fn gather(&mut self, store: &ParamStore, id: ParamId, rows: &[usize]) -> Var {
        let table = store.value(id);
        let dim = table.cols();
        let mut out = Tensor2::zeros(rows.len(), dim);
        for (i, &r) in rows.iter().enumerate() {
            assert!(
                r < table.rows(),
                "embedding row {r} out of {}",
                table.rows()
            );
            out.row_mut(i).copy_from_slice(table.row(r));
        }
        let var = self.tape.leaf(out, true);
        self.sparse.push((id, rows.to_vec(), var));
        var
    }

    /// Runs backward from `loss` and applies one optimizer step to every
    /// parameter bound in this session. Consumes nothing; the session can
    /// be dropped afterwards.
    pub fn step(&mut self, loss: Var, store: &mut ParamStore, adam: &mut Adam) {
        self.tape.backward(loss);
        adam.begin_step();
        let clip = adam.clip_scale(self.global_grad_sq_norm());
        for (id, var) in std::mem::take(&mut self.dense) {
            if let Some(grad) = self.tape.grad(var) {
                adam.apply_dense(store, id, grad, clip);
            }
        }
        for (id, rows, var) in std::mem::take(&mut self.sparse) {
            if let Some(grad) = self.tape.grad(var) {
                adam.apply_sparse(store, id, &rows, grad, clip);
            }
        }
    }

    /// Runs backward from `loss` and returns the materialized gradients
    /// of every parameter bound in this session *without* touching the
    /// store — the decomposed half of [`Session::step`] that
    /// data-parallel workers use. Reduce shards with
    /// [`GradSet::merge_scaled`] and apply with
    /// [`Adam::apply_grad_set`].
    pub fn collect_grads(&mut self, loss: Var) -> GradSet {
        self.tape.backward(loss);
        let mut entries = Vec::new();
        for (id, var) in std::mem::take(&mut self.dense) {
            if let Some(grad) = self.tape.grad(var) {
                entries.push((id, GradEntry::Dense(grad.clone())));
            }
        }
        for (id, rows, var) in std::mem::take(&mut self.sparse) {
            if let Some(grad) = self.tape.grad(var) {
                entries.push((
                    id,
                    GradEntry::Sparse {
                        rows,
                        grad: grad.clone(),
                    },
                ));
            }
        }
        GradSet::from_entries(entries)
    }

    fn global_grad_sq_norm(&self) -> f32 {
        let mut total = 0.0;
        for (_, var) in &self.dense {
            if let Some(g) = self.tape.grad(*var) {
                total += g.sq_norm();
            }
        }
        for (_, _, var) in &self.sparse {
            if let Some(g) = self.tape.grad(*var) {
                total += g.sq_norm();
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor2::scalar(2.0));
        assert_eq!(store.name(id), "w");
        assert_eq!(store.value(id).get(0, 0), 2.0);
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
        assert_eq!(store.num_scalars(), 1);
    }

    #[test]
    fn gather_copies_requested_rows() {
        let mut store = ParamStore::new();
        let table = Tensor2::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let id = store.register("emb", table);
        let mut sess = Session::new();
        let v = sess.gather(&store, id, &[2, 0, 2]);
        assert_eq!(
            sess.tape.value(v).as_slice(),
            &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]
        );
    }

    #[test]
    fn sparse_step_only_touches_gathered_rows() {
        let mut store = ParamStore::new();
        let id = store.register("emb", Tensor2::zeros(3, 2));
        let mut adam = Adam::new(0.1);
        let mut sess = Session::new();
        let v = sess.gather(&store, id, &[1]);
        let s = sess.tape.sum_all(v);
        // Maximize sum -> gradient is +1 on row 1; Adam moves it by -lr.
        sess.step(s, &mut store, &mut adam);
        let t = store.value(id);
        assert_eq!(t.row(0), &[0.0, 0.0]);
        assert_eq!(t.row(2), &[0.0, 0.0]);
        assert!(t.get(1, 0) < 0.0 && t.get(1, 1) < 0.0);
    }

    #[test]
    fn duplicate_gather_rows_accumulate() {
        let mut store = ParamStore::new();
        let id = store.register("emb", Tensor2::zeros(2, 1));
        let mut adam = Adam::new(0.1);
        let mut sess = Session::new();
        let v = sess.gather(&store, id, &[0, 0]);
        let s = sess.tape.sum_all(v);
        sess.step(s, &mut store, &mut adam);
        // Row 0 was gathered twice so its gradient is 2.0; Adam still
        // moves it in the negative direction.
        assert!(store.value(id).get(0, 0) < 0.0);
        assert_eq!(store.value(id).get(1, 0), 0.0);
    }

    #[test]
    fn binding_twice_yields_one_leaf_and_one_update() {
        // Twice-bound: loss = sum(w * a) + sum(w * b), one Adam step.
        let a = Tensor2::from_rows(&[&[1.0, -2.0]]);
        let b = Tensor2::from_rows(&[&[0.5, 3.0]]);
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor2::from_rows(&[&[0.25, -0.75]]));
        let mut adam = Adam::new(0.1);
        let mut sess = Session::new();
        let w1 = sess.param(&store, id);
        let w2 = sess.param(&store, id);
        assert_eq!(w1, w2, "a rebinding must return the existing leaf");
        let (av, bv) = (
            sess.tape.leaf(a.clone(), false),
            sess.tape.leaf(b.clone(), false),
        );
        let wa = sess.tape.mul(w1, av);
        let wb = sess.tape.mul(w2, bv);
        let (sa, sb) = (sess.tape.sum_all(wa), sess.tape.sum_all(wb));
        let loss = sess.tape.add(sa, sb);
        let grads = sess.collect_grads(loss);
        assert_eq!(grads.len(), 1, "one GradSet entry per parameter");
        adam.apply_grad_set(&mut store, &grads);
        assert_eq!(adam.steps(), 1);

        // Reference: one binding, one step with the summed gradient a + b.
        let mut ref_store = ParamStore::new();
        let rid = ref_store.register("w", Tensor2::from_rows(&[&[0.25, -0.75]]));
        let mut ref_adam = Adam::new(0.1);
        let mut ref_sess = Session::new();
        let w = ref_sess.param(&ref_store, rid);
        let mut sum = a;
        sum.add_scaled(&b, 1.0);
        let sv = ref_sess.tape.leaf(sum, false);
        let ws = ref_sess.tape.mul(w, sv);
        let ref_loss = ref_sess.tape.sum_all(ws);
        ref_sess.step(ref_loss, &mut ref_store, &mut ref_adam);
        assert_eq!(store.value(id).as_slice(), ref_store.value(rid).as_slice());
    }

    #[test]
    fn iter_exposes_all_params() {
        let mut store = ParamStore::new();
        store.register("a", Tensor2::zeros(1, 2));
        store.register("b", Tensor2::zeros(2, 2));
        let names: Vec<&str> = store.iter().map(|(_, n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(store.num_scalars(), 6);
    }
}
