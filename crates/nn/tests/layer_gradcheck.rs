//! Numeric gradient checks through whole layers: the analytic gradients
//! that `Session::step` applies must match central finite differences
//! of the loss with respect to every parameter tensor.

use voyager_tensor::rng::{SeedableRng, StdRng};

use voyager_nn::{
    Embedding, ExpertAttention, GradEntry, Layer, Linear, LstmCell, ParamStore, Session,
};
use voyager_tensor::gradcheck::assert_grads_close;
use voyager_tensor::{Tape, Tensor2};

/// Computes the loss value for the current store contents.
fn loss_value(
    build: &dyn Fn(&mut Session, &ParamStore) -> voyager_tensor::Var,
    store: &ParamStore,
) -> f32 {
    let mut sess = Session::new();
    let loss = build(&mut sess, store);
    sess.tape.value(loss).get(0, 0)
}

/// Checks, for every parameter in the store, that the session's
/// analytic gradient — exactly one [`GradEntry`] per parameter, with
/// sparse embedding rows scattered back into the table — matches
/// central finite differences, and that a small step along the
/// numeric gradient lowers the loss.
fn check_params(
    build: impl Fn(&mut Session, &ParamStore) -> voyager_tensor::Var,
    store: &mut ParamStore,
) {
    let analytic = {
        let mut sess = Session::new();
        let loss = build(&mut sess, store);
        sess.collect_grads(loss)
    };
    let ids: Vec<_> = store.iter().map(|(id, _, _)| id).collect();
    for id in ids {
        let (rows, cols) = store.value(id).shape();
        let mut numeric = Tensor2::zeros(rows, cols);
        let eps = 5e-3;
        for r in 0..rows {
            for c in 0..cols {
                let orig = store.value(id).get(r, c);
                store.value_mut(id).set(r, c, orig + eps);
                let plus = loss_value(&build, store);
                store.value_mut(id).set(r, c, orig - eps);
                let minus = loss_value(&build, store);
                store.value_mut(id).set(r, c, orig);
                numeric.set(r, c, (plus - minus) / (2.0 * eps));
            }
        }
        let entries: Vec<&GradEntry> = analytic
            .iter()
            .filter(|&(bound, _)| bound == id)
            .map(|(_, entry)| entry)
            .collect();
        assert_eq!(
            entries.len(),
            1,
            "{} must have exactly one gradient entry",
            store.name(id)
        );
        let grad = match entries[0] {
            GradEntry::Dense(g) => g.clone(),
            GradEntry::Sparse { rows: ids, grad } => {
                let mut dense = Tensor2::zeros(rows, cols);
                for (i, &r) in ids.iter().enumerate() {
                    for (d, &g) in dense.row_mut(r).iter_mut().zip(grad.row(i)) {
                        *d += g;
                    }
                }
                dense
            }
        };
        assert_grads_close(&grad, &numeric, 2e-2);

        let norm = numeric.sq_norm().sqrt();
        if norm < 1e-6 {
            continue;
        }
        let before = loss_value(&build, store);
        let step = 1e-2 / norm;
        store.value_mut(id).add_scaled(&numeric, -step);
        let after = loss_value(&build, store);
        store.value_mut(id).add_scaled(&numeric, step);
        assert!(
            after < before + 1e-6,
            "descending along the numeric gradient of {} must not increase the loss: {} -> {}",
            store.name(id),
            before,
            after
        );
    }
}

#[test]
fn linear_layer_descends_along_numeric_gradient() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut store = ParamStore::new();
    let fc = Linear::new(&mut store, "fc", 3, 2, &mut rng);
    let x = Tensor2::uniform(4, 3, 1.0, &mut rng);
    let build = move |sess: &mut Session, store: &ParamStore| {
        let xv = sess.tape.leaf(x.clone(), false);
        let y = fc.forward(sess, store, xv);
        let sq = sess.tape.mul(y, y);
        sess.tape.mean_all(sq)
    };
    check_params(build, &mut store);
}

#[test]
fn lstm_cell_descends_along_numeric_gradient() {
    // Three steps of a batch of two, time-major, through forward_seq.
    let mut rng = StdRng::seed_from_u64(12);
    let mut store = ParamStore::new();
    let cell = LstmCell::new(&mut store, "lstm", 2, 3, &mut rng);
    let x = Tensor2::uniform(3 * 2, 2, 1.0, &mut rng);
    let build = move |sess: &mut Session, store: &ParamStore| {
        let xv = sess.tape.leaf(x.clone(), false);
        let h = cell.forward_seq(sess, store, xv, 3);
        let sq = sess.tape.mul(h, h);
        sess.tape.sum_all(sq)
    };
    check_params(build, &mut store);
}

#[test]
fn attention_plus_embedding_descends_along_numeric_gradient() {
    let mut rng = StdRng::seed_from_u64(13);
    let mut store = ParamStore::new();
    let page = Embedding::new(&mut store, "page", 5, 4, &mut rng);
    let offset = Embedding::new(&mut store, "off", 7, 8, &mut rng); // 2 experts of dim 4
    let attn = ExpertAttention::new(2, 0.5);
    let build = move |sess: &mut Session, store: &ParamStore| {
        // Row 3 of the page table is gathered twice: its two sparse
        // gradient rows must sum.
        let pg = page.forward(sess, store, &[1, 3, 3]);
        let of = offset.forward(sess, store, &[2, 6, 0]);
        let mixed = attn.forward(sess, store, (pg, of));
        let sq = sess.tape.mul(mixed, mixed);
        sess.tape.sum_all(sq)
    };
    check_params(build, &mut store);
}

#[test]
fn session_gradients_match_finite_differences_for_linear() {
    // Direct analytic-vs-numeric comparison where the gradient is
    // observable: replicate the Linear layer on a raw tape.
    let mut rng = StdRng::seed_from_u64(14);
    let w = Tensor2::uniform(3, 2, 1.0, &mut rng);
    let b = Tensor2::uniform(1, 2, 1.0, &mut rng);
    let x = Tensor2::uniform(4, 3, 1.0, &mut rng);
    let f = |inputs: &[Tensor2]| -> f32 {
        let mut tape = Tape::new();
        let wv = tape.leaf(inputs[0].clone(), false);
        let bv = tape.leaf(inputs[1].clone(), false);
        let xv = tape.leaf(x.clone(), false);
        let xw = tape.matmul(xv, wv);
        let y = tape.add_row(xw, bv);
        let sq = tape.mul(y, y);
        let m = tape.mean_all(sq);
        tape.value(m).get(0, 0)
    };
    let numeric = voyager_tensor::gradcheck::numeric_grad(f, &[w.clone(), b.clone()], 1e-2);

    let mut tape = Tape::new();
    let wv = tape.leaf(w, true);
    let bv = tape.leaf(b, true);
    let xv = tape.leaf(x.clone(), false);
    let xw = tape.matmul(xv, wv);
    let y = tape.add_row(xw, bv);
    let sq = tape.mul(y, y);
    let loss = tape.mean_all(sq);
    tape.backward(loss);
    assert_grads_close(tape.grad(wv).unwrap(), &numeric[0], 3e-2);
    assert_grads_close(tape.grad(bv).unwrap(), &numeric[1], 3e-2);
}
