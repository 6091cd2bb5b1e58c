//! Section 5.4 in miniature: prune and quantize a trained Voyager.
//!
//! ```sh
//! cargo run --release --example compress_model
//! ```
//!
//! Trains a small Voyager on a repeating irregular pattern, then
//! applies 80% magnitude pruning and 8-bit quantization — the paper's
//! recipe for a 110–200× size reduction versus Delta-LSTM with <1%
//! accuracy loss — and re-checks the model's predictions.

use voyager::{SeqBatch, VoyagerConfig, VoyagerModel};
use voyager_nn::compress;

fn main() {
    // A tiny supervised task standing in for a trained prefetcher:
    // 16 distinct histories, each mapping to a distinct (page, offset).
    let cfg = VoyagerConfig::test();
    let mut model = VoyagerModel::new(&cfg, 32, 64, 64);
    let histories: Vec<(usize, usize, usize)> = (0..16)
        .map(|i| (i % 32, (i * 5) % 64, (i * 11) % 64))
        .collect();
    let batch = SeqBatch {
        pc: histories
            .iter()
            .map(|&(pc, _, _)| vec![pc; cfg.seq_len])
            .collect(),
        page: histories
            .iter()
            .map(|&(_, pg, _)| vec![pg; cfg.seq_len])
            .collect(),
        offset: histories
            .iter()
            .map(|&(_, _, of)| vec![of; cfg.seq_len])
            .collect(),
    };
    let targets: Vec<(usize, usize)> = (0..16)
        .map(|i| ((i * 7 + 3) % 64, (i * 13 + 1) % 64))
        .collect();
    let (pt, ot): (Vec<_>, Vec<_>) = targets.iter().map(|&(p, o)| (vec![p], vec![o])).unzip();
    println!("training ...");
    for step in 0..1_200 {
        let loss = model.train_multi(&batch, &pt, &ot);
        if step % 300 == 0 {
            println!("  step {step}: loss {loss:.4}");
        }
    }
    let accuracy = |m: &mut VoyagerModel| {
        let preds = m.predict_fast(&batch, 1);
        let correct = preds
            .iter()
            .zip(&targets)
            .filter(|(p, &(tp, to))| p[0].0 as usize == tp && p[0].1 as usize == to)
            .count();
        correct as f64 / targets.len() as f64
    };
    let before = accuracy(&mut model);
    let size_before = compress::model_size(model.store());
    println!(
        "trained:    accuracy {:.2}, dense size {} bytes",
        before, size_before.dense_f32
    );

    // The paper prunes 80% of its 50M-parameter model; a 11K-parameter
    // toy has far less redundancy, so this walkthrough prunes half.
    let zeroed = compress::prune_magnitude(model.store_mut(), 0.5);
    let err = compress::quantize_store_inplace(model.store_mut());
    let after = accuracy(&mut model);
    let size_after = compress::model_size(model.store());
    println!(
        "compressed: accuracy {:.2}, sparse+int8 size {} bytes ({:.1}x smaller)",
        after,
        size_after.sparse_int8,
        size_before.dense_f32 as f64 / size_after.sparse_int8 as f64
    );
    println!("pruned {zeroed} weights; max quantization error {err:.4}");
    println!("\npaper: 80% pruning (5-7x) + int8 (4x) cost <1% accuracy");
}
