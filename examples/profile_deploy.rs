//! The Section 5.5 deployment path: profile-driven training with
//! online inference.
//!
//! ```sh
//! cargo run --release --example profile_deploy
//! ```
//!
//! Trains Voyager offline on a profiling trace, checkpoints the
//! weights (the artifact a real deployment would hand to an inference
//! block), restores them into a fresh model, and verifies the deployed
//! model predicts a *different* run of the same program (new seed, same
//! code) — the generalization the profile-driven path depends on.

use voyager::{positions_with_history, SeqBatch, TrainingSet, VoyagerConfig, VoyagerModel};
use voyager_sim::{llc_stream, SimConfig};
use voyager_trace::gen::{Benchmark, GeneratorConfig};

fn main() {
    // Profiling run and deployment run: same program, different input
    // seed.
    let profile_trace = Benchmark::Pr.generate(&GeneratorConfig::medium());
    let deploy_trace = Benchmark::Pr.generate(&GeneratorConfig::medium().with_seed(0xDEAF));
    let sim = SimConfig::scaled();
    let profile = llc_stream(&profile_trace, &sim);
    let deploy = llc_stream(&deploy_trace, &sim);
    println!(
        "profiling stream {} accesses, deployment stream {}",
        profile.len(),
        deploy.len()
    );

    let mut cfg = VoyagerConfig::scaled();
    cfg.train_passes = 8;
    // Build vocabulary and labels from the profiling pass (as the
    // paper's delta profiling does) and train.
    let set = TrainingSet::build(&profile, &cfg);
    let vocab = set.vocab();
    let mut model = VoyagerModel::new(&cfg, vocab.pc_vocab_len(), vocab.page_vocab_len(), 64);
    println!("training offline ({} passes) ...", cfg.train_passes);
    for _pass in 0..cfg.train_passes {
        for start in (0..set.len()).step_by(cfg.batch_size) {
            let (batch, pt, ot) = set.slice_batch(start, (start + cfg.batch_size).min(set.len()));
            model.train_multi(&batch, &pt, &ot);
        }
    }

    // Checkpoint and "ship".
    let mut checkpoint = Vec::new();
    model
        .save(&mut checkpoint)
        .expect("in-memory write cannot fail");
    println!("checkpoint: {} KiB", checkpoint.len() / 1024);
    let mut deployed = VoyagerModel::new(&cfg, vocab.pc_vocab_len(), vocab.page_vocab_len(), 64);
    deployed.load(checkpoint.as_slice()).expect("same layout");

    // Online inference on the deployment stream, tokenized with the
    // profiling vocabulary.
    let dep_tokens = vocab.tokenize(&deploy);
    let mut correct = 0usize;
    let mut total = 0usize;
    let positions: Vec<usize> = positions_with_history(0..deploy.len() - 1, cfg.seq_len).collect();
    for chunk in positions.chunks(cfg.batch_size) {
        let batch = SeqBatch::from_windows(&dep_tokens, chunk.iter().copied(), cfg.seq_len);
        let preds = deployed.predict_fast(&batch, 1);
        for (row, &i) in chunk.iter().enumerate() {
            if let Some(&(p, o, _)) = preds[row].first() {
                if let Some(line) = vocab.resolve_prediction(&deploy[i], p, o) {
                    total += 1;
                    // Windowed check, as in the unified metric.
                    if (i + 1..=(i + 10).min(deploy.len() - 1)).any(|j| deploy[j].line() == line) {
                        correct += 1;
                    }
                }
            }
        }
    }
    println!(
        "deployed model on unseen input: {}/{} predictions useful ({:.1}%)",
        correct,
        total,
        100.0 * correct as f64 / total.max(1) as f64
    );
}
