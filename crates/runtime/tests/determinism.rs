//! The data-parallel trainer's core contract: for a fixed seed, the
//! worker count changes wall-clock time, never results.

use voyager::{OutputHead, TrainingSet, VoyagerConfig};
use voyager_runtime::{train_data_parallel, TrainerConfig};
use voyager_trace::{MemoryAccess, Trace};

fn stream() -> Trace {
    let mut t = Trace::new("det");
    for i in 0..1200u64 {
        t.push(MemoryAccess::new(100 + i % 4, ((i * 17) % 300) * 64));
    }
    t
}

fn run(workers: usize) -> (Vec<f32>, Vec<voyager_tensor::Tensor2>) {
    run_with(&VoyagerConfig::test(), workers)
}

fn run_with(cfg: &VoyagerConfig, workers: usize) -> (Vec<f32>, Vec<voyager_tensor::Tensor2>) {
    let cfg = *cfg;
    let set = TrainingSet::build(&stream(), &cfg);
    let mut tcfg = TrainerConfig::new(workers, &cfg);
    tcfg.max_steps = Some(12);
    let (model, report) = train_data_parallel(&set, &cfg, &tcfg);
    assert_eq!(report.steps, 12);
    assert_eq!(report.workers, workers);
    assert_eq!(report.step_losses.len(), 12);
    (report.step_losses, model.export_param_values())
}

#[test]
fn one_and_four_workers_match_bitwise() {
    let (losses1, params1) = run(1);
    let (losses4, params4) = run(4);
    // Per-step losses must be identical, not merely close.
    assert_eq!(losses1, losses4);
    // And so must every trained parameter.
    assert_eq!(params1.len(), params4.len());
    for (a, b) in params1.iter().zip(&params4) {
        assert_eq!(a.as_slice(), b.as_slice());
    }
}

/// FNV-1a over the step losses' bits, then every trained parameter's
/// shape and bits in store order.
fn digest(losses: &[f32], params: &[voyager_tensor::Tensor2]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for loss in losses {
        eat(u64::from(loss.to_bits()));
    }
    for p in params {
        eat(p.rows() as u64);
        eat(p.cols() as u64);
        for v in p.as_slice() {
            eat(u64::from(v.to_bits()));
        }
    }
    h
}

fn pin(expected: u64, cfg: &VoyagerConfig) {
    let (losses, params) = run_with(cfg, 2);
    let got = digest(&losses, &params);
    assert_eq!(got, expected, "digest moved: got {got:#018x}");
}

/// Pins what the trainer computes, not only that worker counts agree:
/// a change to target construction, the loss or the reduction that
/// moves one loss or parameter bit fails here.
#[test]
fn dense_head_training_is_pinned() {
    pin(0x4cce_48de_af7f_120e, &VoyagerConfig::test());
}

#[test]
fn hierarchical_head_training_is_pinned() {
    pin(
        0x9e01_1c69_f68c_2d0d,
        &VoyagerConfig::test().with_output_head(OutputHead::Hier),
    );
}

#[test]
fn three_workers_match_too() {
    // An uneven worker count exercises round-robin shard assignment
    // where workers get different shard loads.
    let (losses1, _) = run(1);
    let (losses3, _) = run(3);
    assert_eq!(losses1, losses3);
}

#[test]
fn profiled_run_matches_unprofiled_and_counts_spans() {
    use std::sync::Arc;
    use voyager_obs::{ManualClock, Profiler};
    use voyager_runtime::train_data_parallel_profiled;

    let cfg = VoyagerConfig::test();
    let set = TrainingSet::build(&stream(), &cfg);
    let mut tcfg = TrainerConfig::new(2, &cfg);
    tcfg.max_steps = Some(6);

    let (plain_model, plain) = train_data_parallel(&set, &cfg, &tcfg);
    let profiler = Profiler::new(Arc::new(ManualClock::new()));
    let (prof_model, prof) = train_data_parallel_profiled(&set, &cfg, &tcfg, &profiler);

    // Instrumentation must be a pure observer.
    assert_eq!(plain.step_losses, prof.step_losses);
    let pa = plain_model.export_param_values();
    let pb = prof_model.export_param_values();
    for (a, b) in pa.iter().zip(&pb) {
        assert_eq!(a.as_slice(), b.as_slice());
    }

    // Span counts are a deterministic function of the workload.
    let report = profiler.report();
    assert_eq!(report.roots.len(), 1);
    let epoch = &report.roots[0];
    assert_eq!(epoch.name, "epoch");
    assert_eq!(epoch.count, 1, "max_steps stops within the first pass");
    assert_eq!(epoch.children.len(), 1);
    let step = &epoch.children[0];
    assert_eq!(step.name, "step");
    assert_eq!(step.count, 6);
    let names: Vec<&str> = step.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, vec!["allreduce", "grad", "optimizer"]);
    for child in &step.children {
        assert_eq!(child.count, 6, "{} once per step", child.name);
    }
}

#[test]
fn losses_decrease_over_training() {
    let cfg = VoyagerConfig::test();
    let set = TrainingSet::build(&stream(), &cfg);
    let mut tcfg = TrainerConfig::new(2, &cfg);
    tcfg.passes = 4;
    let (_, report) = train_data_parallel(&set, &cfg, &tcfg);
    let first = report.step_losses.first().copied().unwrap();
    let last = report.step_losses.last().copied().unwrap();
    assert!(last < first, "no learning progress: {first} -> {last}");
    assert!(report.throughput() > 0.0);
    assert_eq!(report.samples, set.len() * 4);
}
