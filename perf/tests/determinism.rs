//! Runs the benchmark at test sizes: deterministic metrics repeat
//! exactly for a seed, and every metric a run prints is declared in
//! `BENCHMARK.json`.

use voyager_perf::{run, Metric, Options, Outcome, Sizes, Workload, HELD_OUT_SEED};

/// End-to-end metrics that depend only on the seed, never on timing.
const DETERMINISTIC: [&str; 4] = [
    "online_acc",
    "online_ipc_speedup",
    "serve_acc",
    "sim_ipc_speedup",
];

fn run_tiny(seed: u64, trace: bool) -> Outcome {
    let opts = Options {
        workload: Workload::PaperOnline,
        seed,
        seconds: 0.0,
        trace,
    };
    let out = run(&opts, &Sizes::tiny());
    assert_eq!(out.checks.failed, 0, "output checks failed for seed {seed}");
    assert!(out.checks.attempted > 0);
    out
}

fn deterministic(seed: u64) -> Vec<Metric> {
    run_tiny(seed, false)
        .metrics
        .into_iter()
        .filter(|m| DETERMINISTIC.contains(&m.name.as_str()))
        .collect()
}

#[test]
fn same_seed_repeats_deterministic_metrics_exactly() {
    for seed in [1, HELD_OUT_SEED] {
        let first = deterministic(seed);
        assert_eq!(first.len(), DETERMINISTIC.len());
        assert!(first.iter().all(|m| m.value.is_finite() && m.value > 0.0));
        assert_eq!(first, deterministic(seed), "seed {seed}");
    }
}

#[test]
fn every_metric_printed_is_declared_in_benchmark_json() {
    let declared =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    let names = declared.matches("\"name\":").count();
    let mut printed = 0;
    for trace in [false, true] {
        let out = run_tiny(7, trace);
        for m in &out.metrics {
            assert!(
                declared.contains(&format!("\"name\": \"{}\"", m.name)),
                "{} is not declared",
                m.name
            );
        }
        printed += out.metrics.len();
    }
    // Every declared name other than the workloads is printed once.
    assert_eq!(printed + Workload::ALL.len(), names);
}
