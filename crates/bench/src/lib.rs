//! Shared harness utilities for regenerating the paper's tables and
//! figures.
//!
//! Each figure/table has a binary under `src/bin/` (see DESIGN.md's
//! per-experiment index); this library provides the pieces they share:
//! scale selection, trace/stream preparation, baseline prediction
//! collection, and plain-text table rendering. [`load`] holds the load
//! drivers and timers that the `layers` bench harness and `voyagerctl`
//! share, and [`fleet_demo`] the synthetic fleet they drive.
//!
//! Set `VOYAGER_SCALE=small|medium|full` to trade experiment fidelity
//! against runtime (default: `medium`, a few minutes per figure on one
//! core; `full` is what EXPERIMENTS.md records).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod load;

use voyager::{OnlineRun, VoyagerConfig};
use voyager_prefetch::Prefetcher;
use voyager_runtime::PredictMode;
use voyager_sim::{llc_stream, SimConfig};
use voyager_trace::gen::{Benchmark, GeneratorConfig};
use voyager_trace::Trace;

/// Lookahead window of the unified accuracy/coverage metric used by the
/// experiments (the paper's co-occurrence window; see
/// [`voyager_sim::unified_accuracy_coverage_windowed`]).
pub const UNIFIED_WINDOW: usize = 10;

/// Experiment scale selected via the `VOYAGER_SCALE` environment
/// variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~20K accesses per trace: smoke-test quality, seconds per figure.
    Small,
    /// ~60K accesses: the default; minutes per figure.
    Medium,
    /// ~200K accesses: what EXPERIMENTS.md records.
    Full,
}

impl Scale {
    /// Reads `VOYAGER_SCALE` (defaults to `Medium`; unknown values fall
    /// back to `Medium` with a warning on stderr).
    pub fn from_env() -> Scale {
        match std::env::var("VOYAGER_SCALE").as_deref() {
            Ok("small") => Scale::Small,
            Ok("full") => Scale::Full,
            Ok(other) if other != "medium" => {
                eprintln!("warning: unknown VOYAGER_SCALE {other:?}, using medium");
                Scale::Medium
            }
            _ => Scale::Medium,
        }
    }

    /// The generator configuration for this scale.
    pub fn generator(&self) -> GeneratorConfig {
        match self {
            Scale::Small => GeneratorConfig::small().with_accesses(20_000),
            Scale::Medium => GeneratorConfig::medium(),
            Scale::Full => GeneratorConfig::full(),
        }
    }
}

/// A prepared workload: the raw trace plus the stream prefetchers see.
#[derive(Debug)]
pub struct Workload {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Raw load trace.
    pub trace: Trace,
    /// The stream prefetchers observe: the LLC-filtered stream for
    /// simulatable benchmarks, the raw trace for `search`/`ads` (which,
    /// as in the paper, carry no timing information).
    pub stream: Trace,
}

/// Prepares a benchmark at the given scale with the default scaled
/// hierarchy.
pub fn prepare(benchmark: Benchmark, scale: Scale) -> Workload {
    let trace = benchmark.generate(&scale.generator());
    let stream = if benchmark.has_timing() {
        llc_stream(&trace, &SimConfig::scaled())
    } else {
        trace.clone()
    };
    Workload {
        benchmark,
        trace,
        stream,
    }
}

/// Collects per-access prediction sets from a classical prefetcher over
/// a stream.
pub fn baseline_predictions(stream: &Trace, prefetcher: &mut dyn Prefetcher) -> Vec<Vec<u64>> {
    let mut preds = Vec::new();
    stream
        .iter()
        .map(|a| {
            prefetcher.access(a, &mut preds);
            preds.clone()
        })
        .collect()
}

/// Runs Voyager's online protocol with the scaled config at a given
/// degree.
pub fn voyager_run(stream: &Trace, degree: usize) -> OnlineRun {
    OnlineRun::execute(stream, &VoyagerConfig::scaled().with_degree(degree))
}

/// Runs the Section 5.5 profile-driven protocol (offline profiling
/// pass, online inference) with a slightly larger training budget —
/// the fair counterpart of the idealized table baselines, which also
/// memorize the full stream.
pub fn voyager_profiled_run(stream: &Trace, degree: usize) -> OnlineRun {
    let mut cfg = VoyagerConfig::scaled().with_degree(degree);
    cfg.train_passes = 10;
    OnlineRun::execute_profiled(stream, &cfg)
}

/// One benchmark's simulator results for a set of prefetchers.
#[derive(Debug)]
pub struct SimComparison {
    /// Benchmark name.
    pub benchmark: String,
    /// No-prefetcher baseline outcome.
    pub baseline: voyager_sim::SimOutcome,
    /// `(prefetcher name, outcome)` pairs.
    pub results: Vec<(String, voyager_sim::SimOutcome)>,
}

/// Simulates a trace with precomputed neural predictions replayed at
/// the LLC, truncated to `degree` candidates per access.
pub fn replay_sim(
    trace: &Trace,
    predictions: Vec<Vec<u64>>,
    degree: usize,
) -> voyager_sim::SimOutcome {
    let mut replay = voyager::ReplayPrefetcher::new(predictions);
    voyager_prefetch::Prefetcher::set_degree(&mut replay, degree);
    voyager_sim::simulate(trace, &mut replay, &SimConfig::scaled())
}

/// Runs the Fig. 5/6/8 comparison for one benchmark: every classical
/// baseline at `degree`, plus (optionally) Delta-LSTM and Voyager via
/// prediction replay. Neural runs dominate the wall-clock.
pub fn sim_comparison(workload: &Workload, degree: usize, neural: bool) -> SimComparison {
    use voyager_prefetch::{BestOffset, Domino, Isb, NoPrefetcher, Stms};
    let cfg = SimConfig::scaled();
    let baseline = voyager_sim::simulate(&workload.trace, &mut NoPrefetcher::new(), &cfg);
    let mut results = Vec::new();
    let mut classical: Vec<(&str, Box<dyn Prefetcher>)> = vec![
        ("stms", Box::new(Stms::new())),
        ("domino", Box::new(Domino::new())),
        ("isb", Box::new(Isb::new())),
        ("bo", Box::new(BestOffset::new())),
    ];
    for (name, p) in &mut classical {
        p.set_degree(degree);
        results.push((
            name.to_string(),
            voyager_sim::simulate(&workload.trace, p.as_mut(), &cfg),
        ));
    }
    if neural {
        let dl = voyager::DeltaLstm::run_online(
            &workload.stream,
            &voyager::DeltaLstmConfig::scaled().with_degree(degree),
        );
        results.push((
            "delta-lstm".to_string(),
            replay_sim(&workload.trace, dl.predictions, degree),
        ));
        let vy = voyager_run(&workload.stream, degree);
        results.push((
            "voyager".to_string(),
            replay_sim(&workload.trace, vy.predictions, degree),
        ));
        let vp = voyager_profiled_run(&workload.stream, degree);
        results.push((
            "voyager-prof".to_string(),
            replay_sim(&workload.trace, vp.predictions, degree),
        ));
    }
    SimComparison {
        benchmark: workload.benchmark.name().to_string(),
        baseline,
        results,
    }
}

/// Arithmetic mean (0.0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Renders a fixed-width table: one row per benchmark, one column per
/// series, values formatted with `{:.3}`, plus a mean row (the paper's
/// "avg" bars).
pub fn print_table(title: &str, columns: &[&str], rows: &[(String, Vec<f64>)]) {
    println!("\n== {title} ==");
    print!("{:<12}", "benchmark");
    for c in columns {
        print!(" {c:>12}");
    }
    println!();
    for (name, values) in rows {
        print!("{name:<12}");
        for v in values {
            print!(" {v:>12.3}");
        }
        println!();
    }
    if !rows.is_empty() {
        print!("{:<12}", "mean");
        for col in 0..columns.len() {
            let vals: Vec<f64> = rows
                .iter()
                .filter_map(|(_, v)| v.get(col).copied())
                .collect();
            print!(" {:>12.3}", mean(&vals));
        }
        println!();
    }
}

/// The name a bench JSON reports a serving mode under.
pub fn mode_name(mode: PredictMode) -> &'static str {
    match mode {
        PredictMode::FastF32 => "fast_f32",
        PredictMode::FastInt8 => "fast_int8",
        PredictMode::Table => "table",
    }
}

/// Shared synthetic multi-workload fleet used by the `layers` harness's
/// `fleet` section and `voyagerctl fleet-bench` (the benchmark's fleet
/// workload takes [`steady_config`](fleet_demo::steady_config) from
/// here too): per-workload request streams, shard specs cycling through
/// the serving tiers, and train-then-publish helpers over an in-memory
/// [`ModelRegistry`].
pub mod fleet_demo {
    use std::time::Duration;

    use voyager::{SeqBatch, VoyagerConfig, VoyagerModel};
    use voyager_distill::{distill, DistilledTables, TableConfig};
    use voyager_runtime::{
        FleetConfig, InferenceRequest, MicrobatchConfig, ModelRegistry, ModelSpec, PredictMode,
        ShardSpec, Version, WorkloadId,
    };

    /// Page vocabulary shared by every demo shard.
    pub const PAGE_VOCAB: usize = 256;
    const PC_VOCAB: usize = 64;
    const OFFSET_VOCAB: usize = 64;

    /// The model layout every demo shard serves (test-scale config, so
    /// fleets spin up in seconds).
    pub fn model_spec() -> ModelSpec {
        ModelSpec {
            cfg: VoyagerConfig::test(),
            pc_vocab: PC_VOCAB,
            page_vocab: PAGE_VOCAB,
            offset_vocab: OFFSET_VOCAB,
        }
    }

    /// The `t`-th request of `workload`'s stream. Each workload walks
    /// its own stride family, so shards see distinct streams and a
    /// table shard's coverage is specific to its own corpus.
    pub fn request(workload: WorkloadId, t: usize) -> InferenceRequest {
        let w = workload.0 as usize;
        let seq = VoyagerConfig::test().seq_len;
        InferenceRequest {
            workload,
            pc: (0..seq).map(|j| (t * (w + 1) + j) % PC_VOCAB).collect(),
            page: (0..seq)
                .map(|j| (t * (2 * w + 3) + j) % PAGE_VOCAB)
                .collect(),
            offset: (0..seq).map(|j| (t * (w + 5) + j) % OFFSET_VOCAB).collect(),
        }
    }

    /// `n` shard specs cycling through the serving tiers —
    /// table-fronted int8 (the fleet default), pure int8, fast-f32 —
    /// at prefetch degree 2.
    pub fn default_shards(n: usize) -> Vec<ShardSpec> {
        let modes = [
            PredictMode::Table,
            PredictMode::FastInt8,
            PredictMode::Table,
            PredictMode::FastF32,
        ];
        (0..n)
            .map(|i| ShardSpec::new(WorkloadId(i as u32), 2, modes[i % modes.len()]))
            .collect()
    }

    /// The first `windows` request windows of `workload`'s stream as a
    /// distillation corpus.
    pub fn corpus(workload: WorkloadId, windows: usize) -> SeqBatch {
        let mut c = SeqBatch::default();
        for t in 0..windows {
            let r = request(workload, t);
            c.pc.push(r.pc);
            c.page.push(r.page);
            c.offset.push(r.offset);
        }
        c
    }

    /// Trains a fresh model on `workload`'s stream for `train_steps`
    /// single-window steps. `variant` offsets the training targets, so
    /// `variant: 1` yields a distinguishable successor model for
    /// hot-swap demos.
    pub fn trained_model(workload: WorkloadId, train_steps: usize, variant: usize) -> VoyagerModel {
        let mut model = model_spec().instantiate();
        for step in 0..train_steps {
            let r = request(workload, step);
            let batch = SeqBatch {
                pc: vec![r.pc],
                page: vec![r.page],
                offset: vec![r.offset],
            };
            let w = workload.0 as usize;
            model.train_single(
                &batch,
                &[(step * 7 + w + 13 * variant) % PAGE_VOCAB],
                &[(step * 11 + w + 17 * variant) % OFFSET_VOCAB],
            );
        }
        model
    }

    /// Distills serving tables for `workload` from the first
    /// `distill_windows` windows of its stream. Serve a longer stream
    /// and both table hits and int8 fallbacks show up.
    pub fn tables_for(
        model: &mut VoyagerModel,
        workload: WorkloadId,
        distill_windows: usize,
    ) -> DistilledTables {
        let (tables, _) = distill(
            model,
            &corpus(workload, distill_windows),
            &TableConfig::for_budget(1 << 18),
        );
        tables
    }

    /// Trains a fresh model on `shard.workload`'s stream and publishes
    /// it (with distilled tables for [`PredictMode::Table`] shards).
    /// Returns the published version.
    pub fn publish_shard(
        registry: &ModelRegistry,
        shard: &ShardSpec,
        train_steps: usize,
        distill_windows: usize,
    ) -> Version {
        let mut model = trained_model(shard.workload, train_steps, 0);
        let tables = if shard.mode == PredictMode::Table && distill_windows > 0 {
            Some(tables_for(&mut model, shard.workload, distill_windows))
        } else {
            None
        };
        registry
            .publish(shard.workload, &model_spec(), &model, tables)
            .expect("in-memory publish cannot fail")
    }

    /// Publishes one trained model per shard (see
    /// [`publish_shard`]).
    pub fn publish_all(
        registry: &ModelRegistry,
        shards: &[ShardSpec],
        train_steps: usize,
        distill_windows: usize,
    ) {
        for shard in shards {
            publish_shard(registry, shard, train_steps, distill_windows);
        }
    }

    /// Serving knobs for steady-state phases: roomy queue, generous
    /// SLO — nothing should shed.
    pub fn steady_config() -> FleetConfig {
        FleetConfig {
            microbatch: MicrobatchConfig {
                max_batch: 8,
                max_delay: Duration::from_micros(200),
            },
            max_queue_depth: 4096,
            slo: Duration::from_secs(5),
        }
    }

    /// Deliberately tight bounds for overload phases: queue depth far
    /// below the offered concurrency, tight SLO — admission control
    /// must shed instead of letting p99 blow through the objective.
    pub fn overload_config() -> FleetConfig {
        FleetConfig {
            microbatch: MicrobatchConfig {
                max_batch: 8,
                max_delay: Duration::from_micros(200),
            },
            max_queue_depth: 6,
            slo: Duration::from_millis(100),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_generator_sizes_are_ordered() {
        assert!(Scale::Small.generator().accesses < Scale::Medium.generator().accesses);
        assert!(Scale::Medium.generator().accesses < Scale::Full.generator().accesses);
    }

    #[test]
    fn prepare_filters_simulatable_benchmarks_only() {
        let w = prepare(Benchmark::Bfs, Scale::Small);
        assert!(w.stream.len() < w.trace.len());
        let g = prepare(Benchmark::Search, Scale::Small);
        assert_eq!(g.stream.len(), g.trace.len());
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn baseline_predictions_align_with_stream() {
        let w = prepare(Benchmark::Pr, Scale::Small);
        let mut isb = voyager_prefetch::Isb::new();
        let preds = baseline_predictions(&w.stream, &mut isb);
        assert_eq!(preds.len(), w.stream.len());
    }
}
