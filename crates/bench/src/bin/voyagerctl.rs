//! `voyagerctl` — command-line front end for the Voyager reproduction.
//!
//! ```text
//! voyagerctl gen <benchmark> <out.vtrc> [accesses] [seed]
//!     Generate a workload trace and save it in the binary format.
//! voyagerctl stats <benchmark|trace.vtrc>
//!     Print Table 2-style statistics.
//! voyagerctl filter <in.vtrc> <out.vtrc>
//!     Filter a raw trace to its LLC access stream (scaled hierarchy).
//! voyagerctl run <benchmark|trace.vtrc> <prefetcher> [degree]
//!     Evaluate a prefetcher (stms|domino|isb|bo|stride|markov|vldp|
//!     sms|next-line|isb+bo|isb-structural|voyager|voyager-prof|delta-lstm) with the
//!     unified metric and, for generated benchmarks, the simulator.
//! voyagerctl simpoints <benchmark|trace.vtrc> [interval] [k]
//!     SimPoint phase analysis.
//! voyagerctl train <benchmark|trace.vtrc> [--workers N] [--steps S]
//!                  [--passes P] [--config test|scaled]
//!                  [--checkpoint-dir DIR]
//!     Data-parallel training over N worker threads. Per-step losses
//!     are bitwise-identical for any N at a fixed seed; only the
//!     wall-clock changes.
//! voyagerctl serve-bench <benchmark|trace.vtrc> [--requests N]
//!                        [--clients C] [--max-batch B]
//!                        [--max-delay-us U] [--degree D]
//!                        [--config test|scaled]
//!                        [--mode fast|int8|table]
//!     Drive the microbatched inference server with C client threads
//!     and print throughput plus p50/p99 latency. `--mode fast` (the
//!     default) serves through the tape-free f32 engine, `--mode int8`
//!     through the quantized one, `--mode table` through distilled
//!     lookup tables (built from the stream's own windows; misses fall
//!     back to int8).
//! voyagerctl fleet-bench [--shards N] [--clients C] [--requests R]
//!                        [--depth D] [--slo-us S] [--train-steps T]
//!     Spawn an N-shard multi-tenant fleet (shards cycle through the
//!     table/int8/f32 serving tiers) over a versioned model registry,
//!     drive it with C closed-loop clients per shard for R requests
//!     each, hot-swap shard w0 to a freshly published v2 mid-run, and
//!     print per-shard admitted/shed counts and p50/p99 latency.
//!     `--depth` bounds each shard's queue and `--slo-us` sets the
//!     admission-control latency objective — shrink them to watch the
//!     fleet shed load instead of queueing without bound.
//! voyagerctl metrics [--smoke] [--serve-mode int8|table]
//!     Run a short sim + train + serve pipeline with the voyager-obs
//!     observability layer enabled and dump the full metrics snapshot
//!     (counters, histograms, span tree) as validated JSON on stdout.
//!     `--smoke` shrinks the workload for CI. `--serve-mode table`
//!     (the default) serves through distilled tables built from half
//!     the request windows, so the `infer.table.*` counters observe
//!     both hits and int8 fallbacks; `--serve-mode int8` restores the
//!     pure quantized path.
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use voyager::{
    positions_with_history, DeltaLstm, DeltaLstmConfig, OnlineRun, SeqBatch, TrainingSet,
    VoyagerConfig, VoyagerModel,
};
use voyager_bench::load::{drive_fleet, serve_closed_loop};
use voyager_bench::{fleet_demo, mode_name};
use voyager_distill::{distill, DistillReport, TableConfig};
use voyager_obs::{Profiler, Registry};
use voyager_prefetch::{
    BestOffset, Domino, Isb, IsbBoHybrid, IsbStructural, Markov, NextLine, Prefetcher, Sms, Stms,
    StridePc, Vldp,
};
use voyager_runtime::{
    train_data_parallel, train_data_parallel_profiled, CheckpointManager, FleetConfig, FleetServer,
    InferenceRequest, MicrobatchConfig, ModelRegistry, PredictMode, ServiceConfig, TrainerConfig,
    VoyagerService,
};
use voyager_sim::{llc_stream, unified_accuracy_coverage_windowed, SimConfig};
use voyager_trace::gen::{Benchmark, GeneratorConfig};
use voyager_trace::serialize::{read_trace, write_trace};
use voyager_trace::simpoint::simpoints;
use voyager_trace::stats::TraceStats;
use voyager_trace::vocab::{TokenizedAccess, Vocabulary};
use voyager_trace::Trace;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("filter") => cmd_filter(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("simpoints") => cmd_simpoints(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("serve-bench") => cmd_serve_bench(&args[1..]),
        Some("fleet-bench") => cmd_fleet_bench(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        _ => {
            eprintln!("usage: voyagerctl <gen|stats|filter|run|simpoints|train|serve-bench|fleet-bench|metrics> ... (see --help in the module docs)");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Loads a trace from a benchmark name or a `.vtrc` file.
fn load(source: &str) -> Result<Trace, Box<dyn std::error::Error>> {
    if source.ends_with(".vtrc") {
        Ok(read_trace(BufReader::new(File::open(source)?))?)
    } else {
        let benchmark = Benchmark::from_str(source)?;
        Ok(benchmark.generate(&GeneratorConfig::medium()))
    }
}

fn cmd_gen(args: &[String]) -> CliResult {
    let [benchmark, out, rest @ ..] = args else {
        return Err("usage: gen <benchmark> <out.vtrc> [accesses] [seed]".into());
    };
    let benchmark = Benchmark::from_str(benchmark)?;
    let mut cfg = GeneratorConfig::medium();
    if let Some(a) = rest.first() {
        cfg = cfg.with_accesses(a.parse()?);
    }
    if let Some(s) = rest.get(1) {
        cfg = cfg.with_seed(s.parse()?);
    }
    let trace = benchmark.generate(&cfg);
    write_trace(BufWriter::new(File::create(out)?), &trace)?;
    println!("wrote {trace} to {out}");
    Ok(())
}

fn cmd_stats(args: &[String]) -> CliResult {
    let [source] = args else {
        return Err("usage: stats <benchmark|trace.vtrc>".into());
    };
    let trace = load(source)?;
    println!("{trace}: {}", TraceStats::of(&trace));
    Ok(())
}

fn cmd_filter(args: &[String]) -> CliResult {
    let [input, out] = args else {
        return Err("usage: filter <in.vtrc> <out.vtrc>".into());
    };
    let trace = load(input)?;
    let stream = llc_stream(&trace, &SimConfig::scaled());
    println!("{} -> {} LLC accesses", trace, stream.len());
    write_trace(BufWriter::new(File::create(out)?), &stream)?;
    Ok(())
}

fn cmd_run(args: &[String]) -> CliResult {
    let [source, prefetcher, rest @ ..] = args else {
        return Err("usage: run <benchmark|trace.vtrc> <prefetcher> [degree]".into());
    };
    let degree: usize = rest.first().map(|d| d.parse()).transpose()?.unwrap_or(1);
    let trace = load(source)?;
    let stream = llc_stream(&trace, &SimConfig::scaled());
    let predictions: Vec<Vec<u64>> = match prefetcher.as_str() {
        "voyager" => {
            OnlineRun::execute(&stream, &VoyagerConfig::scaled().with_degree(degree)).predictions
        }
        "voyager-prof" => {
            let mut cfg = VoyagerConfig::scaled().with_degree(degree);
            cfg.train_passes = 10;
            OnlineRun::execute_profiled(&stream, &cfg).predictions
        }
        "delta-lstm" => {
            DeltaLstm::run_online(&stream, &DeltaLstmConfig::scaled().with_degree(degree))
                .predictions
        }
        name => {
            let mut p: Box<dyn Prefetcher> = match name {
                "stms" => Box::new(Stms::new()),
                "domino" => Box::new(Domino::new()),
                "isb" => Box::new(Isb::new()),
                "isb-structural" => Box::new(IsbStructural::new()),
                "bo" => Box::new(BestOffset::new()),
                "stride" => Box::new(StridePc::new()),
                "markov" => Box::new(Markov::new()),
                "vldp" => Box::new(Vldp::new()),
                "sms" => Box::new(Sms::new()),
                "next-line" => Box::new(NextLine::new()),
                "isb+bo" => Box::new(IsbBoHybrid::new()),
                other => return Err(format!("unknown prefetcher {other:?}").into()),
            };
            p.set_degree(degree);
            stream.iter().map(|a| p.access_collect(a)).collect()
        }
    };
    let strict = unified_accuracy_coverage_windowed(&stream, &predictions, 1);
    let windowed = unified_accuracy_coverage_windowed(&stream, &predictions, 10);
    println!(
        "{} / {prefetcher} (degree {degree}) on {} LLC accesses",
        trace.name(),
        stream.len()
    );
    println!("  unified acc/cov strict:    {strict}");
    println!("  unified acc/cov window 10: {windowed}");
    Ok(())
}

/// Parses `--flag value` pairs after the positional arguments.
fn parse_flags(args: &[String]) -> Result<std::collections::HashMap<String, String>, String> {
    let mut flags = std::collections::HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected --flag, found {flag:?}"));
        };
        let Some(value) = it.next() else {
            return Err(format!("--{name} requires a value"));
        };
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn config_preset(name: Option<&String>) -> Result<VoyagerConfig, String> {
    match name.map(String::as_str) {
        None | Some("scaled") => Ok(VoyagerConfig::scaled()),
        Some("test") => Ok(VoyagerConfig::test()),
        Some(other) => Err(format!("unknown config preset {other:?} (use test|scaled)")),
    }
}

fn cmd_train(args: &[String]) -> CliResult {
    let [source, rest @ ..] = args else {
        return Err("usage: train <benchmark|trace.vtrc> [--workers N] [--steps S] [--passes P] [--config test|scaled] [--checkpoint-dir DIR]".into());
    };
    let flags = parse_flags(rest)?;
    let workers: usize = flags
        .get("workers")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(1);
    let cfg = config_preset(flags.get("config"))?;
    let trace = load(source)?;
    let stream = llc_stream(&trace, &SimConfig::scaled());
    let set = TrainingSet::build(&stream, &cfg);
    if set.is_empty() {
        return Err("stream produced no trainable samples".into());
    }
    let mut tcfg = TrainerConfig::new(workers, &cfg);
    tcfg.passes = flags
        .get("passes")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(1);
    tcfg.max_steps = flags.get("steps").map(|v| v.parse()).transpose()?;
    if let Some(rows) = flags.get("shard-rows") {
        tcfg.shard_rows = rows.parse()?;
    }
    println!(
        "training on {} ({} LLC accesses, {} samples) with {} worker(s), shard {} rows",
        trace.name(),
        stream.len(),
        set.len(),
        tcfg.workers,
        tcfg.shard_rows
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if tcfg.workers > cores {
        eprintln!(
            "note: {} workers on {cores} core(s) — results stay identical, but the \
             speedup needs at least as many cores as workers",
            tcfg.workers
        );
    }
    let (model, report) = train_data_parallel(&set, &cfg, &tcfg);
    let show = report.step_losses.len().min(5);
    for (i, loss) in report.step_losses[..show].iter().enumerate() {
        println!("  step {:>4}  loss {loss:.6}", i + 1);
    }
    if report.step_losses.len() > show {
        println!("  ... ({} more steps)", report.step_losses.len() - show);
    }
    println!(
        "{} steps over {} samples in {:.2}s ({:.0} samples/s), final loss {:.6}",
        report.steps,
        report.samples,
        report.wall_seconds,
        report.throughput(),
        report.step_losses.last().copied().unwrap_or(f32::NAN),
    );
    if let Some(dir) = flags.get("checkpoint-dir") {
        let mgr = CheckpointManager::new(dir, 3)?;
        let path = mgr.save(&model, report.steps as u64)?;
        println!("checkpoint written to {}", path.display());
    }
    Ok(())
}

fn cmd_serve_bench(args: &[String]) -> CliResult {
    let [source, rest @ ..] = args else {
        return Err("usage: serve-bench <benchmark|trace.vtrc> [--requests N] [--clients C] [--max-batch B] [--max-delay-us U] [--degree D] [--config test|scaled] [--mode fast|int8|table]".into());
    };
    let flags = parse_flags(rest)?;
    let cfg = config_preset(flags.get("config"))?;
    let requests: usize = flags
        .get("requests")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(2000);
    let clients: usize = flags
        .get("clients")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(4)
        .max(1);
    let degree: usize = flags
        .get("degree")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(2);
    let mode = match flags.get("mode").map(String::as_str) {
        None | Some("fast") => PredictMode::FastF32,
        Some("int8") => PredictMode::FastInt8,
        Some("table") => PredictMode::Table,
        Some(bad) => return Err(format!("unknown --mode {bad:?} (fast|int8|table)").into()),
    };
    let mb = MicrobatchConfig {
        max_batch: flags
            .get("max-batch")
            .map(|v| v.parse())
            .transpose()?
            .unwrap_or(32),
        max_delay: std::time::Duration::from_micros(
            flags
                .get("max-delay-us")
                .map(|v| v.parse())
                .transpose()?
                .unwrap_or(500),
        ),
    };
    let trace = load(source)?;
    let stream = llc_stream(&trace, &SimConfig::scaled());
    let vocab = Vocabulary::build(&stream, &cfg.vocab);
    let tokens = vocab.tokenize(&stream);
    let windows = stream_requests(&tokens, cfg.seq_len)?;
    println!(
        "serving {} requests from {} client(s) (max batch {}, max delay {:?}, degree {degree}, mode {})",
        requests,
        clients,
        mb.max_batch,
        mb.max_delay,
        mode_name(mode)
    );
    let (service, report) = fresh_service(&cfg, &vocab, &tokens, mode, degree, 4096);
    if let Some(report) = report {
        println!(
            "distilled {} windows: {} page / {} offset entries, {} KiB, corpus hit rate {}",
            report.samples,
            report.page.entries,
            report.offset.entries,
            report.memory_bytes / 1024,
            report
                .hit_rate
                .map_or_else(|| "n/a".to_string(), |r| format!("{r:.3}")),
        );
    }
    let stats = serve_closed_loop(service, mb, clients, requests, |t| {
        windows[t % windows.len()].clone()
    });
    println!(
        "served {} requests in {} batches ({:.1} mean batch size) over {:.2}s",
        stats.requests,
        stats.batches,
        stats.mean_batch_size(),
        stats.wall_seconds
    );
    println!("  throughput: {:.0} requests/s", stats.throughput());
    println!(
        "  latency: p50 {:?}, p99 {:?}",
        stats.latency_quantile(0.5),
        stats.latency_quantile(0.99)
    );
    Ok(())
}

/// Every history window of a tokenized stream as a request: the
/// serving workload, reused round-robin.
fn stream_requests(
    tokens: &[TokenizedAccess],
    seq_len: usize,
) -> Result<Vec<InferenceRequest>, Box<dyn std::error::Error>> {
    let positions = positions_with_history(0..tokens.len(), seq_len);
    let windows = SeqBatch::from_windows(tokens, positions, seq_len);
    if windows.is_empty() {
        return Err("stream shorter than one history window".into());
    }
    Ok(windows
        .pc
        .into_iter()
        .zip(windows.page)
        .zip(windows.offset)
        .map(|((pc, page), offset)| InferenceRequest {
            workload: Default::default(),
            pc,
            page,
            offset,
        })
        .collect())
}

/// Wraps a fresh model over `vocab` as a service in `mode`. Table
/// mode first distills tables from the first `distill_windows` history
/// windows of `tokens`, and returns the distillation report too.
fn fresh_service(
    cfg: &VoyagerConfig,
    vocab: &Vocabulary,
    tokens: &[TokenizedAccess],
    mode: PredictMode,
    degree: usize,
    distill_windows: usize,
) -> (VoyagerService, Option<DistillReport>) {
    let mut model = VoyagerModel::new(
        cfg,
        vocab.pc_vocab_len(),
        vocab.page_vocab_len(),
        vocab.offset_vocab_len(),
    );
    let config = ServiceConfig::new(degree).mode(mode);
    if mode != PredictMode::Table {
        let service = config.build(model).expect("neural modes need no tables");
        return (service, None);
    }
    let positions = positions_with_history(0..tokens.len(), cfg.seq_len).take(distill_windows);
    let corpus = SeqBatch::from_windows(tokens, positions, cfg.seq_len);
    let (tables, report) = distill(&mut model, &corpus, &TableConfig::for_budget(1 << 20));
    let service = config
        .tables(tables)
        .build(model)
        .expect("table mode with tables attached");
    (service, Some(report))
}

fn cmd_fleet_bench(args: &[String]) -> CliResult {
    let flags = parse_flags(args)?;
    let shards_n: usize = flags
        .get("shards")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(4)
        .max(1);
    let clients: usize = flags
        .get("clients")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(4)
        .max(1);
    let requests: usize = flags
        .get("requests")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(200)
        .max(1);
    let depth: usize = flags
        .get("depth")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(1024);
    let slo_us: u64 = flags
        .get("slo-us")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(250_000);
    let train_steps: usize = flags
        .get("train-steps")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(40);
    const DISTILL_WINDOWS: usize = 16;

    let shards = fleet_demo::default_shards(shards_n);
    let registry = Arc::new(ModelRegistry::new());
    println!("training and publishing v1 for {shards_n} shard(s)...");
    fleet_demo::publish_all(&registry, &shards, train_steps, DISTILL_WINDOWS);
    let cfg = FleetConfig {
        microbatch: MicrobatchConfig {
            max_batch: 8,
            max_delay: Duration::from_micros(200),
        },
        max_queue_depth: depth,
        slo: Duration::from_micros(slo_us),
    };
    let (server, client) = FleetServer::spawn(&registry, &shards, &cfg)?;
    println!(
        "fleet up: {shards_n} shard(s), {clients} client(s)/shard x {requests} request(s), queue depth {depth}, SLO {slo_us} us"
    );

    // v2 for the first shard, trained before load starts so the
    // mid-run publish is just a serialize + atomic version bump.
    let swap_workload = shards[0].workload;
    let mut v2 = fleet_demo::trained_model(swap_workload, train_steps, 1);
    let v2_tables = fleet_demo::tables_for(&mut v2, swap_workload, DISTILL_WINDOWS);

    let (load, version) = drive_fleet(
        &client,
        &shards,
        clients,
        requests,
        Some(|| {
            registry.publish(
                swap_workload,
                &fleet_demo::model_spec(),
                &v2,
                Some(v2_tables),
            )
        }),
    );
    if let Some(version) = version {
        println!("published {} for shard {swap_workload} mid-run", version?);
    }
    drop(client);
    let stats = server.join();
    if load.other > 0 {
        return Err("a shard server stopped while clients were streaming".into());
    }

    println!(
        "\n{:<8} {:>9} {:>10} {:>12} {:>12} {:>10} {:>10} {:>4} {:>6}",
        "shard", "mode", "admitted", "shed:queue", "shed:slo", "p50_us", "p99_us", "ver", "swaps"
    );
    for (report, spec) in stats.shards.iter().zip(&shards) {
        println!(
            "{:<8} {:>9} {:>10} {:>12} {:>12} {:>10.0} {:>10.0} {:>4} {:>6}",
            report.name,
            mode_name(spec.mode),
            report.admitted,
            report.shed_queue_full,
            report.shed_deadline,
            report.latency.quantile(0.5) as f64 / 1e3,
            report.latency.quantile(0.99) as f64 / 1e3,
            report.version,
            report.swaps,
        );
    }
    let shed = stats.shed();
    println!(
        "\ntotal: offered {}, admitted {}, shed {} ({:.1}%)",
        load.offered(),
        stats.admitted(),
        shed,
        100.0 * shed as f64 / load.offered().max(1) as f64,
    );
    let swapped = stats
        .shards
        .first()
        .is_some_and(|s| s.swaps >= 1 && s.swap_failures == 0);
    if !swapped {
        return Err("shard w0 did not adopt the mid-run publish".into());
    }
    println!("hot swap: shard {swap_workload} adopted the mid-run publish with zero failures");
    Ok(())
}

/// Runs a short end-to-end pipeline (timing sim, data-parallel
/// training, microbatched serving) with every observability hook
/// enabled, folds the results into one [`Registry`] snapshot, and
/// prints the validated JSON dump on stdout.
fn cmd_metrics(args: &[String]) -> CliResult {
    const USAGE: &str = "usage: metrics [--smoke] [--serve-mode int8|table]";
    let mut smoke = false;
    let mut serve_mode = PredictMode::Table;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--serve-mode" => {
                serve_mode = match it.next().map(String::as_str) {
                    Some("int8") => PredictMode::FastInt8,
                    Some("table") => PredictMode::Table,
                    Some(bad) => return Err(format!("{USAGE} (unknown serve mode {bad:?})").into()),
                    None => return Err(format!("{USAGE} (--serve-mode requires a value)").into()),
                };
            }
            bad => return Err(format!("{USAGE} (unexpected argument {bad:?})").into()),
        }
    }
    let (gen_cfg, cfg, steps, requests) = if smoke {
        (
            GeneratorConfig::small(),
            VoyagerConfig::test(),
            4usize,
            64usize,
        )
    } else {
        (GeneratorConfig::medium(), VoyagerConfig::scaled(), 32, 512)
    };
    voyager_tensor::kernels::reset_kernel_metrics();
    let registry = Registry::new();
    let profiler = Profiler::monotonic();

    // Timing simulation: per-level demand counters plus the prefetch
    // outcome breakdown from SimOutcome.
    let trace = Benchmark::Pr.generate(&gen_cfg);
    let sim_cfg = SimConfig::scaled();
    let outcome = {
        let _sim = profiler.span("sim");
        voyager_sim::simulate(&trace, &mut BestOffset::new(), &sim_cfg)
    };
    for (name, v) in [
        ("sim.core.instructions", outcome.instructions),
        ("sim.core.mshr_stalls", outcome.mshr_stalls),
        ("sim.core.rob_stalls", outcome.rob_stalls),
        ("sim.l1.accesses", outcome.l1_accesses),
        ("sim.l1.misses", outcome.l1_misses),
        ("sim.l2.accesses", outcome.l2_accesses),
        ("sim.l2.misses", outcome.l2_misses),
        ("sim.llc.accesses", outcome.llc_accesses),
        ("sim.llc.misses", outcome.llc_misses),
        ("sim.prefetch.issued", outcome.issued_prefetches),
        ("sim.prefetch.useful", outcome.useful_prefetches),
        ("sim.prefetch.late_hits", outcome.late_prefetch_hits),
    ] {
        registry.counter(name).add(v);
    }

    // Data-parallel training under the span profiler (epoch > step >
    // grad/allreduce/optimizer tree).
    let stream = llc_stream(&trace, &sim_cfg);
    let set = TrainingSet::build(&stream, &cfg);
    if set.is_empty() {
        return Err("stream produced no trainable samples".into());
    }
    let mut tcfg = TrainerConfig::new(2, &cfg);
    tcfg.max_steps = Some(steps);
    let (_model, report) = train_data_parallel_profiled(&set, &cfg, &tcfg, &profiler);
    registry.counter("train.steps").add(report.steps as u64);
    registry.counter("train.samples").add(report.samples as u64);
    registry.gauge("train.workers").set(report.workers as i64);

    // Microbatched serving: the server's shared histograms split
    // request latency into queue wait and batched compute.
    let windows = stream_requests(set.tokens(), cfg.seq_len)?;
    // Table mode distills from the first half of the request windows:
    // the served second half then exercises both table hits and int8
    // fallbacks, so every counter family observes traffic.
    let (service, _) = fresh_service(
        &cfg,
        set.vocab(),
        set.tokens(),
        serve_mode,
        2,
        windows.len().div_ceil(2),
    );
    let stats = {
        let _serve = profiler.span("serve");
        serve_closed_loop(service, MicrobatchConfig::default(), 2, requests, |t| {
            windows[t % windows.len()].clone()
        })
    };
    registry
        .counter("serve.requests")
        .add(stats.requests as u64);
    registry.counter("serve.batches").add(stats.batches as u64);

    // Kernel-layer counters (the bench crate builds voyager-tensor
    // with the `obs` feature, so these are live).
    registry
        .counter("tensor.gemm.calls")
        .add(voyager_tensor::kernels::gemm_invocations());
    registry
        .counter("tensor.gemm.flops")
        .add(voyager_tensor::kernels::gemm_flops());
    registry
        .counter("tensor.gemm.int8_calls")
        .add(voyager_tensor::kernels::int8_gemm_invocations());
    registry
        .counter("tensor.gemm.int8_ops")
        .add(voyager_tensor::kernels::int8_gemm_ops());
    // Which SIMD tier the kernels dispatched to on this host
    // (0 = scalar, 1 = avx2, 2 = avx512, 3 = neon — Isa::ordinal).
    registry
        .gauge("tensor.gemm.dispatch")
        .set(voyager_tensor::kernels::active_isa().ordinal());

    // Inference fast-path telemetry (process-global, always on).
    registry
        .counter("infer.fastpath.calls")
        .add(voyager_tensor::infer::fast_path_calls());
    registry
        .counter("infer.arena.grow_events")
        .add(voyager_tensor::infer::arena_grow_events());
    registry
        .counter("infer.arena.grown_bytes")
        .add(voyager_tensor::infer::arena_grown_bytes());

    // Distilled-table serving telemetry (process-global, always on;
    // zero when serving `--serve-mode int8`).
    registry
        .counter("infer.table.hits")
        .add(voyager_distill::table_hits());
    registry
        .counter("infer.table.misses")
        .add(voyager_distill::table_misses());
    registry
        .counter("infer.table.fallback_rows")
        .add(voyager_distill::table_fallback_rows());

    // Fold the server's histogram snapshots into the registry snapshot
    // and compose the final document.
    let mut snap = registry.snapshot();
    snap.histograms
        .insert("serve.latency_ns".into(), stats.latency);
    snap.histograms
        .insert("serve.queue_wait_ns".into(), stats.queue_wait);
    snap.histograms
        .insert("serve.compute_ns".into(), stats.compute);
    let json = format!(
        "{{\"voyagerctl\": \"metrics\", \"mode\": \"{}\", \"benchmark\": \"pr\", \"metrics\": {}, \"spans\": {}}}",
        if smoke { "smoke" } else { "full" },
        snap.to_json(),
        profiler.report().to_json(),
    );
    voyager_obs::json::validate(&json).map_err(|e| format!("metrics JSON is malformed: {e}"))?;
    println!("{json}");
    Ok(())
}

fn cmd_simpoints(args: &[String]) -> CliResult {
    let [source, rest @ ..] = args else {
        return Err("usage: simpoints <benchmark|trace.vtrc> [interval] [k]".into());
    };
    let interval: usize = rest
        .first()
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(5_000);
    let k: usize = rest.get(1).map(|v| v.parse()).transpose()?.unwrap_or(4);
    let trace = load(source)?;
    let points = simpoints(&trace, interval, k);
    println!(
        "{trace}: {} SimPoints (interval {interval}, k {k})",
        points.len()
    );
    for p in points {
        println!(
            "  start {:>8}  len {:>6}  weight {:.3}",
            p.start, p.len, p.weight
        );
    }
    Ok(())
}
