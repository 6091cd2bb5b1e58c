//! Fleet serving: a 2-shard `FleetServer` with the steady demo config
//! (without its coalescing delay, see [`fleet_config`]), driven by a
//! closed loop of 2 client threads with no think time.
//!
//! Shard `mcf` serves the mcf-trained model in `PredictMode::Table`
//! (distilled tables, int8 fallback on a miss); shard `search` serves
//! the search-trained model in `PredictMode::FastF32`. Each client
//! drives one shard with the history windows of its stream, in stream
//! order. The loop is closed because `FleetClient::infer` blocks; an
//! open loop needs a non-blocking microbatch submit, which the runtime
//! does not have yet.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use voyager::{SeqBatch, TrainingSet, VoyagerConfig};
use voyager_distill::{distill, TableConfig};
use voyager_runtime::fleet::Candidates;
use voyager_runtime::{
    FleetConfig, FleetError, FleetServer, FleetStats, InferenceRequest, ModelRegistry, ModelSpec,
    PredictMode, ShardSpec, WorkloadId,
};
use voyager_trace::Trace;

use crate::tracer::{Tracer, ROOT};
use crate::{Checks, Sizes, UNIFIED_WINDOW};

/// Candidates served per request (the prefetch degree of both shards).
pub const DEGREE: usize = 2;
/// Closed-loop client threads, one per shard.
pub const CLIENTS: usize = 2;
/// Requests each client sends before timing starts, so lazy set-up
/// (arena growth, packed weights) is not timed.
const WARMUP: usize = 64;

/// The fleet settings every shard runs with: the steady demo config
/// with no coalescing delay. One closed-loop client per shard never has
/// a second request queued, so a batch always holds one request and a
/// delay only adds a timer sleep to every request; on a shared virtual
/// machine that sleep's wake-up time swings by 2x between runs and
/// would be measured instead of the program.
pub fn fleet_config() -> FleetConfig {
    let mut config = voyager_bench::fleet_demo::steady_config();
    config.microbatch.max_delay = Duration::ZERO;
    config
}

/// One shard: its stream, training set, and request windows.
#[derive(Debug)]
pub struct Shard {
    /// Fleet shard spec; its name (`mcf`, `search`) keys the metrics.
    pub spec: ShardSpec,
    /// The stream the shard's model was trained on and serves.
    pub stream: Trace,
    /// Training set (vocabulary, samples) built from `stream`.
    pub train_set: TrainingSet,
    /// Stream index of the last access of each request window.
    pub positions: Vec<usize>,
    /// History windows in stream order, at most one pass long.
    pub requests: Vec<InferenceRequest>,
}

/// A published fleet, ready to spawn.
#[derive(Debug)]
pub struct Fleet {
    /// Registry holding both shards' published models.
    pub registry: Arc<ModelRegistry>,
    /// Shards in spawn order.
    pub shards: Vec<Shard>,
}

/// Trains, distills (table shard) and publishes both shards' models.
pub fn build(mcf_stream: Trace, search: Trace, sizes: &Sizes) -> Fleet {
    let registry = Arc::new(ModelRegistry::new());
    let plan = [
        ("mcf", mcf_stream, PredictMode::Table),
        ("search", search, PredictMode::FastF32),
    ];
    let shards = plan
        .into_iter()
        .enumerate()
        .map(|(i, (name, stream, mode))| {
            let mut spec = ShardSpec::new(WorkloadId(i as u32), DEGREE, mode);
            spec.name = name.to_string();
            publish_shard(&registry, spec, stream, sizes)
        })
        .collect();
    Fleet { registry, shards }
}

fn publish_shard(registry: &ModelRegistry, spec: ShardSpec, stream: Trace, sizes: &Sizes) -> Shard {
    let cfg = VoyagerConfig::scaled();
    let train_set = TrainingSet::build(&stream, &cfg);
    let vocab = train_set.vocab();
    let model_spec = ModelSpec {
        cfg,
        pc_vocab: vocab.pc_vocab_len(),
        page_vocab: vocab.page_vocab_len(),
        offset_vocab: vocab.offset_vocab_len(),
    };
    let mut model = model_spec.instantiate();
    let rows = cfg.batch_size;
    let batches = train_set.len() / rows;
    for step in 0..sizes.fleet_train_steps.min(batches) {
        let (batch, pages, offsets) = train_set.slice_batch(step * rows, (step + 1) * rows);
        model.train_multi(&batch, &pages, &offsets);
    }
    let tokens = vocab.tokenize(&stream);
    let seq = cfg.seq_len;
    let positions: Vec<usize> = (seq - 1..stream.len()).take(sizes.serve_pass).collect();
    let requests = positions
        .iter()
        .map(|&t| {
            let w = &tokens[t + 1 - seq..=t];
            InferenceRequest {
                workload: spec.workload,
                pc: w.iter().map(|a| a.pc as usize).collect(),
                page: w.iter().map(|a| a.page as usize).collect(),
                offset: w.iter().map(|a| a.offset as usize).collect(),
            }
        })
        .collect::<Vec<_>>();
    let tables = (spec.mode == PredictMode::Table).then(|| {
        let mut corpus = SeqBatch::default();
        for r in requests.iter().take(sizes.distill_windows) {
            corpus.pc.push(r.pc.clone());
            corpus.page.push(r.page.clone());
            corpus.offset.push(r.offset.clone());
        }
        distill(&mut model, &corpus, &TableConfig::for_budget(1 << 18)).0
    });
    registry
        .publish(spec.workload, &model_spec, &model, tables)
        .expect("in-memory publish cannot fail");
    Shard {
        spec,
        stream,
        train_set,
        positions,
        requests,
    }
}

/// One request as a single-row batch.
pub fn one_row(r: &InferenceRequest) -> SeqBatch {
    SeqBatch {
        pc: vec![r.pc.clone()],
        page: vec![r.page.clone()],
        offset: vec![r.offset.clone()],
    }
}

/// The expected response to every request of every shard, from
/// direct single-row calls on the published artifact: `predict_fast`
/// for the f32 shard; the distilled tables, else `predict_int8`, for
/// the table shard.
pub fn references(fleet: &Fleet) -> Vec<Vec<Candidates>> {
    fleet
        .shards
        .iter()
        .map(|shard| {
            let (_, artifact) = fleet
                .registry
                .resolve_latest(shard.spec.workload)
                .expect("shard was published");
            let mut model = artifact.instantiate().expect("published artifact loads");
            let tables = artifact.tables();
            if tables.is_some() {
                model.prepare_int8();
            }
            shard
                .requests
                .iter()
                .map(|r| match tables {
                    Some(t) => {
                        let pc = *r.pc.last().expect("windows are non-empty");
                        t.predict_quiet(&r.page, pc, DEGREE)
                            .unwrap_or_else(|| model.predict_int8(&one_row(r), DEGREE).remove(0))
                    }
                    None => model.predict_fast(&one_row(r), DEGREE).remove(0),
                })
                .collect()
        })
        .collect()
}

/// What one closed-loop serving pass produced.
#[derive(Debug)]
pub struct ServeResult {
    /// Client-observed latency of every completed timed request, µs.
    pub latencies_us: Vec<f64>,
    /// Timed requests sent.
    pub attempted: usize,
    /// Timed requests answered.
    pub completed: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Requests that failed otherwise.
    pub errored: usize,
    /// Answers that differ from the direct reference.
    pub mismatched: usize,
    /// Wall seconds of the timed loop.
    pub wall_s: f64,
    /// Windowed unified accuracy of the served candidates, mean over
    /// shards.
    pub acc: f64,
    /// Fleet report.
    pub stats: FleetStats,
    /// Table hits during the timed loop.
    pub table_hits: u64,
    /// Table misses during the timed loop.
    pub table_misses: u64,
    /// Int8 GEMM operations during the timed loop.
    pub int8_ops: u64,
    /// Fast-path arena growth events during the timed loop.
    pub arena_grow: u64,
    /// Id of the pass's root span (when traced).
    pub span: u32,
}

impl ServeResult {
    /// Completed requests per second of the pass.
    pub fn rps(&self) -> f64 {
        self.completed as f64 / self.wall_s
    }

    /// Nearest-rank quantile of the pass's client latencies, µs.
    pub fn quantile(&self, q: f64) -> f64 {
        crate::stats::quantile(&mut self.latencies_us.clone(), q).unwrap_or(0.0)
    }

    /// Output checks: every timed request answered, and answered
    /// exactly as the direct reference.
    pub fn checks(&self) -> Checks {
        Checks {
            attempted: self.attempted,
            failed: self.shed + self.errored + self.mismatched,
        }
    }
}

struct ClientOutcome {
    latencies_us: Vec<f64>,
    attempted: usize,
    shed: usize,
    errored: usize,
    mismatched: usize,
    served: Vec<Candidates>,
}

/// Spawns the fleet and serves one pass of every shard's windows in
/// stream order, one client thread per shard.
pub fn serve(fleet: &Fleet, refs: &[Vec<Candidates>], tracer: &Tracer) -> ServeResult {
    let specs: Vec<ShardSpec> = fleet.shards.iter().map(|s| s.spec.clone()).collect();
    let (server, client) =
        FleetServer::spawn(&fleet.registry, &specs, &fleet_config()).expect("spawn fleet");
    let root = tracer.span("serve.loop", ROOT, None);
    let barrier = Barrier::new(CLIENTS + 1);
    let mut before = (0, 0, 0, 0);
    let mut started = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = fleet
            .shards
            .iter()
            .zip(refs)
            .enumerate()
            .map(|(lane, (shard, expected))| {
                let client = client.clone();
                let barrier = &barrier;
                let root = root.id();
                scope.spawn(move || {
                    for r in shard.requests.iter().cycle().take(WARMUP) {
                        let _ = client.infer(r.clone());
                    }
                    barrier.wait();
                    let n = shard.requests.len();
                    let mut out = ClientOutcome {
                        latencies_us: Vec::new(),
                        attempted: 0,
                        shed: 0,
                        errored: 0,
                        mismatched: 0,
                        served: Vec::with_capacity(n),
                    };
                    for (i, (req, expected)) in shard.requests.iter().zip(expected).enumerate() {
                        let req = req.clone();
                        let id = ((lane as u64) << 32) | i as u64;
                        let sent = Instant::now();
                        let answer = {
                            let _s = tracer.span("runtime.fleet.infer", root, Some(id));
                            client.infer(req)
                        };
                        let latency = sent.elapsed();
                        out.attempted += 1;
                        match answer {
                            Ok(c) => {
                                out.latencies_us.push(latency.as_secs_f64() * 1e6);
                                if !same(&c, expected) {
                                    out.mismatched += 1;
                                }
                                out.served.push(c);
                            }
                            Err(FleetError::Shed(_)) => out.shed += 1,
                            Err(_) => out.errored += 1,
                        }
                    }
                    out
                })
            })
            .collect();
        barrier.wait();
        before = counters();
        started = Instant::now();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let after = counters();
    let span = root.id();
    drop(root);
    drop(client);
    let stats = server.join();

    let accs: Vec<f64> = fleet
        .shards
        .iter()
        .zip(&outcomes)
        .map(|(shard, o)| served_accuracy(shard, &o.served))
        .collect();
    let mut result = ServeResult {
        latencies_us: Vec::new(),
        attempted: 0,
        completed: 0,
        shed: 0,
        errored: 0,
        mismatched: 0,
        wall_s,
        acc: accs.iter().sum::<f64>() / accs.len() as f64,
        stats,
        table_hits: after.0 - before.0,
        table_misses: after.1 - before.1,
        int8_ops: after.2 - before.2,
        arena_grow: after.3 - before.3,
        span,
    };
    for o in outcomes {
        result.completed += o.latencies_us.len();
        result.latencies_us.extend(o.latencies_us);
        result.attempted += o.attempted;
        result.shed += o.shed;
        result.errored += o.errored;
        result.mismatched += o.mismatched;
    }
    result
}

/// `(table hits, table misses, int8 GEMM ops, arena grow events)`.
fn counters() -> (u64, u64, u64, u64) {
    (
        voyager_distill::table_hits(),
        voyager_distill::table_misses(),
        voyager_tensor::kernels::int8_gemm_ops(),
        voyager_tensor::infer::arena_grow_events(),
    )
}

/// Bitwise equality of two candidate lists.
fn same(a: &Candidates, b: &Candidates) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1 == y.1 && x.2.to_bits() == y.2.to_bits())
}

/// Windowed unified accuracy of the candidates served for `shard`'s
/// windows, over the stream prefix they cover.
fn served_accuracy(shard: &Shard, served: &[Candidates]) -> f64 {
    let Some(&last) = shard.positions.get(served.len().saturating_sub(1)) else {
        return 0.0;
    };
    let end = (last + 2).min(shard.stream.len());
    let prefix = Trace::from_accesses(shard.stream.name(), shard.stream.as_slice()[..end].to_vec());
    let vocab = shard.train_set.vocab();
    let mut predictions = vec![Vec::new(); end];
    for (&t, cands) in shard.positions.iter().zip(served) {
        let mut lines: Vec<u64> = Vec::with_capacity(cands.len());
        for &(p, o, _) in cands {
            if let Some(line) = vocab.resolve_prediction(&shard.stream[t], p, o) {
                if !lines.contains(&line) {
                    lines.push(line);
                }
            }
        }
        predictions[t] = lines;
    }
    voyager_sim::unified_accuracy_coverage_windowed(&prefix, &predictions, UNIFIED_WINDOW).value()
}
