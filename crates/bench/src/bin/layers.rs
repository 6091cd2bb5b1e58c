//! The layered bench harness: one process measures every layer the
//! paper's cost argument (Sections 5.4 and 5.5) rests on, one section
//! per layer, in this order:
//!
//! - `kernels`: GEMM GFLOP/s (naive, scalar, blocked, parallel) per
//!   layout and size, a training step on the scalar vs the dispatched
//!   kernels, and microbatched serving of a test-scale model.
//! - `inference`: direct single-row calls through the tape, fast-f32
//!   and int8 paths (p50 and heap bytes per call), the two fast paths
//!   served through the microbatch server, and int8 top-1 agreement on
//!   a trained fixture.
//! - `tables`: the distilled-table tier served next to those two
//!   paths, its distillation (timed once, then served) and report, and
//!   its top-1 agreement with the f32 teacher on the same fixture.
//! - `fleet`: four shards in mixed tiers at steady load with a mid-run
//!   hot swap, then under overload with tight admission bounds.
//! - `vocab`: training-step time of the dense and hierarchical heads
//!   at 1x/10x/100x the page vocabulary, int8 serving p50 of
//!   hier-100x against dense-1x, and dense-vs-hier agreement.
//!
//! Process-global counters (arena, int8 GEMM, packed-B cache, table
//! hits) are reported as deltas over their own section. Gates are
//! evaluated after every section has run: the JSON lists them under
//! `gates`, is written first, and the process then exits non-zero if
//! any gate failed. Only the wait for the fleet's hot swap aborts early
//! (after 30 s).
//!
//! Run `cargo run --release -p voyager-bench --bin layers` to write
//! `BENCH_layers.json` at the workspace root, or add `-- --smoke` for
//! the fast CI variant (same schema, smaller sizes, full-only gates not
//! evaluated), written to `target/BENCH_layers.smoke.json`.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use voyager::{hier_shape, OutputHead, SeqBatch, VoyagerConfig, VoyagerModel};
use voyager_bench::load::{
    best_of_3, best_of_3_interleaved, drive_fleet, p50, serve_closed_loop, synthetic_request,
    FleetLoad,
};
use voyager_bench::{fleet_demo, mode_name};
use voyager_distill::{distill, DistillReport, DistilledTables, TableConfig};
use voyager_obs::json::{escape, fmt_f64, validate};
use voyager_runtime::{
    par_gemm, ChunkPool, FleetConfig, FleetServer, FleetStats, MicrobatchConfig, ModelRegistry,
    PredictMode, ServerStats, ServiceConfig, ShardSpec, VoyagerService, WorkloadId,
};
use voyager_tensor::kernels::{self, Layout};
use voyager_tensor::rng::{thread_rng, Rng, SeedableRng, StdRng};
use voyager_tensor::{infer, simd, Tensor2};
use voyager_trace::gen::ZipfSampler;

/// System allocator wrapped with a relaxed byte counter, so the harness
/// can report heap bytes allocated per inference call. Only
/// allocations are counted (frees are not subtracted): the metric is
/// allocator traffic, not live footprint.
struct CountingAlloc;

static HEAP_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System`; the only added behavior is a
// relaxed atomic counter bump, which cannot violate the `GlobalAlloc`
// contract (no reentrancy into the allocator, layouts forwarded
// unchanged).
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System` with the caller's layout unchanged;
    // the counter bump is a relaxed atomic and cannot re-enter the
    // allocator.
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        HEAP_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's layout, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: pure pass-through; `ptr`/`layout` reach `System` exactly
    // as the caller provided them.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        // SAFETY: `ptr`/`layout` come from a matching `alloc` call and
        // are forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn heap_bytes() -> u64 {
    HEAP_BYTES.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Report plumbing: JSON tree, gates, counter deltas
// ---------------------------------------------------------------------

/// A JSON value under construction. A container whose children are all
/// scalars renders on one line; any other renders one child per line.
enum Json {
    Scalar(String),
    Array(Vec<Json>),
    Object(Vec<(&'static str, Json)>),
}

fn num(v: f64) -> Json {
    Json::Scalar(fmt_f64(v))
}

/// An integer or boolean, rendered with `Display`.
fn int(v: impl std::fmt::Display) -> Json {
    Json::Scalar(v.to_string())
}

fn text(v: &str) -> Json {
    Json::Scalar(format!("\"{}\"", escape(v)))
}

fn opt(v: Option<f64>) -> Json {
    v.map_or_else(|| Json::Scalar("null".into()), num)
}

impl Json {
    fn render(&self, indent: usize, out: &mut String) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Scalar(s) => {
                out.push_str(s);
                return;
            }
            Json::Array(xs) => ('[', ']', xs.iter().map(|x| (None, x)).collect()),
            Json::Object(fs) => ('{', '}', fs.iter().map(|(k, v)| (Some(*k), v)).collect()),
        };
        let flat = items.iter().all(|(_, v)| matches!(v, Json::Scalar(_)));
        let pad = |depth: usize| format!("\n{}", "  ".repeat(depth));
        out.push(open);
        for (i, (key, value)) in items.iter().enumerate() {
            if i > 0 {
                out.push_str(if flat { ", " } else { "," });
            }
            if !flat {
                out.push_str(&pad(indent + 1));
            }
            if let Some(key) = key {
                out.push_str(&format!("\"{key}\": "));
            }
            value.render(indent + 1, out);
        }
        if !flat {
            out.push_str(&pad(indent));
        }
        out.push(close);
    }
}

/// One acceptance check. `pass` records whether `value` met `limit` in
/// the check's direction; `full_only` checks are not evaluated under
/// `--smoke`, where loaded CI machines make latency ratios noise.
struct Gate {
    name: String,
    value: f64,
    limit: f64,
    pass: bool,
    full_only: bool,
}

impl Gate {
    fn new(name: impl Into<String>, value: f64, limit: f64, pass: bool) -> Gate {
        let name = name.into();
        Gate {
            name,
            value,
            limit,
            pass,
            full_only: false,
        }
    }

    fn at_least(name: impl Into<String>, value: f64, limit: f64) -> Gate {
        Gate::new(name, value, limit, value >= limit)
    }

    fn at_most(name: impl Into<String>, value: f64, limit: f64) -> Gate {
        Gate::new(name, value, limit, value <= limit)
    }

    fn exactly(name: impl Into<String>, value: f64, limit: f64) -> Gate {
        Gate::new(name, value, limit, value == limit)
    }

    fn full_only(self) -> Gate {
        Gate {
            full_only: true,
            ..self
        }
    }

    fn json(&self) -> Json {
        Json::Object(vec![
            ("name", text(&self.name)),
            ("value", num(self.value)),
            ("limit", num(self.limit)),
            ("pass", int(self.pass)),
        ])
    }
}

/// A process-global counter: its JSON key and its reader.
type Counter = (&'static str, fn() -> u64);

const ARENA: &[Counter] = &[
    ("grow_events", infer::arena_grow_events),
    ("grown_bytes", infer::arena_grown_bytes),
    ("fast_path_calls", infer::fast_path_calls),
];
const INT8_GEMM: &[Counter] = &[
    ("invocations", kernels::int8_gemm_invocations),
    ("ops", kernels::int8_gemm_ops),
];
const PACKED_B_CACHE: &[Counter] = &[
    ("hits", || simd::packed_b_cache_stats().0),
    ("misses", || simd::packed_b_cache_stats().1),
];
const TABLE: &[Counter] = &[
    ("hits", voyager_distill::table_hits),
    ("misses", voyager_distill::table_misses),
    ("fallback_rows", voyager_distill::table_fallback_rows),
];

/// A counter family read at the start of a window, so the window can
/// report its own deltas.
struct Delta {
    family: &'static [Counter],
    start: Vec<u64>,
}

impl Delta {
    fn start(family: &'static [Counter]) -> Delta {
        let start = family.iter().map(|(_, read)| read()).collect();
        Delta { family, start }
    }

    /// Counts since [`Delta::start`], in family order.
    fn counts(&self) -> Vec<u64> {
        let now = self.family.iter().map(|(_, read)| read());
        now.zip(&self.start).map(|(n, s)| n - s).collect()
    }

    /// The counts as one object keyed by counter name.
    fn json(&self) -> Json {
        let names = self.family.iter().map(|(name, _)| *name);
        Json::Object(names.zip(self.counts()).map(|(k, n)| (k, int(n))).collect())
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn dispatch() -> Json {
    text(kernels::active_isa().name())
}

/// `requests`, `throughput_rps`, `p50_us` and `p99_us` of one serving
/// run, after an optional `path` name.
fn serve_fields(path: Option<&str>, stats: &ServerStats) -> Vec<(&'static str, Json)> {
    let mut fields: Vec<_> = path.map(|p| ("path", text(p))).into_iter().collect();
    fields.extend([
        ("requests", int(stats.requests)),
        ("throughput_rps", num(stats.throughput())),
        ("p50_us", num(us(stats.latency_quantile(0.5)))),
        ("p99_us", num(us(stats.latency_quantile(0.99)))),
    ]);
    fields
}

type Candidates = Vec<Vec<(u32, u32, f32)>>;

/// Fraction of rows whose top-1 (page, offset) pairs agree.
fn top1_agreement(a: &Candidates, b: &Candidates) -> f64 {
    let top1 = |row: &Vec<(u32, u32, f32)>| row.first().map(|&(p, o, _)| (p, o));
    let agree = a.iter().zip(b).filter(|(x, y)| top1(x) == top1(y)).count();
    agree as f64 / a.len().max(1) as f64
}

/// The small fixed mapping from the core fast-path tests: four
/// constant-token windows, one per pattern.
fn patterns() -> SeqBatch {
    SeqBatch {
        pc: vec![vec![1; 4], vec![2; 4], vec![3; 4], vec![4; 4]],
        page: vec![vec![3; 4], vec![5; 4], vec![7; 4], vec![1; 4]],
        offset: vec![vec![10; 4], vec![20; 4], vec![30; 4], vec![40; 4]],
    }
}

/// The 128-row evaluation batch cycling the four patterns.
fn pattern_eval(p: &SeqBatch) -> SeqBatch {
    let rows = |xs: &Vec<Vec<usize>>| (0..128).map(|i| xs[i % 4].clone()).collect();
    SeqBatch {
        pc: rows(&p.pc),
        page: rows(&p.page),
        offset: rows(&p.offset),
    }
}

/// Synthetic requests `ts` over the serving-shaped page vocabulary as
/// one batch.
fn synthetic_batch(ts: std::ops::Range<usize>, seq_len: usize) -> SeqBatch {
    let mut batch = SeqBatch::default();
    for r in ts.map(|t| synthetic_request(t, seq_len, SERVE_PAGES)) {
        batch.pc.push(r.pc);
        batch.page.push(r.page);
        batch.offset.push(r.offset);
    }
    batch
}

/// Serves `requests` synthetic requests over `page_vocab` pages through
/// `service` from 4 closed-loop clients.
fn serve(
    service: VoyagerService,
    mb: MicrobatchConfig,
    requests: usize,
    (seq_len, page_vocab): (usize, usize),
) -> ServerStats {
    serve_closed_loop(service, mb, 4, requests, |t| {
        synthetic_request(t, seq_len, page_vocab)
    })
}

/// `max_batch = 1` flushes every request immediately, so each batched
/// forward pass computes exactly one request and p50/p99 measure the
/// compute path, identically batched across modes.
const ONE_AT_A_TIME: MicrobatchConfig = MicrobatchConfig {
    max_batch: 1,
    max_delay: Duration::from_millis(1),
};

// ---------------------------------------------------------------------
// kernels
// ---------------------------------------------------------------------

struct GemmRow {
    layout: Layout,
    size: usize,
    /// Best-of-3 seconds per call: naive, scalar, blocked, parallel.
    secs: [f64; 4],
}

/// Two random `size`x`size` operands (every layout of a square product
/// takes the same shapes).
fn operands(size: usize) -> (Tensor2, Tensor2) {
    let mut rng = thread_rng();
    let mut square = || Tensor2::uniform(size, size, 1.0, &mut rng);
    (square(), square())
}

/// Iterations per timed batch of the fast kernels. They finish a small
/// GEMM in microseconds, so `iters` of them is too short a window to
/// time on a shared vCPU: scale the count up at small sizes (~constant
/// flops per batch, capped) while the slow naive path keeps `iters`.
fn fast_iters(iters: usize, size: usize) -> usize {
    ((iters * 512 * 512 * 512) / (size * size * size)).clamp(iters, 1000)
}

/// Best-of-3 seconds per call of the dispatched blocked kernel and of
/// `par_gemm` on fresh `size`³ operands, plus the naive and
/// scalar-forced paths when `all_paths` (`[naive, scalar, blocked,
/// parallel]`, zero where skipped).
fn time_gemm(
    size: usize,
    layout: Layout,
    iters: usize,
    pool: &ChunkPool,
    all_paths: bool,
) -> [f64; 4] {
    let (a, b) = operands(size);
    let mut out = Tensor2::zeros(size, size);
    let mut secs = [0.0; 4];
    let fast = fast_iters(iters, size);
    if all_paths {
        secs[0] = best_of_3(iters, || kernels::naive_gemm(&a, &b, layout, &mut out));
        kernels::set_force_scalar(true);
        secs[1] = best_of_3(fast, || kernels::gemm(&a, &b, layout, &mut out));
        kernels::set_force_scalar(false);
    }
    secs[2] = best_of_3(fast, || kernels::gemm(&a, &b, layout, &mut out));
    secs[3] = best_of_3(fast, || par_gemm(pool, &a, &b, layout, &mut out));
    secs
}

/// Whether parallel GEMM is bitwise-identical to the single-threaded
/// kernel and stable across repeated runs at fixed thread counts.
/// Explicit multi-thread pools exercise the chunked path even on a
/// single-core host; 144³ clears the work-scaled fan-out threshold
/// several times.
fn parallel_is_bitwise_identical() -> bool {
    let (a, b) = operands(144);
    let mut reference = Tensor2::zeros(1, 1);
    kernels::gemm(&a, &b, Layout::NN, &mut reference);
    [2, 4, 8].into_iter().all(|threads| {
        let pool = ChunkPool::new(threads);
        (0..3).all(|_| {
            let mut out = Tensor2::zeros(1, 1);
            par_gemm(&pool, &a, &b, Layout::NN, &mut out);
            let bits = |t: &Tensor2| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            bits(&out) == bits(&reference)
        })
    })
}

/// `par_gemm` must never fall meaningfully behind the single-thread
/// blocked kernel in any layout/size cell: below the work threshold it
/// runs blocked on the calling thread, and above it the chunk fan is
/// scaled to the available work. A cell under 0.9x blocked is
/// re-measured (blocked and parallel, on fresh operands) up to 3 times
/// so a noisy scheduler alone cannot fail it; the gate reads the last
/// measurement.
fn parallel_vs_blocked(row: &GemmRow, pool: &ChunkPool, iters: usize) -> Gate {
    let name = format!("kernels.parallel_vs_blocked.{:?}/{}", row.layout, row.size);
    let mut ratio = row.secs[2] / row.secs[3];
    for _ in 0..3 {
        if ratio >= 0.9 {
            break;
        }
        println!("{name}: parallel {ratio:.2}x blocked < 0.9x, re-measuring");
        let secs = time_gemm(row.size, row.layout, iters, pool, false);
        ratio = secs[2] / secs[3];
    }
    Gate::at_least(name, ratio, 0.9)
}

/// Seconds per `train_multi` step of the scaled config on a fixed
/// batch: `(batch size, scalar-forced, dispatched)`.
fn time_training(iters: usize) -> (usize, f64, f64) {
    let cfg = VoyagerConfig::scaled();
    let (b, l, page_vocab) = (cfg.batch_size, cfg.seq_len, 1024);
    let tokens = |f: &dyn Fn(usize, usize) -> usize| -> Vec<Vec<usize>> {
        (0..b).map(|i| (0..l).map(|j| f(i, j)).collect()).collect()
    };
    let batch = SeqBatch {
        pc: tokens(&|i, j| (i * 7 + j) % 64),
        page: tokens(&|i, j| (i * 13 + j * 3) % page_vocab),
        offset: tokens(&|i, j| (i * 11 + j * 5) % 64),
    };
    let (pt, ot): (Vec<_>, Vec<_>) = (0..b)
        .map(|i| (vec![(i * 37) % page_vocab], vec![(i * 17) % 64]))
        .unzip();
    let step = |force_scalar: bool| {
        kernels::set_force_scalar(force_scalar);
        let mut model = VoyagerModel::new(&cfg, 64, page_vocab, 64);
        best_of_3(iters, || {
            std::hint::black_box(model.train_multi(&batch, &pt, &ot));
        })
    };
    (b, step(true), step(false))
}

fn kernels_section(smoke: bool, gates: &mut Vec<Gate>) -> Json {
    let (sizes, iters, train_iters, requests): (&[usize], _, _, _) = if smoke {
        (&[64, 256], 2, 2, 64)
    } else {
        (&[64, 128, 256, 512], 5, 8, 512)
    };
    let pool = ChunkPool::with_available_parallelism();
    let mut rows = Vec::new();
    for &size in sizes {
        for layout in [Layout::NN, Layout::TN, Layout::NT] {
            let secs = time_gemm(size, layout, iters, &pool, true);
            rows.push(GemmRow { layout, size, secs });
        }
    }
    let identical = parallel_is_bitwise_identical();
    gates.push(Gate::exactly(
        "kernels.parallel_bitwise_identical",
        f64::from(u8::from(identical)),
        1.0,
    ));
    gates.extend(
        rows.iter()
            .map(|row| parallel_vs_blocked(row, &pool, iters.max(3))),
    );

    let (batch_size, scalar_s, blocked_s) = time_training(train_iters);
    // Later sections time the dispatched kernels: leave scalar off.
    kernels::set_force_scalar(false);
    let cfg = VoyagerConfig::test();
    let service = ServiceConfig::new(2)
        .build(VoyagerModel::new(&cfg, 64, 256, 64))
        .expect("the f32 fast path needs no tables");
    let stats = serve(
        service,
        MicrobatchConfig::default(),
        requests,
        (cfg.seq_len, 256),
    );

    let gemm = rows.iter().map(|r| {
        let gflops = |secs: f64| 2.0 * (r.size as f64).powi(3) / secs / 1e9;
        Json::Object(vec![
            ("layout", text(&format!("{:?}", r.layout))),
            ("size", int(r.size)),
            ("naive_gflops", num(gflops(r.secs[0]))),
            ("scalar_gflops", num(gflops(r.secs[1]))),
            ("blocked_gflops", num(gflops(r.secs[2]))),
            ("parallel_gflops", num(gflops(r.secs[3]))),
            ("speedup", num(r.secs[0] / r.secs[2])),
            ("threads", int(pool.threads())),
            ("dispatch", dispatch()),
        ])
    });
    let training = Json::Object(vec![
        ("batch_size", int(batch_size)),
        ("scalar_steps_per_s", num(1.0 / scalar_s)),
        ("blocked_steps_per_s", num(1.0 / blocked_s)),
        ("speedup", num(scalar_s / blocked_s)),
    ]);
    let mut serve = serve_fields(None, &stats);
    serve.push(("mean_batch", num(stats.mean_batch_size())));
    Json::Object(vec![
        ("gemm", Json::Array(gemm.collect())),
        ("parallel_bitwise_identical", int(identical)),
        ("training", training),
        ("serve", Json::Object(serve)),
    ])
}

// ---------------------------------------------------------------------
// inference and tables
// ---------------------------------------------------------------------

/// Serving-shaped model: the scaled config widened toward the paper's
/// dimensions (128 LSTM units, 8192 pages) so that the LSTM and
/// page-head GEMMs dominate per-call compute the way they do at paper
/// scale. At these sizes the f32 weights exceed the L2 cache while the
/// int8 copies still fit, which is the regime Section 5.4 quantizes
/// for; the table tier's lookup cost is independent of them.
const SERVE_PAGES: usize = 8192;

fn serve_model() -> VoyagerModel {
    let mut cfg = VoyagerConfig::scaled();
    cfg.lstm_units = 128;
    VoyagerModel::new(&cfg, 64, SERVE_PAGES, 64)
}

/// Serves the serving-shaped workload through `model` in `mode`.
fn serve_shaped(
    model: VoyagerModel,
    mode: PredictMode,
    tables: Option<DistilledTables>,
    requests: usize,
) -> ServerStats {
    let seq_len = model.config().seq_len;
    let config = ServiceConfig::new(2).mode(mode);
    let config = match tables {
        Some(tables) => config.tables(tables),
        None => config,
    };
    let service = config.build(model).expect("table mode gets its tables");
    serve(service, ONE_AT_A_TIME, requests, (seq_len, SERVE_PAGES))
}

/// A model entry point: `(model, batch, k) -> candidates`.
type Predict = fn(&mut VoyagerModel, &SeqBatch, usize) -> Candidates;

/// Direct single-row calls on one request window: the p50 latency per
/// call and the mean heap bytes allocated per call. Two warmup calls
/// come first: the first grows the fast-path arena, the second
/// promotes any weight a GEMM packs into the packed-B cache (a weight
/// is cached on its second sighting; x86 reads NN weights in place).
/// `predict_int8` quantizes the weights on its first call.
fn time_direct(path: &'static str, predict: Predict, calls: usize) -> (f64, Json) {
    let mut model = serve_model();
    let row = synthetic_batch(0..1, model.config().seq_len);
    for _ in 0..2 {
        std::hint::black_box(predict(&mut model, &row, 2));
    }
    let mut samples = Vec::with_capacity(calls);
    let before = heap_bytes();
    for _ in 0..calls {
        let t0 = Instant::now();
        std::hint::black_box(predict(&mut model, &row, 2));
        samples.push(us(t0.elapsed()));
    }
    let bytes_per_call = (heap_bytes() - before) as f64 / calls as f64;
    let p50_us = p50(&mut samples);
    let json = Json::Object(vec![
        ("path", text(path)),
        ("calls", int(calls)),
        ("p50_us", num(p50_us)),
        ("bytes_per_call", num(bytes_per_call)),
    ]);
    (p50_us, json)
}

/// What the `tables` section reuses from `inference`: the fixture
/// trained to convergence on [`patterns`], its 128-row evaluation batch
/// with the f32 teacher's and the int8 path's predictions on it, and
/// the f32/int8 serving runs.
struct Shared {
    model: VoyagerModel,
    eval: SeqBatch,
    teacher: Candidates,
    int8: Candidates,
    serve_f32: ServerStats,
    serve_int8: ServerStats,
}

fn inference_section(smoke: bool, gates: &mut Vec<Gate>) -> (Json, Shared) {
    let (requests, calls) = if smoke { (64, 8) } else { (2048, 256) };
    let (arena, int8_gemm) = (Delta::start(ARENA), Delta::start(INT8_GEMM));
    let mut model = VoyagerModel::new(&VoyagerConfig::test(), 16, 8, 64);
    let p = patterns();
    for _ in 0..150 {
        model.train_single(&p, &[6, 7, 2, 4], &[30, 40, 50, 60]);
    }
    let eval = pattern_eval(&p);
    let teacher = model.predict_fast(&eval, 1);
    model.prepare_int8();
    let int8 = model.predict_int8(&eval, 1);
    let agreement = top1_agreement(&teacher, &int8);

    let (direct_p50, direct): (Vec<f64>, Vec<Json>) = [
        ("tape", VoyagerModel::predict as Predict),
        ("fast_f32", VoyagerModel::predict_fast),
        ("fast_int8", VoyagerModel::predict_int8),
    ]
    .into_iter()
    .map(|(path, predict)| time_direct(path, predict, calls))
    .unzip();
    let serve_f32 = serve_shaped(serve_model(), PredictMode::FastF32, None, requests);
    let serve_int8 = serve_shaped(serve_model(), PredictMode::FastInt8, None, requests);
    let (arena, int8_gemm) = (arena.json(), int8_gemm.json());

    let fast_speedup = direct_p50[0] / direct_p50[1];
    let int8_ratio = us(serve_int8.latency_quantile(0.5)) / us(serve_f32.latency_quantile(0.5));
    println!("inference: fast_f32 {fast_speedup:.2}x tape, int8/f32 serve p50 {int8_ratio:.2}, int8 agreement {agreement:.3}");
    gates.extend([
        Gate::at_least("inference.int8_top1_agreement", agreement, 0.99),
        Gate::at_least("inference.fast_f32_speedup_p50", fast_speedup, 2.0).full_only(),
        Gate::at_most("inference.int8_vs_f32_p50", int8_ratio, 1.05).full_only(),
    ]);
    let serve = vec![
        Json::Object(serve_fields(Some("fast_f32"), &serve_f32)),
        Json::Object(serve_fields(Some("fast_int8"), &serve_int8)),
    ];
    let json = Json::Object(vec![
        ("dispatch", dispatch()),
        ("direct", Json::Array(direct)),
        ("serve", Json::Array(serve)),
        ("fast_f32_speedup_p50", num(fast_speedup)),
        ("int8_vs_f32_p50", num(int8_ratio)),
        ("int8_top1_agreement", num(agreement)),
        ("arena", arena),
        ("int8_gemm", int8_gemm),
    ]);
    let shared = Shared {
        model,
        eval,
        teacher,
        int8,
        serve_f32,
        serve_int8,
    };
    (json, shared)
}

/// Top-1 agreement of tables distilled from the fixture with their f32
/// teacher. A table miss resolves through int8, exactly as serving
/// would: the int8 kernels give each row the same answer at any batch
/// size, so the fixture's batched int8 predictions stand in for it.
fn table_agreement(shared: &mut Shared) -> f64 {
    let eval = &shared.eval;
    let (tables, _) = distill(&mut shared.model, eval, &TableConfig::for_budget(64 * 1024));
    let student: Candidates = (0..eval.len())
        .map(|i| {
            let last_pc = eval.pc[i][eval.seq_len() - 1];
            let hit = tables.predict_quiet(&eval.page[i], last_pc, 1);
            hit.unwrap_or_else(|| shared.int8[i].clone())
        })
        .collect();
    top1_agreement(&shared.teacher, &student)
}

fn distill_json(report: &DistillReport, served: &[u64]) -> Json {
    let mut fields = vec![("samples", int(report.samples))];
    for (name, s) in [("page", &report.page), ("offset", &report.offset)] {
        let layer = Json::Object(vec![
            ("entries", int(s.entries)),
            ("claimed", int(s.claimed)),
            ("merged", int(s.merged)),
            ("collisions_kept", int(s.collisions_kept)),
            ("evictions", int(s.evictions)),
        ]);
        fields.push((name, layer));
    }
    fields.extend([
        ("memory_bytes", int(report.memory_bytes)),
        ("corpus_hit_rate", opt(report.hit_rate)),
        ("page_agreement", opt(report.page_agreement)),
        ("offset_agreement", opt(report.offset_agreement)),
        ("joint_agreement", opt(report.joint_agreement)),
        ("serve_hits", int(served[0])),
        ("serve_misses", int(served[1])),
        ("serve_fallback_rows", int(served[2])),
    ]);
    Json::Object(fields)
}

fn tables_section(smoke: bool, shared: &mut Shared, gates: &mut Vec<Gate>) -> Json {
    let requests = if smoke { 64 } else { 2048 };
    let agreement = table_agreement(shared);

    // One distillation over the whole serving workload, timed and then
    // served.
    let mut model = serve_model();
    let seq_len = model.config().seq_len;
    let corpus = synthetic_batch(0..requests, seq_len);
    let t0 = Instant::now();
    let (tables, report) = distill(&mut model, &corpus, &TableConfig::for_budget(1 << 20));
    let distill_us = us(t0.elapsed());
    let (page, pc) = (&corpus.page[0], corpus.pc[0][seq_len - 1]);
    std::hint::black_box(tables.predict_quiet(page, pc, 2));
    let before = heap_bytes();
    for _ in 0..64 {
        std::hint::black_box(tables.predict_quiet(page, pc, 2));
    }
    let lookup_bytes = (heap_bytes() - before) as f64 / 64.0;
    let served = Delta::start(TABLE);
    let serve_table = serve_shaped(model, PredictMode::Table, Some(tables), requests);
    let served = served.counts();

    let int8_p50 = us(shared.serve_int8.latency_quantile(0.5));
    let table_p50 = us(serve_table.latency_quantile(0.5));
    let speedup = if table_p50 > 0.0 {
        int8_p50 / table_p50
    } else {
        0.0
    };
    println!("tables: {speedup:.1}x int8 at p50, agreement {agreement:.3}, {lookup_bytes:.0} heap bytes per lookup, hits {} / misses {}", served[0], served[1]);
    gates.extend([
        Gate::at_least("tables.table_top1_agreement", agreement, 0.90),
        Gate::at_least("tables.table_vs_int8_speedup_p50", speedup, 10.0).full_only(),
        Gate::at_most("tables.table_p50_us", table_p50, 400.0).full_only(),
    ]);
    let serve = vec![
        Json::Object(serve_fields(Some("fast_f32"), &shared.serve_f32)),
        Json::Object(serve_fields(Some("fast_int8"), &shared.serve_int8)),
        Json::Object(serve_fields(Some("table"), &serve_table)),
    ];
    Json::Object(vec![
        ("serve", Json::Array(serve)),
        ("table_vs_int8_speedup_p50", num(speedup)),
        ("table_top1_agreement", num(agreement)),
        ("distill_us", num(distill_us)),
        ("table", distill_json(&report, &served)),
    ])
}

// ---------------------------------------------------------------------
// fleet
// ---------------------------------------------------------------------

const SHARDS: usize = 4;
const SWAP_WORKLOAD: WorkloadId = WorkloadId(0);
const OVERLOAD_SLO_US: u64 = 100_000;

struct Phase {
    stats: FleetStats,
    elapsed_s: f64,
    load: FleetLoad,
    /// The published version and the milliseconds until live metrics
    /// showed the swap.
    swap: Option<(u64, f64)>,
    table: Json,
}

/// Publishes `v2` for [`SWAP_WORKLOAD`] and polls the live fleet
/// metrics until the shard reports the swap. The shard adopts between
/// batches, so with clients streaming the swap must become visible
/// almost immediately; 30 s without it aborts the run.
fn publish_and_observe(
    registry: &ModelRegistry,
    server: &FleetServer,
    (v2, tables): (VoyagerModel, DistilledTables),
) -> (u64, f64) {
    let published = registry
        .publish(SWAP_WORKLOAD, &fleet_demo::model_spec(), &v2, Some(tables))
        .expect("mid-run publish");
    let publish_at = Instant::now();
    let swap_key = format!("fleet.shard.{SWAP_WORKLOAD}.swaps");
    while server
        .metrics()
        .counters
        .get(swap_key.as_str())
        .copied()
        .unwrap_or(0)
        == 0
    {
        assert!(
            publish_at.elapsed() < Duration::from_secs(30),
            "hot swap not observed on live metrics within 30s of publish"
        );
        std::thread::yield_now();
    }
    (published.0, publish_at.elapsed().as_secs_f64() * 1e3)
}

/// One fleet phase: spawns the fleet at `cfg`, drives it closed-loop
/// with `clients` threads of `per_client` requests per shard, and
/// (given a successor model) hot-swaps [`SWAP_WORKLOAD`] once a quarter
/// of the load has completed.
fn fleet_phase(
    registry: &Arc<ModelRegistry>,
    shards: &[ShardSpec],
    cfg: &FleetConfig,
    (clients, per_client): (usize, usize),
    successor: Option<(VoyagerModel, DistilledTables)>,
) -> Phase {
    let (server, client) = FleetServer::spawn(registry, shards, cfg).expect("spawn fleet");
    let table = Delta::start(TABLE);
    let started = Instant::now();
    let swap = successor.map(|v2| || publish_and_observe(registry, &server, v2));
    let (load, swap) = drive_fleet(&client, shards, clients, per_client, swap);
    let elapsed_s = started.elapsed().as_secs_f64();
    drop(client);
    Phase {
        stats: server.join(),
        elapsed_s,
        load,
        swap,
        table: table.json(),
    }
}

fn phase_json(phase: Phase, shards: &[ShardSpec]) -> Json {
    let Phase {
        stats,
        elapsed_s,
        load,
        swap,
        table,
    } = phase;
    let offered = load.offered();
    let throughput = if elapsed_s > 0.0 {
        load.ok as f64 / elapsed_s
    } else {
        0.0
    };
    let mut fields = vec![
        ("offered", int(offered)),
        ("admitted", int(load.ok)),
        ("shed", int(load.shed)),
        ("shed_rate", num(load.shed as f64 / offered.max(1) as f64)),
        ("elapsed_s", num(elapsed_s)),
        ("throughput_rps", num(throughput)),
        ("table", table),
    ];
    if let Some((version, observed_ms)) = swap {
        let swap = Json::Object(vec![
            ("workload", text(&SWAP_WORKLOAD.to_string())),
            ("published_version", int(version)),
            ("observed_ms", num(observed_ms)),
        ]);
        fields.push(("swap", swap));
    }
    let rows = stats.shards.iter().map(|r| {
        let spec = shards.iter().find(|spec| spec.workload == r.workload);
        Json::Object(vec![
            ("name", text(&r.name)),
            (
                "mode",
                text(spec.map_or("unknown", |spec| mode_name(spec.mode))),
            ),
            ("admitted", int(r.admitted)),
            ("shed_queue_full", int(r.shed_queue_full)),
            ("shed_deadline", int(r.shed_deadline)),
            ("p50_us", num(r.latency.quantile(0.5) as f64 / 1e3)),
            ("p99_us", num(r.latency.quantile(0.99) as f64 / 1e3)),
            ("version", int(r.version)),
            ("swaps", int(r.swaps)),
            ("swap_failures", int(r.swap_failures)),
            ("table_absent", int(r.table_absent)),
        ])
    });
    fields.push(("shards", Json::Array(rows.collect())));
    Json::Object(fields)
}

fn fleet_section(smoke: bool, gates: &mut Vec<Gate>) -> Json {
    let (steady_load, overload_load, train_steps, distill_windows) = if smoke {
        ((2, 24), (8, 16), 30, 12)
    } else {
        ((4, 250), (16, 100), 60, 24)
    };
    let shards = fleet_demo::default_shards(SHARDS);
    let registry = Arc::new(ModelRegistry::new());
    fleet_demo::publish_all(&registry, &shards, train_steps, distill_windows);
    // v2 for the swap shard is trained (and distilled) up front so the
    // publish itself is quick enough to land mid-stream.
    let mut v2 = fleet_demo::trained_model(SWAP_WORKLOAD, train_steps, 1);
    let v2_tables = fleet_demo::tables_for(&mut v2, SWAP_WORKLOAD, distill_windows);
    let steady_cfg = fleet_demo::steady_config();
    let steady = fleet_phase(
        &registry,
        &shards,
        &steady_cfg,
        steady_load,
        Some((v2, v2_tables)),
    );
    let overload_cfg = fleet_demo::overload_config();
    let overload = fleet_phase(&registry, &shards, &overload_cfg, overload_load, None);

    // Hot swap under load, in both modes: nothing dropped or shed at
    // steady bounds, exactly one swap on the published shard, and the
    // shard ends on the published version with its tables. Under
    // overload, admission control must shed rather than queue without
    // bound, while admitted requests keep the SLO.
    let s = steady.load;
    let published = steady.swap.map_or(0, |(version, _)| version) as f64;
    let swap_shard = steady
        .stats
        .shards
        .iter()
        .find(|r| r.workload == SWAP_WORKLOAD);
    let shard =
        |f: fn(&voyager_runtime::ShardReport) -> u64| swap_shard.map_or(f64::NAN, |r| f(r) as f64);
    let admitted_p99_us = overload
        .stats
        .shards
        .iter()
        .map(|r| r.latency.quantile(0.99) / 1_000);
    let admitted_p99_us = admitted_p99_us.max().unwrap_or(0) as f64;
    println!(
        "fleet: steady {} of {} admitted, swap after {:.1} ms; overload shed {} of {}, admitted p99 {admitted_p99_us} us",
        s.ok,
        s.offered(),
        steady.swap.map_or(0.0, |(_, ms)| ms),
        overload.load.shed,
        overload.load.offered(),
    );
    gates.extend([
        Gate::at_most("fleet.steady.dropped", (s.offered() - s.ok) as f64, 0.0),
        Gate::at_most("fleet.steady.shed", steady.stats.shed() as f64, 0.0),
        Gate::at_most("fleet.steady.other", s.other as f64, 0.0),
        Gate::exactly("fleet.swap.swaps", shard(|r| r.swaps), 1.0),
        Gate::at_most("fleet.swap.swap_failures", shard(|r| r.swap_failures), 0.0),
        Gate::exactly("fleet.swap.version", shard(|r| r.version), published),
        Gate::at_most(
            "fleet.swap.table_absent",
            shard(|r| u64::from(r.table_absent)),
            0.0,
        ),
        Gate::at_most("fleet.overload.other", overload.load.other as f64, 0.0),
        Gate::at_least("fleet.overload.shed", overload.load.shed as f64, 1.0).full_only(),
        Gate::at_most(
            "fleet.overload.admitted_p99_us",
            admitted_p99_us,
            OVERLOAD_SLO_US as f64,
        )
        .full_only(),
    ]);
    Json::Object(vec![
        ("shards", int(shards.len())),
        ("overload_slo_us", int(OVERLOAD_SLO_US)),
        ("steady", phase_json(steady, &shards)),
        ("overload", phase_json(overload, &shards)),
    ])
}

// ---------------------------------------------------------------------
// vocab
// ---------------------------------------------------------------------

/// Base page vocabulary (1x). 100x is 409 600 pages — a 1600x256 grid
/// for the hierarchical head, and the cell the dense head cannot
/// afford (`O(V)` logits, multi-hot targets and head gradients per
/// step: ~100 MB of traffic before the optimizer runs).
const BASE_VOCAB: usize = 4_096;
const BATCH: usize = 16;

fn vocab_config(head: OutputHead) -> VoyagerConfig {
    let mut cfg = VoyagerConfig::scaled().with_output_head(head);
    // Paper-shaped trunk: wide enough that the head, not the
    // embeddings, is what vocabulary scaling stresses.
    cfg.lstm_units = 64;
    cfg.dropout_keep = 1.0;
    cfg
}

fn head_name(head: OutputHead) -> &'static str {
    match head {
        OutputHead::Dense => "dense",
        OutputHead::Hier => "hier",
    }
}

/// Zipf-distributed training batch over a `vocab`-page stream: input
/// pages and positive labels both follow the popularity distribution,
/// like the OLTP key skew the paper cites. Each row has one target
/// offset.
fn zipf_batch(
    zipf: &ZipfSampler,
    rng: &mut StdRng,
    seq_len: usize,
) -> (SeqBatch, Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let mut tokens = |draw: &mut dyn FnMut(&mut StdRng) -> usize| -> Vec<Vec<usize>> {
        (0..BATCH)
            .map(|_| (0..seq_len).map(|_| draw(rng)).collect())
            .collect()
    };
    let batch = SeqBatch {
        pc: tokens(&mut |rng| rng.gen_range(0..64usize)),
        page: tokens(&mut |rng| zipf.sample(rng)),
        offset: tokens(&mut |rng| rng.gen_range(0..64usize)),
    };
    let pages = (0..BATCH)
        .map(|i| (0..1 + i % 2).map(|_| zipf.sample(rng)).collect())
        .collect();
    let offsets = (0..BATCH)
        .map(|_| vec![rng.gen_range(0..64usize)])
        .collect();
    (batch, pages, offsets)
}

/// One training step of a (head, vocab) cell per call: `train_multi`
/// on a fresh model over Zipf batches. The dense head pays its `O(V)`
/// multi-hot and logits inside the step, the hierarchical head only
/// `O(clusters + positives * branch)`.
fn step_cell(head: OutputHead, mult: usize) -> impl FnMut() {
    let vocab = BASE_VOCAB * mult;
    let cfg = vocab_config(head);
    let mut model = VoyagerModel::new(&cfg, 64, vocab, 64);
    let zipf = ZipfSampler::new(vocab, 0.9);
    let mut rng = StdRng::seed_from_u64(0x10_0000 + mult as u64);
    move || {
        let (b, p, o) = zipf_batch(&zipf, &mut rng, cfg.seq_len);
        std::hint::black_box(model.train_multi(&b, &p, &o));
    }
}

/// Dense-vs-hier top-1 (page, offset) agreement after training both
/// heads to convergence on the same small-vocabulary stream.
fn head_agreement() -> f64 {
    let mut dense = VoyagerModel::new(&VoyagerConfig::test(), 16, 21, 64);
    let hier_cfg = VoyagerConfig::test().with_output_head(OutputHead::Hier);
    let mut hier = VoyagerModel::new(&hier_cfg, 16, 21, 64);
    let p = patterns();
    let pos: Vec<Vec<usize>> = vec![vec![6], vec![20], vec![2], vec![14]];
    let ot: Vec<Vec<usize>> = vec![vec![30], vec![40], vec![50], vec![60]];
    for _ in 0..500 {
        dense.train_multi(&p, &pos, &ot);
        hier.train_multi(&p, &pos, &ot);
    }
    let eval = pattern_eval(&p);
    top1_agreement(&dense.predict_fast(&eval, 1), &hier.predict_fast(&eval, 1))
}

/// Closed-loop int8 serving p50 for one (head, vocab) cell.
fn serve_int8_p50(head: OutputHead, mult: usize, requests: usize) -> f64 {
    let vocab = BASE_VOCAB * mult;
    let cfg = vocab_config(head);
    let service = ServiceConfig::new(2)
        .mode(PredictMode::FastInt8)
        .build(VoyagerModel::new(&cfg, 64, vocab, 64))
        .expect("neural modes need no tables");
    us(serve(service, ONE_AT_A_TIME, requests, (cfg.seq_len, vocab)).latency_quantile(0.5))
}

fn vocab_section(smoke: bool, gates: &mut Vec<Gate>) -> Json {
    let (steps, requests) = if smoke { (2, 32) } else { (8, 512) };
    let (packed_b, arena) = (Delta::start(PACKED_B_CACHE), Delta::start(ARENA));
    let agreement = head_agreement();
    // Step milliseconds, each cell's best mean of three timed loops
    // after one warmup step. The gate divides hier-100x by dense-1x, so
    // those two are timed in interleaved rounds. The dense 100x cell
    // is skipped by design: its O(V) per-step cost (multi-hot targets,
    // logits, head gradients, Adam moments over a [64, 409600] head) is
    // the problem the hierarchical head removes.
    let [dense_1x, hier_100x] = best_of_3_interleaved(
        steps,
        [
            &mut step_cell(OutputHead::Dense, 1),
            &mut step_cell(OutputHead::Hier, 100),
        ],
    );
    let alone = |head, mult| best_of_3(steps, step_cell(head, mult));
    let cells = [
        (OutputHead::Dense, 1, dense_1x),
        (OutputHead::Dense, 10, alone(OutputHead::Dense, 10)),
        (OutputHead::Hier, 1, alone(OutputHead::Hier, 1)),
        (OutputHead::Hier, 10, alone(OutputHead::Hier, 10)),
        (OutputHead::Hier, 100, hier_100x),
    ]
    .map(|(head, mult, secs)| (head, mult, secs * 1e3));
    let step_ratio = hier_100x / dense_1x;
    let dense_p50 = serve_int8_p50(OutputHead::Dense, 1, requests);
    let hier_p50 = serve_int8_p50(OutputHead::Hier, 100, requests);
    let serve_ratio = if dense_p50 > 0.0 {
        hier_p50 / dense_p50
    } else {
        0.0
    };
    let (packed_b, arena) = (packed_b.json(), arena.json());
    println!("vocab: hier-100x/dense-1x step {step_ratio:.2}x, int8 serve p50 {serve_ratio:.2}x, agreement {agreement:.3}");
    gates.extend([
        Gate::at_least("vocab.dense_hier_top1_agreement", agreement, 0.99).full_only(),
        Gate::at_most("vocab.hier100x_vs_dense1x_step_ratio", step_ratio, 1.5).full_only(),
        Gate::at_most("vocab.serve_int8.ratio", serve_ratio, 2.0).full_only(),
    ]);

    let (clusters, branch) = hier_shape(BASE_VOCAB * 100);
    let grid = Json::Object(vec![("clusters", int(clusters)), ("branch", int(branch))]);
    let train_steps = cells.iter().map(|&(head, mult, ms)| {
        Json::Object(vec![
            ("head", text(head_name(head))),
            ("vocab_mult", int(mult)),
            ("vocab", int(BASE_VOCAB * mult)),
            ("step_ms", num(ms)),
        ])
    });
    let serve_int8 = Json::Object(vec![
        ("dense_1x_p50_us", num(dense_p50)),
        ("hier_100x_p50_us", num(hier_p50)),
        ("ratio", num(serve_ratio)),
    ]);
    Json::Object(vec![
        ("dispatch", dispatch()),
        ("base_vocab", int(BASE_VOCAB)),
        ("hier_100x_grid", grid),
        ("train_steps", Json::Array(train_steps.collect())),
        (
            "dense_100x",
            text("skipped: O(V) multi-hot targets and head gradients"),
        ),
        ("hier100x_vs_dense1x_step_ratio", num(step_ratio)),
        ("serve_int8", serve_int8),
        ("dense_hier_top1_agreement", num(agreement)),
        ("packed_b_cache", packed_b),
        ("arena", arena),
    ])
}

// ---------------------------------------------------------------------
// report
// ---------------------------------------------------------------------

/// Renders the whole report: `schema_version` 1, the run mode, one
/// object per section, and the evaluated gates.
fn render(mode: &str, sections: Vec<(&'static str, Json)>, gates: &[Gate]) -> String {
    let mut fields = vec![
        ("bench", text("layers")),
        ("schema_version", int(1)),
        ("mode", text(mode)),
    ];
    fields.extend(sections);
    fields.push(("gates", Json::Array(gates.iter().map(Gate::json).collect())));
    let mut out = String::new();
    Json::Object(fields).render(0, &mut out);
    out.push('\n');
    out
}

/// Validates and writes `json` to `path`, then reports the failed
/// gates: success only if the file was written and every gate passed.
fn finish(json: &str, path: &Path, gates: &[Gate]) -> ExitCode {
    if let Err(e) = validate(json) {
        eprintln!("generated JSON is malformed: {e}\n{json}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());
    let failed: Vec<&Gate> = gates.iter().filter(|g| !g.pass).collect();
    for g in &failed {
        eprintln!(
            "gate failed: {} = {:.3} (limit {:.3})",
            g.name, g.value, g.limit
        );
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut gates = Vec::new();
    let mut sections = Vec::new();
    let mut clock = Instant::now();
    let mut done = |name: &'static str, json: Json| {
        println!("== {name}: {:.2} s", clock.elapsed().as_secs_f64());
        sections.push((name, json));
        clock = Instant::now();
    };
    done("kernels", kernels_section(smoke, &mut gates));
    let (inference, mut shared) = inference_section(smoke, &mut gates);
    done("inference", inference);
    done("tables", tables_section(smoke, &mut shared, &mut gates));
    drop(shared);
    done("fleet", fleet_section(smoke, &mut gates));
    done("vocab", vocab_section(smoke, &mut gates));
    gates.retain(|g| !(smoke && g.full_only));
    let json = render(if smoke { "smoke" } else { "full" }, sections, &gates);
    // Smoke runs (CI) validate the harness without clobbering the
    // committed full-mode measurement at the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = if smoke {
        root.join("target/BENCH_layers.smoke.json")
    } else {
        root.join("BENCH_layers.json")
    };
    finish(&json, &path, &gates)
}

#[cfg(test)]
mod tests {
    use super::*;

    use voyager_runtime::BatchModel;

    /// Answers every request with its own index; needs no model.
    struct Echo;

    impl BatchModel for Echo {
        type Request = usize;
        type Response = usize;

        fn forward_batch(&mut self, requests: &[usize]) -> Vec<usize> {
            requests.to_vec()
        }
    }

    #[test]
    fn a_failing_gate_writes_the_json_then_fails_the_exit() {
        let stats = serve_closed_loop(Echo, MicrobatchConfig::default(), 2, 16, |t| t);
        let gates = [
            Gate::exactly("echo.requests", stats.requests as f64, 16.0),
            // No server answers in zero time.
            Gate::at_most("echo.p50_us", us(stats.latency_quantile(0.5)), 0.0),
        ];
        let section = Json::Object(vec![("serve", Json::Object(serve_fields(None, &stats)))]);
        let json = render("smoke", vec![("echo", section)], &gates);
        let path = std::env::temp_dir().join(format!("layers-gate-{}.json", std::process::id()));
        let code = finish(&json, &path, &gates);
        let written = std::fs::read_to_string(&path).expect("JSON written before the exit");
        std::fs::remove_file(&path).expect("remove the test output");
        assert_eq!(code, ExitCode::FAILURE);
        assert_eq!(written, json);
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains(
            "{\"name\": \"echo.requests\", \"value\": 16.000, \"limit\": 16.000, \"pass\": true}"
        ));
        assert!(json.contains("\"name\": \"echo.p50_us\""));
        assert!(json.contains("\"pass\": false"));
        assert_eq!(finish(&json, &path, &gates[..1]), ExitCode::SUCCESS);
        std::fs::remove_file(&path).expect("remove the test output");
    }

    #[test]
    fn flat_containers_render_on_one_line() {
        let mut out = String::new();
        let row = Json::Object(vec![("x", int(1)), ("y", opt(None))]);
        Json::Object(vec![("a", Json::Array(vec![row])), ("b", num(0.5))]).render(0, &mut out);
        assert_eq!(
            out,
            "{\n  \"a\": [\n    {\"x\": 1, \"y\": null}\n  ],\n  \"b\": 0.500\n}"
        );
        validate(&out).expect("well-formed");
    }
}
