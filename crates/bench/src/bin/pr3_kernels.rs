//! Kernel-layer benchmark: GEMM GFLOP/s (naive vs blocked vs
//! parallel), end-to-end training-step throughput on the scalar
//! golden-reference kernels vs the dispatched SIMD tier, and
//! microbatched serving latency. Emits
//! `BENCH_pr3_kernels.json` at the workspace root.
//!
//! Run `cargo run --release -p voyager-bench --bin pr3_kernels` for the
//! full measurement, or with `--smoke` for the fast CI variant (same
//! schema, smaller sizes and iteration counts).

use std::time::Instant;

use voyager::{SeqBatch, VoyagerConfig, VoyagerModel};
use voyager_runtime::{
    par_gemm, ChunkPool, InferenceRequest, MicrobatchConfig, MicrobatchServer, ServiceConfig,
};
use voyager_tensor::kernels::{self, Layout};
use voyager_tensor::rng::thread_rng;
use voyager_tensor::Tensor2;

/// Times `f` over `iters` iterations after one warmup call, repeats
/// the whole batch three times, and returns the *minimum* mean seconds
/// per iteration. Taking the best batch rejects scheduler preemption
/// noise (the only way a batch can be fast is if the code is fast; a
/// mean over one batch folds every context switch into the number,
/// which made repeated runs on shared vCPUs disagree by 2x).
fn time_per_iter(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

struct GemmRow {
    layout: &'static str,
    size: usize,
    naive_gflops: f64,
    scalar_gflops: f64,
    blocked_gflops: f64,
    parallel_gflops: f64,
    speedup: f64,
    threads: usize,
    dispatch: &'static str,
}

fn operands(size: usize, layout: Layout) -> (Tensor2, Tensor2) {
    let mut rng = thread_rng();
    let (m, n, k) = (size, size, size);
    let (ashape, bshape) = match layout {
        Layout::NN => ((m, k), (k, n)),
        Layout::TN => ((k, m), (k, n)),
        Layout::NT => ((m, k), (n, k)),
    };
    (
        Tensor2::uniform(ashape.0, ashape.1, 1.0, &mut rng),
        Tensor2::uniform(bshape.0, bshape.1, 1.0, &mut rng),
    )
}

fn bench_gemm(size: usize, layout: Layout, iters: usize, pool: &ChunkPool) -> GemmRow {
    let (a, b) = operands(size, layout);
    let flops = 2.0 * (size as f64).powi(3);
    let mut out = Tensor2::zeros(size, size);

    // The fast kernels finish a small GEMM in microseconds, so `iters`
    // of them is too short a window to time on a shared vCPU — scale
    // the count up at small sizes (~constant flops per batch, capped)
    // while the slow naive path keeps the caller's count.
    let fast_iters = ((iters * 512 * 512 * 512) / (size * size * size)).clamp(iters, 1000);

    let naive = time_per_iter(iters, || {
        kernels::naive_gemm(&a, &b, layout, &mut out);
    });
    kernels::set_force_scalar(true);
    let scalar = time_per_iter(fast_iters, || {
        kernels::gemm(&a, &b, layout, &mut out);
    });
    kernels::set_force_scalar(false);
    let blocked = time_per_iter(fast_iters, || {
        kernels::gemm(&a, &b, layout, &mut out);
    });
    let parallel = time_per_iter(fast_iters, || {
        par_gemm(pool, &a, &b, layout, &mut out);
    });
    GemmRow {
        layout: match layout {
            Layout::NN => "NN",
            Layout::TN => "TN",
            Layout::NT => "NT",
        },
        size,
        naive_gflops: flops / naive / 1e9,
        scalar_gflops: flops / scalar / 1e9,
        blocked_gflops: flops / blocked / 1e9,
        parallel_gflops: flops / parallel / 1e9,
        speedup: naive / blocked,
        threads: pool.threads(),
        dispatch: kernels::active_isa().name(),
    }
}

/// Verifies that parallel GEMM is bitwise-identical to the
/// single-threaded kernel and stable across repeated runs at fixed
/// thread counts. Uses explicit multi-thread pools so the chunked code
/// path is exercised even on a single-core host.
fn check_determinism() -> bool {
    // 144³ clears the work-scaled fan-out threshold several times, so
    // multi-thread pools genuinely run the chunked path here.
    let (a, b) = operands(144, Layout::NN);
    let mut reference = Tensor2::zeros(1, 1);
    kernels::gemm(&a, &b, Layout::NN, &mut reference);
    for threads in [2, 4, 8] {
        let pool = ChunkPool::new(threads);
        for _ in 0..3 {
            let mut out = Tensor2::zeros(1, 1);
            par_gemm(&pool, &a, &b, Layout::NN, &mut out);
            let same = out
                .as_slice()
                .iter()
                .zip(reference.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            if !same {
                return false;
            }
        }
    }
    true
}

/// Pins the parallel-vs-blocked regression fix for EVERY layout/size
/// cell, not just NT/64: `par_gemm` must never fall meaningfully
/// behind the single-thread blocked kernel — below the work threshold
/// it runs blocked on the calling thread, and above it the chunk fan
/// is scaled to the available work so partition overhead cannot eat
/// the win (the committed full run once measured NT/64 parallel at
/// 10.5 vs 19.7 GFLOP/s blocked, and NT/512 at 0.77x). Any cell that
/// misses 0.9x blocked is re-measured a few times so a noisy CI
/// scheduler cannot flake the check.
fn check_parallel_matches_blocked(rows: &[GemmRow], pool: &ChunkPool, iters: usize) {
    for row in rows {
        let layout = match row.layout {
            "NN" => Layout::NN,
            "TN" => Layout::TN,
            _ => Layout::NT,
        };
        let mut last = (row.parallel_gflops, row.blocked_gflops);
        let mut ok = last.0 >= 0.9 * last.1;
        for _ in 0..3 {
            if ok {
                break;
            }
            println!(
                "parallel check {}/{}: parallel {:.2} GF/s < 0.9x blocked {:.2} GF/s, re-measuring",
                row.layout, row.size, last.0, last.1
            );
            let again = bench_gemm(row.size, layout, iters, pool);
            last = (again.parallel_gflops, again.blocked_gflops);
            ok = last.0 >= 0.9 * last.1;
        }
        assert!(
            ok,
            "parallel {}/{} regressed to {:.2} GF/s vs blocked {:.2} GF/s: \
             par_gemm is losing to the single-thread kernel",
            row.layout, row.size, last.0, last.1
        );
    }
}

fn seq_batch(b: usize, l: usize, page_vocab: usize) -> SeqBatch {
    SeqBatch {
        pc: (0..b)
            .map(|i| (0..l).map(|j| (i * 7 + j) % 64).collect())
            .collect(),
        page: (0..b)
            .map(|i| (0..l).map(|j| (i * 13 + j * 3) % page_vocab).collect())
            .collect(),
        offset: (0..b)
            .map(|i| (0..l).map(|j| (i * 11 + j * 5) % 64).collect())
            .collect(),
    }
}

struct TrainNumbers {
    batch_size: usize,
    scalar_steps_per_s: f64,
    blocked_steps_per_s: f64,
    speedup: f64,
}

fn bench_training(iters: usize) -> TrainNumbers {
    let cfg = VoyagerConfig::scaled();
    let page_vocab = 1024;
    let batch = seq_batch(cfg.batch_size, cfg.seq_len, page_vocab);
    let mut pt = Tensor2::zeros(cfg.batch_size, page_vocab);
    let mut ot = Tensor2::zeros(cfg.batch_size, 64);
    for i in 0..cfg.batch_size {
        pt.set(i, (i * 37) % page_vocab, 1.0);
        ot.set(i, (i * 17) % 64, 1.0);
    }

    kernels::set_force_scalar(true);
    let mut model = VoyagerModel::new(&cfg, 64, page_vocab, 64);
    let scalar = time_per_iter(iters, || {
        std::hint::black_box(model.train_multi(&batch, &pt, &ot));
    });
    kernels::set_force_scalar(false);
    let mut model = VoyagerModel::new(&cfg, 64, page_vocab, 64);
    let blocked = time_per_iter(iters, || {
        std::hint::black_box(model.train_multi(&batch, &pt, &ot));
    });
    TrainNumbers {
        batch_size: cfg.batch_size,
        scalar_steps_per_s: 1.0 / scalar,
        blocked_steps_per_s: 1.0 / blocked,
        speedup: scalar / blocked,
    }
}

struct ServeNumbers {
    requests: usize,
    throughput_rps: f64,
    p50_us: f64,
    p99_us: f64,
    mean_batch: f64,
}

fn bench_serving(requests: usize) -> ServeNumbers {
    let cfg = VoyagerConfig::test();
    let page_vocab = 256;
    let model = VoyagerModel::new(&cfg, 64, page_vocab, 64);
    let service = ServiceConfig::new(2)
        .build(model)
        .expect("the f32 fast path needs no tables");
    let (server, client) = MicrobatchServer::spawn(service, MicrobatchConfig::default());
    let clients = 4;
    std::thread::scope(|scope| {
        for c in 0..clients {
            let client = client.clone();
            let per_client = requests / clients;
            scope.spawn(move || {
                for i in 0..per_client {
                    let t = c * per_client + i;
                    let req = InferenceRequest {
                        workload: Default::default(),
                        pc: (0..cfg.seq_len).map(|j| (t + j) % 64).collect(),
                        page: (0..cfg.seq_len).map(|j| (t * 3 + j) % page_vocab).collect(),
                        offset: (0..cfg.seq_len).map(|j| (t * 5 + j) % 64).collect(),
                    };
                    std::hint::black_box(client.infer(req));
                }
            });
        }
    });
    drop(client);
    let stats = server.join();
    ServeNumbers {
        requests: stats.requests,
        throughput_rps: stats.throughput(),
        p50_us: stats.latency_quantile(0.5).as_secs_f64() * 1e6,
        p99_us: stats.latency_quantile(0.99).as_secs_f64() * 1e6,
        mean_batch: stats.mean_batch_size(),
    }
}

fn fmt_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.0".to_string()
    }
}

fn render_json(
    mode: &str,
    gemm: &[GemmRow],
    deterministic: bool,
    train: &TrainNumbers,
    serve: &ServeNumbers,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"pr3_kernels\",\n");
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str("  \"gemm\": [\n");
    for (i, r) in gemm.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"layout\": \"{}\", \"size\": {}, \"naive_gflops\": {}, \"scalar_gflops\": {}, \"blocked_gflops\": {}, \"parallel_gflops\": {}, \"speedup\": {}, \"threads\": {}, \"dispatch\": \"{}\"}}{}\n",
            r.layout,
            r.size,
            fmt_f(r.naive_gflops),
            fmt_f(r.scalar_gflops),
            fmt_f(r.blocked_gflops),
            fmt_f(r.parallel_gflops),
            fmt_f(r.speedup),
            r.threads,
            r.dispatch,
            if i + 1 < gemm.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"parallel_bitwise_identical\": {deterministic},\n"
    ));
    s.push_str(&format!(
        "  \"training\": {{\"batch_size\": {}, \"scalar_steps_per_s\": {}, \"blocked_steps_per_s\": {}, \"speedup\": {}}},\n",
        train.batch_size,
        fmt_f(train.scalar_steps_per_s),
        fmt_f(train.blocked_steps_per_s),
        fmt_f(train.speedup),
    ));
    s.push_str(&format!(
        "  \"serve\": {{\"requests\": {}, \"throughput_rps\": {}, \"p50_us\": {}, \"p99_us\": {}, \"mean_batch\": {}}}\n",
        serve.requests,
        fmt_f(serve.throughput_rps),
        fmt_f(serve.p50_us),
        fmt_f(serve.p99_us),
        fmt_f(serve.mean_batch),
    ));
    s.push_str("}\n");
    s
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sizes, gemm_iters, train_iters, serve_requests): (&[usize], usize, usize, usize) = if smoke
    {
        (&[64, 256], 2, 2, 64)
    } else {
        (&[64, 128, 256, 512], 5, 8, 512)
    };
    let pool = ChunkPool::with_available_parallelism();

    let mut gemm = Vec::new();
    for &size in sizes {
        for layout in [Layout::NN, Layout::TN, Layout::NT] {
            let row = bench_gemm(size, layout, gemm_iters, &pool);
            println!(
                "gemm/{}/{}: naive {:.2} GF/s, scalar {:.2} GF/s, blocked {:.2} GF/s ({:.1}x, {}), parallel {:.2} GF/s ({} threads)",
                row.layout, size, row.naive_gflops, row.scalar_gflops, row.blocked_gflops,
                row.speedup, row.dispatch, row.parallel_gflops, row.threads
            );
            gemm.push(row);
        }
    }
    let deterministic = check_determinism();
    println!("parallel bitwise identical: {deterministic}");
    assert!(deterministic, "parallel GEMM diverged from single-thread");
    check_parallel_matches_blocked(&gemm, &pool, gemm_iters.max(3));

    let train = bench_training(train_iters);
    println!(
        "training: {:.3} steps/s scalar, {:.3} steps/s blocked ({:.1}x), batch {}",
        train.scalar_steps_per_s, train.blocked_steps_per_s, train.speedup, train.batch_size
    );
    let serve = bench_serving(serve_requests);
    println!(
        "serve: {} requests, {:.0} rps, p50 {:.0} us, p99 {:.0} us, mean batch {:.1}",
        serve.requests, serve.throughput_rps, serve.p50_us, serve.p99_us, serve.mean_batch
    );

    let json = render_json(
        if smoke { "smoke" } else { "full" },
        &gemm,
        deterministic,
        &train,
        &serve,
    );
    if let Err(e) = voyager_obs::json::validate(&json) {
        eprintln!("generated JSON is malformed: {e}\n{json}");
        std::process::exit(1);
    }
    // Smoke runs (CI) validate the harness without clobbering the
    // committed full-mode measurement at the workspace root.
    let path = if smoke {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_pr3_kernels.smoke.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr3_kernels.json")
    };
    std::fs::write(path, &json).expect("write BENCH_pr3_kernels.json");
    println!("wrote {path}");
}
