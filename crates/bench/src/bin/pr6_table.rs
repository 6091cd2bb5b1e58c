//! Distilled-table serving benchmark: the three serving tiers (f32
//! fast path, int8 fast path, distilled tables with int8 fallback)
//! through the microbatch server, at the same serving-shaped
//! configuration as `pr5_infer`. Reports p50/p99 latency and
//! throughput per tier, the distillation report (table geometry,
//! eviction pressure, agreement vs the f32 teacher), live
//! `infer.table.*` counter deltas from the serving run, and the table
//! path's top-1 agreement with the teacher on a trained model. Emits
//! `BENCH_pr6_table.json` at the workspace root.
//!
//! Run `cargo run --release -p voyager-bench --bin pr6_table` for the
//! full measurement (asserts the acceptance thresholds: table p50 at
//! least 10x better than int8 and <= 400 us), or with `--smoke` for
//! the fast CI variant (same schema, fewer requests, no latency
//! assertions).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use voyager::{SeqBatch, VoyagerConfig, VoyagerModel};
use voyager_bench::mode_name;
use voyager_distill::{distill, DistillReport, TableConfig};
use voyager_runtime::{
    InferenceRequest, MicrobatchConfig, MicrobatchServer, PredictMode, ServiceConfig,
};

/// System allocator wrapped with a relaxed byte counter (same harness
/// as `pr5_infer`): the metric is allocator traffic, not live
/// footprint.
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
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's layout, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: pure pass-through; `ptr`/`layout` reach `System` exactly
    // as the caller provided them.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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

/// The `pr5_infer` serving-shaped model: scaled config widened to 128
/// LSTM units and an 8192-page vocabulary, so the neural tiers pay
/// GEMM costs the way paper-scale serving does. The table tier's whole
/// point is that its lookup cost is independent of these dimensions.
fn serve_config() -> (VoyagerConfig, usize) {
    let mut cfg = VoyagerConfig::scaled();
    cfg.lstm_units = 128;
    (cfg, 8192)
}

fn request(t: usize, seq_len: usize, page_vocab: usize) -> InferenceRequest {
    InferenceRequest {
        workload: Default::default(),
        pc: (0..seq_len).map(|j| (t + j) % 64).collect(),
        page: (0..seq_len).map(|j| (t * 3 + j) % page_vocab).collect(),
        offset: (0..seq_len).map(|j| (t * 5 + j) % 64).collect(),
    }
}

/// The full request workload as a distillation corpus.
fn corpus(requests: usize, seq_len: usize, page_vocab: usize) -> SeqBatch {
    let mut c = SeqBatch::default();
    for t in 0..requests {
        let r = request(t, seq_len, page_vocab);
        c.pc.push(r.pc);
        c.page.push(r.page);
        c.offset.push(r.offset);
    }
    c
}

struct PathNumbers {
    path: &'static str,
    requests: usize,
    throughput_rps: f64,
    p50_us: f64,
    p99_us: f64,
}

/// Counter deltas of the table tier's serving run.
struct TableCounters {
    hits: u64,
    misses: u64,
    fallback_rows: u64,
}

/// Closed-loop serving latency, identically batched across tiers
/// (`max_batch = 1` flushes every request immediately). For
/// [`PredictMode::Table`] the service first distills tables from the
/// full request workload, so serving measures warm tables over the
/// exact traffic distribution.
fn bench_serving(
    mode: PredictMode,
    requests: usize,
) -> (PathNumbers, Option<(DistillReport, TableCounters)>) {
    let (cfg, page_vocab) = serve_config();
    let model = VoyagerModel::new(&cfg, 64, page_vocab, 64);
    let mut table_info = None;
    let service = if mode == PredictMode::Table {
        let mut model = model;
        let (tables, report) = distill(
            &mut model,
            &corpus(requests, cfg.seq_len, page_vocab),
            &TableConfig::for_budget(1 << 20),
        );
        table_info = Some(report);
        ServiceConfig::new(2)
            .mode(PredictMode::Table)
            .tables(tables)
            .build(model)
            .expect("table mode with tables attached")
    } else {
        ServiceConfig::new(2)
            .mode(mode)
            .build(model)
            .expect("neural modes need no tables")
    };
    let mb = MicrobatchConfig {
        max_batch: 1,
        max_delay: Duration::from_millis(1),
    };
    let before = (
        voyager_distill::table_hits(),
        voyager_distill::table_misses(),
        voyager_distill::table_fallback_rows(),
    );
    let (server, client) = MicrobatchServer::spawn(service, mb);
    let clients = 4;
    std::thread::scope(|scope| {
        for c in 0..clients {
            let client = client.clone();
            let per_client = requests / clients;
            scope.spawn(move || {
                for i in 0..per_client {
                    let t = c * per_client + i;
                    std::hint::black_box(client.infer(request(t, cfg.seq_len, page_vocab)));
                }
            });
        }
    });
    drop(client);
    let stats = server.join();
    let counters = TableCounters {
        hits: voyager_distill::table_hits() - before.0,
        misses: voyager_distill::table_misses() - before.1,
        fallback_rows: voyager_distill::table_fallback_rows() - before.2,
    };
    let numbers = PathNumbers {
        path: mode_name(mode),
        requests: stats.requests,
        throughput_rps: stats.throughput(),
        p50_us: stats.latency_quantile(0.5).as_secs_f64() * 1e6,
        p99_us: stats.latency_quantile(0.99).as_secs_f64() * 1e6,
    };
    (numbers, table_info.map(|r| (r, counters)))
}

/// Trains the small fixed mapping from the core fast-path tests to
/// convergence, distills it, and returns the table-vs-f32-teacher
/// top-1 (page, offset) agreement over a 128-row evaluation batch
/// (table misses resolve through int8, exactly as serving would).
fn table_agreement() -> f64 {
    let cfg = VoyagerConfig::test();
    let mut model = VoyagerModel::new(&cfg, 16, 8, 64);
    let patterns = SeqBatch {
        pc: vec![vec![1; 4], vec![2; 4], vec![3; 4], vec![4; 4]],
        page: vec![vec![3; 4], vec![5; 4], vec![7; 4], vec![1; 4]],
        offset: vec![vec![10; 4], vec![20; 4], vec![30; 4], vec![40; 4]],
    };
    let pages: [usize; 4] = [6, 7, 2, 4];
    let offsets: [usize; 4] = [30, 40, 50, 60];
    for _ in 0..150 {
        model.train_single(&patterns, &pages, &offsets);
    }
    let rows = 128;
    let eval = SeqBatch {
        pc: (0..rows).map(|i| patterns.pc[i % 4].clone()).collect(),
        page: (0..rows).map(|i| patterns.page[i % 4].clone()).collect(),
        offset: (0..rows).map(|i| patterns.offset[i % 4].clone()).collect(),
    };
    let teacher = model.predict_fast(&eval, 1);
    let (tables, _) = distill(&mut model, &eval, &TableConfig::for_budget(64 * 1024));
    model.prepare_int8();
    let agree = (0..rows)
        .filter(|&i| {
            let Some(&last_pc) = eval.pc[i].last() else {
                return false;
            };
            let student = tables
                .predict_quiet(&eval.page[i], last_pc, 1)
                .or_else(|| {
                    let row = SeqBatch {
                        pc: vec![eval.pc[i].clone()],
                        page: vec![eval.page[i].clone()],
                        offset: vec![eval.offset[i].clone()],
                    };
                    model.predict_int8(&row, 1).into_iter().next()
                })
                .and_then(|preds| preds.first().copied());
            student.is_some_and(|(p, o, _)| (p, o) == (teacher[i][0].0, teacher[i][0].1))
        })
        .count();
    agree as f64 / rows as f64
}

fn fmt_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.0".to_string()
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), fmt_f)
}

fn render_json(
    mode: &str,
    paths: &[PathNumbers],
    report: &DistillReport,
    counters: &TableCounters,
    agreement: f64,
    distill_us: f64,
) -> String {
    let p50 = |name: &str| {
        paths
            .iter()
            .find(|p| p.path == name)
            .map(|p| p.p50_us)
            .unwrap_or(0.0)
    };
    let int8 = p50("fast_int8");
    let table = p50("table");
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"pr6_table\",\n");
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str("  \"serve\": [\n");
    for (i, p) in paths.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"path\": \"{}\", \"requests\": {}, \"throughput_rps\": {}, \"p50_us\": {}, \"p99_us\": {}}}{}\n",
            p.path,
            p.requests,
            fmt_f(p.throughput_rps),
            fmt_f(p.p50_us),
            fmt_f(p.p99_us),
            if i + 1 < paths.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"table_vs_int8_speedup_p50\": {},\n",
        fmt_f(if table > 0.0 { int8 / table } else { 0.0 })
    ));
    s.push_str(&format!(
        "  \"table_top1_agreement\": {},\n",
        fmt_f(agreement)
    ));
    s.push_str(&format!("  \"distill_us\": {},\n", fmt_f(distill_us)));
    s.push_str("  \"table\": {\n");
    s.push_str(&format!("    \"samples\": {},\n", report.samples));
    s.push_str(&format!(
        "    \"page\": {{\"entries\": {}, \"claimed\": {}, \"merged\": {}, \"collisions_kept\": {}, \"evictions\": {}}},\n",
        report.page.entries,
        report.page.claimed,
        report.page.merged,
        report.page.collisions_kept,
        report.page.evictions,
    ));
    s.push_str(&format!(
        "    \"offset\": {{\"entries\": {}, \"claimed\": {}, \"merged\": {}, \"collisions_kept\": {}, \"evictions\": {}}},\n",
        report.offset.entries,
        report.offset.claimed,
        report.offset.merged,
        report.offset.collisions_kept,
        report.offset.evictions,
    ));
    s.push_str(&format!("    \"memory_bytes\": {},\n", report.memory_bytes));
    s.push_str(&format!(
        "    \"corpus_hit_rate\": {},\n",
        fmt_opt(report.hit_rate)
    ));
    s.push_str(&format!(
        "    \"page_agreement\": {},\n",
        fmt_opt(report.page_agreement)
    ));
    s.push_str(&format!(
        "    \"offset_agreement\": {},\n",
        fmt_opt(report.offset_agreement)
    ));
    s.push_str(&format!(
        "    \"joint_agreement\": {},\n",
        fmt_opt(report.joint_agreement)
    ));
    s.push_str(&format!(
        "    \"serve_hits\": {}, \"serve_misses\": {}, \"serve_fallback_rows\": {}\n",
        counters.hits, counters.misses, counters.fallback_rows,
    ));
    s.push_str("  }\n");
    s.push_str("}\n");
    s
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let requests = if smoke { 64 } else { 2048 };

    let agreement = table_agreement();
    println!("table top-1 agreement vs f32 teacher: {agreement:.4}");
    assert!(
        agreement >= 0.90,
        "table top-1 agreement {agreement} below the 0.90 acceptance floor"
    );

    // Heap traffic of one warm table lookup, for the log (the neural
    // tiers' per-call numbers live in BENCH_pr5_infer.json).
    {
        let (cfg, page_vocab) = serve_config();
        let mut model = VoyagerModel::new(&cfg, 64, page_vocab, 64);
        let (tables, _) = distill(
            &mut model,
            &corpus(64, cfg.seq_len, page_vocab),
            &TableConfig::for_budget(1 << 20),
        );
        let probe = request(0, cfg.seq_len, page_vocab);
        let last_pc = probe.pc[probe.pc.len() - 1];
        std::hint::black_box(tables.predict_quiet(&probe.page, last_pc, 2));
        let before = heap_bytes();
        for _ in 0..64 {
            std::hint::black_box(tables.predict_quiet(&probe.page, last_pc, 2));
        }
        println!(
            "table lookup heap traffic: {:.0} bytes/call",
            (heap_bytes() - before) as f64 / 64.0
        );
    }

    // One-time distillation cost over the full workload, measured
    // apart from serving (bench_serving re-distills for the table
    // tier; the work is identical and deterministic).
    let distill_us = {
        let (cfg, page_vocab) = serve_config();
        let mut model = VoyagerModel::new(&cfg, 64, page_vocab, 64);
        let c = corpus(requests, cfg.seq_len, page_vocab);
        let t0 = std::time::Instant::now();
        std::hint::black_box(distill(&mut model, &c, &TableConfig::for_budget(1 << 20)));
        t0.elapsed().as_secs_f64() * 1e6
    };
    println!("distillation of {requests} windows: {:.0} us", distill_us);

    let mut paths = Vec::new();
    let mut table_extra = None;
    for mode in [
        PredictMode::FastF32,
        PredictMode::FastInt8,
        PredictMode::Table,
    ] {
        let (numbers, extra) = bench_serving(mode, requests);
        println!(
            "serve/{}: {} requests, {:.0} rps, p50 {:.0} us, p99 {:.0} us",
            numbers.path, numbers.requests, numbers.throughput_rps, numbers.p50_us, numbers.p99_us,
        );
        paths.push(numbers);
        if extra.is_some() {
            table_extra = extra;
        }
    }
    let Some((report, counters)) = table_extra else {
        eprintln!("table tier produced no distillation report");
        std::process::exit(1);
    };
    println!(
        "table tier: {} page / {} offset entries, {} KiB, corpus hit rate {}, serve hits {} / misses {}",
        report.page.entries,
        report.offset.entries,
        report.memory_bytes / 1024,
        fmt_opt(report.hit_rate),
        counters.hits,
        counters.misses,
    );

    let int8_p50 = paths[1].p50_us;
    let table_p50 = paths[2].p50_us;
    println!(
        "table speedup over int8 (p50): {:.1}x",
        if table_p50 > 0.0 {
            int8_p50 / table_p50
        } else {
            0.0
        }
    );
    if !smoke {
        // Acceptance thresholds are asserted only in full mode; smoke
        // runs on loaded CI machines validate the harness and schema.
        assert!(
            table_p50 * 10.0 <= int8_p50,
            "table serve p50 ({table_p50:.0} us) must be at least 10x better than int8 ({int8_p50:.0} us)"
        );
        assert!(
            table_p50 <= 400.0,
            "table serve p50 ({table_p50:.0} us) must be at most 400 us"
        );
    }

    let json = render_json(
        if smoke { "smoke" } else { "full" },
        &paths,
        &report,
        &counters,
        agreement,
        distill_us,
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
            "/../../target/BENCH_pr6_table.smoke.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr6_table.json")
    };
    std::fs::write(path, &json).expect("write BENCH_pr6_table.json");
    println!("wrote {path}");
}
