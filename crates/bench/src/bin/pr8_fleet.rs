//! Sharded fleet serving benchmark: ≥4 per-workload shards in mixed
//! serving tiers (table-fronted int8, pure int8, fast-f32) behind
//! SLO-aware admission control, driven at high request rate by
//! closed-loop clients. Two phases:
//!
//! 1. **Steady + hot swap**: roomy bounds, concurrent clients per
//!    shard, and a mid-run registry publish of a new version for shard
//!    `w0`. Verifies the swap lands while traffic is streaming, that
//!    not a single request is dropped or shed, and reports per-shard
//!    p50/p99 latency plus the table tier's hit/fallback mix.
//! 2. **Overload**: the same fleet spawned with a tiny queue bound and
//!    a tight SLO, offered far more concurrency than it can absorb.
//!    Verifies admission control sheds (rather than queueing without
//!    bound) while the p99 of *admitted* requests stays within the
//!    SLO.
//!
//! Emits `BENCH_pr8_fleet.json` at the workspace root. Run
//! `cargo run --release -p voyager-bench --bin pr8_fleet` for the full
//! measurement (asserts shed rate > 0 under overload and admitted p99
//! <= SLO), or with `--smoke` for the fast CI variant (same schema,
//! fewer requests, no latency assertions; the zero-drop hot-swap
//! invariants are asserted in both modes).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use voyager_bench::{fleet_demo, mode_name};
use voyager_runtime::{
    FleetClient, FleetError, FleetServer, FleetStats, ModelRegistry, ShardSpec, WorkloadId,
};

const SHARDS: usize = 4;
const SWAP_WORKLOAD: WorkloadId = WorkloadId(0);

/// Closed-loop load: `clients` threads per shard, each issuing
/// `per_client` requests of its workload's stream. Returns
/// (ok, shed, other_errors) totals.
fn drive(
    client: &FleetClient,
    shards: &[ShardSpec],
    clients: usize,
    per_client: usize,
    completed: &Arc<AtomicUsize>,
) -> (usize, usize, usize) {
    let ok = AtomicUsize::new(0);
    let shed = AtomicUsize::new(0);
    let other = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for shard in shards {
            for c in 0..clients {
                let client = client.clone();
                let workload = shard.workload;
                let (ok, shed, other) = (&ok, &shed, &other);
                let completed = completed.clone();
                scope.spawn(move || {
                    for i in 0..per_client {
                        let t = c * per_client + i;
                        match client.infer(fleet_demo::request(workload, t)) {
                            Ok(_) => {
                                ok.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(FleetError::Shed(_)) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                other.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        }
    });
    (
        ok.load(Ordering::Relaxed),
        shed.load(Ordering::Relaxed),
        other.load(Ordering::Relaxed),
    )
}

struct SwapOutcome {
    published_version: u64,
    observed_ms: f64,
}

struct PhaseOutcome {
    stats: FleetStats,
    elapsed_s: f64,
    ok: usize,
    shed: usize,
    other: usize,
    swap: Option<SwapOutcome>,
    table_hits: u64,
    table_misses: u64,
    table_fallback_rows: u64,
}

/// Steady-state serving with a mid-run hot swap: publishes a
/// pre-trained v2 for [`SWAP_WORKLOAD`] once a quarter of the offered
/// load has completed, then polls live fleet metrics until the shard
/// reports the swap.
fn steady_phase(
    registry: &Arc<ModelRegistry>,
    shards: &[ShardSpec],
    clients: usize,
    per_client: usize,
    train_steps: usize,
    distill_windows: usize,
) -> PhaseOutcome {
    let (server, client) =
        FleetServer::spawn(registry, shards, &fleet_demo::steady_config()).expect("spawn fleet");
    let table_before = (
        voyager_distill::table_hits(),
        voyager_distill::table_misses(),
        voyager_distill::table_fallback_rows(),
    );

    // v2 for the swap shard is trained (and distilled) up front so the
    // publish itself is quick enough to land mid-stream.
    let mut v2 = fleet_demo::trained_model(SWAP_WORKLOAD, train_steps, 1);
    let v2_tables = fleet_demo::tables_for(&mut v2, SWAP_WORKLOAD, distill_windows);

    let completed = Arc::new(AtomicUsize::new(0));
    let offered = shards.len() * clients * per_client;
    let started = Instant::now();
    let (outcome, swap) = std::thread::scope(|scope| {
        let load = {
            let client = client.clone();
            let completed = completed.clone();
            scope.spawn(move || drive(&client, shards, clients, per_client, &completed))
        };
        while completed.load(Ordering::Relaxed) < offered / 4 {
            std::thread::yield_now();
        }
        let published = registry
            .publish(
                SWAP_WORKLOAD,
                &fleet_demo::model_spec(),
                &v2,
                Some(v2_tables),
            )
            .expect("mid-run publish");
        let publish_at = Instant::now();
        // The shard adopts between batches; with clients streaming the
        // swap must become visible on live metrics almost immediately.
        let swap_key = format!("fleet.shard.{SWAP_WORKLOAD}.swaps");
        let deadline = publish_at + Duration::from_secs(30);
        let observed_ms = loop {
            let live = server.metrics();
            if live.counters.get(swap_key.as_str()).copied().unwrap_or(0) >= 1 {
                break publish_at.elapsed().as_secs_f64() * 1e3;
            }
            assert!(
                Instant::now() < deadline,
                "hot swap not observed on live metrics within 30s of publish"
            );
            std::thread::yield_now();
        };
        (
            load.join().expect("load thread"),
            SwapOutcome {
                published_version: published.0,
                observed_ms,
            },
        )
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    drop(client);
    let stats = server.join();
    PhaseOutcome {
        stats,
        elapsed_s,
        ok: outcome.0,
        shed: outcome.1,
        other: outcome.2,
        swap: Some(swap),
        table_hits: voyager_distill::table_hits() - table_before.0,
        table_misses: voyager_distill::table_misses() - table_before.1,
        table_fallback_rows: voyager_distill::table_fallback_rows() - table_before.2,
    }
}

/// Overload: a fresh fleet at deliberately tight bounds, offered far
/// more closed-loop concurrency than the queue bound admits.
fn overload_phase(
    registry: &Arc<ModelRegistry>,
    shards: &[ShardSpec],
    clients: usize,
    per_client: usize,
) -> PhaseOutcome {
    let (server, client) =
        FleetServer::spawn(registry, shards, &fleet_demo::overload_config()).expect("spawn fleet");
    let table_before = (
        voyager_distill::table_hits(),
        voyager_distill::table_misses(),
        voyager_distill::table_fallback_rows(),
    );
    let completed = Arc::new(AtomicUsize::new(0));
    let started = Instant::now();
    let (ok, shed, other) = drive(&client, shards, clients, per_client, &completed);
    let elapsed_s = started.elapsed().as_secs_f64();
    drop(client);
    let stats = server.join();
    PhaseOutcome {
        stats,
        elapsed_s,
        ok,
        shed,
        other,
        swap: None,
        table_hits: voyager_distill::table_hits() - table_before.0,
        table_misses: voyager_distill::table_misses() - table_before.1,
        table_fallback_rows: voyager_distill::table_fallback_rows() - table_before.2,
    }
}

fn fmt_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.0".to_string()
    }
}

fn render_phase(out: &PhaseOutcome, shards: &[ShardSpec], indent: &str) -> String {
    let mut s = String::new();
    let offered = out.ok + out.shed + out.other;
    s.push_str(&format!("{indent}\"offered\": {},\n", offered));
    s.push_str(&format!("{indent}\"admitted\": {},\n", out.ok));
    s.push_str(&format!("{indent}\"shed\": {},\n", out.shed));
    s.push_str(&format!(
        "{indent}\"shed_rate\": {},\n",
        fmt_f(if offered > 0 {
            out.shed as f64 / offered as f64
        } else {
            0.0
        })
    ));
    s.push_str(&format!(
        "{indent}\"elapsed_s\": {},\n",
        fmt_f(out.elapsed_s)
    ));
    s.push_str(&format!(
        "{indent}\"throughput_rps\": {},\n",
        fmt_f(if out.elapsed_s > 0.0 {
            out.ok as f64 / out.elapsed_s
        } else {
            0.0
        })
    ));
    s.push_str(&format!(
        "{indent}\"table\": {{\"hits\": {}, \"misses\": {}, \"fallback_rows\": {}}},\n",
        out.table_hits, out.table_misses, out.table_fallback_rows,
    ));
    if let Some(swap) = &out.swap {
        s.push_str(&format!(
            "{indent}\"swap\": {{\"workload\": \"{SWAP_WORKLOAD}\", \"published_version\": {}, \"observed_ms\": {}}},\n",
            swap.published_version,
            fmt_f(swap.observed_ms),
        ));
    }
    s.push_str(&format!("{indent}\"shards\": [\n"));
    for (i, report) in out.stats.shards.iter().enumerate() {
        let mode = shards
            .iter()
            .find(|spec| spec.workload == report.workload)
            .map(|spec| mode_name(spec.mode))
            .unwrap_or("unknown");
        s.push_str(&format!(
            "{indent}  {{\"name\": \"{}\", \"mode\": \"{}\", \"admitted\": {}, \"shed_queue_full\": {}, \"shed_deadline\": {}, \"p50_us\": {}, \"p99_us\": {}, \"version\": {}, \"swaps\": {}, \"swap_failures\": {}, \"table_absent\": {}}}{}\n",
            report.name,
            mode,
            report.admitted,
            report.shed_queue_full,
            report.shed_deadline,
            fmt_f(report.latency.quantile(0.5) as f64 / 1e3),
            fmt_f(report.latency.quantile(0.99) as f64 / 1e3),
            report.version,
            report.swaps,
            report.swap_failures,
            report.table_absent,
            if i + 1 < out.stats.shards.len() { "," } else { "" },
        ));
    }
    s.push_str(&format!("{indent}]\n"));
    s
}

fn render_json(
    mode: &str,
    shards: &[ShardSpec],
    steady: &PhaseOutcome,
    overload: &PhaseOutcome,
    slo_us: u64,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"pr8_fleet\",\n");
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str(&format!("  \"shards\": {},\n", shards.len()));
    s.push_str(&format!("  \"overload_slo_us\": {slo_us},\n"));
    s.push_str("  \"steady\": {\n");
    s.push_str(&render_phase(steady, shards, "    "));
    s.push_str("  },\n");
    s.push_str("  \"overload\": {\n");
    s.push_str(&render_phase(overload, shards, "    "));
    s.push_str("  }\n");
    s.push_str("}\n");
    s
}

fn print_phase(name: &str, out: &PhaseOutcome) {
    let offered = out.ok + out.shed + out.other;
    println!(
        "{name}: offered {offered}, admitted {}, shed {} ({:.1}%), {:.0} rps, table hits {} / fallback rows {}",
        out.ok,
        out.shed,
        if offered > 0 {
            100.0 * out.shed as f64 / offered as f64
        } else {
            0.0
        },
        if out.elapsed_s > 0.0 {
            out.ok as f64 / out.elapsed_s
        } else {
            0.0
        },
        out.table_hits,
        out.table_fallback_rows,
    );
    for report in &out.stats.shards {
        println!(
            "  shard {}: admitted {}, shed {} (queue {}, deadline {}), p50 {:.0} us, p99 {:.0} us, v{}, swaps {}",
            report.name,
            report.admitted,
            report.shed(),
            report.shed_queue_full,
            report.shed_deadline,
            report.latency.quantile(0.5) as f64 / 1e3,
            report.latency.quantile(0.99) as f64 / 1e3,
            report.version,
            report.swaps,
        );
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (clients, per_client, train_steps, distill_windows) = if smoke {
        (2, 24, 30, 12)
    } else {
        (4, 250, 60, 24)
    };
    let overload_clients = if smoke { 8 } else { 16 };
    let overload_per_client = if smoke { 16 } else { 100 };

    let shards = fleet_demo::default_shards(SHARDS);
    assert!(shards.len() >= 4, "the fleet bench must drive >= 4 shards");
    let registry = Arc::new(ModelRegistry::new());
    fleet_demo::publish_all(&registry, &shards, train_steps, distill_windows);

    let steady = steady_phase(
        &registry,
        &shards,
        clients,
        per_client,
        train_steps,
        distill_windows,
    );
    print_phase("steady", &steady);
    let swap = steady.swap.as_ref().expect("steady phase ran the swap");
    println!(
        "hot swap: v{} published mid-stream for {SWAP_WORKLOAD}, observed on live metrics after {:.1} ms",
        swap.published_version, swap.observed_ms,
    );

    // Hot-swap-under-load contract, asserted in both modes: nothing
    // dropped or shed at steady bounds, exactly one swap on the
    // published shard, and the shard ends on the published version.
    let offered = steady.ok + steady.shed + steady.other;
    assert_eq!(steady.ok, offered, "steady phase must not drop requests");
    assert_eq!(steady.stats.shed(), 0, "steady phase must not shed");
    assert_eq!(steady.other, 0, "no shard may stop mid-run");
    let swap_shard = steady
        .stats
        .shards
        .iter()
        .find(|s| s.workload == SWAP_WORKLOAD)
        .expect("swap shard report");
    assert_eq!(swap_shard.swaps, 1, "exactly one hot swap");
    assert_eq!(swap_shard.swap_failures, 0);
    assert_eq!(swap_shard.version, swap.published_version);
    assert!(
        !swap_shard.table_absent,
        "v2 was published with tables; the shard must not degrade"
    );

    let overload = overload_phase(&registry, &shards, overload_clients, overload_per_client);
    print_phase("overload", &overload);
    let slo_us = 100_000u64;
    let admitted_p99_us_max = overload
        .stats
        .shards
        .iter()
        .map(|s| s.latency.quantile(0.99) / 1_000)
        .max()
        .unwrap_or(0);
    println!(
        "overload: admitted p99 (worst shard) {admitted_p99_us_max} us against a {slo_us} us SLO"
    );
    assert_eq!(overload.other, 0, "no shard may stop under overload");
    if !smoke {
        // Acceptance thresholds are asserted only in full mode; smoke
        // runs on loaded CI machines validate the harness and schema.
        assert!(
            overload.shed > 0,
            "overload phase must shed: {overload_clients} clients against a queue bound of {}",
            fleet_demo::overload_config().max_queue_depth
        );
        assert!(
            admitted_p99_us_max <= slo_us,
            "admitted p99 ({admitted_p99_us_max} us) must stay within the {slo_us} us SLO"
        );
    }

    let json = render_json(
        if smoke { "smoke" } else { "full" },
        &shards,
        &steady,
        &overload,
        slo_us,
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
            "/../../target/BENCH_pr8_fleet.smoke.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr8_fleet.json")
    };
    std::fs::write(path, &json).expect("write BENCH_pr8_fleet.json");
    println!("wrote {path}");
}
