//! Command-line entry of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perf/Cargo.toml -- \
//!     --workload paper-online|sim-baselines \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints notes and the machine/configuration stamp as `#` lines, then
//! one JSON object as the last line: `correct`, `attempted`, `failed`
//! and `metrics` (end-to-end metrics untraced, per-layer metrics with
//! `--trace 1`). A traced run also writes its spans and metrics to
//! `perf/out/trace-<workload>-<seed>.json`.

use std::process::ExitCode;

use voyager_perf::{run, stamp, Metric, Options, Sizes, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: voyager-perf --workload <paper-online|sim-baselines> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(50.0),
        trace,
    })
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let stamp = stamp(&opts);
    println!("# stamp {stamp}");
    let mut outcome = run(&opts, &Sizes::standard());
    for m in &mut outcome.metrics {
        if !m.value.is_finite() {
            eprintln!("metric {} is not finite", m.name);
            outcome.checks.expect(false, "metric is not finite");
            m.value = 0.0;
        }
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!("# {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics = metrics_json(&outcome.metrics);
    if let Some(spans) = &outcome.spans_json {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-{}.json", opts.workload.name(), opts.seed));
        let body = format!("{{\"stamp\": {stamp}, \"metrics\": {metrics}, \"spans\": {spans}}}\n");
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.checks.failed == 0,
        outcome.checks.attempted.max(1),
        outcome.checks.failed
    );
    ExitCode::SUCCESS
}
