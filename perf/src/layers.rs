//! Direct calls into single layers, timed in the traced run: the
//! model's train and predict entry points, the distilled-table lookup,
//! a shard's `VoyagerService::forward_batch`, and the vocabulary and
//! label passes of the online loop.

use std::time::Instant;

use voyager::{SeqBatch, VoyagerConfig, VoyagerModel};
use voyager_runtime::{BatchModel, ModelSpec, PredictMode, ServiceConfig};
use voyager_sim::{llc_stream, SimConfig};
use voyager_trace::labels::compute_labels;
use voyager_trace::vocab::Vocabulary;

use crate::serve::{one_row, Fleet, Shard, DEGREE};
use crate::stats::median;
use crate::tracer::{Tracer, ROOT};
use crate::{Metric, Setup};

/// Calls `f` `reps` times inside spans called `name`; returns the
/// median call time in µs.
fn timed_us(tracer: &Tracer, name: &'static str, reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|i| {
            let _s = tracer.span(name, ROOT, None);
            let t0 = Instant::now();
            f(i);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

fn published_model(fleet: &Fleet, shard: &Shard) -> VoyagerModel {
    let (_, artifact) = fleet
        .registry
        .resolve_latest(shard.spec.workload)
        .expect("shard was published");
    artifact.instantiate().expect("published artifact loads")
}

fn batch_of(shard: &Shard, start: usize, rows: usize) -> SeqBatch {
    let mut b = SeqBatch::default();
    for r in shard.requests.iter().cycle().skip(start).take(rows) {
        b.pc.push(r.pc.clone());
        b.page.push(r.page.clone());
        b.offset.push(r.offset.clone());
    }
    b
}

/// Per-layer timings from direct calls, `reps` calls each.
pub fn measure(setup: &Setup, reps: usize, tracer: &Tracer) -> Vec<Metric> {
    let fleet = &setup.fleet;
    let mcf = &fleet.shards[0];
    let mut out = Vec::new();

    // Training: a fresh model on consecutive 64-row batches of the mcf
    // training set.
    let ts = &mcf.train_set;
    let vocab = ts.vocab();
    let cfg = VoyagerConfig::scaled();
    let rows = cfg.batch_size;
    let mut fresh = ModelSpec {
        cfg,
        pc_vocab: vocab.pc_vocab_len(),
        page_vocab: vocab.page_vocab_len(),
        offset_vocab: vocab.offset_vocab_len(),
    }
    .instantiate();
    let batches = (ts.len() / rows).max(1);
    let train_us = timed_us(tracer, "core.model.train_multi", reps, |i| {
        let start = (i % batches) * rows;
        let (b, p, o) = ts.slice_batch(start, (start + rows).min(ts.len()));
        std::hint::black_box(fresh.train_multi(&b, &p, &o));
    });
    out.push(Metric::new("core.model.train_multi_us", "us", train_us));

    // Inference on the published mcf model: 64-row batches through the
    // tape, f32 fast and int8 paths, then single rows.
    let mut model = published_model(fleet, mcf);
    model.prepare_int8();
    let b64 = batch_of(mcf, 0, rows);
    let us = timed_us(tracer, "core.model.predict_b64", reps, |_| {
        std::hint::black_box(model.predict(&b64, DEGREE));
    });
    out.push(Metric::new("core.model.predict_b64_us", "us", us));
    let us = timed_us(tracer, "core.model.predict_fast_b64", reps, |_| {
        std::hint::black_box(model.predict_fast(&b64, DEGREE));
    });
    out.push(Metric::new("core.model.predict_fast_b64_us", "us", us));
    let us = timed_us(tracer, "core.model.predict_int8_b64", reps, |_| {
        std::hint::black_box(model.predict_int8(&b64, DEGREE));
    });
    out.push(Metric::new("core.model.predict_int8_b64_us", "us", us));
    let rows1: Vec<SeqBatch> = mcf.requests.iter().take(reps * 4).map(one_row).collect();
    let us = timed_us(tracer, "core.model.predict_fast_b1", rows1.len(), |i| {
        std::hint::black_box(model.predict_fast(&rows1[i], DEGREE));
    });
    out.push(Metric::new("core.model.predict_fast_b1_us", "us", us));
    let us = timed_us(tracer, "core.model.predict_int8_b1", rows1.len(), |i| {
        std::hint::black_box(model.predict_int8(&rows1[i], DEGREE));
    });
    out.push(Metric::new("core.model.predict_int8_b1_us", "us", us));

    // Distilled-table lookups over every mcf window (mean per lookup:
    // a lookup is far shorter than the clock's resolution warrants
    // timing one at a time).
    let (_, artifact) = fleet
        .registry
        .resolve_latest(mcf.spec.workload)
        .expect("shard was published");
    let tables = artifact.tables().expect("table shard has tables");
    let total_us = timed_us(tracer, "distill.lookup_all", 1, |_| {
        for r in &mcf.requests {
            let pc = *r.pc.last().expect("windows are non-empty");
            std::hint::black_box(tables.predict_quiet(&r.page, pc, DEGREE));
        }
    });
    out.push(Metric::new(
        "distill.lookup_us",
        "us",
        total_us / mcf.requests.len().max(1) as f64,
    ));

    // Each shard's service, one request per forward pass.
    for shard in &fleet.shards {
        let config = ServiceConfig::new(DEGREE).mode(shard.spec.mode);
        let config = match shard.spec.mode {
            PredictMode::Table => config.tables(tables.clone()),
            _ => config,
        };
        let mut svc = config
            .build(published_model(fleet, shard))
            .expect("shard service config is valid");
        let n = shard.requests.len();
        let us = timed_us(tracer, "serve.model.forward_batch", reps * 4, |i| {
            std::hint::black_box(svc.forward_batch(std::slice::from_ref(&shard.requests[i % n])));
        });
        out.push(Metric::new(
            format!("serve.model.{}_us", shard.spec.name),
            "us",
            us,
        ));
    }

    // The vocabulary and label passes `OnlineRun::execute` starts with,
    // over both online streams.
    let mcf_llc = llc_stream(&setup.mcf_raw, &SimConfig::scaled());
    let streams = [&mcf_llc, &setup.search];
    let mut vocab_s = 0.0;
    let mut labels_s = 0.0;
    for stream in streams {
        vocab_s += timed_us(tracer, "trace.vocab", 1, |_| {
            std::hint::black_box(Vocabulary::build(stream, &cfg.vocab));
        }) / 1e6;
        labels_s += timed_us(tracer, "trace.labels", 1, |_| {
            std::hint::black_box(compute_labels(stream));
        }) / 1e6;
    }
    out.push(Metric::new("trace.vocab_s", "s", vocab_s));
    out.push(Metric::new("trace.labels_s", "s", labels_s));
    out
}
