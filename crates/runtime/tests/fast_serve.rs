//! Steady-state serving behaviour of the tape-free fast path.
//!
//! The fast path's claim is not just "faster" but "allocation-free once
//! warm": the per-model arena grows on the first call (and again only
//! if the batch size grows) and every later call reuses those buffers.
//! This test drives a real [`MicrobatchServer`] and pins that claim via
//! the process-global arena-growth counters in
//! [`voyager_tensor::infer`].
//!
//! Everything lives in one `#[test]` because the growth counters are
//! process-global: a second test running concurrently in this binary
//! would perturb the steady-state window.

use std::time::Duration;

use voyager::{SeqBatch, VoyagerConfig, VoyagerModel};
use voyager_runtime::{
    InferenceRequest, MicrobatchConfig, MicrobatchServer, PredictMode, ServiceConfig,
};
use voyager_tensor::infer;

/// Per-request prefetch candidates, as returned by the service.
type Candidates = Vec<(u32, u32, f32)>;

const PAGE_VOCAB: usize = 256;

fn request(t: usize) -> InferenceRequest {
    let seq_len = VoyagerConfig::test().seq_len;
    InferenceRequest {
        workload: Default::default(),
        pc: (0..seq_len).map(|j| (t + j) % 64).collect(),
        page: (0..seq_len).map(|j| (t * 3 + j) % PAGE_VOCAB).collect(),
        offset: (0..seq_len).map(|j| (t * 5 + j) % 64).collect(),
    }
}

fn model() -> VoyagerModel {
    VoyagerModel::new(&VoyagerConfig::test(), 64, PAGE_VOCAB, 64)
}

/// Serves `n` requests through a fresh single-request-per-batch server
/// in `mode` and returns (responses, grow-event delta after warmup).
fn serve_steady(mode: PredictMode, n: usize) -> (Vec<Candidates>, u64) {
    let service = ServiceConfig::new(2)
        .mode(mode)
        .build(model())
        .expect("modes without tables");
    assert_eq!(service.mode(), mode);
    // max_batch = 1 flushes every request immediately, so each forward
    // pass sees exactly one request and the arena warms up on the very
    // first infer below.
    let mb = MicrobatchConfig {
        max_batch: 1,
        max_delay: Duration::from_millis(1),
    };
    let (server, client) = MicrobatchServer::spawn(service, mb);
    let warmup = client.infer(request(0)).expect("warmup response");
    let grown_before = infer::arena_grow_events();
    let mut responses = vec![warmup];
    for t in 1..n {
        responses.push(client.infer(request(t)).expect("response"));
    }
    let grown_after = infer::arena_grow_events();
    drop(client);
    let stats = server.join();
    assert_eq!(stats.requests, n);
    assert_eq!(stats.batches, n, "max_batch=1 must flush per request");
    (responses, grown_after - grown_before)
}

#[test]
fn fast_serving_is_allocation_free_after_warmup_and_matches_tape() {
    let n = 51;

    // The reference: direct tape `predict` calls, one row each, on an
    // identically seeded model. The tape never touches the arena.
    let mut reference = model();
    let tape: Vec<Candidates> = (0..n)
        .map(|t| {
            let r = request(t);
            let row = SeqBatch {
                pc: vec![r.pc],
                page: vec![r.page],
                offset: vec![r.offset],
            };
            reference.predict(&row, 2).remove(0)
        })
        .collect();

    // f32 fast path: zero arena growth after the first (warmup) call,
    // and bitwise-identical responses to the tape path.
    let fast_calls_before = infer::fast_path_calls();
    let (fast, fast_growth) = serve_steady(PredictMode::FastF32, n);
    assert_eq!(
        fast_growth, 0,
        "arena must not grow after the warmup request"
    );
    assert_eq!(
        infer::fast_path_calls() - fast_calls_before,
        n as u64,
        "every fast-mode batch goes through the fast path"
    );
    assert_eq!(fast, tape, "fast-f32 serving must match tape predict");

    // int8 fast path: also steady-state allocation-free, and its top-1
    // page/offset picks agree with f32 on an (untrained but
    // deterministic) model for these windows.
    let (int8, int8_growth) = serve_steady(PredictMode::FastInt8, n);
    assert_eq!(
        int8_growth, 0,
        "int8 arena must not grow after the warmup request"
    );
    assert_eq!(int8.len(), n);
    for (f, q) in fast.iter().zip(&int8) {
        assert_eq!(f.len(), q.len(), "same prefetch degree per response");
    }
}
