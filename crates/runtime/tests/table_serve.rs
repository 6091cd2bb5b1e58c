//! Regression tests for `PredictMode::Table` serving: the distilled
//! tables must be a transparent accelerator, not a behaviour change.
//! A context the tables do not cover falls back to the int8 fast path
//! and must return that path's *exact* predictions — the fallback
//! sub-batch goes through the same blocked GEMM kernels, which are
//! bitwise-identical per row for any batch size.

use voyager::{SeqBatch, VoyagerConfig, VoyagerModel};
use voyager_distill::{distill, TableConfig};
use voyager_runtime::{
    BatchModel, InferenceRequest, PredictMode, ServiceConfig, ServiceConfigError, VoyagerService,
};

const DEGREE: usize = 2;

/// Serializes the tests that serve table misses: the fallback-row
/// counter is process-wide, so a concurrent test's misses would leak
/// into another's before/after delta.
fn fallback_counter_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The canonical trained 4-pattern model from the fast-path tests:
/// deterministic, converges in 150 steps.
fn trained_model() -> (VoyagerModel, SeqBatch) {
    let cfg = VoyagerConfig::test();
    let mut m = VoyagerModel::new(&cfg, 16, 32, 64);
    let pcs = [1usize, 2, 3, 4];
    let pages = [3usize, 5, 7, 1];
    let offsets = [10usize, 20, 30, 40];
    let tgt_pages = [6usize, 7, 2, 4];
    let tgt_offsets = [30usize, 40, 50, 60];
    for it in 0..150 {
        let p = it % 4;
        let batch = SeqBatch {
            pc: vec![vec![pcs[p]; cfg.seq_len]],
            page: vec![vec![pages[p]; cfg.seq_len]],
            offset: vec![vec![offsets[p]; cfg.seq_len]],
        };
        m.train_single(&batch, &[tgt_pages[p]], &[tgt_offsets[p]]);
    }
    let mut corpus = SeqBatch::default();
    for i in 0..32 {
        let p = i % 4;
        corpus.pc.push(vec![pcs[p]; cfg.seq_len]);
        corpus.page.push(vec![pages[p]; cfg.seq_len]);
        corpus.offset.push(vec![offsets[p]; cfg.seq_len]);
    }
    (m, corpus)
}

fn to_requests(batch: &SeqBatch) -> Vec<InferenceRequest> {
    (0..batch.len())
        .map(|i| InferenceRequest {
            workload: Default::default(),
            pc: batch.pc[i].clone(),
            page: batch.page[i].clone(),
            offset: batch.offset[i].clone(),
        })
        .collect()
}

/// Serves `requests` as one batch; every one of them is well-formed.
fn serve(svc: &mut VoyagerService, requests: &[InferenceRequest]) -> Vec<Vec<(u32, u32, f32)>> {
    svc.forward_batch(requests)
        .into_iter()
        .map(|answer| answer.expect("well-formed request"))
        .collect()
}

#[test]
fn table_miss_falls_back_to_exact_int8_predictions() {
    let _guard = fallback_counter_lock();
    let (mut model, corpus) = trained_model();
    let seq = corpus.pc[0].len();
    // Probe contexts absent from the distillation corpus: page
    // histories the tables have never seen.
    let probe = SeqBatch {
        pc: vec![vec![9; seq], vec![11; seq]],
        page: vec![vec![21; seq], vec![25; seq]],
        offset: vec![vec![7; seq], vec![9; seq]],
    };
    model.prepare_int8();
    let expected = model.predict_int8(&probe, DEGREE);

    let (tables, report) = distill(&mut model, &corpus, &TableConfig::for_budget(64 * 1024));
    assert_eq!(report.hit_rate, Some(1.0), "corpus itself must be covered");
    // The probe contexts really are table misses.
    for i in 0..probe.len() {
        assert!(tables
            .predict_quiet(&probe.page[i], probe.pc[i][seq - 1], DEGREE)
            .is_none());
    }

    let fallbacks_before = voyager_distill::table_fallback_rows();
    let mut svc = ServiceConfig::new(DEGREE)
        .mode(PredictMode::Table)
        .tables(tables)
        .build(model)
        .expect("table mode with tables attached");
    assert_eq!(svc.mode(), PredictMode::Table);
    let got = serve(&mut svc, &to_requests(&probe));
    assert_eq!(
        got, expected,
        "fallback rows must return the int8 path's exact predictions"
    );
    assert_eq!(
        voyager_distill::table_fallback_rows() - fallbacks_before,
        probe.len() as u64
    );
}

#[test]
fn table_hits_agree_with_the_teacher_and_mix_with_fallbacks() {
    let _guard = fallback_counter_lock();
    let (mut model, corpus) = trained_model();
    let seq = corpus.pc[0].len();
    let teacher_on_corpus = model.predict_fast(&corpus, 1);
    model.prepare_int8();
    let miss_probe = SeqBatch {
        pc: vec![vec![13; seq]],
        page: vec![vec![29; seq]],
        offset: vec![vec![3; seq]],
    };
    let expected_miss = model.predict_int8(&miss_probe, DEGREE);

    let (tables, _) = distill(&mut model, &corpus, &TableConfig::for_budget(64 * 1024));
    let mut svc = ServiceConfig::new(DEGREE)
        .mode(PredictMode::Table)
        .tables(tables)
        .build(model)
        .expect("table mode with tables attached");
    assert!(svc.tables().is_some());

    // A mixed batch: covered corpus rows + one unseen row, in one
    // forward_batch call. Hits serve from the tables, the miss gets
    // the int8 answer, all in request order.
    let mut mixed = to_requests(&corpus);
    mixed.truncate(4);
    mixed.extend(to_requests(&miss_probe));
    let got = serve(&mut svc, &mixed);
    assert_eq!(got.len(), 5);
    for (row, resp) in got.iter().take(4).enumerate() {
        assert!(!resp.is_empty());
        assert_eq!(
            (resp[0].0, resp[0].1),
            (teacher_on_corpus[row][0].0, teacher_on_corpus[row][0].1),
            "table hit's top-1 must agree with the f32 teacher"
        );
    }
    assert_eq!(got[4], expected_miss[0]);
}

#[test]
fn table_mode_without_tables_is_a_typed_build_error() {
    // Regression: this combination used to build a service that
    // silently fell back to int8 on every row — a misconfiguration
    // that looked healthy. The builder now rejects it outright.
    let (model, _) = trained_model();
    let err = ServiceConfig::new(DEGREE)
        .mode(PredictMode::Table)
        .build(model)
        .unwrap_err();
    assert_eq!(err, ServiceConfigError::TablesRequired);
}

#[test]
fn tables_on_a_non_table_mode_are_a_typed_build_error() {
    let (mut model, corpus) = trained_model();
    let (tables, _) = distill(&mut model, &corpus, &TableConfig::for_budget(64 * 1024));
    let err = ServiceConfig::new(DEGREE)
        .mode(PredictMode::FastInt8)
        .tables(tables)
        .build(model)
        .unwrap_err();
    assert_eq!(
        err,
        ServiceConfigError::TablesIgnored(PredictMode::FastInt8)
    );
}
