//! [`BatchModel`] adapter for serving a trained Voyager model.

use voyager::{InvalidWindow, SeqBatch, VoyagerModel};
use voyager_distill::{note_table_fallback_rows, DistilledTables};

use crate::microbatch::BatchModel;

/// Identifies the per-workload shard a request should be served by.
///
/// The paper trains Voyager per application (Section 5.1); a fleet
/// deployment therefore runs one model *shard* per workload and routes
/// on this id (see [`crate::fleet`]). A newtype rather than a bare
/// `u32` so a workload id can never be confused with a token id or a
/// request count at a call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WorkloadId(pub u32);

impl std::fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Per-request prediction candidates: up to `degree` `(page_token,
/// offset_token, score)` triples.
pub type Candidates = Vec<(u32, u32, f32)>;

/// One inference request: a tokenized history window (all three token
/// streams, each `seq_len` long — the same shape as one row of a
/// [`SeqBatch`]) plus a routing envelope. The model decides what it
/// can run ([`VoyagerModel::check_window`]); a window it cannot is
/// answered with that [`InvalidWindow`].
///
/// The same request type flows through both serving paths: a
/// standalone [`VoyagerService`] ignores `workload`, while the fleet
/// ([`crate::fleet::FleetClient`]) routes on it.
#[derive(Debug, Clone, Default)]
pub struct InferenceRequest {
    /// Which shard should serve this request (ignored by a standalone
    /// service).
    pub workload: WorkloadId,
    /// PC token ids of the window.
    pub pc: Vec<usize>,
    /// Page token ids of the window.
    pub page: Vec<usize>,
    /// Offset token ids of the window.
    pub offset: Vec<usize>,
}

/// Which forward implementation [`VoyagerService`] dispatches each
/// batch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredictMode {
    /// Tape-free f32 fast path ([`VoyagerModel::predict_fast`]):
    /// bitwise-identical to the tape `predict`, arena-backed
    /// zero-allocation steady state.
    #[default]
    FastF32,
    /// Tape-free int8 fast path ([`VoyagerModel::predict_int8`]):
    /// quantized LSTM/head GEMMs, approximate probabilities.
    FastInt8,
    /// Distilled-table lookup
    /// ([`DistilledTables::predict`](voyager_distill::DistilledTables::predict)):
    /// no neural forward at all for contexts the tables cover; rows
    /// that miss fall back to the int8 fast path. Requires tables
    /// ([`ServiceConfig::tables`]); the builder rejects this mode
    /// without them ([`ServiceConfigError::TablesRequired`]).
    Table,
}

/// Why a [`ServiceConfig`] could not be turned into a
/// [`VoyagerService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceConfigError {
    /// [`PredictMode::Table`] was requested without attaching tables.
    /// (Previously this built a service that silently fell back to
    /// int8 on every row — a misconfiguration that looked healthy.)
    TablesRequired,
    /// Tables were attached but the mode is not [`PredictMode::Table`],
    /// so they could never be consulted.
    TablesIgnored(PredictMode),
}

impl std::fmt::Display for ServiceConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceConfigError::TablesRequired => write!(
                f,
                "PredictMode::Table requires distilled tables (ServiceConfig::tables); \
                 without them every row would silently fall back to int8"
            ),
            ServiceConfigError::TablesIgnored(mode) => write!(
                f,
                "distilled tables were attached but mode {mode:?} never consults them"
            ),
        }
    }
}

impl std::error::Error for ServiceConfigError {}

/// Builder for [`VoyagerService`]: one configuration path for both
/// standalone serving and fleet shards.
///
/// Replaces the former `new` / `with_mode` / `with_tables` constructor
/// sprawl. Defaults: degree as given (clamped to ≥ 1), mode
/// [`PredictMode::FastF32`], no tables.
///
/// ```no_run
/// use voyager_runtime::serve::{PredictMode, ServiceConfig};
/// # fn demo(model: voyager::VoyagerModel) {
/// let svc = ServiceConfig::new(2)
///     .mode(PredictMode::FastInt8)
///     .build(model)
///     .expect("int8 needs no tables");
/// # let _ = svc;
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    degree: usize,
    mode: PredictMode,
    tables: Option<DistilledTables>,
}

impl ServiceConfig {
    /// Starts a configuration serving `degree` candidates per request
    /// (clamped to at least 1) through the default
    /// [`PredictMode::FastF32`] path.
    pub fn new(degree: usize) -> Self {
        ServiceConfig {
            degree: degree.max(1),
            mode: PredictMode::default(),
            tables: None,
        }
    }

    /// Selects the forward implementation.
    pub fn mode(mut self, mode: PredictMode) -> Self {
        self.mode = mode;
        self
    }

    /// Attaches distilled tables for [`PredictMode::Table`] serving.
    pub fn tables(mut self, tables: DistilledTables) -> Self {
        self.tables = Some(tables);
        self
    }

    /// Builds the service around `model`. The int8 modes
    /// ([`PredictMode::FastInt8`] and the [`PredictMode::Table`]
    /// fallback) quantize the weights here, so no request pays that
    /// one-time cost.
    ///
    /// # Errors
    ///
    /// [`ServiceConfigError::TablesRequired`] for
    /// [`PredictMode::Table`] without tables, and
    /// [`ServiceConfigError::TablesIgnored`] for tables attached to a
    /// mode that never reads them.
    pub fn build(self, mut model: VoyagerModel) -> Result<VoyagerService, ServiceConfigError> {
        match (self.mode, &self.tables) {
            (PredictMode::Table, None) => return Err(ServiceConfigError::TablesRequired),
            (PredictMode::Table, Some(_)) => {}
            (mode, Some(_)) => return Err(ServiceConfigError::TablesIgnored(mode)),
            (_, None) => {}
        }
        if matches!(self.mode, PredictMode::FastInt8 | PredictMode::Table) {
            model.prepare_int8();
        }
        Ok(VoyagerService {
            model,
            degree: self.degree,
            mode: self.mode,
            batch: SeqBatch::default(),
            tables: self.tables,
            model_rows: Vec::new(),
        })
    }
}

/// Wraps a trained [`VoyagerModel`] as a [`BatchModel`]: coalesced
/// requests become one [`SeqBatch`] and one batched predict call,
/// dispatched per [`PredictMode`]. A request the model cannot run is
/// answered with its [`InvalidWindow`]; the rest of its batch is
/// served as if it had not been there.
#[derive(Debug)]
pub struct VoyagerService {
    model: VoyagerModel,
    degree: usize,
    mode: PredictMode,
    /// The rows a batch sends through the neural path, reused across
    /// batches so steady-state serving does not reallocate the staging
    /// area (rows shrink/grow in place).
    batch: SeqBatch,
    /// Distilled tables for [`PredictMode::Table`]; `None` in the
    /// neural modes (the builder guarantees table mode always has
    /// them).
    tables: Option<DistilledTables>,
    /// Request positions of `batch`'s rows.
    model_rows: Vec<usize>,
}

impl VoyagerService {
    /// The dispatch mode this service was built with.
    pub fn mode(&self) -> PredictMode {
        self.mode
    }

    /// The distilled tables attached via [`ServiceConfig::tables`].
    pub fn tables(&self) -> Option<&DistilledTables> {
        self.tables.as_ref()
    }

    /// Arena growth telemetry of the wrapped model's fast path:
    /// `(grow_events, grown_bytes)`. Both stay flat once serving
    /// reaches steady state.
    pub fn arena_stats(&self) -> (u64, u64) {
        self.model.fast_path_arena_stats()
    }

    /// Answers a batch in request order, tier by tier. A request whose
    /// window the model cannot run gets its [`InvalidWindow`]. In table
    /// mode, a row the tables cover gets their answer. Every other row
    /// is staged into one sub-batch for the neural path: `predict_fast`
    /// in [`PredictMode::FastF32`], `predict_int8` in
    /// [`PredictMode::FastInt8`] and as the table mode's fallback. The
    /// kernels are bitwise-identical per row for any batch size, so a
    /// row's answer does not depend on the rows that share its
    /// sub-batch.
    fn answer_batch(
        &mut self,
        requests: &[InferenceRequest],
    ) -> Vec<Result<Candidates, InvalidWindow>> {
        let mut out = Vec::with_capacity(requests.len());
        self.model_rows.clear();
        for (i, r) in requests.iter().enumerate() {
            let reply = self
                .model
                .check_window(&r.pc, &r.page, &r.offset)
                .map(|()| {
                    // A path call: the analyzer resolves `t.predict(..)` by
                    // name, which would link the model-side `predict`s too.
                    let hit = self.tables.as_ref().and_then(|t| {
                        DistilledTables::predict(t, &r.page, *r.pc.last()?, self.degree)
                    });
                    hit.unwrap_or_else(|| {
                        self.model_rows.push(i);
                        Vec::new()
                    })
                });
            out.push(reply);
        }
        let m = self.model_rows.len();
        if m == 0 {
            return out;
        }
        if self.mode == PredictMode::Table {
            note_table_fallback_rows(m as u64);
        }
        self.batch.pc.truncate(m);
        self.batch.page.truncate(m);
        self.batch.offset.truncate(m);
        self.batch.pc.resize_with(m, Vec::new);
        self.batch.page.resize_with(m, Vec::new);
        self.batch.offset.resize_with(m, Vec::new);
        for (j, &i) in self.model_rows.iter().enumerate() {
            let r = &requests[i];
            self.batch.pc[j].clear();
            self.batch.pc[j].extend_from_slice(&r.pc);
            self.batch.page[j].clear();
            self.batch.page[j].extend_from_slice(&r.page);
            self.batch.offset[j].clear();
            self.batch.offset[j].extend_from_slice(&r.offset);
        }
        let answers = match self.mode {
            PredictMode::FastF32 => self.model.predict_fast(&self.batch, self.degree),
            PredictMode::FastInt8 | PredictMode::Table => {
                self.model.predict_int8(&self.batch, self.degree)
            }
        };
        for (&i, answer) in self.model_rows.iter().zip(answers) {
            out[i] = Ok(answer);
        }
        out
    }
}

impl BatchModel for VoyagerService {
    type Request = InferenceRequest;
    /// Up to `degree` candidates, or why the request's window cannot
    /// be served.
    type Response = Result<Candidates, InvalidWindow>;

    fn forward_batch(&mut self, requests: &[InferenceRequest]) -> Vec<Self::Response> {
        self.answer_batch(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voyager::{TokenStream, VoyagerConfig};

    #[test]
    fn a_malformed_request_leaves_the_rest_of_its_batch_as_served_alone() {
        let cfg = VoyagerConfig::test();
        let window = |t: usize| InferenceRequest {
            workload: WorkloadId(0),
            pc: vec![t % 16; cfg.seq_len],
            page: vec![(3 * t) % 32; cfg.seq_len],
            offset: vec![(5 * t) % 64; cfg.seq_len],
        };
        let mut bad = window(2);
        bad.page[0] = 32;
        let rejected = InvalidWindow::Token {
            stream: TokenStream::Page,
            token: 32,
            vocab: 32,
        };
        for mode in [PredictMode::FastF32, PredictMode::FastInt8] {
            let mut svc = ServiceConfig::new(2)
                .mode(mode)
                .build(VoyagerModel::new(&cfg, 16, 32, 64))
                .expect("neural modes need no tables");
            let mut alone = |t| svc.forward_batch(&[window(t)]).remove(0);
            let (first, second) = (alone(0), alone(1));
            let mixed = svc.forward_batch(&[window(0), bad.clone(), window(1)]);
            assert_eq!(mixed, [first, Err(rejected), second], "{mode:?}");
        }
    }

    /// A seeded fuzz loop over requests: each stream's window is empty,
    /// one short, one long or exact, and some tokens sit at or past
    /// their embedding's size. The requests are served in random batch
    /// sizes in every mode, table mode on tables distilled from half of
    /// the valid windows. Every reply is the request's
    /// `check_window` verdict, and a valid request gets the candidates
    /// it gets when served alone.
    #[test]
    fn fuzzed_requests_get_their_check_verdict_or_their_answer_alone() {
        use voyager_distill::{distill, TableConfig};
        use voyager_tensor::rng::{Rng, SeedableRng, StdRng};

        let cfg = VoyagerConfig::test();
        let seq = cfg.seq_len;
        let (pcs, pages, offsets) = (16, 32, 64);
        let model = || VoyagerModel::new(&cfg, pcs, pages, offsets);
        let mut rng = StdRng::seed_from_u64(0xF022_5EED);
        let mut window = |vocab: usize| -> Vec<usize> {
            let len = match rng.gen_range(0..10u32) {
                0 => 0,
                1 => seq - 1,
                2 => seq + 1,
                _ => seq,
            };
            (0..len)
                .map(|_| match rng.gen_range(0..16u32) {
                    0 => vocab + rng.gen_range(0..2usize),
                    _ => rng.gen_range(0..vocab),
                })
                .collect()
        };
        let requests: Vec<InferenceRequest> = (0..600)
            .map(|_| InferenceRequest {
                workload: WorkloadId(0),
                pc: window(pcs),
                page: window(pages),
                offset: window(offsets),
            })
            .collect();
        let reference = model();
        let verdicts: Vec<_> = requests
            .iter()
            .map(|r| reference.check_window(&r.pc, &r.page, &r.offset))
            .collect();
        let valid: Vec<&InferenceRequest> = requests
            .iter()
            .zip(&verdicts)
            .filter_map(|(r, v)| v.is_ok().then_some(r))
            .collect();
        assert!(
            (50..200).contains(&valid.len()),
            "{} valid requests",
            valid.len()
        );

        let mut corpus = SeqBatch::default();
        for r in valid.iter().step_by(2) {
            corpus.pc.push(r.pc.clone());
            corpus.page.push(r.page.clone());
            corpus.offset.push(r.offset.clone());
        }
        let mut teacher = model();
        let (tables, _) = distill(&mut teacher, &corpus, &TableConfig::for_budget(64 * 1024));
        let hits = valid
            .iter()
            .filter(|r| tables.predict_quiet(&r.page, r.pc[seq - 1], 2).is_some())
            .count();
        assert!(0 < hits && hits < valid.len(), "{hits} table hits");

        let services = [
            ServiceConfig::new(2).build(model()),
            ServiceConfig::new(2)
                .mode(PredictMode::FastInt8)
                .build(model()),
            ServiceConfig::new(2)
                .mode(PredictMode::Table)
                .tables(tables)
                .build(teacher),
        ];
        for svc in services {
            let mut svc = svc.expect("every mode gets what it needs");
            let mode = svc.mode();
            let mut start = 0;
            while start < requests.len() {
                let end = (start + rng.gen_range(1..10usize)).min(requests.len());
                let replies = svc.forward_batch(&requests[start..end]);
                assert_eq!(replies.len(), end - start, "{mode:?}");
                for (i, reply) in (start..end).zip(replies) {
                    let ctx = format!("{mode:?} request {i}: {:?}", requests[i]);
                    match &verdicts[i] {
                        Err(invalid) => assert_eq!(reply, Err(*invalid), "{ctx}"),
                        Ok(()) => {
                            let alone = svc.forward_batch(&requests[i..=i]).remove(0);
                            assert!(alone.is_ok(), "{ctx}");
                            assert_eq!(reply, alone, "{ctx}");
                        }
                    }
                }
                start = end;
            }
        }
    }
}
