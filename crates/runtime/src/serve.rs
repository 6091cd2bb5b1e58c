//! [`BatchModel`] adapter for serving a trained Voyager model.

use voyager::{SeqBatch, VoyagerModel};
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

/// One inference request: a tokenized history window (all three token
/// streams, each `seq_len` long — the same shape as one row of a
/// [`SeqBatch`]) plus a routing envelope.
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
            fallback_batch: SeqBatch::default(),
            fallback_rows: Vec::new(),
        })
    }
}

/// Wraps a trained [`VoyagerModel`] as a [`BatchModel`]: coalesced
/// requests become one [`SeqBatch`] and one batched predict call,
/// dispatched per [`PredictMode`].
#[derive(Debug)]
pub struct VoyagerService {
    model: VoyagerModel,
    degree: usize,
    mode: PredictMode,
    /// Reused across batches so steady-state serving does not
    /// reallocate the request staging area (rows shrink/grow in place).
    batch: SeqBatch,
    /// Distilled tables for [`PredictMode::Table`]; `None` in the
    /// neural modes (the builder guarantees table mode always has
    /// them).
    tables: Option<DistilledTables>,
    /// Staging for the rows of a table-mode batch that missed the
    /// tables, reused like `batch`.
    fallback_batch: SeqBatch,
    /// Original batch positions of `fallback_batch`'s rows.
    fallback_rows: Vec<usize>,
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

    /// Table-mode dispatch: serve each row from the tables where
    /// possible, then run the missing rows (if any) through the int8
    /// fast path as one sub-batch and merge in request order. The
    /// blocked GEMM kernels are bitwise-identical per row for any
    /// batch size, so a fallback row's answer equals what a full-batch
    /// int8 call would have produced for it.
    fn forward_table(&mut self) -> Vec<Vec<(u32, u32, f32)>> {
        let n = self.batch.len();
        let mut out: Vec<Vec<(u32, u32, f32)>> = vec![Vec::new(); n];
        self.fallback_rows.clear();
        for (i, row) in out.iter_mut().enumerate().take(n) {
            let hit = self.tables.as_ref().and_then(|t| {
                let pc = self.batch.pc[i].last().copied()?;
                t.predict(&self.batch.page[i], pc, self.degree)
            });
            match hit {
                Some(preds) => *row = preds,
                None => self.fallback_rows.push(i),
            }
        }
        if self.fallback_rows.is_empty() {
            return out;
        }
        note_table_fallback_rows(self.fallback_rows.len() as u64);
        let m = self.fallback_rows.len();
        self.fallback_batch.pc.truncate(m);
        self.fallback_batch.page.truncate(m);
        self.fallback_batch.offset.truncate(m);
        self.fallback_batch.pc.resize_with(m, Vec::new);
        self.fallback_batch.page.resize_with(m, Vec::new);
        self.fallback_batch.offset.resize_with(m, Vec::new);
        for (j, &i) in self.fallback_rows.iter().enumerate() {
            self.fallback_batch.pc[j].clear();
            self.fallback_batch.pc[j].extend_from_slice(&self.batch.pc[i]);
            self.fallback_batch.page[j].clear();
            self.fallback_batch.page[j].extend_from_slice(&self.batch.page[i]);
            self.fallback_batch.offset[j].clear();
            self.fallback_batch.offset[j].extend_from_slice(&self.batch.offset[i]);
        }
        let fallback = self.model.predict_int8(&self.fallback_batch, self.degree);
        for (&i, preds) in self.fallback_rows.iter().zip(fallback) {
            out[i] = preds;
        }
        out
    }
}

impl BatchModel for VoyagerService {
    type Request = InferenceRequest;
    /// Up to `degree` `(page_token, offset_token, score)` candidates.
    type Response = Vec<(u32, u32, f32)>;

    fn forward_batch(&mut self, requests: &[InferenceRequest]) -> Vec<Self::Response> {
        let n = requests.len();
        self.batch.pc.truncate(n);
        self.batch.page.truncate(n);
        self.batch.offset.truncate(n);
        self.batch.pc.resize_with(n, Vec::new);
        self.batch.page.resize_with(n, Vec::new);
        self.batch.offset.resize_with(n, Vec::new);
        for (i, r) in requests.iter().enumerate() {
            self.batch.pc[i].clear();
            self.batch.pc[i].extend_from_slice(&r.pc);
            self.batch.page[i].clear();
            self.batch.page[i].extend_from_slice(&r.page);
            self.batch.offset[i].clear();
            self.batch.offset[i].extend_from_slice(&r.offset);
        }
        match self.mode {
            PredictMode::FastF32 => self.model.predict_fast(&self.batch, self.degree),
            PredictMode::FastInt8 => self.model.predict_int8(&self.batch, self.degree),
            PredictMode::Table => self.forward_table(),
        }
    }
}
