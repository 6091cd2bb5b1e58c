//! Sharded multi-tenant fleet serving with SLO-aware admission control.
//!
//! The paper trains Voyager per application (Section 5.1); serving a
//! machine therefore means serving a *fleet*: one process holding N
//! per-workload shards, each a [`VoyagerService`] on its own
//! microbatch thread in its own [`PredictMode`], routed by the
//! [`WorkloadId`] carried on every [`InferenceRequest`].
//!
//! Three layers per shard, front to back:
//!
//! 1. **Routing** — [`FleetClient::infer`] resolves the request's
//!    workload to a shard lane (`route`, a linear scan over a
//!    fixed-at-spawn id table: allocation-free and branch-cheap at
//!    fleet sizes; it is one of the analyzer's hot-path roots).
//! 2. **Admission control** — before enqueueing, the lane predicts the
//!    newcomer's completion time as `(in_flight + 1) ×
//!    ewma_service_ns`. The microbatch queue is FIFO, so the newcomer
//!    always has the *largest* predicted completion time of any
//!    admitted request — shedding it first is exactly
//!    "reject-fastest-to-miss-deadline first", and requests already
//!    admitted keep their latency budget. Requests that pass the SLO
//!    check still face the bounded queue
//!    ([`ClientHandle::try_infer`]); a full queue sheds too.
//! 3. **Serving** — the shard's `ShardModel` checks its registry
//!    watch cell between batches and hot-swaps to the newest published
//!    version ([`crate::registry`]): in-flight batches finish on the
//!    old version, the next batch picks up the new one, and a request
//!    is never dropped by a swap.
//!
//! Shedding and latency are observable through `voyager-obs`:
//! aggregate `fleet.admitted` / `fleet.shed.*` counters plus per-shard
//! `fleet.shard.<name>.{latency_ns,admitted,shed.*,in_flight,
//! table_absent,swaps,swap_failures,version}`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use voyager::InvalidWindow;
use voyager_obs::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};

use crate::microbatch::{
    BatchModel, ClientHandle, MicrobatchConfig, MicrobatchServer, ServerStats, SubmitError,
};
use crate::registry::{ModelRegistry, RegistryError, ShardArtifact};
use crate::serve::{
    InferenceRequest, PredictMode, ServiceConfig, ServiceConfigError, VoyagerService, WorkloadId,
};

pub use crate::serve::Candidates;

/// Static description of one fleet shard.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The workload this shard serves; must be unique within a fleet.
    pub workload: WorkloadId,
    /// Human-readable name used in metric keys
    /// (`fleet.shard.<name>.*`).
    pub name: String,
    /// Prefetch degree (candidates per request).
    pub degree: usize,
    /// Desired forward path. [`PredictMode::Table`] degrades to
    /// [`PredictMode::FastInt8`] — flagged on the shard's
    /// `table_absent` gauge — when the published artifact carries no
    /// tables.
    pub mode: PredictMode,
}

impl ShardSpec {
    /// A shard named `w<id>` serving `workload` at `degree` through
    /// `mode`.
    pub fn new(workload: WorkloadId, degree: usize, mode: PredictMode) -> Self {
        ShardSpec {
            workload,
            name: workload.to_string(),
            degree,
            mode,
        }
    }
}

/// Fleet-wide serving knobs, applied to every shard.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Microbatch coalescing thresholds for each shard's server.
    pub microbatch: MicrobatchConfig,
    /// Bound on each shard's not-yet-dequeued request count; a
    /// submission beyond it is shed with [`ShedReason::QueueFull`].
    pub max_queue_depth: usize,
    /// Per-request latency objective. A request whose predicted
    /// completion time exceeds it is shed with
    /// [`ShedReason::DeadlineRisk`] instead of being admitted.
    pub slo: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            microbatch: MicrobatchConfig::default(),
            max_queue_depth: 1024,
            slo: Duration::from_millis(250),
        }
    }
}

/// Why a request was shed instead of served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The shard's queue already held `max_queue_depth` requests.
    QueueFull,
    /// The newcomer's predicted completion time exceeded the SLO.
    DeadlineRisk,
}

/// Errors surfaced by fleet spawn and serving.
#[derive(Debug)]
pub enum FleetError {
    /// The request's workload has no shard in this fleet.
    UnknownWorkload(WorkloadId),
    /// Admission control rejected the request; retry later or route
    /// to a non-ML fallback (the paper's baseline prefetcher).
    Shed(ShedReason),
    /// The shard's server thread stopped before responding.
    ShardStopped,
    /// The shard's model cannot run the request's window; the shard
    /// served the rest of its batch and keeps serving.
    InvalidRequest(InvalidWindow),
    /// Two [`ShardSpec`]s named the same workload.
    DuplicateWorkload(WorkloadId),
    /// Registry lookup or artifact instantiation failed.
    Registry(RegistryError),
    /// The shard's [`ServiceConfig`] was rejected.
    Service(ServiceConfigError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::UnknownWorkload(w) => write!(f, "no shard serves workload {w}"),
            FleetError::Shed(ShedReason::QueueFull) => write!(f, "shed: shard queue full"),
            FleetError::Shed(ShedReason::DeadlineRisk) => {
                write!(f, "shed: predicted completion exceeds SLO")
            }
            FleetError::ShardStopped => write!(f, "shard server stopped"),
            FleetError::InvalidRequest(e) => write!(f, "invalid request: {e}"),
            FleetError::DuplicateWorkload(w) => {
                write!(f, "duplicate shard spec for workload {w}")
            }
            FleetError::Registry(e) => write!(f, "shard registry error: {e}"),
            FleetError::Service(e) => write!(f, "shard service config error: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Registry(e) => Some(e),
            FleetError::Service(e) => Some(e),
            FleetError::InvalidRequest(e) => Some(e),
            _ => None,
        }
    }
}

/// Saturating `Duration` → whole nanoseconds.
fn duration_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Admission gate + per-shard serving metrics, shared by the lane.
struct Gate {
    slo_ns: u64,
    max_queue_depth: usize,
    /// EWMA of per-request service time in ns, written by the shard's
    /// server thread after each batch (α = 1/8).
    ewma_service_ns: Arc<AtomicU64>,
    in_flight: Arc<Gauge>,
    latency_ns: Arc<Histogram>,
    admitted: Arc<Counter>,
    shed_queue_full: Arc<Counter>,
    shed_deadline: Arc<Counter>,
    fleet_admitted: Arc<Counter>,
    fleet_shed_queue_full: Arc<Counter>,
    fleet_shed_deadline: Arc<Counter>,
}

impl Gate {
    /// SLO check for one prospective request. FIFO queueing means the
    /// newcomer's predicted completion time — `(in_flight + 1)` spots
    /// times the smoothed per-request service time — is the largest in
    /// the shard, so rejecting it is rejecting the
    /// fastest-to-miss-deadline request.
    fn admit(&self) -> Result<(), ShedReason> {
        let in_flight = self.in_flight.get().max(0) as u64;
        let ewma = self.ewma_service_ns.load(Ordering::Relaxed);
        if ewma > 0 && (in_flight + 1).saturating_mul(ewma) > self.slo_ns {
            return Err(ShedReason::DeadlineRisk);
        }
        Ok(())
    }

    fn note_shed(&self, reason: ShedReason) {
        match reason {
            ShedReason::QueueFull => {
                self.shed_queue_full.inc();
                self.fleet_shed_queue_full.inc();
            }
            ShedReason::DeadlineRisk => {
                self.shed_deadline.inc();
                self.fleet_shed_deadline.inc();
            }
        }
    }

    fn note_served(&self, latency: Duration) {
        self.admitted.inc();
        self.fleet_admitted.inc();
        self.latency_ns.record(duration_ns(latency));
    }
}

/// One shard as seen from the client side.
struct Lane {
    client: ClientHandle<ShardModel>,
    gate: Gate,
}

/// Immutable routing table, fixed at spawn.
struct Lanes {
    ids: Vec<WorkloadId>,
    lanes: Vec<Lane>,
}

/// Cloneable handle for submitting requests to a running fleet.
/// Every shard's server stops once all clones are dropped
/// ([`FleetServer::join`] then returns).
#[derive(Clone)]
pub struct FleetClient {
    shared: Arc<Lanes>,
}

impl FleetClient {
    /// Resolves a workload to its lane. Hot: runs once per request
    /// before any queueing, so it must not allocate (enforced by the
    /// analyzer's hot-path walk; `route` is a configured root). At
    /// fleet sizes — tens of shards — a linear scan over a dense id
    /// array beats tree lookups and keeps the path trivially
    /// allocation-free.
    fn route(&self, workload: WorkloadId) -> Option<&Lane> {
        let pos = self.shared.ids.iter().position(|w| *w == workload)?;
        Some(&self.shared.lanes[pos])
    }

    /// Routes `request` by its [`WorkloadId`], applies admission
    /// control, and blocks for the response.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownWorkload`] for an unrouted workload,
    /// [`FleetError::Shed`] when admission control or the bounded
    /// queue rejects the request (nothing was enqueued),
    /// [`FleetError::InvalidRequest`] when the shard's model cannot run
    /// the request's window, and [`FleetError::ShardStopped`] if the
    /// shard's server exited.
    pub fn infer(&self, request: InferenceRequest) -> Result<Candidates, FleetError> {
        let Some(lane) = self.route(request.workload) else {
            return Err(FleetError::UnknownWorkload(request.workload));
        };
        if let Err(reason) = lane.gate.admit() {
            lane.gate.note_shed(reason);
            return Err(FleetError::Shed(reason));
        }
        lane.gate.in_flight.add(1);
        let started = Instant::now();
        let outcome = lane.client.try_infer(request, lane.gate.max_queue_depth);
        lane.gate.in_flight.add(-1);
        match outcome {
            Ok(response) => {
                lane.gate.note_served(started.elapsed());
                response.map_err(FleetError::InvalidRequest)
            }
            Err(SubmitError::QueueFull) => {
                lane.gate.note_shed(ShedReason::QueueFull);
                Err(FleetError::Shed(ShedReason::QueueFull))
            }
            Err(SubmitError::Disconnected) => Err(FleetError::ShardStopped),
        }
    }

    /// The workloads this client can route to, in shard order.
    pub fn workloads(&self) -> &[WorkloadId] {
        &self.shared.ids
    }
}

/// The [`BatchModel`] behind one shard: a [`VoyagerService`] plus the
/// watch-based hot-swap protocol. Runs on the shard's server thread.
struct ShardModel {
    workload: WorkloadId,
    degree: usize,
    desired_mode: PredictMode,
    registry: Arc<ModelRegistry>,
    /// Latest published version, shared with the registry.
    watch: Arc<AtomicU64>,
    /// Version currently being served.
    version: u64,
    service: VoyagerService,
    ewma_service_ns: Arc<AtomicU64>,
    swaps: Arc<Counter>,
    swap_failures: Arc<Counter>,
    table_absent: Arc<Gauge>,
    version_gauge: Arc<Gauge>,
}

impl ShardModel {
    /// Rebuilds the service from the newest published artifact. Called
    /// between batches only — never mid-batch — so a swap can never
    /// split a batch across versions. On failure the shard keeps
    /// serving its current version and counts a `swap_failure`.
    fn adopt_published(&mut self) {
        let (version, artifact) = match self.registry.resolve_latest(self.workload) {
            Ok(found) => found,
            Err(_) => {
                self.swap_failures.inc();
                return;
            }
        };
        if version.0 == self.version {
            return;
        }
        match build_service(
            &artifact,
            self.degree,
            self.desired_mode,
            &self.table_absent,
        ) {
            Ok(service) => {
                self.service = service;
                self.version = version.0;
                self.swaps.inc();
                self.version_gauge.set(version.0 as i64);
            }
            Err(_) => self.swap_failures.inc(),
        }
    }
}

impl BatchModel for ShardModel {
    type Request = InferenceRequest;
    type Response = Result<Candidates, InvalidWindow>;

    fn forward_batch(&mut self, requests: &[InferenceRequest]) -> Vec<Self::Response> {
        // Hot-swap check: one Acquire load per *batch*, nothing per
        // row. In-flight batches (this one included) finish on the
        // version they started with.
        if self.watch.load(Ordering::Acquire) != self.version {
            self.adopt_published();
        }
        let started = Instant::now();
        let responses = self.service.forward_batch(requests);
        let spent_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let per_request = spent_ns / requests.len().max(1) as u64;
        let previous = self.ewma_service_ns.load(Ordering::Relaxed);
        let smoothed = if previous == 0 {
            per_request
        } else {
            previous - previous / 8 + per_request / 8
        };
        self.ewma_service_ns.store(smoothed, Ordering::Relaxed);
        responses
    }
}

/// Builds a shard's [`VoyagerService`] from a published artifact,
/// degrading [`PredictMode::Table`] to [`PredictMode::FastInt8`] (and
/// raising the shard's `table_absent` gauge) when the artifact
/// carries no tables.
fn build_service(
    artifact: &ShardArtifact,
    degree: usize,
    mode: PredictMode,
    table_absent: &Gauge,
) -> Result<VoyagerService, FleetError> {
    let model = artifact.instantiate().map_err(FleetError::Registry)?;
    let config = match (mode, artifact.tables()) {
        (PredictMode::Table, Some(tables)) => {
            table_absent.set(0);
            ServiceConfig::new(degree)
                .mode(PredictMode::Table)
                .tables(tables.clone())
        }
        (PredictMode::Table, None) => {
            table_absent.set(1);
            ServiceConfig::new(degree).mode(PredictMode::FastInt8)
        }
        (other, _) => {
            table_absent.set(0);
            ServiceConfig::new(degree).mode(other)
        }
    };
    config.build(model).map_err(FleetError::Service)
}

/// Server-side state of one shard, kept for the shutdown report.
struct ShardRuntime {
    workload: WorkloadId,
    name: String,
    server: MicrobatchServer,
    latency_ns: Arc<Histogram>,
    admitted: Arc<Counter>,
    shed_queue_full: Arc<Counter>,
    shed_deadline: Arc<Counter>,
    swaps: Arc<Counter>,
    swap_failures: Arc<Counter>,
    table_absent: Arc<Gauge>,
    version_gauge: Arc<Gauge>,
}

/// Final per-shard serving report, part of [`FleetStats`].
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// The workload the shard served.
    pub workload: WorkloadId,
    /// The shard's metric name.
    pub name: String,
    /// Microbatch server statistics (requests, batches, latency
    /// split).
    pub server: ServerStats,
    /// Requests admitted and answered.
    pub admitted: u64,
    /// Requests shed because the queue bound was reached.
    pub shed_queue_full: u64,
    /// Requests shed by the SLO admission check.
    pub shed_deadline: u64,
    /// Client-observed end-to-end latency of admitted requests, ns.
    pub latency: HistogramSnapshot,
    /// Successful hot swaps.
    pub swaps: u64,
    /// Failed swap attempts (shard kept its previous version).
    pub swap_failures: u64,
    /// Whether the shard ended up serving degraded (table mode
    /// requested, artifact had no tables).
    pub table_absent: bool,
    /// Model version the shard was serving at shutdown.
    pub version: u64,
}

impl ShardReport {
    /// Total requests shed, both reasons.
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline
    }

    /// Shed fraction of everything offered to this shard.
    pub fn shed_rate(&self) -> f64 {
        let offered = self.admitted + self.shed();
        if offered == 0 {
            0.0
        } else {
            self.shed() as f64 / offered as f64
        }
    }
}

/// Everything a fleet reports at shutdown.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Per-shard reports, in spawn order.
    pub shards: Vec<ShardReport>,
    /// Final snapshot of the fleet's metric registry.
    pub metrics: MetricsSnapshot,
}

impl FleetStats {
    /// Requests admitted across all shards.
    pub fn admitted(&self) -> u64 {
        self.shards.iter().map(|s| s.admitted).sum()
    }

    /// Requests shed across all shards.
    pub fn shed(&self) -> u64 {
        self.shards.iter().map(|s| s.shed()).sum()
    }
}

/// A running fleet: one microbatch server per shard plus the shared
/// metric registry. Spawn with [`FleetServer::spawn`], submit through
/// [`FleetClient`], shut down by dropping every client and calling
/// [`FleetServer::join`].
pub struct FleetServer {
    shards: Vec<ShardRuntime>,
    metrics: Arc<Registry>,
}

impl FleetServer {
    /// Spawns one shard per spec, each serving the newest version
    /// published in `registry` for its workload.
    ///
    /// # Errors
    ///
    /// [`FleetError::DuplicateWorkload`] on duplicate specs,
    /// [`FleetError::Registry`] when a workload has no published
    /// model (every shard must be published before spawn), and
    /// [`FleetError::Service`] if a shard's service cannot be built.
    pub fn spawn(
        registry: &Arc<ModelRegistry>,
        specs: &[ShardSpec],
        cfg: &FleetConfig,
    ) -> Result<(FleetServer, FleetClient), FleetError> {
        let metrics = Arc::new(Registry::new());
        let fleet_admitted = metrics.counter("fleet.admitted");
        let fleet_shed_queue_full = metrics.counter("fleet.shed.queue_full");
        let fleet_shed_deadline = metrics.counter("fleet.shed.deadline");
        let mut ids: Vec<WorkloadId> = Vec::with_capacity(specs.len());
        let mut lanes = Vec::with_capacity(specs.len());
        let mut shards = Vec::with_capacity(specs.len());
        for spec in specs {
            if ids.contains(&spec.workload) {
                return Err(FleetError::DuplicateWorkload(spec.workload));
            }
            let (version, artifact) = registry
                .resolve_latest(spec.workload)
                .map_err(FleetError::Registry)?;
            let prefix = format!("fleet.shard.{}", spec.name);
            let latency_ns = metrics.histogram(&format!("{prefix}.latency_ns"));
            let admitted = metrics.counter(&format!("{prefix}.admitted"));
            let shed_queue_full = metrics.counter(&format!("{prefix}.shed.queue_full"));
            let shed_deadline = metrics.counter(&format!("{prefix}.shed.deadline"));
            let in_flight = metrics.gauge(&format!("{prefix}.in_flight"));
            let table_absent = metrics.gauge(&format!("{prefix}.table_absent"));
            let swaps = metrics.counter(&format!("{prefix}.swaps"));
            let swap_failures = metrics.counter(&format!("{prefix}.swap_failures"));
            let version_gauge = metrics.gauge(&format!("{prefix}.version"));
            let service = build_service(&artifact, spec.degree, spec.mode, &table_absent)?;
            version_gauge.set(version.0 as i64);
            let ewma_service_ns = Arc::new(AtomicU64::new(0));
            let model = ShardModel {
                workload: spec.workload,
                degree: spec.degree,
                desired_mode: spec.mode,
                registry: registry.clone(),
                watch: registry.watch(spec.workload),
                version: version.0,
                service,
                ewma_service_ns: ewma_service_ns.clone(),
                swaps: swaps.clone(),
                swap_failures: swap_failures.clone(),
                table_absent: table_absent.clone(),
                version_gauge: version_gauge.clone(),
            };
            let (server, client) = MicrobatchServer::spawn(model, cfg.microbatch);
            let gate = Gate {
                slo_ns: duration_ns(cfg.slo),
                max_queue_depth: cfg.max_queue_depth,
                ewma_service_ns,
                in_flight,
                latency_ns: latency_ns.clone(),
                admitted: admitted.clone(),
                shed_queue_full: shed_queue_full.clone(),
                shed_deadline: shed_deadline.clone(),
                fleet_admitted: fleet_admitted.clone(),
                fleet_shed_queue_full: fleet_shed_queue_full.clone(),
                fleet_shed_deadline: fleet_shed_deadline.clone(),
            };
            ids.push(spec.workload);
            lanes.push(Lane { client, gate });
            shards.push(ShardRuntime {
                workload: spec.workload,
                name: spec.name.clone(),
                server,
                latency_ns,
                admitted,
                shed_queue_full,
                shed_deadline,
                swaps,
                swap_failures,
                table_absent,
                version_gauge,
            });
        }
        let client = FleetClient {
            shared: Arc::new(Lanes { ids, lanes }),
        };
        Ok((FleetServer { shards, metrics }, client))
    }

    /// Live snapshot of the fleet's metric registry (counters, gauges,
    /// per-shard latency histograms). Safe from any thread while
    /// serving.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Waits for every shard server to finish — they stop once all
    /// [`FleetClient`] clones are dropped — and returns the final
    /// per-shard reports plus a metric snapshot.
    ///
    /// # Panics
    ///
    /// Panics if a shard's server thread panicked.
    pub fn join(self) -> FleetStats {
        let metrics = self.metrics.snapshot();
        let shards = self
            .shards
            .into_iter()
            .map(|shard| {
                let server = shard.server.join();
                ShardReport {
                    workload: shard.workload,
                    name: shard.name,
                    server,
                    admitted: shard.admitted.get(),
                    shed_queue_full: shard.shed_queue_full.get(),
                    shed_deadline: shard.shed_deadline.get(),
                    latency: shard.latency_ns.snapshot(),
                    swaps: shard.swaps.get(),
                    swap_failures: shard.swap_failures.get(),
                    table_absent: shard.table_absent.get() != 0,
                    version: shard.version_gauge.get().max(0) as u64,
                }
            })
            .collect();
        FleetStats { shards, metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelSpec;
    use voyager::VoyagerConfig;

    fn spec() -> ModelSpec {
        ModelSpec {
            cfg: VoyagerConfig::test(),
            pc_vocab: 16,
            page_vocab: 32,
            offset_vocab: 64,
        }
    }

    fn request(workload: WorkloadId, t: usize) -> InferenceRequest {
        let cfg = VoyagerConfig::test();
        InferenceRequest {
            workload,
            pc: vec![(t + 1) % 16; cfg.seq_len],
            page: vec![(t + 3) % 32; cfg.seq_len],
            offset: vec![(t + 5) % 64; cfg.seq_len],
        }
    }

    fn published_registry(workloads: &[WorkloadId]) -> Arc<ModelRegistry> {
        let registry = Arc::new(ModelRegistry::new());
        for &w in workloads {
            let model = spec().instantiate();
            registry.publish(w, &spec(), &model, None).unwrap();
        }
        registry
    }

    #[test]
    fn routes_by_workload_and_rejects_unknown_ids() {
        let (a, b) = (WorkloadId(0), WorkloadId(9));
        let registry = published_registry(&[a, b]);
        let specs = [
            ShardSpec::new(a, 2, PredictMode::FastInt8),
            ShardSpec::new(b, 2, PredictMode::FastF32),
        ];
        let (server, client) =
            FleetServer::spawn(&registry, &specs, &FleetConfig::default()).unwrap();
        assert_eq!(client.workloads(), &[a, b]);
        assert_eq!(client.infer(request(a, 0)).unwrap().len(), 2);
        assert_eq!(client.infer(request(b, 1)).unwrap().len(), 2);
        assert!(matches!(
            client.infer(request(WorkloadId(42), 2)),
            Err(FleetError::UnknownWorkload(w)) if w == WorkloadId(42)
        ));
        drop(client);
        let stats = server.join();
        assert_eq!(stats.admitted(), 2);
        assert_eq!(stats.shed(), 0);
        assert_eq!(stats.shards.len(), 2);
        assert_eq!(stats.shards[0].server.requests, 1);
        assert_eq!(stats.shards[1].server.requests, 1);
    }

    #[test]
    fn spawn_rejects_duplicate_and_unpublished_workloads() {
        let w = WorkloadId(1);
        let registry = published_registry(&[w]);
        let dup = [
            ShardSpec::new(w, 2, PredictMode::FastInt8),
            ShardSpec::new(w, 2, PredictMode::FastInt8),
        ];
        assert!(matches!(
            FleetServer::spawn(&registry, &dup, &FleetConfig::default()),
            Err(FleetError::DuplicateWorkload(d)) if d == w
        ));
        let missing = [ShardSpec::new(WorkloadId(5), 2, PredictMode::FastInt8)];
        assert!(matches!(
            FleetServer::spawn(&registry, &missing, &FleetConfig::default()),
            Err(FleetError::Registry(RegistryError::Unknown(m))) if m == WorkloadId(5)
        ));
    }

    #[test]
    fn zero_queue_depth_sheds_every_request() {
        let w = WorkloadId(0);
        let registry = published_registry(&[w]);
        let specs = [ShardSpec::new(w, 2, PredictMode::FastInt8)];
        let cfg = FleetConfig {
            max_queue_depth: 0,
            ..FleetConfig::default()
        };
        let (server, client) = FleetServer::spawn(&registry, &specs, &cfg).unwrap();
        for t in 0..3 {
            assert!(matches!(
                client.infer(request(w, t)),
                Err(FleetError::Shed(ShedReason::QueueFull))
            ));
        }
        drop(client);
        let stats = server.join();
        assert_eq!(stats.admitted(), 0);
        assert_eq!(stats.shards[0].shed_queue_full, 3);
        assert_eq!(stats.shards[0].shed_rate(), 1.0);
        assert_eq!(
            stats.metrics.counters.get("fleet.shed.queue_full").copied(),
            Some(3)
        );
    }

    #[test]
    fn zero_slo_sheds_on_deadline_once_service_time_is_known() {
        let w = WorkloadId(0);
        let registry = published_registry(&[w]);
        let specs = [ShardSpec::new(w, 2, PredictMode::FastInt8)];
        let cfg = FleetConfig {
            slo: Duration::ZERO,
            ..FleetConfig::default()
        };
        let (server, client) = FleetServer::spawn(&registry, &specs, &cfg).unwrap();
        // First request: no service-time EWMA yet, so the completion
        // prediction is undefined and the request is admitted.
        assert!(client.infer(request(w, 0)).is_ok());
        // The EWMA is published by the server thread before the first
        // response is delivered, so the very next request's predicted
        // completion exceeds the zero SLO.
        assert!(matches!(
            client.infer(request(w, 1)),
            Err(FleetError::Shed(ShedReason::DeadlineRisk))
        ));
        drop(client);
        let stats = server.join();
        assert_eq!(stats.shards[0].admitted, 1);
        assert_eq!(stats.shards[0].shed_deadline, 1);
        assert_eq!(
            stats.metrics.counters.get("fleet.shed.deadline").copied(),
            Some(1)
        );
    }

    #[test]
    fn table_mode_without_published_tables_serves_degraded() {
        let w = WorkloadId(2);
        let registry = published_registry(&[w]); // published without tables
        let specs = [ShardSpec::new(w, 2, PredictMode::Table)];
        let (server, client) =
            FleetServer::spawn(&registry, &specs, &FleetConfig::default()).unwrap();
        assert_eq!(client.infer(request(w, 0)).unwrap().len(), 2);
        let live = server.metrics();
        assert_eq!(
            live.gauges.get("fleet.shard.w2.table_absent").copied(),
            Some(1),
            "degraded shard must be visible on the gauge"
        );
        drop(client);
        let stats = server.join();
        assert!(stats.shards[0].table_absent);
    }

    #[test]
    fn malformed_requests_get_a_typed_error_and_every_mode_keeps_serving() {
        use voyager::{SeqBatch, TokenStream};
        use voyager_distill::{distill, TableConfig};

        let seq_len = VoyagerConfig::test().seq_len;
        let modes = [
            PredictMode::FastF32,
            PredictMode::FastInt8,
            PredictMode::Table,
        ];
        let registry = Arc::new(ModelRegistry::new());
        let mut model = spec().instantiate();
        // Tables over the valid requests' windows, so the table shard
        // answers them from its tables.
        let valid = [request(WorkloadId(0), 0), request(WorkloadId(0), 1)];
        let corpus = SeqBatch {
            pc: valid.iter().map(|r| r.pc.clone()).collect(),
            page: valid.iter().map(|r| r.page.clone()).collect(),
            offset: valid.iter().map(|r| r.offset.clone()).collect(),
        };
        let (tables, _) = distill(&mut model, &corpus, &TableConfig::for_budget(1 << 16));
        let mut specs = Vec::new();
        for (i, mode) in modes.into_iter().enumerate() {
            let w = WorkloadId(i as u32);
            let shard_tables = (mode == PredictMode::Table).then(|| tables.clone());
            registry.publish(w, &spec(), &model, shard_tables).unwrap();
            specs.push(ShardSpec::new(w, 2, mode));
        }
        let (server, client) =
            FleetServer::spawn(&registry, &specs, &FleetConfig::default()).unwrap();
        let token = |stream, token, vocab| InvalidWindow::Token {
            stream,
            token,
            vocab,
        };
        type Corrupt = fn(&mut InferenceRequest);
        let bad: [(Corrupt, InvalidWindow); 5] = [
            (|r| r.pc[0] = 16, token(TokenStream::Pc, 16, 16)),
            (|r| r.page[1] = 999, token(TokenStream::Page, 999, 32)),
            (|r| r.offset[2] = 64, token(TokenStream::Offset, 64, 64)),
            (
                |r| {
                    r.pc.clear();
                    r.page.clear();
                    r.offset.clear();
                },
                InvalidWindow::Length {
                    stream: TokenStream::Pc,
                    len: 0,
                    seq_len,
                },
            ),
            (
                |r| {
                    r.pc.pop();
                    r.page.pop();
                    r.offset.pop();
                },
                InvalidWindow::Length {
                    stream: TokenStream::Pc,
                    len: seq_len - 1,
                    seq_len,
                },
            ),
        ];
        for spec in &specs {
            let w = spec.workload;
            for (corrupt, expected) in &bad {
                assert_eq!(client.infer(request(w, 0)).unwrap().len(), 2);
                let mut r = request(w, 0);
                corrupt(&mut r);
                match client.infer(r) {
                    Err(FleetError::InvalidRequest(e)) => assert_eq!(e, *expected),
                    other => panic!("{:?}: {other:?}", spec.mode),
                }
                assert_eq!(client.infer(request(w, 1)).unwrap().len(), 2);
            }
        }
        drop(client);
        let stats = server.join();
        for shard in &stats.shards {
            assert_eq!(shard.server.requests, 3 * bad.len());
            assert!(!shard.table_absent);
        }
    }
}
