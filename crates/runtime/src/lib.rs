//! Concurrent runtime for the Voyager reproduction: data-parallel
//! training, microbatched inference serving, and checkpoint management.
//!
//! The paper (Section 5.4) treats Voyager's practicality as an open
//! systems problem: training costs thousands of PC-hours and inference
//! takes ~18 µs per access. This crate supplies the single-node systems
//! layer that attacks both ends:
//!
//! * [`trainer`] — synchronous data-parallel training over
//!   `std::thread` workers with deterministic shard reduction: for a
//!   fixed seed, per-step losses are bitwise-identical at any worker
//!   count.
//! * [`microbatch`] — an mpsc-fed inference server that coalesces
//!   requests under size/time thresholds into batched forward passes
//!   and reports throughput and p50/p99 latency; [`serve`] adapts a
//!   trained [`VoyagerModel`](voyager::VoyagerModel) to it.
//! * [`pool`] — a deterministic, work-stealing-free chunked thread
//!   pool ([`ChunkPool`]) on which the trainer runs its model
//!   replicas.
//! * [`checkpoint`] — atomic numbered snapshots of model + optimizer
//!   state with retention and restore-latest; distilled table
//!   snapshots (`voyager-distill`) ride the same discipline.
//! * [`serve`]'s [`PredictMode::Table`] — the distilled-table serving
//!   tier: requests covered by the tables skip the network entirely
//!   and the rest fall back to the int8 fast path.
//! * [`registry`] + [`fleet`] — multi-tenant serving: a versioned
//!   model registry (publish / resolve-latest / watch-based hot swap,
//!   persisted through the checkpoint layer) behind a sharded fleet
//!   server with per-workload routing, bounded queues, and SLO-aware
//!   load shedding.
//!
//! # Example: deterministic parallel training
//!
//! ```no_run
//! use voyager::{TrainingSet, VoyagerConfig};
//! use voyager_runtime::{train_data_parallel, TrainerConfig};
//! use voyager_trace::gen::{Benchmark, GeneratorConfig};
//!
//! let cfg = VoyagerConfig::test();
//! let trace = Benchmark::Pr.generate(&GeneratorConfig::small());
//! let set = TrainingSet::build(&trace, &cfg);
//! let (model, report) = train_data_parallel(&set, &cfg, &TrainerConfig::new(4, &cfg));
//! println!("{} steps, {:.0} samples/s", report.steps, report.throughput());
//! # let _ = model;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod fleet;
pub mod lockorder;
pub mod microbatch;
pub mod pool;
pub mod registry;
pub mod serve;
pub mod trainer;

pub use checkpoint::{CheckpointError, CheckpointManager};
pub use fleet::{
    FleetClient, FleetConfig, FleetError, FleetServer, FleetStats, ShardReport, ShardSpec,
    ShedReason,
};
pub use lockorder::{LockRank, OrderedMutex};
pub use microbatch::{
    BatchModel, ClientHandle, MicrobatchConfig, MicrobatchServer, ServerStats, SubmitError,
};
pub use pool::ChunkPool;
pub use registry::{ModelRegistry, ModelSpec, RegistryError, ShardArtifact, Version};
pub use serve::{
    InferenceRequest, PredictMode, ServiceConfig, ServiceConfigError, VoyagerService, WorkloadId,
};
pub use trainer::{train_data_parallel, train_data_parallel_profiled, TrainReport, TrainerConfig};
