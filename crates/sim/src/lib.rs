//! A ChampSim-like trace-driven simulation substrate.
//!
//! The paper evaluates prefetchers with the CRC2/ChampSim framework: a
//! 4-wide out-of-order core with a 128-entry reorder buffer and a
//! three-level cache hierarchy (Table 3), with all prefetchers situated
//! at the last-level cache. This crate reproduces that substrate at
//! trace granularity:
//!
//! * [`Cache`] — set-associative LRU caches with per-line prefetch bits
//!   and prefetch arrival times (late prefetches pay residual latency).
//! * [`Hierarchy`] — the LLC plus a DRAM latency model. L1 and L2 are
//!   walked once per trace and cache geometry, and every run of that
//!   trace shares the walk (prefetches never reach them).
//! * [`SimConfig`] — [`SimConfig::paper`] carries the exact Table 3
//!   parameters; [`SimConfig::scaled`] (the default) shrinks capacities
//!   so that the scaled-down traces of this reproduction exercise the
//!   same hit/miss behaviour (see DESIGN.md, substitution 4).
//! * [`llc_stream`] — filters a raw load trace through L1/L2, producing
//!   the LLC access stream that prefetchers (and Voyager) observe.
//! * [`simulate`] — runs a trace against a
//!   [`Prefetcher`](voyager_prefetch::Prefetcher), modelling a
//!   4-wide/128-ROB core with limited MSHR parallelism, and reports
//!   [`SimOutcome`] (IPC, accuracy, coverage).
//!
//! # Example
//!
//! ```
//! use voyager_prefetch::NoPrefetcher;
//! use voyager_sim::{simulate, SimConfig};
//! use voyager_trace::gen::{Benchmark, GeneratorConfig};
//!
//! let trace = Benchmark::Bfs.generate(&GeneratorConfig::small());
//! let out = simulate(&trace, &mut NoPrefetcher::new(), &SimConfig::scaled());
//! assert!(out.ipc > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod engine;
mod metrics;

pub use cache::Cache;
pub use config::{CacheConfig, SimConfig};
pub use engine::{llc_stream, simulate, Hierarchy, SimOutcome};
pub use metrics::{
    unified_accuracy_coverage, unified_accuracy_coverage_windowed, PredictionOutcome, UnifiedScore,
};
