//! Versioned model registry for fleet serving.
//!
//! The paper trains one Voyager model per application (Section 5.1);
//! a fleet deployment therefore keeps one *shard artifact* per
//! [`WorkloadId`] and retrains shards while they serve. This module is
//! the handoff point between a trainer and the serving shards:
//!
//! * [`ModelRegistry::publish`] serializes a trained model (plus
//!   optional distilled tables) under a **monotonic version**, and
//! * [`ModelRegistry::resolve_latest`] hands serving shards an
//!   immutable [`ShardArtifact`] they can instantiate.
//!
//! Hot swap is watch-based: every workload has a version cell
//! ([`ModelRegistry::watch`]) that publishing bumps with a release
//! store. A shard checks the cell between batches (one `Acquire` load
//! — nothing on the per-row path), so in-flight batches always finish
//! on the version they started with and the *next* batch picks up the
//! new one. No serving-path lock is ever taken by a publisher.
//!
//! Persistence is layered on [`CheckpointManager`]: a persistent
//! registry write-through-saves every publish as `ckpt-<version>.vnnt`
//! (and `tbl-<version>.vdt`) under a per-workload subdirectory, and
//! [`ModelRegistry::recover`] rebuilds the in-memory artifact from the
//! newest snapshot after a restart.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use voyager::{VoyagerConfig, VoyagerModel};
use voyager_distill::DistilledTables;

use crate::checkpoint::{CheckpointError, CheckpointManager};
use crate::lockorder::{ranks, OrderedMutex};
use crate::serve::WorkloadId;

/// A monotonic model version within one workload's shard. Versions
/// start at 1 on first publish; 0 means "nothing published yet".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version(pub u64);

impl std::fmt::Display for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Everything needed to build an empty [`VoyagerModel`] with the same
/// layout as a published one, so serialized weights can be loaded into
/// it. ([`VoyagerModel`] is deliberately not `Clone`; artifacts store
/// bytes + this spec instead of live models.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSpec {
    /// Architecture hyperparameters.
    pub cfg: VoyagerConfig,
    /// PC vocabulary size.
    pub pc_vocab: usize,
    /// Page vocabulary size.
    pub page_vocab: usize,
    /// Offset vocabulary size.
    pub offset_vocab: usize,
}

impl ModelSpec {
    /// Builds a freshly initialized (untrained) model with this layout.
    pub fn instantiate(&self) -> VoyagerModel {
        VoyagerModel::new(&self.cfg, self.pc_vocab, self.page_vocab, self.offset_vocab)
    }
}

/// One published, immutable shard payload: serialized training state
/// plus optional distilled tables. Shards clone the `Arc` out of the
/// registry and instantiate from it without holding any lock.
#[derive(Debug)]
pub struct ShardArtifact {
    spec: ModelSpec,
    /// `VoyagerModel::save_training_state` bytes.
    state: Vec<u8>,
    tables: Option<DistilledTables>,
}

impl ShardArtifact {
    /// The layout the serialized state was captured from.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Distilled tables published alongside the weights, if any.
    pub fn tables(&self) -> Option<&DistilledTables> {
        self.tables.as_ref()
    }

    /// Serialized size of the weights + optimizer state, in bytes.
    pub fn state_bytes(&self) -> usize {
        self.state.len()
    }

    /// Deserializes the artifact into a live model. Restoring is
    /// bitwise: the rebuilt model predicts identically to the one that
    /// was published.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Checkpoint`] if the serialized state does not
    /// match the spec's layout (artifact corrupted or spec mismatch).
    pub fn instantiate(&self) -> Result<VoyagerModel, RegistryError> {
        let mut model = self.spec.instantiate();
        model
            .load_training_state(io::Cursor::new(&self.state))
            .map_err(|e| RegistryError::Checkpoint(CheckpointError::Load(e)))?;
        Ok(model)
    }
}

/// Errors surfaced by [`ModelRegistry`] operations.
#[derive(Debug)]
pub enum RegistryError {
    /// Underlying I/O failure (serialization or checkpoint directory).
    Io(io::Error),
    /// Snapshot save/restore failure from the checkpoint layer.
    Checkpoint(CheckpointError),
    /// The workload has no published model.
    Unknown(WorkloadId),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "registry i/o error: {e}"),
            RegistryError::Checkpoint(e) => write!(f, "registry checkpoint error: {e}"),
            RegistryError::Unknown(w) => write!(f, "no model published for workload {w}"),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Io(e) => Some(e),
            RegistryError::Checkpoint(e) => Some(e),
            RegistryError::Unknown(_) => None,
        }
    }
}

impl From<io::Error> for RegistryError {
    fn from(e: io::Error) -> Self {
        RegistryError::Io(e)
    }
}

impl From<CheckpointError> for RegistryError {
    fn from(e: CheckpointError) -> Self {
        RegistryError::Checkpoint(e)
    }
}

/// Per-workload registry slot.
#[derive(Debug)]
struct ShardEntry {
    version: u64,
    artifact: Option<Arc<ShardArtifact>>,
    /// Published version, shared with serving shards; bumped with a
    /// `Release` store after the artifact is installed.
    watch: Arc<AtomicU64>,
    /// Write-through checkpoint manager (persistent registries only).
    ckpt: Option<CheckpointManager>,
}

impl ShardEntry {
    fn empty() -> Self {
        ShardEntry {
            version: 0,
            artifact: None,
            watch: Arc::new(AtomicU64::new(0)),
            ckpt: None,
        }
    }
}

/// Versioned, multi-workload model store backing a serving fleet. See
/// the module docs for the publish / resolve / watch protocol.
#[derive(Debug)]
pub struct ModelRegistry {
    shards: OrderedMutex<BTreeMap<WorkloadId, ShardEntry>>,
    /// `(directory, snapshots kept per family)` for write-through
    /// persistence; `None` for an in-memory registry.
    persist: Option<(PathBuf, usize)>,
}

impl ModelRegistry {
    /// An in-memory registry: publishes are visible to shards but not
    /// written to disk.
    pub fn new() -> Self {
        ModelRegistry {
            shards: OrderedMutex::new("model-registry", ranks::MODEL_REGISTRY, BTreeMap::new()),
            persist: None,
        }
    }

    /// A persistent registry rooted at `dir`: every publish is also
    /// saved through a per-workload [`CheckpointManager`] (subdirectory
    /// `shard-<id>`, snapshot step = version, `keep` snapshots
    /// retained per family), and [`ModelRegistry::recover`] can
    /// rebuild artifacts after a restart.
    pub fn persistent(dir: impl Into<PathBuf>, keep: usize) -> Self {
        ModelRegistry {
            shards: OrderedMutex::new("model-registry", ranks::MODEL_REGISTRY, BTreeMap::new()),
            persist: Some((dir.into(), keep)),
        }
    }

    fn shard_dir(root: &Path, workload: WorkloadId) -> PathBuf {
        root.join(format!("shard-{}", workload.0))
    }

    /// Serializes `model` (and optional `tables`) and installs it as
    /// the next version of `workload`'s shard: versions are monotonic
    /// per workload, starting at 1. On a persistent registry the
    /// snapshot is written through the checkpoint layer *before* the
    /// version becomes visible, so a version that serving shards can
    /// observe is always durable. Returns the new version.
    ///
    /// # Errors
    ///
    /// I/O or checkpoint errors; on error the previous version stays
    /// current.
    pub fn publish(
        &self,
        workload: WorkloadId,
        spec: &ModelSpec,
        model: &VoyagerModel,
        tables: Option<DistilledTables>,
    ) -> Result<Version, RegistryError> {
        let mut state = Vec::new();
        model.save_training_state(&mut state)?;
        let mut shards = self.shards.lock();
        let entry = shards.entry(workload).or_insert_with(ShardEntry::empty);
        if entry.ckpt.is_none() {
            if let Some((root, keep)) = &self.persist {
                entry.ckpt = Some(CheckpointManager::new(
                    Self::shard_dir(root, workload),
                    *keep,
                )?);
            }
        }
        let version = entry.version + 1;
        if let Some(ckpt) = &entry.ckpt {
            ckpt.save(model, version)?;
            if let Some(tables) = &tables {
                ckpt.save_tables(tables, version)?;
            }
        }
        entry.artifact = Some(Arc::new(ShardArtifact {
            spec: *spec,
            state,
            tables,
        }));
        entry.version = version;
        entry.watch.store(version, Ordering::Release);
        Ok(Version(version))
    }

    /// The newest published artifact for `workload`, with its version.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Unknown`] if nothing was ever published (or
    /// recovered) for the workload.
    pub fn resolve_latest(
        &self,
        workload: WorkloadId,
    ) -> Result<(Version, Arc<ShardArtifact>), RegistryError> {
        let shards = self.shards.lock();
        let entry = shards
            .get(&workload)
            .ok_or(RegistryError::Unknown(workload))?;
        match &entry.artifact {
            Some(artifact) => Ok((Version(entry.version), artifact.clone())),
            None => Err(RegistryError::Unknown(workload)),
        }
    }

    /// The newest published version for `workload` (0 = none yet).
    pub fn latest_version(&self, workload: WorkloadId) -> Version {
        let shards = self.shards.lock();
        Version(shards.get(&workload).map_or(0, |e| e.version))
    }

    /// The workload's shared version cell: holds the latest published
    /// version (0 = none yet) and is bumped with a `Release` store on
    /// every publish. Serving shards poll it with one `Acquire` load
    /// per batch — the lock-free half of hot swap.
    pub fn watch(&self, workload: WorkloadId) -> Arc<AtomicU64> {
        let mut shards = self.shards.lock();
        shards
            .entry(workload)
            .or_insert_with(ShardEntry::empty)
            .watch
            .clone()
    }

    /// Workloads with at least one published version, sorted.
    pub fn workloads(&self) -> Vec<WorkloadId> {
        let shards = self.shards.lock();
        shards
            .iter()
            .filter(|(_, e)| e.version > 0)
            .map(|(w, _)| *w)
            .collect()
    }

    /// Rebuilds `workload`'s artifact from the newest on-disk snapshot
    /// (persistent registries only; `spec` must match the layout the
    /// snapshot was saved from). Installs it — and makes the recovered
    /// version visible on the watch cell — only if it is newer than
    /// what the registry already holds. Returns the recovered version,
    /// or `None` if the registry is in-memory or no snapshot exists.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`CheckpointError::Load`] wrapped in
    /// [`RegistryError::Checkpoint`] if the snapshot does not match
    /// `spec`.
    pub fn recover(
        &self,
        workload: WorkloadId,
        spec: &ModelSpec,
    ) -> Result<Option<Version>, RegistryError> {
        let Some((root, keep)) = &self.persist else {
            return Ok(None);
        };
        let ckpt = CheckpointManager::new(Self::shard_dir(root, workload), *keep)?;
        let mut model = spec.instantiate();
        let Some(version) = ckpt.restore_latest(&mut model)? else {
            return Ok(None);
        };
        let tables = ckpt
            .restore_latest_tables()?
            .filter(|(step, _)| *step == version)
            .map(|(_, tables)| tables);
        let mut state = Vec::new();
        model.save_training_state(&mut state)?;
        let mut shards = self.shards.lock();
        let entry = shards.entry(workload).or_insert_with(ShardEntry::empty);
        if entry.ckpt.is_none() {
            entry.ckpt = Some(ckpt);
        }
        if version > entry.version {
            entry.artifact = Some(Arc::new(ShardArtifact {
                spec: *spec,
                state,
                tables,
            }));
            entry.version = version;
            entry.watch.store(version, Ordering::Release);
        }
        Ok(Some(Version(version)))
    }
}

impl Default for ModelRegistry {
    fn default() -> Self {
        ModelRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use voyager::SeqBatch;

    fn spec() -> ModelSpec {
        ModelSpec {
            cfg: VoyagerConfig::test(),
            pc_vocab: 16,
            page_vocab: 32,
            offset_vocab: 64,
        }
    }

    fn trained_model(steps: usize) -> VoyagerModel {
        let s = spec();
        let mut model = s.instantiate();
        let cfg = s.cfg;
        let batch = SeqBatch {
            pc: vec![vec![1; cfg.seq_len], vec![2; cfg.seq_len]],
            page: vec![vec![3; cfg.seq_len], vec![5; cfg.seq_len]],
            offset: vec![vec![10; cfg.seq_len], vec![20; cfg.seq_len]],
        };
        let (pt, ot) = (vec![vec![6], vec![7]], vec![vec![30], vec![40]]);
        for _ in 0..steps {
            model.train_multi(&batch, &pt, &ot);
        }
        model
    }

    fn probe() -> SeqBatch {
        let cfg = VoyagerConfig::test();
        SeqBatch {
            pc: vec![vec![4; cfg.seq_len]],
            page: vec![vec![9; cfg.seq_len]],
            offset: vec![vec![12; cfg.seq_len]],
        }
    }

    #[test]
    fn publish_bumps_versions_monotonically_per_workload() {
        let registry = ModelRegistry::new();
        let (a, b) = (WorkloadId(0), WorkloadId(7));
        let model = trained_model(1);
        assert_eq!(registry.latest_version(a), Version(0));
        assert!(matches!(
            registry.resolve_latest(a),
            Err(RegistryError::Unknown(w)) if w == a
        ));
        assert_eq!(
            registry.publish(a, &spec(), &model, None).unwrap(),
            Version(1)
        );
        assert_eq!(
            registry.publish(a, &spec(), &model, None).unwrap(),
            Version(2)
        );
        assert_eq!(
            registry.publish(b, &spec(), &model, None).unwrap(),
            Version(1),
            "versions are per workload"
        );
        assert_eq!(registry.latest_version(a), Version(2));
        assert_eq!(registry.watch(a).load(Ordering::Acquire), 2);
        assert_eq!(registry.workloads(), vec![a, b]);
        let (v, artifact) = registry.resolve_latest(a).unwrap();
        assert_eq!(v, Version(2));
        assert!(artifact.state_bytes() > 0);
    }

    #[test]
    fn instantiated_artifact_predicts_bitwise_like_the_source() {
        let registry = ModelRegistry::new();
        let w = WorkloadId(3);
        let mut model = trained_model(3);
        registry.publish(w, &spec(), &model, None).unwrap();
        let (_, artifact) = registry.resolve_latest(w).unwrap();
        let mut rebuilt = artifact.instantiate().unwrap();
        model.prepare_int8();
        rebuilt.prepare_int8();
        let batch = probe();
        assert_eq!(
            model.predict_int8(&batch, 4),
            rebuilt.predict_int8(&batch, 4),
            "artifact round-trip must be bitwise"
        );
    }

    #[test]
    fn persistent_registry_recovers_latest_version_from_disk() {
        let dir = std::env::temp_dir().join(format!("voyager-registry-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let w = WorkloadId(1);
        let mut model = trained_model(2);
        {
            let registry = ModelRegistry::persistent(&dir, 2);
            registry.publish(w, &spec(), &model, None).unwrap();
            registry.publish(w, &spec(), &model, None).unwrap();
        }
        // Fresh process: recover from the write-through snapshots.
        let registry = ModelRegistry::persistent(&dir, 2);
        assert_eq!(registry.latest_version(w), Version(0));
        assert_eq!(registry.recover(w, &spec()).unwrap(), Some(Version(2)));
        assert_eq!(registry.latest_version(w), Version(2));
        assert_eq!(registry.watch(w).load(Ordering::Acquire), 2);
        let (_, artifact) = registry.resolve_latest(w).unwrap();
        let mut rebuilt = artifact.instantiate().unwrap();
        model.prepare_int8();
        rebuilt.prepare_int8();
        let batch = probe();
        assert_eq!(
            model.predict_int8(&batch, 4),
            rebuilt.predict_int8(&batch, 4)
        );
        // A later in-memory publish supersedes the recovered version.
        assert_eq!(
            registry.publish(w, &spec(), &model, None).unwrap(),
            Version(3)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_memory_registry_recover_is_a_noop() {
        let registry = ModelRegistry::new();
        assert!(registry.recover(WorkloadId(0), &spec()).unwrap().is_none());
    }
}
