//! Checkpoint management for long training runs.
//!
//! Wraps `voyager-nn`'s training-state serialization (weights +
//! optimizer state) in a directory convention: numbered snapshots
//! (`ckpt-<step>.vnnt`) written atomically via a temp-file rename, a
//! retention limit, and restore-latest for crash recovery. Distilled
//! table snapshots (`tbl-<step>.vdt`, see `voyager-distill`) ride the
//! same discipline side by side, with an independent retention count —
//! a deployment can roll weights and tables forward separately.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use voyager::VoyagerModel;
use voyager_distill::serialize::{load_tables, save_tables, TableIoError};
use voyager_distill::DistilledTables;
use voyager_nn::serialize::LoadParamsError;

const PREFIX: &str = "ckpt-";
const SUFFIX: &str = ".vnnt";
const TABLE_PREFIX: &str = "tbl-";
const TABLE_SUFFIX: &str = ".vdt";

/// Errors returned by [`CheckpointManager::restore_latest`] and
/// [`CheckpointManager::restore_latest_tables`].
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The snapshot exists but does not match the model (or is
    /// corrupt).
    Load(LoadParamsError),
    /// The table snapshot exists but is malformed.
    Table(TableIoError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "i/o error: {e}"),
            CheckpointError::Load(e) => write!(f, "checkpoint load failed: {e}"),
            CheckpointError::Table(e) => write!(f, "table snapshot load failed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Load(e) => Some(e),
            CheckpointError::Table(e) => Some(e),
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<LoadParamsError> for CheckpointError {
    fn from(e: LoadParamsError) -> Self {
        CheckpointError::Load(e)
    }
}

impl From<TableIoError> for CheckpointError {
    fn from(e: TableIoError) -> Self {
        CheckpointError::Table(e)
    }
}

/// Snapshots model + optimizer state into a directory and restores the
/// newest snapshot on demand.
#[derive(Debug)]
pub struct CheckpointManager {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointManager {
    /// Opens (creating if needed) the checkpoint directory, retaining
    /// at most `keep` snapshots (older ones are pruned on save;
    /// `keep = 0` is treated as 1).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointManager {
            dir,
            keep: keep.max(1),
        })
    }

    /// The managed directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes a snapshot of `model` (weights + optimizer state) tagged
    /// with `step` and returns its path. The write goes to a temp file
    /// that is fsynced and then renamed into place, and the directory
    /// entry itself is fsynced after the rename — so a crash (or power
    /// loss) mid-write never leaves a half-written or unreachable
    /// `ckpt-*.vnnt` behind. Saving the same step twice overwrites.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, model: &VoyagerModel, step: u64) -> io::Result<PathBuf> {
        self.save_atomic(PREFIX, SUFFIX, step, |writer| {
            model.save_training_state(writer)
        })
    }

    /// Writes a snapshot of distilled `tables` tagged with `step`
    /// (`tbl-<step>.vdt`) and returns its path, with the same
    /// atomicity and durability discipline as [`CheckpointManager::save`].
    /// Table snapshots are retained independently of weight snapshots
    /// (up to `keep` of each). Saving the same step twice overwrites.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_tables(&self, tables: &DistilledTables, step: u64) -> io::Result<PathBuf> {
        self.save_atomic(TABLE_PREFIX, TABLE_SUFFIX, step, |writer| {
            save_tables(writer, tables)
        })
    }

    /// Temp-file → flush → fsync → rename → parent-dir fsync write of
    /// one snapshot family member, plus pruning of that family.
    fn save_atomic(
        &self,
        prefix: &str,
        suffix: &str,
        step: u64,
        write: impl FnOnce(&mut io::BufWriter<fs::File>) -> io::Result<()>,
    ) -> io::Result<PathBuf> {
        let tmp = self.dir.join(format!(".tmp-{prefix}{step}"));
        let file = fs::File::create(&tmp)?;
        let mut writer = io::BufWriter::new(file);
        write(&mut writer)?;
        io::Write::flush(&mut writer)?;
        // Durability, not just atomicity: flush only hands the bytes to
        // the OS. Sync the file data before the rename (so the renamed
        // entry can never point at truncated content) and the parent
        // directory after it (so the new name itself survives a crash).
        let file = writer
            .into_inner()
            .map_err(io::IntoInnerError::into_error)?;
        file.sync_all()?;
        drop(file);
        let path = self.dir.join(format!("{prefix}{step:010}{suffix}"));
        fs::rename(&tmp, &path)?;
        fs::File::open(&self.dir)?.sync_all()?;
        self.prune(prefix, suffix)?;
        Ok(path)
    }

    /// Lists `(step, path)` for every weight snapshot, sorted by step
    /// ascending.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures.
    pub fn list(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        self.scan(PREFIX, SUFFIX)
    }

    /// Lists `(step, path)` for every table snapshot, sorted by step
    /// ascending.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures.
    pub fn list_tables(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        self.scan(TABLE_PREFIX, TABLE_SUFFIX)
    }

    fn scan(&self, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut found = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name
                .strip_prefix(prefix)
                .and_then(|s| s.strip_suffix(suffix))
            else {
                continue;
            };
            if let Ok(step) = stem.parse::<u64>() {
                found.push((step, entry.path()));
            }
        }
        found.sort_by_key(|(step, _)| *step);
        Ok(found)
    }

    /// The newest weight snapshot, if any.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures.
    pub fn latest(&self) -> io::Result<Option<(u64, PathBuf)>> {
        Ok(self.list()?.pop())
    }

    /// The newest table snapshot, if any.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures.
    pub fn latest_tables(&self) -> io::Result<Option<(u64, PathBuf)>> {
        Ok(self.list_tables()?.pop())
    }

    /// Restores the newest weight snapshot into `model` and returns its
    /// step, or `None` if the directory holds no snapshots.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on I/O failure or if the snapshot
    /// does not match the model layout.
    pub fn restore_latest(&self, model: &mut VoyagerModel) -> Result<Option<u64>, CheckpointError> {
        let Some((step, path)) = self.latest()? else {
            return Ok(None);
        };
        let file = fs::File::open(path)?;
        model.load_training_state(io::BufReader::new(file))?;
        Ok(Some(step))
    }

    /// Loads the newest table snapshot and returns it with its step, or
    /// `None` if the directory holds no table snapshots.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on I/O failure or a malformed
    /// snapshot.
    pub fn restore_latest_tables(&self) -> Result<Option<(u64, DistilledTables)>, CheckpointError> {
        let Some((step, path)) = self.latest_tables()? else {
            return Ok(None);
        };
        let file = fs::File::open(path)?;
        let tables = load_tables(io::BufReader::new(file))?;
        Ok(Some((step, tables)))
    }

    fn prune(&self, prefix: &str, suffix: &str) -> io::Result<()> {
        let mut snapshots = self.scan(prefix, suffix)?;
        while snapshots.len() > self.keep {
            let (_, path) = snapshots.remove(0);
            fs::remove_file(path)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voyager::{SeqBatch, VoyagerConfig};

    type Positives = Vec<Vec<usize>>;

    fn model_and_batch() -> (VoyagerModel, SeqBatch, Positives, Positives) {
        let cfg = VoyagerConfig::test();
        let model = VoyagerModel::new(&cfg, 16, 32, 64);
        let batch = SeqBatch {
            pc: vec![vec![1; cfg.seq_len], vec![2; cfg.seq_len]],
            page: vec![vec![3; cfg.seq_len], vec![5; cfg.seq_len]],
            offset: vec![vec![10; cfg.seq_len], vec![20; cfg.seq_len]],
        };
        (
            model,
            batch,
            vec![vec![6], vec![7]],
            vec![vec![30], vec![40]],
        )
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("voyager-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_restore_resumes_bitwise() {
        let dir = tempdir("roundtrip");
        let mgr = CheckpointManager::new(&dir, 3).unwrap();
        let (mut a, batch, pt, ot) = model_and_batch();
        for _ in 0..4 {
            a.train_multi(&batch, &pt, &ot);
        }
        mgr.save(&a, 4).unwrap();

        let (mut b, ..) = model_and_batch();
        assert_eq!(mgr.restore_latest(&mut b).unwrap(), Some(4));
        for _ in 0..3 {
            let la = a.train_multi(&batch, &pt, &ot);
            let lb = b.train_multi(&batch, &pt, &ot);
            assert_eq!(la, lb);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_keeps_newest_and_leaves_no_temp_files() {
        let dir = tempdir("retention");
        let mgr = CheckpointManager::new(&dir, 2).unwrap();
        let (model, ..) = model_and_batch();
        for step in [1u64, 2, 3, 4, 5] {
            mgr.save(&model, step).unwrap();
        }
        let steps: Vec<u64> = mgr.list().unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(steps, vec![4, 5]);
        assert_eq!(mgr.latest().unwrap().unwrap().0, 5);
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                !name.to_string_lossy().starts_with(".tmp-"),
                "temp file left behind: {name:?}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_restore_save_is_bit_identical() {
        // Durability regression: the snapshot that lands on disk must
        // be the complete serialized state, byte for byte. Restore it
        // into a fresh model, save that, and compare the raw files.
        let dir = tempdir("bitident");
        let mgr = CheckpointManager::new(&dir, 4).unwrap();
        let (mut a, batch, pt, ot) = model_and_batch();
        for _ in 0..2 {
            a.train_multi(&batch, &pt, &ot);
        }
        let first = mgr.save(&a, 1).unwrap();

        let (mut b, ..) = model_and_batch();
        assert_eq!(mgr.restore_latest(&mut b).unwrap(), Some(1));
        let second = mgr.save(&b, 2).unwrap();

        let bytes_a = fs::read(&first).unwrap();
        let bytes_b = fs::read(&second).unwrap();
        assert!(!bytes_a.is_empty());
        assert_eq!(bytes_a, bytes_b, "restored state must re-save identically");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn table_snapshots_roundtrip_and_prune_independently() {
        use voyager_distill::TableConfig;
        let dir = tempdir("tables");
        let mgr = CheckpointManager::new(&dir, 2).unwrap();
        let (model, ..) = model_and_batch();
        let mut tables = voyager_distill::DistilledTables::new(&TableConfig::for_budget(64 * 1024));
        tables.insert_page(&[3, 3], &[(6, 0.9)]);
        tables.insert_offset(1, &[(30, 0.9)]);
        // Weight snapshots and table snapshots coexist and are
        // retained per family.
        mgr.save(&model, 7).unwrap();
        for step in [1u64, 2, 3] {
            mgr.save_tables(&tables, step).unwrap();
        }
        let steps: Vec<u64> = mgr
            .list_tables()
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(steps, vec![2, 3]);
        assert_eq!(mgr.list().unwrap().len(), 1, "weight family untouched");
        let (step, restored) = mgr.restore_latest_tables().unwrap().unwrap();
        assert_eq!(step, 3);
        assert_eq!(restored, tables);
        // Re-saving the restored tables is bit-identical (VDT1 is
        // deterministic).
        let a = fs::read(mgr.latest_tables().unwrap().unwrap().1).unwrap();
        let again = mgr.save_tables(&restored, 4).unwrap();
        assert_eq!(a, fs::read(again).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restore_from_empty_dir_is_none() {
        let dir = tempdir("empty");
        let mgr = CheckpointManager::new(&dir, 1).unwrap();
        let (mut model, ..) = model_and_batch();
        assert!(mgr.restore_latest(&mut model).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_model_is_a_load_error() {
        let dir = tempdir("mismatch");
        let mgr = CheckpointManager::new(&dir, 1).unwrap();
        let (model, ..) = model_and_batch();
        mgr.save(&model, 1).unwrap();
        let cfg = VoyagerConfig::test();
        let mut other = VoyagerModel::new(&cfg, 16, 48, 64); // different page vocab
        assert!(matches!(
            mgr.restore_latest(&mut other).unwrap_err(),
            CheckpointError::Load(_)
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
