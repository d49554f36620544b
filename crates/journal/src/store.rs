//! Pluggable journal storage: where the framed bytes actually live.
//!
//! The [`JournalStore`] trait is the only seam between the journal logic
//! and the outside world. Tests use the in-memory [`MemStore`]; real runs
//! use [`FileStore`], one file per job. `append` writes and `sync` is the
//! disk barrier; when to sync is [`crate::JobJournal`]'s policy, not the
//! store's. A `kill -9` can lose at most the record being written, a
//! machine crash at most what was appended since the last sync — either
//! way a tail behind a valid prefix, which the frame layer recovers from.
//!
//! [`FileStore`] routes every file operation through a [`pper_vfs::Vfs`]
//! (invariant D5 bans direct `std::fs` here), so chaos suites can
//! inject disk faults deterministically. Failed appends are rolled back
//! with `set_len` so a transient fault's partial bytes never linger as a
//! torn tail, and transient write faults are retried in place under a
//! bounded [`RetryPolicy`]; what cannot be recovered surfaces as the typed
//! [`JournalError::Fault`].

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use pper_vfs::{retry_io, IoFault, IoOp, RetryPolicy, Vfs, VfsFile};

use crate::JournalError;

/// Abstract append-only byte storage, keyed by job id.
pub trait JournalStore: Send + Sync {
    /// Append `bytes` to the job's log, returning the byte offset at which
    /// the write began (i.e. the log's length before the append).
    fn append(&self, job: &str, bytes: &[u8]) -> Result<u64, JournalError>;

    /// Read the job's entire log. [`JournalError::NotFound`] if the job has
    /// never been written.
    fn read(&self, job: &str) -> Result<Vec<u8>, JournalError>;

    /// Force appended bytes to stable storage (no-op for memory stores).
    fn sync(&self, job: &str) -> Result<(), JournalError>;

    /// Cut the job's log back to `len` bytes. Recovery uses this to drop a
    /// torn tail before new records are appended behind it; `len` past the
    /// current end is a no-op.
    fn truncate_log(&self, job: &str, len: u64) -> Result<(), JournalError>;

    /// Every job id with a log, sorted.
    fn list_jobs(&self) -> Result<Vec<String>, JournalError>;
}

/// Reject job ids that cannot round-trip through a file name. Applies to
/// every store so tests with `MemStore` catch bad ids too.
pub(crate) fn check_job_id(job: &str) -> Result<(), JournalError> {
    let ok = !job.is_empty()
        && job.len() <= 128
        && job
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        && !job.starts_with('.');
    if ok {
        Ok(())
    } else {
        Err(JournalError::BadJobId(job.to_string()))
    }
}

/// In-memory store for tests: a map of job id to its byte log.
#[derive(Default)]
pub struct MemStore {
    logs: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl MemStore {
    /// Fresh, empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh store behind an `Arc<dyn JournalStore>`, the shape the
    /// durable runner consumes.
    pub fn shared() -> Arc<dyn JournalStore> {
        Arc::new(Self::new())
    }

    /// Truncate a job's log to `len` bytes — simulates a crash that lost
    /// the tail of the file. No-op if the log is already shorter.
    pub fn truncate(&self, job: &str, len: usize) {
        let mut logs = self.logs.lock();
        if let Some(log) = logs.get_mut(job) {
            log.truncate(len);
        }
    }

    /// Flip the byte at `pos` in a job's log — simulates bit rot.
    pub fn corrupt(&self, job: &str, pos: usize) {
        let mut logs = self.logs.lock();
        if let Some(b) = logs.get_mut(job).and_then(|log| log.get_mut(pos)) {
            *b ^= 0xFF;
        }
    }
}

impl std::fmt::Debug for MemStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let logs = self.logs.lock();
        f.debug_struct("MemStore")
            .field("jobs", &logs.len())
            .finish()
    }
}

impl JournalStore for MemStore {
    fn append(&self, job: &str, bytes: &[u8]) -> Result<u64, JournalError> {
        check_job_id(job)?;
        let mut logs = self.logs.lock();
        let log = logs.entry(job.to_string()).or_default();
        let offset = crate::frame::off_u64(log.len());
        log.extend_from_slice(bytes);
        Ok(offset)
    }

    fn read(&self, job: &str) -> Result<Vec<u8>, JournalError> {
        check_job_id(job)?;
        self.logs
            .lock()
            .get(job)
            .cloned()
            .ok_or_else(|| JournalError::NotFound(job.to_string()))
    }

    fn sync(&self, _job: &str) -> Result<(), JournalError> {
        Ok(())
    }

    fn truncate_log(&self, job: &str, len: u64) -> Result<(), JournalError> {
        check_job_id(job)?;
        let mut logs = self.logs.lock();
        if let Some(log) = logs.get_mut(job) {
            log.truncate(usize::try_from(len).unwrap_or(usize::MAX));
        }
        Ok(())
    }

    fn list_jobs(&self) -> Result<Vec<String>, JournalError> {
        Ok(self.logs.lock().keys().cloned().collect())
    }
}

/// One `<job>.journal` file per job under a directory, written and
/// fsync'd through a [`Vfs`].
pub struct FileStore {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    retry: RetryPolicy,
    // Cached append handles so repeated appends don't reopen the file.
    handles: Mutex<BTreeMap<String, Box<dyn VfsFile>>>,
}

impl FileStore {
    /// Open (creating if needed) a store rooted at `dir` on the real
    /// filesystem.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, JournalError> {
        Self::open_with(pper_vfs::std_vfs(), dir)
    }

    /// [`FileStore::open`] through an explicit [`Vfs`] (chaos suites
    /// inject faults here).
    pub fn open_with(vfs: Arc<dyn Vfs>, dir: impl AsRef<Path>) -> Result<Self, JournalError> {
        let dir = dir.as_ref().to_path_buf();
        vfs.create_dir_all(&dir)?;
        Ok(Self {
            dir,
            vfs,
            retry: RetryPolicy::default(),
            handles: Mutex::new(BTreeMap::new()),
        })
    }

    /// As [`FileStore::open`], but behind an `Arc<dyn JournalStore>`.
    pub fn shared(dir: impl AsRef<Path>) -> Result<Arc<dyn JournalStore>, JournalError> {
        Ok(Arc::new(Self::open(dir)?))
    }

    /// Override the transient-fault retry policy for appends.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Path of a job's journal file.
    pub fn path_for(&self, job: &str) -> PathBuf {
        self.dir.join(format!("{job}.journal"))
    }
}

impl std::fmt::Debug for FileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileStore").field("dir", &self.dir).finish()
    }
}

impl JournalStore for FileStore {
    fn append(&self, job: &str, bytes: &[u8]) -> Result<u64, JournalError> {
        check_job_id(job)?;
        let path = self.path_for(job);
        let mut handles = self.handles.lock();
        let file = match handles.entry(job.to_string()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => v.insert(self.vfs.open_append(&path)?),
        };
        let offset = file
            .seek(SeekFrom::End(0))
            .map_err(|e| IoFault::classify(IoOp::Write, &path, &e))?;
        // Transient faults are retried in place; between attempts the log
        // is rolled back to `offset` so partial bytes from a failed write
        // never linger. (The frame layer would survive a torn tail anyway,
        // but rollback keeps the on-disk log dense and the returned offset
        // truthful.)
        let (result, _stats) = retry_io(&self.retry, || {
            file.write_all(bytes)
                .and_then(|()| file.flush())
                .map_err(|e| {
                    let fault = IoFault::classify(IoOp::Write, &path, &e);
                    let _ = file.set_len(offset);
                    let _ = file.seek(SeekFrom::End(0));
                    fault
                })
        });
        result?;
        Ok(offset)
    }

    fn read(&self, job: &str) -> Result<Vec<u8>, JournalError> {
        check_job_id(job)?;
        let path = self.path_for(job);
        match self.vfs.try_read(&path)? {
            Some(buf) => Ok(buf),
            None => Err(JournalError::NotFound(job.to_string())),
        }
    }

    fn sync(&self, job: &str) -> Result<(), JournalError> {
        check_job_id(job)?;
        let path = self.path_for(job);
        let mut handles = self.handles.lock();
        if let Some(file) = handles.get_mut(job) {
            file.sync_data()
                .map_err(|e| IoFault::classify(IoOp::Fsync, &path, &e))?;
        }
        Ok(())
    }

    fn truncate_log(&self, job: &str, len: u64) -> Result<(), JournalError> {
        check_job_id(job)?;
        // `Vfs::truncate` only shrinks (len past the end is a no-op) and
        // returns Ok(false) for a missing file — both exactly the contract
        // here. The cached append handle stays valid: every append seeks
        // to the (new) end first.
        self.vfs.truncate(&self.path_for(job), len)?;
        Ok(())
    }

    fn list_jobs(&self) -> Result<Vec<String>, JournalError> {
        let mut jobs = Vec::new();
        // list_dir returns sorted names, so `jobs` stays sorted.
        for name in self.vfs.list_dir(&self.dir)? {
            if let Some(job) = name.strip_suffix(".journal") {
                if check_job_id(job).is_ok() {
                    jobs.push(job.to_string());
                }
            }
        }
        Ok(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pper_vfs::{FaultKind, FaultVfs, IoFaultPlan};

    fn exercise(store: &dyn JournalStore) {
        assert!(matches!(store.read("nope"), Err(JournalError::NotFound(_))));
        assert_eq!(store.append("job-a", b"hello").unwrap(), 0);
        assert_eq!(store.append("job-a", b" world").unwrap(), 5);
        store.sync("job-a").unwrap();
        assert_eq!(store.read("job-a").unwrap(), b"hello world");
        store.truncate_log("job-a", 100).unwrap(); // past end: no-op
        assert_eq!(store.read("job-a").unwrap(), b"hello world");
        store.truncate_log("job-a", 5).unwrap();
        assert_eq!(store.read("job-a").unwrap(), b"hello");
        assert_eq!(store.append("job-a", b" world").unwrap(), 5);
        store.truncate_log("absent", 0).unwrap(); // missing job: no-op
        store.append("job-b", b"x").unwrap();
        assert_eq!(store.list_jobs().unwrap(), vec!["job-a", "job-b"]);
        for bad in ["", "a/b", "..", ".hidden", "spa ce"] {
            assert!(matches!(
                store.append(bad, b"x"),
                Err(JournalError::BadJobId(_))
            ));
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pper-journal-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fault_store(dir: &Path, plan: IoFaultPlan) -> (FileStore, FaultVfs) {
        let fvfs = FaultVfs::new(plan).unwrap();
        let store = FileStore::open_with(Arc::new(fvfs.clone()), dir).unwrap();
        (store, fvfs)
    }

    #[test]
    fn mem_store_contract() {
        exercise(&MemStore::new());
    }

    #[test]
    fn file_store_contract() {
        let dir = tmp_dir("contract");
        let store = FileStore::open(&dir).unwrap();
        exercise(&store);
        // A fresh store over the same directory sees the same bytes.
        let reopened = FileStore::open(&dir).unwrap();
        assert_eq!(reopened.read("job-a").unwrap(), b"hello world");
        assert_eq!(reopened.list_jobs().unwrap(), vec!["job-a", "job-b"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_log_missing_file_is_noop() {
        let dir = tmp_dir("trunc-missing");
        let store = FileStore::open(&dir).unwrap();
        // Never written: truncating must succeed and create nothing.
        store.truncate_log("ghost", 0).unwrap();
        store.truncate_log("ghost", 999).unwrap();
        assert!(!store.path_for("ghost").exists());
        assert!(matches!(
            store.read("ghost"),
            Err(JournalError::NotFound(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_log_permission_denied_is_typed() {
        // Root bypasses real permission bits in this container, so the
        // EACCES branch is exercised with an injected fault instead.
        let dir = tmp_dir("trunc-eacces");
        let plan =
            IoFaultPlan::new().with_at(IoOp::Truncate, "job-a", 0, FaultKind::PermissionDenied);
        let (store, fvfs) = fault_store(&dir, plan);
        store.append("job-a", b"hello world").unwrap();
        let err = store.truncate_log("job-a", 5).unwrap_err();
        match err {
            JournalError::Fault(f) => {
                assert!(f.is_permanent(), "{f}");
                assert_eq!(f.info().op, IoOp::Truncate);
            }
            other => panic!("expected typed fault, got {other:?}"),
        }
        assert_eq!(fvfs.faults_fired(), 1);
        // The log is untouched by the failed truncate.
        assert_eq!(store.read("job-a").unwrap(), b"hello world");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_then_append_round_trips() {
        let dir = tmp_dir("trunc-roundtrip");
        let store = FileStore::open(&dir).unwrap();
        store.append("job-a", b"hello world").unwrap();
        store.sync("job-a").unwrap();
        store.truncate_log("job-a", 5).unwrap();
        // The append lands exactly at the truncation point, through the
        // cached handle that predates the truncate.
        assert_eq!(store.append("job-a", b" again").unwrap(), 5);
        store.sync("job-a").unwrap();
        assert_eq!(store.read("job-a").unwrap(), b"hello again");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_append_fault_is_retried_without_torn_tail() {
        let dir = tmp_dir("append-transient");
        // Write index 0 is the first append; fault the second one, once.
        let plan =
            IoFaultPlan::new().with_at(IoOp::Write, "job-a", 1, FaultKind::Transient { times: 1 });
        let (store, fvfs) = fault_store(&dir, plan);
        store.append("job-a", b"first").unwrap();
        assert_eq!(store.append("job-a", b"second").unwrap(), 5);
        assert!(fvfs.faults_fired() >= 1, "the injected fault must fire");
        assert_eq!(store.read("job-a").unwrap(), b"firstsecond");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_append_is_rolled_back_and_typed() {
        let dir = tmp_dir("append-enospc");
        let plan = IoFaultPlan::new().with_at(IoOp::Write, "job-a", 1, FaultKind::Enospc);
        let (store, _fvfs) = fault_store(&dir, plan);
        store.append("job-a", b"keep").unwrap();
        let err = store.append("job-a", b"lost").unwrap_err();
        match err {
            JournalError::Fault(f) => assert!(f.is_disk_full(), "{f}"),
            other => panic!("expected disk-full fault, got {other:?}"),
        }
        // Rollback: the log still ends at the last successful append.
        assert_eq!(store.read("job-a").unwrap(), b"keep");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
