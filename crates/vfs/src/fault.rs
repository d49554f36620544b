//! Deterministic storage fault injection, mirroring PR 3's compute-side
//! `FaultPlan` style: a plan is a list of rules, each keyed by operation
//! (and optionally a path substring) plus an occurrence index, so the
//! *n*-th matching operation fails in a planned way while everything else
//! passes through untouched.
//!
//! Determinism contract: rule matching counts operations in arrival order
//! under a mutex, so a plan is exactly reproducible when the matching
//! operation stream is itself deterministic — single-threaded consumers,
//! or rules pinned to a specific file via [`IoFaultRule::path_contains`].
//! Chaos suites that fan out across worker threads should pin their rules
//! (spill run files carry unique names) or run with one worker.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::{injected_io_error, FaultClass, IoFault, IoOp, Mmap, Vfs, VfsFile};

/// What an [`IoFaultRule`] does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Write only the first `keep` bytes, then fail transiently — a short
    /// write. (`Write` ops only.)
    ShortWrite {
        /// Bytes actually written before the failure.
        keep: usize,
    },
    /// Permanent out-of-disk-space failure.
    Enospc,
    /// Permanent fsync failure. (`Fsync` ops only.)
    FsyncFail,
    /// EINTR-style transient failure on `times` consecutive matching
    /// operations, then success.
    Transient {
        /// How many consecutive matching operations fail.
        times: u32,
    },
    /// Flip one bit of the bytes read — silent corruption the consumer's
    /// CRC layer must catch. (`Read` ops only.)
    CorruptRead,
    /// Leave the destination half-written and drop the source — a torn
    /// rename, reported as a permanent fault. (`Rename` ops only.)
    TornRename,
    /// Permanent EACCES-style failure.
    PermissionDenied,
    /// Permanent mmap failure — callers degrade to heap reads.
    /// (`Mmap` ops only.)
    MmapFail,
}

/// One injection rule: the `nth` operation of kind `op` whose path contains
/// `path_contains` (all paths when `None`) fails with `kind`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoFaultRule {
    /// Operation the rule matches.
    pub op: IoOp,
    /// Path substring filter; `None` matches every path.
    pub path_contains: Option<String>,
    /// Zero-based index among matching operations at which the rule fires.
    pub nth: u64,
    /// The failure to inject.
    pub kind: FaultKind,
}

/// A deterministic storage fault plan (the I/O analogue of `FaultPlan`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoFaultPlan {
    /// Rules checked in order; the first matching rule that fires wins.
    pub rules: Vec<IoFaultRule>,
}

impl IoFaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a rule firing on the first matching operation on any path.
    pub fn with(mut self, op: IoOp, kind: FaultKind) -> Self {
        self.rules.push(IoFaultRule {
            op,
            path_contains: None,
            nth: 0,
            kind,
        });
        self
    }

    /// Add a rule firing on the `nth` operation whose path contains `frag`.
    pub fn with_at(mut self, op: IoOp, frag: impl Into<String>, nth: u64, kind: FaultKind) -> Self {
        self.rules.push(IoFaultRule {
            op,
            path_contains: Some(frag.into()),
            nth,
            kind,
        });
        self
    }

    /// Check rule/op compatibility (e.g. `ShortWrite` only makes sense on
    /// `Write`), mirroring `FaultPlan::validate`.
    pub fn validate(&self) -> Result<(), String> {
        for (i, rule) in self.rules.iter().enumerate() {
            let ok = match &rule.kind {
                FaultKind::ShortWrite { .. } => rule.op == IoOp::Write,
                FaultKind::FsyncFail => rule.op == IoOp::Fsync,
                FaultKind::CorruptRead => rule.op == IoOp::Read,
                FaultKind::TornRename => rule.op == IoOp::Rename,
                FaultKind::MmapFail => rule.op == IoOp::Mmap,
                FaultKind::Transient { times } => {
                    if *times == 0 {
                        return Err(format!("rule {i}: Transient.times must be positive"));
                    }
                    true
                }
                FaultKind::Enospc | FaultKind::PermissionDenied => true,
            };
            if !ok {
                return Err(format!(
                    "rule {i}: {:?} cannot fire on {} operations",
                    rule.kind, rule.op
                ));
            }
        }
        Ok(())
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct RuleState {
    /// Matching operations observed so far.
    matched: u64,
    /// Times the rule has fired.
    fired: u32,
}

#[derive(Debug)]
struct FaultShared {
    rules: Vec<IoFaultRule>,
    state: Mutex<Vec<RuleState>>,
}

impl FaultShared {
    /// Count this operation against every matching rule and return the
    /// kind of the first rule that fires on it.
    fn fire(&self, op: IoOp, path: &Path) -> Option<FaultKind> {
        let display = path.display().to_string();
        let mut state = self.state.lock();
        let mut hit = None;
        for (rule, st) in self.rules.iter().zip(state.iter_mut()) {
            if rule.op != op {
                continue;
            }
            if let Some(frag) = &rule.path_contains {
                if !display.contains(frag.as_str()) {
                    continue;
                }
            }
            let index = st.matched;
            st.matched += 1;
            if hit.is_some() {
                continue;
            }
            let fires = match &rule.kind {
                FaultKind::Transient { times } => index >= rule.nth && st.fired < *times,
                _ => index == rule.nth && st.fired == 0,
            };
            if fires {
                st.fired += 1;
                hit = Some(rule.kind.clone());
            }
        }
        hit
    }

    fn total_fired(&self) -> u64 {
        self.state.lock().iter().map(|s| s.fired as u64).sum()
    }
}

/// Map a planned [`FaultKind`] to the typed fault it surfaces as: the
/// class, detail and disk-full marker of [`planned_io_error`], recovered by
/// [`IoFault::classify`].
fn planned_fault(kind: &FaultKind, op: IoOp, path: &Path) -> IoFault {
    IoFault::classify(op, path, &planned_io_error(kind))
}

/// A planned [`FaultKind`] as an injected `io::Error`, for [`VfsFile`]
/// methods whose signatures speak `io::Result`.
fn planned_io_error(kind: &FaultKind) -> io::Error {
    let (class, detail, disk_full) = match kind {
        FaultKind::Transient { .. } => (FaultClass::Transient, "transient fault (injected)", false),
        FaultKind::ShortWrite { .. } => (FaultClass::Transient, "short write (injected)", false),
        FaultKind::Enospc => (FaultClass::Permanent, "ENOSPC (injected)", true),
        FaultKind::PermissionDenied => (FaultClass::Permanent, "EACCES (injected)", false),
        FaultKind::FsyncFail => (FaultClass::Permanent, "fsync failed (injected)", false),
        FaultKind::TornRename => (FaultClass::Permanent, "torn rename (injected)", false),
        FaultKind::MmapFail => (FaultClass::Permanent, "mmap failed (injected)", false),
        FaultKind::CorruptRead => (FaultClass::Corrupt, "bit flip (injected)", false),
    };
    injected_io_error(class, detail, disk_full)
}

/// A [`Vfs`] that injects the faults of an [`IoFaultPlan`] over an inner
/// filesystem (the real one by default).
#[derive(Debug, Clone)]
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    shared: Arc<FaultShared>,
}

impl FaultVfs {
    /// Inject `plan` over the passthrough [`crate::StdVfs`].
    pub fn new(plan: IoFaultPlan) -> Result<Self, String> {
        Self::over(crate::std_vfs(), plan)
    }

    /// Inject `plan` over an arbitrary inner filesystem.
    pub fn over(inner: Arc<dyn Vfs>, plan: IoFaultPlan) -> Result<Self, String> {
        plan.validate()?;
        let states = vec![RuleState::default(); plan.rules.len()];
        Ok(FaultVfs {
            inner,
            shared: Arc::new(FaultShared {
                rules: plan.rules,
                state: Mutex::new(states),
            }),
        })
    }

    /// Total rule firings so far — chaos suites assert this is non-zero to
    /// prove the planned site was actually exercised.
    pub fn faults_fired(&self) -> u64 {
        self.shared.total_fired()
    }

    fn wrap(&self, file: Box<dyn VfsFile>, path: &Path) -> Box<dyn VfsFile> {
        Box::new(FaultFile {
            inner: file,
            path: path.to_path_buf(),
            shared: Arc::clone(&self.shared),
        })
    }
}

impl Vfs for FaultVfs {
    fn create(&self, path: &Path) -> Result<Box<dyn VfsFile>, IoFault> {
        if let Some(kind) = self.shared.fire(IoOp::Create, path) {
            return Err(planned_fault(&kind, IoOp::Create, path));
        }
        Ok(self.wrap(self.inner.create(path)?, path))
    }

    fn open(&self, path: &Path) -> Result<Box<dyn VfsFile>, IoFault> {
        if let Some(kind) = self.shared.fire(IoOp::Open, path) {
            return Err(planned_fault(&kind, IoOp::Open, path));
        }
        Ok(self.wrap(self.inner.open(path)?, path))
    }

    fn open_append(&self, path: &Path) -> Result<Box<dyn VfsFile>, IoFault> {
        if let Some(kind) = self.shared.fire(IoOp::Open, path) {
            return Err(planned_fault(&kind, IoOp::Open, path));
        }
        Ok(self.wrap(self.inner.open_append(path)?, path))
    }

    fn try_read(&self, path: &Path) -> Result<Option<Vec<u8>>, IoFault> {
        match self.shared.fire(IoOp::Read, path) {
            Some(FaultKind::CorruptRead) => {
                let bytes = self.inner.try_read(path)?.map(|mut b| {
                    if !b.is_empty() {
                        let mid = b.len() / 2;
                        b[mid] ^= 0x01;
                    }
                    b
                });
                Ok(bytes)
            }
            Some(kind) => Err(planned_fault(&kind, IoOp::Read, path)),
            None => self.inner.try_read(path),
        }
    }

    fn remove(&self, path: &Path) -> Result<(), IoFault> {
        if let Some(kind) = self.shared.fire(IoOp::Remove, path) {
            return Err(planned_fault(&kind, IoOp::Remove, path));
        }
        self.inner.remove(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), IoFault> {
        match self.shared.fire(IoOp::Rename, from) {
            Some(FaultKind::TornRename) => {
                // Simulate a crash mid-publish: the destination receives
                // only the first half of the bytes, the source is gone.
                if let Some(bytes) = self.inner.try_read(from)? {
                    let mut dst = self.inner.create(to)?;
                    let half = &bytes[..bytes.len() / 2];
                    dst.write_all(half)
                        .and_then(|()| dst.flush())
                        .map_err(|e| IoFault::classify(IoOp::Write, to, &e))?;
                    self.inner.remove(from)?;
                }
                Err(planned_fault(&FaultKind::TornRename, IoOp::Rename, from))
            }
            Some(kind) => Err(planned_fault(&kind, IoOp::Rename, from)),
            None => self.inner.rename(from, to),
        }
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<bool, IoFault> {
        if let Some(kind) = self.shared.fire(IoOp::Truncate, path) {
            return Err(planned_fault(&kind, IoOp::Truncate, path));
        }
        self.inner.truncate(path, len)
    }

    fn create_dir_all(&self, path: &Path) -> Result<(), IoFault> {
        self.inner.create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> Result<Vec<String>, IoFault> {
        if let Some(kind) = self.shared.fire(IoOp::List, path) {
            return Err(planned_fault(&kind, IoOp::List, path));
        }
        self.inner.list_dir(path)
    }

    fn mmap(&self, path: &Path) -> Result<Option<Mmap>, IoFault> {
        if let Some(kind) = self.shared.fire(IoOp::Mmap, path) {
            return Err(planned_fault(&kind, IoOp::Mmap, path));
        }
        self.inner.mmap(path)
    }
}

/// A file handle that consults the plan on every read/write/fsync.
#[derive(Debug)]
struct FaultFile {
    inner: Box<dyn VfsFile>,
    path: PathBuf,
    shared: Arc<FaultShared>,
}

impl io::Read for FaultFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.shared.fire(IoOp::Read, &self.path) {
            Some(FaultKind::CorruptRead) => {
                let n = self.inner.read(buf)?;
                if n > 0 {
                    buf[0] ^= 0x01;
                }
                Ok(n)
            }
            Some(kind) => Err(planned_io_error(&kind)),
            None => self.inner.read(buf),
        }
    }
}

impl io::Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.shared.fire(IoOp::Write, &self.path) {
            Some(FaultKind::ShortWrite { keep }) => {
                let keep = keep.min(buf.len());
                if keep > 0 {
                    self.inner.write_all(&buf[..keep])?;
                }
                Err(planned_io_error(&FaultKind::ShortWrite { keep }))
            }
            Some(kind) => Err(planned_io_error(&kind)),
            None => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl io::Seek for FaultFile {
    fn seek(&mut self, pos: io::SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

impl VfsFile for FaultFile {
    fn sync_data(&mut self) -> io::Result<()> {
        if let Some(kind) = self.shared.fire(IoOp::Fsync, &self.path) {
            return Err(planned_io_error(&kind));
        }
        self.inner.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        if let Some(kind) = self.shared.fire(IoOp::Truncate, &self.path) {
            return Err(planned_io_error(&kind));
        }
        self.inner.set_len(len)
    }

    fn byte_len(&mut self) -> io::Result<u64> {
        self.inner.byte_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IoFaultInfo;
    use std::io::{Read, Write};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pper-faultvfs-{}-{name}", std::process::id()))
    }

    #[test]
    fn validate_rejects_mismatched_kinds() {
        let plan = IoFaultPlan::new().with(IoOp::Read, FaultKind::ShortWrite { keep: 1 });
        assert!(plan.validate().is_err());
        let plan = IoFaultPlan::new().with(IoOp::Write, FaultKind::Transient { times: 0 });
        assert!(plan.validate().is_err());
        let plan = IoFaultPlan::new()
            .with(IoOp::Write, FaultKind::Enospc)
            .with(IoOp::Fsync, FaultKind::FsyncFail)
            .with(IoOp::Mmap, FaultKind::MmapFail);
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn nth_write_fails_with_enospc() {
        let path = tmp("enospc");
        let plan = IoFaultPlan::new().with_at(IoOp::Write, "enospc", 1, FaultKind::Enospc);
        let vfs = FaultVfs::new(plan).unwrap();
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"first").unwrap(); // write #0 passes
        let err = f.write_all(b"second").unwrap_err(); // write #1 injected
        let fault = IoFault::classify(IoOp::Write, &path, &err);
        assert!(fault.is_permanent() && fault.is_disk_full(), "{fault}");
        assert_eq!(vfs.faults_fired(), 1);
        drop(f);
        cleanup(&path);
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn transient_fails_then_recovers() {
        let path = tmp("transient");
        let plan = IoFaultPlan::new().with(IoOp::Write, FaultKind::Transient { times: 2 });
        let vfs = FaultVfs::new(plan).unwrap();
        let mut f = vfs.create(&path).unwrap();
        for _ in 0..2 {
            let err = f.write(b"x").unwrap_err();
            assert!(IoFault::classify(IoOp::Write, &path, &err).is_transient());
        }
        f.write_all(b"ok").unwrap(); // third attempt passes
        assert_eq!(vfs.faults_fired(), 2);
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"ok");
        cleanup(&path);
    }

    #[test]
    fn short_write_leaves_prefix_then_errors() {
        let path = tmp("short");
        let plan = IoFaultPlan::new().with(IoOp::Write, FaultKind::ShortWrite { keep: 3 });
        let vfs = FaultVfs::new(plan).unwrap();
        let mut f = vfs.create(&path).unwrap();
        let err = f.write_all(b"abcdef").unwrap_err();
        assert!(IoFault::classify(IoOp::Write, &path, &err).is_transient());
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"abc");
        cleanup(&path);
    }

    #[test]
    fn corrupt_read_flips_one_bit() {
        let path = tmp("corrupt");
        std::fs::write(&path, b"payload").unwrap();
        let plan = IoFaultPlan::new().with(IoOp::Read, FaultKind::CorruptRead);
        let vfs = FaultVfs::new(plan).unwrap();
        let mut f = vfs.open(&path).unwrap();
        let mut buf = vec![0u8; 7];
        f.read_exact(&mut buf).unwrap();
        assert_ne!(buf, b"payload");
        assert_eq!(buf[0] ^ 0x01, b'p');
        assert_eq!(&buf[1..], &b"payload"[1..]);
        cleanup(&path);
    }

    #[test]
    fn corrupt_whole_file_read_flips_middle_byte() {
        let path = tmp("corrupt-whole");
        std::fs::write(&path, b"0123456789").unwrap();
        let plan = IoFaultPlan::new().with(IoOp::Read, FaultKind::CorruptRead);
        let vfs = FaultVfs::new(plan).unwrap();
        let bytes = vfs.try_read(&path).unwrap().unwrap();
        assert_eq!(bytes[5] ^ 0x01, b'5');
        assert_eq!(&bytes[..5], b"01234");
        cleanup(&path);
    }

    #[test]
    fn fsync_failure_is_permanent() {
        let path = tmp("fsync");
        let plan = IoFaultPlan::new().with(IoOp::Fsync, FaultKind::FsyncFail);
        let vfs = FaultVfs::new(plan).unwrap();
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"x").unwrap();
        let err = f.sync_data().unwrap_err();
        assert!(IoFault::classify(IoOp::Fsync, &path, &err).is_permanent());
        drop(f);
        cleanup(&path);
    }

    #[test]
    fn torn_rename_leaves_half_destination() {
        let src = tmp("torn-src");
        let dst = tmp("torn-dst");
        std::fs::write(&src, b"ABCDEFGH").unwrap();
        let plan = IoFaultPlan::new().with(IoOp::Rename, FaultKind::TornRename);
        let vfs = FaultVfs::new(plan).unwrap();
        let err = vfs.rename(&src, &dst).unwrap_err();
        assert!(err.is_permanent());
        assert!(!src.exists());
        assert_eq!(std::fs::read(&dst).unwrap(), b"ABCD");
        // A later rename passes through (rule fired once).
        std::fs::write(&src, b"again").unwrap();
        vfs.rename(&src, &dst).unwrap();
        assert_eq!(std::fs::read(&dst).unwrap(), b"again");
        cleanup(&dst);
    }

    #[test]
    fn mmap_fault_reports_permanent() {
        let path = tmp("mmapfail");
        std::fs::write(&path, b"data").unwrap();
        let plan = IoFaultPlan::new().with(IoOp::Mmap, FaultKind::MmapFail);
        let vfs = FaultVfs::new(plan).unwrap();
        let err = vfs.mmap(&path).unwrap_err();
        assert!(err.is_permanent());
        // Heap read still works — the degradation path the store takes.
        assert_eq!(vfs.read(&path).unwrap(), b"data");
        cleanup(&path);
    }

    #[test]
    fn path_filter_scopes_rules() {
        let hit = tmp("filter-hit");
        let miss = tmp("filter-miss");
        let plan = IoFaultPlan::new().with_at(IoOp::Create, "filter-hit", 0, FaultKind::Enospc);
        let vfs = FaultVfs::new(plan).unwrap();
        drop(vfs.create(&miss).unwrap());
        assert!(vfs.create(&hit).unwrap_err().is_disk_full());
        assert_eq!(vfs.faults_fired(), 1);
        cleanup(&miss);
    }

    #[test]
    fn info_accessors_expose_site() {
        let f = IoFault::Permanent(IoFaultInfo {
            op: IoOp::Rename,
            path: "/a/b".into(),
            detail: "torn".into(),
            disk_full: false,
        });
        assert_eq!(f.info().op, IoOp::Rename);
        assert_eq!(f.info().path, "/a/b");
    }
}
