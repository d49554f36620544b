//! Virtual filesystem seam for the out-of-core path.
//!
//! PR 3 made *compute* faults injectable (`FaultPlan`: task panics, worker
//! crashes); this crate does the same for *storage*. Every out-of-core
//! consumer in the workspace — the external sorter's spill runs, the
//! shuffle spill path, the columnar store builder/reader, and the journal
//! `FileStore` — routes its file operations through the [`Vfs`] trait
//! instead of `std::fs` (invariant D5, `crates/clippy.toml`). Production code
//! uses the passthrough [`StdVfs`]; chaos suites substitute a
//! [`fault::FaultVfs`] driven by a deterministic [`fault::IoFaultPlan`].
//!
//! Failures carry a typed taxonomy, [`IoFault`], with three classes that
//! drive three different recovery ladders:
//!
//! * [`IoFault::Transient`] — EINTR-style blips worth retrying in place
//!   with bounded, deterministic backoff ([`retry_io`]).
//! * [`IoFault::Permanent`] — ENOSPC, EACCES, fsync failure: retrying is
//!   pointless; callers degrade (spill falls back in-memory, mmap falls
//!   back to the heap reader) or surface the typed error.
//! * [`IoFault::Corrupt`] — CRC-checked payload mismatch on read-back:
//!   the artifact is quarantined and the producing stage re-runs.
//!
//! The backoff is *accounted, not slept*: like the rest of the simulator,
//! retries charge deterministic virtual backoff units instead of consulting
//! the wall clock (this crate's `clippy.toml` forbids `Instant::now` anyway).

// D2 (`clippy.toml`) and no `unwrap`/`expect` in library code.
#![cfg_attr(
    not(test),
    deny(clippy::disallowed_methods, clippy::unwrap_used, clippy::expect_used)
)]

pub mod fault;
mod mmap;

pub use fault::{FaultKind, FaultVfs, IoFaultPlan, IoFaultRule};
pub use mmap::Mmap;

use std::io;
use std::path::Path;
use std::sync::Arc;

/// Which filesystem operation a fault was observed on. Also the key an
/// [`IoFaultRule`] matches against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IoOp {
    Create,
    Open,
    Read,
    Write,
    Fsync,
    Rename,
    Remove,
    Truncate,
    Mmap,
    List,
}

impl std::fmt::Display for IoOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            IoOp::Create => "create",
            IoOp::Open => "open",
            IoOp::Read => "read",
            IoOp::Write => "write",
            IoOp::Fsync => "fsync",
            IoOp::Rename => "rename",
            IoOp::Remove => "remove",
            IoOp::Truncate => "truncate",
            IoOp::Mmap => "mmap",
            IoOp::List => "list",
        };
        f.write_str(s)
    }
}

/// What failed, where, and why — shared payload of every [`IoFault`] class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoFaultInfo {
    /// The operation that failed.
    pub op: IoOp,
    /// Path the operation targeted (display form; empty when unknown).
    pub path: String,
    /// Human-readable cause.
    pub detail: String,
    /// True when the cause is disk exhaustion (ENOSPC) — the signal the
    /// spill path uses to engage its in-memory fallback.
    pub disk_full: bool,
}

/// Typed storage-fault taxonomy. The class, not the errno, is what callers
/// dispatch on: transient → retry, permanent → degrade or surface, corrupt
/// → quarantine and re-run the producer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoFault {
    /// Worth retrying in place (EINTR/EAGAIN-style blips, injected
    /// transient faults).
    Transient(IoFaultInfo),
    /// Retrying cannot help (ENOSPC, EACCES, fsync failure, missing file).
    Permanent(IoFaultInfo),
    /// The bytes came back but fail integrity checks (CRC mismatch,
    /// truncated frame, torn artifact).
    Corrupt(IoFaultInfo),
}

impl IoFault {
    fn info_new(op: IoOp, path: &Path, detail: impl Into<String>) -> IoFaultInfo {
        IoFaultInfo {
            op,
            path: path.display().to_string(),
            detail: detail.into(),
            disk_full: false,
        }
    }

    /// A transient fault (retryable).
    pub fn transient(op: IoOp, path: &Path, detail: impl Into<String>) -> Self {
        IoFault::Transient(Self::info_new(op, path, detail))
    }

    /// A permanent fault (not retryable).
    pub fn permanent(op: IoOp, path: &Path, detail: impl Into<String>) -> Self {
        IoFault::Permanent(Self::info_new(op, path, detail))
    }

    /// A disk-full (ENOSPC) permanent fault.
    pub fn disk_full(op: IoOp, path: &Path, detail: impl Into<String>) -> Self {
        let mut info = Self::info_new(op, path, detail);
        info.disk_full = true;
        IoFault::Permanent(info)
    }

    /// A corruption fault (quarantine + re-run the producer).
    pub fn corrupt(op: IoOp, path: &Path, detail: impl Into<String>) -> Self {
        IoFault::Corrupt(Self::info_new(op, path, detail))
    }

    /// The shared payload.
    pub fn info(&self) -> &IoFaultInfo {
        match self {
            IoFault::Transient(i) | IoFault::Permanent(i) | IoFault::Corrupt(i) => i,
        }
    }

    /// True for [`IoFault::Transient`].
    pub fn is_transient(&self) -> bool {
        matches!(self, IoFault::Transient(_))
    }

    /// True for [`IoFault::Permanent`].
    pub fn is_permanent(&self) -> bool {
        matches!(self, IoFault::Permanent(_))
    }

    /// True for [`IoFault::Corrupt`].
    pub fn is_corrupt(&self) -> bool {
        matches!(self, IoFault::Corrupt(_))
    }

    /// True when the underlying cause is disk exhaustion.
    pub fn is_disk_full(&self) -> bool {
        self.info().disk_full
    }

    /// Classify a raw `std::io::Error` from operation `op` on `path`.
    ///
    /// Injected faults (carried as an [`InjectedFault`] payload by
    /// [`fault::FaultVfs`]) keep their planned class; real errors map by
    /// errno/kind: interruption and timeouts are transient, ENOSPC and
    /// everything else permanent, and `InvalidData`/`UnexpectedEof` —
    /// std's vocabulary for "the bytes are wrong" — corrupt.
    pub fn classify(op: IoOp, path: &Path, err: &io::Error) -> Self {
        if let Some(inj) = err
            .get_ref()
            .and_then(|r| r.downcast_ref::<InjectedFault>())
        {
            let mut info = Self::info_new(op, path, inj.detail.clone());
            info.disk_full = inj.disk_full;
            return match inj.class {
                FaultClass::Transient => IoFault::Transient(info),
                FaultClass::Permanent => IoFault::Permanent(info),
                FaultClass::Corrupt => IoFault::Corrupt(info),
            };
        }
        // ENOSPC carries errno 28 on Linux; `ErrorKind::StorageFull` is not
        // matched by name to keep the MSRV conservative.
        if err.raw_os_error() == Some(28) {
            return Self::disk_full(op, path, err.to_string());
        }
        match err.kind() {
            io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => {
                Self::transient(op, path, err.to_string())
            }
            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof => {
                Self::corrupt(op, path, err.to_string())
            }
            _ => Self::permanent(op, path, err.to_string()),
        }
    }
}

impl std::fmt::Display for IoFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let class = match self {
            IoFault::Transient(_) => "transient",
            IoFault::Permanent(_) => "permanent",
            IoFault::Corrupt(_) => "corrupt",
        };
        let i = self.info();
        write!(
            f,
            "{class} I/O fault during {} on `{}`: {}",
            i.op, i.path, i.detail
        )
    }
}

impl std::error::Error for IoFault {}

/// Fault class carried inside an injected `std::io::Error` so
/// [`IoFault::classify`] can recover the planned taxonomy after the error
/// has tunneled through `Read`/`Write` trait boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    Transient,
    Permanent,
    Corrupt,
}

/// The payload [`fault::FaultVfs`] attaches to injected `io::Error`s.
#[derive(Debug)]
pub struct InjectedFault {
    /// Planned fault class, recovered verbatim by [`IoFault::classify`].
    pub class: FaultClass,
    /// Human-readable cause, always marked `(injected)`.
    pub detail: String,
    /// True for injected ENOSPC.
    pub disk_full: bool,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.detail)
    }
}

impl std::error::Error for InjectedFault {}

/// Build an `io::Error` carrying an [`InjectedFault`] payload.
pub fn injected_io_error(
    class: FaultClass,
    detail: impl Into<String>,
    disk_full: bool,
) -> io::Error {
    io::Error::other(InjectedFault {
        class,
        detail: detail.into(),
        disk_full,
    })
}

/// An open file handle behind the [`Vfs`] seam.
///
/// The supertraits make `Box<dyn VfsFile>` usable directly under
/// `BufReader`/`BufWriter` (std blankets `Read`/`Write` over boxed trait
/// objects), so consumers keep their buffered-I/O structure.
pub trait VfsFile: io::Read + io::Write + io::Seek + Send + std::fmt::Debug {
    /// Flush file data to stable storage (`fdatasync`).
    fn sync_data(&mut self) -> io::Result<()>;
    /// Truncate or extend the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Current file length in bytes.
    fn byte_len(&mut self) -> io::Result<u64>;
}

/// Filesystem operations the out-of-core path needs, with typed faults.
///
/// Implementations must be cheap to share (`Arc<dyn Vfs>`) and safe to use
/// from many worker threads at once.
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// Create (truncating) a file for writing.
    fn create(&self, path: &Path) -> Result<Box<dyn VfsFile>, IoFault>;

    /// Open an existing file for reading.
    fn open(&self, path: &Path) -> Result<Box<dyn VfsFile>, IoFault>;

    /// Open for appending, creating the file if missing.
    fn open_append(&self, path: &Path) -> Result<Box<dyn VfsFile>, IoFault>;

    /// Read a whole file; `Ok(None)` when it does not exist.
    fn try_read(&self, path: &Path) -> Result<Option<Vec<u8>>, IoFault>;

    /// Read a whole file; a missing file is a permanent fault.
    fn read(&self, path: &Path) -> Result<Vec<u8>, IoFault> {
        self.try_read(path)?
            .ok_or_else(|| IoFault::permanent(IoOp::Open, path, "file not found"))
    }

    /// Remove a file; a missing file is not an error.
    fn remove(&self, path: &Path) -> Result<(), IoFault>;

    /// Atomically rename `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> Result<(), IoFault>;

    /// Truncate `path` to at most `len` bytes and sync; returns `false`
    /// (without error) when the file does not exist.
    fn truncate(&self, path: &Path, len: u64) -> Result<bool, IoFault>;

    /// Create a directory and all parents.
    fn create_dir_all(&self, path: &Path) -> Result<(), IoFault>;

    /// File names (not paths) in a directory, sorted for determinism.
    fn list_dir(&self, path: &Path) -> Result<Vec<String>, IoFault>;

    /// Memory-map a file read-only; `Ok(None)` when the platform has no
    /// mmap support (the caller falls back to a heap read).
    fn mmap(&self, path: &Path) -> Result<Option<Mmap>, IoFault>;
}

/// Passthrough [`Vfs`] over `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdVfs;

/// A shared handle to the passthrough [`StdVfs`].
pub fn std_vfs() -> Arc<dyn Vfs> {
    Arc::new(StdVfs)
}

/// `std::fs::File` behind the [`VfsFile`] trait.
#[derive(Debug)]
pub struct StdFile(std::fs::File);

impl io::Read for StdFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        io::Read::read(&mut self.0, buf)
    }
}

impl io::Write for StdFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        io::Write::write(&mut self.0, buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        io::Write::flush(&mut self.0)
    }
}

impl io::Seek for StdFile {
    fn seek(&mut self, pos: io::SeekFrom) -> io::Result<u64> {
        io::Seek::seek(&mut self.0, pos)
    }
}

impl VfsFile for StdFile {
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
    fn byte_len(&mut self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }
}

fn cls(op: IoOp, path: &Path) -> impl Fn(io::Error) -> IoFault + '_ {
    move |e| IoFault::classify(op, path, &e)
}

impl Vfs for StdVfs {
    fn create(&self, path: &Path) -> Result<Box<dyn VfsFile>, IoFault> {
        let f = std::fs::File::create(path).map_err(cls(IoOp::Create, path))?;
        Ok(Box::new(StdFile(f)))
    }

    fn open(&self, path: &Path) -> Result<Box<dyn VfsFile>, IoFault> {
        let f = std::fs::File::open(path).map_err(cls(IoOp::Open, path))?;
        Ok(Box::new(StdFile(f)))
    }

    fn open_append(&self, path: &Path) -> Result<Box<dyn VfsFile>, IoFault> {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path)
            .map_err(cls(IoOp::Open, path))?;
        Ok(Box::new(StdFile(f)))
    }

    fn try_read(&self, path: &Path) -> Result<Option<Vec<u8>>, IoFault> {
        match std::fs::read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(IoFault::classify(IoOp::Read, path, &e)),
        }
    }

    fn remove(&self, path: &Path) -> Result<(), IoFault> {
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(IoFault::classify(IoOp::Remove, path, &e)),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), IoFault> {
        std::fs::rename(from, to).map_err(cls(IoOp::Rename, from))
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<bool, IoFault> {
        let file = match std::fs::OpenOptions::new().write(true).open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(IoFault::classify(IoOp::Truncate, path, &e)),
        };
        let err = cls(IoOp::Truncate, path);
        let current = file.metadata().map_err(&err)?.len();
        if current > len {
            file.set_len(len).map_err(&err)?;
            file.sync_data().map_err(&err)?;
        }
        Ok(true)
    }

    fn create_dir_all(&self, path: &Path) -> Result<(), IoFault> {
        std::fs::create_dir_all(path).map_err(cls(IoOp::Create, path))
    }

    fn list_dir(&self, path: &Path) -> Result<Vec<String>, IoFault> {
        let err = cls(IoOp::List, path);
        let mut names = Vec::new();
        for entry in std::fs::read_dir(path).map_err(&err)? {
            let entry = entry.map_err(&err)?;
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }

    fn mmap(&self, path: &Path) -> Result<Option<Mmap>, IoFault> {
        #[cfg(target_os = "linux")]
        {
            let file = std::fs::File::open(path).map_err(cls(IoOp::Open, path))?;
            let map = Mmap::map_readonly(&file).map_err(cls(IoOp::Mmap, path))?;
            Ok(Some(map))
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = path;
            Ok(None)
        }
    }
}

/// Bounded deterministic retry policy for transient faults.
///
/// `max_attempts` counts total tries (so `3` = one try plus up to two
/// retries); each retry charges `backoff_unit << retry_index` virtual
/// backoff units — exponential backoff that is *accounted*, never slept,
/// so replays stay bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (≥ 1) before a transient fault is surfaced.
    pub max_attempts: u32,
    /// Virtual backoff units charged for the first retry; doubles per retry.
    pub backoff_unit: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_unit: 1,
        }
    }
}

/// What a [`retry_io`] call actually did, for counters and cost accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Retries performed (0 when the first attempt succeeded).
    pub retries: u32,
    /// Total virtual backoff units charged.
    pub backoff_units: u64,
}

/// Run `op`, retrying [`IoFault::Transient`] failures up to the policy's
/// attempt budget. Permanent and corrupt faults are surfaced immediately.
pub fn retry_io<T>(
    policy: &RetryPolicy,
    mut op: impl FnMut() -> Result<T, IoFault>,
) -> (Result<T, IoFault>, RetryStats) {
    let attempts = policy.max_attempts.max(1);
    let mut stats = RetryStats::default();
    loop {
        match op() {
            Ok(v) => return (Ok(v), stats),
            Err(fault) => {
                if !fault.is_transient() || stats.retries + 1 >= attempts {
                    return (Err(fault), stats);
                }
                stats.backoff_units += policy.backoff_unit << stats.retries;
                stats.retries += 1;
            }
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected): the workspace's one checksum — journal
/// frames, external-sort runs and store sections all call it — kept beside
/// the fault taxonomy that classifies a mismatch.
///
/// Slicing-by-8: `CRC32_TABLES[0]` is the classic byte-at-a-time table,
/// and `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so eight input bytes fold into the state with eight independent
/// lookups instead of a chain of eight dependent ones.
const CRC32_TABLES: [[u32; 256]; 8] = build_crc32_tables();

const fn build_crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Incremental CRC-32 over a byte stream.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = self.state ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            self.state = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][c[4] as usize]
                ^ t[2][c[5] as usize]
                ^ t[1][c[6] as usize]
                ^ t[0][c[7] as usize];
        }
        self.update_bytewise(chunks.remainder());
    }

    /// One byte per step: the tail of [`Crc32::update`], and the reference
    /// its tests hold the sliced loop to.
    fn update_bytewise(&mut self, bytes: &[u8]) {
        for &b in bytes {
            let idx = ((self.state ^ b as u32) & 0xFF) as usize;
            self.state = (self.state >> 8) ^ CRC32_TABLES[0][idx];
        }
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pper-vfs-{}-{name}", std::process::id()))
    }

    #[test]
    fn crc32_known_vector() {
        // "123456789" is the canonical CRC-32/IEEE check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let mut inc = Crc32::new();
        inc.update(b"1234");
        inc.update(b"56789");
        assert_eq!(inc.finish(), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = Crc32::new();
        c.update_bytewise(bytes);
        c.finish()
    }

    /// `pper-store` streams through one `Crc32`: wherever the stream is
    /// split — so at every phase of the eight-byte stride — the digest is
    /// the one-shot digest.
    #[test]
    fn crc32_split_at_every_offset_equals_one_shot() {
        let input: Vec<u8> = (0..64u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        let whole = crc32(&input);
        assert_eq!(whole, crc32_bytewise(&input));
        for split in 0..=input.len() {
            let mut inc = Crc32::new();
            inc.update(&input[..split]);
            inc.update(&input[split..]);
            assert_eq!(inc.finish(), whole, "split at {split}");
        }
    }

    proptest::proptest! {
        #[test]
        fn crc32_sliced_equals_bytewise(
            bytes in proptest::collection::vec(0u8..=255, 0..300),
        ) {
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
        }
    }

    #[test]
    fn std_vfs_round_trip() {
        let vfs = StdVfs;
        let path = tmp("roundtrip");
        {
            let mut f = vfs.create(&path).unwrap();
            use std::io::Write;
            f.write_all(b"hello vfs").unwrap();
            f.sync_data().unwrap();
            assert_eq!(f.byte_len().unwrap(), 9);
        }
        assert_eq!(vfs.read(&path).unwrap(), b"hello vfs");
        assert_eq!(vfs.try_read(&path).unwrap().unwrap(), b"hello vfs");
        let renamed = tmp("roundtrip2");
        vfs.rename(&path, &renamed).unwrap();
        assert!(vfs.try_read(&path).unwrap().is_none());
        assert!(vfs.truncate(&renamed, 5).unwrap());
        assert_eq!(vfs.read(&renamed).unwrap(), b"hello");
        vfs.remove(&renamed).unwrap();
        vfs.remove(&renamed).unwrap(); // second remove: not an error
        assert!(!vfs.truncate(&renamed, 0).unwrap());
    }

    #[test]
    fn missing_file_reads_as_none_and_permanent() {
        let vfs = StdVfs;
        let path = tmp("missing");
        assert!(vfs.try_read(&path).unwrap().is_none());
        let err = vfs.read(&path).unwrap_err();
        assert!(err.is_permanent(), "{err}");
        let err = vfs.open(&path).unwrap_err();
        assert!(err.is_permanent());
        assert_eq!(err.info().op, IoOp::Open);
    }

    #[test]
    fn list_dir_is_sorted() {
        let vfs = StdVfs;
        let dir = tmp("listdir");
        vfs.create_dir_all(&dir).unwrap();
        for name in ["b.x", "a.x", "c.x"] {
            drop(vfs.create(&dir.join(name)).unwrap());
        }
        assert_eq!(vfs.list_dir(&dir).unwrap(), vec!["a.x", "b.x", "c.x"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn mmap_reads_file() {
        let vfs = StdVfs;
        let path = tmp("mmap");
        std::fs::write(&path, b"mapped").unwrap();
        let map = vfs.mmap(&path).unwrap().unwrap();
        assert_eq!(&*map, b"mapped");
        drop(map);
        vfs.remove(&path).unwrap();
    }

    #[test]
    fn classify_maps_kinds() {
        let p = Path::new("/x/y");
        let t = IoFault::classify(
            IoOp::Read,
            p,
            &io::Error::new(io::ErrorKind::Interrupted, "eintr"),
        );
        assert!(t.is_transient());
        let c = IoFault::classify(
            IoOp::Read,
            p,
            &io::Error::new(io::ErrorKind::UnexpectedEof, "eof"),
        );
        assert!(c.is_corrupt());
        let perm = IoFault::classify(
            IoOp::Write,
            p,
            &io::Error::new(io::ErrorKind::PermissionDenied, "eacces"),
        );
        assert!(perm.is_permanent());
        let full = IoFault::classify(IoOp::Write, p, &io::Error::from_raw_os_error(28));
        assert!(full.is_permanent() && full.is_disk_full());
        let inj = injected_io_error(FaultClass::Corrupt, "flip (injected)", false);
        let back = IoFault::classify(IoOp::Read, p, &inj);
        assert!(back.is_corrupt());
        assert_eq!(back.info().detail, "flip (injected)");
    }

    #[test]
    fn retry_recovers_transient_and_charges_backoff() {
        let policy = RetryPolicy {
            max_attempts: 4,
            backoff_unit: 2,
        };
        let mut fails = 2;
        let (res, stats) = retry_io(&policy, || {
            if fails > 0 {
                fails -= 1;
                Err(IoFault::transient(IoOp::Write, Path::new("/s"), "blip"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(res.unwrap(), 42);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.backoff_units, 2 + 4); // 2<<0 + 2<<1
    }

    #[test]
    fn retry_surfaces_permanent_immediately_and_exhausts_transient() {
        let policy = RetryPolicy::default();
        let mut calls = 0;
        let (res, stats) = retry_io(&policy, || {
            calls += 1;
            Err::<(), _>(IoFault::disk_full(IoOp::Write, Path::new("/s"), "enospc"))
        });
        assert!(res.unwrap_err().is_disk_full());
        assert_eq!((calls, stats.retries), (1, 0));

        let mut calls = 0;
        let (res, stats) = retry_io(&policy, || {
            calls += 1;
            Err::<(), _>(IoFault::transient(IoOp::Write, Path::new("/s"), "blip"))
        });
        assert!(res.unwrap_err().is_transient());
        assert_eq!(calls, 3);
        assert_eq!(stats.retries, 2);
    }

    #[test]
    fn fault_display_names_class_op_path() {
        let f = IoFault::corrupt(IoOp::Read, Path::new("/spill/run0"), "crc mismatch");
        let s = f.to_string();
        assert!(s.contains("corrupt") && s.contains("read") && s.contains("/spill/run0"));
    }
}
