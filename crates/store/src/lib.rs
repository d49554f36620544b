//! # pper-store
//!
//! Out-of-core columnar entity store: a compact on-disk layout for entity
//! attribute data, written by a streaming builder and read back zero-copy
//! through an mmap (or heap) backing.
//!
//! The paper's headline experiments resolve ~30M OL-Books entities — far
//! more than fit in memory as `Vec<Entity>` rows (`Vec<String>` per entity
//! costs ~24 bytes of header per attribute before any character data). This
//! crate stores the same information as three flat sections:
//!
//! ```text
//! ┌────────────┬──────────────────┬──────────────────────┬───────────────┐
//! │ header 64B │ attribute arena  │ offsets (n·a+1)×u64  │ labels n×u32  │
//! │ magic, n,  │ utf-8 bytes of   │ offsets[e·a + j] ..  │ optional      │
//! │ a, lens,   │ every attribute, │ offsets[e·a + j + 1] │ ground-truth  │
//! │ crc        │ concatenated     │ = attr j of entity e │ cluster ids   │
//! └────────────┴──────────────────┴──────────────────────┴───────────────┘
//! ```
//!
//! * [`StoreBuilder`] streams entities in one at a time: attribute bytes go
//!   into a `<path>.building` staging file's arena section, offsets and
//!   labels into sidecar temp files that are stitched on
//!   [`StoreBuilder::finish`] — so building a 30M-entity store needs O(1)
//!   memory. The finished store is published with an atomic rename, so a
//!   crash or fault mid-build never leaves a half-written file under the
//!   final name.
//! * [`EntityStore`] opens the file mmap-backed on Linux (falling back to a
//!   heap read elsewhere — or when the mmap itself fails at runtime —
//!   behind the same API) and serves `&str` attribute views directly out of
//!   the mapping: no per-row `Vec<String>` materialization, feeding
//!   `PreparedRule::prepare` zero-copy.
//!
//! All file operations route through [`pper_vfs::Vfs`] (invariant D5 bans
//! direct `std::fs` here), so chaos suites can inject disk faults;
//! failures surface as the typed [`pper_vfs::IoFault`] taxonomy via
//! [`StoreError::Fault`]. The header carries a CRC-32 of everything after
//! it: heap-backed opens verify it eagerly (the bytes were just streamed
//! anyway), mmap-backed opens stay lazy and can be checked on demand with
//! [`EntityStore::verify`].
//!
//! The store is an *artifact* format, not an interchange format: it is
//! always produced and consumed by the same build on the same machine, so
//! integers are little-endian with no cross-version migration support
//! beyond the magic/version check.

// Determinism invariants D1, D2, D4 and D5 in library code; the methods and
// types are listed in `crates/clippy.toml` (DESIGN.md § "Determinism
// invariants & static enforcement"), and C1: a truncating cast in the codec
// corrupts the artifact silently.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::iter_over_hash_type,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]

use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pper_vfs::{crc32, Crc32, IoFault, IoOp, Vfs, VfsFile};

pub use pper_vfs::Mmap;

/// File magic: "PPERCOL1".
const MAGIC: [u8; 8] = *b"PPERCOL1";
/// Format version (2 added the header CRC and atomic staging publish).
const VERSION: u32 = 2;
/// Fixed header size in bytes.
const HEADER_LEN: usize = 64;

/// Errors from building or opening a store.
#[derive(Debug)]
pub enum StoreError {
    /// Typed storage fault from the VFS layer (transient/permanent/corrupt).
    Fault(IoFault),
    /// Structural problem with the file or a misuse of the API.
    Format(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Fault(e) => write!(f, "store i/o fault: {e}"),
            StoreError::Format(msg) => write!(f, "store format error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<IoFault> for StoreError {
    fn from(e: IoFault) -> Self {
        StoreError::Fault(e)
    }
}

impl StoreError {
    /// The typed fault, when this is a [`StoreError::Fault`].
    pub fn fault(&self) -> Option<&IoFault> {
        match self {
            StoreError::Fault(f) => Some(f),
            StoreError::Format(_) => None,
        }
    }
}

fn format_err(msg: impl Into<String>) -> StoreError {
    StoreError::Format(msg.into())
}

/// Map a raw io::Error from operation `op` on `path` into a typed fault.
fn fault_err(op: IoOp, path: &Path) -> impl Fn(std::io::Error) -> StoreError + '_ {
    move |e| StoreError::Fault(IoFault::classify(op, path, &e))
}

/// Summary returned by [`StoreBuilder::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSummary {
    /// Number of entities written.
    pub entities: u64,
    /// Total attribute-arena bytes.
    pub arena_bytes: u64,
    /// Total file size in bytes.
    pub file_bytes: u64,
}

/// Streaming store writer: entities go in one at a time and never
/// accumulate in memory.
///
/// Attribute bytes are appended directly to a `<path>.building` staging
/// file (after a placeholder header); the offset index and optional label
/// column stream into `<path>.offsets.tmp` / `<path>.labels.tmp` sidecars
/// that are concatenated onto the arena when [`finish`](Self::finish)
/// stitches and atomically renames the staging file into place. Dropping a
/// builder without finishing removes the staging file and sidecars; the
/// final path is never touched until the store is complete and synced.
pub struct StoreBuilder {
    arena: Option<BufWriter<Box<dyn VfsFile>>>,
    offsets: Option<BufWriter<Box<dyn VfsFile>>>,
    labels: Option<BufWriter<Box<dyn VfsFile>>>,
    has_labels: bool,
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    staging_path: PathBuf,
    offsets_path: PathBuf,
    labels_path: PathBuf,
    num_attrs: u32,
    count: u64,
    arena_len: u64,
    /// Running CRC-32 in final-file order: arena bytes during `push`,
    /// then offsets and labels as they are stitched in `finish`.
    crc: Crc32,
    finished: bool,
}

impl StoreBuilder {
    /// Start a store at `path` for entities of `num_attrs` attributes,
    /// writing through the real filesystem. `with_labels` reserves the
    /// optional u32 label column (ground-truth cluster ids, used for
    /// recall accounting at scale).
    pub fn create(
        path: impl Into<PathBuf>,
        num_attrs: usize,
        with_labels: bool,
    ) -> Result<Self, StoreError> {
        Self::create_with(pper_vfs::std_vfs(), path, num_attrs, with_labels)
    }

    /// [`StoreBuilder::create`] through an explicit [`Vfs`] (chaos suites
    /// inject faults here).
    pub fn create_with(
        vfs: Arc<dyn Vfs>,
        path: impl Into<PathBuf>,
        num_attrs: usize,
        with_labels: bool,
    ) -> Result<Self, StoreError> {
        let path = path.into();
        let num_attrs_u32 = match u32::try_from(num_attrs) {
            Ok(n) if n > 0 => n,
            _ => return Err(format_err(format!("invalid attribute count {num_attrs}"))),
        };
        let staging_path = sidecar(&path, "building");
        let offsets_path = sidecar(&path, "offsets.tmp");
        let labels_path = sidecar(&path, "labels.tmp");
        let mut file = vfs.create(&staging_path)?;
        file.write_all(&[0u8; HEADER_LEN])
            .map_err(fault_err(IoOp::Write, &staging_path))?;
        let mut offsets = BufWriter::new(vfs.create(&offsets_path)?);
        // The offset index has n·a + 1 entries; the leading zero is the
        // start of entity 0's first attribute.
        offsets
            .write_all(&0u64.to_le_bytes())
            .map_err(fault_err(IoOp::Write, &offsets_path))?;
        let labels = if with_labels {
            Some(BufWriter::new(vfs.create(&labels_path)?))
        } else {
            None
        };
        Ok(Self {
            arena: Some(BufWriter::with_capacity(1 << 20, file)),
            offsets: Some(offsets),
            labels,
            has_labels: with_labels,
            vfs,
            path,
            staging_path,
            offsets_path,
            labels_path,
            num_attrs: num_attrs_u32,
            count: 0,
            arena_len: 0,
            crc: Crc32::new(),
            finished: false,
        })
    }

    /// Number of entities pushed so far.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True if no entity has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Append one entity. `attrs` must match the declared attribute count
    /// and `label` must be present iff the store was created with labels.
    pub fn push<S: AsRef<str>>(
        &mut self,
        attrs: &[S],
        label: Option<u32>,
    ) -> Result<(), StoreError> {
        if u32::try_from(attrs.len()) != Ok(self.num_attrs) {
            return Err(format_err(format!(
                "entity has {} attributes, store declares {}",
                attrs.len(),
                self.num_attrs
            )));
        }
        let (arena, offsets) = match (&mut self.arena, &mut self.offsets) {
            (Some(a), Some(o)) => (a, o),
            _ => return Err(format_err("store builder already finished")),
        };
        match (&mut self.labels, label) {
            (Some(w), Some(l)) => w
                .write_all(&l.to_le_bytes())
                .map_err(fault_err(IoOp::Write, &self.labels_path))?,
            (None, None) => {}
            (Some(_), None) => return Err(format_err("label column declared but no label given")),
            (None, Some(_)) => return Err(format_err("label given but store has no label column")),
        }
        for attr in attrs {
            let bytes = attr.as_ref().as_bytes();
            arena
                .write_all(bytes)
                .map_err(fault_err(IoOp::Write, &self.staging_path))?;
            self.crc.update(bytes);
            self.arena_len += off(bytes.len());
            offsets
                .write_all(&self.arena_len.to_le_bytes())
                .map_err(fault_err(IoOp::Write, &self.offsets_path))?;
        }
        self.count += 1;
        Ok(())
    }

    /// Stitch the staging file — arena (already in place), then offsets,
    /// then labels, then the real header — sync it, and atomically rename
    /// it into place. Sidecar temp files are removed.
    pub fn finish(mut self) -> Result<StoreSummary, StoreError> {
        // Flush and close the sidecars so their bytes can be read back.
        let flush_into =
            |writer: Option<BufWriter<Box<dyn VfsFile>>>, path: &Path| -> Result<(), StoreError> {
                let Some(mut w) = writer else {
                    return Err(format_err("store builder already finished"));
                };
                w.flush().map_err(fault_err(IoOp::Write, path))?;
                Ok(())
            };
        flush_into(self.offsets.take(), &self.offsets_path)?;
        if self.has_labels {
            flush_into(self.labels.take(), &self.labels_path)?;
        }

        let Some(mut arena) = self.arena.take() else {
            return Err(format_err("store builder already finished"));
        };
        arena
            .flush()
            .map_err(fault_err(IoOp::Write, &self.staging_path))?;
        let mut file = arena
            .into_inner()
            .map_err(|e| fault_err(IoOp::Write, &self.staging_path)(e.into_error()))?;
        file.seek(SeekFrom::End(0))
            .map_err(fault_err(IoOp::Write, &self.staging_path))?;

        // Stitch the sidecars in final-file order, extending the CRC the
        // same way.
        let mut copy_in = |path: &Path, crc: &mut Crc32| -> Result<(), StoreError> {
            let bytes = self.vfs.read(path)?;
            crc.update(&bytes);
            file.write_all(&bytes)
                .map_err(fault_err(IoOp::Write, &self.staging_path))?;
            Ok(())
        };
        copy_in(&self.offsets_path, &mut self.crc)?;
        if self.has_labels {
            copy_in(&self.labels_path, &mut self.crc)?;
        }

        let mut header = [0u8; HEADER_LEN];
        header[0..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&self.num_attrs.to_le_bytes());
        header[16..24].copy_from_slice(&self.count.to_le_bytes());
        header[24..32].copy_from_slice(&self.arena_len.to_le_bytes());
        header[32] = u8::from(self.has_labels);
        header[36..40].copy_from_slice(&self.crc.finish().to_le_bytes());
        file.seek(SeekFrom::Start(0))
            .map_err(fault_err(IoOp::Write, &self.staging_path))?;
        file.write_all(&header)
            .map_err(fault_err(IoOp::Write, &self.staging_path))?;
        file.flush()
            .map_err(fault_err(IoOp::Write, &self.staging_path))?;
        file.sync_data()
            .map_err(fault_err(IoOp::Fsync, &self.staging_path))?;
        let file_bytes = file
            .byte_len()
            .map_err(fault_err(IoOp::Open, &self.staging_path))?;
        drop(file);

        // Atomic publish: the final name only ever points at a complete,
        // synced store. (A torn rename is the one fault this cannot mask —
        // the reader's size/CRC checks catch the damage.)
        self.vfs.rename(&self.staging_path, &self.path)?;

        self.finished = true;
        let _ = self.vfs.remove(&self.offsets_path);
        let _ = self.vfs.remove(&self.labels_path);
        Ok(StoreSummary {
            entities: self.count,
            arena_bytes: self.arena_len,
            file_bytes,
        })
    }
}

impl Drop for StoreBuilder {
    fn drop(&mut self) {
        if !self.finished {
            // Close handles before removing so the files are not held open.
            drop(self.arena.take());
            drop(self.offsets.take());
            drop(self.labels.take());
            let _ = self.vfs.remove(&self.offsets_path);
            let _ = self.vfs.remove(&self.labels_path);
            let _ = self.vfs.remove(&self.staging_path);
        }
    }
}

fn sidecar(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".");
    name.push(suffix);
    PathBuf::from(name)
}

/// The bytes behind an open store: an mmap on Linux, a heap buffer as the
/// portable (and mmap-failure) fallback. Both serve the identical
/// zero-copy slice API (the heap path is "zero-copy" per *read* — the file
/// is materialized once at open, never per row).
enum Backend {
    Mmap(Mmap),
    Heap(Vec<u8>),
}

impl Backend {
    fn bytes(&self) -> &[u8] {
        match self {
            Backend::Mmap(m) => m.as_slice(),
            Backend::Heap(v) => v,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Backend::Mmap(_) => "mmap",
            Backend::Heap(_) => "heap",
        }
    }
}

/// A read-only open store. All accessors hand out views into the backing
/// bytes; nothing is copied per entity.
pub struct EntityStore {
    data: Backend,
    source: PathBuf,
    num_attrs: usize,
    num_entities: u64,
    /// Byte position of the offset index within the file.
    offsets_pos: usize,
    /// Byte position of the label column, if present.
    labels_pos: Option<usize>,
    /// Header CRC-32 of everything after the header.
    crc: u32,
    /// True when an mmap was requested but failed and the store fell back
    /// to the heap backend at runtime.
    mmap_degraded: bool,
}

impl std::fmt::Debug for EntityStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EntityStore")
            .field("source", &self.source)
            .field("backend", &self.data.name())
            .field("num_attrs", &self.num_attrs)
            .field("num_entities", &self.num_entities)
            .field("mmap_degraded", &self.mmap_degraded)
            .finish_non_exhaustive()
    }
}

impl EntityStore {
    /// Open `path` with the best available backend: mmap on Linux, heap
    /// elsewhere — or heap as a runtime fallback when the mmap fails.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(&pper_vfs::std_vfs(), path)
    }

    /// [`EntityStore::open`] through an explicit [`Vfs`].
    ///
    /// Degradation ladder: a failed mmap (a *permanent* fault — retrying
    /// cannot help) downgrades to the heap backend instead of failing the
    /// open; [`EntityStore::mmap_fallback`] reports that it happened.
    pub fn open_with(vfs: &Arc<dyn Vfs>, path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref();
        match vfs.mmap(path) {
            Ok(Some(map)) => Self::from_backend(Backend::Mmap(map), path, false, false),
            Ok(None) => Self::heap_from(vfs, path, false),
            Err(_mmap_fault) => Self::heap_from(vfs, path, true),
        }
    }

    /// Open `path` reading the whole file into memory (the portable
    /// fallback backend; also used to A/B the mmap path in tests). The
    /// header CRC is verified eagerly — the bytes were just streamed, so
    /// the integrity scan is effectively free relative to the read.
    pub fn open_heap(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::heap_from(&pper_vfs::std_vfs(), path.as_ref(), false)
    }

    /// [`EntityStore::open_heap`] through an explicit [`Vfs`].
    pub fn open_heap_with(vfs: &Arc<dyn Vfs>, path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::heap_from(vfs, path.as_ref(), false)
    }

    fn heap_from(vfs: &Arc<dyn Vfs>, path: &Path, degraded: bool) -> Result<Self, StoreError> {
        let buf = vfs.read(path)?;
        Self::from_backend(Backend::Heap(buf), path, true, degraded)
    }

    fn from_backend(
        data: Backend,
        source: &Path,
        verify_crc: bool,
        mmap_degraded: bool,
    ) -> Result<Self, StoreError> {
        let bytes = data.bytes();
        if bytes.len() < HEADER_LEN {
            return Err(format_err("file shorter than header"));
        }
        if bytes[0..8] != MAGIC {
            return Err(format_err("bad magic (not a pper store)"));
        }
        let version = read_u32(bytes, 8);
        if version != VERSION {
            return Err(format_err(format!("unsupported version {version}")));
        }
        let num_attrs = ix(u64::from(read_u32(bytes, 12)));
        let num_entities = read_u64(bytes, 16);
        let arena_len = read_u64(bytes, 24);
        let has_labels = bytes[32] != 0;
        let crc = read_u32(bytes, 36);
        if num_attrs == 0 {
            return Err(format_err("zero attribute count"));
        }
        let num_offsets = num_entities
            .checked_mul(off(num_attrs))
            .and_then(|v| v.checked_add(1))
            .ok_or_else(|| format_err("entity count overflows offset index"))?;
        let offsets_pos = off(HEADER_LEN) + arena_len;
        let labels_pos = offsets_pos + num_offsets * 8;
        let expected = labels_pos + if has_labels { num_entities * 4 } else { 0 };
        if off(bytes.len()) != expected {
            return Err(format_err(format!(
                "file is {} bytes, header implies {expected}",
                bytes.len()
            )));
        }
        let store = Self {
            num_attrs,
            num_entities,
            offsets_pos: ix(offsets_pos),
            labels_pos: has_labels.then(|| ix(labels_pos)),
            crc,
            mmap_degraded,
            source: source.to_path_buf(),
            data,
        };
        // Structural sanity on the index bounds: the final offset must
        // close the arena exactly. Interior offsets are checked per access.
        if store.offset(ix(num_offsets) - 1) != arena_len {
            return Err(format_err("offset index does not close the arena"));
        }
        if verify_crc {
            store.verify()?;
        }
        Ok(store)
    }

    /// Check the backing bytes against the header CRC. Heap-backed opens
    /// run this automatically; mmap-backed opens stay lazy (pages fault in
    /// on demand) and can call this explicitly when integrity matters more
    /// than first-touch latency.
    pub fn verify(&self) -> Result<(), StoreError> {
        let bytes = self.data.bytes();
        let actual = crc32(&bytes[HEADER_LEN..]);
        if actual != self.crc {
            return Err(StoreError::Fault(IoFault::corrupt(
                IoOp::Read,
                &self.source,
                format!(
                    "store payload CRC mismatch (header {:#010x}, actual {actual:#010x})",
                    self.crc
                ),
            )));
        }
        Ok(())
    }

    /// Number of entities.
    pub fn len(&self) -> u64 {
        self.num_entities
    }

    /// True if the store holds no entities.
    pub fn is_empty(&self) -> bool {
        self.num_entities == 0
    }

    /// Attributes per entity.
    pub fn num_attrs(&self) -> usize {
        self.num_attrs
    }

    /// True if the store carries the ground-truth label column.
    pub fn has_labels(&self) -> bool {
        self.labels_pos.is_some()
    }

    /// Which backend serves reads (`"mmap"` or `"heap"`).
    pub fn backend(&self) -> &'static str {
        self.data.name()
    }

    /// True when the store wanted an mmap but fell back to the heap
    /// backend because the mapping failed at runtime.
    pub fn mmap_fallback(&self) -> bool {
        self.mmap_degraded
    }

    #[inline]
    fn offset(&self, idx: usize) -> u64 {
        read_u64(self.data.bytes(), self.offsets_pos + idx * 8)
    }

    /// Raw bytes of attribute `a` of entity `e` — a view into the backing
    /// arena, valid for the lifetime of the store.
    ///
    /// # Panics
    /// Panics if `e`/`a` are out of range or the offset index is corrupt.
    #[inline]
    pub fn attr_bytes(&self, e: u64, a: usize) -> &[u8] {
        assert!(e < self.num_entities, "entity {e} out of range");
        assert!(a < self.num_attrs, "attribute {a} out of range");
        let idx = ix(e) * self.num_attrs + a;
        let start = self.offset(idx);
        let end = self.offset(idx + 1);
        assert!(start <= end, "offset index corrupt at entity {e}");
        let base = off(HEADER_LEN);
        &self.data.bytes()[ix(base + start)..ix(base + end)]
    }

    /// Attribute `a` of entity `e` as `&str` (UTF-8 is validated per read;
    /// the arena was written from `&str` so this only fails on corruption).
    #[inline]
    pub fn attr(&self, e: u64, a: usize) -> Result<&str, StoreError> {
        std::str::from_utf8(self.attr_bytes(e, a))
            .map_err(|err| format_err(format!("attribute ({e},{a}) is not UTF-8: {err}")))
    }

    /// Fill `out` with all attribute views of entity `e` (clearing it
    /// first). The reusable buffer makes row access allocation-free after
    /// the first call.
    pub fn row<'s>(&'s self, e: u64, out: &mut Vec<&'s str>) -> Result<(), StoreError> {
        out.clear();
        for a in 0..self.num_attrs {
            out.push(self.attr(e, a)?);
        }
        Ok(())
    }

    /// Ground-truth label of entity `e`, if the store has a label column.
    ///
    /// # Panics
    /// Panics if `e` is out of range.
    #[inline]
    pub fn label(&self, e: u64) -> Option<u32> {
        let pos = self.labels_pos?;
        assert!(e < self.num_entities, "entity {e} out of range");
        Some(read_u32(self.data.bytes(), pos + ix(e) * 4))
    }
}

#[inline]
fn read_u32(bytes: &[u8], pos: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[pos..pos + 4]);
    u32::from_le_bytes(b)
}

#[inline]
fn read_u64(bytes: &[u8], pos: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[pos..pos + 8]);
    u64::from_le_bytes(b)
}

/// `u64` file position/count → `usize` index. Every caller has already
/// established the value addresses the in-memory file image (which fits
/// `usize` by construction); debug builds assert it.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "asserted in range first: value indexes the in-memory file image"
)]
fn ix(n: u64) -> usize {
    debug_assert!(usize::try_from(n).is_ok(), "index {n} exceeds usize");
    n as usize
}

/// `usize` → `u64` file offset: a widening on every supported target.
#[inline]
fn off(n: usize) -> u64 {
    n as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pper_vfs::{FaultKind, FaultVfs, IoFaultPlan};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pper-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.store", std::process::id()))
    }

    fn build(path: &Path, rows: &[(&[&str], Option<u32>)], attrs: usize) -> StoreSummary {
        let with_labels = rows.first().is_some_and(|r| r.1.is_some());
        let mut b = StoreBuilder::create(path, attrs, with_labels).unwrap();
        for (row, label) in rows {
            b.push(row, *label).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn round_trip_both_backends() {
        let path = tmp("roundtrip");
        let rows: Vec<(&[&str], Option<u32>)> = vec![
            (&["hello", "", "wörld"][..], Some(7)),
            (&["", "", ""][..], Some(7)),
            (&["a", "bb", "ccc"][..], Some(9)),
        ];
        let summary = build(&path, &rows, 3);
        assert_eq!(summary.entities, 3);
        assert_eq!(
            summary.arena_bytes,
            ("hello".len() + "wörld".len() + 6) as u64
        );

        for store in [
            EntityStore::open(&path).unwrap(),
            EntityStore::open_heap(&path).unwrap(),
        ] {
            assert_eq!(store.len(), 3);
            assert_eq!(store.num_attrs(), 3);
            assert!(store.has_labels());
            assert!(!store.mmap_fallback());
            store.verify().unwrap();
            for (e, (row, label)) in rows.iter().enumerate() {
                for (a, want) in row.iter().enumerate() {
                    assert_eq!(store.attr(e as u64, a).unwrap(), *want);
                }
                assert_eq!(store.label(e as u64), *label);
            }
            let mut buf = Vec::new();
            store.row(1, &mut buf).unwrap();
            assert_eq!(buf, vec!["", "", ""]);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn linux_default_backend_is_mmap() {
        let path = tmp("backend");
        build(&path, &[(&["x"][..], None)], 1);
        let store = EntityStore::open(&path).unwrap();
        assert_eq!(store.backend(), "mmap");
        assert_eq!(EntityStore::open_heap(&path).unwrap().backend(), "heap");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_store_round_trips() {
        let path = tmp("empty");
        let b = StoreBuilder::create(&path, 2, false).unwrap();
        let summary = b.finish().unwrap();
        assert_eq!(summary.entities, 0);
        let store = EntityStore::open(&path).unwrap();
        assert!(store.is_empty());
        assert!(!store.has_labels());
        assert_eq!(store.label(0), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_wrong_attr_count_and_label_misuse() {
        let path = tmp("misuse");
        let mut b = StoreBuilder::create(&path, 2, true).unwrap();
        assert!(b.push(&["only-one"], Some(0)).is_err());
        assert!(b.push(&["a", "b"], None).is_err());
        b.push(&["a", "b"], Some(1)).unwrap();
        b.finish().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_corrupt_headers() {
        let path = tmp("corrupt");
        build(&path, &[(&["abc"][..], None)], 1);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(EntityStore::open(&path).is_err());
        // Truncation is caught by the size check.
        build(&path, &[(&["abc"][..], None)], 1);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        assert!(EntityStore::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crc_catches_payload_bit_flip() {
        let path = tmp("bitflip");
        build(&path, &[(&["abcdef", "ghij"][..], None)], 2);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + 2] ^= 0x01; // flip one arena bit
        std::fs::write(&path, &bytes).unwrap();
        // Heap opens verify eagerly and report a typed corruption fault.
        let err = EntityStore::open_heap(&path).unwrap_err();
        match err {
            StoreError::Fault(f) => assert!(f.is_corrupt(), "{f}"),
            other => panic!("expected corruption fault, got {other:?}"),
        }
        // The mmap open stays lazy but an explicit verify catches it too.
        let store = EntityStore::open(&path);
        if let Ok(store) = store {
            assert!(store.verify().unwrap_err().fault().unwrap().is_corrupt());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mmap_failure_degrades_to_heap() {
        let path = tmp("mmapfall");
        build(&path, &[(&["x", "y"][..], None)], 2);
        let plan = IoFaultPlan::new().with(pper_vfs::IoOp::Mmap, FaultKind::MmapFail);
        let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new(plan).unwrap());
        let store = EntityStore::open_with(&vfs, &path).unwrap();
        assert_eq!(store.backend(), "heap");
        assert!(store.mmap_fallback());
        assert_eq!(store.attr(0, 1).unwrap(), "y");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn enospc_during_build_surfaces_typed_and_cleans_up() {
        let path = tmp("enospc");
        // Fault the first arena write after a few records (the staging
        // file's writes are buffered, so fault the flush-sized write).
        let plan =
            IoFaultPlan::new().with_at(pper_vfs::IoOp::Write, ".building", 1, FaultKind::Enospc);
        let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new(plan).unwrap());
        let mut b = StoreBuilder::create_with(Arc::clone(&vfs), &path, 1, false).unwrap();
        b.push(&["some bytes"], None).unwrap();
        let err = b.finish().unwrap_err();
        match err {
            StoreError::Fault(f) => assert!(f.is_disk_full(), "{f}"),
            other => panic!("expected disk-full fault, got {other:?}"),
        }
        // The final path was never created; staging leftovers are gone.
        assert!(!path.exists());
        assert!(!sidecar(&path, "building").exists());
        assert!(!sidecar(&path, "offsets.tmp").exists());
    }

    #[test]
    fn torn_rename_is_caught_by_reader_checks() {
        let path = tmp("torn");
        let plan = IoFaultPlan::new().with(pper_vfs::IoOp::Rename, FaultKind::TornRename);
        let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new(plan).unwrap());
        let mut b = StoreBuilder::create_with(Arc::clone(&vfs), &path, 1, false).unwrap();
        b.push(&["payload goes here"], None).unwrap();
        let err = b.finish().unwrap_err();
        assert!(err.fault().is_some_and(|f| f.is_permanent()), "{err}");
        // The torn destination exists but fails structural validation.
        assert!(path.exists());
        assert!(EntityStore::open_heap(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unfinished_builder_cleans_up() {
        let path = tmp("dropped");
        let offsets = sidecar(&path, "offsets.tmp");
        let staging = sidecar(&path, "building");
        {
            let mut b = StoreBuilder::create(&path, 1, false).unwrap();
            b.push(&["zzz"], None).unwrap();
            assert!(offsets.exists());
            assert!(staging.exists());
            assert!(!path.exists(), "final path must not exist mid-build");
        }
        assert!(!offsets.exists(), "sidecar must be removed on drop");
        assert!(!staging.exists(), "staging file must be removed on drop");
        assert!(!path.exists());
    }

    #[test]
    fn streaming_matches_in_memory_entities() {
        use pper_datagen::BookGen;
        let path = tmp("books");
        let ds = BookGen::new(300, 11).generate();
        let mut b = StoreBuilder::create(&path, ds.schema.len(), true).unwrap();
        for e in &ds.entities {
            b.push(&e.attrs, Some(ds.truth.cluster(e.id))).unwrap();
        }
        let summary = b.finish().unwrap();
        assert_eq!(summary.entities, ds.len() as u64);

        let store = EntityStore::open(&path).unwrap();
        store.verify().unwrap();
        let mut row = Vec::new();
        for e in &ds.entities {
            store.row(u64::from(e.id), &mut row).unwrap();
            let want: Vec<&str> = e.attrs.iter().map(String::as_str).collect();
            assert_eq!(row, want, "entity {}", e.id);
            assert_eq!(store.label(u64::from(e.id)), Some(ds.truth.cluster(e.id)));
        }
        std::fs::remove_file(&path).unwrap();
    }
}
