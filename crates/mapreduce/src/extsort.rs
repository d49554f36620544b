//! External merge sort over [`SpillCodec`] records.
//!
//! Hadoop's shuffle sorts intermediate records under a bounded memory
//! budget: in-memory runs are spilled to disk as they fill, then k-way
//! merged. [`ExternalSorter`] reproduces that component so jobs whose
//! intermediate data exceeds memory can still sort deterministically; the
//! in-memory simulator uses it for shuffle realism tests, for
//! shuffle-byte accounting at scale, and — via [`ExternalSorter::into_stream`]
//! — as the out-of-core backbone for paper-scale runs, where the merged
//! order is consumed record by record without ever materializing the
//! sorted output.
//!
//! Run files are CRC-framed (`u32` little-endian record length, `u32`
//! CRC-32 of the payload, then the [`SpillCodec`] payload) so the merge
//! streams each run through a small [`BufReader`] window instead of
//! decoding whole runs into memory — the merge working set is `O(runs)`,
//! not `O(records)` — and silent disk corruption is caught at read-back
//! instead of surfacing as wrong results.
//!
//! All file operations go through a [`Vfs`] (invariant D5 bans direct
//! `std::fs` here), which buys the fault ladder for free:
//!
//! * transient write faults retry in place under a bounded, deterministic
//!   [`RetryPolicy`], with the partial run file removed between attempts
//!   so a failed spill never leaks a truncated run;
//! * permanent faults (ENOSPC et al.) either surface typed or — under
//!   [`SpillFullPolicy::InMemory`] — degrade the sorter to plain in-memory
//!   accumulation, preserving the result at the cost of the memory bound;
//! * a CRC mismatch at merge time quarantines the poisoned run file
//!   (renamed `*.quarantined`, left on disk for postmortem) and surfaces
//!   [`IoFault::Corrupt`] so the runtime can re-run the producing stage.

// C1: a truncating cast in the run-file framing corrupts a spill silently.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{BufReader, Read, Write};
use std::path::PathBuf;
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use pper_vfs::{crc32, retry_io, IoFault, IoOp, RetryPolicy, Vfs, VfsFile};

use crate::error::MrError;
use crate::spill::SpillCodec;

/// What a sorter does when spilling becomes impossible (disk full, fsync
/// dead, retries exhausted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SpillFullPolicy {
    /// Surface the typed fault to the caller.
    #[default]
    Error,
    /// Stop spilling and keep the remaining records in memory: the sort
    /// still completes bit-identically, trading the memory bound away.
    /// Existing on-disk runs keep participating in the merge.
    InMemory,
}

/// Sorts arbitrarily many records under a bounded in-memory budget by
/// spilling sorted runs to temporary files and k-way merging them.
pub struct ExternalSorter<T> {
    /// Maximum records buffered in memory before a run is spilled.
    run_capacity: usize,
    buffer: Vec<T>,
    runs: Vec<SpilledRun>,
    dir: PathBuf,
    /// Total bytes written to run files (frame headers included).
    spilled_bytes: u64,
    /// Process-unique sorter id; spill files are named
    /// `pper-extsort-<pid>-<sorter>-<run>.run` so names are collision-free
    /// across sorters and processes without consulting the wall clock.
    sorter_id: u64,
    vfs: Arc<dyn Vfs>,
    retry: RetryPolicy,
    on_full: SpillFullPolicy,
    /// Transient-fault retries performed across all spills.
    io_retries: u64,
    /// Deterministic virtual backoff units charged by those retries.
    backoff_units: u64,
    /// True once the sorter has fallen back to in-memory accumulation.
    degraded: bool,
}

/// Monotone id source for [`ExternalSorter`] instances within this process.
static NEXT_SORTER_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

struct SpilledRun {
    path: PathBuf,
    records: usize,
}

impl<T: SpillCodec + Ord> ExternalSorter<T> {
    /// A sorter spilling runs of at most `run_capacity` records to the
    /// system temp directory.
    ///
    /// # Panics
    /// Panics if `run_capacity` is zero.
    pub fn new(run_capacity: usize) -> Self {
        assert!(run_capacity > 0, "run capacity must be positive");
        Self {
            run_capacity,
            buffer: Vec::with_capacity(run_capacity.min(4096)),
            runs: Vec::new(),
            dir: std::env::temp_dir(),
            spilled_bytes: 0,
            // Relaxed (D3): a uniqueness counter needs no ordering with other
            // memory; every fetch_add still returns a distinct id.
            sorter_id: NEXT_SORTER_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            vfs: pper_vfs::std_vfs(),
            retry: RetryPolicy::default(),
            on_full: SpillFullPolicy::default(),
            io_retries: 0,
            backoff_units: 0,
            degraded: false,
        }
    }

    /// Spill runs into `dir` instead of the system temp directory (e.g. to
    /// keep large scale-run spills on a scratch disk).
    pub fn with_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = dir.into();
        self
    }

    /// Route file operations through `vfs` (chaos suites inject faults
    /// here; production uses the default passthrough).
    pub fn with_vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }

    /// Retry budget for transient spill-write faults.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// What to do when spilling becomes impossible.
    pub fn with_full_policy(mut self, policy: SpillFullPolicy) -> Self {
        self.on_full = policy;
        self
    }

    /// Push one record, spilling the current run if the buffer is full.
    pub fn push(&mut self, record: T) -> Result<(), MrError> {
        self.buffer.push(record);
        if !self.degraded && self.buffer.len() >= self.run_capacity {
            self.spill_run()?;
        }
        Ok(())
    }

    /// Number of runs spilled to disk so far.
    pub fn spilled_runs(&self) -> usize {
        self.runs.len()
    }

    /// Total bytes written to run files so far (frame headers included).
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes
    }

    /// Transient-fault retries performed by spill writes so far.
    pub fn io_retries(&self) -> u64 {
        self.io_retries
    }

    /// Deterministic virtual backoff units charged by those retries.
    pub fn backoff_units(&self) -> u64 {
        self.backoff_units
    }

    /// True once spilling failed permanently and the sorter fell back to
    /// unbounded in-memory accumulation ([`SpillFullPolicy::InMemory`]).
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Total records pushed so far (spilled runs plus the in-memory tail).
    pub fn len(&self) -> usize {
        self.runs.iter().map(|r| r.records).sum::<usize>() + self.buffer.len()
    }

    /// True when no record has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn spill_run(&mut self) -> Result<(), MrError> {
        if self.buffer.is_empty() || self.degraded {
            return Ok(());
        }
        self.buffer.sort();
        let path = self.dir.join(format!(
            "pper-extsort-{}-{}-{}.run",
            std::process::id(),
            self.sorter_id,
            self.runs.len()
        ));
        let mut encoded = BytesMut::new();
        let mut record_buf = BytesMut::new();
        for record in &self.buffer {
            record_buf.clear();
            record.encode(&mut record_buf);
            let len = u32::try_from(record_buf.len())
                .map_err(|_| MrError::Spill("record exceeds u32 frame".into()))?;
            encoded.put_slice(&len.to_le_bytes());
            encoded.put_slice(&crc32(&record_buf).to_le_bytes());
            encoded.put_slice(&record_buf);
        }
        // Bounded retry on transient faults; any failed attempt removes the
        // partial run file so a truncated run is never left on disk (and
        // never read back by the merge).
        let (result, stats) = retry_io(&self.retry, || {
            let attempt = (|| {
                let mut file = self.vfs.create(&path)?;
                file.write_all(&encoded)
                    .and_then(|()| file.flush())
                    .map_err(|e| IoFault::classify(IoOp::Write, &path, &e))
            })();
            if let Err(fault) = attempt {
                // Best-effort cleanup: the original fault is the story.
                let _ = self.vfs.remove(&path);
                return Err(fault);
            }
            Ok(())
        });
        self.io_retries += u64::from(stats.retries);
        self.backoff_units += stats.backoff_units;
        match result {
            Ok(()) => {
                self.spilled_bytes += encoded.len() as u64;
                self.runs.push(SpilledRun {
                    path,
                    records: self.buffer.len(),
                });
                self.buffer.clear();
                Ok(())
            }
            // The buffer was never cleared, so every record is still in
            // memory: under the in-memory policy the sorter degrades
            // instead of failing, and the merge proceeds from RAM.
            Err(_) if self.on_full == SpillFullPolicy::InMemory => {
                self.degraded = true;
                Ok(())
            }
            Err(fault) => Err(MrError::Io(fault)),
        }
    }

    /// Finish: merge all runs (and the in-memory tail) into one ascending
    /// vector. Temporary files are removed.
    pub fn finish(self) -> Result<Vec<T>, MrError> {
        let mut stream = self.into_stream()?;
        let mut out = Vec::new();
        for item in stream.by_ref() {
            out.push(item?);
        }
        Ok(out)
    }

    /// Finish into a streaming k-way merge: records come back in ascending
    /// order one at a time, with only one buffered frame per run in memory.
    /// Run files are removed when the stream is dropped.
    pub fn into_stream(mut self) -> Result<SortedStream<T>, MrError> {
        self.buffer.sort();
        let tail = std::mem::take(&mut self.buffer);
        let runs = std::mem::take(&mut self.runs);
        let vfs = Arc::clone(&self.vfs);

        let mut sources = Vec::with_capacity(runs.len());
        for run in runs {
            let reader = vfs.open(&run.path).map(BufReader::new)?;
            sources.push(RunReader {
                reader,
                path: run.path,
                remaining: run.records,
                vfs: Arc::clone(&vfs),
            });
        }
        let mut stream = SortedStream {
            sources,
            tail: tail.into_iter(),
            heap: BinaryHeap::new(),
            failed: false,
        };
        stream.prime()?;
        Ok(stream)
    }
}

impl<T> Drop for ExternalSorter<T> {
    fn drop(&mut self) {
        for run in &self.runs {
            let _ = self.vfs.remove(&run.path);
        }
    }
}

/// One spilled run being read back frame by frame.
struct RunReader {
    reader: BufReader<Box<dyn VfsFile>>,
    path: PathBuf,
    remaining: usize,
    vfs: Arc<dyn Vfs>,
}

impl RunReader {
    fn next_record<T: SpillCodec>(&mut self) -> Result<Option<T>, MrError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let mut header = [0u8; 8];
        self.reader
            .read_exact(&mut header)
            .map_err(|e| self.read_fault("run frame header", e))?;
        let len32 = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let Ok(len) = usize::try_from(len32) else {
            return Err(self.quarantine());
        };
        let expected_crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let mut payload = vec![0u8; len];
        self.reader
            .read_exact(&mut payload)
            .map_err(|e| self.read_fault("run frame payload", e))?;
        if crc32(&payload) != expected_crc {
            return Err(self.quarantine());
        }
        let mut bytes = Bytes::from(payload);
        Ok(Some(T::decode(&mut bytes)?))
    }

    fn read_fault(&self, what: &str, e: std::io::Error) -> MrError {
        let fault = IoFault::classify(IoOp::Read, &self.path, &e);
        let decorated = match fault {
            // A truncated frame (UnexpectedEof) is corruption too:
            // quarantine it the same way as a CRC mismatch.
            IoFault::Corrupt(_) => return self.quarantine(),
            IoFault::Transient(mut i) => {
                i.detail = format!("{what}: {}", i.detail);
                IoFault::Transient(i)
            }
            IoFault::Permanent(mut i) => {
                i.detail = format!("{what}: {}", i.detail);
                IoFault::Permanent(i)
            }
        };
        MrError::Io(decorated)
    }

    /// Move the poisoned run aside (`*.quarantined`, left for postmortem —
    /// the reader's drop-time cleanup targets the old name and no-ops) and
    /// report it as a corruption fault so the runtime re-runs the producer.
    fn quarantine(&self) -> MrError {
        let mut quarantined = self.path.clone().into_os_string();
        quarantined.push(".quarantined");
        let quarantined = PathBuf::from(quarantined);
        let _ = self.vfs.rename(&self.path, &quarantined);
        MrError::Io(IoFault::corrupt(
            IoOp::Read,
            &self.path,
            format!(
                "spill run failed CRC check; quarantined as `{}`",
                quarantined.display()
            ),
        ))
    }
}

impl Drop for RunReader {
    fn drop(&mut self) {
        let _ = self.vfs.remove(&self.path);
    }
}

/// Heap entry: `(record, source index)`. Ties on equal records break on
/// source index, with runs numbered in spill order and the in-memory tail
/// last — the same tie order a fully in-memory sort of the push sequence
/// would produce for records that compare equal... provided equal records
/// are not *distinguishable*, which `Ord`-equality guarantees for the
/// total orders this workspace sorts by.
struct HeapItem<T>(T, usize);

impl<T: Ord> PartialEq for HeapItem<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0 && self.1 == other.1
    }
}
impl<T: Ord> Eq for HeapItem<T> {}
impl<T: Ord> PartialOrd for HeapItem<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: Ord> Ord for HeapItem<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// Streaming k-way merge over spilled runs plus the in-memory tail —
/// yields records in ascending order. Dropping the stream removes any
/// remaining run files.
pub struct SortedStream<T> {
    sources: Vec<RunReader>,
    tail: std::vec::IntoIter<T>,
    heap: BinaryHeap<Reverse<HeapItem<T>>>,
    /// A decode error poisons the stream: iteration ends after yielding it.
    failed: bool,
}

impl<T: SpillCodec + Ord> SortedStream<T> {
    fn prime(&mut self) -> Result<(), MrError> {
        for i in 0..self.sources.len() {
            if let Some(first) = self.sources[i].next_record()? {
                self.heap.push(Reverse(HeapItem(first, i)));
            }
        }
        let tail_idx = self.sources.len();
        if let Some(first) = self.tail.next() {
            self.heap.push(Reverse(HeapItem(first, tail_idx)));
        }
        Ok(())
    }
}

impl<T: SpillCodec + Ord> Iterator for SortedStream<T> {
    type Item = Result<T, MrError>;

    fn next(&mut self) -> Option<Result<T, MrError>> {
        if self.failed {
            return None;
        }
        let Reverse(HeapItem(value, source)) = self.heap.pop()?;
        let refill = if source < self.sources.len() {
            self.sources[source].next_record()
        } else {
            Ok(self.tail.next())
        };
        match refill {
            Ok(Some(next)) => self.heap.push(Reverse(HeapItem(next, source))),
            Ok(None) => {}
            Err(e) => {
                // A refill failure poisons the whole merge; callers abort,
                // so the popped-but-unyielded record doesn't matter.
                self.failed = true;
                return Some(Err(e));
            }
        }
        Some(Ok(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pper_vfs::{FaultKind, FaultVfs, IoFaultPlan};
    use proptest::prelude::*;

    #[test]
    fn sorts_within_memory() {
        let mut sorter: ExternalSorter<u64> = ExternalSorter::new(100);
        for v in [5u64, 3, 9, 1] {
            sorter.push(v).unwrap();
        }
        assert_eq!(sorter.spilled_runs(), 0);
        assert_eq!(sorter.spilled_bytes(), 0);
        assert_eq!(sorter.finish().unwrap(), vec![1, 3, 5, 9]);
    }

    #[test]
    fn spills_and_merges_runs() {
        let mut sorter: ExternalSorter<u64> = ExternalSorter::new(10);
        let mut expected: Vec<u64> = (0..137).map(|i| (i * 7919) % 1000).collect();
        for &v in &expected {
            sorter.push(v).unwrap();
        }
        assert!(
            sorter.spilled_runs() >= 13,
            "{} runs",
            sorter.spilled_runs()
        );
        assert!(sorter.spilled_bytes() > 0);
        assert_eq!(sorter.io_retries(), 0);
        assert!(!sorter.degraded());
        let sorted = sorter.finish().unwrap();
        expected.sort_unstable();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn handles_strings_and_duplicates() {
        let mut sorter: ExternalSorter<String> = ExternalSorter::new(3);
        for s in ["b", "a", "c", "a", "b", "a"] {
            sorter.push(s.to_string()).unwrap();
        }
        assert_eq!(sorter.finish().unwrap(), vec!["a", "a", "a", "b", "b", "c"]);
    }

    #[test]
    fn empty_input() {
        let sorter: ExternalSorter<u64> = ExternalSorter::new(4);
        assert!(sorter.finish().unwrap().is_empty());
    }

    #[test]
    fn streaming_merge_removes_run_files() {
        let dir = std::env::temp_dir().join(format!("pper-extsort-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut sorter: ExternalSorter<u64> = ExternalSorter::new(5).with_dir(&dir);
        for v in (0..43u64).rev() {
            sorter.push(v).unwrap();
        }
        assert!(sorter.spilled_runs() >= 8);
        let files_before = std::fs::read_dir(&dir).unwrap().count();
        assert!(files_before >= 8);
        let stream = sorter.into_stream().unwrap();
        let sorted: Vec<u64> = stream.map(|r| r.unwrap()).collect();
        assert_eq!(sorted, (0..43u64).collect::<Vec<_>>());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropped_sorter_cleans_up_runs() {
        let dir = std::env::temp_dir().join(format!("pper-extsort-drop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut sorter: ExternalSorter<u64> = ExternalSorter::new(2).with_dir(&dir);
        for v in 0..10u64 {
            sorter.push(v).unwrap();
        }
        assert!(sorter.spilled_runs() > 0);
        drop(sorter);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "run capacity must be positive")]
    fn rejects_zero_capacity() {
        let _: ExternalSorter<u64> = ExternalSorter::new(0);
    }

    #[test]
    fn transient_write_fault_is_retried_and_leaves_no_partial_file() {
        let dir = std::env::temp_dir().join(format!("pper-extsort-retry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let plan = IoFaultPlan::new().with(IoOp::Write, FaultKind::Transient { times: 2 });
        let fault_vfs = FaultVfs::new(plan).unwrap();
        let fired = fault_vfs.clone();
        let mut sorter: ExternalSorter<u64> = ExternalSorter::new(4)
            .with_dir(&dir)
            .with_vfs(Arc::new(fault_vfs))
            .with_retry(RetryPolicy {
                max_attempts: 3,
                backoff_unit: 1,
            });
        for v in (0..20u64).rev() {
            sorter.push(v).unwrap();
        }
        assert_eq!(sorter.io_retries(), 2);
        assert_eq!(sorter.backoff_units(), 1 + 2);
        assert!(!sorter.degraded());
        assert_eq!(fired.faults_fired(), 2);
        let sorted = sorter.finish().unwrap();
        assert_eq!(sorted, (0..20u64).collect::<Vec<_>>());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_write_is_cleaned_up_and_retried() {
        let dir = std::env::temp_dir().join(format!("pper-extsort-short-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let plan = IoFaultPlan::new().with(IoOp::Write, FaultKind::ShortWrite { keep: 5 });
        let mut sorter: ExternalSorter<u64> = ExternalSorter::new(4)
            .with_dir(&dir)
            .with_vfs(Arc::new(FaultVfs::new(plan).unwrap()));
        for v in (0..20u64).rev() {
            sorter.push(v).unwrap();
        }
        assert_eq!(sorter.io_retries(), 1);
        assert_eq!(sorter.finish().unwrap(), (0..20u64).collect::<Vec<_>>());
        // No truncated 5-byte run file survives anywhere in the directory.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_surfaces_typed_without_partial_file() {
        let dir = std::env::temp_dir().join(format!("pper-extsort-enospc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let plan = IoFaultPlan::new().with(IoOp::Write, FaultKind::Enospc);
        let mut sorter: ExternalSorter<u64> = ExternalSorter::new(4)
            .with_dir(&dir)
            .with_vfs(Arc::new(FaultVfs::new(plan).unwrap()));
        let mut err = None;
        for v in 0..8u64 {
            if let Err(e) = sorter.push(v) {
                err = Some(e);
                break;
            }
        }
        match err {
            Some(MrError::Io(fault)) => assert!(fault.is_disk_full(), "{fault}"),
            other => panic!("expected typed disk-full fault, got {other:?}"),
        }
        drop(sorter);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_degrades_to_memory_under_policy() {
        let dir = std::env::temp_dir().join(format!("pper-extsort-degrade-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let plan = IoFaultPlan::new().with_at(IoOp::Write, "", 1, FaultKind::Enospc);
        let mut sorter: ExternalSorter<u64> = ExternalSorter::new(4)
            .with_dir(&dir)
            .with_vfs(Arc::new(FaultVfs::new(plan).unwrap()))
            .with_full_policy(SpillFullPolicy::InMemory);
        for v in (0..40u64).rev() {
            sorter.push(v).unwrap();
        }
        // Run 0 spilled; run 1 hit ENOSPC and flipped the sorter into
        // in-memory mode, which absorbed everything after.
        assert!(sorter.degraded());
        assert_eq!(sorter.spilled_runs(), 1);
        assert_eq!(sorter.len(), 40);
        let sorted = sorter.finish().unwrap();
        assert_eq!(sorted, (0..40u64).collect::<Vec<_>>());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_run_is_quarantined_with_typed_fault() {
        let dir = std::env::temp_dir().join(format!("pper-extsort-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let plan = IoFaultPlan::new().with(IoOp::Read, FaultKind::CorruptRead);
        let mut sorter: ExternalSorter<u64> = ExternalSorter::new(4)
            .with_dir(&dir)
            .with_vfs(Arc::new(FaultVfs::new(plan).unwrap()));
        for v in (0..20u64).rev() {
            sorter.push(v).unwrap();
        }
        let outcome: Result<Vec<u64>, MrError> = sorter.finish();
        match outcome {
            Err(MrError::Io(fault)) => {
                assert!(fault.is_corrupt(), "{fault}");
                assert!(fault.info().detail.contains("quarantined"));
            }
            other => panic!("expected corruption fault, got {other:?}"),
        }
        // The poisoned run survives under the quarantine name for
        // postmortem; nothing else is left behind.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 1, "{names:?}");
        assert!(names[0].ends_with(".quarantined"), "{names:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    proptest! {
        #[test]
        fn prop_matches_std_sort(
            values in proptest::collection::vec(0u64..10_000, 0..400),
            capacity in 1usize..50,
        ) {
            let mut sorter: ExternalSorter<u64> = ExternalSorter::new(capacity);
            for &v in &values {
                sorter.push(v).unwrap();
            }
            let sorted = sorter.finish().unwrap();
            let mut expected = values.clone();
            expected.sort_unstable();
            prop_assert_eq!(sorted, expected);
        }

        #[test]
        fn prop_stream_matches_finish(
            values in proptest::collection::vec(("[a-c]{0,4}", 0u32..50), 0..200),
            capacity in 1usize..20,
        ) {
            let mut a: ExternalSorter<(String, u32)> = ExternalSorter::new(capacity);
            let mut b: ExternalSorter<(String, u32)> = ExternalSorter::new(capacity);
            for v in &values {
                a.push(v.clone()).unwrap();
                b.push(v.clone()).unwrap();
            }
            let streamed: Vec<(String, u32)> =
                a.into_stream().unwrap().map(|r| r.unwrap()).collect();
            prop_assert_eq!(streamed, b.finish().unwrap());
        }
    }
}
