//! The four workloads: what each generates, how it is configured, and the
//! one resolution call it times.
//!
//! Every workload resolves on μ = 10 simulated machines. The names are fixed;
//! issues and reports cite them.
//!
//! A workload's input is [`SHARDS`] independent datasets, each an eighth of
//! the size the workload was first specified with. One execution resolves one
//! of them: short enough (0.15 to 0.6 s) that the calibrations around it see
//! the host at the speed the execution ran at, and that a run fits dozens.
//! The quality metrics are means over all the datasets, which keeps their
//! spread across seeds what it was at the full size.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use pper_datagen::{BookGen, Dataset, PubGen};
use pper_er::prelude::*;
use pper_journal::{FileStore, JournalStore};
use pper_mapreduce::{ShuffleSpillConfig, TaskObserver};

/// Simulated cluster size μ of every workload.
pub const MACHINES: usize = 10;
/// Datasets per workload; an execution resolves one.
pub const SHARDS: usize = 8;
/// OS threads executing simulated tasks in every measured execution: one, the
/// calling thread. The hosts this runs on have two virtual CPUs that neighbours
/// slow down independently; two workers would each run at a speed of their
/// own, and the calibration, which runs on the calling thread, could follow
/// neither.
pub const WORKER_THREADS: usize = 1;
/// Worker threads of the traced pass's thread-scaling spans.
pub const PARALLEL_THREADS: usize = 2;
/// Window of the Basic baseline ("Basic F", w = 15).
pub const BASIC_WINDOW: usize = 15;
/// Job id of the journal `books-durable` writes.
pub const JOURNAL_JOB: &str = "books-durable";
/// Checkpoint grid of `books-durable`, in virtual cost units: six or seven
/// resumed stages per execution.
pub const CHECKPOINT_EVERY: f64 = 1_500.0;
/// Shuffle partitions above this many records spill in `books-durable`.
pub const SPILL_RECORDS: usize = 500;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CiteSeerX-like publications through the two-job pipeline.
    PubsOurs,
    /// OL-Books-like records through the two-job pipeline (PSNM).
    BooksOurs,
    /// The publications dataset through the Basic baseline.
    PubsBasic,
    /// Books through the journaled, checkpointed, spilling pipeline.
    BooksDurable,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::PubsOurs,
        Workload::BooksOurs,
        Workload::PubsBasic,
        Workload::BooksDurable,
    ];

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PubsOurs => "pubs-ours",
            Workload::BooksOurs => "books-ours",
            Workload::PubsBasic => "pubs-basic",
            Workload::BooksDurable => "books-durable",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Entities in each of the workload's datasets.
    pub fn entities(self) -> usize {
        match self {
            Workload::PubsOurs | Workload::PubsBasic => 5_000,
            Workload::BooksOurs => 7_500,
            Workload::BooksDurable => 2_500,
        }
    }

    /// Generate dataset `shard` (below [`SHARDS`]) of the workload. The seed
    /// is the only source of variation: the same seed gives the same entities
    /// and ground truth, and no two seeds share a dataset.
    pub fn generate(self, seed: u64, shard: usize) -> Dataset {
        let seed = seed.wrapping_mul(SHARDS as u64).wrapping_add(shard as u64);
        match self {
            Workload::PubsOurs | Workload::PubsBasic => {
                PubGen::new(self.entities(), seed).generate()
            }
            Workload::BooksOurs | Workload::BooksDurable => {
                BookGen::new(self.entities(), seed).generate()
            }
        }
    }

    /// Generate every dataset of the workload.
    pub fn generate_all(self, seed: u64) -> Vec<Dataset> {
        (0..SHARDS)
            .map(|shard| self.generate(seed, shard))
            .collect()
    }

    /// Fixed horizon H of `auc_recall`, in virtual cost units: a little more
    /// than a dataset's completion time, so that a run which finishes sooner
    /// or finds duplicates earlier scores higher, and never normalized by the
    /// run's own cost.
    pub fn horizon(self) -> f64 {
        match self {
            Workload::PubsOurs | Workload::PubsBasic => 50_000.0,
            Workload::BooksOurs => 30_000.0,
            Workload::BooksDurable => 14_000.0,
        }
    }

    /// Lowest acceptable final recall; an execution below it has failed.
    pub fn recall_floor(self) -> f64 {
        match self {
            Workload::PubsBasic => 0.80,
            _ => 0.82,
        }
    }

    /// True for the workloads that run the paper's two-job pipeline, which
    /// the traced pass can stage into job 1, schedule generation and job 2.
    pub fn is_pipeline(self) -> bool {
        self != Workload::PubsBasic
    }

    /// The pipeline configuration: the paper's preset for the dataset, μ
    /// machines, `threads` worker threads. `books-durable` bounds the
    /// statistics job's shuffle memory, spilling under `dir`.
    pub fn config(self, threads: usize, dir: &Path) -> ErConfig {
        let mut config = match self {
            Workload::PubsOurs | Workload::PubsBasic => ErConfig::citeseer(MACHINES),
            Workload::BooksOurs => ErConfig::books(MACHINES),
            Workload::BooksDurable => {
                ErConfig::books(MACHINES).with_shuffle_spill(spill_config(dir))
            }
        };
        config.worker_threads = Some(threads);
        config
    }

    /// Prepare one execution under the fresh directory `dir`: build the
    /// configuration and, for `books-durable`, create the spill directory and
    /// an empty journal store. Not part of the timed call.
    pub fn prepare(
        self,
        threads: usize,
        dir: &Path,
        observer: Option<TaskObserver>,
    ) -> Result<Execution, String> {
        let mut config = self.config(threads, dir);
        config.observer = observer;
        let journal = if self == Workload::BooksDurable {
            std::fs::create_dir_all(dir.join("spill")).map_err(|e| e.to_string())?;
            Some(FileStore::shared(dir.join("journal")).map_err(|e| e.to_string())?)
        } else {
            None
        };
        Ok(Execution {
            workload: self,
            er: ProgressiveEr::new(config),
            journal,
        })
    }
}

/// The spill configuration of `books-durable`, writing under `dir`.
pub fn spill_config(dir: &Path) -> ShuffleSpillConfig {
    ShuffleSpillConfig::new(SPILL_RECORDS).with_dir(dir.join("spill"))
}

/// One prepared execution of a workload.
pub struct Execution {
    workload: Workload,
    /// The configured pipeline (Basic borrows its configuration).
    pub er: ProgressiveEr,
    /// The journal `books-durable` writes; `None` for the other workloads.
    pub journal: Option<Arc<dyn JournalStore>>,
}

impl Execution {
    /// The timed call: the one complete resolution the workload is named for.
    pub fn run(&self, ds: &Dataset) -> Result<ErRunResult, String> {
        match &self.journal {
            Some(journal) => self.run_durable_on(ds, journal),
            None => self.run_unjournaled(ds),
        }
    }

    /// The workload's resolution without journal or checkpoints: `try_run`
    /// for the pipeline workloads, `BasicApproach::run` for Basic. It is the
    /// reference `books-durable` must reproduce, and what the traced pass
    /// stages; for the other workloads it is the timed call itself.
    pub fn run_unjournaled(&self, ds: &Dataset) -> Result<ErRunResult, String> {
        if self.workload.is_pipeline() {
            self.er.try_run(ds)
        } else {
            BasicApproach::new(self.er.config.clone(), BasicConfig::full(BASIC_WINDOW)).run(ds)
        }
        .map_err(|e| e.to_string())
    }

    /// The durable pipeline against an explicit journal store.
    pub fn run_durable_on(
        &self,
        ds: &Dataset,
        journal: &Arc<dyn JournalStore>,
    ) -> Result<ErRunResult, String> {
        let opts = DurableOptions {
            checkpoint_every: CHECKPOINT_EVERY,
            kill_after_events: None,
        };
        run_durable(&self.er, ds, journal, JOURNAL_JOB, &[], &opts).map_err(|e| e.to_string())
    }
}

/// The benchmark's scratch directory, `benchmark/out/tmp/<pid>/` under the
/// current directory (the repository root). Removed when dropped.
pub struct TmpRoot(PathBuf);

impl TmpRoot {
    /// Create the directory.
    pub fn create() -> Result<Self, String> {
        let dir = PathBuf::from(format!("benchmark/out/tmp/{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty sub-directory called `name`.
    pub fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Filesystem type the directory lives on, from `/proc/self/mountinfo`
    /// (the longest mount point that is a prefix of the path). It matters to
    /// `books-durable`, whose wall time includes one fsync per journal append.
    pub fn filesystem(&self) -> String {
        let unknown = || "unknown".to_string();
        let (Ok(path), Ok(mounts)) = (
            self.0.canonicalize(),
            std::fs::read_to_string("/proc/self/mountinfo"),
        ) else {
            return unknown();
        };
        mounts
            .lines()
            .filter_map(|line| {
                let (head, tail) = line.split_once(" - ")?;
                let mount_point = head.split(' ').nth(4)?;
                let fs_type = tail.split(' ').next()?;
                path.starts_with(mount_point)
                    .then_some((mount_point.len(), fs_type))
            })
            .max_by_key(|&(len, _)| len)
            .map_or_else(unknown, |(_, fs)| fs.to_string())
    }
}

impl Drop for TmpRoot {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and harmless.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
