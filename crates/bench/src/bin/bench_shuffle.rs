//! Shuffle benchmark: flat grouped partitions vs the original nested-`Vec`
//! driver-thread shuffle, on the pipeline's two shuffle shapes — job 1
//! (String title-prefix blocking keys, Zipf-ish group sizes) and job 2
//! (u64 SQ routing keys). Emits `BENCH_shuffle.json` with records/sec and
//! heap-allocation counts for both paths so CI can track the shuffle over
//! time.
//!
//! The baseline reimplements the pre-rewrite shuffle verbatim — concatenate
//! each partition's buckets, stable `sort_by` on the key, run-length group
//! into `Vec<(K, Vec<V>)>` — so the comparison measures exactly what the
//! rewrite replaced. Timing covers the full lifecycle (build + teardown):
//! the two representations defer different work to drop time, and a job
//! pays both ends either way. A counting `#[global_allocator]`
//! (process-wide) reports allocations per full shuffle for each path.
//!
//! ```sh
//! cargo run --release -p pper-bench --bin bench_shuffle -- --quick
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pper_bench::{BenchRecord, BenchReport, ExpOptions};
use pper_mapreduce::prelude::*;
use pper_mapreduce::shuffle::shuffle_partitions;

/// System allocator wrapper counting every allocation and reallocation.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System`; the only added work is an atomic
// counter bump, which cannot violate any GlobalAlloc contract.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards `layout` unchanged, so the caller's contract with
    // `System.alloc` holds verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // lint:allow(relaxed) standalone event counter: only the final total
        // is read, after the threads join, so no ordering is needed.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds GlobalAlloc's alloc contract; forwarded as-is.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr`/`layout` come from the matching `alloc` above, which
    // returned a `System` allocation of exactly that layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same pointer and layout the caller received from alloc.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards the caller's pointer and layouts unchanged to
    // `System.realloc`, which defines the contract being relied on.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // lint:allow(relaxed) standalone event counter, same as alloc above.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds GlobalAlloc's realloc contract; forwarded as-is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    // lint:allow(relaxed) read between benchmark phases on the only thread
    // still running; thread::scope joins already ordered prior counts.
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Payload shuffled per record: an entity id plus a word of state.
type Val = (u64, u64);

/// Vocabulary for title-prefix blocking keys. Like real publication titles,
/// keys share long common prefixes, so unequal-key comparisons scan many
/// bytes before deciding — the case the distinct-key sort avoids.
const WORDS: &[&str] = &[
    "parallel",
    "progressive",
    "approach",
    "entity",
    "resolution",
    "using",
    "mapreduce",
    "scalable",
    "distributed",
    "query",
    "processing",
    "large",
    "databases",
    "systems",
    "learning",
    "analysis",
];

/// Deterministic splitmix-style stream of Zipf-ish block ids (a few huge
/// blocks, a long tail of small ones — the blocking-key skew the paper's
/// load-balancing section is about).
fn block_ids(records: usize) -> impl Iterator<Item = (usize, u64, u64)> {
    let distinct = (records / 24).max(16) as u64;
    let mut x = 0x9e3779b97f4a7c15u64;
    (0..records).map(move |i| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Square the uniform draw so small ids (hot keys) recur.
        let u = (x % 10_000) as f64 / 10_000.0;
        let id = ((u * u) * distinct as f64) as u64;
        (i, id, x)
    })
}

/// `maps × partitions` buckets of keyed records, exactly what the map phase
/// hands the shuffle.
fn make_buckets<K: std::hash::Hash>(
    records: usize,
    maps: usize,
    partitions: usize,
    key_of: impl Fn(u64) -> K,
) -> Vec<Vec<Vec<(K, Val)>>> {
    let mut out: Vec<Vec<Vec<(K, Val)>>> = (0..maps)
        .map(|_| (0..partitions).map(|_| Vec::new()).collect())
        .collect();
    for (i, id, x) in block_ids(records) {
        let key = key_of(id);
        let p = (pper_mapreduce::fxhash::hash_one(&key) % partitions as u64) as usize;
        out[i % maps][p].push((key, (i as u64, x)));
    }
    out
}

/// Job-1 shape: String title-prefix blocking key.
fn job1_key(id: u64) -> String {
    format!(
        "{} {} {} {:05}",
        WORDS[(id % 4) as usize],
        WORDS[(id / 4 % 4) as usize],
        WORDS[(id / 16 % 16) as usize],
        id
    )
}

/// The pre-rewrite shuffle, verbatim: concatenate, stable sort by key,
/// run-length group into nested Vecs. One partition at a time on the
/// calling thread.
fn naive_shuffle<K: Ord>(per_partition: Vec<Vec<Vec<(K, Val)>>>) -> Vec<Vec<(K, Vec<Val>)>> {
    per_partition
        .into_iter()
        .map(|buckets| {
            let mut records: Vec<(K, Val)> = Vec::new();
            for b in buckets {
                records.extend(b);
            }
            records.sort_by(|a, b| a.0.cmp(&b.0));
            let mut groups: Vec<(K, Vec<Val>)> = Vec::new();
            for (k, v) in records {
                match groups.last_mut() {
                    Some((gk, gvs)) if *gk == k => gvs.push(v),
                    _ => groups.push((k, vec![v])),
                }
            }
            groups
        })
        .collect()
}

/// Transpose map-task buckets into per-partition bucket lists (the plain
/// routing path of the runtime — Vec handle moves only).
fn transpose<K>(buckets: Vec<Vec<Vec<(K, Val)>>>, partitions: usize) -> Vec<Vec<Vec<(K, Val)>>> {
    let mut per: Vec<Vec<Vec<(K, Val)>>> = (0..partitions).map(|_| Vec::new()).collect();
    for m in buckets {
        for (p, b) in m.into_iter().enumerate() {
            per[p].push(b);
        }
    }
    per
}

struct Measured {
    elapsed: std::time::Duration,
    allocs: u64,
    groups: usize,
    records: usize,
}

/// Time one full shuffle lifecycle: build the grouped structure AND tear it
/// down. Teardown is included because the two representations defer
/// different work to drop time — the nested path frees one Vec per group at
/// teardown — and a job pays both ends either way.
fn measure<K, G>(
    buckets: Vec<Vec<Vec<(K, Val)>>>,
    partitions: usize,
    run: impl Fn(Vec<Vec<Vec<(K, Val)>>>) -> (usize, usize, G),
) -> Measured {
    let per = transpose(buckets, partitions);
    let a0 = allocations();
    let start = Instant::now();
    let (groups, records, out) = run(per);
    drop(out);
    let elapsed = start.elapsed();
    let allocs = allocations() - a0;
    Measured {
        elapsed,
        allocs,
        groups,
        records,
    }
}

/// Measure one workload shape (job-1 Strings or job-2 u64s) through both
/// paths and all thread counts, appending records and notes to the report.
fn bench_shape<K: Ord + Eq + std::hash::Hash + Send + Sync + Clone>(
    report: &mut BenchReport,
    label: &str,
    records: usize,
    maps: usize,
    partitions: usize,
    key_of: impl Fn(u64) -> K + Copy,
) {
    // Best of three repetitions per configuration: the workload is rebuilt
    // each time, so the minimum is the cleanest page-fault-free run.
    let reps = 3;
    let naive = (0..reps)
        .map(|_| {
            measure(
                make_buckets(records, maps, partitions, key_of),
                partitions,
                |per| {
                    let out = naive_shuffle(per);
                    let groups = out.iter().map(|p| p.len()).sum();
                    let recs = out
                        .iter()
                        .flat_map(|p| p.iter().map(|(_, vs)| vs.len()))
                        .sum();
                    (groups, recs, out)
                },
            )
        })
        .min_by_key(|m| m.elapsed)
        .unwrap();
    report.push(BenchRecord::from_total(
        format!("{label}/nested-vec"),
        naive.records as u64,
        naive.elapsed,
    ));

    let mut best: Option<(usize, std::time::Duration)> = None;
    let mut flat1 = None;
    for threads in [1usize, 4, 8] {
        let flat = (0..reps)
            .map(|_| {
                measure(
                    make_buckets(records, maps, partitions, key_of),
                    partitions,
                    |per| {
                        let out = shuffle_partitions(ExecutorKind::Cursor, per, threads);
                        let groups = out.iter().map(|p| p.num_groups()).sum();
                        let recs = out.iter().map(|p| p.num_records()).sum();
                        (groups, recs, out)
                    },
                )
            })
            .min_by_key(|m| m.elapsed)
            .unwrap();
        assert_eq!(flat.groups, naive.groups, "flat/naive group-count mismatch");
        assert_eq!(
            flat.records, naive.records,
            "flat/naive record-count mismatch"
        );
        report.push(BenchRecord::from_total(
            format!("{label}/flat-t{threads}"),
            flat.records as u64,
            flat.elapsed,
        ));
        if best.is_none() || flat.elapsed < best.unwrap().1 {
            best = Some((threads, flat.elapsed));
        }
        if threads == 1 {
            flat1 = Some(flat);
        }
    }
    let flat1 = flat1.unwrap();
    let (best_t, best_e) = best.unwrap();
    let alloc_ratio = naive.allocs as f64 / flat1.allocs.max(1) as f64;
    report.note(format!(
        "{label}: groups={} records={} (identical across paths)",
        naive.groups, naive.records
    ));
    report.note(format!(
        "{label}: allocations/shuffle: nested-vec={} flat={} ({alloc_ratio:.1}x fewer)",
        naive.allocs, flat1.allocs
    ));
    report.note(format!(
        "{label}: wall-clock speedup {:.2}x at 1 thread, {:.2}x best (t{best_t})",
        naive.elapsed.as_secs_f64() / flat1.elapsed.as_secs_f64(),
        naive.elapsed.as_secs_f64() / best_e.as_secs_f64(),
    ));
}

/// End-to-end job on the job-1 workload shape, to print the per-phase
/// wall-clock split ([`WallPhases`]) the shuffle rewrite optimizes.
fn end_to_end(records: usize) -> WallPhases {
    struct KeyedMapper;
    impl Mapper for KeyedMapper {
        type Input = (String, Val);
        type Key = String;
        type Value = Val;
        fn map(&self, r: &(String, Val), _ctx: &mut TaskContext, out: &mut Emitter<String, Val>) {
            out.emit(r.0.clone(), r.1);
        }
    }
    struct Count;
    impl Reducer for Count {
        type Key = String;
        type Value = Val;
        type Output = (String, u64);
        fn reduce(
            &self,
            key: &String,
            values: &[Val],
            ctx: &mut TaskContext,
            out: &mut Vec<(String, u64)>,
        ) {
            ctx.charge(values.len() as f64);
            out.push((key.clone(), values.len() as u64));
        }
    }
    let input: Vec<(String, Val)> = make_buckets(records, 1, 1, job1_key)
        .into_iter()
        .flatten()
        .flatten()
        .collect();
    let cfg = JobConfig::new("bench-shuffle-e2e", ClusterSpec::paper(4));
    // lint:allow(panic_path) bench harness: a failed run invalidates the measurement, so crash with the error
    let r = run_job(&cfg, &KeyedMapper, &GroupReducer::new(Count), &input).unwrap();
    r.wall_phases
}

fn main() -> std::io::Result<()> {
    let opts = ExpOptions::from_args(500_000);
    let records = if opts.quick {
        opts.entities.min(40_000)
    } else {
        opts.entities
    };
    let maps = 8;
    let partitions = 8;

    let mut report = BenchReport::new(
        "shuffle",
        format!(
            "flat grouped partitions vs nested-Vec driver shuffle \
             ({records} records, {maps} map tasks, {partitions} partitions, Zipf-ish keys; \
             lifecycle = build + teardown)"
        ),
    );

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    report.note(format!(
        "host has {cores} CPU core(s); with 1 core the flat-tN rows measure \
         algorithmic gains only — thread fan-out needs multi-core hardware"
    ));

    eprintln!("job-1 shape: String title-prefix keys…");
    bench_shape(
        &mut report,
        "job1-string",
        records,
        maps,
        partitions,
        job1_key,
    );
    eprintln!("job-2 shape: u64 SQ keys…");
    bench_shape(&mut report, "job2-u64", records, maps, partitions, |id| id);

    // ---- end-to-end wall-phase split -------------------------------------
    let phases = end_to_end(records / 4);
    report.note(format!(
        "e2e wall phases (quarter workload): map={:?} shuffle={:?} reduce={:?}",
        phases.map, phases.shuffle, phases.reduce
    ));

    report.emit(&opts.out_dir)?;
    Ok(())
}
