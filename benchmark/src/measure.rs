//! Clocks, memory, order statistics, command-line arguments and the result
//! line: everything the two measuring binaries share that is not about entity
//! resolution.

use std::time::Instant;

use serde::Value;

/// Command-line arguments shared by the three binaries. The contract's
/// invocation is `--workload <name> --seed <n> --seconds <s> --trace <0|1>`;
/// the front-end also runs with none of them.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name; `None` means every workload (front-end only).
    pub workload: Option<String>,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long one run measures.
    pub seconds: f64,
    /// `Some(true)` for the traced pass, `Some(false)` for the end-to-end
    /// pass, `None` for both (front-end only).
    pub trace: Option<bool>,
}

impl Args {
    /// Parse `--flag value` pairs. Unknown flags and malformed values are
    /// errors: the arguments come from outside the program.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut parsed = Self {
            workload: None,
            seed: 42,
            seconds: 20.0,
            trace: None,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} takes a value"))?;
            match flag.as_str() {
                "--workload" => parsed.workload = Some(value),
                "--seed" => {
                    parsed.seed = value
                        .parse()
                        .map_err(|_| format!("--seed takes a whole number, got '{value}'"))?;
                }
                "--seconds" => {
                    let seconds: f64 = value
                        .parse()
                        .map_err(|_| format!("--seconds takes a number, got '{value}'"))?;
                    if !seconds.is_finite() || seconds <= 0.0 || seconds > 600.0 {
                        return Err(format!("--seconds must be in (0, 600], got '{value}'"));
                    }
                    parsed.seconds = seconds;
                }
                "--trace" => {
                    parsed.trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                    });
                }
                _ => return Err(format!("unknown argument: {flag}")),
            }
        }
        Ok(parsed)
    }
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    seconds: i64,
    nanoseconds: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// User + system CPU seconds of this process, all threads, from the
/// process CPU-time clock (nanosecond resolution; the 10 ms ticks of
/// `/proc/self/stat` are a tenth of the shortest execution timed here).
/// 0 where the clock is unavailable.
pub fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut time = Timespec {
        seconds: 0,
        nanoseconds: 0,
    };
    // SAFETY: `time` is a valid, writable `timespec`; the call writes
    // nothing else and keeps no pointer.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) } != 0 {
        return 0.0;
    }
    time.seconds as f64 + time.nanoseconds as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`); 0 where procfs is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

extern "C" {
    /// glibc: return free heap memory, of every arena, to the system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Give the heap's free memory back to the system, so that what one
/// execution left behind in the allocator is not counted into the next
/// execution's peak RSS.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` has no preconditions; it takes the allocator's
    // own locks and only releases memory that is already free.
    unsafe {
        malloc_trim(0);
    }
}

/// Reset the kernel's peak-RSS mark of this process to its current RSS
/// (`echo 5 > /proc/self/clear_refs`, Linux 4.0 and later), so that the next
/// [`peak_rss_mib`] reads the peak since now. False where that is not allowed;
/// the peak then keeps covering the whole life of the process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Seconds one [`Calibration::run`] stands for when a time is normalized: its
/// duration on the host the benchmark was sized on, with nothing else running
/// on that host's core.
pub const CALIBRATION_NOMINAL_S: f64 = 0.010;

/// A fixed piece of work that is timed right before and right after
/// everything the end-to-end pass times, to tell how fast the host was
/// running *then*.
///
/// The benchmark runs on a few virtual CPUs of a shared host. Each is a
/// hardware thread whose sibling belongs to somebody else; while the sibling
/// is busy, the same code takes 1.5 to 1.8 times as long, for seconds to
/// minutes at a stretch, and a run of 20 s may see only one of the two
/// speeds. No statistic of raw times from one run removes that (medians of
/// back-to-back runs differed by 15 to 35%, minima by up to 40%), but a
/// reference measured at the same moments does: the calibration work slows
/// down with the measured work, so their ratio stays put.
///
/// The work mixes what the pipeline's own code is made of, in the shares
/// that made the ratio steadiest for all four workloads (a little under 60% of
/// its undisturbed time in dense independent integer arithmetic, which a busy
/// sibling slows most, and the rest in dependent loads from a table that fits
/// the level-2 cache). It is the benchmark's own code and never changes with
/// the program under test.
pub struct Calibration {
    table: Vec<u32>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibration {
    const TABLE_LEN: usize = 256 * 1024; // × 4 bytes = 1 MiB
    const ROUNDS: u64 = 10;
    const ARITHMETIC_STEPS: u64 = 219_000;
    const LOAD_STEPS: u64 = 49_000;

    /// Build the table: one random cycle through all its slots.
    pub fn new() -> Self {
        let mut table: Vec<u32> = (0..Self::TABLE_LEN as u32).collect();
        let mut x = 88_172_645_463_325_252_u64;
        // Sattolo's shuffle with a fixed xorshift stream.
        for i in (1..Self::TABLE_LEN).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            table.swap(i, (x % i as u64) as usize);
        }
        Self { table }
    }

    /// Do the work once; seconds it took.
    #[inline(never)]
    pub fn run(&self) -> f64 {
        let start = Instant::now();
        let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let mut cursors = [0usize, 1, 2, 3];
        for _ in 0..Self::ROUNDS {
            for i in 0..std::hint::black_box(Self::ARITHMETIC_STEPS) {
                for lane in &mut lanes {
                    *lane = lane
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(i ^ (*lane >> 13));
                }
            }
            for _ in 0..std::hint::black_box(Self::LOAD_STEPS) {
                for cursor in &mut cursors {
                    *cursor = self.table[*cursor] as usize;
                }
            }
        }
        std::hint::black_box((lanes, cursors));
        start.elapsed().as_secs_f64()
    }

    /// Run `f` with one calibration before and one after it. Returns what `f`
    /// returned and the factor that normalizes a time taken inside `f`:
    /// [`CALIBRATION_NOMINAL_S`] over the mean of the two calibrations.
    pub fn around<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.run();
        let value = f();
        let after = self.run();
        (value, CALIBRATION_NOMINAL_S / ((before + after) / 2.0))
    }
}

/// Cores available to this process. Reported with every result: with one
/// core, nothing here says anything about parallel speed-up.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Wall and CPU seconds of one call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process CPU seconds (user + system, all threads).
    pub cpu_s: f64,
}

/// Run `f`, measuring its wall and process-CPU time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let value = f();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    (value, Timed { wall_s, cpu_s })
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(samples, n=4)` does (the exclusive method), because
/// that is what the benchmark's acceptance rule is stated in. A single sample
/// is its own quartiles.
///
/// # Panics
/// Panics on an empty slice: every caller measures at least once.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    [1usize, 2, 3].map(|k| {
        // 1-based rank (n + 1)·k/4, clamped so both neighbours exist.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    })
}

/// The median of `samples` (see [`quartiles`]).
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples)[1]
}

/// Named metrics in reporting order, each with its unit.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// No metrics yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// Metrics that cannot be written as JSON numbers.
    pub fn non_finite(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|m| !m.1.is_finite())
            .map(|m| m.0.as_str())
            .collect()
    }

    fn to_value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Value::Map(vec![
                            ("value".into(), Value::F64(*value)),
                            ("unit".into(), Value::Str((*unit).into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The result object a run ends with: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, on one line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let value = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), metrics.to_value()),
    ]);
    serde_json::to_string(&value).expect("a value tree always serializes")
}

/// A map value from `(key, value)` pairs, for the detail line and reports.
pub fn map(entries: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A sequence of numbers as a value.
pub fn numbers(values: &[f64]) -> Value {
    Value::Seq(values.iter().map(|&v| Value::F64(v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn calibration_factor_is_nominal_over_measured() {
        let calibration = Calibration::new();
        let (value, factor) = calibration.around(|| 7);
        assert_eq!(value, 7);
        assert!(factor.is_finite() && factor > 0.0);
        // The same work twice: the two factors are of one size.
        let (_, again) = calibration.around(|| ());
        assert!(again / factor < 10.0 && factor / again < 10.0);
    }

    #[test]
    fn args_parse_the_contract_invocation() {
        let args = "--workload pubs-ours --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from);
        let a = Args::parse(args).unwrap();
        assert_eq!(a.workload.as_deref(), Some("pubs-ours"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, Some(true)));
        assert!(Args::parse(["--seed".to_string()]).is_err());
        assert!(Args::parse(["--trace".to_string(), "2".to_string()]).is_err());
        assert!(Args::parse(["--bogus".to_string(), "1".to_string()]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::new();
        m.push("wall_s", 1.5, "s");
        assert_eq!(
            result_line(true, 3, 0, &m),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}"#
        );
    }
}
