//! Offline, API-compatible subset of `criterion`.
//!
//! A plain timing harness behind criterion's builder API: warm-up, a fixed
//! number of samples, and a mean/min report per benchmark printed to
//! stdout. No statistics engine, plots, or baseline comparisons — enough
//! for the workspace's micro-benchmarks to build and produce useful
//! numbers without network access to the real crate.
//!
//! Two extras the workspace relies on:
//!
//! * `--test` (criterion's compile-and-smoke flag, as passed by
//!   `cargo bench -- --test`): each benchmark is a short measurement — a
//!   warm-up, then a few timed batches of calls, each batch at least
//!   50 µs long — recorded as the per-call median, so that a
//!   smoke run reads what the baseline's warm samples read. CI uses this
//!   to keep benches compiling and panic-free, and to gate regressions.
//! * `DDEMOS_BENCH_JSON=<path>`: every measurement is appended to `<path>`
//!   as one JSON object per line (`scripts/bench_record.sh` assembles the
//!   checked-in `BENCH_*.json` baselines from these). A path that cannot
//!   be written panics the run.

#![warn(missing_docs)]

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Under `--test`, the least time one timed batch of calls takes: long
/// enough that the clock's resolution and one cold call do not show.
const SMOKE_BATCH: Duration = Duration::from_micros(50);
/// Under `--test`, the time a benchmark's timed batches may take
/// together: it takes five where they fit, else three, else one — an odd
/// count, so that the median is one batch's time and one slow batch
/// cannot be it.
const SMOKE_BUDGET: Duration = Duration::from_millis(300);

/// True when the binary was invoked with criterion's `--test` smoke flag.
pub fn is_test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// Appends one benchmark measurement to the file named by
/// `DDEMOS_BENCH_JSON` (one JSON object per line), if set.
///
/// # Panics
/// Panics, naming the path and the error, if the variable is set and the
/// file cannot be opened or written: a recording that silently goes
/// missing would fail its gate later with less to go on.
pub fn record_json(id: &str, median_ns: u64, mean_ns: u64, min_ns: u64, samples: usize) {
    let Some(path) = std::env::var_os("DDEMOS_BENCH_JSON") else {
        return;
    };
    append_line(
        Path::new(&path),
        &format!(
            "{{\"id\":\"{id}\",\"median_ns\":{median_ns},\"mean_ns\":{mean_ns},\
             \"min_ns\":{min_ns},\"samples\":{samples}}}"
        ),
    );
}

fn append_line(path: &Path, line: &str) {
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut file| writeln!(file, "{line}"));
    if let Err(e) = written {
        panic!(
            "DDEMOS_BENCH_JSON={}: cannot record a measurement: {e}",
            path.display()
        );
    }
}

/// How batched inputs are sized; accepted for API compatibility (the shim
/// always materializes one input per routine invocation).
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

/// Per-benchmark measurement driver handed to the closure given to
/// [`Criterion::bench_function`].
pub struct Bencher {
    samples: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    /// `--test` smoke mode: a short measurement ([`SMOKE_BATCH`]).
    smoke: bool,
    /// Collected per-iteration durations, in nanoseconds.
    recorded_ns: Vec<u64>,
}

impl Bencher {
    /// `--test`'s measurement: calls until [`SMOKE_BATCH`] has passed (at
    /// least one) to warm up and to size a batch, then timed batches of
    /// that many calls, each at least [`SMOKE_BATCH`] long, five, three or
    /// one of them ([`SMOKE_BUDGET`]); records each batch's time a call.
    /// `batch(n)` makes `n` calls and returns the time they took.
    fn smoke_samples(&mut self, mut batch: impl FnMut(u64) -> Duration) {
        let (mut warm, mut calls) = (Duration::ZERO, 0u64);
        while warm < SMOKE_BATCH {
            warm += batch(1);
            calls += 1;
        }
        let per_call = (warm.as_nanos() / u128::from(calls)).max(1);
        let size = SMOKE_BATCH.as_nanos().div_ceil(per_call).min(100_000) as u64;
        let batch_ns = per_call * u128::from(size);
        let samples = [5, 3]
            .into_iter()
            .find(|&n| n * batch_ns <= SMOKE_BUDGET.as_nanos())
            .unwrap_or(1);
        for _ in 0..samples {
            let took = batch(size);
            self.recorded_ns
                .push((took.as_nanos() / u128::from(size)) as u64);
        }
    }

    /// Times `routine`, repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if self.smoke {
            self.smoke_samples(|n| {
                let t0 = Instant::now();
                for _ in 0..n {
                    std::hint::black_box(routine());
                }
                t0.elapsed()
            });
            return;
        }
        // Warm-up, and calibrate iterations per sample.
        let warm_deadline = Instant::now() + self.warm_up_time;
        let mut warm_iters: u64 = 0;
        while Instant::now() < warm_deadline {
            std::hint::black_box(routine());
            warm_iters += 1;
        }
        let per_iter = self.warm_up_time.as_nanos() as u64 / warm_iters.max(1);
        let sample_budget =
            (self.measurement_time.as_nanos() as u64 / self.samples.max(1) as u64).max(1);
        let iters_per_sample = (sample_budget / per_iter.max(1)).clamp(1, 1_000_000);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                std::hint::black_box(routine());
            }
            self.recorded_ns
                .push((t0.elapsed().as_nanos() as u64) / iters_per_sample);
        }
    }

    /// Times `routine` over fresh inputs produced by `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        if self.smoke {
            self.smoke_samples(|n| {
                let inputs: Vec<I> = (0..n).map(|_| setup()).collect();
                let t0 = Instant::now();
                for input in inputs {
                    std::hint::black_box(routine(input));
                }
                t0.elapsed()
            });
            return;
        }
        let warm_deadline = Instant::now() + self.warm_up_time;
        while Instant::now() < warm_deadline {
            let input = setup();
            std::hint::black_box(routine(input));
        }
        for _ in 0..self.samples {
            let input = setup();
            let t0 = Instant::now();
            std::hint::black_box(routine(input));
            self.recorded_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
}

/// The benchmark harness configuration and runner.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(300),
        }
    }
}

impl Criterion {
    /// Sets the number of samples per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the target total measurement time per benchmark.
    #[must_use]
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Sets the warm-up time per benchmark.
    #[must_use]
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Runs one named benchmark (a short measurement under `--test`).
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let smoke = is_test_mode();
        let mut bencher = Bencher {
            samples: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
            smoke,
            recorded_ns: Vec::new(),
        };
        f(&mut bencher);
        let mut ns = bencher.recorded_ns;
        if ns.is_empty() {
            println!("{id:<40} (no samples recorded)");
            return self;
        }
        ns.sort_unstable();
        let median = ns[ns.len() / 2];
        let mean = ns.iter().sum::<u64>() / ns.len() as u64;
        if smoke {
            println!("Testing {id} ... ok");
        } else {
            println!(
                "{id:<40} median {:>12} mean {:>12} min {:>12} ({} samples)",
                format_ns(median),
                format_ns(mean),
                format_ns(ns[0]),
                ns.len(),
            );
        }
        record_json(id, median, mean, ns[0], ns.len());
        self
    }
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Declares a benchmark group: either
/// `criterion_group!(name, target, ...)` or the long form with
/// `name = ...; config = ...; targets = ...`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark binary's `main`, running each group in turn.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_and_prints() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(30))
            .warm_up_time(Duration::from_millis(5));
        c.bench_function("smoke/iter", |b| b.iter(|| 2u64 + 2));
        c.bench_function("smoke/batched", |b| {
            b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput)
        });
    }

    /// Under `--test` a row is a warm-up and five timed batches (of a
    /// routine this short), each recorded as its time a call.
    #[test]
    fn smoke_mode_times_batches_of_calls() {
        let mut bencher = Bencher {
            samples: 1,
            measurement_time: Duration::ZERO,
            warm_up_time: Duration::ZERO,
            smoke: true,
            recorded_ns: Vec::new(),
        };
        let mut calls = 0u64;
        bencher.iter(|| calls += 1);
        assert_eq!(bencher.recorded_ns.len(), 5);
        assert!(calls > 5, "{calls} calls in five batches");
    }

    #[test]
    fn record_json_appends_when_env_set() {
        // No env var: a silent no-op.
        std::env::remove_var("DDEMOS_BENCH_JSON");
        record_json("noop", 1, 1, 1, 1);
        let path = std::env::temp_dir().join(format!("ddemos-bench-{}.jsonl", std::process::id()));
        std::env::set_var("DDEMOS_BENCH_JSON", &path);
        record_json("smoke/json", 3, 2, 1, 4);
        std::env::remove_var("DDEMOS_BENCH_JSON");
        let contents = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(contents.contains(
            "{\"id\":\"smoke/json\",\"median_ns\":3,\"mean_ns\":2,\"min_ns\":1,\"samples\":4}"
        ));
    }

    /// A recording that cannot be written stops the run, naming the path
    /// and the error.
    #[test]
    #[should_panic(expected = "cannot record a measurement")]
    fn an_unwritable_recording_panics() {
        let missing = std::env::temp_dir()
            .join(format!("ddemos-bench-missing-{}", std::process::id()))
            .join("smoke.jsonl");
        append_line(&missing, "{}");
    }

    #[test]
    fn format_ns_units() {
        assert_eq!(format_ns(500), "500 ns");
        assert_eq!(format_ns(1_500), "1.500 µs");
        assert_eq!(format_ns(2_500_000), "2.500 ms");
        assert_eq!(format_ns(3_000_000_000), "3.000 s");
    }
}
