//! Offline stand-in for the subset of `criterion` used by this
//! workspace's benches: `Criterion`, benchmark groups, `BenchmarkId`,
//! `Bencher::{iter, iter_batched}`, `black_box`, and the
//! `criterion_group!`/`criterion_main!` macros.
//!
//! Measurement is intentionally simple — a warm-up pass, then a fixed
//! wall-clock budget per benchmark in which each sample is timed on its
//! own — but the harness shape (and so `cargo bench`) stays intact.
//! `iter` times batches of calls long enough for the clock to resolve
//! (a sample is a batch's time over its length); `iter_batched` times
//! each call. A benchmark reports the median sample and the p10–p90
//! range: one preempted sample moves neither, where it would move a
//! mean.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Prevents the optimizer from deleting a computed value.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// The benchmark driver.
pub struct Criterion {
    budget: Duration,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion { budget: Duration::from_millis(300) }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into() }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(id, self.budget, f);
        self
    }
}

/// A named benchmark group (`Criterion::benchmark_group`).
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim's time budget makes the
    /// sample count moot.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function<F>(&mut self, id: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{id}", self.name);
        run_benchmark(&label, self.criterion.budget, f);
        self
    }

    /// Runs one parameterized benchmark within the group.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{id}", self.name);
        run_benchmark(&label, self.criterion.budget, |b| f(b, input));
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// A benchmark identifier combining a name and a parameter.
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// Creates an id rendered as `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> BenchmarkId {
        BenchmarkId { text: format!("{}/{parameter}", name.into()) }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// How many inputs criterion would set up per batch; the shim sets up
/// one per iteration whatever the size, so this is accepted for API
/// compatibility only.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Inputs are cheap to hold.
    SmallInput,
    /// Inputs are expensive to hold.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

/// Most samples one benchmark takes: a routine of nanoseconds timed
/// per call stops here, before its budget, with its samples in 1.6 MB.
const MAX_SAMPLES: usize = 100_000;

/// Shortest batch `iter` times as one sample. A call of a few hundred
/// nanoseconds timed alone is mostly the clock's own cost and
/// resolution; a batch this long is not, and it spans enough of any
/// brief interference that batches' medians agree from run to run.
const MIN_BATCH: Duration = Duration::from_micros(100);

/// Longest batch `iter` tries, so a routine the optimizer emptied
/// still ends its calibration.
const MAX_BATCH_CALLS: u32 = 1 << 20;

/// Passed to benchmark closures; `iter` runs the measured routine.
pub struct Bencher {
    budget: Duration,
    /// The time of one call in each measured sample.
    samples: Vec<Duration>,
    /// Calls per sample: `iter`'s batch length, 1 for `iter_batched`.
    calls_per_sample: u32,
}

impl Bencher {
    /// Times `routine` until the budget is spent, in batches of calls:
    /// after a warm-up call (which also primes lazy state so timing
    /// excludes it), the batch length doubles from one call until a
    /// batch takes `MIN_BATCH` (100 µs); then each batch of that length is
    /// one sample, its time divided by its length.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        black_box(routine());
        let mut calls = 1;
        loop {
            let start = Instant::now();
            for _ in 0..calls {
                black_box(routine());
            }
            if start.elapsed() >= MIN_BATCH || calls >= MAX_BATCH_CALLS {
                break;
            }
            calls *= 2;
        }
        self.calls_per_sample = calls;
        let start = Instant::now();
        let mut last = start;
        while last - start < self.budget && self.samples.len() < MAX_SAMPLES {
            for _ in 0..calls {
                black_box(routine());
            }
            let now = Instant::now();
            self.samples.push((now - last) / calls);
            last = now;
        }
    }

    /// Times each call of `routine` on a fresh `setup()` value; only the
    /// routine counts against the budget and into the samples (neither
    /// the set-up nor dropping what the routine returns does). A wall
    /// cap of twenty budgets bounds a benchmark whose set-up dwarfs its
    /// routine.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        black_box(routine(setup()));
        let wall = Instant::now();
        let mut elapsed = Duration::ZERO;
        while elapsed < self.budget
            && wall.elapsed() < self.budget * 20
            && self.samples.len() < MAX_SAMPLES
        {
            let input = setup();
            let start = Instant::now();
            let output = routine(input);
            let took = start.elapsed();
            black_box(output);
            elapsed += took;
            self.samples.push(took);
        }
    }
}

/// The p10, median and p90 of `samples` (nearest rank), `None` when
/// nothing was measured.
fn summary(samples: &mut [Duration]) -> Option<[Duration; 3]> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    Some([rank(0.1), rank(0.5), rank(0.9)])
}

/// Runs one benchmark closure and returns its bencher, samples taken.
fn measure<F: FnMut(&mut Bencher)>(budget: Duration, mut f: F) -> Bencher {
    let mut bencher = Bencher { budget, samples: Vec::new(), calls_per_sample: 1 };
    f(&mut bencher);
    bencher
}

fn run_benchmark<F: FnMut(&mut Bencher)>(label: &str, budget: Duration, f: F) {
    let Bencher { mut samples, calls_per_sample, .. } = measure(budget, f);
    match summary(&mut samples) {
        Some([p10, median, p90]) => println!(
            "{label:40} {median:>12.3?}/iter (p10-p90 {p10:.3?}-{p90:.3?}, {} samples x {} iters)",
            samples.len(),
            calls_per_sample
        ),
        None => println!("{label:40} (no measurement — closure never called iter)"),
    }
}

/// Collects benchmark functions into a runnable group, like criterion's
/// macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Emits `main` running the given groups.
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
    fn harness_shape_runs() {
        let mut c = Criterion { budget: Duration::from_millis(5) };
        let mut group = c.benchmark_group("g");
        group.sample_size(10);
        group.bench_function("inc", |b| b.iter(|| black_box(1 + 1)));
        group.bench_with_input(BenchmarkId::new("param", 3), &3u32, |b, &x| {
            b.iter(|| black_box(x * 2));
        });
        group.finish();
        c.bench_function("top", |b| b.iter(|| black_box(2 + 2)));
    }

    #[test]
    fn the_summary_is_the_median_and_the_p10_to_p90_range() {
        let us = Duration::from_micros;
        // 1..=101 µs, reversed, and one iteration preempted for a second:
        // the median and the range do not see it.
        let mut samples: Vec<Duration> = (1..=101).rev().map(us).collect();
        samples[0] = Duration::from_secs(1);
        assert_eq!(summary(&mut samples), Some([us(11), us(51), us(91)]));
        assert_eq!(summary(&mut []), None);
    }

    #[test]
    fn each_routine_call_is_one_sample_and_set_up_is_not_timed() {
        let ms = Duration::from_millis;
        let mut calls = 0;
        let bencher = measure(ms(20), |b| {
            b.iter_batched(
                || std::thread::sleep(ms(6)),
                |()| {
                    calls += 1;
                    std::thread::sleep(ms(2));
                },
                BatchSize::SmallInput,
            );
        });
        let mut samples = bencher.samples;
        // The warm-up call is not a sample.
        assert_eq!(samples.len(), calls - 1);
        let [_, median, _] = summary(&mut samples).expect("samples");
        assert!(median >= ms(2) && median < ms(6), "{median:?}");
    }

    #[test]
    fn a_routine_of_nanoseconds_is_timed_in_batches() {
        let mut calls = 0u64;
        let bencher = measure(Duration::from_millis(20), |b| {
            b.iter(|| {
                calls += 1;
                black_box(calls)
            });
        });
        assert!(bencher.calls_per_sample > 1, "a call of nanoseconds was timed alone");
        let mut samples = bencher.samples;
        assert!((samples.len() as u64) < calls, "{} samples of {calls} calls", samples.len());
        let [_, median, _] = summary(&mut samples).expect("samples");
        assert!(median < Duration::from_micros(1), "{median:?} per call");
    }

    #[test]
    fn a_routine_of_nanoseconds_timed_per_call_stops_at_the_sample_cap() {
        let bencher = measure(Duration::from_secs(60), |b| {
            b.iter_batched(|| 1, |x| black_box(x + 1), BatchSize::SmallInput);
        });
        assert_eq!(bencher.samples.len(), MAX_SAMPLES);
    }

    #[test]
    fn a_routine_slower_than_a_batch_is_timed_per_call() {
        let ms = Duration::from_millis;
        let bencher = measure(ms(10), |b| b.iter(|| std::thread::sleep(ms(1))));
        assert_eq!(bencher.calls_per_sample, 1);
        let mut samples = bencher.samples;
        let [_, median, _] = summary(&mut samples).expect("samples");
        assert!(median >= ms(1), "{median:?}");
    }
}
