//! Offline stand-in for the subset of `criterion` used by this
//! workspace's benches: `Criterion`, benchmark groups, `BenchmarkId`,
//! `Bencher::{iter, iter_batched}`, `black_box`, and the
//! `criterion_group!`/`criterion_main!` macros.
//!
//! Measurement is intentionally simple — a warm-up pass followed by a
//! fixed wall-clock budget per benchmark, reporting the mean iteration
//! time — but the harness shape (and so `cargo bench`) stays intact.

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

/// Passed to benchmark closures; `iter` runs the measured routine.
pub struct Bencher {
    budget: Duration,
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` repeatedly until the budget is spent.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warm-up (also primes lazy state so timing excludes it).
        black_box(routine());
        let start = Instant::now();
        let mut iters = 0u64;
        while start.elapsed() < self.budget {
            black_box(routine());
            iters += 1;
        }
        self.iters = iters.max(1);
        self.elapsed = start.elapsed();
    }

    /// Times `routine` on a fresh `setup()` value per iteration; only
    /// the routine counts against the budget and into the mean (neither
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
        let mut iters = 0u64;
        while elapsed < self.budget && wall.elapsed() < self.budget * 20 {
            let input = setup();
            let start = Instant::now();
            let output = routine(input);
            elapsed += start.elapsed();
            black_box(output);
            iters += 1;
        }
        self.iters = iters.max(1);
        self.elapsed = elapsed;
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(label: &str, budget: Duration, mut f: F) {
    let mut bencher = Bencher { budget, iters: 0, elapsed: Duration::ZERO };
    f(&mut bencher);
    if bencher.iters > 0 {
        let mean = bencher.elapsed / u32::try_from(bencher.iters).unwrap_or(u32::MAX);
        println!("{label:40} {:>12.3?}/iter ({} iters)", mean, bencher.iters);
    } else {
        println!("{label:40} (no measurement — closure never called iter)");
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
}
