//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no crates.io access, so this workspace-local
//! crate implements the slice of criterion's API the bench targets use:
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`],
//! [`Bencher::iter`], [`Bencher::iter_batched`], `criterion_group!` and
//! `criterion_main!`.
//!
//! Measurement is deliberately simple: after one warm-up call the harness
//! grows a batch of iterations until one batch takes at least
//! [`MIN_SAMPLE_TIME`], then times `sample_size` such batches and reports
//! the min / mean / max time *per iteration*.  Batching keeps the timer's
//! own cost (tens of nanoseconds) out of sub-microsecond benchmarks.
//! There is no statistical analysis, plotting or HTML report — the goal
//! is that `cargo bench` exercises the same code paths end to end and
//! prints comparable numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::hint;
use std::time::{Duration, Instant};

/// The shortest wall-clock time one timed batch of iterations may take.
pub const MIN_SAMPLE_TIME: Duration = Duration::from_millis(1);

/// Prevents the compiler from optimising a benchmarked value away.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Runs the closure under timing (the argument of `bench_function`).
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    /// Time per iteration of each sample.
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `sample_size` batches of calls to `f` (after one warm-up
    /// call), each batch long enough to dwarf the timer.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        self.iter_batched(|| (), |()| f());
    }

    /// Like [`Bencher::iter`], but every call of `routine` gets a fresh
    /// input from `setup`, which runs outside the timed region.
    pub fn iter_batched<I, R, S, F>(&mut self, mut setup: S, mut routine: F)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> R,
    {
        let mut time_batch = |n: usize| {
            let inputs: Vec<I> = (0..n).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                hint::black_box(routine(input));
            }
            start.elapsed()
        };
        time_batch(1);
        let mut batch = 1usize;
        while time_batch(batch) < MIN_SAMPLE_TIME && batch < 1 << 30 {
            batch *= 2;
        }
        self.samples = (0..self.sample_size)
            .map(|_| time_batch(batch) / batch as u32)
            .collect();
    }
}

fn report(name: &str, samples: &[Duration]) {
    if samples.is_empty() {
        println!("{name:<48} (no samples)");
        return;
    }
    let total: Duration = samples.iter().sum();
    let mean = total / samples.len() as u32;
    let min = samples.iter().min().copied().unwrap_or_default();
    let max = samples.iter().max().copied().unwrap_or_default();
    println!(
        "{name:<48} time: [{:>12?} {:>12?} {:>12?}]  ({} samples)",
        min,
        mean,
        max,
        samples.len()
    );
}

/// The top-level benchmark driver.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets the number of timed samples (batches) per benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl Into<String>,
        mut f: F,
    ) -> &mut Self {
        let name = name.into();
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            samples: Vec::new(),
        };
        f(&mut bencher);
        report(&name, &bencher.samples);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.into(),
        }
    }
}

/// A named group of benchmarks (prefixes every entry with the group name).
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark inside the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl Into<String>,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, name.into());
        self.parent.bench_function(full, f);
        self
    }

    /// Finishes the group (no-op; provided for API compatibility).
    pub fn finish(self) {}
}

/// Declares a benchmark group function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ( name = $name:ident; config = $config:expr; targets = $( $target:path ),+ $(,)? ) => {
        fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ( $name:ident, $( $target:path ),+ $(,)? ) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $( $target ),+
        }
    };
}

/// Declares the `main` function running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ( $( $group:path ),+ $(,)? ) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(c: &mut Criterion) {
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        let mut group = c.benchmark_group("grp");
        group.bench_function(format!("{}_cycles", 8), |b| b.iter(|| black_box(2 * 2)));
        group.finish();
    }

    criterion_group! {
        name = shim_group;
        config = Criterion::default().sample_size(3);
        targets = target
    }

    #[test]
    fn harness_runs() {
        shim_group();
    }

    #[test]
    fn batches_fill_the_minimum_sample_time() {
        let mut b = Bencher {
            sample_size: 3,
            samples: Vec::new(),
        };
        let mut calls = 0u64;
        b.iter(|| calls = black_box(calls + 1));
        assert_eq!(b.samples.len(), 3);
        // Warm-up, batch calibration and three samples, each sample a
        // batch taking at least MIN_SAMPLE_TIME: far more calls than
        // samples, and a per-call time far below the batch time.
        assert!(calls > 1000, "only {calls} calls");
        assert!(b.samples.iter().all(|&t| t < MIN_SAMPLE_TIME / 100));
    }

    #[test]
    fn batched_setup_is_not_timed() {
        let mut b = Bencher {
            sample_size: 5,
            samples: Vec::new(),
        };
        let spin = |d: Duration| {
            let start = Instant::now();
            while start.elapsed() < d {}
        };
        // A 100 us setup before every 10 us routine call: timed setup
        // would make every sample at least 110 us per iteration.
        b.iter_batched(
            || spin(Duration::from_micros(100)),
            |()| spin(Duration::from_micros(10)),
        );
        let fastest = b.samples.iter().min().copied().unwrap_or_default();
        assert!(fastest < Duration::from_micros(50), "{:?}", b.samples);
    }
}
