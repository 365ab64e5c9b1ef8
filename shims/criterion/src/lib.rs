//! Offline stand-in for [`criterion`](https://crates.io/crates/criterion).
//!
//! Implements the API subset the workspace's `micro` bench uses —
//! [`Criterion::bench_function`], benchmark groups with [`Throughput`],
//! [`Bencher::iter`] / [`Bencher::iter_batched`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros — over a simple
//! wall-clock measurement loop: warm up briefly, then run a fixed number of
//! timed samples and report mean / min / max ns per iteration (plus
//! throughput when configured). No statistics beyond that, no HTML reports,
//! no comparison to saved baselines.

use std::hint;
use std::time::{Duration, Instant};

/// Re-export of the standard black-box to keep optimizers honest.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// How `iter_batched` amortizes setup cost; the shim runs one setup per
/// measured iteration regardless, so this is a marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration input.
    SmallInput,
    /// Large per-iteration input.
    LargeInput,
    /// One batch per sample.
    PerIteration,
}

/// Units for reporting throughput alongside timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Measurement settings shared by a [`Criterion`] instance.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    warm_up: Duration,
    measure_for: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 100,
            warm_up: Duration::from_millis(300),
            measure_for: Duration::from_millis(1500),
        }
    }
}

impl Criterion {
    /// Sets the number of samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Sets the warm-up duration.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up = d;
        self
    }

    /// Sets the measurement duration budget.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measure_for = d;
        self
    }

    /// Runs `f` as a benchmark named `id` and prints the result.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let mut bencher = Bencher::new(self.clone());
        f(&mut bencher);
        bencher.report(id, None);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.to_string(), throughput: None }
    }

    /// Called by `criterion_main!` after all groups run.
    pub fn final_summary(&self) {}
}

/// A named collection of benchmarks sharing throughput settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the throughput used to derive rates from timings.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs `f` as a benchmark named `group/id`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let mut bencher = Bencher::new(self.criterion.clone());
        f(&mut bencher);
        bencher.report(&format!("{}/{}", self.name, id), self.throughput);
        self
    }

    /// Finishes the group (reporting happens per-function in this shim).
    pub fn finish(self) {}
}

/// Collected timing samples, in nanoseconds per iteration.
#[derive(Debug, Default)]
struct Samples {
    ns_per_iter: Vec<f64>,
}

/// The measurement driver handed to benchmark closures.
pub struct Bencher {
    config: Criterion,
    samples: Samples,
}

impl Bencher {
    fn new(config: Criterion) -> Self {
        Bencher { config, samples: Samples::default() }
    }

    /// Measures `routine` repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: also estimates per-iteration cost to size batches.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.config.warm_up {
            black_box(routine());
            warm_iters += 1;
        }
        let est_ns = (warm_start.elapsed().as_nanos() as f64 / warm_iters.max(1) as f64).max(1.0);
        let budget_ns = self.config.measure_for.as_nanos() as f64;
        let per_sample =
            ((budget_ns / self.config.sample_size as f64 / est_ns).ceil() as u64).max(1);
        for _ in 0..self.config.sample_size {
            let t0 = Instant::now();
            for _ in 0..per_sample {
                black_box(routine());
            }
            let dt = t0.elapsed().as_nanos() as f64;
            self.samples.ns_per_iter.push(dt / per_sample as f64);
        }
    }

    /// Measures `routine` with fresh input from `setup` each iteration.
    /// As in criterion, neither the setup nor the drop of the routine's
    /// output is timed: a routine that returns its input keeps that drop
    /// out of the measurement too.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let warm_start = Instant::now();
        while warm_start.elapsed() < self.config.warm_up {
            black_box(routine(setup()));
        }
        for _ in 0..self.config.sample_size {
            let input = setup();
            let t0 = Instant::now();
            let output = black_box(routine(input));
            self.samples.ns_per_iter.push(t0.elapsed().as_nanos() as f64);
            drop(output);
        }
    }

    fn report(&self, id: &str, throughput: Option<Throughput>) {
        let s = &self.samples.ns_per_iter;
        if s.is_empty() {
            println!("{id:<40} (no samples)");
            return;
        }
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        let min = s.iter().copied().fold(f64::INFINITY, f64::min);
        let max = s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let rate = match throughput {
            Some(Throughput::Bytes(b)) => {
                format!("  {:>10.1} MiB/s", b as f64 / mean * 1e9 / (1024.0 * 1024.0))
            }
            Some(Throughput::Elements(e)) => {
                format!("  {:>10.1} Melem/s", e as f64 / mean * 1e9 / 1e6)
            }
            None => String::new(),
        };
        println!(
            "{id:<40} mean {:>12} min {:>12} max {:>12}{rate}",
            fmt_ns(mean),
            fmt_ns(min),
            fmt_ns(max)
        );
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Declares a benchmark group: either the struct form with `name`/`config`/
/// `targets` or the simple list form.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
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

/// Declares the bench entry point running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(2));
        let mut runs = 0u64;
        c.bench_function("noop", |b| b.iter(|| runs += 1));
        assert!(runs > 0);
    }

    #[test]
    fn groups_and_batched_iterations_work() {
        let mut c = Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(2));
        let mut group = c.benchmark_group("g");
        group.throughput(Throughput::Bytes(4096));
        group.bench_function("batched", |b| {
            b.iter_batched(|| vec![0u8; 16], |v| v.len(), BatchSize::SmallInput)
        });
        group.finish();
    }

    #[test]
    fn iter_batched_stops_the_clock_before_dropping_the_output() {
        struct SlowDrop;
        impl Drop for SlowDrop {
            fn drop(&mut self) {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        let config = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(2));
        let mut bencher = Bencher::new(config);
        bencher.iter_batched(|| (), |()| SlowDrop, BatchSize::SmallInput);
        let samples = &bencher.samples.ns_per_iter;
        assert_eq!(samples.len(), 3);
        assert!(samples.iter().all(|&ns| ns < 10e6), "a sample timed the 20 ms drop: {samples:?}");
    }

    criterion_group! {
        name = shim_benches;
        config = Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(2));
        targets = target_a
    }

    fn target_a(c: &mut Criterion) {
        c.bench_function("a", |b| b.iter(|| black_box(1 + 1)));
    }

    #[test]
    fn group_macro_produces_runner() {
        shim_benches();
    }
}
