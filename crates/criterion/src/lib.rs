//! An offline, dependency-free subset of the `criterion` API.
//!
//! The build environment has no access to crates.io, so this crate
//! provides the slice of criterion this workspace's benches use:
//! [`criterion_group!`]/[`criterion_main!`], benchmark groups,
//! throughput annotation and `Bencher::iter`. Measurement is a plain
//! warmup + timed-batch loop reporting mean wall time per iteration —
//! no statistics, plots or comparison against saved baselines.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Throughput annotation for a benchmark group.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// The timing loop handed to each benchmark closure.
pub struct Bencher {
    /// Mean time per iteration from the measured batch.
    mean: Duration,
    /// Iterations measured.
    iters: u64,
}

impl Bencher {
    /// Times `f`, storing the mean per-iteration cost.
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut f: F) {
        // Warmup: one call, then size a batch of ~200 ms.
        let t0 = Instant::now();
        std::hint::black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(50));
        let batch =
            (Duration::from_millis(200).as_nanos() / once.as_nanos()).clamp(1, 10_000) as u64;
        let t1 = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        self.mean = t1.elapsed() / batch as u32;
        self.iters = batch;
    }
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    _c: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-iteration throughput used in reporting.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Runs one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            mean: Duration::ZERO,
            iters: 0,
        };
        f(&mut b);
        let per = b.mean;
        print!(
            "{}/{id}: {:.3} ms/iter ({} iters)",
            self.name,
            per.as_secs_f64() * 1e3,
            b.iters
        );
        match self.throughput {
            Some(Throughput::Elements(n)) if per > Duration::ZERO => {
                print!("  [{:.1} Melem/s]", n as f64 / per.as_secs_f64() / 1e6);
            }
            Some(Throughput::Bytes(n)) if per > Duration::ZERO => {
                print!("  [{:.1} MB/s]", n as f64 / per.as_secs_f64() / 1e6);
            }
            _ => {}
        }
        println!();
        self
    }

    /// Ends the group (reporting is immediate; this is a no-op).
    pub fn finish(self) {}
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
            _c: self,
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        self.benchmark_group("bench").bench_function(id, f);
        self
    }
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares `main` from group-runner functions.
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
    fn bencher_measures_something() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("t");
        g.throughput(Throughput::Elements(10));
        g.bench_function("noop", |b| b.iter(|| 1 + 1));
        g.finish();
    }
}
