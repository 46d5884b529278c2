//! Offline stand-in for the subset of the `criterion` API this workspace's
//! benches use.
//!
//! The build container cannot fetch crates, so the real `criterion` is
//! unavailable. This shim keeps every `benches/*.rs` target compiling and
//! runnable: each benchmark closure is timed over a small fixed number of
//! iterations and the median wall-clock time is printed. There is no
//! statistical analysis, plotting, or HTML report. When invoked with
//! `--test` (as `cargo test --benches` does), each benchmark runs exactly
//! once as a smoke test.
// Lint policy: see [workspace.lints] in the root Cargo.toml.

use std::time::{Duration, Instant};

/// Prevent the optimizer from deleting a benchmark's result.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Top-level benchmark driver (a much-reduced `criterion::Criterion`).
#[derive(Debug)]
pub struct Criterion {
    /// Iterations measured per benchmark (1 in `--test` mode).
    sample_size: usize,
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 5,
            test_mode: false,
        }
    }
}

impl Criterion {
    /// Honour the CLI arguments cargo passes to bench binaries (only
    /// `--test` changes behaviour; everything else is accepted and
    /// ignored).
    #[must_use]
    pub fn configure_from_args(mut self) -> Self {
        self.test_mode = std::env::args().any(|a| a == "--test");
        self
    }

    /// Run `f` as a named benchmark.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(id, self.effective_samples(), f);
        self
    }

    /// Open a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: None,
        }
    }

    fn effective_samples(&self) -> usize {
        if self.test_mode {
            1
        } else {
            self.sample_size
        }
    }
}

/// Identifier for a parameterized benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Id from a function name plus parameter.
    pub fn new(function: &str, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{function}/{parameter}"))
    }

    /// Id from the parameter alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// A group of related benchmarks sharing a name prefix.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Set the measured iteration count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.clamp(1, 100));
        self
    }

    /// Run `f` as a benchmark inside this group.
    pub fn bench_function<I, F>(&mut self, id: I, f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into().0);
        run_one(&full, self.effective_samples(), f);
        self
    }

    /// Run `f` with an input value as a benchmark inside this group.
    pub fn bench_with_input<I, T, F>(&mut self, id: I, input: &T, mut f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        T: ?Sized,
        F: FnMut(&mut Bencher, &T),
    {
        let full = format!("{}/{}", self.name, id.into().0);
        run_one(&full, self.effective_samples(), |b| f(b, input));
        self
    }

    /// Finish the group (report footer; no-op beyond output here).
    pub fn finish(&mut self) {}

    fn effective_samples(&self) -> usize {
        if self.criterion.test_mode {
            1
        } else {
            // Cap the shim's measured iterations: benches here exercise
            // NP-hard kernels, so "statistical" sample counts are not
            // affordable without the real criterion's adaptive planning.
            self.sample_size.unwrap_or(5).min(5)
        }
    }
}

/// Per-benchmark timing handle (`b.iter(..)`).
#[derive(Debug, Default)]
pub struct Bencher {
    times: Vec<Duration>,
    iters: usize,
}

impl Bencher {
    /// Time `f`, `iters` times (set by the driver).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        for _ in 0..self.iters {
            // The shim is the bench harness's own clock.
            #[allow(clippy::disallowed_methods)]
            let t0 = Instant::now();
            let out = f();
            self.times.push(t0.elapsed());
            drop(black_box(out));
        }
    }
}

fn run_one<F: FnMut(&mut Bencher)>(id: &str, iters: usize, mut f: F) {
    let mut b = Bencher {
        times: Vec::new(),
        iters,
    };
    f(&mut b);
    b.times.sort_unstable();
    let median = b
        .times
        .get(b.times.len() / 2)
        .copied()
        .unwrap_or(Duration::ZERO);
    println!(
        "bench {id:<48} median {median:>12.3?} ({} iters)",
        b.times.len()
    );
}

/// Declare a function that runs a list of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declare `main` for a bench binary from one or more groups.
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
    fn group_and_function_run() {
        let mut c = Criterion::default();
        let mut ran = 0;
        c.bench_function("unit", |b| b.iter(|| 1 + 1));
        let mut g = c.benchmark_group("grp");
        g.sample_size(2);
        g.bench_function(BenchmarkId::from_parameter(7), |b| {
            b.iter(|| black_box(7) * 2)
        });
        g.bench_with_input(BenchmarkId::new("with_input", 3), &3usize, |b, &x| {
            ran = x;
            b.iter(|| x + 1)
        });
        g.finish();
        assert_eq!(ran, 3);
    }
}
