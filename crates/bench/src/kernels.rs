//! Per-kernel microbenchmarks: the search kernels the fine-clustering and
//! selection hot paths spend their time in, measured in isolation.
//!
//! Each entry times one kernel — MCS / MCCS (pruned and reference
//! unpruned), subgraph-isomorphism checks, canonical-form hashing, and
//! the GED search behind selection's diversity term — over a fixed set of
//! AIDS-profile molecule (or pattern) pairs, and reports the
//! median-of-N wall clock plus the number of search probes one sweep
//! spends (read back through the observability recorder, so the numbers
//! are the same counters a CLI run emits). Results land in
//! `BENCH_kernels.json`.
//!
//! The pruned/unpruned split is the before/after of the edge-label
//! upper-bound pruning ([`McsConfig::pruning`]): both variants run the
//! identical workload under the identical budget, so the ratio of their
//! medians is the kernel-level speedup, and the probe counts show where
//! it comes from (pruning rejects candidate pairs before branching, so
//! probes drop with the wall clock).
//!
//! The GED entry runs on connected patterns of 3–12 edges cut from the
//! molecules (the sizes selection's candidates have) at selection's
//! diversity node cap. Its probe count is the number of nodes the
//! branch-and-bound expands, so an exact probe match between manifests
//! means the search tree did not change.

use catapult_core::score::DIV_GED_BUDGET;
use catapult_datasets::{aids_profile, generate, random_queries};
use catapult_graph::canonical::canonical_form;
use catapult_graph::ged::ged_with_budget;
use catapult_graph::iso::are_isomorphic_tagged;
use catapult_graph::mcs::{mcs, McsConfig};
use catapult_graph::{Graph, SearchBudget};
use catapult_obs::{Recorder, Stopwatch};
use std::time::Duration;

/// One kernel variant measured over the shared pair workload.
#[derive(Clone, Debug)]
pub struct KernelBench {
    /// Kernel name ("mcs", "mccs", "iso", "canonical", "ged").
    pub kernel: &'static str,
    /// Variant within the kernel ("pruned", "unpruned", or "-" where the
    /// distinction does not apply).
    pub variant: &'static str,
    /// Median-of-N wall clock for one full sweep over the workload.
    pub median: Duration,
    /// Timed repetitions behind the median (after warmup).
    pub reps: usize,
    /// Search probes (budget-metered node expansions) one sweep spends;
    /// 0 for kernels that run no budgeted search.
    pub probes: u64,
    /// Workload size: graph pairs per sweep (graphs for "canonical").
    pub pairs: usize,
}

impl KernelBench {
    /// Probes per second of median wall clock (0 when unmetered).
    pub fn probes_per_sec(&self) -> f64 {
        let secs = self.median.as_secs_f64();
        if secs == 0.0 || self.probes == 0 {
            return 0.0;
        }
        self.probes as f64 / secs
    }
}

/// Warmup sweeps discarded before timing starts: the first sweep pays
/// allocator growth and cold caches.
const WARMUP_REPS: usize = 1;

/// Per-pair search budget. Large enough that the pruned search finishes
/// exactly on every workload pair, small enough that the reference
/// unpruned variant cannot wedge the harness on a hard pair (it reports
/// `BudgetExhausted` there instead, which is itself part of the story:
/// the bound turns budget-tripped pairs into proven-exact ones).
const PAIR_BUDGET: u64 = 20_000;

/// Graphs drawn into the pair workload; all unordered pairs of these are
/// measured, so 12 graphs → 66 pairs per sweep.
const WORKLOAD_GRAPHS: usize = 12;

/// Median-of-`reps` wall clock of `f`, after [`WARMUP_REPS`] untimed runs.
fn time_median(reps: usize, mut f: impl FnMut()) -> Duration {
    for _ in 0..WARMUP_REPS {
        f();
    }
    let mut samples: Vec<Duration> = (0..reps.max(1))
        .map(|_| {
            let start = Stopwatch::start();
            f();
            start.elapsed()
        })
        .collect();
    samples.sort();
    median_of_sorted(&samples)
}

/// Median of a sorted, non-empty sample list (even length → mean of the
/// middle pair).
fn median_of_sorted(sorted: &[Duration]) -> Duration {
    let n = sorted.len();
    debug_assert!(n > 0, "median of empty sample set");
    let mid = n / 2;
    if n % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2
    }
}

/// Probes one instrumented sweep of `f` under a `cap`-node budget spends,
/// read back through the stage counters the budget meter flushes.
fn probes_of(cap: u64, f: impl FnOnce(&SearchBudget)) -> u64 {
    let rec = Recorder::enabled();
    let budget = SearchBudget::nodes(cap).with_probe(rec.stage_probe("bench_kernels"));
    f(&budget);
    rec.snapshot()
        .map_or(0, |s| s.stage_metric_total("bench_kernels", "probes"))
}

/// All unordered pairs (i < j) of the first [`WORKLOAD_GRAPHS`] graphs.
fn pair_indices(n: usize) -> Vec<(usize, usize)> {
    let n = n.min(WORKLOAD_GRAPHS);
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            pairs.push((i, j));
        }
    }
    pairs
}

fn mcs_sweep(
    db: &[Graph],
    pairs: &[(usize, usize)],
    connected: bool,
    pruning: bool,
    budget: &SearchBudget,
) {
    for &(i, j) in pairs {
        let r = mcs(
            &db[i],
            &db[j],
            McsConfig {
                connected,
                budget: budget.clone(),
                pruning,
            },
        );
        std::hint::black_box(r.edges);
    }
}

/// Run every kernel; `scale` multiplies the generated repository size
/// (the pair workload itself stays fixed at [`WORKLOAD_GRAPHS`] graphs so
/// medians stay comparable across scales — `scale` only diversifies the
/// molecule pool the workload is drawn from).
pub fn run(scale: usize, reps: usize) -> Vec<KernelBench> {
    run_recorded(scale, reps, &Recorder::disabled())
}

/// [`run`] under an observability recorder: the timed region becomes a
/// `bench_kernels` span in a `--metrics-out` manifest.
pub fn run_recorded(scale: usize, reps: usize, recorder: &Recorder) -> Vec<KernelBench> {
    let _span = recorder.span("bench_kernels");
    let db = generate(&aids_profile(), 60 * scale.max(1), 3);
    let graphs = &db.graphs;
    let pairs = pair_indices(graphs.len());
    let plain = SearchBudget::nodes(PAIR_BUDGET);
    let mut out = Vec::new();

    for (kernel, connected) in [("mcs", false), ("mccs", true)] {
        for (variant, pruning) in [("pruned", true), ("unpruned", false)] {
            let _span = recorder.span("bench_kernels.mcs_variant");
            let median = time_median(reps, || {
                mcs_sweep(graphs, &pairs, connected, pruning, &plain)
            });
            let probes = probes_of(PAIR_BUDGET, |b| {
                mcs_sweep(graphs, &pairs, connected, pruning, b)
            });
            out.push(KernelBench {
                kernel,
                variant,
                median,
                reps: reps.max(1),
                probes,
                pairs: pairs.len(),
            });
        }
    }

    {
        let _span = recorder.span("bench_kernels.iso");
        // Self-pairs ride along: cross pairs mostly die on the cheap
        // invariant pre-filters (which is the point of measuring them),
        // while a graph against itself forces a real search.
        let n = graphs.len().min(WORKLOAD_GRAPHS);
        let sweep = |budget: &SearchBudget| {
            for &(i, j) in &pairs {
                let (same, _) = are_isomorphic_tagged(&graphs[i], &graphs[j], budget);
                std::hint::black_box(same);
            }
            for g in &graphs[..n] {
                let (same, _) = are_isomorphic_tagged(g, g, budget);
                std::hint::black_box(same);
            }
        };
        let median = time_median(reps, || sweep(&plain));
        let probes = probes_of(PAIR_BUDGET, sweep);
        out.push(KernelBench {
            kernel: "iso",
            variant: "-",
            median,
            reps: reps.max(1),
            probes,
            pairs: pairs.len() + n,
        });
    }

    {
        let _span = recorder.span("bench_kernels.canonical");
        let n = graphs.len().min(WORKLOAD_GRAPHS);
        let median = time_median(reps, || {
            for g in &graphs[..n] {
                std::hint::black_box(canonical_form(g));
            }
        });
        out.push(KernelBench {
            kernel: "canonical",
            variant: "-",
            median,
            reps: reps.max(1),
            probes: 0,
            pairs: n,
        });
    }

    {
        let _span = recorder.span("bench_kernels.ged");
        let patterns = random_queries(graphs, WORKLOAD_GRAPHS, (3, 12), 5);
        let ged_pairs = pair_indices(patterns.len());
        let sweep = |budget: &SearchBudget| {
            for &(i, j) in &ged_pairs {
                let r = ged_with_budget(&patterns[i], &patterns[j], budget.clone());
                std::hint::black_box(r.distance);
            }
        };
        let median = time_median(reps, || sweep(&SearchBudget::nodes(DIV_GED_BUDGET)));
        let probes = probes_of(DIV_GED_BUDGET, sweep);
        out.push(KernelBench {
            kernel: "ged",
            variant: "-",
            median,
            reps: reps.max(1),
            probes,
            pairs: ged_pairs.len(),
        });
    }

    out
}

/// Host-fingerprint lines of the manifest. `cargo xtask bench-diff`
/// refuses to compare wall-clock numbers when these differ (unless
/// `--allow-cross-host`): `secs_*` fields are only meaningful on the host
/// that produced them, while `probes`/`pairs` are deterministic and
/// comparable anywhere.
fn host_fingerprint_json() -> String {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads_env = match std::env::var("CATAPULT_THREADS") {
        Ok(v) => format!("\"{}\"", v.escape_default()),
        Err(_) => "null".to_string(),
    };
    format!(
        "  \"host_threads\": {host},\n  \"catapult_threads\": {threads_env},\n  \"os\": \"{}\",\n  \"arch\": \"{}\",\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
    )
}

/// Hand-rolled JSON (the workspace has no serde): stable key order, one
/// entry per kernel variant.
pub fn to_json(benches: &[KernelBench]) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"schema_version\": {},\n",
        catapult_obs::SCHEMA_VERSION
    ));
    s.push_str(&host_fingerprint_json());
    s.push_str(&format!("  \"warmup_reps\": {WARMUP_REPS},\n"));
    s.push_str(&format!("  \"pair_budget_nodes\": {PAIR_BUDGET},\n"));
    s.push_str("  \"entries\": [\n");
    for (i, b) in benches.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"variant\": \"{}\", \"secs_median\": {:.6}, \"reps\": {}, \"probes\": {}, \"probes_per_sec\": {:.1}, \"pairs\": {}}}{}\n",
            b.kernel,
            b.variant,
            b.median.as_secs_f64(),
            b.reps,
            b.probes,
            b.probes_per_sec(),
            b.pairs,
            if i + 1 == benches.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_serializes() {
        // Tiny run: harness correctness, not the numbers.
        let benches = run(1, 1);
        // mcs/mccs × pruned/unpruned + iso + canonical + ged.
        assert_eq!(benches.len(), 7);
        let json = to_json(&benches);
        assert_eq!(
            catapult_obs::schema_version_of(&json),
            Some(catapult_obs::SCHEMA_VERSION),
            "bench JSON must be schema-versioned: {json}"
        );
        assert!(json.contains("\"unpruned\""));
        assert!(json.contains("\"canonical\""));
        assert!(json.contains("\"ged\""));
        assert!(json.contains("\"probes_per_sec\""));
    }

    #[test]
    fn search_kernels_report_probes() {
        let benches = run(1, 1);
        for b in benches.iter().filter(|b| b.kernel != "canonical") {
            assert!(
                b.probes > 0,
                "{}/{} ran a budgeted search; its meter must flush probes",
                b.kernel,
                b.variant
            );
        }
        // Pruning can only remove work relative to the reference search
        // on the identical workload.
        let probes_of = |kernel: &str, variant: &str| {
            benches
                .iter()
                .find(|b| b.kernel == kernel && b.variant == variant)
                .map(|b| b.probes)
                .unwrap_or(0)
        };
        for kernel in ["mcs", "mccs"] {
            assert!(
                probes_of(kernel, "pruned") <= probes_of(kernel, "unpruned"),
                "{kernel}: pruned search must not probe more than the reference"
            );
        }
    }

    #[test]
    fn median_handles_odd_even_and_outliers() {
        let ms = Duration::from_millis;
        assert_eq!(median_of_sorted(&[ms(5)]), ms(5));
        assert_eq!(median_of_sorted(&[ms(1), ms(3), ms(500)]), ms(3));
        assert_eq!(median_of_sorted(&[ms(2), ms(4)]), ms(3));
    }
}
