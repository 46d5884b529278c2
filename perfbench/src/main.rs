//! End-to-end and per-layer benchmark of the CATAPULT pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload selection-heavy --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Prints the generated inputs' shape and every metric by name with its
//! unit, then, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. Exits 1 when an
//! output check fails and 2 on a usage error. See `perfbench/README.md`.

mod chain;
mod checks;
mod e2e;
mod layers;
mod metrics;
mod stats;
mod workload;

use std::process::ExitCode;

/// The end-to-end metrics `--trace 0` reports, in report order.
pub const END_TO_END: [&str; 10] = [
    "setup_s",
    "run_1t_s",
    "clustering_s",
    "pgt_s",
    "formulate_p50_us",
    "formulate_p99_us",
    "mp_pct",
    "mu_pct",
    "patterns_selected",
    "peak_rss_mb",
];

/// The per-layer metrics `--trace 1` reports.
pub const PER_LAYER: [&str; 31] = [
    "mining.s",
    "mining.speedup",
    "mining.candidates",
    "mining.frequent",
    "mining.iso.calls",
    "mining.iso.probes",
    "coarse.s",
    "coarse.clusters",
    "fine.s",
    "fine.speedup",
    "fine.mcs.calls",
    "fine.mcs.probes",
    "fine.mcs.degraded",
    "fine.mcs.exact_ratio",
    "csg.s",
    "csg.vertices",
    "csg.edges",
    "select.s",
    "select.speedup",
    "select.iterations",
    "select.candidates",
    "select.ged.calls",
    "select.ged.probes",
    "select.iso.calls",
    "select.iso.probes",
    "select.degraded",
    "formulate.s",
    "formulate.speedup",
    "formulate.occurrences",
    "formulate.steps",
    "trace.overhead_pct",
];

/// What a run measured and how many of its operations failed a check.
#[derive(Debug, Default)]
pub struct Outcome {
    pub report: metrics::Report,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    /// Count one failed operation and say why on standard error.
    pub fn fail(&mut self, why: String) {
        eprintln!("check failed: {why}");
        self.failed += 1;
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = workload::find(&name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(1) as f64,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc}",
        args.workload.name, args.seed, args.seconds, args.trace as u8
    );
    let out = if args.trace {
        layers::run(&args.workload, args.seed, args.seconds, nproc)
    } else {
        e2e::run(&args.workload, args.seed, args.seconds, nproc)
    };
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let names: Vec<&str> = out.report.metrics.iter().map(|m| m.name).collect();
    let well_formed = names == expected
        && out
            .report
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && metrics::valid_name(m.name));
    let correct = out.failed == 0 && well_formed;
    println!(
        "{}",
        metrics::result_json(
            correct,
            out.attempted.max(1),
            out.failed,
            &out.report.metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
