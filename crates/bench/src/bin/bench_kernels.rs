//! Kernel microbenchmark: `cargo run --release -p catapult-bench --bin
//! bench_kernels [-- <out.json> [scale] [reps]]`.
//!
//! Times the search kernels behind fine clustering and selection — MCS /
//! MCCS (pruned vs reference unpruned), isomorphism checks,
//! canonical-form hashing and GED — over a fixed molecule-pair workload
//! (pattern pairs for GED), and writes per-kernel medians
//! plus probe counts to `BENCH_kernels.json` (or the given path). See
//! [`catapult_bench::kernels`] for what the pruned/unpruned split means.
//!
//! The output JSON is schema-versioned; an existing file written at a
//! different `schema_version` is never silently overwritten — pass
//! `--force` to replace it. `--metrics-out FILE` additionally writes the
//! same machine-readable run manifest the `catapult` CLI emits. An
//! unknown flag, a fourth positional argument or a non-numeric `scale` /
//! `reps` is a usage error (exit 2) and writes nothing.

use catapult_bench::kernels;
use catapult_obs::{manifest, Recorder, RunManifest};
use std::path::Path;

const USAGE: &str = "usage: bench_kernels [--force] [--metrics-out FILE] [out.json [scale [reps]]]";

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut metrics_out: Option<String> = None;
    let mut force = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--force" => force = true,
            "--metrics-out" => match args.next() {
                Some(path) => metrics_out = Some(path),
                None => usage_error("--metrics-out needs a value"),
            },
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag `{flag}`")),
            _ => positional.push(a),
        }
    }
    if let Some(extra) = positional.get(3) {
        usage_error(&format!("unexpected argument `{extra}`"));
    }
    let number = |i: usize, name: &str, default: usize| {
        positional.get(i).map_or(default, |s| {
            s.parse().unwrap_or_else(|_| {
                usage_error(&format!("{name} must be a non-negative integer, got `{s}`"))
            })
        })
    };
    let scale = number(1, "scale", 1);
    let reps = number(2, "reps", 5);
    let out = positional
        .into_iter()
        .next()
        .unwrap_or_else(|| "BENCH_kernels.json".into());

    for path in std::iter::once(&out).chain(metrics_out.as_ref()) {
        if let Err(e) = manifest::guard_overwrite(Path::new(path), force) {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }

    let recorder = if metrics_out.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let benches = kernels::run_recorded(scale, reps, &recorder);
    for b in &benches {
        println!(
            "{:<10} {:<9} median {:>10.6}s  probes {:>12}  ({:>12.0} probes/s, {} pairs)",
            b.kernel,
            b.variant,
            b.median.as_secs_f64(),
            b.probes,
            b.probes_per_sec(),
            b.pairs,
        );
    }
    let json = kernels::to_json(&benches);
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");

    if let Some(path) = metrics_out {
        let mut m = RunManifest::new("bench_kernels");
        m.set(
            "environment",
            manifest::environment(rayon::current_threads()),
        );
        let mut results = catapult_obs::json::Value::array();
        for b in &benches {
            let mut e = catapult_obs::json::Value::object();
            e.set("kernel", b.kernel);
            e.set("variant", b.variant);
            e.set("secs_median", b.median.as_secs_f64());
            e.set("reps", b.reps as u64);
            e.set("probes", b.probes);
            e.set("probes_per_sec", b.probes_per_sec());
            e.set("pairs", b.pairs as u64);
            results.push(e);
        }
        m.set("results", results);
        if let Some(snapshot) = recorder.snapshot() {
            m.attach_snapshot(&snapshot);
        }
        if let Err(e) = m.write(Path::new(&path), force) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote metrics to {path}");
    }
}
