//! Per-layer measurement (`--trace 1`): the stage chain and the
//! formulation layer, each timed from outside at `threads = nproc` and
//! `threads = 1`, with kernel counts read from the stages' return values
//! and from a `Recorder` passed in through the public configs.

use crate::chain::{run_chain, StageCounts, StageTimes};
use crate::stats::median;
use crate::workload::{describe_db, describe_queries, Workload};
use crate::Outcome;
use catapult_core::ckpt_io::result_digest;
use catapult_core::{run_catapult, CatapultConfig, CatapultResult};
use catapult_eval::WorkloadEvaluation;
use catapult_obs::Recorder;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Rounds the traced run makes at least, so every deterministic count is
/// compared across two runs as well as across thread counts.
const MIN_ROUNDS: usize = 2;

/// Counts that must repeat exactly across runs and thread counts.
const DETERMINISTIC: [&str; 17] = [
    "mining.candidates",
    "mining.frequent",
    "mining.iso.calls",
    "mining.iso.probes",
    "coarse.clusters",
    "fine.mcs.degraded",
    "csg.vertices",
    "csg.edges",
    "select.iterations",
    "select.candidates",
    "select.ged.calls",
    "select.ged.probes",
    "select.iso.calls",
    "select.iso.probes",
    "select.degraded",
    "formulate.occurrences",
    "formulate.steps",
];

/// Counts that depend on thread scheduling and are never compared: fine
/// clustering's `SimCache` lets two workers miss on the same key and both
/// run the MCS search.
const SCHEDULING_DEPENDENT: [&str; 2] = ["fine.mcs.calls", "fine.mcs.probes"];

/// Recorder counters behind the per-layer kernel counts.
const RECORDER_COUNTERS: [(&str, &str); 10] = [
    ("mining.iso.calls", "mining.iso.calls"),
    ("mining.iso.probes", "mining.iso.probes"),
    ("fine.mcs.calls", "clustering.mcs.calls"),
    ("fine.mcs.probes", "clustering.mcs.probes"),
    ("select.iterations", "scoring.greedy.iterations"),
    ("select.candidates", "scoring.greedy.candidates"),
    ("select.ged.calls", "scoring.ged.calls"),
    ("select.ged.probes", "scoring.ged.probes"),
    ("select.iso.calls", "scoring.iso.calls"),
    ("select.iso.probes", "scoring.iso.probes"),
];

/// One traced pass at one thread count.
struct Pass {
    times: StageTimes,
    chain: Duration,
    formulate: Duration,
    counts: BTreeMap<&'static str, u64>,
    exact_ratio: f64,
}

fn traced_pass(
    db: &[catapult_graph::Graph],
    cfg: &CatapultConfig,
    queries: &[catapult_graph::Graph],
) -> (Pass, Vec<u8>) {
    let rec = Recorder::enabled();
    let traced = CatapultConfig {
        recorder: rec.clone(),
        ..cfg.clone()
    };
    let t = Instant::now();
    let (r, times, stage): (CatapultResult, StageTimes, StageCounts) = run_chain(db, &traced);
    let chain = t.elapsed();
    let patterns = r.patterns();
    let t = Instant::now();
    let eval = WorkloadEvaluation::evaluate_recorded(&patterns, queries, &rec);
    let formulate = t.elapsed();

    let snapshot = rec.snapshot().expect("recorder is enabled");
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    let mut counts: BTreeMap<&'static str, u64> = RECORDER_COUNTERS
        .iter()
        .map(|&(metric, source)| (metric, counter(source)))
        .collect();
    let fine = r.clustering.fine;
    counts.extend([
        ("mining.candidates", stage.mining_candidates as u64),
        ("mining.frequent", stage.mining_frequent as u64),
        ("coarse.clusters", stage.coarse_clusters as u64),
        ("fine.mcs.degraded", fine.degraded()),
        ("csg.vertices", stage.csg_vertices as u64),
        ("csg.edges", stage.csg_edges as u64),
        ("select.degraded", r.selection.report.scoring.degraded()),
        (
            "formulate.occurrences",
            eval.formulations.iter().map(|f| f.used.len() as u64).sum(),
        ),
        (
            "formulate.steps",
            eval.formulations.iter().map(|f| f.steps as u64).sum(),
        ),
    ]);
    let pass = Pass {
        times,
        chain,
        formulate,
        counts,
        exact_ratio: fine.exact as f64 / fine.total().max(1) as f64,
    };
    (pass, result_digest(&r))
}

pub fn run(w: &Workload, seed: u64, seconds: f64, nproc: usize) -> Outcome {
    let mut out = Outcome::default();
    rayon::set_threads(nproc);
    let inputs = w.set_up(seed);
    println!("input {}", describe_db(&inputs.db));
    println!("input {}", describe_queries(&inputs.queries, seed));
    let cfg = w.config();
    let db = &inputs.db.graphs;
    let queries = &inputs.queries;
    let mut reference = None;
    let mut passes: Vec<(usize, Pass)> = Vec::new();
    let mut untraced = Vec::new();
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        let round = Instant::now();
        for threads in [nproc, 1] {
            rayon::set_threads(threads);
            let (pass, digest) = traced_pass(db, &cfg, queries);
            out.attempted += 1;
            if *reference.get_or_insert_with(|| digest.clone()) != digest {
                out.fail(format!(
                    "stage chain at threads={threads} does not reproduce run_catapult's digest"
                ));
            }
            passes.push((threads, pass));
        }
        // The untraced operation `run_s` times, for the tracing overhead.
        rayon::set_threads(nproc);
        let t = Instant::now();
        let r = run_catapult(db, &cfg);
        untraced.push(t.elapsed());
        out.attempted += 1;
        if Some(result_digest(&r)) != reference {
            out.fail("stage chain digest differs from run_catapult's".into());
        }
        rounds += 1;
        if rounds >= MIN_ROUNDS
            && start.elapsed() + round.elapsed() > Duration::from_secs_f64(seconds)
        {
            break;
        }
    }
    check_determinism(&passes, &mut out);
    report_layers(&passes, &untraced, nproc, &mut out);
    out
}

/// Every count labelled deterministic repeats exactly across all passes.
fn check_determinism(passes: &[(usize, Pass)], out: &mut Outcome) {
    let (_, first) = &passes[0];
    for name in DETERMINISTIC {
        let values: Vec<u64> = passes.iter().map(|(_, p)| p.counts[name]).collect();
        if values.iter().any(|&v| v != first.counts[name]) {
            out.fail(format!("deterministic count {name} varies: {values:?}"));
        }
    }
    for name in SCHEDULING_DEPENDENT {
        let mut by_threads: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
        for (t, p) in passes {
            let v = p.counts[name];
            let e = by_threads.entry(*t).or_insert((v, v));
            *e = (e.0.min(v), e.1.max(v));
        }
        let ranges: Vec<String> = by_threads
            .iter()
            .map(|(t, (lo, hi))| format!("{lo}..={hi} at threads={t}"))
            .collect();
        println!("scheduling-dependent {name}: {}", ranges.join(", "));
    }
}

fn report_layers(passes: &[(usize, Pass)], untraced: &[Duration], nproc: usize, out: &mut Outcome) {
    let at = |threads: usize, f: &dyn Fn(&Pass) -> Duration| -> f64 {
        let v: Vec<f64> = passes
            .iter()
            .filter(|(t, _)| *t == threads)
            .map(|(_, p)| f(p).as_secs_f64())
            .collect();
        median(&v)
    };
    let stage = |f: &dyn Fn(&Pass) -> Duration| (at(nproc, f), at(1, f));
    let mining = stage(&|p| p.times.mining);
    let coarse = stage(&|p| p.times.coarse);
    let fine = stage(&|p| p.times.fine);
    let csg = stage(&|p| p.times.csg);
    let select = stage(&|p| p.times.select);
    let formulate = stage(&|p| p.formulate);
    let total_1t = at(1, &|p| p.times.total());
    println!(
        "share of the 1-thread stage chain ({total_1t:.3} s): mining {:.1}%, coarse {:.1}%, fine {:.1}%, csg {:.1}%, select {:.1}%",
        100.0 * mining.1 / total_1t,
        100.0 * coarse.1 / total_1t,
        100.0 * fine.1 / total_1t,
        100.0 * csg.1 / total_1t,
        100.0 * select.1 / total_1t,
    );
    let counts = &passes[0].1.counts;
    let r = &mut out.report;
    let count = |r: &mut crate::metrics::Report, name: &'static str| {
        r.add(name, counts[name] as f64, "count");
    };
    r.add("mining.s", mining.0, "s");
    r.add("mining.speedup", mining.1 / mining.0, "x");
    for name in [
        "mining.candidates",
        "mining.frequent",
        "mining.iso.calls",
        "mining.iso.probes",
    ] {
        count(r, name);
    }
    r.add("coarse.s", coarse.0, "s");
    count(r, "coarse.clusters");
    r.add("fine.s", fine.0, "s");
    r.add("fine.speedup", fine.1 / fine.0, "x");
    for name in ["fine.mcs.calls", "fine.mcs.probes", "fine.mcs.degraded"] {
        count(r, name);
    }
    r.add("fine.mcs.exact_ratio", passes[0].1.exact_ratio, "ratio");
    r.add("csg.s", csg.0, "s");
    count(r, "csg.vertices");
    count(r, "csg.edges");
    r.add("select.s", select.0, "s");
    r.add("select.speedup", select.1 / select.0, "x");
    for name in [
        "select.iterations",
        "select.candidates",
        "select.ged.calls",
        "select.ged.probes",
        "select.iso.calls",
        "select.iso.probes",
        "select.degraded",
    ] {
        count(r, name);
    }
    r.add("formulate.s", formulate.0, "s");
    r.add("formulate.speedup", formulate.1 / formulate.0, "x");
    count(r, "formulate.occurrences");
    count(r, "formulate.steps");
    // The traced counterpart of `run_s` is the stage chain.
    let traced = at(nproc, &|p| p.chain);
    let plain = median(
        &untraced
            .iter()
            .map(Duration::as_secs_f64)
            .collect::<Vec<_>>(),
    );
    r.add("trace.overhead_pct", 100.0 * (traced - plain) / plain, "%");
}
