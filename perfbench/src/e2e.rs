//! End-to-end measurement (`--trace 0`).
//!
//! A run is a closed loop of rounds until `--seconds` is used up. Each round
//! sets the workload up afresh, runs `run_catapult` at `threads = nproc`
//! and then at `threads = 1`, and times one chunk of closed-loop
//! `formulate` calls. The first round is a warm-up: it is checked and gives
//! the reference outputs, but its timings are dropped, because it pays for
//! first-touch page faults and cold caches that later rounds do not. Every
//! figure is a median over the other rounds: on a shared host, background
//! load comes in bursts, and the median of many short samples spread over
//! the run ignores bursts that cover less than half of it, where the mean
//! of a few long samples would absorb them.

use crate::checks::{check_patterns, formulation_consistent, same_formulation};
use crate::stats::{percentile, summarize};
use crate::workload::{describe_db, describe_queries, Inputs, Workload};
use crate::Outcome;
use catapult_core::ckpt_io::result_digest;
use catapult_core::{run_catapult, CatapultResult};
use catapult_eval::steps::{formulate, DEFAULT_EMBEDDING_CAP};
use catapult_eval::WorkloadEvaluation;
use catapult_graph::Graph;
use std::time::{Duration, Instant};

/// Queries each round formulates in the closed loop; consecutive rounds take
/// consecutive chunks, wrapping around the query set.
const LATENCY_CHUNK: usize = 2_000;

/// Samples collected over a run, one per timed round unless noted.
#[derive(Default)]
struct Samples {
    setup: Vec<Duration>,
    run: Vec<Duration>,
    run_1t: Vec<Duration>,
    clustering: Vec<Duration>,
    pgt: Vec<Duration>,
    /// One per closed-loop `formulate` call, in seconds.
    latency: Vec<f64>,
}

/// The first round's outputs, which every later round must reproduce.
struct Reference {
    digest: Vec<u8>,
    result: CatapultResult,
    patterns: Vec<Graph>,
    /// Parallel evaluation of the patterns over the query set.
    eval: WorkloadEvaluation,
}

pub fn run(w: &Workload, seed: u64, seconds: f64, nproc: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut s = Samples::default();
    let mut warm_up = Samples::default();
    let mut reference: Option<Reference> = None;
    let start = Instant::now();
    for round in 0.. {
        let round_start = Instant::now();
        let samples = if round == 0 { &mut warm_up } else { &mut s };
        // Set-up runs on one worker, which keeps its timing free of the
        // fan-out's thread-start costs.
        rayon::set_threads(1);
        let t = Instant::now();
        let inputs = w.set_up(seed);
        samples.setup.push(t.elapsed());
        if round == 0 {
            println!("input {}", describe_db(&inputs.db));
            println!("input {}", describe_queries(&inputs.queries, seed));
        }
        let r = pipeline_round(w, &inputs, nproc, samples, &reference, &mut out);
        let reference = reference.get_or_insert_with(|| {
            let patterns = r.patterns();
            rayon::set_threads(nproc);
            Reference {
                digest: result_digest(&r),
                eval: WorkloadEvaluation::evaluate(&patterns, &inputs.queries),
                patterns,
                result: r,
            }
        });
        let from = round * LATENCY_CHUNK % inputs.queries.len().max(1);
        closed_loop(
            &inputs.queries,
            from,
            reference,
            &mut samples.latency,
            &mut out,
        );
        if round > 0 && start.elapsed() + round_start.elapsed() > Duration::from_secs_f64(seconds) {
            break;
        }
    }
    let reference = reference.expect("at least one round");
    report(&s, &reference, &mut out);
    out
}

/// Check one pipeline result's patterns and, when given, that its digest
/// equals `expected` (described by its label), counting it attempted.
fn check_result(
    w: &Workload,
    r: &CatapultResult,
    what: &str,
    expected: Option<(&[u8], &str)>,
    out: &mut Outcome,
) {
    out.attempted += 1;
    if let Err(e) = check_patterns(r, w.eta, w.gamma) {
        out.fail(format!("{what}: {e}"));
    } else if let Some((_, label)) = expected.filter(|&(d, _)| d != result_digest(r).as_slice()) {
        out.fail(format!("{what}: result digest differs from {label}"));
    }
}

/// `run_catapult` at `nproc` and at 1 thread; returns the `nproc` result.
fn pipeline_round(
    w: &Workload,
    inputs: &Inputs,
    nproc: usize,
    s: &mut Samples,
    reference: &Option<Reference>,
    out: &mut Outcome,
) -> CatapultResult {
    let cfg = w.config();
    let db = &inputs.db.graphs;
    rayon::set_threads(nproc);
    let t = Instant::now();
    let r = run_catapult(db, &cfg);
    s.run.push(t.elapsed());
    rayon::set_threads(1);
    let t = Instant::now();
    let r1 = run_catapult(db, &cfg);
    s.run_1t.push(t.elapsed());
    // The paper's measures come from the 1-thread run: `run_s` already
    // carries the parallel scaling, and on a host with few cores, where the
    // fan-out's threads land adds run-to-run noise to every `nproc` timing.
    s.clustering.push(r1.clustering_time());
    s.pgt.push(r1.pattern_generation_time());
    let first = reference
        .as_ref()
        .map(|f| (f.digest.as_slice(), "the first round's"));
    check_result(w, &r, "threads=nproc run", first, out);
    let nproc_digest = result_digest(&r);
    check_result(
        w,
        &r1,
        "threads=1 run",
        Some((&nproc_digest, "the threads=nproc run's")),
        out,
    );
    r
}

/// Time `LATENCY_CHUNK` closed-loop `formulate` calls starting at query
/// `from`, checking each against the reference's parallel evaluation.
fn closed_loop(
    queries: &[Graph],
    from: usize,
    reference: &Reference,
    latency: &mut Vec<f64>,
    out: &mut Outcome,
) {
    for i in (from..from + LATENCY_CHUNK.min(queries.len())).map(|i| i % queries.len()) {
        let q = &queries[i];
        let t = Instant::now();
        let f = formulate(q, &reference.patterns, DEFAULT_EMBEDDING_CAP);
        latency.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        if !same_formulation(&f, &reference.eval.formulations[i]) || !formulation_consistent(q, &f)
        {
            out.fail(format!(
                "query {i}: closed-loop formulation differs or is inconsistent"
            ));
        }
    }
}

fn secs(d: &[Duration]) -> Vec<f64> {
    d.iter().map(Duration::as_secs_f64).collect()
}

fn report(s: &Samples, reference: &Reference, out: &mut Outcome) {
    let rep = &mut out.report;
    rep.add_timing("setup_s", &summarize(&secs(&s.setup)), 1.0, "s");
    // Printed, not gated: on a 2-core host the guest scheduler sometimes
    // leaves both workers on one core, so over ten runs of the same code
    // the spread of the `nproc` run's median reached 32%, past any bound.
    // `run_1t_s` carries the algorithmic cost, and the traced run's
    // `<layer>.speedup` figures the scaling.
    rep.print_only_timing("run_s", &summarize(&secs(&s.run)), 1.0, "s");
    rep.add_timing("run_1t_s", &summarize(&secs(&s.run_1t)), 1.0, "s");
    rep.add_timing("clustering_s", &summarize(&secs(&s.clustering)), 1.0, "s");
    rep.add_timing("pgt_s", &summarize(&secs(&s.pgt)), 1.0, "s");
    rep.add_timing("formulate_p50_us", &summarize(&s.latency), 1e6, "us");
    let mut sorted = s.latency.clone();
    sorted.sort_by(f64::total_cmp);
    rep.add("formulate_p99_us", percentile(&sorted, 99.0) * 1e6, "us");

    // Quality, computed outside the timed region.
    let r = &reference.result;
    let pr = r.report();
    let degraded = pr.mining.degraded() + pr.clustering.degraded() + pr.scoring.degraded();
    rep.add("mp_pct", reference.eval.missed_percentage(), "%");
    rep.add("mu_pct", reference.eval.mean_reduction() * 100.0, "%");
    rep.add(
        "patterns_selected",
        r.selection.selected.len() as f64,
        "count",
    );
    // Not gated: fine clustering's degraded searches are expected to reach
    // zero, where a relative bound means nothing.
    rep.print_only(
        "degraded_pct",
        100.0 * degraded as f64 / pr.total().max(1) as f64,
        "%",
    );
    rep.add("peak_rss_mb", crate::peak_rss_mb(), "MB");
}
