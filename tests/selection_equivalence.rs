//! Selection equivalence: greedy selection is pinned to goldens recorded
//! with exhaustive scoring, where every candidate got its exact Eq. 2
//! score in every iteration.
//!
//! Bound-first scoring computes the diversity GEDs only for candidates
//! whose upper-bound score can still reach the best exact score, so it
//! must select the same patterns, with the same score bits and the same
//! source CSG. The matrix covers the quickstart DB and two more seeds,
//! every [`ScoreVariant`], no query log and a positive and a negative log
//! weight, unbounded and under a node cap small enough to degrade
//! diversity GEDs, at threads {1, 2, 8}.
//!
//! The golden file `tests/golden/selection_equivalence.txt` holds the
//! output of the exhaustive scorer for exactly this matrix (DB 30
//! aids-profile graphs, budget (3, 8, 12), 20 walks).
//!
//! A second test checks `bound_first_argmax` itself against an exhaustive
//! argmax over random score vectors whose bounds dominate the exact
//! scores, with ties, all-zero vectors and NaNs of both signs.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
// Test code may share state (serialization locks, counters); the
// clippy.toml interior-mutability bans target library code.
#![allow(clippy::disallowed_types)]

use catapult::core::select::bound_first_argmax;
use catapult::core::{find_canned_patterns, QueryLog, ScoreVariant, SelectionResult};
use catapult::datasets::{aids_profile, generate, random_queries};
use catapult::graph::{Graph, SearchBudget};
use catapult::prelude::*;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::sync::Mutex;

/// `rayon::set_threads` is process-global; serialize the tests that flip it.
static SERIAL: Mutex<()> = Mutex::new(());

const GOLDEN: &str = include_str!("golden/selection_equivalence.txt");

/// DB seeds: 7 is the quickstart DB, the others add variety.
const SEEDS: [u64; 3] = [7, 11, 23];

/// Node cap for the degraded cases: diversity GEDs trip it, while most
/// ccov containment probes still finish.
const SMALL_CAP: u64 = 60;

/// Query-log boost strengths `λ` (`None`: no log). A negative `λ` makes
/// the boost `1 + λ·freq` negative for frequent patterns, which reverses
/// the score's order in `div`.
const LOG_WEIGHTS: [Option<f64>; 3] = [None, Some(1.0), Some(-4.0)];

const VARIANTS: [ScoreVariant; 4] = [
    ScoreVariant::Full,
    ScoreVariant::NoDiversity,
    ScoreVariant::NoCognitiveLoad,
    ScoreVariant::Additive,
];

fn budget() -> PatternBudget {
    PatternBudget::new(3, 8, 12).unwrap()
}

fn write_graph(out: &mut String, g: &Graph) {
    let labels: Vec<u32> = g.labels().iter().map(|l| l.0).collect();
    let edges: Vec<(u32, u32)> = g.edges().map(|(_, e)| (e.u.0, e.v.0)).collect();
    let _ = write!(out, "labels {labels:?} edges {edges:?}");
}

fn render(out: &mut String, case: &str, r: &SelectionResult) {
    let _ = writeln!(out, "{case}");
    for sp in &r.selected {
        let _ = write!(
            out,
            "  csg {} score {:016x} ",
            sp.source_csg,
            sp.score.to_bits()
        );
        write_graph(out, &sp.pattern);
        out.push('\n');
    }
}

/// Runs the whole matrix at the current thread setting and renders it.
/// Returns the rendering and the number of degraded diversity GEDs seen
/// under [`SMALL_CAP`].
fn run_matrix() -> (String, u64) {
    let mut out = String::new();
    let mut degraded_geds = 0;
    for seed in SEEDS {
        let db = generate(&aids_profile(), 30, seed);
        let pipeline = CatapultConfig {
            budget: budget(),
            walks: 20,
            ..Default::default()
        };
        let csgs = run_catapult(&db.graphs, &pipeline).csgs;
        let log = QueryLog::new(random_queries(&db.graphs, 20, (3, 8), seed));
        for variant in VARIANTS {
            for log_weight in LOG_WEIGHTS {
                for cap in [None, Some(SMALL_CAP)] {
                    let recorder = catapult_obs::Recorder::enabled();
                    let cfg = SelectionConfig {
                        budget: budget(),
                        walks: 20,
                        variant,
                        query_log: log_weight.map(|_| log.clone()),
                        log_weight: log_weight.unwrap_or(1.0),
                        search: cap.map_or_else(SearchBudget::unbounded, SearchBudget::nodes),
                        recorder: recorder.clone(),
                    };
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    let r = find_canned_patterns(&db.graphs, &csgs, &cfg, &mut rng);
                    let case = format!("seed {seed} {variant:?} log {log_weight:?} cap {cap:?}");
                    render(&mut out, &case, &r);
                    let snap = recorder.snapshot().unwrap();
                    if cap.is_some() {
                        degraded_geds += snap
                            .counters
                            .iter()
                            .find(|(name, _)| name == "scoring.ged.degraded")
                            .map_or(0, |(_, v)| *v);
                    }
                }
            }
        }
    }
    (out, degraded_geds)
}

#[test]
fn selection_matches_exhaustive_scoring_goldens() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1usize, 2, 8] {
        rayon::set_threads(threads);
        let (got, degraded_geds) = run_matrix();
        rayon::set_threads(0);
        assert!(
            degraded_geds > 0,
            "threads={threads}: the capped cases must degrade some diversity GEDs"
        );
        if got != GOLDEN {
            let first = got
                .lines()
                .zip(GOLDEN.lines())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| got.lines().count().min(GOLDEN.lines().count()));
            panic!(
                "threads={threads}: selection diverged from the exhaustive-scoring golden \
                 at line {}:\n  got:    {:?}\n  golden: {:?}",
                first + 1,
                got.lines().nth(first),
                GOLDEN.lines().nth(first)
            );
        }
    }
}

/// Exhaustive greedy argmax, as selection computed it before bound-first
/// scoring: highest score under `total_cmp`, ties to the lowest index.
fn exhaustive_argmax(scores: &[f64]) -> Option<(f64, usize)> {
    scores
        .iter()
        .copied()
        .zip(0..)
        .max_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)))
}

/// Runs `bound_first_argmax` and returns its answer with the sorted list
/// of indices it scored exactly (each must be scored at most once).
fn bound_first(bounds: &[f64], exact: &[f64]) -> (Option<(f64, usize)>, Vec<usize>) {
    let calls = Mutex::new(Vec::new());
    let got = bound_first_argmax(bounds, |i| {
        calls.lock().unwrap().push(i);
        exact[i]
    });
    let mut calls = calls.into_inner().unwrap();
    calls.sort_unstable();
    let n = calls.len();
    calls.dedup();
    assert_eq!(calls.len(), n, "an index was scored twice");
    (got, calls)
}

#[test]
fn bound_first_argmax_equals_exhaustive_argmax() {
    use rand::Rng;
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Few distinct values so ties are common; NaNs of both signs sit at
    // the two ends of the `total_cmp` order.
    let pool = [
        0.0,
        0.0,
        0.25,
        0.5,
        0.5,
        1.0,
        3.0,
        f64::INFINITY,
        f64::NAN,
        -f64::NAN,
    ];
    let mut rng = rand::rngs::StdRng::seed_from_u64(2107);
    let mut skipped = 0;
    for trial in 0..4000 {
        let n = rng.gen_range(0..10);
        let all_zero = trial % 7 == 0;
        let exact: Vec<f64> = (0..n)
            .map(|_| {
                if all_zero {
                    0.0
                } else {
                    pool[rng.gen_range(0..pool.len())]
                }
            })
            .collect();
        // Any bound at or above the exact score in `total_cmp` order.
        let bounds: Vec<f64> = exact
            .iter()
            .map(|&e| {
                let b = pool[rng.gen_range(0..pool.len())];
                if rng.gen_bool(0.3) || b.total_cmp(&e).is_lt() {
                    e
                } else {
                    b
                }
            })
            .collect();
        let want = exhaustive_argmax(&exact);
        let mut evaluated = None;
        for threads in [1usize, 8] {
            rayon::set_threads(threads);
            let (got, calls) = bound_first(&bounds, &exact);
            rayon::set_threads(0);
            assert_eq!(
                got.map(|(s, i)| (s.to_bits(), i)),
                want.map(|(s, i)| (s.to_bits(), i)),
                "trial {trial}: bounds {bounds:?} exact {exact:?}"
            );
            // Which candidates get scored does not depend on the pool.
            let first = evaluated.get_or_insert_with(|| calls.clone());
            assert_eq!(&calls, first, "trial {trial}: evaluated set moved");
        }
        skipped += n - evaluated.map_or(0, |c| c.len());
    }
    assert!(skipped > 0, "the bounds never let a candidate be skipped");
}
