//! Canned pattern selection — Algorithm 4 (`FindCannedPatternSet`).
//!
//! Greedy iterations: every CSG proposes one final candidate pattern per
//! open size (random-walk library → FCP), the candidate with the highest
//! Eq. 2 score joins the pattern set, and cluster / edge-label weights are
//! damped multiplicatively so later iterations favour uncovered regions.
//! The loop stops when `γ` patterns are selected, every size quota is
//! filled, or no scoring candidate remains.
//!
//! Scoring is bound-first ([`bound_first_argmax`], DESIGN.md §15): the
//! diversity GEDs run only for candidates whose score bound can still win.

// Kernel and index arithmetic must not truncate, wrap or drop a sign
// silently: use `try_from` with a handled error or widen the type.
#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

use crate::budget::{PatternBudget, SizeCounts};
use crate::fcp::generate_fcp;
use crate::querylog::QueryLog;
use crate::report::PipelineReport;
use crate::score::{
    combine, covering_csgs_audited, diversity_audited, diversity_upper_bound, static_terms,
    EdgeLabelIndex, ScoreVariant, StaticTerms,
};
use crate::walk::generate_library;
use catapult_csg::{ClusterWeights, Csg, EdgeLabelWeights, WeightedCsg};
use catapult_graph::iso::are_isomorphic_tagged;
use catapult_graph::{Graph, SearchBudget, Tally};
use catapult_mining::EdgeLabelStats;
use catapult_obs::{Recorder, Stopwatch};
use rand::Rng;
use rayon::prelude::*;
use std::time::Duration;

/// Selection parameters beyond the pattern budget.
#[derive(Clone, Debug)]
pub struct SelectionConfig {
    /// The pattern budget `b = (ηmin, ηmax, γ)`.
    pub budget: PatternBudget,
    /// Random walks per (CSG, size) pair (`x` in Algorithm 4; paper
    /// example uses 100).
    pub walks: usize,
    /// Scoring function (Eq. 2 by default; ablation variants available).
    pub variant: ScoreVariant,
    /// Optional query log (§3.3 remark): when present, scores are boosted
    /// by `1 + log_weight × freq(p)` so patterns frequent in past queries
    /// are preferred.
    pub query_log: Option<QueryLog>,
    /// Strength `λ` of the query-log boost.
    pub log_weight: f64,
    /// Execution budget shared by selection's NP-hard kernels (dedup VF2,
    /// ccov probes, diversity GEDs). Its deadline/cancellation also stops
    /// the greedy loop between iterations, returning the patterns selected
    /// so far. Per-kernel default node caps apply when unbounded.
    pub search: SearchBudget,
    /// Observability recorder (disabled by default). When enabled, the
    /// loop emits a `selection` span with per-iteration `greedy_iter`
    /// children (`walks` / `dedup` / `score` inside), and kernel effort
    /// lands in the `scoring.*` counters; `scoring.greedy.exact_scored`
    /// counts the candidates whose diversity was computed.
    pub recorder: Recorder,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig {
            budget: PatternBudget::paper_default(),
            walks: 100,
            variant: ScoreVariant::Full,
            query_log: None,
            log_weight: 1.0,
            search: SearchBudget::unbounded(),
            recorder: Recorder::disabled(),
        }
    }
}

/// A selected canned pattern with its provenance.
#[derive(Clone, Debug)]
pub struct SelectedPattern {
    /// The pattern graph.
    pub pattern: Graph,
    /// Eq. 2 score at selection time.
    pub score: f64,
    /// Which CSG proposed it.
    pub source_csg: usize,
}

/// Result of Algorithm 4.
#[derive(Clone, Debug)]
pub struct SelectionResult {
    /// Selected patterns in selection order.
    pub selected: Vec<SelectedPattern>,
    /// Wall-clock pattern-generation time (the paper's PGT measure).
    pub elapsed: Duration,
    /// Completeness audit of every NP-hard kernel call that ran (diversity
    /// GEDs run only for candidates that could still win). Direct callers
    /// only see the `scoring` stage populated; [`run_catapult`]
    /// (crate::catapult::run_catapult) fills in mining and clustering.
    pub report: PipelineReport,
}

impl SelectionResult {
    /// Just the pattern graphs, in selection order.
    pub fn patterns(&self) -> Vec<Graph> {
        self.selected.iter().map(|s| s.pattern.clone()).collect()
    }
}

/// Run Algorithm 4 over prebuilt CSGs.
///
/// `db` supplies the label-coverage index and edge-label weights; `csgs`
/// the candidate source. Deterministic for a fixed RNG seed.
pub fn find_canned_patterns<R: Rng>(
    db: &[Graph],
    csgs: &[Csg],
    cfg: &SelectionConfig,
    rng: &mut R,
) -> SelectionResult {
    let _span = cfg.recorder.span("selection");
    let start = Stopwatch::start();
    // Every kernel metered under this budget flushes into `scoring.*`.
    let search = cfg
        .search
        .clone()
        .with_probe(cfg.recorder.stage_probe("scoring"));
    let iterations = cfg.recorder.counter("scoring.greedy.iterations");
    let candidates_seen = cfg.recorder.counter("scoring.greedy.candidates");
    let exact_scored = cfg.recorder.counter("scoring.greedy.exact_scored");
    let budget = cfg.budget.clone();
    // Progress accounting (`--progress` ETA): γ slots to fill, one done
    // per selected pattern. The greedy loop may stop early (exhausted
    // candidates), so done ≤ total is a bound, not a promise.
    let items_done = cfg.recorder.counter("selection.items.done");
    cfg.recorder
        .counter("selection.items.total")
        .add(budget.gamma() as u64);
    let mut elw = EdgeLabelWeights::new(EdgeLabelStats::from_graphs(db));
    let mut cw = ClusterWeights::new(csgs, db.len());
    let index = EdgeLabelIndex::build(db);
    let mut selected: Vec<SelectedPattern> = Vec::new();
    let mut selected_graphs: Vec<Graph> = Vec::new();
    let mut counts = SizeCounts::new();
    let scoring = Tally::new();

    while selected.len() < budget.gamma() {
        // A deadline or cancellation stops the greedy loop between
        // iterations: the patterns chosen so far remain valid and
        // budget-conforming, and the report records why we stopped early.
        if let Some(c) = search.interrupted() {
            scoring.record(c);
            break;
        }
        iterations.incr();
        let _iter_span = cfg.recorder.span("greedy_iter");
        let sizes = budget.open_sizes(&counts);
        if sizes.is_empty() {
            break;
        }
        // Candidate generation: every CSG proposes one FCP per open size.
        let walk_span = cfg.recorder.span("walks");
        let mut candidates: Vec<(Graph, usize)> = Vec::new();
        for (ci, csg) in csgs.iter().enumerate() {
            let weighted = WeightedCsg::new(csg, &elw);
            for &size in &sizes {
                let library = generate_library(&weighted, size, cfg.walks, rng);
                if let Some((fcp, _)) = generate_fcp(csg, &library, size) {
                    let got = fcp.edge_count();
                    // Accept only when the realized size still has quota
                    // (small CSGs can produce undersized FCPs).
                    if got >= budget.eta_min()
                        && got <= budget.eta_max()
                        && counts.count(got) < budget.size_cap(got)
                    {
                        candidates.push((fcp, ci));
                    }
                }
            }
        }
        drop(walk_span);
        candidates_seen.add(candidates.len() as u64);
        let dedup_span = cfg.recorder.span("dedup");
        // Drop candidates identical (isomorphic) to an already-selected
        // pattern — their diversity is 0, so they can never help. A
        // degraded check may let a duplicate through; scoring then gives
        // it zero diversity, so it is merely wasted work, never a wrong
        // selection.
        let iso_eq = |a: &Graph, b: &Graph| {
            let (eq, c) = are_isomorphic_tagged(a, b, &search);
            scoring.record(c);
            eq
        };
        candidates.retain(|(c, _)| !selected_graphs.iter().any(|p| iso_eq(p, c)));
        // Dedup isomorphic candidates proposed by different CSGs (clusters
        // often share motifs); scoring is the expensive part of the loop.
        let mut unique: Vec<(Graph, usize)> = Vec::with_capacity(candidates.len());
        for (c, ci) in candidates {
            if !unique.iter().any(|(u, _)| iso_eq(u, &c)) {
                unique.push((c, ci));
            }
        }
        let mut candidates = unique;
        drop(dedup_span);
        if candidates.is_empty() {
            break;
        }
        let _score_span = cfg.recorder.span("score");
        // Bound-first scoring (DESIGN.md §15): diversity GEDs run only for
        // candidates whose score bound can still win. `scoring` is a
        // commutative `Tally` and collections are ordered, so the argmax
        // and the tally are the same for every thread count.
        let bounded: Vec<Bounded> = candidates
            .par_iter()
            .map(|(c, _)| {
                let boost = (cfg.query_log.as_ref())
                    .map(|log| 1.0 + cfg.log_weight * log.pattern_frequency(c));
                // A negative boost (λ < 0) reverses the order in `div`, so
                // its bound can undershoot; but it makes the score ≤ 0, and
                // a best score ≤ 0 ends the loop, so the pick is unchanged.
                let div_bound = match cfg.variant {
                    ScoreVariant::NoDiversity => None,
                    _ => diversity_upper_bound(c, &selected_graphs),
                };
                let terms = static_terms(c, csgs, &cw, &index, &search, &scoring);
                Bounded {
                    terms,
                    boost,
                    div_bound,
                }
            })
            .collect();
        let bounds: Vec<f64> = bounded
            .iter()
            .map(|b| b.score(cfg.variant, b.div_bound))
            .collect();
        let Some((best_score, best_idx)) = bound_first_argmax(&bounds, |i| {
            if bounded[i].div_bound.is_none() {
                return bounds[i];
            }
            exact_scored.incr();
            let div = diversity_audited(&candidates[i].0, &selected_graphs, &search, &scoring);
            bounded[i].score(cfg.variant, div)
        }) else {
            break;
        };
        if best_score <= 0.0 {
            // Nothing covers anything anymore (all weights damped to ~0 or
            // zero-coverage candidates): stop rather than pick noise.
            break;
        }
        let (pattern, source_csg) = candidates.swap_remove(best_idx);
        // Damp weights: clusters whose CSG contains the pattern, and the
        // pattern's edge labels (§5, multiplicative weights update).
        for ci in covering_csgs_audited(&pattern, csgs, &search, &scoring) {
            cw.damp(ci);
        }
        elw.damp_pattern(&pattern);
        counts.record(pattern.edge_count());
        selected_graphs.push(pattern.clone());
        selected.push(SelectedPattern {
            pattern,
            score: best_score,
            source_csg,
        });
        items_done.incr();
    }

    SelectionResult {
        selected,
        elapsed: start.elapsed(),
        report: PipelineReport {
            scoring: scoring.counts(),
            ..PipelineReport::default()
        },
    }
}

/// A candidate's score terms before its diversity GEDs run.
struct Bounded {
    terms: StaticTerms,
    /// Query-log factor `1 + λ·freq(p)`, when a log is configured.
    boost: Option<f64>,
    /// The `div` that bounds the score from above; `None` when the score
    /// has no diversity term to compute, so the bound is exact.
    div_bound: Option<f64>,
}

impl Bounded {
    fn score(&self, variant: ScoreVariant, div: Option<f64>) -> f64 {
        let s = combine(variant, self.terms, div.unwrap_or(1.0));
        self.boost.map_or(s, |k| s * k)
    }
}

/// Greedy argmax (`f64::total_cmp`, ties to the lowest index) of costly
/// exact scores, given `bounds[i] ≥ exact(i)`: scores the top-bound
/// candidate, then in one parallel pass every other candidate whose bound
/// reaches that score. The rest score strictly lower, so this is the
/// exhaustive argmax, and which candidates get scored is independent of
/// the thread count. `None` when `bounds` is empty.
pub fn bound_first_argmax<F>(bounds: &[f64], exact: F) -> Option<(f64, usize)>
where
    F: Fn(usize) -> f64 + Sync,
{
    let (_, top) = argmax(bounds.iter().copied().zip(0..))?;
    let top_score = exact(top);
    let contenders: Vec<usize> = (0..bounds.len())
        .filter(|&i| i != top && bounds[i].total_cmp(&top_score).is_ge())
        .collect();
    let scored: Vec<(f64, usize)> = contenders.par_iter().map(|&i| (exact(i), i)).collect();
    argmax(scored.into_iter().chain([(top_score, top)]))
}

/// Highest `(score, index)` under `f64::total_cmp`, ties to the lowest index.
fn argmax(xs: impl Iterator<Item = (f64, usize)>) -> Option<(f64, usize)> {
    xs.max_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_csg::build_csgs;
    use catapult_graph::iso::are_isomorphic;
    use catapult_graph::{CancelToken, Label, VertexId};
    use rand::SeedableRng;

    fn ring(n: u32, label: u32) -> Graph {
        let mut g = Graph::new();
        for _ in 0..n {
            g.add_vertex(Label(label));
        }
        for i in 0..n {
            g.add_edge(VertexId(i), VertexId((i + 1) % n)).unwrap();
        }
        g
    }

    fn chain(n: u32, labels: &[u32]) -> Graph {
        let mut g = Graph::new();
        for i in 0..n {
            g.add_vertex(Label(labels[i as usize % labels.len()]));
        }
        for i in 0..n - 1 {
            g.add_edge(VertexId(i), VertexId(i + 1)).unwrap();
        }
        g
    }

    fn db_and_csgs() -> (Vec<Graph>, Vec<Csg>) {
        let mut db = Vec::new();
        for _ in 0..6 {
            db.push(ring(6, 0));
        }
        for _ in 0..6 {
            db.push(chain(7, &[0, 1]));
        }
        let clusters = vec![(0..6).collect::<Vec<u32>>(), (6..12).collect()];
        let csgs = build_csgs(&db, &clusters);
        (db, csgs)
    }

    #[test]
    fn respects_budget() {
        let (db, csgs) = db_and_csgs();
        let cfg = SelectionConfig {
            budget: PatternBudget::new(3, 5, 4).unwrap(),
            walks: 30,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let r = find_canned_patterns(&db, &csgs, &cfg, &mut rng);
        assert!(r.selected.len() <= 4);
        assert!(!r.selected.is_empty());
        for s in &r.selected {
            let e = s.pattern.edge_count();
            assert!((3..=5).contains(&e), "pattern size {e}");
        }
        // Per-size cap: 4 / 3 = 1.
        for size in 3..=5 {
            assert!(
                r.selected
                    .iter()
                    .filter(|s| s.pattern.edge_count() == size)
                    .count()
                    <= 2,
                "per-size cap violated"
            );
        }
    }

    #[test]
    fn no_duplicate_patterns() {
        let (db, csgs) = db_and_csgs();
        let cfg = SelectionConfig {
            budget: PatternBudget::new(3, 6, 8).unwrap(),
            walks: 30,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let r = find_canned_patterns(&db, &csgs, &cfg, &mut rng);
        let pats = r.patterns();
        for i in 0..pats.len() {
            for j in (i + 1)..pats.len() {
                assert!(!are_isomorphic(&pats[i], &pats[j]), "duplicate at {i},{j}");
            }
        }
    }

    #[test]
    fn patterns_occur_in_database() {
        let (db, csgs) = db_and_csgs();
        let cfg = SelectionConfig {
            budget: PatternBudget::new(3, 5, 4).unwrap(),
            walks: 30,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let r = find_canned_patterns(&db, &csgs, &cfg, &mut rng);
        // Every selected pattern embeds into at least one CSG, and (because
        // these clusters are homogeneous) into at least one data graph.
        for s in &r.selected {
            assert!(
                db.iter()
                    .any(|g| catapult_graph::iso::contains(g, &s.pattern)),
                "pattern not found in any data graph"
            );
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (db, csgs) = db_and_csgs();
        let cfg = SelectionConfig {
            budget: PatternBudget::new(3, 5, 4).unwrap(),
            walks: 20,
            ..Default::default()
        };
        let run = |seed| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            find_canned_patterns(&db, &csgs, &cfg, &mut rng)
                .patterns()
                .iter()
                .map(|p| (p.vertex_count(), p.edge_count()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn query_log_biases_selection() {
        // Two homogeneous clusters; a log full of chain queries must pull
        // selection toward chain patterns on the very first pick.
        let (db, csgs) = db_and_csgs();
        let chain_queries: Vec<Graph> = (0..5).map(|_| chain(6, &[0, 1])).collect();
        let base_cfg = SelectionConfig {
            budget: PatternBudget::new(3, 4, 1).unwrap(),
            walks: 30,
            ..Default::default()
        };
        let log_cfg = SelectionConfig {
            query_log: Some(crate::querylog::QueryLog::new(chain_queries.clone())),
            log_weight: 10.0,
            ..base_cfg
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let with_log = find_canned_patterns(&db, &csgs, &log_cfg, &mut rng);
        // The single selected pattern must occur in the logged queries.
        let p = &with_log.selected[0].pattern;
        assert!(
            chain_queries
                .iter()
                .any(|q| catapult_graph::iso::contains(q, p)),
            "log-boosted pick must match the log"
        );
    }

    #[test]
    fn ablation_variants_run_to_completion() {
        use crate::score::ScoreVariant;
        let (db, csgs) = db_and_csgs();
        for variant in [
            ScoreVariant::Full,
            ScoreVariant::NoDiversity,
            ScoreVariant::NoCognitiveLoad,
            ScoreVariant::Additive,
        ] {
            let cfg = SelectionConfig {
                budget: PatternBudget::new(3, 5, 4).unwrap(),
                walks: 20,
                variant,
                ..Default::default()
            };
            let mut rng = rand::rngs::StdRng::seed_from_u64(43);
            let r = find_canned_patterns(&db, &csgs, &cfg, &mut rng);
            assert!(
                !r.selected.is_empty(),
                "variant {variant:?} selected nothing"
            );
        }
    }

    #[test]
    fn custom_distribution_is_respected() {
        let (db, csgs) = db_and_csgs();
        let budget = PatternBudget::with_distribution(3, 6, 6, vec![(3, 2), (5, 1)]).unwrap();
        let cfg = SelectionConfig {
            budget,
            walks: 30,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let r = find_canned_patterns(&db, &csgs, &cfg, &mut rng);
        for s in &r.selected {
            let e = s.pattern.edge_count();
            assert!(e == 3 || e == 5, "size {e} has no quota");
        }
        assert!(
            r.selected
                .iter()
                .filter(|s| s.pattern.edge_count() == 3)
                .count()
                <= 2
        );
        assert!(
            r.selected
                .iter()
                .filter(|s| s.pattern.edge_count() == 5)
                .count()
                <= 1
        );
    }

    #[test]
    fn exact_run_reports_all_exact() {
        let (db, csgs) = db_and_csgs();
        let cfg = SelectionConfig {
            budget: PatternBudget::new(3, 5, 4).unwrap(),
            walks: 30,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let r = find_canned_patterns(&db, &csgs, &cfg, &mut rng);
        assert!(r.report.all_exact(), "unbounded run must be exact");
        assert!(r.report.scoring.total() > 0, "kernels must be audited");
        assert!(r.report.degraded_stages().is_empty());
    }

    #[test]
    fn cancelled_search_stops_greedy_loop_and_is_reported() {
        let (db, csgs) = db_and_csgs();
        let token = CancelToken::new();
        token.cancel();
        let cfg = SelectionConfig {
            budget: PatternBudget::new(3, 5, 4).unwrap(),
            walks: 30,
            search: SearchBudget::unbounded().with_cancel(token),
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let r = find_canned_patterns(&db, &csgs, &cfg, &mut rng);
        assert!(r.selected.is_empty(), "pre-cancelled run selects nothing");
        assert_eq!(r.report.degraded_stages(), vec!["scoring"]);
        assert_eq!(
            r.report.worst(),
            catapult_graph::Completeness::Cancelled,
            "report must say why the loop stopped"
        );
    }

    #[test]
    fn empty_inputs() {
        let cfg = SelectionConfig::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let r = find_canned_patterns(&[], &[], &cfg, &mut rng);
        assert!(r.selected.is_empty());
    }

    #[test]
    fn first_pattern_has_positive_score() {
        let (db, csgs) = db_and_csgs();
        let cfg = SelectionConfig {
            budget: PatternBudget::new(3, 4, 2).unwrap(),
            walks: 20,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let r = find_canned_patterns(&db, &csgs, &cfg, &mut rng);
        assert!(r.selected[0].score > 0.0);
    }
}
