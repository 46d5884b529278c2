//! Pattern scoring (§5, Eq. 2):
//! `s_p = ccov(p, cw, C) × lcov(p, D) × div(p, P\p) / cog(p)`.
//!
//! * `ccov` estimates subgraph coverage through the cluster weights: a CSG
//!   "covers" `p` when `p` is subgraph-isomorphic to it (tested with VF2).
//! * `lcov(p, D)` is the fraction of data graphs containing at least one
//!   edge whose label occurs in `p`, computed against a bitset index.
//! * `div` is the minimum GED to the already-selected patterns, with the
//!   Definition 5.1 lower bound pruning exact computations (§5 steps a–c).
//! * `cog` is the density-based cognitive load (§3.2).
//!
//! The four criteria combine multiplicatively following Tofallis [37]
//! because no trade-off rate between them is known a priori.
//!
//! [`static_terms`] holds the terms independent of the selected set and
//! [`combine`] is the one Eq. 2 / [`ScoreVariant`] formula; fed a
//! [`diversity_upper_bound`], it bounds the score for bound-first selection.

use catapult_csg::{ClusterWeights, Csg};
use catapult_graph::ged::{ged_lower_bound, ged_upper_bound, ged_with_budget};
use catapult_graph::iso::{for_each_embedding, MatchOptions};
use catapult_graph::metrics::cognitive_load;
use catapult_graph::{EdgeLabel, Graph, SearchBudget, Tally};
use std::collections::HashMap;
use std::ops::ControlFlow;

/// Bitset index: per edge label, which data graphs contain it.
///
/// Enables `lcov(p, D)` — the size of the *union* of transaction sets over
/// `p`'s edge labels — in O(labels × |D|/64).
#[derive(Clone, Debug)]
pub struct EdgeLabelIndex {
    blocks_per_row: usize,
    rows: HashMap<EdgeLabel, Vec<u64>>,
    db_size: usize,
}

impl EdgeLabelIndex {
    /// Build the index over `db`.
    pub fn build(db: &[Graph]) -> Self {
        let n = db.len();
        let blocks = n.div_ceil(64);
        let mut rows: HashMap<EdgeLabel, Vec<u64>> = HashMap::new();
        for (i, g) in db.iter().enumerate() {
            for el in g.edge_label_set() {
                let row = rows.entry(el).or_insert_with(|| vec![0u64; blocks]);
                row[i / 64] |= 1u64 << (i % 64);
            }
        }
        EdgeLabelIndex {
            blocks_per_row: blocks,
            rows,
            db_size: n,
        }
    }

    /// `lcov(p, D)`: fraction of graphs containing any of `p`'s edge labels.
    pub fn lcov(&self, pattern: &Graph) -> f64 {
        if self.db_size == 0 {
            return 0.0;
        }
        let mut acc = vec![0u64; self.blocks_per_row];
        for el in pattern.edge_label_set() {
            if let Some(row) = self.rows.get(&el) {
                for (a, &b) in acc.iter_mut().zip(row) {
                    *a |= b;
                }
            }
        }
        let covered: u32 = acc.iter().map(|b| b.count_ones()).sum();
        covered as f64 / self.db_size as f64
    }
}

/// Default node cap for each CSG-containment VF2 test (CSGs are small;
/// this is generous). A user [`SearchBudget`] node cap overrides it.
pub const CCOV_ISO_BUDGET: u64 = 2_000_000;

/// Which CSGs contain `p` (subgraph isomorphism against the closure
/// graph), under an explicit [`SearchBudget`], recording each VF2 probe's
/// [`Completeness`](catapult_graph::Completeness) in `tally`.
/// A degraded probe may miss a covering CSG (never invents one), so `ccov`
/// built from it is a lower bound.
pub fn covering_csgs_audited(
    pattern: &Graph,
    csgs: &[Csg],
    budget: &SearchBudget,
    tally: &Tally,
) -> Vec<usize> {
    let probe = budget.with_default_cap(CCOV_ISO_BUDGET);
    csgs.iter()
        .enumerate()
        .filter(|(_, c)| {
            let opts = MatchOptions {
                max_embeddings: 1,
                budget: probe.clone(),
                ..MatchOptions::default()
            };
            let out = for_each_embedding(&c.graph, pattern, opts, |_| ControlFlow::Break(()));
            tally.record(out.completeness);
            out.embeddings > 0
        })
        .map(|(i, _)| i)
        .collect()
}

/// Default GED node cap for diversity computations (patterns are ≤ ηmax ≈
/// 12 edges). A user [`SearchBudget`] node cap overrides it.
pub const DIV_GED_BUDGET: u64 = 50_000;

/// `div(p, P\p) = min_i GED(p, p_i)` with lower-bound pruning (§5):
/// order selected patterns by ascending `GED_l`, compute exact GEDs in that
/// order, and drop every pattern whose lower bound already exceeds the
/// best exact distance found.
///
/// Returns `None` for an empty `selected` set (the first pattern has no
/// diversity term).
///
/// Kernels run under `budget`, audited in `tally`. A tripped GED returns
/// its best upper bound, so a degraded `div` can only over-estimate the
/// true minimum distance.
pub fn diversity_audited(
    pattern: &Graph,
    selected: &[Graph],
    budget: &SearchBudget,
    tally: &Tally,
) -> Option<f64> {
    if selected.is_empty() {
        return None;
    }
    let probe = budget.with_default_cap(DIV_GED_BUDGET);
    let mut order: Vec<(usize, usize)> = selected
        .iter()
        .map(|p| ged_lower_bound(pattern, p))
        .enumerate()
        .collect();
    order.sort_by_key(|&(_, lb)| lb);
    let mut best = usize::MAX;
    for (i, lb) in order {
        if lb >= best {
            break; // all remaining lower bounds are ≥ best: prune (step c3)
        }
        let r = ged_with_budget(pattern, &selected[i], &probe);
        tally.record(r.completeness);
        if r.distance < best {
            best = r.distance;
        }
    }
    Some(best as f64)
}

/// Scoring-function variants: the paper's Eq. 2 plus the ablations the
/// harness evaluates (`experiments ablation1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ScoreVariant {
    /// Eq. 2: `ccov × lcov × div / cog` (multiplicative, per [37]).
    #[default]
    Full,
    /// Drop the diversity term: `ccov × lcov / cog`.
    NoDiversity,
    /// Drop the cognitive-load term: `ccov × lcov × div`.
    NoCognitiveLoad,
    /// Additive combination of normalized criteria — the alternative [37]
    /// argues against when trade-off rates are unknown:
    /// `(ccov + lcov + div/(div+1) + 1/(1+cog)) / 4`.
    Additive,
}

/// The Eq. 2 terms that do not depend on the selected set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StaticTerms {
    /// Subgraph coverage `ccov(p, cw, C)`.
    pub ccov: f64,
    /// Label coverage `lcov(p, D)`.
    pub lcov: f64,
    /// Cognitive load `cog(p)`.
    pub cog: f64,
}

/// [`StaticTerms`] of `pattern`, with `ccov(p, cw, C) = Σ_i cw_i ·
/// I(CSG_i ⊇ p)` (§5). The VF2 probes run under `budget` and are audited
/// in `tally`, so a degraded `ccov` is a lower bound.
pub fn static_terms(
    pattern: &Graph,
    csgs: &[Csg],
    cw: &ClusterWeights,
    index: &EdgeLabelIndex,
    budget: &SearchBudget,
    tally: &Tally,
) -> StaticTerms {
    StaticTerms {
        ccov: covering_csgs_audited(pattern, csgs, budget, tally)
            .into_iter()
            .map(|i| cw.get(i))
            .sum(),
        lcov: index.lcov(pattern),
        cog: cognitive_load(pattern),
    }
}

/// The Eq. 2 score under `variant` from the static terms and `div`.
///
/// `div` is 1 when no pattern has been selected yet (the multiplicative
/// identity, so the first pick is driven by coverage and cognitive load
/// alone). Every variant is non-decreasing in `div`, which is what lets a
/// diversity upper bound stand in for `div` to bound the score.
pub fn combine(variant: ScoreVariant, t: StaticTerms, div: f64) -> f64 {
    if t.cog <= 0.0 {
        return 0.0;
    }
    match variant {
        ScoreVariant::Full => t.ccov * t.lcov * div / t.cog,
        ScoreVariant::NoDiversity => t.ccov * t.lcov / t.cog,
        ScoreVariant::NoCognitiveLoad => t.ccov * t.lcov * div,
        ScoreVariant::Additive => (t.ccov + t.lcov + div / (div + 1.0) + 1.0 / (1.0 + t.cog)) / 4.0,
    }
}

/// Upper bound on [`diversity_audited`]: `min_s ged_upper_bound(p, s)`
/// over the selected set, with no search. Sound because a budgeted GED
/// returns `min(best path, ged_upper_bound)`, and pruning only skips
/// patterns whose lower bound is already at least the running minimum.
/// `None` for an empty `selected` set, like [`diversity_audited`].
pub fn diversity_upper_bound(pattern: &Graph, selected: &[Graph]) -> Option<f64> {
    let min = selected.iter().map(|s| ged_upper_bound(pattern, s)).min()?;
    Some(min as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_csg::build_csgs;
    use catapult_graph::Label;

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn db() -> Vec<Graph> {
        vec![
            Graph::from_parts(&[l(0), l(1), l(2)], &[(0, 1), (1, 2)]),
            Graph::from_parts(&[l(0), l(1)], &[(0, 1)]),
            Graph::from_parts(&[l(3), l(4)], &[(0, 1)]),
        ]
    }

    fn div(p: &Graph, selected: &[Graph]) -> Option<f64> {
        diversity_audited(p, selected, &SearchBudget::unbounded(), &Tally::new())
    }

    fn terms(p: &Graph, csgs: &[Csg], cw: &ClusterWeights, idx: &EdgeLabelIndex) -> StaticTerms {
        static_terms(p, csgs, cw, idx, &SearchBudget::unbounded(), &Tally::new())
    }

    #[test]
    fn lcov_unions_transactions() {
        let db = db();
        let idx = EdgeLabelIndex::build(&db);
        let p = Graph::from_parts(&[l(0), l(1)], &[(0, 1)]);
        assert!((idx.lcov(&p) - 2.0 / 3.0).abs() < 1e-12);
        let q = Graph::from_parts(&[l(0), l(1), l(3), l(4)], &[(0, 1), (2, 3)]);
        assert!((idx.lcov(&q) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ccov_weights_covering_clusters() {
        let db = db();
        let csgs = build_csgs(&db, &[vec![0, 1], vec![2]]);
        let cw = ClusterWeights::new(&csgs, db.len());
        let p = Graph::from_parts(&[l(0), l(1)], &[(0, 1)]);
        let (budget, tally) = (SearchBudget::unbounded(), Tally::new());
        // p is in CSG 0 (weight 2/3) only.
        let idx = EdgeLabelIndex::build(&db);
        let ccov = static_terms(&p, &csgs, &cw, &idx, &budget, &tally).ccov;
        assert!((ccov - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(covering_csgs_audited(&p, &csgs, &budget, &tally), vec![0]);
        assert!(tally.counts().total() > 0, "every probe is audited");
    }

    #[test]
    fn diversity_is_min_ged() {
        let p = Graph::from_parts(&[l(0); 3], &[(0, 1), (1, 2)]);
        let near = Graph::from_parts(&[l(0); 3], &[(0, 1), (1, 2), (0, 2)]); // +1 edge
        let far = Graph::from_parts(&[l(9); 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        assert_eq!(div(&p, &[far, near]), Some(1.0));
        assert!(div(&p, &[]).is_none());
    }

    #[test]
    fn pruning_matches_naive_min() {
        let p = Graph::from_parts(&[l(0), l(1), l(2)], &[(0, 1), (1, 2)]);
        let set = vec![
            Graph::from_parts(&[l(0), l(1)], &[(0, 1)]),
            Graph::from_parts(&[l(0), l(1), l(2), l(3)], &[(0, 1), (1, 2), (2, 3)]),
            Graph::from_parts(&[l(5), l(6), l(7)], &[(0, 1), (1, 2)]),
        ];
        let naive = set
            .iter()
            .map(|q| ged_with_budget(&p, q, 1_000_000).distance)
            .min()
            .unwrap() as f64;
        assert_eq!(div(&p, &set), Some(naive));
    }

    #[test]
    fn diversity_upper_bound_dominates_budgeted_diversity() {
        let p = Graph::from_parts(&[l(0), l(1), l(0), l(1)], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let set = vec![
            Graph::from_parts(&[l(0), l(1)], &[(0, 1)]),
            Graph::from_parts(&[l(1); 4], &[(0, 1), (1, 2), (2, 3)]),
        ];
        let ub = diversity_upper_bound(&p, &set).unwrap();
        assert!(div(&p, &set).unwrap() <= ub);
        // Even a search that trips at once stays under the bound.
        let tripped = diversity_audited(&p, &set, &SearchBudget::nodes(1), &Tally::new());
        assert!(tripped.unwrap() <= ub);
        assert!(diversity_upper_bound(&p, &[]).is_none());
    }

    #[test]
    fn score_prefers_low_cog_high_cov() {
        let db = db();
        let csgs = build_csgs(&db, &[vec![0, 1], vec![2]]);
        let cw = ClusterWeights::new(&csgs, db.len());
        let idx = EdgeLabelIndex::build(&db);
        // A pattern in the big cluster vs one in the small cluster.
        let popular = Graph::from_parts(&[l(0), l(1), l(2)], &[(0, 1), (1, 2)]);
        let niche = Graph::from_parts(&[l(3), l(4)], &[(0, 1)]);
        let s1 = combine(ScoreVariant::Full, terms(&popular, &csgs, &cw, &idx), 1.0);
        let s2 = combine(ScoreVariant::Full, terms(&niche, &csgs, &cw, &idx), 1.0);
        assert!(s1 > s2, "popular {s1} vs niche {s2}");
    }

    #[test]
    fn variants_differ_as_designed() {
        let db = db();
        let csgs = build_csgs(&db, &[vec![0, 1], vec![2]]);
        let cw = ClusterWeights::new(&csgs, db.len());
        let idx = EdgeLabelIndex::build(&db);
        let p = Graph::from_parts(&[l(0), l(1), l(2)], &[(0, 1), (1, 2)]);
        let selected = vec![Graph::from_parts(&[l(0), l(1)], &[(0, 1)])];
        let t = terms(&p, &csgs, &cw, &idx);
        let d = div(&p, &selected).unwrap();
        let full = combine(ScoreVariant::Full, t, d);
        let no_div = combine(ScoreVariant::NoDiversity, t, d);
        let no_cog = combine(ScoreVariant::NoCognitiveLoad, t, d);
        let add = combine(ScoreVariant::Additive, t, d);
        // div(p, selected) = GED to the single edge = 2 → full = no_div × 2.
        assert!((full - no_div * 2.0).abs() < 1e-9);
        // no_cog = full × cog.
        assert!((no_cog - full * t.cog).abs() < 1e-9);
        // additive is bounded in [0, 1].
        assert!((0.0..=1.0).contains(&add));
    }

    #[test]
    fn combine_is_monotone_in_div() {
        let t = StaticTerms {
            ccov: 0.4,
            lcov: 0.7,
            cog: 1.3,
        };
        for variant in [
            ScoreVariant::Full,
            ScoreVariant::NoDiversity,
            ScoreVariant::NoCognitiveLoad,
            ScoreVariant::Additive,
        ] {
            for d in 0..40 {
                let (lo, hi) = (
                    combine(variant, t, d as f64),
                    combine(variant, t, d as f64 + 1.0),
                );
                assert!(
                    lo <= hi,
                    "{variant:?}: div {d} scores {lo}, div {} scores {hi}",
                    d + 1
                );
            }
        }
        let no_cog = StaticTerms { cog: 0.0, ..t };
        assert_eq!(combine(ScoreVariant::Full, no_cog, 3.0), 0.0);
    }

    #[test]
    fn default_variant_is_full() {
        assert_eq!(ScoreVariant::default(), ScoreVariant::Full);
    }

    #[test]
    fn empty_db_scores_zero() {
        let idx = EdgeLabelIndex::build(&[]);
        let p = Graph::from_parts(&[l(0), l(1)], &[(0, 1)]);
        assert_eq!(idx.lcov(&p), 0.0);
    }
}
