//! The traced stage chain: `run_catapult`'s Hybrid(MCCS), sampling-free
//! path replayed one public stage function at a time, so each layer can be
//! timed from outside by timing the call into it.
//!
//! The chain draws from one `StdRng` in the same order as the pipeline, so
//! its [`CatapultResult`] has the same `result_digest` as
//! `run_catapult(db, cfg)`; the benchmark checks that on every traced run.

use catapult_cluster::coarse::{coarse_cluster_with_subtrees, CoarseConfig};
use catapult_cluster::fine::{fine_cluster_audited, FineConfig};
use catapult_cluster::{Clustering, SimilarityKind, Strategy};
use catapult_core::{find_canned_patterns, CatapultConfig, CatapultResult, SelectionConfig};
use catapult_csg::build_csgs_recorded;
use catapult_graph::Graph;
use catapult_mining::subtree::mine_subtrees;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// k-means iteration cap `cluster_graphs` uses for its coarse stage.
const KMEANS_ITERATIONS: usize = 30;

/// Wall time of each stage call.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    pub mining: Duration,
    pub coarse: Duration,
    pub fine: Duration,
    pub csg: Duration,
    pub select: Duration,
}

impl StageTimes {
    pub fn total(&self) -> Duration {
        self.mining + self.coarse + self.fine + self.csg + self.select
    }
}

/// What one chain run returns besides its timings: the stage outputs'
/// sizes, read from the stages' return values.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageCounts {
    pub mining_candidates: usize,
    pub mining_frequent: usize,
    pub coarse_clusters: usize,
    pub csg_vertices: usize,
    pub csg_edges: usize,
}

/// Run the pipeline stage by stage under `cfg` (whose recorder receives
/// the kernel counters).
///
/// # Panics
/// If `cfg.clustering` asks for something other than the sampling-free
/// Hybrid(MCCS) strategy the chain replays.
pub fn run_chain(db: &[Graph], cfg: &CatapultConfig) -> (CatapultResult, StageTimes, StageCounts) {
    assert!(
        cfg.clustering.strategy == Strategy::Hybrid(SimilarityKind::Mccs)
            && cfg.clustering.sampling.is_none(),
        "the stage chain replays only the sampling-free Hybrid(MCCS) pipeline"
    );
    let rec = &cfg.recorder;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // The pipeline overlays the global budget on the clustering stage's own
    // and attributes kernel work to `mining.*` and `clustering.*`.
    let search = cfg.search.overlay(&cfg.clustering.search);
    let mut times = StageTimes::default();
    let phase = Instant::now();

    let t = Instant::now();
    let mined = mine_subtrees(
        db,
        &cfg.clustering.miner,
        &search.clone().with_probe(rec.stage_probe("mining")),
    );
    times.mining = t.elapsed();
    let mining_candidates = mined.candidates_counted;
    let mining_frequent = mined.subtrees.len();

    let t = Instant::now();
    let coarse = coarse_cluster_with_subtrees(
        db,
        mined.subtrees,
        &CoarseConfig {
            max_cluster_size: cfg.clustering.max_cluster_size,
            miner: cfg.clustering.miner,
            max_features: cfg.clustering.max_features,
            kmeans_iterations: KMEANS_ITERATIONS,
        },
        &mut rng,
    );
    times.coarse = t.elapsed();
    let coarse_clusters = coarse.clusters.len();

    let t = Instant::now();
    let fine = fine_cluster_audited(
        db,
        coarse.clusters,
        &FineConfig {
            max_cluster_size: cfg.clustering.max_cluster_size,
            similarity: SimilarityKind::Mccs,
            budget: search.clone().with_probe(rec.stage_probe("clustering")),
            keep_going: cfg.clustering.keep_going,
        },
        &mut rng,
    );
    times.fine = t.elapsed();
    let clustering = Clustering {
        clusters: fine.clusters,
        features: coarse.features,
        elapsed: phase.elapsed(),
        mining: mined.kernel,
        fine: fine.kernel,
    };

    let t = Instant::now();
    let csgs = build_csgs_recorded(db, &clustering.clusters, rec);
    times.csg = t.elapsed();

    let t = Instant::now();
    let mut selection = find_canned_patterns(
        db,
        &csgs,
        &SelectionConfig {
            budget: cfg.budget.clone(),
            walks: cfg.walks,
            search: cfg.search.clone(),
            recorder: rec.clone(),
            ..Default::default()
        },
        &mut rng,
    );
    times.select = t.elapsed();
    selection.report.mining = clustering.mining;
    selection.report.clustering = clustering.fine;

    let counts = StageCounts {
        mining_candidates,
        mining_frequent,
        coarse_clusters,
        csg_vertices: csgs.iter().map(|c| c.graph.vertex_count()).sum(),
        csg_edges: csgs.iter().map(|c| c.graph.edge_count()).sum(),
    };
    let result = CatapultResult {
        selection,
        csgs,
        clustering,
    };
    (result, times, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_core::ckpt_io::result_digest;
    use catapult_core::{run_catapult, PatternBudget};
    use catapult_obs::Recorder;

    #[test]
    fn staged_chain_reproduces_the_pipeline_digest() {
        let db = catapult_datasets::generate(&catapult_datasets::aids_profile(), 20, 5).graphs;
        let cfg = CatapultConfig {
            budget: PatternBudget::new(3, 6, 4).expect("valid budget"),
            walks: 10,
            clustering: catapult_cluster::ClusteringConfig {
                max_cluster_size: 6,
                ..Default::default()
            },
            ..Default::default()
        };
        let plain = run_catapult(&db, &cfg);
        let traced = CatapultConfig {
            recorder: Recorder::enabled(),
            ..cfg.clone()
        };
        let (staged, _, counts) = run_chain(&db, &traced);
        assert!(!plain.patterns().is_empty());
        assert!(counts.coarse_clusters > 0 && counts.csg_edges > 0);
        assert_eq!(result_digest(&staged), result_digest(&plain));
    }
}
