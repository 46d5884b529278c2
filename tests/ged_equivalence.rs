//! GED search-tree equivalence: `ged_with_budget` is pinned, call by
//! call, to goldens recorded with the adjacency-list search it replaced.
//!
//! The branch-and-bound kernel may change how it computes a node's step
//! cost, heuristic and target order, but not which nodes it expands. Each
//! golden line records one call's distance, `Completeness` tag and the
//! node count its meter flushes into a [`Recorder`] stage probe. Equal
//! distances alone would allow a different tree that happens to reach the
//! same optimum; equal node counts at caps that cut the search at 1, 10,
//! 1000 and 50 000 nodes pin the expansion order itself.
//!
//! The pool holds about 300 seeded random pairs: the empty graph against
//! itself and others, pairs of 0–14 vertices over 1–4 labels (half of
//! them near-copies, as selection's diversity pairs are), and pairs with
//! a 60–80-vertex side, whose bit rows span more than one word.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use catapult::graph::ged::ged_with_budget;
use catapult::graph::{Graph, Label, SearchBudget, VertexId};
use catapult_obs::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/ged_equivalence.txt");

const CAPS: [u64; 4] = [1, 10, 1000, 50_000];

/// Random labeled graph on `n` vertices: a random forest (each vertex
/// joins an earlier one with probability 0.85) plus about `extra` edges
/// per vertex, over labels `0..labels`.
fn random_graph(rng: &mut StdRng, n: u32, labels: u32, extra: f64) -> Graph {
    let mut g = Graph::new();
    for _ in 0..n {
        g.add_vertex(Label(rng.gen_range(0..labels)));
    }
    for i in 1..n {
        if rng.gen_bool(0.85) {
            let j = rng.gen_range(0..i);
            g.add_edge(VertexId(i), VertexId(j)).unwrap();
        }
    }
    for _ in 0..(f64::from(n) * extra) as u32 {
        let (x, y) = (rng.gen_range(0..n), rng.gen_range(0..n));
        // Self-loops and duplicates are rejected; the draw is just skipped.
        let _ = g.add_edge(VertexId(x), VertexId(y));
    }
    g
}

/// A copy of `g` with a few random edits: relabels, edge insertions,
/// edge deletions (by rebuilding without the edge) and vertex additions.
fn perturb(rng: &mut StdRng, g: &Graph, labels: u32, edits: u32) -> Graph {
    let mut vlabels: Vec<Label> = g.vertices().map(|v| g.label(v)).collect();
    let mut edges: Vec<(u32, u32)> = g.edges().map(|(_, e)| (e.u.0, e.v.0)).collect();
    for _ in 0..edits {
        match rng.gen_range(0..4) {
            0 if !vlabels.is_empty() => {
                let v = rng.gen_range(0..vlabels.len());
                vlabels[v] = Label(rng.gen_range(0..labels));
            }
            1 if !edges.is_empty() => {
                let e = rng.gen_range(0..edges.len());
                edges.remove(e);
            }
            2 => {
                vlabels.push(Label(rng.gen_range(0..labels)));
                let n = vlabels.len() as u32;
                if n > 1 {
                    edges.push((rng.gen_range(0..n - 1), n - 1));
                }
            }
            _ if vlabels.len() > 1 => {
                let n = vlabels.len() as u32;
                let (x, y) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if x != y && !edges.contains(&(x.min(y), x.max(y))) {
                    edges.push((x.min(y), x.max(y)));
                }
            }
            _ => {}
        }
    }
    Graph::from_parts(&vlabels, &edges)
}

/// The seeded pair pool (order matters: the golden lines are keyed by
/// pair index).
fn pair_pool() -> Vec<(Graph, Graph)> {
    let mut rng = StdRng::seed_from_u64(0x6ED_2026);
    let mut pairs = Vec::new();
    let empty = Graph::new();
    let small = random_graph(&mut rng, 5, 2, 0.3);
    pairs.push((empty.clone(), empty.clone()));
    pairs.push((empty.clone(), small.clone()));
    pairs.push((small, empty));
    for i in 0..280 {
        let labels = rng.gen_range(1..=4);
        let extra = rng.gen_range(0.0..0.6);
        let na = rng.gen_range(0..=14);
        let a = random_graph(&mut rng, na, labels, extra);
        let b = if i % 2 == 0 {
            let nb = rng.gen_range(0..=14);
            random_graph(&mut rng, nb, labels, extra)
        } else {
            let edits = rng.gen_range(1..=4);
            perturb(&mut rng, &a, labels, edits)
        };
        pairs.push((a, b));
    }
    for i in 0..17 {
        let labels = rng.gen_range(1..=4);
        let na = rng.gen_range(60..=80);
        let a = random_graph(&mut rng, na, labels, 0.2);
        let b = match i % 4 {
            0 | 1 => {
                let edits = rng.gen_range(1..=6);
                perturb(&mut rng, &a, labels, edits)
            }
            2 => {
                let nb = rng.gen_range(60..=80);
                random_graph(&mut rng, nb, labels, 0.2)
            }
            _ => {
                let nb = rng.gen_range(3..=10);
                random_graph(&mut rng, nb, labels, 0.3)
            }
        };
        // Odd pairs put the wide graph on the B side.
        pairs.push(if i % 2 == 0 { (a, b) } else { (b, a) });
    }
    pairs
}

/// One line per (pair, cap): sizes, distance, tag, kernel calls (0 when
/// the bounds meet and no search runs) and nodes expanded.
fn render() -> String {
    let mut out = String::new();
    for (i, (a, b)) in pair_pool().iter().enumerate() {
        for cap in CAPS {
            let rec = Recorder::enabled();
            let budget = SearchBudget::nodes(cap).with_probe(rec.stage_probe("equivalence"));
            let r = ged_with_budget(a, b, budget);
            writeln!(
                out,
                "pair={i} va={} ea={} vb={} eb={} cap={cap} distance={} completeness={} calls={} nodes={}",
                a.vertex_count(),
                a.edge_count(),
                b.vertex_count(),
                b.edge_count(),
                r.distance,
                r.completeness.name(),
                rec.counter("equivalence.ged.calls").get(),
                rec.counter("equivalence.ged.probes").get(),
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn search_tree_matches_goldens_node_for_node() {
    let got = render();
    for (n, (g, want)) in got.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(g, want, "line {}: the GED search tree changed", n + 1);
    }
    assert_eq!(
        got.lines().count(),
        GOLDEN.lines().count(),
        "golden and rendered line counts differ"
    );
}

#[test]
fn pool_covers_multi_word_rows_empty_graphs_and_every_cap_outcome() {
    let pairs = pair_pool();
    assert!(pairs.len() >= 300);
    assert!(pairs
        .iter()
        .any(|(a, b)| a.vertex_count() == 0 && b.vertex_count() == 0));
    assert!(pairs.iter().any(|(a, _)| a.vertex_count() > 64));
    assert!(pairs.iter().any(|(_, b)| b.vertex_count() > 64));
    // Every cap cuts some searches short, and every cap above 1 (which
    // stops at the root's first child) lets some run to completion.
    for cap in CAPS {
        let tags: Vec<&str> = GOLDEN
            .lines()
            .filter(|l| l.contains(&format!(" cap={cap} ")))
            .filter(|l| !l.contains(" calls=0 "))
            .map(|l| l.split(" completeness=").nth(1).unwrap())
            .collect();
        assert!(tags.iter().any(|t| !t.starts_with("exact")), "cap {cap}");
        assert_eq!(
            cap > 1,
            tags.iter().any(|t| t.starts_with("exact")),
            "cap {cap}"
        );
    }
}
