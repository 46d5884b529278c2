//! Output checks. A run or query that fails one counts as failed.

use catapult_core::CatapultResult;
use catapult_eval::Formulation;
use catapult_graph::components::is_connected;
use catapult_graph::iso::{are_isomorphic, contains};
use catapult_graph::Graph;

/// Every selected pattern is connected, within `[ηmin, ηmax]` edges, and
/// contained in its source CSG; the patterns are pairwise non-isomorphic;
/// at most `γ` were selected.
pub fn check_patterns(r: &CatapultResult, eta: (usize, usize), gamma: usize) -> Result<(), String> {
    let selected = &r.selection.selected;
    if selected.is_empty() || selected.len() > gamma {
        return Err(format!(
            "{} patterns selected for γ={gamma}",
            selected.len()
        ));
    }
    for (i, s) in selected.iter().enumerate() {
        let p = &s.pattern;
        if !is_connected(p) {
            return Err(format!("pattern {i} is disconnected"));
        }
        if !(eta.0..=eta.1).contains(&p.edge_count()) {
            return Err(format!("pattern {i} has {} edges", p.edge_count()));
        }
        let Some(csg) = r.csgs.get(s.source_csg) else {
            return Err(format!("pattern {i} names missing CSG {}", s.source_csg));
        };
        if !contains(&csg.graph, p) {
            return Err(format!(
                "pattern {i} is not contained in CSG {}",
                s.source_csg
            ));
        }
        if let Some(j) = (0..i).find(|&j| are_isomorphic(&selected[j].pattern, p)) {
            return Err(format!("patterns {j} and {i} are isomorphic"));
        }
    }
    Ok(())
}

/// The formulation's step count follows from its occurrences under the
/// §6.1 model, and the occurrences are vertex-disjoint.
pub fn formulation_consistent(q: &Graph, f: &Formulation) -> bool {
    let mut vertices: Vec<_> = f.used.iter().flat_map(|o| o.vertices.iter()).collect();
    let covered_vertices = vertices.len();
    vertices.sort_unstable();
    vertices.dedup();
    let covered_edges: usize = f.used.iter().map(|o| o.edges.len()).sum();
    vertices.len() == covered_vertices
        && covered_vertices <= q.vertex_count()
        && covered_edges <= q.edge_count()
        && f.steps
            == f.used.len() + q.vertex_count() - covered_vertices + q.edge_count() - covered_edges
        && f.steps_edge_at_a_time == q.vertex_count() + q.edge_count()
}

/// Two formulations of one query are identical: same steps and the same
/// occurrences in the same order.
pub fn same_formulation(a: &Formulation, b: &Formulation) -> bool {
    a.steps == b.steps
        && a.steps_edge_at_a_time == b.steps_edge_at_a_time
        && a.used.len() == b.used.len()
        && a.used
            .iter()
            .zip(&b.used)
            .all(|(x, y)| x.pattern == y.pattern && x.vertices == y.vertices && x.edges == y.edges)
}
