//! Graph edit distance (GED).
//!
//! The paper uses GED to measure pattern-set diversity (§3.2):
//! `div(p, P\p) = min GED(p, p_i)`. Since exact GED is expensive [32],
//! §5 prunes candidates with the lower bound of Definition 5.1 before
//! computing exact distances.
//!
//! Cost model (uniform, matching the paper's unlabeled-edge setting):
//! vertex insertion / deletion / relabeling each cost 1, edge insertion /
//! deletion each cost 1. Edges carry no independent label.
//!
//! Three routines:
//! * [`ged_lower_bound`] — Definition 5.1, O(n log n).
//! * [`ged_upper_bound`] — bipartite assignment heuristic (Riesen–Bunke
//!   [32]): solve a vertex assignment with Hungarian, then charge the exact
//!   induced edit cost of that vertex mapping (always a valid upper bound).
//! * [`ged_with_budget`] — exact depth-first branch-and-bound seeded with
//!   the upper bound, under a [`SearchBudget`]: on a tripped limit it
//!   returns the best-known *upper bound*, explicitly flagged via
//!   [`GedResult::completeness`].
//!
//! The search decides A's vertices in descending-degree order, each onto
//! an unused B vertex (same label first, then ascending id) or deleted.
//! No node allocates or scans an adjacency list: vertex sets are bit rows
//! over [`BitAdjacency`], so a branch's edge edits are two popcounts (see
//! `GedSearch::descend`), and the label-multiset heuristic is kept up to
//! date by ±1 as vertices are decided, so it is O(1).

use crate::bitadj::BitAdjacency;
use crate::budget::{BudgetMeter, Completeness, Kernel, SearchBudget};
use crate::graph::{Graph, VertexId};
use crate::labels::Label;
use crate::matching::hungarian;

/// Result of a GED computation.
///
/// When `completeness` is not [`Completeness::Exact`], `distance` is the
/// best-known **upper bound** on the true GED (never an underestimate): the
/// branch-and-bound is seeded with the Riesen–Bunke assignment bound and
/// only ever replaces it with cheaper complete edit paths, so whatever it
/// holds when the budget trips is realized by an actual edit sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GedResult {
    /// The edit distance — exact, or a valid upper bound (see above).
    pub distance: usize,
    /// Why the search stopped.
    pub completeness: Completeness,
}

impl GedResult {
    /// Whether `distance` is the exact GED (otherwise it is an upper bound).
    pub fn is_exact(&self) -> bool {
        self.completeness.is_exact()
    }
}

/// Multiset intersection size of two sorted label lists.
fn multiset_common(mut a: Vec<Label>, mut b: Vec<Label>) -> usize {
    a.sort_unstable();
    b.sort_unstable();
    let (mut i, mut j, mut c) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// Lower bound on GED per Definition 5.1:
/// `GED_l = |V| + |E|` where
/// `|V| = ||V_A| - |V_B|| + min(|V_A|, |V_B|) - |L(V_A) ∩ L(V_B)|` and
/// `|E| = ||E_A| - |E_B||`.
///
/// The label intersection is computed as a *multiset* intersection (the
/// exact count of vertices that can be mapped without relabeling), which is
/// what makes the vertex term the exact minimum number of vertex edits.
pub fn ged_lower_bound(a: &Graph, b: &Graph) -> usize {
    let (na, nb) = (a.vertex_count(), b.vertex_count());
    let common = multiset_common(a.labels().to_vec(), b.labels().to_vec());
    let v_cost = na.abs_diff(nb) + na.min(nb) - common.min(na.min(nb));
    let e_cost = a.edge_count().abs_diff(b.edge_count());
    v_cost + e_cost
}

/// Exact edit cost induced by a full vertex mapping.
///
/// `mapping[i]` is the image of A-vertex `i` in B, or `None` for deletion;
/// B-vertices not in the image are insertions.
pub fn induced_edit_cost(a: &Graph, b: &Graph, mapping: &[Option<VertexId>]) -> usize {
    assert_eq!(mapping.len(), a.vertex_count());
    let mut cost = 0usize;
    let mut b_used = vec![false; b.vertex_count()];
    for (vi, m) in a.vertices().zip(mapping.iter()) {
        match m {
            Some(t) => {
                assert!(!b_used[t.index()], "mapping must be injective");
                b_used[t.index()] = true;
                if a.label(vi) != b.label(*t) {
                    cost += 1; // relabel
                }
            }
            None => cost += 1, // vertex deletion
        }
    }
    cost += b_used.iter().filter(|&&u| !u).count(); // vertex insertions
                                                    // Edge deletions / matches.
    for (_, e) in a.edges() {
        match (mapping[e.u.index()], mapping[e.v.index()]) {
            (Some(x), Some(y)) if b.has_edge(x, y) => {}
            _ => cost += 1, // deleted
        }
    }
    // Edge insertions: B edges with no matched A preimage edge.
    let mut preimage = vec![None; b.vertex_count()];
    for (vi, m) in a.vertices().zip(mapping.iter()) {
        if let Some(t) = m {
            preimage[t.index()] = Some(vi);
        }
    }
    for (_, e) in b.edges() {
        match (preimage[e.u.index()], preimage[e.v.index()]) {
            (Some(x), Some(y)) if a.has_edge(x, y) => {}
            _ => cost += 1, // inserted
        }
    }
    cost
}

/// Bipartite-assignment upper bound on GED (Riesen–Bunke style).
///
/// Builds the (n+m)×(n+m) cost matrix of vertex substitutions (cost:
/// relabel + degree difference), deletions (1 + degree) and insertions
/// (1 + degree), solves it with the Hungarian algorithm, and returns the
/// exact [`induced_edit_cost`] of the resulting vertex mapping.
pub fn ged_upper_bound(a: &Graph, b: &Graph) -> usize {
    ged_upper_bound_mapping(a, b).0
}

/// As [`ged_upper_bound`], also returning the vertex mapping realizing the
/// bound (used by [`crate::edit::edit_script`] to materialize edit paths).
pub fn ged_upper_bound_mapping(a: &Graph, b: &Graph) -> (usize, Vec<Option<VertexId>>) {
    let (na, nb) = (a.vertex_count(), b.vertex_count());
    let n = na + nb;
    if n == 0 {
        return (0, Vec::new());
    }
    let big = 1e9;
    // Dense id tables sidestep any usize→u32 narrowing in the hot loops.
    let avs: Vec<VertexId> = a.vertices().collect();
    let bvs: Vec<VertexId> = b.vertices().collect();
    let mut cost = vec![vec![0.0f64; n]; n];
    for (i, row) in cost.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = match (i < na, j < nb) {
                (true, true) => {
                    let (vi, vj) = (avs[i], bvs[j]);
                    let sub = if a.label(vi) == b.label(vj) { 0.0 } else { 1.0 };
                    sub + (a.degree(vi) as f64 - b.degree(vj) as f64).abs()
                }
                (true, false) => {
                    // Deletion of A vertex i, only on its own slot.
                    if j - nb == i {
                        1.0 + a.degree(avs[i]) as f64
                    } else {
                        big
                    }
                }
                (false, true) => {
                    // Insertion of B vertex j, only on its own slot.
                    if i - na == j {
                        1.0 + b.degree(bvs[j]) as f64
                    } else {
                        big
                    }
                }
                (false, false) => 0.0,
            };
        }
    }
    let (_, assign) = hungarian(&cost);
    let mapping: Vec<Option<VertexId>> = (0..na)
        .map(|i| {
            let j = assign[i];
            if j < nb {
                Some(bvs[j])
            } else {
                None
            }
        })
        .collect();
    (induced_edit_cost(a, b, &mapping), mapping)
}

/// `|x ∩ y|` for two bit rows of the same stride.
#[inline]
fn common(x: &[u64], y: &[u64]) -> usize {
    let n: u32 = x.iter().zip(y).map(|(p, q)| (p & q).count_ones()).sum();
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// Toggle bit `i` of a bit row (sets a clear bit, clears a set one).
#[inline]
fn flip(row: &mut [u64], i: usize) {
    row[i / 64] ^= 1 << (i % 64);
}

/// Take one vertex of label `l` out of `count` (`on`) or put it back,
/// keeping `matched = Σ_l min(count[l], other[l])` in step.
fn shift(count: &mut [usize], other: &[usize], l: usize, on: bool, matched: &mut usize) {
    if on {
        *matched -= usize::from(count[l] <= other[l]);
        count[l] -= 1;
    } else {
        count[l] += 1;
        *matched += usize::from(count[l] <= other[l]);
    }
}

/// Depth-first branch-and-bound state. Vertex sets are bit rows, one bit
/// per vertex: `a_decided` has A's stride, every other row B's (`bs`).
struct GedSearch {
    abits: BitAdjacency,
    bbits: BitAdjacency,
    bs: usize,
    order: Vec<VertexId>,
    /// `a_edges_left[d]`: A edges with an endpoint at order position ≥ d.
    a_edges_left: Vec<usize>,
    /// Dense label id of each vertex over the union label alphabet.
    a_lid: Vec<usize>,
    b_lid: Vec<usize>,
    /// Per-label count of undecided A vertices / unused B vertices, and
    /// `matched = Σ_l min(rem_a[l], avail_b[l])` kept in step with them.
    rem_a: Vec<usize>,
    avail_b: Vec<usize>,
    matched: usize,
    /// Rows `2d` / `2d + 1`: the B vertices with the same / another label
    /// as `order[d]`, the two passes of its substitution branches.
    targets: Vec<u64>,
    /// Row `d`: the images of `order[d]`'s decided, mapped neighbours.
    img: Vec<u64>,
    mapping: Vec<Option<VertexId>>,
    a_decided: Vec<u64>,
    b_used: Vec<u64>,
    /// Unused B vertices, and B edges with an unused endpoint.
    b_left: usize,
    b_edges_left: usize,
    best: usize,
    meter: BudgetMeter,
}

impl GedSearch {
    /// Admissible heuristic on the remaining subproblem: label-multiset
    /// vertex bound + |remaining-edge-count| difference.
    fn heuristic(&self, depth: usize) -> usize {
        let ra = self.order.len() - depth;
        let ea = self.a_edges_left[depth];
        ra.max(self.b_left) - self.matched + ea.abs_diff(self.b_edges_left)
    }

    fn decide_a(&mut self, v: VertexId, on: bool) {
        flip(&mut self.a_decided, v.index());
        let l = self.a_lid[v.index()];
        shift(&mut self.rem_a, &self.avail_b, l, on, &mut self.matched);
    }

    /// Use (`on`) or release B vertex `t`, which has `used_nb` used
    /// neighbours.
    fn use_b(&mut self, t: VertexId, used_nb: usize, on: bool) {
        flip(&mut self.b_used, t.index());
        let l = self.b_lid[t.index()];
        shift(&mut self.avail_b, &self.rem_a, l, on, &mut self.matched);
        if on {
            self.b_left -= 1;
            self.b_edges_left -= used_nb;
        } else {
            self.b_left += 1;
            self.b_edges_left += used_nb;
        }
    }

    /// Expand the node deciding `order[depth]`, `g` edits into the path.
    fn descend(&mut self, depth: usize, g: usize) {
        if self.meter.tick() {
            return;
        }
        if g + self.heuristic(depth) >= self.best {
            return;
        }
        if depth == self.order.len() {
            // Unused B vertices and their incident edges are insertions.
            let total = g + self.b_left + self.b_edges_left;
            if total < self.best {
                self.best = total;
                self.meter.note_improvement();
            }
            return;
        }
        let (v, bs) = (self.order[depth], self.bs);
        // v's decided neighbours: `dn` of them, mapped ones onto `img`.
        let dn = common(self.abits.row(v), &self.a_decided);
        let img = &mut self.img[depth * bs..(depth + 1) * bs];
        img.fill(0);
        let mut base = 0u32;
        for (&nv, &dec) in self.abits.row(v).iter().zip(&self.a_decided) {
            let mut bits = nv & dec;
            while bits != 0 {
                if let Some(x) = self.mapping[VertexId(base + bits.trailing_zeros()).index()] {
                    flip(img, x.index());
                }
                bits &= bits - 1;
            }
            base += 64;
        }
        self.decide_a(v, true);
        // Substitution branches: same-label targets first, each pass in
        // ascending id. Children restore `b_used`, so each word read
        // here is the set of targets unused on entry.
        for pass in 0..2 {
            let mut base = 0u32;
            for wi in 0..bs {
                let mut bits = self.targets[(2 * depth + pass) * bs + wi] & !self.b_used[wi];
                while bits != 0 {
                    let t = VertexId(base + bits.trailing_zeros());
                    bits &= bits - 1;
                    // m of v's dn decided neighbours map onto neighbours of
                    // t; the other dn − m edges are deleted, and the
                    // used_nb − m edges from t to used vertices that no
                    // A edge maps onto are inserted.
                    let nt = self.bbits.row(t);
                    let m = common(nt, &self.img[depth * bs..(depth + 1) * bs]);
                    let used_nb = common(nt, &self.b_used);
                    let dc = pass + (dn - m) + (used_nb - m);
                    if g + dc >= self.best {
                        continue;
                    }
                    self.mapping[v.index()] = Some(t);
                    self.use_b(t, used_nb, true);
                    self.descend(depth + 1, g + dc);
                    self.use_b(t, used_nb, false);
                    self.mapping[v.index()] = None;
                    if self.meter.tripped() {
                        self.decide_a(v, false);
                        return;
                    }
                }
                base += 64;
            }
        }
        // Deletion branch: v and its edges to decided vertices go.
        self.descend(depth + 1, g + 1 + dn);
        self.decide_a(v, false);
    }
}

/// Exact GED with branch-and-bound (seeded by [`ged_upper_bound`]),
/// subject to a [`SearchBudget`] (a plain `u64` converts to a node cap).
///
/// On a tripped limit the returned distance is the best-known **upper
/// bound** — the Riesen–Bunke seed or a cheaper complete edit path found
/// before the trip — and [`GedResult::completeness`] names the limit; it is
/// never an underestimate. With [`Completeness::Exact`] the value is the
/// true GED.
pub fn ged_with_budget(a: &Graph, b: &Graph, budget: impl Into<SearchBudget>) -> GedResult {
    let lb = ged_lower_bound(a, b);
    let ub = ged_upper_bound(a, b);
    if lb == ub {
        // Bounds meet: the distance is proven without any search (and
        // without consuming a kernel invocation).
        return GedResult {
            distance: ub,
            completeness: Completeness::Exact,
        };
    }
    let mut order: Vec<VertexId> = a.vertices().collect();
    order.sort_by_key(|&v| std::cmp::Reverse(a.degree(v)));
    let mut pos = vec![usize::MAX; a.vertex_count()];
    for (i, &v) in order.iter().enumerate() {
        pos[v.index()] = i;
    }
    let mut a_edges_left = vec![0usize; order.len() + 1];
    for (_, e) in a.edges() {
        a_edges_left[pos[e.u.index()].max(pos[e.v.index()])] += 1;
    }
    for d in (0..order.len()).rev() {
        a_edges_left[d] += a_edges_left[d + 1];
    }
    // Dense label ids over the union alphabet, with per-side counts.
    let mut label_ids = std::collections::HashMap::new();
    let mut lid = |l: &Label| {
        let next = label_ids.len();
        *label_ids.entry(*l).or_insert(next)
    };
    let a_lid: Vec<usize> = a.labels().iter().map(&mut lid).collect();
    let b_lid: Vec<usize> = b.labels().iter().map(&mut lid).collect();
    let mut rem_a = vec![0; label_ids.len()];
    let mut avail_b = vec![0; label_ids.len()];
    a_lid.iter().for_each(|&l| rem_a[l] += 1);
    b_lid.iter().for_each(|&l| avail_b[l] += 1);
    let bs = b.vertex_count().div_ceil(64);
    let mut targets = vec![0; 2 * order.len() * bs];
    for (d, v) in order.iter().enumerate() {
        for (t, &l) in b_lid.iter().enumerate() {
            let pass = usize::from(l != a_lid[v.index()]);
            flip(&mut targets[(2 * d + pass) * bs..], t);
        }
    }
    let mut s = GedSearch {
        abits: BitAdjacency::new(a),
        bbits: BitAdjacency::new(b),
        bs,
        img: vec![0; order.len() * bs],
        order,
        a_edges_left,
        a_lid,
        b_lid,
        matched: rem_a.iter().zip(&avail_b).map(|(x, y)| *x.min(y)).sum(),
        rem_a,
        avail_b,
        targets,
        mapping: vec![None; a.vertex_count()],
        a_decided: vec![0; a.vertex_count().div_ceil(64)],
        b_used: vec![0; bs],
        b_left: b.vertex_count(),
        b_edges_left: b.edge_count(),
        best: ub + 1, // allow rediscovering ub exactly
        meter: BudgetMeter::new(&budget.into(), Kernel::Ged),
    };
    s.descend(0, 0);
    // `s.best` only holds completed edit paths (or the ub+1 seed), so the
    // min with `ub` is always a realized upper bound — valid even when the
    // search was cut short.
    let distance = s.best.min(ub);
    GedResult {
        distance,
        completeness: s.meter.status(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn path(n: usize) -> Graph {
        let labels = vec![l(0); n];
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_parts(&labels, &edges)
    }

    fn cycle(n: usize) -> Graph {
        let labels = vec![l(0); n];
        let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        edges.push((n as u32 - 1, 0));
        Graph::from_parts(&labels, &edges)
    }

    #[test]
    fn identical_graphs_distance_zero() {
        let g = cycle(5);
        let r = ged_with_budget(&g, &g, 100_000u64);
        assert!(r.is_exact());
        assert_eq!(r.distance, 0);
        assert_eq!(ged_lower_bound(&g, &g), 0);
        assert_eq!(ged_upper_bound(&g, &g), 0);
    }

    #[test]
    fn path_to_cycle_one_edge() {
        // path of n → cycle of n: insert one edge.
        let p = path(5);
        let c = cycle(5);
        let r = ged_with_budget(&p, &c, 100_000u64);
        assert!(r.is_exact());
        assert_eq!(r.distance, 1);
    }

    #[test]
    fn relabel_one_vertex() {
        let a = Graph::from_parts(&[l(0), l(0), l(0)], &[(0, 1), (1, 2)]);
        let b = Graph::from_parts(&[l(0), l(1), l(0)], &[(0, 1), (1, 2)]);
        let r = ged_with_budget(&a, &b, 100_000u64);
        assert!(r.is_exact());
        assert_eq!(r.distance, 1);
    }

    #[test]
    fn lower_bound_is_a_lower_bound() {
        let cases = [
            (path(3), cycle(3)),
            (path(4), cycle(6)),
            (cycle(4), cycle(5)),
            (
                Graph::from_parts(&[l(0), l(1), l(2)], &[(0, 1), (1, 2)]),
                Graph::from_parts(&[l(3), l(4)], &[(0, 1)]),
            ),
        ];
        for (a, b) in &cases {
            let lb = ged_lower_bound(a, b);
            let exact = ged_with_budget(a, b, 100_000u64);
            let ub = ged_upper_bound(a, b);
            assert!(exact.is_exact());
            assert!(lb <= exact.distance, "lb={lb} d={}", exact.distance);
            assert!(exact.distance <= ub, "d={} ub={ub}", exact.distance);
        }
    }

    #[test]
    fn symmetry() {
        let a = path(4);
        let b = cycle(5);
        let d1 = ged_with_budget(&a, &b, 100_000u64);
        let d2 = ged_with_budget(&b, &a, 100_000u64);
        assert!(d1.is_exact() && d2.is_exact());
        assert_eq!(d1.distance, d2.distance);
    }

    #[test]
    fn deletion_and_insertion() {
        // path(3) → path(2): delete one vertex + one edge = 2.
        let r = ged_with_budget(&path(3), &path(2), 100_000u64);
        assert!(r.is_exact());
        assert_eq!(r.distance, 2);
    }

    #[test]
    fn tiny_budget_returns_flagged_upper_bound() {
        // Cycle(6) vs two disjoint triangles: equal sizes and labels give
        // lb = 0 < ub, so the search runs; a 1-node budget trips
        // immediately and the Riesen–Bunke seed is returned, flagged as a
        // bound.
        let a = cycle(6);
        let b = Graph::from_parts(
            &[l(0); 6],
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        );
        let lb = ged_lower_bound(&a, &b);
        let ub = ged_upper_bound(&a, &b);
        assert!(
            lb < ub,
            "test premise: bounds must not meet (lb={lb} ub={ub})"
        );
        let r = ged_with_budget(&a, &b, 1u64);
        assert_eq!(r.completeness, Completeness::BudgetExhausted);
        assert!(!r.is_exact());
        // The degraded distance is a valid, non-trivial upper bound.
        let exact = ged_with_budget(&a, &b, 5_000_000u64);
        assert!(exact.is_exact());
        assert!(r.distance >= exact.distance);
        assert!(r.distance <= ub);
    }

    #[test]
    fn generous_budget_matches_unbudgeted_answer() {
        let a = path(5);
        let b = cycle(6);
        let capped = ged_with_budget(&a, &b, 100_000u64);
        let generous = ged_with_budget(&a, &b, 100_000_000u64);
        assert!(capped.is_exact() && generous.is_exact());
        assert_eq!(capped.distance, generous.distance);
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded() {
        use crate::budget::Deadline;
        let a = cycle(6);
        let b = Graph::from_parts(
            &[l(0); 6],
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        );
        let r = ged_with_budget(
            &a,
            &b,
            SearchBudget::unbounded().with_deadline(Deadline::at(std::time::Instant::now())),
        );
        assert_eq!(r.completeness, Completeness::DeadlineExceeded);
        assert!(r.distance >= ged_lower_bound(&a, &b));
    }

    #[test]
    fn meeting_bounds_are_exact_under_zero_budget() {
        // Identical graphs: lb == ub == 0, proven without search.
        let g = cycle(5);
        let r = ged_with_budget(&g, &g, 0u64);
        assert!(r.is_exact());
        assert_eq!(r.distance, 0);
    }

    #[test]
    fn induced_cost_of_identity() {
        let g = cycle(4);
        let mapping: Vec<Option<VertexId>> = g.vertices().map(Some).collect();
        assert_eq!(induced_edit_cost(&g, &g, &mapping), 0);
    }

    #[test]
    fn empty_graphs() {
        let e = Graph::new();
        let r = ged_with_budget(&e, &e, 100_000u64);
        assert_eq!(r.distance, 0);
        let one = path(2);
        let r2 = ged_with_budget(&e, &one, 100_000u64);
        assert_eq!(r2.distance, 3); // 2 vertices + 1 edge inserted
    }

    #[test]
    fn wide_pair_is_searched_over_multi_word_rows() {
        // 66 uniquely labeled vertices: every bit row spans two words.
        // B moves one path edge to join the two ends, so lb = 0 < GED = 2
        // (any single edit changes the label multiset or the edge count).
        let labels: Vec<Label> = (0..66).map(l).collect();
        let path_edges: Vec<(u32, u32)> = (0..65).map(|i| (i, i + 1)).collect();
        let mut moved = path_edges.clone();
        moved.retain(|&e| e != (30, 31));
        moved.push((0, 65));
        let a = Graph::from_parts(&labels, &path_edges);
        let b = Graph::from_parts(&labels, &moved);
        assert_eq!((ged_lower_bound(&a, &b), ged_upper_bound(&a, &b)), (0, 2));
        // The search proves the seed optimal within the 200-node cap; an
        // undercounted edge cost anywhere in the wide rows would show up
        // as a distance below 2.
        let r = ged_with_budget(&a, &b, 200u64);
        assert!(r.is_exact());
        assert_eq!(r.distance, 2);
        let cut = ged_with_budget(&a, &b, 50u64);
        assert_eq!(cut.completeness, Completeness::BudgetExhausted);
        assert_eq!(cut.distance, 2);
    }
}
