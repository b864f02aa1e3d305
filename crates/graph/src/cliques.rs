//! Clique covers, the paper's *diversity* measure, and maximal-clique
//! machinery.
//!
//! Section 1.2 of the paper defines the **diversity** `D(G)` as the maximal
//! number of *identified* maximal cliques that any vertex belongs to, under
//! a *consistent clique identification* — a set of cliques such that, for
//! every vertex, the union of its cliques contains all its neighbors
//! (footnote 3). Line graphs come with a canonical identification (one
//! clique per original vertex, diversity ≤ 2); for arbitrary graphs we also
//! provide Bron–Kerbosch enumeration of all maximal cliques, which yields a
//! consistent identification for verification at small scale.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::VertexId;

/// Identifier of a clique inside a [`CliqueCover`].
pub type CliqueId = usize;

/// A consistent clique identification of a graph.
///
/// Stores the vertex list of every identified clique and, per vertex, the
/// list of cliques it belongs to, each as one flat CSR array pair.
/// Validity ([`CliqueCover::validate`]) requires each clique to induce a
/// complete subgraph and every edge to be inside at least one clique
/// (this is exactly "the cliques that a vertex belongs to contain all its
/// neighbors").
///
/// ```rust
/// use decolor_graph::{builder_from_edges, cliques::CliqueCover, VertexId};
/// // Two triangles sharing vertex 2 (a "bowtie").
/// let g = builder_from_edges(5, &[(0,1),(0,2),(1,2),(2,3),(2,4),(3,4)]).unwrap();
/// let cover = CliqueCover::new(&g, vec![vec![0,1,2], vec![2,3,4]]
///     .into_iter()
///     .map(|c| c.into_iter().map(VertexId::new).collect())
///     .collect())
///     .unwrap();
/// assert_eq!(cover.diversity(), 2); // vertex 2 is in both cliques
/// assert_eq!(cover.max_clique_size(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct CliqueCover {
    /// Clique `q` is `members[clique_start[q]..clique_start[q + 1]]`.
    clique_start: Vec<usize>,
    members: Vec<VertexId>,
    /// The cliques of vertex `v`, ascending, are
    /// `clique_ids[member_start[v]..member_start[v + 1]]`.
    member_start: Vec<usize>,
    clique_ids: Vec<CliqueId>,
}

impl CliqueCover {
    /// Builds and validates a cover from explicit clique vertex lists.
    ///
    /// Empty cliques are rejected; singleton cliques are permitted (they
    /// cover isolated vertices).
    ///
    /// # Errors
    ///
    /// [`GraphError::ValidationFailed`] if a clique is not complete in `g`,
    /// an edge of `g` is covered by no clique, or a clique repeats a vertex.
    pub fn new(g: &Graph, cliques: Vec<Vec<VertexId>>) -> Result<Self, GraphError> {
        let cover = Self::new_unchecked(g.num_vertices(), cliques)?;
        cover.validate(g)?;
        Ok(cover)
    }

    /// Builds a cover without the completeness/coverage checks (still
    /// rejects empty cliques, out-of-range or repeated vertices).
    ///
    /// Useful when the construction guarantees validity (e.g. line graphs)
    /// and the graph is large.
    ///
    /// # Errors
    ///
    /// [`GraphError::ValidationFailed`] on structurally malformed input.
    pub fn new_unchecked(n: usize, cliques: Vec<Vec<VertexId>>) -> Result<Self, GraphError> {
        let mut clique_start = Vec::with_capacity(cliques.len() + 1);
        clique_start.push(0);
        let mut members = Vec::with_capacity(cliques.iter().map(Vec::len).sum());
        for clique in cliques {
            members.extend(clique);
            clique_start.push(members.len());
        }
        Self::from_flat(n, clique_start, members)
    }

    /// [`CliqueCover::new_unchecked`] from the flat form: clique `q` is
    /// `members[clique_start[q]..clique_start[q + 1]]`, so `clique_start`
    /// has one more entry than there are cliques and starts at 0.
    ///
    /// # Errors
    ///
    /// [`GraphError::ValidationFailed`] if `clique_start` is not a
    /// nondecreasing run from 0 to `members.len()`, or a clique is empty,
    /// mentions a vertex `≥ n` or repeats a vertex.
    pub fn from_flat(
        n: usize,
        clique_start: Vec<usize>,
        members: Vec<VertexId>,
    ) -> Result<Self, GraphError> {
        if clique_start.first() != Some(&0)
            || clique_start.last() != Some(&members.len())
            || clique_start.windows(2).any(|w| w[1] < w[0])
        {
            return Err(GraphError::ValidationFailed {
                reason: format!(
                    "clique offsets must be a nondecreasing run from 0 to the {} members",
                    members.len()
                ),
            });
        }
        // `stamp[v]` is one past the last clique that mentioned v.
        let mut stamp = vec![0usize; n];
        for (qi, w) in clique_start.windows(2).enumerate() {
            if w[1] == w[0] {
                return Err(GraphError::ValidationFailed {
                    reason: format!("clique {qi} is empty"),
                });
            }
            for &v in &members[w[0]..w[1]] {
                let Some(seen) = stamp.get_mut(v.index()) else {
                    return Err(GraphError::ValidationFailed {
                        reason: format!("clique {qi} mentions out-of-range vertex {v}"),
                    });
                };
                if *seen == qi + 1 {
                    return Err(GraphError::ValidationFailed {
                        reason: format!("clique {qi} repeats a vertex"),
                    });
                }
                *seen = qi + 1;
            }
        }
        Ok(Self::assemble(n, clique_start, members))
    }

    /// Adds the per-vertex membership lists to a well-formed flat clique
    /// list: a counting sort over the cliques in order, so each vertex's
    /// cliques come out ascending.
    fn assemble(n: usize, clique_start: Vec<usize>, members: Vec<VertexId>) -> CliqueCover {
        let mut member_start = vec![0usize; n + 1];
        for &v in &members {
            member_start[v.index() + 1] += 1;
        }
        for v in 0..n {
            member_start[v + 1] += member_start[v];
        }
        let mut cursor = member_start[..n].to_vec();
        let mut clique_ids = vec![0; members.len()];
        for (q, w) in clique_start.windows(2).enumerate() {
            for &v in &members[w[0]..w[1]] {
                clique_ids[cursor[v.index()]] = q;
                cursor[v.index()] += 1;
            }
        }
        CliqueCover {
            clique_start,
            members,
            member_start,
            clique_ids,
        }
    }

    /// Checks that every clique is complete in `g` and every edge of `g`
    /// lies inside at least one clique.
    ///
    /// # Errors
    ///
    /// [`GraphError::ValidationFailed`] describing the first violation.
    pub fn validate(&self, g: &Graph) -> Result<(), GraphError> {
        if self.num_vertices() != g.num_vertices() {
            return Err(GraphError::ValidationFailed {
                reason: format!(
                    "cover built for {} vertices, graph has {}",
                    self.num_vertices(),
                    g.num_vertices()
                ),
            });
        }
        for qi in 0..self.num_cliques() {
            let clique = self.clique(qi);
            for (i, &u) in clique.iter().enumerate() {
                for &v in &clique[i + 1..] {
                    if !g.has_edge(u, v) {
                        return Err(GraphError::ValidationFailed {
                            reason: format!("clique {qi} contains non-adjacent {u}, {v}"),
                        });
                    }
                }
            }
        }
        // Edge coverage: each edge must appear inside some clique.
        for (e, [u, v]) in g.edge_list() {
            let covered = self
                .cliques_of(u)
                .iter()
                .any(|&qi| self.clique(qi).contains(&v));
            if !covered {
                return Err(GraphError::ValidationFailed {
                    reason: format!("edge {e} = ({u},{v}) not covered by any clique"),
                });
            }
        }
        Ok(())
    }

    /// Number of vertices the cover was built for.
    fn num_vertices(&self) -> usize {
        self.member_start.len() - 1
    }

    /// Number of identified cliques.
    pub fn num_cliques(&self) -> usize {
        self.clique_start.len() - 1
    }

    /// Vertices of clique `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn clique(&self, q: CliqueId) -> &[VertexId] {
        &self.members[self.clique_start[q]..self.clique_start[q + 1]]
    }

    /// Cliques containing vertex `v`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn cliques_of(&self, v: VertexId) -> &[CliqueId] {
        &self.clique_ids[self.member_start[v.index()]..self.member_start[v.index() + 1]]
    }

    /// The diversity `D`: maximal number of identified cliques any vertex
    /// belongs to (0 for the empty cover).
    pub fn diversity(&self) -> usize {
        self.member_start
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    /// The maximal clique size `S` (0 for the empty cover).
    pub fn max_clique_size(&self) -> usize {
        self.clique_start
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    /// The *clique master* of clique `q`: its highest-ID vertex, per §2.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range or empty (excluded by construction).
    pub fn master(&self, q: CliqueId) -> VertexId {
        *self
            .clique(q)
            .iter()
            .max()
            // lint: allow(panic, "cliques are nonempty by construction")
            .expect("cliques are nonempty by construction")
    }

    /// Keeps, clique by clique, the vertices `local` maps to a local id,
    /// and drops the cliques left empty: the cover of a vertex subset of
    /// size `n`. `local` must map distinct vertices to distinct ids below
    /// `n`, which keeps the result well-formed.
    fn restrict_with(&self, n: usize, local: impl Fn(VertexId) -> Option<VertexId>) -> CliqueCover {
        let mut clique_start = vec![0];
        let mut members = Vec::new();
        for q in 0..self.num_cliques() {
            members.extend(self.clique(q).iter().filter_map(|&v| local(v)));
            if members.len() > clique_start[clique_start.len() - 1] {
                clique_start.push(members.len());
            }
        }
        Self::assemble(n, clique_start, members)
    }

    /// Restricts the cover to an induced subgraph: each clique is
    /// intersected with the subgraph's vertex set and re-indexed to local
    /// identifiers; empty intersections are dropped.
    ///
    /// This is how Algorithm 1 maintains consistent cliques through the
    /// recursion (each clique of `G_i` is a subset of a clique of `G`,
    /// Lemma 2.3).
    pub fn restrict(&self, sub: &crate::subgraph::InducedSubgraph) -> CliqueCover {
        self.restrict_with(sub.graph().num_vertices(), |v| sub.from_parent_vertex(v))
    }

    /// [`CliqueCover::restrict`] for a borrowed
    /// [`VertexSubsetView`](crate::subgraph::VertexSubsetView): identical
    /// output without materializing the induced subgraph (the view's local
    /// ids equal the subgraph's for ascending subsets). A view of every
    /// vertex is the identity, so its restriction is a copy.
    pub fn restrict_to_subset<P: crate::subgraph::GraphView>(
        &self,
        view: &crate::subgraph::VertexSubsetView<'_, P>,
    ) -> CliqueCover {
        let n = view.num_vertices();
        if n == self.num_vertices() && n == view.parent().num_vertices() {
            return self.clone();
        }
        self.restrict_with(n, |v| view.local_of(v))
    }

    /// The trivial cover of an edgeless-or-not graph by one clique per edge
    /// plus one singleton per isolated vertex. Diversity = Δ in the worst
    /// case — only useful as a fallback or in tests.
    pub fn per_edge(g: &Graph) -> CliqueCover {
        let mut cliques: Vec<Vec<VertexId>> = g.edge_list().map(|(_, [u, v])| vec![u, v]).collect();
        for v in g.vertices() {
            if g.degree(v) == 0 {
                cliques.push(vec![v]);
            }
        }
        CliqueCover::new_unchecked(g.num_vertices(), cliques)
            // lint: allow(panic, "per-edge cover is well-formed")
            .expect("per-edge cover is well-formed")
    }
}

/// Enumerates **all maximal cliques** of `g` via Bron–Kerbosch with
/// pivoting. Exponential in the worst case — intended for verification and
/// for building consistent identifications on small/medium graphs (the
/// paper notes each vertex can identify its maximal cliques in one round;
/// this is the centralized equivalent).
///
/// ```rust
/// use decolor_graph::{builder_from_edges, cliques::maximal_cliques};
/// let g = builder_from_edges(4, &[(0,1),(1,2),(2,0),(2,3)]).unwrap();
/// let mut cliques = maximal_cliques(&g);
/// cliques.sort();
/// assert_eq!(cliques.len(), 2); // {0,1,2} and {2,3}
/// ```
pub fn maximal_cliques(g: &Graph) -> Vec<Vec<VertexId>> {
    let n = g.num_vertices();
    // Sorted adjacency sets for O(log) membership tests.
    let adj: Vec<Vec<VertexId>> = (0..n)
        .map(|v| {
            let mut a: Vec<VertexId> = g.neighbors(VertexId::new(v)).collect();
            a.sort_unstable();
            a.dedup();
            a
        })
        .collect();
    let is_adj = |u: VertexId, v: VertexId| adj[u.index()].binary_search(&v).is_ok();

    let mut out = Vec::new();
    let mut r: Vec<VertexId> = Vec::new();
    let p: Vec<VertexId> = (0..n).map(VertexId::new).collect();
    let x: Vec<VertexId> = Vec::new();

    fn bk(
        r: &mut Vec<VertexId>,
        mut p: Vec<VertexId>,
        mut x: Vec<VertexId>,
        is_adj: &dyn Fn(VertexId, VertexId) -> bool,
        out: &mut Vec<Vec<VertexId>>,
    ) {
        if p.is_empty() && x.is_empty() {
            let mut clique = r.clone();
            clique.sort_unstable();
            out.push(clique);
            return;
        }
        // Pivot: vertex of P ∪ X with most neighbors in P.
        let pivot = p
            .iter()
            .chain(x.iter())
            .copied()
            .max_by_key(|&u| p.iter().filter(|&&w| is_adj(u, w)).count())
            // lint: allow(panic, "P ∪ X nonempty here")
            .expect("P ∪ X nonempty here");
        let candidates: Vec<VertexId> = p.iter().copied().filter(|&v| !is_adj(pivot, v)).collect();
        for v in candidates {
            r.push(v);
            let np: Vec<VertexId> = p.iter().copied().filter(|&w| is_adj(v, w)).collect();
            let nx: Vec<VertexId> = x.iter().copied().filter(|&w| is_adj(v, w)).collect();
            bk(r, np, nx, is_adj, out);
            r.pop();
            p.retain(|&w| w != v);
            x.push(v);
        }
    }

    bk(&mut r, p, x, &is_adj, &mut out);
    out
}

/// Builds a consistent identification from **all** maximal cliques
/// (footnote 3's fallback: "each vertex identifies all maximal cliques it
/// belongs to"). Adds singletons for isolated vertices so every vertex is
/// covered.
///
/// # Errors
///
/// Propagates [`GraphError::ValidationFailed`] (cannot happen for outputs
/// of [`maximal_cliques`], but the signature keeps the invariant explicit).
pub fn cover_from_all_maximal_cliques(g: &Graph) -> Result<CliqueCover, GraphError> {
    let mut cliques = maximal_cliques(g);
    cliques.retain(|c| !c.is_empty());
    CliqueCover::new_unchecked(g.num_vertices(), cliques)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder_from_edges;

    fn bowtie() -> Graph {
        builder_from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]).unwrap()
    }

    fn ids(raw: &[usize]) -> Vec<VertexId> {
        raw.iter().map(|&v| VertexId::new(v)).collect()
    }

    #[test]
    fn bowtie_cover_diversity() {
        let g = bowtie();
        let cover = CliqueCover::new(&g, vec![ids(&[0, 1, 2]), ids(&[2, 3, 4])]).unwrap();
        assert_eq!(cover.diversity(), 2);
        assert_eq!(cover.max_clique_size(), 3);
        assert_eq!(cover.cliques_of(VertexId::new(2)), &[0, 1]);
        assert_eq!(cover.master(0), VertexId::new(2));
        assert_eq!(cover.master(1), VertexId::new(4));
    }

    #[test]
    fn incomplete_clique_rejected() {
        let g = builder_from_edges(3, &[(0, 1)]).unwrap();
        assert!(CliqueCover::new(&g, vec![ids(&[0, 1, 2])]).is_err());
    }

    #[test]
    fn uncovered_edge_rejected() {
        let g = builder_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(CliqueCover::new(&g, vec![ids(&[0, 1])]).is_err());
    }

    #[test]
    fn empty_clique_rejected() {
        assert!(CliqueCover::new_unchecked(3, vec![vec![]]).is_err());
    }

    #[test]
    fn repeated_vertex_rejected() {
        assert!(CliqueCover::new_unchecked(3, vec![ids(&[1, 1])]).is_err());
    }

    #[test]
    fn out_of_range_vertex_rejected() {
        assert!(CliqueCover::new_unchecked(3, vec![ids(&[0, 1]), ids(&[2, 3])]).is_err());
    }

    #[test]
    fn flat_offsets_must_span_the_members() {
        let members = ids(&[0, 1, 2]);
        for bad in [
            vec![],
            vec![1, 3],
            vec![0, 2],
            vec![0, 2, 1, 3],
            vec![0, 4, 3],
        ] {
            assert!(
                CliqueCover::from_flat(3, bad.clone(), members.clone()).is_err(),
                "{bad:?}"
            );
        }
        let cover = CliqueCover::from_flat(3, vec![0, 2, 3], members).unwrap();
        assert_eq!(cover.clique(0), ids(&[0, 1]).as_slice());
        assert_eq!(cover.cliques_of(VertexId::new(2)), &[1]);
    }

    #[test]
    fn bron_kerbosch_on_bowtie() {
        let g = bowtie();
        let mut cliques = maximal_cliques(&g);
        cliques.sort();
        assert_eq!(cliques, vec![ids(&[0, 1, 2]), ids(&[2, 3, 4])]);
    }

    #[test]
    fn bron_kerbosch_on_complete_graph() {
        let g = crate::generators::complete(6).unwrap();
        let cliques = maximal_cliques(&g);
        assert_eq!(cliques.len(), 1);
        assert_eq!(cliques[0].len(), 6);
    }

    #[test]
    fn bron_kerbosch_on_triangle_free() {
        // C5 has exactly its 5 edges as maximal cliques.
        let g = crate::generators::cycle(5).unwrap();
        let cliques = maximal_cliques(&g);
        assert_eq!(cliques.len(), 5);
        assert!(cliques.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn cover_from_maximal_cliques_is_valid() {
        let g = bowtie();
        let cover = cover_from_all_maximal_cliques(&g).unwrap();
        cover.validate(&g).unwrap();
        assert_eq!(cover.diversity(), 2);
    }

    #[test]
    fn per_edge_cover_covers_everything() {
        let g = bowtie();
        let cover = CliqueCover::per_edge(&g);
        cover.validate(&g).unwrap();
        assert_eq!(cover.diversity(), 4); // vertex 2 has degree 4
    }

    #[test]
    fn restrict_cover_to_induced_subgraph() {
        let g = bowtie();
        let cover = CliqueCover::new(&g, vec![ids(&[0, 1, 2]), ids(&[2, 3, 4])]).unwrap();
        let sub = crate::subgraph::InducedSubgraph::new(&g, &ids(&[1, 2, 3]));
        let restricted = cover.restrict(&sub);
        restricted.validate(sub.graph()).unwrap();
        // Both cliques survive as {1,2} and {2,3} locally.
        assert_eq!(restricted.num_cliques(), 2);
        assert_eq!(restricted.max_clique_size(), 2);
        assert!(restricted.diversity() <= cover.diversity());
    }

    #[test]
    fn restrict_to_subset_matches_restrict() {
        let g = bowtie();
        let cover = CliqueCover::new(&g, vec![ids(&[0, 1, 2]), ids(&[2, 3, 4])]).unwrap();
        let cliques = |c: &CliqueCover| -> Vec<Vec<VertexId>> {
            (0..c.num_cliques()).map(|q| c.clique(q).to_vec()).collect()
        };
        for keep in [vec![0, 1, 2, 3, 4], vec![1, 2, 3], vec![0, 1], vec![3]] {
            let view = crate::subgraph::VertexSubsetView::new(&g, ids(&keep)).unwrap();
            let sub = crate::subgraph::InducedSubgraph::new(&g, &ids(&keep));
            let (a, b) = (cover.restrict_to_subset(&view), cover.restrict(&sub));
            assert_eq!(cliques(&a), cliques(&b), "{keep:?}");
            for v in sub.graph().vertices() {
                assert_eq!(a.cliques_of(v), b.cliques_of(v), "{keep:?}");
            }
            a.validate(sub.graph()).unwrap();
        }
    }

    #[test]
    fn isolated_vertices_get_singletons() {
        let mut b = crate::GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        let g = b.build();
        let cover = cover_from_all_maximal_cliques(&g).unwrap();
        cover.validate(&g).unwrap();
        assert!(cover.cliques_of(VertexId::new(2)).len() == 1);
    }
}
