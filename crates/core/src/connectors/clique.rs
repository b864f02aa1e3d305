//! Clique connectors (§2).
//!
//! Given a graph `G` with a consistent clique identification `Q` and a
//! parameter `t > 1`, each clique's master partitions the clique's vertex
//! set into groups of size ≤ t (deterministically, in ascending vertex
//! order — any fixed rule works and each clique has diameter 1, so this is
//! O(1) rounds). The connector `G′ = (V, E′)` keeps exactly the edges
//! joining two vertices of the same group of the same clique.
//!
//! **Lemma 2.1**: Δ(G′) ≤ D·(t − 1) — verified by
//! [`CliqueConnector::verify_degree_bound`] and the test suite.

use decolor_graph::cliques::CliqueCover;
use decolor_graph::subgraph::VertexSubsetView;
use decolor_graph::{Graph, GraphBuilder, GraphError, VertexId};

use crate::error::AlgoError;

/// A clique connector: the graph `G′` and the group size that produced
/// it.
#[derive(Clone, Debug)]
pub struct CliqueConnector {
    /// The connector graph `G′` (same vertex set as the source).
    pub graph: Graph,
    /// The group-size parameter.
    pub t: usize,
}

/// The master's grouping of one clique: its members in ascending order,
/// cut into groups of `t` (only the last may be smaller). `sorted` is
/// scratch space the groups borrow from.
///
/// # Panics
///
/// Panics if `t` is 0.
pub fn clique_groups<'s>(
    clique: &[VertexId],
    t: usize,
    sorted: &'s mut Vec<VertexId>,
) -> std::slice::Chunks<'s, VertexId> {
    sorted.clear();
    sorted.extend_from_slice(clique);
    sorted.sort_unstable();
    sorted.chunks(t)
}

/// Builds the clique connector of `g` under `cover` with parameter `t`.
///
/// This is a purely local construction: each clique master sees the whole
/// clique (diameter 1), so the paper charges O(1) rounds; callers charge
/// the round via `Network::charge_local_rounds`.
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] if `t < 2` or the cover's shape does
/// not match `g`.
pub fn clique_connector(
    g: &Graph,
    cover: &CliqueCover,
    t: usize,
) -> Result<CliqueConnector, AlgoError> {
    clique_connector_for(g.num_vertices(), cover, t)
}

/// [`clique_connector`] from the cover alone: the connector's edges are
/// derived entirely from the clique groups (each clique has diameter 1 in
/// the source graph), so only the vertex count of the underlying
/// (sub)graph is needed. This is what lets the Theorem 2.4 recursion run
/// over borrowed vertex-subset views without materializing induced
/// subgraphs.
///
/// Edges come out in the order their pair first appears, group by group
/// ([`clique_groups`]), cliques in order. A pair in groups of several
/// cliques is kept once: each vertex records the higher endpoints of its
/// connector edges so far, at most D(t − 1) of them (Lemma 2.1), and a
/// new pair is checked against that short run.
///
/// # Errors
///
/// As [`clique_connector`].
pub fn clique_connector_for(
    num_vertices: usize,
    cover: &CliqueCover,
    t: usize,
) -> Result<CliqueConnector, AlgoError> {
    if t < 2 {
        return Err(AlgoError::InvalidParameters {
            reason: format!("connector parameter t = {t} must be at least 2"),
        });
    }
    let mut sorted = Vec::new();
    // Room for the higher partners each vertex can gain: the i-th member
    // of a group of len L has L − i − 1 of them.
    let mut upper_start = vec![0usize; num_vertices + 1];
    for q in 0..cover.num_cliques() {
        for group in clique_groups(cover.clique(q), t, &mut sorted) {
            if group.len() < 2 {
                continue;
            }
            for (i, &u) in group.iter().enumerate() {
                let Some(room) = upper_start.get_mut(u.index() + 1) else {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: u.index(),
                        n: num_vertices,
                    }
                    .into());
                };
                *room += group.len() - i - 1;
            }
        }
    }
    for v in 0..num_vertices {
        upper_start[v + 1] += upper_start[v];
    }
    let mut upper = vec![VertexId::new(0); upper_start[num_vertices]];
    let mut upper_end = upper_start[..num_vertices].to_vec();
    let mut b = GraphBuilder::new_multi(num_vertices).with_edge_capacity(upper.len());
    for q in 0..cover.num_cliques() {
        for group in clique_groups(cover.clique(q), t, &mut sorted) {
            if group.len() < 2 {
                continue;
            }
            for (i, &u) in group.iter().enumerate() {
                let (start, end) = (upper_start[u.index()], &mut upper_end[u.index()]);
                for &v in &group[i + 1..] {
                    if !upper[start..*end].contains(&v) {
                        upper[*end] = v;
                        *end += 1;
                        b.add_edge(u.index(), v.index())?;
                    }
                }
            }
        }
    }
    Ok(CliqueConnector {
        graph: b.build(),
        t,
    })
}

/// [`clique_connector`] over a borrowed
/// [`VertexSubsetView`] — the view-generic topology entry the CD-Coloring
/// recursion uses, so the connector of a color class is built straight
/// from the class's subset view and its restricted cover without ever
/// materializing the induced subgraph. `local_cover` must be the root
/// cover restricted to the view
/// ([`CliqueCover::restrict_to_subset`]); restriction composes, so the
/// result is identical to materializing the class as `sub` and calling
/// [`clique_connector`] with `cover.restrict(&sub)`.
///
/// # Errors
///
/// As [`clique_connector`].
pub fn clique_connector_on<P: decolor_graph::subgraph::GraphView>(
    view: &VertexSubsetView<'_, P>,
    local_cover: &CliqueCover,
    t: usize,
) -> Result<CliqueConnector, AlgoError> {
    clique_connector_for(view.num_vertices(), local_cover, t)
}

impl CliqueConnector {
    /// Checks **Lemma 2.1**: Δ(G′) ≤ D·(t − 1).
    ///
    /// # Errors
    ///
    /// [`AlgoError::InvariantViolated`] naming the violating vertex.
    pub fn verify_degree_bound(&self, diversity: usize) -> Result<(), AlgoError> {
        let bound = diversity * (self.t - 1);
        for v in self.graph.vertices() {
            if self.graph.degree(v) > bound {
                return Err(AlgoError::InvariantViolated {
                    reason: format!(
                        "connector degree {} of {v} exceeds D(t−1) = {bound}",
                        self.graph.degree(v)
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::cliques::cover_from_all_maximal_cliques;
    use decolor_graph::line_graph::LineGraph;
    use decolor_graph::{builder_from_edges, generators};

    fn ids(raw: &[usize]) -> Vec<VertexId> {
        raw.iter().map(|&v| VertexId::new(v)).collect()
    }

    #[test]
    fn figure1_instance_two_cliques_sharing_a_vertex() {
        // Figure 1 of the paper: two cliques Q, R sharing a vertex, t = 4.
        // Build K7 ∪ K7 sharing vertex 0 (clique size 7 each).
        let mut b = GraphBuilder::new(13);
        let q: Vec<usize> = (0..7).collect();
        let r: Vec<usize> = std::iter::once(0).chain(7..13).collect();
        for set in [&q, &r] {
            for i in 0..set.len() {
                for j in (i + 1)..set.len() {
                    let _ = b.add_edge_dedup(set[i], set[j]).unwrap();
                }
            }
        }
        let g = b.build();
        let cover = CliqueCover::new(&g, vec![ids(&q), ids(&r)]).unwrap();
        assert_eq!(cover.diversity(), 2);
        let conn = clique_connector(&g, &cover, 4).unwrap();
        conn.verify_degree_bound(2).unwrap();
        // Each clique of 7 splits into groups of 4 and 3:
        // C(4,2) + C(3,2) = 6 + 3 = 9 edges per clique, shared vertex in
        // both first groups, no duplicated edges between cliques.
        assert_eq!(conn.graph.num_edges(), 18);
        let mut sorted = Vec::new();
        let sizes: Vec<usize> = clique_groups(cover.clique(0), 4, &mut sorted)
            .map(<[VertexId]>::len)
            .collect();
        assert_eq!(sizes, [4, 3]);
    }

    #[test]
    fn connector_edges_are_subset_of_source_edges() {
        let g = generators::gnm(40, 150, 3).unwrap();
        let cover = cover_from_all_maximal_cliques(&g).unwrap();
        let conn = clique_connector(&g, &cover, 2).unwrap();
        for (_, [u, v]) in conn.graph.edge_list() {
            assert!(g.has_edge(u, v), "connector invented edge ({u},{v})");
        }
    }

    #[test]
    fn lemma_2_1_on_line_graphs() {
        for (seed, t) in [(1u64, 2usize), (2, 3), (3, 5), (4, 8)] {
            let g = generators::gnm(60, 240, seed).unwrap();
            let lg = LineGraph::new(&g);
            let d = lg.cover.diversity();
            let conn = clique_connector(&lg.graph, &lg.cover, t).unwrap();
            conn.verify_degree_bound(d).unwrap();
        }
    }

    #[test]
    fn group_sizes_respect_t() {
        let g = generators::complete(11).unwrap();
        let cover = cover_from_all_maximal_cliques(&g).unwrap();
        let conn = clique_connector(&g, &cover, 3).unwrap();
        let mut sorted = Vec::new();
        for q in 0..cover.num_cliques() {
            let groups: Vec<&[VertexId]> = clique_groups(cover.clique(q), 3, &mut sorted).collect();
            for (i, grp) in groups.iter().enumerate() {
                assert!(grp.len() <= 3);
                assert!(grp.windows(2).all(|w| w[0] < w[1]), "groups are ascending");
                if i + 1 < groups.len() {
                    assert_eq!(grp.len(), 3, "only the last group may be short");
                }
            }
        }
        // K11 with t=3: groups 3/3/3/2 -> 3·C(3,2) + C(2,2)... = 3·3 + 1 = 10 edges.
        assert_eq!(conn.graph.num_edges(), 10);
    }

    #[test]
    fn t_equal_to_clique_size_keeps_clique_intact() {
        let g = generators::complete(5).unwrap();
        let cover = cover_from_all_maximal_cliques(&g).unwrap();
        let conn = clique_connector(&g, &cover, 5).unwrap();
        assert_eq!(conn.graph.num_edges(), g.num_edges());
    }

    #[test]
    fn rejects_t_below_two() {
        let g = builder_from_edges(2, &[(0, 1)]).unwrap();
        let cover = cover_from_all_maximal_cliques(&g).unwrap();
        assert!(clique_connector(&g, &cover, 1).is_err());
    }

    #[test]
    fn cover_vertices_beyond_the_graph_are_rejected() {
        let cover = CliqueCover::new_unchecked(4, vec![ids(&[0, 1]), ids(&[3])]).unwrap();
        // Vertex 3 sits alone in its group, so it joins no pair.
        assert_eq!(
            clique_connector_for(3, &cover, 2)
                .unwrap()
                .graph
                .num_edges(),
            1
        );
        let cover = CliqueCover::new_unchecked(4, vec![ids(&[0, 1]), ids(&[2, 3])]).unwrap();
        assert!(clique_connector_for(3, &cover, 2).is_err());
    }

    #[test]
    fn shared_pairs_are_deduplicated() {
        // Two cliques {0,1,2} and {0,1,3}: pair (0,1) appears in both.
        let g = builder_from_edges(4, &[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]).unwrap();
        let cover = CliqueCover::new(&g, vec![ids(&[0, 1, 2]), ids(&[0, 1, 3])]).unwrap();
        let conn = clique_connector(&g, &cover, 3).unwrap();
        assert!(!conn.graph.has_parallel_edges());
    }
}
