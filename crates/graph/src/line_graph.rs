//! Line graphs of graphs, with the canonical clique identification.
//!
//! An edge coloring of `G` is exactly a vertex coloring of its line graph
//! `L(G)`; the paper's Table 1 follows from Table 2 through this reduction.
//! Under the canonical identification — one clique per vertex of `G`,
//! consisting of the edges incident on it — every line-graph vertex belongs
//! to exactly 2 cliques, so `D(L(G)) ≤ 2` (§1.2 and footnote 5).

use crate::builder::EdgeSink;
use crate::cliques::CliqueCover;
use crate::coloring::{EdgeColoring, VertexColoring};
use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::{EdgeId, VertexId};
use crate::subgraph::GraphView;

/// The line graph of a [`Graph`] with its canonical clique cover.
///
/// Line-graph vertex `i` corresponds to edge `EdgeId(i)` of the source
/// graph; [`LineGraph::source_edge`] / [`LineGraph::line_vertex`] convert.
///
/// ```rust
/// use decolor_graph::{builder_from_edges, line_graph::LineGraph};
/// let g = builder_from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
/// let lg = LineGraph::new(&g);
/// assert_eq!(lg.graph.num_vertices(), 3);
/// assert_eq!(lg.graph.num_edges(), 2); // e0-e1 share v1, e1-e2 share v2
/// assert!(lg.cover.diversity() <= 2);
/// ```
#[derive(Clone, Debug)]
pub struct LineGraph {
    /// The line graph L(G).
    pub graph: Graph,
    /// Canonical clique cover: one clique per source vertex of degree ≥ 1.
    /// Diversity ≤ 2, maximal clique size = Δ(G) (for Δ ≥ 2; 3 when G has
    /// a triangle and Δ = 2, cf. the paper's `max{Δ, 3}` remark — under
    /// the *canonical* identification cliques are per-vertex, so size is
    /// exactly Δ(G)).
    pub cover: CliqueCover,
}

impl LineGraph {
    /// Builds the line graph of `g` (which must be simple).
    ///
    /// # Panics
    ///
    /// Panics if `g` has parallel edges (line graphs of multigraphs need
    /// multi-cliques; none of the workloads produce them).
    pub fn new(g: &Graph) -> Self {
        assert!(
            !g.has_parallel_edges(),
            "line graph requires a simple source graph"
        );
        let m = g.num_edges();
        let mut b =
            crate::builder::GraphBuilder::new(m).with_edge_capacity(g.line_graph_edge_count());
        for v in g.vertices() {
            let inc: Vec<EdgeId> = g.incident_edges(v).collect();
            for (i, &e1) in inc.iter().enumerate() {
                for &e2 in &inc[i + 1..] {
                    // Distinct simple-graph edges share at most one vertex,
                    // so each line edge is added exactly once.
                    b.add_edge(e1.index(), e2.index())
                        // lint: allow(panic, "line edges are unique for simple graphs")
                        .expect("line edges are unique for simple graphs");
                }
            }
        }
        let graph = b.build();
        let cover =
            // lint: allow(panic, "canonical line cover is well-formed")
            line_graph_cover(g).expect("canonical line cover is well-formed");
        LineGraph { graph, cover }
    }

    /// [`LineGraph::new`] for any [`GraphView`] topology — in particular
    /// an out-of-core [`ShardedCsr`](crate::storage::ShardedCsr) — built
    /// through the same [`line_graph_stream`] the spilled construction
    /// uses, so the in-RAM graph is bit-identical to [`LineGraph::new`]'s
    /// (same edge sequence; the sharded CSR build is pinned identical to
    /// the sequential one).
    ///
    /// # Errors
    ///
    /// [`GraphError::ValidationFailed`] if `g` has parallel edges.
    pub fn from_view<G: GraphView>(g: &G) -> Result<Self, GraphError> {
        if g.has_parallel_edges() {
            return Err(GraphError::ValidationFailed {
                reason: "line graph requires a simple source graph".into(),
            });
        }
        let m = g.num_edges();
        // Line edges are unique for simple sources, so the multigraph
        // builder can skip the per-edge dedup hashing.
        let mut b = crate::builder::GraphBuilder::new_multi(m)
            .with_edge_capacity(line_graph_edge_count_on(g));
        line_graph_stream(g, &mut b)?;
        let graph = b.build_parallel();
        let cover = line_graph_cover(g)?;
        Ok(LineGraph { graph, cover })
    }

    /// The source edge corresponding to line-graph vertex `v`.
    #[inline]
    pub fn source_edge(&self, v: VertexId) -> EdgeId {
        EdgeId::new(v.index())
    }

    /// The line-graph vertex corresponding to source edge `e`.
    #[inline]
    pub fn line_vertex(&self, e: EdgeId) -> VertexId {
        VertexId::new(e.index())
    }

    /// Converts a proper vertex coloring of the line graph into the
    /// corresponding edge coloring of the source graph.
    ///
    /// # Errors
    ///
    /// [`GraphError::ValidationFailed`] if the coloring length mismatches.
    pub fn to_edge_coloring(&self, c: &VertexColoring) -> Result<EdgeColoring, GraphError> {
        if c.len() != self.graph.num_vertices() {
            return Err(GraphError::ValidationFailed {
                reason: format!(
                    "line coloring has {} entries for {} line vertices",
                    c.len(),
                    self.graph.num_vertices()
                ),
            });
        }
        EdgeColoring::new(c.as_slice().to_vec(), c.palette())
    }
}

/// Number of line-graph edges of any [`GraphView`]: Σ_v C(deg(v), 2).
/// The view-generic counterpart of [`Graph::line_graph_edge_count`].
pub fn line_graph_edge_count_on<G: GraphView>(g: &G) -> usize {
    (0..g.num_vertices())
        .map(|v| {
            let d = g.degree(VertexId::new(v));
            d * d.saturating_sub(1) / 2
        })
        .sum()
}

/// Streams the line-graph edge sequence of `g` into any [`EdgeSink`] —
/// a [`GraphBuilder`](crate::GraphBuilder) for the in-RAM build or a
/// [`ShardedCsrBuilder`](crate::storage::ShardedCsrBuilder) for the
/// out-of-core one — in exactly [`LineGraph::new`]'s order (vertices
/// ascending, incident-edge pairs in port order), so both backends build
/// byte-identical structures. The sink must be sized for `g.num_edges()`
/// vertices. The caller is responsible for `g` being simple.
///
/// # Errors
///
/// Propagates sink validation or I/O errors.
pub fn line_graph_stream<G: GraphView, S: EdgeSink>(g: &G, sink: &mut S) -> Result<(), GraphError> {
    let mut inc: Vec<EdgeId> = Vec::new();
    for v in (0..g.num_vertices()).map(VertexId::new) {
        inc.clear();
        g.for_each_incident_edge(v, |e| inc.push(e));
        for (i, &e1) in inc.iter().enumerate() {
            for &e2 in &inc[i + 1..] {
                // Distinct simple-graph edges share at most one vertex,
                // so each line edge is streamed exactly once.
                sink.add_edge(e1.index(), e2.index())?;
            }
        }
    }
    Ok(())
}

/// The canonical clique cover of the line graph of `g`: one clique per
/// source vertex of degree ≥ 1 (diversity ≤ 2), computed straight off the
/// view without materializing L(g). O(2m) ids — proportional to the
/// *source*, not the line graph.
///
/// # Errors
///
/// [`GraphError::ValidationFailed`] if the cover shape is malformed
/// (unreachable for well-formed views).
pub fn line_graph_cover<G: GraphView>(g: &G) -> Result<CliqueCover, GraphError> {
    let mut clique_start = vec![0];
    let mut members = Vec::with_capacity(2 * g.num_edges());
    for v in (0..g.num_vertices()).map(VertexId::new) {
        g.for_each_incident_edge(v, |e| members.push(VertexId::new(e.index())));
        if members.len() > clique_start[clique_start.len() - 1] {
            clique_start.push(members.len());
        }
    }
    CliqueCover::from_flat(g.num_edges(), clique_start, members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{builder_from_edges, generators};

    #[test]
    fn line_graph_of_triangle_is_triangle() {
        let g = builder_from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let lg = LineGraph::new(&g);
        assert_eq!(lg.graph.num_vertices(), 3);
        assert_eq!(lg.graph.num_edges(), 3);
        lg.cover.validate(&lg.graph).unwrap();
        assert_eq!(lg.cover.diversity(), 2);
    }

    #[test]
    fn line_graph_of_star_is_complete() {
        let g = generators::star(6).unwrap();
        let lg = LineGraph::new(&g);
        assert_eq!(lg.graph.num_vertices(), 5);
        assert_eq!(lg.graph.num_edges(), 10);
        assert_eq!(lg.cover.max_clique_size(), 5);
    }

    #[test]
    fn diversity_always_at_most_two() {
        for seed in 0..5u64 {
            let g = generators::gnm(40, 120, seed).unwrap();
            let lg = LineGraph::new(&g);
            lg.cover.validate(&lg.graph).unwrap();
            assert!(lg.cover.diversity() <= 2);
            assert_eq!(lg.cover.max_clique_size(), g.max_degree());
        }
    }

    #[test]
    fn degree_in_line_graph_matches_formula() {
        let g = generators::gnm(30, 80, 2).unwrap();
        let lg = LineGraph::new(&g);
        for (e, [u, v]) in g.edge_list() {
            let expected = g.degree(u) + g.degree(v) - 2;
            assert_eq!(lg.graph.degree(lg.line_vertex(e)), expected);
        }
    }

    #[test]
    fn vertex_coloring_transfers_to_edges() {
        let g = builder_from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let lg = LineGraph::new(&g);
        // Proper 2-coloring of L(P4) = P3.
        let c = VertexColoring::new(vec![0, 1, 0], 2).unwrap();
        assert!(c.is_proper(&lg.graph));
        let ec = lg.to_edge_coloring(&c).unwrap();
        assert!(ec.is_proper(&g));
    }

    #[test]
    fn from_view_matches_new_bit_for_bit() {
        for seed in 0..4u64 {
            let g = generators::gnm(60, 180, seed).unwrap();
            let reference = LineGraph::new(&g);
            let streamed = LineGraph::from_view(&g).unwrap();
            assert_eq!(streamed.graph, reference.graph, "seed {seed}");
            assert_eq!(
                streamed.cover.diversity(),
                reference.cover.diversity(),
                "seed {seed}"
            );
            streamed.cover.validate(&streamed.graph).unwrap();
        }
    }

    #[test]
    fn stream_and_count_agree_with_materialized() {
        let g = generators::gnm(40, 100, 3).unwrap();
        assert_eq!(line_graph_edge_count_on(&g), g.line_graph_edge_count());
        let mut b = crate::GraphBuilder::new_multi(g.num_edges());
        line_graph_stream(&g, &mut b).unwrap();
        assert_eq!(b.build(), LineGraph::new(&g).graph);
    }

    #[test]
    fn from_view_rejects_multigraphs() {
        let mut b = crate::GraphBuilder::new_multi(2);
        b.add_edge(0, 1).unwrap();
        b.add_edge(0, 1).unwrap();
        assert!(LineGraph::from_view(&b.build()).is_err());
    }

    #[test]
    #[should_panic(expected = "simple source graph")]
    fn rejects_multigraphs() {
        let mut b = crate::GraphBuilder::new_multi(2);
        b.add_edge(0, 1).unwrap();
        b.add_edge(0, 1).unwrap();
        let _ = LineGraph::new(&b.build());
    }
}
