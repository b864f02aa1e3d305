//! The topology-generic [`Network`] must behave **bit-identically** on a
//! borrowed subgraph view and on the materialized subgraph the view
//! stands for: same inboxes, same port tags, same port table answers,
//! same [`NetworkStats`] ledger. This is the foundation the view-generic
//! pipelines (CD-Coloring, Theorems 5.2–5.4) rest on. The zero-copy
//! [`Network::broadcast_view`] must in turn match the copying
//! [`Network::broadcast`] wrapper on every topology, a memory-mapped
//! `ShardedCsr` included.

use decolor_graph::storage::ShardedCsr;
use decolor_graph::subgraph::{
    EdgeSubgraphView, GraphView, InducedSubgraph, InducedSubgraphView, SpanningEdgeSubgraph,
};
use decolor_graph::{generators, EdgeId, Graph, VertexId};
use decolor_runtime::{Broadcast, Network, NetworkStats, RuntimeError};
use proptest::prelude::*;

/// Every vertex's received values, in port order, from one
/// `broadcast_view` round.
fn view_rows<V: GraphView, M: Clone>(topo: &V, round: &Broadcast<'_, V, M>) -> Vec<Vec<M>> {
    (0..topo.num_vertices())
        .map(|v| {
            let mut row = Vec::new();
            round.each(VertexId::new(v), |m| row.push(m.clone()));
            row
        })
        .collect()
}

/// Collects every vertex's `(port, message)` inbox rows from a buffer.
fn rows<V: GraphView, M: Clone + std::fmt::Debug + PartialEq>(
    net: &Network<'_, V>,
    buf: &decolor_runtime::RoundBuffer<M>,
) -> Vec<Vec<(usize, M)>> {
    (0..net.graph().num_vertices())
        .map(|v| {
            buf.inbox(VertexId::new(v))
                .map(|(p, m)| (p, m.clone()))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Broadcast, active-set broadcast, edge exchange, and the port table
    /// agree between an [`EdgeSubgraphView`] and the materialized
    /// [`SpanningEdgeSubgraph`] of the same class.
    #[test]
    fn edge_view_network_matches_materialized(seed in 0u64..500, modulus in 2usize..5) {
        let g = generators::gnm(40, 140, seed).unwrap();
        let class: Vec<EdgeId> = g.edges().filter(|e| e.index() % modulus == 0).collect();
        let sub = SpanningEdgeSubgraph::new(&g, &class);
        let view = EdgeSubgraphView::new(&g, class).unwrap();

        let mut net_view = Network::new(&view);
        let mut net_mat = Network::new(sub.graph());
        let values: Vec<u64> = (0..g.num_vertices() as u64).map(|v| v * 7 + 1).collect();

        // Full broadcast.
        let round_view = net_view.broadcast_view(&values).unwrap();
        let round_mat = net_mat.broadcast_view(&values).unwrap();
        prop_assert_eq!(view_rows(&view, &round_view), view_rows(sub.graph(), &round_mat));
        prop_assert_eq!(net_view.stats(), net_mat.stats());

        let mut buf_view = net_view.make_buffer();
        let mut buf_mat = net_mat.make_buffer();
        // Active-set broadcast (odd vertices only) — exercises the lazy
        // port table.
        let active: Vec<VertexId> = g.vertices().filter(|v| v.index() % 2 == 1).collect();
        net_view
            .broadcast_on_active_into(&values, &active, &mut buf_view)
            .unwrap();
        net_mat
            .broadcast_on_active_into(&values, &active, &mut buf_mat)
            .unwrap();
        prop_assert_eq!(rows(&net_view, &buf_view), rows(&net_mat, &buf_mat));
        prop_assert_eq!(net_view.stats(), net_mat.stats());

        // Edge-subset exchange + the port table itself.
        let subset: Vec<EdgeId> = (0..view.num_edges()).step_by(2).map(EdgeId::new).collect();
        net_view
            .exchange_on_edges_into(&values, &subset, &mut buf_view)
            .unwrap();
        net_mat
            .exchange_on_edges_into(&values, &subset, &mut buf_mat)
            .unwrap();
        prop_assert_eq!(buf_view.per_edge(), buf_mat.per_edge());
        prop_assert_eq!(net_view.stats(), net_mat.stats());
        for e in (0..view.num_edges()).map(EdgeId::new) {
            let [u, v] = GraphView::endpoints(&view, e);
            prop_assert_eq!(net_view.port_of(u, e).unwrap(), net_mat.port_of(u, e).unwrap());
            prop_assert_eq!(net_view.port_of(v, e).unwrap(), net_mat.port_of(v, e).unwrap());
        }
    }

    /// Broadcast and exchange agree between an [`InducedSubgraphView`]
    /// and the materialized [`InducedSubgraph`] of the same class.
    #[test]
    fn induced_view_network_matches_materialized(seed in 0u64..500, modulus in 2usize..5) {
        let g = generators::gnm(36, 120, seed).unwrap();
        let subset: Vec<VertexId> = g.vertices().filter(|v| v.index() % modulus != 1).collect();
        let sub = InducedSubgraph::new(&g, &subset);
        let view = InducedSubgraphView::new(&g, subset).unwrap();
        let k = view.num_vertices();
        prop_assert_eq!(k, sub.graph().num_vertices());

        let mut net_view = Network::new(&view);
        let mut net_mat = Network::new(sub.graph());
        let values: Vec<u32> = (0..k as u32).map(|v| v * 3 + 2).collect();

        for round in 0..3u32 {
            let vals: Vec<u32> = values.iter().map(|&v| v + round).collect();
            let round_view = net_view.broadcast_view(&vals).unwrap();
            let round_mat = net_mat.broadcast_view(&vals).unwrap();
            prop_assert_eq!(view_rows(&view, &round_view), view_rows(sub.graph(), &round_mat));
            prop_assert_eq!(net_view.stats(), net_mat.stats());
        }

        let mut buf_view = net_view.make_buffer();
        let mut buf_mat = net_mat.make_buffer();

        // Point-to-point: every vertex sends on its even ports.
        let outbox: Vec<Vec<(usize, u32)>> = (0..k)
            .map(|v| {
                (0..GraphView::degree(&view, VertexId::new(v)))
                    .step_by(2)
                    .map(|p| (p, (v * 100 + p) as u32))
                    .collect()
            })
            .collect();
        net_view.exchange_into(&outbox, &mut buf_view).unwrap();
        net_mat.exchange_into(&outbox, &mut buf_mat).unwrap();
        prop_assert_eq!(rows(&net_view, &buf_view), rows(&net_mat, &buf_mat));
        prop_assert_eq!(net_view.stats(), net_mat.stats());
    }
}

/// A full edge view over the whole graph is indistinguishable from the
/// graph itself — in a full broadcast and in an active-set round.
#[test]
fn full_view_is_the_graph() {
    let g: Graph = generators::random_regular(30, 6, 3).unwrap();
    let view = EdgeSubgraphView::full(&g);
    let mut net_g = Network::new(&g);
    let mut net_v = Network::new(&view);
    let values: Vec<u16> = (0..30u16).collect();
    let round_g = net_g.broadcast_view(&values).unwrap();
    let round_v = net_v.broadcast_view(&values).unwrap();
    assert_eq!(view_rows(&g, &round_g), view_rows(&view, &round_v));
    assert_eq!(net_g.stats(), net_v.stats());
    let active: Vec<VertexId> = g.vertices().filter(|v| v.index() % 3 != 0).collect();
    let mut buf_g = net_g.make_buffer();
    let mut buf_v = net_v.make_buffer();
    net_g
        .broadcast_on_active_into(&values, &active, &mut buf_g)
        .unwrap();
    net_v
        .broadcast_on_active_into(&values, &active, &mut buf_v)
        .unwrap();
    assert_eq!(rows(&net_g, &buf_g), rows(&net_v, &buf_v));
    assert_eq!(net_g.stats(), net_v.stats());
}

/// Per-vertex incident-list payloads of varying length, the shape the
/// Lemma 5.1 crossing merges broadcast.
fn list_values(n: usize, seed: u64) -> Vec<Vec<u32>> {
    (0..n as u64)
        .map(|v| {
            (0..(v * 7 + seed) % 5)
                .map(|i| (v * 31 + i) as u32)
                .collect()
        })
        .collect()
}

/// `broadcast_view` charges what the copying `broadcast` wrapper charges
/// on the same topology, over two consecutive rounds (the second one
/// served by the memoized degree sum); at every vertex `v`, `each`
/// yields the wrapper's row of `v` in port order, and `across(v, e)`
/// yields the message at `e`'s port. Returns the ledger of one round.
fn assert_view_matches_broadcast<V: GraphView>(topo: &V, values: &[Vec<u32>]) -> NetworkStats {
    let mut net_copy = Network::new(topo);
    let inbox = net_copy.broadcast(values).unwrap();
    let one_round = net_copy.stats();
    net_copy.broadcast(values).unwrap();
    let mut net_view = Network::new(topo);
    net_view.broadcast_view(values).unwrap();
    let round = net_view.broadcast_view(values).unwrap();
    assert_eq!(net_view.stats(), net_copy.stats());
    assert_eq!(view_rows(topo, &round), inbox);
    for v in (0..topo.num_vertices()).map(VertexId::new) {
        let row = &inbox[v.index()];
        let mut p = 0;
        topo.for_each_port(v, |_, e| {
            assert_eq!(round.across(v, e).unwrap(), &row[p], "{v} across {e}");
            p += 1;
        });
        assert_eq!(p, row.len());
    }
    one_round
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The zero-copy broadcast agrees with the copying one on a whole
    /// graph and on an edge view of it.
    #[test]
    fn broadcast_view_matches_broadcast(seed in 0u64..500, modulus in 2usize..5) {
        let g = generators::gnm(40, 140, seed).unwrap();
        let values = list_values(g.num_vertices(), seed);
        let whole = assert_view_matches_broadcast(&g, &values);
        prop_assert_eq!(whole.messages, 2 * g.num_edges() as u64);
        let class: Vec<EdgeId> = g.edges().filter(|e| e.index() % modulus == 0).collect();
        let view = EdgeSubgraphView::new(&g, class).unwrap();
        let part = assert_view_matches_broadcast(&view, &values);
        prop_assert_eq!(part.messages, 2 * view.num_edges() as u64);
    }
}

/// The zero-copy broadcast over a memory-mapped `ShardedCsr` charges and
/// delivers exactly what it does over the in-memory graph it stores.
#[test]
fn broadcast_view_over_sharded_csr_matches_graph() {
    let g = generators::gnm(60, 200, 11).unwrap();
    let dir = std::env::temp_dir().join(format!("decolor-runtime-view-{}", std::process::id()));
    let sc = ShardedCsr::from_graph(&dir, &g).unwrap();
    let values = list_values(g.num_vertices(), 3);
    let on_disk = assert_view_matches_broadcast(&sc, &values);
    assert_eq!(on_disk, assert_view_matches_broadcast(&g, &values));
    drop(sc);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A mis-shaped `values` slice is rejected before the round is charged,
/// and malformed queries are typed errors.
#[test]
fn broadcast_view_rejects_malformed_input() {
    let g = decolor_graph::builder_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    let mut net = Network::new(&g);
    assert_eq!(
        net.broadcast_view(&[1u32, 2]).err(),
        Some(RuntimeError::ShapeMismatch {
            what: "values",
            expected: 3,
            got: 2
        })
    );
    assert_eq!(net.stats(), NetworkStats::default());
    let round = net.broadcast_view(&[1u32, 2, 3]).unwrap();
    assert_eq!(
        round.across(VertexId::new(2), EdgeId::new(0)),
        Err(RuntimeError::NotAnEndpoint {
            vertex: VertexId::new(2),
            edge: EdgeId::new(0)
        })
    );
    assert_eq!(
        round.across(VertexId::new(0), EdgeId::new(5)),
        Err(RuntimeError::EdgeOutOfRange {
            edge: 5,
            num_edges: 2
        })
    );
    assert_eq!(round.across(VertexId::new(0), EdgeId::new(0)), Ok(&2));
}
