//! Property-based tests of the LOCAL simulator.

use decolor_graph::{generators, Graph, VertexId};
use decolor_runtime::{IdAssignment, Network, NetworkStats, RoundBuffer};
use proptest::prelude::*;

/// The pre-flat-buffer `exchange`: clone-per-port delivery into fresh
/// per-vertex `Vec`s, in sender-index order. The flat-buffer paths must
/// stay byte-identical to this, including the statistics ledger.
fn reference_exchange<M: Clone>(
    g: &Graph,
    net: &Network<'_>,
    outbox: &[Vec<(usize, M)>],
) -> (Vec<Vec<(usize, M)>>, NetworkStats) {
    let mut inbox: Vec<Vec<(usize, M)>> = vec![Vec::new(); outbox.len()];
    let mut messages = 0u64;
    for (vi, sends) in outbox.iter().enumerate() {
        let v = VertexId::new(vi);
        for &(port, ref msg) in sends {
            let (u, e) = g.incidence(v)[port];
            inbox[u.index()].push((net.port_of(u, e).unwrap(), msg.clone()));
            messages += 1;
        }
    }
    let stats = NetworkStats {
        rounds: 1,
        messages,
        payload_bytes: messages * std::mem::size_of::<M>() as u64,
    };
    (inbox, stats)
}

/// A deterministic partial outbox: vertex `v` sends on every port
/// `p` with `(v + p + seed) % 3 != 0`.
fn some_outbox(g: &Graph, seed: u64) -> Vec<Vec<(usize, u64)>> {
    g.vertices()
        .map(|v| {
            (0..g.degree(v))
                .filter(|p| !(v.index() as u64 + *p as u64 + seed).is_multiple_of(3))
                .map(|p| (p, v.index() as u64 * 1000 + p as u64))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Port numbering is an involution across each edge.
    #[test]
    fn ports_are_involutive(seed in 0u64..1000, m in 5usize..150) {
        let g = generators::gnm(30, m.min(30 * 29 / 2), seed).unwrap();
        let net = Network::new(&g);
        for (e, [u, v]) in g.edge_list() {
            let pu = net.port_of(u, e).unwrap();
            let pv = net.port_of(v, e).unwrap();
            prop_assert_eq!(g.incidence(u)[pu], (v, e));
            prop_assert_eq!(g.incidence(v)[pv], (u, e));
        }
    }

    /// Broadcast delivers exactly the neighbor multiset, in port order.
    #[test]
    fn broadcast_is_exact(seed in 0u64..1000) {
        let g = generators::gnm(25, 70, seed).unwrap();
        let mut net = Network::new(&g);
        let values: Vec<u64> = (0..25).map(|v| v * 31 + 7).collect();
        let inbox = net.broadcast(&values).unwrap();
        for v in g.vertices() {
            let expected: Vec<u64> = g.neighbors(v).map(|u| values[u.index()]).collect();
            prop_assert_eq!(&inbox[v.index()], &expected);
        }
        prop_assert_eq!(net.stats().rounds, 1);
        prop_assert_eq!(net.stats().messages, 2 * g.num_edges() as u64);
    }

    /// Exchange conservation: every sent message arrives exactly once.
    #[test]
    fn exchange_conserves_messages(seed in 0u64..1000) {
        let g = generators::gnm(20, 50, seed).unwrap();
        let mut net = Network::new(&g);
        let outbox: Vec<Vec<(usize, u32)>> = g
            .vertices()
            .map(|v| (0..g.degree(v)).step_by(2).map(|p| (p, v.index() as u32)).collect())
            .collect();
        let sent: usize = outbox.iter().map(Vec::len).sum();
        let inbox = net.exchange(&outbox).unwrap();
        let received: usize = inbox.iter().map(Vec::len).sum();
        prop_assert_eq!(sent, received);
    }

    /// `exchange_into` delivers byte-identical inboxes — and an identical
    /// statistics ledger — to the legacy clone-per-port path, across
    /// buffer reuse.
    #[test]
    fn exchange_into_matches_legacy_path(seed in 0u64..500, m in 10usize..120) {
        let g = generators::gnm(30, m.min(30 * 29 / 2), seed).unwrap();
        let mut net = Network::new(&g);
        let mut buf: RoundBuffer<u64> = net.make_buffer();
        // Two rounds with different activation patterns through ONE
        // buffer: stale state from round 1 must not leak into round 2.
        for round in 0..2u64 {
            let outbox = some_outbox(&g, seed + round);
            let (expected, expected_stats) = reference_exchange(&g, &net, &outbox);
            net.reset_stats();
            net.exchange_into(&outbox, &mut buf).unwrap();
            for v in g.vertices() {
                let flat: Vec<(usize, u64)> = buf.inbox(v).map(|(p, &msg)| (p, msg)).collect();
                prop_assert_eq!(flat, expected[v.index()].clone(), "inbox of {} differs", v);
                prop_assert_eq!(buf.received(v), expected[v.index()].len());
            }
            prop_assert_eq!(net.stats(), expected_stats);
        }
    }

    /// `broadcast_view` (and the sort-free `broadcast` wrapper) deliver
    /// neighbor values in port order with legacy statistics.
    #[test]
    fn broadcast_view_matches_legacy_path(seed in 0u64..500) {
        let g = generators::gnm(28, 90, seed).unwrap();
        let values: Vec<u64> = (0..28).map(|v| v * 131 + 5).collect();
        // Reference: a full outbox through the legacy exchange shape,
        // sorted per vertex by receiving port.
        let full_outbox: Vec<Vec<(usize, u64)>> = g
            .vertices()
            .map(|v| (0..g.degree(v)).map(|p| (p, values[v.index()])).collect())
            .collect();
        let probe = Network::new(&g);
        let (mut expected, expected_stats) = reference_exchange(&g, &probe, &full_outbox);
        for row in expected.iter_mut() {
            row.sort_by_key(|&(p, _)| p);
        }

        let mut net = Network::new(&g);
        let round = net.broadcast_view(&values).unwrap();
        let mut net2 = Network::new(&g);
        let legacy = net2.broadcast(&values).unwrap();
        for v in g.vertices() {
            let mut flat: Vec<u64> = Vec::new();
            round.each(v, |&msg| flat.push(msg));
            let reference: Vec<u64> = expected[v.index()].iter().map(|&(_, msg)| msg).collect();
            prop_assert_eq!(&flat, &reference, "broadcast row of {} differs", v);
            prop_assert_eq!(&flat, &legacy[v.index()]);
        }
        prop_assert_eq!(net.stats(), expected_stats);
        prop_assert_eq!(net2.stats(), expected_stats);
    }

    /// `exchange_on_edges_into` reproduces the legacy per-edge pairing
    /// (value from lower endpoint first) without leaking activations
    /// between rounds, at legacy statistics.
    #[test]
    fn exchange_on_edges_into_matches_legacy_path(seed in 0u64..500) {
        let g = generators::gnm(24, 70, seed).unwrap();
        let values: Vec<u64> = (0..24).map(|v| v * 17 + 3).collect();
        let mut net = Network::new(&g);
        let mut buf = net.make_buffer();
        for round in 0..3u64 {
            let subset: Vec<decolor_graph::EdgeId> = g
                .edges()
                .filter(|e| (e.index() as u64 + seed + round).is_multiple_of(3))
                .collect();
            net.reset_stats();
            net.exchange_on_edges_into(&values, &subset, &mut buf).unwrap();
            let mut in_subset = vec![false; g.num_edges()];
            for e in &subset {
                in_subset[e.index()] = true;
            }
            for (e, [lo, hi]) in g.edge_list() {
                let expected = in_subset[e.index()]
                    .then(|| (values[lo.index()], values[hi.index()]));
                prop_assert_eq!(buf.per_edge()[e.index()], expected, "edge {} differs", e);
            }
            prop_assert_eq!(net.stats().rounds, 1);
            prop_assert_eq!(net.stats().messages, 2 * subset.len() as u64);
        }
    }

    /// Shuffled IDs are permutations; restriction preserves distinctness.
    #[test]
    fn id_assignment_permutation(n in 1usize..200, seed in 0u64..1000) {
        let ids = IdAssignment::shuffled(n, seed);
        let mut sorted = ids.as_slice().to_vec();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n as u64).collect::<Vec<_>>());
        let subset: Vec<decolor_graph::VertexId> =
            (0..n).step_by(3).map(decolor_graph::VertexId::new).collect();
        let sub = ids.restrict(&subset);
        let mut s = sub.as_slice().to_vec();
        s.sort_unstable();
        s.dedup();
        prop_assert_eq!(s.len(), subset.len());
    }
}
