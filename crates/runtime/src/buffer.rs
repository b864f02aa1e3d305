//! Reusable flat message buffers for the exchange hot path.
//!
//! [`RoundBuffer`] is the allocation-free counterpart of the `Vec<Vec<_>>`
//! inboxes returned by [`Network::exchange`](crate::Network::exchange): one
//! contiguous `(port, message)` arena indexed CSR-style by per-vertex
//! offsets built once from the incidence structure. A buffer is created
//! once per (graph, message type) pair and refilled every round by
//! [`Network::exchange_into`](crate::Network::exchange_into) /
//! [`Network::broadcast_on_active_into`](crate::Network::broadcast_on_active_into),
//! so the per-round cost is the messages themselves — no `Vec` is
//! allocated after construction. A full broadcast needs no buffer at all:
//! [`Network::broadcast_view`](crate::Network::broadcast_view) delivers
//! by reference.

use decolor_graph::subgraph::GraphView;
use decolor_graph::{num, VertexId};

use crate::error::RuntimeError;

/// A reusable, flat per-round inbox for one graph and one message type.
///
/// Layout: vertex `v` owns the arena region `offsets[v]..offsets[v + 1]`
/// (capacity `deg(v)`, the most messages a vertex can receive in one round
/// of the LOCAL model — at most one per incident port). `len[v]` counts
/// the messages actually delivered this round; slots beyond it hold stale
/// payloads from earlier rounds and are never observed.
///
/// ```rust
/// use decolor_graph::{builder_from_edges, VertexId};
/// use decolor_runtime::{Network, RoundBuffer};
///
/// let g = builder_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// let mut net = Network::new(&g);
/// let mut buf = RoundBuffer::new(&g);
/// for round in 0..4u32 {
///     // Vertex 1 sends `round` on port 0 (to vertex 0) and `round + 1`
///     // on port 1 (to vertex 2).
///     let outbox = vec![vec![], vec![(0, round), (1, round + 1)], vec![]];
///     net.exchange_into(&outbox, &mut buf).unwrap();
///     let at_2: Vec<(usize, u32)> = buf.inbox(VertexId::new(2)).map(|(p, &m)| (p, m)).collect();
///     assert_eq!(at_2, vec![(0, round + 1)]); // tagged with 2's port, no allocation
/// }
/// assert_eq!(net.stats().rounds, 4);
/// ```
#[derive(Debug)]
pub struct RoundBuffer<M> {
    /// CSR offsets into `ports`/`slots`; length `n + 1`.
    offsets: Vec<usize>,
    /// Messages received by each vertex this round; length `n`.
    len: Vec<usize>,
    /// Receiving-port tags, parallel to `slots`.
    ports: Vec<u32>,
    /// Message payloads. Slots start as `M::default()` and are
    /// overwritten before being readable (`len` gates reads), so no
    /// `Option` discriminant is paid — for `M = u64` this halves the
    /// arena.
    slots: Vec<M>,
    /// Edge-space output of `exchange_on_edges_into`, sized lazily to `m`.
    per_edge: Vec<Option<(M, M)>>,
    /// Edges filled in `per_edge` by the previous call, so a subset-
    /// activation round clears O(|subset|), not O(m).
    touched_edges: Vec<usize>,
    /// Number of edges of the graph this buffer was built for.
    num_edges: usize,
}

impl<M: Clone + Default> RoundBuffer<M> {
    /// Builds an empty buffer shaped for the topology `g` — a [`Graph`]
    /// (`decolor_graph::Graph`) or any borrowed subgraph view (O(n + m),
    /// done once). Slots are default-initialized (never readable before
    /// a round writes them).
    pub fn new<V: GraphView>(g: &V) -> Self {
        let n = g.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for v in 0..n {
            acc += g.degree(VertexId::new(v));
            offsets.push(acc);
        }
        let slots = vec![M::default(); acc];
        RoundBuffer {
            offsets,
            len: vec![0; n],
            ports: vec![0; acc],
            slots,
            per_edge: Vec::new(),
            touched_edges: Vec::new(),
            num_edges: g.num_edges(),
        }
    }
}

impl<M> RoundBuffer<M> {
    /// Number of vertices this buffer is shaped for.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.len.len()
    }

    /// Whether this buffer was built for a topology shaped like `g`.
    ///
    /// Release builds compare the cheap invariants (vertex and edge
    /// counts); debug builds additionally verify the full per-vertex
    /// degree layout, catching distinct topologies that share those
    /// totals.
    pub(crate) fn fits<V: GraphView>(&self, g: &V) -> bool {
        debug_assert!(
            self.len.len() != g.num_vertices()
                || self.num_edges != g.num_edges()
                || (0..g.num_vertices()).all(|v| {
                    self.offsets[v + 1] - self.offsets[v] == g.degree(VertexId::new(v))
                }),
            "round buffer degree layout does not match the topology"
        );
        self.len.len() == g.num_vertices() && self.num_edges == g.num_edges()
    }

    /// Messages received by `v` in the round most recently written.
    #[inline]
    pub fn received(&self, v: VertexId) -> usize {
        self.len[v.index()]
    }

    /// The `(receiving port, message)` pairs delivered to `v` this round,
    /// in delivery order — the flat equivalent of `inbox[v]` from
    /// [`Network::exchange`](crate::Network::exchange).
    #[inline]
    pub fn inbox(&self, v: VertexId) -> impl Iterator<Item = (usize, &M)> + '_ {
        let base = self.offsets[v.index()];
        let end = base + self.len[v.index()];
        self.ports[base..end]
            .iter()
            .zip(&self.slots[base..end])
            .map(|(&p, s)| (num::usize_from(p), s))
    }

    /// The per-edge value pairs produced by the most recent
    /// [`Network::exchange_on_edges_into`](crate::Network::exchange_on_edges_into):
    /// `per_edge[e] = Some((value from lower endpoint, value from higher
    /// endpoint))` for activated edges, `None` elsewhere.
    #[inline]
    pub fn per_edge(&self) -> &[Option<(M, M)>] {
        &self.per_edge
    }

    /// Resets the per-round state (message counts and activated edges).
    /// Refilling entry points call this themselves; it is only needed when
    /// a stale buffer must not be read again.
    pub fn clear(&mut self) {
        self.len.fill(0);
        self.clear_edges();
    }

    /// Starts a new round: zeroes every per-vertex message count.
    #[inline]
    pub(crate) fn begin_round(&mut self) {
        self.len.fill(0);
    }

    /// Clears only the edges activated by the previous edge-space round.
    pub(crate) fn clear_edges(&mut self) {
        for e in self.touched_edges.drain(..) {
            self.per_edge[e] = None;
        }
    }

    /// Lazily sizes the edge-space output, then clears the previous
    /// activation set (O(|previous subset|), not O(m)).
    pub(crate) fn begin_edge_round(&mut self) {
        if self.per_edge.len() != self.num_edges {
            self.per_edge.resize_with(self.num_edges, || None);
            self.touched_edges.clear();
        } else {
            self.clear_edges();
        }
    }

    /// Records the pair for edge `e` (index form) and marks it activated.
    #[inline]
    pub(crate) fn set_edge_pair(&mut self, e: usize, pair: (M, M)) {
        self.per_edge[e] = Some(pair);
        self.touched_edges.push(e);
    }

    /// Appends a copy of `message` for vertex `u` with receiving-port tag
    /// `port`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InboxOverflow`] if `u` already received `deg(u)`
    /// messages this round (a sender placed two messages on one port,
    /// violating the LOCAL model).
    #[inline]
    pub(crate) fn push(&mut self, u: VertexId, port: u32, message: &M) -> Result<(), RuntimeError>
    where
        M: Clone,
    {
        let k = self.len[u.index()];
        let base = self.offsets[u.index()];
        if base + k >= self.offsets[u.index() + 1] {
            return Err(RuntimeError::InboxOverflow { vertex: u });
        }
        self.ports[base + k] = port;
        self.slots[base + k].clone_from(message);
        self.len[u.index()] = k + 1;
        Ok(())
    }

    /// Moves this round's inbox of `v` out of the arena (used by the
    /// compatibility wrappers to avoid a second clone), leaving default
    /// payloads behind.
    pub(crate) fn take_inbox(&mut self, v: VertexId) -> Vec<(usize, M)>
    where
        M: Default,
    {
        let base = self.offsets[v.index()];
        let k = self.len[v.index()];
        (0..k)
            .map(|i| {
                (
                    num::usize_from(self.ports[base + i]),
                    std::mem::take(&mut self.slots[base + i]),
                )
            })
            .collect()
    }

    /// Moves the edge-space output out of the buffer (compatibility
    /// wrapper path; the buffer stays usable afterwards).
    pub(crate) fn take_per_edge(&mut self) -> Vec<Option<(M, M)>> {
        self.touched_edges.clear();
        std::mem::take(&mut self.per_edge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::builder_from_edges;

    #[test]
    fn regions_match_degrees() {
        let g = builder_from_edges(4, &[(0, 1), (1, 2), (2, 3), (1, 3)]).unwrap();
        let buf = RoundBuffer::<u32>::new(&g);
        assert_eq!(buf.num_vertices(), 4);
        assert_eq!(buf.offsets, vec![0, 1, 4, 6, 8]);
        assert_eq!(buf.slots.len(), 2 * g.num_edges());
    }

    #[test]
    fn push_and_drain_round_trip() {
        let g = builder_from_edges(2, &[(0, 1)]).unwrap();
        let mut buf = RoundBuffer::new(&g);
        buf.begin_round();
        buf.push(VertexId::new(1), 0, &42u64).unwrap();
        assert_eq!(buf.received(VertexId::new(1)), 1);
        assert_eq!(buf.inbox(VertexId::new(1)).collect::<Vec<_>>(), [(0, &42)]);
        assert_eq!(buf.take_inbox(VertexId::new(1)), vec![(0, 42)]);
        // A fresh round starts empty even though slots hold stale payloads.
        buf.begin_round();
        assert_eq!(buf.received(VertexId::new(1)), 0);
        assert_eq!(buf.inbox(VertexId::new(1)).count(), 0);
    }

    #[test]
    fn overflow_is_rejected() {
        let g = builder_from_edges(2, &[(0, 1)]).unwrap();
        let mut buf = RoundBuffer::new(&g);
        buf.begin_round();
        buf.push(VertexId::new(1), 0, &1u8).unwrap();
        assert_eq!(
            buf.push(VertexId::new(1), 0, &2u8),
            Err(RuntimeError::InboxOverflow {
                vertex: VertexId::new(1)
            })
        );
    }

    #[test]
    fn edge_rounds_clear_only_touched_entries() {
        let g = builder_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let mut buf = RoundBuffer::new(&g);
        buf.begin_edge_round();
        buf.set_edge_pair(0, (7u32, 8u32));
        assert_eq!(buf.per_edge()[0], Some((7, 8)));
        buf.begin_edge_round();
        assert_eq!(buf.per_edge(), &[None, None]);
    }
}
