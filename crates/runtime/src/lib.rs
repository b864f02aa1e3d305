//! # decolor-runtime
//!
//! A faithful simulator of the **synchronous message-passing (LOCAL)
//! model** of §1.1 of the paper: a communication network is a graph whose
//! vertices perform unrestricted local computation and exchange messages
//! over edges in discrete synchronized rounds; the running time is the
//! number of rounds.
//!
//! The central type is [`Network`], a port-numbered wrapper over any
//! **topology** — an implementor of the [`Topology`] trait (`GraphView`),
//! i.e. a whole [`Graph`](decolor_graph::Graph) or a borrowed subgraph
//! view served off a parent CSR, which is how the recursive pipelines
//! simulate rounds on a color class without materializing it. In each
//! [`Network::exchange`] call
//! every vertex places at most one message per incident port, messages
//! traverse exactly one edge, and the round counter advances by one.
//! A full broadcast ([`Network::broadcast_view`]) is charged in full —
//! one round, `Σ deg(v)` messages — but delivered by reference, as a
//! [`Broadcast`] borrow of the senders' values, so a round costs only
//! the messages its receivers read: Linial reads every neighbor once per
//! round, the color reductions only the neighbors of the vertices that
//! decide in that round. Point-to-point and active-set rounds
//! ([`Network::exchange_into`], [`Network::broadcast_on_active_into`])
//! deliver into a reusable flat [`RoundBuffer`] without allocating; the
//! `Vec`-returning forms ([`Network::exchange`], [`Network::broadcast`])
//! remain as semantically identical wrappers.
//! Distributed algorithms in `decolor-core` are written against this
//! interface, so their reported round counts are *measured*, not modelled
//! (composite algorithms combine phase counts with [`Rounds`] using the
//! LOCAL semantics: parallel executions on disjoint subgraphs cost the max
//! of their rounds).
//!
//! # Example
//!
//! ```rust
//! use decolor_graph::builder_from_edges;
//! use decolor_runtime::Network;
//!
//! # fn main() -> Result<(), decolor_graph::GraphError> {
//! let g = builder_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
//! let mut net = Network::new(&g);
//! // Every vertex broadcasts its index; afterwards each vertex knows its
//! // neighbors' indices, at the cost of one round.
//! let values: Vec<u32> = (0..3).collect();
//! let inbox = net.broadcast(&values).unwrap();
//! assert_eq!(inbox[1], vec![0, 2]); // in port order
//! assert_eq!(net.stats().rounds, 1);
//! # Ok(())
//! # }
//! ```
//!
//! Malformed traffic — out-of-range ports, over-full inboxes, foreign
//! buffers — is reported as a typed [`RuntimeError`] rather than a panic,
//! so embedding applications can surface diagnostics and keep running.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod error;
mod ids;
mod metrics;
mod network;
pub mod program;

pub use buffer::RoundBuffer;
pub use error::RuntimeError;
pub use ids::IdAssignment;
pub use metrics::{NetworkStats, Rounds};
pub use network::{Broadcast, Network};

/// The topology trait [`Network`] is generic over: `decolor_graph`'s
/// [`GraphView`](decolor_graph::subgraph::GraphView), satisfied by a
/// whole [`decolor_graph::Graph`] and by the borrowed subgraph views
/// (`EdgeSubgraphView`, `InducedSubgraphView`). Re-exported under the
/// runtime's name for it so callers can write `Network<'_, impl
/// Topology>` without reaching into the graph crate's module tree.
pub use decolor_graph::subgraph::GraphView as Topology;
