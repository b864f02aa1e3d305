//! Direct **edge-space** (2Δ − 1)-edge-coloring — the Panconesi–Rizzi
//! \[33\] baseline family without materializing the line graph.
//!
//! [`edge_coloring_with_target`](crate::delta_plus_one::edge_coloring_with_target)
//! realizes an edge coloring by *building* L(G) and running the vertex
//! pipeline on it: O(Σ_v deg(v)²) memory for the line-graph structure
//! before a single round executes, which caps the harness at Δ ≤ 32.
//! [`edge_coloring_direct`] runs the **same algorithm** (Linial's
//! iteration followed by the configured color reduction) with each edge
//! acting as an agent that exchanges colors over its ≤ 2Δ − 2 incident
//! edges, reading neighbor colors straight off `G`'s incidence structure:
//!
//! * no L(G) is ever built — memory stays O(n + m);
//! * per round, only the *deciding* color class gathers its
//!   neighborhoods (a color-bucket index finds the class without an O(m)
//!   scan), while non-deciding agents skip inbox work entirely;
//! * the round/message ledger still charges every round at its full
//!   LOCAL cost — one incident-color-list broadcast on `G` per round —
//!   so measured *rounds* are identical to the line-graph pipeline
//!   (including the one setup round of §4) and only the message
//!   accounting reflects the on-`G` realization.
//!
//! The produced coloring is **bit-identical** to the line-graph path on
//! simple graphs (same Linial trajectory, same reduction decisions); the
//! equivalence is asserted by tests below and in
//! `decolor-baselines`.

use decolor_graph::coloring::EdgeColoring;
use decolor_graph::subgraph::GraphView;
use decolor_graph::{EdgeId, Graph, VertexId};
use decolor_runtime::NetworkStats;

use crate::bitset::PaletteSet;
use crate::class_index::ClassIndex;
use crate::delta_plus_one::{ReductionStrategy, SubroutineConfig};
use crate::error::AlgoError;
use crate::linial::{choose_parameters, final_palette_bound, recolor};
use decolor_graph::num;

/// Calls `f` with the current color of every L(G)-neighbor of `e` (edges
/// sharing an endpoint with `e`, with multigraph multiplicity). Edge ids
/// are the view's local ids, so the same code serves a whole [`Graph`]
/// and a borrowed color-class view.
#[inline]
fn for_each_incident_color<V: GraphView>(g: &V, colors: &[u64], e: EdgeId, mut f: impl FnMut(u64)) {
    let [u, v] = g.endpoints(e);
    g.for_each_incident_edge(u, |other| {
        if other != e {
            f(colors[other.index()]);
        }
    });
    g.for_each_incident_edge(v, |other| {
        if other != e {
            f(colors[other.index()]);
        }
    });
}

/// Computes a proper edge coloring of `g` with `target ≥ 2Δ − 1` colors
/// directly in edge space, plus the measured LOCAL statistics.
///
/// Algorithmically identical to
/// [`edge_coloring_with_target`](crate::delta_plus_one::edge_coloring_with_target)
/// (Linial from the edge-index identifiers, then the configured
/// reduction), but simulated on `G` itself: rounds match the line-graph
/// pipeline exactly, the (2Δ − 1) palette is exact, and no line graph is
/// materialized — so Δ = 128 and beyond stay harness-scale.
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] if `target < 2Δ − 1`.
pub fn edge_coloring_direct(
    g: &Graph,
    target: u64,
    cfg: SubroutineConfig,
) -> Result<(EdgeColoring, NetworkStats), AlgoError> {
    let (colors, palette, stats) = edge_coloring_direct_on(g, target, cfg)?;
    let ec = EdgeColoring::new(colors, palette).map_err(|e| AlgoError::InvariantViolated {
        reason: e.to_string(),
    })?;
    debug_assert!(ec.is_proper(g));
    Ok((ec, stats))
}

/// [`edge_coloring_direct`] over any [`GraphView`] — in particular a
/// borrowed color-class view of a parent graph, which is how the
/// recursive pipelines (star partition, Theorem 5.2's intra stages) color
/// their classes without materializing them. Returns the local colors,
/// the realized palette, and the measured statistics; the decisions are
/// bit-identical to running on the materialized subgraph because every
/// query the algorithm makes (degrees, incidence order, endpoints, local
/// ids) agrees between the two representations.
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] if `target` is below the view's
/// 2Δ − 1.
pub fn edge_coloring_direct_on<V: GraphView>(
    g: &V,
    target: u64,
    cfg: SubroutineConfig,
) -> Result<(Vec<u32>, u64, NetworkStats), AlgoError> {
    let m = g.num_edges();
    let delta = num::to_u64(g.max_degree());
    if m == 0 {
        return Ok((vec![], 1, NetworkStats::default()));
    }
    let needed = 2 * delta - 1;
    if target < needed {
        return Err(AlgoError::InvalidParameters {
            reason: format!("target {target} below 2Δ − 1 = {needed}"),
        });
    }
    // Maximum degree of the (never materialized) line graph.
    let delta_l: u64 = (0..m)
        .map(|e| {
            let [u, v] = g.endpoints(EdgeId::new(e));
            num::to_u64(g.degree(u) + g.degree(v) - 2)
        })
        .max()
        .unwrap_or(0);

    // One communication round of the edge-space realization: every vertex
    // broadcasts its incident-color list on all ports.
    let round_cost = NetworkStats {
        rounds: 1,
        messages: 2 * num::to_u64(m),
        payload_bytes: (0..g.num_vertices())
            .map(|v| {
                let d = g.degree(VertexId::new(v));
                num::to_u64(d * d)
            })
            .sum::<u64>()
            * num::to_u64(std::mem::size_of::<u64>()),
    };
    // The §4 setup round (vertices agree to simulate their edge agents),
    // mirroring the line-graph pipeline's charge.
    let mut stats = NetworkStats {
        rounds: 1,
        ..Default::default()
    };

    let mut colors: Vec<u64> = (0..num::to_u64(m)).collect();
    let mut palette = num::to_u64(m);

    if delta_l > 0 {
        // Phase 1: Linial's iteration from the edge-index identifiers down
        // to the O(Δ_L²) fixed point. Every agent recolors each round, so
        // the whole edge set gathers off the previous colors into a second
        // buffer, and the two swap, which keeps rounds synchronous.
        let fixed = final_palette_bound(num::to_usize(delta_l)?);
        let mut next = vec![0u64; m];
        // Incident colors of the deciding edge, gathered once per edge
        // (not once per evaluation point) into a reused buffer.
        let mut neighborhood: Vec<u64> = Vec::new();
        while palette > fixed {
            let (q, _) = choose_parameters(palette, delta_l);
            if q * q >= palette {
                break; // fixed point reached early
            }
            for (e, out) in next.iter_mut().enumerate() {
                neighborhood.clear();
                for_each_incident_color(g, &colors, EdgeId::new(e), |their| {
                    neighborhood.push(their);
                });
                *out = recolor(colors[e], &neighborhood, q);
            }
            std::mem::swap(&mut colors, &mut next);
            palette = q * q;
            stats = stats.then(round_cost);
        }
    } else {
        // Isolated edges only: every agent takes color 0 silently.
        colors.fill(0);
        palette = 1;
    }

    // Phase 2: color reduction to `target`, per the configured strategy.
    // Only the deciding class gathers each round; every round is still
    // charged at full broadcast cost. Mex runs on the u64-word
    // `PaletteSet` kernel (see `crate::bitset`) — allocation-free at
    // these limits.
    let mut scratch = PaletteSet::new();
    let final_palette = match cfg.reduction {
        ReductionStrategy::Basic => basic_phase(
            g,
            &mut colors,
            palette,
            target,
            &mut scratch,
            &mut stats,
            round_cost,
        ),
        ReductionStrategy::KuhnWattenhofer => kw_phase(
            g,
            &mut colors,
            palette,
            target,
            &mut scratch,
            &mut stats,
            round_cost,
        ),
    };

    let colors_u32: Result<Vec<u32>, _> = colors.iter().map(|&c| u32::try_from(c)).collect();
    let colors_u32 = colors_u32.map_err(|_| AlgoError::InvariantViolated {
        reason: "palette exceeds u32 after reduction".into(),
    })?;
    Ok((colors_u32, final_palette, stats))
}

/// Basic reduction in edge space: one top color class per round, each
/// class a matching in L(G)-adjacency terms, so its agents decide
/// simultaneously and in place. A recolored agent drops below `target`,
/// where no later round looks, so one class index serves the cascade.
fn basic_phase<V: GraphView>(
    g: &V,
    colors: &mut [u64],
    palette: u64,
    target: u64,
    scratch: &mut PaletteSet,
    stats: &mut NetworkStats,
    round_cost: NetworkStats,
) -> u64 {
    if palette <= target {
        return palette.max(1);
    }
    let mut classes = ClassIndex::build(colors.iter().copied(), target..palette);
    for top in (target..palette).rev() {
        for e in classes.take(top) {
            let eid = EdgeId::new(num::usize_from(e));
            let free = scratch
                .mex_marked(target, |mark| for_each_incident_color(g, colors, eid, mark))
                // lint: allow(panic, "2Δ − 2 incident edges cannot block 2Δ − 1 colors")
                .expect("2Δ − 2 incident edges cannot block 2Δ − 1 colors");
            colors[num::usize_from(e)] = free;
        }
        *stats = stats.then(round_cost);
    }
    target
}

/// Kuhn–Wattenhofer reduction in edge space: blockwise halving phases
/// (vertex-disjoint palette blocks run in the same rounds), then the
/// basic tail — the exact decision sequence of
/// [`reduction::kw_reduction`](crate::reduction::kw_reduction) on L(G).
/// Round `step` of a phase is decided by the agents whose local color
/// (color mod 2t) is `2t − 1 − step`, in every block at once; they move
/// below `t`, so one index per phase, keyed by local color, stays exact.
/// Deciding in place is safe: same-block deciders are never adjacent,
/// and a decider only reads its own block.
fn kw_phase<V: GraphView>(
    g: &V,
    colors: &mut [u64],
    palette: u64,
    target: u64,
    scratch: &mut PaletteSet,
    stats: &mut NetworkStats,
    round_cost: NetworkStats,
) -> u64 {
    let t = target;
    let mut m = palette.max(1);
    while m > 2 * t {
        let blocks = m.div_ceil(2 * t);
        let mut classes = ClassIndex::build(colors.iter().map(|&c| c % (2 * t)), t..2 * t);
        for step in 0..t {
            let top_local = 2 * t - 1 - step;
            for e in classes.take(top_local) {
                let eid = EdgeId::new(num::usize_from(e));
                let b = colors[eid.index()] / (2 * t);
                // Only same-block neighbors constrain the local mex.
                let free = scratch
                    .mex_marked(t, |mark| {
                        for_each_incident_color(g, colors, eid, |c| {
                            if c / (2 * t) == b {
                                mark(c % (2 * t));
                            }
                        });
                    })
                    // lint: allow(panic, "Δ_L same-block neighbors cannot block t ≥ Δ_L + 1 colors")
                    .expect("Δ_L same-block neighbors cannot block t ≥ Δ_L + 1 colors");
                colors[eid.index()] = b * 2 * t + free;
            }
            *stats = stats.then(round_cost);
        }
        // All local colors are now < t; renumber blocks densely (local).
        for c in colors.iter_mut() {
            let b = *c / (2 * t);
            let local = *c % (2 * t);
            debug_assert!(local < t, "halving phase left a local color ≥ t");
            *c = b * t + local;
        }
        m = blocks * t;
    }
    if m <= t {
        return m.max(1);
    }
    basic_phase(g, colors, m, t, scratch, stats, round_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta_plus_one::edge_coloring_with_target;
    use decolor_graph::generators;

    #[test]
    fn matches_line_graph_pipeline_bit_for_bit() {
        for (g, label) in [
            (generators::gnm(80, 320, 5).unwrap(), "gnm(80,320)"),
            (generators::random_regular(60, 10, 2).unwrap(), "10-regular"),
            (generators::path(12).unwrap(), "path"),
            (generators::complete(9).unwrap(), "K9"),
        ] {
            let delta = g.max_degree() as u64;
            for target in [2 * delta - 1, 2 * delta + 6] {
                let (direct, ds) =
                    edge_coloring_direct(&g, target, SubroutineConfig::default()).unwrap();
                let (via_lg, ls) =
                    edge_coloring_with_target(&g, target, SubroutineConfig::default()).unwrap();
                assert_eq!(
                    direct.as_slice(),
                    via_lg.as_slice(),
                    "colorings diverge on {label} at target {target}"
                );
                assert_eq!(direct.palette(), via_lg.palette());
                assert_eq!(
                    ds.rounds, ls.rounds,
                    "round counts diverge on {label} at target {target}"
                );
            }
        }
    }

    #[test]
    fn basic_strategy_also_matches() {
        let g = generators::gnm(50, 160, 7).unwrap();
        let delta = g.max_degree() as u64;
        let cfg = SubroutineConfig {
            reduction: ReductionStrategy::Basic,
        };
        let (direct, ds) = edge_coloring_direct(&g, 2 * delta - 1, cfg).unwrap();
        let (via_lg, ls) = edge_coloring_with_target(&g, 2 * delta - 1, cfg).unwrap();
        assert_eq!(direct.as_slice(), via_lg.as_slice());
        assert_eq!(ds.rounds, ls.rounds);
    }

    #[test]
    fn proper_and_exact_palette_at_larger_delta() {
        // Δ = 40 here would already need a 39-regular line graph of
        // ~12k vertices; direct edge space stays O(n + m).
        let g = generators::random_regular(128, 40, 11).unwrap();
        let (ec, stats) = edge_coloring_direct(&g, 79, SubroutineConfig::default()).unwrap();
        assert!(ec.is_proper(&g));
        assert_eq!(ec.palette(), 79);
        assert!(stats.rounds > 0);
        assert_eq!(stats.messages % (2 * g.num_edges() as u64), 0);
    }

    #[test]
    fn degenerate_graphs() {
        let g = decolor_graph::GraphBuilder::new(3).build();
        let (ec, stats) = edge_coloring_direct(&g, 1, SubroutineConfig::default()).unwrap();
        assert!(ec.is_empty());
        assert_eq!(stats.rounds, 0);

        let g = generators::path(2).unwrap();
        let (ec, _) = edge_coloring_direct(&g, 1, SubroutineConfig::default()).unwrap();
        assert!(ec.is_proper(&g));
        assert_eq!(ec.palette(), 1);
    }

    #[test]
    fn rejects_tight_target() {
        let g = generators::complete(5).unwrap();
        assert!(edge_coloring_direct(&g, 6, SubroutineConfig::default()).is_err());
    }
}
