//! **Paper-bounds conformance suite**: for a grid of (n, Δ, D, S, a)
//! workloads, the measured palette sizes and round counts of every
//! pipeline must stay within the paper's analytic bounds — the *same*
//! formulas (`decolor_core::analysis`, `linial::final_palette_bound`) the
//! bench bins record into `target/experiments.jsonl` and
//! `experiments_report` diffs in EXPERIMENTS.md. A bound violation here
//! fails `cargo test` instead of only being flagged in a report.
//!
//! Palette bounds are asserted **exactly** (they are theorems, not
//! estimates). Round counts are stated by the paper only up to Õ(·), so
//! each is asserted against its analytic *shape* times an explicit slack
//! constant; the constants are fixed here and shared by every grid row,
//! so a regression that changes the round *shape* (not just a constant)
//! trips the suite.

use decolor_core::analysis;
use decolor_core::arboricity::{corollary55, theorem52, theorem53, theorem54};
use decolor_core::cd_coloring::{cd_coloring, cd_edge_coloring_spilled, CdParams};
use decolor_core::delta_plus_one::SubroutineConfig;
use decolor_core::linial::{final_palette_bound, linial_coloring};
use decolor_core::star_partition::{
    star_partition_edge_coloring, star_partition_edge_coloring_spilled, StarPartitionParams,
};
use decolor_graph::line_graph::LineGraph;
use decolor_graph::{generators, Graph};
use decolor_runtime::{IdAssignment, Network};

/// Iterated logarithm (the paper's log*), matching `util::log_star`'s
/// definition: iterations of log₂ until the value drops to ≤ 1.
fn log_star(mut x: f64) -> u64 {
    let mut it = 0u64;
    while x > 1.0 {
        x = x.log2();
        it += 1;
    }
    it
}

/// Õ(·) slack multipliers for the round-count assertions (see module
/// docs). One constant per pipeline, shared across the whole grid.
const LINIAL_ROUND_SLACK: u64 = 3; // additive: rounds ≤ log*(id space) + 3
const STAR_ROUND_SLACK: f64 = 48.0;
const T52_ROUND_SLACK: f64 = 16.0;
const T53_ROUND_SLACK: f64 = 24.0;
const T54_ROUND_SLACK: f64 = 24.0;
const CD_ROUND_SLACK: f64 = 48.0;

#[test]
fn linial_palette_and_rounds_within_bounds() {
    // Grid over (n, Δ): the bound is the O(Δ²) fixed point and the
    // O(log* n) round count, measured from a sparse adversarial ID space
    // exactly like the `scaling` Linial row.
    for (n, d, seed) in [
        (256usize, 4usize, 1u64),
        (1024, 8, 2),
        (4096, 8, 3),
        (4096, 16, 4),
        (16384, 32, 5),
    ] {
        let g = generators::random_regular(n, d, seed).unwrap();
        let stride = (u64::from(u32::MAX) / n as u64).min(1 << 16);
        let ids = IdAssignment::sparse(n, stride, 2);
        let mut net = Network::new(&g);
        let res = linial_coloring(&mut net, &ids).unwrap();
        assert!(res.coloring.is_proper(&g));
        let bound = final_palette_bound(g.max_degree());
        assert!(
            res.coloring.palette() <= bound,
            "n = {n}, Δ = {d}: palette {} exceeds O(Δ²) bound {bound}",
            res.coloring.palette()
        );
        let round_bound = log_star(ids.id_space() as f64) + LINIAL_ROUND_SLACK;
        assert!(
            net.stats().rounds <= round_bound,
            "n = {n}, Δ = {d}: {} rounds exceed log* bound {round_bound}",
            net.stats().rounds
        );
    }
}

#[test]
fn star_partition_palette_and_rounds_within_bounds() {
    // Grid over (n, Δ, x): Theorem 4.1's 2^{x+1}Δ colors in
    // Õ(x·Δ^{1/(2x+2)}) + O(log* n) rounds.
    for (n, d, x, seed) in [
        (256usize, 8usize, 1usize, 1u64),
        (1024, 8, 1, 2),
        (1024, 16, 2, 3),
        (4096, 16, 1, 4),
        (2048, 32, 3, 5),
    ] {
        let g = generators::random_regular(n, d, seed).unwrap();
        let res =
            star_partition_edge_coloring(&g, &StarPartitionParams::for_levels(&g, x)).unwrap();
        assert!(res.coloring.is_proper(&g));
        let bound = analysis::table1_ours_colors(d as u64, x as u32);
        assert!(
            res.coloring.palette() <= bound,
            "n = {n}, Δ = {d}, x = {x}: palette {} exceeds 2^{}Δ = {bound}",
            res.coloring.palette(),
            x + 1
        );
        let shape = analysis::table1_ours_time(d as u64, x as u32, n as u64);
        let round_bound = (STAR_ROUND_SLACK * shape).ceil() as u64;
        assert!(
            res.stats.rounds <= round_bound,
            "n = {n}, Δ = {d}, x = {x}: {} rounds exceed shape bound {round_bound}",
            res.stats.rounds
        );
    }
}

/// Bounded-arboricity workloads with their arboricity bound `a`. The
/// two preferential-attachment rows (each vertex attaches `a` edges) are
/// the heavy-tailed ones: Δ reaches 156 against a ≤ 3.
fn arboricity_grid() -> Vec<(Graph, usize)> {
    vec![
        (generators::forest_union(512, 2, 8, 1).unwrap(), 2),
        (generators::forest_union(2048, 2, 12, 2).unwrap(), 2),
        (generators::forest_union(1024, 4, 8, 3).unwrap(), 4),
        (generators::grid(40, 40).unwrap(), 2),
        (generators::random_tree(1500, 4).unwrap(), 1),
        (generators::barabasi_albert(4096, 2, 1).unwrap(), 2),
        (generators::barabasi_albert(2048, 3, 2).unwrap(), 3),
    ]
}

#[test]
fn theorem52_palette_and_rounds_within_bounds() {
    for (g, a) in arboricity_grid() {
        let n = g.num_vertices();
        let res = theorem52(&g, a, 2.5, SubroutineConfig::default()).unwrap();
        assert!(res.coloring.is_proper(&g));
        let bound = analysis::theorem52_palette(g.max_degree() as u64, a as u64, 2.5);
        assert!(
            res.coloring.palette() <= bound,
            "n = {n}, a = {a}: palette {} exceeds Δ + O(a) bound {bound}",
            res.coloring.palette()
        );
        let shape = analysis::theorem52_time(a as u64, n as u64);
        let round_bound = (T52_ROUND_SLACK * shape).ceil() as u64;
        assert!(
            res.stats.rounds <= round_bound,
            "n = {n}, a = {a}: {} rounds exceed O(a log n) bound {round_bound}",
            res.stats.rounds
        );
    }
}

#[test]
fn theorem53_palette_and_rounds_within_bounds() {
    for (g, a) in arboricity_grid() {
        let n = g.num_vertices();
        let res = theorem53(&g, a, 2.5, SubroutineConfig::default()).unwrap();
        assert!(res.coloring.is_proper(&g));
        let bound = analysis::theorem53_palette(g.max_degree() as u64, a as u64, 2.5);
        assert!(
            res.coloring.palette() <= bound,
            "n = {n}, a = {a}: palette {} exceeds Δ + O(√(Δâ)) bound {bound}",
            res.coloring.palette()
        );
        let shape = analysis::theorem53_time(a as u64, n as u64);
        let round_bound = (T53_ROUND_SLACK * shape).ceil() as u64;
        assert!(
            res.stats.rounds <= round_bound,
            "n = {n}, a = {a}: {} rounds exceed O(√a log n) bound {round_bound}",
            res.stats.rounds
        );
    }
}

#[test]
fn theorem54_palette_and_rounds_within_bounds() {
    for (g, a) in arboricity_grid() {
        for x in [2usize, 3] {
            let n = g.num_vertices();
            let res = theorem54(&g, a, 2.5, x, SubroutineConfig::default()).unwrap();
            assert!(res.coloring.is_proper(&g));
            // The closed form covers the connector levels; the final
            // Theorem 5.2 stage contributes its own factor (the paper
            // folds it into the +3 per level asymptotically; at these
            // laptop-scale Δ the explicit factor-2 slack of the existing
            // theorem tests applies).
            let bound =
                2 * analysis::theorem54_palette(g.max_degree() as u64, a as u64, 2.5, x as u32);
            assert!(
                res.coloring.palette() <= bound,
                "n = {n}, a = {a}, x = {x}: palette {} exceeds (Δ^(1/x)+â^(1/x)+3)^x bound {bound}",
                res.coloring.palette()
            );
            let shape = analysis::theorem54_time(a as u64, 2.5, x as u32, n as u64);
            let round_bound = (T54_ROUND_SLACK * shape).ceil() as u64;
            assert!(
                res.stats.rounds <= round_bound,
                "n = {n}, a = {a}, x = {x}: {} rounds exceed shape bound {round_bound}",
                res.stats.rounds
            );
        }
    }
}

/// Corollary 5.5 runs Theorem 5.4 with the (x, q) it chooses, so its
/// palette and rounds answer to Theorem 5.4's bounds at that (x, q).
#[test]
fn corollary55_palette_and_rounds_within_bounds() {
    for (g, a) in arboricity_grid() {
        let n = g.num_vertices();
        let (res, p) = corollary55(&g, a, SubroutineConfig::default()).unwrap();
        assert!(res.coloring.is_proper(&g));
        let x = p.x as u32;
        let bound = analysis::theorem54_palette(g.max_degree() as u64, a as u64, p.q, x);
        assert!(
            res.coloring.palette() <= bound,
            "n = {n}, a = {a} (x = {x}, q = {}): palette {} exceeds \
             (Δ^(1/x)+â^(1/x)+3)^x bound {bound}",
            p.q,
            res.coloring.palette()
        );
        let shape = analysis::theorem54_time(a as u64, p.q, x, n as u64);
        let round_bound = (T54_ROUND_SLACK * shape).ceil() as u64;
        assert!(
            res.stats.rounds <= round_bound,
            "n = {n}, a = {a} (x = {x}, q = {}): {} rounds exceed shape bound {round_bound}",
            p.q,
            res.stats.rounds
        );
    }
}

/// The same analytic bounds hold when the pipelines run over the mmap
/// backend — t53/t54 on a spilled CSR root, and the streamed star
/// connector / cd line-graph paths (the scaling bench's new mmap rows).
/// Equality with the ram results is pinned by the backend-equivalence
/// suite; this asserts the paper bounds directly on the mmap outputs.
#[test]
fn bounds_hold_on_mmap_backend() {
    let root = std::env::temp_dir().join(format!("decolor-bounds-mmap-{}", std::process::id()));

    let g = generators::forest_union(1024, 2, 8, 1).unwrap();
    let sc = decolor_graph::storage::ShardedCsr::from_graph(root.join("arb"), &g).unwrap();
    let (n, a) = (g.num_vertices(), 2usize);
    let t53 = theorem53(&sc, a, 2.5, SubroutineConfig::default()).unwrap();
    assert!(t53.coloring.is_proper(&g));
    assert!(
        t53.coloring.palette() <= analysis::theorem53_palette(g.max_degree() as u64, a as u64, 2.5)
    );
    let round_bound =
        (T53_ROUND_SLACK * analysis::theorem53_time(a as u64, n as u64)).ceil() as u64;
    assert!(t53.stats.rounds <= round_bound, "t53-mmap rounds");
    let t54 = theorem54(&sc, a, 2.5, 2, SubroutineConfig::default()).unwrap();
    assert!(t54.coloring.is_proper(&g));
    assert!(
        t54.coloring.palette()
            <= 2 * analysis::theorem54_palette(g.max_degree() as u64, a as u64, 2.5, 2)
    );
    let round_bound =
        (T54_ROUND_SLACK * analysis::theorem54_time(a as u64, 2.5, 2, n as u64)).ceil() as u64;
    assert!(t54.stats.rounds <= round_bound, "t54-mmap rounds");

    let rg = generators::random_regular(256, 8, 1).unwrap();
    let rsc = decolor_graph::storage::ShardedCsr::from_graph(root.join("reg"), &rg).unwrap();
    let star = star_partition_edge_coloring_spilled(
        &rsc,
        &StarPartitionParams::for_levels(&rg, 1),
        &root.join("conn"),
    )
    .unwrap();
    assert!(star.coloring.is_proper(&rg));
    assert!(star.coloring.palette() <= analysis::table1_ours_colors(8, 1));

    let params = CdParams::for_levels(rg.max_degree().max(2), 1);
    let (cd, _) = cd_edge_coloring_spilled(&rsc, &params, &root.join("lg")).unwrap();
    assert!(cd.is_proper(&rg));
    // D = 2, S = Δ under the canonical line-graph identification.
    assert!(cd.palette() <= analysis::cd_palette_product(2, 8, params.t as u64, 1));

    drop(sc);
    drop(rsc);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn cd_coloring_palette_and_rounds_within_bounds() {
    // Grid over (n, D, S): line graphs of d-regular graphs give D = 2,
    // S = d; a 3-uniform hypergraph line graph gives D = 3.
    let mut cases: Vec<(decolor_graph::Graph, decolor_graph::cliques::CliqueCover)> = Vec::new();
    for (base_n, d, seed) in [(64usize, 8usize, 1u64), (256, 8, 2), (128, 16, 3)] {
        let base = generators::random_regular(base_n, d, seed).unwrap();
        let lg = LineGraph::new(&base);
        cases.push((lg.graph, lg.cover));
    }
    let h = generators::random_uniform_hypergraph(120, 90, 3, 8, 4).unwrap();
    let lg = h.line_graph();
    cases.push((lg.graph, lg.cover));

    for (g, cover) in &cases {
        for x in [1usize, 2] {
            let n = g.num_vertices();
            let d = cover.diversity() as u64;
            let s = cover.max_clique_size() as u64;
            let params = CdParams::for_levels(s as usize, x);
            let ids = IdAssignment::sequential(n);
            let res = cd_coloring(g, cover, &params, &ids).unwrap();
            assert!(res.coloring.is_proper(g));
            // The realized product bound is itself bounded by the exact
            // per-level palette product of Algorithm 1 (what `scaling`
            // records as the cd row's analytic column).
            let product = analysis::cd_palette_product(d, s, params.t as u64, x as u32);
            assert!(
                res.coloring.palette() <= res.palette_bound,
                "n = {n}, D = {d}, S = {s}, x = {x}: palette {} exceeds realized bound {}",
                res.coloring.palette(),
                res.palette_bound
            );
            assert!(
                res.palette_bound <= product,
                "n = {n}, D = {d}, S = {s}, x = {x}: realized bound {} exceeds product {product}",
                res.palette_bound
            );
            let shape = analysis::table2_ours_time(d, s, x as u32, n as u64);
            let round_bound = (CD_ROUND_SLACK * shape).ceil() as u64;
            assert!(
                res.stats.rounds <= round_bound,
                "n = {n}, D = {d}, S = {s}, x = {x}: {} rounds exceed shape bound {round_bound}",
                res.stats.rounds
            );
        }
    }
}
