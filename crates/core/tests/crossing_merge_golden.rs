//! Golden fingerprints for every pipeline built on the Lemma 5.1
//! crossing merge (`crossing_merge::color_crossing_edges`): Theorem 5.2
//! on a whole graph and on a borrowed edge view, Theorems 5.3 and 5.4,
//! and the one-sided specialization on its own.
//!
//! Each case folds the edge colors, the palette and the measured
//! [`NetworkStats`] into one CRC32, so a change to any greedy decision,
//! palette or message ledger fails here. The merge is a pure function of
//! its input, so a faster implementation must leave every constant as
//! it is. Every case runs at pool widths 1 and 4.

use decolor_core::arboricity::{theorem52, theorem52_on, theorem53, theorem54};
use decolor_core::crossing_merge::one_sided_edge_coloring;
use decolor_core::delta_plus_one::SubroutineConfig;
use decolor_graph::coloring::EdgeColoring;
use decolor_graph::storage::Crc32;
use decolor_graph::subgraph::EdgeSubgraphView;
use decolor_graph::{generators, EdgeId, Graph};
use decolor_runtime::NetworkStats;

/// CRC32 over the colors (u32 LE), the palette and the three ledger
/// counters (u64 LE).
fn fingerprint(coloring: &EdgeColoring, stats: NetworkStats) -> u32 {
    let mut crc = Crc32::new();
    for &c in coloring.as_slice() {
        crc.update(&c.to_le_bytes());
    }
    crc.update(&coloring.palette().to_le_bytes());
    for x in [stats.rounds, stats.messages, stats.payload_bytes] {
        crc.update(&x.to_le_bytes());
    }
    crc.finish()
}

/// Runs `run` at pool widths 1 and 4 and checks both fingerprints.
fn assert_golden(name: &str, expected: u32, run: impl Fn() -> (EdgeColoring, NetworkStats)) {
    for threads in [1usize, 4] {
        let (coloring, stats) = rayon::with_num_threads(threads, &run);
        let got = fingerprint(&coloring, stats);
        assert_eq!(
            got,
            expected,
            "{name} at {threads} threads: fingerprint {got:#010x}, expected {expected:#010x} \
             (palette {}, {stats:?})",
            coloring.palette()
        );
    }
}

fn ba(seed: u64) -> Graph {
    generators::barabasi_albert(1 << 12, 2, seed).unwrap()
}

#[test]
fn theorem52_barabasi_albert_seed_1() {
    let g = ba(1);
    assert_golden("theorem52 BA seed 1", 0x7fa5_aeb1, || {
        let r = theorem52(&g, 2, 2.5, SubroutineConfig::default()).unwrap();
        (r.coloring, r.stats)
    });
}

#[test]
fn theorem52_barabasi_albert_seed_2() {
    let g = ba(2);
    assert_golden("theorem52 BA seed 2", 0x82d1_e1d6, || {
        let r = theorem52(&g, 2, 2.5, SubroutineConfig::default()).unwrap();
        (r.coloring, r.stats)
    });
}

#[test]
fn theorem52_barabasi_albert_seed_3() {
    let g = ba(3);
    assert_golden("theorem52 BA seed 3", 0x94a1_c987, || {
        let r = theorem52(&g, 2, 2.5, SubroutineConfig::default()).unwrap();
        (r.coloring, r.stats)
    });
}

#[test]
fn theorem52_forest_union() {
    let g = generators::forest_union(2048, 3, 8, 7).unwrap();
    assert_golden("theorem52 forest union", 0x0eb3_79d7, || {
        let r = theorem52(&g, 3, 2.5, SubroutineConfig::default()).unwrap();
        (r.coloring, r.stats)
    });
}

#[test]
fn theorem52_on_edge_view() {
    // Two thirds of a skewed graph's edges, served off the parent CSR.
    let g = ba(4);
    let edges: Vec<EdgeId> = g.edges().filter(|e| e.index() % 3 != 0).collect();
    let view = EdgeSubgraphView::new(&g, edges).unwrap();
    assert_golden("theorem52_on edge view", 0xdf45_bf80, || {
        let r = theorem52_on(&g, &view, 2, 2.5, 1, SubroutineConfig::default()).unwrap();
        (r.coloring, r.stats)
    });
}

#[test]
fn theorem53_barabasi_albert() {
    let g = ba(5);
    assert_golden("theorem53 BA seed 5", 0xa44e_a087, || {
        let r = theorem53(&g, 2, 2.5, SubroutineConfig::default()).unwrap();
        (r.coloring, r.stats)
    });
}

#[test]
fn theorem54_two_levels_forest_union() {
    // x = 2 colors the bipartite orientation connector with
    // `one_sided_edge_coloring` at the outer level.
    let g = generators::forest_union(1024, 4, 12, 9).unwrap();
    assert_golden("theorem54 x = 2 forest union", 0xea5c_81a5, || {
        let r = theorem54(&g, 4, 2.5, 2, SubroutineConfig::default()).unwrap();
        (r.coloring, r.stats)
    });
}

#[test]
fn one_sided_complete_bipartite() {
    let g = generators::complete_bipartite(24, 40).unwrap();
    let in_a: Vec<bool> = (0..64).map(|v| v < 24).collect();
    assert_golden("one_sided K_{24,40}", 0x43a6_db0a, || {
        one_sided_edge_coloring(&g, &in_a, 63).unwrap()
    });
}
