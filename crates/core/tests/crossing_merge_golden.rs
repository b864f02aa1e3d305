//! Golden fingerprints for the pipelines whose inner loops have been
//! rewritten for speed:
//!
//! - every pipeline built on the Lemma 5.1 crossing merge
//!   (`crossing_merge::color_crossing_edges`): Theorem 5.2 on a whole
//!   graph and on a borrowed edge view, Theorems 5.3 and 5.4, and the
//!   one-sided specialization on its own;
//! - the vertex-space coloring subroutine (Linial, then the basic or
//!   Kuhn–Wattenhofer reduction) on its own, on a whole graph and on an
//!   induced view, the chunked Linial realization, and CD-Coloring of a
//!   line graph in RAM and spilled to disk;
//! - the CRC32 digests a store's manifest records for its files.
//!
//! Each coloring case folds the colors, the palette and the measured
//! [`NetworkStats`] into one CRC32, so a change to any greedy decision,
//! palette or message ledger fails here. The algorithms are pure
//! functions of their input, so a faster implementation must leave every
//! constant as it is. Every case runs at pool widths 1 and 4.

use decolor_core::arboricity::{theorem52, theorem52_on, theorem53, theorem54};
use decolor_core::cd_coloring::{cd_coloring, cd_edge_coloring_spilled, CdParams};
use decolor_core::crossing_merge::one_sided_edge_coloring;
use decolor_core::delta_plus_one::{
    vertex_coloring_with_target, ReductionStrategy, Seed, SubroutineConfig,
};
use decolor_core::linial::linial_coloring_chunked;
use decolor_graph::coloring::{Color, EdgeColoring, VertexColoring};
use decolor_graph::line_graph::LineGraph;
use decolor_graph::storage::{Crc32, ShardedCsr, ShardedCsrBuilder};
use decolor_graph::subgraph::{EdgeSubgraphView, GraphView, InducedSubgraphView};
use decolor_graph::{generators, EdgeId, Graph, VertexId};
use decolor_runtime::{IdAssignment, NetworkStats};

/// A coloring the fingerprint can fold: its colors and its palette.
trait Colored {
    fn colors(&self) -> &[Color];
    fn palette(&self) -> u64;
}

impl Colored for EdgeColoring {
    fn colors(&self) -> &[Color] {
        self.as_slice()
    }
    fn palette(&self) -> u64 {
        EdgeColoring::palette(self)
    }
}

impl Colored for VertexColoring {
    fn colors(&self) -> &[Color] {
        self.as_slice()
    }
    fn palette(&self) -> u64 {
        VertexColoring::palette(self)
    }
}

/// CRC32 over the colors (u32 LE), the palette and the three ledger
/// counters (u64 LE).
fn fingerprint(coloring: &impl Colored, stats: NetworkStats) -> u32 {
    let mut crc = Crc32::new();
    for &c in coloring.colors() {
        crc.update(&c.to_le_bytes());
    }
    crc.update(&coloring.palette().to_le_bytes());
    for x in [stats.rounds, stats.messages, stats.payload_bytes] {
        crc.update(&x.to_le_bytes());
    }
    crc.finish()
}

/// Runs `run` at pool widths 1 and 4 and checks both fingerprints.
fn assert_golden<C: Colored>(name: &str, expected: u32, run: impl Fn() -> (C, NetworkStats)) {
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

/// A scratch directory unique to this process and `name`.
fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("decolor-golden-{}-{name}", std::process::id()))
}

/// Streams `g` into a sharded store with 2^10-entry shards, so the
/// store spans several endpoint and adjacency files.
fn store(g: &Graph, dir: &std::path::Path) -> ShardedCsr {
    let mut b = ShardedCsrBuilder::with_shard_bits(dir, g.num_vertices(), 10).unwrap();
    for (_, [u, v]) in g.edge_list() {
        b.push_edge(u.index(), v.index()).unwrap();
    }
    b.finish().unwrap()
}

fn regular(seed: u64) -> Graph {
    generators::random_regular(1 << 10, 8, seed).unwrap()
}

fn cd_line_graph(seed: u64, expected: u32) {
    let lg = LineGraph::new(&regular(seed));
    let params = CdParams::for_levels(lg.cover.max_clique_size(), 1);
    let ids = IdAssignment::sequential(lg.graph.num_vertices());
    assert_golden(&format!("cd_coloring L(G) seed {seed}"), expected, || {
        let r = cd_coloring(&lg.graph, &lg.cover, &params, &ids).unwrap();
        (r.coloring, r.stats)
    });
}

#[test]
fn cd_coloring_line_graph_seed_1() {
    cd_line_graph(1, 0xfaed_bbbf);
}

#[test]
fn cd_coloring_line_graph_seed_2() {
    cd_line_graph(2, 0xa9ba_958d);
}

#[test]
fn cd_edge_coloring_spilled_over_store() {
    let g = regular(1);
    let dir = scratch("cd-input");
    let sc = store(&g, &dir);
    let params = CdParams::for_levels(GraphView::max_degree(&sc), 1);
    assert_golden("cd_edge_coloring_spilled", 0x7bc8_de98, || {
        cd_edge_coloring_spilled(&sc, &params, &scratch("cd-lg")).unwrap()
    });
    drop(sc);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `vertex_coloring_with_target` from shuffled ids down to Δ + 1.
fn subroutine<V: GraphView>(g: &V, reduction: ReductionStrategy) -> (VertexColoring, NetworkStats) {
    let ids = IdAssignment::shuffled(g.num_vertices(), 5);
    let target = decolor_graph::num::to_u64(g.max_degree()) + 1;
    vertex_coloring_with_target(g, Seed::Ids(&ids), target, SubroutineConfig { reduction }).unwrap()
}

fn gnp() -> Graph {
    generators::gnp(1500, 0.01, 3).unwrap()
}

/// Two thirds of `gnp()`'s vertices, served off the parent CSR.
fn induced(g: &Graph) -> InducedSubgraphView<'_, Graph> {
    let keep: Vec<VertexId> = g.vertices().filter(|v| v.index() % 3 != 0).collect();
    InducedSubgraphView::new(g, keep).unwrap()
}

#[test]
fn subroutine_basic_gnp() {
    let g = gnp();
    assert_golden("basic gnp", 0xc023_4e58, || {
        subroutine(&g, ReductionStrategy::Basic)
    });
}

#[test]
fn subroutine_kw_gnp() {
    let g = gnp();
    assert_golden("kw gnp", 0x7a70_379b, || {
        subroutine(&g, ReductionStrategy::KuhnWattenhofer)
    });
}

#[test]
fn subroutine_basic_induced_view() {
    let g = gnp();
    let view = induced(&g);
    assert_golden("basic induced view", 0xa8e3_89df, || {
        subroutine(&view, ReductionStrategy::Basic)
    });
}

#[test]
fn subroutine_kw_induced_view() {
    let g = gnp();
    let view = induced(&g);
    assert_golden("kw induced view", 0x0fb8_5830, || {
        subroutine(&view, ReductionStrategy::KuhnWattenhofer)
    });
}

#[test]
fn linial_chunked_random_regular() {
    let g = generators::random_regular(1 << 12, 6, 4).unwrap();
    let ids = IdAssignment::shuffled(g.num_vertices(), 9);
    assert_golden("linial_coloring_chunked", 0xfdc6_39a2, || {
        let (r, stats) = linial_coloring_chunked(&g, &ids).unwrap();
        (r.coloring, stats)
    });
}

/// The digests a store's manifest records pin the on-disk format: a
/// store written by any build of the checksum must open and verify under
/// every other.
#[test]
fn store_manifest_crcs() {
    let dir = scratch("manifest");
    let sc = store(&regular(1), &dir);
    let mf = sc.manifest();
    let crcs: Vec<u32> = std::iter::once(&mf.offsets)
        .chain(&mf.ep)
        .chain(&mf.adj)
        .map(|r| r.crc)
        .collect();
    // offsets.bin, then ep.0.., then adj.0..
    let expected: [u32; 13] = [
        0x6b16_bd13,
        0x07f0_2b5c,
        0x06ce_bca5,
        0xc002_ee34,
        0x4f9b_fd32,
        0xd52b_b20d,
        0x9ae0_d348,
        0xe742_15d8,
        0x127d_e887,
        0xe861_0da5,
        0xa44c_cc27,
        0x79c8_5b92,
        0xc332_3386,
    ];
    assert_eq!(crcs, expected);
    sc.verify().unwrap();
    drop(sc);
    std::fs::remove_dir_all(&dir).unwrap();
}
