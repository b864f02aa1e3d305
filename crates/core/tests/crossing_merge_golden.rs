//! Golden fingerprints for every paper pipeline, so an implementation
//! can change freely as long as its outputs do not:
//!
//! - the §4 star-partition edge coloring (x ∈ {1, 2, 3}, the adaptive-t
//!   ablation, degenerate shapes) and the §4 star partition's labels;
//! - CD-Coloring (Algorithm 1) of line graphs with one and two levels and
//!   both `t` schedules, with the §3 trim on a Bron–Kerbosch cover, in RAM
//!   and spilled to disk, and the Theorem 2.4 clique decomposition;
//! - every pipeline built on the Lemma 5.1 crossing merge
//!   (`crossing_merge::color_crossing_edges`): Theorem 5.2 on a whole
//!   graph and on a borrowed edge view, Theorems 5.3 and 5.4, and the
//!   one-sided specialization on its own;
//! - the vertex-space coloring subroutine (Linial, then the basic or
//!   Kuhn–Wattenhofer reduction) on its own, on a whole graph and on an
//!   induced view, and the chunked Linial realization;
//! - the clique connector of a cover whose cliques overlap;
//! - the CRC32 digests a store's manifest records for its files.
//!
//! Each coloring case folds the colors, the palette and the measured
//! [`NetworkStats`] into one CRC32 (plus any bound the result reports),
//! so a change to any greedy decision, palette or message ledger fails
//! here; a partition case folds its labels and bounds; a graph case folds
//! its edge list in edge-id order. The algorithms are pure functions of
//! their input, so a faster implementation must leave every constant as
//! it is. Every case runs at pool widths 1 and 4.

use decolor_core::arboricity::{theorem52, theorem52_on, theorem53, theorem54};
use decolor_core::cd_coloring::{cd_coloring, cd_edge_coloring_spilled, CdColoring, CdParams};
use decolor_core::connectors::clique::clique_connector;
use decolor_core::crossing_merge::one_sided_edge_coloring;
use decolor_core::decomposition::{
    clique_decomposition, star_partition, CliqueDecomposition, StarPartition,
};
use decolor_core::delta_plus_one::{
    vertex_coloring_with_target, ReductionStrategy, Seed, SubroutineConfig,
};
use decolor_core::linial::linial_coloring_chunked;
use decolor_core::star_partition::{
    star_partition_edge_coloring, StarPartitionParams, StarPartitionResult,
};
use decolor_graph::cliques::cover_from_all_maximal_cliques;
use decolor_graph::coloring::{EdgeColoring, VertexColoring};
use decolor_graph::line_graph::LineGraph;
use decolor_graph::storage::{Crc32, ShardedCsr, ShardedCsrBuilder};
use decolor_graph::subgraph::{EdgeSubgraphView, GraphView, InducedSubgraphView};
use decolor_graph::{generators, EdgeId, Graph, VertexId};
use decolor_runtime::{IdAssignment, NetworkStats};

/// What a fingerprint can fold: a coloring (its colors, then its
/// palette, then any bound its pipeline reports), a partition (its labels,
/// then its bounds) or a graph (its edges in id order).
trait Fingerprinted {
    fn fold(&self, crc: &mut Crc32);
}

impl Fingerprinted for EdgeColoring {
    fn fold(&self, crc: &mut Crc32) {
        for &c in self.as_slice() {
            crc.update(&c.to_le_bytes());
        }
        crc.update(&self.palette().to_le_bytes());
    }
}

impl Fingerprinted for VertexColoring {
    fn fold(&self, crc: &mut Crc32) {
        for &c in self.as_slice() {
            crc.update(&c.to_le_bytes());
        }
        crc.update(&self.palette().to_le_bytes());
    }
}

impl Fingerprinted for StarPartitionResult {
    fn fold(&self, crc: &mut Crc32) {
        self.coloring.fold(crc);
        crc.update(&self.untrimmed_palette.to_le_bytes());
    }
}

impl Fingerprinted for CdColoring {
    fn fold(&self, crc: &mut Crc32) {
        self.coloring.fold(crc);
        crc.update(&self.palette_bound.to_le_bytes());
    }
}

/// Folds partition labels (u64 LE each) and then the counts and bounds.
fn fold_partition(crc: &mut Crc32, labels: &[usize], counts: [usize; 2], bound: u64) {
    for &l in labels {
        crc.update(&decolor_graph::num::to_u64(l).to_le_bytes());
    }
    for c in counts {
        crc.update(&decolor_graph::num::to_u64(c).to_le_bytes());
    }
    crc.update(&bound.to_le_bytes());
}

impl Fingerprinted for StarPartition {
    fn fold(&self, crc: &mut Crc32) {
        fold_partition(
            crc,
            &self.class,
            [self.num_classes, self.star_bound],
            self.classes_bound,
        );
    }
}

impl Fingerprinted for CliqueDecomposition {
    fn fold(&self, crc: &mut Crc32) {
        fold_partition(
            crc,
            &self.part,
            [self.num_parts, self.clique_bound],
            self.parts_bound,
        );
    }
}

impl Fingerprinted for Graph {
    fn fold(&self, crc: &mut Crc32) {
        crc.update(&decolor_graph::num::to_u64(self.num_vertices()).to_le_bytes());
        for (_, [u, v]) in self.edge_list() {
            for w in [u, v] {
                crc.update(&decolor_graph::num::to_u64(w.index()).to_le_bytes());
            }
        }
    }
}

/// CRC32 over the folded value, then the three ledger counters (u64 LE).
fn fingerprint(value: &impl Fingerprinted, stats: NetworkStats) -> u32 {
    let mut crc = Crc32::new();
    value.fold(&mut crc);
    for x in [stats.rounds, stats.messages, stats.payload_bytes] {
        crc.update(&x.to_le_bytes());
    }
    crc.finish()
}

/// Runs `run` at pool widths 1 and 4 and checks both fingerprints.
fn assert_golden<C: Fingerprinted>(name: &str, expected: u32, run: impl Fn() -> (C, NetworkStats)) {
    for threads in [1usize, 4] {
        let (value, stats) = rayon::with_num_threads(threads, &run);
        let got = fingerprint(&value, stats);
        assert_eq!(
            got, expected,
            "{name} at {threads} threads: fingerprint {got:#010x}, expected {expected:#010x} \
             ({stats:?})"
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

/// CD-Coloring with two levels: the second level restricts the cover to
/// each color class's partial subset view. A fixed `t = 3` keeps the two
/// schedules apart: the per-level one re-derives `t` from the clique
/// size at each level (2 at the top, S = 8).
fn cd_two_levels(per_level_t: bool, expected: u32) {
    let lg = LineGraph::new(&regular(1));
    let params = CdParams {
        t: 3,
        x: 2,
        per_level_t,
        ..CdParams::default()
    };
    let ids = IdAssignment::sequential(lg.graph.num_vertices());
    let name = format!("cd_coloring L(G) x = 2, per_level_t = {per_level_t}");
    assert_golden(&name, expected, || {
        let r = cd_coloring(&lg.graph, &lg.cover, &params, &ids).unwrap();
        (r.coloring, r.stats)
    });
}

#[test]
fn cd_coloring_two_levels() {
    cd_two_levels(false, 0xa4ff_5c81);
}

#[test]
fn cd_coloring_two_levels_per_level_t() {
    cd_two_levels(true, 0x2ca9_3018);
}

/// The connector of a cover by every maximal clique: cliques overlap, so
/// a pair can fall into groups of several cliques and must be kept once.
#[test]
fn clique_connector_overlapping_cover() {
    let g = generators::gnm(300, 3000, 5).unwrap();
    let cover = cover_from_all_maximal_cliques(&g).unwrap();
    let grouped_pairs: usize = (0..cover.num_cliques())
        .flat_map(|q| {
            cover
                .clique(q)
                .chunks(3)
                .map(|c| c.len() * (c.len() - 1) / 2)
        })
        .sum();
    let kept = clique_connector(&g, &cover, 3).unwrap().graph.num_edges();
    assert!(kept < grouped_pairs, "no pair was deduplicated");
    assert_golden("clique_connector maximal cliques", 0x05b8_8172, || {
        let conn = clique_connector(&g, &cover, 3).unwrap();
        (conn.graph, NetworkStats::default())
    });
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

/// The seed of the fixed-seed paper-pipeline cases below.
const SEED: u64 = 7;

/// The families the §4 cases run on: sparse random, dense regular and
/// skewed (preferential attachment).
fn star_workloads() -> [(&'static str, Graph); 3] {
    [
        ("gnm(90, 270)", generators::gnm(90, 270, SEED).unwrap()),
        (
            "random_regular(96, 12)",
            generators::random_regular(96, 12, SEED).unwrap(),
        ),
        (
            "barabasi_albert(80, 3)",
            generators::barabasi_albert(80, 3, SEED).unwrap(),
        ),
    ]
}

fn star_coloring(g: &Graph, params: &StarPartitionParams) -> (StarPartitionResult, NetworkStats) {
    let r = star_partition_edge_coloring(g, params).unwrap();
    let stats = r.stats;
    (r, stats)
}

#[test]
fn star_partition_coloring_levels() {
    // Rows follow `star_workloads`, columns x = 1, 2, 3.
    let expected: [[u32; 3]; 3] = [
        [0x99b5_3c28, 0x34f1_097e, 0x5c11_9f8e],
        [0x4b84_1d73, 0xa9b6_16c6, 0x865a_55f8],
        [0x6109_e69a, 0x973f_b5f2, 0xa1c5_19a2],
    ];
    for ((label, g), row) in star_workloads().iter().zip(expected) {
        for (x, want) in (1..=3).zip(row) {
            let params = StarPartitionParams::for_levels(g, x);
            assert_golden(&format!("star coloring {label} x = {x}"), want, || {
                star_coloring(g, &params)
            });
        }
    }
}

/// The adaptive-t ablation recomputes t per stage from the class's own
/// maximum degree.
#[test]
fn star_partition_coloring_adaptive_t() {
    let g = generators::barabasi_albert(150, 4, 9).unwrap();
    let params = StarPartitionParams {
        adaptive_t: true,
        ..StarPartitionParams::for_levels(&g, 2)
    };
    assert_golden("star coloring adaptive t", 0xfe44_6902, || {
        star_coloring(&g, &params)
    });
}

/// Paths, stars, grids and an edgeless graph: the star coloring with one
/// level, and (where there are edges) the (t, x) = (2, 2) star partition.
#[test]
fn star_partition_degenerate_shapes() {
    let cases: [(&str, Graph, u32, Option<u32>); 4] = [
        (
            "path(17)",
            generators::path(17).unwrap(),
            0xe196_2c41,
            Some(0xd9be_3b80),
        ),
        (
            "star(30)",
            generators::star(30).unwrap(),
            0x6efc_7546,
            Some(0x090b_383b),
        ),
        (
            "grid(6, 7)",
            generators::grid(6, 7).unwrap(),
            0x6490_ae35,
            Some(0x0a56_5f5a),
        ),
        (
            "edgeless(5)",
            decolor_graph::GraphBuilder::new(5).build(),
            0xb772_aa5c,
            None,
        ),
    ];
    for (label, g, coloring, partition) in &cases {
        let params = StarPartitionParams::for_levels(g, 1);
        assert_golden(&format!("star coloring {label}"), *coloring, || {
            star_coloring(g, &params)
        });
        if let Some(want) = *partition {
            assert_golden(&format!("star partition {label}"), want, || {
                let sp = star_partition(g, 2, 2).unwrap();
                let stats = sp.stats;
                (sp, stats)
            });
        }
    }
}

#[test]
fn star_partition_labels() {
    // Rows follow `star_workloads`, columns (t, x) = (4, 1), (2, 2), (2, 3).
    let expected: [[u32; 3]; 3] = [
        [0x951d_d314, 0x0b5c_6c83, 0x90dc_4965],
        [0x8415_393b, 0x8ec6_bf7f, 0x543d_c3ed],
        [0xeb70_a9b8, 0x877e_5593, 0x6c62_f376],
    ];
    for ((label, g), row) in star_workloads().iter().zip(expected) {
        for ((t, x), want) in [(4, 1), (2, 2), (2, 3)].into_iter().zip(row) {
            assert_golden(
                &format!("star partition {label} t = {t}, x = {x}"),
                want,
                || {
                    let sp = star_partition(g, t, x).unwrap();
                    sp.verify(g).unwrap();
                    let stats = sp.stats;
                    (sp, stats)
                },
            );
        }
    }
}

/// CD-Coloring of L(random_regular(72, 9)) from shuffled ids, with one
/// and two levels under both `t` schedules.
#[test]
fn cd_coloring_levels_and_schedules() {
    let lg = LineGraph::new(&generators::random_regular(72, 9, SEED).unwrap());
    let ids = IdAssignment::shuffled(lg.graph.num_vertices(), SEED);
    // Rows x = 1, 2; columns per_level_t = false, true. On this graph
    // §3's t already equals the per-level choice at every level, so each
    // row's two schedules agree (`cd_two_levels` pins them apart).
    let expected: [[u32; 2]; 2] = [[0x52ac_9f6f, 0x52ac_9f6f], [0x108f_a249, 0x108f_a249]];
    for (x, row) in (1..=2).zip(expected) {
        for (per_level_t, want) in [false, true].into_iter().zip(row) {
            let params = CdParams {
                per_level_t,
                ..CdParams::for_levels(lg.cover.max_clique_size(), x)
            };
            let name = format!("cd_coloring x = {x}, per_level_t = {per_level_t}");
            assert_golden(&name, want, || {
                let r = cd_coloring(&lg.graph, &lg.cover, &params, &ids).unwrap();
                let stats = r.stats;
                (r, stats)
            });
        }
    }
}

/// CD-Coloring with the §3 trim on a general graph, over the cover by
/// every maximal clique.
#[test]
fn cd_coloring_trim_bron_kerbosch_cover() {
    let g = generators::gnm(48, 160, SEED).unwrap();
    let cover = cover_from_all_maximal_cliques(&g).unwrap();
    let ids = IdAssignment::sequential(g.num_vertices());
    let params = CdParams {
        trim_to: Some(decolor_graph::num::to_u64(g.max_degree()) + 3),
        ..CdParams::for_levels(cover.max_clique_size().max(4), 1)
    };
    assert_golden("cd_coloring trim", 0xa710_6a66, || {
        let r = cd_coloring(&g, &cover, &params, &ids).unwrap();
        let stats = r.stats;
        (r, stats)
    });
}

/// Theorems 5.2, 5.3 and 5.4 (x = 1, 2, 3) on one small forest union.
#[test]
fn section5_forest_union() {
    let g = generators::forest_union(220, 2, 12, SEED).unwrap();
    let cfg = SubroutineConfig::default();
    assert_golden("theorem52 forest_union(220)", 0xe3de_77fc, || {
        let r = theorem52(&g, 2, 2.5, cfg).unwrap();
        (r.coloring, r.stats)
    });
    assert_golden("theorem53 forest_union(220)", 0x7d0e_bea5, || {
        let r = theorem53(&g, 2, 2.5, cfg).unwrap();
        (r.coloring, r.stats)
    });
    for (x, want) in (1..=3).zip([0x6e37_100a, 0x34af_091c, 0x9a9f_d155]) {
        assert_golden(
            &format!("theorem54 forest_union(220) x = {x}"),
            want,
            || {
                let r = theorem54(&g, 2, 2.5, x, cfg).unwrap();
                (r.coloring, r.stats)
            },
        );
    }
}

/// The Theorem 2.4 clique decomposition of L(random_regular(64, 8)).
#[test]
fn clique_decomposition_line_graph() {
    let lg = LineGraph::new(&generators::random_regular(64, 8, SEED).unwrap());
    let ids = IdAssignment::shuffled(lg.graph.num_vertices(), SEED);
    for ((t, x), want) in [(3, 1), (2, 2)].into_iter().zip([0x0c2d_aeba, 0xc870_3d08]) {
        assert_golden(
            &format!("clique_decomposition t = {t}, x = {x}"),
            want,
            || {
                let dec = clique_decomposition(&lg.graph, &lg.cover, t, x, &ids).unwrap();
                dec.verify(&lg.graph, &lg.cover).unwrap();
                let stats = dec.stats;
                (dec, stats)
            },
        );
    }
}
