//! The two workloads: seeded set-up, the untraced public entry point,
//! and a traced recomposition of that entry point from the library's
//! public functions.
//!
//! Each recomposition mirrors the library's own composition step by
//! step, so its coloring and `NetworkStats` must equal the untraced
//! call's bit for bit; the runner asserts this. Library glue that is not
//! a public call (filtering edges into classes, combining class colors)
//! runs inside the enclosing span and shows up as its self time.

use std::path::Path;
use std::time::Instant;

use decolor_core::analysis;
use decolor_core::arboricity::theorem52;
use decolor_core::cd_coloring::{cd_edge_coloring_spilled, CdParams};
use decolor_core::connectors::clique::clique_connector_on;
use decolor_core::connectors::edge::edge_connector_graph_on;
use decolor_core::crossing_merge::color_crossing_edges;
use decolor_core::delta_plus_one::{vertex_coloring_with_target, Seed, SubroutineConfig};
use decolor_core::edge_space::{edge_coloring_direct, edge_coloring_direct_on};
use decolor_core::h_partition::h_partition;
use decolor_core::linial::linial_coloring;
use decolor_core::reduction::edge_palette_trim;
use decolor_core::star_partition::StarPartitionParams;
use decolor_graph::cliques::CliqueCover;
use decolor_graph::coloring::{Color, EdgeColoring, VertexColoring};
use decolor_graph::line_graph::{line_graph_cover, line_graph_stream};
use decolor_graph::storage::{ShardedCsr, ShardedCsrBuilder};
use decolor_graph::subgraph::{EdgeSubgraphView, GraphView, InducedSubgraphView, VertexSubsetView};
use decolor_graph::{generators, EdgeId, EdgeSink, Graph, GraphError, VertexId};
use decolor_runtime::{IdAssignment, Network, NetworkStats};
use rayon::prelude::*;

use crate::trace::Tracer;

/// Errors are carried as messages: the benchmark only reports them.
pub type Res<T> = Result<T, String>;

/// Local colors, palette and statistics of one (sub)coloring.
type Colored = (Vec<Color>, u64, NetworkStats);

fn msg(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Theorem 5.2's arboricity bound `a` on `arb-skewed` (a BA graph with
/// `k = 2` attachments has arboricity at most 2).
const ARB_A: usize = 2;
/// Theorem 5.2's slack `q` on `arb-skewed`.
const ARB_Q: f64 = 2.5;
/// Degree of `cd-mmap`'s random regular graph.
const REGULAR_DEGREE: usize = 8;
/// Attachments per vertex of the Barabási–Albert graph.
const BA_K: usize = 2;

/// Input sizes: the benchmark's own, or tiny ones for the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Sizes that run in milliseconds, for tests.
    Tiny,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Theorem 5.2 on a Barabási–Albert graph, in RAM.
    ArbSkewed,
    /// Theorem 3.3 (ii) CD-Coloring over a sharded on-disk CSR.
    CdMmap,
}

/// What a workload runs on, and why it was chosen.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// The generator the seed argument feeds.
    pub generator: &'static str,
    /// The paper algorithm and its parameters.
    pub algorithm: &'static str,
    /// One-line reason for the workload.
    pub why: &'static str,
}

/// The workload's input graph.
pub enum Input {
    /// An in-RAM CSR.
    Ram(Graph),
    /// A sharded CSR on disk, read through mmap.
    Store(ShardedCsr),
}

impl Input {
    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        match self {
            Input::Ram(g) => g.num_edges(),
            Input::Store(s) => s.num_edges(),
        }
    }

    /// Maximum degree Δ.
    pub fn max_degree(&self) -> usize {
        match self {
            Input::Ram(g) => g.max_degree(),
            Input::Store(s) => GraphView::max_degree(s),
        }
    }

    fn is_proper(&self, c: &EdgeColoring) -> bool {
        match self {
            Input::Ram(g) => c.is_proper(g),
            Input::Store(s) => c.is_proper(s),
        }
    }
}

/// Per-layer timings of one set-up, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Generating the edge sequence from the seed.
    pub gen_s: f64,
    /// Building the sharded on-disk store (0 for in-RAM workloads).
    pub input_build_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.gen_s + self.input_build_s
    }
}

/// A coloring with its LOCAL statistics: what the gate compares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Output {
    /// Color of every input edge.
    pub colors: Vec<Color>,
    /// The palette size.
    pub palette: u64,
    /// Rounds, messages and payload of the whole call.
    pub stats: NetworkStats,
}

impl Output {
    fn new(coloring: EdgeColoring, stats: NetworkStats) -> Output {
        Output {
            palette: coloring.palette(),
            colors: coloring.into_inner(),
            stats,
        }
    }

    /// CRC32 over the colors, the palette and the statistics.
    pub fn fingerprint(&self) -> u32 {
        let mut crc = decolor_graph::storage::Crc32::new();
        for c in &self.colors {
            crc.update(&c.to_le_bytes());
        }
        for word in [
            self.palette,
            self.stats.rounds,
            self.stats.messages,
            self.stats.payload_bytes,
        ] {
            crc.update(&word.to_le_bytes());
        }
        crc.finish()
    }
}

/// Collects a streamed edge sequence as generated, before any CSR exists.
struct EdgeList(Vec<(usize, usize)>);

impl EdgeSink for EdgeList {
    fn add_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        self.0.push((u, v));
        Ok(())
    }

    fn reset(&mut self) -> Result<(), GraphError> {
        self.0.clear();
        Ok(())
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn regular_edges(n: usize, seed: u64) -> Res<(EdgeList, f64)> {
    let (edges, gen_s) = timed(|| {
        let mut edges = EdgeList(Vec::new());
        generators::random_regular_stream(n, REGULAR_DEGREE, seed, &mut edges).map(|()| edges)
    });
    Ok((edges.map_err(msg)?, gen_s))
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::ArbSkewed, Workload::CdMmap];

    /// Looks a workload up by its `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.spec().name == name)
    }

    /// The workload's description.
    pub fn spec(self) -> WorkloadSpec {
        match self {
            Workload::ArbSkewed => WorkloadSpec {
                name: "arb-skewed",
                generator: "barabasi_albert(n = 2^16, k = 2, seed)",
                algorithm: "theorem52, a = 2, q = 2.5, in RAM",
                why: "heavy-tailed degree with arboricity 2: Lemma 5.1 crossing merges on runtime::Network dominate",
            },
            Workload::CdMmap => WorkloadSpec {
                name: "cd-mmap",
                generator: "random_regular(n = 2^15, d = 8, seed) streamed into a ShardedCsr",
                algorithm: "cd_edge_coloring_spilled, x = 1, line graph spilled to disk",
                why: "vertex-space Linial and reductions over an mmap view; the only workload where storage writes and reads",
            },
        }
    }

    fn num_vertices(self, scale: Scale) -> usize {
        match (self, scale) {
            (Workload::ArbSkewed, Scale::Full) => 1 << 16,
            (Workload::CdMmap, Scale::Full) => 1 << 15,
            (Workload::ArbSkewed, Scale::Tiny) => 1 << 9,
            (_, Scale::Tiny) => 1 << 8,
        }
    }

    /// Generates the input from `seed` and builds its CSR or store
    /// (under `dir` for the store).
    ///
    /// # Errors
    ///
    /// Generation or store I/O failed.
    pub fn setup(self, seed: u64, scale: Scale, dir: &Path) -> Res<(Input, SetupTimes)> {
        let n = self.num_vertices(scale);
        match self {
            Workload::ArbSkewed => {
                // The generator builds its CSR itself, so its whole cost is
                // generation time.
                let (g, gen_s) = timed(|| generators::barabasi_albert(n, BA_K, seed));
                let times = SetupTimes {
                    gen_s,
                    ..SetupTimes::default()
                };
                Ok((Input::Ram(g.map_err(msg)?), times))
            }
            Workload::CdMmap => {
                let (edges, gen_s) = regular_edges(n, seed)?;
                let (store, input_build_s) = timed(|| -> Res<ShardedCsr> {
                    let mut b = ShardedCsrBuilder::create(dir, n).map_err(msg)?;
                    for &(u, v) in &edges.0 {
                        b.push_edge(u, v).map_err(msg)?;
                    }
                    b.finish().map_err(msg)
                });
                let times = SetupTimes {
                    gen_s,
                    input_build_s,
                };
                Ok((Input::Store(store?), times))
            }
        }
    }

    /// The paper's analytic palette bound for this workload's input
    /// (`decolor_core::analysis`).
    pub fn palette_bound(self, input: &Input) -> u64 {
        let delta = decolor_graph::num::to_u64(input.max_degree());
        match self {
            Workload::ArbSkewed => {
                analysis::theorem52_palette(delta, decolor_graph::num::to_u64(ARB_A), ARB_Q)
            }
            // Line graph: diversity 2, maximal clique size Δ.
            Workload::CdMmap => analysis::table2_ours_colors(2, delta, 1),
        }
    }

    /// Checks one output: a color per input edge, proper on the input
    /// graph, and within the analytic palette bound.
    ///
    /// # Errors
    ///
    /// Names the first check that failed.
    pub fn check(self, input: &Input, out: &Output) -> Res<()> {
        if out.colors.len() != input.num_edges() {
            return Err(format!(
                "{} colors for {} edges",
                out.colors.len(),
                input.num_edges()
            ));
        }
        let coloring = EdgeColoring::new(out.colors.clone(), out.palette).map_err(msg)?;
        if !input.is_proper(&coloring) {
            return Err("coloring is improper on the input graph".into());
        }
        let bound = self.palette_bound(input);
        if out.palette > bound {
            return Err(format!(
                "palette {} exceeds the analytic bound {bound}",
                out.palette
            ));
        }
        Ok(())
    }

    /// One untraced call of the workload's public entry point. `scratch`
    /// is where `cd-mmap` spills its line graph; the call removes it.
    ///
    /// # Errors
    ///
    /// The library returned an error.
    pub fn call(self, input: &Input, scratch: &Path) -> Res<Output> {
        match (self, input) {
            (Workload::ArbSkewed, Input::Ram(g)) => {
                let res = theorem52(g, ARB_A, ARB_Q, SubroutineConfig::default()).map_err(msg)?;
                Ok(Output::new(res.coloring, res.stats))
            }
            (Workload::CdMmap, Input::Store(s)) => {
                let params = CdParams::for_levels(GraphView::max_degree(s), 1);
                let (coloring, stats) =
                    cd_edge_coloring_spilled(s, &params, scratch).map_err(msg)?;
                Ok(Output::new(coloring, stats))
            }
            _ => Err("input does not match the workload".into()),
        }
    }

    /// [`Workload::call`] recomposed from the public functions it is made
    /// of, with a span around each.
    ///
    /// # Errors
    ///
    /// The library returned an error.
    pub fn traced(self, input: &Input, scratch: &Path, tr: &mut Tracer) -> Res<Output> {
        match (self, input) {
            (Workload::ArbSkewed, Input::Ram(g)) => {
                tr.span("call", |tr| theorem52_traced(tr, g, ARB_A, ARB_Q))
            }
            (Workload::CdMmap, Input::Store(s)) => {
                tr.span("call", |tr| cd_edge_traced(tr, s, scratch))
            }
            _ => Err("input does not match the workload".into()),
        }
    }
}

/// `star_partition_edge_coloring_on(root, view, params)` for `x = 1`: one
/// connector stage (`stage_on`) and the final trim (`finish`).
fn star_traced<R: GraphView + Sync, V: GraphView + Sync>(
    tr: &mut Tracer,
    root: &R,
    view: &V,
    params: &StarPartitionParams,
) -> Res<(EdgeColoring, NetworkStats)> {
    if params.x != 1 || params.adaptive_t || params.t < 2 {
        return Err("the traced star partition covers x = 1 with a fixed t ≥ 2".into());
    }
    tr.span("star_partition", |tr| {
        let (mut colors, mut palette, mut stats) = tr.span("star_partition.stage", |tr| {
            stage_traced(tr, root, view, params)
        })?;
        tr.count("reduction.trim_palette_in", f64_of(palette));
        if params.trim && view.num_edges() > 0 {
            let delta = decolor_graph::num::to_u64(view.max_degree());
            let target = (1u64 << (params.x + 1)) * delta.max(1);
            let target = target.max(2 * delta.saturating_sub(1).max(1) + 1);
            if palette > target {
                let (trimmed, trim_stats) = tr.span("reduction.trim", |_| {
                    let mut net = Network::new(view);
                    let p = edge_palette_trim(&mut net, &mut colors, palette, target);
                    (p, net.stats())
                });
                palette = trimmed.map_err(msg)?;
                tr.count("reduction.trim_rounds", f64_of(trim_stats.rounds));
                stats = stats.then(trim_stats);
            }
        }
        let coloring = EdgeColoring::new(colors, palette).map_err(msg)?;
        coloring.validate(view).map_err(msg)?;
        Ok((coloring, stats))
    })
}

/// The library's `stage_on` at `x = 1`: connector build, connector
/// coloring, then the classes colored directly in parallel.
fn stage_traced<R: GraphView + Sync, V: GraphView + Sync>(
    tr: &mut Tracer,
    root: &R,
    view: &V,
    params: &StarPartitionParams,
) -> Res<Colored> {
    let cfg = params.subroutine;
    let t = params.t;
    if view.num_edges() == 0 {
        return Ok((vec![], 1, NetworkStats::default()));
    }
    let delta = decolor_graph::num::to_u64(view.max_degree());
    if delta <= decolor_graph::num::to_u64(t) {
        let target = (2 * delta - 1).max(1);
        return tr
            .span("edge_space.direct", |_| {
                edge_coloring_direct_on(view, target, cfg)
            })
            .map_err(msg);
    }
    let target_conn = (2 * decolor_graph::num::to_u64(t) - 1).max(1);
    let conn = tr
        .span("connectors.edge.build", |_| {
            edge_connector_graph_on(view, t)
        })
        .map_err(msg)?;
    tr.count("connectors.edge.edges", f64_of(conn.num_edges()));
    tr.count("connectors.edge.max_degree", f64_of(conn.max_degree()));
    let (phi, phi_stats) = tr
        .span("edge_space.connector", |_| {
            edge_coloring_direct(&conn, target_conn, cfg)
        })
        .map_err(msg)?;
    drop(conn);
    tr.count("edge_space.connector_rounds", f64_of(phi_stats.rounds));
    let stats = NetworkStats {
        rounds: 1,
        ..Default::default()
    }
    .then(phi_stats);

    let classes = phi.classes();
    let largest = classes.iter().map(Vec::len).max().unwrap_or(0);
    tr.count(
        "edge_space.classes",
        f64_of(classes.iter().filter(|c| !c.is_empty()).count()),
    );
    tr.count(
        "edge_space.largest_class_share",
        f64_of(largest) / f64_of(view.num_edges()),
    );
    let star_bound = decolor_graph::num::to_u64(view.max_degree().div_ceil(t));
    let results: Vec<Option<Colored>> = tr.span("edge_space.classes", |_| -> Res<_> {
        let outcomes: Vec<Res<Option<Colored>>> = classes
            .par_iter()
            .map(|class| {
                if class.is_empty() {
                    return Ok(None);
                }
                let child_edges: Vec<EdgeId> =
                    class.iter().map(|&e| view.to_parent_edge(e)).collect();
                let child = EdgeSubgraphView::new(root, child_edges).map_err(msg)?;
                let child_delta = decolor_graph::num::to_u64(child.max_degree());
                if child_delta > star_bound {
                    return Err(format!("class star size {child_delta} exceeds ⌈Δ/t⌉"));
                }
                let target = (2 * child_delta - 1).max(1);
                edge_coloring_direct_on(&child, target, cfg)
                    .map(Some)
                    .map_err(msg)
            })
            .collect();
        outcomes.into_iter().collect()
    })?;

    let (out, inner_palette, class_stats) =
        combine(&classes, &results, view.num_edges(), EdgeId::index)?;
    Ok((out, target_conn * inner_palette, stats.then(class_stats)))
}

/// The library's combination of class colorings (line 15 of Algorithm 1
/// and its §4 analogue): member `i` of class `c` with local color `x`
/// gets `c · inner + x`, where `inner` is the largest class palette; the
/// classes' statistics merge as parallel phases. Returns the combined
/// colors, `inner` and the merged statistics.
fn combine<I: Copy>(
    classes: &[Vec<I>],
    results: &[Option<Colored>],
    len: usize,
    index: impl Fn(I) -> usize,
) -> Res<Colored> {
    let inner = results
        .iter()
        .flatten()
        .map(|&(_, p, _)| p)
        .max()
        .unwrap_or(1);
    let mut out = vec![0 as Color; len];
    for (c, (class, result)) in classes.iter().zip(results).enumerate() {
        let Some((colors, _, _)) = result else {
            continue;
        };
        for (&member, &local) in class.iter().zip(colors) {
            let combined = decolor_graph::num::to_u64(c) * inner + u64::from(local);
            out[index(member)] = u32::try_from(combined).map_err(msg)?;
        }
    }
    let stats = NetworkStats::in_parallel(results.iter().flatten().map(|&(_, _, s)| s));
    Ok((out, inner, stats))
}

/// `theorem52(g, a, q, cfg)`: H-partition, the intra-set star partition,
/// then the Lemma 5.1 crossing merges from `H_ℓ` down to `H_1`.
fn theorem52_traced(tr: &mut Tracer, g: &Graph, a: usize, q: f64) -> Res<Output> {
    let cfg = SubroutineConfig::default();
    if g.num_edges() == 0 || q < 2.0 {
        return Err("theorem52 needs edges and q ≥ 2".into());
    }
    // The library's ⌈q·a⌉; a is a small constant, exact in f64.
    let d = ((q * a.max(1) as f64).ceil() as usize).max(1);
    let delta = decolor_graph::num::to_u64(g.max_degree());
    let hp = tr.span("h_partition", |_| h_partition(g, d)).map_err(msg)?;
    tr.count("h_partition.sets", f64_of(hp.num_sets));
    tr.count("h_partition.rounds", f64_of(hp.stats.rounds));
    let mut stats = hp.stats;

    let same: Vec<EdgeId> = (0..g.num_edges())
        .map(EdgeId::new)
        .filter(|&e| {
            let [u, v] = g.endpoints(e);
            hp.index[u.index()] == hp.index[v.index()]
        })
        .collect();
    tr.count("star_partition.intra_edges", f64_of(same.len()));
    let mut edge_colors: Vec<Option<Color>> = vec![None; g.num_edges()];
    let mut intra_palette = 1u64;
    if !same.is_empty() {
        let (star, star_stats) = tr.span("star_partition.intra", |tr| {
            let intra_parent: Vec<EdgeId> = same.iter().map(|&e| g.to_parent_edge(e)).collect();
            let intra = EdgeSubgraphView::new(g, intra_parent).map_err(msg)?;
            let params = StarPartitionParams {
                subroutine: cfg,
                ..StarPartitionParams::for_max_degree(
                    decolor_graph::num::to_u64(GraphView::max_degree(&intra)),
                    1,
                )
            };
            star_traced(tr, g, &intra, &params)
        })?;
        intra_palette = star.palette();
        for (local, &e) in same.iter().enumerate() {
            edge_colors[e.index()] = Some(star.color(EdgeId::new(local)));
        }
        stats = stats.then(star_stats);
    }

    let palette = intra_palette.max(delta + decolor_graph::num::to_u64(d));
    let merge_stats = tr.span("crossing_merge", |tr| -> Res<NetworkStats> {
        let mut net = Network::new(g);
        for i in (0..hp.num_sets.saturating_sub(1)).rev() {
            let in_a: Vec<bool> = hp.index.iter().map(|&h| h == i).collect();
            let crossing: Vec<EdgeId> = (0..g.num_edges())
                .map(EdgeId::new)
                .filter(|&e| {
                    let [u, v] = g.endpoints(e);
                    let (hu, hv) = (hp.index[u.index()], hp.index[v.index()]);
                    hu.min(hv) == i && hu != hv
                })
                .collect();
            if crossing.is_empty() {
                continue;
            }
            tr.count("crossing_merge.stages", 1.0);
            tr.count("crossing_merge.edges", f64_of(crossing.len()));
            color_crossing_edges(&mut net, &in_a, &mut edge_colors, &crossing, palette)
                .map_err(msg)?;
        }
        Ok(net.stats())
    })?;
    tr.count("crossing_merge.rounds", f64_of(merge_stats.rounds));
    stats = stats.then(merge_stats);

    let colors: Vec<Color> = edge_colors
        .into_iter()
        .map(|c| c.ok_or_else(|| "edge left uncolored".to_string()))
        .collect::<Res<_>>()?;
    let coloring = EdgeColoring::new(colors, palette).map_err(msg)?;
    coloring.validate(g).map_err(msg)?;
    Ok(Output::new(coloring, stats))
}

/// `cd_edge_coloring_spilled(g, params, scratch)`: the line graph's cover,
/// the line graph streamed into a sharded store, then CD-Coloring on it.
fn cd_edge_traced(tr: &mut Tracer, g: &ShardedCsr, scratch: &Path) -> Res<Output> {
    let params = CdParams::for_levels(GraphView::max_degree(g), 1);
    if g.num_edges() == 0 || g.has_parallel_edges() {
        return Err("line graph requires a simple source graph with edges".into());
    }
    let m = g.num_edges();
    let cover = tr
        .span("graph.lg_cover", |_| line_graph_cover(g))
        .map_err(msg)?;
    let result = tr.span("storage.lg_build", |_| -> Res<ShardedCsr> {
        let mut b = ShardedCsrBuilder::create(scratch, m).map_err(msg)?;
        line_graph_stream(g, &mut b).map_err(msg)?;
        b.finish().map_err(msg)
    });
    let outcome = result.and_then(|lg| {
        tr.count("storage.lg_bytes", f64_of(dir_bytes(scratch)?));
        let ids = IdAssignment::sequential(m);
        tr.span("cd_coloring", |tr| {
            cd_traced(tr, &lg, &cover, &params, &ids)
        })
    });
    // The library removes its scratch directory on every exit path.
    let _ = std::fs::remove_dir_all(scratch);
    let (coloring, mut stats) = outcome?;
    stats.rounds += 1;
    if coloring.len() != m {
        return Err(format!("{} line colors for {m} edges", coloring.len()));
    }
    let ec = EdgeColoring::new(coloring.as_slice().to_vec(), coloring.palette()).map_err(msg)?;
    Ok(Output::new(ec, stats))
}

/// `cd_coloring(g, cover, params, ids)` at `x = 1`: one Linial pass, then
/// one level (`level_on`) — clique connector, connector coloring, and the
/// classes colored directly in parallel — then validation (`finish_cd`).
fn cd_traced(
    tr: &mut Tracer,
    g: &ShardedCsr,
    cover: &CliqueCover,
    params: &CdParams,
    ids: &IdAssignment,
) -> Res<(VertexColoring, NetworkStats)> {
    if params.x != 1 || params.per_level_t || params.trim_to.is_some() || params.t < 2 {
        return Err("the traced CD-Coloring covers x = 1 with a fixed t and no trim".into());
    }
    if ids.len() != g.num_vertices() {
        return Err("ids do not cover the graph".into());
    }
    let cfg = params.subroutine;
    let diversity = cover.diversity().max(1);
    let (base, base_stats) = tr
        .span("linial", |_| {
            let mut net = Network::new(g);
            linial_coloring(&mut net, ids).map(|r| (r.coloring, net.stats()))
        })
        .map_err(msg)?;
    tr.count("linial.rounds", f64_of(base_stats.rounds));

    let all: Vec<VertexId> = (0..g.num_vertices()).map(VertexId::new).collect();
    let view = VertexSubsetView::new(g, all).map_err(msg)?;
    let k = view.num_vertices();
    let (colors, palette, stats) = if view.has_induced_edge() {
        let local_cover = cover.restrict_to_subset(&view);
        let t = params.t;
        let conn = tr
            .span("connectors.clique.build", |_| {
                clique_connector_on(&view, &local_cover, t)
            })
            .map_err(msg)?;
        let gamma = decolor_graph::num::to_u64(diversity) * (decolor_graph::num::to_u64(t) - 1) + 1;
        if decolor_graph::num::to_u64(conn.graph.max_degree()) >= gamma {
            return Err("Lemma 2.1 violated: connector degree ≥ γ".into());
        }
        let sub_base_colors: Vec<Color> = view
            .parent_vertices()
            .iter()
            .map(|&v| base.color(v))
            .collect();
        let sub_base = VertexColoring::new(sub_base_colors, base.palette()).map_err(msg)?;
        let (phi, phi_stats) =
            vertex_coloring_with_target(&conn.graph, Seed::Coloring(&sub_base), gamma, cfg)
                .map_err(msg)?;
        let stats = NetworkStats {
            rounds: 1,
            ..Default::default()
        }
        .then(phi_stats);

        let k_bound = local_cover.max_clique_size().div_ceil(t);
        let target =
            decolor_graph::num::to_u64(diversity) * (decolor_graph::num::to_u64(k_bound) - 1) + 1;
        let classes = phi.classes();
        let outcomes: Vec<Res<Option<Colored>>> = classes
            .par_iter()
            .map(|class| {
                if class.is_empty() {
                    return Ok(None);
                }
                let parents: Vec<VertexId> =
                    class.iter().map(|&lv| view.to_parent_vertex(lv)).collect();
                let child = InducedSubgraphView::new(g, parents).map_err(msg)?;
                if decolor_graph::num::to_u64(child.max_degree()) >= target.max(1) {
                    return Err("Lemma 2.2 violated: class degree ≥ D(k−1)+1".into());
                }
                let child_base_colors: Vec<Color> = child
                    .parent_vertices()
                    .iter()
                    .map(|&v| base.color(v))
                    .collect();
                let child_base =
                    VertexColoring::new(child_base_colors, base.palette()).map_err(msg)?;
                let (c, s) =
                    vertex_coloring_with_target(&child, Seed::Coloring(&child_base), target, cfg)
                        .map_err(msg)?;
                Ok(Some((c.as_slice().to_vec(), c.palette(), s)))
            })
            .collect();
        let results: Vec<Option<Colored>> = outcomes.into_iter().collect::<Res<_>>()?;
        let (out, inner_palette, class_stats) = combine(&classes, &results, k, VertexId::index)?;
        (out, gamma * inner_palette, stats.then(class_stats))
    } else {
        (vec![0; k], 1, NetworkStats::default())
    };
    let coloring = VertexColoring::new(colors, palette).map_err(msg)?;
    coloring.validate(g).map_err(msg)?;
    Ok((coloring, base_stats.then(stats)))
}

/// Summed size of the regular files directly in `dir`.
fn dir_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(msg)? {
        let meta = entry.map_err(msg)?.metadata().map_err(msg)?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// A count as `f64` for reporting (counts here stay far below 2^53).
pub fn f64_of(x: impl TryInto<u64>) -> f64 {
    x.try_into().map_or(f64::NAN, |v: u64| v as f64)
}
