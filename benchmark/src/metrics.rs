//! The metric registry: every metric the benchmark prints, with its unit,
//! direction, and — for per-layer metrics — the layer it measures, where
//! its value comes from, and the end-to-end metric and workloads it
//! should move. `BENCHMARK.json` lists the same names, units and
//! directions; the self-test checks that the two agree.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric (printed with `--trace 0`).
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// Where a per-layer value comes from.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// A set-up timing, median over the set-up repetitions.
    Setup,
    /// Summed duration of the spans of this name in one traced call.
    Span(&'static str),
    /// Summed self time of the spans of this name in one traced call.
    SelfTime(&'static str),
    /// A count recorded by the traced recomposition.
    Count(&'static str),
    /// Computed by the runner from the untraced calls (and, for the
    /// trace overhead and write rate, from the traced ones).
    Run,
}

/// A per-layer metric (printed with `--trace 1`). Every workload reports
/// every one of them; a layer a workload never enters reads 0. The name's
/// first component is the layer: the repository module it measures
/// (`rayon` is the vendored pool, `trace` the benchmark's own tracer).
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Metric name, prefixed by its layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Where the value comes from.
    pub source: Source,
    /// The end-to-end metric(s) it should move.
    pub moves: &'static str,
    /// The workload(s) on which it should move them.
    pub on: &'static str,
}

use Better::{Higher, Lower};

/// Every end-to-end metric, in `BENCHMARK.json` order.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "edges_per_s", unit: "edges/s", better: Higher },
    EndToEnd { name: "edges_per_s_1t", unit: "edges/s", better: Higher },
    EndToEnd { name: "setup_s", unit: "s", better: Lower },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower },
    EndToEnd { name: "palette_excess", unit: "colors", better: Lower },
    EndToEnd { name: "rounds", unit: "rounds", better: Lower },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
        on,
    }
}

const ALL: &str = "arb-skewed, cd-mmap";
const ARB: &str = "arb-skewed";
const CD: &str = "cd-mmap";
const EPS: &str = "edges_per_s";

/// Every per-layer metric, in `BENCHMARK.json` order.
#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 36] = [
    layer("graph.gen_s", "s", Lower, Source::Setup, "setup_s", ALL),
    layer("storage.input_build_s", "s", Lower, Source::Setup, "setup_s", CD),
    layer("graph.lg_cover_s", "s", Lower, Source::Span("graph.lg_cover"), EPS, CD),
    layer("storage.lg_build_s", "s", Lower, Source::Span("storage.lg_build"), EPS, CD),
    layer("storage.lg_bytes", "bytes", Lower, Source::Count("storage.lg_bytes"), EPS, CD),
    layer("storage.lg_write_mb_s", "MB/s", Higher, Source::Run, EPS, CD),
    layer("connectors.edge.build_s", "s", Lower, Source::Span("connectors.edge.build"), "edges_per_s, peak_rss_mb", ARB),
    layer("connectors.edge.edges", "count", Lower, Source::Count("connectors.edge.edges"), "edges_per_s, peak_rss_mb", ARB),
    layer("connectors.edge.max_degree", "count", Lower, Source::Count("connectors.edge.max_degree"), "edges_per_s, peak_rss_mb", ARB),
    layer("connectors.clique.build_s", "s", Lower, Source::Span("connectors.clique.build"), EPS, CD),
    layer("edge_space.connector_s", "s", Lower, Source::Span("edge_space.connector"), EPS, ARB),
    layer("edge_space.connector_rounds", "rounds", Lower, Source::Count("edge_space.connector_rounds"), EPS, ARB),
    layer("edge_space.classes_s", "s", Lower, Source::Span("edge_space.classes"), EPS, ARB),
    layer("edge_space.classes", "count", Higher, Source::Count("edge_space.classes"), EPS, ARB),
    layer("edge_space.largest_class_share", "ratio", Lower, Source::Count("edge_space.largest_class_share"), EPS, ARB),
    layer("reduction.trim_s", "s", Lower, Source::Span("reduction.trim"), EPS, ARB),
    layer("reduction.trim_rounds", "rounds", Lower, Source::Count("reduction.trim_rounds"), EPS, ARB),
    layer("reduction.trim_palette_in", "colors", Lower, Source::Count("reduction.trim_palette_in"), EPS, ARB),
    layer("h_partition.s", "s", Lower, Source::Span("h_partition"), EPS, ARB),
    layer("h_partition.sets", "count", Lower, Source::Count("h_partition.sets"), EPS, ARB),
    layer("h_partition.rounds", "rounds", Lower, Source::Count("h_partition.rounds"), EPS, ARB),
    layer("star_partition.intra_s", "s", Lower, Source::Span("star_partition.intra"), EPS, ARB),
    layer("star_partition.intra_edges", "count", Lower, Source::Count("star_partition.intra_edges"), EPS, ARB),
    layer("crossing_merge.s", "s", Lower, Source::Span("crossing_merge"), EPS, ARB),
    layer("crossing_merge.stages", "count", Lower, Source::Count("crossing_merge.stages"), EPS, ARB),
    layer("crossing_merge.rounds", "rounds", Lower, Source::Count("crossing_merge.rounds"), EPS, ARB),
    layer("crossing_merge.edges", "count", Lower, Source::Count("crossing_merge.edges"), EPS, ARB),
    layer("linial.s", "s", Lower, Source::Span("linial"), EPS, CD),
    layer("linial.rounds", "rounds", Lower, Source::Count("linial.rounds"), EPS, CD),
    layer("cd_coloring.levels_s", "s", Lower, Source::SelfTime("cd_coloring"), EPS, CD),
    layer("runtime.messages", "count", Lower, Source::Run, EPS, "cd-mmap, arb-skewed"),
    layer("runtime.payload_bytes", "bytes", Lower, Source::Run, EPS, "cd-mmap, arb-skewed"),
    layer("runtime.messages_per_s", "1/s", Higher, Source::Run, EPS, "cd-mmap, arb-skewed"),
    layer("rayon.cpu_util", "ratio", Higher, Source::Run, "edges_per_s (not edges_per_s_1t)", ARB),
    layer("rayon.speedup", "ratio", Higher, Source::Run, "edges_per_s (not edges_per_s_1t)", ARB),
    layer("trace.overhead_s", "s", Lower, Source::Run, "none: the traced run's own cost", ALL),
];

/// The unit of a metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}
