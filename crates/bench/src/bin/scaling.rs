//! Scaling study: how measured rounds grow with `n` at fixed Δ — the
//! log* n (Linial), O(log n) (Theorem 5.2 via the H-partition),
//! n-independent (star partition beyond its log* entry cost), and
//! CD-Coloring (Algorithm 1 on the line graph, §2–§3) signatures the
//! paper's running times predict.
//!
//! Two storage backends:
//!
//! * `--backend ram` (default) — the in-memory CSR paths exactly as
//!   before: Linial on the flat-buffer exchange, composites on the
//!   borrowed subgraph views.
//! * `--backend mmap` — the **out-of-core** paths: workloads are
//!   streamed by the `*_stream` generators into a sharded mmap CSR
//!   (`decolor_graph::storage::ShardedCsr`; the forest/line-graph
//!   workloads are generated in RAM and spilled), Linial runs the
//!   chunked gather pass (no O(m) round buffer), and the composite rows
//!   run the unmodified view-generic pipelines over the mmap root. Rows
//!   are bit-identical to the ram backend (pinned by the
//!   backend-equivalence tests), so only the wall/RSS columns differ.
//!
//! The mmap backend raises the row ceilings: Linial runs to
//! `--max-n` ≤ 10⁸, and Theorem 5.2, the star partition, and
//! CD-Coloring to 10⁷ — star streams its top-level edge connector and
//! cd its line graph into sharded CSR scratch, so no in-RAM `Graph` is
//! materialized on any mmap row. Theorems 5.3/5.4 rows run on both
//! backends up to 2²⁰.
//!
//! Flags:
//! * `--quick` — CI sizes only (256, 1024).
//! * `--only <linial|star|t52|cd|t53|t54>` — run a single row (gives clean
//!   per-row peak-RSS numbers; `VmHWM` is a process-lifetime high-water
//!   mark, so in a full run the column is cumulative across rows).
//! * `--backend <ram|mmap>` — storage backend (see above).
//! * `--max-n <N>` — extend the size ladder up to `N` (default 1048576;
//!   ladder stops at 10⁸).
//! * `--checkpoint` — (mmap backend) run the crash-safe paths: the
//!   workload build journals its durable prefix every 2²⁰ edges and the
//!   chunked Linial pass persists a round checkpoint, so a killed
//!   n = 10⁸ run resumes instead of restarting (results byte-identical
//!   — pinned by the crash-recovery suite).
//! * `--threads 1,2,4,8` — run the whole ladder once per pool width in
//!   this single process (`rayon::with_num_threads`), appending one
//!   provenance record per (row, width); the experiments report renders
//!   the widths into its speedup-vs-threads table. Without the flag the
//!   ambient pool (the `DECOLOR_THREADS` knob) is used, as before.
//! * `--relayout` — (ram backend) rebuild the star/t52 workloads under
//!   the degree-class relabeling (`decolor_graph::Relabeling`) before
//!   coloring, and assert the result proper on the **original** graph
//!   (edge ids survive the relayout; rounds/palettes are pinned
//!   identical by the relayout-equivalence proptests). Rows are tagged
//!   `[relayout]` in the provenance records.
//!
//! `cargo run --release -p decolor-bench --bin scaling [-- --quick]`

use decolor_bench::{
    append_record, arboricity_workload, markdown_table, peak_rss_mb, regular_workload, Record,
};
use decolor_core::analysis;
use decolor_core::arboricity::{theorem52, theorem53, theorem54};
use decolor_core::cd_coloring::{cd_coloring, CdParams};
use decolor_core::delta_plus_one::SubroutineConfig;
use decolor_core::linial::{
    linial_coloring, linial_coloring_chunked, linial_coloring_chunked_checkpointed,
};
use decolor_core::star_partition::{
    star_partition_edge_coloring, star_partition_edge_coloring_spilled, StarPartitionParams,
};
use decolor_graph::line_graph::{line_graph_cover, line_graph_stream, LineGraph};
use decolor_graph::storage::{ShardedCsr, ShardedCsrBuilder};
use decolor_graph::subgraph::GraphView;
use decolor_graph::{generators, Graph, Relabeling};
use decolor_runtime::{IdAssignment, Network};
use std::time::Instant;

/// The full size ladder; `--max-n` selects a prefix. The two rungs past
/// 10⁶ are sized for the mmap backend (an explicit
/// `--backend ram --max-n 10000000` still runs them fully in RAM — at
/// n = 10⁸ that needs tens of GB, so opting in is on the caller).
const SIZES: &[usize] = &[
    256,
    1024,
    4096,
    16384,
    65536,
    262_144,
    1_048_576,
    10_000_000,
    100_000_000,
];
/// Ceiling for the Theorem 5.2 composite row (mmap backend).
const T52_CAP: usize = 10_000_000;
/// Ceiling for the star-partition and CD-Coloring rows on the **ram**
/// backend, where the connector / line graph is materialized in memory.
const STAR_CD_RAM_CAP: usize = 1_048_576;
/// Ceiling for star/cd on the **mmap** backend: the top-level connector
/// and the line graph are streamed into sharded CSR scratch, so the rows
/// scale like the other out-of-core composites.
const STAR_CD_MMAP_CAP: usize = 10_000_000;
/// Ceiling for the Theorem 5.3 / 5.4 rows (recursive pipelines; enough
/// to show the n-trend on both backends).
const T53_T54_CAP: usize = 1_048_576;

fn rss_cell() -> String {
    peak_rss_mb().map_or_else(|| "-".into(), |mb| format!("{mb}"))
}

/// Scratch directory for one mmap workload; removed after the row.
struct MmapDir(std::path::PathBuf);

impl MmapDir {
    /// Unique per call (pid + monotonic counter): concurrent scaling
    /// processes — or repeated ladders in one process (`--threads`) —
    /// never share or clobber a scratch directory, unlike the previous
    /// fixed `{tag}-{n}` path that was `remove_dir_all`'d on entry.
    fn new(tag: &str, n: usize) -> MmapDir {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::path::Path::new("target")
            .join("scaling-mmap")
            .join(format!("{tag}-{n}-{}-{seq}", std::process::id()));
        MmapDir(dir)
    }
}

impl Drop for MmapDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Streams the standard 8-regular workload into a sharded CSR. With
/// `journal_every > 0` the build checkpoints its durable prefix (the
/// `--checkpoint` path), so an interrupted build can resume.
fn regular_workload_mmap(
    dir: &std::path::Path,
    n: usize,
    d: usize,
    seed: u64,
    journal_every: usize,
) -> ShardedCsr {
    let opts = decolor_graph::storage::BuildOptions {
        journal_every,
        ..Default::default()
    };
    let mut b =
        ShardedCsrBuilder::with_options(dir, n, opts).expect("scratch storage dir is writable");
    generators::random_regular_stream(n, d, seed, &mut b).expect("workload parameters are valid");
    b.finish().expect("sharded CSR build succeeds")
}

/// Spills an in-RAM workload graph (forest union, line graph) to disk and
/// drops the in-RAM copy.
fn spill(dir: &std::path::Path, g: Graph) -> ShardedCsr {
    ShardedCsr::from_graph(dir, &g).expect("sharded CSR spill succeeds")
}

/// Rebuilds `g` under its degree-class relabeling (the `--relayout`
/// path). Edge ids are preserved, so edge colorings of the result are
/// asserted on `g` directly.
fn relay(g: &Graph) -> Graph {
    let relab = Relabeling::by_degree_classes(g).expect("vertex ids fit u32");
    relab.apply_to_graph(g).expect("same vertex count")
}

/// One pass over the size ladder at the ambient pool width. Returns the
/// printed table rows; records provenance (including the live pool
/// width) per row.
struct LadderCfg<'a> {
    sizes: &'a [usize],
    mmap: bool,
    checkpoint: bool,
    journal_every: usize,
    relayout: bool,
    tag: &'a str,
}

fn run_ladder(cfg: &LadderCfg<'_>, runs: impl Fn(&str) -> bool) -> Vec<Vec<String>> {
    let (nproc, threads) = decolor_bench::pool_provenance();
    let &LadderCfg {
        mmap,
        checkpoint,
        journal_every,
        relayout,
        tag,
        ..
    } = cfg;
    let mut rows = Vec::new();
    for &n in cfg.sizes {
        let mut linial: Option<(u64, f64)> = None;
        if runs("linial") {
            // Linial on 8-regular graphs: rounds should be ~flat (log* n).
            // Sparse ID space so the log* cascade is exercised (dense IDs
            // can start below the O(Δ²) fixed point); the stride shrinks
            // at large n to keep identifiers inside the model's
            // O(log n)-bit budget.
            let stride = (u64::from(u32::MAX) / n as u64).min(1 << 16);
            let ids = IdAssignment::sparse(n, stride, 2);
            let (m, delta, lin, stats, secs) = if mmap {
                let dir = MmapDir::new("linial", n);
                let g = regular_workload_mmap(&dir.0, n, 8, 1, journal_every);
                let started = Instant::now();
                let (lin, stats) = if checkpoint {
                    let ckpt = dir.0.join("linial.ckpt");
                    let out = linial_coloring_chunked_checkpointed(&g, &ids, &ckpt, None)
                        .expect("linial succeeds");
                    assert!(out.completed, "unbudgeted run always completes");
                    (out.result, out.stats)
                } else {
                    linial_coloring_chunked(&g, &ids).expect("linial succeeds")
                };
                let secs = started.elapsed().as_secs_f64();
                // Properness of the full coloring is re-checked on the
                // mmap CSR itself (one streaming endpoint pass).
                assert!(lin.coloring.is_proper(&g));
                (g.num_edges(), GraphView::max_degree(&g), lin, stats, secs)
            } else {
                let g = regular_workload(n, 8, 1);
                let mut net = Network::new(&g);
                let started = Instant::now();
                let lin = linial_coloring(&mut net, &ids).expect("linial succeeds");
                let secs = started.elapsed().as_secs_f64();
                assert!(lin.coloring.is_proper(&g));
                (g.num_edges(), g.max_degree(), lin, net.stats(), secs)
            };
            linial = Some((stats.rounds, secs));
            append_record(&Record {
                experiment: "scaling_linial".into(),
                workload: format!("n={n}{tag}"),
                n,
                m,
                delta,
                x: 1,
                palette: lin.coloring.palette(),
                colors_used: lin.coloring.distinct_colors(),
                bound: decolor_core::linial::final_palette_bound(delta),
                rounds: stats.rounds,
                messages: stats.messages,
                time_shape: 0.0,
                wall_s: secs,
                nproc,
                threads,
            });
        }

        // Star partition x = 1 on the same workload: log*-dominated entry.
        let mut star_row: Option<(u64, f64)> = None;
        let star_cap = if mmap {
            STAR_CD_MMAP_CAP
        } else {
            STAR_CD_RAM_CAP
        };
        if runs("star") && n <= star_cap {
            let run_star = |g: &dyn Fn() -> decolor_core::star_partition::StarPartitionResult,
                            m: usize,
                            delta: usize| {
                let started = Instant::now();
                let star = g();
                (star, m, delta, started.elapsed())
            };
            let (star, m, delta, elapsed) = if mmap {
                // The top-level edge connector (m virtual edges) is
                // streamed into a second sharded CSR under the same
                // scratch root — no in-RAM Graph on this path.
                let dir = MmapDir::new("star", n);
                let g = regular_workload_mmap(&dir.0.join("input"), n, 8, 1, journal_every);
                let conn_dir = dir.0.join("conn");
                let params = StarPartitionParams::for_levels(&g, 1);
                let (m, delta) = (g.num_edges(), GraphView::max_degree(&g));
                let out = run_star(
                    &|| {
                        star_partition_edge_coloring_spilled(&g, &params, &conn_dir)
                            .expect("star succeeds")
                    },
                    m,
                    delta,
                );
                assert!(out.0.coloring.is_proper(&g));
                out
            } else {
                let g = regular_workload(n, 8, 1);
                let colored = if relayout { relay(&g) } else { g.clone() };
                let params = StarPartitionParams::for_levels(&colored, 1);
                let (m, delta) = (g.num_edges(), g.max_degree());
                let out = run_star(
                    &|| {
                        star_partition_edge_coloring(&colored, &params)
                            .expect("star partition succeeds")
                    },
                    m,
                    delta,
                );
                // Edge ids survive the relayout, so the coloring must be
                // proper on the *original* workload either way.
                assert!(out.0.coloring.is_proper(&g));
                out
            };
            star_row = Some((star.stats.rounds, elapsed.as_secs_f64()));
            append_record(&Record {
                experiment: "scaling_star".into(),
                workload: format!("n={n}{tag}"),
                n,
                m,
                delta,
                x: 1,
                palette: star.coloring.palette(),
                colors_used: star.coloring.distinct_colors(),
                bound: 4 * delta as u64,
                rounds: star.stats.rounds,
                messages: star.stats.messages,
                time_shape: 0.0,
                wall_s: elapsed.as_secs_f64(),
                nproc,
                threads,
            });
        }

        // Theorem 5.2 on arboricity-2 workloads: ℓ = O(log n) stages.
        let mut t52_row: Option<(u64, f64)> = None;
        if runs("t52") && n <= T52_CAP {
            let ga = arboricity_workload(n, 2, 8, 3);
            let (m, delta) = (ga.num_edges(), ga.max_degree());
            let (t52, secs) = if mmap {
                let dir = MmapDir::new("t52", n);
                let g = spill(&dir.0, ga);
                let started = Instant::now();
                let t52 = theorem52(&g, 2, 2.5, SubroutineConfig::default()).expect("t52 succeeds");
                let secs = started.elapsed().as_secs_f64();
                assert!(t52.coloring.is_proper(&g));
                (t52, secs)
            } else {
                let colored = if relayout { relay(&ga) } else { ga.clone() };
                let started = Instant::now();
                let t52 = theorem52(&colored, 2, 2.5, SubroutineConfig::default())
                    .expect("theorem 5.2 succeeds");
                let secs = started.elapsed().as_secs_f64();
                assert!(t52.coloring.is_proper(&ga));
                (t52, secs)
            };
            t52_row = Some((t52.stats.rounds, secs));
            let d = (2.5f64 * 2.0).ceil() as u64;
            append_record(&Record {
                experiment: "scaling_t52".into(),
                workload: format!("n={n}{tag}"),
                n,
                m,
                delta,
                x: 1,
                palette: t52.coloring.palette(),
                colors_used: t52.coloring.distinct_colors(),
                bound: (4 * d + 1).max(delta as u64 + d),
                rounds: t52.stats.rounds,
                messages: t52.stats.messages,
                time_shape: 0.0,
                wall_s: secs,
                nproc,
                threads,
            });
        }

        // CD-Coloring (Algorithm 1) on the line graph of an 8-regular
        // graph with n/4 base vertices: the colored graph has exactly n
        // vertices, diversity 2, clique size Δ = 8.
        let mut cd_row: Option<(u64, f64)> = None;
        if runs("cd") && n <= star_cap {
            let base_n = (n / 4).max(8);
            let (cd, secs, lg_n, lg_m, lg_delta) = if mmap {
                // Fully streamed: the base workload goes straight to a
                // sharded CSR, the canonical cover is computed off that
                // view, and L(base) is streamed into a second sharded
                // CSR — L(base) never exists as an in-RAM Graph.
                let dir = MmapDir::new("cd", n);
                let base = regular_workload_mmap(&dir.0.join("base"), base_n, 8, 1, journal_every);
                let cover = line_graph_cover(&base).expect("canonical line cover is well-formed");
                let lg = {
                    let mut b = ShardedCsrBuilder::create(dir.0.join("lg"), base.num_edges())
                        .expect("scratch storage dir is writable");
                    line_graph_stream(&base, &mut b).expect("line edges are valid");
                    b.finish().expect("sharded CSR build succeeds")
                };
                let params = CdParams::for_levels(cover.max_clique_size(), 1);
                let ids = IdAssignment::sequential(lg.num_vertices());
                let started = Instant::now();
                let cd = cd_coloring(&lg, &cover, &params, &ids).expect("cd coloring succeeds");
                let secs = started.elapsed().as_secs_f64();
                assert!(cd.coloring.is_proper(&lg));
                let (lg_n, lg_m, lg_delta) = (
                    lg.num_vertices(),
                    lg.num_edges(),
                    GraphView::max_degree(&lg),
                );
                (cd, secs, lg_n, lg_m, lg_delta)
            } else {
                let base = regular_workload(base_n, 8, 1);
                let lg = LineGraph::new(&base);
                let params = CdParams::for_levels(lg.cover.max_clique_size(), 1);
                let ids = IdAssignment::sequential(lg.graph.num_vertices());
                let started = Instant::now();
                let cd =
                    cd_coloring(&lg.graph, &lg.cover, &params, &ids).expect("cd coloring succeeds");
                let secs = started.elapsed().as_secs_f64();
                assert!(cd.coloring.is_proper(&lg.graph));
                let (lg_n, lg_m, lg_delta) = (
                    lg.graph.num_vertices(),
                    lg.graph.num_edges(),
                    lg.graph.max_degree(),
                );
                (cd, secs, lg_n, lg_m, lg_delta)
            };
            cd_row = Some((cd.stats.rounds, secs));
            append_record(&Record {
                experiment: "scaling_cd".into(),
                workload: format!("n={n} (line graph, D=2, S=8){tag}"),
                n: lg_n,
                m: lg_m,
                delta: lg_delta,
                x: 1,
                palette: cd.coloring.palette(),
                colors_used: cd.coloring.distinct_colors(),
                bound: cd.palette_bound,
                rounds: cd.stats.rounds,
                messages: cd.stats.messages,
                time_shape: 0.0,
                wall_s: secs,
                nproc,
                threads,
            });
        }

        // Theorems 5.3 / 5.4 on the same arboricity-2 workload as t52:
        // the recursive pipelines run unmodified on either backend.
        let mut t53_row: Option<(u64, f64)> = None;
        let mut t54_row: Option<(u64, f64)> = None;
        if (runs("t53") || runs("t54")) && n <= T53_T54_CAP {
            let ga = arboricity_workload(n, 2, 8, 3);
            let (m, delta) = (ga.num_edges(), ga.max_degree());
            let cfg53 = SubroutineConfig::default();
            let record = |experiment: &str,
                          res: &decolor_core::arboricity::ArboricityColoring,
                          x: u32,
                          bound: u64,
                          secs: f64| {
                append_record(&Record {
                    experiment: experiment.into(),
                    workload: format!("n={n}{tag}"),
                    n,
                    m,
                    delta,
                    x,
                    palette: res.coloring.palette(),
                    colors_used: res.coloring.distinct_colors(),
                    bound,
                    rounds: res.stats.rounds,
                    messages: res.stats.messages,
                    time_shape: 0.0,
                    wall_s: secs,
                    nproc,
                    threads,
                });
            };
            let spilled = if mmap {
                let dir = MmapDir::new("t5354", n);
                Some((spill(&dir.0, ga.clone()), dir))
            } else {
                None
            };
            if runs("t53") {
                let started = Instant::now();
                let res = match &spilled {
                    Some((g, _)) => theorem53(g, 2, 2.5, cfg53),
                    None => theorem53(&ga, 2, 2.5, cfg53),
                }
                .expect("theorem 5.3 succeeds");
                let secs = started.elapsed().as_secs_f64();
                assert!(res.coloring.is_proper(&ga));
                t53_row = Some((res.stats.rounds, secs));
                record(
                    "scaling_t53",
                    &res,
                    1,
                    analysis::theorem53_palette(delta as u64, 2, 2.5),
                    secs,
                );
            }
            if runs("t54") {
                let started = Instant::now();
                let res = match &spilled {
                    Some((g, _)) => theorem54(g, 2, 2.5, 2, cfg53),
                    None => theorem54(&ga, 2, 2.5, 2, cfg53),
                }
                .expect("theorem 5.4 succeeds");
                let secs = started.elapsed().as_secs_f64();
                assert!(res.coloring.is_proper(&ga));
                t54_row = Some((res.stats.rounds, secs));
                record(
                    "scaling_t54",
                    &res,
                    2,
                    2 * analysis::theorem54_palette(delta as u64, 2, 2.5, 2),
                    secs,
                );
            }
        }

        // Rows not selected by --only (or beyond their ceiling) render as
        // "-", never as a fake 0.
        let rounds_cell =
            |r: &Option<(u64, f64)>| r.map_or_else(|| "-".into(), |(k, _)| format!("{k}"));
        let wall_cell =
            |r: &Option<(u64, f64)>| r.map_or_else(|| "-".into(), |(_, s)| format!("{s:.3}"));
        rows.push(vec![
            format!("{n}"),
            rounds_cell(&linial),
            rounds_cell(&star_row),
            rounds_cell(&t52_row),
            rounds_cell(&cd_row),
            rounds_cell(&t53_row),
            rounds_cell(&t54_row),
            wall_cell(&linial),
            wall_cell(&star_row),
            wall_cell(&t52_row),
            wall_cell(&cd_row),
            wall_cell(&t53_row),
            wall_cell(&t54_row),
            rss_cell(),
        ]);
    }
    rows
}

fn print_ladder(rows: &[Vec<String>]) {
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "Linial rounds (log* n)",
                "star partition x=1",
                "Theorem 5.2 (O(log n))",
                "CD-Coloring x=1",
                "Theorem 5.3 (O(√a·log n))",
                "Theorem 5.4 x=2",
                "Linial wall (s)",
                "star wall (s)",
                "t52 wall (s)",
                "cd wall (s)",
                "t53 wall (s)",
                "t54 wall (s)",
                "peak RSS (MB)"
            ],
            rows
        )
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    // Anything else fails loudly rather than running the default ladder.
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--quick" | "--checkpoint" | "--relayout" => {}
            "--only" | "--backend" | "--max-n" | "--threads" => {
                rest.next();
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(1);
            }
        }
    }
    let only: Option<String> = flag_value("--only").map(str::to_string);
    let backend = flag_value("--backend").unwrap_or("ram");
    let mmap = match backend {
        "ram" => false,
        "mmap" => true,
        other => {
            eprintln!("unknown --backend `{other}` (expected ram or mmap)");
            std::process::exit(1);
        }
    };
    let checkpoint = args.iter().any(|a| a == "--checkpoint");
    if checkpoint && !mmap {
        eprintln!("--checkpoint applies to the out-of-core paths; add --backend mmap");
        std::process::exit(1);
    }
    let relayout = args.iter().any(|a| a == "--relayout");
    if relayout && mmap {
        eprintln!(
            "--relayout rebuilds the in-RAM workloads; the streamed mmap \
             builds take the relabeling through `Relabeling::sink` (see \
             the storage tests) and are not benched here"
        );
        std::process::exit(1);
    }
    // Journal cadence for --checkpoint builds: every 2^20 edges.
    let journal_every = if checkpoint { 1 << 20 } else { 0 };
    let max_n: usize = flag_value("--max-n").map_or(1_048_576, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--max-n expects an integer, got `{v}`");
            std::process::exit(1);
        })
    });
    // Pool widths for the thread-scaling axis; empty = ambient pool.
    let widths: Vec<usize> = flag_value("--threads").map_or_else(Vec::new, |v| {
        v.split(',')
            .map(|w| {
                w.trim()
                    .parse()
                    .ok()
                    .filter(|&w| w >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--threads expects a comma list of widths ≥ 1, got `{v}`");
                        std::process::exit(1);
                    })
            })
            .collect()
    });
    let runs = move |row: &str| only.as_deref().is_none_or(|o| o == row);
    let sizes: Vec<usize> = if quick {
        vec![256, 1024]
    } else {
        SIZES.iter().copied().filter(|&n| n <= max_n).collect()
    };
    let path = if mmap {
        "out-of-core mmap backend (sharded CSR + chunked Linial)"
    } else {
        "borrowed-view paths"
    };
    // Rows measured under --backend mmap / --relayout are tagged in the
    // provenance records so EXPERIMENTS.md can tell the paths apart.
    let mut tag = String::new();
    if mmap {
        tag.push_str(" [mmap]");
    }
    if relayout {
        tag.push_str(" [relayout]");
    }
    let cfg = LadderCfg {
        sizes: &sizes,
        mmap,
        checkpoint,
        journal_every,
        relayout,
        tag: &tag,
    };

    println!("# Scaling study — rounds vs n at fixed Δ ({path})\n");
    if widths.is_empty() {
        print_ladder(&run_ladder(&cfg, &runs));
    } else {
        // One process, one ladder per pool width: per-width wall/RSS
        // rows land in experiments.jsonl with distinct `threads`
        // provenance (RSS stays cumulative across widths — it is a
        // process-lifetime high-water mark).
        for &w in &widths {
            println!("## pool width {w}\n");
            let rows = rayon::with_num_threads(w, || run_ladder(&cfg, &runs));
            print_ladder(&rows);
        }
    }
    println!(
        "Expected shapes: Linial ~flat; star partition and CD-Coloring \
         ~flat after the log* entry; Theorem 5.2 grows ~logarithmically \
         (ℓ peeling stages × d label rounds). Rows are bit-identical \
         across backends; the mmap backend serves the CSR from sharded \
         files (page-cache resident) and runs Linial as the chunked \
         gather pass. The peak-RSS column is the process high-water mark \
         so far — use `--only <row>` for clean per-row numbers."
    );
}
