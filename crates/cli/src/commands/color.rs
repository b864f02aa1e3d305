//! `decolor color <algorithm> <spec>`.

use decolor_baselines::distributed::two_delta_minus_one_edge_coloring;
use decolor_baselines::greedy::greedy_edge_coloring;
use decolor_baselines::misra_gries::misra_gries_edge_coloring;
use decolor_baselines::randomized::randomized_edge_coloring;
use decolor_core::arboricity::{corollary55, theorem52, theorem53, theorem54};
use decolor_core::cd_coloring::{cd_edge_coloring, cd_edge_coloring_spilled, CdParams};
use decolor_core::delta_plus_one::SubroutineConfig;
use decolor_core::star_partition::{
    star_partition_edge_coloring, star_partition_edge_coloring_spilled, StarPartitionParams,
};
use decolor_core::verify;
use decolor_graph::coloring::EdgeColoring;
use decolor_graph::subgraph::GraphView;
use decolor_graph::Graph;
use decolor_runtime::NetworkStats;
use std::path::{Path, PathBuf};

use crate::args::{opt_f64, opt_usize, parse_kv, Parsed};
use crate::spec::build_graph;

/// Runs the requested edge-coloring algorithm; prints palette, distinct
/// colors, rounds and messages; validates properness.
///
/// # Errors
///
/// Malformed algorithm/spec or algorithm precondition failures.
pub fn run(parsed: &mut Parsed) -> Result<String, String> {
    let algo = parsed
        .positional(0)
        .ok_or("color needs an algorithm")?
        .to_string();
    let spec = parsed
        .positional(1)
        .ok_or("color needs a graph spec")?
        .to_string();
    let g = build_graph(&spec)?;
    let (coloring, stats, label) = match parsed.option("backend").unwrap_or("ram") {
        "ram" => dispatch(&algo, &g)?,
        "mmap" => dispatch_mmap(&algo, &g)?,
        other => {
            return Err(format!(
                "unknown --backend `{other}` (expected ram or mmap)"
            ))
        }
    };
    if !coloring.is_proper(&g) {
        return Err("internal error: produced an improper coloring".into());
    }
    let mut verify_report = String::new();
    if parsed.option("verify").is_some() {
        verify_report = certificate_report(&algo, &g, &coloring)?;
    }
    let delta = g.max_degree();
    let mut out = format!(
        "{label} on {spec} (n = {}, m = {}, Δ = {delta})\n",
        g.num_vertices(),
        g.num_edges()
    );
    out.push_str(&format!(
        "palette {}  distinct {}  (Δ+1 = {}, 2Δ−1 = {})\n",
        coloring.palette(),
        coloring.distinct_colors(),
        delta + 1,
        (2 * delta).saturating_sub(1).max(1),
    ));
    match stats {
        Some(s) => out.push_str(&format!(
            "rounds {}  messages {}  payload {} bytes\n",
            s.rounds, s.messages, s.payload_bytes
        )),
        None => out.push_str("centralized (no LOCAL rounds)\n"),
    }
    out.push_str(&verify_report);
    out.push_str(&super::write_artifacts(parsed, &g, Some(&coloring))?);
    Ok(out)
}

/// Runs the applicable certificate checks for the chosen algorithm.
fn certificate_report(algo: &str, g: &Graph, coloring: &EdgeColoring) -> Result<String, String> {
    let (name, params) = algo.split_once(':').unwrap_or((algo, ""));
    let kv = parse_kv(params)?;
    let checks = match name {
        "star" => verify::check_star_partition(g, coloring, opt_usize(&kv, "x", 1)? as u32),
        "t52" => verify::check_theorem52(
            g,
            coloring,
            opt_usize(&kv, "a", 2)? as u64,
            opt_f64(&kv, "q", 2.5)?,
        ),
        "t54" => verify::check_theorem54(
            g,
            coloring,
            opt_usize(&kv, "a", 2)? as u64,
            opt_f64(&kv, "q", 2.5)?,
            opt_usize(&kv, "x", 2)? as u32,
        ),
        _ => vec![],
    };
    if checks.is_empty() {
        return Ok("(no certificate checks registered for this algorithm)
"
        .into());
    }
    verify::ensure_all(&checks).map_err(|e| e.to_string())?;
    Ok(verify::render_report(&checks))
}

/// A coloring, its LOCAL ledger (`None` for centralized baselines), and
/// the label the report prints.
type Dispatched = (EdgeColoring, Option<NetworkStats>, String);

/// Algorithms [`dispatch_mmap`] handles: the paper algorithms of
/// [`dispatch_paper`]. The unsupported-algorithm error message is derived
/// from this table, and `mmap_dispatch_matches_ram` pins that every
/// listed name actually dispatches — so the list cannot drift from the
/// match arms.
const MMAP_SUPPORTED: &[&str] = &["star", "cd", "t52", "t53", "t54", "c55"];

/// Runs the algorithm on the **out-of-core backend**: the graph is
/// spilled to a sharded mmap CSR under a scratch directory and the
/// view-generic pipeline runs on it unmodified (bit-identical results to
/// the ram backend — pinned by the core backend-equivalence tests).
/// star and cd additionally stream their derived graphs (the top-level
/// edge connector and the line graph) into sharded CSRs under the same
/// scratch root, so no in-RAM `Graph` is materialized on any path.
/// Algorithms whose entry points are still `Graph`-bound report a clear
/// error instead of silently falling back.
fn dispatch_mmap(algo: &str, g: &Graph) -> Result<Dispatched, String> {
    static SCRATCH_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SCRATCH_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("decolor-cli-mmap-{}-{seq}", std::process::id()));
    dispatch_mmap_in(algo, g, &dir)
}

/// [`dispatch_mmap`] with an explicit scratch root — split out so tests
/// can pin that the root is gone after success *and* error exits.
fn dispatch_mmap_in(algo: &str, g: &Graph, dir: &Path) -> Result<Dispatched, String> {
    let (name, params) = algo.split_once(':').unwrap_or((algo, ""));
    let kv = parse_kv(params)?;
    if !MMAP_SUPPORTED.contains(&name) {
        return Err(match name {
            "baseline" | "misra" | "random" | "greedy" => format!(
                "algorithm `{name}` does not support --backend mmap yet (supported: {})",
                MMAP_SUPPORTED.join(", ")
            ),
            other => format!("unknown algorithm `{other}`"),
        });
    }
    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let _cleanup = Cleanup(dir.to_path_buf());
    let sc = decolor_graph::storage::ShardedCsr::from_graph(dir.join("input"), g)
        .map_err(|e| format!("cannot spill graph to mmap storage: {e}"))?;
    match dispatch_paper(name, &kv, &sc, Some(dir))? {
        Some((coloring, stats, label)) => Ok((coloring, stats, format!("{label} [mmap backend]"))),
        None => Err(format!(
            "algorithm `{name}` is listed as mmap-supported but has no dispatch arm"
        )),
    }
}

/// The paper algorithms, written once for both backends; `Ok(None)` for
/// any other name. With a `scratch` dir, star and cd spill their derived
/// graphs (the top-level edge connector, the line graph) under it; the
/// other four take no scratch.
fn dispatch_paper<G: GraphView>(
    name: &str,
    kv: &[(String, String)],
    g: &G,
    scratch: Option<&Path>,
) -> Result<Option<Dispatched>, String> {
    let cfg = SubroutineConfig::default();
    let err = |e: decolor_core::AlgoError| e.to_string();
    let dispatched = match name {
        "star" => {
            let x = opt_usize(kv, "x", 1)?;
            let params = StarPartitionParams::for_levels(g, x);
            let res = match scratch {
                Some(dir) => star_partition_edge_coloring_spilled(g, &params, &dir.join("conn")),
                None => star_partition_edge_coloring(g, &params),
            }
            .map_err(err)?;
            (
                res.coloring,
                Some(res.stats),
                format!("star partition (x = {x})"),
            )
        }
        "cd" => {
            let x = opt_usize(kv, "x", 1)?;
            let params = CdParams::for_levels(g.max_degree().max(2), x);
            let (c, s) = match scratch {
                Some(dir) => cd_edge_coloring_spilled(g, &params, &dir.join("lg")),
                None => cd_edge_coloring(g, &params),
            }
            .map_err(err)?;
            (
                c,
                Some(s),
                format!("CD-Coloring of the line graph (x = {x})"),
            )
        }
        "t52" => {
            let a = opt_usize(kv, "a", 2)?;
            let q = opt_f64(kv, "q", 2.5)?;
            let res = theorem52(g, a, q, cfg).map_err(err)?;
            (
                res.coloring,
                Some(res.stats),
                format!("Theorem 5.2 (a = {a})"),
            )
        }
        "t53" => {
            let a = opt_usize(kv, "a", 2)?;
            let q = opt_f64(kv, "q", 2.5)?;
            let res = theorem53(g, a, q, cfg).map_err(err)?;
            (
                res.coloring,
                Some(res.stats),
                format!("Theorem 5.3 (a = {a})"),
            )
        }
        "t54" => {
            let a = opt_usize(kv, "a", 2)?;
            let x = opt_usize(kv, "x", 2)?;
            let q = opt_f64(kv, "q", 2.5)?;
            let res = theorem54(g, a, q, x, cfg).map_err(err)?;
            (
                res.coloring,
                Some(res.stats),
                format!("Theorem 5.4 (a = {a}, x = {x})"),
            )
        }
        "c55" => {
            let a = opt_usize(kv, "a", 2)?;
            let (res, p) = corollary55(g, a, cfg).map_err(err)?;
            (
                res.coloring,
                Some(res.stats),
                format!("Corollary 5.5 (a = {a}; chose x = {}, q = {:.1})", p.x, p.q),
            )
        }
        _ => return Ok(None),
    };
    Ok(Some(dispatched))
}

fn dispatch(algo: &str, g: &Graph) -> Result<Dispatched, String> {
    let (name, params) = algo.split_once(':').unwrap_or((algo, ""));
    let kv = parse_kv(params)?;
    if let Some(paper) = dispatch_paper(name, &kv, g, None)? {
        return Ok(paper);
    }
    let err = |e: decolor_core::AlgoError| e.to_string();
    match name {
        "baseline" => {
            let (c, s) = two_delta_minus_one_edge_coloring(g).map_err(err)?;
            Ok((c, Some(s), "(2Δ−1) baseline".to_string()))
        }
        "misra" => Ok((
            misra_gries_edge_coloring(g),
            None,
            "Misra–Gries (Δ+1)".to_string(),
        )),
        "random" => {
            let seed = opt_usize(&kv, "seed", 0)? as u64;
            let delta = g.max_degree() as u64;
            let palette = (2 * delta).saturating_sub(1).max(1);
            let (c, s) = randomized_edge_coloring(g, palette, seed).map_err(err)?;
            Ok((c, Some(s), "randomized (2Δ−1), Luby-style".to_string()))
        }
        "greedy" => Ok((greedy_edge_coloring(g), None, "greedy (2Δ−1)".to_string())),
        other => Err(format!("unknown algorithm `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmap_dispatch_matches_ram() {
        let g = decolor_graph::generators::forest_union(60, 2, 6, 1).unwrap();
        // One parameterization per MMAP_SUPPORTED entry — pins the const
        // against the dispatch table.
        let algos = [
            "star:x=1",
            "cd:x=1",
            "t52:a=2",
            "t53:a=2",
            "t54:a=2,x=2",
            "c55:a=2",
        ];
        for name in MMAP_SUPPORTED {
            assert!(
                algos.iter().any(|a| a.split(':').next() == Some(*name)),
                "MMAP_SUPPORTED entry `{name}` is not exercised"
            );
        }
        for algo in algos {
            let (ram, ram_stats, _) = dispatch(algo, &g).unwrap();
            let (mmap, mmap_stats, label) = dispatch_mmap(algo, &g).unwrap();
            assert_eq!(mmap.as_slice(), ram.as_slice(), "{algo} diverges");
            assert_eq!(mmap_stats, ram_stats, "{algo} ledger diverges");
            assert!(label.contains("mmap backend"));
        }
        let err = dispatch_mmap("misra", &g).unwrap_err();
        assert!(err.contains("does not support --backend mmap"), "{err}");
        assert!(
            err.contains(&MMAP_SUPPORTED.join(", ")),
            "error list not derived from dispatch table: {err}"
        );
        assert!(dispatch_mmap("zzz", &g).unwrap_err().contains("unknown"));
    }

    #[test]
    fn mmap_scratch_removed_on_success_and_error() {
        let g = decolor_graph::generators::forest_union(60, 2, 6, 1).unwrap();
        let root =
            std::env::temp_dir().join(format!("decolor-cli-scratch-test-{}", std::process::id()));
        for algo in ["star:x=1", "cd:x=1", "t53:a=2"] {
            let dir = root.join(algo.replace([':', ','], "-"));
            dispatch_mmap_in(algo, &g, &dir).unwrap();
            assert!(!dir.exists(), "{algo}: scratch survived a success exit");
        }
        // q < 2 fails inside theorem52 *after* the graph was spilled.
        let dir = root.join("err");
        assert!(dispatch_mmap_in("t52:a=2,q=1.0", &g, &dir).is_err());
        assert!(!dir.exists(), "scratch survived an error exit");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn dispatch_every_algorithm() {
        let g = decolor_graph::generators::forest_union(60, 2, 6, 1).unwrap();
        for algo in [
            "star:x=1",
            "star:x=2",
            "cd:x=1",
            "t52:a=2",
            "t53:a=2",
            "t54:a=2,x=2",
            "c55:a=2",
            "baseline",
            "misra",
            "greedy",
            "random:seed=1",
        ] {
            let result = dispatch(algo, &g);
            assert!(result.is_ok(), "{algo}: {}", result.unwrap_err());
            let (c, _, _) = result.unwrap();
            assert!(c.is_proper(&g), "{algo} produced improper coloring");
        }
        assert!(dispatch("zzz", &g).is_err());
    }
}
