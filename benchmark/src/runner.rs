//! One benchmark run: set up the workload several times, call its public
//! entry point in a closed loop (one caller, one call at a time) at pool
//! widths `wide` and 1 alternately, gate every output, and — with
//! tracing on — follow with traced recompositions that must reproduce
//! the untraced output bit for bit.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::metrics::{unit_of, Source, END_TO_END, PER_LAYER};
use crate::probe;
use crate::trace::Tracer;
use crate::workloads::{f64_of, Input, Output, Res, Scale, SetupTimes, Workload};

/// What to run.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of the workload's generator.
    pub seed: u64,
    /// How long the closed loop measures, in seconds.
    pub seconds: f64,
    /// Per-layer run (traced) instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// The wide pool width (nproc by default); the narrow one is 1.
    pub wide: usize,
    /// Directory for the on-disk store and spilled line graphs; created
    /// and removed by [`run`].
    pub scratch: PathBuf,
}

impl Config {
    fn setup_reps(&self) -> usize {
        match self.scale {
            Scale::Full => 11,
            Scale::Tiny => 2,
        }
    }

    fn min_calls(&self) -> usize {
        match self.scale {
            Scale::Full => 5,
            Scale::Tiny => 1,
        }
    }

    fn trace_reps(&self) -> usize {
        match self.scale {
            Scale::Full => 3,
            Scale::Tiny => 1,
        }
    }
}

/// The outcome of a run.
#[derive(Clone, Debug)]
pub struct Report {
    /// No call failed.
    pub correct: bool,
    /// Calls made (warm-up, measured and traced).
    pub attempted: u64,
    /// Calls that errored, were improper, exceeded the palette bound or
    /// differed from the first call's output.
    pub failed: u64,
    /// Metric values, in registry order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable summary.
    pub summary: String,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let unit = unit_of(name).unwrap_or("");
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Removes the scratch directory on every exit path.
struct ScratchGuard(PathBuf);

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent holds only per-run directories; remove it once empty.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[mid],
        _ => (v[mid - 1] + v[mid]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// (percentile, value); `None` unless that percentile is above the median.
fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    let index = n.checked_sub(11)?;
    if 2 * (index + 1) <= n {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((100.0 * f64_of(index + 1) / f64_of(n), v[index]))
}

/// Counts calls and checks each output: proper, within the analytic
/// palette bound, and identical to the first output at any width.
struct Gate<'a> {
    workload: Workload,
    input: &'a Input,
    reference: Option<Output>,
    attempted: u64,
    failed: u64,
}

impl Gate<'_> {
    fn admit(&mut self, label: &str, out: Res<Output>) -> bool {
        self.attempted += 1;
        let verdict = out.and_then(|out| {
            self.workload.check(self.input, &out)?;
            match &self.reference {
                Some(reference) if *reference != out => Err(format!(
                    "output {:08x} differs from the first call's {:08x}",
                    out.fingerprint(),
                    reference.fingerprint()
                )),
                Some(_) => Ok(()),
                None => {
                    self.reference = Some(out);
                    Ok(())
                }
            }
        });
        match verdict {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {label}: {e}");
                false
            }
        }
    }
}

/// One timed untraced call.
struct Sample {
    wall: f64,
    cpu: f64,
    peak_rss: f64,
}

fn timed_call(cfg: &Config, input: &Input, width: usize, gate: &mut Gate<'_>) -> Res<Sample> {
    let scratch = cfg.scratch.join("lg");
    probe::reset_peak_rss().map_err(|e| format!("VmHWM reset: {e}"))?;
    let cpu0 = probe::cpu_seconds().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let out = rayon::with_num_threads(width, || cfg.workload.call(input, &scratch));
    let wall = start.elapsed().as_secs_f64();
    let cpu = probe::cpu_seconds().map_err(|e| e.to_string())? - cpu0;
    let peak_rss = f64_of(probe::peak_rss_bytes().map_err(|e| e.to_string())?);
    gate.admit(&format!("call at width {width}"), out);
    Ok(Sample {
        wall,
        cpu,
        peak_rss,
    })
}

/// Runs the workload as `cfg` says.
///
/// # Errors
///
/// Set-up failed or a probe could not be read: nothing was measured.
/// Failed calls do not make this an error; they are counted in the
/// report.
pub fn run(cfg: &Config) -> Res<Report> {
    std::fs::create_dir_all(&cfg.scratch).map_err(|e| e.to_string())?;
    let _guard = ScratchGuard(cfg.scratch.clone());
    let wide = cfg.wide.max(1);

    // Set-up, repeated; the last input is the one measured.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut input = None;
    for rep in 0..cfg.setup_reps() {
        drop(input.take());
        let dir = cfg.scratch.join(format!("input-{rep}"));
        let (built, times) =
            rayon::with_num_threads(wide, || cfg.workload.setup(cfg.seed, cfg.scale, &dir))?;
        setups.push(times);
        input = Some(built);
        if rep > 0 {
            let _ = std::fs::remove_dir_all(cfg.scratch.join(format!("input-{}", rep - 1)));
        }
    }
    let input = input.ok_or("no set-up ran")?;
    let mut gate = Gate {
        workload: cfg.workload,
        input: &input,
        reference: None,
        attempted: 0,
        failed: 0,
    };

    // Untimed warm-up at both widths, then the measured closed loop,
    // alternating widths so drift affects both alike.
    for width in [wide, 1] {
        let out =
            rayon::with_num_threads(width, || cfg.workload.call(&input, &cfg.scratch.join("lg")));
        gate.admit(&format!("warm-up at width {width}"), out);
    }
    let mut wide_samples = Vec::new();
    let mut one_samples = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds || one_samples.len() < cfg.min_calls() {
        wide_samples.push(timed_call(cfg, &input, wide, &mut gate)?);
        one_samples.push(timed_call(cfg, &input, 1, &mut gate)?);
    }

    let m = f64_of(input.num_edges());
    let wide_wall = median(&wide_samples.iter().map(|s| s.wall).collect::<Vec<_>>());
    let one_wall = median(&one_samples.iter().map(|s| s.wall).collect::<Vec<_>>());
    let reference = gate.reference.clone();
    let delta = f64_of(input.max_degree());
    let (palette, rounds, messages, payload) =
        reference.as_ref().map_or((0.0, 0.0, 0.0, 0.0), |r| {
            (
                f64_of(r.palette),
                f64_of(r.stats.rounds),
                f64_of(r.stats.messages),
                f64_of(r.stats.payload_bytes),
            )
        });

    let mut summary = format!(
        "{} seed {}: {} → {}\n  n = {}, m = {}, Δ = {}, widths {wide} and 1, {} + {} timed calls, {} set-ups",
        cfg.workload.spec().name,
        cfg.seed,
        cfg.workload.spec().generator,
        cfg.workload.spec().algorithm,
        match &input {
            Input::Ram(g) => g.num_vertices(),
            Input::Store(s) => decolor_graph::subgraph::GraphView::num_vertices(s),
        },
        input.num_edges(),
        input.max_degree(),
        wide_samples.len(),
        one_samples.len(),
        setups.len(),
    );

    let metrics = if cfg.trace {
        let layers = traced_layers(cfg, &input, &mut gate, wide)?;
        let cpu_util = median(
            &wide_samples
                .iter()
                .map(|s| s.cpu / (s.wall * f64_of(wide)))
                .collect::<Vec<_>>(),
        );
        let call_s = median(&layers.iter().map(|t| t.total("call")).collect::<Vec<_>>());
        let setup_value = |name: &str| {
            median(
                &setups
                    .iter()
                    .map(|s| match name {
                        "graph.gen_s" => s.gen_s,
                        _ => s.input_build_s,
                    })
                    .collect::<Vec<_>>(),
            )
        };
        let run_value = |name: &str| match name {
            "runtime.messages" => messages,
            "runtime.payload_bytes" => payload,
            "runtime.messages_per_s" => messages / wide_wall,
            "rayon.cpu_util" => cpu_util,
            "rayon.speedup" => one_wall / wide_wall,
            "trace.overhead_s" => call_s - wide_wall,
            "storage.lg_write_mb_s" => median(
                &layers
                    .iter()
                    .map(|t| {
                        let s = t.total("storage.lg_build");
                        if s > 0.0 {
                            t.counted("storage.lg_bytes") / 1e6 / s
                        } else {
                            0.0
                        }
                    })
                    .collect::<Vec<_>>(),
            ),
            _ => f64::NAN,
        };
        let mut out = Vec::new();
        for metric in &PER_LAYER {
            let per_trace =
                |f: &dyn Fn(&Tracer) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
            let value = match metric.source {
                Source::Setup => setup_value(metric.name),
                Source::Span(span) => per_trace(&|t| t.total(span)),
                Source::SelfTime(span) => per_trace(&|t| t.self_total(span)),
                Source::Count(count) => per_trace(&|t| t.counted(count)),
                Source::Run => run_value(metric.name),
            };
            out.push((metric.name, value));
        }
        for t in &layers {
            eprintln!("trace {}", t.to_json());
        }
        out
    } else {
        let setup_s = median(&setups.iter().map(SetupTimes::total).collect::<Vec<_>>());
        let peak = median(&wide_samples.iter().map(|s| s.peak_rss).collect::<Vec<_>>());
        END_TO_END
            .iter()
            .map(|metric| {
                let value = match metric.name {
                    "edges_per_s" => m / wide_wall,
                    "edges_per_s_1t" => m / one_wall,
                    "setup_s" => setup_s,
                    "peak_rss_mb" => peak / 1e6,
                    "palette_excess" => palette - delta,
                    "rounds" => rounds,
                    _ => f64::NAN,
                };
                (metric.name, value)
            })
            .collect()
    };

    for (width, samples) in [(wide, &wide_samples), (1, &one_samples)] {
        let walls: Vec<f64> = samples.iter().map(|s| s.wall).collect();
        let _ = write!(
            summary,
            "\n  call time at width {width}: median {:.4} s{} over {} calls",
            median(&walls),
            tail(&walls).map_or(String::new(), |(p, v)| format!(", p{p:.0} {v:.4} s")),
            walls.len()
        );
    }
    let fail_rate = f64_of(gate.failed) / f64_of(gate.attempted.max(1));
    let _ = write!(
        summary,
        "\n  palette {palette} colors (analytic bound {}), fail_rate {fail_rate} ({} of {} calls), fingerprint {}",
        cfg.workload.palette_bound(&input),
        gate.failed,
        gate.attempted,
        reference
            .as_ref()
            .map_or("none".to_string(), |r| format!("{:08x}", r.fingerprint())),
    );
    for (name, value) in &metrics {
        let _ = write!(
            summary,
            "\n  {name:<32} {value:>16.6} {}",
            unit_of(name).unwrap_or("")
        );
    }
    if let Some((name, _)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    Ok(Report {
        correct: gate.failed == 0,
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
        summary,
    })
}

/// Traced recompositions: `trace_reps` at width `wide` (the per-layer
/// values are their medians) and one at width 1, each gated against the
/// untraced output.
fn traced_layers(
    cfg: &Config,
    input: &Input,
    gate: &mut Gate<'_>,
    wide: usize,
) -> Res<Vec<Tracer>> {
    let scratch: &Path = &cfg.scratch.join("lg-traced");
    let mut traces = Vec::new();
    let widths = std::iter::repeat_n(wide, cfg.trace_reps()).chain([1]);
    for width in widths {
        let mut tracer = Tracer::new();
        let out =
            rayon::with_num_threads(width, || cfg.workload.traced(input, scratch, &mut tracer));
        if gate.admit(&format!("traced recomposition at width {width}"), out) && width == wide {
            traces.push(tracer);
        }
    }
    if traces.is_empty() {
        return Err("no traced recomposition matched the untraced output".into());
    }
    Ok(traces)
}
