//! Benchmark self-test: the registry matches `BENCHMARK.json`, and at tiny
//! sizes every workload emits every metric with every call passing its
//! gate, the traced recompositions at widths 2 and 1 included.

use std::path::{Path, PathBuf};

use decolor_benchmark::metrics::{END_TO_END, PER_LAYER};
use decolor_benchmark::runner::{run, Config};
use decolor_benchmark::trace::Tracer;
use decolor_benchmark::workloads::{Input, Scale, Workload};
use serde::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(json: &'a Value, section: &str) -> &'a [Value] {
    match json.get_field(section).unwrap() {
        Value::Array(items) => items,
        other => panic!("{section} is not a list: {other:?}"),
    }
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    match entry.get_field(key).unwrap() {
        Value::String(s) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("self-test-{name}-{}", std::process::id()))
}

#[test]
fn registry_matches_benchmark_json() {
    let json = benchmark_json();
    let listed = |section| -> Vec<(String, String, String)> {
        entries(&json, section)
            .iter()
            .map(|e| {
                (
                    text(e, "name").into(),
                    text(e, "unit").into(),
                    text(e, "better").into(),
                )
            })
            .collect()
    };
    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
        .collect();
    assert_eq!(listed("end_to_end"), e2e);
    let layers: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
        .collect();
    assert_eq!(listed("per_layer"), layers);
    let workloads: Vec<(String, String)> = entries(&json, "workloads")
        .iter()
        .map(|e| (text(e, "name").into(), text(e, "why").into()))
        .collect();
    let specs: Vec<(String, String)> = Workload::ALL
        .iter()
        .map(|w| (w.spec().name.into(), w.spec().why.into()))
        .collect();
    assert_eq!(workloads, specs);
    // Each layer metric names the end-to-end metric and workloads it
    // should move, and both must exist.
    for m in PER_LAYER {
        let target = m.moves.split([',', ' ']).next().unwrap();
        assert!(
            target == "none:" || END_TO_END.iter().any(|e| e.name == target),
            "{}: moves {}",
            m.name,
            m.moves
        );
        for w in m.on.split(", ") {
            assert!(Workload::from_name(w).is_some(), "{}: on {w}", m.name);
        }
    }
}

#[test]
fn every_workload_emits_every_metric_and_recomposes_exactly() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let cfg = Config {
                workload,
                seed: 3,
                seconds: 0.0,
                trace,
                scale: Scale::Tiny,
                wide: 2,
                scratch: scratch(workload.spec().name),
            };
            let report = run(&cfg).unwrap_or_else(|e| panic!("{workload:?}: {e}"));
            let label = format!("{workload:?} trace={trace}");
            assert!(
                report.correct && report.failed == 0,
                "{label}: {}",
                report.summary
            );
            // Two warm-ups and one timed call per width; traced runs add
            // one recomposition at width 2 and one at width 1.
            assert_eq!(report.attempted, if trace { 6 } else { 4 }, "{label}");
            let names: Vec<&str> = report.metrics.iter().map(|&(n, _)| n).collect();
            let expected: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            assert_eq!(names, expected, "{label}");
            assert!(report.metrics.iter().all(|(_, v)| v.is_finite()), "{label}");
            if !trace {
                for name in [
                    "edges_per_s",
                    "edges_per_s_1t",
                    "setup_s",
                    "peak_rss_mb",
                    "rounds",
                ] {
                    assert!(report.get(name).unwrap() > 0.0, "{label}: {name}");
                }
            }
            assert!(!cfg.scratch.exists(), "{label}: scratch left behind");
        }
    }
}

#[test]
fn arb_setup_builds_the_library_generators_graph() {
    let dir = scratch("setup");
    let (input, times) = Workload::ArbSkewed.setup(5, Scale::Tiny, &dir).unwrap();
    let Input::Ram(g) = input else {
        panic!("arb-skewed runs in RAM")
    };
    assert_eq!(
        g,
        decolor_graph::generators::barabasi_albert(1 << 9, 2, 5).unwrap()
    );
    assert!(times.gen_s > 0.0 && times.input_build_s == 0.0);
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let mut tr = Tracer::new();
    tr.span("outer", |tr| {
        tr.span("child", |tr| tr.span("grandchild", |_| ()));
        tr.span("child", |_| ());
        tr.count("things", 2.0);
        tr.count("things", 3.0);
    });
    let spans = tr.spans();
    assert_eq!(spans.len(), 4);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(1));
    let duration = |i: usize| spans[i].end - spans[i].start;
    let expected = duration(0) - duration(1) - duration(3);
    assert!((tr.self_time(0) - expected).abs() < 1e-12);
    assert!((tr.total("child") - duration(1) - duration(3)).abs() < 1e-12);
    assert_eq!(tr.counted("things"), 5.0);
    assert_eq!(tr.total("missing").to_bits(), 0.0f64.to_bits());
}
