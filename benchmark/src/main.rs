//! `decolor-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human summary on stderr and, as the last line of stdout, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. Exits
//! 1 if any call failed its check, 2 on a usage or set-up error (then
//! without a result line).

use std::path::Path;
use std::process::ExitCode;

use decolor_benchmark::runner::{run, Config};
use decolor_benchmark::workloads::{Scale, Workload};

const USAGE: &str =
    "usage: decolor-benchmark --workload <arb-skewed|cd-mmap> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds {seconds} is not a duration"));
    }
    let wide = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let scratch = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scratch")
        .join(format!("run-{}", std::process::id()));
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        wide,
        scratch,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            eprintln!("{}", report.summary);
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
