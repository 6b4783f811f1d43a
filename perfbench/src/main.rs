//! `perfbench` — the repository's benchmark of the resident presky engine.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <dir>]
//! ```
//!
//! Runs one named workload (see [`workloads`]) against
//! `presky_service::Engine` in a closed loop for `--seconds`, checks every
//! answer it can check, prints one line per metric (name, value, unit,
//! sample count) and, as the last line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run adds the
//! traced replay and the layer replica and reports the per-layer metrics.
//! Any answer mismatch prints `"correct": false` and exits with code 1.

mod replica;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarises (1 for counts and totals).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self { name: name.to_string(), value, unit, samples }
    }
}

/// What one run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

/// A finite JSON number (non-finite values would make the line unparsable).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn print_result(out: &Outcome) {
    for m in &out.metrics {
        println!("metric {} = {} {} (samples {})", m.name, json_number(m.value), m.unit, m.samples);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--trace-out <dir>]",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} host_cores={host_cores}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match workloads::run(&args) {
        Ok(out) => {
            print_result(&out);
            if out.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: answer mismatch (see the check lines above)");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
