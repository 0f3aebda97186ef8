//! The covenant benchmark: one command, four workloads, end-to-end metrics
//! by default and per-layer metrics under `--trace 1`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload l7_redirect --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every workload checks its outputs; any failed check makes the result's
//! `correct` false and the exit code 1. The last line of standard output
//! is the JSON result; the lines before it repeat each metric as
//! `name value unit` for a human reader. See `perfbench/README.md` for
//! the workloads, metric definitions and the layer → metric map.

mod l4;
mod l7;
mod plane;
mod report;
mod scenario;
mod stats;
mod sys;
mod trace;
mod window;

use report::{Metrics, Outcome};
use std::process::ExitCode;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["l7_redirect", "window_roll", "scenario_sim", "l4_relay"];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 1.0) {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, got '{}'",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn run_one(name: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let run = |trace: Option<&mut trace::Tracer>, secs: f64| match name {
        "l7_redirect" => l7::run(seed, secs, trace),
        "window_roll" => window::run(seed, secs, trace),
        "scenario_sim" => scenario::run(seed, secs, trace),
        "l4_relay" => l4::run(seed, secs, trace),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    if !traced {
        return run(None, seconds);
    }
    // The traced run measures the workload twice, untraced then traced,
    // for half the time each: the difference is the tracing overhead.
    let half = (seconds / 2.0).max(1.0);
    let plain = run(None, half);
    let mut tracer = trace::Tracer::new();
    let mut traced_run = run(Some(&mut tracer), half);
    traced_run.layers.merge_spans(&tracer);
    traced_run.layers.overhead(&plain, &traced_run.e2e);
    trace::write_spans(name, seed, &tracer);
    traced_run.absorb_checks(plain);
    traced_run
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut total = Outcome::default();
    let mut printed = Metrics::default();
    for name in &names {
        let out = run_one(name, args.seed, args.seconds, args.trace);
        let metrics = if args.trace {
            out.layers.metrics(name)
        } else {
            out.e2e.clone()
        };
        let prefix = if names.len() > 1 {
            format!("{name}.")
        } else {
            String::new()
        };
        for check in &out.failures {
            println!("{name}: CHECK FAILED: {check}");
        }
        if !args.trace {
            println!("{name}: {prefix}failed_frac {} fraction", out.failed_frac());
            if let Some(err) = out.share_error_pct {
                println!("{name}: {prefix}share_error_pct {err} pp");
            }
        }
        for m in &metrics.0 {
            println!("{name}: {prefix}{} {} {}", m.name, m.value, m.unit);
            printed.push(&format!("{prefix}{}", m.name), m.value, m.unit);
        }
        total.absorb_checks(out);
    }
    println!("{}", total.json(&printed));
    if total.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
