//! `perfbench --workload NAME --seed N --seconds S --trace 0|1` runs one
//! workload and prints its metrics, the result object last.
//! `perfbench --diff A B` compares the work counters and model outputs
//! of two saved outputs exactly.

use std::process::ExitCode;

use perfbench::report::{self, Host, END_TO_END, PER_LAYER};
use perfbench::workloads::{self, Ctx};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n       perfbench --diff OUTPUT_A OUTPUT_B";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn diff(a: &str, b: &str) -> Result<ExitCode, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let diffs = report::diff_outputs(&read(a)?, &read(b)?);
    for d in &diffs {
        println!("{d}");
    }
    if diffs.is_empty() {
        println!("counters and model outputs identical");
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let host = Host::probe();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc: host.nproc,
    };
    let mut out = workloads::run(&args.workload, &ctx, args.trace)?;
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        out.set("peak_rss_mib", report::peak_rss_mib());
    }
    for &(name, _) in catalogue {
        if !out.metrics.contains_key(name) {
            // Per-layer: a layer this workload does not exercise reads 0.
            if !args.trace {
                out.fail(format!("end-to-end metric {name} was not measured"));
            }
            out.set(name, 0.0);
        }
    }
    if let Some((name, v)) = out.metrics.iter().find(|(_, v)| !v.is_finite()) {
        out.fail(format!("metric {name} is not finite: {v}"));
    }
    let header = format!(
        "workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    print!("{}", report::render(&header, &host, catalogue, &out));
    Ok(if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [flag, a, b] if flag == "--diff" => diff(a, b),
        _ => parse(&args).and_then(|a| run(&a)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
