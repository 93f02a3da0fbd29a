//! `hostperf --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload for about `S` seconds and prints, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed`, and
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Failed checks are listed on standard error.

use std::process::ExitCode;

use hostperf::cells::Workload;
use hostperf::inputs::Inputs;
use hostperf::measure;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: hostperf --workload memtest|mp64|observed \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::new(args.seed);
    let report = if args.trace {
        measure::traced(args.workload, &inputs, args.seconds)
    } else {
        measure::untraced(args.workload, &inputs, args.seconds)
    };
    for e in &report.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", report.to_json_line());
    ExitCode::SUCCESS
}
