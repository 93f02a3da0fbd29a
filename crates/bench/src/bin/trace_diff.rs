//! Cross-model trace diff: run flukeperf under the process and interrupt
//! execution models with `ktrace` enabled and verify the user-visible
//! event sequences are identical.
//!
//! Usage: `trace_diff [--chrome PREFIX] [--since-cycle N] [--until-cycle N]`
//!
//! `--chrome PREFIX` additionally writes `PREFIX-process.json` and
//! `PREFIX-interrupt.json` Chrome trace-event files (open in
//! `chrome://tracing` or Perfetto). `--since-cycle`/`--until-cycle`
//! restrict the text summaries and Chrome exports to an inclusive
//! simulated-cycle window (the user-visible diff always covers the whole
//! run). `FLUKE_BENCH_SCALE=quick` selects the scaled-down workload.
//!
//! Exits non-zero if the models diverge.

use fluke_bench::trace_export::{chrome_trace, cycle_window, text_summary_window};
use fluke_bench::tracediff::run_traced_flukeperf;
use fluke_bench::Scale;
use fluke_core::oracle::diff_user_visible;
use fluke_core::Config;

fn main() {
    let mut chrome_prefix: Option<String> = None;
    let mut since: Option<u64> = None;
    let mut until: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    let cycle_arg = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} requires a cycle count");
            std::process::exit(2);
        })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--chrome" => {
                chrome_prefix = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--chrome requires a path prefix");
                    std::process::exit(2);
                }));
            }
            "--since-cycle" => since = Some(cycle_arg(&mut args, "--since-cycle")),
            "--until-cycle" => until = Some(cycle_arg(&mut args, "--until-cycle")),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let scale = Scale::from_env();

    println!("running flukeperf under Process NP (traced)…");
    let process = run_traced_flukeperf(Config::process_np(), scale);
    println!("running flukeperf under Interrupt NP (traced)…");
    let interrupt = run_traced_flukeperf(Config::interrupt_np(), scale);

    println!(
        "\n== Process NP ==\n{}",
        text_summary_window(&process.trace, since, until)
    );
    println!(
        "== Interrupt NP ==\n{}",
        text_summary_window(&interrupt.trace, since, until)
    );

    if let Some(prefix) = chrome_prefix {
        for (kernel, model) in [(&process, "process"), (&interrupt, "interrupt")] {
            let path = format!("{prefix}-{model}.json");
            let windowed = cycle_window(&kernel.trace.merged(), since, until);
            std::fs::write(&path, chrome_trace(&windowed))
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
            println!("wrote {path}");
        }
    }

    let uv = process.trace.user_visible();
    let div = diff_user_visible(&uv, &interrupt.trace.user_visible());
    if div.is_empty() {
        println!(
            "\nVERDICT: execution models are user-visibly identical \
             ({} threads compared)",
            uv.len()
        );
    } else {
        println!("\nVERDICT: models DIVERGED at {} positions:", div.len());
        for d in div.iter().take(20) {
            println!("  {d}");
        }
        std::process::exit(1);
    }
}
