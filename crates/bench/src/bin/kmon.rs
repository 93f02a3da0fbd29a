//! `kmon`: the kernel observability dashboard. Runs `flukeperf` under
//! every valid Table 4 configuration with the `kprof` profiler and the
//! `kspan` request tracer enabled and the latency probe installed, prints
//! the cycle-attribution tree, per-request critical-path and contention
//! summaries, preemption-latency and memory-gauge summaries, and writes
//! `BENCH_observability.json`.
//!
//! Usage: `kmon [--check] [--out FILE] [--flame FILE]` (see
//! [`fluke_bench::gate`]) — scale via `FLUKE_BENCH_SCALE`. `--check`
//! (quick scale only) fails if any field of the fresh report differs
//! from the committed one (printing the first 20 differing paths and
//! their count — the quick report is fully simulated, so any change is
//! a behaviour change of the kernel or an observer), or if a
//! preemption-latency maximum exceeds its blessed CI bound. `--flame`
//! writes the per-request-class collapsed flamegraph (one
//! `class;path cycles` line per frame, all configs concatenated) for
//! `flamegraph.pl`-style tools.

use fluke_bench::gate::{differences, Gate, USAGE_EXIT};
use fluke_bench::{observability, Scale};

const GATE: Gate = Gate {
    bin: "kmon",
    committed: "BENCH_observability.json",
    flags: &["--flame FILE"],
};

fn main() {
    let args = GATE.args();
    let scale = Scale::from_env();
    if args.check && scale != Scale::Quick {
        eprintln!("kmon --check gates quick-scale bounds; set FLUKE_BENCH_SCALE=quick");
        std::process::exit(USAGE_EXIT);
    }
    let committed = GATE.committed(&args);
    println!("=== kmon: kernel observability dashboard ({scale:?} scale) ===\n");
    let runs = observability::run_sweep(scale);
    print!("{}", observability::render_dashboard(&runs));
    let doc = observability::to_json(scale, &runs);
    GATE.write(&args, &doc);
    if let Some(f) = args.value("--flame") {
        let mut lines = Vec::new();
        for o in &runs {
            for line in observability::collapsed_spans(&o.kernel) {
                lines.push(format!("{};{line}", o.label().replace(' ', "_")));
            }
        }
        std::fs::write(f, lines.join("\n") + "\n").expect("write flamegraph");
        println!("wrote {f} ({} frames)", lines.len());
    }
    if let Some(c) = committed {
        let paths = differences(&c, &doc);
        let mut errs: Vec<String> = paths
            .iter()
            .take(20)
            .map(|path| {
                let at = if path.is_empty() { "its root" } else { path };
                format!("fresh report differs from {} at {at}", GATE.committed)
            })
            .collect();
        if !paths.is_empty() {
            errs.push(format!("{} differing paths in all", paths.len()));
        }
        errs.extend(observability::check_regression(&runs));
        GATE.finish(&errs);
    }
}
