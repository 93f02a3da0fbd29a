//! Benchmark the software-TLB + bulk-memory fast path against the
//! per-byte reference implementation (host wall-clock), and write the
//! results to `BENCH_memfast.json`.
//!
//! Usage: `memfast [--out FILE]` — scale via `FLUKE_BENCH_SCALE`. The
//! report is host wall-clock, so there is nothing to `--check`; without
//! `--out` it overwrites the committed `BENCH_memfast.json`.

use fluke_bench::gate::{Gate, USAGE_EXIT};

const GATE: Gate = Gate {
    bin: "memfast",
    committed: "BENCH_memfast.json",
    flags: &[],
};

fn main() {
    let args = GATE.args();
    if args.check {
        eprintln!("memfast: host wall-clock report; --check is not supported");
        std::process::exit(USAGE_EXIT);
    }
    let scale = fluke_bench::Scale::from_env();
    let rows = fluke_bench::memfast::run_memfast(scale);
    println!("memfast: host wall-clock, fast path vs per-byte reference");
    println!("{}", fluke_bench::memfast::table(&rows).render());
    GATE.write(&args, &fluke_bench::memfast::to_json(scale, &rows));
}
