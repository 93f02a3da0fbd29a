//! The MP scaling headline: IPC-echo and flukeperf throughput on 1–64
//! simulated processors, fine-grained locking vs the big-lock
//! configuration, written to `BENCH_mp_scaling.json`.
//!
//! Usage: `mp_scaling [--quick] [--check] [--out FILE]` (see
//! [`fluke_bench::gate`]).
//!
//! * Default: run the sweep at both paper and quick scale and write the
//!   combined artifact (the committed baseline carries both, so the CI
//!   quick smoke can gate against a same-scale reference).
//! * `--quick` restricts the sweep to the quick scale.
//! * `--check` gates against the committed `BENCH_mp_scaling.json`:
//!   fails if any fresh row differs from the committed row of the same
//!   scale, or if fine-grained locking no longer beats the big lock on
//!   16-CPU lock-wait share.

use fluke_bench::gate::{scale_runs, Gate};
use fluke_bench::{mp_scaling, Scale};

const GATE: Gate = Gate {
    bin: "mp_scaling",
    committed: "BENCH_mp_scaling.json",
    flags: &["--quick"],
};

fn main() {
    let args = GATE.args();
    let committed = GATE.committed(&args);
    let scales: &[Scale] = if args.has("--quick") {
        &[Scale::Quick]
    } else {
        &[Scale::Paper, Scale::Quick]
    };

    let mut runs = Vec::new();
    for &scale in scales {
        let rows = mp_scaling::run_mp_scaling(scale);
        println!(
            "MP scaling ({:?}): throughput vs processors, fine-grained vs big kernel lock",
            scale
        );
        println!("{}", mp_scaling::table(&rows).render());
        runs.push((scale, rows));
    }

    let docs = runs
        .iter()
        .map(|(scale, rows)| mp_scaling::to_json(*scale, rows))
        .collect();
    GATE.write(&args, &scale_runs("mp_scaling", docs));
    if let Some(c) = committed {
        let errs: Vec<String> = runs
            .iter()
            .flat_map(|(scale, rows)| mp_scaling::check(&c, *scale, rows))
            .collect();
        GATE.finish(&errs);
    }
}
