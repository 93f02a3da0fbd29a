//! The server-consolidation headline: up to 10240 concurrent connections
//! multiplexed onto portset frontends routed to sharded worker pools,
//! plus the `ipc_submit` batching echo tier, written to
//! `BENCH_server.json`.
//!
//! Usage: `server_consolidation [--quick] [--check] [--out FILE]` (see
//! [`fluke_bench::gate`]).
//!
//! * Default: run the sweep at both paper and quick scale and write the
//!   combined artifact (the committed baseline carries both, so the CI
//!   quick smoke can gate against a same-scale reference).
//! * `--quick` restricts the sweep to the quick scale.
//! * `--check` gates against the committed `BENCH_server.json`: it fails
//!   if any fresh row differs from the committed row of the same scale,
//!   or if batching no longer cuts kernel entries per message by at least
//!   4x on the echo tier.

use fluke_bench::gate::{scale_runs, Gate};
use fluke_bench::{server_consolidation, Scale};

const GATE: Gate = Gate {
    bin: "server_consolidation",
    committed: "BENCH_server.json",
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
        let rows = server_consolidation::run_server_consolidation(scale);
        println!(
            "Server consolidation ({:?}): connection scale, worker pools, batched submission",
            scale
        );
        println!("{}", server_consolidation::table(&rows).render());
        println!(
            "echo-tier kernel-entry reduction: {:.1}x",
            server_consolidation::echo_entry_reduction(&rows)
        );
        runs.push((scale, rows));
    }

    let docs = runs
        .iter()
        .map(|(scale, rows)| server_consolidation::to_json(*scale, rows))
        .collect();
    GATE.write(&args, &scale_runs("server_consolidation", docs));
    if let Some(c) = committed {
        let errs: Vec<String> = runs
            .iter()
            .flat_map(|(scale, rows)| server_consolidation::check(&c, *scale, rows))
            .collect();
        GATE.finish(&errs);
    }
}
