//! `krec_sweep`: record, restore, and re-execute whole-kernel snapshots
//! across every workload × configuration combination, proving zero
//! recording perturbation and bit-identical replay everywhere, and write
//! `BENCH_snapshot.json`.
//!
//! Usage: `krec_sweep [--check] [--out FILE]` (see [`fluke_bench::gate`]).
//!
//! Every run sweeps all three workloads (ipc-echo, checkpoint,
//! submit-ring), snapshotting every 5th dispatch-boundary site.
//!
//! * `--check` exits non-zero on any replay divergence and on
//!   snapshot-size blowups or lost replay coverage against the committed
//!   `BENCH_snapshot.json`. Without it, any divergence still exits 1.

use fluke_bench::gate::Gate;
use fluke_bench::krec_sweep::{self, STRIDE};

const GATE: Gate = Gate {
    bin: "krec_sweep",
    committed: "BENCH_snapshot.json",
    flags: &[],
};

fn main() {
    let args = GATE.args();
    let committed = GATE.committed(&args);

    println!("=== krec_sweep: snapshot / replay fidelity (stride {STRIDE}) ===\n");
    let reports = match krec_sweep::sweep_all() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        }
    };
    for r in &reports {
        println!("{}", r.summary());
        for line in r.reproducers() {
            eprintln!("  {line}");
        }
    }
    let total_div: usize = reports.iter().map(|r| r.divergences.len()).sum();
    let total_snaps: u64 = reports.iter().map(|r| r.snapshots).sum();
    let total_windows: u64 = reports.iter().map(|r| r.windows_verified).sum();
    println!(
        "\n{} sweeps, {total_snaps} snapshots replayed, {total_windows} windows verified, \
         {total_div} divergences",
        reports.len()
    );

    GATE.write(&args, &krec_sweep::to_json(&reports));
    if let Some(c) = committed {
        GATE.finish(&krec_sweep::check(&c, &reports));
    } else if total_div > 0 {
        std::process::exit(1);
    }
}
