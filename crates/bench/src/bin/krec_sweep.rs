//! `krec_sweep`: record, restore, and re-execute whole-kernel snapshots
//! across every workload × configuration combination, proving zero
//! recording perturbation and bit-identical replay everywhere, and write
//! `BENCH_snapshot.json`.
//!
//! Usage: `krec_sweep [--check] [--out FILE]` (see [`fluke_bench::gate`]).
//!
//! * `FLUKE_KREC_STRIDE=N` snapshots every Nth dispatch-boundary site
//!   (default 5; smaller = denser sweep).
//! * `FLUKE_KREC_WORKLOADS=ipc-echo,checkpoint,submit-ring` filters the
//!   workload set (default: all three).
//! * `--check` exits non-zero on any replay divergence and on
//!   snapshot-size blowups or lost replay coverage against the committed
//!   `BENCH_snapshot.json`. Without it, any divergence still exits 1.

use fluke_bench::gate::{Gate, USAGE_EXIT};
use fluke_bench::krec_sweep::{self, KrecWorkload, ALL_WORKLOADS};

const GATE: Gate = Gate {
    bin: "krec_sweep",
    committed: "BENCH_snapshot.json",
    flags: &[],
};

fn main() {
    let args = GATE.args();
    let stride = std::env::var("FLUKE_KREC_STRIDE")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(5);
    let workloads: Vec<KrecWorkload> = match std::env::var("FLUKE_KREC_WORKLOADS") {
        Ok(s) => s
            .split(',')
            .map(str::trim)
            .filter(|w| !w.is_empty())
            .map(|w| {
                KrecWorkload::parse(w).unwrap_or_else(|| {
                    eprintln!("unknown workload {w:?} (want ipc-echo, checkpoint, submit-ring)");
                    std::process::exit(USAGE_EXIT);
                })
            })
            .collect(),
        Err(_) => ALL_WORKLOADS.to_vec(),
    };

    let committed = GATE.committed(&args);

    println!("=== krec_sweep: snapshot / replay fidelity (stride {stride}) ===\n");
    let reports = match krec_sweep::sweep_all(&workloads, stride) {
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
