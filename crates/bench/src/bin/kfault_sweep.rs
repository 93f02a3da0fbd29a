//! Run the `kfault` adversarial-injection sweep over every site of both
//! workloads (IPC echo and checkpoint/restore), under the four comparable
//! configurations and every fault kind, and report per-combination
//! results: 576 perturbed runs, the run CI makes.
//!
//! Exits nonzero if any combination diverges from its golden run,
//! printing one deterministic reproducer line per divergence.

use fluke_bench::kfault_sweep::{sweep, SweepWorkload};
use fluke_core::{Config, KfaultKind};

fn main() {
    println!("kfault sweep: full site space per combination");
    let mut failures: Vec<String> = Vec::new();
    let mut total_runs = 0;
    for w in [SweepWorkload::IpcEcho, SweepWorkload::Checkpoint] {
        for cfg in Config::comparable() {
            for kind in KfaultKind::ALL {
                match sweep(w, &cfg, kind, None) {
                    Ok(r) => {
                        println!("{}", r.summary());
                        total_runs += r.sites_run;
                        failures.extend(r.reproducers());
                    }
                    Err(e) => {
                        let line = format!(
                            "kfault sweep setup failed: {} {} {}: {e}",
                            w.label(),
                            cfg.label,
                            kind.name()
                        );
                        println!("{line}");
                        failures.push(line);
                    }
                }
            }
        }
    }
    println!(
        "kfault sweep: {total_runs} perturbed runs, {} divergences",
        failures.len()
    );
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("{f}");
        }
        std::process::exit(1);
    }
}
