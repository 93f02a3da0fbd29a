//! Run the `kfault` adversarial-injection sweep and report per-combination
//! results.
//!
//! Environment:
//!
//! * `FLUKE_KFAULT_SITES` — per-(workload, config, kind) site budget;
//!   unset or `0` sweeps *every* site. CI uses a bounded budget; the
//!   acceptance run uses the full space.
//! * `FLUKE_KFAULT_WORKLOADS` — `echo`, `checkpoint`, or `all` (default).
//!
//! A malformed site budget or an unknown workload exits 2 with a message.
//! Otherwise exits nonzero if any combination diverges from its golden run,
//! printing one deterministic reproducer line per divergence.

use fluke_bench::gate::USAGE_EXIT;
use fluke_bench::kfault_sweep::{sweep, SweepWorkload};
use fluke_core::kfuzz::env_knob;
use fluke_core::{Config, KfaultKind};

fn usage_error(msg: &str) -> ! {
    eprintln!("kfault_sweep: {msg}");
    std::process::exit(USAGE_EXIT);
}

fn main() {
    let budget = env_knob("FLUKE_KFAULT_SITES", 0, 0, u64::MAX)
        .unwrap_or_else(|e| usage_error(&e.to_string()));
    let budget = Some(budget).filter(|&b| b > 0);
    let workloads: Vec<SweepWorkload> = match std::env::var("FLUKE_KFAULT_WORKLOADS").as_deref() {
        Ok("echo") => vec![SweepWorkload::IpcEcho],
        Ok("checkpoint") => vec![SweepWorkload::Checkpoint],
        Ok("all") | Err(_) => vec![SweepWorkload::IpcEcho, SweepWorkload::Checkpoint],
        Ok(w) => usage_error(&format!(
            "FLUKE_KFAULT_WORKLOADS={w:?}: unknown workload (want echo, checkpoint, all)"
        )),
    };
    match budget {
        Some(b) => println!("kfault sweep: budget {b} sites per combination"),
        None => println!("kfault sweep: full site space per combination"),
    }
    let mut failures: Vec<String> = Vec::new();
    let mut total_runs = 0;
    for w in workloads {
        for cfg in Config::comparable() {
            for kind in KfaultKind::ALL {
                match sweep(w, &cfg, kind, budget) {
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
