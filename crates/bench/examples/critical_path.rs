//! Prints the kspan critical-path breakdown of the IPC-echo workload
//! under all four comparable configurations — the source of the
//! EXPERIMENTS.md critical-path table. Deterministic: same numbers on
//! every run.

use fluke_bench::kfault_sweep::SweepWorkload;
use fluke_bench::observability::critical_path_totals;
use fluke_core::Config;

fn main() {
    println!(
        "{:<22} {:>8} {:>9} {:>10} {:>11} {:>9} {:>9}",
        "config", "requests", "on_cpu", "runnable", "blocked_ipc", "lock", "other"
    );
    for cfg in Config::comparable() {
        let (_, _, _, k) = SweepWorkload::IpcEcho
            .run_kernel(&cfg.clone().with_kspan(), None)
            .expect("echo run");
        let (on_cpu, runnable, ipc, lock, other) = critical_path_totals(&k);
        println!(
            "{:<22} {:>8} {:>9} {:>10} {:>11} {:>9} {:>9}",
            cfg.label,
            k.kspan.completed().len(),
            on_cpu,
            runnable,
            ipc,
            lock,
            other
        );
    }
}
