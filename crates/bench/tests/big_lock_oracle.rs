//! Differential oracle: fine-grained locking must be *invisible* to user
//! programs. The legacy big kernel lock (kept behind `with_big_lock`) and
//! the fine-grained mode only change when cycles are charged for lock
//! traffic, never what a program computes — so the user-visible outcome
//! and every timing-robust counter must match bit for bit.

use fluke_bench::kfault_sweep::SweepWorkload;
use fluke_bench::tracediff::{run_traced_flukeperf, trace_digest};
use fluke_bench::Scale;
use fluke_core::Config;

/// Run a workload on 4 CPUs under both lock models and compare everything
/// that must not depend on lock-cost accounting.
fn oracle(workload: SweepWorkload, label: &str) {
    for base in Config::comparable() {
        let name = format!("{label}/{}", base.label);
        let fine = workload
            .run_kernel(&base.clone().with_cpus(4), None)
            .unwrap_or_else(|e| panic!("{name} fine: {e}"));
        let big = workload
            .run_kernel(&base.with_cpus(4).with_big_lock(true), None)
            .unwrap_or_else(|e| panic!("{name} big-lock: {e}"));
        assert_eq!(fine.0, big.0, "{name}: user-visible outcome diverged");
        let (fk, bk) = (&fine.3, &big.3);
        assert_eq!(fk.stats.ipc_bytes, bk.stats.ipc_bytes, "{name}: ipc bytes");
        assert_eq!(
            fk.stats.ipc_messages, bk.stats.ipc_messages,
            "{name}: ipc messages"
        );
        assert_eq!(
            fk.stats.threads_created, bk.stats.threads_created,
            "{name}: threads created"
        );
        assert_eq!(
            fk.stats.objects_created, bk.stats.objects_created,
            "{name}: objects created"
        );
    }
}

#[test]
fn ipc_echo_identical_under_both_lock_models() {
    oracle(SweepWorkload::IpcEcho, "ipc-echo");
}

#[test]
fn checkpoint_identical_under_both_lock_models() {
    oracle(SweepWorkload::Checkpoint, "checkpoint");
}

/// Two identical 64-CPU runs of the traced flukeperf workload must replay
/// to the same trace digest — work stealing, IPIs, and shootdowns are all
/// deterministic functions of (config, program).
#[test]
fn sixty_four_cpu_run_replays_exactly() {
    let a = run_traced_flukeperf(fluke_core::Config::process_pp().with_cpus(64), Scale::Quick);
    let b = run_traced_flukeperf(fluke_core::Config::process_pp().with_cpus(64), Scale::Quick);
    assert_eq!(trace_digest(&a), trace_digest(&b), "trace digest diverged");
    assert_eq!(a.now(), b.now(), "final clock diverged");
    assert_eq!(
        a.stats.sched_steals, b.stats.sched_steals,
        "steal count diverged"
    );
}
