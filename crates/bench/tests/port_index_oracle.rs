//! Differential oracle: the O(1) indexed wait-queue unlink path must be
//! *invisible*. `Config::port_index` selects between the indexed cancel
//! (tombstone + lazy compaction) and the legacy linear scan; the two
//! differ only in bookkeeping, never in wake order, cycle charges, or
//! anything a program can observe — so whole runs must replay to
//! identical trace digests, not merely identical outcomes.

use fluke_bench::kfault_sweep::SweepWorkload;
use fluke_bench::tracediff::{run_traced_flukeperf, trace_digest};
use fluke_bench::Scale;
use fluke_core::Config;

fn oracle(workload: SweepWorkload, label: &str) {
    for base in Config::comparable() {
        let name = format!("{label}/{}", base.label);
        let indexed = workload
            .run_kernel(&base.clone().with_port_index(true), None)
            .unwrap_or_else(|e| panic!("{name} indexed: {e}"));
        let linear = workload
            .run_kernel(&base.with_port_index(false), None)
            .unwrap_or_else(|e| panic!("{name} linear: {e}"));
        assert_eq!(indexed.0, linear.0, "{name}: user-visible outcome");
        // Unlike the lock-model oracle, even the clock must agree: the
        // index changes no cost accounting.
        assert_eq!(indexed.1, linear.1, "{name}: total cycles");
        let (ik, lk) = (&indexed.3, &linear.3);
        assert_eq!(ik.now(), lk.now(), "{name}: final clock");
        assert_eq!(ik.stats.ipc_bytes, lk.stats.ipc_bytes, "{name}: ipc bytes");
        assert_eq!(
            ik.stats.ipc_messages, lk.stats.ipc_messages,
            "{name}: ipc messages"
        );
        assert_eq!(
            ik.stats.trace_log, lk.stats.trace_log,
            "{name}: guest trace log"
        );
        // The linear run must actually have exercised the oracle path
        // wherever cancels happened at all.
        assert_eq!(
            lk.stats.waitq.cancels_linear, lk.stats.waitq.cancels,
            "{name}: linear mode must route every cancel down the scan path"
        );
        assert_eq!(
            ik.stats.waitq.cancels_linear, 0,
            "{name}: indexed mode must never take the scan path"
        );
    }
}

#[test]
fn ipc_echo_identical_under_both_unlink_paths() {
    oracle(SweepWorkload::IpcEcho, "ipc-echo");
}

#[test]
fn checkpoint_identical_under_both_unlink_paths() {
    oracle(SweepWorkload::Checkpoint, "checkpoint");
}

/// Full traced workload: byte-identical trace digests between the two
/// unlink paths, on one CPU and on many.
#[test]
fn flukeperf_digest_identical_under_both_unlink_paths() {
    for cpus in [1, 8] {
        let a = run_traced_flukeperf(
            fluke_core::Config::process_pp()
                .with_cpus(cpus)
                .with_port_index(true),
            Scale::Quick,
        );
        let b = run_traced_flukeperf(
            fluke_core::Config::process_pp()
                .with_cpus(cpus)
                .with_port_index(false),
            Scale::Quick,
        );
        assert_eq!(
            trace_digest(&a),
            trace_digest(&b),
            "{cpus}-cpu trace digest diverged between unlink paths"
        );
        assert_eq!(a.now(), b.now(), "{cpus}-cpu final clock diverged");
    }
}
