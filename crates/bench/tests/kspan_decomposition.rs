//! The acceptance-criteria invariant for `kspan` critical-path analysis:
//! for **every** completed request in the IPC-echo and checkpoint/restore
//! workloads, under all four comparable configurations, the five-bucket
//! decomposition (on-CPU + runnable-wait + blocked-on-IPC + lock-wait +
//! blocked-other) sums *exactly* to the request's end-to-end simulated
//! cycles — no cycle unattributed, none double-counted — mirroring
//! kprof's sum-to-total contract one level up.

use fluke_bench::kfault_sweep::SweepWorkload;
use fluke_core::{Config, Contended, ObjKind};

#[test]
fn every_request_decomposes_exactly_to_e2e() {
    for w in [SweepWorkload::IpcEcho, SweepWorkload::Checkpoint] {
        for cfg in Config::comparable() {
            let label = format!("{} under {}", w.label(), cfg.label);
            let (_, _, _, k) = w
                .run_kernel(&cfg.with_kspan(), None)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(k.kspan.enabled, "{label}: kspan should be on");
            assert!(
                !k.kspan.completed().is_empty(),
                "{label}: no completed requests"
            );
            for r in k.kspan.completed() {
                assert_eq!(
                    r.decomposed(),
                    r.e2e(),
                    "{label}: request {} ({}, thread {}) decomposition \
                     on_cpu={} + runnable={} + ipc={} + lock={} + other={} \
                     != e2e {}",
                    r.req,
                    r.class,
                    r.thread.0,
                    r.on_cpu,
                    r.runnable_wait,
                    r.blocked_ipc,
                    r.lock_wait,
                    r.blocked_other,
                    r.e2e()
                );
            }
        }
    }
}

#[test]
fn echo_requests_never_block_outside_ipc() {
    // The echo protocol blocks only on IPC rendezvous (send/receive/port
    // waits): the blocked-other bucket must be exactly zero per request,
    // and cross-thread causality must be stitched (client and server
    // spans share requests via flow edges).
    for cfg in Config::comparable() {
        let label = cfg.label;
        let (_, _, _, k) = SweepWorkload::IpcEcho
            .run_kernel(&cfg.with_kspan(), None)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        for r in k.kspan.completed() {
            assert_eq!(
                r.blocked_other, 0,
                "{label}: request {} ({}) blocked outside IPC",
                r.req, r.class
            );
        }
        assert!(k.kspan.flows() > 0, "{label}: no flow edges");
        assert!(
            k.kspan.completed().iter().any(|r| r.parent.is_some()),
            "{label}: no request spans a client/server pair"
        );
        // Every span ended: closed at syscall exit or aborted at halt.
        assert_eq!(k.kspan.open_count(), 0, "{label}: dangling open spans");
    }
}

#[test]
fn checkpoint_contention_lands_on_the_mutex() {
    // The checkpoint workload's blocker waits on the child's mutex: the
    // per-object contention accounting must attribute lock-wait cycles
    // to a mutex object.
    for cfg in Config::comparable() {
        let label = cfg.label;
        let (_, _, _, k) = SweepWorkload::Checkpoint
            .run_kernel(&cfg.with_kspan(), None)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let mutexes: Vec<_> = k
            .kspan
            .contention()
            .iter()
            .filter(|(obj, _)| matches!(obj, Contended::Object(ObjKind::Mutex, _)))
            .map(|(_, c)| *c)
            .collect();
        assert!(
            !mutexes.is_empty(),
            "{label}: no mutex contention recorded (have: {:?})",
            k.kspan.contention().keys().collect::<Vec<_>>()
        );
        assert!(
            mutexes.iter().any(|c| c.wait_cycles > 0),
            "{label}: blocker waited on the mutex for zero cycles"
        );
        // The kstat view carries the same accounting summed over the
        // mutex kind.
        let reg = k.kstat();
        let (cycles, waits) = mutexes
            .iter()
            .fold((0, 0), |(c, w), m| (c + m.wait_cycles, w + m.waits));
        assert_eq!(
            (
                reg.scalar("kernel.contention.object.mutex.wait_cycles"),
                reg.scalar("kernel.contention.object.mutex.waits")
            ),
            (Some(cycles), Some(waits)),
            "{label}: kstat contention counter disagrees with kspan"
        );
    }
}
