//! Span-propagation edge cases: requests must terminate cleanly — never
//! dangle — when the structures they ride on are torn down mid-flight.
//! Covered: an IPC connect-send whose port is destroyed under it,
//! `sched_donate` chains, and every `kfault` injection kind (spurious
//! timers, thread extract/destroy/restore mid-request, TLB flushes,
//! transient handler failures) used as an adversarial scenario generator.

use fluke_api::{ObjType, Sys};
use fluke_arch::{Assembler, Reg};
use fluke_bench::kfault_sweep::SweepWorkload;
use fluke_core::{Config, Contended, Kernel, KfaultConfig, KfaultKind, ObjKind};
use fluke_user::proc::{run_to_halt, ChildProc};
use fluke_user::FlukeAsm;

/// Every span in `k` ended (closed or aborted) and every completed
/// request decomposes exactly.
fn assert_clean(k: &Kernel, label: &str) {
    assert_eq!(k.kspan.open_count(), 0, "{label}: dangling open spans");
    for r in k.kspan.completed() {
        assert_eq!(
            r.decomposed(),
            r.e2e(),
            "{label}: request {} ({}) decomposition broken",
            r.req,
            r.class
        );
    }
}

/// A client blocks in `ipc_client_connect_send` on a port nobody serves;
/// the port's owner then destroys the port. The blocked request must
/// complete (with an error) and close its span — not dangle.
#[test]
fn connect_send_to_destroyed_port_closes_span() {
    for cfg in [Config::process_np(), Config::interrupt_pp()] {
        let label = cfg.label;
        let mut k = Kernel::new(cfg.with_kspan());
        let mut owner = ChildProc::with_mem(&mut k, 0x0010_0000, 0x4000);
        let mut client = ChildProc::with_mem(&mut k, 0x0020_0000, 0x4000);
        let h_port = owner.alloc_obj();
        let h_ref = client.alloc_obj();
        let port = k.loader_create(owner.space, h_port, ObjType::Port);
        k.loader_ref(client.space, h_ref, port);
        let cbuf = client.mem_base + 0x1000;
        let rec = client.mem_base + 0x2000;

        // Higher priority: the client runs first and blocks awaiting a
        // server that never comes.
        let mut a = Assembler::new("edge-client");
        a.client_connect_send(h_ref, cbuf, 32);
        a.movi(Reg::Ebp, rec);
        a.store(Reg::Ebp, 0, Reg::Eax);
        a.halt();
        let ct = client.start(&mut k, a.finish(), 8);

        let mut a = Assembler::new("edge-destroyer");
        a.compute(50_000);
        a.sys_h(Sys::PortDestroy, h_port);
        a.halt();
        let dt = owner.start(&mut k, a.finish(), 6);

        assert!(
            run_to_halt(&mut k, &[ct, dt], 1_000_000_000),
            "{label}: teardown wedged"
        );
        assert_clean(&k, label);
        assert!(
            k.kspan
                .completed()
                .iter()
                .any(|r| r.class == "ipc_client_connect_send"),
            "{label}: the torn-down connect never completed its span"
        );
        // The client result is an error, not Success (0).
        assert_ne!(
            k.read_mem_u32(client.space, rec),
            0,
            "{label}: connect to destroyed port reported Success"
        );
    }
}

/// A two-deep donation chain: d2 donates to d1, d1 donates to the
/// worker. Donation waits land in the runnable-wait bucket (the donor is
/// lending its CPU, not blocked on a resource) and the contention
/// accounting names the donated-to threads.
#[test]
fn sched_donate_chain_decomposes_and_terminates() {
    for cfg in [Config::process_np(), Config::interrupt_pp()] {
        let label = cfg.label;
        let mut k = Kernel::new(cfg.with_kspan());
        let mut p = ChildProc::new(&mut k);
        let h_worker = p.alloc_obj();
        let h_d1 = p.alloc_obj();

        let mut a = Assembler::new("edge-worker");
        a.compute(30_000);
        a.halt();
        let worker = p.start(&mut k, a.finish(), 4);
        k.loader_thread_object(p.space, h_worker, worker);

        let mut a = Assembler::new("edge-d1");
        a.sys_h(Sys::SchedDonate, h_worker);
        a.halt();
        let d1 = p.start(&mut k, a.finish(), 8);
        k.loader_thread_object(p.space, h_d1, d1);

        let mut a = Assembler::new("edge-d2");
        a.sys_h(Sys::SchedDonate, h_d1);
        a.halt();
        let d2 = p.start(&mut k, a.finish(), 12);

        assert!(
            run_to_halt(&mut k, &[worker, d1, d2], 1_000_000_000),
            "{label}: donate chain wedged"
        );
        assert_clean(&k, label);
        let donates: Vec<_> = k
            .kspan
            .completed()
            .iter()
            .filter(|r| r.class == "sched_donate")
            .collect();
        assert_eq!(donates.len(), 2, "{label}: both donations must complete");
        assert!(
            donates.iter().all(|r| r.runnable_wait > 0),
            "{label}: donation wait must land in runnable-wait"
        );
        assert!(
            k.kspan
                .contention()
                .keys()
                .any(|obj| matches!(obj, Contended::Object(ObjKind::Thread, _))),
            "{label}: donated-to threads missing from contention accounting"
        );
    }
}

/// Adversarial scenario generation: every `kfault` injection kind fired
/// into the echo workload with kspan on. Whatever the perturbation —
/// spurious timer, extract/destroy/restore of a thread mid-request, page
/// flush, transient handler failure — spans terminate cleanly.
#[test]
fn kfault_kinds_never_leave_dangling_spans() {
    for cfg in [Config::process_np(), Config::interrupt_pp()] {
        for kind in KfaultKind::ALL {
            for site in [2, 7] {
                let label = format!("{} {} site {site}", cfg.label, kind.name());
                let (_, _, fired, k) = SweepWorkload::IpcEcho
                    .run_kernel(
                        &cfg.clone().with_kspan(),
                        Some(KfaultConfig::at(kind, site)),
                    )
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert!(fired, "{label}: injection never fired");
                assert_clean(&k, &label);
                assert!(
                    !k.kspan.completed().is_empty(),
                    "{label}: no requests survived the perturbation"
                );
            }
        }
    }
}

/// The §4.1 flagship under tracing: checkpoint a blocked thread, destroy
/// it mid-request, restore the image — with an extract/restore injection
/// landing on top. The destroyed thread's open request is aborted (not
/// leaked), everything else decomposes.
#[test]
fn checkpoint_destroy_mid_request_aborts_span() {
    let cfg = Config::process_pp();
    let (_, _, fired, k) = SweepWorkload::Checkpoint
        .run_kernel(
            &cfg.clone().with_kspan(),
            Some(KfaultConfig::at(KfaultKind::ExtractRestore, 3)),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", cfg.label));
    assert!(fired, "injection never fired");
    assert_clean(&k, cfg.label);
    // The blocker was destroyed while blocked inside mutex_lock: its open
    // request must be accounted as aborted.
    assert!(
        k.kspan.aborted() >= 1,
        "destroying a blocked thread must abort its span"
    );
}
