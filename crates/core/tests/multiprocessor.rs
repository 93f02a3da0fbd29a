//! Multiprocessor configurations: parallel speedup, cross-CPU IPC,
//! promptness against a *running* target (the case the paper calls out in
//! §4.2 — the operation "must be currently running (i.e., on another
//! processor)"), kernel-lock serialization, and determinism.

use fluke_api::abi::{ARG_COUNT, ARG_HANDLE, ARG_RBUF, ARG_SBUF};
use fluke_api::state::THREAD_FRAME_WORDS;
use fluke_api::{ErrorCode, ObjType, Sys};
use fluke_arch::{Assembler, Cond, Reg};
use fluke_core::{Config, Kernel, RunState};
use fluke_user::proc::{run_to_halt, ChildProc};
use fluke_user::FlukeAsm;

/// A compute-bound program of `quanta` × 1000 cycles.
fn burner(quanta: u32) -> fluke_arch::Program {
    let mut a = Assembler::new("burner");
    a.movi(Reg::Ecx, quanta);
    a.label("top");
    a.compute(1_000);
    a.subi(Reg::Ecx, 1);
    a.cmpi(Reg::Ecx, 0);
    a.jcc(Cond::Ne, "top");
    a.halt();
    a.finish()
}

/// Elapsed simulated time for `threads` burners on `cpus` processors.
fn parallel_elapsed(cpus: usize, threads: usize) -> u64 {
    let mut k = Kernel::new(Config::process_np().with_cpus(cpus));
    let p = ChildProc::new(&mut k);
    let prog = k.register_program(burner(2_000));
    let ts: Vec<_> = (0..threads)
        .map(|_| k.spawn_thread(p.space, prog, fluke_arch::UserRegs::new(), 8))
        .collect();
    assert!(run_to_halt(&mut k, &ts, 100_000_000_000));
    k.now()
}

#[test]
fn two_cpus_halve_compute_bound_wall_time() {
    let one = parallel_elapsed(1, 4);
    let two = parallel_elapsed(2, 4);
    let four = parallel_elapsed(4, 4);
    assert!(
        (two as f64) < 0.6 * one as f64,
        "2 CPUs: {two} vs 1 CPU: {one}"
    );
    assert!(
        (four as f64) < 0.35 * one as f64,
        "4 CPUs: {four} vs 1 CPU: {one}"
    );
}

#[test]
fn mp_runs_are_deterministic() {
    let a = parallel_elapsed(3, 7);
    let b = parallel_elapsed(3, 7);
    assert_eq!(a, b);
}

/// An RPC between threads genuinely running on different processors.
#[test]
fn cross_cpu_rpc_is_byte_exact() {
    let mut k = Kernel::new(Config::interrupt_np().with_cpus(2));
    let mut server = ChildProc::with_mem(&mut k, 0x0010_0000, 0x4000);
    let mut client = ChildProc::with_mem(&mut k, 0x0030_0000, 0x4000);
    let h_port = server.alloc_obj();
    let h_ref = client.alloc_obj();
    let port = k.loader_create(server.space, h_port, ObjType::Port);
    k.loader_ref(client.space, h_ref, port);
    let sbuf = server.mem_base + 0x1000;
    let cbuf = client.mem_base + 0x1000;
    let crep = client.mem_base + 0x2000;

    // Both sides interleave compute with the exchange so they genuinely
    // occupy both processors.
    let mut a = Assembler::new("server");
    a.compute(5_000);
    a.server_wait_receive(h_port, sbuf, 32);
    a.server_ack_send(sbuf, 32);
    a.compute(5_000);
    a.halt();
    let st = server.start(&mut k, a.finish(), 8);

    let mut a = Assembler::new("client");
    a.compute(3_000);
    a.client_rpc(h_ref, cbuf, 32, crep, 32);
    a.halt();
    let ct = client.start(&mut k, a.finish(), 8);

    let payload: Vec<u8> = (0..32u8).map(|i| i.wrapping_mul(9)).collect();
    k.write_mem(client.space, cbuf, &payload);
    assert!(run_to_halt(&mut k, &[st, ct], 1_000_000_000));
    assert_eq!(k.read_mem(client.space, crep, 32), payload);
}

/// Promptness against a RUNNING target: while the victim spins on CPU 1,
/// an extractor on CPU 0 pulls its complete state without ever blocking on
/// the victim's cooperation.
#[test]
fn get_state_of_thread_running_on_other_cpu() {
    let mut k = Kernel::new(Config::process_np().with_cpus(2));
    let mut p = ChildProc::new(&mut k);
    let h_thread = p.alloc_obj();
    let scratch = p.mem_base + 0x2000;
    let rec = p.mem_base + 0x3000;

    // Victim: a long pure-compute spin (never traps).
    let victim_prog = k.register_program(burner(50_000));
    let victim = k.spawn_thread(p.space, victim_prog, fluke_arch::UserRegs::new(), 8);
    k.loader_thread_object(p.space, h_thread, victim);

    // Extractor on the other CPU.
    let mut a = Assembler::new("extractor");
    a.compute(2_000); // let the victim get going
    a.movi(ARG_HANDLE, h_thread);
    a.movi(ARG_SBUF, scratch);
    a.movi(ARG_COUNT, THREAD_FRAME_WORDS as u32);
    a.sys(Sys::ThreadGetState);
    a.movi(Reg::Ebp, rec);
    a.store(Reg::Ebp, 0, Reg::Eax);
    a.halt();
    let ex = p.start(&mut k, a.finish(), 8);

    // Run only until the extractor halts; the victim must still be going.
    let deadline = k.now() + 20_000_000;
    while !k.thread_halted(ex) {
        if k.run(Some(deadline)) != fluke_core::RunExit::TimeLimit {
            break;
        }
    }
    assert!(k.thread_halted(ex), "extractor completed promptly");
    assert!(
        matches!(k.thread_run_state(victim), RunState::Running(_))
            || matches!(k.thread_run_state(victim), RunState::Ready),
        "victim undisturbed: {:?}",
        k.thread_run_state(victim)
    );
    assert_eq!(k.read_mem_u32(p.space, rec), ErrorCode::Success as u32);
    assert!(run_to_halt(&mut k, &[victim], 200_000_000_000));
}

/// Drive two CPUs of concurrent syscall traffic and return the finished
/// kernel (used to compare big-lock vs fine-grained locking).
fn syscall_storm(cfg: Config) -> Kernel {
    let mut k = Kernel::new(cfg);
    // Two *separate* processes: unrelated workloads should not contend
    // on any fine-grained lock (same-object traffic still serializes).
    let p1 = ChildProc::with_mem(&mut k, 0x0010_0000, 0x4000);
    let p2 = ChildProc::with_mem(&mut k, 0x0030_0000, 0x4000);
    let mut a = Assembler::new("syscaller");
    a.movi(Reg::Ecx, 2_000);
    a.label("top");
    a.sys(Sys::SysNull);
    a.subi(Reg::Ecx, 1);
    a.cmpi(Reg::Ecx, 0);
    a.jcc(Cond::Ne, "top");
    a.halt();
    let prog = k.register_program(a.finish());
    let t1 = k.spawn_thread(p1.space, prog, fluke_arch::UserRegs::new(), 8);
    let t2 = k.spawn_thread(p2.space, prog, fluke_arch::UserRegs::new(), 8);
    assert!(run_to_halt(&mut k, &[t1, t2], 10_000_000_000));
    k
}

/// Kernel entries serialize on the big lock (legacy oracle mode): with
/// heavy concurrent syscall traffic on two CPUs, lock waiting shows up in
/// the stats.
#[test]
fn big_kernel_lock_serializes_kernel_entries() {
    let k = syscall_storm(Config::process_np().with_cpus(2).with_big_lock(true));
    assert!(
        k.stats.klock_cycles > 0,
        "concurrent kernel entries must contend on the big lock"
    );
}

/// The same storm under fine-grained locking finishes sooner: kernel
/// entries of unrelated threads no longer serialize machine-wide.
#[test]
fn fine_grained_locking_outpaces_the_big_lock() {
    let big = syscall_storm(Config::process_np().with_cpus(2).with_big_lock(true));
    let fine = syscall_storm(Config::process_np().with_cpus(2));
    assert!(
        fine.total_cpu_cycles() < big.total_cpu_cycles(),
        "fine {} !< big {}",
        fine.total_cpu_cycles(),
        big.total_cpu_cycles()
    );
}

/// The whole five-configuration × multiprocessor matrix still produces
/// correct RPC results (the MP analogue of the equivalence law).
#[test]
fn rpc_correct_on_every_mp_configuration() {
    for base in Config::all_five() {
        let cfg = base.with_cpus(2);
        let label = cfg.label;
        let mut k = Kernel::new(cfg);
        let mut server = ChildProc::with_mem(&mut k, 0x0010_0000, 0x4000);
        let mut client = ChildProc::with_mem(&mut k, 0x0030_0000, 0x4000);
        let h_port = server.alloc_obj();
        let h_ref = client.alloc_obj();
        let port = k.loader_create(server.space, h_port, ObjType::Port);
        k.loader_ref(client.space, h_ref, port);
        let sbuf = server.mem_base + 0x1000;
        let cbuf = client.mem_base + 0x1000;
        let mut a = Assembler::new("server");
        a.movi(ARG_HANDLE, h_port);
        a.movi(ARG_RBUF, sbuf);
        a.movi(ARG_COUNT, 4096);
        a.sys(Sys::IpcServerWaitReceive);
        a.halt();
        let st = server.start(&mut k, a.finish(), 8);
        let mut a = Assembler::new("client");
        a.client_connect_send(h_ref, cbuf, 4096);
        a.halt();
        let ct = client.start(&mut k, a.finish(), 8);
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 253) as u8).collect();
        k.write_mem(client.space, cbuf, &payload);
        assert!(
            run_to_halt(&mut k, &[st, ct], 5_000_000_000),
            "{label} hung"
        );
        assert_eq!(
            k.read_mem(server.space, sbuf, 4096),
            payload,
            "{label} corrupted"
        );
    }
}

/// A TLB shootdown advances the clocks of *other* CPUs — one of the two
/// places the run loop's CPU-clock index is re-keyed for a CPU that is
/// not acting. Burners share a space with a thread that keeps
/// write-protecting a resident region, so each downgrade interrupts the
/// burners' CPUs. The run must be deterministic, and in debug builds the
/// run loop checks the index against every clock on each iteration.
#[test]
fn tlb_shootdowns_to_running_cpus_are_deterministic() {
    let run = || {
        let mut k = Kernel::new(Config::process_pp().with_cpus(4));
        let mut p = ChildProc::with_mem(&mut k, 0x0010_0000, 0x4000);
        let h = p.alloc_obj();
        k.loader_region(p.space, h, p.mem_base, 0x4000, None);
        let mut a = Assembler::new("protector");
        a.movi(Reg::Esi, 40);
        a.label("top");
        a.sys_hv(Sys::RegionProtect, h, 0);
        a.sys_hv(Sys::RegionProtect, h, 1);
        a.compute(3_000);
        a.subi(Reg::Esi, 1);
        a.cmpi(Reg::Esi, 0);
        a.jcc(Cond::Ne, "top");
        a.halt();
        let mut ts = vec![p.start(&mut k, a.finish(), 8)];
        let prog = k.register_program(burner(150));
        for _ in 0..3 {
            ts.push(k.spawn_thread(p.space, prog, fluke_arch::UserRegs::new(), 8));
        }
        assert!(run_to_halt(&mut k, &ts, 10_000_000_000));
        (k.stats.tlb_shootdown_ipis, k.now(), k.total_cpu_cycles())
    };
    let first = run();
    assert!(first.0 > 0, "no shootdown reached a remote CPU");
    assert_eq!(first, run());
}
