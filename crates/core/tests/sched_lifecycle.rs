//! Scheduler and thread-lifecycle semantics: yield, directed scheduling,
//! donation, sleep/wake, space reaping, timeslicing, and destruction edge
//! cases.

use fluke_api::{ErrorCode, Sys};
use fluke_arch::cost::ms_to_cycles;
use fluke_arch::{Assembler, Cond, Reg};
use fluke_core::{Config, Kernel, RunState, WaitReason};
use fluke_user::proc::{run_to_halt, ChildProc};
use fluke_user::FlukeAsm;

/// Two equal-priority spinners with periodic yields interleave: both make
/// progress rather than one running to completion first.
#[test]
fn yield_interleaves_equal_priority_threads() {
    let mut k = Kernel::new(Config::process_np());
    let mut p = ChildProc::new(&mut k);
    let _ = p.alloc_obj();
    let cell_a = p.mem_base + 0x1000;
    let cell_b = p.mem_base + 0x1004;
    let obs_a = p.mem_base + 0x1008; // a's view of b when a finished

    let spinner = |mine: u32, theirs: u32, obs: Option<u32>| {
        let mut a = Assembler::new("spinner");
        a.movi(Reg::Ecx, 50);
        a.label("top");
        a.movi(Reg::Ebp, mine);
        a.load(Reg::Edx, Reg::Ebp, 0);
        a.addi(Reg::Edx, 1);
        a.store(Reg::Ebp, 0, Reg::Edx);
        a.sys(Sys::SysYield);
        a.subi(Reg::Ecx, 1);
        a.cmpi(Reg::Ecx, 0);
        a.jcc(Cond::Ne, "top");
        if let Some(obs) = obs {
            a.movi(Reg::Ebp, theirs);
            a.load(Reg::Edx, Reg::Ebp, 0);
            a.movi(Reg::Ebp, obs);
            a.store(Reg::Ebp, 0, Reg::Edx);
        }
        a.halt();
        a.finish()
    };
    let ta = p.start(&mut k, spinner(cell_a, cell_b, Some(obs_a)), 8);
    let tb = p.start(&mut k, spinner(cell_b, cell_a, None), 8);
    assert!(run_to_halt(&mut k, &[ta, tb], 100_000_000));
    assert_eq!(k.read_mem_u32(p.space, cell_a), 50);
    assert_eq!(k.read_mem_u32(p.space, cell_b), 50);
    // When A finished, B had already made substantial progress.
    let seen = k.read_mem_u32(p.space, obs_a);
    assert!(seen >= 40, "B only reached {seen} when A finished");
}

/// Higher priority strictly preempts lower.
#[test]
fn priority_preemption_is_strict() {
    let mut k = Kernel::new(Config::process_np());
    let mut p = ChildProc::new(&mut k);
    let _ = p.alloc_obj();
    let marker = p.mem_base + 0x1000;
    // Low priority: spins for a long time, then writes 1.
    let mut a = Assembler::new("low");
    for _ in 0..200 {
        a.compute(1_000);
    }
    a.store_const(marker, 1);
    a.halt();
    let low = p.start(&mut k, a.finish(), 4);
    // High priority (spawned after low has started): writes 2 immediately.
    k.run(Some(10_000));
    let mut a = Assembler::new("high");
    a.store_const(marker, 2);
    a.halt();
    let high = p.start(&mut k, a.finish(), 16);
    // The very next stretch of execution must complete `high` long before
    // `low` finishes its compute block.
    k.run(Some(ms_to_cycles(1)));
    assert!(k.thread_halted(high));
    assert!(!k.thread_halted(low));
    assert_eq!(k.read_mem_u32(p.space, marker), 2);
    assert!(run_to_halt(&mut k, &[low], 1_000_000_000));
    assert_eq!(k.read_mem_u32(p.space, marker), 1);
}

/// `sched_donate` parks the donor until the target blocks or halts.
#[test]
fn sched_donate_waits_for_target() {
    let mut k = Kernel::new(Config::process_np());
    let mut p = ChildProc::new(&mut k);
    let h_thread = p.alloc_obj();
    let order = p.mem_base + 0x1000;

    let mut a = Assembler::new("worker");
    a.compute(20_000);
    a.store_const(order, 0xAA); // worker finishes first
    a.halt();
    let worker = p.start(&mut k, a.finish(), 8);
    k.loader_thread_object(p.space, h_thread, worker);

    let mut a = Assembler::new("donor");
    a.sys_h(Sys::SchedDonate, h_thread);
    a.movi(Reg::Ebp, order + 4);
    a.store(Reg::Ebp, 0, Reg::Eax); // donation result
    a.halt();
    // Higher priority: the donor runs first and donates to the still-ready
    // worker.
    let donor = p.start(&mut k, a.finish(), 10);

    assert!(run_to_halt(&mut k, &[worker, donor], 100_000_000));
    assert_eq!(k.read_mem_u32(p.space, order), 0xAA);
    assert_eq!(
        k.read_mem_u32(p.space, order + 4),
        ErrorCode::Success as u32
    );
}

/// `thread_sleep` + a timer wake: the sleeper resumes with Success after
/// (not before) the programmed instant.
#[test]
fn thread_sleep_wakes_on_timer() {
    let mut k = Kernel::new(Config::interrupt_np());
    let mut p = ChildProc::new(&mut k);
    let _ = p.alloc_obj();
    let rec = p.mem_base + 0x1000;
    let mut a = Assembler::new("sleeper");
    a.sys(Sys::ThreadSleep);
    a.movi(Reg::Ebp, rec);
    a.store(Reg::Ebp, 0, Reg::Eax);
    // Record the wall clock after waking.
    a.sys(Sys::SysClock);
    a.store(Reg::Ebp, 4, fluke_api::abi::ARG_VAL);
    a.halt();
    let t = p.start(&mut k, a.finish(), 8);
    k.wake_at(t, ms_to_cycles(5));
    assert!(run_to_halt(&mut k, &[t], 100_000_000));
    assert_eq!(k.read_mem_u32(p.space, rec), ErrorCode::Success as u32);
    let woke_us = k.read_mem_u32(p.space, rec + 4);
    assert!(woke_us >= 5_000, "woke at {woke_us}µs, before the timer");
}

/// `space_wait_threads` completes once the watched space empties.
#[test]
fn space_wait_threads_reaps() {
    let mut k = Kernel::new(Config::process_np());
    // The watched space with two short-lived threads.
    let mut child = ChildProc::with_mem(&mut k, 0x0040_0000, 0x2000);
    let _ = child.alloc_obj();
    let mut a = Assembler::new("shortlived");
    a.compute(30_000);
    a.halt();
    let prog = k.register_program(a.finish());
    let w1 = child.start_registered(&mut k, prog, fluke_arch::UserRegs::new(), 8);
    let w2 = child.start_registered(&mut k, prog, fluke_arch::UserRegs::new(), 8);

    // The manager watches from another space through a Space object.
    let mut mgr = ChildProc::new(&mut k);
    let h_space = mgr.alloc_obj();
    k.loader_space_object(mgr.space, h_space, child.space);
    let rec = mgr.mem_base + 0x1000;
    let mut a = Assembler::new("reaper");
    a.sys_h(Sys::SpaceWaitThreads, h_space);
    a.movi(Reg::Ebp, rec);
    a.store(Reg::Ebp, 0, Reg::Eax);
    a.halt();
    let reaper = mgr.start(&mut k, a.finish(), 8);

    assert!(run_to_halt(&mut k, &[w1, w2, reaper], 100_000_000));
    assert_eq!(k.read_mem_u32(mgr.space, rec), ErrorCode::Success as u32);
}

/// A thread destroying its own Thread object halts itself cleanly.
#[test]
fn self_destruction_is_clean() {
    let mut k = Kernel::new(Config::process_np());
    let mut p = ChildProc::new(&mut k);
    let h_self = p.alloc_obj();
    let after = p.mem_base + 0x1000;
    let mut a = Assembler::new("seppuku");
    a.sys_h(Sys::ThreadDestroy, h_self);
    a.store_const(after, 0xBAD); // must never execute
    a.halt();
    let t = p.start(&mut k, a.finish(), 8);
    k.loader_thread_object(p.space, h_self, t);
    let exit = k.run(Some(10_000_000));
    assert_ne!(exit, fluke_core::RunExit::TimeLimit);
    assert!(k.thread_halted(t));
    assert_eq!(k.read_mem_u32(p.space, after), 0);
}

/// Destroying a Space halts the threads inside it; a joiner watching one
/// of them is woken.
#[test]
fn space_destruction_halts_residents() {
    let mut k = Kernel::new(Config::interrupt_np());
    let mut victim = ChildProc::with_mem(&mut k, 0x0040_0000, 0x2000);
    let _ = victim.alloc_obj();
    let mut a = Assembler::new("resident");
    a.label("spin");
    a.compute(1000);
    a.jmp("spin");
    let resident = victim.start(&mut k, a.finish(), 6);

    let mut mgr = ChildProc::new(&mut k);
    let h_space = mgr.alloc_obj();
    let h_thread = mgr.alloc_obj();
    k.loader_space_object(mgr.space, h_space, victim.space);
    k.loader_thread_object(mgr.space, h_thread, resident);

    let mut a = Assembler::new("destroyer");
    a.compute(50_000); // let the resident run a bit
    a.sys_h(Sys::SpaceDestroy, h_space);
    a.halt();
    let d = mgr.start(&mut k, a.finish(), 8);
    assert!(run_to_halt(&mut k, &[d, resident], 100_000_000));
    assert!(k.thread_halted(resident));
}

/// Timeslices round-robin two compute-bound threads without any yields.
#[test]
fn timeslice_round_robin() {
    let mut k = Kernel::new(Config::process_np());
    let mut p = ChildProc::new(&mut k);
    let _ = p.alloc_obj();
    let cell_a = p.mem_base + 0x1000;
    let cell_b = p.mem_base + 0x1004;
    // Each thread burns ~35ms total in 1ms slices of pure compute, bumping
    // its progress cell between slices.
    let burner = |cell: u32| {
        let mut a = Assembler::new("burner");
        a.movi(Reg::Ecx, 35);
        a.label("top");
        for _ in 0..10 {
            a.compute(20_000); // 0.1ms
        }
        a.movi(Reg::Ebp, cell);
        a.load(Reg::Edx, Reg::Ebp, 0);
        a.addi(Reg::Edx, 1);
        a.store(Reg::Ebp, 0, Reg::Edx);
        a.subi(Reg::Ecx, 1);
        a.cmpi(Reg::Ecx, 0);
        a.jcc(Cond::Ne, "top");
        a.halt();
        a.finish()
    };
    let ta = p.start(&mut k, burner(cell_a), 8);
    let tb = p.start(&mut k, burner(cell_b), 8);
    // Run exactly 40ms: with 10ms timeslices both threads must have run.
    k.run(Some(ms_to_cycles(40)));
    let a_prog = k.read_mem_u32(p.space, cell_a);
    let b_prog = k.read_mem_u32(p.space, cell_b);
    assert!(a_prog > 0, "thread A starved");
    assert!(b_prog > 0, "thread B starved");
    assert!(run_to_halt(&mut k, &[ta, tb], 1_000_000_000));
}

/// An interrupted `mutex_lock` surfaces `Interrupted`, and the waiter is
/// really off the queue: a later unlock does not wake it.
#[test]
fn interrupt_removes_waiter_from_queue() {
    let mut k = Kernel::new(Config::process_np());
    let mut p = ChildProc::new(&mut k);
    let h_mutex = p.alloc_obj();
    let h_waiter = p.alloc_obj();
    let rec = p.mem_base + 0x1000;

    let mut a = Assembler::new("holder");
    a.sys_h(Sys::MutexCreate, h_mutex);
    a.mutex_lock(h_mutex);
    a.halt();
    let holder = p.start(&mut k, a.finish(), 8);
    assert!(run_to_halt(&mut k, &[holder], 10_000_000));

    let mut a = Assembler::new("waiter");
    a.mutex_lock(h_mutex);
    a.movi(Reg::Ebp, rec);
    a.store(Reg::Ebp, 0, Reg::Eax);
    a.halt();
    let waiter = p.start(&mut k, a.finish(), 8);
    k.run(Some(1_000_000));
    assert!(matches!(
        k.thread_run_state(waiter),
        RunState::Blocked(WaitReason::Mutex(_))
    ));
    k.loader_thread_object(p.space, h_waiter, waiter);

    let mut a = Assembler::new("interruptor");
    a.sys_h(Sys::ThreadInterrupt, h_waiter);
    a.mutex_unlock(h_mutex);
    a.halt();
    let i = p.start(&mut k, a.finish(), 8);
    assert!(run_to_halt(&mut k, &[i, waiter], 10_000_000));
    assert_eq!(k.read_mem_u32(p.space, rec), ErrorCode::Interrupted as u32);
}

/// `thread_set_state` aimed at the calling thread itself is rejected: the
/// completion path would clobber the installed frame.
#[test]
fn self_set_state_is_rejected() {
    use fluke_api::abi::{ARG_COUNT, ARG_HANDLE, ARG_SBUF};
    use fluke_api::state::THREAD_FRAME_WORDS;
    let mut k = Kernel::new(Config::process_np());
    let mut p = ChildProc::new(&mut k);
    let h_self = p.alloc_obj();
    let scratch = p.mem_base + 0x2000;
    let rec = p.mem_base + 0x3000;
    let mut a = Assembler::new("selfie");
    // Extract own state (fine), then try to install it back into self.
    a.movi(ARG_HANDLE, h_self);
    a.movi(ARG_SBUF, scratch);
    a.movi(ARG_COUNT, THREAD_FRAME_WORDS as u32);
    a.sys(Sys::ThreadGetState);
    a.movi(ARG_HANDLE, h_self);
    a.movi(ARG_SBUF, scratch);
    a.movi(ARG_COUNT, THREAD_FRAME_WORDS as u32);
    a.sys(Sys::ThreadSetState);
    a.movi(Reg::Ebp, rec);
    a.store(Reg::Ebp, 0, Reg::Eax);
    a.halt();
    let t = p.start(&mut k, a.finish(), 8);
    k.loader_thread_object(p.space, h_self, t);
    assert!(run_to_halt(&mut k, &[t], 10_000_000));
    assert_eq!(k.read_mem_u32(p.space, rec), ErrorCode::InvalidArg as u32);
}

/// A host `wake_at` aimed at a thread blocked on a mutex unlinks it from
/// the mutex's waiters, like `thread_interrupt` does: its restarted
/// `mutex_lock` blocks again with the thread queued once, and an unlock
/// that lands between the wake and the restart finds no stale waiter to
/// wake (and enqueue) a second time.
#[test]
fn host_wake_of_a_mutex_waiter_unlinks_it() {
    let mut k = Kernel::new(Config::process_np());
    let mut p = ChildProc::new(&mut k);
    let h_mutex = p.alloc_obj();
    let rec = p.mem_base + 0x1000;

    // The holder takes the mutex and sleeps on it until woken; then it
    // unlocks and computes for ~0.5ms.
    let mut a = Assembler::new("holder");
    a.sys_h(Sys::MutexCreate, h_mutex);
    a.mutex_lock(h_mutex);
    a.sys(Sys::ThreadSleep);
    a.mutex_unlock(h_mutex);
    a.compute(100_000);
    a.halt();
    let holder = p.start(&mut k, a.finish(), 16);
    let mut a = Assembler::new("waiter");
    a.mutex_lock(h_mutex);
    a.movi(Reg::Ebp, rec);
    a.store(Reg::Ebp, 0, Reg::Eax);
    a.halt();
    let waiter = p.start(&mut k, a.finish(), 8);
    let blocked_on_mutex = |k: &Kernel| {
        matches!(
            k.thread_run_state(waiter),
            RunState::Blocked(WaitReason::Mutex(_))
        )
    };
    // Restore checks the kernel's invariants: each Ready thread is on one
    // run queue once, and a blocked thread is on its reason's wait queue.
    let check = |k: &Kernel| {
        Kernel::restore_from(&k.snapshot_bytes().unwrap()).expect("consistent image");
    };
    k.run(Some(1_000_000));
    assert_eq!(
        k.thread_run_state(holder),
        RunState::Blocked(WaitReason::Sleep)
    );
    assert!(blocked_on_mutex(&k));

    // The waiter alone: the restart finds the mutex still held.
    k.wake_at(waiter, 2_000_000);
    k.run(Some(3_000_000));
    assert!(blocked_on_mutex(&k));
    check(&k);

    // Both at once: the holder outranks the waiter, so it unlocks before
    // the waiter's restart and is still computing when the run stops.
    k.wake_at(waiter, 4_000_000);
    k.wake_at(holder, 4_000_000);
    k.run(Some(4_050_000));
    assert!(matches!(k.thread_run_state(holder), RunState::Running(_)));
    assert_eq!(k.thread_run_state(waiter), RunState::Ready);
    check(&k);
    assert!(run_to_halt(&mut k, &[holder, waiter], 100_000_000));
    assert_eq!(k.read_mem_u32(p.space, rec), ErrorCode::Success as u32);
    check(&k);
}
