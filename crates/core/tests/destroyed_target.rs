//! Regression tests for thread-targeting syscalls whose target has been
//! destroyed while other handles to it are still live.
//!
//! `thread_destroy` removes the *object* it was called on and halts the
//! thread, but the thread's arena slot — and any other Thread objects or
//! references naming it — survive. Every thread-targeting call must treat
//! such a stale-but-resolvable handle as a benign degenerate case (the
//! join completes, the schedule hint is a no-op, the state frame reads
//! `runnable = 0`), never as a panic. These paths historically used a
//! second raw lookup after the handle resolution and are exactly where a
//! lifecycle refactor could reintroduce an unwrap-on-missing-slot; the
//! kfault sweep perturbs timing around them, and this test pins the
//! semantics in all four comparable configurations.

use fluke_api::abi::{ARG_COUNT, ARG_HANDLE, ARG_SBUF};
use fluke_api::state::ThreadStateFrame;
use fluke_api::{ErrorCode, ObjStateFrame, ObjType, Sys};
use fluke_arch::{Assembler, Cond, Reg, UserRegs};
use fluke_core::{Config, Kernel};
use fluke_user::checkpoint::SyscallAgent;
use fluke_user::FlukeAsm;

const BASE: u32 = 0x0040_0000;
const H_A: u32 = BASE; // handle destroyed via thread_destroy
const H_B: u32 = BASE + 64; // second handle, stale after the destroy
const SCRATCH: u32 = BASE + 0x1000;

/// Fetch the target's exported state frame through the API and return it.
fn get_state(k: &mut Kernel, agent: &SyscallAgent, handle: u32) -> ThreadStateFrame {
    let nwords = ObjStateFrame::words_for(ObjType::Thread) as u32;
    let mut regs = UserRegs::new();
    regs.set(ARG_HANDLE, handle);
    regs.set(ARG_SBUF, SCRATCH);
    regs.set(ARG_COUNT, nwords);
    let (code, _) = agent.call_checked(k, Sys::ThreadGetState, regs);
    assert_eq!(code, ErrorCode::Success, "thread_get_state failed");
    let bytes = k
        .try_read_mem(agent.space, SCRATCH, nwords * 4)
        .expect("scratch mapped");
    let words: Vec<u32> = bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    ThreadStateFrame::from_words(&words).expect("valid thread frame")
}

fn one_arg(handle: u32) -> UserRegs {
    let mut regs = UserRegs::new();
    regs.set(ARG_HANDLE, handle);
    regs
}

#[test]
fn stale_thread_handles_degrade_gracefully_in_all_configs() {
    for cfg in Config::comparable() {
        let label = cfg.label;
        let mut k = Kernel::new(cfg);
        let child = k.create_space();
        k.grant_pages(child, BASE, 0x4000, true);

        // A worker that yields forever — always alive until destroyed.
        let mut a = Assembler::new("spin-worker");
        a.label("spin");
        a.sys(Sys::SysYield);
        a.movi(Reg::Edx, 0);
        a.cmpi(Reg::Edx, 1);
        a.jcc(Cond::Ne, "spin");
        a.halt();
        let pid = k.register_program(a.finish());
        let worker = k.spawn_thread(child, pid, UserRegs::new(), 8);

        // Two independent Thread objects naming the same thread.
        k.loader_thread_object(child, H_A, worker);
        k.loader_thread_object(child, H_B, worker);
        let agent = SyscallAgent::new(&mut k, child, 20);

        // Sanity while alive: schedule is accepted, the frame is runnable.
        let (code, _) = agent.call_checked(&mut k, Sys::ThreadSchedule, one_arg(H_A));
        assert_eq!(code, ErrorCode::Success, "{label}: schedule(live)");
        let frame = get_state(&mut k, &agent, H_A);
        assert_eq!(frame.runnable, 1, "{label}: live worker must be runnable");

        // Destroy through the first handle; the second goes stale.
        let (code, _) = agent.call_checked(&mut k, Sys::ThreadDestroy, one_arg(H_A));
        assert_eq!(code, ErrorCode::Success, "{label}: thread_destroy");
        assert!(k.thread_halted(worker), "{label}: destroy must halt");

        // The destroyed handle itself no longer resolves.
        let (code, _) = agent.call_checked(&mut k, Sys::ThreadSchedule, one_arg(H_A));
        assert_eq!(code, ErrorCode::InvalidHandle, "{label}: schedule(gone)");

        // Stale second handle: every targeting call degrades, none panics.
        let (code, _) = agent.call_checked(&mut k, Sys::ThreadSchedule, one_arg(H_B));
        assert_eq!(code, ErrorCode::Success, "{label}: schedule(stale)");
        let (code, _) = agent.call_checked(&mut k, Sys::ThreadWait, one_arg(H_B));
        assert_eq!(
            code,
            ErrorCode::Success,
            "{label}: wait(stale) must complete immediately"
        );
        let (code, _) = agent.call_checked(&mut k, Sys::SchedDonate, one_arg(H_B));
        assert_eq!(
            code,
            ErrorCode::WouldBlock,
            "{label}: donate(stale) must refuse, not panic"
        );
        let frame = get_state(&mut k, &agent, H_B);
        assert_eq!(
            frame.runnable, 0,
            "{label}: stale frame must export runnable = 0"
        );
    }
}
