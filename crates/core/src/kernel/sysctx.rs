//! `SysCtx`: the handler-side capability for register access and
//! block/yield decisions, and the atomicity auditor built on it.
//!
//! Handlers no longer touch the kernel's raw register accessors; every
//! read and write goes through a [`SysCtx`], which lets the kernel keep
//! a *committed snapshot* of the calling thread's registers — taken at
//! entry and refreshed at each declared commit point. At every block or
//! in-kernel preemption the auditor then checks, mechanically, the
//! paper's atomic-API contract (§2, §4):
//!
//! 1. **No stale registers.** The live registers equal the committed
//!    snapshot: a handler brought the registers to a clean restart
//!    point (and said so) before giving up the CPU.
//! 2. **The continuation names a real restart.** `eax` decodes to an
//!    entrypoint in the dispatched call's allowed restart set
//!    `{sys, sys.restart_target()}`, and — except for page-fault waits
//!    on a keeper — that entrypoint is a blocking (Long/Multi-stage)
//!    call, per the [`fluke_api::SysDesc`] table.
//! 3. **Extract/reinit is lossless.** The thread round-trips through
//!    `get_state`/`set_state`: its frame is marshalled to words,
//!    unmarshalled, and compared — a reincarnated thread built from the
//!    frame (destroy-style reset, then reinit) would be
//!    indistinguishable from the blocked original, because the restart
//!    machinery consults nothing the frame fails to capture
//!    (`inflight` is derivable from `eax`, and a blocked thread never
//!    retains a kernel stack).
//!
//! The expensive checks compile away outside debug builds; the
//! per-entrypoint hit counters stay on so coverage tests can assert
//! that every blocking entrypoint was actually audited.

use std::sync::atomic::{AtomicU64, Ordering};

use fluke_api::{Sys, SYSCALL_COUNT};
use fluke_arch::{Reg, UserRegs};

use crate::ids::ThreadId;
use crate::thread::WaitReason;

use super::{Kernel, SysOutcome};

/// Handler context for one dispatched system call: the *only* route by
/// which handlers may touch the calling thread's registers or give up
/// the CPU. Mediation keeps the committed-snapshot bookkeeping (held in
/// [`Kernel::audit`]) coherent at every block/yield decision.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SysCtx {
    /// The calling thread.
    pub t: ThreadId,
    /// The dispatched entrypoint (after chaining, the chained one).
    pub sys: Sys,
}

impl SysCtx {
    /// Read an argument register of the calling thread.
    pub fn arg(&self, k: &Kernel, r: Reg) -> u32 {
        k.threads.get(self.t.0).expect("current thread").regs.get(r)
    }

    /// Write a register of the calling thread *without* committing: the
    /// handler must reach a commit point before blocking or yielding.
    pub fn set_reg(&mut self, k: &mut Kernel, r: Reg, v: u32) {
        k.raw_set_reg(self.t, r, v);
    }

    /// Write a pseudo-register of the calling thread (uncommitted).
    pub fn set_pr(&mut self, k: &mut Kernel, i: usize, v: u32) {
        k.threads.get_mut(self.t.0).expect("current thread").regs.pr[i] = v;
    }

    /// Declare a commit point: the registers as they stand are a clean
    /// restart continuation.
    pub fn commit(&mut self, k: &mut Kernel) {
        k.audit_commit(self.t);
    }

    /// Write a register and immediately commit — for the common
    /// "rewrite the continuation, then sleep" step.
    pub fn set_reg_committed(&mut self, k: &mut Kernel, r: Reg, v: u32) {
        k.raw_set_reg(self.t, r, v);
        k.audit_commit(self.t);
    }

    /// Block the calling thread (see [`Kernel::block_current`]); the
    /// auditor checks the atomic-API contract at this point.
    pub fn block(&mut self, k: &mut Kernel, reason: WaitReason) -> SysOutcome {
        k.block_current(self.t, reason)
    }

    /// Take an in-kernel preemption at a clean point (see
    /// [`Kernel::preempt_current_in_kernel`]); audited like a block.
    pub fn preempt(&mut self, k: &mut Kernel) -> SysOutcome {
        k.preempt_current_in_kernel(self.t)
    }
}

/// Committed-snapshot state for the dispatch in flight on the acting
/// CPU (one dispatch runs at a time: host-side, every handler executes
/// atomically).
#[derive(Debug, Clone)]
pub(crate) struct AuditState {
    /// The audited thread (the dispatch's caller).
    t: ThreadId,
    /// The dispatched entrypoint.
    sys: Sys,
    /// Registers at the last commit point (entry, or later).
    committed: UserRegs,
}

/// Per-entrypoint count of audited block/preempt points, indexed by
/// dispatched entrypoint number. Process-wide: coverage accumulates
/// across every kernel a test binary builds.
static BLOCK_AUDIT_HITS: [AtomicU64; SYSCALL_COUNT] = [const { AtomicU64::new(0) }; SYSCALL_COUNT];

/// How many audited block/preempt points entrypoint `sys` has hit,
/// process-wide, when dispatched as the outermost call.
pub fn block_audit_hits(sys: Sys) -> u64 {
    BLOCK_AUDIT_HITS[sys.num() as usize].load(Ordering::Relaxed)
}

impl Kernel {
    /// Raw register write — the blocking/completion layer's accessor
    /// (waking a peer, finishing a blocked call, installing thread
    /// state). Handlers go through [`SysCtx`] instead.
    pub(crate) fn raw_set_reg(&mut self, t: ThreadId, r: Reg, v: u32) {
        self.threads.get_mut(t.0).expect("thread").regs.set(r, v);
    }

    /// Blocking-layer register write that *is* the commit: the pump and
    /// the fault path advance parameters / rewrite `eax` exactly when
    /// the result is a clean continuation.
    pub(crate) fn set_reg_committed(&mut self, t: ThreadId, r: Reg, v: u32) {
        self.raw_set_reg(t, r, v);
        self.audit_commit(t);
    }

    /// Begin auditing a dispatch: snapshot the caller's registers as the
    /// entry commit point.
    pub(crate) fn audit_begin(&mut self, t: ThreadId, sys: Sys) {
        let regs = self.threads.get(t.0).expect("current thread").regs;
        self.audit = Some(AuditState {
            t,
            sys,
            committed: regs,
        });
    }

    /// The audited dispatch in flight: its caller and entrypoint.
    pub(crate) fn audited(&self) -> Option<(ThreadId, Sys)> {
        self.audit.as_ref().map(|a| (a.t, a.sys))
    }

    /// End auditing (dispatch completed, chained away, or caller died).
    pub(crate) fn audit_end(&mut self) {
        self.audit = None;
    }

    /// Refresh the committed snapshot for `t`, if it is the audited
    /// thread. Writes to other (blocked) threads never touch the
    /// snapshot — their registers are already complete continuations.
    pub(crate) fn audit_commit(&mut self, t: ThreadId) {
        let regs = match self.threads.get(t.0) {
            Some(th) => th.regs,
            None => return,
        };
        if let Some(a) = self.audit.as_mut() {
            if a.t == t {
                a.committed = regs;
            }
        }
    }

    /// The audit hook: called from [`Kernel::block_current`] and
    /// [`Kernel::preempt_current_in_kernel`] after the thread's state
    /// transition. Counts the hit, then (debug builds) checks the
    /// atomic-API contract.
    pub(crate) fn audit_block_point(&mut self, t: ThreadId, preempted: bool) {
        let Some(a) = self.audit.as_ref() else {
            // Not inside an audited dispatch: a user-mode page fault
            // blocking on its keeper. Registers were never touched, so
            // there is nothing to check.
            return;
        };
        if a.t != t {
            return;
        }
        BLOCK_AUDIT_HITS[a.sys.num() as usize].fetch_add(1, Ordering::Relaxed);
        #[cfg(debug_assertions)]
        self.audit_check(preempted);
        #[cfg(not(debug_assertions))]
        let _ = preempted;
    }

    /// The debug-mode contract checks (see module docs).
    #[cfg(debug_assertions)]
    fn audit_check(&self, preempted: bool) {
        let a = self.audit.as_ref().expect("checked by caller");
        let th = self.threads.get(a.t.0).expect("audited thread");
        let sys = a.sys;

        // (1) No stale registers: every write since the last commit
        // point was declared.
        assert_eq!(
            th.regs,
            a.committed,
            "{}: blocked with register writes past the last commit point",
            sys.name()
        );

        // (2) The continuation names a real restart in the allowed set.
        let eax = th.regs.get(Reg::Eax);
        let cont = Sys::from_u32(eax)
            .unwrap_or_else(|| panic!("{}: blocked with undecodable eax {eax:#x}", sys.name()));
        assert!(
            cont == sys || cont == sys.restart_target(),
            "{}: blocked as {}, outside its restart set {{{}, {}}}",
            sys.name(),
            cont.name(),
            sys.name(),
            sys.restart_target().name()
        );
        let pager_wait = matches!(
            th.state,
            crate::thread::RunState::Blocked(WaitReason::PagerReply(_))
        );
        if !pager_wait {
            assert!(
                cont.may_block(),
                "{}: long-term wait behind non-blocking continuation {}",
                sys.name(),
                cont.name()
            );
        }
        assert_eq!(
            th.inflight,
            Some(cont),
            "{}: inflight does not match the eax continuation",
            sys.name()
        );
        if !preempted {
            // A blocked thread's registers are the *whole* truth: no
            // retained kernel stack (paper §5.1). (An in-kernel
            // preemption legitimately retains the stack under the
            // process model.)
            assert!(
                !th.kstack_retained,
                "{}: blocked with a retained kernel stack",
                sys.name()
            );
        }

        // (3) Extract → reset → reinit round trip. Marshal the thread's
        // frame exactly as `thread_get_state` would, unmarshal it as
        // `thread_set_state` would, and verify the reincarnated view is
        // indistinguishable: same registers (including the IPC
        // pseudo-registers), same schedulability, and a restart that
        // dispatches the same entrypoint.
        use fluke_api::state::ThreadStateFrame;
        use fluke_arch::ProgramId;
        let frame = ThreadStateFrame {
            regs: th.regs,
            program: th.program.unwrap_or(ProgramId(u64::MAX)),
            space_token: th.space_token,
            priority: th.priority,
            runnable: match th.state {
                crate::thread::RunState::Stopped | crate::thread::RunState::Halted => 0,
                _ => 1,
            },
            ipc_phase: th.ipc.conn.map(|_| 1).unwrap_or(0),
        };
        let words = frame.to_words();
        let back = ThreadStateFrame::from_words(&words)
            .unwrap_or_else(|e| panic!("{}: frame unmarshal failed: {e:?}", sys.name()));
        assert_eq!(back, frame, "{}: frame round trip lossy", sys.name());
        // Reinit semantics (`install_thread_state`): registers are the
        // frame's, `inflight` is cleared, the stack is not retained —
        // so the reincarnation re-enters the kernel from `eax`, which
        // must re-dispatch the same continuation the blocked original
        // would restart.
        assert_eq!(
            Sys::from_u32(back.regs.get(Reg::Eax)),
            th.inflight,
            "{}: reincarnated thread would dispatch a different continuation",
            sys.name()
        );
        assert_eq!(
            back.runnable,
            1,
            "{}: blocked thread exported as stopped",
            sys.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_counters_start_indexable_for_every_entrypoint() {
        for d in fluke_api::SYSCALLS {
            // Merely indexable and monotone; coverage is asserted by the
            // integration suite which actually drives the kernel.
            let _ = block_audit_hits(d.sys);
        }
    }
}
