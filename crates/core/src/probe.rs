//! One probe stream: the kernel's observable boundaries as typed events.
//!
//! The kernel never calls an observer directly. At each boundary it
//! raises one [`Probe`] through [`Kernel::probe`], which hands it to the
//! consumers in a fixed order: `ktrace`, `kprof`, `kspan`, `flowcheck`.
//! With no observer armed a probe costs one branch: payloads carry only
//! values the call site already holds, and anything derived (a class, a
//! register, a physical location) is read by the consumer through
//! [`ProbeCx`]. Observer actions at one simulated instant share a probe;
//! actions at different instants stay separate probes, so no timestamp
//! moves. Consumers write only their own state; `kfault`, `krec` and the
//! atomicity auditor act on the kernel and stay explicit calls. DESIGN.md
//! §21 has the full set.

use fluke_api::{ErrorCode, Sys};
use fluke_arch::cost::Cycles;
use fluke_arch::{Reg, UserRegs};

use crate::ids::{Arena, ThreadId};
use crate::kernel::{Kernel, LockKey};
use crate::kfault::KfaultKind;
use crate::kprof::Phase;
use crate::space::Space;
use crate::thread::{Thread, WaitReason};

/// One observable kernel boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// A thread trapped into the kernel with a system call; `eax` names
    /// the entrypoint. `restarting` when it re-issues an in-flight call.
    Enter { thread: ThreadId, restarting: bool },
    /// A system call completed user-visibly with `code`, raised while
    /// `eax` still names the completed entrypoint. `closes` when the
    /// request ends at the same instant (a blocked thread's call
    /// completed in place); a running thread's request closes later, at
    /// [`Probe::Close`].
    Exit {
        thread: ThreadId,
        code: ErrorCode,
        closes: bool,
    },
    /// A running thread's completed call ends its request, after the
    /// exit-path charge.
    Close { thread: ThreadId },
    /// The thread blocked for `reason`, registers at a clean restart
    /// point.
    Block {
        thread: ThreadId,
        reason: WaitReason,
    },
    /// A blocked thread's wait changed in place to `reason` (a completed
    /// send stage now awaits its reply).
    Rewait {
        thread: ThreadId,
        reason: WaitReason,
    },
    /// The thread was preempted inside the kernel at a clean point.
    KernelPreempt { thread: ThreadId },
    /// The thread was preempted at a user-mode instruction boundary.
    UserPreempt { thread: ThreadId },
    /// The thread became runnable at `at` (a wake, a preemption, or an
    /// injected state round-trip).
    Runnable { thread: ThreadId, at: Cycles },
    /// A blocked thread was unblocked onto a ready queue.
    Wake { thread: ThreadId },
    /// The scheduler dispatched the thread onto the acting CPU.
    Switch {
        thread: ThreadId,
        space_switch: bool,
    },
    /// Event-raised → dispatch latency of a timer-woken thread.
    Latency { cycles: Cycles },
    /// The thread executed `cycles` in user mode.
    User { thread: ThreadId, cycles: Cycles },
    /// Kernel work charged to the acting CPU: `cycles` in total, of which
    /// `lock_extra` is the full-preemption locking surcharge, in kernel
    /// phase `phase` under the current one ([`Phase::Lock`]: a lock
    /// section, never nested).
    Charge {
        cycles: Cycles,
        lock_extra: Cycles,
        phase: Option<Phase>,
    },
    /// Kernel work charged to other CPUs' clocks (TLB-shootdown acks).
    Remote { cycles: Cycles },
    /// A parked CPU idled `cycles` before a wake kicked it.
    Idle { cycles: Cycles },
    /// Fixed lock acquire/release overhead.
    LockCost { cycles: Cycles },
    /// The acting CPU waited `cycles` for kernel lock `key`.
    LockWait { key: LockKey, cycles: Cycles },
    /// A restarted call's rollback window closes: its re-executed
    /// preamble ends and new work begins.
    Rollback,
    /// An IPC send stage began; the count register holds the bytes left.
    IpcSend { thread: ThreadId },
    /// An IPC receive stage posted its window (the count register).
    IpcReceive { thread: ThreadId },
    /// The transfer pump moved one chunk.
    IpcTransfer { thread: ThreadId, bytes: u32 },
    /// A complete message was delivered by `thread`; `flow` names the
    /// sending and receiving threads when both ends are user threads (a
    /// causal edge between their requests).
    IpcMessage {
        thread: ThreadId,
        flow: Option<(ThreadId, ThreadId)>,
    },
    /// A soft fault at `addr` was resolved inline for `remedy` cycles.
    SoftFault {
        thread: ThreadId,
        addr: u32,
        remedy: Cycles,
    },
    /// A hard fault became an exception IPC to the keeper.
    HardFault { thread: ThreadId, offset: u32 },
    /// The keeper replied; `remedy` is the raise-to-reply time.
    HardFaultDone { thread: ThreadId, remedy: Cycles },
    /// The thread had wholesale new state installed mid-request.
    Abort { thread: ThreadId },
    /// The thread halted.
    Halt { thread: ThreadId },
    /// A value logged through the `sys_trace` debug channel.
    Mark { thread: ThreadId, value: u32 },
    /// A `kfault` perturbation fired at injection site `site`.
    Injected {
        thread: ThreadId,
        kind: KfaultKind,
        site: u64,
    },
}

/// The read-only kernel view a consumer sees with each probe.
pub(crate) struct ProbeCx<'a> {
    /// The acting CPU's clock.
    pub at: Cycles,
    /// The acting CPU.
    pub cpu: usize,
    /// The acting CPU's current thread.
    pub current: Option<ThreadId>,
    /// Rollback (preamble re-execution) is in progress.
    pub rollback: bool,
    /// The audited dispatch in flight (its caller and entrypoint): set
    /// exactly while a system-call handler runs.
    pub dispatch: Option<(ThreadId, Sys)>,
    /// Every thread (registers, space).
    pub threads: &'a Arena<Thread>,
    /// Every address space (for handle translation).
    pub spaces: &'a Arena<Space>,
}

impl ProbeCx<'_> {
    /// A thread's registers.
    pub fn regs(&self, t: ThreadId) -> Option<&UserRegs> {
        self.threads.get(t.0).map(|th| &th.regs)
    }

    /// The raw entrypoint number in a thread's `eax`.
    pub fn eax(&self, t: ThreadId) -> u32 {
        self.regs(t).map_or(u32::MAX, |r| r.get(Reg::Eax))
    }

    /// The physical location `vaddr` translates to in `t`'s space (read
    /// access, no fault side effects), as handle lookup would find it.
    pub fn translate(&self, t: ThreadId, vaddr: u32) -> Option<crate::flowcheck::Loc> {
        let sid = self.threads.get(t.0)?.space?;
        self.spaces.get(sid.0)?.translate(vaddr, false)
    }
}

impl Kernel {
    /// Whether any consumer is armed.
    #[inline]
    fn armed(&self) -> bool {
        self.trace.enabled | self.kprof.enabled | self.kspan.enabled | self.flowcheck.on
    }

    /// Raise a probe. With no consumer armed this is one branch.
    #[inline]
    pub(crate) fn probe(&mut self, p: Probe) {
        if self.armed() {
            self.observe(p);
        }
    }

    /// Hand `p` to the consumers in the fixed order ktrace, kprof,
    /// kspan, flowcheck. A disarmed consumer, or one that has no use for
    /// the probe, returns at once.
    #[inline(never)]
    fn observe(&mut self, p: Probe) {
        let slot = &self.cpus[self.active];
        let cx = ProbeCx {
            at: slot.cpu.now,
            cpu: self.active,
            current: slot.current,
            rollback: self.rollback_active,
            dispatch: self.audited(),
            threads: &self.threads,
            spaces: &self.spaces,
        };
        self.trace.observe(&p, &cx);
        self.kprof.observe(&p, &cx);
        self.kspan.observe(&p, &cx);
        self.flowcheck.observe(&p, &cx);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Run `f` with a probe context outside any kernel: the given clock
    /// and rollback flag, CPU 0, no current thread, no threads or spaces.
    pub(crate) fn with_cx<R>(at: Cycles, rollback: bool, f: impl FnOnce(&ProbeCx) -> R) -> R {
        let (threads, spaces) = (Arena::new(), Arena::new());
        f(&ProbeCx {
            at,
            cpu: 0,
            current: None,
            rollback,
            dispatch: None,
            threads: &threads,
            spaces: &spaces,
        })
    }
}
