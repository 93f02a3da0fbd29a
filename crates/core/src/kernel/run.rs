//! The deterministic run loop, trap handling, and system-call entry/exit.
//!
//! The execution-model difference lives here and only here: the interrupt
//! model pays a few extra cycles per kernel entry/exit to move saved state
//! between the per-CPU stack and the thread structure (§5.5), and saves the
//! kernel-register save/restore on every context switch (§5.3). Everything
//! downstream of dispatch is shared between the models.

use fluke_api::{ErrorCode, Sys, SysClass};
use fluke_arch::cost::Cycles;
use fluke_arch::{Reg, StepOutcome, Trap};

use crate::ids::ThreadId;
use crate::kprof::Phase;
use crate::kstat::FaultSide;
use crate::probe::Probe;
use crate::thread::{Body, NativeAction, RunState};

use super::mem::SpaceMemAdapter;
use super::{Kernel, LockKey, SysOutcome};

/// Longest stretch of user execution between loop iterations (bounds how
/// stale the event check can get when no timer is pending).
const MAX_USER_SLICE: Cycles = 2_000_000; // 10ms

/// Why [`Kernel::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// Every thread has halted (or was never started).
    AllHalted,
    /// The cycle limit was reached.
    TimeLimit,
    /// No thread can run and no timer can wake one, but blocked threads
    /// remain: a deadlock in the simulated system.
    Deadlock,
}

impl Kernel {
    /// Run until completion, deadlock, or `limit` cycles.
    ///
    /// `limit` is an *absolute* cycle deadline, and the loop's stop
    /// condition is a pure function of kernel state and that deadline — so
    /// re-issuing a recorded limit from any intermediate state inside the
    /// window lands on the same end state (what `krec` replay relies on).
    ///
    /// With `krec` armed, each call is logged as a [`crate::krec::RunWindow`]
    /// bracketed by start/end state digests; the recorder reads but never
    /// mutates simulated state, so armed and unarmed runs are bit-identical.
    /// Debug builds check the kernel's cross-structure invariants (run
    /// queues, wait queues, CPU slots) on every return.
    pub fn run(&mut self, limit: Option<Cycles>) -> RunExit {
        let exit = if self.krec.is_none() {
            self.run_inner(limit)
        } else {
            self.run_recorded(limit)
        };
        debug_assert_eq!(self.check_invariants(), Ok(()), "at run exit");
        exit
    }

    /// [`Kernel::run`] under the armed recorder: one [`crate::krec::RunWindow`]
    /// per call.
    fn run_recorded(&mut self, limit: Option<Cycles>) -> RunExit {
        let Ok(start_digest) = self.state_digest() else {
            // Outside the snapshot contract (native-bodied thread): run
            // unrecorded rather than perturb or fail the run.
            return self.run_inner(limit);
        };
        let start_cycle = self.now();
        let exit = self.run_inner(limit);
        let end_cycle = self.now();
        let Ok(end_digest) = self.state_digest() else {
            return exit;
        };
        if let Some(kr) = self.krec.as_mut() {
            kr.windows.push(crate::krec::RunWindow {
                limit,
                start_cycle,
                end_cycle,
                start_digest,
                end_digest,
                exit,
            });
        }
        exit
    }

    /// The run loop proper.
    ///
    /// Multiprocessor scheduling is conservative discrete-event: the
    /// processor with the smallest clock always acts next, so all kernel
    /// actions occur in global simulated-time order. Idle processors park
    /// (drop out of selection) until a wake kicks them, which keeps runs
    /// deterministic for any CPU count.
    fn run_inner(&mut self, limit: Option<Cycles>) -> RunExit {
        loop {
            // Choose the acting processor: smallest clock among unparked.
            // Only the CPU that acted last has a stale index leaf.
            let last = self.active;
            self.cpu_index.set_clock(last, self.cpus[last].cpu.now);
            #[cfg(debug_assertions)]
            self.check_cpu_index();
            let Some(active) = self.cpu_index.min() else {
                // Everyone is parked: hop idle time to the next timer
                // event, or conclude the run.
                match self.events.next_time() {
                    Some(te) => {
                        if let Some(l) = limit {
                            if te >= l {
                                return RunExit::TimeLimit;
                            }
                        }
                        self.kick_parked(te);
                        continue;
                    }
                    None => {
                        let blocked = self.threads.iter().any(|(_, t)| t.is_blocked());
                        return if blocked {
                            RunExit::Deadlock
                        } else {
                            RunExit::AllHalted
                        };
                    }
                }
            };
            self.active = active;
            if let Some(l) = limit {
                if self.cur_cpu().cpu.now >= l {
                    return RunExit::TimeLimit;
                }
            }
            self.service_due_events();
            // Timeslice check (lazy; no heap traffic per dispatch).
            if self.cur_cpu().current.is_some()
                && self.cur_cpu().cpu.now >= self.cur_cpu().slice_end
            {
                self.cur_cpu_mut().resched = true;
            }
            // User-mode preemption: between instructions, any pending
            // reschedule takes effect immediately (the kernel itself is
            // what adds latency beyond this point — paper §5.2).
            if self.cur_cpu().resched {
                if let Some(cur) = self.cur_cpu().current {
                    self.preempt_user(cur);
                } else {
                    self.cur_cpu_mut().resched = false;
                }
            }
            let Some(cur) = self.cur_cpu().current else {
                if let Some(next) = self.sched_next() {
                    // A big-lock kernel dispatches under its one lock. A
                    // fine-grained one took the run-queue lock inside
                    // `sched_next`; dispatch itself touches only this
                    // CPU's slot and the chosen thread.
                    let global = self.cfg.big_lock;
                    if global {
                        self.lock(LockKey::Global);
                    }
                    self.dispatch(next);
                    if global {
                        self.unlock(LockKey::Global);
                    }
                    continue;
                }
                // Nothing to run here: park until someone kicks us.
                self.cur_cpu_mut().resched = false;
                self.cpu_index.park(self.active);
                continue;
            };
            // Adversarial fault injection (`kfault`): every user-mode
            // instruction boundary is an injection site; the armed one
            // perturbs execution here.
            if self.kfault.is_some() && self.kfault_boundary(cur) {
                continue;
            }
            // Snapshot recorder (`krec`): the same boundary is a snapshot
            // site. Reads state, mutates nothing simulated.
            if self.krec.is_some() {
                self.krec_tick(cur);
            }
            self.execute_current(cur, limit);
        }
    }

    /// Debug cross-check of the CPU-clock index against the slots it
    /// mirrors, and of its picks against the linear scans it replaced.
    /// Called after the acting CPU is re-keyed, when every leaf is exact.
    #[cfg(debug_assertions)]
    fn check_cpu_index(&self) {
        let ix = &self.cpu_index;
        for (i, c) in self.cpus.iter().enumerate() {
            assert_eq!(ix.clock(i), c.cpu.now, "cpu {i}: stale index clock");
        }
        let pick = (0..self.cpus.len())
            .filter(|&i| !ix.is_parked(i))
            .min_by_key(|&i| (self.cpus[i].cpu.now, i));
        assert_eq!(ix.min(), pick, "index pick disagrees with the scan");
    }

    /// Debug reference for [`crate::sched::ClockIndex::min_other`]: the
    /// smallest clock among the other unparked CPUs, by linear scan.
    #[cfg(debug_assertions)]
    fn second_clock_scan(&self) -> Option<Cycles> {
        (0..self.cpus.len())
            .filter(|&i| i != self.active && !self.cpu_index.is_parked(i))
            .map(|i| self.cpus[i].cpu.now)
            .min()
    }

    /// Preempt the current thread at a user-mode instruction boundary.
    fn preempt_user(&mut self, cur: ThreadId) {
        // Only switch if someone of equal-or-higher priority is waiting;
        // otherwise just start a fresh timeslice.
        let cur_prio = self.threads.get(cur.0).map(|t| t.priority).unwrap_or(0);
        let top = self.sched_top_priority();
        self.cur_cpu_mut().resched = false;
        match top {
            Some(p) if p >= cur_prio => {
                self.probe(Probe::Runnable {
                    thread: cur,
                    at: self.now(),
                });
                let th = self.threads.get_mut(cur.0).expect("current");
                th.state = RunState::Ready;
                self.sched_push(cur, cur_prio);
                self.cur_cpu_mut().current = None;
                self.stats.user_preemptions += 1;
                self.probe(Probe::UserPreempt { thread: cur });
            }
            _ => {
                self.cur_cpu_mut().slice_end = self.cur_cpu_mut().cpu.now + self.cfg.timeslice;
            }
        }
    }

    /// Dispatch a ready thread onto the CPU, charging the model-dependent
    /// context-switch cost.
    pub(crate) fn dispatch(&mut self, t: ThreadId) {
        let interrupt = self.is_interrupt_model();
        let mut cost = self.cost.ctx_switch_cost(interrupt);
        let space = self.threads.get(t.0).and_then(|x| x.space);
        let space_switch = space.is_some() && space != self.cur_cpu_mut().last_space;
        if space_switch {
            cost += self.cost.addr_space_switch;
            self.stats.space_switches += 1;
        }
        self.stats.ctx_switches += 1;
        if let Some(s) = space {
            self.cur_cpu_mut().last_space = Some(s);
        }
        let active = self.active;
        let th = self.threads.get_mut(t.0).expect("ready thread");
        th.state = RunState::Running(active);
        // Affinity follows execution: future wakes enqueue where the
        // thread last ran (its state is warm in that CPU's cache).
        th.home_cpu = active;
        self.cur_cpu_mut().current = Some(t);
        // Consume the reschedule that caused this dispatch *before*
        // charging the switch cost: a wake that fires during the switch
        // (serviced inside `charge`) must set a fresh pending reschedule,
        // not be wiped by it.
        self.cur_cpu_mut().resched = false;
        self.probe(Probe::Switch {
            thread: t,
            space_switch,
        });
        self.charge_in(Phase::Sched, cost);
        self.cur_cpu_mut().slice_end = self.cur_cpu_mut().cpu.now + self.cfg.timeslice;
        // Consume a pending timer-wake mark: the elapsed span is one
        // event-raised → dispatch preemption-latency observation.
        let wake_pending = {
            let th = self.threads.get_mut(t.0).expect("ready thread");
            std::mem::take(&mut th.wake_pending)
        };
        if wake_pending > 0 {
            let cycles = self.now().saturating_sub(wake_pending);
            self.probe(Probe::Latency { cycles });
        }
    }

    /// Run the current thread until its next trap or the next deadline.
    fn execute_current(&mut self, cur: ThreadId, limit: Option<Cycles>) {
        let is_native = matches!(
            self.threads.get(cur.0).map(|t| &t.body),
            Some(Body::Native(_))
        );
        if is_native {
            self.run_native(cur);
            return;
        }
        let now = self.cur_cpu().cpu.now;
        let mut deadline = now + MAX_USER_SLICE;
        if let Some(te) = self.events.next_time() {
            deadline = deadline.min(te.max(now + 1));
        }
        deadline = deadline.min(self.cur_cpu().slice_end.max(now + 1));
        // Multiprocessor causality: do not run far past the next-slowest
        // processor, so cross-CPU wakes and preemptions are observed with
        // bounded skew.
        if self.cfg.num_cpus > 1 {
            const SYNC_QUANTUM: Cycles = 2_000;
            // Exact: the index is stale only for the acting CPU, which
            // `min_other` excludes.
            let second = self.cpu_index.min_other(self.active);
            #[cfg(debug_assertions)]
            assert_eq!(second, self.second_clock_scan(), "second-smallest clock");
            if let Some(sec) = second {
                deadline = deadline.min(sec.max(now) + SYNC_QUANTUM);
            }
        }
        if let Some(l) = limit {
            deadline = deadline.min(l.max(now + 1));
        }
        let (text, sid) = {
            let th = self.threads.get(cur.0).expect("current");
            match (&th.text, th.space) {
                (Some(text), Some(sid)) => (text.clone(), sid),
                _ => {
                    self.kill_thread(cur, "user thread without text/space");
                    return;
                }
            }
        };
        let (trap, used) = {
            let th = self.threads.get_mut(cur.0).expect("current");
            let Some(space) = self.spaces.get_mut(sid.0) else {
                self.kill_thread(cur, "space destroyed");
                return;
            };
            let mut mem = SpaceMemAdapter {
                space,
                phys: &mut self.phys,
                fast: self.cfg.fast_mem,
            };
            let active = self.active;
            let before = self.cpus[active].cpu.now;
            let out =
                self.cpus[active]
                    .cpu
                    .run_user(&mut th.regs, &text, &mut mem, &self.cost, deadline);
            let used = self.cpus[active].cpu.now - before;
            th.user_cycles += used;
            self.stats.user_cycles += used;
            match out {
                StepOutcome::Trapped(t) => (Some(t), used),
                StepOutcome::DeadlineReached => (None, used),
            }
        };
        self.probe(Probe::User {
            thread: cur,
            cycles: used,
        });
        if let Some(trap) = trap {
            // Kernel entry locks the object class the handler will touch
            // (the whole kernel under `cfg.big_lock`). The key is
            // classified once at entry; a chained entrypoint stays under
            // the original key (chains stay within a family — e.g.
            // `send_over_receive`'s stages share the connection).
            let key = self.trap_lock_key(cur, trap);
            self.lock(key);
            self.handle_trap(cur, trap);
            self.unlock(key);
        }
    }

    /// Run a native (kernel-internal) thread body once.
    fn run_native(&mut self, cur: ThreadId) {
        let now = self.cur_cpu_mut().cpu.now;
        let th = self.threads.get_mut(cur.0).expect("current");
        let woken_at = th.woken_at;
        th.woken_at = 0;
        let mut body = std::mem::replace(&mut th.body, Body::User);
        let action = match &mut body {
            Body::Native(b) => b.on_dispatch(woken_at, now, &mut self.stats),
            Body::User => unreachable!("native thread lost its body"),
        };
        let th = self.threads.get_mut(cur.0).expect("current");
        th.body = body;
        match action {
            NativeAction::BlockUntilWoken { work } => {
                self.charge(work);
                let th = self.threads.get_mut(cur.0).expect("current");
                th.state = RunState::Blocked(crate::thread::WaitReason::Sleep);
                self.cur_cpu_mut().current = None;
            }
            NativeAction::Halt { work } => {
                self.charge(work);
                self.halt_thread(cur);
            }
        }
    }

    /// Handle a trap from user mode.
    fn handle_trap(&mut self, cur: ThreadId, trap: Trap) {
        match trap {
            Trap::Syscall => self.syscall_entry(cur),
            Trap::PageFault(f) => {
                let sid = self.threads.get(cur.0).and_then(|t| t.space);
                let Some(sid) = sid else {
                    self.kill_thread(cur, "fault without space");
                    return;
                };
                let write = f.kind == fluke_arch::AccessKind::Write;
                match self.handle_fault(cur, sid, f.addr, write, FaultSide::Other, false, false) {
                    Ok(()) => {
                        // Soft fault resolved: eip still points at the
                        // faulting instruction; it simply re-executes.
                    }
                    Err(SysOutcome::Block) => {
                        // Hard fault: thread now blocked on the pager; it
                        // will retry the instruction when woken.
                    }
                    Err(_) => {
                        // Any outcome other than a resolved fault or a
                        // pager block is fatal to the thread.
                        self.kill_thread(cur, "fatal page fault");
                    }
                }
            }
            Trap::Halt => self.halt_thread(cur),
            Trap::Illegal => self.kill_thread(cur, "illegal instruction"),
        }
    }

    /// The system-call entry/exit path.
    pub(crate) fn syscall_entry(&mut self, cur: ThreadId) {
        let interrupt = self.is_interrupt_model();
        // Process-model in-kernel preemption retained the kernel stack:
        // the re-entry preamble is not re-executed (charges suppressed
        // until the handler reaches new work).
        let retained = {
            let th = self.threads.get_mut(cur.0).expect("current");
            let r = th.kstack_retained;
            th.kstack_retained = false;
            r
        };
        let restarting = self.threads.get(cur.0).and_then(|t| t.inflight).is_some();
        if retained {
            self.dispatch_suppress = true;
        }
        if restarting {
            self.stats.restarts += 1;
            self.rollback_active = true;
            self.dispatch_rollback = self.threads.get(cur.0).and_then(|t| t.open_fault);
        }
        // A restarted entrypoint continues the open request: kspan opens
        // a span only when none is active for the thread.
        self.probe(Probe::Enter {
            thread: cur,
            restarting,
        });
        self.charge_in(Phase::Entry, self.cost.entry_cost(interrupt));
        let mut chained = false;
        loop {
            let eax = self.threads.get(cur.0).expect("current").regs.get(Reg::Eax);
            let Some(sys) = Sys::from_u32(eax) else {
                self.finish_syscall(cur, ErrorCode::InvalidEntrypoint, interrupt);
                break;
            };
            // Adversarial fault injection (`kfault`): a transient
            // resource-exhaustion failure abandons this dispatch attempt;
            // the registers still hold the complete continuation, so the
            // retry is a plain re-decode.
            if self.kfault.is_some() && self.kfault_transient(cur) {
                continue;
            }
            self.stats.syscalls += 1;
            self.stats.per_sys.bump(sys);
            // A pending thread_interrupt breaks the thread out of any
            // sleeping entrypoint with a visible Interrupted result; the
            // register continuation stays valid for re-issue.
            let class = sys.class();
            if matches!(class, SysClass::Long | SysClass::MultiStage) && !chained {
                let th = self.threads.get_mut(cur.0).expect("current");
                if th.interrupted {
                    th.interrupted = false;
                    self.finish_syscall(cur, ErrorCode::Interrupted, interrupt);
                    break;
                }
            }
            let out = {
                // Every dispatch-loop iteration is its own audited unit:
                // the entry snapshot is (re-)taken here, so a chained
                // entrypoint starts from its own committed registers.
                let mut cx = super::SysCtx { t: cur, sys };
                self.audit_begin(cur, sys);
                let r = self.dispatch_sys(&mut cx);
                self.audit_end();
                r.unwrap_or_else(|o| o)
            };
            match out {
                SysOutcome::Done(code) => {
                    self.progress();
                    self.finish_syscall(cur, code, interrupt);
                    break;
                }
                SysOutcome::Chain => {
                    // Registers were rewritten to the next entrypoint
                    // (paper Figure 4's `set_pc`): dispatch it immediately.
                    let th = self.threads.get_mut(cur.0).expect("current");
                    th.inflight = Sys::from_u32(th.regs.get(Reg::Eax));
                    chained = true;
                    continue;
                }
                SysOutcome::Block | SysOutcome::Preempted => {
                    // The handler brought the registers to a clean restart
                    // point and took the thread off the CPU.
                    break;
                }
                SysOutcome::Kill(r) => {
                    self.kill_thread(cur, r);
                    break;
                }
            }
        }
        self.progress();
        self.rollback_active = false;
    }

    /// Complete the current thread's system call: result code to `eax`,
    /// advance past the trap, charge the exit path, and deliver any latched
    /// preemption (the NP configurations deliver timer interrupts taken in
    /// kernel mode here, at kernel exit).
    fn finish_syscall(&mut self, cur: ThreadId, code: ErrorCode, interrupt_model: bool) {
        // The entrypoint is still in `eax` here; the result code
        // overwrites it below.
        self.probe(Probe::Exit {
            thread: cur,
            code,
            closes: false,
        });
        let th = self.threads.get_mut(cur.0).expect("current");
        th.regs.set(Reg::Eax, code as u32);
        th.regs.eip += 1;
        th.inflight = None;
        th.open_fault = None;
        self.progress();
        self.charge_in(Phase::Exit, self.cost.exit_cost(interrupt_model));
        // The request ends after the exit-path charge so those cycles are
        // attributed to it (matching kprof's phase accounting).
        self.probe(Probe::Close { thread: cur });
        // Latched reschedules take effect on the way out; the main loop
        // performs the actual switch at the next iteration.
    }
}
