//! The Fluke kernel proper.
//!
//! One kernel source serves every Table 4 configuration: the execution
//! model and preemption style are consulted only in the entry/exit,
//! context-switch, and preemption-point code — the reproduction of the
//! paper's claim that the two models differ by ~200 instructions of
//! entry/exit code plus ~50 lines of context-switch code.
//!
//! Submodules:
//!
//! * [`mod@self`] — the kernel structure, boot/loader interface, scheduler
//!   primitives, and thread lifecycle;
//! * `mem` — address translation, the mapping-hierarchy walk, soft/hard
//!   fault resolution, and kernel access to user memory;
//! * `run` — the deterministic run loop, trap handling, and the system
//!   call entry/exit paths;
//! * `dispatch` — all non-IPC system call handlers;
//! * `ipc` — connections, the data-transfer pump with its preemption
//!   points, and the IPC entrypoints.

/// The one reason → wait-queue mapping: the queue a thread blocked for a
/// `WaitReason` is linked on in kernel `$k`, or `None` for the
/// connection-linked and timer waits, which keep no queue (or if the
/// holder is gone). Written once for shared and mutable access: `$get` is
/// `get` or `get_mut`, and `$m` the matching reference qualifier.
macro_rules! wait_queue_of {
    ($k:expr, $reason:expr, $get:ident $(, $m:tt)?) => {{
        use $crate::object::ObjData;
        use $crate::thread::WaitReason;
        match $reason {
            WaitReason::Join(x) => $k.threads.$get(x.0).map(|th| &$($m)? th.joiners),
            WaitReason::Donate(x) => $k.threads.$get(x.0).map(|th| &$($m)? th.donors),
            WaitReason::SpaceIdle(x) => $k.spaces.$get(x.0).map(|sp| &$($m)? sp.idle_waiters),
            WaitReason::IpcConnect(_)
            | WaitReason::IpcSend(_)
            | WaitReason::IpcReceive(_)
            | WaitReason::PagerReply(_)
            | WaitReason::Sleep => None,
            r @ (WaitReason::Mutex(o)
            | WaitReason::Cond(o)
            | WaitReason::PortWait(o)
            | WaitReason::PsetWait(o)
            | WaitReason::OnewaySend(o)
            | WaitReason::OnewayReceive(o)) => {
                match (r, $k.objects.$get(o).map(|ob| &$($m)? ob.data)) {
                    (WaitReason::Mutex(_), Some(ObjData::Mutex { waiters, .. }))
                    | (WaitReason::Cond(_), Some(ObjData::Cond { waiters })) => Some(waiters),
                    (WaitReason::PortWait(_), Some(ObjData::Port { server_q, .. }))
                    | (WaitReason::PsetWait(_), Some(ObjData::Pset { server_q, .. })) => {
                        Some(server_q)
                    }
                    (WaitReason::OnewaySend(_), Some(ObjData::Port { oneway_senders: q, .. }))
                    | (
                        WaitReason::OnewayReceive(_),
                        Some(ObjData::Port { oneway_receivers: q, .. }),
                    ) => Some(q),
                    _ => None,
                }
            }
        }
    }};
}

mod dispatch;
mod ipc;
mod locktable;
pub(crate) mod mem;
mod run;
mod snapshot;
pub use snapshot::MemRun;
mod submit;
mod sysctx;

pub use sysctx::block_audit_hits;
pub(crate) use sysctx::SysCtx;

use std::sync::Arc;

use fluke_api::state::ThreadStateFrame;
use fluke_api::{ErrorCode, Family, Sys};
use fluke_arch::cost::{CostModel, Cycles};
use fluke_arch::{Cpu, Program, ProgramId, Trap, UserRegs};

use crate::config::{Config, ConfigError, ExecModel};
use crate::conn::Connection;
use crate::events::{EventKind, EventQueue};
use crate::ids::{Arena, PagedArena, SpaceId, ThreadId};
use crate::kfault::Kfault;
use crate::kprof::{Kprof, Phase};
use crate::kspan::Kspan;
use crate::kstat::Stats;
use crate::object::{ObjData, ObjectTable};
use crate::phys::PhysMem;
use crate::probe::Probe;
use crate::sched::{ClockIndex, PerCpuQueues};
use crate::space::Space;
use crate::thread::{NativeBody, RunState, Thread, WaitReason};
use crate::trace::Tracer;
use crate::waitq::WaitQueue;

use locktable::LockTable;
pub use mem::SpaceMemAdapter;

pub use run::RunExit;

/// A debugger-interface memory access hit an unmapped, non-derivable
/// address ([`Kernel::try_read_mem`] / [`Kernel::try_write_mem`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccessError {
    /// The first offending virtual address.
    pub addr: u32,
    /// True for a write access, false for a read.
    pub write: bool,
}

impl std::fmt::Display for MemAccessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}_mem: {:#x} unmapped",
            if self.write { "write" } else { "read" },
            self.addr
        )
    }
}

impl std::error::Error for MemAccessError {}

/// Outcome of one system-call handler invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SysOutcome {
    /// Completed: write the code to `eax`, advance `eip`.
    Done(ErrorCode),
    /// The handler rewrote the registers to a different entrypoint
    /// (`eax` updated); dispatch it immediately without returning to user
    /// mode (e.g. the send stage of `send_over_receive` finishing).
    Chain,
    /// The thread blocked; its registers were first brought to a clean
    /// restart point. The handler already enqueued it and cleared the CPU.
    Block,
    /// A preemption point was taken; the thread is ready (not blocked),
    /// registers at a clean restart point.
    Preempted,
    /// Fatal: destroy the thread.
    Kill(&'static str),
}

/// Shorthand for handler bodies: `?` propagates faults/blocks as outcomes.
pub(crate) type SysResult = Result<SysOutcome, SysOutcome>;

/// One fine-grained kernel lock: an object class plus, for per-object
/// classes, the object's identity. Two CPUs contend only when they hold
/// the *same* key at overlapping simulated times — the whole point of
/// shattering the big lock.
///
/// Lock state is a per-key "busy until" timestamp in [`Kernel`]'s lock
/// table: host-side, every critical section executes atomically, and CPUs
/// act in global simulated-time order, so a free-at stamp per key is an
/// exact model of a spinlock per key. A `big_lock` kernel maps every key
/// to [`LockKey::Global`] — the big lock is a configuration of this one
/// mechanism, not a second one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum LockKey {
    /// The scheduler core: thread lifecycle, priorities, donation.
    Sched,
    /// One CPU's ready queue (fine-grained scheduling + work stealing).
    RunQueue(usize),
    /// One space's handle table (object lookup, creation, destruction).
    Handles(u32),
    /// One space's mapping/page-table state.
    Space(u32),
    /// One IPC connection (protects both ends and the transfer pump).
    Conn(u32),
    /// The one lock of a `big_lock` kernel. It charges no acquire or
    /// release overhead, only its wait.
    Global,
}

impl LockKey {
    /// The lock's class for `kspan` contention accounting, or `None` for
    /// a run-queue lock, whose waits have their own first-class counters
    /// (`kernel.contention.runq.*`).
    pub(crate) fn class(self) -> Option<LockClass> {
        match self {
            LockKey::Sched => Some(LockClass::Sched),
            LockKey::RunQueue(_) => None,
            LockKey::Handles(_) => Some(LockClass::Handles),
            LockKey::Space(_) => Some(LockClass::Space),
            LockKey::Conn(_) => Some(LockClass::Ipc),
            LockKey::Global => Some(LockClass::Klock),
        }
    }
}

/// A kernel-lock class as `kspan` counts contention on it: every
/// `LockKey` but the run-queue locks, with the object identity dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockClass {
    /// The scheduler core.
    Sched,
    /// The per-space handle tables.
    Handles,
    /// The per-space mapping state.
    Space,
    /// The per-connection IPC locks.
    Ipc,
    /// The big kernel lock (`LockKey::Global`).
    Klock,
}

impl LockClass {
    /// Each class's name, indexed by the class.
    pub(crate) const NAMES: [&'static str; 5] = ["sched", "handles", "space", "ipc", "klock"];
}

/// One simulated processor.
#[derive(Debug)]
pub(crate) struct CpuSlot {
    /// Architectural CPU state (the clock).
    pub cpu: Cpu,
    /// Currently running thread.
    pub current: Option<ThreadId>,
    /// A reschedule is pending (latched while in the kernel under NP).
    pub resched: bool,
    /// End of the current timeslice.
    pub slice_end: Cycles,
    /// Space whose page tables are loaded (for address-space switch cost).
    pub last_space: Option<SpaceId>,
}

/// The Fluke kernel: all simulated machine and kernel state for one run.
pub struct Kernel {
    /// Active configuration (Table 4 row).
    pub cfg: Config,
    /// Cycle cost model.
    pub cost: CostModel,
    /// The simulated processors (`cfg.num_cpus` of them).
    pub(crate) cpus: Vec<CpuSlot>,
    /// Index of the processor currently acting (always the one with the
    /// smallest clock among unparked CPUs — actions occur in global time
    /// order).
    pub(crate) active: usize,
    /// The CPU-clock index and the one copy of the parked set: a parked
    /// CPU is idle with nothing to run and excluded from selection until
    /// a wake kicks it (event-driven idling keeps the interleaving
    /// deterministic). Derived from `cpus`; rebuilt on restore, never
    /// serialized apart from the parked bits.
    pub(crate) cpu_index: ClockIndex,
    /// Lock table: per-[`LockKey`] "busy until" timestamps. Absent keys
    /// are free. Only populated when `num_cpus > 1`.
    pub(crate) locks: LockTable,
    pub(crate) threads: Arena<Thread>,
    pub(crate) spaces: Arena<Space>,
    pub(crate) objects: ObjectTable,
    pub(crate) conns: PagedArena<Connection>,
    pub(crate) programs: Vec<Arc<Program>>,
    pub(crate) phys: PhysMem,
    /// Ready queues: one per CPU, or one shared by every CPU under
    /// `cfg.big_lock`.
    pub(crate) runqs: PerCpuQueues,
    pub(crate) events: EventQueue,
    /// Run statistics (every table is derived from these).
    pub stats: Stats,
    /// The `ktrace` flight recorder (disabled and empty unless
    /// `cfg.trace.enabled`). It, `kprof`, `kspan` and `flowcheck` are the
    /// consumers of the probe stream (`crate::probe`).
    pub trace: Tracer,
    /// The `kprof` cycle-attribution profiler (inert unless `cfg.kprof`).
    pub kprof: Kprof,
    /// The `kspan` causal request-tracing layer (inert unless
    /// `cfg.kspan`).
    pub kspan: Kspan,
    /// The `kfault` adversarial fault-injection engine (armed by
    /// `cfg.kfault`; `None` — and zero-cost — otherwise).
    pub(crate) kfault: Option<Kfault>,
    /// Fault record receiving rollback attribution this dispatch.
    pub(crate) dispatch_rollback: Option<usize>,
    /// True while re-executing a restarted syscall's preamble.
    pub(crate) rollback_active: bool,
    /// True while charges are suppressed because the process model retained
    /// the thread's kernel stack across an in-kernel preemption.
    pub(crate) dispatch_suppress: bool,
    /// Committed-register snapshot for the dispatch in flight (the
    /// atomicity auditor's state; `None` outside a dispatch).
    pub(crate) audit: Option<sysctx::AuditState>,
    /// The `krec` snapshot recorder (armed by `cfg.krec`; `None` — and
    /// zero-cost — otherwise). Host-side state, never part of a snapshot.
    pub(crate) krec: Option<crate::krec::Krec>,
    /// The `flowcheck` syscall-flow integrity checker (enabled by
    /// `cfg.flowcheck`; inert otherwise). Host-side state, never part of
    /// a snapshot.
    pub flowcheck: crate::flowcheck::Flowcheck,
}

impl Kernel {
    /// Boot a kernel with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (e.g. interrupt model with
    /// full preemption) — a build error in the original system.
    pub fn new(cfg: Config) -> Self {
        Self::try_new(cfg).expect("invalid kernel configuration")
    }

    /// Boot a kernel, reporting an invalid configuration as a structured
    /// [`ConfigError`] instead of panicking.
    pub fn try_new(cfg: Config) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let trace = Tracer::new(cfg.trace.enabled, cfg.trace.ring_capacity, cfg.num_cpus);
        let cfg_kprof = cfg.kprof;
        let cfg_kspan = cfg.kspan;
        let cfg_kfault = cfg.kfault;
        let cfg_krec = cfg.krec;
        let cfg_flowcheck = cfg.flowcheck;
        let timeslice = cfg.timeslice;
        let cpus = (0..cfg.num_cpus)
            .map(|id| CpuSlot {
                cpu: Cpu::new(id),
                current: None,
                resched: false,
                slice_end: timeslice,
                last_space: None,
            })
            .collect();
        let cpu_index = ClockIndex::new(vec![0; cfg.num_cpus], 0);
        let runqs = PerCpuQueues::new(if cfg.big_lock { 1 } else { cfg.num_cpus });
        Ok(Kernel {
            cfg,
            cost: CostModel::pentium_pro_200(),
            cpus,
            active: 0,
            cpu_index,
            locks: LockTable::default(),
            threads: Arena::new(),
            spaces: Arena::new(),
            objects: ObjectTable::new(),
            conns: PagedArena::new(),
            programs: Vec::new(),
            phys: PhysMem::new(),
            runqs,
            events: EventQueue::new(),
            stats: Stats::default(),
            trace,
            kprof: Kprof::new(cfg_kprof),
            kspan: Kspan::new(cfg_kspan),
            kfault: cfg_kfault.map(Kfault::new),
            dispatch_rollback: None,
            rollback_active: false,
            dispatch_suppress: false,
            audit: None,
            krec: cfg_krec.map(crate::krec::Krec::new),
            flowcheck: crate::flowcheck::Flowcheck::new(cfg_flowcheck),
        })
    }

    /// Current simulated time in cycles.
    pub fn now(&self) -> Cycles {
        self.cur_cpu().cpu.now
    }

    /// Sum of every simulated CPU clock. When `kprof` is enabled from
    /// boot, its phase totals account for exactly this many cycles
    /// ([`Kprof::total`] — the sum-exactness invariant).
    pub fn total_cpu_cycles(&self) -> Cycles {
        self.cpus.iter().map(|c| c.cpu.now).sum()
    }

    /// The first broken cross-structure invariant, if any. Checked so
    /// far:
    /// - run queues hold exactly the live Ready threads, each once (the
    ///   run loop dispatches queue entries without re-checking them);
    /// - a thread blocked for a queue-backed [`WaitReason`] is on the
    ///   queue that reason names (a wait queue holds each member at most
    ///   once by construction);
    /// - the CPUs' `current` slots agree with thread states: CPU `i`'s
    ///   current thread is live and `Running(i)`, and every `Running(i)`
    ///   thread is CPU `i`'s current thread;
    /// - a port's kernel buffer (`ipc_submit`) and its blocked one-way
    ///   receivers are never both non-empty (every buffering site flushes,
    ///   every receive drains the buffer before it waits), and only the
    ///   head buffered message is part-delivered (`pos > 0`).
    pub(crate) fn check_invariants(&self) -> Result<(), &'static str> {
        let mut queued = std::collections::HashSet::new();
        for t in self.runqs.threads() {
            if !self.threads.get(t.0).is_some_and(|th| th.is_ready()) {
                return Err("run queue names a thread that is not a live Ready thread");
            }
            if !queued.insert(t) {
                return Err("a Ready thread is queued twice");
            }
        }
        if self.threads.iter().filter(|(_, th)| th.is_ready()).count() != queued.len() {
            return Err("a Ready thread is on no run queue");
        }
        for (t, th) in self.threads.iter() {
            if let RunState::Blocked(reason) = th.state {
                if self
                    .wait_queue(reason)
                    .is_some_and(|q| !q.contains(ThreadId(t)))
                {
                    return Err("a blocked thread is not on the wait queue its reason names");
                }
            }
        }
        for (i, slot) in self.cpus.iter().enumerate() {
            if let Some(t) = slot.current {
                if !self
                    .threads
                    .get(t.0)
                    .is_some_and(|th| th.state == RunState::Running(i))
                {
                    return Err("a CPU's current slot names a thread not running on it");
                }
            }
        }
        for (t, th) in self.threads.iter() {
            if let RunState::Running(i) = th.state {
                if self.cpus.get(i).and_then(|slot| slot.current) != Some(ThreadId(t)) {
                    return Err("a running thread is not its CPU's current thread");
                }
            }
        }
        for (_, o) in self.objects.iter() {
            if let ObjData::Port {
                buffered,
                oneway_receivers,
                ..
            } = &o.data
            {
                if !buffered.is_empty() && !oneway_receivers.is_empty() {
                    return Err("a port holds buffered messages and blocked one-way receivers");
                }
                if buffered.iter().skip(1).any(|m| m.pos > 0) {
                    return Err("a buffered message behind the head is part-delivered");
                }
            }
        }
        Ok(())
    }

    /// True if the kernel runs the interrupt execution model.
    #[inline]
    pub fn is_interrupt_model(&self) -> bool {
        self.cfg.model.is_interrupt()
    }

    /// The acting processor.
    #[inline]
    pub(crate) fn cur_cpu(&self) -> &CpuSlot {
        &self.cpus[self.active]
    }

    /// The acting processor, mutably.
    #[inline]
    pub(crate) fn cur_cpu_mut(&mut self) -> &mut CpuSlot {
        &mut self.cpus[self.active]
    }

    /// Unpark one idle processor so it can pick up newly runnable work,
    /// advancing its clock to the waking instant.
    pub(crate) fn kick_parked(&mut self, at: Cycles) {
        if let Some(i) = self.cpu_index.first_parked() {
            let c = &mut self.cpus[i].cpu;
            let d = at.saturating_sub(c.now);
            self.stats.idle_cycles += d;
            c.now = c.now.max(at);
            self.cpu_index.unpark(i, c.now);
            self.probe(Probe::Idle { cycles: d });
        }
    }

    /// If `t` is running on some processor, clear that processor's current
    /// slot (used by destruction, state installation and hard faults, which
    /// may target a thread on another CPU). Call it before overwriting the
    /// thread's `Running(i)` state: that state names the slot.
    pub(crate) fn clear_running_cpu(&mut self, t: ThreadId) {
        if let Some(RunState::Running(i)) = self.threads.get(t.0).map(|th| th.state) {
            self.cpus[i].current = None;
        }
    }

    /// Charge fixed lock-path overhead (acquire or release cost) on the
    /// acting CPU, attributed to the `Lock` phase. Charged directly (no
    /// [`Kernel::charge`] — lock costs must not take the full-preemption
    /// surcharge or fire events mid-acquire).
    fn lock_overhead(&mut self, c: Cycles) {
        self.stats.klock_cycles += c;
        self.stats.kernel_cycles += c;
        self.probe(Probe::LockCost { cycles: c });
        self.cur_cpu_mut().cpu.now += c;
    }

    /// The lock `key` names in this configuration: itself, or
    /// [`LockKey::Global`] in a `big_lock` kernel.
    fn lock_key(&self, key: LockKey) -> LockKey {
        if self.cfg.big_lock {
            LockKey::Global
        } else {
            key
        }
    }

    /// Acquire a kernel lock: charge the uncontended acquire cost and, if
    /// another CPU holds the same key, wait until it is released. Free on
    /// uniprocessors (Table 4).
    pub(crate) fn lock(&mut self, key: LockKey) {
        if self.cfg.num_cpus <= 1 {
            return;
        }
        let key = self.lock_key(key);
        if key != LockKey::Global {
            self.lock_overhead(self.cost.mp_lock_acquire);
        }
        let now = self.cur_cpu().cpu.now;
        let free_at = self.locks.free_at(key);
        if free_at > now {
            let wait = free_at - now;
            self.stats.klock_cycles += wait;
            self.stats.klock_wait_cycles += wait;
            self.stats.kernel_cycles += wait;
            if let LockKey::RunQueue(_) = key {
                self.stats.runq_wait_cycles += wait;
                self.stats.runq_waits += 1;
            }
            self.probe(Probe::LockWait { key, cycles: wait });
            self.cur_cpu_mut().cpu.now += wait;
        }
    }

    /// Release a kernel lock: charge the release cost and stamp the key
    /// busy until now — the simulated-time image of the critical section
    /// that just executed atomically host-side.
    pub(crate) fn unlock(&mut self, key: LockKey) {
        if self.cfg.num_cpus <= 1 {
            return;
        }
        let key = self.lock_key(key);
        if key != LockKey::Global {
            self.lock_overhead(self.cost.mp_lock_release);
        }
        let now = self.cur_cpu().cpu.now;
        self.locks.stamp(key, now);
    }

    /// Classify a trap by the object class its handler will mutate —
    /// the lock a fine-grained kernel takes at entry. IPC entrypoints of
    /// a connected thread lock the connection (so only the two endpoint
    /// CPUs ever contend); memory entrypoints and page faults lock the
    /// faulting space; thread/scheduler entrypoints lock the scheduler;
    /// everything else locks the caller's handle table.
    pub(crate) fn trap_lock_key(&self, t: ThreadId, trap: Trap) -> LockKey {
        let Some(th) = self.threads.get(t.0) else {
            return LockKey::Sched;
        };
        let space = th.space.map(|s| s.0).unwrap_or(0);
        match trap {
            Trap::Syscall => match Sys::from_u32(th.regs.get(fluke_arch::Reg::Eax)) {
                Some(sys) => match sys.family() {
                    Family::Ipc => match th.ipc.conn {
                        Some(c) => LockKey::Conn(c.0),
                        None => LockKey::Handles(space),
                    },
                    Family::Region | Family::Mapping | Family::Space => LockKey::Space(space),
                    Family::Thread => LockKey::Sched,
                    Family::Mutex
                    | Family::Cond
                    | Family::Port
                    | Family::Pset
                    | Family::Ref
                    | Family::Misc => LockKey::Handles(space),
                },
                None => LockKey::Sched,
            },
            Trap::PageFault(_) => LockKey::Space(space),
            Trap::Halt | Trap::Illegal => LockKey::Sched,
        }
    }

    // ------------------------------------------------------------------
    // Scheduler routing: per-CPU queues with deterministic work stealing,
    // or one shared queue under `cfg.big_lock`.
    // ------------------------------------------------------------------

    /// The queue serving `cpu`: its own, or the one shared queue.
    fn queue_of_cpu(&self, cpu: usize) -> usize {
        cpu.min(self.runqs.cpus() - 1)
    }

    /// A thread's home queue.
    fn home_of(&self, t: ThreadId) -> usize {
        let home = self.threads.get(t.0).map(|th| th.home_cpu).unwrap_or(0);
        self.queue_of_cpu(home)
    }

    /// Take run queue `q`'s lock. A single shared queue takes none: a
    /// timer wake outside any kernel entry must not wait on the big lock.
    fn runq_lock(&mut self, q: usize) {
        if self.runqs.cpus() > 1 {
            self.lock(LockKey::RunQueue(q));
        }
    }

    /// Release the lock taken by [`Kernel::runq_lock`].
    fn runq_unlock(&mut self, q: usize) {
        if self.runqs.cpus() > 1 {
            self.unlock(LockKey::RunQueue(q));
        }
    }

    /// Enqueue a runnable thread on its home queue, under that queue's
    /// lock.
    pub(crate) fn sched_push(&mut self, t: ThreadId, prio: u32) {
        let home = self.home_of(t);
        self.runq_lock(home);
        self.runqs.push(home, t, prio);
        self.runq_unlock(home);
        self.stats.sched_pushes += 1;
    }

    /// Loader/boot-time enqueue: same routing as [`Kernel::sched_push`]
    /// but charges no simulated time (the loader is outside time).
    fn sched_push_boot(&mut self, t: ThreadId, prio: u32) {
        let home = self.home_of(t);
        self.runqs.push(home, t, prio);
        self.stats.sched_pushes += 1;
    }

    /// Enqueue a preempted or yielded-to thread at the head of its level
    /// on the *acting* CPU's queue, re-homing it there — preempted work
    /// continues where it ran, and a directed yield hands the local CPU
    /// over.
    pub(crate) fn sched_push_front_here(&mut self, t: ThreadId, prio: u32) {
        let here = self.active;
        if let Some(th) = self.threads.get_mut(t.0) {
            th.home_cpu = here;
        }
        let q = self.queue_of_cpu(here);
        self.runq_lock(q);
        self.runqs.push_front(q, t, prio);
        self.runq_unlock(q);
        self.stats.sched_pushes += 1;
    }

    /// Remove a specific thread from whichever ready queue holds it
    /// (destruction, state installation, directed scheduling).
    pub(crate) fn sched_remove(&mut self, t: ThreadId) {
        if let Some(q) = self.runqs.find(t) {
            self.runq_lock(q);
            self.runqs.remove(t);
            self.runq_unlock(q);
        }
    }

    /// Dequeue the next thread for the acting CPU: its own queue first,
    /// then a deterministic steal sweep over the other queues in index
    /// order starting after the thief. A stolen thread is re-homed to the
    /// thief. Returns `None` when every queue is empty.
    pub(crate) fn sched_next(&mut self) -> Option<ThreadId> {
        let here = self.queue_of_cpu(self.active);
        if !self.runqs.cpu_empty(here) {
            self.runq_lock(here);
            let t = self.runqs.pop(here);
            self.runq_unlock(here);
            return t;
        }
        if self.runqs.cpus() > 1 {
            self.stats.sched_steal_attempts += 1;
            if let Some(v) = self.runqs.victim(here) {
                self.runq_lock(v);
                let t = self.runqs.pop(v);
                self.runq_unlock(v);
                if let Some(t) = t {
                    self.stats.sched_steals += 1;
                    if let Some(th) = self.threads.get_mut(t.0) {
                        th.home_cpu = here;
                    }
                    return Some(t);
                }
            }
        }
        None
    }

    /// Highest priority the acting CPU could run next: its own queue's top
    /// (stealable work elsewhere is picked up when the CPU goes idle, not
    /// by preempting the current thread).
    pub(crate) fn sched_top_priority(&self) -> Option<u32> {
        self.runqs.top_priority(self.queue_of_cpu(self.active))
    }

    /// Cross-CPU TLB shootdown after a mapping revocation in `sid`:
    /// every *other* unparked CPU whose loaded page tables belong to the
    /// mutated space takes an invalidation IPI. The initiating CPU pays
    /// one send per remote; each remote pays the ack/invalidate cost on
    /// its own clock (attributed to kernel work so kprof's sum-exactness
    /// invariant holds). Parked CPUs are skipped: they reload page tables
    /// on dispatch anyway (lazy shootdown), and bumping a parked clock
    /// would perturb the event-driven idling protocol.
    pub(crate) fn tlb_shootdown(&mut self, sid: SpaceId) {
        if self.cfg.num_cpus <= 1 {
            return;
        }
        let here = self.active;
        let ack = self.cost.tlb_shootdown_ack;
        let mut remotes = 0u64;
        for (i, slot) in self.cpus.iter_mut().enumerate() {
            if i == here || self.cpu_index.is_parked(i) || slot.last_space != Some(sid) {
                continue;
            }
            // The acting CPU always holds the minimum clock among unparked
            // CPUs, so advancing a remote clock never reorders the past.
            slot.cpu.now += ack;
            self.cpu_index.set_clock(i, slot.cpu.now);
            remotes += 1;
        }
        if remotes == 0 {
            return;
        }
        let acks = ack * remotes;
        self.stats.kernel_cycles += acks;
        self.probe(Probe::Remote { cycles: acks });
        self.stats.tlb_shootdown_ipis += remotes;
        let sends = self.cost.tlb_shootdown_ipi * remotes;
        self.stats.tlb_shootdown_cycles += sends + acks;
        self.charge(sends);
    }

    // ------------------------------------------------------------------
    // Loader / boot interface.
    //
    // These stand in for the boot loader and kernel debugger of the real
    // system: they set up initial spaces, memory, programs and threads, and
    // let tests inspect results. They charge no simulated time.
    // ------------------------------------------------------------------

    /// Register a program image, returning its stable id.
    pub fn register_program(&mut self, p: Program) -> ProgramId {
        self.programs.push(Arc::new(p));
        ProgramId((self.programs.len() - 1) as u64)
    }

    /// Look up a registered program.
    pub fn program(&self, id: ProgramId) -> Option<Arc<Program>> {
        self.programs.get(id.0 as usize).cloned()
    }

    /// Create an empty address space (boot-time).
    pub fn create_space(&mut self) -> SpaceId {
        let id = SpaceId(self.spaces.insert(Space::new(SpaceId(0))));
        self.spaces.get_mut(id.0).unwrap().id = id;
        id
    }

    /// Create a *kernel-alias* space: a space whose threads run in user
    /// mode but with the kernel's view of memory — the paper's technique
    /// for running process-model legacy code (drivers, file systems) under
    /// an interrupt-model kernel (§5.6). Threads in such a space may use
    /// the privileged `sys_stats` selectors ("exported facilities").
    pub fn create_kernel_alias_space(&mut self) -> SpaceId {
        let id = self.create_space();
        self.spaces.get_mut(id.0).unwrap().kernel_alias = true;
        id
    }

    /// Whether a space is a kernel alias (privileged pseudo-kernel space).
    pub fn is_kernel_alias(&self, s: SpaceId) -> bool {
        self.spaces
            .get(s.0)
            .map(|x| x.kernel_alias)
            .unwrap_or(false)
    }

    /// Allocate fresh zeroed frames and map them into `space` at
    /// `[base, base+len)` (boot-time physical memory grant).
    pub fn grant_pages(&mut self, space: SpaceId, base: u32, len: u32, writable: bool) {
        let start = base / fluke_api::abi::PAGE_SIZE;
        let pages = fluke_api::abi::pages_spanning(len.max(1));
        for p in 0..pages {
            let frame = self.phys.alloc();
            let s = self.spaces.get_mut(space.0).expect("space exists");
            s.insert_pte(start + p, crate::space::Pte { frame, writable });
        }
    }

    /// Map `[dst, dst+len)` in `dst_space` onto the frames already backing
    /// `[src, src+len)` in `src_space` (boot-time aliasing helper: the two
    /// ranges share physical memory afterwards).
    ///
    /// # Panics
    ///
    /// Panics if a source page is unmapped and not derivable.
    pub fn alias_pages(
        &mut self,
        dst_space: SpaceId,
        dst: u32,
        src_space: SpaceId,
        src: u32,
        len: u32,
        writable: bool,
    ) {
        let page = fluke_api::abi::PAGE_SIZE;
        let pages = fluke_api::abi::pages_spanning(len.max(1));
        for p in 0..pages {
            let (frame, _) = self
                .debug_translate(src_space, src + p * page, false)
                .expect("alias_pages: source page unmapped");
            let s = self.spaces.get_mut(dst_space.0).expect("space exists");
            s.insert_pte(dst / page + p, crate::space::Pte { frame, writable });
        }
    }

    /// Change the writable bit of the resident page covering `addr`
    /// (boot-time/test helper). Returns false if the page is not resident.
    pub fn protect_page(&mut self, space: SpaceId, addr: u32, writable: bool) -> bool {
        match self.spaces.get_mut(space.0) {
            Some(s) => s.set_vpn_writable(addr / fluke_api::abi::PAGE_SIZE, writable),
            None => false,
        }
    }

    /// Physical memory, read-only: frame and residency counts for tests and
    /// benchmarks (see [`PhysMem::resident_frames`]).
    pub fn phys(&self) -> &PhysMem {
        &self.phys
    }

    /// Kernel-wide software-TLB counters: retired counters from destroyed
    /// spaces plus the live spaces' counters.
    pub fn tlb_stats(&self) -> crate::tlb::TlbStats {
        let mut total = self.stats.tlb_retired;
        for (_, s) in self.spaces.iter() {
            total.merge(s.tlb_stats());
        }
        total
    }

    /// Checked user-memory view of `space` (the same adapter the CPU core
    /// runs against), honouring the configured fast/reference path. Used by
    /// tests and benchmarks to exercise the memory layer directly.
    pub fn user_mem(&mut self, space: SpaceId) -> Option<SpaceMemAdapter<'_>> {
        let fast = self.cfg.fast_mem;
        let space = self.spaces.get_mut(space.0)?;
        Some(SpaceMemAdapter {
            space,
            phys: &mut self.phys,
            fast,
        })
    }

    /// Debugger translation: direct PTE, or a free hierarchy walk with
    /// PTE installation (the debugger sees what a resolved access would).
    fn debug_translate(&mut self, space: SpaceId, addr: u32, write: bool) -> Option<(u32, u32)> {
        if let Some(hit) = self
            .spaces
            .get(space.0)
            .and_then(|s| s.translate(addr, write))
        {
            return Some(hit);
        }
        match self.walk_hierarchy(space, addr, write) {
            crate::kernel::mem::Walk::Soft {
                frame, writable, ..
            } => {
                self.spaces
                    .get_mut(space.0)?
                    .map_page(addr, frame, writable);
                Some((frame, addr % fluke_api::abi::PAGE_SIZE))
            }
            _ => None,
        }
    }

    /// Debugger write to a space's memory (resolving derivable pages).
    /// Returns the offending address on the first unmapped byte; bytes
    /// before it are already written (the debugger has no transactions).
    pub fn try_write_mem(
        &mut self,
        space: SpaceId,
        addr: u32,
        bytes: &[u8],
    ) -> Result<(), MemAccessError> {
        for (i, b) in bytes.iter().enumerate() {
            let a = addr + i as u32;
            let (f, off) = self.debug_translate(space, a, true).ok_or(MemAccessError {
                addr: a,
                write: true,
            })?;
            self.phys.write_u8(f, off, *b);
        }
        Ok(())
    }

    /// Debugger write to a space's memory (resolving derivable pages).
    ///
    /// # Panics
    ///
    /// Panics if any byte is unmapped (a test/setup error). Fault-tolerant
    /// callers (sweep drivers, fuzzers) use [`Self::try_write_mem`].
    pub fn write_mem(&mut self, space: SpaceId, addr: u32, bytes: &[u8]) {
        self.try_write_mem(space, addr, bytes)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Debugger read from a space's memory (resolving derivable pages).
    /// Returns the offending address on the first unmapped byte.
    pub fn try_read_mem(
        &mut self,
        space: SpaceId,
        addr: u32,
        len: u32,
    ) -> Result<Vec<u8>, MemAccessError> {
        (0..len)
            .map(|i| {
                let a = addr + i;
                let (f, off) = self
                    .debug_translate(space, a, false)
                    .ok_or(MemAccessError {
                        addr: a,
                        write: false,
                    })?;
                Ok(self.phys.read_u8(f, off))
            })
            .collect()
    }

    /// Debugger read from a space's memory (resolving derivable pages).
    ///
    /// # Panics
    ///
    /// Panics if any byte is unmapped (a test/setup error). Fault-tolerant
    /// callers (sweep drivers, fuzzers) use [`Self::try_read_mem`].
    pub fn read_mem(&mut self, space: SpaceId, addr: u32, len: u32) -> Vec<u8> {
        self.try_read_mem(space, addr, len)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Debugger read of a little-endian u32.
    pub fn read_mem_u32(&mut self, space: SpaceId, addr: u32) -> u32 {
        let b = self.read_mem(space, addr, 4);
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    /// Create a user thread (boot-time), runnable immediately.
    pub fn spawn_thread(
        &mut self,
        space: SpaceId,
        program: ProgramId,
        regs: UserRegs,
        priority: u32,
    ) -> ThreadId {
        let id = ThreadId(self.threads.insert(Thread::new_user(ThreadId(0))));
        let text = self.program(program).expect("program registered");
        let t = self.threads.get_mut(id.0).unwrap();
        t.id = id;
        t.space = Some(space);
        t.program = Some(program);
        t.text = Some(text);
        t.regs = regs;
        t.priority = priority;
        // Round-robin home CPU over creation order: deterministic, and
        // spreads independent boot-time workloads across the machine.
        t.home_cpu = self.stats.threads_created as usize % self.cfg.num_cpus;
        t.state = RunState::Ready;
        if let Some(s) = self.spaces.get_mut(space.0) {
            s.threads.push(id);
        }
        self.sched_push_boot(id, priority);
        self.kick_parked(self.now());
        self.note_wake_priority(priority);
        self.stats.threads_created += 1;
        self.stats.kmem_delta(self.cfg.per_thread_kmem() as i64);
        id
    }

    /// Create a native (kernel-internal) thread, initially blocked until
    /// woken or driven by [`Kernel::start_periodic`].
    pub fn spawn_native(&mut self, priority: u32, body: Box<dyn NativeBody>) -> ThreadId {
        let id = ThreadId(
            self.threads
                .insert(Thread::new_native(ThreadId(0), priority, body)),
        );
        let t = self.threads.get_mut(id.0).unwrap();
        t.id = id;
        t.state = RunState::Blocked(WaitReason::Sleep);
        self.stats.threads_created += 1;
        self.stats.kmem_delta(self.cfg.per_thread_kmem() as i64);
        id
    }

    /// Arm a periodic wake for `thread` starting at `first`, every
    /// `interval` cycles (the Table 6 probe schedule).
    pub fn start_periodic(&mut self, thread: ThreadId, first: Cycles, interval: Cycles) {
        self.events
            .push(first, EventKind::Periodic { thread, interval });
    }

    /// Loader: create a kernel object of a simple type (Mutex, Cond, Port,
    /// Portset, Reference) at `vaddr` in `space`.
    ///
    /// # Panics
    ///
    /// Panics on unmapped addresses, occupied slots, or non-simple types —
    /// all boot-wiring errors.
    pub fn loader_create(
        &mut self,
        space: SpaceId,
        vaddr: u32,
        ty: fluke_api::ObjType,
    ) -> crate::ids::ObjId {
        let data = crate::object::ObjData::new_simple(ty)
            .unwrap_or_else(|| panic!("loader_create: {ty} is not a simple type"));
        self.loader_insert(space, vaddr, data)
    }

    /// Loader: create a Region exporting `[base, base+size)` of `owner`,
    /// optionally kept by `keeper` (whose fault messages will carry
    /// `vaddr` as the region token).
    pub fn loader_region(
        &mut self,
        owner: SpaceId,
        vaddr: u32,
        base: u32,
        size: u32,
        keeper: Option<crate::ids::ObjId>,
    ) -> crate::ids::ObjId {
        let data = crate::object::ObjData::Region {
            owner,
            base,
            size,
            keeper,
            keeper_token: 0,
            self_token: vaddr,
        };
        let oid = self.loader_insert(owner, vaddr, data);
        if let Some(s) = self.spaces.get_mut(owner.0) {
            s.regions.push(oid);
        }
        oid
    }

    /// Loader: like [`Kernel::loader_region`] but the region *object*
    /// lives at `vaddr` in `home` while exporting memory of `owner` —
    /// the shape a manager uses to export a child's memory.
    #[allow(clippy::too_many_arguments)]
    pub fn loader_region_at(
        &mut self,
        home: SpaceId,
        vaddr: u32,
        owner: SpaceId,
        base: u32,
        size: u32,
        keeper: Option<crate::ids::ObjId>,
    ) -> crate::ids::ObjId {
        let data = crate::object::ObjData::Region {
            owner,
            base,
            size,
            keeper,
            keeper_token: 0,
            self_token: vaddr,
        };
        let oid = self.loader_insert(home, vaddr, data);
        if let Some(s) = self.spaces.get_mut(owner.0) {
            s.regions.push(oid);
        }
        oid
    }

    /// Loader: create a Mapping importing `region` (at `offset`) into
    /// `dest` at `[base, base+size)`. The mapping *object* lives at
    /// `vaddr` in `home` (typically the manager's space — the destination
    /// space may have no memory of its own yet).
    #[allow(clippy::too_many_arguments)]
    pub fn loader_mapping(
        &mut self,
        home: SpaceId,
        vaddr: u32,
        dest: SpaceId,
        base: u32,
        size: u32,
        region: crate::ids::ObjId,
        offset: u32,
        writable: bool,
    ) -> crate::ids::ObjId {
        let data = crate::object::ObjData::Mapping {
            space: dest,
            base,
            size,
            region,
            offset,
            region_token: 0,
            writable,
        };
        let oid = self.loader_insert(home, vaddr, data);
        if let Some(s) = self.spaces.get_mut(dest.0) {
            s.add_mapping(oid, base, size);
        }
        oid
    }

    /// Loader: create a Reference at `vaddr` pointing at `target`.
    pub fn loader_ref(
        &mut self,
        space: SpaceId,
        vaddr: u32,
        target: crate::ids::ObjId,
    ) -> crate::ids::ObjId {
        let data = crate::object::ObjData::Ref {
            target: Some(target),
            target_token: 0,
        };
        self.loader_insert(space, vaddr, data)
    }

    /// Loader: create a Space object at `vaddr` wrapping `sid`.
    pub fn loader_space_object(
        &mut self,
        space: SpaceId,
        vaddr: u32,
        sid: SpaceId,
    ) -> crate::ids::ObjId {
        let oid = self.loader_insert(space, vaddr, crate::object::ObjData::Space(sid));
        if let Some(s) = self.spaces.get_mut(sid.0) {
            s.obj = Some(oid);
        }
        oid
    }

    /// Loader: create a Thread object at `vaddr` wrapping `tid`.
    pub fn loader_thread_object(
        &mut self,
        space: SpaceId,
        vaddr: u32,
        tid: ThreadId,
    ) -> crate::ids::ObjId {
        let oid = self.loader_insert(space, vaddr, crate::object::ObjData::Thread(tid));
        if let Some(th) = self.threads.get_mut(tid.0) {
            th.obj = Some(oid);
        }
        oid
    }

    /// Loader: put `port` into `pset`.
    pub fn loader_join_pset(&mut self, port: crate::ids::ObjId, pset: crate::ids::ObjId) {
        if let Some(crate::object::ObjData::Pset { members, .. }) =
            self.objects.get_mut(pset).map(|o| &mut o.data)
        {
            if !members.contains(&port) {
                members.push(port);
            }
        }
        if let Some(crate::object::ObjData::Port { pset: p, .. }) =
            self.objects.get_mut(port).map(|o| &mut o.data)
        {
            *p = Some(pset);
        }
    }

    /// Loader: look up the object at `vaddr` in `space` (debugger view).
    pub fn object_at(&self, space: SpaceId, vaddr: u32) -> Option<crate::ids::ObjId> {
        let loc = self.spaces.get(space.0)?.translate(vaddr, false)?;
        self.objects.at_loc(loc)
    }

    fn loader_insert(
        &mut self,
        space: SpaceId,
        vaddr: u32,
        data: crate::object::ObjData,
    ) -> crate::ids::ObjId {
        let loc = self
            .spaces
            .get(space.0)
            .and_then(|s| s.translate(vaddr, true))
            .unwrap_or_else(|| panic!("loader: {vaddr:#x} not mapped writable in {space}"));
        self.stats.objects_created += 1;
        self.objects
            .insert(loc, data)
            .unwrap_or_else(|| panic!("loader: object already at {vaddr:#x}"))
    }

    /// One-shot wake of `thread` at time `at`.
    pub fn wake_at(&mut self, thread: ThreadId, at: Cycles) {
        self.events.push(at, EventKind::Wake(thread));
    }

    /// A thread's registers (debugger view).
    pub fn thread_regs(&self, t: ThreadId) -> &UserRegs {
        &self.threads.get(t.0).expect("thread exists").regs
    }

    /// A thread's run state (debugger view).
    pub fn thread_run_state(&self, t: ThreadId) -> RunState {
        self.threads.get(t.0).expect("thread exists").state
    }

    /// A thread's space (debugger view).
    pub fn thread_space(&self, t: ThreadId) -> Option<SpaceId> {
        self.threads.get(t.0).and_then(|t| t.space)
    }

    /// Whether the thread has halted.
    pub fn thread_halted(&self, t: ThreadId) -> bool {
        self.threads.get(t.0).map(|t| t.is_halted()).unwrap_or(true)
    }

    /// A thread's exportable state frame (debugger view; the syscall path
    /// computes the identical frame).
    pub fn thread_frame(&self, t: ThreadId) -> ThreadStateFrame {
        let th = self.threads.get(t.0).expect("thread exists");
        ThreadStateFrame {
            regs: th.regs,
            program: th.program.unwrap_or(ProgramId(u64::MAX)),
            space_token: 0,
            priority: th.priority,
            runnable: if matches!(th.state, RunState::Stopped | RunState::Halted) {
                0
            } else {
                1
            },
            ipc_phase: th.ipc.conn.map(|_| 1).unwrap_or(0),
        }
    }

    // ------------------------------------------------------------------
    // Charging and preemption machinery.
    // ------------------------------------------------------------------

    /// Charge `c` cycles of kernel work, firing any timer events the charge
    /// passes over (their wakeups may set the pending-reschedule flag,
    /// which each preemption configuration consults at its own points).
    pub(crate) fn charge(&mut self, c: Cycles) {
        self.charge_to(None, c);
    }

    /// [`Kernel::charge`] in kernel phase `phase` (the phase the
    /// `kprof`/`kspan` consumers attribute it to, under `dispatch` while a
    /// handler runs).
    pub(crate) fn charge_in(&mut self, phase: Phase, c: Cycles) {
        self.charge_to(Some(phase), c);
    }

    fn charge_to(&mut self, phase: Option<Phase>, c: Cycles) {
        if self.dispatch_suppress {
            return;
        }
        let mut c = c;
        let mut lock_extra = 0;
        if self.cfg.preempt == crate::config::Preemption::Full {
            // Full preemption protects every kernel data structure with
            // blocking mutexes; the aggregate acquire/release/contention
            // cost is modeled as a 40% surcharge on kernel work,
            // calibrated against Table 5's FP column (flukeperf 1.20,
            // memtest 1.11, gcc 1.05).
            let extra = c * 2 / 5;
            self.stats.klock_cycles += extra;
            lock_extra = extra;
            c += extra;
        }
        self.cur_cpu_mut().cpu.now += c;
        self.stats.kernel_cycles += c;
        self.probe(Probe::Charge {
            cycles: c,
            lock_extra,
            phase,
        });
        if self.rollback_active {
            self.stats.rollback_cycles += c;
            if let Some(rec) = self.dispatch_rollback {
                self.stats.fault_records[rec].rollback_cycles += c;
            }
        }
        self.service_due_events();
    }

    /// Mark the point in a handler where *new* work begins: preamble
    /// re-execution (rollback) accounting stops here.
    pub(crate) fn progress(&mut self) {
        if self.rollback_active {
            self.probe(Probe::Rollback);
        }
        self.rollback_active = false;
        self.dispatch_rollback = None;
        self.dispatch_suppress = false;
    }

    /// Acquire+release cost of a kernel lock section. Only the
    /// full-preemption configuration needs kernel locking (Table 4); the
    /// uniprocessor NP/PP kernels run sections with preemption implicitly
    /// excluded.
    pub(crate) fn klock_section(&mut self) {
        if self.cfg.preempt == crate::config::Preemption::Full {
            let c = self.cost.klock_acquire + self.cost.klock_release;
            self.stats.klock_cycles += c;
            self.charge_in(Phase::Lock, c);
        }
    }

    /// Fire all events due at or before the current time.
    pub(crate) fn service_due_events(&mut self) {
        let now = self.cur_cpu_mut().cpu.now;
        while let Some(ev) = self.events.pop_due(now) {
            match ev.kind {
                EventKind::Wake(t) => {
                    self.wake_from_sleep(t, ev.at);
                }
                EventKind::Periodic { thread, interval } => {
                    let alive = self
                        .threads
                        .get(thread.0)
                        .map(|t| !t.is_halted())
                        .unwrap_or(false);
                    if !alive {
                        continue; // probe gone: do not re-arm
                    }
                    let blocked = self
                        .threads
                        .get(thread.0)
                        .map(|t| t.is_blocked())
                        .unwrap_or(false);
                    if blocked {
                        self.wake_from_sleep(thread, ev.at);
                    } else {
                        // Still running or queued from the previous period.
                        self.stats.probe_misses += 1;
                    }
                    self.events
                        .push(ev.at + interval, EventKind::Periodic { thread, interval });
                }
                EventKind::TimesliceEnd { .. } => {
                    // Timeslices are tracked lazily via `slice_end`; any
                    // queued events of this kind are stale.
                }
            }
        }
    }

    /// Timer wake of a blocked thread, recording the wake time for latency
    /// accounting. A timer wake *completes* a pending `thread_sleep` call
    /// (otherwise the atomic restart would simply re-enter the sleep); any
    /// other wait is unlinked and its call restarts from the registers,
    /// exactly as after `thread_interrupt`.
    fn wake_from_sleep(&mut self, t: ThreadId, at: Cycles) {
        let Some(th) = self.threads.get_mut(t.0) else {
            return;
        };
        if !th.is_blocked() {
            return;
        }
        let sleeping_call = matches!(th.state, RunState::Blocked(WaitReason::Sleep))
            && th.inflight == Some(Sys::ThreadSleep);
        // Timer wakes are the "event raised" edge of the kprof
        // preemption-latency probe; written unconditionally (and consumed
        // at dispatch) so the field never influences simulated behavior.
        th.wake_pending = at;
        if sleeping_call {
            // Completion wakes the thread as of now; latency counts from
            // the timer's instant.
            self.complete_blocked(t, ErrorCode::Success);
            if let Some(th) = self.threads.get_mut(t.0) {
                th.woken_at = at;
            }
        } else {
            self.unlink_waiter(t);
            self.make_runnable(t, at);
        }
    }

    /// Whether `t` is blocked for exactly `reason`.
    pub(crate) fn blocked_for(&self, t: ThreadId, reason: WaitReason) -> bool {
        matches!(self.threads.get(t.0), Some(th) if th.state == RunState::Blocked(reason))
    }

    /// Make an (already unlinked) blocked thread runnable.
    pub(crate) fn unblock(&mut self, t: ThreadId) {
        let Some(th) = self.threads.get(t.0) else {
            return;
        };
        debug_assert!(th.is_blocked(), "unblock of non-blocked {t}");
        let now = self.now();
        self.make_runnable(t, now);
    }

    /// The one wake path: put `t`, which is leaving a wait (or has just
    /// had new state installed), on its home run queue as of `at`. Its
    /// registers are already a complete continuation, so every wake is
    /// the same operation whatever its cause: enqueue, unpark an idle
    /// processor to pick the thread up, and request a reschedule if it
    /// outranks a running thread. The caller has unlinked it from any
    /// wait queue and cleared any CPU slot it held.
    pub(crate) fn make_runnable(&mut self, t: ThreadId, at: Cycles) {
        self.probe(Probe::Runnable { thread: t, at });
        let th = self.threads.get_mut(t.0).expect("live thread");
        th.state = RunState::Ready;
        th.woken_at = at;
        let prio = th.priority;
        self.sched_push(t, prio);
        self.probe(Probe::Wake { thread: t });
        self.kick_parked(at);
        self.note_wake_priority(prio);
    }

    /// Set the pending-reschedule flag if a newly runnable thread outranks
    /// the current one.
    fn note_wake_priority(&mut self, prio: u32) {
        // Preempt the busy processor running the lowest-priority thread
        // (uniprocessor: the only one).
        let mut target: Option<(usize, u32)> = None;
        for (i, slot) in self.cpus.iter().enumerate() {
            match slot.current.and_then(|c| self.threads.get(c.0)) {
                Some(th) if target.map(|(_, p)| th.priority < p).unwrap_or(true) => {
                    target = Some((i, th.priority));
                }
                Some(_) => {}
                None if !self.cpu_index.is_parked(i) => {
                    // An unparked idle CPU will pick the thread up itself.
                    return;
                }
                None => {}
            }
        }
        if let Some((i, p)) = target {
            if prio > p {
                self.cpus[i].resched = true;
                if i != self.active {
                    // A cross-CPU reschedule request is an IPI on real
                    // hardware; counted, not separately costed (it rides
                    // the target's next preemption point).
                    self.stats.sched_ipis += 1;
                }
            }
        } else {
            self.cur_cpu_mut().resched = true;
        }
    }

    /// Block the current thread for `reason`; the caller has already
    /// brought its registers to a clean restart point and enqueued it on
    /// the appropriate wait queue.
    pub(crate) fn block_current(&mut self, t: ThreadId, reason: WaitReason) -> SysOutcome {
        let th = self.threads.get_mut(t.0).expect("current thread");
        th.state = RunState::Blocked(reason);
        th.inflight = Sys::from_u32(th.regs.get(fluke_arch::Reg::Eax));
        // In both models a blocked thread's continuation is its registers;
        // the process model's retained stack never carries state across a
        // block (paper §5.1), so nothing else is saved.
        th.kstack_retained = false;
        self.cur_cpu_mut().current = None;
        self.probe(Probe::Block { thread: t, reason });
        self.audit_block_point(t, false);
        SysOutcome::Block
    }

    /// Take an in-kernel preemption at a clean point: the thread stays
    /// runnable. Under the process model its kernel stack is retained, so
    /// the next dispatch skips the re-entry preamble; under the interrupt
    /// model it restarts from its register continuation.
    pub(crate) fn preempt_current_in_kernel(&mut self, t: ThreadId) -> SysOutcome {
        self.probe(Probe::Runnable {
            thread: t,
            at: self.now(),
        });
        let retain = self.cfg.model == ExecModel::Process;
        let th = self.threads.get_mut(t.0).expect("current thread");
        th.state = RunState::Ready;
        th.inflight = Sys::from_u32(th.regs.get(fluke_arch::Reg::Eax));
        th.kstack_retained = retain;
        let prio = th.priority;
        self.sched_push_front_here(t, prio);
        self.cur_cpu_mut().current = None;
        self.cur_cpu_mut().resched = false;
        self.stats.kernel_preemptions += 1;
        self.probe(Probe::KernelPreempt { thread: t });
        self.audit_block_point(t, true);
        SysOutcome::Preempted
    }

    /// Complete a *blocked* thread's system call in place: write the result
    /// code, advance past the trap instruction, and wake it. This is the
    /// user-visible form of "continuation recognition" (paper §2.2): the
    /// kernel finishes the suspended computation by mutating its explicit
    /// state without ever switching to it.
    pub(crate) fn complete_blocked(&mut self, t: ThreadId, code: ErrorCode) {
        // The registers still hold the completed entrypoint and its
        // arguments here. The request ends now, not at the thread's next
        // dispatch.
        self.probe(Probe::Exit {
            thread: t,
            code,
            closes: true,
        });
        let Some(th) = self.threads.get_mut(t.0) else {
            return;
        };
        th.regs.set(fluke_arch::Reg::Eax, code as u32);
        th.regs.eip += 1;
        th.inflight = None;
        th.open_fault = None;
        self.unblock(t);
    }

    /// The wait queue a thread blocked for `reason` is linked on (see
    /// `wait_queue_of!`).
    fn wait_queue(&self, reason: WaitReason) -> Option<&WaitQueue<ThreadId>> {
        wait_queue_of!(self, reason, get)
    }

    /// Unlink a blocked thread from whatever wait bookkeeping holds it.
    /// Its registers remain a complete continuation, so after unlinking it
    /// can be woken (restarting the call) or have new state installed.
    /// Connection-linked waits need no unlinking: the connection state is
    /// consistent with a restart (a pending unaccepted connect stays
    /// queued on the port; the restart finds it again).
    pub(crate) fn unlink_waiter(&mut self, t: ThreadId) {
        let Some(RunState::Blocked(reason)) = self.threads.get(t.0).map(|th| th.state) else {
            return;
        };
        if let Some(q) = wait_queue_of!(self, reason, get_mut, mut) {
            q.cancel(t, &mut self.stats.waitq);
        }
    }

    /// Halt a thread: wake joiners and space/donation waiters, tear down
    /// its connection, release its kernel memory.
    pub(crate) fn halt_thread(&mut self, t: ThreadId) {
        let Some(th) = self.threads.get_mut(t.0) else {
            return;
        };
        if th.is_halted() {
            return;
        }
        if th.is_blocked() {
            self.unlink_waiter(t);
        }
        let th = self.threads.get_mut(t.0).unwrap();
        if th.is_ready() {
            self.sched_remove(t);
        }
        self.clear_running_cpu(t);
        let th = self.threads.get_mut(t.0).unwrap();
        th.state = RunState::Halted;
        let mut joiners = std::mem::take(&mut th.joiners);
        let mut donor_q = std::mem::take(&mut th.donors);
        let conn = th.ipc.conn.take();
        th.ipc.role = None;
        let space = th.space;
        self.probe(Probe::Halt { thread: t });
        self.stats.kmem_delta(-(self.cfg.per_thread_kmem() as i64));
        for j in joiners.drain(&mut self.stats.waitq) {
            self.complete_blocked(j, ErrorCode::Success);
        }
        if let Some(c) = conn {
            self.disconnect(c, ErrorCode::PeerDisconnected);
        }
        // Wake `space_wait_threads` waiters if this was the space's last
        // live thread, and `sched_donate` donors waiting on this thread.
        // Both sets live on wait queues now; the liveness predicate still
        // scans the arena because `space.threads` can go stale across
        // thread-state migration. Wakes are ordered by thread id to match
        // the arena-scan order this replaced.
        if let Some(sid) = space {
            let any_live = self
                .threads
                .iter()
                .any(|(_, x)| x.space == Some(sid) && !x.is_halted());
            if !any_live {
                let mut waiters: Vec<ThreadId> = match self.spaces.get_mut(sid.0) {
                    Some(sp) => sp.idle_waiters.drain(&mut self.stats.waitq),
                    None => Vec::new(),
                };
                waiters.sort_by_key(|w| w.0);
                for w in waiters {
                    self.complete_blocked(w, ErrorCode::Success);
                }
            }
        }
        let mut donors = donor_q.drain(&mut self.stats.waitq);
        donors.sort_by_key(|d| d.0);
        for d in donors {
            self.complete_blocked(d, ErrorCode::Success);
        }
    }

    /// Destroy a thread for a fatal error.
    pub(crate) fn kill_thread(&mut self, t: ThreadId, _reason: &'static str) {
        self.halt_thread(t);
    }
}
