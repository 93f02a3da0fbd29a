//! `kfault`: deterministic adversarial fault injection for the atomic API.
//!
//! The paper's central claim (§2) is that the purely atomic API keeps every
//! thread's complete long-term state extractable — and reinstallable — at
//! *any* instant: the user registers are the whole continuation. The
//! workloads and the §12 auditor only check the interleavings that happen
//! to occur; `kfault` attacks the claim systematically. An armed kernel
//! counts **injection sites** (user-mode instruction boundaries, or syscall
//! dispatch points for [`KfaultKind::Transient`]) and, at exactly one
//! selected site, perturbs execution with one of four adversarial events:
//!
//! * [`KfaultKind::Timer`] — a spurious timer interrupt: a reschedule is
//!   latched at the boundary, exactly as if the timer had fired there.
//! * [`KfaultKind::ExtractRestore`] — the §2 correctness test: the current
//!   thread's state frame is extracted ([`ThreadStateFrame`]), round-tripped
//!   through its serialized word form, the thread's kernel-side incidentals
//!   are destroyed, and the frame is reinstalled; the thread must behave
//!   indistinguishably from one that was never touched.
//! * [`KfaultKind::PageFlush`] — every *re-derivable* translation of the
//!   victim's space is dropped, forcing soft faults (and mid-string-
//!   instruction restarts with done-count semantics) on the next touch.
//! * [`KfaultKind::Transient`] — a simulated transient resource-exhaustion
//!   failure at syscall dispatch; the atomic API makes the call trivially
//!   retryable from its own registers, so the kernel retries it.
//!
//! Everything is deterministic: a site index fully reproduces a
//! perturbation. With the engine disarmed — or armed in count-only mode
//! ([`KfaultConfig::COUNT_ONLY`]) — no simulated state, cycle, or trace
//! byte changes: the blessed golden digests are the proof obligation, the
//! same one `kprof` carries.

use fluke_api::state::ThreadStateFrame;
use fluke_arch::{ProgramId, UserRegs};

use crate::ids::ThreadId;
use crate::kernel::mem::Walk;
use crate::kernel::{Kernel, LockKey};
use crate::probe::Probe;
use crate::thread::{Body, RunState};

/// The four adversarial perturbations `kfault` can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KfaultKind {
    /// Spurious timer interrupt at a user instruction boundary.
    Timer,
    /// Extract → destroy → recreate → restore of the current thread via
    /// its state frame (the paper's §2 correctness test).
    ExtractRestore,
    /// Drop every re-derivable translation of the victim's address space.
    PageFlush,
    /// Transient resource-exhaustion failure at syscall dispatch, retried.
    Transient,
}

impl KfaultKind {
    /// All kinds, in counter-index order.
    pub const ALL: [KfaultKind; 4] = [
        KfaultKind::Timer,
        KfaultKind::ExtractRestore,
        KfaultKind::PageFlush,
        KfaultKind::Transient,
    ];

    /// Stable human-readable name (used in kstat keys and reports).
    pub fn name(self) -> &'static str {
        match self {
            KfaultKind::Timer => "timer",
            KfaultKind::ExtractRestore => "extract_restore",
            KfaultKind::PageFlush => "page_flush",
            KfaultKind::Transient => "transient",
        }
    }

    /// Index into [`crate::kstat::Stats::faults_injected`].
    pub fn index(self) -> usize {
        match self {
            KfaultKind::Timer => 0,
            KfaultKind::ExtractRestore => 1,
            KfaultKind::PageFlush => 2,
            KfaultKind::Transient => 3,
        }
    }
}

/// Static arming of the injection engine: which perturbation, and at which
/// site index it fires. See [`crate::config::Config::with_kfault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KfaultConfig {
    /// The perturbation to inject.
    pub kind: KfaultKind,
    /// Zero-based site index at which to fire (once), or
    /// [`KfaultConfig::COUNT_ONLY`] to count sites without firing.
    pub site: u64,
}

impl KfaultConfig {
    /// Sentinel site index: run every hook, count every site, fire never.
    /// Used to enumerate a workload's site space — and to prove the armed
    /// hooks themselves are zero-perturbation.
    pub const COUNT_ONLY: u64 = u64::MAX;

    /// Fire `kind` at site `site`.
    pub fn at(kind: KfaultKind, site: u64) -> Self {
        KfaultConfig { kind, site }
    }

    /// Count `kind`'s sites without ever firing.
    pub fn count_sites(kind: KfaultKind) -> Self {
        KfaultConfig {
            kind,
            site: Self::COUNT_ONLY,
        }
    }
}

/// Live engine state, owned by the kernel when armed.
#[derive(Debug)]
pub struct Kfault {
    cfg: KfaultConfig,
    sites_seen: u64,
    fired: bool,
}

impl Kfault {
    /// Arm a fresh engine.
    pub(crate) fn new(cfg: KfaultConfig) -> Self {
        Kfault {
            cfg,
            sites_seen: 0,
            fired: false,
        }
    }

    /// The arming configuration.
    pub fn config(&self) -> KfaultConfig {
        self.cfg
    }

    /// Injection sites encountered so far (eligible boundaries for the
    /// armed kind — the sweep driver's site space).
    pub fn sites_seen(&self) -> u64 {
        self.sites_seen
    }

    /// Whether the selected site was reached and the injection fired.
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// Count one site; `true` exactly when this is the selected one.
    fn arm(&mut self) -> bool {
        let idx = self.sites_seen;
        self.sites_seen += 1;
        if !self.fired && idx == self.cfg.site {
            self.fired = true;
            true
        } else {
            false
        }
    }
}

impl Kernel {
    /// The armed `kfault` engine, if any (for sweep drivers to read site
    /// counts and fire status after a run).
    pub fn kfault(&self) -> Option<&Kfault> {
        self.kfault.as_ref()
    }

    /// Run-loop hook at a user-mode instruction boundary, called just
    /// before the current thread executes. Counts the site and fires the
    /// armed boundary perturbation at the selected one. Returns `true`
    /// when this dispatch iteration must be skipped (the victim was pulled
    /// off the CPU, or the perturbation must take effect before any user
    /// instruction runs).
    #[inline]
    pub(crate) fn kfault_boundary(&mut self, cur: ThreadId) -> bool {
        let Some(kf) = self.kfault.as_ref() else {
            return false;
        };
        let kind = kf.cfg.kind;
        if kind == KfaultKind::Transient {
            return false;
        }
        // Only user-body threads are eligible victims: native (in-kernel)
        // threads have no exportable state to attack.
        if !matches!(self.threads.get(cur.0).map(|t| &t.body), Some(Body::User)) {
            return false;
        }
        let kf = self.kfault.as_mut().expect("checked above");
        let site = kf.cfg.site;
        if !kf.arm() {
            return false;
        }
        match kind {
            KfaultKind::Timer => {
                self.inject_timer(cur, site);
                // The latched reschedule must preempt at *this* boundary,
                // before another user instruction runs.
                true
            }
            KfaultKind::ExtractRestore => {
                self.inject_extract_restore(cur, site);
                true
            }
            KfaultKind::PageFlush => {
                self.inject_page_flush(cur, site);
                false
            }
            KfaultKind::Transient => unreachable!("filtered above"),
        }
    }

    /// Dispatch-loop hook at each syscall decode point. At the selected
    /// site, simulates a transient resource-exhaustion failure deep in the
    /// handler: the attempt is abandoned and — because the registers still
    /// hold the complete continuation at dispatch — the kernel retries the
    /// call from scratch. Returns `true` when the decode should be rerun.
    #[inline]
    pub(crate) fn kfault_transient(&mut self, cur: ThreadId) -> bool {
        let Some(kf) = self.kfault.as_mut() else {
            return false;
        };
        if kf.cfg.kind != KfaultKind::Transient {
            return false;
        }
        let site = kf.cfg.site;
        if !kf.arm() {
            return false;
        }
        self.stats.faults_injected[KfaultKind::Transient.index()] += 1;
        self.probe(Probe::Injected {
            thread: cur,
            kind: KfaultKind::Transient,
            site,
        });
        true
    }

    /// Inject a spurious timer interrupt: latch a reschedule exactly as
    /// the timer tick does. The run loop delivers it at this boundary —
    /// requeue if an equal-or-higher-priority thread waits, else a fresh
    /// timeslice.
    fn inject_timer(&mut self, victim: ThreadId, site: u64) {
        self.cur_cpu_mut().resched = true;
        self.stats.faults_injected[KfaultKind::Timer.index()] += 1;
        self.probe(Probe::Injected {
            thread: victim,
            kind: KfaultKind::Timer,
            site,
        });
    }

    /// The §2 correctness test: extract the victim's state frame, round-
    /// trip it through the serialized word form a manager would see,
    /// destroy the thread's kernel-side incidentals, and reinstall the
    /// frame. Mirrors `thread_get_state` + `thread_set_state` semantics
    /// exactly; identity-linked *pair* state (the IPC connection end,
    /// joiners, the object-table backlink) is preserved, because a real
    /// manager checkpoints both ends of a pair wholesale — `kfault` tests
    /// the thread-local claim.
    fn inject_extract_restore(&mut self, victim: ThreadId, site: u64) {
        self.lock(LockKey::Sched);
        // Extraction forces the roll-back-and-restart contract: a retained
        // process-model kernel stack is discarded, so the registers are
        // the complete truth (same rule as `obj_get_state`).
        let frame = {
            let th = self.threads.get_mut(victim.0).expect("current");
            th.kstack_retained = false;
            ThreadStateFrame {
                regs: th.regs,
                program: th.program.unwrap_or(ProgramId(u64::MAX)),
                space_token: th.space_token,
                priority: th.priority,
                runnable: match th.state {
                    RunState::Stopped | RunState::Halted => 0,
                    _ => 1,
                },
                ipc_phase: th.ipc.conn.map(|_| 1).unwrap_or(0),
            }
        };
        let words = frame.to_words();
        let frame = ThreadStateFrame::from_words(&words).expect("own frame round-trips");
        {
            // Destroy: wipe everything the frame does not capture, the way
            // `install_thread_state` discards the target's old state.
            let th = self.threads.get_mut(victim.0).expect("current");
            th.regs = UserRegs::new();
            th.inflight = None;
            th.open_fault = None;
            th.kstack_retained = false;
            th.interrupted = false;
            // Restore: the frame is the complete new truth.
            th.regs = frame.regs;
            th.priority = frame.priority;
            th.state = RunState::Ready;
        }
        self.cur_cpu_mut().current = None;
        self.sched_push(victim, frame.priority);
        let now = self.now();
        // The victim keeps its open span across the round-trip (the frame
        // is the same request's continuation); it just waits to run again.
        self.probe(Probe::Runnable {
            thread: victim,
            at: now,
        });
        self.kick_parked(now);
        self.stats.faults_injected[KfaultKind::ExtractRestore.index()] += 1;
        self.probe(Probe::Injected {
            thread: victim,
            kind: KfaultKind::ExtractRestore,
            site,
        });
        self.unlock(LockKey::Sched);
    }

    /// Drop every translation of the victim's space that the mapping
    /// hierarchy can re-derive, in sorted-vpn order (the page table is a
    /// hash map; iteration order must not leak into behavior). PTEs
    /// installed directly by `grant_pages` have no backing mapping and are
    /// left alone — flushing them would lose memory, not add latency.
    fn inject_page_flush(&mut self, victim: ThreadId, site: u64) {
        let sid_opt = self.threads.get(victim.0).and_then(|t| t.space);
        let key = match sid_opt {
            Some(sid) => LockKey::Space(sid.0),
            None => LockKey::Sched,
        };
        self.lock(key);
        if let Some(sid) = sid_opt {
            let mut vpns: Vec<u32> = self
                .spaces
                .get(sid.0)
                .map(|s| s.pages_iter().map(|(vpn, _)| *vpn).collect())
                .unwrap_or_default();
            vpns.sort_unstable();
            for vpn in vpns {
                let addr = vpn * fluke_api::abi::PAGE_SIZE;
                let Some(pte) = self.spaces.get(sid.0).and_then(|s| s.pte(addr)) else {
                    continue;
                };
                // Conservative predicate: flush only if a fresh walk at
                // the PTE's own permission re-derives the identical
                // translation.
                if let Walk::Soft {
                    frame, writable, ..
                } = self.walk_hierarchy(sid, addr, pte.writable)
                {
                    if frame == pte.frame && writable == pte.writable {
                        if let Some(s) = self.spaces.get_mut(sid.0) {
                            s.unmap_page(addr);
                        }
                    }
                }
            }
            // Remote CPUs running this space may cache the dropped PTEs.
            self.tlb_shootdown(sid);
        }
        self.stats.faults_injected[KfaultKind::PageFlush.index()] += 1;
        self.probe(Probe::Injected {
            thread: victim,
            kind: KfaultKind::PageFlush,
            site,
        });
        self.unlock(key);
    }
}

// --- krec snapshot support ------------------------------------------------

use crate::krec::snap_struct;

snap_struct!(Kfault {
    cfg,
    sites_seen,
    fired,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_are_dense_and_stable() {
        for (i, k) in KfaultKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        let names: Vec<_> = KfaultKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            ["timer", "extract_restore", "page_flush", "transient"]
        );
    }

    #[test]
    fn count_only_never_fires() {
        let mut f = Kfault::new(KfaultConfig::count_sites(KfaultKind::Timer));
        for _ in 0..1000 {
            assert!(!f.arm());
        }
        assert_eq!(f.sites_seen(), 1000);
        assert!(!f.fired());
    }

    #[test]
    fn fires_exactly_once_at_selected_site() {
        let mut f = Kfault::new(KfaultConfig::at(KfaultKind::Transient, 7));
        let fired: Vec<u64> = (0..20u64).filter(|_| f.arm()).collect();
        assert_eq!(fired.len(), 1);
        assert_eq!(f.sites_seen(), 20);
        assert!(f.fired());
        // The 8th arm() call (index 7) is the one that fired.
        let mut g = Kfault::new(KfaultConfig::at(KfaultKind::Transient, 7));
        for i in 0..20u64 {
            assert_eq!(g.arm(), i == 7);
        }
    }
}
