//! `flowcheck` — debug-mode syscall-flow integrity checking.
//!
//! Enforces the [`fluke_api::flow`] graph (derived statically from the
//! `SysDesc` table) against the running kernel, SFIP-style:
//!
//! * **Object lifecycles.** Every *successful* completion of an
//!   object-handle entrypoint updates a host-side shadow map from the
//!   handle's *physical* location (so renames and aliases cannot split
//!   an object's identity) to its lifecycle state. A create over a live
//!   location, a destroy or use of a definitely-absent one, a type
//!   mismatch, or a move onto a live target is recorded as a structured
//!   [`Violation`]. Locations the checker has never witnessed are
//!   *unknown* and never flagged — host-side loaders install objects
//!   without syscalls, so the checker only asserts what it can prove.
//! * **Restart re-entry.** When a call blocks, the dispatched entrypoint
//!   is recorded; when the thread next re-enters the kernel, the
//!   entrypoint in `eax` must lie in [`fluke_api::flow::restart_closure`]
//!   of the recorded one — the only rewrites the atomic API permits on a
//!   blocked thread's continuation.
//!
//! The checker is pure observation: it reads completed registers and
//! translations the kernel already performed, writes only host-side
//! shadow state, and records violations as data (never panics), so a
//! checking kernel is bit-identical to an unchecked one — the same
//! zero-perturbation contract as `krec`/`kfault`.

use std::collections::BTreeMap;

use fluke_api::flow::{flow_op, restart_closure, val_role, FlowOp, ValRole};
use fluke_api::{abi, ErrorCode, ObjType, Sys};

use crate::ids::ThreadId;
use crate::phys::FrameId;
use crate::probe::{Probe, ProbeCx};

/// A physical object location: the frame and in-frame offset a handle's
/// virtual address translates to (object identity per the paper §2).
pub type Loc = (FrameId, u32);

/// Cap on retained [`Violation`] records; the total count keeps
/// incrementing past it ([`Flowcheck::violations_total`]).
pub const MAX_VIOLATIONS: usize = 1024;

/// One recorded flow-integrity violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The offending thread.
    pub thread: ThreadId,
    /// The entrypoint whose completion (or re-entry) violated the graph.
    pub sys: Sys,
    /// The virtual address involved (handle, move target, or 0 for
    /// re-entry violations).
    pub vaddr: u32,
    /// What went wrong.
    pub kind: ViolationKind,
}

/// Classification of a flow-integrity violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A `*_create` succeeded at a location the shadow map knows to be
    /// live with the given type.
    CreateOverLive(ObjType),
    /// A `*_destroy` succeeded at a definitely-absent location.
    DestroyAbsent,
    /// A use succeeded at a definitely-absent location.
    UseAfterDestroy,
    /// The location is live with a different type than the entrypoint
    /// operates on (and not a Reference, which several paths chase).
    TypeConfusion {
        /// The type the entrypoint operates on.
        expected: ObjType,
        /// The type the shadow map holds at the location.
        found: ObjType,
    },
    /// A `*_move` succeeded from a definitely-absent source.
    MoveSourceAbsent,
    /// A `*_move` succeeded onto a location known live with the given
    /// type.
    MoveTargetLive(ObjType),
    /// A thread that blocked while dispatched as `blocked_as` re-entered
    /// the kernel as an entrypoint outside its restart closure.
    IllegalReentry {
        /// The entrypoint dispatched when the thread blocked.
        blocked_as: Sys,
    },
}

/// Shadow lifecycle state of one physical location: `Some(ty)` = live
/// with that type, `None` = definitely absent (witnessed destroy/move).
/// Locations missing from the map entirely are unknown.
type ShadowState = Option<ObjType>;

/// The flow-integrity checker's host-side state (`Config::with_flowcheck`).
#[derive(Debug, Default, Clone)]
pub struct Flowcheck {
    /// Whether checking is enabled (`cfg.flowcheck`).
    pub on: bool,
    /// Shadow lifecycle map, keyed by physical location.
    shadow: BTreeMap<Loc, ShadowState>,
    /// Per-thread entrypoint dispatched at the last block/preempt point,
    /// keyed by thread index; consulted and cleared at re-entry.
    blocked: BTreeMap<u32, Sys>,
    /// Retained violation records (capped at [`MAX_VIOLATIONS`]).
    pub violations: Vec<Violation>,
    /// Total violations observed, including past the retention cap.
    pub violations_total: u64,
    /// Total lifecycle/re-entry checks performed.
    pub checks: u64,
}

impl Flowcheck {
    /// A checker in the given enablement state.
    pub fn new(on: bool) -> Flowcheck {
        Flowcheck {
            on,
            ..Flowcheck::default()
        }
    }

    fn record(&mut self, v: Violation) {
        self.violations_total += 1;
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v);
        }
    }

    /// Check-and-update one lifecycle action at a known location. A move
    /// (`moving`) destroys its source and creates its target, reported
    /// with the move-specific violation kinds.
    fn apply(
        &mut self,
        thread: ThreadId,
        sys: Sys,
        vaddr: u32,
        loc: Loc,
        op: FlowOp,
        moving: bool,
    ) {
        use ViolationKind as V;
        self.checks += 1;
        let kind = match (op, self.shadow.get(&loc).copied()) {
            (FlowOp::Create(_), Some(Some(found))) if moving => Some(V::MoveTargetLive(found)),
            (FlowOp::Create(_), Some(Some(found))) => Some(V::CreateOverLive(found)),
            (FlowOp::Destroy(_), Some(None)) if moving => Some(V::MoveSourceAbsent),
            (FlowOp::Destroy(_), Some(None)) => Some(V::DestroyAbsent),
            (FlowOp::Use(_), Some(None)) => Some(V::UseAfterDestroy),
            // Several handle paths transparently chase Reference objects,
            // so a live Reference satisfies any use.
            (FlowOp::Use(_), Some(Some(ObjType::Reference))) => None,
            (FlowOp::Destroy(expected) | FlowOp::Use(expected), Some(Some(found)))
                if found != expected =>
            {
                Some(V::TypeConfusion { expected, found })
            }
            _ => None,
        };
        if let Some(kind) = kind {
            self.record(Violation {
                thread,
                sys,
                vaddr,
                kind,
            });
        }
        match op {
            FlowOp::Create(ty) => self.shadow.insert(loc, Some(ty)),
            FlowOp::Destroy(_) => self.shadow.insert(loc, None),
            _ => None,
        };
    }
}

impl Flowcheck {
    /// The `flowcheck` consumer of the probe stream: validate re-entry
    /// at syscall entry, apply lifecycle actions at completion, and
    /// remember the dispatched entrypoint at every block or in-kernel
    /// preemption.
    pub(crate) fn observe(&mut self, p: &Probe, cx: &ProbeCx) {
        if !self.on {
            return;
        }
        match *p {
            Probe::Enter { thread, restarting } => self.entry(thread, restarting, cx),
            Probe::Exit { thread, code, .. } => self.exit(thread, code, cx),
            Probe::Block { thread, .. } | Probe::KernelPreempt { thread } => {
                self.note_block(thread, cx.dispatch)
            }
            _ => {}
        }
    }

    /// At syscall completion, while `eax` still names the completed
    /// entrypoint: clear the thread's block record and, on success, apply
    /// the entrypoint's lifecycle actions to the shadow map.
    fn exit(&mut self, t: ThreadId, code: ErrorCode, cx: &ProbeCx) {
        self.blocked.remove(&t.0);
        if code != ErrorCode::Success {
            return;
        }
        let Some(regs) = cx.regs(t) else {
            return;
        };
        let Some(sys) = Sys::from_u32(regs.get(fluke_arch::Reg::Eax)) else {
            return;
        };
        let hv = regs.get(abi::ARG_HANDLE);
        let vv = regs.get(abi::ARG_VAL);
        let (moving, actions) = match flow_op(sys) {
            FlowOp::Other => return,
            // A move vacates its source and occupies its target.
            FlowOp::Move(ty) => (
                true,
                [
                    Some((hv, FlowOp::Destroy(ty))),
                    Some((vv, FlowOp::Create(ty))),
                ],
            ),
            // A secondary object named by the value register
            // (`cond_wait`'s mutex, `*_reference`'s Reference) is a use of
            // that type.
            op => (
                false,
                [
                    Some((hv, op)),
                    match val_role(sys) {
                        ValRole::Object(oty) => Some((vv, FlowOp::Use(oty))),
                        _ => None,
                    },
                ],
            ),
        };
        for (vaddr, op) in actions.into_iter().flatten() {
            if let Some(loc) = cx.translate(t, vaddr) {
                self.apply(t, sys, vaddr, loc, op, moving);
            }
        }
    }

    /// At a block or in-kernel preemption: remember the entrypoint the
    /// audited dispatch of `t` was running, so the next re-entry can be
    /// validated against its restart closure. Outside a dispatch (a
    /// user-mode fault blocking on its keeper) any stale record is
    /// cleared — that wait is not a syscall continuation.
    fn note_block(&mut self, t: ThreadId, dispatch: Option<(ThreadId, Sys)>) {
        match dispatch {
            Some((d, sys)) if d == t => {
                self.blocked.insert(t.0, sys);
            }
            Some(_) => {}
            None => {
                self.blocked.remove(&t.0);
            }
        }
    }

    /// At syscall (re-)entry: a restarting thread with a recorded block
    /// must re-enter inside the recorded entrypoint's restart closure.
    /// Fresh entries clear any stale record.
    fn entry(&mut self, t: ThreadId, restarting: bool, cx: &ProbeCx) {
        if !restarting {
            self.blocked.remove(&t.0);
            return;
        }
        let Some(&orig) = self.blocked.get(&t.0) else {
            return;
        };
        let Some(regs) = cx.regs(t) else {
            return;
        };
        self.checks += 1;
        match Sys::from_u32(regs.get(fluke_arch::Reg::Eax)) {
            Some(sys) if restart_closure(orig).contains(sys) => {}
            reentered => {
                let sys = reentered.unwrap_or(orig);
                self.record(Violation {
                    thread: t,
                    sys,
                    vaddr: 0,
                    kind: ViolationKind::IllegalReentry { blocked_as: orig },
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::kernel::Kernel;
    use fluke_arch::{Reg, UserRegs};

    /// A kernel with one thread whose registers we can stage directly,
    /// so the probes can be driven with outcomes the real (correct)
    /// kernel would never produce — that is exactly what the checker
    /// exists to catch.
    fn staged() -> (Kernel, ThreadId, u32) {
        let mut k = Kernel::new(Config::process_np().with_flowcheck());
        let space = k.create_space();
        let base = 0x0010_0000;
        k.grant_pages(space, base, 0x1000, true);
        let pid = k.register_program(fluke_arch::Assembler::new("noop").finish());
        let t = k.spawn_thread(space, pid, UserRegs::new(), 8);
        (k, t, base)
    }

    fn exit(k: &mut Kernel, thread: ThreadId, code: ErrorCode) {
        k.probe(Probe::Exit {
            thread,
            code,
            closes: false,
        });
    }

    fn enter(k: &mut Kernel, thread: ThreadId, restarting: bool) {
        k.probe(Probe::Enter { thread, restarting });
    }

    /// Block `thread` inside an audited dispatch of `sys`.
    fn block_as(k: &mut Kernel, thread: ThreadId, sys: Sys) {
        k.audit_begin(thread, sys);
        k.probe(Probe::Block {
            thread,
            reason: crate::thread::WaitReason::Sleep,
        });
        k.audit_end();
    }

    fn stage(k: &mut Kernel, t: ThreadId, sys: Sys, handle: u32) {
        let th = k.threads.get_mut(t.0).unwrap();
        th.regs.set(Reg::Eax, sys.num());
        th.regs.set(abi::ARG_HANDLE, handle);
    }

    #[test]
    fn create_over_live_and_use_after_destroy_are_flagged() {
        let (mut k, t, base) = staged();
        // A successful create marks the location live…
        stage(&mut k, t, Sys::MutexCreate, base);
        exit(&mut k, t, ErrorCode::Success);
        assert!(k.flowcheck.violations.is_empty());
        // …so a second successful create at the same location is a
        // lifecycle violation.
        stage(&mut k, t, Sys::MutexCreate, base);
        exit(&mut k, t, ErrorCode::Success);
        assert_eq!(k.flowcheck.violations.len(), 1);
        assert_eq!(
            k.flowcheck.violations[0].kind,
            ViolationKind::CreateOverLive(ObjType::Mutex)
        );
        // Destroy → definitely absent; a *successful* use afterwards is
        // use-after-destroy.
        stage(&mut k, t, Sys::MutexDestroy, base);
        exit(&mut k, t, ErrorCode::Success);
        stage(&mut k, t, Sys::MutexUnlock, base);
        exit(&mut k, t, ErrorCode::Success);
        assert_eq!(k.flowcheck.violations.len(), 2);
        assert_eq!(
            k.flowcheck.violations[1].kind,
            ViolationKind::UseAfterDestroy
        );
        // Failed completions assert nothing.
        stage(&mut k, t, Sys::MutexUnlock, base);
        exit(&mut k, t, ErrorCode::InvalidHandle);
        assert_eq!(k.flowcheck.violations_total, 2);
    }

    #[test]
    fn type_confusion_is_flagged_but_references_pass() {
        let (mut k, t, base) = staged();
        stage(&mut k, t, Sys::CondCreate, base);
        exit(&mut k, t, ErrorCode::Success);
        // Using a Cond location through a Mutex entrypoint succeeded:
        // type confusion.
        stage(&mut k, t, Sys::MutexUnlock, base);
        exit(&mut k, t, ErrorCode::Success);
        assert_eq!(
            k.flowcheck.violations[0].kind,
            ViolationKind::TypeConfusion {
                expected: ObjType::Mutex,
                found: ObjType::Cond
            }
        );
        // A live Reference satisfies any use (handle paths chase refs).
        stage(&mut k, t, Sys::RefCreate, base + 0x20);
        exit(&mut k, t, ErrorCode::Success);
        stage(&mut k, t, Sys::MutexUnlock, base + 0x20);
        exit(&mut k, t, ErrorCode::Success);
        assert_eq!(k.flowcheck.violations_total, 1);
    }

    #[test]
    fn illegal_reentry_outside_restart_closure_is_flagged() {
        let (mut k, t, _) = staged();
        // Thread blocked while dispatched as cond_wait; its restart
        // closure is {cond_wait, mutex_lock}.
        block_as(&mut k, t, Sys::CondWait);
        // Re-entering as mutex_lock is the legal atomic-API rewrite…
        k.threads
            .get_mut(t.0)
            .unwrap()
            .regs
            .set(Reg::Eax, Sys::MutexLock.num());
        enter(&mut k, t, true);
        assert!(k.flowcheck.violations.is_empty());
        // …but re-entering as sys_null is not.
        block_as(&mut k, t, Sys::CondWait);
        k.threads
            .get_mut(t.0)
            .unwrap()
            .regs
            .set(Reg::Eax, Sys::SysNull.num());
        enter(&mut k, t, true);
        assert_eq!(
            k.flowcheck.violations[0].kind,
            ViolationKind::IllegalReentry {
                blocked_as: Sys::CondWait
            }
        );
        // A fresh (non-restarting) entry clears any stale record.
        block_as(&mut k, t, Sys::CondWait);
        enter(&mut k, t, false);
        enter(&mut k, t, true);
        assert_eq!(k.flowcheck.violations_total, 1);
    }

    #[test]
    fn move_tracks_source_and_target() {
        let (mut k, t, base) = staged();
        stage(&mut k, t, Sys::MutexCreate, base);
        exit(&mut k, t, ErrorCode::Success);
        // Successful move: source becomes absent, target live.
        let th = k.threads.get_mut(t.0).unwrap();
        th.regs.set(Reg::Eax, Sys::MutexMove.num());
        th.regs.set(abi::ARG_HANDLE, base);
        th.regs.set(abi::ARG_VAL, base + 0x40);
        exit(&mut k, t, ErrorCode::Success);
        assert!(k.flowcheck.violations.is_empty());
        // The vacated source can be re-created; the occupied target
        // cannot be moved onto again.
        stage(&mut k, t, Sys::MutexCreate, base);
        exit(&mut k, t, ErrorCode::Success);
        let th = k.threads.get_mut(t.0).unwrap();
        th.regs.set(Reg::Eax, Sys::MutexMove.num());
        th.regs.set(abi::ARG_HANDLE, base);
        th.regs.set(abi::ARG_VAL, base + 0x40);
        exit(&mut k, t, ErrorCode::Success);
        assert_eq!(
            k.flowcheck.violations[0].kind,
            ViolationKind::MoveTargetLive(ObjType::Mutex)
        );
    }
}
