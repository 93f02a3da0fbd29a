//! Syscall-flow integrity graph, derived statically from [`SYSCALLS`].
//!
//! In the spirit of SFIP (syscall-flow-integrity protection), the
//! [`SysDesc`](crate::SysDesc) table already fixes, for every entrypoint,
//! everything a lifecycle checker needs to know *without reading handler
//! code*:
//!
//! * which entrypoints create, destroy, rename, or merely use an object
//!   of each of the nine primitive types ([`flow_op`]) — the common-op
//!   rows carry it explicitly, and the type-specific rows inherit their
//!   family's object type whenever they take a handle argument;
//! * which secondary argument registers *also* name objects
//!   ([`val_role`]) — `cond_wait`'s mutex, `*_move`'s target address,
//!   `*_reference`'s Reference object;
//! * which entrypoints a blocked call may legally re-enter as
//!   ([`continuations`] / [`restart_closure`]) — the `restart_target`
//!   column plus the multi-stage IPC stage-advance rewrites, which are
//!   themselves derivable from the table (a blocked *send* whose
//!   transfer completes continues as the corresponding *receive-more*
//!   restart point, and a server send may park back into its wait loop).
//!
//! [`FlowGraph::derive`] folds the first two views into an explicit
//! per-type lifecycle automaton (Absent ⇄ Live with self-loop uses),
//! which the kernel's `flowcheck` debug checker enforces at run time and
//! the `kfuzz` fuzzer actively tries to escape.

use crate::objtype::ObjType;
use crate::sysnum::{ArgRegs, CommonOp, Family, Sys, SYSCALLS, SYSCALL_COUNT};

/// How an entrypoint acts on the object its handle register names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowOp {
    /// Creates an object of the given type at the handle address
    /// (legal only while the location is Absent).
    Create(ObjType),
    /// Destroys the named object (legal only while Live with this type).
    Destroy(ObjType),
    /// Renames the object from the handle address to the `edx` address
    /// (source must be Live with this type, target Absent).
    Move(ObjType),
    /// Uses the named object without changing its lifecycle state
    /// (legal while Live with this type, or via a Live Reference —
    /// several handle paths chase Reference objects transparently).
    Use(ObjType),
    /// No object-lifecycle meaning for the handle register (no handle,
    /// non-object family, or — like `region_search` — a handle that
    /// selects a Space rather than naming a family object).
    Other,
}

/// What the `edx` value register names, beyond plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValRole {
    /// Plain scalar data (the default).
    Data,
    /// The destination virtual address of a `*_move` rename (must be
    /// Absent; becomes Live with the moved object's type).
    MoveTarget,
    /// A second object handle of the given type (`cond_wait`'s mutex,
    /// `ref_compare`'s and `*_reference`'s Reference).
    Object(ObjType),
}

/// The lifecycle action `sys` performs on the object named by its
/// handle register (`ebx`), derived entirely from the [`SYSCALLS`] row:
/// common-op rows map their op directly; type-specific rows with a
/// handle argument are uses of their family's object type.
/// `region_search` is the one handle-bearing exception — its handle
/// selects a Space (or 0 for the caller's own), not a Region.
pub fn flow_op(sys: Sys) -> FlowOp {
    let d = sys.desc();
    let Some(ty) = d.family.obj_type() else {
        return FlowOp::Other;
    };
    if sys == Sys::RegionSearch {
        return FlowOp::Other;
    }
    match d.common_op {
        Some(CommonOp::Create) => FlowOp::Create(ty),
        Some(CommonOp::Destroy) => FlowOp::Destroy(ty),
        Some(CommonOp::Move) => FlowOp::Move(ty),
        Some(CommonOp::GetState) | Some(CommonOp::SetState) | Some(CommonOp::Reference) => {
            FlowOp::Use(ty)
        }
        None => {
            if d.args.contains(ArgRegs::HANDLE) {
                FlowOp::Use(ty)
            } else {
                FlowOp::Other
            }
        }
    }
}

/// The object-naming role of the `edx` value register of `sys`:
/// `*_move` carries the rename target, `*_reference` and `ref_compare`
/// carry a Reference handle, and `cond_wait` carries the associated
/// mutex. Everything else treats `edx` as data.
pub fn val_role(sys: Sys) -> ValRole {
    match sys.common_op() {
        Some(CommonOp::Move) => return ValRole::MoveTarget,
        Some(CommonOp::Reference) => return ValRole::Object(ObjType::Reference),
        _ => {}
    }
    match sys {
        Sys::CondWait => ValRole::Object(ObjType::Mutex),
        Sys::RefCompare => ValRole::Object(ObjType::Reference),
        _ => ValRole::Data,
    }
}

/// A set of entrypoints as a bitmask (the table has 108 rows, so a
/// `u128` covers it; compile-time checked below).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SysSet(pub u128);

const _: () = assert!(SYSCALL_COUNT <= 128, "SysSet requires <= 128 entrypoints");

impl SysSet {
    /// The empty set.
    pub const EMPTY: SysSet = SysSet(0);

    /// Insert an entrypoint; returns true if it was newly added.
    pub fn insert(&mut self, s: Sys) -> bool {
        let bit = 1u128 << s.num();
        let added = self.0 & bit == 0;
        self.0 |= bit;
        added
    }

    /// Membership test.
    pub fn contains(self, s: Sys) -> bool {
        self.0 & (1u128 << s.num()) != 0
    }

    /// Number of entrypoints in the set.
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// True when the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate members in entrypoint-number order.
    pub fn iter(self) -> impl Iterator<Item = Sys> {
        (0..SYSCALL_COUNT as u32)
            .filter_map(Sys::from_u32)
            .filter(move |s| self.contains(*s))
    }
}

/// The entrypoints a *blocked* instance of `sys` may next be observed
/// re-entering as — the one-step continuation edges:
///
/// * its [`Sys::restart_target`] (every blocked call parks with its
///   restart continuation, or with itself before the first commit);
/// * for multi-stage IPC *sends*, the stage-advance rewrites the pump
///   applies to a still-blocked thread when its transfer completes:
///   a client send whose message is consumed continues as
///   `ipc_client_receive_more` (awaiting the reply), and a server send
///   continues as `ipc_server_receive_more` or parks back into
///   `ipc_server_wait_receive` when the connection ends.
///
/// These stage edges are derivable from the table alone: they apply
/// exactly to the `Ipc`-family rows that read a send buffer (`esi`),
/// keyed by their client/server side.
pub fn continuations(sys: Sys) -> SysSet {
    let d = sys.desc();
    let mut out = SysSet::EMPTY;
    out.insert(d.restart_target);
    if d.family == Family::Ipc && d.args.contains(ArgRegs::SBUF) {
        if d.name.starts_with("ipc_client") {
            out.insert(Sys::IpcClientReceiveMore);
        } else if d.name.starts_with("ipc_server") {
            out.insert(Sys::IpcServerReceiveMore);
            out.insert(Sys::IpcServerWaitReceive);
        }
    }
    out
}

/// The reflexive-transitive closure of [`continuations`]: every
/// entrypoint a call that blocked while dispatched as `sys` may ever
/// legally re-enter as, across any number of stage advances while
/// blocked. The kernel's flowcheck re-entry rule is exactly membership
/// in this set.
pub fn restart_closure(sys: Sys) -> SysSet {
    let mut closed = SysSet::EMPTY;
    closed.insert(sys);
    let mut frontier = vec![sys];
    while let Some(s) = frontier.pop() {
        for next in continuations(s).iter() {
            if closed.insert(next) {
                frontier.push(next);
            }
        }
    }
    closed
}

/// One edge of a per-type lifecycle automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifeEdge {
    /// The entrypoint that takes the edge.
    pub via: Sys,
    /// Whether the location must be Live (true) or Absent (false)
    /// before the call.
    pub from_live: bool,
    /// Whether the location is Live after a successful call.
    pub to_live: bool,
}

/// The derived lifecycle automaton of one primitive object type.
#[derive(Debug, Clone)]
pub struct TypeFlow {
    /// The object type.
    pub ty: ObjType,
    /// Its `*_create` entrypoint (Absent → Live).
    pub create: Sys,
    /// Its `*_destroy` entrypoint (Live → Absent).
    pub destroy: Sys,
    /// Its `*_move` entrypoint (Live at source → Live at target).
    pub mv: Sys,
    /// Every entrypoint that uses a Live object of this type via its
    /// handle register without changing its lifecycle state.
    pub uses: Vec<Sys>,
    /// The full edge list (create, destroy, and use self-loops).
    pub edges: Vec<LifeEdge>,
}

/// The complete syscall-flow graph: one lifecycle automaton per
/// primitive object type, derived from [`SYSCALLS`] alone.
#[derive(Debug, Clone)]
pub struct FlowGraph {
    /// One automaton per object type, in [`ObjType::ALL`] order.
    pub types: Vec<TypeFlow>,
}

impl FlowGraph {
    /// Derive the graph from the entrypoint table.
    pub fn derive() -> FlowGraph {
        let mut types = Vec::new();
        for &ty in ObjType::ALL.iter() {
            let mut create = None;
            let mut destroy = None;
            let mut mv = None;
            let mut uses = Vec::new();
            let mut edges = Vec::new();
            for d in SYSCALLS {
                match flow_op(d.sys) {
                    FlowOp::Create(t) if t == ty => {
                        create = Some(d.sys);
                        edges.push(LifeEdge {
                            via: d.sys,
                            from_live: false,
                            to_live: true,
                        });
                    }
                    FlowOp::Destroy(t) if t == ty => {
                        destroy = Some(d.sys);
                        edges.push(LifeEdge {
                            via: d.sys,
                            from_live: true,
                            to_live: false,
                        });
                    }
                    FlowOp::Move(t) if t == ty => {
                        mv = Some(d.sys);
                        // At the handle address a successful move is
                        // Live → Absent; the Live target is the edx
                        // address (see `ValRole::MoveTarget`).
                        edges.push(LifeEdge {
                            via: d.sys,
                            from_live: true,
                            to_live: false,
                        });
                    }
                    FlowOp::Use(t) if t == ty => {
                        uses.push(d.sys);
                        edges.push(LifeEdge {
                            via: d.sys,
                            from_live: true,
                            to_live: true,
                        });
                    }
                    _ => {}
                }
            }
            types.push(TypeFlow {
                ty,
                create: create.expect("every type has a create row"),
                destroy: destroy.expect("every type has a destroy row"),
                mv: mv.expect("every type has a move row"),
                uses,
                edges,
            });
        }
        FlowGraph { types }
    }

    /// The automaton for one object type.
    pub fn for_type(&self, ty: ObjType) -> &TypeFlow {
        self.types
            .iter()
            .find(|t| t.ty == ty)
            .expect("all types derived")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_type_has_create_destroy_move_and_uses() {
        let g = FlowGraph::derive();
        assert_eq!(g.types.len(), 9);
        for tf in &g.types {
            assert_eq!(tf.create.common_op(), Some(CommonOp::Create));
            assert_eq!(tf.destroy.common_op(), Some(CommonOp::Destroy));
            assert_eq!(tf.mv.common_op(), Some(CommonOp::Move));
            assert_eq!(tf.create.family().obj_type(), Some(tf.ty));
            // get_state / set_state / reference are always uses.
            assert!(tf.uses.len() >= 3, "{:?}", tf.ty);
            for u in &tf.uses {
                assert_eq!(flow_op(*u), FlowOp::Use(tf.ty));
            }
        }
        // Spot-check the derived use sets against the hand-known API.
        let mutex = g.for_type(ObjType::Mutex);
        assert!(mutex.uses.contains(&Sys::MutexLock));
        assert!(mutex.uses.contains(&Sys::MutexTrylock));
        assert!(mutex.uses.contains(&Sys::MutexUnlock));
        let region = g.for_type(ObjType::Region);
        assert!(region.uses.contains(&Sys::RegionPopulate));
        assert!(
            !region.uses.contains(&Sys::RegionSearch),
            "region_search's handle selects a Space, not a Region"
        );
    }

    #[test]
    fn flow_op_classifies_the_whole_table() {
        let mut creates = 0;
        let mut destroys = 0;
        let mut moves = 0;
        let mut uses = 0;
        let mut others = 0;
        for d in SYSCALLS {
            match flow_op(d.sys) {
                FlowOp::Create(_) => creates += 1,
                FlowOp::Destroy(_) => destroys += 1,
                FlowOp::Move(_) => moves += 1,
                FlowOp::Use(_) => uses += 1,
                FlowOp::Other => others += 1,
            }
        }
        assert_eq!((creates, destroys, moves), (9, 9, 9));
        // All Ipc/Misc rows, the no-handle rows (thread_self, sys_null,
        // thread_sleep, …) and region_search are Other; everything else
        // with a handle is a Use.
        assert_eq!(creates + destroys + moves + uses + others, SYSCALL_COUNT);
        assert!(uses >= 27 + 14, "54 common rows minus c/d/m plus specifics");
        assert_eq!(flow_op(Sys::RegionSearch), FlowOp::Other);
        assert_eq!(flow_op(Sys::SysStats), FlowOp::Other);
        assert_eq!(flow_op(Sys::ThreadSelf), FlowOp::Other);
        assert_eq!(flow_op(Sys::SchedDonate), FlowOp::Use(ObjType::Thread));
        assert_eq!(flow_op(Sys::PsetWait), FlowOp::Use(ObjType::Portset));
    }

    #[test]
    fn val_roles_name_secondary_objects() {
        assert_eq!(val_role(Sys::MutexMove), ValRole::MoveTarget);
        assert_eq!(val_role(Sys::SpaceMove), ValRole::MoveTarget);
        assert_eq!(
            val_role(Sys::MutexReference),
            ValRole::Object(ObjType::Reference)
        );
        assert_eq!(val_role(Sys::CondWait), ValRole::Object(ObjType::Mutex));
        assert_eq!(
            val_role(Sys::RefCompare),
            ValRole::Object(ObjType::Reference)
        );
        assert_eq!(val_role(Sys::MutexLock), ValRole::Data);
        assert_eq!(val_role(Sys::RegionProtect), ValRole::Data);
    }

    #[test]
    fn closures_are_closed_and_match_the_paper_examples() {
        for d in SYSCALLS {
            let c = restart_closure(d.sys);
            assert!(c.contains(d.sys), "{} reflexive", d.name);
            assert!(c.contains(d.restart_target), "{} restart edge", d.name);
            // Closedness: one more step adds nothing.
            for s in c.iter() {
                for n in continuations(s).iter() {
                    assert!(c.contains(n), "{} not closed via {}", d.name, s.name());
                }
            }
            // Non-blocking calls only ever restart as themselves.
            if !d.may_block {
                assert_eq!(c.len(), 1, "{}", d.name);
            }
        }
        // §4.3 worked example: cond_wait sleeps as mutex_lock.
        let cw = restart_closure(Sys::CondWait);
        assert!(cw.contains(Sys::MutexLock));
        assert_eq!(cw.len(), 2, "cond_wait and mutex_lock only");
        // A combined client send-over-receive spans both halves.
        let c = restart_closure(Sys::IpcClientSendOverReceive);
        assert!(c.contains(Sys::IpcClientSendMore));
        assert!(c.contains(Sys::IpcClientReceiveMore));
        assert!(!c.contains(Sys::IpcServerReceiveMore));
        // A server reply-and-wait can park back into its wait loop.
        let s = restart_closure(Sys::IpcServerSendWaitReceive);
        assert!(s.contains(Sys::IpcServerSendMore));
        assert!(s.contains(Sys::IpcServerReceiveMore));
        assert!(s.contains(Sys::IpcServerWaitReceive));
        // Oneway sends never cross into the reliable family.
        let o = restart_closure(Sys::IpcSendOneway);
        assert_eq!(o.len(), 2);
        assert!(o.contains(Sys::IpcSendOnewayMore));
    }

    #[test]
    fn sysset_basics() {
        let mut s = SysSet::EMPTY;
        assert!(s.is_empty());
        assert!(s.insert(Sys::MutexLock));
        assert!(!s.insert(Sys::MutexLock));
        assert!(s.insert(Sys::CondWait));
        assert_eq!(s.len(), 2);
        assert!(s.contains(Sys::CondWait));
        assert!(!s.contains(Sys::SysNull));
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![Sys::MutexLock, Sys::CondWait]);
    }
}
