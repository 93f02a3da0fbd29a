//! System-call dispatch and all non-IPC handlers.
//!
//! Dispatch is *data-driven*: a `const` table ([`HANDLERS`]) indexed by
//! entrypoint number maps every row of [`fluke_api::SYSCALLS`] to its
//! handler function. The 54 common-object-operation rows (9 types × 6
//! operations) share a single handler that decodes the operation and
//! object type from the entrypoint's [`fluke_api::SysDesc`] row instead
//! of being hand-matched.
//!
//! Handler discipline (the atomic-API author contract, paper §4):
//!
//! 1. Read arguments and resolve handles first — these may fault, roll back
//!    and restart, but they never modify registers.
//! 2. Bring the registers to the next clean restart point *before* any
//!    operation that can block or take an indefinite time.
//! 3. Write results only at completion (`Done`), or by advancing parameter
//!    registers in place at committed progress points.
//!
//! Rule 2 is machine-checked: handlers touch registers only through the
//! [`SysCtx`] they are handed, which keeps the committed-snapshot
//! bookkeeping the atomicity auditor verifies at every block point.

use fluke_api::abi::{self, ARG_COUNT, ARG_HANDLE, ARG_RBUF, ARG_SBUF, ARG_VAL};
use fluke_api::state::{ObjStateFrame, ThreadStateFrame};
use fluke_api::{CommonOp, ErrorCode, ObjType, Sys, SYSCALLS, SYSCALL_COUNT};
use fluke_arch::{ProgramId, Reg};

use crate::config::Preemption;
use crate::ids::{ObjId, ThreadId};
use crate::object::ObjData;
use crate::probe::Probe;
use crate::thread::{IpcRole, RunState, WaitReason};

use super::ipc::AfterSend;
use super::{Kernel, SysCtx, SysOutcome, SysResult};

/// One system-call handler: a row of [`HANDLERS`]. Handlers receive the
/// kernel and the dispatch context; every register access and every
/// block/yield decision goes through the [`SysCtx`].
type Handler = fn(&mut Kernel, &mut SysCtx) -> SysResult;

/// Thin handler functions binding table rows to their implementations
/// (and their row-specific parameters, e.g. the after-send continuation
/// of the server send family).
macro_rules! handlers {
    ($(fn $name:ident($k:ident, $cx:ident) $body:block)*) => {
        $(fn $name($k: &mut Kernel, $cx: &mut SysCtx) -> SysResult $body)*
    };
}

handlers! {
    // The 54 common-object-operation rows share one handler: operation
    // and object type come from the table, not a hand-written match.
    fn h_obj_common(k, cx) {
        let op = cx.sys.common_op().expect("common-op table row");
        let ty = cx.sys.family().obj_type().expect("object family");
        match op {
            CommonOp::Create => k.obj_create(cx, ty),
            CommonOp::Destroy => k.obj_destroy(cx, ty),
            CommonOp::GetState => k.obj_get_state(cx, ty),
            CommonOp::SetState => k.obj_set_state(cx, ty),
            CommonOp::Move => k.obj_move(cx, ty),
            CommonOp::Reference => k.obj_reference(cx, ty),
        }
    }

    // Synchronization.
    fn h_mutex_lock(k, cx) { k.sys_mutex_lock(cx) }
    fn h_mutex_trylock(k, cx) { k.sys_mutex_trylock(cx) }
    fn h_mutex_unlock(k, cx) { k.sys_mutex_unlock(cx) }
    fn h_cond_wait(k, cx) { k.sys_cond_wait(cx) }
    fn h_cond_signal(k, cx) { k.sys_cond_signal(cx) }
    fn h_cond_broadcast(k, cx) { k.sys_cond_broadcast(cx) }

    // Threads and scheduling.
    fn h_thread_self(k, cx) { k.sys_thread_self(cx) }
    fn h_thread_interrupt(k, cx) { k.sys_thread_interrupt(cx) }
    fn h_thread_schedule(k, cx) { k.sys_thread_schedule(cx) }
    fn h_thread_wait(k, cx) { k.sys_thread_wait(cx) }
    fn h_thread_sleep(k, cx) { k.sys_thread_sleep(cx) }
    fn h_space_wait_threads(k, cx) { k.sys_space_wait_threads(cx) }
    fn h_sched_donate(k, cx) { k.sys_sched_donate(cx) }

    // Miscellaneous trivial calls.
    fn h_sys_null(_k, _cx) { Ok(SysOutcome::Done(ErrorCode::Success)) }
    fn h_sys_version(k, cx) {
        cx.set_reg(k, ARG_VAL, 0x0001_0000);
        Ok(SysOutcome::Done(ErrorCode::Success))
    }
    fn h_sys_clock(k, cx) {
        let us = fluke_arch::cycles_to_us(k.now()) as u32;
        cx.set_reg(k, ARG_VAL, us);
        Ok(SysOutcome::Done(ErrorCode::Success))
    }
    fn h_sys_cpu_id(k, cx) {
        cx.set_reg(k, ARG_VAL, 0);
        Ok(SysOutcome::Done(ErrorCode::Success))
    }
    fn h_sys_yield(k, _cx) {
        k.cur_cpu_mut().resched = true;
        Ok(SysOutcome::Done(ErrorCode::Success))
    }
    fn h_sys_trace(k, cx) {
        let v = cx.arg(k, ARG_VAL);
        k.probe(Probe::Mark {
            thread: cx.t,
            value: v,
        });
        Ok(SysOutcome::Done(ErrorCode::Success))
    }
    fn h_sys_stats(k, cx) { k.sys_stats(cx) }

    // Memory.
    fn h_region_protect(k, cx) { k.sys_region_protect(cx) }
    fn h_mapping_protect(k, cx) { k.sys_mapping_protect(cx) }
    fn h_region_populate(k, cx) { k.sys_region_populate(cx) }
    fn h_region_search(k, cx) { k.sys_region_search(cx) }
    fn h_ref_compare(k, cx) { k.sys_ref_compare(cx) }

    // Ports (server-side waits without data).
    fn h_port_wait(k, cx) { k.sys_port_wait(cx) }
    fn h_pset_wait(k, cx) { k.sys_pset_wait(cx) }

    // IPC (implementations in ipc.rs).
    fn h_ipc_client_connect(k, cx) { k.sys_ipc_client_connect(cx) }
    fn h_ipc_client_connect_send(k, cx) { k.sys_ipc_client_connect_send(cx, false) }
    fn h_ipc_client_connect_send_over_receive(k, cx) { k.sys_ipc_client_connect_send(cx, true) }
    fn h_ipc_client_send(k, cx) { k.sys_ipc_client_send(cx, false) }
    fn h_ipc_client_send_over_receive(k, cx) { k.sys_ipc_client_send(cx, true) }
    fn h_ipc_client_send_more(k, cx) { k.sys_ipc_send_more(cx, IpcRole::Client) }
    fn h_ipc_client_receive(k, cx) { k.sys_ipc_receive(cx, IpcRole::Client, false) }
    fn h_ipc_client_receive_more(k, cx) { k.sys_ipc_receive(cx, IpcRole::Client, true) }
    fn h_ipc_client_disconnect(k, cx) { k.sys_ipc_disconnect(cx, IpcRole::Client) }
    fn h_ipc_client_alert(k, cx) { k.sys_ipc_alert(cx, IpcRole::Client) }
    fn h_ipc_server_wait_receive(k, cx) { k.sys_ipc_server_wait_receive(cx) }
    fn h_ipc_server_receive(k, cx) { k.sys_ipc_receive(cx, IpcRole::Server, false) }
    fn h_ipc_server_receive_more(k, cx) { k.sys_ipc_receive(cx, IpcRole::Server, true) }
    fn h_ipc_server_send(k, cx) { k.sys_ipc_server_send(cx, AfterSend::Complete) }
    fn h_ipc_server_send_wait_receive(k, cx) { k.sys_ipc_server_send(cx, AfterSend::WaitNext) }
    fn h_ipc_server_ack_send(k, cx) { k.sys_ipc_server_send(cx, AfterSend::Disconnect) }
    fn h_ipc_server_ack_send_wait_receive(k, cx) {
        k.sys_ipc_server_send(cx, AfterSend::DisconnectThenWait)
    }
    fn h_ipc_server_send_over_receive(k, cx) { k.sys_ipc_server_send(cx, AfterSend::Receive) }
    fn h_ipc_server_send_more(k, cx) { k.sys_ipc_send_more(cx, IpcRole::Server) }
    fn h_ipc_server_disconnect(k, cx) { k.sys_ipc_disconnect(cx, IpcRole::Server) }
    fn h_ipc_server_alert(k, cx) { k.sys_ipc_alert(cx, IpcRole::Server) }
    fn h_ipc_send_oneway(k, cx) { k.sys_ipc_oneway(cx, true, true) }
    fn h_ipc_wait_receive_oneway(k, cx) { k.sys_ipc_oneway(cx, false, true) }
    fn h_ipc_receive_oneway(k, cx) { k.sys_ipc_oneway(cx, false, false) }
    fn h_ipc_submit(k, cx) { k.sys_ipc_submit(cx) }
}

/// Map a table row to its handler. Evaluated at compile time to build
/// [`HANDLERS`]; the catch-all covers exactly the 54 common-op rows
/// (any future non-common entrypoint routed there trips
/// `h_obj_common`'s decode `expect`, which the test suite exercises for
/// every row).
const fn handler_for(sys: Sys) -> Handler {
    use Sys::*;
    match sys {
        MutexLock => h_mutex_lock,
        MutexTrylock => h_mutex_trylock,
        MutexUnlock => h_mutex_unlock,
        CondWait => h_cond_wait,
        CondSignal => h_cond_signal,
        CondBroadcast => h_cond_broadcast,
        ThreadSelf => h_thread_self,
        ThreadInterrupt => h_thread_interrupt,
        ThreadSchedule => h_thread_schedule,
        ThreadWait => h_thread_wait,
        ThreadSleep => h_thread_sleep,
        SpaceWaitThreads => h_space_wait_threads,
        SchedDonate => h_sched_donate,
        SysNull => h_sys_null,
        SysVersion => h_sys_version,
        SysClock => h_sys_clock,
        SysCpuId => h_sys_cpu_id,
        SysYield => h_sys_yield,
        SysTrace => h_sys_trace,
        SysStats => h_sys_stats,
        RegionProtect => h_region_protect,
        MappingProtect => h_mapping_protect,
        RegionPopulate => h_region_populate,
        RegionSearch => h_region_search,
        RefCompare => h_ref_compare,
        PortWait => h_port_wait,
        PsetWait => h_pset_wait,
        IpcClientConnect => h_ipc_client_connect,
        IpcClientConnectSend => h_ipc_client_connect_send,
        IpcClientConnectSendOverReceive => h_ipc_client_connect_send_over_receive,
        IpcClientSend => h_ipc_client_send,
        IpcClientSendOverReceive => h_ipc_client_send_over_receive,
        IpcClientSendMore => h_ipc_client_send_more,
        IpcClientReceive | IpcClientAckReceive => h_ipc_client_receive,
        IpcClientReceiveMore => h_ipc_client_receive_more,
        IpcClientDisconnect => h_ipc_client_disconnect,
        IpcClientAlert => h_ipc_client_alert,
        IpcServerWaitReceive => h_ipc_server_wait_receive,
        IpcServerReceive => h_ipc_server_receive,
        IpcServerReceiveMore => h_ipc_server_receive_more,
        IpcServerSend => h_ipc_server_send,
        IpcServerSendWaitReceive => h_ipc_server_send_wait_receive,
        IpcServerAckSend => h_ipc_server_ack_send,
        IpcServerAckSendWaitReceive => h_ipc_server_ack_send_wait_receive,
        IpcServerSendOverReceive => h_ipc_server_send_over_receive,
        IpcServerSendMore => h_ipc_server_send_more,
        IpcServerDisconnect => h_ipc_server_disconnect,
        IpcServerAlert => h_ipc_server_alert,
        IpcSendOneway | IpcSendOnewayMore => h_ipc_send_oneway,
        IpcWaitReceiveOneway => h_ipc_wait_receive_oneway,
        IpcReceiveOneway => h_ipc_receive_oneway,
        IpcSubmit => h_ipc_submit,
        _ => h_obj_common,
    }
}

/// The dispatch table: one handler per entrypoint, indexed by number.
const HANDLERS: [Handler; SYSCALL_COUNT] = {
    let mut tab = [h_obj_common as Handler; SYSCALL_COUNT];
    let mut i = 0;
    while i < SYSCALL_COUNT {
        tab[i] = handler_for(SYSCALLS[i].sys);
        i += 1;
    }
    tab
};

impl Kernel {
    /// Dispatch one system call: look the entrypoint up in the handler
    /// table and run it under the dispatch context.
    pub(crate) fn dispatch_sys(&mut self, cx: &mut SysCtx) -> SysResult {
        HANDLERS[cx.sys.num() as usize](self, cx)
    }

    // ------------------------------------------------------------------
    // Common object operations.
    // ------------------------------------------------------------------

    /// `*_create(ebx=vaddr, ...)`: create an object of `ty` at `vaddr` in
    /// the caller's space. The page must be mapped and writable (objects
    /// occupy application memory).
    /// A region/mapping window `[base, base+size)` is valid iff it is
    /// non-empty and its last byte fits in the 32-bit address space.
    /// Enforced wherever geometry enters the kernel (create and
    /// state-install), so the page-range walks downstream can assume
    /// `base + size - 1` never wraps.
    fn valid_window(base: u32, size: u32) -> bool {
        size != 0 && base.checked_add(size - 1).is_some()
    }

    fn obj_create(&mut self, cx: &mut SysCtx, ty: ObjType) -> SysResult {
        let t = cx.t;
        let vaddr = cx.arg(self, ARG_HANDLE);
        let loc = self.user_translate(t, vaddr, true)?;
        self.klock_section();
        self.charge(self.cost.object_create);
        self.progress();
        if self.objects.at_loc(loc).is_some() {
            return Err(Self::fail(ErrorCode::AlreadyExists));
        }
        let data = match ty {
            ObjType::Region => {
                let size = cx.arg(self, ARG_COUNT);
                let base = cx.arg(self, ARG_VAL);
                let keeper_tok = cx.arg(self, ARG_SBUF);
                if !Self::valid_window(base, size) {
                    return Err(Self::fail(ErrorCode::InvalidArg));
                }
                let keeper = if keeper_tok != 0 {
                    Some(self.lookup_typed(t, keeper_tok, ObjType::Port)?)
                } else {
                    None
                };
                let owner = self
                    .threads
                    .get(t.0)
                    .and_then(|x| x.space)
                    .ok_or(SysOutcome::Kill("no space"))?;
                ObjData::Region {
                    owner,
                    base,
                    size,
                    keeper,
                    keeper_token: keeper_tok,
                    self_token: vaddr,
                }
            }
            ObjType::Mapping => {
                let size = cx.arg(self, ARG_COUNT);
                let base = cx.arg(self, ARG_VAL);
                let region_tok = cx.arg(self, ARG_SBUF);
                let offset = cx.arg(self, ARG_RBUF);
                if !Self::valid_window(base, size) {
                    return Err(Self::fail(ErrorCode::InvalidArg));
                }
                let region = self.resolve_region_handle(t, region_tok)?;
                let space = self
                    .threads
                    .get(t.0)
                    .and_then(|x| x.space)
                    .ok_or(SysOutcome::Kill("no space"))?;
                ObjData::Mapping {
                    space,
                    base,
                    size,
                    region,
                    offset,
                    region_token: region_tok,
                    writable: true,
                }
            }
            ObjType::Space => {
                let sid = self.create_space();
                ObjData::Space(sid)
            }
            ObjType::Thread => {
                let caller_space = self.threads.get(t.0).and_then(|x| x.space);
                let id = ThreadId(
                    self.threads
                        .insert(crate::thread::Thread::new_user(ThreadId(0))),
                );
                let th = self.threads.get_mut(id.0).unwrap();
                th.id = id;
                th.space = caller_space;
                self.stats.threads_created += 1;
                self.stats.kmem_delta(self.cfg.per_thread_kmem() as i64);
                if let Some(sid) = caller_space {
                    if let Some(s) = self.spaces.get_mut(sid.0) {
                        s.threads.push(id);
                    }
                }
                ObjData::Thread(id)
            }
            _ => ObjData::new_simple(ty).expect("simple type"),
        };
        let oid = self
            .objects
            .insert(loc, data)
            .expect("checked vacancy above");
        self.stats.objects_created += 1;
        // Record back-links.
        match self.objects.get(oid).map(|o| &o.data) {
            Some(ObjData::Region { owner, .. }) => {
                let owner = *owner;
                if let Some(s) = self.spaces.get_mut(owner.0) {
                    s.regions.push(oid);
                }
            }
            Some(ObjData::Mapping {
                space, base, size, ..
            }) => {
                let (space, base, size) = (*space, *base, *size);
                if let Some(s) = self.spaces.get_mut(space.0) {
                    s.add_mapping(oid, base, size);
                }
            }
            Some(ObjData::Space(sid)) => {
                let sid = *sid;
                if let Some(s) = self.spaces.get_mut(sid.0) {
                    s.obj = Some(oid);
                }
            }
            Some(ObjData::Thread(tid)) => {
                let tid = *tid;
                if let Some(th) = self.threads.get_mut(tid.0) {
                    th.obj = Some(oid);
                }
            }
            _ => {}
        }
        Ok(SysOutcome::Done(ErrorCode::Success))
    }

    /// A region handle may be a Region or a Reference pointing at one.
    fn resolve_region_handle(&mut self, t: ThreadId, vaddr: u32) -> Result<ObjId, SysOutcome> {
        let id = self.lookup_handle(t, vaddr)?;
        match self.objects.get(id).map(|o| &o.data) {
            Some(ObjData::Region { .. }) => Ok(id),
            Some(ObjData::Ref { target, .. }) => {
                let target = target.ok_or(Self::fail(ErrorCode::InvalidHandle))?;
                match self.objects.get(target).map(|o| o.ty()) {
                    Some(ObjType::Region) => Ok(target),
                    _ => Err(Self::fail(ErrorCode::WrongType)),
                }
            }
            _ => Err(Self::fail(ErrorCode::WrongType)),
        }
    }

    /// `*_destroy(ebx=handle)`.
    fn obj_destroy(&mut self, cx: &mut SysCtx, ty: ObjType) -> SysResult {
        let vaddr = cx.arg(self, ARG_HANDLE);
        let oid = self.lookup_typed(cx.t, vaddr, ty)?;
        self.klock_section();
        self.charge(self.cost.object_destroy);
        self.progress();
        self.destroy_object(oid);
        Ok(SysOutcome::Done(ErrorCode::Success))
    }

    /// Tear down an object and its linkage.
    pub(crate) fn destroy_object(&mut self, oid: ObjId) {
        let Some(obj) = self.objects.remove(oid) else {
            return;
        };
        match obj.data {
            ObjData::Mutex { mut waiters, .. } | ObjData::Cond { mut waiters } => {
                // Waiters restart their (rewritten) calls and observe the
                // object's absence — no special-case teardown state.
                for w in waiters.drain(&mut self.stats.waitq) {
                    self.unblock(w);
                }
            }
            ObjData::Port {
                pset,
                mut connect_q,
                mut server_q,
                mut oneway_senders,
                mut oneway_receivers,
                ..
            } => {
                for c in connect_q.drain(&mut self.stats.waitq) {
                    self.disconnect(c, ErrorCode::PeerDisconnected);
                }
                for w in server_q
                    .drain(&mut self.stats.waitq)
                    .into_iter()
                    .chain(oneway_senders.drain(&mut self.stats.waitq))
                    .chain(oneway_receivers.drain(&mut self.stats.waitq))
                {
                    self.unblock(w);
                }
                if let Some(p) = pset {
                    if let Some(ObjData::Pset { members, .. }) =
                        self.objects.get_mut(p).map(|o| &mut o.data)
                    {
                        members.retain(|&m| m != oid);
                    }
                }
            }
            ObjData::Pset {
                members,
                mut server_q,
            } => {
                for w in server_q.drain(&mut self.stats.waitq) {
                    self.unblock(w);
                }
                for m in members {
                    if let Some(ObjData::Port { pset, .. }) =
                        self.objects.get_mut(m).map(|o| &mut o.data)
                    {
                        *pset = None;
                    }
                }
            }
            ObjData::Region { owner, .. } => {
                if let Some(s) = self.spaces.get_mut(owner.0) {
                    s.regions.retain(|&r| r != oid);
                }
            }
            ObjData::Mapping {
                space, base, size, ..
            } => {
                if let Some(s) = self.spaces.get_mut(space.0) {
                    s.remove_mapping(oid);
                    // Flush PTEs derived through this mapping's range.
                    let first = base / abi::PAGE_SIZE;
                    let last = (base.saturating_add(size.saturating_sub(1))) / abi::PAGE_SIZE;
                    s.unmap_vpn_range(first, last);
                    self.tlb_shootdown(space);
                }
            }
            ObjData::Space(sid) => {
                let victims: Vec<ThreadId> = self
                    .threads
                    .iter()
                    .filter(|(_, th)| th.space == Some(sid) && !th.is_halted())
                    .map(|(i, _)| ThreadId(i))
                    .collect();
                for v in victims {
                    self.halt_thread(v);
                }
                // Retire the dying space's TLB counters so they survive in
                // the kernel-wide totals.
                if let Some(s) = self.spaces.get(sid.0) {
                    self.stats.tlb_retired.merge(s.tlb_stats());
                }
                self.spaces.remove(sid.0);
            }
            ObjData::Thread(tid) => {
                self.halt_thread(tid);
            }
            ObjData::Ref { .. } => {}
        }
    }

    /// `*_get_state(ebx=handle, esi=buf, ecx=words)`: marshal the object's
    /// complete exportable state into the caller's buffer. Prompt by
    /// construction: a blocked target's registers are already a clean
    /// continuation, so nothing ever waits on user activity.
    fn obj_get_state(&mut self, cx: &mut SysCtx, ty: ObjType) -> SysResult {
        let t = cx.t;
        let vaddr = cx.arg(self, ARG_HANDLE);
        let buf = cx.arg(self, ARG_SBUF);
        let cap = cx.arg(self, ARG_COUNT) as usize;
        let oid = self.lookup_typed(t, vaddr, ty)?;
        self.klock_section();
        self.charge(self.cost.object_op);
        self.progress();
        let frame = self.export_state(oid, ty)?;
        let words = frame.to_words();
        if words.len() > cap {
            return Err(Self::fail(ErrorCode::BufferTooSmall));
        }
        // The whole destination window must fit below the top of the
        // address space; wrapping would marshal into low memory.
        let bytes = (words.len() as u32) * 4;
        if bytes > 0 && buf.checked_add(bytes - 1).is_none() {
            return Err(Self::fail(ErrorCode::InvalidArg));
        }
        let image: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        self.copy_to_user(t, buf, &image)?;
        cx.set_reg(self, ARG_VAL, words.len() as u32);
        Ok(SysOutcome::Done(ErrorCode::Success))
    }

    /// Build the exportable frame for an object.
    pub(crate) fn export_state(
        &mut self,
        oid: ObjId,
        ty: ObjType,
    ) -> Result<ObjStateFrame, SysOutcome> {
        use fluke_api::state::*;
        let obj = self
            .objects
            .get(oid)
            .ok_or(Self::fail(ErrorCode::InvalidHandle))?;
        Ok(match (&obj.data, ty) {
            (ObjData::Mutex { locked, .. }, _) => ObjStateFrame::Mutex(MutexStateFrame {
                locked: *locked as u32,
            }),
            (ObjData::Cond { .. }, _) => ObjStateFrame::Cond(CondStateFrame::default()),
            (
                ObjData::Mapping {
                    base,
                    size,
                    offset,
                    region_token,
                    ..
                },
                _,
            ) => ObjStateFrame::Mapping(MappingStateFrame {
                base: *base,
                size: *size,
                region_token: *region_token,
                offset: *offset,
            }),
            (
                ObjData::Region {
                    base,
                    size,
                    keeper_token,
                    ..
                },
                _,
            ) => ObjStateFrame::Region(RegionStateFrame {
                base: *base,
                size: *size,
                keeper_token: *keeper_token,
            }),
            (ObjData::Port { pset_token, .. }, _) => ObjStateFrame::Port(PortStateFrame {
                pset_token: *pset_token,
            }),
            (ObjData::Pset { .. }, _) => ObjStateFrame::Pset(PsetStateFrame::default()),
            (ObjData::Space(_), _) => ObjStateFrame::Space(SpaceStateFrame::default()),
            (ObjData::Ref { target_token, .. }, _) => ObjStateFrame::Ref(RefStateFrame {
                target_token: *target_token,
            }),
            (ObjData::Thread(tid), _) => {
                let tid = *tid;
                // Extraction forces the "roll back and restart" contract:
                // a process-model thread preempted in-kernel loses its
                // retained stack so its registers are the whole truth.
                if let Some(th) = self.threads.get_mut(tid.0) {
                    th.kstack_retained = false;
                }
                let th = self
                    .threads
                    .get(tid.0)
                    .ok_or(Self::fail(ErrorCode::InvalidHandle))?;
                ObjStateFrame::Thread(ThreadStateFrame {
                    regs: th.regs,
                    program: th.program.unwrap_or(ProgramId(u64::MAX)),
                    space_token: th.space_token,
                    priority: th.priority,
                    runnable: match th.state {
                        RunState::Stopped | RunState::Halted => 0,
                        _ => 1,
                    },
                    ipc_phase: th.ipc.conn.map(|_| 1).unwrap_or(0),
                })
            }
        })
    }

    /// `*_set_state(ebx=handle, esi=buf, ecx=words)`: install previously
    /// exported state. Restoring a thread frame makes the new thread behave
    /// indistinguishably from the original (the correctness requirement).
    fn obj_set_state(&mut self, cx: &mut SysCtx, ty: ObjType) -> SysResult {
        let t = cx.t;
        let vaddr = cx.arg(self, ARG_HANDLE);
        let buf = cx.arg(self, ARG_SBUF);
        let n = (cx.arg(self, ARG_COUNT) as usize).min(fluke_api::state::MAX_FRAME_WORDS);
        let oid = self.lookup_typed(t, vaddr, ty)?;
        // The whole source window must fit below the top of the address
        // space; wrapping would unmarshal from low memory.
        let bytes = (n as u32) * 4;
        if bytes > 0 && buf.checked_add(bytes - 1).is_none() {
            return Err(Self::fail(ErrorCode::InvalidArg));
        }
        let mut bytes = vec![0u8; n * 4];
        self.copy_from_user(t, buf, &mut bytes)?;
        let words: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
            .collect();
        self.klock_section();
        self.charge(self.cost.object_op);
        self.progress();
        let frame = ObjStateFrame::from_words(ty, &words).map_err(Self::fail)?;
        self.install_state(t, oid, frame)?;
        Ok(SysOutcome::Done(ErrorCode::Success))
    }

    /// Apply an exported frame to an object.
    pub(crate) fn install_state(
        &mut self,
        caller: ThreadId,
        oid: ObjId,
        frame: ObjStateFrame,
    ) -> Result<(), SysOutcome> {
        match frame {
            ObjStateFrame::Mutex(f) => {
                let wake = {
                    let Some(ObjData::Mutex { locked, waiters }) =
                        self.objects.get_mut(oid).map(|o| &mut o.data)
                    else {
                        return Err(Self::fail(ErrorCode::WrongType));
                    };
                    *locked = f.locked != 0;
                    if !*locked {
                        waiters.pop(&mut self.stats.waitq)
                    } else {
                        None
                    }
                };
                if let Some(w) = wake {
                    self.unblock(w);
                }
            }
            ObjStateFrame::Cond(_) | ObjStateFrame::Pset(_) | ObjStateFrame::Space(_) => {}
            ObjStateFrame::Region(f) => {
                if !Self::valid_window(f.base, f.size) {
                    return Err(Self::fail(ErrorCode::InvalidArg));
                }
                let keeper = if f.keeper_token != 0 {
                    Some(self.lookup_typed(caller, f.keeper_token, ObjType::Port)?)
                } else {
                    None
                };
                let Some(ObjData::Region {
                    base,
                    size,
                    keeper: k,
                    keeper_token,
                    ..
                }) = self.objects.get_mut(oid).map(|o| &mut o.data)
                else {
                    return Err(Self::fail(ErrorCode::WrongType));
                };
                *base = f.base;
                *size = f.size;
                *k = keeper;
                *keeper_token = f.keeper_token;
            }
            ObjStateFrame::Mapping(f) => {
                if !Self::valid_window(f.base, f.size) {
                    return Err(Self::fail(ErrorCode::InvalidArg));
                }
                let region = self.resolve_region_handle(caller, f.region_token)?;
                let Some(ObjData::Mapping {
                    space,
                    base,
                    size,
                    region: r,
                    offset,
                    region_token,
                    ..
                }) = self.objects.get_mut(oid).map(|o| &mut o.data)
                else {
                    return Err(Self::fail(ErrorCode::WrongType));
                };
                *base = f.base;
                *size = f.size;
                *r = region;
                *offset = f.offset;
                *region_token = f.region_token;
                // Keep the destination space's interval index coherent with
                // the mapping's new window.
                let space = *space;
                if let Some(s) = self.spaces.get_mut(space.0) {
                    s.update_mapping(oid, f.base, f.size);
                }
            }
            ObjStateFrame::Port(f) => {
                let pset = if f.pset_token != 0 {
                    Some(self.lookup_typed(caller, f.pset_token, ObjType::Portset)?)
                } else {
                    None
                };
                if let Some(p) = pset {
                    if let Some(ObjData::Pset { members, .. }) =
                        self.objects.get_mut(p).map(|o| &mut o.data)
                    {
                        if !members.contains(&oid) {
                            members.push(oid);
                        }
                    }
                }
                let Some(ObjData::Port {
                    pset: ps,
                    pset_token,
                    ..
                }) = self.objects.get_mut(oid).map(|o| &mut o.data)
                else {
                    return Err(Self::fail(ErrorCode::WrongType));
                };
                *ps = pset;
                *pset_token = f.pset_token;
            }
            ObjStateFrame::Ref(f) => {
                let target = if f.target_token != 0 {
                    Some(self.lookup_handle(caller, f.target_token)?)
                } else {
                    None
                };
                let Some(ObjData::Ref {
                    target: tg,
                    target_token,
                }) = self.objects.get_mut(oid).map(|o| &mut o.data)
                else {
                    return Err(Self::fail(ErrorCode::WrongType));
                };
                *tg = target;
                *target_token = f.target_token;
            }
            ObjStateFrame::Thread(f) => {
                let Some(ObjData::Thread(tid)) = self.objects.get(oid).map(|o| &o.data) else {
                    return Err(Self::fail(ErrorCode::WrongType));
                };
                let tid = *tid;
                self.install_thread_state(caller, tid, f)?;
            }
        }
        Ok(())
    }

    /// Install a thread frame: unlink the target from any wait, replace its
    /// registers wholesale, and start or stop it per the frame.
    fn install_thread_state(
        &mut self,
        caller: ThreadId,
        tid: ThreadId,
        f: ThreadStateFrame,
    ) -> Result<(), SysOutcome> {
        // Installing a frame into the *calling* thread would race the
        // syscall completion path (which writes eax/eip after the handler
        // returns) and double-schedule the caller; managers restore other
        // threads, never themselves.
        if tid == caller {
            return Err(Self::fail(ErrorCode::InvalidArg));
        }
        // Resolve the space handle in the *caller's* naming.
        let new_space = if f.space_token != 0 {
            let sobj = self.lookup_typed(caller, f.space_token, ObjType::Space)?;
            match self.objects.get(sobj).map(|o| &o.data) {
                Some(ObjData::Space(sid)) => Some(*sid),
                _ => return Err(Self::fail(ErrorCode::WrongType)),
            }
        } else {
            None
        };
        let program = if f.program.0 == u64::MAX {
            None
        } else {
            Some(
                self.program(f.program)
                    .ok_or(Self::fail(ErrorCode::InvalidArg))?,
            )
        };
        // Pull the target out of whatever it is doing. Its old state is
        // discarded wholesale — the frame is the complete new truth. Any
        // open request the target carried ends here: the installed frame
        // starts a fresh one at its next kernel entry.
        self.probe(Probe::Abort { thread: tid });
        self.unlink_waiter(tid);
        {
            let th = self
                .threads
                .get_mut(tid.0)
                .ok_or(Self::fail(ErrorCode::InvalidHandle))?;
            if th.is_ready() {
                self.sched_remove(tid);
            }
        }
        let old_conn = {
            let th = self.threads.get_mut(tid.0).unwrap();
            th.ipc.conn.take()
        };
        if let Some(c) = old_conn {
            self.disconnect(c, ErrorCode::PeerDisconnected);
        }
        let old_space = self.threads.get(tid.0).and_then(|x| x.space);
        let th = self.threads.get_mut(tid.0).unwrap();
        th.regs = f.regs;
        th.priority = f.priority;
        th.inflight = None;
        th.open_fault = None;
        th.kstack_retained = false;
        th.interrupted = false;
        th.space_token = f.space_token;
        if let Some(p) = program {
            th.program = Some(f.program);
            th.text = Some(p);
        }
        if let Some(ns) = new_space {
            th.space = Some(ns);
        }
        let now_space = th.space;
        self.clear_running_cpu(tid);
        if f.runnable != 0 {
            let now = self.now();
            self.make_runnable(tid, now);
        } else {
            self.threads.get_mut(tid.0).unwrap().state = RunState::Stopped;
        }
        // Maintain space thread lists.
        if old_space != now_space {
            if let Some(os) = old_space.and_then(|s| self.spaces.get_mut(s.0)) {
                os.threads.retain(|&x| x != tid);
            }
            if let Some(ns) = now_space.and_then(|s| self.spaces.get_mut(s.0)) {
                if !ns.threads.contains(&tid) {
                    ns.threads.push(tid);
                }
            }
        }
        Ok(())
    }

    /// `*_move(ebx=old_handle, edx=new_vaddr)`: rename an object to a new
    /// virtual address (the underlying physical slot moves with it).
    fn obj_move(&mut self, cx: &mut SysCtx, ty: ObjType) -> SysResult {
        let t = cx.t;
        let old = cx.arg(self, ARG_HANDLE);
        let new = cx.arg(self, ARG_VAL);
        let oid = self.lookup_typed(t, old, ty)?;
        let new_loc = self.user_translate(t, new, true)?;
        self.klock_section();
        self.charge(self.cost.object_op);
        self.progress();
        if self.objects.relocate(oid, new_loc) {
            // Keep self-naming tokens in sync for fault messages.
            if let Some(ObjData::Region { self_token, .. }) =
                self.objects.get_mut(oid).map(|o| &mut o.data)
            {
                *self_token = new;
            }
            Ok(SysOutcome::Done(ErrorCode::Success))
        } else {
            Err(Self::fail(ErrorCode::AlreadyExists))
        }
    }

    /// `*_reference(ebx=target_handle, edx=ref_handle)`: point a Reference
    /// object at the target.
    fn obj_reference(&mut self, cx: &mut SysCtx, ty: ObjType) -> SysResult {
        let t = cx.t;
        let target_tok = cx.arg(self, ARG_HANDLE);
        let ref_tok = cx.arg(self, ARG_VAL);
        let target = self.lookup_typed(t, target_tok, ty)?;
        let r = self.lookup_typed(t, ref_tok, ObjType::Reference)?;
        self.klock_section();
        self.charge(self.cost.object_op);
        self.progress();
        let Some(ObjData::Ref {
            target: tg,
            target_token,
        }) = self.objects.get_mut(r).map(|o| &mut o.data)
        else {
            return Err(Self::fail(ErrorCode::WrongType));
        };
        *tg = Some(target);
        *target_token = target_tok;
        Ok(SysOutcome::Done(ErrorCode::Success))
    }

    // ------------------------------------------------------------------
    // Synchronization.
    // ------------------------------------------------------------------

    /// `mutex_lock(ebx=mutex)` — the canonical "Long" call: acquires or
    /// sleeps. Its registers already *are* the restart continuation, so
    /// blocking requires no bookkeeping beyond the wait-queue entry.
    fn sys_mutex_lock(&mut self, cx: &mut SysCtx) -> SysResult {
        let t = cx.t;
        let h = cx.arg(self, ARG_HANDLE);
        let m = self.lookup_typed(t, h, ObjType::Mutex)?;
        self.klock_section();
        self.charge(self.cost.object_op);
        self.progress();
        let Some(ObjData::Mutex { locked, waiters }) = self.objects.get_mut(m).map(|o| &mut o.data)
        else {
            return Err(Self::fail(ErrorCode::InvalidHandle));
        };
        if !*locked {
            *locked = true;
            Ok(SysOutcome::Done(ErrorCode::Success))
        } else {
            waiters.enqueue(t, &mut self.stats.waitq);
            Ok(cx.block(self, WaitReason::Mutex(m)))
        }
    }

    /// `mutex_trylock(ebx=mutex)`.
    fn sys_mutex_trylock(&mut self, cx: &mut SysCtx) -> SysResult {
        let h = cx.arg(self, ARG_HANDLE);
        let m = self.lookup_typed(cx.t, h, ObjType::Mutex)?;
        self.klock_section();
        self.charge(self.cost.object_op);
        self.progress();
        let Some(ObjData::Mutex { locked, .. }) = self.objects.get_mut(m).map(|o| &mut o.data)
        else {
            return Err(Self::fail(ErrorCode::InvalidHandle));
        };
        if !*locked {
            *locked = true;
            Ok(SysOutcome::Done(ErrorCode::Success))
        } else {
            Ok(SysOutcome::Done(ErrorCode::WouldBlock))
        }
    }

    /// `mutex_unlock(ebx=mutex)`.
    fn sys_mutex_unlock(&mut self, cx: &mut SysCtx) -> SysResult {
        let h = cx.arg(self, ARG_HANDLE);
        let m = self.lookup_typed(cx.t, h, ObjType::Mutex)?;
        self.klock_section();
        self.charge(self.cost.object_op);
        self.progress();
        let Some(ObjData::Mutex { locked, waiters }) = self.objects.get_mut(m).map(|o| &mut o.data)
        else {
            return Err(Self::fail(ErrorCode::InvalidHandle));
        };
        *locked = false;
        let next = waiters.pop(&mut self.stats.waitq);
        if let Some(w) = next {
            // The waiter re-executes `mutex_lock` from its register
            // continuation and re-contends.
            self.unblock(w);
        }
        Ok(SysOutcome::Done(ErrorCode::Success))
    }

    /// `cond_wait(ebx=cond, edx=mutex)` — the paper's worked example of a
    /// multi-stage call (§4.3): release the mutex, then *rewrite the
    /// thread's entrypoint register to `mutex_lock(mutex)`* and sleep on
    /// the condition queue. Wakeup or interruption automatically retries
    /// only the mutex re-acquisition, never the whole wait.
    fn sys_cond_wait(&mut self, cx: &mut SysCtx) -> SysResult {
        let t = cx.t;
        let ch = cx.arg(self, ARG_HANDLE);
        let mh = cx.arg(self, ARG_VAL);
        let c = self.lookup_typed(t, ch, ObjType::Cond)?;
        let m = self.lookup_typed(t, mh, ObjType::Mutex)?;
        self.klock_section();
        self.charge(self.cost.object_op);
        self.progress();
        // Stage 1: release the mutex (waking one contender).
        let woken = {
            let Some(ObjData::Mutex { locked, waiters }) =
                self.objects.get_mut(m).map(|o| &mut o.data)
            else {
                return Err(Self::fail(ErrorCode::InvalidHandle));
            };
            *locked = false;
            waiters.pop(&mut self.stats.waitq)
        };
        if let Some(w) = woken {
            self.unblock(w);
        }
        // Stage 2: move the continuation to `mutex_lock(mutex)` — a
        // declared commit point — and sleep.
        cx.set_reg(self, Reg::Eax, Sys::MutexLock.num());
        cx.set_reg(self, ARG_HANDLE, mh);
        cx.commit(self);
        let Some(ObjData::Cond { waiters }) = self.objects.get_mut(c).map(|o| &mut o.data) else {
            return Err(Self::fail(ErrorCode::InvalidHandle));
        };
        waiters.enqueue(t, &mut self.stats.waitq);
        Ok(cx.block(self, WaitReason::Cond(c)))
    }

    /// `cond_signal(ebx=cond)`.
    fn sys_cond_signal(&mut self, cx: &mut SysCtx) -> SysResult {
        let h = cx.arg(self, ARG_HANDLE);
        let c = self.lookup_typed(cx.t, h, ObjType::Cond)?;
        self.klock_section();
        self.charge(self.cost.object_op);
        self.progress();
        let woken = {
            let Some(ObjData::Cond { waiters }) = self.objects.get_mut(c).map(|o| &mut o.data)
            else {
                return Err(Self::fail(ErrorCode::InvalidHandle));
            };
            waiters.pop(&mut self.stats.waitq)
        };
        if let Some(w) = woken {
            // The waiter's registers already say `mutex_lock(mutex)`.
            self.unblock(w);
        }
        Ok(SysOutcome::Done(ErrorCode::Success))
    }

    /// `cond_broadcast(ebx=cond)`.
    fn sys_cond_broadcast(&mut self, cx: &mut SysCtx) -> SysResult {
        let h = cx.arg(self, ARG_HANDLE);
        let c = self.lookup_typed(cx.t, h, ObjType::Cond)?;
        self.klock_section();
        self.charge(self.cost.object_op);
        self.progress();
        let woken: Vec<ThreadId> = {
            let Some(ObjData::Cond { waiters }) = self.objects.get_mut(c).map(|o| &mut o.data)
            else {
                return Err(Self::fail(ErrorCode::InvalidHandle));
            };
            waiters.drain(&mut self.stats.waitq)
        };
        for w in woken {
            self.unblock(w);
        }
        Ok(SysOutcome::Done(ErrorCode::Success))
    }

    // ------------------------------------------------------------------
    // Threads and scheduling.
    // ------------------------------------------------------------------

    /// `thread_self()` → `edx` = the caller's thread ordinal (the paper's
    /// `getpid` analogue; Trivial: touches nothing that can fault).
    fn sys_thread_self(&mut self, cx: &mut SysCtx) -> SysResult {
        cx.set_reg(self, ARG_VAL, cx.t.0);
        Ok(SysOutcome::Done(ErrorCode::Success))
    }

    /// `thread_interrupt(ebx=thread)`: break the target out of any sleeping
    /// entrypoint; its next dispatch of a Long/Multi-stage call returns
    /// `Interrupted` with the register continuation intact for re-issue.
    fn sys_thread_interrupt(&mut self, cx: &mut SysCtx) -> SysResult {
        let h = cx.arg(self, ARG_HANDLE);
        let target = self.thread_handle(cx.t, h)?;
        self.klock_section();
        self.charge(self.cost.object_op);
        self.progress();
        let blocked = self
            .threads
            .get(target.0)
            .map(|x| x.is_blocked())
            .unwrap_or(false);
        if let Some(th) = self.threads.get_mut(target.0) {
            th.interrupted = true;
        }
        if blocked {
            self.unlink_waiter(target);
            self.unblock(target);
        }
        Ok(SysOutcome::Done(ErrorCode::Success))
    }

    /// `thread_schedule(ebx=thread)`: directed yield — hand the CPU to the
    /// target if it is ready.
    fn sys_thread_schedule(&mut self, cx: &mut SysCtx) -> SysResult {
        let h = cx.arg(self, ARG_HANDLE);
        let target = self.thread_handle(cx.t, h)?;
        self.charge(self.cost.schedule_op);
        self.progress();
        // Single lookup: a handle may outlive its thread (destruction keeps
        // the arena slot, but future lifecycle changes must not reintroduce
        // a second-`get` panic window here).
        if let Some(th) = self.threads.get(target.0) {
            if th.is_ready() {
                let prio = th.priority;
                self.sched_remove(target);
                self.sched_push_front_here(target, prio);
                self.cur_cpu_mut().resched = true;
            }
        }
        Ok(SysOutcome::Done(ErrorCode::Success))
    }

    /// `thread_wait(ebx=thread)`: join — sleep until the target halts.
    fn sys_thread_wait(&mut self, cx: &mut SysCtx) -> SysResult {
        let t = cx.t;
        let h = cx.arg(self, ARG_HANDLE);
        let target = self.thread_handle(t, h)?;
        self.klock_section();
        self.charge(self.cost.object_op);
        self.progress();
        if target == t {
            return Err(Self::fail(ErrorCode::InvalidArg));
        }
        // Single lookup, for the same reason as `sys_thread_schedule`:
        // a missing or halted target means the join completes immediately.
        let Some(th) = self.threads.get_mut(target.0) else {
            return Ok(SysOutcome::Done(ErrorCode::Success));
        };
        if th.is_halted() {
            return Ok(SysOutcome::Done(ErrorCode::Success));
        }
        th.joiners.enqueue(t, &mut self.stats.waitq);
        Ok(cx.block(self, WaitReason::Join(target)))
    }

    /// `thread_sleep()`: sleep until `thread_interrupt` or a timer wake.
    fn sys_thread_sleep(&mut self, cx: &mut SysCtx) -> SysResult {
        self.charge(self.cost.object_op);
        self.progress();
        Ok(cx.block(self, WaitReason::Sleep))
    }

    /// `space_wait_threads(ebx=space)`: sleep until the space has no live
    /// threads (used by managers to reap children).
    fn sys_space_wait_threads(&mut self, cx: &mut SysCtx) -> SysResult {
        let t = cx.t;
        let h = cx.arg(self, ARG_HANDLE);
        let sobj = self.lookup_typed(t, h, ObjType::Space)?;
        self.charge(self.cost.object_op);
        self.progress();
        let Some(ObjData::Space(sid)) = self.objects.get(sobj).map(|o| &o.data) else {
            return Err(Self::fail(ErrorCode::WrongType));
        };
        let sid = *sid;
        let any_live = self
            .threads
            .iter()
            .any(|(_, x)| x.space == Some(sid) && !x.is_halted() && x.id != t);
        if !any_live {
            return Ok(SysOutcome::Done(ErrorCode::Success));
        }
        // Register on the space's wait queue so the halt path wakes us
        // without scanning the thread arena.
        if let Some(sp) = self.spaces.get_mut(sid.0) {
            sp.idle_waiters.enqueue(t, &mut self.stats.waitq);
        }
        Ok(cx.block(self, WaitReason::SpaceIdle(sid)))
    }

    /// `sched_donate(ebx=thread)`: donate the CPU to the target and sleep
    /// until it blocks or halts.
    fn sys_sched_donate(&mut self, cx: &mut SysCtx) -> SysResult {
        let t = cx.t;
        let h = cx.arg(self, ARG_HANDLE);
        let target = self.thread_handle(t, h)?;
        self.charge(self.cost.schedule_op);
        self.progress();
        if target == t {
            return Err(Self::fail(ErrorCode::InvalidArg));
        }
        // Single lookup (same audit as `sys_thread_schedule`).
        let prio = match self.threads.get(target.0) {
            Some(th) if th.is_ready() => th.priority,
            _ => return Err(Self::fail(ErrorCode::WouldBlock)),
        };
        self.sched_remove(target);
        self.sched_push_front_here(target, prio);
        // Register on the donee's wait queue so its halt path wakes us
        // without scanning the thread arena.
        if let Some(th) = self.threads.get_mut(target.0) {
            th.donors.enqueue(t, &mut self.stats.waitq);
        }
        Ok(cx.block(self, WaitReason::Donate(target)))
    }

    /// Resolve a thread handle (Thread object or Reference to one).
    pub(crate) fn thread_handle(
        &mut self,
        t: ThreadId,
        vaddr: u32,
    ) -> Result<ThreadId, SysOutcome> {
        let id = self.lookup_handle(t, vaddr)?;
        let resolved = match self.objects.get(id).map(|o| &o.data) {
            Some(ObjData::Thread(tid)) => *tid,
            Some(ObjData::Ref {
                target: Some(tg), ..
            }) => match self.objects.get(*tg).map(|o| &o.data) {
                Some(ObjData::Thread(tid)) => *tid,
                _ => return Err(Self::fail(ErrorCode::WrongType)),
            },
            _ => return Err(Self::fail(ErrorCode::WrongType)),
        };
        Ok(resolved)
    }

    // ------------------------------------------------------------------
    // Miscellaneous.
    // ------------------------------------------------------------------

    /// `sys_stats(ebx=selector)` → `edx`: read a kernel counter.
    fn sys_stats(&mut self, cx: &mut SysCtx) -> SysResult {
        let t = cx.t;
        let sel = cx.arg(self, ARG_HANDLE);
        // Selectors >= 0x100 are the "exported facilities" of
        // paper §5.6: privileged pseudo-kernel operations available
        // only to threads of kernel-alias spaces (legacy
        // process-model code running in user mode in the kernel's
        // address space). They jump into supervisor mode, perform a
        // short nonblocking activity, and return.
        if sel >= 0x100 {
            let alias = self
                .threads
                .get(t.0)
                .and_then(|x| x.space)
                .is_some_and(|s| self.is_kernel_alias(s));
            if !alias {
                return Err(Self::fail(ErrorCode::PermissionDenied));
            }
            self.charge(self.cost.object_op);
            self.progress();
            match sel {
                // Allocate a kernel frame and map it writable at
                // the address in esi.
                0x100 => {
                    let vaddr = cx.arg(self, ARG_SBUF);
                    let frame = self.phys.alloc();
                    let sid = self.threads.get(t.0).and_then(|x| x.space).unwrap();
                    if let Some(s) = self.spaces.get_mut(sid.0) {
                        s.map_page(vaddr, frame, true);
                    }
                    cx.set_reg(self, ARG_VAL, frame);
                }
                // "Install an interrupt handler": record the
                // binding (modeled as a trace entry).
                0x101 => {
                    let value = 0x1000_0000 | cx.arg(self, ARG_VAL);
                    self.probe(Probe::Mark { thread: t, value });
                }
                _ => return Err(Self::fail(ErrorCode::InvalidArg)),
            }
            return Ok(SysOutcome::Done(ErrorCode::Success));
        }
        let v = match sel {
            0 => self.stats.syscalls,
            1 => self.stats.ctx_switches,
            2 => self.stats.soft_faults,
            3 => self.stats.hard_faults,
            4 => self.stats.restarts,
            _ => 0,
        } as u32;
        cx.set_reg(self, ARG_VAL, v);
        Ok(SysOutcome::Done(ErrorCode::Success))
    }

    // ------------------------------------------------------------------
    // Memory operations.
    // ------------------------------------------------------------------

    /// `region_protect(ebx=region, edx=writable)`: set the writability of
    /// the owner's resident pages within the region.
    fn sys_region_protect(&mut self, cx: &mut SysCtx) -> SysResult {
        let h = cx.arg(self, ARG_HANDLE);
        let writable = cx.arg(self, ARG_VAL) != 0;
        let r = self.lookup_typed(cx.t, h, ObjType::Region)?;
        self.klock_section();
        self.charge(self.cost.object_op);
        self.progress();
        let Some(ObjData::Region {
            owner, base, size, ..
        }) = self.objects.get(r).map(|o| &o.data)
        else {
            return Err(Self::fail(ErrorCode::InvalidHandle));
        };
        let (owner, base, size) = (*owner, *base, *size);
        let first = base / abi::PAGE_SIZE;
        // Geometry is validated at create/install; saturate as a backstop.
        let last = base.saturating_add(size.saturating_sub(1)) / abi::PAGE_SIZE;
        let mut touched = 0u64;
        if let Some(s) = self.spaces.get_mut(owner.0) {
            for p in first..=last {
                if s.set_vpn_writable(p, writable) {
                    touched += 1;
                }
            }
        }
        self.charge(self.cost.object_op * touched.max(1) / 4);
        if !writable && touched > 0 {
            // A permission downgrade must be visible machine-wide: remote
            // TLBs may cache the old writable PTEs.
            self.tlb_shootdown(owner);
        }
        Ok(SysOutcome::Done(ErrorCode::Success))
    }

    /// `mapping_protect(ebx=mapping, edx=writable)`: set the mapping's
    /// writability and flush PTEs derived through it.
    fn sys_mapping_protect(&mut self, cx: &mut SysCtx) -> SysResult {
        let h = cx.arg(self, ARG_HANDLE);
        let writable = cx.arg(self, ARG_VAL) != 0;
        let m = self.lookup_typed(cx.t, h, ObjType::Mapping)?;
        self.klock_section();
        self.charge(self.cost.object_op);
        self.progress();
        let Some(ObjData::Mapping {
            space,
            base,
            size,
            writable: w,
            ..
        }) = self.objects.get_mut(m).map(|o| &mut o.data)
        else {
            return Err(Self::fail(ErrorCode::InvalidHandle));
        };
        *w = writable;
        let (space, base, size) = (*space, *base, *size);
        let first = base / abi::PAGE_SIZE;
        // Geometry is validated at create/install; saturate as a backstop.
        let last = base.saturating_add(size.saturating_sub(1)) / abi::PAGE_SIZE;
        if let Some(s) = self.spaces.get_mut(space.0) {
            s.unmap_vpn_range(first, last);
        }
        // The flushed PTEs may be cached by remote TLBs.
        self.tlb_shootdown(space);
        Ok(SysOutcome::Done(ErrorCode::Success))
    }

    /// `region_populate(ebx=region, ecx=len, edx=offset)`: a keeper
    /// (pager) supplies zero-filled memory for its region. This is the
    /// reproduction's stand-in for Fluke's memory-supply protocol: only the
    /// region's owning space may populate it.
    fn sys_region_populate(&mut self, cx: &mut SysCtx) -> SysResult {
        let t = cx.t;
        let h = cx.arg(self, ARG_HANDLE);
        let len = cx.arg(self, ARG_COUNT);
        let offset = cx.arg(self, ARG_VAL);
        let r = self.lookup_typed(t, h, ObjType::Region)?;
        self.klock_section();
        self.charge(self.cost.object_op);
        self.progress();
        let Some(ObjData::Region {
            owner, base, size, ..
        }) = self.objects.get(r).map(|o| &o.data)
        else {
            return Err(Self::fail(ErrorCode::InvalidHandle));
        };
        let (owner, base, size) = (*owner, *base, *size);
        let caller_space = self.threads.get(t.0).and_then(|x| x.space);
        if caller_space != Some(owner) {
            return Err(Self::fail(ErrorCode::PermissionDenied));
        }
        if len == 0 || offset.saturating_add(len) > size {
            return Err(Self::fail(ErrorCode::InvalidArg));
        }
        // With the window validated at create/install and
        // `offset + len <= size` checked above, neither sum can wrap; the
        // checked form keeps that invariant local instead of assumed.
        let Some(start) = base.checked_add(offset) else {
            return Err(Self::fail(ErrorCode::InvalidArg));
        };
        let Some(end) = start.checked_add(len - 1) else {
            return Err(Self::fail(ErrorCode::InvalidArg));
        };
        let first = start / abi::PAGE_SIZE;
        let last = end / abi::PAGE_SIZE;
        for p in first..=last {
            let present = self
                .spaces
                .get(owner.0)
                .map(|s| s.has_vpn(p))
                .unwrap_or(false);
            if !present {
                let frame = self.phys.alloc();
                if let Some(s) = self.spaces.get_mut(owner.0) {
                    s.insert_pte(
                        p,
                        crate::space::Pte {
                            frame,
                            writable: true,
                        },
                    );
                }
                // Supplying a page costs its zero-fill plus bookkeeping.
                self.charge(self.cost.object_op + abi::PAGE_SIZE as u64 * self.cost.copy_byte_per);
            }
        }
        Ok(SysOutcome::Done(ErrorCode::Success))
    }

    /// `region_search(ebx=space|0, edx=cursor, ecx=limit)`: find the next
    /// kernel object at or after `cursor` in the space's address range.
    /// Multi-stage: the cursor advances in place; the scan is long and —
    /// faithfully to the paper — has **no** explicit preemption point, so
    /// it bounds preemption latency under the Partial configuration
    /// (Table 6's PP "max" column).
    fn sys_region_search(&mut self, cx: &mut SysCtx) -> SysResult {
        let t = cx.t;
        let sh = cx.arg(self, ARG_HANDLE);
        let cursor = cx.arg(self, ARG_VAL);
        let limit = cx.arg(self, ARG_COUNT);
        let sid = if sh == 0 {
            self.threads
                .get(t.0)
                .and_then(|x| x.space)
                .ok_or(SysOutcome::Kill("no space"))?
        } else {
            let sobj = self.lookup_typed(t, sh, ObjType::Space)?;
            match self.objects.get(sobj).map(|o| &o.data) {
                Some(ObjData::Space(s)) => *s,
                _ => return Err(Self::fail(ErrorCode::WrongType)),
            }
        };
        self.charge(self.cost.object_op);
        self.progress();
        if cursor >= limit {
            cx.set_reg(self, ARG_VAL, limit);
            return Ok(SysOutcome::Done(ErrorCode::NotFound));
        }
        // Invert the page table once, then scan object locations.
        let inv: std::collections::HashMap<crate::phys::FrameId, u32> = match self.spaces.get(sid.0)
        {
            Some(s) => s.pages_iter().map(|(&vpn, pte)| (pte.frame, vpn)).collect(),
            None => return Err(Self::fail(ErrorCode::InvalidHandle)),
        };
        let mut best: Option<(u32, ObjId)> = None;
        for (oid, obj) in self.objects.iter() {
            if let Some(&vpn) = inv.get(&obj.loc.0) {
                let vaddr = vpn * abi::PAGE_SIZE + obj.loc.1;
                let better = best.map(|(b, _)| vaddr < b).unwrap_or(true);
                if vaddr >= cursor && vaddr < limit && better {
                    best = Some((vaddr, oid));
                }
            }
        }
        // Charge proportionally to the range walked — this is the long
        // kernel path of the latency experiment. Faithfully to the paper,
        // the *Partial* configuration has no preemption point here (only
        // the IPC copy path has one), so this loop bounds PP latency;
        // under Full preemption the per-page charges are preemptible like
        // any other unlocked kernel code.
        let walked_to = best.map(|(v, _)| v + 1).unwrap_or(limit);
        let pages = (walked_to.saturating_sub(cursor) / abi::PAGE_SIZE).clamp(1, 4096);
        for page in 0..pages {
            self.charge(self.cost.region_search_page);
            if self.cfg.preempt == Preemption::Full && self.cur_cpu_mut().resched {
                // Clean point: the cursor records exactly how far the scan
                // got; the restarted call continues from there.
                let resume = cursor + page * abi::PAGE_SIZE;
                cx.set_reg_committed(self, ARG_VAL, resume);
                return Ok(cx.preempt(self));
            }
        }
        match best {
            Some((vaddr, oid)) => {
                let ty = self.objects.get(oid).map(|o| o.ty()).unwrap() as u32;
                cx.set_reg(self, ARG_SBUF, vaddr);
                cx.set_reg(self, ARG_RBUF, ty);
                cx.set_reg(self, ARG_VAL, vaddr + 1);
                Ok(SysOutcome::Done(ErrorCode::Success))
            }
            None => {
                cx.set_reg(self, ARG_VAL, limit);
                Ok(SysOutcome::Done(ErrorCode::NotFound))
            }
        }
    }

    /// `ref_compare(ebx=ref1, edx=ref2)` → `edx=1` if both reference the
    /// same object.
    fn sys_ref_compare(&mut self, cx: &mut SysCtx) -> SysResult {
        let h1 = cx.arg(self, ARG_HANDLE);
        let h2 = cx.arg(self, ARG_VAL);
        let r1 = self.lookup_typed(cx.t, h1, ObjType::Reference)?;
        let r2 = self.lookup_typed(cx.t, h2, ObjType::Reference)?;
        self.charge(self.cost.object_op);
        self.progress();
        let t1 = match self.objects.get(r1).map(|o| &o.data) {
            Some(ObjData::Ref { target, .. }) => *target,
            _ => None,
        };
        let t2 = match self.objects.get(r2).map(|o| &o.data) {
            Some(ObjData::Ref { target, .. }) => *target,
            _ => None,
        };
        let same = t1.is_some() && t1 == t2;
        cx.set_reg(self, ARG_VAL, same as u32);
        Ok(SysOutcome::Done(ErrorCode::Success))
    }

    // ------------------------------------------------------------------
    // Port waits (connection without data).
    // ------------------------------------------------------------------

    /// `port_wait(ebx=port)`: accept a pending connection or sleep.
    fn sys_port_wait(&mut self, cx: &mut SysCtx) -> SysResult {
        let t = cx.t;
        let h = cx.arg(self, ARG_HANDLE);
        let p = self.port_handle(t, h)?;
        self.klock_section();
        self.charge(self.cost.object_op);
        self.progress();
        if self.try_accept_from_port(t, p)? {
            return Ok(SysOutcome::Done(ErrorCode::Success));
        }
        let Some(ObjData::Port { server_q, .. }) = self.objects.get_mut(p).map(|o| &mut o.data)
        else {
            return Err(Self::fail(ErrorCode::InvalidHandle));
        };
        server_q.enqueue(t, &mut self.stats.waitq);
        Ok(cx.block(self, WaitReason::PortWait(p)))
    }

    /// `pset_wait(ebx=pset)`: accept from any member port or sleep.
    fn sys_pset_wait(&mut self, cx: &mut SysCtx) -> SysResult {
        let t = cx.t;
        let h = cx.arg(self, ARG_HANDLE);
        let ps = self.lookup_typed(t, h, ObjType::Portset)?;
        self.klock_section();
        self.charge(self.cost.object_op);
        self.progress();
        let members: Vec<ObjId> = match self.objects.get(ps).map(|o| &o.data) {
            Some(ObjData::Pset { members, .. }) => members.clone(),
            _ => return Err(Self::fail(ErrorCode::InvalidHandle)),
        };
        for m in members {
            if self.try_accept_from_port(t, m)? {
                return Ok(SysOutcome::Done(ErrorCode::Success));
            }
        }
        let Some(ObjData::Pset { server_q, .. }) = self.objects.get_mut(ps).map(|o| &mut o.data)
        else {
            return Err(Self::fail(ErrorCode::InvalidHandle));
        };
        server_q.enqueue(t, &mut self.stats.waitq);
        Ok(cx.block(self, WaitReason::PsetWait(ps)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handler_table_covers_every_entrypoint() {
        // Indexing by any valid entrypoint number must stay in bounds,
        // and every common-op row must decode an operation and a type
        // (the catch-all handler's two `expect`s).
        assert_eq!(HANDLERS.len(), SYSCALL_COUNT);
        for d in SYSCALLS {
            if d.common_op.is_some() {
                assert!(
                    d.family.obj_type().is_some(),
                    "{}: common-op row without an object family",
                    d.name
                );
            }
        }
    }
}
