//! IPC: connections, the data-transfer pump, and all IPC entrypoints.
//!
//! The transfer state of an in-progress IPC lives in the two threads'
//! registers: send pointer in `esi`, receive pointer in `edi`, byte counts
//! in `ecx`, all advanced in place as data moves — exactly the x86
//! string-instruction discipline the paper uses as its model (§4.2). When
//! anything interrupts a transfer (page fault, preemption point, window
//! exhaustion), both threads are *already* at well-defined points: "having
//! transferred some data and about to start an IPC to transfer more."
//!
//! The continuation of a compound operation like
//! `ipc_client_connect_send_over_receive` is likewise register-encoded:
//! the pending receive window rides in pseudo-register `pr0` and the
//! "what happens after the send" bits in `pr1`, so an interrupted compound
//! call restarts at `*_send_more` and still finishes the whole exchange.

use fluke_api::abi::{
    ARG_COUNT, ARG_HANDLE, ARG_RBUF, ARG_SBUF, ARG_VAL, IPC_PR1_DISCONNECT,
    IPC_PR1_PENDING_RECEIVE, IPC_PR1_PENDING_WAIT, PAGE_SIZE, PR_IPC_FLAGS, PR_RECV_WINDOW,
};
use fluke_api::{ErrorCode, ObjType, Sys};
use fluke_arch::Reg;

use crate::config::{Preemption, PP_CHUNK_BYTES};
use crate::conn::{ClientEnd, Connection, Dir};
use crate::ids::{ConnId, ObjId, ThreadId};
use crate::kprof::Phase;
use crate::kstat::FaultSide;
use crate::object::{BufferedMsg, ObjData};
use crate::phys::FrameId;
use crate::probe::Probe;
use crate::thread::{IpcRole, RunState, WaitReason};

use super::mem::PumpFault;
use super::{Kernel, SysCtx, SysOutcome, SysResult};

/// Bytes between preemption checks under Full preemption (finer than the
/// Partial configuration's single 8KB point, since FP is preemptible
/// everywhere a lock isn't held).
const FP_CHUNK_BYTES: u32 = 2048;

/// What a send-family entrypoint does after the message completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AfterSend {
    /// Return to the caller.
    Complete,
    /// Reverse direction and receive a reply (window staged in `pr0`).
    Receive,
    /// Keep the connection and wait for the next message on it.
    WaitNext,
    /// Acknowledge and disconnect.
    Disconnect,
    /// Acknowledge, disconnect, then wait for a new request on the portset.
    DisconnectThenWait,
}

impl AfterSend {
    /// Encode into the `pr1` continuation bits.
    fn to_flags(self) -> u32 {
        match self {
            AfterSend::Complete => 0,
            AfterSend::Receive => IPC_PR1_PENDING_RECEIVE,
            AfterSend::WaitNext => IPC_PR1_PENDING_WAIT,
            AfterSend::Disconnect => IPC_PR1_DISCONNECT,
            AfterSend::DisconnectThenWait => IPC_PR1_DISCONNECT | IPC_PR1_PENDING_WAIT,
        }
    }

    /// Decode from the `pr1` continuation bits.
    fn from_flags(f: u32) -> AfterSend {
        let disc = f & IPC_PR1_DISCONNECT != 0;
        let wait = f & IPC_PR1_PENDING_WAIT != 0;
        let recv = f & IPC_PR1_PENDING_RECEIVE != 0;
        match (disc, wait, recv) {
            (true, true, _) => AfterSend::DisconnectThenWait,
            (true, false, _) => AfterSend::Disconnect,
            (false, true, _) => AfterSend::WaitNext,
            (false, false, true) => AfterSend::Receive,
            (false, false, false) => AfterSend::Complete,
        }
    }
}

/// One end of a data transfer. A user end keeps its cursor in its
/// registers; a kernel-held source keeps it beside the message (`pos`).
/// Either way the pump advances it in place after every chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum XferEnd {
    /// A user thread; pointer/count live in its registers.
    User(ThreadId),
    /// The kernel as message source (exception IPC delivery).
    KernelSrc(ConnId),
    /// The kernel as message sink (exception IPC reply).
    KernelSink(ConnId),
    /// The head of a port's kernel buffer as message source (a one-way
    /// message queued by `ipc_submit`, whose sender already completed).
    Buffered(ObjId),
}

/// Result of running the pump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PumpOut {
    /// The sender's message completed.
    Complete,
    /// The receiver's window filled with the message still open.
    WindowFull,
    /// A hard fault on the current thread's side: the current thread is
    /// already blocked on the pager at a clean restart point.
    BlockedCurrent,
    /// A soft fault on the peer side was remedied; the operation restarts
    /// from the register continuations for revalidation (Table 3's
    /// "server-side soft fault" rollback).
    RestartCurrent,
    /// A hard fault on the peer side: the peer is blocked on the pager;
    /// the current thread should block awaiting transfer resumption.
    PeerFaulted,
    /// A preemption point was taken; the current thread is ready again at
    /// a clean restart point.
    Preempted,
    /// The faulting side was destroyed by a fatal fault.
    FatalCurrent,
    /// The peer was destroyed by a fatal fault.
    FatalPeer,
}

impl Kernel {
    // ------------------------------------------------------------------
    // Connection plumbing.
    // ------------------------------------------------------------------

    /// Resolve a port handle (Port or Reference to a Port) through the
    /// port-namespace index: one handle translation, one `Ref` chase at
    /// most, counted under `kernel.port.index.*`. Every IPC handler that
    /// names a port resolves it here (the single-lookup rule).
    pub(crate) fn port_handle(&mut self, t: ThreadId, vaddr: u32) -> Result<ObjId, SysOutcome> {
        let id = self.lookup_handle(t, vaddr)?;
        self.stats.port_lookups += 1;
        match self.objects.get(id).map(|o| &o.data) {
            Some(ObjData::Port { .. }) => Ok(id),
            Some(ObjData::Ref {
                target: Some(tg), ..
            }) => {
                self.stats.port_ref_chases += 1;
                match self.objects.get(*tg).map(|o| &o.data) {
                    Some(ObjData::Port { .. }) => Ok(*tg),
                    _ => Err(Self::fail(ErrorCode::WrongType)),
                }
            }
            _ => Err(Self::fail(ErrorCode::WrongType)),
        }
    }

    /// Wake one server waiting on the port (or its portset) so it can
    /// accept a newly queued connection.
    pub(crate) fn wake_port_server(&mut self, port: ObjId) {
        let (direct, pset) = match self.objects.get_mut(port).map(|o| &mut o.data) {
            Some(ObjData::Port { server_q, pset, .. }) => {
                (server_q.pop(&mut self.stats.waitq), *pset)
            }
            _ => (None, None),
        };
        if let Some(s) = direct {
            self.unblock(s);
            return;
        }
        if let Some(ps) = pset {
            let w = match self.objects.get_mut(ps).map(|o| &mut o.data) {
                Some(ObjData::Pset { server_q, .. }) => server_q.pop(&mut self.stats.waitq),
                _ => None,
            };
            if let Some(s) = w {
                self.unblock(s);
            }
        }
    }

    /// Try to accept one pending connection from `port` for server `t`.
    /// Returns true if a connection was accepted.
    pub(crate) fn try_accept_from_port(
        &mut self,
        t: ThreadId,
        port: ObjId,
    ) -> Result<bool, SysOutcome> {
        if self.threads.get(t.0).and_then(|x| x.ipc.conn).is_some() {
            return Err(Self::fail(ErrorCode::AlreadyConnected));
        }
        let conn = match self.objects.get_mut(port).map(|o| &mut o.data) {
            Some(ObjData::Port { connect_q, .. }) => connect_q.pop(&mut self.stats.waitq),
            _ => return Err(Self::fail(ErrorCode::InvalidHandle)),
        };
        let Some(conn) = conn else {
            return Ok(false);
        };
        self.charge(self.cost.ipc_setup);
        let client = {
            let c = self.conns.get_mut(conn.0).expect("queued connection");
            c.server = Some(t);
            c.client_thread()
        };
        {
            let th = self.threads.get_mut(t.0).expect("server thread");
            th.ipc.conn = Some(conn);
            th.ipc.role = Some(IpcRole::Server);
        }
        // A user client blocked waiting for acceptance restarts its
        // connect-send and proceeds to the send stage.
        if let Some(c) = client {
            let waiting = matches!(
                self.threads.get(c.0).map(|x| x.state),
                Some(RunState::Blocked(WaitReason::IpcConnect(_)))
            );
            if waiting {
                self.unblock(c);
            }
        }
        Ok(true)
    }

    /// Ensure the current thread has a live client connection to the port
    /// named by `ebx`, creating and queueing one if needed.
    fn ensure_connected(&mut self, cx: &mut SysCtx) -> Result<ConnId, SysOutcome> {
        let t = cx.t;
        if let Some(code) = self.threads.get_mut(t.0).and_then(|x| x.ipc_error.take()) {
            return Err(Self::fail(code));
        }
        let (existing, role) = {
            let th = self.threads.get(t.0).expect("current");
            (th.ipc.conn, th.ipc.role)
        };
        if let Some(conn) = existing {
            if role != Some(IpcRole::Client) {
                return Err(Self::fail(ErrorCode::AlreadyConnected));
            }
            let accepted = self
                .conns
                .get(conn.0)
                .map(|c| c.server.is_some())
                .unwrap_or(false);
            if accepted {
                return Ok(conn);
            }
            // Still waiting for a server: the connection stays queued on
            // the port; sleep again (the restart found us here).
            let port = self.conns.get(conn.0).map(|c| c.port).expect("conn");
            return Err(cx.block(self, WaitReason::IpcConnect(port)));
        }
        let h = cx.arg(self, ARG_HANDLE);
        let port = self.port_handle(t, h)?;
        self.charge(self.cost.ipc_setup);
        self.progress();
        let conn = ConnId(self.conns.insert(Connection::from_thread(t, port)));
        if let Some(ObjData::Port { connect_q, .. }) =
            self.objects.get_mut(port).map(|o| &mut o.data)
        {
            connect_q.enqueue(conn, &mut self.stats.waitq);
        }
        {
            let th = self.threads.get_mut(t.0).expect("current");
            th.ipc.conn = Some(conn);
            th.ipc.role = Some(IpcRole::Client);
        }
        self.wake_port_server(port);
        Err(cx.block(self, WaitReason::IpcConnect(port)))
    }

    /// Tear down a connection; still-blocked peer operations complete with
    /// `code`. Kernel-client (exception IPC) connections finalize their
    /// fault first so the faulting thread retries.
    pub(crate) fn disconnect(&mut self, conn: ConnId, code: ErrorCode) {
        self.disconnect_from(conn, code, None)
    }

    /// [`Kernel::disconnect`] with the initiating thread excluded from
    /// error delivery (a thread tearing down its own connection must not
    /// poison its own next operation).
    pub(crate) fn disconnect_from(
        &mut self,
        conn: ConnId,
        code: ErrorCode,
        initiator: Option<ThreadId>,
    ) {
        self.complete_fault(conn);
        let Some(c) = self.conns.remove(conn.0) else {
            return;
        };
        // Drop from the port's pending queue if never accepted: an O(1)
        // tombstone, not a linear sweep (which made connection churn
        // O(pending²) at server scale).
        if let Some(ObjData::Port { connect_q, .. }) =
            self.objects.get_mut(c.port).map(|o| &mut o.data)
        {
            if connect_q.cancel(conn, &mut self.stats.waitq) {
                self.stats.conn_unlinks_fast += 1;
            }
        }
        for t in c.client_thread().into_iter().chain(c.server) {
            let Some(th) = self.threads.get_mut(t.0) else {
                continue;
            };
            if th.ipc.conn == Some(conn) {
                th.ipc.conn = None;
                th.ipc.role = None;
            }
            if Some(t) == initiator {
                continue;
            }
            let blocked_on_conn = matches!(
                th.state,
                RunState::Blocked(WaitReason::IpcSend(c2) | WaitReason::IpcReceive(c2)) if c2 == conn
            ) || matches!(
                th.state,
                RunState::Blocked(WaitReason::IpcConnect(_))
            );
            if blocked_on_conn {
                self.complete_blocked(t, code);
            } else if th
                .inflight
                .map(|s| s.desc().family == fluke_api::Family::Ipc)
                .unwrap_or(false)
            {
                // Torn down between unblocking and re-dispatch: deliver the
                // error at the next IPC entrypoint instead of letting the
                // restart silently re-issue against a dead connection.
                th.ipc_error = Some(code);
            }
        }
    }

    // ------------------------------------------------------------------
    // The transfer pump.
    // ------------------------------------------------------------------

    /// Bytes a transfer moves between explicit preemption points: the
    /// Partial configurations check after every 8KB (Table 4), Full
    /// preemption finer; `None` without in-kernel preemption.
    fn preempt_every(&self) -> Option<u32> {
        match self.cfg.preempt {
            Preemption::Partial => Some(PP_CHUNK_BYTES),
            Preemption::Full => Some(FP_CHUNK_BYTES),
            Preemption::None => None,
        }
    }

    /// Bytes an end has left to send or room to receive.
    fn end_avail(&self, end: XferEnd) -> u32 {
        match end {
            XferEnd::User(t) => self.threads.get(t.0).expect("xfer end").regs.get(ARG_COUNT),
            XferEnd::KernelSrc(c) => match &self.conns.get(c.0).expect("conn").client {
                ClientEnd::Kernel(km) => (km.bytes.len() - km.pos) as u32,
                ClientEnd::Thread(_) => 0,
            },
            XferEnd::KernelSink(_) => u32::MAX,
            XferEnd::Buffered(port) => self
                .buffered_head(port)
                .map_or(0, |m| (m.bytes.len() - m.pos) as u32),
        }
    }

    /// The buffer pointer of a user end (send uses `esi`, receive `edi`).
    fn end_ptr(&self, end: XferEnd, sending: bool) -> u32 {
        match end {
            XferEnd::User(t) => {
                let r = &self.threads.get(t.0).expect("xfer end").regs;
                r.get(if sending { ARG_SBUF } else { ARG_RBUF })
            }
            _ => 0,
        }
    }

    /// Advance an end by `n` bytes after a successful copy. A user end's
    /// in-place parameter advance *is* its commit: its registers now
    /// describe "transferred this much, about to transfer more" (paper
    /// §4.2).
    fn end_advance(&mut self, end: XferEnd, sending: bool, n: u32) {
        match end {
            XferEnd::User(t) => {
                let r = &mut self.threads.get_mut(t.0).expect("xfer end").regs;
                let preg = if sending { ARG_SBUF } else { ARG_RBUF };
                let p = r.get(preg);
                r.set(preg, p.wrapping_add(n));
                let c = r.get(ARG_COUNT);
                r.set(ARG_COUNT, c - n);
                self.audit_commit(t);
            }
            XferEnd::KernelSrc(c) => {
                if let Some(conn) = self.conns.get_mut(c.0) {
                    if let ClientEnd::Kernel(km) = &mut conn.client {
                        km.pos += n as usize;
                    }
                }
            }
            XferEnd::KernelSink(_) => {}
            XferEnd::Buffered(port) => {
                if let Some(ObjData::Port { buffered, .. }) =
                    self.objects.get_mut(port).map(|o| &mut o.data)
                {
                    if let Some(m) = buffered.front_mut() {
                        m.pos += n as usize;
                    }
                }
            }
        }
    }

    /// Move `n` bytes between resolved physical locations or kernel
    /// buffers. All ranges are within single pages by construction.
    fn move_bytes(
        &mut self,
        sender: XferEnd,
        s_loc: Option<(u32, u32)>,
        receiver: XferEnd,
        r_loc: Option<(u32, u32)>,
        n: u32,
    ) {
        match (sender, receiver) {
            (XferEnd::User(_), XferEnd::User(_)) => {
                let (sf, so) = s_loc.expect("sender resolved");
                let (rf, ro) = r_loc.expect("receiver resolved");
                if self.cfg.fast_mem {
                    self.phys.copy(sf, so, rf, ro, n);
                } else {
                    // Reference path: byte-at-a-time through a staging
                    // buffer, so a message whose source and destination
                    // alias the same frame with overlapping offsets still
                    // delivers the original source bytes (memmove
                    // semantics, matching `copy`). A chunk never exceeds a
                    // page.
                    let mut buf = [0u8; fluke_api::abi::PAGE_SIZE as usize];
                    for i in 0..n {
                        buf[i as usize] = self.phys.read_u8(sf, so + i);
                    }
                    for i in 0..n {
                        self.phys.write_u8(rf, ro + i, buf[i as usize]);
                    }
                }
            }
            (XferEnd::KernelSrc(c), XferEnd::User(_)) => {
                let (rf, ro) = r_loc.expect("receiver resolved");
                // Disjoint field borrows: read the kernel message in place,
                // no staging allocation.
                match &self.conns.get(c.0).expect("conn").client {
                    ClientEnd::Kernel(km) => {
                        self.phys
                            .write_slice(rf, ro, &km.bytes[km.pos..km.pos + n as usize]);
                    }
                    ClientEnd::Thread(_) => unreachable!("kernel src on user client"),
                }
            }
            (XferEnd::Buffered(port), XferEnd::User(_)) => {
                let (rf, ro) = r_loc.expect("receiver resolved");
                match self.objects.get(port).map(|o| &o.data) {
                    Some(ObjData::Port { buffered, .. }) => {
                        let m = buffered.front().expect("buffered head");
                        self.phys
                            .write_slice(rf, ro, &m.bytes[m.pos..m.pos + n as usize]);
                    }
                    _ => unreachable!("buffered source on a dead port"),
                }
            }
            (XferEnd::User(_), XferEnd::KernelSink(c)) => {
                let (sf, so) = s_loc.expect("sender resolved");
                if let Some(conn) = self.conns.get_mut(c.0) {
                    if let ClientEnd::Kernel(km) = &mut conn.client {
                        // Grow the reply and read straight into the tail.
                        let at = km.reply.len();
                        km.reply.resize(at + n as usize, 0);
                        self.phys.read_slice(sf, so, &mut km.reply[at..]);
                    }
                }
            }
            _ => unreachable!("kernel-to-kernel transfer"),
        }
    }

    /// The transfer pump: move bytes from `sender` to `receiver` until the
    /// message completes, the window fills, or something interrupts. This
    /// is the one loop that moves IPC bytes into a user window.
    ///
    /// `restarts` are the `eax` values that bring each end to its clean
    /// restart entrypoint; the pump installs them *before* any block or
    /// preemption, maintaining the atomic-API invariant.
    ///
    /// The current thread *drives* the transfer when it is one of the
    /// ends. The one caller where it is not is the flush of a port's
    /// kernel buffer ([`Kernel::flush_buffered`]), which delivers
    /// `Buffered` messages into blocked receivers from the submitting
    /// thread's context. Not driving, the pump takes no preemption point
    /// (there is no end to restart), retries a cross-space soft fault in
    /// place (there is no call to restart), and records the message's
    /// flow edge from the current thread to the receiver.
    #[allow(clippy::too_many_arguments)]
    fn pump(
        &mut self,
        conn: Option<ConnId>,
        dir: Option<Dir>,
        sender: XferEnd,
        receiver: XferEnd,
        current: ThreadId,
        sender_restart: Sys,
        receiver_restart: Sys,
    ) -> PumpOut {
        let drives = sender == XferEnd::User(current) || receiver == XferEnd::User(current);
        let every = self.preempt_every().filter(|_| drives);
        let mut since_check: u32 = 0;
        loop {
            let s_rem = self.end_avail(sender);
            if s_rem == 0 {
                if let (Some(c), Some(d)) = (conn, dir) {
                    if let Some(cc) = self.conns.get_mut(c.0) {
                        cc.set_open(d, false);
                    }
                }
                self.stats.ipc_messages += 1;
                // A message between two user threads is a causal edge
                // between their requests; a flushed one, an edge from the
                // flushing thread.
                let flow = match (sender, receiver) {
                    (XferEnd::User(st), XferEnd::User(rt)) => Some((st, rt)),
                    (_, XferEnd::User(rt)) if !drives => Some((current, rt)),
                    _ => None,
                };
                self.probe(Probe::IpcMessage {
                    thread: current,
                    flow,
                });
                return PumpOut::Complete;
            }
            let r_rem = self.end_avail(receiver);
            if r_rem == 0 {
                return PumpOut::WindowFull;
            }
            let s_ptr = self.end_ptr(sender, true);
            let r_ptr = self.end_ptr(receiver, false);
            let mut chunk = s_rem.min(r_rem);
            if matches!(sender, XferEnd::User(_)) {
                chunk = chunk.min(PAGE_SIZE - s_ptr % PAGE_SIZE);
            }
            if matches!(receiver, XferEnd::User(_)) {
                chunk = chunk.min(PAGE_SIZE - r_ptr % PAGE_SIZE);
            }
            if let Some(every) = every {
                chunk = chunk.min(every - since_check % every);
            }
            // Translate both pages, attributing faults to transfer sides.
            let s_loc = match self.end_translate(conn, sender, s_ptr, false, current) {
                Ok(loc) => loc,
                Err((PumpFault::SoftCross, _)) if !drives => continue,
                Err((f, st)) => return self.pump_fault(f, st, current, sender_restart),
            };
            let r_loc = match self.end_translate(conn, receiver, r_ptr, true, current) {
                Ok(loc) => loc,
                Err((PumpFault::SoftCross, _)) if !drives => continue,
                Err((f, rt)) => return self.pump_fault(f, rt, current, receiver_restart),
            };
            self.move_bytes(sender, s_loc, receiver, r_loc, chunk);
            // New bytes moved: the preamble (rollback) phase is over.
            self.progress();
            self.charge_in(Phase::IpcCopy, self.cost.copy_byte_per * chunk as u64);
            self.end_advance(sender, true, chunk);
            self.end_advance(receiver, false, chunk);
            self.stats.ipc_bytes += chunk as u64;
            self.probe(Probe::IpcTransfer {
                thread: current,
                bytes: chunk,
            });
            since_check += chunk;
            if every.is_some_and(|every| since_check >= every) {
                since_check = 0;
                self.charge(self.cost.preempt_check);
                if self.cur_cpu_mut().resched {
                    self.stats.preempt_points_taken += 1;
                    let restart = if XferEnd::User(current) == sender {
                        sender_restart
                    } else {
                        receiver_restart
                    };
                    self.set_reg_committed(current, Reg::Eax, restart.num());
                    self.preempt_current_in_kernel(current);
                    return PumpOut::Preempted;
                }
            }
        }
    }

    /// Translate the page under a user end's pointer (`None` for a kernel
    /// end), attributing a fault to the end's thread and Table 3 side. A
    /// thread without a space is a fatal fault.
    fn end_translate(
        &mut self,
        conn: Option<ConnId>,
        end: XferEnd,
        ptr: u32,
        write: bool,
        current: ThreadId,
    ) -> Result<Option<(FrameId, u32)>, (PumpFault, ThreadId)> {
        let XferEnd::User(t) = end else {
            return Ok(None);
        };
        let side = self.side_of(conn, t);
        let space = self
            .threads
            .get(t.0)
            .and_then(|x| x.space)
            .ok_or((PumpFault::Fatal, t))?;
        self.pump_translate(current, space, ptr, write, side)
            .map(Some)
            .map_err(|f| (f, t))
    }

    /// Which Table 3 side a thread is on for this connection.
    fn side_of(&self, conn: Option<ConnId>, t: ThreadId) -> FaultSide {
        let Some(c) = conn.and_then(|c| self.conns.get(c.0)) else {
            // One-way transfers: label the sender side as client.
            return FaultSide::Client;
        };
        if c.client_thread() == Some(t) {
            FaultSide::Client
        } else if c.server == Some(t) {
            FaultSide::Server
        } else {
            FaultSide::Other
        }
    }

    /// Destroy an end's thread after a fatal fault.
    fn pump_fatal(&mut self, victim: ThreadId, current: ThreadId) -> PumpOut {
        self.stats.fatal_faults += 1;
        self.kill_thread(victim, "fatal fault during IPC");
        if victim == current {
            PumpOut::FatalCurrent
        } else {
            PumpOut::FatalPeer
        }
    }

    /// Unwind a pump fault to clean points on both sides. Both ends'
    /// registers already reflect exact partial progress (the pump advances
    /// them after every chunk); only the faulting thread's entrypoint
    /// register needs rewriting, to its side's `*_more` restart point.
    fn pump_fault(
        &mut self,
        fault: PumpFault,
        faulter: ThreadId,
        current: ThreadId,
        faulter_restart: Sys,
    ) -> PumpOut {
        match fault {
            PumpFault::SoftCross => {
                // Remedied inline; restart the current call for
                // revalidation. Rollback accrues to the fault record.
                let rec = self.stats.fault_records.len().saturating_sub(1);
                self.rollback_active = true;
                self.dispatch_rollback = Some(rec);
                self.stats.restarts += 1;
                PumpOut::RestartCurrent
            }
            PumpFault::Hard {
                region,
                offset,
                keeper,
                write,
                side,
            } => {
                self.set_reg_committed(faulter, Reg::Eax, faulter_restart.num());
                self.raise_hard_fault(faulter, region, offset, write, keeper, side, true, true);
                if faulter == current {
                    PumpOut::BlockedCurrent
                } else {
                    PumpOut::PeerFaulted
                }
            }
            PumpFault::Fatal => self.pump_fatal(faulter, current),
        }
    }

    // ------------------------------------------------------------------
    // Send-family entrypoints.
    // ------------------------------------------------------------------

    /// `ipc_client_connect(ebx=port_ref)`.
    pub(crate) fn sys_ipc_client_connect(&mut self, cx: &mut SysCtx) -> SysResult {
        let _ = self.ensure_connected(cx)?;
        Ok(SysOutcome::Done(ErrorCode::Success))
    }

    /// `ipc_client_connect_send[_over_receive]`: stage the continuation
    /// bits, connect, then send.
    pub(crate) fn sys_ipc_client_connect_send(&mut self, cx: &mut SysCtx, over: bool) -> SysResult {
        self.stage_after_send(
            cx,
            if over {
                AfterSend::Receive
            } else {
                AfterSend::Complete
            },
        );
        let conn = self.ensure_connected(cx)?;
        self.do_send(cx, IpcRole::Client, conn)
    }

    /// `ipc_client_send[_over_receive]`: send on the existing connection.
    pub(crate) fn sys_ipc_client_send(&mut self, cx: &mut SysCtx, over: bool) -> SysResult {
        self.stage_after_send(
            cx,
            if over {
                AfterSend::Receive
            } else {
                AfterSend::Complete
            },
        );
        let conn = self.require_conn(cx.t, IpcRole::Client)?;
        self.do_send(cx, IpcRole::Client, conn)
    }

    /// `ipc_server_send` and friends: send on the server end.
    pub(crate) fn sys_ipc_server_send(&mut self, cx: &mut SysCtx, after: AfterSend) -> SysResult {
        self.stage_after_send(cx, after);
        let conn = self.require_conn(cx.t, IpcRole::Server)?;
        self.do_send(cx, IpcRole::Server, conn)
    }

    /// `ipc_*_send_more`: the restart entrypoints — continuation bits are
    /// already in `pr1`, partial progress in `esi`/`ecx`.
    pub(crate) fn sys_ipc_send_more(&mut self, cx: &mut SysCtx, role: IpcRole) -> SysResult {
        let conn = self.require_conn(cx.t, role)?;
        self.do_send(cx, role, conn)
    }

    /// Record the after-send continuation in the pseudo-registers (paper
    /// §4.4: intermediate multi-stage IPC state lives in two pseudo-
    /// registers, visible to user code only through thread state frames).
    /// Staging is part of bringing the registers to the entrypoint's
    /// canonical form, so it commits immediately: the call restarts
    /// identically whether or not staging already ran.
    fn stage_after_send(&mut self, cx: &mut SysCtx, after: AfterSend) {
        let window = cx.arg(self, ARG_VAL);
        cx.set_pr(self, PR_IPC_FLAGS, after.to_flags());
        if matches!(
            after,
            AfterSend::Receive | AfterSend::WaitNext | AfterSend::DisconnectThenWait
        ) {
            cx.set_pr(self, PR_RECV_WINDOW, window);
        }
        cx.commit(self);
    }

    /// The caller must hold a live, accepted connection in `role`.
    fn require_conn(&mut self, t: ThreadId, role: IpcRole) -> Result<ConnId, SysOutcome> {
        if let Some(code) = self.threads.get_mut(t.0).and_then(|x| x.ipc_error.take()) {
            return Err(Self::fail(code));
        }
        let th = self.threads.get(t.0).expect("current");
        let conn = th.ipc.conn.ok_or(Self::fail(ErrorCode::NotConnected))?;
        if th.ipc.role != Some(role) {
            return Err(Self::fail(ErrorCode::NotConnected));
        }
        // Consume a pending alert.
        let alerted = {
            let c = self
                .conns
                .get_mut(conn.0)
                .ok_or(Self::fail(ErrorCode::NotConnected))?;
            let flag = match role {
                IpcRole::Client => &mut c.alert_client,
                IpcRole::Server => &mut c.alert_server,
            };
            std::mem::take(flag)
        };
        if alerted {
            return Err(Self::fail(ErrorCode::Interrupted));
        }
        Ok(conn)
    }

    /// Common send stage.
    fn do_send(&mut self, cx: &mut SysCtx, role: IpcRole, conn: ConnId) -> SysResult {
        let t = cx.t;
        let dir = match role {
            IpcRole::Client => Dir::ClientToServer,
            IpcRole::Server => Dir::ServerToClient,
        };
        let (sender_restart, receiver_restart) = match role {
            IpcRole::Client => (Sys::IpcClientSendMore, Sys::IpcServerReceiveMore),
            IpcRole::Server => (Sys::IpcServerSendMore, Sys::IpcClientReceiveMore),
        };
        self.probe(Probe::IpcSend { thread: t });
        self.charge(self.cost.ipc_setup / 2);
        {
            let c = self
                .conns
                .get_mut(conn.0)
                .ok_or(Self::fail(ErrorCode::NotConnected))?;
            c.set_open(dir, true);
        }
        // Identify the receiver end.
        let receiver = {
            let c = self.conns.get(conn.0).expect("conn");
            let waiting = |rt: ThreadId| {
                self.blocked_for(rt, WaitReason::IpcReceive(conn))
                    .then_some(XferEnd::User(rt))
            };
            match (role, &c.client) {
                (IpcRole::Server, ClientEnd::Kernel(_)) => Some(XferEnd::KernelSink(conn)),
                (IpcRole::Server, ClientEnd::Thread(ct)) => waiting(*ct),
                (IpcRole::Client, _) => c.server.and_then(waiting),
            }
        };
        let Some(receiver) = receiver else {
            // No window yet: sleep at the *_send_more restart point.
            cx.set_reg_committed(self, Reg::Eax, sender_restart.num());
            return Ok(cx.block(self, WaitReason::IpcSend(conn)));
        };
        let out = self.pump(
            Some(conn),
            Some(dir),
            XferEnd::User(t),
            receiver,
            t,
            sender_restart,
            receiver_restart,
        );
        match out {
            PumpOut::Complete => {
                // Complete the receiver.
                match receiver {
                    XferEnd::User(rt) => self.complete_blocked(rt, ErrorCode::Success),
                    XferEnd::KernelSink(c) => self.complete_fault(c),
                    XferEnd::KernelSrc(_) | XferEnd::Buffered(_) => unreachable!(),
                }
                self.after_send_transition(t, conn)
            }
            PumpOut::WindowFull => {
                // Receiver's window filled mid-message: it completes with
                // Truncated; the sender sleeps awaiting a fresh window.
                if let XferEnd::User(rt) = receiver {
                    self.complete_blocked(rt, ErrorCode::Truncated);
                }
                cx.set_reg_committed(self, Reg::Eax, sender_restart.num());
                Ok(cx.block(self, WaitReason::IpcSend(conn)))
            }
            PumpOut::BlockedCurrent => Ok(SysOutcome::Block),
            PumpOut::RestartCurrent => {
                cx.set_reg(self, Reg::Eax, sender_restart.num());
                Ok(SysOutcome::Chain)
            }
            PumpOut::PeerFaulted => {
                cx.set_reg_committed(self, Reg::Eax, sender_restart.num());
                Ok(cx.block(self, WaitReason::IpcSend(conn)))
            }
            PumpOut::Preempted => Ok(SysOutcome::Preempted),
            PumpOut::FatalCurrent => Ok(SysOutcome::Kill("fatal IPC fault")),
            PumpOut::FatalPeer => {
                self.disconnect(conn, ErrorCode::PeerDisconnected);
                Err(Self::fail(ErrorCode::PeerDisconnected))
            }
        }
    }

    /// After a send completes for the *current* thread: apply the
    /// continuation encoded in `pr1`.
    fn after_send_transition(&mut self, t: ThreadId, conn: ConnId) -> SysResult {
        let next = match self.after_send_of(t) {
            (AfterSend::Complete, _) => return Ok(SysOutcome::Done(ErrorCode::Success)),
            (AfterSend::Disconnect, _) => {
                self.threads.get_mut(t.0).expect("current").regs.pr[PR_IPC_FLAGS] = 0;
                self.disconnect_from(conn, ErrorCode::PeerDisconnected, Some(t));
                return Ok(SysOutcome::Done(ErrorCode::Success));
            }
            (AfterSend::Receive, IpcRole::Client) => Sys::IpcClientReceive,
            (AfterSend::Receive | AfterSend::WaitNext, _) => Sys::IpcServerReceive,
            (AfterSend::DisconnectThenWait, _) => {
                self.disconnect_from(conn, ErrorCode::PeerDisconnected, Some(t));
                Sys::IpcServerWaitReceive
            }
        };
        self.rearm_receive(t, next);
        Ok(SysOutcome::Chain)
    }

    /// After a blocked sender's message is completed by the receiver:
    /// apply the sender's continuation without running it ("continuation
    /// recognition" on behalf of user code).
    fn blocked_sender_transition(&mut self, sender: ThreadId, conn: ConnId) {
        match self.after_send_of(sender) {
            (AfterSend::Complete, _) => self.complete_blocked(sender, ErrorCode::Success),
            (after @ (AfterSend::Receive | AfterSend::WaitNext), role) => {
                // Transition Blocked(IpcSend) → Blocked(IpcReceive): the
                // sender now awaits the reply (or, for a server, the next
                // request); its registers fully describe that wait.
                let reason = WaitReason::IpcReceive(conn);
                self.probe(Probe::Rewait {
                    thread: sender,
                    reason,
                });
                let next = match (after, role) {
                    (AfterSend::Receive, IpcRole::Client) => Sys::IpcClientReceiveMore,
                    _ => Sys::IpcServerReceiveMore,
                };
                self.rearm_receive(sender, next);
                let th = self.threads.get_mut(sender.0).expect("sender");
                th.state = RunState::Blocked(reason);
                th.inflight = Some(next);
            }
            (AfterSend::Disconnect, _) => {
                self.complete_blocked(sender, ErrorCode::Success);
                self.disconnect_from(conn, ErrorCode::PeerDisconnected, Some(sender));
            }
            (AfterSend::DisconnectThenWait, _) => {
                // Wake the server to go wait for its next request.
                self.rearm_receive(sender, Sys::IpcServerWaitReceive);
                self.threads.get_mut(sender.0).expect("sender").inflight =
                    Some(Sys::IpcServerWaitReceive);
                self.unblock(sender);
                self.disconnect_from(conn, ErrorCode::PeerDisconnected, Some(sender));
            }
        }
    }

    /// A sender's continuation (`pr1`) and connection role.
    fn after_send_of(&self, t: ThreadId) -> (AfterSend, IpcRole) {
        let th = self.threads.get(t.0);
        let flags = th.map_or(0, |x| x.regs.pr[PR_IPC_FLAGS]);
        let role = th.and_then(|x| x.ipc.role).unwrap_or(IpcRole::Client);
        (AfterSend::from_flags(flags), role)
    }

    /// Point a sender whose message is done at its receive stage `next`:
    /// the count register takes the staged receive window and the
    /// continuation flags clear.
    fn rearm_receive(&mut self, t: ThreadId, next: Sys) {
        let th = self.threads.get_mut(t.0).expect("sender");
        let window = th.regs.pr[PR_RECV_WINDOW];
        th.regs.set(ARG_COUNT, window);
        th.regs.pr[PR_IPC_FLAGS] = 0;
        th.regs.set(Reg::Eax, next.num());
    }

    // ------------------------------------------------------------------
    // Receive-family entrypoints.
    // ------------------------------------------------------------------

    /// `ipc_{client,server}_receive[_more]` and `ipc_client_ack_receive`.
    pub(crate) fn sys_ipc_receive(
        &mut self,
        cx: &mut SysCtx,
        role: IpcRole,
        _more: bool,
    ) -> SysResult {
        let conn = self.require_conn(cx.t, role)?;
        self.do_receive(cx, role, conn)
    }

    /// Common receive stage.
    fn do_receive(&mut self, cx: &mut SysCtx, role: IpcRole, conn: ConnId) -> SysResult {
        let t = cx.t;
        let dir = match role {
            IpcRole::Client => Dir::ServerToClient,
            IpcRole::Server => Dir::ClientToServer,
        };
        let (sender_restart, receiver_restart) = match role {
            IpcRole::Client => (Sys::IpcServerSendMore, Sys::IpcClientReceiveMore),
            IpcRole::Server => (Sys::IpcClientSendMore, Sys::IpcServerReceiveMore),
        };
        self.probe(Probe::IpcReceive { thread: t });
        self.charge(self.cost.ipc_setup / 2);
        // Identify a ready sender.
        let sender = {
            let c = self
                .conns
                .get(conn.0)
                .ok_or(Self::fail(ErrorCode::NotConnected))?;
            let ready = |st: ThreadId| {
                (self.blocked_for(st, WaitReason::IpcSend(conn)) && c.open(dir))
                    .then_some(XferEnd::User(st))
            };
            match (role, &c.client) {
                (IpcRole::Server, ClientEnd::Kernel(km)) => {
                    (km.pos < km.bytes.len() || c.open(dir)).then_some(XferEnd::KernelSrc(conn))
                }
                (IpcRole::Server, ClientEnd::Thread(ct)) => ready(*ct),
                (IpcRole::Client, _) => c.server.and_then(ready),
            }
        };
        let Some(sender) = sender else {
            cx.set_reg_committed(self, Reg::Eax, receiver_restart.num());
            return Ok(cx.block(self, WaitReason::IpcReceive(conn)));
        };
        let out = self.pump(
            Some(conn),
            Some(dir),
            sender,
            XferEnd::User(t),
            t,
            sender_restart,
            receiver_restart,
        );
        match out {
            PumpOut::Complete => {
                match sender {
                    XferEnd::User(st) => self.blocked_sender_transition(st, conn),
                    XferEnd::KernelSrc(_) => {}
                    XferEnd::KernelSink(_) | XferEnd::Buffered(_) => unreachable!(),
                }
                Ok(SysOutcome::Done(ErrorCode::Success))
            }
            PumpOut::WindowFull => Ok(SysOutcome::Done(ErrorCode::Truncated)),
            PumpOut::BlockedCurrent => Ok(SysOutcome::Block),
            PumpOut::RestartCurrent => {
                cx.set_reg(self, Reg::Eax, receiver_restart.num());
                Ok(SysOutcome::Chain)
            }
            PumpOut::PeerFaulted => {
                cx.set_reg_committed(self, Reg::Eax, receiver_restart.num());
                Ok(cx.block(self, WaitReason::IpcReceive(conn)))
            }
            PumpOut::Preempted => Ok(SysOutcome::Preempted),
            PumpOut::FatalCurrent => Ok(SysOutcome::Kill("fatal IPC fault")),
            PumpOut::FatalPeer => {
                self.disconnect(conn, ErrorCode::PeerDisconnected);
                Err(Self::fail(ErrorCode::PeerDisconnected))
            }
        }
    }

    /// `ipc_server_wait_receive(ebx=port|pset, edi=buf, ecx=window)`.
    pub(crate) fn sys_ipc_server_wait_receive(&mut self, cx: &mut SysCtx) -> SysResult {
        let t = cx.t;
        // Already connected (e.g. chained from a send): just receive.
        if self.threads.get(t.0).and_then(|x| x.ipc.conn).is_some() {
            let conn = self.require_conn(t, IpcRole::Server)?;
            return self.do_receive(cx, IpcRole::Server, conn);
        }
        let h = cx.arg(self, ARG_HANDLE);
        let id = self.lookup_handle(t, h)?;
        self.klock_section();
        self.charge(self.cost.object_op);
        self.progress();
        match self.objects.get(id).map(|o| o.ty()) {
            Some(ObjType::Port) => {
                if self.try_accept_from_port(t, id)? {
                    let conn = self.threads.get(t.0).and_then(|x| x.ipc.conn).unwrap();
                    return self.do_receive(cx, IpcRole::Server, conn);
                }
                let Some(ObjData::Port { server_q, .. }) =
                    self.objects.get_mut(id).map(|o| &mut o.data)
                else {
                    return Err(Self::fail(ErrorCode::InvalidHandle));
                };
                server_q.enqueue(t, &mut self.stats.waitq);
                Ok(cx.block(self, WaitReason::PortWait(id)))
            }
            Some(ObjType::Portset) => {
                let members: Vec<ObjId> = match self.objects.get(id).map(|o| &o.data) {
                    Some(ObjData::Pset { members, .. }) => members.clone(),
                    _ => return Err(Self::fail(ErrorCode::InvalidHandle)),
                };
                for m in members {
                    if self.try_accept_from_port(t, m)? {
                        let conn = self.threads.get(t.0).and_then(|x| x.ipc.conn).unwrap();
                        return self.do_receive(cx, IpcRole::Server, conn);
                    }
                }
                let Some(ObjData::Pset { server_q, .. }) =
                    self.objects.get_mut(id).map(|o| &mut o.data)
                else {
                    return Err(Self::fail(ErrorCode::InvalidHandle));
                };
                server_q.enqueue(t, &mut self.stats.waitq);
                Ok(cx.block(self, WaitReason::PsetWait(id)))
            }
            _ => Err(Self::fail(ErrorCode::WrongType)),
        }
    }

    // ------------------------------------------------------------------
    // Disconnect and alert.
    // ------------------------------------------------------------------

    /// `ipc_{client,server}_disconnect()`.
    pub(crate) fn sys_ipc_disconnect(&mut self, cx: &mut SysCtx, role: IpcRole) -> SysResult {
        let t = cx.t;
        let th = self.threads.get(t.0).expect("current");
        let Some(conn) = th.ipc.conn else {
            return Ok(SysOutcome::Done(ErrorCode::NotConnected));
        };
        if th.ipc.role != Some(role) {
            return Ok(SysOutcome::Done(ErrorCode::NotConnected));
        }
        self.charge(self.cost.object_op);
        self.progress();
        self.disconnect_from(conn, ErrorCode::PeerDisconnected, Some(t));
        Ok(SysOutcome::Done(ErrorCode::Success))
    }

    /// `ipc_{client,server}_alert()`: interrupt the peer's pending IPC
    /// operation promptly (without destroying the connection).
    pub(crate) fn sys_ipc_alert(&mut self, cx: &mut SysCtx, role: IpcRole) -> SysResult {
        let t = cx.t;
        let th = self.threads.get(t.0).expect("current");
        let Some(conn) = th.ipc.conn else {
            return Ok(SysOutcome::Done(ErrorCode::NotConnected));
        };
        if th.ipc.role != Some(role) {
            return Ok(SysOutcome::Done(ErrorCode::NotConnected));
        }
        self.charge(self.cost.object_op);
        self.progress();
        let peer = {
            let c = self
                .conns
                .get(conn.0)
                .ok_or(Self::fail(ErrorCode::NotConnected))?;
            match role {
                IpcRole::Client => c.server,
                IpcRole::Server => c.client_thread(),
            }
        };
        let Some(peer) = peer else {
            return Ok(SysOutcome::Done(ErrorCode::Success));
        };
        if self.blocked_for(peer, WaitReason::IpcSend(conn))
            || self.blocked_for(peer, WaitReason::IpcReceive(conn))
        {
            self.complete_blocked(peer, ErrorCode::Interrupted);
        } else if let Some(c) = self.conns.get_mut(conn.0) {
            match role {
                IpcRole::Client => c.alert_server = true,
                IpcRole::Server => c.alert_client = true,
            }
        }
        Ok(SysOutcome::Done(ErrorCode::Success))
    }

    // ------------------------------------------------------------------
    // One-way messages (connectionless rendezvous on a port).
    // ------------------------------------------------------------------

    /// Both halves of the one-way rendezvous: `ipc_send_oneway(ebx=
    /// port_ref, esi=buf, ecx=count)` when `send`, else
    /// `ipc_[wait_]receive_oneway(ebx=port, edi=buf, ecx=window)`. Pair
    /// with a peer blocked on the port and pump the message, or wait on
    /// the port (a receive only if `wait`).
    pub(crate) fn sys_ipc_oneway(&mut self, cx: &mut SysCtx, send: bool, wait: bool) -> SysResult {
        let t = cx.t;
        let h = cx.arg(self, ARG_HANDLE);
        let port = self.port_handle(t, h)?;
        self.charge(self.cost.ipc_setup / 2);
        self.progress();
        // Kernel-buffered messages (queued by the batched-submission path)
        // were sent first: a receive takes the head one as its peer, a
        // send flushes them before its own. The check is free when the
        // buffer is empty, which it always is for programs that never call
        // `ipc_submit` (and whenever a receiver waits: every buffering
        // site flushes and every receiver-enqueue site drains the buffer
        // first, and `check_invariants` checks that a port never holds
        // both).
        let buffered = self.port_has_buffered(port);
        if buffered && send {
            self.flush_buffered(t, port);
        }
        let peer = if buffered && !send {
            XferEnd::Buffered(port)
        } else {
            let popped = match wait_queue_of!(self, oneway_reason(port, !send), get_mut, mut) {
                Some(q) => q.pop(&mut self.stats.waitq),
                None => return Err(Self::fail(ErrorCode::InvalidHandle)),
            };
            let Some(peer) = popped else {
                if !wait {
                    return Ok(SysOutcome::Done(ErrorCode::WouldBlock));
                }
                return self.oneway_wait(cx, port, send);
            };
            XferEnd::User(peer)
        };
        let me = XferEnd::User(t);
        let out = if send {
            self.oneway_pump(me, peer, t)
        } else {
            self.oneway_pump(peer, me, t)
        };
        match out {
            PumpOut::Complete => {
                self.complete_oneway_end(peer, ErrorCode::Success);
                Ok(SysOutcome::Done(ErrorCode::Success))
            }
            PumpOut::WindowFull => {
                // One-way: excess bytes are dropped; both sides learn it.
                self.complete_oneway_end(peer, ErrorCode::Truncated);
                Ok(SysOutcome::Done(ErrorCode::Truncated))
            }
            PumpOut::BlockedCurrent
            | PumpOut::RestartCurrent
            | PumpOut::Preempted
            | PumpOut::FatalCurrent => {
                // The transfer restarts later (the current thread's fault
                // is serviced, or it runs again) or never (it died): a
                // user peer goes back to the head of its queue; a buffered
                // one never left the head of the buffer.
                if let XferEnd::User(peer) = peer {
                    if let Some(q) = wait_queue_of!(self, oneway_reason(port, !send), get_mut, mut)
                    {
                        q.requeue_front(peer, &mut self.stats.waitq);
                    }
                }
                Ok(match out {
                    PumpOut::BlockedCurrent => SysOutcome::Block,
                    PumpOut::Preempted => SysOutcome::Preempted,
                    PumpOut::FatalCurrent => SysOutcome::Kill("fatal IPC fault"),
                    _ => {
                        cx.set_reg(self, Reg::Eax, oneway_restart(send).num());
                        SysOutcome::Chain
                    }
                })
            }
            PumpOut::PeerFaulted => self.oneway_wait(cx, port, send),
            PumpOut::FatalPeer => Err(Self::fail(ErrorCode::PeerDisconnected)),
        }
    }

    /// Pump a one-way message: no connection, and the one-way restart
    /// points for whichever end faults or is preempted.
    fn oneway_pump(&mut self, sender: XferEnd, receiver: XferEnd, current: ThreadId) -> PumpOut {
        self.pump(
            None,
            None,
            sender,
            receiver,
            current,
            Sys::IpcSendOnewayMore,
            Sys::IpcWaitReceiveOneway,
        )
    }

    /// Finish a one-way end whose message is done (or truncated): a
    /// blocked thread completes with `code`; a buffered source drops its
    /// head message.
    fn complete_oneway_end(&mut self, end: XferEnd, code: ErrorCode) {
        match end {
            XferEnd::User(t) => self.complete_blocked(t, code),
            XferEnd::Buffered(port) => self.pop_buffered(port),
            XferEnd::KernelSrc(_) | XferEnd::KernelSink(_) => unreachable!("one-way kernel end"),
        }
    }

    /// Wait on `port` at the one-way restart point, on the senders' queue
    /// when `send`, else the receivers'.
    fn oneway_wait(&mut self, cx: &mut SysCtx, port: ObjId, send: bool) -> SysResult {
        let reason = oneway_reason(port, send);
        let Some(q) = wait_queue_of!(self, reason, get_mut, mut) else {
            return Err(Self::fail(ErrorCode::InvalidHandle));
        };
        q.enqueue(cx.t, &mut self.stats.waitq);
        cx.set_reg_committed(self, Reg::Eax, oneway_restart(send).num());
        Ok(cx.block(self, reason))
    }

    // ------------------------------------------------------------------
    // Kernel-buffered one-way messages (batched submission).
    // ------------------------------------------------------------------

    /// The head of the port's kernel buffer (messages from `ipc_submit`).
    fn buffered_head(&self, port: ObjId) -> Option<&BufferedMsg> {
        match self.objects.get(port).map(|o| &o.data) {
            Some(ObjData::Port { buffered, .. }) => buffered.front(),
            _ => None,
        }
    }

    /// Does the port hold kernel-buffered messages from `ipc_submit`?
    pub(crate) fn port_has_buffered(&self, port: ObjId) -> bool {
        self.buffered_head(port).is_some()
    }

    /// Flush the port's kernel buffer into its blocked one-way receivers,
    /// in the current thread's context: pop a receiver, pump the head
    /// message into it, complete both. The current thread is neither end,
    /// so the pump does not drive a call (see [`Kernel::pump`]). A
    /// receiver that hard-faults goes to its pager and one that dies is
    /// gone; either way the head message keeps its advanced position and
    /// continues into the next receiver — the split delivery a faulted
    /// rendezvous has. Bounded by the buffer cap.
    pub(crate) fn flush_buffered(&mut self, current: ThreadId, port: ObjId) {
        while self.port_has_buffered(port) {
            let popped = match wait_queue_of!(self, WaitReason::OnewayReceive(port), get_mut, mut) {
                Some(q) => q.pop(&mut self.stats.waitq),
                None => None,
            };
            let Some(rt) = popped else {
                return;
            };
            let (source, receiver) = (XferEnd::Buffered(port), XferEnd::User(rt));
            let code = match self.oneway_pump(source, receiver, current) {
                PumpOut::Complete => ErrorCode::Success,
                PumpOut::WindowFull => ErrorCode::Truncated,
                PumpOut::PeerFaulted | PumpOut::FatalPeer => continue,
                out => unreachable!("the flushing thread is not an end: {out:?}"),
            };
            self.complete_oneway_end(source, code);
            self.complete_oneway_end(receiver, code);
        }
    }

    /// Drop the delivered (or truncated) head message.
    pub(crate) fn pop_buffered(&mut self, port: ObjId) {
        if let Some(ObjData::Port { buffered, .. }) =
            self.objects.get_mut(port).map(|o| &mut o.data)
        {
            buffered.pop_front();
        }
    }
}

/// The wait of a one-way sender (`send`) or receiver on `port`.
fn oneway_reason(port: ObjId, send: bool) -> WaitReason {
    if send {
        WaitReason::OnewaySend(port)
    } else {
        WaitReason::OnewayReceive(port)
    }
}

/// The entrypoint a one-way sender (`send`) or receiver waits and
/// restarts as.
fn oneway_restart(send: bool) -> Sys {
    if send {
        Sys::IpcSendOnewayMore
    } else {
        Sys::IpcWaitReceiveOneway
    }
}
