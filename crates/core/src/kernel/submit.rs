//! `ipc_submit`: batched one-way IPC submission.
//!
//! A batch is a user-memory ring of four-word descriptors (see
//! [`fluke_api::abi`], `SUBMIT_*`). One kernel entry processes as many
//! descriptors as it can, paying the entry/exit cost once instead of per
//! message. Progress is the `edx` done-count, committed only at
//! descriptor boundaries, so the atomic-API contract holds: a fault or
//! preemption mid-batch leaves `{esi=ring, ecx=count, edx=done}` as a
//! complete continuation and the call restarts at the first unfinished
//! descriptor. Per-descriptor work is idempotent up to its commit
//! (result word written before kernel state changes), so replays after
//! a descriptor-page fault are safe.
//!
//! Submitted sends always *buffer*: the message bytes are copied into a
//! bounded kernel queue on the port ([`PORT_BUF_MSGS`] messages of up to
//! [`SUBMIT_MAX_MSG`] bytes) and the send completes without rendezvous.
//! The head of that queue is an ordinary transfer end of the IPC pump
//! (`XferEnd::Buffered`), with its cursor in the message's `pos`: a plain
//! one-way receive takes it as its peer, and after each buffered send the
//! submitter flushes the queue into any blocked plain receivers by
//! pumping it into each in turn. The submitter is not an end of those
//! transfers, so the pump does not *drive* them: no preemption point, a
//! cross-space soft fault retried in place. A descriptor that cannot make
//! progress without sleeping (receive on an empty port, send to a full
//! buffer) is *spilled*: the registers are rewritten to the equivalent
//! plain entrypoint and the dispatch chains to it, exactly the
//! `cond_wait` → `mutex_lock` continuation rewrite — so the blocked
//! thread is indistinguishable from one that called the plain op, and
//! every wait queue holds only plain-shaped continuations. The spilled
//! op's completion is reported through `eax` like any plain call; `edx`
//! still says how many earlier descriptors committed.
//!
//! Ordering: plain receives drain the buffer before rendezvousing with
//! senders, and plain sends flush (or join) the buffer before
//! rendezvousing, so buffered messages never get overtaken on a port.

use fluke_api::abi::{
    ARG_COUNT, ARG_HANDLE, ARG_RBUF, ARG_SBUF, ARG_VAL, PORT_BUF_MSGS, SUBMIT_DESC_WORDS,
    SUBMIT_DONE, SUBMIT_MAX_MSG, SUBMIT_OP_NOWAIT, SUBMIT_OP_RECV, SUBMIT_RESULT_SHIFT,
};
use fluke_api::{ErrorCode, Sys};
use fluke_arch::Reg;

use crate::ids::{ObjId, ThreadId};
use crate::kprof::Phase;
use crate::object::{BufferedMsg, ObjData};
use crate::probe::Probe;

use super::{Kernel, SysCtx, SysOutcome, SysResult};

impl Kernel {
    /// `ipc_submit(esi=ring, ecx=count, edx=done)`.
    pub(crate) fn sys_ipc_submit(&mut self, cx: &mut SysCtx) -> SysResult {
        let t = cx.t;
        let ring = cx.arg(self, ARG_SBUF);
        let count = cx.arg(self, ARG_COUNT);
        let mut done = cx.arg(self, ARG_VAL);
        self.charge(self.cost.ipc_setup / 2);
        self.progress();
        self.stats.ipc_submit_batches += 1;
        while done < count {
            let base = ring.wrapping_add(done.wrapping_mul(SUBMIT_DESC_WORDS * 4));
            // Descriptor reads can fault; nothing is committed yet, so the
            // restart replays this descriptor from the top.
            let mut d = [0u8; 4 * SUBMIT_DESC_WORDS as usize];
            self.copy_from_user(t, base, &mut d)?;
            let word = |i: usize| u32::from_le_bytes([d[i], d[i + 1], d[i + 2], d[i + 3]]);
            let (opflags, port_h, buf, len) = (word(0), word(4), word(8), word(12));
            self.charge(self.cost.ipc_setup / 2);
            self.progress();
            self.stats.ipc_submit_ops += 1;
            if opflags & SUBMIT_OP_RECV != 0 {
                self.submit_recv(cx, opflags, port_h, base, buf, len)?;
            } else {
                self.submit_send(cx, opflags, port_h, base, buf, len)?;
            }
            // Descriptor boundary: commit the advanced cursor. This is
            // also the batch's explicit preemption point — the registers
            // are a clean `ipc_submit` continuation right here.
            done += 1;
            cx.set_reg(self, ARG_VAL, done);
            cx.commit(self);
            if done < count {
                self.charge(self.cost.preempt_check);
                if self.cur_cpu_mut().resched {
                    self.stats.preempt_points_taken += 1;
                    return Ok(cx.preempt(self));
                }
            }
        }
        Ok(SysOutcome::Done(ErrorCode::Success))
    }

    /// Resolve a per-descriptor port handle. Lookup failures complete the
    /// descriptor with the error code (the batch carries on); page faults
    /// propagate and replay the descriptor.
    fn submit_port(
        &mut self,
        t: ThreadId,
        port_h: u32,
        opflags: u32,
        base: u32,
    ) -> Result<Option<ObjId>, SysOutcome> {
        match self.port_handle(t, port_h) {
            Ok(p) => Ok(Some(p)),
            Err(SysOutcome::Done(code)) => {
                self.submit_write_result(t, base, opflags, code)?;
                Ok(None)
            }
            Err(other) => Err(other),
        }
    }

    /// Complete a descriptor: result code and done-bit into word 0.
    fn submit_write_result(
        &mut self,
        t: ThreadId,
        base: u32,
        opflags: u32,
        code: ErrorCode,
    ) -> Result<(), SysOutcome> {
        let word = (opflags & 0xffff) | ((code as u32) << SUBMIT_RESULT_SHIFT) | SUBMIT_DONE;
        self.copy_to_user(t, base, &word.to_le_bytes())
    }

    /// One submitted send: copy the message into the port's kernel buffer
    /// and flush to blocked receivers. Never rendezvouses directly.
    fn submit_send(
        &mut self,
        cx: &mut SysCtx,
        opflags: u32,
        port_h: u32,
        base: u32,
        buf: u32,
        len: u32,
    ) -> Result<(), SysOutcome> {
        let t = cx.t;
        let Some(port) = self.submit_port(t, port_h, opflags, base)? else {
            return Ok(());
        };
        if len > SUBMIT_MAX_MSG {
            return self.submit_write_result(t, base, opflags, ErrorCode::InvalidArg);
        }
        // A plain sender already blocked on the port was sent earlier;
        // buffering now would let this message overtake it (receivers
        // drain the buffer before rendezvousing). Spill behind it instead.
        let senders_queued = matches!(
            self.objects.get(port).map(|o| &o.data),
            Some(ObjData::Port { oneway_senders, .. }) if !oneway_senders.is_empty()
        );
        if senders_queued || self.buffered_len(port) >= PORT_BUF_MSGS {
            if opflags & SUBMIT_OP_NOWAIT != 0 {
                return self.submit_write_result(t, base, opflags, ErrorCode::WouldBlock);
            }
            // Spill: continue as a plain rendezvous send. The blocked
            // thread is then plain-send-shaped; receivers drain the
            // buffer before rendezvousing, so FIFO holds.
            cx.set_reg(self, ARG_HANDLE, port_h);
            cx.set_reg(self, ARG_SBUF, buf);
            cx.set_reg(self, ARG_COUNT, len);
            cx.set_reg(self, Reg::Eax, Sys::IpcSendOneway.num());
            cx.commit(self);
            return Err(SysOutcome::Chain);
        }
        // Copy user→kernel in the submitter's context (faults replay the
        // descriptor; nothing below has happened yet).
        let mut bytes = vec![0u8; len as usize];
        self.copy_from_user(t, buf, &mut bytes)?;
        self.charge_in(Phase::IpcCopy, self.cost.copy_byte_per * len as u64);
        // Commit order: result word (replay-idempotent), then the
        // irreversible kernel-state change, then the caller's cursor.
        self.submit_write_result(t, base, opflags, ErrorCode::Success)?;
        let Some(ObjData::Port { buffered, .. }) = self.objects.get_mut(port).map(|o| &mut o.data)
        else {
            return Ok(()); // port died after the result was written
        };
        buffered.push_back(BufferedMsg { bytes, pos: 0 });
        self.stats.ipc_submit_buffered += 1;
        self.flush_buffered(t, port);
        Ok(())
    }

    /// One submitted receive: drain the port's kernel buffer if it has a
    /// message; otherwise spill to the plain receive entrypoint (which
    /// rendezvouses or sleeps) or complete with `WouldBlock`.
    fn submit_recv(
        &mut self,
        cx: &mut SysCtx,
        opflags: u32,
        port_h: u32,
        base: u32,
        buf: u32,
        len: u32,
    ) -> Result<(), SysOutcome> {
        let t = cx.t;
        let Some(port) = self.submit_port(t, port_h, opflags, base)? else {
            return Ok(());
        };
        if self.port_has_buffered(port) {
            // Deliver the head message's tail into this descriptor's
            // buffer. `pos` is only advanced at completion: a fault
            // mid-copy replays the whole descriptor, rewriting the same
            // bytes — idempotent, and immune to cursor drift.
            let (bytes, pos) = {
                let Some(ObjData::Port { buffered, .. }) =
                    self.objects.get_mut(port).map(|o| &mut o.data)
                else {
                    return self.submit_write_result(t, base, opflags, ErrorCode::InvalidHandle);
                };
                let m = buffered.front().expect("checked non-empty");
                (m.bytes.clone(), m.pos)
            };
            let avail = (bytes.len() - pos) as u32;
            let deliver = avail.min(len);
            self.copy_to_user(t, buf, &bytes[pos..pos + deliver as usize])?;
            self.charge_in(Phase::IpcCopy, self.cost.copy_byte_per * deliver as u64);
            let code = if deliver < avail {
                ErrorCode::Truncated // excess dropped, as in plain one-way
            } else {
                ErrorCode::Success
            };
            self.copy_to_user(t, base + 12, &deliver.to_le_bytes())?;
            self.submit_write_result(t, base, opflags, code)?;
            self.pop_buffered(port);
            self.stats.ipc_bytes += deliver as u64;
            self.stats.ipc_messages += 1;
            self.probe(Probe::IpcMessage {
                thread: t,
                flow: None,
            });
            return Ok(());
        }
        let has_sender = matches!(
            self.objects.get(port).map(|o| &o.data),
            Some(ObjData::Port { oneway_senders, .. }) if !oneway_senders.is_empty()
        );
        if !has_sender && opflags & SUBMIT_OP_NOWAIT != 0 {
            return self.submit_write_result(t, base, opflags, ErrorCode::WouldBlock);
        }
        // Spill: rendezvous (or sleep) as the plain receive entrypoint.
        cx.set_reg(self, ARG_HANDLE, port_h);
        cx.set_reg(self, ARG_RBUF, buf);
        cx.set_reg(self, ARG_COUNT, len);
        let entry = if opflags & SUBMIT_OP_NOWAIT != 0 {
            Sys::IpcReceiveOneway
        } else {
            Sys::IpcWaitReceiveOneway
        };
        cx.set_reg(self, Reg::Eax, entry.num());
        cx.commit(self);
        Err(SysOutcome::Chain)
    }

    /// Number of kernel-buffered messages on a port.
    pub(crate) fn buffered_len(&self, port: ObjId) -> usize {
        match self.objects.get(port).map(|o| &o.data) {
            Some(ObjData::Port { buffered, .. }) => buffered.len(),
            _ => 0,
        }
    }
}
