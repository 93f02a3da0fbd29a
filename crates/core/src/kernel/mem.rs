//! Address translation, the memory-mapping hierarchy walk, and fault
//! resolution.
//!
//! A fault is **soft** when the kernel can derive a page-table entry from
//! an entry higher in the mapping hierarchy (resolved inline, ~19–29µs in
//! the paper's Table 3) and **hard** when the chain bottoms out at a region
//! with a *keeper*: the kernel then converts the fault into an exception
//! IPC to the keeper port — an RPC to a user-level memory manager — and the
//! faulting thread blocks at a clean restart point until the reply.

use fluke_api::abi::{EXC_ACCESS_READ, EXC_ACCESS_WRITE, EXC_MSG_PAGEFAULT, PAGE_SIZE};
use fluke_api::ErrorCode;

use crate::conn::{Connection, KernelMsg};
use crate::ids::{ConnId, ObjId, SpaceId, ThreadId};
use crate::kprof::Phase;
use crate::kstat::{FaultKind, FaultRecord, FaultSide};
use crate::object::ObjData;
use crate::phys::FrameId;
use crate::probe::Probe;
use crate::space::Space;
use crate::thread::WaitReason;

use super::{Kernel, SysOutcome, SysResult};

/// Result of a mapping-hierarchy walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Walk {
    /// A frame was derivable: install a PTE and continue (soft fault).
    Soft {
        /// The backing frame.
        frame: FrameId,
        /// Whether the derived PTE may be writable.
        writable: bool,
        /// Hierarchy levels traversed (cost scales with depth).
        levels: u32,
    },
    /// The chain bottoms out at a kept region without backing: raise an
    /// exception IPC to the keeper (hard fault).
    Hard {
        /// The region whose keeper must supply the page.
        region: ObjId,
        /// Byte offset of the faulting page within the region.
        offset: u32,
        /// The keeper port.
        keeper: ObjId,
    },
    /// No mapping covers the address (or protections forbid the access):
    /// a fatal user error.
    Fatal,
}

impl Kernel {
    /// Walk the mapping hierarchy for `addr` in `space`.
    pub(crate) fn walk_hierarchy(&self, space: SpaceId, addr: u32, write: bool) -> Walk {
        let mut sid = space;
        let mut a = addr;
        let mut levels = 1u32;
        let mut writable_chain = true;
        loop {
            let Some(s) = self.spaces.get(sid.0) else {
                return Walk::Fatal;
            };
            // A PTE at this level (beyond the original space) resolves the
            // walk; the original space was already checked by the caller.
            if levels > 1 {
                if let Some(pte) = s.pte(a) {
                    if write && !(pte.writable && writable_chain) {
                        return Walk::Fatal;
                    }
                    return Walk::Soft {
                        frame: pte.frame,
                        writable: pte.writable && writable_chain,
                        levels: levels - 1,
                    };
                }
            }
            // Find the covering mapping via the space's base-sorted interval
            // index (first in insertion order, same as the linear scan it
            // replaces).
            let found = s.mapping_covering(a).and_then(|mid| {
                match self.objects.get(mid).map(|o| &o.data) {
                    Some(ObjData::Mapping {
                        base,
                        size,
                        region,
                        offset,
                        writable,
                        ..
                    }) if a >= *base && a - *base < *size => {
                        Some((*region, *offset, a - *base, *writable))
                    }
                    _ => None,
                }
            });
            let Some((region_id, map_off, delta, map_writable)) = found else {
                return Walk::Fatal;
            };
            if write && !map_writable {
                return Walk::Fatal;
            }
            writable_chain = writable_chain && map_writable;
            let Some(ObjData::Region {
                owner,
                base: rbase,
                size: rsize,
                keeper,
                ..
            }) = self.objects.get(region_id).map(|o| &o.data)
            else {
                return Walk::Fatal;
            };
            let roff = map_off + delta;
            if roff >= *rsize {
                return Walk::Fatal;
            }
            let src = rbase + roff;
            let Some(owner_space) = self.spaces.get(owner.0) else {
                return Walk::Fatal;
            };
            if let Some(pte) = owner_space.pte(src) {
                if write && !(pte.writable && writable_chain) {
                    return Walk::Fatal;
                }
                return Walk::Soft {
                    frame: pte.frame,
                    writable: pte.writable && writable_chain,
                    levels,
                };
            }
            // Owner lacks the page too: either recurse through the owner's
            // own mappings, or fall to the keeper.
            let owner_has_mapping = owner_space.mapping_covering(src).is_some();
            if owner_has_mapping {
                sid = *owner;
                a = src;
                levels += 1;
                continue;
            }
            if let Some(k) = keeper {
                return Walk::Hard {
                    region: region_id,
                    offset: fluke_api::abi::page_base(roff),
                    keeper: *k,
                };
            }
            return Walk::Fatal;
        }
    }

    /// Resolve a fault on `addr` in `space` for the current thread `t`.
    ///
    /// * Soft — charges the hierarchy walk, installs the PTE, records the
    ///   fault, returns `Ok(())`: the caller retries the access.
    /// * Hard — raises the exception IPC, blocks `t`, returns
    ///   `Err(Block)`.
    /// * Fatal — returns `Err(Kill)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_fault(
        &mut self,
        t: ThreadId,
        space: SpaceId,
        addr: u32,
        write: bool,
        side: FaultSide,
        during_ipc: bool,
        in_syscall: bool,
    ) -> Result<(), SysOutcome> {
        match self.walk_hierarchy(space, addr, write) {
            Walk::Soft {
                frame,
                writable,
                levels,
            } => {
                // Deriving the PTE is remedy work, never rollback.
                self.progress();
                // The mapping hierarchy is kernel data: under full
                // preemption it is mutex-protected.
                self.klock_section();
                let cost = self.cost.soft_fault_resolve * levels as u64
                    + if side == FaultSide::Server {
                        self.cost.server_fault_extra
                    } else {
                        0
                    };
                self.charge_in(Phase::MemFill, cost);
                if let Some(s) = self.spaces.get_mut(space.0) {
                    s.map_page(addr, frame, writable);
                }
                self.stats.soft_faults += 1;
                self.stats.fault_records.push(FaultRecord {
                    side,
                    kind: FaultKind::Soft,
                    remedy_cycles: cost,
                    rollback_cycles: 0,
                    during_ipc,
                    at: self.now(),
                });
                self.probe(Probe::SoftFault {
                    thread: t,
                    addr,
                    remedy: cost,
                });
                Ok(())
            }
            Walk::Hard {
                region,
                offset,
                keeper,
            } => {
                self.raise_hard_fault(
                    t, region, offset, write, keeper, side, during_ipc, in_syscall,
                );
                Err(SysOutcome::Block)
            }
            Walk::Fatal => {
                self.stats.fatal_faults += 1;
                Err(SysOutcome::Kill("unresolvable page fault"))
            }
        }
    }

    /// Convert a hard fault into an exception IPC to the keeper port and
    /// block the faulting thread waiting for the reply.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn raise_hard_fault(
        &mut self,
        t: ThreadId,
        region: ObjId,
        offset: u32,
        write: bool,
        keeper: ObjId,
        side: FaultSide,
        during_ipc: bool,
        in_syscall: bool,
    ) {
        self.stats.hard_faults += 1;
        let record = self.stats.fault_records.len();
        self.stats.fault_records.push(FaultRecord {
            side,
            kind: FaultKind::Hard,
            remedy_cycles: 0, // finalized when the keeper replies
            rollback_cycles: 0,
            during_ipc,
            at: self.now(),
        });
        // Converting the fault into an exception IPC is remedy work. A
        // fault in the non-current (server) space costs extra cross-space
        // validation, exactly as on the soft path (Table 3).
        self.progress();
        self.klock_section();
        let extra = if side == FaultSide::Server {
            self.cost.server_fault_extra
        } else {
            0
        };
        self.charge_in(Phase::FaultIpc, self.cost.hard_fault_kernel + extra);
        let self_token = match self.objects.get(region).map(|o| &o.data) {
            Some(ObjData::Region { self_token, .. }) => *self_token,
            _ => 0,
        };
        let mut bytes = Vec::with_capacity(16);
        for w in [
            EXC_MSG_PAGEFAULT,
            self_token,
            offset,
            if write {
                EXC_ACCESS_WRITE
            } else {
                EXC_ACCESS_READ
            },
        ] {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        let msg = KernelMsg {
            bytes,
            pos: 0,
            fault_thread: t,
            raised_at: self.stats.fault_records[record].at,
            record,
            reply: Vec::new(),
        };
        let conn = ConnId(self.conns.insert(Connection::from_kernel(msg, keeper)));
        // Queue on the keeper port and wake a waiting server.
        if let Some(ObjData::Port { connect_q, .. }) =
            self.objects.get_mut(keeper).map(|o| &mut o.data)
        {
            connect_q.enqueue(conn, &mut self.stats.waitq);
        }
        self.wake_port_server(keeper);
        // Block the faulter at its (by construction clean) restart point.
        self.clear_running_cpu(t);
        let th = self.threads.get_mut(t.0).expect("faulting thread");
        th.open_fault = Some(record);
        th.state = WaitReason::PagerReply(conn).into_blocked();
        // A fault inside a system call restarts that call on wakeup; a
        // fault from a user instruction simply re-executes the
        // instruction and must not be accounted as a syscall restart.
        th.inflight = if in_syscall {
            fluke_api::Sys::from_u32(th.regs.get(fluke_arch::Reg::Eax))
        } else {
            None
        };
        th.kstack_retained = false;
        self.probe(Probe::HardFault { thread: t, offset });
    }

    /// Called when the keeper replies to (or disconnects) an exception IPC:
    /// finalize the Table 3 remedy measurement and wake the faulter.
    pub(crate) fn complete_fault(&mut self, conn: ConnId) {
        let Some(c) = self.conns.get(conn.0) else {
            return;
        };
        let crate::conn::ClientEnd::Kernel(km) = &c.client else {
            return;
        };
        let (t, raised_at, record) = (km.fault_thread, km.raised_at, km.record);
        let now = self.now();
        if let Some(rec) = self.stats.fault_records.get_mut(record) {
            if rec.remedy_cycles == 0 {
                rec.remedy_cycles = now.saturating_sub(raised_at);
            }
        }
        self.probe(Probe::HardFaultDone {
            thread: t,
            remedy: now.saturating_sub(raised_at),
        });
        if self.blocked_for(t, WaitReason::PagerReply(conn)) {
            self.unblock(t);
        }
    }

    // ------------------------------------------------------------------
    // Kernel access to user memory (handler helpers). These resolve soft
    // faults inline and raise hard faults as exception IPC; handlers
    // propagate the resulting outcome with `?`.
    // ------------------------------------------------------------------

    /// Translate a user address for the current thread, resolving faults.
    pub(crate) fn user_translate(
        &mut self,
        t: ThreadId,
        addr: u32,
        write: bool,
    ) -> Result<(FrameId, u32), SysOutcome> {
        let sid = self
            .threads
            .get(t.0)
            .and_then(|x| x.space)
            .ok_or(SysOutcome::Kill("thread without space"))?;
        let fast = self.cfg.fast_mem;
        loop {
            let hit = match self.spaces.get_mut(sid.0) {
                Some(s) if fast => s.translate_cached(addr, write),
                Some(s) => s.translate(addr, write),
                None => None,
            };
            if let Some(hit) = hit {
                return Ok(hit);
            }
            self.handle_fault(t, sid, addr, write, FaultSide::Other, false, true)?;
        }
    }

    /// Read a u32 from the current thread's memory (may fault).
    pub(crate) fn read_user_u32(&mut self, t: ThreadId, addr: u32) -> Result<u32, SysOutcome> {
        let mut b = [0u8; 4];
        for (i, byte) in b.iter_mut().enumerate() {
            let (f, off) = self.user_translate(t, addr.wrapping_add(i as u32), false)?;
            *byte = self.phys.read_u8(f, off);
        }
        Ok(u32::from_le_bytes(b))
    }

    /// Write a u32 to the current thread's memory (may fault).
    pub(crate) fn write_user_u32(
        &mut self,
        t: ThreadId,
        addr: u32,
        val: u32,
    ) -> Result<(), SysOutcome> {
        for (i, byte) in val.to_le_bytes().iter().enumerate() {
            let (f, off) = self.user_translate(t, addr.wrapping_add(i as u32), true)?;
            self.phys.write_u8(f, off, *byte);
        }
        Ok(())
    }

    /// Resolve an object handle (a virtual address in the caller's space)
    /// to the object living at that physical location. Merely *naming* an
    /// object can therefore page-fault and restart — this is why every
    /// handle-taking entrypoint is at least "Short" in Table 1.
    pub(crate) fn lookup_handle(&mut self, t: ThreadId, vaddr: u32) -> Result<ObjId, SysOutcome> {
        let loc = self.user_translate(t, vaddr, false)?;
        self.objects
            .at_loc(loc)
            .ok_or(SysOutcome::Done(ErrorCode::InvalidHandle))
    }

    /// Like [`Kernel::lookup_handle`] but also checks the object type.
    pub(crate) fn lookup_typed(
        &mut self,
        t: ThreadId,
        vaddr: u32,
        ty: fluke_api::ObjType,
    ) -> Result<ObjId, SysOutcome> {
        let id = self.lookup_handle(t, vaddr)?;
        let actual = self
            .objects
            .get(id)
            .map(|o| o.ty())
            .ok_or(SysOutcome::Done(ErrorCode::InvalidHandle))?;
        if actual != ty {
            return Err(SysOutcome::Done(ErrorCode::WrongType));
        }
        Ok(id)
    }

    /// A handler-level `Done(code)` as an error, for use with `?`.
    pub(crate) fn fail(code: ErrorCode) -> SysOutcome {
        SysOutcome::Done(code)
    }

    /// Translate `addr` in an arbitrary space for the IPC pump, reporting
    /// which transfer side faulted. Soft faults are resolved inline (with
    /// the extra cross-space validation cost when the faulting space is not
    /// the current thread's). Hard and fatal faults are returned to the
    /// pump, which brings both transfer ends to clean points first.
    pub(crate) fn pump_translate(
        &mut self,
        current: ThreadId,
        space: SpaceId,
        addr: u32,
        write: bool,
        side: FaultSide,
    ) -> Result<(FrameId, u32), PumpFault> {
        let fast = self.cfg.fast_mem;
        loop {
            let hit = match self.spaces.get_mut(space.0) {
                Some(s) if fast => s.translate_cached(addr, write),
                Some(s) => s.translate(addr, write),
                None => None,
            };
            if let Some(hit) = hit {
                return Ok(hit);
            }
            match self.walk_hierarchy(space, addr, write) {
                Walk::Soft {
                    frame,
                    writable,
                    levels,
                } => {
                    // Deriving the PTE is remedy work, never rollback.
                    self.progress();
                    self.klock_section();
                    let cur_space = self.threads.get(current.0).and_then(|x| x.space);
                    let cross = cur_space != Some(space);
                    let cost = self.cost.soft_fault_resolve * levels as u64
                        + if cross {
                            self.cost.server_fault_extra
                        } else {
                            0
                        };
                    self.charge_in(Phase::MemFill, cost);
                    if let Some(s) = self.spaces.get_mut(space.0) {
                        s.map_page(addr, frame, writable);
                    }
                    self.stats.soft_faults += 1;
                    self.stats.fault_records.push(FaultRecord {
                        side,
                        kind: FaultKind::Soft,
                        remedy_cycles: cost,
                        rollback_cycles: 0,
                        during_ipc: true,
                        at: self.now(),
                    });
                    self.probe(Probe::SoftFault {
                        thread: current,
                        addr,
                        remedy: cost,
                    });
                    if cross {
                        // Conservative revalidation: the transfer restarts
                        // from the (updated) register continuations — the
                        // Table 3 "server-side soft fault" rollback.
                        return Err(PumpFault::SoftCross);
                    }
                    // Same-space soft fault: continue the copy inline
                    // (Table 3 client-side soft fault, rollback "none").
                }
                Walk::Hard {
                    region,
                    offset,
                    keeper,
                } => {
                    return Err(PumpFault::Hard {
                        region,
                        offset,
                        keeper,
                        write,
                        side,
                    });
                }
                Walk::Fatal => return Err(PumpFault::Fatal),
            }
        }
    }
}

/// Fault conditions the IPC pump must unwind to clean points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PumpFault {
    /// A soft fault in the non-current space was resolved, but the transfer
    /// restarts for revalidation.
    SoftCross,
    /// A hard fault: the pump decides which thread blocks on the pager.
    Hard {
        /// Region whose keeper must supply the page.
        region: ObjId,
        /// Page-aligned byte offset within the region.
        offset: u32,
        /// Keeper port.
        keeper: ObjId,
        /// Whether the faulting access was a write.
        write: bool,
        /// Which transfer side faulted.
        side: FaultSide,
    },
    /// Unresolvable: the faulting side's thread is destroyed.
    Fatal,
}

impl WaitReason {
    /// Wrap into the blocked run state (readability helper).
    pub(crate) fn into_blocked(self) -> crate::thread::RunState {
        crate::thread::RunState::Blocked(self)
    }
}

/// Adapter giving the CPU core checked access to a space's memory.
///
/// With `fast` set (the default, [`crate::Config::fast_mem`]), translations
/// go through the space's software TLB and the bulk `read_bytes` /
/// `write_bytes` operations consume whole page runs via
/// `PhysMem::read_slice` / `write_slice`. With `fast` clear, every access
/// is an uncached byte-at-a-time page-table lookup — the reference
/// implementation the fast path must be indistinguishable from.
pub struct SpaceMemAdapter<'a> {
    pub(crate) space: &'a mut Space,
    pub(crate) phys: &'a mut crate::phys::PhysMem,
    pub(crate) fast: bool,
}

impl SpaceMemAdapter<'_> {
    #[inline]
    fn translate(&mut self, addr: u32, write: bool) -> Option<(FrameId, u32)> {
        if self.fast {
            self.space.translate_cached(addr, write)
        } else {
            self.space.translate(addr, write)
        }
    }
}

impl fluke_arch::UserMem for SpaceMemAdapter<'_> {
    #[inline]
    fn read_u8(&mut self, addr: u32) -> Result<u8, fluke_arch::MemFault> {
        match self.translate(addr, false) {
            Some((f, off)) => Ok(self.phys.read_u8(f, off)),
            None => Err(fluke_arch::MemFault {
                addr,
                kind: fluke_arch::AccessKind::Read,
            }),
        }
    }

    #[inline]
    fn write_u8(&mut self, addr: u32, val: u8) -> Result<(), fluke_arch::MemFault> {
        match self.translate(addr, true) {
            Some((f, off)) => {
                self.phys.write_u8(f, off, val);
                Ok(())
            }
            None => Err(fluke_arch::MemFault {
                addr,
                kind: fluke_arch::AccessKind::Write,
            }),
        }
    }

    #[inline]
    fn read_u32(&mut self, addr: u32) -> Result<u32, fluke_arch::MemFault> {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b).map_err(|e| e.fault)?;
        Ok(u32::from_le_bytes(b))
    }

    #[inline]
    fn write_u32(&mut self, addr: u32, val: u32) -> Result<(), fluke_arch::MemFault> {
        // Bulk write keeps the byte-loop contract: bytes before the fault
        // are committed.
        self.write_bytes(addr, &val.to_le_bytes())
            .map_err(|e| e.fault)
    }

    fn read_bytes(&mut self, addr: u32, out: &mut [u8]) -> Result<(), fluke_arch::BulkFault> {
        if !self.fast {
            // Byte-at-a-time reference path.
            for (i, b) in out.iter_mut().enumerate() {
                match self.read_u8(addr.wrapping_add(i as u32)) {
                    Ok(v) => *b = v,
                    Err(fault) => {
                        return Err(fluke_arch::BulkFault {
                            done: i as u32,
                            fault,
                        })
                    }
                }
            }
            return Ok(());
        }
        // Translate once per page run, copy the run as a slice.
        let mut done = 0u32;
        while (done as usize) < out.len() {
            let a = addr.wrapping_add(done);
            let run = (PAGE_SIZE - a % PAGE_SIZE).min(out.len() as u32 - done);
            match self.translate(a, false) {
                Some((f, off)) => {
                    self.phys
                        .read_slice(f, off, &mut out[done as usize..(done + run) as usize]);
                    done += run;
                }
                None => {
                    return Err(fluke_arch::BulkFault {
                        done,
                        fault: fluke_arch::MemFault {
                            addr: a,
                            kind: fluke_arch::AccessKind::Read,
                        },
                    })
                }
            }
        }
        Ok(())
    }

    fn write_bytes(&mut self, addr: u32, data: &[u8]) -> Result<(), fluke_arch::BulkFault> {
        if !self.fast {
            for (i, b) in data.iter().enumerate() {
                if let Err(fault) = self.write_u8(addr.wrapping_add(i as u32), *b) {
                    return Err(fluke_arch::BulkFault {
                        done: i as u32,
                        fault,
                    });
                }
            }
            return Ok(());
        }
        let mut done = 0u32;
        while (done as usize) < data.len() {
            let a = addr.wrapping_add(done);
            let run = (PAGE_SIZE - a % PAGE_SIZE).min(data.len() as u32 - done);
            match self.translate(a, true) {
                Some((f, off)) => {
                    self.phys
                        .write_slice(f, off, &data[done as usize..(done + run) as usize]);
                    done += run;
                }
                None => {
                    return Err(fluke_arch::BulkFault {
                        done,
                        fault: fluke_arch::MemFault {
                            addr: a,
                            kind: fluke_arch::AccessKind::Write,
                        },
                    })
                }
            }
        }
        Ok(())
    }
}

/// Compile-time check that `SysResult` composes with `?` as intended.
#[allow(dead_code)]
fn _sysresult_composes(k: &mut Kernel, t: ThreadId) -> SysResult {
    let h = k.read_user_u32(t, 0)?;
    let _ = k.lookup_handle(t, h)?;
    Err(Kernel::fail(ErrorCode::InvalidArg))
}

const _: () = {
    // PAGE_SIZE is the unit the pump chunks at; keep the assumption visible.
    assert!(PAGE_SIZE == 4096);
};
