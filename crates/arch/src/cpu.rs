//! The simulated CPU: executes user-mode instructions and reports traps.
//!
//! The CPU is mechanism only: it advances a thread's [`UserRegs`] over its
//! [`Program`], charging cycles, until it traps or reaches a deadline (the
//! next timer event, set by the kernel). Interrupt delivery, scheduling and
//! fault handling are kernel policy in `fluke-core`.

use crate::cost::{CostModel, Cycles};
use crate::isa::{Cond, Instr};
use crate::mem::UserMem;
use crate::program::Program;
use crate::regs::{Reg, UserRegs, FLAG_LT, FLAG_ZF};
use crate::trap::Trap;

/// Maximum bytes a string instruction moves per [`Cpu::step`]. Like real
/// hardware, string instructions are interruptible *between* chunks: the
/// registers always hold exact partial progress and `eip` stays at the
/// instruction until the count reaches zero.
pub const REP_CHUNK: u32 = 1024;

/// Why [`Cpu::run_user`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The thread trapped; `eip` points at the trapping instruction.
    Trapped(Trap),
    /// The deadline passed with the thread still running user code.
    DeadlineReached,
}

/// A simulated processor: an id plus a local cycle clock.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// Processor number (0-based).
    pub id: usize,
    /// Local clock in simulated cycles.
    pub now: Cycles,
}

impl Cpu {
    /// Create CPU `id` with its clock at zero.
    pub fn new(id: usize) -> Self {
        Cpu { id, now: 0 }
    }

    /// Execute exactly one instruction (or one chunk of a string
    /// instruction), charging cycles to the CPU clock.
    ///
    /// Returns the trap, if any. On a trap — including a page fault halfway
    /// through a string instruction — `eip` still points at the instruction
    /// and the registers hold exact partial progress, so resolving the
    /// condition and re-running resumes correctly.
    #[inline]
    pub fn step<M: UserMem + ?Sized>(
        &mut self,
        regs: &mut UserRegs,
        prog: &Program,
        mem: &mut M,
        cost: &CostModel,
    ) -> Option<Trap> {
        let instr = match prog.fetch(regs.eip) {
            Some(i) => i,
            None => {
                self.now += cost.user_instr;
                return Some(Trap::Illegal);
            }
        };
        match instr {
            Instr::MovI(d, v) => {
                regs.set(d, v);
                self.retire(regs, cost)
            }
            Instr::Mov(d, s) => {
                let v = regs.get(s);
                regs.set(d, v);
                self.retire(regs, cost)
            }
            Instr::Add(d, s) => {
                let v = regs.get(d).wrapping_add(regs.get(s));
                regs.set(d, v);
                self.retire(regs, cost)
            }
            Instr::AddI(d, i) => {
                let v = regs.get(d).wrapping_add(i);
                regs.set(d, v);
                self.retire(regs, cost)
            }
            Instr::Sub(d, s) => {
                let v = regs.get(d).wrapping_sub(regs.get(s));
                regs.set(d, v);
                self.retire(regs, cost)
            }
            Instr::SubI(d, i) => {
                let v = regs.get(d).wrapping_sub(i);
                regs.set(d, v);
                self.retire(regs, cost)
            }
            Instr::Mul(d, s) => {
                let v = regs.get(d).wrapping_mul(regs.get(s));
                regs.set(d, v);
                self.retire(regs, cost)
            }
            Instr::Xor(d, s) => {
                let v = regs.get(d) ^ regs.get(s);
                regs.set(d, v);
                self.retire(regs, cost)
            }
            Instr::AndI(d, i) => {
                let v = regs.get(d) & i;
                regs.set(d, v);
                self.retire(regs, cost)
            }
            Instr::ShrI(d, i) => {
                let v = regs.get(d) >> (i & 31);
                regs.set(d, v);
                self.retire(regs, cost)
            }
            Instr::ShlI(d, i) => {
                let v = regs.get(d) << (i & 31);
                regs.set(d, v);
                self.retire(regs, cost)
            }
            Instr::Cmp(l, r) => {
                let (l, r) = (regs.get(l), regs.get(r));
                regs.set_flag(FLAG_ZF, l == r);
                regs.set_flag(FLAG_LT, l < r);
                self.retire(regs, cost)
            }
            Instr::CmpI(l, i) => {
                let l = regs.get(l);
                regs.set_flag(FLAG_ZF, l == i);
                regs.set_flag(FLAG_LT, l < i);
                self.retire(regs, cost)
            }
            Instr::Jmp(c, target) => {
                let taken = match c {
                    Cond::Always => true,
                    Cond::Eq => regs.flag(FLAG_ZF),
                    Cond::Ne => !regs.flag(FLAG_ZF),
                    Cond::Lt => regs.flag(FLAG_LT),
                    Cond::Ge => !regs.flag(FLAG_LT),
                };
                self.now += cost.user_instr;
                if taken {
                    regs.eip = target;
                } else {
                    regs.eip += 1;
                }
                None
            }
            Instr::Load(d, b, off) => {
                let addr = regs.get(b).wrapping_add(off as u32);
                self.now += cost.user_instr;
                match mem.read_u32(addr) {
                    Ok(v) => {
                        regs.set(d, v);
                        regs.eip += 1;
                        None
                    }
                    Err(f) => Some(Trap::PageFault(f)),
                }
            }
            Instr::Store(b, off, s) => {
                let addr = regs.get(b).wrapping_add(off as u32);
                self.now += cost.user_instr;
                match mem.write_u32(addr, regs.get(s)) {
                    Ok(()) => {
                        regs.eip += 1;
                        None
                    }
                    Err(f) => Some(Trap::PageFault(f)),
                }
            }
            Instr::LoadB(d, b, off) => {
                let addr = regs.get(b).wrapping_add(off as u32);
                self.now += cost.user_instr;
                match mem.read_u8(addr) {
                    Ok(v) => {
                        regs.set(d, v as u32);
                        regs.eip += 1;
                        None
                    }
                    Err(f) => Some(Trap::PageFault(f)),
                }
            }
            Instr::StoreB(b, off, s) => {
                let addr = regs.get(b).wrapping_add(off as u32);
                self.now += cost.user_instr;
                match mem.write_u8(addr, regs.get(s) as u8) {
                    Ok(()) => {
                        regs.eip += 1;
                        None
                    }
                    Err(f) => Some(Trap::PageFault(f)),
                }
            }
            Instr::Push(s) => {
                let sp = regs.get(Reg::Esp).wrapping_sub(4);
                self.now += cost.user_instr;
                match mem.write_u32(sp, regs.get(s)) {
                    Ok(()) => {
                        regs.set(Reg::Esp, sp);
                        regs.eip += 1;
                        None
                    }
                    Err(f) => Some(Trap::PageFault(f)),
                }
            }
            Instr::Pop(d) => {
                let sp = regs.get(Reg::Esp);
                self.now += cost.user_instr;
                match mem.read_u32(sp) {
                    Ok(v) => {
                        regs.set(d, v);
                        regs.set(Reg::Esp, sp.wrapping_add(4));
                        regs.eip += 1;
                        None
                    }
                    Err(f) => Some(Trap::PageFault(f)),
                }
            }
            Instr::RepMovsB => {
                // Bulk page-run copy, semantically identical to the old
                // byte loop: cycles charged per completed byte, registers
                // advanced by exactly the bytes completed, fault aborts
                // with eip unchanged.
                self.now += cost.user_instr;
                let mut count = regs.get(Reg::Ecx);
                let mut src = regs.get(Reg::Esi);
                let mut dst = regs.get(Reg::Edi);
                let mut remaining = count.min(REP_CHUNK);
                let mut buf = [0u8; REP_CHUNK as usize];
                while remaining > 0 {
                    // A byte-wise ascending copy with dst inside
                    // (src, src+n) replicates the source with period
                    // d = dst - src; block copies of at most d bytes
                    // reproduce that exactly. Backward/non-overlap needs
                    // no clamp.
                    let d = dst.wrapping_sub(src);
                    let block = if d > 0 && d < remaining { d } else { remaining };
                    let (rdone, rfault) = match mem.read_bytes(src, &mut buf[..block as usize]) {
                        Ok(()) => (block, None),
                        Err(e) => (e.done, Some(e.fault)),
                    };
                    // Bytes read before a read fault are still written —
                    // byte-wise order writes byte j before reading byte
                    // j+1. A write fault precedes the read fault, since
                    // write j happens before read k for j < k.
                    let (done, fault) = match mem.write_bytes(dst, &buf[..rdone as usize]) {
                        Ok(()) => (rdone, rfault),
                        Err(e) => (e.done, Some(e.fault)),
                    };
                    src = src.wrapping_add(done);
                    dst = dst.wrapping_add(done);
                    count -= done;
                    remaining -= done;
                    self.now += cost.user_string_byte_per * done as Cycles;
                    if let Some(f) = fault {
                        self.writeback_movs(regs, src, dst, count);
                        return Some(Trap::PageFault(f));
                    }
                }
                self.writeback_movs(regs, src, dst, count);
                if count == 0 {
                    regs.eip += 1;
                }
                None
            }
            Instr::RepStosB => {
                self.now += cost.user_instr;
                let val = regs.get(Reg::Eax) as u8;
                let mut count = regs.get(Reg::Ecx);
                let mut dst = regs.get(Reg::Edi);
                let chunk = count.min(REP_CHUNK);
                let buf = [val; REP_CHUNK as usize];
                let (done, fault) = match mem.write_bytes(dst, &buf[..chunk as usize]) {
                    Ok(()) => (chunk, None),
                    Err(e) => (e.done, Some(e.fault)),
                };
                dst = dst.wrapping_add(done);
                count -= done;
                self.now += cost.user_string_byte_per * done as Cycles;
                regs.set(Reg::Edi, dst);
                regs.set(Reg::Ecx, count);
                if let Some(f) = fault {
                    return Some(Trap::PageFault(f));
                }
                if count == 0 {
                    regs.eip += 1;
                }
                None
            }
            Instr::Syscall => {
                // `eip` stays at the trap instruction; the kernel advances
                // it on completion or leaves it for a restart.
                self.now += cost.user_instr;
                Some(Trap::Syscall)
            }
            Instr::Compute(n) => {
                self.now += n as Cycles;
                regs.eip += 1;
                None
            }
            Instr::Halt => {
                self.now += cost.user_instr;
                Some(Trap::Halt)
            }
            Instr::Nop => self.retire(regs, cost),
        }
    }

    /// Run user code until a trap or until the clock reaches `deadline`.
    ///
    /// Exactly a loop of [`Cpu::step`] while `now < deadline`. The loop
    /// runs on local copies of the registers and the clock, so they can
    /// live in host registers across the inlined memory accesses, and
    /// writes both back on every exit.
    pub fn run_user<M: UserMem + ?Sized>(
        &mut self,
        regs: &mut UserRegs,
        prog: &Program,
        mem: &mut M,
        cost: &CostModel,
        deadline: Cycles,
    ) -> StepOutcome {
        let mut r = *regs;
        let mut cpu = self.clone();
        let out = loop {
            if cpu.now >= deadline {
                break StepOutcome::DeadlineReached;
            }
            if let Some(trap) = cpu.step(&mut r, prog, mem, cost) {
                break StepOutcome::Trapped(trap);
            }
        };
        *regs = r;
        *self = cpu;
        out
    }

    #[inline]
    fn retire(&mut self, regs: &mut UserRegs, cost: &CostModel) -> Option<Trap> {
        self.now += cost.user_instr;
        regs.eip += 1;
        None
    }

    #[inline]
    fn writeback_movs(&self, regs: &mut UserRegs, src: u32, dst: u32, count: u32) {
        regs.set(Reg::Esi, src);
        regs.set(Reg::Edi, dst);
        regs.set(Reg::Ecx, count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::mem::FlatMem;

    fn run_to_halt(prog: &Program, mem: &mut FlatMem) -> (UserRegs, Cycles) {
        let mut cpu = Cpu::new(0);
        let mut regs = UserRegs::new();
        let cost = CostModel::default();
        loop {
            match cpu.step(&mut regs, prog, mem, &cost) {
                None => continue,
                Some(Trap::Halt) => return (regs, cpu.now),
                Some(t) => panic!("unexpected trap {t:?} at eip={}", regs.eip),
            }
        }
    }

    #[test]
    fn arithmetic_and_branches() {
        // Sum 1..=5 into ebx.
        let mut a = Assembler::new("sum");
        a.movi(Reg::Ecx, 5);
        a.xor(Reg::Ebx, Reg::Ebx);
        a.label("loop");
        a.add(Reg::Ebx, Reg::Ecx);
        a.subi(Reg::Ecx, 1);
        a.cmpi(Reg::Ecx, 0);
        a.jcc(Cond::Ne, "loop");
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(0);
        let (regs, _) = run_to_halt(&p, &mut mem);
        assert_eq!(regs.get(Reg::Ebx), 15);
    }

    #[test]
    fn loads_stores_and_stack() {
        let mut a = Assembler::new("mem");
        a.movi(Reg::Esp, 64);
        a.movi(Reg::Eax, 0x1234);
        a.emit(Instr::Push(Reg::Eax));
        a.movi(Reg::Eax, 0);
        a.emit(Instr::Pop(Reg::Ebx));
        a.movi(Reg::Edx, 0xff);
        a.storeb(Reg::Esp, -8, Reg::Edx);
        a.loadb(Reg::Ecx, Reg::Esp, -8);
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(64);
        let (regs, _) = run_to_halt(&p, &mut mem);
        assert_eq!(regs.get(Reg::Ebx), 0x1234);
        assert_eq!(regs.get(Reg::Ecx), 0xff);
        assert_eq!(regs.get(Reg::Esp), 64);
    }

    #[test]
    fn rep_movs_copies_and_advances_registers() {
        let mut a = Assembler::new("copy");
        a.movi(Reg::Esi, 0);
        a.movi(Reg::Edi, 100);
        a.movi(Reg::Ecx, 50);
        a.emit(Instr::RepMovsB);
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(256);
        for i in 0..50 {
            mem.write_u8(i, i as u8).unwrap();
        }
        let (regs, _) = run_to_halt(&p, &mut mem);
        assert_eq!(regs.get(Reg::Ecx), 0);
        assert_eq!(regs.get(Reg::Esi), 50);
        assert_eq!(regs.get(Reg::Edi), 150);
        for i in 0..50u32 {
            assert_eq!(mem.read_u8(100 + i).unwrap(), i as u8);
        }
    }

    #[test]
    fn rep_movs_fault_preserves_partial_progress() {
        // Destination runs off the end of memory halfway through: the fault
        // must leave the registers at the exact partial-progress point, and
        // eip still at the string instruction.
        let mut a = Assembler::new("copyfault");
        a.movi(Reg::Esi, 0);
        a.movi(Reg::Edi, 120);
        a.movi(Reg::Ecx, 16);
        a.emit(Instr::RepMovsB);
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(128); // dst bytes 120..136, faults at 128
        let mut cpu = Cpu::new(0);
        let mut regs = UserRegs::new();
        let cost = CostModel::default();
        let trap = loop {
            if let Some(t) = cpu.step(&mut regs, &p, &mut mem, &cost) {
                break t;
            }
        };
        match trap {
            Trap::PageFault(f) => assert_eq!(f.addr, 128),
            t => panic!("expected page fault, got {t:?}"),
        }
        assert_eq!(regs.get(Reg::Ecx), 8, "8 bytes remain");
        assert_eq!(regs.get(Reg::Esi), 8);
        assert_eq!(regs.get(Reg::Edi), 128);
        // eip still at the RepMovsB instruction (index 3).
        assert_eq!(regs.eip, 3);
    }

    #[test]
    fn rep_movs_resumes_after_fault_resolution() {
        // Simulate the kernel resolving the fault by growing memory, then
        // re-running: the copy must complete with correct bytes.
        let mut a = Assembler::new("copyresume");
        a.movi(Reg::Esi, 0);
        a.movi(Reg::Edi, 120);
        a.movi(Reg::Ecx, 16);
        a.emit(Instr::RepMovsB);
        a.halt();
        let p = a.finish();
        let mut small = FlatMem::new(128);
        for i in 0..16 {
            small.write_u8(i, 0x40 + i as u8).unwrap();
        }
        let mut cpu = Cpu::new(0);
        let mut regs = UserRegs::new();
        let cost = CostModel::default();
        // Run to the fault.
        loop {
            if let Some(t) = cpu.step(&mut regs, &p, &mut small, &cost) {
                assert!(matches!(t, Trap::PageFault(_)));
                break;
            }
        }
        // "Resolve" the fault: bigger memory with same contents.
        let mut big = FlatMem::new(256);
        for i in 0..128u32 {
            let b = small.read_u8(i).unwrap();
            big.write_u8(i, b).unwrap();
        }
        // Resume: same regs, eip unchanged.
        loop {
            match cpu.step(&mut regs, &p, &mut big, &cost) {
                None => continue,
                Some(Trap::Halt) => break,
                Some(t) => panic!("unexpected {t:?}"),
            }
        }
        for i in 0..16u32 {
            assert_eq!(big.read_u8(120 + i).unwrap(), 0x40 + i as u8);
        }
    }

    #[test]
    fn rep_stos_fills_memory() {
        let mut a = Assembler::new("fill");
        a.movi(Reg::Eax, 0xaa);
        a.movi(Reg::Edi, 10);
        a.movi(Reg::Ecx, 20);
        a.emit(Instr::RepStosB);
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(64);
        let (regs, _) = run_to_halt(&p, &mut mem);
        assert_eq!(regs.get(Reg::Ecx), 0);
        for i in 10..30 {
            assert_eq!(mem.read_u8(i).unwrap(), 0xaa);
        }
        assert_eq!(mem.read_u8(9).unwrap(), 0);
        assert_eq!(mem.read_u8(30).unwrap(), 0);
    }

    #[test]
    fn large_rep_movs_chunks_but_completes() {
        let n = 3 * REP_CHUNK + 17;
        let mut a = Assembler::new("bigcopy");
        a.movi(Reg::Esi, 0);
        a.movi(Reg::Edi, n);
        a.movi(Reg::Ecx, n);
        a.emit(Instr::RepMovsB);
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(2 * n as usize + 16);
        mem.write_u8(n - 1, 7).unwrap();
        let (regs, _) = run_to_halt(&p, &mut mem);
        assert_eq!(regs.get(Reg::Ecx), 0);
        assert_eq!(mem.read_u8(2 * n - 1).unwrap(), 7);
    }

    #[test]
    fn rep_movs_forward_overlap_replicates_pattern() {
        // dst = src + 3 inside the source range: x86 byte-wise semantics
        // replicate the first 3 bytes with period 3. The block fast path
        // must reproduce this exactly.
        let mut a = Assembler::new("overlap");
        a.movi(Reg::Esi, 10);
        a.movi(Reg::Edi, 13);
        a.movi(Reg::Ecx, 12);
        a.emit(Instr::RepMovsB);
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(64);
        for (i, b) in [1u8, 2, 3].iter().enumerate() {
            mem.write_u8(10 + i as u32, *b).unwrap();
        }
        let (regs, _) = run_to_halt(&p, &mut mem);
        assert_eq!(regs.get(Reg::Ecx), 0);
        for i in 0..12u32 {
            assert_eq!(
                mem.read_u8(13 + i).unwrap(),
                [1, 2, 3][(i % 3) as usize],
                "byte {i}"
            );
        }
    }

    #[test]
    fn rep_movs_backward_overlap_copies_cleanly() {
        // dst = src - 4 with count 12: ascending byte-wise copy never
        // clobbers an unread source byte, so the result is a plain copy.
        let mut a = Assembler::new("backoverlap");
        a.movi(Reg::Esi, 20);
        a.movi(Reg::Edi, 16);
        a.movi(Reg::Ecx, 12);
        a.emit(Instr::RepMovsB);
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(64);
        let data: Vec<u8> = (0..12).map(|i| 0x30 + i as u8).collect();
        for (i, b) in data.iter().enumerate() {
            mem.write_u8(20 + i as u32, *b).unwrap();
        }
        let (_, _) = run_to_halt(&p, &mut mem);
        for (i, b) in data.iter().enumerate() {
            assert_eq!(mem.read_u8(16 + i as u32).unwrap(), *b, "byte {i}");
        }
    }

    #[test]
    fn rep_movs_cycle_charge_matches_byte_count() {
        // The bulk rewrite must charge exactly the per-byte cost model:
        // one user_instr per step plus user_string_byte_per per byte.
        let n = REP_CHUNK + 100; // two steps
        let mut a = Assembler::new("cycles");
        a.movi(Reg::Esi, 0);
        a.movi(Reg::Edi, n);
        a.movi(Reg::Ecx, n);
        a.emit(Instr::RepMovsB);
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(2 * n as usize);
        let (_, cycles) = run_to_halt(&p, &mut mem);
        let cost = CostModel::default();
        let expect = 3 * cost.user_instr          // three movi
            + 2 * cost.user_instr                 // two RepMovsB steps
            + n as Cycles * cost.user_string_byte_per
            + cost.user_instr; // halt
        assert_eq!(cycles, expect);
    }

    #[test]
    fn syscall_leaves_eip_at_trap_instruction() {
        let mut a = Assembler::new("sys");
        a.movi(Reg::Eax, 42);
        a.syscall();
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(0);
        let mut cpu = Cpu::new(0);
        let mut regs = UserRegs::new();
        let cost = CostModel::default();
        assert_eq!(cpu.step(&mut regs, &p, &mut mem, &cost), None);
        assert_eq!(
            cpu.step(&mut regs, &p, &mut mem, &cost),
            Some(Trap::Syscall)
        );
        assert_eq!(regs.eip, 1, "eip still at the syscall instruction");
        // Kernel-style restart: re-stepping re-traps.
        assert_eq!(
            cpu.step(&mut regs, &p, &mut mem, &cost),
            Some(Trap::Syscall)
        );
        // Kernel-style completion: advance eip, next step halts.
        regs.eip += 1;
        assert_eq!(cpu.step(&mut regs, &p, &mut mem, &cost), Some(Trap::Halt));
    }

    #[test]
    fn compute_charges_cycles() {
        let mut a = Assembler::new("c");
        a.compute(500);
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(0);
        let (_, cycles) = run_to_halt(&p, &mut mem);
        let cost = CostModel::default();
        assert_eq!(cycles, 500 + cost.user_instr);
    }

    #[test]
    fn running_off_program_end_is_illegal() {
        let p = Program::new("empty", vec![Instr::Nop]);
        let mut mem = FlatMem::new(0);
        let mut cpu = Cpu::new(0);
        let mut regs = UserRegs::new();
        let cost = CostModel::default();
        assert_eq!(cpu.step(&mut regs, &p, &mut mem, &cost), None);
        assert_eq!(
            cpu.step(&mut regs, &p, &mut mem, &cost),
            Some(Trap::Illegal)
        );
    }

    #[test]
    fn push_fault_leaves_esp_unchanged() {
        // A push into unmapped stack memory must not commit the esp
        // decrement: the instruction restarts whole after the fault.
        let mut a = Assembler::new("pushfault");
        a.movi(Reg::Esp, 2); // next push writes at addr -2 → wraps → fault
        a.emit(Instr::Push(Reg::Eax));
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(16);
        let mut cpu = Cpu::new(0);
        let mut regs = UserRegs::new();
        let cost = CostModel::default();
        cpu.step(&mut regs, &p, &mut mem, &cost);
        let t = cpu.step(&mut regs, &p, &mut mem, &cost);
        assert!(matches!(t, Some(Trap::PageFault(_))));
        assert_eq!(regs.get(Reg::Esp), 2, "esp must not move on a fault");
        assert_eq!(regs.eip, 1, "eip still at the push");
    }

    #[test]
    fn pop_fault_leaves_esp_unchanged() {
        let mut a = Assembler::new("popfault");
        a.movi(Reg::Esp, 1000); // beyond the 16-byte memory
        a.emit(Instr::Pop(Reg::Ebx));
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(16);
        let mut cpu = Cpu::new(0);
        let mut regs = UserRegs::new();
        let cost = CostModel::default();
        cpu.step(&mut regs, &p, &mut mem, &cost);
        let t = cpu.step(&mut regs, &p, &mut mem, &cost);
        assert!(matches!(t, Some(Trap::PageFault(_))));
        assert_eq!(regs.get(Reg::Esp), 1000);
        assert_eq!(regs.get(Reg::Ebx), 0, "pop target untouched on fault");
    }

    #[test]
    fn branch_conditions_cover_all_flag_states() {
        // (lhs, rhs) → which of Eq/Ne/Lt/Ge should branch.
        for (l, r, eq, lt) in [
            (5u32, 5u32, true, false),
            (3, 9, false, true),
            (9, 3, false, false),
        ] {
            let mut a = Assembler::new("flags");
            a.movi(Reg::Ebx, l);
            a.movi(Reg::Ecx, r);
            a.cmp(Reg::Ebx, Reg::Ecx);
            a.movi(Reg::Edx, 0);
            a.jcc(Cond::Eq, "eq");
            a.jmp("after_eq");
            a.label("eq");
            a.addi(Reg::Edx, 1);
            a.label("after_eq");
            a.cmp(Reg::Ebx, Reg::Ecx);
            a.jcc(Cond::Lt, "lt");
            a.jmp("end");
            a.label("lt");
            a.addi(Reg::Edx, 2);
            a.label("end");
            a.halt();
            let p = a.finish();
            let mut mem = FlatMem::new(0);
            let (regs, _) = run_to_halt(&p, &mut mem);
            let expect = (eq as u32) + 2 * (lt as u32);
            assert_eq!(regs.get(Reg::Edx), expect, "lhs={l} rhs={r}");
        }
    }

    #[test]
    fn run_user_honors_deadline() {
        let mut a = Assembler::new("spin");
        a.label("top");
        a.jmp("top");
        let p = a.finish();
        let mut mem = FlatMem::new(0);
        let mut cpu = Cpu::new(0);
        let mut regs = UserRegs::new();
        let cost = CostModel::default();
        let out = cpu.run_user(&mut regs, &p, &mut mem, &cost, 1000);
        assert_eq!(out, StepOutcome::DeadlineReached);
        assert!(cpu.now >= 1000);
    }
}
