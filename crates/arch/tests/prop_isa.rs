//! Property tests of the ISA's restartability invariants.
//!
//! The container builds offline, so instead of an external property-test
//! framework these quantify over inputs drawn from a small deterministic
//! PRNG — same laws, reproducible cases.

use fluke_arch::mem::FlatMem;
use fluke_arch::{
    Assembler, Cond, CostModel, Cpu, Cycles, Instr, Program, Reg, StepOutcome, Trap, UserMem,
    UserRegs,
};

/// Deterministic splitmix64 generator for test-case synthesis.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.next_u32() % (hi - lo)
    }
}

/// A straight-line arithmetic program and a pure-Rust oracle of it.
fn arith_program(ops: &[(u8, u8, u32)]) -> (Program, [u32; 8]) {
    let mut a = Assembler::new("prop");
    let mut model = [0u32; 8];
    for &(op, reg, imm) in ops {
        let r = Reg::ALL[(reg % 8) as usize];
        let i = r.index();
        match op % 5 {
            0 => {
                a.movi(r, imm);
                model[i] = imm;
            }
            1 => {
                a.addi(r, imm);
                model[i] = model[i].wrapping_add(imm);
            }
            2 => {
                a.subi(r, imm);
                model[i] = model[i].wrapping_sub(imm);
            }
            3 => {
                a.emit(Instr::ShlI(r, imm & 31));
                model[i] <<= imm & 31;
            }
            4 => {
                a.emit(Instr::AndI(r, imm));
                model[i] &= imm;
            }
            _ => unreachable!(),
        }
    }
    a.halt();
    (a.finish(), model)
}

fn random_ops(rng: &mut Rng, max_len: u32) -> Vec<(u8, u8, u32)> {
    let len = rng.range(1, max_len);
    (0..len)
        .map(|_| (rng.range(0, 5) as u8, rng.range(0, 8) as u8, rng.next_u32()))
        .collect()
}

/// The CPU agrees with a straight-line oracle on every register.
#[test]
fn arithmetic_matches_oracle() {
    let mut rng = Rng(0xA11C_E5ED);
    for case in 0..64 {
        let ops = random_ops(&mut rng, 40);
        let (prog, model) = arith_program(&ops);
        let mut cpu = Cpu::new(0);
        let mut regs = UserRegs::new();
        let mut mem = FlatMem::new(0);
        let cost = CostModel::default();
        loop {
            match cpu.step(&mut regs, &prog, &mut mem, &cost) {
                None => continue,
                Some(Trap::Halt) => break,
                Some(t) => panic!("unexpected trap {t:?}"),
            }
        }
        assert_eq!(regs.gpr, model, "case {case}: {ops:?}");
    }
}

/// RepMovsB interrupted by an arbitrary fault boundary and resumed
/// copies every byte exactly once (the restartable-instruction law).
#[test]
fn rep_movs_resume_is_exact() {
    let mut rng = Rng(0xC0FF_EE00);
    for case in 0..64 {
        let len = rng.range(1, 6000);
        let src_off = rng.range(0, 64);
        let dst_gap = rng.range(1, 64);
        let cut = rng.range(0, 6000);

        let src = src_off;
        let dst = src_off + len + dst_gap;
        let total = dst + len;
        let mut a = Assembler::new("copy");
        a.movi(Reg::Esi, src);
        a.movi(Reg::Edi, dst);
        a.movi(Reg::Ecx, len);
        a.emit(Instr::RepMovsB);
        a.halt();
        let prog = a.finish();

        // First run against a memory truncated at `dst + cut`: the copy
        // faults exactly at the first inaccessible destination byte (if
        // the cut lands inside the transfer).
        let cut = cut.min(len);
        let mut small = FlatMem::new((dst + cut) as usize);
        for i in 0..len.min(dst + cut) {
            if src + i < dst + cut {
                small.write_u8(src + i, (i % 251) as u8).unwrap();
            }
        }
        let mut cpu = Cpu::new(0);
        let mut regs = UserRegs::new();
        let cost = CostModel::default();
        let mut faulted = false;
        loop {
            match cpu.step(&mut regs, &prog, &mut small, &cost) {
                None => continue,
                Some(Trap::Halt) => break,
                Some(Trap::PageFault(f)) => {
                    faulted = true;
                    assert_eq!(f.addr, dst + cut, "case {case}: fault at the cut");
                    break;
                }
                Some(t) => panic!("unexpected trap {t:?}"),
            }
        }
        assert_eq!(faulted, cut < len, "case {case}");
        // "Resolve" the fault: same bytes, full memory; resume from the
        // exact same registers.
        let mut big = FlatMem::new(total as usize + 8);
        for i in 0..(dst + cut).min(total) {
            let b = small.read_u8(i).unwrap();
            big.write_u8(i, b).unwrap();
        }
        for i in 0..len {
            big.write_u8(src + i, (i % 251) as u8).unwrap();
        }
        loop {
            match cpu.step(&mut regs, &prog, &mut big, &cost) {
                None => continue,
                Some(Trap::Halt) => break,
                Some(t) => panic!("unexpected trap after resume {t:?}"),
            }
        }
        for i in 0..len {
            assert_eq!(
                big.read_u8(dst + i).unwrap(),
                (i % 251) as u8,
                "case {case}"
            );
        }
        assert_eq!(regs.get(Reg::Ecx), 0);
        assert_eq!(regs.get(Reg::Esi), src + len);
        assert_eq!(regs.get(Reg::Edi), dst + len);
    }
}

/// A counted loop assembled with symbolic labels runs its body exactly
/// `n` times for any n.
#[test]
fn counted_loops_iterate_exactly() {
    let mut rng = Rng(0x5EED_1009);
    for _ in 0..32 {
        let n = rng.range(1, 500);
        let mut a = Assembler::new("loop");
        a.movi(Reg::Ecx, n);
        a.xor(Reg::Ebx, Reg::Ebx);
        a.label("top");
        a.addi(Reg::Ebx, 1);
        a.subi(Reg::Ecx, 1);
        a.cmpi(Reg::Ecx, 0);
        a.jcc(Cond::Ne, "top");
        a.halt();
        let prog = a.finish();
        let mut cpu = Cpu::new(0);
        let mut regs = UserRegs::new();
        let mut mem = FlatMem::new(0);
        let cost = CostModel::default();
        loop {
            match cpu.step(&mut regs, &prog, &mut mem, &cost) {
                None => continue,
                Some(Trap::Halt) => break,
                Some(t) => panic!("unexpected {t:?}"),
            }
        }
        assert_eq!(regs.get(Reg::Ebx), n);
    }
}

/// The cycle clock is deterministic: running the same program twice
/// charges exactly the same cycles.
#[test]
fn simulation_is_deterministic() {
    let mut rng = Rng(0xDE7E_2017);
    for _ in 0..32 {
        let ops = random_ops(&mut rng, 30);
        let (prog, _) = arith_program(&ops);
        let run = || {
            let mut cpu = Cpu::new(0);
            let mut regs = UserRegs::new();
            let mut mem = FlatMem::new(0);
            let cost = CostModel::default();
            loop {
                match cpu.step(&mut regs, &prog, &mut mem, &cost) {
                    None => continue,
                    Some(Trap::Halt) => break,
                    Some(t) => panic!("unexpected {t:?}"),
                }
            }
            (cpu.now, regs)
        };
        assert_eq!(run(), run());
    }
}

/// Bytes of memory in the equivalence test. Addresses are drawn from a
/// slightly larger window, so loads and stores fault mid-run.
const EQ_MEM: u32 = 192;
const EQ_SPAN: u32 = 256;

/// A random instruction drawn from every `Instr` variant. Branch targets
/// may lie past the end of a `len`-instruction program (an `Illegal`
/// trap); immediates and offsets mostly keep addresses near the memory.
fn random_instr(rng: &mut Rng, len: u32) -> Instr {
    let r = Reg::ALL[rng.range(0, 8) as usize];
    let s = Reg::ALL[rng.range(0, 8) as usize];
    let addr = rng.range(0, EQ_SPAN);
    let off = rng.range(0, 16) as i32 - 8;
    match rng.range(0, 26) {
        0 => Instr::MovI(r, addr),
        1 => Instr::Mov(r, s),
        2 => Instr::Add(r, s),
        3 => Instr::AddI(r, rng.range(0, 8)),
        4 => Instr::Sub(r, s),
        5 => Instr::SubI(r, rng.range(0, 8)),
        6 => Instr::Mul(r, s),
        7 => Instr::Xor(r, s),
        8 => Instr::AndI(r, rng.next_u32()),
        9 => Instr::ShrI(r, rng.range(0, 40)),
        10 => Instr::ShlI(r, rng.range(0, 40)),
        11 => Instr::Cmp(r, s),
        12 => Instr::CmpI(r, addr),
        13 => {
            let c = [Cond::Always, Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge];
            Instr::Jmp(c[rng.range(0, 5) as usize], rng.range(0, len + 2))
        }
        14 => Instr::Load(r, s, off),
        15 => Instr::Store(r, off, s),
        16 => Instr::LoadB(r, s, off),
        17 => Instr::StoreB(r, off, s),
        18 => Instr::Push(r),
        19 => Instr::Pop(r),
        20 => Instr::RepMovsB,
        21 => Instr::RepStosB,
        22 => Instr::Syscall,
        23 => Instr::Compute(rng.range(1, 300)),
        24 => Instr::Halt,
        _ => Instr::Nop,
    }
}

/// The specification of `run_user`: a plain loop of `step`, through a
/// `dyn UserMem`. Also reports whether it stopped at a deadline that fell
/// strictly inside the last instruction, a `Compute`.
fn step_loop(
    cpu: &mut Cpu,
    regs: &mut UserRegs,
    prog: &Program,
    mem: &mut dyn UserMem,
    cost: &CostModel,
    deadline: Cycles,
) -> (StepOutcome, bool) {
    let mut last_compute = None;
    while cpu.now < deadline {
        let start = cpu.now;
        last_compute = matches!(prog.fetch(regs.eip), Some(Instr::Compute(_))).then_some(start);
        if let Some(trap) = cpu.step(regs, prog, mem, cost) {
            return (StepOutcome::Trapped(trap), false);
        }
    }
    let inside = last_compute.is_some_and(|start| start < deadline && deadline < cpu.now);
    (StepOutcome::DeadlineReached, inside)
}

/// `run_user` is observationally a loop of `step`: on random programs over
/// every instruction, random register files and random deadlines (some
/// already passed), it ends with the same outcome, the same registers, the
/// same clock and the same memory — across traps, faults and resumes.
#[test]
fn run_user_equals_step_loop() {
    let mut rng = Rng(0x0E0_1D1E);
    let cost = CostModel::default();
    let mut seen = [0u32; 7];
    for case in 0..3000 {
        let len = rng.range(1, 40);
        let prog = Program::new(
            "eq",
            (0..len).map(|_| random_instr(&mut rng, len)).collect(),
        );
        let mut regs = UserRegs::new();
        for g in regs.gpr.iter_mut() {
            *g = rng.range(0, EQ_SPAN);
        }
        regs.gpr[Reg::Ecx.index()] = rng.range(0, 64);
        regs.eflags = rng.range(0, 4);
        regs.pr = [rng.next_u32(), rng.next_u32()];
        let mut mem = FlatMem::new(EQ_MEM as usize);
        for a in 0..EQ_MEM {
            mem.write_u8(a, rng.next_u32() as u8).unwrap();
        }
        let now = rng.range(0, 1000) as Cycles;
        let (mut cpu_a, mut regs_a, mut mem_a) = (Cpu::new(0), regs, mem.clone());
        let (mut cpu_b, mut regs_b, mut mem_b) = (Cpu::new(0), regs, mem);
        cpu_a.now = now;
        cpu_b.now = now;

        // Up to four resumes: a deadline or a system call (completed by
        // advancing eip, as the kernel does) continues the run.
        for resume in 0..4 {
            let start = cpu_a.now;
            let deadline = match rng.range(0, 4) {
                0 => start.saturating_sub(rng.range(0, 50) as Cycles),
                _ => start + rng.range(1, 2000) as Cycles,
            };
            let (want, inside) =
                step_loop(&mut cpu_a, &mut regs_a, &prog, &mut mem_a, &cost, deadline);
            let got = cpu_b.run_user(&mut regs_b, &prog, &mut mem_b, &cost, deadline);
            let ctx = format!("case {case} resume {resume} deadline {deadline}");
            assert_eq!(got, want, "outcome: {ctx}");
            assert_eq!(regs_b, regs_a, "registers: {ctx}");
            assert_eq!(cpu_b.now, cpu_a.now, "clock: {ctx}");
            assert_eq!(mem_b.bytes(), mem_a.bytes(), "memory: {ctx}");
            seen[match want {
                StepOutcome::DeadlineReached if deadline <= start => 0,
                StepOutcome::DeadlineReached => 1,
                StepOutcome::Trapped(Trap::Syscall) => 2,
                StepOutcome::Trapped(Trap::PageFault(_)) => 3,
                StepOutcome::Trapped(Trap::Halt) => 4,
                StepOutcome::Trapped(Trap::Illegal) => 5,
            }] += 1;
            seen[6] += inside as u32;
            match want {
                StepOutcome::DeadlineReached => {}
                StepOutcome::Trapped(Trap::Syscall) => {
                    regs_a.eip += 1;
                    regs_b.eip += 1;
                }
                StepOutcome::Trapped(_) => break,
            }
        }
    }
    // Every exit path was taken, including a deadline already passed and
    // one inside a `Compute`.
    assert!(seen.iter().all(|&n| n > 0), "unexercised exits: {seen:?}");
}
