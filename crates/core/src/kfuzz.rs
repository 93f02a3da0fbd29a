//! `kfuzz` — coverage-guided differential kernel fuzzing over the
//! `SysDesc` grammar.
//!
//! The fuzzer mutates *syscall-sequence programs*: flat lists of
//! [`FuzzOp`]s, each naming an entrypoint plus pool indices for its
//! argument registers. The register template for every op is derived
//! from the entrypoint's [`fluke_api::ArgRegs`] signature, so the
//! grammar covers the whole table by construction and never needs
//! per-call encoders. Two campaign tiers share the machinery:
//!
//! * **Differential** ([`Tier::Differential`]): programs drawn from the
//!   schedule-independent subset of the API (single thread, no sleeping
//!   entrypoints, no clock/stats reads) run under the four comparable
//!   Table 4 configurations; the user-visible [`Outcome`] — result
//!   codes, final registers, memory checksum — must be bit-identical
//!   everywhere (the paper's execution-model equivalence claim).
//! * **Robustness** ([`Tier::Robustness`]): programs over *all*
//!   entrypoints with adversarial arguments run under one configuration
//!   with the flow checker armed; the oracle is "no panic, bounded
//!   termination, no flow-graph escape".
//!
//! Both tiers also check the kernel's cross-structure invariants (run
//! queues, wait queues, CPU slots) after every program.
//!
//! **Coverage** is the set of signatures a run lights up — hashes over
//! kstat counter magnitudes, kprof phase paths, ktrace event bigrams,
//! and per-entrypoint result codes, all signals the kernel already
//! emits for free. Programs producing new signatures are minimized
//! ([`minimize`]) and kept in a deterministic corpus
//! ([`corpus_to_text`]). Every divergence, panic, hang, flowcheck
//! violation or broken kernel invariant becomes a structured [`Finding`].
//!
//! Everything is deterministic from the campaign seed: same seed + same
//! corpus ⇒ bit-identical schedule, coverage map, and final corpus.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use fluke_api::abi::{ARG_COUNT, ARG_HANDLE, ARG_RBUF, ARG_SBUF, ARG_VAL};
use fluke_api::{ObjType, Sys, SYSCALLS, SYSCALL_COUNT};
use fluke_arch::{Assembler, Program, Reg, UserRegs};

use crate::config::Config;
use crate::kernel::Kernel;
use crate::krec::{fnv64, FNV_OFFSET};
use crate::oracle::Outcome;
use crate::trace::TraceEvent;

// ---------------------------------------------------------------------------
// Process-wide campaign counters (kstat: `kernel.fuzz.*`)
// ---------------------------------------------------------------------------

static PROGRAMS: AtomicU64 = AtomicU64::new(0);
static SIGNATURES: AtomicU64 = AtomicU64::new(0);
static FINDINGS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of fuzz programs executed (`kernel.fuzz.programs`).
pub fn programs_run() -> u64 {
    PROGRAMS.load(Ordering::Relaxed)
}

/// Process-wide high-water mark of distinct coverage signatures reached
/// by any single campaign (`kernel.fuzz.signatures`).
pub fn signatures_seen() -> u64 {
    SIGNATURES.load(Ordering::Relaxed)
}

/// Process-wide count of distinct finding classes recorded
/// (`kernel.fuzz.findings`).
pub fn findings_seen() -> u64 {
    FINDINGS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Deterministic RNG (splitmix64)
// ---------------------------------------------------------------------------

/// Deterministic splitmix64 generator driving synthesis and mutation.
#[derive(Debug, Clone)]
pub struct Rng(pub u64);

impl Rng {
    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() as u32) % (hi - lo)
    }
}

// ---------------------------------------------------------------------------
// Grammar: programs, argument pools, assembly
// ---------------------------------------------------------------------------

/// Base of the fuzz process's main private memory window.
pub const FUZZ_MEM_BASE: u32 = 0x0010_0000;
/// Length of the main window.
pub const FUZZ_MEM_LEN: u32 = 0x0001_0000;
/// Base of the one-page window at the very top of the address space
/// (lets the grammar place objects and buffers against `u32::MAX`).
pub const FUZZ_TOP_BASE: u32 = 0xffff_f000;

/// Handle-register pool: live object slots, the null handle, unmapped
/// and misaligned addresses, and slots against the top of memory.
pub const HANDLE_POOL: [u32; 12] = [
    FUZZ_MEM_BASE,
    FUZZ_MEM_BASE + 0x20,
    FUZZ_MEM_BASE + 0x40,
    FUZZ_MEM_BASE + 0x60,
    FUZZ_MEM_BASE + 0x80,
    FUZZ_MEM_BASE + 0xa0,
    FUZZ_TOP_BASE,
    FUZZ_TOP_BASE + 0xfe0,
    0,
    3,
    FUZZ_MEM_BASE - 0x1000,
    0xdead_0000,
];

/// Count-register pool. Bounded at 64K: `region_populate` materializes
/// backing frames for the populated range, so the pool cap is the host
/// memory cap; the arithmetic edge cases come from placing *bases* near
/// `u32::MAX` (the [`VAL_POOL`]), not from astronomic lengths.
pub const COUNT_POOL: [u32; 8] = [0, 1, 3, 4, 32, 0x400, 0x1000, 0x1_0000];

/// Value-register pool: move targets / secondary handles (live slots,
/// top-of-memory slots) plus boundary scalars.
pub const VAL_POOL: [u32; 12] = [
    0,
    1,
    4,
    FUZZ_MEM_BASE,
    FUZZ_MEM_BASE + 0x20,
    FUZZ_MEM_BASE + 0x60,
    FUZZ_MEM_BASE + 0x2000,
    FUZZ_TOP_BASE,
    FUZZ_TOP_BASE + 0xfe0,
    0x8000_0000,
    0xffff_fff0,
    0xffff_ffff,
];

/// Buffer pool shared by the send/receive buffer registers: valid
/// buffers in both windows, a buffer ending flush against the top of
/// memory, the null page, an unmapped page, and the first two object
/// slots (several entrypoints read *tokens* from buffer registers —
/// `region_create`'s keeper, `mapping_create`'s region — so the pool
/// must be able to name live objects).
pub const BUF_POOL: [u32; 8] = [
    FUZZ_MEM_BASE + 0x2000,
    FUZZ_MEM_BASE + 0x3000,
    FUZZ_TOP_BASE + 0x800,
    FUZZ_TOP_BASE + 0xffc,
    0,
    0xcafe_0000,
    FUZZ_MEM_BASE,
    FUZZ_MEM_BASE + 0x20,
];

/// One fuzzed system call: an entrypoint plus pool indices for each
/// argument register its [`fluke_api::ArgRegs`] template reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FuzzOp {
    /// Entrypoint number (`Sys` discriminant).
    pub sys: u8,
    /// Index into [`HANDLE_POOL`] (`ebx`).
    pub h: u8,
    /// Index into [`COUNT_POOL`] (`ecx`).
    pub c: u8,
    /// Index into [`VAL_POOL`] (`edx`).
    pub v: u8,
    /// Index into [`BUF_POOL`], used for both `esi` and `edi` (offset
    /// by one entry for `edi` so the two can differ).
    pub b: u8,
}

impl FuzzOp {
    /// The entrypoint this op invokes.
    pub fn sysnum(&self) -> Sys {
        Sys::from_u32(self.sys as u32 % SYSCALL_COUNT as u32).expect("in range")
    }
}

/// A fuzzed program: an op sequence run by a single user thread.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct FuzzProgram {
    /// The syscall sequence.
    pub ops: Vec<FuzzOp>,
}

impl FuzzProgram {
    /// A stable content hash (FNV-1a over the op encoding) naming the
    /// program in corpora and schedules.
    pub fn hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for op in &self.ops {
            h = fnv64(h, &[op.sys, op.h, op.c, op.v, op.b]);
        }
        h
    }
}

/// Campaign tier: which grammar subset and which oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Schedule-independent grammar, four-configuration differential
    /// oracle.
    Differential,
    /// Full-table grammar, single configuration, no-panic /
    /// flow-integrity oracle.
    Robustness,
}

/// The schedule-independent entrypoints the differential tier draws
/// from: every common object operation of the seven passive object
/// types (threads and spaces excluded — installing state can make
/// threads runnable, which is scheduling), the non-sleeping
/// type-specific calls, and the trivial calls whose results are
/// model-independent. `sys_clock`/`sys_stats` read quantities the
/// execution models legitimately disagree on; sleeping calls would park
/// the single thread forever; `sys_cpu_id` is constant on one CPU.
pub fn differential_ops() -> Vec<Sys> {
    let mut out = Vec::new();
    for d in SYSCALLS {
        let passive_family = matches!(
            d.family.obj_type(),
            Some(
                ObjType::Mutex
                    | ObjType::Cond
                    | ObjType::Region
                    | ObjType::Mapping
                    | ObjType::Port
                    | ObjType::Portset
                    | ObjType::Reference
            )
        );
        if d.common_op.is_some() && passive_family {
            out.push(d.sys);
        }
    }
    out.extend([
        Sys::MutexTrylock,
        Sys::MutexUnlock,
        Sys::CondSignal,
        Sys::CondBroadcast,
        Sys::RegionProtect,
        Sys::RegionPopulate,
        Sys::RegionSearch,
        Sys::MappingProtect,
        Sys::RefCompare,
        Sys::ThreadSelf,
        Sys::SysNull,
        Sys::SysVersion,
        Sys::SysCpuId,
        Sys::SysYield,
        Sys::SysTrace,
    ]);
    out
}

/// Synthesize a fresh random program of 1..=12 ops over `ops`.
pub fn synth(rng: &mut Rng, ops: &[Sys]) -> FuzzProgram {
    let n = rng.range(1, 13);
    FuzzProgram {
        ops: (0..n).map(|_| rand_op(rng, ops)).collect(),
    }
}

fn rand_op(rng: &mut Rng, ops: &[Sys]) -> FuzzOp {
    let sys = ops[rng.range(0, ops.len() as u32) as usize];
    FuzzOp {
        sys: sys.num() as u8,
        h: rng.range(0, HANDLE_POOL.len() as u32) as u8,
        c: rng.range(0, COUNT_POOL.len() as u32) as u8,
        v: rng.range(0, VAL_POOL.len() as u32) as u8,
        b: rng.range(0, BUF_POOL.len() as u32) as u8,
    }
}

/// Hard cap on program length (keeps cycle budgets and corpora small).
pub const MAX_OPS: usize = 24;

/// Apply one random structural or argument mutation in place.
pub fn mutate(rng: &mut Rng, prog: &mut FuzzProgram, ops: &[Sys]) {
    let len = prog.ops.len() as u32;
    match rng.range(0, if len > 1 { 7 } else { 3 }) {
        // Insert a fresh op.
        0 => {
            let at = rng.range(0, len + 1) as usize;
            let op = rand_op(rng, ops);
            prog.ops.insert(at, op);
        }
        // Replace an op wholesale.
        1 if len > 0 => {
            let at = rng.range(0, len) as usize;
            prog.ops[at] = rand_op(rng, ops);
        }
        // Tweak one argument index of one op.
        1 | 2 => {
            if len == 0 {
                prog.ops.push(rand_op(rng, ops));
                return;
            }
            let at = rng.range(0, len) as usize;
            let op = &mut prog.ops[at];
            match rng.range(0, 4) {
                0 => op.h = rng.range(0, HANDLE_POOL.len() as u32) as u8,
                1 => op.c = rng.range(0, COUNT_POOL.len() as u32) as u8,
                2 => op.v = rng.range(0, VAL_POOL.len() as u32) as u8,
                _ => op.b = rng.range(0, BUF_POOL.len() as u32) as u8,
            }
        }
        // Delete an op.
        3 => {
            let at = rng.range(0, len) as usize;
            prog.ops.remove(at);
        }
        // Duplicate an op in place.
        4 => {
            let at = rng.range(0, len) as usize;
            let op = prog.ops[at];
            prog.ops.insert(at, op);
        }
        // Swap two ops.
        5 => {
            let a = rng.range(0, len) as usize;
            let b = rng.range(0, len) as usize;
            prog.ops.swap(a, b);
        }
        // Truncate the tail.
        _ => {
            let keep = rng.range(1, len + 1) as usize;
            prog.ops.truncate(keep);
        }
    }
    prog.ops.truncate(MAX_OPS);
}

// ---------------------------------------------------------------------------
// Execution harness
// ---------------------------------------------------------------------------

/// The result of executing one program under one configuration.
#[derive(Debug, Clone)]
pub struct Exec {
    /// The differential outcome: the user-visible trace, the fuzz
    /// thread's final `eax` and argument registers, and a digest over
    /// both memory windows.
    pub outcome: Outcome,
    /// Whether the fuzz thread ran to its halt.
    pub halted: bool,
    /// Coverage signatures lit up by the run (salted by config label).
    pub sigs: BTreeSet<u64>,
    /// Human-readable descriptions of any flowcheck violations.
    pub violations: Vec<String>,
    /// The first kernel invariant broken when the run ended, if any.
    pub broken_invariant: Option<&'static str>,
}

/// FNV-1a digest of a text blob (stable across hosts; the bench report
/// uses it to fingerprint the committed corpus).
pub fn text_digest(text: &str) -> u64 {
    fnv64(FNV_OFFSET, text.as_bytes())
}

fn sig(salt: u64, parts: &[&[u8]]) -> u64 {
    let mut h = fnv64(FNV_OFFSET, &salt.to_le_bytes());
    for p in parts {
        h = fnv64(h, p);
        h = fnv64(h, &[0xff]);
    }
    h
}

/// Assemble a [`FuzzProgram`] into user code: each op loads exactly the
/// registers its entrypoint's [`fluke_api::ArgRegs`] template reads,
/// then traps; the program ends with a halt.
pub fn assemble(prog: &FuzzProgram) -> Program {
    let mut a = Assembler::new("kfuzz");
    for op in &prog.ops {
        let sys = op.sysnum();
        let args = sys.args();
        if args.contains(fluke_api::ArgRegs::HANDLE) {
            a.movi(ARG_HANDLE, HANDLE_POOL[op.h as usize % HANDLE_POOL.len()]);
        }
        if args.contains(fluke_api::ArgRegs::COUNT) {
            a.movi(ARG_COUNT, COUNT_POOL[op.c as usize % COUNT_POOL.len()]);
        }
        if args.contains(fluke_api::ArgRegs::VAL) {
            a.movi(ARG_VAL, VAL_POOL[op.v as usize % VAL_POOL.len()]);
        }
        if args.contains(fluke_api::ArgRegs::SBUF) {
            a.movi(ARG_SBUF, BUF_POOL[op.b as usize % BUF_POOL.len()]);
        }
        if args.contains(fluke_api::ArgRegs::RBUF) {
            a.movi(ARG_RBUF, BUF_POOL[(op.b as usize + 1) % BUF_POOL.len()]);
        }
        a.movi(Reg::Eax, sys.num());
        a.syscall();
    }
    a.halt();
    a.finish()
}

/// Cycle budget per program execution (generous: the longest legal
/// program is two dozen short calls).
pub const RUN_BUDGET: u64 = 200_000_000;

/// Execute `prog` under `cfg` in a fresh kernel and extract the
/// differential outcome plus coverage signatures. Tracing is always on
/// (the outcome needs the user-visible projection), `kprof` supplies
/// phase-path signatures, and the flow checker runs so the fuzzer can
/// hunt for graph escapes.
pub fn run_program(cfg: Config, prog: &FuzzProgram) -> Exec {
    let label = cfg.label;
    let mut k = Kernel::new(cfg.with_tracing(1 << 16).with_kprof().with_flowcheck());
    let space = k.create_space();
    k.grant_pages(space, FUZZ_MEM_BASE, FUZZ_MEM_LEN, true);
    k.grant_pages(space, FUZZ_TOP_BASE, 0x1000, true);
    let pid = k.register_program(assemble(prog));
    let t = k.spawn_thread(space, pid, UserRegs::new(), 8);
    let deadline = k.now() + RUN_BUDGET;
    let _ = k.run(Some(deadline));
    let halted = k.thread_halted(t);
    let broken_invariant = k.check_invariants().err();
    let outcome = Outcome::capture(
        &mut k,
        &[t],
        &[Reg::Eax, ARG_HANDLE, ARG_COUNT, ARG_VAL, ARG_SBUF, ARG_RBUF],
        &[
            (space, FUZZ_MEM_BASE, FUZZ_MEM_LEN),
            (space, FUZZ_TOP_BASE, 0x1000),
        ],
        &[],
    )
    .unwrap_or_else(|e| panic!("{e}"));

    let salt = fnv64(FNV_OFFSET, label.as_bytes());
    let mut sigs = BTreeSet::new();

    // (a) kstat counter magnitudes, log2-bucketed. Process-wide
    // counters (auditor coverage, the fuzzer's own campaign counters)
    // are excluded: they accumulate across kernels and would make
    // signatures depend on unrelated concurrent runs.
    let reg = k.kstat();
    for (name, e) in reg.iter() {
        if e.pattern == "kernel.syscall.<entrypoint>.audit_blocks"
            || name.starts_with("kernel.fuzz.")
        {
            continue;
        }
        if let Some(v) = e.value.scalar() {
            let bucket = 64u64 - v.leading_zeros() as u64; // 0 for v == 0
            sigs.insert(sig(
                salt,
                &[b"kstat", name.as_bytes(), &bucket.to_le_bytes()],
            ));
        }
    }

    // (b) kprof phase paths with nonzero self cycles (shape only).
    for (path, cycles) in k.kprof.flat() {
        if cycles > 0 {
            sigs.insert(sig(salt, &[b"kprof", path.as_bytes()]));
        }
    }

    // (c) per-thread ktrace event-name bigrams, and (d) per-entrypoint
    // result codes from SyscallEnter→SyscallExit pairing — both the
    // single `(sys, code)` point and the *chained* pair with the
    // thread's previous completion. The chains are the depth-sensitive
    // part of the map: random programs rarely string two coherent
    // completions together, while corpus prefixes that set state up
    // make whole families of them reachable.
    let mut last_name: BTreeMap<u32, &'static str> = BTreeMap::new();
    let mut last_sys: BTreeMap<u32, u32> = BTreeMap::new();
    let mut last_exit: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
    for rec in k.trace.merged() {
        let ev = &rec.event;
        if let Some(th) = ev.thread() {
            let name = ev.name();
            if let Some(prev) = last_name.insert(th.0, name) {
                sigs.insert(sig(salt, &[b"bigram", prev.as_bytes(), name.as_bytes()]));
            }
            match *ev {
                TraceEvent::SyscallEnter { thread, sys, .. } => {
                    last_sys.insert(thread.0, sys);
                }
                TraceEvent::SyscallExit { thread, code, .. } => {
                    if let Some(sys) = last_sys.remove(&thread.0) {
                        sigs.insert(sig(
                            salt,
                            &[b"exit", &sys.to_le_bytes(), &code.to_le_bytes()],
                        ));
                        if let Some((ps, pc)) = last_exit.insert(thread.0, (sys, code)) {
                            sigs.insert(sig(
                                salt,
                                &[
                                    b"chain",
                                    &ps.to_le_bytes(),
                                    &pc.to_le_bytes(),
                                    &sys.to_le_bytes(),
                                    &code.to_le_bytes(),
                                ],
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // (e) flow-graph escapes are coverage too — the fuzzer steers
    // toward them, and each one is also reported as a finding.
    let violations: Vec<String> = k
        .flowcheck
        .violations
        .iter()
        .map(|v| format!("{:?} at {:#x} in {}", v.kind, v.vaddr, v.sys.name()))
        .collect();
    for v in &violations {
        sigs.insert(sig(salt, &[b"flow", v.as_bytes()]));
    }

    Exec {
        outcome,
        halted,
        sigs,
        violations,
        broken_invariant,
    }
}

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

/// Why a program is a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FindingKind {
    /// The outcome under `config` differed from the first configuration.
    Divergence {
        /// Label of the diverging configuration.
        config: String,
    },
    /// The kernel panicked while executing the program.
    Panic {
        /// Label of the panicking configuration.
        config: String,
        /// The panic payload message.
        msg: String,
    },
    /// The flow checker recorded a violation.
    FlowViolation {
        /// Human-readable violation description.
        desc: String,
    },
    /// The kernel's cross-structure invariant check failed after the
    /// program ran.
    Invariant {
        /// Label of the configuration.
        config: String,
        /// The broken invariant.
        desc: String,
    },
    /// A differential-tier program failed to halt in budget (its
    /// grammar contains no sleeping entrypoint, so this is a bug).
    Hang {
        /// Label of the hanging configuration.
        config: String,
    },
}

/// A fuzzer-discovered bug candidate: the classification plus the
/// (minimized, when found by a campaign) reproducer program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// What went wrong.
    pub kind: FindingKind,
    /// The reproducer.
    pub program: FuzzProgram,
}

impl Finding {
    /// A short stable class key used to deduplicate findings (one per
    /// root cause, not one per mutant).
    pub fn class(&self) -> String {
        match &self.kind {
            FindingKind::Divergence { config } => format!("divergence:{config}"),
            FindingKind::Panic { msg, .. } => format!("panic:{msg}"),
            FindingKind::FlowViolation { desc } => {
                // Keep the kind, drop the address.
                let head = desc.split(" at ").next().unwrap_or(desc);
                format!("flow:{head}")
            }
            FindingKind::Invariant { desc, .. } => format!("invariant:{desc}"),
            FindingKind::Hang { config } => format!("hang:{config}"),
        }
    }
}

fn panic_msg(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one program through its tier's oracle: all four configurations
/// with outcome comparison for [`Tier::Differential`], the process-NP
/// configuration for [`Tier::Robustness`]. Returns the union of
/// coverage signatures and every finding (panics are caught and
/// classified, never propagated).
pub fn judge(tier: Tier, prog: &FuzzProgram) -> (BTreeSet<u64>, Vec<Finding>) {
    let mut sigs = BTreeSet::new();
    let mut findings = Vec::new();
    let configs = match tier {
        Tier::Differential => Config::comparable(),
        Tier::Robustness => vec![Config::process_np()],
    };
    let mut base: Option<Outcome> = None;
    for cfg in configs {
        let label = cfg.label;
        match catch_unwind(AssertUnwindSafe(|| run_program(cfg, prog))) {
            Err(e) => {
                findings.push(Finding {
                    kind: FindingKind::Panic {
                        config: label.to_string(),
                        msg: panic_msg(e),
                    },
                    program: prog.clone(),
                });
                // A configuration that panics has no outcome to compare.
                continue;
            }
            Ok(exec) => {
                sigs.extend(exec.sigs.iter().copied());
                for desc in &exec.violations {
                    findings.push(Finding {
                        kind: FindingKind::FlowViolation { desc: desc.clone() },
                        program: prog.clone(),
                    });
                }
                if let Some(desc) = exec.broken_invariant {
                    findings.push(Finding {
                        kind: FindingKind::Invariant {
                            config: label.to_string(),
                            desc: desc.to_string(),
                        },
                        program: prog.clone(),
                    });
                }
                if tier == Tier::Differential {
                    if !exec.halted {
                        findings.push(Finding {
                            kind: FindingKind::Hang {
                                config: label.to_string(),
                            },
                            program: prog.clone(),
                        });
                    }
                    match &base {
                        None => base = Some(exec.outcome),
                        Some(want) => {
                            if *want != exec.outcome {
                                findings.push(Finding {
                                    kind: FindingKind::Divergence {
                                        config: label.to_string(),
                                    },
                                    program: prog.clone(),
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    (sigs, findings)
}

// ---------------------------------------------------------------------------
// Minimization
// ---------------------------------------------------------------------------

/// Greedy delta-minimization: repeatedly try dropping each op (from the
/// tail) while `keep` still accepts the program; stop at a fixpoint.
/// `keep` is re-evaluated on every candidate, so the predicate defines
/// exactly what is preserved (a finding class, a coverage signature).
pub fn minimize(prog: &FuzzProgram, mut keep: impl FnMut(&FuzzProgram) -> bool) -> FuzzProgram {
    let mut cur = prog.clone();
    loop {
        let mut shrunk = false;
        let mut i = cur.ops.len();
        while i > 0 {
            i -= 1;
            if cur.ops.len() <= 1 {
                break;
            }
            let mut cand = cur.clone();
            cand.ops.remove(i);
            if keep(&cand) {
                cur = cand;
                shrunk = true;
            }
        }
        if !shrunk {
            return cur;
        }
    }
}

// ---------------------------------------------------------------------------
// Corpus serialization (deterministic text format)
// ---------------------------------------------------------------------------

/// A malformed corpus file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusError(pub String);

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corpus: {}", self.0)
    }
}

impl std::error::Error for CorpusError {}

/// Serialize one program as deterministic text: a `kfz1 <n>` header,
/// then one `op <sys> <h> <c> <v> <b>` line per op (entrypoint named in
/// a trailing comment for human readers).
pub fn program_to_text(prog: &FuzzProgram) -> String {
    let mut out = format!("kfz1 {}\n", prog.ops.len());
    for op in &prog.ops {
        out.push_str(&format!(
            "op {} {} {} {} {} # {}\n",
            op.sys,
            op.h,
            op.c,
            op.v,
            op.b,
            op.sysnum().name()
        ));
    }
    out
}

/// Parse [`program_to_text`] output.
pub fn program_from_text(text: &str) -> Result<FuzzProgram, CorpusError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| CorpusError("empty".into()))?;
    let mut hp = header.split_whitespace();
    if hp.next() != Some("kfz1") {
        return Err(CorpusError(format!("bad header {header:?}")));
    }
    let n: usize = hp
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| CorpusError(format!("bad count in {header:?}")))?;
    let mut ops = Vec::with_capacity(n);
    for line in lines {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut p = line.split_whitespace();
        if p.next() != Some("op") {
            return Err(CorpusError(format!("bad line {line:?}")));
        }
        let mut field = || -> Result<u8, CorpusError> {
            p.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| CorpusError(format!("bad field in {line:?}")))
        };
        ops.push(FuzzOp {
            sys: field()?,
            h: field()?,
            c: field()?,
            v: field()?,
            b: field()?,
        });
    }
    if ops.len() != n {
        return Err(CorpusError(format!(
            "expected {n} ops, found {}",
            ops.len()
        )));
    }
    Ok(FuzzProgram { ops })
}

/// Serialize a whole corpus as one deterministic text blob (programs in
/// corpus order, separated by blank lines).
pub fn corpus_to_text(corpus: &[FuzzProgram]) -> String {
    corpus
        .iter()
        .map(program_to_text)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Parse [`corpus_to_text`] output: a sequence of programs, each opened
/// by its own `kfz1` header.
pub fn corpus_from_text(text: &str) -> Result<Vec<FuzzProgram>, CorpusError> {
    let mut chunks: Vec<String> = Vec::new();
    for line in text.lines() {
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        if t.starts_with("kfz1") {
            chunks.push(String::new());
        }
        let Some(cur) = chunks.last_mut() else {
            return Err(CorpusError(format!("op line before any header: {t:?}")));
        };
        cur.push_str(line);
        cur.push('\n');
    }
    chunks.iter().map(|c| program_from_text(c)).collect()
}

// ---------------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------------

/// The result of one fuzzing campaign.
#[derive(Debug, Clone, Default)]
pub struct Campaign {
    /// All distinct coverage signatures reached.
    pub sigs: BTreeSet<u64>,
    /// The corpus of minimized signature-earning programs (guided mode;
    /// seeds plus additions — empty in baseline mode).
    pub corpus: Vec<FuzzProgram>,
    /// Coverage-growth curve: `(programs_executed, signatures)` after
    /// each case.
    pub curve: Vec<(u64, u64)>,
    /// Deduplicated findings, each with a minimized reproducer.
    pub findings: Vec<Finding>,
    /// Content hash of every program executed, in order (the mutation
    /// schedule — pinned by the determinism test).
    pub schedule: Vec<u64>,
}

/// Mixed into every campaign seed so kfuzz streams are decorrelated
/// from other splitmix users of the same seed ("kfuzz_v1").
const KFUZZ_SEED_MIX: u64 = 0x6b66_757a_7a5f_7631;

/// Run a fuzzing campaign of `cases` programs from `seed`.
///
/// * `guided = false` — the baseline: every case is synthesized fresh
///   from the seed stream, no feedback (exactly the discipline of the
///   fixed-seed `diff_fuzz` suite).
/// * `guided = true` — coverage-guided: cases mostly mutate corpus
///   entries (programs that earned new signatures, minimized while
///   preserving at least one of them), occasionally splicing two
///   entries or synthesizing fresh.
///
/// `initial` seeds the corpus (the committed `corpus/` directory in CI;
/// empty to start from scratch). Everything is deterministic from
/// `(seed, cases, guided, tier, initial)`.
pub fn campaign(
    seed: u64,
    cases: u64,
    guided: bool,
    tier: Tier,
    initial: &[FuzzProgram],
) -> Campaign {
    let ops = match tier {
        Tier::Differential => differential_ops(),
        Tier::Robustness => SYSCALLS.iter().map(|d| d.sys).collect(),
    };
    let mut rng = Rng(seed ^ KFUZZ_SEED_MIX);
    let mut out = Campaign::default();
    let mut classes: BTreeSet<String> = BTreeSet::new();

    // Seed corpus entries contribute their coverage up front so the
    // campaign only chases genuinely new signatures.
    if guided {
        for p in initial {
            let (sigs, _) = judge(tier, p);
            out.sigs.extend(sigs);
            out.corpus.push(p.clone());
        }
    }

    for _case in 0..cases {
        let prog = if guided && !out.corpus.is_empty() && rng.range(0, 4) != 0 {
            // Exploit: graft fresh exploration onto a proven prefix.
            // Corpus entries are *minimized* — short programs that cheaply
            // reach a deep state — so a mutant built from one alone covers
            // less ground than a fresh synth. Always extending the prefix
            // with a synthesized tail keeps every guided case at least as
            // broad as a baseline case while adding the deep-state
            // interactions only the corpus can provide.
            // Parents come from the novelty frontier: the most recent
            // corpus entries earned signatures nothing before them
            // reached, so their neighborhoods are the least explored.
            let window = out.corpus.len().min(12) as u32;
            let parent = out.corpus.len() - 1 - rng.range(0, window) as usize;
            let mut p = out.corpus[parent].clone();
            if out.corpus.len() > 1 && rng.range(0, 4) == 0 {
                // Splice: append a tail from another corpus entry.
                let other = &out.corpus[rng.range(0, out.corpus.len() as u32) as usize];
                if !other.ops.is_empty() {
                    let cut = rng.range(0, other.ops.len() as u32) as usize;
                    p.ops.extend(other.ops[cut..].iter().copied());
                }
            }
            p.ops.extend(synth(&mut rng, &ops).ops);
            p.ops.truncate(MAX_OPS);
            if rng.range(0, 2) == 0 {
                mutate(&mut rng, &mut p, &ops);
            }
            p
        } else {
            synth(&mut rng, &ops)
        };
        out.schedule.push(prog.hash());
        PROGRAMS.fetch_add(1, Ordering::Relaxed);

        let (sigs, findings) = judge(tier, &prog);
        let fresh: BTreeSet<u64> = sigs.difference(&out.sigs).copied().collect();
        if !fresh.is_empty() {
            out.sigs.extend(fresh.iter().copied());
            if guided {
                // Keep a minimized form that still earns one of the new
                // signatures.
                let min = minimize(&prog, |cand| {
                    let (s, _) = judge(tier, cand);
                    s.intersection(&fresh).next().is_some()
                });
                out.corpus.push(min);
            }
        }
        for f in findings {
            let class = f.class();
            if classes.insert(class.clone()) {
                FINDINGS.fetch_add(1, Ordering::Relaxed);
                let min_prog = minimize(&f.program, |cand| {
                    let (_, fs) = judge(tier, cand);
                    fs.iter().any(|g| g.class() == class)
                });
                out.findings.push(Finding {
                    kind: f.kind,
                    program: min_prog,
                });
            }
        }
        out.curve
            .push((out.schedule.len() as u64, out.sigs.len() as u64));
    }
    SIGNATURES.fetch_max(out.sigs.len() as u64, Ordering::Relaxed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluke_api::SysClass;

    #[test]
    fn corpus_round_trips() {
        let mut rng = Rng(7);
        let ops = differential_ops();
        for _ in 0..16 {
            let p = synth(&mut rng, &ops);
            let text = program_to_text(&p);
            assert_eq!(program_from_text(&text).unwrap(), p);
        }
        assert!(program_from_text("").is_err());
        assert!(program_from_text("kfz9 1\nop 0 0 0 0 0").is_err());
        assert!(program_from_text("kfz1 2\nop 0 0 0 0 0").is_err());
        assert!(program_from_text("kfz1 1\nxx 0 0 0 0 0").is_err());
    }

    #[test]
    fn differential_grammar_is_schedule_independent() {
        let ops = differential_ops();
        assert!(ops.len() >= 50, "{}", ops.len());
        for s in &ops {
            // Nothing in the grammar can sleep: single-threaded programs
            // always halt. (`region_search` is Multi-stage for *restart*
            // purposes — it never waits, it resumes after preemption.)
            assert!(
                !matches!(s.class(), SysClass::Long | SysClass::MultiStage)
                    || *s == Sys::RegionSearch,
                "{} can sleep",
                s.name()
            );
            assert!(
                !matches!(s, Sys::SysClock | Sys::SysStats),
                "model-dependent call in grammar"
            );
        }
    }

    #[test]
    fn minimizer_preserves_predicate_and_shrinks() {
        let prog = FuzzProgram {
            ops: (0..10)
                .map(|i| FuzzOp {
                    sys: Sys::SysNull.num() as u8,
                    h: i,
                    c: 0,
                    v: 0,
                    b: 0,
                })
                .collect(),
        };
        // Keep programs containing the op with h == 7.
        let min = minimize(&prog, |p| p.ops.iter().any(|o| o.h == 7));
        assert_eq!(min.ops.len(), 1);
        assert_eq!(min.ops[0].h, 7);
    }
}
