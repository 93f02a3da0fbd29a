//! `kprof`: the span-based cycle-attribution profiler.
//!
//! Every simulated cycle the kernel spends is attributed to a node of a
//! small phase tree — user execution, idle, and the kernel phases
//! (entry/exit preamble, dispatch, IPC copy, memory fill, fault IPC,
//! scheduling, locking) — with restart/rollback re-execution split out as
//! a leaf under whichever phase re-ran. Attribution is driven from the
//! *simulated* clock (never host time), so profiles are bit-deterministic.
//! The profiler is a consumer of the kernel's probe stream
//! (`Kprof::observe`) and touches only its own state: with `kprof`
//! enabled, every simulated quantity — cycle charges, traces, stats — is
//! unchanged (the zero-perturbation golden-digest test enforces this).
//! Disabled, nothing is allocated beyond the empty struct.
//!
//! A charge's path is a pure function of its probe (`charge_path`):
//! `dispatch` while a handler runs, the phase the charge names, and the
//! `restart` leaf during rollback. It is packed into a `u32` (4 bits per
//! level), so attributing a charge is a few integer ops — no strings, no
//! allocation on the hot path. `charge_path` produces a fixed set of 32
//! codes; with the top-level lock bucket and kspan's user frame that is
//! 34, and self-cycles per path live in a [`PathCycles`]: one
//! counter per code in a fixed array, found through a static code → slot
//! table and kept in packed-code order, so every report is deterministic.
//! kspan uses the same table for each live span's frames and each request
//! class's flamegraph, so a charge allocates nothing there either.
//!
//! `kprof` additionally feeds the §5.3 preemptibility axis: a
//! **preemption-latency histogram** of event-raised → next-dispatch
//! cycles, recorded for every thread a timer event wakes (the Table 6
//! probe generalized to all timer-driven wakeups).

use fluke_arch::cost::Cycles;

use crate::kspan::USER_FRAME;
use crate::probe::{Probe, ProbeCx};
use crate::trace::Histogram;

/// A kernel phase (one level of the attribution tree).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Phase {
    /// Kernel entry preamble (trap save, model-dependent).
    Entry = 1,
    /// Kernel exit path (result delivery, latched-preemption check).
    Exit = 2,
    /// System-call dispatch: the handler body.
    Dispatch = 3,
    /// The IPC transfer pump's byte-copy work.
    IpcCopy = 4,
    /// Soft-fault resolution: the mapping-hierarchy walk that fills a
    /// page-table entry.
    MemFill = 5,
    /// Converting a hard fault into exception IPC to the keeper.
    FaultIpc = 6,
    /// Context/space switch work in the scheduler.
    Sched = 7,
    /// Kernel lock overhead: big-lock waits, mutex acquire/release, and
    /// the Full-preemption locking surcharge.
    Lock = 8,
    /// Restart/rollback overhead: re-execution of preamble work after an
    /// atomic call rolled back to its register continuation (a leaf under
    /// whichever phase re-ran).
    Restart = 9,
}

impl Phase {
    /// Phase name as used in collapsed-stack lines (snake_case).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Entry => "entry",
            Phase::Exit => "exit",
            Phase::Dispatch => "dispatch",
            Phase::IpcCopy => "ipc_copy",
            Phase::MemFill => "mem_fill",
            Phase::FaultIpc => "fault_ipc",
            Phase::Sched => "sched",
            Phase::Lock => "lock",
            Phase::Restart => "restart",
        }
    }

    const fn from_nibble(n: u32) -> Option<Phase> {
        Some(match n {
            1 => Phase::Entry,
            2 => Phase::Exit,
            3 => Phase::Dispatch,
            4 => Phase::IpcCopy,
            5 => Phase::MemFill,
            6 => Phase::FaultIpc,
            7 => Phase::Sched,
            8 => Phase::Lock,
            9 => Phase::Restart,
            _ => return None,
        })
    }
}

/// Maximum phase-stack depth a packed `u32` path can hold.
const MAX_DEPTH: u32 = 8;

/// Decode a packed path into its phases, root first.
fn unpack(code: u32) -> Vec<Phase> {
    let mut out = Vec::new();
    let mut c = code;
    while c != 0 {
        out.push(Phase::from_nibble(c & 0xf).expect("valid packed phase"));
        c >>= 4;
    }
    out
}

/// Render a packed path as a collapsed-stack frame string
/// (`kernel;dispatch;ipc_copy`).
pub fn path_name(code: u32) -> String {
    let mut s = String::from("kernel");
    for p in unpack(code) {
        s.push(';');
        s.push_str(p.name());
    }
    s
}

/// The packed path a charge lands on: `dispatch` while a system-call
/// handler runs, then the charge's own `phase`, then — while rollback
/// re-execution is active — the `Restart` leaf. A lock section
/// ([`Phase::Lock`]) is never nested: kprof routes it whole to the
/// top-level lock bucket, and kspan's per-request frames keep it on the
/// enclosing path.
#[inline]
pub const fn charge_path(dispatch: bool, phase: Option<Phase>, rollback: bool) -> u32 {
    let (mut code, mut shift) = (0, 0);
    if dispatch {
        code = Phase::Dispatch as u32;
        shift = 4;
    }
    if let Some(p) = phase {
        if !matches!(p, Phase::Lock) {
            code |= (p as u32) << shift;
            shift += 4;
        }
    }
    if rollback {
        code |= (Phase::Restart as u32) << shift;
    }
    code
}

/// Packed codes below this bound index the slot table: a charge path has
/// at most three levels (`dispatch;phase;restart`), so it stays below it.
const CODE_SPACE: usize = 0x1000;

/// The slot table (each code's slot plus one; 0 for a code no charge
/// produces) and the slot count. Slots number the codes `charge_path`
/// produces and the top-level lock bucket in ascending code order;
/// [`USER_FRAME`], the largest code, takes the last slot.
const fn slot_table() -> ([u8; CODE_SPACE], usize) {
    let mut slot = [0u8; CODE_SPACE];
    slot[Phase::Lock as usize] = 1;
    // Every (dispatch, phase nibble or none, rollback) triple.
    let mut i = 0;
    while i < 2 * 10 * 2 {
        let phase = Phase::from_nibble((i / 2 % 10) as u32);
        slot[charge_path(i >= 20, phase, i % 2 == 1) as usize] = 1;
        i += 1;
    }
    let (mut code, mut n) = (0, 0);
    while code < CODE_SPACE {
        if slot[code] != 0 {
            n += 1;
            slot[code] = n as u8;
        }
        code += 1;
    }
    (slot, n + 1)
}

const SLOT_TABLE: ([u8; CODE_SPACE], usize) = slot_table();

/// Number of codes a [`PathCycles`] holds.
const PATHS: usize = SLOT_TABLE.1;

const _: () = assert!(PATHS <= u64::BITS as usize, "one presence bit per slot");

static SLOTS: [u8; CODE_SPACE] = SLOT_TABLE.0;

/// Each slot's code, ascending.
static CODES: [u32; PATHS] = {
    let mut codes = [USER_FRAME; PATHS];
    let mut code = 0;
    while code < CODE_SPACE {
        if SLOT_TABLE.0[code] != 0 {
            codes[SLOT_TABLE.0[code] as usize - 1] = code as u32;
        }
        code += 1;
    }
    codes
};

/// The slot of `code`, if a [`PathCycles`] can hold it.
#[inline]
fn slot(code: u32) -> Option<usize> {
    if code == USER_FRAME {
        return Some(PATHS - 1);
    }
    match SLOTS.get(code as usize) {
        Some(&s) if s > 0 => Some(s as usize - 1),
        _ => None,
    }
}

/// Cycles per packed kprof path: one counter for each code [`charge_path`]
/// produces, the top-level [`Phase::Lock`] bucket and [`USER_FRAME`], in
/// a fixed array. It iterates in packed-code order and keeps an entry once
/// added, even at 0 cycles, so it reads and encodes exactly like the
/// `BTreeMap<u32, u64>` it replaces — without allocating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathCycles {
    /// Bit `s` is set once slot `s` has an entry.
    present: u64,
    cycles: [u64; PATHS],
}

impl Default for PathCycles {
    fn default() -> Self {
        PathCycles {
            present: 0,
            cycles: [0; PATHS],
        }
    }
}

impl PathCycles {
    /// Add `cycles` to `code`'s entry, creating it if absent.
    ///
    /// # Panics
    /// If `code` is not a code [`charge_path`] produces, [`Phase::Lock`]
    /// or [`USER_FRAME`].
    #[inline]
    pub fn add(&mut self, code: u32, cycles: u64) {
        let s = slot(code).expect("a charge path, the lock bucket or the user frame");
        self.present |= 1 << s;
        self.cycles[s] += cycles;
    }

    /// `code`'s cycles, if it has an entry.
    pub fn get(&self, code: u32) -> Option<u64> {
        let s = slot(code)?;
        (self.present >> s & 1 == 1).then(|| self.cycles[s])
    }

    /// Every entry as `(code, cycles)`, in ascending code order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        (0..PATHS)
            .filter(|&s| self.present >> s & 1 == 1)
            .map(|s| (CODES[s], self.cycles[s]))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.present.count_ones() as usize
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.present == 0
    }

    /// Cycles across all entries.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Add every entry of `other` into this table.
    pub fn merge(&mut self, other: &PathCycles) {
        self.present |= other.present;
        for (a, b) in self.cycles.iter_mut().zip(&other.cycles) {
            *a += b;
        }
    }
}

/// The profiler state held by the kernel. Fed by the probe stream; when
/// disabled it attributes nothing, when enabled it mutates only this
/// struct.
#[derive(Debug, Clone, Default)]
pub struct Kprof {
    /// Whether attribution is active (set from `Config::kprof`).
    pub enabled: bool,
    /// Self-cycles of user-mode execution.
    user: u64,
    /// Self-cycles of idle waiting.
    idle: u64,
    /// Self-cycles per kernel path (packed path → cycles; 0 = kernel
    /// root's own work, e.g. native-thread bodies).
    kernel: PathCycles,
    /// Event-raised → next-dispatch latency, for every timer-woken thread.
    preempt_latency: Histogram,
}

impl Kprof {
    /// A profiler in the given state; allocates nothing until cycles are
    /// attributed.
    pub fn new(enabled: bool) -> Kprof {
        Kprof {
            enabled,
            ..Kprof::default()
        }
    }

    /// The `kprof` consumer of the probe stream: attribute every
    /// cycle-carrying probe to its bucket, charges by [`charge_path`].
    /// Inlined into the kernel's delivery: it runs on every charge, and a
    /// call per charge doubled kprof's armed host cost.
    #[inline(always)]
    pub(crate) fn observe(&mut self, p: &Probe, cx: &ProbeCx) {
        if !self.enabled {
            return;
        }
        let dispatch = cx.dispatch.is_some();
        match *p {
            Probe::Charge {
                cycles,
                phase: Some(Phase::Lock),
                ..
            } => self.add_kernel(Phase::Lock as u32, cycles),
            Probe::Charge {
                cycles,
                lock_extra,
                phase,
            } => {
                self.add_kernel(
                    charge_path(dispatch, phase, cx.rollback),
                    cycles - lock_extra,
                );
                if lock_extra > 0 {
                    self.add_kernel(Phase::Lock as u32, lock_extra);
                }
            }
            Probe::Remote { cycles } => self.add_kernel(charge_path(dispatch, None, false), cycles),
            Probe::LockCost { cycles } | Probe::LockWait { cycles, .. } => {
                self.add_kernel(Phase::Lock as u32, cycles)
            }
            Probe::User { cycles, .. } => self.user += cycles,
            Probe::Idle { cycles } => self.idle += cycles,
            Probe::Latency { cycles } => self.preempt_latency.record(cycles),
            _ => {}
        }
    }

    #[inline]
    fn add_kernel(&mut self, code: u32, cycles: Cycles) {
        self.kernel.add(code, cycles);
    }

    /// The preemption-latency histogram (event-raised → next-dispatch
    /// cycles for every timer-woken thread; the §5.3 axis).
    pub fn preempt_latency(&self) -> &Histogram {
        &self.preempt_latency
    }

    /// User-mode self cycles.
    pub fn user_cycles(&self) -> u64 {
        self.user
    }

    /// Idle self cycles.
    pub fn idle_cycles(&self) -> u64 {
        self.idle
    }

    /// Total kernel cycles across all kernel paths.
    pub fn kernel_cycles(&self) -> u64 {
        self.kernel.total()
    }

    /// Total attributed cycles: user + idle + kernel. With `kprof` on for
    /// a whole run this equals the sum of all CPUs' clocks exactly (the
    /// sum-exactness invariant; asserted by the bench tests).
    pub fn total(&self) -> u64 {
        self.user + self.idle + self.kernel_cycles()
    }

    /// Self-cycles attributed to one exact kernel path (root-first), e.g.
    /// `&[Phase::Dispatch, Phase::IpcCopy]`. `&[]` is the kernel root.
    pub fn self_cycles(&self, path: &[Phase]) -> u64 {
        let mut code = 0u32;
        for (i, p) in path.iter().enumerate() {
            code |= (*p as u32) << (4 * i);
        }
        self.kernel.get(code).unwrap_or(0)
    }

    /// The flat profile: (collapsed path, self cycles) for every node with
    /// attributed cycles — `user` and `idle` first, then kernel paths in
    /// deterministic packed-code order.
    pub fn flat(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(self.kernel.len() + 2);
        if self.user > 0 {
            out.push(("user".to_string(), self.user));
        }
        if self.idle > 0 {
            out.push(("idle".to_string(), self.idle));
        }
        for (code, c) in self.kernel.iter() {
            out.push((path_name(code), c));
        }
        out
    }

    /// Collapsed-stack flamegraph lines (`path cycles`), one per node —
    /// feed to any FlameGraph implementation.
    pub fn collapsed(&self) -> Vec<String> {
        self.flat()
            .into_iter()
            .map(|(p, c)| format!("{p} {c}"))
            .collect()
    }

    /// Inclusive cycles of a packed path: its self cycles plus every
    /// descendant's.
    fn inclusive(&self, code: u32, depth: u32) -> u64 {
        let mask = ((1u64 << (4 * depth.min(MAX_DEPTH))) - 1) as u32;
        self.kernel
            .iter()
            .filter(|&(k, _)| k & mask == code)
            .map(|(_, c)| c)
            .sum()
    }

    /// The call-tree report: one indented line per node with inclusive
    /// ("total") and self cycles and the share of all attributed cycles.
    pub fn tree_report(&self) -> String {
        let total = self.total().max(1);
        let mut out = String::new();
        let pct = |c: u64| 100.0 * c as f64 / total as f64;
        out.push_str(&format!(
            "{:<40} {:>14} {:>14} {:>6}\n",
            "phase", "total", "self", "%"
        ));
        out.push_str(&format!(
            "{:<40} {:>14} {:>14} {:>6.1}\n",
            "user",
            self.user,
            self.user,
            pct(self.user)
        ));
        out.push_str(&format!(
            "{:<40} {:>14} {:>14} {:>6.1}\n",
            "idle",
            self.idle,
            self.idle,
            pct(self.idle)
        ));
        let kt = self.kernel_cycles();
        out.push_str(&format!(
            "{:<40} {:>14} {:>14} {:>6.1}\n",
            "kernel",
            kt,
            self.kernel.get(0).unwrap_or(0),
            pct(kt)
        ));
        // Children in depth-first order: the table's packed-code order is
        // not DFS, so walk explicitly.
        self.tree_children(0, 0, 1, &mut out, total);
        out
    }

    fn tree_children(&self, code: u32, depth: u32, indent: usize, out: &mut String, total: u64) {
        // Candidate child phases at this depth, in Phase order.
        for n in 1..=9u32 {
            let child = code | n << (4 * depth);
            let inc = self.inclusive(child, depth + 1);
            if inc == 0 {
                continue;
            }
            let slf = self.kernel.get(child).unwrap_or(0);
            let name = format!(
                "{}{}",
                "  ".repeat(indent),
                Phase::from_nibble(n).expect("n in range").name()
            );
            out.push_str(&format!(
                "{:<40} {:>14} {:>14} {:>6.1}\n",
                name,
                inc,
                slf,
                100.0 * inc as f64 / total as f64
            ));
            if depth + 1 < MAX_DEPTH {
                self.tree_children(child, depth + 1, indent + 1, out, total);
            }
        }
    }
}

// --- krec snapshot support ------------------------------------------------

use crate::krec::{Snap, SnapError, SnapReader, SnapWriter};

// Encoded as the `BTreeMap<u32, u64>` it replaces: a count, then each
// `(code, cycles)` in ascending code order. Decoding rejects a code the
// table cannot hold and codes out of order.
impl Snap for PathCycles {
    fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for (code, cycles) in self.iter() {
            w.u32(code);
            w.u64(cycles);
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.usize()?;
        let mut t = PathCycles::default();
        let mut last = None;
        for _ in 0..n {
            let s = slot(r.u32()?).ok_or(SnapError::Invalid("kprof path code"))?;
            if last.is_some_and(|l| s <= l) {
                return Err(SnapError::Invalid("kprof path order"));
            }
            last = Some(s);
            t.present |= 1 << s;
            t.cycles[s] = r.u64()?;
        }
        Ok(t)
    }
}

impl Kprof {
    /// Write the profiler's snapshot section. `kspan` records whether the
    /// kspan layer labels charges with these paths. The version-2 image
    /// also holds a phase-stack depth, path and lock-section flag, which
    /// are empty between dispatches, where snapshots are taken.
    pub(crate) fn snap_image(&self, w: &mut SnapWriter, kspan: bool) {
        w.bool(self.enabled);
        w.bool(kspan);
        w.u32(0);
        w.u32(0);
        w.bool(false);
        w.u64(self.user);
        w.u64(self.idle);
        self.kernel.snap(w);
        self.preempt_latency.snap(w);
    }

    /// Read a section written by [`Kprof::snap_image`].
    pub(crate) fn restore_image(r: &mut SnapReader<'_>) -> Result<Kprof, SnapError> {
        let enabled = r.bool()?;
        r.bool()?; // kspan's flag; its own section carries it too
        if r.u32()? != 0 || r.u32()? != 0 || r.bool()? {
            return Err(SnapError::Invalid("kprof phase stack"));
        }
        Ok(Kprof {
            enabled,
            user: r.u64()?,
            idle: r.u64()?,
            kernel: Snap::restore(r)?,
            preempt_latency: Snap::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ThreadId;
    use crate::kernel::LockKey;
    use crate::probe::tests::with_cx;
    use crate::probe::ProbeCx;
    use fluke_api::Sys;

    /// Feed `probes` with rollback re-execution `rollback` and, when
    /// `dispatch`, a system-call handler running.
    fn feed(k: &mut Kprof, dispatch: bool, rollback: bool, probes: &[Probe]) {
        with_cx(0, rollback, |cx| {
            let cx = ProbeCx {
                dispatch: dispatch.then_some((ThreadId(0), Sys::SysNull)),
                ..*cx
            };
            for p in probes {
                k.observe(p, &cx);
            }
        });
    }

    fn charge(cycles: Cycles, lock_extra: Cycles, phase: Option<Phase>) -> Probe {
        Probe::Charge {
            cycles,
            lock_extra,
            phase,
        }
    }

    #[test]
    fn disabled_profiler_attributes_nothing() {
        let mut k = Kprof::new(false);
        let probes = [
            charge(100, 0, None),
            Probe::User {
                thread: ThreadId(0),
                cycles: 50,
            },
            Probe::Idle { cycles: 25 },
            Probe::Latency { cycles: 10 },
        ];
        feed(&mut k, true, false, &probes);
        assert_eq!(k.total(), 0);
        assert!(k.preempt_latency().is_empty());
        assert!(k.flat().is_empty());
    }

    #[test]
    fn paths_pack_and_render() {
        let mut k = Kprof::new(true);
        feed(&mut k, false, false, &[charge(5, 0, None)]); // kernel root self
        let probes = [charge(10, 0, None), charge(20, 0, Some(Phase::IpcCopy))];
        feed(&mut k, true, false, &probes);
        assert_eq!(k.self_cycles(&[]), 5);
        assert_eq!(k.self_cycles(&[Phase::Dispatch]), 10);
        assert_eq!(k.self_cycles(&[Phase::Dispatch, Phase::IpcCopy]), 20);
        let lines = k.collapsed();
        assert!(lines.contains(&"kernel 5".to_string()));
        assert!(lines.contains(&"kernel;dispatch 10".to_string()));
        assert!(lines.contains(&"kernel;dispatch;ipc_copy 20".to_string()));
        assert_eq!(k.total(), 35);
    }

    #[test]
    fn rollback_charges_land_under_restart_leaf() {
        let mut k = Kprof::new(true);
        feed(&mut k, true, true, &[charge(10, 0, None)]);
        feed(&mut k, false, true, &[charge(5, 0, Some(Phase::Entry))]);
        feed(&mut k, true, false, &[charge(30, 0, None)]);
        assert_eq!(k.self_cycles(&[Phase::Dispatch, Phase::Restart]), 10);
        assert_eq!(k.self_cycles(&[Phase::Entry, Phase::Restart]), 5);
        assert_eq!(k.self_cycles(&[Phase::Dispatch]), 30);
    }

    #[test]
    fn lock_surcharge_and_sections_land_under_lock() {
        let mut k = Kprof::new(true);
        let probes = [
            charge(140, 40, None),           // FP surcharge
            charge(9, 2, Some(Phase::Lock)), // lock section (+ its surcharge)
        ];
        feed(&mut k, true, false, &probes);
        let wait = Probe::LockWait {
            key: LockKey::Global,
            cycles: 11,
        };
        feed(&mut k, false, false, &[wait]);
        assert_eq!(k.self_cycles(&[Phase::Dispatch]), 100);
        assert_eq!(k.self_cycles(&[Phase::Lock]), 40 + 9 + 11);
        assert_eq!(k.total(), 160);
    }

    #[test]
    fn tree_report_totals_include_children() {
        let mut k = Kprof::new(true);
        let user = Probe::User {
            thread: ThreadId(0),
            cycles: 1000,
        };
        feed(&mut k, false, false, &[user]);
        let probes = [charge(10, 0, None), charge(90, 0, Some(Phase::MemFill))];
        feed(&mut k, true, false, &probes);
        let rep = k.tree_report();
        // dispatch's inclusive total is 100 (10 self + 90 mem_fill).
        let dispatch_line = rep
            .lines()
            .find(|l| l.trim_start().starts_with("dispatch"))
            .expect("dispatch line");
        assert!(dispatch_line.contains("100"), "{rep}");
        assert!(rep.lines().any(|l| l.trim_start().starts_with("mem_fill")));
    }

    #[test]
    fn path_slots_are_every_charge_path_in_code_order() {
        let mut codes = vec![Phase::Lock as u32, USER_FRAME];
        for dispatch in [false, true] {
            for rollback in [false, true] {
                codes.push(charge_path(dispatch, None, rollback));
                for n in 1..=9 {
                    codes.push(charge_path(dispatch, Phase::from_nibble(n), rollback));
                }
            }
        }
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 34);
        assert_eq!(CODES[..], codes[..]);
        for (s, &code) in CODES.iter().enumerate() {
            assert_eq!(slot(code), Some(s));
        }
        // Neither a nibble past the phases, a fourth level, nor a nested
        // lock section is a charge path.
        for code in [0xa, 0x8 << 4 | 3, 0x1993, 0x1000, u32::MAX - 1] {
            assert_eq!(slot(code), None, "{code:#x}");
        }
    }

    #[test]
    fn path_table_restore_rejects_foreign_codes_and_disorder() {
        let encode = |pairs: &[(u32, u64)]| {
            let mut w = SnapWriter::new();
            w.usize(pairs.len());
            for &(code, cycles) in pairs {
                w.u32(code);
                w.u64(cycles);
            }
            w.finish()
        };
        let restore = |bytes: &[u8]| PathCycles::restore(&mut SnapReader::new(bytes));
        let ok = encode(&[(0x3, 4), (0x93, 0)]);
        let t = restore(&ok).unwrap();
        let mut w = SnapWriter::new();
        t.snap(&mut w);
        assert_eq!(w.finish(), ok);
        for (pairs, why) in [
            (&[(0xa, 1)][..], "kprof path code"),
            (&[(u32::MAX - 1, 1)], "kprof path code"),
            (&[(0x93, 1), (0x3, 1)], "kprof path order"),
            (&[(0x3, 1), (0x3, 1)], "kprof path order"),
        ] {
            assert_eq!(restore(&encode(pairs)).err(), Some(SnapError::Invalid(why)));
        }
    }

    #[test]
    fn latency_histogram_records_when_enabled() {
        let mut k = Kprof::new(true);
        let probes = [
            Probe::Latency { cycles: 123 },
            Probe::Latency { cycles: 456 },
        ];
        feed(&mut k, false, false, &probes);
        assert_eq!(k.preempt_latency().count(), 2);
        assert_eq!(k.preempt_latency().max(), 456);
    }
}
