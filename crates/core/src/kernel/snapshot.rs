//! Whole-kernel snapshot encode/decode and the `krec` recorder hooks.
//!
//! Lives inside the `kernel` module so it can serialize the module-private
//! pieces ([`CpuSlot`], [`LockKey`]). The byte format and the per-subsystem
//! `Snap` impls are in [`crate::krec`]; this file owns the *body layout*:
//! every kernel field in declaration order, bracketed by the `"FKSN"` magic,
//! the format version, and the FNV-1a digest trailer.
//!
//! Two states are intentionally outside the contract and rejected up front:
//! host-native thread bodies (Rust closures cannot round-trip bytes) and the
//! debug atomicity auditor's scratch state. The recorder itself
//! ([`crate::krec::Krec`]) is host-side bookkeeping and is never encoded, so
//! a recording kernel and its restored twin produce equal digests.

use std::sync::Arc;

use fluke_arch::program::{Program, ProgramId};

use crate::krec::{
    fnv64, snap_enum, Krec, Recording, Snap, SnapError, SnapReader, SnapWriter, Snapshot,
    FNV_OFFSET, SNAP_MAGIC, SNAP_VERSION,
};
use crate::sched::ClockIndex;
use crate::thread::Body;

use super::locktable::{LockBounds, LockTable};
use super::{CpuSlot, Kernel, LockClass, LockKey};

/// One contiguous resident-memory run: `(vaddr, bytes, writable)`
/// (debugger view, see [`Kernel::debug_space_map`]).
pub type MemRun = (u32, u32, bool);

snap_enum!(LockKey {
    0 => Sched,
    1 => RunQueue(i),
    2 => Handles(i),
    3 => Space(i),
    4 => Conn(i),
    5 => Global,
});

snap_enum!(LockClass {
    0 => Sched,
    1 => Handles,
    2 => Space,
    3 => Ipc,
    4 => Klock,
});

// A CPU slot is encoded with its parked bit last. The bit lives in the
// kernel's CPU-clock index, so the slot list is coded by the kernel.
fn snap_cpus(cpus: &[CpuSlot], index: &ClockIndex, w: &mut SnapWriter) {
    w.usize(cpus.len());
    for (i, c) in cpus.iter().enumerate() {
        c.cpu.snap(w);
        c.current.snap(w);
        w.bool(c.resched);
        w.u64(c.slice_end);
        c.last_space.snap(w);
        w.bool(index.is_parked(i));
    }
}

/// Decode `num_cpus` CPU slots (a validated count) and rebuild the
/// CPU-clock index over them.
fn restore_cpus(
    r: &mut SnapReader<'_>,
    num_cpus: usize,
) -> Result<(Vec<CpuSlot>, ClockIndex), SnapError> {
    if r.usize()? != num_cpus {
        return Err(SnapError::Invalid("cpu slot count"));
    }
    let mut cpus = Vec::with_capacity(num_cpus);
    let mut parked = 0u64;
    for i in 0..num_cpus {
        cpus.push(CpuSlot {
            cpu: Snap::restore(r)?,
            current: Snap::restore(r)?,
            resched: r.bool()?,
            slice_end: r.u64()?,
            last_space: Snap::restore(r)?,
        });
        if r.bool()? {
            parked |= 1 << i;
        }
    }
    let index = ClockIndex::new(cpus.iter().map(|c| c.cpu.now).collect(), parked);
    Ok((cpus, index))
}

// The lock table's format (SNAP_VERSION 2): a count, then the present
// `(key, stamp)` pairs in `LockKey` order.
fn snap_locks(locks: &LockTable, w: &mut SnapWriter) {
    w.usize(locks.len());
    for (k, at) in locks.entries() {
        k.snap(w);
        w.u64(at);
    }
}

/// Decode the lock table's entries. They are checked against the arenas
/// (decoded later in the stream) before any class vector is sized.
fn restore_lock_entries(r: &mut SnapReader<'_>) -> Result<Vec<(LockKey, u64)>, SnapError> {
    let n = r.usize()?;
    let mut v = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        v.push((LockKey::restore(r)?, r.u64()?));
    }
    Ok(v)
}

impl Kernel {
    /// Reject states outside the snapshot contract before encoding.
    fn snap_precheck(&self) -> Result<(), SnapError> {
        if self.audit.is_some() {
            return Err(SnapError::AuditActive);
        }
        if self
            .threads
            .iter()
            .any(|(_, t)| matches!(t.body, Body::Native(_)))
        {
            return Err(SnapError::NativeBody);
        }
        Ok(())
    }

    /// Encode every kernel field, in struct declaration order, into `w`.
    /// `krec` and `audit` are deliberately absent (host-side / unsupported).
    fn encode_body(&self, w: &mut SnapWriter) {
        self.cfg.snap(w);
        self.cost.snap(w);
        snap_cpus(&self.cpus, &self.cpu_index, w);
        w.usize(self.active);
        snap_locks(&self.locks, w);
        self.threads.snap(w);
        self.spaces.snap(w);
        self.objects.snap(w);
        self.conns.snap(w);
        w.usize(self.programs.len());
        for p in &self.programs {
            p.snap(w);
        }
        self.phys.snap(w);
        self.runqs.snap(w);
        self.events.snap(w);
        self.stats.snap(w);
        self.trace.snap(w);
        self.kprof.snap_image(w, self.kspan.enabled);
        self.kspan.snap_image(w);
        self.kfault.snap(w);
        self.dispatch_rollback.snap(w);
        w.bool(self.rollback_active);
        w.bool(self.dispatch_suppress);
    }

    /// Serialize the complete kernel state into a versioned, digest-stamped
    /// image. Fails (never panics) if the kernel holds state outside the
    /// snapshot contract (native thread bodies, armed auditor).
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>, SnapError> {
        self.snap_precheck()?;
        let mut w = SnapWriter::new();
        w.raw(&SNAP_MAGIC);
        w.u32(SNAP_VERSION);
        self.encode_body(&mut w);
        Ok(w.finish())
    }

    /// The state digest: the FNV-1a-64 a [`Kernel::snapshot_bytes`] image
    /// would carry in its trailer, computed without materializing the bytes.
    pub fn state_digest(&self) -> Result<u64, SnapError> {
        self.snap_precheck()?;
        let mut w = SnapWriter::hash_only();
        w.raw(&SNAP_MAGIC);
        w.u32(SNAP_VERSION);
        self.encode_body(&mut w);
        Ok(w.digest())
    }

    /// Rebuild a kernel from a snapshot image: verify magic, version and
    /// digest trailer, decode every field, validate the configuration and
    /// every lock key, rebuild derived indices, re-resolve each thread's
    /// program text from its [`ProgramId`], and run
    /// `Kernel::check_invariants`.
    pub fn restore_from(bytes: &[u8]) -> Result<Kernel, SnapError> {
        if bytes.len() < SNAP_MAGIC.len() + 4 + 8 {
            return Err(SnapError::Truncated);
        }
        if bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let n = bytes.len();
        let stored = u64::from_le_bytes(bytes[n - 8..].try_into().unwrap());
        let computed = fnv64(FNV_OFFSET, &bytes[..n - 8]);
        if stored != computed {
            return Err(SnapError::BadDigest { stored, computed });
        }
        let mut r = SnapReader::new(&bytes[SNAP_MAGIC.len()..n - 8]);
        let version = r.u32()?;
        if version != SNAP_VERSION {
            return Err(SnapError::BadVersion(version));
        }
        let cfg: crate::Config = Snap::restore(&mut r)?;
        // Everything sized by the CPU count relies on a valid config
        // (masks are one bit per CPU): reject it before decoding further.
        cfg.validate()
            .map_err(|_| SnapError::Invalid("kernel configuration"))?;
        let cost = Snap::restore(&mut r)?;
        let (cpus, cpu_index) = restore_cpus(&mut r, cfg.num_cpus)?;
        let active = r.usize()?;
        let lock_entries = restore_lock_entries(&mut r)?;
        let threads: crate::ids::Arena<crate::thread::Thread> = Snap::restore(&mut r)?;
        let spaces = Snap::restore(&mut r)?;
        let objects = Snap::restore(&mut r)?;
        let conns = Snap::restore(&mut r)?;
        let programs: Vec<Program> = Snap::restore(&mut r)?;
        let programs = programs.into_iter().map(Arc::new).collect();
        let phys = Snap::restore(&mut r)?;
        let runqs = Snap::restore(&mut r)?;
        let events = Snap::restore(&mut r)?;
        let stats = Snap::restore(&mut r)?;
        let trace = Snap::restore(&mut r)?;
        let kprof = crate::kprof::Kprof::restore_image(&mut r)?;
        let kspan = crate::kspan::Kspan::restore_image(&mut r, threads.slots())?;
        let kfault = Snap::restore(&mut r)?;
        let dispatch_rollback = Snap::restore(&mut r)?;
        let rollback_active = r.bool()?;
        let dispatch_suppress = r.bool()?;
        r.expect_end()?;
        let mut k = Kernel {
            cfg,
            cost,
            cpus,
            active,
            cpu_index,
            locks: LockTable::default(),
            threads,
            spaces,
            objects,
            conns,
            programs,
            phys,
            runqs,
            events,
            stats,
            trace,
            kprof,
            kspan,
            kfault,
            dispatch_rollback,
            rollback_active,
            dispatch_suppress,
            audit: None,
            krec: None,
            // Host-side checker: a restored twin boots with it off (the
            // restored config never enables it — see `Snap for Config`).
            flowcheck: crate::flowcheck::Flowcheck::default(),
        };
        if k.active >= k.cpus.len() {
            return Err(SnapError::Invalid("cpu slot count"));
        }
        let runqs = if k.cfg.big_lock { 1 } else { k.cfg.num_cpus };
        if k.runqs.cpus() != runqs {
            return Err(SnapError::Invalid("run-queue count"));
        }
        let bounds = LockBounds {
            runqs,
            spaces: k.spaces.slots(),
            conns: k.conns.slots(),
            global: k.cfg.big_lock,
        };
        k.locks = LockTable::from_entries(&lock_entries, &bounds).map_err(SnapError::Invalid)?;
        // Program text is interned by id, not serialized per thread:
        // re-resolve each thread's `text` the way `spawn_thread` does.
        let bindings: Vec<(u32, ProgramId)> = k
            .threads
            .iter()
            .filter_map(|(i, t)| t.program.map(|p| (i, p)))
            .collect();
        for (i, pid) in bindings {
            let text = k
                .program(pid)
                .ok_or(SnapError::Invalid("thread references unregistered program"))?;
            if let Some(t) = k.threads.get_mut(i) {
                t.text = Some(text);
            }
        }
        k.check_invariants().map_err(SnapError::Invalid)?;
        Ok(k)
    }

    /// The armed recorder, if any.
    pub fn krec(&self) -> Option<&Krec> {
        self.krec.as_ref()
    }

    // ------------------------------------------------------------------
    // Debugger views (read-only enumeration for `kdb` and friends).
    // ------------------------------------------------------------------

    /// Every live thread id, with its program name (debugger view).
    pub fn debug_threads(&self) -> Vec<(crate::ids::ThreadId, String)> {
        self.threads
            .iter()
            .map(|(_, t)| {
                let name = t
                    .text
                    .as_ref()
                    .map(|p| p.name().to_string())
                    .unwrap_or_else(|| "<native>".to_string());
                (t.id, name)
            })
            .collect()
    }

    /// The earliest per-CPU clock. Trace records strictly before this
    /// horizon are final; records at or past it may still be joined by
    /// more as execution continues (debugger view).
    pub fn debug_cycle_horizon(&self) -> u64 {
        self.cpus.iter().map(|c| c.cpu.now).min().unwrap_or(0)
    }

    /// Every live space id (debugger view).
    pub fn debug_spaces(&self) -> Vec<crate::ids::SpaceId> {
        self.spaces.iter().map(|(_, s)| s.id).collect()
    }

    /// A space's resident memory as contiguous `(vaddr, bytes, writable)`
    /// runs, plus its imported mapping-object count (debugger view).
    pub fn debug_space_map(&self, s: crate::ids::SpaceId) -> Option<(Vec<MemRun>, usize)> {
        use fluke_api::abi::PAGE_SIZE;
        let sp = self.spaces.get(s.0)?;
        let mut vpns: Vec<(u32, bool)> = sp.pages_iter().map(|(&v, p)| (v, p.writable)).collect();
        vpns.sort_unstable();
        let mut runs: Vec<(u32, u32, bool)> = Vec::new();
        for (vpn, w) in vpns {
            match runs.last_mut() {
                Some((base, len, rw)) if *rw == w && *base + *len == vpn * PAGE_SIZE => {
                    *len += PAGE_SIZE;
                }
                _ => runs.push((vpn * PAGE_SIZE, PAGE_SIZE, w)),
            }
        }
        Some((runs, sp.mappings().len()))
    }

    /// Take a manual snapshot into the recorder's ring (between `run`
    /// calls). Returns the snapshot's state digest.
    pub fn snapshot_now(&mut self) -> Result<u64, SnapError> {
        if self.krec.is_none() {
            return Err(SnapError::RecorderOff);
        }
        let bytes = self.snapshot_bytes()?;
        let at_cycle = self.cpus.iter().map(|c| c.cpu.now).max().unwrap_or(0);
        let kr = self.krec.as_mut().expect("checked above");
        let snap = Snapshot {
            at_cycle,
            window_index: kr.windows.len(),
            site: kr.sites_seen,
            mid_run: false,
            bytes,
        };
        let digest = snap.digest();
        kr.push_snapshot(snap);
        Ok(digest)
    }

    /// Detach the recorder and hand back everything it captured. The kernel
    /// keeps running (un-recorded) afterwards.
    pub fn take_recording(&mut self) -> Option<Recording> {
        self.krec.take().map(|k| Recording {
            snapshots: k.snapshots.into_iter().collect(),
            windows: k.windows,
        })
    }

    /// Recorder hook at a user-thread dispatch boundary (the same site
    /// enumeration `kfault` sweeps). Observes simulated state but never
    /// mutates it — arming `krec` is zero-perturbation by construction.
    ///
    /// A kernel whose state has drifted outside the snapshot contract (a
    /// native-bodied thread was spawned after arming) skips the capture;
    /// pure-ISA workloads — the only ones worth recording — never hit this.
    pub(crate) fn krec_tick(&mut self, cur: crate::ids::ThreadId) {
        let Some(kr) = self.krec.as_ref() else { return };
        if !matches!(self.threads.get(cur.0).map(|t| &t.body), Some(Body::User)) {
            return;
        }
        let site = kr.sites_seen;
        let now = self.cpus.iter().map(|c| c.cpu.now).max().unwrap_or(0);
        let mut due = false;
        if let Some(n) = kr.cfg.every_sites {
            if site % n == 0 {
                due = true;
            }
        }
        if kr.cfg.at_site == Some(site) {
            due = true;
        }
        let cycle_mark = kr.cfg.every_cycles.zip(kr.next_cycle_due);
        let kr = self.krec.as_mut().expect("checked above");
        kr.sites_seen += 1;
        if let Some((n, mark)) = cycle_mark {
            if now >= mark {
                due = true;
                let mut next = mark;
                while next <= now {
                    next += n;
                }
                kr.next_cycle_due = Some(next);
            }
        }
        if !due {
            return;
        }
        let Ok(bytes) = self.snapshot_bytes() else {
            return;
        };
        let kr = self.krec.as_mut().expect("checked above");
        kr.push_snapshot(Snapshot {
            at_cycle: now,
            window_index: kr.windows.len(),
            site,
            mid_run: true,
            bytes,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, Preemption, MAX_CPUS};
    use crate::thread::RunState;

    /// Recompute a tampered image's digest trailer, so restore gets past
    /// the integrity check and has to judge the contents.
    fn restamp(bytes: &mut [u8]) {
        let n = bytes.len() - 8;
        let digest = fnv64(FNV_OFFSET, &bytes[..n]);
        bytes[n..].copy_from_slice(&digest.to_le_bytes());
    }

    fn encode_cfg(c: &Config) -> Vec<u8> {
        let mut w = SnapWriter::new();
        c.snap(&mut w);
        w.finish()
    }

    /// The image of `good` with its config bytes replaced by `bad`'s
    /// (same encoded length), re-stamped.
    fn with_config(good: &Config, bad: &Config) -> Vec<u8> {
        let (g, b) = (encode_cfg(good), encode_cfg(bad));
        assert_eq!(g.len(), b.len());
        let mut bytes = Kernel::new(good.clone()).snapshot_bytes().unwrap();
        let at = SNAP_MAGIC.len() + 4;
        assert_eq!(bytes[at..at + g.len() - 8], g[..g.len() - 8]);
        bytes[at..at + b.len() - 8].copy_from_slice(&b[..b.len() - 8]);
        restamp(&mut bytes);
        bytes
    }

    #[test]
    fn restore_rejects_interrupt_model_with_full_preemption() {
        let good = Config::interrupt_np();
        let mut bad = good.clone();
        bad.preempt = Preemption::Full;
        assert!(bad.validate().is_err());
        let bytes = with_config(&good, &bad);
        assert_eq!(
            Kernel::restore_from(&bytes).err(),
            Some(SnapError::Invalid("kernel configuration"))
        );
    }

    #[test]
    fn restore_rejects_more_cpus_than_the_masks_hold() {
        let good = Config::process_pp().with_cpus(2);
        let mut bad = good.clone();
        bad.num_cpus = MAX_CPUS + 1;
        let bytes = with_config(&good, &bad);
        assert_eq!(
            Kernel::restore_from(&bytes).err(),
            Some(SnapError::Invalid("kernel configuration"))
        );
    }

    #[test]
    fn restore_rejects_a_run_queue_naming_a_thread_that_is_not_ready() {
        let mut k = Kernel::new(Config::process_pp().with_cpus(2));
        let space = k.create_space();
        let mut a = fluke_arch::Assembler::new("halt");
        a.halt();
        let pid = k.register_program(a.finish());
        let t = k.spawn_thread(space, pid, fluke_arch::UserRegs::new(), 8);
        assert_eq!(k.run(None), super::super::RunExit::AllHalted);
        assert!(k.thread_halted(t));
        let clean = k.snapshot_bytes().unwrap();
        assert!(Kernel::restore_from(&clean).is_ok());
        k.runqs.push(1, t, 8);
        assert_eq!(
            Kernel::restore_from(&k.snapshot_bytes().unwrap()).err(),
            Some(SnapError::Invalid(
                "run queue names a thread that is not a live Ready thread"
            ))
        );
    }

    #[test]
    fn restore_rejects_a_current_slot_naming_a_thread_that_is_not_running() {
        let mut k = Kernel::new(Config::process_pp().with_cpus(2));
        let space = k.create_space();
        let mut a = fluke_arch::Assembler::new("sleep");
        a.movi(fluke_arch::Reg::Eax, fluke_api::Sys::ThreadSleep.num());
        a.syscall();
        a.halt();
        let sleep = k.register_program(a.finish());
        let mut a = fluke_arch::Assembler::new("halt");
        a.halt();
        let halt = k.register_program(a.finish());
        let sleeper = k.spawn_thread(space, sleep, fluke_arch::UserRegs::new(), 8);
        let halted = k.spawn_thread(space, halt, fluke_arch::UserRegs::new(), 8);
        assert_eq!(k.run(None), super::super::RunExit::Deadlock);
        assert_eq!(
            k.thread_run_state(sleeper),
            RunState::Blocked(crate::thread::WaitReason::Sleep)
        );
        assert!(k.thread_halted(halted));
        assert!(k.cpus.iter().all(|c| c.current.is_none()));
        let clean = k.snapshot_bytes().unwrap();
        assert!(Kernel::restore_from(&clean).is_ok());

        for t in [sleeper, halted] {
            k.cpus[1].current = Some(t);
            assert_eq!(
                Kernel::restore_from(&k.snapshot_bytes().unwrap()).err(),
                Some(SnapError::Invalid(
                    "a CPU's current slot names a thread not running on it"
                )),
                "{:?}",
                k.thread_run_state(t)
            );
        }
        // The converse: a thread marked running on CPU 1 that CPU 1 does
        // not name as current.
        k.cpus[1].current = None;
        k.threads.get_mut(sleeper.0).unwrap().state = RunState::Running(1);
        assert_eq!(
            Kernel::restore_from(&k.snapshot_bytes().unwrap()).err(),
            Some(SnapError::Invalid(
                "a running thread is not its CPU's current thread"
            ))
        );
        k.cpus[1].current = Some(sleeper);
        assert!(Kernel::restore_from(&k.snapshot_bytes().unwrap()).is_ok());
    }

    #[test]
    fn restore_rejects_a_blocked_thread_missing_from_its_wait_queue() {
        use crate::object::ObjData;
        use crate::thread::WaitReason;
        use fluke_api::abi::ARG_HANDLE;
        let mut k = Kernel::new(Config::process_np());
        let space = k.create_space();
        k.grant_pages(space, 0x1000, 0x1000, true);
        let m = k.loader_create(space, 0x1000, fluke_api::ObjType::Mutex);
        let mut a = fluke_arch::Assembler::new("lock twice");
        for _ in 0..2 {
            a.movi(ARG_HANDLE, 0x1000);
            a.movi(fluke_arch::Reg::Eax, fluke_api::Sys::MutexLock.num());
            a.syscall();
        }
        a.halt();
        let pid = k.register_program(a.finish());
        let t = k.spawn_thread(space, pid, fluke_arch::UserRegs::new(), 8);
        assert_eq!(k.run(None), super::super::RunExit::Deadlock);
        assert_eq!(
            k.thread_run_state(t),
            RunState::Blocked(WaitReason::Mutex(m))
        );
        assert!(Kernel::restore_from(&k.snapshot_bytes().unwrap()).is_ok());
        let Some(ObjData::Mutex { waiters, .. }) = k.objects.get_mut(m).map(|o| &mut o.data) else {
            panic!("mutex");
        };
        assert!(waiters.cancel(t, &mut k.stats.waitq));
        assert_eq!(
            Kernel::restore_from(&k.snapshot_bytes().unwrap()).err(),
            Some(SnapError::Invalid(
                "a blocked thread is not on the wait queue its reason names"
            ))
        );
    }

    /// Where `section`'s bytes (a [`SnapWriter`] stream, trailer dropped)
    /// start in `image`; they must occur exactly once.
    fn find_section(image: &[u8], section: impl FnOnce(&mut SnapWriter)) -> usize {
        let mut w = SnapWriter::new();
        section(&mut w);
        let bytes = w.finish();
        let bytes = &bytes[..bytes.len() - 8];
        let mut at = image.windows(bytes.len()).enumerate();
        let (i, _) = at.find(|(_, w)| *w == bytes).expect("section in image");
        assert!(at.all(|(_, w)| w != bytes), "section occurs twice");
        i
    }

    #[test]
    fn restore_rejects_a_span_past_the_thread_arena_and_a_foreign_path_code() {
        let mut k = Kernel::new(Config::process_np().with_kprof().with_kspan());
        let space = k.create_space();
        let mut a = fluke_arch::Assembler::new("sleep");
        a.movi(fluke_arch::Reg::Eax, fluke_api::Sys::ThreadSleep.num());
        a.syscall();
        a.halt();
        let pid = k.register_program(a.finish());
        let t = k.spawn_thread(space, pid, fluke_arch::UserRegs::new(), 8);
        assert_eq!(k.run(None), super::super::RunExit::Deadlock);
        assert_eq!(k.kspan.open_count(), 1, "the sleeping call's span is open");
        let clean = k.snapshot_bytes().unwrap();
        assert!(Kernel::restore_from(&clean).is_ok());

        // The first live span's thread follows kspan's enabled flag, its
        // two id counters and the span count.
        let at = find_section(&clean, |w| k.kspan.snap_image(w)) + 1 + 8 + 8 + 8;
        assert_eq!(clean[at..at + 4], t.0.to_le_bytes());
        for bad in [k.threads.slots() as u32, u32::MAX] {
            let mut bytes = clean.clone();
            bytes[at..at + 4].copy_from_slice(&bad.to_le_bytes());
            restamp(&mut bytes);
            assert_eq!(
                Kernel::restore_from(&bytes).err(),
                Some(SnapError::Invalid("kspan span past the thread arena")),
                "span on thread {bad}"
            );
        }

        // The first kernel path code follows kprof's two flags, the empty
        // phase stack, the user and idle totals and the path count.
        let at = find_section(&clean, |w| k.kprof.snap_image(w, true)) + 2 + 9 + 8 + 8 + 8;
        assert_ne!(clean[at - 8..at], [0; 8], "no kernel path attributed");
        let mut bytes = clean.clone();
        bytes[at..at + 4].copy_from_slice(&0xau32.to_le_bytes());
        restamp(&mut bytes);
        assert_eq!(
            Kernel::restore_from(&bytes).err(),
            Some(SnapError::Invalid("kprof path code"))
        );
    }

    /// A fresh `cfg` kernel's image with its (empty) lock table replaced
    /// by `entries`, re-stamped.
    fn with_locks(cfg: Config, entries: &[(LockKey, u64)]) -> Vec<u8> {
        let k = Kernel::new(cfg);
        let mut w = SnapWriter::new();
        k.cfg.snap(&mut w);
        k.cost.snap(&mut w);
        snap_cpus(&k.cpus, &k.cpu_index, &mut w);
        w.usize(k.active);
        let at = SNAP_MAGIC.len() + 4 + w.len();
        let mut bytes = k.snapshot_bytes().unwrap();
        assert_eq!(bytes[at..at + 8], [0; 8], "lock table not empty");
        let mut locks = SnapWriter::new();
        locks.usize(entries.len());
        for (key, stamp) in entries {
            key.snap(&mut locks);
            locks.u64(*stamp);
        }
        let locks = locks.finish();
        bytes.splice(at..at + 8, locks[..locks.len() - 8].iter().copied());
        restamp(&mut bytes);
        bytes
    }

    #[test]
    fn restore_rejects_lock_keys_outside_the_kernel() {
        let mp = Config::process_pp().with_cpus(4);
        // The splice itself is sound: in-range keys restore and re-encode.
        let ok = with_locks(
            mp.clone(),
            &[(LockKey::Sched, 7), (LockKey::RunQueue(3), 9)],
        );
        let k = Kernel::restore_from(&ok).unwrap();
        assert_eq!(k.snapshot_bytes().unwrap(), ok);
        let big = mp.clone().with_big_lock(true);
        assert!(Kernel::restore_from(&with_locks(big, &[(LockKey::Global, 1)])).is_ok());

        for (cfg, key, why) in [
            (
                &mp,
                LockKey::Conn(u32::MAX),
                "object lock key past its arena",
            ),
            (&mp, LockKey::Space(0), "object lock key past its arena"),
            (
                &mp,
                LockKey::Handles(1 << 20),
                "object lock key past its arena",
            ),
            (
                &mp,
                LockKey::RunQueue(4),
                "run-queue lock key past the run-queue count",
            ),
            (&mp, LockKey::Global, "global lock key without big_lock"),
        ] {
            let bytes = with_locks(cfg.clone(), &[(LockKey::Sched, 1), (key, 2)]);
            assert_eq!(
                Kernel::restore_from(&bytes).err(),
                Some(SnapError::Invalid(why)),
                "{key:?}"
            );
        }
    }
}
