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
    fnv64, Krec, Recording, Snap, SnapError, SnapReader, SnapWriter, Snapshot, FNV_OFFSET,
    SNAP_MAGIC, SNAP_VERSION,
};
use crate::thread::Body;

use super::{CpuSlot, Kernel, LockKey};

/// One contiguous resident-memory run: `(vaddr, bytes, writable)`
/// (debugger view, see [`Kernel::debug_space_map`]).
pub type MemRun = (u32, u32, bool);

impl Snap for LockKey {
    fn snap(&self, w: &mut SnapWriter) {
        match *self {
            LockKey::Sched => w.u8(0),
            LockKey::RunQueue(i) => {
                w.u8(1);
                w.usize(i);
            }
            LockKey::Handles(i) => {
                w.u8(2);
                w.u32(i);
            }
            LockKey::Space(i) => {
                w.u8(3);
                w.u32(i);
            }
            LockKey::Conn(i) => {
                w.u8(4);
                w.u32(i);
            }
            LockKey::Global => w.u8(5),
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => LockKey::Sched,
            1 => LockKey::RunQueue(r.usize()?),
            2 => LockKey::Handles(r.u32()?),
            3 => LockKey::Space(r.u32()?),
            4 => LockKey::Conn(r.u32()?),
            5 => LockKey::Global,
            t => {
                return Err(SnapError::BadTag {
                    what: "lockkey",
                    tag: t as u32,
                })
            }
        })
    }
}

impl Snap for CpuSlot {
    fn snap(&self, w: &mut SnapWriter) {
        self.cpu.snap(w);
        self.current.snap(w);
        w.bool(self.resched);
        w.u64(self.slice_end);
        self.last_space.snap(w);
        w.bool(self.parked);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(CpuSlot {
            cpu: Snap::restore(r)?,
            current: Snap::restore(r)?,
            resched: r.bool()?,
            slice_end: r.u64()?,
            last_space: Snap::restore(r)?,
            parked: r.bool()?,
        })
    }
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
        self.cpus.snap(w);
        w.usize(self.active);
        self.locks.snap(w);
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
        self.kprof.snap(w);
        self.kspan.snap(w);
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
    /// digest trailer, decode every field, rebuild derived indices, and
    /// re-resolve each thread's program text from its [`ProgramId`].
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
        let cfg = Snap::restore(&mut r)?;
        let cost = Snap::restore(&mut r)?;
        let cpus = Snap::restore(&mut r)?;
        let active = r.usize()?;
        let locks = Snap::restore(&mut r)?;
        let threads = Snap::restore(&mut r)?;
        let spaces = Snap::restore(&mut r)?;
        let objects = Snap::restore(&mut r)?;
        let conns = Snap::restore(&mut r)?;
        let programs = {
            let n = r.usize()?;
            let mut v = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                v.push(Arc::new(Program::restore(&mut r)?));
            }
            v
        };
        let phys = Snap::restore(&mut r)?;
        let runqs = Snap::restore(&mut r)?;
        let events = Snap::restore(&mut r)?;
        let stats = Snap::restore(&mut r)?;
        let trace = Snap::restore(&mut r)?;
        let kprof = Snap::restore(&mut r)?;
        let kspan = Snap::restore(&mut r)?;
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
            locks,
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
        if k.active >= k.cpus.len() || k.cpus.len() != k.cfg.num_cpus {
            return Err(SnapError::Invalid("cpu slot count"));
        }
        let runqs = if k.cfg.big_lock { 1 } else { k.cfg.num_cpus };
        if k.runqs.cpus() != runqs {
            return Err(SnapError::Invalid("run-queue count"));
        }
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
