//! The `kfault` sweep driver: enumerate every injection site of a
//! workload, perturb each one in turn, and prove the user-visible outcome
//! never changes.
//!
//! For a given workload, configuration, and injection kind the driver
//! first runs the workload with the engine armed in count-only mode —
//! which must be outcome-identical to a disarmed run — to obtain the
//! **golden outcome** and the size of the site space. It then re-runs the
//! workload once per site (all of them, or an evenly strided sample under
//! a site budget, which the unit tests use), injecting exactly one
//! perturbation, and compares the
//! user-visible [`Outcome`] — projection, each main thread's final
//! registers, and an FNV-64 memory digest — against the golden run. The
//! *raw* trace tail after an injection legitimately differs — injections
//! change kernel timing (extra faults, restarts, context switches); the
//! paper's claim is that none of it is visible to user programs.
//!
//! Any divergence is already minimal: a single (workload, config, kind,
//! site) tuple reproduces it deterministically.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fluke_api::abi::{ARG_COUNT, ARG_HANDLE, ARG_RBUF, ARG_SBUF, ARG_VAL};
use fluke_api::{ErrorCode, ObjType, Sys};
use fluke_arch::{Assembler, Reg, UserRegs};
use fluke_core::{
    Config, Kernel, KfaultConfig, KfaultKind, Outcome, RunExit, RunState, SpaceId, ThreadId,
    WaitReason,
};
use fluke_user::checkpoint::{checkpoint_space, identity_window, restore_space, SyscallAgent};
use fluke_user::proc::{run_to_halt, ChildProc};
use fluke_user::FlukeAsm;

/// Project a finished sweep workload: the user-visible trace, each main
/// thread's final `eax`/`edi`, and a digest over `regions` then `extra`.
pub(crate) fn outcome(
    k: &mut Kernel,
    mains: &[ThreadId],
    regions: &[(SpaceId, u32, u32)],
    extra: &[u8],
) -> Result<Outcome, String> {
    Outcome::capture(k, mains, &[Reg::Eax, Reg::Edi], regions, extra).map_err(|e| e.to_string())
}

/// Read the armed engine's counters after a run.
fn kfault_counters(k: &Kernel) -> (u64, bool) {
    k.kfault()
        .map_or((0, false), |f| (f.sites_seen(), f.fired()))
}

/// Run `k` in short slices until `pred` holds or `budget` cycles elapse.
/// Predicate-driven (never time-driven) so perturbed runs reach the same
/// logical point as the golden run regardless of timing.
fn run_until(
    k: &mut Kernel,
    budget: u64,
    mut pred: impl FnMut(&mut Kernel) -> bool,
) -> Result<(), String> {
    let deadline = k.now() + budget;
    loop {
        if pred(k) {
            return Ok(());
        }
        let exit = k.run(Some((k.now() + 10_000).min(deadline)));
        if pred(k) {
            return Ok(());
        }
        match exit {
            RunExit::TimeLimit if k.now() >= deadline => {
                return Err("predicate not reached within budget".to_string());
            }
            RunExit::TimeLimit => {}
            RunExit::AllHalted | RunExit::Deadlock => {
                return Err(format!("system quiesced ({exit:?}) before predicate"));
            }
        }
    }
}

/// The workloads the sweep attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepWorkload {
    /// Client/server request-reply echo over one IPC connection — the
    /// paper's core communication primitive, multi-stage and restartable.
    IpcEcho,
    /// The §4.1 flagship: drive a child to a deterministic blocked state,
    /// checkpoint it through the API, destroy the original thread,
    /// restore into a fresh space, and run the clone to completion.
    Checkpoint,
}

impl SweepWorkload {
    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SweepWorkload::IpcEcho => "ipc-echo",
            SweepWorkload::Checkpoint => "checkpoint",
        }
    }

    /// Run the workload to completion under `cfg` (plus optional kfault
    /// arming) and project its outcome. Also returns the engine's
    /// (sites_seen, fired) counters.
    pub fn run(
        self,
        cfg: &Config,
        kf: Option<KfaultConfig>,
    ) -> Result<(Outcome, u64, bool), String> {
        self.run_kernel(cfg, kf).map(|(o, s, f, _)| (o, s, f))
    }

    /// Like [`SweepWorkload::run`], but also hands back the finished
    /// kernel so callers can inspect instrumentation state (`kspan`,
    /// `kprof`, `kstat`) accumulated over the run.
    pub fn run_kernel(
        self,
        cfg: &Config,
        kf: Option<KfaultConfig>,
    ) -> Result<(Outcome, u64, bool, Kernel), String> {
        match self {
            SweepWorkload::IpcEcho => run_echo(cfg, kf),
            SweepWorkload::Checkpoint => run_checkpoint(cfg, kf),
        }
    }
}

fn armed(cfg: &Config, kf: Option<KfaultConfig>) -> Config {
    let c = cfg.clone().with_tracing(1 << 16);
    match kf {
        Some(kf) => c.with_kfault(kf),
        None => c,
    }
}

/// Fixed-shape IPC echo: two request/reply exchanges over one connection,
/// then the client checksums the final echo. Small by design — the sweep
/// runs the whole workload once per site.
fn run_echo(
    cfg: &Config,
    kf: Option<KfaultConfig>,
) -> Result<(Outcome, u64, bool, Kernel), String> {
    const LEN: u32 = 64;
    const EXCHANGES: u32 = 2;
    let mut k = Kernel::new(armed(cfg, kf));
    let mut server = ChildProc::with_mem(&mut k, 0x0010_0000, 0x4000);
    let mut client = ChildProc::with_mem(&mut k, 0x0020_0000, 0x4000);
    let h_port = server.alloc_obj();
    let h_ref = client.alloc_obj();
    let port = k.loader_create(server.space, h_port, ObjType::Port);
    k.loader_ref(client.space, h_ref, port);
    let sbuf = server.mem_base + 0x1000;
    let cbuf = client.mem_base + 0x1000;
    let crbuf = client.mem_base + 0x2000;

    let mut a = Assembler::new("kfault-echo-server");
    a.server_wait_receive(h_port, sbuf, LEN);
    for _ in 1..EXCHANGES {
        a.movi(ARG_SBUF, sbuf);
        a.movi(ARG_COUNT, LEN);
        a.movi(ARG_RBUF, sbuf);
        a.movi(ARG_VAL, LEN);
        a.sys(Sys::IpcServerSendWaitReceive);
    }
    a.server_ack_send(sbuf, LEN);
    a.halt();
    let st = server.start(&mut k, a.finish(), 8);

    let mut a = Assembler::new("kfault-echo-client");
    a.xor(Reg::Edi, Reg::Edi);
    a.client_rpc(h_ref, cbuf, LEN, crbuf, LEN);
    for _ in 1..EXCHANGES {
        a.movi(ARG_SBUF, cbuf);
        a.movi(ARG_COUNT, LEN);
        a.movi(ARG_RBUF, crbuf);
        a.movi(ARG_VAL, LEN);
        a.sys(Sys::IpcClientSendOverReceive);
    }
    a.checksum(crbuf, LEN / 4, "ck-echo");
    a.mov(ARG_VAL, Reg::Edi);
    a.sys(Sys::SysTrace);
    a.halt();
    let ct = client.start(&mut k, a.finish(), 8);

    let payload: Vec<u8> = (0..LEN).map(|i| (i.wrapping_mul(7) ^ 0x5a) as u8).collect();
    k.try_write_mem(client.space, cbuf, &payload)
        .map_err(|e| e.to_string())?;
    if !run_to_halt(&mut k, &[st, ct], 5_000_000_000) {
        return Err(format!("echo hung under {}", cfg.label));
    }
    let regions = [(server.space, sbuf, LEN), (client.space, crbuf, LEN)];
    let out = outcome(&mut k, &[st, ct], &regions, &[])?;
    let (sites, fired) = kfault_counters(&k);
    Ok((out, sites, fired, k))
}

/// Layout of the checkpoint workload's child window (mirrors the
/// checkpoint/migrate integration tests).
const CHILD_BASE: u32 = 0x0040_0000;
const CHILD_LEN: u32 = 0x4000;
const MGR_MEM: u32 = 0x0010_0000;
const H_MUTEX: u32 = CHILD_BASE;
const H_BLOCKER: u32 = CHILD_BASE + 64;
const DONE_FLAG: u32 = CHILD_BASE + 0x1004;

/// Checkpoint/restore under fire. A holder thread leaves a mutex locked;
/// a blocker thread blocks on it — a *logical* quiescent point every
/// perturbed run reaches identically (all driving is predicate-based).
/// The manager then checkpoints the child through the API, destroys the
/// blocked thread, restores the image into a fresh space, unlocks the
/// restored mutex, and the clone finishes the work. Injections land on
/// the workload threads *and* the manager's agent threads alike.
fn run_checkpoint(
    cfg: &Config,
    kf: Option<KfaultConfig>,
) -> Result<(Outcome, u64, bool, Kernel), String> {
    let mut k = Kernel::new(armed(cfg, kf));
    let manager = k.create_space();
    k.grant_pages(manager, MGR_MEM, 0x2000, true);
    let child = k.create_space();
    k.grant_pages(child, CHILD_BASE, CHILD_LEN, true);
    identity_window(
        &mut k,
        manager,
        MGR_MEM + 0x1000,
        child,
        CHILD_BASE,
        CHILD_LEN,
    );
    let space_handle = MGR_MEM + 0x1800;
    k.loader_space_object(manager, space_handle, child);
    let agent = SyscallAgent::new(&mut k, manager, 20);

    // Holder: create the mutex, lock it, halt (leaving it locked).
    let mut a = Assembler::new("kfault-holder");
    a.sys_h(Sys::MutexCreate, H_MUTEX);
    a.mutex_lock(H_MUTEX);
    a.halt();
    let pid = k.register_program(a.finish());
    let holder = k.spawn_thread(child, pid, UserRegs::new(), 8);
    run_until(&mut k, 1_000_000_000, |k| k.thread_halted(holder))?;

    // Blocker: block on the mutex, then finish the work once woken.
    let mut a = Assembler::new("kfault-blocker");
    a.mutex_lock(H_MUTEX);
    a.store_const(DONE_FLAG, 0xB10C);
    a.halt();
    let pid = k.register_program(a.finish());
    let blocker = k.spawn_thread(child, pid, UserRegs::new(), 8);
    k.loader_thread_object(child, H_BLOCKER, blocker);
    run_until(&mut k, 1_000_000_000, |k| {
        matches!(
            k.thread_run_state(blocker),
            RunState::Blocked(WaitReason::Mutex(_))
        )
    })?;

    // Checkpoint the quiescent child, then destroy the blocked original.
    let image = checkpoint_space(&mut k, &agent, space_handle, CHILD_BASE, CHILD_LEN, MGR_MEM)
        .map_err(|e| e.to_string())?;
    let mut regs = UserRegs::new();
    regs.set(ARG_HANDLE, H_BLOCKER);
    let (code, _) = agent.call_checked(&mut k, Sys::ThreadDestroy, regs);
    if code != ErrorCode::Success {
        return Err(format!("thread_destroy failed: {code:?}"));
    }

    // Restore into a fresh space via a second manager window.
    let child2 = k.create_space();
    k.grant_pages(child2, CHILD_BASE, CHILD_LEN, true);
    let mgr2_mem = 0x0060_0000;
    let manager2 = k.create_space();
    k.grant_pages(manager2, mgr2_mem, 0x2000, true);
    identity_window(
        &mut k,
        manager2,
        mgr2_mem + 0x1000,
        child2,
        CHILD_BASE,
        CHILD_LEN,
    );
    let space2_handle = mgr2_mem + 0x1800;
    k.loader_space_object(manager2, space2_handle, child2);
    let agent2 = SyscallAgent::new(&mut k, manager2, 20);
    restore_space(&mut k, &agent2, &image, space2_handle, mgr2_mem).map_err(|e| e.to_string())?;

    // Unlock the restored mutex; the restored clone re-acquires it and
    // completes the interrupted work.
    let mut regs = UserRegs::new();
    regs.set(ARG_HANDLE, H_MUTEX);
    let (code, _) = agent2.call_checked(&mut k, Sys::MutexUnlock, regs);
    if code != ErrorCode::Success {
        return Err(format!("mutex_unlock failed: {code:?}"));
    }
    run_until(&mut k, 1_000_000_000, |k| {
        k.read_mem_u32(child2, DONE_FLAG) == 0xB10C
    })?;

    let regions = [
        (child, CHILD_BASE + 0x1000, 0x100),
        (child2, CHILD_BASE + 0x1000, 0x100),
    ];
    let out = outcome(
        &mut k,
        &[holder, blocker],
        &regions,
        image.to_json_string().as_bytes(),
    )?;
    let (sites, fired) = kfault_counters(&k);
    Ok((out, sites, fired, k))
}

/// One divergence found by a sweep: the minimal reproducer is the
/// enclosing report's (workload, config, kind) plus this site index.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The injection-site index that produced the divergence.
    pub site: u64,
    /// What differed (first differing outcome component, or the error).
    pub detail: String,
}

/// The result of sweeping one (workload, config, kind) combination.
#[derive(Debug)]
pub struct SweepReport {
    /// Workload label.
    pub workload: &'static str,
    /// Configuration label.
    pub config: &'static str,
    /// Injection kind swept.
    pub kind: KfaultKind,
    /// Size of the site space (count-only enumeration).
    pub sites_total: u64,
    /// Sites actually perturbed (all of them, or a strided sample under a
    /// budget).
    pub sites_run: u64,
    /// Perturbed runs in which the injection actually fired.
    pub injections_fired: u64,
    /// Divergences found (empty = the atomicity claim held everywhere).
    pub divergences: Vec<Divergence>,
}

impl SweepReport {
    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "{:<11} {:<13} {:<16} sites={:<6} run={:<6} fired={:<6} divergences={}",
            self.workload,
            self.config,
            self.kind.name(),
            self.sites_total,
            self.sites_run,
            self.injections_fired,
            self.divergences.len()
        )
    }

    /// Deterministic reproducer lines for every divergence.
    pub fn reproducers(&self) -> Vec<String> {
        self.divergences
            .iter()
            .map(|d| {
                format!(
                    "kfault repro: workload={} config=\"{}\" kind={} site={} — {}",
                    self.workload,
                    self.config,
                    self.kind.name(),
                    d.site,
                    d.detail
                )
            })
            .collect()
    }
}

/// Sweep one (workload, config, kind): enumerate the site space, perturb
/// each chosen site, and compare every outcome to the golden run.
/// `budget` bounds the number of perturbed runs; the chosen sites are
/// strided evenly across the whole space so a bounded sweep still covers
/// early, middle, and late execution.
pub fn sweep(
    w: SweepWorkload,
    cfg: &Config,
    kind: KfaultKind,
    budget: Option<u64>,
) -> Result<SweepReport, String> {
    // Golden run with the engine armed in count-only mode: must be
    // outcome-identical to a disarmed run (the hooks themselves are
    // zero-perturbation), and tells us how many sites exist.
    let (golden, total, fired) = w.run(cfg, Some(KfaultConfig::count_sites(kind)))?;
    if fired {
        return Err("count-only engine fired an injection".to_string());
    }
    let (bare, zero, _) = w.run(cfg, None)?;
    if zero != 0 {
        return Err("disarmed engine counted sites".to_string());
    }
    if let Some(d) = bare.first_difference(&golden) {
        return Err(format!("count-only arming perturbed the outcome: {d}"));
    }
    let sites_run = budget.map_or(total, |b| total.min(b));
    let mut divergences = Vec::new();
    let mut injections_fired = 0;
    for i in 0..sites_run {
        let site = i * total / sites_run.max(1);
        let kfc = KfaultConfig::at(kind, site);
        match catch_unwind(AssertUnwindSafe(|| w.run(cfg, Some(kfc)))) {
            Ok(Ok((got, _, f))) => {
                if f {
                    injections_fired += 1;
                }
                if let Some(detail) = golden.first_difference(&got) {
                    divergences.push(Divergence { site, detail });
                }
            }
            Ok(Err(e)) => divergences.push(Divergence { site, detail: e }),
            Err(_) => divergences.push(Divergence {
                site,
                detail: "workload panicked under injection".to_string(),
            }),
        }
    }
    Ok(SweepReport {
        workload: w.label(),
        config: cfg.label,
        kind,
        sites_total: total,
        sites_run,
        injections_fired,
        divergences,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bounded echo sweep: every kind, all four configurations, a handful
    /// of strided sites each. The full-site sweep runs in the dedicated
    /// bin (and CI's kfault-smoke step).
    #[test]
    fn echo_sweep_bounded_all_kinds_and_configs() {
        for cfg in Config::comparable() {
            for kind in KfaultKind::ALL {
                let r = sweep(SweepWorkload::IpcEcho, &cfg, kind, Some(6))
                    .unwrap_or_else(|e| panic!("{} {}: {e}", cfg.label, kind.name()));
                assert!(r.sites_total > 0, "{} {}: no sites", cfg.label, kind.name());
                assert!(
                    r.divergences.is_empty(),
                    "{} {}: {:?}",
                    cfg.label,
                    kind.name(),
                    r.reproducers()
                );
                assert_eq!(r.injections_fired, r.sites_run);
            }
        }
    }

    /// Bounded checkpoint sweep: the extract/restore kind (the paper's §2
    /// correctness test) against the checkpoint/restore workload itself.
    #[test]
    fn checkpoint_sweep_bounded_extract_restore() {
        for cfg in [Config::process_np(), Config::interrupt_pp()] {
            let r = sweep(
                SweepWorkload::Checkpoint,
                &cfg,
                KfaultKind::ExtractRestore,
                Some(3),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", cfg.label));
            assert!(
                r.divergences.is_empty(),
                "{}: {:?}",
                cfg.label,
                r.reproducers()
            );
            assert_eq!(r.injections_fired, r.sites_run);
        }
    }

    /// The sweep oracle itself is deterministic: two runs of the same
    /// perturbed site agree bit-for-bit.
    #[test]
    fn perturbed_runs_are_reproducible() {
        let cfg = Config::process_pp();
        let kf = Some(KfaultConfig::at(KfaultKind::ExtractRestore, 5));
        let a = SweepWorkload::IpcEcho.run(&cfg, kf).unwrap();
        let b = SweepWorkload::IpcEcho.run(&cfg, kf).unwrap();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }
}
