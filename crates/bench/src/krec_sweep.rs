//! The `krec` sweep driver: record a workload with the snapshot engine
//! armed, then prove two things everywhere.
//!
//! **Zero perturbation.** Arming the recorder must not change the run:
//! the armed kernel's user-visible outcome *and* its whole-state FNV-64
//! digest must equal a bare run's. (The recorder reads simulated state at
//! dispatch boundaries but never writes it; the digest check turns that
//! design intent into an enforced invariant.)
//!
//! **Faithful replay.** Every snapshot in the recording — taken at every
//! Nth dispatch-boundary site, the same site space `kfault` enumerates —
//! is restored and re-executed through the recorded run windows. The
//! replayer asserts each window's end digest, end cycle, and exit reason;
//! when a snapshot's epoch reaches the end of the recording, the sweep
//! additionally checks the replayed ktrace suffix digest (every trace
//! record at or after the snapshot cycle) and the user-visible end state
//! against the original. Any divergence is already minimal: a (workload,
//! config, snapshot-site) tuple reproduces it deterministically.
//!
//! Workloads cover the three shapes the kernel's state space bends under:
//! the kfault IPC echo (mid-IPC transfer states), the §4.1 checkpoint
//! flow (tombstones, blocked threads, multi-epoch host driving), and a
//! batched-submission ring exchange (submit rings in flight).

use std::time::Instant;

use fluke_api::abi::PORT_BUF_MSGS;
use fluke_api::ObjType;
use fluke_core::{trace_suffix_digest, Config, Kernel, KrecConfig, Outcome, Replayer};
use fluke_json::Json;
use fluke_user::proc::{run_to_halt, ChildProc};

use crate::kfault_sweep::{outcome, SweepWorkload};
use crate::server_consolidation::{ring_images, submit_loop};

/// The workloads the snapshot sweep records and replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KrecWorkload {
    /// The kfault echo: request/reply IPC, mid-transfer snapshot states.
    IpcEcho,
    /// The kfault checkpoint flow: checkpoint, destroy, restore —
    /// tombstones and blocked threads, driven by the host across many
    /// `run` calls (a multi-epoch recording).
    Checkpoint,
    /// Batched submission rings in flight: a producer and a consumer
    /// exchange messages through pre-written 16-descriptor `ipc_submit`
    /// rings over one port.
    Server,
}

/// All sweep workloads, in report order.
pub const ALL_WORKLOADS: [KrecWorkload; 3] = [
    KrecWorkload::IpcEcho,
    KrecWorkload::Checkpoint,
    KrecWorkload::Server,
];

impl KrecWorkload {
    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            KrecWorkload::IpcEcho => "ipc-echo",
            KrecWorkload::Checkpoint => "checkpoint",
            KrecWorkload::Server => "submit-ring",
        }
    }

    /// Run the workload to completion under `cfg` (with or without
    /// `cfg.krec` armed — the workloads pass the config through) and hand
    /// back the outcome plus the finished kernel.
    pub fn run(self, cfg: &Config) -> Result<(Outcome, Kernel), String> {
        match self {
            KrecWorkload::IpcEcho => SweepWorkload::IpcEcho
                .run_kernel(cfg, None)
                .map(|(o, _, _, k)| (o, k)),
            KrecWorkload::Checkpoint => SweepWorkload::Checkpoint
                .run_kernel(cfg, None)
                .map(|(o, _, _, k)| (o, k)),
            KrecWorkload::Server => run_submit_ring(cfg),
        }
    }
}

/// Batched-submission echo: both sides drive pre-written `ipc_submit`
/// rings (the scalable-IPC fast path), so snapshots land while rings are
/// mid-flight — partially consumed descriptors, buffered port slots.
fn run_submit_ring(cfg: &Config) -> Result<(Outcome, Kernel), String> {
    const LEN: u32 = 64;
    const BATCHES: u32 = 3;
    let n = PORT_BUF_MSGS as u32;
    let mut k = Kernel::new(cfg.clone().with_tracing(1 << 16));
    let mut p = ChildProc::with_mem(&mut k, 0x0050_0000, 0x0001_0000);
    let h_port = p.alloc_obj();
    k.loader_create(p.space, h_port, ObjType::Port);
    let sring = p.mem_base + 0x1000;
    let rring = p.mem_base + 0x1800;
    let sbufs = p.mem_base + 0x2000;
    let rbufs = p.mem_base + 0x4000;
    for i in 0..n {
        let pat: Vec<u8> = (0..LEN)
            .map(|j| (j.wrapping_mul(13) ^ i ^ 0xa5) as u8)
            .collect();
        k.try_write_mem(p.space, sbufs + i * LEN, &pat)
            .map_err(|e| e.to_string())?;
    }
    let (simg, rimg) = ring_images(h_port, sbufs, rbufs, LEN);
    k.try_write_mem(p.space, sring, &simg)
        .map_err(|e| e.to_string())?;
    k.try_write_mem(p.space, rring, &rimg)
        .map_err(|e| e.to_string())?;

    let pt = p.start(
        &mut k,
        submit_loop("krec-producer", sring, BATCHES).finish(),
        8,
    );
    let ct = p.start(
        &mut k,
        submit_loop("krec-consumer", rring, BATCHES).finish(),
        8,
    );
    if !run_to_halt(&mut k, &[pt, ct], 5_000_000_000) {
        return Err(format!("submit-ring workload hung under {}", cfg.label));
    }
    let regions = [(p.space, rbufs, n * LEN)];
    let out = outcome(&mut k, &[pt, ct], &regions, &[])?;
    Ok((out, k))
}

/// One replay divergence: the reproducer is the enclosing report's
/// (workload, config) plus this snapshot's site index.
#[derive(Debug, Clone)]
pub struct KrecDivergence {
    /// Index of the snapshot in the recording.
    pub snapshot: usize,
    /// Dispatch-boundary site the snapshot was taken at.
    pub site: u64,
    /// Simulated cycle of the snapshot.
    pub at_cycle: u64,
    /// What diverged.
    pub detail: String,
}

/// The result of sweeping one (workload, config) combination.
#[derive(Debug)]
pub struct KrecReport {
    /// Workload label.
    pub workload: &'static str,
    /// Configuration label.
    pub config: &'static str,
    /// Snapshot stride (every Nth dispatch-boundary site).
    pub stride: u64,
    /// Size of the site space in the recorded run.
    pub sites_total: u64,
    /// Snapshots captured (and replayed).
    pub snapshots: u64,
    /// Byte size of the largest snapshot image.
    pub snapshot_bytes: u64,
    /// Run windows in the recording.
    pub windows: u64,
    /// Windows digest-verified across all replays.
    pub windows_verified: u64,
    /// Replays whose epoch reached the end of the recording (and so also
    /// passed the trace-suffix and end-state checks).
    pub full_epoch_replays: u64,
    /// Divergences found (empty = recording is faithful everywhere).
    pub divergences: Vec<KrecDivergence>,
    /// Mean host cost of one snapshot encode, in microseconds.
    pub snapshot_host_us: f64,
    /// Mean host cost of one restore (decode + index rebuild), in
    /// microseconds.
    pub restore_host_us: f64,
    /// Simulated cycles re-executed across all replays.
    pub replay_sim_cycles: u64,
    /// Replay speed: simulated cycles per host microsecond.
    pub replay_cycles_per_us: f64,
}

impl KrecReport {
    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "{:<12} {:<13} stride={:<3} sites={:<5} snaps={:<4} bytes={:<7} \
             windows={:<5} verified={:<6} full={:<4} divergences={}",
            self.workload,
            self.config,
            self.stride,
            self.sites_total,
            self.snapshots,
            self.snapshot_bytes,
            self.windows,
            self.windows_verified,
            self.full_epoch_replays,
            self.divergences.len()
        )
    }

    /// Deterministic reproducer lines for every divergence.
    pub fn reproducers(&self) -> Vec<String> {
        self.divergences
            .iter()
            .map(|d| {
                format!(
                    "krec repro: workload={} config=\"{}\" stride={} snapshot={} \
                     site={} cycle={} — {}",
                    self.workload,
                    self.config,
                    self.stride,
                    d.snapshot,
                    d.site,
                    d.at_cycle,
                    d.detail
                )
            })
            .collect()
    }
}

/// Sweep one (workload, config): record with a snapshot every `stride`
/// sites, check zero perturbation against a bare run, then restore and
/// re-execute every snapshot, diverge-checking against the recording.
pub fn sweep(w: KrecWorkload, cfg: &Config, stride: u64) -> Result<KrecReport, String> {
    // Bare run: the golden outcome and end-state digest.
    let (bare_out, bare_k) = w.run(cfg)?;
    let bare_digest = bare_k.state_digest().map_err(|e| e.to_string())?;

    // Armed run: same workload, recorder on.
    let armed_cfg = cfg
        .clone()
        .with_krec(KrecConfig::every_sites(stride).with_ring(4096));
    let (armed_out, mut k) = w.run(&armed_cfg)?;
    if let Some(d) = bare_out.first_difference(&armed_out) {
        return Err(format!("arming krec perturbed the outcome: {d}"));
    }
    let armed_digest = k.state_digest().map_err(|e| e.to_string())?;
    if armed_digest != bare_digest {
        return Err(format!(
            "arming krec perturbed the end state: digest {armed_digest:#018x} != bare {bare_digest:#018x}"
        ));
    }

    // Host-side costs, measured on the finished kernel (its state is the
    // largest of the run). Not part of the correctness oracle.
    let reps = 8;
    let t0 = Instant::now();
    let mut image = Vec::new();
    for _ in 0..reps {
        image = k.snapshot_bytes().map_err(|e| e.to_string())?;
    }
    let snapshot_host_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;
    let t0 = Instant::now();
    for _ in 0..reps {
        Kernel::restore_from(&image).map_err(|e| e.to_string())?;
    }
    let restore_host_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;

    let kr = k.krec().expect("recorder armed");
    let sites_total = kr.sites_seen();
    let rec = k.take_recording().expect("recorder armed");
    let snapshot_bytes = rec
        .snapshots
        .iter()
        .map(|s| s.bytes.len() as u64)
        .max()
        .unwrap_or(0);

    // The original's ktrace suffix digests and user-visible end state,
    // for full-epoch replays to match.
    let mut divergences = Vec::new();
    let mut windows_verified = 0u64;
    let mut full_epoch_replays = 0u64;
    let mut replay_sim_cycles = 0u64;
    let t0 = Instant::now();
    for (i, s) in rec.snapshots.iter().enumerate() {
        let diverge = |detail: String| KrecDivergence {
            snapshot: i,
            site: s.site,
            at_cycle: s.at_cycle,
            detail,
        };
        let mut rp = match Replayer::start(&rec, i) {
            Ok(rp) => rp,
            Err(e) => {
                divergences.push(diverge(format!("restore failed: {e}")));
                continue;
            }
        };
        if let Err(e) = rp.run_to_epoch_end() {
            divergences.push(diverge(format!("{e}")));
            continue;
        }
        windows_verified += rp.windows_verified() as u64;
        if let Some(last) = rec.windows.get(rp.epoch_end().wrapping_sub(1)) {
            replay_sim_cycles += last.end_cycle.saturating_sub(s.at_cycle);
        }
        if rp.epoch_end() == rec.windows.len() {
            // The epoch reaches the recording's end: the replayed kernel
            // must match the original bit-for-bit — trace suffix, state
            // digest, and user-visible projection.
            full_epoch_replays += 1;
            let want = trace_suffix_digest(&k, s.at_cycle);
            let got = trace_suffix_digest(&rp.kernel, s.at_cycle);
            if got != want {
                divergences.push(diverge(format!(
                    "ktrace suffix digest {got:#018x} != recorded {want:#018x}"
                )));
            }
            match rp.kernel.state_digest() {
                Ok(d) if d != armed_digest => divergences.push(diverge(format!(
                    "end state digest {d:#018x} != recorded {armed_digest:#018x}"
                ))),
                Err(e) => divergences.push(diverge(format!("end digest failed: {e}"))),
                Ok(_) => {}
            }
            let uv = rp.kernel.trace.user_visible();
            if uv != armed_out.uv {
                divergences.push(diverge("user-visible end state diverged".to_string()));
            }
        }
    }
    let replay_host_us = t0.elapsed().as_secs_f64() * 1e6;
    Ok(KrecReport {
        workload: w.label(),
        config: cfg.label,
        stride,
        sites_total,
        snapshots: rec.snapshots.len() as u64,
        snapshot_bytes,
        windows: rec.windows.len() as u64,
        windows_verified,
        full_epoch_replays,
        divergences,
        snapshot_host_us,
        restore_host_us,
        replay_sim_cycles,
        replay_cycles_per_us: if replay_host_us > 0.0 {
            replay_sim_cycles as f64 / replay_host_us
        } else {
            0.0
        },
    })
}

/// The committed sweep's snapshot stride: every 5th dispatch-boundary
/// site.
pub const STRIDE: u64 = 5;

/// Sweep every workload × all four comparable configurations at
/// [`STRIDE`].
pub fn sweep_all() -> Result<Vec<KrecReport>, String> {
    let mut out = Vec::new();
    for w in ALL_WORKLOADS {
        for cfg in Config::comparable() {
            out.push(sweep(w, &cfg, STRIDE)?);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// BENCH_snapshot.json: serialization and the kmon-style regression gate.
// ---------------------------------------------------------------------------

/// Serialize reports into the committed-benchmark JSON shape. Correctness
/// fields (snapshots, windows verified, divergences) and the snapshot
/// byte size are deterministic; host costs and replay speed are
/// environment-dependent and reported for trend-watching only.
pub fn to_json(reports: &[KrecReport]) -> Json {
    let mut root = Json::obj();
    root.set("bench", Json::Str("krec_sweep".to_string()));
    let mut arr = Vec::new();
    for r in reports {
        let mut o = Json::obj();
        o.set("workload", Json::Str(r.workload.to_string()));
        o.set("config", Json::Str(r.config.to_string()));
        o.set("stride", Json::from_u64(r.stride));
        o.set("sites", Json::from_u64(r.sites_total));
        o.set("snapshots", Json::from_u64(r.snapshots));
        o.set("snapshot_bytes", Json::from_u64(r.snapshot_bytes));
        o.set("windows", Json::from_u64(r.windows));
        o.set("windows_verified", Json::from_u64(r.windows_verified));
        o.set("full_epoch_replays", Json::from_u64(r.full_epoch_replays));
        o.set("divergences", Json::from_u64(r.divergences.len() as u64));
        o.set("snapshot_host_us", Json::Num(r.snapshot_host_us));
        o.set("restore_host_us", Json::Num(r.restore_host_us));
        o.set("replay_sim_cycles", Json::from_u64(r.replay_sim_cycles));
        o.set("replay_cycles_per_us", Json::Num(r.replay_cycles_per_us));
        arr.push(o);
    }
    root.set("sweeps", Json::Arr(arr));
    root
}

/// Regression-gate fresh reports against a committed `BENCH_snapshot.json`.
/// Hard failures: any divergence, a sweep present before but missing now,
/// no snapshots where there were some, or a snapshot image growing past
/// 1.25× its committed size (state-layout growth is expected PR to PR;
/// blowups are not). Host-cost fields are never gated.
pub fn check(committed: &Json, reports: &[KrecReport]) -> Vec<String> {
    let mut errs = Vec::new();
    for r in reports {
        if !r.divergences.is_empty() {
            errs.push(format!(
                "{} {}: {} replay divergence(s)",
                r.workload,
                r.config,
                r.divergences.len()
            ));
        }
        if r.snapshots == 0 {
            errs.push(format!(
                "{} {}: no snapshots captured",
                r.workload, r.config
            ));
        }
    }
    let Some(sweeps) = committed.get("sweeps").and_then(|s| s.items()) else {
        errs.push("committed baseline has no \"sweeps\" array".to_string());
        return errs;
    };
    for c in sweeps {
        let (Some(w), Some(cfg)) = (
            c.get("workload").and_then(|j| j.as_str()),
            c.get("config").and_then(|j| j.as_str()),
        ) else {
            continue;
        };
        let Some(f) = reports.iter().find(|r| r.workload == w && r.config == cfg) else {
            errs.push(format!("{w} {cfg}: in committed baseline but not re-run"));
            continue;
        };
        if let Some(bytes) = c.get("snapshot_bytes").and_then(|j| j.as_u64()) {
            let limit = bytes + bytes / 4;
            if f.snapshot_bytes > limit {
                errs.push(format!(
                    "{w} {cfg}: snapshot grew {bytes} → {} bytes (> 1.25× committed)",
                    f.snapshot_bytes
                ));
            }
        }
        if let Some(n) = c.get("windows_verified").and_then(|j| j.as_u64()) {
            if n > 0 && f.windows_verified == 0 {
                errs.push(format!("{w} {cfg}: replay verified no windows (was {n})"));
            }
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluke_core::Config;

    /// Bounded sweep: echo under two configs plus the submit-ring
    /// workload — zero divergences, every snapshot replayed. (The full
    /// 3-workload × 4-config sweep runs in the dedicated bin and CI's
    /// krec-smoke step.)
    #[test]
    fn bounded_sweeps_are_faithful() {
        for (w, cfg) in [
            (KrecWorkload::IpcEcho, Config::process_np()),
            (KrecWorkload::IpcEcho, Config::interrupt_pp()),
            (KrecWorkload::Server, Config::process_pp()),
        ] {
            let r =
                sweep(w, &cfg, 5).unwrap_or_else(|e| panic!("{} {}: {e}", w.label(), cfg.label));
            assert!(r.snapshots > 0, "{} {}: no snapshots", w.label(), cfg.label);
            assert!(
                r.divergences.is_empty(),
                "{} {}: {:?}",
                w.label(),
                cfg.label,
                r.reproducers()
            );
            assert!(r.windows_verified > 0);
            assert!(r.full_epoch_replays > 0);
        }
    }

    /// The multi-epoch checkpoint workload records and replays faithfully
    /// under one config (the others run in the bin).
    #[test]
    fn checkpoint_sweep_is_faithful() {
        let cfg = Config::interrupt_np();
        let r = sweep(KrecWorkload::Checkpoint, &cfg, 50)
            .unwrap_or_else(|e| panic!("{}: {e}", cfg.label));
        assert!(r.snapshots > 0);
        assert!(r.windows > 1, "checkpoint should record many windows");
        assert!(r.divergences.is_empty(), "{:?}", r.reproducers());
    }

    /// The JSON gate catches a snapshot-size blowup and missing sweeps.
    #[test]
    fn check_gates_size_and_coverage() {
        let cfg = Config::process_np();
        let r = sweep(KrecWorkload::IpcEcho, &cfg, 5).unwrap();
        let committed = to_json(std::slice::from_ref(&r));
        assert!(check(&committed, std::slice::from_ref(&r)).is_empty());

        // Shrink the committed size so the fresh run looks like a blowup.
        let shrunk = Json::parse(&committed.to_string().replace(
            &format!("\"snapshot_bytes\":{}", r.snapshot_bytes),
            "\"snapshot_bytes\":16",
        ))
        .unwrap();
        assert!(!check(&shrunk, std::slice::from_ref(&r)).is_empty());

        // A committed sweep that wasn't re-run is flagged.
        assert!(!check(&committed, &[]).is_empty());
    }
}
