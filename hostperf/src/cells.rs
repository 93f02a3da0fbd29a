//! Cells: one simulated run each, built through the workload crates'
//! public APIs, driven by the benchmark's own run loop, and checked.
//!
//! A workload is a fixed list of cells. Executing a cell goes through the
//! same phases every time — build, run, `kstat`, report (write and read
//! back), check, teardown — each wrapped in a [`Spans::time`] call so the
//! traced run can split the host time by layer from outside the kernel.

use fluke_api::abi::{ARG_COUNT, ARG_RBUF, ARG_SBUF, ARG_VAL};
use fluke_api::{ObjType, Sys};
use fluke_arch::cost::Cycles;
use fluke_arch::{Assembler, Cond, Reg, UserRegs};
use fluke_bench::observability::{self, MemSample, Observed};
use fluke_bench::Scale;
use fluke_core::{Config, Kernel, RunExit, SpaceId, ThreadId};
use fluke_json::Json;
use fluke_user::pager::PagerSetup;
use fluke_user::proc::ChildProc;
use fluke_user::FlukeAsm;
use fluke_workloads::common::counted_loop;
use fluke_workloads::latency::install_probe;
use fluke_workloads::memtest::SCAN_BASE;
use fluke_workloads::{flukeperf, FlukeperfParams};

use crate::clock::CpuInstant;
use crate::inputs::{Inputs, ECHO_LEN};
use crate::spans::{Layer, Spans};

/// Safety budget for one cell, in simulated cycles (`mp_scaling`'s).
const BUDGET: Cycles = 200_000_000_000;

/// Run-loop slice: the granularity at which completion is noticed, as in
/// `fluke_workloads::try_run_workload`.
const SLICE: Cycles = 50_000;

/// Memory-gauge sampling period of the observed run (`kmon`'s).
const SAMPLE_PERIOD: Cycles = 1_000_000;

/// Period of the latency probe installed in the observed run (`kmon`'s).
const PROBE_PERIOD_MS: u64 = 1;

/// Compute padding per scanned byte in memtest (`memtest`'s calibration).
pub const MEMTEST_PAD: u32 = 19;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 16MB demand-paged byte scan, Process NP, one CPU.
    Memtest,
    /// 64 CPUs, Process PP: (a) one echo pair per CPU, (b) flukeperf.
    Mp64,
    /// Reduced flukeperf with kprof + kspan + latency probe, and its report
    /// written and read back.
    Observed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Memtest, Workload::Mp64, Workload::Observed];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Memtest => "memtest",
            Workload::Mp64 => "mp64",
            Workload::Observed => "observed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's cells for `inputs`, with seed-0 fingerprints pinned.
    pub fn cells(self, inputs: &Inputs) -> Vec<Cell> {
        let cells = match self {
            Workload::Memtest => vec![Cell::new(
                "memtest/process_np",
                Config::process_np(),
                CellKind::Memtest {
                    pages: inputs.memtest_pages,
                },
            )],
            Workload::Mp64 => {
                let cfg = Config::process_pp().with_cpus(64);
                vec![
                    Cell::new(
                        "mp64/echo",
                        cfg.clone(),
                        CellKind::Echo {
                            pairs: 64,
                            exchanges: inputs.echo_exchanges,
                            payload: inputs.echo_payload,
                        },
                    ),
                    Cell::new(
                        "mp64/flukeperf",
                        cfg,
                        CellKind::Flukeperf(inputs.flukeperf.clone()),
                    ),
                ]
            }
            Workload::Observed => vec![Cell::new(
                "observed/process_pp",
                Config::process_pp(),
                CellKind::Observed {
                    params: inputs.observed.clone(),
                    armed: true,
                },
            )],
        };
        if inputs.seed != 0 {
            return cells;
        }
        cells
            .into_iter()
            .map(|mut c| {
                c.pin = pinned(c.name);
                c
            })
            .collect()
    }
}

/// What a cell runs.
#[derive(Debug, Clone)]
pub enum CellKind {
    /// `fluke_workloads::flukeperf` with these phase sizes.
    Flukeperf(FlukeperfParams),
    /// The memtest scan over `pages` demand-paged pages.
    Memtest {
        /// Pages scanned.
        pages: u32,
    },
    /// Independent client/server echo pairs (`mp_scaling`'s ipc-echo).
    Echo {
        /// Number of pairs.
        pairs: usize,
        /// Request/reply round trips per pair (at least 2).
        exchanges: u32,
        /// What every client sends and must get back.
        payload: [u8; ECHO_LEN],
    },
    /// flukeperf as `kmon` runs it: with the 1ms latency probe, memory
    /// gauges sampled, and (when `armed`) kprof + kspan on.
    Observed {
        /// Phase sizes.
        params: FlukeperfParams,
        /// Whether kprof and kspan are on.
        armed: bool,
    },
}

/// One simulated run of the benchmark.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `workload/part` name.
    pub name: &'static str,
    /// Base configuration (observers are added by the kind).
    pub cfg: Config,
    /// What runs.
    pub kind: CellKind,
    /// The expected fingerprint, if pinned.
    pub pin: Option<Fingerprint>,
}

/// The simulated result of a cell, exact and repeatable: elapsed cycles,
/// syscalls, and a digest over the `Stats` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Simulated cycles from start to completion (global clock).
    pub cycles: u64,
    /// System calls dispatched.
    pub syscalls: u64,
    /// FNV-1a-64 over the counters listed in [`fingerprint`].
    pub digest: u64,
}

/// Seed-0 fingerprints, produced by the repository's experiment code at
/// paper parameters (see the `pins_match_committed_experiment_outputs` and
/// `paper_scale_pins_reproduce` tests).
pub fn pinned(name: &str) -> Option<Fingerprint> {
    let (cycles, syscalls, digest) = match name {
        "memtest/process_np" => (603_108_609, 16_385, 0x715b_e55f_1b78_65a1),
        "mp64/echo" => (19_386_976, 2_097_280, 0xda76_e0c0_2d6f_49d1),
        "mp64/flukeperf" => (1_507_796_076, 1_960_215, 0xddae_ee11_72c9_316f),
        "observed/process_pp" => (12_123_848, 13_102, 0xc6df_85f7_12e0_29a3),
        _ => return None,
    };
    Some(Fingerprint {
        cycles,
        syscalls,
        digest,
    })
}

/// Exact per-layer work counts of one cell (all from the simulated run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulated elapsed cycles (global clock).
    pub elapsed: u64,
    /// User-mode cycles executed.
    pub user_cycles: u64,
    /// Software-TLB hits.
    pub tlb_hits: u64,
    /// Software-TLB misses.
    pub tlb_misses: u64,
    /// Soft page faults.
    pub soft_faults: u64,
    /// Hard page faults (pager round trips).
    pub hard_faults: u64,
    /// System calls dispatched (restarts included).
    pub syscalls: u64,
    /// System-call restarts.
    pub restarts: u64,
    /// IPC messages completed.
    pub ipc_messages: u64,
    /// IPC bytes copied.
    pub ipc_bytes: u64,
    /// Context switches.
    pub ctx_switches: u64,
    /// Address-space switches.
    pub space_switches: u64,
    /// Work-stealing events.
    pub steals: u64,
    /// Steal sweeps attempted.
    pub steal_attempts: u64,
    /// Reschedule IPIs.
    pub ipis: u64,
    /// Wait-queue operations (enqueues, requeues, wakes, wake-alls,
    /// cancels).
    pub waitq_ops: u64,
    /// Cycles stalled on a lock another CPU held.
    pub lock_wait_cycles: u64,
    /// `Kernel::run` calls the run loop made.
    pub run_calls: u64,
    /// `kstat` registry leaves.
    pub kstat_leaves: u64,
    /// Report text bytes.
    pub report_bytes: u64,
}

impl Counts {
    /// Field-wise sum.
    pub fn add(&mut self, o: &Counts) {
        self.elapsed += o.elapsed;
        self.user_cycles += o.user_cycles;
        self.tlb_hits += o.tlb_hits;
        self.tlb_misses += o.tlb_misses;
        self.soft_faults += o.soft_faults;
        self.hard_faults += o.hard_faults;
        self.syscalls += o.syscalls;
        self.restarts += o.restarts;
        self.ipc_messages += o.ipc_messages;
        self.ipc_bytes += o.ipc_bytes;
        self.ctx_switches += o.ctx_switches;
        self.space_switches += o.space_switches;
        self.steals += o.steals;
        self.steal_attempts += o.steal_attempts;
        self.ipis += o.ipis;
        self.waitq_ops += o.waitq_ops;
        self.lock_wait_cycles += o.lock_wait_cycles;
        self.run_calls += o.run_calls;
        self.kstat_leaves += o.kstat_leaves;
        self.report_bytes += o.report_bytes;
    }
}

/// The result of executing one cell.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Host CPU seconds from the end of the build to the end of teardown.
    pub wall_s: f64,
    /// The fingerprint, if the run completed.
    pub fingerprint: Option<Fingerprint>,
    /// Work counts (zero if the run did not complete).
    pub counts: Counts,
    /// Every failed check; empty when the cell passed.
    pub errors: Vec<String>,
}

/// A built cell, ready to run.
pub struct Built {
    /// The booted kernel.
    pub kernel: Kernel,
    /// Threads whose halting completes the run.
    pub mains: Vec<ThreadId>,
    /// Echo clients: (space, reply buffer) per pair.
    echo_replies: Vec<(SpaceId, u32)>,
}

impl Cell {
    /// A cell with no pinned fingerprint.
    pub fn new(name: &'static str, cfg: Config, kind: CellKind) -> Cell {
        Cell {
            name,
            cfg,
            kind,
            pin: None,
        }
    }

    /// The configuration the cell's kernel is created with.
    pub fn kernel_cfg(&self) -> Config {
        match self.kind {
            CellKind::Observed { armed: true, .. } => self.cfg.clone().with_kprof().with_kspan(),
            _ => self.cfg.clone(),
        }
    }

    /// Build the cell through the workload crates' public APIs.
    pub fn build(&self) -> Built {
        let cfg = self.kernel_cfg();
        let plain = |w: fluke_workloads::WorkloadRun| Built {
            kernel: w.kernel,
            mains: w.main_threads,
            echo_replies: Vec::new(),
        };
        match &self.kind {
            CellKind::Flukeperf(p) => plain(flukeperf::build(cfg, p)),
            CellKind::Memtest { pages } => build_memtest_pages(cfg, *pages),
            CellKind::Echo {
                pairs,
                exchanges,
                payload,
            } => build_echo(cfg, *pairs, *exchanges, payload),
            CellKind::Observed { params, .. } => {
                let mut w = flukeperf::build(cfg, params);
                install_probe(&mut w.kernel, PROBE_PERIOD_MS);
                plain(w)
            }
        }
    }

    /// Execute the cell once: build, run, report, check, tear down.
    pub fn execute(&self, spans: &mut Spans) -> CellRun {
        let mut b = spans.time(Layer::Setup, || self.build());
        let t1 = CpuInstant::now();
        let mut run = CellRun {
            wall_s: 0.0,
            fingerprint: None,
            counts: Counts::default(),
            errors: Vec::new(),
        };
        let observed = matches!(self.kind, CellKind::Observed { .. });
        let start = b.kernel.now();
        match drive(&mut b, start, spans, observed) {
            Err(e) => {
                run.errors.push(format!("{}: {e}", self.name));
                spans.time(Layer::Teardown, || drop(b));
            }
            Ok((run_calls, series)) => {
                let k = &b.kernel;
                let registry = spans.time(Layer::Kstat, || k.kstat());
                let kstat_leaves = registry.len() as u64;
                let (doc, kernel) = if observed {
                    let o = Observed {
                        kernel: b.kernel,
                        mem_series: series,
                    };
                    let doc = spans.time(Layer::ToJson, || {
                        observability::to_json(Scale::Quick, std::slice::from_ref(&o))
                    });
                    (doc, o.kernel)
                } else {
                    (spans.time(Layer::ToJson, || registry.to_json()), b.kernel)
                };
                let text = spans.time(Layer::ToString, || doc.to_string());
                let parsed = spans.time(Layer::Parse, || Json::parse(&text));
                b.kernel = kernel;
                spans.time(Layer::Check, || {
                    let mut c = counts(&b.kernel, start);
                    c.run_calls = run_calls;
                    c.kstat_leaves = kstat_leaves;
                    c.report_bytes = text.len() as u64;
                    run.counts = c;
                    let fp = fingerprint(&b.kernel, start);
                    if let Some(pin) = self.pin {
                        if fp != pin {
                            run.errors.push(format!(
                                "{}: fingerprint {fp:?} differs from pinned {pin:?}",
                                self.name
                            ));
                        }
                    }
                    run.fingerprint = Some(fp);
                    match parsed {
                        Ok(p) if p == doc => {}
                        Ok(_) => run
                            .errors
                            .push(format!("{}: report does not round-trip", self.name)),
                        Err(e) => run
                            .errors
                            .push(format!("{}: report does not parse: {e}", self.name)),
                    }
                    self.check_invariants(&mut b, &mut run.errors);
                });
                spans.time(Layer::Teardown, || drop((b, registry, doc, text)));
            }
        }
        run.wall_s = t1.elapsed_s();
        run
    }

    /// Seed-independent checks: counts match the generated parameters,
    /// echo payloads come back intact, and kprof's phase totals sum to
    /// the simulated cycles.
    fn check_invariants(&self, b: &mut Built, errors: &mut Vec<String>) {
        let k = &b.kernel;
        let s = &k.stats;
        let mut expect = |what: &str, got: u64, want: u64| {
            if got != want {
                errors.push(format!("{}: {what} = {got}, expected {want}", self.name));
            }
        };
        match &self.kind {
            CellKind::Flukeperf(p) | CellKind::Observed { params: p, .. } => {
                let per = |sys| s.per_sys.get(sys);
                expect("sys_null calls", per(Sys::SysNull), p.nulls.into());
                expect(
                    "mutex_unlock calls",
                    per(Sys::MutexUnlock),
                    p.mutex_pairs.into(),
                );
                expect(
                    "cond_signal calls",
                    per(Sys::CondSignal),
                    p.cond_signals.into(),
                );
                let sends = u64::from(p.medium_sends + p.big_sends);
                expect(
                    "ipc messages",
                    s.ipc_messages,
                    2 * u64::from(p.small_rpcs) + sends,
                );
                if let CellKind::Observed { armed: true, .. } = self.kind {
                    expect("kprof total", k.kprof.total(), k.total_cpu_cycles());
                    expect("kprof user", k.kprof.user_cycles(), s.user_cycles);
                    expect("kprof kernel", k.kprof.kernel_cycles(), s.kernel_cycles);
                    expect("kprof idle", k.kprof.idle_cycles(), s.idle_cycles);
                }
            }
            CellKind::Memtest { pages } => {
                expect("hard faults", s.hard_faults, (*pages).into());
            }
            CellKind::Echo {
                pairs,
                exchanges,
                payload,
            } => {
                let want = 2 * *pairs as u64 * u64::from(*exchanges);
                expect("ipc messages", s.ipc_messages, want);
                let replies = b.echo_replies.clone();
                for (i, (space, buf)) in replies.into_iter().enumerate() {
                    if b.kernel.read_mem(space, buf, ECHO_LEN as u32) != payload[..] {
                        errors.push(format!("{}: pair {i} echo payload corrupted", self.name));
                    }
                }
            }
        }
    }
}

/// The run loop of `fluke_workloads::try_run_workload`, with every
/// `Kernel::run` call timed. With `gauges` (the observed run) slices also
/// end at each memory-gauge sample and the gauges are sampled, as in
/// `observability::run_observed`. Returns the calls made and the samples.
fn drive(
    b: &mut Built,
    start: Cycles,
    spans: &mut Spans,
    gauges: bool,
) -> Result<(u64, Vec<MemSample>), String> {
    let deadline = start + BUDGET;
    let mut series = Vec::new();
    let mut next_sample = Cycles::MAX;
    if gauges {
        series.push(sample(&b.kernel));
        next_sample = start + SAMPLE_PERIOD;
    }
    let mut calls = 0;
    loop {
        let until = (b.kernel.now() + SLICE).min(next_sample).min(deadline);
        let exit = spans.time(Layer::Run, || b.kernel.run(Some(until)));
        calls += 1;
        if b.kernel.now() >= next_sample {
            let k = &b.kernel;
            series.push(spans.time(Layer::ObsSample, || sample(k)));
            next_sample += SAMPLE_PERIOD;
        }
        if b.mains.iter().all(|&t| b.kernel.thread_halted(t)) {
            if gauges {
                series.push(sample(&b.kernel));
            }
            return Ok((calls, series));
        }
        check_exit(exit, b.kernel.now() >= deadline)?;
    }
}

fn check_exit(exit: RunExit, past_deadline: bool) -> Result<(), String> {
    match exit {
        RunExit::TimeLimit if past_deadline => {
            Err(format!("did not finish within {BUDGET} cycles"))
        }
        RunExit::TimeLimit => Ok(()),
        other => Err(format!("wedged (exit {other:?})")),
    }
}

fn sample(k: &Kernel) -> MemSample {
    let g = k.mem_gauges();
    MemSample {
        at: k.now(),
        live_threads: g.live_threads,
        tcb_bytes: g.tcb_bytes,
        kstacks_bytes: g.kstacks_bytes,
        retained_kstack_bytes: g.retained_kstack_bytes,
    }
}

/// The cell's fingerprint: elapsed cycles, syscalls, and FNV-1a-64 over
/// the simulated `Stats` counters.
pub fn fingerprint(k: &Kernel, start: Cycles) -> Fingerprint {
    let s = &k.stats;
    let fields = [
        k.now() - start,
        k.total_cpu_cycles(),
        s.syscalls,
        s.restarts,
        s.per_sys.total(),
        s.ctx_switches,
        s.space_switches,
        s.soft_faults,
        s.hard_faults,
        s.fatal_faults,
        s.user_cycles,
        s.kernel_cycles,
        s.idle_cycles,
        s.rollback_cycles,
        s.klock_cycles,
        s.klock_wait_cycles,
        s.ipc_bytes,
        s.ipc_messages,
        s.preempt_points_taken,
        s.kernel_preemptions,
        s.user_preemptions,
        s.probe_runs,
        s.probe_misses,
        s.threads_created,
        s.objects_created,
        s.sched_pushes,
        s.sched_steals,
        s.sched_steal_attempts,
        s.sched_ipis,
        s.tlb_shootdown_ipis,
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in fields {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    Fingerprint {
        cycles: k.now() - start,
        syscalls: s.syscalls,
        digest: h,
    }
}

fn counts(k: &Kernel, start: Cycles) -> Counts {
    let s = &k.stats;
    let tlb = k.tlb_stats();
    let w = &s.waitq;
    Counts {
        elapsed: k.now() - start,
        user_cycles: s.user_cycles,
        tlb_hits: tlb.hits,
        tlb_misses: tlb.misses,
        soft_faults: s.soft_faults,
        hard_faults: s.hard_faults,
        syscalls: s.syscalls,
        restarts: s.restarts,
        ipc_messages: s.ipc_messages,
        ipc_bytes: s.ipc_bytes,
        ctx_switches: s.ctx_switches,
        space_switches: s.space_switches,
        steals: s.sched_steals,
        steal_attempts: s.sched_steal_attempts,
        ipis: s.sched_ipis,
        waitq_ops: w.enqueues + w.requeues + w.wakes + w.wake_alls + w.cancels,
        lock_wait_cycles: s.klock_wait_cycles,
        ..Counts::default()
    }
}

/// memtest's byte scan over `bytes` bytes starting at `base`.
pub fn scan_program(base: u32, bytes: u32) -> fluke_arch::Program {
    let mut a = Assembler::new("memtest");
    a.movi(Reg::Ebp, base);
    a.movi(Reg::Ecx, bytes);
    a.label("scan");
    a.loadb(Reg::Edx, Reg::Ebp, 0);
    a.addi(Reg::Ebp, 1);
    a.compute(MEMTEST_PAD);
    a.subi(Reg::Ecx, 1);
    a.cmpi(Reg::Ecx, 0);
    a.jcc(Cond::Ne, "scan");
    a.halt();
    a.finish()
}

/// memtest at page granularity: the same pager, child and scan as
/// `fluke_workloads::memtest::build`, which only takes whole megabytes.
pub fn build_memtest_pages(cfg: Config, pages: u32) -> Built {
    let bytes = pages * fluke_api::abi::PAGE_SIZE;
    let backing = pages.div_ceil(256) << 20;
    let mut k = Kernel::new(cfg);
    let pager = PagerSetup::boot(&mut k, backing, 12);
    let child = pager.paged_child(&mut k, SCAN_BASE, backing, 0);
    let pid = k.register_program(scan_program(SCAN_BASE, bytes));
    let t = k.spawn_thread(child, pid, UserRegs::new(), 8);
    Built {
        kernel: k,
        mains: vec![t],
        echo_replies: Vec::new(),
    }
}

/// `mp_scaling`'s ipc-echo: `pairs` client/server pairs, each in its own
/// two spaces on its own port, `exchanges` round trips of `payload`.
pub fn build_echo(cfg: Config, pairs: usize, exchanges: u32, payload: &[u8; ECHO_LEN]) -> Built {
    assert!(exchanges >= 2, "echo needs at least two exchanges");
    const LEN: u32 = ECHO_LEN as u32;
    let mut k = Kernel::new(cfg);
    let mut mains = Vec::new();
    let mut echo_replies = Vec::new();
    for i in 0..pairs {
        let base = 0x0100_0000 + (i as u32) * 0x0040_0000;
        let mut server = ChildProc::with_mem(&mut k, base, 0x4000);
        let mut client = ChildProc::with_mem(&mut k, base + 0x0020_0000, 0x4000);
        let h_port = server.alloc_obj();
        let h_ref = client.alloc_obj();
        let port = k.loader_create(server.space, h_port, ObjType::Port);
        k.loader_ref(client.space, h_ref, port);
        let sbuf = server.mem_base + 0x1000;
        let cbuf = client.mem_base + 0x1000;
        let crbuf = client.mem_base + 0x2000;
        k.write_mem(client.space, cbuf, payload);

        let mut a = Assembler::new("echo-server");
        a.server_wait_receive(h_port, sbuf, LEN);
        counted_loop(&mut a, "x", server.mem_base + 0x3000, exchanges - 1, |a| {
            a.movi(ARG_SBUF, sbuf);
            a.movi(ARG_COUNT, LEN);
            a.movi(ARG_RBUF, sbuf);
            a.movi(ARG_VAL, LEN);
            a.sys(Sys::IpcServerSendWaitReceive);
        });
        a.server_ack_send(sbuf, LEN);
        a.halt();
        mains.push(server.start(&mut k, a.finish(), 8));

        let mut a = Assembler::new("echo-client");
        a.client_rpc(h_ref, cbuf, LEN, crbuf, LEN);
        counted_loop(&mut a, "x", client.mem_base + 0x3000, exchanges - 1, |a| {
            a.movi(ARG_SBUF, cbuf);
            a.movi(ARG_COUNT, LEN);
            a.movi(ARG_RBUF, crbuf);
            a.movi(ARG_VAL, LEN);
            a.sys(Sys::IpcClientSendOverReceive);
        });
        a.halt();
        mains.push(client.start(&mut k, a.finish(), 8));
        echo_replies.push((client.space, crbuf));
    }
    Built {
        kernel: k,
        mains,
        echo_replies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::quick;
    use fluke_workloads::{memtest, run_workload};

    fn committed(file: &str) -> Json {
        let path = format!("{}/../{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("committed report");
        Json::parse(&text).expect("committed report parses")
    }

    fn rows(doc: &Json) -> Vec<Json> {
        let mut out = Vec::new();
        match doc.get("runs").and_then(Json::items) {
            Some(runs) => {
                for r in runs {
                    out.extend(r.get("rows").and_then(Json::items).unwrap_or(&[]).to_vec());
                }
            }
            None => out.extend(
                doc.get("rows")
                    .and_then(Json::items)
                    .unwrap_or(&[])
                    .to_vec(),
            ),
        }
        out
    }

    /// The seed-0 pins agree with what the repository's experiment
    /// binaries committed: `mp_scaling` for mp64's flukeperf part,
    /// `memfast` for memtest's cycles.
    #[test]
    fn pins_match_committed_experiment_outputs() {
        let mp = rows(&committed("BENCH_mp_scaling.json"));
        let row = mp
            .iter()
            .find(|r| {
                r.get("workload").and_then(Json::as_str) == Some("flukeperf")
                    && r.get("model").and_then(Json::as_str) == Some("Process PP")
                    && r.get("lock").and_then(Json::as_str) == Some("fine")
                    && r.get("cpus").and_then(Json::as_u64) == Some(64)
                    && r.get("ops").and_then(Json::as_u64) > Some(1_000_000)
            })
            .expect("paper-scale row");
        let pin = |name| pinned(name).expect("pinned");
        let p = pin("mp64/flukeperf");
        assert_eq!(
            row.get("elapsed_cycles").and_then(Json::as_u64),
            Some(p.cycles)
        );
        assert_eq!(row.get("ops").and_then(Json::as_u64), Some(p.syscalls));

        let memfast = rows(&committed("BENCH_memfast.json"));
        let memtest = memfast
            .iter()
            .find(|r| r.get("workload").and_then(Json::as_str) == Some("memtest"))
            .expect("memtest row");
        assert_eq!(
            memtest.get("sim_cycles").and_then(Json::as_u64),
            Some(pin("memtest/process_np").cycles)
        );
    }

    /// Seed 0 at paper scale reproduces every pin. Slow without
    /// optimisation, so it only runs under `cargo test --release`.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper scale; run with --release")]
    fn paper_scale_pins_reproduce() {
        let inputs = Inputs::new(0);
        for w in Workload::ALL {
            for cell in w.cells(&inputs) {
                assert!(cell.pin.is_some(), "{} is pinned", cell.name);
                let run = cell.execute(&mut Spans::new(false));
                assert!(run.errors.is_empty(), "{:?}", run.errors);
            }
        }
        let cfg = Config::process_pp().with_cpus(64);
        let theirs = run_workload(flukeperf::build(cfg, &FlukeperfParams::paper()), BUDGET);
        let pin = pinned("mp64/flukeperf").unwrap();
        assert_eq!(
            (theirs.elapsed, theirs.stats.syscalls),
            (pin.cycles, pin.syscalls)
        );
        let theirs = run_workload(memtest::build(Config::process_np(), 16), BUDGET);
        let pin = pinned("memtest/process_np").unwrap();
        assert_eq!(
            (theirs.elapsed, theirs.stats.syscalls),
            (pin.cycles, pin.syscalls)
        );
    }

    /// The benchmark's run loop and build functions reproduce the repository's
    /// own runners exactly.
    #[test]
    fn cells_match_repository_runners() {
        let quick = FlukeperfParams::quick();
        let cell = Cell::new(
            "t",
            Config::interrupt_pp(),
            CellKind::Flukeperf(quick.clone()),
        );
        let ours = cell.execute(&mut Spans::new(false));
        let theirs = run_workload(flukeperf::build(Config::interrupt_pp(), &quick), BUDGET);
        let fp = ours.fingerprint.expect("completed");
        assert_eq!(
            (fp.cycles, fp.syscalls),
            (theirs.elapsed, theirs.stats.syscalls)
        );

        let mut b = build_memtest_pages(Config::process_np(), 256);
        let start = b.kernel.now();
        drive(&mut b, start, &mut Spans::new(false), false).expect("completes");
        let theirs = run_workload(memtest::build(Config::process_np(), 1), BUDGET);
        assert_eq!(
            (b.kernel.now() - start, format!("{:?}", b.kernel.stats)),
            (theirs.elapsed, format!("{:?}", theirs.stats))
        );

        let cell = Cell::new(
            "t",
            Config::process_pp(),
            CellKind::Observed {
                params: quick,
                armed: true,
            },
        );
        let ours = cell.execute(&mut Spans::new(false)).fingerprint.unwrap();
        let theirs = observability::run_observed(Config::process_pp(), Scale::Quick);
        assert_eq!(ours, fingerprint(&theirs.kernel, 0));
    }

    /// A perturbed configuration runs the same program to a different
    /// fingerprint, and the pin catches it. The host-only memory fast path
    /// changes no simulated number, so it must not trip the pin.
    #[test]
    fn perturbed_config_trips_fingerprint_check() {
        let kind = CellKind::Flukeperf(FlukeperfParams::quick());
        let mut cell = Cell::new("t", Config::process_np(), kind);
        cell.pin = cell.execute(&mut Spans::new(false)).fingerprint;
        assert!(cell.execute(&mut Spans::new(false)).errors.is_empty());
        let base = cell.cfg.clone();
        let perturbed = [
            Config {
                preempt: fluke_core::Preemption::Partial,
                ..base.clone()
            },
            Config {
                model: fluke_core::ExecModel::Interrupt,
                ..base.clone()
            },
            base.clone().with_cpus(2),
        ];
        for cfg in perturbed {
            cell.cfg = cfg;
            let run = cell.execute(&mut Spans::new(false));
            assert_eq!(run.errors.len(), 1, "{:?}", run.errors);
            assert!(run.errors[0].contains("differs from pinned"));
        }
        cell.cfg = base.with_fast_mem(false);
        assert!(cell.execute(&mut Spans::new(false)).errors.is_empty());
    }

    /// Every workload's seed-independent invariants hold on perturbed
    /// inputs, and a corrupted echo payload is caught.
    #[test]
    fn invariants_hold_across_seeds() {
        for seed in 1..4 {
            let inputs = quick(seed);
            for w in Workload::ALL {
                for cell in w.cells(&inputs) {
                    assert!(cell.pin.is_none());
                    let run = cell.execute(&mut Spans::new(false));
                    assert!(run.errors.is_empty(), "seed {seed}: {:?}", run.errors);
                }
            }
        }
        let payload = quick(1).echo_payload;
        let cell = Cell::new(
            "t",
            Config::process_pp().with_cpus(2),
            CellKind::Echo {
                pairs: 2,
                exchanges: 4,
                payload,
            },
        );
        let mut b = cell.build();
        drive(&mut b, 0, &mut Spans::new(false), false).expect("completes");
        let (space, buf) = b.echo_replies[1];
        b.kernel.write_mem(space, buf, &[0; 4]);
        let mut errors = Vec::new();
        cell.check_invariants(&mut b, &mut errors);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("payload"));
    }
}
