//! Host-side benchmark for the software-TLB + bulk-memory fast path.
//!
//! Unlike every other module in this crate, this one measures **host
//! wall-clock**, not simulated cycles: the fast path is a pure simulator
//! optimisation, required to leave every simulated quantity bit-identical
//! while making the simulator itself run faster. Each row runs the same
//! workload twice — once with [`Config::fast_mem`] off (the per-byte
//! reference implementation) and once with it on — asserts the simulated
//! results are identical, and reports the host-time ratio plus the
//! software-TLB hit/miss/shootdown counters from the fast run.
//!
//! The binary `memfast` prints the table and writes `BENCH_memfast.json`.

use std::time::Instant;

use fluke_core::{Config, Kernel, Stats, TlbStats};
use fluke_json::Json;
use fluke_workloads::common::WorkloadRun;
use fluke_workloads::{flukeperf, memtest, FlukeperfParams};

use crate::tracediff::run_keep_kernel;
use crate::{Scale, TextTable};

/// Safety budget for the IPC-bulk runs (simulated cycles).
const IPC_BUDGET: u64 = 20_000_000_000;

/// Safety budget for memtest (demand paging makes it slower per byte).
const MEM_BUDGET: u64 = 50_000_000_000;

/// flukeperf phase mix that isolates the IPC bulk-copy path: only medium
/// and large one-way sends, no null-call / mutex / RPC phases.
pub fn ipc_bulk_params(scale: Scale) -> FlukeperfParams {
    let mut p = FlukeperfParams {
        nulls: 0,
        mutex_pairs: 0,
        cond_signals: 0,
        small_rpcs: 0,
        medium_sends: 256,
        medium_size: 64 << 10,
        big_sends: 8,
        big_size: 1_536 << 10,
        searches: 0,
        search_pages: 0,
    };
    if scale == Scale::Quick {
        p.medium_sends = 8;
        p.big_sends = 2;
        p.big_size = 256 << 10;
    }
    p
}

/// One before/after measurement: a workload under one configuration.
#[derive(Debug, Clone)]
pub struct MemfastRow {
    /// Workload label.
    pub workload: &'static str,
    /// Configuration label ("Process NP" etc.).
    pub config: &'static str,
    /// Bytes of user memory the workload moves or touches.
    pub bytes: u64,
    /// Simulated cycles, identical between the two runs (asserted).
    pub sim_cycles: u64,
    /// Host seconds with the fast path disabled (per-byte reference).
    pub ref_secs: f64,
    /// Host seconds with the fast path enabled.
    pub fast_secs: f64,
    /// Software-TLB counters from the fast run.
    pub tlb: TlbStats,
}

impl MemfastRow {
    /// Host wall-clock speedup of the fast path over the reference.
    pub fn speedup(&self) -> f64 {
        self.ref_secs / self.fast_secs
    }

    /// Reference throughput in MB/s of workload bytes per host second.
    pub fn ref_mb_per_sec(&self) -> f64 {
        self.bytes as f64 / (1 << 20) as f64 / self.ref_secs
    }

    /// Fast-path throughput in MB/s of workload bytes per host second.
    pub fn fast_mb_per_sec(&self) -> f64 {
        self.bytes as f64 / (1 << 20) as f64 / self.fast_secs
    }
}

/// Run a built workload to completion, returning the kernel, the
/// simulated cycles elapsed, and the host seconds spent.
fn timed(w: WorkloadRun, budget: u64) -> (Kernel, u64, f64) {
    let start = w.kernel.now();
    let t0 = Instant::now();
    let k = run_keep_kernel(w, budget);
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    let elapsed = k.now() - start;
    (k, elapsed, secs)
}

/// The simulated quantities that must not move when the fast path is
/// toggled (the full bit-identity check lives in the ktrace regression
/// test; this is the harness's cheap invariant).
fn assert_same_simulation(workload: &str, fast: &Kernel, reference: &Kernel) {
    let f: &Stats = &fast.stats;
    let r: &Stats = &reference.stats;
    let same = f.syscalls == r.syscalls
        && f.restarts == r.restarts
        && f.ctx_switches == r.ctx_switches
        && f.soft_faults == r.soft_faults
        && f.hard_faults == r.hard_faults
        && f.user_cycles == r.user_cycles
        && f.kernel_cycles == r.kernel_cycles
        && f.ipc_bytes == r.ipc_bytes
        && f.ipc_messages == r.ipc_messages
        && f.preempt_points_taken == r.preempt_points_taken;
    assert!(
        same,
        "{workload}: fast path changed simulated results (fast {f:?} vs reference {r:?})"
    );
}

/// Measure one workload under one configuration, reference vs fast.
///
/// `bytes` overrides the byte count reported for throughput; when `None`
/// the IPC byte counter is used.
fn measure(
    workload: &'static str,
    cfg: Config,
    build: impl Fn(Config) -> WorkloadRun,
    budget: u64,
    bytes: Option<u64>,
) -> MemfastRow {
    let config = cfg.label;
    let (ref_kernel, ref_cycles, ref_secs) = timed(build(cfg.clone().with_fast_mem(false)), budget);
    let (fast_kernel, fast_cycles, fast_secs) = timed(build(cfg), budget);
    assert_eq!(
        fast_cycles, ref_cycles,
        "{workload}: simulated time moved with the fast path"
    );
    assert_same_simulation(workload, &fast_kernel, &ref_kernel);
    MemfastRow {
        workload,
        config,
        bytes: bytes.unwrap_or(fast_kernel.stats.ipc_bytes),
        sim_cycles: fast_cycles,
        ref_secs,
        fast_secs,
        tlb: fast_kernel.tlb_stats(),
    }
}

/// Run the full memfast suite: IPC bulk transfer under both execution
/// models, plus the memtest byte-scan.
pub fn run_memfast(scale: Scale) -> Vec<MemfastRow> {
    let mut rows = Vec::new();
    for cfg in [Config::process_np(), Config::interrupt_np()] {
        rows.push(measure(
            "flukeperf-ipc-bulk",
            cfg,
            |c| flukeperf::build(c, &ipc_bulk_params(scale)),
            IPC_BUDGET,
            None,
        ));
    }
    let mb = match scale {
        Scale::Paper => 16,
        Scale::Quick => 1,
    };
    rows.push(measure(
        "memtest",
        Config::process_np(),
        |c| memtest::build(c, mb),
        MEM_BUDGET,
        Some((mb as u64) << 20),
    ));
    rows
}

/// Render the rows as a text table, including the software-TLB counters
/// the fast run accumulated.
pub fn table(rows: &[MemfastRow]) -> TextTable {
    let mut t = TextTable::new(&[
        "workload",
        "config",
        "MB",
        "ref MB/s",
        "fast MB/s",
        "speedup",
        "tlb hits",
        "tlb misses",
        "shootdowns",
    ]);
    for r in rows {
        t.row(&[
            r.workload.to_string(),
            r.config.to_string(),
            format!("{:.1}", r.bytes as f64 / (1 << 20) as f64),
            format!("{:.1}", r.ref_mb_per_sec()),
            format!("{:.1}", r.fast_mb_per_sec()),
            format!("{:.2}x", r.speedup()),
            r.tlb.hits.to_string(),
            r.tlb.misses.to_string(),
            r.tlb.shootdowns.to_string(),
        ]);
    }
    t
}

/// Build the `BENCH_memfast.json` document.
pub fn to_json(scale: Scale, rows: &[MemfastRow]) -> Json {
    let mut doc = Json::obj();
    doc.set("bench", Json::Str("memfast".to_string()));
    doc.set("scale", Json::Str(scale.label().to_string()));
    let items = rows
        .iter()
        .map(|r| {
            let mut o = Json::obj();
            o.set("workload", Json::Str(r.workload.to_string()));
            o.set("config", Json::Str(r.config.to_string()));
            o.set("bytes", Json::from_u64(r.bytes));
            o.set("sim_cycles", Json::from_u64(r.sim_cycles));
            o.set("ref_secs", Json::Num(r.ref_secs));
            o.set("fast_secs", Json::Num(r.fast_secs));
            o.set("speedup", Json::Num(r.speedup()));
            o.set("ref_mb_per_sec", Json::Num(r.ref_mb_per_sec()));
            o.set("fast_mb_per_sec", Json::Num(r.fast_mb_per_sec()));
            let mut tlb = Json::obj();
            tlb.set("hits", Json::from_u64(r.tlb.hits));
            tlb.set("misses", Json::from_u64(r.tlb.misses));
            tlb.set("shootdowns", Json::from_u64(r.tlb.shootdowns));
            o.set("tlb", tlb);
            o
        })
        .collect();
    doc.set("rows", Json::Arr(items));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracediff::run_traced_flukeperf;

    /// The harness itself asserts simulated-identity inside `measure`;
    /// here we additionally check the counters it reports are live.
    #[test]
    fn memfast_rows_are_consistent() {
        let rows = run_memfast(Scale::Quick);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.bytes > 0, "{}: no bytes moved", r.workload);
            assert!(r.sim_cycles > 0);
            assert!(r.ref_secs > 0.0 && r.fast_secs > 0.0);
            assert!(
                r.tlb.hits > 0 && r.tlb.misses > 0,
                "{}: software TLB never exercised ({:?})",
                r.workload,
                r.tlb
            );
            // No wall-clock ratio asserted here: CI machines are noisy.
            // The committed BENCH_memfast.json from a release run carries
            // the headline number.
        }
        // memtest's demand paging maps pages after first touch, so its
        // shootdown counter must be live too.
        let memtest = rows.iter().find(|r| r.workload == "memtest").unwrap();
        assert!(memtest.tlb.shootdowns > 0, "paging never shot down the TLB");
    }

    #[test]
    fn memfast_json_round_trips() {
        let rows = vec![MemfastRow {
            workload: "flukeperf-ipc-bulk",
            config: "Process NP",
            bytes: 1 << 20,
            sim_cycles: 12345,
            ref_secs: 0.5,
            fast_secs: 0.05,
            tlb: TlbStats {
                hits: 10,
                misses: 2,
                shootdowns: 1,
            },
        }];
        let doc = to_json(Scale::Quick, &rows);
        let parsed = Json::parse(&doc.to_string()).expect("emitted JSON parses");
        let row = &parsed.get("rows").unwrap().items().unwrap()[0];
        assert_eq!(row.get("bytes").unwrap().as_u64(), Some(1 << 20));
        assert_eq!(
            row.get("tlb").unwrap().get("hits").unwrap().as_u64(),
            Some(10)
        );
        assert!((row.get("speedup").unwrap().as_f64().unwrap() - 10.0).abs() < 1e-9);
        let rendered = table(&rows).render();
        assert!(rendered.contains("tlb hits"));
        assert!(rendered.contains("10.00x"));
    }

    /// The fast path must be *trace*-identical, not merely stats-identical:
    /// the raw ktrace — every event, timestamp and payload — of a traced
    /// flukeperf run must not move when `fast_mem` is toggled, under both
    /// execution models.
    #[test]
    fn fast_path_is_ktrace_identical_under_both_models() {
        for cfg in [Config::process_np(), Config::interrupt_np()] {
            let label = cfg.label;
            let fast = run_traced_flukeperf(cfg.clone(), Scale::Quick);
            let reference = run_traced_flukeperf(cfg.with_fast_mem(false), Scale::Quick);
            assert_eq!(fast.trace.dropped_total(), 0);
            assert_eq!(reference.trace.dropped_total(), 0);
            assert_eq!(
                fast.trace.merged(),
                reference.trace.merged(),
                "{label}: raw ktrace diverged when fast_mem was toggled"
            );
            assert_eq!(fast.now(), reference.now(), "{label}: clock diverged");
        }
    }
}
