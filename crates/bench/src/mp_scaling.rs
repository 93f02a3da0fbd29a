//! The MP scaling headline: throughput as a function of processor count,
//! 1 through 64, fine-grained locking vs the legacy big kernel lock.
//!
//! Two workloads drive the curves:
//!
//! * **ipc-echo** — weak scaling: one client/server echo pair per CPU,
//!   each pair in its own pair of address spaces on its own connection,
//!   so a fine-grained kernel gives each pair a private lock while the
//!   big lock serializes every kernel entry machine-wide.
//! * **flukeperf** — the paper's microbenchmark suite, unchanged, run at
//!   each CPU count to show the fine-grained kernel costs a small
//!   uncontended overhead but never regresses as processors are added.
//!
//! The binary `mp_scaling` prints the table, writes
//! `BENCH_mp_scaling.json`, and with `--check` gates against the
//! committed baseline (throughput regression and lock-wait share).

use fluke_api::abi::{ARG_COUNT, ARG_RBUF, ARG_SBUF, ARG_VAL};
use fluke_api::{ObjType, Sys};
use fluke_arch::Assembler;
use fluke_core::{Config, Kernel};
use fluke_json::Json;
use fluke_user::proc::{run_to_halt, ChildProc};
use fluke_user::FlukeAsm;
use fluke_workloads::flukeperf;

use crate::gate::scale_run;
use crate::tracediff::run_keep_kernel;
use crate::{Scale, TextTable};

/// Processor counts swept by the benchmark.
pub const CPU_POINTS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Echo payload per message.
const LEN: u32 = 64;

/// Safety budget per run (simulated cycles).
const BUDGET: u64 = 200_000_000_000;

/// Request/reply round trips per echo pair.
fn exchanges(scale: Scale) -> u32 {
    match scale {
        Scale::Paper => 64,
        Scale::Quick => 8,
    }
}

/// One measured point of the scaling sweep.
#[derive(Debug, Clone)]
pub struct MpRow {
    /// Workload label ("ipc-echo" or "flukeperf").
    pub workload: &'static str,
    /// Execution-model label ("Process PP" etc.).
    pub model: &'static str,
    /// Lock model: "fine" or "big-lock".
    pub lock: &'static str,
    /// Processor count.
    pub cpus: usize,
    /// Simulated wall-clock cycles for the whole run.
    pub elapsed: u64,
    /// Operations completed (IPC messages for echo, syscalls for
    /// flukeperf).
    pub ops: u64,
    /// Cycles every CPU spent, summed (busy + idle).
    pub total_cpu_cycles: u64,
    /// Cycles spent on kernel-lock traffic (fixed costs plus waiting).
    pub lock_cycles: u64,
    /// The waiting part of `lock_cycles` alone: cycles stalled on a lock
    /// another CPU held.
    pub lock_wait_cycles: u64,
    /// Work-stealing events between per-CPU run queues.
    pub steals: u64,
    /// Contended waits on a per-CPU run-queue lock.
    pub runq_waits: u64,
    /// Cross-CPU TLB shootdown IPIs sent.
    pub shootdown_ipis: u64,
}

impl MpRow {
    /// Operations per million simulated cycles of wall-clock time.
    pub fn throughput(&self) -> f64 {
        self.ops as f64 * 1e6 / self.elapsed.max(1) as f64
    }

    /// Share of all CPU cycles burned on kernel-lock traffic (waiting
    /// plus the fixed acquire/release costs).
    pub fn lock_share(&self) -> f64 {
        self.lock_cycles as f64 / self.total_cpu_cycles.max(1) as f64
    }

    /// Share of all CPU cycles spent *stalled* on a lock another CPU
    /// held — the quantity fine-grained locking drives toward zero.
    pub fn lock_wait_share(&self) -> f64 {
        self.lock_wait_cycles as f64 / self.total_cpu_cycles.max(1) as f64
    }
}

fn row_from(
    workload: &'static str,
    model: &'static str,
    lock: &'static str,
    cpus: usize,
    ops: u64,
    k: &Kernel,
) -> MpRow {
    MpRow {
        workload,
        model,
        lock,
        cpus,
        elapsed: k.now(),
        ops,
        total_cpu_cycles: k.total_cpu_cycles(),
        lock_cycles: k.stats.klock_cycles,
        lock_wait_cycles: k.stats.klock_wait_cycles,
        steals: k.stats.sched_steals,
        runq_waits: k.stats.runq_waits,
        shootdown_ipis: k.stats.tlb_shootdown_ipis,
    }
}

/// Run `pairs` independent client/server echo pairs to completion.
fn run_echo_pairs(cfg: Config, pairs: usize, exchanges: u32) -> Kernel {
    let mut k = Kernel::new(cfg);
    let mut mains = Vec::new();
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

        let mut a = Assembler::new("mp-echo-server");
        a.server_wait_receive(h_port, sbuf, LEN);
        for _ in 1..exchanges {
            a.movi(ARG_SBUF, sbuf);
            a.movi(ARG_COUNT, LEN);
            a.movi(ARG_RBUF, sbuf);
            a.movi(ARG_VAL, LEN);
            a.sys(Sys::IpcServerSendWaitReceive);
        }
        a.server_ack_send(sbuf, LEN);
        a.halt();
        mains.push(server.start(&mut k, a.finish(), 8));

        let mut a = Assembler::new("mp-echo-client");
        a.client_rpc(h_ref, cbuf, LEN, crbuf, LEN);
        for _ in 1..exchanges {
            a.movi(ARG_SBUF, cbuf);
            a.movi(ARG_COUNT, LEN);
            a.movi(ARG_RBUF, crbuf);
            a.movi(ARG_VAL, LEN);
            a.sys(Sys::IpcClientSendOverReceive);
        }
        a.halt();
        mains.push(client.start(&mut k, a.finish(), 8));
    }
    assert!(
        run_to_halt(&mut k, &mains, BUDGET),
        "echo pairs hung ({} pairs, {} cpus)",
        pairs,
        k.cfg.num_cpus
    );
    k
}

/// The two execution models the sweep compares (the paper's process and
/// interrupt models, both fully preemptible).
fn models() -> [Config; 2] {
    [Config::process_pp(), Config::interrupt_pp()]
}

/// Run the full sweep: both workloads × both models × fine/big-lock ×
/// every CPU point.
pub fn run_mp_scaling(scale: Scale) -> Vec<MpRow> {
    let ex = exchanges(scale);
    let fp_params = scale.flukeperf();
    let mut rows = Vec::new();
    for base in models() {
        let model = base.label;
        for &cpus in &CPU_POINTS {
            for (lock, big) in [("fine", false), ("big-lock", true)] {
                let cfg = base.clone().with_cpus(cpus).with_big_lock(big);
                let k = run_echo_pairs(cfg, cpus, ex);
                rows.push(row_from(
                    "ipc-echo",
                    model,
                    lock,
                    cpus,
                    k.stats.ipc_messages,
                    &k,
                ));
                let cfg = base.clone().with_cpus(cpus).with_big_lock(big);
                let k = run_keep_kernel(flukeperf::build(cfg, &fp_params), BUDGET);
                rows.push(row_from(
                    "flukeperf",
                    model,
                    lock,
                    cpus,
                    k.stats.syscalls,
                    &k,
                ));
            }
        }
    }
    rows
}

/// Render the sweep as a text table.
pub fn table(rows: &[MpRow]) -> TextTable {
    let mut t = TextTable::new(&[
        "workload",
        "model",
        "lock",
        "CPUs",
        "ops",
        "ops/Mcycle",
        "lock share",
        "wait share",
        "steals",
        "runq waits",
        "shootdown IPIs",
    ]);
    for r in rows {
        t.row(&[
            r.workload.to_string(),
            r.model.to_string(),
            r.lock.to_string(),
            r.cpus.to_string(),
            r.ops.to_string(),
            format!("{:.1}", r.throughput()),
            format!("{:.1}%", 100.0 * r.lock_share()),
            format!("{:.1}%", 100.0 * r.lock_wait_share()),
            r.steals.to_string(),
            r.runq_waits.to_string(),
            r.shootdown_ipis.to_string(),
        ]);
    }
    t
}

/// Build the `BENCH_mp_scaling.json` document.
pub fn to_json(scale: Scale, rows: &[MpRow]) -> Json {
    let mut doc = Json::obj();
    doc.set("bench", Json::Str("mp_scaling".to_string()));
    doc.set("scale", Json::Str(scale.label().to_string()));
    let items = rows
        .iter()
        .map(|r| {
            let mut o = Json::obj();
            o.set("workload", Json::Str(r.workload.to_string()));
            o.set("model", Json::Str(r.model.to_string()));
            o.set("lock", Json::Str(r.lock.to_string()));
            o.set("cpus", Json::from_u64(r.cpus as u64));
            o.set("elapsed_cycles", Json::from_u64(r.elapsed));
            o.set("ops", Json::from_u64(r.ops));
            o.set("ops_per_mcycle", Json::Num(r.throughput()));
            o.set("total_cpu_cycles", Json::from_u64(r.total_cpu_cycles));
            o.set("lock_cycles", Json::from_u64(r.lock_cycles));
            o.set("lock_wait_cycles", Json::from_u64(r.lock_wait_cycles));
            o.set("lock_share", Json::Num(r.lock_share()));
            o.set("lock_wait_share", Json::Num(r.lock_wait_share()));
            o.set("steals", Json::from_u64(r.steals));
            o.set("runq_waits", Json::from_u64(r.runq_waits));
            o.set("shootdown_ipis", Json::from_u64(r.shootdown_ipis));
            o
        })
        .collect();
    doc.set("rows", Json::Arr(items));
    doc
}

/// The CI regression gate. Fails if the fresh fine-grained 16-CPU
/// ipc-echo throughput (process model) fell more than 10% below the
/// committed baseline *at the same scale*, or if fine-grained locking no
/// longer reduces the lock-wait share below the big lock's at 16 CPUs.
pub fn check(baseline: &Json, scale: Scale, fresh: &[MpRow]) -> Vec<String> {
    let gate_model = Config::process_pp().label;
    // The gated rows: ipc-echo, process PP, 16 CPUs, lock `want`.
    let is_gate = |workload: &str, model: &str, lock: &str, cpus: u64, want: &str| {
        workload == "ipc-echo" && model == gate_model && lock == want && cpus == 16
    };
    let find = |want: &str| {
        fresh
            .iter()
            .find(|r| is_gate(r.workload, r.model, r.lock, r.cpus as u64, want))
    };
    let (Some(fine), Some(big)) = (find("fine"), find("big-lock")) else {
        return vec![format!(
            "fresh sweep missing the ipc-echo/{gate_model}/16 rows"
        )];
    };
    let mut errs = Vec::new();
    let base_tp = scale_run(baseline, scale).and_then(|run| {
        run.get("rows")
            .and_then(Json::items)
            .ok_or("baseline JSON has no rows")?
            .iter()
            .find(|r| {
                let s = |k| r.get(k).and_then(Json::as_str).unwrap_or("");
                let cpus = r.get("cpus").and_then(Json::as_u64).unwrap_or(0);
                is_gate(s("workload"), s("model"), s("lock"), cpus, "fine")
            })
            .ok_or("baseline missing the 16-CPU fine ipc-echo row")?
            .get("ops_per_mcycle")
            .and_then(Json::as_f64)
            .ok_or_else(|| "baseline row has no ops_per_mcycle".to_string())
    });
    match base_tp {
        Err(e) => errs.push(e),
        Ok(tp) if fine.throughput() < 0.9 * tp => errs.push(format!(
            "16-CPU fine ipc-echo throughput regressed: {:.1} ops/Mcycle vs baseline {tp:.1}",
            fine.throughput()
        )),
        Ok(_) => {}
    }
    if fine.lock_wait_share() >= big.lock_wait_share() {
        errs.push(format!(
            "fine-grained locking no longer beats the big lock on wait share at 16 CPUs: \
             fine {:.2}% vs big {:.2}%",
            100.0 * fine.lock_wait_share(),
            100.0 * big.lock_wait_share()
        ));
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::scale_runs;

    /// The headline mechanism in miniature: at 4 CPUs the fine-grained
    /// kernel must beat the big lock on echo throughput and carry a far
    /// smaller lock share.
    #[test]
    fn fine_beats_big_lock_on_echo_throughput() {
        let ex = exchanges(Scale::Quick);
        let fine = run_echo_pairs(Config::process_pp().with_cpus(4), 4, ex);
        let big = run_echo_pairs(Config::process_pp().with_cpus(4).with_big_lock(true), 4, ex);
        assert_eq!(fine.stats.ipc_messages, big.stats.ipc_messages);
        assert!(
            fine.now() < big.now(),
            "fine {} !< big {}",
            fine.now(),
            big.now()
        );
        let fine_share = fine.stats.klock_wait_cycles as f64 / fine.total_cpu_cycles() as f64;
        let big_share = big.stats.klock_wait_cycles as f64 / big.total_cpu_cycles() as f64;
        assert!(
            fine_share < big_share,
            "lock-wait share: fine {fine_share} !< big {big_share}"
        );
    }

    #[test]
    fn json_and_check_round_trip() {
        let mk = |lock: &'static str, elapsed: u64, waits: u64| MpRow {
            workload: "ipc-echo",
            model: Config::process_pp().label,
            lock,
            cpus: 16,
            elapsed,
            ops: 1000,
            total_cpu_cycles: elapsed * 16,
            lock_cycles: waits + 10_000,
            lock_wait_cycles: waits,
            steals: 3,
            runq_waits: 1,
            shootdown_ipis: 0,
        };
        let rows = vec![
            mk("fine", 1_000_000, 10_000),
            mk("big-lock", 2_000_000, 900_000),
        ];
        let doc = to_json(Scale::Quick, &rows);
        let parsed = Json::parse(&doc.to_string()).expect("emitted JSON parses");
        assert_eq!(check(&parsed, Scale::Quick, &rows), Vec::<String>::new());

        // The gate refuses to compare across scales.
        assert!(!check(&parsed, Scale::Paper, &rows).is_empty());

        // A 2x throughput regression must trip the gate.
        let slow = vec![
            mk("fine", 2_000_000, 10_000),
            mk("big-lock", 2_000_000, 900_000),
        ];
        assert!(!check(&parsed, Scale::Quick, &slow).is_empty());

        // Fine losing the wait-share comparison must trip the gate.
        let contended = vec![
            mk("fine", 1_000_000, 900_000),
            mk("big-lock", 2_000_000, 900_000),
        ];
        assert!(!check(&parsed, Scale::Quick, &contended).is_empty());

        // The combined multi-run artifact shape resolves by scale.
        let combined = scale_runs("mp_scaling", vec![to_json(Scale::Quick, &rows)]);
        let combined = Json::parse(&combined.to_string()).unwrap();
        assert!(check(&combined, Scale::Quick, &rows).is_empty());
        assert!(!check(&combined, Scale::Paper, &rows).is_empty());
    }
}
