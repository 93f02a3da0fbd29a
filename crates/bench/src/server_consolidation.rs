//! Server consolidation at scale: many concurrent connections multiplexed
//! onto a few frontend spaces, routed over reliable IPC to sharded
//! backend worker pools — Tables 5/6 extended to server scale.
//!
//! Three tiers drive the numbers:
//!
//! * **echo** — one producer/consumer pair moving a fixed message count,
//!   once with plain one-way sends and receives (two kernel entries per
//!   message) and once with `ipc_submit` descriptor rings; the headline
//!   is kernel entries per message, which batching must cut by ≥4x.
//! * **scale** — `conns` connection ports (up to 10240) spread across
//!   frontend spaces, every port a member of its frontend's portset.
//!   Client threads sweep their connections with connect-send-over-receive
//!   RPCs carrying a skewed shard key (five of eight requests hit shard
//!   0); frontends route each request to a backend worker pool with a
//!   one-way send before acknowledging. Cycles per message must stay flat
//!   as the connection count grows — the O(1) port namespace at work.
//! * **pool** — fixed traffic against worker pools of 1, 4 and 16
//!   threads per shard: wake cost must not depend on how many waiters sit
//!   parked on the shard port's wait queue.
//!
//! Connection churn rides along: each client, on the tail eighth of its
//! connection range, creates and destroys a scratch port per request, so
//! the namespace index is mutated while lookups stream through it.
//!
//! Latency is read from `kspan`: p50/p95/p99 of the client RPC class for
//! the server tiers (end-to-end request cycles), of the overall span
//! histogram for the echo tier. kspan is zero-perturbation, so the
//! throughput numbers are the same with or without it.
//!
//! The binary `server_consolidation` prints the table, writes
//! `BENCH_server.json`, and with `--check` gates against the committed
//! baseline (>10% p99 or throughput regression fails, and the echo-tier
//! entry reduction must hold at ≥4x).

use fluke_api::abi::{
    ARG_COUNT, ARG_HANDLE, ARG_RBUF, ARG_SBUF, ARG_VAL, PORT_BUF_MSGS, SUBMIT_OP_RECV,
};
use fluke_api::{ObjType, Sys};
use fluke_arch::{Assembler, Cond, Reg};
use fluke_core::{Config, Histogram, Kernel};
use fluke_json::Json;
use fluke_user::proc::{run_to_halt, ChildProc};
use fluke_user::FlukeAsm;

use crate::gate::scale_run;
use crate::{Scale, TextTable};

/// Request/response payload bytes.
const LEN: u32 = 64;

/// Frontend→backend routing notification bytes.
const FWD_LEN: u32 = 16;

/// Safety budget per run (simulated cycles).
const BUDGET: u64 = 200_000_000_000;

/// Processors for every tier.
const CPUS: usize = 8;

/// Backend shards (worker pools).
const SHARDS: usize = 4;

/// Frontend spaces the connections are consolidated onto.
const FRONTENDS: usize = 2;

/// Server threads per frontend space, all waiting on one portset.
const FE_THREADS: usize = 2;

/// Client threads driving the connections.
const CLIENTS: usize = 4;

/// Hot-key skew: five of eight requests route to shard 0.
const SKEW: [u8; 8] = [0, 0, 0, 0, 0, 1, 2, 3];

/// Connection counts swept by the scale tier.
pub fn scale_points(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Paper => vec![256, 1024, 4096, 10240],
        Scale::Quick => vec![64, 1024],
    }
}

/// Worker-pool sizes swept by the pool tier.
fn pool_points(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Paper => vec![1, 4, 16],
        Scale::Quick => vec![1, 16],
    }
}

/// Rounds over the connection range, keeping total requests near a floor
/// so small-connection runs are not dominated by startup.
fn rounds_for(conns: usize, scale: Scale) -> u32 {
    let floor = match scale {
        Scale::Paper => 2048,
        Scale::Quick => 256,
    };
    (floor / conns).max(1) as u32
}

/// Messages moved by the echo tier (multiple of the 16-deep port buffer).
fn echo_msgs(scale: Scale) -> u64 {
    match scale {
        Scale::Paper => 2048,
        Scale::Quick => 256,
    }
}

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct ServerRow {
    /// Tier label: "echo-plain", "echo-batched", "scale" or "pool".
    pub tier: &'static str,
    /// Live connection ports (1 for the echo tiers).
    pub conns: usize,
    /// Workers per backend shard (0 for the echo tiers).
    pub workers: usize,
    /// Requests (scale/pool) or messages (echo) completed.
    pub msgs: u64,
    /// Simulated wall-clock cycles for the whole run.
    pub elapsed: u64,
    /// System calls dispatched (kernel entries).
    pub syscalls: u64,
    /// Request-latency percentiles, simulated cycles.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Handle-table lookups performed.
    pub port_lookups: u64,
    /// Reference chains chased during lookups.
    pub ref_chases: u64,
    /// Wait-queue wakes.
    pub waitq_wakes: u64,
    /// Wait-queue enqueues.
    pub waitq_enqueues: u64,
    /// `ipc_submit` kernel entries (echo-batched only).
    pub submit_batches: u64,
}

impl ServerRow {
    /// Messages per simulated second (the clock runs at 200 cycles/µs).
    pub fn msgs_per_sec(&self) -> f64 {
        self.msgs as f64 * 200e6 / self.elapsed.max(1) as f64
    }

    /// Simulated cycles of wall-clock time per message.
    pub fn cycles_per_msg(&self) -> f64 {
        self.elapsed as f64 / self.msgs.max(1) as f64
    }

    /// Kernel entries per message — what batching drives down.
    pub fn entries_per_msg(&self) -> f64 {
        self.syscalls as f64 / self.msgs.max(1) as f64
    }

    /// Handle lookups per message (flat when the namespace is O(1)).
    pub fn lookups_per_msg(&self) -> f64 {
        self.port_lookups as f64 / self.msgs.max(1) as f64
    }
}

fn row_from(
    tier: &'static str,
    conns: usize,
    workers: usize,
    msgs: u64,
    hist: &Histogram,
    k: &Kernel,
) -> ServerRow {
    ServerRow {
        tier,
        conns,
        workers,
        msgs,
        elapsed: k.now(),
        syscalls: k.stats.syscalls,
        p50: hist.percentile(50.0),
        p95: hist.percentile(95.0),
        p99: hist.percentile(99.0),
        port_lookups: k.stats.port_lookups,
        ref_chases: k.stats.port_ref_chases,
        waitq_wakes: k.stats.waitq.wakes,
        waitq_enqueues: k.stats.waitq.enqueues,
        submit_batches: k.stats.ipc_submit_batches,
    }
}

/// Base configuration every tier runs under.
fn base_cfg() -> Config {
    Config::process_pp().with_cpus(CPUS).with_kspan()
}

// ---------------------------------------------------------------------------
// Echo tier: plain entries-per-message vs batched descriptor rings.
// ---------------------------------------------------------------------------

/// Run the echo tier and return the finished kernel. `msgs` one-way
/// messages move from a producer thread to a consumer thread in one
/// space, either as individual send/receive system calls or as
/// `ipc_submit` rings of 16.
pub fn run_echo(batched: bool, msgs: u64) -> Kernel {
    assert_eq!(msgs % PORT_BUF_MSGS as u64, 0, "msgs must fill whole rings");
    let mut k = Kernel::new(base_cfg());
    let mut p = ChildProc::with_mem(&mut k, 0x0100_0000, 0x0002_0000);
    let h_port = p.alloc_obj();
    k.loader_create(p.space, h_port, ObjType::Port);
    let sring = p.mem_base + 0x1000;
    let rring = p.mem_base + 0x1800;
    let sbufs = p.mem_base + 0x2000;
    let rbufs = p.mem_base + 0x4000;
    for i in 0..PORT_BUF_MSGS as u32 {
        k.write_mem(p.space, sbufs + i * LEN, &vec![0x5a; LEN as usize]);
    }

    let (producer, consumer) = if batched {
        // Pre-written rings: 16 send descriptors, 16 receive descriptors.
        // Result words preserve the low opflag bits, so the rings are
        // reused by every batch without guest rewrites.
        let mut simg = Vec::new();
        let mut rimg = Vec::new();
        for i in 0..PORT_BUF_MSGS as u32 {
            for w in [0u32, h_port, sbufs + i * LEN, LEN] {
                simg.extend(w.to_le_bytes());
            }
            for w in [SUBMIT_OP_RECV, h_port, rbufs + i * LEN, LEN] {
                rimg.extend(w.to_le_bytes());
            }
        }
        k.write_mem(p.space, sring, &simg);
        k.write_mem(p.space, rring, &rimg);
        let batches = (msgs / PORT_BUF_MSGS as u64) as u32;
        (
            submit_loop("echo-producer", sring, batches),
            submit_loop("echo-consumer", rring, batches),
        )
    } else {
        let mut a = Assembler::new("echo-producer");
        a.movi(Reg::Ebp, msgs as u32);
        a.label("send");
        a.movi(ARG_HANDLE, h_port);
        a.movi(ARG_SBUF, sbufs);
        a.movi(ARG_COUNT, LEN);
        a.sys(Sys::IpcSendOneway);
        a.subi(Reg::Ebp, 1);
        a.cmpi(Reg::Ebp, 0);
        a.jcc(Cond::Ne, "send");
        a.halt();
        let mut b = Assembler::new("echo-consumer");
        b.movi(Reg::Ebp, msgs as u32);
        b.label("recv");
        b.movi(ARG_HANDLE, h_port);
        b.movi(ARG_RBUF, rbufs);
        b.movi(ARG_COUNT, LEN);
        b.sys(Sys::IpcWaitReceiveOneway);
        b.subi(Reg::Ebp, 1);
        b.cmpi(Reg::Ebp, 0);
        b.jcc(Cond::Ne, "recv");
        b.halt();
        (a, b)
    };

    let pt = p.start(&mut k, producer.finish(), 8);
    let ct = p.start(&mut k, consumer.finish(), 8);
    assert!(
        run_to_halt(&mut k, &[pt, ct], BUDGET),
        "echo tier hung (batched={batched})"
    );
    // Delivery sanity only: the oneway rendezvous path historically
    // counts a message at both the pump and its caller, the buffered
    // path once at delivery, so the exact counter value differs by path.
    assert!(k.stats.ipc_messages >= msgs, "echo tier lost messages");
    k
}

/// A batch loop over one pre-written 16-descriptor ring: submit, and when
/// a descriptor spilled to its plain equivalent (the syscall returned
/// with `edx < 16`, the spilled slot completed through the plain path),
/// advance the cursor past it and resubmit the rest.
pub(crate) fn submit_loop(name: &str, ring: u32, batches: u32) -> Assembler {
    let n = PORT_BUF_MSGS as u32;
    let mut a = Assembler::new(name);
    a.movi(Reg::Esp, batches);
    a.label("batch");
    a.movi(ARG_VAL, 0);
    a.label("again");
    a.movi(ARG_SBUF, ring);
    a.movi(ARG_COUNT, n);
    a.sys(Sys::IpcSubmit);
    a.cmpi(ARG_VAL, n);
    a.jcc(Cond::Eq, "done");
    a.addi(ARG_VAL, 1);
    a.cmpi(ARG_VAL, n);
    a.jcc(Cond::Ne, "again");
    a.label("done");
    a.subi(Reg::Esp, 1);
    a.cmpi(Reg::Esp, 0);
    a.jcc(Cond::Ne, "batch");
    a.halt();
    a
}

// ---------------------------------------------------------------------------
// Scale and pool tiers: consolidated frontends over sharded worker pools.
// ---------------------------------------------------------------------------

/// Run the consolidated-server workload: `conns` connection ports across
/// [`FRONTENDS`] frontend spaces, `workers` threads per backend shard,
/// every client sweeping its connection range `rounds` times. Returns
/// the finished kernel and the total request count.
pub fn run_server(conns: usize, workers: usize, rounds: u32) -> (Kernel, u64) {
    assert_eq!(conns % (FRONTENDS * CLIENTS), 0, "conns must split evenly");
    let mut k = Kernel::new(base_cfg());

    // Backend: one space per shard, `workers` threads parked on the
    // shard port in a receive loop. The pool never drains the port dry
    // and never halts; it simply absorbs routed notifications. Handles
    // are user addresses of 32-byte object slots in each space's memory.
    let mut shard_ports = Vec::new();
    for s in 0..SHARDS {
        let space = ChildProc::with_mem(&mut k, 0x6000_0000 + (s as u32) * 0x0100_0000, 0x4000);
        let h_port = space.mem_base + 0x3000;
        let port = k.loader_create(space.space, h_port, ObjType::Port);
        shard_ports.push(port);
        for w in 0..workers {
            let wbuf = space.mem_base + 0x1000 + (w as u32) * 0x100;
            let mut a = Assembler::new("shard-worker");
            a.label("drain");
            a.movi(ARG_HANDLE, h_port);
            a.movi(ARG_RBUF, wbuf);
            a.movi(ARG_COUNT, FWD_LEN);
            a.sys(Sys::IpcWaitReceiveOneway);
            a.jmp("drain");
            space.start(&mut k, a.finish(), 10);
        }
    }

    // Frontends: each space owns a portset, its share of the connection
    // ports (all portset members, 32-byte slots from +0x10000), and
    // references to every shard port (slots from +0x2020). Each server
    // thread waits on the portset, routes the request's key byte to its
    // shard, then acknowledges and waits for the next request in a
    // single entrypoint.
    let cpf = conns / FRONTENDS;
    let mut conn_ports = Vec::new();
    for f in 0..FRONTENDS {
        let space = ChildProc::with_mem(
            &mut k,
            0x4000_0000 + (f as u32) * 0x0100_0000,
            0x1_0000 + 32 * cpf.next_power_of_two().max(128) as u32,
        );
        let h_pset = space.mem_base + 0x2000;
        let h_shard0 = space.mem_base + 0x2020;
        let pset = k.loader_create(space.space, h_pset, ObjType::Portset);
        for (s, &port) in shard_ports.iter().enumerate() {
            k.loader_ref(space.space, h_shard0 + 32 * s as u32, port);
        }
        for i in 0..cpf {
            let h = space.mem_base + 0x1_0000 + 32 * i as u32;
            let port = k.loader_create(space.space, h, ObjType::Port);
            k.loader_join_pset(port, pset);
            conn_ports.push(port);
        }
        for t in 0..FE_THREADS {
            let fbuf = space.mem_base + 0x1000 + (t as u32) * 0x200;
            let mut a = Assembler::new("frontend");
            a.server_wait_receive(h_pset, fbuf, LEN);
            a.label("serve");
            a.movi(Reg::Ebp, fbuf);
            a.loadb(Reg::Eax, Reg::Ebp, 0);
            a.mov(ARG_HANDLE, Reg::Eax);
            a.emit(fluke_arch::Instr::ShlI(ARG_HANDLE, 5));
            a.addi(ARG_HANDLE, h_shard0);
            a.movi(ARG_SBUF, fbuf);
            a.movi(ARG_COUNT, FWD_LEN);
            a.sys(Sys::IpcSendOneway);
            a.server_ack_send_wait_receive(h_pset, fbuf, LEN, fbuf, LEN);
            a.jmp("serve");
            space.start(&mut k, a.finish(), 9);
        }
    }

    // Clients: each thread owns references to its connection slice
    // (32-byte slots from +0x10000) and a host-written key table (one
    // skewed shard byte per connection). Per request: stamp the key into
    // the send buffer, RPC the connection, and on the tail eighth of the
    // range churn a scratch port through create/destroy.
    let cpc = conns / CLIENTS;
    let churn_start = (cpc - cpc / 8) as u32;
    let mut mains = Vec::new();
    for c in 0..CLIENTS {
        let space = ChildProc::with_mem(
            &mut k,
            0x1000_0000 + (c as u32) * 0x0100_0000,
            0x1_0000 + 32 * cpc.next_power_of_two().max(128) as u32,
        );
        let keytab = space.mem_base + 0x1000;
        let sbuf = space.mem_base + 0x3000;
        let rbuf = space.mem_base + 0x3800;
        let h_scratch = space.mem_base + 0x4000;
        let h_ref0 = space.mem_base + 0x1_0000;
        let keys: Vec<u8> = (0..cpc).map(|j| SKEW[(c * cpc + j) % SKEW.len()]).collect();
        k.write_mem(space.space, keytab, &keys);
        k.write_mem(space.space, sbuf, &vec![0x42; LEN as usize]);
        for j in 0..cpc {
            k.loader_ref(space.space, h_ref0 + 32 * j as u32, conn_ports[c * cpc + j]);
        }

        let mut a = Assembler::new("client");
        a.movi(Reg::Esp, rounds);
        a.label("round");
        a.movi(Reg::Ebp, 0);
        a.label("conn");
        a.mov(ARG_VAL, Reg::Ebp);
        a.addi(ARG_VAL, keytab);
        a.loadb(Reg::Eax, ARG_VAL, 0);
        a.movi(ARG_SBUF, sbuf);
        a.storeb(ARG_SBUF, 0, Reg::Eax);
        a.mov(ARG_HANDLE, Reg::Ebp);
        a.emit(fluke_arch::Instr::ShlI(ARG_HANDLE, 5));
        a.addi(ARG_HANDLE, h_ref0);
        a.movi(ARG_COUNT, LEN);
        a.movi(ARG_RBUF, rbuf);
        a.movi(ARG_VAL, LEN);
        a.sys(Sys::IpcClientConnectSendOverReceive);
        a.cmpi(Reg::Ebp, churn_start);
        a.jcc(Cond::Lt, "next");
        a.sys_h(Sys::PortCreate, h_scratch);
        a.sys_h(Sys::PortDestroy, h_scratch);
        a.label("next");
        a.addi(Reg::Ebp, 1);
        a.cmpi(Reg::Ebp, cpc as u32);
        a.jcc(Cond::Ne, "conn");
        a.subi(Reg::Esp, 1);
        a.cmpi(Reg::Esp, 0);
        a.jcc(Cond::Ne, "round");
        a.halt();
        mains.push(space.start(&mut k, a.finish(), 8));
    }

    assert!(
        run_to_halt(&mut k, &mains, BUDGET),
        "server tier hung ({conns} conns, {workers} workers/shard)"
    );
    let msgs = (conns as u64) * (rounds as u64);
    (k, msgs)
}

/// The client-RPC latency histogram of a finished server run.
fn rpc_hist(k: &Kernel) -> Histogram {
    k.kspan
        .class_histograms()
        .get(Sys::IpcClientConnectSendOverReceive.name())
        .cloned()
        .unwrap_or_default()
}

/// Run the full sweep: the two echo rows, the connection-scale sweep and
/// the worker-pool sweep.
pub fn run_server_consolidation(scale: Scale) -> Vec<ServerRow> {
    let mut rows = Vec::new();
    let msgs = echo_msgs(scale);
    for (tier, batched) in [("echo-plain", false), ("echo-batched", true)] {
        let k = run_echo(batched, msgs);
        rows.push(row_from(tier, 1, 0, msgs, k.kspan.e2e_histogram(), &k));
    }
    for conns in scale_points(scale) {
        let (k, msgs) = run_server(conns, 4, rounds_for(conns, scale));
        rows.push(row_from("scale", conns, 4, msgs, &rpc_hist(&k), &k));
    }
    let pool_conns = match scale {
        Scale::Paper => 512,
        Scale::Quick => 128,
    };
    for workers in pool_points(scale) {
        let (k, msgs) = run_server(pool_conns, workers, rounds_for(pool_conns, scale));
        rows.push(row_from(
            "pool",
            pool_conns,
            workers,
            msgs,
            &rpc_hist(&k),
            &k,
        ));
    }
    rows
}

/// Render the sweep as a text table.
pub fn table(rows: &[ServerRow]) -> TextTable {
    let mut t = TextTable::new(&[
        "tier",
        "conns",
        "workers",
        "msgs",
        "msgs/sec",
        "cycles/msg",
        "entries/msg",
        "p50",
        "p95",
        "p99",
        "lookups/msg",
        "wakes",
    ]);
    for r in rows {
        t.row(&[
            r.tier.to_string(),
            r.conns.to_string(),
            r.workers.to_string(),
            r.msgs.to_string(),
            format!("{:.0}", r.msgs_per_sec()),
            format!("{:.0}", r.cycles_per_msg()),
            format!("{:.2}", r.entries_per_msg()),
            r.p50.to_string(),
            r.p95.to_string(),
            r.p99.to_string(),
            format!("{:.1}", r.lookups_per_msg()),
            r.waitq_wakes.to_string(),
        ]);
    }
    t
}

/// Ratio of the worst to the best cycles-per-message among `rows`.
fn spread(rows: &[&ServerRow]) -> f64 {
    let mut lo = f64::MAX;
    let mut hi: f64 = 0.0;
    for r in rows {
        lo = lo.min(r.cycles_per_msg());
        hi = hi.max(r.cycles_per_msg());
    }
    if rows.is_empty() {
        1.0
    } else {
        hi / lo
    }
}

/// Kernel-entry reduction factor of the echo tier (plain over batched).
pub fn echo_entry_reduction(rows: &[ServerRow]) -> f64 {
    let per = |tier| {
        rows.iter()
            .find(|r| r.tier == tier)
            .map(|r| r.entries_per_msg())
            .unwrap_or(f64::NAN)
    };
    per("echo-plain") / per("echo-batched")
}

/// Build the `BENCH_server.json` document for one scale.
pub fn to_json(scale: Scale, rows: &[ServerRow]) -> Json {
    let mut doc = Json::obj();
    doc.set("bench", Json::Str("server_consolidation".to_string()));
    doc.set("scale", Json::Str(scale.label().to_string()));
    let items = rows
        .iter()
        .map(|r| {
            let mut o = Json::obj();
            o.set("tier", Json::Str(r.tier.to_string()));
            o.set("conns", Json::from_u64(r.conns as u64));
            o.set("workers", Json::from_u64(r.workers as u64));
            o.set("msgs", Json::from_u64(r.msgs));
            o.set("elapsed_cycles", Json::from_u64(r.elapsed));
            o.set("syscalls", Json::from_u64(r.syscalls));
            o.set("msgs_per_sec", Json::Num(r.msgs_per_sec()));
            o.set("cycles_per_msg", Json::Num(r.cycles_per_msg()));
            o.set("entries_per_msg", Json::Num(r.entries_per_msg()));
            o.set("p50", Json::from_u64(r.p50));
            o.set("p95", Json::from_u64(r.p95));
            o.set("p99", Json::from_u64(r.p99));
            o.set("port_lookups", Json::from_u64(r.port_lookups));
            o.set("ref_chases", Json::from_u64(r.ref_chases));
            o.set("waitq_wakes", Json::from_u64(r.waitq_wakes));
            o.set("waitq_enqueues", Json::from_u64(r.waitq_enqueues));
            o.set("submit_batches", Json::from_u64(r.submit_batches));
            o
        })
        .collect();
    doc.set("rows", Json::Arr(items));

    let scale_rows: Vec<&ServerRow> = rows.iter().filter(|r| r.tier == "scale").collect();
    let pool_rows: Vec<&ServerRow> = rows.iter().filter(|r| r.tier == "pool").collect();
    let mut summary = Json::obj();
    summary.set(
        "echo_entry_reduction",
        Json::Num(echo_entry_reduction(rows)),
    );
    summary.set(
        "scale_cycles_per_msg_spread",
        Json::Num(spread(&scale_rows)),
    );
    summary.set("pool_cycles_per_msg_spread", Json::Num(spread(&pool_rows)));
    summary.set(
        "max_conns",
        Json::from_u64(scale_rows.iter().map(|r| r.conns as u64).max().unwrap_or(0)),
    );
    doc.set("summary", summary);
    doc
}

/// The CI regression gate. Every fresh row is matched to the committed
/// same-scale baseline row by (tier, conns, workers); a p99 more than 10%
/// above the baseline or a throughput more than 10% below it fails. The
/// echo-tier entry reduction must also hold at ≥4x in the fresh run,
/// independent of the baseline.
pub fn check(baseline: &Json, scale: Scale, fresh: &[ServerRow]) -> Vec<String> {
    let mut errs = Vec::new();
    let rows = scale_run(baseline, scale).and_then(|run| {
        run.get("rows")
            .and_then(Json::items)
            .ok_or_else(|| "baseline JSON has no rows".to_string())
    });
    match rows {
        Err(e) => errs.push(e),
        Ok(rows) => {
            for f in fresh {
                let name = format!("{}/{}c/{}w", f.tier, f.conns, f.workers);
                let Some(base) = rows.iter().find(|r| {
                    r.get("tier").and_then(Json::as_str) == Some(f.tier)
                        && r.get("conns").and_then(Json::as_u64) == Some(f.conns as u64)
                        && r.get("workers").and_then(Json::as_u64) == Some(f.workers as u64)
                }) else {
                    errs.push(format!("baseline missing row {name}"));
                    continue;
                };
                let base_p99 = base.get("p99").and_then(Json::as_u64).unwrap_or(0);
                if base_p99 > 0 && f.p99 as f64 > 1.1 * base_p99 as f64 {
                    errs.push(format!(
                        "{name}: p99 regressed >10%: {} cycles vs baseline {base_p99}",
                        f.p99
                    ));
                }
                match base.get("msgs_per_sec").and_then(Json::as_f64) {
                    None => errs.push(format!("baseline row {name} has no msgs_per_sec")),
                    Some(tp) if f.msgs_per_sec() < 0.9 * tp => errs.push(format!(
                        "{name}: throughput regressed >10%: {:.0} msgs/sec vs baseline {tp:.0}",
                        f.msgs_per_sec()
                    )),
                    Some(_) => {}
                }
            }
        }
    }

    let reduction = echo_entry_reduction(fresh);
    if reduction.is_nan() || reduction < 4.0 {
        errs.push(format!(
            "echo-tier kernel-entry reduction fell below 4x: {reduction:.2}"
        ));
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::scale_runs;

    /// The batching headline in miniature: descriptor rings must cut
    /// kernel entries per message by at least 4x against plain one-way
    /// send/receive, moving the same messages.
    #[test]
    fn batching_cuts_kernel_entries_fourfold() {
        let msgs = 256;
        let plain = run_echo(false, msgs);
        let batched = run_echo(true, msgs);
        assert!(batched.stats.ipc_submit_batches > 0, "no batches ran");
        let plain_epm = plain.stats.syscalls as f64 / msgs as f64;
        let batched_epm = batched.stats.syscalls as f64 / msgs as f64;
        assert!(
            plain_epm >= 4.0 * batched_epm,
            "entries/msg: plain {plain_epm:.2} !>= 4x batched {batched_epm:.2}"
        );
    }

    /// Consolidation scales flat: growing the connection count 8x moves
    /// cycles per message by well under the gate's tolerance, and the
    /// latency histogram covers every request.
    #[test]
    fn consolidation_scales_flat_with_connection_count() {
        let mut rows = Vec::new();
        for conns in [64, 512] {
            let rounds = rounds_for(conns, Scale::Quick);
            let (k, msgs) = run_server(conns, 4, rounds);
            let hist = rpc_hist(&k);
            assert_eq!(hist.count(), msgs, "{conns} conns: histogram != requests");
            assert!(k.stats.waitq.wakes > 0, "{conns} conns: no waitq wakes");
            rows.push(row_from("scale", conns, 4, msgs, &hist, &k));
        }
        assert!(rows.iter().all(|r| r.p99 > 0));
        let refs: Vec<&ServerRow> = rows.iter().collect();
        let s = spread(&refs);
        assert!(
            s < 1.35,
            "cycles/msg spread {s:.2} across connection counts"
        );
    }

    /// Wake cost does not depend on how many workers sit parked on the
    /// shard port: a 16x larger pool moves cycles per message only
    /// marginally.
    #[test]
    fn wake_cost_independent_of_pool_size() {
        let mut rows = Vec::new();
        for workers in [1, 16] {
            let (k, msgs) = run_server(128, workers, 2);
            rows.push(row_from("pool", 128, workers, msgs, &rpc_hist(&k), &k));
        }
        let refs: Vec<&ServerRow> = rows.iter().collect();
        let s = spread(&refs);
        assert!(s < 1.35, "cycles/msg spread {s:.2} across pool sizes");
    }

    #[test]
    fn json_and_check_round_trip() {
        let mk =
            |tier: &'static str, conns: usize, workers: usize, elapsed: u64, sys: u64| ServerRow {
                tier,
                conns,
                workers,
                msgs: 1000,
                elapsed,
                syscalls: sys,
                p50: 2000,
                p95: 4000,
                p99: 6000,
                port_lookups: 3000,
                ref_chases: 1000,
                waitq_wakes: 2000,
                waitq_enqueues: 2000,
                submit_batches: 0,
            };
        let rows = vec![
            mk("echo-plain", 1, 0, 4_000_000, 2000),
            mk("echo-batched", 1, 0, 3_000_000, 200),
            mk("scale", 1024, 4, 5_000_000, 5000),
        ];
        let doc = to_json(Scale::Quick, &rows);
        let parsed = Json::parse(&doc.to_string()).expect("emitted JSON parses");
        assert_eq!(check(&parsed, Scale::Quick, &rows), Vec::<String>::new());

        // The gate refuses to compare across scales.
        assert!(!check(&parsed, Scale::Paper, &rows).is_empty());

        // >10% p99 growth trips the gate.
        let mut slow = rows.clone();
        slow[2].p99 = 7000;
        assert!(!check(&parsed, Scale::Quick, &slow).is_empty());

        // >10% throughput loss trips the gate.
        let mut starved = rows.clone();
        starved[2].elapsed = 6_000_000;
        assert!(!check(&parsed, Scale::Quick, &starved).is_empty());

        // Losing the 4x echo entry reduction trips the gate.
        let mut unbatched = rows.clone();
        unbatched[1].syscalls = 1500;
        assert!(!check(&parsed, Scale::Quick, &unbatched).is_empty());

        // The combined multi-run artifact shape resolves by scale.
        let combined = scale_runs("server_consolidation", vec![to_json(Scale::Quick, &rows)]);
        let combined = Json::parse(&combined.to_string()).unwrap();
        assert!(check(&combined, Scale::Quick, &rows).is_empty());
        assert!(!check(&combined, Scale::Paper, &rows).is_empty());
    }
}
