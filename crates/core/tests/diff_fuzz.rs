//! Differential syscall-sequence fuzzer: the refactor-guarding oracle.
//!
//! Each seeded case synthesizes a small multi-threaded program — an IPC
//! client/server pair running a random number of echo exchanges with
//! random message sizes and windows, plus noise threads issuing random
//! sequences of object, mutex, and trivial calls — and runs it under
//! the four comparable Table 4 configurations (process vs interrupt
//! execution model × no/partial preemption). The user-visible outcome
//! must be bit-identical everywhere ([`fluke_core::oracle`]):
//!
//! * the per-thread **user-visible trace projection** (syscall result
//!   codes, `sys_trace` marks, halts);
//! * each thread's final `eax`/`edi` (result code and running
//!   checksum);
//! * an FNV-64 checksum over every memory region the case touches.
//!
//! The synthesized calls are restricted to schedule-independent
//! operations (no trylock, no clock reads, no racy shared memory), so
//! any divergence is a kernel bug — in dispatch, blocking, restart
//! continuations, or the IPC pump — not an artifact of preemption
//! timing. The law test runs 64 seeded cases.

use fluke_api::abi::{ARG_COUNT, ARG_RBUF, ARG_SBUF, ARG_VAL};
use fluke_api::{ObjType, Sys};
use fluke_arch::{Assembler, Reg};
use fluke_core::kfuzz::Rng;
use fluke_core::{Config, Kernel, Outcome};
use fluke_user::proc::{run_to_halt, ChildProc};
use fluke_user::FlukeAsm;

/// One synthesized case, fully determined by its seed.
struct Case {
    /// Message bytes per exchange (multiple of 4).
    len: u32,
    /// Receive-window slack beyond `len` (multiple of 4).
    slack: u32,
    /// Request/reply exchanges over one connection.
    exchanges: u32,
    /// Noise program for the client tail.
    client_noise: Vec<(u8, u32)>,
    /// Noise program for the standalone worker.
    worker_noise: Vec<(u8, u32)>,
    /// Deterministic message payload.
    payload: Vec<u8>,
    /// Byte lengths of the one-way messages in the `ipc_submit` batch
    /// (at most [`fluke_api::abi::PORT_BUF_MSGS`], so the blocking batch
    /// never spills regardless of how the receiver is scheduled).
    submit_lens: Vec<u32>,
}

impl Case {
    fn synth(seed: u64) -> Case {
        let mut rng = Rng(seed);
        let len = 4 * rng.range(1, 256); // 4..1020 bytes
        let slack = 4 * rng.range(0, 64);
        let exchanges = rng.range(1, 4);
        let noise = |rng: &mut Rng, lo: u32, hi: u32| -> Vec<(u8, u32)> {
            let n = rng.range(lo, hi);
            (0..n)
                .map(|_| (rng.range(0, 8) as u8, rng.range(0, 10_000)))
                .collect()
        };
        let client_noise = noise(&mut rng, 0, 10);
        let worker_noise = noise(&mut rng, 4, 24);
        let payload = (0..len).map(|_| rng.next_u64() as u8).collect();
        let batch = rng.range(1, 1 + fluke_api::abi::PORT_BUF_MSGS as u32);
        let submit_lens = (0..batch).map(|_| 4 * rng.range(1, 128)).collect();
        Case {
            len,
            slack,
            exchanges,
            client_noise,
            worker_noise,
            payload,
            submit_lens,
        }
    }
}

/// Emit a noise sequence: every op is schedule-independent, so its
/// result codes and checksum contributions are identical under any
/// execution model or preemption style. `obj_base` is a private strip
/// of the object page; `slot_base` a private memory strip.
fn emit_noise(a: &mut Assembler, ops: &[(u8, u32)], obj_base: u32, slot_base: u32, h_mutex: u32) {
    a.sys_h(Sys::MutexCreate, h_mutex);
    for (i, &(op, val)) in ops.iter().enumerate() {
        let i = i as u32;
        match op % 8 {
            0 => {
                a.movi(Reg::Edx, val);
                a.add(Reg::Edi, Reg::Edx);
            }
            1 => {
                // Store + reload through private memory.
                let slot = slot_base + (i * 4) % 0x400;
                a.movi(Reg::Ebp, slot);
                a.movi(Reg::Edx, val);
                a.store(Reg::Ebp, 0, Reg::Edx);
                a.load(Reg::Ebx, Reg::Ebp, 0);
                a.add(Reg::Edi, Reg::Ebx);
            }
            2 => {
                // Uncontended (private) mutex section.
                a.mutex_lock(h_mutex);
                a.addi(Reg::Edi, 1);
                a.mutex_unlock(h_mutex);
            }
            3 => {
                a.sys(Sys::SysNull);
                a.addi(Reg::Edi, 3);
            }
            4 => {
                a.sys(Sys::SysYield);
                a.addi(Reg::Edi, 5);
            }
            5 => {
                a.compute(val % 700);
                a.addi(Reg::Edi, 7);
            }
            6 => {
                // Object churn: create, rename, destroy.
                let h = obj_base + (i % 8) * 64;
                a.sys_h(Sys::CondCreate, h);
                a.sys_hv(Sys::CondMove, h, h + 32);
                a.sys_h(Sys::CondSignal, h + 32); // no waiter: Success
                a.sys_h(Sys::CondDestroy, h + 32);
                a.addi(Reg::Edi, 11);
            }
            7 => {
                // Trace-mark the running checksum: lands in the
                // user-visible projection of every configuration.
                a.mov(ARG_VAL, Reg::Edi);
                a.sys(Sys::SysTrace);
            }
            _ => unreachable!(),
        }
    }
}

/// Run one synthesized case under `cfg` and project the outcome.
fn run_case(cfg: Config, case: &Case) -> Outcome {
    let label = cfg.label;
    // Flowcheck is armed on every case: the whole fixed-seed suite must
    // stay inside the SysDesc-derived syscall-flow graph (asserted below).
    let mut k = Kernel::new(cfg.with_tracing(1 << 16).with_flowcheck());
    let mut server = ChildProc::with_mem(&mut k, 0x0010_0000, 0x4000);
    let mut client = ChildProc::with_mem(&mut k, 0x0020_0000, 0x4000);
    let worker = ChildProc::with_mem(&mut k, 0x0030_0000, 0x4000);
    let h_port = server.alloc_obj();
    let h_ref = client.alloc_obj();
    let port = k.loader_create(server.space, h_port, ObjType::Port);
    k.loader_ref(client.space, h_ref, port);

    let window = case.len + case.slack;
    let sbuf = server.mem_base + 0x1000;
    let cbuf = client.mem_base + 0x1000;
    let crbuf = client.mem_base + 0x2000;

    // Server: receive, echo the request back `exchanges - 1` times over
    // the same connection, then acknowledge the final exchange away.
    let mut a = Assembler::new("fuzz-server");
    a.server_wait_receive(h_port, sbuf, window);
    for _ in 1..case.exchanges {
        a.movi(ARG_SBUF, sbuf);
        a.movi(ARG_COUNT, case.len);
        a.movi(ARG_RBUF, sbuf);
        a.movi(ARG_VAL, window);
        a.sys(Sys::IpcServerSendWaitReceive);
    }
    a.server_ack_send(sbuf, case.len);
    a.halt();
    let st = server.start(&mut k, a.finish(), 8);

    // Client: one connect-send-receive, then the remaining exchanges,
    // then checksum the final echo and run its noise tail.
    let mut a = Assembler::new("fuzz-client");
    a.xor(Reg::Edi, Reg::Edi);
    a.client_rpc(h_ref, cbuf, case.len, crbuf, case.len);
    for _ in 1..case.exchanges {
        a.movi(ARG_SBUF, cbuf);
        a.movi(ARG_COUNT, case.len);
        a.movi(ARG_RBUF, crbuf);
        a.movi(ARG_VAL, case.len);
        a.sys(Sys::IpcClientSendOverReceive);
    }
    a.checksum(crbuf, case.len / 4, "ck-echo");
    emit_noise(
        &mut a,
        &case.client_noise,
        client.mem_base + 0x800,
        client.mem_base + 0x3000,
        client.mem_base + 0x400,
    );
    a.mov(ARG_VAL, Reg::Edi);
    a.sys(Sys::SysTrace);
    a.halt();
    let ct = client.start(&mut k, a.finish(), 8);

    // Worker: pure noise in a private space, concurrent with the IPC.
    let mut a = Assembler::new("fuzz-worker");
    a.xor(Reg::Edi, Reg::Edi);
    emit_noise(
        &mut a,
        &case.worker_noise,
        worker.mem_base + 0x800,
        worker.mem_base + 0x3000,
        worker.mem_base + 0x400,
    );
    a.mov(ARG_VAL, Reg::Edi);
    a.sys(Sys::SysTrace);
    a.halt();
    let wt = worker.start(&mut k, a.finish(), 8);

    // Batched submission pair in a fourth space: a blocking `ipc_submit`
    // batch of one-way sends (sized under the buffer cap, so it never
    // spills) drained in FIFO order by a plain receiver thread. Both the
    // descriptor ring (result words, lengths) and the received bytes are
    // schedule-independent and feed the checksum.
    let mut submit = ChildProc::with_mem(&mut k, 0x0040_0000, 0x8000);
    let h_bport = submit.alloc_obj();
    k.loader_create(submit.space, h_bport, ObjType::Port);
    let ring = submit.mem_base + 0x1000;
    let s_src = submit.mem_base + 0x2000;
    let s_dst = submit.mem_base + 0x3000;
    let n_ops = case.submit_lens.len() as u32;
    let src_fill: Vec<u8> = (0..0x800u32)
        .map(|i| (i as u8) ^ (case.len as u8))
        .collect();
    k.write_mem(submit.space, s_src, &src_fill);
    let mut ring_img = Vec::new();
    for (i, &l) in case.submit_lens.iter().enumerate() {
        // Overlapping windows into the fill pattern give each message
        // distinct bytes without a per-message source buffer.
        for w in [0u32, h_bport, s_src + (i as u32 * 52) % 0x400, l] {
            ring_img.extend(w.to_le_bytes());
        }
    }
    k.write_mem(submit.space, ring, &ring_img);

    let mut a = Assembler::new("fuzz-submitter");
    a.movi(ARG_SBUF, ring);
    a.movi(ARG_COUNT, n_ops);
    a.movi(ARG_VAL, 0);
    a.sys(Sys::IpcSubmit);
    a.halt();
    let bt = submit.start(&mut k, a.finish(), 8);

    let mut a = Assembler::new("fuzz-drainer");
    let mut dst = s_dst;
    for &l in &case.submit_lens {
        a.movi(Reg::Ebx, h_bport);
        a.movi(ARG_COUNT, l);
        a.movi(ARG_RBUF, dst);
        a.sys(Sys::IpcWaitReceiveOneway);
        dst += l;
    }
    a.halt();
    let dt = submit.start(&mut k, a.finish(), 8);

    k.write_mem(client.space, cbuf, &case.payload);
    assert!(
        run_to_halt(&mut k, &[st, ct, wt, bt, dt], 5_000_000_000),
        "case hung under {label}"
    );

    assert!(
        k.flowcheck.violations.is_empty(),
        "flow-graph violations under {label}: {:?}",
        k.flowcheck.violations
    );

    let drained: u32 = case.submit_lens.iter().sum();
    let regions = [
        (server.space, sbuf, case.len),
        (client.space, crbuf, case.len),
        (client.space, client.mem_base + 0x3000, 0x400),
        (worker.space, worker.mem_base + 0x3000, 0x400),
        (submit.space, ring, n_ops * 16),
        (submit.space, s_dst, drained),
    ];
    Outcome::capture(
        &mut k,
        &[st, ct, wt, bt, dt],
        &[Reg::Eax, Reg::Edi],
        &regions,
        &[],
    )
    .unwrap_or_else(|e| panic!("{label}: {e}"))
}

/// Seeded cases the law test runs.
const CASES: u64 = 64;

/// The fuzzer law: every seeded program produces an identical
/// user-visible outcome under all four configurations.
#[test]
fn seeded_programs_identical_across_models_and_preemption() {
    for seed in 0..CASES {
        let case = Case::synth(0xD1FF_0000 ^ (seed * 0x9e37_79b9));
        let mut base: Option<(String, Outcome)> = None;
        for cfg in Config::comparable() {
            let label = cfg.label;
            let got = run_case(cfg, &case);
            match &base {
                None => base = Some((label.to_string(), got)),
                Some((base_label, want)) => {
                    if let Some(d) = want.first_difference(&got) {
                        panic!(
                            "seed {seed}: {label} diverged from {base_label}: {d} \
                             (len={}, slack={}, exchanges={})",
                            case.len, case.slack, case.exchanges
                        );
                    }
                }
            }
        }
    }
}

/// Determinism of the oracle itself: the same seed re-run under the
/// same configuration reproduces the outcome bit-for-bit, so any
/// divergence the law test reports is replayable from its seed.
#[test]
fn fuzzer_outcomes_are_reproducible() {
    let case = Case::synth(0xD1FF_CAFE);
    let a = run_case(Config::process_pp(), &case);
    let b = run_case(Config::process_pp(), &case);
    assert_eq!(a, b);
}
