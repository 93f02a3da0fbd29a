//! Layer-isolation probes, ported from `crates/bench/benches/simulator.rs`:
//! each builds a small kernel outside the timed region, then times only
//! the run that exercises one layer. Sizes keep every timed run in the
//! tens of milliseconds, and each probe reports the median of several.

use fluke_api::{ObjType, Sys};
use fluke_arch::mem::FlatMem;
use fluke_arch::{Assembler, Cond, CostModel, Cpu, Reg, StepOutcome, Trap, UserRegs};
use fluke_core::{Config, Kernel, ThreadId};
use fluke_user::pager::PagerSetup;
use fluke_user::proc::{run_to_halt, ChildProc};
use fluke_user::FlukeAsm;
use fluke_workloads::common::counted_loop;

use crate::cells::scan_program;
use crate::clock::CpuInstant;
use crate::median;

/// Timed repetitions per probe.
const REPS: usize = 5;

/// Simulated-cycle budget for one probe run.
const BUDGET: u64 = 100_000_000_000;

/// Bytes the direct interpreter probe scans.
const SCAN_BYTES: u32 = 1 << 20;

/// Null system calls per null-syscall probe run.
const NULLS: u32 = 40_000;

/// Round trips per RPC probe run.
const RPCS: u32 = 10_000;

/// Pages demand-faulted per hard-fault probe run.
const FAULT_PAGES: u32 = 1_024;

/// Bytes per bulk transfer, and transfers per bulk probe run.
const BULK: u32 = 256 << 10;
const BULK_SENDS: u32 = 64;

/// Median CPU seconds of `REPS` timed runs of kernels from `build`.
fn time_runs(build: impl Fn() -> (Kernel, Vec<ThreadId>)) -> f64 {
    let mut secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let (mut k, mains) = build();
            let t0 = CpuInstant::now();
            let done = run_to_halt(&mut k, &mains, BUDGET);
            let dt = t0.elapsed_s();
            assert!(done, "probe run did not finish");
            dt
        })
        .collect();
    median(&mut secs)
}

/// Host nanoseconds per simulated kcycle of memtest's scan loop, run
/// directly on `fluke_arch::Cpu::run_user` over a `FlatMem`: no kernel,
/// no TLB, no faults.
pub fn cpu_ns_per_kcycle() -> f64 {
    let prog = scan_program(0, SCAN_BYTES);
    let cost = CostModel::default();
    let mut per: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut mem = FlatMem::new(SCAN_BYTES as usize);
            let mut cpu = Cpu::new(0);
            let mut regs = UserRegs::new();
            let t0 = CpuInstant::now();
            let out = cpu.run_user(&mut regs, &prog, &mut mem, &cost, u64::MAX);
            let dt = t0.elapsed_s();
            assert_eq!(out, StepOutcome::Trapped(Trap::Halt));
            dt * 1e9 / (cpu.now as f64 / 1e3)
        })
        .collect();
    median(&mut per)
}

/// Host nanoseconds per null system call (with its loop) under `cfg`.
pub fn null_syscall_ns(cfg: &Config) -> f64 {
    let s = time_runs(|| {
        let mut k = Kernel::new(cfg.clone());
        let mut p = ChildProc::new(&mut k);
        let _ = p.alloc_obj();
        let mut a = Assembler::new("nulls");
        counted_loop(&mut a, "l", p.mem_base + 0x200, NULLS, |a| {
            a.sys(Sys::SysNull);
        });
        a.halt();
        let t = p.start(&mut k, a.finish(), 8);
        (k, vec![t])
    });
    s * 1e9 / f64::from(NULLS)
}

/// Host nanoseconds per 64-byte echo RPC round trip (Process NP).
pub fn rpc_ns() -> f64 {
    let s = time_runs(|| {
        let mut k = Kernel::new(Config::process_np());
        let mut server = ChildProc::with_mem(&mut k, 0x0010_0000, 0x8000);
        let mut client = ChildProc::with_mem(&mut k, 0x0020_0000, 0x8000);
        let h_port = server.alloc_obj();
        let h_ref = client.alloc_obj();
        let port = k.loader_create(server.space, h_port, ObjType::Port);
        k.loader_ref(client.space, h_ref, port);
        let mut a = Assembler::new("echo");
        a.label("loop");
        a.server_wait_receive(h_port, server.mem_base + 0x1000, 64);
        a.server_ack_send(server.mem_base + 0x1000, 64);
        a.jmp("loop");
        let _server = server.start(&mut k, a.finish(), 9);
        let mut a = Assembler::new("client");
        let (sbuf, rbuf) = (client.mem_base + 0x1000, client.mem_base + 0x1100);
        counted_loop(&mut a, "l", client.mem_base + 0x200, RPCS, |a| {
            a.client_rpc(h_ref, sbuf, 64, rbuf, 64);
        });
        a.halt();
        let t = client.start(&mut k, a.finish(), 8);
        (k, vec![t])
    });
    s * 1e9 / f64::from(RPCS)
}

/// Host microseconds per hard page fault through the user-level pager
/// (Process NP), one store per page.
pub fn hard_fault_us() -> f64 {
    let s = time_runs(|| {
        let len = FAULT_PAGES * fluke_api::abi::PAGE_SIZE;
        let mut k = Kernel::new(Config::process_np());
        let pager = PagerSetup::boot(&mut k, len, 12);
        let child = pager.paged_child(&mut k, 0x0040_0000, len, 0);
        let mut a = Assembler::new("touch");
        a.movi(Reg::Esi, 0x0040_0000);
        a.movi(Reg::Ecx, FAULT_PAGES);
        a.label("l");
        a.storeb(Reg::Esi, 0, Reg::Ebx);
        a.addi(Reg::Esi, fluke_api::abi::PAGE_SIZE);
        a.subi(Reg::Ecx, 1);
        a.cmpi(Reg::Ecx, 0);
        a.jcc(Cond::Ne, "l");
        a.halt();
        let pid = k.register_program(a.finish());
        let t = k.spawn_thread(child, pid, UserRegs::new(), 8);
        (k, vec![t])
    });
    s * 1e6 / f64::from(FAULT_PAGES)
}

/// Host MB/s of 256KB one-way IPC transfers into a sink (Process NP).
pub fn bulk_mb_per_s() -> f64 {
    let s = time_runs(|| {
        let mut k = Kernel::new(Config::process_np());
        let mut server = ChildProc::with_mem(&mut k, 0x0010_0000, 0x8000);
        let mut client = ChildProc::with_mem(&mut k, 0x0030_0000, 0x8000);
        k.grant_pages(server.space, 0x0011_0000, BULK, true);
        k.grant_pages(client.space, 0x0031_0000, BULK, true);
        let h_port = server.alloc_obj();
        let h_ref = client.alloc_obj();
        let port = k.loader_create(server.space, h_port, ObjType::Port);
        k.loader_ref(client.space, h_ref, port);
        let mut a = Assembler::new("rx");
        a.label("loop");
        a.server_wait_receive(h_port, 0x0011_0000, BULK);
        a.sys(Sys::IpcServerDisconnect);
        a.jmp("loop");
        let _server = server.start(&mut k, a.finish(), 9);
        let mut a = Assembler::new("tx");
        counted_loop(&mut a, "l", client.mem_base + 0x200, BULK_SENDS, |a| {
            a.client_connect_send(h_ref, 0x0031_0000, BULK);
            a.client_disconnect();
        });
        a.halt();
        let t = client.start(&mut k, a.finish(), 8);
        (k, vec![t])
    });
    f64::from(BULK) * f64::from(BULK_SENDS) / 1e6 / s
}
