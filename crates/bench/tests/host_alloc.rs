//! Host allocations of the 64-CPU Process PP runs, pinned.
//!
//! A counting global allocator keeps per-thread counters, so each test
//! sees only the allocations its own simulation makes. After setup (the
//! kernel booted and every program loaded), the run is held to an exact
//! number of allocator requests (`alloc`, `alloc_zeroed` and `realloc`
//! each count one) and the thread's live heap, setup state included, to
//! at most 4 MiB at its peak. The two workloads are the parts of the
//! hostperf `mp64` benchmark: paper-scale flukeperf and 64 echo pairs.
//! Connection ids are never reused, so a table that kept a slot per
//! connection ever made, or an allocation per disconnect, shows up here
//! first. A pin moves only with a deliberate change to host-side state;
//! say which allocations it adds or removes.
//!
//! Release only: debug builds add checking allocations of their own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fluke_api::abi::{ARG_COUNT, ARG_RBUF, ARG_SBUF, ARG_VAL};
use fluke_api::{ObjType, Sys};
use fluke_arch::cost::Cycles;
use fluke_arch::Assembler;
use fluke_core::{Config, Kernel, ThreadId};
use fluke_user::proc::{run_to_halt, ChildProc};
use fluke_user::FlukeAsm;
use fluke_workloads::common::counted_loop;
use fluke_workloads::{flukeperf, FlukeperfParams};

struct Counting;

#[derive(Clone, Copy)]
struct Counts {
    allocs: u64,
    live: i64,
    peak: i64,
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts { allocs: 0, live: 0, peak: 0 })
    };
}

/// Record `requests` allocator requests that change live bytes by `delta`.
fn note(requests: u64, delta: i64) {
    let _ = COUNTS.try_with(|c| {
        let mut n = c.get();
        n.allocs += requests;
        n.live += delta;
        n.peak = n.peak.max(n.live);
        c.set(n);
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Cap on the thread's live heap at any point of a run.
const LIVE_CAP: i64 = 4 << 20;
/// Simulated-cycle budget for a run.
const BUDGET: Cycles = 20_000_000_000;

/// Run `mains` to completion on `k`, which this thread built. Returns the
/// elapsed simulated cycles, the allocator requests made by the run, and
/// the thread's peak live heap during it.
fn measure(mut k: Kernel, mains: &[ThreadId]) -> (Cycles, u64, i64) {
    let start = k.now();
    let before = COUNTS.with(|c| {
        let mut n = c.get();
        n.peak = n.live;
        c.set(n);
        n
    });
    let halted = run_to_halt(&mut k, mains, BUDGET);
    let after = COUNTS.with(Cell::get);
    assert!(halted, "run did not finish within {BUDGET} cycles");
    (k.now() - start, after.allocs - before.allocs, after.peak)
}

fn check(what: &str, (cycles, allocs, peak): (Cycles, u64, i64), want: (Cycles, u64)) {
    assert_eq!(cycles, want.0, "{what}: simulated cycles");
    assert_eq!(allocs, want.1, "{what}: allocator requests after setup");
    assert!(
        peak <= LIVE_CAP,
        "{what}: live heap peaked at {peak} bytes (cap {LIVE_CAP})"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn paper_flukeperf_on_64_cpus_allocates_a_pinned_count() {
    let cfg = Config::process_pp().with_cpus(64);
    let w = flukeperf::build(cfg, &FlukeperfParams::paper());
    let got = measure(w.kernel, &w.main_threads);
    check("flukeperf", got, (1_507_796_076, 809));
}

/// The hostperf `mp64` echo part: 64 client/server pairs, each in its own
/// two spaces on its own port, 8,192 round trips of a 64-byte payload.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn echo_pairs_on_64_cpus_allocate_a_pinned_count() {
    const PAIRS: u32 = 64;
    const EXCHANGES: u32 = 8_192;
    const LEN: u32 = 64;
    let payload: Vec<u8> = (1..=LEN as u8).collect();
    let mut k = Kernel::new(Config::process_pp().with_cpus(64));
    let mut mains = Vec::new();
    for i in 0..PAIRS {
        let base = 0x0100_0000 + i * 0x0040_0000;
        let mut server = ChildProc::with_mem(&mut k, base, 0x4000);
        let mut client = ChildProc::with_mem(&mut k, base + 0x0020_0000, 0x4000);
        let h_port = server.alloc_obj();
        let h_ref = client.alloc_obj();
        let port = k.loader_create(server.space, h_port, ObjType::Port);
        k.loader_ref(client.space, h_ref, port);
        let sbuf = server.mem_base + 0x1000;
        let cbuf = client.mem_base + 0x1000;
        let crbuf = client.mem_base + 0x2000;
        k.write_mem(client.space, cbuf, &payload);

        let mut a = Assembler::new("echo-server");
        a.server_wait_receive(h_port, sbuf, LEN);
        counted_loop(&mut a, "x", server.mem_base + 0x3000, EXCHANGES - 1, |a| {
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
        counted_loop(&mut a, "x", client.mem_base + 0x3000, EXCHANGES - 1, |a| {
            a.movi(ARG_SBUF, cbuf);
            a.movi(ARG_COUNT, LEN);
            a.movi(ARG_RBUF, crbuf);
            a.movi(ARG_VAL, LEN);
            a.sys(Sys::IpcClientSendOverReceive);
        });
        a.halt();
        mains.push(client.start(&mut k, a.finish(), 8));
    }
    let got = measure(k, &mains);
    check("echo", got, (19_386_976, 521));
}
