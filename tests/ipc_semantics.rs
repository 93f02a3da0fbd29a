//! Integration tests for the IPC engine: connections, data transfer,
//! direction reversal, windows, one-way messages, and alerts.

use fluke_api::abi::{ARG_COUNT, ARG_HANDLE, ARG_RBUF, ARG_SBUF};
use fluke_api::{ErrorCode, ObjType, Sys};
use fluke_arch::{Assembler, Reg};
use fluke_core::{Config, Kernel};
use fluke_user::proc::{run_to_halt, ChildProc};
use fluke_user::FlukeAsm;

/// Shared setup: a server space with a port/pset and a client space, the
/// client holding a Reference to the port.
struct Rig {
    k: Kernel,
    server: ChildProc,
    client: ChildProc,
    h_port: u32,
    h_pset: u32,
    h_ref: u32,
}

fn rig(cfg: Config) -> Rig {
    let mut k = Kernel::new(cfg);
    let mut server = ChildProc::with_mem(&mut k, 0x0010_0000, 0x8000);
    let mut client = ChildProc::with_mem(&mut k, 0x0020_0000, 0x8000);
    let h_port = server.alloc_obj();
    let h_pset = server.alloc_obj();
    let h_ref = client.alloc_obj();
    let port = k.loader_create(server.space, h_port, ObjType::Port);
    let pset = k.loader_create(server.space, h_pset, ObjType::Portset);
    k.loader_join_pset(port, pset);
    k.loader_ref(client.space, h_ref, port);
    Rig {
        k,
        server,
        client,
        h_port,
        h_pset,
        h_ref,
    }
}

/// Client RPC round trip: request bytes reach the server, the reply comes
/// back, both through `connect_send_over_receive` / `ack_send`.
#[test]
fn rpc_round_trip_moves_bytes_both_ways() {
    let mut r = rig(Config::process_np());
    let sreq = r.server.mem_base + 0x1000; // server's receive buffer
    let creq = r.client.mem_base + 0x1000; // client's request
    let crep = r.client.mem_base + 0x2000; // client's reply buffer

    // Server: wait for a request, add 1 to each of 8 bytes, reply.
    let mut a = Assembler::new("server");
    a.server_wait_receive(r.h_pset, sreq, 64);
    for i in 0..8 {
        a.movi(Reg::Ebp, sreq + i);
        a.loadb(Reg::Edx, Reg::Ebp, 0);
        a.addi(Reg::Edx, 1);
        a.storeb(Reg::Ebp, 0, Reg::Edx);
    }
    a.server_ack_send(sreq, 8);
    a.halt();
    let st = r.server.start(&mut r.k, a.finish(), 8);

    // Client: send 8 bytes, receive 8 back.
    let mut a = Assembler::new("client");
    a.client_rpc(r.h_ref, creq, 8, crep, 64);
    a.halt();
    let ct = r.client.start(&mut r.k, a.finish(), 8);

    r.k.write_mem(r.client.space, creq, &[10, 20, 30, 40, 50, 60, 70, 80]);
    assert!(run_to_halt(&mut r.k, &[st, ct], 50_000_000));
    assert_eq!(
        r.k.read_mem(r.server.space, sreq, 8),
        vec![11, 21, 31, 41, 51, 61, 71, 81]
    );
    assert_eq!(
        r.k.read_mem(r.client.space, crep, 8),
        vec![11, 21, 31, 41, 51, 61, 71, 81]
    );
    // Client got Success and its receive window shrank by 8.
    assert_eq!(r.k.thread_regs(ct).get(Reg::Eax), ErrorCode::Success as u32);
    assert_eq!(r.k.thread_regs(ct).get(ARG_COUNT), 64 - 8);
    assert!(r.k.stats.ipc_messages >= 2);
}

/// The same RPC runs identically under every Table 4 configuration.
#[test]
fn rpc_identical_across_all_five_configurations() {
    let mut outputs = Vec::new();
    for cfg in Config::all_five() {
        let label = cfg.label;
        let mut r = rig(cfg);
        let sreq = r.server.mem_base + 0x1000;
        let creq = r.client.mem_base + 0x1000;
        let crep = r.client.mem_base + 0x2000;
        let mut a = Assembler::new("server");
        a.server_wait_receive(r.h_pset, sreq, 16);
        a.server_ack_send(sreq, 16);
        a.halt();
        let st = r.server.start(&mut r.k, a.finish(), 8);
        let mut a = Assembler::new("client");
        a.client_rpc(r.h_ref, creq, 16, crep, 16);
        a.halt();
        let ct = r.client.start(&mut r.k, a.finish(), 8);
        let payload: Vec<u8> = (1..=16).collect();
        r.k.write_mem(r.client.space, creq, &payload);
        assert!(
            run_to_halt(&mut r.k, &[st, ct], 50_000_000),
            "config {label} hung"
        );
        outputs.push((label, r.k.read_mem(r.client.space, crep, 16)));
    }
    let expected: Vec<u8> = (1..=16).collect();
    for (label, out) in outputs {
        assert_eq!(out, expected, "config {label} corrupted the transfer");
    }
}

/// A large transfer (multiple pages, multiple preemption chunks) arrives
/// intact, exercising the chunked pump.
#[test]
fn large_transfer_is_byte_exact() {
    let mut k = Kernel::new(Config::process_pp());
    let mut server = ChildProc::with_mem(&mut k, 0x0010_0000, 0x2_0000);
    let mut client = ChildProc::with_mem(&mut k, 0x0030_0000, 0x2_0000);
    let h_port = server.alloc_obj();
    let h_ref = client.alloc_obj();
    let port = k.loader_create(server.space, h_port, ObjType::Port);
    k.loader_ref(client.space, h_ref, port);

    const N: u32 = 40_000; // ~10 pages, crosses several 8K preempt chunks
    let sbuf = server.mem_base + 0x10_000;
    let cbuf = client.mem_base + 0x10_000;

    let mut a = Assembler::new("server");
    a.movi(ARG_HANDLE, h_port);
    a.movi(ARG_RBUF, sbuf);
    a.movi(ARG_COUNT, N);
    a.sys(Sys::IpcServerWaitReceive);
    a.halt();
    let st = server.start(&mut k, a.finish(), 8);

    let mut a = Assembler::new("client");
    a.client_connect_send(h_ref, cbuf, N);
    a.halt();
    let ct = client.start(&mut k, a.finish(), 8);

    let payload: Vec<u8> = (0..N).map(|i| (i * 7 + 3) as u8).collect();
    k.write_mem(client.space, cbuf, &payload);
    assert!(run_to_halt(&mut k, &[st, ct], 200_000_000));
    assert_eq!(k.read_mem(server.space, sbuf, N), payload);
    assert_eq!(k.thread_regs(ct).get(ARG_COUNT), 0, "client sent all bytes");
    // The client's send pointer advanced in place across the transfer —
    // the string-instruction discipline.
    assert_eq!(k.thread_regs(ct).get(ARG_SBUF), cbuf + N);
}

/// A receive window smaller than the message yields Truncated, and
/// `receive_more` picks up the rest — the multi-stage restart entrypoint
/// used as a plain continuation.
#[test]
fn window_exhaustion_truncated_then_receive_more() {
    let mut r = rig(Config::process_np());
    let sbuf = r.server.mem_base + 0x1000;
    let cbuf = r.client.mem_base + 0x1000;

    // Server: receive 16 into a 10-byte window, expect Truncated, then
    // receive the remaining 6.
    let mut a = Assembler::new("server");
    a.server_wait_receive(r.h_pset, sbuf, 10);
    a.movi(Reg::Ebp, r.server.mem_base + 0x4000);
    a.store(Reg::Ebp, 0, Reg::Eax); // record first result code
    a.movi(ARG_RBUF, sbuf + 10);
    a.movi(ARG_COUNT, 6);
    a.sys(Sys::IpcServerReceiveMore);
    a.store(Reg::Ebp, 4, Reg::Eax); // record second result code
    a.halt();
    let st = r.server.start(&mut r.k, a.finish(), 8);

    let mut a = Assembler::new("client");
    a.client_connect_send(r.h_ref, cbuf, 16);
    a.halt();
    let ct = r.client.start(&mut r.k, a.finish(), 8);

    let payload: Vec<u8> = (100..116).collect();
    r.k.write_mem(r.client.space, cbuf, &payload);
    assert!(run_to_halt(&mut r.k, &[st, ct], 50_000_000));
    assert_eq!(r.k.read_mem(r.server.space, sbuf, 16), payload);
    let rec = r.server.mem_base + 0x4000;
    assert_eq!(
        r.k.read_mem_u32(r.server.space, rec),
        ErrorCode::Truncated as u32
    );
    assert_eq!(
        r.k.read_mem_u32(r.server.space, rec + 4),
        ErrorCode::Success as u32
    );
}

/// One-way messages rendezvous on a port without a connection.
#[test]
fn oneway_send_receive() {
    let mut r = rig(Config::interrupt_np());
    let sbuf = r.server.mem_base + 0x1000;
    let cbuf = r.client.mem_base + 0x1000;

    let mut a = Assembler::new("rx");
    a.movi(ARG_HANDLE, r.h_port);
    a.movi(ARG_RBUF, sbuf);
    a.movi(ARG_COUNT, 32);
    a.sys(Sys::IpcWaitReceiveOneway);
    a.halt();
    let st = r.server.start(&mut r.k, a.finish(), 8);

    let mut a = Assembler::new("tx");
    a.movi(ARG_HANDLE, r.h_ref);
    a.movi(ARG_SBUF, cbuf);
    a.movi(ARG_COUNT, 5);
    a.sys(Sys::IpcSendOneway);
    a.halt();
    let ct = r.client.start(&mut r.k, a.finish(), 8);

    r.k.write_mem(r.client.space, cbuf, b"fluke");
    assert!(run_to_halt(&mut r.k, &[st, ct], 50_000_000));
    assert_eq!(r.k.read_mem(r.server.space, sbuf, 5), b"fluke".to_vec());
    assert_eq!(r.k.thread_regs(st).get(Reg::Eax), ErrorCode::Success as u32);
    // One send into a waiting receiver is one message.
    assert_eq!(r.k.stats.ipc_messages, 1);
}

/// A receiver arriving at a port where a one-way sender is already
/// blocked (no receiver, no room) drains that sender: still one message.
#[test]
fn oneway_receive_drains_blocked_sender() {
    let mut r = rig(Config::interrupt_np());
    let sbuf = r.server.mem_base + 0x1000;
    let cbuf = r.client.mem_base + 0x1000;

    // Higher priority: the sender runs first and blocks on the port.
    let mut a = Assembler::new("tx");
    a.movi(ARG_HANDLE, r.h_ref);
    a.movi(ARG_SBUF, cbuf);
    a.movi(ARG_COUNT, 5);
    a.sys(Sys::IpcSendOneway);
    a.halt();
    let ct = r.client.start(&mut r.k, a.finish(), 10);

    let mut a = Assembler::new("rx");
    a.movi(ARG_HANDLE, r.h_port);
    a.movi(ARG_RBUF, sbuf);
    a.movi(ARG_COUNT, 32);
    a.sys(Sys::IpcWaitReceiveOneway);
    a.halt();
    let st = r.server.start(&mut r.k, a.finish(), 8);

    r.k.write_mem(r.client.space, cbuf, b"fluke");
    assert!(run_to_halt(&mut r.k, &[st, ct], 50_000_000));
    assert_eq!(r.k.read_mem(r.server.space, sbuf, 5), b"fluke".to_vec());
    assert_eq!(r.k.thread_regs(st).get(Reg::Eax), ErrorCode::Success as u32);
    assert_eq!(r.k.thread_regs(ct).get(Reg::Eax), ErrorCode::Success as u32);
    assert_eq!(r.k.stats.ipc_messages, 1);
}

/// A one-way receiver that dies in the pump (its window is unmapped) does
/// not strand the blocked sender it paired with: the sender keeps its
/// place at the head of the port's queue and the next receiver takes the
/// message.
#[test]
fn oneway_receiver_killed_in_pump_requeues_its_sender() {
    let mut r = rig(Config::interrupt_np());
    let sbuf = r.server.mem_base + 0x1000;
    let cbuf = r.client.mem_base + 0x1000;

    let mut a = Assembler::new("tx");
    a.movi(ARG_HANDLE, r.h_ref);
    a.movi(ARG_SBUF, cbuf);
    a.movi(ARG_COUNT, 5);
    a.sys(Sys::IpcSendOneway);
    a.halt();
    let ct = r.client.start(&mut r.k, a.finish(), 10);

    let rx = |name: &str, rbuf: u32| {
        let mut a = Assembler::new(name);
        a.movi(ARG_HANDLE, r.h_port);
        a.movi(ARG_RBUF, rbuf);
        a.movi(ARG_COUNT, 32);
        a.sys(Sys::IpcWaitReceiveOneway);
        a.halt();
        a.finish()
    };
    let (bad, good) = (rx("rx-unmapped", 0x0090_0000), rx("rx", sbuf));
    r.server.start(&mut r.k, bad, 9);
    let st = r.server.start(&mut r.k, good, 8);

    r.k.write_mem(r.client.space, cbuf, b"fluke");
    assert!(run_to_halt(&mut r.k, &[st, ct], 50_000_000));
    assert_eq!(r.k.stats.fatal_faults, 1);
    assert_eq!(r.k.read_mem(r.server.space, sbuf, 5), b"fluke".to_vec());
    assert_eq!(r.k.thread_regs(st).get(Reg::Eax), ErrorCode::Success as u32);
    assert_eq!(r.k.thread_regs(ct).get(Reg::Eax), ErrorCode::Success as u32);
    assert_eq!(r.k.stats.ipc_messages, 1);
}

/// `ipc_client_alert` promptly interrupts a server blocked in receive;
/// the server's operation completes with Interrupted.
#[test]
fn alert_interrupts_blocked_peer() {
    let mut r = rig(Config::process_np());
    let sbuf = r.server.mem_base + 0x1000;
    let cbuf = r.client.mem_base + 0x1000;

    // Server: accept + receive; the client sends 4 then alerts while the
    // server waits for more.
    let mut a = Assembler::new("server");
    a.server_wait_receive(r.h_pset, sbuf, 4);
    a.movi(ARG_RBUF, sbuf + 4);
    a.movi(ARG_COUNT, 64);
    a.sys(Sys::IpcServerReceiveMore); // will be alerted out of this wait
    a.halt();
    // Higher priority: the server re-enters its receive before the client
    // continues, so the alert targets a blocked operation.
    let st = r.server.start(&mut r.k, a.finish(), 10);

    let mut a = Assembler::new("client");
    a.client_connect_send(r.h_ref, cbuf, 4);
    a.sys(Sys::IpcClientAlert);
    a.halt();
    let ct = r.client.start(&mut r.k, a.finish(), 8);

    r.k.write_mem(r.client.space, cbuf, &[1, 2, 3, 4]);
    assert!(run_to_halt(&mut r.k, &[st, ct], 50_000_000));
    assert_eq!(
        r.k.thread_regs(st).get(Reg::Eax),
        ErrorCode::Interrupted as u32
    );
}

/// Disconnect wakes a blocked peer with PeerDisconnected.
#[test]
fn disconnect_unblocks_peer_with_error() {
    let mut r = rig(Config::process_np());
    let sbuf = r.server.mem_base + 0x1000;
    let cbuf = r.client.mem_base + 0x1000;

    let mut a = Assembler::new("server");
    a.server_wait_receive(r.h_pset, sbuf, 4);
    // Wait for a second message that will never come.
    a.movi(ARG_RBUF, sbuf);
    a.movi(ARG_COUNT, 4);
    a.sys(Sys::IpcServerReceiveMore);
    a.halt();
    // Higher priority: the server is parked in its second receive before
    // the client tears the connection down.
    let st = r.server.start(&mut r.k, a.finish(), 10);

    let mut a = Assembler::new("client");
    a.client_connect_send(r.h_ref, cbuf, 4);
    a.client_disconnect();
    a.halt();
    let ct = r.client.start(&mut r.k, a.finish(), 8);

    assert!(run_to_halt(&mut r.k, &[st, ct], 50_000_000));
    assert_eq!(
        r.k.thread_regs(st).get(Reg::Eax),
        ErrorCode::PeerDisconnected as u32
    );
}

/// `port_wait` accepts a connection without transferring data; the
/// connect-only client entrypoint is a pure Long call.
#[test]
fn connect_only_rendezvous() {
    let mut r = rig(Config::process_np());
    let mut a = Assembler::new("server");
    a.sys_h(Sys::PortWait, r.h_port);
    a.sys(Sys::IpcServerDisconnect);
    a.halt();
    let st = r.server.start(&mut r.k, a.finish(), 8);

    let mut a = Assembler::new("client");
    a.sys_h(Sys::IpcClientConnect, r.h_ref);
    a.movi(Reg::Ebp, r.client.mem_base + 0x4000);
    a.store(Reg::Ebp, 0, Reg::Eax);
    a.halt();
    // Higher priority: the client observes the accepted connection before
    // the server disconnects it again.
    let ct = r.client.start(&mut r.k, a.finish(), 10);

    assert!(run_to_halt(&mut r.k, &[st, ct], 50_000_000));
    assert_eq!(
        r.k.read_mem_u32(r.client.space, r.client.mem_base + 0x4000),
        ErrorCode::Success as u32
    );
}

/// An RPC against a port with no server parks the client; a server
/// arriving later completes it (tests the connect queue).
#[test]
fn client_waits_for_late_server() {
    let mut r = rig(Config::interrupt_pp());
    let sbuf = r.server.mem_base + 0x1000;
    let cbuf = r.client.mem_base + 0x1000;

    // Client starts FIRST (higher priority so it definitely runs first).
    let mut a = Assembler::new("client");
    a.client_connect_send(r.h_ref, cbuf, 4);
    a.halt();
    let ct = r.client.start(&mut r.k, a.finish(), 10);

    let mut a = Assembler::new("server");
    // Burn some time so the client is already parked.
    a.compute(50_000);
    a.server_wait_receive(r.h_pset, sbuf, 4);
    a.halt();
    let st = r.server.start(&mut r.k, a.finish(), 8);

    r.k.write_mem(r.client.space, cbuf, &[9, 9, 9, 9]);
    assert!(run_to_halt(&mut r.k, &[st, ct], 50_000_000));
    assert_eq!(r.k.read_mem(r.server.space, sbuf, 4), vec![9, 9, 9, 9]);
}
