//! Assembler extensions: libfluke-style system-call emitters.
//!
//! Each method loads the entrypoint number and (immediate) arguments into
//! the ABI registers and traps. Arguments that are already in the right
//! registers can be skipped with the `*_regs` variants.

use fluke_api::abi::{ARG_COUNT, ARG_HANDLE, ARG_RBUF, ARG_SBUF, ARG_VAL};
use fluke_api::Sys;
use fluke_arch::{Assembler, Cond, Reg};

/// Libfluke: system-call emitters for the [`Assembler`].
pub trait FlukeAsm {
    /// Trap to `sys` with whatever is already in the argument registers.
    fn sys(&mut self, sys: Sys) -> &mut Self;

    /// Trap to `sys` with `ebx` = `handle`.
    fn sys_h(&mut self, sys: Sys, handle: u32) -> &mut Self;

    /// Trap to `sys` with `ebx` = `handle`, `edx` = `val`.
    fn sys_hv(&mut self, sys: Sys, handle: u32, val: u32) -> &mut Self;

    /// `mutex_lock(handle)`.
    fn mutex_lock(&mut self, handle: u32) -> &mut Self;
    /// `mutex_unlock(handle)`.
    fn mutex_unlock(&mut self, handle: u32) -> &mut Self;
    /// `cond_wait(cond, mutex)`.
    fn cond_wait(&mut self, cond: u32, mutex: u32) -> &mut Self;
    /// `cond_signal(cond)`.
    fn cond_signal(&mut self, cond: u32) -> &mut Self;

    /// `ipc_client_connect_send(port_ref, buf, len)`.
    fn client_connect_send(&mut self, port_ref: u32, buf: u32, len: u32) -> &mut Self;
    /// `ipc_client_connect_send_over_receive(port_ref, sbuf, slen, rbuf, rlen)`.
    fn client_rpc(
        &mut self,
        port_ref: u32,
        sbuf: u32,
        slen: u32,
        rbuf: u32,
        rlen: u32,
    ) -> &mut Self;
    /// `ipc_client_disconnect()`.
    fn client_disconnect(&mut self) -> &mut Self;
    /// `ipc_server_wait_receive(pset, buf, window)`.
    fn server_wait_receive(&mut self, pset: u32, buf: u32, window: u32) -> &mut Self;
    /// `ipc_server_ack_send(buf, len)`.
    fn server_ack_send(&mut self, buf: u32, len: u32) -> &mut Self;
    /// `ipc_server_ack_send_wait_receive(pset, sbuf, slen, rbuf, rwindow)`.
    fn server_ack_send_wait_receive(
        &mut self,
        pset: u32,
        sbuf: u32,
        slen: u32,
        rbuf: u32,
        rwindow: u32,
    ) -> &mut Self;

    /// Store a little-endian u32 constant to memory via `edx` (clobbers
    /// `edx` and `ebp`).
    fn store_const(&mut self, addr: u32, val: u32) -> &mut Self;

    /// Add the `words` 32-bit words at `base` into `edi`, looping on a
    /// fresh `label` (clobbers `ebx`, `edx` and `ebp`).
    fn checksum(&mut self, base: u32, words: u32, label: &str) -> &mut Self;
}

impl FlukeAsm for Assembler {
    fn sys(&mut self, sys: Sys) -> &mut Self {
        self.movi(Reg::Eax, sys.num());
        self.syscall()
    }

    fn sys_h(&mut self, sys: Sys, handle: u32) -> &mut Self {
        self.movi(ARG_HANDLE, handle);
        self.sys(sys)
    }

    fn sys_hv(&mut self, sys: Sys, handle: u32, val: u32) -> &mut Self {
        self.movi(ARG_HANDLE, handle);
        self.movi(ARG_VAL, val);
        self.sys(sys)
    }

    fn mutex_lock(&mut self, handle: u32) -> &mut Self {
        self.sys_h(Sys::MutexLock, handle)
    }

    fn mutex_unlock(&mut self, handle: u32) -> &mut Self {
        self.sys_h(Sys::MutexUnlock, handle)
    }

    fn cond_wait(&mut self, cond: u32, mutex: u32) -> &mut Self {
        self.sys_hv(Sys::CondWait, cond, mutex)
    }

    fn cond_signal(&mut self, cond: u32) -> &mut Self {
        self.sys_h(Sys::CondSignal, cond)
    }

    fn client_connect_send(&mut self, port_ref: u32, buf: u32, len: u32) -> &mut Self {
        self.movi(ARG_HANDLE, port_ref);
        self.movi(ARG_SBUF, buf);
        self.movi(ARG_COUNT, len);
        self.sys(Sys::IpcClientConnectSend)
    }

    fn client_rpc(
        &mut self,
        port_ref: u32,
        sbuf: u32,
        slen: u32,
        rbuf: u32,
        rlen: u32,
    ) -> &mut Self {
        self.movi(ARG_HANDLE, port_ref);
        self.movi(ARG_SBUF, sbuf);
        self.movi(ARG_COUNT, slen);
        self.movi(ARG_RBUF, rbuf);
        self.movi(ARG_VAL, rlen);
        self.sys(Sys::IpcClientConnectSendOverReceive)
    }

    fn client_disconnect(&mut self) -> &mut Self {
        self.sys(Sys::IpcClientDisconnect)
    }

    fn server_wait_receive(&mut self, pset: u32, buf: u32, window: u32) -> &mut Self {
        self.movi(ARG_HANDLE, pset);
        self.movi(ARG_RBUF, buf);
        self.movi(ARG_COUNT, window);
        self.sys(Sys::IpcServerWaitReceive)
    }

    fn server_ack_send(&mut self, buf: u32, len: u32) -> &mut Self {
        self.movi(ARG_SBUF, buf);
        self.movi(ARG_COUNT, len);
        self.sys(Sys::IpcServerAckSend)
    }

    fn server_ack_send_wait_receive(
        &mut self,
        pset: u32,
        sbuf: u32,
        slen: u32,
        rbuf: u32,
        rwindow: u32,
    ) -> &mut Self {
        self.movi(ARG_HANDLE, pset);
        self.movi(ARG_SBUF, sbuf);
        self.movi(ARG_COUNT, slen);
        self.movi(ARG_RBUF, rbuf);
        self.movi(ARG_VAL, rwindow);
        self.sys(Sys::IpcServerAckSendWaitReceive)
    }

    fn store_const(&mut self, addr: u32, val: u32) -> &mut Self {
        self.movi(Reg::Ebp, addr);
        self.movi(Reg::Edx, val);
        self.store(Reg::Ebp, 0, Reg::Edx)
    }

    fn checksum(&mut self, base: u32, words: u32, label: &str) -> &mut Self {
        self.movi(Reg::Ebp, base);
        self.movi(Reg::Ebx, base + words * 4);
        self.label(label);
        self.load(Reg::Edx, Reg::Ebp, 0);
        self.add(Reg::Edi, Reg::Edx);
        self.addi(Reg::Ebp, 4);
        self.cmp(Reg::Ebp, Reg::Ebx);
        self.jcc(Cond::Ne, label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluke_arch::Instr;

    #[test]
    fn sys_emits_movi_then_trap() {
        let mut a = Assembler::new("t");
        a.sys(Sys::SysNull);
        let p = a.finish();
        assert_eq!(
            p.instrs(),
            &[Instr::MovI(Reg::Eax, Sys::SysNull.num()), Instr::Syscall]
        );
    }

    #[test]
    fn rpc_loads_all_five_args() {
        let mut a = Assembler::new("t");
        a.client_rpc(0x100, 0x200, 64, 0x300, 128);
        let p = a.finish();
        // Five immediate loads plus eax plus the trap.
        assert_eq!(p.len(), 7);
        assert!(p.instrs().contains(&Instr::MovI(ARG_VAL, 128)));
        assert!(p.instrs().contains(&Instr::MovI(ARG_COUNT, 64)));
    }

    #[test]
    fn store_const_sequence() {
        let mut a = Assembler::new("t");
        a.store_const(0x4000, 7);
        let p = a.finish();
        assert_eq!(p.len(), 3);
    }
}
