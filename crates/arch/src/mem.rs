//! The CPU's view of memory: a checked, faultable access interface.
//!
//! The simulated CPU does not own memory; address translation and page-table
//! policy belong to the kernel (`fluke-core`). The CPU only needs a way to
//! issue loads and stores that may *fault*. A fault aborts the current
//! instruction with the program counter still pointing at it, exactly like a
//! precise page fault on real hardware, so resolving the fault and resuming
//! re-executes (or, for string instructions, *continues*) the instruction.

/// Whether a memory access was a read or a write.
///
/// The kernel uses this to check page protections and to decide whether a
/// copy-on-write style mapping can satisfy the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load (also used for instruction operands read from memory).
    Read,
    /// A store.
    Write,
}

/// A memory access fault, reported with the faulting virtual address.
///
/// This is the hardware-level event; classification into *soft* and *hard*
/// faults (paper Table 3) is kernel policy and happens in `fluke-core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// The virtual address whose access faulted.
    pub addr: u32,
    /// Whether the faulting access was a read or a write.
    pub kind: AccessKind,
}

/// A fault raised partway through a bulk access.
///
/// Bulk operations are *not* atomic: like the x86 string instructions they
/// back, they complete a prefix of the transfer and then report how far they
/// got, so the caller can advance its cursors by exactly `done` bytes and
/// retry from the faulting address after the fault is resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BulkFault {
    /// Bytes successfully transferred before the fault.
    pub done: u32,
    /// The fault that stopped the transfer.
    pub fault: MemFault,
}

/// The interface the CPU uses to touch a thread's address space.
///
/// Implemented by the kernel's per-space page-table machinery. All accesses
/// are byte-granularity at this boundary; multi-byte accessors have default
/// implementations that fault at the first inaccessible byte, which is what
/// makes partially-completed string operations restartable.
///
/// [`crate::Cpu::step`] and [`crate::Cpu::run_user`] are generic over
/// `M: UserMem + ?Sized`, so a concrete implementation is monomorphized
/// into the interpreter loop and its accessors can inline there. A
/// `&mut dyn UserMem` still works; it pays a virtual call per access.
pub trait UserMem {
    /// Read one byte at `addr`.
    fn read_u8(&mut self, addr: u32) -> Result<u8, MemFault>;

    /// Write one byte at `addr`.
    fn write_u8(&mut self, addr: u32, val: u8) -> Result<(), MemFault>;

    /// Read `out.len()` bytes starting at `addr`.
    ///
    /// On fault, `out[..done]` holds the bytes read before the fault and the
    /// rest of `out` is unspecified. The default implementation reads byte by
    /// byte; implementations may translate once per page run but must report
    /// the same fault address and completed-count the byte-at-a-time loop
    /// would.
    fn read_bytes(&mut self, addr: u32, out: &mut [u8]) -> Result<(), BulkFault> {
        for (i, b) in out.iter_mut().enumerate() {
            match self.read_u8(addr.wrapping_add(i as u32)) {
                Ok(v) => *b = v,
                Err(fault) => {
                    return Err(BulkFault {
                        done: i as u32,
                        fault,
                    })
                }
            }
        }
        Ok(())
    }

    /// Write `data` starting at `addr`.
    ///
    /// On fault, the first `done` bytes have been committed to memory (partial
    /// progress is visible, exactly as with the byte-at-a-time loop).
    fn write_bytes(&mut self, addr: u32, data: &[u8]) -> Result<(), BulkFault> {
        for (i, b) in data.iter().enumerate() {
            if let Err(fault) = self.write_u8(addr.wrapping_add(i as u32), *b) {
                return Err(BulkFault {
                    done: i as u32,
                    fault,
                });
            }
        }
        Ok(())
    }

    /// Read a little-endian u32 at `addr` (no alignment requirement).
    fn read_u32(&mut self, addr: u32) -> Result<u32, MemFault> {
        let mut bytes = [0u8; 4];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u32))?;
        }
        Ok(u32::from_le_bytes(bytes))
    }

    /// Write a little-endian u32 at `addr` (no alignment requirement).
    fn write_u32(&mut self, addr: u32, val: u32) -> Result<(), MemFault> {
        for (i, b) in val.to_le_bytes().iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b)?;
        }
        Ok(())
    }
}

/// A flat, never-faulting memory for unit tests and examples: every address
/// below its size is readable and writable.
#[derive(Debug, Clone)]
pub struct FlatMem {
    bytes: Vec<u8>,
}

impl FlatMem {
    /// Create a flat memory of `size` zeroed bytes.
    pub fn new(size: usize) -> Self {
        FlatMem {
            bytes: vec![0; size],
        }
    }

    /// Borrow the underlying bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl UserMem for FlatMem {
    fn read_u8(&mut self, addr: u32) -> Result<u8, MemFault> {
        self.bytes.get(addr as usize).copied().ok_or(MemFault {
            addr,
            kind: AccessKind::Read,
        })
    }

    fn write_u8(&mut self, addr: u32, val: u8) -> Result<(), MemFault> {
        match self.bytes.get_mut(addr as usize) {
            Some(b) => {
                *b = val;
                Ok(())
            }
            None => Err(MemFault {
                addr,
                kind: AccessKind::Write,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_mem_read_write() {
        let mut m = FlatMem::new(16);
        m.write_u8(3, 0xab).unwrap();
        assert_eq!(m.read_u8(3).unwrap(), 0xab);
        assert_eq!(m.read_u8(4).unwrap(), 0);
    }

    #[test]
    fn flat_mem_faults_out_of_range() {
        let mut m = FlatMem::new(4);
        let f = m.read_u8(4).unwrap_err();
        assert_eq!(f.addr, 4);
        assert_eq!(f.kind, AccessKind::Read);
        let f = m.write_u8(100, 1).unwrap_err();
        assert_eq!(f.kind, AccessKind::Write);
    }

    #[test]
    fn u32_roundtrip_little_endian() {
        let mut m = FlatMem::new(16);
        m.write_u32(5, 0xdead_beef).unwrap();
        assert_eq!(m.read_u32(5).unwrap(), 0xdead_beef);
        assert_eq!(m.read_u8(5).unwrap(), 0xef);
        assert_eq!(m.read_u8(8).unwrap(), 0xde);
    }

    #[test]
    fn u32_faults_at_first_bad_byte() {
        let mut m = FlatMem::new(6);
        // Bytes 4..8: byte 6 is the first out of range.
        let f = m.write_u32(4, 1).unwrap_err();
        assert_eq!(f.addr, 6);
    }

    #[test]
    fn bulk_roundtrip() {
        let mut m = FlatMem::new(32);
        let data: Vec<u8> = (0..20).map(|i| i as u8 ^ 0x5a).collect();
        m.write_bytes(7, &data).unwrap();
        let mut out = [0u8; 20];
        m.read_bytes(7, &mut out).unwrap();
        assert_eq!(&out[..], &data[..]);
    }

    #[test]
    fn bulk_read_reports_done_and_fault() {
        let mut m = FlatMem::new(10);
        let mut out = [0xffu8; 8];
        let e = m.read_bytes(6, &mut out).unwrap_err();
        assert_eq!(e.done, 4);
        assert_eq!(e.fault.addr, 10);
        assert_eq!(e.fault.kind, AccessKind::Read);
        // The completed prefix is valid data.
        assert_eq!(&out[..4], &[0, 0, 0, 0]);
    }

    #[test]
    fn bulk_write_commits_prefix_before_fault() {
        let mut m = FlatMem::new(10);
        let e = m.write_bytes(8, &[1, 2, 3, 4]).unwrap_err();
        assert_eq!(e.done, 2);
        assert_eq!(e.fault.addr, 10);
        assert_eq!(e.fault.kind, AccessKind::Write);
        assert_eq!(m.read_u8(8).unwrap(), 1);
        assert_eq!(m.read_u8(9).unwrap(), 2);
    }

    #[test]
    fn bulk_empty_is_ok() {
        let mut m = FlatMem::new(1);
        m.read_bytes(0xffff_ffff, &mut []).unwrap();
        m.write_bytes(0xffff_ffff, &[]).unwrap();
    }
}
