//! `krec`: deterministic whole-kernel snapshots and time-travel replay.
//!
//! The paper's atomic API guarantees that every thread's long-term state is
//! promptly extractable (§2); this module extends that promise to the whole
//! kernel: *all* simulator state — threads, spaces, objects, wait queues,
//! per-CPU run queues, TLBs, event queue, and every observability
//! accumulator — serializes into a versioned, digest-stamped byte image
//! ([`Kernel::snapshot_bytes`]) and restores to a bit-identical kernel
//! ([`Kernel::restore_from`]).
//!
//! Because the simulator is deterministic (golden-trace digests prove runs
//! bit-identical), a snapshot plus the sequence of `run(limit)` calls that
//! followed it is a *recording*: restoring the snapshot and re-issuing the
//! same calls re-executes history exactly. [`Recording`] captures the call
//! sequence as [`RunWindow`]s (each stamped with start/end state digests),
//! and [`Replayer`] drives re-execution with divergence checking — the
//! substrate for the `kdb` time-travel debugger and the `krec_sweep`
//! restore-and-diverge-check harness.
//!
//! # Format
//!
//! A snapshot is `"FKSN"` magic, a `u32` version, the body (every kernel
//! field in declaration order, little-endian, length-prefixed collections in
//! canonical order), and a trailing FNV-1a-64 digest of all preceding
//! bytes. The digest doubles as the *state digest*: hashing an encode
//! without materializing it ([`Kernel::state_digest`]) yields the same
//! value, so "two kernels are in the same state" is one u64 comparison.
//!
//! Canonicalization rules (so snapshot→restore→snapshot is byte-identical):
//! hash-ordered maps are serialized sorted by key; derived indices (the
//! object table's location index, the ready-queue bitmap, the map-index
//! prefix maxima) are rebuilt on restore, not stored; host-side recorder
//! state ([`Krec`] itself, including the `Config::krec` arming) is *never*
//! encoded, so a recording kernel and its replayed twin produce equal
//! digests.
//!
//! # Codec
//!
//! Each snapshot type writes its field list once. `snap_struct!` and
//! `snap_enum!` generate both halves of [`Snap`] from one list: the list
//! order is the encode order, a field rebuilt after decode is named with
//! its value (`text: None`) and not encoded, and an enum writes a `u8` tag
//! and rejects every tag it does not list with [`SnapError::BadTag`].
//! Hand-written impls remain only where they carry logic: the primitives
//! and generic containers below; the lookup-table enums (`Reg`, `Sys`,
//! `SysClass`, `ObjType`, `ErrorCode`, `KfaultKind`), which code through
//! their own tables; and the impls that use a custom layout, validate
//! input or rebuild a derived index (`BufferedMsg`, `TraceRing`,
//! `PerSysCounts`, `ReadyQueue`, `PerCpuQueues`, `ObjectTable`, `MapIndex`,
//! `Tlb`, `PhysMem`, `EventQueue`, `WaitQueue`, `Program`, `Cpu`,
//! `KfaultConfig`, `Arena`).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Mutex, OnceLock};

use fluke_api::{ErrorCode, ObjType, Sys, SysClass};
use fluke_arch::cost::{CostModel, Cycles};
use fluke_arch::cpu::Cpu;
use fluke_arch::isa::{Cond, Instr};
use fluke_arch::program::{Program, ProgramId};
use fluke_arch::regs::{Reg, UserRegs};

use crate::config::{Config, ExecModel, Preemption, TraceConfig};
use crate::kernel::{Kernel, RunExit};
use crate::kfault::{KfaultConfig, KfaultKind};

/// Snapshot file magic: `"FKSN"`.
pub const SNAP_MAGIC: [u8; 4] = *b"FKSN";
/// Current snapshot format version.
pub const SNAP_VERSION: u32 = 4;

/// FNV-1a 64-bit offset basis (shared with the sweep harnesses' digests).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into an FNV-1a-64 accumulator.
pub fn fnv64(mut acc: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        acc ^= b as u64;
        acc = acc.wrapping_mul(FNV_PRIME);
    }
    acc
}

/// A structured snapshot encode/decode failure. Carried as data, never a
/// panic: embedders decide whether a non-serializable kernel is fatal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before the decoder was done.
    Truncated,
    /// The stream does not start with the `"FKSN"` magic.
    BadMagic,
    /// The stream's format version is not [`SNAP_VERSION`].
    BadVersion(u32),
    /// The trailing digest does not match the stream contents.
    BadDigest {
        /// Digest recorded in the trailer.
        stored: u64,
        /// Digest recomputed over the stream.
        computed: u64,
    },
    /// An enum tag byte was out of range for the named type.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u32,
    },
    /// The kernel holds a thread with a host-native body (a Rust closure),
    /// which cannot be serialized. Snapshot workloads must be pure-ISA.
    NativeBody,
    /// The kernel has the debug-mode atomicity auditor armed; auditor
    /// scratch state is intentionally outside the snapshot contract.
    AuditActive,
    /// A `kspan` class name in the stream is not a known entrypoint name.
    UnknownClass,
    /// Snapshot requested on a kernel whose config never armed `krec`.
    RecorderOff,
    /// A structural invariant failed while rebuilding (duplicate object
    /// location, dangling program id, ...).
    Invalid(&'static str),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot stream truncated"),
            SnapError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapError::BadVersion(v) => {
                write!(f, "snapshot version {v} unsupported (want {SNAP_VERSION})")
            }
            SnapError::BadDigest { stored, computed } => write!(
                f,
                "snapshot digest mismatch: trailer {stored:#018x}, computed {computed:#018x}"
            ),
            SnapError::BadTag { what, tag } => {
                write!(f, "bad {what} tag {tag} in snapshot stream")
            }
            SnapError::NativeBody => {
                write!(
                    f,
                    "kernel has a native-bodied thread; snapshots need pure-ISA workloads"
                )
            }
            SnapError::AuditActive => {
                write!(
                    f,
                    "kernel has the atomicity auditor armed; snapshots unsupported"
                )
            }
            SnapError::UnknownClass => write!(f, "unknown kspan class name in snapshot"),
            SnapError::RecorderOff => write!(f, "krec recorder not armed (Config::with_krec)"),
            SnapError::Invalid(what) => write!(f, "invalid snapshot structure: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

// ---------------------------------------------------------------------------
// Writer / reader
// ---------------------------------------------------------------------------

/// Byte-stream encoder: accumulates bytes and an FNV-1a digest of everything
/// written. In `hash_only` mode nothing is buffered — the same encode walk
/// then computes a state digest with no allocation.
pub struct SnapWriter {
    buf: Vec<u8>,
    digest: u64,
    hash_only: bool,
}

impl SnapWriter {
    /// A writer that materializes bytes (and hashes them).
    pub fn new() -> Self {
        SnapWriter {
            buf: Vec::new(),
            digest: FNV_OFFSET,
            hash_only: false,
        }
    }

    /// A writer that only hashes: `finish` is meaningless, `digest` is the
    /// point.
    pub fn hash_only() -> Self {
        SnapWriter {
            buf: Vec::new(),
            digest: FNV_OFFSET,
            hash_only: true,
        }
    }

    fn put(&mut self, bytes: &[u8]) {
        self.digest = fnv64(self.digest, bytes);
        if !self.hash_only {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Append a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Append a `usize` (as `u64`).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append a `bool` (one byte).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.put(s.as_bytes());
    }

    /// Append raw bytes (length *not* prefixed; callers write their own).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.put(bytes);
    }

    /// The FNV-1a digest of everything written so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Bytes written so far (0 in hash-only mode).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Seal the stream: append the digest trailer and return the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let d = self.digest;
        // The trailer itself is not part of the digested range.
        if !self.hash_only {
            self.buf.extend_from_slice(&d.to_le_bytes());
        }
        self.buf
    }
}

impl Default for SnapWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Byte-stream decoder over a snapshot body.
pub struct SnapReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `bytes` (body only; magic/version/trailer handled by
    /// [`Kernel::restore_from`]).
    pub fn new(bytes: &'a [u8]) -> Self {
        SnapReader { bytes, pos: 0 }
    }

    /// Consume `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `usize` (stored as `u64`).
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Invalid("usize overflow"))
    }

    /// Read a `bool`.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SnapError::BadTag {
                what: "bool",
                tag: t as u32,
            }),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let n = self.usize()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Invalid("non-utf8 string"))
    }

    /// Whether the reader consumed every byte.
    pub fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Error unless every byte was consumed.
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.at_end() {
            Ok(())
        } else {
            Err(SnapError::Invalid("trailing bytes after snapshot body"))
        }
    }
}

// ---------------------------------------------------------------------------
// The Snap trait + primitive impls
// ---------------------------------------------------------------------------

/// A type that round-trips through the snapshot byte stream.
///
/// Contract: `restore(snap(x)) == x` *and* `snap(restore(bytes)) == bytes`
/// (canonical encodings — the round-trip property test pins the latter).
pub trait Snap: Sized {
    /// Encode `self` into the stream.
    fn snap(&self, w: &mut SnapWriter);
    /// Decode one value from the stream.
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// Implement [`Snap`] for a struct from one field list. The list order is
/// the encode order, and every field appears exactly once:
///
/// - `field` is coded by its type's own [`Snap`] impl;
/// - `field: expr` is not encoded; decode rebuilds it as `expr`;
/// - `field => (snap_fn, restore_fn)` is coded by a function pair,
///   `snap_fn(&self.field, w)` and `restore_fn(r)?`.
///
/// A tuple struct lists its field indices: `snap_struct!(ProgramId(0))`.
macro_rules! snap_struct {
    (@snap $s:ident $w:ident $f:tt) => {
        $crate::krec::Snap::snap(&$s.$f, $w)
    };
    (@snap $s:ident $w:ident $f:tt : $val:expr) => {};
    (@snap $s:ident $w:ident $f:tt => ($enc:expr, $dec:expr)) => {
        $enc(&$s.$f, $w)
    };
    (@restore $r:ident $f:tt) => {
        $crate::krec::Snap::restore($r)?
    };
    (@restore $r:ident $f:tt : $val:expr) => {
        $val
    };
    (@restore $r:ident $f:tt => ($enc:expr, $dec:expr)) => {
        $dec($r)?
    };
    ($T:ident ($($i:tt),* $(,)?)) => {
        impl $crate::krec::Snap for $T {
            fn snap(&self, w: &mut $crate::krec::SnapWriter) {
                $($crate::krec::snap_struct!(@snap self w $i);)*
            }
            fn restore(
                r: &mut $crate::krec::SnapReader<'_>,
            ) -> Result<Self, $crate::krec::SnapError> {
                Ok($T($($crate::krec::snap_struct!(@restore r $i)),*))
            }
        }
    };
    ($T:ident { $($f:ident $(: $val:expr)? $(=> ($enc:expr, $dec:expr))?),* $(,)? }) => {
        impl $crate::krec::Snap for $T {
            fn snap(&self, w: &mut $crate::krec::SnapWriter) {
                $($crate::krec::snap_struct!(@snap self w $f $(: $val)? $(=> ($enc, $dec))?);)*
            }
            fn restore(
                r: &mut $crate::krec::SnapReader<'_>,
            ) -> Result<Self, $crate::krec::SnapError> {
                Ok($T {
                    $($f: $crate::krec::snap_struct!(@restore r $f $(: $val)? $(=> ($enc, $dec))?),)*
                })
            }
        }
    };
}
pub(crate) use snap_struct;

/// Implement [`Snap`] for an enum from one variant list: each variant is
/// written as a `u8` tag followed by its fields in list order. Decoding any
/// tag the list does not name is a [`SnapError::BadTag`] carrying the type
/// name. Fields are bound by name, so tuple variants name theirs too:
/// `snap_enum!(E { 0 => Unit, 1 => Tuple(a, b), 2 => Struct { x, y } })`.
macro_rules! snap_enum {
    ($T:ident { $($tag:literal => $V:ident $(($($a:ident),*))? $({ $($f:ident),* })?),* $(,)? }) => {
        impl $crate::krec::Snap for $T {
            fn snap(&self, w: &mut $crate::krec::SnapWriter) {
                match self {
                    $($T::$V $(($($a),*))? $({ $($f),* })? => {
                        w.u8($tag);
                        $($($crate::krec::Snap::snap($a, w);)*)?
                        $($($crate::krec::Snap::snap($f, w);)*)?
                    })*
                }
            }
            fn restore(
                r: &mut $crate::krec::SnapReader<'_>,
            ) -> Result<Self, $crate::krec::SnapError> {
                Ok(match r.u8()? {
                    $($tag => {
                        $($(let $a = $crate::krec::Snap::restore(r)?;)*)?
                        $($(let $f = $crate::krec::Snap::restore(r)?;)*)?
                        $T::$V $(($($a),*))? $({ $($f),* })?
                    })*
                    t => {
                        return Err($crate::krec::SnapError::BadTag {
                            what: stringify!($T),
                            tag: t as u32,
                        })
                    }
                })
            }
        }
    };
}
pub(crate) use snap_enum;

macro_rules! snap_prim {
    ($ty:ty, $wm:ident, $rm:ident) => {
        impl Snap for $ty {
            fn snap(&self, w: &mut SnapWriter) {
                w.$wm(*self);
            }
            fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$rm()
            }
        }
    };
}

snap_prim!(u8, u8, u8);
snap_prim!(u16, u16, u16);
snap_prim!(u32, u32, u32);
snap_prim!(u64, u64, u64);
snap_prim!(usize, usize, usize);
snap_prim!(bool, bool, bool);

impl Snap for i32 {
    fn snap(&self, w: &mut SnapWriter) {
        w.u32(*self as u32);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.u32()? as i32)
    }
}

impl Snap for String {
    fn snap(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.str()
    }
}

impl<T: Snap> Snap for Option<T> {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.snap(w);
            }
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::restore(r)?)),
            t => Err(SnapError::BadTag {
                what: "option",
                tag: t as u32,
            }),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.usize()?;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(T::restore(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.usize()?;
        let mut out = VecDeque::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push_back(T::restore(r)?);
        }
        Ok(out)
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for (k, v) in self {
            k.snap(w);
            v.snap(w);
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.usize()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::restore(r)?;
            let v = V::restore(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

// HashMaps are serialized sorted by key so the encoding is canonical
// regardless of hasher seed or insertion history.
impl<K: Snap + Ord + Eq + Hash, V: Snap> Snap for HashMap<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        let mut keys: Vec<&K> = self.keys().collect();
        keys.sort();
        w.usize(keys.len());
        for k in keys {
            k.snap(w);
            self[k].snap(w);
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.usize()?;
        let mut out = HashMap::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let k = K::restore(r)?;
            let v = V::restore(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::restore(r)?, B::restore(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
        self.2.snap(w);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::restore(r)?, B::restore(r)?, C::restore(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap, D: Snap> Snap for (A, B, C, D) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
        self.2.snap(w);
        self.3.snap(w);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((
            A::restore(r)?,
            B::restore(r)?,
            C::restore(r)?,
            D::restore(r)?,
        ))
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn snap(&self, w: &mut SnapWriter) {
        for v in self {
            v.snap(w);
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::restore(r)?);
        }
        out.try_into()
            .map_err(|_| SnapError::Invalid("array length"))
    }
}

// ---------------------------------------------------------------------------
// Arch + API types
// ---------------------------------------------------------------------------

impl Snap for Reg {
    fn snap(&self, w: &mut SnapWriter) {
        w.u8(*self as u8);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let t = r.u8()?;
        Reg::ALL.get(t as usize).copied().ok_or(SnapError::BadTag {
            what: "reg",
            tag: t as u32,
        })
    }
}

snap_enum!(Cond {
    0 => Always,
    1 => Eq,
    2 => Ne,
    3 => Lt,
    4 => Ge,
});

snap_enum!(Instr {
    0 => MovI(a, b),
    1 => Mov(a, b),
    2 => Add(a, b),
    3 => AddI(a, b),
    4 => Sub(a, b),
    5 => SubI(a, b),
    6 => Mul(a, b),
    7 => Xor(a, b),
    8 => AndI(a, b),
    9 => ShrI(a, b),
    10 => ShlI(a, b),
    11 => Cmp(a, b),
    12 => CmpI(a, b),
    13 => Jmp(c, t),
    14 => Load(a, b, o),
    15 => Store(b, o, s),
    16 => LoadB(a, b, o),
    17 => StoreB(b, o, s),
    18 => Push(a),
    19 => Pop(a),
    20 => RepMovsB,
    21 => RepStosB,
    22 => Syscall,
    23 => Compute(n),
    24 => Halt,
    25 => Nop,
});

snap_struct!(UserRegs {
    gpr,
    eip,
    eflags,
    pr
});

snap_struct!(ProgramId(0));

impl Snap for Program {
    fn snap(&self, w: &mut SnapWriter) {
        w.str(self.name());
        w.usize(self.instrs().len());
        for i in self.instrs() {
            i.snap(w);
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Program::new(r.str()?, Vec::restore(r)?))
    }
}

impl Snap for Cpu {
    fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.id);
        w.u64(self.now);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut c = Cpu::new(r.usize()?);
        c.now = r.u64()?;
        Ok(c)
    }
}

snap_struct!(CostModel {
    user_instr,
    user_string_byte_per,
    hw_trap_enter,
    hw_trap_exit,
    sw_entry_common,
    interrupt_entry_extra,
    interrupt_exit_extra,
    ctx_switch_base,
    ctx_switch_kernel_regs,
    addr_space_switch,
    copy_byte_per,
    ipc_setup,
    klock_acquire,
    klock_release,
    mp_lock_acquire,
    mp_lock_release,
    tlb_shootdown_ipi,
    tlb_shootdown_ack,
    schedule_op,
    soft_fault_resolve,
    server_fault_extra,
    hard_fault_kernel,
    object_create,
    object_destroy,
    object_op,
    region_search_page,
    preempt_check,
    timer_irq,
    timeslice,
});

impl Snap for Sys {
    fn snap(&self, w: &mut SnapWriter) {
        w.u32(self.num());
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.u32()?;
        Sys::from_u32(n).ok_or(SnapError::BadTag {
            what: "sys",
            tag: n,
        })
    }
}

impl Snap for SysClass {
    fn snap(&self, w: &mut SnapWriter) {
        w.u8(self.index() as u8);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let t = r.u8()?;
        SysClass::ALL
            .get(t as usize)
            .copied()
            .ok_or(SnapError::BadTag {
                what: "sysclass",
                tag: t as u32,
            })
    }
}

impl Snap for ObjType {
    fn snap(&self, w: &mut SnapWriter) {
        w.u32(*self as u32);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.u32()?;
        ObjType::from_u32(n).ok_or(SnapError::BadTag {
            what: "objtype",
            tag: n,
        })
    }
}

impl Snap for ErrorCode {
    fn snap(&self, w: &mut SnapWriter) {
        w.u32(*self as u32);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.u32()?;
        ErrorCode::from_u32(n).ok_or(SnapError::BadTag {
            what: "errorcode",
            tag: n,
        })
    }
}

// ---------------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------------

snap_enum!(ExecModel {
    0 => Process,
    1 => Interrupt,
});

snap_enum!(Preemption {
    0 => None,
    1 => Partial,
    2 => Full,
});

snap_struct!(TraceConfig {
    enabled,
    ring_capacity,
});

impl Snap for KfaultKind {
    fn snap(&self, w: &mut SnapWriter) {
        w.u8(self.index() as u8);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let t = r.u8()?;
        KfaultKind::ALL
            .get(t as usize)
            .copied()
            .ok_or(SnapError::BadTag {
                what: "kfaultkind",
                tag: t as u32,
            })
    }
}

impl Snap for KfaultConfig {
    fn snap(&self, w: &mut SnapWriter) {
        self.kind.snap(w);
        w.u64(self.site);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(KfaultConfig::at(KfaultKind::restore(r)?, r.u64()?))
    }
}

/// Config labels that exist as compile-time literals; restore interns
/// against these before falling back to a leaked (deduplicated) string.
const KNOWN_LABELS: &[&str] = &[
    "Process NP",
    "Process PP",
    "Process FP",
    "Interrupt NP",
    "Interrupt PP",
    "Process NP (MP)",
    "Process PP (MP)",
    "Process FP (MP)",
    "Interrupt NP (MP)",
    "Interrupt PP (MP)",
];

/// Intern an owned string as `&'static str`: known labels map to their
/// compile-time literal; anything else leaks exactly once per unique value
/// (a process-wide dedup cache bounds the leak to distinct labels seen).
pub(crate) fn intern_static(s: String) -> &'static str {
    if let Some(k) = KNOWN_LABELS.iter().find(|k| ***k == s) {
        return k;
    }
    static CACHE: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap();
    if let Some(&v) = map.get(&s) {
        return v;
    }
    let leaked: &'static str = Box::leak(s.clone().into_boxed_str());
    map.insert(s, leaked);
    leaked
}

/// Encode a `&'static str` field as a plain string: the encode half of
/// the config-label and kspan-class codec pairs.
pub(crate) fn snap_static_str(s: &&'static str, w: &mut SnapWriter) {
    w.str(s);
}

/// Decode a config label written by [`snap_static_str`].
fn restore_label(r: &mut SnapReader<'_>) -> Result<&'static str, SnapError> {
    Ok(intern_static(r.str()?))
}

/// Decode a `kspan` class name written by [`snap_static_str`]: entrypoint
/// names come from the static [`fluke_api::SYSCALLS`] table; `"invalid"`
/// is the bad-entrypoint class.
pub(crate) fn restore_class(r: &mut SnapReader<'_>) -> Result<&'static str, SnapError> {
    let s = r.str()?;
    if s == "invalid" {
        return Ok("invalid");
    }
    fluke_api::SYSCALLS
        .iter()
        .map(|d| d.sys.name())
        .find(|n| *n == s)
        .ok_or(SnapError::UnknownClass)
}

// `krec` and `flowcheck` are host-side and deliberately not encoded: a
// recording or checked kernel must digest-match its restored twin, which
// boots with both off.
snap_struct!(Config {
    model,
    preempt,
    num_cpus,
    kstack_bytes,
    tcb_bytes,
    timeslice,
    trace,
    kprof,
    kspan,
    fast_mem,
    kfault,
    big_lock,
    label => (snap_static_str, restore_label),
    krec: None,
    flowcheck: false,
});

// ---------------------------------------------------------------------------
// Recorder configuration and state
// ---------------------------------------------------------------------------

/// Arming configuration for the snapshot recorder ([`Config::with_krec`]).
///
/// Triggers compose: a snapshot is taken at a dispatch boundary whenever any
/// armed trigger fires. All triggers observe only simulated state (cycle
/// clocks, dispatch-site ordinals), so arming them never perturbs the run —
/// the recorder is host-side bookkeeping outside the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KrecConfig {
    /// Snapshot at the first dispatch boundary at or after every `n`
    /// simulated cycles.
    pub every_cycles: Option<Cycles>,
    /// Snapshot at every `n`-th user-thread dispatch boundary (the same
    /// site enumeration `kfault` uses), starting with site 0.
    pub every_sites: Option<u64>,
    /// Snapshot at exactly this dispatch-site ordinal.
    pub at_site: Option<u64>,
    /// Bounded snapshot-ring capacity; the oldest snapshot is dropped (and
    /// counted) when a new one would exceed it.
    pub ring: usize,
}

/// Default snapshot-ring capacity.
pub const DEFAULT_SNAP_RING: usize = 8;

impl KrecConfig {
    /// Record run windows only; snapshots are taken manually via
    /// [`Kernel::snapshot_now`].
    pub fn manual() -> Self {
        KrecConfig {
            every_cycles: None,
            every_sites: None,
            at_site: None,
            ring: DEFAULT_SNAP_RING,
        }
    }

    /// Snapshot every `n` simulated cycles (at dispatch boundaries).
    pub fn every_cycles(n: Cycles) -> Self {
        KrecConfig {
            every_cycles: Some(n.max(1)),
            ..Self::manual()
        }
    }

    /// Snapshot every `n`-th user dispatch site (site 0, n, 2n, ...).
    pub fn every_sites(n: u64) -> Self {
        KrecConfig {
            every_sites: Some(n.max(1)),
            ..Self::manual()
        }
    }

    /// Snapshot at exactly dispatch site `s`.
    pub fn at_site(s: u64) -> Self {
        KrecConfig {
            at_site: Some(s),
            ..Self::manual()
        }
    }

    /// Set the snapshot-ring capacity (minimum 1).
    pub fn with_ring(mut self, n: usize) -> Self {
        self.ring = n.max(1);
        self
    }
}

/// One serialized kernel state, stamped with where in the run it was taken.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Simulated cycle at capture (max over CPU clocks).
    pub at_cycle: Cycles,
    /// Index of the [`RunWindow`] this snapshot belongs to: the window
    /// running at capture (mid-run triggers) or the next window to start
    /// (manual snapshots between `run` calls).
    pub window_index: usize,
    /// Dispatch-site ordinal at capture (next site to dispatch).
    pub site: u64,
    /// Whether the snapshot was taken inside a `run` call (at a dispatch
    /// boundary) rather than between calls.
    pub mid_run: bool,
    /// The full serialized image (including magic/version/digest trailer).
    pub bytes: Vec<u8>,
}

impl Snapshot {
    /// The state digest stamped in the image's trailer.
    pub fn digest(&self) -> u64 {
        let n = self.bytes.len();
        u64::from_le_bytes(self.bytes[n - 8..].try_into().unwrap())
    }
}

/// One recorded `Kernel::run(limit)` call: the limit to re-issue and the
/// state digests that bracket it. `limit` is an *absolute* cycle deadline,
/// so re-issuing it from any intermediate state inside the window
/// deterministically lands on the same window end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunWindow {
    /// The limit passed to `run` (absolute cycle deadline, or none).
    pub limit: Option<Cycles>,
    /// Simulated cycle at window start.
    pub start_cycle: Cycles,
    /// Simulated cycle at window end.
    pub end_cycle: Cycles,
    /// State digest at window start.
    pub start_digest: u64,
    /// State digest at window end.
    pub end_digest: u64,
    /// How the window's `run` call returned.
    pub exit: RunExit,
}

/// Live recorder state, held by the kernel when `Config::with_krec` armed
/// it. Everything here is host-side: none of it is part of the snapshot
/// image, so recorded and replayed kernels digest-match.
#[derive(Debug)]
pub struct Krec {
    /// The arming configuration.
    pub cfg: KrecConfig,
    pub(crate) snapshots: VecDeque<Snapshot>,
    pub(crate) windows: Vec<RunWindow>,
    pub(crate) sites_seen: u64,
    pub(crate) next_cycle_due: Option<Cycles>,
    pub(crate) taken: u64,
    pub(crate) dropped: u64,
    pub(crate) bytes_total: u64,
}

impl Krec {
    pub(crate) fn new(cfg: KrecConfig) -> Self {
        Krec {
            next_cycle_due: cfg.every_cycles,
            cfg,
            snapshots: VecDeque::new(),
            windows: Vec::new(),
            sites_seen: 0,
            taken: 0,
            dropped: 0,
            bytes_total: 0,
        }
    }

    pub(crate) fn push_snapshot(&mut self, s: Snapshot) {
        self.taken += 1;
        self.bytes_total += s.bytes.len() as u64;
        if self.snapshots.len() >= self.cfg.ring {
            self.snapshots.pop_front();
            self.dropped += 1;
        }
        self.snapshots.push_back(s);
    }

    /// Snapshots currently in the ring (oldest first).
    pub fn snapshots(&self) -> &VecDeque<Snapshot> {
        &self.snapshots
    }

    /// Run windows recorded so far.
    pub fn windows(&self) -> &[RunWindow] {
        &self.windows
    }

    /// User-thread dispatch-boundary sites seen so far (the snapshot-site
    /// space a sweep strides over).
    pub fn sites_seen(&self) -> u64 {
        self.sites_seen
    }

    /// Snapshots taken over the recorder's lifetime.
    pub fn taken(&self) -> u64 {
        self.taken
    }

    /// Snapshots evicted from the bounded ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total serialized bytes across all snapshots taken.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }
}

/// A finished recording: the snapshot ring plus the run-window log, taken
/// off a kernel with [`Kernel::take_recording`].
#[derive(Debug, Default)]
pub struct Recording {
    /// Snapshots, oldest first.
    pub snapshots: Vec<Snapshot>,
    /// Every `run` call, in order.
    pub windows: Vec<RunWindow>,
}

impl Recording {
    /// The exclusive end of the replayable *epoch* starting at window
    /// `start`: windows re-execute deterministically until the first window
    /// whose start digest differs from its predecessor's end digest (the
    /// host mutated kernel state between those `run` calls).
    pub fn epoch_end(&self, start: usize) -> usize {
        let mut j = start + 1;
        while j < self.windows.len() {
            if self.windows[j].start_digest != self.windows[j - 1].end_digest {
                return j;
            }
            j += 1;
        }
        self.windows.len()
    }

    /// Index of the latest snapshot taken at or before `cycle`, if any.
    pub fn snapshot_at_or_before(&self, cycle: Cycles) -> Option<usize> {
        self.snapshots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.at_cycle <= cycle)
            .max_by_key(|(i, s)| (s.at_cycle, *i))
            .map(|(i, _)| i)
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// A re-execution diverged from the recording: same snapshot, same `run`
/// limits, different resulting state. In a deterministic simulator this is
/// a hard error (a serialization gap or host-dependent behavior).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the diverging window.
    pub window: usize,
    /// Recorded end-of-window state digest.
    pub expected_digest: u64,
    /// Re-executed end-of-window state digest.
    pub got_digest: u64,
    /// Recorded end-of-window cycle.
    pub expected_cycle: Cycles,
    /// Re-executed end-of-window cycle.
    pub got_cycle: Cycles,
    /// Recorded `run` exit.
    pub expected_exit: RunExit,
    /// Re-executed `run` exit.
    pub got_exit: RunExit,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replay diverged at window {}: digest {:#018x} -> {:#018x}, \
             cycle {} -> {}, exit {:?} -> {:?}",
            self.window,
            self.expected_digest,
            self.got_digest,
            self.expected_cycle,
            self.got_cycle,
            self.expected_exit,
            self.got_exit
        )
    }
}

/// A structured replay failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// Snapshot decode failed.
    Snap(SnapError),
    /// Re-execution did not reproduce the recording.
    Divergence(Divergence),
    /// The requested snapshot index does not exist.
    NoSuchSnapshot(usize),
    /// A manual snapshot's state does not match the start of the window it
    /// claims to precede (the host mutated the kernel in between).
    SnapshotNotAtWindowStart {
        /// The window the snapshot points at.
        window: usize,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Snap(e) => write!(f, "snapshot error: {e}"),
            ReplayError::Divergence(d) => d.fmt(f),
            ReplayError::NoSuchSnapshot(i) => write!(f, "no snapshot at index {i}"),
            ReplayError::SnapshotNotAtWindowStart { window } => write!(
                f,
                "snapshot state does not match the start of window {window} \
                 (kernel was mutated between snapshot and run)"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<SnapError> for ReplayError {
    fn from(e: SnapError) -> Self {
        ReplayError::Snap(e)
    }
}

/// Drives deterministic re-execution of a [`Recording`] from one of its
/// snapshots, verifying each re-executed window against the recorded
/// digests.
pub struct Replayer<'a> {
    rec: &'a Recording,
    /// The restored kernel being re-executed. Public so debuggers can
    /// inspect (and slice-run) it between windows.
    pub kernel: Kernel,
    widx: usize,
    epoch_end: usize,
    verified: usize,
}

impl<'a> Replayer<'a> {
    /// Restore snapshot `snap_index` and prepare to re-execute its epoch.
    pub fn start(rec: &'a Recording, snap_index: usize) -> Result<Self, ReplayError> {
        let snap = rec
            .snapshots
            .get(snap_index)
            .ok_or(ReplayError::NoSuchSnapshot(snap_index))?;
        let kernel = Kernel::restore_from(&snap.bytes)?;
        let widx = snap.window_index;
        if !snap.mid_run {
            // A between-runs snapshot must exactly match the start of the
            // window it points at, else the host mutated state after it.
            if let Some(w) = rec.windows.get(widx) {
                if snap.digest() != w.start_digest {
                    return Err(ReplayError::SnapshotNotAtWindowStart { window: widx });
                }
            }
        }
        let epoch_end = rec.epoch_end(widx);
        Ok(Replayer {
            rec,
            kernel,
            widx,
            epoch_end,
            verified: 0,
        })
    }

    /// Index of the next window to (re-)execute.
    pub fn window_index(&self) -> usize {
        self.widx
    }

    /// Exclusive end of the replayable epoch.
    pub fn epoch_end(&self) -> usize {
        self.epoch_end
    }

    /// Whether the epoch is fully re-executed.
    pub fn done(&self) -> bool {
        self.widx >= self.epoch_end
    }

    /// Windows re-executed and digest-verified so far.
    pub fn windows_verified(&self) -> usize {
        self.verified
    }

    /// The window about to be (re-)executed, if any.
    pub fn current_window(&self) -> Option<&'a RunWindow> {
        if self.done() {
            None
        } else {
            Some(&self.rec.windows[self.widx])
        }
    }

    /// Re-execute the current window to its end and verify digest, cycle
    /// and exit against the recording. Returns the verified window, or
    /// `None` at epoch end.
    pub fn step_window(&mut self) -> Result<Option<&'a RunWindow>, ReplayError> {
        let Some(w) = self.current_window() else {
            return Ok(None);
        };
        let exit = self.kernel.run(w.limit);
        self.check_window_end(w, exit)?;
        self.widx += 1;
        self.verified += 1;
        Ok(Some(w))
    }

    /// Advance re-execution inside the current window up to (at least)
    /// simulated cycle `target`, without crossing the window end. Returns
    /// `true` if the window completed (end verified) in the process.
    ///
    /// Sub-slicing a window with tighter limits is behavior-neutral: the
    /// run loop's stop condition is a pure function of state and the
    /// absolute deadline (the double-run digest tests pin this).
    pub fn run_to_cycle(&mut self, target: Cycles) -> Result<bool, ReplayError> {
        let Some(w) = self.current_window() else {
            return Ok(false);
        };
        if target >= w.end_cycle {
            self.step_window()?;
            return Ok(true);
        }
        let lim = match w.limit {
            Some(l) => Some(l.min(target)),
            None => Some(target),
        };
        self.kernel.run(lim);
        Ok(false)
    }

    fn check_window_end(&self, w: &RunWindow, exit: RunExit) -> Result<(), ReplayError> {
        let got = self.kernel.state_digest()?;
        let now = self.kernel.now();
        if got != w.end_digest || now != w.end_cycle || exit != w.exit {
            return Err(ReplayError::Divergence(Divergence {
                window: self.widx,
                expected_digest: w.end_digest,
                got_digest: got,
                expected_cycle: w.end_cycle,
                got_cycle: now,
                expected_exit: w.exit,
                got_exit: exit,
            }));
        }
        Ok(())
    }

    /// Re-execute every remaining window of the epoch, verifying each.
    /// Returns the number of windows verified.
    pub fn run_to_epoch_end(&mut self) -> Result<usize, ReplayError> {
        let mut n = 0;
        while self.step_window()?.is_some() {
            n += 1;
        }
        Ok(n)
    }
}

/// FNV-1a digest of the kernel's merged trace suffix: every record with
/// `at >= since`, in merged (at, cpu, seq) order. Replay re-fills trace
/// rings identically, so equal suffix digests certify bit-identical
/// re-execution at the event level, not just the end state.
pub fn trace_suffix_digest(k: &Kernel, since: Cycles) -> u64 {
    let mut w = SnapWriter::hash_only();
    for rec in k.trace.merged() {
        if rec.at >= since {
            rec.snap(&mut w);
        }
    }
    w.digest()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snap + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        let bytes = w.finish();
        let body = &bytes[..bytes.len() - 8];
        let mut r = SnapReader::new(body);
        let back = T::restore(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(&back, v);
        // Canonical: re-encode is byte-identical.
        let mut w2 = SnapWriter::new();
        back.snap(&mut w2);
        assert_eq!(w2.finish(), bytes);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&0xabcdu16);
        roundtrip(&0xdead_beefu32);
        roundtrip(&u64::MAX);
        roundtrip(&usize::MAX);
        roundtrip(&(-7i32));
        roundtrip(&true);
        roundtrip(&String::from("héllo"));
        roundtrip(&Some(42u32));
        roundtrip(&Option::<u32>::None);
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&VecDeque::from([9u32, 8, 7]));
        roundtrip(&BTreeMap::from([(1u32, 2u64), (3, 4)]));
        roundtrip(&(1u32, true, String::from("x")));
        roundtrip(&[1u64, 2, 3, 4]);
    }

    #[test]
    fn hashmap_encoding_is_sorted() {
        let mut a = HashMap::new();
        let mut b = HashMap::new();
        for i in 0..64u32 {
            a.insert(i, i * 2);
        }
        for i in (0..64u32).rev() {
            b.insert(i, i * 2);
        }
        let (mut wa, mut wb) = (SnapWriter::new(), SnapWriter::new());
        a.snap(&mut wa);
        b.snap(&mut wb);
        assert_eq!(wa.finish(), wb.finish());
        roundtrip(&a);
    }

    #[test]
    fn arch_types_roundtrip() {
        roundtrip(&Reg::Esi);
        roundtrip(&Cond::Ge);
        for i in [
            Instr::MovI(Reg::Eax, 7),
            Instr::Store(Reg::Ebp, -4, Reg::Ecx),
            Instr::Jmp(Cond::Ne, 12),
            Instr::RepMovsB,
            Instr::Syscall,
            Instr::Halt,
        ] {
            roundtrip(&i);
        }
        let mut regs = UserRegs::new();
        regs.set(Reg::Edx, 99);
        regs.eip = 3;
        regs.pr = [5, 6];
        roundtrip(&regs);
        roundtrip(&Program::new("p", vec![Instr::Nop, Instr::Halt]));
        roundtrip(&CostModel::pentium_pro_200());
        let mut c = Cpu::new(2);
        c.now = 12345;
        let mut w = SnapWriter::new();
        c.snap(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes[..bytes.len() - 8]);
        let back = Cpu::restore(&mut r).unwrap();
        assert_eq!((back.id, back.now), (2, 12345));
    }

    /// One `snap_enum!` type's tag table: `samples` cover every tag the
    /// decoder accepts, each once, and round-trip byte-identically; every
    /// other tag, the first unlisted one included, is a `BadTag` naming
    /// the type.
    fn check_tags<T: Snap>(what: &'static str, samples: &[T]) {
        let mut listed = [false; 256];
        for v in samples {
            let mut w = SnapWriter::new();
            v.snap(&mut w);
            let bytes = w.finish();
            let body = &bytes[..bytes.len() - 8];
            let mut r = SnapReader::new(body);
            let back = T::restore(&mut r).unwrap_or_else(|e| panic!("{what}: {e}"));
            r.expect_end().unwrap();
            let mut w2 = SnapWriter::new();
            back.snap(&mut w2);
            assert_eq!(w2.finish(), bytes, "{what} tag {} re-encodes", body[0]);
            assert!(!listed[body[0] as usize], "{what}: tag {} twice", body[0]);
            listed[body[0] as usize] = true;
        }
        for tag in 0..=255u8 {
            let got = T::restore(&mut SnapReader::new(&[tag])).err();
            let bad = Some(SnapError::BadTag {
                what,
                tag: tag as u32,
            });
            assert_eq!(
                got == bad,
                !listed[tag as usize],
                "{what} tag {tag}: {got:?}"
            );
        }
    }

    #[test]
    fn every_snap_enum_tag_round_trips_and_the_rest_are_bad_tags() {
        use crate::conn::{ClientEnd, KernelMsg};
        use crate::events::EventKind;
        use crate::ids::{ConnId, ObjId, SpaceId, ThreadId};
        use crate::kernel::{LockClass, LockKey};
        use crate::kspan::{Contended, Seg};
        use crate::kstat::{FaultKind, FaultSide};
        use crate::object::ObjData;
        use crate::thread::{IpcRole, ObjKind, RunState, WaitReason};
        use crate::trace::TraceEvent;
        use crate::waitq::WaitQueue;
        use Reg::{Eax as A, Ecx as C};

        let (o, c, t, s) = (ObjId(3), ConnId(4), ThreadId(5), SpaceId(6));
        check_tags(
            "Cond",
            &[Cond::Always, Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge],
        );
        check_tags(
            "Instr",
            &[
                Instr::MovI(A, 7),
                Instr::Mov(A, C),
                Instr::Add(A, C),
                Instr::AddI(A, 1),
                Instr::Sub(A, C),
                Instr::SubI(A, 2),
                Instr::Mul(A, C),
                Instr::Xor(A, C),
                Instr::AndI(A, 3),
                Instr::ShrI(A, 4),
                Instr::ShlI(A, 5),
                Instr::Cmp(A, C),
                Instr::CmpI(A, 6),
                Instr::Jmp(Cond::Ne, 12),
                Instr::Load(A, C, -4),
                Instr::Store(C, 8, A),
                Instr::LoadB(A, C, 1),
                Instr::StoreB(C, -1, A),
                Instr::Push(A),
                Instr::Pop(C),
                Instr::RepMovsB,
                Instr::RepStosB,
                Instr::Syscall,
                Instr::Compute(99),
                Instr::Halt,
                Instr::Nop,
            ],
        );
        check_tags("ExecModel", &[ExecModel::Process, ExecModel::Interrupt]);
        check_tags(
            "Preemption",
            &[Preemption::None, Preemption::Partial, Preemption::Full],
        );
        check_tags("IpcRole", &[IpcRole::Client, IpcRole::Server]);
        let reasons = [
            WaitReason::Mutex(o),
            WaitReason::Cond(o),
            WaitReason::PortWait(o),
            WaitReason::PsetWait(o),
            WaitReason::IpcConnect(o),
            WaitReason::IpcSend(c),
            WaitReason::IpcReceive(c),
            WaitReason::OnewaySend(o),
            WaitReason::OnewayReceive(o),
            WaitReason::PagerReply(c),
            WaitReason::Join(t),
            WaitReason::Sleep,
            WaitReason::SpaceIdle(s),
            WaitReason::Donate(t),
        ];
        check_tags("WaitReason", &reasons);
        check_tags(
            "RunState",
            &[
                RunState::Stopped,
                RunState::Ready,
                RunState::Running(2),
                RunState::Blocked(WaitReason::Join(t)),
                RunState::Halted,
            ],
        );
        check_tags(
            "ObjKind",
            &[
                ObjKind::Mutex,
                ObjKind::Cond,
                ObjKind::Port,
                ObjKind::Pset,
                ObjKind::Conn,
                ObjKind::Thread,
                ObjKind::Space,
            ],
        );
        check_tags(
            "LockClass",
            &[
                LockClass::Sched,
                LockClass::Handles,
                LockClass::Space,
                LockClass::Ipc,
                LockClass::Klock,
            ],
        );
        check_tags(
            "Contended",
            &[
                Contended::Object(ObjKind::Conn, 206),
                Contended::Lock(LockClass::Klock),
            ],
        );
        check_tags(
            "ObjData",
            &[
                ObjData::Mutex {
                    locked: true,
                    waiters: WaitQueue::new(),
                },
                ObjData::Cond {
                    waiters: WaitQueue::new(),
                },
                ObjData::Mapping {
                    space: s,
                    base: 0x1000,
                    size: 0x2000,
                    region: o,
                    offset: 16,
                    region_token: 7,
                    writable: true,
                },
                ObjData::Region {
                    owner: s,
                    base: 0x4000,
                    size: 0x1000,
                    keeper: Some(o),
                    keeper_token: 8,
                    self_token: 9,
                },
                ObjData::Port {
                    pset: None,
                    pset_token: 0,
                    connect_q: WaitQueue::new(),
                    server_q: WaitQueue::new(),
                    oneway_senders: WaitQueue::new(),
                    oneway_receivers: WaitQueue::new(),
                    buffered: VecDeque::new(),
                },
                ObjData::Pset {
                    members: vec![o],
                    server_q: WaitQueue::new(),
                },
                ObjData::Space(s),
                ObjData::Thread(t),
                ObjData::Ref {
                    target: Some(o),
                    target_token: 10,
                },
            ],
        );
        let class = Some(SysClass::ALL[1]);
        check_tags(
            "TraceEvent",
            &[
                TraceEvent::SyscallEnter {
                    thread: t,
                    sys: 1,
                    class,
                },
                TraceEvent::SyscallRestart {
                    thread: t,
                    sys: 2,
                    class: None,
                },
                TraceEvent::SyscallExit {
                    thread: t,
                    code: 3,
                    class,
                },
                TraceEvent::IpcSend {
                    thread: t,
                    bytes: 4,
                },
                TraceEvent::IpcReceive {
                    thread: t,
                    window: 5,
                },
                TraceEvent::IpcTransfer {
                    thread: t,
                    bytes: 6,
                },
                TraceEvent::IpcMessage { thread: t },
                TraceEvent::SoftFault {
                    thread: t,
                    addr: 7,
                    remedy: 8,
                },
                TraceEvent::HardFault {
                    thread: t,
                    offset: 9,
                },
                TraceEvent::HardFaultDone {
                    thread: t,
                    remedy: 10,
                },
                TraceEvent::Rollback {
                    thread: t,
                    cycles: 11,
                },
                TraceEvent::CtxSwitch {
                    thread: t,
                    space_switch: true,
                },
                TraceEvent::UserPreempt { thread: t },
                TraceEvent::KernelPreempt { thread: t },
                TraceEvent::Block { thread: t },
                TraceEvent::Wake { thread: t },
                TraceEvent::Halt { thread: t },
                TraceEvent::Mark {
                    thread: t,
                    value: 12,
                },
                TraceEvent::FaultInjected {
                    thread: t,
                    kind: 1,
                    site: 13,
                },
            ],
        );
        check_tags(
            "FaultSide",
            &[FaultSide::Client, FaultSide::Server, FaultSide::Other],
        );
        check_tags("FaultKind", &[FaultKind::Soft, FaultKind::Hard]);
        check_tags(
            "Seg",
            &[Seg::OnCpu, Seg::Runnable, Seg::Blocked(WaitReason::Sleep)],
        );
        check_tags(
            "ClientEnd",
            &[
                ClientEnd::Thread(t),
                ClientEnd::Kernel(KernelMsg {
                    bytes: vec![1, 2],
                    pos: 1,
                    fault_thread: t,
                    raised_at: 14,
                    record: 0,
                    reply: Vec::new(),
                }),
            ],
        );
        check_tags(
            "EventKind",
            &[
                EventKind::Wake(t),
                EventKind::Periodic {
                    thread: t,
                    interval: 15,
                },
                EventKind::TimesliceEnd {
                    cpu: 1,
                    generation: 16,
                },
            ],
        );
        check_tags(
            "LockKey",
            &[
                LockKey::Sched,
                LockKey::RunQueue(1),
                LockKey::Handles(2),
                LockKey::Space(3),
                LockKey::Conn(4),
                LockKey::Global,
            ],
        );
    }

    #[test]
    fn api_types_roundtrip() {
        roundtrip(&Sys::from_u32(0).unwrap());
        roundtrip(&SysClass::ALL[3]);
        roundtrip(&ErrorCode::Success);
        roundtrip(&ObjType::Port);
    }

    #[test]
    fn config_roundtrip_drops_krec() {
        let mut cfg = Config::process_pp()
            .with_tracing(1 << 12)
            .with_kprof()
            .with_kspan()
            .with_cpus(4);
        cfg.krec = Some(KrecConfig::every_sites(10));
        let mut w = SnapWriter::new();
        cfg.snap(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes[..bytes.len() - 8]);
        let back = Config::restore(&mut r).unwrap();
        r.expect_end().unwrap();
        assert!(back.krec.is_none());
        assert_eq!(back.label, "Process PP (MP)");
        assert_eq!(back.num_cpus, 4);
        assert!(back.trace.enabled && back.kprof && back.kspan);
        // Encoding is identical whether or not krec is armed.
        let mut plain = cfg.clone();
        plain.krec = None;
        let mut w2 = SnapWriter::new();
        plain.snap(&mut w2);
        assert_eq!(w2.finish(), bytes);
    }

    #[test]
    fn label_interning_reuses_literals() {
        let a = intern_static(String::from("Process NP"));
        assert_eq!(a, "Process NP");
        let b = intern_static(String::from("custom label"));
        let c = intern_static(String::from("custom label"));
        assert!(std::ptr::eq(b, c));
    }

    #[test]
    fn digest_trailer_matches_stream() {
        let mut w = SnapWriter::new();
        w.u64(0x1122_3344_5566_7788);
        w.str("trailer");
        let d = w.digest();
        let bytes = w.finish();
        let n = bytes.len();
        assert_eq!(u64::from_le_bytes(bytes[n - 8..].try_into().unwrap()), d);
        assert_eq!(fnv64(FNV_OFFSET, &bytes[..n - 8]), d);
    }

    #[test]
    fn hash_only_writer_matches_materialized() {
        let mut a = SnapWriter::new();
        let mut b = SnapWriter::hash_only();
        for w in [&mut a, &mut b] {
            w.u32(7);
            w.str("same");
            w.bool(true);
        }
        assert_eq!(a.digest(), b.digest());
        assert!(b.finish().is_empty());
    }

    #[test]
    fn epoch_detection_splits_on_digest_gap() {
        let mk = |s: u64, e: u64| RunWindow {
            limit: None,
            start_cycle: 0,
            end_cycle: 0,
            start_digest: s,
            end_digest: e,
            exit: RunExit::AllHalted,
        };
        let rec = Recording {
            snapshots: vec![],
            windows: vec![mk(1, 2), mk(2, 3), mk(99, 4), mk(4, 5)],
        };
        assert_eq!(rec.epoch_end(0), 2);
        assert_eq!(rec.epoch_end(2), 4);
    }
}
