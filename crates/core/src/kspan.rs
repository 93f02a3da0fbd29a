//! `kspan`: deterministic causal request tracing and critical-path
//! latency attribution.
//!
//! A **request** is one top-level system-call invocation: a span opens
//! when a user thread enters the kernel with no span active, survives
//! restarts, preemptions and blocking (the atomic API's register
//! continuation *is* the request in flight), and closes when the call
//! completes user-visibly — at `finish_syscall` for a running thread or
//! at `complete_blocked` for continuation recognition. Spans are stitched
//! **causally across IPC**: when a message transfer completes, a flow
//! edge links the sender's span to the receiver's, and a parentless
//! single-span request on the receiving side is adopted into the sender's
//! request — so a server's handler work is attributed to the client
//! request that caused it, while reply edges never re-root the client
//! (its request already contains the adopted server span).
//!
//! For every completed request the layer decomposes end-to-end simulated
//! cycles into five exhaustive buckets — on-CPU, runnable-but-waiting-
//! for-CPU, blocked-on-IPC, lock-wait, and other blocking (sleep/join/
//! space-idle) — with the invariant that the buckets **sum exactly** to
//! end-to-end cycles, the same sum-exactness contract `kprof` carries.
//! The decomposition is driven by a per-span segment state machine with
//! telescoping timestamps: each scheduler transition closes the current
//! segment at the acting CPU's clock and opens the next at the same
//! instant, so no cycle is counted twice or dropped.
//!
//! Wait-queue cycles are additionally attributed to the *specific object*
//! waited on (mutex, condvar, port, portset, connection, thread, space),
//! keyed by a typed [`Contended`] `(kind, index)`, and kernel-lock waits
//! to their lock class (the big kernel lock as `klock`). kstat reports
//! them summed per kind and per class (`kernel.contention.object.*`,
//! `kernel.contention.lock.*`), a fixed set of rows; the per-object view
//! is the bounded [`Kspan::top_contended`] list.
//!
//! Everything here is host-side observation: the layer consumes the
//! kernel's probe stream (`Kspan::observe`), reads the simulated clock
//! and mutates only this struct, never a simulated quantity. Enabled,
//! runs are bit-identical to the blessed golden trace digests (the
//! zero-perturbation proof obligation, enforced in the bench tests).

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;

use fluke_api::Sys;
use fluke_arch::cost::Cycles;

use crate::ids::ThreadId;
use crate::kernel::LockClass;
use crate::kprof::{self, PathCycles};
use crate::probe::{Probe, ProbeCx};
use crate::thread::{ObjKind, WaitClass, WaitReason};
use crate::trace::Histogram;

/// Pseudo phase-path code for user-mode cycles inside a request
/// (re-execution of the trapping instruction after a restart). Real
/// kernel paths are packed `kprof` nibble codes and never reach this
/// value.
pub const USER_FRAME: u32 = u32::MAX;

/// Render a per-request frame code as a collapsed-stack name: the
/// `kprof` phase path (`kernel;dispatch;ipc_copy`) or `user` for
/// [`USER_FRAME`].
pub fn frame_name(code: u32) -> String {
    if code == USER_FRAME {
        "user".to_string()
    } else {
        kprof::path_name(code)
    }
}

/// Which segment of its critical path a span is currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Seg {
    /// On a CPU (running user re-execution or being charged kernel work).
    OnCpu,
    /// Runnable: on a ready queue, waiting for a CPU.
    Runnable,
    /// Blocked for the given reason.
    Blocked(WaitReason),
}

/// One live span: a request in flight on one thread.
#[derive(Debug)]
struct Span {
    /// Request id (shared by all spans stitched into one request).
    req: u64,
    /// This span's unique id.
    id: u64,
    /// Parent span id, if this span was adopted into another request.
    parent: Option<u64>,
    /// Request class: the root entrypoint's name (`sys_null`, …).
    class: &'static str,
    /// Simulated time the span opened.
    open_at: Cycles,
    /// Start of the current segment (telescoping timestamp).
    seg_start: Cycles,
    /// The current segment.
    seg: Seg,
    /// Lock-wait cycles accumulated inside the current on-CPU segment
    /// (big-lock waits and the Full-preemption surcharge); carved out of
    /// the segment into the lock bucket when it closes.
    seg_lock: Cycles,
    on_cpu: Cycles,
    runnable_wait: Cycles,
    blocked_ipc: Cycles,
    lock_wait: Cycles,
    blocked_other: Cycles,
    /// Per-request flamegraph: packed `kprof` path → cycles charged while
    /// this span was on CPU ([`USER_FRAME`] for user re-execution).
    frames: PathCycles,
}

/// Values keyed by thread, held in a vector indexed by the thread's arena
/// index: a lookup is one bounds check, and an entry is written in place.
/// Thread indices are arena slots, so the vector never outgrows the
/// thread arena. It reads and encodes like the `BTreeMap<ThreadId, T>` it
/// replaces: entries in ascending thread order.
#[derive(Debug)]
pub struct ByThread<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for ByThread<T> {
    fn default() -> Self {
        ByThread { slots: Vec::new() }
    }
}

impl<T> ByThread<T> {
    /// `t`'s entry.
    pub fn get(&self, t: ThreadId) -> Option<&T> {
        self.slots.get(t.0 as usize)?.as_ref()
    }

    /// `t`'s entry, mutably.
    pub fn get_mut(&mut self, t: ThreadId) -> Option<&mut T> {
        self.slots.get_mut(t.0 as usize)?.as_mut()
    }

    /// Whether `t` has an entry.
    pub fn contains_key(&self, t: ThreadId) -> bool {
        self.get(t).is_some()
    }

    /// Set `t`'s entry, returning the one it replaces.
    pub fn insert(&mut self, t: ThreadId, v: T) -> Option<T> {
        let i = t.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i].replace(v)
    }

    /// Remove and return `t`'s entry.
    pub fn remove(&mut self, t: ThreadId) -> Option<T> {
        self.slots.get_mut(t.0 as usize)?.take()
    }

    /// Every entry, in ascending thread order.
    pub fn iter(&self) -> impl Iterator<Item = (ThreadId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| Some((ThreadId(i as u32), v.as_ref()?)))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|v| v.is_some()).count()
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }
}

impl<T> Index<&ThreadId> for ByThread<T> {
    type Output = T;
    fn index(&self, t: &ThreadId) -> &T {
        self.get(*t).expect("no entry for the thread")
    }
}

/// One completed request's critical-path record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// Request id (shared across stitched spans).
    pub req: u64,
    /// This span's id.
    pub span: u64,
    /// Parent span id, if this span was adopted into another request.
    pub parent: Option<u64>,
    /// Request class: the root entrypoint's name.
    pub class: &'static str,
    /// The thread that executed the span.
    pub thread: ThreadId,
    /// Simulated open time.
    pub open_at: Cycles,
    /// Simulated close time.
    pub close_at: Cycles,
    /// Cycles on a CPU (kernel charges and user re-execution), lock
    /// waits excluded.
    pub on_cpu: Cycles,
    /// Cycles runnable but waiting for a CPU (including donated waits).
    pub runnable_wait: Cycles,
    /// Cycles blocked on IPC (connections, ports, portsets, pagers).
    pub blocked_ipc: Cycles,
    /// Cycles waiting for locks: mutex/condvar queues, big-lock waits,
    /// and the Full-preemption locking surcharge.
    pub lock_wait: Cycles,
    /// Cycles in other blocking waits (sleep, join, space-idle).
    pub blocked_other: Cycles,
}

impl RequestRecord {
    /// End-to-end simulated cycles, kernel entry to completion.
    pub fn e2e(&self) -> Cycles {
        self.close_at - self.open_at
    }

    /// Sum of all five decomposition buckets. Equals [`Self::e2e`]
    /// exactly — the sum-exactness invariant.
    pub fn decomposed(&self) -> Cycles {
        self.on_cpu + self.runnable_wait + self.blocked_ipc + self.lock_wait + self.blocked_other
    }
}

/// A causal flow edge: an IPC message transfer completed from the
/// sender's span to the receiver's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEdge {
    /// The sending span.
    pub from_span: u64,
    /// The receiving span.
    pub to_span: u64,
    /// The sending thread.
    pub from_thread: ThreadId,
    /// The receiving thread.
    pub to_thread: ThreadId,
    /// Simulated time of the transfer completion.
    pub at: Cycles,
}

/// What one contention entry counts: waits on one object, or waits on
/// one kernel-lock class. Displays as `conn_206` or `klock`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Contended {
    /// An object of the given kind, by arena index.
    Object(ObjKind, u32),
    /// A kernel-lock class.
    Lock(LockClass),
}

impl Contended {
    /// The kind or class name, then the object index (`None` for a lock
    /// class): the tie-break order of [`Kspan::top_contended`].
    fn name_index(self) -> (&'static str, Option<u32>) {
        match self {
            Contended::Object(kind, i) => (ObjKind::NAMES[kind as usize], Some(i)),
            Contended::Lock(class) => (LockClass::NAMES[class as usize], None),
        }
    }
}

impl fmt::Display for Contended {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.name_index() {
            (name, Some(i)) => write!(f, "{name}_{i}"),
            (name, None) => f.write_str(name),
        }
    }
}

/// Wait cycles and wait counts attributed to one contended object.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObjectContention {
    /// Total cycles threads spent waiting on the object.
    pub wait_cycles: Cycles,
    /// Number of completed waits on the object.
    pub waits: u64,
}

/// The kspan layer held by the kernel. Fed by the probe stream; disabled
/// it records nothing, enabled it mutates only this struct.
#[derive(Debug, Default)]
pub struct Kspan {
    /// Whether causal tracing is active (set from `Config::kspan`).
    pub enabled: bool,
    next_req: u64,
    next_span: u64,
    /// At most one active span per thread.
    active: ByThread<Span>,
    /// Spans ever attached to each request (adoption-rule bookkeeping:
    /// a reply edge must not re-root a request that already contains an
    /// adopted span, even one that has since closed). Kept only for
    /// requests that have adopted a span; a request without an entry has
    /// one. Only a parentless root is ever adopted, so a request's size
    /// is read only while its root is open: the entry goes when the root
    /// closes or aborts, leaving at most one entry per open span.
    req_sizes: BTreeMap<u64, u64>,
    completed: Vec<RequestRecord>,
    aborted: u64,
    flows: Vec<FlowEdge>,
    contention: BTreeMap<Contended, ObjectContention>,
    class_hist: BTreeMap<&'static str, Histogram>,
    class_frames: BTreeMap<&'static str, PathCycles>,
    overall: Histogram,
}

impl Kspan {
    /// A kspan layer in the given state; allocates nothing until spans
    /// open.
    pub fn new(enabled: bool) -> Kspan {
        Kspan {
            enabled,
            ..Kspan::default()
        }
    }

    /// The `kspan` consumer of the probe stream: drive each thread's
    /// span through its segments, label charges with kprof's phase path,
    /// and stitch spans across completed user-to-user messages.
    pub(crate) fn observe(&mut self, p: &Probe, cx: &ProbeCx) {
        if !self.enabled {
            return;
        }
        match *p {
            Probe::Enter { thread, .. } => {
                let class = Sys::from_u32(cx.eax(thread)).map_or("invalid", |s| s.name());
                self.open(thread, class, cx.at);
            }
            Probe::Exit {
                thread,
                closes: true,
                ..
            }
            | Probe::Close { thread } => self.close(thread, cx.at),
            Probe::Block { thread, reason } | Probe::Rewait { thread, reason } => {
                self.transition(thread, Seg::Blocked(reason), cx.at)
            }
            Probe::Runnable { thread, at } => self.transition(thread, Seg::Runnable, at),
            // On-CPU starts at dispatch, so the context-switch charge lands
            // in the dispatched request's on-CPU bucket, mirroring kprof.
            Probe::Switch { thread, .. } => self.transition(thread, Seg::OnCpu, cx.at),
            Probe::Charge {
                cycles,
                lock_extra,
                phase,
            } => {
                if let Some(t) = cx.current {
                    let path = kprof::charge_path(cx.dispatch.is_some(), phase, cx.rollback);
                    self.charge(t, path, cycles - lock_extra, lock_extra);
                }
            }
            Probe::User { thread, cycles } => self.user(thread, cycles),
            // Run-queue waits have no class: they have their own
            // first-class counters (`kernel.contention.runq.*`).
            Probe::LockWait { key, cycles } => {
                if let Some(class) = key.class() {
                    self.lock_wait(cx.current, class, cycles)
                }
            }
            Probe::IpcMessage {
                flow: Some((from, to)),
                ..
            } => self.stitch(from, to, cx.at),
            Probe::Abort { thread } | Probe::Halt { thread } => self.abort(thread),
            _ => {}
        }
    }

    /// Open a span for `t` at kernel entry, unless one is already active
    /// (a restart or in-kernel re-entry continues the existing request).
    fn open(&mut self, t: ThreadId, class: &'static str, now: Cycles) {
        if self.active.contains_key(t) {
            return;
        }
        let req = self.next_req;
        self.next_req += 1;
        let id = self.next_span;
        self.next_span += 1;
        self.active.insert(
            t,
            Span {
                req,
                id,
                parent: None,
                class,
                open_at: now,
                seg_start: now,
                seg: Seg::OnCpu,
                seg_lock: 0,
                on_cpu: 0,
                runnable_wait: 0,
                blocked_ipc: 0,
                lock_wait: 0,
                blocked_other: 0,
                frames: PathCycles::default(),
            },
        );
    }

    /// Close the current segment at `now` (clamped so timestamps
    /// telescope even under cross-CPU clock skew) and open `new`.
    fn transition(&mut self, t: ThreadId, new: Seg, now: Cycles) {
        let Some(span) = self.active.get_mut(t) else {
            return;
        };
        let clamped = now.max(span.seg_start);
        let len = clamped - span.seg_start;
        let mut contended: Option<(WaitReason, Cycles)> = None;
        match span.seg {
            Seg::OnCpu => {
                let lock = span.seg_lock.min(len);
                span.on_cpu += len - lock;
                span.lock_wait += lock;
                span.seg_lock = 0;
            }
            Seg::Runnable => span.runnable_wait += len,
            Seg::Blocked(reason) => {
                match reason.wait_class() {
                    WaitClass::Lock => span.lock_wait += len,
                    WaitClass::Ipc => span.blocked_ipc += len,
                    WaitClass::CpuDonate => span.runnable_wait += len,
                    WaitClass::Other => span.blocked_other += len,
                }
                contended = Some((reason, len));
            }
        }
        span.seg_start = clamped;
        span.seg = new;
        if let Some((reason, len)) = contended {
            if let Some((kind, idx)) = reason.contended_object() {
                let e = self
                    .contention
                    .entry(Contended::Object(kind, idx))
                    .or_default();
                e.wait_cycles += len;
                e.waits += 1;
            }
        }
    }

    /// The thread's call completed user-visibly: close its span.
    fn close(&mut self, t: ThreadId, now: Cycles) {
        // Roll the final segment; the replacement kind is irrelevant.
        self.transition(t, Seg::OnCpu, now);
        let Some(span) = self.active.remove(t) else {
            return;
        };
        self.drop_root(&span);
        let rec = RequestRecord {
            req: span.req,
            span: span.id,
            parent: span.parent,
            class: span.class,
            thread: t,
            open_at: span.open_at,
            close_at: span.seg_start,
            on_cpu: span.on_cpu,
            runnable_wait: span.runnable_wait,
            blocked_ipc: span.blocked_ipc,
            lock_wait: span.lock_wait,
            blocked_other: span.blocked_other,
        };
        debug_assert_eq!(rec.decomposed(), rec.e2e(), "kspan sum-exactness");
        self.overall.record(rec.e2e());
        self.class_hist
            .entry(span.class)
            .or_default()
            .record(rec.e2e());
        self.class_frames
            .entry(span.class)
            .or_default()
            .merge(&span.frames);
        self.completed.push(rec);
    }

    /// The thread was halted or had wholesale new state installed
    /// mid-request: terminate its span cleanly without recording it.
    fn abort(&mut self, t: ThreadId) {
        if let Some(span) = self.active.remove(t) {
            self.drop_root(&span);
            self.aborted += 1;
        }
    }

    /// A span ended: if it was its request's root, no stitch can read
    /// the request's size again, so drop it.
    fn drop_root(&mut self, span: &Span) {
        if span.parent.is_none() {
            self.req_sizes.remove(&span.req);
        }
    }

    /// Attribute a kernel charge to the current span's flamegraph:
    /// `base` cycles under the current `kprof` path and `lock_extra`
    /// surcharge cycles under the lock path (also carved into the lock
    /// bucket at segment close).
    fn charge(&mut self, t: ThreadId, path: u32, base: Cycles, lock_extra: Cycles) {
        let Some(span) = self.active.get_mut(t) else {
            return;
        };
        span.frames.add(path, base);
        if lock_extra > 0 {
            span.frames.add(kprof::Phase::Lock as u32, lock_extra);
            span.seg_lock += lock_extra;
        }
    }

    /// Attribute user-mode cycles (restart re-execution of the trapping
    /// instruction) to the current span's flamegraph.
    fn user(&mut self, t: ThreadId, cycles: Cycles) {
        if cycles == 0 {
            return;
        }
        if let Some(span) = self.active.get_mut(t) {
            span.frames.add(USER_FRAME, cycles);
        }
    }

    /// A kernel-lock wait of `cycles` finished on the acting CPU (`t`
    /// its current thread, if any). Attributed to the contended lock's
    /// class ([`LockClass::Klock`] for the big lock), and carved out of
    /// the running span's on-CPU segment into the lock bucket.
    fn lock_wait(&mut self, t: Option<ThreadId>, class: LockClass, cycles: Cycles) {
        let e = self.contention.entry(Contended::Lock(class)).or_default();
        e.wait_cycles += cycles;
        e.waits += 1;
        if let Some(t) = t {
            if let Some(span) = self.active.get_mut(t) {
                span.seg_lock += cycles;
            }
        }
    }

    /// An IPC message transfer completed from `from`'s span to `to`'s:
    /// record the flow edge, and adopt the receiver into the sender's
    /// request when the receiver's span is a parentless root of a
    /// request no other span has ever joined (so reply edges never
    /// re-root the originating request).
    fn stitch(&mut self, from: ThreadId, to: ThreadId, now: Cycles) {
        if from == to {
            return;
        }
        let Some((from_id, from_req, from_parent)) =
            self.active.get(from).map(|s| (s.id, s.req, s.parent))
        else {
            return;
        };
        let Some((to_id, to_req, to_parent)) = self.active.get(to).map(|s| (s.id, s.req, s.parent))
        else {
            return;
        };
        self.flows.push(FlowEdge {
            from_span: from_id,
            to_span: to_id,
            from_thread: from,
            to_thread: to,
            at: now,
        });
        let adoptable = to_parent.is_none()
            && to_req != from_req
            && self.req_sizes.get(&to_req).copied().unwrap_or(1) == 1;
        if adoptable {
            let span = self.active.get_mut(to).expect("looked up above");
            span.req = from_req;
            span.parent = Some(from_id);
            self.req_sizes.remove(&to_req);
            // Count the adoption only while the sender's root is open: a
            // parentless sender is that root, and an adopted sender's
            // request has an entry exactly while its root is open.
            if from_parent.is_none() {
                *self.req_sizes.entry(from_req).or_insert(1) += 1;
            } else if let Some(n) = self.req_sizes.get_mut(&from_req) {
                *n += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Read-side accessors.
    // ------------------------------------------------------------------

    /// Every completed request's critical-path record, in completion
    /// order.
    pub fn completed(&self) -> &[RequestRecord] {
        &self.completed
    }

    /// Spans still open (must be zero once every thread has halted —
    /// spans never dangle).
    pub fn open_count(&self) -> usize {
        self.active.len()
    }

    /// Spans terminated by thread halt or state installation mid-request.
    pub fn aborted(&self) -> u64 {
        self.aborted
    }

    /// All causal flow edges, in transfer-completion order.
    pub fn flows(&self) -> &[FlowEdge] {
        &self.flows
    }

    /// Per-object contention: key (`mutex_3`, `conn_0`, `klock`, …) →
    /// wait cycles and counts.
    pub fn contention(&self) -> &BTreeMap<Contended, ObjectContention> {
        &self.contention
    }

    /// End-to-end latency histogram per request class.
    pub fn class_histograms(&self) -> &BTreeMap<&'static str, Histogram> {
        &self.class_hist
    }

    /// Collapsed flamegraph per request class: packed `kprof` path (or
    /// [`USER_FRAME`]) → cycles, aggregated over completed requests.
    pub fn class_frames(&self) -> &BTreeMap<&'static str, PathCycles> {
        &self.class_frames
    }

    /// End-to-end latency histogram across all completed requests.
    pub fn e2e_histogram(&self) -> &Histogram {
        &self.overall
    }

    /// The top `n` contended objects by wait cycles (ties: kind or class
    /// name, then object index), as `(key, contention)` pairs.
    pub fn top_contended(&self, n: usize) -> Vec<(Contended, ObjectContention)> {
        let mut v: Vec<(Contended, ObjectContention)> =
            self.contention.iter().map(|(k, c)| (*k, *c)).collect();
        v.sort_by(|a, b| {
            b.1.wait_cycles
                .cmp(&a.1.wait_cycles)
                .then(a.0.name_index().cmp(&b.0.name_index()))
        });
        v.truncate(n);
        v
    }
}

// --- krec snapshot support ------------------------------------------------

use crate::krec::{
    restore_class, snap_enum, snap_static_str, snap_struct, Snap, SnapError, SnapReader, SnapWriter,
};

snap_enum!(Seg {
    0 => OnCpu,
    1 => Runnable,
    2 => Blocked(reason),
});

// Request classes are `&'static str` entrypoint names; they round-trip
// through the syscall name table (`restore_class`).
snap_struct!(Span {
    req,
    id,
    parent,
    class => (snap_static_str, restore_class),
    open_at,
    seg_start,
    seg,
    seg_lock,
    on_cpu,
    runnable_wait,
    blocked_ipc,
    lock_wait,
    blocked_other,
    frames,
});

snap_struct!(RequestRecord {
    req,
    span,
    parent,
    class => (snap_static_str, restore_class),
    thread,
    open_at,
    close_at,
    on_cpu,
    runnable_wait,
    blocked_ipc,
    lock_wait,
    blocked_other,
});

snap_struct!(FlowEdge {
    from_span,
    to_span,
    from_thread,
    to_thread,
    at,
});

snap_enum!(Contended {
    0 => Object(kind, index),
    1 => Lock(class),
});

snap_struct!(ObjectContention { wait_cycles, waits });

fn snap_class_map<V: Snap>(m: &BTreeMap<&'static str, V>, w: &mut SnapWriter) {
    w.usize(m.len());
    for (k, v) in m {
        snap_static_str(k, w);
        v.snap(w);
    }
}

fn restore_class_map<V: Snap>(
    r: &mut SnapReader<'_>,
) -> Result<BTreeMap<&'static str, V>, SnapError> {
    let n = r.usize()?;
    let mut out = BTreeMap::new();
    for _ in 0..n {
        let k = restore_class(r)?;
        out.insert(k, V::restore(r)?);
    }
    Ok(out)
}

impl<T: Snap> ByThread<T> {
    /// Encode as a `BTreeMap<ThreadId, T>`: the entry count, then each
    /// `(thread, value)` in ascending thread order.
    pub fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for (t, v) in self.iter() {
            t.snap(w);
            v.snap(w);
        }
    }

    /// Decode what [`ByThread::snap`] wrote. `threads` bounds the thread
    /// indices (the thread arena's slot count): an index at or past it,
    /// or out of ascending order, is rejected before the vector grows.
    pub fn restore(r: &mut SnapReader<'_>, threads: usize) -> Result<Self, SnapError> {
        let n = r.usize()?;
        let mut out = ByThread::default();
        for _ in 0..n {
            let t = ThreadId::restore(r)?;
            if t.0 as usize >= threads {
                return Err(SnapError::Invalid("kspan span past the thread arena"));
            }
            if (t.0 as usize) < out.slots.len() {
                return Err(SnapError::Invalid("kspan spans out of thread order"));
            }
            out.insert(t, T::restore(r)?);
        }
        Ok(out)
    }
}

impl Kspan {
    /// Write kspan's snapshot section.
    pub(crate) fn snap_image(&self, w: &mut SnapWriter) {
        self.enabled.snap(w);
        self.next_req.snap(w);
        self.next_span.snap(w);
        self.active.snap(w);
        self.req_sizes.snap(w);
        self.completed.snap(w);
        self.aborted.snap(w);
        self.flows.snap(w);
        self.contention.snap(w);
        snap_class_map(&self.class_hist, w);
        snap_class_map(&self.class_frames, w);
        self.overall.snap(w);
    }

    /// Read a section written by [`Kspan::snap_image`]. `threads` is the
    /// restored thread arena's slot count, which bounds every live span's
    /// thread.
    pub(crate) fn restore_image(
        r: &mut SnapReader<'_>,
        threads: usize,
    ) -> Result<Kspan, SnapError> {
        Ok(Kspan {
            enabled: Snap::restore(r)?,
            next_req: Snap::restore(r)?,
            next_span: Snap::restore(r)?,
            active: ByThread::restore(r, threads)?,
            req_sizes: Snap::restore(r)?,
            completed: Snap::restore(r)?,
            aborted: Snap::restore(r)?,
            flows: Snap::restore(r)?,
            contention: Snap::restore(r)?,
            class_hist: restore_class_map(r)?,
            class_frames: restore_class_map(r)?,
            overall: Snap::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ConnId, ObjId};
    use crate::kernel::LockKey;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    fn feed(k: &mut Kspan, probes: &[Probe]) {
        crate::probe::tests::with_cx(0, false, |cx| {
            for p in probes {
                k.observe(p, cx);
            }
        });
    }

    #[test]
    fn disabled_layer_does_nothing() {
        let mut k = Kspan::new(false);
        feed(
            &mut k,
            &[
                Probe::Enter {
                    thread: T0,
                    restarting: false,
                },
                Probe::Block {
                    thread: T0,
                    reason: WaitReason::Sleep,
                },
                Probe::Close { thread: T0 },
                Probe::Abort { thread: T0 },
            ],
        );
        assert_eq!(k.open_count(), 0);
        assert!(k.completed().is_empty());
        assert_eq!(k.aborted(), 0);
    }

    #[test]
    fn probes_drive_spans_stitches_and_lock_waits() {
        let mut k = Kspan::new(true);
        let enter = |thread| Probe::Enter {
            thread,
            restarting: false,
        };
        feed(
            &mut k,
            &[
                enter(T0),
                enter(T1),
                // A user-to-user message stitches; a kernel-end one does not.
                Probe::IpcMessage {
                    thread: T0,
                    flow: Some((T0, T1)),
                },
                Probe::IpcMessage {
                    thread: T1,
                    flow: None,
                },
                // Run-queue waits are not kspan contention.
                Probe::LockWait {
                    key: LockKey::RunQueue(0),
                    cycles: 5,
                },
                Probe::LockWait {
                    key: LockKey::Global,
                    cycles: 7,
                },
                Probe::Exit {
                    thread: T1,
                    code: fluke_api::ErrorCode::Success,
                    closes: true,
                },
                Probe::Exit {
                    thread: T0,
                    code: fluke_api::ErrorCode::Success,
                    closes: false,
                },
            ],
        );
        assert_eq!(k.flows().len(), 1);
        assert_eq!(
            k.completed().len(),
            1,
            "only the closing exit ends a request"
        );
        assert_eq!(k.completed()[0].parent, Some(0));
        assert_eq!(k.completed()[0].class, "invalid");
        assert_eq!(
            k.contention().keys().collect::<Vec<_>>(),
            [&Contended::Lock(LockClass::Klock)]
        );
        feed(&mut k, &[Probe::Close { thread: T0 }]);
        assert_eq!(k.open_count(), 0);
    }

    #[test]
    fn decomposition_telescopes_exactly() {
        let mut k = Kspan::new(true);
        k.open(T0, "sys_ipc_client_send", 100);
        k.transition(T0, Seg::Blocked(WaitReason::IpcSend(ConnId(3))), 140); // 40 on-CPU
        k.transition(T0, Seg::Runnable, 200); // 60 blocked on IPC
        k.transition(T0, Seg::OnCpu, 230); // 30 runnable
        k.close(T0, 250); // 20 on-CPU
        let recs = k.completed();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.e2e(), 150);
        assert_eq!(r.on_cpu, 60);
        assert_eq!(r.blocked_ipc, 60);
        assert_eq!(r.runnable_wait, 30);
        assert_eq!(r.lock_wait, 0);
        assert_eq!(r.blocked_other, 0);
        assert_eq!(r.decomposed(), r.e2e());
        // The IPC wait was attributed to the connection.
        let c = &k.contention()[&Contended::Object(ObjKind::Conn, 3)];
        assert_eq!(c.wait_cycles, 60);
        assert_eq!(c.waits, 1);
    }

    #[test]
    fn lock_waits_carve_out_of_on_cpu_segment() {
        let mut k = Kspan::new(true);
        k.open(T0, "sys_null", 0);
        k.lock_wait(Some(T0), LockClass::Klock, 15); // big-lock wait inside the segment
        k.charge(T0, 0x3, 50, 10); // FP surcharge adds 10 more
        k.close(T0, 100);
        let r = &k.completed()[0];
        assert_eq!(r.e2e(), 100);
        assert_eq!(r.lock_wait, 25);
        assert_eq!(r.on_cpu, 75);
        assert_eq!(r.decomposed(), r.e2e());
        assert_eq!(
            k.contention()[&Contended::Lock(LockClass::Klock)].wait_cycles,
            15
        );
    }

    #[test]
    fn restart_continues_the_same_span() {
        let mut k = Kspan::new(true);
        k.open(T0, "sys_mutex_lock", 0);
        k.transition(T0, Seg::Blocked(WaitReason::Mutex(ObjId(7))), 10);
        k.transition(T0, Seg::Runnable, 50);
        k.transition(T0, Seg::OnCpu, 60);
        // The restarted call re-enters the kernel: same span.
        k.open(T0, "sys_mutex_lock", 60);
        assert_eq!(k.open_count(), 1);
        k.close(T0, 70);
        let r = &k.completed()[0];
        assert_eq!(r.e2e(), 70);
        assert_eq!(r.lock_wait, 40);
        assert_eq!(r.runnable_wait, 10);
        assert_eq!(r.on_cpu, 20);
        assert_eq!(
            k.contention()[&Contended::Object(ObjKind::Mutex, 7)].waits,
            1
        );
    }

    #[test]
    fn blocked_reason_restamp_splits_the_wait() {
        let mut k = Kspan::new(true);
        k.open(T0, "sys_ipc_send_wait_receive", 0);
        k.transition(T0, Seg::Blocked(WaitReason::IpcSend(ConnId(1))), 10);
        // In-place transition to waiting for the reply.
        k.transition(T0, Seg::Blocked(WaitReason::IpcReceive(ConnId(1))), 30);
        k.close(T0, 100);
        let r = &k.completed()[0];
        assert_eq!(r.blocked_ipc, 90);
        assert_eq!(r.decomposed(), r.e2e());
        assert_eq!(
            k.contention()[&Contended::Object(ObjKind::Conn, 1)].waits,
            2
        );
    }

    #[test]
    fn stitch_adopts_single_span_roots_but_not_reply_targets() {
        let mut k = Kspan::new(true);
        k.open(T0, "sys_ipc_client_send", 0); // client request R0
        k.open(T1, "sys_ipc_wait_receive", 5); // server request R1
                                               // Request transfer client → server: server adopted.
        k.stitch(T0, T1, 20);
        assert_eq!(k.flows().len(), 1);
        let server = &k.active[&T1];
        let client = &k.active[&T0];
        assert_eq!(server.req, client.req);
        assert_eq!(server.parent, Some(client.id));
        // Server's call completes; a new server span sends the reply.
        k.close(T1, 40);
        k.open(T1, "sys_ipc_send_wait_receive", 45);
        // Reply transfer server → client: the client's request already
        // contains the adopted server span, so it is NOT re-rooted.
        k.stitch(T1, T0, 50);
        assert_eq!(k.flows().len(), 2);
        let client = &k.active[&T0];
        assert!(client.parent.is_none());
        let reply_span = &k.active[&T1];
        assert!(reply_span.parent.is_none());
        // Next client request adopts the server's waiting span.
        k.close(T0, 60);
        k.open(T0, "sys_ipc_client_send", 70);
        k.stitch(T0, T1, 80);
        let server = &k.active[&T1];
        let client = &k.active[&T0];
        assert_eq!(server.req, client.req);
    }

    #[test]
    fn adoption_bookkeeping_is_bounded_by_the_open_spans() {
        let (client, server) = (T0, T1);
        let enter = |thread| Probe::Enter {
            thread,
            restarting: false,
        };
        let exit = |thread| Probe::Exit {
            thread,
            code: fluke_api::ErrorCode::Success,
            closes: true,
        };
        let message = |from, to| Probe::IpcMessage {
            thread: from,
            flow: Some((from, to)),
        };
        // The server waits for the first request.
        let mut probes = vec![enter(server)];
        for _ in 0..1000 {
            probes.extend([
                enter(client),
                // The request adopts the server's waiting span ...
                message(client, server),
                exit(server),
                // ... and the reply, sent from the server's next call,
                // does not re-root the client's request.
                enter(server),
                message(server, client),
                exit(client),
            ]);
        }
        let mut k = Kspan::new(true);
        let mut most = 0;
        for p in &probes {
            feed(&mut k, std::slice::from_ref(p));
            assert!(k.req_sizes.len() <= k.open_count(), "{:?}", k.req_sizes);
            most = most.max(k.req_sizes.len());
        }
        assert_eq!(most, 1);
        assert_eq!(k.flows().len(), 2000);
        assert_eq!(k.completed().len(), 2000);
        let adopted: Vec<_> = k
            .completed()
            .iter()
            .filter(|r| r.parent.is_some())
            .collect();
        assert_eq!(adopted.len(), 1000);
        assert!(adopted.iter().all(|r| r.thread == server));
        assert_eq!(k.open_count(), 1);
    }

    #[test]
    fn one_span_entries_of_older_images_still_read_as_one_span() {
        // Images written before the bookkeeping was bounded hold a
        // `(req, 1)` entry for every request ever opened.
        let mut k = Kspan::new(true);
        k.open(T0, "sys_null", 0);
        k.open(T1, "sys_null", 5);
        k.req_sizes.extend([(0, 1), (1, 1)]);
        let mut w = SnapWriter::new();
        k.snap_image(&mut w);
        let bytes = w.finish();
        let mut k = Kspan::restore_image(&mut SnapReader::new(&bytes), 2).unwrap();
        k.stitch(T0, T1, 20);
        assert_eq!(k.active[&T1].parent, Some(k.active[&T0].id));
        assert_eq!(k.req_sizes, BTreeMap::from([(0, 2)]));
        k.close(T0, 30);
        assert!(k.req_sizes.is_empty());
    }

    #[test]
    fn abort_terminates_without_recording() {
        let mut k = Kspan::new(true);
        k.open(T0, "sys_thread_sleep", 0);
        k.transition(T0, Seg::Blocked(WaitReason::Sleep), 10);
        k.abort(T0);
        assert_eq!(k.open_count(), 0);
        assert_eq!(k.aborted(), 1);
        assert!(k.completed().is_empty());
        // A second abort is a no-op.
        k.abort(T0);
        assert_eq!(k.aborted(), 1);
    }

    #[test]
    fn clock_skew_is_clamped_and_still_sums() {
        let mut k = Kspan::new(true);
        k.open(T0, "sys_null", 100);
        k.transition(T0, Seg::Blocked(WaitReason::Sleep), 150);
        // A wake stamped by a CPU whose clock lags the blocker's.
        k.transition(T0, Seg::Runnable, 120);
        k.transition(T0, Seg::OnCpu, 180);
        k.close(T0, 200);
        let r = &k.completed()[0];
        assert_eq!(r.decomposed(), r.e2e());
        assert_eq!(r.e2e(), 100);
    }

    #[test]
    fn frames_aggregate_per_class() {
        let mut k = Kspan::new(true);
        k.open(T0, "sys_null", 0);
        k.charge(T0, 0x1, 30, 0);
        k.user(T0, 5);
        k.close(T0, 35);
        k.open(T0, "sys_null", 40);
        k.charge(T0, 0x1, 20, 0);
        k.close(T0, 60);
        let frames = &k.class_frames()["sys_null"];
        assert_eq!(frames.get(0x1), Some(50));
        assert_eq!(frames.get(USER_FRAME), Some(5));
        assert_eq!(k.class_histograms()["sys_null"].count(), 2);
        assert_eq!(k.e2e_histogram().count(), 2);
        assert_eq!(frame_name(USER_FRAME), "user");
        assert_eq!(frame_name(0x1), "kernel;entry");
    }

    #[test]
    fn top_contended_orders_by_wait_cycles() {
        let mut k = Kspan::new(true);
        k.open(T0, "a", 0);
        k.transition(T0, Seg::Blocked(WaitReason::Mutex(ObjId(1))), 0);
        k.transition(T0, Seg::Runnable, 100);
        k.transition(T0, Seg::Blocked(WaitReason::Mutex(ObjId(2))), 100);
        k.transition(T0, Seg::Runnable, 130);
        k.close(T0, 130);
        let top = k.top_contended(2);
        assert_eq!(top[0].0, Contended::Object(ObjKind::Mutex, 1));
        assert_eq!(top[0].1.wait_cycles, 100);
        assert_eq!(top[1].0.to_string(), "mutex_2");
    }

    #[test]
    fn keys_display_their_kind_or_class_name() {
        use LockClass::{Handles, Ipc, Klock, Sched};
        use ObjKind::{Cond, Conn, Mutex, Port, Pset, Thread};
        let kinds = [Mutex, Cond, Port, Pset, Conn, Thread, ObjKind::Space];
        assert_eq!(
            kinds.map(|k| Contended::Object(k, 1).to_string()),
            ["mutex_1", "cond_1", "port_1", "pset_1", "conn_1", "thread_1", "space_1"]
        );
        let classes = [Sched, Handles, LockClass::Space, Ipc, Klock];
        assert_eq!(
            classes.map(|c| Contended::Lock(c).to_string()),
            ["sched", "handles", "space", "ipc", "klock"]
        );
    }

    #[test]
    fn top_contended_breaks_ties_by_name_then_index() {
        let mut k = Kspan::new(true);
        k.open(T0, "a", 0);
        for (i, reason) in [
            WaitReason::IpcSend(ConnId(10)),
            WaitReason::IpcSend(ConnId(9)),
            WaitReason::SpaceIdle(crate::ids::SpaceId(0)),
        ]
        .into_iter()
        .enumerate()
        {
            k.transition(T0, Seg::Blocked(reason), 10 * i as u64);
            k.transition(T0, Seg::Runnable, 10 * i as u64 + 10);
        }
        k.lock_wait(Some(T0), LockClass::Space, 10);
        let top: Vec<String> = k
            .top_contended(4)
            .iter()
            .map(|(key, _)| key.to_string())
            .collect();
        assert_eq!(top, ["conn_9", "conn_10", "space", "space_0"]);
    }
}
