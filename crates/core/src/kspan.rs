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
//! waited on (mutex, condvar, port, portset, connection, thread, space,
//! and the big kernel lock as `klock`), surfaced as
//! `kernel.contention.*` kstat counters — the explanatory variable the
//! per-CPU-scheduling roadmap item needs.
//!
//! Everything here is host-side observation: the layer consumes the
//! kernel's probe stream (`Kspan::observe`), reads the simulated clock
//! and mutates only this struct, never a simulated quantity. Enabled,
//! runs are bit-identical to the blessed golden trace digests (the
//! zero-perturbation proof obligation, enforced in the bench tests).

use std::collections::BTreeMap;

use fluke_api::Sys;
use fluke_arch::cost::Cycles;

use crate::ids::ThreadId;
use crate::kernel::LockKey;
use crate::kprof;
use crate::probe::{Probe, ProbeCx};
use crate::thread::{WaitClass, WaitReason};
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
enum Seg {
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
    frames: BTreeMap<u32, u64>,
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
    active: BTreeMap<ThreadId, Span>,
    /// Spans ever attached to each request (adoption-rule bookkeeping:
    /// a reply edge must not re-root a request that already contains an
    /// adopted span, even one that has since closed).
    req_sizes: BTreeMap<u64, u64>,
    completed: Vec<RequestRecord>,
    aborted: u64,
    flows: Vec<FlowEdge>,
    contention: BTreeMap<String, ObjectContention>,
    class_hist: BTreeMap<&'static str, Histogram>,
    class_frames: BTreeMap<&'static str, BTreeMap<u32, u64>>,
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
            // Run-queue waits have their own first-class counters
            // (`kernel.contention.runq.*`).
            Probe::LockWait { key, cycles } if !matches!(key, LockKey::RunQueue(_)) => {
                self.lock_wait(cx.current, key.class(), cycles)
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
        if self.active.contains_key(&t) {
            return;
        }
        let req = self.next_req;
        self.next_req += 1;
        let id = self.next_span;
        self.next_span += 1;
        self.req_sizes.insert(req, 1);
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
                frames: BTreeMap::new(),
            },
        );
    }

    /// Close the current segment at `now` (clamped so timestamps
    /// telescope even under cross-CPU clock skew) and open `new`.
    fn transition(&mut self, t: ThreadId, new: Seg, now: Cycles) {
        let Some(span) = self.active.get_mut(&t) else {
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
                let e = self.contention.entry(format!("{kind}_{idx}")).or_default();
                e.wait_cycles += len;
                e.waits += 1;
            }
        }
    }

    /// The thread's call completed user-visibly: close its span.
    fn close(&mut self, t: ThreadId, now: Cycles) {
        // Roll the final segment; the replacement kind is irrelevant.
        self.transition(t, Seg::OnCpu, now);
        let Some(span) = self.active.remove(&t) else {
            return;
        };
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
        let cf = self.class_frames.entry(span.class).or_default();
        for (code, cycles) in span.frames {
            *cf.entry(code).or_insert(0) += cycles;
        }
        self.completed.push(rec);
    }

    /// The thread was halted or had wholesale new state installed
    /// mid-request: terminate its span cleanly without recording it.
    fn abort(&mut self, t: ThreadId) {
        if self.active.remove(&t).is_some() {
            self.aborted += 1;
        }
    }

    /// Attribute a kernel charge to the current span's flamegraph:
    /// `base` cycles under the current `kprof` path and `lock_extra`
    /// surcharge cycles under the lock path (also carved into the lock
    /// bucket at segment close).
    fn charge(&mut self, t: ThreadId, path: u32, base: Cycles, lock_extra: Cycles) {
        let Some(span) = self.active.get_mut(&t) else {
            return;
        };
        *span.frames.entry(path).or_insert(0) += base;
        if lock_extra > 0 {
            *span
                .frames
                .entry(crate::kprof::Phase::Lock as u32)
                .or_insert(0) += lock_extra;
            span.seg_lock += lock_extra;
        }
    }

    /// Attribute user-mode cycles (restart re-execution of the trapping
    /// instruction) to the current span's flamegraph.
    fn user(&mut self, t: ThreadId, cycles: Cycles) {
        if cycles == 0 {
            return;
        }
        if let Some(span) = self.active.get_mut(&t) {
            *span.frames.entry(USER_FRAME).or_insert(0) += cycles;
        }
    }

    /// A kernel-lock wait of `cycles` finished on the acting CPU (`t`
    /// its current thread, if any). Attributed to the contended lock's
    /// object class (`"klock"` for the big lock's `Global` key; `"sched"`,
    /// `"space"`, `"handles"`, `"ipc"` for fine-grained classes), and
    /// carved out of the running span's on-CPU segment into the lock
    /// bucket.
    fn lock_wait(&mut self, t: Option<ThreadId>, class: &'static str, cycles: Cycles) {
        let e = self.contention.entry(class.to_string()).or_default();
        e.wait_cycles += cycles;
        e.waits += 1;
        if let Some(t) = t {
            if let Some(span) = self.active.get_mut(&t) {
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
        let Some((from_id, from_req)) = self.active.get(&from).map(|s| (s.id, s.req)) else {
            return;
        };
        let Some((to_id, to_req, to_parent)) =
            self.active.get(&to).map(|s| (s.id, s.req, s.parent))
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
            let span = self.active.get_mut(&to).expect("looked up above");
            span.req = from_req;
            span.parent = Some(from_id);
            self.req_sizes.remove(&to_req);
            *self.req_sizes.entry(from_req).or_insert(0) += 1;
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

    /// Per-object contention: stable key (`mutex_3`, `conn_0`, `klock`,
    /// …) → wait cycles and counts.
    pub fn contention(&self) -> &BTreeMap<String, ObjectContention> {
        &self.contention
    }

    /// End-to-end latency histogram per request class.
    pub fn class_histograms(&self) -> &BTreeMap<&'static str, Histogram> {
        &self.class_hist
    }

    /// Collapsed flamegraph per request class: packed `kprof` path (or
    /// [`USER_FRAME`]) → cycles, aggregated over completed requests.
    pub fn class_frames(&self) -> &BTreeMap<&'static str, BTreeMap<u32, u64>> {
        &self.class_frames
    }

    /// End-to-end latency histogram across all completed requests.
    pub fn e2e_histogram(&self) -> &Histogram {
        &self.overall
    }

    /// The top `n` contended objects by wait cycles (ties: key order),
    /// as `(key, contention)` pairs.
    pub fn top_contended(&self, n: usize) -> Vec<(&str, ObjectContention)> {
        let mut v: Vec<(&str, ObjectContention)> = self
            .contention
            .iter()
            .map(|(k, c)| (k.as_str(), *c))
            .collect();
        v.sort_by(|a, b| b.1.wait_cycles.cmp(&a.1.wait_cycles).then(a.0.cmp(b.0)));
        v.truncate(n);
        v
    }
}

// --- krec snapshot support ------------------------------------------------

use crate::krec::{intern_class, Snap, SnapError, SnapReader, SnapWriter};

impl Snap for Seg {
    fn snap(&self, w: &mut SnapWriter) {
        match *self {
            Seg::OnCpu => w.u8(0),
            Seg::Runnable => w.u8(1),
            Seg::Blocked(reason) => {
                w.u8(2);
                reason.snap(w);
            }
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => Seg::OnCpu,
            1 => Seg::Runnable,
            2 => Seg::Blocked(Snap::restore(r)?),
            t => {
                return Err(SnapError::BadTag {
                    what: "Seg",
                    tag: t as u32,
                })
            }
        })
    }
}

// Request classes are `&'static str` entrypoint names; they round-trip
// through the syscall name table (`intern_class`).
impl Snap for Span {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.req);
        w.u64(self.id);
        self.parent.snap(w);
        w.str(self.class);
        w.u64(self.open_at);
        w.u64(self.seg_start);
        self.seg.snap(w);
        w.u64(self.seg_lock);
        w.u64(self.on_cpu);
        w.u64(self.runnable_wait);
        w.u64(self.blocked_ipc);
        w.u64(self.lock_wait);
        w.u64(self.blocked_other);
        self.frames.snap(w);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Span {
            req: r.u64()?,
            id: r.u64()?,
            parent: Snap::restore(r)?,
            class: intern_class(&r.str()?)?,
            open_at: r.u64()?,
            seg_start: r.u64()?,
            seg: Snap::restore(r)?,
            seg_lock: r.u64()?,
            on_cpu: r.u64()?,
            runnable_wait: r.u64()?,
            blocked_ipc: r.u64()?,
            lock_wait: r.u64()?,
            blocked_other: r.u64()?,
            frames: Snap::restore(r)?,
        })
    }
}

impl Snap for RequestRecord {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.req);
        w.u64(self.span);
        self.parent.snap(w);
        w.str(self.class);
        self.thread.snap(w);
        w.u64(self.open_at);
        w.u64(self.close_at);
        w.u64(self.on_cpu);
        w.u64(self.runnable_wait);
        w.u64(self.blocked_ipc);
        w.u64(self.lock_wait);
        w.u64(self.blocked_other);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(RequestRecord {
            req: r.u64()?,
            span: r.u64()?,
            parent: Snap::restore(r)?,
            class: intern_class(&r.str()?)?,
            thread: Snap::restore(r)?,
            open_at: r.u64()?,
            close_at: r.u64()?,
            on_cpu: r.u64()?,
            runnable_wait: r.u64()?,
            blocked_ipc: r.u64()?,
            lock_wait: r.u64()?,
            blocked_other: r.u64()?,
        })
    }
}

impl Snap for FlowEdge {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.from_span);
        w.u64(self.to_span);
        self.from_thread.snap(w);
        self.to_thread.snap(w);
        w.u64(self.at);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(FlowEdge {
            from_span: r.u64()?,
            to_span: r.u64()?,
            from_thread: Snap::restore(r)?,
            to_thread: Snap::restore(r)?,
            at: r.u64()?,
        })
    }
}

impl Snap for ObjectContention {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.wait_cycles);
        w.u64(self.waits);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(ObjectContention {
            wait_cycles: r.u64()?,
            waits: r.u64()?,
        })
    }
}

fn snap_class_map<V: Snap>(m: &BTreeMap<&'static str, V>, w: &mut SnapWriter) {
    w.usize(m.len());
    for (k, v) in m {
        w.str(k);
        v.snap(w);
    }
}

fn restore_class_map<V: Snap>(
    r: &mut SnapReader<'_>,
) -> Result<BTreeMap<&'static str, V>, SnapError> {
    let n = r.usize()?;
    let mut out = BTreeMap::new();
    for _ in 0..n {
        let k = intern_class(&r.str()?)?;
        out.insert(k, V::restore(r)?);
    }
    Ok(out)
}

impl Snap for Kspan {
    fn snap(&self, w: &mut SnapWriter) {
        w.bool(self.enabled);
        w.u64(self.next_req);
        w.u64(self.next_span);
        self.active.snap(w);
        self.req_sizes.snap(w);
        self.completed.snap(w);
        w.u64(self.aborted);
        self.flows.snap(w);
        self.contention.snap(w);
        snap_class_map(&self.class_hist, w);
        snap_class_map(&self.class_frames, w);
        self.overall.snap(w);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Kspan {
            enabled: r.bool()?,
            next_req: r.u64()?,
            next_span: r.u64()?,
            active: Snap::restore(r)?,
            req_sizes: Snap::restore(r)?,
            completed: Snap::restore(r)?,
            aborted: r.u64()?,
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
        assert_eq!(k.contention().keys().collect::<Vec<_>>(), ["klock"]);
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
        let c = &k.contention()["conn_3"];
        assert_eq!(c.wait_cycles, 60);
        assert_eq!(c.waits, 1);
    }

    #[test]
    fn lock_waits_carve_out_of_on_cpu_segment() {
        let mut k = Kspan::new(true);
        k.open(T0, "sys_null", 0);
        k.lock_wait(Some(T0), "klock", 15); // big-lock wait inside the segment
        k.charge(T0, 0x3, 50, 10); // FP surcharge adds 10 more
        k.close(T0, 100);
        let r = &k.completed()[0];
        assert_eq!(r.e2e(), 100);
        assert_eq!(r.lock_wait, 25);
        assert_eq!(r.on_cpu, 75);
        assert_eq!(r.decomposed(), r.e2e());
        assert_eq!(k.contention()["klock"].wait_cycles, 15);
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
        assert_eq!(k.contention()["mutex_7"].waits, 1);
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
        assert_eq!(k.contention()["conn_1"].waits, 2);
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
        assert_eq!(frames[&0x1], 50);
        assert_eq!(frames[&USER_FRAME], 5);
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
        assert_eq!(top[0].0, "mutex_1");
        assert_eq!(top[0].1.wait_cycles, 100);
        assert_eq!(top[1].0, "mutex_2");
    }
}
