//! The unified wait-queue subsystem.
//!
//! Every place the kernel parks a waiter on an object — mutex and condition
//! queues, port connect/server/oneway queues, portset server queues, thread
//! joiners and donors, space idle-waiters — uses one deterministic
//! [`WaitQueue`] type instead of ad-hoc `VecDeque` bookkeeping. The queue
//! preserves exact FIFO semantics (golden traces depend on wake order) while
//! making the *host-side* cost of every operation O(1):
//!
//! - **Enqueue / dequeue** are `VecDeque` pushes and pops.
//! - **Cancel** (a waiter unlinking itself: `thread_interrupt`, state
//!   extraction, teardown) is the operation that used to be a linear
//!   `retain()` over the queue. Here it is an O(1) *tombstone*: the waiter
//!   is removed from the generation-tagged hash index and its queue entry
//!   is skipped lazily when it reaches the front. Tombstoning changes host
//!   cost only: wake order and simulated charges are those of eager
//!   removal (the unit tests check the queue against a plain `VecDeque`
//!   model).
//! - **Membership** tests are hash lookups instead of scans.
//!
//! Generation tags make tombstones ABA-safe: a member that cancels and
//! re-enqueues gets a fresh generation, so its stale entry (still in the
//! ring) can never be mistaken for the live one. Tombstones are compacted
//! away once they outnumber live entries, so memory stays O(live) amortized.
//!
//! The queue is policy-capable: [`WaitQueue::pop_max_by`] implements
//! priority dequeue (highest key first, FIFO among equals) for subsystems
//! that want it. The kernel's object queues all use plain FIFO — the wake
//! order the blessed golden traces pin.
//!
//! Counters land in [`WaitqStats`] (surfaced as `kernel.waitq.*`): pure
//! host-side observability, never consulted by simulated behavior.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// Counters for the `kernel.waitq.*` kstat family. One instance in
/// [`crate::kstat::Stats`] aggregates across every queue in the kernel.
#[derive(Debug, Default, Clone)]
pub struct WaitqStats {
    /// Waiters enqueued (back of queue).
    pub enqueues: u64,
    /// Waiters re-queued at the *front* (pump requeue after a partial
    /// rendezvous: the peer keeps its place).
    pub requeues: u64,
    /// Live waiters dequeued (wake-one pops, wake-all drains, accepts).
    pub wakes: u64,
    /// Drain-the-queue operations (broadcast, teardown).
    pub wake_alls: u64,
    /// Waiters cancelled (unlinked from the middle of a queue).
    pub cancels: u64,
    /// Dead (tombstoned) entries skipped by pops and drains.
    pub tombstones_skipped: u64,
    /// Amortized compaction sweeps triggered by tombstone buildup.
    pub compactions: u64,
}

impl WaitqStats {
    /// Fold another stats block into this one (retired-object accounting).
    pub fn merge(&mut self, o: &WaitqStats) {
        self.enqueues += o.enqueues;
        self.requeues += o.requeues;
        self.wakes += o.wakes;
        self.wake_alls += o.wake_alls;
        self.cancels += o.cancels;
        self.tombstones_skipped += o.tombstones_skipped;
        self.compactions += o.compactions;
    }
}

/// A deterministic FIFO wait queue over copyable member ids (threads,
/// connections) with O(1) enqueue, dequeue, cancel and membership.
///
/// See the module docs for the design; the short version is a `VecDeque`
/// ring of `(member, generation)` entries plus a hash index mapping each
/// *live* member to the generation of its current entry. Entries whose
/// generation no longer matches the index are tombstones and are skipped.
#[derive(Debug)]
pub struct WaitQueue<T> {
    /// FIFO ring of (member, generation) entries, tombstones included.
    ring: VecDeque<(T, u64)>,
    /// Live members → generation of their current ring entry.
    live: HashMap<T, u64>,
    /// Next generation tag to hand out.
    next_gen: u64,
}

impl<T> Default for WaitQueue<T> {
    fn default() -> Self {
        WaitQueue {
            ring: VecDeque::new(),
            live: HashMap::new(),
            next_gen: 0,
        }
    }
}

impl<T: Copy + Eq + Hash> WaitQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live waiters.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no live waiter is queued.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Whether `x` is queued (live). O(1).
    pub fn contains(&self, x: T) -> bool {
        self.live.contains_key(&x)
    }

    /// Enqueue `x` at the back. O(1).
    ///
    /// A member may hold at most one live entry; re-enqueueing while live
    /// tombstones the old entry (callers never do this in normal operation
    /// — a thread waits on one thing at a time).
    pub fn enqueue(&mut self, x: T, st: &mut WaitqStats) {
        debug_assert!(!self.contains(x), "member enqueued while already queued");
        let gen = self.next_gen;
        self.next_gen += 1;
        self.live.insert(x, gen);
        self.ring.push_back((x, gen));
        st.enqueues += 1;
    }

    /// Re-queue `x` at the *front* — the pump's partial-rendezvous requeue,
    /// where the peer must keep its place at the head of the line. O(1).
    pub fn requeue_front(&mut self, x: T, st: &mut WaitqStats) {
        debug_assert!(!self.contains(x), "member requeued while already queued");
        let gen = self.next_gen;
        self.next_gen += 1;
        self.live.insert(x, gen);
        self.ring.push_front((x, gen));
        st.requeues += 1;
    }

    /// Dequeue the oldest live waiter (wake-one / accept-one). Amortized
    /// O(1): dead entries are skipped and discarded as they surface.
    pub fn pop(&mut self, st: &mut WaitqStats) -> Option<T> {
        while let Some((x, gen)) = self.ring.pop_front() {
            if self.live.get(&x) == Some(&gen) {
                self.live.remove(&x);
                st.wakes += 1;
                return Some(x);
            }
            st.tombstones_skipped += 1;
        }
        None
    }

    /// Drain every live waiter in FIFO order (wake-all / broadcast /
    /// teardown).
    pub fn drain(&mut self, st: &mut WaitqStats) -> Vec<T> {
        st.wake_alls += 1;
        let mut out = Vec::with_capacity(self.live.len());
        while let Some(x) = self.pop(st) {
            out.push(x);
        }
        out
    }

    /// Unlink `x` from the queue. Returns whether it was live.
    ///
    /// An O(1) tombstone: drop the index entry, let the ring entry die
    /// lazily.
    pub fn cancel(&mut self, x: T, st: &mut WaitqStats) -> bool {
        if self.live.remove(&x).is_none() {
            return false;
        }
        st.cancels += 1;
        self.maybe_compact(st);
        true
    }

    /// Iterate the live waiters in FIFO order without dequeuing them
    /// (portset sweeps, state inspection).
    pub fn iter_live(&self) -> impl Iterator<Item = T> + '_ {
        self.ring
            .iter()
            .filter(|(x, gen)| self.live.get(x) == Some(gen))
            .map(|&(x, _)| x)
    }

    /// Priority-dequeue policy: pop the live waiter with the largest
    /// `key(x)`, FIFO among equals. O(live) — a policy capability for
    /// subsystems that opt in; the kernel's object queues are FIFO (the
    /// wake order the golden traces pin).
    pub fn pop_max_by<K: Ord>(&mut self, key: impl Fn(T) -> K, st: &mut WaitqStats) -> Option<T> {
        let best = self
            .iter_live()
            .map(|x| (std::cmp::Reverse(key(x)), x))
            .min_by(|(a, _), (b, _)| a.cmp(b))
            .map(|(_, x)| x)?;
        let taken = self.cancel(best, st);
        debug_assert!(taken);
        // The cancel above counted itself; reclassify as a wake.
        st.cancels -= 1;
        st.wakes += 1;
        Some(best)
    }

    /// Compact the ring once tombstones outnumber live entries (amortized
    /// O(1) per cancel). Order of live entries is untouched.
    fn maybe_compact(&mut self, st: &mut WaitqStats) {
        if self.ring.len() >= 8 && self.ring.len() >= 2 * self.live.len() {
            let live = &self.live;
            self.ring.retain(|(x, gen)| live.get(x) == Some(gen));
            st.compactions += 1;
        }
    }
}

// --- krec snapshot support ------------------------------------------------

use crate::krec::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};

snap_struct!(WaitqStats {
    enqueues,
    requeues,
    wakes,
    wake_alls,
    cancels,
    tombstones_skipped,
    compactions,
});

// The ring is serialized verbatim (tombstones included) with a per-entry
// liveness flag; the live index is rebuilt from flagged entries. `live ⊆
// ring` is a structural invariant, so the flags carry the whole index — no
// `Ord` bound on `T` needed for canonical ordering.
impl<T: Snap + Copy + Eq + Hash> Snap for WaitQueue<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.next_gen);
        w.usize(self.ring.len());
        for &(x, gen) in &self.ring {
            x.snap(w);
            w.u64(gen);
            w.bool(self.live.get(&x) == Some(&gen));
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let next_gen = r.u64()?;
        let n = r.usize()?;
        let mut ring = VecDeque::with_capacity(r.capacity_for(n));
        let mut live = HashMap::new();
        for _ in 0..n {
            let x = T::restore(r)?;
            let gen = r.u64()?;
            if r.bool()? && live.insert(x, gen).is_some() {
                return Err(SnapError::Invalid("waitqueue member live twice"));
            }
            ring.push_back((x, gen));
        }
        Ok(WaitQueue {
            ring,
            live,
            next_gen,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st() -> WaitqStats {
        WaitqStats::default()
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = WaitQueue::new();
        let mut s = st();
        for i in 0..5u32 {
            q.enqueue(i, &mut s);
        }
        assert_eq!(q.len(), 5);
        for i in 0..5u32 {
            assert_eq!(q.pop(&mut s), Some(i));
        }
        assert_eq!(q.pop(&mut s), None);
        assert_eq!(s.enqueues, 5);
        assert_eq!(s.wakes, 5);
    }

    #[test]
    fn requeue_front_keeps_place() {
        let mut q = WaitQueue::new();
        let mut s = st();
        q.enqueue(1u32, &mut s);
        q.enqueue(2, &mut s);
        let head = q.pop(&mut s).unwrap();
        assert_eq!(head, 1);
        q.requeue_front(head, &mut s);
        assert_eq!(q.pop(&mut s), Some(1));
        assert_eq!(q.pop(&mut s), Some(2));
        assert_eq!(s.requeues, 1);
    }

    #[test]
    fn indexed_cancel_tombstones_lazily() {
        let mut q = WaitQueue::new();
        let mut s = st();
        for i in 0..4u32 {
            q.enqueue(i, &mut s);
        }
        assert!(q.cancel(1, &mut s));
        assert!(q.cancel(2, &mut s));
        assert!(!q.cancel(2, &mut s), "double cancel is a no-op");
        assert!(!q.contains(1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(&mut s), Some(0));
        assert_eq!(q.pop(&mut s), Some(3));
        assert!(s.tombstones_skipped > 0);
    }

    #[test]
    fn generations_are_aba_safe() {
        let mut q = WaitQueue::new();
        let mut s = st();
        q.enqueue(7u32, &mut s);
        q.cancel(7, &mut s); // stale entry stays in the ring
        q.enqueue(8, &mut s);
        q.enqueue(7, &mut s); // fresh generation, queued *after* 8
        assert_eq!(q.pop(&mut s), Some(8));
        assert_eq!(q.pop(&mut s), Some(7));
        assert_eq!(q.pop(&mut s), None);
    }

    #[test]
    fn tombstones_get_compacted() {
        let mut q = WaitQueue::new();
        let mut s = st();
        for i in 0..32u32 {
            q.enqueue(i, &mut s);
        }
        for i in 0..31u32 {
            q.cancel(i, &mut s);
        }
        assert!(s.compactions > 0);
        assert!(q.ring.len() <= 2 * q.len().max(4));
        assert_eq!(q.pop(&mut s), Some(31));
    }

    #[test]
    fn iter_live_skips_dead() {
        let mut q = WaitQueue::new();
        let mut s = st();
        for i in 0..4u32 {
            q.enqueue(i, &mut s);
        }
        q.cancel(0, &mut s);
        q.cancel(2, &mut s);
        assert_eq!(q.iter_live().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn priority_policy_pops_max_fifo_among_equals() {
        let mut q = WaitQueue::new();
        let mut s = st();
        // Members 10..15 with priority = member % 3.
        for i in 10u32..15 {
            q.enqueue(i, &mut s);
        }
        // Priorities: 10→1, 11→2, 12→0, 13→1, 14→2. Max is 2; FIFO among
        // equals picks 11 before 14.
        assert_eq!(q.pop_max_by(|x| x % 3, &mut s), Some(11));
        assert_eq!(q.pop_max_by(|x| x % 3, &mut s), Some(14));
        assert_eq!(q.pop_max_by(|x| x % 3, &mut s), Some(10));
        assert_eq!(q.pop_max_by(|x| x % 3, &mut s), Some(13));
        assert_eq!(q.pop_max_by(|x| x % 3, &mut s), Some(12));
        assert_eq!(q.pop_max_by(|x| x % 3, &mut s), None);
    }

    #[test]
    fn drain_returns_fifo_live_set() {
        let mut q = WaitQueue::new();
        let mut s = st();
        for i in 0..5u32 {
            q.enqueue(i, &mut s);
        }
        q.cancel(3, &mut s);
        assert_eq!(q.drain(&mut s), vec![0, 1, 2, 4]);
        assert!(q.is_empty());
        assert_eq!(s.wake_alls, 1);
    }

    /// Random push/requeue/pop/cancel/drain sequences against a plain
    /// `VecDeque` with eager removal: the tombstoning queue must agree on
    /// every return value, the live order, and the wake/cancel counters.
    #[test]
    fn matches_vecdeque_model_on_random_sequences() {
        let mut rng = crate::kfuzz::Rng(0x5eed_0a17);
        for _ in 0..200 {
            let mut q = WaitQueue::new();
            let mut model: VecDeque<u32> = VecDeque::new();
            let mut s = st();
            let (mut cancels, mut wakes) = (0u64, 0u64);
            for _ in 0..rng.range(1, 120) {
                let x = rng.range(0, 12);
                match rng.range(0, 10) {
                    0..=3 if !model.contains(&x) => {
                        q.enqueue(x, &mut s);
                        model.push_back(x);
                    }
                    4 if !model.contains(&x) => {
                        q.requeue_front(x, &mut s);
                        model.push_front(x);
                    }
                    5 | 6 => {
                        let want = model.pop_front();
                        wakes += want.is_some() as u64;
                        assert_eq!(q.pop(&mut s), want);
                    }
                    7 | 8 => {
                        let pos = model.iter().position(|&m| m == x);
                        if let Some(i) = pos {
                            model.remove(i);
                            cancels += 1;
                        }
                        assert_eq!(q.cancel(x, &mut s), pos.is_some());
                    }
                    9 => {
                        let want: Vec<u32> = model.drain(..).collect();
                        wakes += want.len() as u64;
                        assert_eq!(q.drain(&mut s), want);
                    }
                    _ => {}
                }
                assert_eq!(q.len(), model.len());
                assert_eq!(q.is_empty(), model.is_empty());
                assert_eq!(q.contains(x), model.contains(&x));
                assert!(q.iter_live().eq(model.iter().copied()));
                // Tombstones never outnumber live entries past the
                // compaction threshold.
                assert!(q.ring.len() - q.len() <= q.len().max(7));
            }
            assert_eq!((s.cancels, s.wakes), (cancels, wakes));
        }
    }
}
