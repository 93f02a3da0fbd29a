//! The simulated timer: a deterministic event queue.
//!
//! All asynchrony in the simulation — timeslice expiry, the Table 6
//! periodic probe, `thread_sleep` wakeups — flows through this queue, which
//! makes every run exactly reproducible.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fluke_arch::cost::Cycles;

use crate::ids::ThreadId;

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Wake a blocked thread (sleep expiry, probe period).
    Wake(ThreadId),
    /// Periodic wake: wake the thread and re-arm after `interval` cycles.
    /// If the thread is still pending from the previous period, count a
    /// miss instead (Table 6 "miss" column).
    Periodic {
        /// Thread to wake.
        thread: ThreadId,
        /// Period in cycles.
        interval: Cycles,
    },
    /// End of the current thread's timeslice on a CPU. Stale events are
    /// filtered by generation number.
    TimesliceEnd {
        /// CPU whose timeslice ended.
        cpu: usize,
        /// Dispatch generation the event was armed for.
        generation: u64,
    },
}

/// A queued event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Fire time in simulated cycles.
    pub at: Cycles,
    /// Tie-break sequence number (FIFO among same-time events).
    pub seq: u64,
    /// Action.
    pub kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic min-heap of timer events.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` to fire at `at`.
    pub fn push(&mut self, at: Cycles, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Event { at, seq, kind }));
    }

    /// Fire time of the earliest pending event.
    pub fn next_time(&self) -> Option<Cycles> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Pop the earliest event if it fires at or before `now`.
    pub fn pop_due(&mut self, now: Cycles) -> Option<Event> {
        match self.heap.peek() {
            Some(Reverse(e)) if e.at <= now => self.heap.pop().map(|Reverse(e)| e),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

// --- krec snapshot support ------------------------------------------------

use crate::krec::{snap_enum, snap_struct, Snap, SnapError, SnapReader, SnapWriter};

snap_enum!(EventKind {
    0 => Wake(t),
    1 => Periodic { thread, interval },
    2 => TimesliceEnd { cpu, generation },
});

snap_struct!(Event { at, seq, kind });

// The heap is serialized in canonical (at, seq) order — heap-internal layout
// is host state. (at, seq) totally orders events (seq is unique), so the
// encoding is canonical and the rebuilt heap behaves identically.
impl Snap for EventQueue {
    fn snap(&self, w: &mut SnapWriter) {
        let mut events: Vec<&Event> = self.heap.iter().map(|Reverse(e)| e).collect();
        events.sort();
        w.usize(events.len());
        for e in events {
            e.snap(w);
        }
        w.u64(self.next_seq);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.usize()?;
        let mut heap = BinaryHeap::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            heap.push(Reverse(Event::restore(r)?));
        }
        Ok(EventQueue {
            heap,
            next_seq: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.push(300, EventKind::Wake(ThreadId(3)));
        q.push(100, EventKind::Wake(ThreadId(1)));
        q.push(200, EventKind::Wake(ThreadId(2)));
        assert_eq!(q.next_time(), Some(100));
        assert!(q.pop_due(50).is_none());
        let e = q.pop_due(150).unwrap();
        assert_eq!(e.kind, EventKind::Wake(ThreadId(1)));
        let e = q.pop_due(1000).unwrap();
        assert_eq!(e.at, 200);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn same_time_events_fifo() {
        let mut q = EventQueue::new();
        q.push(100, EventKind::Wake(ThreadId(1)));
        q.push(100, EventKind::Wake(ThreadId(2)));
        assert_eq!(q.pop_due(100).unwrap().kind, EventKind::Wake(ThreadId(1)));
        assert_eq!(q.pop_due(100).unwrap().kind, EventKind::Wake(ThreadId(2)));
        assert!(q.is_empty());
    }
}
