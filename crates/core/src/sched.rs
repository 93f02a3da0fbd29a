//! The ready queue: fixed priority levels, FIFO within a level.

use std::collections::VecDeque;

use crate::ids::ThreadId;
use crate::thread::PRIORITY_LEVELS;

/// Multi-level FIFO ready queue. Higher priority value runs first.
#[derive(Debug)]
pub struct ReadyQueue {
    levels: Vec<VecDeque<ThreadId>>,
    bitmap: u32,
}

impl ReadyQueue {
    /// An empty ready queue.
    pub fn new() -> Self {
        ReadyQueue {
            levels: (0..PRIORITY_LEVELS).map(|_| VecDeque::new()).collect(),
            bitmap: 0,
        }
    }

    /// Enqueue at the tail of its priority level.
    pub fn push(&mut self, t: ThreadId, priority: u32) {
        let p = priority.min(PRIORITY_LEVELS - 1) as usize;
        self.levels[p].push_back(t);
        self.bitmap |= 1 << p;
    }

    /// Enqueue at the *head* of its priority level (used when a thread is
    /// preempted: it has unfinished work and should continue first among
    /// its peers).
    pub fn push_front(&mut self, t: ThreadId, priority: u32) {
        let p = priority.min(PRIORITY_LEVELS - 1) as usize;
        self.levels[p].push_front(t);
        self.bitmap |= 1 << p;
    }

    /// Dequeue the highest-priority thread.
    pub fn pop(&mut self) -> Option<ThreadId> {
        if self.bitmap == 0 {
            return None;
        }
        let p = 31 - self.bitmap.leading_zeros() as usize;
        let t = self.levels[p].pop_front();
        if self.levels[p].is_empty() {
            self.bitmap &= !(1 << p);
        }
        t
    }

    /// Highest priority currently queued.
    pub fn top_priority(&self) -> Option<u32> {
        if self.bitmap == 0 {
            None
        } else {
            Some(31 - self.bitmap.leading_zeros())
        }
    }

    /// Remove a specific thread (used by `thread_destroy` / `set_state`).
    pub fn remove(&mut self, t: ThreadId) -> bool {
        for p in 0..self.levels.len() {
            if let Some(pos) = self.levels[p].iter().position(|&x| x == t) {
                self.levels[p].remove(pos);
                if self.levels[p].is_empty() {
                    self.bitmap &= !(1 << p);
                }
                return true;
            }
        }
        false
    }

    /// Whether `t` is enqueued.
    pub fn contains(&self, t: ThreadId) -> bool {
        self.levels.iter().any(|l| l.contains(&t))
    }

    /// Whether any thread is ready.
    pub fn is_empty(&self) -> bool {
        self.bitmap == 0
    }

    /// Total ready threads.
    pub fn len(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }
}

impl Default for ReadyQueue {
    fn default() -> Self {
        Self::new()
    }
}

/// The scheduler's ready queues: one [`ReadyQueue`] per processor (or a
/// single queue shared by every processor in a `big_lock` kernel), plus
/// the deterministic work-stealing victim scan. Pure data — all cycle charging (run-queue lock costs,
/// steal IPIs) lives in the kernel, so this structure is reusable and
/// unit-testable in isolation.
///
/// Determinism: a thread is always enqueued on its *home* CPU's queue,
/// the victim scan starts at `(thief + 1) % n` and walks upward, and the
/// kernel only invokes these operations from the globally time-ordered
/// run loop — so for a fixed workload the queue contents are a pure
/// function of simulated time.
#[derive(Debug)]
pub struct PerCpuQueues {
    queues: Vec<ReadyQueue>,
}

impl PerCpuQueues {
    /// One empty queue per processor.
    pub fn new(cpus: usize) -> Self {
        PerCpuQueues {
            queues: (0..cpus.max(1)).map(|_| ReadyQueue::new()).collect(),
        }
    }

    /// Number of per-CPU queues.
    pub fn cpus(&self) -> usize {
        self.queues.len()
    }

    /// Enqueue on `cpu`'s queue, at the tail of its priority level.
    pub fn push(&mut self, cpu: usize, t: ThreadId, priority: u32) {
        self.queues[cpu].push(t, priority);
    }

    /// Enqueue at the *head* of its level on `cpu`'s queue (preempted
    /// threads continue first among their peers).
    pub fn push_front(&mut self, cpu: usize, t: ThreadId, priority: u32) {
        self.queues[cpu].push_front(t, priority);
    }

    /// Dequeue the highest-priority thread of `cpu`'s own queue.
    pub fn pop(&mut self, cpu: usize) -> Option<ThreadId> {
        self.queues[cpu].pop()
    }

    /// Highest priority queued on `cpu`'s own queue.
    pub fn top_priority(&self, cpu: usize) -> Option<u32> {
        self.queues[cpu].top_priority()
    }

    /// Whether `cpu`'s own queue is empty.
    pub fn cpu_empty(&self, cpu: usize) -> bool {
        self.queues[cpu].is_empty()
    }

    /// The queue currently holding `t`, if it is enqueued anywhere.
    pub fn find(&self, t: ThreadId) -> Option<usize> {
        self.queues.iter().position(|q| q.contains(t))
    }

    /// Remove `t` from whichever queue holds it. Returns the queue index
    /// if it was enqueued.
    pub fn remove(&mut self, t: ThreadId) -> Option<usize> {
        for (i, q) in self.queues.iter_mut().enumerate() {
            if q.remove(t) {
                return Some(i);
            }
        }
        None
    }

    /// Deterministic steal-victim scan: the first CPU with queued work,
    /// scanning `(thief + 1) % n`, `(thief + 2) % n`, … Returns `None`
    /// when every other queue is empty.
    pub fn victim(&self, thief: usize) -> Option<usize> {
        let n = self.queues.len();
        (1..n)
            .map(|off| (thief + off) % n)
            .find(|&v| !self.queues[v].is_empty())
    }

    /// Total ready threads across every queue.
    pub fn len(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Whether every queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }
}

// --- krec snapshot support ------------------------------------------------

use crate::krec::{Snap, SnapError, SnapReader, SnapWriter};

// The bitmap is derived from level occupancy and rebuilt on restore.
impl Snap for ReadyQueue {
    fn snap(&self, w: &mut SnapWriter) {
        self.levels.snap(w);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let levels: Vec<VecDeque<ThreadId>> = Snap::restore(r)?;
        if levels.len() != PRIORITY_LEVELS as usize {
            return Err(SnapError::Invalid("ready-queue level count"));
        }
        let mut bitmap = 0u32;
        for (p, l) in levels.iter().enumerate() {
            if !l.is_empty() {
                bitmap |= 1 << p;
            }
        }
        Ok(ReadyQueue { levels, bitmap })
    }
}

impl Snap for PerCpuQueues {
    fn snap(&self, w: &mut SnapWriter) {
        self.queues.snap(w);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let queues: Vec<ReadyQueue> = Snap::restore(r)?;
        if queues.is_empty() {
            return Err(SnapError::Invalid("per-cpu queue count"));
        }
        Ok(PerCpuQueues { queues })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_order_then_fifo() {
        let mut q = ReadyQueue::new();
        q.push(ThreadId(1), 5);
        q.push(ThreadId(2), 10);
        q.push(ThreadId(3), 5);
        assert_eq!(q.top_priority(), Some(10));
        assert_eq!(q.pop(), Some(ThreadId(2)));
        assert_eq!(q.pop(), Some(ThreadId(1)));
        assert_eq!(q.pop(), Some(ThreadId(3)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn push_front_jumps_the_level_queue() {
        let mut q = ReadyQueue::new();
        q.push(ThreadId(1), 5);
        q.push_front(ThreadId(2), 5);
        assert_eq!(q.pop(), Some(ThreadId(2)));
        assert_eq!(q.pop(), Some(ThreadId(1)));
    }

    #[test]
    fn remove_specific_thread() {
        let mut q = ReadyQueue::new();
        q.push(ThreadId(1), 5);
        q.push(ThreadId(2), 5);
        assert!(q.remove(ThreadId(1)));
        assert!(!q.remove(ThreadId(1)));
        assert_eq!(q.pop(), Some(ThreadId(2)));
        assert!(q.is_empty());
    }

    #[test]
    fn priority_clamped_to_levels() {
        let mut q = ReadyQueue::new();
        q.push(ThreadId(1), 999);
        assert_eq!(q.top_priority(), Some(PRIORITY_LEVELS - 1));
        assert_eq!(q.pop(), Some(ThreadId(1)));
    }

    #[test]
    fn len_counts_all_levels() {
        let mut q = ReadyQueue::new();
        q.push(ThreadId(1), 1);
        q.push(ThreadId(2), 30);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn percpu_push_pop_are_per_queue() {
        let mut q = PerCpuQueues::new(3);
        q.push(0, ThreadId(1), 5);
        q.push(1, ThreadId(2), 9);
        assert_eq!(q.pop(0), Some(ThreadId(1)));
        assert_eq!(q.pop(0), None);
        assert_eq!(q.pop(2), None);
        assert_eq!(q.pop(1), Some(ThreadId(2)));
        assert!(q.is_empty());
    }

    #[test]
    fn percpu_victim_scan_starts_after_thief_and_wraps() {
        let mut q = PerCpuQueues::new(4);
        q.push(1, ThreadId(7), 5);
        q.push(3, ThreadId(8), 5);
        // Thief 2 scans 3, 0, 1 — finds 3 first.
        assert_eq!(q.victim(2), Some(3));
        // Thief 3 scans 0, 1, 2 — finds 1 first.
        assert_eq!(q.victim(3), Some(1));
        // A thief never picks its own queue.
        assert_eq!(q.pop(3), Some(ThreadId(8)));
        assert_eq!(q.victim(1), None);
        assert_eq!(q.victim(0), Some(1));
    }

    #[test]
    fn percpu_remove_and_find_scan_every_queue() {
        let mut q = PerCpuQueues::new(2);
        q.push(1, ThreadId(4), 3);
        assert_eq!(q.find(ThreadId(4)), Some(1));
        assert_eq!(q.find(ThreadId(5)), None);
        assert_eq!(q.remove(ThreadId(4)), Some(1));
        assert_eq!(q.remove(ThreadId(4)), None);
        assert_eq!(q.len(), 0);
    }
}
