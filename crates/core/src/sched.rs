//! The scheduler's data structures: the ready queue (fixed priority
//! levels, FIFO within a level), the per-CPU queue set with its steal
//! scan, and the run loop's CPU-clock index.

use std::collections::VecDeque;

use fluke_arch::cost::Cycles;

use crate::config::MAX_CPUS;
use crate::ids::ThreadId;
use crate::thread::PRIORITY_LEVELS;

/// The set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

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
/// the deterministic work-stealing victim scan. Pure data — all cycle
/// charging (run-queue lock costs, steal IPIs) lives in the kernel, so
/// this structure is reusable and unit-testable in isolation.
///
/// Determinism: a thread is always enqueued on its *home* CPU's queue,
/// the victim scan starts at `(thief + 1) % n` and walks upward, and the
/// kernel only invokes these operations from the globally time-ordered
/// run loop — so for a fixed workload the queue contents are a pure
/// function of simulated time.
///
/// A one-bit-per-queue non-empty mask (derived, rebuilt on restore) makes
/// the victim scan and the emptiness checks a few bit operations.
#[derive(Debug)]
pub struct PerCpuQueues {
    queues: Vec<ReadyQueue>,
    /// Bit `i` set iff `queues[i]` is non-empty.
    nonempty: u64,
}

impl PerCpuQueues {
    /// One empty queue per processor.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` exceeds [`MAX_CPUS`] (the mask width).
    pub fn new(cpus: usize) -> Self {
        assert!(cpus <= MAX_CPUS, "{cpus} run queues; at most {MAX_CPUS}");
        PerCpuQueues {
            queues: (0..cpus.max(1)).map(|_| ReadyQueue::new()).collect(),
            nonempty: 0,
        }
    }

    /// Number of per-CPU queues.
    pub fn cpus(&self) -> usize {
        self.queues.len()
    }

    /// Re-derive `cpu`'s non-empty bit after its queue changed.
    fn note(&mut self, cpu: usize) {
        if self.queues[cpu].is_empty() {
            self.nonempty &= !(1 << cpu);
        } else {
            self.nonempty |= 1 << cpu;
        }
    }

    /// Enqueue on `cpu`'s queue, at the tail of its priority level.
    pub fn push(&mut self, cpu: usize, t: ThreadId, priority: u32) {
        self.queues[cpu].push(t, priority);
        self.nonempty |= 1 << cpu;
    }

    /// Enqueue at the *head* of its level on `cpu`'s queue (preempted
    /// threads continue first among their peers).
    pub fn push_front(&mut self, cpu: usize, t: ThreadId, priority: u32) {
        self.queues[cpu].push_front(t, priority);
        self.nonempty |= 1 << cpu;
    }

    /// Dequeue the highest-priority thread of `cpu`'s own queue.
    pub fn pop(&mut self, cpu: usize) -> Option<ThreadId> {
        let t = self.queues[cpu].pop();
        self.note(cpu);
        t
    }

    /// Highest priority queued on `cpu`'s own queue.
    pub fn top_priority(&self, cpu: usize) -> Option<u32> {
        self.queues[cpu].top_priority()
    }

    /// Whether `cpu`'s own queue is empty.
    pub fn cpu_empty(&self, cpu: usize) -> bool {
        self.nonempty & (1 << cpu) == 0
    }

    /// The queue currently holding `t`, if it is enqueued anywhere.
    pub fn find(&self, t: ThreadId) -> Option<usize> {
        bits(self.nonempty).find(|&i| self.queues[i].contains(t))
    }

    /// Remove `t` from whichever queue holds it. Returns the queue index
    /// if it was enqueued.
    pub fn remove(&mut self, t: ThreadId) -> Option<usize> {
        let i = bits(self.nonempty).find(|&i| self.queues[i].remove(t))?;
        self.note(i);
        Some(i)
    }

    /// Deterministic steal-victim scan: the first CPU with queued work,
    /// scanning `(thief + 1) % n`, `(thief + 2) % n`, … Returns `None`
    /// when every other queue is empty.
    pub fn victim(&self, thief: usize) -> Option<usize> {
        let others = self.nonempty & !(1 << thief);
        // Queues above the thief first, then wrap to the lowest.
        let above = others & u64::MAX.checked_shl(thief as u32 + 1).unwrap_or(0);
        bits(if above != 0 { above } else { others }).next()
    }

    /// Every queued thread, queue by queue.
    pub(crate) fn threads(&self) -> impl Iterator<Item = ThreadId> + '_ {
        self.queues
            .iter()
            .flat_map(|q| q.levels.iter().flatten().copied())
    }

    /// Total ready threads across every queue.
    pub fn len(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Whether every queue is empty.
    pub fn is_empty(&self) -> bool {
        self.nonempty == 0
    }
}

/// Sentinel [`ClockIndex`] tree entry: no unparked CPU in the subtree.
const NO_CPU: u8 = u8::MAX;

/// The run loop's CPU-clock index: a winner (tournament) tree over
/// `(clock, cpu id)` plus the parked set. Parked CPUs count as +∞ through
/// the parked flag, not a sentinel clock, so every `u64` clock is
/// representable.
///
/// The kernel owns the parked set here and nowhere else. Clocks are a
/// copy: the index is exact for every CPU except the acting one, whose
/// clock runs ahead as it charges; the run loop re-keys that CPU before
/// each pick, and the only code that moves another CPU's clock
/// (`kick_parked`, `tlb_shootdown`) re-keys it directly.
///
/// Costs: [`ClockIndex::min`] and [`ClockIndex::first_parked`] are O(1);
/// re-keying, parking and [`ClockIndex::min_other`] are O(log n).
#[derive(Debug)]
pub struct ClockIndex {
    /// Leaf count: the CPU count rounded up to a power of two.
    width: usize,
    /// Each CPU's clock as last keyed.
    clocks: Vec<Cycles>,
    /// Bit `i` set iff CPU `i` is parked.
    parked: u64,
    /// Heap-ordered winner tree: node 1 is the root, node `i` has
    /// children `2i` and `2i + 1`, and CPU `c`'s leaf is `width + c`.
    /// Each node holds the unparked CPU with the smallest `(clock, id)`
    /// in its subtree, or [`NO_CPU`].
    tree: Vec<u8>,
}

impl ClockIndex {
    /// An index over `clocks.len()` CPUs; CPU `i` is parked iff bit `i`
    /// of `parked` is set.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= clocks.len() <= MAX_CPUS`.
    pub fn new(clocks: Vec<Cycles>, parked: u64) -> Self {
        let n = clocks.len();
        assert!((1..=MAX_CPUS).contains(&n), "{n} CPUs; want 1..={MAX_CPUS}");
        let width = n.next_power_of_two();
        let mut ix = ClockIndex {
            width,
            clocks,
            parked: parked & (u64::MAX >> (64 - n)),
            tree: vec![NO_CPU; 2 * width],
        };
        // In id order, so each node's last refresh sees all its leaves.
        for cpu in 0..n {
            ix.refresh(cpu);
        }
        ix
    }

    /// The better of two subtree winners. Every CPU in a left subtree has
    /// a lower id than every CPU in its right sibling, so ties go left.
    fn winner(&self, l: u8, r: u8) -> u8 {
        if l == NO_CPU {
            r
        } else if r == NO_CPU || self.clocks[l as usize] <= self.clocks[r as usize] {
            l
        } else {
            r
        }
    }

    /// Recompute `cpu`'s leaf-to-root path.
    fn refresh(&mut self, cpu: usize) {
        let mut i = self.width + cpu;
        self.tree[i] = if self.is_parked(cpu) {
            NO_CPU
        } else {
            cpu as u8
        };
        while i > 1 {
            i /= 2;
            self.tree[i] = self.winner(self.tree[2 * i], self.tree[2 * i + 1]);
        }
    }

    /// Re-key `cpu` at `clock`.
    pub fn set_clock(&mut self, cpu: usize, clock: Cycles) {
        self.clocks[cpu] = clock;
        self.refresh(cpu);
    }

    /// Park `cpu`: it drops out of selection until unparked.
    pub fn park(&mut self, cpu: usize) {
        self.parked |= 1 << cpu;
        self.refresh(cpu);
    }

    /// Unpark `cpu` at `clock`.
    pub fn unpark(&mut self, cpu: usize, clock: Cycles) {
        self.parked &= !(1 << cpu);
        self.set_clock(cpu, clock);
    }

    /// Whether `cpu` is parked.
    pub fn is_parked(&self, cpu: usize) -> bool {
        self.parked & (1 << cpu) != 0
    }

    /// The lowest-numbered parked CPU.
    pub fn first_parked(&self) -> Option<usize> {
        bits(self.parked).next()
    }

    /// `cpu`'s clock as last keyed.
    pub fn clock(&self, cpu: usize) -> Cycles {
        self.clocks[cpu]
    }

    /// The unparked CPU with the smallest clock (ties: lowest id), or
    /// `None` when every CPU is parked.
    pub fn min(&self) -> Option<usize> {
        let w = self.tree[1];
        (w != NO_CPU).then_some(w as usize)
    }

    /// The smallest clock among the unparked CPUs other than `cpu`: the
    /// best of the sibling subtrees along `cpu`'s leaf-to-root path.
    pub fn min_other(&self, cpu: usize) -> Option<Cycles> {
        let mut i = self.width + cpu;
        let mut best: Option<Cycles> = None;
        while i > 1 {
            let w = self.tree[i ^ 1];
            if w != NO_CPU {
                let c = self.clocks[w as usize];
                best = Some(best.map_or(c, |b| b.min(c)));
            }
            i /= 2;
        }
        best
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
        if queues.is_empty() || queues.len() > MAX_CPUS {
            return Err(SnapError::Invalid("per-cpu queue count"));
        }
        let mut q = PerCpuQueues {
            queues,
            nonempty: 0,
        };
        for cpu in 0..q.cpus() {
            q.note(cpu);
        }
        Ok(q)
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

    /// Reference model for [`PerCpuQueues::victim`]: the linear walk
    /// `(thief + 1) % n`, `(thief + 2) % n`, … the mask replaced.
    fn victim_scan(q: &PerCpuQueues, thief: usize) -> Option<usize> {
        let n = q.cpus();
        (1..n)
            .map(|off| (thief + off) % n)
            .find(|&v| !q.queues[v].is_empty())
    }

    #[test]
    fn victim_mask_matches_linear_walk_under_random_traffic() {
        let mut rng = crate::kfuzz::Rng(0x5ee1);
        for n in [1usize, 2, 3, 63, 64] {
            let mut q = PerCpuQueues::new(n);
            let mut next = 0u32;
            for _ in 0..4000 {
                let cpu = rng.range(0, n as u32) as usize;
                match rng.range(0, 4) {
                    0 => {
                        q.push(cpu, ThreadId(next), rng.range(0, 4));
                        next += 1;
                    }
                    1 => {
                        q.push_front(cpu, ThreadId(next), rng.range(0, 4));
                        next += 1;
                    }
                    2 => {
                        q.pop(cpu);
                    }
                    _ => {
                        let t = ThreadId(rng.range(0, next.max(1)));
                        let held = q.find(t);
                        assert_eq!(q.remove(t), held);
                        assert_eq!(q.find(t), None);
                    }
                }
                for thief in 0..n {
                    assert_eq!(
                        q.victim(thief),
                        victim_scan(&q, thief),
                        "n={n} thief={thief}"
                    );
                    assert_eq!(q.cpu_empty(thief), q.queues[thief].is_empty());
                }
                assert_eq!(q.is_empty(), q.queues.iter().all(ReadyQueue::is_empty));
            }
        }
    }

    /// Reference model for [`ClockIndex`]: per-CPU `(clock, parked)`
    /// pairs scanned linearly, as the run loop did before the index.
    struct ClockScan(Vec<(Cycles, bool)>);

    impl ClockScan {
        fn pick(&self) -> Option<usize> {
            (0..self.0.len())
                .filter(|&i| !self.0[i].1)
                .min_by_key(|&i| (self.0[i].0, i))
        }
        fn second(&self, cpu: usize) -> Option<Cycles> {
            (0..self.0.len())
                .filter(|&i| i != cpu && !self.0[i].1)
                .map(|i| self.0[i].0)
                .min()
        }
        fn first_parked(&self) -> Option<usize> {
            self.0.iter().position(|c| c.1)
        }
    }

    #[test]
    fn clock_index_matches_linear_scans_under_random_traffic() {
        let mut rng = crate::kfuzz::Rng(0xc10c);
        for n in [1usize, 2, 3, 63, 64] {
            let mut ix = ClockIndex::new(vec![0; n], 0);
            let mut model = ClockScan(vec![(0, false); n]);
            for step in 0..6000 {
                let cpu = rng.range(0, n as u32) as usize;
                match rng.range(0, 5) {
                    // Bump a clock: small steps make ties common, and the
                    // occasional huge one exercises the top of the range.
                    0 | 1 => {
                        let c = if step % 97 == 0 {
                            u64::MAX - rng.range(0, 3) as u64
                        } else {
                            model.0[cpu].0.saturating_add(rng.range(0, 3) as u64)
                        };
                        model.0[cpu].0 = c;
                        ix.set_clock(cpu, c);
                    }
                    2 => {
                        model.0[cpu].1 = true;
                        ix.park(cpu);
                    }
                    3 => {
                        let c = model.0[cpu].0.saturating_add(rng.range(0, 5) as u64);
                        model.0[cpu] = (c, false);
                        ix.unpark(cpu, c);
                    }
                    // Kick: the lowest parked CPU wakes at a given instant.
                    _ => {
                        let at = rng.range(0, 1 << 20) as u64;
                        assert_eq!(ix.first_parked(), model.first_parked());
                        if let Some(p) = model.first_parked() {
                            let c = model.0[p].0.max(at);
                            model.0[p] = (c, false);
                            ix.unpark(p, c);
                        }
                    }
                }
                assert_eq!(ix.min(), model.pick(), "n={n} step={step}");
                assert_eq!(ix.first_parked(), model.first_parked());
                for i in 0..n {
                    assert_eq!(ix.min_other(i), model.second(i), "n={n} cpu={i}");
                    assert_eq!(ix.is_parked(i), model.0[i].1);
                }
            }
        }
    }

    #[test]
    fn clock_index_builds_from_clocks_and_parked_bits() {
        let ix = ClockIndex::new(vec![5, 3, 3, 9], 0b0010);
        assert_eq!(ix.min(), Some(2));
        assert_eq!(ix.min_other(2), Some(5));
        assert_eq!(ix.first_parked(), Some(1));
        let all = ClockIndex::new(vec![1, 2, 3], 0b111);
        assert_eq!(all.min(), None);
        assert_eq!(all.min_other(0), None);
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
