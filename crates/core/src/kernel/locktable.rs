//! The kernel lock table: one "busy until" slot per [`LockKey`].
//!
//! Dense rather than keyed: the two singleton keys get a slot each, and
//! each per-object class gets a [`Slots`] vector indexed by CPU, space or
//! connection, so an acquire or release is an index, never a search. Each
//! slot keeps presence apart from value (`None` is a key never released,
//! distinct from one stamped at cycle 0), which is what lets the snapshot
//! codec write exactly the keys present, in `LockKey` order.

use fluke_arch::cost::Cycles;

use super::LockKey;

/// Per-[`LockKey`] "busy until" stamps. Absent keys are free.
#[derive(Debug, Default)]
pub(crate) struct LockTable {
    sched: Option<Cycles>,
    runq: Slots,
    handles: Slots,
    space: Slots,
    conn: Slots,
    global: Option<Cycles>,
}

/// Upper bounds on a restored table's per-class indices: a key at or past
/// its bound names no object and is rejected.
pub(crate) struct LockBounds {
    /// Run-queue count.
    pub runqs: usize,
    /// Space-arena slot count (bounds `Handles` and `Space`).
    pub spaces: usize,
    /// Connection-arena slot count.
    pub conns: usize,
    /// Whether `Global` may appear (a `big_lock` kernel).
    pub global: bool,
}

/// Slots per [`Slots`] page.
const PAGE: usize = 256;

/// One class's stamps, indexed by object number, stored in fixed-size
/// pages. Connection numbers are never reused, so a long run stamps
/// hundreds of thousands of them (about 152k in a 64-CPU flukeperf pass).
/// Pages grow without reallocating and copying one ever-larger block: a
/// single doubling `Vec` took the hostperf mp64 workload's peak RSS from
/// 27 MB to 36 MB, pages to 22 MB.
#[derive(Debug, Default)]
struct Slots {
    pages: Vec<Box<[Option<Cycles>; PAGE]>>,
}

impl Slots {
    fn get(&self, i: usize) -> Option<Cycles> {
        self.pages.get(i / PAGE).and_then(|p| p[i % PAGE])
    }

    /// Slot `i`, adding absent pages as needed.
    fn get_mut(&mut self, i: usize) -> &mut Option<Cycles> {
        while self.pages.len() <= i / PAGE {
            self.pages.push(Box::new([None; PAGE]));
        }
        &mut self.pages[i / PAGE][i % PAGE]
    }

    /// The present `(index, stamp)` pairs, in index order.
    fn present(&self) -> impl Iterator<Item = (usize, Cycles)> + '_ {
        self.pages
            .iter()
            .flat_map(|p| p.iter())
            .enumerate()
            .filter_map(|(i, s)| s.map(|c| (i, c)))
    }
}

impl LockTable {
    /// `key`'s slot, if the table has grown to hold it.
    fn slot(&self, key: LockKey) -> Option<Cycles> {
        match key {
            LockKey::Sched => self.sched,
            LockKey::RunQueue(i) => self.runq.get(i),
            LockKey::Handles(i) => self.handles.get(i as usize),
            LockKey::Space(i) => self.space.get(i as usize),
            LockKey::Conn(i) => self.conn.get(i as usize),
            LockKey::Global => self.global,
        }
    }

    /// `key`'s slot, growing its class to hold it.
    fn slot_mut(&mut self, key: LockKey) -> &mut Option<Cycles> {
        match key {
            LockKey::Sched => &mut self.sched,
            LockKey::RunQueue(i) => self.runq.get_mut(i),
            LockKey::Handles(i) => self.handles.get_mut(i as usize),
            LockKey::Space(i) => self.space.get_mut(i as usize),
            LockKey::Conn(i) => self.conn.get_mut(i as usize),
            LockKey::Global => &mut self.global,
        }
    }

    /// When `key` is next free (0 for a key never released).
    pub(crate) fn free_at(&self, key: LockKey) -> Cycles {
        self.slot(key).unwrap_or(0)
    }

    /// Mark `key` busy until at least `now`.
    pub(crate) fn stamp(&mut self, key: LockKey, now: Cycles) {
        let s = self.slot_mut(key);
        *s = Some(s.unwrap_or(0).max(now));
    }

    /// Every present key with its stamp, in [`LockKey`] order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (LockKey, Cycles)> + '_ {
        let one = |k: LockKey, s: Option<Cycles>| s.map(|c| (k, c));
        one(LockKey::Sched, self.sched)
            .into_iter()
            .chain(self.runq.present().map(|(i, c)| (LockKey::RunQueue(i), c)))
            .chain(
                self.handles
                    .present()
                    .map(|(i, c)| (LockKey::Handles(i as u32), c)),
            )
            .chain(
                self.space
                    .present()
                    .map(|(i, c)| (LockKey::Space(i as u32), c)),
            )
            .chain(
                self.conn
                    .present()
                    .map(|(i, c)| (LockKey::Conn(i as u32), c)),
            )
            .chain(one(LockKey::Global, self.global))
    }

    /// Number of present keys.
    pub(crate) fn len(&self) -> usize {
        self.entries().count()
    }

    /// Rebuild a table from decoded entries, rejecting any key outside
    /// `bounds` before it can size a class vector. A repeated key keeps
    /// its last stamp.
    pub(crate) fn from_entries(
        entries: &[(LockKey, Cycles)],
        bounds: &LockBounds,
    ) -> Result<Self, &'static str> {
        let mut t = LockTable::default();
        for &(key, at) in entries {
            let ok = match key {
                LockKey::Sched => true,
                LockKey::RunQueue(q) => q < bounds.runqs,
                LockKey::Handles(i) | LockKey::Space(i) => (i as usize) < bounds.spaces,
                LockKey::Conn(i) => (i as usize) < bounds.conns,
                LockKey::Global => bounds.global,
            };
            if !ok {
                return Err(match key {
                    LockKey::RunQueue(_) => "run-queue lock key past the run-queue count",
                    LockKey::Global => "global lock key without big_lock",
                    _ => "object lock key past its arena",
                });
            }
            *t.slot_mut(key) = Some(at);
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_and_zero_stay_distinct_and_entries_follow_key_order() {
        let mut t = LockTable::default();
        assert_eq!(t.free_at(LockKey::Conn(7)), 0);
        assert_eq!(t.len(), 0);
        t.stamp(LockKey::Global, 5);
        t.stamp(LockKey::Conn(3), 0);
        t.stamp(LockKey::Conn(PAGE as u32 * 2 + 1), 6);
        t.stamp(LockKey::Space(1), 9);
        t.stamp(LockKey::Handles(2), 4);
        t.stamp(LockKey::RunQueue(1), 8);
        t.stamp(LockKey::Sched, 2);
        // Stamps only move forward.
        t.stamp(LockKey::Space(1), 3);
        let got: Vec<_> = t.entries().collect();
        let mut want = got.clone();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(got.len(), 7);
        assert!(got.contains(&(LockKey::Conn(3), 0)));
        assert_eq!(t.free_at(LockKey::Space(1)), 9);
        assert_eq!(t.free_at(LockKey::Conn(2)), 0);
        assert!(!t.entries().any(|(k, _)| k == LockKey::Conn(2)));
    }

    #[test]
    fn from_entries_rejects_out_of_bounds_keys() {
        let bounds = LockBounds {
            runqs: 2,
            spaces: 3,
            conns: 1,
            global: false,
        };
        for (key, ok) in [
            (LockKey::Sched, true),
            (LockKey::RunQueue(1), true),
            (LockKey::RunQueue(2), false),
            (LockKey::Handles(2), true),
            (LockKey::Space(3), false),
            (LockKey::Conn(0), true),
            (LockKey::Conn(u32::MAX), false),
            (LockKey::Global, false),
        ] {
            let t = LockTable::from_entries(&[(key, 1)], &bounds);
            assert_eq!(t.is_ok(), ok, "{key:?}");
        }
        let t = LockTable::from_entries(&[(LockKey::Conn(0), 4), (LockKey::Conn(0), 2)], &bounds)
            .unwrap();
        assert_eq!(t.free_at(LockKey::Conn(0)), 2);
    }
}
