//! A software TLB: a small direct-mapped translation cache in front of each
//! space's page-table `HashMap`.
//!
//! Real hardware amortises page-table walks with a TLB; the simulator pays a
//! `HashMap` lookup per byte on its hot paths without one. This cache is a
//! pure host-side optimisation: a hit and a miss produce identical simulated
//! outcomes and cycle charges, so traces and stats are bit-identical with the
//! cache on or off.
//!
//! # Shootdown discipline
//!
//! Entries are tagged with a *generation* number owned by the space. Every
//! page-table mutation — `map_page`, `unmap_page`, protection changes, bulk
//! grants, space teardown — bumps the generation, which invalidates the whole
//! cache at once (a conservative full shootdown: cheap, and impossible to
//! get wrong per-entry). A cached entry is only consulted when its generation
//! matches, so a stale entry can never satisfy an access the page table would
//! fault. Because a generation-valid entry mirrors the current PTE exactly,
//! a write hit on a read-only entry can report the protection fault without
//! falling back to the page table.

use crate::phys::FrameId;

/// Number of slots in the direct-mapped cache. Must be a power of two.
/// 64 slots cover a 256KiB working set; the paper's workloads (64KiB–1.5MiB
/// streaming transfers) touch pages sequentially, so conflict misses are
/// rare even at this size.
const TLB_SLOTS: usize = 64;

/// Host-side hit/miss/shootdown counters for one space's TLB.
///
/// Purely observational: these never feed back into simulated behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations served from the cache.
    pub hits: u64,
    /// Translations that fell through to the page-table `HashMap`.
    pub misses: u64,
    /// Whole-cache invalidations (generation bumps).
    pub shootdowns: u64,
}

impl TlbStats {
    /// Accumulate another counter set into this one.
    pub fn merge(&mut self, other: &TlbStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.shootdowns += other.shootdowns;
    }
}

/// One cached translation: virtual page number → (frame, writable), valid
/// only while `gen` matches the owning space's current generation.
#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    vpn: u32,
    frame: FrameId,
    writable: bool,
    gen: u64,
}

/// A direct-mapped, generation-tagged translation cache.
#[derive(Debug)]
pub struct Tlb {
    slots: Box<[Option<TlbEntry>; TLB_SLOTS]>,
    /// Current generation; entries from older generations are invalid.
    gen: u64,
    /// Counters, host-side only.
    pub stats: TlbStats,
}

impl Default for Tlb {
    fn default() -> Self {
        Tlb {
            slots: Box::new([None; TLB_SLOTS]),
            // Start at 1 so a zeroed entry can never look valid.
            gen: 1,
            stats: TlbStats::default(),
        }
    }
}

impl Tlb {
    #[inline]
    fn slot(vpn: u32) -> usize {
        vpn as usize & (TLB_SLOTS - 1)
    }

    /// Look up `vpn`. Returns `Some((frame, writable))` on a generation-valid
    /// hit; the caller still checks `writable` against the access kind.
    #[inline]
    pub fn lookup(&mut self, vpn: u32) -> Option<(FrameId, bool)> {
        match self.slots[Self::slot(vpn)] {
            Some(e) if e.vpn == vpn && e.gen == self.gen => {
                self.stats.hits += 1;
                Some((e.frame, e.writable))
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Cache a translation fetched from the page table.
    #[inline]
    pub fn insert(&mut self, vpn: u32, frame: FrameId, writable: bool) {
        self.slots[Self::slot(vpn)] = Some(TlbEntry {
            vpn,
            frame,
            writable,
            gen: self.gen,
        });
    }

    /// Invalidate every entry (full shootdown) by bumping the generation.
    #[inline]
    pub fn shootdown(&mut self) {
        self.gen += 1;
        self.stats.shootdowns += 1;
    }
}

// --- krec snapshot support ------------------------------------------------

use crate::krec::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};

snap_struct!(TlbStats {
    hits,
    misses,
    shootdowns,
});

snap_struct!(TlbEntry {
    vpn,
    frame,
    writable,
    gen,
});

// The cache contents are serialized in full (not just the generation):
// hit/miss counters depend on what is cached, and those counters must
// replay bit-identically for restored kernels to digest-match recordings.
impl Snap for Tlb {
    fn snap(&self, w: &mut SnapWriter) {
        self.slots.snap(w);
        w.u64(self.gen);
        self.stats.snap(w);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut slots = Box::new([None; TLB_SLOTS]);
        for s in slots.iter_mut() {
            *s = Snap::restore(r)?;
        }
        Ok(Tlb {
            slots,
            gen: r.u64()?,
            stats: Snap::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut t = Tlb::default();
        assert_eq!(t.lookup(5), None);
        t.insert(5, 9, true);
        assert_eq!(t.lookup(5), Some((9, true)));
        assert_eq!(t.stats.hits, 1);
        assert_eq!(t.stats.misses, 1);
    }

    #[test]
    fn shootdown_invalidates_everything() {
        let mut t = Tlb::default();
        t.insert(5, 9, true);
        t.insert(6, 10, false);
        t.shootdown();
        assert_eq!(t.lookup(5), None);
        assert_eq!(t.lookup(6), None);
        assert_eq!(t.stats.shootdowns, 1);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut t = Tlb::default();
        t.insert(1, 7, true);
        // Same slot (vpn ≡ 1 mod TLB_SLOTS) evicts the previous entry.
        t.insert(1 + TLB_SLOTS as u32, 8, true);
        assert_eq!(t.lookup(1), None);
        assert_eq!(t.lookup(1 + TLB_SLOTS as u32), Some((8, true)));
    }

    #[test]
    fn read_only_entries_keep_writable_bit() {
        let mut t = Tlb::default();
        t.insert(3, 4, false);
        assert_eq!(t.lookup(3), Some((4, false)));
    }
}
