//! Address spaces: per-space page tables and the hierarchical memory model.
//!
//! Fluke memory is *hierarchical*: a [Region](fluke_api::ObjType::Region)
//! exports a range of its owner space's address space; a
//! [Mapping](fluke_api::ObjType::Mapping) imports (part of) a region into
//! another space. A page absent from a space's page table may be *derivable*
//! from an entry higher in the hierarchy — a **soft** fault the kernel
//! resolves itself — or may require an RPC to the region's keeper (a
//! user-level memory manager) — a **hard** fault (paper Table 3).
//!
//! The page table itself is a `HashMap`; a per-space software [`Tlb`] caches
//! translations in front of it, and a base-sorted interval index over the
//! space's Mapping objects makes fault resolution logarithmic instead of a
//! linear scan. Both are host-side accelerations: every page-table mutation
//! goes through methods of [`Space`] that shoot down the TLB and keep the
//! index coherent, so cached state can never disagree with the authoritative
//! structures.

use std::collections::HashMap;

use fluke_api::abi::PAGE_SIZE;

use crate::ids::{ObjId, SpaceId, ThreadId};
use crate::phys::FrameId;
use crate::tlb::{Tlb, TlbStats};
use crate::waitq::WaitQueue;

/// A page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// The physical frame backing this page.
    pub frame: FrameId,
    /// Whether stores are permitted.
    pub writable: bool,
}

/// A base-sorted interval index over the Mapping objects imported into a
/// space, answering "which mapping covers this address?" in `O(log n)`.
///
/// `walk_hierarchy` must pick the *first mapping in insertion order* among
/// those covering the faulting address (the object-table scan it replaces
/// iterated the space's mapping list front to back), so each entry carries a
/// monotonically increasing sequence number and lookups minimise over it.
#[derive(Debug, Default)]
struct MapIndex {
    /// `(base, end_exclusive, seq, mapping)` sorted by `(base, seq)`.
    entries: Vec<(u32, u32, u64, ObjId)>,
    /// `prefix_max_end[i]` = max `end_exclusive` over `entries[..=i]`; lets a
    /// backwards scan stop as soon as no earlier interval can reach `addr`.
    prefix_max_end: Vec<u32>,
    next_seq: u64,
}

impl MapIndex {
    fn rebuild_prefix(&mut self) {
        self.prefix_max_end.clear();
        let mut max_end = 0;
        for &(_, end, _, _) in &self.entries {
            max_end = max_end.max(end);
            self.prefix_max_end.push(max_end);
        }
    }

    fn insert(&mut self, oid: ObjId, base: u32, size: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let end = base.saturating_add(size);
        let at = self
            .entries
            .partition_point(|&(b, _, s, _)| (b, s) < (base, seq));
        self.entries.insert(at, (base, end, seq, oid));
        self.rebuild_prefix();
    }

    fn remove(&mut self, oid: ObjId) {
        self.entries.retain(|&(_, _, _, o)| o != oid);
        self.rebuild_prefix();
    }

    /// Change the interval of an existing entry, preserving its sequence
    /// number (and therefore its priority in first-match lookups).
    fn update(&mut self, oid: ObjId, base: u32, size: u32) {
        let Some(pos) = self.entries.iter().position(|&(_, _, _, o)| o == oid) else {
            return;
        };
        let (_, _, seq, _) = self.entries.remove(pos);
        let end = base.saturating_add(size);
        let at = self
            .entries
            .partition_point(|&(b, _, s, _)| (b, s) < (base, seq));
        self.entries.insert(at, (base, end, seq, oid));
        self.rebuild_prefix();
    }

    /// The earliest-inserted mapping whose `[base, end)` contains `addr`.
    fn lookup(&self, addr: u32) -> Option<ObjId> {
        // Last entry with base <= addr; everything after it starts past addr.
        let hi = self.entries.partition_point(|&(b, _, _, _)| b <= addr);
        let mut best: Option<(u64, ObjId)> = None;
        for i in (0..hi).rev() {
            if self.prefix_max_end[i] <= addr {
                break; // no entry at or before i can reach addr
            }
            let (_, end, seq, oid) = self.entries[i];
            if end > addr && best.is_none_or(|(bs, _)| seq < bs) {
                best = Some((seq, oid));
            }
        }
        best.map(|(_, oid)| oid)
    }
}

/// An address space: a page table plus indexes of the memory objects and
/// threads associated with it.
#[derive(Debug)]
pub struct Space {
    /// This space's id.
    pub id: SpaceId,
    /// The object-table entry representing this space (if created via the
    /// API; the boot space is created by the loader).
    pub obj: Option<ObjId>,
    /// Virtual page number → PTE. Private: every mutation must shoot down
    /// the TLB, so all access goes through methods.
    pages: HashMap<u32, Pte>,
    /// Software translation cache in front of `pages`.
    tlb: Tlb,
    /// Mapping objects whose *destination* is this space, in insertion
    /// order. Private so the interval index stays coherent.
    mappings: Vec<ObjId>,
    /// Interval index over `mappings` for logarithmic fault resolution.
    map_index: MapIndex,
    /// Region objects owned by (exporting from) this space.
    pub regions: Vec<ObjId>,
    /// Threads running in this space.
    pub threads: Vec<ThreadId>,
    /// Threads blocked in `space_wait_threads` on this space. Explicit
    /// bookkeeping so the halt path never scans the thread arena.
    pub idle_waiters: WaitQueue<ThreadId>,
    /// Whether this space aliases the kernel's own address space (used to
    /// run process-model legacy code in user mode, paper §5.6).
    pub kernel_alias: bool,
}

impl Space {
    /// Create an empty space.
    pub fn new(id: SpaceId) -> Self {
        Space {
            id,
            obj: None,
            pages: HashMap::new(),
            tlb: Tlb::default(),
            mappings: Vec::new(),
            map_index: MapIndex::default(),
            regions: Vec::new(),
            threads: Vec::new(),
            idle_waiters: WaitQueue::new(),
            kernel_alias: false,
        }
    }

    /// Look up the PTE covering `addr`.
    #[inline]
    pub fn pte(&self, addr: u32) -> Option<Pte> {
        self.pages.get(&(addr / PAGE_SIZE)).copied()
    }

    /// Install a PTE for the page containing `addr`.
    pub fn map_page(&mut self, addr: u32, frame: FrameId, writable: bool) {
        self.pages.insert(addr / PAGE_SIZE, Pte { frame, writable });
        self.tlb.shootdown();
    }

    /// Remove the PTE for the page containing `addr`, returning it.
    pub fn unmap_page(&mut self, addr: u32) -> Option<Pte> {
        let old = self.pages.remove(&(addr / PAGE_SIZE));
        if old.is_some() {
            self.tlb.shootdown();
        }
        old
    }

    /// Install a PTE by virtual page number (bulk grants, population).
    pub fn insert_pte(&mut self, vpn: u32, pte: Pte) {
        self.pages.insert(vpn, pte);
        self.tlb.shootdown();
    }

    /// Remove every PTE in the inclusive vpn range, with one shootdown.
    pub fn unmap_vpn_range(&mut self, first: u32, last: u32) {
        let mut removed = false;
        for vpn in first..=last {
            removed |= self.pages.remove(&vpn).is_some();
        }
        if removed {
            self.tlb.shootdown();
        }
    }

    /// Set the writable bit of an existing PTE; returns false if unmapped.
    pub fn set_vpn_writable(&mut self, vpn: u32, writable: bool) -> bool {
        match self.pages.get_mut(&vpn) {
            Some(pte) => {
                pte.writable = writable;
                self.tlb.shootdown();
                true
            }
            None => false,
        }
    }

    /// Whether a PTE exists for this virtual page number.
    #[inline]
    pub fn has_vpn(&self, vpn: u32) -> bool {
        self.pages.contains_key(&vpn)
    }

    /// Iterate resident (vpn, pte) pairs (read-only; no shootdown).
    pub fn pages_iter(&self) -> impl Iterator<Item = (&u32, &Pte)> {
        self.pages.iter()
    }

    /// Translate `addr` to (frame, offset) if mapped with sufficient access.
    ///
    /// The uncached reference path: consults the page table directly.
    #[inline]
    pub fn translate(&self, addr: u32, write: bool) -> Option<(FrameId, u32)> {
        let pte = self.pte(addr)?;
        if write && !pte.writable {
            return None;
        }
        Some((pte.frame, addr % PAGE_SIZE))
    }

    /// Translate through the software TLB, filling it on miss.
    ///
    /// Identical results to [`Space::translate`] — a generation-valid entry
    /// mirrors the current PTE exactly (including the writable bit), so a
    /// write to a cached read-only page reports the protection fault without
    /// touching the page table.
    #[inline]
    pub fn translate_cached(&mut self, addr: u32, write: bool) -> Option<(FrameId, u32)> {
        let vpn = addr / PAGE_SIZE;
        if let Some((frame, writable)) = self.tlb.lookup(vpn) {
            if write && !writable {
                return None;
            }
            return Some((frame, addr % PAGE_SIZE));
        }
        let pte = self.pages.get(&vpn).copied()?;
        self.tlb.insert(vpn, pte.frame, pte.writable);
        if write && !pte.writable {
            return None;
        }
        Some((pte.frame, addr % PAGE_SIZE))
    }

    /// This space's TLB counters.
    pub fn tlb_stats(&self) -> &TlbStats {
        &self.tlb.stats
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Mapping objects imported into this space, in insertion order.
    pub fn mappings(&self) -> &[ObjId] {
        &self.mappings
    }

    /// Register a Mapping object destined for this space.
    pub fn add_mapping(&mut self, oid: ObjId, base: u32, size: u32) {
        self.mappings.push(oid);
        self.map_index.insert(oid, base, size);
    }

    /// Drop a Mapping object from this space's import list.
    pub fn remove_mapping(&mut self, oid: ObjId) {
        self.mappings.retain(|&m| m != oid);
        self.map_index.remove(oid);
    }

    /// Re-home a Mapping whose base/size changed (state install), keeping
    /// its first-match priority.
    pub fn update_mapping(&mut self, oid: ObjId, base: u32, size: u32) {
        self.map_index.update(oid, base, size);
    }

    /// The first mapping (in insertion order) covering `addr`, if any.
    #[inline]
    pub fn mapping_covering(&self, addr: u32) -> Option<ObjId> {
        self.map_index.lookup(addr)
    }
}

// --- krec snapshot support ------------------------------------------------

use crate::krec::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};

snap_struct!(Pte { frame, writable });

// The prefix-max vector is derived and rebuilt on restore, not stored.
impl Snap for MapIndex {
    fn snap(&self, w: &mut SnapWriter) {
        self.entries.snap(w);
        w.u64(self.next_seq);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut idx = MapIndex {
            entries: Snap::restore(r)?,
            prefix_max_end: Vec::new(),
            next_seq: r.u64()?,
        };
        idx.rebuild_prefix();
        Ok(idx)
    }
}

snap_struct!(Space {
    id,
    obj,
    pages,
    tlb,
    mappings,
    map_index,
    regions,
    threads,
    idle_waiters,
    kernel_alias,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_translate_unmap() {
        let mut s = Space::new(SpaceId(0));
        assert_eq!(s.translate(0x5000, false), None);
        s.map_page(0x5abc, 7, true);
        assert_eq!(s.pte(0x5000).unwrap().frame, 7);
        assert_eq!(s.translate(0x5123, false), Some((7, 0x123)));
        assert_eq!(s.translate(0x5123, true), Some((7, 0x123)));
        assert_eq!(s.unmap_page(0x5fff).unwrap().frame, 7);
        assert_eq!(s.translate(0x5123, false), None);
    }

    #[test]
    fn write_protection_enforced() {
        let mut s = Space::new(SpaceId(0));
        s.map_page(0x1000, 3, false);
        assert_eq!(s.translate(0x1800, false), Some((3, 0x800)));
        assert_eq!(s.translate(0x1800, true), None);
    }

    #[test]
    fn pages_are_4k_granular() {
        let mut s = Space::new(SpaceId(0));
        s.map_page(0x2000, 1, true);
        assert!(s.translate(0x2fff, false).is_some());
        assert!(s.translate(0x3000, false).is_none());
        assert_eq!(s.resident_pages(), 1);
    }

    #[test]
    fn cached_translate_agrees_with_uncached() {
        let mut s = Space::new(SpaceId(0));
        s.map_page(0x4000, 2, true);
        s.map_page(0x5000, 3, false);
        for &(addr, write) in &[
            (0x4010u32, false),
            (0x4010, true),
            (0x5010, false),
            (0x5010, true),
            (0x6000, false),
        ] {
            assert_eq!(s.translate(addr, write), s.translate_cached(addr, write));
            // And again, now hitting the cache.
            assert_eq!(s.translate(addr, write), s.translate_cached(addr, write));
        }
        assert!(s.tlb_stats().hits > 0);
    }

    #[test]
    fn unmap_shoots_down_cached_translation() {
        let mut s = Space::new(SpaceId(0));
        s.map_page(0x4000, 2, true);
        assert!(s.translate_cached(0x4000, true).is_some());
        s.unmap_page(0x4000);
        assert_eq!(s.translate_cached(0x4000, false), None);
    }

    #[test]
    fn protection_downgrade_shoots_down() {
        let mut s = Space::new(SpaceId(0));
        s.map_page(0x4000, 2, true);
        assert!(s.translate_cached(0x4123, true).is_some());
        assert!(s.set_vpn_writable(4, false));
        assert_eq!(s.translate_cached(0x4123, true), None);
        assert!(s.translate_cached(0x4123, false).is_some());
    }

    #[test]
    fn mapping_index_first_match_wins() {
        let mut s = Space::new(SpaceId(0));
        let (a, b, c) = (ObjId(1), ObjId(2), ObjId(3));
        s.add_mapping(a, 0x2000, 0x2000); // [0x2000, 0x4000)
        s.add_mapping(b, 0x1000, 0x4000); // [0x1000, 0x5000) — overlaps a
        s.add_mapping(c, 0x8000, 0x1000); // [0x8000, 0x9000)
        assert_eq!(s.mapping_covering(0x2800), Some(a)); // both cover; a first
        assert_eq!(s.mapping_covering(0x1800), Some(b));
        assert_eq!(s.mapping_covering(0x4800), Some(b));
        assert_eq!(s.mapping_covering(0x8000), Some(c));
        assert_eq!(s.mapping_covering(0x9000), None);
        assert_eq!(s.mapping_covering(0x0fff), None);
        s.remove_mapping(b);
        assert_eq!(s.mapping_covering(0x1800), None);
        assert_eq!(s.mapping_covering(0x2800), Some(a));
    }

    #[test]
    fn mapping_index_update_keeps_priority() {
        let mut s = Space::new(SpaceId(0));
        let (a, b) = (ObjId(1), ObjId(2));
        s.add_mapping(a, 0x2000, 0x1000);
        s.add_mapping(b, 0x6000, 0x2000);
        // Move a on top of b's range; a was inserted first, so it wins.
        s.update_mapping(a, 0x6000, 0x1000);
        assert_eq!(s.mapping_covering(0x6800), Some(a));
        assert_eq!(s.mapping_covering(0x7800), Some(b));
        assert_eq!(s.mapping_covering(0x2800), None);
    }
}
