//! Typed identifiers for kernel entities.
//!
//! All kernel data structures are arena-allocated and referred to by typed
//! indices, never by pointers — the borrow-friendly idiom for a simulator
//! that must mutate several entities (two IPC peers, a wait queue, the
//! scheduler) in a single operation.

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// The raw arena index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "#{}"), self.0)
            }
        }
    };
}

id_type! {
    /// Identifies a thread control block.
    ThreadId
}
id_type! {
    /// Identifies an address space.
    SpaceId
}
id_type! {
    /// Identifies a kernel object (an entry in the object table).
    ObjId
}
id_type! {
    /// Identifies an IPC connection.
    ConnId
}

/// A growable arena of `T` with stable typed indices and tombstone removal.
#[derive(Debug, Clone)]
pub struct Arena<T> {
    slots: Vec<Option<T>>,
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Arena { slots: Vec::new() }
    }

    /// Insert a value, returning its index.
    pub fn insert(&mut self, value: T) -> u32 {
        self.slots.push(Some(value));
        (self.slots.len() - 1) as u32
    }

    /// Get a live entry.
    pub fn get(&self, idx: u32) -> Option<&T> {
        self.slots.get(idx as usize).and_then(|s| s.as_ref())
    }

    /// Get a live entry mutably.
    pub fn get_mut(&mut self, idx: u32) -> Option<&mut T> {
        self.slots.get_mut(idx as usize).and_then(|s| s.as_mut())
    }

    /// Remove an entry, returning it.
    pub fn remove(&mut self, idx: u32) -> Option<T> {
        self.slots.get_mut(idx as usize).and_then(|s| s.take())
    }

    /// Iterate over live entries with their indices.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i as u32, v)))
    }

    /// Number of slots, live or vacated: one past the largest index ever
    /// issued (indices are never reused).
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether there are no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Slots per [`PagedArena`] page.
const PAGE_SLOTS: usize = 256;

/// One [`PagedArena`] page: a slot per index, `None` until issued.
type Page<T> = Box<[Option<T>; PAGE_SLOTS]>;

/// An [`Arena`] kept in pages of [`PagedArena::PAGE`] slots, for a table
/// whose indices are never reused and whose entries mostly die young (the
/// connection table). A page is dropped once every one of its indices has
/// been issued and vacated, and its buffer is reused for the next page, so
/// the table holds host memory for live entries (plus the partly issued
/// tail page and a pointer and a count per page number), not for every
/// entry ever made. The interface and the snapshot encoding are
/// [`Arena`]'s.
#[derive(Debug, Clone)]
pub struct PagedArena<T> {
    /// One entry per page number; `None` once the page was dropped.
    pages: Vec<Option<Page<T>>>,
    /// Live entries per page number.
    live: Vec<u32>,
    /// Indices issued so far: one past the largest.
    issued: usize,
    /// A dropped page, every slot vacated, kept for the next page.
    spare: Option<Page<T>>,
}

impl<T> PagedArena<T> {
    /// Slots per page.
    pub const PAGE: usize = PAGE_SLOTS;

    /// An empty arena.
    pub fn new() -> Self {
        PagedArena {
            pages: Vec::new(),
            live: Vec::new(),
            issued: 0,
            spare: None,
        }
    }

    /// Insert a value, returning its index.
    pub fn insert(&mut self, value: T) -> u32 {
        self.push(Some(value))
    }

    /// Issue the next index holding `slot` (a vacated one if `None`).
    fn push(&mut self, slot: Option<T>) -> u32 {
        let idx = self.issued;
        let (p, o) = (idx / PAGE_SLOTS, idx % PAGE_SLOTS);
        if o == 0 {
            let page = self.spare.take().unwrap_or_else(|| {
                let slots: Box<[Option<T>]> = (0..PAGE_SLOTS).map(|_| None).collect();
                slots.try_into().ok().expect("a page is PAGE_SLOTS long")
            });
            self.pages.push(Some(page));
            self.live.push(0);
        }
        self.live[p] += slot.is_some() as u32;
        self.pages[p].as_mut().expect("the tail page is held")[o] = slot;
        self.issued += 1;
        if o == PAGE_SLOTS - 1 && self.live[p] == 0 {
            self.drop_page(p);
        }
        idx as u32
    }

    /// Drop page `p`, whose slots are all vacated, keeping it as the
    /// spare.
    fn drop_page(&mut self, p: usize) {
        let page = self.pages[p].take();
        if self.spare.is_none() {
            self.spare = page;
        }
    }

    /// Get a live entry.
    #[inline]
    pub fn get(&self, idx: u32) -> Option<&T> {
        let i = idx as usize;
        self.pages.get(i / PAGE_SLOTS)?.as_ref()?[i % PAGE_SLOTS].as_ref()
    }

    /// Get a live entry mutably.
    #[inline]
    pub fn get_mut(&mut self, idx: u32) -> Option<&mut T> {
        let i = idx as usize;
        self.pages.get_mut(i / PAGE_SLOTS)?.as_mut()?[i % PAGE_SLOTS].as_mut()
    }

    /// Remove an entry, returning it; the last entry out of a fully
    /// issued page drops the page.
    pub fn remove(&mut self, idx: u32) -> Option<T> {
        let i = idx as usize;
        let p = i / PAGE_SLOTS;
        let value = self.pages.get_mut(p)?.as_mut()?[i % PAGE_SLOTS].take()?;
        self.live[p] -= 1;
        if self.live[p] == 0 && (p + 1) * PAGE_SLOTS <= self.issued {
            self.drop_page(p);
        }
        Some(value)
    }

    /// Iterate over live entries with their indices, in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(p, page)| page.as_ref().map(|page| (p * PAGE_SLOTS, page)))
            .flat_map(|(base, page)| {
                page.iter()
                    .enumerate()
                    .filter_map(move |(o, s)| s.as_ref().map(|v| ((base + o) as u32, v)))
            })
    }

    /// Number of slots, live or vacated: one past the largest index ever
    /// issued (indices are never reused).
    pub fn slots(&self) -> usize {
        self.issued
    }

    /// Pages currently holding host storage: at most the pages with a live
    /// entry plus the tail page.
    pub fn held_pages(&self) -> usize {
        self.pages.iter().flatten().count()
    }
}

impl<T> Default for PagedArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_insert_get_remove() {
        let mut a: Arena<&str> = Arena::new();
        let x = a.insert("x");
        let y = a.insert("y");
        assert_eq!(a.get(x), Some(&"x"));
        assert_eq!(a.len(), 2);
        assert_eq!(a.remove(x), Some("x"));
        assert_eq!(a.get(x), None);
        assert_eq!(a.remove(x), None);
        assert_eq!(a.get(y), Some(&"y"));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn arena_iter_skips_tombstones() {
        let mut a: Arena<u32> = Arena::new();
        let i0 = a.insert(10);
        a.insert(20);
        a.remove(i0);
        let items: Vec<_> = a.iter().map(|(_, v)| *v).collect();
        assert_eq!(items, vec![20]);
    }

    #[test]
    fn id_display() {
        assert_eq!(format!("{}", ThreadId(3)), "ThreadId#3");
        assert_eq!(ObjId(7).index(), 7);
    }
}

// --- krec snapshot support ------------------------------------------------

use crate::krec::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};

snap_struct!(ThreadId(0));
snap_struct!(SpaceId(0));
snap_struct!(ObjId(0));
snap_struct!(ConnId(0));

// Arenas serialize their full slot vector, tombstones included: indices are
// identities, so destroyed-handle holes must survive the round trip.
impl<T: Snap> Snap for Arena<T> {
    fn snap(&self, w: &mut SnapWriter) {
        self.slots.snap(w);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Arena {
            slots: Snap::restore(r)?,
        })
    }
}

// Byte for byte the encoding of the dense `Vec<Option<T>>`: the slot
// count, then a tag per slot, a dropped page written as `PAGE` vacated
// slots. Restore issues slot by slot, so vacated pages drop as it goes.
impl<T: Snap> Snap for PagedArena<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.issued);
        for (p, page) in self.pages.iter().enumerate() {
            match page {
                Some(page) => {
                    let issued = PAGE_SLOTS.min(self.issued - p * PAGE_SLOTS);
                    page[..issued].iter().for_each(|s| s.snap(w));
                }
                None => w.raw(&[0; PAGE_SLOTS]),
            }
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.usize()?;
        let mut arena = PagedArena::new();
        for _ in 0..n {
            arena.push(Snap::restore(r)?);
        }
        Ok(arena)
    }
}
