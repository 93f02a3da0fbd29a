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
