//! Snapshot decoders must not reserve past the image.
//!
//! A collection's length prefix is untrusted: a short input can claim a
//! million elements. Every element encodes to at least one byte, so a
//! decoder reserves no more elements than bytes are left, and a lying
//! prefix fails `Truncated` without a large allocation first. A counting
//! allocator records the largest single request made by this thread while
//! each input decodes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};

use fluke_core::ids::Arena;
use fluke_core::krec::{Snap, SnapError, SnapReader};
use fluke_core::thread::Thread;

struct Counting;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Largest allowed single allocation while decoding a lying prefix.
const LIMIT: usize = 64 << 10;

/// A decode's error, if any, and the largest allocation it made.
type Outcome = (Option<SnapError>, usize);
/// A decode of one type.
type Decoder = fn(&[u8]) -> Outcome;

/// Decode `bytes` as `T`.
fn decode<T: Snap>(bytes: &[u8]) -> Outcome {
    LARGEST.with(|l| l.set(0));
    let err = T::restore(&mut SnapReader::new(bytes)).err();
    (err, LARGEST.with(Cell::get))
}

#[test]
fn lying_length_prefixes_fail_truncated_without_large_reservations() {
    // An 8-byte input whose prefix claims 2^20 slots.
    let claim = (1u64 << 20).to_le_bytes();
    let cases: [(&str, Decoder); 5] = [
        ("Arena<Thread>", decode::<Arena<Thread>>),
        ("Vec<Option<Thread>>", decode::<Vec<Option<Thread>>>),
        ("Vec<u64>", decode::<Vec<u64>>),
        ("VecDeque<u64>", decode::<VecDeque<u64>>),
        ("HashMap<u64, u64>", decode::<HashMap<u64, u64>>),
    ];
    for (name, run) in cases {
        let (err, largest) = run(&claim);
        assert_eq!(err, Some(SnapError::Truncated), "{name}");
        assert!(
            largest <= LIMIT,
            "{name}: a {largest}-byte allocation for an 8-byte input"
        );
    }
}
