//! Equivalence property test for the paged connection arena.
//!
//! `PagedArena` keeps `Arena`'s interface and snapshot encoding but holds
//! its slots in pages of `PagedArena::PAGE`, dropping a page once every
//! index in it has been issued and vacated. Random operation sequences run
//! on it and on the dense `Arena` as reference: inserts; removes of the
//! oldest live entry (the connection table's usual churn), of any issued
//! index (repeats included) and of indices never issued; `get`, `get_mut`
//! and `iter`. Sequences alternate growing and draining bursts so pages
//! fill, empty and drop. After every step the two must agree on values,
//! `slots()`, iteration order and `Snap` bytes; a restore of the
//! paged bytes must round-trip exactly; and the paged arena, restored or
//! not, may hold at most one page (the tail) beyond those with a live
//! entry.

use std::collections::BTreeSet;

use fluke_core::ids::{Arena, PagedArena};
use fluke_core::kfuzz::Rng;
use fluke_core::krec::{Snap, SnapReader, SnapWriter};

const SEQUENCES: u64 = 1_000;
const PAGE: usize = PagedArena::<u8>::PAGE;

fn encode<T: Snap>(x: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    x.snap(&mut w);
    w.finish()
}

fn decode(bytes: &[u8]) -> PagedArena<u8> {
    // Strip the digest trailer `finish` appended.
    let body = &bytes[..bytes.len() - 8];
    let mut r = SnapReader::new(body);
    let a = PagedArena::restore(&mut r).expect("paged arena restores");
    r.expect_end().expect("restore consumes the whole encoding");
    a
}

/// Compare everything observable about `paged` with `dense`, and bound
/// the pages it holds.
fn check(seq: u64, step: u32, what: &str, paged: &PagedArena<u8>, dense: &Arena<u8>) {
    let at = format!("sequence {seq} step {step} ({what})");
    assert_eq!(paged.slots(), dense.slots(), "{at}: slots()");
    let got: Vec<(u32, u8)> = paged.iter().map(|(i, v)| (i, *v)).collect();
    let want: Vec<(u32, u8)> = dense.iter().map(|(i, v)| (i, *v)).collect();
    assert_eq!(got, want, "{at}: iteration");
    for i in 0..dense.slots() as u32 + 2 {
        assert_eq!(paged.get(i), dense.get(i), "{at}: get({i})");
    }
    let live_pages: BTreeSet<usize> = want.iter().map(|&(i, _)| i as usize / PAGE).collect();
    assert!(
        paged.held_pages() <= live_pages.len() + 1,
        "{at}: {} pages held, {} with a live entry",
        paged.held_pages(),
        live_pages.len()
    );
}

/// An index for a remove or lookup: the oldest live entry, any issued
/// index (vacated ones included), or one never issued.
fn pick(rng: &mut Rng, dense: &Arena<u8>) -> u32 {
    let issued = dense.slots() as u32;
    match rng.range(0, 20) {
        0..=13 => match dense.iter().next() {
            Some((i, _)) => i,
            None => issued,
        },
        14..=17 if issued > 0 => rng.range(0, issued),
        18 => u32::MAX,
        _ => issued + rng.range(0, PAGE as u32),
    }
}

#[test]
fn paged_arena_matches_dense_arena() {
    // Steps after which the arena, and its restored copy, held fewer
    // pages than it has issued.
    let mut dropped = 0;
    for seq in 0..SEQUENCES {
        let mut rng = Rng(seq);
        let mut paged = PagedArena::<u8>::new();
        let mut dense = Arena::<u8>::new();
        // Every step re-encodes the whole arena, so most sequences stay
        // inside the first page; every sixteenth runs long enough to fill,
        // drain and drop pages.
        let steps = if seq % 16 == 15 {
            rng.range(3 * PAGE as u32, 4 * PAGE as u32)
        } else {
            rng.range(1, PAGE as u32 / 2)
        };
        let mut grow = false;
        let mut burst = 0;
        for step in 0..steps {
            if burst == 0 {
                grow = !grow || dense.is_empty();
                burst = rng.range(1, 2 * PAGE as u32);
            }
            burst -= 1;
            // Percent of steps that insert, and that insert or remove.
            let (inserts, changes) = if grow { (90, 95) } else { (5, 90) };
            let roll = rng.range(0, 100);
            if roll < inserts {
                let v = rng.next_u64() as u8;
                assert_eq!(
                    paged.insert(v),
                    dense.insert(v),
                    "sequence {seq} step {step}: insert"
                );
            } else if roll < changes {
                let i = pick(&mut rng, &dense);
                assert_eq!(
                    paged.remove(i),
                    dense.remove(i),
                    "sequence {seq} step {step}: remove({i})"
                );
            } else {
                let i = pick(&mut rng, &dense);
                let delta = rng.next_u64() as u8;
                let p = paged.get_mut(i).map(|v| {
                    *v = v.wrapping_add(delta);
                    *v
                });
                let d = dense.get_mut(i).map(|v| {
                    *v = v.wrapping_add(delta);
                    *v
                });
                assert_eq!(p, d, "sequence {seq} step {step}: get_mut({i})");
            }
            check(seq, step, "live", &paged, &dense);
            let bytes = encode(&dense);
            assert_eq!(
                encode(&paged),
                bytes,
                "sequence {seq} step {step}: Snap bytes"
            );
            let restored = decode(&bytes);
            check(seq, step, "restored", &restored, &dense);
            assert_eq!(
                encode(&restored),
                bytes,
                "sequence {seq} step {step}: re-encode"
            );
            dropped += (restored.held_pages() < dense.slots().div_ceil(PAGE)) as u32;
        }
    }
    assert!(dropped > 0, "no step ever dropped a page");
    println!("{dropped} steps with a page dropped");
}
