//! Property tests for the observers' flat tables.
//!
//! kprof and kspan keep cycles per packed path in a [`PathCycles`] and
//! kspan keeps its live spans in a [`ByThread`]. Both replaced
//! `BTreeMap`s without changing the snapshot format, so random workloads
//! of adds, merges, inserts and removals are checked against a
//! `BTreeMap` reference: the same entries in the same order, the same
//! encoded bytes, and an exact round trip.

use std::collections::BTreeMap;

use fluke_core::kprof::{charge_path, PathCycles, Phase};
use fluke_core::krec::{Snap, SnapError, SnapReader, SnapWriter};
use fluke_core::kspan::{ByThread, USER_FRAME};
use fluke_core::ThreadId;

/// Deterministic 64-bit LCG (top bits are well mixed).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as u32
    }

    fn below(&mut self, n: u32) -> u32 {
        self.next() % n
    }
}

const PHASES: [Phase; 9] = [
    Phase::Entry,
    Phase::Exit,
    Phase::Dispatch,
    Phase::IpcCopy,
    Phase::MemFill,
    Phase::FaultIpc,
    Phase::Sched,
    Phase::Lock,
    Phase::Restart,
];

/// A code a charge can land on: any `charge_path` triple, the top-level
/// lock bucket, or kspan's user frame.
fn random_code(rng: &mut Lcg) -> u32 {
    match rng.below(8) {
        0 => Phase::Lock as u32,
        1 => USER_FRAME,
        _ => {
            let phase = rng.below(10).checked_sub(1).map(|i| PHASES[i as usize]);
            charge_path(rng.below(2) == 0, phase, rng.below(2) == 0)
        }
    }
}

/// Cycles for one add: zero a quarter of the time, since a zero-cycle
/// charge still creates its entry.
fn random_cycles(rng: &mut Lcg) -> u64 {
    if rng.below(4) == 0 {
        0
    } else {
        u64::from(rng.next()) << rng.below(16)
    }
}

/// `f`'s encoding, without the digest trailer.
fn encode(f: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
    let mut w = SnapWriter::new();
    f(&mut w);
    let mut bytes = w.finish();
    bytes.truncate(bytes.len() - 8);
    bytes
}

/// A random table and the map it must equal.
fn random_table(rng: &mut Lcg) -> (PathCycles, BTreeMap<u32, u64>) {
    let mut table = PathCycles::default();
    let mut reference = BTreeMap::new();
    for _ in 0..rng.below(48) {
        let (code, cycles) = (random_code(rng), random_cycles(rng));
        table.add(code, cycles);
        *reference.entry(code).or_insert(0) += cycles;
    }
    (table, reference)
}

fn assert_same(table: &PathCycles, reference: &BTreeMap<u32, u64>, what: &str) {
    let entries: Vec<(u32, u64)> = reference.iter().map(|(&c, &v)| (c, v)).collect();
    assert_eq!(table.iter().collect::<Vec<_>>(), entries, "{what}: entries");
    assert_eq!(table.len(), reference.len(), "{what}: len");
    assert_eq!(table.is_empty(), reference.is_empty(), "{what}: is_empty");
    assert_eq!(table.total(), reference.values().sum(), "{what}: total");
    for (code, cycles) in entries {
        assert_eq!(table.get(code), Some(cycles), "{what}: get {code:#x}");
    }
    assert_eq!(
        encode(|w| table.snap(w)),
        encode(|w| reference.snap(w)),
        "{what}: bytes"
    );
}

#[test]
fn path_table_reads_and_encodes_like_a_btreemap() {
    let mut rng = Lcg(0x0b5e_4e45);
    for case in 0..1000 {
        let (mut table, mut reference) = random_table(&mut rng);
        assert_same(&table, &reference, &format!("case {case}"));
        let bytes = encode(|w| table.snap(w));
        let mut r = SnapReader::new(&bytes);
        assert_eq!(PathCycles::restore(&mut r).as_ref(), Ok(&table));
        assert!(r.at_end(), "case {case}: restore left bytes");

        let (other, other_reference) = random_table(&mut rng);
        table.merge(&other);
        for (code, cycles) in other_reference {
            *reference.entry(code).or_insert(0) += cycles;
        }
        assert_same(&table, &reference, &format!("case {case} merged"));
    }
}

#[test]
fn live_spans_by_thread_encode_like_a_btreemap() {
    let mut rng = Lcg(0x05ba_25e5);
    for case in 0..500 {
        // A thread arena of `threads` slots, spans on a sparse few.
        let threads = 1 + rng.below(300);
        let mut by = ByThread::default();
        let mut reference = BTreeMap::new();
        for _ in 0..rng.below(24) {
            let t = ThreadId(rng.below(threads));
            if rng.below(4) == 0 {
                assert_eq!(by.remove(t), reference.remove(&t), "case {case}");
            } else {
                let (frames, _) = random_table(&mut rng);
                assert_eq!(
                    by.insert(t, frames.clone()),
                    reference.insert(t, frames),
                    "case {case}"
                );
            }
        }
        let entries: Vec<(ThreadId, &PathCycles)> =
            reference.iter().map(|(&t, v)| (t, v)).collect();
        assert_eq!(by.iter().collect::<Vec<_>>(), entries, "case {case}");
        assert_eq!(by.len(), reference.len(), "case {case}");
        let bytes = encode(|w| by.snap(w));
        assert_eq!(bytes, encode(|w| reference.snap(w)), "case {case}: bytes");

        let mut r = SnapReader::new(&bytes);
        let back = ByThread::<PathCycles>::restore(&mut r, threads as usize).unwrap();
        assert!(r.at_end(), "case {case}: restore left bytes");
        assert_eq!(back.iter().collect::<Vec<_>>(), entries, "case {case}");
        // The largest thread with a span bounds the arena from below.
        if let Some((&last, _)) = reference.last_key_value() {
            let short =
                ByThread::<PathCycles>::restore(&mut SnapReader::new(&bytes), last.0 as usize);
            assert_eq!(
                short.err(),
                Some(SnapError::Invalid("kspan span past the thread arena")),
                "case {case}"
            );
        }
    }
}
