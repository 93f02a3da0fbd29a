//! Differential property test for the bulk user-memory fast path.
//!
//! Random page layouts — unmapped holes, read-only pages, writable pages
//! and aliases of earlier pages (shared frames) — are built identically
//! in two kernels, one with the software-TLB fast path and one with
//! `Config::fast_mem` off (the per-byte reference, the same algorithm as
//! the `UserMem` trait's byte-at-a-time defaults). Random bulk reads and
//! writes must then agree exactly: same data, same fault address and
//! access kind, same completed-byte count, and the same final memory.
//! The scalar accessors the interpreter uses for every load and store
//! (`read_u8`/`write_u8`/`read_u32`/`write_u32`) are held to the same
//! standard, including u32 accesses that straddle into a faulting page.

use fluke_arch::UserMem;
use fluke_core::{Config, Kernel, SpaceId};

const PAGE: u32 = fluke_api::abi::PAGE_SIZE;
const BASE: u32 = 0x0100_0000;
const PAGES: u32 = 16;

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
}

#[derive(Debug, Clone, Copy)]
enum PageKind {
    Unmapped,
    ReadOnly,
    Writable,
    /// Shares the frame of an earlier page (by index), with its own
    /// writable bit.
    AliasOf(u32, bool),
}

fn roll_layout(rng: &mut Lcg) -> Vec<PageKind> {
    let mut kinds: Vec<PageKind> = Vec::new();
    for i in 0..PAGES {
        let mapped_before: Vec<u32> = (0..i)
            .filter(|&j| !matches!(kinds[j as usize], PageKind::Unmapped))
            .collect();
        let kind = match rng.next() % 8 {
            0 => PageKind::Unmapped,
            1 => PageKind::ReadOnly,
            6 | 7 if !mapped_before.is_empty() => {
                let j = mapped_before[rng.next() as usize % mapped_before.len()];
                PageKind::AliasOf(j, rng.next().is_multiple_of(2))
            }
            _ => PageKind::Writable,
        };
        kinds.push(kind);
    }
    kinds
}

fn addr_of(i: u32) -> u32 {
    BASE + i * PAGE
}

/// Build the layout in a kernel. `fills` holds the initial content of
/// each non-alias mapped page.
fn apply_layout(k: &mut Kernel, space: SpaceId, kinds: &[PageKind], fills: &[Vec<u8>]) {
    for (i, kind) in kinds.iter().enumerate() {
        let a = addr_of(i as u32);
        match *kind {
            PageKind::Unmapped => {}
            PageKind::ReadOnly | PageKind::Writable => {
                k.grant_pages(space, a, PAGE, true);
                k.write_mem(space, a, &fills[i]);
                if matches!(kind, PageKind::ReadOnly) {
                    assert!(k.protect_page(space, a, false));
                }
            }
            PageKind::AliasOf(j, writable) => {
                k.alias_pages(space, a, space, addr_of(j), PAGE, writable);
            }
        }
    }
}

/// One random layout built identically in a fast-path kernel and a
/// reference kernel.
struct Pair {
    kinds: Vec<PageKind>,
    fast: Kernel,
    s_fast: SpaceId,
    reference: Kernel,
    s_ref: SpaceId,
}

impl Pair {
    fn roll(rng: &mut Lcg) -> Pair {
        let kinds = roll_layout(rng);
        let fills: Vec<Vec<u8>> = (0..PAGES)
            .map(|_| (0..PAGE).map(|_| rng.next() as u8).collect())
            .collect();
        let mut fast = Kernel::new(Config::process_np());
        let mut reference = Kernel::new(Config::process_np().with_fast_mem(false));
        let s_fast = fast.create_space();
        let s_ref = reference.create_space();
        apply_layout(&mut fast, s_fast, &kinds, &fills);
        apply_layout(&mut reference, s_ref, &kinds, &fills);
        Pair {
            kinds,
            fast,
            s_fast,
            reference,
            s_ref,
        }
    }

    /// Both views of the layout, fast first.
    fn mems(&mut self) -> (impl UserMem + '_, impl UserMem + '_) {
        (
            self.fast.user_mem(self.s_fast).unwrap(),
            self.reference.user_mem(self.s_ref).unwrap(),
        )
    }

    /// Final memory must agree page by page (a write that committed a
    /// different prefix would show up here even if the results agreed),
    /// and the fast kernel's software TLB must have been exercised.
    fn assert_same_memory(&mut self, seed: u64) {
        for i in 0..PAGES {
            if matches!(self.kinds[i as usize], PageKind::Unmapped) {
                continue;
            }
            let a = addr_of(i);
            let mut got_fast = vec![0u8; PAGE as usize];
            let mut got_ref = vec![0u8; PAGE as usize];
            let (mut f, mut r) = self.mems();
            f.read_bytes(a, &mut got_fast).unwrap();
            r.read_bytes(a, &mut got_ref).unwrap();
            assert_eq!(got_fast, got_ref, "seed {seed}: page {i} contents diverged");
        }
        let tlb = self.fast.tlb_stats();
        assert!(
            tlb.hits > 0 && tlb.misses > 0,
            "seed {seed}: software TLB never exercised ({tlb:?})"
        );
    }
}

#[test]
fn bulk_ops_match_byte_at_a_time_reference_on_random_layouts() {
    for seed in 0..6u64 {
        let mut rng = Lcg(0x9e3779b97f4a7c15 ^ (seed * 0x1234_5678_9abc));
        let mut pair = Pair::roll(&mut rng);

        // Random bulk ops over a window one page wider than the layout on
        // each side, so runs start and end in unmapped territory too.
        for op in 0..200 {
            let addr = BASE - PAGE + rng.next() % ((PAGES + 2) * PAGE);
            let len = (rng.next() % (3 * PAGE)) as usize;
            let ctx = format!("seed {seed} op {op} addr {addr:#x} len {len}");
            if rng.next().is_multiple_of(2) {
                let mut got_fast = vec![0u8; len];
                let mut got_ref = vec![0u8; len];
                let (mut f, mut r) = pair.mems();
                let ra = f.read_bytes(addr, &mut got_fast);
                let rb = r.read_bytes(addr, &mut got_ref);
                assert_eq!(ra, rb, "read result diverged: {ctx}");
                assert_eq!(got_fast, got_ref, "read data diverged: {ctx}");
            } else {
                let data: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
                let (mut f, mut r) = pair.mems();
                let wa = f.write_bytes(addr, &data);
                let wb = r.write_bytes(addr, &data);
                assert_eq!(wa, wb, "write result diverged: {ctx}");
            }
        }
        pair.assert_same_memory(seed);
    }
}

#[test]
fn scalar_ops_match_byte_at_a_time_reference_on_random_layouts() {
    let mut straddle_faults = 0;
    for seed in 0..6u64 {
        let mut rng = Lcg(0x5ca1_ab1e ^ (seed * 0x9abc_def0_1234));
        let mut pair = Pair::roll(&mut rng);
        for op in 0..2000 {
            // Half the accesses start in the last three bytes of a page,
            // so a u32 straddles into the next page — unmapped, read-only
            // or writable.
            let page = BASE - PAGE + (rng.next() % (PAGES + 2)) * PAGE;
            let addr = if rng.next().is_multiple_of(2) {
                page + PAGE - 1 - rng.next() % 3
            } else {
                page + rng.next() % PAGE
            };
            let val = rng.next();
            let ctx = format!("seed {seed} op {op} addr {addr:#x}");
            let (mut f, mut r) = pair.mems();
            match rng.next() % 4 {
                0 => assert_eq!(f.read_u8(addr), r.read_u8(addr), "read_u8: {ctx}"),
                1 => assert_eq!(
                    f.write_u8(addr, val as u8),
                    r.write_u8(addr, val as u8),
                    "write_u8: {ctx}"
                ),
                2 => assert_eq!(f.read_u32(addr), r.read_u32(addr), "read_u32: {ctx}"),
                _ => {
                    let wf = f.write_u32(addr, val);
                    assert_eq!(wf, r.write_u32(addr, val), "write_u32: {ctx}");
                    if matches!(wf, Err(e) if e.addr != addr) {
                        straddle_faults += 1;
                    }
                }
            }
            // The committed prefix of a faulting write is visible in both.
            for b in addr..addr.wrapping_add(4) {
                assert_eq!(f.read_u8(b), r.read_u8(b), "byte {b:#x} after {ctx}");
            }
        }
        pair.assert_same_memory(seed);
    }
    assert!(
        straddle_faults > 0,
        "no u32 write faulted after committing a prefix"
    );
}
