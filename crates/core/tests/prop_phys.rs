//! Equivalence property test for demand-zero physical memory.
//!
//! `PhysMem` keeps an unwritten frame as no storage at all and
//! materializes it on the first write that stores a nonzero byte. Random
//! operation sequences run on it and on a dense reference written here,
//! one always-present `[u8; 4096]` per frame. Writes of zero bytes,
//! all-zero slices and copies out of unwritten frames are all drawn, so
//! every path that could leave stale or missing zeros is exercised. After
//! every sequence the two memories must agree byte for byte, the snapshot
//! encoding must be the reference's dense one (frame count, then raw
//! frames), restore must round-trip exactly, and residency must follow
//! the rule: a frame holds storage once it has held a nonzero byte, and
//! a restored frame only if it holds one now.

use fluke_api::abi::PAGE_SIZE;
use fluke_core::kfuzz::Rng;
use fluke_core::krec::{Snap, SnapReader, SnapWriter};
use fluke_core::phys::PhysMem;

const PAGE: usize = PAGE_SIZE as usize;
const SEQUENCES: u64 = 1_000;
const OPS: u32 = 48;
const MAX_FRAMES: usize = 6;

/// The dense reference: every frame present, plus whether it has ever
/// held a nonzero byte.
#[derive(Default)]
struct Dense {
    frames: Vec<[u8; PAGE]>,
    touched: Vec<bool>,
}

impl Dense {
    fn alloc(&mut self) -> u32 {
        self.frames.push([0; PAGE]);
        self.touched.push(false);
        (self.frames.len() - 1) as u32
    }

    fn write(&mut self, frame: u32, off: usize, data: &[u8]) {
        let f = frame as usize;
        self.frames[f][off..off + data.len()].copy_from_slice(data);
        self.touched[f] |= data.iter().any(|&b| b != 0);
    }

    fn copy(&mut self, src: u32, src_off: usize, dst: u32, dst_off: usize, len: usize) {
        let bytes = self.frames[src as usize][src_off..src_off + len].to_vec();
        self.write(dst, dst_off, &bytes);
    }

    /// The dense snapshot encoding: the frame count as a little-endian
    /// `u64`, then every frame's raw bytes.
    fn encoding(&self) -> Vec<u8> {
        let mut out = (self.frames.len() as u64).to_le_bytes().to_vec();
        for f in &self.frames {
            out.extend_from_slice(f);
        }
        out
    }

    fn nonzero_frames(&self) -> usize {
        self.frames
            .iter()
            .filter(|f| f.iter().any(|&b| b != 0))
            .count()
    }
}

/// A byte that is zero about a third of the time.
fn byte(rng: &mut Rng) -> u8 {
    match rng.range(0, 3) {
        0 => 0,
        _ => rng.range(1, 256) as u8,
    }
}

/// An in-frame range `(offset, len)`: mostly short, sometimes a whole page.
fn span(rng: &mut Rng) -> (usize, usize) {
    let len = match rng.range(0, 8) {
        0 => PAGE,
        1 => 0,
        _ => rng.range(1, 65) as usize,
    };
    (rng.range(0, (PAGE - len) as u32 + 1) as usize, len)
}

fn slice(rng: &mut Rng, len: usize) -> Vec<u8> {
    if rng.range(0, 3) == 0 {
        vec![0; len]
    } else {
        (0..len).map(|_| byte(rng)).collect()
    }
}

fn assert_same(p: &PhysMem, d: &Dense, what: &str) {
    assert_eq!(p.frame_count(), d.frames.len(), "{what}: frame count");
    let mut got = vec![0u8; PAGE];
    for (i, want) in d.frames.iter().enumerate() {
        p.read_slice(i as u32, 0, &mut got);
        assert!(got[..] == want[..], "{what}: frame {i} differs");
        let off = (i * 977) % PAGE;
        assert_eq!(
            p.read_u8(i as u32, off as u32),
            want[off],
            "{what}: read_u8"
        );
    }
}

/// One random operation, applied to both memories; reads are checked as
/// they happen.
fn step(rng: &mut Rng, p: &mut PhysMem, d: &mut Dense, what: &str) {
    if d.frames.is_empty() || (d.frames.len() < MAX_FRAMES && rng.range(0, 8) == 0) {
        assert_eq!(p.alloc(), d.alloc(), "{what}: frame id");
        return;
    }
    let n = d.frames.len() as u32;
    let frame = rng.range(0, n);
    match rng.range(0, 7) {
        0 => {
            let (off, val) = (rng.range(0, PAGE_SIZE), byte(rng));
            p.write_u8(frame, off, val);
            d.write(frame, off as usize, &[val]);
        }
        1 => {
            let (off, len) = span(rng);
            let data = slice(rng, len);
            p.write_slice(frame, off as u32, &data);
            d.write(frame, off, &data);
        }
        2 => {
            let off = rng.range(0, PAGE_SIZE);
            assert_eq!(
                p.read_u8(frame, off),
                d.frames[frame as usize][off as usize],
                "{what}: read_u8"
            );
        }
        3 => {
            let (off, len) = span(rng);
            let mut out = vec![0xa5; len];
            p.read_slice(frame, off as u32, &mut out);
            assert!(
                out[..] == d.frames[frame as usize][off..off + len],
                "{what}: read_slice"
            );
        }
        4 | 5 => {
            // Across frames, in either id order (the source may equal the
            // destination, which is then an in-frame copy).
            let dst = rng.range(0, n);
            let (src_off, len) = span(rng);
            let dst_off = rng.range(0, (PAGE - len) as u32 + 1) as usize;
            p.copy(frame, src_off as u32, dst, dst_off as u32, len as u32);
            d.copy(frame, src_off, dst, dst_off, len);
        }
        _ => {
            // Within one frame, overlapping forward or backward.
            let len = rng.range(2, 65) as usize;
            let shift = rng.range(1, len as u32) as usize;
            let lo = rng.range(0, (PAGE - len - shift) as u32 + 1) as usize;
            let (src_off, dst_off) = if rng.range(0, 2) == 0 {
                (lo, lo + shift)
            } else {
                (lo + shift, lo)
            };
            p.copy(frame, src_off as u32, frame, dst_off as u32, len as u32);
            d.copy(frame, src_off, frame, dst_off, len);
        }
    }
}

#[test]
fn demand_zero_frames_equal_a_dense_memory() {
    for seq in 0..SEQUENCES {
        let what = format!("sequence {seq}");
        let mut rng = Rng(seq);
        let (mut p, mut d) = (PhysMem::new(), Dense::default());
        for _ in 0..rng.range(1, OPS + 1) {
            step(&mut rng, &mut p, &mut d, &what);
        }
        assert_same(&p, &d, &what);
        let touched = d.touched.iter().filter(|&&t| t).count();
        assert_eq!(p.resident_frames(), touched, "{what}: resident frames");

        let mut w = SnapWriter::new();
        p.snap(&mut w);
        let image = w.finish();
        let body = &image[..image.len() - 8];
        assert!(
            body == d.encoding(),
            "{what}: snapshot is not the dense encoding"
        );

        let mut r = SnapReader::new(body);
        let restored = PhysMem::restore(&mut r).expect("restore");
        assert!(r.take(1).is_err(), "{what}: restore left bytes unread");
        assert_same(&restored, &d, &format!("{what} (restored)"));
        assert_eq!(
            restored.resident_frames(),
            d.nonzero_frames(),
            "{what}: a restored all-zero frame must be unwritten"
        );
        let mut again = SnapWriter::new();
        restored.snap(&mut again);
        assert!(
            again.finish() == image,
            "{what}: restore does not round-trip"
        );
    }
}
