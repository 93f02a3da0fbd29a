//! Simulated physical memory: page frames allocated on demand.

use fluke_api::abi::PAGE_SIZE;

/// A physical frame number.
pub type FrameId = u32;

/// The bytes of one frame.
type Frame = [u8; PAGE_SIZE as usize];

/// What every unwritten frame reads as.
static ZERO_FRAME: Frame = [0; PAGE_SIZE as usize];

/// Whether `data` is all zeros. An OR over the whole slice, not `all`: an
/// early exit would stop the compiler from vectorizing the scan, and
/// flukeperf's all-zero IPC copies then cost a byte loop each.
#[inline]
fn is_zero(data: &[u8]) -> bool {
    data.iter().fold(0, |acc, &b| acc | b) == 0
}

/// Physical memory as a growable set of 4KB frames.
///
/// Frames store real bytes so IPC transfers, checkpoints and workloads can
/// be verified for data integrity, not just accounted for. Every frame is
/// demand-zero: it reads as zeros and holds no host storage until a write
/// first stores a nonzero byte in it (a write of zeros to an unwritten
/// frame changes nothing, so it stays unwritten). A written frame keeps
/// its storage; only a snapshot restore brings an all-zero frame back
/// unwritten.
#[derive(Debug, Default)]
pub struct PhysMem {
    frames: Vec<Option<Box<Frame>>>,
}

impl PhysMem {
    /// An empty physical memory.
    pub fn new() -> Self {
        PhysMem { frames: Vec::new() }
    }

    /// Allocate a frame that reads as zeros. It gets host storage only when
    /// a write first stores a nonzero byte in it.
    pub fn alloc(&mut self) -> FrameId {
        self.frames.push(None);
        (self.frames.len() - 1) as FrameId
    }

    /// Number of frames allocated.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Number of written frames, those holding host storage: every frame
    /// that has held a nonzero byte since it was allocated or restored.
    pub fn resident_frames(&self) -> usize {
        self.frames.iter().filter(|f| f.is_some()).count()
    }

    /// A frame's bytes, zeros if it was never written.
    #[inline]
    fn frame(&self, frame: FrameId) -> &Frame {
        self.frames[frame as usize]
            .as_deref()
            .unwrap_or(&ZERO_FRAME)
    }

    /// A frame's bytes for a write of `data`, or `None` when the frame is
    /// unwritten and `data` is all zeros: the write would change nothing,
    /// so the frame stays unwritten. Otherwise an unwritten frame
    /// materializes here.
    #[inline]
    fn frame_for(&mut self, frame: FrameId, data: &[u8]) -> Option<&mut Frame> {
        let slot = &mut self.frames[frame as usize];
        if slot.is_none() && is_zero(data) {
            return None;
        }
        Some(slot.get_or_insert_with(|| Box::new([0; PAGE_SIZE as usize])))
    }

    /// Read one byte from a frame.
    #[inline]
    pub fn read_u8(&self, frame: FrameId, offset: u32) -> u8 {
        self.frame(frame)[offset as usize]
    }

    /// Write one byte to a frame.
    #[inline]
    pub fn write_u8(&mut self, frame: FrameId, offset: u32, val: u8) {
        if let Some(f) = self.frame_for(frame, &[val]) {
            f[offset as usize] = val;
        }
    }

    /// Read a slice out of one frame (must not cross the frame boundary).
    pub fn read_slice(&self, frame: FrameId, offset: u32, out: &mut [u8]) {
        debug_assert!(
            offset as usize + out.len() <= PAGE_SIZE as usize,
            "read_slice crosses frame boundary: offset {} + len {} > PAGE_SIZE",
            offset,
            out.len()
        );
        let off = offset as usize;
        out.copy_from_slice(&self.frame(frame)[off..off + out.len()]);
    }

    /// Write a slice into one frame (must not cross the frame boundary).
    pub fn write_slice(&mut self, frame: FrameId, offset: u32, data: &[u8]) {
        debug_assert!(
            offset as usize + data.len() <= PAGE_SIZE as usize,
            "write_slice crosses frame boundary: offset {} + len {} > PAGE_SIZE",
            offset,
            data.len()
        );
        let off = offset as usize;
        if let Some(f) = self.frame_for(frame, data) {
            f[off..off + data.len()].copy_from_slice(data);
        }
    }

    /// Copy `len` bytes between frames (ranges must not cross frame
    /// boundaries; the IPC pump guarantees this by chunking at page edges).
    ///
    /// Same-frame copies (aliased mappings) use `copy_within`, i.e. memmove
    /// semantics: overlapping ranges copy as if through an intermediate
    /// buffer. Like any write, a copy of zeros (from an unwritten frame, for
    /// one) leaves an unwritten destination unwritten.
    pub fn copy(
        &mut self,
        src_frame: FrameId,
        src_off: u32,
        dst_frame: FrameId,
        dst_off: u32,
        len: u32,
    ) {
        debug_assert!(
            src_off + len <= PAGE_SIZE && dst_off + len <= PAGE_SIZE,
            "copy crosses frame boundary: src {}+{} / dst {}+{} vs PAGE_SIZE",
            src_off,
            len,
            dst_off,
            len
        );
        let src_range = src_off as usize..(src_off + len) as usize;
        if src_frame == dst_frame {
            if let Some(f) = &mut self.frames[src_frame as usize] {
                f.copy_within(src_range, dst_off as usize);
            }
            return;
        }
        // Distinct frames: lift the source out so the destination can be
        // borrowed mutably, and copy directly with no staging buffer.
        let dst_range = dst_off as usize..(dst_off + len) as usize;
        let src = self.frames[src_frame as usize].take();
        match &src {
            Some(s) => {
                if let Some(d) = self.frame_for(dst_frame, &s[src_range.clone()]) {
                    d[dst_range].copy_from_slice(&s[src_range]);
                }
            }
            // Known zeros: no scan, and an unwritten destination stays so.
            None => {
                if let Some(d) = &mut self.frames[dst_frame as usize] {
                    d[dst_range].fill(0);
                }
            }
        }
        self.frames[src_frame as usize] = src;
    }
}

// --- krec snapshot support ------------------------------------------------

use crate::krec::{Snap, SnapError, SnapReader, SnapWriter};

/// Every frame encodes as its 4096 raw bytes, an unwritten one as zeros.
/// An all-zero frame restores unwritten, so a restored kernel holds host
/// storage only for frames with a nonzero byte.
impl Snap for PhysMem {
    fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.frames.len());
        for f in &self.frames {
            w.raw(f.as_deref().unwrap_or(&ZERO_FRAME));
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.usize()?;
        let mut frames = Vec::with_capacity(r.capacity_for(n));
        for _ in 0..n {
            let bytes = r.take(PAGE_SIZE as usize)?;
            frames.push((!is_zero(bytes)).then(|| {
                let mut f = Box::new([0u8; PAGE_SIZE as usize]);
                f.copy_from_slice(bytes);
                f
            }));
        }
        Ok(PhysMem { frames })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_zeroed_frames() {
        let mut p = PhysMem::new();
        let f = p.alloc();
        assert_eq!(p.read_u8(f, 0), 0);
        assert_eq!(p.read_u8(f, PAGE_SIZE - 1), 0);
        assert_eq!(p.frame_count(), 1);
    }

    #[test]
    fn frames_materialize_on_first_write_only() {
        let mut p = PhysMem::new();
        let (a, b, c) = (p.alloc(), p.alloc(), p.alloc());
        let mut out = [1u8; 4];
        p.read_slice(a, 0, &mut out);
        assert_eq!((out, p.resident_frames()), ([0; 4], 0));
        // Zeros into an unwritten frame change nothing and leave it so.
        p.copy(a, 0, b, 0, 4);
        p.write_u8(c, 0, 0);
        p.write_slice(c, 0, &[0; 4]);
        assert_eq!(p.resident_frames(), 0);
        p.write_slice(c, 0, &[7; 4]);
        assert_eq!(p.resident_frames(), 1);
        // Unwritten into written zero-fills the range.
        p.copy(a, 0, c, 1, 2);
        p.read_slice(c, 0, &mut out);
        assert_eq!((out, p.resident_frames()), ([7, 0, 0, 7], 1));
        // Written into unwritten materializes the destination.
        p.copy(c, 0, b, 0, 4);
        assert_eq!(p.read_u8(b, 3), 7);
        assert_eq!((p.frame_count(), p.resident_frames()), (3, 2));
    }

    #[test]
    fn byte_and_slice_io() {
        let mut p = PhysMem::new();
        let f = p.alloc();
        p.write_u8(f, 7, 0x5a);
        assert_eq!(p.read_u8(f, 7), 0x5a);
        p.write_slice(f, 100, &[1, 2, 3]);
        let mut out = [0u8; 3];
        p.read_slice(f, 100, &mut out);
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn copy_between_frames_both_orders() {
        let mut p = PhysMem::new();
        let a = p.alloc();
        let b = p.alloc();
        p.write_slice(a, 0, &[9, 8, 7]);
        p.copy(a, 0, b, 10, 3);
        let mut out = [0u8; 3];
        p.read_slice(b, 10, &mut out);
        assert_eq!(out, [9, 8, 7]);
        // Now copy from the higher-numbered frame back to the lower.
        p.write_slice(b, 20, &[4, 5, 6]);
        p.copy(b, 20, a, 30, 3);
        p.read_slice(a, 30, &mut out);
        assert_eq!(out, [4, 5, 6]);
    }

    #[test]
    fn copy_within_one_frame() {
        let mut p = PhysMem::new();
        let f = p.alloc();
        p.write_slice(f, 0, &[1, 2, 3, 4]);
        p.copy(f, 0, f, 8, 4);
        let mut out = [0u8; 4];
        p.read_slice(f, 8, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn copy_within_one_frame_overlapping_is_memmove() {
        let mut p = PhysMem::new();
        let f = p.alloc();
        p.write_slice(f, 0, &[1, 2, 3, 4, 5, 6]);
        // Forward overlap: dst = src + 2 inside the source range.
        p.copy(f, 0, f, 2, 6);
        let mut out = [0u8; 8];
        p.read_slice(f, 0, &mut out);
        assert_eq!(out, [1, 2, 1, 2, 3, 4, 5, 6]);
        // Backward overlap.
        p.copy(f, 2, f, 0, 6);
        p.read_slice(f, 0, &mut out);
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 5, 6]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "crosses frame boundary")]
    fn read_slice_rejects_boundary_crossing() {
        let mut p = PhysMem::new();
        let f = p.alloc();
        let mut out = [0u8; 8];
        p.read_slice(f, PAGE_SIZE - 4, &mut out);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "crosses frame boundary")]
    fn write_slice_rejects_boundary_crossing() {
        let mut p = PhysMem::new();
        let f = p.alloc();
        p.write_slice(f, PAGE_SIZE - 4, &[0u8; 8]);
    }
}
