//! memtest: sequential byte-granularity scan of demand-paged memory.
//!
//! "Accesses 16MB of memory one byte at a time sequentially. Memtest runs
//! under a memory manager which allocates memory on demand, exercising
//! kernel fault handling and the exception IPC facility" (§5.3). The
//! per-byte loop is padded to ≈34 cycles/byte, matching the paper's
//! 2884ms / 16MB on the 200MHz baseline.

use fluke_arch::{Assembler, Cond, Reg};
use fluke_core::Config;
use fluke_user::pager::PagerSetup;

use crate::common::WorkloadRun;

/// Base of the demand-paged window the scan walks.
pub const SCAN_BASE: u32 = 0x0400_0000;

/// Cycles of compute padding per byte (loop ≈ 10 cycles + padding ≈ 29
/// cycles/byte of user work; with demand-paging overhead the end-to-end
/// rate lands on the paper's 2884ms / 16MB).
const PAD: u32 = 19;

/// Build memtest scanning `mb` megabytes (the paper uses 16).
///
/// # Panics
///
/// Panics if `mb` is zero.
pub fn build(cfg: Config, mb: u32) -> WorkloadRun {
    assert!(mb >= 1, "memtest needs at least 1MB");
    let mut k = Kernelish::boot(cfg, mb);
    let bytes = mb << 20;
    let mut a = Assembler::new("memtest");
    a.movi(Reg::Ebp, SCAN_BASE);
    a.movi(Reg::Ecx, bytes);
    a.label("scan");
    a.loadb(Reg::Edx, Reg::Ebp, 0);
    a.addi(Reg::Ebp, 1);
    a.compute(PAD);
    a.subi(Reg::Ecx, 1);
    a.cmpi(Reg::Ecx, 0);
    a.jcc(Cond::Ne, "scan");
    a.halt();
    let pid = k.kernel.register_program(a.finish());
    let t = k
        .kernel
        .spawn_thread(k.child, pid, fluke_arch::UserRegs::new(), 8);
    WorkloadRun {
        kernel: k.kernel,
        main_threads: vec![t],
        label: "memtest",
    }
}

struct Kernelish {
    kernel: fluke_core::Kernel,
    child: fluke_core::SpaceId,
}

impl Kernelish {
    fn boot(cfg: Config, mb: u32) -> Kernelish {
        let mut kernel = fluke_core::Kernel::new(cfg);
        let pager = PagerSetup::boot(&mut kernel, mb << 20, 12);
        let child = pager.paged_child(&mut kernel, SCAN_BASE, mb << 20, 0);
        Kernelish { kernel, child }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::run_workload;

    #[test]
    fn memtest_faults_once_per_page() {
        // 256KB scan = 64 pages = 64 hard faults through the pager.
        let run = build_kb(Config::process_np(), 256);
        let res = run_workload(run, 50_000_000_000);
        assert_eq!(res.stats.hard_faults, 64);
        assert!(res.stats.soft_faults >= 64);
    }

    #[test]
    fn memtest_rate_close_to_paper_calibration() {
        // The paper: 16MB in 2884ms → ≈34.4 cycles/byte end to end.
        let run = build_kb(Config::process_np(), 512);
        let res = run_workload(run, 50_000_000_000);
        let per_byte = res.elapsed as f64 / (512.0 * 1024.0);
        assert!(
            (26.0..40.0).contains(&per_byte),
            "cycles/byte {per_byte} out of calibration band"
        );
    }

    #[test]
    fn memtest_tlb_counters_are_pinned() {
        // hostperf's `core.mem.tlb_hits`/`tlb_misses` read these counters;
        // an interpreter fast path that skipped the TLB would move them.
        let mut run = build_kb(Config::process_np(), 256);
        crate::common::try_finish(&mut run, 50_000_000_000).expect("memtest finishes");
        let tlb = run.kernel.tlb_stats();
        assert_eq!((tlb.hits, tlb.misses), (262_464, 257));
    }

    #[test]
    fn memtest_materializes_only_written_frames() {
        // The pager populates one frame per scanned page (64) beside its
        // own granted page, but the scan only reads: the one frame holding
        // host storage is the pager's page, where its fault messages land.
        let mut run = build_kb(Config::process_np(), 256);
        crate::common::try_finish(&mut run, 50_000_000_000).expect("memtest finishes");
        let phys = run.kernel.phys();
        assert_eq!((phys.frame_count(), phys.resident_frames()), (65, 1));
    }

    /// KB-granular variant used by tests.
    fn build_kb(cfg: Config, kb: u32) -> WorkloadRun {
        let mut k = Kernelish::boot(cfg, 1); // 1MB backing
        let bytes = kb << 10;
        let mut a = Assembler::new("memtest");
        a.movi(Reg::Ebp, SCAN_BASE);
        a.movi(Reg::Ecx, bytes);
        a.label("scan");
        a.loadb(Reg::Edx, Reg::Ebp, 0);
        a.addi(Reg::Ebp, 1);
        a.compute(PAD);
        a.subi(Reg::Ecx, 1);
        a.cmpi(Reg::Ecx, 0);
        a.jcc(Cond::Ne, "scan");
        a.halt();
        let pid = k.kernel.register_program(a.finish());
        let t = k
            .kernel
            .spawn_thread(k.child, pid, fluke_arch::UserRegs::new(), 8);
        WorkloadRun {
            kernel: k.kernel,
            main_threads: vec![t],
            label: "memtest",
        }
    }
}
