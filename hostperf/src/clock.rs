//! The benchmark's timer: CPU time of the calling thread
//! (`CLOCK_THREAD_CPUTIME_ID`).
//!
//! The benchmark is single-threaded, so while it runs this clock advances with
//! the wall clock. Unlike the wall clock it stops while the thread is not
//! running: when other processes hold the CPU, and, on a virtual machine
//! whose kernel accounts steal time, while the hypervisor has descheduled
//! the virtual CPU. Those gaps are the host noise a timing should leave
//! out; the simulator's own work is what it should keep.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's clock id for the calling thread's CPU time.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn now_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A point on the calling thread's CPU clock.
#[derive(Debug, Clone, Copy)]
pub struct CpuInstant(u64);

impl CpuInstant {
    /// The current point.
    pub fn now() -> CpuInstant {
        CpuInstant(now_ns())
    }

    /// CPU nanoseconds since `self`.
    pub fn elapsed_ns(self) -> u64 {
        now_ns() - self.0
    }

    /// CPU seconds since `self`.
    pub fn elapsed_s(self) -> f64 {
        self.elapsed_ns() as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_with_work() {
        let t0 = CpuInstant::now();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let dt = t0.elapsed_ns();
        assert!(dt > 0 && x != 1);
        assert!(t0.elapsed_ns() >= dt);
    }
}
