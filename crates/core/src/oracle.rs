//! The user-visible oracle: everything a user program can observe of a
//! finished run, and the one comparison every checker uses.
//!
//! The paper's central claim is that interruption, restart and the choice
//! of execution model are invisible to user programs. Each tool that
//! checks the claim — the differential fuzzers, the `kfault` and `krec`
//! sweeps, the big-lock and port-index oracles, the cross-model trace
//! diff — projects a run onto the same [`Outcome`]:
//!
//! * the per-thread user-visible trace projection
//!   ([`crate::Tracer::user_visible`]: syscall result codes, `sys_trace`
//!   marks, halts);
//! * the final values of caller-chosen registers of caller-chosen
//!   threads;
//! * an FNV-1a-64 digest ([`crate::krec::fnv64`]) over caller-given
//!   memory regions followed by caller-given extra bytes.
//!
//! Two runs agree when their outcomes are equal;
//! [`Outcome::first_difference`] names the first component that is not.
//! The comparable configurations are [`crate::Config::comparable`].

use std::collections::{BTreeMap, BTreeSet};

use fluke_arch::Reg;

use crate::ids::{SpaceId, ThreadId};
use crate::kernel::{Kernel, MemAccessError};
use crate::krec::{fnv64, FNV_OFFSET};
use crate::trace::UserVisible;

/// Per-thread user-visible event sequences.
pub type UserVisibleMap = BTreeMap<ThreadId, Vec<UserVisible>>;

/// Everything a user program can observe of a finished run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Per-thread user-visible event sequences.
    pub uv: UserVisibleMap,
    /// Final register values, one row per captured thread in the order
    /// given to [`Outcome::capture`].
    pub regs: Vec<Vec<u32>>,
    /// FNV-1a-64 digest over the captured memory regions, then the extra
    /// bytes.
    pub mem: u64,
}

impl Outcome {
    /// Project a finished run: the user-visible trace, registers `regs` of
    /// each of `threads`, and a digest over `regions` (`(space, base,
    /// len)`, in order) followed by `extra`. Fails if a region byte is
    /// unmapped.
    pub fn capture(
        k: &mut Kernel,
        threads: &[ThreadId],
        regs: &[Reg],
        regions: &[(SpaceId, u32, u32)],
        extra: &[u8],
    ) -> Result<Outcome, MemAccessError> {
        let mut mem = FNV_OFFSET;
        for &(s, base, len) in regions {
            mem = fnv64(mem, &k.try_read_mem(s, base, len)?);
        }
        Ok(Outcome {
            uv: k.trace.user_visible(),
            regs: threads
                .iter()
                .map(|&t| {
                    let r = k.thread_regs(t);
                    regs.iter().map(|&g| r.get(g)).collect()
                })
                .collect(),
            mem: fnv64(mem, extra),
        })
    }

    /// Describe the first component in which `got` differs from this
    /// (golden) outcome: memory digest, then registers, then the first
    /// user-visible divergence. `None` when the outcomes are equal.
    pub fn first_difference(&self, got: &Outcome) -> Option<String> {
        if self.mem != got.mem {
            return Some(format!(
                "memory digest {:#018x} != golden {:#018x}",
                got.mem, self.mem
            ));
        }
        if self.regs != got.regs {
            return Some(format!(
                "final registers {:x?} != golden {:x?}",
                got.regs, self.regs
            ));
        }
        let d = diff_user_visible(&self.uv, &got.uv).into_iter().next()?;
        Some(if got.uv.contains_key(&d.thread) {
            format!("user-visible {d}")
        } else {
            format!("thread {} missing from user-visible trace", d.thread.0)
        })
    }
}

/// One position at which two user-visible projections differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The thread (arena id, identical across runs of the same builder).
    pub thread: ThreadId,
    /// Index into that thread's user-visible sequence.
    pub index: usize,
    /// What the first run saw at that position.
    pub left: Option<UserVisible>,
    /// What the second run saw.
    pub right: Option<UserVisible>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "thread {} event {}: {:?} vs {:?}",
            self.thread.0, self.index, self.left, self.right
        )
    }
}

/// Every position, thread by thread, at which two user-visible
/// projections differ. Empty means the runs were user-visibly identical.
pub fn diff_user_visible(a: &UserVisibleMap, b: &UserVisibleMap) -> Vec<Divergence> {
    let empty = Vec::new();
    let threads: BTreeSet<ThreadId> = a.keys().chain(b.keys()).copied().collect();
    let mut out = Vec::new();
    for thread in threads {
        let left = a.get(&thread).unwrap_or(&empty);
        let right = b.get(&thread).unwrap_or(&empty);
        for index in 0..left.len().max(right.len()) {
            let (l, r) = (left.get(index).copied(), right.get(index).copied());
            if l != r {
                out.push(Divergence {
                    thread,
                    index,
                    left: l,
                    right: r,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden() -> Outcome {
        let mut uv = UserVisibleMap::new();
        uv.insert(
            ThreadId(1),
            vec![UserVisible::Syscall { code: 0 }, UserVisible::Halt],
        );
        uv.insert(ThreadId(2), vec![UserVisible::Mark(7)]);
        Outcome {
            uv,
            regs: vec![vec![0, 0x10], vec![3, 4]],
            mem: 0xfeed,
        }
    }

    #[test]
    fn equal_outcomes_have_no_difference() {
        assert_eq!(golden().first_difference(&golden()), None);
    }

    #[test]
    fn memory_digest_difference_comes_first() {
        let mut got = golden();
        got.mem = 0xbeef;
        got.regs[0][0] = 9;
        let d = golden().first_difference(&got).unwrap();
        assert!(d.starts_with("memory digest"), "{d}");
    }

    #[test]
    fn register_difference_is_named() {
        let mut got = golden();
        got.regs[1][1] = 5;
        let d = golden().first_difference(&got).unwrap();
        assert!(d.starts_with("final registers"), "{d}");
    }

    #[test]
    fn user_visible_difference_names_thread_and_index() {
        let mut got = golden();
        got.uv.get_mut(&ThreadId(1)).unwrap()[1] = UserVisible::Mark(1);
        let d = golden().first_difference(&got).unwrap();
        assert!(d.contains("thread 1 event 1"), "{d}");
    }

    #[test]
    fn missing_thread_is_named() {
        let mut got = golden();
        got.uv.remove(&ThreadId(2));
        let d = golden().first_difference(&got).unwrap();
        assert_eq!(d, "thread 2 missing from user-visible trace");
    }

    #[test]
    fn divergence_list_covers_every_position() {
        let mut got = golden();
        got.uv
            .get_mut(&ThreadId(1))
            .unwrap()
            .push(UserVisible::Mark(3));
        got.uv.insert(ThreadId(3), vec![UserVisible::Halt]);
        let div = diff_user_visible(&golden().uv, &got.uv);
        assert_eq!(div.len(), 2);
        assert_eq!(
            (div[0].thread, div[0].index, div[0].left),
            (ThreadId(1), 2, None)
        );
        assert_eq!(
            (div[1].thread, div[1].right),
            (ThreadId(3), Some(UserVisible::Halt))
        );
    }
}
