//! Shared workload plumbing: built runs, memory-cell loop counters, and
//! the runner.

use fluke_arch::cost::{cycles_to_us, Cycles};
use fluke_arch::{Assembler, Cond, Reg};
use fluke_core::{Kernel, RunExit, Stats, ThreadId};

/// A kernel instance with a workload loaded and ready to run.
pub struct WorkloadRun {
    /// The booted kernel.
    pub kernel: Kernel,
    /// Threads whose completion defines the end of the run.
    pub main_threads: Vec<ThreadId>,
    /// Workload label for reports.
    pub label: &'static str,
}

/// The outcome of a workload run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total simulated cycles from start to the last main thread's halt.
    pub elapsed: Cycles,
    /// Final kernel statistics.
    pub stats: Stats,
    /// Configuration label the run used.
    pub config: &'static str,
    /// Workload label.
    pub workload: &'static str,
}

impl RunResult {
    /// Elapsed simulated milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        cycles_to_us(self.elapsed) / 1000.0
    }
}

/// Why a workload failed to complete ([`try_run_workload`]). Structured so
/// campaign drivers (kfault sweeps, fuzzers) can report a divergence and
/// carry on instead of tearing down the whole process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadError {
    /// The safety budget elapsed before every main thread halted.
    Timeout {
        /// Workload label.
        workload: &'static str,
        /// The exhausted cycle budget.
        budget: Cycles,
    },
    /// The kernel ran out of runnable work (halt or deadlock) with main
    /// threads still unfinished.
    Wedged {
        /// Workload label.
        workload: &'static str,
        /// How the kernel's run loop returned.
        exit: RunExit,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Timeout { workload, budget } => {
                write!(
                    f,
                    "workload {workload} did not finish within {budget} cycles"
                )
            }
            WorkloadError::Wedged { workload, exit } => {
                write!(f, "workload {workload} wedged (exit {exit:?})")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Execute a built workload to completion, or report a structured
/// [`WorkloadError`] if the safety budget elapses or the system wedges.
pub fn try_run_workload(mut w: WorkloadRun, budget: Cycles) -> Result<RunResult, WorkloadError> {
    let start = w.kernel.now();
    try_finish(&mut w, budget)?;
    Ok(RunResult {
        elapsed: w.kernel.now() - start,
        stats: w.kernel.stats.clone(),
        config: w.kernel.cfg.label,
        workload: w.label,
    })
}

/// Run a built workload until its main threads halt, keeping the kernel
/// for inspection; a structured [`WorkloadError`] if the safety budget
/// elapses or the system wedges.
pub fn try_finish(w: &mut WorkloadRun, budget: Cycles) -> Result<(), WorkloadError> {
    let deadline = w.kernel.now() + budget;
    // Run in slices: a periodic probe keeps the timer queue non-empty
    // forever, so the kernel by itself would only return at the deadline.
    const SLICE: Cycles = 50_000; // 0.25ms granularity on completion time
    loop {
        let exit = w.kernel.run(Some((w.kernel.now() + SLICE).min(deadline)));
        let done = w.main_threads.iter().all(|&t| w.kernel.thread_halted(t));
        if done {
            return Ok(());
        }
        match exit {
            RunExit::TimeLimit if w.kernel.now() >= deadline => {
                return Err(WorkloadError::Timeout {
                    workload: w.label,
                    budget,
                });
            }
            RunExit::TimeLimit => {}
            RunExit::AllHalted | RunExit::Deadlock => {
                return Err(WorkloadError::Wedged {
                    workload: w.label,
                    exit,
                });
            }
        }
    }
}

/// Execute a built workload to completion (or the safety budget).
///
/// # Panics
///
/// Panics if the workload fails to finish within `budget` cycles — a
/// workload bug, not a measurement. Top-level benches and tests want that
/// loud failure; campaign drivers use [`try_run_workload`].
pub fn run_workload(w: WorkloadRun, budget: Cycles) -> RunResult {
    try_run_workload(w, budget).unwrap_or_else(|e| panic!("{e}"))
}

/// Emit a counted loop whose counter lives in a memory cell at `cell`
/// (syscall wrappers clobber most registers, so loop counters cannot live
/// in registers). `body` emits the loop body.
pub fn counted_loop(
    a: &mut Assembler,
    label: &str,
    cell: u32,
    count: u32,
    body: impl FnOnce(&mut Assembler),
) {
    // cell <- count
    a.movi(Reg::Ebp, cell);
    a.movi(Reg::Edx, count);
    a.store(Reg::Ebp, 0, Reg::Edx);
    a.label(label);
    body(a);
    // cell -= 1; loop while > 0
    a.movi(Reg::Ebp, cell);
    a.load(Reg::Edx, Reg::Ebp, 0);
    a.subi(Reg::Edx, 1);
    a.store(Reg::Ebp, 0, Reg::Edx);
    a.cmpi(Reg::Edx, 0);
    a.jcc(Cond::Ne, label);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluke_core::Config;

    #[test]
    fn counted_loop_iterates_exactly_n_times() {
        let mut k = Kernel::new(Config::process_np());
        let space = k.create_space();
        k.grant_pages(space, 0x1000, 0x1000, true);
        let acc = 0x1800;
        let mut a = Assembler::new("loop");
        // acc starts 0; add 3 per iteration, 7 iterations.
        counted_loop(&mut a, "body", 0x1c00, 7, |a| {
            a.movi(Reg::Esi, acc);
            a.load(Reg::Ebx, Reg::Esi, 0);
            a.addi(Reg::Ebx, 3);
            a.store(Reg::Esi, 0, Reg::Ebx);
        });
        a.halt();
        let pid = k.register_program(a.finish());
        let t = k.spawn_thread(space, pid, fluke_arch::UserRegs::new(), 8);
        let exit = k.run(Some(10_000_000));
        assert_ne!(exit, RunExit::TimeLimit);
        assert!(k.thread_halted(t));
        assert_eq!(k.read_mem_u32(space, acc), 21);
    }
}
