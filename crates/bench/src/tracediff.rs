//! Cross-model trace diffing: run the same workload under the process
//! and interrupt execution models with `ktrace` enabled, project each
//! trace to its user-visible events, and verify the projections are
//! identical — the paper's claim that the execution model is a kernel
//! implementation detail, checked event by event instead of only at
//! final state.
//!
//! The *full* traces legitimately differ: the models charge different
//! entry/exit and context-switch costs, which shifts preemption timing,
//! and with it restarts, context switches and rollbacks. What must not
//! differ is what each thread could itself observe — the ordered result
//! codes of its completed system calls, its `sys_trace` marks, and its
//! halt ([`fluke_core::Tracer::user_visible`]), compared with
//! [`fluke_core::oracle::diff_user_visible`].

use fluke_core::krec::{fnv64, FNV_OFFSET};
use fluke_core::{Config, Kernel, TraceEvent};
use fluke_workloads::common::{try_finish, WorkloadRun};
use fluke_workloads::flukeperf;

use crate::Scale;

/// Ring capacity for diff runs: generous enough that no event drops
/// (dropped events would punch holes in the projection).
pub const DIFF_RING_CAPACITY: usize = 1 << 20;

/// Run a built workload to completion and hand back the kernel (unlike
/// `run_workload`, which consumes it and keeps only the stats).
///
/// # Panics
///
/// Panics if the workload fails to finish within `budget` cycles.
pub fn run_keep_kernel(mut w: WorkloadRun, budget: u64) -> Kernel {
    try_finish(&mut w, budget).unwrap_or_else(|e| panic!("{e}"));
    w.kernel
}

/// Build and run flukeperf under `cfg` with tracing on; return the
/// kernel with its full trace.
///
/// # Panics
///
/// Panics if the trace ring dropped events: a trace with holes has no
/// faithful user-visible projection or digest.
pub fn run_traced_flukeperf(cfg: Config, scale: Scale) -> Kernel {
    let run = flukeperf::build(cfg.with_tracing(DIFF_RING_CAPACITY), &scale.flukeperf());
    let k = run_keep_kernel(run, 8_000_000_000);
    assert_eq!(
        k.trace.dropped_total(),
        0,
        "trace overflowed; grow the ring"
    );
    k
}

/// A canonical digest of a kernel's *raw* merged trace: FNV-1a over one
/// text line per record, plus the record count.
///
/// This is the strongest behavior-preservation oracle we have: two
/// kernels produce the same digest only if every record — timestamp,
/// CPU, sequence number, event kind and payload — is identical. The
/// golden-digest regression test uses it to prove refactors of the
/// dispatch path change *nothing*, not merely nothing user-visible.
///
/// The canonical line enumerates payload fields explicitly so that
/// *adding* a field to an event (e.g. a derived annotation) does not
/// silently invalidate blessed digests.
pub fn trace_digest(k: &Kernel) -> (u64, u64) {
    let mut h = FNV_OFFSET;
    let merged = k.trace.merged();
    for rec in &merged {
        let tid = rec
            .event
            .thread()
            .map_or_else(|| "-".to_string(), |t| t.0.to_string());
        let payload = match rec.event {
            TraceEvent::SyscallEnter { sys, .. } | TraceEvent::SyscallRestart { sys, .. } => {
                format!("sys={sys}")
            }
            TraceEvent::SyscallExit { code, .. } => format!("code={code}"),
            TraceEvent::IpcSend { bytes, .. } | TraceEvent::IpcTransfer { bytes, .. } => {
                format!("bytes={bytes}")
            }
            TraceEvent::IpcReceive { window, .. } => format!("window={window}"),
            TraceEvent::SoftFault { addr, remedy, .. } => format!("addr={addr} remedy={remedy}"),
            TraceEvent::HardFault { offset, .. } => format!("offset={offset}"),
            TraceEvent::HardFaultDone { remedy, .. } => format!("remedy={remedy}"),
            TraceEvent::Rollback { cycles, .. } => format!("cycles={cycles}"),
            TraceEvent::CtxSwitch { space_switch, .. } => format!("space={}", space_switch as u32),
            TraceEvent::Mark { value, .. } => format!("value={value}"),
            TraceEvent::FaultInjected { kind, site, .. } => format!("kind={kind} site={site}"),
            TraceEvent::IpcMessage { .. }
            | TraceEvent::UserPreempt { .. }
            | TraceEvent::KernelPreempt { .. }
            | TraceEvent::Block { .. }
            | TraceEvent::Wake { .. }
            | TraceEvent::Halt { .. } => String::new(),
        };
        let line = format!(
            "{} {} {} {} {} {}\n",
            rec.at,
            rec.cpu,
            rec.seq,
            rec.event.name(),
            tid,
            payload
        );
        h = fnv64(h, line.as_bytes());
    }
    (h, merged.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluke_core::oracle::diff_user_visible;

    #[test]
    fn process_and_interrupt_models_are_user_visibly_identical() {
        let a = run_traced_flukeperf(Config::process_np(), Scale::Quick);
        let b = run_traced_flukeperf(Config::interrupt_np(), Scale::Quick);
        // The raw traces must differ (the models really are different
        // kernels inside: entry/exit and switch costs shift every
        // timestamp)…
        assert_ne!(
            a.trace.merged(),
            b.trace.merged(),
            "expected different internal event streams across models"
        );
        // …while the user-visible projections are identical.
        let div = diff_user_visible(&a.trace.user_visible(), &b.trace.user_visible());
        assert!(
            div.is_empty(),
            "models diverged: {}",
            div.iter()
                .take(5)
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );
    }

    #[test]
    fn preemption_styles_are_user_visibly_identical() {
        let a = run_traced_flukeperf(Config::process_np(), Scale::Quick);
        let b = run_traced_flukeperf(Config::process_pp(), Scale::Quick);
        let div = diff_user_visible(&a.trace.user_visible(), &b.trace.user_visible());
        assert!(div.is_empty(), "{} divergences", div.len());
    }
}
