//! The Table 6 preemption-latency probe.
//!
//! "We introduce a second, high-priority kernel thread which is scheduled
//! every millisecond, and record its observed preemption latencies" (§5.3).
//! The probe is a native (kernel) thread: on each dispatch it records
//! `now - scheduled_time`, performs a small fixed amount of work, and
//! sleeps until its next period. Periods that arrive while it is still
//! pending count as misses (Table 6's "miss" column).

use fluke_arch::cost::{ms_to_cycles, Cycles};
use fluke_core::{Kernel, NativeAction, NativeBody, Stats, ThreadId};

/// Priority the probe runs at (above every workload thread).
pub const PROBE_PRIORITY: u32 = 24;

/// The probe body: records wakeup→dispatch latency.
#[derive(Debug, Default)]
pub struct LatencyProbe {
    /// Cycles of work modeled per activation.
    pub work: Cycles,
}

impl NativeBody for LatencyProbe {
    fn on_dispatch(&mut self, woken_at: Cycles, now: Cycles, stats: &mut Stats) -> NativeAction {
        if woken_at > 0 {
            stats.probe_hist.record(now.saturating_sub(woken_at));
            stats.probe_runs += 1;
        }
        NativeAction::BlockUntilWoken { work: self.work }
    }
}

/// Install the probe on `k`, scheduled every `period_ms` milliseconds.
pub fn install_probe(k: &mut Kernel, period_ms: u64) -> ThreadId {
    let t = k.spawn_native(
        PROBE_PRIORITY,
        Box::new(LatencyProbe {
            work: 100, // ~0.5µs of probe work per activation
        }),
    );
    let period = ms_to_cycles(period_ms);
    k.start_periodic(t, period, period);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluke_arch::Assembler;
    use fluke_core::Config;

    /// A ~10ms pure-compute spinner at `priority` beside the probe armed
    /// every 1ms, run for exactly 10ms of simulated time.
    fn probe_beside_spinner(cfg: Config, priority: u32) -> Kernel {
        let mut k = Kernel::new(cfg);
        let space = k.create_space();
        k.grant_pages(space, 0x1000, 0x1000, true);
        let mut a = Assembler::new("spin");
        for _ in 0..2100 {
            a.compute(1000);
        }
        a.halt();
        let pid = k.register_program(a.finish());
        k.spawn_thread(space, pid, fluke_arch::UserRegs::new(), priority);
        install_probe(&mut k, 1);
        k.run(Some(ms_to_cycles(10)));
        k
    }

    #[test]
    fn probe_fires_once_per_period_when_cpu_is_idle_or_user() {
        let k = probe_beside_spinner(Config::process_np(), 8);
        // ~9-10 periods elapsed; nearly all should have run with tiny
        // latency (user-mode preemption is immediate).
        assert!(k.stats.probe_runs >= 8, "runs={}", k.stats.probe_runs);
        assert_eq!(k.stats.probe_misses, 0);
        let max = k.stats.probe_hist.max();
        // Below ~2000 cycles (10µs): dispatch + at most one Compute(1000).
        assert!(max < 2_000, "max latency {max} cycles");
    }

    /// On a multiprocessor, a timer wake unparks an idle processor: the
    /// probe runs on the second CPU instead of waiting behind a spinner
    /// that outranks it on the first.
    #[test]
    fn probe_wake_unparks_an_idle_cpu() {
        let cfg = Config::process_np().with_cpus(2).with_tracing(1 << 16);
        let k = probe_beside_spinner(cfg, 30);
        let runs = k.stats.probe_runs;
        assert!(runs >= 8, "runs={runs}");
        assert_eq!(k.stats.probe_misses, 0);
        let wakes = k
            .trace
            .merged()
            .iter()
            .filter(|r| r.event.name() == "wake")
            .count() as u64;
        assert_eq!(wakes, runs, "one wake record per probe run");
    }

    #[test]
    fn probe_misses_counted_when_it_cannot_finish() {
        let mut k = Kernel::new(Config::process_np());
        // A probe whose own work exceeds its period can never keep up.
        let t = k.spawn_native(
            PROBE_PRIORITY,
            Box::new(LatencyProbe {
                work: ms_to_cycles(3),
            }),
        );
        k.start_periodic(t, ms_to_cycles(1), ms_to_cycles(1));
        k.run(Some(ms_to_cycles(20)));
        assert!(k.stats.probe_misses > 0);
    }
}
