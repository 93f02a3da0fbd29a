//! The `kmon` observability dashboard: one instrumented `flukeperf` run
//! per Table 4 configuration with the `kprof` cycle-attribution profiler
//! enabled, the Table 6 latency probe installed, and the kernel-memory
//! gauges sampled as a time series.
//!
//! Everything here reads *simulated* state — the kprof phase tree, the
//! preemption-latency histogram, the `kstat` registry — so the dashboard
//! is bit-deterministic for a given scale, and the zero-perturbation
//! property (instrumentation changes no simulated number) is what makes
//! its numbers trustworthy: they describe the same run the uninstrumented
//! kernel would have performed.

use fluke_arch::cost::Cycles;
use fluke_core::{Config, Kernel};
use fluke_json::Json;
use fluke_workloads::common::WorkloadRun;
use fluke_workloads::flukeperf;
use fluke_workloads::latency::install_probe;

use crate::Scale;

/// Safety budget for one observed run (same as the trace-diff harness).
const RUN_BUDGET: Cycles = 8_000_000_000;

/// How often the memory gauges are sampled (1M cycles = 5ms at 200MHz).
const SAMPLE_PERIOD: Cycles = 1_000_000;

/// Period of the installed latency probe, in milliseconds.
const PROBE_PERIOD_MS: u64 = 1;

/// Cap on memory-gauge samples exported per config in the JSON report
/// (the dashboard peaks still use the full-resolution series).
const MAX_EXPORTED_SAMPLES: usize = 128;

/// One sample of the live kernel-memory gauges (Table 7 as a time
/// series).
#[derive(Debug, Clone)]
pub struct MemSample {
    /// Simulated time of the sample.
    pub at: Cycles,
    /// Live (non-halted) threads.
    pub live_threads: u64,
    /// TCB bytes charged (interrupt model).
    pub tcb_bytes: u64,
    /// Kernel-stack bytes charged (process model).
    pub kstacks_bytes: u64,
    /// Bytes of kernel stacks retained across in-kernel preemptions.
    pub retained_kstack_bytes: u64,
}

/// One fully-instrumented run: the finished kernel (kprof, kstat and
/// trace-free) plus the memory-gauge time series sampled along the way.
pub struct Observed {
    /// The finished kernel, with `kprof` attribution complete.
    pub kernel: Kernel,
    /// Memory gauges sampled every [`SAMPLE_PERIOD`] cycles.
    pub mem_series: Vec<MemSample>,
}

impl Observed {
    /// The configuration label of this run ("Process NP", …).
    pub fn label(&self) -> &'static str {
        self.kernel.cfg.label
    }

    /// Peak of one gauge over the series.
    fn peak(&self, f: impl Fn(&MemSample) -> u64) -> u64 {
        self.mem_series.iter().map(f).max().unwrap_or(0)
    }
}

fn sample(k: &Kernel) -> MemSample {
    let g = k.mem_gauges();
    MemSample {
        at: k.now(),
        live_threads: g.live_threads,
        tcb_bytes: g.tcb_bytes,
        kstacks_bytes: g.kstacks_bytes,
        retained_kstack_bytes: g.retained_kstack_bytes,
    }
}

/// Run `flukeperf` under `cfg` with `kprof` enabled and the latency
/// probe installed, sampling the memory gauges as it goes.
///
/// # Panics
///
/// Panics if the workload fails to finish within the safety budget.
pub fn run_observed(cfg: Config, scale: Scale) -> Observed {
    let mut run: WorkloadRun = flukeperf::build(cfg.with_kprof().with_kspan(), &scale.flukeperf());
    install_probe(&mut run.kernel, PROBE_PERIOD_MS);
    let start = run.kernel.now();
    let deadline = start + RUN_BUDGET;
    let mut series = vec![sample(&run.kernel)];
    let mut next_sample = start + SAMPLE_PERIOD;
    loop {
        let until = (run.kernel.now() + SAMPLE_PERIOD.min(50_000))
            .min(next_sample)
            .min(deadline);
        let exit = run.kernel.run(Some(until));
        if run.kernel.now() >= next_sample {
            series.push(sample(&run.kernel));
            next_sample += SAMPLE_PERIOD;
        }
        if run
            .main_threads
            .iter()
            .all(|&t| run.kernel.thread_halted(t))
        {
            break;
        }
        match exit {
            fluke_core::RunExit::TimeLimit if run.kernel.now() >= deadline => {
                panic!(
                    "workload {} did not finish within {RUN_BUDGET} cycles",
                    run.label
                )
            }
            fluke_core::RunExit::TimeLimit => {}
            other => panic!("workload {} wedged (exit {other:?})", run.label),
        }
    }
    series.push(sample(&run.kernel));
    Observed {
        kernel: run.kernel,
        mem_series: series,
    }
}

/// Run every valid Table 4 configuration instrumented.
pub fn run_sweep(scale: Scale) -> Vec<Observed> {
    Config::all_five()
        .into_iter()
        .map(|cfg| run_observed(cfg, scale))
        .collect()
}

/// One summary line for a histogram: count, p50, p95, p99, max (cycles).
fn hist_line(h: &fluke_core::Histogram) -> String {
    format!(
        "n={} p50={} p95={} p99={} max={} cycles",
        h.count(),
        h.percentile(50.0),
        h.percentile(95.0),
        h.percentile(99.0),
        h.max()
    )
}

/// Render the full text dashboard for a set of observed runs: per
/// configuration, the kprof attribution tree, the preemption-latency
/// summary, the memory-gauge peaks, a flamegraph sample, and the nonzero
/// `kstat` registry.
pub fn render_dashboard(runs: &[Observed]) -> String {
    let mut out = String::new();
    for o in runs {
        let k = &o.kernel;
        out.push_str(&format!(
            "=== {} {}\n",
            o.label(),
            "=".repeat(60usize.saturating_sub(o.label().len()))
        ));
        out.push_str(&k.kprof.tree_report());
        out.push_str(&format!(
            "preemption latency (event -> dispatch): {}\n",
            hist_line(k.kprof.preempt_latency())
        ));
        out.push_str(&format!(
            "kernel memory peaks: tcb={}B kstacks={}B retained={}B live_threads={}\n",
            o.peak(|s| s.tcb_bytes),
            o.peak(|s| s.kstacks_bytes),
            o.peak(|s| s.retained_kstack_bytes),
            o.peak(|s| s.live_threads),
        ));
        let collapsed = k.kprof.collapsed();
        if !collapsed.is_empty() {
            out.push_str("flamegraph (collapsed stacks, top lines):\n");
            for line in collapsed.iter().take(4) {
                out.push_str(&format!("  {line}\n"));
            }
        }
        if k.kspan.enabled {
            out.push_str(&format!(
                "kspan: {} requests completed, {} aborted, {} flow edges; e2e {}\n",
                k.kspan.completed().len(),
                k.kspan.aborted(),
                k.kspan.flows().len(),
                hist_line(k.kspan.e2e_histogram()),
            ));
            out.push_str("per-class e2e latency:\n");
            for (class, h) in k.kspan.class_histograms() {
                out.push_str(&format!("  {class}: {}\n", hist_line(h)));
            }
            let cp = critical_path_totals(k);
            out.push_str(&format!(
                "critical path (summed over completed requests): on_cpu={} \
                 runnable_wait={} blocked_ipc={} lock_wait={} blocked_other={}\n",
                cp.0, cp.1, cp.2, cp.3, cp.4,
            ));
            let top = k.kspan.top_contended(5);
            if !top.is_empty() {
                out.push_str("top contended objects:\n");
                for (obj, c) in top {
                    out.push_str(&format!(
                        "  {obj}: {} wait cycles over {} waits\n",
                        c.wait_cycles, c.waits
                    ));
                }
            }
            let flame = collapsed_spans(k);
            if !flame.is_empty() {
                out.push_str("request flamegraph (collapsed, top lines):\n");
                for line in flame.iter().take(4) {
                    out.push_str(&format!("  {line}\n"));
                }
            }
        }
        out.push_str("kstat (nonzero):\n");
        for line in k.kstat().dump_text(false).lines() {
            out.push_str(&format!("  {line}\n"));
        }
        out.push('\n');
    }
    out
}

/// Sum the five critical-path buckets over every completed request:
/// (on_cpu, runnable_wait, blocked_ipc, lock_wait, blocked_other).
pub fn critical_path_totals(k: &Kernel) -> (u64, u64, u64, u64, u64) {
    let mut t = (0u64, 0u64, 0u64, 0u64, 0u64);
    for r in k.kspan.completed() {
        t.0 += r.on_cpu;
        t.1 += r.runnable_wait;
        t.2 += r.blocked_ipc;
        t.3 += r.lock_wait;
        t.4 += r.blocked_other;
    }
    t
}

/// Per-request-class collapsed flamegraph lines: `class;phase-path cycles`,
/// in deterministic (class, path) order, fed by the per-span kprof phase
/// paths folded at request close.
pub fn collapsed_spans(k: &Kernel) -> Vec<String> {
    let mut lines = Vec::new();
    for (class, frames) in k.kspan.class_frames() {
        for (&code, &cycles) in frames {
            lines.push(format!(
                "{class};{} {cycles}",
                fluke_core::kspan::frame_name(code)
            ));
        }
    }
    lines
}

fn hist_json(h: &fluke_core::Histogram) -> Json {
    let mut j = Json::obj();
    j.set("count", Json::from_u64(h.count()));
    j.set("p50", Json::from_u64(h.percentile(50.0)));
    j.set("p95", Json::from_u64(h.percentile(95.0)));
    j.set("p99", Json::from_u64(h.percentile(99.0)));
    j.set("max", Json::from_u64(h.max()));
    j
}

/// Build the `BENCH_observability.json` document.
pub fn to_json(scale: Scale, runs: &[Observed]) -> Json {
    let mut doc = Json::obj();
    doc.set("scale", Json::Str(scale.label().to_string()));
    let mut configs = Vec::new();
    for o in runs {
        let k = &o.kernel;
        let mut c = Json::obj();
        c.set("label", Json::Str(o.label().to_string()));
        c.set("total_cycles", Json::from_u64(k.total_cpu_cycles()));
        let mut prof = Json::obj();
        prof.set("user_cycles", Json::from_u64(k.kprof.user_cycles()));
        prof.set("idle_cycles", Json::from_u64(k.kprof.idle_cycles()));
        prof.set("kernel_cycles", Json::from_u64(k.kprof.kernel_cycles()));
        let mut flat = Json::obj();
        for (path, cycles) in k.kprof.flat() {
            flat.set(&path, Json::from_u64(cycles));
        }
        prof.set("flat", flat);
        prof.set(
            "collapsed",
            Json::Arr(k.kprof.collapsed().into_iter().map(Json::Str).collect()),
        );
        c.set("kprof", prof);
        c.set("preempt_latency", hist_json(k.kprof.preempt_latency()));
        let mut mem = Json::obj();
        mem.set("tcb_peak_bytes", Json::from_u64(o.peak(|s| s.tcb_bytes)));
        mem.set(
            "kstacks_peak_bytes",
            Json::from_u64(o.peak(|s| s.kstacks_bytes)),
        );
        mem.set(
            "retained_peak_bytes",
            Json::from_u64(o.peak(|s| s.retained_kstack_bytes)),
        );
        // Decimate the exported series to a bounded number of points —
        // peaks above are computed from the full-resolution series.
        let stride = o.mem_series.len().div_ceil(MAX_EXPORTED_SAMPLES).max(1);
        let last = o.mem_series.len().saturating_sub(1);
        mem.set(
            "samples",
            Json::Arr(
                o.mem_series
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % stride == 0 || *i == last)
                    .map(|(_, s)| {
                        let mut j = Json::obj();
                        j.set("at", Json::from_u64(s.at));
                        j.set("live_threads", Json::from_u64(s.live_threads));
                        j.set("tcb_bytes", Json::from_u64(s.tcb_bytes));
                        j.set("kstacks_bytes", Json::from_u64(s.kstacks_bytes));
                        j.set(
                            "retained_kstack_bytes",
                            Json::from_u64(s.retained_kstack_bytes),
                        );
                        j
                    })
                    .collect(),
            ),
        );
        c.set("mem", mem);
        c.set("kstat", k.kstat().to_json());
        if k.kspan.enabled {
            let mut sp = Json::obj();
            sp.set("requests", Json::from_u64(k.kspan.completed().len() as u64));
            sp.set("aborted", Json::from_u64(k.kspan.aborted()));
            sp.set("flows", Json::from_u64(k.kspan.flows().len() as u64));
            sp.set("e2e", hist_json(k.kspan.e2e_histogram()));
            let mut classes = Json::obj();
            for (class, h) in k.kspan.class_histograms() {
                classes.set(class, hist_json(h));
            }
            sp.set("classes", classes);
            let cp = critical_path_totals(k);
            let mut cpj = Json::obj();
            cpj.set("on_cpu", Json::from_u64(cp.0));
            cpj.set("runnable_wait", Json::from_u64(cp.1));
            cpj.set("blocked_ipc", Json::from_u64(cp.2));
            cpj.set("lock_wait", Json::from_u64(cp.3));
            cpj.set("blocked_other", Json::from_u64(cp.4));
            sp.set("critical_path", cpj);
            sp.set(
                "top_contended",
                Json::Arr(
                    k.kspan
                        .top_contended(8)
                        .into_iter()
                        .map(|(obj, c)| {
                            let mut j = Json::obj();
                            j.set("object", Json::Str(obj.to_string()));
                            j.set("wait_cycles", Json::from_u64(c.wait_cycles));
                            j.set("waits", Json::from_u64(c.waits));
                            j
                        })
                        .collect(),
                ),
            );
            sp.set(
                "flamegraph",
                Json::Arr(collapsed_spans(k).into_iter().map(Json::Str).collect()),
            );
            c.set("kspan", sp);
        }
        configs.push(c);
    }
    doc.set("configs", Json::Arr(configs));
    doc
}

/// Blessed quick-scale upper bounds for the preemption-latency *maximum*
/// (cycles), per configuration. CI's `kmon --check` step fails if a
/// quick-scale run exceeds a bound — the §5.3 regression gate.
///
/// Only the two "interesting" rows are gated: Process FP (the paper's
/// best case — full kernel preemptibility must stay tight) and Interrupt
/// PP (the best the interrupt model can do). The NP rows are unbounded
/// by design: without preemption a compute burst legitimately holds the
/// CPU for a full timeslice.
///
/// Bounds are the measured quick-scale maxima with ~2x headroom, blessed
/// like the ktrace golden digests. Re-measure with
/// `FLUKE_BENCH_SCALE=quick cargo run -p fluke-bench --bin kmon` after an
/// intentional cost-model change.
pub const QUICK_LATENCY_MAX_BOUNDS: &[(&str, u64)] = &[
    // Measured quick-scale maxima: 3,520 and 6,570 cycles.
    ("Process FP", 8_000),
    ("Interrupt PP", 15_000),
];

/// Check quick-scale preemption-latency maxima against the blessed
/// bounds. Returns one message per violation.
pub fn check_regression(runs: &[Observed]) -> Vec<String> {
    let mut errors = Vec::new();
    for (label, bound) in QUICK_LATENCY_MAX_BOUNDS {
        match runs.iter().find(|o| o.label() == *label) {
            None => errors.push(format!("no observed run labelled {label}")),
            Some(o) => {
                let h = o.kernel.kprof.preempt_latency();
                if h.count() == 0 {
                    errors.push(format!("{label}: no preemption-latency samples"));
                } else if h.max() > *bound {
                    errors.push(format!(
                        "{label}: preemption-latency max {} cycles exceeds blessed bound {}",
                        h.max(),
                        bound
                    ));
                }
            }
        }
    }
    errors
}

/// Maximum tolerated relative growth of the kspan end-to-end p99 between
/// the committed `BENCH_observability.json` and a fresh quick-scale run.
pub const E2E_P99_TOLERANCE: f64 = 0.10;

/// Per-config `label -> kspan e2e p99` from a report document. Configs
/// without a kspan section (older reports) are skipped.
fn e2e_p99s(doc: &Json) -> std::collections::BTreeMap<String, u64> {
    let mut out = std::collections::BTreeMap::new();
    let Some(configs) = doc.get("configs").and_then(Json::items) else {
        return out;
    };
    for c in configs {
        let (Some(label), Some(p99)) = (
            c.get("label").and_then(Json::as_str),
            c.get("kspan")
                .and_then(|s| s.get("e2e"))
                .and_then(|e| e.get("p99"))
                .and_then(Json::as_u64),
        ) else {
            continue;
        };
        out.insert(label.to_string(), p99);
    }
    out
}

/// Compare a freshly generated report against the committed one: any
/// configuration whose kspan end-to-end p99 grew by more than
/// [`E2E_P99_TOLERANCE`] is a regression. Same-scale reports only.
pub fn check_e2e_regression(committed: &Json, fresh: &Json) -> Vec<String> {
    if committed.get("scale") != fresh.get("scale") {
        // A scale change makes latencies incomparable; nothing to gate.
        return Vec::new();
    }
    let want = e2e_p99s(committed);
    let got = e2e_p99s(fresh);
    let mut errors = Vec::new();
    for (label, old) in &want {
        match got.get(label) {
            None => errors.push(format!("{label}: missing from fresh report")),
            Some(new) => {
                if (*new as f64) > (*old as f64) * (1.0 + E2E_P99_TOLERANCE) {
                    errors.push(format!(
                        "{label}: kspan e2e p99 {new} cycles exceeds committed {old} \
                         by more than {:.0}%",
                        E2E_P99_TOLERANCE * 100.0
                    ));
                }
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance-criteria invariant: the kprof phase totals sum to
    /// exactly the simulated cycles on every CPU — no cycle unattributed,
    /// none double-counted — and agree with the independently-maintained
    /// `Stats` cycle counters.
    #[test]
    fn kprof_attribution_sums_exactly_to_simulated_cycles() {
        for cfg in Config::all_five() {
            let o = run_observed(cfg, Scale::Quick);
            let k = &o.kernel;
            let label = o.label();
            assert!(k.kprof.enabled, "{label}: kprof should be on");
            assert_eq!(
                k.kprof.total(),
                k.total_cpu_cycles(),
                "{label}: kprof phase totals must sum to total simulated cycles \
                 (user={} idle={} kernel={})",
                k.kprof.user_cycles(),
                k.kprof.idle_cycles(),
                k.kprof.kernel_cycles(),
            );
            assert_eq!(k.kprof.user_cycles(), k.stats.user_cycles, "{label}: user");
            assert_eq!(k.kprof.idle_cycles(), k.stats.idle_cycles, "{label}: idle");
            assert_eq!(
                k.kprof.kernel_cycles(),
                k.stats.kernel_cycles,
                "{label}: kernel"
            );
        }
    }

    /// Every valid model x preemption configuration produces a populated
    /// preemption-latency histogram, and the paper's §5.3 ordering holds:
    /// full preemption cannot be worse than no preemption at the maximum.
    #[test]
    fn preemption_latency_histograms_cover_all_configs() {
        let runs = run_sweep(Scale::Quick);
        assert_eq!(runs.len(), 5);
        for o in &runs {
            let h = o.kernel.kprof.preempt_latency();
            assert!(
                h.count() > 0,
                "{}: expected timer-wake latency samples",
                o.label()
            );
        }
        let max_of = |label: &str| {
            runs.iter()
                .find(|o| o.label() == label)
                .expect(label)
                .kernel
                .kprof
                .preempt_latency()
                .max()
        };
        assert!(
            max_of("Process FP") <= max_of("Process NP"),
            "full preemption should bound latency at least as tightly as none \
             (fp={} np={})",
            max_of("Process FP"),
            max_of("Process NP")
        );
    }

    /// The dashboard renders every configuration and the JSON document
    /// carries the same totals.
    #[test]
    fn dashboard_and_json_agree() {
        let o = run_observed(Config::process_pp(), Scale::Quick);
        let text = render_dashboard(std::slice::from_ref(&o));
        assert!(text.contains("Process PP"));
        assert!(text.contains("preemption latency"));
        assert!(text.contains("kstat (nonzero):"));
        let doc = to_json(Scale::Quick, std::slice::from_ref(&o));
        let cfgs = doc.get("configs").and_then(Json::items).expect("configs");
        assert_eq!(cfgs.len(), 1);
        assert_eq!(
            cfgs[0].get("total_cycles").and_then(Json::as_u64),
            Some(o.kernel.total_cpu_cycles())
        );
        // The JSON round-trips through the parser bit-identically.
        let reparsed = Json::parse(&doc.to_string()).expect("parse");
        assert_eq!(reparsed, doc);
    }

    /// The regression gate accepts the blessed bounds at quick scale.
    #[test]
    fn quick_scale_latency_is_within_blessed_bounds() {
        let runs: Vec<Observed> = [Config::process_fp(), Config::interrupt_pp()]
            .into_iter()
            .map(|c| run_observed(c, Scale::Quick))
            .collect();
        let errs = check_regression(&runs);
        assert!(
            errs.is_empty(),
            "blessed preemption-latency bounds regressed:\n{}",
            errs.join("\n")
        );
    }
}
