//! The two kinds of run: untraced (end-to-end metrics) and traced
//! (per-layer metrics).

use std::ops::Range;
use std::time::{Duration, Instant};

use fluke_core::{Config, Kernel};

use crate::cells::{Cell, CellKind, CellRun, Counts, Fingerprint, Workload};
use crate::clock::CpuInstant;
use crate::inputs::{scaled, Inputs, PAIR_DIVISOR};
use crate::spans::{layer_s, total_s, Layer, Span, Spans};
use crate::{median, percentile, probes, Metric, Report};

/// Fewest measured repetitions of the whole cell list in a run.
const MIN_REPS: usize = 3;

/// Builds of each cell timed after every pass, for `setup_s` and the
/// `setup.*` metrics.
const SETUP_PER_PASS: usize = 5;

/// Timed repetitions behind each reference run of the traced run.
const REF_REPS: usize = 3;

/// Pass/fail bookkeeping over every cell executed in a run.
struct Tally {
    attempted: u64,
    failed: u64,
    first: Vec<Option<Fingerprint>>,
    errors: Vec<String>,
}

impl Tally {
    fn new(cells: usize) -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            first: vec![None; cells],
            errors: Vec::new(),
        }
    }

    /// Count one execution of cell `idx`; a fingerprint that differs from
    /// the cell's first one in this run is a failure too (determinism).
    fn record(&mut self, idx: Option<usize>, cell: &Cell, run: &CellRun) {
        self.attempted += 1;
        let mut errors = run.errors.clone();
        if let (Some(i), Some(fp)) = (idx, run.fingerprint) {
            match self.first[i] {
                None => self.first[i] = Some(fp),
                Some(first) if first != fp => {
                    errors.push(format!("{}: nondeterministic fingerprint", cell.name))
                }
                Some(_) => {}
            }
        }
        if !errors.is_empty() {
            self.failed += 1;
            self.errors.extend(errors.into_iter().take(4));
        }
    }

    fn report(self, metrics: Vec<Metric>) -> Report {
        Report {
            correct: self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            errors: self.errors,
        }
    }
}

/// One pass over the workload's cells.
struct Rep {
    /// Host seconds of each cell, set-up excluded.
    cell_walls: Vec<f64>,
    /// Spans recorded by each cell.
    cell_spans: Vec<Range<usize>>,
    /// Host seconds of the whole pass, set-up included.
    total_s: f64,
    counts: Counts,
}

impl Rep {
    /// Spans recorded by the whole pass.
    fn spans(&self) -> Range<usize> {
        self.cell_spans[0].start..self.cell_spans[self.cell_spans.len() - 1].end
    }
}

fn rep(cells: &[Cell], spans: &mut Spans, tally: &mut Tally) -> Rep {
    let t0 = CpuInstant::now();
    let mut r = Rep {
        cell_walls: Vec::new(),
        cell_spans: Vec::new(),
        total_s: 0.0,
        counts: Counts::default(),
    };
    for (i, c) in cells.iter().enumerate() {
        let from = spans.len();
        let run = c.execute(spans);
        tally.record(Some(i), c, &run);
        r.cell_walls.push(run.wall_s);
        r.cell_spans.push(from..spans.len());
        r.counts.add(&run.counts);
    }
    r.total_s = t0.elapsed_s();
    r
}

/// Build-time samples per cell, taken a few at a time after every pass so
/// that they span the whole run rather than one moment of it.
struct SetupSamples(Vec<Vec<f64>>);

impl SetupSamples {
    fn new(cells: usize) -> SetupSamples {
        SetupSamples(vec![Vec::new(); cells])
    }

    /// Time `SETUP_PER_PASS` back-to-back calls of `make` on each cell
    /// (results are dropped untimed).
    fn take<T>(&mut self, cells: &[Cell], make: impl Fn(&Cell) -> T) {
        for (c, v) in cells.iter().zip(&mut self.0) {
            for _ in 0..SETUP_PER_PASS {
                let t0 = CpuInstant::now();
                let built = std::hint::black_box(make(c));
                v.push(t0.elapsed_s());
                drop(built);
            }
        }
    }

    /// Sum over cells of each cell's fastest build.
    fn value(&self) -> f64 {
        self.0.iter().map(|v| fastest(v)).sum()
    }
}

/// The smallest sample.
fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Host peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `body` repeatedly until `seconds` have passed and it ran at least
/// `min` times.
fn for_seconds(seconds: f64, min: usize, mut body: impl FnMut()) {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut n = 0;
    while n < min || Instant::now() < end {
        body();
        n += 1;
    }
}

/// The untraced run: every end-to-end metric. `wall_s` and `setup_s` sum
/// each cell's fastest observation on the thread CPU clock. Other tenants
/// of a shared host only ever add time, in bursts of seconds, so the
/// fastest of many samples is the steadiest estimate of the simulator's own
/// speed; a regression slows every sample and shows in it all the same.
pub fn untraced(w: Workload, inputs: &Inputs, seconds: f64) -> Report {
    let cells = w.cells(inputs);
    let mut spans = Spans::new(false);
    let mut tally = Tally::new(cells.len());
    let warm = rep(&cells, &mut spans, &mut tally);
    let mut walls = vec![Vec::new(); cells.len()];
    let mut setup = SetupSamples::new(cells.len());
    for_seconds(seconds, MIN_REPS, || {
        let r = rep(&cells, &mut spans, &mut tally);
        for (v, w) in walls.iter_mut().zip(r.cell_walls) {
            v.push(w);
        }
        setup.take(&cells, Cell::build);
    });
    let wall: f64 = walls.iter().map(|v| fastest(v)).sum();
    let attempted = tally.attempted.max(1) as f64;
    let pass = (attempted - tally.failed as f64) / attempted;
    let metrics = vec![
        Metric::new("wall_s", "s", wall),
        Metric::new("setup_s", "s", setup.value()),
        Metric::new(
            "sim_mcycles_per_s",
            "Mcycles/s",
            warm.counts.elapsed as f64 / 1e6 / wall,
        ),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
        Metric::new("pass_share", "ratio", pass),
    ];
    tally.report(metrics)
}

/// Median over traced passes of the seconds `f` picks from the spans
/// that `range` selects in each pass.
fn per_rep(
    reps: &[Rep],
    spans: &Spans,
    range: impl Fn(&Rep) -> Range<usize>,
    f: impl Fn(&[Span]) -> f64,
) -> f64 {
    let mut v: Vec<f64> = reps.iter().map(|r| f(&spans.spans()[range(r)])).collect();
    median(&mut v)
}

/// Median `Kernel::run` seconds of `cell` over `REF_REPS` executions.
fn run_s(cell: &Cell, tally: &mut Tally) -> f64 {
    let mut v: Vec<f64> = (0..REF_REPS)
        .map(|_| {
            let mut spans = Spans::new(true);
            let run = cell.execute(&mut spans);
            tally.record(None, cell, &run);
            layer_s(spans.spans(), Layer::Run)
        })
        .collect();
    median(&mut v)
}

/// The traced run: every per-layer metric.
pub fn traced(w: Workload, inputs: &Inputs, seconds: f64) -> Report {
    let cells = w.cells(inputs);
    let mut spans = Spans::new(false);
    let mut tally = Tally::new(cells.len());
    rep(&cells, &mut spans, &mut tally);

    // Alternate untraced and traced passes so both see the same host.
    let mut plain = Vec::new();
    let mut reps = Vec::new();
    let mut builds = SetupSamples::new(cells.len());
    let mut kernel_news = SetupSamples::new(cells.len());
    for_seconds(seconds, 2, || {
        spans.set_enabled(false);
        plain.push(rep(&cells, &mut spans, &mut tally).total_s);
        builds.take(&cells, Cell::build);
        kernel_news.take(&cells, |c| Kernel::new(c.kernel_cfg()));
        spans.set_enabled(true);
        reps.push(rep(&cells, &mut spans, &mut tally));
    });
    spans.set_enabled(false);
    let c = reps.last().expect("at least two traced passes").counts;
    let mut traced_walls: Vec<f64> = reps.iter().map(|r| r.total_s).collect();
    let covered: f64 = reps
        .iter()
        .map(|r| total_s(&spans.spans()[r.spans()]))
        .sum();
    let coverage = covered / traced_walls.iter().sum::<f64>();
    let overhead = median(&mut traced_walls) / median(&mut plain) - 1.0;

    let layer = |l: Layer| per_rep(&reps, &spans, Rep::spans, |s| layer_s(s, l));
    let run_s_median = layer(Layer::Run);
    let mut slices: Vec<f64> = reps
        .iter()
        .flat_map(|r| spans.spans()[r.spans()].iter())
        .filter(|s| s.layer == Layer::Run)
        .map(|s| s.dur_ns as f64 / 1e3)
        .collect();
    slices.sort_by(f64::total_cmp);

    let kernel_new_s = kernel_news.value();

    // Layer-isolation probes.
    let cpu_ns = probes::cpu_ns_per_kcycle();
    let null_np = probes::null_syscall_ns(&Config::process_np());
    let null_int = probes::null_syscall_ns(&Config::interrupt_np());
    let null_64 = probes::null_syscall_ns(&Config::process_np().with_cpus(64));
    let rpc_ns = probes::rpc_ns();
    let fault_us = probes::hard_fault_us();
    let bulk = probes::bulk_mb_per_s();

    // CPU-selection overhead: the same flukeperf at 64 CPUs minus 1 CPU.
    // On mp64 the 64-CPU side is part (b) itself, as traced above.
    let mp_params = match w {
        Workload::Mp64 => inputs.flukeperf.clone(),
        _ => scaled(&inputs.flukeperf, PAIR_DIVISOR),
    };
    let one_cpu = Cell::new(
        "ref/flukeperf_1cpu",
        Config::process_pp(),
        CellKind::Flukeperf(mp_params.clone()),
    );
    let wide_s = match w {
        Workload::Mp64 => {
            let b = cells.iter().position(|c| c.name == "mp64/flukeperf");
            let b = b.expect("mp64 has a flukeperf part");
            per_rep(
                &reps,
                &spans,
                |r| r.cell_spans[b].clone(),
                |s| layer_s(s, Layer::Run),
            )
        }
        _ => {
            let wide = Cell::new(
                "ref/flukeperf_64cpu",
                Config::process_pp().with_cpus(64),
                CellKind::Flukeperf(mp_params),
            );
            run_s(&wide, &mut tally)
        }
    };
    let cpusel = wide_s - run_s(&one_cpu, &mut tally);

    // Observer overhead: observed-size flukeperf armed minus bare.
    let obs_cell = |armed| {
        Cell::new(
            "ref/observed",
            Config::process_pp(),
            CellKind::Observed {
                params: inputs.observed.clone(),
                armed,
            },
        )
    };
    let armed_s = match w {
        Workload::Observed => run_s_median,
        _ => run_s(&obs_cell(true), &mut tally),
    };
    let armed_overhead = armed_s - run_s(&obs_cell(false), &mut tally);

    let parse_s = layer(Layer::Parse);
    let user_kcycles = c.user_cycles as f64 / 1e3;
    let tlb_total = (c.tlb_hits + c.tlb_misses).max(1) as f64;
    let count = |name, v: u64| Metric::new(name, "count", v as f64);
    let metrics = vec![
        Metric::new("setup.kernel_new_s", "s", kernel_new_s),
        Metric::new("setup.build_s", "s", builds.value() - kernel_new_s),
        Metric::new(
            "arch.cpu.user_mcycles",
            "Mcycles",
            c.user_cycles as f64 / 1e6,
        ),
        Metric::new("arch.cpu.ns_per_kcycle", "ns", cpu_ns),
        count("core.mem.tlb_hits", c.tlb_hits),
        count("core.mem.tlb_misses", c.tlb_misses),
        Metric::new(
            "core.mem.tlb_hit_ratio",
            "ratio",
            c.tlb_hits as f64 / tlb_total,
        ),
        count("core.mem.soft_faults", c.soft_faults),
        count("core.mem.hard_faults", c.hard_faults),
        Metric::new("core.mem.us_per_hard_fault", "us", fault_us),
        Metric::new(
            "core.mem.overhead_ns_per_kcycle",
            "ns",
            run_s_median * 1e9 / user_kcycles - cpu_ns,
        ),
        count("core.dispatch.syscalls", c.syscalls),
        count("core.dispatch.restarts", c.restarts),
        Metric::new("core.dispatch.ns_per_null_process", "ns", null_np),
        Metric::new("core.dispatch.ns_per_null_interrupt", "ns", null_int),
        count("core.ipc.messages", c.ipc_messages),
        Metric::new("core.ipc.mbytes", "MB", c.ipc_bytes as f64 / 1e6),
        Metric::new("core.ipc.ns_per_rpc", "ns", rpc_ns),
        Metric::new("core.ipc.mb_per_s", "MB/s", bulk),
        count("core.sched.ctx_switches", c.ctx_switches),
        count("core.sched.space_switches", c.space_switches),
        count("core.sched.steals", c.steals),
        count("core.sched.steal_attempts", c.steal_attempts),
        count("core.sched.ipis", c.ipis),
        count("core.sched.waitq_ops", c.waitq_ops),
        Metric::new(
            "core.sched.lock_wait_mcycles",
            "Mcycles",
            c.lock_wait_cycles as f64 / 1e6,
        ),
        count("core.run.calls", c.run_calls),
        Metric::new("core.run.s", "s", run_s_median),
        Metric::new("core.run.slice_us_p50", "us", percentile(&slices, 50.0)),
        Metric::new("core.run.slice_us_p99", "us", percentile(&slices, 99.0)),
        count("core.run.slice_samples", slices.len() as u64),
        Metric::new("core.run.cpusel_overhead_s", "s", cpusel),
        Metric::new("core.run.null_64cpu_ratio", "ratio", null_64 / null_np),
        Metric::new("obs.armed_overhead_s", "s", armed_overhead),
        count("obs.kstat_leaves", c.kstat_leaves),
        Metric::new("obs.kstat_s", "s", layer(Layer::Kstat)),
        Metric::new("report.to_json_s", "s", layer(Layer::ToJson)),
        Metric::new("report.to_string_s", "s", layer(Layer::ToString)),
        Metric::new("report.bytes", "bytes", c.report_bytes as f64),
        Metric::new("json.parse_s", "s", parse_s),
        Metric::new(
            "json.parse_mb_per_s",
            "MB/s",
            c.report_bytes as f64 / 1e6 / parse_s,
        ),
        Metric::new("trace.overhead_share", "ratio", overhead),
        Metric::new("trace.span_coverage", "ratio", coverage),
    ];
    eprintln!("self time per traced pass (median of {}):", reps.len());
    for l in Layer::ALL {
        eprintln!("  {:<18} {:>12.6} s", l.name(), layer(l));
    }
    tally.report(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::quick;

    /// The traced run's outside spans account for at least 95% of each
    /// workload's traced wall time.
    #[test]
    fn traced_spans_cover_traced_wall_of_every_workload() {
        for w in Workload::ALL {
            let cells = w.cells(&quick(1));
            let mut spans = Spans::new(true);
            let mut tally = Tally::new(cells.len());
            let r = rep(&cells, &mut spans, &mut tally);
            let covered = total_s(&spans.spans()[r.spans()]);
            assert!(
                covered >= 0.95 * r.total_s,
                "{}: spans cover {covered}s of {}s",
                w.name(),
                r.total_s
            );
            assert_eq!(tally.failed, 0, "{:?}", tally.errors);
        }
    }
}
