//! `kdb`: the time-travel kernel debugger. Records a workload with the
//! `krec` snapshot engine armed, then restores the nearest earlier
//! snapshot and deterministically re-executes to any simulated cycle,
//! verifying along the way that the re-executed ktrace window is
//! bit-identical to the original recording (a divergence is a hard error
//! with a first-divergent-event reproducer).
//!
//! Usage:
//!   kdb [--workload W] [--config C] [--stride N] COMMANDS
//!
//! Recording selection:
//!   --workload W     ipc-echo | checkpoint | submit-ring   (default ipc-echo)
//!   --config C       process-np | interrupt-np | process-pp | interrupt-pp
//!   --stride N       snapshot every Nth dispatch site       (default 2)
//!
//! Time travel and inspection:
//!   --at CYCLE       restore + re-execute to CYCLE, then inspect
//!   --threads        thread table: registers, run state, export frame
//!   --spaces         per-space memory map (contiguous runs + mappings)
//!   --kstat          non-zero kstat counters at the stop point
//!   --kstat-delta A B  counter deltas between cycles A and B (two replays)
//!   --kspan          request tracer state at the stop point (arms kspan)
//!   --chrome FILE    Chrome trace of the replayed window
//!   --since-cycle N / --until-cycle N  tighten the --chrome window
//!
//! Watchpoints (stop replay before --at when one trips):
//!   --watch-event NAME       first ktrace event named NAME (e.g. soft_fault)
//!   --watch-kstat CTR:DELTA  counter CTR grew by ≥ DELTA since restore
//!
//! Whole-recording check:
//!   --verify         replay every snapshot to its epoch end

use fluke_bench::krec_sweep::{KrecWorkload, ALL_WORKLOADS};
use fluke_bench::trace_export::{chrome_trace, cycle_window};
use fluke_core::{
    trace_suffix_digest, Config, Kernel, KrecConfig, Recording, ReplayError, Replayer, Snap,
    SnapWriter, TraceRecord,
};

fn die(msg: &str) -> ! {
    eprintln!("kdb: {msg}");
    std::process::exit(2);
}

fn parse_config(s: &str) -> Config {
    match s.to_ascii_lowercase().replace('_', "-").as_str() {
        "process-np" => Config::process_np(),
        "interrupt-np" => Config::interrupt_np(),
        "process-pp" => Config::process_pp(),
        "interrupt-pp" => Config::interrupt_pp(),
        _ => die(&format!(
            "unknown config {s:?} (want process-np, interrupt-np, process-pp, interrupt-pp)"
        )),
    }
}

/// What stopped a replay.
enum Stop {
    AtCycle,
    EpochEnd,
    Event(TraceRecord),
    KstatDelta { name: String, delta: u64 },
}

struct Watch {
    event: Option<String>,
    kstat: Option<(String, u64)>,
}

/// FNV digest over the records in `[since, until]` (both inclusive).
fn window_digest(records: &[TraceRecord], since: u64, until: u64) -> u64 {
    let mut w = SnapWriter::hash_only();
    for r in cycle_window(records, Some(since), Some(until)) {
        r.snap(&mut w);
    }
    w.digest()
}

/// Print the first event at which the replayed trace diverges from the
/// original, looking only at records in `[since, until]`.
fn report_first_divergent_event(orig: &Kernel, replayed: &Kernel, since: u64, until: Option<u64>) {
    let a = cycle_window(&orig.trace.merged(), Some(since), until);
    let b = cycle_window(&replayed.trace.merged(), Some(since), until);
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        if x != y {
            eprintln!("first divergent event (index {i} after restore point):");
            eprintln!("  recorded: cycle {} cpu {} {:?}", x.at, x.cpu, x.event);
            eprintln!("  replayed: cycle {} cpu {} {:?}", y.at, y.cpu, y.event);
            return;
        }
    }
    eprintln!(
        "traces agree event-for-event up to the shorter side \
         (recorded {} vs replayed {} events after restore)",
        a.len(),
        b.len()
    );
}

/// Restore the nearest snapshot at or before `target` and re-execute to
/// it (or to a tripped watchpoint). Returns the replayed kernel, the
/// restore-point cycle, and what stopped us.
fn replay_to(
    rec: &Recording,
    target: u64,
    watch: &Watch,
) -> Result<(Kernel, u64, Stop), ReplayError> {
    let idx = rec
        .snapshot_at_or_before(target)
        .unwrap_or_else(|| die(&format!("no snapshot at or before cycle {target}")));
    let snap = &rec.snapshots[idx];
    let since = snap.at_cycle;
    let mut rp = Replayer::start(rec, idx)?;
    let baseline = watch
        .kstat
        .as_ref()
        .map(|(name, _)| rp.kernel.kstat().scalar(name).unwrap_or(0));
    let mut scanned = 0usize;
    loop {
        if rp.kernel.now() >= target {
            return Ok((rp.kernel, since, Stop::AtCycle));
        }
        if rp.done() {
            return Ok((rp.kernel, since, Stop::EpochEnd));
        }
        let next = (rp.kernel.now() + 2_000).min(target);
        rp.run_to_cycle(next)?;
        if let Some(name) = &watch.event {
            let merged = rp.kernel.trace.merged();
            if let Some(r) = merged[scanned.min(merged.len())..]
                .iter()
                .find(|r| r.at >= since && r.event.name() == name)
            {
                let hit = *r;
                return Ok((rp.kernel, since, Stop::Event(hit)));
            }
            scanned = merged.len();
        }
        if let (Some((name, want)), Some(base)) = (&watch.kstat, baseline) {
            let cur = rp.kernel.kstat().scalar(name).unwrap_or(0);
            if cur.saturating_sub(base) >= *want {
                return Ok((
                    rp.kernel,
                    since,
                    Stop::KstatDelta {
                        name: name.clone(),
                        delta: cur.saturating_sub(base),
                    },
                ));
            }
        }
    }
}

fn print_threads(k: &Kernel) {
    use fluke_arch::Reg;
    println!("\nthreads:");
    println!(
        "  {:<4} {:<22} {:<28} {:>10} {:>10} {:>10} {:>10}  frame",
        "id", "program", "state", "eax", "ebx", "edx", "edi"
    );
    for (t, name) in k.debug_threads() {
        let r = k.thread_regs(t);
        let f = k.thread_frame(t);
        println!(
            "  {:<4} {:<22} {:<28} {:>10x} {:>10x} {:>10x} {:>10x}  pri={} runnable={} ipc={}",
            t.0,
            name,
            format!("{:?}", k.thread_run_state(t)),
            r.get(Reg::Eax),
            r.get(Reg::Ebx),
            r.get(Reg::Edx),
            r.get(Reg::Edi),
            f.priority,
            f.runnable,
            f.ipc_phase
        );
    }
}

fn print_spaces(k: &Kernel) {
    println!("\nspaces:");
    for s in k.debug_spaces() {
        let Some((runs, mappings)) = k.debug_space_map(s) else {
            continue;
        };
        println!("  space {} ({} mapping objects):", s.0, mappings);
        for (base, len, w) in runs {
            println!(
                "    {base:#010x}..{:#010x}  {} {}",
                base + len,
                if w { "rw" } else { "ro" },
                human_bytes(len)
            );
        }
    }
}

fn human_bytes(n: u32) -> String {
    if n >= 1 << 20 {
        format!("{}M", n >> 20)
    } else if n >= 1 << 10 {
        format!("{}K", n >> 10)
    } else {
        format!("{n}B")
    }
}

fn main() {
    let mut workload = KrecWorkload::IpcEcho;
    let mut cfg = Config::process_np();
    let mut stride = 2u64;
    let mut at: Option<u64> = None;
    let mut threads = false;
    let mut spaces = false;
    let mut kstat = false;
    let mut kspan = false;
    let mut kstat_delta: Option<(u64, u64)> = None;
    let mut chrome: Option<String> = None;
    let mut since_cycle: Option<u64> = None;
    let mut until_cycle: Option<u64> = None;
    let mut watch = Watch {
        event: None,
        kstat: None,
    };
    let mut verify = false;

    let mut args = std::env::args().skip(1);
    let next_or = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next()
            .unwrap_or_else(|| die(&format!("{flag} needs a value")))
    };
    let num = |v: String, flag: &str| -> u64 {
        v.parse()
            .unwrap_or_else(|_| die(&format!("{flag}: not a number: {v:?}")))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => {
                let w = next_or(&mut args, "--workload");
                workload = ALL_WORKLOADS
                    .into_iter()
                    .find(|k| k.label() == w)
                    .unwrap_or_else(|| die(&format!("unknown workload {w:?}")));
            }
            "--config" => cfg = parse_config(&next_or(&mut args, "--config")),
            "--stride" => stride = num(next_or(&mut args, "--stride"), "--stride").max(1),
            "--at" => at = Some(num(next_or(&mut args, "--at"), "--at")),
            "--threads" => threads = true,
            "--spaces" => spaces = true,
            "--kstat" => kstat = true,
            "--kspan" => kspan = true,
            "--kstat-delta" => {
                let a = num(next_or(&mut args, "--kstat-delta"), "--kstat-delta");
                let b = num(next_or(&mut args, "--kstat-delta"), "--kstat-delta");
                kstat_delta = Some((a.min(b), a.max(b)));
            }
            "--chrome" => chrome = Some(next_or(&mut args, "--chrome")),
            "--since-cycle" => {
                since_cycle = Some(num(next_or(&mut args, "--since-cycle"), "--since-cycle"))
            }
            "--until-cycle" => {
                until_cycle = Some(num(next_or(&mut args, "--until-cycle"), "--until-cycle"))
            }
            "--watch-event" => watch.event = Some(next_or(&mut args, "--watch-event")),
            "--watch-kstat" => {
                let v = next_or(&mut args, "--watch-kstat");
                let (name, d) = v
                    .rsplit_once(':')
                    .unwrap_or_else(|| die("--watch-kstat wants COUNTER:DELTA"));
                watch.kstat = Some((name.to_string(), num(d.to_string(), "--watch-kstat")));
            }
            "--verify" => verify = true,
            other => die(&format!(
                "unknown argument {other:?} (see kdb source header)"
            )),
        }
    }
    if at.is_none() && !verify && kstat_delta.is_none() {
        die("nothing to do: pass --at CYCLE, --kstat-delta A B, or --verify");
    }

    // Record: run the workload once with the snapshot engine armed.
    let mut rcfg = cfg
        .clone()
        .with_krec(KrecConfig::every_sites(stride).with_ring(4096));
    if kspan {
        rcfg = rcfg.with_kspan();
    }
    println!(
        "recording {} under {} (snapshot every {stride} sites)…",
        workload.label(),
        cfg.label
    );
    let (_, mut orig) = workload
        .run(&rcfg)
        .unwrap_or_else(|e| die(&format!("recording failed: {e}")));
    let end_cycle = orig.now();
    let rec = orig.take_recording().expect("recorder armed");
    println!(
        "recorded {} snapshots, {} run windows, final cycle {end_cycle}",
        rec.snapshots.len(),
        rec.windows.len()
    );

    if verify {
        let mut bad = 0;
        for i in 0..rec.snapshots.len() {
            let s = &rec.snapshots[i];
            let r = Replayer::start(&rec, i).and_then(|mut rp| {
                let n = rp.run_to_epoch_end()?;
                Ok((n, rp))
            });
            match r {
                Ok((n, rp)) => {
                    let full = rp.epoch_end() == rec.windows.len();
                    let mut tail = String::new();
                    if full {
                        let want = trace_suffix_digest(&orig, s.at_cycle);
                        let got = trace_suffix_digest(&rp.kernel, s.at_cycle);
                        if got != want {
                            bad += 1;
                            tail = format!("  TRACE SUFFIX DIVERGED {got:#018x} != {want:#018x}");
                            report_first_divergent_event(&orig, &rp.kernel, s.at_cycle, None);
                        } else {
                            tail = "  trace suffix ok".to_string();
                        }
                    }
                    println!(
                        "snapshot {i:>3} @ cycle {:>10} site {:>4}: {n} windows verified{tail}",
                        s.at_cycle, s.site
                    );
                }
                Err(e) => {
                    bad += 1;
                    eprintln!(
                        "snapshot {i:>3} @ cycle {:>10}: REPLAY FAILED: {e}",
                        s.at_cycle
                    );
                    eprintln!(
                        "  reproducer: kdb --workload {} --config {} --stride {stride} \
                         --at {} --verify",
                        workload.label(),
                        cfg.label.to_ascii_lowercase().replace(' ', "-"),
                        s.at_cycle
                    );
                }
            }
        }
        if bad > 0 {
            eprintln!("\n{bad} snapshot(s) failed to replay faithfully");
            std::process::exit(1);
        }
        println!("\nall {} snapshots replay faithfully", rec.snapshots.len());
    }

    if let Some((a, b)) = kstat_delta {
        let w = Watch {
            event: None,
            kstat: None,
        };
        let (ka, _, _) = replay_to(&rec, a, &w).unwrap_or_else(|e| die(&format!("{e}")));
        let (kb, _, _) = replay_to(&rec, b, &w).unwrap_or_else(|e| die(&format!("{e}")));
        let ra = ka.kstat();
        let rb = kb.kstat();
        println!(
            "\nkstat deltas, cycle {} → {} (counters that moved):",
            ka.now(),
            kb.now()
        );
        for (name, _) in rb.iter() {
            let (va, vb) = (ra.scalar(name).unwrap_or(0), rb.scalar(name).unwrap_or(0));
            if vb != va {
                let sign = if vb >= va { '+' } else { '-' };
                println!(
                    "  {name:<44} {va:>12} → {vb:>12}  ({sign}{})",
                    vb.abs_diff(va)
                );
            }
        }
    }

    if let Some(target) = at {
        let (k, since, stop) = replay_to(&rec, target, &watch).unwrap_or_else(|e| {
            eprintln!("kdb: replay failed: {e}");
            std::process::exit(1);
        });
        let now = k.now();
        match &stop {
            Stop::AtCycle => println!("\nstopped at cycle {now} (target {target})"),
            Stop::EpochEnd => println!(
                "\nstopped at cycle {now}: epoch ends before target {target} \
                 (host mutated state here; pick a later snapshot)"
            ),
            Stop::Event(r) => println!(
                "\nwatchpoint hit at cycle {}: event {} on cpu {} ({:?})",
                r.at,
                r.event.name(),
                r.cpu,
                r.event
            ),
            Stop::KstatDelta { name, delta } => {
                println!("\nwatchpoint hit at cycle {now}: {name} grew by {delta}")
            }
        }
        // The replayed trace window must be bit-identical to the original
        // recording's — time travel that rewrites history is a hard error.
        // Compare only up to the replay's *horizon* (the slowest CPU's
        // clock, minus the stop cycle itself): events there are final on
        // both sides; the original run kept emitting past it.
        let horizon = k.debug_cycle_horizon().saturating_sub(1);
        let want = window_digest(&orig.trace.merged(), since, horizon);
        let got = window_digest(&k.trace.merged(), since, horizon);
        if want != got {
            eprintln!(
                "kdb: REPLAY DIVERGED from recording over cycles {since}..{horizon}: \
                 trace digest {got:#018x} != {want:#018x}"
            );
            report_first_divergent_event(&orig, &k, since, Some(horizon));
            std::process::exit(1);
        }
        println!("replayed window {since}..{horizon} is bit-identical to the recording ✓");

        if threads {
            print_threads(&k);
        }
        if spaces {
            print_spaces(&k);
        }
        if kstat {
            println!("\nkstat at cycle {now}:");
            print!("{}", k.kstat().dump_text(false));
        }
        if kspan {
            println!(
                "\nkspan at cycle {now}: {} requests in flight, {} completed, {} aborted",
                k.kspan.open_count(),
                k.kspan.completed().len(),
                k.kspan.aborted()
            );
            for (obj, c) in k.kspan.top_contended(5) {
                println!(
                    "  contended {obj}: {} waits, {} cycles",
                    c.waits, c.wait_cycles
                );
            }
        }
        if let Some(path) = chrome {
            let lo = since_cycle.unwrap_or(since);
            let hi = until_cycle.unwrap_or(now);
            let recs = cycle_window(&k.trace.merged(), Some(lo), Some(hi));
            let n = recs.len();
            std::fs::write(&path, chrome_trace(&recs))
                .unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
            println!("wrote {path} ({n} events, cycles {lo}..{hi})");
        }
    }
}
