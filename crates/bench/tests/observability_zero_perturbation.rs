//! The zero-perturbation test: enabling the `kstat`/`kprof`
//! instrumentation must change *nothing* simulated.
//!
//! The strongest oracle we have is the raw ktrace digest — FNV-1a over
//! every record's timestamp, CPU, sequence number, event kind and
//! payload. The digests in `tests/golden/ktrace_digests.txt` were
//! blessed with `kprof` *off*; this test re-runs the same traced
//! `flukeperf` workloads with `kprof` *on* and requires the digests to
//! be bit-identical. If an observability hook ever perturbs a charge, a
//! wakeup, or a preemption decision, the first shifted timestamp fails
//! the comparison.

use std::collections::BTreeMap;
use std::path::PathBuf;

use fluke_bench::tracediff::{run_traced_flukeperf, trace_digest};
use fluke_bench::Scale;
use fluke_core::Config;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("ktrace_digests.txt")
}

fn parse_golden(text: &str) -> BTreeMap<String, (u64, u64)> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let label = it.next().expect("label").to_string();
        let hash = u64::from_str_radix(it.next().expect("hash").trim_start_matches("0x"), 16)
            .expect("hex hash");
        let count: u64 = it.next().expect("count").parse().expect("record count");
        out.insert(label, (hash, count));
    }
    out
}

#[test]
fn instrumented_runs_match_uninstrumented_golden_digests() {
    let golden = parse_golden(
        &std::fs::read_to_string(golden_path())
            .expect("golden file missing; bless via the ktrace_golden test"),
    );
    for cfg in Config::comparable() {
        let label = cfg.label.replace(' ', "_");
        // Same workload, same trace, but with the profiler enabled.
        let k = run_traced_flukeperf(cfg.with_kprof(), Scale::Quick);
        assert_eq!(k.trace.dropped_total(), 0, "{label}: trace overflowed");
        // The instrumentation really ran: every simulated cycle was
        // attributed to a kprof phase…
        assert!(k.kprof.enabled, "{label}: kprof should be enabled");
        assert_eq!(
            k.kprof.total(),
            k.total_cpu_cycles(),
            "{label}: kprof attribution incomplete"
        );
        assert!(k.kprof.kernel_cycles() > 0, "{label}: no kernel cycles");
        // …and the kstat snapshot is populated.
        let reg = k.kstat();
        assert!(
            reg.scalar("kernel.syscall.count").unwrap_or(0) > 0,
            "{label}: kstat registry empty"
        );
        // The oracle: bit-identical raw trace against the digests
        // blessed with instrumentation off.
        let got = trace_digest(&k);
        let want = golden
            .get(&label)
            .unwrap_or_else(|| panic!("no golden digest for config {label}"));
        assert_eq!(
            &got, want,
            "{label}: enabling kstat/kprof perturbed the simulation \
             (got 0x{:016x}/{} records, want 0x{:016x}/{})",
            got.0, got.1, want.0, want.1
        );
    }
}
