//! The `krec` zero-perturbation test: arming the whole-kernel snapshot
//! recorder must change nothing simulated.
//!
//! The blessed digests in `tests/golden/ktrace_digests.txt` were produced
//! with no `krec` recorder at all (the recorder-off case is pinned by the
//! `ktrace_golden` test). This test re-runs the same traced `flukeperf`
//! workloads with the recorder armed at an aggressive stride — snapshots
//! actually fire, serializing the complete kernel mid-run — and requires:
//!
//! 1. the raw ktrace digests stay bit-identical to the recorder-free
//!    goldens (the recorder reads state, never writes), and
//! 2. the armed kernel's end-of-run `state_digest()` equals a bare run's
//!    (the recorder is invisible to the digest walk, so recording and
//!    replayed kernels compare equal).

use std::collections::BTreeMap;
use std::path::PathBuf;

use fluke_bench::tracediff::{run_traced_flukeperf, trace_digest};
use fluke_bench::Scale;
use fluke_core::{Config, KrecConfig};

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
fn armed_recorder_runs_match_unarmed_golden_digests() {
    let golden = parse_golden(
        &std::fs::read_to_string(golden_path())
            .expect("golden file missing; bless via the ktrace_golden test"),
    );
    for cfg in Config::comparable() {
        let label = cfg.label.replace(' ', "_");
        let bare = run_traced_flukeperf(cfg.clone(), Scale::Quick);
        let armed_cfg = cfg.with_krec(KrecConfig::every_sites(3).with_ring(4096));
        let k = run_traced_flukeperf(armed_cfg, Scale::Quick);
        assert_eq!(k.trace.dropped_total(), 0, "{label}: trace overflowed");
        // The recorder really ran: sites were counted and snapshots taken.
        let rec = k.krec().expect("recorder armed");
        assert!(rec.sites_seen() > 0, "{label}: no snapshot sites seen");
        assert!(rec.taken() > 0, "{label}: no snapshots taken");
        // Oracle 1: bit-identical raw trace against recorder-free goldens.
        let got = trace_digest(&k);
        let want = golden
            .get(&label)
            .unwrap_or_else(|| panic!("no golden digest for config {label}"));
        assert_eq!(
            &got, want,
            "{label}: arming krec perturbed the simulation \
             (got 0x{:016x}/{} records, want 0x{:016x}/{})",
            got.0, got.1, want.0, want.1
        );
        // Oracle 2: whole-state digest equality with a bare run — the
        // recorder is host-side bookkeeping, invisible to the state walk.
        assert_eq!(
            k.state_digest(),
            bare.state_digest(),
            "{label}: armed end state diverged from bare end state"
        );
    }
}
