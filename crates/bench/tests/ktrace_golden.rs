//! Golden-digest regression test for the dispatch path.
//!
//! The dispatch refactor (handler table + `SysCtx` mediation) must be
//! *behavior-preserving*: not just user-visibly equivalent, but
//! bit-identical in the raw ktrace — every timestamp, preemption,
//! restart, and rollback exactly where it was. This test runs the
//! traced `flukeperf` workload under both execution models (and both
//! NP/PP preemption styles) and compares a canonical FNV-1a digest of
//! the merged trace against digests blessed *before* the refactor.
//!
//! To re-bless after an intentional behavioral change:
//!
//! ```text
//! FLUKE_BLESS=1 cargo test -p fluke-bench --test ktrace_golden
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
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
fn raw_ktrace_digests_match_blessed_goldens() {
    let bless = std::env::var("FLUKE_BLESS").is_ok();
    let mut current = BTreeMap::new();
    for cfg in Config::comparable() {
        let label = cfg.label.replace(' ', "_");
        let k = run_traced_flukeperf(cfg, Scale::Quick);
        assert_eq!(k.trace.dropped_total(), 0, "{label}: trace overflowed");
        current.insert(label, trace_digest(&k));
    }

    if bless {
        let mut text = String::from(
            "# Blessed raw-ktrace digests for traced flukeperf (quick scale).\n\
             # label  fnv1a64  record_count\n",
        );
        for (label, (hash, count)) in &current {
            writeln!(text, "{label} 0x{hash:016x} {count}").unwrap();
        }
        std::fs::create_dir_all(golden_path().parent().unwrap()).unwrap();
        std::fs::write(golden_path(), text).unwrap();
        eprintln!(
            "blessed {} digests to {}",
            current.len(),
            golden_path().display()
        );
        return;
    }

    let golden = parse_golden(
        &std::fs::read_to_string(golden_path())
            .expect("golden file missing; run with FLUKE_BLESS=1 to create it"),
    );
    for (label, got) in &current {
        let want = golden
            .get(label)
            .unwrap_or_else(|| panic!("no golden digest for config {label}"));
        assert_eq!(
            got, want,
            "raw ktrace diverged from blessed golden for config {label} \
             (got 0x{:016x}/{} records, want 0x{:016x}/{})",
            got.0, got.1, want.0, want.1
        );
    }
}
