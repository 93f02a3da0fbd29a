//! Registry hygiene: every `kstat` name obeys the grammar, is unique
//! (uniqueness is asserted at insert; a duplicate would panic while
//! building the snapshot), and instantiates a pattern documented in the
//! DESIGN.md §13 metrics inventory — in both directions, so the doc
//! table can neither miss a metric nor carry a stale row — and the row
//! set does not grow with the workload's object count.

use std::collections::BTreeSet;
use std::path::PathBuf;

use fluke_bench::{observability, Scale};
use fluke_core::kstat::valid_name;
use fluke_core::Config;
use fluke_workloads::common::try_finish;
use fluke_workloads::flukeperf::{self, FlukeperfParams};

fn design_md() -> String {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("DESIGN.md");
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

/// Pull the backtick-quoted patterns out of the §13 inventory table
/// rows (`| \`pattern\` | kind | … |`).
fn doc_patterns(doc: &str) -> BTreeSet<String> {
    let section = doc
        .split("### Metrics inventory")
        .nth(1)
        .expect("DESIGN.md must contain the §13 metrics inventory");
    let mut out = BTreeSet::new();
    for line in section.lines() {
        let line = line.trim();
        // The inventory ends at the next heading; later sections carry
        // unrelated tables with backticked first cells.
        if line.starts_with('#') {
            break;
        }
        if !line.starts_with('|') {
            continue;
        }
        let first_cell = line.trim_start_matches('|').split('|').next().unwrap_or("");
        let cell = first_cell.trim();
        if let Some(p) = cell.strip_prefix('`').and_then(|c| c.strip_suffix('`')) {
            out.insert(p.to_string());
        }
    }
    assert!(
        out.len() > 20,
        "inventory table parse found only {} patterns",
        out.len()
    );
    out
}

#[test]
fn every_metric_is_well_named_and_inventoried() {
    let inventory = doc_patterns(&design_md());
    // Every documented pattern is itself grammatical once placeholders
    // are substituted (placeholders expand to snake_case names).
    for p in &inventory {
        let instantiated = p
            .replace("<entrypoint>", "sys_null")
            .replace("<kind>", "mutex")
            .replace("<class>", "klock");
        assert!(
            valid_name(&instantiated),
            "doc pattern {p:?} instantiates to an invalid name"
        );
    }

    // An instrumented flukeperf run (probe installed, kprof on) touches
    // every family the registry can register.
    let o = observability::run_observed(Config::process_pp(), Scale::Quick);
    let reg = o.kernel.kstat();
    assert!(!reg.is_empty());

    let mut seen_patterns = BTreeSet::new();
    for (name, entry) in reg.iter() {
        assert!(
            valid_name(name),
            "registry name {name:?} violates the [a-z0-9_.]+ grammar"
        );
        assert!(
            inventory.contains(entry.pattern),
            "registry entry {name} has pattern {:?} not in the DESIGN.md §13 inventory",
            entry.pattern
        );
        seen_patterns.insert(entry.pattern.to_string());
    }
    // Reverse direction: no stale doc rows. Every documented pattern is
    // instantiated by at least one entry of this run.
    for p in &inventory {
        assert!(
            seen_patterns.contains(p),
            "DESIGN.md §13 documents {p:?} but no registry entry instantiates it"
        );
    }
}

/// Metric cardinality is bounded: a kspan-armed flukeperf run exports
/// the same set of rows whatever its connection count (each small RPC
/// opens its own connection), so contention is reported per object kind
/// and lock class, never per object.
#[test]
fn row_set_does_not_depend_on_the_connection_count() {
    let rows = |small_rpcs: u32| {
        let p = FlukeperfParams {
            small_rpcs,
            ..FlukeperfParams::quick()
        };
        let mut w = flukeperf::build(Config::process_pp().with_kspan(), &p);
        try_finish(&mut w, 2_000_000_000).expect("flukeperf finishes");
        let reg = w.kernel.kstat();
        reg.iter()
            .map(|(name, _)| name.to_string())
            .collect::<Vec<_>>()
    };
    assert_eq!(rows(10), rows(40));
}
