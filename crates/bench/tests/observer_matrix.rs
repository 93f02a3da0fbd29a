//! The observer matrix: arming any host-side observer, alone or all at
//! once, must change *nothing* simulated.
//!
//! The kernel raises probes as data and observers only consume them, so
//! the raw ktrace is the oracle (`tracediff::trace_digest`: FNV-1a over
//! every record's timestamp, CPU, sequence number, kind and payload).
//! Each row arms observers on traced quick `flukeperf` under every
//! `Config::comparable()` config and must reproduce
//! `tests/golden/ktrace_digests.txt` with no trace drops; each armed
//! observer must also show that it really ran. A row that arms `krec`
//! runs again without it, and the two end `state_digest`s must be equal.
//! The `all` row catches a perturbation that only shows when observers
//! meet. The `bare` row is the golden itself; to re-bless after an
//! intentional behavioral change:
//!
//! ```text
//! FLUKE_BLESS=1 cargo test -p fluke-bench --test observer_matrix
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use fluke_bench::tracediff::{run_traced_flukeperf, trace_digest};
use fluke_bench::Scale;
use fluke_core::{Config, Kernel, KfaultConfig, KfaultKind, KrecConfig};

type Digests = BTreeMap<String, (u64, u64)>;
/// A row: its name, and how it arms a configuration's observers.
type Row = (&'static str, fn(Config) -> Config);

const ROWS: &[Row] = &[
    ("bare", |c| c),
    ("kprof", Config::with_kprof),
    ("kspan", Config::with_kspan),
    ("flowcheck", Config::with_flowcheck),
    ("kfault-extract-restore", |c| {
        count_only(c, KfaultKind::ExtractRestore)
    }),
    ("kfault-transient", |c| count_only(c, KfaultKind::Transient)),
    ("krec", with_krec),
    ("all", |c| {
        let c = c.with_kprof().with_kspan().with_flowcheck();
        with_krec(count_only(c, KfaultKind::ExtractRestore))
    }),
];

/// Arm `kfault` at the count-only sentinel: every hook of `kind`'s path
/// runs and counts its site, but none fires.
fn count_only(c: Config, kind: KfaultKind) -> Config {
    c.with_kfault(KfaultConfig::count_sites(kind))
}

/// Arm `krec` at an aggressive stride, so whole-kernel snapshots really
/// fire mid-run.
fn with_krec(c: Config) -> Config {
    c.with_krec(KrecConfig::every_sites(3).with_ring(4096))
}

/// Assert that every observer armed in `cfg` really ran on `k`.
fn observers_ran(label: &str, cfg: &Config, k: &Kernel) {
    if cfg.kprof {
        // Every simulated cycle was attributed, and kstat is populated.
        assert!(k.kprof.enabled, "{label}: kprof should be enabled");
        let (attributed, total) = (k.kprof.total(), k.total_cpu_cycles());
        assert_eq!(attributed, total, "{label}: kprof attribution incomplete");
        assert!(k.kprof.kernel_cycles() > 0, "{label}: no kernel cycles");
        let syscalls = k.kstat().scalar("kernel.syscall.count").unwrap_or(0);
        assert!(syscalls > 0, "{label}: kstat registry empty");
    }
    if cfg.kspan {
        // Requests completed, each decomposed exactly into the critical-
        // path buckets, and flukeperf's IPC phases stitched flow edges.
        assert!(k.kspan.enabled, "{label}: kspan should be enabled");
        assert!(!k.kspan.completed().is_empty(), "{label}: no requests");
        for r in k.kspan.completed() {
            let (req, class) = (r.req, r.class);
            assert_eq!(
                r.decomposed(),
                r.e2e(),
                "{label}: request {req} ({class}) decomposition"
            );
        }
        assert!(!k.kspan.flows().is_empty(), "{label}: no flow edges");
    }
    if cfg.flowcheck {
        // The checker shadowed the run, and every exit decoded as the
        // entrypoint that actually completed.
        let fc = &k.flowcheck;
        assert!(fc.checks > 0, "{label}: flowcheck checked nothing");
        let (n, first) = (fc.violations_total, fc.violations.first());
        assert_eq!(n, 0, "{label}: flowcheck violations, first {first:?}");
    }
    if cfg.kfault.is_some() {
        // The engine counted a nonempty site space and never fired.
        let engine = k.kfault().expect("engine armed");
        let sites = engine.sites_seen();
        assert!(sites > 0, "{label}: no injection sites counted");
        assert!(!engine.fired(), "{label}: count-only fired");
        for kind in KfaultKind::ALL {
            let n = k.stats.faults_injected[kind.index()];
            assert_eq!(n, 0, "{label}: spurious {} injection count", kind.name());
        }
    }
    if cfg.krec.is_some() {
        let rec = k.krec().expect("recorder armed");
        assert!(rec.sites_seen() > 0, "{label}: no snapshot sites seen");
        assert!(rec.taken() > 0, "{label}: no snapshots taken");
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ktrace_digests.txt")
}

fn parse_golden(text: &str) -> Digests {
    let lines = text.lines().map(str::trim);
    let lines = lines.filter(|l| !l.is_empty() && !l.starts_with('#'));
    lines
        .map(|line| {
            let mut it = line.split_whitespace();
            let label = it.next().expect("label").to_string();
            let hash = it.next().expect("hash").trim_start_matches("0x");
            let hash = u64::from_str_radix(hash, 16).expect("hex hash");
            let count = it.next().expect("count").parse().expect("record count");
            (label, (hash, count))
        })
        .collect()
}

fn bless(bare: &Digests) {
    let mut text = String::from(
        "# Blessed raw-ktrace digests for traced flukeperf (quick scale).\n\
         # label  fnv1a64  record_count\n",
    );
    for (label, (hash, count)) in bare {
        writeln!(text, "{label} 0x{hash:016x} {count}").unwrap();
    }
    std::fs::write(golden_path(), text).unwrap();
    eprintln!("blessed {}", golden_path().display());
}

#[test]
fn every_observer_alone_and_all_at_once_match_the_ktrace_goldens() {
    let mut rows: Vec<(&str, Digests)> = Vec::new();
    let mut failures = Vec::new();
    for &(row, arm) in ROWS {
        let mut digests = Digests::new();
        for cfg in Config::comparable() {
            let config = cfg.label.replace(' ', "_");
            let label = format!("{row}/{config}");
            let armed = arm(cfg);
            let k = run_traced_flukeperf(armed.clone(), Scale::Quick);
            assert_eq!(k.trace.dropped_total(), 0, "{label}: trace overflowed");
            observers_ran(&label, &armed, &k);
            if armed.krec.is_some() {
                let mut plain = armed;
                plain.krec = None;
                let plain = run_traced_flukeperf(plain, Scale::Quick);
                let (got, want) = (k.state_digest(), plain.state_digest());
                assert!(got.is_ok(), "{label}: state digest failed: {got:?}");
                if got != want {
                    failures.push(format!("{label}: end state {got:?}, without krec {want:?}"));
                }
            }
            digests.insert(config, trace_digest(&k));
        }
        rows.push((row, digests));
    }

    // ROWS[0] is the bare run, which the goldens hold.
    let golden = if std::env::var("FLUKE_BLESS").is_ok() {
        bless(&rows[0].1);
        rows[0].1.clone()
    } else {
        let text = std::fs::read_to_string(golden_path())
            .expect("golden file missing; run with FLUKE_BLESS=1 to create it");
        parse_golden(&text)
    };
    assert_eq!(golden.len(), rows[0].1.len(), "one golden per config");
    for (row, digests) in &rows {
        for (config, got) in digests {
            let want = golden.get(config).expect("no golden digest for config");
            if got != want {
                failures.push(format!(
                    "{row}/{config}: raw ktrace diverged (got 0x{:016x}/{} records, \
                     want 0x{:016x}/{})",
                    got.0, got.1, want.0, want.1
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
