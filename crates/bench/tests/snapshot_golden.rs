//! Golden-digest regression test for the snapshot byte format.
//!
//! The round-trip tests only prove that an image decodes back into itself,
//! so a codec change that swaps two same-width fields in both halves would
//! pass them. This test pins the images themselves: each krec workload runs
//! with ktrace, kprof and kspan armed, one kfault injection, and a snapshot
//! every few dispatch sites, and the FNV-1a digest of every image (plus the
//! finished kernel's) is compared against digests blessed before the
//! declarative codec landed. The uniprocessor sweep covers the four
//! comparable configurations; two 4-CPU Process PP runs, fine-grained and
//! big-lock, fill the multi-CPU, run-queue and lock-table sections.
//!
//! To re-bless after an intentional format change (which must also bump
//! `SNAP_VERSION`):
//!
//! ```text
//! FLUKE_BLESS=1 cargo test -p fluke-bench --test snapshot_golden
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use fluke_bench::krec_sweep::{KrecWorkload, ALL_WORKLOADS};
use fluke_core::krec::{fnv64, FNV_OFFSET};
use fluke_core::{Config, Kernel, KfaultConfig, KfaultKind, KrecConfig};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("snapshot_digests.txt")
}

/// `(digest, snapshot count, total image bytes)` per run label.
type Pins = BTreeMap<String, (u64, u64, u64)>;

fn parse_golden(text: &str) -> Pins {
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
        let count: u64 = it.next().expect("count").parse().expect("image count");
        let bytes: u64 = it.next().expect("bytes").parse().expect("image bytes");
        out.insert(label, (hash, count, bytes));
    }
    out
}

/// Snapshot stride per workload, in user dispatch sites.
fn stride(w: KrecWorkload) -> u64 {
    match w {
        KrecWorkload::IpcEcho => 2,
        KrecWorkload::Checkpoint => 10,
        KrecWorkload::Server => 1,
    }
}

/// Run `w` under `cfg` with every observer armed, an ExtractRestore
/// injection at dispatch site 3 and a snapshot every `stride(w)` sites;
/// fold every image's bytes into one digest.
fn pin(w: KrecWorkload, cfg: &Config) -> (u64, u64, u64) {
    let armed = cfg
        .clone()
        .with_kprof()
        .with_kspan()
        .with_kfault(KfaultConfig::at(KfaultKind::ExtractRestore, 3))
        .with_krec(KrecConfig::every_sites(stride(w)).with_ring(1 << 12));
    let (_, mut k) = w
        .run(&armed)
        .unwrap_or_else(|e| panic!("{} under {}: {e}", w.label(), cfg.label));
    assert!(
        k.kfault().is_some_and(|f| f.fired()),
        "{} under {}: the injection never fired",
        w.label(),
        cfg.label
    );
    let rec = k.take_recording().expect("recorder armed");
    let last = k.snapshot_bytes().expect("final image");
    let again = Kernel::restore_from(&last)
        .and_then(|r| r.snapshot_bytes())
        .expect("final image restores");
    assert_eq!(
        again,
        last,
        "{}: final image does not round-trip",
        w.label()
    );
    let images: Vec<&[u8]> = rec
        .snapshots
        .iter()
        .map(|s| &s.bytes[..])
        .chain([&last[..]])
        .collect();
    let mut h = FNV_OFFSET;
    let mut total = 0u64;
    for (i, img) in images.iter().enumerate() {
        // Every image passes restore's validation, `check_invariants`
        // included.
        if let Err(e) = Kernel::restore_from(img) {
            panic!(
                "{} under {}: image {i} does not restore: {e}",
                w.label(),
                cfg.label
            );
        }
        h = fnv64(h, img);
        total += img.len() as u64;
    }
    (h, images.len() as u64, total)
}

fn current() -> Pins {
    let mut out = BTreeMap::new();
    let mp = Config::process_pp().with_cpus(4);
    let runs: Vec<(String, Config)> = Config::comparable()
        .into_iter()
        .map(|c| (c.label.replace(' ', "_"), c))
        .chain([
            ("Process_PP_4cpu".to_string(), mp.clone()),
            (
                "Process_PP_4cpu_big_lock".to_string(),
                mp.with_big_lock(true),
            ),
        ])
        .collect();
    for w in ALL_WORKLOADS {
        for (label, cfg) in &runs {
            out.insert(format!("{}/{label}", w.label()), pin(w, cfg));
        }
    }
    out
}

#[test]
fn snapshot_images_match_blessed_digests() {
    let current = current();
    if std::env::var("FLUKE_BLESS").is_ok() {
        let mut text = String::from(
            "# Blessed snapshot-image digests (every image of each recording, then\n\
             # the finished kernel's), all observers armed, one kfault injection.\n\
             # workload/config  fnv1a64  images  bytes\n",
        );
        for (label, (hash, count, bytes)) in &current {
            writeln!(text, "{label} 0x{hash:016x} {count} {bytes}").unwrap();
        }
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
    assert_eq!(
        golden.keys().collect::<Vec<_>>(),
        current.keys().collect::<Vec<_>>(),
        "golden runs differ from the runs pinned here"
    );
    for (label, got) in &current {
        let want = &golden[label];
        assert_eq!(
            got, want,
            "snapshot images diverged from blessed golden for {label} \
             (got 0x{:016x}/{} images/{} bytes, want 0x{:016x}/{}/{})",
            got.0, got.1, got.2, want.0, want.1, want.2
        );
    }
}
