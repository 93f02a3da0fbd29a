//! The shared `--check` gate of the five gated bench binaries, driven
//! through the real executables: a missing or malformed committed report
//! is a structured exit-2 error raised before any work is done, and a run
//! without `--check` never reads the `--out` file. `kfuzz`'s malformed
//! `FLUKE_KFUZZ_*` knobs exit 2 the same way.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Each gated binary with its committed report name.
const GATED: [(&str, &str); 5] = [
    (env!("CARGO_BIN_EXE_mp_scaling"), "BENCH_mp_scaling.json"),
    (
        env!("CARGO_BIN_EXE_server_consolidation"),
        "BENCH_server.json",
    ),
    (env!("CARGO_BIN_EXE_kmon"), "BENCH_observability.json"),
    (env!("CARGO_BIN_EXE_krec_sweep"), "BENCH_snapshot.json"),
    (env!("CARGO_BIN_EXE_kfuzz"), "BENCH_fuzz.json"),
];

/// A fresh, empty working directory.
fn workdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fluke-gate-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn run(bin: &str, dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(dir)
        .env("FLUKE_BENCH_SCALE", "quick")
        .env("FLUKE_KFUZZ_CASES", "1")
        .output()
        .expect("spawn bench binary")
}

fn assert_exit_2(out: &Output, needle: &str, what: &str) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {err}");
    assert!(
        err.contains(needle),
        "{what}: stderr lacks {needle:?}: {err}"
    );
}

#[test]
fn check_without_a_committed_report_exits_2() {
    let dir = workdir("missing");
    for (bin, committed) in GATED {
        let out = run(bin, &dir, &["--check"]);
        assert_exit_2(&out, committed, bin);
    }
}

#[test]
fn check_with_a_malformed_committed_report_exits_2() {
    let dir = workdir("malformed");
    for (bin, committed) in GATED {
        std::fs::write(dir.join(committed), "{ \"bench\": ").unwrap();
        let out = run(bin, &dir, &["--check", "--out", "fresh.json"]);
        assert_exit_2(&out, "malformed", bin);
        assert!(
            !dir.join("fresh.json").exists(),
            "{bin}: ran despite the bad report"
        );
    }
}

#[test]
fn run_without_check_never_reads_the_out_file() {
    let dir = workdir("no-read");
    // Unparseable files at both the output path and the committed path.
    // The gate treats an unparseable report as fatal, so a read of either
    // would fail the run.
    std::fs::write(dir.join("out.json"), "not json").unwrap();
    std::fs::write(dir.join("BENCH_fuzz.json"), "not json").unwrap();
    let (bin, _) = GATED[4];
    let out = run(bin, &dir, &["--out", "out.json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(dir.join("out.json")).unwrap();
    let doc = fluke_json::Json::parse(&written).expect("fresh report parses");
    assert_eq!(
        doc.get("bench").and_then(fluke_json::Json::as_str),
        Some("kfuzz")
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("BENCH_fuzz.json")).unwrap(),
        "not json",
        "an --out run must leave the committed report alone"
    );
}

/// `kfuzz` reads its numeric knobs through `gate::env_knob`: a malformed
/// or out-of-range value is an exit-2 error naming the knob, raised
/// before any campaign runs, never a silent default.
#[test]
fn malformed_kfuzz_knobs_exit_2() {
    let dir = workdir("knobs");
    let (bin, _) = GATED[4];
    let cases = [
        ("FLUKE_KFUZZ_CASES", "lots"),
        ("FLUKE_KFUZZ_CASES", "0"),
        ("FLUKE_KFUZZ_SEED", "x"),
    ];
    for (knob, value) in cases {
        let out = Command::new(bin)
            .current_dir(&dir)
            .env_remove("FLUKE_KFUZZ_SEED")
            .env_remove("FLUKE_KFUZZ_CASES")
            .env(knob, value)
            .output()
            .expect("spawn kfuzz");
        assert_exit_2(&out, knob, &format!("kfuzz {knob}={value}"));
    }
}
