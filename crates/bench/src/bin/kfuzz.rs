//! `kfuzz`: coverage-guided differential kernel fuzzing — run the
//! baseline and guided campaigns for both tiers under identical budgets
//! and write `BENCH_fuzz.json`.
//!
//! Usage: `kfuzz [--check] [--out FILE] [--write-corpus]` (see
//! [`fluke_bench::gate`]).
//!
//! * `FLUKE_KFUZZ_SEED=N` sets the campaign seed (default 1).
//! * `FLUKE_KFUZZ_CASES=N` sets the per-campaign case budget
//!   (default 96).
//! * `FLUKE_KFUZZ_CORPUS=DIR` locates the committed corpus directory
//!   (default `corpus`); `<tier>.kfz` files found there seed the guided
//!   campaigns.
//! * `--write-corpus` writes each guided campaign's minimized corpus
//!   back to the corpus directory.
//! * `--check` exits non-zero on any finding, on a guided campaign that
//!   fails to strictly dominate its baseline, and on coverage collapse
//!   against the committed `BENCH_fuzz.json`. Without it, any finding
//!   still exits 1.
//!
//! Malformed knobs are structured, fatal errors (never silent
//! defaults): `FLUKE_KFUZZ_CASES=lots` exits 2 naming the knob and the
//! rejected value.

use fluke_bench::gate::{Gate, USAGE_EXIT};
use fluke_bench::kfuzz::{self, tier_label, FuzzReport, ALL_TIERS};
use fluke_core::kfuzz::{corpus_from_text, corpus_to_text, env_knob, FuzzProgram};

const GATE: Gate = Gate {
    bin: "kfuzz",
    committed: "BENCH_fuzz.json",
    flags: &["--write-corpus"],
};

fn knob(name: &'static str, default: u64, lo: u64, hi: u64) -> u64 {
    env_knob(name, default, lo, hi).unwrap_or_else(|e| {
        eprintln!("kfuzz: {e}");
        std::process::exit(USAGE_EXIT);
    })
}

fn load_corpus(dir: &str, tier: &str) -> Vec<FuzzProgram> {
    let path = format!("{dir}/{tier}.kfz");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Vec::new();
    };
    match corpus_from_text(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("kfuzz: {path}: {e}");
            std::process::exit(USAGE_EXIT);
        }
    }
}

fn main() {
    let args = GATE.args();
    let seed = knob("FLUKE_KFUZZ_SEED", 1, 0, u64::MAX);
    let cases = knob("FLUKE_KFUZZ_CASES", 96, 1, 1 << 20);
    let corpus_dir = std::env::var("FLUKE_KFUZZ_CORPUS").unwrap_or_else(|_| "corpus".to_string());

    let committed = GATE.committed(&args);

    println!("=== kfuzz: guided vs fixed-seed campaigns (seed {seed}, {cases} cases) ===\n");
    let mut reports: Vec<FuzzReport> = Vec::new();
    for tier in ALL_TIERS {
        let initial = load_corpus(&corpus_dir, tier_label(tier));
        let r = kfuzz::compare(tier, seed, cases, &initial);
        println!("{}", r.summary());
        for block in r.reproducers() {
            eprintln!("  {block}");
        }
        reports.push(r);
    }
    let total_findings: usize = reports
        .iter()
        .map(|r| r.baseline.findings.len() + r.guided.findings.len())
        .sum();
    println!(
        "\n{} campaigns, {} signatures reached (guided), {total_findings} findings",
        2 * reports.len(),
        reports.iter().map(|r| r.guided.sigs.len()).sum::<usize>(),
    );

    if args.has("--write-corpus") {
        std::fs::create_dir_all(&corpus_dir).expect("create corpus dir");
        for r in &reports {
            let path = format!("{corpus_dir}/{}.kfz", r.tier);
            std::fs::write(&path, corpus_to_text(&r.guided.corpus)).expect("write corpus");
            println!("wrote {path} ({} programs)", r.guided.corpus.len());
        }
    }

    GATE.write(&args, &kfuzz::to_json(&reports));
    if let Some(c) = committed {
        GATE.finish(&kfuzz::check(&c, &reports));
    } else if total_findings > 0 {
        std::process::exit(1);
    }
}
