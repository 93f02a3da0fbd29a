//! The shared front end of the bench binaries that gate CI against a
//! committed report: `mp_scaling`, `server_consolidation`, `kmon`,
//! `krec_sweep` and `kfuzz`.
//!
//! Each takes `[--check] [--out FILE]` plus its own flags (`--quick` for
//! the two sweeps that carry both scales):
//!
//! * Without `--check` the binary runs and writes its report to `--out`,
//!   or to the committed file name when `--out` is absent. It reads no
//!   report.
//! * With `--check` it first loads the committed report from the working
//!   directory — a missing or malformed file is exit 2 with a message —
//!   then runs, writes a report only if `--out` names one (a check never
//!   overwrites the committed file), and exits 1 if any gate failed.

use fluke_json::Json;

use crate::Scale;

/// Exit status for a usage error or an unreadable committed report.
pub const USAGE_EXIT: i32 = 2;

/// One gated binary: its name, committed report and extra flags.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Binary name, used in messages.
    pub bin: &'static str,
    /// Committed report, relative to the working directory.
    pub committed: &'static str,
    /// Extra flags, written as in the usage line: `--quick` is a switch,
    /// `--flame FILE` takes a value.
    pub flags: &'static [&'static str],
}

/// A parsed command line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// `--check`: gate the fresh run against the committed report.
    pub check: bool,
    /// `--out FILE`: where to write the fresh report.
    pub out: Option<String>,
    /// Extra flags seen, with their values (`None` for switches).
    pub extra: Vec<(String, Option<String>)>,
}

impl Args {
    /// Whether the extra switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.extra.iter().any(|(f, _)| *f == flag)
    }

    /// The value of the extra option `flag`, if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.extra
            .iter()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| v.as_deref())
    }
}

impl Gate {
    /// One-line usage text.
    pub fn usage(&self) -> String {
        let extra: String = self.flags.iter().map(|f| format!(" [{f}]")).collect();
        format!("usage: {} [--check] [--out FILE]{extra}", self.bin)
    }

    /// Parse `args` (without the program name).
    pub fn parse(&self, args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            let mut value =
                |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a file name"));
            let spec = self.flags.iter().find(|f| f.split(' ').next() == Some(&a));
            match (a.as_str(), spec) {
                ("--check", _) => out.check = true,
                ("--out", _) => out.out = Some(value("--out")?),
                (_, Some(spec)) => {
                    let v = spec.contains(' ').then(|| value(&a)).transpose()?;
                    out.extra.push((a, v));
                }
                (_, None) => return Err(format!("unknown argument {a:?}")),
            }
        }
        Ok(out)
    }

    /// Parse the process arguments; a bad command line exits 2.
    pub fn args(&self) -> Args {
        self.parse(std::env::args().skip(1))
            .unwrap_or_else(|e| self.fail_usage(&format!("{e}\n{}", self.usage())))
    }

    /// The committed report under `--check`, `None` otherwise. Nothing is
    /// read without `--check`.
    pub fn load_committed(&self, args: &Args) -> Result<Option<Json>, String> {
        if !args.check {
            return Ok(None);
        }
        let text = std::fs::read_to_string(self.committed)
            .map_err(|e| format!("--check needs the committed {}: {e}", self.committed))?;
        Json::parse(&text)
            .map(Some)
            .map_err(|e| format!("committed {} is malformed: {e}", self.committed))
    }

    /// [`Gate::load_committed`], exiting 2 when the report is missing or
    /// malformed.
    pub fn committed(&self, args: &Args) -> Option<Json> {
        self.load_committed(args)
            .unwrap_or_else(|e| self.fail_usage(&e))
    }

    /// Write `doc` to `--out`, or to the committed file when not
    /// checking.
    pub fn write(&self, args: &Args, doc: &Json) {
        let path = match (&args.out, args.check) {
            (Some(p), _) => p.as_str(),
            (None, false) => self.committed,
            (None, true) => return,
        };
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("{}: writing {path}: {e}", self.bin);
            std::process::exit(1);
        }
        println!("wrote {path}");
    }

    /// Report the gate's verdict: print every error and exit 1 if any.
    pub fn finish(&self, errs: &[String]) {
        if errs.is_empty() {
            println!("{} --check vs committed {}: OK", self.bin, self.committed);
            return;
        }
        for e in errs {
            eprintln!("{} --check FAILED: {e}", self.bin);
        }
        std::process::exit(1);
    }

    fn fail_usage(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.bin);
        std::process::exit(USAGE_EXIT);
    }
}

/// A report carrying one run document per scale.
pub fn scale_runs(bench: &str, runs: Vec<Json>) -> Json {
    let mut doc = Json::obj();
    doc.set("bench", Json::Str(bench.to_string()));
    doc.set("runs", Json::Arr(runs));
    doc
}

/// The `scale` run of a committed report: an entry of its `runs` array,
/// or the report itself if it is a bare run of that scale.
pub fn scale_run(report: &Json, scale: Scale) -> Result<&Json, String> {
    let want = scale.label();
    let is_want = |r: &Json| r.get("scale").and_then(Json::as_str) == Some(want);
    match report.get("runs").and_then(Json::items) {
        Some(runs) => runs
            .iter()
            .find(|r| is_want(r))
            .ok_or_else(|| format!("committed report has no {want}-scale run")),
        None if is_want(report) => Ok(report),
        None => Err(format!("committed report is not a {want}-scale run")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(committed: &'static str) -> Gate {
        Gate {
            bin: "t",
            committed,
            flags: &["--quick", "--flame FILE"],
        }
    }

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    fn scratch(name: &str, text: &str) -> &'static str {
        let p = std::env::temp_dir().join(format!("fluke-gate-{}-{name}", std::process::id()));
        std::fs::write(&p, text).unwrap();
        Box::leak(p.to_string_lossy().into_owned().into_boxed_str())
    }

    #[test]
    fn parses_the_shared_and_extra_flags() {
        let g = gate("x.json");
        let a = g
            .parse(argv(&[
                "--quick", "--check", "--out", "o.json", "--flame", "f",
            ]))
            .unwrap();
        assert!(a.check && a.has("--quick"));
        assert_eq!(a.out.as_deref(), Some("o.json"));
        assert_eq!(a.value("--flame"), Some("f"));
        assert_eq!(g.parse(argv(&[])).unwrap(), Args::default());
        // Positional output paths and unknown or incomplete flags are
        // errors, not silently ignored.
        assert!(g.parse(argv(&["o.json"])).is_err());
        assert!(g.parse(argv(&["--out"])).is_err());
        assert!(g.parse(argv(&["--flame"])).is_err());
        assert!(g
            .usage()
            .ends_with(" [--check] [--out FILE] [--quick] [--flame FILE]"));
    }

    #[test]
    fn committed_report_is_loaded_only_under_check() {
        let bad = scratch("bad.json", "{ not json");
        let g = gate(bad);
        // Without --check nothing is read: not the committed file, not
        // the (equally malformed) --out file.
        let a = g.parse(argv(&["--out", bad])).unwrap();
        assert_eq!(g.load_committed(&a), Ok(None));
        let a = g.parse(argv(&["--check"])).unwrap();
        let e = g.load_committed(&a).unwrap_err();
        assert!(e.contains("malformed"), "{e}");

        let good = scratch("good.json", "{\"bench\":\"t\"}\n");
        let loaded = gate(good).load_committed(&a).unwrap().unwrap();
        assert_eq!(loaded.get("bench").and_then(Json::as_str), Some("t"));

        let e = gate("/nonexistent/fluke-gate.json")
            .load_committed(&a)
            .unwrap_err();
        assert!(e.contains("needs the committed"), "{e}");
    }

    #[test]
    fn scale_runs_resolve_by_scale() {
        let mut quick = Json::obj();
        quick.set("scale", Json::Str("quick".into()));
        let doc = scale_runs("t", vec![quick.clone()]);
        assert_eq!(scale_run(&doc, Scale::Quick), Ok(&quick));
        assert!(scale_run(&doc, Scale::Paper).is_err());
        assert_eq!(scale_run(&quick, Scale::Quick), Ok(&quick));
        assert!(scale_run(&quick, Scale::Paper).is_err());
    }
}
