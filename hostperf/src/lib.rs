//! Host-time benchmark of the Fluke simulator.
//!
//! Three workloads ([`cells::Workload`]) built from the workload crates'
//! public APIs. An untraced run reports end-to-end host metrics; a traced
//! run times the calls into each layer from outside the kernel, adds
//! layer-isolation probes, and reports the per-layer split. Every run
//! checks the simulated results: seed 0 against pinned fingerprints, any
//! seed against seed-independent invariants. See `README.md`.

pub mod cells;
pub mod clock;
pub mod inputs;
pub mod measure;
pub mod probes;
pub mod spans;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every executed cell passed its checks.
    pub correct: bool,
    /// Cell executions attempted.
    pub attempted: u64,
    /// Cell executions that failed a check.
    pub failed: u64,
    /// The measurements.
    pub metrics: Vec<Metric>,
    /// The first failed checks, for diagnosis.
    pub errors: Vec<String>,
}

impl Report {
    /// The one-line JSON result.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // Non-finite values are not JSON; report them as 0.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `v` (sorts it). Zero for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` of a sorted slice. Zero if empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric::new("wall_s", "s", 0.25),
                Metric::new("x", "count", 7.0),
            ],
            errors: Vec::new(),
        };
        let doc = fluke_json::Json::parse(&r.to_json_line()).expect("valid JSON");
        let m = doc.get("metrics").expect("metrics");
        assert_eq!(
            m.get("wall_s")
                .and_then(|v| v.get("value"))
                .and_then(|v| v.as_f64()),
            Some(0.25)
        );
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(3));
    }
}
