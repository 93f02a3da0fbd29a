//! Host-time spans recorded from outside the simulator, around the calls
//! the benchmark makes into each layer's public functions.
//!
//! Tracing off, [`Spans::time`] is a plain call. Tracing on, it records
//! one [`Span`] per call, kept in memory until the run ends. Durations are
//! on the thread CPU clock ([`CpuInstant`]), like every timing of the
//! benchmark.

use crate::clock::CpuInstant;

/// The layer a span's call enters. Names follow the crate modules they
/// measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Kernel::new` plus the workload's build (assembly, loaders, pager).
    Setup,
    /// One `Kernel::run` call (`fluke_core::kernel::run`).
    Run,
    /// Memory-gauge sampling between run slices (observers).
    ObsSample,
    /// `Kernel::kstat` (observers).
    Kstat,
    /// Building the report's JSON value.
    ToJson,
    /// Serializing the report to text.
    ToString,
    /// Parsing the report text back (`fluke_json::Json::parse`).
    Parse,
    /// The benchmark's own fingerprint and invariant checks.
    Check,
    /// Dropping the finished kernel and report.
    Teardown,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 9] = [
        Layer::Setup,
        Layer::Run,
        Layer::ObsSample,
        Layer::Kstat,
        Layer::ToJson,
        Layer::ToString,
        Layer::Parse,
        Layer::Check,
        Layer::Teardown,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Setup => "setup",
            Layer::Run => "core.run",
            Layer::ObsSample => "obs.sample",
            Layer::Kstat => "obs.kstat",
            Layer::ToJson => "report.to_json",
            Layer::ToString => "report.to_string",
            Layer::Parse => "json.parse",
            Layer::Check => "bench.check",
            Layer::Teardown => "teardown",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer entered.
    pub layer: Layer,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; `enabled = false` makes every [`Spans::time`] a plain
    /// call.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Switch recording on or off (recorded spans are kept).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Run `f`, recording a span for `layer` if enabled.
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let t0 = CpuInstant::now();
        let r = f();
        self.spans.push(Span {
            layer,
            dur_ns: t0.elapsed_ns(),
        });
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Total seconds of `layer` in `spans`.
pub fn layer_s(spans: &[Span], layer: Layer) -> f64 {
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.dur_ns)
        .sum::<u64>() as f64
        / 1e9
}

/// Total seconds of every span in `spans`.
pub fn total_s(spans: &[Span]) -> f64 {
    spans.iter().map(|s| s.dur_ns).sum::<u64>() as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing_and_enabled_records_each_call() {
        let mut s = Spans::new(false);
        assert_eq!(s.time(Layer::Run, || 7), 7);
        assert!(s.is_empty());
        s.set_enabled(true);
        s.time(Layer::Run, || std::hint::black_box(1 + 1));
        s.time(Layer::Parse, || ());
        assert_eq!(s.len(), 2);
        assert_eq!(s.spans()[0].layer, Layer::Run);
        assert_eq!(s.spans()[1].layer, Layer::Parse);
        assert!(layer_s(s.spans(), Layer::Run) <= total_s(s.spans()));
    }
}
