#![warn(missing_docs)]
//! The experiment harness: one module per table/figure of the paper's
//! evaluation, each producing the same rows the paper reports.
//!
//! Binaries under `src/bin/` print the tables; the modules here compute
//! them, so tests can assert the reproduced *shapes* (who wins, by what
//! factor, where the orders of magnitude fall) without parsing text.

pub mod ablation;
pub mod gate;
pub mod kfault_sweep;
pub mod kfuzz;
pub mod krec_sweep;
pub mod memfast;
pub mod mp_scaling;
pub mod observability;
pub mod report;
pub mod server_consolidation;
pub mod table1;
pub mod table3;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod trace_export;
pub mod tracediff;

pub use report::TextTable;

use fluke_workloads::FlukeperfParams;

/// Scale selector for the measurement tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-sized runs (seconds of simulated time per cell).
    Paper,
    /// Scaled-down runs for tests and smoke checks.
    Quick,
}

impl Scale {
    /// Read the scale from the `FLUKE_BENCH_SCALE` environment variable
    /// (`quick` selects [`Scale::Quick`]; anything else is paper-sized).
    pub fn from_env() -> Scale {
        match std::env::var("FLUKE_BENCH_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            _ => Scale::Paper,
        }
    }

    /// Stable report label: `paper` or `quick`.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Quick => "quick",
        }
    }

    /// The flukeperf parameters of this scale.
    pub fn flukeperf(self) -> FlukeperfParams {
        match self {
            Scale::Paper => FlukeperfParams::paper(),
            Scale::Quick => FlukeperfParams::quick(),
        }
    }
}
