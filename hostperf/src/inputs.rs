//! Workload inputs generated from the benchmark seed.
//!
//! Seed 0 is the paper's parameters exactly, so its simulated results can
//! be pinned (see [`crate::cells::pinned`]). Any other seed perturbs the
//! generated sizes inside a band of a few parts per thousand: enough to
//! give the simulated programs different inputs, small enough that the
//! host time per run stays comparable across seeds. The workload programs
//! only ever see the generated numbers, never the seed.

use fluke_workloads::FlukeperfParams;

/// Echo payload per message, in bytes (the `mp_scaling` ipc-echo size).
pub const ECHO_LEN: usize = 64;

/// Pages the paper's 16MB memtest scan touches.
pub const MEMTEST_PAGES: u32 = 4096;

/// Echo exchanges per pair in `mp64` part (a) at seed 0: sized so the
/// all-busy part does host work comparable to the flukeperf part.
pub const ECHO_EXCHANGES: u32 = 8_192;

/// Divisor applied to the paper's flukeperf phase counts for the
/// `observed` workload, so the report stays small enough for today's
/// JSON parser.
pub const OBSERVED_DIVISOR: u32 = 150;

/// Divisor applied to the paper's flukeperf phase counts for the probe
/// pairs that stand in for `mp64` and `observed` on other workloads.
pub const PAIR_DIVISOR: u32 = 8;

/// Everything a workload is built from.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The seed the inputs were generated from.
    pub seed: u64,
    /// flukeperf phase sizes (`flukeperf` and `mp64` part (b)).
    pub flukeperf: FlukeperfParams,
    /// Reduced flukeperf phase sizes for `observed`.
    pub observed: FlukeperfParams,
    /// Pages the memtest scan touches.
    pub memtest_pages: u32,
    /// Request/reply round trips per echo pair in `mp64` part (a).
    pub echo_exchanges: u32,
    /// Bytes every echo client sends and must get back unchanged.
    pub echo_payload: [u8; ECHO_LEN],
}

/// SplitMix64: a small, well-mixed deterministic generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `base` moved by a random amount within ±`per_mille`/1000 of it.
    fn jitter(&mut self, base: u32, per_mille: u32) -> u32 {
        let span = u64::from(base) * u64::from(per_mille) / 1000;
        let offset = self.next() % (2 * span + 1);
        (u64::from(base) + offset - span) as u32
    }
}

impl Inputs {
    /// Generate the inputs for `seed`.
    pub fn new(seed: u64) -> Inputs {
        let mut rng = SplitMix(seed);
        let mut payload = [0u8; ECHO_LEN];
        for chunk in payload.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next().to_le_bytes());
        }
        let paper = FlukeperfParams::paper();
        if seed == 0 {
            return Inputs {
                seed,
                observed: scaled(&paper, OBSERVED_DIVISOR),
                flukeperf: paper,
                memtest_pages: MEMTEST_PAGES,
                echo_exchanges: ECHO_EXCHANGES,
                echo_payload: payload,
            };
        }
        const BAND: u32 = 5; // ±0.5%
        let mut j = |v: u32| rng.jitter(v, BAND);
        let flukeperf = FlukeperfParams {
            nulls: j(paper.nulls),
            mutex_pairs: j(paper.mutex_pairs),
            cond_signals: j(paper.cond_signals),
            small_rpcs: j(paper.small_rpcs),
            medium_sends: j(paper.medium_sends),
            searches: j(paper.searches),
            ..paper
        };
        Inputs {
            seed,
            observed: scaled(&flukeperf, OBSERVED_DIVISOR),
            memtest_pages: j(MEMTEST_PAGES),
            echo_exchanges: j(ECHO_EXCHANGES),
            flukeperf,
            echo_payload: payload,
        }
    }
}

/// `p` with every repeated phase divided by `div` (at least one of each),
/// keeping message sizes.
pub fn scaled(p: &FlukeperfParams, div: u32) -> FlukeperfParams {
    let d = |v: u32| (v / div).max(1);
    FlukeperfParams {
        nulls: d(p.nulls),
        mutex_pairs: d(p.mutex_pairs),
        cond_signals: d(p.cond_signals),
        small_rpcs: d(p.small_rpcs),
        medium_sends: d(p.medium_sends),
        big_sends: d(p.big_sends),
        searches: d(p.searches),
        ..p.clone()
    }
}

/// Test-sized inputs: quick flukeperf and a few pages and exchanges, each
/// moved by `seed` so distinct seeds give distinct programs.
#[cfg(test)]
pub(crate) fn quick(seed: u64) -> Inputs {
    let n = seed as u32 % 7;
    let mut flukeperf = FlukeperfParams::quick();
    flukeperf.nulls += n;
    flukeperf.small_rpcs += n;
    Inputs {
        observed: flukeperf.clone(),
        flukeperf,
        memtest_pages: 64 + n,
        echo_exchanges: 8 + n,
        ..Inputs::new(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_paper_and_other_seeds_stay_in_band() {
        let zero = Inputs::new(0);
        let paper = FlukeperfParams::paper();
        assert_eq!(zero.flukeperf.nulls, paper.nulls);
        assert_eq!(zero.flukeperf.small_rpcs, paper.small_rpcs);
        assert_eq!(zero.memtest_pages, MEMTEST_PAGES);
        for seed in 1..50 {
            let i = Inputs::new(seed);
            let near = |got: u32, base: u32| got.abs_diff(base) <= base / 200;
            assert!(near(i.flukeperf.nulls, paper.nulls));
            assert!(near(i.flukeperf.cond_signals, paper.cond_signals));
            assert!(near(i.memtest_pages, MEMTEST_PAGES));
            assert!(near(i.echo_exchanges, ECHO_EXCHANGES));
            assert_eq!(i.flukeperf.big_size, paper.big_size);
        }
        assert_ne!(Inputs::new(1).echo_payload, Inputs::new(2).echo_payload);
        assert_eq!(
            Inputs::new(7).flukeperf.nulls,
            Inputs::new(7).flukeperf.nulls
        );
    }
}
