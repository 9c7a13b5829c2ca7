//! Hotness bands: what a VM records in place of tiers, so that one
//! execution can be priced under every tier policy, tier-up threshold
//! and JIT mode.
//!
//! A function's *hotness* (calls plus loop back-edges) is a property of
//! the program, not of the engine. A tier-up threshold only decides two
//! things: which tier's counter an operation bumps, and where one tier-up
//! event falls. So the VMs count operations per *band* instead — a
//! function's band is the number of [`Bands`] boundaries its hotness has
//! reached — and append a [`Charge::BandCrossed`](crate::Charge) marker
//! whenever a function enters a new band. The pricing fold in
//! [`crate::price`] then turns bands into tiers for whichever
//! [`Tiering`] the price list names.

use crate::{EnvProfile, Environment, OpCounts};

/// Most boundaries a band set holds: one threshold per calibrated
/// environment plus the config's own.
const MAX_BOUNDARIES: usize = 7;

/// Most bands a record counts: one more than the boundaries.
const MAX_BANDS: usize = MAX_BOUNDARIES + 1;

/// The sorted, distinct tier-up thresholds a run's hotness is banded by:
/// those of the six calibrated environments, plus the config's own.
///
/// Two configs with equal band sets execute identically, so the set is
/// part of the execution memo key; any threshold in it can price the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bands {
    len: u8,
    bounds: [u64; MAX_BOUNDARIES],
}

impl Bands {
    /// Wasm bands: every calibrated `tier_up_threshold`, plus `own`.
    pub fn wasm(own: u64) -> Self {
        Self::calibrated(|p| p.wasm.tier_up_threshold, own)
    }

    /// JS bands: every calibrated `jit_threshold`, plus `own`.
    pub fn js(own: u64) -> Self {
        Self::calibrated(|p| p.js.jit_threshold, own)
    }

    fn calibrated(threshold: fn(&EnvProfile) -> u64, own: u64) -> Self {
        let mut all: Vec<u64> = Environment::all_six()
            .iter()
            .map(|env| threshold(&env.profile()))
            .chain([own])
            .collect();
        all.sort_unstable();
        all.dedup();
        let mut bands = Bands {
            len: all.len() as u8,
            bounds: [0; MAX_BOUNDARIES],
        };
        bands.bounds[..all.len()].copy_from_slice(&all);
        bands
    }

    /// The boundaries, ascending.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds[..self.len as usize]
    }

    /// The boundary a function in `band` reaches at `hotness`, if any:
    /// the function then moves to `band + 1`.
    #[inline]
    pub fn crossed(&self, band: usize, hotness: u64) -> Option<u64> {
        let boundary = *self.bounds().get(band)?;
        (hotness >= boundary).then_some(boundary)
    }

    /// Bands below `threshold`: a function is in the lower tier while
    /// its band is under this. A threshold outside the set (which no
    /// config's own record can meet) splits at the next boundary up.
    fn split(&self, threshold: u64) -> usize {
        debug_assert!(
            self.bounds().contains(&threshold),
            "threshold {threshold} is not a boundary of {:?}",
            self.bounds()
        );
        self.bounds().partition_point(|&b| b < threshold) + 1
    }
}

/// Which tiers a priced run uses: the Wasm tier policy or the JS JIT
/// mode, applied to a banded record at pricing time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tiering {
    /// Start in the lower tier; a function moves up once its hotness
    /// reaches `threshold` (the default Wasm tiers; JS with the JIT on).
    TierUp {
        /// Hotness at which a function tiers up.
        threshold: u64,
    },
    /// The lower tier only (basic-only Wasm; JS with the JIT off).
    LowerOnly,
    /// The upper tier only, compiled up front (optimizing-only Wasm).
    UpperOnly,
}

/// Retired operations per hotness band, as a VM records them. A tier's
/// count is an integer sum of band counts, so pricing a record under any
/// [`Tiering`] gives the counts a run under that tiering would retire.
#[derive(Debug, Clone, PartialEq)]
pub struct BandCounts {
    /// The boundaries the bands lie between.
    pub bands: Bands,
    /// Ops retired in each band (index: boundaries reached).
    pub ops: [OpCounts; MAX_BANDS],
    /// Typed-array index accesses in each band. The JS JIT prices them
    /// apart (`jit_typed_array_multiplier`); always zero for Wasm.
    pub typed: [OpCounts; MAX_BANDS],
    /// Ops no band affects — JS `Math.*` calls run native code — priced
    /// at the upper tier under every tiering; always zero for Wasm.
    pub native: OpCounts,
}

impl BandCounts {
    /// All-zero counts over `bands`.
    pub fn new(bands: Bands) -> Self {
        BandCounts {
            bands,
            ops: [OpCounts::new(); MAX_BANDS],
            typed: [OpCounts::new(); MAX_BANDS],
            native: OpCounts::new(),
        }
    }

    /// Every retired op, whatever its band.
    pub fn total(&self) -> OpCounts {
        self.ops
            .iter()
            .chain(&self.typed)
            .fold(self.native, |acc, c| acc.merged(c))
    }

    /// Retired ops per tier under `tiering`: `[lower, upper, upper
    /// typed-array accesses]`. Typed accesses in the lower tier count
    /// with its other ops.
    pub fn tiers(&self, tiering: Tiering) -> [OpCounts; 3] {
        let split = match tiering {
            Tiering::TierUp { threshold } => self.bands.split(threshold),
            Tiering::LowerOnly => MAX_BANDS,
            Tiering::UpperOnly => 0,
        };
        let sum = |counts: &[OpCounts]| counts.iter().fold(OpCounts::new(), |a, c| a.merged(c));
        let (lower_ops, upper_ops) = self.ops.split_at(split);
        let (lower_typed, upper_typed) = self.typed.split_at(split);
        [
            sum(lower_ops).merged(&sum(lower_typed)),
            sum(upper_ops).merged(&self.native),
            sum(upper_typed),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpClass;

    #[test]
    fn calibrated_bands_union_every_environment_and_the_own_threshold() {
        assert_eq!(Bands::wasm(2_000).bounds(), [1_500, 2_000]);
        assert_eq!(Bands::js(400).bounds(), [400, 900]);
        assert_eq!(Bands::js(1_200).bounds(), [400, 900, 1_200]);
        assert_eq!(Bands::wasm(1_500), Bands::wasm(2_000));
        assert_ne!(Bands::js(1_200), Bands::js(900));
    }

    #[test]
    fn a_function_crosses_each_boundary_once_in_order() {
        let bands = Bands::wasm(2_000);
        assert_eq!(bands.crossed(0, 1_499), None);
        assert_eq!(bands.crossed(0, 1_500), Some(1_500));
        assert_eq!(bands.crossed(1, 1_999), None);
        assert_eq!(bands.crossed(1, 2_000), Some(2_000));
        assert_eq!(bands.crossed(2, u64::MAX), None);
    }

    #[test]
    fn tiers_are_sums_of_bands_split_at_the_threshold() {
        let mut counts = BandCounts::new(Bands::js(400));
        for band in 0..3 {
            counts.ops[band].bump(OpClass::IntAlu, 10 << band);
            counts.typed[band].bump(OpClass::Load, 100 << band);
        }
        counts.native.bump(OpClass::FloatDiv, 7);
        let at = |tiering| {
            counts.tiers(tiering).map(|c| {
                (
                    c.get(OpClass::IntAlu),
                    c.get(OpClass::Load),
                    c.get(OpClass::FloatDiv),
                )
            })
        };
        assert_eq!(
            at(Tiering::TierUp { threshold: 400 }),
            [(10, 100, 0), (60, 0, 7), (0, 600, 0)]
        );
        assert_eq!(
            at(Tiering::TierUp { threshold: 900 }),
            [(30, 300, 0), (40, 0, 7), (0, 400, 0)]
        );
        assert_eq!(at(Tiering::LowerOnly), [(70, 700, 0), (0, 0, 7), (0, 0, 0)]);
        assert_eq!(at(Tiering::UpperOnly), [(0, 0, 0), (70, 0, 7), (0, 700, 0)]);
        for tiering in [Tiering::TierUp { threshold: 900 }, Tiering::LowerOnly] {
            let [a, b, c] = counts.tiers(tiering);
            assert_eq!(a.merged(&b).merged(&c), counts.total());
        }
    }
}
