//! Heterodyne crosstalk analysis and mitigation.
//!
//! The paper's conclusion names its ongoing work: *"exploring the
//! integration of approaches to reduce optical crosstalk \[49]–\[51] in the
//! proposed OPCM-based architecture"*. Those references are the
//! PICO / LIBRA / HYDRA line of work: in dense WDM buses, a microring
//! filter drops not only its own channel but a Lorentzian tail of every
//! neighbour — *heterodyne* crosstalk that beats against the signal at the
//! photodetector. Two of the mitigations those papers propose map directly
//! onto COMET's interface MR bank and are implemented here:
//!
//! * **Double-microring (second-order) filters** (\[51] HYDRA): cascading
//!   two rings squares the Lorentzian, steepening the skirt from
//!   20 dB/decade to 40 dB/decade of detuning — dramatically less
//!   neighbour pickup at the same channel spacing, for one extra ring's
//!   drop loss.
//! * **Channel-spacing / guard-band allocation** (\[49] PICO-style): given
//!   a crosstalk budget, compute the minimum channel spacing (and hence
//!   the maximum wavelength count per FSR) each filter order supports.
//!
//! [`WdmCrosstalkAnalysis`] aggregates the whole-bus picture COMET cares
//! about: with `N_c` channels on one bus, what total crosstalk power does
//! the worst channel accumulate, and does it stay under the level budget's
//! margin?

use crate::mr::Microring;
use crate::readout::LevelBudget;
use comet_units::{Decibels, Length};

/// Drop-filter order at the interface demux.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterOrder {
    /// A single microring (first-order Lorentzian; the paper's default).
    Single,
    /// Two coupled microrings (second-order; HYDRA-style \[51]).
    Double,
}

impl FilterOrder {
    /// Fraction of power a filter of this order picks up from a channel
    /// detuned by `delta`, for the given ring design.
    pub fn pickup(self, ring: &Microring, delta: Length) -> f64 {
        let first = ring.drop_fraction(delta);
        match self {
            FilterOrder::Single => first,
            // Two cascaded identical rings: the transfer function squares.
            FilterOrder::Double => first * first,
        }
    }

    /// Extra insertion loss this order pays on the *intended* channel
    /// (each ring contributes its drop loss).
    pub fn insertion_penalty(self, per_ring_drop: Decibels) -> Decibels {
        match self {
            FilterOrder::Single => Decibels::ZERO,
            FilterOrder::Double => per_ring_drop,
        }
    }
}

/// Whole-bus WDM crosstalk analysis for one drop filter in a channel comb.
///
/// # Examples
///
/// ```
/// use photonic::{FilterOrder, Microring, WdmCrosstalkAnalysis};
///
/// // COMET-4b: 256 wavelengths on one bus, demuxed by high-Q rings.
/// let ring = Microring::interface_demux();
/// let single = WdmCrosstalkAnalysis::new(ring, 256, FilterOrder::Single);
/// let double = WdmCrosstalkAnalysis::new(ring, 256, FilterOrder::Double);
/// // Second-order filtering suppresses the aggregate neighbour pickup:
/// assert!(double.total_crosstalk() < single.total_crosstalk() / 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WdmCrosstalkAnalysis {
    ring: Microring,
    channels: usize,
    order: FilterOrder,
}

impl WdmCrosstalkAnalysis {
    /// Analysis of `channels` equally spaced channels across one FSR,
    /// demuxed by filters of the given order.
    ///
    /// # Panics
    ///
    /// Panics if `channels < 2`.
    pub fn new(ring: Microring, channels: usize, order: FilterOrder) -> Self {
        assert!(channels >= 2, "a WDM bus needs at least two channels");
        WdmCrosstalkAnalysis {
            ring,
            channels,
            order,
        }
    }

    /// Channel spacing implied by packing the comb into one FSR.
    pub fn channel_spacing(&self) -> Length {
        Length::from_meters(self.ring.fsr().as_meters() / self.channels as f64)
    }

    /// Power fraction picked up from the `k`-th neighbour (`k >= 1`).
    pub fn neighbour_pickup(&self, k: usize) -> f64 {
        let delta = Length::from_meters(self.channel_spacing().as_meters() * k as f64);
        self.order.pickup(&self.ring, delta)
    }

    /// Total crosstalk power fraction the worst (mid-comb) channel
    /// accumulates from every other channel, assuming equal launch powers.
    pub fn total_crosstalk(&self) -> f64 {
        // Mid-comb channel: neighbours on both sides, up to half the comb
        // away (beyond that the adjacent FSR image takes over; the comb is
        // periodic so the half-comb sum double-counted x2 is exact).
        let half = self.channels / 2;
        let mut total = 0.0;
        for k in 1..=half {
            total += 2.0 * self.neighbour_pickup(k);
        }
        total
    }

    /// Total crosstalk expressed as suppression below the signal.
    pub fn crosstalk_suppression(&self) -> Decibels {
        Decibels::from_linear(self.total_crosstalk().max(1e-30))
    }

    /// Whether the accumulated crosstalk stays inside a level budget's
    /// *half-spacing* analog margin (crosstalk erodes the same margin that
    /// uncompensated loss does).
    pub fn within_budget(&self, budget: &LevelBudget) -> bool {
        self.total_crosstalk() < budget.fractional_tolerance
    }

    /// The maximum channel count (per FSR) whose accumulated crosstalk
    /// stays inside `budget`, for this ring and filter order.
    pub fn max_channels_within(ring: Microring, order: FilterOrder, budget: &LevelBudget) -> usize {
        let mut lo = 2usize;
        let mut hi = 4096usize;
        // The crosstalk grows monotonically with channel count (tighter
        // spacing and more aggressors), so binary search works.
        if !WdmCrosstalkAnalysis::new(ring, lo, order).within_budget(budget) {
            return 0;
        }
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if WdmCrosstalkAnalysis::new(ring, mid, order).within_budget(budget) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> Microring {
        Microring::comet_default()
    }

    #[test]
    fn double_ring_squares_the_skirt() {
        let r = ring();
        let delta = Length::from_nanometers(0.5);
        let single = FilterOrder::Single.pickup(&r, delta);
        let double = FilterOrder::Double.pickup(&r, delta);
        assert!((double - single * single).abs() < 1e-15);
        assert!(double < single);
        // On resonance both drop (essentially) everything.
        assert!(FilterOrder::Double.pickup(&r, Length::ZERO) > 0.99);
    }

    #[test]
    fn crosstalk_grows_with_channel_count() {
        let mut last = 0.0;
        for n in [16usize, 64, 128, 256] {
            let x = WdmCrosstalkAnalysis::new(ring(), n, FilterOrder::Single).total_crosstalk();
            assert!(x > last, "crosstalk at {n} channels should exceed {last}");
            last = x;
        }
    }

    #[test]
    fn double_ring_buys_channel_density() {
        let b4 = LevelBudget::for_bits(4);
        let single = WdmCrosstalkAnalysis::max_channels_within(ring(), FilterOrder::Single, &b4);
        let double = WdmCrosstalkAnalysis::max_channels_within(ring(), FilterOrder::Double, &b4);
        assert!(
            double > 2 * single,
            "second-order filtering should at least double density: {single} -> {double}"
        );
    }

    #[test]
    fn comet_256_channels_need_mitigation_at_b4() {
        // The paper's ongoing-work motivation, quantified. Even with the
        // high-Q passive demux rings the interface can afford, 256
        // channels per FSR with *first-order* drops accumulate more
        // crosstalk than the 4-bit margin; HYDRA-style double rings fix it.
        let demux = Microring::interface_demux();
        let b4 = LevelBudget::for_bits(4);
        let single = WdmCrosstalkAnalysis::new(demux, 256, FilterOrder::Single);
        let double = WdmCrosstalkAnalysis::new(demux, 256, FilterOrder::Double);
        assert!(
            !single.within_budget(&b4),
            "single-ring crosstalk {:.4} should exceed the 4-bit margin {:.4}",
            single.total_crosstalk(),
            b4.fractional_tolerance
        );
        assert!(
            double.within_budget(&b4),
            "double-ring crosstalk {:.6} should fit the 4-bit margin",
            double.total_crosstalk()
        );
        // And the array-side Q=8000 access rings cannot resolve the comb
        // at all at this density — the demux *must* be the high-Q bank.
        let access = WdmCrosstalkAnalysis::new(ring(), 256, FilterOrder::Double);
        assert!(!access.within_budget(&b4));
    }

    #[test]
    fn insertion_penalty_only_for_double() {
        let drop = Decibels::new(0.5);
        assert_eq!(FilterOrder::Single.insertion_penalty(drop), Decibels::ZERO);
        assert_eq!(FilterOrder::Double.insertion_penalty(drop), drop);
    }

    #[test]
    fn suppression_is_positive_db() {
        let a = WdmCrosstalkAnalysis::new(ring(), 64, FilterOrder::Double);
        assert!(a.crosstalk_suppression().value() > 0.0);
    }

    #[test]
    fn spacing_shrinks_with_channels() {
        let wide = WdmCrosstalkAnalysis::new(ring(), 16, FilterOrder::Single).channel_spacing();
        let tight = WdmCrosstalkAnalysis::new(ring(), 256, FilterOrder::Single).channel_spacing();
        assert!(wide > tight);
        assert!((wide.as_meters() / tight.as_meters() - 16.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_channel() {
        let _ = WdmCrosstalkAnalysis::new(ring(), 1, FilterOrder::Single);
    }
}
