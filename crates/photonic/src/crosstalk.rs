//! Crosstalk and thermo-optic disturb models.
//!
//! Two distinct crosstalk mechanisms matter in OPCM memories:
//!
//! 1. **Spectral crosstalk** between WDM channels through imperfect ring
//!    filters — modeled in [`crate::Microring`].
//! 2. **Spatial crosstalk** in crossbar arrays (the COSMOS design, paper
//!    Fig. 1): a write pulse on one row leaks ≈ −18 dB into adjacent rows'
//!    cells. The leaked energy heats the neighbour's GST through the
//!    thermo-optic effect and shifts its crystalline fraction — enough, at
//!    multi-bit level spacings, to corrupt stored data (paper Fig. 2).
//!
//! COMET's MR-gated isolated cells eliminate mechanism 2 by construction;
//! the model here is what the `cosmos` crate uses to reproduce the failure.

use comet_units::{Decibels, Energy};

/// Crossbar write-crosstalk parameters.
///
/// # Examples
///
/// ```
/// use comet_units::Energy;
/// use photonic::CrossbarCrosstalk;
///
/// let xt = CrossbarCrosstalk::cosmos();
/// // A 750 pJ write leaks ~11.9 pJ into each adjacent cell:
/// let leaked = xt.leaked_energy(Energy::from_picojoules(750.0));
/// assert!((leaked.as_picojoules() - 11.9).abs() < 0.5);
/// // ...which shifts the neighbour's crystalline fraction by ~8%:
/// let shift = xt.fraction_shift(Energy::from_picojoules(750.0));
/// assert!((shift - 0.08).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarCrosstalk {
    /// Coupling from an aggressor write into an adjacent victim cell.
    /// The paper measures ≈ −18 dB at the COSMOS crossbar (Fig. 1(b)).
    pub coupling: Decibels,
    /// Crystalline-fraction shift per joule of leaked energy absorbed by a
    /// victim cell. Calibrated from the paper: 12.6 pJ of extraneous energy
    /// triggers an 8 % refractive-index/fraction change.
    pub fraction_shift_per_joule: f64,
}

impl CrossbarCrosstalk {
    /// The paper's COSMOS crossbar numbers: −18 dB coupling; 8 % shift per
    /// ~12.6 pJ leaked.
    pub fn cosmos() -> Self {
        CrossbarCrosstalk {
            coupling: Decibels::new(18.0),
            fraction_shift_per_joule: 0.08 / 12.6e-12,
        }
    }

    /// Energy leaked into one adjacent cell by an aggressor write of
    /// `write_energy`.
    pub fn leaked_energy(&self, write_energy: Energy) -> Energy {
        write_energy * self.coupling.to_linear()
    }

    /// Crystalline-fraction shift induced in an adjacent victim by an
    /// aggressor write of `write_energy`.
    pub fn fraction_shift(&self, write_energy: Energy) -> f64 {
        self.leaked_energy(write_energy).as_joules() * self.fraction_shift_per_joule
    }

    /// Number of adjacent-row writes before a victim cell's accumulated
    /// fraction shift exceeds half a level spacing (the decode margin) for
    /// a cell storing `levels` equally spaced states over `fraction_span`
    /// of crystalline fraction.
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2` or `fraction_span` is not in `(0, 1]`.
    pub fn writes_to_corruption(
        &self,
        write_energy: Energy,
        levels: u16,
        fraction_span: f64,
    ) -> u32 {
        assert!(levels >= 2, "need at least two levels");
        assert!(
            fraction_span > 0.0 && fraction_span <= 1.0,
            "fraction span must be in (0,1]"
        );
        let level_spacing = fraction_span / (levels - 1) as f64;
        let margin = level_spacing / 2.0;
        let per_write = self.fraction_shift(write_energy);
        if per_write <= 0.0 {
            return u32::MAX;
        }
        (margin / per_write).ceil().max(1.0) as u32
    }
}

impl Default for CrossbarCrosstalk {
    fn default() -> Self {
        Self::cosmos()
    }
}

/// An isolated (MR-gated) cell's crosstalk: zero by construction.
///
/// COMET's cells only see light when their row MRs are tuned into
/// resonance; adjacent writes cannot reach them. This type exists so
/// architecture code can be generic over the disturb model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IsolatedCell;

impl IsolatedCell {
    /// Leaked energy is always zero.
    pub fn leaked_energy(&self, _write_energy: Energy) -> Energy {
        Energy::ZERO
    }

    /// Fraction shift is always zero.
    pub fn fraction_shift(&self, _write_energy: Energy) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minus_18_db_leak() {
        let xt = CrossbarCrosstalk::cosmos();
        let leaked = xt.leaked_energy(Energy::from_picojoules(750.0));
        // 750 pJ * 10^(-1.8) = 11.88 pJ.
        assert!((leaked.as_picojoules() - 11.88).abs() < 0.05);
    }

    #[test]
    fn paper_anchor_8_percent_shift() {
        let xt = CrossbarCrosstalk::cosmos();
        let shift = xt.fraction_shift(Energy::from_picojoules(750.0));
        assert!((shift - 0.0754).abs() < 0.01, "shift {shift}");
    }

    #[test]
    fn four_bit_cells_corrupt_within_a_few_writes() {
        // 16 levels over ~0.9 fraction span: margin = 0.9/15/2 = 3%.
        // At ~7.5% shift per write, a single adjacent write corrupts.
        let xt = CrossbarCrosstalk::cosmos();
        let n = xt.writes_to_corruption(Energy::from_picojoules(750.0), 16, 0.9);
        assert_eq!(n, 1, "4-bit crossbar cells corrupt after {n} writes");
    }

    #[test]
    fn two_bit_cells_with_9_percent_spacing_tolerate_more() {
        // The corrected COSMOS: 4 levels spaced by 9% transmission
        // (fraction span ~0.27 over 4 levels -> 4.5% margin).
        let xt = CrossbarCrosstalk::cosmos();
        let n4 = xt.writes_to_corruption(Energy::from_picojoules(750.0), 16, 0.9);
        let n2 = xt.writes_to_corruption(Energy::from_picojoules(750.0), 4, 0.9);
        assert!(n2 > n4, "fewer levels should tolerate more writes");
    }

    #[test]
    fn isolated_cell_never_shifts() {
        let iso = IsolatedCell;
        assert_eq!(iso.fraction_shift(Energy::from_picojoules(750.0)), 0.0);
        assert_eq!(
            iso.leaked_energy(Energy::from_picojoules(750.0)),
            Energy::ZERO
        );
    }

    #[test]
    fn weaker_coupling_tolerates_more_writes() {
        let strong = CrossbarCrosstalk::cosmos();
        let weak = CrossbarCrosstalk {
            coupling: Decibels::new(30.0),
            ..strong
        };
        let e = Energy::from_picojoules(750.0);
        assert!(weak.writes_to_corruption(e, 16, 0.9) > strong.writes_to_corruption(e, 16, 0.9));
    }
}
