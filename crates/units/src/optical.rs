//! Logarithmic optical quantities: [`Decibels`], [`DecibelMilliwatts`] and
//! linear [`Transmittance`].

use crate::Power;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A relative power ratio expressed in decibels.
///
/// Positive values denote loss *or* gain depending on context; the
/// higher-level APIs in the `photonic` crate always document which. Adding
/// two `Decibels` corresponds to cascading two elements.
///
/// # Examples
///
/// ```
/// use comet_units::Decibels;
///
/// let total = Decibels::new(0.5) + Decibels::new(1.0);
/// assert_eq!(total.value(), 1.5);
/// assert!((Decibels::from_linear(0.5).value() - 3.0103).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Decibels(f64);

impl Decibels {
    /// Zero decibels: a unity (lossless, gainless) ratio.
    pub const ZERO: Decibels = Decibels(0.0);

    /// Creates a value from a raw decibel figure.
    pub const fn new(db: f64) -> Self {
        Decibels(db)
    }

    /// Converts a linear power ratio (e.g. transmittance) to decibels.
    ///
    /// A ratio of 1.0 maps to 0 dB; 0.5 maps to ≈3.01 dB. Ratios are
    /// interpreted as *loss*: `from_linear(0.5)` is a positive 3 dB loss.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not strictly positive.
    pub fn from_linear(ratio: f64) -> Self {
        assert!(
            ratio > 0.0,
            "linear power ratio must be positive, got {ratio}"
        );
        Decibels(-10.0 * ratio.log10())
    }

    /// Raw decibel figure.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The linear power ratio this loss corresponds to (`10^(-dB/10)`).
    ///
    /// A 3.01 dB loss returns ≈0.5.
    pub fn to_linear(self) -> f64 {
        10f64.powf(-self.0 / 10.0)
    }

    /// The linear power ratio interpreting the figure as *gain*
    /// (`10^(+dB/10)`). A 3.01 dB gain returns ≈2.0.
    pub fn to_linear_gain(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Returns the larger of two figures.
    pub fn max(self, other: Decibels) -> Decibels {
        Decibels(self.0.max(other.0))
    }

    /// Returns the smaller of two figures.
    pub fn min(self, other: Decibels) -> Decibels {
        Decibels(self.0.min(other.0))
    }
}

impl Add for Decibels {
    type Output = Decibels;
    fn add(self, rhs: Decibels) -> Decibels {
        Decibels(self.0 + rhs.0)
    }
}

impl AddAssign for Decibels {
    fn add_assign(&mut self, rhs: Decibels) {
        self.0 += rhs.0;
    }
}

impl Sub for Decibels {
    type Output = Decibels;
    fn sub(self, rhs: Decibels) -> Decibels {
        Decibels(self.0 - rhs.0)
    }
}

impl SubAssign for Decibels {
    fn sub_assign(&mut self, rhs: Decibels) {
        self.0 -= rhs.0;
    }
}

impl Neg for Decibels {
    type Output = Decibels;
    fn neg(self) -> Decibels {
        Decibels(-self.0)
    }
}

impl Mul<f64> for Decibels {
    type Output = Decibels;
    fn mul(self, rhs: f64) -> Decibels {
        Decibels(self.0 * rhs)
    }
}

impl Mul<Decibels> for f64 {
    type Output = Decibels;
    fn mul(self, rhs: Decibels) -> Decibels {
        Decibels(self * rhs.0)
    }
}

impl Div<f64> for Decibels {
    type Output = Decibels;
    fn div(self, rhs: f64) -> Decibels {
        Decibels(self.0 / rhs)
    }
}

impl Sum for Decibels {
    fn sum<I: Iterator<Item = Decibels>>(iter: I) -> Decibels {
        iter.fold(Decibels::ZERO, Add::add)
    }
}

impl fmt::Display for Decibels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} dB", self.0)
    }
}

/// An absolute optical power level referenced to 1 mW, in dBm.
///
/// # Examples
///
/// ```
/// use comet_units::{DecibelMilliwatts, Power};
///
/// let p = DecibelMilliwatts::new(0.0);
/// assert!((p.to_power().as_milliwatts() - 1.0).abs() < 1e-12);
/// let q = Power::from_milliwatts(100.0).to_dbm();
/// assert!((q.value() - 20.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct DecibelMilliwatts(f64);

impl DecibelMilliwatts {
    /// Creates a level from a raw dBm figure.
    pub const fn new(dbm: f64) -> Self {
        DecibelMilliwatts(dbm)
    }

    /// Raw dBm figure.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to an absolute [`Power`].
    pub fn to_power(self) -> Power {
        Power::from_milliwatts(10f64.powf(self.0 / 10.0))
    }

    /// The level after applying a loss.
    pub fn attenuate(self, loss: Decibels) -> DecibelMilliwatts {
        DecibelMilliwatts(self.0 - loss.value())
    }

    /// The level after applying a gain.
    pub fn amplify(self, gain: Decibels) -> DecibelMilliwatts {
        DecibelMilliwatts(self.0 + gain.value())
    }
}

impl fmt::Display for DecibelMilliwatts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} dBm", self.0)
    }
}

/// A linear optical power transmission ratio in `[0, 1]`.
///
/// Used for OPCM cell read-out levels, where the *difference* between
/// adjacent level transmittances determines the noise margin.
///
/// # Examples
///
/// ```
/// use comet_units::Transmittance;
///
/// let t = Transmittance::new(0.90);
/// assert!((t.cascade(Transmittance::new(0.5)).value() - 0.45).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Transmittance(f64);

impl Transmittance {
    /// Fully transparent (ratio 1.0).
    pub const UNITY: Transmittance = Transmittance(1.0);
    /// Fully opaque (ratio 0.0).
    pub const OPAQUE: Transmittance = Transmittance(0.0);

    /// Creates a transmittance, clamping into `[0, 1]`.
    pub fn new(ratio: f64) -> Self {
        Transmittance(ratio.clamp(0.0, 1.0))
    }

    /// The linear ratio.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Transmission through this element followed by another.
    pub fn cascade(self, other: Transmittance) -> Transmittance {
        Transmittance(self.0 * other.0)
    }

    /// Equivalent loss in decibels.
    ///
    /// Returns a very large loss (300 dB) for a fully opaque element rather
    /// than infinity so downstream budget arithmetic stays finite.
    pub fn to_decibels(self) -> Decibels {
        if self.0 <= 1e-30 {
            Decibels::new(300.0)
        } else {
            Decibels::from_linear(self.0)
        }
    }
}

impl Default for Transmittance {
    fn default() -> Self {
        Transmittance::UNITY
    }
}

impl Mul for Transmittance {
    type Output = Transmittance;
    fn mul(self, rhs: Transmittance) -> Transmittance {
        self.cascade(rhs)
    }
}

impl fmt::Display for Transmittance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_linear_roundtrip() {
        for ratio in [1.0, 0.5, 0.1, 0.9999, 1e-6] {
            let db = Decibels::from_linear(ratio);
            assert!((db.to_linear() - ratio).abs() < 1e-12, "ratio {ratio}");
        }
    }

    #[test]
    fn db_gain_is_reciprocal_of_loss() {
        let db = Decibels::new(7.3);
        assert!((db.to_linear() * db.to_linear_gain() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cascaded_losses_add() {
        let a = Decibels::from_linear(0.5);
        let b = Decibels::from_linear(0.25);
        let sum = a + b;
        assert!((sum.to_linear() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn dbm_attenuate_then_amplify_is_identity() {
        let p = DecibelMilliwatts::new(3.0);
        let q = p.attenuate(Decibels::new(5.0)).amplify(Decibels::new(5.0));
        assert!((p.value() - q.value()).abs() < 1e-12);
    }

    #[test]
    fn transmittance_clamps() {
        assert_eq!(Transmittance::new(1.7).value(), 1.0);
        assert_eq!(Transmittance::new(-0.2).value(), 0.0);
    }

    #[test]
    fn opaque_transmittance_has_finite_loss() {
        let db = Transmittance::OPAQUE.to_decibels();
        assert!(db.value().is_finite());
        assert!(db.value() >= 300.0 - 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn from_linear_rejects_zero() {
        let _ = Decibels::from_linear(0.0);
    }

    #[test]
    fn sum_of_decibels() {
        let total: Decibels = [0.5, 1.0, 0.25].iter().map(|&d| Decibels::new(d)).sum();
        assert!((total.value() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Decibels::new(1.5)), "1.500 dB");
        assert_eq!(format!("{}", DecibelMilliwatts::new(-2.0)), "-2.000 dBm");
        assert_eq!(format!("{}", Transmittance::new(0.72)), "0.7200");
    }
}
