//! Temperatures, stored internally in kelvin.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A temperature, stored in kelvin.
///
/// The thermal solver needs absolute temperatures (phase-transition
/// thresholds are material constants in kelvin) but the paper quotes
/// Celsius-style melting points, so both constructors exist.
///
/// # Examples
///
/// ```
/// use comet_units::Temperature;
///
/// let melt = Temperature::from_celsius(600.0); // GST melting point ~873 K
/// assert!((melt.as_kelvin() - 873.15).abs() < 1e-9);
/// assert!(melt > Temperature::from_celsius(150.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Temperature(f64);

impl Temperature {
    /// Absolute zero.
    pub const ZERO: Temperature = Temperature(0.0);

    /// Standard ambient temperature (300 K).
    pub const AMBIENT: Temperature = Temperature(300.0);

    /// Creates a temperature from kelvin.
    pub const fn from_kelvin(k: f64) -> Self {
        Temperature(k)
    }

    /// Creates a temperature from degrees Celsius.
    pub fn from_celsius(c: f64) -> Self {
        Temperature(c + 273.15)
    }

    /// Temperature in kelvin.
    pub const fn as_kelvin(self) -> f64 {
        self.0
    }

    /// Temperature in degrees Celsius.
    pub fn as_celsius(self) -> f64 {
        self.0 - 273.15
    }

    /// Returns the larger of two temperatures.
    pub fn max(self, other: Temperature) -> Temperature {
        Temperature(self.0.max(other.0))
    }

    /// Returns the smaller of two temperatures.
    pub fn min(self, other: Temperature) -> Temperature {
        Temperature(self.0.min(other.0))
    }
}

/// A temperature *difference* in kelvin (identical scale to Celsius deltas).
///
/// Kept distinct from [`Temperature`] so "add 50 K of heating" cannot be
/// confused with "the temperature is 50 K".
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct TemperatureDelta(pub f64);

impl Add<TemperatureDelta> for Temperature {
    type Output = Temperature;
    fn add(self, rhs: TemperatureDelta) -> Temperature {
        Temperature(self.0 + rhs.0)
    }
}

impl AddAssign<TemperatureDelta> for Temperature {
    fn add_assign(&mut self, rhs: TemperatureDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<TemperatureDelta> for Temperature {
    type Output = Temperature;
    fn sub(self, rhs: TemperatureDelta) -> Temperature {
        Temperature(self.0 - rhs.0)
    }
}

impl SubAssign<TemperatureDelta> for Temperature {
    fn sub_assign(&mut self, rhs: TemperatureDelta) {
        self.0 -= rhs.0;
    }
}

impl Sub for Temperature {
    type Output = TemperatureDelta;
    fn sub(self, rhs: Temperature) -> TemperatureDelta {
        TemperatureDelta(self.0 - rhs.0)
    }
}

impl Mul<f64> for TemperatureDelta {
    type Output = TemperatureDelta;
    fn mul(self, rhs: f64) -> TemperatureDelta {
        TemperatureDelta(self.0 * rhs)
    }
}

impl Div<f64> for TemperatureDelta {
    type Output = TemperatureDelta;
    fn div(self, rhs: f64) -> TemperatureDelta {
        TemperatureDelta(self.0 / rhs)
    }
}

impl fmt::Display for Temperature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} K", self.0)
    }
}

impl fmt::Display for TemperatureDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.2} K", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn celsius_kelvin() {
        let t = Temperature::from_celsius(0.0);
        assert!((t.as_kelvin() - 273.15).abs() < 1e-12);
        assert!((Temperature::from_kelvin(300.0).as_celsius() - 26.85).abs() < 1e-9);
    }

    #[test]
    fn deltas() {
        let a = Temperature::from_kelvin(900.0);
        let b = Temperature::from_kelvin(300.0);
        let d = a - b;
        assert!((d.0 - 600.0).abs() < 1e-12);
        let c = b + d;
        assert!((c.as_kelvin() - 900.0).abs() < 1e-12);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Temperature::from_kelvin(873.0)), "873.00 K");
        assert_eq!(format!("{}", TemperatureDelta(12.5)), "+12.50 K");
    }
}
