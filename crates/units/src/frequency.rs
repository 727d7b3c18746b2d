//! Frequencies, stored internally in hertz.

use crate::{Length, SPEED_OF_LIGHT};
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// A frequency, stored in hertz.
///
/// Used both for optical carriers (≈193 THz in the C-band) and for memory
/// bus clocks (≈1 GHz).
///
/// # Examples
///
/// ```
/// use comet_units::{Frequency, Length};
///
/// let carrier = Frequency::from_wavelength(Length::from_nanometers(1550.0));
/// assert!((carrier.as_terahertz() - 193.4).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Frequency(f64);

impl Frequency {
    /// Creates a frequency from hertz.
    pub const fn from_hertz(hz: f64) -> Self {
        Frequency(hz)
    }

    /// Creates a frequency from megahertz.
    pub fn from_megahertz(mhz: f64) -> Self {
        Frequency(mhz * 1e6)
    }

    /// Creates a frequency from gigahertz.
    pub fn from_gigahertz(ghz: f64) -> Self {
        Frequency(ghz * 1e9)
    }

    /// Creates a frequency from terahertz.
    pub fn from_terahertz(thz: f64) -> Self {
        Frequency(thz * 1e12)
    }

    /// The optical carrier frequency of a vacuum wavelength.
    ///
    /// # Panics
    ///
    /// Panics if the wavelength is not strictly positive.
    pub fn from_wavelength(lambda: Length) -> Self {
        assert!(lambda.as_meters() > 0.0, "wavelength must be positive");
        Frequency(SPEED_OF_LIGHT / lambda.as_meters())
    }

    /// Frequency in hertz.
    pub const fn as_hertz(self) -> f64 {
        self.0
    }

    /// Frequency in gigahertz.
    pub fn as_gigahertz(self) -> f64 {
        self.0 * 1e-9
    }

    /// Frequency in terahertz.
    pub fn as_terahertz(self) -> f64 {
        self.0 * 1e-12
    }

    /// The vacuum wavelength of this optical frequency.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is not strictly positive.
    pub fn wavelength(self) -> Length {
        assert!(self.0 > 0.0, "frequency must be positive");
        Length::from_meters(SPEED_OF_LIGHT / self.0)
    }

    /// The period of one cycle in seconds.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is not strictly positive.
    pub fn period(self) -> crate::Time {
        assert!(self.0 > 0.0, "frequency must be positive");
        crate::Time::from_seconds(1.0 / self.0)
    }
}

impl Add for Frequency {
    type Output = Frequency;
    fn add(self, rhs: Frequency) -> Frequency {
        Frequency(self.0 + rhs.0)
    }
}

impl Sub for Frequency {
    type Output = Frequency;
    fn sub(self, rhs: Frequency) -> Frequency {
        Frequency(self.0 - rhs.0)
    }
}

impl Mul<f64> for Frequency {
    type Output = Frequency;
    fn mul(self, rhs: f64) -> Frequency {
        Frequency(self.0 * rhs)
    }
}

impl Div<f64> for Frequency {
    type Output = Frequency;
    fn div(self, rhs: f64) -> Frequency {
        Frequency(self.0 / rhs)
    }
}

impl Div<Frequency> for Frequency {
    type Output = f64;
    fn div(self, rhs: Frequency) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hz = self.0;
        if hz >= 1e12 {
            write!(f, "{:.3} THz", hz * 1e-12)
        } else if hz >= 1e9 {
            write!(f, "{:.3} GHz", hz * 1e-9)
        } else if hz >= 1e6 {
            write!(f, "{:.3} MHz", hz * 1e-6)
        } else {
            write!(f, "{hz:.3} Hz")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c_band_carrier() {
        let f = Frequency::from_wavelength(Length::from_nanometers(1530.0));
        assert!(f.as_terahertz() > 195.0 && f.as_terahertz() < 196.5);
    }

    #[test]
    fn period_of_bus_clock() {
        let ddr3 = Frequency::from_megahertz(800.0);
        assert!((ddr3.period().as_nanos() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn display() {
        assert_eq!(
            format!("{}", Frequency::from_terahertz(193.0)),
            "193.000 THz"
        );
        assert_eq!(format!("{}", Frequency::from_gigahertz(1.2)), "1.200 GHz");
    }
}
