//! Energy, stored internally in joules.

use crate::{BitCount, EnergyPerBit, Power, Time};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An energy, stored in joules.
///
/// # Examples
///
/// ```
/// use comet_units::{Energy, Time};
///
/// let reset = Energy::from_picojoules(880.0);
/// let avg_power = reset / Time::from_nanos(210.0);
/// assert!((avg_power.as_milliwatts() - 4.19).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from joules.
    pub const fn from_joules(j: f64) -> Self {
        Energy(j)
    }

    /// Creates an energy from nanojoules.
    pub fn from_nanojoules(nj: f64) -> Self {
        Energy(nj * 1e-9)
    }

    /// Creates an energy from picojoules.
    pub fn from_picojoules(pj: f64) -> Self {
        Energy(pj * 1e-12)
    }

    /// Energy in joules.
    pub const fn as_joules(self) -> f64 {
        self.0
    }

    /// Energy in nanojoules.
    pub fn as_nanojoules(self) -> f64 {
        self.0 * 1e9
    }

    /// Energy in picojoules.
    pub fn as_picojoules(self) -> f64 {
        self.0 * 1e12
    }

    /// Returns the larger of two energies.
    pub fn max(self, other: Energy) -> Energy {
        Energy(self.0.max(other.0))
    }

    /// Returns the smaller of two energies.
    pub fn min(self, other: Energy) -> Energy {
        Energy(self.0.min(other.0))
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Mul<Energy> for f64 {
    type Output = Energy;
    fn mul(self, rhs: Energy) -> Energy {
        Energy(self * rhs.0)
    }
}

impl Div<f64> for Energy {
    type Output = Energy;
    fn div(self, rhs: f64) -> Energy {
        Energy(self.0 / rhs)
    }
}

impl Div<Energy> for Energy {
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}

impl Div<Time> for Energy {
    type Output = Power;
    fn div(self, rhs: Time) -> Power {
        Power::from_watts(self.0 / rhs.as_seconds())
    }
}

impl Div<BitCount> for Energy {
    type Output = EnergyPerBit;
    fn div(self, rhs: BitCount) -> EnergyPerBit {
        EnergyPerBit::from_joules_per_bit(self.0 / rhs.value() as f64)
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let j = self.0;
        if j.abs() >= 1.0 {
            write!(f, "{j:.3} J")
        } else if j.abs() >= 1e-9 {
            write!(f, "{:.3} nJ", j * 1e9)
        } else {
            write!(f, "{:.3} pJ", j * 1e12)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let e = Energy::from_picojoules(880.0);
        assert!((e.as_nanojoules() - 0.88).abs() < 1e-12);
        assert!((e.as_joules() - 8.8e-10).abs() < 1e-22);
    }

    #[test]
    fn energy_over_time_is_power() {
        let p = Energy::from_picojoules(750.0) / Time::from_nanos(150.0);
        assert!((p.as_milliwatts() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn energy_accumulates() {
        let mut total = Energy::ZERO;
        for _ in 0..4 {
            total += Energy::from_picojoules(280.0);
        }
        assert!((total.as_picojoules() - 1120.0).abs() < 1e-9);
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", Energy::from_joules(1.5)), "1.500 J");
        assert_eq!(format!("{}", Energy::from_nanojoules(2.0)), "2.000 nJ");
        assert_eq!(format!("{}", Energy::from_picojoules(3.0)), "3.000 pJ");
    }
}
