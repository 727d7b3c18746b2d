//! WDM × MDM photonic links.
//!
//! COMET multiplexes accesses two ways (Section III.C): each memory-array
//! column owns a WDM wavelength, and the `B = 4` banks are accessed in
//! parallel over 4 spatial modes (MDM). Higher-order modes confine less and
//! leak more, so the per-mode loss penalty grows with mode order — the
//! reason the paper caps the MDM degree at 4 (StarLight [28] demonstrated
//! 4 modes without notable loss).

use comet_units::{DataRate, Decibels, Frequency};

/// Per-mode extra loss for MDM links.
///
/// Mode 0 (fundamental) is free; each higher mode adds progressively more
/// leakage loss. Quadratic growth models the rapidly decreasing confinement
/// of higher-order modes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModePenalty {
    /// Loss added for mode 1 (dB); higher modes scale quadratically.
    pub base: Decibels,
}

impl ModePenalty {
    /// Penalty calibrated so 4 modes remain "without notable losses" (< 1 dB
    /// worst mode) while 16 modes (COSMOS's implicit requirement) would be
    /// impractical.
    pub fn starlight() -> Self {
        ModePenalty {
            base: Decibels::new(0.1),
        }
    }

    /// Extra loss of mode index `mode` (0-based).
    pub fn loss_for_mode(&self, mode: usize) -> Decibels {
        self.base * (mode * mode) as f64
    }

    /// The worst-mode loss for an MDM degree.
    pub fn worst_mode_loss(&self, degree: usize) -> Decibels {
        if degree == 0 {
            Decibels::ZERO
        } else {
            self.loss_for_mode(degree - 1)
        }
    }
}

impl Default for ModePenalty {
    fn default() -> Self {
        Self::starlight()
    }
}

/// A wavelength- and mode-division multiplexed link.
///
/// # Examples
///
/// ```
/// use comet_units::Frequency;
/// use photonic::WdmMdmLink;
///
/// // COMET-4b: 256 wavelengths x 4 modes at 1 GHz modulation.
/// let link = WdmMdmLink::new(256, 4, Frequency::from_gigahertz(1.0));
/// assert_eq!(link.parallel_channels(), 1024);
/// // 1024 bit-channels at 1 Gb/s = 128 GB/s raw.
/// assert!((link.raw_bandwidth().as_gigabytes_per_second() - 128.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WdmMdmLink {
    /// Number of WDM wavelengths.
    pub wavelengths: usize,
    /// MDM degree (number of spatial modes).
    pub modes: usize,
    /// Per-channel modulation rate (1 bit per symbol assumed).
    pub modulation: Frequency,
    /// Mode-order loss penalty model.
    pub mode_penalty: ModePenalty,
}

impl WdmMdmLink {
    /// Creates a link with the default (StarLight-calibrated) mode penalty.
    ///
    /// # Panics
    ///
    /// Panics if `wavelengths` or `modes` is zero.
    pub fn new(wavelengths: usize, modes: usize, modulation: Frequency) -> Self {
        assert!(wavelengths > 0, "need at least one wavelength");
        assert!(modes > 0, "need at least one mode");
        WdmMdmLink {
            wavelengths,
            modes,
            modulation,
            mode_penalty: ModePenalty::default(),
        }
    }

    /// Total independent bit-channels (`wavelengths × modes`).
    pub fn parallel_channels(&self) -> usize {
        self.wavelengths * self.modes
    }

    /// Raw aggregate bandwidth: channels × modulation rate, in bytes/s.
    pub fn raw_bandwidth(&self) -> DataRate {
        let bits_per_second = self.parallel_channels() as f64 * self.modulation.as_hertz();
        DataRate::from_bytes_per_second(bits_per_second / 8.0)
    }

    /// Worst-case extra loss among the spatial modes.
    pub fn worst_mode_loss(&self) -> Decibels {
        self.mode_penalty.worst_mode_loss(self.modes)
    }

    /// Whether this MDM degree is practical by the paper's criterion
    /// (≤ 4 modes; beyond that losses and waveguide width grow quickly).
    pub fn is_practical_mdm(&self) -> bool {
        self.modes <= 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_math() {
        let link = WdmMdmLink::new(512, 2, Frequency::from_gigahertz(2.0));
        assert_eq!(link.parallel_channels(), 1024);
        assert!((link.raw_bandwidth().as_gigabits_per_second() - 2048.0).abs() < 1e-6);
    }

    #[test]
    fn four_modes_is_cheap_sixteen_is_not() {
        // The paper's MDM argument: degree 4 is nearly free, degree 16
        // (what COSMOS's 16 banks would need) is very lossy.
        let p = ModePenalty::starlight();
        assert!(p.worst_mode_loss(4).value() < 1.0);
        assert!(p.worst_mode_loss(16).value() > 10.0);
    }

    #[test]
    fn mode_penalty_grows_monotonically() {
        let p = ModePenalty::starlight();
        let mut last = Decibels::new(-1.0);
        for m in 0..8 {
            let l = p.loss_for_mode(m);
            assert!(l > last);
            last = l;
        }
    }

    #[test]
    fn practicality_check() {
        let f = Frequency::from_gigahertz(1.0);
        assert!(WdmMdmLink::new(256, 4, f).is_practical_mdm());
        assert!(!WdmMdmLink::new(256, 16, f).is_practical_mdm());
    }

    #[test]
    #[should_panic(expected = "at least one wavelength")]
    fn zero_wavelengths_rejected() {
        let _ = WdmMdmLink::new(0, 4, Frequency::from_gigahertz(1.0));
    }
}
