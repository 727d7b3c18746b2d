//! Microring resonator spectral model.
//!
//! The OPCM memory cell (paper Fig. 5(b)) gates access to the GST patch with
//! a pair of 6 µm-radius microrings tuned electro-optically in ≈2 ns. This
//! module models the ring's Lorentzian spectral response, its free spectral
//! range (which bounds how many WDM channels one bus can carry), and the
//! inter-channel crosstalk floor that limits channel spacing.

use crate::elements::MrTuning;
use comet_units::{Decibels, Length};

/// A microring resonator used as a wavelength-selective switch/filter.
///
/// # Examples
///
/// ```
/// use comet_units::Length;
/// use photonic::{Microring, MrTuning};
///
/// let mr = Microring::comet_default();
/// // On resonance, the drop port takes (nearly) everything:
/// let on = mr.drop_fraction(Length::from_nanometers(0.0));
/// assert!(on > 0.99);
/// // One channel spacing (FSR/16) away, almost nothing couples:
/// let off = mr.drop_fraction(Length::from_nanometers(mr.fsr().as_nanometers() / 16.0));
/// assert!(off < 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Microring {
    /// Ring radius.
    pub radius: Length,
    /// Loaded quality factor.
    pub q_factor: f64,
    /// Group index of the ring waveguide mode.
    pub group_index: f64,
    /// Resonance wavelength when untuned.
    pub resonance: Length,
    /// Tuning mechanism (sets access latency and drop/through losses).
    pub tuning: MrTuning,
}

impl Microring {
    /// The paper's access MR: 6 µm radius (Poon et al. \[36]), EO-tuned,
    /// Q ≈ 8000 (moderate, for ~0.2 nm linewidth channel selection).
    pub fn comet_default() -> Self {
        Microring {
            radius: Length::from_micrometers(6.0),
            q_factor: 8000.0,
            group_index: 4.2,
            resonance: Length::from_nanometers(1550.0),
            tuning: MrTuning::ElectroOptic,
        }
    }

    /// A passive high-Q demux ring for the electrical interface's MR bank
    /// (paper Section III.D: received data "is demodulated using an MR
    /// bank"). Passive rings need no fast tuning, so a much narrower
    /// linewidth (Q ≈ 40 000, ~0.04 nm FWHM) is practical — necessary to
    /// resolve the 256-channel comb COMET-4b packs into one FSR.
    pub fn interface_demux() -> Self {
        Microring {
            radius: Length::from_micrometers(6.0),
            q_factor: 40_000.0,
            group_index: 4.2,
            resonance: Length::from_nanometers(1550.0),
            tuning: MrTuning::Thermal,
        }
    }

    /// Free spectral range `FSR = λ² / (2πR·n_g)`.
    pub fn fsr(&self) -> Length {
        let lambda = self.resonance.as_meters();
        let circumference = 2.0 * std::f64::consts::PI * self.radius.as_meters();
        Length::from_meters(lambda * lambda / (circumference * self.group_index))
    }

    /// Full width at half maximum of the resonance: `λ/Q`.
    pub fn fwhm(&self) -> Length {
        Length::from_meters(self.resonance.as_meters() / self.q_factor)
    }

    /// Finesse `FSR / FWHM` — an upper bound on cleanly separable WDM
    /// channels per bus.
    pub fn finesse(&self) -> f64 {
        self.fsr() / self.fwhm()
    }

    /// Fraction of power coupled to the drop port at detuning `delta`
    /// from resonance (Lorentzian line shape).
    pub fn drop_fraction(&self, delta: Length) -> f64 {
        let half_width = self.fwhm().as_meters() / 2.0;
        let d = delta.as_meters();
        (half_width * half_width) / (d * d + half_width * half_width)
    }

    /// Fraction of power continuing on the through port at detuning
    /// `delta` (complement of the drop fraction, lossless-ring idealization;
    /// insertion losses are accounted separately via Table I).
    pub fn through_fraction(&self, delta: Length) -> f64 {
        1.0 - self.drop_fraction(delta)
    }

    /// Crosstalk (in dB below the intended signal) that a channel spaced
    /// `spacing` away suffers from this ring's drop port.
    pub fn adjacent_channel_crosstalk(&self, spacing: Length) -> Decibels {
        let leak = self.drop_fraction(spacing).max(1e-30);
        Decibels::from_linear(leak)
    }

    /// The maximum number of WDM channels on one bus such that
    /// adjacent-channel crosstalk stays below `floor` (e.g. −20 dB ⇒
    /// `Decibels::new(20.0)`).
    pub fn max_wdm_channels(&self, floor: Decibels) -> usize {
        let fsr = self.fsr().as_meters();
        let mut channels = 2usize;
        loop {
            let spacing = Length::from_meters(fsr / channels as f64);
            if self.adjacent_channel_crosstalk(spacing).value() < floor.value() {
                return (channels - 1).max(1);
            }
            channels += 1;
            if channels > 4096 {
                return 4096;
            }
        }
    }

    /// Access latency implied by the tuning mechanism.
    pub fn access_latency(&self) -> comet_units::Time {
        self.tuning.latency()
    }
}

impl Default for Microring {
    fn default() -> Self {
        Self::comet_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mr() -> Microring {
        Microring::comet_default()
    }

    #[test]
    fn fsr_for_6um_ring() {
        // FSR = 1.55e-6^2 / (2*pi*6e-6*4.2) ~ 15.2 nm.
        let fsr = mr().fsr().as_nanometers();
        assert!((14.0..=16.5).contains(&fsr), "FSR = {fsr} nm");
    }

    #[test]
    fn lorentzian_halves_at_half_width() {
        let m = mr();
        let hw = Length::from_meters(m.fwhm().as_meters() / 2.0);
        let d = m.drop_fraction(hw);
        assert!((d - 0.5).abs() < 1e-9);
    }

    #[test]
    fn drop_plus_through_is_unity() {
        let m = mr();
        for frac in [0.0, 0.1, 0.5, 2.0] {
            let delta = Length::from_nanometers(m.fwhm().as_nanometers() * frac);
            let sum = m.drop_fraction(delta) + m.through_fraction(delta);
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn crosstalk_falls_with_spacing() {
        let m = mr();
        let near = m.adjacent_channel_crosstalk(Length::from_nanometers(0.1));
        let far = m.adjacent_channel_crosstalk(Length::from_nanometers(1.0));
        assert!(far.value() > near.value(), "more spacing = more isolation");
        assert!(far.value() > 20.0, "1 nm spacing should be well isolated");
    }

    #[test]
    fn channel_count_monotone_in_floor() {
        let m = mr();
        let strict = m.max_wdm_channels(Decibels::new(30.0));
        let loose = m.max_wdm_channels(Decibels::new(15.0));
        assert!(loose >= strict);
        assert!(strict >= 1);
    }

    #[test]
    fn eo_access_is_nanoseconds() {
        assert!(mr().access_latency().as_nanos() <= 5.0);
        let thermal = Microring {
            tuning: MrTuning::Thermal,
            ..mr()
        };
        assert!(thermal.access_latency().as_micros() >= 1.0);
    }

    #[test]
    fn finesse_consistency() {
        let m = mr();
        assert!((m.finesse() - m.fsr() / m.fwhm()).abs() < 1e-9);
        assert!(m.finesse() > 10.0);
    }
}
