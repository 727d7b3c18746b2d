//! Lorentz-oscillator optical dispersion model for phase-change materials.
//!
//! The paper (Section III.A) models the refractive index `n` and extinction
//! coefficient `κ` of GST, GSST and Sb₂Se₃ with the Lorenz(-Lorentz)
//! oscillator scheme of Wang et al., *npj Comput. Mater.* 7, 183 (2021)
//! (paper ref [27]). The complex relative permittivity at photon energy `E`
//! is
//!
//! ```text
//! ε(E) = ε∞ + Σ_j  S_j · E0_j² / (E0_j² − E² − i·Γ_j·E)
//! ```
//!
//! and the complex refractive index is `ñ = n + iκ = √ε`.
//!
//! Published ellipsometry gives reliable (n, κ) anchor values at 1550 nm for
//! each material/phase; [`LorentzModel::anchored`] solves the oscillator
//! strength and ε∞ in closed form so the model reproduces the anchor exactly
//! while the chosen resonance energy and damping shape a physically plausible
//! dispersion across the C-band (normal dispersion below resonance).

use crate::Complex;
use comet_units::Length;

/// Photon energy in electron-volts for a vacuum wavelength.
///
/// `E[eV] = hc / λ ≈ 1239.84 / λ[nm]`.
///
/// # Examples
///
/// ```
/// use comet_units::Length;
/// use opcm_phys::photon_energy_ev;
///
/// let e = photon_energy_ev(Length::from_nanometers(1550.0));
/// assert!((e - 0.7999).abs() < 1e-3);
/// ```
pub fn photon_energy_ev(lambda: Length) -> f64 {
    const HC_EV_NM: f64 = 1_239.841_984;
    HC_EV_NM / lambda.as_nanometers()
}

/// A single Lorentz oscillator term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Oscillator {
    /// Dimensionless oscillator strength `S`.
    pub strength: f64,
    /// Resonance energy `E0` in eV.
    pub resonance_ev: f64,
    /// Damping (broadening) `Γ` in eV.
    pub damping_ev: f64,
}

impl Oscillator {
    /// The complex susceptibility contribution of this oscillator at photon
    /// energy `e_ev`.
    pub fn susceptibility(&self, e_ev: f64) -> Complex {
        let e0sq = self.resonance_ev * self.resonance_ev;
        let numerator = Complex::from_real(self.strength * e0sq);
        let denominator = Complex::new(e0sq - e_ev * e_ev, -self.damping_ev * e_ev);
        numerator / denominator
    }
}

/// The complex refractive index `ñ = n + iκ` of a material at one wavelength.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ComplexIndex {
    /// Real refractive index.
    pub n: f64,
    /// Extinction coefficient.
    pub kappa: f64,
}

impl ComplexIndex {
    /// Creates an index from its parts.
    pub const fn new(n: f64, kappa: f64) -> Self {
        ComplexIndex { n, kappa }
    }

    /// The complex relative permittivity `ε = ñ²`.
    pub fn to_permittivity(self) -> Complex {
        let nh = Complex::new(self.n, self.kappa);
        nh * nh
    }

    /// Recovers the index from a permittivity (principal branch).
    pub fn from_permittivity(eps: Complex) -> Self {
        let nh = eps.sqrt();
        ComplexIndex::new(nh.re, nh.im)
    }

    /// The intensity absorption coefficient `α = 4πκ/λ` in 1/m.
    pub fn absorption_coefficient(self, lambda: Length) -> f64 {
        4.0 * std::f64::consts::PI * self.kappa / lambda.as_meters()
    }
}

/// A Lorentz-oscillator dispersion model for one material phase.
///
/// # Examples
///
/// ```
/// use comet_units::Length;
/// use opcm_phys::LorentzModel;
///
/// // Anchor crystalline GST to n=6.11, κ=1.10 at 1550 nm:
/// let model = LorentzModel::anchored(6.11, 1.10, Length::from_nanometers(1550.0), 1.4, 0.8);
/// let idx = model.refractive_index(Length::from_nanometers(1550.0));
/// assert!((idx.n - 6.11).abs() < 1e-9);
/// assert!((idx.kappa - 1.10).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LorentzModel {
    /// High-frequency permittivity ε∞.
    pub eps_inf: f64,
    /// Oscillator terms.
    pub oscillators: Vec<Oscillator>,
}

impl LorentzModel {
    /// Builds a single-oscillator model that reproduces `(n, κ)` exactly at
    /// the `anchor` wavelength.
    ///
    /// Given the target permittivity `ε_t = (n + iκ)²` and a chosen
    /// resonance `E0` / damping `Γ`, the oscillator strength and ε∞ follow
    /// in closed form:
    ///
    /// ```text
    /// D  = E0² − E² − iΓE
    /// S  = Im(ε_t) · |D|² / (E0² · Γ · E)
    /// ε∞ = Re(ε_t) − S · E0² · (E0² − E²) / |D|²
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `kappa < 0`, if `n <= 0`, or if the chosen `(E0, Γ)` would
    /// require a non-physical `ε∞ < 0` (pick a lower resonance or larger
    /// damping in that case).
    pub fn anchored(
        n: f64,
        kappa: f64,
        anchor: Length,
        resonance_ev: f64,
        damping_ev: f64,
    ) -> Self {
        assert!(n > 0.0, "refractive index must be positive");
        assert!(kappa >= 0.0, "extinction coefficient must be non-negative");
        let e = photon_energy_ev(anchor);
        let eps_t = ComplexIndex::new(n, kappa).to_permittivity();
        let e0sq = resonance_ev * resonance_ev;
        let d_re = e0sq - e * e;
        let d_im = damping_ev * e;
        let d_sq = d_re * d_re + d_im * d_im;
        let strength = eps_t.im * d_sq / (e0sq * damping_ev * e);
        let eps_inf = eps_t.re - strength * e0sq * d_re / d_sq;
        assert!(
            eps_inf >= 0.0,
            "anchoring n={n}, kappa={kappa} with E0={resonance_ev} eV, Gamma={damping_ev} eV \
             yields non-physical eps_inf={eps_inf:.3}; lower the resonance or raise the damping"
        );
        LorentzModel {
            eps_inf,
            oscillators: vec![Oscillator {
                strength,
                resonance_ev,
                damping_ev,
            }],
        }
    }

    /// The complex relative permittivity at a wavelength.
    pub fn permittivity(&self, lambda: Length) -> Complex {
        let e = photon_energy_ev(lambda);
        let mut eps = Complex::from_real(self.eps_inf);
        for osc in &self.oscillators {
            eps = eps + osc.susceptibility(e);
        }
        eps
    }

    /// The complex refractive index at a wavelength.
    pub fn refractive_index(&self, lambda: Length) -> ComplexIndex {
        ComplexIndex::from_permittivity(self.permittivity(lambda))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NM1550: f64 = 1550.0;

    fn anchor() -> Length {
        Length::from_nanometers(NM1550)
    }

    #[test]
    fn anchored_reproduces_target_exactly() {
        for &(n, k, e0, g) in &[
            (3.94, 1.2e-5, 2.2, 0.3),
            (6.11, 1.10, 1.4, 0.8),
            (3.33, 1e-5, 2.4, 0.3),
            (4.05, 0.01, 2.0, 0.4),
        ] {
            let m = LorentzModel::anchored(n, k, anchor(), e0, g);
            let idx = m.refractive_index(anchor());
            assert!((idx.n - n).abs() < 1e-9, "n mismatch for ({n},{k})");
            assert!((idx.kappa - k).abs() < 1e-9, "kappa mismatch for ({n},{k})");
        }
    }

    #[test]
    fn normal_dispersion_below_resonance() {
        // Below resonance, n should decrease with increasing wavelength.
        let m = LorentzModel::anchored(6.11, 1.10, anchor(), 1.4, 0.8);
        let n_blue = m.refractive_index(Length::from_nanometers(1530.0)).n;
        let n_red = m.refractive_index(Length::from_nanometers(1565.0)).n;
        assert!(
            n_blue > n_red,
            "expected normal dispersion, got n(1530)={n_blue} <= n(1565)={n_red}"
        );
    }

    #[test]
    fn kappa_decreases_with_wavelength_in_tail() {
        let m = LorentzModel::anchored(6.11, 1.10, anchor(), 1.4, 0.8);
        let k_blue = m.refractive_index(Length::from_nanometers(1530.0)).kappa;
        let k_red = m.refractive_index(Length::from_nanometers(1565.0)).kappa;
        assert!(k_blue > k_red);
    }

    #[test]
    fn dispersion_is_gentle_across_c_band() {
        // The paper reports <=1.4% transmission variation across the C-band,
        // which requires the underlying index dispersion to be small.
        let m = LorentzModel::anchored(6.11, 1.10, anchor(), 1.4, 0.8);
        let a = m.refractive_index(Length::from_nanometers(1530.0));
        let b = m.refractive_index(Length::from_nanometers(1565.0));
        assert!((a.n - b.n).abs() / a.n < 0.02);
        assert!((a.kappa - b.kappa).abs() / a.kappa < 0.10);
    }

    #[test]
    fn permittivity_index_roundtrip() {
        let idx = ComplexIndex::new(4.5, 0.3);
        let back = ComplexIndex::from_permittivity(idx.to_permittivity());
        assert!((back.n - idx.n).abs() < 1e-12);
        assert!((back.kappa - idx.kappa).abs() < 1e-12);
    }

    #[test]
    fn absorption_coefficient_scale() {
        // kappa = 1.0 at 1550 nm -> alpha = 4*pi/1.55um ~ 8.1e6 /m.
        let idx = ComplexIndex::new(6.0, 1.0);
        let alpha = idx.absorption_coefficient(anchor());
        assert!((alpha - 8.106e6).abs() / 8.106e6 < 1e-3);
    }

    #[test]
    #[should_panic(expected = "non-physical eps_inf")]
    fn anchored_rejects_bad_resonance_choice() {
        // Large kappa anchored with a far-away resonance and tiny damping
        // forces eps_inf < 0.
        let _ = LorentzModel::anchored(6.11, 1.10, anchor(), 3.5, 0.05);
    }

    #[test]
    fn photon_energy_values() {
        assert!((photon_energy_ev(Length::from_nanometers(1530.0)) - 0.8104).abs() < 1e-3);
        assert!((photon_energy_ev(Length::from_nanometers(1565.0)) - 0.7922).abs() < 1e-3);
    }
}
