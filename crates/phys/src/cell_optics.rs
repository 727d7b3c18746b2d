//! Optical transmission/absorption model of a PCM-on-waveguide cell.
//!
//! Stands in for the paper's Ansys Lumerical FDTD simulations (Section
//! III.B). For a cell of geometry `g` holding crystalline fraction `p`:
//!
//! * modal loss: `α(p) = 4π·κ_eff(p)·Γ(g) / λ` (Beer–Lambert with the
//!   confinement factor converting material κ into modal κ);
//! * interface mismatch: the PCM patch shifts the local effective index by
//!   `Γ·(n_pcm − n_si)`, producing a Fresnel-like reflectance at each facet —
//!   the paper's "optical-refractive-index mismatch" contribution;
//! * transmittance: `T(p) = (1 − R(p))² · exp(−α(p)·L)`;
//! * absorptance: `A(p) = (1 − R(p)) · (1 − exp(−α(p)·L))`.
//!
//! Calibration (see `waveguide` module) reproduces the paper's anchors: the
//! default GST cell shows ≈95 % transmission *and* absorption contrast, and
//! an amorphous cell loses ≈0.07 dB/mm falling slightly across the C-band.

use crate::lorentz::ComplexIndex;
use crate::materials::{PcmMaterial, Silicon};
use crate::mixing::effective_index;
use crate::waveguide::CellGeometry;
use comet_units::{Decibels, Length, Transmittance};

/// Optical model of one PCM memory cell.
///
/// # Examples
///
/// ```
/// use comet_units::Length;
/// use opcm_phys::{CellGeometry, CellOpticalModel, PcmKind};
///
/// let cell = CellOpticalModel::new(PcmKind::Gst.material(), CellGeometry::comet_default());
/// let lambda = Length::from_nanometers(1550.0);
/// let contrast = cell.transmission_contrast(lambda);
/// assert!(contrast > 0.90, "GST cell should show ~95% contrast, got {contrast}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CellOpticalModel {
    /// The phase-change material in the cell.
    pub material: PcmMaterial,
    /// The cell geometry.
    pub geometry: CellGeometry,
}

/// One point of the Fig. 4 geometry sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeometryContrast {
    /// PCM patch width.
    pub width: Length,
    /// PCM film thickness.
    pub thickness: Length,
    /// Transmission contrast `(T_a − T_c)/T_a` between the pure phases.
    pub transmission_contrast: f64,
    /// Absorption contrast `A_c − A_a` between the pure phases.
    pub absorption_contrast: f64,
}

impl CellOpticalModel {
    /// Creates a model from a material and geometry.
    pub fn new(material: PcmMaterial, geometry: CellGeometry) -> Self {
        CellOpticalModel { material, geometry }
    }

    /// The COMET GST cell (480 nm × 20 nm × 2 µm on 480×220 SOI).
    pub fn comet_gst() -> Self {
        CellOpticalModel::new(PcmMaterial::gst(), CellGeometry::comet_default())
    }

    /// Effective complex index of the PCM mixture at crystalline fraction
    /// `p` (material property; not yet weighted by confinement).
    pub fn pcm_index(&self, p: f64, lambda: Length) -> ComplexIndex {
        effective_index(&self.material, p, lambda)
    }

    /// Modal power attenuation coefficient in 1/m at fraction `p`.
    pub fn modal_loss_coefficient(&self, p: f64, lambda: Length) -> f64 {
        let kappa = self.pcm_index(p, lambda).kappa;
        let gamma = self.geometry.confinement_factor();
        4.0 * std::f64::consts::PI * kappa * gamma / lambda.as_meters()
    }

    /// Single-pass propagation loss through the cell, in dB, at fraction `p`
    /// (absorption only, excluding interface reflection).
    pub fn propagation_loss(&self, p: f64, lambda: Length) -> Decibels {
        let alpha = self.modal_loss_coefficient(p, lambda);
        let transmitted = (-alpha * self.geometry.length.as_meters()).exp();
        Decibels::from_linear(transmitted.max(1e-30))
    }

    /// Per-facet power reflectance from the waveguide ↔ cell effective-index
    /// mismatch at fraction `p`.
    pub fn interface_reflectance(&self, p: f64, lambda: Length) -> f64 {
        let n_wg = self.geometry.waveguide.effective_index();
        let gamma = self.geometry.confinement_factor();
        let n_cell = n_wg + gamma * (self.pcm_index(p, lambda).n - Silicon::REFRACTIVE_INDEX);
        let r = (n_cell - n_wg) / (n_cell + n_wg);
        r * r
    }

    /// End-to-end power transmittance of the cell at fraction `p`.
    pub fn transmittance(&self, p: f64, lambda: Length) -> Transmittance {
        let r = self.interface_reflectance(p, lambda);
        let alpha = self.modal_loss_coefficient(p, lambda);
        let through = (-alpha * self.geometry.length.as_meters()).exp();
        Transmittance::new((1.0 - r) * (1.0 - r) * through)
    }

    /// Fraction of incident power absorbed in the cell at fraction `p`.
    pub fn absorptance(&self, p: f64, lambda: Length) -> f64 {
        let r = self.interface_reflectance(p, lambda);
        let alpha = self.modal_loss_coefficient(p, lambda);
        let through = (-alpha * self.geometry.length.as_meters()).exp();
        (1.0 - r) * (1.0 - through)
    }

    /// Transmission contrast `(T_a − T_c) / T_a` between pure phases —
    /// the paper's Fig. 4 y-axis (≈0.95 for the default GST cell).
    pub fn transmission_contrast(&self, lambda: Length) -> f64 {
        let t_a = self.transmittance(0.0, lambda).value();
        let t_c = self.transmittance(1.0, lambda).value();
        (t_a - t_c) / t_a
    }

    /// Absorption contrast `A_c − A_a` between pure phases.
    pub fn absorption_contrast(&self, lambda: Length) -> f64 {
        self.absorptance(1.0, lambda) - self.absorptance(0.0, lambda)
    }

    /// Finds the crystalline fraction that produces a target transmittance,
    /// by bisection on the (strictly decreasing) `T(p)` curve.
    ///
    /// Returns `None` if the target is outside `[T(1), T(0)]`.
    pub fn fraction_for_transmittance(&self, target: Transmittance, lambda: Length) -> Option<f64> {
        let t0 = self.transmittance(0.0, lambda).value();
        let t1 = self.transmittance(1.0, lambda).value();
        let t = target.value();
        if t > t0 + 1e-12 || t < t1 - 1e-12 {
            return None;
        }
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if self.transmittance(mid, lambda).value() > t {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(0.5 * (lo + hi))
    }

    /// Loss of the *amorphous* cell region per millimetre — the paper
    /// quotes 0.073 dB/mm at 1530 nm falling to 0.067 dB/mm at 1565 nm.
    pub fn amorphous_loss_per_mm(&self, lambda: Length) -> Decibels {
        let per_cell = self.propagation_loss(0.0, lambda);
        per_cell / self.geometry.length.as_millimeters()
    }

    /// Sweeps PCM width × thickness and reports both contrasts (Fig. 4).
    pub fn geometry_sweep(
        &self,
        widths: &[Length],
        thicknesses: &[Length],
        lambda: Length,
    ) -> Vec<GeometryContrast> {
        let mut out = Vec::with_capacity(widths.len() * thicknesses.len());
        for &w in widths {
            for &t in thicknesses {
                let g = self.geometry.with_pcm_width(w).with_thickness(t);
                let m = CellOpticalModel::new(self.material.clone(), g);
                out.push(GeometryContrast {
                    width: w,
                    thickness: t,
                    transmission_contrast: m.transmission_contrast(lambda),
                    absorption_contrast: m.absorption_contrast(lambda),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materials::reference_wavelength;

    fn model() -> CellOpticalModel {
        CellOpticalModel::comet_gst()
    }

    #[test]
    fn paper_anchor_95_percent_contrast() {
        let m = model();
        let lambda = reference_wavelength();
        let tc = m.transmission_contrast(lambda);
        let ac = m.absorption_contrast(lambda);
        assert!((0.92..=0.98).contains(&tc), "transmission contrast {tc}");
        assert!((0.90..=0.98).contains(&ac), "absorption contrast {ac}");
    }

    #[test]
    fn paper_anchor_amorphous_loss_per_mm() {
        let m = model();
        let blue = m
            .amorphous_loss_per_mm(Length::from_nanometers(1530.0))
            .value();
        let red = m
            .amorphous_loss_per_mm(Length::from_nanometers(1565.0))
            .value();
        assert!((0.055..=0.085).contains(&blue), "1530nm loss {blue} dB/mm");
        assert!(red < blue, "loss should fall with wavelength");
        assert!(red > 0.045, "1565nm loss {red} dB/mm");
    }

    #[test]
    fn transmittance_is_monotone_decreasing_in_fraction() {
        let m = model();
        let lambda = reference_wavelength();
        let mut last = f64::INFINITY;
        for i in 0..=20 {
            let t = m.transmittance(i as f64 / 20.0, lambda).value();
            assert!(t < last, "T(p) not strictly decreasing at step {i}");
            last = t;
        }
    }

    #[test]
    fn energy_conservation() {
        // Incident power splits exactly into: front-facet reflection,
        // absorption, transmission, and the back-reflected wave that exits
        // backwards through the front facet: r + A + T + r(1-r)·e^{-αL} = 1.
        let m = model();
        let lambda = reference_wavelength();
        for i in 0..=10 {
            let p = i as f64 / 10.0;
            let t = m.transmittance(p, lambda).value();
            let a = m.absorptance(p, lambda);
            let r = m.interface_reflectance(p, lambda);
            let through =
                (-m.modal_loss_coefficient(p, lambda) * m.geometry.length.as_meters()).exp();
            let total = t + a + r + r * (1.0 - r) * through;
            assert!((total - 1.0).abs() < 1e-9, "p={p}: budget total {total}");
            assert!(t + a <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn fraction_for_transmittance_inverts() {
        let m = model();
        let lambda = reference_wavelength();
        for p_true in [0.05, 0.3, 0.55, 0.8, 0.95] {
            let t = m.transmittance(p_true, lambda);
            let p = m.fraction_for_transmittance(t, lambda).expect("in range");
            assert!((p - p_true).abs() < 1e-6, "p={p} vs {p_true}");
        }
    }

    #[test]
    fn fraction_for_transmittance_out_of_range() {
        let m = model();
        let lambda = reference_wavelength();
        assert!(m
            .fraction_for_transmittance(Transmittance::new(0.9999999), lambda)
            .is_none());
        assert!(m
            .fraction_for_transmittance(Transmittance::new(1e-9), lambda)
            .is_none());
    }

    #[test]
    fn contrast_grows_with_thickness_and_saturates() {
        let m = model();
        let lambda = reference_wavelength();
        let widths = [Length::from_nanometers(480.0)];
        let thicknesses: Vec<Length> = [5.0, 10.0, 20.0, 35.0, 50.0]
            .iter()
            .map(|&t| Length::from_nanometers(t))
            .collect();
        let sweep = m.geometry_sweep(&widths, &thicknesses, lambda);
        for pair in sweep.windows(2) {
            assert!(pair[1].transmission_contrast > pair[0].transmission_contrast);
            assert!(pair[1].absorption_contrast > pair[0].absorption_contrast);
        }
        // The paper's selected point: ~95% at 20 nm.
        let sel = &sweep[2];
        assert!((sel.transmission_contrast - 0.95).abs() < 0.03);
    }

    #[test]
    fn width_negligible_in_sweep() {
        let m = model();
        let lambda = reference_wavelength();
        let widths: Vec<Length> = [300.0, 400.0, 480.0]
            .iter()
            .map(|&w| Length::from_nanometers(w))
            .collect();
        let thicknesses = [Length::from_nanometers(20.0)];
        let sweep = m.geometry_sweep(&widths, &thicknesses, lambda);
        let min = sweep
            .iter()
            .map(|s| s.transmission_contrast)
            .fold(f64::INFINITY, f64::min);
        let max = sweep
            .iter()
            .map(|s| s.transmission_contrast)
            .fold(0.0, f64::max);
        assert!((max - min) / max < 0.05, "width effect should be small");
    }

    #[test]
    fn wavelength_dependence_is_small() {
        // Paper: max wavelength-dependent transmission contrast variation
        // across the C-band was 1.4%.
        let m = model();
        let c1 = m.transmission_contrast(Length::from_nanometers(1530.0));
        let c2 = m.transmission_contrast(Length::from_nanometers(1565.0));
        assert!((c1 - c2).abs() < 0.02, "variation {}", (c1 - c2).abs());
    }
}
