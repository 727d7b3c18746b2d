//! SOI strip-waveguide geometry and the PCM-loaded cell geometry.
//!
//! The paper's cell (Fig. 5(a)) is a 480 nm × 220 nm silicon-on-insulator
//! strip waveguide with a 2 µm long, 480 nm wide, 20 nm thick GST patch on
//! top. Full vectorial mode solving is out of scope (the paper used Ansys
//! Lumerical); what downstream layers need are two scalars per geometry:
//!
//! * the waveguide **effective index** (sets interface mismatch and phase), and
//! * the **confinement factor** Γ — the fraction of modal power overlapping
//!   the PCM film, which converts material extinction κ into modal loss.
//!
//! Both use compact analytic fits calibrated against the paper's anchors:
//! Γ(480 nm, 20 nm) is chosen so a 2 µm crystalline GST cell absorbs ≈95 %
//! of the light while an amorphous one loses ≈0.07 dB/mm (Section III.B).

use comet_units::Length;

use crate::materials::{Silicon, SiliconDioxide};

/// Saturation value of the PCM confinement factor for very thick films.
///
/// Calibrated so Γ(20 nm) ≈ 0.177, which reproduces the paper's ≈95 %
/// transmission/absorption contrast for the 2 µm GST cell.
const CONFINEMENT_SATURATION: f64 = 0.225;

/// Thickness scale (nm) of the evanescent overlap growth.
const CONFINEMENT_THICKNESS_SCALE_NM: f64 = 13.0;

/// Fraction of the width dependence that is fixed; the paper observes the
/// width impact on transmission/absorption is negligible.
const WIDTH_BASE: f64 = 0.92;

/// Cross-section area scale (nm²) of the core-confinement fit.
const CORE_AREA_SCALE_NM2: f64 = 176_000.0;

/// An SOI strip waveguide cross-section.
///
/// # Examples
///
/// ```
/// use opcm_phys::WaveguideGeometry;
///
/// let wg = WaveguideGeometry::soi_strip_480x220();
/// assert!(wg.is_single_mode());
/// let neff = wg.effective_index();
/// assert!(neff > 2.2 && neff < 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveguideGeometry {
    /// Core width.
    pub width: Length,
    /// Core height (SOI device-layer thickness).
    pub height: Length,
}

impl WaveguideGeometry {
    /// The paper's 480 nm × 220 nm strip waveguide.
    pub fn soi_strip_480x220() -> Self {
        WaveguideGeometry {
            width: Length::from_nanometers(480.0),
            height: Length::from_nanometers(220.0),
        }
    }

    /// Fundamental-mode effective index at 1550 nm.
    ///
    /// Saturating-area fit anchored to n_eff ≈ 2.36 for the 480×220 nm
    /// strip; converges to the silicon index for very large cores and to
    /// the oxide index for vanishing cores.
    pub fn effective_index(&self) -> f64 {
        let area_nm2 = self.width.as_nanometers() * self.height.as_nanometers();
        let core_fill = 1.0 - (-area_nm2 / CORE_AREA_SCALE_NM2).exp();
        SiliconDioxide::REFRACTIVE_INDEX
            + (Silicon::REFRACTIVE_INDEX - SiliconDioxide::REFRACTIVE_INDEX) * core_fill
    }

    /// Whether the cross-section supports only the fundamental TE mode at
    /// 1550 nm (approximate single-mode criterion for 220 nm SOI).
    pub fn is_single_mode(&self) -> bool {
        self.height.as_nanometers() <= 260.0 && self.width.as_nanometers() <= 520.0
    }

    /// Cross-section area.
    pub fn cross_section(&self) -> f64 {
        self.width.as_meters() * self.height.as_meters()
    }
}

impl Default for WaveguideGeometry {
    fn default() -> Self {
        Self::soi_strip_480x220()
    }
}

/// A PCM-on-waveguide memory cell geometry (Fig. 5(a)).
///
/// # Examples
///
/// ```
/// use opcm_phys::CellGeometry;
///
/// let cell = CellGeometry::comet_default();
/// let gamma = cell.confinement_factor();
/// assert!(gamma > 0.15 && gamma < 0.20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellGeometry {
    /// Underlying strip waveguide.
    pub waveguide: WaveguideGeometry,
    /// PCM patch width (the paper uses the waveguide width).
    pub pcm_width: Length,
    /// PCM film thickness.
    pub pcm_thickness: Length,
    /// PCM patch length along the propagation direction.
    pub length: Length,
}

impl CellGeometry {
    /// The paper's cell: 480 nm wide, 20 nm thick, 2 µm long GST on the
    /// 480×220 nm strip.
    pub fn comet_default() -> Self {
        CellGeometry {
            waveguide: WaveguideGeometry::soi_strip_480x220(),
            pcm_width: Length::from_nanometers(480.0),
            pcm_thickness: Length::from_nanometers(20.0),
            length: Length::from_micrometers(2.0),
        }
    }

    /// Returns a copy with a different PCM film thickness.
    pub fn with_thickness(mut self, thickness: Length) -> Self {
        self.pcm_thickness = thickness;
        self
    }

    /// Returns a copy with a different PCM patch width.
    pub fn with_pcm_width(mut self, width: Length) -> Self {
        self.pcm_width = width;
        self
    }

    /// The modal confinement factor Γ in the PCM film.
    ///
    /// Saturating-exponential fit in thickness (evanescent + partial-core
    /// overlap) times a weak width factor; calibrated to the paper's 2 µm
    /// GST cell anchors (see module docs). Thicker films interact more but
    /// saturate; width barely matters once the patch covers the core.
    pub fn confinement_factor(&self) -> f64 {
        let t_nm = self.pcm_thickness.as_nanometers();
        let thickness_term = 1.0 - (-t_nm / CONFINEMENT_THICKNESS_SCALE_NM).exp();
        let width_ratio =
            (self.pcm_width.as_nanometers() / self.waveguide.width.as_nanometers()).min(1.0);
        let width_term = WIDTH_BASE + (1.0 - WIDTH_BASE) * width_ratio;
        CONFINEMENT_SATURATION * thickness_term * width_term
    }

    /// PCM film volume (heated by programming pulses).
    pub fn pcm_volume(&self) -> f64 {
        self.pcm_width.as_meters() * self.pcm_thickness.as_meters() * self.length.as_meters()
    }

    /// Silicon core volume under the PCM patch.
    pub fn core_volume(&self) -> f64 {
        self.waveguide.cross_section() * self.length.as_meters()
    }
}

impl Default for CellGeometry {
    fn default() -> Self {
        Self::comet_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_effective_index_anchor() {
        let neff = WaveguideGeometry::soi_strip_480x220().effective_index();
        assert!((neff - 2.36).abs() < 0.03, "n_eff={neff}");
    }

    #[test]
    fn effective_index_limits() {
        let tiny = WaveguideGeometry {
            width: Length::from_nanometers(10.0),
            height: Length::from_nanometers(10.0),
        };
        assert!(tiny.effective_index() < 1.5);
        let huge = WaveguideGeometry {
            width: Length::from_micrometers(5.0),
            height: Length::from_micrometers(5.0),
        };
        assert!((huge.effective_index() - Silicon::REFRACTIVE_INDEX).abs() < 1e-6);
    }

    #[test]
    fn confinement_grows_with_thickness_and_saturates() {
        let base = CellGeometry::comet_default();
        let mut last = 0.0;
        for t in [5.0, 10.0, 20.0, 30.0, 50.0] {
            let g = base
                .with_thickness(Length::from_nanometers(t))
                .confinement_factor();
            assert!(g > last, "not monotone at t={t}");
            assert!(g < CONFINEMENT_SATURATION);
            last = g;
        }
        // Saturation: growth from 30->50 nm is much smaller than 5->20 nm.
        let g5 = base
            .with_thickness(Length::from_nanometers(5.0))
            .confinement_factor();
        let g20 = base.confinement_factor();
        let g30 = base
            .with_thickness(Length::from_nanometers(30.0))
            .confinement_factor();
        let g50 = base
            .with_thickness(Length::from_nanometers(50.0))
            .confinement_factor();
        assert!((g20 - g5) > 3.0 * (g50 - g30));
    }

    #[test]
    fn width_impact_is_negligible() {
        // The paper: "the impact of PCM waveguide width on optical
        // transmission and absorption is negligible".
        let base = CellGeometry::comet_default();
        let narrow = base
            .with_pcm_width(Length::from_nanometers(300.0))
            .confinement_factor();
        let wide = base
            .with_pcm_width(Length::from_nanometers(480.0))
            .confinement_factor();
        assert!((wide - narrow) / wide < 0.05);
    }

    #[test]
    fn default_confinement_anchor() {
        let g = CellGeometry::comet_default().confinement_factor();
        assert!((g - 0.177).abs() < 0.01, "gamma={g}");
    }

    #[test]
    fn volumes() {
        let c = CellGeometry::comet_default();
        // 480 nm * 20 nm * 2 um = 1.92e-20 m^3.
        assert!((c.pcm_volume() - 1.92e-20).abs() / 1.92e-20 < 1e-9);
        // 480 nm * 220 nm * 2 um = 2.112e-19 m^3.
        assert!((c.core_volume() - 2.112e-19).abs() / 2.112e-19 < 1e-9);
    }
}
