//! The cross-layer cell contract: what the circuit layer needs to know
//! about a memory cell's optics, and where those numbers come from.
//!
//! COMET's central claim is *cross-layer* optimization: read-out margins,
//! gain-LUT granularity and laser sizing all follow from the physical
//! transmission range of a GST-on-waveguide cell. This module makes that
//! dependency literal. [`CellOpticalModel`] is the contract — a cell is,
//! to the circuit layer, a transmission range, an insertion loss and a
//! level spacing — and two providers implement it:
//!
//! * [`PaperCellModel`] — the constants transcribed from the paper
//!   (levels from 0.95 down to 0.05, ≈6 % spacing at 4 bits), kept so
//!   evaluation binaries reproduce the published figures exactly;
//! * [`DerivedCellModel`] — the same quantities *derived* from the
//!   device-physics layer ([`opcm_phys::CellOpticalModel`]'s calibrated
//!   transmission model), so every downstream readout/BER/ablation result
//!   can run against real physics instead of transcribed numbers.
//!
//! [`CellModelMode`] selects between them; architecture configurations and
//! `comet-lab` campaign grids carry the mode so derived-vs-paper can be
//! swept like any other axis. The two providers are intentionally close —
//! the parity test in `tests/properties.rs` pins the divergence — but not
//! identical: the physics-derived amorphous state is slightly *more*
//! transmissive than the paper's 0.95 top level, which is exactly the kind
//! of divergence the `fig6_levels`/`fig7_power_comet`/`table1_params`
//! binaries tabulate.
//!
//! # Example: a derived transmission level feeding the read-out budget
//!
//! ```
//! use photonic::{CellModelMode, CellOpticalModel, DerivedCellModel, LevelBudget};
//!
//! // Physics-derived 4-bit levels...
//! let cell = DerivedCellModel::comet_gst();
//! let levels = cell.transmission_levels(4);
//! assert_eq!(levels.len(), 16);
//! // ...feed the read-out loss budget: the real level spacing sets how
//! // much loss a read can absorb before adjacent levels merge.
//! let budget = LevelBudget::for_cell(4, &cell);
//! assert!(budget.loss_tolerance.value() < 0.3, "b=4 margins are tight");
//! // The paper-constants provider is the other side of the same contract:
//! let paper = CellModelMode::Paper.model();
//! let paper_budget = LevelBudget::for_cell(4, paper.as_ref());
//! assert!((budget.loss_tolerance.value() - paper_budget.loss_tolerance.value()).abs() < 0.1);
//! ```

use crate::readout::LevelBudget;
use comet_units::{Decibels, Length, Transmittance};
use opcm_phys::{reference_wavelength, CellOpticalModel as PhysCellOptics, ProgramTable};
use std::fmt;
use std::str::FromStr;

/// The circuit layer's view of a memory cell: a transmission range that
/// multi-level read-outs slice into levels.
///
/// Implementors provide the two endpoint transmittances (fully amorphous
/// and fully crystalline, i.e. the most and least transmissive states) and
/// the crystalline-fraction span those endpoints correspond to; everything
/// the circuit layer consumes — equally spaced levels, spacing, insertion
/// loss, loss budgets — is derived from them by the provided methods, so
/// both providers slice their range identically.
pub trait CellOpticalModel {
    /// Provenance label for report rows (`"paper"` or `"derived"`).
    fn source(&self) -> &'static str;

    /// Transmittance of the most transmissive (fully amorphous) state —
    /// the top read-out level.
    fn max_transmittance(&self) -> Transmittance;

    /// Transmittance of the least transmissive usable (deepest
    /// crystalline) state — the bottom read-out level.
    fn min_transmittance(&self) -> Transmittance;

    /// Crystalline-fraction span between the outermost levels (what the
    /// crossbar disturb model divides into corruption margins).
    fn fraction_span(&self) -> f64;

    /// Insertion loss of the most transmissive state: what an amorphous
    /// cell costs an [`OpticalPath`](crate::OpticalPath) it sits on.
    fn insertion_loss(&self) -> Decibels {
        self.max_transmittance().to_decibels()
    }

    /// `2^bits` equally spaced transmission levels across the cell's
    /// range, index 0 = most transmissive (the paper's Fig. 6 layout).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 6`.
    fn transmission_levels(&self, bits: u8) -> Vec<Transmittance> {
        assert!((1..=6).contains(&bits), "bits must be in 1..=6");
        let n = 1u16 << bits;
        let top = self.max_transmittance().value();
        let spacing = self.level_spacing(bits);
        (0..n)
            .map(|k| Transmittance::new(top - spacing * k as f64))
            .collect()
    }

    /// Spacing between adjacent level transmittances (≈0.06 at 4 bits).
    fn level_spacing(&self, bits: u8) -> f64 {
        assert!((1..=6).contains(&bits), "bits must be in 1..=6");
        let n = 1u16 << bits;
        let span = self.max_transmittance().value() - self.min_transmittance().value();
        span / (n - 1) as f64
    }
}

impl fmt::Debug for dyn CellOpticalModel + Send + Sync {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CellOpticalModel({}: {:.3}..{:.3})",
            self.source(),
            self.min_transmittance().value(),
            self.max_transmittance().value()
        )
    }
}

/// The paper's transcribed cell constants.
///
/// Levels span 0.95 down to 0.05 (Section III.B quotes ≈95 % transmission
/// contrast; Fig. 6 slices it into 16 levels ≈6 % apart) over ≈0.9 of
/// crystalline fraction. This is the provider evaluation binaries default
/// to, so published-figure reproductions stay pinned to the paper even as
/// the physics layer is recalibrated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperCellModel {
    /// Top (most transmissive) level transmittance.
    pub top: f64,
    /// Bottom (deepest) level transmittance.
    pub bottom: f64,
    /// Crystalline-fraction span between the outermost levels.
    pub span: f64,
}

impl PaperCellModel {
    /// The constants as transcribed from the paper: levels 0.95 → 0.05
    /// over a 0.9 crystalline-fraction span.
    pub fn paper_constants() -> Self {
        PaperCellModel {
            top: 0.95,
            bottom: 0.05,
            span: 0.9,
        }
    }
}

impl Default for PaperCellModel {
    fn default() -> Self {
        Self::paper_constants()
    }
}

impl CellOpticalModel for PaperCellModel {
    fn source(&self) -> &'static str {
        "paper"
    }

    fn max_transmittance(&self) -> Transmittance {
        Transmittance::new(self.top)
    }

    fn min_transmittance(&self) -> Transmittance {
        Transmittance::new(self.bottom)
    }

    fn fraction_span(&self) -> f64 {
        self.span
    }
}

/// A physics-derived cell model: the device layer's calibrated
/// transmission curve ([`opcm_phys::CellOpticalModel`]) sampled at a fixed
/// read-out wavelength.
///
/// The endpoints come from `T(p)` at `p = 0` (amorphous) and `p = 1`
/// (crystalline) with the same crystalline-end guard band the
/// physics-layer programming tables apply (fully crystalline cells are
/// asymptotically slow to program and suffer the worst read-out loss), and
/// the fraction span is found by inverting `T(p)` — so the circuit layer's
/// level grid is exactly the grid [`opcm_phys::ProgramTable`] programs.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedCellModel {
    /// The device-physics transmission model.
    pub cell: PhysCellOptics,
    /// Read-out wavelength the contract is evaluated at.
    pub wavelength: Length,
}

impl DerivedCellModel {
    /// The COMET GST cell (480 nm × 20 nm × 2 µm on 480×220 SOI) at the
    /// 1550 nm reference wavelength.
    pub fn comet_gst() -> Self {
        DerivedCellModel {
            cell: PhysCellOptics::comet_gst(),
            wavelength: reference_wavelength(),
        }
    }

    /// A derived model over an explicit cell and wavelength.
    pub fn new(cell: PhysCellOptics, wavelength: Length) -> Self {
        DerivedCellModel { cell, wavelength }
    }
}

impl CellOpticalModel for DerivedCellModel {
    fn source(&self) -> &'static str {
        "derived"
    }

    fn max_transmittance(&self) -> Transmittance {
        let (_, t_max) = ProgramTable::usable_transmittance_range(&self.cell, self.wavelength);
        Transmittance::new(t_max)
    }

    fn min_transmittance(&self) -> Transmittance {
        // The single authority on the usable range (guard band included)
        // lives in the physics layer, so this grid is exactly the grid
        // ProgramTable programs.
        let (t_min, _) = ProgramTable::usable_transmittance_range(&self.cell, self.wavelength);
        Transmittance::new(t_min)
    }

    fn fraction_span(&self) -> f64 {
        let top = self
            .cell
            .fraction_for_transmittance(self.max_transmittance(), self.wavelength)
            .unwrap_or(0.0);
        let bottom = self
            .cell
            .fraction_for_transmittance(self.min_transmittance(), self.wavelength)
            .unwrap_or(1.0);
        bottom - top
    }
}

/// Which cell-model provider an architecture configuration (or a
/// `comet-lab` campaign cell) uses.
///
/// `Paper` keeps evaluation pinned to the transcribed constants (the
/// published-figure reproductions); `Derived` resolves the same contract
/// from the device-physics layer. Sweeping both in one grid is how the
/// divergence between transcription and physics is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CellModelMode {
    /// Transcribed paper constants ([`PaperCellModel::paper_constants`]).
    #[default]
    Paper,
    /// Physics-derived ([`DerivedCellModel::comet_gst`]).
    Derived,
}

impl CellModelMode {
    /// Both modes, paper first (the evaluation default).
    pub const ALL: [CellModelMode; 2] = [CellModelMode::Paper, CellModelMode::Derived];

    /// Resolves the mode to its provider.
    pub fn model(self) -> Box<dyn CellOpticalModel + Send + Sync> {
        match self {
            CellModelMode::Paper => Box::new(PaperCellModel::paper_constants()),
            CellModelMode::Derived => Box::new(DerivedCellModel::comet_gst()),
        }
    }
}

impl fmt::Display for CellModelMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellModelMode::Paper => write!(f, "paper"),
            CellModelMode::Derived => write!(f, "derived"),
        }
    }
}

impl FromStr for CellModelMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "paper" => Ok(CellModelMode::Paper),
            "derived" => Ok(CellModelMode::Derived),
            other => Err(format!("unknown cell model mode {other:?} (paper|derived)")),
        }
    }
}

impl LevelBudget {
    /// The loss budget of a `bits`-per-cell read-out over a *real* cell's
    /// transmission range (rather than the idealized full-scale `[0, 1]`
    /// range [`LevelBudget::for_bits`] assumes).
    ///
    /// A uniform optical loss scales every level by the same linear
    /// factor, so the top level drifts the most; decoding breaks when that
    /// drift reaches half a level spacing. The tolerable fractional loss
    /// is therefore `spacing / (2 · T_top)`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 6`.
    pub fn for_cell(bits: u8, cell: &dyn CellOpticalModel) -> Self {
        assert!((1..=6).contains(&bits), "bits must be in 1..=6");
        let levels = 1u16 << bits;
        let spacing = cell.level_spacing(bits);
        let fractional_tolerance = spacing / (2.0 * cell.max_transmittance().value());
        LevelBudget {
            bits,
            levels,
            fractional_tolerance,
            loss_tolerance: Decibels::from_linear(1.0 - fractional_tolerance),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_match_the_transcribed_codec() {
        let m = PaperCellModel::paper_constants();
        let levels = m.transmission_levels(4);
        assert_eq!(levels.len(), 16);
        assert!((levels[0].value() - 0.95).abs() < 1e-12);
        assert!((levels[15].value() - 0.05).abs() < 1e-12);
        assert!((m.level_spacing(4) - 0.06).abs() < 1e-12);
        assert_eq!(m.source(), "paper");
    }

    #[test]
    fn derived_model_resolves_from_physics() {
        let m = DerivedCellModel::comet_gst();
        assert_eq!(m.source(), "derived");
        // The physics-derived amorphous cell is nearly transparent...
        assert!(m.max_transmittance().value() > 0.9);
        // ...and the usable range still hosts 16 distinguishable levels.
        assert!(m.level_spacing(4) > 0.02);
        // The fraction span covers most of the phase range.
        let span = m.fraction_span();
        assert!((0.3..=1.0).contains(&span), "span {span}");
    }

    #[test]
    fn levels_are_strictly_decreasing_in_both_providers() {
        for mode in CellModelMode::ALL {
            let m = mode.model();
            for bits in 1..=6u8 {
                let levels = m.transmission_levels(bits);
                assert_eq!(levels.len(), 1 << bits);
                for w in levels.windows(2) {
                    assert!(w[0].value() > w[1].value(), "{mode} b={bits}");
                }
            }
        }
    }

    #[test]
    fn insertion_loss_orders_with_transmittance() {
        let paper = PaperCellModel::paper_constants();
        let derived = DerivedCellModel::comet_gst();
        // The derived amorphous state is more transmissive than the
        // paper's 0.95 top level, so its insertion loss is smaller.
        assert!(derived.insertion_loss().value() < paper.insertion_loss().value());
        assert!(paper.insertion_loss().value() < 0.3);
    }

    #[test]
    fn budget_tightens_with_bits_for_real_cells() {
        for mode in CellModelMode::ALL {
            let m = mode.model();
            let mut last = f64::INFINITY;
            for bits in 1..=6u8 {
                let b = LevelBudget::for_cell(bits, m.as_ref());
                assert!(b.loss_tolerance.value() < last, "{mode} b={bits}");
                last = b.loss_tolerance.value();
            }
        }
    }

    #[test]
    fn mode_round_trips_through_strings() {
        for mode in CellModelMode::ALL {
            let s = mode.to_string();
            assert_eq!(s.parse::<CellModelMode>().unwrap(), mode);
        }
        assert!("lumerical".parse::<CellModelMode>().is_err());
    }

    #[test]
    fn default_mode_is_paper() {
        assert_eq!(CellModelMode::default(), CellModelMode::Paper);
    }
}
