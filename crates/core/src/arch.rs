//! COMET architecture configuration (Section III.C / IV.A).
//!
//! COMET is a multi-bank OPCM memory: `B` banks accessed in parallel over
//! MDM modes, each bank holding `S_r` subarrays of `M_r × M_c` cells at
//! `b` bits per cell, for a capacity of `B × S_r × M_r × M_c × b` bits.
//! With the SOA-based loss mitigation strategy the paper sets `M_c = N_c`
//! (one wavelength per column, `S_c = 1`), and subarrays are laid out in a
//! `√S_r × √S_r` grid for addressing.

use crate::timing::CometTiming;
use comet_units::{BitCount, ByteCount};
use photonic::{CellModelMode, CellOpticalModel, OpticalParams, WdmMdmLink};
use std::fmt;

/// Errors from configuration validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A dimension must be a nonzero power of two for addressing.
    NotPowerOfTwo {
        /// Dimension name.
        dimension: &'static str,
        /// Offending value.
        value: u64,
    },
    /// The subarray grid needs a square subarray count (`√S_r` integral).
    SubarrayGridNotSquare {
        /// The subarray count.
        subarrays: u64,
    },
    /// The MDM degree is beyond the practical bound of 4.
    ImpracticalMdmDegree {
        /// Requested banks/modes.
        banks: u64,
    },
    /// The read-out loss between SOA stages exceeds the level budget for
    /// this bit density.
    LossBudgetExceeded {
        /// Bits per cell requested.
        bits: u8,
        /// Inter-stage loss, dB.
        stage_loss_db: f64,
        /// Tolerable loss, dB.
        budget_db: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo { dimension, value } => {
                write!(f, "{dimension} must be a nonzero power of two, got {value}")
            }
            ConfigError::SubarrayGridNotSquare { subarrays } => {
                write!(f, "subarray count {subarrays} is not a perfect square")
            }
            ConfigError::ImpracticalMdmDegree { banks } => {
                write!(f, "MDM degree {banks} exceeds the practical bound of 4")
            }
            ConfigError::LossBudgetExceeded {
                bits,
                stage_loss_db,
                budget_db,
            } => write!(
                f,
                "inter-SOA loss {stage_loss_db:.2} dB exceeds the {budget_db:.2} dB budget \
                 of {bits}-bit read-outs"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A COMET memory configuration.
///
/// # Examples
///
/// ```
/// use comet::CometConfig;
///
/// let cfg = CometConfig::comet_4b();
/// cfg.validate()?;
/// // (B × S_r × M_r × M_c × b) = 4 × 4096 × 512 × 256 × 4 = 2^33 bits.
/// assert_eq!(cfg.capacity_bits().value(), 1 << 33);
/// assert_eq!(cfg.wavelengths(), 256);
/// # Ok::<(), comet::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CometConfig {
    /// Banks `B` (= MDM degree).
    pub banks: u64,
    /// Subarrays per bank `S_r`.
    pub subarrays: u64,
    /// Rows per subarray `M_r`.
    pub subarray_rows: u64,
    /// Columns per subarray `M_c` (= wavelengths `N_c`; `S_c = 1`).
    pub subarray_cols: u64,
    /// Bits per cell `b`.
    pub bits_per_cell: u8,
    /// Subarray striping ways: consecutive controller rows are spread over
    /// this many subarrays so streaming writes program in parallel (their
    /// pulses occupy whole subarrays). `1` reproduces the paper's literal
    /// block mapping (Eq. 2 over linear row IDs); the default of 64 matches
    /// the device's open-switch window so streams never thrash switches,
    /// and keeps row strides up to the stripe width spread over multiple
    /// subarrays (a stride of `s` rows still touches `stripe / gcd(stripe,
    /// s)` subarrays, so only strides that are multiples of the full stripe
    /// serialize their programming pulses).
    pub subarray_stripe: u64,
    /// Cache-line size delivered per access.
    pub cache_line: ByteCount,
    /// Optical constants (Table I).
    pub optical: OpticalParams,
    /// Architectural timing (Table II).
    pub timing: CometTiming,
    /// Where the cell's transmission levels come from: the paper's
    /// transcribed constants (the evaluation default, so published figures
    /// reproduce exactly) or the physics-derived model.
    pub cell_model: CellModelMode,
}

impl CometConfig {
    /// The paper's COMET-1b configuration: `4 × 4096 × 512 × 1024 × 1`.
    pub fn comet_1b() -> Self {
        Self::with_bits(1, 1024)
    }

    /// The paper's COMET-2b configuration: `4 × 4096 × 512 × 512 × 2`.
    pub fn comet_2b() -> Self {
        Self::with_bits(2, 512)
    }

    /// The paper's COMET-4b configuration (the one evaluated against the
    /// baselines): `4 × 4096 × 512 × 256 × 4`.
    pub fn comet_4b() -> Self {
        Self::with_bits(4, 256)
    }

    fn with_bits(bits: u8, cols: u64) -> Self {
        CometConfig {
            banks: 4,
            subarrays: 4096,
            subarray_rows: 512,
            subarray_cols: cols,
            bits_per_cell: bits,
            subarray_stripe: 64,
            cache_line: ByteCount::new(128),
            optical: OpticalParams::table_i(),
            timing: CometTiming::table_ii(),
            cell_model: CellModelMode::Paper,
        }
    }

    /// The same configuration with a different cell-model provider —
    /// `comet-lab` campaigns use this to sweep derived-vs-paper.
    pub fn with_cell_model(mut self, mode: CellModelMode) -> Self {
        self.cell_model = mode;
        self
    }

    /// Resolves the configured cell model to its provider.
    pub fn cell_optics(&self) -> Box<dyn CellOpticalModel + Send + Sync> {
        self.cell_model.model()
    }

    /// All three bit-density variants (Fig. 7).
    pub fn bit_density_sweep() -> Vec<CometConfig> {
        vec![Self::comet_1b(), Self::comet_2b(), Self::comet_4b()]
    }

    /// Total capacity in bits: `B × S_r × M_r × M_c × b`.
    pub fn capacity_bits(&self) -> BitCount {
        BitCount::new(
            self.banks
                * self.subarrays
                * self.subarray_rows
                * self.subarray_cols
                * self.bits_per_cell as u64,
        )
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> ByteCount {
        self.capacity_bits().to_bytes_ceil()
    }

    /// WDM wavelengths required (`N_c = M_c`).
    pub fn wavelengths(&self) -> u64 {
        self.subarray_cols
    }

    /// Side of the `√S_r × √S_r` subarray grid.
    pub fn subarray_grid_side(&self) -> u64 {
        (self.subarrays as f64).sqrt().round() as u64
    }

    /// Cells per cache line (`line_bits / b`).
    pub fn cells_per_line(&self) -> u64 {
        self.cache_line.to_bits().value() / self.bits_per_cell as u64
    }

    /// Rows a signal traverses between SOA re-amplification stages
    /// (the paper's 46 with Table I losses).
    pub fn rows_per_soa_stage(&self) -> u64 {
        self.optical.rows_per_soa_stage() as u64
    }

    /// Total intra-subarray SOA count: `B·N_r·N_c / stage`.
    pub fn total_soa_count(&self) -> u64 {
        let n_r = self.subarrays * self.subarray_rows;
        self.banks * n_r * self.subarray_cols / self.rows_per_soa_stage()
    }

    /// SOAs powered during an access (active subarray only):
    /// `B·M_r·M_c / stage`.
    pub fn active_soa_count(&self) -> u64 {
        self.banks * self.subarray_rows * self.subarray_cols / self.rows_per_soa_stage()
    }

    /// The WDM×MDM link feeding the banks.
    pub fn link(&self) -> WdmMdmLink {
        WdmMdmLink::new(
            self.wavelengths() as usize,
            self.banks as usize,
            self.timing.modulation(),
        )
    }

    /// Validates dimensional and optical feasibility.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`] for the conditions checked: power-of-two
    /// dimensions, square subarray grid, practical MDM degree, and the
    /// SOA-stage loss fitting the bit-density budget.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let dims = [
            ("banks", self.banks),
            ("subarrays", self.subarrays),
            ("subarray_rows", self.subarray_rows),
            ("subarray_cols", self.subarray_cols),
            ("subarray_stripe", self.subarray_stripe),
            ("cache_line", self.cache_line.value()),
        ];
        for (name, value) in dims {
            if value == 0 || !value.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo {
                    dimension: name,
                    value,
                });
            }
        }
        let side = self.subarray_grid_side();
        if side * side != self.subarrays {
            return Err(ConfigError::SubarrayGridNotSquare {
                subarrays: self.subarrays,
            });
        }
        if self.banks > 4 {
            return Err(ConfigError::ImpracticalMdmDegree { banks: self.banks });
        }
        // Between SOA stages the signal crosses up to `stage` rows of
        // EO-tuned-MR through loss; each stage restores the level, so the
        // *residual* loss a read-out carries is the distance to the nearest
        // stage — at most one stage of loss must stay decodable after the
        // LUT gain trim, which compensates in steps (see `GainLut`). The
        // feasibility requirement is that one LUT gain step stays within
        // the paper's per-bit-density loss tolerance.
        let budget = crate::lut::paper_loss_tolerance(self.bits_per_cell);
        let step_rows = crate::lut::GainLut::step_rows(self.bits_per_cell, &self.optical);
        let step_loss = self.optical.eo_mr_through_loss * step_rows as f64;
        // The paper rounds the step up to a whole row, so allow one row of
        // slack beyond the nominal budget.
        let slack = self.optical.eo_mr_through_loss;
        if step_loss.value() > budget.value() + slack.value() + 1e-9 {
            return Err(ConfigError::LossBudgetExceeded {
                bits: self.bits_per_cell,
                stage_loss_db: step_loss.value(),
                budget_db: budget.value(),
            });
        }
        Ok(())
    }
}

impl Default for CometConfig {
    fn default() -> Self {
        Self::comet_4b()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configurations_are_valid() {
        for cfg in CometConfig::bit_density_sweep() {
            cfg.validate().expect("paper config must validate");
        }
    }

    #[test]
    fn all_variants_have_equal_capacity() {
        // The paper trades M_c against b to keep 2^33 bits in all variants.
        let caps: Vec<u64> = CometConfig::bit_density_sweep()
            .iter()
            .map(|c| c.capacity_bits().value())
            .collect();
        assert_eq!(caps, vec![1 << 33, 1 << 33, 1 << 33]);
    }

    #[test]
    fn wavelength_counts_follow_bit_density() {
        assert_eq!(CometConfig::comet_1b().wavelengths(), 1024);
        assert_eq!(CometConfig::comet_2b().wavelengths(), 512);
        assert_eq!(CometConfig::comet_4b().wavelengths(), 256);
    }

    #[test]
    fn soa_counts_match_paper_formulas() {
        let cfg = CometConfig::comet_4b();
        assert_eq!(cfg.rows_per_soa_stage(), 46);
        // B*N_r*N_c/46 with N_r = 4096*512, N_c = 256.
        let expect_total = 4 * (4096 * 512) * 256 / 46;
        assert_eq!(cfg.total_soa_count(), expect_total);
        // Active: B*M_r*M_c/46.
        assert_eq!(cfg.active_soa_count(), 4 * 512 * 256 / 46);
    }

    #[test]
    fn subarray_grid_is_64x64() {
        assert_eq!(CometConfig::comet_4b().subarray_grid_side(), 64);
    }

    #[test]
    fn cells_per_line() {
        // 128 B line = 1024 bits over 4-bit cells = 256 cells (= M_c!).
        let cfg = CometConfig::comet_4b();
        assert_eq!(cfg.cells_per_line(), 256);
        assert_eq!(cfg.cells_per_line(), cfg.subarray_cols);
    }

    #[test]
    fn rejects_bad_dimensions() {
        let mut cfg = CometConfig::comet_4b();
        cfg.subarray_cols = 300;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::NotPowerOfTwo { .. })
        ));

        let mut cfg = CometConfig::comet_4b();
        cfg.subarrays = 2048; // power of two but not a perfect square
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::SubarrayGridNotSquare { .. })
        ));

        let mut cfg = CometConfig::comet_4b();
        cfg.banks = 16;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::ImpracticalMdmDegree { .. })
        ));
    }

    #[test]
    fn link_shape() {
        let link = CometConfig::comet_4b().link();
        assert_eq!(link.wavelengths, 256);
        assert_eq!(link.modes, 4);
        assert!(link.is_practical_mdm());
    }
}
