//! COSMOS architecture configurations (paper Sections II.B and IV.B).
//!
//! Two variants matter:
//!
//! * [`CosmosConfig::original`] — the architecture as published (ACM TACO
//!   2022): 4-bit crossbar cells with ~6 % level spacing and 135 pJ energy
//!   assumptions. The paper shows this variant corrupts neighbouring rows
//!   on every write (Fig. 2) because the −18 dB write crosstalk shifts
//!   crystalline fractions by ~8 %.
//! * [`CosmosConfig::corrected`] — the paper's re-modeled baseline used in
//!   the Fig. 8/9 comparisons: 5 mW pulses delivering real GST energies,
//!   bit density dropped to b=2 with four asymmetric levels
//!   (0.99/0.90/0.81/0.72, 9 % spacing), `16 × 16384 × 16384 × 2` layout
//!   with 32×32 subarrays, 6 SOA arrays per subarray, dedicated subarray
//!   ports and PCM-switch row gating.

use comet_units::{BitCount, ByteCount, Energy, Time};
use photonic::OpticalParams;

/// COSMOS timing parameters (paper Table II, corrected variant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosmosTiming {
    /// Data-bus width, bits.
    pub bus_bits: u32,
    /// Burst length.
    pub burst_length: u32,
    /// Per-beat time.
    pub burst_beat: Time,
    /// Single crossbar read pass.
    pub read_time: Time,
    /// Row erase (reset) pulse.
    pub erase_time: Time,
    /// Row write (program) pulse.
    pub write_time: Time,
    /// PCM-switch subarray-row access time (added by the paper's
    /// correction, mirroring COMET's GST switches).
    pub subarray_switch_time: Time,
    /// Electrical interface delay.
    pub interface_delay: Time,
}

impl CosmosTiming {
    /// Table II values for the corrected COSMOS.
    pub fn table_ii() -> Self {
        CosmosTiming {
            bus_bits: 128,
            burst_length: 8,
            burst_beat: Time::from_nanos(1.0),
            read_time: Time::from_nanos(25.0),
            erase_time: Time::from_nanos(250.0),
            write_time: Time::from_micros(1.6),
            subarray_switch_time: Time::from_nanos(100.0),
            interface_delay: Time::from_nanos(105.0),
        }
    }

    /// Bytes per access.
    pub fn access_bytes(&self) -> u64 {
        (self.bus_bits as u64 * self.burst_length as u64) / 8
    }

    /// Bus occupancy of one access.
    pub fn burst_time(&self) -> Time {
        self.burst_beat * self.burst_length as f64
    }

    /// Duration of one subtractive read sequence: read + row reset + read
    /// (the subtraction itself happens electronically at the controller).
    pub fn subtractive_read_time(&self) -> Time {
        self.read_time + self.erase_time + self.read_time
    }
}

impl Default for CosmosTiming {
    fn default() -> Self {
        Self::table_ii()
    }
}

/// A COSMOS memory configuration.
///
/// # Examples
///
/// ```
/// use cosmos::CosmosConfig;
///
/// let cfg = CosmosConfig::corrected();
/// // (B × N_r × N_c × b) = 16 × 16384 × 16384 × 2 = 2^33 bits.
/// assert_eq!(cfg.capacity_bits().value(), 1 << 33);
/// assert_eq!(cfg.bits_per_cell, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CosmosConfig {
    /// Report name.
    pub name: String,
    /// Banks (requires an MDM degree equal to the bank count — the paper
    /// generously assumes the 16-mode losses away).
    pub banks: u64,
    /// Rows per bank (`N_r`).
    pub rows: u64,
    /// Cell columns per bank (`N_c`).
    pub cols: u64,
    /// Subarray side (`M_r = M_c = 32` in the corrected variant).
    pub subarray_side: u64,
    /// Bits per cell.
    pub bits_per_cell: u8,
    /// Read-out transmittance per level, most-transmissive first.
    pub level_transmittances: Vec<f64>,
    /// Write pulse energy actually delivered to a cell.
    pub write_energy: Energy,
    /// Whether the subtractive-read sequence is modeled on the timing
    /// path (true for faithful evaluation; false reproduces the original
    /// paper's optimistic single-read accounting).
    pub model_subtractive_read: bool,
    /// Cache line size.
    pub cache_line: ByteCount,
    /// Optical constants.
    pub optical: OpticalParams,
    /// Timing.
    pub timing: CosmosTiming,
}

impl CosmosConfig {
    /// The corrected COSMOS the paper compares against (Section IV.B).
    pub fn corrected() -> Self {
        CosmosConfig {
            name: "COSMOS".into(),
            banks: 16,
            rows: 16384,
            cols: 16384,
            subarray_side: 32,
            bits_per_cell: 2,
            // Four asymmetric levels, 9% spacing, avoiding the lossy
            // high-crystalline-fraction states.
            level_transmittances: vec![0.99, 0.90, 0.81, 0.72],
            // 5 mW × 150 ns class pulses (250-750 pJ range from [17]).
            write_energy: Energy::from_picojoules(750.0),
            model_subtractive_read: true,
            cache_line: ByteCount::new(128),
            optical: OpticalParams::table_i(),
            timing: CosmosTiming::table_ii(),
        }
    }

    /// COSMOS as originally published: 4 bits/cell with ~6 % spacing and
    /// no crosstalk mitigation — the configuration Fig. 2 corrupts.
    pub fn original() -> Self {
        let spacing = 0.06;
        let levels: Vec<f64> = (0..16).map(|k| 0.95 - spacing * k as f64).collect();
        CosmosConfig {
            name: "COSMOS-original".into(),
            bits_per_cell: 4,
            level_transmittances: levels,
            model_subtractive_read: false,
            ..Self::corrected()
        }
    }

    /// Total capacity in bits: `B × N_r × N_c × b`.
    pub fn capacity_bits(&self) -> BitCount {
        BitCount::new(self.banks * self.rows * self.cols * self.bits_per_cell as u64)
    }

    /// Cells per cache line.
    pub fn cells_per_line(&self) -> u64 {
        self.cache_line.to_bits().value() / self.bits_per_cell as u64
    }

    /// Cache-line slots per bank row.
    pub fn line_slots_per_row(&self) -> u64 {
        self.cols * self.bits_per_cell as u64 / self.cache_line.to_bits().value()
    }

    /// Subarrays per bank (grid of `subarray_side²` cells each).
    pub fn subarrays_per_bank(&self) -> u64 {
        (self.rows / self.subarray_side) * (self.cols / self.subarray_side)
    }

    /// SOA arrays per subarray from the worst-case in-array loss: the
    /// paper derives 6 for the corrected design (1.4 dB worst per-cell loss
    /// over 32 cells against 15.2 dB usable gain, row and column paths).
    pub fn soa_arrays_per_subarray(&self) -> u64 {
        let worst_cell_loss_db = -10.0
            * self
                .level_transmittances
                .last()
                .copied()
                .unwrap_or(0.72)
                .log10();
        // The paper works with the rounded 1.4 dB figure.
        let worst_cell_loss_db = (worst_cell_loss_db * 10.0).round() / 10.0;
        let per_path_db = worst_cell_loss_db * self.subarray_side as f64;
        // Row and column paths both need coverage.
        let total_db = 2.0 * per_path_db;
        (total_db / self.optical.intra_subarray_soa_gain.value()).ceil() as u64
    }
}

impl Default for CosmosConfig {
    fn default() -> Self {
        Self::corrected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrected_capacity_is_8_gbit() {
        assert_eq!(CosmosConfig::corrected().capacity_bits().value(), 1 << 33);
    }

    #[test]
    fn corrected_has_four_asymmetric_levels() {
        let cfg = CosmosConfig::corrected();
        assert_eq!(cfg.level_transmittances.len(), 4);
        for w in cfg.level_transmittances.windows(2) {
            assert!((w[0] - w[1] - 0.09).abs() < 1e-9, "9% spacing");
        }
    }

    #[test]
    fn six_soa_arrays_per_subarray() {
        // The paper: "this also requires 6 SOA arrays ... per subarray".
        assert_eq!(CosmosConfig::corrected().soa_arrays_per_subarray(), 6);
    }

    #[test]
    fn original_is_4_bit() {
        let cfg = CosmosConfig::original();
        assert_eq!(cfg.bits_per_cell, 4);
        assert_eq!(cfg.level_transmittances.len(), 16);
        // Same total cell count, double the bits of the corrected variant.
        assert_eq!(
            cfg.capacity_bits().value(),
            2 * CosmosConfig::corrected().capacity_bits().value()
        );
    }

    #[test]
    fn subtractive_read_time() {
        let t = CosmosTiming::table_ii();
        // 25 + 250 + 25 = 300 ns.
        assert!((t.subtractive_read_time().as_nanos() - 300.0).abs() < 1e-9);
        assert_eq!(t.access_bytes(), 128);
    }

    #[test]
    fn line_geometry() {
        let cfg = CosmosConfig::corrected();
        assert_eq!(cfg.cells_per_line(), 512);
        assert_eq!(cfg.line_slots_per_row(), 32);
        assert_eq!(cfg.subarrays_per_bank(), 512 * 512);
    }
}
