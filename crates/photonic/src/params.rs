//! The optical loss and power parameters of the paper's Table I.
//!
//! Every architecture-level power/loss computation in the workspace pulls
//! its constants from [`OpticalParams`] so that a single table (defaulting
//! to the paper's values, with citations preserved in the field docs)
//! parameterizes the whole stack, and sensitivity studies can sweep it.

use comet_units::{Decibels, Length, Power};

/// Optical loss and power parameters (paper Table I).
///
/// # Examples
///
/// ```
/// use photonic::OpticalParams;
///
/// let p = OpticalParams::default();
/// assert_eq!(p.coupling_loss.value(), 1.0);
/// assert_eq!(p.laser_wall_plug_efficiency, 0.2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpticalParams {
    /// Fiber/laser-to-chip coupling loss (1 dB, Batten et al. \[33]).
    pub coupling_loss: Decibels,
    /// Passive microring drop loss (0.5 dB, Yahya et al. \[34]).
    pub mr_drop_loss: Decibels,
    /// Passive microring through loss (0.02 dB, Pasricha & Bahirat \[35]).
    pub mr_through_loss: Decibels,
    /// Electro-optically tuned microring drop loss (1.6 dB, Poon et al. \[36]).
    pub eo_mr_drop_loss: Decibels,
    /// Electro-optically tuned microring through loss (0.33 dB, \[36]).
    pub eo_mr_through_loss: Decibels,
    /// Waveguide propagation loss per centimetre (0.1 dB/cm, Zhang et al. \[37]).
    pub propagation_loss_per_cm: Decibels,
    /// Bend loss per 90° (0.01 dB, Behadori et al. \[38]).
    pub bend_loss_per_90: Decibels,
    /// GST waveguide-switch insertion loss in the coupled (amorphous)
    /// state (0.2 dB, Taheri et al. \[39]).
    pub gst_switch_loss: Decibels,
    /// Nominal SOA gain available for loss compensation (20 dB, Table I).
    pub soa_gain: Decibels,
    /// Usable gain of the intra-subarray SOAs (15.2 dB, Lin et al. \[29]):
    /// sets the SOA re-amplification spacing inside subarrays.
    pub intra_subarray_soa_gain: Decibels,
    /// Laser wall-plug efficiency (20%).
    pub laser_wall_plug_efficiency: f64,
    /// Electro-optic tuning power per nm of resonance shift (4 µW/nm,
    /// Stefan et al. \[25]).
    pub eo_tuning_power_per_nm: Power,
    /// Maximum optical power allowed at a GST cell during normal
    /// (crystalline-reset-mode) operation (1 mW).
    pub max_power_at_cell: Power,
    /// Power drawn by one active intra-subarray SOA (1.4 mW for 0 dBm
    /// output, Lin et al. \[29]).
    pub intra_subarray_soa_power: Power,
}

impl Default for OpticalParams {
    fn default() -> Self {
        OpticalParams {
            coupling_loss: Decibels::new(1.0),
            mr_drop_loss: Decibels::new(0.5),
            mr_through_loss: Decibels::new(0.02),
            eo_mr_drop_loss: Decibels::new(1.6),
            eo_mr_through_loss: Decibels::new(0.33),
            propagation_loss_per_cm: Decibels::new(0.1),
            bend_loss_per_90: Decibels::new(0.01),
            gst_switch_loss: Decibels::new(0.2),
            soa_gain: Decibels::new(20.0),
            intra_subarray_soa_gain: Decibels::new(15.2),
            laser_wall_plug_efficiency: 0.2,
            eo_tuning_power_per_nm: Power::from_microwatts(4.0),
            max_power_at_cell: Power::from_milliwatts(1.0),
            intra_subarray_soa_power: Power::from_milliwatts(1.4),
        }
    }
}

impl OpticalParams {
    /// The paper's Table I values (same as `Default`).
    pub fn table_i() -> Self {
        Self::default()
    }

    /// Propagation loss over a waveguide run.
    pub fn propagation_loss(&self, length: Length) -> Decibels {
        self.propagation_loss_per_cm * length.as_centimeters()
    }

    /// Loss of `count` 90° bends.
    pub fn bend_loss(&self, count: u32) -> Decibels {
        self.bend_loss_per_90 * count as f64
    }

    /// EO tuning power for a given resonance shift.
    pub fn eo_tuning_power(&self, shift: Length) -> Power {
        Power::from_watts(self.eo_tuning_power_per_nm.as_watts() * shift.as_nanometers())
    }

    /// How many EO-tuned-MR row passes a signal can survive between
    /// re-amplification points, given the intra-subarray SOA gain:
    /// `floor(gain / through-loss)`. With Table I values this is the
    /// paper's "SOA array at every 46 rows".
    pub fn rows_per_soa_stage(&self) -> usize {
        (self.intra_subarray_soa_gain.value() / self.eo_mr_through_loss.value()).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_values() {
        let p = OpticalParams::table_i();
        assert_eq!(p.mr_drop_loss.value(), 0.5);
        assert_eq!(p.mr_through_loss.value(), 0.02);
        assert_eq!(p.eo_mr_drop_loss.value(), 1.6);
        assert_eq!(p.eo_mr_through_loss.value(), 0.33);
        assert_eq!(p.gst_switch_loss.value(), 0.2);
        assert_eq!(p.soa_gain.value(), 20.0);
        assert!((p.eo_tuning_power_per_nm.as_microwatts() - 4.0).abs() < 1e-12);
        assert!((p.intra_subarray_soa_power.as_milliwatts() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn soa_spacing_is_46_rows() {
        // 15.2 dB / 0.33 dB = 46.06 -> 46 rows, the paper's Section III.E.
        assert_eq!(OpticalParams::table_i().rows_per_soa_stage(), 46);
    }

    #[test]
    fn propagation_and_bends() {
        let p = OpticalParams::table_i();
        let run = p.propagation_loss(Length::from_centimeters(2.0));
        assert!((run.value() - 0.2).abs() < 1e-12);
        assert!((p.bend_loss(4).value() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn eo_tuning_power_scales_with_shift() {
        let p = OpticalParams::table_i();
        let one_nm = p.eo_tuning_power(Length::from_nanometers(1.0));
        assert!((one_nm.as_microwatts() - 4.0).abs() < 1e-12);
        let half = p.eo_tuning_power(Length::from_nanometers(0.5));
        assert!((half.as_microwatts() - 2.0).abs() < 1e-12);
    }
}
