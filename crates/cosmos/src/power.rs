//! COSMOS power stack (the right-hand bar of the paper's Fig. 8).
//!
//! Component-wise, mirroring the COMET model with the corrected COSMOS's
//! structural differences:
//!
//! * **Laser** — cells need 5 mW (not 1 mW) pulses; per access each bank
//!   lights its `M_c = 32` subarray wavelengths through coupling,
//!   propagation, the PCM row switch, the dedicated subarray ports
//!   (passive MR drop in/out) and the worst in-array cell loss. The 16-way
//!   MDM penalty is waived — the paper's "generous assumption".
//! * **SOA** — 6 SOA arrays per subarray × 32 lines, for the banks'
//!   active subarrays.
//! * **Tuning** — the crossbar has no EO-tuned rings (passive ports), so
//!   only the PCM row switches consume (negligible static) tuning power.
//! * **Interface** — one lane per bus bit per bank.

use crate::arch::CosmosConfig;
use comet::PowerStack;
use comet_units::{Decibels, Power};
use photonic::{Laser, OpticalPath, PathElement};

/// Power model of a COSMOS configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CosmosPowerModel {
    /// The architecture being modeled.
    pub config: CosmosConfig,
    /// Cell target power (5 mW for reliable GST operation — the paper's
    /// central correction to COSMOS's 0.5 mW assumption).
    pub cell_target: Power,
    /// Routing distance from coupler to the farthest bank.
    pub routing_length: comet_units::Length,
    /// Per-lane electrical interface power.
    pub interface_lane_power: Power,
}

impl CosmosPowerModel {
    /// Default physical assumptions (matching the COMET model's scale).
    pub fn new(config: CosmosConfig) -> Self {
        CosmosPowerModel {
            config,
            cell_target: Power::from_milliwatts(5.0),
            routing_length: comet_units::Length::from_centimeters(2.0),
            interface_lane_power: Power::from_milliwatts(1.0),
        }
    }

    /// The laser → cell path of the corrected COSMOS.
    pub fn access_path(&self) -> OpticalPath {
        let mut path = OpticalPath::new();
        path.push(PathElement::Coupler)
            .push(PathElement::Propagation(self.routing_length))
            .push(PathElement::Bends(4))
            .push(PathElement::GstSwitch) // PCM subarray-row switch
            .push(PathElement::MrDrop) // dedicated subarray in-port
            .push(PathElement::MrDrop) // dedicated subarray out-port
            // Worst-case in-array traversal before the first SOA stage:
            // the paper's 1.4 dB worst-case figure.
            .push(PathElement::Fixed(Decibels::new(1.4)));
        path
    }

    /// Laser wall-plug power: `B × M_c` active wavelengths at 5 mW targets.
    ///
    /// The subtractive read doubles the illumination duty (the subarray is
    /// read in full before *and* after the row reset), so the laser's
    /// time-averaged draw doubles relative to a single-pass design.
    pub fn laser_power(&self) -> Power {
        let laser = Laser::new(self.config.optical.laser_wall_plug_efficiency);
        let loss = self.access_path().total_loss(&self.config.optical);
        let channels = (self.config.banks * self.config.subarray_side) as usize;
        let activity = if self.config.model_subtractive_read {
            2.0
        } else {
            1.0
        };
        laser.electrical_power_for_channels(self.cell_target, loss, channels) * activity
    }

    /// Active SOA power: 6 arrays × `M_c` lines per active subarray, per
    /// bank, at the subtractive read's *double* activity (the whole
    /// subarray is illuminated twice per read).
    pub fn soa_power(&self) -> Power {
        let per_subarray = self.config.soa_arrays_per_subarray() * self.config.subarray_side;
        let active = per_subarray * self.config.banks;
        let activity = if self.config.model_subtractive_read {
            2.0
        } else {
            1.0
        };
        self.config.optical.intra_subarray_soa_power * active as f64 * activity
    }

    /// Tuning power: the crossbar uses passive ports; only the PCM row
    /// switches hold state (negligible static power, charged at one EO
    /// figure per active bank for fairness).
    pub fn tuning_power(&self) -> Power {
        let per_switch = self
            .config
            .optical
            .eo_tuning_power(comet_units::Length::from_nanometers(1.0));
        per_switch * self.config.banks as f64
    }

    /// Electrical interface power: one lane per bus bit per bank.
    pub fn interface_power(&self) -> Power {
        self.interface_lane_power * (self.config.banks * self.config.timing.bus_bits as u64) as f64
    }

    /// The full stack (Fig. 8's COSMOS bar).
    pub fn stack(&self) -> PowerStack {
        PowerStack {
            laser: self.laser_power(),
            soa: self.soa_power(),
            tuning: self.tuning_power(),
            interface: self.interface_power(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet::{CometConfig, CometPowerModel};

    fn model() -> CosmosPowerModel {
        CosmosPowerModel::new(CosmosConfig::corrected())
    }

    #[test]
    fn laser_dominates_cosmos_stack() {
        // Fig. 8's observation for both architectures.
        let s = model().stack();
        assert!(s.laser.as_watts() > s.soa.as_watts());
        assert!(
            s.laser / s.total() > 0.5,
            "laser share {}",
            s.laser / s.total()
        );
    }

    #[test]
    fn comet_consumes_less_than_cosmos() {
        // Fig. 8 headline: COMET uses a fraction of COSMOS's power (the
        // paper quotes 26%; our component model lands in the same
        // direction — see EXPERIMENTS.md for the measured ratio).
        let cosmos = model().stack().total();
        let comet = CometPowerModel::new(CometConfig::comet_4b())
            .stack()
            .total();
        assert!(
            comet.as_watts() < cosmos.as_watts(),
            "COMET {} should undercut COSMOS {}",
            comet,
            cosmos
        );
    }

    #[test]
    fn five_milliwatt_targets_drive_laser_power() {
        let base = model();
        let mut cheap = model();
        cheap.cell_target = Power::from_milliwatts(1.0);
        assert!(
            (base.laser_power().as_watts() / cheap.laser_power().as_watts() - 5.0).abs() < 0.01
        );
    }

    #[test]
    fn subtractive_read_doubles_soa_activity() {
        let real = model();
        let mut optimistic = model();
        optimistic.config.model_subtractive_read = false;
        assert!(
            (real.soa_power().as_watts() / optimistic.soa_power().as_watts() - 2.0).abs() < 1e-9
        );
    }

    #[test]
    fn stack_total_in_expected_decade() {
        let total = model().stack().total().as_watts();
        assert!((20.0..=120.0).contains(&total), "total {total} W");
    }
}
