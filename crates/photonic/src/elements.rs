//! Photonic circuit elements and their signal-level effects.
//!
//! Each element maps to one row of the paper's Table I; an
//! [`OpticalPath`](crate::OpticalPath) strings elements together to produce
//! the loss budgets behind the laser-power model (Section III.E).

use crate::params::OpticalParams;
use comet_units::{Decibels, Length, Time};
use std::fmt;

/// How a microring resonator is moved in/out of resonance.
///
/// The paper's key circuit-level decision (Section II.B): thermal tuning is
/// nearly lossless but takes microseconds per access; electro-optic (EO)
/// carrier-injection tuning switches in ~2 ns at the cost of extra loss.
/// COMET chooses EO tuning and pays the loss with SOAs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MrTuning {
    /// Thermo-optic (heater) tuning: µs-scale, low loss.
    Thermal,
    /// Electro-optic (PN-junction carrier injection): ns-scale, lossy.
    ElectroOptic,
}

impl MrTuning {
    /// Typical tuning latency of the mechanism.
    pub fn latency(self) -> Time {
        match self {
            // PWM-driven thermally tuned MRs (paper ref [24]) settle in µs.
            MrTuning::Thermal => Time::from_micros(4.0),
            // EO tuning via carrier injection (paper refs [25],[36]): ~2 ns.
            MrTuning::ElectroOptic => Time::from_nanos(2.0),
        }
    }

    /// Through-port loss of an MR tuned with this mechanism.
    pub fn through_loss(self, params: &OpticalParams) -> Decibels {
        match self {
            MrTuning::Thermal => params.mr_through_loss,
            MrTuning::ElectroOptic => params.eo_mr_through_loss,
        }
    }

    /// Drop-port loss of an MR tuned with this mechanism.
    pub fn drop_loss(self, params: &OpticalParams) -> Decibels {
        match self {
            MrTuning::Thermal => params.mr_drop_loss,
            MrTuning::ElectroOptic => params.eo_mr_drop_loss,
        }
    }
}

impl fmt::Display for MrTuning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrTuning::Thermal => write!(f, "thermal"),
            MrTuning::ElectroOptic => write!(f, "electro-optic"),
        }
    }
}

/// One element along an optical signal path.
///
/// Losses are positive [`Decibels`]; the SOA is the only gain element and
/// contributes a negative net figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathElement {
    /// Laser/fiber to chip coupler.
    Coupler,
    /// Passive MR passed on its through port.
    MrThrough,
    /// Passive MR used as a drop filter.
    MrDrop,
    /// Actively tuned MR passed on its through port.
    TunedMrThrough(MrTuning),
    /// Actively tuned MR dropping the signal to a cell.
    TunedMrDrop(MrTuning),
    /// Straight waveguide propagation.
    Propagation(Length),
    /// `n` 90° bends.
    Bends(u32),
    /// GST-based waveguide switch in its coupled (amorphous) state.
    GstSwitch,
    /// A 1:N optical power splitter (3.01 dB per doubling, ideal).
    Splitter {
        /// Number of output ways.
        ways: u32,
    },
    /// A PCM memory cell in its most transmissive (amorphous) state,
    /// carrying the insertion loss its
    /// [`CellOpticalModel`](crate::CellOpticalModel) reports — see
    /// [`OpticalPath::push_cell`](crate::OpticalPath::push_cell).
    Cell(Decibels),
    /// A fixed extra loss (e.g. a PCM cell at a known state).
    Fixed(Decibels),
    /// A semiconductor optical amplifier providing gain.
    Soa {
        /// Gain provided (positive value).
        gain: Decibels,
    },
}

impl PathElement {
    /// The net signal-level change of this element: positive = loss,
    /// negative = gain.
    pub fn net_loss(&self, params: &OpticalParams) -> Decibels {
        match *self {
            PathElement::Coupler => params.coupling_loss,
            PathElement::MrThrough => params.mr_through_loss,
            PathElement::MrDrop => params.mr_drop_loss,
            PathElement::TunedMrThrough(t) => t.through_loss(params),
            PathElement::TunedMrDrop(t) => t.drop_loss(params),
            PathElement::Propagation(len) => params.propagation_loss(len),
            PathElement::Bends(n) => params.bend_loss(n),
            PathElement::GstSwitch => params.gst_switch_loss,
            PathElement::Splitter { ways } => {
                assert!(ways >= 1, "splitter must have at least one way");
                Decibels::new(10.0 * (ways as f64).log10())
            }
            PathElement::Cell(insertion) => insertion,
            PathElement::Fixed(db) => db,
            PathElement::Soa { gain } => -gain,
        }
    }

    /// Whether this element amplifies rather than attenuates.
    pub fn is_gain(&self) -> bool {
        matches!(self, PathElement::Soa { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> OpticalParams {
        OpticalParams::table_i()
    }

    #[test]
    fn eo_vs_thermal_tradeoff() {
        // EO is ~2000x faster but ~16x lossier on the through port —
        // the crux of the paper's Section II.B argument.
        let p = params();
        let eo = MrTuning::ElectroOptic;
        let th = MrTuning::Thermal;
        assert!(th.latency() / eo.latency() > 1000.0);
        assert!(eo.through_loss(&p).value() / th.through_loss(&p).value() > 10.0);
    }

    #[test]
    fn element_losses_match_table_i() {
        let p = params();
        assert_eq!(PathElement::Coupler.net_loss(&p).value(), 1.0);
        assert_eq!(PathElement::MrThrough.net_loss(&p).value(), 0.02);
        assert_eq!(
            PathElement::TunedMrDrop(MrTuning::ElectroOptic)
                .net_loss(&p)
                .value(),
            1.6
        );
        assert_eq!(PathElement::GstSwitch.net_loss(&p).value(), 0.2);
    }

    #[test]
    fn splitter_loss_is_logarithmic() {
        let p = params();
        let two = PathElement::Splitter { ways: 2 }.net_loss(&p).value();
        let four = PathElement::Splitter { ways: 4 }.net_loss(&p).value();
        assert!((two - 3.0103).abs() < 1e-3);
        assert!((four - 2.0 * two).abs() < 1e-9);
    }

    #[test]
    fn soa_is_negative_loss() {
        let p = params();
        let soa = PathElement::Soa {
            gain: Decibels::new(15.2),
        };
        assert!(soa.is_gain());
        assert_eq!(soa.net_loss(&p).value(), -15.2);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_way_splitter_rejected() {
        let _ = PathElement::Splitter { ways: 0 }.net_loss(&params());
    }
}
