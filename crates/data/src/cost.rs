//! Per-transition write costs derived from the physics layer.
//!
//! [`opcm_phys::ProgramTable`] already knows, per MLC level, the pulse
//! that programs it *from the reset state* — energy and duration from the
//! inverted optics+thermal model (the paper's Fig. 6, and the
//! per-level-transition measurements of Sevison et al.'s 2-dimensional
//! 4-bit GST memory). [`TransitionCostModel`] turns that table into a
//! level→level price:
//!
//! * **Along the programming direction** (toward the state writes move
//!   the cell — crystallizing in amorphous-reset mode), programming is
//!   cumulative: continuing from level `a` to a deeper level `b` costs the
//!   pulse *difference* `E(b) − E(a)` (the table's energies are monotone
//!   along this axis, pinned by `opcm-phys` tests).
//! * **Against it**, the cell must be reset first: `reset + E(b)`.
//! * Either way the price is capped at the **via-reset** path, so no
//!   transition ever costs more than erase-and-rewrite.
//!
//! A content-oblivious write prices every cell at the via-reset path —
//! the device cannot skip the erase without reading first — which is what
//! makes DCW's read-modify-compare a strict win: a conserved cell costs
//! one read probe instead of a full reset+program.

use comet_units::{Energy, Time};
use opcm_phys::{CellThermalModel, ProgramMode, ProgramTable};
use std::fmt;
use std::sync::OnceLock;

/// A `(energy, latency)` price pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Price {
    /// Pulse energy.
    pub energy: Energy,
    /// Pulse duration (cells program in parallel; callers take the max).
    pub latency: Time,
}

impl Price {
    /// The zero price (conserved cell).
    pub const ZERO: Price = Price {
        energy: Energy::ZERO,
        latency: Time::ZERO,
    };

    fn add(self, other: Price) -> Price {
        Price {
            energy: self.energy + other.energy,
            latency: self.latency + other.latency,
        }
    }
}

/// Level→level write prices for one cell technology.
///
/// # Examples
///
/// ```no_run
/// use comet_data::TransitionCostModel;
/// use comet_units::Energy;
///
/// let costs = TransitionCostModel::gst(4);
/// // A conserved cell is free; every real transition costs energy.
/// assert_eq!(costs.transition(3, 3).energy, Energy::ZERO);
/// assert!(costs.transition(3, 9).energy > Energy::ZERO);
/// // No transition beats erase-and-rewrite.
/// assert!(costs.transition(9, 3).energy <= costs.oblivious(3).energy);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionCostModel {
    /// Bits per cell.
    bits: u8,
    /// Per-level program price from the reset state, index = level.
    program: Vec<Price>,
    /// The reset (erase) price.
    reset: Price,
    /// The level of the reset state (0 in amorphous-reset mode,
    /// `levels-1` in crystalline-reset mode).
    reset_level: u8,
    /// Per-cell read probe price (the RMW overhead DCW-class policies pay
    /// on every cell of every write).
    read: Price,
    /// Every level→level price, row-major by old level (filled once).
    matrix: Vec<Price>,
    /// Every level's content-oblivious price (filled once).
    via_reset: Vec<Price>,
}

impl TransitionCostModel {
    /// Derives the price matrix from a generated programming table. The
    /// read probe defaults to the COMET read pulse (0.1 mW × 10 ns = 1 pJ).
    pub fn from_program_table(table: &ProgramTable) -> Self {
        let program = table
            .levels
            .iter()
            .map(|l| Price {
                energy: l.energy(),
                latency: l.latency(),
            })
            .collect();
        let reset_level = match table.mode {
            ProgramMode::AmorphousReset => 0,
            ProgramMode::CrystallineReset => (table.levels.len() - 1) as u8,
        };
        let mut model = TransitionCostModel {
            bits: table.bits,
            program,
            reset: Price {
                energy: table.reset.energy(),
                latency: table.reset.pulse.duration,
            },
            reset_level,
            read: Price {
                energy: Energy::from_picojoules(1.0),
                latency: Time::from_nanos(10.0),
            },
            matrix: Vec::new(),
            via_reset: Vec::new(),
        };
        let levels = model.levels();
        model.via_reset = (0..levels).map(|new| model.price_via_reset(new)).collect();
        model.matrix = (0..levels)
            .flat_map(|old| (0..levels).map(move |new| (old, new)))
            .map(|(old, new)| model.price_transition(old, new))
            .collect();
        model
    }

    /// The workspace's reference model: the COMET GST cell programmed in
    /// amorphous-reset mode (the paper's Fig. 6 case 2) at `bits`/cell.
    /// Each width's model is built once per process, so repeated
    /// construction (one per device build) is a clone.
    ///
    /// # Panics
    ///
    /// Panics if the cell cannot host `2^bits` distinguishable levels
    /// (GST supports up to 4 bits).
    pub fn gst(bits: u8) -> Self {
        static MODELS: [OnceLock<TransitionCostModel>; 6] = [
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
        ];
        assert!((1..=6).contains(&bits), "bits per cell must be in 1..=6");
        MODELS[bits as usize - 1]
            .get_or_init(|| {
                let table = ProgramTable::generate(
                    &CellThermalModel::comet_gst(),
                    ProgramMode::AmorphousReset,
                    bits,
                )
                .expect("the COMET GST cell hosts up to 4 bits/cell");
                Self::from_program_table(&table)
            })
            .clone()
    }

    /// Bits per cell.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of levels.
    pub fn levels(&self) -> u8 {
        self.program.len() as u8
    }

    /// The per-cell read probe price.
    pub fn read_probe(&self) -> Price {
        self.read
    }

    /// The erase (reset) price — also the Flip-N-Write flip margin: a
    /// flip must bank at least one erase's worth of energy.
    pub fn reset_price(&self) -> Price {
        self.reset
    }

    /// The level the erased array sits at (0 for amorphous-reset tables,
    /// `levels - 1` for crystalline-reset ones).
    pub fn reset_level(&self) -> u8 {
        self.reset_level
    }

    /// Whether programming moves cells from `from` toward `to` without an
    /// intervening reset (cumulative pulses).
    fn along_programming_axis(&self, from: u8, to: u8) -> bool {
        if self.reset_level == 0 {
            to >= from
        } else {
            to <= from
        }
    }

    /// The price of moving one cell from level `old` to level `new`:
    /// zero when conserved, the cumulative pulse difference along the
    /// programming direction, and the via-reset path otherwise — never
    /// more than [`TransitionCostModel::oblivious`]. A lookup in the
    /// matrix filled at construction.
    #[inline]
    pub fn transition(&self, old: u8, new: u8) -> Price {
        let n = self.levels();
        assert!(old < n && new < n, "level range");
        self.transitions_from(old)[new as usize]
    }

    /// Every price out of level `old`, indexed by the new level: one row
    /// of the matrix behind [`TransitionCostModel::transition`].
    ///
    /// # Panics
    ///
    /// Panics if `old` is not a level.
    #[inline]
    pub(crate) fn transitions_from(&self, old: u8) -> &[Price] {
        let n = self.program.len();
        &self.matrix[old as usize * n..][..n]
    }

    /// The content-oblivious per-cell price: erase, then program the
    /// target level from reset — what a write costs when the device does
    /// not know the cell's current state. A lookup in the vector filled at
    /// construction.
    #[inline]
    pub fn oblivious(&self, new: u8) -> Price {
        self.via_reset[new as usize]
    }

    /// Computes one matrix entry (see [`TransitionCostModel::transition`]).
    fn price_transition(&self, old: u8, new: u8) -> Price {
        if old == new {
            return Price::ZERO;
        }
        let via_reset = self.price_via_reset(new);
        if self.along_programming_axis(old, new) {
            let (a, b) = (self.program[old as usize], self.program[new as usize]);
            let direct = Price {
                energy: (b.energy - a.energy).max(Energy::ZERO),
                latency: (b.latency - a.latency).max(Time::ZERO),
            };
            if direct.energy <= via_reset.energy {
                return direct;
            }
        }
        via_reset
    }

    /// Computes one level's via-reset price (see
    /// [`TransitionCostModel::oblivious`]).
    fn price_via_reset(&self, new: u8) -> Price {
        self.reset.add(self.program[new as usize])
    }

    /// The worst per-cell price in the matrix (used to price writes whose
    /// content is unknown).
    pub fn worst_case(&self) -> Price {
        let energy = self
            .program
            .iter()
            .map(|p| p.energy)
            .fold(Energy::ZERO, Energy::max);
        let latency = self
            .program
            .iter()
            .map(|p| p.latency)
            .fold(Time::ZERO, Time::max);
        self.reset.add(Price { energy, latency })
    }
}

impl fmt::Display for TransitionCostModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-level transition costs (reset {:.0} pJ, worst program {:.0} pJ)",
            self.levels(),
            self.reset.energy.as_picojoules(),
            self.worst_case().energy.as_picojoules() - self.reset.energy.as_picojoules(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> &'static TransitionCostModel {
        static MODEL: OnceLock<TransitionCostModel> = OnceLock::new();
        MODEL.get_or_init(|| TransitionCostModel::gst(4))
    }

    #[test]
    fn conserved_cells_are_free_and_transitions_are_not() {
        let m = model();
        assert_eq!(m.levels(), 16);
        for l in 0..16 {
            assert_eq!(m.transition(l, l), Price::ZERO);
        }
        // Deeper crystallization from a shallower level costs the delta.
        let t = m.transition(2, 10);
        assert!(t.energy > Energy::ZERO);
        assert!(t.latency > Time::ZERO);
    }

    #[test]
    fn no_transition_beats_erase_and_rewrite() {
        let m = model();
        for old in 0..16u8 {
            for new in 0..16u8 {
                let t = m.transition(old, new);
                let o = m.oblivious(new);
                assert!(
                    t.energy <= o.energy,
                    "{old}->{new}: {} > {}",
                    t.energy,
                    o.energy
                );
                assert!(o.energy <= m.worst_case().energy);
            }
        }
    }

    #[test]
    fn amorphizing_transitions_pay_the_reset() {
        let m = model();
        // Going back toward amorphous (lower level) requires erase.
        let back = m.transition(12, 3);
        assert_eq!(back, m.oblivious(3));
        assert!(back.energy >= m.transition(0, 3).energy);
    }

    #[test]
    fn cumulative_pulses_compose() {
        let m = model();
        // Programming 0 -> a -> b along the axis costs the same energy as
        // 0 -> b directly (telescoping deltas).
        let direct = m.transition(0, 9).energy;
        let stepped = m.transition(0, 4).energy + m.transition(4, 9).energy;
        assert!((direct.as_picojoules() - stepped.as_picojoules()).abs() < 1e-6);
    }

    #[test]
    fn read_probe_is_orders_cheaper_than_a_reset() {
        let m = model();
        assert!(m.read_probe().energy.as_picojoules() * 20.0 < m.reset.energy.as_picojoules());
    }
}
