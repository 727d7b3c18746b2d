//! Write-reduction policies: content-oblivious pricing, DCW, Flip-N-Write.
//!
//! [`DataWriteModel`] is the crate's [`memsim::WritePricer`]: it owns a
//! [`LineCodec`] and a [`TransitionCostModel`] and prices a line write
//! under one of three policies (Song et al., *Improving Phase Change
//! Memory Performance with Data Content Aware Access*):
//!
//! * [`DataPolicy::Oblivious`] — the array programs every cell to its
//!   target level (erase + program, no read): the content-priced
//!   baseline. The line store is unused.
//! * [`DataPolicy::Dcw`] — data-comparison write: the array reads the
//!   line first (one probe per cell), then programs only the cells whose
//!   level changes, each at its [`TransitionCostModel::transition`]
//!   price.
//! * [`DataPolicy::DcwFnw`] — DCW plus Flip-N-Write: cells group into
//!   32-data-bit words, each with one flip cell; per word the model keeps
//!   or toggles the flip state, toggling only on a Pareto win with
//!   margin (no more programmed cells, at least one erase's worth of
//!   energy saved). With one-bit cells and direction-symmetric costs
//!   this reduces to the classic bound — at most half a word's cells
//!   (flip cell included) ever program; with MLC chunks the flip inverts
//!   each cell's data bits.
//!
//! The stored cell image is *physical*: the post-flip levels plus one
//! flip byte per word, so the policy's decisions persist across writes.
//! First touch prices from the all-reset state (an erased array), which
//! keeps runs deterministic.
//!
//! **What the FNW ≤ DCW ordering does and does not guarantee.** From
//! equal stored state, FNW's keep option *is* the DCW write, so each
//! decision is never worse than DCW on programmed cells or energy — a
//! structural per-write property. Across a write *sequence* the two
//! stores diverge once a word flips, and a greedy flip can in principle
//! cost more later than it saved (a flipped word turns a cheap
//! along-axis transition into erase-and-rewrite); the margin exists to
//! drop exactly the marginal flips where that regret risk is largest.
//! The cumulative ordering over the swept payload sources is therefore
//! asserted empirically — `fig_write_energy_vs_entropy` and
//! `tests/data_plane.rs` pin it at fixed seeds as a regression gate —
//! not claimed as a theorem for adversarial write sequences.

use crate::codec::LineCodec;
use crate::cost::{Price, TransitionCostModel};
use comet_units::{Energy, Time};
use memsim::{LineData, PricedWrite, WriteCost, WritePricer, MAX_LINE_BYTES};
use std::fmt;

/// Data bits per Flip-N-Write word (the classic granularity).
const WORD_BITS: usize = 32;

/// Cells in the widest line at the narrowest width: one-bit cells over a
/// [`MAX_LINE_BYTES`] payload.
const MAX_CELLS: usize = MAX_LINE_BYTES * 8;

/// How a [`DataWriteModel`] prices writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataPolicy {
    /// Erase + program every cell; no read-modify-compare.
    Oblivious,
    /// Data-comparison write: program only changed cells.
    Dcw,
    /// DCW plus per-word Flip-N-Write.
    DcwFnw,
}

impl DataPolicy {
    /// All policies, in the cost-ordering direction (most to least
    /// expensive at equal content).
    pub const ALL: [DataPolicy; 3] = [DataPolicy::Oblivious, DataPolicy::Dcw, DataPolicy::DcwFnw];

    /// The registry/report label.
    pub fn label(self) -> &'static str {
        match self {
            DataPolicy::Oblivious => "oblivious",
            DataPolicy::Dcw => "dcw",
            DataPolicy::DcwFnw => "dcw-fnw",
        }
    }
}

impl fmt::Display for DataPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The crate's [`WritePricer`]: codec + transition costs + policy.
///
/// # Examples
///
/// ```no_run
/// use comet_data::{DataPolicy, DataWriteModel};
/// use memsim::{LineData, WritePricer};
///
/// let dcw = DataWriteModel::gst(4, DataPolicy::Dcw);
/// let line = LineData::from_bytes(&[0x5A; 64]);
/// let first = dcw.price_write(None, &line);
/// // Rewriting identical content conserves every cell.
/// let again = dcw.price_write(first.image.as_deref(), &line);
/// assert_eq!(again.cost.cells_written, 0);
/// assert!(again.cost.energy < first.cost.energy);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DataWriteModel {
    codec: LineCodec,
    costs: TransitionCostModel,
    policy: DataPolicy,
}

impl DataWriteModel {
    /// Builds a model from a codec and a cost table.
    ///
    /// # Panics
    ///
    /// Panics if the codec and the cost table disagree on bits per cell,
    /// or if the table was generated in crystalline-reset mode — the
    /// policies' first-touch state and flip-cell direction assume an
    /// erased array at level 0, so a crystalline-reset table would be
    /// silently mispriced rather than loudly rejected.
    pub fn new(codec: LineCodec, costs: TransitionCostModel, policy: DataPolicy) -> Self {
        assert_eq!(
            codec.bits(),
            costs.bits(),
            "codec and cost table must agree on bits/cell"
        );
        assert_eq!(
            costs.reset_level(),
            0,
            "DataWriteModel prices amorphous-reset tables only"
        );
        DataWriteModel {
            codec,
            costs,
            policy,
        }
    }

    /// The reference model: the COMET GST cell at `bits`/cell (see
    /// [`TransitionCostModel::gst`]).
    pub fn gst(bits: u8, policy: DataPolicy) -> Self {
        Self::new(LineCodec::new(bits), TransitionCostModel::gst(bits), policy)
    }

    /// The policy in force.
    pub fn policy(&self) -> DataPolicy {
        self.policy
    }

    /// The codec in force.
    pub fn codec(&self) -> &LineCodec {
        &self.codec
    }

    /// The transition cost table in force.
    pub fn costs(&self) -> &TransitionCostModel {
        &self.costs
    }

    /// Cells per Flip-N-Write word for this codec (32 data bits).
    pub fn word_cells(&self) -> usize {
        (WORD_BITS / self.codec.bits() as usize).max(1)
    }

    /// Splits a stored image into (cell levels, flip bytes). Images are
    /// written by this model, so the split is by construction; a missing
    /// image means an erased line (all cells at the reset level, flips 0).
    fn split_image<'i>(&self, image: &'i [u8], cells: usize) -> (&'i [u8], &'i [u8]) {
        image.split_at(cells.min(image.len()))
    }
}

/// The XOR that complements a Gray-coded `bits`-wide level's data chunk
/// (decode, invert the data bits, re-encode): Gray of the complement is
/// the Gray code with its top bit flipped, so flipping is an involution on
/// levels.
fn flip_xor(bits: u8) -> u8 {
    // gray(~v) = ~v ^ (~v >> 1) = (v ^ (v >> 1)) ^ top_bit  (within mask)
    let mask = (1u16 << bits) as u8 - 1;
    mask & !(mask >> 1)
}

/// The running price of one way of writing a word: programmed cells,
/// summed energy, slowest pulse.
#[derive(Clone, Copy)]
struct Tally {
    cells: u64,
    energy: Energy,
    latency: Time,
}

impl Tally {
    const ZERO: Tally = Tally {
        cells: 0,
        energy: Energy::ZERO,
        latency: Time::ZERO,
    };

    /// Adds one programmed cell.
    #[inline]
    fn add(&mut self, p: Price) {
        self.cells += 1;
        self.energy += p.energy;
        self.latency = slower(self.latency, p.latency);
    }
}

/// The longer of two pulse latencies. Prices never hold a NaN or a
/// negative zero, so this equals `Time::max` bit for bit; a compare and
/// a rarely taken branch keep the slowest-pulse fold off the loop's
/// dependency chain, which the NaN-aware `max` puts it on.
#[inline]
fn slower(a: Time, b: Time) -> Time {
    if b > a {
        b
    } else {
        a
    }
}

impl WritePricer for DataWriteModel {
    fn price_write(&self, stored: Option<&[u8]>, data: &LineData) -> PricedWrite {
        let cells = self.codec.cells_for(data.len());
        let mut encoded = [0u8; MAX_CELLS];
        self.codec.encode_into(data.bytes(), &mut encoded[..cells]);
        let new_levels = &encoded[..cells];

        if self.policy == DataPolicy::Oblivious {
            // Erase + program every cell; no state kept.
            let mut energy = Energy::ZERO;
            let mut latency = Time::ZERO;
            for &l in new_levels {
                let p = self.costs.oblivious(l);
                energy += p.energy;
                latency = slower(latency, p.latency);
            }
            return PricedWrite {
                cost: WriteCost {
                    energy,
                    latency,
                    cells_written: cells as u64,
                    cells_total: cells as u64,
                },
                image: None,
            };
        }

        // DCW-class policies read the whole line first (probes fire in
        // parallel across cells: one probe latency, per-cell energy).
        let probe = self.costs.read_probe();
        let mut energy = probe.energy * cells as f64;
        let mut pulse = Time::ZERO;
        let mut written = 0u64;

        let reset_level = self.costs.reset_level(); // 0: enforced by `new`
        let (old_levels, old_flips) = self.split_image(stored.unwrap_or(&[]), cells);
        // Cells the stored image does not cover sit erased.
        let mut erased;
        let old_levels = if old_levels.len() == cells {
            old_levels
        } else {
            erased = [reset_level; MAX_CELLS];
            erased[..old_levels.len()].copy_from_slice(old_levels);
            &erased[..cells]
        };

        let word = self.word_cells();
        let words = cells.div_ceil(word);
        let fnw = self.policy == DataPolicy::DcwFnw;
        let flip = flip_xor(self.codec.bits());
        let flip_margin = self.costs.reset_price().energy;
        let deepest = self.costs.levels() - 1;
        let mut image = vec![0u8; cells + words];
        let (image_levels, image_flips) = image.split_at_mut(cells);

        for (w, flip_slot) in image_flips.iter_mut().enumerate() {
            let span = (w * word)..((w * word + word).min(cells));
            let old = &old_levels[span.clone()];
            let target = &new_levels[span.clone()];
            let old_flip = old_flips.get(w).copied().unwrap_or(0) != 0;

            // One pass prices both options: `keep` writes the word under
            // its stored flip state (the plain DCW write), `toggle` under
            // the other one.
            let keep_xor = if old_flip { flip } else { 0 };
            let mut keep = Tally::ZERO;
            let mut toggle = Tally::ZERO;
            for (&o, &t) in old.iter().zip(target) {
                let from_o = self.costs.transitions_from(o);
                let k = t ^ keep_xor;
                if o != k {
                    keep.add(from_o[k as usize]);
                }
                if fnw && o != k ^ flip {
                    toggle.add(from_o[(k ^ flip) as usize]);
                }
            }
            let toggled = if fnw {
                // The flip cell toggles between the reset level and the
                // deepest level — one more transition on the same array.
                let (from, to) = if old_flip {
                    (deepest, reset_level)
                } else {
                    (reset_level, deepest)
                };
                toggle.add(self.costs.transition(from, to));
                // Toggle only on a Pareto win with margin: no more
                // programmed cells AND at least one erase's worth of
                // energy saved. The keep option *is* the plain DCW write,
                // so from equal stored state Flip-N-Write is never worse
                // than DCW on either axis. (Classic count-only FNW would
                // flip whenever it writes fewer cells; with per-transition
                // costs that can buy fewer-but-deeper pulses, so energy
                // gates the flip too. The margin drops *marginal* flips —
                // the ones whose banked saving could be dwarfed by a later
                // write's cost of being in the flipped domain; only
                // high-yield flips like full complements survive. The
                // greedy decision still cannot bound cumulative regret
                // structurally — see the module docs — which is why the
                // swept ordering is asserted as a pinned-seed regression
                // gate, not claimed as a theorem.)
                toggle.cells <= keep.cells && toggle.energy + flip_margin <= keep.energy
            } else {
                false
            };
            let (chosen, level_xor) = if toggled {
                (toggle, keep_xor ^ flip)
            } else {
                (keep, keep_xor)
            };

            written += chosen.cells;
            energy += chosen.energy;
            pulse = slower(pulse, chosen.latency);
            for (cell, &t) in image_levels[span].iter_mut().zip(target) {
                *cell = t ^ level_xor;
            }
            *flip_slot = (old_flip != toggled) as u8;
        }

        PricedWrite {
            cost: WriteCost {
                energy,
                // Read-modify-write: the probe precedes the slowest pulse.
                latency: probe.latency + pulse,
                cells_written: written,
                cells_total: cells as u64,
            },
            image: Some(image),
        }
    }

    fn price_unknown(&self, line_bytes: u64) -> WriteCost {
        let cells = self.codec.cells_for(line_bytes as usize) as u64;
        let worst = self.costs.worst_case();
        WriteCost {
            energy: worst.energy * cells as f64,
            latency: worst.latency,
            cells_written: cells,
            cells_total: cells,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn models() -> &'static [DataWriteModel; 3] {
        static MODELS: OnceLock<[DataWriteModel; 3]> = OnceLock::new();
        MODELS.get_or_init(|| {
            [
                DataWriteModel::gst(4, DataPolicy::Oblivious),
                DataWriteModel::gst(4, DataPolicy::Dcw),
                DataWriteModel::gst(4, DataPolicy::DcwFnw),
            ]
        })
    }

    fn line(fill: u8) -> LineData {
        LineData::from_bytes(&[fill; 64])
    }

    #[test]
    fn flip_level_is_the_data_complement() {
        for bits in 1..=6u8 {
            let codec = LineCodec::new(bits);
            let data: Vec<u8> = (0..32u8).collect();
            let plain = codec.encode(&data);
            let inverted: Vec<u8> = data.iter().map(|b| !b).collect();
            let flipped = codec.encode(&inverted);
            // Only cells fully inside the data: the padded tail cell's pad
            // bits flip with the chunk but stay zero under byte inversion
            // (harmless — pads are discarded on decode, and the flip is
            // applied consistently to old and new images).
            let full = (data.len() * 8) / bits as usize;
            for (p, f) in plain.iter().zip(&flipped).take(full) {
                assert_eq!(p ^ flip_xor(bits), *f, "bits={bits}");
            }
        }
    }

    #[test]
    fn identical_rewrite_is_conserved_under_dcw() {
        let [_, dcw, fnw] = models();
        for model in [dcw, fnw] {
            let first = model.price_write(None, &line(0x5A));
            let again = model.price_write(first.image.as_deref(), &line(0x5A));
            assert_eq!(again.cost.cells_written, 0, "{}", model.policy());
            // Only the read probe remains.
            assert!(again.cost.energy < first.cost.energy);
            assert_eq!(again.cost.latency, model.costs.read_probe().latency);
        }
    }

    #[test]
    fn policies_order_on_a_first_write() {
        let [obl, dcw, fnw] = models();
        for fill in [0x00u8, 0xFF, 0x5A, 0x13] {
            let o = obl.price_write(None, &line(fill)).cost.energy;
            let d = dcw.price_write(None, &line(fill)).cost.energy;
            let f = fnw.price_write(None, &line(fill)).cost.energy;
            assert!(f <= d, "fill {fill:#x}: fnw {f} > dcw {d}");
            assert!(d <= o, "fill {fill:#x}: dcw {d} > oblivious {o}");
        }
    }

    #[test]
    fn fnw_wins_on_complement_heavy_updates() {
        let [_, dcw, fnw] = models();
        let a = line(0x33);
        let b = line(!0x33); // full complement: every cell flips
        let dcw_img = dcw.price_write(None, &a);
        let fnw_img = fnw.price_write(None, &a);
        let d = dcw.price_write(dcw_img.image.as_deref(), &b).cost;
        let f = fnw.price_write(fnw_img.image.as_deref(), &b).cost;
        // DCW programs every cell; FNW toggles one flip cell per word.
        assert_eq!(d.cells_written, d.cells_total);
        assert_eq!(
            f.cells_written as usize,
            128usize.div_ceil(fnw.word_cells())
        );
        assert!(f.energy < d.energy);
    }

    #[test]
    #[should_panic(expected = "amorphous-reset")]
    fn crystalline_reset_tables_are_rejected() {
        use opcm_phys::{CellThermalModel, ProgramMode, ProgramTable};
        let table = ProgramTable::generate(
            &CellThermalModel::comet_gst(),
            ProgramMode::CrystallineReset,
            1,
        )
        .expect("generates");
        let costs = TransitionCostModel::from_program_table(&table);
        let _ = DataWriteModel::new(LineCodec::new(1), costs, DataPolicy::Dcw);
    }

    #[test]
    fn oblivious_keeps_no_image_and_unknown_is_worst_case() {
        let [obl, dcw, _] = models();
        let priced = obl.price_write(None, &line(0x77));
        assert!(priced.image.is_none());
        let unknown = dcw.price_unknown(64);
        let known = dcw.price_write(None, &line(0xFF)).cost;
        assert!(unknown.energy >= known.energy - dcw.costs.read_probe().energy * 128.0);
        assert_eq!(unknown.cells_written, 128);
    }

    #[test]
    fn zero_lines_cost_only_probes_after_first_touch() {
        // An all-zero line maps every cell to level 0 = the reset state,
        // so even the first DCW write conserves everything.
        let [_, dcw, _] = models();
        let priced = dcw.price_write(None, &line(0x00));
        assert_eq!(priced.cost.cells_written, 0);
    }
}
