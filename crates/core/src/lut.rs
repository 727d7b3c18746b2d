//! The loss-aware SOA gain-tuning look-up table (Sections III.C, IV.A).
//!
//! A read-out launched from row `r` of a subarray passes a different number
//! of EO-tuned MR through-losses (0.33 dB each) before reaching the next
//! SOA stage (placed every 46 rows). The electrical interface compensates
//! with row-dependent SOA gain, looked up from a LUT indexed by the row's
//! residual distance; the LUT granularity depends on the bit density —
//! higher `b` tolerates less loss, so gains must step more often:
//!
//! * `b=1`: tolerance 3.01 dB ⇒ a gain step every ⌈3.01/0.33⌉ = 10 rows;
//!   52 entries over M_r = 512, only 5 distinct values per 46-row period;
//! * `b=2`: tolerance 1.2 dB ⇒ a step every 4 rows, 12 distinct values;
//! * `b=4`: tolerance 0.26 dB ⇒ a step every row, 46 distinct values.

use comet_units::Decibels;
use photonic::{CellOpticalModel, LevelBudget, OpticalParams};

/// The paper's read-out loss tolerance for `bits` per cell: a signal may
/// lose a fraction `2^-b` of full scale before adjacent levels merge —
/// 50 % (3.01 dB) at b=1, 25 % (1.2 dB) at b=2, 6 % (0.26 dB) at b=4
/// (Section III.C).
pub fn paper_loss_tolerance(bits: u8) -> Decibels {
    assert!((1..=8).contains(&bits), "bits must be in 1..=8");
    Decibels::from_linear(1.0 - 0.5f64.powi(bits as i32))
}

/// The per-row SOA gain schedule for one bit density.
///
/// # Examples
///
/// ```
/// use comet::GainLut;
/// use photonic::OpticalParams;
///
/// let params = OpticalParams::table_i();
/// let lut = GainLut::for_bits(4, 512, &params);
/// assert_eq!(lut.distinct_entries(), 46);   // paper: 46 entries for b=4
/// // Row 10 of a 46-row SOA period needs 10 rows of through-loss back:
/// assert!((lut.gain_for_row(10).value() - 3.3).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GainLut {
    bits: u8,
    subarray_rows: u64,
    soa_period: u64,
    step_rows: u64,
    through_loss: Decibels,
    /// Gain per distinct entry, indexed by `ceil((row % period)/step)`.
    entries: Vec<Decibels>,
}

impl GainLut {
    /// The gain-step granularity in rows for a bit density: how many rows
    /// of EO-MR through loss fit into the read-out loss budget (rounded up
    /// to at least one row, matching the paper's entry counts: steps of
    /// 10, 4 and 1 rows for b = 1, 2, 4).
    pub fn step_rows(bits: u8, params: &OpticalParams) -> u64 {
        Self::step_rows_for_tolerance(paper_loss_tolerance(bits), params)
    }

    /// Gain-step granularity for an explicit loss tolerance.
    fn step_rows_for_tolerance(budget: Decibels, params: &OpticalParams) -> u64 {
        let rows = budget.value() / params.eo_mr_through_loss.value();
        (rows.ceil() as u64).max(1)
    }

    /// Builds the LUT for `bits` per cell and `subarray_rows` rows, with
    /// the loss tolerance from the paper's Section III.C expressions.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 8` and `subarray_rows > 0`.
    pub fn for_bits(bits: u8, subarray_rows: u64, params: &OpticalParams) -> Self {
        Self::with_tolerance(bits, subarray_rows, params, paper_loss_tolerance(bits))
    }

    /// Builds the LUT with the loss tolerance of a circuit-layer cell
    /// model's *actual* level spacing — the cross-layer variant: a
    /// physics-derived cell with slightly different level spacing shifts
    /// the gain-step granularity, and with it the LUT size.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 6` and `subarray_rows > 0`.
    pub fn for_cell(
        model: &dyn CellOpticalModel,
        bits: u8,
        subarray_rows: u64,
        params: &OpticalParams,
    ) -> Self {
        let budget = LevelBudget::for_cell(bits, model);
        Self::with_tolerance(bits, subarray_rows, params, budget.loss_tolerance)
    }

    fn with_tolerance(
        bits: u8,
        subarray_rows: u64,
        params: &OpticalParams,
        tolerance: Decibels,
    ) -> Self {
        assert!((1..=8).contains(&bits), "bits must be in 1..=8");
        assert!(subarray_rows > 0, "need at least one row");
        let soa_period = params.rows_per_soa_stage() as u64;
        let step_rows = Self::step_rows_for_tolerance(tolerance, params);
        let distinct = soa_period.div_ceil(step_rows);
        let entries = (0..=distinct)
            .map(|i| params.eo_mr_through_loss * (i * step_rows) as f64)
            .collect();
        GainLut {
            bits,
            subarray_rows,
            soa_period,
            step_rows,
            through_loss: params.eo_mr_through_loss,
            entries,
        }
    }

    /// Bits per cell this LUT serves.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Rows between gain steps.
    pub fn step(&self) -> u64 {
        self.step_rows
    }

    /// Total entries if one were stored per gain step across the whole
    /// subarray (`⌈M_r / step⌉` — the figure the paper quotes for b=1: 52).
    pub fn total_entries(&self) -> u64 {
        self.subarray_rows.div_ceil(self.step_rows)
    }

    /// Distinct gain values per SOA period (`⌈46 / step⌉` — the figures the
    /// paper quotes for b=2 (12) and b=4 (46)).
    pub fn distinct_entries(&self) -> u64 {
        self.soa_period.div_ceil(self.step_rows)
    }

    /// The LUT index used for a row: `ceil((row % period) / step)` —
    /// the paper's selection expression.
    pub fn index_for_row(&self, row: u64) -> usize {
        let residual = row % self.soa_period;
        residual.div_ceil(self.step_rows) as usize
    }

    /// The SOA trim gain applied to a read-out launched from `row`.
    pub fn gain_for_row(&self, row: u64) -> Decibels {
        self.entries[self.index_for_row(row)]
    }

    /// The *uncompensated* residual loss after applying the LUT gain —
    /// bounded by one gain step, which the level budget must absorb.
    pub fn residual_loss(&self, row: u64) -> Decibels {
        let actual = self.through_loss * (row % self.soa_period) as f64;
        let compensated = self.gain_for_row(row);
        // Gain is rounded *up* to the next step, so the residual is the
        // overshoot (negative loss = slight overdrive), bounded by a step.
        compensated - actual
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> OpticalParams {
        OpticalParams::table_i()
    }

    #[test]
    fn paper_entry_counts() {
        let p = params();
        let b1 = GainLut::for_bits(1, 512, &p);
        assert_eq!(b1.step(), 10, "b=1 steps every 10 rows");
        assert_eq!(b1.total_entries(), 52, "paper: 52 entries for b=1");
        assert_eq!(b1.distinct_entries(), 5, "paper: 5 distinct parameters");

        let b2 = GainLut::for_bits(2, 512, &p);
        assert_eq!(b2.step(), 4);
        assert_eq!(b2.distinct_entries(), 12, "paper: 12 entries for b=2");

        let b4 = GainLut::for_bits(4, 512, &p);
        assert_eq!(b4.step(), 1);
        assert_eq!(b4.distinct_entries(), 46, "paper: 46 entries for b=4");
    }

    #[test]
    fn cell_model_luts_stay_close_to_the_paper_granularity() {
        use photonic::{CellModelMode, DerivedCellModel, PaperCellModel};
        let p = params();
        for bits in [1u8, 2, 4] {
            let paper_lut = GainLut::for_cell(&PaperCellModel::paper_constants(), bits, 512, &p);
            let derived_lut = GainLut::for_cell(&DerivedCellModel::comet_gst(), bits, 512, &p);
            let table_lut = GainLut::for_bits(bits, 512, &p);
            // Real-cell tolerances are slightly tighter than the paper's
            // full-scale expressions, so steps shrink by at most one notch.
            for lut in [&paper_lut, &derived_lut] {
                assert!(lut.step() <= table_lut.step(), "b={bits}");
                assert!(lut.step() + 2 >= table_lut.step(), "b={bits}");
            }
        }
        // b=4 keeps the per-row schedule (46 distinct entries) under every
        // provider — the paper's headline LUT size is physics-robust.
        for mode in CellModelMode::ALL {
            let lut = GainLut::for_cell(mode.model().as_ref(), 4, 512, &p);
            assert_eq!(lut.distinct_entries(), 46, "{mode}");
        }
    }

    #[test]
    fn gain_is_monotone_within_period_and_wraps() {
        let lut = GainLut::for_bits(4, 512, &params());
        let mut last = Decibels::new(-1.0);
        for row in 0..46 {
            let g = lut.gain_for_row(row);
            assert!(g >= last, "gain not monotone at row {row}");
            last = g;
        }
        // After an SOA stage the schedule restarts.
        assert_eq!(lut.gain_for_row(46), lut.gain_for_row(0));
        assert_eq!(lut.gain_for_row(47), lut.gain_for_row(1));
    }

    #[test]
    fn residual_loss_bounded_by_one_step() {
        for bits in [1, 2, 4] {
            let p = params();
            let lut = GainLut::for_bits(bits, 512, &p);
            let bound = p.eo_mr_through_loss.value() * lut.step() as f64 + 1e-9;
            for row in 0..512 {
                let r = lut.residual_loss(row).value().abs();
                assert!(r <= bound, "b={bits} row {row}: residual {r} > {bound}");
            }
        }
    }

    #[test]
    fn b4_compensates_exactly() {
        // With a step of one row the gain matches the loss exactly.
        let lut = GainLut::for_bits(4, 512, &params());
        for row in 0..46 {
            assert!(lut.residual_loss(row).value().abs() < 1e-12, "row {row}");
        }
    }

    #[test]
    fn index_expression_matches_paper() {
        // b=2: gain chosen per ceil((rowID % 46)/4)-th entry.
        let lut = GainLut::for_bits(2, 512, &params());
        assert_eq!(lut.index_for_row(0), 0);
        assert_eq!(lut.index_for_row(1), 1);
        assert_eq!(lut.index_for_row(4), 1);
        assert_eq!(lut.index_for_row(5), 2);
        assert_eq!(lut.index_for_row(45), 12);
        assert_eq!(lut.index_for_row(46), 0);
    }
}
