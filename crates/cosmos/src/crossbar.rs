//! Functional crossbar array with write-crosstalk disturb — the mechanism
//! behind the paper's Fig. 2 corruption demonstration.
//!
//! A COSMOS crossbar cell sits at a waveguide crossing with **no isolation**
//! from its row neighbours; a write pulse on row `r` leaks ≈ −18 dB of its
//! energy into rows `r±1`, heating their GST through the thermo-optic
//! effect and dragging their transmittance. The drift saturates (the
//! disturb drives partial crystallization toward the equilibrium set by the
//! leaked power) at a level that sits **between** the decode margins of
//! 2-bit and 4-bit cells — which is exactly the paper's argument for
//! dropping the corrected COSMOS to b=2 with 9 % level spacing:
//!
//! * b=4, 6 % spacing ⇒ 3 % margin < drift ⇒ corruption (Fig. 2);
//! * b=2, 9 % spacing ⇒ 4.5 % margin > saturated drift ⇒ tolerated.
//!
//! Reads are **multiplicative**: a column read-out sees the product of all
//! cell transmittances along the column (the cells share the waveguide),
//! which is why COSMOS needs the *subtractive* read: read the column, erase
//! the target row, read again, and divide (subtract in dB) at the
//! controller.

use crate::arch::CosmosConfig;
use comet::LevelCodec;
use comet_units::{Energy, Transmittance};
use photonic::CrossbarCrosstalk;

/// Saturation ceiling of the thermo-optic drift, in transmittance units.
///
/// Calibrated between the b=4 margin (3 %) and the b=2/9 % margin (4.5 %):
/// one adjacent write corrupts 4-bit cells while 2-bit cells tolerate any
/// number of writes — reproducing both of the paper's claims.
const DRIFT_SATURATION: f64 = 0.042;

/// Transmittance drift induced per unit leaked energy, relative to the
/// saturation ceiling, at the paper's 750 pJ reference write.
const REFERENCE_WRITE_PJ: f64 = 750.0;

/// A functional COSMOS crossbar bank region.
///
/// # Examples
///
/// ```
/// use cosmos::{Crossbar, CosmosConfig};
///
/// let mut xb = Crossbar::new(&CosmosConfig::original(), 8, 8);
/// xb.write_row(0, &[5; 8]);
/// // A clean read (subtractive) returns the written levels:
/// assert_eq!(xb.subtractive_read_row(0), vec![5; 8]);
/// // Writing the adjacent row disturbs row 0's stored analog state
/// // past the 4-bit decode margin:
/// xb.write_row(1, &[2; 8]);
/// assert_ne!(xb.ideal_read_row(0), vec![5; 8]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Crossbar {
    rows: u64,
    cols: u64,
    codec: LevelCodec,
    crosstalk: CrossbarCrosstalk,
    write_energy: Energy,
    /// Programmed level per cell.
    levels: Vec<u8>,
    /// Accumulated thermo-optic transmittance drift per cell (towards
    /// lower transmittance / higher crystallinity).
    drift: Vec<f64>,
}

impl Crossbar {
    /// Creates an erased crossbar of `rows × cols` cells with the
    /// configuration's level coding and write energy.
    pub fn new(config: &CosmosConfig, rows: u64, cols: u64) -> Self {
        Crossbar {
            rows,
            cols,
            codec: LevelCodec::from_levels(config.level_transmittances.clone()),
            crosstalk: CrossbarCrosstalk::cosmos(),
            write_energy: config.write_energy,
            levels: vec![0; (rows * cols) as usize],
            drift: vec![0.0; (rows * cols) as usize],
        }
    }

    /// Rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Columns.
    pub fn cols(&self) -> u64 {
        self.cols
    }

    /// The level codec in use.
    pub fn codec(&self) -> &LevelCodec {
        &self.codec
    }

    fn index(&self, row: u64, col: u64) -> usize {
        assert!(row < self.rows, "row {row} out of range");
        assert!(col < self.cols, "col {col} out of range");
        (row * self.cols + col) as usize
    }

    /// The *observed* transmittance of a cell (nominal level minus the
    /// accumulated thermo-optic drift).
    pub fn observed_transmittance(&self, row: u64, col: u64) -> Transmittance {
        let i = self.index(row, col);
        let nominal = self.codec.transmittance(self.levels[i]).value();
        Transmittance::new((nominal - self.drift[i]).max(0.0))
    }

    /// Applies the thermo-optic disturb of one aggressor pulse of `energy`
    /// to a victim cell (saturating accumulation).
    fn disturb(&mut self, row: u64, col: u64, energy: Energy) {
        let i = self.index(row, col);
        let raw_shift = DRIFT_SATURATION * (energy.as_picojoules() / REFERENCE_WRITE_PJ).min(4.0);
        let headroom = DRIFT_SATURATION - self.drift[i];
        self.drift[i] += headroom.max(0.0) * (raw_shift / DRIFT_SATURATION).min(1.0);
    }

    /// Writes one full row of levels. Each cell's write pulse leaks
    /// −18 dB-scaled energy into the same column of the adjacent rows.
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the column count or any
    /// level is out of range.
    pub fn write_row(&mut self, row: u64, levels: &[u8]) {
        assert_eq!(levels.len() as u64, self.cols, "need one level per column");
        let max_level = self.codec.level_count() as u8;
        for (col, &level) in levels.iter().enumerate() {
            assert!(level < max_level, "level {level} out of range");
            let i = self.index(row, col as u64);
            self.levels[i] = level;
            self.drift[i] = 0.0; // programming re-sets the cell's state
            for neighbour in [row.checked_sub(1), Some(row + 1)].into_iter().flatten() {
                if neighbour < self.rows {
                    self.disturb(neighbour, col as u64, self.write_energy);
                }
            }
        }
    }

    /// The raw column read-out: the **product** of every cell's observed
    /// transmittance along the column — what a single optical read pass
    /// actually measures in a crossbar.
    pub fn column_transmission(&self, col: u64) -> Transmittance {
        let mut t = Transmittance::UNITY;
        for row in 0..self.rows {
            t = t.cascade(self.observed_transmittance(row, col));
        }
        t
    }

    /// The subtractive read of one row (paper Section II.B): read every
    /// column, erase the target row (a reset pulse that also disturbs its
    /// neighbours!), read again, and divide out. Restores the row
    /// afterwards (write-back), as the controller must.
    ///
    /// Returns the decoded levels.
    pub fn subtractive_read_row(&mut self, row: u64) -> Vec<u8> {
        let before: Vec<f64> = (0..self.cols)
            .map(|c| self.column_transmission(c).value())
            .collect();

        // Erase the target row to the reference (most transmissive) level.
        let stored: Vec<u8> = (0..self.cols)
            .map(|c| self.levels[self.index(row, c)])
            .collect();
        let reset_energy = self.write_energy; // reset pulses carry similar energy
        for col in 0..self.cols {
            let i = self.index(row, col);
            self.levels[i] = 0;
            self.drift[i] = 0.0;
            for neighbour in [row.checked_sub(1), Some(row + 1)].into_iter().flatten() {
                if neighbour < self.rows {
                    self.disturb(neighbour, col, reset_energy);
                }
            }
        }

        let after: Vec<f64> = (0..self.cols)
            .map(|c| self.column_transmission(c).value())
            .collect();

        // Recover T_row = T_before / T_after * T_reference and decode.
        let reference = self.codec.transmittance(0).value();
        let decoded: Vec<u8> = before
            .iter()
            .zip(&after)
            .map(|(&b, &a)| {
                let t_row = if a > 0.0 { b / a * reference } else { 0.0 };
                self.codec.decode(Transmittance::new(t_row))
            })
            .collect();

        // Restore the row (more writes, more neighbour disturb).
        self.write_row(row, &stored);
        decoded
    }

    /// Clears all accumulated drift — a write-verify / refresh pass over
    /// the whole array (what a deployment would run after bulk-loading
    /// data, and what the paper's pristine "original image" implies).
    pub fn verify_and_correct(&mut self) {
        self.drift.iter_mut().for_each(|d| *d = 0.0);
    }

    /// Reads a row assuming ideal per-cell access (no crossbar effects) —
    /// ground truth for corruption measurements.
    pub fn ideal_read_row(&self, row: u64) -> Vec<u8> {
        (0..self.cols)
            .map(|c| {
                let t = self.observed_transmittance(row, c);
                self.codec.decode(t)
            })
            .collect()
    }

    /// Stored (programmed) levels of a row, ignoring drift entirely.
    pub fn stored_row(&self, row: u64) -> Vec<u8> {
        (0..self.cols)
            .map(|c| self.levels[self.index(row, c)])
            .collect()
    }

    /// Fraction of cells in a row whose *observed* decode differs from the
    /// stored level — the corruption metric of the Fig. 2 study.
    pub fn row_error_rate(&self, row: u64) -> f64 {
        let stored = self.stored_row(row);
        let observed = self.ideal_read_row(row);
        let errors = stored.iter().zip(&observed).filter(|(s, o)| s != o).count();
        errors as f64 / stored.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn original_xb(rows: u64, cols: u64) -> Crossbar {
        Crossbar::new(&CosmosConfig::original(), rows, cols)
    }

    fn corrected_xb(rows: u64, cols: u64) -> Crossbar {
        Crossbar::new(&CosmosConfig::corrected(), rows, cols)
    }

    #[test]
    fn clean_write_read_roundtrip() {
        let mut xb = original_xb(8, 16);
        let levels: Vec<u8> = (0..16).map(|i| i % 16).collect();
        xb.write_row(3, &levels);
        assert_eq!(xb.subtractive_read_row(3), levels);
    }

    #[test]
    fn adjacent_write_corrupts_4bit_cells() {
        // The Fig. 2 mechanism: one adjacent-row write shifts 4-bit cells
        // past their 3% decode margin.
        let mut xb = original_xb(4, 8);
        xb.write_row(1, &[7; 8]);
        assert_eq!(xb.row_error_rate(1), 0.0);
        xb.write_row(2, &[3; 8]);
        assert!(
            xb.row_error_rate(1) > 0.9,
            "error rate {}",
            xb.row_error_rate(1)
        );
    }

    #[test]
    fn corrected_2bit_cells_tolerate_disturb() {
        // The corrected COSMOS claim: 9% level spacing rides out the
        // saturated thermo-optic drift.
        let mut xb = corrected_xb(4, 8);
        xb.write_row(1, &[2; 8]);
        for _ in 0..10 {
            xb.write_row(2, &[1; 8]);
            xb.write_row(0, &[3; 8]);
        }
        assert_eq!(
            xb.row_error_rate(1),
            0.0,
            "2-bit cells must tolerate repeated neighbour writes"
        );
    }

    #[test]
    fn drift_saturates() {
        let mut xb = original_xb(4, 4);
        xb.write_row(1, &[0; 4]);
        for _ in 0..50 {
            xb.write_row(2, &[5; 4]);
        }
        // Observed transmittance dropped by at most the saturation cap.
        let t = xb.observed_transmittance(1, 0).value();
        let nominal = xb.codec().transmittance(0).value();
        assert!(nominal - t <= DRIFT_SATURATION + 1e-9);
        assert!(nominal - t > DRIFT_SATURATION * 0.9);
    }

    #[test]
    fn column_transmission_is_multiplicative() {
        let mut xb = original_xb(3, 1);
        xb.write_row(0, &[0]);
        xb.write_row(1, &[15]);
        xb.write_row(2, &[0]);
        let t0 = xb.observed_transmittance(0, 0).value();
        let t1 = xb.observed_transmittance(1, 0).value();
        let t2 = xb.observed_transmittance(2, 0).value();
        let col = xb.column_transmission(0).value();
        assert!((col - t0 * t1 * t2).abs() < 1e-12);
    }

    #[test]
    fn subtractive_read_restores_contents() {
        let mut xb = original_xb(6, 8);
        let levels: Vec<u8> = (0..8).collect();
        xb.write_row(2, &levels);
        let _ = xb.subtractive_read_row(2);
        assert_eq!(xb.stored_row(2), levels, "write-back must restore");
    }

    #[test]
    fn subtractive_read_disturbs_neighbours() {
        // Reads are not free in a crossbar: the embedded reset + restore
        // pulses disturb adjacent rows (4-bit variant).
        let mut xb = original_xb(6, 8);
        xb.write_row(2, &[9; 8]);
        xb.write_row(3, &[4; 8]);
        let e_before = xb.row_error_rate(2);
        let _ = xb.subtractive_read_row(3);
        let e_after = xb.row_error_rate(2);
        assert!(e_after >= e_before);
        assert!(e_after > 0.5, "neighbour rows corrupted by read traffic");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn write_validates_levels() {
        let mut xb = corrected_xb(2, 2);
        xb.write_row(0, &[7, 0]); // corrected variant has 4 levels
    }
}
