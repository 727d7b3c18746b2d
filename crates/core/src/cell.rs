//! Functional multi-level cells: level coding, byte packing and subarrays.
//!
//! The timing model ([`crate::CometDevice`]) answers *when*; this module
//! answers *what*: how user bytes become cell levels, how levels read back
//! as transmittances, and how read-out losses corrupt (or don't corrupt)
//! the decoded data. The corruption comparisons against the COSMOS
//! crossbar (paper Fig. 2) run on top of these primitives.

use comet_units::{Decibels, Transmittance};
use opcm_phys::ProgramTable;
use photonic::{CellOpticalModel, PaperCellModel};

/// Maps level indices to read-out transmittances and back.
///
/// # Examples
///
/// ```
/// use comet_units::Decibels;
/// use comet::LevelCodec;
///
/// let codec = LevelCodec::ideal(4);
/// let t = codec.transmittance(7);
/// assert_eq!(codec.decode(t), 7);
/// // Half a level spacing of unexpected loss still decodes...
/// let drifted = codec.apply_loss(t, Decibels::new(0.1));
/// assert_eq!(codec.decode(drifted), 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LevelCodec {
    bits: u8,
    /// Transmittance per level, index 0 = most transmissive.
    levels: Vec<f64>,
}

impl LevelCodec {
    /// An idealized codec: `2^bits` equally spaced levels from 0.95 down,
    /// matching the paper's ~6 % spacing at 4 bits. Equivalent to
    /// [`LevelCodec::from_cell_model`] over the paper-constants provider.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 6`.
    pub fn ideal(bits: u8) -> Self {
        Self::from_cell_model(&PaperCellModel::paper_constants(), bits)
    }

    /// A codec carrying the transmission levels of a circuit-layer cell
    /// model — the cross-layer hook: pass the physics-derived provider and
    /// every decode in this codec runs against real device optics.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 6`.
    pub fn from_cell_model(model: &dyn CellOpticalModel, bits: u8) -> Self {
        LevelCodec {
            bits,
            levels: model
                .transmission_levels(bits)
                .iter()
                .map(|t| t.value())
                .collect(),
        }
    }

    /// A codec carrying the exact transmittances of a generated
    /// physics-layer programming table.
    pub fn from_table(table: &ProgramTable) -> Self {
        LevelCodec {
            bits: table.bits,
            levels: table
                .levels
                .iter()
                .map(|l| l.transmittance.value())
                .collect(),
        }
    }

    /// A codec with explicit level transmittances (e.g. the corrected
    /// COSMOS 2-bit levels 0.99/0.90/0.81/0.72).
    ///
    /// # Panics
    ///
    /// Panics unless the level count is a power of two matching a whole
    /// number of bits, strictly decreasing.
    pub fn from_levels(levels: Vec<f64>) -> Self {
        let n = levels.len();
        assert!(
            n.is_power_of_two() && n >= 2,
            "level count must be a power of two"
        );
        assert!(
            levels.windows(2).all(|w| w[0] > w[1]),
            "levels must strictly decrease"
        );
        LevelCodec {
            bits: n.trailing_zeros() as u8,
            levels,
        }
    }

    /// Bits per cell.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of levels.
    pub fn level_count(&self) -> u16 {
        self.levels.len() as u16
    }

    /// Spacing between the first two levels (≈ uniform).
    pub fn spacing(&self) -> f64 {
        self.levels[0] - self.levels[1]
    }

    /// The nominal transmittance of a level.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn transmittance(&self, level: u8) -> Transmittance {
        Transmittance::new(self.levels[level as usize])
    }

    /// Applies an optical loss to an observed transmittance.
    pub fn apply_loss(&self, t: Transmittance, loss: Decibels) -> Transmittance {
        Transmittance::new(t.value() * loss.to_linear())
    }

    /// Decodes an observed transmittance to the nearest level.
    pub fn decode(&self, observed: Transmittance) -> u8 {
        let mut best = 0usize;
        let mut best_err = f64::INFINITY;
        for (i, &t) in self.levels.iter().enumerate() {
            let err = (t - observed.value()).abs();
            if err < best_err {
                best_err = err;
                best = i;
            }
        }
        best as u8
    }
}

/// Packs bytes into cell levels at `bits` per cell (MSB-first).
///
/// # Panics
///
/// Panics unless `bits` is 1, 2 or 4 (the even densities the paper
/// considers practical).
///
/// # Examples
///
/// ```
/// use comet::{encode_bytes, decode_levels};
///
/// let data = [0xA5u8, 0x3C];
/// let levels = encode_bytes(&data, 4);
/// assert_eq!(levels, vec![0xA, 0x5, 0x3, 0xC]);
/// assert_eq!(decode_levels(&levels, 4), data);
/// ```
pub fn encode_bytes(bytes: &[u8], bits: u8) -> Vec<u8> {
    assert!(
        matches!(bits, 1 | 2 | 4),
        "bit densities are multiples of two up to 4 (paper Section IV.A)"
    );
    let per_byte = 8 / bits as usize;
    let mask = (1u16 << bits) as u8 - 1;
    let mut out = Vec::with_capacity(bytes.len() * per_byte);
    for &b in bytes {
        for i in (0..per_byte).rev() {
            out.push((b >> (i * bits as usize)) & mask);
        }
    }
    out
}

/// Unpacks cell levels back into bytes (inverse of [`encode_bytes`]).
///
/// # Panics
///
/// Panics on unsupported densities or a level count that is not a whole
/// number of bytes.
pub fn decode_levels(levels: &[u8], bits: u8) -> Vec<u8> {
    assert!(matches!(bits, 1 | 2 | 4), "unsupported bit density");
    let per_byte = 8 / bits as usize;
    assert!(
        levels.len() % per_byte == 0,
        "level count {} is not a whole number of bytes",
        levels.len()
    );
    levels
        .chunks(per_byte)
        .map(|chunk| {
            chunk.iter().fold(0u8, |acc, &l| {
                (acc << bits) | (l & ((1u16 << bits) as u8 - 1))
            })
        })
        .collect()
}

/// A functional subarray: an `rows × cols` grid of level-holding cells.
///
/// Supports stuck-cell fault injection: a stuck cell holds its fault level
/// regardless of what is programmed into it (endurance failures leave GST
/// cells pinned near one phase), which is what a controller's write-verify
/// pass exists to catch.
#[derive(Debug, Clone, PartialEq)]
pub struct Subarray {
    rows: u64,
    cols: u64,
    levels: Vec<u8>,
    /// Sparse stuck-cell list: `(flat index, stuck level)`.
    stuck: Vec<(usize, u8)>,
}

impl Subarray {
    /// Creates an erased (level 0) subarray.
    pub fn new(rows: u64, cols: u64) -> Self {
        Subarray {
            rows,
            cols,
            levels: vec![0; (rows * cols) as usize],
            stuck: Vec::new(),
        }
    }

    /// Pins a cell to `level` forever (fault injection). Subsequent writes
    /// to the cell are silently absorbed, as a worn-out GST cell would.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn inject_stuck_cell(&mut self, row: u64, col: u64, level: u8) {
        let i = self.index(row, col);
        self.levels[i] = level;
        if let Some(entry) = self.stuck.iter_mut().find(|(j, _)| *j == i) {
            entry.1 = level;
        } else {
            self.stuck.push((i, level));
        }
    }

    /// Re-pins every stuck cell after a write that may have overwritten
    /// its stored value.
    fn reassert_stuck(&mut self, start: usize, end: usize) {
        for &(i, level) in &self.stuck {
            if i >= start && i < end {
                self.levels[i] = level;
            }
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

    fn index(&self, row: u64, col: u64) -> usize {
        assert!(row < self.rows, "row {row} out of range");
        assert!(col < self.cols, "col {col} out of range");
        (row * self.cols + col) as usize
    }

    /// The stored level of one cell.
    pub fn level(&self, row: u64, col: u64) -> u8 {
        self.levels[self.index(row, col)]
    }

    /// Programs one cell's level (ineffective on stuck cells).
    pub fn set_level(&mut self, row: u64, col: u64, level: u8) {
        let i = self.index(row, col);
        self.levels[i] = level;
        self.reassert_stuck(i, i + 1);
    }

    /// Writes a span of levels along a row starting at `col` (stuck cells
    /// in the span keep their fault level).
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds the row.
    pub fn write_span(&mut self, row: u64, col: u64, levels: &[u8]) {
        let start = self.index(row, col);
        assert!(
            col + levels.len() as u64 <= self.cols,
            "span exceeds row width"
        );
        self.levels[start..start + levels.len()].copy_from_slice(levels);
        self.reassert_stuck(start, start + levels.len());
    }

    /// Reads a span of levels along a row.
    pub fn read_span(&self, row: u64, col: u64, count: usize) -> &[u8] {
        let start = self.index(row, col);
        assert!(col + count as u64 <= self.cols, "span exceeds row width");
        &self.levels[start..start + count]
    }

    /// Reads a span through the optical path: each level becomes a
    /// transmittance, suffers `loss`, and is re-decoded. With zero residual
    /// loss this is the identity; with enough loss, adjacent levels merge.
    pub fn read_span_with_loss(
        &self,
        codec: &LevelCodec,
        row: u64,
        col: u64,
        count: usize,
        loss: Decibels,
    ) -> Vec<u8> {
        self.read_span(row, col, count)
            .iter()
            .map(|&l| codec.decode(codec.apply_loss(codec.transmittance(l), loss)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip_all_densities() {
        let data: Vec<u8> = (0..=255).collect();
        for bits in [1u8, 2, 4] {
            let levels = encode_bytes(&data, bits);
            assert_eq!(levels.len(), data.len() * (8 / bits as usize));
            assert!(levels.iter().all(|&l| l < (1 << bits)));
            assert_eq!(decode_levels(&levels, bits), data);
        }
    }

    #[test]
    fn ideal_codec_roundtrip() {
        for bits in [1u8, 2, 4] {
            let codec = LevelCodec::ideal(bits);
            for level in 0..codec.level_count() as u8 {
                assert_eq!(codec.decode(codec.transmittance(level)), level);
            }
        }
    }

    #[test]
    fn codec_tolerates_sub_margin_loss() {
        let codec = LevelCodec::ideal(4);
        // Residual loss below half a spacing never corrupts any level.
        let t7 = codec.transmittance(7);
        let safe = codec.apply_loss(t7, Decibels::new(0.1));
        assert_eq!(codec.decode(safe), 7);
    }

    #[test]
    fn codec_corrupts_past_margin() {
        let codec = LevelCodec::ideal(4);
        // 1.5 dB on a mid transmittance shifts ~2 levels at 6% spacing.
        let t4 = codec.transmittance(4);
        let lost = codec.apply_loss(t4, Decibels::new(1.5));
        assert_ne!(codec.decode(lost), 4);
    }

    #[test]
    fn ideal_codec_is_the_paper_cell_model() {
        // `ideal` is defined as the paper-constants provider; the derived
        // provider gives a close but distinct grid.
        for bits in [1u8, 2, 4] {
            let ideal = LevelCodec::ideal(bits);
            let paper = LevelCodec::from_cell_model(&PaperCellModel::paper_constants(), bits);
            assert_eq!(ideal, paper);
            let derived =
                LevelCodec::from_cell_model(&photonic::DerivedCellModel::comet_gst(), bits);
            assert_eq!(derived.bits(), bits);
            assert_ne!(derived, ideal, "derived grid should differ (b={bits})");
            // Both decode their own levels exactly.
            for level in 0..derived.level_count() as u8 {
                assert_eq!(derived.decode(derived.transmittance(level)), level);
            }
        }
    }

    #[test]
    fn cosmos_levels_constructor() {
        let codec = LevelCodec::from_levels(vec![0.99, 0.90, 0.81, 0.72]);
        assert_eq!(codec.bits(), 2);
        assert!((codec.spacing() - 0.09).abs() < 1e-12);
        assert_eq!(codec.decode(Transmittance::new(0.89)), 1);
    }

    #[test]
    #[should_panic(expected = "strictly decrease")]
    fn rejects_non_monotone_levels() {
        let _ = LevelCodec::from_levels(vec![0.9, 0.95]);
    }

    #[test]
    fn subarray_write_read() {
        let mut s = Subarray::new(8, 16);
        s.write_span(3, 4, &[1, 2, 3, 4]);
        assert_eq!(s.read_span(3, 4, 4), &[1, 2, 3, 4]);
        assert_eq!(s.level(3, 3), 0);
        assert_eq!(s.level(3, 4), 1);
    }

    #[test]
    fn lossless_optical_read_is_identity() {
        let codec = LevelCodec::ideal(4);
        let mut s = Subarray::new(4, 16);
        let levels: Vec<u8> = (0..16).collect();
        s.write_span(0, 0, &levels);
        let read = s.read_span_with_loss(&codec, 0, 0, 16, Decibels::ZERO);
        assert_eq!(read, levels);
    }

    #[test]
    fn lossy_optical_read_corrupts() {
        let codec = LevelCodec::ideal(4);
        let mut s = Subarray::new(4, 16);
        let levels: Vec<u8> = (0..16).collect();
        s.write_span(0, 0, &levels);
        let read = s.read_span_with_loss(&codec, 0, 0, 16, Decibels::new(2.0));
        assert_ne!(read, levels, "2 dB of uncompensated loss must corrupt");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn subarray_bounds_checked() {
        let s = Subarray::new(4, 4);
        let _ = s.level(4, 0);
    }
}
