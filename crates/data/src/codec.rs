//! The MLC line codec: bytes ↔ Gray-coded cell levels.
//!
//! A `bits`-per-cell memory stores a cache line as a sequence of level
//! indices. The codec walks the line as a bitstream (MSB-first), slices it
//! into `bits`-wide chunks, and maps each chunk to its **Gray-coded**
//! level — adjacent levels differ in exactly one data bit, so a one-level
//! read-out drift corrupts one bit instead of up to `bits` (the standard
//! MLC assignment; the paper's Fig. 6 grid is equally spaced in
//! transmittance, which makes one-level drift the dominant error).
//!
//! The round trip is exact for any byte content and any `bits` in 1..=6
//! (the [`opcm_phys::ProgramTable`] range), including non-divisors of 8:
//! the final partial chunk is zero-padded on encode and the pad is
//! discarded on decode.

/// Binary-reflected Gray code of `v` (within `bits` bits).
fn gray(v: u8) -> u8 {
    v ^ (v >> 1)
}

/// Inverse Gray code: recovers `v` from `gray(v)`.
fn ungray(mut g: u8) -> u8 {
    let mut v = g;
    while g > 0 {
        g >>= 1;
        v ^= g;
    }
    v
}

/// Gray-codes each `B`-bit chunk of every byte, MSB first (`B` divides 8).
fn slice_bytes<const B: usize>(data: &[u8], levels: &mut [u8]) {
    let mask = (1u16 << B) as u8 - 1;
    for (cells, &byte) in levels.chunks_exact_mut(8 / B).zip(data) {
        for (k, level) in cells.iter_mut().enumerate() {
            *level = gray((byte >> (8 - B * (k + 1))) & mask);
        }
    }
}

/// Packs line bytes into MLC levels and back.
///
/// # Examples
///
/// ```
/// use comet_data::LineCodec;
///
/// let codec = LineCodec::new(4);
/// let data = [0xDE, 0xAD, 0xBE, 0xEF];
/// let levels = codec.encode(&data);
/// assert_eq!(levels.len(), 8); // two 4-bit cells per byte
/// assert_eq!(codec.decode(&levels, data.len()), data);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineCodec {
    bits: u8,
}

impl LineCodec {
    /// A codec for `bits`-per-cell storage.
    ///
    /// # Panics
    ///
    /// Panics unless `bits` is in 1..=6 (the programming-table range).
    pub fn new(bits: u8) -> Self {
        assert!((1..=6).contains(&bits), "bits per cell must be in 1..=6");
        LineCodec { bits }
    }

    /// Bits per cell.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of levels a cell distinguishes.
    pub fn levels(&self) -> u8 {
        1 << self.bits
    }

    /// Cells needed to store `len` bytes.
    pub fn cells_for(&self, len: usize) -> usize {
        (len * 8).div_ceil(self.bits as usize)
    }

    /// Encodes bytes into one Gray-coded level per cell.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut levels = vec![0u8; self.cells_for(data.len())];
        self.encode_into(data, &mut levels);
        levels
    }

    /// [`LineCodec::encode`] into `levels`, which must hold exactly
    /// [`LineCodec::cells_for`]`(data.len())` cells.
    pub(crate) fn encode_into(&self, data: &[u8], levels: &mut [u8]) {
        debug_assert_eq!(levels.len(), self.cells_for(data.len()));
        // Cells never straddle a byte at widths that divide 8: slice each
        // byte directly.
        match self.bits {
            1 => return slice_bytes::<1>(data, levels),
            2 => return slice_bytes::<2>(data, levels),
            4 => return slice_bytes::<4>(data, levels),
            _ => {}
        }
        // Widths 3, 5 and 6: walk the line as a bitstream.
        let b = self.bits as usize;
        let total_bits = data.len() * 8;
        for (cell, level) in levels.iter_mut().enumerate() {
            let bit = cell * b;
            let mut chunk = 0u8;
            for k in 0..b {
                chunk <<= 1;
                let i = bit + k;
                if i < total_bits {
                    let byte = data[i / 8];
                    chunk |= (byte >> (7 - i % 8)) & 1;
                }
                // Past the end: zero pad (the shift already inserted 0).
            }
            *level = gray(chunk);
        }
    }

    /// Decodes levels back into `len` bytes (the inverse of
    /// [`LineCodec::encode`] for `levels = encode(data)`, `len = data.len()`).
    pub fn decode(&self, levels: &[u8], len: usize) -> Vec<u8> {
        let b = self.bits as usize;
        let mut data = vec![0u8; len];
        let total_bits = len * 8;
        for (cell, &g) in levels.iter().enumerate() {
            let v = ungray(g);
            for k in 0..b {
                let i = cell * b + k;
                if i >= total_bits {
                    break;
                }
                let bit = (v >> (b - 1 - k)) & 1;
                data[i / 8] |= bit << (7 - i % 8);
            }
        }
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_is_a_bijection_with_unit_steps() {
        for bits in 1..=6u8 {
            let n = 1u16 << bits;
            for v in 0..n as u8 {
                assert_eq!(ungray(gray(v)), v);
            }
            // Adjacent codes differ in exactly one bit.
            for v in 0..(n - 1) as u8 {
                let d = gray(v) ^ gray(v + 1);
                assert_eq!(d.count_ones(), 1, "gray({v})^gray({})", v + 1);
            }
        }
    }

    #[test]
    fn roundtrip_all_bit_widths() {
        let data: Vec<u8> = (0..=255u8).cycle().take(64).collect();
        for bits in 1..=6u8 {
            let codec = LineCodec::new(bits);
            let levels = codec.encode(&data);
            assert_eq!(levels.len(), codec.cells_for(data.len()));
            assert!(levels.iter().all(|&l| l < codec.levels()));
            assert_eq!(codec.decode(&levels, data.len()), data, "bits={bits}");
        }
    }

    #[test]
    fn cell_counts() {
        assert_eq!(LineCodec::new(4).cells_for(64), 128);
        assert_eq!(LineCodec::new(1).cells_for(64), 512);
        assert_eq!(LineCodec::new(3).cells_for(64), 171); // 512 bits / 3, ceil
        assert_eq!(LineCodec::new(2).cells_for(0), 0);
    }

    #[test]
    fn nibble_encoding_is_msb_first() {
        let codec = LineCodec::new(4);
        let levels = codec.encode(&[0xA3]);
        assert_eq!(levels, vec![gray(0xA), gray(0x3)]);
    }
}
