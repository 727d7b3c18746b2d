//! Physical-address decomposition.
//!
//! Maps a flat physical byte address onto `{channel, bank, row, column}`
//! coordinates. The interleaving order decides which address bits move
//! fastest; cache-line interleaving across channels/banks (the default, and
//! what COMET does across its MDM banks) spreads consecutive lines over all
//! parallel resources.

use std::fmt;

/// Decoded device coordinates of an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAddress {
    /// Channel index.
    pub channel: u64,
    /// Bank index (within the channel).
    pub bank: u64,
    /// Row index (within the bank).
    pub row: u64,
    /// Column index: the cache-line slot within the row.
    pub column: u64,
}

/// Bit-interleaving order for address decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Interleave {
    /// `row : bank : column : channel` (line-interleaved across channels,
    /// then columns within a bank row — maximizes channel/bank parallelism
    /// for streams). The usual high-throughput choice.
    #[default]
    RowBankColumnChannel,
    /// Like [`Interleave::RowBankColumnChannel`] but the channel index is
    /// XOR-folded with the base-C digits of the line quotient, so strided
    /// streams whose stride is a multiple of the channel count still
    /// spread across channels (permutation-based interleaving). Bijective
    /// for power-of-two channel counts.
    RowBankColumnChannelXor,
}

/// XOR-fold of all base-`modulus` digits of `q` (`modulus` a power of two).
/// A single-channel map has no digits to fold (and `q /= 1` would never
/// terminate), so modulus 1 folds to 0.
fn xor_fold(mut q: u64, modulus: u64) -> u64 {
    if modulus <= 1 {
        return 0;
    }
    let mut acc = 0;
    while q > 0 {
        acc ^= q % modulus;
        q /= modulus;
    }
    acc
}

/// Errors from address-map construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressMapError {
    /// A dimension was zero or not a power of two.
    NotPowerOfTwo {
        /// The offending dimension name.
        dimension: &'static str,
        /// The offending value.
        value: u64,
    },
}

impl fmt::Display for AddressMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddressMapError::NotPowerOfTwo { dimension, value } => {
                write!(f, "{dimension} must be a nonzero power of two, got {value}")
            }
        }
    }
}

impl std::error::Error for AddressMapError {}

/// An address map over power-of-two dimensions.
///
/// # Examples
///
/// ```
/// use memsim::{AddressMap, Interleave};
///
/// let map = AddressMap::new(4, 8, 4096, 128, 64, Interleave::default())?;
/// let d = map.decode(0x40);       // second cache line
/// assert_eq!(d.channel, 1);        // line-interleaved across channels
/// assert_eq!(map.encode(d), 0x40); // bijective
/// # Ok::<(), memsim::AddressMapError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    channels: u64,
    banks: u64,
    rows: u64,
    columns: u64,
    line_bytes: u64,
    interleave: Interleave,
}

fn check_pow2(dimension: &'static str, value: u64) -> Result<u32, AddressMapError> {
    if value == 0 || !value.is_power_of_two() {
        Err(AddressMapError::NotPowerOfTwo { dimension, value })
    } else {
        Ok(value.trailing_zeros())
    }
}

impl AddressMap {
    /// Creates a map.
    ///
    /// `columns` counts cache-line slots per row; `line_bytes` is the
    /// cache-line size.
    ///
    /// # Errors
    ///
    /// Every dimension must be a nonzero power of two.
    pub fn new(
        channels: u64,
        banks: u64,
        rows: u64,
        columns: u64,
        line_bytes: u64,
        interleave: Interleave,
    ) -> Result<Self, AddressMapError> {
        check_pow2("channels", channels)?;
        check_pow2("banks", banks)?;
        check_pow2("rows", rows)?;
        check_pow2("columns", columns)?;
        check_pow2("line_bytes", line_bytes)?;
        Ok(AddressMap {
            channels,
            banks,
            rows,
            columns,
            line_bytes,
            interleave,
        })
    }

    /// Number of channels.
    pub fn channels(&self) -> u64 {
        self.channels
    }

    /// Banks per channel.
    pub fn banks(&self) -> u64 {
        self.banks
    }

    /// Rows per bank.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Cache-line columns per row.
    pub fn columns(&self) -> u64 {
        self.columns
    }

    /// Cache-line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.channels * self.banks * self.rows * self.columns * self.line_bytes
    }

    /// Decodes a physical byte address (wraps modulo capacity).
    pub fn decode(&self, address: u64) -> DecodedAddress {
        let line = (address / self.line_bytes) % (self.capacity_bytes() / self.line_bytes);
        match self.interleave {
            Interleave::RowBankColumnChannel => {
                let channel = line % self.channels;
                let rest = line / self.channels;
                let column = rest % self.columns;
                let rest = rest / self.columns;
                let bank = rest % self.banks;
                let row = rest / self.banks;
                DecodedAddress {
                    channel,
                    bank,
                    row,
                    column,
                }
            }
            Interleave::RowBankColumnChannelXor => {
                let r = line % self.channels;
                let q = line / self.channels;
                let channel = r ^ xor_fold(q, self.channels);
                let column = q % self.columns;
                let rest = q / self.columns;
                let bank = rest % self.banks;
                let row = rest / self.banks;
                DecodedAddress {
                    channel,
                    bank,
                    row,
                    column,
                }
            }
        }
    }

    /// Re-encodes coordinates into the canonical byte address.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn encode(&self, d: DecodedAddress) -> u64 {
        assert!(
            d.channel < self.channels,
            "channel {} out of range",
            d.channel
        );
        assert!(d.bank < self.banks, "bank {} out of range", d.bank);
        assert!(d.row < self.rows, "row {} out of range", d.row);
        assert!(d.column < self.columns, "column {} out of range", d.column);
        let line = match self.interleave {
            Interleave::RowBankColumnChannel => {
                ((d.row * self.banks + d.bank) * self.columns + d.column) * self.channels
                    + d.channel
            }
            Interleave::RowBankColumnChannelXor => {
                let q = (d.row * self.banks + d.bank) * self.columns + d.column;
                q * self.channels + (d.channel ^ xor_fold(q, self.channels))
            }
        };
        line * self.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> AddressMap {
        AddressMap::new(4, 8, 4096, 128, 64, Interleave::RowBankColumnChannel).unwrap()
    }

    #[test]
    fn rejects_non_power_of_two() {
        let err = AddressMap::new(3, 8, 4096, 128, 64, Interleave::default());
        assert!(matches!(
            err,
            Err(AddressMapError::NotPowerOfTwo {
                dimension: "channels",
                ..
            })
        ));
        assert!(AddressMap::new(4, 0, 4096, 128, 64, Interleave::default()).is_err());
    }

    #[test]
    fn capacity() {
        // 4 * 8 * 4096 * 128 * 64 B = 1 GiB.
        assert_eq!(map().capacity_bytes(), 1 << 30);
    }

    #[test]
    fn consecutive_lines_interleave_across_channels() {
        let m = map();
        for i in 0..8u64 {
            let d = m.decode(i * 64);
            assert_eq!(d.channel, i % 4, "line {i}");
        }
    }

    #[test]
    fn decode_encode_roundtrip_exhaustive_small() {
        let m = AddressMap::new(2, 4, 16, 8, 64, Interleave::RowBankColumnChannel).unwrap();
        for line in 0..(m.capacity_bytes() / 64) {
            let addr = line * 64;
            let d = m.decode(addr);
            assert_eq!(m.encode(d), addr, "line {line}");
        }
    }

    #[test]
    fn roundtrip_both_interleaves() {
        for il in [
            Interleave::RowBankColumnChannel,
            Interleave::RowBankColumnChannelXor,
        ] {
            let m = AddressMap::new(4, 8, 64, 16, 64, il).unwrap();
            for addr in (0..m.capacity_bytes()).step_by(64 * 97) {
                let d = m.decode(addr);
                assert_eq!(m.encode(d), addr, "{il:?} addr {addr:#x}");
            }
        }
    }

    #[test]
    fn sub_line_offsets_map_to_same_line() {
        let m = map();
        assert_eq!(m.decode(0x40), m.decode(0x41));
        assert_eq!(m.decode(0x40), m.decode(0x7f));
        assert_ne!(m.decode(0x40), m.decode(0x80));
    }

    #[test]
    fn addresses_wrap_modulo_capacity() {
        let m = map();
        let cap = m.capacity_bytes();
        assert_eq!(m.decode(0x40), m.decode(cap + 0x40));
    }

    #[test]
    fn xor_interleave_spreads_channel_multiples() {
        // A stride that is a multiple of the channel count serializes on
        // plain modulo interleaving but spreads under XOR folding.
        let m = AddressMap::new(4, 8, 4096, 128, 64, Interleave::RowBankColumnChannelXor).unwrap();
        let mut seen = std::collections::HashSet::new();
        for k in 0..16u64 {
            seen.insert(m.decode(k * 32 * 64).channel); // 32-line stride
        }
        assert_eq!(seen.len(), 4, "all channels touched");
        // Still bijective.
        for k in 0..4096u64 {
            let addr = k * 64;
            assert_eq!(m.encode(m.decode(addr)), addr);
        }
    }

    #[test]
    fn xor_interleave_single_channel_terminates() {
        // Regression: xor_fold(q, 1) used to loop forever (`q /= 1`), which
        // hung every single-channel device on its first nonzero address.
        let m = AddressMap::new(1, 8, 4096, 128, 64, Interleave::RowBankColumnChannelXor).unwrap();
        let last_line = m.capacity_bytes() - 64;
        for k in [1u64, 7, 1 << 20, last_line] {
            let d = m.decode(k);
            assert_eq!(d.channel, 0);
            assert_eq!(m.encode(m.decode(k & !63)), k & !63);
        }
    }
}
