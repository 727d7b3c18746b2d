//! COMET address mapping — Eqs. (1)–(6) of the paper (Section III.F).
//!
//! The memory controller's flat `{Channel, Row, Bank, Column}` view must be
//! mapped onto COMET's subarray organization:
//!
//! ```text
//! {Channel, Row, Bank, Column} →
//!     {Channel, SubarrayID, SubarrayROW, Bank, SubarrayCOL}
//!
//! ID₁          = int(Row / M_r)                       (2)
//! ID₂          = int(Column / M_c)                    (3)
//! SubarrayID   = ID₂ · √S_r + ID₁                     (4)
//! SubarrayROW  = Row mod M_r                          (5)
//! SubarrayCOL  = Column mod M_c                       (6)
//! ```
//!
//! Channel and bank IDs pass through unchanged (Eq. 1); cache lines are
//! interleaved across the `B` MDM banks upstream, in the address decoder.

use crate::arch::CometConfig;
use memsim::DecodedAddress;

/// A location in COMET's subarray-structured address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CometAddress {
    /// Channel (pass-through).
    pub channel: u64,
    /// Bank (pass-through; selects the MDM mode).
    pub bank: u64,
    /// Subarray index within the bank (Eq. 4).
    pub subarray: u64,
    /// Row within the subarray (Eq. 5).
    pub row: u64,
    /// Column within the subarray (Eq. 6).
    pub column: u64,
}

/// The Eq. (1)–(6) mapper for a given configuration.
///
/// # Examples
///
/// ```
/// use comet::{AddressMapper, CometConfig};
/// use memsim::DecodedAddress;
///
/// let mapper = AddressMapper::new(&CometConfig::comet_4b());
/// let flat = DecodedAddress { channel: 0, bank: 2, row: 1030, column: 17 };
/// let loc = mapper.map(flat);
/// assert_eq!(loc.bank, 2);
/// assert_eq!(loc.subarray, 1030 / 512);     // ID1 (ID2 = 0 since S_c = 1)
/// assert_eq!(loc.row, 1030 % 512);
/// assert_eq!(loc.column, 17);
/// assert_eq!(mapper.unmap(loc), flat);      // bijective
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapper {
    subarray_rows: u64,
    subarray_cols: u64,
    grid_side: u64,
}

impl AddressMapper {
    /// Builds the mapper for a configuration.
    pub fn new(config: &CometConfig) -> Self {
        AddressMapper {
            subarray_rows: config.subarray_rows,
            subarray_cols: config.subarray_cols,
            grid_side: config.subarray_grid_side(),
        }
    }

    /// Applies Eqs. (2)–(6).
    pub fn map(&self, flat: DecodedAddress) -> CometAddress {
        let id1 = flat.row / self.subarray_rows; // Eq. (2)
        let id2 = flat.column / self.subarray_cols; // Eq. (3)
        CometAddress {
            channel: flat.channel,
            bank: flat.bank,
            subarray: id2 * self.grid_side + id1,     // Eq. (4)
            row: flat.row % self.subarray_rows,       // Eq. (5)
            column: flat.column % self.subarray_cols, // Eq. (6)
        }
    }

    /// Inverts the mapping back to the flat controller view.
    ///
    /// Only defined for COMET's canonical organization where `S_c = 1`
    /// (the paper sets `M_c = N_c`, so flat columns never exceed `M_c` and
    /// `ID₂ = 0`); then `SubarrayID = ID₁` and the inverse is exact.
    pub fn unmap(&self, loc: CometAddress) -> DecodedAddress {
        DecodedAddress {
            channel: loc.channel,
            bank: loc.bank,
            row: loc.subarray * self.subarray_rows + loc.row,
            column: loc.column,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper() -> AddressMapper {
        AddressMapper::new(&CometConfig::comet_4b())
    }

    #[test]
    fn equations_verbatim() {
        let m = mapper();
        // With M_r=512, M_c=256, sqrt(S_r)=64:
        let flat = DecodedAddress {
            channel: 1,
            bank: 3,
            row: 5 * 512 + 100,
            column: 200,
        };
        let loc = m.map(flat);
        assert_eq!(loc.channel, 1, "Eq. (1): channel unchanged");
        assert_eq!(loc.bank, 3, "Eq. (1): bank unchanged");
        assert_eq!(loc.subarray, 5, "Eq. (4) with ID2=0");
        assert_eq!(loc.row, 100, "Eq. (5)");
        assert_eq!(loc.column, 200, "Eq. (6)");
    }

    #[test]
    fn roundtrip_sampled() {
        let m = mapper();
        let cfg = CometConfig::comet_4b();
        for row in (0..cfg.subarrays * cfg.subarray_rows).step_by(7919) {
            for column in (0..cfg.subarray_cols).step_by(61) {
                let flat = DecodedAddress {
                    channel: 0,
                    bank: row % 4,
                    row,
                    column,
                };
                assert_eq!(m.unmap(m.map(flat)), flat);
            }
        }
    }

    #[test]
    fn subarray_ids_stay_in_range() {
        let m = mapper();
        let cfg = CometConfig::comet_4b();
        for row in (0..cfg.subarrays * cfg.subarray_rows).step_by(4099) {
            let loc = m.map(DecodedAddress {
                channel: 0,
                bank: 0,
                row,
                column: row % cfg.subarray_cols,
            });
            assert!(loc.subarray < cfg.subarrays);
            assert!(loc.row < cfg.subarray_rows);
            assert!(loc.column < cfg.subarray_cols);
        }
    }

    #[test]
    fn consecutive_rows_share_a_subarray() {
        // Rows within one M_r block map to the same subarray — the spatial
        // locality the GST-switch gating exploits.
        let m = mapper();
        let sub_of = |row| {
            m.map(DecodedAddress {
                channel: 0,
                bank: 0,
                row,
                column: 0,
            })
            .subarray
        };
        assert_eq!(sub_of(0), sub_of(511));
        assert_ne!(sub_of(511), sub_of(512));
    }

    #[test]
    fn wide_column_spaces_use_id2() {
        // A hypothetical config with S_c > 1 exercises Eq. (3)-(4)'s ID2
        // term literally (the forward mapping only; the inverse is defined
        // for the canonical S_c = 1 organization).
        let mut cfg = CometConfig::comet_4b();
        cfg.subarray_cols = 128; // columns beyond 128 now spill into ID2
        let m = AddressMapper::new(&cfg);
        let loc = m.map(DecodedAddress {
            channel: 0,
            bank: 0,
            row: 10,
            column: 300,
        });
        assert_eq!(loc.subarray, (300 / 128) * 64, "ID2*sqrt(S_r) + ID1");
        assert_eq!(loc.column, 300 % 128);
        assert_eq!(loc.row, 10);
    }
}
