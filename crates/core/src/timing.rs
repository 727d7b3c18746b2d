//! COMET architectural timing (the paper's Table II).
//!
//! * 4 banks, 1 rank/channel, 1 device/rank;
//! * bus width 256 bits, burst length 4 (⇒ 128 B per access);
//! * max write time 170 ns, erase time 210 ns, read time 10 ns;
//! * data burst time 1 ns (per beat), electrical interface delay 105 ns.
//!
//! The per-level device latencies behind the architectural write/erase
//! budget come from the `opcm-phys` programming tables (Fig. 6);
//! [`CometTiming::from_program_table`] derives the budget from a generated
//! table instead of the Table II constants.

use comet_units::{Frequency, Time};
use opcm_phys::ProgramTable;

/// Architectural timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CometTiming {
    /// Data-bus width, bits.
    pub bus_bits: u32,
    /// Burst length (beats per access).
    pub burst_length: u32,
    /// Time per data beat.
    pub burst_beat: Time,
    /// Cell read pulse + detection time.
    pub read_time: Time,
    /// Worst-case per-level write (program) time.
    pub max_write_time: Time,
    /// Erase (reset) time.
    pub erase_time: Time,
    /// EO tuning time to gate a row's MRs.
    pub row_access_time: Time,
    /// GST switch time to re-target a different subarray.
    pub subarray_switch_time: Time,
    /// One-way electrical interface (controller ↔ photonics) delay.
    pub interface_delay: Time,
    /// Whether erases are performed in the background on idle rows
    /// (write-time only on the critical path) or inline (erase + write).
    pub background_erase: bool,
}

impl CometTiming {
    /// The paper's Table II values.
    pub fn table_ii() -> Self {
        CometTiming {
            bus_bits: 256,
            burst_length: 4,
            burst_beat: Time::from_nanos(1.0),
            read_time: Time::from_nanos(10.0),
            max_write_time: Time::from_nanos(170.0),
            erase_time: Time::from_nanos(210.0),
            row_access_time: Time::from_nanos(2.0),
            subarray_switch_time: Time::from_nanos(100.0),
            interface_delay: Time::from_nanos(105.0),
            background_erase: true,
        }
    }

    /// Derives the write/erase budget from a device-level programming
    /// table (keeps the architecture consistent with the physics layer).
    pub fn from_program_table(table: &ProgramTable) -> Self {
        CometTiming {
            max_write_time: table.max_write_latency(),
            erase_time: table.reset.pulse.duration,
            ..Self::table_ii()
        }
    }

    /// Bytes moved per access (bus width × burst length).
    pub fn access_bytes(&self) -> u64 {
        (self.bus_bits as u64 * self.burst_length as u64) / 8
    }

    /// Bus occupancy of one access.
    pub fn burst_time(&self) -> Time {
        self.burst_beat * self.burst_length as f64
    }

    /// Effective per-channel modulation rate implied by the beat time and
    /// bus width (bits per beat / beat period, per wavelength-mode lane).
    pub fn modulation(&self) -> Frequency {
        Frequency::from_hertz(1.0 / self.burst_beat.as_seconds())
    }

    /// The write occupancy seen by a bank: erase + program when erases are
    /// inline, program only when erases happen in the background.
    pub fn write_occupancy(&self) -> Time {
        if self.background_erase {
            self.max_write_time
        } else {
            self.erase_time + self.max_write_time
        }
    }

    /// Unloaded read latency: row access + cell read + burst + interface.
    pub fn unloaded_read_latency(&self) -> Time {
        self.row_access_time + self.read_time + self.burst_time() + self.interface_delay
    }
}

impl Default for CometTiming {
    fn default() -> Self {
        Self::table_ii()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_values() {
        let t = CometTiming::table_ii();
        assert_eq!(t.access_bytes(), 128);
        assert!((t.burst_time().as_nanos() - 4.0).abs() < 1e-12);
        assert!((t.max_write_time.as_nanos() - 170.0).abs() < 1e-12);
        assert!((t.erase_time.as_nanos() - 210.0).abs() < 1e-12);
        assert!((t.interface_delay.as_nanos() - 105.0).abs() < 1e-12);
    }

    #[test]
    fn unloaded_read_latency_decomposition() {
        let t = CometTiming::table_ii();
        // 2 + 10 + 4 + 105 = 121 ns.
        assert!((t.unloaded_read_latency().as_nanos() - 121.0).abs() < 1e-9);
    }

    #[test]
    fn background_erase_halves_write_occupancy() {
        let mut t = CometTiming::table_ii();
        assert!((t.write_occupancy().as_nanos() - 170.0).abs() < 1e-9);
        t.background_erase = false;
        assert!((t.write_occupancy().as_nanos() - 380.0).abs() < 1e-9);
    }

    #[test]
    fn modulation_is_1ghz_at_1ns_beats() {
        let t = CometTiming::table_ii();
        assert!((t.modulation().as_gigahertz() - 1.0).abs() < 1e-9);
    }
}
