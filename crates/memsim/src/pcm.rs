//! Electrically controlled PCM main memory (the paper's `EPCM-MM` baseline).
//!
//! A 1T-1R PCM array: non-volatile (no refresh), read latency comparable to
//! DRAM, but asymmetric and slow writes (RESET melt pulses / SET
//! crystallization pulses driven by current). Timing/energy follow the
//! LL-PCM / DyPhase class of EPCM main-memory proposals the paper cites.
//!
//! The device optionally carries a **data plane**
//! ([`EpcmDevice::with_pricer`]): a backing line store of pricer-private
//! cell images plus a [`WritePricer`] that prices each write from its
//! content (per-cell level transitions, DCW/Flip-N-Write write reduction —
//! the policies live in `comet-data`). Without a pricer — or for requests
//! that carry no payload — the flat `write_line` cost stays authoritative,
//! so the content-oblivious baseline is untouched.

use crate::addr::DecodedAddress;
use crate::data::{LineData, WritePricer};
use crate::device::{AccessTiming, DeviceFactory, MemoryDevice, Topology};
use crate::request::MemOp;
use comet_units::{Energy, Power, Time};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// EPCM configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EpcmConfig {
    /// Report name.
    pub name: String,
    /// Shape.
    pub topology: Topology,
    /// Array read latency (sense).
    pub read_latency: Time,
    /// Array write latency (worst of SET/RESET for a line).
    pub write_latency: Time,
    /// Data-bus beat period.
    pub bus_beat: Time,
    /// Bus width, bits.
    pub bus_bits: u32,
    /// Read energy per line.
    pub read_line: Energy,
    /// Write energy per line (RESET-dominated).
    pub write_line: Energy,
    /// Background power (peripheral circuits; no refresh).
    pub background: Power,
}

impl EpcmConfig {
    /// The paper's `EPCM-MM` baseline: 8 banks, 60 ns reads, 150 ns writes,
    /// x16 bus at 800 MT/s.
    pub fn epcm_mm() -> Self {
        EpcmConfig {
            name: "EPCM-MM".into(),
            topology: Topology {
                channels: 1,
                banks: 8,
                rows: 1 << 16,
                columns: 128,
                line_bytes: 64,
            },
            read_latency: Time::from_nanos(60.0),
            write_latency: Time::from_nanos(150.0),
            bus_beat: Time::from_nanos(1.25),
            bus_bits: 16,
            read_line: Energy::from_nanojoules(1.0),
            write_line: Energy::from_nanojoules(8.0),
            background: Power::from_milliwatts(150.0),
        }
    }

    /// Bus occupancy for one line (DDR signaling).
    pub fn line_transfer(&self) -> Time {
        let beats = (self.topology.line_bytes * 8) as f64 / self.bus_bits as f64;
        self.bus_beat * (beats / 2.0)
    }
}

/// Running counters of a device's data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DataPlaneStats {
    /// Writes priced from their content.
    pub priced_writes: u64,
    /// Writes priced at the unknown-content worst case (no payload).
    pub unpriced_writes: u64,
    /// Cells actually reprogrammed across priced writes.
    pub cells_written: u64,
    /// Cells the priced writes spanned.
    pub cells_total: u64,
}

/// The optional content-aware write path of an [`EpcmDevice`].
#[derive(Debug)]
struct DataPlane {
    pricer: Box<dyn WritePricer>,
    /// Per-line cell images, keyed by decoded location. Each line lives in
    /// exactly one channel, so channel-sharded service runs stay
    /// byte-identical for any shard count.
    store: HashMap<(u64, u64, u64, u64), Vec<u8>>,
    stats: DataPlaneStats,
}

/// A stateless-timing EPCM device (no rows to keep open, no refresh).
///
/// # Examples
///
/// ```
/// use memsim::{EpcmConfig, EpcmDevice, MemoryDevice};
///
/// let dev = EpcmDevice::new(EpcmConfig::epcm_mm());
/// assert_eq!(dev.name(), "EPCM-MM");
/// ```
#[derive(Debug)]
pub struct EpcmDevice {
    config: EpcmConfig,
    data: Option<DataPlane>,
}

impl EpcmDevice {
    /// Creates a flat-cost device (every write prices at `write_line`).
    pub fn new(config: EpcmConfig) -> Self {
        EpcmDevice { config, data: None }
    }

    /// Creates a content-aware device: writes that carry a payload are
    /// priced by `pricer` against the line's previously stored cell image
    /// instead of the flat `write_line`/`write_latency` pair. Reads and
    /// payload-less writes keep the flat path (the latter at the pricer's
    /// unknown-content worst case).
    pub fn with_pricer(config: EpcmConfig, pricer: Box<dyn WritePricer>) -> Self {
        EpcmDevice {
            config,
            data: Some(DataPlane {
                pricer,
                store: HashMap::new(),
                stats: DataPlaneStats::default(),
            }),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &EpcmConfig {
        &self.config
    }

    /// Data-plane counters (`None` for flat-cost devices).
    pub fn data_plane_stats(&self) -> Option<DataPlaneStats> {
        self.data.as_ref().map(|d| d.stats)
    }

    /// Timing skeleton of a write: transfer first, then the array holds
    /// the bank for `array` (the flat path passes `write_latency`; the
    /// content-aware path the priced pulse occupancy).
    fn write_timing(&self, issue: Time, array: Time, energy: Energy) -> AccessTiming {
        let transfer = self.config.line_transfer();
        let data_ready = issue + transfer;
        AccessTiming {
            bank_free_at: data_ready + array,
            data_ready_at: data_ready,
            bus_occupancy: transfer,
            energy,
        }
    }
}

impl DeviceFactory for EpcmConfig {
    fn device_name(&self) -> String {
        self.name.clone()
    }

    fn build(&self) -> Box<dyn MemoryDevice> {
        Box::new(EpcmDevice::new(self.clone()))
    }

    fn device_topology(&self) -> Topology {
        self.topology
    }
}

impl MemoryDevice for EpcmDevice {
    fn name(&self) -> String {
        self.config.name.clone()
    }

    fn topology(&self) -> Topology {
        self.config.topology
    }

    fn access(&mut self, _loc: &DecodedAddress, op: MemOp, issue: Time) -> AccessTiming {
        let transfer = self.config.line_transfer();
        match op {
            MemOp::Read => {
                let data_ready = issue + self.config.read_latency;
                AccessTiming {
                    bank_free_at: data_ready + transfer,
                    data_ready_at: data_ready,
                    bus_occupancy: transfer,
                    energy: self.config.read_line,
                }
            }
            // Data moves first, then the slow array write holds the bank.
            MemOp::Write => {
                self.write_timing(issue, self.config.write_latency, self.config.write_line)
            }
        }
    }

    fn access_line(
        &mut self,
        loc: &DecodedAddress,
        op: MemOp,
        issue: Time,
        data: Option<&LineData>,
    ) -> AccessTiming {
        // Reads never consult the pricer; flat devices have none.
        if op.is_read() || self.data.is_none() {
            return self.access(loc, op, issue);
        }
        let plane = self.data.as_mut().expect("checked above");
        let key = (loc.channel, loc.bank, loc.row, loc.column);
        let cost = match data {
            Some(line) => {
                // One lookup reads the line's image and stores its successor.
                let cost = match plane.store.entry(key) {
                    Entry::Occupied(mut slot) => {
                        let priced = plane.pricer.price_write(Some(slot.get()), line);
                        match priced.image {
                            Some(image) => *slot.get_mut() = image,
                            None => {
                                slot.remove();
                            }
                        }
                        priced.cost
                    }
                    Entry::Vacant(slot) => {
                        let priced = plane.pricer.price_write(None, line);
                        if let Some(image) = priced.image {
                            slot.insert(image);
                        }
                        priced.cost
                    }
                };
                plane.stats.priced_writes += 1;
                plane.stats.cells_written += cost.cells_written;
                plane.stats.cells_total += cost.cells_total;
                cost
            }
            None => {
                // Unknown content: worst-case price, and the stored image
                // no longer describes the line.
                plane.store.remove(&key);
                plane.stats.unpriced_writes += 1;
                plane.pricer.price_unknown(self.config.topology.line_bytes)
            }
        };
        self.write_timing(issue, cost.latency, cost.energy)
    }

    fn background_power(&self) -> Power {
        self.config.background
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc() -> DecodedAddress {
        DecodedAddress {
            channel: 0,
            bank: 0,
            row: 0,
            column: 0,
        }
    }

    #[test]
    fn asymmetric_write_latency() {
        let mut dev = EpcmDevice::new(EpcmConfig::epcm_mm());
        let r = dev.access(&loc(), MemOp::Read, Time::ZERO);
        let w = dev.access(&loc(), MemOp::Write, Time::ZERO);
        assert!(w.bank_free_at.as_nanos() > r.bank_free_at.as_nanos() * 1.5);
        assert!(w.energy > r.energy * 3.0);
    }

    #[test]
    fn no_refresh_blackouts() {
        let mut dev = EpcmDevice::new(EpcmConfig::epcm_mm());
        // bank_available is the default (identity): never blocked.
        let at = Time::from_micros(100.0);
        assert_eq!(dev.bank_available(&loc(), at), at);
    }

    #[test]
    fn transfer_time() {
        // 64 B over x16 DDR at 1.25 ns beat-pair: 32 beats -> 20 ns.
        let cfg = EpcmConfig::epcm_mm();
        assert!((cfg.line_transfer().as_nanos() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn reads_are_deterministic() {
        let mut dev = EpcmDevice::new(EpcmConfig::epcm_mm());
        let a = dev.access(&loc(), MemOp::Read, Time::from_nanos(100.0));
        let b = dev.access(&loc(), MemOp::Read, Time::from_nanos(100.0));
        assert_eq!(a, b);
    }

    /// A toy pricer: 1 pJ and 1 ns per byte that differs from the stored
    /// image (all bytes on first touch); the image is the raw payload.
    #[derive(Debug)]
    struct BytePricer;

    impl crate::WritePricer for BytePricer {
        fn price_write(&self, stored: Option<&[u8]>, data: &crate::LineData) -> crate::PricedWrite {
            let new = data.bytes();
            let changed = match stored {
                Some(old) => new
                    .iter()
                    .zip(old.iter().chain(std::iter::repeat(&0)))
                    .filter(|(n, o)| n != o)
                    .count(),
                None => new.len(),
            } as u64;
            crate::PricedWrite {
                cost: crate::WriteCost {
                    energy: Energy::from_picojoules(changed as f64),
                    latency: Time::from_nanos(changed as f64),
                    cells_written: changed,
                    cells_total: new.len() as u64,
                },
                image: Some(new.to_vec()),
            }
        }

        fn price_unknown(&self, line_bytes: u64) -> crate::WriteCost {
            crate::WriteCost {
                energy: Energy::from_picojoules(line_bytes as f64),
                latency: Time::from_nanos(line_bytes as f64),
                cells_written: line_bytes,
                cells_total: line_bytes,
            }
        }
    }

    #[test]
    fn content_aware_writes_price_against_the_line_store() {
        let mut dev = EpcmDevice::with_pricer(EpcmConfig::epcm_mm(), Box::new(BytePricer));
        let line = crate::LineData::from_bytes(&[7u8; 64]);
        // First touch: every byte programs.
        let a = dev.access_line(&loc(), MemOp::Write, Time::ZERO, Some(&line));
        assert!((a.energy.as_picojoules() - 64.0).abs() < 1e-9);
        // Rewriting identical content is free array-wise.
        let b = dev.access_line(&loc(), MemOp::Write, Time::ZERO, Some(&line));
        assert_eq!(b.energy, Energy::ZERO);
        assert_eq!(
            b.bank_free_at, b.data_ready_at,
            "conserved write holds no array time"
        );
        // One changed byte prices one transition.
        let mut bytes = [7u8; 64];
        bytes[3] = 9;
        let c = dev.access_line(
            &loc(),
            MemOp::Write,
            Time::ZERO,
            Some(&crate::LineData::from_bytes(&bytes)),
        );
        assert!((c.energy.as_picojoules() - 1.0).abs() < 1e-9);
        let stats = dev.data_plane_stats().expect("data plane present");
        assert_eq!(stats.priced_writes, 3);
        assert_eq!(stats.cells_written, 65);
        assert_eq!(stats.cells_total, 3 * 64);
    }

    #[test]
    fn payloadless_writes_invalidate_the_store() {
        let mut dev = EpcmDevice::with_pricer(EpcmConfig::epcm_mm(), Box::new(BytePricer));
        let line = crate::LineData::from_bytes(&[7u8; 64]);
        let _ = dev.access_line(&loc(), MemOp::Write, Time::ZERO, Some(&line));
        // No payload: worst-case price, image dropped...
        let unknown = dev.access_line(&loc(), MemOp::Write, Time::ZERO, None);
        assert!((unknown.energy.as_picojoules() - 64.0).abs() < 1e-9);
        // ...so the next identical payload programs from scratch.
        let again = dev.access_line(&loc(), MemOp::Write, Time::ZERO, Some(&line));
        assert!((again.energy.as_picojoules() - 64.0).abs() < 1e-9);
        assert_eq!(dev.data_plane_stats().unwrap().unpriced_writes, 1);
    }

    #[test]
    fn flat_devices_ignore_payloads() {
        let mut dev = EpcmDevice::new(EpcmConfig::epcm_mm());
        let line = crate::LineData::zeroes(64);
        let with = dev.access_line(&loc(), MemOp::Write, Time::ZERO, Some(&line));
        let without = dev.access(&loc(), MemOp::Write, Time::ZERO);
        assert_eq!(with, without);
        assert!(dev.data_plane_stats().is_none());
    }
}
