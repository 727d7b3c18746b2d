//! COMET as a [`memsim::MemoryDevice`] — the timing/energy model the
//! Fig. 9 evaluation drives.
//!
//! Timing semantics (from Table II, NVMain-style):
//!
//! * **Reads** pipeline at burst granularity: the 10 ns cell read and 2 ns
//!   row tuning are *latency* (like DRAM CL), while the bank's wavelengths
//!   are occupied only for the 4 ns data burst — consecutive reads to
//!   different rows stream back-to-back, which is what lets COMET approach
//!   its 256-bit × 1 GHz per-bank bus rate.
//! * **Writes** transfer their data burst, then the programming pulse
//!   (≤170 ns; + 210 ns erase when erases are inline) is sustained
//!   *locally* by the target subarray's SOA stages, so it occupies the
//!   **subarray**, not the bank: writes to different subarrays overlap,
//!   writes/reads to the *same* subarray serialize.
//! * **Subarray switching** (GST waveguide switch, 100 ns) is paid when
//!   an access targets a subarray whose switch is not currently latched
//!   open. Switches are non-volatile and a small number per bank
//!   (`OPEN_SUBARRAY_WINDOW`) can stay latched concurrently — the power
//!   model still charges one subarray of SOAs per bank as the average
//!   activity — so a weight stream and an activation-write stream can
//!   coexist without thrashing the switch.
//! * Every access sees the 105 ns electrical interface delay.
//!
//! Energy: programming/read pulse energies per access; the architecture's
//! full power stack (laser + SOA + tuning + interface, Fig. 7) burns as
//! *background* power for the duration of the run — matching the paper's
//! EPB accounting ("the entire power consumption ... is utilized for
//! orchestrating reads and writes").

use crate::arch::CometConfig;
use crate::laser::{LaserPolicy, LaserPowerManager};
use crate::mapping::AddressMapper;
use crate::power::CometPowerModel;
use comet_units::{Energy, Power, Time};
use memsim::{AccessTiming, DecodedAddress, DeviceFactory, MemOp, MemoryDevice, Topology};
use std::collections::{HashMap, VecDeque};

/// Concurrently-latched GST subarray switches per bank (LRU-evicted).
/// Matches the default subarray stripe so striped streams never thrash.
/// The switches are non-volatile latches, so keeping a window of them open
/// costs no static power; the SOA power accounting still follows the
/// paper's one-active-subarray-per-bank time-average formula.
const OPEN_SUBARRAY_WINDOW: usize = 64;

/// Per-access pulse energies (derived from the physics layer's programming
/// tables; defaults match the Fig. 6 GST cell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PulseEnergies {
    /// Average per-cell write pulse energy.
    pub write_per_cell: Energy,
    /// Per-cell read pulse energy (low-power probe).
    pub read_per_cell: Energy,
    /// Per-cell erase share (amorphous reset amortized per write when
    /// erases run in the background).
    pub erase_per_cell: Energy,
}

impl Default for PulseEnergies {
    fn default() -> Self {
        PulseEnergies {
            // ~1 mW × ~85 ns average level pulse.
            write_per_cell: Energy::from_picojoules(85.0),
            // 0.1 mW × 10 ns.
            read_per_cell: Energy::from_picojoules(1.0),
            // 280 pJ amorphous reset.
            erase_per_cell: Energy::from_picojoules(280.0),
        }
    }
}

/// The COMET timing/energy device.
///
/// # Examples
///
/// ```
/// use comet::{CometConfig, CometDevice};
/// use memsim::MemoryDevice;
///
/// let dev = CometDevice::new(CometConfig::comet_4b());
/// assert_eq!(dev.name(), "COMET");
/// assert_eq!(dev.topology().channels, 4); // one lane per MDM mode
/// assert_eq!(dev.topology().line_bytes, 128);
/// ```
#[derive(Debug, Clone)]
pub struct CometDevice {
    config: CometConfig,
    mapper: AddressMapper,
    background: Power,
    energies: PulseEnergies,
    /// Latched-open subarray switches per bank (LRU order, newest back).
    open_subarrays: Vec<VecDeque<u64>>,
    /// Busy-until horizon per (bank, subarray) with in-flight programming.
    subarray_busy: HashMap<(u64, u64), Time>,
    /// Dynamic laser power manager (None = the paper's static stack).
    manager: Option<LaserPowerManager>,
    /// Latest device-time seen (closes the manager's accounting).
    horizon: Time,
}

impl CometDevice {
    /// Creates a device with the configuration's power stack as background.
    pub fn new(config: CometConfig) -> Self {
        let background = CometPowerModel::new(config.clone()).stack().total();
        Self::with_background(config, background)
    }

    /// Creates a device with an explicit background power (for ablations,
    /// e.g. dynamic laser power management studies).
    pub fn with_background(config: CometConfig, background: Power) -> Self {
        let mapper = AddressMapper::new(&config);
        let banks = config.banks as usize;
        CometDevice {
            config,
            mapper,
            background,
            energies: PulseEnergies::default(),
            open_subarrays: vec![VecDeque::new(); banks],
            subarray_busy: HashMap::new(),
            manager: None,
            horizon: Time::ZERO,
        }
    }

    /// Creates a device under a laser power-management policy (the paper's
    /// Section IV.C future-work extension; see [`crate::LaserPolicy`]).
    ///
    /// Under [`LaserPolicy::Windowed`] the laser + SOA share of the Fig. 7
    /// stack is demand-gated: its energy is accounted per management
    /// window by the device itself (reported through the engine's drained
    /// bucket) instead of burning as constant background power, and
    /// accesses that catch the laser idle pay the policy's wake-up stall.
    pub fn with_policy(config: CometConfig, policy: LaserPolicy) -> Self {
        let mut dev = Self::new(config.clone());
        if let LaserPolicy::Windowed(w) = policy {
            let stack = CometPowerModel::new(config).stack();
            let gateable = stack.laser + stack.soa;
            let always_on = stack.tuning + stack.interface;
            dev.manager = Some(LaserPowerManager::new(w, gateable, always_on));
        }
        dev
    }

    /// The wake-up count of the laser manager (zero for the static policy).
    pub fn laser_wakeups(&self) -> u64 {
        self.manager.as_ref().map_or(0, LaserPowerManager::wakeups)
    }

    /// The configuration.
    pub fn config(&self) -> &CometConfig {
        &self.config
    }

    /// Physical row after subarray striping: consecutive controller rows
    /// rotate across `subarray_stripe` distant row blocks, so streaming
    /// writes spread their programming pulses over parallel subarrays.
    fn physical_row(&self, row: u64) -> u64 {
        let stripe = self.config.subarray_stripe.max(1);
        let total = self.config.subarrays * self.config.subarray_rows;
        (row % stripe) * (total / stripe) + row / stripe
    }

    /// The subarray a flat controller address targets.
    fn subarray_of(&self, loc: &DecodedAddress) -> u64 {
        let mut loc = *loc;
        loc.row = self.physical_row(loc.row);
        self.mapper.map(loc).subarray
    }
}

/// The controller-visible shape of a COMET configuration — each MDM mode
/// is an independent bank *with its own data lane*: modeled as one bank
/// per channel so the engine gives every mode a private bus (shared-bus
/// contention would be wrong for MDM).
fn controller_topology(config: &CometConfig) -> Topology {
    Topology {
        channels: config.banks,
        banks: 1,
        rows: config.subarrays * config.subarray_rows,
        columns: 1,
        line_bytes: config.timing.access_bytes(),
    }
}

impl DeviceFactory for CometConfig {
    fn device_name(&self) -> String {
        "COMET".into()
    }

    fn build(&self) -> Box<dyn MemoryDevice> {
        Box::new(CometDevice::new(self.clone()))
    }

    fn device_topology(&self) -> Topology {
        controller_topology(self)
    }
}

impl MemoryDevice for CometDevice {
    fn name(&self) -> String {
        "COMET".into()
    }

    fn topology(&self) -> Topology {
        controller_topology(&self.config)
    }

    fn bank_available(&mut self, loc: &DecodedAddress, at: Time) -> Time {
        // The target subarray may still be programming.
        let key = (loc.channel, self.subarray_of(loc));
        match self.subarray_busy.get(&key) {
            Some(&busy) => at.max(busy),
            None => at,
        }
    }

    fn access(&mut self, loc: &DecodedAddress, op: MemOp, issue: Time) -> AccessTiming {
        let t = self.config.timing;
        let subarray = self.subarray_of(loc);
        let bank = loc.channel as usize;

        // Dynamic laser management: an access that catches the laser idle
        // pays the wake-up stall before anything else can happen.
        let issue = match self.manager.as_mut() {
            Some(m) => issue + m.on_access(issue),
            None => issue,
        };

        // GST switch: pay 100 ns only when the subarray's switch is not
        // already latched open; LRU-evict beyond the open window.
        let open = &mut self.open_subarrays[bank];
        let switch = if let Some(pos) = open.iter().position(|&s| s == subarray) {
            open.remove(pos);
            open.push_back(subarray);
            Time::ZERO
        } else {
            if open.len() >= OPEN_SUBARRAY_WINDOW {
                open.pop_front();
            }
            open.push_back(subarray);
            t.subarray_switch_time
        };

        let start = issue + switch;
        let cells = self.config.cells_per_line() as f64;
        self.horizon = self.horizon.max(match op {
            MemOp::Read => start + t.row_access_time + t.read_time,
            MemOp::Write => start.max(issue + t.burst_time()) + t.write_occupancy(),
        });

        match op {
            MemOp::Read => {
                // Read pulses pipeline on the wavelengths: the 12 ns
                // tune+read (and any switch set-up) is latency only; the
                // mode's lane is held for the burst. Reads leave no
                // subarray reservation.
                let data_ready = start + t.row_access_time + t.read_time;
                AccessTiming {
                    bank_free_at: issue + t.burst_time(),
                    data_ready_at: data_ready,
                    bus_occupancy: t.burst_time(),
                    energy: self.energies.read_per_cell * cells,
                }
            }
            MemOp::Write => {
                // The data burst lands in the interface buffer immediately
                // (the switch set-up proceeds in parallel); programming
                // starts once both the switch and the data are in, and is
                // sustained by the subarray's SOA stages.
                let data_ready = issue + t.burst_time();
                let program_start = issue + switch.max(t.burst_time());
                let program_done = program_start + t.write_occupancy();
                self.subarray_busy
                    .insert((loc.channel, subarray), program_done);
                let mut energy = self.energies.write_per_cell * cells;
                if !t.background_erase {
                    energy += self.energies.erase_per_cell * cells;
                }
                AccessTiming {
                    // The switch set-up overlaps with other subarrays'
                    // traffic: the lane is only held for the data burst.
                    bank_free_at: issue + t.burst_time(),
                    data_ready_at: data_ready,
                    bus_occupancy: t.burst_time(),
                    energy,
                }
            }
        }
    }

    fn row_hit(&self, loc: &DecodedAddress) -> bool {
        // "Row hit" for FR-FCFS = the subarray's switch is latched open
        // (avoids the 100 ns GST switch).
        self.open_subarrays[loc.channel as usize].contains(&self.subarray_of(loc))
    }

    fn background_power(&self) -> Power {
        // Under dynamic management the manager accounts the whole stack
        // itself (drained at the end of the run).
        if self.manager.is_some() {
            Power::ZERO
        } else {
            self.background
        }
    }

    fn drain_accumulated_energy(&mut self) -> Energy {
        let horizon = self.horizon;
        match self.manager.as_mut() {
            Some(m) => m.finish(horizon),
            None => Energy::ZERO,
        }
    }

    fn interface_delay(&self) -> Time {
        self.config.timing.interface_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_units::ByteCount;
    use memsim::{run_simulation, MemRequest, SimConfig};

    fn device() -> CometDevice {
        CometDevice::new(CometConfig::comet_4b())
    }

    fn loc(bank: u64, row: u64) -> DecodedAddress {
        // Banks ride on channels (one lane per MDM mode).
        DecodedAddress {
            channel: bank,
            bank: 0,
            row,
            column: 0,
        }
    }

    #[test]
    fn read_latency_matches_table_ii() {
        let mut dev = device();
        let a = dev.access(&loc(0, 0), MemOp::Read, Time::ZERO);
        // First access pays the subarray switch (100) + tune (2) + read (10).
        assert!((a.data_ready_at.as_nanos() - 112.0).abs() < 1e-9);
        // Second access to the same (striped) subarray: 12 ns. With the
        // default 64-way stripe, row 64 shares row 0's subarray.
        let b = dev.access(&loc(0, 64), MemOp::Read, Time::from_nanos(200.0));
        assert!((b.data_ready_at.as_nanos() - 212.0).abs() < 1e-9);
        assert!((dev.interface_delay().as_nanos() - 105.0).abs() < 1e-9);
    }

    #[test]
    fn reads_pipeline_at_burst_rate() {
        let mut dev = device();
        let _ = dev.access(&loc(0, 0), MemOp::Read, Time::ZERO);
        let b = dev.access(&loc(0, 1), MemOp::Read, Time::from_nanos(200.0));
        // Bank frees one burst after issue, not one read-time after.
        assert!((b.bank_free_at.as_nanos() - 204.0).abs() < 1e-9);
    }

    #[test]
    fn subarray_switch_latches() {
        let mut dev = device();
        let sub0 = loc(0, 0);
        let sub1 = loc(0, 1); // striping sends row 1 to a distant subarray
        let a = dev.access(&sub0, MemOp::Read, Time::ZERO);
        assert!(
            (a.data_ready_at.as_nanos() - 112.0).abs() < 1e-9,
            "cold switch"
        );
        let b = dev.access(&sub1, MemOp::Read, Time::from_nanos(500.0));
        assert!(
            (b.data_ready_at.as_nanos() - 612.0).abs() < 1e-9,
            "switch to 1"
        );
        let c = dev.access(&sub1, MemOp::Read, Time::from_nanos(1000.0));
        assert!(
            (c.data_ready_at.as_nanos() - 1012.0).abs() < 1e-9,
            "latched"
        );
        assert!(dev.row_hit(&sub1));
        // The open window keeps sub0 latched too (no thrash)...
        assert!(dev.row_hit(&sub0));
        // ...until enough distinct subarrays evict it (window is 64; rows
        // k·stripe·512 share row 0's stripe class but land in subarray k,
        // so 65 of them flush the whole window).
        let stripe = dev.config().subarray_stripe;
        for k in 1..=65u64 {
            let _ = dev.access(
                &loc(0, k * stripe * 512),
                MemOp::Read,
                Time::from_nanos(2000.0 + k as f64),
            );
        }
        assert!(!dev.row_hit(&sub0), "LRU eviction after window overflow");
    }

    #[test]
    fn writes_occupy_subarray_not_bank() {
        let mut dev = device();
        let w = dev.access(&loc(0, 0), MemOp::Write, Time::ZERO);
        // Bank frees after the burst (the switch set-up is latency only).
        assert!((w.bank_free_at.as_nanos() - 4.0).abs() < 1e-9);
        // But the same (striped) subarray is blocked until programming
        // completes: row 64 shares row 0's subarray.
        let avail = dev.bank_available(&loc(0, 64), Time::from_nanos(110.0));
        // Cold write: switch (100, overlapping the burst) + program (170).
        assert!(
            (avail.as_nanos() - 270.0).abs() < 1e-9,
            "subarray busy until switch+program, got {avail}"
        );
        // A different subarray (row 1, next stripe) is immediately available.
        let other = dev.bank_available(&loc(0, 1), Time::from_nanos(110.0));
        assert!((other.as_nanos() - 110.0).abs() < 1e-9);
    }

    #[test]
    fn inline_erase_lengthens_writes() {
        let mut cfg = CometConfig::comet_4b();
        cfg.timing.background_erase = false;
        let mut dev = CometDevice::new(cfg);
        let w = dev.access(&loc(0, 0), MemOp::Write, Time::ZERO);
        let avail = dev.bank_available(&loc(0, 64), w.bank_free_at);
        // switch 100 (burst overlapped) + erase 210 + write 170 = 480.
        assert!((avail.as_nanos() - 480.0).abs() < 1e-9, "got {avail}");
    }

    #[test]
    fn background_power_is_the_fig7_stack() {
        let dev = device();
        let stack = CometPowerModel::new(CometConfig::comet_4b())
            .stack()
            .total();
        assert!((dev.background_power().as_watts() - stack.as_watts()).abs() < 1e-9);
        assert!(dev.background_power().as_watts() > 10.0);
    }

    #[test]
    fn saturation_read_bandwidth_near_bus_rate() {
        // Streaming reads should approach 4 banks x 128 B / 4 ns = 128 GB/s.
        let mut dev = device();
        let reqs: Vec<MemRequest> = (0..20_000u64)
            .map(|i| MemRequest::new(i, Time::ZERO, MemOp::Read, i * 128, ByteCount::new(128)))
            .collect();
        let stats = run_simulation(&mut dev, &reqs, &SimConfig::saturation("stream"));
        let bw = stats.bandwidth().as_gigabytes_per_second();
        assert!((60.0..=130.0).contains(&bw), "stream read BW {bw} GB/s");
    }

    #[test]
    fn write_programming_parallelism_depends_on_stripe() {
        let mk = || CometDevice::new(CometConfig::comet_4b());
        // Sequential writes ride the 64-way stripe: their 170 ns programming
        // pulses overlap across subarrays, so the stream runs near the bus
        // rate, like reads.
        let seq_writes: Vec<MemRequest> = (0..5000u64)
            .map(|i| MemRequest::new(i, Time::ZERO, MemOp::Write, i * 128, ByteCount::new(128)))
            .collect();
        let seq_reads: Vec<MemRequest> = (0..5000u64)
            .map(|i| MemRequest::new(i, Time::ZERO, MemOp::Read, i * 128, ByteCount::new(128)))
            .collect();
        let sr = run_simulation(&mut mk(), &seq_reads, &SimConfig::saturation("r"));
        let sw = run_simulation(&mut mk(), &seq_writes, &SimConfig::saturation("w"));
        let r = sr.bandwidth().as_gigabytes_per_second();
        let w = sw.bandwidth().as_gigabytes_per_second();
        assert!(
            w > 60.0,
            "striped write BW {w} GB/s should approach the bus rate"
        );
        assert!(
            r > 60.0,
            "streaming read BW {r} GB/s should approach the bus rate"
        );

        // A row stride equal to the full stripe defeats the interleaving:
        // every write in a channel lands in the same subarray and the
        // programming pulses serialize at 170 ns apiece.
        let stripe = CometConfig::comet_4b().subarray_stripe;
        let serial: Vec<MemRequest> = (0..5000u64)
            .map(|i| {
                // Row stride = stripe (x4 channel-interleaved lines/row).
                MemRequest::new(
                    i,
                    Time::ZERO,
                    MemOp::Write,
                    i * stripe * 4 * 128,
                    ByteCount::new(128),
                )
            })
            .collect();
        let ss = run_simulation(&mut mk(), &serial, &SimConfig::saturation("sw"));
        let s = ss.bandwidth().as_gigabytes_per_second();
        assert!(
            s * 5.0 < w,
            "stripe-defeating writes ({s} GB/s) should serialize well below \
             streaming writes ({w} GB/s)"
        );
        // ...but stay in the GB/s decade: 4 banks x 128 B / 170 ns ~ 3 GB/s.
        assert!(s > 1.0, "serialized write BW {s} GB/s");
    }

    #[test]
    fn windowed_laser_policy_saves_energy_on_sparse_traffic() {
        use crate::laser::{LaserPolicy, WindowedPolicy};
        // One access every 20 us: the laser should sleep most of the time.
        let reqs: Vec<MemRequest> = (0..50u64)
            .map(|i| {
                MemRequest::new(
                    i,
                    Time::from_micros(i as f64 * 20.0),
                    MemOp::Read,
                    i * 128,
                    ByteCount::new(128),
                )
            })
            .collect();
        let mut managed = CometDevice::with_policy(
            CometConfig::comet_4b(),
            LaserPolicy::Windowed(WindowedPolicy::default_1us()),
        );
        let mut static_dev = CometDevice::new(CometConfig::comet_4b());
        let sm = run_simulation(&mut managed, &reqs, &SimConfig::paced("sparse"));
        let ss = run_simulation(&mut static_dev, &reqs, &SimConfig::paced("sparse"));
        // Managed run reports its stack through the drained bucket.
        assert_eq!(sm.energy.background, comet_units::Energy::ZERO);
        assert!(sm.energy.refresh > comet_units::Energy::ZERO);
        // Dramatic saving on sparse traffic (idle floor is 10% + always-on).
        let managed_total = sm.energy.total().as_joules();
        let static_total = ss.energy.total().as_joules();
        assert!(
            managed_total < 0.5 * static_total,
            "managed {managed_total} J vs static {static_total} J"
        );
        // Every isolated access after the first pays one wake-up.
        assert_eq!(managed.laser_wakeups(), 49);
    }

    #[test]
    fn windowed_laser_policy_is_neutral_under_saturation() {
        use crate::laser::{LaserPolicy, WindowedPolicy};
        let reqs: Vec<MemRequest> = (0..20_000u64)
            .map(|i| MemRequest::new(i, Time::ZERO, MemOp::Read, i * 128, ByteCount::new(128)))
            .collect();
        let mut managed = CometDevice::with_policy(
            CometConfig::comet_4b(),
            LaserPolicy::Windowed(WindowedPolicy::default_1us()),
        );
        let mut static_dev = CometDevice::new(CometConfig::comet_4b());
        let sm = run_simulation(&mut managed, &reqs, &SimConfig::saturation("stream"));
        let ss = run_simulation(&mut static_dev, &reqs, &SimConfig::saturation("stream"));
        // No wake-ups, no throughput loss under saturation.
        assert_eq!(managed.laser_wakeups(), 0);
        let bm = sm.bandwidth().as_gigabytes_per_second();
        let bs = ss.bandwidth().as_gigabytes_per_second();
        assert!((bm - bs).abs() / bs < 0.01, "managed {bm} vs static {bs}");
        // Energy within a few percent of the static stack (the manager's
        // horizon stops at the last access, the engine integrates to the
        // last completion).
        let ratio = sm.energy.total().as_joules() / ss.energy.total().as_joules();
        assert!((0.9..=1.02).contains(&ratio), "energy ratio {ratio}");
    }

    #[test]
    fn static_policy_matches_plain_constructor() {
        use crate::laser::LaserPolicy;
        let a = CometDevice::with_policy(CometConfig::comet_4b(), LaserPolicy::Static);
        let b = CometDevice::new(CometConfig::comet_4b());
        assert_eq!(a.background_power(), b.background_power());
        assert_eq!(a.laser_wakeups(), 0);
    }

    #[test]
    fn capacity_matches_config() {
        let dev = device();
        assert_eq!(
            dev.topology().capacity().value() * 8,
            CometConfig::comet_4b().capacity_bits().value()
        );
    }
}
