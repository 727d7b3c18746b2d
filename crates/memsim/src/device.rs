//! The device timing/energy interface the controller drives.
//!
//! Every memory technology in the evaluation — 2D/3D DDR3/DDR4, EPCM-MM,
//! COSMOS and COMET — implements [`MemoryDevice`]. The [`Controller`]
//! owns queueing, scheduling and bus contention; the device owns bank
//! timing state (open rows, refresh, erase bookkeeping) and per-access
//! energy.
//!
//! [`Controller`]: crate::Controller

use crate::addr::DecodedAddress;
use crate::data::LineData;
use crate::request::MemOp;
use comet_units::{ByteCount, Energy, Power, Time};

/// Static shape of a memory device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Independent channels (each with its own data bus).
    pub channels: u64,
    /// Banks per channel.
    pub banks: u64,
    /// Rows per bank.
    pub rows: u64,
    /// Cache-line columns per row.
    pub columns: u64,
    /// Cache-line size in bytes.
    pub line_bytes: u64,
}

impl Topology {
    /// Total capacity.
    pub fn capacity(&self) -> ByteCount {
        ByteCount::new(self.channels * self.banks * self.rows * self.columns * self.line_bytes)
    }

    /// Total parallel banks across channels.
    pub fn total_banks(&self) -> u64 {
        self.channels * self.banks
    }
}

/// Timing and energy of one serviced access, as decided by the device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessTiming {
    /// When the bank becomes free for its next access.
    pub bank_free_at: Time,
    /// When the first data beat is ready to leave the device (reads) or
    /// when the device has latched the data (writes).
    pub data_ready_at: Time,
    /// Data-bus occupancy for the line transfer.
    pub bus_occupancy: Time,
    /// Energy consumed by this access (activation + array + I/O).
    pub energy: Energy,
}

/// A memory device model: timing state machine plus energy accounting.
///
/// Implementations are stateful (`&mut self`) — they track open rows,
/// refresh deadlines and erase state internally. Both engines reach a
/// device only through [`Controller`](crate::Controller), which calls
/// `access_line` with a monotonically non-decreasing `issue` time per bank.
///
/// The `Send` supertrait lets sharded runners (the `comet-lab` campaign
/// subsystem) move boxed devices onto worker threads; device models are
/// plain data, so the bound costs implementations nothing.
pub trait MemoryDevice: Send {
    /// Human-readable name used in reports (e.g. `"2D_DDR3"`).
    fn name(&self) -> String;

    /// The device shape.
    fn topology(&self) -> Topology;

    /// Earliest time the bank could accept an access issued at `at`
    /// (accounts for refresh windows and similar blackouts). The default
    /// is no additional constraint.
    ///
    /// The contract [`Controller::next_issue`](crate::Controller::next_issue)
    /// relies on to cache each bank's pick:
    /// * **No side effects.** Polling any number of times, at any times,
    ///   changes no later answer, access result or drained energy. State
    ///   such as refresh catch-up is committed by the `access` that
    ///   follows, not here. (The receiver stays `&mut self` only so that
    ///   wrappers can count calls.)
    /// * **Bank-local.** The answer depends only on the state of `loc`'s
    ///   own bank (channel × bank), which only an access to that bank
    ///   changes.
    fn bank_available(&mut self, _loc: &DecodedAddress, at: Time) -> Time {
        at
    }

    /// Services one access at time `issue`, updating internal state.
    fn access(&mut self, loc: &DecodedAddress, op: MemOp, issue: Time) -> AccessTiming;

    /// [`MemoryDevice::access`] with the request's line payload attached.
    /// The controller always calls this entry point; the default discards the
    /// payload and delegates, so content-oblivious devices are untouched.
    /// Content-aware devices (the EPCM data plane) override it to price
    /// writes per cell transition against a backing line store.
    fn access_line(
        &mut self,
        loc: &DecodedAddress,
        op: MemOp,
        issue: Time,
        data: Option<&LineData>,
    ) -> AccessTiming {
        let _ = data;
        self.access(loc, op, issue)
    }

    /// Whether an access to `loc` would hit an open row buffer — used by
    /// the controller's FR-FCFS tie-break. Devices without row buffers
    /// return `false`. Under the same contract as
    /// [`bank_available`](Self::bank_available): no side effects, and the
    /// answer depends only on `loc`'s own bank.
    fn row_hit(&self, _loc: &DecodedAddress) -> bool {
        false
    }

    /// Drains energy accumulated outside `access` calls (e.g. DRAM refresh).
    /// Called once by the engine at the end of a run.
    fn drain_accumulated_energy(&mut self) -> Energy {
        Energy::ZERO
    }

    /// Constant background power (standby, biasing, idle lasers...).
    fn background_power(&self) -> Power;

    /// Extra per-access controller latency added after the data transfer
    /// (e.g. COMET/COSMOS electrical interface delay of 105 ns). Reads
    /// observe it before data is usable; the default is zero.
    fn interface_delay(&self) -> Time {
        Time::ZERO
    }
}

/// Constructs fresh, identically configured [`MemoryDevice`] instances.
///
/// Parallel experiment runners need one device per shard (device models are
/// stateful), so experiments are described by *factories* rather than device
/// instances. A factory is `Send + Sync`: one factory is shared by every
/// worker thread and asked for a private device per simulation cell.
///
/// Device *configs* are the natural factories — `DramConfig`, `EpcmConfig`
/// (and `CometConfig`/`CosmosConfig` in their crates) all implement this
/// trait by constructing their device. For ad-hoc variants, wrap a closure
/// in [`FnFactory`].
pub trait DeviceFactory: Send + Sync {
    /// The report name of the devices this factory builds. Usually equals
    /// `MemoryDevice::name` of the built device; ad-hoc variants (see
    /// [`FnFactory`]) may use a more specific label (e.g. `"COMET-2b"`).
    fn device_name(&self) -> String;

    /// Builds a new device in its initial state.
    fn build(&self) -> Box<dyn MemoryDevice>;

    /// The topology the built devices will report. The default constructs
    /// a throwaway device and asks it; config-backed factories override
    /// this for free, so callers that only need a shape (e.g. workload
    /// line-size normalization) skip the device construction.
    fn device_topology(&self) -> Topology {
        self.build().topology()
    }
}

/// A closure-backed [`DeviceFactory`] for one-off device variants
/// (ablation sweeps, tuned configs) without a dedicated config type.
///
/// # Examples
///
/// ```
/// use memsim::{DeviceFactory, DramConfig, DramDevice, FnFactory};
///
/// let f = FnFactory::new("DDR3-x16", || {
///     let mut cfg = DramConfig::ddr3_1600_2d();
///     cfg.timings.bus_bits = 16;
///     Box::new(DramDevice::new(cfg))
/// });
/// assert_eq!(f.device_name(), "DDR3-x16");
/// let _dev = f.build();
/// ```
pub struct FnFactory {
    name: String,
    build: Box<dyn Fn() -> Box<dyn MemoryDevice> + Send + Sync>,
}

impl FnFactory {
    /// Wraps a device-building closure under a report name.
    pub fn new(
        name: impl Into<String>,
        build: impl Fn() -> Box<dyn MemoryDevice> + Send + Sync + 'static,
    ) -> Self {
        FnFactory {
            name: name.into(),
            build: Box::new(build),
        }
    }
}

impl std::fmt::Debug for FnFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnFactory")
            .field("name", &self.name)
            .finish()
    }
}

impl DeviceFactory for FnFactory {
    fn device_name(&self) -> String {
        self.name.clone()
    }

    fn build(&self) -> Box<dyn MemoryDevice> {
        (self.build)()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_capacity() {
        let t = Topology {
            channels: 1,
            banks: 8,
            rows: 1 << 16,
            columns: 128,
            line_bytes: 64,
        };
        assert_eq!(t.capacity().value(), 8 * 65536 * 128 * 64);
        assert_eq!(t.total_banks(), 8);
    }
}
