//! Tracing decorators over the simulator's public seams.
//!
//! * [`TracedDevice`] wraps any `memsim::MemoryDevice`. It forwards every
//!   method, defaulted ones included: the trait's default `access_line`
//!   drops the payload (an EPCM data-plane device would then silently
//!   price writes at the flat rate) and its default `bank_available` skips
//!   the DRAM refresh catch-up, so relying on a default would change the
//!   simulation. It times each issued request and counts each scheduler
//!   poll.
//! * [`TracedPricer`] wraps the data plane's `WritePricer`, built the way
//!   `comet_lab::epcm_data_variant` builds its pricer.
//! * [`TracedFactory`] installs both through the `DeviceFactory` seam and
//!   times each build.
//!
//! Counts live in the wrappers while they run and fold into the
//! thread-local recorder when the wrapper is dropped (at the end of its
//! cell), so a poll costs an increment and no recorder lookup.

use crate::trace::{self, Counts, SpanName};
use comet_data::{DataPolicy, DataWriteModel};
use comet_lab::device_by_name;
use comet_units::{Energy, Power, Time};
use memsim::{
    AccessTiming, DecodedAddress, DeviceFactory, EpcmConfig, EpcmDevice, FnFactory, LineData,
    MemOp, MemoryDevice, PricedWrite, Topology, WriteCost, WritePricer,
};
use std::cell::Cell;

/// The `access_line` span of a registered device name.
pub fn access_span(device: &str) -> SpanName {
    if device.starts_with("COMET") {
        SpanName::CometAccess
    } else if device.starts_with("COSMOS") {
        SpanName::CosmosAccess
    } else if device.starts_with("EPCM") {
        SpanName::EpcmAccess
    } else {
        SpanName::DramAccess
    }
}

/// A `MemoryDevice` that times and counts calls into the device it wraps.
pub struct TracedDevice {
    inner: Box<dyn MemoryDevice>,
    access: SpanName,
    counts: Counts,
    // `row_hit` takes `&self`, so its count needs interior mutability.
    row_hits: Cell<u64>,
}

impl TracedDevice {
    /// Wraps `inner`, recording its accesses under `access`.
    pub fn new(inner: Box<dyn MemoryDevice>, access: SpanName) -> Self {
        TracedDevice {
            inner,
            access,
            counts: Counts::default(),
            row_hits: Cell::new(0),
        }
    }

    fn issued(&mut self, op: MemOp) {
        self.counts.accesses += 1;
        if !op.is_read() {
            self.counts.write_accesses += 1;
        }
    }
}

impl MemoryDevice for TracedDevice {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn topology(&self) -> Topology {
        self.inner.topology()
    }

    // The trait takes `&mut self` here today. Once the scheduler query
    // becomes side-effect free (`&self`), this count must move into a
    // `Cell` like `row_hits`.
    fn bank_available(&mut self, loc: &DecodedAddress, at: Time) -> Time {
        self.counts.bank_available += 1;
        self.inner.bank_available(loc, at)
    }

    fn access(&mut self, loc: &DecodedAddress, op: MemOp, issue: Time) -> AccessTiming {
        self.issued(op);
        let _span = trace::span(self.access);
        self.inner.access(loc, op, issue)
    }

    fn access_line(
        &mut self,
        loc: &DecodedAddress,
        op: MemOp,
        issue: Time,
        data: Option<&LineData>,
    ) -> AccessTiming {
        self.issued(op);
        let _span = trace::span(self.access);
        self.inner.access_line(loc, op, issue, data)
    }

    fn row_hit(&self, loc: &DecodedAddress) -> bool {
        self.row_hits.set(self.row_hits.get() + 1);
        self.inner.row_hit(loc)
    }

    fn drain_accumulated_energy(&mut self) -> Energy {
        self.inner.drain_accumulated_energy()
    }

    fn background_power(&self) -> Power {
        self.inner.background_power()
    }

    fn interface_delay(&self) -> Time {
        self.inner.interface_delay()
    }
}

impl Drop for TracedDevice {
    fn drop(&mut self) {
        self.counts.row_hit += self.row_hits.get();
        trace::add_counts(&self.counts);
    }
}

/// A `WritePricer` that times each priced write and counts the cells it
/// reprograms.
#[derive(Debug)]
pub struct TracedPricer {
    inner: DataWriteModel,
    counts: Cell<Counts>,
}

impl TracedPricer {
    /// Wraps a data-plane write model.
    pub fn new(inner: DataWriteModel) -> Self {
        TracedPricer {
            inner,
            counts: Cell::new(Counts::default()),
        }
    }
}

impl WritePricer for TracedPricer {
    fn price_write(&self, stored: Option<&[u8]>, data: &LineData) -> PricedWrite {
        let priced = {
            let _span = trace::span(SpanName::Price);
            self.inner.price_write(stored, data)
        };
        let mut c = self.counts.get();
        c.priced_writes += 1;
        c.cells_written += priced.cost.cells_written;
        c.cells_total += priced.cost.cells_total;
        self.counts.set(c);
        priced
    }

    fn price_unknown(&self, line_bytes: u64) -> WriteCost {
        self.inner.price_unknown(line_bytes)
    }
}

impl Drop for TracedPricer {
    fn drop(&mut self) {
        trace::add_counts(&self.counts.get());
    }
}

/// A `DeviceFactory` whose devices are [`TracedDevice`]s.
///
/// A hand-written factory rather than a `memsim::FnFactory` closure:
/// `FnFactory` answers `device_topology` by building a throwaway device,
/// which a config-backed registry factory never does, so the traced run
/// would build more devices than the run it is compared with.
pub struct TracedFactory {
    inner: Box<dyn DeviceFactory>,
    access: SpanName,
}

impl DeviceFactory for TracedFactory {
    fn device_name(&self) -> String {
        self.inner.device_name()
    }

    fn build(&self) -> Box<dyn MemoryDevice> {
        let _span = trace::span(SpanName::Build);
        Box::new(TracedDevice::new(self.inner.build(), self.access))
    }

    fn device_topology(&self) -> Topology {
        self.inner.device_topology()
    }
}

/// The data-plane EPCM variant `label`, built as
/// `comet_lab::epcm_data_variant` builds it but with a [`TracedPricer`].
fn traced_epcm_data_variant(label: &str, policy: DataPolicy) -> Box<dyn DeviceFactory> {
    let label = label.to_string();
    Box::new(FnFactory::new(label.clone(), move || {
        let mut cfg = EpcmConfig::epcm_mm();
        cfg.name = label.clone();
        Box::new(EpcmDevice::with_pricer(
            cfg,
            Box::new(TracedPricer::new(DataWriteModel::gst(4, policy))),
        ))
    }))
}

/// The traced counterpart of `comet_lab::device_by_name(name)`.
pub fn traced_factory(name: &str) -> Option<Box<dyn DeviceFactory>> {
    let inner = match name {
        "EPCM-oblivious" => traced_epcm_data_variant(name, DataPolicy::Oblivious),
        "EPCM-DCW" => traced_epcm_data_variant(name, DataPolicy::Dcw),
        "EPCM-DCW-FNW" => traced_epcm_data_variant(name, DataPolicy::DcwFnw),
        _ => device_by_name(name)?,
    };
    Some(Box::new(TracedFactory {
        inner,
        access: access_span(name),
    }))
}
