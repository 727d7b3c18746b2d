//! `memsim` — a trace-driven main-memory simulator.
//!
//! The evaluation substrate of the COMET reproduction, standing in for the
//! heavily modified NVMain 2.0 the paper uses (Section IV): requests flow
//! from a trace (captured or synthetic) through a memory [`Controller`]
//! with per-bank queues and FCFS/FR-FCFS scheduling into a pluggable
//! [`MemoryDevice`] timing/energy model, producing latency, bandwidth and
//! energy-per-bit statistics. The `comet-serve` event core drives the same
//! controller.
//!
//! Provided device models:
//! * [`DramDevice`] — 2D/3D DDR3/DDR4 with row buffers and refresh;
//! * [`EpcmDevice`] — electrically controlled PCM (`EPCM-MM`);
//! * the photonic architectures implement [`MemoryDevice`] in their own
//!   crates (`comet`, `cosmos`).
//!
//! # Quick start
//!
//! ```
//! use memsim::{
//!     run_simulation, spec_like_suite, DramConfig, DramDevice, SimConfig,
//! };
//!
//! let profile = &spec_like_suite(2000)[0]; // mcf-like
//! let trace = profile.generate(42);
//! let mut dev = DramDevice::new(DramConfig::ddr3_1600_2d());
//! let stats = run_simulation(&mut dev, &trace, &SimConfig::paced(&profile.name));
//! println!("{stats}");
//! assert_eq!(stats.completed, 2000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod controller;
mod data;
mod device;
mod dram;
mod engine;
mod pcm;
mod request;
mod stats;
mod synth;
mod trace;

pub use addr::{AddressMap, AddressMapError, DecodedAddress, Interleave};
pub use controller::{Controller, IssueSlot, Issued, Pending, Scheduler};
pub use data::{LineData, PricedWrite, WriteCost, WritePricer, MAX_LINE_BYTES};
pub use device::{AccessTiming, DeviceFactory, FnFactory, MemoryDevice, Topology};
pub use dram::{DramConfig, DramDevice, DramEnergy, DramTimings};
pub use engine::{run_simulation, ReplayMode, SimConfig};
pub use pcm::{EpcmConfig, EpcmDevice};
pub use request::{CompletedRequest, MemOp, MemRequest};
pub use stats::{EnergyBreakdown, LatencyHistogram, SimStats};
pub use synth::{spec_like_suite, AccessPattern, StreamShape, WorkloadProfile};
pub use trace::{read_trace, write_trace, ParseTraceError, TraceClock};
