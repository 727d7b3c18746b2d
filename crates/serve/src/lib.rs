//! `comet-serve` — an event-driven, multi-tenant traffic subsystem.
//!
//! `memsim` replays one pre-materialized trace through one device;
//! `comet-serve` turns that engine into a *service*, which is where
//! COMET's headline latency/EPB claims actually live — they are
//! throughput-and-queueing claims, and queueing only exists under a
//! request process:
//!
//! * **Request sources** ([`RequestSource`]) — open-loop arrival processes
//!   ([`ArrivalProcess`]: deterministic-rate, Poisson, bursty on/off) and
//!   closed-loop clients (fixed concurrency with think time), each seeded
//!   and deterministic, interleaved by a multi-tenant [`TenantMux`] with
//!   per-tenant accounting; tenants optionally source *line payloads*
//!   ([`TenantSpec::with_payload`], a `comet_data::PayloadSpec`) so
//!   content-aware devices price every store from its actual bytes;
//! * **A channel-sharded service core** ([`run_service`]) — one logical
//!   simulation partitioned across channel-owned
//!   [`memsim::MemoryDevice`] backends (address-interleaved through
//!   [`memsim::AddressMap`]), per-bank command queues reusing
//!   [`memsim::Scheduler`], and a write-coalescing batch stage
//!   ([`BatchConfig`]) that merges same-row/same-line writes within a
//!   window — exploiting PCM's read/write asymmetry;
//! * **Online tail accounting** — streaming p50/p95/p99/max through
//!   `memsim`'s one [`memsim::LatencyHistogram`] (log-linear, 128 buckets
//!   per octave, percentiles within 2^-7 of the exact nearest-rank value),
//!   for the aggregate and per tenant, plus per-tenant throughput and a
//!   self-decimating queue-depth [`DepthSeries`], all landing in the same
//!   [`memsim::SimStats`] shape trace replay reports, so `comet-lab`
//!   campaigns export serve cells and replay cells uniformly.
//!
//! # Quick start
//!
//! ```
//! use comet_serve::{run_service, ServeSpec};
//! use comet_units::Time;
//! use memsim::{spec_like_suite, EpcmConfig};
//!
//! let profile = &spec_like_suite(400)[0]; // mcf-like shape
//! let spec = ServeSpec::closed_loop(4, Time::from_nanos(50.0), 400);
//! let report = run_service(&EpcmConfig::epcm_mm(), &spec, profile, 42, &profile.name);
//! assert_eq!(report.stats.completed, 400);
//! assert!(report.stats.p99_latency >= report.stats.p50_latency);
//! println!(
//!     "p99 {:.0} ns at {:.2} Mrps",
//!     report.stats.p99_latency.as_nanos(),
//!     report.tenants[0].throughput_rps(report.stats.makespan) / 1e6,
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arrival;
mod batch;
mod core;
mod shape;
mod source;
mod stats;

pub use arrival::{ArrivalClock, ArrivalProcess};
pub use batch::BatchConfig;
pub use core::{run_service, run_service_with_sources, ServeSpec};
pub use shape::StreamShape;
pub use source::{
    ClosedLoopSource, MuxPoll, OpenLoopSource, RequestSource, SourcePoll, Sourced, TenantLoad,
    TenantMux, TenantSpec,
};
pub use stats::{ChannelStats, DepthSeries, ServeReport, TenantStats};
