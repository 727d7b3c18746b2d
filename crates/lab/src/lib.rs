//! `comet-lab` — a sharded, parallel experiment-campaign subsystem.
//!
//! The paper's Section IV evaluation is a device × workload grid run by
//! hand; this crate makes that grid a first-class, declarative object:
//!
//! * a [`CampaignSpec`] enumerates cells (device factory × workload ×
//!   engine point × replicate);
//! * [`run_campaign`] shards the cells across OS threads
//!   (`std::thread::scope`), each cell simulated on a private device built
//!   from its [`memsim::DeviceFactory`], with its trace instantiated from
//!   a seed derived deterministically from the campaign seed — so the
//!   resulting [`CampaignReport`] is identical for any thread count;
//! * [`CampaignReport`] exports real [JSON](CampaignReport::to_json) (with
//!   an exact [parse-back](CampaignReport::from_json)) and
//!   [CSV](CampaignReport::to_csv), through the crate's own deterministic
//!   [`Json`] emitter/parser, the workspace's only serialization path.
//!
//! The `comet-lab` binary runs a campaign from command-line axes — or
//! from a JSON spec file via `comet-lab run spec.json` (see
//! [`spec_from_json`]) — and writes `results/<name>.json` +
//! `results/<name>.csv`; the `fig9`, `fig_latency_vs_load` and ablation
//! binaries in `comet-bench` are thin wrappers over campaign specs.
//!
//! Engine points cover two engines: trace replay (`memsim`) and the
//! event-driven `comet-serve` service core ([`EnginePoint::serve`]), whose
//! open/closed-loop scenarios make arrival rate, tenant mix, channel-shard
//! count and write batching sweepable campaign axes (see
//! [`serve_load_axis`], [`serve_mix_axis`], [`serve_concurrency_axis`]).
//!
//! # Quick start
//!
//! ```
//! use comet_lab::{run_campaign, CampaignReport, CampaignSpec, WorkloadSource};
//! use memsim::{spec_like_suite, DramConfig, EpcmConfig};
//!
//! let spec = CampaignSpec::new(
//!     "quickstart",
//!     42,
//!     vec![
//!         Box::new(DramConfig::ddr3_1600_2d()),
//!         Box::new(EpcmConfig::epcm_mm()),
//!     ],
//!     spec_like_suite(300).into_iter().take(3).map(WorkloadSource::Profile).collect(),
//! );
//! let report = run_campaign(&spec, 4);
//! assert_eq!(report.cells.len(), 6);
//! let json = report.to_json();
//! assert_eq!(CampaignReport::from_json(&json).unwrap(), report);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod json;
mod registry;
mod report;
mod runner;
mod spec;
mod spec_json;

pub use json::{Json, JsonError};
pub use registry::{
    cell_model_axis, comet_variant, data_policy_axis, device_by_name, device_names,
    epcm_data_variant, fig9_device_axis, payload_entropy_axis, serve_concurrency_axis,
    serve_device_axis, serve_load_axis, serve_mix_axis, workload_names, workloads_by_name,
    FIG9_DEVICES,
};
pub use report::{CampaignReport, CellReport, DeviceSummary, ReportParseError, TenantSummary};
pub use runner::{default_threads, run_campaign};
pub use spec::{CampaignSpec, CellCoords, EnginePoint, WorkloadSource};
pub use spec_json::{spec_from_json, spec_to_json, SpecError};
