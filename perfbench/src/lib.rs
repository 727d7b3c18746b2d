//! Host-side benchmark of the COMET simulator.
//!
//! It drives the simulator only through public entry points
//! (`comet_lab::run_campaign`, `comet_lab::device_by_name`, `comet_serve`
//! specs, `dota::TransformerWorkload::profile`) and measures it from
//! outside: host throughput, set-up time and peak memory per workload,
//! and, in a separate traced run, the time and call counts at each
//! layer's seam. `run.py` next to this crate is the entry point; see
//! `BENCHMARK.json` at the repository root for the workloads and metrics.

pub mod metrics;
pub mod run;
pub mod trace;
pub mod workloads;
pub mod wrap;
