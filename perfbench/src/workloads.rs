//! The benchmark's workloads: fixed campaign grids, instantiated from the
//! seed given on the command line.
//!
//! Request counts are fixed per workload, so `sim_req_per_s` compares the
//! same simulated work on every commit. They are sized so that one pass
//! over a grid takes on the order of a second on a 2-core x86-64 host,
//! which leaves several timed passes in a run.

use comet_data::PayloadSpec;
use comet_lab::{serve_mix_axis, CampaignSpec, EnginePoint, WorkloadSource, FIG9_DEVICES};
use comet_serve::{ArrivalProcess, BatchConfig, ServeSpec, TenantSpec};
use comet_units::{ByteCount, Time};
use memsim::{spec_like_suite, AccessPattern, DeviceFactory, Scheduler, WorkloadProfile};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["fig9-replay", "serve-mix", "write-dataplane"];

/// Every device any workload runs, in metric order.
pub const ALL_DEVICES: [&str; 10] = [
    "2D_DDR3",
    "3D_DDR3",
    "2D_DDR4",
    "3D_DDR4",
    "EPCM-MM",
    "COSMOS",
    "COMET",
    "EPCM-oblivious",
    "EPCM-DCW",
    "EPCM-DCW-FNW",
];

/// Requests per fig9-replay cell (64 B lines; 128 B-line devices replay
/// half as many, moving the same bytes).
const FIG9_REQUESTS: usize = 6_000;
/// Requests of fig9-replay's long-trace cell. Replay holds the whole
/// trace, about 230 B a request, so this one cell sets the workload's peak
/// memory and per-request memory makes up most of it.
const LONG_TRACE_REQUESTS: usize = 60_000;
/// Requests per tenant in a serve-mix cell.
const SERVE_REQUESTS: usize = 20_000;
/// Requests per tenant in a write-dataplane cell.
const DATA_REQUESTS: usize = 12_000;

/// One workload: one or more device × workload × engine grids, each run
/// as a campaign of its own.
pub struct Grid {
    /// Workload name.
    pub name: &'static str,
    /// Registry names of every device the workload runs, once each.
    pub devices: Vec<&'static str>,
    parts: Vec<Part>,
}

/// One campaign of a workload.
struct Part {
    name: String,
    devices: Vec<&'static str>,
    workloads: Vec<WorkloadSource>,
    engines: Vec<EnginePoint>,
}

impl Grid {
    /// The workload called `name`, or `None` for an unknown name.
    pub fn named(name: &str) -> Option<Grid> {
        let parts = match name {
            "fig9-replay" => vec![fig9_replay(), long_trace()],
            "serve-mix" => serve_mix(),
            "write-dataplane" => vec![write_dataplane()],
            _ => return None,
        };
        let name = WORKLOADS.into_iter().find(|w| *w == name)?;
        let mut devices: Vec<&'static str> = Vec::new();
        for &device in parts.iter().flat_map(|p| &p.devices) {
            if !devices.contains(&device) {
                devices.push(device);
            }
        }
        Some(Grid {
            name,
            devices,
            parts,
        })
    }

    /// The workload's campaigns, devices built by `factory`.
    pub fn campaigns(
        &self,
        seed: u64,
        factory: impl Fn(&str) -> Box<dyn DeviceFactory>,
    ) -> Vec<CampaignSpec> {
        self.parts
            .iter()
            .map(|part| {
                let mut spec = CampaignSpec::new(
                    part.name.clone(),
                    seed,
                    part.devices.iter().map(|d| factory(d)).collect(),
                    part.workloads.clone(),
                );
                spec.engines = part.engines.clone();
                spec
            })
            .collect()
    }

    /// Cell `index` of campaign `part` (one of [`Grid::campaigns`],
    /// passed as `spec`) as a campaign of its own. Its single cell equals
    /// the campaign's cell `index` except for the index field: the cell
    /// seed depends only on the master seed and replicate.
    pub fn cell_campaign(
        &self,
        part: usize,
        spec: &CampaignSpec,
        index: usize,
        factory: impl Fn(&str) -> Box<dyn DeviceFactory>,
    ) -> CampaignSpec {
        let part = &self.parts[part];
        let c = spec.coords(index);
        let mut cell = CampaignSpec::new(
            part.name.clone(),
            spec.seed,
            vec![factory(part.devices[c.device])],
            vec![part.workloads[c.workload].clone()],
        );
        cell.engines = vec![part.engines[c.engine].clone()];
        cell
    }
}

/// Requests each cell of `spec` must complete: a serve cell its scenario
/// budget, a replay cell its profile resized to the device's line with
/// bytes preserved (the campaign's equal-bytes rule, rounded, at least
/// one request).
pub fn expected_requests(spec: &CampaignSpec) -> Vec<u64> {
    let lines: Vec<u64> = spec
        .devices
        .iter()
        .map(|f| f.device_topology().line_bytes)
        .collect();
    (0..spec.cells())
        .map(|i| {
            let c = spec.coords(i);
            if let Some(serve) = &spec.engines[c.engine].serve {
                return serve.total_requests() as u64;
            }
            match &spec.workloads[c.workload] {
                WorkloadSource::Profile(p) => {
                    let line = lines[c.device];
                    ((p.requests as u64 * p.line_bytes + line / 2) / line).max(1)
                }
                WorkloadSource::Trace { requests, .. } => requests.len() as u64,
            }
        })
        .collect()
}

/// Whether cell `index` of `spec` runs the serve engine.
pub fn is_serve_cell(spec: &CampaignSpec, index: usize) -> bool {
    spec.engines[spec.coords(index).engine].serve.is_some()
}

/// The Fig. 9 grid: seven devices × eight SPEC-like profiles, paced
/// FR-FCFS(8) trace replay.
fn fig9_replay() -> Part {
    Part {
        name: "fig9-replay".into(),
        devices: FIG9_DEVICES.to_vec(),
        workloads: spec_like_suite(FIG9_REQUESTS)
            .into_iter()
            .map(WorkloadSource::Profile)
            .collect(),
        engines: vec![EnginePoint::paced()],
    }
}

/// One long mcf-like trace replayed on 2D_DDR3, the cheapest Fig. 9
/// device to replay per request.
fn long_trace() -> Part {
    Part {
        name: "fig9-replay-long".into(),
        devices: vec!["2D_DDR3"],
        workloads: spec_like_suite(LONG_TRACE_REQUESTS)
            .into_iter()
            .filter(|p| p.name == "mcf-like")
            .map(WorkloadSource::Profile)
            .collect(),
        engines: vec![EnginePoint::paced()],
    }
}

/// Per-tenant arrival rates of serve-mix: one light rate shared by all
/// devices, and per device a heavy rate at 85 % of the rate where its
/// delivered bandwidth stops rising. Swept with this mix (two tenants,
/// batching on, 20k requests each, seed 21), that happens at about 19 M
/// (2D_DDR4), 75 M (3D_DDR4) and 500 M (COMET) requests/s per tenant.
/// Mean p99 over the two profiles goes from 172 to 1178 ns on 2D_DDR4,
/// from 133 to 1085 ns on 3D_DDR4, and from 251 to 338 ns on COMET, whose
/// queues stay shallow until close to its knee. The traced run reports
/// both p99s of every device.
const SERVE_LIGHT_RATE: f64 = 4.0e6;
/// Heavy per-tenant arrival rate of each serve-mix device.
pub const SERVE_HEAVY_RATES: [(&str, f64); 3] =
    [("2D_DDR4", 1.6e7), ("3D_DDR4", 6.4e7), ("COMET", 4.2e8)];

/// Open-loop Poisson serve, read-dominated and payload-free: a SPEC-like
/// tenant beside the DOTA DeiT-Base weight stream, write batching on, at
/// a light and a near-saturation arrival rate per tenant. Each device is
/// a campaign of its own, since its heavy rate is its own.
fn serve_mix() -> Vec<Part> {
    SERVE_HEAVY_RATES
        .into_iter()
        .map(|(device, heavy)| Part {
            name: format!("serve-mix-{device}"),
            devices: vec![device],
            workloads: spec_like_suite(SERVE_REQUESTS)
                .into_iter()
                .filter(|p| p.name == "mcf-like" || p.name == "bwaves-like")
                .map(WorkloadSource::Profile)
                .collect(),
            engines: [("light", SERVE_LIGHT_RATE), ("heavy", heavy)]
                .into_iter()
                .map(|(load, rate)| {
                    // serve_mix_axis returns [solo, dota-mix]; keep the mix.
                    let mut point = serve_mix_axis(ArrivalProcess::poisson(rate), SERVE_REQUESTS)
                        .pop()
                        .expect("the mix axis ends with the DOTA mix");
                    point.label = format!("serve-dota-mix-{load}");
                    if let Some(serve) = point.serve.as_mut() {
                        serve.batch = Some(BatchConfig::default());
                    }
                    point
                })
                .collect(),
        })
        .collect()
}

/// Write-heavy open-loop serve with payloads: a low-entropy tenant whose
/// stores update lines of a small footprint in place (so lines are
/// rewritten and the data plane prices transitions against stored
/// content) beside a high-entropy tenant spraying uniform lines over a
/// large one. Flat-cost EPCM-MM is the control: it receives the payloads
/// and never prices them.
fn write_dataplane() -> Part {
    let profile = |name: &str, mib: u64, pattern: AccessPattern| WorkloadProfile {
        name: name.into(),
        read_fraction: 0.2,
        footprint: ByteCount::from_mib(mib),
        pattern,
        interarrival: Time::from_nanos(1.0),
        requests: DATA_REQUESTS,
        line_bytes: 64,
    };
    let rate = ArrivalProcess::poisson(8.0e6);
    let sparse =
        TenantSpec::open("sparse", rate, DATA_REQUESTS).with_payload(PayloadSpec::SparseUpdate {
            flip_fraction: 0.05,
        });
    let uniform = TenantSpec::open("uniform", rate, DATA_REQUESTS)
        .with_profile(profile("uniform-writes", 64, AccessPattern::Random))
        .with_payload(PayloadSpec::Uniform);
    let serve = ServeSpec {
        tenants: vec![sparse, uniform],
        scheduler: Scheduler::default(),
        shards: 1,
        batch: Some(BatchConfig::default()),
    };
    // The sparse tenant takes the cell's profile: 4096 lines, each
    // written about twice over the run.
    let sparse_profile = WorkloadProfile {
        footprint: ByteCount::new(256 * 1024),
        ..profile(
            "sparse-updates",
            1,
            AccessPattern::Clustered { locality: 0.6 },
        )
    };
    Part {
        name: "write-dataplane".into(),
        devices: vec!["EPCM-oblivious", "EPCM-DCW", "EPCM-DCW-FNW", "EPCM-MM"],
        workloads: vec![WorkloadSource::Profile(sparse_profile)],
        engines: vec![EnginePoint::serve("data-sparse-uniform", serve)],
    }
}
