//! Campaign-level acceptance tests: a realistic multi-device grid sharded
//! over several threads must produce byte-identical exports regardless of
//! thread count, round-trip through JSON exactly, and agree with the
//! sequential engine it wraps.

use comet_data::PayloadSpec;
use comet_lab::{
    device_by_name, run_campaign, workloads_by_name, CampaignReport, CampaignSpec, EnginePoint,
    WorkloadSource,
};
use comet_serve::{ArrivalProcess, BatchConfig, ServeSpec, TenantSpec};
use comet_units::{ByteCount, Time};
use memsim::{DeviceFactory, MemOp, MemRequest, ReplayMode, Scheduler};

/// The ISSUE acceptance grid: ≥ 12 cells over ≥ 2 device models. Four
/// devices (two electronic, two photonic) × four SPEC-like workloads.
fn acceptance_spec(requests: usize) -> CampaignSpec {
    let devices: Vec<Box<dyn DeviceFactory>> = ["2D_DDR3", "EPCM-MM", "COSMOS", "COMET"]
        .iter()
        .map(|n| device_by_name(n).expect("registered"))
        .collect();
    let workloads: Vec<WorkloadSource> = ["mcf-like", "lbm-like", "gcc-like", "libquantum-like"]
        .iter()
        .flat_map(|n| workloads_by_name(n, requests))
        .collect();
    CampaignSpec::new("acceptance", 42, devices, workloads)
}

#[test]
fn sixteen_cell_campaign_is_thread_count_invariant() {
    let spec = acceptance_spec(400);
    assert!(spec.cells() >= 12, "acceptance grid size");

    let sequential = run_campaign(&spec, 1);
    let two = run_campaign(&spec, 2);
    let four = run_campaign(&spec, 4);

    assert_eq!(sequential, two);
    assert_eq!(sequential, four);
    // Byte-identical exports, not just equal values.
    assert_eq!(sequential.to_json(), two.to_json());
    assert_eq!(sequential.to_json(), four.to_json());
    assert_eq!(sequential.to_csv(), four.to_csv());

    // Every cell completed its full workload.
    assert_eq!(sequential.cells.len(), 16);
    for cell in &sequential.cells {
        assert!(
            cell.stats.completed > 0,
            "{}/{}",
            cell.device,
            cell.workload
        );
        assert_eq!(cell.stats.completed, cell.stats.reads + cell.stats.writes);
    }
    // Equal-bytes methodology: every device moved the same bytes per
    // workload (line normalization preserves totals).
    let bytes0: Vec<u64> = sequential
        .cells_for("2D_DDR3")
        .iter()
        .map(|c| c.stats.bytes.value())
        .collect();
    let bytes_comet: Vec<u64> = sequential
        .cells_for("COMET")
        .iter()
        .map(|c| c.stats.bytes.value())
        .collect();
    assert_eq!(bytes0, bytes_comet);
}

#[test]
fn report_roundtrips_through_json_exactly() {
    let report = run_campaign(&acceptance_spec(200), 3);
    let json = report.to_json();
    let back = CampaignReport::from_json(&json).expect("own export parses");
    assert_eq!(back, report);
    assert_eq!(back.to_json(), json, "re-emission is stable");
}

#[test]
fn photonic_devices_outperform_electronic_in_campaign() {
    // The paper's headline (Fig. 9): photonic bandwidth >> electronic at
    // memory-bound demand. The campaign must preserve that ordering.
    let report = run_campaign(&acceptance_spec(600), 2);
    let summaries = report.device_summaries();
    let bw = |name: &str| {
        summaries
            .iter()
            .find(|s| s.device == name)
            .expect(name)
            .avg_bandwidth_gbs
    };
    assert!(
        bw("COMET") > 5.0 * bw("2D_DDR3"),
        "COMET {} vs DDR3 {}",
        bw("COMET"),
        bw("2D_DDR3")
    );
    assert!(
        bw("COMET") > 5.0 * bw("COSMOS"),
        "COMET {} vs COSMOS {}",
        bw("COMET"),
        bw("COSMOS")
    );
    // COMET also has the lowest average latency of the grid.
    let comet_lat = summaries
        .iter()
        .find(|s| s.device == "COMET")
        .unwrap()
        .avg_latency_ns;
    for s in &summaries {
        assert!(
            s.avg_latency_ns >= comet_lat,
            "{} faster than COMET",
            s.device
        );
    }
}

#[test]
fn multi_axis_campaign_covers_engines_and_replicates() {
    let mut spec = CampaignSpec::new(
        "axes",
        7,
        vec![
            device_by_name("2D_DDR3").unwrap(),
            device_by_name("EPCM-MM").unwrap(),
        ],
        workloads_by_name("gcc-like", 150),
    );
    spec.engines = vec![EnginePoint::paced(), EnginePoint::saturation()];
    spec.replicates = 3;
    assert_eq!(spec.cells(), 12);

    let report = run_campaign(&spec, 4);
    assert_eq!(report.cells.len(), 12);
    // Replicates differ (different trace instantiations)...
    let r0 = &report.cells[0];
    let r1 = &report.cells[1];
    assert_eq!(r0.engine, r1.engine);
    assert_ne!(r0.seed, r1.seed);
    assert_ne!(r0.stats.makespan, r1.stats.makespan);
    // ...and the engine axis is enumerated engine-major over replicates:
    // per device, three paced cells then three saturation cells.
    for chunk in report.cells.chunks(6) {
        assert!(chunk[..3].iter().all(|c| c.engine == "frfcfs8-paced"));
        assert!(chunk[3..].iter().all(|c| c.engine == "frfcfs8-saturation"));
        // The same replicate re-uses the same seed on both engine points.
        assert_eq!(chunk[0].seed, chunk[3].seed);
    }
}

#[test]
fn custom_trace_campaign_over_comet_variants() {
    // The ablation pattern: fixed trace, closure-built device variants.
    let trace: Vec<MemRequest> = (0..800u64)
        .map(|i| {
            MemRequest::new(
                i,
                Time::from_nanos(i as f64 * 0.5),
                if i % 5 == 0 {
                    MemOp::Write
                } else {
                    MemOp::Read
                },
                i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (1 << 26),
                ByteCount::new(128),
            )
        })
        .collect();
    let mut spec = CampaignSpec::new(
        "variants",
        0,
        vec![
            device_by_name("COMET-1b").unwrap(),
            device_by_name("COMET-2b").unwrap(),
            device_by_name("COMET-4b").unwrap(),
        ],
        vec![WorkloadSource::trace("mixed", trace)],
    );
    spec.normalize_lines = false;
    let report = run_campaign(&spec, 2);
    assert_eq!(report.cells.len(), 3);
    let names: Vec<&str> = report.cells.iter().map(|c| c.device.as_str()).collect();
    assert_eq!(names, ["COMET-1b", "COMET-2b", "COMET-4b"]);
    for c in &report.cells {
        assert_eq!(c.stats.completed, 800);
        // Variant labels come from the factory; the device itself reports
        // the architecture name.
        assert_eq!(c.stats.device, "COMET");
    }
}

/// FNV-1a (64-bit) over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pins the exact output of both engines, replay and serve, through the one
/// memory controller they share. Two campaigns on 2D_DDR4 and EPCM-MM:
/// * a gcc-like profile replayed under FCFS and FR-FCFS(8), plus one serve
///   point with deterministic arrivals and the write-batch stage on;
/// * a fixed trace alternating two rows of one bank, replayed under both
///   schedulers, where FR-FCFS visibly reorders (the profile cells alone
///   barely tell the schedulers apart).
///
/// The digest covers every byte of both `CampaignReport::to_json` exports,
/// so any change to issue order, device calls, bus contention or stats
/// moves it. No Poisson arrivals are involved, so `ln` is never called, and
/// the latency histogram reads its buckets off f64 bit patterns, so the
/// path makes no libm call at all.
///
/// The pin covers the DRAM model as it is now: the scheduler's polls are
/// free of side effects and each access commits its bank's refresh
/// catch-up, so only issued commands move refresh state. Caching each
/// bank's FR-FCFS pick in the controller does not move it.
#[test]
fn both_engines_report_pinned_bytes() {
    let devices = || -> Vec<Box<dyn DeviceFactory>> {
        ["2D_DDR4", "EPCM-MM"]
            .iter()
            .map(|n| device_by_name(n).expect("registered"))
            .collect()
    };
    let replay = || {
        vec![
            EnginePoint::new("fcfs-paced", Scheduler::Fcfs, ReplayMode::Paced),
            EnginePoint::paced(),
        ]
    };

    let mut profiled = CampaignSpec::new(
        "controller-pin",
        7,
        devices(),
        workloads_by_name("gcc-like", 1500),
    );
    let serve = ServeSpec::open_loop(ArrivalProcess::deterministic(2.0e7), 1500)
        .with_batch(BatchConfig::default());
    profiled.engines = replay();
    profiled
        .engines
        .push(EnginePoint::serve("serve-det-batch", serve));

    let two_rows: Vec<MemRequest> = (0..400u64)
        .map(|i| {
            let op = if i % 3 == 0 {
                MemOp::Write
            } else {
                MemOp::Read
            };
            let address = (i % 2) * (1 << 28) + i / 2 * 64;
            MemRequest::new(
                i,
                Time::from_nanos(i as f64 * 2.0),
                op,
                address,
                ByteCount::new(64),
            )
        })
        .collect();
    let mut traced = CampaignSpec::new(
        "controller-pin-rows",
        7,
        devices(),
        vec![WorkloadSource::trace("two-rows", two_rows)],
    );
    traced.engines = replay();

    let traced = run_campaign(&traced, 2);
    let ddr4 = traced.cells_for("2D_DDR4");
    assert_ne!(ddr4[0].stats, ddr4[1].stats, "FR-FCFS must reorder");
    let json = run_campaign(&profiled, 2).to_json() + &traced.to_json();
    assert_eq!(
        format!("{:016x}", fnv1a64(json.as_bytes())),
        "31413e510de2dc5b"
    );
}

/// Pins the exact output of every demand path: all eight SPEC-like profiles
/// (Stream, Strided, Random and Clustered patterns) under paced replay,
/// plus one serve point mixing a Poisson open-loop tenant whose stores carry
/// sparse-update payloads with a closed-loop tenant that thinks between
/// requests, write batching on. Two devices: 2D_DDR4, and EPCM-DCW-FNW so
/// the payloads are priced by content.
///
/// Any change to how a profile turns into (op, address) pairs, arrival
/// times or payload bytes, or to how tenants interleave, moves the digest.
#[test]
fn demand_paths_report_pinned_bytes() {
    let devices: Vec<Box<dyn DeviceFactory>> = ["2D_DDR4", "EPCM-DCW-FNW"]
        .iter()
        .map(|n| device_by_name(n).expect("registered"))
        .collect();
    let workloads = memsim::spec_like_suite(1000)
        .into_iter()
        .map(WorkloadSource::Profile)
        .collect();
    let mut spec = CampaignSpec::new("demand-pin", 11, devices, workloads);
    let serve = ServeSpec {
        tenants: vec![
            TenantSpec::open("poisson-sparse", ArrivalProcess::poisson(4.0e6), 600)
                .with_payload(PayloadSpec::SparseUpdate { flip_fraction: 0.1 }),
            TenantSpec::closed("closed-think", 3, Time::from_nanos(40.0), 400),
        ],
        scheduler: Scheduler::default(),
        shards: 1,
        batch: Some(BatchConfig::default()),
    };
    spec.engines = vec![
        EnginePoint::paced(),
        EnginePoint::serve("serve-mixed", serve),
    ];
    let report = run_campaign(&spec, 2);
    assert_eq!(report.cells.len(), 32);
    let json = report.to_json();
    assert_eq!(
        format!("{:016x}", fnv1a64(json.as_bytes())),
        "9359f9e351fd8f5e"
    );
}
