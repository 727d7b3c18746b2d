//! The benchmark's own checks: the tracing decorators leave the
//! simulation untouched, and the metric list matches `BENCHMARK.json`.

use comet_data::{attach_payloads, PayloadSpec};
use comet_lab::{device_by_name, run_campaign, CampaignSpec, Json, WorkloadSource};
use comet_units::{ByteCount, Time};
use memsim::{AccessPattern, AccessTiming, AddressMap, Interleave, MemoryDevice, WorkloadProfile};
use perfbench::metrics::{self, valid_name};
use perfbench::workloads::{Grid, WORKLOADS};
use perfbench::wrap::traced_factory;

/// A write-rich stream with payloads, spaced 40 ns apart so 2000
/// requests span ten DRAM refresh intervals.
fn stream(line_bytes: u64) -> Vec<memsim::MemRequest> {
    let profile = WorkloadProfile {
        name: "wrap-check".into(),
        read_fraction: 0.5,
        footprint: ByteCount::new(64 * 1024),
        pattern: AccessPattern::Clustered { locality: 0.5 },
        interarrival: Time::from_nanos(40.0),
        requests: 2000,
        line_bytes,
    };
    let mut trace = profile.generate(7);
    attach_payloads(
        &mut trace,
        PayloadSpec::SparseUpdate { flip_fraction: 0.1 },
        7,
    );
    trace
}

/// Drives `dev` the way the controller does (poll, row query, access)
/// and records every answer.
fn drive(dev: &mut dyn MemoryDevice) -> (Vec<(Time, bool, AccessTiming)>, f64) {
    let topo = dev.topology();
    let map = AddressMap::new(
        topo.channels,
        topo.banks,
        topo.rows,
        topo.columns,
        topo.line_bytes,
        Interleave::RowBankColumnChannelXor,
    )
    .expect("power-of-two topology");
    let mut bank_free = vec![Time::ZERO; topo.total_banks() as usize];
    let mut seen = Vec::new();
    for req in stream(topo.line_bytes) {
        let loc = map.decode(req.address);
        let bank = (loc.channel * topo.banks + loc.bank) as usize;
        let ready = dev.bank_available(&loc, bank_free[bank].max(req.arrival));
        let hit = dev.row_hit(&loc);
        let timing = dev.access_line(&loc, req.op, ready, req.payload.as_ref());
        bank_free[bank] = timing.bank_free_at;
        seen.push((ready, hit, timing));
    }
    let drained = dev.drain_accumulated_energy().as_joules();
    (seen, drained)
}

fn assert_wrapped_matches_bare(name: &str) -> Vec<(Time, bool, AccessTiming)> {
    let mut bare = device_by_name(name).expect("registered").build();
    let mut wrapped = traced_factory(name).expect("registered").build();
    assert_eq!(wrapped.name(), bare.name());
    assert_eq!(wrapped.topology(), bare.topology());
    assert_eq!(wrapped.interface_delay(), bare.interface_delay());
    assert_eq!(wrapped.background_power(), bare.background_power());
    let expected = drive(bare.as_mut());
    let got = drive(wrapped.as_mut());
    assert_eq!(got, expected, "{name}: wrapped device diverged");
    expected.0
}

#[test]
fn wrapped_ddr4_3d_keeps_refresh_timing() {
    let seen = assert_wrapped_matches_bare("3D_DDR4");
    // The stream crosses refresh windows, so some polls were pushed back:
    // the wrapper forwarded the refresh catch-up, not the trait default.
    let arrivals: Vec<Time> = stream(64).iter().map(|r| r.arrival).collect();
    assert!(seen
        .iter()
        .zip(arrivals)
        .any(|((ready, _, _), at)| *ready > at));
}

#[test]
fn wrapped_epcm_dcw_fnw_prices_payloads() {
    let seen = assert_wrapped_matches_bare("EPCM-DCW-FNW");
    // Content-priced writes cost different energies; the flat path the
    // trait's default `access_line` would fall back to costs one.
    let mut energies: Vec<f64> = seen.iter().map(|(_, _, t)| t.energy.as_joules()).collect();
    energies.sort_by(f64::total_cmp);
    energies.dedup();
    assert!(
        energies.len() > 10,
        "only {} distinct energies",
        energies.len()
    );
}

#[test]
fn traced_campaign_reproduces_the_registry_campaign() {
    let profiles: Vec<WorkloadSource> = memsim::spec_like_suite(300)
        .into_iter()
        .take(2)
        .map(WorkloadSource::Profile)
        .collect();
    for name in ["2D_DDR3", "3D_DDR4", "COMET", "COSMOS", "EPCM-DCW"] {
        let plain = CampaignSpec::new(
            "t",
            3,
            vec![device_by_name(name).unwrap()],
            profiles.clone(),
        );
        let traced = CampaignSpec::new(
            "t",
            3,
            vec![traced_factory(name).unwrap()],
            profiles.clone(),
        );
        assert_eq!(
            run_campaign(&traced, 1).to_json(),
            run_campaign(&plain, 1).to_json(),
            "{name}"
        );
    }
}

#[test]
fn every_workload_builds_its_grid() {
    for name in WORKLOADS {
        let grid = Grid::named(name).expect(name);
        for device in &grid.devices {
            assert!(traced_factory(device).is_some(), "{device}");
        }
    }
    assert!(Grid::named("no-such-workload").is_none());
}

#[test]
fn metric_names_are_valid_and_unique() {
    let mut names: Vec<String> = metrics::end_to_end()
        .into_iter()
        .chain(metrics::per_layer())
        .map(|d| d.name)
        .chain(WORKLOADS.iter().map(|w| w.to_string()))
        .collect();
    for name in &names {
        assert!(valid_name(name), "invalid metric name {name}");
    }
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "metric names repeat");
    assert!(!valid_name("memsim polls"));
    assert!(!valid_name("_lead"));
}

fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_measured_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let defs = |d: Vec<metrics::MetricDef>| -> Vec<(String, String, String)> {
        d.into_iter()
            .map(|m| (m.name, m.unit.to_string(), m.better.to_string()))
            .collect()
    };
    assert_eq!(listed(&doc, "end_to_end"), defs(metrics::end_to_end()));
    assert_eq!(listed(&doc, "per_layer"), defs(metrics::per_layer()));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
            w.get("name").and_then(Json::as_str).expect("name")
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
