//! Metric definitions: the names, units and directions `BENCHMARK.json`
//! lists, in the order the benchmark prints them.

use crate::workloads::{ALL_DEVICES, SERVE_HEAVY_RATES};

/// One metric as `BENCHMARK.json` records it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// End-to-end metrics, printed by untraced runs.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("sim_req_per_s", "1/s", "higher"),
        def("setup_s", "s", "lower"),
        def("peak_rss_mb", "MB", "lower"),
    ]
}

/// The metric-name prefix of a device's simulated statistics: its layer,
/// plus the device name where the layer hosts several devices.
pub fn device_prefix(device: &str) -> String {
    match device {
        "COMET" => "comet".into(),
        "COSMOS" => "cosmos".into(),
        other => format!("memsim.{other}"),
    }
}

/// Per-layer metrics, printed by traced runs.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![
        def("memsim.issued_requests", "count", "lower"),
        def("memsim.polls_per_req", "count", "lower"),
        def("memsim.row_hit_calls_per_req", "count", "lower"),
        def("memsim.replay_requests", "count", "lower"),
        def("memsim.replay_self_us_per_req", "us", "lower"),
        def("serve.requests", "count", "lower"),
        def("serve.self_us_per_req", "us", "lower"),
        def("serve.coalesced_frac", "ratio", "higher"),
        def("memsim.dram.access_ns", "ns", "lower"),
        def("memsim.epcm.access_ns", "ns", "lower"),
        def("comet.access_ns", "ns", "lower"),
        def("cosmos.access_ns", "ns", "lower"),
        def("data.price_ns", "ns", "lower"),
        def("data.priced_writes", "count", "lower"),
        def("data.cells_written_frac", "ratio", "lower"),
        def("lab.build_ms", "ms", "lower"),
        def("lab.to_json_ms", "ms", "lower"),
        def("lab.from_json_ms", "ms", "lower"),
        def("lab.to_csv_ms", "ms", "lower"),
        def("phys.program_table_uncached_ms", "ms", "lower"),
        def("comet.paper_build_ms", "ms", "lower"),
        def("comet.derived_build_ms", "ms", "lower"),
        def("trace_overhead_frac", "ratio", "lower"),
        def("host.setup_rss_mb", "MB", "lower"),
    ];
    for device in ALL_DEVICES {
        defs.push(def(format!("lab.{device}.first_build_ms"), "ms", "lower"));
    }
    for device in ALL_DEVICES {
        let p = device_prefix(device);
        defs.push(def(format!("{p}.sim_bw_gbs"), "GB/s", "higher"));
        defs.push(def(format!("{p}.sim_epb_pjb"), "pJ/b", "lower"));
        defs.push(def(format!("{p}.sim_p50_ns"), "ns", "lower"));
        defs.push(def(format!("{p}.sim_p99_ns"), "ns", "lower"));
    }
    for (device, _) in SERVE_HEAVY_RATES {
        let p = device_prefix(device);
        defs.push(def(format!("{p}.light_p99_ns"), "ns", "lower"));
        defs.push(def(format!("{p}.heavy_p99_ns"), "ns", "lower"));
    }
    defs.push(def("comet.vs_cosmos_bw_ratio", "ratio", "higher"));
    defs.push(def("comet.vs_cosmos_epb_ratio", "ratio", "lower"));
    defs.push(def("comet.vs_cosmos_p99_ratio", "ratio", "lower"));
    defs
}

/// Whether `name` is a valid metric name: it starts with a letter or a
/// digit and holds at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let starts_well = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    starts_well
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
