//! One benchmark run: set-up, a warm-up pass, then timed passes over the
//! workload's grid for the requested number of seconds.
//!
//! An untraced run reports the end-to-end metrics; it measures set-up in
//! its own process and again in a fresh one after every pass, and reports
//! the median. A traced run
//! alternates untraced and traced passes and reports the per-layer
//! metrics, the tracing overhead among them. Every pass is checked: each
//! cell must complete every request it was given and parse back equal
//! from the report JSON, and every pass must reproduce the warm-up
//! pass's report exactly — the traced passes included, which shows the
//! decorators leave the simulation untouched.

use crate::metrics::{self, device_prefix, MetricDef};
use crate::trace::{self, Counts, Recorder, SpanName, Totals};
use crate::workloads::{expected_requests, is_serve_cell, Grid, ALL_DEVICES, SERVE_HEAVY_RATES};
use crate::wrap::traced_factory;
use comet_lab::{
    device_by_name, run_campaign, CampaignReport, CampaignSpec, CellReport, ReportParseError,
};
use memsim::DeviceFactory;
use opcm_phys::{CellThermalModel, ProgramMode, ProgramTable};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// Campaign worker threads. One keeps the timed passes steady on a small
/// shared host and lets the traced pass record on a single thread.
const THREADS: usize = 1;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Length of the timed part, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Directory for the report and span files.
    pub out: PathBuf,
}

/// The result of a run.
#[derive(Debug)]
pub struct Outcome {
    /// Cells run.
    pub attempted: u64,
    /// Cells that failed a check.
    pub failed: u64,
    /// Metric values, in `BENCHMARK.json` order, with their units.
    pub metrics: Vec<(MetricDef, f64)>,
}

/// Set-up: one device built by every factory of the workload.
#[derive(Debug)]
pub struct Setup {
    /// Seconds from process start until the last build returned.
    pub seconds: f64,
    /// Peak resident memory once the devices are built (`VmHWM`), MB.
    pub rss_mb: f64,
    /// Milliseconds each device's first build took, in grid order.
    pub first_build_ms: Vec<(&'static str, f64)>,
}

/// Builds one device from every factory of `grid`. The first build in a
/// process also fills lazy process-wide caches, such as the memoized
/// programming table behind the data-plane pricers.
pub fn setup(grid: &Grid, process_start: Instant) -> Result<Setup, String> {
    let first_build_ms = grid
        .devices
        .iter()
        .map(|&name| {
            let t = Instant::now();
            let factory = registry(name);
            black_box(factory.build());
            (name, ms(t))
        })
        .collect();
    Ok(Setup {
        seconds: process_start.elapsed().as_secs_f64(),
        rss_mb: peak_rss_mb()?,
        first_build_ms,
    })
}

/// Set-up seconds of a fresh process: this program's `setup` command.
fn probe_setup(workload: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let out = Command::new(exe)
        .args(["setup", "--workload", workload])
        .output()
        .map_err(|e| format!("cannot start the set-up probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse() {
        Ok(seconds) if out.status.success() => Ok(seconds),
        _ => Err(format!("set-up probe failed: {}", out.status)),
    }
}

fn registry(name: &str) -> Box<dyn DeviceFactory> {
    device_by_name(name).expect("workload devices are registered")
}

fn traced(name: &str) -> Box<dyn DeviceFactory> {
    traced_factory(name).expect("workload devices are registered")
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// One campaign's report and its export.
struct Export {
    report: CampaignReport,
    json: String,
    parsed: Result<CampaignReport, ReportParseError>,
}

/// Exports `report` as JSON, parses it back and renders its CSV, each
/// inside a span (free when not recording).
fn export(report: CampaignReport) -> Export {
    let json = {
        let _s = trace::span(SpanName::ToJson);
        report.to_json()
    };
    let parsed = {
        let _s = trace::span(SpanName::FromJson);
        CampaignReport::from_json(&json)
    };
    {
        let _s = trace::span(SpanName::ToCsv);
        black_box(report.to_csv());
    }
    Export {
        report,
        json,
        parsed,
    }
}

/// One pass over the workload's campaigns and their export.
struct Pass {
    exports: Vec<Export>,
    wall_s: f64,
}

impl Pass {
    fn completed(&self) -> u64 {
        self.exports
            .iter()
            .flat_map(|e| &e.report.cells)
            .map(|c| c.stats.completed)
            .sum()
    }

    /// Every campaign's report JSON, one after the other.
    fn json(&self) -> String {
        self.exports.iter().map(|e| e.json.as_str()).collect()
    }
}

/// The untraced pass: each campaign whole, then its export.
fn untraced_pass(specs: &[CampaignSpec]) -> Pass {
    let t = Instant::now();
    let exports = specs
        .iter()
        .map(|spec| export(run_campaign(spec, THREADS)))
        .collect();
    Pass {
        exports,
        wall_s: t.elapsed().as_secs_f64(),
    }
}

/// Work split by engine in a traced pass, for per-request ratios.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    replay_requests: u64,
    serve_requests: u64,
    serve_writes: u64,
    serve_device_writes: u64,
}

/// The traced pass: each cell as a campaign of its own on traced
/// devices, inside a span, then the assembled reports' export.
fn traced_pass(grid: &Grid, specs: &[CampaignSpec]) -> (Pass, Recorder, Tally) {
    let mut tally = Tally::default();
    trace::start();
    let t = Instant::now();
    let root = trace::span(SpanName::Iteration);
    let mut exports = Vec::with_capacity(specs.len());
    for (part, spec) in specs.iter().enumerate() {
        let mut cells: Vec<CellReport> = Vec::with_capacity(spec.cells());
        for index in 0..spec.cells() {
            let one = grid.cell_campaign(part, spec, index, traced);
            let serve = is_serve_cell(spec, index);
            let before = trace::counts();
            let mut report = {
                let _cell = trace::span(if serve {
                    SpanName::ServeCell
                } else {
                    SpanName::ReplayCell
                });
                run_campaign(&one, THREADS)
            };
            let mut cell = report.cells.pop().expect("a one-cell campaign");
            cell.index = index;
            if serve {
                tally.serve_requests += cell.stats.completed;
                tally.serve_writes += cell.stats.writes;
                tally.serve_device_writes += trace::counts().write_accesses - before.write_accesses;
            } else {
                tally.replay_requests += cell.stats.completed;
            }
            cells.push(cell);
        }
        exports.push(export(CampaignReport {
            name: spec.name.clone(),
            seed: spec.seed,
            replicates: spec.replicates,
            normalize_lines: spec.normalize_lines,
            cells,
        }));
    }
    drop(root);
    let wall_s = t.elapsed().as_secs_f64();
    let recorder = trace::finish().expect("recording was started");
    (Pass { exports, wall_s }, recorder, tally)
}

/// Cells of `pass` that fail a check: too few requests completed, no
/// exact parse-back, or a difference from the reference pass. A
/// difference no single cell explains fails every cell of its campaign.
fn failed_cells(pass: &Pass, expected: &[Vec<u64>], reference: &Pass) -> u64 {
    let mut failed = 0;
    for (part, expected) in expected.iter().enumerate() {
        let (Some(got), Some(want)) = (pass.exports.get(part), reference.exports.get(part)) else {
            failed += expected.len() as u64;
            continue;
        };
        let parsed = got.parsed.as_ref().ok();
        let mut bad = 0;
        for (i, cell) in got.report.cells.iter().enumerate() {
            let short = expected.get(i) != Some(&cell.stats.completed);
            let unparsed = parsed.and_then(|p| p.cells.get(i)) != Some(cell);
            let differs = want.report.cells.get(i) != Some(cell);
            if short || unparsed || differs {
                bad += 1;
            }
        }
        if bad == 0 && (got.json != want.json || parsed != Some(&got.report)) {
            bad = got.report.cells.len() as u64;
        }
        failed += bad + expected.len().saturating_sub(got.report.cells.len()) as u64;
    }
    failed
}

/// `num / den`, or zero where the workload never reached the layer.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// FNV-1a over `bytes`: a digest that shows two report exports equal.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Peak resident memory of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs the benchmark as `opts` asks.
pub fn run(opts: &Options, process_start: Instant) -> Result<Outcome, String> {
    let grid = Grid::named(&opts.workload)
        .ok_or_else(|| format!("unknown workload '{}'", opts.workload))?;
    let setup = setup(&grid, process_start)?;

    let specs = grid.campaigns(opts.seed, registry);
    let expected: Vec<Vec<u64>> = specs.iter().map(expected_requests).collect();
    let cells = expected.iter().map(Vec::len).sum::<usize>() as u64;

    println!(
        "host_cores {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let warm = untraced_pass(&specs);
    let mut attempted = cells;
    let mut failed = failed_cells(&warm, &expected, &warm);
    let json = warm.json();
    println!(
        "report_digest workload={} seed={} cells={} bytes={} fnv1a64={:016x}",
        opts.workload,
        opts.seed,
        cells,
        json.len(),
        fnv1a64(json.as_bytes())
    );
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("cannot create {}: {e}", opts.out.display()))?;
    for e in &warm.exports {
        let file = opts
            .out
            .join(format!("{}-{}.report.json", e.report.name, opts.seed));
        std::fs::write(file, &e.json).map_err(|e| format!("cannot write the report: {e}"))?;
    }

    let timed_start = Instant::now();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    if !opts.trace {
        // Requests over seconds summed across the timed passes: the rate
        // over the whole timed part of the run.
        let (mut completed, mut seconds) = (0u64, 0.0);
        let mut rates = Vec::new();
        // Set-up takes tens of microseconds on the DRAM workloads, and on a
        // shared host such a short time drifts from one moment to the
        // next; a fresh process after every pass spreads the samples over
        // the whole run.
        let mut setups = vec![setup.seconds];
        loop {
            let pass = untraced_pass(&specs);
            attempted += cells;
            failed += failed_cells(&pass, &expected, &warm);
            completed += pass.completed();
            seconds += pass.wall_s;
            rates.push(pass.completed() as f64 / pass.wall_s);
            setups.push(probe_setup(&opts.workload)?);
            if timed_start.elapsed().as_secs_f64() >= opts.seconds {
                break;
            }
        }
        println!(
            "timed_passes {} pass_req_per_s {}",
            rates.len(),
            rates
                .iter()
                .map(|r| format!("{r:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        values.insert("sim_req_per_s".into(), completed as f64 / seconds);
        values.insert("setup_s".into(), median(&mut setups));
        values.insert("peak_rss_mb".into(), peak_rss_mb()?);
        return finish(metrics::end_to_end(), values, attempted, failed);
    }

    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut totals: BTreeMap<SpanName, Totals> = BTreeMap::new();
    let (tally, last) = loop {
        let pass = untraced_pass(&specs);
        attempted += cells;
        failed += failed_cells(&pass, &expected, &warm);
        plain_walls.push(pass.wall_s);

        let (pass, recorder, tally) = traced_pass(&grid, &specs);
        attempted += cells;
        failed += failed_cells(&pass, &expected, &warm);
        traced_walls.push(pass.wall_s);
        for (name, t) in recorder.totals() {
            totals.entry(name).or_default().add(&t);
        }
        if timed_start.elapsed().as_secs_f64() >= opts.seconds {
            break (tally, recorder);
        }
    };
    let passes = traced_walls.len() as f64;
    println!("timed_passes {}", traced_walls.len());
    // One span file per workload (the last traced pass), overwritten by
    // each traced run: a pass records hundreds of thousands of spans.
    let spans_file = opts.out.join(format!("{}.spans.csv", opts.workload));
    std::fs::write(spans_file, last.to_csv())
        .map_err(|e| format!("cannot write the spans: {e}"))?;
    for (name, t) in &totals {
        println!(
            "span {} count={} total_ms={:.3} self_ms={:.3}",
            name.label(),
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }

    let span = |name: SpanName| totals.get(&name).copied().unwrap_or_default();
    let mean_ns = |name: SpanName| {
        let t = span(name);
        ratio(t.total_ns as f64, t.count as f64)
    };

    layer_values(&mut values, &last.counts(), &tally);
    values.insert(
        "memsim.replay_self_us_per_req".into(),
        ratio(
            span(SpanName::ReplayCell).self_ns as f64 / 1e3,
            tally.replay_requests as f64 * passes,
        ),
    );
    values.insert(
        "serve.self_us_per_req".into(),
        ratio(
            span(SpanName::ServeCell).self_ns as f64 / 1e3,
            tally.serve_requests as f64 * passes,
        ),
    );
    for (metric, name) in [
        ("memsim.dram.access_ns", SpanName::DramAccess),
        ("memsim.epcm.access_ns", SpanName::EpcmAccess),
        ("comet.access_ns", SpanName::CometAccess),
        ("cosmos.access_ns", SpanName::CosmosAccess),
        ("data.price_ns", SpanName::Price),
    ] {
        values.insert(metric.into(), mean_ns(name));
    }
    for (metric, name) in [
        ("lab.build_ms", SpanName::Build),
        ("lab.to_json_ms", SpanName::ToJson),
        ("lab.from_json_ms", SpanName::FromJson),
        ("lab.to_csv_ms", SpanName::ToCsv),
    ] {
        values.insert(metric.into(), mean_ns(name) / 1e6);
    }
    values.insert("host.setup_rss_mb".into(), setup.rss_mb);
    values.insert(
        "trace_overhead_frac".into(),
        median(&mut traced_walls) / median(&mut plain_walls) - 1.0,
    );
    standalone_values(&mut values);
    for device in ALL_DEVICES {
        let first = setup
            .first_build_ms
            .iter()
            .find(|(d, _)| *d == device)
            .map_or(0.0, |(_, ms)| *ms);
        values.insert(format!("lab.{device}.first_build_ms"), first);
    }
    let reports: Vec<&CampaignReport> = warm.exports.iter().map(|e| &e.report).collect();
    model_values(&mut values, &reports);
    finish(metrics::per_layer(), values, attempted, failed)
}

/// Ratios of the seam counts of one traced pass.
fn layer_values(values: &mut BTreeMap<String, f64>, counts: &Counts, tally: &Tally) {
    let per = |num: u64, den: u64| ratio(num as f64, den as f64);
    values.insert("memsim.issued_requests".into(), counts.accesses as f64);
    values.insert(
        "memsim.polls_per_req".into(),
        per(counts.bank_available, counts.accesses),
    );
    values.insert(
        "memsim.row_hit_calls_per_req".into(),
        per(counts.row_hit, counts.accesses),
    );
    values.insert(
        "memsim.replay_requests".into(),
        tally.replay_requests as f64,
    );
    values.insert("serve.requests".into(), tally.serve_requests as f64);
    values.insert(
        "serve.coalesced_frac".into(),
        per(
            tally.serve_writes - tally.serve_device_writes,
            tally.serve_writes,
        ),
    );
    values.insert("data.priced_writes".into(), counts.priced_writes as f64);
    values.insert(
        "data.cells_written_frac".into(),
        per(counts.cells_written, counts.cells_total),
    );
}

/// Work the workloads touch only while building devices, timed on its
/// own: the uncached programming-table search behind the data-plane
/// pricers, and a COMET build under each cell-model provider.
fn standalone_values(values: &mut BTreeMap<String, f64>) {
    let model = CellThermalModel::comet_gst();
    let mut table = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(
                ProgramTable::generate_uncached(&model, ProgramMode::AmorphousReset, 4)
                    .expect("the COMET GST cell hosts 4-bit levels"),
            );
            ms(t)
        })
        .collect::<Vec<_>>();
    values.insert("phys.program_table_uncached_ms".into(), median(&mut table));
    for (metric, device) in [
        ("comet.paper_build_ms", "COMET-paper"),
        ("comet.derived_build_ms", "COMET-derived"),
    ] {
        let factory = registry(device);
        let mut builds = (0..5)
            .map(|_| {
                let t = Instant::now();
                black_box(factory.build());
                ms(t)
            })
            .collect::<Vec<_>>();
        values.insert(metric.into(), median(&mut builds));
    }
}

/// Simulated statistics per device, averaged over the device's cells,
/// and COMET against COSMOS where both ran; on serve-mix devices also the
/// p99 at the light and the heavy load apart. These are outputs of an
/// unvalidated model, recorded so a host-speed change can show it left
/// them exactly as they were.
fn model_values(values: &mut BTreeMap<String, f64>, reports: &[&CampaignReport]) {
    let cells_of = |device: &str| -> Vec<&CellReport> {
        reports.iter().flat_map(|r| r.cells_for(device)).collect()
    };
    let mean = |cells: &[&CellReport], f: &dyn Fn(&CellReport) -> f64| {
        ratio(cells.iter().map(|c| f(c)).sum(), cells.len() as f64)
    };
    let mut means: BTreeMap<&str, [f64; 4]> = BTreeMap::new();
    for device in ALL_DEVICES {
        let cells = cells_of(device);
        let m = [
            mean(&cells, &|c| c.stats.bandwidth().as_gigabytes_per_second()),
            mean(&cells, &|c| {
                c.stats.energy_per_bit().as_picojoules_per_bit()
            }),
            mean(&cells, &|c| c.stats.p50_latency.as_nanos()),
            mean(&cells, &|c| c.stats.p99_latency.as_nanos()),
        ];
        let p = device_prefix(device);
        for (suffix, v) in ["sim_bw_gbs", "sim_epb_pjb", "sim_p50_ns", "sim_p99_ns"]
            .iter()
            .zip(m)
        {
            values.insert(format!("{p}.{suffix}"), v);
        }
        means.insert(device, m);
    }
    for (device, _) in SERVE_HEAVY_RATES {
        let cells = cells_of(device);
        for load in ["light", "heavy"] {
            let at: Vec<&CellReport> = cells
                .iter()
                .copied()
                .filter(|c| c.engine.ends_with(load))
                .collect();
            values.insert(
                format!("{}.{load}_p99_ns", device_prefix(device)),
                mean(&at, &|c| c.stats.p99_latency.as_nanos()),
            );
        }
    }
    let vs = |k: usize| ratio(means["COMET"][k], means["COSMOS"][k]);
    values.insert("comet.vs_cosmos_bw_ratio".into(), vs(0));
    values.insert("comet.vs_cosmos_epb_ratio".into(), vs(1));
    values.insert("comet.vs_cosmos_p99_ratio".into(), vs(3));
}

/// Orders `values` by `defs`; every listed metric must have a value and
/// no value may go unlisted.
fn finish(
    defs: Vec<MetricDef>,
    mut values: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
) -> Result<Outcome, String> {
    let metrics = defs
        .into_iter()
        .map(|d| {
            let v = values
                .remove(&d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            Ok((d, v))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if let Some(extra) = values.keys().next() {
        return Err(format!("metric {extra} is not listed"));
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}
