//! Typed campaign results with real JSON and CSV export.
//!
//! A [`CampaignReport`] is the aggregate of one campaign run: one
//! [`CellReport`] per grid cell, in grid order. Exports are deterministic —
//! two runs of the same spec produce byte-identical JSON and CSV no matter
//! how many threads ran the cells — and the JSON round-trips exactly:
//! `CampaignReport::from_json(report.to_json())` reconstructs an equal
//! report (floats are serialized in their native units at
//! shortest-round-trip precision).

use crate::json::{f64_field, field, schema, str_field, u64_field, Json, JsonError, SchemaError};
use comet_serve::TenantStats;
use comet_units::{ByteCount, Energy, Time};
use memsim::{EnergyBreakdown, SimStats};
use std::fmt;

/// Per-tenant results of one serve cell, in tenant index order — the
/// exportable subset of [`comet_serve::TenantStats`] (plain scalars; the
/// tail percentiles are read off the tenant's
/// [`memsim::LatencyHistogram`] at capture time so the JSON round trip
/// stays exact).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// Tenant name.
    pub name: String,
    /// Requests completed.
    pub completed: u64,
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Bytes transferred.
    pub bytes: ByteCount,
    /// Sum of request latencies (exact mean = total / completed).
    pub total_latency: Time,
    /// Maximum request latency.
    pub max_latency: Time,
    /// Median latency, within 2^-7 of the exact nearest-rank value.
    pub p50_latency: Time,
    /// 95th-percentile latency, within 2^-7 of the exact nearest-rank value.
    pub p95_latency: Time,
    /// 99th-percentile latency, within 2^-7 of the exact nearest-rank value.
    pub p99_latency: Time,
}

impl TenantSummary {
    /// Captures a serve run's tenant accounting.
    pub fn from_stats(t: &TenantStats) -> Self {
        TenantSummary {
            name: t.name.clone(),
            completed: t.completed,
            reads: t.reads,
            writes: t.writes,
            bytes: t.bytes,
            total_latency: t.total_latency,
            max_latency: t.max_latency,
            p50_latency: t.percentile(50.0),
            p95_latency: t.percentile(95.0),
            p99_latency: t.percentile(99.0),
        }
    }

    /// Mean request latency.
    pub fn avg_latency(&self) -> Time {
        if self.completed == 0 {
            Time::ZERO
        } else {
            self.total_latency / self.completed as f64
        }
    }
}

/// The result of one campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Cell index in grid order.
    pub index: usize,
    /// Device label (the factory's `device_name`).
    pub device: String,
    /// Workload name.
    pub workload: String,
    /// Engine-point label.
    pub engine: String,
    /// Replicate number.
    pub replicate: usize,
    /// The seed this cell's trace was instantiated with.
    pub seed: u64,
    /// Aggregate simulation statistics.
    pub stats: SimStats,
    /// Per-tenant results (serve cells only; empty for trace replay).
    pub tenants: Vec<TenantSummary>,
}

/// The aggregate results of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Master seed.
    pub seed: u64,
    /// Replicates per grid point.
    pub replicates: usize,
    /// Whether profile workloads were resized to device-native lines.
    pub normalize_lines: bool,
    /// Per-cell results in grid order.
    pub cells: Vec<CellReport>,
}

/// Per-device averages over a report's cells (the Fig. 9 summary shape).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSummary {
    /// Device label.
    pub device: String,
    /// Cells aggregated.
    pub cells: usize,
    /// Mean per-cell bandwidth, GB/s.
    pub avg_bandwidth_gbs: f64,
    /// Mean per-cell energy per bit, pJ/b.
    pub avg_epb_pjb: f64,
    /// Mean per-cell average latency, ns.
    pub avg_latency_ns: f64,
}

impl DeviceSummary {
    /// The paper's Fig. 9(c) efficiency metric over the averages.
    pub fn bw_per_epb(&self) -> f64 {
        if self.avg_epb_pjb == 0.0 {
            0.0
        } else {
            self.avg_bandwidth_gbs / self.avg_epb_pjb
        }
    }
}

/// A failure to reconstruct a report from JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportParseError {
    /// The text is not well-formed JSON.
    Json(JsonError),
    /// The JSON does not have the report schema.
    Schema(String),
}

impl fmt::Display for ReportParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportParseError::Json(e) => write!(f, "{e}"),
            ReportParseError::Schema(m) => write!(f, "report schema error: {m}"),
        }
    }
}

impl std::error::Error for ReportParseError {}

impl From<JsonError> for ReportParseError {
    fn from(e: JsonError) -> Self {
        ReportParseError::Json(e)
    }
}

impl From<SchemaError> for ReportParseError {
    fn from(e: SchemaError) -> Self {
        ReportParseError::Schema(e.0)
    }
}

fn tenant_to_json(t: &TenantSummary) -> Json {
    Json::object([
        ("name", Json::string(&t.name)),
        ("completed", Json::integer(t.completed)),
        ("reads", Json::integer(t.reads)),
        ("writes", Json::integer(t.writes)),
        ("bytes", Json::integer(t.bytes.value())),
        ("total_latency_s", Json::float(t.total_latency.as_seconds())),
        ("max_latency_s", Json::float(t.max_latency.as_seconds())),
        ("p50_latency_s", Json::float(t.p50_latency.as_seconds())),
        ("p95_latency_s", Json::float(t.p95_latency.as_seconds())),
        ("p99_latency_s", Json::float(t.p99_latency.as_seconds())),
    ])
}

fn tenant_from_json(t: &Json) -> Result<TenantSummary, ReportParseError> {
    Ok(TenantSummary {
        name: str_field(t, "name")?,
        completed: u64_field(t, "completed")?,
        reads: u64_field(t, "reads")?,
        writes: u64_field(t, "writes")?,
        bytes: ByteCount::new(u64_field(t, "bytes")?),
        total_latency: Time::from_seconds(f64_field(t, "total_latency_s")?),
        max_latency: Time::from_seconds(f64_field(t, "max_latency_s")?),
        p50_latency: Time::from_seconds(f64_field(t, "p50_latency_s")?),
        p95_latency: Time::from_seconds(f64_field(t, "p95_latency_s")?),
        p99_latency: Time::from_seconds(f64_field(t, "p99_latency_s")?),
    })
}

impl CellReport {
    fn to_json(&self) -> Json {
        let s = &self.stats;
        Json::object([
            ("index", Json::integer(self.index as u64)),
            ("device", Json::string(&self.device)),
            ("workload", Json::string(&self.workload)),
            ("engine", Json::string(&self.engine)),
            ("replicate", Json::integer(self.replicate as u64)),
            ("seed", Json::integer(self.seed)),
            (
                "stats",
                Json::object([
                    ("device", Json::string(&s.device)),
                    ("workload", Json::string(&s.workload)),
                    ("completed", Json::integer(s.completed)),
                    ("reads", Json::integer(s.reads)),
                    ("writes", Json::integer(s.writes)),
                    ("bytes", Json::integer(s.bytes.value())),
                    ("makespan_s", Json::float(s.makespan.as_seconds())),
                    ("total_latency_s", Json::float(s.total_latency.as_seconds())),
                    ("max_latency_s", Json::float(s.max_latency.as_seconds())),
                    ("p50_latency_s", Json::float(s.p50_latency.as_seconds())),
                    ("p95_latency_s", Json::float(s.p95_latency.as_seconds())),
                    ("p99_latency_s", Json::float(s.p99_latency.as_seconds())),
                    (
                        "energy_j",
                        Json::object([
                            ("access", Json::float(s.energy.access.as_joules())),
                            ("background", Json::float(s.energy.background.as_joules())),
                            ("refresh", Json::float(s.energy.refresh.as_joules())),
                        ]),
                    ),
                ]),
            ),
            (
                "tenants",
                Json::Array(self.tenants.iter().map(tenant_to_json).collect()),
            ),
            // Redundant human-facing metrics; recomputed (not parsed) on
            // import so the round trip stays exact.
            (
                "derived",
                Json::object([
                    (
                        "bandwidth_gbs",
                        Json::float(s.bandwidth().as_gigabytes_per_second()),
                    ),
                    ("avg_latency_ns", Json::float(s.avg_latency().as_nanos())),
                    ("p50_latency_ns", Json::float(s.p50_latency.as_nanos())),
                    ("p95_latency_ns", Json::float(s.p95_latency.as_nanos())),
                    ("p99_latency_ns", Json::float(s.p99_latency.as_nanos())),
                    (
                        "epb_pjb",
                        Json::float(s.energy_per_bit().as_picojoules_per_bit()),
                    ),
                    ("bw_per_epb", Json::float(s.bandwidth_per_epb())),
                ]),
            ),
        ])
    }

    fn from_json(cell: &Json) -> Result<CellReport, ReportParseError> {
        // Reports written before the one latency histogram also carry a
        // 10-bucket "histogram" array under "stats"; like any unknown key,
        // it is ignored.
        let stats = field(cell, "stats")?;
        let energy = field(stats, "energy_j")?;
        // Absent means a pre-tenant-export report: parse as no tenants.
        let tenants = match cell.get("tenants") {
            None => Vec::new(),
            Some(t) => t
                .as_array()
                .ok_or_else(|| schema("'tenants' is not an array"))?
                .iter()
                .map(tenant_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(CellReport {
            index: u64_field(cell, "index")? as usize,
            device: str_field(cell, "device")?,
            workload: str_field(cell, "workload")?,
            engine: str_field(cell, "engine")?,
            replicate: u64_field(cell, "replicate")? as usize,
            seed: u64_field(cell, "seed")?,
            tenants,
            stats: SimStats {
                device: str_field(stats, "device")?,
                workload: str_field(stats, "workload")?,
                completed: u64_field(stats, "completed")?,
                reads: u64_field(stats, "reads")?,
                writes: u64_field(stats, "writes")?,
                bytes: ByteCount::new(u64_field(stats, "bytes")?),
                makespan: Time::from_seconds(f64_field(stats, "makespan_s")?),
                total_latency: Time::from_seconds(f64_field(stats, "total_latency_s")?),
                max_latency: Time::from_seconds(f64_field(stats, "max_latency_s")?),
                p50_latency: Time::from_seconds(f64_field(stats, "p50_latency_s")?),
                p95_latency: Time::from_seconds(f64_field(stats, "p95_latency_s")?),
                p99_latency: Time::from_seconds(f64_field(stats, "p99_latency_s")?),
                energy: EnergyBreakdown {
                    access: Energy::from_joules(f64_field(energy, "access")?),
                    background: Energy::from_joules(f64_field(energy, "background")?),
                    refresh: Energy::from_joules(f64_field(energy, "refresh")?),
                },
            },
        })
    }
}

impl CampaignReport {
    /// Serializes the report as deterministic, pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let doc = Json::object([
            ("campaign", Json::string(&self.name)),
            ("seed", Json::integer(self.seed)),
            ("replicates", Json::integer(self.replicates as u64)),
            ("normalize_lines", Json::Bool(self.normalize_lines)),
            (
                "cells",
                Json::Array(self.cells.iter().map(CellReport::to_json).collect()),
            ),
        ]);
        let mut text = doc.to_string();
        text.push('\n');
        text
    }

    /// Reconstructs a report from its JSON serialization.
    ///
    /// # Errors
    ///
    /// Returns [`ReportParseError`] on malformed JSON or schema mismatch.
    ///
    /// # Examples
    ///
    /// ```
    /// use comet_lab::CampaignReport;
    ///
    /// let empty = CampaignReport {
    ///     name: "demo".into(),
    ///     seed: 42,
    ///     replicates: 1,
    ///     normalize_lines: true,
    ///     cells: Vec::new(),
    /// };
    /// let back = CampaignReport::from_json(&empty.to_json())?;
    /// assert_eq!(back, empty);
    /// # Ok::<(), comet_lab::ReportParseError>(())
    /// ```
    pub fn from_json(text: &str) -> Result<CampaignReport, ReportParseError> {
        let doc = Json::parse(text)?;
        let cells = field(&doc, "cells")?
            .as_array()
            .ok_or_else(|| schema("'cells' is not an array"))?
            .iter()
            .map(CellReport::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CampaignReport {
            name: str_field(&doc, "campaign")?,
            seed: u64_field(&doc, "seed")?,
            replicates: u64_field(&doc, "replicates")? as usize,
            normalize_lines: field(&doc, "normalize_lines")?
                .as_bool()
                .ok_or_else(|| schema("'normalize_lines' is not a bool"))?,
            cells,
        })
    }

    /// Serializes the per-cell summary metrics as CSV (header + one row
    /// per cell; use the JSON export for full fidelity).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "index,device,workload,engine,replicate,seed,completed,reads,writes,bytes,\
             makespan_ns,avg_latency_ns,p50_latency_ns,p95_latency_ns,p99_latency_ns,\
             max_latency_ns,bandwidth_gbs,epb_pjb,bw_per_epb,energy_access_pj,\
             energy_background_pj,energy_refresh_pj\n",
        );
        for c in &self.cells {
            let s = &c.stats;
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.6},{:.6},{:.6},{:.3},{:.3},{:.3}\n",
                c.index,
                csv_quote(&c.device),
                csv_quote(&c.workload),
                csv_quote(&c.engine),
                c.replicate,
                c.seed,
                s.completed,
                s.reads,
                s.writes,
                s.bytes.value(),
                s.makespan.as_nanos(),
                s.avg_latency().as_nanos(),
                s.p50_latency.as_nanos(),
                s.p95_latency.as_nanos(),
                s.p99_latency.as_nanos(),
                s.max_latency.as_nanos(),
                s.bandwidth().as_gigabytes_per_second(),
                s.energy_per_bit().as_picojoules_per_bit(),
                s.bandwidth_per_epb(),
                s.energy.access.as_picojoules(),
                s.energy.background.as_picojoules(),
                s.energy.refresh.as_picojoules(),
            ));
        }
        out
    }

    /// Serializes per-tenant serve results as CSV: one row per (cell,
    /// tenant), empty below replay cells (header always present, so the
    /// export is deterministic for any engine mix).
    pub fn to_tenant_csv(&self) -> String {
        let mut out = String::from(
            "index,device,workload,engine,replicate,tenant,completed,reads,writes,bytes,\
             avg_latency_ns,p50_latency_ns,p95_latency_ns,p99_latency_ns,max_latency_ns\n",
        );
        for c in &self.cells {
            for t in &c.tenants {
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3}\n",
                    c.index,
                    csv_quote(&c.device),
                    csv_quote(&c.workload),
                    csv_quote(&c.engine),
                    c.replicate,
                    csv_quote(&t.name),
                    t.completed,
                    t.reads,
                    t.writes,
                    t.bytes.value(),
                    t.avg_latency().as_nanos(),
                    t.p50_latency.as_nanos(),
                    t.p95_latency.as_nanos(),
                    t.p99_latency.as_nanos(),
                    t.max_latency.as_nanos(),
                ));
            }
        }
        out
    }

    /// Per-device averages over all cells, in first-appearance order (the
    /// Fig. 9 summary aggregation: plain means of per-cell bandwidth, EPB
    /// and average latency).
    pub fn device_summaries(&self) -> Vec<DeviceSummary> {
        let mut order: Vec<String> = Vec::new();
        for c in &self.cells {
            if !order.contains(&c.device) {
                order.push(c.device.clone());
            }
        }
        order
            .into_iter()
            .map(|device| {
                let cells: Vec<&CellReport> =
                    self.cells.iter().filter(|c| c.device == device).collect();
                let n = cells.len() as f64;
                DeviceSummary {
                    device,
                    cells: cells.len(),
                    avg_bandwidth_gbs: cells
                        .iter()
                        .map(|c| c.stats.bandwidth().as_gigabytes_per_second())
                        .sum::<f64>()
                        / n,
                    avg_epb_pjb: cells
                        .iter()
                        .map(|c| c.stats.energy_per_bit().as_picojoules_per_bit())
                        .sum::<f64>()
                        / n,
                    avg_latency_ns: cells
                        .iter()
                        .map(|c| c.stats.avg_latency().as_nanos())
                        .sum::<f64>()
                        / n,
                }
            })
            .collect()
    }

    /// The cells of one device, in grid order.
    pub fn cells_for(&self, device: &str) -> Vec<&CellReport> {
        self.cells.iter().filter(|c| c.device == device).collect()
    }
}

/// Quotes a CSV field if it contains a delimiter (report names are normally
/// plain identifiers, but the format stays correct for any input).
fn csv_quote(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(seed: u64) -> SimStats {
        let mut s = SimStats::new("DEV", "wl");
        s.completed = 3 + seed;
        s.reads = 2;
        s.writes = 1 + seed;
        s.bytes = ByteCount::new(192);
        s.makespan = Time::from_nanos(350.5);
        s.total_latency = Time::from_nanos(410.25);
        s.max_latency = Time::from_nanos(200.125);
        s.p50_latency = Time::from_nanos(120.5);
        s.p95_latency = Time::from_nanos(190.25);
        s.p99_latency = Time::from_nanos(200.125);
        s.energy = EnergyBreakdown {
            access: Energy::from_picojoules(512.5),
            background: Energy::from_picojoules(17.0),
            refresh: Energy::ZERO,
        };
        s
    }

    fn sample_report() -> CampaignReport {
        CampaignReport {
            name: "unit".into(),
            seed: (1 << 60) + 3,
            replicates: 2,
            normalize_lines: true,
            cells: (0..4)
                .map(|i| CellReport {
                    index: i,
                    device: format!("dev{}", i / 2),
                    workload: "wl".into(),
                    engine: "frfcfs8-paced".into(),
                    replicate: i % 2,
                    seed: 42 + i as u64,
                    stats: sample_stats(i as u64),
                    tenants: (0..i % 3)
                        .map(|t| TenantSummary {
                            name: format!("tenant{t}"),
                            completed: 10 + t as u64,
                            reads: 8,
                            writes: 2 + t as u64,
                            bytes: ByteCount::new(640),
                            total_latency: Time::from_nanos(1200.5),
                            max_latency: Time::from_nanos(400.25),
                            p50_latency: Time::from_nanos(90.0),
                            p95_latency: Time::from_nanos(200.0),
                            p99_latency: Time::from_nanos(300.0),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let r = sample_report();
        let text = r.to_json();
        let back = CampaignReport::from_json(&text).expect("parses");
        assert_eq!(back, r);
        // Re-emission is byte-identical (determinism).
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn csv_has_header_and_all_cells() {
        let r = sample_report();
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + r.cells.len());
        assert!(lines[0].starts_with("index,device,workload"));
        assert!(lines[1].starts_with("0,dev0,wl,frfcfs8-paced,0,42,"));
    }

    #[test]
    fn tenant_csv_has_one_row_per_cell_tenant() {
        let r = sample_report();
        let csv = r.to_tenant_csv();
        let lines: Vec<&str> = csv.lines().collect();
        let expected: usize = r.cells.iter().map(|c| c.tenants.len()).sum();
        assert!(expected > 0, "sample report carries tenants");
        assert_eq!(lines.len(), 1 + expected);
        assert!(lines[0].starts_with("index,device,workload,engine,replicate,tenant"));
        assert!(lines[1].contains(",tenant0,"));
    }

    #[test]
    fn reports_without_tenant_arrays_still_parse() {
        // Backwards compatibility: exports from before per-tenant stats
        // carry no "tenants" key and parse as tenant-less cells.
        let mut r = sample_report();
        for c in &mut r.cells {
            c.tenants.clear();
        }
        let stripped = {
            // Emit, then surgically drop the tenants arrays.
            let text = r.to_json();
            text.replace("\"tenants\": [],\n      ", "")
        };
        assert_ne!(stripped, r.to_json(), "substitution applied");
        let back = CampaignReport::from_json(&stripped).expect("parses without tenants");
        assert_eq!(back, r);
    }

    /// A two-cell report (one serve cell with a tenant, one paced replay
    /// cell) as exported before the one latency histogram: its stats carry
    /// the 10-bucket `"histogram"` array.
    const TEN_BUCKET_REPORT: &str = r#"{
  "campaign": "v1-format",
  "seed": 7,
  "replicates": 1,
  "normalize_lines": true,
  "cells": [
    {
      "index": 0,
      "device": "EPCM-MM",
      "workload": "gcc-like",
      "engine": "serve-closed8",
      "replicate": 0,
      "seed": 7,
      "stats": {
        "device": "EPCM-MM",
        "workload": "gcc-like",
        "completed": 40,
        "reads": 32,
        "writes": 8,
        "bytes": 2560,
        "makespan_s": 2.8899999999999986e-6,
        "total_latency_s": 4.619999999999995e-6,
        "max_latency_s": 2.5000000000000015e-7,
        "p50_latency_s": 8.000000000000008e-8,
        "p95_latency_s": 2.2499999999999912e-7,
        "p99_latency_s": 2.5000000000000015e-7,
        "histogram": [0, 0, 22, 18, 0, 0, 0, 0, 0, 0],
        "energy_j": {
          "access": 9.599999999999997e-8,
          "background": 4.3349999999999975e-7,
          "refresh": 0.0
        }
      },
      "tenants": [
        {
          "name": "closed",
          "completed": 40,
          "reads": 32,
          "writes": 8,
          "bytes": 2560,
          "total_latency_s": 4.619999999999995e-6,
          "max_latency_s": 2.5000000000000015e-7,
          "p50_latency_s": 9.761804008888054e-8,
          "p95_latency_s": 2.3713737056616554e-7,
          "p99_latency_s": 2.5000000000000015e-7
        }
      ],
      "derived": {
        "bandwidth_gbs": 0.8858131487889278,
        "avg_latency_ns": 115.49999999999986,
        "p50_latency_ns": 80.00000000000009,
        "p95_latency_ns": 224.99999999999912,
        "p99_latency_ns": 250.00000000000014,
        "epb_pjb": 25.854492187499986,
        "bw_per_epb": 0.03426147929593437
      }
    },
    {
      "index": 1,
      "device": "EPCM-MM",
      "workload": "gcc-like",
      "engine": "frfcfs8-paced",
      "replicate": 0,
      "seed": 7,
      "stats": {
        "device": "EPCM-MM",
        "workload": "gcc-like",
        "completed": 40,
        "reads": 30,
        "writes": 10,
        "bytes": 2560,
        "makespan_s": 1.7951046314602971e-6,
        "total_latency_s": 2.658980763300021e-5,
        "max_latency_s": 1.7646274970232586e-6,
        "p50_latency_s": 5.874771988413794e-7,
        "p95_latency_s": 1.614823326327876e-6,
        "p99_latency_s": 1.7646274970232586e-6,
        "histogram": [0, 0, 4, 7, 21, 8, 0, 0, 0, 0],
        "energy_j": {
          "access": 1.0999999999999995e-7,
          "background": 2.6926569471904455e-7,
          "refresh": 0.0
        }
      },
      "tenants": [],
      "derived": {
        "bandwidth_gbs": 1.4261007158771961,
        "avg_latency_ns": 664.7451908250052,
        "p50_latency_ns": 587.4771988413794,
        "p95_latency_ns": 1614.823326327876,
        "p99_latency_ns": 1764.6274970232587,
        "epb_pjb": 18.518832749953347,
        "bw_per_epb": 0.07700813194507568
      }
    }
  ]
}
"#;

    #[test]
    fn ten_bucket_reports_still_parse() {
        let old = CampaignReport::from_json(TEN_BUCKET_REPORT).expect("old format parses");
        assert_eq!(old.cells.len(), 2);
        assert_eq!(old.cells[0].tenants.len(), 1);
        // The same values round-trip through the new format unchanged...
        let text = old.to_json();
        assert_eq!(CampaignReport::from_json(&text).expect("parses"), old);
        // ...and the new export is the old file minus its histogram lines.
        let stripped: String = TEN_BUCKET_REPORT
            .split_inclusive('\n')
            .filter(|line| !line.trim_start().starts_with("\"histogram\""))
            .collect();
        assert_ne!(stripped, TEN_BUCKET_REPORT);
        assert_eq!(text, stripped);
    }

    #[test]
    fn device_summaries_group_and_average() {
        let r = sample_report();
        let sums = r.device_summaries();
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].device, "dev0");
        assert_eq!(sums[0].cells, 2);
        let manual = (r.cells[0].stats.bandwidth().as_gigabytes_per_second()
            + r.cells[1].stats.bandwidth().as_gigabytes_per_second())
            / 2.0;
        assert!((sums[0].avg_bandwidth_gbs - manual).abs() < 1e-12);
    }

    #[test]
    fn schema_errors_are_reported() {
        assert!(matches!(
            CampaignReport::from_json("{}"),
            Err(ReportParseError::Schema(_))
        ));
        assert!(matches!(
            CampaignReport::from_json("not json"),
            Err(ReportParseError::Json(_))
        ));
        // A cell missing its stats.
        let bad = "{\"campaign\":\"x\",\"seed\":1,\"replicates\":1,\
                   \"normalize_lines\":true,\"cells\":[{\"index\":0}]}";
        assert!(CampaignReport::from_json(bad).is_err());
    }

    #[test]
    fn csv_quoting() {
        assert_eq!(csv_quote("plain"), "plain");
        assert_eq!(csv_quote("a,b"), "\"a,b\"");
        assert_eq!(csv_quote("q\"q"), "\"q\"\"q\"");
    }
}
