//! Campaign specifications on disk.
//!
//! [`spec_to_json`] / [`spec_from_json`] move a [`CampaignSpec`] through
//! the crate's own deterministic [`Json`] emitter/parser (the same one
//! reports use), closing the ROADMAP's "campaign specs loaded from JSON
//! files" item: `comet-lab run spec.json` runs a campaign somebody wrote,
//! versioned, or generated — including `comet-serve` service scenarios
//! with their full tenant mixes.
//!
//! Devices serialize by **registry name** (resolved back through
//! [`device_by_name`](crate::device_by_name)); workloads serialize as full
//! synthetic profiles. Fixed in-memory traces are deliberately not
//! serializable — a spec file describes how to *generate* an experiment,
//! not megabytes of trace data — and are rejected with
//! [`SpecError::Unsupported`].
//!
//! Round trips are exact: `spec_to_json(&spec_from_json(text)?)`
//! re-emits `text` byte-for-byte for any emitted spec (pinned by tests).

use crate::json::{f64_field, field, schema, str_field, u64_field, Json, JsonError, SchemaError};
use crate::registry::{device_by_name, device_names};
use crate::spec::{CampaignSpec, EnginePoint, WorkloadSource};
use comet_data::PayloadSpec;
use comet_serve::{ArrivalProcess, BatchConfig, ServeSpec, TenantLoad, TenantSpec};
use comet_units::{ByteCount, Time};
use memsim::{AccessPattern, ReplayMode, Scheduler, WorkloadProfile};
use std::fmt;

/// A failure to serialize or reconstruct a campaign spec.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The text is not well-formed JSON.
    Json(JsonError),
    /// The JSON does not have the spec schema.
    Schema(String),
    /// A device name is not in the registry.
    UnknownDevice(String),
    /// The spec holds something that does not serialize (fixed traces).
    Unsupported(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "{e}"),
            SpecError::Schema(m) => write!(f, "spec schema error: {m}"),
            SpecError::UnknownDevice(d) => {
                write!(
                    f,
                    "unknown device '{d}'; registered devices: {}",
                    device_names().join(", ")
                )
            }
            SpecError::Unsupported(m) => write!(f, "unsupported in spec files: {m}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Json(e)
    }
}

impl From<SchemaError> for SpecError {
    fn from(e: SchemaError) -> Self {
        SpecError::Schema(e.0)
    }
}

// --- emission ---------------------------------------------------------------

fn pattern_to_json(p: AccessPattern) -> Json {
    match p {
        AccessPattern::Stream => Json::object([("kind", Json::string("stream"))]),
        AccessPattern::Strided { stride } => Json::object([
            ("kind", Json::string("strided")),
            ("stride", Json::integer(stride)),
        ]),
        AccessPattern::Random => Json::object([("kind", Json::string("random"))]),
        AccessPattern::Clustered { locality } => Json::object([
            ("kind", Json::string("clustered")),
            ("locality", Json::float(locality)),
        ]),
    }
}

fn profile_to_json(p: &WorkloadProfile) -> Json {
    Json::object([
        ("name", Json::string(&p.name)),
        ("read_fraction", Json::float(p.read_fraction)),
        ("footprint_bytes", Json::integer(p.footprint.value())),
        ("pattern", pattern_to_json(p.pattern)),
        ("interarrival_s", Json::float(p.interarrival.as_seconds())),
        ("requests", Json::integer(p.requests as u64)),
        ("line_bytes", Json::integer(p.line_bytes)),
    ])
}

fn scheduler_to_json(s: Scheduler) -> Json {
    match s {
        Scheduler::Fcfs => Json::object([("kind", Json::string("fcfs"))]),
        Scheduler::FrFcfs { window } => Json::object([
            ("kind", Json::string("frfcfs")),
            ("window", Json::integer(window as u64)),
        ]),
    }
}

fn process_to_json(p: ArrivalProcess) -> Json {
    match p {
        ArrivalProcess::Deterministic { rate_rps } => Json::object([
            ("kind", Json::string("deterministic")),
            ("rate_rps", Json::float(rate_rps)),
        ]),
        ArrivalProcess::Poisson { rate_rps } => Json::object([
            ("kind", Json::string("poisson")),
            ("rate_rps", Json::float(rate_rps)),
        ]),
        ArrivalProcess::Bursty { rate_rps, on, off } => Json::object([
            ("kind", Json::string("bursty")),
            ("rate_rps", Json::float(rate_rps)),
            ("on_s", Json::float(on.as_seconds())),
            ("off_s", Json::float(off.as_seconds())),
        ]),
    }
}

fn payload_to_json(p: PayloadSpec) -> Json {
    match p {
        PayloadSpec::Zero => Json::object([("kind", Json::string("zero"))]),
        PayloadSpec::Uniform => Json::object([("kind", Json::string("uniform"))]),
        PayloadSpec::ToggleWords => Json::object([("kind", Json::string("toggle"))]),
        PayloadSpec::SparseUpdate { flip_fraction } => Json::object([
            ("kind", Json::string("sparse")),
            ("flip_fraction", Json::float(flip_fraction)),
        ]),
        PayloadSpec::TransformerWeights { std } => {
            Json::object([("kind", Json::string("weights")), ("std", Json::float(std))])
        }
    }
}

fn tenant_to_json(t: &TenantSpec) -> Json {
    let load = match t.load {
        TenantLoad::Open(process) => Json::object([
            ("kind", Json::string("open")),
            ("process", process_to_json(process)),
        ]),
        TenantLoad::Closed { clients, think } => Json::object([
            ("kind", Json::string("closed")),
            ("clients", Json::integer(clients as u64)),
            ("think_s", Json::float(think.as_seconds())),
        ]),
    };
    Json::object([
        ("name", Json::string(&t.name)),
        ("requests", Json::integer(t.requests as u64)),
        (
            "profile",
            t.profile.as_ref().map_or(Json::Null, profile_to_json),
        ),
        ("payload", t.payload.map_or(Json::Null, payload_to_json)),
        ("load", load),
    ])
}

fn serve_to_json(s: &ServeSpec) -> Json {
    Json::object([
        ("shards", Json::integer(s.shards as u64)),
        ("scheduler", scheduler_to_json(s.scheduler)),
        (
            "batch",
            s.batch.map_or(Json::Null, |b| {
                Json::object([
                    ("window_s", Json::float(b.window.as_seconds())),
                    ("max_writes", Json::integer(b.max_writes as u64)),
                ])
            }),
        ),
        (
            "tenants",
            Json::Array(s.tenants.iter().map(tenant_to_json).collect()),
        ),
    ])
}

fn engine_to_json(e: &EnginePoint) -> Json {
    match &e.serve {
        Some(serve) => Json::object([
            ("label", Json::string(&e.label)),
            ("serve", serve_to_json(serve)),
        ]),
        None => Json::object([
            ("label", Json::string(&e.label)),
            ("scheduler", scheduler_to_json(e.scheduler)),
            (
                "replay",
                Json::string(match e.replay {
                    ReplayMode::Paced => "paced",
                    ReplayMode::Saturation => "saturation",
                }),
            ),
        ]),
    }
}

/// Serializes a campaign spec as deterministic, pretty-printed JSON.
///
/// # Errors
///
/// Returns [`SpecError::Unsupported`] if the spec holds fixed in-memory
/// traces (spec files describe generated experiments only).
pub fn spec_to_json(spec: &CampaignSpec) -> Result<String, SpecError> {
    let mut workloads = Vec::new();
    for w in &spec.workloads {
        match w {
            WorkloadSource::Profile(p) => workloads.push(profile_to_json(p)),
            WorkloadSource::Trace { name, .. } => {
                return Err(SpecError::Unsupported(format!(
                    "fixed trace workload '{name}'"
                )))
            }
        }
    }
    let doc = Json::object([
        ("campaign", Json::string(&spec.name)),
        ("seed", Json::integer(spec.seed)),
        ("replicates", Json::integer(spec.replicates as u64)),
        ("normalize_lines", Json::Bool(spec.normalize_lines)),
        (
            "devices",
            Json::Array(
                spec.devices
                    .iter()
                    .map(|d| Json::string(d.device_name()))
                    .collect(),
            ),
        ),
        ("workloads", Json::Array(workloads)),
        (
            "engines",
            Json::Array(spec.engines.iter().map(engine_to_json).collect()),
        ),
    ]);
    let mut text = doc.to_string();
    text.push('\n');
    Ok(text)
}

// --- parsing ----------------------------------------------------------------
//
// Spec files are untrusted input, so every value with an invariant is
// validated here with a schema error instead of being fed raw into the
// serve/memsim constructors (whose asserts would panic mid-campaign, or —
// for enum variants built directly — silently produce garbage like
// infinite arrival times from a zero rate).

fn positive_f64(obj: &Json, key: &str) -> Result<f64, SchemaError> {
    let v = f64_field(obj, key)?;
    if v > 0.0 && v.is_finite() {
        Ok(v)
    } else {
        Err(schema(format!(
            "'{key}' must be positive and finite, got {v}"
        )))
    }
}

fn non_negative_f64(obj: &Json, key: &str) -> Result<f64, SchemaError> {
    let v = f64_field(obj, key)?;
    if v >= 0.0 && v.is_finite() {
        Ok(v)
    } else {
        Err(schema(format!(
            "'{key}' must be non-negative and finite, got {v}"
        )))
    }
}

fn pattern_from_json(j: &Json, line_bytes: u64) -> Result<AccessPattern, SchemaError> {
    match str_field(j, "kind")?.as_str() {
        "stream" => Ok(AccessPattern::Stream),
        "strided" => {
            let stride = u64_field(j, "stride")?;
            if stride == 0 || stride % line_bytes != 0 {
                return Err(schema(format!(
                    "'stride' ({stride}) must be a positive multiple of 'line_bytes' ({line_bytes})"
                )));
            }
            Ok(AccessPattern::Strided { stride })
        }
        "random" => Ok(AccessPattern::Random),
        "clustered" => {
            let locality = f64_field(j, "locality")?;
            if !(0.0..=1.0).contains(&locality) {
                return Err(schema(format!(
                    "'locality' must be in [0, 1], got {locality}"
                )));
            }
            Ok(AccessPattern::Clustered { locality })
        }
        other => Err(schema(format!("unknown pattern kind '{other}'"))),
    }
}

fn profile_from_json(j: &Json) -> Result<WorkloadProfile, SchemaError> {
    let read_fraction = f64_field(j, "read_fraction")?;
    if !(0.0..=1.0).contains(&read_fraction) {
        return Err(schema(format!(
            "'read_fraction' must be in [0, 1], got {read_fraction}"
        )));
    }
    let line_bytes = u64_field(j, "line_bytes")?;
    if line_bytes == 0 {
        return Err(schema("'line_bytes' must be at least 1"));
    }
    let footprint = u64_field(j, "footprint_bytes")?;
    if footprint < line_bytes {
        return Err(schema(format!(
            "'footprint_bytes' ({footprint}) smaller than one line ({line_bytes})"
        )));
    }
    Ok(WorkloadProfile {
        name: str_field(j, "name")?,
        read_fraction,
        footprint: ByteCount::new(footprint),
        pattern: pattern_from_json(field(j, "pattern")?, line_bytes)?,
        interarrival: Time::from_seconds(non_negative_f64(j, "interarrival_s")?),
        requests: u64_field(j, "requests")? as usize,
        line_bytes,
    })
}

fn scheduler_from_json(j: &Json) -> Result<Scheduler, SchemaError> {
    match str_field(j, "kind")?.as_str() {
        "fcfs" => Ok(Scheduler::Fcfs),
        // A zero window would leave every request unissuable (issue time
        // +inf), which the engines reject by assertion.
        "frfcfs" => match u64_field(j, "window")? {
            0 => Err(schema("'window' must be at least 1")),
            window => Ok(Scheduler::FrFcfs {
                window: window as usize,
            }),
        },
        other => Err(schema(format!("unknown scheduler kind '{other}'"))),
    }
}

fn process_from_json(j: &Json) -> Result<ArrivalProcess, SchemaError> {
    // The validating constructors (not raw variants) keep the crate's
    // documented invariants — positive finite rates, positive burst
    // windows — out of reach of malformed files.
    match str_field(j, "kind")?.as_str() {
        "deterministic" => Ok(ArrivalProcess::deterministic(positive_f64(j, "rate_rps")?)),
        "poisson" => Ok(ArrivalProcess::poisson(positive_f64(j, "rate_rps")?)),
        "bursty" => Ok(ArrivalProcess::bursty(
            positive_f64(j, "rate_rps")?,
            Time::from_seconds(positive_f64(j, "on_s")?),
            Time::from_seconds(non_negative_f64(j, "off_s")?),
        )),
        other => Err(schema(format!("unknown arrival process kind '{other}'"))),
    }
}

fn payload_from_json(j: &Json) -> Result<PayloadSpec, SchemaError> {
    match str_field(j, "kind")?.as_str() {
        "zero" => Ok(PayloadSpec::Zero),
        "uniform" => Ok(PayloadSpec::Uniform),
        "toggle" => Ok(PayloadSpec::ToggleWords),
        "sparse" => {
            let flip_fraction = positive_f64(j, "flip_fraction")?;
            if flip_fraction > 1.0 {
                return Err(schema(format!(
                    "'flip_fraction' must be in (0, 1], got {flip_fraction}"
                )));
            }
            Ok(PayloadSpec::SparseUpdate { flip_fraction })
        }
        "weights" => Ok(PayloadSpec::TransformerWeights {
            std: positive_f64(j, "std")?,
        }),
        other => Err(schema(format!(
            "unknown payload kind '{other}' (zero|uniform|toggle|sparse|weights)"
        ))),
    }
}

fn tenant_from_json(j: &Json) -> Result<TenantSpec, SchemaError> {
    let load_json = field(j, "load")?;
    let load = match str_field(load_json, "kind")?.as_str() {
        "open" => TenantLoad::Open(process_from_json(field(load_json, "process")?)?),
        "closed" => {
            let clients = u64_field(load_json, "clients")? as usize;
            if clients == 0 {
                return Err(schema("'clients' must be at least 1"));
            }
            TenantLoad::Closed {
                clients,
                think: Time::from_seconds(non_negative_f64(load_json, "think_s")?),
            }
        }
        other => Err(schema(format!("unknown tenant load kind '{other}'")))?,
    };
    let profile = match field(j, "profile")? {
        Json::Null => None,
        p => Some(profile_from_json(p)?),
    };
    // Absent and null both mean "no payload", so pre-payload spec files
    // keep parsing.
    let payload = match j.get("payload") {
        None | Some(Json::Null) => None,
        Some(p) => Some(payload_from_json(p)?),
    };
    Ok(TenantSpec {
        name: str_field(j, "name")?,
        profile,
        load,
        requests: u64_field(j, "requests")? as usize,
        payload,
    })
}

fn serve_from_json(j: &Json) -> Result<ServeSpec, SchemaError> {
    let batch = match field(j, "batch")? {
        Json::Null => None,
        b => {
            let max_writes = u64_field(b, "max_writes")? as usize;
            if max_writes == 0 {
                return Err(schema("'max_writes' must be at least 1"));
            }
            Some(BatchConfig::new(
                Time::from_seconds(positive_f64(b, "window_s")?),
                max_writes,
            ))
        }
    };
    let tenants = field(j, "tenants")?
        .as_array()
        .ok_or_else(|| schema("'tenants' is not an array"))?
        .iter()
        .map(tenant_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    if tenants.is_empty() {
        return Err(schema("a serve engine point needs at least one tenant"));
    }
    Ok(ServeSpec {
        tenants,
        scheduler: scheduler_from_json(field(j, "scheduler")?)?,
        shards: u64_field(j, "shards")? as usize,
        batch,
    })
}

fn engine_from_json(j: &Json) -> Result<EnginePoint, SchemaError> {
    let label = str_field(j, "label")?;
    if let Some(serve) = j.get("serve") {
        return Ok(EnginePoint::serve(label, serve_from_json(serve)?));
    }
    let replay = match str_field(j, "replay")?.as_str() {
        "paced" => ReplayMode::Paced,
        "saturation" => ReplayMode::Saturation,
        other => return Err(schema(format!("unknown replay mode '{other}'"))),
    };
    Ok(EnginePoint::new(
        label,
        scheduler_from_json(field(j, "scheduler")?)?,
        replay,
    ))
}

/// Reconstructs a campaign spec from its JSON serialization, resolving
/// device names through the registry.
///
/// # Errors
///
/// Returns [`SpecError`] on malformed JSON, schema mismatch, or a device
/// name the registry does not know.
///
/// # Examples
///
/// ```
/// use comet_lab::{run_campaign, spec_from_json};
///
/// let text = r#"{
///   "campaign": "doc", "seed": 7, "replicates": 1, "normalize_lines": true,
///   "devices": ["2D_DDR3"],
///   "workloads": [{
///     "name": "probe", "read_fraction": 0.8, "footprint_bytes": 8388608,
///     "pattern": {"kind": "random"}, "interarrival_s": 2.0e-9,
///     "requests": 64, "line_bytes": 64
///   }],
///   "engines": [{"label": "frfcfs8-paced",
///                "scheduler": {"kind": "frfcfs", "window": 8},
///                "replay": "paced"}]
/// }"#;
/// let spec = spec_from_json(text)?;
/// assert_eq!(run_campaign(&spec, 1).cells.len(), 1);
/// # Ok::<(), comet_lab::SpecError>(())
/// ```
pub fn spec_from_json(text: &str) -> Result<CampaignSpec, SpecError> {
    let doc = Json::parse(text)?;
    let mut devices = Vec::new();
    for d in field(&doc, "devices")?
        .as_array()
        .ok_or_else(|| schema("'devices' is not an array"))?
    {
        let name = d
            .as_str()
            .ok_or_else(|| schema("device entry is not a string"))?;
        devices.push(device_by_name(name).ok_or_else(|| SpecError::UnknownDevice(name.into()))?);
    }
    let workloads = field(&doc, "workloads")?
        .as_array()
        .ok_or_else(|| schema("'workloads' is not an array"))?
        .iter()
        .map(|w| profile_from_json(w).map(WorkloadSource::Profile))
        .collect::<Result<Vec<_>, _>>()?;
    let engines = field(&doc, "engines")?
        .as_array()
        .ok_or_else(|| schema("'engines' is not an array"))?
        .iter()
        .map(engine_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    if devices.is_empty() || workloads.is_empty() || engines.is_empty() {
        return Err(schema("devices, workloads and engines must be non-empty").into());
    }
    Ok(CampaignSpec {
        name: str_field(&doc, "campaign")?,
        seed: u64_field(&doc, "seed")?,
        replicates: u64_field(&doc, "replicates")? as usize,
        normalize_lines: field(&doc, "normalize_lines")?
            .as_bool()
            .ok_or_else(|| schema("'normalize_lines' is not a bool"))?,
        devices,
        workloads,
        engines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{
        payload_entropy_axis, serve_concurrency_axis, serve_load_axis, serve_mix_axis,
    };
    use crate::runner::run_campaign;

    fn sample_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::new(
            "spec-json",
            (1 << 60) + 9,
            vec![
                device_by_name("2D_DDR3").unwrap(),
                device_by_name("COMET").unwrap(),
            ],
            memsim::spec_like_suite(120)
                .into_iter()
                .take(2)
                .map(WorkloadSource::Profile)
                .collect(),
        );
        spec.replicates = 2;
        spec.engines = vec![EnginePoint::paced()];
        spec.engines.extend(serve_load_axis(&[2.0e7], 100));
        spec.engines
            .extend(serve_mix_axis(ArrivalProcess::poisson(1.5e7), 80));
        spec.engines
            .extend(serve_concurrency_axis(&[4], Time::from_nanos(30.0), 60));
        spec.engines[1].serve.as_mut().unwrap().batch =
            Some(BatchConfig::new(Time::from_seconds(1.5e-7), 4));
        // Every payload kind, so the round trip covers the data plane.
        spec.engines
            .extend(payload_entropy_axis(ArrivalProcess::poisson(2.5e7), 40));
        spec
    }

    #[test]
    fn roundtrip_is_byte_exact() {
        let spec = sample_spec();
        let text = spec_to_json(&spec).expect("serializes");
        let back = spec_from_json(&text).expect("parses");
        assert_eq!(spec_to_json(&back).unwrap(), text, "re-emission stable");
        // Semantically identical: both run to the same report.
        assert_eq!(run_campaign(&spec, 2), run_campaign(&back, 2));
    }

    #[test]
    fn fixed_traces_are_rejected() {
        let mut spec = sample_spec();
        spec.workloads
            .push(WorkloadSource::trace("raw", Vec::new()));
        assert!(matches!(
            spec_to_json(&spec),
            Err(SpecError::Unsupported(_))
        ));
    }

    #[test]
    fn invalid_values_are_schema_errors_not_panics() {
        let text = spec_to_json(&sample_spec()).unwrap();
        for (from, to) in [
            // Zero rate would make every arrival land at t = +inf.
            ("\"rate_rps\": 20000000.0", "\"rate_rps\": 0.0"),
            // Negative rate would run arrivals backwards.
            ("\"rate_rps\": 20000000.0", "\"rate_rps\": -1.0"),
            // Zero batch window/writes trip constructor asserts.
            ("\"max_writes\": 4", "\"max_writes\": 0"),
            ("\"window_s\": 1.5e-7", "\"window_s\": 0.0"),
            // Out-of-range profile knobs trip generation asserts.
            ("\"read_fraction\": 0.85", "\"read_fraction\": 1.5"),
            ("\"line_bytes\": 64", "\"line_bytes\": 0"),
            // A locality outside [0, 1] is not a probability.
            (
                "\"kind\": \"random\"",
                "\"kind\": \"clustered\", \"locality\": 1.5",
            ),
            (
                "\"kind\": \"random\"",
                "\"kind\": \"clustered\", \"locality\": -0.1",
            ),
            // A stride that is zero or not a whole number of lines would
            // walk fewer lines than it claims.
            (
                "\"kind\": \"random\"",
                "\"kind\": \"strided\", \"stride\": 0",
            ),
            (
                "\"kind\": \"random\"",
                "\"kind\": \"strided\", \"stride\": 96",
            ),
            // Payload knobs: a zero or >1 flip fraction is meaningless.
            ("\"flip_fraction\": 0.05", "\"flip_fraction\": 0.0"),
            ("\"flip_fraction\": 0.05", "\"flip_fraction\": 1.5"),
            ("\"kind\": \"weights\"", "\"kind\": \"entropy9000\""),
            // A zero FR-FCFS window never issues anything.
            ("\"window\": 8", "\"window\": 0"),
        ] {
            let bad = text.replace(from, to);
            assert_ne!(bad, text, "substitution '{from}' must apply");
            assert!(
                matches!(spec_from_json(&bad), Err(SpecError::Schema(_))),
                "'{to}' must be rejected as a schema error"
            );
        }
        // Zero closed-loop clients would deadlock the service.
        let bad = text.replace("\"clients\": 4", "\"clients\": 0");
        assert_ne!(bad, text);
        assert!(matches!(spec_from_json(&bad), Err(SpecError::Schema(_))));
    }

    #[test]
    fn unknown_devices_and_bad_schema_are_reported() {
        let text = spec_to_json(&sample_spec()).unwrap();
        let renamed = text.replace("\"COMET\"", "\"NVRAM-9000\"");
        assert!(matches!(
            spec_from_json(&renamed),
            Err(SpecError::UnknownDevice(_))
        ));
        assert!(matches!(spec_from_json("{}"), Err(SpecError::Schema(_))));
        assert!(matches!(spec_from_json("nope"), Err(SpecError::Json(_))));
        // Empty axes are invalid.
        let empty = text.replace("\"devices\": [\"2D_DDR3\", \"COMET\"]", "\"devices\": []");
        assert!(matches!(spec_from_json(&empty), Err(SpecError::Schema(_))));
    }
}
