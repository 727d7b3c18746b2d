//! The event-driven, channel-sharded service core.
//!
//! Where `memsim::run_simulation` replays a pre-materialized trace,
//! [`run_service`] runs a *service*: sources generate requests online
//! (closed-loop ones react to completions), a write-coalescing batch stage
//! sits in front of the per-bank command queues of the same
//! [`memsim::Controller`] replay uses, and one logical device is
//! partitioned across several backend instances by channel.
//!
//! # Event order and determinism
//!
//! The core is a single discrete-event loop. At every step it knows four
//! candidate times — the next completion, the next batch release, the next
//! arrival, and the earliest possible command issue — and processes the
//! smallest; ties resolve in that fixed priority order. Every decision is a
//! function of the spec, the seed and the event history, so a run is
//! deterministic.
//!
//! # Channel sharding
//!
//! `shards` backend instances are built from the same factory and the
//! logical device's channels are partitioned across them (`channel mod
//! shards`). Each instance only ever sees accesses for the channels it
//! owns. Because every provided [`memsim::MemoryDevice`] keeps its mutable
//! state per `(channel, bank)` (open rows, refresh deadlines, subarray
//! reservations), the partitioned instances evolve exactly as the
//! corresponding slices of one monolithic instance would — so the report
//! is **identical for any shard count**, which is what makes sharding a
//! deployment knob rather than a model change. Background power is counted
//! once (the instances are partitions of one device, not replicas);
//! accumulated energy (e.g. DRAM refresh) is drained from every shard and
//! summed, which never double-counts because each bank lives in exactly
//! one shard.

use crate::batch::{BatchConfig, WriteBatcher};
use crate::source::{MuxPoll, RequestSource, TenantMux, TenantSpec};
use crate::stats::{ChannelStats, DepthSeries, ServeReport, TenantStats};
use comet_units::{ByteCount, Energy, Time};
use memsim::{
    CompletedRequest, Controller, DeviceFactory, Issued, LatencyHistogram, LineData, MemOp,
    MemRequest, MemoryDevice, Pending, Scheduler, SimStats, WorkloadProfile,
};
use std::collections::BTreeMap;

/// An admitted request, not yet completed. Its bank location and earliest
/// issue time travel beside it in the controller's [`Pending`] entry.
#[derive(Debug, Clone)]
pub(crate) struct Queued {
    pub(crate) id: u64,
    pub(crate) tenant: usize,
    pub(crate) op: MemOp,
    pub(crate) address: u64,
    pub(crate) size: ByteCount,
    /// Original arrival (latency is measured from here).
    pub(crate) arrival: Time,
    /// The written line content (the *newest* store's data when same-line
    /// writes coalesce — only the last store's bytes reach the array).
    pub(crate) payload: Option<LineData>,
    /// Same-line writes coalesced into this one: `(id, tenant, arrival)`.
    pub(crate) absorbed: Vec<(u64, usize, Time)>,
}

/// A declarative service scenario: tenant mix, scheduling, sharding and
/// batching — everything a campaign engine point needs to run one cell
/// through the service core.
///
/// # Examples
///
/// ```
/// use comet_serve::{run_service, ArrivalProcess, ServeSpec};
/// use memsim::{spec_like_suite, EpcmConfig};
///
/// let profile = &spec_like_suite(300)[0];
/// let spec = ServeSpec::open_loop(ArrivalProcess::deterministic(5.0e6), 300);
/// let report = run_service(&EpcmConfig::epcm_mm(), &spec, profile, 42, &profile.name);
/// assert_eq!(report.stats.completed, 300);
/// assert!(report.stats.p99_latency >= report.stats.p50_latency);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// The tenant mix (at least one).
    pub tenants: Vec<TenantSpec>,
    /// Command scheduling policy for the per-bank queues.
    pub scheduler: Scheduler,
    /// Backend instances to partition the device's channels across
    /// (clamped to `1..=channels`; the report is identical for any value).
    pub shards: usize,
    /// Write-coalescing batch stage; `None` sends writes straight to the
    /// queues.
    pub batch: Option<BatchConfig>,
}

impl ServeSpec {
    /// A single open-loop tenant (named `"open"`) shaped by the cell's
    /// workload profile.
    pub fn open_loop(process: crate::ArrivalProcess, requests: usize) -> Self {
        ServeSpec {
            tenants: vec![TenantSpec::open("open", process, requests)],
            scheduler: Scheduler::default(),
            shards: 1,
            batch: None,
        }
    }

    /// A single closed-loop tenant (named `"closed"`) shaped by the cell's
    /// workload profile.
    pub fn closed_loop(clients: usize, think: Time, requests: usize) -> Self {
        ServeSpec {
            tenants: vec![TenantSpec::closed("closed", clients, think, requests)],
            scheduler: Scheduler::default(),
            shards: 1,
            batch: None,
        }
    }

    /// Adds a tenant to the mix.
    pub fn with_tenant(mut self, tenant: TenantSpec) -> Self {
        self.tenants.push(tenant);
        self
    }

    /// Sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Enables the write-coalescing batch stage.
    pub fn with_batch(mut self, batch: BatchConfig) -> Self {
        self.batch = Some(batch);
        self
    }

    /// Total request budget across tenants.
    pub fn total_requests(&self) -> usize {
        self.tenants.iter().map(|t| t.requests).sum()
    }
}

/// Runs the scenario against devices built from `factory`, shaping
/// profile-less tenants with `fallback`, and labels the aggregate stats
/// with `workload_label`.
pub fn run_service(
    factory: &dyn DeviceFactory,
    spec: &ServeSpec,
    fallback: &WorkloadProfile,
    seed: u64,
    workload_label: &str,
) -> ServeReport {
    assert!(!spec.tenants.is_empty(), "serve spec needs tenants");
    let sources = spec
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| t.instantiate(fallback, seed, i))
        .collect();
    run_service_with_sources(factory, sources, spec, workload_label)
}

/// [`run_service`] with pre-built sources (library callers that implement
/// their own [`RequestSource`]).
pub fn run_service_with_sources(
    factory: &dyn DeviceFactory,
    sources: Vec<Box<dyn RequestSource>>,
    spec: &ServeSpec,
    workload_label: &str,
) -> ServeReport {
    let shard0 = factory.build();
    let topo = shard0.topology();
    let background = shard0.background_power();
    let device_name = shard0.name();
    let mut ctrl = Controller::new(shard0.as_ref(), spec.scheduler);

    let shard_count = spec.shards.clamp(1, topo.channels as usize);
    let mut shards: Vec<Box<dyn MemoryDevice>> = vec![shard0];
    shards.extend((1..shard_count).map(|_| factory.build()));
    let mut devices: Vec<&mut dyn MemoryDevice> =
        shards.iter_mut().map(|s| &mut **s as _).collect();

    let mut mux = TenantMux::new(sources);
    let mut tenants: Vec<TenantStats> = mux.names().into_iter().map(TenantStats::new).collect();
    let mut channels: Vec<ChannelStats> = (0..topo.channels).map(ChannelStats::new).collect();
    let mut stats = SimStats::new(device_name, workload_label);
    let mut latencies = LatencyHistogram::new();
    let mut depth = DepthSeries::new(512);
    // Issued requests keyed by (finished, issue sequence): the sequence
    // number is the deterministic tie-break, and non-negative f64 bit
    // patterns order like their values.
    let mut completions: BTreeMap<(u64, u64), Issued<Queued>> = BTreeMap::new();
    let mut batcher = spec.batch.map(WriteBatcher::new);

    let mut next_id: u64 = 0;
    let mut comp_seq: u64 = 0;
    let mut in_system: u64 = 0;
    let mut batched_writes: u64 = 0;

    loop {
        let t_complete = completions.first_key_value().map(|(_, c)| c.finished);
        let t_release = batcher.as_ref().and_then(WriteBatcher::next_release);
        let poll = mux.poll();
        let t_arrival = match poll {
            MuxPoll::Ready { at, .. } => Some(at),
            _ => None,
        };
        let issue = ctrl.next_issue(&mut devices);
        let t_issue = issue.map(|slot| slot.at);

        // Pick the earliest candidate; iteration order is the tie-break
        // priority (completion, release, arrival, issue).
        let mut chosen: Option<(Time, u8)> = None;
        for (i, t) in [t_complete, t_release, t_arrival, t_issue]
            .into_iter()
            .enumerate()
        {
            if let Some(t) = t {
                if chosen.map_or(true, |(best, _)| t < best) {
                    chosen = Some((t, i as u8));
                }
            }
        }

        match chosen {
            None => {
                match poll {
                    MuxPoll::Exhausted => break,
                    // Unreachable: Blocked implies an outstanding request,
                    // whose completion event is pending.
                    other => unreachable!("service stalled with mux state {other:?}"),
                }
            }
            Some((now, 0)) => {
                // Completion.
                let (
                    _,
                    Issued {
                        entry,
                        at: issued,
                        finished,
                        ..
                    },
                ) = completions.pop_first().expect("peeked");
                debug_assert_eq!(finished, now);
                let (ch, q) = (entry.loc.channel as usize, &entry.item);
                let mut complete_one = |id: u64, tenant: usize, arrival: Time| {
                    let done = CompletedRequest {
                        request: MemRequest::new(id, arrival, q.op, q.address, q.size),
                        issued,
                        finished,
                    };
                    stats.record(&done);
                    let lat = done.latency();
                    latencies.record(lat);
                    tenants[tenant].record(q.op, q.size, lat);
                    channels[ch].completed += 1;
                    channels[ch].bytes += q.size;
                    mux.on_complete(tenant, finished);
                    in_system -= 1;
                };
                complete_one(q.id, q.tenant, q.arrival);
                for &(id, tenant, arrival) in &q.absorbed {
                    complete_one(id, tenant, arrival);
                }
                depth.record(finished, in_system);
            }
            Some((now, 1)) => {
                // Batch release: held writes become issuable at `now`.
                let released = batcher
                    .as_mut()
                    .expect("release candidate implies a batcher")
                    .release_due(now);
                for mut w in released {
                    w.ready = now;
                    ctrl.enqueue(w);
                }
            }
            Some((now, 2)) => {
                // Arrival.
                let tenant = match poll {
                    MuxPoll::Ready { tenant, .. } => tenant,
                    _ => unreachable!("arrival candidate implies Ready"),
                };
                let s = mux.take(tenant);
                debug_assert_eq!(s.arrival, now);
                let q = Pending {
                    loc: ctrl.decode(s.address),
                    ready: s.arrival,
                    item: Queued {
                        id: next_id,
                        tenant,
                        op: s.op,
                        address: s.address,
                        size: s.size,
                        arrival: s.arrival,
                        payload: s.payload,
                        absorbed: Vec::new(),
                    },
                };
                next_id += 1;
                in_system += 1;
                depth.record(now, in_system);
                match (&mut batcher, s.op) {
                    (Some(b), MemOp::Write) => {
                        batched_writes += 1;
                        for mut w in b.admit(q, now) {
                            w.ready = now;
                            ctrl.enqueue(w);
                        }
                    }
                    (Some(b), MemOp::Read) => {
                        // Store→load ordering: held writes to this row go
                        // ahead of the read.
                        for mut w in b.flush_row(q.loc.channel, q.loc.bank, q.loc.row) {
                            w.ready = now;
                            ctrl.enqueue(w);
                        }
                        ctrl.enqueue(q);
                    }
                    (None, _) => ctrl.enqueue(q),
                }
            }
            Some(_) => {
                // Issue.
                let slot = issue.expect("issue candidate present");
                let done = ctrl.issue(slot, &mut devices, |q| (q.op, q.payload.as_ref()));
                stats.energy.access += done.timing.energy;
                channels[done.entry.loc.channel as usize].busy += done.timing.bus_occupancy;
                completions.insert((done.finished.as_seconds().to_bits(), comp_seq), done);
                comp_seq += 1;
            }
        }
    }

    debug_assert_eq!(in_system, 0, "all admitted requests completed");
    debug_assert!(batcher
        .as_ref()
        .map_or(true, |b| b.is_empty() && b.held() == 0));

    // Drained (refresh / managed) energy accrues in per-shard accumulators,
    // and f64 addition is not associative — summing K partial sums can land
    // one ULP away from the monolithic accumulator. Quantizing each shard's
    // drain to integer femtojoules (~10⁻⁶ of a single DRAM refresh op, far
    // below model fidelity) makes the total independent of how banks were
    // partitioned, which the shard-invariance guarantee requires exactly.
    let mut drained_fj: f64 = 0.0;
    for shard in &mut shards {
        drained_fj += (shard.drain_accumulated_energy().as_joules() * 1e15).round();
    }
    stats.energy.refresh = Energy::from_joules(drained_fj * 1e-15);
    // The shard instances partition one device, so its background power
    // burns once, not per shard.
    stats.finalize_background(background);
    stats.finalize_percentiles(&latencies);

    ServeReport {
        stats,
        tenants,
        channels,
        depth,
        batched_writes,
        coalesced_writes: batcher.as_ref().map_or(0, WriteBatcher::coalesced),
        shards: shard_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalProcess;
    use memsim::{AccessPattern, DramConfig, EpcmConfig};

    fn profile(name: &str, read_fraction: f64) -> WorkloadProfile {
        WorkloadProfile {
            name: name.into(),
            read_fraction,
            footprint: ByteCount::from_mib(8),
            pattern: AccessPattern::Random,
            interarrival: Time::from_nanos(2.0),
            requests: 0,
            line_bytes: 64,
        }
    }

    #[test]
    fn open_loop_completes_budget_deterministically() {
        let p = profile("open-test", 0.8);
        let spec = ServeSpec::open_loop(ArrivalProcess::poisson(5.0e6), 500);
        let run = || run_service(&EpcmConfig::epcm_mm(), &spec, &p, 42, "open-test");
        let a = run();
        let b = run();
        assert_eq!(a, b, "service runs are deterministic");
        assert_eq!(a.stats.completed, 500);
        assert_eq!(a.stats.completed, a.stats.reads + a.stats.writes);
        assert_eq!(a.channel_total(), 500);
        assert!(a.stats.p50_latency > Time::ZERO);
        assert!(a.stats.p99_latency >= a.stats.p95_latency);
        assert!(a.stats.p95_latency >= a.stats.p50_latency);
        assert_eq!(a.tenants.len(), 1);
        assert_eq!(a.tenants[0].completed, 500);
        assert_eq!(a.depth.events(), 1000, "one sample per arrival+completion");
    }

    #[test]
    fn closed_loop_self_limits_below_open_loop_overload() {
        let p = profile("closed-test", 0.7);
        // Open loop far past EPCM's service rate: latency explodes.
        let open = ServeSpec::open_loop(ArrivalProcess::deterministic(5.0e8), 800);
        let oa = run_service(&EpcmConfig::epcm_mm(), &open, &p, 1, "w");
        // Closed loop with 4 clients: queueing bounded by concurrency.
        let closed = ServeSpec::closed_loop(4, Time::ZERO, 800);
        let ca = run_service(&EpcmConfig::epcm_mm(), &closed, &p, 1, "w");
        assert!(
            ca.stats.p99_latency < oa.stats.p99_latency,
            "closed {} vs open {}",
            ca.stats.p99_latency,
            oa.stats.p99_latency
        );
        // Closed-loop in-flight never exceeds the client count.
        assert!(ca.depth.max_depth() <= 4);
    }

    #[test]
    fn multi_tenant_mix_accounts_per_tenant() {
        let p = profile("mix", 0.9);
        let spec = ServeSpec::open_loop(ArrivalProcess::deterministic(2.0e6), 300).with_tenant(
            TenantSpec::closed("batch-tenant", 2, Time::from_nanos(100.0), 200),
        );
        let report = run_service(&EpcmConfig::epcm_mm(), &spec, &p, 9, "mix");
        assert_eq!(report.stats.completed, 500);
        assert_eq!(report.tenants.len(), 2);
        assert_eq!(report.tenants[0].name, "open");
        assert_eq!(report.tenants[0].completed, 300);
        assert_eq!(report.tenants[1].name, "batch-tenant");
        assert_eq!(report.tenants[1].completed, 200);
        let tenant_total: u64 = report.tenants.iter().map(|t| t.completed).sum();
        assert_eq!(tenant_total, report.stats.completed);
    }

    #[test]
    fn write_batching_coalesces_same_line_writes() {
        // A tiny footprint forces address collisions within the window.
        let mut p = profile("hot-writes", 0.0);
        p.footprint = ByteCount::new(16 * 64);
        let base = ServeSpec::open_loop(ArrivalProcess::deterministic(2.0e8), 600);
        let batched = base
            .clone()
            .with_batch(BatchConfig::new(Time::from_nanos(200.0), 16));
        let plain = run_service(&EpcmConfig::epcm_mm(), &base, &p, 3, "w");
        let coal = run_service(&EpcmConfig::epcm_mm(), &batched, &p, 3, "w");
        // Every request still completes.
        assert_eq!(plain.stats.completed, 600);
        assert_eq!(coal.stats.completed, 600);
        assert_eq!(coal.batched_writes, 600);
        assert!(coal.coalesced_writes > 0, "hot lines must coalesce");
        // Coalesced runs do less array work: lower access energy.
        assert!(coal.stats.energy.access < plain.stats.energy.access);
    }

    #[test]
    fn read_flush_preserves_store_load_order_in_queue() {
        // Directly exercise the batcher path: a write then a read to the
        // same line; the read must not leave its row's write held.
        let mut p = profile("raw", 0.5);
        p.footprint = ByteCount::new(64); // a single line: every access collides
        let spec = ServeSpec::open_loop(ArrivalProcess::deterministic(1.0e7), 100)
            .with_batch(BatchConfig::new(Time::from_micros(10.0), 64));
        let report = run_service(&EpcmConfig::epcm_mm(), &spec, &p, 5, "raw");
        // All requests complete even though the window (10 us) is far
        // longer than the run would otherwise take — reads force flushes.
        assert_eq!(report.stats.completed, 100);
    }

    #[test]
    fn shard_count_does_not_change_the_report() {
        // A 4-channel DRAM variant exercises real partitioning.
        let mut cfg = DramConfig::ddr3_1600_2d();
        cfg.name = "DDR3-4ch".into();
        cfg.topology.channels = 4;
        let p = profile("shard-test", 0.7);
        let mk = |shards: usize| {
            let spec = ServeSpec::closed_loop(8, Time::from_nanos(10.0), 600).with_shards(shards);
            run_service(&cfg, &spec, &p, 11, "shard-test")
        };
        let one = mk(1);
        for shards in [2, 3, 4, 16] {
            let sharded = mk(shards);
            assert_eq!(sharded.stats, one.stats, "shards={shards}");
            assert_eq!(sharded.tenants, one.tenants, "shards={shards}");
            assert_eq!(sharded.channels, one.channels, "shards={shards}");
            assert_eq!(sharded.shards, shards.min(4));
        }
        // Channel totals decompose the aggregate.
        assert_eq!(one.channel_total(), one.stats.completed);
        let bytes: u64 = one.channels.iter().map(|c| c.bytes.value()).sum();
        assert_eq!(bytes, one.stats.bytes.value());
    }
}
