//! Property-based tests for the traffic subsystem.
//!
//! Invariants: arrival processes are deterministic per seed and monotone
//! in time; the multi-tenant mux preserves per-tenant ordering; one
//! simulation partitioned across channel shards produces the identical
//! report for any shard count, and per-channel stats decompose the
//! aggregate exactly; every reported tail is ordered and capped by its
//! max latency; closed loops bound in-flight depth by their client
//! count; the batch stage never loses requests.

use comet_data::{DataPolicy, DataWriteModel, PayloadSpec};
use comet_serve::{
    run_service, ArrivalProcess, BatchConfig, MuxPoll, ServeSpec, SourcePoll, StreamShape,
    TenantMux, TenantSpec,
};
use comet_units::{ByteCount, Time};
use memsim::{AccessPattern, DramConfig, EpcmConfig, EpcmDevice, FnFactory, WorkloadProfile};
use proptest::prelude::*;

fn any_process() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        (6.0f64..10.0).prop_map(|e| ArrivalProcess::deterministic(10f64.powf(e))),
        (6.0f64..10.0).prop_map(|e| ArrivalProcess::poisson(10f64.powf(e))),
        // Burst windows hold at least a few inter-arrival gaps, where the
        // mean-rate formula is meaningful (shorter bursts still emit one
        // arrival each, overshooting rate·on/(on+off) by quantization).
        ((7.0f64..10.0), (5.0f64..100.0), (0.0f64..200.0)).prop_map(|(e, gaps, off)| {
            let rate = 10f64.powf(e);
            ArrivalProcess::bursty(rate, Time::from_seconds(gaps / rate), Time::from_nanos(off))
        }),
    ]
}

/// `0 < p50 <= p95 <= p99 <= max`: a reported tail is ordered and never
/// above the largest latency the run saw.
fn tail_is_ordered(p50: Time, p95: Time, p99: Time, max: Time) -> bool {
    Time::ZERO < p50 && p50 <= p95 && p95 <= p99 && p99 <= max
}

fn any_pattern() -> impl Strategy<Value = AccessPattern> {
    prop_oneof![
        Just(AccessPattern::Stream),
        Just(AccessPattern::Random),
        (64u64..8192).prop_map(|stride| AccessPattern::Strided { stride }),
        (0.0f64..1.0).prop_map(|locality| AccessPattern::Clustered { locality }),
    ]
}

fn profile(name: &str, read_fraction: f64, pattern: AccessPattern) -> WorkloadProfile {
    WorkloadProfile {
        name: name.into(),
        read_fraction,
        footprint: ByteCount::from_mib(4),
        pattern,
        interarrival: Time::from_nanos(1.0),
        requests: 0,
        line_bytes: 64,
    }
}

proptest! {
    // --- arrival processes ---------------------------------------------------

    #[test]
    fn arrivals_are_deterministic_per_seed_and_monotone(
        process in any_process(),
        seed in any::<u64>(),
    ) {
        let mut a = process.clock(seed);
        let mut b = process.clock(seed);
        let mut last = Time::ZERO;
        for _ in 0..200 {
            let ta = a.next_arrival();
            prop_assert_eq!(ta, b.next_arrival(), "same seed, same stream");
            prop_assert!(ta >= last, "arrivals must be non-decreasing");
            last = ta;
        }
        // A different seed changes stochastic streams but never breaks
        // monotonicity.
        let mut c = process.clock(seed.wrapping_add(1));
        let mut last = Time::ZERO;
        for _ in 0..200 {
            let t = c.next_arrival();
            prop_assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn mean_rate_is_respected(process in any_process(), seed in any::<u64>()) {
        let mut clock = process.clock(seed);
        let n = 4000usize;
        let mut end = Time::ZERO;
        for _ in 0..n {
            end = clock.next_arrival();
        }
        let achieved = n as f64 / end.as_seconds();
        let expect = process.mean_rate_rps();
        // Bursty edge effects and Poisson variance stay well within 2x.
        prop_assert!(achieved > expect * 0.5 && achieved < expect * 2.0,
            "achieved {achieved} vs mean {expect}");
    }

    // --- the multi-tenant mux ------------------------------------------------

    #[test]
    fn mux_preserves_per_tenant_ordering(
        rates in proptest::collection::vec(6.5f64..9.5, 2..4),
        seed in any::<u64>(),
    ) {
        // Standalone per-tenant arrival sequences...
        let specs: Vec<TenantSpec> = rates
            .iter()
            .enumerate()
            .map(|(i, &e)| TenantSpec::open(
                format!("t{i}"),
                ArrivalProcess::deterministic(10f64.powf(e)),
                40,
            ))
            .collect();
        let fallback = profile("mux-prop", 0.8, AccessPattern::Random);
        let standalone: Vec<Vec<(Time, u64)>> = specs
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut src = t.instantiate(&fallback, seed, i);
                (0..40)
                    .map(|_| {
                        prop_assert!(matches!(src.poll(), SourcePoll::Ready(_)));
                        let s = src.take();
                        Ok((s.arrival, s.address))
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;

        // ...must reappear, in order, in the mux's interleaving.
        let mut mux = TenantMux::new(
            specs
                .iter()
                .enumerate()
                .map(|(i, t)| t.instantiate(&fallback, seed, i))
                .collect(),
        );
        let mut seen: Vec<Vec<(Time, u64)>> = vec![Vec::new(); specs.len()];
        let mut last = Time::ZERO;
        loop {
            match mux.poll() {
                MuxPoll::Ready { tenant, at } => {
                    prop_assert!(at >= last, "mux emits in global time order");
                    last = at;
                    let s = mux.take(tenant);
                    seen[tenant].push((s.arrival, s.address));
                }
                MuxPoll::Exhausted => break,
                MuxPoll::Blocked => prop_assert!(false, "open-loop mux never blocks"),
            }
        }
        prop_assert_eq!(seen, standalone, "per-tenant streams survive muxing");
    }

    // --- channel sharding ----------------------------------------------------

    #[test]
    fn sharded_totals_equal_channel_sums_for_any_shard_count(
        shards in 1usize..=8,
        pattern in any_pattern(),
        read_fraction in 0.0f64..=1.0,
        clients in 1usize..=8,
    ) {
        let mut cfg = DramConfig::ddr3_1600_2d();
        cfg.name = "DDR3-4ch".into();
        cfg.topology.channels = 4;
        let p = profile("shard-prop", read_fraction, pattern);
        let run = |shards: usize| {
            let spec = ServeSpec::closed_loop(clients, Time::from_nanos(5.0), 160)
                .with_shards(shards);
            run_service(&cfg, &spec, &p, 97, "shard-prop")
        };
        let baseline = run(1);
        let sharded = run(shards);
        prop_assert_eq!(&sharded.stats, &baseline.stats, "shard invariance");
        prop_assert_eq!(&sharded.channels, &baseline.channels);
        // Per-channel stats decompose the aggregate exactly.
        prop_assert_eq!(sharded.channel_total(), sharded.stats.completed);
        let bytes: u64 = sharded.channels.iter().map(|c| c.bytes.value()).sum();
        prop_assert_eq!(bytes, sharded.stats.bytes.value());
        let tenant_total: u64 = sharded.tenants.iter().map(|t| t.completed).sum();
        prop_assert_eq!(tenant_total, sharded.stats.completed);
        let s = &sharded.stats;
        prop_assert!(
            tail_is_ordered(s.p50_latency, s.p95_latency, s.p99_latency, s.max_latency),
            "aggregate tail {:?}",
            s
        );
        for t in &sharded.tenants {
            let [p50, p95, p99] = [50.0, 95.0, 99.0].map(|q| t.percentile(q));
            prop_assert!(
                tail_is_ordered(p50, p95, p99, t.max_latency),
                "tenant {} tail {:?} {:?} {:?} max {:?}",
                t.name,
                p50,
                p95,
                p99,
                t.max_latency
            );
        }
    }

    // --- payload-carrying traffic --------------------------------------------

    #[test]
    fn payload_enabled_runs_are_shard_invariant(
        shards in 1usize..=8,
        payload_index in 0usize..5,
        read_fraction in 0.0f64..=0.9,
    ) {
        // A 4-channel content-aware EPCM: each shard owns disjoint
        // channels, each channel's line store sees exactly its own lines,
        // so the report — including DCW-priced write energy — must be
        // identical for any shard count.
        let payload = PayloadSpec::entropy_sweep()[payload_index];
        let factory = FnFactory::new("EPCM-4ch-DCW", || {
            let mut cfg = EpcmConfig::epcm_mm();
            cfg.name = "EPCM-4ch-DCW".into();
            cfg.topology.channels = 4;
            Box::new(EpcmDevice::with_pricer(
                cfg,
                Box::new(DataWriteModel::gst(4, DataPolicy::Dcw)),
            ))
        });
        let mut p = profile("payload-prop", read_fraction, AccessPattern::Random);
        p.footprint = ByteCount::new(64 * 64); // revisit lines fast
        let run = |shards: usize| {
            let spec = ServeSpec::open_loop(ArrivalProcess::poisson(2.0e8), 200)
                .with_shards(shards);
            let mut spec = spec;
            spec.tenants[0] = spec.tenants[0].clone().with_payload(payload);
            run_service(&factory, &spec, &p, 31, "payload-prop")
        };
        let baseline = run(1);
        let sharded = run(shards);
        prop_assert_eq!(&sharded.stats, &baseline.stats, "{}", payload);
        prop_assert_eq!(&sharded.tenants, &baseline.tenants);
        prop_assert_eq!(&sharded.channels, &baseline.channels);
        prop_assert!(baseline.stats.energy.access > comet_units::Energy::ZERO);
    }

    // --- closed loops and batching -------------------------------------------

    #[test]
    fn closed_loop_depth_is_bounded_by_clients(
        clients in 1usize..=16,
        think_ns in 0.0f64..100.0,
    ) {
        let p = profile("depth-prop", 0.7, AccessPattern::Random);
        let spec = ServeSpec::closed_loop(clients, Time::from_nanos(think_ns), 200);
        let report = run_service(&EpcmConfig::epcm_mm(), &spec, &p, 5, "depth");
        prop_assert_eq!(report.stats.completed, 200);
        prop_assert!(report.depth.max_depth() <= clients as u64,
            "in-flight {} exceeds {clients} clients", report.depth.max_depth());
    }

    #[test]
    fn batching_conserves_requests_for_any_window(
        window_ns in 1.0f64..5000.0,
        max_writes in 1usize..=32,
        read_fraction in 0.0f64..=1.0,
        footprint_lines in 1u64..256,
    ) {
        let mut p = profile("batch-prop", read_fraction, AccessPattern::Random);
        p.footprint = ByteCount::new(footprint_lines * 64);
        let spec = ServeSpec::open_loop(ArrivalProcess::poisson(2.0e8), 300)
            .with_batch(BatchConfig::new(Time::from_nanos(window_ns), max_writes));
        let report = run_service(&EpcmConfig::epcm_mm(), &spec, &p, 13, "batch");
        // Conservation: every admitted request completes exactly once,
        // whether issued, batched or coalesced.
        prop_assert_eq!(report.stats.completed, 300);
        prop_assert_eq!(report.stats.reads + report.stats.writes, 300);
        prop_assert_eq!(report.channel_total(), 300);
        prop_assert!(report.coalesced_writes <= report.batched_writes);
    }

    // --- shapes --------------------------------------------------------------

    #[test]
    fn stream_shapes_stay_in_footprint(
        pattern in any_pattern(),
        seed in any::<u64>(),
    ) {
        let p = profile("shape-prop", 0.6, pattern);
        let mut shape = StreamShape::from_profile(&p, seed);
        let mut replay = StreamShape::from_profile(&p, seed);
        for _ in 0..300 {
            let (op, addr, size) = shape.next_access();
            prop_assert_eq!((op, addr, size), replay.next_access(), "deterministic");
            prop_assert!(addr < p.footprint.value());
            prop_assert_eq!(addr % 64, 0);
        }
    }
}
