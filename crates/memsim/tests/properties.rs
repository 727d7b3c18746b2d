//! Property-based tests for the memory simulator substrate.
//!
//! Invariants: address maps are bijective over their capacity for every
//! interleaving, the engine conserves requests and bytes for arbitrary
//! traces on every device model, and synthetic trace generation respects
//! its profile parameters for any seed.

use comet_units::{ByteCount, Time};
use memsim::{
    read_trace, run_simulation, write_trace, AccessPattern, AddressMap, DramConfig, DramDevice,
    EpcmConfig, EpcmDevice, Interleave, MemOp, MemRequest, MemoryDevice, ReplayMode, Scheduler,
    SimConfig, StreamShape, TraceClock, WorkloadProfile,
};
use proptest::prelude::*;

fn any_interleave() -> impl Strategy<Value = Interleave> {
    prop_oneof![
        Just(Interleave::RowBankColumnChannel),
        Just(Interleave::RowColumnBankChannel),
        Just(Interleave::RowBankColumnChannelXor),
    ]
}

/// Power-of-two dimension strategy.
fn pow2(max_log2: u32) -> impl Strategy<Value = u64> {
    (0..=max_log2).prop_map(|e| 1u64 << e)
}

fn any_pattern() -> impl Strategy<Value = AccessPattern> {
    prop_oneof![
        Just(AccessPattern::Stream),
        (64u64..16384).prop_map(|stride| AccessPattern::Strided { stride }),
        Just(AccessPattern::Random),
        (0.0..1.0f64).prop_map(|locality| AccessPattern::Clustered { locality }),
    ]
}

proptest! {
    // --- address mapping -----------------------------------------------------

    #[test]
    fn address_map_is_bijective(
        channels in pow2(3),
        banks in pow2(4),
        rows in pow2(8),
        columns in pow2(5),
        interleave in any_interleave(),
        seed in any::<u64>(),
    ) {
        let m = AddressMap::new(channels, banks, rows, columns, 64, interleave).unwrap();
        let lines = m.capacity_bytes() / 64;
        // Sample pseudo-random lines rather than sweeping the whole space.
        let mut x = seed | 1;
        for _ in 0..64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = (x % lines) * 64;
            let d = m.decode(addr);
            prop_assert!(d.channel < channels);
            prop_assert!(d.bank < banks);
            prop_assert!(d.row < rows);
            prop_assert!(d.column < columns);
            prop_assert_eq!(m.encode(d), addr);
        }
    }

    #[test]
    fn consecutive_lines_spread_across_channels(
        channels in pow2(3),
        interleave in any_interleave(),
    ) {
        // Any interleaving must touch all channels within one channel-count
        // worth of consecutive lines (XOR folding permutes but still covers).
        let m = AddressMap::new(channels, 8, 256, 32, 64, interleave).unwrap();
        let seen: std::collections::HashSet<u64> =
            (0..channels).map(|i| m.decode(i * 64).channel).collect();
        prop_assert_eq!(seen.len() as u64, channels);
    }

    #[test]
    fn coordinates_roundtrip_through_encode(
        channels in pow2(2),
        banks in pow2(3),
        interleave in any_interleave(),
        seed in any::<u64>(),
    ) {
        // The other direction of bijectivity: encode ∘ decode = id starting
        // from coordinates, for every interleave variant.
        let (rows, columns) = (64u64, 16u64);
        let m = AddressMap::new(channels, banks, rows, columns, 64, interleave).unwrap();
        let mut x = seed | 1;
        for _ in 0..64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let d = memsim::DecodedAddress {
                channel: (x >> 1) % channels,
                bank: (x >> 17) % banks,
                row: (x >> 33) % rows,
                column: (x >> 49) % columns,
            };
            prop_assert_eq!(m.decode(m.encode(d)), d, "{:?}", interleave);
        }
    }

    #[test]
    fn xor_interleave_spreads_pow2_strides(
        channels_log2 in 1u32..=3,
        stride_log2 in 0u32..=10,
        start in 0u64..1024,
    ) {
        // Permutation-based (XOR-folded) channel interleaving must spread
        // *every* power-of-two line stride across all channels — including
        // strides that are multiples of the channel count, which serialize
        // onto one channel under plain modulo interleaving.
        let channels = 1u64 << channels_log2;
        let stride = 1u64 << stride_log2;
        let m = AddressMap::new(channels, 8, 4096, 128, 64, Interleave::RowBankColumnChannelXor)
            .unwrap();
        let lines = m.capacity_bytes() / 64;
        let window = 4 * channels;
        let seen: std::collections::HashSet<u64> = (0..window)
            .map(|k| m.decode(((start + k * stride) % lines) * 64).channel)
            .collect();
        prop_assert_eq!(
            seen.len() as u64,
            channels,
            "stride {} over {} channels touched only {:?}",
            stride,
            channels,
            seen
        );
    }

    // --- trace generation -------------------------------------------------------

    #[test]
    fn traces_respect_profile(
        pattern in any_pattern(),
        read_fraction in 0.0..1.0f64,
        seed in any::<u64>(),
        requests in 1usize..500,
    ) {
        let p = WorkloadProfile {
            name: "prop".into(),
            read_fraction,
            footprint: ByteCount::from_mib(64),
            pattern,
            interarrival: Time::from_nanos(1.0),
            requests,
            line_bytes: 64,
        };
        let trace = p.generate(seed);
        prop_assert_eq!(trace.len(), requests);
        let mut last_arrival = Time::ZERO;
        for r in &trace {
            prop_assert!(r.address < p.footprint.value(), "address in footprint");
            prop_assert_eq!(r.address % 64, 0, "line aligned");
            prop_assert_eq!(r.size.value(), 64);
            prop_assert!(r.arrival >= last_arrival, "arrivals monotone");
            last_arrival = r.arrival;
        }
        // Determinism.
        prop_assert_eq!(&trace, &p.generate(seed));
    }

    #[test]
    fn stream_shapes_stay_in_footprint(
        pattern in any_pattern(),
        lines in 1u64..1024,
        seed in any::<u64>(),
    ) {
        // Footprints of any line count, including ones that end in a
        // partial 8 KiB row.
        let p = WorkloadProfile {
            name: "shape-prop".into(),
            read_fraction: 0.6,
            footprint: ByteCount::new(lines * 64),
            pattern,
            interarrival: Time::from_nanos(1.0),
            requests: 0,
            line_bytes: 64,
        };
        let mut shape = StreamShape::from_profile(&p, seed);
        let mut replay = StreamShape::from_profile(&p, seed);
        for _ in 0..300 {
            let (op, addr, size) = shape.next_access();
            prop_assert_eq!((op, addr, size), replay.next_access(), "deterministic");
            prop_assert!(addr < p.footprint.value());
            prop_assert_eq!(addr % 64, 0);
        }
    }

    // --- engine conservation --------------------------------------------------------

    #[test]
    fn engine_conserves_requests_dram(
        pattern in any_pattern(),
        read_fraction in 0.0..1.0f64,
        seed in any::<u64>(),
        saturation in any::<bool>(),
        frfcfs in any::<bool>(),
    ) {
        let p = WorkloadProfile {
            name: "prop".into(),
            read_fraction,
            footprint: ByteCount::from_mib(32),
            pattern,
            interarrival: Time::from_nanos(5.0),
            requests: 300,
            line_bytes: 64,
        };
        let trace = p.generate(seed);
        let mut dev = DramDevice::new(DramConfig::ddr4_2400_2d());
        let config = SimConfig {
            scheduler: if frfcfs { Scheduler::FrFcfs { window: 8 } } else { Scheduler::Fcfs },
            replay: if saturation { ReplayMode::Saturation } else { ReplayMode::Paced },
            workload: "prop".into(),
        };
        let stats = run_simulation(&mut dev, &trace, &config);
        prop_assert_eq!(stats.completed, 300);
        prop_assert_eq!(stats.reads + stats.writes, 300);
        prop_assert_eq!(stats.bytes.value(), 300 * 64);
        prop_assert!(stats.makespan > Time::ZERO);
        prop_assert!(stats.avg_latency() > Time::ZERO);
        prop_assert!(stats.max_latency >= stats.avg_latency());
        prop_assert!(stats.energy.total().as_joules() > 0.0);
        prop_assert!(Time::ZERO < stats.p50_latency);
        prop_assert!(stats.p50_latency <= stats.p95_latency);
        prop_assert!(stats.p95_latency <= stats.p99_latency);
        prop_assert!(stats.p99_latency <= stats.max_latency);
    }

    #[test]
    fn engine_conserves_requests_epcm(seed in any::<u64>(), read_fraction in 0.0..1.0f64) {
        let p = WorkloadProfile {
            name: "prop".into(),
            read_fraction,
            footprint: ByteCount::from_mib(16),
            pattern: AccessPattern::Random,
            interarrival: Time::from_nanos(2.0),
            requests: 200,
            line_bytes: 64,
        };
        let trace = p.generate(seed);
        let mut dev = EpcmDevice::new(EpcmConfig::epcm_mm());
        let stats = run_simulation(&mut dev, &trace, &SimConfig::paced("prop"));
        prop_assert_eq!(stats.completed, 200);
        prop_assert_eq!(stats.bytes.value(), 200 * 64);
    }

    #[test]
    fn saturation_is_never_slower_than_paced(seed in any::<u64>()) {
        let p = WorkloadProfile {
            name: "prop".into(),
            read_fraction: 0.8,
            footprint: ByteCount::from_mib(16),
            pattern: AccessPattern::Random,
            interarrival: Time::from_nanos(50.0),
            requests: 200,
            line_bytes: 64,
        };
        let trace = p.generate(seed);
        let run = |replay| {
            let mut dev = DramDevice::new(DramConfig::ddr3_1600_2d());
            run_simulation(
                &mut dev,
                &trace,
                &SimConfig {
                    scheduler: Scheduler::default(),
                    replay,
                    workload: "prop".into(),
                },
            )
        };
        let paced = run(ReplayMode::Paced);
        let sat = run(ReplayMode::Saturation);
        prop_assert!(sat.makespan <= paced.makespan);
        prop_assert!(
            sat.bandwidth().as_gigabytes_per_second()
                >= paced.bandwidth().as_gigabytes_per_second() - 1e-9
        );
    }

    #[test]
    fn fr_fcfs_window_only_helps(seed in any::<u64>(), window in 1usize..32) {
        // Larger reorder windows can only reduce (or match) the makespan on
        // a bank-conflict-heavy trace.
        let reqs: Vec<MemRequest> = (0..200u64)
            .map(|i| {
                let row = (seed.wrapping_add(i) % 7) * 1000 + i / 2;
                MemRequest::new(i, Time::ZERO, MemOp::Read, row * 8 * 64, ByteCount::new(64))
            })
            .collect();
        let run = |w| {
            let mut dev = DramDevice::new(DramConfig::ddr3_1600_2d());
            run_simulation(
                &mut dev,
                &reqs,
                &SimConfig {
                    scheduler: Scheduler::FrFcfs { window: w },
                    replay: ReplayMode::Saturation,
                    workload: "prop".into(),
                },
            )
        };
        let narrow = run(1);
        let wide = run(window.max(2));
        prop_assert!(wide.makespan <= narrow.makespan + Time::from_nanos(1.0));
    }

    // --- trace file I/O ---------------------------------------------------------------

    #[test]
    fn trace_io_roundtrips_any_trace(
        pattern in any_pattern(),
        read_fraction in 0.0..1.0f64,
        seed in any::<u64>(),
    ) {
        let p = WorkloadProfile {
            name: "io".into(),
            read_fraction,
            footprint: ByteCount::from_mib(64),
            pattern,
            interarrival: Time::from_nanos(10.0),
            requests: 100,
            line_bytes: 64,
        };
        let clock = TraceClock::two_ghz();
        let original = p.generate(seed);
        let mut text = Vec::new();
        write_trace(&mut text, &original, clock).expect("in-memory write");
        let back = read_trace(text.as_slice(), clock, 64).expect("own output parses");
        prop_assert_eq!(back.len(), original.len());
        for (a, b) in original.iter().zip(&back) {
            prop_assert_eq!(a.op, b.op);
            prop_assert_eq!(a.address, b.address);
            prop_assert_eq!(a.size, b.size);
            // Arrivals survive up to cycle quantization.
            let dt = (a.arrival.as_nanos() - b.arrival.as_nanos()).abs();
            prop_assert!(dt <= clock.period.as_nanos() + 1e-9);
        }
    }

    #[test]
    fn trace_io_is_byte_stable_after_first_quantization(
        pattern in any_pattern(),
        read_fraction in 0.0..1.0f64,
        seed in any::<u64>(),
    ) {
        // After one write→read (which quantizes arrivals to cycles), any
        // further write→read cycle must be a fixed point: identical bytes
        // and identical requests.
        let p = WorkloadProfile {
            name: "io-stable".into(),
            read_fraction,
            footprint: ByteCount::from_mib(64),
            pattern,
            interarrival: Time::from_nanos(10.0),
            requests: 100,
            line_bytes: 64,
        };
        let clock = TraceClock::two_ghz();
        let mut text1 = Vec::new();
        write_trace(&mut text1, &p.generate(seed), clock).expect("write 1");
        let reqs1 = read_trace(text1.as_slice(), clock, 64).expect("read 1");
        let mut text2 = Vec::new();
        write_trace(&mut text2, &reqs1, clock).expect("write 2");
        prop_assert_eq!(&text2, &text1, "trace bytes changed across a round trip");
        let reqs2 = read_trace(text2.as_slice(), clock, 64).expect("read 2");
        prop_assert_eq!(reqs2, reqs1);
    }

    // --- device sanity ----------------------------------------------------------------

    #[test]
    fn dram_access_timing_is_causal(
        row in 0u64..1024,
        col in 0u64..64,
        issue_ns in 0.0..100_000.0f64,
        write in any::<bool>(),
    ) {
        let mut dev = DramDevice::new(DramConfig::ddr4_2400_2d());
        let loc = memsim::DecodedAddress { channel: 0, bank: 0, row, column: col };
        let op = if write { MemOp::Write } else { MemOp::Read };
        let issue = Time::from_nanos(issue_ns);
        let avail = dev.bank_available(&loc, issue);
        prop_assert!(avail >= issue, "availability never travels back in time");
        let t = dev.access(&loc, op, avail);
        prop_assert!(t.data_ready_at >= avail);
        prop_assert!(t.bank_free_at >= avail);
        prop_assert!(t.bus_occupancy > Time::ZERO);
        prop_assert!(t.energy.as_joules() > 0.0);
    }
}
