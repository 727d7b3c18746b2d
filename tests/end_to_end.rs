//! End-to-end integration tests spanning the whole stack: device physics →
//! photonic circuit → architecture → trace-driven simulation.

use comet::{CometConfig, CometDevice, CometMemory, CometPowerModel, CometTiming, LevelCodec};
use comet_units::{ByteCount, Decibels, Time};
use memsim::{run_simulation, MemOp, MemRequest, MemoryDevice, SimConfig};
use opcm_phys::{CellThermalModel, ProgramMode, ProgramTable};

/// Physics → architecture: a programming table generated from the thermal
/// model drives a functional memory through its codec, and the derived
/// timing stays within the same decade as Table II.
#[test]
fn physics_layer_feeds_architecture_layer() {
    let model = CellThermalModel::comet_gst();
    let table =
        ProgramTable::generate(&model, ProgramMode::AmorphousReset, 4).expect("table generates");

    // Architectural timing derived from the physics.
    let timing = CometTiming::from_program_table(&table);
    assert!(
        timing.max_write_time.as_nanos() < 500.0,
        "derived write budget {} should be in Table II's decade",
        timing.max_write_time
    );

    // Functional memory running on the physics-derived codec.
    let mut config = CometConfig::comet_4b();
    config.timing = timing;
    let mut memory = CometMemory::with_codec(config, LevelCodec::from_table(&table));
    let data: Vec<u8> = (0..4096).map(|i| (i * 37 % 251) as u8).collect();
    memory.write(0x1_0000, &data);
    assert_eq!(memory.read(0x1_0000, data.len()), data);
}

/// The full data path survives every row position (every LUT gain bucket)
/// in a subarray.
#[test]
fn data_integrity_across_all_lut_buckets() {
    let mut memory = CometMemory::new(CometConfig::comet_4b());
    let line: Vec<u8> = (0..128).map(|i| (255 - i) as u8).collect();
    // Lines spaced to walk rows 0..=52 of a subarray (one per stripe
    // period), covering the full 46-row SOA period and beyond.
    for k in 0..52u64 {
        memory.write_line(k * 128 * 4 * 8, &line); // banks=4, stripe=8
    }
    for k in 0..52u64 {
        assert_eq!(memory.read_line(k * 128 * 4 * 8), line, "row bucket {k}");
    }
}

/// Fault injection: the margin boundary sits where the level budget says.
#[test]
fn loss_margin_boundary_matches_level_budget() {
    let mut memory = CometMemory::new(CometConfig::comet_4b());
    let line: Vec<u8> = (0..128).collect();
    memory.write_line(0, &line);

    // Half a 6% level spacing is ~0.13 dB; well inside: fine.
    memory.inject_read_loss(Decibels::new(0.05));
    assert_eq!(memory.read_line(0), line);

    // Far beyond: corrupted.
    memory.inject_read_loss(Decibels::new(3.0));
    assert_ne!(memory.read_line(0), line);
}

/// The timing device and the functional memory agree on capacity.
#[test]
fn device_and_memory_agree_on_geometry() {
    let config = CometConfig::comet_4b();
    let device = CometDevice::new(config.clone());
    assert_eq!(
        device.topology().capacity().value() * 8,
        config.capacity_bits().value()
    );
    assert_eq!(device.topology().line_bytes, config.timing.access_bytes());
}

/// Trace-driven run end-to-end: requests complete, bytes balance, energy
/// components are all populated.
#[test]
fn trace_run_accounting_balances() {
    let mut device = CometDevice::new(CometConfig::comet_4b());
    let n = 5000u64;
    let trace: Vec<MemRequest> = (0..n)
        .map(|i| {
            let op = if i % 7 == 0 {
                MemOp::Write
            } else {
                MemOp::Read
            };
            MemRequest::new(
                i,
                Time::from_nanos(i as f64),
                op,
                i.wrapping_mul(0x2545_F491_4F6C_DD1D) % (1 << 30),
                ByteCount::new(128),
            )
        })
        .collect();
    let stats = run_simulation(&mut device, &trace, &SimConfig::paced("e2e"));
    assert_eq!(stats.completed, n);
    assert_eq!(stats.reads + stats.writes, n);
    assert_eq!(stats.bytes.value(), n * 128);
    assert!(stats.energy.access.as_joules() > 0.0);
    assert!(stats.energy.background.as_joules() > 0.0);
    assert!(stats.makespan >= stats.avg_latency());
    // Background dominates (the paper's photonic EPB story).
    assert!(stats.energy.background > stats.energy.access);
}

/// The power stack is consistent between the model and the device.
#[test]
fn device_background_is_the_power_stack() {
    let config = CometConfig::comet_4b();
    let stack = CometPowerModel::new(config.clone()).stack();
    let device = CometDevice::new(config);
    assert!((device.background_power().as_watts() - stack.total().as_watts()).abs() < 1e-9);
}

/// Latency composition: unloaded reads observe switch-free tune + read +
/// burst + interface.
#[test]
fn unloaded_read_latency_observed_in_simulation() {
    let mut device = CometDevice::new(CometConfig::comet_4b());
    // Two reads to the same subarray, far apart in time: the second is
    // unloaded and switch-free.
    let trace = vec![
        MemRequest::new(0, Time::ZERO, MemOp::Read, 0, ByteCount::new(128)),
        MemRequest::new(
            1,
            Time::from_micros(10.0),
            MemOp::Read,
            128 * 4 * 8, // same subarray (next row within the stripe)
            ByteCount::new(128),
        ),
    ];
    let stats = run_simulation(&mut device, &trace, &SimConfig::paced("lat"));
    // Max latency belongs to the first (cold switch) access; both
    // latencies stay under 350 ns.
    assert!(stats.max_latency.as_nanos() <= 350.0);
    assert!(stats.avg_latency().as_nanos() >= 121.0);
}
