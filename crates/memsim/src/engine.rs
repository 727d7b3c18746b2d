//! The trace-replay simulation engine.
//!
//! Plays a request stream against a [`MemoryDevice`] through the memory
//! [`Controller`]: per-bank queues, FCFS or FR-FCFS scheduling and
//! per-channel data-bus contention, the pipeline the paper's modified
//! NVMain 2.0 provides. Produces [`SimStats`] (latency, bandwidth, EPB).

use crate::controller::{Controller, Scheduler};
use crate::device::MemoryDevice;
use crate::request::{CompletedRequest, MemRequest};
use crate::stats::{LatencyHistogram, SimStats};
use comet_units::Time;

/// How arrival timestamps are honoured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayMode {
    /// Respect trace arrival times (requests queue if the device is slow).
    #[default]
    Paced,
    /// Ignore arrival times: issue as fast as the device allows. Measures
    /// sustainable throughput.
    Saturation,
}

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Scheduling policy.
    pub scheduler: Scheduler,
    /// Arrival pacing.
    pub replay: ReplayMode,
    /// Label recorded in the stats.
    pub workload: String,
}

impl SimConfig {
    /// Paced FR-FCFS with a workload label.
    pub fn paced(workload: impl Into<String>) -> Self {
        SimConfig {
            scheduler: Scheduler::default(),
            replay: ReplayMode::Paced,
            workload: workload.into(),
        }
    }

    /// Saturation FR-FCFS with a workload label.
    pub fn saturation(workload: impl Into<String>) -> Self {
        SimConfig {
            scheduler: Scheduler::default(),
            replay: ReplayMode::Saturation,
            workload: workload.into(),
        }
    }
}

/// Runs `requests` against `device` and returns aggregate statistics.
///
/// Requests are queued per (channel, bank); at every step the bank that can
/// issue earliest fires. Data transfers contend on each channel's bus;
/// reads additionally pay the device's interface delay before the requester
/// sees the data.
///
/// # Examples
///
/// ```
/// use comet_units::{ByteCount, Time};
/// use memsim::{run_simulation, DramConfig, DramDevice, MemOp, MemRequest, SimConfig};
///
/// let mut dev = DramDevice::new(DramConfig::ddr3_1600_2d());
/// let reqs: Vec<MemRequest> = (0..100)
///     .map(|i| MemRequest::new(i, Time::ZERO, MemOp::Read, i * 64, ByteCount::new(64)))
///     .collect();
/// let stats = run_simulation(&mut dev, &reqs, &SimConfig::saturation("stream"));
/// assert_eq!(stats.completed, 100);
/// assert!(stats.bandwidth().as_gigabytes_per_second() > 0.1);
/// ```
pub fn run_simulation(
    device: &mut dyn MemoryDevice,
    requests: &[MemRequest],
    config: &SimConfig,
) -> SimStats {
    let mut ctrl = Controller::new(device, config.scheduler);
    ctrl.enqueue_all(requests.iter().map(|r| {
        let ready = match config.replay {
            ReplayMode::Paced => r.arrival,
            ReplayMode::Saturation => Time::ZERO,
        };
        (r.address, ready, r)
    }));

    let mut stats = SimStats::new(device.name(), config.workload.clone());
    let mut latencies = LatencyHistogram::new();
    let mut devices = [device];
    while let Some(slot) = ctrl.next_issue(&mut devices) {
        let done = ctrl.issue(slot, &mut devices, |r| (r.op, r.payload.as_ref()));
        let completed = CompletedRequest {
            request: MemRequest {
                arrival: done.entry.ready,
                ..*done.entry.item
            },
            issued: done.at,
            finished: done.finished,
        };
        stats.record(&completed);
        latencies.record(completed.latency());
        stats.energy.access += done.timing.energy;
    }

    let [device] = devices;
    stats.energy.refresh = device.drain_accumulated_energy();
    stats.finalize_background(device.background_power());
    stats.finalize_percentiles(&latencies);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::{DramConfig, DramDevice};
    use crate::pcm::{EpcmConfig, EpcmDevice};
    use crate::request::MemOp;
    use comet_units::ByteCount;

    fn stream(n: u64, stride: u64, op: MemOp) -> Vec<MemRequest> {
        (0..n)
            .map(|i| MemRequest::new(i, Time::ZERO, op, i * stride, ByteCount::new(64)))
            .collect()
    }

    fn paced_stream(n: u64, interval_ns: f64) -> Vec<MemRequest> {
        (0..n)
            .map(|i| {
                MemRequest::new(
                    i,
                    Time::from_nanos(i as f64 * interval_ns),
                    MemOp::Read,
                    i * 64,
                    ByteCount::new(64),
                )
            })
            .collect()
    }

    #[test]
    fn all_requests_complete() {
        let mut dev = DramDevice::new(DramConfig::ddr3_1600_2d());
        let reqs = stream(500, 64, MemOp::Read);
        let s = run_simulation(&mut dev, &reqs, &SimConfig::saturation("t"));
        assert_eq!(s.completed, 500);
        assert_eq!(s.bytes.value(), 500 * 64);
        assert!(s.makespan > Time::ZERO);
    }

    #[test]
    fn sequential_stream_saturates_near_bus_limit() {
        // x8 DDR3-1600 bus moves 64 B in 40 ns => 1.6 GB/s peak.
        let mut dev = DramDevice::new(DramConfig::ddr3_1600_2d());
        let reqs = stream(2000, 64, MemOp::Read);
        let s = run_simulation(&mut dev, &reqs, &SimConfig::saturation("stream"));
        let bw = s.bandwidth().as_gigabytes_per_second();
        assert!((1.0..=1.6).contains(&bw), "stream BW {bw} GB/s");
    }

    #[test]
    fn row_thrashing_is_slower_than_row_streaming_on_one_bank() {
        // Pin all traffic to bank 0 so row behaviour (not bank/bus
        // parallelism) decides throughput. Row-major layout: line =
        // (row*banks + bank)*columns + column.
        let cfg = DramConfig::ddr3_1600_2d();
        let banks = cfg.topology.banks;
        let cols = cfg.topology.columns;
        let line_of = |row: u64, col: u64| ((row * banks) * cols + col) * 64;
        let mut hits = Vec::new();
        let mut misses = Vec::new();
        for i in 0..800u64 {
            // Hits: sweep columns within each row before moving on.
            hits.push(MemRequest::new(
                i,
                Time::ZERO,
                MemOp::Read,
                line_of(i / cols, i % cols),
                ByteCount::new(64),
            ));
            // Misses: alternate rows every access.
            misses.push(MemRequest::new(
                i,
                Time::ZERO,
                MemOp::Read,
                line_of(i % 2 * 1000 + i / 2, 0),
                ByteCount::new(64),
            ));
        }
        let mk = || DramDevice::new(DramConfig::ddr3_1600_2d());
        let s1 = run_simulation(&mut mk(), &hits, &SimConfig::saturation("hits"));
        let s2 = run_simulation(&mut mk(), &misses, &SimConfig::saturation("misses"));
        assert!(
            s1.bandwidth().as_gigabytes_per_second() > s2.bandwidth().as_gigabytes_per_second(),
            "hits {} vs misses {}",
            s1.bandwidth(),
            s2.bandwidth()
        );
        // Thrashing also burns activation energy.
        assert!(s2.energy.access > s1.energy.access);
    }

    #[test]
    fn frfcfs_beats_fcfs_on_mixed_locality() {
        // Interleave two streams to the same bank, different rows: FR-FCFS
        // reorders to batch row hits.
        let mut reqs = Vec::new();
        for i in 0..400u64 {
            // Alternate between row A and row B columns in bank 0.
            let addr = if i % 2 == 0 {
                i / 2 * 64 * 8
            } else {
                (1 << 22) + i / 2 * 64 * 8
            };
            reqs.push(MemRequest::new(
                i,
                Time::ZERO,
                MemOp::Read,
                addr,
                ByteCount::new(64),
            ));
        }
        let mut d1 = DramDevice::new(DramConfig::ddr3_1600_2d());
        let mut d2 = DramDevice::new(DramConfig::ddr3_1600_2d());
        let fcfs = run_simulation(
            &mut d1,
            &reqs,
            &SimConfig {
                scheduler: Scheduler::Fcfs,
                replay: ReplayMode::Saturation,
                workload: "mix".into(),
            },
        );
        let frfcfs = run_simulation(
            &mut d2,
            &reqs,
            &SimConfig {
                scheduler: Scheduler::FrFcfs { window: 16 },
                replay: ReplayMode::Saturation,
                workload: "mix".into(),
            },
        );
        assert!(
            frfcfs.makespan <= fcfs.makespan,
            "FR-FCFS {:?} should not be slower than FCFS {:?}",
            frfcfs.makespan,
            fcfs.makespan
        );
    }

    #[test]
    fn paced_replay_respects_arrivals() {
        let mut dev = DramDevice::new(DramConfig::ddr3_1600_2d());
        // One request every 1 us: device is never the bottleneck.
        let reqs = paced_stream(50, 1000.0);
        let s = run_simulation(&mut dev, &reqs, &SimConfig::paced("slow"));
        // Makespan dominated by arrival spacing, not service.
        assert!(s.makespan.as_micros() >= 49.0);
        // Latency stays near the unloaded service time.
        assert!(s.avg_latency().as_nanos() < 200.0);
    }

    #[test]
    fn saturation_ignores_arrivals() {
        let reqs = paced_stream(50, 1000.0);
        let mut dev = DramDevice::new(DramConfig::ddr3_1600_2d());
        let s = run_simulation(&mut dev, &reqs, &SimConfig::saturation("fast"));
        assert!(s.makespan.as_micros() < 10.0);
    }

    #[test]
    fn epcm_writes_throttle_throughput() {
        let mk = || EpcmDevice::new(EpcmConfig::epcm_mm());
        let reads = stream(1000, 64, MemOp::Read);
        let writes = stream(1000, 64, MemOp::Write);
        let sr = run_simulation(&mut mk(), &reads, &SimConfig::saturation("r"));
        let sw = run_simulation(&mut mk(), &writes, &SimConfig::saturation("w"));
        assert!(
            sr.bandwidth().as_gigabytes_per_second() > sw.bandwidth().as_gigabytes_per_second()
        );
    }

    #[test]
    fn energy_includes_refresh_and_background() {
        let mut dev = DramDevice::new(DramConfig::ddr3_1600_2d());
        // Slow paced trace spanning several refresh intervals.
        let reqs = paced_stream(100, 1000.0); // 100 us total
        let s = run_simulation(&mut dev, &reqs, &SimConfig::paced("slow"));
        assert!(
            s.energy.refresh > comet_units::Energy::ZERO,
            "refresh energy"
        );
        assert!(s.energy.background > comet_units::Energy::ZERO);
        assert!(s.energy.access > comet_units::Energy::ZERO);
    }

    #[test]
    fn deterministic_across_runs() {
        let reqs = stream(300, 64 * 131, MemOp::Read);
        let run = || {
            let mut dev = DramDevice::new(DramConfig::ddr4_2400_2d());
            run_simulation(&mut dev, &reqs, &SimConfig::saturation("det"))
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }
}
