//! Online tail-latency and queue-depth accounting.
//!
//! The service core cannot afford to keep every sample per tenant, so tail
//! latency streams into `memsim`'s [`LatencyHistogram`] (128 log-linear
//! buckets per octave; percentiles within 2^-7 of the exact nearest-rank
//! value) and queue depth streams into a [`DepthSeries`] that decimates
//! itself to a bounded number of samples. Both are deterministic: equal
//! event streams produce equal accounting.

use comet_units::{ByteCount, Time};
use memsim::{LatencyHistogram, MemOp, SimStats};

/// A self-decimating time series of queue depth.
///
/// Every event records `(time, depth)`; when the buffer reaches its
/// capacity it drops every other retained sample and doubles its sampling
/// stride, so memory stays bounded while the series keeps covering the
/// whole run. Decimation depends only on the event sequence, never on
/// wall-clock state, so equal runs produce equal series.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthSeries {
    samples: Vec<(Time, u64)>,
    capacity: usize,
    stride: u64,
    seen: u64,
    max_depth: u64,
    /// Time-weighted depth integral (depth · seconds).
    area: f64,
    last: Option<(Time, u64)>,
}

impl DepthSeries {
    /// A series retaining at most `capacity` samples (at least 2).
    pub fn new(capacity: usize) -> Self {
        DepthSeries {
            samples: Vec::new(),
            capacity: capacity.max(2),
            stride: 1,
            seen: 0,
            max_depth: 0,
            area: 0.0,
            last: None,
        }
    }

    /// Records the instantaneous depth after an event at `now` (event
    /// times must be non-decreasing).
    pub fn record(&mut self, now: Time, depth: u64) {
        if let Some((t, d)) = self.last {
            self.area += d as f64 * (now - t).as_seconds();
        }
        self.last = Some((now, depth));
        self.max_depth = self.max_depth.max(depth);
        if self.seen % self.stride == 0 {
            if self.samples.len() >= self.capacity {
                let mut keep = 0usize;
                self.samples.retain(|_| {
                    keep += 1;
                    (keep - 1) % 2 == 0
                });
                self.stride *= 2;
            }
            // Re-check the stride after decimation.
            if self.seen % self.stride == 0 {
                self.samples.push((now, depth));
            }
        }
        self.seen += 1;
    }

    /// The retained `(time, depth)` samples in time order.
    pub fn samples(&self) -> &[(Time, u64)] {
        &self.samples
    }

    /// The deepest instantaneous queue observed.
    pub fn max_depth(&self) -> u64 {
        self.max_depth
    }

    /// Time-weighted mean depth over `makespan`.
    pub fn mean_depth(&self, makespan: Time) -> f64 {
        if makespan.is_zero() {
            0.0
        } else {
            self.area / makespan.as_seconds()
        }
    }

    /// Events recorded (before decimation).
    pub fn events(&self) -> u64 {
        self.seen
    }
}

/// Per-tenant accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
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
    /// Sum of request latencies.
    pub total_latency: Time,
    /// Maximum request latency.
    pub max_latency: Time,
    /// Streaming latency distribution.
    pub tail: LatencyHistogram,
}

impl TenantStats {
    /// Empty accounting for a named tenant.
    pub fn new(name: impl Into<String>) -> Self {
        TenantStats {
            name: name.into(),
            completed: 0,
            reads: 0,
            writes: 0,
            bytes: ByteCount::ZERO,
            total_latency: Time::ZERO,
            max_latency: Time::ZERO,
            tail: LatencyHistogram::new(),
        }
    }

    /// Folds one completion into the record.
    pub fn record(&mut self, op: MemOp, size: ByteCount, latency: Time) {
        self.completed += 1;
        if op.is_read() {
            self.reads += 1;
        } else {
            self.writes += 1;
        }
        self.bytes += size;
        self.total_latency += latency;
        self.max_latency = self.max_latency.max(latency);
        self.tail.record(latency);
    }

    /// Mean latency.
    pub fn avg_latency(&self) -> Time {
        if self.completed == 0 {
            Time::ZERO
        } else {
            self.total_latency / self.completed as f64
        }
    }

    /// Latency percentile from the streaming histogram.
    pub fn percentile(&self, q: f64) -> Time {
        self.tail.percentile(q)
    }

    /// Completed-request throughput over `makespan`, requests per second.
    pub fn throughput_rps(&self, makespan: Time) -> f64 {
        if makespan.is_zero() {
            0.0
        } else {
            self.completed as f64 / makespan.as_seconds()
        }
    }
}

/// Per-logical-channel accounting (sums over channels must equal the
/// aggregate — the sharding soundness check).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelStats {
    /// Logical channel index.
    pub channel: u64,
    /// Requests completed on the channel.
    pub completed: u64,
    /// Bytes moved over the channel's bus.
    pub bytes: ByteCount,
    /// Summed data-bus occupancy.
    pub busy: Time,
}

impl ChannelStats {
    /// Empty accounting for a channel.
    pub fn new(channel: u64) -> Self {
        ChannelStats {
            channel,
            completed: 0,
            bytes: ByteCount::ZERO,
            busy: Time::ZERO,
        }
    }
}

/// The result of one service run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Aggregate statistics in the same shape trace replay produces —
    /// including the p50/p95/p99 fields — so campaign reports treat serve
    /// and replay cells uniformly.
    pub stats: SimStats,
    /// Per-tenant accounting, in tenant index order.
    pub tenants: Vec<TenantStats>,
    /// Per-logical-channel accounting.
    pub channels: Vec<ChannelStats>,
    /// Queue-depth time series (requests in system).
    pub depth: DepthSeries,
    /// Writes that entered the batch stage.
    pub batched_writes: u64,
    /// Same-line writes coalesced away (completed by another access).
    pub coalesced_writes: u64,
    /// Backend instances the simulation was partitioned across.
    pub shards: usize,
}

impl ServeReport {
    /// Sum of per-channel completions (equals `stats.completed` — pinned
    /// by the crate's property tests).
    pub fn channel_total(&self) -> u64 {
        self.channels.iter().map(|c| c.completed).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_series_decimates_deterministically() {
        let mut s = DepthSeries::new(8);
        for i in 0..1000u64 {
            s.record(Time::from_nanos(i as f64), i % 50);
        }
        assert!(s.samples().len() <= 8);
        assert_eq!(s.max_depth(), 49);
        assert_eq!(s.events(), 1000);
        // Samples stay in time order.
        for w in s.samples().windows(2) {
            assert!(w[1].0 >= w[0].0);
        }
        // Determinism.
        let mut t = DepthSeries::new(8);
        for i in 0..1000u64 {
            t.record(Time::from_nanos(i as f64), i % 50);
        }
        assert_eq!(s, t);
    }

    #[test]
    fn depth_series_mean_is_time_weighted() {
        let mut s = DepthSeries::new(16);
        s.record(Time::ZERO, 10);
        s.record(Time::from_nanos(100.0), 0);
        s.record(Time::from_nanos(200.0), 0);
        // Depth 10 for the first half, 0 for the second: mean 5.
        let mean = s.mean_depth(Time::from_nanos(200.0));
        assert!((mean - 5.0).abs() < 1e-9, "mean {mean}");
    }

    #[test]
    fn tenant_stats_fold() {
        let mut t = TenantStats::new("t");
        t.record(MemOp::Read, ByteCount::new(64), Time::from_nanos(100.0));
        t.record(MemOp::Write, ByteCount::new(64), Time::from_nanos(300.0));
        assert_eq!(t.completed, 2);
        assert_eq!(t.reads, 1);
        assert_eq!(t.writes, 1);
        assert!((t.avg_latency().as_nanos() - 200.0).abs() < 1e-9);
        assert_eq!(t.max_latency, Time::from_nanos(300.0));
        assert!((t.throughput_rps(Time::from_micros(1.0)) - 2.0e6).abs() < 1.0);
    }
}
