//! Simulation statistics: latency, bandwidth and energy-per-bit.

use crate::request::CompletedRequest;
use comet_units::{BitCount, ByteCount, DataRate, Energy, EnergyPerBit, Power, Time};
use std::fmt;

/// Energy breakdown of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Per-access energy (activation, array, I/O, laser pulses).
    pub access: Energy,
    /// Background power integrated over the makespan.
    pub background: Energy,
    /// Refresh energy (DRAM only).
    pub refresh: Energy,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> Energy {
        self.access + self.background + self.refresh
    }
}

/// Sub-buckets per octave, as a power of two: 2^7 = 128.
const SUB_BITS: u32 = 7;
/// Octaves in the log-linear range [1 ns, 2^24 ns).
const OCTAVES: u32 = 24;
/// Right shift that keeps an f64's exponent and its top `SUB_BITS`
/// mantissa bits.
const SHIFT: u32 = f64::MANTISSA_DIGITS - 1 - SUB_BITS;
/// The shifted bit pattern of 1.0 (`0x3ff0…0`), the key of the first
/// log-linear bucket, which opens at 1 ns.
const ONE_NS_KEY: u64 = 0x3ff0_0000_0000_0000 >> SHIFT;
/// Index of the overflow bucket (samples at or above 2^24 ns). Bucket 0
/// holds sub-1 ns samples; buckets `1..OVERFLOW` are log-linear.
const OVERFLOW: usize = ((OCTAVES as usize) << SUB_BITS) + 1;
/// The top of the log-linear range, 2^24 ns (~16.8 ms).
const TOP_NS: f64 = (1u64 << OCTAVES) as f64;

/// Lower edge in ns of log-linear bucket `i` (`1..=OVERFLOW`; the edge of
/// `OVERFLOW` is [`TOP_NS`]). Exact: it is an f64 whose low mantissa bits
/// are zero.
fn lower_edge_ns(i: usize) -> f64 {
    f64::from_bits((i as u64 - 1 + ONE_NS_KEY) << SHIFT)
}

/// The streaming latency histogram both engines report tail latency
/// through.
///
/// Buckets are log-linear in ns: 2^7 = 128 equal sub-buckets per octave
/// over [1 ns, 2^24 ns ≈ 16.8 ms), plus one bucket below 1 ns and one
/// overflow bucket. A sample's bucket is read straight off its f64 bit
/// pattern (exponent and top seven mantissa bits), so recording needs no
/// libm call and every bucket edge is exact. The histogram keeps the
/// bucket counts, the sample count and the largest sample.
///
/// [`LatencyHistogram::percentile`] is nearest-rank with linear
/// interpolation by rank inside the bucket that holds the ranked sample.
/// **Bound:** when the exact nearest-rank sample lies in [1 ns, 2^24 ns),
/// the result is within 2^-7 (< 0.79 %) of it, because the result stays
/// inside that sample's bucket, whose width is at most 2^-7 of its lower
/// edge. Below 1 ns the result stays in [0, 1 ns]; at or above 2^24 ns it
/// stays between 2^24 ns and the recorded max.
///
/// # Examples
///
/// ```
/// use comet_units::Time;
/// use memsim::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for n in 1..=1000 {
///     h.record(Time::from_nanos(n as f64));
/// }
/// // The exact nearest-rank p99 is 990 ns.
/// let p99 = h.percentile(99.0).as_nanos();
/// assert!((p99 - 990.0).abs() <= 990.0 / 128.0);
/// assert!(h.percentile(50.0) < h.percentile(99.0));
/// assert_eq!(h.percentile(100.0), h.max());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max: Time,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; OVERFLOW + 1],
            total: 0,
            max: Time::ZERO,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Time) {
        let ns = latency.as_nanos();
        let idx = if ns >= TOP_NS {
            OVERFLOW
        } else if ns >= 1.0 {
            ((ns.to_bits() >> SHIFT) - ONE_NS_KEY) as usize + 1
        } else {
            0
        };
        self.counts[idx] += 1;
        self.total += 1;
        self.max = self.max.max(latency);
    }

    /// Largest sample recorded ([`Time::ZERO`] when empty).
    pub fn max(&self) -> Time {
        self.max
    }

    /// Latency at percentile `q` (clamped to `[0, 100]`).
    ///
    /// Finds the nearest-rank sample (rank `ceil(q/100 · total)`, at least
    /// 1), then interpolates linearly by that rank's position among the
    /// samples of its bucket; the overflow bucket interpolates toward the
    /// recorded max, and every result is clamped to the max. Results are
    /// monotone in `q`; see the type docs for the error bound. An empty
    /// histogram reports [`Time::ZERO`].
    pub fn percentile(&self, q: f64) -> Time {
        if self.total == 0 {
            return Time::ZERO;
        }
        let q = q.clamp(0.0, 100.0);
        let rank = ((self.total as f64 * q / 100.0).ceil() as u64).max(1);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if below + c >= rank {
                let lower = if i == 0 { 0.0 } else { lower_edge_ns(i) };
                let upper = if i == OVERFLOW {
                    self.max.as_nanos()
                } else {
                    lower_edge_ns(i + 1)
                };
                let frac = (rank - below) as f64 / c as f64;
                return Time::from_nanos(lower + (upper - lower) * frac).min(self.max);
            }
            below += c;
        }
        self.max
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Aggregate results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Device name.
    pub device: String,
    /// Workload name.
    pub workload: String,
    /// Requests completed.
    pub completed: u64,
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Bytes transferred.
    pub bytes: ByteCount,
    /// Wall-clock span from first arrival to last completion.
    pub makespan: Time,
    /// Sum of request latencies.
    pub total_latency: Time,
    /// Maximum request latency.
    pub max_latency: Time,
    /// Median request latency, within 2^-7 of the exact nearest-rank
    /// value (filled by the engine's [`SimStats::finalize_percentiles`],
    /// [`Time::ZERO`] until then).
    pub p50_latency: Time,
    /// 95th-percentile request latency (see [`SimStats::p50_latency`]).
    pub p95_latency: Time,
    /// 99th-percentile request latency (see [`SimStats::p50_latency`]).
    pub p99_latency: Time,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
}

impl SimStats {
    /// Creates an empty record for a device/workload pair.
    pub fn new(device: impl Into<String>, workload: impl Into<String>) -> Self {
        SimStats {
            device: device.into(),
            workload: workload.into(),
            completed: 0,
            reads: 0,
            writes: 0,
            bytes: ByteCount::ZERO,
            makespan: Time::ZERO,
            total_latency: Time::ZERO,
            max_latency: Time::ZERO,
            p50_latency: Time::ZERO,
            p95_latency: Time::ZERO,
            p99_latency: Time::ZERO,
            energy: EnergyBreakdown::default(),
        }
    }

    /// Folds one completed request into the record.
    pub fn record(&mut self, done: &CompletedRequest) {
        self.completed += 1;
        if done.request.op.is_read() {
            self.reads += 1;
        } else {
            self.writes += 1;
        }
        self.bytes += done.request.size;
        let lat = done.latency();
        self.total_latency += lat;
        self.max_latency = self.max_latency.max(lat);
        self.makespan = self.makespan.max(done.finished);
    }

    /// Adds background energy for a given power over the makespan. Call
    /// once, after all requests are recorded.
    pub fn finalize_background(&mut self, background: Power) {
        self.energy.background = background * self.makespan;
    }

    /// Fills the p50/p95/p99 fields from the run's latency histogram.
    /// Engines call this once, after all requests are recorded, so trace
    /// replay and the `comet-serve` service core report tail latency
    /// through the same fields.
    pub fn finalize_percentiles(&mut self, latencies: &LatencyHistogram) {
        self.p50_latency = latencies.percentile(50.0);
        self.p95_latency = latencies.percentile(95.0);
        self.p99_latency = latencies.percentile(99.0);
    }

    /// Average request latency.
    pub fn avg_latency(&self) -> Time {
        if self.completed == 0 {
            Time::ZERO
        } else {
            self.total_latency / self.completed as f64
        }
    }

    /// Observed bandwidth: bytes over makespan.
    pub fn bandwidth(&self) -> DataRate {
        if self.makespan.is_zero() {
            DataRate::ZERO
        } else {
            DataRate::from_transfer(self.bytes, self.makespan)
        }
    }

    /// Energy per bit transferred.
    pub fn energy_per_bit(&self) -> EnergyPerBit {
        let bits = self.bytes.to_bits();
        if bits == BitCount::ZERO {
            EnergyPerBit::ZERO
        } else {
            self.energy.total() / bits
        }
    }

    /// The paper's Fig. 9(c) efficiency metric: bandwidth (GB/s) divided by
    /// EPB (pJ/b).
    pub fn bandwidth_per_epb(&self) -> f64 {
        let epb = self.energy_per_bit().as_picojoules_per_bit();
        if epb == 0.0 {
            0.0
        } else {
            self.bandwidth().as_gigabytes_per_second() / epb
        }
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}: {} reqs, BW {:.3} GB/s, avg lat {:.1} ns, EPB {:.2} pJ/b",
            self.device,
            self.workload,
            self.completed,
            self.bandwidth().as_gigabytes_per_second(),
            self.avg_latency().as_nanos(),
            self.energy_per_bit().as_picojoules_per_bit()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{MemOp, MemRequest};
    use proptest::prelude::*;

    fn done(id: u64, arrival_ns: f64, finish_ns: f64, op: MemOp) -> CompletedRequest {
        CompletedRequest {
            request: MemRequest::new(
                id,
                Time::from_nanos(arrival_ns),
                op,
                id * 64,
                ByteCount::new(64),
            ),
            issued: Time::from_nanos(arrival_ns),
            finished: Time::from_nanos(finish_ns),
        }
    }

    #[test]
    fn aggregates() {
        let mut s = SimStats::new("dev", "wl");
        s.record(&done(0, 0.0, 100.0, MemOp::Read));
        s.record(&done(1, 50.0, 250.0, MemOp::Write));
        assert_eq!(s.completed, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes.value(), 128);
        assert!((s.makespan.as_nanos() - 250.0).abs() < 1e-9);
        assert!((s.avg_latency().as_nanos() - 150.0).abs() < 1e-9);
        assert!((s.max_latency.as_nanos() - 200.0).abs() < 1e-9);
        // 128 B / 250 ns = 0.512 GB/s.
        assert!((s.bandwidth().as_gigabytes_per_second() - 0.512).abs() < 1e-9);
    }

    #[test]
    fn energy_per_bit_accounting() {
        let mut s = SimStats::new("dev", "wl");
        s.record(&done(0, 0.0, 100.0, MemOp::Read));
        s.energy.access = Energy::from_picojoules(512.0);
        s.finalize_background(Power::from_milliwatts(0.0));
        // 512 pJ over 512 bits = 1 pJ/b.
        assert!((s.energy_per_bit().as_picojoules_per_bit() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn background_energy_uses_makespan() {
        let mut s = SimStats::new("dev", "wl");
        s.record(&done(0, 0.0, 1000.0, MemOp::Read));
        s.finalize_background(Power::from_watts(1.0));
        // 1 W * 1 us = 1 uJ.
        assert!((s.energy.background.as_joules() - 1e-6).abs() < 1e-15);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = SimStats::new("d", "w");
        assert_eq!(s.avg_latency(), Time::ZERO);
        assert_eq!(s.bandwidth(), DataRate::ZERO);
        assert_eq!(s.energy_per_bit(), EnergyPerBit::ZERO);
        assert_eq!(s.bandwidth_per_epb(), 0.0);
        assert_eq!(s.p99_latency, Time::ZERO);
        assert_eq!(LatencyHistogram::new().percentile(99.0), Time::ZERO);
        assert_eq!(percentile_of_sorted(&[], 50.0), Time::ZERO);
    }

    /// Exact nearest-rank percentile of an ascending-sorted sample set:
    /// the sample at rank `ceil(q/100 · n)` (at least 1), [`Time::ZERO`]
    /// when empty. The reference the histogram's bound is checked against.
    fn percentile_of_sorted(sorted: &[Time], q: f64) -> Time {
        if sorted.is_empty() {
            return Time::ZERO;
        }
        let q = q.clamp(0.0, 100.0);
        let rank = ((sorted.len() as f64 * q / 100.0).ceil()).max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    fn histogram_of(samples: &[Time]) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for &t in samples {
            h.record(t);
        }
        h
    }

    /// `|got - want| <= 2^-7 · want`, with slack for the ns/s round trip.
    fn within_bound(got: Time, want: Time) -> bool {
        let (got, want) = (got.as_nanos(), want.as_nanos());
        (got - want).abs() <= want * 2f64.powi(-7) * (1.0 + 1e-9)
    }

    #[test]
    fn exact_percentiles_use_nearest_rank() {
        let samples: Vec<Time> = (1..=200).map(|n| Time::from_nanos(n as f64)).collect();
        assert_eq!(
            percentile_of_sorted(&samples, 50.0),
            Time::from_nanos(100.0)
        );
        assert_eq!(
            percentile_of_sorted(&samples, 95.0),
            Time::from_nanos(190.0)
        );
        assert_eq!(
            percentile_of_sorted(&samples, 99.0),
            Time::from_nanos(198.0)
        );
        assert_eq!(
            percentile_of_sorted(&samples, 100.0),
            Time::from_nanos(200.0)
        );
        // The stats fields come from the histogram, within the bound of
        // the exact values, whatever order the samples arrived in.
        let mut s = SimStats::new("d", "w");
        s.finalize_percentiles(&histogram_of(
            &samples.iter().rev().copied().collect::<Vec<_>>(),
        ));
        assert!(within_bound(s.p50_latency, Time::from_nanos(100.0)));
        assert!(within_bound(s.p95_latency, Time::from_nanos(190.0)));
        assert!(within_bound(s.p99_latency, Time::from_nanos(198.0)));
        // Single sample: every percentile is that sample.
        s.finalize_percentiles(&histogram_of(&[Time::from_nanos(7.0)]));
        assert_eq!(s.p50_latency, Time::from_nanos(7.0));
        assert_eq!(s.p99_latency, Time::from_nanos(7.0));
    }

    #[test]
    fn bucket_bounds_are_increasing_and_cover_the_range() {
        assert_eq!(lower_edge_ns(1), 1.0);
        assert_eq!(lower_edge_ns(OVERFLOW), TOP_NS);
        for i in 2..=OVERFLOW {
            let (lo, hi) = (lower_edge_ns(i - 1), lower_edge_ns(i));
            assert!(hi > lo);
            // Each bucket spans at most 2^-7 of its lower edge.
            assert!(hi - lo <= lo / 128.0, "bucket {i}: {lo}..{hi}");
        }
        // Octave starts are powers of two, split into 128 equal parts.
        assert_eq!(lower_edge_ns(1 + 128), 2.0);
        assert_eq!(lower_edge_ns(1 + 10 * 128 + 64), 1536.0);
    }

    #[test]
    fn records_land_in_the_right_bucket() {
        let mut h = LatencyHistogram::new();
        for ns in [0.5, 1.0, 1.0 + 1.0 / 128.0, 1536.0, 1.0e5, 2.0e7] {
            h.record(Time::from_nanos(ns));
        }
        assert_eq!(h.total, 6);
        assert_eq!(h.counts[0], 1, "sub-ns sample in the first bucket");
        assert_eq!(h.counts[1], 1, "1 ns opens the first log-linear bucket");
        assert_eq!(h.counts[2], 1, "the next edge is exact");
        assert_eq!(h.counts[1 + 10 * 128 + 64], 1, "1536 ns = 2^10 · 1.5");
        assert_eq!(h.counts[OVERFLOW], 1, "20 ms sample overflows");
        assert_eq!(h.max(), Time::from_nanos(2.0e7));
    }

    #[test]
    fn percentiles_bracket_samples_tightly() {
        // 100 samples near each end of the [200, 201) ns bucket: every
        // percentile stays inside the bucket and is monotone in q.
        let mut h = LatencyHistogram::new();
        for ns in [200.25, 200.75] {
            for _ in 0..100 {
                h.record(Time::from_nanos(ns));
            }
        }
        let mut last = Time::ZERO;
        for q in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            let p = h.percentile(q);
            assert!((200.0..=201.0).contains(&p.as_nanos()), "q={q}: {p:?}");
            assert!(p >= last);
            last = p;
        }
        assert_eq!(h.percentile(100.0), h.max());
    }

    #[test]
    fn overflow_percentile_interpolates_to_max() {
        let mut h = LatencyHistogram::new();
        for ms in [20.0, 30.0] {
            for _ in 0..10 {
                h.record(Time::from_millis(ms));
            }
        }
        let p50 = h.percentile(50.0).as_nanos();
        assert!((TOP_NS..3.0e7).contains(&p50), "p50 {p50}");
        assert_eq!(h.percentile(100.0), h.max());
    }

    /// Heavy-tailed, all-equal, single-sample, sub-1 ns and above-2^24 ns
    /// sample sets, in ns.
    fn sample_sets() -> impl Strategy<Value = Vec<f64>> {
        prop_oneof![
            // Pareto(α = 1.1) from 20 ns: tails reach past 2^24 ns.
            prop::collection::vec(
                (1e-9f64..1.0).prop_map(|u| 20.0 * u.powf(-1.0 / 1.1)),
                1..600
            ),
            (-2.0f64..28.0, 1usize..300).prop_map(|(e, n)| vec![e.exp2(); n]),
            (-4.0f64..30.0).prop_map(|e| vec![e.exp2()]),
            prop::collection::vec(0.0f64..1.0, 1..200),
            prop::collection::vec((24.0f64..30.0).prop_map(f64::exp2), 1..200),
        ]
    }

    proptest! {
        #[test]
        fn percentiles_stay_within_bound_of_nearest_rank(ns in sample_sets()) {
            let mut sorted: Vec<Time> = ns.iter().map(|&n| Time::from_nanos(n)).collect();
            let h = histogram_of(&sorted);
            sorted.sort_by(|a, b| a.as_seconds().total_cmp(&b.as_seconds()));
            let mut last = Time::ZERO;
            for i in 0..=400 {
                let q = i as f64 / 4.0;
                let (got, want) = (h.percentile(q), percentile_of_sorted(&sorted, q));
                let w = want.as_nanos();
                if w < 1.0 {
                    prop_assert!(got.as_nanos() <= 1.0, "q={}: {:?} for sub-ns {:?}", q, got, want);
                } else if w < TOP_NS {
                    prop_assert!(within_bound(got, want), "q={}: {:?} vs exact {:?}", q, got, want);
                } else {
                    prop_assert!(got.as_nanos() >= TOP_NS, "q={}: {:?} for overflow {:?}", q, got, want);
                }
                prop_assert!(got >= last, "q={}: {:?} < {:?}", q, got, last);
                prop_assert!(got <= h.max());
                last = got;
            }
            prop_assert_eq!(h.max(), *sorted.last().unwrap());
            prop_assert_eq!(LatencyHistogram::new().percentile(ns[0]), Time::ZERO);
        }
    }
}
