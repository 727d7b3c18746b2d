//! Open-loop arrival processes.
//!
//! An [`ArrivalProcess`] describes *when* requests of an open-loop tenant
//! arrive, independently of what they access (that is the
//! [`memsim::StreamShape`]'s job) and of how fast the memory
//! serves them — the defining property of open-loop load generation, and
//! what makes the saturation hockey-stick measurable: offered load keeps
//! arriving even when the device falls behind.
//!
//! Every process is deterministic for a given seed and produces
//! non-decreasing arrival times (both properties are pinned by the crate's
//! property tests).

use comet_units::Time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An open-loop arrival process (rates in requests per second).
///
/// # Examples
///
/// ```
/// use comet_serve::ArrivalProcess;
///
/// let p = ArrivalProcess::poisson(1.0e9); // one request per ns on average
/// let mut clock = p.clock(42);
/// let a = clock.next_arrival();
/// let b = clock.next_arrival();
/// assert!(b >= a);
/// // Same seed, same stream.
/// assert_eq!(p.clock(42).next_arrival(), a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Evenly spaced arrivals at a fixed rate (deterministic spacing
    /// `1/rate`; the cleanest probe for saturation sweeps).
    Deterministic {
        /// Arrival rate, requests per second.
        rate_rps: f64,
    },
    /// Memoryless arrivals: exponential inter-arrival gaps with mean
    /// `1/rate` (the M in M/G/k).
    Poisson {
        /// Mean arrival rate, requests per second.
        rate_rps: f64,
    },
    /// On/off bursts: evenly spaced arrivals at `rate_rps` during `on`
    /// windows separated by silent `off` windows (mean rate
    /// `rate · on/(on+off)`).
    Bursty {
        /// Arrival rate inside a burst, requests per second.
        rate_rps: f64,
        /// Burst duration.
        on: Time,
        /// Idle duration between bursts.
        off: Time,
    },
}

impl ArrivalProcess {
    /// Evenly spaced arrivals at `rate_rps` requests per second.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is positive and finite.
    pub fn deterministic(rate_rps: f64) -> Self {
        assert!(
            rate_rps > 0.0 && rate_rps.is_finite(),
            "arrival rate must be positive, got {rate_rps}"
        );
        ArrivalProcess::Deterministic { rate_rps }
    }

    /// Poisson arrivals at a mean of `rate_rps` requests per second.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is positive and finite.
    pub fn poisson(rate_rps: f64) -> Self {
        assert!(
            rate_rps > 0.0 && rate_rps.is_finite(),
            "arrival rate must be positive, got {rate_rps}"
        );
        ArrivalProcess::Poisson { rate_rps }
    }

    /// On/off bursts: `rate_rps` inside `on` windows, silence for `off`.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is positive and finite, `on` is positive and
    /// `off` is non-negative.
    pub fn bursty(rate_rps: f64, on: Time, off: Time) -> Self {
        assert!(
            rate_rps > 0.0 && rate_rps.is_finite(),
            "burst rate must be positive, got {rate_rps}"
        );
        assert!(on > Time::ZERO, "burst window must be positive");
        assert!(off >= Time::ZERO, "idle window must be non-negative");
        ArrivalProcess::Bursty { rate_rps, on, off }
    }

    /// The long-run mean arrival rate, requests per second.
    ///
    /// For bursty processes this is the asymptotic `rate · on/(on+off)`:
    /// a burst always emits at least one arrival, so windows shorter than
    /// a few inter-arrival gaps achieve more than the formula says.
    pub fn mean_rate_rps(&self) -> f64 {
        match *self {
            ArrivalProcess::Deterministic { rate_rps } | ArrivalProcess::Poisson { rate_rps } => {
                rate_rps
            }
            ArrivalProcess::Bursty { rate_rps, on, off } => {
                rate_rps * on.as_seconds() / (on + off).as_seconds()
            }
        }
    }

    /// The same process shape at `factor` times the rate (load sweeps keep
    /// burst/idle window lengths and scale only the in-window rate).
    ///
    /// # Panics
    ///
    /// Panics unless the factor is positive and finite.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "scale factor must be positive, got {factor}"
        );
        match *self {
            ArrivalProcess::Deterministic { rate_rps } => ArrivalProcess::Deterministic {
                rate_rps: rate_rps * factor,
            },
            ArrivalProcess::Poisson { rate_rps } => ArrivalProcess::Poisson {
                rate_rps: rate_rps * factor,
            },
            ArrivalProcess::Bursty { rate_rps, on, off } => ArrivalProcess::Bursty {
                rate_rps: rate_rps * factor,
                on,
                off,
            },
        }
    }

    /// A seeded arrival clock for this process.
    pub fn clock(&self, seed: u64) -> ArrivalClock {
        let burst_end = match *self {
            ArrivalProcess::Bursty { on, .. } => on,
            _ => Time::ZERO,
        };
        ArrivalClock {
            process: *self,
            rng: StdRng::seed_from_u64(seed),
            now: Time::ZERO,
            burst_end,
        }
    }
}

/// A stateful generator of non-decreasing arrival times.
#[derive(Debug, Clone)]
pub struct ArrivalClock {
    process: ArrivalProcess,
    rng: StdRng,
    now: Time,
    /// End of the current on-window (bursty processes only).
    burst_end: Time,
}

impl ArrivalClock {
    /// The next arrival time (non-decreasing across calls).
    pub fn next_arrival(&mut self) -> Time {
        match self.process {
            ArrivalProcess::Deterministic { rate_rps } => {
                self.now += Time::from_seconds(1.0 / rate_rps);
            }
            ArrivalProcess::Poisson { rate_rps } => {
                // Inverse-CDF exponential gap; u in [0, 1) keeps ln finite.
                let u: f64 = self.rng.gen_range(0.0..1.0);
                self.now += Time::from_seconds(-(1.0 - u).ln() / rate_rps);
            }
            ArrivalProcess::Bursty { rate_rps, on, off } => {
                let mut candidate = self.now + Time::from_seconds(1.0 / rate_rps);
                // Snap arrivals that land past the current on-window to the
                // start of the next one.
                while candidate > self.burst_end {
                    let next_start = self.burst_end + off;
                    self.burst_end = next_start + on;
                    if candidate < next_start {
                        candidate = next_start;
                    }
                }
                self.now = candidate;
            }
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_spacing_is_exact() {
        let mut clock = ArrivalProcess::deterministic(1.0e9).clock(0);
        for i in 1..=10 {
            let t = clock.next_arrival();
            assert!((t.as_nanos() - i as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let mut clock = ArrivalProcess::poisson(1.0e9).clock(7);
        let n = 20_000;
        let mut last = Time::ZERO;
        for _ in 0..n {
            last = clock.next_arrival();
        }
        let mean_gap_ns = last.as_nanos() / n as f64;
        assert!(
            (mean_gap_ns - 1.0).abs() < 0.05,
            "mean gap {mean_gap_ns} ns"
        );
    }

    #[test]
    fn bursty_respects_windows_and_mean_rate() {
        let on = Time::from_nanos(10.0);
        let off = Time::from_nanos(30.0);
        let p = ArrivalProcess::bursty(1.0e9, on, off);
        assert!((p.mean_rate_rps() - 0.25e9).abs() < 1.0);
        let mut clock = p.clock(3);
        let times: Vec<f64> = (0..40).map(|_| clock.next_arrival().as_nanos()).collect();
        for w in times.windows(2) {
            assert!(w[1] >= w[0]);
        }
        // No arrival lands strictly inside an off window.
        for &t in &times {
            let phase = t % 40.0;
            assert!(
                phase <= 10.0 + 1e-9 || (40.0 - phase) < 1e-9,
                "arrival at {t} ns is inside the off window (phase {phase})"
            );
        }
    }

    #[test]
    fn burst_longer_than_window_emits_one_per_burst() {
        // gap (100 ns) > on (10 ns): each burst carries one arrival at its
        // start.
        let p = ArrivalProcess::bursty(1.0e7, Time::from_nanos(10.0), Time::from_nanos(90.0));
        let mut clock = p.clock(0);
        let a = clock.next_arrival().as_nanos();
        let b = clock.next_arrival().as_nanos();
        assert!((b - a - 100.0).abs() < 1.0, "a={a} b={b}");
    }

    #[test]
    fn scaling_scales_mean_rate() {
        for p in [
            ArrivalProcess::deterministic(1e8),
            ArrivalProcess::poisson(1e8),
            ArrivalProcess::bursty(1e8, Time::from_nanos(5.0), Time::from_nanos(15.0)),
        ] {
            let scaled = p.scaled(4.0);
            assert!((scaled.mean_rate_rps() / p.mean_rate_rps() - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = ArrivalProcess::deterministic(0.0);
    }
}
