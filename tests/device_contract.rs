//! The scheduler-query contract every registered device keeps.
//!
//! `memsim::Controller` caches each bank's FR-FCFS pick and recomputes it
//! only after an issue from that bank or an enqueue into its window. That
//! is sound only if, for every device in the `comet-lab` registry:
//!
//! * **Purity.** `bank_available` and `row_hit` change nothing: polling
//!   any number of times, at any times, leaves the next `access_line`
//!   result, every `row_hit` answer and the drained energy as they were.
//! * **Locality.** An access to one bank leaves another bank's
//!   `bank_available` and `row_hit` answers unchanged.
//!
//! Each case puts two devices from the same factory through the same
//! random access history, then compares them after only one of the two
//! has been polled (purity) or accessed at another bank (locality).
//!
//! Every registered device is also **shard invariant**: a serve run split
//! across any number of channel shards reports exactly what the unsharded
//! run does.

use comet_data::PayloadSpec;
use comet_lab::{device_by_name, device_names};
use comet_serve::{run_service, ArrivalProcess, BatchConfig, ServeSpec, TenantSpec};
use comet_units::Time;
use memsim::{
    spec_like_suite, AccessTiming, DecodedAddress, LineData, MemOp, MemoryDevice, Scheduler,
    Topology, MAX_LINE_BYTES,
};
use proptest::prelude::*;

/// A small pool of locations over at most three banks, so histories mix
/// row hits, row conflicts and bank parallelism.
fn pool(topo: Topology, seeds: &[u64]) -> Vec<DecodedAddress> {
    let banks = topo.total_banks().min(3);
    seeds
        .iter()
        .map(|&r| {
            let flat = r % banks;
            DecodedAddress {
                channel: flat / topo.banks,
                bank: flat % topo.banks,
                row: (r >> 8) % 4 * (topo.rows / 4),
                column: (r >> 16) % topo.columns,
            }
        })
        .collect()
}

fn flat_bank(topo: Topology, loc: &DecodedAddress) -> u64 {
    loc.channel * topo.banks + loc.bank
}

fn op_of(r: u64) -> MemOp {
    if r >> 40 & 1 == 0 {
        MemOp::Read
    } else {
        MemOp::Write
    }
}

/// A device and the controller-side state a history leaves behind.
struct Driven {
    dev: Box<dyn MemoryDevice>,
    topo: Topology,
    bank_free: Vec<Time>,
    now: Time,
}

impl Driven {
    fn new(name: &str) -> Self {
        let dev = device_by_name(name).expect("registered").build();
        let topo = dev.topology();
        Driven {
            dev,
            topo,
            bank_free: vec![Time::ZERO; topo.total_banks() as usize],
            now: Time::ZERO,
        }
    }

    /// Issues one access the way the controller does: at the device's
    /// availability, no earlier than the bank's last `bank_free_at`.
    fn access(&mut self, loc: &DecodedAddress, r: u64) -> AccessTiming {
        let b = flat_bank(self.topo, loc) as usize;
        let at = self
            .dev
            .bank_available(loc, self.bank_free[b].max(self.now));
        let len = (self.topo.line_bytes as usize).min(MAX_LINE_BYTES);
        let bytes: Vec<u8> = r.to_le_bytes().into_iter().cycle().take(len).collect();
        let payload = LineData::from_bytes(&bytes);
        let timing = self.dev.access_line(loc, op_of(r), at, Some(&payload));
        self.bank_free[b] = timing.bank_free_at;
        timing
    }

    /// Replays `history`: each step moves the clock up to ~2 µs forward,
    /// so a history spans several DRAM refresh intervals.
    fn replay(&mut self, locs: &[DecodedAddress], history: &[u64]) {
        for &r in history {
            self.now += Time::from_nanos((r % 2048) as f64);
            self.access(&locs[(r >> 11) as usize % locs.len()], r);
        }
    }

    fn row_hits(&self, locs: &[DecodedAddress]) -> Vec<bool> {
        locs.iter().map(|loc| self.dev.row_hit(loc)).collect()
    }

    fn availability(&mut self, locs: &[DecodedAddress], times: &[Time]) -> Vec<Time> {
        let mut out = Vec::new();
        for loc in locs {
            for &t in times {
                out.push(self.dev.bank_available(loc, t));
            }
        }
        out
    }
}

/// Probe times from 5 µs before the history's end to 15 µs after it.
fn probe_times(now: Time, seeds: &[u64]) -> Vec<Time> {
    seeds
        .iter()
        .map(|&r| now + Time::from_nanos((r % 20_000) as f64) - Time::from_nanos(5_000.0))
        .map(|t| t.max(Time::ZERO))
        .collect()
}

proptest! {
    #[test]
    fn polls_change_nothing(
        loc_seeds in prop::collection::vec(any::<u64>(), 2..8),
        history in prop::collection::vec(any::<u64>(), 0..40),
        polls in prop::collection::vec(any::<u64>(), 1..40),
        next in any::<u64>(),
    ) {
        for name in device_names() {
            let mut polled = Driven::new(name);
            let mut quiet = Driven::new(name);
            let locs = pool(polled.topo, &loc_seeds);
            polled.replay(&locs, &history);
            quiet.replay(&locs, &history);

            for (&r, &t) in polls.iter().zip(&probe_times(polled.now, &polls)) {
                let loc = &locs[(r >> 20) as usize % locs.len()];
                let _ = polled.dev.bank_available(loc, t);
                let _ = polled.dev.row_hit(loc);
            }

            // The quiet device is compared before it answers any poll of
            // its own beyond the one `access` makes.
            prop_assert_eq!(polled.row_hits(&locs), quiet.row_hits(&locs), "{}", name);
            let loc = &locs[next as usize % locs.len()];
            prop_assert_eq!(polled.access(loc, next), quiet.access(loc, next), "{}", name);
            prop_assert_eq!(
                polled.dev.drain_accumulated_energy(),
                quiet.dev.drain_accumulated_energy(),
                "{}",
                name
            );
            let times = probe_times(quiet.now, &polls[..polls.len().min(4)]);
            prop_assert_eq!(
                polled.availability(&locs, &times),
                quiet.availability(&locs, &times),
                "{}",
                name
            );
        }
    }

    #[test]
    fn an_access_leaves_other_banks_alone(
        loc_seeds in prop::collection::vec(any::<u64>(), 2..8),
        history in prop::collection::vec(any::<u64>(), 0..40),
        probes in prop::collection::vec(any::<u64>(), 1..6),
        x in any::<u64>(),
    ) {
        for name in device_names() {
            let mut touched = Driven::new(name);
            let mut untouched = Driven::new(name);
            let locs = pool(touched.topo, &loc_seeds);
            touched.replay(&locs, &history);
            untouched.replay(&locs, &history);

            let at_x = locs[x as usize % locs.len()];
            let bank_x = flat_bank(touched.topo, &at_x);
            let others: Vec<DecodedAddress> = locs
                .iter()
                .copied()
                .filter(|l| flat_bank(touched.topo, l) != bank_x)
                .collect();
            touched.access(&at_x, x);

            prop_assert_eq!(touched.row_hits(&others), untouched.row_hits(&others), "{}", name);
            let times = probe_times(untouched.now, &probes);
            prop_assert_eq!(
                touched.availability(&others, &times),
                untouched.availability(&others, &times),
                "{}",
                name
            );
        }
    }
}

#[test]
fn every_registered_device_is_shard_invariant() {
    // A write-rich profile, an open-loop tenant whose stores carry sparse
    // payloads (so the data-plane devices price by content) and a
    // closed-loop tenant, write batching on.
    let profile = &spec_like_suite(400)[1];
    let spec = |shards: usize| ServeSpec {
        tenants: vec![
            TenantSpec::open("sparse", ArrivalProcess::deterministic(2.0e7), 400)
                .with_payload(PayloadSpec::SparseUpdate { flip_fraction: 0.1 }),
            TenantSpec::closed("closed", 4, Time::from_nanos(30.0), 300),
        ],
        scheduler: Scheduler::default(),
        shards,
        batch: Some(BatchConfig::default()),
    };
    for name in device_names() {
        let factory = device_by_name(name).expect("registered");
        let one = run_service(factory.as_ref(), &spec(1), profile, 3, "shards");
        assert_eq!(one.stats.completed, 700, "{name}");
        for shards in [2usize, 4] {
            let sharded = run_service(factory.as_ref(), &spec(shards), profile, 3, "shards");
            assert_eq!(sharded.stats, one.stats, "{name}: shards={shards}");
            assert_eq!(sharded.tenants, one.tenants, "{name}: shards={shards}");
            assert_eq!(sharded.channels, one.channels, "{name}: shards={shards}");
        }
    }
}
