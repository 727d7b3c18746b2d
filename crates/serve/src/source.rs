//! Tenant sources and the multi-tenant mux.
//!
//! A [`TenantSource`] is the demand side of the service core: polled for
//! its next arrival, asked to materialize the request, and notified of
//! completions (which is how closed-loop clients pace themselves). The
//! [`TenantMux`] interleaves named sources by arrival time — ties resolve
//! to the lowest tenant index, so the interleaving is deterministic — while
//! preserving each tenant's own request order.

use crate::arrival::{ArrivalClock, ArrivalProcess};
use comet_data::{PayloadGen, PayloadSpec};
use comet_units::{ByteCount, Time};
use memsim::{LineData, MemOp, StreamShape, WorkloadProfile};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Totally ordered wrapper for event times (f64 seconds under `total_cmp`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrdTime(pub f64);

impl Eq for OrdTime {}

impl PartialOrd for OrdTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// What polling a source yields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourcePoll {
    /// A request is ready to arrive at this time.
    Ready(Time),
    /// Nothing until an outstanding request completes (closed-loop with
    /// all clients in flight).
    Blocked,
    /// The source's request budget is spent.
    Exhausted,
}

/// A materialized request, before the core assigns it an id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sourced {
    /// Arrival time at the controller.
    pub arrival: Time,
    /// Operation.
    pub op: MemOp,
    /// Physical byte address.
    pub address: u64,
    /// Transfer size.
    pub size: ByteCount,
    /// The written line content (stores of tenants with a payload source;
    /// reads and payload-less tenants carry `None`).
    pub payload: Option<LineData>,
}

/// How a [`TenantSource`] times its requests.
#[derive(Debug)]
enum Arrivals {
    /// Open loop: arrivals from an [`ArrivalProcess`], oblivious to service
    /// progress. `staged` holds the polled but not yet taken arrival.
    Open {
        clock: ArrivalClock,
        staged: Option<Time>,
    },
    /// Closed loop: independent clients, each keeping one request in flight
    /// and re-issuing `think` after its completion — the classic
    /// fixed-concurrency load generator whose offered rate self-limits at
    /// the service rate. `ready` holds the times at which a client is ready
    /// to issue (min-heap).
    Closed {
        think: Time,
        ready: BinaryHeap<Reverse<OrdTime>>,
    },
}

/// One tenant's request stream: a [`StreamShape`] supplies each access, an
/// open- or closed-loop arrival model times it, and an optional payload
/// generator fills every store's line.
///
/// Deterministic: the sequence of polls, takes and completions fully
/// determines the generated stream. Built by [`TenantSpec::instantiate`].
#[derive(Debug)]
pub struct TenantSource {
    name: String,
    shape: StreamShape,
    remaining: usize,
    payload: Option<PayloadGen>,
    arrivals: Arrivals,
}

impl TenantSource {
    /// Tenant name used in per-tenant reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The next arrival, without consuming it.
    pub fn poll(&mut self) -> SourcePoll {
        if self.remaining == 0 {
            return SourcePoll::Exhausted;
        }
        match &mut self.arrivals {
            Arrivals::Open { clock, staged } => {
                SourcePoll::Ready(*staged.get_or_insert_with(|| clock.next_arrival()))
            }
            Arrivals::Closed { ready, .. } => match ready.peek() {
                Some(Reverse(t)) => SourcePoll::Ready(Time::from_seconds(t.0)),
                None => SourcePoll::Blocked,
            },
        }
    }

    /// Consumes and materializes the request last reported ready.
    ///
    /// # Panics
    ///
    /// Panics if the source is not currently [`SourcePoll::Ready`].
    pub fn take(&mut self) -> Sourced {
        let arrival = match &mut self.arrivals {
            Arrivals::Open { staged, .. } => staged.take(),
            Arrivals::Closed { ready, .. } => ready.pop().map(|Reverse(t)| Time::from_seconds(t.0)),
        }
        .expect("take() without a Ready poll");
        self.remaining -= 1;
        let (op, address, size) = self.shape.next_access();
        let payload = match &mut self.payload {
            Some(gen) if !op.is_read() => Some(gen.next_line(address, size.value())),
            _ => None,
        };
        Sourced {
            arrival,
            op,
            address,
            size,
            payload,
        }
    }

    /// Notifies the source that one of its requests finished at `finished`:
    /// a closed-loop client issues again `think` later; open loops ignore
    /// it.
    pub fn on_complete(&mut self, finished: Time) {
        if let Arrivals::Closed { think, ready } = &mut self.arrivals {
            ready.push(Reverse(OrdTime((finished + *think).as_seconds())));
        }
    }
}

/// What polling the mux yields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MuxPoll {
    /// Tenant `tenant` has a request arriving at `at` (the earliest across
    /// tenants; ties go to the lowest index).
    Ready {
        /// Index of the tenant to take from.
        tenant: usize,
        /// Arrival time of its next request.
        at: Time,
    },
    /// Every non-exhausted tenant is waiting on completions.
    Blocked,
    /// Every tenant's budget is spent.
    Exhausted,
}

/// Interleaves named sources by arrival time with per-tenant bookkeeping.
#[derive(Debug)]
pub struct TenantMux {
    tenants: Vec<TenantSource>,
}

impl TenantMux {
    /// Wraps the tenant sources (index order is the tie-break order).
    ///
    /// # Panics
    ///
    /// Panics on an empty tenant list.
    pub fn new(tenants: Vec<TenantSource>) -> Self {
        assert!(!tenants.is_empty(), "mux needs at least one tenant");
        TenantMux { tenants }
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the mux has no tenants (never true — construction requires
    /// at least one).
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// The tenant names, in index order.
    pub fn names(&self) -> Vec<String> {
        self.tenants.iter().map(|t| t.name().to_string()).collect()
    }

    /// The earliest pending arrival across tenants.
    pub fn poll(&mut self) -> MuxPoll {
        let mut best: Option<(Time, usize)> = None;
        let mut all_exhausted = true;
        for (i, tenant) in self.tenants.iter_mut().enumerate() {
            match tenant.poll() {
                SourcePoll::Ready(at) => {
                    all_exhausted = false;
                    // Strict `<` keeps the lowest index on ties.
                    if best.map_or(true, |(t, _)| at < t) {
                        best = Some((at, i));
                    }
                }
                SourcePoll::Blocked => all_exhausted = false,
                SourcePoll::Exhausted => {}
            }
        }
        match best {
            Some((at, tenant)) => MuxPoll::Ready { tenant, at },
            None if all_exhausted => MuxPoll::Exhausted,
            None => MuxPoll::Blocked,
        }
    }

    /// Takes the next request of tenant `tenant`.
    pub fn take(&mut self, tenant: usize) -> Sourced {
        self.tenants[tenant].take()
    }

    /// Routes a completion back to its tenant.
    pub fn on_complete(&mut self, tenant: usize, finished: Time) {
        self.tenants[tenant].on_complete(finished);
    }
}

/// The golden-ratio stride `comet-lab` also uses for seed derivation.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// FNV-1a over a tenant name (decorelates same-profile tenants).
fn hash_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// How a declarative tenant offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TenantLoad {
    /// Open loop: arrivals from the process regardless of service progress.
    Open(ArrivalProcess),
    /// Closed loop: fixed concurrency with think time.
    Closed {
        /// Clients keeping one request in flight each.
        clients: usize,
        /// Pause between a completion and the client's next request.
        think: Time,
    },
}

/// A declarative tenant: instantiated per campaign cell with the cell's
/// seed and (unless it carries its own) the cell's workload profile.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name (report label; also folded into the tenant's seed).
    pub name: String,
    /// Traffic shape override; `None` uses the cell's workload profile.
    pub profile: Option<WorkloadProfile>,
    /// Load model.
    pub load: TenantLoad,
    /// Request budget.
    pub requests: usize,
    /// Payload source for this tenant's stores; `None` sends payload-less
    /// writes (content-aware devices price those at the flat worst case).
    pub payload: Option<PayloadSpec>,
}

impl TenantSpec {
    /// An open-loop tenant shaped by the cell's workload profile.
    pub fn open(name: impl Into<String>, process: ArrivalProcess, requests: usize) -> Self {
        TenantSpec {
            name: name.into(),
            profile: None,
            load: TenantLoad::Open(process),
            requests,
            payload: None,
        }
    }

    /// A closed-loop tenant shaped by the cell's workload profile.
    pub fn closed(name: impl Into<String>, clients: usize, think: Time, requests: usize) -> Self {
        TenantSpec {
            name: name.into(),
            profile: None,
            load: TenantLoad::Closed { clients, think },
            requests,
            payload: None,
        }
    }

    /// Overrides the traffic shape (e.g. a DOTA transformer stream beside
    /// SPEC-like tenants).
    pub fn with_profile(mut self, profile: WorkloadProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Attaches a payload source: the tenant's stores carry lines from
    /// `payload`, instantiated per cell with the tenant's derived seed.
    pub fn with_payload(mut self, payload: PayloadSpec) -> Self {
        self.payload = Some(payload);
        self
    }

    /// Builds the tenant's source. `fallback` supplies the shape when the
    /// spec carries none; `seed` is the cell seed, decorrelated per tenant
    /// by index and name.
    ///
    /// # Panics
    ///
    /// Panics if a closed-loop tenant has no clients (it could never
    /// issue).
    pub fn instantiate(&self, fallback: &WorkloadProfile, seed: u64, index: usize) -> TenantSource {
        let profile = self.profile.as_ref().unwrap_or(fallback);
        let tenant_seed =
            seed.wrapping_add((index as u64 + 1).wrapping_mul(SEED_STRIDE)) ^ hash_name(&self.name);
        let arrivals = match self.load {
            TenantLoad::Open(process) => Arrivals::Open {
                clock: process.clock(tenant_seed.rotate_left(32) ^ SEED_STRIDE),
                staged: None,
            },
            TenantLoad::Closed { clients, think } => {
                assert!(clients > 0, "closed loop needs at least one client");
                Arrivals::Closed {
                    think,
                    // Every client is ready at time zero.
                    ready: (0..clients).map(|_| Reverse(OrdTime(0.0))).collect(),
                }
            }
        };
        TenantSource {
            name: self.name.clone(),
            // The shape takes the tenant seed raw, the arrival clock rotated
            // by 32 and the payload by 48, so payload bytes never correlate
            // with addresses or arrival times.
            shape: StreamShape::from_profile(profile, tenant_seed),
            remaining: self.requests,
            payload: self
                .payload
                .map(|spec| spec.instantiate(tenant_seed.rotate_left(48) ^ SEED_STRIDE)),
            arrivals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_units::ByteCount;
    use memsim::AccessPattern;

    fn profile() -> WorkloadProfile {
        WorkloadProfile {
            name: "src-test".into(),
            read_fraction: 0.5,
            footprint: ByteCount::from_mib(1),
            pattern: AccessPattern::Random,
            interarrival: Time::from_nanos(1.0),
            requests: 0,
            line_bytes: 64,
        }
    }

    #[test]
    fn open_loop_drains_budget_in_order() {
        let spec = TenantSpec::open("t", ArrivalProcess::deterministic(1e9), 10);
        let mut src = spec.instantiate(&profile(), 42, 0);
        let mut last = Time::ZERO;
        for _ in 0..10 {
            match src.poll() {
                SourcePoll::Ready(at) => {
                    let s = src.take();
                    assert_eq!(s.arrival, at);
                    assert!(s.arrival >= last);
                    last = s.arrival;
                }
                other => panic!("expected Ready, got {other:?}"),
            }
        }
        assert_eq!(src.poll(), SourcePoll::Exhausted);
    }

    #[test]
    fn closed_loop_blocks_until_completion_and_honours_think() {
        let spec = TenantSpec::closed("c", 2, Time::from_nanos(50.0), 5);
        let mut src = spec.instantiate(&profile(), 1, 0);
        // Two clients ready at t=0.
        assert_eq!(src.poll(), SourcePoll::Ready(Time::ZERO));
        let _ = src.take();
        let _ = src.take();
        assert_eq!(src.poll(), SourcePoll::Blocked);
        // A completion at 100 ns frees a client at 150 ns.
        src.on_complete(Time::from_nanos(100.0));
        match src.poll() {
            SourcePoll::Ready(at) => assert!((at.as_nanos() - 150.0).abs() < 1e-9),
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn mux_picks_earliest_with_index_tiebreak() {
        let fast = TenantSpec::open("fast", ArrivalProcess::deterministic(2e9), 100);
        let slow = TenantSpec::open("slow", ArrivalProcess::deterministic(1e9), 100);
        let p = profile();
        let mut mux = TenantMux::new(vec![fast.instantiate(&p, 0, 0), slow.instantiate(&p, 0, 1)]);
        // fast's first arrival (0.5 ns) precedes slow's (1 ns).
        match mux.poll() {
            MuxPoll::Ready { tenant, at } => {
                assert_eq!(tenant, 0);
                assert!((at.as_nanos() - 0.5).abs() < 1e-9);
            }
            other => panic!("{other:?}"),
        }
        let _ = mux.take(0);
        // Now both have an arrival at 1 ns: tie goes to tenant 0.
        match mux.poll() {
            MuxPoll::Ready { tenant, at } => {
                assert_eq!(tenant, 0);
                assert!((at.as_nanos() - 1.0).abs() < 1e-9);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tenants_with_equal_profiles_decorrelate() {
        let p = profile();
        let a = TenantSpec::open("a", ArrivalProcess::deterministic(1e9), 50);
        let b = TenantSpec::open("b", ArrivalProcess::deterministic(1e9), 50);
        let mut sa = a.instantiate(&p, 7, 0);
        let mut sb = b.instantiate(&p, 7, 1);
        let drain = |s: &mut TenantSource| {
            (0..50)
                .map(|_| {
                    let _ = s.poll();
                    let r = s.take();
                    (r.address, r.op.is_read())
                })
                .collect::<Vec<_>>()
        };
        assert_ne!(drain(&mut sa), drain(&mut sb));
    }
}
