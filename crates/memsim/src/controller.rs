//! The memory controller both engines drive.
//!
//! Per-bank command queues, FCFS / FR-FCFS issue selection, per-channel
//! data-bus contention and the device's interface delay: the pipeline the
//! paper's modified NVMain 2.0 provides. [`run_simulation`](crate::run_simulation)
//! preloads a whole trace and drains it; the `comet-serve` event core
//! enqueues requests as they arrive and interleaves issues with its other
//! events. Both schedule identically because this is the only copy.

use crate::addr::{AddressMap, DecodedAddress, Interleave};
use crate::data::LineData;
use crate::device::{AccessTiming, MemoryDevice};
use crate::request::MemOp;
use comet_units::Time;
use std::collections::VecDeque;

/// Request scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// First-come first-served per bank.
    Fcfs,
    /// First-ready FCFS: row-buffer hits within a lookahead window bypass
    /// older misses (the standard high-performance DRAM policy).
    FrFcfs {
        /// Lookahead window (queue entries examined); at least 1.
        window: usize,
    },
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::FrFcfs { window: 8 }
    }
}

/// A request waiting in a bank queue.
#[derive(Debug, Clone, PartialEq)]
pub struct Pending<T> {
    /// Where the request lands.
    pub loc: DecodedAddress,
    /// Earliest issue time (its arrival, or a later release).
    pub ready: Time,
    /// The caller's request.
    pub item: T,
}

/// The command [`Controller::next_issue`] selected. Valid until the
/// controller's queues next change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IssueSlot {
    /// When the command can issue.
    pub at: Time,
    bank: usize,
    pos: usize,
}

/// One command the controller has issued.
#[derive(Debug, Clone, PartialEq)]
pub struct Issued<T> {
    /// The request, out of its queue.
    pub entry: Pending<T>,
    /// When it issued.
    pub at: Time,
    /// When the requester sees it done: after the bus transfer and the
    /// device's interface delay.
    pub finished: Time,
    /// What the device reported for the access.
    pub timing: AccessTiming,
}

/// Per-bank queues, a scheduler and per-channel bus state in front of one
/// logical device, which may be partitioned by channel across several
/// [`MemoryDevice`] instances: channel `c` is served by `devices[c %
/// devices.len()]`.
#[derive(Debug)]
pub struct Controller<T> {
    map: AddressMap,
    window: usize,
    interface_delay: Time,
    queues: Vec<VecDeque<Pending<T>>>,
    bank_free: Vec<Time>,
    bus_free: Vec<Time>,
    /// Each bank's window pick `(issue time, queue position)`; `None`
    /// until the next scan of that bank.
    picks: Vec<Option<(Time, usize)>>,
}

impl<T> Controller<T> {
    /// A controller with empty queues for `device`'s topology.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler is FR-FCFS with a zero window, or if the
    /// topology dimensions are not powers of two.
    pub fn new(device: &dyn MemoryDevice, scheduler: Scheduler) -> Self {
        let window = match scheduler {
            Scheduler::Fcfs => 1,
            Scheduler::FrFcfs { window } => window,
        };
        assert!(window >= 1, "an FR-FCFS window holds at least one request");
        let topo = device.topology();
        let map = AddressMap::new(
            topo.channels,
            topo.banks,
            topo.rows,
            topo.columns,
            topo.line_bytes,
            // XOR-folded channel selection: strides that are multiples of
            // the channel count still spread across channels, as real
            // controllers arrange with permutation-based interleaving.
            Interleave::RowBankColumnChannelXor,
        )
        .expect("device topology dimensions must be powers of two");
        let nbanks = topo.total_banks() as usize;
        Controller {
            map,
            window,
            interface_delay: device.interface_delay(),
            queues: (0..nbanks).map(|_| VecDeque::new()).collect(),
            bank_free: vec![Time::ZERO; nbanks],
            bus_free: vec![Time::ZERO; topo.channels as usize],
            picks: vec![None; nbanks],
        }
    }

    /// Decodes a byte address with the controller's address map.
    pub fn decode(&self, address: u64) -> DecodedAddress {
        self.map.decode(address)
    }

    fn bank_of(&self, loc: &DecodedAddress) -> usize {
        (loc.channel * self.map.banks() + loc.bank) as usize
    }

    /// Appends a request to its bank's queue.
    pub fn enqueue(&mut self, entry: Pending<T>) {
        let bank = self.bank_of(&entry.loc);
        let queue = &mut self.queues[bank];
        queue.push_back(entry);
        // Beyond the window the new entry cannot change the bank's pick.
        if queue.len() <= self.window {
            self.picks[bank] = None;
        }
    }

    /// Enqueues `(address, ready, item)` requests in order. A counting pass
    /// first sizes every bank queue exactly, so a whole trace loaded up
    /// front carries no queue growth slack.
    pub fn enqueue_all<I>(&mut self, requests: I)
    where
        I: Iterator<Item = (u64, Time, T)> + Clone,
    {
        let mut counts = vec![0; self.queues.len()];
        for (address, _, _) in requests.clone() {
            counts[self.bank_of(&self.decode(address))] += 1;
        }
        for (queue, n) in self.queues.iter_mut().zip(counts) {
            queue.reserve_exact(n);
        }
        for (address, ready, item) in requests {
            let loc = self.decode(address);
            self.enqueue(Pending { loc, ready, item });
        }
    }

    /// The earliest-issuable queued request, or `None` when every queue is
    /// empty.
    ///
    /// Each bank offers the entry of its scheduling window (the head under
    /// FCFS) that can issue earliest, row-buffer hits winning ties; the
    /// earliest bank wins, the lower index on ties.
    ///
    /// A bank's pick depends only on its window, its `bank_free` time and
    /// the device's state for that bank, which only an access to the bank
    /// changes (the [`MemoryDevice`] contract). So each pick is cached and
    /// cleared only when [`issue`](Self::issue) takes from the bank or
    /// [`enqueue`](Self::enqueue) lands inside its window; a call polls
    /// the device for the cleared banks alone.
    pub fn next_issue(&mut self, devices: &mut [&mut dyn MemoryDevice]) -> Option<IssueSlot> {
        let mut best: Option<IssueSlot> = None;
        for b in 0..self.queues.len() {
            if self.queues[b].is_empty() {
                continue;
            }
            let (at, pos) = match self.picks[b] {
                Some(pick) => pick,
                None => {
                    let dev = &mut *devices[b / self.map.banks() as usize % devices.len()];
                    let pick = self.scan_window(b, dev);
                    self.picks[b] = Some(pick);
                    pick
                }
            };
            if best.map_or(true, |s| at < s.at) {
                best = Some(IssueSlot { at, bank: b, pos });
            }
        }
        best
    }

    /// `(issue time, queue position)` of bank `b`'s window pick.
    fn scan_window(&self, b: usize, dev: &mut dyn MemoryDevice) -> (Time, usize) {
        // (issue time, queue position, row hit) of the best entry so far.
        let mut chosen = (Time::from_seconds(f64::INFINITY), 0, false);
        for (pos, e) in self.queues[b].iter().take(self.window).enumerate() {
            let at = dev.bank_available(&e.loc, self.bank_free[b].max(e.ready));
            // A one-entry window has no ties to break.
            let hit = self.window > 1 && dev.row_hit(&e.loc);
            if at < chosen.0 || (at == chosen.0 && hit && !chosen.2) {
                chosen = (at, pos, hit);
            }
        }
        (chosen.0, chosen.1)
    }

    /// Issues the command `slot` selected: the device access, then the
    /// line transfer on the channel's bus. `access` supplies the request's
    /// operation and line payload.
    pub fn issue<F>(
        &mut self,
        slot: IssueSlot,
        devices: &mut [&mut dyn MemoryDevice],
        access: F,
    ) -> Issued<T>
    where
        F: for<'a> FnOnce(&'a T) -> (MemOp, Option<&'a LineData>),
    {
        let entry = self.queues[slot.bank]
            .remove(slot.pos)
            .expect("slot comes from next_issue on unchanged queues");
        self.picks[slot.bank] = None;
        let ch = entry.loc.channel as usize;
        let (op, data) = access(&entry.item);
        let timing = devices[ch % devices.len()].access_line(&entry.loc, op, slot.at, data);
        let transfer_end = timing.data_ready_at.max(self.bus_free[ch]) + timing.bus_occupancy;
        self.bus_free[ch] = transfer_end;
        // The device's bank_free_at is authoritative for bank occupancy
        // (devices include transfer time where the array can't pipeline);
        // extending it to transfer_end here would serialize access latency
        // into occupancy and forbid command pipelining.
        self.bank_free[slot.bank] = timing.bank_free_at;
        Issued {
            entry,
            at: slot.at,
            finished: transfer_end + self.interface_delay,
            timing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::{DramConfig, DramDevice};
    use crate::pcm::{EpcmConfig, EpcmDevice};
    use proptest::prelude::*;

    /// Runs `ops` against a controller over `dev`: kinds 0–1 enqueue, 2–3
    /// issue the next command, 4 only asks for it. Enqueues move a clock
    /// forward by up to ~1 µs and are ready up to 2 µs later, so a few
    /// hundred ops span several DRAM refresh intervals. After every step
    /// the warm cache must pick exactly what the same controller picks
    /// with every bank's pick cleared.
    fn cached_pick_is_cold_pick(
        dev: &mut dyn MemoryDevice,
        window: usize,
        ops: &[(u8, u64)],
    ) -> Result<(), TestCaseError> {
        let mut ctrl = Controller::new(dev, Scheduler::FrFcfs { window });
        let banks = dev.topology().banks.min(4);
        let mut devices = [dev];
        let mut now = Time::ZERO;
        for &(kind, r) in ops {
            match kind {
                0 | 1 => {
                    now += Time::from_nanos((r % 1024) as f64);
                    let loc = DecodedAddress {
                        channel: 0,
                        bank: (r >> 10) % banks,
                        row: (r >> 12) % 3,
                        column: (r >> 14) % 4,
                    };
                    let ready = now + Time::from_nanos(((r >> 16) % 2000) as f64);
                    let op = if r >> 32 & 1 == 0 {
                        MemOp::Read
                    } else {
                        MemOp::Write
                    };
                    ctrl.enqueue(Pending {
                        loc,
                        ready,
                        item: op,
                    });
                }
                2 | 3 => {
                    if let Some(slot) = ctrl.next_issue(&mut devices) {
                        ctrl.issue(slot, &mut devices, |&op| (op, None));
                    }
                }
                _ => {}
            }
            let warm = ctrl.next_issue(&mut devices);
            let picks = ctrl.picks.clone();
            ctrl.picks.fill(None);
            prop_assert_eq!(warm, ctrl.next_issue(&mut devices));
            // Carry on with the warm cache, not the one the cold scan
            // refilled.
            ctrl.picks = picks;
        }
        Ok(())
    }

    fn any_window() -> impl Strategy<Value = usize> {
        prop_oneof![Just(1usize), Just(2), Just(8)]
    }

    fn any_ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
        prop::collection::vec((0u8..5, any::<u64>()), 1..400)
    }

    proptest! {
        #[test]
        fn cached_picks_match_cold_scan_on_refreshing_dram(
            window in any_window(),
            ops in any_ops(),
        ) {
            let mut dev = DramDevice::new(DramConfig::ddr4_2400_2d());
            cached_pick_is_cold_pick(&mut dev, window, &ops)?;
        }

        #[test]
        fn cached_picks_match_cold_scan_on_epcm(window in any_window(), ops in any_ops()) {
            let mut dev = EpcmDevice::new(EpcmConfig::epcm_mm());
            cached_pick_is_cold_pick(&mut dev, window, &ops)?;
        }
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn zero_window_is_rejected() {
        let dev = DramDevice::new(DramConfig::ddr3_1600_2d());
        let _ = Controller::<()>::new(&dev, Scheduler::FrFcfs { window: 0 });
    }

    #[test]
    fn exact_preload_sizing() {
        let dev = DramDevice::new(DramConfig::ddr3_1600_2d());
        let mut ctrl = Controller::new(&dev, Scheduler::default());
        ctrl.enqueue_all((0..1000u64).map(|i| (i * 64, Time::ZERO, i)));
        let queued: usize = ctrl.queues.iter().map(VecDeque::len).sum();
        assert_eq!(queued, 1000);
        assert!(ctrl.queues.iter().all(|q| q.capacity() == q.len()));
    }
}
