//! The write-coalescing batch stage.
//!
//! PCM writes are an order of magnitude slower and costlier than reads
//! ("Improving Phase Change Memory Performance with Data Content Aware
//! Access" makes the same asymmetry argument electrically; COMET's Table II
//! shows 170 ns programming against 10 ns reads). The batcher exploits the
//! asymmetry at the controller: an admitted write is *held* for a short
//! window keyed by its `(channel, bank, row)`; further writes to the same
//! row within the window join the batch (so their programming pulses issue
//! back-to-back into one subarray reservation), and writes to the *same
//! line* are coalesced outright — one device access completes all of them,
//! since only the last store's data matters.
//!
//! Reads are never delayed. A read arriving for a row with held writes
//! flushes that row's batch ahead of itself, so store→load ordering per
//! row is preserved at the queue level.

use crate::core::Queued;
use comet_units::Time;
use memsim::Pending;
use std::collections::HashMap;

/// Write-batching knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchConfig {
    /// How long a write may be held, measured from the first write of its
    /// row batch.
    pub window: Time,
    /// Distinct (non-coalesced) writes per row batch before it releases
    /// early.
    pub max_writes: usize,
}

impl BatchConfig {
    /// A batching configuration.
    ///
    /// # Panics
    ///
    /// Panics if the window is non-positive or `max_writes` is zero.
    pub fn new(window: Time, max_writes: usize) -> Self {
        assert!(window > Time::ZERO, "batch window must be positive");
        assert!(max_writes >= 1, "a batch holds at least one write");
        BatchConfig { window, max_writes }
    }
}

impl Default for BatchConfig {
    /// 100 ns window (under COMET's 170 ns programming pulse, so holding
    /// never doubles a write's latency), 8 writes per row batch.
    fn default() -> Self {
        BatchConfig {
            window: Time::from_nanos(100.0),
            max_writes: 8,
        }
    }
}

/// One held row batch.
#[derive(Debug)]
struct RowBatch {
    /// Release deadline (first admitted write's arrival + window).
    deadline: Time,
    /// Creation order, the deterministic tie-break for equal deadlines.
    seq: u64,
    /// Held writes in admission order.
    writes: Vec<Pending<Queued>>,
}

/// The stateful batch stage the service core drives.
#[derive(Debug)]
pub(crate) struct WriteBatcher {
    config: BatchConfig,
    pending: HashMap<(u64, u64, u64), RowBatch>,
    seq: u64,
    coalesced: u64,
    held: usize,
}

impl WriteBatcher {
    pub(crate) fn new(config: BatchConfig) -> Self {
        WriteBatcher {
            config,
            pending: HashMap::new(),
            seq: 0,
            coalesced: 0,
            held: 0,
        }
    }

    /// Same-line writes absorbed into an earlier held write so far.
    pub(crate) fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Requests currently held (distinct writes plus absorbed ones).
    pub(crate) fn held(&self) -> usize {
        self.held
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Admits a write at `now`. Returns a full batch released early, if
    /// admission filled one.
    pub(crate) fn admit(&mut self, q: Pending<Queued>, now: Time) -> Vec<Pending<Queued>> {
        debug_assert!(!q.item.op.is_read(), "the batcher only holds writes");
        let key = (q.loc.channel, q.loc.bank, q.loc.row);
        self.held += 1;
        match self.pending.get_mut(&key) {
            Some(batch) => {
                // Same line already held: coalesce — the held access will
                // complete this request too, and since only the last
                // store's bytes reach the array, the newcomer's payload
                // replaces the host's (a payload-less newcomer makes the
                // merged content unknown, deliberately).
                let new = &q.item;
                if let Some(host) = batch
                    .writes
                    .iter_mut()
                    .find(|w| w.item.address == new.address)
                {
                    host.item.absorbed.push((new.id, new.tenant, new.arrival));
                    host.item.payload = new.payload;
                    self.coalesced += 1;
                    return Vec::new();
                }
                batch.writes.push(q);
                if batch.writes.len() >= self.config.max_writes {
                    let batch = self.pending.remove(&key).expect("present");
                    self.held -= Self::batch_len(&batch);
                    return batch.writes;
                }
                Vec::new()
            }
            None => {
                self.pending.insert(
                    key,
                    RowBatch {
                        deadline: now + self.config.window,
                        seq: self.seq,
                        writes: vec![q],
                    },
                );
                self.seq += 1;
                Vec::new()
            }
        }
    }

    fn batch_len(batch: &RowBatch) -> usize {
        batch
            .writes
            .iter()
            .map(|w| 1 + w.item.absorbed.len())
            .sum::<usize>()
    }

    /// The earliest release deadline, if any batch is held.
    pub(crate) fn next_release(&self) -> Option<Time> {
        self.pending
            .values()
            .min_by(|a, b| {
                a.deadline
                    .as_seconds()
                    .total_cmp(&b.deadline.as_seconds())
                    .then(a.seq.cmp(&b.seq))
            })
            .map(|b| b.deadline)
    }

    /// Releases every batch whose deadline is at or before `now`, ordered
    /// by (deadline, creation order) — deterministic regardless of map
    /// iteration order.
    pub(crate) fn release_due(&mut self, now: Time) -> Vec<Pending<Queued>> {
        let mut due: Vec<(u64, u64, u64)> = self
            .pending
            .iter()
            .filter(|(_, b)| b.deadline <= now)
            .map(|(k, _)| *k)
            .collect();
        due.sort_by_key(|k| {
            let b = &self.pending[k];
            (b.deadline.as_seconds().to_bits(), b.seq)
        });
        let mut out = Vec::new();
        for key in due {
            let batch = self.pending.remove(&key).expect("present");
            self.held -= Self::batch_len(&batch);
            out.extend(batch.writes);
        }
        out
    }

    /// Flushes the batch holding `(channel, bank, row)`, if any — called
    /// when a read to that row arrives, so it never overtakes a held store.
    pub(crate) fn flush_row(&mut self, channel: u64, bank: u64, row: u64) -> Vec<Pending<Queued>> {
        match self.pending.remove(&(channel, bank, row)) {
            Some(batch) => {
                self.held -= Self::batch_len(&batch);
                batch.writes
            }
            None => Vec::new(),
        }
    }
}
