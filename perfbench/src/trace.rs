//! In-memory span recorder for the traced run.
//!
//! A span wraps one call into a layer: it has a name, a start, an end and
//! the span that was open when it began (its parent). Spans are pushed to
//! a thread-local recorder, kept in memory, and summarized or written out
//! when the traced pass ends. A span's *self time* is its duration minus
//! the time its child spans cover; the traced pass runs on one thread, so
//! children never overlap and that cover is the sum of their durations.
//!
//! Per-poll calls (`bank_available`, `row_hit`) are counted, never timed:
//! a replay request can poll hundreds of times, and a clock read per poll
//! would dwarf the work it measures.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer boundaries the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanName {
    /// One traced pass over a workload's grid.
    Iteration,
    /// One trace-replay cell (`memsim::run_simulation` via `run_campaign`).
    ReplayCell,
    /// One serve cell (`comet_serve::run_service` via `run_campaign`).
    ServeCell,
    /// One `DeviceFactory::build` call.
    Build,
    /// `access_line` on a DRAM device.
    DramAccess,
    /// `access_line` on an EPCM device (flat-cost or content-priced).
    EpcmAccess,
    /// `access_line` on COMET.
    CometAccess,
    /// `access_line` on COSMOS.
    CosmosAccess,
    /// `WritePricer::price_write`.
    Price,
    /// `CampaignReport::to_json`.
    ToJson,
    /// `CampaignReport::from_json`.
    FromJson,
    /// `CampaignReport::to_csv`.
    ToCsv,
}

impl SpanName {
    /// The span's name as written to the span file.
    pub fn label(self) -> &'static str {
        match self {
            SpanName::Iteration => "iteration",
            SpanName::ReplayCell => "memsim.replay_cell",
            SpanName::ServeCell => "serve.cell",
            SpanName::Build => "lab.build",
            SpanName::DramAccess => "memsim.dram.access",
            SpanName::EpcmAccess => "memsim.epcm.access",
            SpanName::CometAccess => "comet.access",
            SpanName::CosmosAccess => "cosmos.access",
            SpanName::Price => "data.price",
            SpanName::ToJson => "lab.to_json",
            SpanName::FromJson => "lab.from_json",
            SpanName::ToCsv => "lab.to_csv",
        }
    }
}

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Boundary name.
    pub name: SpanName,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Call counts gathered at the device and pricer seams.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `bank_available` calls (scheduler polls).
    pub bank_available: u64,
    /// `row_hit` calls (FR-FCFS row-buffer queries).
    pub row_hit: u64,
    /// `access` + `access_line` calls: requests issued to a device.
    pub accesses: u64,
    /// The issued requests that were writes.
    pub write_accesses: u64,
    /// `price_write` calls.
    pub priced_writes: u64,
    /// Cells the priced writes reprogrammed.
    pub cells_written: u64,
    /// Cells the priced writes spanned.
    pub cells_total: u64,
}

impl Counts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Counts) {
        self.bank_available += other.bank_available;
        self.row_hit += other.row_hit;
        self.accesses += other.accesses;
        self.write_accesses += other.write_accesses;
        self.priced_writes += other.priced_writes;
        self.cells_written += other.cells_written;
        self.cells_total += other.cells_total;
    }
}

/// The spans and counts of one traced pass.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Counts,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread (dropping any earlier recording).
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: Counts::default(),
        })
    });
}

/// Stops recording and returns what was recorded.
pub fn finish() -> Option<Recorder> {
    RECORDER.with(|r| r.borrow_mut().take())
}

/// The counts recorded so far (zero when not recording).
pub fn counts() -> Counts {
    RECORDER.with(|r| {
        r.borrow()
            .as_ref()
            .map_or_else(Counts::default, |rec| rec.counts)
    })
}

/// Folds seam counts into the recording, if one is running.
pub fn add_counts(counts: &Counts) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.counts.add(counts);
        }
    });
}

/// An open span; it ends when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct SpanGuard(Option<usize>);

/// Opens a span under the innermost open span. Without a running
/// recording this is a no-op.
pub fn span(name: SpanName) -> SpanGuard {
    SpanGuard(RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let id = rec.spans.len();
            let start_ns = rec.epoch.elapsed().as_nanos() as u64;
            rec.spans.push(Span {
                name,
                parent: rec.open.last().copied(),
                start_ns,
                end_ns: start_ns,
            });
            rec.open.push(id);
            id
        })
    }))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[id].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
}

/// Per-name totals over a recording.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

impl Totals {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Totals) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }
}

impl Recorder {
    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded seam counts.
    pub fn counts(&self) -> Counts {
        self.counts
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<SpanName, Totals> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<SpanName, Totals> = BTreeMap::new();
        for (s, cover) in self.spans.iter().zip(covered) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(cover);
        }
        out
    }

    /// The spans as CSV: `id,parent,name,start_ns,end_ns` (parent `-1`
    /// for roots).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("id,parent,name,start_ns,end_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{id},{parent},{},{},{}",
                s.name.label(),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        start();
        {
            let _outer = span(SpanName::ReplayCell);
            {
                let _inner = span(SpanName::DramAccess);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let rec = finish().expect("recording was started");
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        let totals = rec.totals();
        let outer = totals[&SpanName::ReplayCell];
        let inner = totals[&SpanName::DramAccess];
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert!(rec
            .to_csv()
            .lines()
            .nth(2)
            .unwrap()
            .starts_with("1,0,memsim.dram.access,"));
    }

    #[test]
    fn spans_outside_a_recording_are_free() {
        let _ = finish();
        let _s = span(SpanName::Build);
        add_counts(&Counts {
            accesses: 1,
            ..Counts::default()
        });
        assert_eq!(counts(), Counts::default());
    }
}
