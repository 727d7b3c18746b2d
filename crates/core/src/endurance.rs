//! Write endurance tracking and wear leveling.
//!
//! Section I of the paper positions PCM against FRAM/RRAM partly on
//! *"reliability and write endurance"* grounds, but any PCM — electrical
//! or optical — still has a finite crystallize/amorphize cycle budget
//! (GST integrated-photonics demonstrations sustain 10⁸–10¹² switching
//! events). A main memory must therefore (a) know where writes land and
//! (b) keep hot rows from burning out early. This module provides both:
//!
//! * [`WearTracker`] — per-row write counters with imbalance and lifetime
//!   statistics;
//! * [`StartGapRemapper`] — the classic algebraic wear-leveling scheme
//!   (one spare row per region, a gap that rotates one position every
//!   `gap_period` writes), which levels pathological hot spots without a
//!   remap table — a good fit for COMET's electrical interface, which
//!   already rewrites addresses through Eqs. (1)–(6).
//!
//! The ablation harness (`cargo run -p comet-bench --bin ablations`)
//! quantifies the imbalance reduction on hot-spot traffic.

use comet_units::Time;

/// Cycle budget of one OPCM cell (order-of-magnitude parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnduranceModel {
    /// Crystallize/amorphize cycles a cell sustains before its contrast
    /// window degrades past the level budget.
    pub write_endurance: u64,
}

impl Default for EnduranceModel {
    fn default() -> Self {
        // Mid-range of published integrated GST photonic-memory endurance.
        EnduranceModel {
            write_endurance: 1_000_000_000,
        }
    }
}

impl EnduranceModel {
    /// Time until the most-worn row dies, given its observed write rate.
    ///
    /// # Panics
    ///
    /// Panics if `writes_per_second` is not positive.
    pub fn lifetime(&self, writes_per_second: f64) -> Time {
        assert!(writes_per_second > 0.0, "write rate must be positive");
        Time::from_seconds(self.write_endurance as f64 / writes_per_second)
    }
}

/// Per-row write counters for one memory region.
///
/// # Examples
///
/// ```
/// use comet::WearTracker;
///
/// let mut wear = WearTracker::new(8);
/// for _ in 0..70 { wear.record(3); } // hot row
/// for r in 0..8 { wear.record(r); }  // background traffic
/// assert_eq!(wear.total_writes(), 78);
/// assert_eq!(wear.max_wear(), 71);
/// assert!(wear.imbalance() > 5.0); // badly skewed
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WearTracker {
    counts: Vec<u64>,
    total: u64,
}

impl WearTracker {
    /// A tracker over `rows` rows, all pristine.
    pub fn new(rows: u64) -> Self {
        WearTracker {
            counts: vec![0; rows as usize],
            total: 0,
        }
    }

    /// Records one write to `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn record(&mut self, row: u64) {
        self.counts[row as usize] += 1;
        self.total += 1;
    }

    /// Total writes recorded.
    pub fn total_writes(&self) -> u64 {
        self.total
    }

    /// Writes absorbed by the most-worn row.
    pub fn max_wear(&self) -> u64 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// Mean writes per row.
    pub fn mean_wear(&self) -> f64 {
        if self.counts.is_empty() {
            0.0
        } else {
            self.total as f64 / self.counts.len() as f64
        }
    }

    /// Wear imbalance: max over mean (1.0 = perfectly level).
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_wear();
        if mean == 0.0 {
            1.0
        } else {
            self.max_wear() as f64 / mean
        }
    }

    /// Fraction of the endurance budget consumed by the most-worn row.
    pub fn budget_consumed(&self, endurance: &EnduranceModel) -> f64 {
        self.max_wear() as f64 / endurance.write_endurance as f64
    }
}

/// Start-gap wear leveling over a region of `rows` logical rows backed by
/// `rows + 1` physical rows.
///
/// A *gap* (unused physical row) starts at the end of the region. Every
/// `gap_period` writes the row just before the gap is copied into it and
/// the gap moves down one position; when the gap reaches slot 0 it wraps
/// back to the end (copying the last slot down) and the rotation offset
/// advances — after enough sweeps every logical row has visited every
/// physical slot. The logical→physical map is algebraic (no table):
///
/// ```text
/// base     = (logical + start) % rows
/// physical = base + 1  if base >= gap  else  base
/// ```
///
/// # Examples
///
/// ```
/// use comet::StartGapRemapper;
///
/// let mut sg = StartGapRemapper::new(8, 4);
/// // Hammer one logical row: physical targets rotate over time.
/// let mut seen = std::collections::HashSet::new();
/// for _ in 0..200 {
///     seen.insert(sg.write(3));
/// }
/// assert!(seen.len() > 4, "hot row spread over {} physical rows", seen.len());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartGapRemapper {
    rows: u64,
    gap_period: u64,
    /// Physical index of the gap (the spare, unmapped row).
    gap: u64,
    /// Rotation offset: how many full gap sweeps have completed.
    start: u64,
    /// Writes since the last gap move.
    since_move: u64,
    /// Extra writes caused by gap moves (each move copies one row).
    move_writes: u64,
}

impl StartGapRemapper {
    /// Creates a leveler for `rows` logical rows, moving the gap every
    /// `gap_period` writes.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero or `gap_period` is zero.
    pub fn new(rows: u64, gap_period: u64) -> Self {
        assert!(rows > 0, "need at least one row");
        assert!(gap_period > 0, "gap period must be positive");
        StartGapRemapper {
            rows,
            gap_period,
            gap: rows, // spare row sits at the end initially
            start: 0,
            since_move: 0,
            move_writes: 0,
        }
    }

    /// Logical row count.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Physical rows managed (logical + 1 spare).
    pub fn physical_rows(&self) -> u64 {
        self.rows + 1
    }

    /// Write amplification from gap-move copies so far.
    pub fn move_writes(&self) -> u64 {
        self.move_writes
    }

    /// The current logical→physical mapping (read path; does not count as
    /// a write).
    ///
    /// # Panics
    ///
    /// Panics if `logical` is out of range.
    pub fn map(&self, logical: u64) -> u64 {
        assert!(logical < self.rows, "logical row {logical} out of range");
        let base = (logical + self.start) % self.rows;
        if base >= self.gap {
            base + 1
        } else {
            base
        }
    }

    /// Records a write to `logical`, returning the physical row that
    /// absorbed it, and advances the gap when due.
    pub fn write(&mut self, logical: u64) -> u64 {
        let phys = self.map(logical);
        self.since_move += 1;
        if self.since_move >= self.gap_period {
            self.since_move = 0;
            self.advance_gap();
        }
        phys
    }

    /// Moves the gap one position down (copying the displaced row).
    fn advance_gap(&mut self) {
        self.move_writes += 1;
        if self.gap == 0 {
            // Wrap: the last physical slot is vacated into slot 0 and the
            // whole region's rotation advances by one.
            self.gap = self.rows;
            self.start = (self.start + 1) % self.rows;
        } else {
            self.gap -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn mapping_is_injective_at_every_gap_position() {
        let mut sg = StartGapRemapper::new(16, 1);
        // Drive enough writes to sweep the gap through several full
        // rotations, checking injectivity continuously.
        for step in 0..200 {
            let mapped: HashSet<u64> = (0..16).map(|l| sg.map(l)).collect();
            assert_eq!(mapped.len(), 16, "collision at step {step}");
            for l in 0..16 {
                let p = sg.map(l);
                assert!(p < sg.physical_rows());
                assert_ne!(p, sg.gap, "logical row mapped onto the gap");
            }
            let _ = sg.write(step % 16);
        }
    }

    #[test]
    fn hot_row_spreads_over_physical_rows() {
        let mut sg = StartGapRemapper::new(64, 8);
        let mut wear = WearTracker::new(sg.physical_rows());
        for _ in 0..100_000 {
            wear.record(sg.write(7));
        }
        // Without leveling the imbalance would be rows+1 = 65 (all writes
        // on one of 65 rows); start-gap flattens it dramatically.
        assert!(
            wear.imbalance() < 3.0,
            "imbalance {} should be near 1",
            wear.imbalance()
        );
    }

    #[test]
    fn uniform_traffic_stays_uniform() {
        let mut sg = StartGapRemapper::new(32, 16);
        let mut wear = WearTracker::new(sg.physical_rows());
        for i in 0..33_000u64 {
            wear.record(sg.write(i % 32));
        }
        assert!(wear.imbalance() < 1.2, "imbalance {}", wear.imbalance());
    }

    #[test]
    fn write_amplification_is_bounded_by_gap_period() {
        let mut sg = StartGapRemapper::new(64, 100);
        for i in 0..10_000u64 {
            let _ = sg.write(i % 64);
        }
        // One extra copy per gap_period writes: 1% overhead at period 100.
        let amplification = sg.move_writes() as f64 / 10_000.0;
        assert!((amplification - 0.01).abs() < 0.001, "amp {amplification}");
    }

    #[test]
    fn wear_tracker_statistics() {
        let mut w = WearTracker::new(4);
        for _ in 0..10 {
            w.record(0);
        }
        w.record(1);
        w.record(2);
        assert_eq!(w.total_writes(), 12);
        assert_eq!(w.max_wear(), 10);
        assert!((w.mean_wear() - 3.0).abs() < 1e-12);
        assert!((w.imbalance() - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lifetime_estimate() {
        let e = EnduranceModel::default();
        // 1000 writes/s to the hottest row: 1e9 / 1e3 = 1e6 s ≈ 11.6 days.
        let l = e.lifetime(1000.0);
        assert!((l.as_seconds() - 1e6).abs() < 1.0);
        let mut w = WearTracker::new(2);
        w.record(0);
        assert!((w.budget_consumed(&e) - 1e-9).abs() < 1e-18);
    }

    #[test]
    fn gap_never_collides_with_mapped_rows_over_long_runs() {
        let mut sg = StartGapRemapper::new(8, 1);
        // 8+1 physical rows, gap moves every write: run several full
        // start rotations ((rows+1)^2 moves).
        for i in 0..((9 * 9) * 4) {
            let mapped: HashSet<u64> = (0..8).map(|l| sg.map(l)).collect();
            assert!(!mapped.contains(&sg.gap), "step {i}");
            let _ = sg.write(i % 8);
        }
    }
}
