//! Multi-level-cell programming tables (the paper's Fig. 6).
//!
//! The paper programs a 4-bit GST cell to 16 *equally spaced transmission
//! levels* (≈6 % spacing) and reports, per level, the transition latency and
//! crystalline fraction, under two programming modes:
//!
//! * **Case 1 — crystalline reset**: the reset state is fully crystalline
//!   (880 pJ reset pulse); levels are written by *partial amorphization*
//!   with short high-power (5 mW) melt pulses.
//! * **Case 2 — amorphous reset**: the reset state is fully amorphous
//!   (280 pJ reset pulse); levels are written by *partial crystallization*
//!   with longer low-power (1 mW) pulses that are thermally self-limiting.
//!
//! [`ProgramTable::generate`] inverts the coupled optics+thermal model: for
//! each target transmittance it finds the crystalline fraction (bisection on
//! the optics), then the pulse duration that reaches that fraction
//! (bisection/scan on the transient simulation).

use crate::thermal::{CellState, CellThermalModel, HeatingRun, PulseSpec};
use comet_units::{Energy, Power, Time, Transmittance};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// Transmittance added above the fully crystalline state before placing
/// the deepest level (the programming guard band — see
/// [`ProgramTable::usable_transmittance_range`]).
pub const CRYSTALLINE_GUARD: f64 = 0.04;

/// The floor under the deepest level's transmittance.
pub const LEVEL_TRANSMITTANCE_FLOOR: f64 = 0.05;

/// The longest level-write pulse the amorphous-reset search tries, ns.
const AMORPHOUS_LEVEL_CEILING_NS: f64 = 3000.0;

/// The longest level-write pulse the crystalline-reset search tries, ns.
const CRYSTALLINE_LEVEL_CEILING_NS: f64 = 500.0;

/// Which state the cell is erased to before level writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgramMode {
    /// Reset = fully crystalline; writes amorphize partially (5 mW pulses).
    CrystallineReset,
    /// Reset = fully amorphous; writes crystallize partially (1 mW pulses).
    AmorphousReset,
}

impl ProgramMode {
    /// Both modes, case-study order of the paper.
    pub const ALL: [ProgramMode; 2] = [ProgramMode::CrystallineReset, ProgramMode::AmorphousReset];

    /// The optical power used for per-level write pulses in this mode.
    pub fn write_power(self) -> Power {
        match self {
            ProgramMode::CrystallineReset => Power::from_milliwatts(5.0),
            ProgramMode::AmorphousReset => Power::from_milliwatts(1.0),
        }
    }

    /// The optical power used for the reset pulse in this mode.
    pub fn reset_power(self) -> Power {
        match self {
            ProgramMode::CrystallineReset => Power::from_milliwatts(1.0),
            ProgramMode::AmorphousReset => Power::from_milliwatts(5.0),
        }
    }
}

impl fmt::Display for ProgramMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramMode::CrystallineReset => write!(f, "crystalline-reset"),
            ProgramMode::AmorphousReset => write!(f, "amorphous-reset"),
        }
    }
}

/// One programmable level of the MLC table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelSpec {
    /// Level index (0 = highest transmittance = most amorphous).
    pub level: u8,
    /// Target read-out transmittance.
    pub transmittance: Transmittance,
    /// Crystalline fraction realizing the target.
    pub crystalline_fraction: f64,
    /// Write pulse that programs this level from the reset state.
    pub pulse: PulseSpec,
}

impl LevelSpec {
    /// Optical energy of the write pulse.
    pub fn energy(&self) -> Energy {
        self.pulse.energy()
    }

    /// Write latency (pulse duration).
    pub fn latency(&self) -> Time {
        self.pulse.duration
    }
}

/// The reset (erase) operation of a mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResetSpec {
    /// The erase pulse (valid from any starting state).
    pub pulse: PulseSpec,
    /// Crystalline fraction of the reset state.
    pub fraction: f64,
}

impl ResetSpec {
    /// Optical energy of the reset pulse.
    pub fn energy(&self) -> Energy {
        self.pulse.energy()
    }
}

/// Errors from table generation.
#[derive(Debug, Clone, PartialEq)]
pub enum GenerateTableError {
    /// The requested level count needs transmittance range the cell lacks.
    InsufficientContrast {
        /// Levels requested.
        levels: u8,
        /// Achievable transmittance span.
        span: f64,
    },
    /// The transient solver could not reach a target fraction within the
    /// search budget (calibration inconsistent).
    Unreachable {
        /// Level index that failed.
        level: u8,
        /// Target crystalline fraction.
        target: f64,
    },
}

impl fmt::Display for GenerateTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateTableError::InsufficientContrast { levels, span } => write!(
                f,
                "cell transmittance span {span:.3} cannot host {levels} distinguishable levels"
            ),
            GenerateTableError::Unreachable { level, target } => write!(
                f,
                "no pulse duration reaches level {level} (fraction {target:.3})"
            ),
        }
    }
}

impl std::error::Error for GenerateTableError {}

/// A complete multi-level programming table for one cell and mode.
///
/// # Examples
///
/// ```no_run
/// use opcm_phys::{CellThermalModel, ProgramMode, ProgramTable};
///
/// let model = CellThermalModel::comet_gst();
/// let table = ProgramTable::generate(&model, ProgramMode::AmorphousReset, 4)?;
/// assert_eq!(table.levels.len(), 16);
/// # Ok::<(), opcm_phys::GenerateTableError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramTable {
    /// Programming mode.
    pub mode: ProgramMode,
    /// Bits per cell (levels = 2^bits).
    pub bits: u8,
    /// All levels, index 0 = most transmissive.
    pub levels: Vec<LevelSpec>,
    /// The erase operation.
    pub reset: ResetSpec,
    /// Spacing between adjacent level transmittances.
    pub spacing: f64,
}

/// Cache key: (model fingerprint, mode, bits).
type TableKey = (u64, ProgramMode, u8);

/// One memo slot: filled once by the first caller, which every other
/// caller of the same key waits for.
type TableSlot = Arc<OnceLock<Result<ProgramTable, GenerateTableError>>>;

/// The process-wide memo of generated tables. Tables are small (≤ 64
/// levels of plain scalars), so the cache never needs eviction — a process
/// touches a handful of models.
fn table_cache() -> &'static Mutex<HashMap<TableKey, TableSlot>> {
    static CACHE: OnceLock<Mutex<HashMap<TableKey, TableSlot>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A value fingerprint of a thermal model: FNV-1a over its full `Debug`
/// rendering. Floats print at shortest-round-trip precision, so two models
/// collide only if every parameter (optics, geometry, material, thermal
/// calibration, wavelength, derived LUTs) is bit-identical — exactly the
/// condition under which their program tables are interchangeable.
fn model_fingerprint(model: &CellThermalModel) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{model:?}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl ProgramTable {
    /// Generates a table by inverting `model` for `2^bits` equally spaced
    /// transmission levels.
    ///
    /// The pulse search behind a table costs a few milliseconds (one
    /// shared heating run plus a few hundred cool-down simulations — still
    /// the workspace's slowest kernel), so generations are memoized
    /// process-wide: repeated calls with an identical model return a clone
    /// of the cached table (or error). Each key is generated once: threads
    /// that ask for a key while it is being generated wait for that result
    /// instead of repeating the search. Use
    /// [`ProgramTable::generate_uncached`] to force the full search.
    ///
    /// # Errors
    ///
    /// Returns [`GenerateTableError`] if the cell's optical contrast cannot
    /// host the requested level count or a level proves unreachable.
    pub fn generate(
        model: &CellThermalModel,
        mode: ProgramMode,
        bits: u8,
    ) -> Result<ProgramTable, GenerateTableError> {
        assert!((1..=6).contains(&bits), "bits per cell must be in 1..=6");
        let key = (model_fingerprint(model), mode, bits);
        // Hold the map lock only to find the slot, not while generating.
        let slot = Arc::clone(
            table_cache()
                .lock()
                .expect("cache lock")
                .entry(key)
                .or_default(),
        );
        slot.get_or_init(|| Self::generate_uncached(model, mode, bits))
            .clone()
    }

    /// The number of memoized tables (diagnostics/tests).
    pub fn cached_tables() -> usize {
        table_cache()
            .lock()
            .expect("cache lock")
            .values()
            .filter(|slot| matches!(slot.get(), Some(Ok(_))))
            .count()
    }

    /// The usable transmittance range `(t_min, t_max)` level grids are
    /// sliced from, with a guard band at the crystalline end: fully
    /// crystalline levels are asymptotically slow to program and suffer
    /// the worst read-out loss, so — like the paper's COSMOS remodeling,
    /// which avoids "the high losses at high crystalline fractions" — the
    /// deepest level stops short of `p = 1`
    /// ([`CRYSTALLINE_GUARD`]/[`LEVEL_TRANSMITTANCE_FLOOR`]).
    ///
    /// This is the single authority on the range: both the programming
    /// tables generated here and the circuit layer's derived cell model
    /// (`photonic::DerivedCellModel`) slice the same interval, so the two
    /// layers cannot desynchronize under recalibration.
    pub fn usable_transmittance_range(
        optics: &crate::cell_optics::CellOpticalModel,
        lambda: comet_units::Length,
    ) -> (f64, f64) {
        let t_max = optics.transmittance(0.0, lambda).value();
        let t_min = (optics.transmittance(1.0, lambda).value() + CRYSTALLINE_GUARD)
            .max(LEVEL_TRANSMITTANCE_FLOOR);
        (t_min, t_max)
    }

    /// [`ProgramTable::generate`] without the memo: always runs the full
    /// pulse search. Each level's duration is bisected on cool-down
    /// simulations from one shared heating run (see
    /// [`CellThermalModel::apply_pulse`] for the model), which gives the
    /// same table, bit for bit, as simulating every probe pulse in full.
    ///
    /// # Errors
    ///
    /// Returns [`GenerateTableError`] if the cell's optical contrast cannot
    /// host the requested level count or a level proves unreachable.
    pub fn generate_uncached(
        model: &CellThermalModel,
        mode: ProgramMode,
        bits: u8,
    ) -> Result<ProgramTable, GenerateTableError> {
        assert!((1..=6).contains(&bits), "bits per cell must be in 1..=6");
        let n_levels = 1u16 << bits;
        let lambda = model.wavelength();
        let optics = model.optics();

        // Equally spaced transmittance targets between the achievable
        // endpoints (see `usable_transmittance_range` for the guard band).
        let (t_min, t_max) = Self::usable_transmittance_range(optics, lambda);
        let span = t_max - t_min;
        // Require at least 2% spacing for levels to be distinguishable.
        let spacing = span / (n_levels - 1) as f64;
        if spacing < 0.02 {
            return Err(GenerateTableError::InsufficientContrast {
                levels: n_levels as u8,
                span,
            });
        }

        let reset = Self::solve_reset(model, mode);

        // Every level's pulse search probes durations from the same reset
        // state at the same power, so the levels share one heating run.
        let (start, ceiling) = match mode {
            ProgramMode::AmorphousReset => (CellState::amorphous(), AMORPHOUS_LEVEL_CEILING_NS),
            ProgramMode::CrystallineReset => {
                (CellState::crystalline(), CRYSTALLINE_LEVEL_CEILING_NS)
            }
        };
        let heating = HeatingRun::new(model, start, mode.write_power(), Time::from_nanos(ceiling));

        let mut levels = Vec::with_capacity(n_levels as usize);
        for k in 0..n_levels {
            let target_t = Transmittance::new(t_max - spacing * k as f64);
            let fraction = optics
                .fraction_for_transmittance(target_t, lambda)
                .unwrap_or(if k == 0 { 0.0 } else { 1.0 });
            let pulse = Self::solve_level_pulse(&heating, mode, fraction).ok_or(
                GenerateTableError::Unreachable {
                    level: k as u8,
                    target: fraction,
                },
            )?;
            levels.push(LevelSpec {
                level: k as u8,
                transmittance: target_t,
                crystalline_fraction: fraction,
                pulse,
            });
        }

        Ok(ProgramTable {
            mode,
            bits,
            levels,
            reset,
            spacing,
        })
    }

    /// Finds the reset pulse: the shortest duration guaranteeing the reset
    /// state from *any* starting fraction.
    fn solve_reset(model: &CellThermalModel, mode: ProgramMode) -> ResetSpec {
        let power = mode.reset_power();
        let starts = [0.0, 0.25, 0.5, 0.75, 1.0];
        match mode {
            ProgramMode::AmorphousReset => {
                // Scan upward (outcome is thresholded, not monotone for
                // short pulses that crystallize without melting).
                let mut d = 20.0;
                while d <= 1000.0 {
                    let ok = starts.iter().all(|&s| {
                        let out = model.apply_pulse(
                            CellState::at_fraction(s),
                            PulseSpec::new(power, Time::from_nanos(d)),
                        );
                        out.state.crystalline_fraction < 0.02
                    });
                    if ok {
                        return ResetSpec {
                            pulse: PulseSpec::new(power, Time::from_nanos(d)),
                            fraction: 0.0,
                        };
                    }
                    d += 5.0;
                }
                // Fall back to the scan ceiling.
                ResetSpec {
                    pulse: PulseSpec::new(power, Time::from_nanos(1000.0)),
                    fraction: 0.0,
                }
            }
            ProgramMode::CrystallineReset => {
                // Crystallization is monotone in duration: bisect for the
                // slowest start (fully amorphous).
                let target = 0.98;
                let ceiling = 4000.0;
                let heating = HeatingRun::new(
                    model,
                    CellState::amorphous(),
                    power,
                    Time::from_nanos(ceiling),
                );
                let reaches = |d: f64| {
                    heating
                        .apply(Time::from_nanos(d))
                        .state
                        .crystalline_fraction
                        >= target
                };
                let (mut lo, mut hi) = (50.0, ceiling);
                if !reaches(hi) {
                    return ResetSpec {
                        pulse: PulseSpec::new(power, Time::from_nanos(hi)),
                        fraction: 1.0,
                    };
                }
                for _ in 0..30 {
                    let mid = 0.5 * (lo + hi);
                    if reaches(mid) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                ResetSpec {
                    pulse: PulseSpec::new(power, Time::from_nanos(hi)),
                    fraction: 1.0,
                }
            }
        }
    }

    /// Finds the pulse programming crystalline fraction `target` from the
    /// reset state of `mode`, probing durations on `heating` (that state at
    /// the mode's write power, up to the mode's level ceiling). Returns
    /// `None` if unreachable.
    fn solve_level_pulse(
        heating: &HeatingRun<'_>,
        mode: ProgramMode,
        target: f64,
    ) -> Option<PulseSpec> {
        let power = mode.write_power();
        let result_at = |d: f64| {
            heating
                .apply(Time::from_nanos(d))
                .state
                .crystalline_fraction
        };
        match mode {
            ProgramMode::AmorphousReset => {
                // From p=0, fraction grows monotonically with duration.
                if target <= 1e-3 {
                    return Some(PulseSpec::new(power, Time::ZERO));
                }
                let hi_limit = AMORPHOUS_LEVEL_CEILING_NS;
                if result_at(hi_limit) < target {
                    return None;
                }
                let (mut lo, mut hi) = (0.0, hi_limit);
                for _ in 0..28 {
                    let mid = 0.5 * (lo + hi);
                    if result_at(mid) < target {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                Some(PulseSpec::new(power, Time::from_nanos(hi)))
            }
            ProgramMode::CrystallineReset => {
                // From p=1, fraction falls monotonically with duration
                // (deeper melt). Level 0 (fully amorphous) = longest pulse.
                if target >= 1.0 - 1e-3 {
                    return Some(PulseSpec::new(power, Time::ZERO));
                }
                let hi_limit = CRYSTALLINE_LEVEL_CEILING_NS;
                if result_at(hi_limit) > target {
                    return None;
                }
                let (mut lo, mut hi) = (0.0, hi_limit);
                for _ in 0..28 {
                    let mid = 0.5 * (lo + hi);
                    if result_at(mid) > target {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                Some(PulseSpec::new(power, Time::from_nanos(hi)))
            }
        }
    }

    /// The slowest per-level write in the table.
    pub fn max_write_latency(&self) -> Time {
        self.levels
            .iter()
            .map(|l| l.latency())
            .fold(Time::ZERO, Time::max)
    }

    /// The most energetic per-level write in the table.
    pub fn max_write_energy(&self) -> Energy {
        self.levels
            .iter()
            .map(|l| l.energy())
            .fold(Energy::ZERO, Energy::max)
    }

    /// Looks up a level spec by index.
    pub fn level(&self, level: u8) -> Option<&LevelSpec> {
        self.levels.get(level as usize)
    }

    /// The level whose transmittance is closest to an observed read-out —
    /// the decode step of an MLC read.
    pub fn decode(&self, observed: Transmittance) -> u8 {
        self.levels
            .iter()
            .min_by(|a, b| {
                let da = (a.transmittance.value() - observed.value()).abs();
                let db = (b.transmittance.value() - observed.value()).abs();
                da.partial_cmp(&db).expect("transmittance is finite")
            })
            .map(|l| l.level)
            .unwrap_or(0)
    }

    /// The optical loss margin of the table: the worst-case loss (in linear
    /// transmission terms) a read-out can suffer before two adjacent levels
    /// become indistinguishable — half the level spacing.
    pub fn loss_margin(&self) -> f64 {
        self.spacing / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn model() -> &'static CellThermalModel {
        static MODEL: OnceLock<CellThermalModel> = OnceLock::new();
        MODEL.get_or_init(CellThermalModel::comet_gst)
    }

    fn table_mode2() -> &'static ProgramTable {
        static TABLE: OnceLock<ProgramTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            ProgramTable::generate(model(), ProgramMode::AmorphousReset, 4).expect("generate")
        })
    }

    fn table_mode1() -> &'static ProgramTable {
        static TABLE: OnceLock<ProgramTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            ProgramTable::generate(model(), ProgramMode::CrystallineReset, 4).expect("generate")
        })
    }

    #[test]
    fn sixteen_levels_with_six_percent_spacing() {
        let t = table_mode2();
        assert_eq!(t.levels.len(), 16);
        // Paper: "16 distinctive and equally spaced transmission levels
        // (with 6% spacing)".
        assert!(
            (0.045..=0.075).contains(&t.spacing),
            "spacing {}",
            t.spacing
        );
        for pair in t.levels.windows(2) {
            let d = pair[0].transmittance.value() - pair[1].transmittance.value();
            assert!((d - t.spacing).abs() < 1e-9);
        }
    }

    #[test]
    fn fractions_monotone_in_level() {
        for t in [table_mode1(), table_mode2()] {
            for pair in t.levels.windows(2) {
                assert!(pair[1].crystalline_fraction > pair[0].crystalline_fraction);
            }
            assert!(t.levels[0].crystalline_fraction < 0.05);
            assert!(t.levels[15].crystalline_fraction > 0.5);
        }
    }

    #[test]
    fn mode2_latency_grows_with_level() {
        // Deeper crystallization takes longer (Fig. 6 latency curve).
        let t = table_mode2();
        for pair in t.levels.windows(2) {
            assert!(
                pair[1].latency() >= pair[0].latency(),
                "latency not monotone between level {} and {}",
                pair[0].level,
                pair[1].level
            );
        }
        assert!(
            t.levels[0].latency().is_zero(),
            "level 0 is the reset state"
        );
    }

    #[test]
    fn mode2_write_latency_anchor() {
        // Table II: max write time 170 ns (we assert the right decade).
        let max = table_mode2().max_write_latency().as_nanos();
        assert!((80.0..=400.0).contains(&max), "max write latency {max} ns");
    }

    #[test]
    fn mode2_reset_energy_anchor() {
        // Paper: amorphous reset = 280 pJ.
        let e = table_mode2().reset.energy().as_picojoules();
        assert!((150.0..=600.0).contains(&e), "reset energy {e} pJ");
        assert_eq!(table_mode2().reset.fraction, 0.0);
    }

    #[test]
    fn mode1_reset_energy_anchor() {
        // Paper: crystalline reset = 880 pJ.
        let e = table_mode1().reset.energy().as_picojoules();
        assert!((300.0..=1500.0).contains(&e), "reset energy {e} pJ");
        assert_eq!(table_mode1().reset.fraction, 1.0);
    }

    #[test]
    fn mode1_latency_decreases_with_level() {
        // In crystalline-reset mode, level 0 (fully amorphous) needs the
        // deepest melt = the longest pulse; level 15 is nearly free.
        let t = table_mode1();
        for pair in t.levels.windows(2) {
            assert!(pair[1].latency() <= pair[0].latency() + Time::from_nanos(0.1));
        }
        // The shallowest level barely crosses the melt onset; the deepest
        // (level 0, fully amorphous) needs the longest melt pulse.
        assert!(t.levels[15].latency() < Time::from_nanos(16.0));
        assert!(t.levels[0].latency() > t.levels[15].latency() + Time::from_nanos(2.0));
    }

    #[test]
    fn programmed_levels_verify_against_simulation() {
        // Round-trip: applying each level's pulse from reset must land the
        // transmittance within half a level spacing (else reads misdecode).
        let t = table_mode2();
        let m = model();
        let lambda = m.wavelength();
        for level in t.levels.iter().step_by(3) {
            let out = m.apply_pulse(CellState::amorphous(), level.pulse);
            let got = m
                .optics()
                .transmittance(out.state.crystalline_fraction, lambda)
                .value();
            let err = (got - level.transmittance.value()).abs();
            assert!(
                err < t.loss_margin(),
                "level {}: transmittance {got:.4} vs target {:.4}",
                level.level,
                level.transmittance
            );
        }
    }

    #[test]
    fn decode_identifies_levels() {
        let t = table_mode2();
        for level in &t.levels {
            assert_eq!(t.decode(level.transmittance), level.level);
        }
        // Slightly perturbed read-outs still decode correctly.
        let l7 = &t.levels[7];
        let perturbed = Transmittance::new(l7.transmittance.value() + t.spacing * 0.3);
        assert_eq!(t.decode(perturbed), 7);
    }

    #[test]
    fn cached_generation_matches_uncached() {
        let m = model();
        let uncached =
            ProgramTable::generate_uncached(m, ProgramMode::AmorphousReset, 2).expect("generate");
        let first = ProgramTable::generate(m, ProgramMode::AmorphousReset, 2).expect("generate");
        let second = ProgramTable::generate(m, ProgramMode::AmorphousReset, 2).expect("generate");
        assert_eq!(first, uncached);
        assert_eq!(second, uncached);
        assert!(ProgramTable::cached_tables() >= 1);
    }

    #[test]
    fn cache_distinguishes_models() {
        // A perturbed calibration must never hit the default model's cache
        // entry: the memoized result has to equal its own uncached search.
        let base = model();
        let mut params = *base.params();
        params.ambient = comet_units::Temperature::from_kelvin(params.ambient.as_kelvin() + 25.0);
        let warm = CellThermalModel::new(base.optics().clone(), params, base.wavelength());
        // Populate/exercise the default model's entry first.
        let _ = ProgramTable::generate(base, ProgramMode::AmorphousReset, 1).expect("generate");
        let cached = ProgramTable::generate(&warm, ProgramMode::AmorphousReset, 1).expect("warm");
        let direct =
            ProgramTable::generate_uncached(&warm, ProgramMode::AmorphousReset, 1).expect("warm");
        assert_eq!(cached, direct);
    }

    /// FNV-1a (64-bit) over the bit patterns of every float a table holds.
    fn table_digest(t: &ProgramTable) -> u64 {
        let mut words = vec![t.spacing.to_bits()];
        for pulse in [t.reset.pulse]
            .iter()
            .chain(t.levels.iter().map(|l| &l.pulse))
        {
            words.push(pulse.duration.as_seconds().to_bits());
            words.push(pulse.power.as_watts().to_bits());
        }
        words.push(t.reset.fraction.to_bits());
        for l in &t.levels {
            words.push(l.crystalline_fraction.to_bits());
            words.push(l.transmittance.value().to_bits());
        }
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn generated_tables_are_pinned_bit_for_bit() {
        // Any change to the pulse search, the thermal integrator or the
        // optics inversion that moves a single bit of a table moves these.
        let cases = [
            (ProgramMode::AmorphousReset, 1, 0xf318_8aa5_e748_fa0e_u64),
            (ProgramMode::AmorphousReset, 2, 0xd2b6_4ce6_e193_c6c4),
            (ProgramMode::AmorphousReset, 3, 0xfe64_cd58_eb30_7355),
            (ProgramMode::AmorphousReset, 4, 0xcaf2_dcf7_bfd5_8f20),
            (ProgramMode::CrystallineReset, 4, 0x6f24_ffb1_209b_561e),
        ];
        let got: Vec<String> = cases
            .iter()
            .map(|&(mode, bits, _)| {
                let t = ProgramTable::generate_uncached(model(), mode, bits).expect("generate");
                format!("{mode} {bits}: {:016x}", table_digest(&t))
            })
            .collect();
        let want: Vec<String> = cases
            .iter()
            .map(|&(mode, bits, digest)| format!("{mode} {bits}: {digest:016x}"))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn concurrent_misses_get_one_table() {
        // Threads that miss on the same key at once all get the one table
        // the memo slot holds, and the memo gains that entry.
        let base = model();
        let mut params = *base.params();
        params.sink_conductance *= 1.01;
        let cooler = CellThermalModel::new(base.optics().clone(), params, base.wavelength());
        let before = ProgramTable::cached_tables();
        let start = std::sync::Barrier::new(3);
        let tables: Vec<ProgramTable> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        ProgramTable::generate(&cooler, ProgramMode::AmorphousReset, 2)
                            .expect("generate")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generating thread panicked"))
                .collect()
        });
        let direct =
            ProgramTable::generate_uncached(&cooler, ProgramMode::AmorphousReset, 2).expect("gen");
        assert!(tables.iter().all(|t| *t == direct));
        assert!(ProgramTable::cached_tables() > before);
    }

    #[test]
    fn insufficient_contrast_detected() {
        // 6 bits = 64 levels needs <2% spacing given ~95% span: must error.
        let err = ProgramTable::generate(model(), ProgramMode::AmorphousReset, 6);
        assert!(matches!(
            err,
            Err(GenerateTableError::InsufficientContrast { .. })
        ));
    }

    #[test]
    fn mode_powers() {
        assert_eq!(
            ProgramMode::CrystallineReset.write_power(),
            Power::from_milliwatts(5.0)
        );
        assert_eq!(
            ProgramMode::AmorphousReset.write_power(),
            Power::from_milliwatts(1.0)
        );
        assert_eq!(
            ProgramMode::AmorphousReset.reset_power(),
            Power::from_milliwatts(5.0)
        );
    }
}
