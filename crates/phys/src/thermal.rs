//! Transient thermal programming model of an OPCM cell.
//!
//! Stands in for the paper's Ansys Lumerical HEAT simulations (Section
//! III.B): *"transient unsteady-state heat transfer equations to capture the
//! time-dependent temperature distribution over the OPCM's cell volume"*.
//!
//! # Model
//!
//! A 2 µm GST-on-SOI cell is thermally fast and nearly isothermal (silicon
//! conducts ~370× better than GST), so the film is represented by a lumped
//! thermal node with three physical ingredients that together produce the
//! paper's programming behaviour:
//!
//! 1. **Self-consistent optical heating.** The absorbed power is
//!    `P · A(q)` where the absorptance `A` comes from [`CellOpticalModel`]
//!    at the *current* effective crystalline fraction `q` (molten material
//!    absorbs like the crystalline phase). More crystalline ⇒ more
//!    absorption ⇒ hotter: the positive feedback that makes optical writes
//!    work. At write intensities a nonlinear absorption floor (two-photon /
//!    free-carrier absorption in the Si core) guarantees a minimum coupling
//!    even for a fully amorphous film.
//! 2. **Latent-heat-buffered melting.** When the node reaches the melting
//!    point the temperature clamps while excess power converts material to
//!    melt — so the *melt fraction* is a smooth, energy-controlled analog
//!    quantity. This is what makes partial amorphization (multi-level
//!    writes in crystalline-reset mode) controllable.
//! 3. **Bell-shaped crystallization kinetics.** Between the crystallization
//!    onset `T_g` and the melting point `T_l` the unmelted material
//!    crystallizes at `dp/dt = r(T)·(1−p)` with `r` peaking mid-window
//!    (nucleation-growth compromise). Above `T_l` nothing crystallizes;
//!    melt-quenched material re-solidifies amorphous (the quench rate at
//!    these geometries exceeds the critical rate, so re-crystallization
//!    during cool-down of freshly molten material is suppressed).
//!
//! # Calibration
//!
//! The defaults reproduce the paper's anchors (tests assert them):
//! * full amorphization (reset, case 2) at 5 mW in ≈56 ns ⇒ ≈280 pJ;
//! * full crystallization (reset, case 1) at 1 mW in the several-hundred-ns
//!   range ⇒ hundreds of pJ (paper: 880 pJ);
//! * 1 mW writes are **self-limiting**: the steady-state temperature stays
//!   below the melting point at every crystalline fraction, so a
//!   crystallization pulse can never destroy data by melting;
//! * multi-level write latencies land in the tens-to-~200 ns range
//!   (Table II: max write 170 ns, erase 210 ns).

use crate::cell_optics::CellOpticalModel;
use comet_units::{Energy, Length, Power, Temperature, Time};

use crate::materials::Silicon;

/// Tuning constants of the lumped thermal model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalParams {
    /// Total conductance from the hot node to ambient (BOX conduction plus
    /// lateral/fin spreading), W/K.
    pub sink_conductance: f64,
    /// Fraction of the Si core's heat capacity that participates on write
    /// timescales (3-D spreading means the full core never charges).
    pub core_participation: f64,
    /// Minimum absorptance during write pulses (nonlinear write assist).
    pub write_assist_floor: f64,
    /// Pulse power at and above which the write-assist floor applies.
    pub write_assist_threshold: Power,
    /// Volumetric latent heat of fusion of the PCM, J/m³.
    pub latent_heat: f64,
    /// Peak crystallization rate, 1/s.
    pub crystallization_rate: f64,
    /// Width (std-dev) of the crystallization rate bell, K.
    pub rate_bell_sigma: f64,
    /// Ambient / heat-sink temperature.
    pub ambient: Temperature,
    /// Integration time step.
    pub time_step: Time,
}

impl Default for ThermalParams {
    fn default() -> Self {
        ThermalParams {
            sink_conductance: 1.8e-6,
            core_participation: 0.15,
            write_assist_floor: 0.30,
            write_assist_threshold: Power::from_milliwatts(0.5),
            latent_heat: 1.3e9,
            crystallization_rate: 2.0e7,
            rate_bell_sigma: 120.0,
            ambient: Temperature::AMBIENT,
            time_step: Time::from_nanos(0.25),
        }
    }
}

/// The programmable state of one OPCM cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellState {
    /// Crystalline volume fraction of the (solid) film, `[0, 1]`.
    pub crystalline_fraction: f64,
    /// Current temperature of the thermal node.
    pub temperature: Temperature,
}

impl CellState {
    /// A fully amorphous cell at ambient temperature.
    pub fn amorphous() -> Self {
        CellState {
            crystalline_fraction: 0.0,
            temperature: Temperature::AMBIENT,
        }
    }

    /// A fully crystalline cell at ambient temperature.
    pub fn crystalline() -> Self {
        CellState {
            crystalline_fraction: 1.0,
            temperature: Temperature::AMBIENT,
        }
    }

    /// A cell at a given crystalline fraction, at ambient temperature.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn at_fraction(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "fraction must be in [0,1], got {p}"
        );
        CellState {
            crystalline_fraction: p,
            temperature: Temperature::AMBIENT,
        }
    }
}

impl Default for CellState {
    fn default() -> Self {
        CellState::amorphous()
    }
}

/// A rectangular optical programming pulse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PulseSpec {
    /// Optical power delivered at the cell.
    pub power: Power,
    /// Pulse duration.
    pub duration: Time,
}

impl PulseSpec {
    /// Creates a pulse.
    pub fn new(power: Power, duration: Time) -> Self {
        PulseSpec { power, duration }
    }

    /// The optical energy contained in the pulse.
    pub fn energy(&self) -> Energy {
        self.power * self.duration
    }
}

/// The result of applying one pulse (including the cool-down/quench).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PulseOutcome {
    /// Cell state after the quench completes (back near ambient).
    pub state: CellState,
    /// Peak node temperature reached.
    pub peak_temperature: Temperature,
    /// Total optical energy absorbed by the cell.
    pub absorbed_energy: Energy,
    /// Peak melt fraction reached during the pulse.
    pub peak_melt_fraction: f64,
    /// Whether any melting occurred (⇒ amorphization on quench).
    pub melted: bool,
}

/// One sample of a traced pulse simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSample {
    /// Time since pulse start.
    pub time: Time,
    /// Node temperature.
    pub temperature: Temperature,
    /// Crystalline fraction of the unmelted material.
    pub crystalline_fraction: f64,
    /// Melt fraction.
    pub melt_fraction: f64,
}

/// Lumped transient thermal model of one OPCM cell.
///
/// # Examples
///
/// ```
/// use comet_units::{Power, Time, Length};
/// use opcm_phys::{CellState, CellThermalModel, PulseSpec};
///
/// let model = CellThermalModel::comet_gst();
/// // A 5 mW, 60 ns pulse fully amorphizes a crystalline cell:
/// let out = model.apply_pulse(
///     CellState::crystalline(),
///     PulseSpec::new(Power::from_milliwatts(5.0), Time::from_nanos(60.0)),
/// );
/// assert!(out.melted);
/// assert!(out.state.crystalline_fraction < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct CellThermalModel {
    optics: CellOpticalModel,
    params: ThermalParams,
    wavelength: Length,
    /// Lumped heat capacity, J/K.
    heat_capacity: f64,
    /// Latent heat of the whole film, J.
    melt_enthalpy: f64,
    /// Absorptance lookup vs effective fraction (cheap inner loop).
    absorptance_lut: Vec<f64>,
}

const LUT_SIZE: usize = 257;

impl CellThermalModel {
    /// Builds a model from cell optics and thermal parameters at an
    /// operating wavelength.
    pub fn new(optics: CellOpticalModel, params: ThermalParams, wavelength: Length) -> Self {
        let geom = optics.geometry;
        let pcm = &optics.material.thermal;
        let heat_capacity = pcm.volumetric_heat_capacity() * geom.pcm_volume()
            + params.core_participation * Silicon::volumetric_heat_capacity() * geom.core_volume();
        let melt_enthalpy = params.latent_heat * geom.pcm_volume();
        let absorptance_lut = (0..LUT_SIZE)
            .map(|i| optics.absorptance(i as f64 / (LUT_SIZE - 1) as f64, wavelength))
            .collect();
        CellThermalModel {
            optics,
            params,
            wavelength,
            heat_capacity,
            melt_enthalpy,
            absorptance_lut,
        }
    }

    /// The default COMET GST cell at 1550 nm with default calibration.
    pub fn comet_gst() -> Self {
        CellThermalModel::new(
            CellOpticalModel::comet_gst(),
            ThermalParams::default(),
            crate::materials::reference_wavelength(),
        )
    }

    /// The optical model this thermal model wraps.
    pub fn optics(&self) -> &CellOpticalModel {
        &self.optics
    }

    /// The thermal parameters in use.
    pub fn params(&self) -> &ThermalParams {
        &self.params
    }

    /// The operating wavelength.
    pub fn wavelength(&self) -> Length {
        self.wavelength
    }

    /// Lumped heat capacity of the hot node, J/K.
    pub fn heat_capacity(&self) -> f64 {
        self.heat_capacity
    }

    /// Thermal time constant `C/G` of the node.
    pub fn time_constant(&self) -> Time {
        Time::from_seconds(self.heat_capacity / self.params.sink_conductance)
    }

    /// Interpolated absorptance at effective fraction `q`.
    fn absorptance(&self, q: f64) -> f64 {
        let x = q.clamp(0.0, 1.0) * (LUT_SIZE - 1) as f64;
        let i = (x as usize).min(LUT_SIZE - 2);
        let frac = x - i as f64;
        self.absorptance_lut[i] * (1.0 - frac) + self.absorptance_lut[i + 1] * frac
    }

    /// Crystallization rate at temperature `t` (1/s): a Gaussian bell over
    /// the window `[T_g, T_l]`, zero outside.
    pub fn crystallization_rate(&self, t: Temperature) -> f64 {
        let th = &self.optics.material.thermal;
        let tk = t.as_kelvin();
        if tk <= th.crystallization_onset.as_kelvin() || tk >= th.melting_point.as_kelvin() {
            return 0.0;
        }
        let t_opt = th.optimal_crystallization_temperature().as_kelvin();
        let z = (tk - t_opt) / self.params.rate_bell_sigma;
        self.params.crystallization_rate * (-0.5 * z * z).exp()
    }

    /// Applies one programming pulse (plus quench) to a cell state.
    pub fn apply_pulse(&self, state: CellState, pulse: PulseSpec) -> PulseOutcome {
        self.simulate(state, pulse, &mut None)
    }

    /// Like [`apply_pulse`](Self::apply_pulse) but records a time trace
    /// sampled every `sample_every` steps.
    pub fn apply_pulse_traced(
        &self,
        state: CellState,
        pulse: PulseSpec,
        sample_every: usize,
        trace: &mut Vec<TraceSample>,
    ) -> PulseOutcome {
        self.simulate(state, pulse, &mut Some((sample_every.max(1), trace)))
    }

    /// Integration steps a pulse of `duration` heats for.
    fn pulse_steps(&self, duration: Time) -> usize {
        (duration.as_seconds() / self.params.time_step.as_seconds()).ceil() as usize
    }

    fn simulate(
        &self,
        state: CellState,
        pulse: PulseSpec,
        trace: &mut Option<(usize, &mut Vec<TraceSample>)>,
    ) -> PulseOutcome {
        let run = Integrator::new(self, pulse.power);
        let mut node = run.start(state);
        let pulse_steps = self.pulse_steps(pulse.duration);
        for step in 0..pulse_steps {
            run.step(&mut node, true);
            run.record(trace, step, &node);
        }
        run.cool_down(node, pulse_steps, trace)
    }

    /// Steady-state node temperature for a given absorbed power.
    pub fn steady_state_temperature(&self, absorbed: Power) -> Temperature {
        Temperature::from_kelvin(
            self.params.ambient.as_kelvin() + absorbed.as_watts() / self.params.sink_conductance,
        )
    }

    /// Whether a continuous pulse at `power` can ever melt the film,
    /// i.e. whether the worst-case (fully crystalline/molten) steady-state
    /// temperature reaches the melting point.
    pub fn can_melt_at(&self, power: Power) -> bool {
        let worst = self
            .absorptance(1.0)
            .max(if power >= self.params.write_assist_threshold {
                self.params.write_assist_floor
            } else {
                0.0
            });
        self.steady_state_temperature(Power::from_watts(power.as_watts() * worst))
            >= self.optics.material.thermal.melting_point
    }
}

/// The integrator's running state: everything one time step reads or
/// writes.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Crystalline fraction of the *unmelted* portion.
    p: f64,
    /// Melt fraction.
    mu: f64,
    /// Node temperature, K.
    temp: f64,
    peak_t: f64,
    peak_mu: f64,
    /// Absorbed optical energy so far, J.
    absorbed: f64,
    melted: bool,
}

/// One pulse power's integration constants, hoisted out of the step loop.
struct Integrator<'m> {
    model: &'m CellThermalModel,
    t_melt: f64,
    t_onset: f64,
    ambient: f64,
    g: f64,
    c: f64,
    dt: f64,
    p_in: f64,
    assist: bool,
    /// Cool-down budget: several time constants, capped.
    cooldown_steps: usize,
}

impl<'m> Integrator<'m> {
    fn new(model: &'m CellThermalModel, power: Power) -> Self {
        let th = model.optics.material.thermal;
        let dt = model.params.time_step.as_seconds();
        Integrator {
            model,
            t_melt: th.melting_point.as_kelvin(),
            t_onset: th.crystallization_onset.as_kelvin(),
            ambient: model.params.ambient.as_kelvin(),
            g: model.params.sink_conductance,
            c: model.heat_capacity,
            dt,
            p_in: power.as_watts(),
            assist: power >= model.params.write_assist_threshold,
            cooldown_steps: ((8.0 * model.time_constant().as_seconds() / dt).ceil() as usize)
                .min(200_000),
        }
    }

    fn start(&self, state: CellState) -> Node {
        let temp = state.temperature.as_kelvin();
        Node {
            p: state.crystalline_fraction,
            mu: 0.0,
            temp,
            peak_t: temp,
            peak_mu: 0.0,
            absorbed: 0.0,
            melted: false,
        }
    }

    /// Advances `n` by one time step, with the pulse on (`heating`) or off.
    fn step(&self, n: &mut Node, heating: bool) {
        let dt = self.dt;
        // Effective fraction for optics: molten material absorbs like
        // the crystalline phase.
        let q = n.p * (1.0 - n.mu) + n.mu;
        let source = if heating {
            let mut a = self.model.absorptance(q);
            if self.assist {
                a = a.max(self.model.params.write_assist_floor);
            }
            n.absorbed += self.p_in * a * dt;
            self.p_in * a
        } else {
            0.0
        };

        let net = source - self.g * (n.temp - self.ambient);

        if n.temp >= self.t_melt && net > 0.0 {
            // Plateau: excess power converts material to melt.
            if n.mu < 1.0 {
                n.mu = (n.mu + net * dt / self.model.melt_enthalpy).min(1.0);
                n.melted = true;
            } else {
                // Fully molten: superheat the liquid.
                n.temp += net * dt / self.c;
            }
        } else {
            n.temp += net * dt / self.c;
            if n.temp >= self.t_melt && n.mu < 1.0 {
                // Crossed the melting point this step: clamp, start melting.
                let overshoot = (n.temp - self.t_melt) * self.c;
                n.temp = self.t_melt;
                n.mu = (n.mu + overshoot / self.model.melt_enthalpy).min(1.0);
                n.melted = true;
            }
        }

        // Crystallization kinetics of the unmelted portion. During
        // cool-down, freshly melt-quenched material is nucleation-limited
        // and does not re-crystallize; the (1-mu) weighting handles the
        // still-molten part, and we additionally freeze kinetics once
        // cooling if melting happened (critical quench rate satisfied).
        if !n.melted || heating {
            let rate = self
                .model
                .crystallization_rate(Temperature::from_kelvin(n.temp));
            if rate > 0.0 {
                n.p += rate * (1.0 - n.p) * dt;
                if n.p > 1.0 {
                    n.p = 1.0;
                }
            }
        }

        n.peak_t = n.peak_t.max(n.temp);
        n.peak_mu = n.peak_mu.max(n.mu);
    }

    /// Appends step `step`'s sample to a trace, if one is kept.
    fn record(&self, trace: &mut Option<(usize, &mut Vec<TraceSample>)>, step: usize, n: &Node) {
        if let Some((every, samples)) = trace {
            if step % *every == 0 {
                samples.push(TraceSample {
                    time: Time::from_seconds(step as f64 * self.dt),
                    temperature: Temperature::from_kelvin(n.temp),
                    crystalline_fraction: n.p,
                    melt_fraction: n.mu,
                });
            }
        }
    }

    /// Runs the cool-down that follows `pulse_steps` heating steps, then
    /// quenches: molten material re-solidifies amorphous.
    fn cool_down(
        &self,
        mut n: Node,
        pulse_steps: usize,
        trace: &mut Option<(usize, &mut Vec<TraceSample>)>,
    ) -> PulseOutcome {
        for step in pulse_steps..(pulse_steps + self.cooldown_steps) {
            self.step(&mut n, false);
            self.record(trace, step, &n);
            // Early exit once quenched well below the kinetics window.
            if n.temp < self.t_onset - 20.0 {
                break;
            }
        }
        PulseOutcome {
            state: CellState {
                crystalline_fraction: n.p * (1.0 - n.mu),
                temperature: Temperature::from_kelvin(n.temp.max(self.ambient)),
            },
            peak_temperature: Temperature::from_kelvin(n.peak_t),
            absorbed_energy: Energy::from_joules(n.absorbed),
            peak_melt_fraction: n.peak_mu,
            melted: n.melted,
        }
    }
}

/// The heating phase of every pulse at one power from one start state, up
/// to a ceiling duration, kept at every integration step.
///
/// Heating never reads the pulse length, so a pulse of any duration up to
/// the ceiling is its saved heating state plus its own cool-down:
/// [`HeatingRun::apply`] returns exactly what
/// [`CellThermalModel::apply_pulse`] does, at the cost of the cool-down
/// alone. Pulse-duration searches that probe many durations from the same
/// state share one run.
pub(crate) struct HeatingRun<'m> {
    run: Integrator<'m>,
    /// `nodes[k]`: the state after `k` heating steps.
    nodes: Vec<Node>,
}

impl<'m> HeatingRun<'m> {
    /// Heats `start` at `power` for `ceiling`.
    pub(crate) fn new(
        model: &'m CellThermalModel,
        start: CellState,
        power: Power,
        ceiling: Time,
    ) -> Self {
        let run = Integrator::new(model, power);
        let steps = model.pulse_steps(ceiling);
        let mut nodes = Vec::with_capacity(steps + 1);
        let mut node = run.start(start);
        nodes.push(node);
        for _ in 0..steps {
            run.step(&mut node, true);
            nodes.push(node);
        }
        HeatingRun { run, nodes }
    }

    /// The outcome of a pulse of `duration` from the run's start state.
    ///
    /// # Panics
    ///
    /// Panics if `duration` exceeds the run's ceiling.
    pub(crate) fn apply(&self, duration: Time) -> PulseOutcome {
        let steps = self.run.model.pulse_steps(duration);
        self.run.cool_down(self.nodes[steps], steps, &mut None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CellThermalModel {
        CellThermalModel::comet_gst()
    }

    fn mw(x: f64) -> Power {
        Power::from_milliwatts(x)
    }

    fn ns(x: f64) -> Time {
        Time::from_nanos(x)
    }

    #[test]
    fn time_constant_is_tens_of_nanoseconds() {
        let tau = model().time_constant().as_nanos();
        assert!((20.0..=100.0).contains(&tau), "tau = {tau} ns");
    }

    #[test]
    fn one_milliwatt_is_self_limiting() {
        // The key safety property of crystallization writes: 1 mW can never
        // melt the film no matter how crystalline it gets.
        assert!(!model().can_melt_at(mw(1.0)));
        assert!(model().can_melt_at(mw(5.0)));
    }

    #[test]
    fn five_milliwatt_reset_amorphizes_crystalline_cell() {
        let out = model().apply_pulse(CellState::crystalline(), PulseSpec::new(mw(5.0), ns(60.0)));
        assert!(out.melted);
        assert!(
            out.state.crystalline_fraction < 0.05,
            "residual fraction {}",
            out.state.crystalline_fraction
        );
        // Energy anchor: paper's case-2 reset is 280 pJ (5 mW x 56 ns).
        let pulse_energy = (mw(5.0) * ns(60.0)).as_picojoules();
        assert!((200.0..=400.0).contains(&pulse_energy));
    }

    #[test]
    fn reset_energy_anchor_from_amorphous_start() {
        // Erase must also fully amorphize a partially crystalline cell in
        // the Table II erase budget (~210 ns at 5 mW).
        let m = model();
        for start in [0.0, 0.3, 0.6, 1.0] {
            let out = m.apply_pulse(
                CellState::at_fraction(start),
                PulseSpec::new(mw(5.0), ns(210.0)),
            );
            assert!(
                out.state.crystalline_fraction < 0.05,
                "start={start} left fraction {}",
                out.state.crystalline_fraction
            );
        }
    }

    #[test]
    fn crystallization_write_raises_fraction_monotonically() {
        let m = model();
        let mut last = 0.0;
        for d in [60.0, 100.0, 140.0, 180.0, 240.0] {
            let out = m.apply_pulse(CellState::amorphous(), PulseSpec::new(mw(1.0), ns(d)));
            assert!(
                out.state.crystalline_fraction >= last,
                "not monotone at d={d}: {} < {last}",
                out.state.crystalline_fraction
            );
            assert!(!out.melted, "1 mW pulse must never melt");
            last = out.state.crystalline_fraction;
        }
        assert!(
            last > 0.5,
            "240 ns @ 1 mW should crystallize deeply, got {last}"
        );
    }

    #[test]
    fn deep_crystallization_within_write_budget() {
        // Table II: max write time 170 ns. The deepest 4-bit level needs
        // p ~ 0.8; allow some margin around the anchor.
        let m = model();
        let out = m.apply_pulse(CellState::amorphous(), PulseSpec::new(mw(1.0), ns(200.0)));
        assert!(
            out.state.crystalline_fraction > 0.55,
            "200 ns @ 1 mW only reached p={}",
            out.state.crystalline_fraction
        );
    }

    #[test]
    fn full_crystallization_reset_energy_anchor() {
        // Paper case-1 reset: 880 pJ. At 1 mW that is ~880 ns; our model
        // should reach ~full crystallization in the same energy decade.
        let m = model();
        let out = m.apply_pulse(CellState::amorphous(), PulseSpec::new(mw(1.0), ns(900.0)));
        assert!(
            out.state.crystalline_fraction > 0.95,
            "900 ns @ 1 mW reached only p={}",
            out.state.crystalline_fraction
        );
    }

    #[test]
    fn partial_amorphization_is_energy_controlled() {
        // Mode-1 writes: from crystalline, longer 5 mW pulses melt more.
        let m = model();
        let mut last = 1.0;
        let mut decreased = 0;
        for d in [8.0, 12.0, 14.0, 16.0, 18.0, 25.0] {
            let out = m.apply_pulse(CellState::crystalline(), PulseSpec::new(mw(5.0), ns(d)));
            assert!(out.state.crystalline_fraction <= last + 1e-9);
            if out.state.crystalline_fraction < last - 1e-6 {
                decreased += 1;
            }
            last = out.state.crystalline_fraction;
        }
        assert!(decreased >= 3, "melt fraction should grow with duration");
        assert!(last < 0.05, "25 ns @ 5 mW should amorphize the whole film");
    }

    #[test]
    fn read_pulse_does_not_disturb() {
        // A 0.1 mW read (below the write-assist threshold) leaves the state
        // untouched — the isolation property COMET relies on.
        let m = model();
        for start in [0.0, 0.4, 0.8] {
            let out = m.apply_pulse(
                CellState::at_fraction(start),
                PulseSpec::new(mw(0.1), ns(10.0)),
            );
            assert!(
                (out.state.crystalline_fraction - start).abs() < 1e-3,
                "read disturbed state: {} -> {}",
                start,
                out.state.crystalline_fraction
            );
            assert!(!out.melted);
            assert!(out.peak_temperature < m.optics().material.thermal.crystallization_onset);
        }
    }

    #[test]
    fn absorbed_energy_is_bounded_by_pulse_energy() {
        let m = model();
        let pulse = PulseSpec::new(mw(5.0), ns(100.0));
        let out = m.apply_pulse(CellState::crystalline(), pulse);
        assert!(out.absorbed_energy.as_joules() <= pulse.energy().as_joules() + 1e-18);
        assert!(out.absorbed_energy.as_joules() > 0.0);
    }

    #[test]
    fn traced_pulse_records_profile() {
        let m = model();
        let mut trace = Vec::new();
        let _ = m.apply_pulse_traced(
            CellState::crystalline(),
            PulseSpec::new(mw(5.0), ns(60.0)),
            10,
            &mut trace,
        );
        assert!(trace.len() > 10);
        // Temperature must rise from ambient and eventually hit the plateau.
        let max_t = trace
            .iter()
            .map(|s| s.temperature.as_kelvin())
            .fold(0.0, f64::max);
        assert!(max_t >= 873.0 - 1.0);
        assert!(trace[0].temperature.as_kelvin() < 350.0);
    }

    #[test]
    fn shared_heating_run_matches_full_simulation() {
        // A saved heating state plus its cool-down is the whole pulse, bit
        // for bit, at write and reset powers, with and without melting.
        let m = model();
        for (start, power) in [
            (CellState::amorphous(), mw(1.0)),
            (CellState::crystalline(), mw(5.0)),
            (CellState::at_fraction(0.4), mw(0.1)),
        ] {
            let run = HeatingRun::new(&m, start, power, ns(400.0));
            for d in [0.0, 0.1, 7.3, 16.0, 55.55, 137.0, 399.9, 400.0] {
                let pulse = PulseSpec::new(power, ns(d));
                assert_eq!(run.apply(ns(d)), m.apply_pulse(start, pulse), "{d} ns");
            }
        }
    }

    #[test]
    fn rate_bell_shape() {
        let m = model();
        let th = m.optics().material.thermal;
        let low = m.crystallization_rate(Temperature::from_kelvin(
            th.crystallization_onset.as_kelvin() - 1.0,
        ));
        let mid = m.crystallization_rate(th.optimal_crystallization_temperature());
        let high =
            m.crystallization_rate(Temperature::from_kelvin(th.melting_point.as_kelvin() + 1.0));
        assert_eq!(low, 0.0);
        assert_eq!(high, 0.0);
        assert!((mid - m.params().crystallization_rate).abs() < 1e-6);
    }

    #[test]
    fn pulse_energy_accounting() {
        let p = PulseSpec::new(mw(5.0), ns(56.0));
        assert!((p.energy().as_picojoules() - 280.0).abs() < 1e-9);
    }
}
