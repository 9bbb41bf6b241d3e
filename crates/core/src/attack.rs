//! The NeuroHammer attack engine: hammering campaigns, bit-flip detection
//! and the four-phase trace of Fig. 1.
//!
//! An attack repeatedly writes (hammers) one or more aggressor cells that are
//! held in the LRS to maximise the current through them (Phase 1). The
//! dissipated power heats the aggressor filaments; the crosstalk hub raises
//! the victim's filament temperature (Phase 2), which accelerates its
//! switching kinetics (Phase 3) until the constant V/2 half-select stress
//! flips the victim's state (Phase 4).
//!
//! Every attack runs through one loop, [`hammer`]: it pulses the aggressors
//! round-robin until the victim reads LRS or the budget is spent. A guard
//! is an optional observer of that loop. It sees every write and the
//! array's peak crosstalk, and its answers are carried out on the engine
//! ([`Interventions::carry_out`]). One call runs a whole guard family —
//! campaign points that differ only in their guard — on one shared
//! trajectory that forks where a guard first acts ([`Trunk`]).
//! [`run_attack`] is the loop with one member and no guard;
//! [`crate::countermeasures::run_guarded_attack`] runs one guarded member
//! and the benign-workload accounting, and
//! [`crate::countermeasures::run_guard_family`] a whole family.

use serde::{Deserialize, Serialize};

use crate::pattern::AttackPattern;
use rram_crossbar::{CellAddress, HammerBackend};
use rram_defense::{Countermeasure, Interventions, Observer, Trunk};
use rram_jart::DigitalState;
use rram_units::{Kelvin, Seconds, Volts};

/// Configuration of one hammering campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackConfig {
    /// The victim cell whose bit the attacker wants to flip.
    pub victim: CellAddress,
    /// The aggressor placement pattern.
    pub pattern: AttackPattern,
    /// Amplitude of the hammer pulses (the write voltage), V.
    pub amplitude: Volts,
    /// Length of each hammer pulse, s.
    pub pulse_length: Seconds,
    /// Idle gap between consecutive pulses, s.
    pub gap: Seconds,
    /// Give up after this many pulses.
    pub max_pulses: u64,
    /// Enable pulse batching (extrapolating over stretches of identical
    /// pulses once the thermal state has settled). Exact pulse-by-pulse
    /// simulation is used when disabled.
    pub batching: bool,
    /// Record a time-resolved trace of the victim and first aggressor
    /// (used to regenerate Fig. 1). Tracing disables batching.
    pub trace: bool,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            victim: CellAddress::new(2, 1),
            pattern: AttackPattern::SingleAggressor,
            amplitude: Volts(rram_units::V_SET),
            pulse_length: Seconds(50e-9),
            gap: Seconds(50e-9),
            max_pulses: 10_000_000,
            batching: true,
            trace: false,
        }
    }
}

/// One sample of the attack trace (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// Number of pulses issued so far.
    pub pulses: u64,
    /// Simulated time, s.
    pub time: Seconds,
    /// Filament temperature of the first aggressor, K.
    pub aggressor_temperature: Kelvin,
    /// Filament temperature of the victim, K.
    pub victim_temperature: Kelvin,
    /// Crosstalk ΔT imported by the victim, K.
    pub victim_crosstalk: Kelvin,
    /// Normalised victim state (0 = HRS, 1 = LRS).
    pub victim_state: f64,
}

/// Outcome of a hammering campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackResult {
    /// Whether the victim flipped within the pulse budget.
    pub flipped: bool,
    /// Number of hammer pulses issued (per aggressor round-robin pulses all
    /// count individually).
    pub pulses: u64,
    /// Simulated wall-clock time of the campaign, s.
    pub elapsed: Seconds,
    /// Digital state of the victim at the end.
    pub victim_state: DigitalState,
    /// Normalised internal state of the victim at the end (0 = HRS,
    /// 1 = LRS) — the drift measure used by cross-backend agreement checks
    /// when the budget is too small for a flip.
    pub victim_drift: f64,
    /// Number of cells other than the victim that changed state
    /// (collateral flips).
    pub collateral_flips: usize,
    /// The recorded trace, if tracing was enabled.
    pub trace: Vec<TracePoint>,
}

/// One member's end of a [`hammer`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct Hammered {
    /// The attack result.
    pub attack: AttackResult,
    /// Crosstalk ΔT at the victim's hub node when the attack ended, K.
    pub final_crosstalk: Kelvin,
    /// What the member's guard did (nothing for a member without one).
    pub interventions: Interventions,
}

/// Runs a NeuroHammer campaign on any [`HammerBackend`]: [`hammer`] with
/// one member and no guard.
///
/// # Panics
///
/// Panics if the victim or an aggressor lies outside the engine's array.
pub fn run_attack<B: HammerBackend + ?Sized>(
    engine: &mut B,
    config: &AttackConfig,
) -> AttackResult {
    let mut ends = hammer(engine, config, vec![None]);
    ends.swap_remove(0).attack
}

/// Hammers the aggressors round-robin until the victim flips or the pulse
/// budget is spent, once for a whole *guard family*: one member per entry
/// of `guards`, `None` for a member without a guard. Returns each member's
/// end, in order, identical to running the member alone on a copy of
/// `engine`.
///
/// The engine's array is used as-is apart from two preparations that mirror
/// the paper's setup: every aggressor is switched to the LRS ("the red cell
/// should be initially switched to LRS to maximise the resulting current")
/// and the victim is switched to the HRS so a SET-direction flip can be
/// detected.
///
/// After each pulse the guards sample the array's peak crosstalk ΔT, the
/// hottest instant, before the trace readout and the inter-pulse gap. They
/// judge the write after the gap, and an action is carried out before the
/// victim is read. The members share one trajectory, the *trunk*, and a
/// guard forks off it where it first acts ([`Trunk`]). Pulse batching runs
/// only when there is neither a guard nor a trace, since both must see
/// every pulse: with batching off, the members without a guard ride the
/// trunk to its end; with it on, they run their own batched loop first, on
/// a fork of the prepared engine.
///
/// # Panics
///
/// Panics if the victim or an aggressor lies outside the engine's array, or
/// if the family must fork an engine that cannot fork
/// ([`HammerBackend::fork`]); a one-member family never forks.
pub fn hammer<B: HammerBackend + ?Sized>(
    engine: &mut B,
    config: &AttackConfig,
    guards: Vec<Option<&mut dyn Countermeasure>>,
) -> Vec<Hammered> {
    let rows = engine.rows();
    let cols = engine.cols();
    let aggressors = config.pattern.aggressors(config.victim, rows, cols);
    assert!(
        !aggressors.is_empty(),
        "attack pattern produced no aggressors"
    );

    // Phase 0: prepare the array.
    for &aggressor in &aggressors {
        engine.force_state(aggressor, DigitalState::Lrs);
    }
    engine.force_state(config.victim, DigitalState::Hrs);
    let plan = Plan {
        config,
        aggressors,
        reference: engine.read_all(),
        start_time: engine.elapsed(),
        batching: config.batching && !config.trace,
    };
    let start = Progress {
        pulses: 0,
        next: 0,
        trace: Vec::new(),
        window_start_state: engine.normalized_state(config.victim),
        pulses_in_window: 0,
    };

    let mut ends = vec![None; guards.len()];
    let (mut riders, mut observers) = (Vec::new(), Vec::new());
    for (member, guard) in guards.into_iter().enumerate() {
        match guard {
            Some(guard) => observers.push(Observer::new(member, guard)),
            None => riders.push(member),
        }
    }
    if plan.batching && !observers.is_empty() && !riders.is_empty() {
        let mut fork = engine
            .fork()
            .expect("a guard family forks only engines that can fork");
        let end = run(
            fork.as_mut(),
            &plan,
            start.clone(),
            Trunk::default(),
            &mut ends,
        );
        for rider in riders.drain(..) {
            ends[rider] = Some(end.clone());
        }
    }
    if !observers.is_empty() || !riders.is_empty() {
        let trunk = Trunk::new(observers, !riders.is_empty());
        let end = run(engine, &plan, start, trunk, &mut ends);
        for rider in riders {
            ends[rider] = Some(end.clone());
        }
    }
    ends.into_iter()
        .map(|end| end.expect("every member of the family finishes"))
        .collect()
}

/// What every trajectory of one [`hammer`] call shares.
struct Plan<'a> {
    config: &'a AttackConfig,
    aggressors: Vec<CellAddress>,
    /// The array's read-out after the preparation, for collateral flips.
    reference: Vec<DigitalState>,
    start_time: Seconds,
    /// Whether a trajectory that no guard watches may batch pulses.
    batching: bool,
}

/// Where a trajectory stands between two pulses; a fork copies it.
#[derive(Clone)]
struct Progress {
    pulses: u64,
    /// The aggressor of the current round to pulse next.
    next: usize,
    trace: Vec<TracePoint>,
    /// Batching bookkeeping: the victim's state when the window opened, and
    /// the pulses simulated in it.
    window_start_state: f64,
    pulses_in_window: u64,
}

/// Runs a trajectory from `at` until the victim flips or the budget is
/// spent, files the end of every guard still on `trunk` in `ends`, and
/// returns the trunk's own end (with no interventions) for its riders.
fn run<B: HammerBackend + ?Sized>(
    engine: &mut B,
    plan: &Plan<'_>,
    mut at: Progress,
    mut trunk: Trunk<'_>,
    ends: &mut [Option<Hammered>],
) -> Hammered {
    let config = plan.config;
    let aggressors = &plan.aggressors;
    let batching = plan.batching && !trunk.is_watched();
    // Batching: the first `warmup` pulses are always simulated exactly so
    // the thermal state has settled before any extrapolation happens.
    let window: u64 = 16;
    let batch_factor: u64 = 4;
    let warmup: u64 = 2 * window;
    loop {
        // The last pulse, if any, has been judged.
        let flipped = engine.read(config.victim) == DigitalState::Lrs;
        if flipped || at.pulses >= config.max_pulses || at.next == aggressors.len() {
            // A round over the aggressors ends (or the run starts).
            at.next = 0;
            // Pulse batching: once the thermal state has settled (a full
            // window has been simulated), extrapolate the victim's slow
            // drift over `batch_factor` windows instead of simulating them
            // pulse by pulse.
            if !flipped && batching && at.pulses >= warmup && at.pulses_in_window >= window {
                let state_now = engine.normalized_state(config.victim);
                let delta_per_pulse =
                    (state_now - at.window_start_state) / at.pulses_in_window as f64;
                let flip_state = 0.5;
                // Only extrapolate while the victim is still far from the
                // flip threshold and the per-window progress is small
                // (quasi-steady).
                if delta_per_pulse > 0.0
                    && delta_per_pulse * window as f64 * batch_factor as f64 + state_now
                        < 0.8 * flip_state
                {
                    let skip_pulses =
                        (window * batch_factor).min(config.max_pulses.saturating_sub(at.pulses));
                    let new_norm = engine.normalized_state(config.victim)
                        + delta_per_pulse * skip_pulses as f64;
                    engine.force_normalized_state(config.victim, new_norm);
                    at.pulses += skip_pulses;
                }
                at.window_start_state = engine.normalized_state(config.victim);
                at.pulses_in_window = 0;
            }
            if flipped || at.pulses >= config.max_pulses {
                break;
            }
        }

        // Round-robin over the aggressors: one pulse each.
        let aggressor = aggressors[at.next];
        at.next += 1;
        engine.apply_pulse(aggressor, config.amplitude, config.pulse_length);
        at.pulses += 1;
        at.pulses_in_window += 1;
        let peak = trunk.is_watched().then(|| engine.peak_crosstalk());
        if config.trace {
            let victim = engine.thermal_readout(config.victim);
            let aggressor = engine.thermal_readout(aggressors[0]);
            at.trace.push(TracePoint {
                pulses: at.pulses,
                time: Seconds(engine.elapsed().0 - plan.start_time.0),
                aggressor_temperature: aggressor.temperature,
                victim_temperature: victim.temperature,
                victim_crosstalk: victim.crosstalk,
                victim_state: victim.normalized_state,
            });
        }
        if config.gap.0 > 0.0 {
            engine.idle(config.gap);
        }
        if let Some(peak) = peak {
            trunk.judge(engine, aggressor, at.pulses, peak, |fork, observer| {
                let alone = Trunk::new(vec![observer], false);
                run(fork, plan, at.clone(), alone, ends);
            });
        }
    }

    let victim = config.victim;
    let collateral_flips = engine
        .changed_cells(&plan.reference)
        .into_iter()
        .filter(|&c| c != victim)
        .count();
    let end = Hammered {
        attack: AttackResult {
            // Read again: a batching step may have moved the victim since
            // the loop last read it.
            flipped: engine.read(victim) == DigitalState::Lrs,
            pulses: at.pulses,
            elapsed: Seconds(engine.elapsed().0 - plan.start_time.0),
            victim_state: engine.read(victim),
            victim_drift: engine.normalized_state(victim),
            collateral_flips,
            trace: at.trace,
        },
        final_crosstalk: engine.hub().delta(victim.row, victim.col),
        interventions: Interventions::default(),
    };
    for observer in trunk.into_observers() {
        ends[observer.member] = Some(Hammered {
            interventions: observer.interventions,
            ..end.clone()
        });
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use rram_crossbar::{EngineConfig, PulseEngine};
    use rram_jart::DeviceParams;

    fn engine() -> PulseEngine {
        PulseEngine::with_uniform_coupling(
            5,
            5,
            DeviceParams::default(),
            0.15,
            EngineConfig::default(),
        )
    }

    fn uncoupled_engine() -> PulseEngine {
        PulseEngine::with_uniform_coupling(
            5,
            5,
            DeviceParams::default(),
            0.0,
            EngineConfig::default(),
        )
    }

    fn quick_config() -> AttackConfig {
        AttackConfig {
            victim: CellAddress::new(2, 2),
            pattern: AttackPattern::DoubleSidedRow,
            pulse_length: Seconds(100e-9),
            gap: Seconds(20e-9),
            max_pulses: 500_000,
            ..AttackConfig::default()
        }
    }

    #[test]
    fn attack_flips_the_victim_within_budget() {
        let mut e = engine();
        let result = run_attack(&mut e, &quick_config());
        assert!(result.flipped, "no flip after {} pulses", result.pulses);
        assert_eq!(result.victim_state, DigitalState::Lrs);
        assert!(
            result.pulses > 10,
            "suspiciously fast flip: {}",
            result.pulses
        );
        assert!(result.elapsed.0 > 0.0);
    }

    #[test]
    fn attack_without_crosstalk_needs_far_more_pulses() {
        let mut with_hub = engine();
        let with_result = run_attack(&mut with_hub, &quick_config());

        let mut without_hub = uncoupled_engine();
        let mut config = quick_config();
        // Cap the budget: we only need to show it does NOT flip within a few
        // times the with-crosstalk pulse count.
        config.max_pulses = with_result.pulses * 10;
        let without_result = run_attack(&mut without_hub, &config);
        assert!(
            !without_result.flipped,
            "flip without crosstalk after {} pulses (with: {})",
            without_result.pulses, with_result.pulses
        );
    }

    #[test]
    fn batched_and_unbatched_agree_within_tolerance() {
        let mut batched_engine = engine();
        let mut unbatched_engine = engine();
        let mut config = quick_config();
        config.batching = true;
        let batched = run_attack(&mut batched_engine, &config);
        config.batching = false;
        let unbatched = run_attack(&mut unbatched_engine, &config);
        assert!(batched.flipped && unbatched.flipped);
        let ratio = batched.pulses as f64 / unbatched.pulses as f64;
        assert!(
            (0.4..2.5).contains(&ratio),
            "batched {} vs unbatched {}",
            batched.pulses,
            unbatched.pulses
        );
    }

    #[test]
    fn trace_records_all_four_phases() {
        let mut e = engine();
        let mut config = quick_config();
        config.trace = true;
        config.max_pulses = 200_000;
        let result = run_attack(&mut e, &config);
        assert!(result.flipped);
        assert_eq!(result.trace.len() as u64, result.pulses);
        let first = result.trace.first().unwrap();
        let last = result.trace.last().unwrap();
        // Phase 1/2: the aggressor gets hot, the victim warms up over time.
        assert!(first.aggressor_temperature.0 > 600.0);
        assert!(last.victim_crosstalk.0 > first.victim_crosstalk.0);
        // Phase 4: the victim state ends near LRS.
        assert!(last.victim_state > 0.5);
        // Time increases monotonically.
        assert!(result.trace.windows(2).all(|w| w[1].time.0 >= w[0].time.0));
    }

    #[test]
    fn diagonal_pattern_is_weaker_than_quad() {
        let mut quad_engine = engine();
        let mut config = quick_config();
        config.pattern = AttackPattern::Quad;
        config.max_pulses = 2_000_000;
        let quad = run_attack(&mut quad_engine, &config);

        let mut diag_engine = engine();
        config.pattern = AttackPattern::Diagonal;
        config.max_pulses = quad.pulses * 4;
        let diag = run_attack(&mut diag_engine, &config);
        assert!(quad.flipped);
        // The diagonal pattern either needs more pulses or fails outright.
        if diag.flipped {
            assert!(diag.pulses > quad.pulses);
        }
    }

    #[test]
    fn budget_is_respected_when_no_flip_happens() {
        let mut e = uncoupled_engine();
        let config = AttackConfig {
            max_pulses: 200,
            batching: false,
            ..quick_config()
        };
        let result = run_attack(&mut e, &config);
        assert!(!result.flipped);
        assert!(result.pulses <= 200 + 2);
    }
}
