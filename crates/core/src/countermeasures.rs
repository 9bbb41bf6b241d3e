//! Countermeasures against NeuroHammer (the paper's announced future work,
//! built out as the `rram-defense` subsystem).
//!
//! The defence vocabulary — the [`Countermeasure`] runtime trait, the three
//! modelled guard families, the declarative [`GuardSpec`] grid axis, the
//! per-point [`DefenseOutcome`] and the benign-workload false-positive
//! accounting — lives in [`rram_defense`] and is re-exported here. This
//! module contributes the piece that needs the attack layer:
//! [`run_guarded_attack`], which runs a hammering campaign with a guard
//! observing the attack loop ([`crate::attack::hammer`]) on any
//! [`HammerBackend`] and reports both the attack result and the defence
//! outcome (including the guard's cost on a benign write workload), and
//! [`run_guard_family`], which does the same for a family of points that
//! share their whole attack phase (different guards, and on a device that
//! samples nothing different trials) on one shared trajectory.
//!
//! Campaigns sweep whole guard grids through
//! [`crate::campaign::CampaignSpec::guards`]; the defence/overhead Pareto
//! analysis lives in [`crate::campaign`] (`defense_groups` /
//! `defense_pareto`) on top of [`rram_analysis::pareto`].

pub use rram_defense::{
    apply_refresh, run_benign_family, run_benign_workload, BenignWorkload, Countermeasure,
    DefenseOutcome, GuardAction, GuardSpec, Interventions, ScrubbingGuard, ThermalSensorGuard,
    WriteCounterGuard,
};

use crate::attack::{hammer, AttackConfig, AttackResult};
use rram_crossbar::HammerBackend;
use rram_units::{Joules, Kelvin, Seconds};

/// Result of one guarded campaign point: the attack side and the defence
/// side together.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedAttackOutcome {
    /// The hammering campaign's result (a guard sees every write, so
    /// guarded attacks run pulse by pulse).
    pub attack: AttackResult,
    /// Crosstalk ΔT at the victim's hub node at the end of the attack, K —
    /// captured before the engine is reset for the benign phase.
    pub final_crosstalk: Kelvin,
    /// What the guard achieved and what it cost.
    pub defense: DefenseOutcome,
}

/// Runs a hammering campaign with the guard of `spec` observing the attack
/// loop, then replays `benign` against a fresh guard instance for
/// false-positive and overhead accounting. Works on any [`HammerBackend`].
/// This is [`run_guard_family`] with one member, which never forks.
///
/// The guard sees every write ([`crate::attack::hammer`] says when it
/// samples and judges), and may refresh victims ([`apply_refresh`]) or
/// throttle the attacker. For [`GuardSpec::None`] nothing observes the
/// loop, the attack honours `config.batching`, no benign phase runs and the
/// defence outcome is all zero apart from `blocked`.
///
/// The engine is reset between the attack and the benign phase, so both
/// observe the same (possibly Monte Carlo-sampled) device population from
/// a pristine state.
///
/// # Examples
///
/// ```
/// use neurohammer::attack::AttackConfig;
/// use neurohammer::countermeasures::{run_guarded_attack, BenignWorkload, GuardSpec};
/// use neurohammer::pattern::AttackPattern;
/// use rram_crossbar::{CellAddress, EngineConfig, PulseEngine};
/// use rram_jart::DeviceParams;
/// use rram_units::Seconds;
///
/// let mut engine = PulseEngine::with_uniform_coupling(
///     5, 5, DeviceParams::default(), 0.15, EngineConfig::default());
/// let config = AttackConfig {
///     victim: CellAddress::new(2, 1),
///     pattern: AttackPattern::SingleAggressor,
///     pulse_length: Seconds(100e-9),
///     gap: Seconds(100e-9),
///     max_pulses: 3_000,
///     batching: false,
///     ..AttackConfig::default()
/// };
/// let spec = GuardSpec::WriteCounter { threshold: 50, window: Seconds(1.0) };
/// let outcome = run_guarded_attack(
///     &mut engine, &config, &spec, &BenignWorkload::default());
/// assert!(outcome.defense.blocked);
/// assert!(outcome.defense.refreshes > 0);
/// ```
///
/// # Panics
///
/// Panics if the victim or an aggressor lies outside the engine's array.
pub fn run_guarded_attack<B: HammerBackend + ?Sized>(
    engine: &mut B,
    config: &AttackConfig,
    spec: &GuardSpec,
    benign: &BenignWorkload,
) -> GuardedAttackOutcome {
    let mut outcomes = run_guard_family(engine, config, &[(*spec, *benign)]);
    outcomes.swap_remove(0)
}

/// Runs a *family* of campaign points that share their whole attack phase
/// on one engine: one member per entry of `members`, each a guard and the
/// benign workload that guard is charged on. Returns each member's
/// outcome, in order, identical to [`run_guarded_attack`] of that member on
/// a copy of `engine`.
///
/// The members differ only in their guard and their benign stream: the
/// points of one device and backend that differ in their guard, and, on a
/// device that samples nothing, in their Monte Carlo trial (which changes
/// only the stream's seed). The attack phase runs once per distinct guard,
/// as one [`crate::attack::hammer`] trunk observed by every distinct
/// guard, forked where a guard first acts; each guard's end goes to every
/// member with that guard, and the unguarded members ride the trunk when
/// `config.batching` is off. The benign phase runs once per distinct
/// stream: it resets the engine and replays the stream as one trunk
/// observed by a fresh instance of the guard of every guarded member on it
/// ([`run_benign_family`]).
///
/// # Panics
///
/// Panics if the victim or an aggressor lies outside the engine's array,
/// or if the family must fork an engine that cannot fork
/// ([`HammerBackend::fork`]); a family with one distinct guard and one
/// distinct stream never forks.
pub fn run_guard_family<B: HammerBackend + ?Sized>(
    engine: &mut B,
    config: &AttackConfig,
    members: &[(GuardSpec, BenignWorkload)],
) -> Vec<GuardedAttackOutcome> {
    // Attack phase: one observer per distinct guard (by its bits).
    let mut specs = Vec::new();
    let slots: Vec<usize> = members
        .iter()
        .map(|(spec, _)| slot_of(&mut specs, *spec, GuardSpec::fingerprint_words))
        .collect();
    let mut guards: Vec<_> = specs.iter().map(GuardSpec::build).collect();
    let observers = guards
        .iter_mut()
        .map(|guard| guard.as_deref_mut().map(|g| g as &mut dyn Countermeasure))
        .collect();
    let ends = hammer(engine, config, observers);
    let mut outcomes: Vec<GuardedAttackOutcome> = slots
        .iter()
        .map(|&slot| {
            let end = &ends[slot];
            GuardedAttackOutcome {
                defense: DefenseOutcome {
                    blocked: !end.attack.flipped,
                    detections: end.interventions.count,
                    pulses_to_detection: end.interventions.first,
                    refreshes: end.interventions.refreshes,
                    throttle_time: end.interventions.throttle_time,
                    benign_writes: 0,
                    false_triggers: 0,
                    energy_overhead: Joules(0.0),
                    latency_overhead: Seconds(0.0),
                    overhead_fraction: 0.0,
                },
                attack: end.attack.clone(),
                final_crosstalk: end.final_crosstalk,
            }
        })
        .collect();

    // Benign phase: per distinct stream, a fresh instance of the guard of
    // every guarded member on it against legitimate traffic on a pristine
    // array (the same sampled devices).
    let mut streams = Vec::new();
    let guarded: Vec<(usize, usize)> = members
        .iter()
        .enumerate()
        .filter(|(_, (spec, _))| !spec.is_none())
        .map(|(member, (_, benign))| (slot_of(&mut streams, *benign, stream_bits), member))
        .collect();
    for (stream, benign) in streams.iter().enumerate() {
        let mut benign_guards: Vec<(usize, Box<dyn Countermeasure>)> = guarded
            .iter()
            .filter(|&&(on, _)| on == stream)
            .filter_map(|&(_, member)| members[member].0.build().map(|guard| (member, guard)))
            .collect();
        engine.reset();
        let observers = benign_guards
            .iter_mut()
            .map(|(_, guard)| guard.as_mut() as &mut dyn Countermeasure)
            .collect();
        let tallies = run_benign_family(engine, observers, benign);
        for (&(member, _), false_triggers) in benign_guards.iter().zip(tallies) {
            let spec = &members[member].0;
            let energy_overhead = Joules(
                benign.writes as f64 * spec.sense_energy_per_write().0
                    + false_triggers.refreshed_cells as f64
                        * rram_defense::REFRESH_ENERGY_PER_CELL.0,
            );
            let latency_overhead = Seconds(
                false_triggers.throttle_time.0
                    + false_triggers.refreshed_cells as f64
                        * rram_defense::REFRESH_LATENCY_PER_CELL.0,
            );
            let nominal_time = benign.nominal_time();
            let overhead_fraction = if nominal_time.0 > 0.0 {
                latency_overhead.0 / nominal_time.0
            } else {
                0.0
            };
            let defense = &mut outcomes[member].defense;
            *defense = DefenseOutcome {
                benign_writes: benign.writes,
                false_triggers: false_triggers.count,
                energy_overhead,
                latency_overhead,
                overhead_fraction,
                ..*defense
            };
        }
    }
    outcomes
}

/// The position of `item` in `known` by `key`, appending it if new.
fn slot_of<T, K: PartialEq>(known: &mut Vec<T>, item: T, key: impl Fn(&T) -> K) -> usize {
    let bits = key(&item);
    known
        .iter()
        .position(|other| key(other) == bits)
        .unwrap_or_else(|| {
            known.push(item);
            known.len() - 1
        })
}

/// The bits of a benign stream: two streams with the same bits replay
/// identically.
fn stream_bits(benign: &BenignWorkload) -> [u64; 5] {
    [
        benign.writes,
        benign.seed,
        benign.amplitude.0.to_bits(),
        benign.pulse_length.0.to_bits(),
        benign.gap.0.to_bits(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::run_attack;
    use crate::pattern::AttackPattern;
    use rram_crossbar::{CellAddress, EngineConfig, PulseEngine};
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

    fn attack() -> AttackConfig {
        AttackConfig {
            victim: CellAddress::new(2, 1),
            pattern: AttackPattern::SingleAggressor,
            pulse_length: Seconds(100e-9),
            gap: Seconds(100e-9),
            max_pulses: 30_000,
            batching: false,
            trace: false,
            ..AttackConfig::default()
        }
    }

    fn benign() -> BenignWorkload {
        BenignWorkload {
            writes: 64,
            ..BenignWorkload::default()
        }
    }

    #[test]
    fn the_undefended_baseline_lets_the_attack_through() {
        let outcome = run_guarded_attack(&mut engine(), &attack(), &GuardSpec::None, &benign());
        assert!(outcome.attack.flipped, "pulses = {}", outcome.attack.pulses);
        assert!(!outcome.defense.blocked);
        assert_eq!(outcome.defense.detections, 0);
        assert_eq!(outcome.defense.overhead_fraction, 0.0);
    }

    #[test]
    fn aggressive_write_counters_stop_the_attack() {
        let spec = GuardSpec::WriteCounter {
            threshold: 50,
            window: Seconds(1.0),
        };
        let mut config = attack();
        config.max_pulses = 3_000;
        let outcome = run_guarded_attack(&mut engine(), &config, &spec, &benign());
        assert!(
            outcome.defense.blocked,
            "flipped after {} pulses",
            outcome.attack.pulses
        );
        assert!(outcome.defense.refreshes > 0);
        assert_eq!(outcome.defense.pulses_to_detection, Some(50));
        // The counter pays its bookkeeping energy on every benign write.
        assert!(outcome.defense.energy_overhead.0 > 0.0);
    }

    #[test]
    fn lax_write_counters_do_not_stop_the_attack() {
        let spec = GuardSpec::WriteCounter {
            threshold: 1_000_000,
            window: Seconds(1.0),
        };
        let outcome = run_guarded_attack(&mut engine(), &attack(), &spec, &benign());
        assert!(!outcome.defense.blocked);
        assert_eq!(outcome.defense.refreshes, 0);
        assert_eq!(outcome.defense.pulses_to_detection, None);
        assert_eq!(outcome.defense.false_triggers, 0);
        assert_eq!(outcome.defense.latency_overhead.0, 0.0);
    }

    #[test]
    fn thermal_guard_slows_or_stops_the_attack() {
        let baseline = run_guarded_attack(&mut engine(), &attack(), &GuardSpec::None, &benign());
        let spec = GuardSpec::ThermalSensor {
            threshold: Kelvin(20.0),
            cooldown: Seconds(1e-6),
        };
        let mut config = attack();
        config.max_pulses = 3_000;
        let outcome = run_guarded_attack(&mut engine(), &config, &spec, &benign());
        // Throttling must engage, and the attack must not get cheaper.
        assert!(outcome.defense.throttle_time.0 > 0.0);
        assert!(outcome.defense.detections > 0);
        if outcome.attack.flipped && baseline.attack.flipped {
            assert!(outcome.attack.pulses >= baseline.attack.pulses);
        }
    }

    #[test]
    fn scrubbing_guard_triggers_refreshes() {
        let spec = GuardSpec::Scrubbing {
            period: Seconds(2e-6),
        };
        let mut config = attack();
        config.max_pulses = 3_000;
        let outcome = run_guarded_attack(&mut engine(), &config, &spec, &benign());
        assert!(outcome.defense.refreshes > 0);
        assert!(!outcome.attack.flipped || outcome.attack.pulses > 100);
        // Scrubbing also fires on benign traffic: the periodic cost.
        assert!(outcome.defense.false_triggers > 0);
        assert!(outcome.defense.overhead_fraction > 0.0);
    }

    #[test]
    fn a_guard_that_never_intervenes_is_a_pure_observer() {
        let silent = [
            GuardSpec::WriteCounter {
                threshold: u64::MAX,
                window: Seconds(1.0),
            },
            GuardSpec::ThermalSensor {
                threshold: Kelvin(f64::MAX),
                cooldown: Seconds(1e-6),
            },
        ];
        for (pattern, pulses) in [
            (AttackPattern::SingleAggressor, 521),
            (AttackPattern::Quad, 200),
        ] {
            let config = AttackConfig {
                pattern,
                ..attack()
            };
            let unguarded = run_attack(&mut engine(), &config);
            assert!(unguarded.flipped);
            assert_eq!(unguarded.pulses, pulses, "{pattern:?}");
            for spec in &silent {
                let guarded = run_guarded_attack(&mut engine(), &config, spec, &benign());
                assert_eq!(guarded.attack, unguarded, "{spec:?} on {pattern:?}");
                assert_eq!(guarded.defense.detections, 0);
            }
        }
    }

    #[test]
    fn guarded_outcomes_are_deterministic() {
        let spec = GuardSpec::WriteCounter {
            threshold: 128,
            window: Seconds(1.0),
        };
        let mut config = attack();
        config.max_pulses = 2_000;
        let a = run_guarded_attack(&mut engine(), &config, &spec, &benign());
        let b = run_guarded_attack(&mut engine(), &config, &spec, &benign());
        assert_eq!(a, b);
    }
}
