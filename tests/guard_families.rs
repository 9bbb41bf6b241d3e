//! Device families: the campaign executor runs the points that share their
//! whole attack phase — the points that differ only in their guard, and,
//! on a device that samples nothing, in their trial — on one shared
//! trajectory, forking it where a guard first acts, and replays each
//! trial's own benign stream. Every executor outcome must equal, bit for
//! bit and in every field but `wall_ns`, the outcome of running that point
//! alone on a freshly built backend — `run_attack` for the unguarded point,
//! `run_guarded_attack` for the rest.

use neurohammer_repro::attack::campaign::{
    CampaignExecutor, CampaignOutcome, CampaignPoint, CampaignSpec, PointKey, Shard,
};
use neurohammer_repro::attack::countermeasures::run_guarded_attack;
use neurohammer_repro::attack::{run_attack, GuardSpec};
use neurohammer_repro::crossbar::BackendKind;
use neurohammer_repro::jart::DeviceParams;
use neurohammer_repro::units::{Kelvin, Seconds};
use neurohammer_repro::variability::{ParamField, ParamSpread};

/// A guard that throttles on the first write (any crosstalk is above
/// 0.5 K after one pulse).
const THERMAL: GuardSpec = GuardSpec::ThermalSensor {
    threshold: Kelvin(0.5),
    cooldown: Seconds(1e-6),
};
/// A write counter that refreshes on the 32nd write, mid-attack.
const COUNTER: GuardSpec = GuardSpec::WriteCounter {
    threshold: 32,
    window: Seconds(1.0),
};
/// A scrub whose period outlasts the 40-pulse attack (8 µs) but not the
/// benign stream (25.6 µs): it acts in the benign phase only, first after
/// 45 writes, while the cells the stream has not written yet (and so how
/// many it rewrites) depend on the stream's seed.
const SCRUB: GuardSpec = GuardSpec::Scrubbing {
    period: Seconds(9e-6),
};
/// A write counter above the pulse budget: it never acts.
const SILENT: GuardSpec = GuardSpec::WriteCounter {
    threshold: 1_000,
    window: Seconds(1.0),
};

/// Five guards (stride 6: two σ values × three trials) on a 5×5 Monte
/// Carlo array, 100 ns pulses, a 40-pulse budget and 128 benign writes.
/// The σ-0 points sample no device, so each is one device family over its
/// three trials; each σ-0.1 trial is a device family of its own.
fn family_spec(batching: bool, threads: usize) -> CampaignSpec {
    let nominal = DeviceParams::default();
    CampaignSpec {
        name: "guard families".into(),
        pulse_lengths_ns: vec![100.0],
        guards: vec![GuardSpec::None, THERMAL, COUNTER, SCRUB, SILENT],
        spread_scales: vec![0.0, 0.1],
        spreads: vec![
            ParamSpread::relative_normal(ParamField::FilamentRadius, 1.0, &nominal),
            ParamSpread::relative_normal(ParamField::LDisc, 1.0, &nominal),
        ],
        trials: 3,
        seed: 7,
        backends: vec![BackendKind::Batched],
        max_pulses: 40,
        benign_writes: 128,
        batching,
        threads,
        ..CampaignSpec::default()
    }
}

/// The same guards on the nominal device: no spreads, two amplitudes and
/// two trials, so two device families of ten members each.
fn nominal_spec(batching: bool, threads: usize) -> CampaignSpec {
    CampaignSpec {
        name: "nominal device families".into(),
        amplitudes_v: vec![1.05, 1.15],
        spread_scales: vec![1.0],
        spreads: Vec::new(),
        trials: 2,
        ..family_spec(batching, threads)
    }
}

/// The point run alone on a freshly built backend, as the executor reports
/// it.
fn standalone(spec: &CampaignSpec, key: PointKey, point: &CampaignPoint) -> CampaignOutcome {
    let mut backend = spec.backend_for(point).unwrap();
    let config = spec.attack_config(point);
    let (attack, final_crosstalk, defense) = if point.guard.is_none() {
        let attack = run_attack(backend.as_mut(), &config);
        let victim = config.victim;
        (attack, backend.hub().delta(victim.row, victim.col), None)
    } else {
        let benign = spec.benign_workload(point);
        let guarded = run_guarded_attack(backend.as_mut(), &config, &point.guard, &benign);
        (
            guarded.attack,
            guarded.final_crosstalk,
            Some(guarded.defense),
        )
    };
    CampaignOutcome {
        key,
        point: *point,
        flipped: attack.flipped,
        pulses: attack.pulses,
        victim_drift: attack.victim_drift,
        final_crosstalk,
        sim_time: attack.elapsed,
        collateral_flips: attack.collateral_flips,
        defense,
        wall_ns: None,
    }
}

/// Every standalone outcome of `spec`, in grid order.
fn standalone_outcomes(spec: &CampaignSpec) -> Vec<CampaignOutcome> {
    spec.keyed_points()
        .iter()
        .map(|(key, point)| standalone(spec, *key, point))
        .collect()
}

/// Every result field of an outcome, floats as bits.
fn bits(outcome: &CampaignOutcome) -> Vec<u64> {
    let mut words = vec![
        outcome.key.index as u64,
        outcome.key.id,
        u64::from(outcome.flipped),
        outcome.pulses,
        outcome.victim_drift.to_bits(),
        outcome.final_crosstalk.0.to_bits(),
        outcome.sim_time.0.to_bits(),
        outcome.collateral_flips as u64,
    ];
    if let Some(d) = &outcome.defense {
        words.extend([
            u64::from(d.blocked),
            d.detections,
            d.pulses_to_detection.unwrap_or(u64::MAX),
            d.refreshes,
            d.throttle_time.0.to_bits(),
            d.benign_writes,
            d.false_triggers,
            d.energy_overhead.0.to_bits(),
            d.latency_overhead.0.to_bits(),
            d.overhead_fraction.to_bits(),
        ]);
    }
    words
}

/// Asserts that every outcome in `got` equals the reference outcome at its
/// grid index, bit for bit, and that each carries a wall time.
fn assert_matches(got: &[CampaignOutcome], reference: &[CampaignOutcome], case: &str) {
    assert!(!got.is_empty(), "{case}: no outcomes");
    for outcome in got {
        let expected = &reference[outcome.key.index];
        assert_eq!(outcome, expected, "{case}: point {}", outcome.key.index);
        assert_eq!(
            bits(outcome),
            bits(expected),
            "{case}: point {} differs in its bits",
            outcome.key.index
        );
        assert!(outcome.wall_ns.is_some(), "{case}: no wall time");
    }
}

/// How the executor dealt a shard's points into units of work.
#[derive(Debug, PartialEq)]
enum Dealing {
    /// Device families: the points that differ only in their guard, and in
    /// their trial where the point samples no device.
    Devices,
    /// Guard families: the points that differ only in their guard.
    Guards,
    /// Every point alone.
    Points,
}

/// The family `point` belongs to: every coordinate but the guard, and but
/// the trial when `share_trials` and the point samples no device.
fn family(spec: &CampaignSpec, point: &CampaignPoint, share_trials: bool) -> u64 {
    let trial = if share_trials && !spec.samples_device(point) {
        0
    } else {
        point.trial
    };
    CampaignPoint {
        guard: GuardSpec::None,
        trial,
        ..*point
    }
    .id()
}

/// How the executor dealt `outcomes`: the members of a unit of work report
/// one even share of its time, while a point run as its own unit times
/// itself. A grid whose device families are its guard families reads as
/// `Devices`.
fn dealing(spec: &CampaignSpec, outcomes: &[CampaignOutcome]) -> Dealing {
    let shares_time = |share_trials| {
        let mut shares = std::collections::HashMap::new();
        outcomes.iter().all(|outcome| {
            let unit = family(spec, &outcome.point, share_trials);
            *shares.entry(unit).or_insert(outcome.wall_ns) == outcome.wall_ns
        })
    };
    if shares_time(true) {
        Dealing::Devices
    } else if shares_time(false) {
        Dealing::Guards
    } else {
        Dealing::Points
    }
}

/// What the executor deals a grid into on two threads when its preferred
/// grouping has fewer units than two: on one core, one unit suffices.
fn on_two_threads(fallback: Dealing) -> Dealing {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        Dealing::Devices
    } else {
        fallback
    }
}

/// The guards act where the spec says: thermal on the first write, the
/// counter on the 32nd, the scrub only on benign traffic, the silent
/// counter never.
fn assert_guards_act_as_designed(reference: &[CampaignOutcome]) {
    for outcome in reference {
        let Some(defense) = &outcome.defense else {
            continue;
        };
        let guard = outcome.point.guard;
        let first = defense.pulses_to_detection;
        let benign = defense.false_triggers;
        if guard == THERMAL {
            assert_eq!(first, Some(1), "{guard:?}");
        } else if guard == COUNTER {
            assert_eq!((first, benign), (Some(32), 0), "{guard:?}");
        } else if guard == SCRUB {
            assert_eq!(first, None, "{guard:?}");
            assert!(benign > 0, "{guard:?} never scrubbed benign traffic");
        } else {
            assert_eq!((first, benign), (None, 0), "{guard:?}");
        }
    }
}

/// Some guarded point of `spec` that samples no device reports a different
/// defence record in different trials: only their benign streams differ,
/// so a family that replayed one trial's stream for all would be caught.
fn assert_some_trials_differ(spec: &CampaignSpec, reference: &[CampaignOutcome]) {
    let mut trials = std::collections::HashMap::new();
    for outcome in reference {
        let point = &outcome.point;
        if !point.guard.is_none() && !spec.samples_device(point) {
            let member = (family(spec, point, true), point.guard.fingerprint_words());
            let records = trials.entry(member).or_insert_with(Vec::new);
            records.push(bits(outcome)[2..].to_vec());
        }
    }
    assert!(
        trials
            .values()
            .any(|records| records.iter().any(|r| *r != records[0])),
        "{}: every guarded point reports one defence record in all trials",
        spec.name
    );
}

#[test]
fn families_reproduce_standalone_points_bit_for_bit() {
    for batching in [false, true] {
        for spec in [family_spec(batching, 1), nominal_spec(batching, 1)] {
            let reference = standalone_outcomes(&spec);
            assert_guards_act_as_designed(&reference);
            assert_some_trials_differ(&spec, &reference);
            for threads in [1, 2] {
                let spec = CampaignSpec {
                    threads,
                    ..spec.clone()
                };
                let report = spec.run().unwrap();
                assert_eq!(report.outcomes.len(), reference.len());
                let case = format!("{}, batching {batching}, {threads} threads", spec.name);
                assert_matches(&report.outcomes, &reference, &case);
                assert_eq!(dealing(&spec, &report.outcomes), Dealing::Devices, "{case}");
            }
        }
    }
}

#[test]
fn shards_and_resumes_that_split_families_reproduce_standalone_points() {
    let spec = family_spec(false, 2);
    let reference = standalone_outcomes(&spec);

    // Two shards split each σ-0 device family's trials (shard 0 holds
    // trials 0 and 2, shard 1 trial 1) and keep its guards together; four
    // split both, so a shard's σ-0 family mixes guards of different trials.
    for of in [2, 4] {
        for index in 0..of {
            let report = CampaignExecutor::new(spec.clone())
                .unwrap()
                .with_shard(Shard { index, of })
                .unwrap()
                .execute(|_| {})
                .unwrap();
            let case = format!("shard {index}/{of}");
            assert_matches(&report.outcomes, &reference, &case);
            if of == 2 {
                assert_eq!(dealing(&spec, &report.outcomes), Dealing::Devices, "{case}");
            }
        }
    }

    // A checkpoint holding trial 0 of every σ-0 point and the unguarded
    // and counter points of every σ-0.1 trial: the resumed run simulates
    // the other two trials of each σ-0 family and three members of each
    // σ-0.1 family.
    let recovered: Vec<CampaignOutcome> = reference
        .iter()
        .filter(|outcome| {
            let point = &outcome.point;
            if point.spread_scale == 0.0 {
                point.trial == 0
            } else {
                point.guard.is_none() || point.guard == COUNTER
            }
        })
        .map(|outcome| CampaignOutcome {
            wall_ns: Some(1),
            ..outcome.clone()
        })
        .collect();
    let executor = CampaignExecutor::new(spec.clone())
        .unwrap()
        .resume_from(recovered);
    assert_eq!(executor.pending_points().len(), 19);
    let report = executor.execute(|_| {}).unwrap();
    assert_matches(&report.outcomes, &reference, "resumed");
    let fresh: Vec<CampaignOutcome> = report
        .outcomes
        .into_iter()
        .filter(|outcome| outcome.wall_ns != Some(1))
        .collect();
    assert_eq!(fresh.len(), 19);
    assert_eq!(dealing(&spec, &fresh), Dealing::Devices, "resumed");

    // The dealing ladder: one device family (σ 0 only) on two threads
    // falls back to its two guard families, not to single points.
    let ladder = CampaignSpec {
        spread_scales: vec![0.0],
        trials: 2,
        ..spec.clone()
    };
    let reference = standalone_outcomes(&ladder);
    let report = ladder.run().unwrap();
    assert_matches(
        &report.outcomes,
        &reference,
        "one device family, two threads",
    );
    assert_eq!(
        dealing(&ladder, &report.outcomes),
        on_two_threads(Dealing::Guards),
        "one device family, two threads"
    );

    // One guard family on two threads: with two cores or more every point
    // is its own unit of work, so the grid keeps its parallelism.
    let single = CampaignSpec {
        spread_scales: vec![0.1],
        trials: 1,
        ..spec
    };
    let reference = standalone_outcomes(&single);
    let report = single.run().unwrap();
    assert_matches(&report.outcomes, &reference, "one family, two threads");
    assert_eq!(
        dealing(&single, &report.outcomes),
        on_two_threads(Dealing::Points),
        "one family, two threads"
    );
}

#[test]
fn a_detailed_family_reproduces_standalone_points() {
    // No spreads: both trials run the nominal device, one device family.
    let spec = CampaignSpec {
        name: "detailed device family".into(),
        array_sizes: vec![(3, 3)],
        pulse_lengths_ns: vec![100.0],
        guards: vec![
            GuardSpec::None,
            THERMAL,
            GuardSpec::WriteCounter {
                threshold: 8,
                window: Seconds(1.0),
            },
            SILENT,
        ],
        trials: 2,
        backends: vec![BackendKind::detailed()],
        max_pulses: 24,
        benign_writes: 12,
        batching: false,
        threads: 1,
        ..CampaignSpec::default()
    };
    let reference = standalone_outcomes(&spec);
    let detections: Vec<_> = reference
        .iter()
        .map(|o| o.defense.and_then(|d| d.pulses_to_detection))
        .collect();
    assert_eq!(
        detections,
        [None, None, Some(1), Some(1), Some(8), Some(8), None, None]
    );
    let report = spec.run().unwrap();
    assert_matches(&report.outcomes, &reference, "detailed");
    assert_eq!(
        dealing(&spec, &report.outcomes),
        Dealing::Devices,
        "detailed"
    );
}
