//! Guard families: the campaign executor runs the points that differ only
//! in their guard on one shared trajectory, forking it where a guard first
//! acts. Every executor outcome must equal, bit for bit and in every field
//! but `wall_ns`, the outcome of running that point alone on a freshly
//! built backend — `run_attack` for the unguarded point, `run_guarded_attack`
//! for the rest.

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
/// A scrub whose period outlasts the 100-pulse attack (20 µs) but not the
/// benign stream (25.6 µs): it acts in the benign phase only.
const SCRUB: GuardSpec = GuardSpec::Scrubbing {
    period: Seconds(22e-6),
};
/// A write counter above the pulse budget: it never acts.
const SILENT: GuardSpec = GuardSpec::WriteCounter {
    threshold: 1_000,
    window: Seconds(1.0),
};

/// Five guards (stride 4: two σ values × two trials) on a 5×5 Monte Carlo
/// array, 100 ns pulses, a 100-pulse budget and 128 benign writes.
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
        trials: 2,
        seed: 7,
        backends: vec![BackendKind::Batched],
        max_pulses: 100,
        benign_writes: 128,
        batching,
        threads,
        ..CampaignSpec::default()
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

/// Whether the executor dealt `outcomes` as guard families: the members of
/// a family report one even share of its time, while a point run as its
/// own unit of work times itself.
fn dealt_as_families(outcomes: &[CampaignOutcome]) -> bool {
    let mut shares = std::collections::HashMap::new();
    outcomes.iter().all(|outcome| {
        let family = CampaignPoint {
            guard: GuardSpec::None,
            ..outcome.point
        }
        .id();
        *shares.entry(family).or_insert(outcome.wall_ns) == outcome.wall_ns
    })
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

#[test]
fn families_reproduce_standalone_points_bit_for_bit() {
    for batching in [false, true] {
        let spec = family_spec(batching, 1);
        let reference = standalone_outcomes(&spec);
        assert_guards_act_as_designed(&reference);
        for threads in [1, 2] {
            let spec = CampaignSpec {
                threads,
                ..spec.clone()
            };
            let report = spec.run().unwrap();
            assert_eq!(report.outcomes.len(), reference.len());
            let case = format!("batching {batching}, {threads} threads");
            assert_matches(&report.outcomes, &reference, &case);
            assert!(dealt_as_families(&report.outcomes), "{case}");
        }
    }
}

#[test]
fn shards_and_resumes_that_split_families_reproduce_standalone_points() {
    let spec = family_spec(false, 2);
    let reference = standalone_outcomes(&spec);

    // Three shards deal the guard stride of 4 so every family is split.
    for index in 0..3 {
        let report = CampaignExecutor::new(spec.clone())
            .unwrap()
            .with_shard(Shard { index, of: 3 })
            .unwrap()
            .execute(|_| {})
            .unwrap();
        let case = format!("shard {index}/3");
        assert_matches(&report.outcomes, &reference, &case);
        assert!(dealt_as_families(&report.outcomes), "{case}");
    }

    // A checkpoint holding the unguarded and counter points of every
    // family: the resumed run simulates the other three members of each.
    let recovered: Vec<CampaignOutcome> = reference
        .iter()
        .filter(|outcome| {
            matches!(outcome.point.guard, GuardSpec::None) || outcome.point.guard == COUNTER
        })
        .map(|outcome| CampaignOutcome {
            wall_ns: Some(1),
            ..outcome.clone()
        })
        .collect();
    let executor = CampaignExecutor::new(spec.clone())
        .unwrap()
        .resume_from(recovered);
    assert_eq!(executor.pending_points().len(), 12);
    let report = executor.execute(|_| {}).unwrap();
    assert_matches(&report.outcomes, &reference, "resumed");

    // One family on two threads: with two cores or more every point is its
    // own unit of work, so the grid keeps its parallelism.
    let single = CampaignSpec {
        spread_scales: vec![0.1],
        trials: 1,
        ..spec
    };
    let reference = standalone_outcomes(&single);
    let report = single.run().unwrap();
    assert_matches(&report.outcomes, &reference, "one family, two threads");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(
        dealt_as_families(&report.outcomes),
        cores < 2,
        "one family, two threads, {cores} cores"
    );
}

#[test]
fn a_detailed_family_reproduces_standalone_points() {
    let spec = CampaignSpec {
        name: "detailed guard family".into(),
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
    assert_eq!(detections, [None, Some(1), Some(8), None]);
    let report = spec.run().unwrap();
    assert_matches(&report.outcomes, &reference, "detailed");
    assert!(dealt_as_families(&report.outcomes), "detailed");
}
