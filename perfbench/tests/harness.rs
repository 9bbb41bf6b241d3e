//! Self-tests of the benchmark harness: the timing wrapper forwards every
//! backend call, a traced replay reproduces the executor's outcome on one
//! point of each workload, and the reference check flags perturbed
//! outcomes.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::cell::Cell;
use std::path::PathBuf;

use neurohammer::campaign::{CampaignExecutor, CampaignOutcome, CampaignSpec, Shard};
use perfbench::reference::{self, Expected};
use perfbench::replay::replay_point;
use perfbench::spans::SpanLog;
use perfbench::timing::{Method, TimedBackend};
use perfbench::workload::{Workload, DEFAULT_SEED};
use rram_crossbar::{
    BackendKind, CellAddress, CrosstalkHub, EngineConfig, HammerBackend, ThermalReadout,
};
use rram_jart::{DeviceParams, DigitalState};
use rram_units::{Kelvin, Seconds, Volts};

/// A backend whose every method, provided ones included, answers with a
/// value no default implementation produces, and counts its calls.
struct Fake {
    hub: CrosstalkHub,
    calls: Cell<usize>,
}

impl Fake {
    fn call(&self) {
        self.calls.set(self.calls.get() + 1);
    }
}

impl HammerBackend for Fake {
    fn label(&self) -> &'static str {
        self.call();
        "fake"
    }
    fn rows(&self) -> usize {
        self.call();
        2
    }
    fn cols(&self) -> usize {
        self.call();
        3
    }
    fn apply_pulse(&mut self, _: CellAddress, _: Volts, _: Seconds) {
        self.call();
    }
    fn idle(&mut self, _: Seconds) {
        self.call();
    }
    fn read(&self, _: CellAddress) -> DigitalState {
        self.call();
        DigitalState::Lrs
    }
    fn normalized_state(&self, _: CellAddress) -> f64 {
        self.call();
        0.625
    }
    fn force_state(&mut self, _: CellAddress, _: DigitalState) {
        self.call();
    }
    fn force_normalized_state(&mut self, _: CellAddress, _: f64) {
        self.call();
    }
    fn thermal_readout(&self, _: CellAddress) -> ThermalReadout {
        self.call();
        ThermalReadout {
            temperature: Kelvin(412.0),
            crosstalk: Kelvin(7.0),
            normalized_state: 0.25,
        }
    }
    fn hub(&self) -> &CrosstalkHub {
        self.call();
        &self.hub
    }
    fn hub_mut(&mut self) -> &mut CrosstalkHub {
        self.call();
        &mut self.hub
    }
    fn elapsed(&self) -> Seconds {
        self.call();
        Seconds(3.5)
    }
    fn reset(&mut self) {
        self.call();
    }
    fn peak_crosstalk(&self) -> Kelvin {
        self.call();
        Kelvin(123.0)
    }
    fn worker_threads(&self) -> usize {
        self.call();
        7
    }
    fn simd_isa(&self) -> &'static str {
        self.call();
        "fake-isa"
    }
    fn read_all(&self) -> Vec<DigitalState> {
        self.call();
        vec![DigitalState::Lrs; 5]
    }
    fn changed_cells(&self, _: &[DigitalState]) -> Vec<CellAddress> {
        self.call();
        vec![CellAddress::new(1, 2)]
    }
}

#[test]
fn the_timing_wrapper_forwards_and_times_every_method() {
    let mut fake = Fake {
        hub: CrosstalkHub::two_ring(2, 3, 0.15, Seconds(30e-9)),
        calls: Cell::new(0),
    };
    let cell = CellAddress::new(0, 0);
    let mut timed = TimedBackend::new(&mut fake);
    assert_eq!(timed.label(), "fake");
    assert_eq!((timed.rows(), timed.cols()), (2, 3));
    timed.apply_pulse(cell, Volts(1.0), Seconds(1e-9));
    timed.idle(Seconds(1e-9));
    assert_eq!(timed.read(cell), DigitalState::Lrs);
    assert_eq!(timed.normalized_state(cell), 0.625);
    timed.force_state(cell, DigitalState::Hrs);
    timed.force_normalized_state(cell, 0.5);
    assert_eq!(timed.thermal_readout(cell).temperature, Kelvin(412.0));
    assert_eq!(timed.hub().rows(), 2);
    assert_eq!(timed.hub_mut().cols(), 3);
    assert_eq!(timed.elapsed(), Seconds(3.5));
    timed.reset();
    assert_eq!(timed.peak_crosstalk(), Kelvin(123.0));
    assert_eq!(timed.worker_threads(), 7);
    assert_eq!(timed.simd_isa(), "fake-isa");
    assert_eq!(timed.read_all().len(), 5);
    assert_eq!(timed.changed_cells(&[]), vec![CellAddress::new(1, 2)]);

    let totals = timed.totals();
    for method in Method::ALL {
        assert_eq!(
            totals.count(method),
            1,
            "{method:?} was not timed exactly once"
        );
    }
    assert_eq!(
        fake.calls.get(),
        Method::ALL.len(),
        "every call reached the engine once"
    );
}

#[test]
fn the_timing_wrapper_keeps_a_batched_engines_overrides() {
    let config = EngineConfig {
        threads: 3,
        ..EngineConfig::default()
    };
    let hub = CrosstalkHub::two_ring(5, 5, 0.15, Seconds(30e-9));
    let mut engine = BackendKind::Batched.build(5, 5, DeviceParams::default(), hub, config);
    let aggressor = CellAddress::new(2, 2);
    engine.force_state(aggressor, DigitalState::Lrs);
    engine.apply_pulse(aggressor, Volts(1.05), Seconds(50e-9));
    let (threads, isa, states, peak) = (
        engine.worker_threads(),
        engine.simd_isa(),
        engine.read_all(),
        engine.peak_crosstalk(),
    );
    let timed = TimedBackend::new(engine.as_mut());
    assert_eq!(timed.worker_threads(), threads);
    assert_eq!(threads, 3);
    assert_eq!(timed.simd_isa(), isa);
    assert_eq!(timed.read_all(), states);
    assert_eq!(timed.peak_crosstalk(), peak);
}

/// The executor's outcome for grid point `index` of `spec` alone (a shard
/// owning only that point).
fn executed(spec: &CampaignSpec, index: usize) -> CampaignOutcome {
    let report = CampaignExecutor::new(spec.clone())
        .unwrap()
        .with_shard(Shard {
            index,
            of: spec.num_points(),
        })
        .unwrap()
        .execute(|_| {})
        .unwrap();
    assert_eq!(report.outcomes.len(), 1);
    report.outcomes[0].clone()
}

fn replayed(spec: &CampaignSpec, index: usize) -> CampaignOutcome {
    let (key, point) = spec.keyed_points()[index];
    let log = SpanLog::new("test");
    let root = log.open("workload", None, None);
    replay_point(spec, key, &point, index, &log, root)
        .unwrap()
        .outcome
}

/// One point of every workload: fig3a's 100 ns point, a heterogeneous
/// 256×256 point and a guarded heterogeneous fleet point (the larger two
/// with shortened budgets to keep the test fast).
#[test]
fn a_traced_replay_equals_the_untraced_outcome_on_every_workload() {
    let cases = [
        (Workload::Fig3Quick, 0, 3, None),
        (Workload::Mc256, 0, 1, Some(20)),
        (Workload::FleetDefense, 0, 300, None),
    ];
    for (workload, spec_index, point, budget) in cases {
        let mut spec = workload.specs(DEFAULT_SEED)[spec_index].clone();
        if let Some(budget) = budget {
            spec.max_pulses = budget;
        }
        let (_, p) = spec.keyed_points()[point];
        if workload == Workload::Mc256 {
            assert!(
                spec.sampled_table(&p).unwrap().is_some(),
                "expected a Monte Carlo point"
            );
        }
        if workload == Workload::FleetDefense {
            assert!(!p.guard.is_none(), "expected a guarded point");
        }
        let untraced = executed(&spec, point);
        let traced = replayed(&spec, point);
        assert_eq!(traced, untraced, "{}: the replay diverged", workload.name());
    }
}

fn references() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("references")
}

#[test]
fn the_reference_check_flags_a_perturbed_outcome() {
    let spec = &Workload::Fig3Quick.specs(DEFAULT_SEED)[0];
    let fresh = executed(spec, 3);
    let (_, recorded) = reference::read(&reference::path(
        &references(),
        Workload::Fig3Quick,
        DEFAULT_SEED,
    ))
    .unwrap();
    let with = |outcome: &CampaignOutcome| -> Vec<Expected> {
        let mut got = recorded.clone();
        got[3] = Expected::of(3, outcome);
        got
    };

    let check = reference::check(&recorded, &with(&fresh));
    assert!(
        check.passed(),
        "a fresh run must match the reference: {check:?}"
    );

    let mut more_pulses = fresh.clone();
    more_pulses.pulses += 1;
    let check = reference::check(&recorded, &with(&more_pulses));
    assert!(!check.passed() && check.accuracy_err > 0.0, "{check:?}");

    let mut drifted = fresh.clone();
    drifted.victim_drift *= 1.0 + 1e-12;
    assert!(reference::check(&recorded, &with(&drifted)).accuracy_err > 0.0);

    let mut unflipped = fresh.clone();
    unflipped.flipped = !unflipped.flipped;
    assert_eq!(reference::check(&recorded, &with(&unflipped)).failed, 1);

    let mut missing = with(&fresh);
    missing.remove(3);
    assert_eq!(reference::check(&recorded, &missing).failed, 1);

    let mut duplicated = with(&fresh);
    duplicated.push(duplicated[3].clone());
    assert_eq!(reference::check(&recorded, &duplicated).failed, 1);
}

#[test]
fn every_recorded_guard_verdict_is_checked() {
    let (_, recorded) = reference::read(&reference::path(
        &references(),
        Workload::FleetDefense,
        DEFAULT_SEED,
    ))
    .unwrap();
    assert_eq!(recorded.len(), 480);
    let guarded = recorded.iter().filter(|p| p.blocked.is_some()).count();
    assert_eq!(
        guarded,
        480 * 4 / 5,
        "every guarded point records its verdict"
    );
    let mut flipped = recorded.clone();
    let victim = flipped.iter().position(|p| p.blocked.is_some()).unwrap();
    flipped[victim].blocked = flipped[victim].blocked.map(|b| !b);
    assert_eq!(reference::check(&recorded, &flipped).failed, 1);
}
