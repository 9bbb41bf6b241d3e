//! Threaded-lane bit-identity at the engine level: splitting the pulse
//! engine's lane integration across worker threads must not change a single
//! bit of any cell trajectory — for any thread count 1–8, for odd array
//! shapes that leave chunk-sized remainders, and on heterogeneous arrays
//! whose per-cell parameters come from seeded Monte Carlo spreads (the
//! thread blocks must narrow the parameter table exactly like the
//! single-threaded lookup). `crates/jart/tests/kernel_lanes.rs` pins the
//! same property at the kernel level with proptest; this suite pins the
//! full engine loop (scheme biasing, crosstalk import/export, gap phases)
//! around it.

use neurohammer_repro::crossbar::{
    CellAddress, EngineConfig, HammerBackend, PulseEngine, WriteScheme,
};
use neurohammer_repro::jart::{DeviceParams, DigitalState};
use neurohammer_repro::units::{Seconds, Volts};
use rram_variability::{try_sample_table, ParamField, ParamSpread};

/// A sampled per-cell parameter table with the workspace's standard
/// variability fields, deterministic in `seed`.
fn sampled_table(cells: usize, seed: u64) -> Vec<DeviceParams> {
    let nominal = DeviceParams::default();
    let spreads = vec![
        ParamSpread::relative_normal(ParamField::FilamentRadius, 0.06, &nominal),
        ParamSpread::relative_normal(ParamField::LDisc, 0.06, &nominal),
    ];
    try_sample_table(&nominal, &spreads, seed, cells).expect("nominal spreads sample validly")
}

/// Builds a heterogeneous pulse engine with `threads` lane workers and runs
/// a hammer burst with interleaved idles on it, returning the engine for
/// inspection.
fn hammered_engine(
    rows: usize,
    cols: usize,
    scheme: WriteScheme,
    threads: usize,
    seed: u64,
) -> PulseEngine {
    let config = EngineConfig {
        scheme,
        threads,
        ..EngineConfig::default()
    };
    let mut engine =
        PulseEngine::with_uniform_coupling(rows, cols, DeviceParams::default(), 0.12, config);
    engine
        .array_mut()
        .set_params_table(sampled_table(rows * cols, seed));
    let aggressor = CellAddress::new(rows / 2, cols / 2);
    engine.force_state(aggressor, DigitalState::Lrs);
    for _ in 0..6 {
        engine.apply_pulse(aggressor, Volts(1.05), Seconds(50e-9));
        engine.idle(Seconds(70e-9));
    }
    engine
}

/// Bitwise equality over every state lane of two engines' banks, plus the
/// hub state (threading never reorders the hub update, which stays on the
/// coordinating thread).
fn assert_engines_identical(a: &PulseEngine, b: &PulseEngine, context: &str) {
    let (a_bank, b_bank) = (a.array().bank(), b.array().bank());
    for lane in 0..a_bank.lanes() {
        assert_eq!(
            a_bank.concentrations()[lane].to_bits(),
            b_bank.concentrations()[lane].to_bits(),
            "{context}: lane {lane} concentration {} vs {}",
            a_bank.concentrations()[lane],
            b_bank.concentrations()[lane],
        );
        assert_eq!(
            a_bank.temperatures()[lane].to_bits(),
            b_bank.temperatures()[lane].to_bits(),
            "{context}: lane {lane} temperature"
        );
        assert_eq!(
            a_bank.stress_times()[lane].to_bits(),
            b_bank.stress_times()[lane].to_bits(),
            "{context}: lane {lane} stress time"
        );
        assert_eq!(
            a_bank.charges()[lane].to_bits(),
            b_bank.charges()[lane].to_bits(),
            "{context}: lane {lane} charge"
        );
        assert_eq!(
            a_bank.digital()[lane],
            b_bank.digital()[lane],
            "{context}: lane {lane} digital state"
        );
    }
    assert_eq!(a.hub().deltas(), b.hub().deltas(), "{context}: hub deltas");
    assert_eq!(
        HammerBackend::elapsed(a).0,
        HammerBackend::elapsed(b).0,
        "{context}: elapsed"
    );
}

#[test]
fn every_thread_count_reproduces_the_single_threaded_burst() {
    // 7×5 leaves a 3-lane remainder after four 8-lane chunks, so thread
    // blocks, chunk boundaries and the scalar tail all misalign — the
    // worst case for a partitioning bug.
    let reference = hammered_engine(7, 5, WriteScheme::HalfVoltage, 1, 0xfeed);
    for threads in 2..=8 {
        let threaded = hammered_engine(7, 5, WriteScheme::HalfVoltage, threads, 0xfeed);
        assert_engines_identical(&reference, &threaded, &format!("{threads} threads"));
    }
}

#[test]
fn thread_splitting_survives_negative_unselected_voltages() {
    // Under V/3 biasing the unselected cells see −V/3: every lane is
    // active in every chunk, so the threaded path integrates the full
    // array rather than mostly relaxing it.
    let reference = hammered_engine(6, 6, WriteScheme::ThirdVoltage, 1, 0xbeef);
    for threads in [3, 5, 8] {
        let threaded = hammered_engine(6, 6, WriteScheme::ThirdVoltage, threads, 0xbeef);
        assert_engines_identical(&reference, &threaded, &format!("V/3, {threads} threads"));
    }
}

#[test]
fn more_threads_than_lanes_degenerates_cleanly() {
    // A 2×2 array with 8 requested workers: the engine must clamp to the
    // lane count rather than spawn idle threads or split below one lane.
    let reference = hammered_engine(2, 2, WriteScheme::HalfVoltage, 1, 0xcafe);
    let threaded = hammered_engine(2, 2, WriteScheme::HalfVoltage, 8, 0xcafe);
    assert_engines_identical(&reference, &threaded, "8 threads on 4 lanes");
}

#[test]
fn distinct_seeds_sample_distinct_devices() {
    // Guard against a trivially passing suite: the sampled tables really
    // differ between seeds, so the bit-identity above is established on
    // genuinely heterogeneous arrays.
    let a = sampled_table(25, 0xfeed);
    let b = sampled_table(25, 0xfeed ^ 0xff);
    assert_eq!(a.len(), b.len());
    assert!(
        a.iter()
            .zip(&b)
            .any(|(x, y)| x.filament_radius != y.filament_radius),
        "different seeds must sample different devices"
    );
    assert!(
        a.iter().any(|p| p.filament_radius != a[0].filament_radius),
        "a sampled table must not be homogeneous"
    );
}
