//! End-to-end test of the paper's simulation flow (Fig. 2b/2c):
//! field solver → crosstalk coefficients → crosstalk hub → crossbar engine →
//! NeuroHammer attack → bit-flip.

use neurohammer_repro::attack::pattern::AttackPattern;
use neurohammer_repro::attack::{run_attack, AttackConfig};
use neurohammer_repro::crossbar::{
    CellAddress, CrossbarArray, CrosstalkHub, EngineConfig, PulseEngine,
};
use neurohammer_repro::fem::alpha::{extract_alpha, AlphaConfig};
use neurohammer_repro::fem::CrossbarGeometry;
use neurohammer_repro::jart::DeviceParams;
use neurohammer_repro::units::{Kelvin, Seconds, Volts, Watts};

#[test]
fn fem_to_attack_flow_produces_a_bit_flip() {
    // 1. Thermal extraction on a coarse grid (keeps the test fast).
    let geometry = CrossbarGeometry {
        voxel_nm: 25.0,
        ..CrossbarGeometry::default()
    };
    let config = AlphaConfig {
        ambient: Kelvin(300.0),
        selected: (2, 2),
        powers: vec![Watts(15e-6), Watts(30e-6), Watts(45e-6)],
    };
    let extraction = extract_alpha(&geometry, &config).expect("field solve");
    assert!(
        extraction.min_r_squared > 0.999,
        "thermal response must be linear"
    );
    let alpha = extraction.alpha;
    assert!(alpha.max_neighbor_alpha() > 0.02 && alpha.max_neighbor_alpha() < 0.5);

    // 2. Build the circuit-level platform with the extracted coefficients.
    let array = CrossbarArray::new(5, 5, DeviceParams::default());
    let hub = CrosstalkHub::new(5, 5, alpha, Seconds(30e-9));
    let mut engine = PulseEngine::new(array, hub, EngineConfig::default());

    // 3. Run the attack of the paper's main experiment.
    let attack = AttackConfig {
        victim: CellAddress::new(2, 1),
        pattern: AttackPattern::SingleAggressor,
        amplitude: Volts(1.05),
        pulse_length: Seconds(100e-9),
        gap: Seconds(100e-9),
        max_pulses: 3_000_000,
        batching: true,
        trace: false,
    };
    let result = run_attack(&mut engine, &attack);
    assert!(result.flipped, "no bit-flip after {} pulses", result.pulses);
    assert!(
        result.pulses > 50,
        "flip was suspiciously fast: {}",
        result.pulses
    );
}

#[test]
fn disabling_the_extracted_coupling_prevents_the_flip_within_the_same_budget() {
    let geometry = CrossbarGeometry {
        voxel_nm: 25.0,
        ..CrossbarGeometry::default()
    };
    let config = AlphaConfig {
        ambient: Kelvin(300.0),
        selected: (2, 2),
        powers: vec![Watts(15e-6), Watts(45e-6)],
    };
    let alpha = extract_alpha(&geometry, &config)
        .expect("field solve")
        .alpha;

    let attack = AttackConfig {
        victim: CellAddress::new(2, 1),
        pattern: AttackPattern::SingleAggressor,
        amplitude: Volts(1.05),
        pulse_length: Seconds(100e-9),
        gap: Seconds(100e-9),
        max_pulses: 3_000_000,
        batching: true,
        trace: false,
    };

    let array = CrossbarArray::new(5, 5, DeviceParams::default());
    let hub = CrosstalkHub::new(5, 5, alpha, Seconds(30e-9));
    let mut engine = PulseEngine::new(array, hub, EngineConfig::default());
    let with_coupling = run_attack(&mut engine, &attack);
    assert!(with_coupling.flipped);

    let array = CrossbarArray::new(5, 5, DeviceParams::default());
    let hub = CrosstalkHub::two_ring(5, 5, 0.0, Seconds(30e-9));
    let mut engine = PulseEngine::new(array, hub, EngineConfig::default());
    let mut capped = attack.clone();
    capped.max_pulses = with_coupling.pulses * 3;
    let without_coupling = run_attack(&mut engine, &capped);
    assert!(
        !without_coupling.flipped,
        "V/2 disturb alone flipped within {}x the NeuroHammer pulse count",
        3
    );
}
