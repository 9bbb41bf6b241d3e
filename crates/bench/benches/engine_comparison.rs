//! Compares the fast ideal-driver pulse engine against the detailed
//! (line-network) engine for a short hammer burst (the "two fidelities"
//! ablation).

use criterion::{criterion_group, criterion_main, Criterion};
use rram_crossbar::{BackendKind, CellAddress, CrosstalkHub, EngineConfig, PulseEngine};
use rram_jart::{DeviceParams, DigitalState};
use rram_units::{Seconds, Volts};

const BURST: usize = 10;

fn fast_engine_burst() -> f64 {
    let mut engine = PulseEngine::with_uniform_coupling(
        3,
        3,
        DeviceParams::default(),
        0.15,
        EngineConfig::default(),
    );
    let aggressor = CellAddress::new(1, 1);
    engine
        .array_mut()
        .cell_mut(aggressor)
        .force_state(DigitalState::Lrs);
    for _ in 0..BURST {
        engine.apply_pulse(aggressor, Volts(1.05), Seconds(50e-9));
        engine.idle(Seconds(50e-9));
    }
    engine
        .array()
        .cell(CellAddress::new(1, 0))
        .normalized_state()
}

fn detailed_engine_burst() -> f64 {
    let mut xbar = BackendKind::detailed().build(
        3,
        3,
        DeviceParams::default(),
        CrosstalkHub::uniform(3, 3, 0.15, 0.075, 0.0375, Seconds(30e-9)),
        EngineConfig::default(),
    );
    let aggressor = CellAddress::new(1, 1);
    xbar.force_state(aggressor, DigitalState::Lrs);
    for _ in 0..BURST {
        xbar.apply_pulse(aggressor, Volts(1.05), Seconds(50e-9));
    }
    xbar.normalized_state(CellAddress::new(1, 0))
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_comparison");
    group.sample_size(10);
    group.bench_function("fast_pulse_engine_10_pulses", |b| b.iter(fast_engine_burst));
    group.bench_function("detailed_mna_engine_10_pulses", |b| {
        b.iter(detailed_engine_burst)
    });
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
