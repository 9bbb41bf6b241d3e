//! Benchmarks the Fig. 3b flow: attacks under coupling strengths
//! corresponding to tight and loose electrode spacing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neurohammer::attack::{run_attack, AttackConfig};
use neurohammer::pattern::AttackPattern;
use rram_crossbar::{CellAddress, EngineConfig, PulseEngine};
use rram_jart::DeviceParams;
use rram_units::{Seconds, Volts};

fn attack_with_alpha(nearest_alpha: f64) -> u64 {
    let mut engine = PulseEngine::with_uniform_coupling(
        5,
        5,
        DeviceParams::default(),
        nearest_alpha,
        EngineConfig::default(),
    );
    let config = AttackConfig {
        victim: CellAddress::new(2, 1),
        pattern: AttackPattern::SingleAggressor,
        amplitude: Volts(1.05),
        pulse_length: Seconds(100e-9),
        gap: Seconds(100e-9),
        max_pulses: 2_000_000,
        batching: true,
        trace: false,
    };
    run_attack(&mut engine, &config).pulses
}

fn bench_spacing(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3b_spacing_as_coupling");
    group.sample_size(10);
    // α ≈ 0.22 corresponds to ~10 nm spacing, 0.15 to ~50 nm.
    for &(label, alpha) in &[("10nm_like", 0.22_f64), ("50nm_like", 0.15)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &alpha, |b, &alpha| {
            b.iter(|| attack_with_alpha(alpha))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_spacing);
criterion_main!(benches);
