//! Qualitative reproduction checks of the paper's evaluation figures, run
//! as the campaign specs the figure binaries execute (built from
//! `figure_campaign(true)`: synthetic coupling, 1.5 M pulse budget).
//!
//! The absolute pulse counts differ from the paper (different compact-model
//! calibration); these tests pin down the *shapes*: the direction of every
//! trend and rough effect sizes.

use neurohammer_bench::figure_campaign;
use neurohammer_repro::attack::campaign::{CampaignAxis, CampaignSpec};
use neurohammer_repro::attack::{AttackPattern, SweepSeries};

/// Runs the quick figure campaign with `grid` applied and slices the report
/// into sweep series over `axis`.
fn sweep(axis: CampaignAxis, grid: impl FnOnce(&mut CampaignSpec)) -> Vec<SweepSeries> {
    let mut spec = figure_campaign(true);
    grid(&mut spec);
    spec.run().expect("figure campaign").series_over(axis)
}

#[test]
fn fig3a_longer_pulses_need_fewer_pulses() {
    let series = sweep(CampaignAxis::PulseLength, |spec| {
        spec.pulse_lengths_ns = vec![20.0, 50.0, 100.0];
    });
    let series = &series[0];
    assert!(series.all_flipped(), "{series:?}");
    assert!(series.is_monotonically_decreasing(), "{series:?}");
    // Going from 20 ns to 100 ns pulses should save at least 2× in pulse count.
    assert!(series.endpoint_ratio().unwrap() > 2.0, "{series:?}");
}

#[test]
fn fig3c_hotter_ambient_needs_fewer_pulses() {
    let series = sweep(CampaignAxis::Ambient, |spec| {
        spec.ambients_k = vec![273.0, 323.0, 373.0];
        spec.pulse_lengths_ns = vec![50.0];
    });
    let s = &series[0];
    assert!(s.all_flipped(), "{s:?}");
    assert!(s.is_monotonically_decreasing(), "{s:?}");
    // The paper spans roughly three decades from 273 K to 373 K; require at
    // least one decade here (the quick setup uses synthetic coupling).
    assert!(s.endpoint_ratio().unwrap() > 10.0, "{s:?}");
}

#[test]
fn fig3d_line_coupled_patterns_beat_the_diagonal_pattern() {
    let series = sweep(CampaignAxis::Pattern, |spec| {
        spec.patterns = AttackPattern::ALL.to_vec();
        spec.pulse_lengths_ns = vec![100.0];
    });
    let series = &series[0];
    let pulses_of = |label: &str| {
        series
            .points
            .iter()
            .find(|p| p.label == label)
            .and_then(|p| p.pulses)
    };
    let single = pulses_of("single").expect("single-aggressor attack flips");
    let quad = pulses_of("quad").expect("quad attack flips");
    assert!(quad <= single, "quad {quad} vs single {single}");
    // The diagonal pattern couples only weakly: it must be the worst pattern
    // (more pulses than any line-coupled pattern, or no flip at all).
    if let Some(diag) = pulses_of("diagonal") {
        assert!(diag > quad, "diagonal {diag} vs quad {quad}");
    }
}
