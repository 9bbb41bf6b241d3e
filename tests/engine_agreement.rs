//! The fast ideal-driver pulse engine and the detailed (line-network)
//! engine must agree on short hammer bursts when wiring parasitics are
//! negligible.
//!
//! With the `HammerBackend` abstraction this is a campaign one-liner: put
//! both backends in the grid and ask the report for the worst cross-backend
//! drift ratio. Any future backend joins the check by being added to the
//! `backends` axis.

use neurohammer_repro::attack::campaign::{
    CampaignAxis, CampaignOutcome, CampaignPoint, CampaignReport, CampaignSpec,
};
use neurohammer_repro::attack::run_attack;
use neurohammer_repro::crossbar::{
    BackendKind, CellAddress, CrosstalkHub, EngineConfig, WiringParasitics, WriteScheme,
};
use neurohammer_repro::jart::{DeviceParams, DigitalState};
use neurohammer_repro::units::{Ohms, Seconds, Volts};

fn near_ideal_wiring() -> WiringParasitics {
    WiringParasitics {
        segment_resistance: Ohms(0.1),
        driver_resistance: Ohms(1.0),
    }
}

#[test]
fn fast_and_detailed_engines_agree_on_victim_progress() {
    // A 15-pulse burst on a 3×3 array, identical except for the backend
    // (near-ideal wiring so the engines only differ numerically).
    let spec = CampaignSpec {
        name: "engine agreement".into(),
        array_sizes: vec![(3, 3)],
        backends: vec![
            BackendKind::Pulse,
            BackendKind::Detailed(near_ideal_wiring()),
        ],
        max_pulses: 15,
        batching: false,
        ..CampaignSpec::default()
    };
    let report = spec.run().expect("agreement campaign failed");
    assert_eq!(report.outcomes.len(), 2);

    // Neither backend flips within 15 pulses; both must show positive victim
    // drift that agrees within a factor of 4 (the victim's absolute drift is
    // tiny, so the comparison is effectively on a log scale).
    assert!(report.outcomes.iter().all(|o| !o.flipped));
    assert!(report.outcomes.iter().all(|o| o.victim_drift > 0.0));
    let ratio = report
        .max_backend_drift_ratio()
        .expect("two backends per grid point");
    assert!(
        ratio < 4.0,
        "victim drift disagrees by {ratio:.2}x: {report:?}"
    );

    // The crosstalk ΔT at the victim's hub node must agree within 25 %.
    let deltas: Vec<f64> = report
        .outcomes
        .iter()
        .map(|o| o.final_crosstalk.0)
        .collect();
    let delta_ratio = deltas[0].max(deltas[1]) / deltas[0].min(deltas[1]).max(1e-12);
    assert!(
        delta_ratio < 1.25,
        "crosstalk ΔT disagrees: {deltas:?} (ratio {delta_ratio:.2})"
    );
}

/// Runs `spec` once per ideal-driver backend label and asserts the two
/// reports carry the same outcome bits in every field except the backend
/// itself and the fingerprint it feeds. Returns the `pulse` report.
fn assert_pulse_and_batched_bit_identical(spec: CampaignSpec) -> CampaignReport {
    let run = |backend| {
        CampaignSpec {
            backends: vec![backend],
            ..spec.clone()
        }
        .run()
        .expect("agreement campaign failed")
    };
    let (pulse, batched) = (run(BackendKind::Pulse), run(BackendKind::Batched));
    assert_eq!(pulse.outcomes.len(), batched.outcomes.len());
    for (a, b) in pulse.outcomes.iter().zip(&batched.outcomes) {
        // Destructured so a new outcome field fails to compile here until
        // it is compared too.
        let CampaignOutcome {
            key,
            point,
            flipped,
            pulses,
            victim_drift,
            final_crosstalk,
            sim_time,
            collateral_flips,
            defense,
            wall_ns: _,
        } = b;
        let context = format!("{:?}", a.point);
        assert_eq!(point.backend, BackendKind::Batched);
        assert_eq!(
            CampaignPoint {
                backend: BackendKind::Pulse,
                ..*point
            },
            a.point,
            "{context}"
        );
        assert_eq!(key.index, a.key.index, "{context}");
        assert_ne!(
            key.id, a.key.id,
            "{context}: the backend tag is fingerprinted"
        );
        assert_eq!(*flipped, a.flipped, "{context}");
        assert_eq!(*pulses, a.pulses, "{context}");
        assert_eq!(
            victim_drift.to_bits(),
            a.victim_drift.to_bits(),
            "{context}"
        );
        assert_eq!(
            final_crosstalk.0.to_bits(),
            a.final_crosstalk.0.to_bits(),
            "{context}"
        );
        assert_eq!(sim_time.0.to_bits(), a.sim_time.0.to_bits(), "{context}");
        assert_eq!(*collateral_flips, a.collateral_flips, "{context}");
        assert_eq!(*defense, a.defense, "{context}");
    }
    pulse
}

#[test]
fn pulse_and_batched_engines_agree_across_schemes() {
    // Both labels build the same ideal-driver engine, so the two must agree
    // far more tightly than the MNA comparison above — bit for bit. Checked
    // across write schemes, since the engine stamps each scheme's line
    // biases itself.
    let spec = CampaignSpec {
        name: "pulse vs batched".into(),
        schemes: vec![WriteScheme::HalfVoltage, WriteScheme::ThirdVoltage],
        backends: vec![BackendKind::Pulse, BackendKind::Batched],
        max_pulses: 400,
        batching: false,
        ..CampaignSpec::default()
    };
    assert_pulse_and_batched_bit_identical(spec.clone());
    let report = spec.run().expect("agreement campaign failed");
    assert_eq!(report.outcomes.len(), 4);
    assert!(report.outcomes.iter().all(|o| o.victim_drift > 0.0));

    let ratio = report
        .max_backend_drift_ratio()
        .expect("both backends per grid point");
    assert!(
        ratio < 1.0001,
        "pulse/batched victim drift disagrees by {ratio:.6}x: {report:?}"
    );

    // Per-scheme crosstalk agreement: the hub ΔT at the victim must match
    // within each scheme group.
    for series in report.series_over(CampaignAxis::Backend) {
        assert_eq!(series.points.len(), 2, "{series:?}");
    }
    for scheme in [WriteScheme::HalfVoltage, WriteScheme::ThirdVoltage] {
        let deltas: Vec<f64> = report
            .outcomes
            .iter()
            .filter(|o| o.point.scheme == scheme)
            .map(|o| o.final_crosstalk.0)
            .collect();
        assert_eq!(deltas.len(), 2);
        assert!(
            (deltas[0] - deltas[1]).abs() <= 1e-9 * deltas[0].abs().max(1e-9),
            "{scheme:?}: crosstalk ΔT disagrees: {deltas:?}"
        );
    }

    // V/3 hammering disturbs the victim less than V/2 on either label.
    let drift = |scheme, backend| {
        report
            .outcomes
            .iter()
            .find(|o| o.point.scheme == scheme && o.point.backend == backend)
            .expect("grid point present")
            .victim_drift
    };
    for backend in [BackendKind::Pulse, BackendKind::Batched] {
        assert!(
            drift(WriteScheme::HalfVoltage, backend) > drift(WriteScheme::ThirdVoltage, backend),
            "{backend:?}: V/3 should disturb less than V/2"
        );
    }
}

#[test]
fn pulse_and_batched_engines_agree_under_device_spreads() {
    // The identity must survive heterogeneous cells: with a per-cell
    // parameter table sampled from filament-radius and disc-length spreads,
    // both labels resolve the same per-cell parameters through the shared
    // kernel. The sampling seed deliberately excludes the backend, so both
    // labels simulate the identical devices.
    use rram_variability::{ParamField, ParamSpread};
    let nominal = DeviceParams::default();
    let spec = CampaignSpec {
        name: "pulse vs batched under spreads".into(),
        backends: vec![BackendKind::Pulse, BackendKind::Batched],
        spreads: vec![
            ParamSpread::relative_normal(ParamField::FilamentRadius, 0.08, &nominal),
            ParamSpread::relative_normal(ParamField::LDisc, 0.08, &nominal),
        ],
        trials: 2,
        seed: 77,
        max_pulses: 400,
        batching: false,
        ..CampaignSpec::default()
    };
    let single = assert_pulse_and_batched_bit_identical(spec.clone());
    // Guard against a trivially passing check: the spreads really produced
    // heterogeneous trials.
    assert_eq!(single.outcomes.len(), 2);
    assert_ne!(
        single.outcomes[0].victim_drift, single.outcomes[1].victim_drift,
        "the two sampled trials should simulate different devices"
    );

    let report = spec.run().expect("agreement campaign failed");
    assert_eq!(report.outcomes.len(), 4);
    assert!(report.outcomes.iter().all(|o| o.victim_drift > 0.0));

    let ratio = report
        .max_backend_drift_ratio()
        .expect("both backends per trial");
    assert!(
        ratio < 1.0001,
        "pulse/batched victim drift disagrees under spreads by {ratio:.6}x: {report:?}"
    );

    // Sanity: the trials of either label disagree far more than the two
    // labels of either trial.
    let drift = |backend, trial| {
        report
            .outcomes
            .iter()
            .find(|o| o.point.backend == backend && o.point.trial == trial)
            .expect("grid point present")
            .victim_drift
    };
    let across_trials = (drift(BackendKind::Pulse, 0) / drift(BackendKind::Pulse, 1) - 1.0).abs();
    assert!(
        across_trials > 100.0 * (ratio - 1.0),
        "trials barely differ ({across_trials}) vs backend drift ({ratio})"
    );
}

#[test]
fn pulse_results_never_replay_as_batched_backend_results() {
    // Both labels build the same engine, but each has its own backend tag
    // in every point fingerprint, and the tag still keeps their records
    // apart: pulse outcomes cannot merge into — or resume — a batched grid.
    use neurohammer_repro::attack::campaign::CampaignExecutor;
    let batched_spec = CampaignSpec {
        name: "exactness".into(),
        max_pulses: 300_000,
        backends: vec![BackendKind::Batched],
        ..CampaignSpec::default()
    };
    let pulse_spec = CampaignSpec {
        backends: vec![BackendKind::Pulse],
        ..batched_spec.clone()
    };
    let batched = batched_spec.run().expect("batched run failed");
    let pulse = pulse_spec.run().expect("pulse run failed");

    assert!(
        CampaignReport::merge([batched.clone(), pulse.clone()]).is_err(),
        "merging pulse outcomes into a batched report must fail loudly"
    );

    // Resuming the batched grid from a pulse checkpoint replays nothing:
    // every recorded key is stale, so the full grid re-runs.
    let resumed = CampaignExecutor::new(batched_spec.clone())
        .expect("spec validates")
        .resume_from(pulse.outcomes);
    assert_eq!(
        resumed.pending_points().len(),
        batched_spec.num_points(),
        "pulse outcomes must not satisfy batched-backend points"
    );
    // ... while its own checkpoints replay fine.
    let resumed = CampaignExecutor::new(batched_spec)
        .expect("spec validates")
        .resume_from(batched.outcomes);
    assert_eq!(resumed.pending_points().len(), 0);
}

#[test]
fn heavy_line_resistance_makes_the_detailed_engine_slower() {
    let aggressor = CellAddress::new(1, 1);
    let hub = || CrosstalkHub::uniform(3, 3, 0.15, 0.075, 0.0375, Seconds(30e-9));
    let run = |parasitics: WiringParasitics| {
        let mut xbar = BackendKind::Detailed(parasitics).build(
            3,
            3,
            DeviceParams::default(),
            hub(),
            EngineConfig::default(),
        );
        xbar.force_state(aggressor, DigitalState::Lrs);
        for _ in 0..10 {
            xbar.apply_pulse(aggressor, Volts(1.05), Seconds(50e-9));
        }
        xbar.hub().delta(1, 0).0
    };
    let ideal = run(near_ideal_wiring());
    let resistive = run(WiringParasitics {
        segment_resistance: Ohms(200.0),
        driver_resistance: Ohms(1_000.0),
    });
    assert!(
        resistive < ideal,
        "line resistance should reduce the aggressor power and hence the coupling \
         (ideal {ideal:.1} K vs resistive {resistive:.1} K)"
    );
}

#[test]
fn a_detailed_backend_campaign_point_reports_thermal_state() {
    // A single detailed-backend point driven end-to-end through the campaign
    // API: build, hammer a handful of pulses, read the thermal snapshot.
    let spec = CampaignSpec {
        name: "detailed probe".into(),
        array_sizes: vec![(3, 3)],
        backends: vec![BackendKind::detailed()],
        max_pulses: 6,
        batching: false,
        ..CampaignSpec::default()
    };
    let point = spec.points()[0];
    let mut backend = spec.backend_for(&point).expect("backend builds");
    assert_eq!(backend.label(), "detailed");
    let config = spec.attack_config(&point);
    let result = run_attack(backend.as_mut(), &config);
    assert!(!result.flipped);
    assert_eq!(result.pulses, 6);
    let readout = backend.thermal_readout(config.victim);
    assert!(readout.crosstalk.0 > 0.0, "no crosstalk reached the victim");
}
