//! Experiment drivers for the paper artefacts that are not campaign grids.
//!
//! The Fig. 1 trace and the Fig. 3 sweeps are declarative
//! [`CampaignSpec`] grids (see the `neurohammer-bench` figure binaries);
//! the drivers here take such a spec and return plain data that those
//! binaries render alongside.
//!
//! | Paper artefact | Driver |
//! |---|---|
//! | Fig. 2a + Eq. 3/4 (temperature matrix, R_th, α) | [`fig2a_temperature_matrix`] |
//! | Design-choice ablations | [`ablation_report`] |

use serde::{Deserialize, Serialize};

use crate::campaign::{CampaignError, CampaignPoint, CampaignSpec, CouplingSpec};
use crate::estimate::{estimate_attack, AttackEstimate};
use rram_fem::alpha::extract_alpha_cached;
use rram_fem::AlphaExtraction;
use rram_jart::DeviceParams;
use rram_units::{Kelvin, Watts};

/// Result of the Fig. 2a / Eq. 3–4 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2aResult {
    /// Full extraction: R_th, α matrix, fit quality and the temperature
    /// matrix at `P_LRS`.
    pub extraction: AlphaExtraction,
    /// The dissipated power of the hammered cell used for the sweep, W.
    pub hammered_power: Watts,
    /// Filament temperature the compact model predicts for the hammered cell
    /// (for cross-checking against the field solution), K.
    pub compact_model_temperature: Kelvin,
}

/// Reproduces Fig. 2a: the per-cell temperature matrix of the crossbar of
/// `point` with the centre cell dissipating its LRS write power, plus the
/// extracted R_th and α values. The field problem is the one the campaign
/// solves for the point ([`CampaignSpec::alpha_problem`]), so after a run
/// of `spec` the extraction comes from the in-process cache.
///
/// # Errors
///
/// Returns [`CampaignError::InvalidValue`] when `spec` has no FEM coupling
/// and propagates the field solver's errors.
pub fn fig2a_temperature_matrix(
    spec: &CampaignSpec,
    point: &CampaignPoint,
) -> Result<Fig2aResult, CampaignError> {
    let (geometry, config) = spec.alpha_problem(point).ok_or_else(|| {
        CampaignError::InvalidValue("Fig. 2a needs a FEM coupling to solve".into())
    })?;
    let extraction = extract_alpha_cached(&geometry, &config, spec.threads)?;
    // The sweep's largest power is the hammered cell's P_LRS.
    let power = config.powers[config.powers.len() - 1];
    let device = DeviceParams::default();
    Ok(Fig2aResult {
        extraction,
        hammered_power: power,
        compact_model_temperature: Kelvin(device.ambient_temperature + device.r_th_eff * power.0),
    })
}

/// One row of the ablation report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Name of the variant.
    pub variant: String,
    /// Pulses to flip (`None` when no flip occurred within the budget).
    pub pulses: Option<u64>,
    /// Whether the flip occurred.
    pub flipped: bool,
}

/// Ablation study over the model's main design choices: crosstalk hub
/// on/off, thermal time constant, pulse batching and the analytic
/// estimator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationReport {
    /// Simulated variants.
    pub rows: Vec<AblationRow>,
    /// The analytic estimate for the baseline configuration.
    pub estimate: AttackEstimate,
}

/// Runs the design-choice ablation around `base`, a one-point grid. Each
/// variant is `base` with one field changed, run through the campaign
/// executor:
///
/// - the baseline itself;
/// - the crosstalk hub off: zero coupling, with the budget capped at
///   400,000 pulses, since the attack would otherwise run the whole budget;
/// - a static coupling, τ = 0;
/// - a slow coupling, τ = 300 ns;
/// - exact pulse-by-pulse stepping, without batching.
///
/// The closed-form estimate is taken for the baseline.
///
/// # Errors
///
/// Returns [`CampaignError::InvalidValue`] when `base` has more than one
/// point, and propagates the variants' validation and coupling errors.
pub fn ablation_report(base: &CampaignSpec) -> Result<AblationReport, CampaignError> {
    if base.num_points() != 1 {
        return Err(CampaignError::InvalidValue(
            "the ablation grid must have exactly one point".into(),
        ));
    }
    let variants = [
        ("baseline (hub on, tau = 30 ns, batching)", base.clone()),
        (
            "crosstalk hub disabled",
            CampaignSpec {
                coupling: CouplingSpec::Uniform { nearest: 0.0 },
                max_pulses: base.max_pulses.min(400_000),
                ..base.clone()
            },
        ),
        (
            "static coupling (tau = 0)",
            CampaignSpec {
                tau_ns: 0.0,
                ..base.clone()
            },
        ),
        (
            "slow coupling (tau = 300 ns)",
            CampaignSpec {
                tau_ns: 300.0,
                ..base.clone()
            },
        ),
        (
            "pulse batching disabled",
            CampaignSpec {
                batching: false,
                ..base.clone()
            },
        ),
    ];
    let mut rows = Vec::with_capacity(variants.len());
    for (variant, spec) in variants {
        let outcome = &spec.run()?.outcomes[0];
        rows.push(AblationRow {
            variant: variant.into(),
            pulses: outcome.flipped.then_some(outcome.pulses),
            flipped: outcome.flipped,
        });
    }

    let point = base.points()[0];
    let backend = base.backend_for(&point)?;
    let estimate = estimate_attack(
        &DeviceParams::default(),
        backend.hub(),
        &base.attack_config(&point),
    );
    Ok(AblationReport { rows, estimate })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> CampaignSpec {
        CampaignSpec {
            max_pulses: 400_000,
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn ablation_shows_the_hub_is_essential() {
        let report = ablation_report(&quick()).unwrap();
        let baseline = report
            .rows
            .iter()
            .find(|r| r.variant.starts_with("baseline"))
            .unwrap();
        let disabled = report
            .rows
            .iter()
            .find(|r| r.variant.contains("disabled") && r.variant.contains("hub"))
            .unwrap();
        assert!(baseline.flipped);
        match (baseline.pulses, disabled.pulses) {
            (Some(b), Some(d)) => assert!(d > 3 * b, "hub off {d} vs on {b}"),
            (Some(_), None) => {} // no flip without the hub at all — even stronger
            other => panic!("unexpected ablation outcome {other:?}"),
        }
        assert!(report.estimate.pulses_to_flip.is_some());
    }

    #[test]
    fn the_ablation_runs_on_one_point() {
        let two = CampaignSpec {
            pulse_lengths_ns: vec![50.0, 100.0],
            ..quick()
        };
        assert!(matches!(
            ablation_report(&two),
            Err(CampaignError::InvalidValue(_))
        ));
    }

    #[test]
    fn fig2a_solves_the_points_field_problem_with_a_coarse_grid() {
        // One coarse FEM extraction end-to-end (25 nm voxels keep it fast).
        let spec = CampaignSpec {
            coupling: CouplingSpec::Fem { voxel_nm: 25.0 },
            ..quick()
        };
        let fig2a = fig2a_temperature_matrix(&spec, &spec.points()[0]).unwrap();
        assert!(fig2a.extraction.alpha.max_neighbor_alpha() > 0.01);
        let (r, c, t) = fig2a.extraction.temperature_matrix.hottest();
        assert_eq!((r, c), (2, 2));
        assert!(t.0 > 310.0);
        assert!(fig2a.compact_model_temperature.0 > 700.0);
        let p = fig2a.hammered_power.0;
        assert!(p > 5e-6 && p < 200e-6, "P_LRS = {p}");
    }

    #[test]
    fn fig2a_requires_fem_coupling() {
        let spec = quick();
        let err = fig2a_temperature_matrix(&spec, &spec.points()[0]).unwrap_err();
        assert!(matches!(err, CampaignError::InvalidValue(_)));
    }
}
