//! Experiment drivers for the paper artefacts that are not campaign grids.
//!
//! The Fig. 3 sweeps are declarative [`crate::campaign::CampaignSpec`]
//! grids (see the `neurohammer-bench` figure binaries); the drivers here
//! return plain data that those binaries render alongside.
//!
//! | Paper artefact | Driver |
//! |---|---|
//! | Fig. 1 (attack phases) | [`fig1_trace`] |
//! | Fig. 2a + Eq. 3/4 (temperature matrix, R_th, α) | [`fig2a_temperature_matrix`] |
//! | Design-choice ablations | [`ablation_report`] |

use serde::{Deserialize, Serialize};

use crate::attack::{run_attack, AttackConfig, AttackResult};
use crate::estimate::{estimate_attack, AttackEstimate};
use crate::pattern::AttackPattern;
use rram_crossbar::{
    BackendKind, CellAddress, CrossbarArray, CrosstalkHub, EngineConfig, HammerBackend,
    PulseEngine, WriteScheme,
};
use rram_fem::alpha::{extract_alpha, AlphaConfig};
use rram_fem::{AlphaError, AlphaExtraction, AlphaMatrix, CrossbarGeometry};
use rram_jart::current::solve_operating_point;
use rram_jart::DeviceParams;
use rram_units::{Kelvin, Seconds, Volts, Watts};

/// Where the crosstalk coefficients of an experiment come from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CouplingSource {
    /// Run the finite-volume extraction of `rram-fem` for each electrode
    /// spacing, using the given voxel size (nm). This is the paper's flow.
    Fem {
        /// Voxel edge length of the thermal solve, nm. 10 nm reproduces the
        /// reference numbers; 25 nm is ~20× faster for CI-grade runs.
        voxel_nm: f64,
    },
    /// Use a synthetic two-ring coupling profile with the given
    /// nearest-neighbour α (fast, no field solve).
    Uniform {
        /// α of the in-line nearest neighbours.
        nearest: f64,
    },
    /// Use an externally supplied α matrix.
    Provided(AlphaMatrix),
}

/// Common configuration shared by all experiment drivers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSetup {
    /// Array rows (the paper uses a 5×5 crossbar).
    pub rows: usize,
    /// Array columns.
    pub cols: usize,
    /// Compact-model parameters of every cell.
    pub device: DeviceParams,
    /// Source of the crosstalk coefficients.
    pub coupling: CouplingSource,
    /// Thermal time constant of the crosstalk coupling.
    pub tau: Seconds,
    /// Hammer amplitude (V_SET).
    pub amplitude: Volts,
    /// Pulse budget per attack before giving up.
    pub max_pulses: u64,
    /// Whether the attack engine may batch pulses.
    pub batching: bool,
    /// Simulation backend the attacks run on. All drivers are generic over
    /// [`HammerBackend`]; the default fast engine is what the paper-scale
    /// sweeps need, while [`BackendKind::Detailed`] runs the same experiments
    /// through the MNA reference engine.
    pub backend: BackendKind,
}

impl Default for ExperimentSetup {
    fn default() -> Self {
        ExperimentSetup {
            rows: 5,
            cols: 5,
            device: DeviceParams::default(),
            coupling: CouplingSource::Fem { voxel_nm: 10.0 },
            tau: Seconds(30e-9),
            amplitude: Volts(rram_units::V_SET),
            max_pulses: 3_000_000,
            batching: false,
            backend: BackendKind::Pulse,
        }
    }
}

impl ExperimentSetup {
    /// A reduced setup (synthetic coupling, smaller pulse budget) for tests
    /// and quick smoke runs.
    pub fn quick() -> Self {
        ExperimentSetup {
            coupling: CouplingSource::Uniform { nearest: 0.15 },
            max_pulses: 1_000_000,
            batching: true,
            ..ExperimentSetup::default()
        }
    }

    /// The victim cell used by all single-victim experiments: the in-line
    /// neighbour of the array-centre aggressor.
    pub fn victim(&self) -> CellAddress {
        CellAddress::new(self.rows / 2, self.cols / 2 - 1)
    }

    /// The power the hammered (LRS) cell dissipates in its active region at
    /// the hammer amplitude — the `P_LRS` the α extraction sweeps around.
    pub fn hammered_power(&self) -> Watts {
        Watts(solve_operating_point(&self.device, self.amplitude.0, self.device.n_max).power_active)
    }

    /// Crossbar geometry used for the thermal extraction at a given spacing.
    pub fn geometry(&self, spacing_nm: f64, voxel_nm: f64) -> CrossbarGeometry {
        CrossbarGeometry {
            rows: self.rows,
            cols: self.cols,
            electrode_spacing_nm: spacing_nm,
            voxel_nm,
            ..CrossbarGeometry::default()
        }
    }

    /// Extracts (or synthesises) the α matrix for the given electrode
    /// spacing and ambient temperature.
    ///
    /// # Errors
    ///
    /// Propagates [`AlphaError`] from the field solver when the coupling
    /// source is [`CouplingSource::Fem`].
    pub fn alpha_matrix(
        &self,
        spacing_nm: f64,
        ambient: Kelvin,
    ) -> Result<AlphaMatrix, AlphaError> {
        match &self.coupling {
            CouplingSource::Provided(matrix) => Ok(matrix.clone()),
            CouplingSource::Uniform { nearest } => Ok(CrosstalkHub::two_ring(
                self.rows, self.cols, *nearest, self.tau,
            )
            .alpha()
            .clone()),
            CouplingSource::Fem { voxel_nm } => {
                let geometry = self.geometry(spacing_nm, *voxel_nm);
                let p = self.hammered_power().0;
                let config = AlphaConfig {
                    ambient,
                    selected: (self.rows / 2, self.cols / 2),
                    powers: vec![Watts(0.25 * p), Watts(0.5 * p), Watts(0.75 * p), Watts(p)],
                };
                Ok(extract_alpha(&geometry, &config)?.alpha)
            }
        }
    }

    /// Runs the full extraction (not just the α matrix) — used by the
    /// Fig. 2a driver which also reports R_th and the temperature matrix.
    ///
    /// # Errors
    ///
    /// Returns an error when the coupling source is not
    /// [`CouplingSource::Fem`] (the other sources have no field solution) or
    /// when the field solve fails.
    pub fn full_extraction(
        &self,
        spacing_nm: f64,
        ambient: Kelvin,
    ) -> Result<AlphaExtraction, AlphaError> {
        match &self.coupling {
            CouplingSource::Fem { voxel_nm } => {
                let geometry = self.geometry(spacing_nm, *voxel_nm);
                let p = self.hammered_power().0;
                let config = AlphaConfig {
                    ambient,
                    selected: (self.rows / 2, self.cols / 2),
                    powers: vec![Watts(0.25 * p), Watts(0.5 * p), Watts(0.75 * p), Watts(p)],
                };
                extract_alpha(&geometry, &config)
            }
            _ => Err(AlphaError::NotEnoughPowers { provided: 0 }),
        }
    }

    /// The engine configuration shared by both backends.
    fn engine_config(&self, ambient: Kelvin) -> EngineConfig {
        EngineConfig {
            scheme: WriteScheme::HalfVoltage,
            v_write: self.amplitude,
            max_substep: Seconds(10e-9),
            ambient,
            threads: 1,
        }
    }

    /// Builds a fast pulse engine for the given spacing and ambient
    /// temperature (regardless of the configured [`BackendKind`]) — used by
    /// callers that need concrete `PulseEngine` extras such as the memory
    /// controller.
    ///
    /// # Errors
    ///
    /// Propagates [`AlphaError`] from the coupling extraction.
    pub fn build_engine(
        &self,
        spacing_nm: f64,
        ambient: Kelvin,
    ) -> Result<PulseEngine, AlphaError> {
        let alpha = self.alpha_matrix(spacing_nm, ambient)?;
        let device = DeviceParams {
            ambient_temperature: ambient.0,
            ..self.device.clone()
        };
        let array = CrossbarArray::new(self.rows, self.cols, device);
        let hub = CrosstalkHub::new(self.rows, self.cols, alpha, self.tau);
        Ok(PulseEngine::new(array, hub, self.engine_config(ambient)))
    }

    /// Builds the configured simulation backend for the given spacing and
    /// ambient temperature.
    ///
    /// # Errors
    ///
    /// Propagates [`AlphaError`] from the coupling extraction.
    pub fn build_backend(
        &self,
        spacing_nm: f64,
        ambient: Kelvin,
    ) -> Result<Box<dyn HammerBackend>, AlphaError> {
        let alpha = self.alpha_matrix(spacing_nm, ambient)?;
        let hub = CrosstalkHub::new(self.rows, self.cols, alpha, self.tau);
        Ok(self.backend.build(
            self.rows,
            self.cols,
            self.device.clone(),
            hub,
            self.engine_config(ambient),
        ))
    }

    /// The attack configuration for a given pulse length (the gap equals the
    /// pulse length, i.e. a 50 % duty cycle, unless the pattern sweep
    /// overrides it).
    pub fn attack_config(&self, pulse_length: Seconds, pattern: AttackPattern) -> AttackConfig {
        AttackConfig {
            victim: self.victim(),
            pattern,
            amplitude: self.amplitude,
            pulse_length,
            gap: pulse_length,
            max_pulses: self.max_pulses,
            batching: self.batching,
            trace: false,
        }
    }
}

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

/// Reproduces Fig. 2a: the per-cell temperature matrix of a 5×5 crossbar
/// with the centre cell dissipating its LRS write power, plus the extracted
/// R_th and α values.
///
/// # Errors
///
/// Propagates [`AlphaError`] from the field solver; requires
/// [`CouplingSource::Fem`].
pub fn fig2a_temperature_matrix(
    setup: &ExperimentSetup,
    spacing_nm: f64,
) -> Result<Fig2aResult, AlphaError> {
    let extraction = setup.full_extraction(spacing_nm, Kelvin(300.0))?;
    let power = setup.hammered_power();
    let op = solve_operating_point(&setup.device, setup.amplitude.0, setup.device.n_max);
    let compact_t = setup.device.ambient_temperature + setup.device.r_th_eff * op.power_active;
    Ok(Fig2aResult {
        extraction,
        hammered_power: power,
        compact_model_temperature: Kelvin(compact_t),
    })
}

/// Reproduces the Fig. 1 trace: a single-aggressor attack with full
/// pulse-by-pulse tracing of temperatures and victim state.
///
/// # Errors
///
/// Propagates [`AlphaError`] from the coupling extraction.
pub fn fig1_trace(
    setup: &ExperimentSetup,
    pulse_length: Seconds,
) -> Result<AttackResult, AlphaError> {
    let mut engine = setup.build_backend(50.0, Kelvin(300.0))?;
    let mut config = setup.attack_config(pulse_length, AttackPattern::SingleAggressor);
    config.trace = true;
    config.batching = false;
    Ok(run_attack(engine.as_mut(), &config))
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

/// Runs the ablation study at 50 nm spacing, 300 K and 50 ns pulses.
///
/// # Errors
///
/// Propagates [`AlphaError`] from the coupling extraction.
pub fn ablation_report(setup: &ExperimentSetup) -> Result<AblationReport, AlphaError> {
    let alpha = setup.alpha_matrix(50.0, Kelvin(300.0))?;
    let pulse = Seconds(50e-9);
    let mut rows = Vec::new();

    let mut run_variant = |name: &str, tau: Seconds, hub_enabled: bool, batching: bool| {
        let shared = ExperimentSetup {
            coupling: CouplingSource::Provided(alpha.clone()),
            tau,
            batching,
            ..setup.clone()
        };
        let mut engine = shared
            .build_engine(50.0, Kelvin(300.0))
            .expect("provided coupling cannot fail");
        engine.hub_mut().set_enabled(hub_enabled);
        let mut config = shared.attack_config(pulse, AttackPattern::SingleAggressor);
        // The no-crosstalk baseline would otherwise run to the full budget.
        if !hub_enabled {
            config.max_pulses = setup.max_pulses.min(400_000);
        }
        let result = run_attack(&mut engine, &config);
        rows.push(AblationRow {
            variant: name.to_string(),
            pulses: result.flipped.then_some(result.pulses),
            flipped: result.flipped,
        });
    };

    run_variant(
        "baseline (hub on, tau = 30 ns, batching)",
        setup.tau,
        true,
        true,
    );
    run_variant("crosstalk hub disabled", setup.tau, false, true);
    run_variant("static coupling (tau = 0)", Seconds(0.0), true, true);
    run_variant("slow coupling (tau = 300 ns)", Seconds(300e-9), true, true);
    run_variant("pulse batching disabled", setup.tau, true, false);

    let hub = CrosstalkHub::new(setup.rows, setup.cols, alpha, setup.tau);
    let estimate = estimate_attack(
        &setup.device,
        &hub,
        &setup.attack_config(pulse, AttackPattern::SingleAggressor),
    );

    Ok(AblationReport { rows, estimate })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentSetup {
        ExperimentSetup {
            max_pulses: 400_000,
            ..ExperimentSetup::quick()
        }
    }

    #[test]
    fn victim_is_the_centre_neighbour() {
        let setup = quick();
        assert_eq!(setup.victim(), CellAddress::new(2, 1));
    }

    #[test]
    fn hammered_power_is_tens_of_microwatts() {
        let p = quick().hammered_power().0;
        assert!(p > 5e-6 && p < 200e-6, "P_LRS = {p}");
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
    fn fem_coupling_source_is_exercised_with_a_coarse_grid() {
        // One coarse FEM extraction end-to-end (25 nm voxels keep it fast).
        let setup = ExperimentSetup {
            coupling: CouplingSource::Fem { voxel_nm: 25.0 },
            max_pulses: 400_000,
            ..ExperimentSetup::default()
        };
        let alpha = setup.alpha_matrix(50.0, Kelvin(300.0)).unwrap();
        assert!(alpha.max_neighbor_alpha() > 0.01);
        let fig2a = fig2a_temperature_matrix(&setup, 50.0).unwrap();
        let (r, c, t) = fig2a.extraction.temperature_matrix.hottest();
        assert_eq!((r, c), (2, 2));
        assert!(t.0 > 310.0);
        assert!(fig2a.compact_model_temperature.0 > 700.0);
    }

    #[test]
    fn full_extraction_requires_fem_source() {
        let err = quick().full_extraction(50.0, Kelvin(300.0)).unwrap_err();
        assert!(matches!(err, AlphaError::NotEnoughPowers { .. }));
    }
}
