//! NeuroHammer: thermal-crosstalk bit-flip attacks on memristive crossbar
//! memories — the primary contribution of the reproduced paper
//! (Staudigl et al., DATE 2022), built on the substrates in the sibling
//! crates (`rram-fem`, `rram-jart`, `rram-circuit`, `rram-crossbar`).
//!
//! The crate provides:
//!
//! * [`attack`] — the hammering engine implementing the four attack phases
//!   of Fig. 1: one round-robin loop with bit-flip detection, pulse
//!   batching, a time-resolved trace and an optional guard observing every
//!   write — generic over any [`rram_crossbar::HammerBackend`];
//! * [`campaign`] — declarative, JSON-serialisable campaign grids
//!   (patterns × amplitudes × pulse lengths × duty cycles × array sizes ×
//!   spacings × ambients × schemes × backends × Monte Carlo trials)
//!   executed by a streaming, shardable, resumable executor, with
//!   table/CSV/sweep-series rendering, mergeable checkpointable reports
//!   and trial-collapsing variability statistics ([`campaign::stats`]);
//! * [`pattern`] — aggressor placement patterns (single, double-sided, quad,
//!   diagonal; Fig. 3d–h);
//! * [`estimate`] — a closed-form pulses-to-flip estimator used for
//!   cross-checks and budget sizing;
//! * [`experiments`] — the Fig. 2a field extraction and the design-choice
//!   ablations, both driven by a campaign spec (the Fig. 1 trace and the
//!   Fig. 3 sweeps are campaign grids);
//! * [`sweep`] — the sweep-series data types reports are sliced into;
//! * [`countermeasures`] — the guarded-attack harness over the
//!   `rram-defense` subsystem: write-counter, thermal-sensor and scrubbing
//!   defences swept as a campaign axis ([`campaign::CampaignSpec::guards`]),
//!   with benign-workload false-positive accounting and defence/overhead
//!   Pareto analysis ([`campaign::defense`]);
//! * [`scenario`] — end-to-end security scenarios: page-table privilege
//!   escalation and neuromorphic weight corruption (Section VI).
//!
//! # Examples
//!
//! Running a single NeuroHammer attack on a 5×5 crossbar with synthetic
//! coupling coefficients:
//!
//! ```
//! use neurohammer::attack::{run_attack, AttackConfig};
//! use neurohammer::pattern::AttackPattern;
//! use rram_crossbar::{CellAddress, EngineConfig, PulseEngine};
//! use rram_jart::DeviceParams;
//! use rram_units::{Seconds, Volts};
//!
//! let mut engine = PulseEngine::with_uniform_coupling(
//!     5, 5, DeviceParams::default(), 0.15, EngineConfig::default());
//! let config = AttackConfig {
//!     victim: CellAddress::new(2, 1),
//!     pattern: AttackPattern::SingleAggressor,
//!     amplitude: Volts(1.05),
//!     pulse_length: Seconds(100e-9),
//!     gap: Seconds(100e-9),
//!     max_pulses: 1_000_000,
//!     batching: true,
//!     trace: false,
//! };
//! let result = run_attack(&mut engine, &config);
//! assert!(result.flipped);
//! println!("bit-flip after {} pulses", result.pulses);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod attack;
pub mod campaign;
pub mod countermeasures;
pub mod estimate;
pub mod experiments;
pub mod pattern;
pub mod scenario;
pub mod sweep;

pub use attack::{run_attack, AttackConfig, AttackResult, TracePoint};
pub use campaign::{
    read_checkpoint, CampaignAxis, CampaignError, CampaignEvent, CampaignExecutor, CampaignOutcome,
    CampaignPoint, CampaignReport, CampaignSpec, CheckpointWriter, CouplingSpec, DefenseGroup,
    DefenseParetoPoint, PointKey, Shard, VariabilityGroup,
};
pub use countermeasures::{
    run_guard_family, run_guarded_attack, BenignWorkload, Countermeasure, DefenseOutcome,
    GuardAction, GuardSpec, GuardedAttackOutcome, ScrubbingGuard, ThermalSensorGuard,
    WriteCounterGuard,
};
pub use estimate::{estimate_attack, AttackEstimate};
pub use experiments::{ablation_report, fig2a_temperature_matrix, AblationReport, Fig2aResult};
pub use pattern::AttackPattern;
pub use scenario::{
    EscalationOutcome, NeuromorphicOutcome, NeuromorphicScenario, PageTableEntry,
    PrivilegeEscalationScenario,
};
pub use sweep::{SweepPoint, SweepSeries};
