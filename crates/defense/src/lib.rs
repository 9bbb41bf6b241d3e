//! NeuroHammer countermeasures as a first-class subsystem (`rram-defense`).
//!
//! The reproduced paper names countermeasures as future work; this crate
//! makes them sweepable. It carries everything defence-related that does
//! *not* depend on the attack layer, so both the attack crate
//! (`neurohammer`) and analysis tooling can share one vocabulary:
//!
//! * [`guard`] — the [`Countermeasure`] runtime trait and the three
//!   modelled defence families (write counters, thermal sensors with
//!   throttling, periodic scrubbing), mirroring the RowHammer literature;
//! * [`spec`] — the declarative [`GuardSpec`] (guard kind × threshold ×
//!   window/period/cooldown): `Copy` plain data with stable bit-exact
//!   fingerprints, the form campaign grids sweep and JSON archives store;
//! * [`outcome`] — the per-campaign-point [`DefenseOutcome`] (attack
//!   blocked?, pulses to detection, false triggers, energy/latency
//!   overhead);
//! * [`workload`] — a deterministic benign write stream replayed against a
//!   guard on any [`rram_crossbar::HammerBackend`], for false-positive and
//!   overhead accounting, and [`Interventions::carry_out`], which carries
//!   out a guard's [`GuardAction`] on the engine and tallies it — for the
//!   benign stream and the attack alike — and [`Trunk`], which runs a
//!   *guard family* (points that differ only in their guard) on one shared
//!   trajectory and forks it where a guard first acts.
//!
//! The guarded attack harness itself lives in
//! `neurohammer::countermeasures` (it needs the attack configuration);
//! defence/overhead Pareto extraction lives in `rram_analysis::pareto`, and
//! campaign-level aggregation (Wilson-interval protection probabilities per
//! guard) in `neurohammer::campaign`.
//!
//! # Examples
//!
//! Sweeping a guard grid and replaying a benign workload against one point:
//!
//! ```
//! use rram_crossbar::{EngineConfig, PulseEngine};
//! use rram_defense::{run_benign_workload, BenignWorkload, GuardSpec};
//! use rram_jart::DeviceParams;
//! use rram_units::{Kelvin, Seconds};
//!
//! let grid = [
//!     GuardSpec::None,
//!     GuardSpec::WriteCounter { threshold: 64, window: Seconds(1.0) },
//!     GuardSpec::ThermalSensor { threshold: Kelvin(20.0), cooldown: Seconds(1e-6) },
//!     GuardSpec::Scrubbing { period: Seconds(5e-6) },
//! ];
//! for spec in &grid {
//!     spec.validate().unwrap();
//!     let Some(mut guard) = spec.build() else { continue };
//!     let mut engine = PulseEngine::with_uniform_coupling(
//!         5, 5, DeviceParams::default(), 0.15, EngineConfig::default());
//!     let workload = BenignWorkload { writes: 32, ..BenignWorkload::default() };
//!     let false_triggers = run_benign_workload(&mut engine, guard.as_mut(), &workload);
//!     assert!(false_triggers.count <= 32);
//! }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod guard;
pub mod outcome;
pub mod spec;
pub mod workload;

pub use guard::{
    Countermeasure, GuardAction, ScrubbingGuard, ThermalSensorGuard, WriteCounterGuard,
};
pub use outcome::DefenseOutcome;
pub use spec::{
    GuardSpec, COUNTER_ENERGY_PER_WRITE, REFRESH_ENERGY_PER_CELL, REFRESH_LATENCY_PER_CELL,
    SENSE_ENERGY_PER_SAMPLE,
};
pub use workload::{
    apply_refresh, run_benign_family, run_benign_workload, BenignWorkload, Interventions, Observer,
    Trunk,
};
