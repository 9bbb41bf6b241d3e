//! NeuroHammer reproduction — umbrella crate.
//!
//! This crate re-exports the workspace members so the examples and the
//! cross-crate integration tests can use one coherent namespace. The actual
//! functionality lives in:
//!
//! * [`units`] (`rram-units`) — physical quantities and constants,
//! * [`telemetry`] (`rram-telemetry`) — lock-cheap counters, gauges,
//!   histograms and span timers with Prometheus-text and JSON snapshot
//!   encoders (the `/metrics` endpoint and `--html` artifacts),
//! * [`analysis`] (`rram-analysis`) — regression, statistics, reporting,
//! * [`fem`] (`rram-fem`) — the thermal field solver and α extraction,
//! * [`jart`] (`rram-jart`) — the VCM compact model,
//! * [`circuit`] (`rram-circuit`) — the dense LU and the error type of
//!   the detailed engine's line-network DC solve,
//! * [`crossbar`] (`rram-crossbar`) — the crossbar platform with its two
//!   simulation engines behind the [`crossbar::HammerBackend`] trait,
//! * [`variability`] (`rram-variability`) — seeded Monte Carlo
//!   device-parameter spreads for variability campaigns,
//! * [`defense`] (`rram-defense`) — declarative guard specifications,
//!   runtime countermeasures and benign-workload overhead accounting,
//! * [`attack`] (`neurohammer`) — the attack engine, campaign runner,
//!   experiments, scenarios and countermeasures,
//! * [`server`] (`rram-server`) — the campaign service: the
//!   `neurohammer-server` job-queue daemon and the `neurohammer-worker`
//!   fleet loop leasing grid shards over HTTP.
//!
//! Attacks and experiments are generic over [`crossbar::HammerBackend`], and
//! whole figure grids run declaratively through [`attack::campaign`]; see
//! the top-level `README.md` for the crate map and the figure-reproduction
//! table.
//!
//! # Examples
//!
//! ```
//! use neurohammer_repro::attack::{run_attack, AttackConfig};
//! use neurohammer_repro::attack::pattern::AttackPattern;
//! use neurohammer_repro::crossbar::{CellAddress, EngineConfig, PulseEngine};
//! use neurohammer_repro::jart::DeviceParams;
//! use neurohammer_repro::units::{Seconds, Volts};
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
//! assert!(run_attack(&mut engine, &config).flipped);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub use neurohammer as attack;
pub use rram_analysis as analysis;
pub use rram_circuit as circuit;
pub use rram_crossbar as crossbar;
pub use rram_defense as defense;
pub use rram_fem as fem;
pub use rram_jart as jart;
pub use rram_server as server;
pub use rram_telemetry as telemetry;
pub use rram_units as units;
pub use rram_variability as variability;
