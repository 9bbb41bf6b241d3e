//! The passive memristive crossbar platform of the NeuroHammer reproduction
//! (Fig. 2c of the paper): array, write schemes, memory controller,
//! crosstalk hub and simulation engines.
//!
//! The paper's circuit-level framework has three major parts, all of which
//! live in this crate:
//!
//! * **Memristive crossbar** — [`array::CrossbarArray`], a grid of
//!   `rram-jart` VCM cells, plus the [`scheme`] module implementing the V/2
//!   (and V/3) biasing used while writing.
//! * **Memory controller** — [`controller`], with the init-file and
//!   stimulus-file formats and their execution.
//! * **Crosstalk hub** — [`crosstalk::CrosstalkHub`], which redistributes
//!   filament temperatures between cells using the α coefficients extracted
//!   by `rram-fem` (Eq. 5).
//!
//! One simulation engine drives the array: [`engine::PulseEngine`], which
//! integrates the cells in one kernel call per sub-step and couples them
//! through the crosstalk hub's stencil. Its line stage decides where
//! the cell voltages come from: the write scheme's line levels with ideal
//! drivers (the engine of every hammer campaign), or the resistive line
//! network of [`detailed`], wiring parasitics included, solved at every
//! pulse sub-step; the [`sneak`]-path analysis solves that network too.
//! The engine implements the [`backend::HammerBackend`] trait, so the
//! attack layer, the campaign runner and the cross-stage agreement tests
//! drive every kind the same way; [`backend::BackendKind`] selects one
//! declaratively at runtime.
//!
//! # Examples
//!
//! Hammering the centre cell of a 5×5 array and watching a half-selected
//! neighbour heat up:
//!
//! ```
//! use rram_crossbar::{CellAddress, EngineConfig, PulseEngine};
//! use rram_jart::{DeviceParams, DigitalState};
//! use rram_units::{Seconds, Volts};
//!
//! let mut engine = PulseEngine::with_uniform_coupling(
//!     5, 5, DeviceParams::default(), 0.12, EngineConfig::default());
//! let aggressor = CellAddress::new(2, 2);
//! engine.array_mut().cell_mut(aggressor).force_state(DigitalState::Lrs);
//! for _ in 0..10 {
//!     engine.apply_pulse(aggressor, Volts(1.05), Seconds(50e-9));
//! }
//! assert!(engine.hub().delta(2, 1).0 > 10.0);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod array;
pub mod backend;
pub mod controller;
pub mod crosstalk;
pub mod detailed;
pub mod engine;
pub mod scheme;
pub mod sneak;

pub use array::CrossbarArray;
pub use backend::{BackendKind, HammerBackend, ThermalReadout};
pub use controller::{ControllerReport, InitState, MemoryController, Operation, Stimulus};
pub use crosstalk::CrosstalkHub;
pub use detailed::WiringParasitics;
pub use engine::{CellSnapshot, EngineConfig, PulseEngine};
pub use scheme::{CellAddress, LineBias, WriteScheme};
pub use sneak::{analyze_read, read_margin, ReadAnalysis, ReadBias, ReadMarginReport};
