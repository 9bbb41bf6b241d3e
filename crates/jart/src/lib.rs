//! Filamentary VCM ReRAM compact model — a from-scratch substitute for the
//! JART VCM v1b model used by the NeuroHammer paper (Section IV-B).
//!
//! The model describes a Pt/HfO₂/TiOₓ/Ti-like valence-change-memory cell whose
//! binary state is stored in the oxygen-vacancy concentration of a thin
//! filamentary *disc* region:
//!
//! * **State variable** — the disc vacancy concentration `n_disc`
//!   (in units of 10²⁶ m⁻³), bounded between a high-resistive-state value
//!   `n_min` and a low-resistive-state value `n_max`.
//! * **Current path** — series (line) resistance, ohmic plug resistance,
//!   ohmic disc resistance (∝ 1/n_disc) and a nonlinear interface junction,
//!   solved self-consistently for the cell current (see [`current`]).
//! * **Self-heating** — the filament temperature follows Eq. 6 of the paper,
//!   `T = T₀ + R_th,eff · P_d`, plus an externally supplied crosstalk
//!   temperature increase (see [`thermal`]).
//! * **Switching kinetics** — oxygen-vacancy drift described by a
//!   Mott–Gurney ion-hopping law with an Arrhenius temperature factor,
//!   which is the ultra-nonlinear kinetics the attack exploits
//!   (see [`kinetics`]).
//! * **Crosstalk interface** — the two interface variables the paper added to
//!   the original model: the device *exports* its filament temperature and
//!   *imports* an additional temperature contributed by neighbouring cells
//!   (see [`device::JartDevice::set_crosstalk_delta`]).
//!
//! # Examples
//!
//! Switching a cold cell with a nominal SET pulse and observing that a
//! half-select (V/2) pulse of the same length does *not* switch it:
//!
//! ```
//! use rram_jart::{DeviceParams, JartDevice};
//! use rram_units::{Seconds, Volts};
//!
//! let params = DeviceParams::default();
//! let mut cell = JartDevice::new(params.clone());
//! assert!(cell.is_hrs());
//!
//! // Full V_SET switches the cell well within a few microseconds.
//! cell.apply_pulse(Volts(1.05), Seconds(5e-6));
//! assert!(cell.is_lrs());
//!
//! // A fresh cell under half-select stress of the same duration stays HRS.
//! let mut victim = JartDevice::new(DeviceParams::default());
//! victim.apply_pulse(Volts(0.525), Seconds(5e-6));
//! assert!(victim.is_hrs());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod calibration;
pub mod current;
pub mod device;
pub mod kernel;
pub mod kinetics;
pub mod params;
pub mod simd;
pub mod thermal;

pub use current::OperatingPoint;
pub use device::{CellMut, CellRef, DigitalState, JartDevice};
pub use kernel::{
    relax_lane_ranges, relax_lanes, step_lane_ranges, step_lane_ranges_threaded, step_lanes,
    step_lanes_threaded, CellBank, CellBankView, LaneParams, LANE_CHUNK,
};
pub use params::{DeviceParams, DeviceParamsBuilder, ParamColumns, ParamError, ParamField};
