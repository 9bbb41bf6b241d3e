//! A small modified-nodal-analysis (MNA) DC solver — the Cadence-Virtuoso
//! substitute of the NeuroHammer reproduction (Section IV-B of the paper).
//!
//! The circuit-level part of the paper's framework drives a passive
//! memristive crossbar and solves for the voltage every cell actually sees
//! once the word and bit lines, their drivers and the nonlinear cells load
//! each other. This crate provides the generic machinery for that:
//!
//! * [`netlist`] — nodes, resistors, DC voltage sources and a
//!   [`netlist::NonlinearTwoTerminal`] trait for device models such as the
//!   VCM cell of `rram-jart`;
//! * [`dense`] — dense LU solver for the MNA equations;
//! * [`analysis`] — the Newton–Raphson DC operating point, from 0 V or
//!   from a previous solution.
//!
//! The crossbar crate builds its line network on this solver: the
//! detailed engine solves it once per time step and steps the cells with
//! the solved voltages itself, and the sneak-path analysis solves it with
//! each cell's read resistance. The ideal-driver pulse engine used for long
//! hammering campaigns bypasses the matrix solve and is validated against
//! the detailed engine in integration tests.
//!
//! # Examples
//!
//! A resistive divider:
//!
//! ```
//! use rram_circuit::{Netlist, NodeId, solve_dc};
//!
//! let mut netlist = Netlist::new();
//! let top = netlist.add_node();
//! let mid = netlist.add_node();
//! netlist.add_voltage_source(top, NodeId::GROUND, 1.0);
//! netlist.add_resistor(top, mid, 10_000.0);
//! netlist.add_resistor(mid, NodeId::GROUND, 10_000.0);
//! let solution = solve_dc(&netlist)?;
//! assert!((solution.voltage(mid) - 0.5).abs() < 1e-9);
//! # Ok::<(), rram_circuit::CircuitError>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod analysis;
pub mod dense;
pub mod netlist;

pub use analysis::{solve_dc, solve_dc_from, CircuitError, Solution};
pub use dense::{DenseMatrix, LinearError};
pub use netlist::{Netlist, NodeId, NonlinearTwoTerminal};
