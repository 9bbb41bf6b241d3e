//! The dense linear algebra of the crossbar's line network — the
//! Cadence-Virtuoso substitute of the NeuroHammer reproduction (Section
//! IV-B of the paper).
//!
//! The circuit-level part of the paper's framework drives a passive
//! memristive crossbar and solves for the voltage every cell actually sees
//! once the word and bit lines, their drivers and the nonlinear cells load
//! each other. The crossbar crate's line network stamps that
//! modified-nodal system and runs its damped Newton DC solve; the pulse
//! engine's wired line stage (the `detailed` backend) solves it before
//! every pulse sub-step, and the sneak-path analysis with each cell's read
//! resistance. This crate holds what that solve uses:
//!
//! * [`dense`] — the dense LU solver of each Newton iteration;
//! * [`CircuitError`] — why a solve failed.
//!
//! The ideal line stage used for long hammering campaigns bypasses the
//! matrix solve and is validated against the wired one in integration
//! tests.

#![deny(missing_docs)]
#![deny(unsafe_code)]

use std::error::Error;
use std::fmt;

pub mod dense;

pub use dense::{DenseMatrix, LinearError};

/// Errors produced by a DC solve.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// The linear solve inside a Newton iteration failed.
    Linear(LinearError),
    /// Newton–Raphson did not converge.
    NewtonDiverged {
        /// Iterations performed.
        iterations: usize,
        /// Largest voltage update of the last iteration.
        last_update: f64,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::Linear(e) => write!(f, "linear solve failed: {e}"),
            CircuitError::NewtonDiverged {
                iterations,
                last_update,
            } => write!(
                f,
                "newton iteration diverged after {iterations} iterations (last update {last_update:.3e} V)"
            ),
        }
    }
}

impl Error for CircuitError {}

impl From<LinearError> for CircuitError {
    fn from(e: LinearError) -> Self {
        CircuitError::Linear(e)
    }
}
