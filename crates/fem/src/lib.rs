//! Finite-volume thermal field solver and crosstalk-coefficient extraction —
//! the COMSOL-Multiphysics substitute of the NeuroHammer reproduction
//! (Section IV-A of the paper).
//!
//! The crate answers one question: *when the selected cell of a crossbar
//! dissipates power P, how hot do the neighbouring filaments get?* The paper
//! answers it with a COMSOL model of the crossbar (Fig. 2b) and condenses the
//! result into per-cell thermal-crosstalk coefficients ("alpha values",
//! Eq. 3–4) that feed the circuit-level simulation. This crate does the same
//! with
//!
//! 1. a voxelised crossbar geometry ([`geometry`]),
//! 2. a steady-state finite-volume heat solve with a conjugate-gradient
//!    linear solver ([`heat`], [`solver`], [`sparse`]), and
//! 3. the power-sweep + linear-regression extraction of `R_th` and the α
//!    matrix ([`alpha`]).
//!
//! # Examples
//!
//! Extracting the α matrix of a small crossbar and checking that the nearest
//! neighbours couple the strongest:
//!
//! ```
//! use rram_fem::alpha::{extract_alpha, AlphaConfig};
//! use rram_fem::geometry::CrossbarGeometry;
//! use rram_units::{Kelvin, Watts};
//!
//! let geometry = CrossbarGeometry {
//!     rows: 3,
//!     cols: 3,
//!     voxel_nm: 25.0,
//!     margin_nm: 50.0,
//!     ..CrossbarGeometry::default()
//! };
//! let config = AlphaConfig {
//!     ambient: Kelvin(300.0),
//!     selected: (1, 1),
//!     powers: vec![Watts(10e-6), Watts(30e-6)],
//! };
//! let extraction = extract_alpha(&geometry, &config)?;
//! assert!((extraction.alpha.get(1, 1) - 1.0).abs() < 1e-9);
//! assert!(extraction.alpha.get(1, 0) > extraction.alpha.get(0, 0));
//! # Ok::<(), rram_fem::alpha::AlphaError>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod alpha;
pub mod geometry;
pub mod grid;
pub mod heat;
pub mod materials;
pub mod solver;
pub mod sparse;

pub use alpha::{
    extract_alpha, extract_alpha_cached, extract_alpha_threaded, AlphaConfig, AlphaError,
    AlphaExtraction, AlphaMatrix,
};
pub use geometry::{CrossbarGeometry, CrossbarModel, GeometryError};
pub use heat::{CellTemperatureMatrix, HeatProblem, HeatSource, TemperatureField};
pub use materials::{Material, MaterialSet};
