//! Steady-state heat conduction solve on the voxelised crossbar
//! (Eq. 1 of the paper, `−∇·(κ∇T) = j·E`).
//!
//! The dissipated power of the selected cell enters as a volumetric heat
//! source in that cell's filament voxels; the bottom face of the substrate is
//! held at the ambient temperature (heat sink) and every other outer surface
//! is adiabatic, matching the paper's boundary conditions ("all other
//! surfaces are thermally and electrically insulated").
//!
//! The operator depends only on the geometry, and the sources only enter
//! the right-hand side. So a power sweep assembles the operator once, reads
//! it out into a [`Stencil`], drops the assembled matrix, and only then
//! builds one right-hand side per power and solves them all together with
//! [`crate::solver::solve`]. Each temperature field is bit-identical to a
//! separate [`HeatProblem::solve`] at that power.

use serde::{Deserialize, Serialize};

use crate::geometry::CrossbarModel;
use crate::materials::harmonic_mean;
use crate::solver::{solve, SolveError, SolveStats, SolverOptions, Stencil};
use crate::sparse::TripletBuilder;
use rram_units::{Kelvin, Watts};

/// A volumetric heat source: total power deposited in one cell's filament.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeatSource {
    /// Row of the dissipating cell.
    pub row: usize,
    /// Column of the dissipating cell.
    pub col: usize,
    /// Total dissipated power of that cell, W.
    pub power: Watts,
}

/// The temperature solution on the voxel grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemperatureField {
    values: Vec<f64>,
    ambient: f64,
    stats: SolveStats,
}

impl TemperatureField {
    /// Temperature of a single voxel, K.
    pub fn voxel(&self, flat: usize) -> Kelvin {
        Kelvin(self.values[flat])
    }

    /// Mean temperature over a set of voxels (e.g. a cell's filament), K.
    ///
    /// # Panics
    ///
    /// Panics if `voxels` is empty.
    pub fn mean_over(&self, voxels: &[usize]) -> Kelvin {
        assert!(!voxels.is_empty(), "cannot average over zero voxels");
        let sum: f64 = voxels.iter().map(|&v| self.values[v]).sum();
        Kelvin(sum / voxels.len() as f64)
    }

    /// Maximum temperature in the domain, K.
    pub fn max(&self) -> Kelvin {
        Kelvin(
            self.values
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max),
        )
    }

    /// Minimum temperature in the domain, K.
    pub fn min(&self) -> Kelvin {
        Kelvin(self.values.iter().cloned().fold(f64::INFINITY, f64::min))
    }

    /// Ambient (heat-sink) temperature used for the solve, K.
    pub fn ambient(&self) -> Kelvin {
        Kelvin(self.ambient)
    }

    /// Convergence statistics of the underlying linear solve.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Raw temperature values indexed by flattened voxel index.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Mean filament temperature of every cell of the array, as plotted in
/// Fig. 2a.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellTemperatureMatrix {
    rows: usize,
    cols: usize,
    values: Vec<f64>,
}

impl CellTemperatureMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Mean filament temperature of cell `(row, col)`, K.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn get(&self, row: usize, col: usize) -> Kelvin {
        assert!(row < self.rows && col < self.cols, "cell out of range");
        Kelvin(self.values[row * self.cols + col])
    }

    /// The hottest cell (row, col, temperature).
    pub fn hottest(&self) -> (usize, usize, Kelvin) {
        let (idx, &val) = self
            .values
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("temperatures are finite"))
            .expect("matrix is non-empty");
        (idx / self.cols, idx % self.cols, Kelvin(val))
    }

    /// Iterates over `(row, col, temperature)` entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Kelvin)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i / self.cols, i % self.cols, Kelvin(v)))
    }

    /// The raw cell temperatures, row-major (K).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Rebuilds a matrix from raw row-major values — the loading side of
    /// the on-disk α cache.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows * cols`.
    pub fn from_values(rows: usize, cols: usize, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), rows * cols, "value count must match");
        CellTemperatureMatrix { rows, cols, values }
    }
}

/// The steady-state heat problem for a crossbar model.
#[derive(Debug, Clone)]
pub struct HeatProblem<'a> {
    model: &'a CrossbarModel,
    ambient: f64,
    sources: Vec<HeatSource>,
    options: SolverOptions,
}

impl<'a> HeatProblem<'a> {
    /// Creates a heat problem with the given ambient (heat-sink) temperature.
    pub fn new(model: &'a CrossbarModel, ambient: Kelvin) -> Self {
        HeatProblem {
            model,
            ambient: ambient.0,
            sources: Vec::new(),
            options: SolverOptions::default(),
        }
    }

    /// Adds a dissipating cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell coordinates are outside the array.
    pub fn with_source(mut self, source: HeatSource) -> Self {
        assert!(
            source.row < self.model.rows() && source.col < self.model.cols(),
            "heat source outside the array"
        );
        self.sources.push(source);
        self
    }

    /// Overrides the linear-solver options.
    pub fn with_solver_options(mut self, options: SolverOptions) -> Self {
        self.options = options;
        self
    }

    /// Assembles and solves the finite-volume system.
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError`] from the conjugate-gradient solver.
    pub fn solve(&self) -> Result<TemperatureField, SolveError> {
        let stencil = assemble(self.model);
        let mut rhs = sink_rhs(self.model, self.ambient);
        for source in &self.sources {
            deposit(self.model, source, &mut rhs);
        }
        let (values, stats) = solve(&stencil, &[rhs], self.options, 1)
            .pop()
            .expect("one solution per right-hand side")?;
        Ok(TemperatureField {
            values,
            ambient: self.ambient,
            stats,
        })
    }

    /// Solves and reduces the field to the per-cell mean filament
    /// temperatures (the Fig. 2a matrix).
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError`] from the linear solver.
    pub fn solve_cell_matrix(&self) -> Result<CellTemperatureMatrix, SolveError> {
        let field = self.solve()?;
        Ok(reduce_to_cells(self.model, &field))
    }
}

/// Reduces a temperature field to per-cell mean filament temperatures.
pub fn reduce_to_cells(model: &CrossbarModel, field: &TemperatureField) -> CellTemperatureMatrix {
    let mut values = Vec::with_capacity(model.rows() * model.cols());
    for row in 0..model.rows() {
        for col in 0..model.cols() {
            values.push(field.mean_over(model.filament_voxels(row, col)).0);
        }
    }
    CellTemperatureMatrix {
        rows: model.rows(),
        cols: model.cols(),
        values,
    }
}

/// Solves the heat problem of one dissipating cell at each of `powers`
/// and reduces every field to its per-cell matrix, in power order (the
/// sweep of the α extraction). The operator is assembled once and the
/// right-hand sides are solved together on up to `threads` threads; each
/// matrix is bit-identical to a [`HeatProblem`] solved at that power alone.
///
/// # Errors
///
/// Returns the [`SolveError`] of the first power, in order, whose solve
/// fails.
pub(crate) fn sweep_cell_matrices(
    model: &CrossbarModel,
    ambient: Kelvin,
    selected: (usize, usize),
    powers: &[Watts],
    threads: usize,
) -> Result<Vec<CellTemperatureMatrix>, SolveError> {
    let stencil = assemble(model);
    let base = sink_rhs(model, ambient.0);
    let rhs: Vec<Vec<f64>> = powers
        .iter()
        .map(|&power| {
            let source = HeatSource {
                row: selected.0,
                col: selected.1,
                power,
            };
            let mut rhs = base.clone();
            deposit(model, &source, &mut rhs);
            rhs
        })
        .collect();
    drop(base);
    solve(&stencil, &rhs, SolverOptions::default(), threads)
        .into_iter()
        .map(|solution| {
            let (values, stats) = solution?;
            let field = TemperatureField {
                values,
                ambient: ambient.0,
                stats,
            };
            Ok(reduce_to_cells(model, &field))
        })
        .collect()
}

/// Assembles the finite-volume operator of `model` and reads it out into
/// its stencil; the assembled matrix is dropped on return. The
/// [`TripletBuilder`] sort fixes the order in which each diagonal's
/// contributions (one per face, plus the heat sink) are summed.
fn assemble(model: &CrossbarModel) -> Stencil {
    let grid = model.grid();
    let n = grid.len();
    let h = grid.spacing();
    let mut builder = TripletBuilder::new(n, n);
    for i in grid.iter() {
        let ki = model.conductivity(i);
        // Interior faces.
        for j in grid.neighbors(i) {
            let kj = model.conductivity(j);
            // Face conductance G = k_face · A / h = k_face · h for cubic voxels.
            let g = harmonic_mean(ki, kj) * h;
            builder.add(i, i, g);
            builder.add(i, j, -g);
        }
        if grid.is_bottom(i) {
            builder.add(i, i, sink_conductance(model, i));
        }
    }
    Stencil::from_csr(&builder.build(), grid.nx(), grid.ny(), grid.nz())
}

/// Conductance from a bottom voxel to the Dirichlet heat sink at the
/// bottom face of the substrate, which sits half a voxel below the voxel
/// centre.
fn sink_conductance(model: &CrossbarModel, voxel: usize) -> f64 {
    let grid = model.grid();
    model.conductivity(voxel) * grid.face_area() / (0.5 * grid.spacing())
}

/// The right-hand side with no source: the heat sink's inflow at the
/// ambient temperature into each bottom voxel.
fn sink_rhs(model: &CrossbarModel, ambient: f64) -> Vec<f64> {
    let grid = model.grid();
    let mut rhs = vec![0.0; grid.len()];
    for i in grid.iter().filter(|&i| grid.is_bottom(i)) {
        rhs[i] += sink_conductance(model, i) * ambient;
    }
    rhs
}

/// Adds a volumetric heat source to `rhs`: the cell's power, spread
/// uniformly over its filament voxels.
fn deposit(model: &CrossbarModel, source: &HeatSource, rhs: &mut [f64]) {
    let voxels = model.filament_voxels(source.row, source.col);
    let per_voxel = source.power.0 / voxels.len() as f64;
    for &v in voxels {
        rhs[v] += per_voxel;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::CrossbarGeometry;

    fn tiny_model() -> CrossbarModel {
        CrossbarGeometry {
            rows: 3,
            cols: 3,
            voxel_nm: 25.0,
            electrode_width_nm: 50.0,
            electrode_spacing_nm: 50.0,
            margin_nm: 50.0,
            ..CrossbarGeometry::default()
        }
        .build()
        .unwrap()
    }

    #[test]
    fn zero_power_gives_uniform_ambient() {
        let model = tiny_model();
        let field = HeatProblem::new(&model, Kelvin(300.0)).solve().unwrap();
        // The linear solve is iterative, so allow a small relative tolerance.
        assert!((field.max().0 - 300.0).abs() < 1e-3);
        assert!((field.min().0 - 300.0).abs() < 1e-3);
    }

    #[test]
    fn heated_cell_is_the_hottest() {
        let model = tiny_model();
        let matrix = HeatProblem::new(&model, Kelvin(300.0))
            .with_source(HeatSource {
                row: 1,
                col: 1,
                power: Watts(40e-6),
            })
            .solve_cell_matrix()
            .unwrap();
        let (r, c, t) = matrix.hottest();
        assert_eq!((r, c), (1, 1));
        assert!(t.0 > 320.0, "selected cell only reached {t}");
        // Every other cell is above ambient but colder than the selected one.
        for (row, col, temp) in matrix.iter() {
            assert!(temp.0 >= 300.0 - 1e-9);
            if (row, col) != (1, 1) {
                assert!(temp.0 < t.0);
            }
        }
    }

    #[test]
    fn nearest_neighbours_are_warmer_than_corners() {
        let model = tiny_model();
        let matrix = HeatProblem::new(&model, Kelvin(300.0))
            .with_source(HeatSource {
                row: 1,
                col: 1,
                power: Watts(40e-6),
            })
            .solve_cell_matrix()
            .unwrap();
        let near = matrix.get(1, 0).0;
        let corner = matrix.get(0, 0).0;
        assert!(
            near > corner,
            "adjacent cell {near} K should exceed diagonal cell {corner} K"
        );
    }

    #[test]
    fn temperature_scales_linearly_with_power() {
        let model = tiny_model();
        let solve = |p: f64| {
            HeatProblem::new(&model, Kelvin(300.0))
                .with_source(HeatSource {
                    row: 1,
                    col: 1,
                    power: Watts(p),
                })
                .solve_cell_matrix()
                .unwrap()
                .get(1, 1)
                .0
                - 300.0
        };
        let dt1 = solve(10e-6);
        let dt2 = solve(20e-6);
        assert!((dt2 - 2.0 * dt1).abs() < 1e-6 * dt1.max(1.0));
    }

    #[test]
    fn superposition_of_two_sources() {
        let model = tiny_model();
        let single = |row: usize, col: usize| {
            HeatProblem::new(&model, Kelvin(300.0))
                .with_source(HeatSource {
                    row,
                    col,
                    power: Watts(20e-6),
                })
                .solve_cell_matrix()
                .unwrap()
        };
        let both = HeatProblem::new(&model, Kelvin(300.0))
            .with_source(HeatSource {
                row: 0,
                col: 0,
                power: Watts(20e-6),
            })
            .with_source(HeatSource {
                row: 2,
                col: 2,
                power: Watts(20e-6),
            })
            .solve_cell_matrix()
            .unwrap();
        let a = single(0, 0);
        let b = single(2, 2);
        // Linear problem: temperature rises superpose.
        let expected = a.get(1, 1).0 + b.get(1, 1).0 - 600.0;
        let actual = both.get(1, 1).0 - 300.0;
        assert!((expected - actual).abs() < 1e-4 * expected.abs().max(1.0));
    }

    #[test]
    fn ambient_shifts_the_whole_field() {
        let model = tiny_model();
        let cold = HeatProblem::new(&model, Kelvin(273.0))
            .with_source(HeatSource {
                row: 1,
                col: 1,
                power: Watts(30e-6),
            })
            .solve_cell_matrix()
            .unwrap();
        let hot = HeatProblem::new(&model, Kelvin(373.0))
            .with_source(HeatSource {
                row: 1,
                col: 1,
                power: Watts(30e-6),
            })
            .solve_cell_matrix()
            .unwrap();
        let d_cold = cold.get(1, 1).0 - 273.0;
        let d_hot = hot.get(1, 1).0 - 373.0;
        assert!((d_cold - d_hot).abs() < 1e-6 * d_cold.max(1.0));
    }

    #[test]
    #[should_panic(expected = "outside the array")]
    fn source_outside_array_panics() {
        let model = tiny_model();
        let _ = HeatProblem::new(&model, Kelvin(300.0)).with_source(HeatSource {
            row: 9,
            col: 0,
            power: Watts(1e-6),
        });
    }

    #[test]
    #[should_panic(expected = "zero voxels")]
    fn mean_over_empty_set_panics() {
        let model = tiny_model();
        let field = HeatProblem::new(&model, Kelvin(300.0)).solve().unwrap();
        let _ = field.mean_over(&[]);
    }
}
