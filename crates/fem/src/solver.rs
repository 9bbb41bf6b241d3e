//! Jacobi-preconditioned conjugate gradients for the discretised heat
//! equation, run on a seven-point stencil for several right-hand sides at
//! once.
//!
//! The finite-volume discretisation of `−∇·(κ∇T) = q` with Dirichlet and
//! Neumann boundary conditions yields a symmetric positive-definite system.
//! [`crate::heat`] assembles it once per geometry through
//! [`crate::sparse::TripletBuilder`], whose sort fixes the order in which
//! each diagonal's duplicate contributions are summed, and
//! [`Stencil::from_csr`] reads the CSR matrix out into seven coefficients
//! per voxel. A power sweep then solves all its right-hand sides (RHS)
//! against that one operator with [`solve`].
//!
//! # Layout
//!
//! The RHS are dealt into groups of at most four *lanes*, and the groups
//! over the caller's threads. A group runs the conjugate-gradient (CG)
//! iterations of its lanes in lockstep: every work vector stores unknown
//! `i` of all lanes side by side, so one sweep over the unknowns advances
//! every lane and reads each stencil coefficient once for all of them. An
//! iteration makes two sweeps. The first updates the search direction
//! `p ← z + β·p` one plane (`nx·ny` unknowns) ahead of the product `A·p`
//! that reads it, and accumulates `p·Ap`. The second updates `x` and `r`
//! and accumulates `r·r` and `r·z`. The preconditioned residual
//! `z = r·D⁻¹` is never stored: each use recomputes it. A lane that
//! converges or breaks down is frozen with its own iteration count, and
//! its solution is copied out at that iteration. Its group goes on until
//! every lane is frozen.
//!
//! # Why the bits do not depend on the lanes or the threads
//!
//! Each lane gets exactly the solution bits and [`SolveStats`] of a
//! one-RHS CG on the CSR matrix:
//!
//! - Every reduction (`‖b‖²`, `r·z`, `p·Ap`, `r·r`) is one left fold over
//!   the unknowns in index order, starting at −0.0 as `Iterator::sum`
//!   does, with one accumulator per lane. Lanes run these chains side by
//!   side; none is reassociated, and no lane reads another's values.
//! - Each row of `A·p` accumulates from +0.0 in the CSR column order, which
//!   for a face-neighbour stencil is the offset order −nx·ny, −nx, −1, 0,
//!   +1, +nx, +nx·ny. A neighbour the voxel lacks holds a +0.0
//!   coefficient, and `p` carries a zero halo of one plane at each end,
//!   so the padded term is ±0.0. A sum that starts at +0.0 is never −0.0,
//!   and adding ±0.0 leaves any other value unchanged. The read-out
//!   asserts that every stored entry lands on the stencil.
//! - Every check runs per lane at the same point of the iteration: a zero
//!   RHS returns zeros after 0 iterations, `p·Ap` that is not positive
//!   (NaN included) stops the lane with [`SolveError::NotConverged`] at
//!   that iteration, and so does a non-finite `‖b‖` at iteration 0. The
//!   iteration cap and [`SolveError::BadDiagonal`] apply unchanged.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::sparse::CsrMatrix;

/// Convergence report of a successful solve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolveStats {
    /// Number of CG iterations performed.
    pub iterations: usize,
    /// Final relative residual ‖b − A·x‖ / ‖b‖.
    pub relative_residual: f64,
}

/// Errors returned by [`solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// A right-hand side's length differs from the operator's size.
    DimensionMismatch {
        /// Matrix rows.
        rows: usize,
        /// Matrix columns.
        cols: usize,
        /// Right-hand side length.
        rhs: usize,
    },
    /// The iteration did not reach the requested tolerance.
    NotConverged {
        /// Iterations performed.
        iterations: usize,
        /// Relative residual reached.
        relative_residual: f64,
    },
    /// A zero or negative diagonal entry makes the Jacobi preconditioner
    /// unusable (the assembled operator should be an M-matrix).
    BadDiagonal {
        /// Row with the offending diagonal.
        row: usize,
        /// The diagonal value.
        value: f64,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::DimensionMismatch { rows, cols, rhs } => write!(
                f,
                "dimension mismatch: matrix is {rows}×{cols}, rhs has length {rhs}"
            ),
            SolveError::NotConverged {
                iterations,
                relative_residual,
            } => write!(
                f,
                "conjugate gradient did not converge after {iterations} iterations \
                 (relative residual {relative_residual:.3e})"
            ),
            SolveError::BadDiagonal { row, value } => {
                write!(f, "non-positive diagonal {value} at row {row}")
            }
        }
    }
}

impl Error for SolveError {}

/// Solver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverOptions {
    /// Relative residual tolerance.
    pub tolerance: f64,
    /// Maximum number of iterations.
    pub max_iterations: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            tolerance: 1e-9,
            max_iterations: 20_000,
        }
    }
}

/// Coefficients per stencil row: the six face neighbours and the diagonal.
const SLOTS: usize = 7;

/// Slot of the diagonal coefficient.
const DIAGONAL: usize = 3;

/// The widest group of right-hand sides one thread solves in lockstep.
const MAX_LANES: usize = 4;

/// An operator on an `nx × ny × nz` voxel grid that couples each
/// voxel only to itself and its face neighbours, stored as seven
/// coefficients per voxel.
#[derive(Debug, Clone, PartialEq)]
pub struct Stencil {
    nx: usize,
    plane: usize,
    /// Per voxel, the coefficients at the offsets −nx·ny, −nx, −1, 0, +1,
    /// +nx and +nx·ny, which is their CSR column order. A neighbour the
    /// voxel lacks holds +0.0.
    coefficients: Vec<[f64; SLOTS]>,
}

impl Stencil {
    /// Reads an assembled `n × n` matrix on the grid (voxel `(x, y, z)` is
    /// row `(z·ny + y)·nx + x`) into its stencil. Entries the CSR matrix
    /// does not store read as +0.0.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `nx·ny·nz` square, or if a stored entry
    /// couples a voxel to anything but itself and its face neighbours.
    pub fn from_csr(matrix: &CsrMatrix, nx: usize, ny: usize, nz: usize) -> Self {
        let plane = nx * ny;
        let n = plane * nz;
        assert!(
            matrix.n_rows() == n && matrix.n_cols() == n,
            "a {nx}×{ny}×{nz} stencil needs a {n}×{n} matrix, not {}×{}",
            matrix.n_rows(),
            matrix.n_cols()
        );
        let mut coefficients = vec![[0.0; SLOTS]; n];
        for (i, row) in coefficients.iter_mut().enumerate() {
            let (x, y, z) = (i % nx, i / nx % ny, i / plane);
            let neighbours = [
                (z > 0).then(|| i - plane),
                (y > 0).then(|| i - nx),
                (x > 0).then(|| i - 1),
                Some(i),
                (x + 1 < nx).then_some(i + 1),
                (y + 1 < ny).then_some(i + nx),
                (z + 1 < nz).then_some(i + plane),
            ];
            let (cols, values) = matrix.row(i);
            let mut slot = 0;
            for (&col, &value) in cols.iter().zip(values) {
                while slot < SLOTS && neighbours[slot] != Some(col) {
                    slot += 1;
                }
                assert!(
                    slot < SLOTS,
                    "entry ({i}, {col}) lies off the seven-point stencil"
                );
                row[slot] = value;
                slot += 1;
            }
        }
        Stencil {
            nx,
            plane,
            coefficients,
        }
    }

    /// Number of unknowns (voxels).
    fn len(&self) -> usize {
        self.coefficients.len()
    }

    /// `ap = A·p` over every lane, returning `p·Ap` per lane. `p` holds a
    /// zero halo of one plane at each end. With an `update`, `p` first
    /// becomes `z + β·p`, one plane ahead of the row that reads it.
    fn apply<const K: usize>(
        &self,
        p: &mut [[f64; K]],
        ap: &mut [[f64; K]],
        update: Option<Direction<'_, K>>,
    ) -> [f64; K] {
        let (nx, plane) = (self.nx, self.plane);
        let n = self.len();
        let advance = |p: &mut [[f64; K]], j: usize| {
            if let Some(Direction { r, inv_diag, beta }) = update {
                let q = &mut p[plane + j];
                for l in 0..K {
                    q[l] = r[j][l] * inv_diag[j] + beta[l] * q[l];
                }
            }
        };
        for j in 0..plane.min(n) {
            advance(p, j);
        }
        let mut pap = [-0.0; K];
        for (i, (c, out)) in self.coefficients.iter().zip(ap.iter_mut()).enumerate() {
            if i + plane < n {
                advance(p, i + plane);
            }
            // Row i of A reads p at i + offset, which sits at plane + i +
            // offset behind the halo.
            let centre = plane + i;
            let rows = [
                centre - plane,
                centre - nx,
                centre - 1,
                centre,
                centre + 1,
                centre + nx,
                centre + plane,
            ];
            let mut acc = [0.0; K];
            for (&coefficient, &row) in c.iter().zip(&rows) {
                let q = &p[row];
                for l in 0..K {
                    acc[l] += coefficient * q[l];
                }
            }
            *out = acc;
            let q = &p[centre];
            for l in 0..K {
                pap[l] += q[l] * acc[l];
            }
        }
        pap
    }
}

/// The search-direction update `p ← z + β·p` with `z = r·inv_diag`, which
/// [`Stencil::apply`] makes on its way through `p`.
#[derive(Clone, Copy)]
struct Direction<'a, const K: usize> {
    r: &'a [[f64; K]],
    inv_diag: &'a [f64],
    beta: [f64; K],
}

/// One right-hand side's outcome: its solution and convergence report.
pub type Solution = Result<(Vec<f64>, SolveStats), SolveError>;

/// A right-hand side that needs iterating: its index and `‖b‖²`.
#[derive(Debug, Clone, Copy)]
struct Lane {
    rhs: usize,
    bb: f64,
}

/// Solves `A·x = b` for every right-hand side in `rhs` with
/// Jacobi-preconditioned conjugate gradients from `x = 0`, splitting the
/// right-hand sides over up to `threads` threads.
///
/// Returns one [`Solution`] per right-hand side, in order. Each is
/// bit-identical to a one-RHS solve, whatever the number of right-hand
/// sides or threads (see the module documentation).
///
/// Every buffer, the solutions included, is allocated on the calling
/// thread, so no worker thread's allocator arena keeps memory after the
/// solve.
///
/// # Errors
///
/// Each entry is [`SolveError::DimensionMismatch`] when that right-hand
/// side has the wrong length, [`SolveError::BadDiagonal`] when the
/// preconditioner cannot be formed, and [`SolveError::NotConverged`] when
/// the residual target is not met within the iteration budget or the
/// iteration breaks down.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn solve(
    stencil: &Stencil,
    rhs: &[Vec<f64>],
    options: SolverOptions,
    threads: usize,
) -> Vec<Solution> {
    let n = stencil.len();
    let mut results: Vec<Option<Solution>> = rhs
        .iter()
        .map(|b| {
            (b.len() != n).then_some(Err(SolveError::DimensionMismatch {
                rows: n,
                cols: n,
                rhs: b.len(),
            }))
        })
        .collect();

    let mut inv_diag = Vec::with_capacity(n);
    let mut bad_diagonal = None;
    for (row, c) in stencil.coefficients.iter().enumerate() {
        let value = c[DIAGONAL];
        if value <= 0.0 || !value.is_finite() {
            bad_diagonal = Some(SolveError::BadDiagonal { row, value });
            break;
        }
        inv_diag.push(1.0 / value);
    }

    let mut lanes = Vec::new();
    for (index, (result, b)) in results.iter_mut().zip(rhs).enumerate() {
        if result.is_some() {
            continue;
        }
        if let Some(error) = &bad_diagonal {
            *result = Some(Err(error.clone()));
            continue;
        }
        let bb = b.iter().map(|v| v * v).fold(-0.0, |acc, v| acc + v);
        let b_norm = bb.sqrt();
        if b_norm == 0.0 {
            *result = Some(Ok((
                vec![0.0; n],
                SolveStats {
                    iterations: 0,
                    relative_residual: 0.0,
                },
            )));
        } else if !b_norm.is_finite() {
            // ‖r‖ / ‖b‖ with r = b, which is NaN for an infinite or NaN ‖b‖.
            *result = Some(Err(SolveError::NotConverged {
                iterations: 0,
                relative_residual: f64::NAN,
            }));
        } else {
            lanes.push(Lane { rhs: index, bb });
        }
    }

    // Deal the lanes into groups of at most MAX_LANES, at least one per
    // thread while lanes last, and the groups round-robin over the
    // threads.
    let threads = threads.max(1);
    let count = threads
        .min(lanes.len())
        .max(lanes.len().div_ceil(MAX_LANES));
    let workers = threads.min(count);
    let mut shares: Vec<Vec<Lockstep>> = (0..workers).map(|_| Vec::new()).collect();
    let mut next = 0;
    for g in 0..count {
        let width = lanes.len() / count + usize::from(g < lanes.len() % count);
        let group = Lockstep::new(&lanes[next..next + width], n, stencil.plane);
        shares[g % workers].push(group);
        next += width;
    }

    let run = |share: Vec<Lockstep>| -> Vec<(usize, Solution)> {
        share
            .into_iter()
            .flat_map(|group| group.run(stencil, &inv_diag, rhs, options))
            .collect()
    };
    let solved = std::thread::scope(|scope| {
        let mut shares = shares.into_iter();
        let first = shares.next();
        let workers: Vec<_> = shares
            .map(|share| scope.spawn(move || run(share)))
            .collect();
        let mut solved = first.map(run).unwrap_or_default();
        for worker in workers {
            solved.extend(worker.join().expect("solver thread panicked"));
        }
        solved
    });
    for (index, solution) in solved {
        results[index] = Some(solution);
    }
    results
        .into_iter()
        .map(|result| result.expect("every right-hand side has an outcome"))
        .collect()
}

/// A group of one to [`MAX_LANES`] lanes, as its fixed-width work vectors.
enum Lockstep {
    One(Group<1>),
    Two(Group<2>),
    Three(Group<3>),
    Four(Group<4>),
}

impl Lockstep {
    fn new(lanes: &[Lane], n: usize, plane: usize) -> Self {
        match lanes.len() {
            1 => Lockstep::One(Group::new(lanes, n, plane)),
            2 => Lockstep::Two(Group::new(lanes, n, plane)),
            3 => Lockstep::Three(Group::new(lanes, n, plane)),
            4 => Lockstep::Four(Group::new(lanes, n, plane)),
            width => unreachable!("a group holds 1 to {MAX_LANES} lanes, not {width}"),
        }
    }

    fn run(
        self,
        stencil: &Stencil,
        inv_diag: &[f64],
        rhs: &[Vec<f64>],
        options: SolverOptions,
    ) -> Vec<(usize, Solution)> {
        match self {
            Lockstep::One(group) => group.run(stencil, inv_diag, rhs, options),
            Lockstep::Two(group) => group.run(stencil, inv_diag, rhs, options),
            Lockstep::Three(group) => group.run(stencil, inv_diag, rhs, options),
            Lockstep::Four(group) => group.run(stencil, inv_diag, rhs, options),
        }
    }
}

/// The CG state of `K` lanes: element `i` of each vector holds unknown `i`
/// of every lane.
struct Group<const K: usize> {
    lanes: [Lane; K],
    x: Vec<[f64; K]>,
    r: Vec<[f64; K]>,
    /// The search direction, with a zero halo of one plane at each end.
    p: Vec<[f64; K]>,
    ap: Vec<[f64; K]>,
    solutions: [Vec<f64>; K],
}

impl<const K: usize> Group<K> {
    fn new(lanes: &[Lane], n: usize, plane: usize) -> Self {
        Group {
            lanes: std::array::from_fn(|l| lanes[l]),
            x: vec![[0.0; K]; n],
            r: vec![[0.0; K]; n],
            p: vec![[0.0; K]; n + 2 * plane],
            ap: vec![[0.0; K]; n],
            solutions: std::array::from_fn(|_| vec![0.0; n]),
        }
    }

    /// Runs the lanes' iterations in lockstep until every lane has
    /// converged, broken down or used up the iteration budget.
    fn run(
        self,
        stencil: &Stencil,
        inv_diag: &[f64],
        rhs: &[Vec<f64>],
        options: SolverOptions,
    ) -> Vec<(usize, Solution)> {
        let Group {
            lanes,
            mut x,
            mut r,
            mut p,
            mut ap,
            mut solutions,
        } = self;
        let plane = stencil.plane;
        let b_norm: [f64; K] = std::array::from_fn(|l| lanes[l].bb.sqrt());

        // r = b, p = z = r·D⁻¹.
        let mut rr: [f64; K] = std::array::from_fn(|l| lanes[l].bb);
        let mut rz = [-0.0; K];
        for (i, (ri, &d)) in r.iter_mut().zip(inv_diag).enumerate() {
            for l in 0..K {
                let b = rhs[lanes[l].rhs][i];
                let z = b * d;
                ri[l] = b;
                p[plane + i][l] = z;
                rz[l] += b * z;
            }
        }

        let mut outcome: [Option<Result<SolveStats, SolveError>>; K] =
            std::array::from_fn(|_| None);
        let mut beta = [0.0; K];
        for iteration in 0..options.max_iterations {
            let update = (iteration > 0).then_some(Direction {
                r: &r,
                inv_diag,
                beta,
            });
            let pap = stencil.apply(&mut p, &mut ap, update);
            for l in 0..K {
                if outcome[l].is_none() && (pap[l] <= 0.0 || pap[l].is_nan()) {
                    // Loss of positive-definiteness, or a non-finite value
                    // (should not happen for a correct assembly): report
                    // non-convergence with the current residual.
                    outcome[l] = Some(Err(SolveError::NotConverged {
                        iterations: iteration,
                        relative_residual: rr[l].sqrt() / b_norm[l],
                    }));
                }
            }
            if outcome.iter().all(Option::is_some) {
                break;
            }

            let alpha: [f64; K] = std::array::from_fn(|l| rz[l] / pap[l]);
            let mut rz_new = [-0.0; K];
            rr = [-0.0; K];
            let rows = x.iter_mut().zip(r.iter_mut()).zip(&ap).zip(inv_diag);
            for (i, (((xi, ri), api), &d)) in rows.enumerate() {
                let pi = &p[plane + i];
                for l in 0..K {
                    xi[l] += alpha[l] * pi[l];
                    ri[l] -= alpha[l] * api[l];
                    rr[l] += ri[l] * ri[l];
                    rz_new[l] += ri[l] * (ri[l] * d);
                }
            }
            for l in 0..K {
                let relative_residual = rr[l].sqrt() / b_norm[l];
                if outcome[l].is_none() && relative_residual <= options.tolerance {
                    outcome[l] = Some(Ok(SolveStats {
                        iterations: iteration + 1,
                        relative_residual,
                    }));
                    for (s, xi) in solutions[l].iter_mut().zip(&x) {
                        *s = xi[l];
                    }
                }
            }
            if outcome.iter().all(Option::is_some) {
                break;
            }
            for l in 0..K {
                beta[l] = rz_new[l] / rz[l];
                rz[l] = rz_new[l];
            }
        }

        lanes
            .iter()
            .zip(outcome)
            .zip(solutions)
            .enumerate()
            .map(|(l, ((lane, outcome), solution))| {
                let outcome = outcome.unwrap_or_else(|| {
                    Err(SolveError::NotConverged {
                        iterations: options.max_iterations,
                        relative_residual: rr[l].sqrt() / b_norm[l],
                    })
                });
                (lane.rhs, outcome.map(|stats| (solution, stats)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletBuilder;
    use proptest::prelude::*;

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
    }

    fn norm(a: &[f64]) -> f64 {
        dot(a, a).sqrt()
    }

    /// The one-RHS Jacobi-preconditioned CG on the CSR matrix that [`solve`]
    /// replaced, kept as the oracle its bits are checked against.
    fn conjugate_gradient(
        matrix: &CsrMatrix,
        rhs: &[f64],
        options: SolverOptions,
    ) -> Result<(Vec<f64>, SolveStats), SolveError> {
        let n = matrix.n_rows();
        if matrix.n_cols() != n || rhs.len() != n {
            return Err(SolveError::DimensionMismatch {
                rows: matrix.n_rows(),
                cols: matrix.n_cols(),
                rhs: rhs.len(),
            });
        }

        let diag = matrix.diagonal();
        let mut inv_diag = vec![0.0; n];
        for (i, &d) in diag.iter().enumerate() {
            if d <= 0.0 || !d.is_finite() {
                return Err(SolveError::BadDiagonal { row: i, value: d });
            }
            inv_diag[i] = 1.0 / d;
        }

        let b_norm = norm(rhs);
        if b_norm == 0.0 {
            return Ok((
                vec![0.0; n],
                SolveStats {
                    iterations: 0,
                    relative_residual: 0.0,
                },
            ));
        }

        let mut x = vec![0.0; n];
        let mut r = rhs.to_vec();
        let mut z: Vec<f64> = r.iter().zip(&inv_diag).map(|(ri, di)| ri * di).collect();
        let mut p = z.clone();
        let mut rz = dot(&r, &z);
        let mut ap = vec![0.0; n];

        for iteration in 0..options.max_iterations {
            matrix.mul_vec_into(&p, &mut ap);
            let pap = dot(&p, &ap);
            if pap <= 0.0 {
                return Err(SolveError::NotConverged {
                    iterations: iteration,
                    relative_residual: norm(&r) / b_norm,
                });
            }
            let alpha = rz / pap;
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            let rel = norm(&r) / b_norm;
            if rel <= options.tolerance {
                return Ok((
                    x,
                    SolveStats {
                        iterations: iteration + 1,
                        relative_residual: rel,
                    },
                ));
            }
            for i in 0..n {
                z[i] = r[i] * inv_diag[i];
            }
            let rz_new = dot(&r, &z);
            let beta = rz_new / rz;
            rz = rz_new;
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
            }
        }

        Err(SolveError::NotConverged {
            iterations: options.max_iterations,
            relative_residual: norm(&r) / b_norm,
        })
    }

    /// 1-D Poisson matrix with Dirichlet ends: tridiag(-1, 2, -1).
    fn poisson_1d(n: usize) -> CsrMatrix {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.0);
            if i > 0 {
                b.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
            }
        }
        b.build()
    }

    /// One-RHS, one-thread [`solve`] on the 1-D Poisson stencil.
    fn solve_1d(n: usize, b: &[f64], options: SolverOptions) -> Solution {
        let stencil = Stencil::from_csr(&poisson_1d(n), n, 1, 1);
        solve(&stencil, &[b.to_vec()], options, 1)
            .pop()
            .expect("one result")
    }

    #[test]
    fn solves_small_spd_system() {
        let a = poisson_1d(5);
        let b = vec![1.0; 5];
        let (x, stats) = solve_1d(5, &b, SolverOptions::default()).unwrap();
        let residual: Vec<f64> = a
            .mul_vec(&x)
            .iter()
            .zip(&b)
            .map(|(ax, bi)| ax - bi)
            .collect();
        let rel = residual.iter().map(|v| v * v).sum::<f64>().sqrt() / (5.0f64).sqrt();
        assert!(rel < 1e-8);
        assert!(stats.iterations <= 5, "CG should converge in ≤ n steps");
    }

    #[test]
    fn solves_larger_system_accurately() {
        let n = 400;
        let a = poisson_1d(n);
        // Manufactured solution x*_i = sin(i/10); b = A x*.
        let x_star: Vec<f64> = (0..n).map(|i| (i as f64 / 10.0).sin()).collect();
        let b = a.mul_vec(&x_star);
        let (x, _) = solve_1d(n, &b, SolverOptions::default()).unwrap();
        let err = x
            .iter()
            .zip(&x_star)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-5, "error {err}");
    }

    #[test]
    fn zero_rhs_returns_zero_solution() {
        let (x, stats) = solve_1d(10, &[0.0; 10], SolverOptions::default()).unwrap();
        assert!(x.iter().all(|&v| v == 0.0));
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let err = solve_1d(4, &[1.0; 3], SolverOptions::default()).unwrap_err();
        assert!(matches!(err, SolveError::DimensionMismatch { .. }));
    }

    #[test]
    fn bad_diagonal_is_reported() {
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        // Row 1 has no diagonal entry at all.
        b.add(1, 0, 1.0);
        let stencil = Stencil::from_csr(&b.build(), 2, 1, 1);
        let err = solve(&stencil, &[vec![1.0, 1.0]], SolverOptions::default(), 1)
            .pop()
            .unwrap()
            .unwrap_err();
        assert!(matches!(err, SolveError::BadDiagonal { row: 1, .. }));
    }

    #[test]
    fn iteration_budget_is_respected() {
        let opts = SolverOptions {
            tolerance: 1e-14,
            max_iterations: 3,
        };
        let err = solve_1d(200, &[1.0; 200], opts).unwrap_err();
        match err {
            SolveError::NotConverged { iterations, .. } => assert_eq!(iterations, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn non_finite_values_break_down_at_once() {
        // A NaN or infinite right-hand side stops before the first
        // iteration instead of running the whole budget on NaN.
        for bad in [f64::NAN, f64::INFINITY] {
            let mut b = vec![1.0; 50];
            b[7] = bad;
            match solve_1d(50, &b, SolverOptions::default()).unwrap_err() {
                SolveError::NotConverged { iterations, .. } => assert_eq!(iterations, 0),
                other => panic!("unexpected error {other:?}"),
            }
        }
        // A NaN coupling makes p·Ap NaN, which is a breakdown too.
        let mut a = TripletBuilder::new(3, 3);
        for i in 0..3 {
            a.add(i, i, 2.0);
        }
        a.add(1, 2, f64::NAN);
        let stencil = Stencil::from_csr(&a.build(), 3, 1, 1);
        let err = solve(&stencil, &[vec![1.0; 3]], SolverOptions::default(), 1)
            .pop()
            .unwrap()
            .unwrap_err();
        assert!(matches!(
            err,
            SolveError::NotConverged { iterations: 0, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "off the seven-point stencil")]
    fn entries_off_the_stencil_are_rejected() {
        // On a 2×2 plane, voxels 1 and 2 are diagonal neighbours, not face
        // neighbours.
        let mut b = TripletBuilder::new(4, 4);
        b.add(1, 2, -1.0);
        let _ = Stencil::from_csr(&b.build(), 2, 2, 1);
    }

    /// SplitMix64: the random source of the voxel problems below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in [0, 1).
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The bits of an outcome, so that two outcomes compare equal exactly
    /// when every number in them has the same bit pattern.
    fn outcome_bits(solution: &Solution) -> Vec<u64> {
        match solution {
            Ok((x, stats)) => [
                0,
                stats.iterations as u64,
                stats.relative_residual.to_bits(),
            ]
            .into_iter()
            .chain(x.iter().map(|v| v.to_bits()))
            .collect(),
            Err(SolveError::NotConverged {
                iterations,
                relative_residual,
            }) => vec![1, *iterations as u64, relative_residual.to_bits()],
            Err(SolveError::BadDiagonal { row, value }) => vec![2, *row as u64, value.to_bits()],
            Err(SolveError::DimensionMismatch { rows, cols, rhs }) => {
                vec![3, *rows as u64, *cols as u64, *rhs as u64]
            }
        }
    }

    /// Assembles a random heat-like problem on an `nx × ny × nz` voxel grid
    /// the way the heat module does: random positive conductivities,
    /// harmonic-mean face conductances, and a Dirichlet sink of random
    /// conductance under a random part of the bottom plane. With `broken`,
    /// one random row's diagonal is driven negative.
    fn voxel_problem(rng: &mut Rng, nx: usize, ny: usize, nz: usize, broken: bool) -> CsrMatrix {
        let grid = crate::grid::Grid::new(nx, ny, nz, 1e-8);
        let n = grid.len();
        let k: Vec<f64> = (0..n).map(|_| 0.1 + 10.0 * rng.unit()).collect();
        let mut b = TripletBuilder::new(n, n);
        for i in grid.iter() {
            for j in grid.neighbors(i) {
                let g = crate::materials::harmonic_mean(k[i], k[j]) * 1e-8;
                b.add(i, i, g);
                b.add(i, j, -g);
            }
            if grid.is_bottom(i) && rng.unit() < 0.7 {
                b.add(i, i, k[i] * 2e-8 * rng.unit());
            }
        }
        if broken {
            let row = (rng.next() % n as u64) as usize;
            b.add(row, row, -1.0);
        }
        b.build()
    }

    /// Solves `lanes` random right-hand sides of a random voxel problem on
    /// `threads` threads and requires every outcome to carry the bits of
    /// the CSR oracle's.
    fn check_against_oracle(
        seed: u64,
        (nx, ny, nz): (usize, usize, usize),
        lanes: usize,
        threads: usize,
    ) {
        let mut rng = Rng(seed);
        let broken = rng.unit() < 0.15;
        let matrix = voxel_problem(&mut rng, nx, ny, nz, broken);
        let n = matrix.n_rows();
        let options = if rng.unit() < 0.3 {
            SolverOptions {
                tolerance: 1e-13,
                max_iterations: (rng.next() % (n as u64 + 2)) as usize,
            }
        } else {
            SolverOptions::default()
        };
        let rhs: Vec<Vec<f64>> = (0..lanes)
            .map(|_| {
                let zero = rng.unit() < 0.2;
                (0..n)
                    .map(|_| if zero { 0.0 } else { 2.0 * rng.unit() - 1.0 })
                    .collect()
            })
            .collect();
        let stencil = Stencil::from_csr(&matrix, nx, ny, nz);
        let solved = solve(&stencil, &rhs, options, threads);
        assert_eq!(solved.len(), lanes);
        for (lane, (b, got)) in rhs.iter().zip(&solved).enumerate() {
            let want = conjugate_gradient(&matrix, b, options);
            assert!(
                outcome_bits(got) == outcome_bits(&want),
                "seed {seed}, {nx}×{ny}×{nz}, lane {lane} of {lanes} on {threads} threads, \
                 {options:?}: got {got:?}, oracle {want:?}"
            );
        }
    }

    proptest! {
        #[test]
        fn lockstep_lanes_match_the_csr_oracle_bit_for_bit(
            seed in 0u64..u64::MAX,
            nx in 1usize..7,
            ny in 1usize..7,
            nz in 1usize..7,
            lanes in 1usize..6,
            threads in 1usize..4,
        ) {
            check_against_oracle(seed, (nx, ny, nz), lanes, threads);
        }
    }

    #[test]
    fn one_dimensional_grids_match_the_csr_oracle() {
        // With nx = 1 or ny = 1, offsets that coincide (−1 and −nx, say)
        // must still land in the slot of the neighbour that exists.
        for (seed, shape) in [
            (1, (1, 1, 17)),
            (2, (1, 9, 1)),
            (3, (13, 1, 1)),
            (4, (1, 4, 5)),
        ] {
            for lanes in 1..=5 {
                for threads in 1..=3 {
                    check_against_oracle(seed * 100 + lanes as u64, shape, lanes, threads);
                }
            }
        }
    }

    #[test]
    fn error_messages_are_informative() {
        let msg = SolveError::NotConverged {
            iterations: 7,
            relative_residual: 0.5,
        }
        .to_string();
        assert!(msg.contains("7"));
    }
}
