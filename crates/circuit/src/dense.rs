//! Small dense linear algebra for the MNA equations.
//!
//! Small crossbar line networks have tens of unknowns (node voltages plus
//! voltage-source branch currents), so a dense LU factorisation with partial
//! pivoting is the simplest dependable solver. Its pivoting depends on the
//! row order, so a network must number its unknowns the same way every time
//! to solve the same way.

use std::error::Error;
use std::fmt;

/// A dense, row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Errors from the dense solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinearError {
    /// The matrix is singular (or numerically so) at the given pivot column.
    Singular {
        /// Pivot column where elimination failed.
        column: usize,
    },
    /// Dimensions do not match.
    DimensionMismatch,
}

impl fmt::Display for LinearError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinearError::Singular { column } => {
                write!(f, "matrix is singular at pivot column {column}")
            }
            LinearError::DimensionMismatch => write!(f, "dimension mismatch"),
        }
    }
}

impl Error for LinearError {}

impl DenseMatrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Solves `A·x = b` by LU factorisation with partial pivoting. `self` is
    /// left untouched (the factorisation works on a copy).
    ///
    /// # Errors
    ///
    /// Returns [`LinearError::Singular`] if a pivot is (numerically) zero and
    /// [`LinearError::DimensionMismatch`] if shapes do not match.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinearError> {
        if self.rows != self.cols || b.len() != self.rows {
            return Err(LinearError::DimensionMismatch);
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();

        for col in 0..n {
            // Partial pivoting.
            let mut pivot_row = col;
            let mut pivot_val = a[col * n + col].abs();
            for row in (col + 1)..n {
                let v = a[row * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = row;
                }
            }
            if pivot_val < 1e-300 {
                return Err(LinearError::Singular { column: col });
            }
            if pivot_row != col {
                for k in 0..n {
                    a.swap(col * n + k, pivot_row * n + k);
                }
                x.swap(col, pivot_row);
            }
            // Eliminate below.
            let pivot = a[col * n + col];
            for row in (col + 1)..n {
                let factor = a[row * n + col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                for k in col..n {
                    a[row * n + k] -= factor * a[col * n + k];
                }
                x[row] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut sum = x[col];
            for k in (col + 1)..n {
                sum -= a[col * n + k] * x[k];
            }
            x[col] = sum / a[col * n + col];
        }
        Ok(x)
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_returns_rhs() {
        let mut a = DenseMatrix::zeros(4, 4);
        for i in 0..4 {
            a[(i, i)] = 1.0;
        }
        let b = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(a.solve(&b).unwrap(), b);
    }

    #[test]
    fn solves_known_system() {
        // [2 1; 1 3] x = [3; 5] → x = [0.8, 1.4]
        let mut a = DenseMatrix::zeros(2, 2);
        a[(0, 0)] = 2.0;
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        a[(1, 1)] = 3.0;
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let mut a = DenseMatrix::zeros(2, 2);
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn residual_is_small_for_random_like_system() {
        let n = 12;
        let mut a = DenseMatrix::zeros(n, n);
        // Deterministic pseudo-random fill that is diagonally dominant.
        for r in 0..n {
            let mut diag = 0.0;
            for c in 0..n {
                if r != c {
                    let v = (((r * 31 + c * 17) % 13) as f64 - 6.0) / 7.0;
                    a[(r, c)] = v;
                    diag += v.abs();
                }
            }
            a[(r, r)] = diag + 1.0;
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..n)
            .map(|r| (0..n).map(|c| a[(r, c)] * x_true[c]).sum())
            .collect();
        let x = a.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = DenseMatrix::zeros(3, 3);
        assert!(matches!(
            a.solve(&[1.0, 1.0, 1.0]),
            Err(LinearError::Singular { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = DenseMatrix::zeros(3, 3);
        assert_eq!(a.solve(&[1.0, 2.0]), Err(LinearError::DimensionMismatch));
        let b = DenseMatrix::zeros(2, 3);
        assert_eq!(b.solve(&[1.0, 2.0]), Err(LinearError::DimensionMismatch));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_index_panics() {
        let a = DenseMatrix::zeros(2, 2);
        let _ = a[(2, 0)];
    }
}
