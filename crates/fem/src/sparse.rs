//! Compressed sparse row (CSR) matrices for the finite-volume solver.
//!
//! The steady-state heat equation discretises into a symmetric positive
//! (semi-)definite system with a 7-point stencil. The finite-volume
//! assembly accumulates it as triplets, sums the duplicates into a CSR
//! matrix, and the solver reads that out into a [`crate::solver::Stencil`].

use serde::{Deserialize, Serialize};

/// A sparse matrix in compressed sparse row format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

/// Builder that accumulates (row, col, value) triplets and assembles a CSR
/// matrix. Duplicate entries are summed, which is exactly what a
/// finite-volume assembly wants.
#[derive(Debug, Clone, Default)]
pub struct TripletBuilder {
    n_rows: usize,
    n_cols: usize,
    triplets: Vec<(usize, usize, f64)>,
}

impl TripletBuilder {
    /// Creates a builder for an `n_rows × n_cols` matrix.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        TripletBuilder {
            n_rows,
            n_cols,
            triplets: Vec::new(),
        }
    }

    /// Adds `value` at `(row, col)`; repeated coordinates accumulate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.n_rows,
            "row {row} out of bounds ({})",
            self.n_rows
        );
        assert!(
            col < self.n_cols,
            "col {col} out of bounds ({})",
            self.n_cols
        );
        if value != 0.0 {
            self.triplets.push((row, col, value));
        }
    }

    /// Number of triplets accumulated so far (before deduplication).
    pub fn len(&self) -> usize {
        self.triplets.len()
    }

    /// Returns `true` when no triplets have been added.
    pub fn is_empty(&self) -> bool {
        self.triplets.is_empty()
    }

    /// Assembles the CSR matrix, summing duplicate entries.
    pub fn build(mut self) -> CsrMatrix {
        self.triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = vec![0usize; self.n_rows + 1];
        let mut col_idx: Vec<usize> = Vec::with_capacity(self.triplets.len());
        let mut values: Vec<f64> = Vec::with_capacity(self.triplets.len());
        let mut last: Option<(usize, usize)> = None;

        for (row, col, value) in self.triplets {
            if last == Some((row, col)) {
                *values.last_mut().expect("entry exists when last is Some") += value;
            } else {
                col_idx.push(col);
                values.push(value);
                row_ptr[row + 1] += 1;
                last = Some((row, col));
            }
        }
        // Prefix-sum the per-row counts into offsets.
        for i in 0..self.n_rows {
            row_ptr[i + 1] += row_ptr[i];
        }

        CsrMatrix {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

impl CsrMatrix {
    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored (structural) non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns the value at `(row, col)`, or 0 if not stored.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let start = self.row_ptr[row];
        let end = self.row_ptr[row + 1];
        for k in start..end {
            if self.col_idx[k] == col {
                return self.values[k];
            }
        }
        0.0
    }

    /// The stored entries of one row: their columns, ascending, and their
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub(crate) fn row(&self, row: usize) -> (&[usize], &[f64]) {
        let range = self.row_ptr[row]..self.row_ptr[row + 1];
        (&self.col_idx[range.clone()], &self.values[range])
    }

    /// Diagonal entries (zero where no diagonal entry is stored).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.n_rows.min(self.n_cols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Matrix–vector product `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n_cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_cols, "dimension mismatch in mul_vec");
        let mut y = vec![0.0; self.n_rows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Matrix–vector product into a pre-allocated buffer.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions do not match.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "dimension mismatch in mul_vec_into");
        assert_eq!(y.len(), self.n_rows, "dimension mismatch in mul_vec_into");
        for (row, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[row]..self.row_ptr[row + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *out = acc;
        }
    }

    /// Checks structural symmetry and value symmetry up to `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.n_rows != self.n_cols {
            return false;
        }
        for row in 0..self.n_rows {
            for k in self.row_ptr[row]..self.row_ptr[row + 1] {
                let col = self.col_idx[k];
                if (self.values[k] - self.get(col, row)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_matrix() -> CsrMatrix {
        // [ 2 -1  0 ]
        // [-1  2 -1 ]
        // [ 0 -1  2 ]
        let mut b = TripletBuilder::new(3, 3);
        b.add(0, 0, 2.0);
        b.add(0, 1, -1.0);
        b.add(1, 0, -1.0);
        b.add(1, 1, 2.0);
        b.add(1, 2, -1.0);
        b.add(2, 1, -1.0);
        b.add(2, 2, 2.0);
        b.build()
    }

    #[test]
    fn builds_expected_structure() {
        let m = small_matrix();
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 3);
        assert_eq!(m.nnz(), 7);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(0, 2), 0.0);
        assert_eq!(m.diagonal(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn duplicate_triplets_accumulate() {
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(0, 0, 2.5);
        b.add(1, 1, 1.0);
        let m = b.build();
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn zero_values_are_skipped() {
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 0.0);
        assert!(b.is_empty());
        b.add(1, 0, 4.0);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn mat_vec_product_matches_dense() {
        let m = small_matrix();
        let y = m.mul_vec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn symmetric_matrix_detected() {
        assert!(small_matrix().is_symmetric(1e-12));
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 1, 1.0);
        b.add(1, 1, 1.0);
        assert!(!b.build().is_symmetric(1e-12));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_add_panics() {
        let mut b = TripletBuilder::new(2, 2);
        b.add(5, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_mul_panics() {
        let m = small_matrix();
        let _ = m.mul_vec(&[1.0, 2.0]);
    }
}
