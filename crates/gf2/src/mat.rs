//! Dense GF(2) matrices and the linear-algebra routines used to build and
//! analyze linear block codes.

use crate::vec::BitVec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense matrix over GF(2), stored as one [`BitVec`] per row.
///
/// The matrix dimensions are fixed at construction. Rows are indexed first:
/// `m.get(r, c)`.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitMat {
    rows: usize,
    cols: usize,
    data: Vec<BitVec>,
}

impl BitMat {
    /// Creates an all-zero matrix with the given dimensions.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        BitMat {
            rows,
            cols,
            data: (0..rows).map(|_| BitVec::zeros(cols)).collect(),
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Panics
    /// Panics if the rows do not all have the same length.
    #[must_use]
    pub fn from_rows(rows: Vec<BitVec>) -> Self {
        let cols = rows.first().map_or(0, BitVec::len);
        for r in &rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
        }
        BitMat {
            rows: rows.len(),
            cols,
            data: rows,
        }
    }

    /// Builds a `rows × cols` matrix where each row is given as the low
    /// `cols` bits of a `u64` (bit `i` of the word is column `i`).
    ///
    /// # Panics
    /// Panics if `cols > 64` or the slice length differs from `rows`.
    #[must_use]
    pub fn from_rows_u64(rows: usize, cols: usize, words: &[u64]) -> Self {
        assert_eq!(words.len(), rows, "need exactly one word per row");
        Self::from_rows(words.iter().map(|&w| BitVec::from_u64(cols, w)).collect())
    }

    /// Parses a matrix from rows of `'0'`/`'1'` strings.
    ///
    /// # Panics
    /// Panics if rows have differing lengths or contain invalid characters.
    #[must_use]
    pub fn from_str_rows(rows: &[&str]) -> Self {
        Self::from_rows(rows.iter().map(|s| BitVec::from_str01(s)).collect())
    }

    /// Returns the number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Returns the number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns element `(r, c)`.
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> bool {
        self.data[r].get(c)
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        self.data[r].set(c, value);
    }

    /// Returns row `r` as a [`BitVec`].
    ///
    /// # Panics
    /// Panics if out of range.
    #[must_use]
    pub fn row(&self, r: usize) -> &BitVec {
        &self.data[r]
    }

    /// Returns column `c` as a [`BitVec`].
    ///
    /// # Panics
    /// Panics if out of range.
    #[must_use]
    pub fn col(&self, c: usize) -> BitVec {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Returns the transpose.
    #[must_use]
    pub fn transpose(&self) -> BitMat {
        let mut t = BitMat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                if self.get(r, c) {
                    t.set(c, r, true);
                }
            }
        }
        t
    }

    /// Computes the row-vector × matrix product `v · M` over GF(2).
    ///
    /// `v` must have length equal to the number of rows; the result has length
    /// equal to the number of columns. This is the codeword = message × G
    /// operation of Eq. (2) in the paper.
    ///
    /// # Panics
    /// Panics if `v.len() != self.rows()`.
    #[must_use]
    pub fn left_mul_vec(&self, v: &BitVec) -> BitVec {
        assert_eq!(v.len(), self.rows, "vector length must equal row count");
        let mut acc = BitVec::zeros(self.cols);
        for r in 0..self.rows {
            if v.get(r) {
                acc.xor_assign(&self.data[r]);
            }
        }
        acc
    }

    /// Computes the matrix × column-vector product `M · v` over GF(2).
    ///
    /// `v` must have length equal to the number of columns; the result has
    /// length equal to the number of rows. This is the syndrome = H · rᵀ
    /// operation used by syndrome decoders.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    #[must_use]
    pub fn mul_vec(&self, v: &BitVec) -> BitVec {
        assert_eq!(v.len(), self.cols, "vector length must equal column count");
        (0..self.rows).map(|r| self.data[r].dot(v)).collect()
    }

    /// Computes the matrix product `self · other` over GF(2).
    ///
    /// # Panics
    /// Panics if the inner dimensions differ.
    #[must_use]
    pub fn mul(&self, other: &BitMat) -> BitMat {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let rows = (0..self.rows)
            .map(|r| {
                let mut acc = BitVec::zeros(other.cols);
                for c in 0..self.cols {
                    if self.get(r, c) {
                        acc.xor_assign(other.row(c));
                    }
                }
                acc
            })
            .collect();
        BitMat::from_rows(rows)
    }

    /// Horizontally concatenates `[self | other]`.
    ///
    /// # Panics
    /// Panics if the row counts differ.
    #[must_use]
    pub fn hconcat(&self, other: &BitMat) -> BitMat {
        assert_eq!(self.rows, other.rows, "row counts must agree");
        let rows = (0..self.rows)
            .map(|r| self.data[r].concat(&other.data[r]))
            .collect();
        BitMat::from_rows(rows)
    }

    /// Returns the submatrix selecting the given columns, in order.
    ///
    /// # Panics
    /// Panics if any column index is out of range.
    #[must_use]
    pub fn select_cols(&self, cols: &[usize]) -> BitMat {
        let rows = (0..self.rows)
            .map(|r| cols.iter().map(|&c| self.get(r, c)).collect())
            .collect();
        BitMat::from_rows(rows)
    }

    /// Reduces the matrix to reduced row-echelon form (RREF) in place and
    /// returns the list of pivot columns.
    pub fn rref_in_place(&mut self) -> Vec<usize> {
        let mut pivots = Vec::new();
        let mut pivot_row = 0;
        for col in 0..self.cols {
            if pivot_row >= self.rows {
                break;
            }
            // Find a row at or below pivot_row with a 1 in this column.
            let Some(src) = (pivot_row..self.rows).find(|&r| self.get(r, col)) else {
                continue;
            };
            self.data.swap(pivot_row, src);
            // Clear this column in every other row.
            let pivot = self.data[pivot_row].clone();
            for r in 0..self.rows {
                if r != pivot_row && self.get(r, col) {
                    self.data[r].xor_assign(&pivot);
                }
            }
            pivots.push(col);
            pivot_row += 1;
        }
        pivots
    }

    /// Returns the RREF of the matrix together with its pivot columns.
    #[must_use]
    pub fn rref(&self) -> (BitMat, Vec<usize>) {
        let mut m = self.clone();
        let pivots = m.rref_in_place();
        (m, pivots)
    }

    /// Returns the rank of the matrix.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rref().1.len()
    }

    /// Returns a basis of the null space `{ x : M · x = 0 }` as rows of a
    /// matrix with `cols()` columns. The returned matrix has
    /// `cols() - rank()` rows.
    #[must_use]
    pub fn null_space(&self) -> BitMat {
        let (rref, pivots) = self.rref();
        let pivot_set: Vec<bool> = {
            let mut v = vec![false; self.cols];
            for &p in &pivots {
                v[p] = true;
            }
            v
        };
        let free_cols: Vec<usize> = (0..self.cols).filter(|&c| !pivot_set[c]).collect();
        let mut basis = Vec::with_capacity(free_cols.len());
        for &free in &free_cols {
            let mut x = BitVec::zeros(self.cols);
            x.set(free, true);
            // For each pivot row, the pivot variable equals the sum of the free
            // variables appearing in that row.
            for (row_idx, &pivot_col) in pivots.iter().enumerate() {
                if rref.get(row_idx, free) {
                    x.set(pivot_col, true);
                }
            }
            basis.push(x);
        }
        if basis.is_empty() {
            BitMat::zeros(0, self.cols)
        } else {
            BitMat::from_rows(basis)
        }
    }

    /// Converts a full-rank generator matrix to systematic form `[I | P]` by
    /// row reduction and, if necessary, column permutation.
    ///
    /// Returns `(systematic_matrix, column_permutation)` where
    /// `column_permutation[i]` gives the original column now at position `i`.
    ///
    /// # Panics
    /// Panics if the matrix does not have full row rank.
    #[must_use]
    pub fn to_systematic(&self) -> (BitMat, Vec<usize>) {
        let (rref, pivots) = self.rref();
        assert_eq!(
            pivots.len(),
            self.rows,
            "matrix must have full row rank to be put in systematic form"
        );
        let mut perm: Vec<usize> = pivots.clone();
        let pivot_set: std::collections::HashSet<usize> = pivots.iter().copied().collect();
        perm.extend((0..self.cols).filter(|c| !pivot_set.contains(c)));
        (rref.select_cols(&perm), perm)
    }

    /// Returns `true` if every entry is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(BitVec::is_zero)
    }
}

impl fmt::Debug for BitMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMat({}x{}) [", self.rows, self.cols)?;
        for r in &self.data {
            writeln!(f, "  {}", r.to_string01())?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.data.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{}", r.to_string01())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hamming74_h() -> BitMat {
        // Parity-check matrix of Hamming(7,4) in one common form.
        BitMat::from_str_rows(&["1110100", "1101010", "1011001"])
    }

    #[test]
    fn identity_and_get_set() {
        let mut m = BitMat::identity(3);
        assert!(m.get(0, 0) && m.get(1, 1) && m.get(2, 2));
        assert!(!m.get(0, 1));
        m.set(0, 1, true);
        assert!(m.get(0, 1));
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn transpose_involution() {
        let m = hamming74_h();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().rows(), 7);
        assert_eq!(m.transpose().cols(), 3);
    }

    #[test]
    fn left_mul_vec_xors_selected_rows() {
        let g = BitMat::from_str_rows(&["1000", "0100", "0010", "0001"]);
        let v = BitVec::from_str01("1010");
        assert_eq!(g.left_mul_vec(&v).to_string01(), "1010");
        let g2 = BitMat::from_str_rows(&["1100", "0110"]);
        let v2 = BitVec::from_str01("11");
        assert_eq!(g2.left_mul_vec(&v2).to_string01(), "1010");
    }

    #[test]
    fn mul_vec_computes_syndrome() {
        let h = hamming74_h();
        // A valid codeword of Hamming(7,4) has zero syndrome. The all-ones
        // word is a codeword of the (7,4) Hamming code.
        let cw = BitVec::ones(7);
        assert!(h.mul_vec(&cw).is_zero());
        // A single error yields a nonzero syndrome equal to the flipped column.
        let mut r = cw.clone();
        r.flip(2);
        let syn = h.mul_vec(&r);
        assert_eq!(syn, h.col(2));
    }

    #[test]
    fn matrix_product_against_identity() {
        let m = hamming74_h();
        let i7 = BitMat::identity(7);
        assert_eq!(m.mul(&i7), m);
        let i3 = BitMat::identity(3);
        assert_eq!(i3.mul(&m), m);
    }

    #[test]
    fn rank_and_rref() {
        let m = hamming74_h();
        assert_eq!(m.rank(), 3);
        let singular = BitMat::from_str_rows(&["1100", "1100", "0011"]);
        assert_eq!(singular.rank(), 2);
        let (rref, pivots) = singular.rref();
        assert_eq!(pivots, vec![0, 2]);
        // Third row must be zero after reduction.
        assert!(rref.row(2).is_zero());
    }

    #[test]
    fn null_space_is_orthogonal() {
        let h = hamming74_h();
        let ns = h.null_space();
        assert_eq!(ns.rows(), 4); // 7 - rank 3
        for r in 0..ns.rows() {
            assert!(h.mul_vec(ns.row(r)).is_zero());
        }
        // The null-space rows must be linearly independent.
        assert_eq!(ns.rank(), 4);
    }

    #[test]
    fn systematic_form_has_identity_prefix() {
        let g = BitMat::from_str_rows(&["1110001", "1001101", "0101011", "1101110"]);
        assert_eq!(g.rank(), 4);
        let (sys, perm) = g.to_systematic();
        assert_eq!(perm.len(), 7);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(
                    sys.get(i, j),
                    i == j,
                    "identity prefix violated at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn hconcat_shapes() {
        let a = BitMat::identity(2);
        let b = BitMat::zeros(2, 3);
        let h = a.hconcat(&b);
        assert_eq!((h.rows(), h.cols()), (2, 5));
    }

    #[test]
    fn select_cols_reorders() {
        let m = BitMat::from_str_rows(&["100", "010", "001"]);
        let s = m.select_cols(&[2, 0, 1]);
        assert_eq!(s, BitMat::from_str_rows(&["010", "001", "100"]));
    }

    #[test]
    #[should_panic(expected = "full row rank")]
    fn systematic_form_requires_full_rank() {
        let g = BitMat::from_str_rows(&["1100", "1100"]);
        let _ = g.to_systematic();
    }
}
