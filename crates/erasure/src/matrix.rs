//! Dense matrices over GF(2^8) with Gauss–Jordan inversion — the linear
//! algebra behind systematic Reed–Solomon construction and decoding.

use crate::gf256::Gf256;
use crate::CodeError;
use std::fmt;

/// A row-major dense matrix over GF(2^8).
///
/// # Example
///
/// ```
/// use erasure::matrix::Matrix;
/// let m = Matrix::identity(3);
/// let inv = m.inverted().unwrap();
/// assert_eq!(m, inv);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Gf256>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zero(rows: usize, cols: usize) -> Matrix {
        assert!(rows > 0 && cols > 0, "empty matrix");
        Matrix {
            rows,
            cols,
            data: vec![Gf256::ZERO; rows * cols],
        }
    }

    /// Creates the identity matrix of the given size.
    pub fn identity(size: usize) -> Matrix {
        let mut m = Matrix::zero(size, size);
        for i in 0..size {
            m[(i, i)] = Gf256::ONE;
        }
        m
    }

    /// Creates a matrix from a row-major function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Gf256) -> Matrix {
        let mut m = Matrix::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// A view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &[Gf256] {
        assert!(r < self.rows, "row {r} out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Builds a new matrix from a subset of this one's rows (used to keep
    /// only the rows of surviving blocks during a degraded read).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or `indices` is empty.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        assert!(!indices.is_empty(), "no rows selected");
        Matrix::from_fn(indices.len(), self.cols, |r, c| {
            assert!(indices[r] < self.rows, "row {} out of range", indices[r]);
            self[(indices[r], c)]
        })
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn multiply(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in multiply");
        Matrix::from_fn(self.rows, rhs.cols, |r, c| {
            let mut acc = Gf256::ZERO;
            for i in 0..self.cols {
                acc += self[(r, i)] * rhs[(i, c)];
            }
            acc
        })
    }

    /// The inverse of a square matrix via Gauss–Jordan elimination with
    /// partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::SingularMatrix`] if no inverse exists.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn inverted(&self) -> Result<Matrix, CodeError> {
        assert_eq!(self.rows, self.cols, "inverse of non-square matrix");
        let n = self.rows;
        let mut work = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Find a pivot row.
            let pivot = (col..n)
                .find(|&r| !work[(r, col)].is_zero())
                .ok_or(CodeError::SingularMatrix)?;
            if pivot != col {
                work.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            // Scale the pivot row to make the pivot 1.
            let scale = work[(col, col)].inverse();
            work.scale_row(col, scale);
            inv.scale_row(col, scale);
            // Eliminate the column from every other row.
            for r in 0..n {
                if r != col && !work[(r, col)].is_zero() {
                    let factor = work[(r, col)];
                    work.add_scaled_row(r, col, factor);
                    inv.add_scaled_row(r, col, factor);
                }
            }
        }
        Ok(inv)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(a * self.cols + c, b * self.cols + c);
        }
    }

    fn scale_row(&mut self, r: usize, factor: Gf256) {
        for c in 0..self.cols {
            self[(r, c)] *= factor;
        }
    }

    /// `row[dst] -= factor * row[src]` (same as += in GF(2^8)).
    fn add_scaled_row(&mut self, dst: usize, src: usize, factor: Gf256) {
        for c in 0..self.cols {
            let v = self[(src, c)] * factor;
            self[(dst, c)] += v;
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = Gf256;
    fn index(&self, (r, c): (usize, usize)) -> &Gf256 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Gf256 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:02x} ", self[(r, c)].value())?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_invertible() -> Matrix {
        // A Vandermonde matrix over distinct points is invertible.
        Matrix::from_fn(4, 4, |r, c| Gf256::new((r + 1) as u8).pow(c))
    }

    #[test]
    fn identity_multiplication() {
        let m = sample_invertible();
        let i = Matrix::identity(4);
        assert_eq!(m.multiply(&i), m);
        assert_eq!(i.multiply(&m), m);
    }

    #[test]
    fn inverse_round_trip() {
        let m = sample_invertible();
        let inv = m.inverted().unwrap();
        assert_eq!(m.multiply(&inv), Matrix::identity(4));
        assert_eq!(inv.multiply(&m), Matrix::identity(4));
    }

    #[test]
    fn singular_detection() {
        let mut m = Matrix::zero(3, 3);
        // Two identical rows.
        for c in 0..3 {
            m[(0, c)] = Gf256::new(c as u8 + 1);
            m[(1, c)] = Gf256::new(c as u8 + 1);
            m[(2, c)] = Gf256::new(7);
        }
        assert_eq!(m.inverted().unwrap_err(), CodeError::SingularMatrix);
    }

    #[test]
    fn select_rows_subsets() {
        let m = Matrix::from_fn(4, 2, |r, c| Gf256::new((10 * r + c) as u8));
        let s = m.select_rows(&[3, 1]);
        assert_eq!(s.rows(), 2);
        assert_eq!(s[(0, 0)].value(), 30);
        assert_eq!(s[(1, 1)].value(), 11);
    }

    #[test]
    fn row_view() {
        let m = Matrix::from_fn(2, 3, |r, c| Gf256::new((r * 3 + c) as u8));
        assert_eq!(
            m.row(1).iter().map(|g| g.value()).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn multiply_rejects_bad_dims() {
        let a = Matrix::zero(2, 3);
        let b = Matrix::zero(2, 3);
        let _ = a.multiply(&b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_bounds_checked() {
        let m = Matrix::zero(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // First pivot position is zero; inversion must row-swap.
        let mut m = Matrix::identity(3);
        m.swap_rows(0, 2);
        let inv = m.inverted().unwrap();
        assert_eq!(m.multiply(&inv), Matrix::identity(3));
    }

    #[test]
    fn debug_renders() {
        let m = Matrix::identity(2);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 2x2"));
    }
}
