//! Dense matrices over GF(2^8) — just enough linear algebra for
//! Reed–Solomon: construction, multiplication, and Gauss–Jordan inversion.

use crate::gf256;

/// A row-major matrix over GF(2^8).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// Vandermonde matrix with evaluation points `0, 1, …, rows-1`:
    /// `V[r][c] = r^c`. Any `cols` distinct rows are linearly independent,
    /// which is the MDS property Reed–Solomon relies on.
    pub fn vandermonde(rows: usize, cols: usize) -> Self {
        assert!(rows <= 256, "GF(256) supports at most 256 distinct points");
        let mut m = Matrix::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = gf256::pow(r as u8, c as u32);
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

    /// Borrow of row `r`.
    pub fn row(&self, r: usize) -> &[u8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Rows `r..` as one row-major slice.
    pub fn rows_from(&self, r: usize) -> &[u8] {
        &self.data[r * self.cols..]
    }

    /// Builds a new matrix from a subset of this one's rows.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut m = Matrix::zero(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            let dst = i * self.cols;
            m.data[dst..dst + self.cols].copy_from_slice(self.row(r));
        }
        m
    }

    /// Matrix product `self × rhs`.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "shape mismatch");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] ^= gf256::mul(a, rhs[(k, j)]);
                }
            }
        }
        out
    }

    /// Gauss–Jordan inversion. Returns `None` for singular matrices.
    pub fn inverse(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "only square matrices invert");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Find a pivot.
            let pivot = (col..n).find(|&r| a[(r, col)] != 0)?;
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            // Normalize the pivot row.
            let p = a[(col, col)];
            let pinv = gf256::inv(p);
            a.scale_row(col, pinv);
            inv.scale_row(col, pinv);
            // Eliminate the column everywhere else.
            for r in 0..n {
                if r != col && a[(r, col)] != 0 {
                    let factor = a[(r, col)];
                    a.add_scaled_row(r, col, factor);
                    inv.add_scaled_row(r, col, factor);
                }
            }
        }
        Some(inv)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (a, b) = (a.min(b), a.max(b));
        let (top, bottom) = self.data.split_at_mut(b * self.cols);
        top[a * self.cols..(a + 1) * self.cols].swap_with_slice(&mut bottom[..self.cols]);
    }

    fn scale_row(&mut self, r: usize, c: u8) {
        for v in &mut self.data[r * self.cols..(r + 1) * self.cols] {
            *v = gf256::mul(*v, c);
        }
    }

    /// `row[dst] ^= c · row[src]`.
    fn add_scaled_row(&mut self, dst: usize, src: usize, c: u8) {
        for j in 0..self.cols {
            let s = self[(src, j)];
            self[(dst, j)] ^= gf256::mul(c, s);
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = u8;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &u8 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut u8 {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_multiplicative_unit() {
        let v = Matrix::vandermonde(5, 5);
        let i = Matrix::identity(5);
        assert_eq!(v.mul(&i), v);
        assert_eq!(i.mul(&v), v);
    }

    #[test]
    fn inverse_times_self_is_identity() {
        let v = Matrix::vandermonde(6, 6);
        let vi = v.inverse().expect("vandermonde is invertible");
        assert_eq!(v.mul(&vi), Matrix::identity(6));
        assert_eq!(vi.mul(&v), Matrix::identity(6));
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let mut m = Matrix::zero(3, 3);
        // Two identical rows.
        for j in 0..3 {
            m[(0, j)] = j as u8 + 1;
            m[(1, j)] = j as u8 + 1;
            m[(2, j)] = 7;
        }
        assert!(m.inverse().is_none());
    }

    #[test]
    fn any_square_vandermonde_row_subset_is_invertible() {
        // The MDS property: every k-row subset must invert.
        let v = Matrix::vandermonde(8, 4);
        // Try a handful of 4-row subsets including adversarial ones.
        for rows in [
            [0usize, 1, 2, 3],
            [4, 5, 6, 7],
            [0, 3, 5, 7],
            [1, 2, 4, 6],
            [0, 1, 6, 7],
        ] {
            assert!(
                v.select_rows(&rows).inverse().is_some(),
                "rows {rows:?} must be independent"
            );
        }
    }

    #[test]
    fn select_rows_extracts_expected_values() {
        let v = Matrix::vandermonde(4, 3);
        let s = v.select_rows(&[2, 0]);
        assert_eq!(s.row(0), v.row(2));
        assert_eq!(s.row(1), v.row(0));
    }
}
