//! Dense row-major `f32` matrix.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Keys per output tile of [`Matrix::matmul_transposed`].
const KEY_TILE: usize = 8;

/// A dense row-major matrix of `f32` values.
///
/// This is the single tensor type used across the whole V-Rex
/// reproduction. It is intentionally simple: owned storage, eager
/// operations, no views. Model dimensions in tests and functional
/// experiments are small enough that clarity wins over absolute speed,
/// while the benchmark harness exercises the O(n·m·k) kernels directly.
/// The one tuned kernel is the `Q · Kᵀ` score product
/// ([`Matrix::matmul_transposed`]) behind every attention and ReSV
/// cluster score; it stays bit-identical to the scalar loop.
///
/// # Examples
///
/// ```
/// use vrex_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m[(1, 2)], 6.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// # use vrex_tensor::Matrix;
    /// let z = Matrix::zeros(2, 3);
    /// assert_eq!(z.data().iter().sum::<f32>(), 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from an owned buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "inconsistent row length");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
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

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterates over the rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Returns a new matrix containing the given rows, in order.
    ///
    /// Used by retrieval policies to gather selected KV entries.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Appends the rows of `other` below `self`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn append_rows(&mut self, other: &Matrix) {
        if self.rows == 0 && self.cols == 0 {
            *self = other.clone();
            return;
        }
        assert_eq!(self.cols, other.cols, "column mismatch in append_rows");
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix product against the transpose of `other`: `self · otherᵀ`.
    ///
    /// This is the attention-score kernel (`Q · Kᵀ`); it avoids
    /// materialising the transpose. Outputs are computed a tile of eight
    /// keys at a time so their dependency chains overlap, but each output
    /// is still one dot product summed in ascending-`k` order without
    /// fused multiply-adds: results are bit-identical to the scalar loop.
    /// With several query rows, each tile of keys is first copied
    /// `k`-major so one step of `k` updates the whole tile's outputs of a
    /// row together; a single row reads the keys in place instead, as it
    /// cannot amortise the copy.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transposed(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transposed dimension mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        let (k, n) = (self.cols, other.rows);
        if self.rows == 0 || k == 0 || n == 0 {
            return out;
        }
        let tiles = other.data.chunks_exact(KEY_TILE * k);
        let rest = tiles.remainder();
        if self.rows == 1 {
            let a_row = self.row(0);
            for (o, keys) in out.data.chunks_exact_mut(KEY_TILE).zip(tiles) {
                let mut acc = [0.0f32; KEY_TILE];
                let b: [&[f32]; KEY_TILE] = std::array::from_fn(|l| &keys[l * k..(l + 1) * k]);
                for (kk, &a) in a_row.iter().enumerate() {
                    for (acc, b) in acc.iter_mut().zip(b) {
                        *acc += a * b[kk];
                    }
                }
                o.copy_from_slice(&acc);
            }
        } else {
            let mut tile = vec![0.0f32; KEY_TILE * k];
            for (t, keys) in tiles.enumerate() {
                for (l, key) in keys.chunks_exact(k).enumerate() {
                    for (kk, &v) in key.iter().enumerate() {
                        tile[kk * KEY_TILE + l] = v;
                    }
                }
                for (a_row, out_row) in self.iter_rows().zip(out.data.chunks_exact_mut(n)) {
                    let mut acc = [0.0f32; KEY_TILE];
                    for (&a, b) in a_row.iter().zip(tile.chunks_exact(KEY_TILE)) {
                        for (acc, &b) in acc.iter_mut().zip(b) {
                            *acc += a * b;
                        }
                    }
                    out_row[t * KEY_TILE..(t + 1) * KEY_TILE].copy_from_slice(&acc);
                }
            }
        }
        // Keys past the last full tile: one dot product at a time.
        let first_rest = n - rest.len() / k;
        for (a_row, out_row) in self.iter_rows().zip(out.data.chunks_exact_mut(n)) {
            for (o, b_row) in out_row[first_rest..].iter_mut().zip(rest.chunks_exact(k)) {
                let mut acc = 0.0;
                for (a, b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
        out
    }

    /// Returns the transposed matrix.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_in_place(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns a copy with every element multiplied by `s`.
    pub fn scaled(&self, s: f32) -> Matrix {
        let mut m = self.clone();
        m.scale_in_place(s);
        m
    }

    /// Mean of all elements; `0.0` for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Largest absolute element-wise difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.rows, other.rows, "shape mismatch");
        assert_eq!(self.cols, other.cols, "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "shape mismatch in add");
        assert_eq!(self.cols, rhs.cols, "shape mismatch in add");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "shape mismatch in sub");
        assert_eq!(self.cols, rhs.cols, "shape mismatch in sub");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f32) -> Matrix {
        self.scaled(s)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_round_trips_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.5, -2.0, 0.25], &[0.0, 3.0, 9.0]]);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
    }

    #[test]
    fn matmul_transposed_equals_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5, -1.0], &[2.0, 2.0, 2.0]]);
        let via_t = a.matmul(&b.transposed());
        let fused = a.matmul_transposed(&b);
        assert!(via_t.max_abs_diff(&fused) < 1e-6);
    }

    #[test]
    fn gather_rows_selects_in_order() {
        let m = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0], &[2.0, 2.0]]);
        let g = m.gather_rows(&[2, 0]);
        assert_eq!(g, Matrix::from_rows(&[&[2.0, 2.0], &[0.0, 0.0]]));
    }

    #[test]
    fn append_rows_grows_matrix() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0]]);
        m.append_rows(&Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]));
        assert_eq!(m.rows(), 3);
        assert_eq!(m.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn append_rows_into_empty_adopts_shape() {
        let mut m = Matrix::default();
        m.append_rows(&Matrix::from_rows(&[&[9.0, 8.0, 7.0]]));
        assert_eq!((m.rows(), m.cols()), (1, 3));
    }

    #[test]
    fn add_sub_are_elementwise() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[11.0, 22.0]]));
        assert_eq!(&b - &a, Matrix::from_rows(&[&[9.0, 18.0]]));
    }

    #[test]
    fn frobenius_norm_of_unit_axes() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn transposed_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn debug_is_never_empty() {
        let s = format!("{:?}", Matrix::zeros(0, 0));
        assert!(!s.is_empty());
    }
}
