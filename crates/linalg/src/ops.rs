//! Level-1/2/3 kernels used by the scan.
//!
//! [`dot`] fixes the summation order every product in the workspace
//! reproduces. A single `dot` is bound by the latency of its four lane
//! additions, not by reading memory, so the many-dots product [`gemm_at_b`]
//! runs on the register-blocked [`DotPanel`] kernel, which keeps `dot`'s
//! arithmetic bit for bit.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::panel::DotPanel;

/// Dot product of two equal-length slices.
///
/// Accumulates in four independent partial sums so the loop pipelines well
/// and the result is deterministic for a given input (unlike a parallel
/// reduction).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let n = a.len();
    let chunks = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..chunks {
        let j = i * 4;
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
    }
    let mut tail = 0.0;
    for j in chunks * 4..n {
        tail += a[j] * b[j];
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// `x · x` — the paper's `dot(x)` helper from the R demo.
#[inline]
pub fn self_dot(a: &[f64]) -> f64 {
    dot(a, a)
}

/// `y ← y + alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Dense matrix–vector product `A v` (`A` is rows×cols, `v` has len cols).
///
/// Walks `A` column by column (its contiguous direction) accumulating
/// `Σ_j v_j A_:,j`.
pub fn gemv(a: &Matrix, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
    if v.len() != a.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "gemv",
            lhs: a.shape(),
            rhs: (v.len(), 1),
        });
    }
    let mut out = vec![0.0; a.rows()];
    for (j, &vj) in v.iter().enumerate() {
        if vj != 0.0 {
            axpy(vj, a.col(j), &mut out);
        }
    }
    Ok(out)
}

/// Transposed matrix–vector product `Aᵀ v` (`v` has len rows).
///
/// Each output element is a dot with a contiguous column — this is the
/// `Qᵀy` / `QᵀX_m` kernel at the heart of the scan.
pub fn gemv_t(a: &Matrix, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
    if v.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "gemv_t",
            lhs: a.shape(),
            rhs: (v.len(), 1),
        });
    }
    Ok((0..a.cols()).map(|j| dot(a.col(j), v)).collect())
}

/// `AᵀB` for column-major `A` (n×k) and `B` (n×m), producing k×m.
///
/// Entry `(i, j)` is bit-identical to `dot(a.col(i), b.col(j))`. The
/// narrower operand is packed into a [`DotPanel`], so the copy is bounded
/// by it, and each column of the other is read once per group of four
/// packed columns; for the scan's `QᵀX` (k small, m large) that reads `X`
/// once.
pub fn gemm_at_b(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    if a.rows() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "gemm_at_b",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let k = a.cols();
    let m = b.cols();
    let mut out = Matrix::zeros(k, m);
    if k <= m {
        let panel = DotPanel::new(a.rows(), (0..k).map(|i| a.col(i)))?;
        for j in 0..m {
            panel.dots(b.col(j), out.col_mut(j));
        }
    } else {
        let panel = DotPanel::new(b.rows(), (0..m).map(|j| b.col(j)))?;
        let mut row = vec![0.0; m];
        for i in 0..k {
            panel.dots(a.col(i), &mut row);
            for (j, &v) in row.iter().enumerate() {
                out.set(i, j, v);
            }
        }
    }
    Ok(out)
}

/// General product `A B` (rows_a×cols_a times cols_a×cols_b).
pub fn gemm(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    if a.cols() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "gemm",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for j in 0..b.cols() {
        let bj = b.col(j);
        let oj = out.col_mut(j);
        for (l, &blj) in bj.iter().enumerate() {
            if blj != 0.0 {
                axpy(blj, a.col(l), oj);
            }
        }
    }
    Ok(out)
}

/// Frobenius norm.
pub fn frobenius_norm(a: &Matrix) -> f64 {
    self_dot(a.as_slice()).sqrt()
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    self_dot(a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn dot_matches_naive_all_lengths() {
        // Cover every tail length of the 4-way unrolled loop.
        for n in 0..13 {
            let a: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 1.0).collect();
            let b: Vec<f64> = (0..n).map(|i| 2.0 - i as f64).collect();
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!(approx(dot(&a, &b), naive, 1e-12), "n={n}");
        }
    }

    #[test]
    fn axpy_basic() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn gemv_and_gemv_t_agree_with_definition() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let av = gemv(&a, &[1.0, -1.0]).unwrap();
        assert_eq!(av, vec![-1.0, -1.0, -1.0]);
        let atv = gemv_t(&a, &[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(atv, vec![-4.0, -4.0]);
    }

    #[test]
    fn gemv_shape_checked() {
        let a = Matrix::zeros(3, 2);
        assert!(gemv(&a, &[0.0; 3]).is_err());
        assert!(gemv_t(&a, &[0.0; 2]).is_err());
    }

    #[test]
    fn gemm_at_b_matches_transpose_gemm() {
        let a = Matrix::from_fn(4, 2, |r, c| (r + c) as f64);
        let b = Matrix::from_fn(4, 3, |r, c| (r as f64) - (c as f64));
        let fast = gemm_at_b(&a, &b).unwrap();
        let slow = gemm(&a.transpose(), &b).unwrap();
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-12);
    }

    #[test]
    fn gemm_identity_is_noop() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let i = Matrix::identity(3);
        assert!(gemm(&a, &i).unwrap().max_abs_diff(&a).unwrap() < 1e-15);
        assert!(gemm(&i, &a).unwrap().max_abs_diff(&a).unwrap() < 1e-15);
    }

    #[test]
    fn gemm_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(gemm(&a, &b).is_err());
        assert!(gemm_at_b(&a, &Matrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn frobenius_of_identity() {
        assert!(approx(frobenius_norm(&Matrix::identity(4)), 2.0, 1e-15));
    }

    #[test]
    fn norm2_pythagoras() {
        assert!(approx(norm2(&[3.0, 4.0]), 5.0, 1e-15));
    }
}
