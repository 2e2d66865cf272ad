//! Sparse (CSC) genotype storage and the sparsity-aware scan kernel.
//!
//! §2: "the columns of X can be packed sparsely so that the flop count
//! for QᵀX is reduced in proportion to the sparsity of X." Centered
//! rare-variant dosages are mostly the constant `−mean`; storing each
//! column as (nonzero offsets from a per-column fill value) makes every
//! scan dot product O(nnz) instead of O(N).

use crate::error::GwasError;
use dash_core::suffstats::ScanStats;
use dash_linalg::{dot, gemv_t, self_dot, Matrix};

/// Compressed sparse column matrix with a per-column fill value:
/// `A[i, j] = fill[j]` except at the stored `(row, value)` pairs.
///
/// The fill generalization matters for GWAS: a *centered* genotype
/// column is `fill = −mean` almost everywhere, with sparse deviations —
/// plain CSC (fill 0) would lose all sparsity after centering.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
    fill: Vec<f64>,
}

impl SparseMatrix {
    /// Builds from a dense matrix, treating entries equal to the
    /// per-column majority fill value (here: the most common value,
    /// approximated by 0 for raw dosages) as implicit.
    ///
    /// `fill[j]` is taken as `fill_value` for every column.
    pub fn from_dense(dense: &Matrix, fill_value: f64) -> Result<Self, GwasError> {
        if dense.rows() > u32::MAX as usize {
            return Err(GwasError::ShapeMismatch {
                what: "sparse row index width",
                expected: u32::MAX as usize,
                got: dense.rows(),
            });
        }
        let mut col_ptr = Vec::with_capacity(dense.cols() + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0);
        for j in 0..dense.cols() {
            for (i, &v) in dense.col(j).iter().enumerate() {
                if v != fill_value {
                    row_idx.push(i as u32);
                    values.push(v);
                }
            }
            col_ptr.push(row_idx.len());
        }
        Ok(SparseMatrix {
            rows: dense.rows(),
            col_ptr,
            row_idx,
            values,
            fill: vec![fill_value; dense.cols()],
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.fill.len()
    }

    /// Stored (explicit) entries in column `j`.
    pub fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// Total stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries stored explicitly (1.0 = dense).
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols() == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.rows * self.cols()) as f64
    }

    /// Dot of column `j` with a dense vector: `Σᵢ A[i,j]·v[i]` =
    /// `fill·Σv + Σ_stored (value − fill)·v[row]`.
    pub fn col_dot(&self, j: usize, v: &[f64], v_sum: f64) -> f64 {
        debug_assert_eq!(v.len(), self.rows);
        let fill = self.fill[j];
        let mut acc = fill * v_sum;
        for idx in self.col_ptr[j]..self.col_ptr[j + 1] {
            let r = self.row_idx[idx] as usize;
            acc += (self.values[idx] - fill) * v[r];
        }
        acc
    }

    /// Self-dot of column `j`.
    pub fn col_self_dot(&self, j: usize) -> f64 {
        let fill = self.fill[j];
        let nnz = self.col_nnz(j);
        let mut acc = fill * fill * (self.rows - nnz) as f64;
        for idx in self.col_ptr[j]..self.col_ptr[j + 1] {
            acc += self.values[idx] * self.values[idx];
        }
        acc
    }

    /// Densifies one column (for testing and fallback paths).
    pub fn col_dense(&self, j: usize) -> Vec<f64> {
        let mut out = vec![self.fill[j]; self.rows];
        for idx in self.col_ptr[j]..self.col_ptr[j + 1] {
            out[self.row_idx[idx] as usize] = self.values[idx];
        }
        out
    }
}

/// Computes the reduced scan statistics with sparse X: every per-variant
/// dot costs O(nnz_j + K) instead of O(N·K).
///
/// Precomputes `Σᵢ y[i]` and the column sums of `Q` once, so the
/// fill-value contribution of each column is O(K).
pub fn sparse_scan_stats(y: &[f64], x: &SparseMatrix, q: &Matrix) -> Result<ScanStats, GwasError> {
    if x.rows() != y.len() || q.rows() != y.len() {
        return Err(GwasError::ShapeMismatch {
            what: "sparse_scan_stats rows",
            expected: y.len(),
            got: if x.rows() != y.len() {
                x.rows()
            } else {
                q.rows()
            },
        });
    }
    let m = x.cols();
    let k = q.cols();
    let yy = self_dot(y);
    let qty = gemv_t(q, y).expect("shape checked above");
    let qtyqty = self_dot(&qty);
    let y_sum: f64 = y.iter().sum();
    let q_col_sums: Vec<f64> = (0..k).map(|i| q.col(i).iter().sum()).collect();

    let mut xy = Vec::with_capacity(m);
    let mut xx = Vec::with_capacity(m);
    let mut qtxqty = Vec::with_capacity(m);
    let mut qtxqtx = Vec::with_capacity(m);
    let mut qtx_col = vec![0.0; k];
    for j in 0..m {
        xy.push(x.col_dot(j, y, y_sum));
        xx.push(x.col_self_dot(j));
        for (i, out) in qtx_col.iter_mut().enumerate() {
            *out = x.col_dot(j, q.col(i), q_col_sums[i]);
        }
        qtxqty.push(dot(&qtx_col, &qty));
        qtxqtx.push(self_dot(&qtx_col));
    }
    Ok(ScanStats {
        yy,
        xy,
        xx,
        qtyqty,
        qtxqty,
        qtxqtx,
    })
}

/// The additive sufficient statistics (the secure scan's summand layer)
/// computed from sparse X: O(nnz + K) per column.
pub fn sparse_suffstats(
    y: &[f64],
    x: &SparseMatrix,
    q: &Matrix,
) -> Result<dash_core::suffstats::SuffStats, GwasError> {
    if x.rows() != y.len() || q.rows() != y.len() {
        return Err(GwasError::ShapeMismatch {
            what: "sparse_suffstats rows",
            expected: y.len(),
            got: if x.rows() != y.len() {
                x.rows()
            } else {
                q.rows()
            },
        });
    }
    let m = x.cols();
    let k = q.cols();
    let yy = self_dot(y);
    let qty = gemv_t(q, y).expect("shape checked above");
    let y_sum: f64 = y.iter().sum();
    let q_col_sums: Vec<f64> = (0..k).map(|i| q.col(i).iter().sum()).collect();
    let mut xy = Vec::with_capacity(m);
    let mut xx = Vec::with_capacity(m);
    let mut qtx = Matrix::zeros(k, m);
    for j in 0..m {
        xy.push(x.col_dot(j, y, y_sum));
        xx.push(x.col_self_dot(j));
        let col = qtx.col_mut(j);
        for (i, out) in col.iter_mut().enumerate() {
            *out = x.col_dot(j, q.col(i), q_col_sums[i]);
        }
    }
    Ok(dash_core::suffstats::SuffStats {
        yy,
        xy,
        xx,
        qty,
        qtx,
    })
}

/// A party whose genotype matrix lives in sparse storage — plugs straight
/// into [`dash_core::secure::secure_scan`], so rare-variant cohorts
/// pay O(nnz) local compute inside the secure protocol (§2's sparse
/// packing combined with §3's security).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseParty {
    y: Vec<f64>,
    x: SparseMatrix,
    c: Matrix,
}

impl SparseParty {
    /// Validates shapes.
    pub fn new(y: Vec<f64>, x: SparseMatrix, c: Matrix) -> Result<Self, GwasError> {
        if x.rows() != y.len() || c.rows() != y.len() {
            return Err(GwasError::ShapeMismatch {
                what: "SparseParty rows",
                expected: y.len(),
                got: if x.rows() != y.len() {
                    x.rows()
                } else {
                    c.rows()
                },
            });
        }
        Ok(SparseParty { y, x, c })
    }

    /// The sparse variant storage.
    pub fn x(&self) -> &SparseMatrix {
        &self.x
    }
}

impl dash_core::secure::SummandSource for SparseParty {
    fn n_samples(&self) -> usize {
        self.y.len()
    }
    fn n_variants(&self) -> usize {
        self.x.cols()
    }
    fn covariates(&self) -> &Matrix {
        &self.c
    }
    fn summands(
        &self,
        q: &Matrix,
    ) -> Result<dash_core::suffstats::SuffStats, dash_core::CoreError> {
        sparse_suffstats(&self.y, &self.x, q).map_err(|_| dash_core::CoreError::ShapeMismatch {
            what: "sparse summands",
            expected: self.y.len(),
            got: q.rows(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_core::suffstats::{orthonormal_basis, SuffStats};

    fn toy_dense(n: usize, m: usize, sparsity: f64, seed: u64) -> Matrix {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        Matrix::from_fn(n, m, |_, _| {
            if next() < sparsity {
                (next() * 2.0).ceil() // 1.0 or 2.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn roundtrip_through_dense() {
        let dense = toy_dense(20, 5, 0.2, 1);
        let sparse = SparseMatrix::from_dense(&dense, 0.0).unwrap();
        assert_eq!(sparse.rows(), 20);
        assert_eq!(sparse.cols(), 5);
        for j in 0..5 {
            assert_eq!(sparse.col_dense(j), dense.col(j));
        }
    }

    #[test]
    fn density_reflects_sparsity() {
        let dense = toy_dense(500, 20, 0.1, 2);
        let sparse = SparseMatrix::from_dense(&dense, 0.0).unwrap();
        assert!(sparse.density() < 0.25, "density {}", sparse.density());
        assert!(sparse.density() > 0.02);
        assert_eq!(
            sparse.nnz(),
            (0..20).map(|j| sparse.col_nnz(j)).sum::<usize>()
        );
    }

    #[test]
    fn dots_match_dense() {
        let dense = toy_dense(50, 4, 0.3, 3);
        let sparse = SparseMatrix::from_dense(&dense, 0.0).unwrap();
        let v: Vec<f64> = (0..50).map(|i| (i as f64 * 0.7).sin()).collect();
        let v_sum: f64 = v.iter().sum();
        for j in 0..4 {
            let expect = dot(dense.col(j), &v);
            assert!(
                (sparse.col_dot(j, &v, v_sum) - expect).abs() < 1e-10,
                "j={j}"
            );
            let expect_ss = self_dot(dense.col(j));
            assert!((sparse.col_self_dot(j) - expect_ss).abs() < 1e-10);
        }
    }

    #[test]
    fn nonzero_fill_value() {
        // Centered column: fill = -0.5 everywhere except stored entries.
        let col = vec![-0.5, 1.5, -0.5, -0.5, 0.5];
        let dense = Matrix::from_cols(&[&col]).unwrap();
        let sparse = SparseMatrix::from_dense(&dense, -0.5).unwrap();
        assert_eq!(sparse.col_nnz(0), 2);
        assert_eq!(sparse.col_dense(0), col);
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        let v_sum = 15.0;
        assert!((sparse.col_dot(0, &v, v_sum) - dot(&col, &v)).abs() < 1e-12);
        assert!((sparse.col_self_dot(0) - self_dot(&col)).abs() < 1e-12);
    }

    #[test]
    fn sparse_scan_matches_dense_scan() {
        let n = 60;
        let dense = toy_dense(n, 8, 0.15, 4);
        let mut s = 5u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let y: Vec<f64> = (0..n).map(|_| next()).collect();
        let c = Matrix::from_fn(n, 2, |_, _| next());
        let q = orthonormal_basis(&c).unwrap();

        let sparse = SparseMatrix::from_dense(&dense, 0.0).unwrap();
        let via_sparse = sparse_scan_stats(&y, &sparse, &q).unwrap();
        let via_dense = SuffStats::local(&y, &dense, &q).unwrap().reduce();
        assert!((via_sparse.yy - via_dense.yy).abs() < 1e-10);
        for j in 0..8 {
            assert!((via_sparse.xy[j] - via_dense.xy[j]).abs() < 1e-9, "xy[{j}]");
            assert!((via_sparse.xx[j] - via_dense.xx[j]).abs() < 1e-9);
            assert!((via_sparse.qtxqty[j] - via_dense.qtxqty[j]).abs() < 1e-9);
            assert!((via_sparse.qtxqtx[j] - via_dense.qtxqtx[j]).abs() < 1e-9);
        }
        // Full pipeline: same final statistics.
        let res_sparse = via_sparse.finalize(n, 2).unwrap();
        let res_dense = via_dense.finalize(n, 2).unwrap();
        assert!(res_sparse.max_rel_diff(&res_dense).unwrap() < 1e-9);
    }

    #[test]
    fn sparse_suffstats_match_dense() {
        let n = 40;
        let dense = toy_dense(n, 5, 0.2, 9);
        let mut s = 11u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let y: Vec<f64> = (0..n).map(|_| next()).collect();
        let c = Matrix::from_fn(n, 2, |_, _| next());
        let q = orthonormal_basis(&c).unwrap();
        let sparse = SparseMatrix::from_dense(&dense, 0.0).unwrap();
        let sp = sparse_suffstats(&y, &sparse, &q).unwrap();
        let dn = SuffStats::local(&y, &dense, &q).unwrap();
        assert!((sp.yy - dn.yy).abs() < 1e-10);
        assert!(sp.qtx.max_abs_diff(&dn.qtx).unwrap() < 1e-9);
        for j in 0..5 {
            assert!((sp.xy[j] - dn.xy[j]).abs() < 1e-9);
        }
    }

    #[test]
    fn sparse_party_secure_scan_matches_dense_secure_scan() {
        use dash_core::model::PartyData;
        use dash_core::secure::{secure_scan, SecureScanConfig};
        let mut s = 21u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut dense_parties = Vec::new();
        let mut sparse_parties = Vec::new();
        for (n, seed) in [(30usize, 31u64), (40, 32)] {
            let x = toy_dense(n, 8, 0.15, seed);
            let y: Vec<f64> = (0..n).map(|_| next()).collect();
            let c = Matrix::from_fn(n, 2, |_, _| next());
            sparse_parties.push(
                SparseParty::new(
                    y.clone(),
                    SparseMatrix::from_dense(&x, 0.0).unwrap(),
                    c.clone(),
                )
                .unwrap(),
            );
            dense_parties.push(PartyData::new(y, x, c).unwrap());
        }
        let cfg = SecureScanConfig::paper_default(3);
        let dense_out = secure_scan(&dense_parties, &cfg).unwrap();
        let sparse_out = secure_scan(&sparse_parties, &cfg).unwrap();
        let d = sparse_out.result.max_rel_diff(&dense_out.result).unwrap();
        assert!(d < 1e-9, "sparse vs dense secure scan: {d}");
    }

    #[test]
    fn sparse_party_validation() {
        let dense = toy_dense(6, 2, 0.5, 1);
        let sp = SparseMatrix::from_dense(&dense, 0.0).unwrap();
        assert!(SparseParty::new(vec![0.0; 5], sp.clone(), Matrix::zeros(6, 1)).is_err());
        assert!(SparseParty::new(vec![0.0; 6], sp.clone(), Matrix::zeros(5, 1)).is_err());
        assert!(SparseParty::new(vec![0.0; 6], sp, Matrix::zeros(6, 1)).is_ok());
    }

    #[test]
    fn shape_errors() {
        let dense = toy_dense(10, 2, 0.5, 6);
        let sparse = SparseMatrix::from_dense(&dense, 0.0).unwrap();
        let y = vec![0.0; 9];
        let q = Matrix::zeros(10, 1);
        assert!(sparse_scan_stats(&y, &sparse, &q).is_err());
        let y10 = vec![0.0; 10];
        let q9 = Matrix::zeros(9, 1);
        assert!(sparse_scan_stats(&y10, &sparse, &q9).is_err());
    }

    #[test]
    fn empty_matrix() {
        let dense = Matrix::zeros(0, 0);
        let sparse = SparseMatrix::from_dense(&dense, 0.0).unwrap();
        assert_eq!(sparse.density(), 0.0);
        assert_eq!(sparse.nnz(), 0);
    }
}
