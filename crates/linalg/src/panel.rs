//! The packed `Vᵀ·x` kernel behind the scan's `[y | Q]ᵀ·X` and [`gemm_at_b`].
//!
//! [`dot`] keeps four lane accumulators for one pair of vectors, so a
//! product against K+2 vectors walks the column K+2 times and each walk is
//! bound by the latency of its four additions. [`DotPanel`] packs the fixed
//! side once and computes four vectors' dots per walk: sixteen
//! independent accumulators, plus four more for `x·x` on the first walk.
//!
//! Every output keeps exactly [`dot`]'s arithmetic — the same products
//! (`a·b == b·a` in IEEE 754) added into the same lane in the same row
//! order, the same `(s0 + s1) + (s2 + s3) + tail` reduction, the same
//! scalar tail — so results are bit-identical to per-pair `dot` calls.
//!
//! [`dot`]: crate::ops::dot
//! [`gemm_at_b`]: crate::ops::gemm_at_b

use crate::error::LinalgError;

/// Accumulator lanes per dot, as in [`crate::ops::dot`]: rows per chunk.
const LANES: usize = 4;
/// Vectors per register block.
const GROUP: usize = 4;
/// Panel entries per 4-row chunk of one group.
const CHUNK: usize = LANES * GROUP;

/// A set of equal-length vectors packed for [`DotPanel::dots`].
///
/// Layout: vectors in groups of [`GROUP`]; a group is ⌊rows/4⌋ + 1 chunks
/// of 16 entries, chunk `c` holding rows `4c..4c+4` of each of the group's
/// vectors (vector-major, then lane). The last chunk holds the `rows % 4`
/// tail rows. Missing vectors and tail rows are zero; they are never read
/// into a reported sum.
#[derive(Debug, Clone)]
pub struct DotPanel {
    rows: usize,
    width: usize,
    data: Vec<f64>,
}

impl DotPanel {
    /// Packs `vectors`, each of length `rows`.
    pub fn new<'a>(
        rows: usize,
        vectors: impl IntoIterator<Item = &'a [f64]>,
    ) -> Result<Self, LinalgError> {
        let vectors: Vec<&[f64]> = vectors.into_iter().collect();
        if let Some(v) = vectors.iter().find(|v| v.len() != rows) {
            return Err(LinalgError::DimensionMismatch {
                op: "DotPanel::new",
                lhs: (rows, vectors.len()),
                rhs: (v.len(), 1),
            });
        }
        let stride = group_stride(rows);
        let mut data = vec![0.0; vectors.len().div_ceil(GROUP) * stride];
        for (group, members) in data.chunks_exact_mut(stride).zip(vectors.chunks(GROUP)) {
            for (slot, v) in members.iter().enumerate() {
                for (chunk, rows4) in group.chunks_exact_mut(CHUNK).zip(v.chunks(LANES)) {
                    chunk[slot * LANES..][..rows4.len()].copy_from_slice(rows4);
                }
            }
        }
        Ok(DotPanel {
            rows,
            width: vectors.len(),
            data,
        })
    }

    /// Writes `out[i] = dot(v_i, col)` for every packed vector and returns
    /// `self_dot(col)`, all bit-identical to [`crate::ops::dot`].
    ///
    /// One pass over `col` per group of four vectors; `col·col` rides on
    /// the first pass.
    ///
    /// # Panics
    ///
    /// If `col` does not have the packed vectors' length or `out` does not
    /// have one entry per packed vector.
    pub fn dots(&self, col: &[f64], out: &mut [f64]) -> f64 {
        assert_eq!(col.len(), self.rows, "DotPanel::dots: column length");
        assert_eq!(out.len(), self.width, "DotPanel::dots: output length");
        let (body, tail) = col.as_chunks::<LANES>();
        let stride = group_stride(self.rows);
        let mut groups = self.data.chunks_exact(stride).zip(out.chunks_mut(GROUP));
        let Some((first, out0)) = groups.next() else {
            return crate::ops::self_dot(col);
        };
        let (sums, col_sq) = group_pass::<true>(first, body, tail);
        out0.copy_from_slice(&sums[..out0.len()]);
        for (group, out_g) in groups {
            let (sums, _) = group_pass::<false>(group, body, tail);
            out_g.copy_from_slice(&sums[..out_g.len()]);
        }
        col_sq
    }
}

/// Entries per group: ⌊rows/4⌋ full chunks plus the tail chunk.
fn group_stride(rows: usize) -> usize {
    (rows / LANES + 1) * CHUNK
}

/// One walk over the column against one packed group. Returns the group's
/// four dots and, when `SQ`, the column's self dot (else 0).
#[inline(always)]
fn group_pass<const SQ: bool>(
    group: &[f64],
    body: &[[f64; LANES]],
    tail: &[f64],
) -> ([f64; GROUP], f64) {
    let (chunks, _) = group.as_chunks::<CHUNK>();
    let Some((tail_chunk, chunks)) = chunks.split_last() else {
        return ([0.0; GROUP], 0.0);
    };
    let mut acc = [[0.0f64; LANES]; GROUP];
    let mut sq = [0.0f64; LANES];
    for (p, x) in chunks.iter().zip(body) {
        for (v, acc_v) in acc.iter_mut().enumerate() {
            for (l, a) in acc_v.iter_mut().enumerate() {
                *a += p[v * LANES + l] * x[l];
            }
        }
        if SQ {
            for (s, &xl) in sq.iter_mut().zip(x) {
                *s += xl * xl;
            }
        }
    }
    let mut sums = [0.0; GROUP];
    for (v, (sum, a)) in sums.iter_mut().zip(&acc).enumerate() {
        let mut t = 0.0;
        for (&p, &x) in tail_chunk[v * LANES..].iter().zip(tail) {
            t += p * x;
        }
        *sum = (a[0] + a[1]) + (a[2] + a[3]) + t;
    }
    let col_sq = if SQ {
        let mut t = 0.0;
        for &x in tail {
            t += x * x;
        }
        (sq[0] + sq[1]) + (sq[2] + sq[3]) + t
    } else {
        0.0
    };
    (sums, col_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ragged_vectors_rejected() {
        let short = [1.0, 2.0];
        let long = [1.0, 2.0, 3.0];
        assert!(DotPanel::new(3, [&long[..], &short[..]]).is_err());
    }
}
