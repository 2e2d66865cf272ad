//! Multi-threaded association scan.
//!
//! Step 3 of the paper's algorithm is embarrassingly parallel over the
//! columns of X ("we assume the columns of X are distributed across
//! machines with C total cores"); this module distributes contiguous
//! column blocks over OS threads. Steps 1–2 (Q, the y-side statistics) are
//! O(NK²) and computed once up front.

use crate::error::CoreError;
use crate::model::{PartyData, ScanResult};
use crate::suffstats::{orthonormal_basis, ScanStats, VariantSummands};
use dash_linalg::{dot, gemv_t, self_dot, Matrix};
use std::thread::ScopedJoinHandle;

/// Per-variant statistics for a block of columns.
struct BlockStats {
    lo: usize,
    xy: Vec<f64>,
    xx: Vec<f64>,
    qtxqty: Vec<f64>,
    qtxqtx: Vec<f64>,
}

/// Computes the per-variant statistics for columns `[lo, hi)`.
///
/// The block's summands come from [`VariantSummands::local`] — the packed
/// kernel of the serial and secure scans, so each column's dots are the
/// serial path's bit for bit — then each `QᵀX` column is reduced against
/// `Qᵀy` as [`crate::suffstats::SuffStats::reduce`] does.
fn scan_block(
    y: &[f64],
    x: &Matrix,
    q: &Matrix,
    qty: &[f64],
    lo: usize,
    hi: usize,
) -> Result<BlockStats, CoreError> {
    let VariantSummands { xy, xx, qtx, .. } = VariantSummands::local(y, x, q, lo, hi)?;
    let (qtxqty, qtxqtx) = (0..qtx.cols())
        .map(|j| (dot(qtx.col(j), qty), self_dot(qtx.col(j))))
        .unzip();
    Ok(BlockStats {
        lo,
        xy,
        xx,
        qtxqty,
        qtxqtx,
    })
}

/// Joins every worker handle, converting a panic into a structured
/// [`CoreError::WorkerPanicked`] instead of aborting the process.
///
/// All handles are joined before any outcome is inspected: bailing on the
/// first panic would leave later panicked threads unjoined and re-raise
/// their payloads when the enclosing scope exits.
pub(crate) fn join_workers<T>(handles: Vec<ScopedJoinHandle<'_, T>>) -> Result<Vec<T>, CoreError> {
    let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
    let mut out = Vec::with_capacity(joined.len());
    for j in joined {
        match j {
            Ok(v) => out.push(v),
            Err(payload) => return Err(CoreError::worker_panicked(payload.as_ref())),
        }
    }
    Ok(out)
}

/// Runs the association scan with variant columns distributed over
/// `n_threads` worker threads.
///
/// Produces bit-identical per-variant statistics to [`crate::associate`]
/// (each variant's dots are computed by exactly one thread in the same
/// order), so results are deterministic regardless of thread count.
pub fn associate_parallel(data: &PartyData, n_threads: usize) -> Result<ScanResult, CoreError> {
    if n_threads == 0 {
        return Err(CoreError::BadConfig {
            what: "n_threads must be >= 1",
        });
    }
    let n = data.n_samples();
    let k = data.n_covariates();
    let m = data.n_variants();
    if n <= k + 1 {
        return Err(CoreError::NotEnoughSamples { n, k });
    }
    // Steps 1–2: Q and the y-side statistics (cheap, done once).
    let q = orthonormal_basis(data.c())?;
    let y = data.y();
    let yy = self_dot(y);
    let qty = gemv_t(&q, y)?;
    let qtyqty = self_dot(&qty);

    // Step 3: per-variant statistics over column blocks.
    let threads = n_threads.min(m.max(1));
    let chunk = m.div_ceil(threads.max(1)).max(1);
    let blocks: Vec<BlockStats> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut lo = 0;
        while lo < m {
            let hi = (lo + chunk).min(m);
            let (q_ref, qty_ref, x_ref) = (&q, &qty, data.x());
            handles.push(scope.spawn(move || scan_block(y, x_ref, q_ref, qty_ref, lo, hi)));
            lo = hi;
        }
        join_workers(handles)
    })?
    .into_iter()
    .collect::<Result<_, _>>()?;

    // Step 4: assemble and finalize.
    let mut xy = vec![0.0; m];
    let mut xx = vec![0.0; m];
    let mut qtxqty = vec![0.0; m];
    let mut qtxqtx = vec![0.0; m];
    for b in blocks {
        let len = b.xy.len();
        xy[b.lo..b.lo + len].copy_from_slice(&b.xy);
        xx[b.lo..b.lo + len].copy_from_slice(&b.xx);
        qtxqty[b.lo..b.lo + len].copy_from_slice(&b.qtxqty);
        qtxqtx[b.lo..b.lo + len].copy_from_slice(&b.qtxqtx);
    }
    ScanStats {
        yy,
        xy,
        xx,
        qtyqty,
        qtxqty,
        qtxqtx,
    }
    .finalize(n, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::associate;

    fn gen_data(n: usize, m: usize, k: usize, seed: u64) -> PartyData {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let y: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = Matrix::from_fn(n, m, |_, _| next());
        let c = Matrix::from_fn(n, k, |_, _| next());
        PartyData::new(y, x, c).unwrap()
    }

    #[test]
    fn identical_to_serial_for_all_thread_counts() {
        let data = gen_data(80, 23, 3, 1);
        let serial = associate(&data).unwrap();
        for threads in [1, 2, 3, 4, 7, 23, 64] {
            let par = associate_parallel(&data, threads).unwrap();
            // Bit-identical: same dots in the same order.
            assert_eq!(par.beta, serial.beta, "threads={threads}");
            assert_eq!(par.se, serial.se, "threads={threads}");
            assert_eq!(par.p, serial.p, "threads={threads}");
        }
    }

    #[test]
    fn worker_panic_becomes_structured_error() {
        // Regression: join().expect() used to abort the process with an
        // opaque "scan worker" message. Also checks that a panic in one
        // worker does not leave sibling panicked threads unjoined (which
        // would re-panic at scope exit).
        let err = std::thread::scope(|scope| {
            let handles = vec![
                scope.spawn(|| 1usize),
                scope.spawn(|| panic!("worker exploded: j = 3")),
                scope.spawn(|| panic!("second worker down")),
            ];
            join_workers(handles)
        })
        .unwrap_err();
        match err {
            CoreError::WorkerPanicked { reason } => {
                assert!(reason.contains("worker exploded"), "reason = {reason:?}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn zero_threads_rejected() {
        let data = gen_data(10, 2, 1, 2);
        assert!(matches!(
            associate_parallel(&data, 0),
            Err(CoreError::BadConfig { .. })
        ));
    }

    #[test]
    fn more_threads_than_variants() {
        let data = gen_data(30, 2, 1, 3);
        let par = associate_parallel(&data, 16).unwrap();
        assert_eq!(par.len(), 2);
        assert_eq!(par.beta, associate(&data).unwrap().beta);
    }

    #[test]
    fn single_variant() {
        let data = gen_data(25, 1, 2, 4);
        let par = associate_parallel(&data, 4).unwrap();
        assert_eq!(par.len(), 1);
    }

    #[test]
    fn k_zero_parallel() {
        let data = gen_data(40, 10, 0, 5);
        let par = associate_parallel(&data, 3).unwrap();
        let ser = associate(&data).unwrap();
        assert_eq!(par.beta, ser.beta);
    }
}
