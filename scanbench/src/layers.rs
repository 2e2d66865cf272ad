//! Isolated timings of single layers at a workload's shape, through the
//! same public functions the protocol calls.

use crate::workload::Workload;
use dash_core::secure::checkpoint::{self, Checkpoint, Fingerprint};
use dash_core::secure::RFactorMode;
use dash_core::suffstats::{orthonormal_basis, ScanStats, SuffStats};
use dash_core::PartyData;
use dash_linalg::ops::gemm;
use dash_linalg::{cholesky_upper, gemm_at_b, invert_upper, qr_r_factor, Matrix};
use dash_mpc::net::NetworkStats;
use dash_mpc::{TraceHandle, TrustedDealer};
use std::path::Path;

/// Median wall seconds of `reps` runs of `f` after one warm-up run, or
/// the error `f` returned (its result is the same on every run).
fn time_median<R>(reps: usize, f: impl FnMut() -> Result<R, String>) -> Result<f64, String> {
    let (timed, last) = dash_bench::timing::time_median(reps.max(1), f);
    std::hint::black_box(last?);
    Ok(timed.median_s)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `TrustedDealer::deal_inners(K, 2M+1)` for every party: the Beaver
/// offline phase, which the per-party path repeats in every party.
pub fn dealer_s(w: &Workload, seed: u64, reps: usize) -> Result<f64, String> {
    time_median(reps, || {
        let mut dealer = TrustedDealer::new(w.n_parties(), seed).map_err(err)?;
        Ok(dealer.deal_inners(w.k, 2 * w.m + 1))
    })
}

/// The reduced statistics of the pooled data, the input of
/// `ScanStats::finalize`.
pub fn pooled_stats(pooled: &PartyData) -> Result<ScanStats, String> {
    let q = orthonormal_basis(pooled.c()).map_err(err)?;
    Ok(SuffStats::local(pooled.y(), pooled.x(), &q)
        .map_err(err)?
        .reduce())
}

/// `ScanStats::finalize` at the workload's M (Lemma 2.1 plus p-values),
/// which every party pays once per scan.
pub fn finalize_s(stats: &ScanStats, n: usize, k: usize, reps: usize) -> Result<f64, String> {
    time_median(reps, || stats.finalize(n, k).map_err(err))
}

/// Phase 1's local linear algebra for every party: the local factor
/// (`qr_r_factor` of `C_k`, or the Gram summand and `cholesky_upper` of
/// the total), the combine, and `invert_upper` + `gemm` forming `Q_k`.
pub fn rfactor_s(w: &Workload, parties: &[PartyData], reps: usize) -> Result<f64, String> {
    time_median(reps, || {
        let r = match w.rfactor {
            RFactorMode::GramAggregate => {
                let mut gram = Matrix::zeros(w.k, w.k);
                for p in parties {
                    let g = gemm_at_b(p.c(), p.c()).map_err(err)?;
                    for (acc, v) in gram.as_mut_slice().iter_mut().zip(g.as_slice()) {
                        *acc += v;
                    }
                }
                cholesky_upper(&gram).map_err(err)?
            }
            _ => {
                let locals = parties
                    .iter()
                    .map(|p| qr_r_factor(p.c()))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(err)?;
                let refs: Vec<&Matrix> = locals.iter().collect();
                qr_r_factor(&Matrix::vstack(&refs).map_err(err)?).map_err(err)?
            }
        };
        let rinv = invert_upper(&r).map_err(err)?;
        parties
            .iter()
            .map(|p| gemm(p.c(), &rinv))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)
    })
}

/// A checkpoint holding a finished scan's state at the workload's shape,
/// as `secure_scan_party_checkpointed` leaves it after the last block,
/// without link state (no workload's timed entry point writes one).
pub fn shaped_checkpoint(w: &Workload, seed: u64) -> Checkpoint {
    let p = w.n_parties();
    Checkpoint {
        fingerprint: Fingerprint {
            seed,
            party: 0,
            n_parties: p as u64,
            m: w.m as u64,
            k: w.k as u64,
            rfactor: 0,
            aggregation: 0,
            ring_frac_bits: 28,
            field_frac_bits: 26,
            block_size: w.block as u64,
        },
        n_total: w.sizes.iter().sum::<usize>() as u64,
        next_block: w.m.div_ceil(w.block) as u32,
        rng: [1, 2, 3, 4],
        pair_prgs: (0..p).map(|j| (j != 0).then_some([5, 6, 7, 8])).collect(),
        tag_counter: 0,
        r: vec![1.0; w.k * w.k],
        yy: 1.0,
        qty: vec![1.0; w.k],
        xy: vec![1.0; w.m],
        xx: vec![1.0; w.m],
        qtxqty: vec![1.0; w.m],
        qtxqtx: vec![1.0; w.m],
        disclosures: Vec::new(),
        stats: NetworkStats::with_trace(p, TraceHandle::disabled()).snapshot(),
        links: None,
    }
}

/// Isolated `checkpoint::save` and `checkpoint::load` of `c` inside
/// `dir`: (file bytes, median save seconds, median load seconds).
pub fn checkpoint_io(c: &Checkpoint, dir: &Path, reps: usize) -> Result<(u64, f64, f64), String> {
    std::fs::create_dir_all(dir).map_err(err)?;
    let path = checkpoint::checkpoint_path(dir, 0);
    let save_s = time_median(reps, || checkpoint::save(&path, c).map_err(err))?;
    let bytes = std::fs::metadata(&path).map_err(err)?.len();
    let load_s = time_median(reps, || checkpoint::load(&path).map_err(err))?;
    let loaded = checkpoint::load(&path).map_err(err)?;
    if loaded != *c {
        return Err("checkpoint changed across save/load".into());
    }
    Ok((bytes, save_s, load_s))
}
