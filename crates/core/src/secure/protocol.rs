//! The full per-party protocol: QR phase → private Q rows → summands →
//! aggregation → Lemma 2.1.
//!
//! Phase 2 has two shapes. The **monolithic** path (`block_size: None`)
//! materializes all M variant summands and aggregates them in one secure
//! round. The **blocked** path (`block_size: Some(B)`) walks the variants
//! in blocks of B columns: round 0 aggregates the block-independent
//! y-side statistics under ordinary protocol tags, then each block runs
//! its own secure round inside a [block-scoped tag
//! range](dash_mpc::net::BLOCK_TAG_BASE), while a producer thread
//! computes the *next* block's local summands concurrently (optionally
//! splitting each block's columns over `threads` workers). Peak summand
//! memory is O(K·B) instead of O(K·M), and results are bit-identical to
//! the monolithic path for every block size.

use crate::error::CoreError;
use crate::model::ScanResult;
use crate::scan::parallel::join_workers;
use crate::secure::aggregate::YAggregate;
use crate::secure::checkpoint::{self, Checkpoint, CheckpointPolicy, Fingerprint};
use crate::secure::{
    aggregate, rfactor, AggregationMode, RFactorMode, SecureScanConfig, SummandSource,
};
use crate::suffstats::{ScanStats, VariantSummands};

use dash_linalg::{invert_upper, ops::gemm, Matrix};
use dash_mpc::dealer::PartyTriples;
use dash_mpc::protocol::masked::masked_sum_ring;
use dash_mpc::{CtxState, PartyCtx, R64};
use std::path::PathBuf;
use std::sync::mpsc;

/// Executes the secure scan from one party's perspective (SPMD — every
/// party runs this same function over the shared network). Generic over
/// the party's storage via [`SummandSource`].
///
/// With a checkpoint `policy` the run persists its protocol state after
/// the y round and after every block, and — when `policy.resume_from` is
/// set — rejoins an interrupted run at its last durable block boundary
/// instead of starting over. Checkpointing is restricted to the blocked
/// pipeline in a non-Beaver aggregation mode over a transport with
/// durable link identity (TCP); anything else is a structured
/// [`CoreError::Checkpoint`], never a silently unusable checkpoint.
pub(crate) fn party_protocol<S: SummandSource>(
    ctx: &mut PartyCtx,
    data: &S,
    cfg: &SecureScanConfig,
    triples: Option<&mut PartyTriples>,
    policy: Option<&CheckpointPolicy>,
) -> Result<ScanResult, CoreError> {
    let target = policy
        .map(|policy| checkpoint_target(ctx, data, cfg, policy))
        .transpose()?;
    let _scan_span = ctx.trace_span("scan");
    let c = data.covariates();
    let k = c.cols();

    // Phase 1 — the pooled sample count, the combined R factor and the
    // private Q rows — or, on resume, the same state from the checkpoint.
    let resume_from = policy.and_then(|p| p.resume_from.as_deref());
    let (n_total, r, q_k, resume) = match resume_from.zip(target.as_ref()) {
        Some((cp, (_, fingerprint))) => {
            let (n_total, seed) = restore(ctx, cp, fingerprint, k, data.n_variants())?;
            // Private Q rows are recomputed locally from the persisted
            // combined R — phase 1 never re-runs, so nothing re-opens.
            let r = Matrix::from_column_major(k, k, cp.r.clone())?;
            let q_k = private_q(c, &r)?;
            (n_total, r, q_k, Some(seed))
        }
        None => {
            let n_total = count_round(ctx, data, k)?;
            let _rfactor_span = ctx.trace_span("phase:rfactor");
            let r = rfactor::combine_r(ctx, c, cfg)?;
            let q_k = private_q(c, &r)?;
            (n_total, r, q_k, None)
        }
    };
    let saver = target.map(|(path, fingerprint)| Saver {
        path,
        fingerprint,
        n_total: n_total as u64,
        r: r.as_slice().to_vec(),
        crash_after_block: policy.and_then(|p| p.crash_after_block),
    });

    // Phase 2: local summands (storage-specific), secure aggregation,
    // finalization.
    let _agg_span = ctx.trace_span("phase:aggregate");
    match cfg.block_size {
        None => {
            let summands = data.summands(&q_k)?;
            let stats = aggregate::aggregate(ctx, &summands, cfg, triples)?;
            stats.finalize(n_total, k)
        }
        Some(b) => blocked_core(
            ctx,
            data,
            &q_k,
            n_total,
            b,
            cfg,
            triples,
            saver.as_ref(),
            resume,
        ),
    }
}

/// This party's rows of the shared orthonormal basis, `Q_k = C_k R⁻¹`.
fn private_q(c: &Matrix, r: &Matrix) -> Result<Matrix, CoreError> {
    if c.cols() == 0 {
        return Ok(Matrix::zeros(c.rows(), 0));
    }
    Ok(gemm(c, &invert_upper(r)?)?)
}

/// Step 0 of the protocol: the pooled sample count (needed by everyone
/// for the degrees of freedom), summed securely so individual cohort
/// sizes stay private under the secure modes.
fn count_round<S: SummandSource>(
    ctx: &mut PartyCtx,
    data: &S,
    k: usize,
) -> Result<usize, CoreError> {
    let n_total = {
        let _span = ctx.trace_span("phase:count");
        let own = [R64(data.n_samples() as u64)];
        let total = masked_sum_ring(ctx, &own, "total sample count N")?;
        total
            .first()
            .map(|r| r.0 as usize)
            .ok_or(CoreError::ShapeMismatch {
                what: "aggregated sample count",
                expected: 1,
                got: 0,
            })?
    };
    if n_total <= k + 1 {
        return Err(CoreError::NotEnoughSamples { n: n_total, k });
    }
    Ok(n_total)
}

fn ckpt_err(what: impl Into<String>) -> CoreError {
    CoreError::Checkpoint { what: what.into() }
}

/// Stable on-disk discriminants of the mode ladder (new modes append —
/// renumbering would invalidate every existing checkpoint).
fn mode_codes(cfg: &SecureScanConfig) -> (u8, u8) {
    let rf = match cfg.rfactor {
        RFactorMode::PublicStack => 0,
        RFactorMode::PairwiseTree => 1,
        RFactorMode::GramAggregate => 2,
    };
    let agg = match cfg.aggregation {
        AggregationMode::Public => 0,
        AggregationMode::SecureShares => 1,
        AggregationMode::MaskedPrg => 2,
        AggregationMode::MaskedStar => 3,
        AggregationMode::BeaverDots => 4,
    };
    (rf, agg)
}

/// Block-boundary checkpoint writer for one party run.
struct Saver {
    path: PathBuf,
    fingerprint: Fingerprint,
    n_total: u64,
    /// Combined R factor, column-major K×K.
    r: Vec<f64>,
    crash_after_block: Option<u32>,
}

impl Saver {
    /// Persists the protocol state at a block boundary (`next_block` is
    /// the first block the resumed run would still execute), then tells
    /// the transport the just-fsynced receive cursors are durable so
    /// peers may prune their replay buffers up to them.
    #[allow(clippy::too_many_arguments)]
    fn save_boundary(
        &self,
        ctx: &PartyCtx,
        next_block: u32,
        head: &YAggregate,
        xy: &[f64],
        xx: &[f64],
        qtxqty: &[f64],
        qtxqtx: &[f64],
    ) -> Result<(), CoreError> {
        let YAggregate::Opened { yy, qty } = head else {
            return Err(ckpt_err(
                "cannot checkpoint a secret-shared y aggregate (Beaver mode)",
            ));
        };
        let state = ctx.protocol_state()?;
        let links = ctx.endpoint().link_snapshot();
        let snapshot = Checkpoint {
            fingerprint: self.fingerprint,
            n_total: self.n_total,
            next_block,
            rng: state.rng,
            pair_prgs: state.pair_prgs,
            tag_counter: state.tag_counter,
            r: self.r.clone(),
            yy: *yy,
            qty: qty.clone(),
            xy: xy.to_vec(),
            xx: xx.to_vec(),
            qtxqty: qtxqty.to_vec(),
            qtxqtx: qtxqtx.to_vec(),
            disclosures: ctx.audit().entries(),
            stats: ctx.endpoint().stats().snapshot(),
            links,
        };
        checkpoint::save(&self.path, &snapshot)?;
        if let Some(l) = &snapshot.links {
            ctx.endpoint().note_durable(&l.recv_next);
        }
        Ok(())
    }
}

/// Accumulator state a resumed run starts from instead of executing the
/// y round and blocks `< start_block`.
struct ResumeSeed {
    head: YAggregate,
    xy: Vec<f64>,
    xx: Vec<f64>,
    qtxqty: Vec<f64>,
    qtxqtx: Vec<f64>,
    start_block: u32,
}

/// Checks that `policy` can checkpoint this run and returns where the
/// checkpoints go and the fingerprint that ties them to the run.
fn checkpoint_target<S: SummandSource>(
    ctx: &PartyCtx,
    data: &S,
    cfg: &SecureScanConfig,
    policy: &CheckpointPolicy,
) -> Result<(PathBuf, Fingerprint), CoreError> {
    let Some(block_size) = cfg.block_size else {
        return Err(ckpt_err(
            "checkpointing requires the blocked pipeline; set block_size",
        ));
    };
    if cfg.aggregation == AggregationMode::BeaverDots {
        return Err(ckpt_err(
            "checkpointing is unsupported in Beaver mode: the y aggregate stays \
             secret-shared across blocks and share material must not be persisted",
        ));
    }
    if ctx.endpoint().link_snapshot().is_none() {
        return Err(ckpt_err(
            "transport has no durable link identity to checkpoint; run over TCP",
        ));
    }
    std::fs::create_dir_all(&policy.dir)
        .map_err(|e| ckpt_err(format!("create {}: {e}", policy.dir.display())))?;
    let (rf, agg) = mode_codes(cfg);
    let fingerprint = Fingerprint {
        seed: cfg.seed,
        party: ctx.id() as u64,
        n_parties: ctx.n_parties() as u64,
        m: data.n_variants() as u64,
        k: data.covariates().cols() as u64,
        rfactor: rf,
        aggregation: agg,
        ring_frac_bits: cfg.ring_frac_bits,
        field_frac_bits: cfg.field_frac_bits,
        block_size: block_size as u64,
    };
    Ok((
        checkpoint::checkpoint_path(&policy.dir, ctx.id()),
        fingerprint,
    ))
}

/// Validates checkpoint `cp` against this run and restores the
/// deterministic protocol state it saved. Returns the pooled sample
/// count and the accumulators the blocked pipeline resumes from.
fn restore(
    ctx: &mut PartyCtx,
    cp: &Checkpoint,
    fingerprint: &Fingerprint,
    k: usize,
    m: usize,
) -> Result<(usize, ResumeSeed), CoreError> {
    if cp.fingerprint != *fingerprint {
        return Err(ckpt_err(format!(
            "checkpoint belongs to a different run: saved {:?}, this run is {:?}",
            cp.fingerprint, fingerprint
        )));
    }
    let n_total = usize::try_from(cp.n_total)
        .map_err(|_| ckpt_err("checkpointed sample count overflows usize"))?;
    if n_total <= k + 1 {
        return Err(CoreError::NotEnoughSamples { n: n_total, k });
    }
    if cp.r.len() != k * k {
        return Err(ckpt_err("checkpointed R factor has the wrong shape"));
    }
    for (name, v) in [
        ("qty", &cp.qty),
        ("xy", &cp.xy),
        ("xx", &cp.xx),
        ("qtxqty", &cp.qtxqty),
        ("qtxqtx", &cp.qtxqtx),
    ] {
        let want = if name == "qty" { k } else { m };
        if v.len() != want {
            return Err(ckpt_err(format!(
                "checkpointed {name} has length {}, expected {want}",
                v.len()
            )));
        }
    }
    // Deterministic state back first: randomness, tags, the audit log,
    // and the traffic counters — so everything recorded from here on
    // continues the interrupted run exactly.
    ctx.restore_protocol_state(&CtxState {
        rng: cp.rng,
        pair_prgs: cp.pair_prgs.clone(),
        tag_counter: cp.tag_counter,
    })?;
    ctx.audit().restore(cp.disclosures.clone());
    ctx.endpoint().stats().restore_snapshot(&cp.stats)?;
    let seed = ResumeSeed {
        head: YAggregate::Opened {
            yy: cp.yy,
            qty: cp.qty.clone(),
        },
        xy: cp.xy.clone(),
        xx: cp.xx.clone(),
        qtxqty: cp.qtxqty.clone(),
        qtxqtx: cp.qtxqtx.clone(),
        start_block: cp.next_block,
    };
    Ok((n_total, seed))
}

/// Computes one block's local summands, splitting its columns over up to
/// `threads` workers and stitching the sub-ranges back in column order.
fn compute_block<S: SummandSource>(
    data: &S,
    q: &Matrix,
    lo: usize,
    hi: usize,
    threads: usize,
) -> Result<VariantSummands, CoreError> {
    let len = hi - lo;
    let threads = threads.min(len.max(1));
    if threads <= 1 {
        return data.summands_block(q, lo, hi);
    }
    let chunk = len.div_ceil(threads).max(1);
    let parts = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut a = lo;
        while a < hi {
            let b = (a + chunk).min(hi);
            handles.push(scope.spawn(move || data.summands_block(q, a, b)));
            a = b;
        }
        join_workers(handles)
    })?;
    let k = q.cols();
    let mut xy = Vec::with_capacity(len);
    let mut xx = Vec::with_capacity(len);
    let mut qtx = Matrix::zeros(k, len);
    for part in parts {
        let part = part?;
        for j in 0..part.len() {
            qtx.col_mut(part.lo - lo + j)
                .copy_from_slice(part.qtx.col(j));
        }
        xy.extend_from_slice(&part.xy);
        xx.extend_from_slice(&part.xx);
    }
    Ok(VariantSummands { lo, xy, xx, qtx })
}

/// Phase 2 of the blocked pipeline (see the module docs).
///
/// A producer thread computes block b+1's summands while the protocol
/// thread runs block b's secure round; a rendezvous channel of depth 1
/// bounds in-flight summand memory to two blocks.
///
/// With `saver`, the protocol state is persisted at every block boundary
/// (after the y round and after each block); with `resume`, the y round
/// and blocks `< start_block` are skipped and their results taken from
/// the checkpoint instead — the remainder of the run is bit-identical to
/// an uninterrupted one because all randomness, tags, and cursors were
/// restored to the boundary state.
#[allow(clippy::too_many_arguments)]
fn blocked_core<S: SummandSource>(
    ctx: &mut PartyCtx,
    data: &S,
    q_k: &Matrix,
    n_total: usize,
    block_size: usize,
    cfg: &SecureScanConfig,
    triples: Option<&mut PartyTriples>,
    saver: Option<&Saver>,
    resume: Option<ResumeSeed>,
) -> Result<ScanResult, CoreError> {
    let m = data.n_variants();
    let k = q_k.cols();
    let mut triples = triples;
    let n_blocks = m.div_ceil(block_size.max(1));

    let (head, mut xy, mut xx, mut qtxqty, mut qtxqtx, start_block) = match resume {
        None => {
            // Round 0, under ordinary protocol tags: the y-side
            // statistics.
            let y_span = ctx.trace_span("round:y");
            let (yy_local, qty_local) = data.y_summands(q_k)?;
            let head =
                aggregate::aggregate_y(ctx, yy_local, &qty_local, m, cfg, triples.as_deref_mut())?;
            drop(y_span);
            let zero = vec![0.0; m];
            if let Some(s) = saver {
                s.save_boundary(ctx, 0, &head, &zero, &zero, &zero, &zero)?;
            }
            (head, zero.clone(), zero.clone(), zero.clone(), zero, 0)
        }
        Some(seed) => {
            let start = seed.start_block as usize;
            if start > n_blocks {
                return Err(ckpt_err(format!(
                    "checkpoint resumes at block {start} but this run has only {n_blocks} blocks"
                )));
            }
            (seed.head, seed.xy, seed.xx, seed.qtxqty, seed.qtxqtx, start)
        }
    };

    std::thread::scope(|scope| -> Result<(), CoreError> {
        let (tx, rx) = mpsc::sync_channel::<Result<VariantSummands, CoreError>>(1);
        let threads = cfg.threads;
        let producer = scope.spawn(move || {
            for b in start_block..n_blocks {
                let lo = b * block_size;
                let hi = (lo + block_size).min(m);
                let res = compute_block(data, q_k, lo, hi, threads);
                let stop = res.is_err();
                if tx.send(res).is_err() || stop {
                    break;
                }
            }
        });
        let mut consume = || -> Result<(), CoreError> {
            for b in start_block..n_blocks {
                let summ = rx.recv().map_err(|_| CoreError::WorkerPanicked {
                    reason: "block producer exited without delivering a block".to_string(),
                })??;
                // Each block's secure round runs inside its own tag range,
                // so its traffic is attributed to the block and cannot
                // collide with neighbouring rounds even though parties may
                // momentarily be in different blocks.
                let _block_span = ctx.trace_span_at("block", b as u64);
                ctx.enter_block(b as u32).map_err(CoreError::from)?;
                let round_span = ctx.trace_span("round:secure");
                let agg =
                    aggregate::aggregate_block(ctx, &summ, &head, cfg, triples.as_deref_mut());
                drop(round_span);
                ctx.exit_block().map_err(CoreError::from)?;
                let agg = agg?;
                let (lo, len) = (summ.lo, summ.len());
                xy[lo..lo + len].copy_from_slice(&agg.xy);
                xx[lo..lo + len].copy_from_slice(&agg.xx);
                qtxqty[lo..lo + len].copy_from_slice(&agg.qtxqty);
                qtxqtx[lo..lo + len].copy_from_slice(&agg.qtxqtx);
                if let Some(s) = saver {
                    s.save_boundary(ctx, (b + 1) as u32, &head, &xy, &xx, &qtxqty, &qtxqtx)?;
                    if s.crash_after_block == Some(b as u32) {
                        // The crash-injection hook: die the way kill -9
                        // does — no unwinding, no Drop, no flush — right
                        // after the block's checkpoint became durable.
                        std::process::abort();
                    }
                }
            }
            Ok(())
        };
        let res = consume();
        // Dropping the receiver unblocks a producer stuck on a full
        // channel before we join it; a producer panic outranks whatever
        // error made us bail.
        drop(rx);
        if let Err(payload) = producer.join() {
            return Err(CoreError::worker_panicked(payload.as_ref()));
        }
        res
    })?;

    let (yy, qtyqty) = head.y_stats();
    ScanStats {
        yy,
        xy,
        xx,
        qtyqty,
        qtxqty,
        qtxqtx,
    }
    .finalize(n_total, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{pool_parties, PartyData};
    use crate::scan::{associate, per_variant_ols};
    use crate::secure::{secure_scan, AggregationMode, RFactorMode};
    use dash_linalg::Matrix;

    fn gen_parties(sizes: &[usize], m: usize, k: usize, seed: u64) -> Vec<PartyData> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
        let mut next = move || {
            let mut acc = 0.0;
            for _ in 0..4 {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                acc += (s >> 11) as f64 / (1u64 << 53) as f64;
            }
            (acc - 2.0) * (3.0f64).sqrt()
        };
        sizes
            .iter()
            .map(|&n| {
                let y: Vec<f64> = (0..n).map(|_| next()).collect();
                let x = Matrix::from_fn(n, m, |_, _| next());
                let c = Matrix::from_fn(n, k, |_, _| next());
                PartyData::new(y, x, c).unwrap()
            })
            .collect()
    }

    /// The central correctness claim: the secure multi-party scan equals
    /// the pooled plaintext scan (and hence pooled per-variant OLS), for
    /// every combination of modes.
    #[test]
    fn all_mode_combinations_match_pooled_scan() {
        let parties = gen_parties(&[15, 22, 18], 6, 3, 77);
        let pooled = pool_parties(&parties).unwrap();
        let reference = associate(&pooled).unwrap();
        for rf in [
            RFactorMode::PublicStack,
            RFactorMode::PairwiseTree,
            RFactorMode::GramAggregate,
        ] {
            for agg in [
                AggregationMode::Public,
                AggregationMode::SecureShares,
                AggregationMode::MaskedPrg,
                AggregationMode::MaskedStar,
                AggregationMode::BeaverDots,
            ] {
                let cfg = SecureScanConfig {
                    rfactor: rf,
                    aggregation: agg,
                    seed: 5,
                    ..SecureScanConfig::default()
                };
                let out = secure_scan(&parties, &cfg).unwrap();
                let d = out.result.max_rel_diff(&reference).unwrap();
                assert!(d < 2e-5, "{rf:?}/{agg:?}: max rel diff {d}");
            }
        }
    }

    #[test]
    fn secure_scan_matches_naive_ols_tightly_in_default_mode() {
        let parties = gen_parties(&[30, 25], 5, 2, 99);
        let pooled = pool_parties(&parties).unwrap();
        let oracle = per_variant_ols(&pooled).unwrap();
        let out = secure_scan(&parties, &SecureScanConfig::paper_default(11)).unwrap();
        let d = out.result.max_rel_diff(&oracle).unwrap();
        assert!(d < 1e-6, "max rel diff vs lm(): {d}");
    }

    #[test]
    fn leakage_ladder_ordering() {
        let parties = gen_parties(&[12, 12, 12], 3, 2, 13);
        let leak_of = |rf, agg| {
            let cfg = SecureScanConfig {
                rfactor: rf,
                aggregation: agg,
                seed: 9,
                ..SecureScanConfig::default()
            };
            let out = secure_scan(&parties, &cfg).unwrap();
            out.disclosures
                .iter()
                .filter(|d| d.source_party.is_some())
                .map(|d| d.scalars)
                .sum::<usize>()
        };
        let public = leak_of(RFactorMode::PublicStack, AggregationMode::Public);
        let default = leak_of(RFactorMode::PublicStack, AggregationMode::MaskedPrg);
        let tree = leak_of(RFactorMode::PairwiseTree, AggregationMode::MaskedPrg);
        let strict = leak_of(RFactorMode::GramAggregate, AggregationMode::BeaverDots);
        assert!(public > default, "public {public} vs default {default}");
        assert!(default >= tree, "default {default} vs tree {tree}");
        assert_eq!(strict, 0, "strict mode must leak nothing per-party");
    }

    #[test]
    fn single_party_degenerates_to_plain_scan() {
        let parties = gen_parties(&[40], 4, 2, 31);
        let reference = associate(&parties[0]).unwrap();
        let out = secure_scan(&parties, &SecureScanConfig::default()).unwrap();
        assert!(out.result.max_rel_diff(&reference).unwrap() < 1e-7);
        assert_eq!(out.n_parties, 1);
    }

    #[test]
    fn communication_independent_of_n() {
        // The headline claim: bytes do not grow with sample count.
        let small = gen_parties(&[20, 20], 8, 2, 1);
        let large = gen_parties(&[200, 200], 8, 2, 2);
        let cfg = SecureScanConfig::paper_default(3);
        let b_small = secure_scan(&small, &cfg).unwrap().network.total_bytes;
        let b_large = secure_scan(&large, &cfg).unwrap().network.total_bytes;
        assert_eq!(b_small, b_large, "traffic must not depend on N");
    }

    #[test]
    fn communication_linear_in_m() {
        let m8 = gen_parties(&[30, 30], 8, 2, 4);
        let m16 = gen_parties(&[30, 30], 16, 2, 5);
        let cfg = SecureScanConfig::paper_default(6);
        let b8 = secure_scan(&m8, &cfg).unwrap().network.total_bytes;
        let b16 = secure_scan(&m16, &cfg).unwrap().network.total_bytes;
        let ratio = b16 as f64 / b8 as f64;
        assert!((1.5..2.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn collinear_pooled_covariates_detected() {
        // Two identical covariate columns across all parties.
        let mut parties = gen_parties(&[10, 10], 2, 2, 8);
        parties = parties
            .into_iter()
            .map(|p| {
                let col: Vec<f64> = p.c().col(0).to_vec();
                let c = Matrix::from_cols(&[&col, &col]).unwrap();
                PartyData::new(p.y().to_vec(), p.x().clone(), c).unwrap()
            })
            .collect();
        let err = secure_scan(&parties, &SecureScanConfig::default()).unwrap_err();
        assert_eq!(err, CoreError::CollinearCovariates);
    }

    #[test]
    fn k_zero_end_to_end() {
        let parties = gen_parties(&[15, 15], 3, 0, 12);
        let pooled = pool_parties(&parties).unwrap();
        let reference = associate(&pooled).unwrap();
        for agg in [AggregationMode::MaskedPrg, AggregationMode::BeaverDots] {
            let cfg = SecureScanConfig {
                aggregation: agg,
                seed: 2,
                ..SecureScanConfig::default()
            };
            let out = secure_scan(&parties, &cfg).unwrap();
            assert!(
                out.result.max_rel_diff(&reference).unwrap() < 1e-6,
                "{agg:?}"
            );
        }
    }
}
