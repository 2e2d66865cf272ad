//! The secure multi-party association scan (§3 of the paper).
//!
//! The protocol has two phases, each with a ladder of security modes:
//!
//! **Phase 1 — the QR step** ([`RFactorMode`]): recover the combined
//! K×K factor `R` of the pooled permanent covariates so every party can
//! privately form its rows `Q_k = C_k R⁻¹`.
//!
//! | mode | what leaks beyond the combined R |
//! |------|----------------------------------|
//! | [`RFactorMode::PublicStack`] | every party's own `R_k` (the paper's default: "perfectly happy to disclose") |
//! | [`RFactorMode::PairwiseTree`] | each subtree's combined `R` to its tree parent only (footnote 3) |
//! | [`RFactorMode::GramAggregate`] | nothing — only the aggregate `CᵀC` (= `RᵀR`) opens, via a secure sum |
//!
//! **Phase 2 — aggregation** ([`AggregationMode`]): combine the per-party
//! summands of the six statistics of Lemma 2.1.
//!
//! | mode | what leaks beyond the final statistics |
//! |------|----------------------------------------|
//! | [`AggregationMode::Public`] | every party's raw summands ("sharing them to sum") |
//! | [`AggregationMode::SecureShares`] | only the aggregates `X·y, X·X, y·y, Qᵀy, QᵀX` (share-based SMC sum) |
//! | [`AggregationMode::MaskedPrg`] | same aggregates, half the traffic (PRG-correlated masks) |
//! | [`AggregationMode::MaskedStar`] | same aggregates, O(P·M) total traffic via an aggregator |
//! | [`AggregationMode::BeaverDots`] | only `y·y, X·y, X·X` and the three projected *dot products* per variant — the K-vector aggregates never open (the paper's "even greater security" parenthetical) |
//!
//! Every opening is recorded in the disclosure log; the E6 experiment
//! prints the resulting leakage/cost ladder.
//!
//! **Entry points.** Six public functions run the scan over two run
//! bodies, and both bodies drive the one per-party protocol:
//! - whole runs, every party on a thread of this process:
//!   [`secure_scan`], [`secure_scan_traced`] (in-process mesh) and
//!   [`secure_scan_tcp_local`] (loopback TCP) share one launcher that
//!   differs only in how each party gets its transport;
//! - one party per process: [`secure_scan_party_with`] and
//!   [`secure_scan_party_checkpointed`] share one per-party body, the
//!   second with a checkpoint policy.
//!
//! [`secure_scan_with`] is [`secure_scan`] under a second name. It and
//! the two per-party names are kept because the `scanbench` benchmark
//! calls them.

pub mod aggregate;
pub mod checkpoint;
pub mod protocol;
pub mod rfactor;
pub(crate) mod wire;

use crate::error::CoreError;
use crate::model::{PartyData, ScanResult};
use dash_mpc::audit::{Disclosure, DisclosureLog};
use dash_mpc::dealer::{PartyTriples, TrustedDealer};
use dash_mpc::net::{CostModel, Network, NetworkStats};
use dash_mpc::party::PartyCtx;
use dash_mpc::tcp::{TcpConfig, TcpTransport};
use dash_mpc::transport::{
    FaultPlan, FaultyTransport, FrameTransport, RetryPolicy, Transport, TransportConfig,
};
use dash_mpc::FixedPointCodec;
pub use dash_obs::{Counter as TraceCounter, SpanRecord, TraceHandle};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

/// How the combined R factor of the pooled covariates is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RFactorMode {
    /// Every party publishes its `R_k`; everyone stacks and re-factors.
    PublicStack,
    /// Binary-tree pairwise combination (footnote 3): `R`s flow up a tree
    /// and only the root's result is broadcast.
    PairwiseTree,
    /// Secure-sum the K×K Gram summands `C_kᵀC_k`; only `CᵀC` opens and
    /// `R = chol(CᵀC)`.
    GramAggregate,
}

/// How the per-party summands of the six statistics are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregationMode {
    /// Broadcast raw summands and sum locally.
    Public,
    /// Share-based secure sum (two rounds).
    SecureShares,
    /// PRG-masked secure sum (one round, half the bytes).
    MaskedPrg,
    /// PRG-masked secure sum over a star topology: masked values flow to
    /// party 0, which broadcasts the total. Total traffic O(P·M) instead
    /// of O(P²·M); same privacy (party 0 sees only masked values).
    MaskedStar,
    /// Keep `Qᵀy`/`QᵀX` secret-shared; open only per-variant dot products
    /// via Beaver inner products.
    BeaverDots,
}

/// Configuration of a secure scan run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecureScanConfig {
    /// QR-phase mode.
    pub rfactor: RFactorMode,
    /// Aggregation-phase mode.
    pub aggregation: AggregationMode,
    /// Fractional bits of the Z₂⁶⁴ fixed-point codec used by the secure
    /// sums. 28 gives ±2³⁴ range at 4·10⁻⁹ resolution.
    pub ring_frac_bits: u32,
    /// Fractional bits of the F_{2⁶¹−1} codec used by the Beaver mode
    /// (inputs are pre-normalized to ‖·‖ ≤ 1, so 26 bits leave ample
    /// product headroom for up to 16 parties).
    pub field_frac_bits: u32,
    /// Master seed for all protocol randomness (shares, masks, dealer).
    pub seed: u64,
    /// Longest any party waits for one message before failing with a
    /// structured timeout (milliseconds).
    pub deadline_ms: u64,
    /// Resend attempts after a transient send failure.
    pub max_retries: u32,
    /// Backoff before the first resend (milliseconds; doubles per
    /// attempt).
    pub retry_backoff_ms: u64,
    /// Optional deterministic fault injection (testing/chaos runs only).
    pub faults: Option<FaultPlan>,
    /// Variant-block size of the blocked aggregation pipeline: `Some(B)`
    /// walks the variants in blocks of B columns — peak summand memory
    /// O(N·B + K·B) instead of O(N·M) — overlapping each block's secure
    /// round with the next block's local compute. `None` runs the
    /// original monolithic single-round aggregation. Results are
    /// bit-identical either way.
    pub block_size: Option<usize>,
    /// Worker threads for the blocked path's local summand compute
    /// (must be ≥ 1; the monolithic path ignores it).
    pub threads: usize,
}

impl Default for SecureScanConfig {
    fn default() -> Self {
        SecureScanConfig {
            rfactor: RFactorMode::PublicStack,
            aggregation: AggregationMode::MaskedPrg,
            ring_frac_bits: 28,
            field_frac_bits: 26,
            seed: 0xDA54,
            deadline_ms: 60_000,
            max_retries: 3,
            retry_backoff_ms: 1,
            faults: None,
            block_size: None,
            threads: 1,
        }
    }
}

impl SecureScanConfig {
    /// The strictest ladder rung: aggregate-only R, Beaver dot products.
    pub fn max_security(seed: u64) -> Self {
        SecureScanConfig {
            rfactor: RFactorMode::GramAggregate,
            aggregation: AggregationMode::BeaverDots,
            seed,
            ..Self::default()
        }
    }

    /// The paper's default: public K×K R factors, secure sums for the
    /// statistics.
    pub fn paper_default(seed: u64) -> Self {
        SecureScanConfig {
            rfactor: RFactorMode::PublicStack,
            aggregation: AggregationMode::MaskedPrg,
            seed,
            ..Self::default()
        }
    }

    pub(crate) fn ring_codec(&self) -> Result<FixedPointCodec, CoreError> {
        Ok(FixedPointCodec::new(self.ring_frac_bits)?)
    }

    pub(crate) fn field_codec(&self) -> Result<FixedPointCodec, CoreError> {
        Ok(FixedPointCodec::new(self.field_frac_bits)?)
    }

    /// The receive deadline and send retry policy every party runs
    /// under.
    pub(crate) fn transport_config(&self) -> TransportConfig {
        TransportConfig {
            deadline: Duration::from_millis(self.deadline_ms),
            retry: RetryPolicy {
                max_retries: self.max_retries,
                backoff: Duration::from_millis(self.retry_backoff_ms),
            },
        }
    }
}

/// Network cost summary of one protocol run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkReport {
    /// Bytes over all directed links.
    pub total_bytes: u64,
    /// Largest per-party outbound byte count.
    pub max_party_bytes: u64,
    /// Total messages.
    pub total_messages: u64,
    /// Simulated wall clock on a 10 Gbit/s / 0.1 ms LAN.
    pub lan_seconds: f64,
    /// Simulated wall clock on a 100 Mbit/s / 30 ms WAN.
    pub wan_seconds: f64,
    /// Send retries performed across all parties (0 on a healthy run).
    pub total_retries: u64,
    /// Receive deadline expiries across all parties (0 on a healthy run).
    pub total_timeouts: u64,
}

impl NetworkReport {
    /// Summarizes the counters of a finished protocol run.
    pub fn from_stats(stats: &dash_mpc::NetworkStats) -> Self {
        NetworkReport {
            total_bytes: stats.total_bytes(),
            max_party_bytes: stats.max_party_bytes(),
            total_messages: stats.total_messages(),
            lan_seconds: CostModel::lan().estimate_seconds(stats),
            wan_seconds: CostModel::wan().estimate_seconds(stats),
            total_retries: stats.total_retries(),
            total_timeouts: stats.total_timeouts(),
        }
    }
}

/// Everything a secure scan run produces.
#[derive(Debug, Clone)]
pub struct SecureScanOutput {
    /// The scan results (identical at every party; this is party 0's).
    pub result: ScanResult,
    /// Communication accounting.
    pub network: NetworkReport,
    /// Every value any protocol opened.
    pub disclosures: Vec<Disclosure>,
    /// Number of participating parties.
    pub n_parties: usize,
    /// Bytes exchanged during each blocked aggregation round, in block
    /// order (empty for monolithic runs). Together with the unscoped
    /// protocol traffic these partition [`NetworkReport::total_bytes`].
    pub per_block_bytes: Vec<u64>,
}

/// A party-local provider of the scan's additive statistics.
///
/// The protocol only needs three things from a party: its covariate rows
/// `C_k` (for the QR phase), its sample count, and the ability to produce
/// the [`crate::suffstats::SuffStats`] summands given its private
/// `Q_k` rows. [`PartyData`] provides the dense implementation;
/// alternative storage — sparse genotypes, memory-mapped files, on-the-fly
/// dosage decoding — implements this trait and plugs into
/// [`secure_scan`] unchanged.
pub trait SummandSource: Sync {
    /// Number of samples this party holds.
    fn n_samples(&self) -> usize;
    /// Number of variants (must agree across parties).
    fn n_variants(&self) -> usize;
    /// The permanent covariate rows, N_k×K.
    fn covariates(&self) -> &dash_linalg::Matrix;
    /// The additive statistics of Lemma 2.1 for this party's rows, given
    /// its slice `Q_k` of the shared orthonormal basis.
    fn summands(&self, q: &dash_linalg::Matrix) -> Result<crate::suffstats::SuffStats, CoreError>;
    /// The block-independent y-side summands `(y·y, Qᵀy)` — round 0 of
    /// the blocked pipeline.
    ///
    /// The default derives them from [`SummandSource::summands`]; storage
    /// that can produce them directly should override so the blocked path
    /// never materializes all M variant summands at once.
    fn y_summands(&self, q: &dash_linalg::Matrix) -> Result<(f64, Vec<f64>), CoreError> {
        let s = self.summands(q)?;
        Ok((s.yy, s.qty))
    }
    /// The variant-side summands for columns `[lo, hi)` — the per-block
    /// unit of the blocked pipeline.
    ///
    /// The default slices [`SummandSource::summands`]; overriding with a
    /// native block computation is what realizes the O(K·B) memory bound.
    fn summands_block(
        &self,
        q: &dash_linalg::Matrix,
        lo: usize,
        hi: usize,
    ) -> Result<crate::suffstats::VariantSummands, CoreError> {
        crate::suffstats::VariantSummands::from_suffstats(&self.summands(q)?, lo, hi)
    }
}

impl SummandSource for PartyData {
    fn n_samples(&self) -> usize {
        PartyData::n_samples(self)
    }
    fn n_variants(&self) -> usize {
        PartyData::n_variants(self)
    }
    fn covariates(&self) -> &dash_linalg::Matrix {
        self.c()
    }
    fn summands(&self, q: &dash_linalg::Matrix) -> Result<crate::suffstats::SuffStats, CoreError> {
        crate::suffstats::SuffStats::local(self.y(), self.x(), q)
    }
    fn y_summands(&self, q: &dash_linalg::Matrix) -> Result<(f64, Vec<f64>), CoreError> {
        // The same `self_dot`/`gemv_t` calls `SuffStats::local` makes, so
        // the blocked path opens bit-identical y-side values.
        if q.rows() != self.n_samples() {
            return Err(CoreError::ShapeMismatch {
                what: "y_summands Q rows",
                expected: self.n_samples(),
                got: q.rows(),
            });
        }
        Ok((
            dash_linalg::self_dot(self.y()),
            dash_linalg::gemv_t(q, self.y())?,
        ))
    }
    fn summands_block(
        &self,
        q: &dash_linalg::Matrix,
        lo: usize,
        hi: usize,
    ) -> Result<crate::suffstats::VariantSummands, CoreError> {
        crate::suffstats::VariantSummands::local(self.y(), self.x(), q, lo, hi)
    }
}

/// Validates a set of [`SummandSource`]s and returns `(N, M, K)`.
fn validate_sources<S: SummandSource>(parties: &[S]) -> Result<(usize, usize, usize), CoreError> {
    let first = parties.first().ok_or(CoreError::NoParties)?;
    let m = first.n_variants();
    let k = first.covariates().cols();
    let mut n = 0;
    for (i, p) in parties.iter().enumerate() {
        if p.n_variants() != m {
            return Err(CoreError::PartiesInconsistent {
                what: "variant count M",
                party: i,
                expected: m,
                got: p.n_variants(),
            });
        }
        if p.covariates().cols() != k {
            return Err(CoreError::PartiesInconsistent {
                what: "covariate count K",
                party: i,
                expected: k,
                got: p.covariates().cols(),
            });
        }
        check_covariate_rows(p)?;
        n += p.n_samples();
    }
    if n <= k + 1 {
        return Err(CoreError::NotEnoughSamples { n, k });
    }
    Ok((n, m, k))
}

/// Checks that a party holds one covariate row per sample.
fn check_covariate_rows<S: SummandSource>(data: &S) -> Result<(), CoreError> {
    if data.covariates().rows() != data.n_samples() {
        return Err(CoreError::ShapeMismatch {
            what: "covariate rows vs samples",
            expected: data.n_samples(),
            got: data.covariates().rows(),
        });
    }
    Ok(())
}

/// Validates the run-shape knobs of a configuration against the variant
/// count (shared by the in-process and multi-process entry points).
fn validate_config(cfg: &SecureScanConfig, m: usize) -> Result<(), CoreError> {
    cfg.ring_codec()?;
    cfg.field_codec()?;
    if cfg.threads == 0 {
        return Err(CoreError::BadConfig {
            what: "threads must be >= 1 (use 1 for serial block compute)",
        });
    }
    if let Some(b) = cfg.block_size {
        if b == 0 {
            return Err(CoreError::BadConfig {
                what: "block_size must be >= 1 (or None for the monolithic path)",
            });
        }
        if m.div_ceil(b) as u64 > dash_mpc::net::MAX_BLOCK_ID as u64 + 1 {
            return Err(CoreError::BadConfig {
                what: "too many variant blocks for the block tag range; raise block_size",
            });
        }
    }
    Ok(())
}

/// Runs the full secure multi-party association scan over an in-process
/// party network.
///
/// Each element of `parties` is one party's private rows, in any
/// [`SummandSource`] storage; the function spawns one thread per party
/// and runs the configured protocol. Debug builds also check that every
/// party derived a bit-identical result (they must — every final
/// statistic is computed from identically opened values).
pub fn secure_scan<S: SummandSource>(
    parties: &[S],
    cfg: &SecureScanConfig,
) -> Result<SecureScanOutput, CoreError> {
    secure_scan_traced(parties, cfg, TraceHandle::disabled())
}

/// [`secure_scan`] under the name the `scanbench` benchmark calls.
pub use self::secure_scan as secure_scan_with;

/// Like [`secure_scan`] but the run's transport counters mirror into
/// `trace` and every party records hierarchical spans
/// (`scan → phase → block → secure round`) plus protocol counters (pass
/// [`TraceHandle::enabled`] with the party count; a disabled handle makes
/// this identical to [`secure_scan`]).
pub fn secure_scan_traced<S: SummandSource>(
    parties: &[S],
    cfg: &SecureScanConfig,
    trace: TraceHandle,
) -> Result<SecureScanOutput, CoreError> {
    let triples = prepare_run(parties, cfg)?;
    let (endpoints, stats) = Network::endpoints_traced(parties.len(), trace)?;
    run_local(parties, cfg, triples, &stats, endpoints, |_, ep| Ok(ep))
}

/// Runs the secure scan over **real loopback TCP sockets**, one
/// [`TcpTransport`] per party thread — the full socket path (framing,
/// handshake, reader threads) under one roof so tests can assert
/// bit-identical results and accounting against [`secure_scan`].
///
/// Unlike separate `dash party` processes, all parties share one
/// [`NetworkStats`] and one [`DisclosureLog`] here, exactly like the
/// in-process runner — so `network` and `disclosures` of the output are
/// directly comparable (equal, for a deterministic protocol) to the
/// mpsc run's.
pub fn secure_scan_tcp_local<S: SummandSource>(
    parties: &[S],
    cfg: &SecureScanConfig,
) -> Result<SecureScanOutput, CoreError> {
    let triples = prepare_run(parties, cfg)?;
    // Rendezvous: bind every party's listener up front (port 0 → the OS
    // assigns), so each party knows the full address list.
    let bind_err = |peer, e| {
        CoreError::Mpc(dash_mpc::MpcError::Handshake {
            peer,
            reason: format!("loopback listener: {e}"),
        })
    };
    let mut listeners = Vec::with_capacity(parties.len());
    let mut addrs = Vec::with_capacity(parties.len());
    for i in 0..parties.len() {
        let l = TcpListener::bind("127.0.0.1:0").map_err(|e| bind_err(i, e))?;
        addrs.push(l.local_addr().map_err(|e| bind_err(i, e))?);
        listeners.push(l);
    }
    let tcp_cfg = TcpConfig {
        run_id: cfg.seed,
        ..TcpConfig::default()
    };
    let stats = Arc::new(NetworkStats::with_trace(
        parties.len(),
        TraceHandle::disabled(),
    ));
    run_local(parties, cfg, triples, &stats, listeners, |i, listener| {
        TcpTransport::connect(i, listener, &addrs, tcp_cfg, Arc::clone(&stats))
    })
}

/// Validates a whole in-process run and deals its Beaver material — the
/// part of a run that must succeed before any party thread spawns.
fn prepare_run<S: SummandSource>(
    parties: &[S],
    cfg: &SecureScanConfig,
) -> Result<Vec<Option<PartyTriples>>, CoreError> {
    let (_n, m, k) = validate_sources(parties)?;
    validate_config(cfg, m)?;
    deal_triples(cfg, parties.len(), m, k)
}

/// The whole-run launcher: party `i` runs on its own thread over the
/// transport `connect(i, seeds[i])` builds, all parties recording into
/// the one `stats` their transports share and into one disclosure log.
fn run_local<S, X, T, C>(
    parties: &[S],
    cfg: &SecureScanConfig,
    triples: Vec<Option<PartyTriples>>,
    stats: &NetworkStats,
    seeds: Vec<X>,
    connect: C,
) -> Result<SecureScanOutput, CoreError>
where
    S: SummandSource,
    X: Send,
    T: FrameTransport + 'static,
    C: Fn(usize, X) -> Result<T, dash_mpc::MpcError> + Sync,
{
    let audit = DisclosureLog::new();
    let seeds: Vec<_> = seeds.into_iter().zip(parties).zip(triples).collect();
    let results = Network::run_parties_over(seeds, |i, ((seed, data), triples)| {
        let transport = connect(i, seed)?;
        run_party(data, cfg, transport, audit.clone(), triples, None)
    });

    // Flatten each party's slot: the outer Result carries panics
    // (PartyFailed), the inner one connect and protocol errors. Either
    // way the run fails with a structured error, never a hang or a
    // process panic.
    let mut results = results
        .into_iter()
        .map(|slot| slot.map_err(CoreError::from).and_then(|r| r));
    let first = results.next().ok_or(CoreError::NoParties)??;
    for r in results {
        let r = r?;
        debug_assert!(
            same_bits(&r, &first),
            "parties derived different results from identical opened values"
        );
    }
    Ok(assemble_output(first, stats, &audit, parties.len()))
}

/// Bit-for-bit equality of two results: unlike `==` on the `f64`
/// fields, a degenerate variant's NaN statistics compare equal to
/// themselves.
fn same_bits(a: &ScanResult, b: &ScanResult) -> bool {
    fn bits(r: &ScanResult) -> impl Iterator<Item = u64> + '_ {
        [&r.beta, &r.se, &r.t, &r.p]
            .into_iter()
            .flatten()
            .map(|v| v.to_bits())
    }
    (a.df, a.n_degenerate) == (b.df, b.n_degenerate) && bits(a).eq(bits(b))
}

/// Runs **one party's** side of the secure scan over an externally
/// established transport — a [`TcpTransport`] in a real multi-process
/// deployment, or any [`FrameTransport`] in tests. This is the
/// per-process counterpart of [`secure_scan`], which runs every party on
/// threads of one process.
///
/// The Beaver offline phase is reproduced locally: the trusted dealer is
/// a deterministic function of `(party count, seed)`, so every process
/// deals the full output and keeps its own slice — bit-identical to the
/// central dealing of the in-process path.
///
/// The returned [`SecureScanOutput`] is this process's view: `network`
/// counts **own outbound** traffic only (receivers never record, so the
/// sum over all party processes equals the in-process run's total), and
/// `disclosures` holds the openings this party records (party 0 records
/// the aggregates; per-party disclosures are recorded by their owner —
/// the union over processes equals the in-process shared log).
pub fn secure_scan_party_with<S, T>(
    data: &S,
    cfg: &SecureScanConfig,
    transport: T,
) -> Result<SecureScanOutput, CoreError>
where
    S: SummandSource,
    T: FrameTransport + 'static,
{
    secure_scan_party(data, cfg, transport, None)
}

/// [`secure_scan_party_with`] with crash-recovery checkpoints: the run
/// persists its deterministic protocol state to
/// [`checkpoint::checkpoint_path`]`(policy.dir, id)` after the y round
/// and after every variant block, and — when `policy.resume_from` holds
/// a loaded [`checkpoint::Checkpoint`] — rejoins an interrupted run at
/// its last durable block boundary. The caller connects the transport
/// (with [`dash_mpc::tcp::TcpTransport::connect_resume`] and the
/// checkpoint's link cursors when resuming) before handing it in.
///
/// Restrictions, each a structured [`CoreError::Checkpoint`]: the
/// blocked pipeline must be on (`block_size`), the aggregation mode must
/// not be Beaver (its y aggregate stays secret-shared across blocks, and
/// share material must never touch disk), the transport must have
/// durable link identity (TCP), and the deterministic fault injector
/// cannot be combined with checkpointing (replayed faults would desync
/// its per-message schedule).
pub fn secure_scan_party_checkpointed<S, T>(
    data: &S,
    cfg: &SecureScanConfig,
    transport: T,
    policy: &checkpoint::CheckpointPolicy,
) -> Result<SecureScanOutput, CoreError>
where
    S: SummandSource,
    T: FrameTransport + 'static,
{
    secure_scan_party(data, cfg, transport, Some(policy))
}

/// The per-process run body behind [`secure_scan_party_with`] and
/// [`secure_scan_party_checkpointed`].
fn secure_scan_party<S, T>(
    data: &S,
    cfg: &SecureScanConfig,
    transport: T,
    policy: Option<&checkpoint::CheckpointPolicy>,
) -> Result<SecureScanOutput, CoreError>
where
    S: SummandSource,
    T: FrameTransport + 'static,
{
    let (id, p) = (transport.id(), transport.n_parties());
    let m = data.n_variants();
    check_covariate_rows(data)?;
    validate_config(cfg, m)?;
    if policy.is_some() && cfg.faults.is_some() {
        return Err(CoreError::Checkpoint {
            what: "checkpointing cannot be combined with the deterministic fault \
                   injector; use the socket-level chaos proxy instead"
                .to_string(),
        });
    }
    let k = data.covariates().cols();
    let triples = deal_triples(cfg, p, m, k)?.into_iter().nth(id).flatten();

    let stats = Arc::clone(transport.stats());
    let audit = DisclosureLog::new();
    let result = run_party(data, cfg, transport, audit.clone(), triples, policy)?;
    Ok(assemble_output(result, &stats, &audit, p))
}

/// One party's protocol run over `transport`, wrapped in the
/// deterministic fault injector when the configuration asks for one.
/// The transport is torn down before this returns, so every reader
/// thread has exited and the traffic counters are final.
fn run_party<S, T>(
    data: &S,
    cfg: &SecureScanConfig,
    transport: T,
    audit: DisclosureLog,
    mut triples: Option<PartyTriples>,
    policy: Option<&checkpoint::CheckpointPolicy>,
) -> Result<ScanResult, CoreError>
where
    S: SummandSource,
    T: FrameTransport + 'static,
{
    let transport: Box<dyn Transport> = match cfg.faults {
        Some(plan) => Box::new(FaultyTransport::new(transport, plan)),
        None => Box::new(transport),
    };
    let mut ctx = PartyCtx::with_transport(transport, cfg.transport_config(), cfg.seed, audit);
    protocol::party_protocol(&mut ctx, data, cfg, triples.as_mut(), policy)
}

/// Deals the Beaver material of a run — one slot per party, `None`
/// everywhere unless the strict aggregation mode needs triples.
fn deal_triples(
    cfg: &SecureScanConfig,
    p: usize,
    m: usize,
    k: usize,
) -> Result<Vec<Option<PartyTriples>>, CoreError> {
    if cfg.aggregation != AggregationMode::BeaverDots || k == 0 {
        return Ok((0..p).map(|_| None).collect());
    }
    let mut dealer = TrustedDealer::new(p, cfg.seed)?;
    Ok(dealer
        .deal_inners(k, 2 * m + 1)
        .into_iter()
        .map(Some)
        .collect())
}

/// Builds a run's output from its result and the traffic and openings
/// recorded in `stats` and `audit`.
fn assemble_output(
    result: ScanResult,
    stats: &NetworkStats,
    audit: &DisclosureLog,
    n_parties: usize,
) -> SecureScanOutput {
    // The tag-keyed per-block counters must partition the recorded
    // traffic exactly: every frame is attributed to exactly one block or
    // to the unscoped protocol phases.
    debug_assert_eq!(
        stats.block_bytes_total() + stats.unscoped_bytes(),
        stats.total_bytes(),
        "per-block traffic counters must partition the run total"
    );
    SecureScanOutput {
        result,
        network: NetworkReport::from_stats(stats),
        disclosures: audit.entries(),
        n_parties,
        per_block_bytes: stats
            .per_block_traffic()
            .into_iter()
            .map(|(_, bytes, _)| bytes)
            .collect(),
    }
}
