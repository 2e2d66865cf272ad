//! The benchmark's workloads: shapes, security modes and entry points.

use dash_core::secure::{AggregationMode, RFactorMode, SecureScanConfig};
use dash_core::PartyData;
use dash_mpc::tcp::{LinkSupervision, TcpConfig};

/// Which public entry point a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `secure_scan_with`: every party on a thread of one process over
    /// the in-memory mesh (the `dash secure-scan` path).
    InProcess,
    /// `secure_scan_party_with`, one per party, over loopback
    /// `TcpTransport` (the `dash party` path).
    Tcp,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Samples per party.
    pub sizes: &'static [usize],
    /// Variants M.
    pub m: usize,
    /// Permanent covariates K.
    pub k: usize,
    /// Variant-block size B of the blocked pipeline.
    pub block: usize,
    /// QR-phase mode.
    pub rfactor: RFactorMode,
    /// Aggregation mode.
    pub aggregation: AggregationMode,
    /// Entry point.
    pub path: Path,
}

/// Every workload the benchmark runs.
pub const WORKLOADS: [Workload; 2] = [
    // The paper's §4 R-demo shape scaled to M = 16384: X is 590 MB,
    // several times the last-level cache, so the summand kernel streams.
    Workload {
        name: "rdemo_wide",
        sizes: &[1000, 2000, 1500],
        m: 16384,
        k: 3,
        block: 2048,
        rfactor: RFactorMode::PublicStack,
        aggregation: AggregationMode::MaskedPrg,
        path: Path::InProcess,
    },
    // The strictest rung over sockets: Beaver/F61 arithmetic, the dealer,
    // framing and the wire dominate; the kernel is small.
    Workload {
        name: "strict_tcp",
        sizes: &[100, 100, 100],
        m: 65536,
        k: 3,
        block: 1024,
        rfactor: RFactorMode::GramAggregate,
        aggregation: AggregationMode::BeaverDots,
        path: Path::Tcp,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Number of parties.
    pub fn n_parties(&self) -> usize {
        self.sizes.len()
    }

    /// The scan configuration: the workload's modes, protocol randomness
    /// from `seed`, the blocked pipeline with one worker per party.
    pub fn config(&self, seed: u64) -> SecureScanConfig {
        SecureScanConfig {
            rfactor: self.rfactor,
            aggregation: self.aggregation,
            seed,
            block_size: Some(self.block),
            threads: 1,
            ..SecureScanConfig::default()
        }
    }

    /// The parties' inputs, generated from `seed`.
    pub fn parties(&self, seed: u64) -> Vec<PartyData> {
        dash_bench::workloads::normal_parties(self.sizes, self.m, self.k, seed)
    }

    /// Whether the parties talk over loopback TCP.
    pub fn is_tcp(&self) -> bool {
        self.path != Path::InProcess
    }
}

/// The socket policy `dash party` runs with by default: its connect
/// timeouts and retries, and link supervision (heartbeats, liveness
/// verdicts, reconnection) switched on.
pub fn party_tcp_config(run_id: u64) -> TcpConfig {
    TcpConfig {
        run_id,
        supervision: Some(LinkSupervision::default()),
        ..TcpConfig::default()
    }
}
