//! Seam fidelity: a scan run through `TimedSource` / `TimedTransport`
//! must be bit-identical to the unwrapped scan — every party's
//! `ScanResult`, the `NetworkReport`s and the disclosure multiset — on
//! the in-process mesh, over TCP, and on the checkpointed path, where the
//! wrapper must also hand `link_snapshot` / `note_durable` through.

use dash_core::secure::checkpoint::Checkpoint;
use dash_core::secure::{AggregationMode, RFactorMode};
use dash_core::PartyData;
use dash_mpc::net::{Message, NetworkStats};
use dash_mpc::transport::{FrameTransport, LinkSnapshot, Transport};
use dash_mpc::{MpcError, Network};
use dash_scanbench::scan::{connect_mesh, in_process, per_party, Scan};
use dash_scanbench::timed::{TimedSource, TimedTransport, TransportProbe};
use dash_scanbench::workload::{party_tcp_config, Path, Workload};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The named workload at a shape small enough for a unit test.
fn small(name: &str) -> Workload {
    let w = Workload::by_name(name).unwrap();
    Workload {
        sizes: &[30, 45, 25],
        m: 40,
        block: 16,
        ..w
    }
}

fn assert_identical(wrapped: &Scan, plain: &Scan) {
    assert_eq!(wrapped.results, plain.results, "scan results differ");
    assert_eq!(wrapped.reports, plain.reports, "network reports differ");
    assert_eq!(
        wrapped.disclosure_multiset(),
        plain.disclosure_multiset(),
        "disclosure multisets differ"
    );
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("fidelity-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wrapped_sources(parties: &[PartyData]) -> Vec<TimedSource<'_, PartyData>> {
    parties.iter().map(TimedSource::new).collect()
}

#[test]
fn in_process_path_is_unchanged_by_the_seams() {
    let w = small("rdemo_wide");
    let parties = w.parties(3);
    let cfg = w.config(3);
    let reference = dash_core::associate(&dash_core::pool_parties(&parties).unwrap()).unwrap();

    let entry = in_process(&parties, &cfg).unwrap();

    let (endpoints, stats) = Network::endpoints(w.n_parties()).unwrap();
    let plain = per_party(&parties, endpoints, &[stats], &cfg, None).unwrap();

    let sources = wrapped_sources(&parties);
    let (endpoints, stats) = Network::endpoints(w.n_parties()).unwrap();
    let (transports, probes): (Vec<_>, Vec<TransportProbe>) =
        endpoints.into_iter().map(TimedTransport::new).unzip();
    let wrapped = per_party(&sources, transports, &[stats], &cfg, None).unwrap();

    assert_identical(&wrapped, &plain);
    // The per-party path over the same mesh reproduces the in-process
    // entry point exactly, so the traced run describes the timed one.
    assert_eq!(wrapped.results[0], entry.results[0]);
    assert_eq!(wrapped.reports, entry.reports);
    assert_eq!(wrapped.disclosure_multiset(), entry.disclosure_multiset());
    wrapped.check(&reference).unwrap();

    let sends: u64 = probes.iter().map(|p| p.totals().send.calls).sum();
    assert_eq!(
        sends, wrapped.wire.messages,
        "every message passed the seam"
    );
    assert!(sources.iter().all(|s| s.totals().calls > 0));
}

#[test]
fn tcp_path_is_unchanged_by_the_seams() {
    let w = small("strict_tcp");
    let parties = w.parties(5);
    let cfg = w.config(5);

    let mesh = connect_mesh(w.n_parties(), party_tcp_config(5)).unwrap();
    let plain = per_party(&parties, mesh.transports, &mesh.stats, &cfg, None).unwrap();

    let sources = wrapped_sources(&parties);
    let mesh = connect_mesh(w.n_parties(), party_tcp_config(5)).unwrap();
    let (transports, probes): (Vec<_>, Vec<TransportProbe>) =
        mesh.transports.into_iter().map(TimedTransport::new).unzip();
    let wrapped = per_party(&sources, transports, &mesh.stats, &cfg, None).unwrap();

    assert_identical(&wrapped, &plain);
    assert_eq!(wrapped.reports.len(), w.n_parties(), "one report per party");
    let recvs: u64 = probes.iter().map(|p| p.totals().recv.calls).sum();
    assert_eq!(recvs, wrapped.wire.messages, "every message was received");
}

/// An inner transport that records the checkpoint calls it receives, to
/// prove the timed wrapper delegates them rather than swallowing them.
#[derive(Debug)]
struct Spy<T> {
    inner: T,
    snapshots: Arc<AtomicU64>,
    durable_notes: Arc<AtomicU64>,
}

impl<T: FrameTransport> Transport for Spy<T> {
    fn id(&self) -> usize {
        self.inner.id()
    }
    fn n_parties(&self) -> usize {
        self.inner.n_parties()
    }
    fn stats(&self) -> &Arc<NetworkStats> {
        self.inner.stats()
    }
    fn send_words(&self, to: usize, tag: u32, words: &[u64]) -> Result<(), MpcError> {
        self.inner.send_words(to, tag, words)
    }
    fn recv_words_timeout(
        &self,
        from: usize,
        tag: u32,
        deadline: Duration,
    ) -> Result<Vec<u64>, MpcError> {
        self.inner.recv_words_timeout(from, tag, deadline)
    }
    fn link_snapshot(&self) -> Option<LinkSnapshot> {
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        self.inner.link_snapshot()
    }
    fn note_durable(&self, recv_next: &[u64]) {
        self.durable_notes.fetch_add(1, Ordering::Relaxed);
        self.inner.note_durable(recv_next);
    }
}

impl<T: FrameTransport> FrameTransport for Spy<T> {
    fn alloc_seq(&self, to: usize) -> Result<u64, MpcError> {
        self.inner.alloc_seq(to)
    }
    fn send_frame(&self, to: usize, msg: Message) -> Result<(), MpcError> {
        self.inner.send_frame(to, msg)
    }
}

/// The deterministic part of a checkpoint: everything but the replay
/// backlog, whose pruning follows heartbeat timing.
fn deterministic(mut c: Checkpoint) -> Checkpoint {
    if let Some(links) = c.links.as_mut() {
        links.replay.clear();
    }
    c
}

#[test]
fn checkpointed_path_delegates_link_state() {
    // The `dash party --checkpoint-dir` shape: K = 16, star aggregation
    // over supervised TCP, a checkpoint at every block boundary.
    let w = Workload {
        name: "checkpointed",
        k: 16,
        rfactor: RFactorMode::GramAggregate,
        aggregation: AggregationMode::MaskedStar,
        path: Path::Tcp,
        ..small("strict_tcp")
    };
    let parties = w.parties(9);
    let cfg = w.config(9);

    let dir = scratch("plain");
    let mesh = connect_mesh(w.n_parties(), party_tcp_config(9)).unwrap();
    let plain = per_party(&parties, mesh.transports, &mesh.stats, &cfg, Some(&dir)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let dir = scratch("wrapped");
    let sources = wrapped_sources(&parties);
    let snapshots = Arc::new(AtomicU64::new(0));
    let durable_notes = Arc::new(AtomicU64::new(0));
    let mesh = connect_mesh(w.n_parties(), party_tcp_config(9)).unwrap();
    let transports: Vec<_> = mesh
        .transports
        .into_iter()
        .map(|inner| {
            let spy = Spy {
                inner,
                snapshots: Arc::clone(&snapshots),
                durable_notes: Arc::clone(&durable_notes),
            };
            TimedTransport::new(spy).0
        })
        .collect();
    let wrapped = per_party(&sources, transports, &mesh.stats, &cfg, Some(&dir)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    assert_identical(&wrapped, &plain);
    // Every party reaches the transport under the timed wrapper with the
    // opening capability probe plus one snapshot per checkpoint (after
    // the y round and after each block), and with the opening empty
    // durable note plus one per durable checkpoint.
    let calls = w.n_parties() as u64 * (w.m.div_ceil(w.block) as u64 + 2);
    assert_eq!(snapshots.load(Ordering::Relaxed), calls);
    assert_eq!(durable_notes.load(Ordering::Relaxed), calls);

    let (a, b) = (
        wrapped.final_checkpoint.clone().unwrap(),
        plain.final_checkpoint.clone().unwrap(),
    );
    assert!(a.links.is_some(), "the checkpoint carries link cursors");
    assert_eq!(deterministic(a), deterministic(b));
    assert_eq!(wrapped.checkpoint_bytes > 0, plain.checkpoint_bytes > 0);
}

#[test]
fn check_rejects_disagreement_and_drift() {
    let w = small("rdemo_wide");
    let parties = w.parties(11);
    let reference = dash_core::associate(&dash_core::pool_parties(&parties).unwrap()).unwrap();
    let good = in_process(&parties, &w.config(11)).unwrap();
    good.check(&reference).unwrap();

    let mut drifted = good.clone();
    drifted.results[0].beta[0] *= 1.0 + 1e-4;
    assert!(drifted.check(&reference).is_err());

    let mut split = good.clone();
    let mut other = good.results[0].clone();
    other.p[1] += 1e-12;
    split.results.push(other);
    assert!(split.check(&reference).is_err());
}
