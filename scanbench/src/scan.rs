//! One secure scan through a public entry point, with its result, cost
//! and timing, and the correctness check every timed scan passes.

use crate::clock::{runqueue_wait_ns, thread_cpu_ns};
use crate::timed::mark_party_thread;
use dash_core::secure::checkpoint::{self, Checkpoint, CheckpointPolicy};
use dash_core::secure::{
    secure_scan_party_checkpointed, secure_scan_party_with, secure_scan_with, NetworkReport,
    SecureScanConfig, SecureScanOutput, SummandSource,
};
use dash_core::{CoreError, ScanResult};
use dash_mpc::net::NetworkStats;
use dash_mpc::tcp::{TcpConfig, TcpTransport};
use dash_mpc::transport::FrameTransport;
use dash_mpc::{Disclosure, MpcError, TraceHandle};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// E1's tolerance: the largest relative difference of β̂, σ̂, t and p
/// from pooled plaintext `associate` a correct scan may show.
pub const TOLERANCE: f64 = 1e-6;

/// Wall, CPU and run-queue time of one party thread.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadTimes {
    /// Wall seconds from the party's first protocol call to its result.
    pub wall_s: f64,
    /// CPU seconds the party thread itself consumed.
    pub cpu_s: f64,
    /// Seconds the party thread was runnable but waited for a core.
    pub runq_s: f64,
}

/// Wire counters of one scan, summed over every party's accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Wire {
    /// Bytes over all links.
    pub bytes: u64,
    /// Messages over all links.
    pub messages: u64,
    /// Send retries.
    pub retries: u64,
    /// Receive deadline expiries.
    pub timeouts: u64,
    /// Link re-establishments.
    pub reconnects: u64,
    /// Heartbeat frames (not part of `bytes`/`messages`).
    pub heartbeats: u64,
}

impl Wire {
    fn from_stats(stats: &[Arc<NetworkStats>]) -> Wire {
        stats.iter().fold(Wire::default(), |w, s| Wire {
            bytes: w.bytes + s.total_bytes(),
            messages: w.messages + s.total_messages(),
            retries: w.retries + s.total_retries(),
            timeouts: w.timeouts + s.total_timeouts(),
            reconnects: w.reconnects + s.total_reconnects(),
            heartbeats: w.heartbeats + s.total_heartbeats(),
        })
    }

    fn from_report(r: &NetworkReport) -> Wire {
        Wire {
            bytes: r.total_bytes,
            messages: r.total_messages,
            retries: r.total_retries,
            timeouts: r.total_timeouts,
            ..Wire::default()
        }
    }
}

/// Everything one scan produced.
#[derive(Debug, Clone)]
pub struct Scan {
    /// Each party's result (one entry on the in-process path, which
    /// returns party 0's after checking the others agree).
    pub results: Vec<ScanResult>,
    /// Each accounting sink's network report: one for a shared sink, one
    /// per party on the per-party path (each counts its own sends).
    pub reports: Vec<NetworkReport>,
    /// Wire totals over all sinks.
    pub wire: Wire,
    /// Every disclosure, the union over parties.
    pub disclosures: Vec<Disclosure>,
    /// Wall seconds from the first protocol call to every party's result.
    pub scan_s: f64,
    /// Per-party thread times (per-party path only).
    pub threads: Vec<ThreadTimes>,
    /// Summed size of the parties' final checkpoint files.
    pub checkpoint_bytes: u64,
    /// Party 0's final checkpoint, loaded back from disk.
    pub final_checkpoint: Option<Checkpoint>,
}

impl Scan {
    /// Scalars opened in this scan.
    pub fn opened_scalars(&self) -> u64 {
        self.disclosures.iter().map(|d| d.scalars as u64).sum()
    }

    /// Scalars opened that derive from a single party's data.
    pub fn party_scalars(&self) -> u64 {
        self.disclosures
            .iter()
            .filter(|d| d.source_party.is_some())
            .map(|d| d.scalars as u64)
            .sum()
    }

    /// The disclosure multiset in a canonical order.
    pub fn disclosure_multiset(&self) -> Vec<(Option<usize>, String, usize)> {
        let mut v: Vec<_> = self
            .disclosures
            .iter()
            .map(|d| (d.source_party, d.label.clone(), d.scalars))
            .collect();
        v.sort();
        v
    }

    /// Checks every party agrees and the result matches the pooled
    /// plaintext `reference` within [`TOLERANCE`].
    pub fn check(&self, reference: &ScanResult) -> Result<(), String> {
        let first = self.results.first().ok_or("scan returned no result")?;
        if let Some(i) = self.results.iter().position(|r| r != first) {
            return Err(format!("party {i} disagrees with party 0"));
        }
        match first.max_rel_diff(reference) {
            Some(d) if d < TOLERANCE => Ok(()),
            Some(d) => Err(format!(
                "max relative difference {d:e} from pooled plaintext exceeds {TOLERANCE:e}"
            )),
            None => Err("result length differs from pooled plaintext".into()),
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs `secure_scan_with` over the in-memory mesh.
pub fn in_process<S: SummandSource>(parties: &[S], cfg: &SecureScanConfig) -> Result<Scan, String> {
    let t0 = Instant::now();
    let out = secure_scan_with(parties, cfg).map_err(err)?;
    let scan_s = t0.elapsed().as_secs_f64();
    Ok(Scan {
        results: vec![out.result],
        wire: Wire::from_report(&out.network),
        reports: vec![out.network],
        disclosures: out.disclosures,
        scan_s,
        threads: Vec::new(),
        checkpoint_bytes: 0,
        final_checkpoint: None,
    })
}

/// A connected loopback mesh, one transport per party.
#[derive(Debug)]
pub struct Mesh {
    /// Party `i`'s transport at index `i`.
    pub transports: Vec<TcpTransport>,
    /// Party `i`'s own accounting sink, as in one process per party.
    pub stats: Vec<Arc<NetworkStats>>,
    /// Wall seconds from binding the listeners to every party connected.
    pub setup_s: f64,
    /// The slowest party's `TcpTransport::connect`, handshakes included.
    pub slowest_connect_s: f64,
}

/// Binds `p` port-0 loopback listeners, then connects every party
/// concurrently. Binding first means no dial ever meets a closed port,
/// so the dial loop's jittered backoff never runs.
pub fn connect_mesh(p: usize, cfg: TcpConfig) -> Result<Mesh, String> {
    let t0 = Instant::now();
    let listeners = (0..p)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let addrs = listeners
        .iter()
        .map(TcpListener::local_addr)
        .collect::<Result<Vec<SocketAddr>, _>>()
        .map_err(err)?;
    let stats: Vec<Arc<NetworkStats>> = (0..p)
        .map(|_| Arc::new(NetworkStats::with_trace(p, TraceHandle::disabled())))
        .collect();
    let connected: Vec<Result<(TcpTransport, f64), MpcError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .zip(&stats)
            .enumerate()
            .map(|(i, (listener, stats))| {
                let addrs = &addrs;
                let stats = Arc::clone(stats);
                scope.spawn(move || {
                    let t = Instant::now();
                    let tcp = TcpTransport::connect(i, listener, addrs, cfg, stats)?;
                    Ok((tcp, t.elapsed().as_secs_f64()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(MpcError::Handshake {
                        peer: 0,
                        reason: "connect thread panicked".into(),
                    })
                })
            })
            .collect()
    });
    let mut transports = Vec::with_capacity(p);
    let mut slowest_connect_s = 0.0f64;
    for c in connected {
        let (tcp, s) = c.map_err(err)?;
        transports.push(tcp);
        slowest_connect_s = slowest_connect_s.max(s);
    }
    Ok(Mesh {
        transports,
        stats,
        setup_s: t0.elapsed().as_secs_f64(),
        slowest_connect_s,
    })
}

/// Runs every party's side of the scan on its own thread through the
/// per-party entry point: `secure_scan_party_checkpointed` writing into
/// `checkpoint_dir` when given, `secure_scan_party_with` otherwise.
///
/// `stats` lists the accounting sinks the transports record into (one
/// shared sink, or one per party); wire totals are read from them once
/// every party has finished.
pub fn per_party<S, T>(
    datas: &[S],
    transports: Vec<T>,
    stats: &[Arc<NetworkStats>],
    cfg: &SecureScanConfig,
    checkpoint_dir: Option<&Path>,
) -> Result<Scan, String>
where
    S: SummandSource,
    T: FrameTransport + 'static,
{
    if datas.len() != transports.len() {
        return Err(format!(
            "{} parties' data for {} transports",
            datas.len(),
            transports.len()
        ));
    }
    let n = transports.len();
    let t0 = Instant::now();
    let runs: Vec<(Result<SecureScanOutput, CoreError>, ThreadTimes)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = datas
                .iter()
                .zip(transports)
                .map(|(data, transport)| {
                    scope.spawn(move || {
                        mark_party_thread();
                        let (rq0, cpu0, wall0) =
                            (runqueue_wait_ns(), thread_cpu_ns(), Instant::now());
                        let out = match checkpoint_dir {
                            Some(dir) => {
                                // As `dash party` does: advertise the (empty)
                                // durable cursors before the first frame.
                                transport.note_durable(&vec![0; n]);
                                let policy = CheckpointPolicy {
                                    dir: dir.to_path_buf(),
                                    resume_from: None,
                                    crash_after_block: None,
                                };
                                secure_scan_party_checkpointed(data, cfg, transport, &policy)
                            }
                            None => secure_scan_party_with(data, cfg, transport),
                        };
                        let times = ThreadTimes {
                            wall_s: wall0.elapsed().as_secs_f64(),
                            cpu_s: thread_cpu_ns().saturating_sub(cpu0) as f64 * 1e-9,
                            runq_s: runqueue_wait_ns().saturating_sub(rq0) as f64 * 1e-9,
                        };
                        (out, times)
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(i, h)| {
                    h.join().unwrap_or_else(|_| {
                        (
                            Err(CoreError::Mpc(MpcError::PartyFailed {
                                party: i,
                                reason: "party thread panicked".into(),
                            })),
                            ThreadTimes::default(),
                        )
                    })
                })
                .collect()
        });
    let scan_s = t0.elapsed().as_secs_f64();

    let mut results = Vec::with_capacity(n);
    let mut disclosures = Vec::new();
    let mut threads = Vec::with_capacity(n);
    for (i, (out, times)) in runs.into_iter().enumerate() {
        let out = out.map_err(|e| format!("party {i}: {e}"))?;
        results.push(out.result);
        disclosures.extend(out.disclosures);
        threads.push(times);
    }
    let (checkpoint_bytes, final_checkpoint) = match checkpoint_dir {
        Some(dir) => final_checkpoints(dir, n)?,
        None => (0, None),
    };
    Ok(Scan {
        results,
        reports: stats.iter().map(|s| NetworkReport::from_stats(s)).collect(),
        wire: Wire::from_stats(stats),
        disclosures,
        scan_s,
        threads,
        checkpoint_bytes,
        final_checkpoint,
    })
}

/// Summed size of every party's final checkpoint and party 0's state.
fn final_checkpoints(dir: &Path, n: usize) -> Result<(u64, Option<Checkpoint>), String> {
    let mut bytes = 0;
    for i in 0..n {
        bytes += std::fs::metadata(checkpoint::checkpoint_path(dir, i))
            .map_err(|e| format!("party {i} wrote no checkpoint: {e}"))?
            .len();
    }
    let first = checkpoint::load(&checkpoint::checkpoint_path(dir, 0)).map_err(err)?;
    Ok((bytes, Some(first)))
}
