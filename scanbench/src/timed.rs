//! Benchmark-side wrappers around the program's two public seams.
//!
//! [`TimedSource`] wraps any [`SummandSource`] (the per-block summand
//! kernel) and [`TimedTransport`] any [`FrameTransport`] (the wire). Each
//! call is delegated unchanged and timed around the call, so a scan run
//! through the wrappers computes, sends and discloses exactly what the
//! unwrapped scan does (pinned by `tests/fidelity.rs`). Nothing inside the
//! program is instrumented.
//!
//! Calls are attributed to the thread they ran on: the blocked pipeline
//! computes block summands on a producer thread the program spawns, while
//! the protocol and every transport call run on the party thread the
//! benchmark spawns (marked with [`mark_party_thread`]).

use crate::clock::thread_cpu_ns;
use dash_core::secure::SummandSource;
use dash_core::suffstats::{SuffStats, VariantSummands};
use dash_core::CoreError;
use dash_linalg::Matrix;
use dash_mpc::net::{Message, NetworkStats};
use dash_mpc::transport::{FrameTransport, LinkSnapshot, Transport};
use dash_mpc::MpcError;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

thread_local! {
    static ON_PARTY_THREAD: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as a party thread, so calls made on it are
/// attributed to the party thread's own time.
pub fn mark_party_thread() {
    ON_PARTY_THREAD.with(|c| c.set(true));
}

fn on_party_thread() -> bool {
    ON_PARTY_THREAD.with(Cell::get)
}

/// Call counts and time spent inside one kind of call.
#[derive(Debug, Default)]
pub struct CallClock {
    calls: AtomicU64,
    wall_ns: AtomicU64,
    cpu_ns: AtomicU64,
    party_wall_ns: AtomicU64,
    party_cpu_ns: AtomicU64,
    elems: AtomicU64,
}

/// A snapshot of a [`CallClock`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallTotals {
    /// Calls made.
    pub calls: u64,
    /// Wall seconds inside the calls, on any thread.
    pub wall_s: f64,
    /// Thread CPU seconds inside the calls, on any thread.
    pub cpu_s: f64,
    /// Wall seconds inside calls made on the party thread.
    pub party_wall_s: f64,
    /// Thread CPU seconds inside calls made on the party thread.
    pub party_cpu_s: f64,
    /// Work units the calls covered (matrix elements for the kernel).
    pub elems: u64,
}

impl CallClock {
    fn time<R>(&self, elems: u64, f: impl FnOnce() -> R) -> R {
        let cpu0 = thread_cpu_ns();
        let t0 = Instant::now();
        let out = f();
        let wall = t0.elapsed().as_nanos() as u64;
        let cpu = thread_cpu_ns().saturating_sub(cpu0);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.wall_ns.fetch_add(wall, Ordering::Relaxed);
        self.cpu_ns.fetch_add(cpu, Ordering::Relaxed);
        self.elems.fetch_add(elems, Ordering::Relaxed);
        if on_party_thread() {
            self.party_wall_ns.fetch_add(wall, Ordering::Relaxed);
            self.party_cpu_ns.fetch_add(cpu, Ordering::Relaxed);
        }
        out
    }

    /// The totals recorded so far.
    pub fn totals(&self) -> CallTotals {
        let s = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 * 1e-9;
        CallTotals {
            calls: self.calls.load(Ordering::Relaxed),
            wall_s: s(&self.wall_ns),
            cpu_s: s(&self.cpu_ns),
            party_wall_s: s(&self.party_wall_ns),
            party_cpu_s: s(&self.party_cpu_ns),
            elems: self.elems.load(Ordering::Relaxed),
        }
    }
}

/// A [`SummandSource`] that times every summand call of the source it
/// wraps. Work is counted as matrix elements read: `N_k` per variant
/// column, and `N_k` for the y round.
#[derive(Debug)]
pub struct TimedSource<'a, S> {
    inner: &'a S,
    clock: CallClock,
}

impl<'a, S: SummandSource> TimedSource<'a, S> {
    /// Wraps `inner`.
    pub fn new(inner: &'a S) -> Self {
        TimedSource {
            inner,
            clock: CallClock::default(),
        }
    }

    /// Time spent in summand calls so far.
    pub fn totals(&self) -> CallTotals {
        self.clock.totals()
    }
}

impl<S: SummandSource> SummandSource for TimedSource<'_, S> {
    fn n_samples(&self) -> usize {
        self.inner.n_samples()
    }
    fn n_variants(&self) -> usize {
        self.inner.n_variants()
    }
    fn covariates(&self) -> &Matrix {
        self.inner.covariates()
    }
    fn summands(&self, q: &Matrix) -> Result<SuffStats, CoreError> {
        let elems = (self.inner.n_samples() * (self.inner.n_variants() + 1)) as u64;
        self.clock.time(elems, || self.inner.summands(q))
    }
    fn y_summands(&self, q: &Matrix) -> Result<(f64, Vec<f64>), CoreError> {
        let elems = self.inner.n_samples() as u64;
        self.clock.time(elems, || self.inner.y_summands(q))
    }
    fn summands_block(
        &self,
        q: &Matrix,
        lo: usize,
        hi: usize,
    ) -> Result<VariantSummands, CoreError> {
        let elems = (self.inner.n_samples() * hi.saturating_sub(lo)) as u64;
        self.clock
            .time(elems, || self.inner.summands_block(q, lo, hi))
    }
}

/// The benchmark's handle on a [`TimedTransport`]'s clocks; it outlives
/// the transport, which the scan consumes and drops.
#[derive(Debug, Clone, Default)]
pub struct TransportProbe {
    send: Arc<CallClock>,
    recv: Arc<CallClock>,
}

/// A snapshot of a [`TransportProbe`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransportTotals {
    /// Sends (word sends and raw frame sends).
    pub send: CallTotals,
    /// Receives; their wall time is time spent blocked on a peer plus
    /// deframing.
    pub recv: CallTotals,
}

impl TransportProbe {
    /// The totals recorded so far.
    pub fn totals(&self) -> TransportTotals {
        TransportTotals {
            send: self.send.totals(),
            recv: self.recv.totals(),
        }
    }
}

/// A [`FrameTransport`] that times every send and receive of the
/// transport it wraps and delegates everything else, checkpoint link
/// state included.
#[derive(Debug)]
pub struct TimedTransport<T> {
    inner: T,
    probe: TransportProbe,
}

impl<T: FrameTransport> TimedTransport<T> {
    /// Wraps `inner`; the returned probe reads the clocks after the scan
    /// has consumed the transport.
    pub fn new(inner: T) -> (Self, TransportProbe) {
        let probe = TransportProbe::default();
        (
            TimedTransport {
                inner,
                probe: probe.clone(),
            },
            probe,
        )
    }
}

impl<T: FrameTransport> Transport for TimedTransport<T> {
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
        self.probe
            .send
            .time(0, || self.inner.send_words(to, tag, words))
    }
    fn recv_words_timeout(
        &self,
        from: usize,
        tag: u32,
        deadline: Duration,
    ) -> Result<Vec<u64>, MpcError> {
        self.probe
            .recv
            .time(0, || self.inner.recv_words_timeout(from, tag, deadline))
    }
    fn recv_words(&self, from: usize, tag: u32) -> Result<Vec<u64>, MpcError> {
        self.probe.recv.time(0, || self.inner.recv_words(from, tag))
    }
    fn link_snapshot(&self) -> Option<LinkSnapshot> {
        self.inner.link_snapshot()
    }
    fn note_durable(&self, recv_next: &[u64]) {
        self.inner.note_durable(recv_next);
    }
}

impl<T: FrameTransport> FrameTransport for TimedTransport<T> {
    fn alloc_seq(&self, to: usize) -> Result<u64, MpcError> {
        self.inner.alloc_seq(to)
    }
    fn send_frame(&self, to: usize, msg: Message) -> Result<(), MpcError> {
        self.probe.send.time(0, || self.inner.send_frame(to, msg))
    }
}
