//! The measurement loop: one closed-loop client thread, one scan at a
//! time, each checked before the next starts.

use crate::clock::{median, peak_rss_mb};
use crate::layers;
use crate::scan::{self, connect_mesh, per_party, Scan, Wire};
use crate::timed::{CallTotals, TimedSource, TimedTransport, TransportTotals};
use crate::workload::{party_tcp_config, Path, Workload};
use dash_core::secure::SecureScanConfig;
use dash_core::{associate, pool_parties, PartyData, ScanResult};
use dash_mpc::Network;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Times the parties' inputs are built during set-up.
const SETUP_REPS: usize = 5;
/// Timed iterations every run makes however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;
/// Repetitions of each isolated layer timing.
const LAYER_REPS: usize = 5;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the inputs and of the protocol randomness.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str =
    "usage: scanbench --workload <rdemo_wide|strict_tcp> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = |what: &str| format!("{flag} {value}: expected {what}\n{USAGE}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| *s > 0.0)
                            .ok_or_else(|| bad("a positive number"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
            }
        }
        let missing = |f: &str| format!("missing {f}\n{USAGE}");
        Ok(Args {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every scan matched the plaintext reference and repeated the first
    /// scan's exact wire and disclosure counts.
    pub correct: bool,
    /// Secure and plaintext scans attempted (warm-up included).
    pub attempted: u64,
    /// Attempts that errored or failed their check.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A scratch directory `.scanbench_tmp/<pid>-<name>` in the working
/// directory, removed with its contents on drop. The directory itself is
/// created by whoever writes into it.
#[derive(Debug)]
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> ScratchDir {
        ScratchDir(PathBuf::from(".scanbench_tmp").join(format!("{}-{name}", std::process::id())))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other scratch directory is left.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Counts that must repeat exactly from scan to scan: wire bytes, wire
/// messages, opened scalars, scalars from one party's data.
type Counts = [u64; 4];

fn counts(scan: &Scan) -> Counts {
    [
        scan.wire.bytes,
        scan.wire.messages,
        scan.opened_scalars(),
        scan.party_scalars(),
    ]
}

/// Per-layer figures of one traced scan, summed over parties.
#[derive(Debug, Clone, Copy, Default)]
struct LayerSample {
    suffstats: CallTotals,
    transport: TransportTotals,
    protocol_self_s: f64,
    protocol_self_cpu_s: f64,
    party_cpu_s: f64,
    runq_s: f64,
    connect_s: Option<f64>,
    wire: Wire,
}

fn add(a: CallTotals, b: CallTotals) -> CallTotals {
    CallTotals {
        calls: a.calls + b.calls,
        wall_s: a.wall_s + b.wall_s,
        cpu_s: a.cpu_s + b.cpu_s,
        party_wall_s: a.party_wall_s + b.party_wall_s,
        party_cpu_s: a.party_cpu_s + b.party_cpu_s,
        elems: a.elems + b.elems,
    }
}

/// The state one run measures against.
struct Bench {
    w: Workload,
    seed: u64,
    cfg: SecureScanConfig,
    parties: Vec<PartyData>,
    pooled: PartyData,
    reference: ScanResult,
    /// The counts of the first good scan.
    expected: Option<Counts>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Bench {
    /// One untraced scan through the workload's entry point, plus the
    /// mesh set-up time on TCP.
    fn scan(&mut self) -> Result<(Scan, Option<f64>), String> {
        if self.w.path == Path::InProcess {
            return Ok((scan::in_process(&self.parties, &self.cfg)?, None));
        }
        let mesh = connect_mesh(self.w.n_parties(), party_tcp_config(self.seed))?;
        let scan = per_party(&self.parties, mesh.transports, &mesh.stats, &self.cfg, None)?;
        Ok((scan, Some(mesh.setup_s)))
    }

    /// One scan through the per-party entry point with every party's
    /// source and transport wrapped in the timed seams.
    fn traced_scan(&mut self) -> Result<(Scan, LayerSample), String> {
        let sources: Vec<TimedSource<PartyData>> =
            self.parties.iter().map(TimedSource::new).collect();
        let (scan, probes, connect_s) = if self.w.path == Path::InProcess {
            let (endpoints, stats) =
                Network::endpoints(self.w.n_parties()).map_err(|e| e.to_string())?;
            let (transports, probes): (Vec<_>, Vec<_>) =
                endpoints.into_iter().map(TimedTransport::new).unzip();
            let scan = per_party(&sources, transports, &[stats], &self.cfg, None)?;
            (scan, probes, None)
        } else {
            let mesh = connect_mesh(self.w.n_parties(), party_tcp_config(self.seed))?;
            let (transports, probes): (Vec<_>, Vec<_>) =
                mesh.transports.into_iter().map(TimedTransport::new).unzip();
            let scan = per_party(&sources, transports, &mesh.stats, &self.cfg, None)?;
            (scan, probes, Some(mesh.slowest_connect_s))
        };

        let mut s = LayerSample {
            connect_s,
            wire: scan.wire,
            ..LayerSample::default()
        };
        for ((src, probe), t) in sources.iter().zip(&probes).zip(&scan.threads) {
            let kernel = src.totals();
            let wire = probe.totals();
            s.suffstats = add(s.suffstats, kernel);
            s.transport.send = add(s.transport.send, wire.send);
            s.transport.recv = add(s.transport.recv, wire.recv);
            let wire_wall = wire.send.party_wall_s + wire.recv.party_wall_s;
            let wire_cpu = wire.send.party_cpu_s + wire.recv.party_cpu_s;
            s.protocol_self_s += t.wall_s - wire_wall - kernel.party_wall_s;
            s.protocol_self_cpu_s += t.cpu_s - wire_cpu - kernel.party_cpu_s;
            // The party's CPU: its own thread plus kernel work the blocked
            // pipeline ran on its producer thread.
            s.party_cpu_s += t.cpu_s + (kernel.cpu_s - kernel.party_cpu_s);
            s.runq_s += t.runq_s;
        }
        Ok((scan, s))
    }

    /// Counts one attempt; keeps the first errors for the report.
    fn tally<T>(&mut self, attempt: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        attempt
            .inspect_err(|e| {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e.clone());
                }
            })
            .ok()
    }

    /// Counts and checks one scan attempt; returns the scan if it passed.
    fn record(&mut self, attempt: Result<Scan, String>) -> Option<Scan> {
        let checked = attempt.and_then(|scan| {
            scan.check(&self.reference)?;
            let (got, expected) = (counts(&scan), *self.expected.get_or_insert(counts(&scan)));
            if got != expected {
                return Err(format!(
                    "wire/disclosure counts changed between scans: {got:?} vs {expected:?}"
                ));
            }
            Ok(scan)
        });
        self.tally(checked)
    }

    /// One pooled plaintext scan: its wall seconds, if it reproduces the
    /// reference bit for bit.
    fn plain_scan(&mut self) -> Option<f64> {
        let t = Instant::now();
        let result = associate(&self.pooled);
        let secs = t.elapsed().as_secs_f64();
        let checked = match result {
            Ok(r) if r == self.reference => Ok(secs),
            Ok(_) => Err("plaintext scan did not repeat its reference".to_string()),
            Err(e) => Err(format!("plaintext scan: {e}")),
        };
        self.tally(checked)
    }
}

/// Builds every party's `PartyData` from the generated inputs `reps`
/// times (each copy is dropped before the next, so at most one extra
/// copy is alive), keeping the last; returns it with the median time.
fn build_parties(generated: &[PartyData], reps: usize) -> Result<(Vec<PartyData>, f64), String> {
    let mut samples = Vec::with_capacity(reps);
    let mut built = Vec::new();
    for _ in 0..reps.max(1) {
        drop(std::mem::take(&mut built));
        let t = Instant::now();
        built = generated
            .iter()
            .map(|g| PartyData::new(g.y().to_vec(), g.x().clone(), g.c().clone()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok((built, median(&samples)))
}

/// Runs the benchmark for `args` and returns what it measured.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = Workload::by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}\n{USAGE}", args.workload))?;

    // Generating, pooling and the plaintext reference scan are untimed;
    // building the parties' `PartyData` from the inputs is set-up.
    let generated = w.parties(args.seed);
    let (parties, build_s) = build_parties(&generated, SETUP_REPS)?;
    drop(generated);
    let pooled = pool_parties(&parties).map_err(|e| e.to_string())?;
    let reference = associate(&pooled).map_err(|e| e.to_string())?;

    let mut b = Bench {
        w,
        seed: args.seed,
        cfg: w.config(args.seed),
        parties,
        pooled,
        reference,
        expected: None,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    // Warm-up: fill caches and finish lazy set-up before timing.
    let warm = b.scan().map(|(s, _)| s);
    b.record(warm);

    let budget = Duration::from_secs_f64(args.seconds);
    let mut outcome = if args.trace {
        measure_layers(&mut b, budget)?
    } else {
        measure_end_to_end(&mut b, budget, build_s)
    };
    outcome
        .notes
        .extend(b.errors.iter().map(|e| format!("FAILED: {e}")));
    Ok(outcome)
}

fn done(start: Instant, budget: Duration, iterations: usize) -> bool {
    iterations >= MIN_ITERATIONS && start.elapsed() >= budget
}

fn measure_end_to_end(b: &mut Bench, budget: Duration, build_s: f64) -> Outcome {
    let (mut scan_s, mut plain_s, mut mesh_s) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut iterations = 0;
    while !done(start, budget, iterations) {
        iterations += 1;
        let attempt = b.scan();
        if let Ok((_, Some(setup))) = &attempt {
            mesh_s.push(*setup);
        }
        if let Some(scan) = b.record(attempt.map(|(s, _)| s)) {
            scan_s.push(scan.scan_s);
        }
        if let Some(s) = b.plain_scan() {
            plain_s.push(s);
        }
    }

    let [bytes, messages, opened, party] = b.expected.unwrap_or_default();
    let setup_s = build_s + if b.w.is_tcp() { median(&mesh_s) } else { 0.0 };
    let success_frac = (b.attempted - b.failed) as f64 / b.attempted as f64;
    let (scan_med, plain_med) = (median(&scan_s), median(&plain_s));
    let notes = vec![
        format!(
            "{}: {} cores; {} secure scans (median {scan_med:.4} s, p10-p90 {:.4}-{:.4} s), {} plaintext scans (median {plain_med:.4} s)",
            b.w.name,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            scan_s.len(),
            quantile(&scan_s, 0.1),
            quantile(&scan_s, 0.9),
            plain_s.len(),
        ),
        format!(
            "{}: setup {setup_s:.4} s (inputs {build_s:.4} s); {} bytes, {} messages, {opened} scalars opened ({party} from one party's data) per scan",
            b.w.name, bytes, messages
        ),
        format!(
            "{}: secure/plaintext time ratio {:.2} (information only, not a metric)",
            b.w.name,
            scan_med / plain_med
        ),
    ];
    Outcome {
        correct: b.failed == 0,
        attempted: b.attempted,
        failed: b.failed,
        metrics: vec![
            metric("scan_s", scan_med, "s"),
            metric("plain_scan_s", plain_med, "s"),
            metric("setup_s", setup_s, "s"),
            metric("wire_bytes", bytes as f64, "bytes"),
            metric("wire_messages", messages as f64, "count"),
            metric("opened_scalars", opened as f64, "count"),
            metric("success_frac", success_frac, "frac"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
        notes,
    }
}

fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[((n - 1) as f64 * q).round() as usize],
    }
}

fn measure_layers(b: &mut Bench, budget: Duration) -> Result<Outcome, String> {
    // Traced and untraced scans alternate in ABBA order, so both see the
    // same host and neither always runs first.
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut samples: Vec<LayerSample> = Vec::new();
    let start = Instant::now();
    let mut round = 0usize;
    while !done(start, budget, round) {
        for traced_turn in [!round.is_multiple_of(2), round.is_multiple_of(2)] {
            if !traced_turn {
                let untraced = b.scan().map(|(s, _)| s);
                if let Some(scan) = b.record(untraced) {
                    untraced_s.push(scan.scan_s);
                }
                continue;
            }
            let traced = b.traced_scan();
            let layer = traced.as_ref().ok().map(|(_, l)| *l);
            if let Some(scan) = b.record(traced.map(|(s, _)| s)) {
                traced_s.push(scan.scan_s);
                samples.extend(layer);
            }
        }
        round += 1;
    }

    // Isolated layers at the workload's shape.
    let w = b.w;
    let dealer_s = layers::dealer_s(&w, b.seed, LAYER_REPS)?;
    let stats = layers::pooled_stats(&b.pooled)?;
    let finalize_s = layers::finalize_s(&stats, b.pooled.n_samples(), w.k, LAYER_REPS)?;
    let rfactor_s = layers::rfactor_s(&w, &b.parties, 4 * LAYER_REPS)?;
    let connect_s = if w.is_tcp() {
        median(
            &samples
                .iter()
                .filter_map(|s| s.connect_s)
                .collect::<Vec<_>>(),
        )
    } else {
        let mut connects = Vec::new();
        for _ in 0..LAYER_REPS {
            connects.push(connect_mesh(w.n_parties(), party_tcp_config(b.seed))?.slowest_connect_s);
        }
        median(&connects)
    };
    let (checkpoint_bytes, save_s, load_s) = layers::checkpoint_io(
        &layers::shaped_checkpoint(&w, b.seed),
        &ScratchDir::new("checkpoint").0,
        LAYER_REPS,
    )?;

    let med = |f: &dyn Fn(&LayerSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let party_scalars = b.expected.map_or(0, |c| c[3]);
    let kernel_cpu = med(&|s| s.suffstats.cpu_s);
    let party_cpu = med(&|s| s.party_cpu_s);
    let wire_s = med(&|s| s.transport.send.wall_s + s.transport.recv.wall_s);
    let protocol_s = med(&|s| s.protocol_self_s);
    let overhead = median(&traced_s) / median(&untraced_s) - 1.0;
    let notes = vec![
        format!(
            "{}: {} traced scans; per scan over all parties: kernel {kernel_cpu:.4} CPU-s of {party_cpu:.4} party CPU-s ({:.0}%), transport {wire_s:.4} s, protocol self {protocol_s:.4} s",
            w.name,
            samples.len(),
            100.0 * kernel_cpu / party_cpu
        ),
        format!(
            "{}: traced scan {:.4} s vs untraced {:.4} s (overhead {:+.2}%)",
            w.name,
            median(&traced_s),
            median(&untraced_s),
            100.0 * overhead
        ),
    ];
    let metrics = vec![
        metric(
            "suffstats.calls",
            med(&|s| s.suffstats.calls as f64),
            "count",
        ),
        metric("suffstats.busy_s", med(&|s| s.suffstats.wall_s), "s"),
        metric("suffstats.cpu_s", kernel_cpu, "s"),
        metric(
            "suffstats.elems_per_s",
            med(&|s| s.suffstats.elems as f64 / s.suffstats.cpu_s),
            "1/s",
        ),
        metric(
            "suffstats.computed_bytes",
            med(&|s| 8.0 * s.suffstats.elems as f64),
            "bytes",
        ),
        metric(
            "transport.send_calls",
            med(&|s| s.transport.send.calls as f64),
            "count",
        ),
        metric("transport.send_s", med(&|s| s.transport.send.wall_s), "s"),
        metric(
            "transport.recv_calls",
            med(&|s| s.transport.recv.calls as f64),
            "count",
        ),
        metric(
            "transport.recv_wait_s",
            med(&|s| s.transport.recv.wall_s),
            "s",
        ),
        metric(
            "transport.cpu_s",
            med(&|s| s.transport.send.cpu_s + s.transport.recv.cpu_s),
            "s",
        ),
        metric(
            "transport.bytes_sent",
            med(&|s| s.wire.bytes as f64),
            "bytes",
        ),
        metric(
            "transport.retries",
            med(&|s| s.wire.retries as f64),
            "count",
        ),
        metric(
            "transport.timeouts",
            med(&|s| s.wire.timeouts as f64),
            "count",
        ),
        metric(
            "transport.reconnects",
            med(&|s| s.wire.reconnects as f64),
            "count",
        ),
        metric(
            "transport.heartbeats",
            med(&|s| s.wire.heartbeats as f64),
            "count",
        ),
        metric("protocol.self_s", protocol_s, "s"),
        metric("protocol.self_cpu_s", med(&|s| s.protocol_self_cpu_s), "s"),
        metric("party.cpu_s", party_cpu, "s"),
        metric("party.runq_wait_s", med(&|s| s.runq_s), "s"),
        metric("dealer.deal_s", dealer_s, "s"),
        metric("stats.finalize_s", finalize_s, "s"),
        metric("linalg.rfactor_s", rfactor_s, "s"),
        metric("tcp.connect_s", connect_s, "s"),
        metric("checkpoint.bytes", checkpoint_bytes as f64, "bytes"),
        metric("checkpoint.save_s", save_s, "s"),
        metric("checkpoint.load_s", load_s, "s"),
        metric("disclosure.party_scalars", party_scalars as f64, "count"),
        metric("bench.trace_overhead_frac", overhead, "frac"),
    ];
    Ok(Outcome {
        correct: b.failed == 0,
        attempted: b.attempted,
        failed: b.failed,
        metrics,
        notes,
    })
}
