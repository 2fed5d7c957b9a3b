//! End-to-end and per-layer benchmark of the RefFiL federation stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_digits_reffil --seed 1 --seconds 12 --trace 0
//! ```
//!
//! A run repeats the workload — set-up plus one full federated run, all
//! inputs made from `--seed` — until `--seconds` have passed, checks every
//! repetition's outputs, and prints one line per metric (value, unit,
//! sample count) followed by a JSON object as the last line of stdout.
//!
//! * `--trace 0` measures the end-to-end metrics with nothing traced. Each
//!   repetition runs in a fresh process of this binary (`--child 1`), as a
//!   user's federated run would: on a shared host the same work runs up to
//!   a third faster or slower from one process to the next (memory
//!   placement, core contention), and a per-run figure averaged over
//!   several processes is far steadier than one process measured longer.
//! * `--trace 1` alternates untraced and traced repetitions of the same
//!   inputs. The traced one passes delegating wrappers (`trace.rs`) into
//!   `FdilRunner::run_with_links`/`serve`, which time every call into the
//!   strategy, evaluation and transport layers from outside; it also reads
//!   the `RoundReport`s and `TrafficStats` the program emits, and replays
//!   the captured frames through the codec afterwards (`replay.rs`). The
//!   traced outputs must equal the untraced ones bit for bit.
//!
//! The load generator is one process with at most two busy threads: the
//! runner (or server) and, on served workloads, one thread pumping both
//! client replicas over two TCP connections. Exit codes: 0 all checks
//! passed, 1 an output check failed, 2 bad usage or environment, 3 the
//! run overran its time limit.

mod replay;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use refil_fed::{
    client_handshake, connect, run_clients_pumped, ClientOptions, Endpoint, FdilRunner,
    FdilStrategy, Link, Listener, Loopback, NetListener, RunResult, Telemetry,
};
use refil_nn::KernelPolicy;

use stats::{median, Table};
use trace::{LinkStats, Probe, StrategyStats, TimedLink, TimedListener};
use workloads::Workload;

/// Repetitions a run makes at least, whatever `--seconds` says: set-up is
/// reported as their median.
const MIN_REPS: usize = 3;
/// Distinct inputs a run cycles through (each a dataset and initial model
/// made from `--seed`), so quality figures average over several datasets.
/// `MIN_REPS` is a multiple of it, so every input runs at least once.
const INPUTS: usize = 3;
/// Samples a run collects at least for each reported percentile: a p90
/// needs 100 to have ten beyond it.
const GUARD_SAMPLES: usize = 100;
/// Hard limit on one invocation; past it the process exits with code 3.
const WATCHDOG: Duration = Duration::from_secs(170);
/// Hard limit on one repetition process: well inside the parent's, so a
/// hung repetition ends before its parent gives up.
const CHILD_WATCHDOG: Duration = Duration::from_secs(120);
/// Environment variables that would change the measured program.
const PINNED_ENV: [&str; 4] = [
    "REFIL_THREADS",
    "REFIL_FAST_KERNELS",
    "REFIL_NAIVE_GEMM",
    "REFIL_TAPED_INFER",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run one repetition of input `seed` and report it to the parent.
    child: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s: &u64| s > 0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--child" => child = value == "1",
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed needs a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive integer")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        child,
    }
}

/// Refuses to measure a program the environment would alter, and fixes the
/// settings the program would otherwise read from it.
fn pin_environment() {
    for var in PINNED_ENV {
        if std::env::var_os(var).is_some() {
            usage(&format!(
                "{var} is set; unset it so the measured program is the default one"
            ));
        }
    }
    refil_nn::set_kernel_policy(KernelPolicy::BitExact);
}

/// Per-layer collectors for one traced repetition.
#[derive(Default)]
struct Tracing {
    /// The runner's strategy (every hook of an in-process run; the
    /// server-side hooks of a served one).
    server: Arc<Mutex<StrategyStats>>,
    /// The client replicas' strategies (served runs).
    clients: Arc<Mutex<StrategyStats>>,
    /// The runner's links (both loopback links, or every accepted socket).
    links: Arc<Mutex<LinkStats>>,
}

/// What the client-pump thread measured.
struct PumpReport {
    /// Replicas that did not end with `RunEnd::COMPLETE`.
    replica_errors: usize,
    cpu_ms: f64,
    wall_ms: f64,
    handshake_ms: f64,
    scratch: refil_nn::ScratchStats,
}

/// The seed of repetition `rep`'s inputs: `INPUTS` seeds per `--seed`,
/// disjoint between `--seed` values.
fn input_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_mul(INPUTS as u64)
        .wrapping_add((rep % INPUTS) as u64)
}

/// One repetition: set-up plus a full federated run.
struct Rep {
    setup_s: f64,
    run_s: f64,
    data_ms: f64,
    result: RunResult,
    /// Runner thread CPU time over the run (traced runs only read it).
    runner_cpu_ms: f64,
    pump: Option<PumpReport>,
    rss_after_setup_mb: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn thread_cpu_ms() -> f64 {
    sys::thread_cpu().map_or(0.0, ms)
}

fn run_rep(w: Workload, seed: u64, tracing: Option<&Tracing>) -> Rep {
    let start = Instant::now();
    let data_start = Instant::now();
    let dataset = Arc::new(w.dataset(seed));
    let data_ms = ms(data_start.elapsed());
    let cfg = w.run_config();
    let runner = FdilRunner::new(cfg).threads(1);
    let server_stats = tracing.map(|t| Arc::clone(&t.server));

    if !w.served() {
        let mut strategy = Probe::new(w.strategy(seed), server_stats);
        let cpu0 = thread_cpu_ms();
        let result = match tracing {
            None => runner.run(&dataset, &mut strategy),
            Some(t) => {
                let down = TimedLink::new(Box::new(Loopback::new()), Arc::clone(&t.links), false);
                let up = TimedLink::new(Box::new(Loopback::new()), Arc::clone(&t.links), false);
                runner.run_with_links(&dataset, &mut strategy, &down, &up)
            }
        };
        let end = Instant::now();
        let first = strategy.first_task_start().expect("the run starts a task");
        return Rep {
            setup_s: (first - start).as_secs_f64(),
            run_s: (end - first).as_secs_f64(),
            data_ms,
            result,
            runner_cpu_ms: thread_cpu_ms() - cpu0,
            pump: None,
            rss_after_setup_mb: strategy.rss_at_first_task().unwrap_or(0.0),
        };
    }

    let bound = NetListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind loopback TCP");
    let endpoint = bound.local_endpoint();
    let listener: Box<dyn Listener> = match tracing {
        None => Box::new(bound),
        Some(t) => Box::new(TimedListener::new(Box::new(bound), Arc::clone(&t.links))),
    };
    let pump = {
        let dataset = Arc::clone(&dataset);
        let client_stats = tracing.map(|t| Arc::clone(&t.clients));
        std::thread::spawn(move || pump_clients(w, seed, &dataset, &endpoint, client_stats))
    };
    let mut strategy = Probe::new(w.strategy(seed), server_stats);
    let cpu0 = thread_cpu_ms();
    let result = runner.serve(&dataset, &mut strategy, listener.as_ref(), "perfbench");
    let end = Instant::now();
    let runner_cpu_ms = thread_cpu_ms() - cpu0;
    let pump = pump.join().expect("client pump thread panicked");
    let first = strategy.first_task_start().expect("the run starts a task");
    Rep {
        setup_s: (first - start).as_secs_f64(),
        run_s: (end - first).as_secs_f64(),
        data_ms,
        result,
        runner_cpu_ms,
        pump: Some(pump),
        rss_after_setup_mb: strategy.rss_at_first_task().unwrap_or(0.0),
    }
}

/// The load generator's client side: builds the replicas, connects and
/// handshakes each over its own TCP connection, then drives all of them
/// from this one thread until the server ends the run.
fn pump_clients(
    w: Workload,
    seed: u64,
    dataset: &refil_data::FdilDataset,
    endpoint: &Endpoint,
    stats: Option<Arc<Mutex<StrategyStats>>>,
) -> PumpReport {
    let cpu0 = thread_cpu_ms();
    let wall0 = Instant::now();
    let _ = refil_nn::take_scratch_stats();
    let cfg = w.run_config();
    let mut strategies: Vec<Box<dyn FdilStrategy>> = (0..w.peers())
        .map(|_| Box::new(Probe::new(w.strategy(seed), stats.clone())) as Box<dyn FdilStrategy>)
        .collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    let handshake_start = Instant::now();
    let mut links: Vec<Box<dyn Link>> = Vec::with_capacity(w.peers());
    let mut peer_ids = Vec::with_capacity(w.peers());
    let mut compression = None;
    for nonce in 0..w.peers() {
        let link = connect(endpoint, deadline).expect("connect to the local server");
        let (peer_id, _spec, _token, spec) =
            client_handshake(&link, nonce as u64, None, deadline).expect("client handshake");
        compression = spec;
        links.push(Box::new(link));
        peer_ids.push(peer_id);
    }
    let handshake_ms = ms(handshake_start.elapsed());
    let opts = ClientOptions {
        compression,
        ..ClientOptions::default()
    };
    let reports = run_clients_pumped(
        &links,
        &peer_ids,
        &mut strategies,
        dataset,
        &cfg,
        &opts,
        &Telemetry::disabled(),
    );
    let replica_errors = reports
        .iter()
        .filter(|r| !matches!(r, Ok(report) if report.reason == refil_wire::RunEnd::COMPLETE))
        .count();
    PumpReport {
        replica_errors,
        cpu_ms: thread_cpu_ms() - cpu0,
        wall_ms: ms(wall0.elapsed()),
        handshake_ms,
        scratch: refil_nn::take_scratch_stats(),
    }
}

/// The outputs two runs of the same inputs must agree on, bit for bit.
fn same_outputs(a: &RunResult, b: &RunResult) -> bool {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let wire = |r: &RunResult| {
        r.rounds
            .iter()
            .map(|x| x.wire_bytes.clone())
            .collect::<Vec<_>>()
    };
    bits(&a.final_global) == bits(&b.final_global)
        && a.domain_acc == b.domain_acc
        && a.traffic == b.traffic
        && wire(a) == wire(b)
}

/// Output checks of one repetition; returns the failures found.
fn check(w: Workload, rep: &Rep) -> Vec<String> {
    let r = &rep.result;
    let mut failures = Vec::new();
    let late: u64 = r.rounds.iter().map(|x| x.clients_late).sum();
    if late > 0 {
        failures.push(format!("{late} late sessions"));
    }
    if let Some(pump) = rep.pump.as_ref().filter(|p| p.replica_errors > 0) {
        failures.push(format!("{} replicas ended abnormally", pump.replica_errors));
    }
    let ledger: u64 = r.rounds.iter().map(|x| x.total_wire_bytes()).sum();
    if ledger != r.traffic.total_bytes() {
        failures.push(format!(
            "wire ledger {ledger} B != traffic total {} B",
            r.traffic.total_bytes()
        ));
    }
    let acc = r.avg_accuracy();
    if !(acc >= w.acc_floor() && acc <= 100.0) {
        failures.push(format!("acc_avg {acc:.2} outside [{}, 100]", w.acc_floor()));
    }
    failures
}

/// Sessions planned in a run, and those that failed (late, or lost with a
/// replica that ended abnormally).
fn session_counts(rep: &Rep) -> (u64, u64) {
    let trained: u64 = rep.result.rounds.iter().map(|x| x.clients_trained).sum();
    let late: u64 = rep.result.rounds.iter().map(|x| x.clients_late).sum();
    let lost = rep.pump.as_ref().map_or(0, |p| p.replica_errors as u64);
    (trained + late, late + lost)
}

/// Whether to start another repetition: always until `MIN_REPS` ran and
/// the percentile guards have their samples, then while one more
/// repetition of the average length still fits in the time budget.
fn another(start: Instant, done: usize, seconds: u64, samples_ok: bool) -> bool {
    if done < MIN_REPS || !samples_ok {
        return true;
    }
    let elapsed = start.elapsed();
    elapsed + elapsed / done as u32 <= Duration::from_secs(seconds)
}

struct Outcome {
    table: Table,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

/// A digest of the outputs two runs of the same inputs must agree on.
fn digest(r: &RunResult) -> u64 {
    let mut h = DefaultHasher::new();
    for x in &r.final_global {
        x.to_bits().hash(&mut h);
    }
    for x in r.domain_acc.iter().flatten() {
        x.to_bits().hash(&mut h);
    }
    format!("{:?}", r.traffic).hash(&mut h);
    for round in &r.rounds {
        round.wire_bytes.hash(&mut h);
    }
    h.finish()
}

/// What one repetition process reports to its parent, one `key values`
/// line per field.
#[derive(Default)]
struct RepSummary {
    setup_s: f64,
    run_s: f64,
    peak_rss_mb: f64,
    acc_avg: f64,
    wire_mb: f64,
    uplink_mb: f64,
    planned: u64,
    failed: u64,
    digest: u64,
    rounds_ms: Vec<f64>,
    sessions_ms: Vec<f64>,
    failures: Vec<String>,
}

impl RepSummary {
    fn of(w: Workload, rep: &Rep) -> Self {
        let r = &rep.result;
        let (planned, failed) = session_counts(rep);
        Self {
            setup_s: rep.setup_s,
            run_s: rep.run_s,
            peak_rss_mb: sys::peak_rss_mb().unwrap_or(0.0),
            acc_avg: f64::from(r.avg_accuracy()),
            wire_mb: r.traffic.total_bytes() as f64 / 1e6,
            uplink_mb: r.rounds.iter().map(|x| x.uplink_encoded_bytes).sum::<u64>() as f64 / 1e6,
            planned,
            failed,
            digest: digest(r),
            rounds_ms: r.rounds.iter().map(|x| x.wall_ns as f64 / 1e6).collect(),
            sessions_ms: r
                .rounds
                .iter()
                .flat_map(|x| x.sessions.iter().map(|s| s.duration_ns as f64 / 1e6))
                .collect(),
            failures: check(w, rep),
        }
    }

    fn failed_with(msg: String) -> Self {
        Self {
            failures: vec![msg],
            ..Self::default()
        }
    }

    fn to_lines(&self) -> String {
        let list = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(" ");
        let mut out = format!(
            "setup_s {}\nrun_s {}\npeak_rss_mb {}\nacc_avg {}\nwire_mb {}\nuplink_mb {}\n\
             planned {}\nfailed {}\ndigest {}\nrounds_ms {}\nsessions_ms {}\n",
            self.setup_s,
            self.run_s,
            self.peak_rss_mb,
            self.acc_avg,
            self.wire_mb,
            self.uplink_mb,
            self.planned,
            self.failed,
            self.digest,
            list(&self.rounds_ms),
            list(&self.sessions_ms)
        );
        for f in &self.failures {
            out.push_str(&format!("failure {f}\n"));
        }
        out
    }

    fn parse(text: &str) -> Result<Self, String> {
        let mut s = Self::default();
        let mut seen = 0;
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let num = |v: &str| {
                v.parse::<f64>()
                    .map_err(|e| format!("bad {key} {v:?}: {e}"))
            };
            let list = |v: &str| v.split_whitespace().map(num).collect::<Result<Vec<_>, _>>();
            let int = |v: &str| {
                v.parse::<u64>()
                    .map_err(|e| format!("bad {key} {v:?}: {e}"))
            };
            match key {
                "setup_s" => s.setup_s = num(rest)?,
                "run_s" => s.run_s = num(rest)?,
                "peak_rss_mb" => s.peak_rss_mb = num(rest)?,
                "acc_avg" => s.acc_avg = num(rest)?,
                "wire_mb" => s.wire_mb = num(rest)?,
                "uplink_mb" => s.uplink_mb = num(rest)?,
                "planned" => s.planned = int(rest)?,
                "failed" => s.failed = int(rest)?,
                "digest" => s.digest = int(rest)?,
                "rounds_ms" => s.rounds_ms = list(rest)?,
                "sessions_ms" => s.sessions_ms = list(rest)?,
                "failure" => {
                    s.failures.push(rest.to_string());
                    continue;
                }
                _ => return Err(format!("unexpected line {line:?}")),
            }
            seen += 1;
        }
        if seen == 11 {
            Ok(s)
        } else {
            Err(format!("{seen} of 11 fields reported"))
        }
    }
}

/// `--child 1`: runs one repetition and prints its summary.
fn run_child(w: Workload, input: u64) -> ! {
    let rep = run_rep(w, input, None);
    print!("{}", RepSummary::of(w, &rep).to_lines());
    std::process::exit(0);
}

/// Runs one repetition of input `input` in a fresh process of this binary.
fn spawn_rep(w: Workload, input: u64) -> RepSummary {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return RepSummary::failed_with(format!("cannot find this binary: {e}")),
    };
    let output = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &input.to_string()])
        .args(["--seconds", "1", "--trace", "0", "--child", "1"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    match output {
        Ok(o) if o.status.success() => RepSummary::parse(&String::from_utf8_lossy(&o.stdout))
            .unwrap_or_else(|e| RepSummary::failed_with(format!("repetition report: {e}"))),
        Ok(o) => RepSummary::failed_with(format!("repetition process ended with {}", o.status)),
        Err(e) => RepSummary::failed_with(format!("cannot start a repetition process: {e}")),
    }
}

/// `--trace 0`: the end-to-end metrics.
fn measure(w: Workload, seed: u64, seconds: u64) -> Outcome {
    let start = Instant::now();
    let mut reps: Vec<RepSummary> = Vec::new();
    loop {
        let rep = spawn_rep(w, input_seed(seed, reps.len()));
        eprintln!(
            "rep {}: setup {:.6} s, run {:.6} s",
            reps.len(),
            rep.setup_s,
            rep.run_s
        );
        let broken = rep.rounds_ms.is_empty();
        reps.push(rep);
        let rounds: usize = reps.iter().map(|r| r.rounds_ms.len()).sum();
        if broken || !another(start, reps.len(), seconds, rounds >= GUARD_SAMPLES) {
            break;
        }
    }
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (i, rep) in reps.iter().enumerate() {
        failures.extend(rep.failures.iter().cloned());
        if rep.digest != reps[i % INPUTS.min(reps.len())].digest {
            failures.push("outputs differ from the first repetition of the same inputs".into());
        }
        attempted += rep.planned;
        failed += rep.failed;
    }
    let rounds: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.rounds_ms.iter().copied())
        .collect();
    let sessions: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.sessions_ms.iter().copied())
        .collect();
    let per_rep = |f: fn(&RepSummary) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let per_input = |f: fn(&RepSummary) -> f64| {
        let first = &reps[..INPUTS.min(reps.len())];
        first.iter().map(f).sum::<f64>() / first.len() as f64
    };
    let n = reps.len();
    let inputs = INPUTS.min(n);
    let mut t = Table::default();
    t.push("setup_s", per_rep(|r| r.setup_s), "s", n);
    t.push("run_s", per_rep(|r| r.run_s), "s", n);
    t.push_pct("round_ms_p50", &rounds, 0.5, "ms");
    t.push_pct("round_ms_p90", &rounds, 0.9, "ms");
    t.push_pct("session_ms_p50", &sessions, 0.5, "ms");
    t.push_pct("session_ms_p90", &sessions, 0.9, "ms");
    t.push("peak_rss_mb", per_rep(|r| r.peak_rss_mb), "MB", n);
    t.push("acc_avg", per_input(|r| r.acc_avg), "%", inputs);
    t.push("wire_mb", per_input(|r| r.wire_mb), "MB", inputs);
    t.push("uplink_mb", per_input(|r| r.uplink_mb), "MB", inputs);
    for m in &t.rows {
        if m.value <= 0.0 {
            failures.push(format!(
                "{} is not positive (percentile guard or failed repetition)",
                m.name
            ));
        }
    }
    Outcome {
        table: t,
        failures,
        attempted,
        failed,
    }
}

/// One traced repetition with what its collectors saw.
struct TracedRep {
    rep: Rep,
    tracing: Tracing,
}

/// `--trace 1`: the per-layer metrics.
fn trace_run(w: Workload, seed: u64, seconds: u64) -> Outcome {
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<TracedRep> = Vec::new();
    let mut failures = Vec::new();
    let mut codec = replay::CodecReplay::default();
    let mut compress = replay::CompressReplay::default();
    let spec = w.run_config().wire.spec();
    let start = Instant::now();
    loop {
        let input = input_seed(seed, plain.len());
        let untraced = run_rep(w, input, None);
        let tracing = Tracing::default();
        let rep = run_rep(w, input, Some(&tracing));
        if !same_outputs(&rep.result, &untraced.result) {
            failures.push("traced outputs differ from the untraced run".into());
        }
        {
            // Replay this repetition's captured frames, then drop them.
            let mut links = tracing.links.lock().expect("link stats");
            let tx = std::mem::take(&mut links.captured_tx);
            let rx = std::mem::take(&mut links.captured_rx);
            codec.add(&replay::codec(&tx));
            codec.add(&replay::codec(&rx));
            let uplink = if w.served() { &rx } else { &tx };
            let r = replay::compression(&tx, uplink, &spec);
            compress.reconstruct_ms.extend(r.reconstruct_ms);
            compress.compress_ms.extend(r.compress_ms);
            compress.failures += r.failures;
        }
        plain.push(untraced);
        traced.push(TracedRep { rep, tracing });
        let sessions = traced.len() * traced[0].rep.result.traffic.client_updates as usize;
        let updates_ok = !spec.is_active() || compress.compress_ms.len() >= GUARD_SAMPLES;
        if !another(
            start,
            traced.len(),
            seconds,
            sessions >= GUARD_SAMPLES && updates_ok,
        ) {
            break;
        }
    }
    if codec.mismatches > 0 {
        failures.push(format!(
            "{} captured frames failed the codec round trip",
            codec.mismatches
        ));
    }
    if compress.failures > 0 {
        failures.push(format!(
            "{} captured updates failed to reconstruct",
            compress.failures
        ));
    }
    let reference = &plain[0].result;
    let (mut attempted, mut failed) = (0, 0);
    let pairs = plain.len();
    for (i, rep) in plain
        .iter()
        .chain(traced.iter().map(|t| &t.rep))
        .enumerate()
    {
        failures.extend(check(w, rep));
        if !same_outputs(&rep.result, &plain[i % pairs % INPUTS].result) {
            failures.push("outputs differ from the first repetition of the same inputs".into());
        }
        let (a, f) = session_counts(rep);
        attempted += a;
        failed += f;
    }

    let n = traced.len();
    let st = |t: &TracedRep| -> (StrategyStats, StrategyStats, LinkStats) {
        let take = |m: &Arc<Mutex<StrategyStats>>| std::mem::take(&mut *m.lock().expect("stats"));
        let links = std::mem::take(&mut *t.tracing.links.lock().expect("link stats"));
        (take(&t.tracing.server), take(&t.tracing.clients), links)
    };
    let collected: Vec<(StrategyStats, StrategyStats, LinkStats)> = traced.iter().map(st).collect();
    // The side that trains: the runner in process, the replicas when served.
    let trainer = |i: usize| {
        if w.served() {
            &collected[i].1
        } else {
            &collected[i].0
        }
    };
    let per_rep = |f: &dyn Fn(usize) -> f64| median(&(0..n).map(f).collect::<Vec<_>>());
    let train_ms: Vec<f64> = (0..n).flat_map(|i| trainer(i).train_ms.clone()).collect();
    let rounds = |i: usize| traced[i].rep.result.rounds.len() as f64;
    let phase = |i: usize, f: fn(&refil_fed::PhaseNanos) -> u64| {
        traced[i]
            .rep
            .result
            .rounds
            .iter()
            .map(|r| f(&r.phases))
            .sum::<u64>() as f64
            / 1e6
    };
    let runner_busy_ms = |i: usize| {
        let (s, _, l) = &collected[i];
        let train = if w.served() { 0 } else { s.train_client.ns };
        (s.server_hooks_ns() + s.eval_ns() + train + l.busy.ns) as f64 / 1e6
    };
    let run_ms = |i: usize| traced[i].rep.run_s * 1e3;
    let scratch = |i: usize| -> (f64, f64) {
        match &traced[i].rep.pump {
            Some(p) => {
                let total = p.scratch.reserved_count + p.scratch.reused_count;
                let ratio = if total == 0 {
                    0.0
                } else {
                    p.scratch.reused_count as f64 / total as f64
                };
                (p.scratch.reserved_bytes as f64 / 1e6, ratio)
            }
            None => {
                let mut a = refil_fed::ArenaStats::default();
                for r in &traced[i].rep.result.rounds {
                    a.merge(&r.scratch);
                }
                (a.reserved_bytes as f64 / 1e6, a.reuse_ratio())
            }
        }
    };
    let pump = |i: usize| traced[i].rep.pump.as_ref();
    let plain_run = median(&plain.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let traced_run = median(&traced.iter().map(|t| t.rep.run_s).collect::<Vec<_>>());
    let raw: u64 = reference.rounds.iter().map(|x| x.uplink_raw_bytes).sum();
    let encoded: u64 = reference
        .rounds
        .iter()
        .map(|x| x.uplink_encoded_bytes)
        .sum();
    let late: u64 = reference.rounds.iter().map(|x| x.clients_late).sum();
    let planned: u64 = reference
        .rounds
        .iter()
        .map(|x| x.clients_trained + x.clients_late)
        .sum();

    let mut t = Table::default();
    t.push(
        "data.generate_ms",
        per_rep(&|i| traced[i].rep.data_ms),
        "ms",
        n,
    );
    t.push(
        "strategy.train_client.calls",
        per_rep(&|i| trainer(i).train_client.calls as f64),
        "count",
        n,
    );
    t.push(
        "strategy.train_client.busy_ms",
        per_rep(&|i| trainer(i).train_client.ms()),
        "ms",
        n,
    );
    t.push_pct("strategy.train_client.ms_p50", &train_ms, 0.5, "ms");
    t.push_pct("strategy.train_client.ms_p90", &train_ms, 0.9, "ms");
    t.push(
        "strategy.train_samples_per_s",
        per_rep(&|i| trainer(i).train_samples as f64 / (trainer(i).train_client.ns as f64 / 1e9)),
        "1/s",
        n,
    );
    t.push(
        "strategy.round_broadcast.busy_ms",
        per_rep(&|i| collected[i].0.round_broadcast.ms()),
        "ms",
        n,
    );
    t.push(
        "strategy.round_ctx.busy_ms",
        per_rep(&|i| collected[i].0.round_ctx.ms()),
        "ms",
        n,
    );
    t.push(
        "strategy.merge_client.busy_ms",
        per_rep(&|i| collected[i].0.merge_client.ms()),
        "ms",
        n,
    );
    t.push(
        "strategy.on_round_end.busy_ms",
        per_rep(&|i| collected[i].0.on_round_end.ms()),
        "ms",
        n,
    );
    t.push(
        "strategy.on_task_end.busy_ms",
        per_rep(&|i| collected[i].0.on_task_end.ms()),
        "ms",
        n,
    );
    t.push(
        "eval.predict.calls",
        per_rep(&|i| collected[i].0.predict.calls as f64),
        "count",
        n,
    );
    t.push(
        "eval.busy_ms",
        per_rep(&|i| collected[i].0.eval_ns() as f64 / 1e6),
        "ms",
        n,
    );
    t.push(
        "eval.samples_per_s",
        per_rep(&|i| collected[i].0.predict_rows as f64 / (collected[i].0.predict.ns as f64 / 1e9)),
        "1/s",
        n,
    );
    t.push("fed.rounds", per_rep(&rounds), "count", n);
    t.push(
        "fed.driver_self_ms",
        per_rep(&|i| run_ms(i) - runner_busy_ms(i)),
        "ms",
        n,
    );
    t.push(
        "fed.accounted_frac",
        per_rep(&|i| runner_busy_ms(i) / run_ms(i)),
        "ratio",
        n,
    );
    t.push(
        "fed.late_frac",
        late as f64 / planned.max(1) as f64,
        "ratio",
        1,
    );
    t.push(
        "fed.phase.broadcast_ms",
        per_rep(&|i| phase(i, |p| p.broadcast)),
        "ms",
        n,
    );
    t.push(
        "fed.phase.train_ms",
        per_rep(&|i| phase(i, |p| p.train)),
        "ms",
        n,
    );
    t.push(
        "fed.phase.aggregate_ms",
        per_rep(&|i| phase(i, |p| p.aggregate)),
        "ms",
        n,
    );
    t.push(
        "fed.phase.merge_ms",
        per_rep(&|i| phase(i, |p| p.merge)),
        "ms",
        n,
    );
    t.push(
        "fed.phase.eval_ms",
        per_rep(&|i| phase(i, |p| p.eval)),
        "ms",
        n,
    );
    t.push(
        "wire.frames_tx",
        per_rep(&|i| collected[i].2.frames_tx as f64),
        "count",
        n,
    );
    t.push(
        "wire.frames_rx",
        per_rep(&|i| collected[i].2.frames_rx as f64),
        "count",
        n,
    );
    t.push(
        "wire.bytes_tx",
        per_rep(&|i| collected[i].2.bytes_tx as f64),
        "B",
        n,
    );
    t.push(
        "wire.bytes_rx",
        per_rep(&|i| collected[i].2.bytes_rx as f64),
        "B",
        n,
    );
    t.push(
        "wire.link_busy_ms",
        per_rep(&|i| collected[i].2.busy.ms()),
        "ms",
        n,
    );
    t.push(
        "wire.decode_ms_per_mb",
        codec.decode_ms_per_mb(),
        "ms/MB",
        codec.frames,
    );
    t.push(
        "wire.encode_ms_per_mb",
        codec.encode_ms_per_mb(),
        "ms/MB",
        codec.frames,
    );
    t.push_pct("wire.compress_ms_p50", &compress.compress_ms, 0.5, "ms");
    t.push_pct(
        "wire.reconstruct_ms_p50",
        &compress.reconstruct_ms,
        0.5,
        "ms",
    );
    t.push(
        "wire.uplink_reduction_ratio",
        raw as f64 / encoded.max(1) as f64,
        "ratio",
        1,
    );
    let served = |f: &dyn Fn(usize) -> f64| if w.served() { per_rep(f) } else { 0.0 };
    t.push(
        "net.server.cpu_ms",
        served(&|i| traced[i].rep.runner_cpu_ms),
        "ms",
        n,
    );
    t.push(
        "net.server.idle_ms",
        served(&|i| run_ms(i) - traced[i].rep.runner_cpu_ms),
        "ms",
        n,
    );
    t.push(
        "net.server.idle_ms_per_round",
        served(&|i| (run_ms(i) - traced[i].rep.runner_cpu_ms) / rounds(i)),
        "ms",
        n,
    );
    t.push(
        "net.recv_empty_frac",
        served(&|i| {
            collected[i].2.try_recv_empty as f64 / collected[i].2.try_recv_calls.max(1) as f64
        }),
        "ratio",
        n,
    );
    t.push(
        "net.pending_tx_max_bytes",
        served(&|i| collected[i].2.pending_tx_max as f64),
        "B",
        n,
    );
    t.push(
        "net.fanout_bytes_per_round",
        served(&|i| collected[i].2.bytes_tx as f64 / rounds(i)),
        "B",
        n,
    );
    t.push(
        "net.connect_handshake_ms",
        served(&|i| pump(i).map_or(0.0, |p| p.handshake_ms)),
        "ms",
        n,
    );
    t.push(
        "net.pump.cpu_ms",
        served(&|i| pump(i).map_or(0.0, |p| p.cpu_ms)),
        "ms",
        n,
    );
    t.push(
        "net.pump.idle_ms",
        served(&|i| pump(i).map_or(0.0, |p| p.wall_ms - p.cpu_ms)),
        "ms",
        n,
    );
    t.push(
        "net.replica.replay_ms",
        served(&|i| collected[i].1.replay_ns() as f64 / 1e6),
        "ms",
        n,
    );
    t.push(
        "mem.rss_after_setup_mb",
        per_rep(&|i| traced[i].rep.rss_after_setup_mb),
        "MB",
        n,
    );
    t.push(
        "nn.scratch.reserved_mb",
        per_rep(&|i| scratch(i).0),
        "MB",
        n,
    );
    t.push(
        "nn.scratch.reuse_ratio",
        per_rep(&|i| scratch(i).1),
        "ratio",
        n,
    );
    t.push(
        "trace.overhead_frac",
        traced_run / plain_run - 1.0,
        "ratio",
        plain.len(),
    );
    Outcome {
        table: t,
        failures,
        attempted,
        failed,
    }
}

fn main() {
    let args = parse_args();
    pin_environment();
    let limit = if args.child { CHILD_WATCHDOG } else { WATCHDOG };
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: run exceeded {limit:?}; aborting");
        std::process::exit(3);
    });
    if args.child {
        run_child(args.workload, args.seed);
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "env: workload={} seed={} seconds={} trace={} host={} nproc={} threads=1 kernel_policy=bit-exact telemetry=off",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::hostname(),
        nproc
    );
    let outcome = if args.trace {
        trace_run(args.workload, args.seed, args.seconds)
    } else {
        measure(args.workload, args.seed, args.seconds)
    };
    let mut failures = outcome.failures;
    if !outcome.table.all_finite() {
        failures.push("a metric is not a finite number".into());
    }
    failures.dedup();
    outcome.table.print();
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let correct = failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.table.json()
    );
    std::process::exit(if correct { 0 } else { 1 });
}
