//! `refil-bench bench_net`: times full served federation runs with the
//! clients simulated in-process (all pumped from a single thread), at
//! growing peer counts, then writes `BENCH_net.json` (median ns per run,
//! rounds/sec, and the observed peak thread count) to the repo root, or to
//! `--out PATH`, so the networking trajectory is recorded in-tree.
//!
//! The server side is the single-threaded poll reactor: every peer count is
//! served by the same one accept/collect loop, so `peak_threads` stays
//! constant across the sweep — that flatness (pinned hard in
//! `tests/reactor.rs`) is the property this report tracks over time, next
//! to the raw round throughput.

use std::hint::black_box;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use refil_bench::BenchMeta;
use refil_continual::{Finetune, MethodConfig};
use refil_data::{DatasetSpec, DomainSpec, FdilDataset};
use refil_fed::{
    client_handshake, connect, process_thread_count, run_clients_pumped, ClientOptions, Endpoint,
    FdilRunner, FdilStrategy, IncrementConfig, Link, NetListener, RunConfig, Telemetry,
};
use refil_nn::models::{BackboneConfig, ExtractorKind};

use crate::Args;

/// Usage text of `refil-bench bench_net`.
pub(crate) const USAGE: &str = "usage: refil-bench bench_net [--out PATH]";

#[derive(serde::Serialize)]
struct NetRecord {
    name: String,
    median_ns: u64,
}

/// Per-peer-count shape of one served run. No `name` field: `bench_gate`
/// only extracts metrics from named objects, so the run-to-run-noisy
/// thread/throughput numbers ride along ungated.
#[derive(serde::Serialize)]
struct RunShape {
    clients: usize,
    rounds: u64,
    rounds_per_sec: f64,
    peak_threads: usize,
}

#[derive(serde::Serialize)]
struct Report {
    generated_by: String,
    meta: BenchMeta,
    reps: usize,
    records: Vec<NetRecord>,
    runs: Vec<RunShape>,
}

fn dataset() -> FdilDataset {
    DatasetSpec {
        name: "bench_net".into(),
        classes: 3,
        feature_dim: 6,
        proto_scale: 2.5,
        within_std: 0.4,
        test_fraction: 0.3,
        signature_dim: 2,
        signature_scale: 0.6,
        domains: vec![
            DomainSpec::new("d0", 60, 0.15, 0.05),
            DomainSpec::new("d1", 60, 0.3, 0.4),
        ],
    }
    .generate(7)
}

fn build_strategy() -> Box<dyn FdilStrategy> {
    Box::new(Finetune::new(MethodConfig {
        backbone: BackboneConfig {
            in_dim: 6,
            extractor_width: 8,
            extractor_depth: 1,
            n_patches: 2,
            token_dim: 8,
            heads: 2,
            blocks: 1,
            classes: 3,
            extractor: ExtractorKind::ResidualMlp,
        },
        lr: 0.05,
        prompt_len: 2,
        max_tasks: 2,
        ..MethodConfig::default()
    }))
}

fn run_cfg() -> RunConfig {
    RunConfig {
        increment: IncrementConfig {
            initial_clients: 6,
            select_per_round: 4,
            increment_per_task: 1,
            transition_fraction: 0.8,
            rounds_per_task: 2,
        },
        local_epochs: 1,
        batch_size: 16,
        quantity_sigma: 0.5,
        eval_batch: 128,
        dropout_prob: 0.0,
        seed: 41,
        threads: 1,
        net: Default::default(),
        wire: Default::default(),
    }
}

/// One full served run with `n_clients` pumped from a single client-side
/// thread. Returns the wall time of the serve (bind → result), the number
/// of protocol rounds driven, and the peak process thread count observed.
fn served_run(n_clients: usize) -> (u64, u64, usize) {
    let listener = NetListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
    let addr = listener.local_endpoint().to_string();

    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));
    let sampler = {
        let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if let Some(n) = process_thread_count() {
                    peak.fetch_max(n, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    let pump = std::thread::spawn(move || {
        let ds = dataset();
        let cfg = run_cfg();
        let endpoint = Endpoint::parse(&addr).expect("pump address");
        let deadline = Instant::now() + Duration::from_secs(120);
        let mut links: Vec<Box<dyn Link>> = Vec::with_capacity(n_clients);
        let mut peer_ids = Vec::with_capacity(n_clients);
        for nonce in 0..n_clients {
            let link = connect(&endpoint, deadline).expect("pump connect");
            let (peer_id, _spec, _token, _compression) =
                client_handshake(&link, nonce as u64, None, deadline).expect("pump handshake");
            links.push(Box::new(link));
            peer_ids.push(peer_id);
        }
        let mut strategies: Vec<Box<dyn FdilStrategy>> =
            (0..n_clients).map(|_| build_strategy()).collect();
        for report in run_clients_pumped(
            &links,
            &peer_ids,
            &mut strategies,
            &ds,
            &cfg,
            &ClientOptions::default(),
            &Telemetry::disabled(),
        ) {
            assert_eq!(report.expect("client replica").reason, 0);
        }
    });

    let ds = dataset();
    let mut cfg = run_cfg();
    cfg.net.min_peers = n_clients;
    let mut strat = build_strategy();
    let t = Instant::now();
    let result = black_box(FdilRunner::new(cfg).threads(1).serve(
        &ds,
        strat.as_mut(),
        &listener,
        "bench_net",
    ));
    let elapsed = t.elapsed().as_nanos() as u64;
    pump.join().expect("pump thread");
    stop.store(true, Ordering::Relaxed);
    sampler.join().expect("sampler thread");
    (
        elapsed,
        result.traffic.rounds as u64,
        peak.load(Ordering::Relaxed),
    )
}

/// Entry point of `refil-bench bench_net`.
pub(crate) fn main(args: Args) -> ExitCode {
    let out_path = args.out_path(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json"));
    let reps = 5usize;
    let mut records = Vec::new();
    let mut runs = Vec::new();

    for n_clients in [4usize, 64, 256] {
        served_run(n_clients); // warm: page in code, settle the allocator
        let mut times = Vec::with_capacity(reps);
        let mut rounds = 0u64;
        let mut peak_threads = 0usize;
        for _ in 0..reps {
            let (ns, r, peak) = served_run(n_clients);
            times.push(ns);
            rounds = r;
            peak_threads = peak_threads.max(peak);
        }
        times.sort_unstable();
        let median = times[times.len() / 2];
        records.push(NetRecord {
            name: format!("fed/net/reactor/serve_{n_clients}_clients"),
            median_ns: median,
        });
        runs.push(RunShape {
            clients: n_clients,
            rounds,
            rounds_per_sec: rounds as f64 * 1e9 / median as f64,
            peak_threads,
        });
    }

    let report = Report {
        generated_by: "cargo run --release -p refil-bench -- bench_net".into(),
        meta: BenchMeta::capture(),
        reps,
        records,
        runs,
    };
    for (r, shape) in report.records.iter().zip(&report.runs) {
        println!(
            "{:<40} {:>12} ns  ({:.1} rounds/sec, peak {} threads)",
            r.name, r.median_ns, shape.rounds_per_sec, shape.peak_threads
        );
    }
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, json + "\n").expect("write net report");
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}
