//! User-facing CLI: run one method on one dataset — in-process, as a
//! federation server, or as a joining client — and print/save the result.
//!
//! ```text
//! cargo run --release -p refil-bench --bin run -- \
//!     --dataset digits --method reffil --seed 42          # in-process
//! cargo run --release -p refil-bench --bin run -- \
//!     --dataset digits --method reffil --listen tcp:127.0.0.1:7700 \
//!     --min-peers 2                                       # server
//! cargo run --release -p refil-bench --bin run -- \
//!     --connect tcp:127.0.0.1:7700                        # client
//! ```
//!
//! One flag table covers all three modes:
//!
//! | flag | modes | meaning |
//! |------|-------|---------|
//! | `--dataset <name>`       | local, listen | `digits`, `office`, `pacs`, `domainnet` |
//! | `--method <name>`        | local, listen | `finetune`, `lwf`, `ewc`, `l2p`, `l2p+pool`, `dualprompt`, `dualprompt+pool`, `reffil`, `reffil+prompt` |
//! | `--seed N`               | local, listen | master seed (default 42) |
//! | `--new-order`            | local, listen | Table 4 shuffled domain order |
//! | `--listen <addr>`        | listen | serve rounds over `tcp:host:port`, `host:port`, or `unix:PATH` |
//! | `--connect <addr>`       | connect | join a server; dataset/method/seed come from its run-spec |
//! | `--min-peers N`          | listen | clients to wait for before round one (default 1) |
//! | `--round-deadline-ms N`  | listen | per-round straggler deadline (default 30000) |
//! | `--join-grace-ms N`      | listen | wait for re-joins when all peers leave (default 10000) |
//! | `--sample-fraction F`    | listen | per-round participation fraction in (0, 1]; 0 disables sampling (default 0) |
//! | `--min-sample N`         | listen | never sample below N sessions per round (default 0 = 1) |
//! | `--wire SPEC`            | local, listen | uplink compression spec, e.g. `delta+int8+topk0.5`, `f16`, `none` (default none) |
//! | `--threads N`            | all | worker pool size (0 = auto: all cores; N clamps to the core count; default from `REFIL_THREADS`) |
//! | `--json FILE`            | local, listen | write scores + accuracy matrix as JSON |
//! | `--trace FILE`           | all | stream telemetry events as JSONL |
//! | `--trace-chrome FILE`    | all | write a Chrome trace-event file (Perfetto) |
//! | `--metrics FILE`         | all | write a Prometheus text snapshot on exit |
//!
//! `REFIL_SCALE=smoke|bench|paper` controls the protocol scale (a server
//! stamps it into the spec it hands to clients); `REFIL_LOG` controls
//! stderr verbosity. Results are byte-identical across thread counts and
//! across the three modes: a `--listen` run with N clients reports the
//! same accuracies and per-kind wire bytes as the same-seed in-process
//! run. The dedicated `serve`/`client` binaries accept the same flags for
//! their respective modes.

use refil_bench::methods::method_by_name;
use refil_bench::netcli::{self, parse_wire_arg, scale_name_from_env, NetOverrides, NetSpec};
use refil_bench::{
    dataset_by_name, run_experiment, DatasetChoice, ExperimentSpec, MethodChoice, MethodResult,
    Scale,
};
use refil_fed::ClientOptions;
use refil_telemetry::{ChromeTraceSink, JsonlSink, PrometheusSink, Sink, TeeSink, Telemetry};

struct Args {
    dataset: Option<DatasetChoice>,
    method: Option<MethodChoice>,
    seed: u64,
    new_order: bool,
    listen: Option<String>,
    connect: Option<String>,
    overrides: NetOverrides,
    threads: Option<usize>,
    json: Option<String>,
    trace: Option<String>,
    trace_chrome: Option<String>,
    metrics: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: run --dataset <digits|office|pacs|domainnet> --method <finetune|lwf|ewc|l2p|l2p+pool|dualprompt|dualprompt+pool|reffil|reffil+prompt> [--seed N] [--new-order] [--listen ADDR [--min-peers N] [--round-deadline-ms N] [--join-grace-ms N] [--sample-fraction F] [--min-sample N]] [--wire SPEC] [--threads N] [--json FILE] [--trace FILE] [--trace-chrome FILE] [--metrics FILE]\n       run --connect ADDR [--threads N] [--trace FILE] [--trace-chrome FILE] [--metrics FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut out = Args {
        dataset: None,
        method: None,
        seed: 42,
        new_order: false,
        listen: None,
        connect: None,
        overrides: NetOverrides::default(),
        threads: None,
        json: None,
        trace: None,
        trace_chrome: None,
        metrics: None,
    };
    let mut args = std::env::args().skip(1);
    fn num<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>) -> T {
        args.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage())
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--dataset" => {
                let v = args.next().unwrap_or_else(|| usage());
                out.dataset = dataset_by_name(&v);
                if out.dataset.is_none() {
                    eprintln!("unknown dataset {v:?}");
                    usage();
                }
            }
            "--method" => {
                let v = args.next().unwrap_or_else(|| usage());
                out.method = method_by_name(&v);
                if out.method.is_none() {
                    eprintln!("unknown method {v:?}");
                    usage();
                }
            }
            "--seed" => out.seed = num(&mut args),
            "--new-order" => out.new_order = true,
            "--listen" => out.listen = Some(args.next().unwrap_or_else(|| usage())),
            "--connect" => out.connect = Some(args.next().unwrap_or_else(|| usage())),
            "--min-peers" => out.overrides.min_peers = Some(num(&mut args)),
            "--round-deadline-ms" => out.overrides.round_deadline_ms = Some(num(&mut args)),
            "--join-grace-ms" => out.overrides.join_grace_ms = Some(num(&mut args)),
            "--sample-fraction" => out.overrides.sample_fraction = Some(num(&mut args)),
            "--min-sample" => out.overrides.min_sample = Some(num(&mut args)),
            "--wire" => {
                let v = args.next().unwrap_or_else(|| usage());
                match parse_wire_arg(&v) {
                    Ok(w) => out.overrides.wire = Some(w),
                    Err(e) => {
                        eprintln!("{e}");
                        usage();
                    }
                }
            }
            "--threads" => out.threads = Some(num(&mut args)),
            "--json" => out.json = Some(args.next().unwrap_or_else(|| usage())),
            "--trace" => out.trace = Some(args.next().unwrap_or_else(|| usage())),
            "--trace-chrome" => out.trace_chrome = Some(args.next().unwrap_or_else(|| usage())),
            "--metrics" => out.metrics = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    if out.listen.is_some() && out.connect.is_some() {
        eprintln!("--listen and --connect are mutually exclusive");
        usage();
    }
    if out.connect.is_none() && (out.dataset.is_none() || out.method.is_none()) {
        usage();
    }
    out
}

/// Builds the recording telemetry from the exporter flags: zero flags means
/// stderr logging only; one means that sink alone; several tee into all.
fn build_telemetry(args: &Args) -> Telemetry {
    fn open<S: Sink + 'static>(
        path: &str,
        create: impl FnOnce(&str) -> std::io::Result<S>,
    ) -> Box<dyn Sink> {
        match create(path) {
            Ok(sink) => Box::new(sink),
            Err(e) => {
                eprintln!("cannot create {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    let mut sinks: Vec<Box<dyn Sink>> = Vec::new();
    if let Some(path) = &args.trace {
        sinks.push(open(path, |p| JsonlSink::create(p)));
    }
    if let Some(path) = &args.trace_chrome {
        sinks.push(open(path, |p| ChromeTraceSink::create(p)));
    }
    if let Some(path) = &args.metrics {
        sinks.push(open(path, |p| PrometheusSink::create(p)));
    }
    match sinks.len() {
        0 => Telemetry::stderr(),
        1 => Telemetry::with_sink(sinks.pop().expect("one sink")),
        _ => Telemetry::with_sink(Box::new(TeeSink::new(sinks))),
    }
}

/// Joins a server as a training client; prints the replica's report.
fn run_connect(addr: &str, args: &Args) -> ! {
    let telemetry = build_telemetry(args);
    match netcli::client(addr, &ClientOptions::default(), None, &telemetry) {
        Ok((spec, report)) => {
            telemetry.flush();
            println!(
                "run:      {} on {} (seed {})",
                spec.method, spec.dataset, spec.seed
            );
            println!("peer:     {}", report.peer_id);
            println!("rounds:   {}", report.rounds);
            println!("sessions: {}", report.sessions);
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("run --connect: {e}");
            std::process::exit(1);
        }
    }
}

fn print_result(args: &Args, r: &MethodResult, telemetry: &Telemetry, wall: std::time::Duration) {
    println!("method:      {}", r.name);
    println!("dataset:     {}", r.result.dataset);
    println!("Avg:         {:.2}%", r.scores.avg);
    println!("Last:        {:.2}%", r.scores.last);
    println!("forgetting:  {:.2}%", r.scores.forgetting);
    println!("steps:       {:?}", r.result.step_accuracies());
    println!(
        "traffic:     {:.1} MiB over {} rounds",
        r.result.traffic.total_bytes() as f64 / (1024.0 * 1024.0),
        r.result.traffic.rounds
    );
    println!("wall time:   {wall:.1?}");
    if args.listen.is_some() {
        let late: u64 = r.result.rounds.iter().map(|rr| rr.clients_late).sum();
        println!("late:        {late} session(s) missed their round deadline");
    }
    if let Some(path) = &args.trace {
        let summary = &r.result.telemetry;
        println!(
            "trace:       {path} ({} client sessions, {} bytes up / {} bytes down)",
            summary.counter("clients.trained"),
            summary.counter("traffic.up_bytes"),
            summary.counter("traffic.down_bytes"),
        );
        // Per-message-kind breakdown of the encoded-frame traffic.
        for (name, bytes) in summary.counters_with_prefix("wire.") {
            let kind = name
                .strip_prefix("wire.")
                .and_then(|n| n.strip_suffix("_bytes"))
                .unwrap_or(name);
            println!("  {kind:<24} {bytes} bytes");
        }
    }
    if let Some(path) = &args.trace_chrome {
        println!("chrome trace: {path} (open in Perfetto or chrome://tracing)");
    }
    if let Some(path) = &args.metrics {
        println!("metrics:     {path}");
    }
    if let Some(path) = &args.json {
        #[derive(serde::Serialize)]
        struct Out<'a> {
            name: &'a str,
            scores: refil_eval::Scores,
            domain_names: &'a [String],
            domain_acc: &'a [Vec<f32>],
        }
        let out = Out {
            name: &r.name,
            scores: r.scores,
            domain_names: &r.result.domain_names,
            domain_acc: &r.result.domain_acc,
        };
        match serde_json::to_string_pretty(&out) {
            Ok(s) => {
                if let Err(e) = std::fs::write(path, s) {
                    telemetry.warn(format!("could not write {path}: {e}"));
                } else {
                    telemetry.info(format!("wrote {path}"));
                }
            }
            Err(e) => telemetry.warn(format!("serialization failed: {e}")),
        }
    }
}

fn main() {
    let args = parse_args();
    if let Some(addr) = args.connect.clone() {
        run_connect(&addr, &args);
    }
    let (dataset, method) = (
        args.dataset.expect("checked in parse_args"),
        args.method.expect("checked in parse_args"),
    );
    // Status reporting goes through the level-filtered stderr sink; the run
    // itself records into a JSONL trace when --trace is given.
    let status = Telemetry::stderr();
    status.info(format!(
        "running {} on {}{} (seed {})",
        method.paper_name(),
        dataset.name(),
        if args.new_order { ", new order" } else { "" },
        args.seed
    ));
    let telemetry = build_telemetry(&args);
    let start = std::time::Instant::now();
    let r = if let Some(addr) = &args.listen {
        let spec = NetSpec::new(
            dataset,
            method,
            scale_name_from_env(),
            args.seed,
            args.new_order,
        );
        match netcli::serve(addr, &spec, &args.overrides, args.threads, &telemetry) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("run --listen: {e}");
                std::process::exit(1);
            }
        }
    } else {
        let spec = ExperimentSpec {
            dataset,
            scale: Scale::from_env(),
            new_order: args.new_order,
            seed: args.seed,
        };
        run_experiment(&spec, method, &telemetry, args.threads, args.overrides.wire)
    };
    telemetry.flush();
    print_result(&args, &r, &status, start.elapsed());
}
