//! `refil-bench run`: one method on one dataset — in-process, as a
//! federation server, or as a joining client — and print/save the result.
//!
//! ```text
//! refil-bench run --dataset digits --method reffil --seed 42      # in-process
//! refil-bench run --dataset digits --method reffil \
//!     --listen tcp:127.0.0.1:7700 --min-peers 2                  # server
//! refil-bench run --connect tcp:127.0.0.1:7700                   # client
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
//! | `--min-peers N`          | listen | clients to wait for before round one, without time limit (default 1) |
//! | `--round-deadline-ms N`  | listen | per-round straggler deadline (default 30000) |
//! | `--join-grace-ms N`      | listen | wait for a (re)joiner when a round opens with no peer (default 10000) |
//! | `--sample-fraction F`    | listen | per-round participation fraction in (0, 1]; 0 disables sampling (default 0) |
//! | `--min-sample N`         | listen | never sample below N sessions per round (default 0 = 1) |
//! | `--wire SPEC`            | local, listen | uplink compression spec, e.g. `delta+int8+topk0.5`, `f16`, `none` (default none) |
//! | `--idle-ms N`            | connect | give up if the server stays silent this long (default 120000) |
//! | `--train-delay-ms N`     | connect | sleep before sending each round's results (straggler testing) |
//! | `--leave-after N`        | connect | announce a voluntary leave after N trained sessions |
//! | `--abort-after N`        | connect | drop the connection on the Nth round start (crash testing) |
//! | `--threads N`            | all | worker pool size (0 = auto: all cores; N clamps to the core count; default from `REFIL_THREADS`) |
//! | `--json FILE`            | local, listen | write scores + accuracy matrix as JSON |
//! | `--trace FILE`           | all | stream telemetry events as JSONL |
//! | `--trace-chrome FILE`    | all | write a Chrome trace-event file (Perfetto) |
//! | `--metrics FILE`         | all | write a Prometheus text snapshot on exit |
//!
//! `REFIL_SCALE=smoke|bench|paper` controls the protocol scale (a server
//! stamps it into the spec it hands to clients, so clients never need
//! scale flags); `REFIL_LOG` controls stderr verbosity. Results are
//! byte-identical across thread counts and across the three modes: a
//! `--listen` run with N clients reports the same accuracies and per-kind
//! wire bytes as the same-seed in-process run.

use std::process::ExitCode;

use refil_bench::methods::method_by_name;
use refil_bench::netcli::{self, parse_wire_arg, scale_name_from_env, NetOverrides, NetSpec};
use refil_bench::{
    dataset_by_name, run_experiment, DatasetChoice, ExperimentSpec, MethodChoice, MethodResult,
    Scale,
};
use refil_fed::ClientOptions;
use refil_telemetry::{ChromeTraceSink, JsonlSink, PrometheusSink, Sink, TeeSink, Telemetry};

use crate::Args;

/// Usage text of `refil-bench run`.
pub(crate) const USAGE: &str = "usage: refil-bench run --dataset <digits|office|pacs|domainnet> --method <finetune|lwf|ewc|l2p|l2p+pool|dualprompt|dualprompt+pool|reffil|reffil+prompt> [--seed N] [--new-order] [--listen ADDR [--min-peers N] [--round-deadline-ms N] [--join-grace-ms N] [--sample-fraction F] [--min-sample N]] [--wire SPEC] [--threads N] [--json FILE] [--trace FILE] [--trace-chrome FILE] [--metrics FILE]
       refil-bench run --connect ADDR [--idle-ms N] [--train-delay-ms N] [--leave-after N] [--abort-after N] [--threads N] [--trace FILE] [--trace-chrome FILE] [--metrics FILE]";

#[derive(Default)]
struct Flags {
    dataset: Option<DatasetChoice>,
    method: Option<MethodChoice>,
    seed: Option<u64>,
    new_order: bool,
    listen: Option<String>,
    connect: Option<String>,
    overrides: NetOverrides,
    idle_ms: Option<u64>,
    client: ClientOptions,
    threads: Option<usize>,
    json: Option<String>,
    trace: Option<String>,
    trace_chrome: Option<String>,
    metrics: Option<String>,
}

fn parse(mut args: Args) -> Flags {
    let mut out = Flags::default();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--dataset" => {
                let v = args.value();
                out.dataset = Some(
                    dataset_by_name(&v)
                        .unwrap_or_else(|| args.fail(format!("unknown dataset {v:?}"))),
                );
            }
            "--method" => {
                let v = args.value();
                out.method = Some(
                    method_by_name(&v)
                        .unwrap_or_else(|| args.fail(format!("unknown method {v:?}"))),
                );
            }
            "--seed" => out.seed = Some(args.num()),
            "--new-order" => out.new_order = true,
            "--listen" => out.listen = Some(args.value()),
            "--connect" => out.connect = Some(args.value()),
            "--min-peers" => out.overrides.min_peers = Some(args.num()),
            "--round-deadline-ms" => out.overrides.round_deadline_ms = Some(args.num()),
            "--join-grace-ms" => out.overrides.join_grace_ms = Some(args.num()),
            "--sample-fraction" => out.overrides.sample_fraction = Some(args.num()),
            "--min-sample" => out.overrides.min_sample = Some(args.num()),
            "--wire" => {
                let v = args.value();
                out.overrides.wire = Some(parse_wire_arg(&v).unwrap_or_else(|e| args.fail(e)));
            }
            "--idle-ms" => out.idle_ms = Some(args.num()),
            "--train-delay-ms" => out.client.train_delay_ms = args.num(),
            "--leave-after" => out.client.leave_after_sessions = Some(args.num()),
            "--abort-after" => out.client.abort_after_round_starts = Some(args.num()),
            "--threads" => out.threads = Some(args.num()),
            "--json" => out.json = Some(args.value()),
            "--trace" => out.trace = Some(args.value()),
            "--trace-chrome" => out.trace_chrome = Some(args.value()),
            "--metrics" => out.metrics = Some(args.value()),
            other => args.fail(format!("unknown argument {other:?}")),
        }
    }
    if out.listen.is_some() && out.connect.is_some() {
        args.fail("--listen and --connect are mutually exclusive");
    }
    if out.connect.is_none() && (out.dataset.is_none() || out.method.is_none()) {
        args.usage();
    }
    out
}

/// Builds the recording telemetry from the exporter flags: zero flags means
/// stderr logging only; one means that sink alone; several tee into all.
fn build_telemetry(flags: &Flags) -> Telemetry {
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
    if let Some(path) = &flags.trace {
        sinks.push(open(path, |p| JsonlSink::create(p)));
    }
    if let Some(path) = &flags.trace_chrome {
        sinks.push(open(path, |p| ChromeTraceSink::create(p)));
    }
    if let Some(path) = &flags.metrics {
        sinks.push(open(path, |p| PrometheusSink::create(p)));
    }
    match sinks.len() {
        0 => Telemetry::stderr(),
        1 => Telemetry::with_sink(sinks.pop().expect("one sink")),
        _ => Telemetry::with_sink(Box::new(TeeSink::new(sinks))),
    }
}

/// Joins a server as a training client; prints the replica's report.
fn run_connect(addr: &str, flags: &Flags) -> ExitCode {
    let telemetry = build_telemetry(flags);
    match netcli::client(addr, &flags.client, flags.idle_ms, &telemetry) {
        Ok((spec, report)) => {
            telemetry.flush();
            println!(
                "run:      {} on {} (seed {})",
                spec.method, spec.dataset, spec.seed
            );
            println!("peer:     {}", report.peer_id);
            println!("rounds:   {}", report.rounds);
            println!("sessions: {}", report.sessions);
            let reason = match report.reason {
                0 => "complete",
                1 => "leave",
                2 => "abort",
                _ => "unknown",
            };
            println!("reason:   {reason}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("run --connect: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_result(flags: &Flags, r: &MethodResult, telemetry: &Telemetry, wall: std::time::Duration) {
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
    if flags.listen.is_some() {
        let late: u64 = r.result.rounds.iter().map(|rr| rr.clients_late).sum();
        println!("late:        {late} session(s) missed their round deadline");
    }
    if let Some(path) = &flags.trace {
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
    if let Some(path) = &flags.trace_chrome {
        println!("chrome trace: {path} (open in Perfetto or chrome://tracing)");
    }
    if let Some(path) = &flags.metrics {
        println!("metrics:     {path}");
    }
    if let Some(path) = &flags.json {
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

/// Entry point of `refil-bench run`.
pub(crate) fn main(args: Args) -> ExitCode {
    let flags = parse(args);
    if let Some(addr) = &flags.connect {
        return run_connect(addr, &flags);
    }
    let (dataset, method) = (
        flags.dataset.expect("checked in parse"),
        flags.method.expect("checked in parse"),
    );
    let seed = flags.seed.unwrap_or(42);
    // Status reporting goes through the level-filtered stderr sink; the run
    // itself records into the exporter sinks when any is given.
    let status = Telemetry::stderr();
    status.info(format!(
        "running {} on {}{} (seed {seed})",
        method.paper_name(),
        dataset.name(),
        if flags.new_order { ", new order" } else { "" },
    ));
    let telemetry = build_telemetry(&flags);
    let start = std::time::Instant::now();
    let r = if let Some(addr) = &flags.listen {
        let spec = NetSpec::new(
            dataset,
            method,
            scale_name_from_env(),
            seed,
            flags.new_order,
        );
        match netcli::serve(addr, &spec, &flags.overrides, flags.threads, &telemetry) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("run --listen: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let spec = ExperimentSpec {
            dataset,
            scale: Scale::from_env(),
            new_order: flags.new_order,
            seed,
        };
        run_experiment(
            &spec,
            method,
            &telemetry,
            flags.threads,
            flags.overrides.wire,
        )
    };
    telemetry.flush();
    print_result(&flags, &r, &status, start.elapsed());
    ExitCode::SUCCESS
}
