//! The determinism contract as one matrix of runs with golden digests.
//!
//! Every strategy runs at seeds 13 and 29, sequentially with telemetry off
//! and on four workers with collecting telemetry, and variant classes cover
//! prompt-only exchange, sampled participation, dropout and a run whose
//! peers all abort. Each run reduces to one digest of its semantic fields
//! (`common::digest`), and every cell of a class must match the class's
//! golden digest in `common::GOLDEN` — so a change that moves the outputs
//! of every cell alike fails too, not only one that makes two cells
//! disagree.
//!
//! What a digest cannot say stays an assertion: taped and tape-free
//! inference agree, Chrome traces nest, `RoundReport` keeps its fields,
//! stragglers are late rather than lost, and the parallel eval sweep
//! reproduces the run's row.
//!
//! The Finetune and RefFiL classes and the lossy-codec class keep their
//! cells under the names of the contracts they pin, in the topic binaries
//! beside this one (`determinism`, `inference`, `network`, `profiling`),
//! against the same goldens.

mod common;

use std::time::{Duration, Instant};

use common::net::{client_child, serve_run, tcp};
use common::{
    assert_taped_matches_tape_free, cell, check_class, dataset, in_process, run_cfg, thread_class,
    unique_tmp, Strategy, STRATEGIES,
};
use refil::fed::{FdilRunner, RoundReport, Telemetry};

/// Child-mode entry point: a no-op test normally, a federation client when
/// re-executed by `common::net::spawn_client` with `REFIL_NET_CHILD_ADDR`
/// set.
#[test]
fn net_client_child() {
    client_child();
}

// ---------------------------------------------------------------------------
// Strategy classes: every strategy at seeds 13 and 29
// ---------------------------------------------------------------------------

/// The `<name>/<seed>` class: threads 1 with telemetry off and threads 4
/// collecting, and taped ≡ tape-free inference on the final global model.
fn strategy_class(name: &str, seed: u64) {
    let (res, strat) = thread_class(name, seed);
    assert_taped_matches_tape_free(&format!("{name}/{seed}"), &strat, &res);
}

macro_rules! strategy_classes {
    ($($test:ident => $name:literal @ $seed:literal;)*) => {
        $(
            #[test]
            fn $test() {
                strategy_class($name, $seed);
            }
        )*
    };
}

strategy_classes! {
    fedprox_13 => "fedprox" @ 13;
    fedprox_29 => "fedprox" @ 29;
    lwf_13 => "lwf" @ 13;
    lwf_29 => "lwf" @ 29;
    ewc_13 => "ewc" @ 13;
    ewc_29 => "ewc" @ 29;
    rehearsal_13 => "rehearsal" @ 13;
    rehearsal_29 => "rehearsal" @ 29;
    l2p_13 => "l2p" @ 13;
    l2p_29 => "l2p" @ 29;
    l2p_pool_13 => "l2p+pool" @ 13;
    l2p_pool_29 => "l2p+pool" @ 29;
    dualprompt_13 => "dualprompt" @ 13;
    dualprompt_29 => "dualprompt" @ 29;
    dualprompt_pool_13 => "dualprompt+pool" @ 13;
    dualprompt_pool_29 => "dualprompt+pool" @ 29;
}

// ---------------------------------------------------------------------------
// Variant classes
// ---------------------------------------------------------------------------

#[test]
fn prompt_only_reffil_over_tcp_matches_loopback() {
    // Masked (prompt-only) exchange under the identity spec: task 0 goes up
    // dense, later tasks as sparse frames, and remote clients must make
    // exactly the same per-task choice as the in-process driver.
    let cfg = run_cfg(13);
    let (t1, s1) = in_process("reffil+prompt", cfg, 1, false);
    let (tcp, stcp) = serve_run(&tcp(), "reffil+prompt", cfg, 2, &[], true);
    for res in [&t1, &tcp] {
        for r in &res.rounds {
            if r.task == 0 {
                assert!(!r.wire_bytes.contains_key("compressed_model_update"));
                assert_eq!(r.uplink_raw_bytes, r.uplink_encoded_bytes);
            } else {
                assert!(r.wire_bytes.contains_key("compressed_model_update"));
                assert!(r.uplink_encoded_bytes < r.uplink_raw_bytes);
            }
        }
    }
    check_class(
        "reffil+prompt/13",
        &[cell("t1", &t1, &s1), cell("tcp", &tcp, &stcp)],
    );
}

#[test]
fn sampled_participation_matches_loopback() {
    // Per-round client sampling draws from its own seeded RNG stream on the
    // shared planning path, so a networked run samples exactly the sessions
    // the in-process run samples.
    let mut cfg = run_cfg(29);
    cfg.net.sample_fraction = 0.5;
    cfg.net.min_sample = 1;
    let (t1, s1) = in_process("finetune", cfg, 1, false);
    let sampled_out: u64 = t1.rounds.iter().map(|r| r.clients_sampled_out).sum();
    assert!(
        sampled_out > 0,
        "half sampling must leave some sessions out"
    );
    let (tcp, stcp) = serve_run(&tcp(), "finetune", cfg, 2, &[], true);
    check_class(
        "finetune+sample0.5/29",
        &[cell("t1", &t1, &s1), cell("tcp", &tcp, &stcp)],
    );
}

#[test]
fn parallel_matches_sequential_under_dropout() {
    // Dropout draws are part of the pre-drawn randomness; simulated client
    // failures must hit the same clients at any thread count.
    let mut cfg = run_cfg(13);
    cfg.dropout_prob = 0.4;
    let (t1, s1) = in_process("finetune", cfg, 1, false);
    let (t4, s4) = in_process("finetune", cfg, 4, false);
    check_class(
        "finetune+dropout0.4/13",
        &[cell("t1", &t1, &s1), cell("t4", &t4, &s4)],
    );
}

#[test]
fn straggler_dropout_completes_deterministically() {
    // Both clients crash (drop the connection without notice) on their
    // third RoundStart. Every round from then on completes all-late via the
    // deadline/disconnect path, and because session results depend only on
    // the replicated state, not on which peer trains them, two such runs
    // are byte-identical.
    let abort = [("REFIL_NET_CHILD_ABORT", "3".to_string())];
    let run = || {
        let mut cfg = run_cfg(13);
        cfg.net.round_deadline_ms = 2_000;
        cfg.net.join_grace_ms = 100;
        serve_run(&tcp(), "finetune", cfg, 2, &abort, true)
    };
    let (a, sa) = run();
    let (b, sb) = run();

    // The run completed every planned round and task despite losing every
    // peer mid-run...
    assert_eq!(a.traffic.rounds, 6);
    assert_eq!(a.domain_acc.len(), 2);
    // ...with the stranded sessions recorded as late, not lost.
    let late: u64 = a.rounds.iter().map(|r| r.clients_late).sum();
    let trained: u64 = a.rounds.iter().map(|r| r.clients_trained).sum();
    assert!(late > 0, "aborting both clients must strand sessions");
    assert!(trained > 0, "rounds before the abort must train normally");
    // Once both peers are gone nothing mixes trained and late sessions:
    // each round is either fully trained (before the crash) or fully late.
    assert!(a
        .rounds
        .iter()
        .all(|r| r.clients_trained == 0 || r.clients_late == 0));
    check_class(
        "finetune+straggler/13",
        &[cell("tcp", &a, &sa), cell("tcp again", &b, &sb)],
    );
}

// ---------------------------------------------------------------------------
// Assertion groups
// ---------------------------------------------------------------------------

#[test]
fn slow_client_misses_deadline_but_run_completes() {
    // A single client that sleeps longer than the round deadline: its
    // results always arrive after the server sealed the round (and are
    // discarded as stale), so every session is late — but the server never
    // hangs and still walks the full task schedule.
    let delay = [("REFIL_NET_CHILD_DELAY", "700".to_string())];
    let mut cfg = run_cfg(13);
    cfg.increment.rounds_per_task = 2;
    cfg.net.round_deadline_ms = 150;
    cfg.net.join_grace_ms = 100;
    let started = Instant::now();
    // The slow client may die on a send into the closed socket after the
    // server finishes; its exit status is not part of the contract.
    let (result, _) = serve_run(&tcp(), "finetune", cfg, 1, &delay, false);
    assert_eq!(result.traffic.rounds, 4, "run must complete all rounds");
    assert_eq!(result.domain_acc.len(), 2);
    let late: u64 = result.rounds.iter().map(|r| r.clients_late).sum();
    let planned: u64 = result
        .rounds
        .iter()
        .map(|r| r.clients_trained + r.clients_late)
        .sum();
    assert_eq!(late, planned, "every session should miss the deadline");
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "deadline path must not hang"
    );
}

#[test]
fn parallel_eval_matches_serial_at_any_thread_count() {
    let ds = dataset();
    let cfg = run_cfg(13);
    let (res, strat) = in_process("reffil", cfg, 1, false);
    check_class("reffil/13", &[cell("t1", &res, &strat)]);
    let last = ds.num_domains() - 1;
    let eval = |threads: usize| -> Vec<u32> {
        FdilRunner::new(cfg)
            .threads(threads)
            .evaluate_task(strat.get(), &res.final_global, &ds, last)
            .iter()
            .map(|a| a.to_bits())
            .collect()
    };
    let serial = eval(1);
    for threads in [2usize, 4] {
        assert_eq!(serial, eval(threads), "eval diverged at threads={threads}");
    }
    // The sweep also reproduces the row the run itself recorded.
    let recorded: Vec<u32> = res
        .domain_acc
        .last()
        .expect("at least one task")
        .iter()
        .map(|a| a.to_bits())
        .collect();
    assert_eq!(
        serial, recorded,
        "evaluate_task disagrees with the run's recorded accuracies"
    );
}

#[test]
fn chrome_trace_is_valid_json_with_strictly_nested_tracks() {
    let path = unique_tmp("trace.json");
    let run = {
        let telemetry = Telemetry::chrome(&path).expect("create chrome sink");
        let mut strat = Strategy::build("finetune");
        let res = FdilRunner::new(run_cfg(13))
            .threads(2)
            .telemetry(&telemetry)
            .run(&dataset(), strat.get_mut());
        telemetry.flush();
        cell("t2+chrome", &res, &strat)
    };
    let text = std::fs::read_to_string(&path).expect("read trace");
    std::fs::remove_file(&path).ok();
    let doc = serde_json::parse_value(&text).expect("trace parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_seq())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace has no events");

    // Collect complete ("X") spans per track and the track-name metadata.
    let mut tracks: std::collections::BTreeMap<u64, Vec<(f64, f64, String)>> = Default::default();
    let mut named_tracks = std::collections::BTreeSet::new();
    for e in events {
        let ph = e.get("ph").and_then(|v| v.as_str()).expect("ph field");
        let tid = e.get("tid").and_then(|v| v.as_u64()).expect("tid field");
        match ph {
            "X" => {
                let ts = e.get("ts").and_then(|v| v.as_f64()).expect("ts");
                let dur = e.get("dur").and_then(|v| v.as_f64()).expect("dur");
                let name = e
                    .get("name")
                    .and_then(|v| v.as_str())
                    .expect("name")
                    .to_string();
                assert!(ts >= 0.0 && dur >= 0.0, "negative ts/dur on {name}");
                tracks.entry(tid).or_default().push((ts, dur, name));
            }
            "M" => {
                assert_eq!(
                    e.get("name").and_then(|v| v.as_str()),
                    Some("thread_name"),
                    "unexpected metadata event"
                );
                named_tracks.insert(tid);
            }
            _ => {}
        }
    }
    assert!(!tracks.is_empty(), "no complete spans in trace");
    // Track 0 is the driver (round/phase spans); workers follow.
    assert!(tracks.contains_key(&0), "driver track missing");
    assert!(
        tracks.len() >= 2,
        "expected worker tracks beside the driver"
    );
    for tid in tracks.keys() {
        assert!(named_tracks.contains(tid), "track {tid} has no thread_name");
    }

    // Strict nesting per track: sweeping spans by start (ties: longest
    // first), every span must fit entirely inside the enclosing open span.
    for (tid, spans) in &mut tracks {
        spans.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(b.1.partial_cmp(&a.1).unwrap())
        });
        let mut open: Vec<(f64, String)> = Vec::new(); // (end, name)
        for (ts, dur, name) in spans.iter() {
            while let Some((end, _)) = open.last() {
                if *end <= *ts {
                    open.pop();
                } else {
                    break;
                }
            }
            if let Some((end, outer)) = open.last() {
                assert!(
                    ts + dur <= *end + 1e-9,
                    "track {tid}: span {name} [{ts}, {}) overflows enclosing {outer} ending {end}",
                    ts + dur
                );
            }
            open.push((ts + dur, name.clone()));
        }
    }
    check_class("finetune/13", &[run]);
}

#[test]
fn round_report_json_pins_field_presence() {
    // The report schema downstream tooling depends on: every field name
    // must be present in the serialized form of a real report, for every
    // strategy. A field rename or removal fails here before it breaks
    // dashboards parsing `RunResult::rounds`.
    const FIELDS: &[&str] = &[
        "task",
        "round",
        "wall_ns",
        "phases",
        "broadcast",
        "train",
        "aggregate",
        "merge",
        "eval",
        "sessions",
        "train_pool",
        "eval_pool",
        "wire_bytes",
        "clients_trained",
        "clients_dropped",
        "clients_late",
        "clients_sampled_out",
        "clients_rejected",
        "eval_domain_acc",
        "scratch",
        "reserved_bytes",
        "reserved_count",
        "reused_bytes",
        "reused_count",
        "peak_pool_bytes",
    ];
    const POOL_FIELDS: &[&str] = &[
        "wall_ns", "workers", "track", "busy_ns", "idle_ns", "items", "steals",
    ];
    const SESSION_FIELDS: &[&str] = &["client_id", "track", "duration_ns"];
    for name in STRATEGIES {
        let (res, strat) = in_process(name, run_cfg(13), 2, true);
        check_class(
            &format!("{name}/13"),
            &[cell("t2+collecting", &res, &strat)],
        );
        assert!(!res.rounds.is_empty(), "{name}: no round reports");
        let json = serde_json::to_string(&res.rounds).expect("serialize rounds");
        for field in FIELDS {
            assert!(
                json.contains(&format!("\"{field}\"")),
                "{name}: field {field} missing from serialized rounds"
            );
        }
        // With collecting telemetry at threads > 1, pool and session
        // sub-objects must be populated somewhere in the run.
        let trained: Vec<&RoundReport> = res
            .rounds
            .iter()
            .filter(|r| r.clients_trained > 0)
            .collect();
        assert!(!trained.is_empty(), "{name}: no round trained any client");
        let pooled = trained
            .iter()
            .find(|r| r.train_pool.is_some())
            .unwrap_or_else(|| panic!("{name}: collecting telemetry produced no train pool stats"));
        let pool_json =
            serde_json::to_string(pooled.train_pool.as_ref().expect("pool")).expect("serialize");
        for field in POOL_FIELDS {
            assert!(
                pool_json.contains(&format!("\"{field}\"")),
                "{name}: pool field {field} missing"
            );
        }
        let session_json = serde_json::to_string(&pooled.sessions).expect("serialize sessions");
        for field in SESSION_FIELDS {
            assert!(
                session_json.contains(&format!("\"{field}\"")),
                "{name}: session field {field} missing"
            );
        }
        // Arena accounting must have observed real buffer traffic.
        let total_scratch: u64 = res
            .rounds
            .iter()
            .map(|r| r.scratch.reserved_count + r.scratch.reused_count)
            .sum();
        assert!(total_scratch > 0, "{name}: scratch arena saw no requests");
    }
}
