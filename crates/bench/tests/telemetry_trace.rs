//! End-to-end telemetry tests: trace structure, traffic agreement, and
//! determinism of the federated loop under different sinks.

use std::collections::BTreeMap;

use refil_bench::{run_experiment, DatasetChoice, ExperimentSpec, MethodChoice, Scale};
use refil_telemetry::{Telemetry, TraceEvent};

fn smoke_spec(dataset: DatasetChoice) -> ExperimentSpec {
    ExperimentSpec {
        dataset,
        scale: Scale::smoke(),
        new_order: false,
        seed: 7,
    }
}

fn temp_trace_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir()
        .join("refil-trace-tests")
        .join(format!("{tag}-{}.jsonl", std::process::id()))
}

#[test]
fn jsonl_trace_covers_every_task_round_and_client_session() {
    let path = temp_trace_path("structure");
    let telemetry = Telemetry::jsonl(&path).expect("create trace sink");
    let spec = smoke_spec(DatasetChoice::OfficeCaltech10);
    let r = run_experiment(&spec, MethodChoice::Finetune, &telemetry, None, None);
    telemetry.flush();

    let text = std::fs::read_to_string(&path).expect("read trace");
    let events: Vec<TraceEvent> = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("every line parses as one TraceEvent"))
        .collect();
    assert!(!events.is_empty(), "trace is empty");

    let mut span_starts: Vec<&str> = Vec::new();
    let mut span_ends: BTreeMap<String, u64> = BTreeMap::new();
    let mut final_counters: BTreeMap<String, u64> = BTreeMap::new();
    for e in &events {
        match e {
            TraceEvent::SpanStart { path } => span_starts.push(path),
            TraceEvent::SpanEnd { path, duration_ns } => {
                // u64 is non-negative by construction; record for pairing.
                span_ends.insert(path.clone(), *duration_ns);
            }
            TraceEvent::Counter { name, total, .. } => {
                final_counters.insert(name.clone(), *total);
            }
            _ => {}
        }
    }

    // Every opened span closed (paths are unique per (task,round,client)
    // combination except repeated leaf names, which still pair up).
    for p in &span_starts {
        assert!(span_ends.contains_key(*p), "span {p} never closed");
    }

    // One run span, one span per task, per round, per client session.
    let tasks = r.result.domain_acc.len();
    assert!(span_starts.contains(&"run"), "missing run span");
    for t in 0..tasks {
        assert!(
            span_starts.iter().any(|p| *p == format!("run/task:{t}")),
            "missing span for task {t}"
        );
    }
    let leaf = |p: &str| p.rsplit('/').next().unwrap_or("").to_string();
    let round_spans = span_starts
        .iter()
        .filter(|p| leaf(p).starts_with("round:"))
        .count();
    assert_eq!(
        round_spans as u64, r.result.traffic.rounds,
        "one span per round"
    );
    let client_spans = span_starts
        .iter()
        .filter(|p| leaf(p).starts_with("client:"))
        .count();
    assert_eq!(
        client_spans as u64, r.result.traffic.client_updates,
        "one span per client session"
    );
    let eval_spans = span_starts
        .iter()
        .filter(|p| p.ends_with("/evaluate_domain"))
        .count();
    assert!(eval_spans > 0, "missing evaluation spans");

    // Trace byte counters match TrafficStats exactly.
    assert_eq!(
        final_counters["traffic.up_bytes"],
        r.result.traffic.up_bytes
    );
    assert_eq!(
        final_counters["traffic.down_bytes"],
        r.result.traffic.down_bytes
    );
    assert_eq!(final_counters["rounds"], r.result.traffic.rounds);
    assert_eq!(
        final_counters["clients.trained"],
        r.result.traffic.client_updates
    );

    // The summary surfaced on the result agrees with the streamed totals.
    assert_eq!(
        r.result.telemetry.counter("traffic.up_bytes"),
        r.result.traffic.up_bytes
    );
    assert_eq!(
        r.result.telemetry.counter("traffic.down_bytes"),
        r.result.traffic.down_bytes
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn reffil_trace_records_prompt_and_clustering_activity() {
    let path = temp_trace_path("reffil");
    let telemetry = Telemetry::jsonl(&path).expect("create trace sink");
    let spec = smoke_spec(DatasetChoice::OfficeCaltech10);
    let r = run_experiment(&spec, MethodChoice::RefFiL, &telemetry, None, None);
    telemetry.flush();

    let summary = &r.result.telemetry;
    assert!(
        summary.counter("wire.prompt_upload_bytes") > 0,
        "no prompt upload frames recorded"
    );
    assert!(
        summary.counter("wire.global_prompt_broadcast_bytes") > 0,
        "no global prompt broadcast frames recorded"
    );
    assert!(
        summary.counter("wire.model_broadcast_bytes") > 0
            && summary.counter("wire.client_model_update_bytes") > 0,
        "model frames unaccounted"
    );
    // The per-kind wire counters partition the traffic totals exactly.
    let wire_total: u64 = summary
        .counters_with_prefix("wire.")
        .map(|(_, bytes)| bytes)
        .sum();
    assert_eq!(
        wire_total,
        r.result.traffic.total_bytes(),
        "per-kind wire counters do not sum to total traffic"
    );
    assert!(
        summary.spans.keys().any(|k| k == "prompt_ingest"),
        "no ingest spans"
    );
    assert!(
        summary.spans.keys().any(|k| k == "finch_cluster"),
        "no FINCH spans"
    );
    assert!(
        summary.spans.keys().any(|k| k == "local_train"),
        "no local training spans"
    );
    assert!(
        summary.histograms.contains_key("dpcl.temperature"),
        "DPCL temperature not observed"
    );
    assert!(
        summary.histograms.contains_key("prompt.pool_size"),
        "prompt pool size not observed"
    );

    // The streamed trace contains the nested FINCH spans too.
    let text = std::fs::read_to_string(&path).expect("read trace");
    assert!(
        text.contains("finch_cluster"),
        "trace lacks finch_cluster spans"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn telemetry_does_not_perturb_results() {
    let spec = smoke_spec(DatasetChoice::OfficeCaltech10);
    for method in [MethodChoice::Finetune, MethodChoice::RefFiL] {
        let r_disabled = run_experiment(&spec, method, &Telemetry::disabled(), None, None);
        let r_collecting = run_experiment(&spec, method, &Telemetry::collecting(), None, None);
        assert_eq!(
            r_disabled.result.domain_acc, r_collecting.result.domain_acc,
            "telemetry changed {method:?} results"
        );
        assert_eq!(r_disabled.result.traffic, r_collecting.result.traffic);
        assert!(
            r_disabled.result.telemetry.is_empty(),
            "disabled run has a summary"
        );
        assert!(
            !r_collecting.result.telemetry.is_empty(),
            "collecting run lost its summary"
        );
    }
}

#[test]
fn per_task_traffic_breakdown_sums_to_totals() {
    let spec = smoke_spec(DatasetChoice::OfficeCaltech10);
    let r = run_experiment(
        &spec,
        MethodChoice::RefFiL,
        &Telemetry::disabled(),
        None,
        None,
    );
    let t = &r.result.traffic;
    assert_eq!(
        t.per_task.len(),
        r.result.domain_acc.len(),
        "one slice per task"
    );
    assert_eq!(
        t.per_task.iter().map(|s| s.up_bytes).sum::<u64>(),
        t.up_bytes
    );
    assert_eq!(
        t.per_task.iter().map(|s| s.down_bytes).sum::<u64>(),
        t.down_bytes
    );
    assert_eq!(t.per_task.iter().map(|s| s.rounds).sum::<u64>(), t.rounds);
    assert_eq!(
        t.per_task.iter().map(|s| s.client_updates).sum::<u64>(),
        t.client_updates
    );
}
