//! The profiling layer's cross-crate contracts.
//!
//! Two things are pinned here: the Chrome trace exporter writes valid
//! trace-event JSON whose spans are strictly nested within each worker
//! track, and every strategy's run emits one `RoundReport` per round whose
//! *semantic* fields (ids, counts, wire bytes, accuracies — everything
//! except wall times) are byte-identical across worker-thread counts.

use refil::continual::{FedDualPrompt, FedEwc, FedL2p, FedLwf, Finetune, MethodConfig};
use refil::core::{RefFiL, RefFiLConfig};
use refil::data::{DatasetSpec, DomainSpec, FdilDataset};
use refil::fed::{FdilRunner, FdilStrategy, IncrementConfig, RoundReport, RunConfig, Telemetry};
use refil::nn::models::{BackboneConfig, ExtractorKind};

fn dataset() -> FdilDataset {
    DatasetSpec {
        name: "prof".into(),
        classes: 3,
        feature_dim: 8,
        proto_scale: 2.5,
        within_std: 0.4,
        test_fraction: 0.3,
        signature_dim: 2,
        signature_scale: 0.6,
        domains: vec![
            DomainSpec::new("d0", 100, 0.15, 0.05),
            DomainSpec::new("d1", 100, 0.3, 0.4),
        ],
    }
    .generate(11)
}

fn method() -> MethodConfig {
    MethodConfig {
        backbone: BackboneConfig {
            in_dim: 8,
            extractor_width: 16,
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
    }
}

fn run_cfg(seed: u64) -> RunConfig {
    RunConfig {
        increment: IncrementConfig {
            initial_clients: 4,
            select_per_round: 3,
            increment_per_task: 1,
            transition_fraction: 0.8,
            rounds_per_task: 2,
        },
        local_epochs: 1,
        batch_size: 16,
        quantity_sigma: 0.5,
        eval_batch: 64,
        dropout_prob: 0.0,
        seed,
        threads: 0,
        net: Default::default(),
        wire: Default::default(),
    }
}

/// The paper's eight methods, as the bench harness builds them
/// (prompt-based ones on the stable-backbone regime).
fn strategies() -> Vec<(&'static str, Box<dyn FdilStrategy>)> {
    let cfg = method();
    let prompt = MethodConfig {
        stable_after_first_task: true,
        ..cfg
    };
    vec![
        (
            "finetune",
            Box::new(Finetune::new(cfg)) as Box<dyn FdilStrategy>,
        ),
        ("lwf", Box::new(FedLwf::new(cfg))),
        ("ewc", Box::new(FedEwc::new(cfg))),
        ("l2p", Box::new(FedL2p::new(prompt, false))),
        ("l2p+pool", Box::new(FedL2p::new(prompt, true))),
        ("dualprompt", Box::new(FedDualPrompt::new(prompt, false))),
        (
            "dualprompt+pool",
            Box::new(FedDualPrompt::new(prompt, true)),
        ),
        ("reffil", Box::new(RefFiL::new(RefFiLConfig::new(prompt)))),
    ]
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

fn unique_tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("refil_profiling_{}_{name}", std::process::id()))
}

#[test]
fn chrome_trace_is_valid_json_with_strictly_nested_tracks() {
    let path = unique_tmp("trace.json");
    {
        let telemetry = Telemetry::chrome(&path).expect("create chrome sink");
        let mut strat = Finetune::new(method());
        FdilRunner::new(run_cfg(13))
            .threads(2)
            .telemetry(&telemetry)
            .run(&dataset(), &mut strat);
        telemetry.flush();
    }
    let text = std::fs::read_to_string(&path).expect("read trace");
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
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// RoundReport golden coverage
// ---------------------------------------------------------------------------

/// The thread-count-independent projection of a round report.
fn semantic_projection(r: &RoundReport) -> String {
    format!(
        "task={} round={} wire={:?} trained={} dropped={} late={} sampled_out={} rejected={} sessions={:?} eval={:?}",
        r.task,
        r.round,
        r.wire_bytes,
        r.clients_trained,
        r.clients_dropped,
        r.clients_late,
        r.clients_sampled_out,
        r.clients_rejected,
        r.sessions.iter().map(|s| s.client_id).collect::<Vec<_>>(),
        r.eval_domain_acc
    )
}

#[test]
fn round_reports_are_semantically_identical_across_thread_counts() {
    let ds = dataset();
    for seed in [13u64, 29] {
        for ((name, mut s1), (_, mut s4)) in strategies().into_iter().zip(strategies()) {
            let cfg = run_cfg(seed);
            let t1 = Telemetry::collecting();
            let r1 = FdilRunner::new(cfg)
                .threads(1)
                .telemetry(&t1)
                .run(&ds, s1.as_mut());
            let t4 = Telemetry::collecting();
            let r4 = FdilRunner::new(cfg)
                .threads(4)
                .telemetry(&t4)
                .run(&ds, s4.as_mut());

            assert_eq!(
                r1.rounds.len() as u64,
                r1.traffic.rounds,
                "{name}@{seed}: report count != executed rounds"
            );
            assert_eq!(
                r1.rounds.len(),
                r4.rounds.len(),
                "{name}@{seed}: round counts diverged across thread counts"
            );
            for (a, b) in r1.rounds.iter().zip(&r4.rounds) {
                assert_eq!(
                    semantic_projection(a),
                    semantic_projection(b),
                    "{name}@{seed}: semantic round fields diverged across thread counts"
                );
            }
            // Every task boundary carries exactly one eval row.
            let evals = r1.rounds.iter().filter(|r| r.eval_domain_acc.is_some());
            assert_eq!(
                evals.count(),
                ds.num_domains(),
                "{name}@{seed}: expected one eval per task"
            );
        }
    }
}

#[test]
fn round_report_json_pins_field_presence() {
    // The report schema downstream tooling depends on: every field name
    // must be present in the serialized form of a real report, for every
    // strategy. A field rename or removal fails here before it breaks
    // dashboards parsing `RunResult::rounds`.
    let ds = dataset();
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
    for (name, mut strat) in strategies() {
        let telemetry = Telemetry::collecting();
        let res = FdilRunner::new(run_cfg(13))
            .threads(2)
            .telemetry(&telemetry)
            .run(&ds, strat.as_mut());
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
