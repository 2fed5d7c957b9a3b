//! The shared fixture of the root test binaries: one dataset, one method
//! and run configuration, every strategy by name, the digest a run reduces
//! to, and the golden digest of every equivalence class.
//!
//! A *cell* is one run: a strategy at a seed, on one exchange (in-process
//! at a thread count, TCP, Unix or pumped) under one wire or net variant.
//! Cells that must produce the same bits form a *class*, and every cell of
//! a class must match the others and the class's entry in [`GOLDEN`].
//!
//! When a change is meant to move outputs, [`check_class`] prints the class,
//! each cell's digest and the exact table line to paste into [`GOLDEN`]; the
//! commit that pastes it says why the outputs changed.

#![allow(dead_code)]

pub mod net;

use std::sync::Mutex;

use refil::continual::{
    FedDualPrompt, FedEwc, FedL2p, FedLwf, FedProx, Finetune, MethodConfig, RehearsalOracle,
};
use refil::core::{RefFiL, RefFiLConfig};
use refil::data::{DatasetSpec, DomainSpec, FdilDataset, Sample};
use refil::fed::{
    evaluate_domain, FdilRunner, FdilStrategy, IncrementConfig, RunConfig, RunResult, Telemetry,
    WireConfig, WireQuant,
};
use refil::nn::models::{BackboneConfig, ExtractorKind};
use refil::nn::{force_taped, Tensor};
use refil::wire::crc32;

/// The golden digest of every equivalence class, as `(class, digest)`.
///
/// Strategy classes are named `<strategy>/<seed>`; variant classes add the
/// variant after the strategy (`reffil+delta+int8+topk0.5/13`).
pub const GOLDEN: &[(&str, u32)] = &[
    ("finetune/13", 0xde803dab),
    ("finetune/29", 0x25e7404e),
    ("fedprox/13", 0xae32c259),
    ("fedprox/29", 0x6e9e2c23),
    ("lwf/13", 0x1f973144),
    ("lwf/29", 0x85c89088),
    ("ewc/13", 0xbcf449ee),
    ("ewc/29", 0x54cfa030),
    ("rehearsal/13", 0x8782a1f3),
    ("rehearsal/29", 0x7c1eefd1),
    ("l2p/13", 0xb6d2aca0),
    ("l2p/29", 0xc27f7cc2),
    ("l2p+pool/13", 0x86fcdad0),
    ("l2p+pool/29", 0x2ca70a35),
    ("dualprompt/13", 0xb0615ca7),
    ("dualprompt/29", 0x241624c1),
    ("dualprompt+pool/13", 0x23a19f0f),
    ("dualprompt+pool/29", 0x2b1db232),
    ("reffil/13", 0x9497b98b),
    ("reffil/29", 0x593155a8),
    ("reffil+delta+int8+topk0.5/13", 0x8f4e1c57),
    ("reffil+prompt/13", 0x86639874),
    ("finetune+sample0.5/29", 0x6b3a1fcc),
    ("finetune+dropout0.4/13", 0xe6ce6c96),
    ("finetune+straggler/13", 0xc71281ab),
];

/// Every strategy of the matrix, by the name [`Strategy::build`] takes.
pub const STRATEGIES: [&str; 10] = [
    "finetune",
    "fedprox",
    "lwf",
    "ewc",
    "rehearsal",
    "l2p",
    "l2p+pool",
    "dualprompt",
    "dualprompt+pool",
    "reffil",
];

/// Two domains of three classes; the second collides with the first's
/// labels so forgetting shows. 45 test samples per domain.
pub fn dataset() -> FdilDataset {
    DatasetSpec {
        name: "contracts".into(),
        classes: 3,
        feature_dim: 8,
        proto_scale: 2.5,
        within_std: 0.4,
        test_fraction: 0.3,
        signature_dim: 2,
        signature_scale: 0.6,
        domains: vec![
            DomainSpec::new("d0", 150, 0.15, 0.05),
            DomainSpec::new("d1", 150, 0.3, 0.4).with_collision(1.0),
        ],
    }
    .generate(11)
}

/// A one-block backbone small enough for a run to take milliseconds.
pub fn method() -> MethodConfig {
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

/// Three rounds per task over four to five clients. `threads: 0` defers to
/// `REFIL_THREADS`; an eval batch of 32 splits each test set in two.
pub fn run_cfg(seed: u64) -> RunConfig {
    RunConfig {
        increment: IncrementConfig {
            initial_clients: 4,
            select_per_round: 3,
            increment_per_task: 1,
            transition_fraction: 0.8,
            rounds_per_task: 3,
        },
        local_epochs: 1,
        batch_size: 16,
        quantity_sigma: 0.5,
        eval_batch: 32,
        dropout_prob: 0.0,
        seed,
        threads: 0,
        net: Default::default(),
        wire: Default::default(),
    }
}

/// A strategy of the matrix, keeping RefFiL concrete so its prompt store
/// and task-free inference stay reachable.
pub enum Strategy {
    RefFiL(Box<RefFiL>),
    Other(Box<dyn FdilStrategy>),
}

impl Strategy {
    /// Builds a strategy by name: one of [`STRATEGIES`] or `reffil+prompt`
    /// (prompt-only exchange). Prompt-based methods get the stable-backbone
    /// regime, as the bench harness builds them.
    pub fn build(name: &str) -> Self {
        let cfg = method();
        let prompt = MethodConfig {
            stable_after_first_task: true,
            ..cfg
        };
        let other: Box<dyn FdilStrategy> = match name {
            "reffil" => return Self::RefFiL(Box::new(RefFiL::new(RefFiLConfig::new(prompt)))),
            "reffil+prompt" => {
                return Self::RefFiL(Box::new(RefFiL::new(
                    RefFiLConfig::new(prompt).with_prompt_only(true),
                )))
            }
            "finetune" => Box::new(Finetune::new(cfg)),
            "fedprox" => Box::new(FedProx::new(cfg, 0.1)),
            "lwf" => Box::new(FedLwf::new(cfg)),
            "ewc" => Box::new(FedEwc::new(cfg)),
            "rehearsal" => Box::new(RehearsalOracle::new(cfg, 8)),
            "l2p" => Box::new(FedL2p::new(prompt, false)),
            "l2p+pool" => Box::new(FedL2p::new(prompt, true)),
            "dualprompt" => Box::new(FedDualPrompt::new(prompt, false)),
            "dualprompt+pool" => Box::new(FedDualPrompt::new(prompt, true)),
            other => panic!("unknown strategy {other:?}"),
        };
        Self::Other(other)
    }

    pub fn get(&self) -> &dyn FdilStrategy {
        match self {
            Self::RefFiL(s) => s.as_ref(),
            Self::Other(s) => s.as_ref(),
        }
    }

    pub fn get_mut(&mut self) -> &mut dyn FdilStrategy {
        match self {
            Self::RefFiL(s) => s.as_mut(),
            Self::Other(s) => s.as_mut(),
        }
    }

    pub fn into_boxed(self) -> Box<dyn FdilStrategy> {
        match self {
            Self::RefFiL(s) => s,
            Self::Other(s) => s,
        }
    }

    /// The server-side prompt store's size, for RefFiL only.
    pub fn total_reps(&self) -> Option<usize> {
        match self {
            Self::RefFiL(s) => Some(s.prompt_store().total_reps()),
            Self::Other(_) => None,
        }
    }
}

/// Reduces a run to the CRC32 of the little-endian bytes of its semantic
/// fields: `final_global` and `domain_acc` bits, the traffic totals and
/// per-task slices, each round's ids, per-kind wire bytes, client counts,
/// uplink columns, session client ids and eval row, and RefFiL's prompt
/// store size. Floats go in by bit pattern, so −0.0 ≠ +0.0 and every NaN
/// payload counts. Wall times, pool and arena stats stay out.
pub fn digest(res: &RunResult, total_reps: Option<usize>) -> u32 {
    let mut b = Bytes::default();
    b.f32s(&res.final_global);
    b.u64(res.domain_acc.len() as u64);
    for row in &res.domain_acc {
        b.f32s(row);
    }
    let t = &res.traffic;
    for x in [t.down_bytes, t.up_bytes, t.rounds, t.client_updates] {
        b.u64(x);
    }
    b.u64(t.per_task.len() as u64);
    for p in &t.per_task {
        for x in [
            p.task as u64,
            p.down_bytes,
            p.up_bytes,
            p.rounds,
            p.client_updates,
        ] {
            b.u64(x);
        }
    }
    b.u64(res.rounds.len() as u64);
    for r in &res.rounds {
        b.u64(r.task);
        b.u64(r.round);
        b.u64(r.wire_bytes.len() as u64);
        for (kind, bytes) in &r.wire_bytes {
            b.str(kind);
            b.u64(*bytes);
        }
        for x in [
            r.clients_trained,
            r.clients_dropped,
            r.clients_late,
            r.clients_sampled_out,
            r.clients_rejected,
            r.uplink_raw_bytes,
            r.uplink_encoded_bytes,
        ] {
            b.u64(x);
        }
        b.u64(r.sessions.len() as u64);
        for s in &r.sessions {
            b.u64(s.client_id);
        }
        match &r.eval_domain_acc {
            Some(acc) => {
                b.u64(1);
                b.f32s(acc);
            }
            None => b.u64(0),
        }
    }
    match total_reps {
        Some(n) => {
            b.u64(1);
            b.u64(n as u64);
        }
        None => b.u64(0),
    }
    crc32(&b.0)
}

/// The little-endian byte stream [`digest`] checksums.
#[derive(Default)]
struct Bytes(Vec<u8>);

impl Bytes {
    fn u64(&mut self, x: u64) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }

    fn f32s(&mut self, xs: &[f32]) {
        self.u64(xs.len() as u64);
        for x in xs {
            self.0.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
    }
}

/// Asserts that every cell of `class` (`(cell label, digest)` pairs) has
/// the same digest and that it equals the class's golden. On a mismatch the
/// panic names the class, lists each cell's digest and prints the table
/// line to paste into [`GOLDEN`] if the change of outputs is intended.
pub fn check_class(class: &str, cells: &[(String, u32)]) {
    let first = cells.first().expect("a class has at least one cell").1;
    let agree = cells.iter().all(|&(_, d)| d == first);
    let want = GOLDEN.iter().find(|(c, _)| *c == class).map(|&(_, d)| d);
    if agree && want == Some(first) {
        return;
    }
    let mut msg = format!("class {class} does not hold\n");
    for (label, d) in cells {
        msg.push_str(&format!("  {label:<24} {d:#010x}\n"));
    }
    match want {
        Some(g) => msg.push_str(&format!("  {:<24} {g:#010x}\n", "golden")),
        None => msg.push_str("  no golden digest in tests/common/mod.rs\n"),
    }
    if agree {
        msg.push_str(&format!(
            "if the outputs are meant to change, replace the class's line in GOLDEN \
             (tests/common/mod.rs) with\n    (\"{class}\", {first:#010x}),\n\
             and say in the commit why they changed"
        ));
    } else {
        msg.push_str("the cells disagree with each other: no golden can hold them");
    }
    panic!("{msg}");
}

// ---------------------------------------------------------------------------
// Running cells
// ---------------------------------------------------------------------------

/// A cell's label and digest.
pub fn cell(label: &str, res: &RunResult, strat: &Strategy) -> (String, u32) {
    (label.to_string(), digest(res, strat.total_reps()))
}

/// Runs `name` in-process on `threads` workers, with telemetry off or
/// collecting.
pub fn in_process(
    name: &str,
    cfg: RunConfig,
    threads: usize,
    collecting: bool,
) -> (RunResult, Strategy) {
    let telemetry = if collecting {
        Telemetry::collecting()
    } else {
        Telemetry::disabled()
    };
    let mut strat = Strategy::build(name);
    let res = FdilRunner::new(cfg)
        .threads(threads)
        .telemetry(&telemetry)
        .run(&dataset(), strat.get_mut());
    (res, strat)
}

/// The in-process cells of the `<name>/<seed>` class — threads 1 with
/// telemetry off and threads 4 collecting — checked against each other and
/// the golden. Returns the threads-1 run for further assertions.
pub fn thread_class(name: &str, seed: u64) -> (RunResult, Strategy) {
    let cfg = run_cfg(seed);
    let (t1, s1) = in_process(name, cfg, 1, false);
    let (t4, s4) = in_process(name, cfg, 4, true);
    check_class(
        &format!("{name}/{seed}"),
        &[cell("t1", &t1, &s1), cell("t4+collecting", &t4, &s4)],
    );
    (t1, s1)
}

/// The lossy wire spec of the `reffil+delta+int8+topk0.5/13` class.
pub fn lossy_wire() -> WireConfig {
    WireConfig {
        delta: true,
        quant: WireQuant::Int8,
        topk_fraction: 0.5,
    }
}

/// Asserts the codec engaged: every round's updates travelled as
/// `CompressedModelUpdate` frames at well under half the dense cost.
pub fn assert_codec_engaged(cell: &str, res: &RunResult) {
    let raw: u64 = res.rounds.iter().map(|r| r.uplink_raw_bytes).sum();
    let encoded: u64 = res.rounds.iter().map(|r| r.uplink_encoded_bytes).sum();
    assert!(
        raw > 0 && encoded > 0 && encoded * 2 < raw,
        "{cell}: compression should have engaged (raw {raw}, encoded {encoded})"
    );
    for r in &res.rounds {
        assert!(r.wire_bytes.contains_key("compressed_model_update"));
        assert!(!r.wire_bytes.contains_key("client_model_update"));
    }
}

/// A per-process temporary path, unique to this test binary's process.
pub fn unique_tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("refil_contracts_{}_{name}", std::process::id()))
}

// ---------------------------------------------------------------------------
// Taped versus tape-free inference
// ---------------------------------------------------------------------------

/// `force_taped` is process-global; checks that flip it hold this lock so a
/// concurrently running test never observes a half-toggled state.
static TAPED_FLAG: Mutex<()> = Mutex::new(());

/// Runs `eval` with the training tape forced on, then off.
fn taped_then_free<T>(eval: impl Fn() -> T) -> (T, T) {
    let _guard = TAPED_FLAG.lock().expect("taped-flag lock poisoned");
    force_taped(true);
    let taped = eval();
    force_taped(false);
    (taped, eval())
}

fn features(samples: &[Sample]) -> Tensor {
    let dim = samples[0].features.len();
    let mut data = Vec::with_capacity(samples.len() * dim);
    for s in samples {
        data.extend_from_slice(&s.features);
    }
    Tensor::from_vec(data, &[samples.len(), dim])
}

/// Evaluates the final global model of a finished run taped and tape-free
/// and asserts both paths agree exactly: the raw predictions for every
/// (domain, batch) and the bits of `evaluate_domain`'s accuracies.
pub fn assert_taped_matches_tape_free(class: &str, strat: &Strategy, res: &RunResult) {
    let ds = dataset();
    let (global, batch) = (&res.final_global[..], run_cfg(0).eval_batch);
    let (taped, free) = taped_then_free(|| {
        let ctx = strat.get().eval_ctx(global);
        let mut evaluator = ctx.evaluator();
        let mut preds = Vec::new();
        for (d, domain) in ds.domains.iter().enumerate() {
            for chunk in domain.test.chunks(batch) {
                preds.push(evaluator.predict_domain(&features(chunk), d));
            }
        }
        let accs: Vec<u32> = (0..ds.num_domains())
            .map(|d| evaluate_domain(strat.get(), global, &ds, d, batch).to_bits())
            .collect();
        (preds, accs)
    });
    assert_eq!(
        taped.0, free.0,
        "{class}: predictions diverged between taped and tape-free"
    );
    assert_eq!(
        taped.1, free.1,
        "{class}: accuracies diverged between taped and tape-free"
    );
}

/// RefFiL's task-free confidence-max sweep, which runs one forward per task
/// key through the same reused session, agrees taped and tape-free on the
/// last domain's test set.
pub fn assert_task_free_taped_matches_tape_free(class: &str, strat: &Strategy, res: &RunResult) {
    let Strategy::RefFiL(reffil) = strat else {
        panic!("{class}: task-free inference is RefFiL's");
    };
    let ds = dataset();
    let x = features(&ds.domains[ds.num_domains() - 1].test);
    let (taped, free) = taped_then_free(|| reffil.predict_task_free(&res.final_global, &x));
    assert_eq!(taped, free, "{class}: task-free predictions diverged");
}
