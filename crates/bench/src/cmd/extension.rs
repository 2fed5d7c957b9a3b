//! Extension experiments beyond the paper's tables: seed variance,
//! forgetting analysis, bounds, and the class-incremental stream.

use refil_bench::methods::{build_method, MethodChoice};
use refil_bench::DatasetChoice;
use refil_continual::{FedProx, RehearsalOracle};
use refil_data::{DatasetSpec, DomainSpec, FdilDataset};
use refil_eval::{backward_transfer, pct, scores, ConfusionMatrix, Scores};
use refil_fed::FdilStrategy;

use crate::{emit_table, predict, table, Setup};

/// Seed variance of the headline comparison: Finetune, FedDualPrompt† and
/// RefFiL on Digits-Five under three seeds (data generation, protocol and
/// init all reseeded), reported as mean ± std of Avg/Last/forgetting.
/// Seeds run in parallel on scoped threads, bounded by the available
/// cores.
pub(crate) fn variance() {
    const SEEDS: [u64; 3] = [42, 1337, 2024];
    let methods = [
        MethodChoice::Finetune,
        MethodChoice::FedDualPromptPool,
        MethodChoice::RefFiL,
    ];
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "[variance] {} seeds x {} methods on {} worker thread(s)",
        SEEDS.len(),
        methods.len(),
        workers
    );
    let run_one = |method: MethodChoice, seed: u64| -> Scores {
        let setup = Setup::seeded(DatasetChoice::DigitsFive, seed);
        setup.score(build_method(method, setup.cfg).as_mut())
    };
    let jobs: Vec<(MethodChoice, u64)> = methods
        .iter()
        .flat_map(|&m| SEEDS.iter().map(move |&s| (m, s)))
        .collect();

    // Parallel map over (method, seed) pairs with a bounded worker pool.
    let results: Vec<(MethodChoice, Scores)> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(jobs.len().div_ceil(workers))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(m, s)| {
                            eprintln!("[variance] {} seed {s} ...", m.paper_name());
                            (m, run_one(m, s))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mean_std = |xs: &[f32]| {
        let n = xs.len() as f32;
        let mean = xs.iter().sum::<f32>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n;
        format!("{mean:.2} ± {:.2}", var.sqrt())
    };
    let mut table = table(&[
        "Method",
        "Avg mean±std",
        "Last mean±std",
        "Forgetting mean±std",
    ]);
    for m in methods {
        let of = |f: fn(&Scores) -> f32| -> Vec<f32> {
            results
                .iter()
                .filter(|(mm, _)| *mm == m)
                .map(|(_, s)| f(s))
                .collect()
        };
        table.row(vec![
            m.paper_name().into(),
            mean_std(&of(|s| s.avg)),
            mean_std(&of(|s| s.last)),
            mean_std(&of(|s| s.forgetting)),
        ]);
    }
    emit_table(
        "variance",
        "Extension — seed variance of the headline comparison (Digits-Five, 3 seeds)",
        &table,
    );
}

/// Per-class confusion of the final global model and the backward-transfer
/// metric, Finetune vs. RefFiL on Digits-Five: *which* classes the
/// forgetting destroys and how much RefFiL's prompts repair.
pub(crate) fn confusion() {
    let setup = Setup::new(DatasetChoice::DigitsFive);
    let mut table = table(&[
        "Method",
        "BWT",
        "Domain-0 acc",
        "Worst confusion (true→pred)",
        "Count",
    ]);
    for m in [MethodChoice::Finetune, MethodChoice::RefFiL] {
        eprintln!("[confusion] {} ...", m.paper_name());
        let mut strategy = build_method(m, setup.cfg);
        let res = setup.run(strategy.as_mut());
        let bwt = backward_transfer(&res.domain_acc);

        // Confusion on the *first* domain with the final model — where
        // forgetting shows.
        let test = &setup.dataset.domains[0].test;
        let preds = predict(strategy.as_mut(), &res.final_global, test, 0);
        let truths: Vec<usize> = test.iter().map(|s| s.label).collect();
        let mut cm = ConfusionMatrix::new(setup.dataset.classes);
        cm.record_batch(&truths, &preds);
        let worst = cm.worst_confusion();
        table.row(vec![
            m.paper_name().into(),
            format!("{bwt:+.2}"),
            pct(cm.accuracy()),
            worst.map_or("-".into(), |(t, p, _)| format!("{t}→{p}")),
            worst.map_or("-".into(), |(_, _, c)| c.to_string()),
        ]);
    }
    emit_table(
        "confusion",
        "Extension — backward transfer and final-model confusion on the first domain (Digits-Five)",
        &table,
    );
}

/// Where RefFiL sits between the lower bound (Finetune), drift-regularized
/// federated optimization (FedProx), and the privacy-violating upper bound
/// (episodic rehearsal).
pub(crate) fn bounds() {
    let setup = Setup::new(DatasetChoice::DigitsFive);
    let cfg = setup.cfg;
    let rows: Vec<(&str, Box<dyn FdilStrategy>, &str)> = vec![
        (
            "Finetune (lower bound)",
            build_method(MethodChoice::Finetune, cfg),
            "no mitigation",
        ),
        (
            "FedProx (mu=0.1)",
            Box::new(FedProx::new(cfg, 0.1)),
            "drift regularization only",
        ),
        (
            "RefFiL (rehearsal-free)",
            build_method(MethodChoice::RefFiL, cfg),
            "prompt memory only (KB of floats)",
        ),
        (
            "Rehearsal oracle (8/class)",
            Box::new(RehearsalOracle::new(cfg, 8)),
            "stores raw samples — violates the setting",
        ),
    ];
    let mut table = table(&["Strategy", "Avg", "Last", "Forgetting", "Memory model"]);
    for (label, mut strategy, memory) in rows {
        eprintln!("[bounds] {label} ...");
        let s = setup.score(strategy.as_mut());
        table.row(vec![
            label.into(),
            pct(s.avg),
            pct(s.last),
            pct(s.forgetting),
            memory.into(),
        ]);
    }
    emit_table(
        "extension_bounds",
        "Extension — RefFiL between the no-mitigation lower bound and the rehearsal upper bound (Digits-Five)",
        &table,
    );
}

/// A stream in which new tasks bring *both* a new domain and unseen
/// classes: 10 classes, domains 0–1 carry only classes 0–5, domains 2–3
/// carry all.
fn stream_dataset() -> FdilDataset {
    let early: Vec<usize> = (0..10).map(|k| if k < 6 { 140 } else { 0 }).collect();
    let late: Vec<usize> = (0..10).map(|k| if k < 6 { 80 } else { 120 }).collect();
    DatasetSpec {
        name: "DomainClassStream".into(),
        classes: 10,
        feature_dim: 32,
        proto_scale: 2.0,
        within_std: 0.45,
        test_fraction: 0.2,
        signature_dim: 6,
        signature_scale: 0.3,
        domains: vec![
            DomainSpec::new("d0-old-classes", 0, 0.2, 0.05).with_class_counts(early.clone()),
            DomainSpec::new("d1-old-classes", 0, 0.4, 0.3)
                .with_collision(0.6)
                .with_class_counts(early),
            DomainSpec::new("d2-new-classes", 0, 0.7, 0.6)
                .with_collision(1.2)
                .with_class_counts(late.clone()),
            DomainSpec::new("d3-new-classes", 0, 0.9, 0.9)
                .with_collision(1.8)
                .with_class_counts(late),
        ],
    }
    .generate(42)
}

/// The paper's future-work direction (its Limitations section: federated
/// learning from streaming data must learn "both new domains and new
/// classes"): Finetune, FedLwF and RefFiL on [`stream_dataset`], whose
/// classes 6–9 only exist from the third domain on.
pub(crate) fn class_incremental() {
    // Borrow the Digits-Five protocol (same class count, 10).
    let setup = Setup::with_dataset(DatasetChoice::DigitsFive, stream_dataset(), 42);
    let mut table = table(&[
        "Method",
        "Avg",
        "Last",
        "Forgetting",
        "Final old-class domain acc",
        "Final new-class domain acc",
    ]);
    for m in [
        MethodChoice::Finetune,
        MethodChoice::FedLwf,
        MethodChoice::RefFiL,
    ] {
        eprintln!("[class_incremental] {} ...", m.paper_name());
        let res = setup.run(build_method(m, setup.cfg).as_mut());
        let s = scores(&res.domain_acc);
        let fin = res.final_domain_accuracies();
        table.row(vec![
            m.paper_name().into(),
            pct(s.avg),
            pct(s.last),
            pct(s.forgetting),
            pct((fin[0] + fin[1]) / 2.0),
            pct((fin[2] + fin[3]) / 2.0),
        ]);
    }
    emit_table(
        "extension_class_incremental",
        "Extension — domain + class incremental stream (new classes appear at task 3)",
        &table,
    );
}
