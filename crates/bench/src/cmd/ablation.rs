//! Design ablations beyond the paper, each on RefFiL with the backbone
//! frozen after the first task.

use refil_bench::DatasetChoice;
use refil_core::{ClusterMode, RefFiL, RefFiLConfig, TemperatureSchedule};
use refil_eval::{pct, scores, Scores};
use refil_fed::{evaluate_domain, FdilStrategy};
use refil_nn::models::ExtractorKind;

use crate::{emit_table, predict, table, Setup};

/// The Avg, Last and forgetting cells of a table row.
fn score_cells(s: Scores) -> [String; 3] {
    [pct(s.avg), pct(s.last), pct(s.forgetting)]
}

/// How the server condenses uploaded prompts: FINCH (the paper's choice)
/// vs. k-means vs. plain averaging (the strawman §3 argues against).
pub(crate) fn clustering() {
    let setup = Setup::new(DatasetChoice::OfficeCaltech10);
    let modes = [
        ("FINCH (paper)", ClusterMode::Finch),
        ("k-means (k=4)", ClusterMode::Kmeans(4)),
        ("plain average", ClusterMode::Average),
    ];
    let mut table = table(&[
        "Clustering",
        "Avg",
        "Last",
        "Forgetting",
        "Reps/class cap hit",
    ]);
    for (label, mode) in modes {
        eprintln!("[ablation_clustering] {label} ...");
        let mut strat = RefFiL::new(RefFiLConfig::new(setup.prompt_cfg()).with_cluster_mode(mode));
        let s = setup.score(&mut strat);
        let mut row = vec![label.to_string()];
        row.extend(score_cells(s));
        row.push(strat.prompt_store().total_reps().to_string());
        table.row(row);
    }
    emit_table(
        "ablation_clustering",
        "Ablation — global prompt clustering algorithm (RefFiL on OfficeCaltech10)",
        &table,
    );
}

/// The backbone's feature extractor — the residual-MLP stand-in versus the
/// 1-D CNN analogue of the paper's CNN backbone — under the full RefFiL
/// pipeline.
pub(crate) fn extractor() {
    let setup = Setup::new(DatasetChoice::DigitsFive);
    let mut table = table(&["Extractor", "Params", "Avg", "Last", "Forgetting"]);
    for (label, kind) in [
        ("residual MLP (default)", ExtractorKind::ResidualMlp),
        ("1-D CNN", ExtractorKind::Conv),
    ] {
        eprintln!("[ablation_extractor] {label} ...");
        let mut cfg = setup.prompt_cfg();
        cfg.backbone.extractor = kind;
        let mut strat = RefFiL::new(RefFiLConfig::new(cfg));
        let n_params = FdilStrategy::init_global(&mut strat).len();
        let s = setup.score(&mut strat);
        let mut row = vec![label.to_string(), n_params.to_string()];
        row.extend(score_cells(s));
        table.row(row);
    }
    emit_table(
        "ablation_extractor",
        "Ablation — feature extractor architecture under RefFiL (Digits-Five)",
        &table,
    );
}

/// The balanced prompt averaging of Eq. 2 versus data-size-weighted
/// sharing, where resource-rich clients dominate the global prompt pool —
/// the bias Eq. 2's balanced averaging prevents.
pub(crate) fn prompt_weighting() {
    let setup = Setup::new(DatasetChoice::OfficeCaltech10);
    let variants = [
        ("balanced (paper, Eq. 2)", false),
        ("data-size weighted", true),
    ];
    let mut table = table(&[
        "Prompt sharing",
        "Avg",
        "Last",
        "Forgetting",
        "Uploads stored",
    ]);
    for (label, weighted) in variants {
        eprintln!("[ablation_prompt_weighting] {label} ...");
        let mut strat = RefFiL::new(
            RefFiLConfig::new(setup.prompt_cfg()).with_weighted_prompt_sharing(weighted),
        );
        let s = setup.score(&mut strat);
        let mut row = vec![label.to_string()];
        row.extend(score_cells(s));
        row.push(strat.prompt_store().total_reps().to_string());
        table.row(row);
    }
    emit_table(
        "ablation_prompt_weighting",
        "Ablation — balanced vs. data-size-weighted prompt sharing (RefFiL on OfficeCaltech10)",
        &table,
    );
}

/// RefFiL's task-ID dependence (the paper's stated limitation): oracle task
/// IDs at evaluation (the paper's setting) against confidence-based
/// task-free inference and a naive always-use-latest-task policy, on
/// Digits-Five.
pub(crate) fn taskid() {
    let setup = Setup::new(DatasetChoice::DigitsFive);
    let dataset = &setup.dataset;
    let last_task = dataset.num_domains() - 1;

    // Train once with the standard setting; evaluation policies differ only
    // at inference, so the same final model serves all three rows.
    eprintln!("[ablation_taskid] training RefFiL ...");
    let mut oracle = RefFiL::new(RefFiLConfig::new(setup.prompt_cfg()));
    let res = setup.run(&mut oracle);
    let oracle_scores = scores(&res.domain_acc);
    let global = &res.final_global;

    // A fresh replica of the final model at the last task's key.
    let replica = |cfg: RefFiLConfig| {
        let mut strat = RefFiL::new(cfg);
        let _ = FdilStrategy::init_global(&mut strat);
        FdilStrategy::on_task_start(&mut strat, last_task, global);
        strat
    };

    // Task-free: same weights, confidence-inferred task key.
    let free = replica(RefFiLConfig::new(setup.prompt_cfg()).with_task_free_inference(true));
    let free_acc: Vec<f32> = (0..dataset.num_domains())
        .map(|d| evaluate_domain(&free, global, dataset, d, 256))
        .collect();

    // Naive: always condition on the latest task key.
    let mut naive = replica(RefFiLConfig::new(setup.prompt_cfg()));
    let naive_acc: Vec<f32> = dataset
        .domains
        .iter()
        .map(|dom| {
            let preds = predict(&mut naive, global, &dom.test, last_task);
            let correct = preds
                .iter()
                .zip(&dom.test)
                .filter(|(p, s)| **p == s.label)
                .count();
            100.0 * correct as f32 / dom.test.len() as f32
        })
        .collect();

    let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
    let mut table = table(&["Evaluation policy", "Final mean acc", "Notes"]);
    table.row(vec![
        "oracle task ID (paper)".into(),
        pct(mean(res.final_domain_accuracies())),
        format!(
            "Avg {} / Last {}",
            pct(oracle_scores.avg),
            pct(oracle_scores.last)
        ),
    ]);
    table.row(vec![
        "confidence-inferred task (extension)".into(),
        pct(mean(&free_acc)),
        "no task ID needed at inference".into(),
    ]);
    table.row(vec![
        "always latest task (naive)".into(),
        pct(mean(&naive_acc)),
        "what a task-ID-less deployment degrades to without inference".into(),
    ]);
    emit_table(
        "ablation_taskid",
        "Extension — removing RefFiL's task-ID dependence at inference (Digits-Five, final model)",
        &table,
    );
}

/// The DPCL temperature decay (Eq. 7) versus a fixed temperature.
pub(crate) fn temperature() {
    let setup = Setup::new(DatasetChoice::OfficeCaltech10);
    let fixed = |tau: f32| TemperatureSchedule {
        tau,
        tau_min: 0.3,
        gamma: 0.0,
        beta: 0.0,
    };
    let schedules = [
        (
            "decay (paper: τ=0.9, γ=0.1, β=0.05)",
            TemperatureSchedule::default(),
        ),
        ("fixed τ=0.9", fixed(0.9)),
        ("fixed τ=0.3", fixed(0.3)),
    ];
    let mut table = table(&["Temperature", "Avg", "Last", "Forgetting"]);
    for (label, sched) in schedules {
        eprintln!("[ablation_temperature] {label} ...");
        let mut cfg = RefFiLConfig::new(setup.prompt_cfg());
        cfg.temperature = sched;
        let mut strat = RefFiL::new(cfg);
        let s = setup.score(&mut strat);
        let mut row = vec![label.to_string()];
        row.extend(score_cells(s));
        table.row(row);
    }
    emit_table(
        "ablation_temperature",
        "Ablation — DPCL temperature decay vs. fixed temperature (RefFiL on OfficeCaltech10)",
        &table,
    );
}
