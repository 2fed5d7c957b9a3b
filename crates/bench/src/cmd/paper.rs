//! The paper's own results: Tables 1–6 and Figures 1 and 3–6.
//!
//! Tables 1–4 and Figure 4 are views of the same all-methods runs, cached
//! in an uncommitted `results/cache_*.json` (see
//! [`refil_bench::full_results`]).

use refil_bench::methods::{build_method, build_reffil_variant, MethodChoice};
use refil_bench::report::{emit, save_raw};
use refil_bench::{full_results, per_step_tables, summary_table, DatasetChoice};
use refil_core::RefFiLFlags;
use refil_data::{
    fed_domain_net, PresetConfig, Sample, FED_DOMAIN_NET_CLASSES, FED_DOMAIN_NET_COUNTS,
    FED_DOMAIN_NET_DOMAINS,
};
use refil_eval::{box_stats, pct, separation_score, signed, tsne, Table, TsneConfig};
use refil_fed::{build_schedule, IncrementConfig};

use crate::{batch, emit_table, table, Setup};

/// Table 1: Avg/Last summary across the four datasets (canonical domain
/// order), with Δ columns relative to RefFiL.
pub(crate) fn table1() {
    emit_table(
        "table1",
        "Table 1 — Summarised results on four datasets (canonical domain order)",
        &summary_table(&full_results(false)),
    );
}

/// Table 2: the Table 1 summary under the shuffled domain order of Table 4.
pub(crate) fn table2() {
    emit_table(
        "table2",
        "Table 2 — Summarised results in the new domain order",
        &summary_table(&full_results(true)),
    );
}

/// Table 3: per-step accuracy (the column labelled with a domain is the
/// accuracy over all seen domains after that domain's task), canonical
/// order, all four datasets.
pub(crate) fn table3() {
    per_step(3, "canonical order", false);
}

/// Table 4: per-step accuracies under the shuffled domain order.
pub(crate) fn table4() {
    per_step(4, "new domain order", true);
}

fn per_step(number: u8, order: &str, new_order: bool) {
    for (name, table) in per_step_tables(&full_results(new_order)) {
        let slug = name.to_ascii_lowercase().replace(['-', ' '], "_");
        emit_table(
            &format!("table{number}_{slug}"),
            &format!("Table {number} — Task 1..T step accuracies on {name} ({order})"),
            &table,
        );
    }
}

/// Table 5: the CDAP / GPL / DPCL ablation on OfficeCaltech10, with Δ
/// columns relative to the Finetune baseline.
pub(crate) fn table5() {
    let setup = Setup::new(DatasetChoice::OfficeCaltech10);
    // The paper's six rows: baseline, CDAP, GPL, CDAP+GPL, GPL+DPCL, full.
    let rows = [
        (false, false, false),
        (true, false, false),
        (false, true, false),
        (true, true, false),
        (false, true, true),
        (true, true, true),
    ];
    let mut table = table(&["CDAP", "GPL", "DPCL", "Avg", "Δ", "Last", "Δ"]);
    let mut baseline = None;
    for (cdap, gpl, dpcl) in rows {
        let mut strategy = if !cdap && !gpl && !dpcl {
            // No components = the Finetune baseline, as in the paper.
            build_method(MethodChoice::Finetune, setup.cfg)
        } else {
            build_reffil_variant(
                setup.cfg,
                RefFiLFlags {
                    use_cdap: cdap,
                    use_gpl: gpl,
                    use_dpcl: dpcl,
                },
            )
        };
        eprintln!("[table5] CDAP={cdap} GPL={gpl} DPCL={dpcl} ...");
        let s = setup.score(strategy.as_mut());
        let base = *baseline.get_or_insert(s);
        let mark = |b: bool| if b { "✓" } else { " " }.to_string();
        let delta = |d: f32| if s == base { "-".into() } else { signed(d) };
        table.row(vec![
            mark(cdap),
            mark(gpl),
            mark(dpcl),
            pct(s.avg),
            delta(s.avg - base.avg),
            pct(s.last),
            delta(s.last - base.last),
        ]);
    }
    emit_table(
        "table5",
        "Table 5 — Ablation of RefFiL components on OfficeCaltech10 (Δ vs. Finetune)",
        &table,
    );
}

/// Figure 1 (a vs. b): the client-group composition timeline under a
/// cliff-style transition (every client switches at the task boundary)
/// versus RefFiL's gradual transition (80 % of clients move at random
/// rounds, new clients join over time).
pub(crate) fn fig1_transition() {
    fn timeline(cfg: &IncrementConfig, label: &str) -> Table {
        let mut t = table(&[
            "Setting",
            "Task",
            "Round",
            "U_o (old)",
            "U_b (between)",
            "U_n (new)",
            "Total",
        ]);
        for s in &build_schedule(cfg, 3, 42) {
            for round in [0, cfg.rounds_per_task / 2, cfg.rounds_per_task - 1] {
                let (o, b, n) = s.group_sizes(round);
                t.row(vec![
                    label.into(),
                    (s.task + 1).to_string(),
                    (round + 1).to_string(),
                    o.to_string(),
                    b.to_string(),
                    n.to_string(),
                    (o + b + n).to_string(),
                ]);
            }
        }
        t
    }
    let gradual = IncrementConfig {
        initial_clients: 20,
        select_per_round: 10,
        increment_per_task: 2,
        transition_fraction: 0.8,
        rounds_per_task: 10,
    };
    // Fig. 1a: the common FCL setting — everyone transitions immediately.
    let cliff = IncrementConfig {
        transition_fraction: 1.0,
        increment_per_task: 0,
        ..gradual
    };
    let mut md = timeline(&cliff, "cliff (Fig. 1a)").to_markdown();
    md.push('\n');
    md.push_str(&timeline(&gradual, "gradual (Fig. 1b)").to_markdown());
    emit(
        "fig1_transition",
        "Figure 1 — Client-group timeline: cliff vs. gradual task transition",
        &md,
        None,
    );
}

/// Table 6 / Figure 3: FedDomainNet per-class, per-domain sample
/// statistics, verified against the generated dataset.
pub(crate) fn fig3_stats() {
    // Table 6: the paper's counts as embedded constants.
    let mut header = vec!["Class"];
    header.extend(FED_DOMAIN_NET_DOMAINS);
    header.push("Total");
    let mut t6 = table(&header);
    for (class, row) in FED_DOMAIN_NET_CLASSES.iter().zip(&FED_DOMAIN_NET_COUNTS) {
        let mut cells = vec![class.to_string()];
        cells.extend(row.iter().map(usize::to_string));
        cells.push(row.iter().sum::<usize>().to_string());
        t6.row(cells);
    }
    let columns: Vec<usize> = (0..FED_DOMAIN_NET_DOMAINS.len())
        .map(|di| FED_DOMAIN_NET_COUNTS.iter().map(|r| r[di]).sum())
        .collect();
    let mut totals = vec!["Total".to_string()];
    totals.extend(columns.iter().map(usize::to_string));
    totals.push(columns.iter().sum::<usize>().to_string());
    t6.row(totals);
    emit_table("table6", "Table 6 — FedDomainNet per-class statistics", &t6);

    // Figure 3: distribution summary of the *generated* dataset, checking it
    // reproduces the intended skew.
    let ds = fed_domain_net(PresetConfig {
        scale: 0.15,
        feature_dim: 48,
    })
    .generate(42);
    let mut fig3 = table(&["Domain", "Samples", "Min class", "Max class", "Mean/class"]);
    for dom in &ds.domains {
        let mut per_class = vec![0usize; ds.classes];
        for s in dom.train.iter().chain(&dom.test) {
            per_class[s.label] += 1;
        }
        let min = per_class.iter().min().copied().unwrap_or(0);
        let max = per_class.iter().max().copied().unwrap_or(0);
        fig3.row(vec![
            dom.name.clone(),
            dom.len().to_string(),
            min.to_string(),
            max.to_string(),
            format!("{:.1}", dom.len() as f32 / ds.classes as f32),
        ]);
    }
    emit_table(
        "fig3_stats",
        "Figure 3 — Generated FedDomainNet distribution statistics (scale 0.15)",
        &fig3,
    );
}

/// Figure 4: box-plot statistics of each domain's accuracy distribution
/// across task steps, per method, on Digits-Five.
pub(crate) fn fig4_boxplots() {
    let full = full_results(false);
    let (name, methods) = &full.datasets[0]; // Digits-Five
    let domains = &methods[0].result.domain_names;
    let mut table = table(&[
        "Method", "Domain", "Whisker-", "Q1", "Median", "Q3", "Whisker+", "Outliers",
    ]);
    for m in methods {
        for (d, dname) in domains.iter().enumerate() {
            // Accuracy on domain d at every step where it was evaluated.
            let samples: Vec<f32> = m
                .result
                .domain_acc
                .iter()
                .skip(d)
                .map(|row| row[d])
                .collect();
            if samples.is_empty() {
                continue;
            }
            let s = box_stats(&samples);
            table.row(vec![
                m.name.clone(),
                dname.clone(),
                pct(s.whisker_lo),
                pct(s.q1),
                pct(s.median),
                pct(s.q3),
                pct(s.whisker_hi),
                s.outliers.len().to_string(),
            ]);
        }
    }
    emit_table(
        "fig4_boxplots",
        &format!("Figure 4 — Per-domain accuracy distribution across task steps ({name})"),
        &table,
    );
}

/// The methods the t-SNE figures compare.
const TSNE_METHODS: [MethodChoice; 6] = [
    MethodChoice::Finetune,
    MethodChoice::FedLwf,
    MethodChoice::FedEwc,
    MethodChoice::FedL2p,
    MethodChoice::FedDualPrompt,
    MethodChoice::RefFiL,
];

fn tsne_2d(points: &[Vec<f32>]) -> Vec<[f32; 2]> {
    tsne(
        points,
        &TsneConfig {
            iterations: 150,
            ..TsneConfig::default()
        },
    )
}

fn file_label(m: MethodChoice) -> String {
    m.paper_name().replace('\u{2020}', "_pool")
}

/// Figure 5: t-SNE of the global model's `[CLS]` embeddings over all seen
/// domains after each Digits-Five task step, for every method. Emits
/// per-step point CSVs plus a class-separation score table (higher =
/// clearer decision boundaries, the paper's visual claim).
pub(crate) fn fig5_tsne() {
    const SAMPLES_PER_DOMAIN: usize = 25;
    let setup = Setup::new(DatasetChoice::DigitsFive);
    let dataset = &setup.dataset;
    let mut header = vec!["Method".to_string()];
    header.extend((1..=dataset.num_domains()).map(|t| format!("Task {t}")));
    let mut table = Table::new(header);
    for m in TSNE_METHODS {
        eprintln!("[fig5] {} ...", m.paper_name());
        let mut strategy = build_method(m, setup.cfg);
        let global = setup.run(strategy.as_mut()).final_global;
        let mut row = vec![m.paper_name().to_string()];
        for step in 0..dataset.num_domains() {
            let mut points = Vec::new();
            let mut class_labels = Vec::new();
            let mut domains_of = Vec::new();
            for d in 0..=step {
                let take: Vec<&Sample> = dataset.domains[d]
                    .test
                    .iter()
                    .take(SAMPLES_PER_DOMAIN)
                    .collect();
                let x = batch(take.iter().copied());
                for (e, s) in strategy.cls_embeddings(&global, &x).into_iter().zip(&take) {
                    points.push(e);
                    class_labels.push(s.label);
                    domains_of.push(d);
                }
            }
            let coords = tsne_2d(&points);
            let mut csv = String::from("x,y,class,domain\n");
            for ((c, &l), &d) in coords.iter().zip(&class_labels).zip(&domains_of) {
                csv.push_str(&format!("{},{},{},{}\n", c[0], c[1], l, d));
            }
            save_raw(
                &format!("fig5_{}_task{}.csv", file_label(m), step + 1),
                &csv,
            );
            row.push(format!("{:.2}", separation_score(&coords, &class_labels)));
        }
        table.row(row);
    }
    emit_table(
        "fig5_tsne",
        "Figure 5 — t-SNE class-separation score per task step on Digits-Five (higher = clearer boundaries)",
        &table,
    );
}

/// Figure 6: the detailed per-domain t-SNE view of the global model after
/// the final Digits-Five task — one embedding per domain dataset, per
/// method, with class-separation scores.
pub(crate) fn fig6_tsne() {
    const SAMPLES_PER_DOMAIN: usize = 60;
    let setup = Setup::new(DatasetChoice::DigitsFive);
    let mut header = vec!["Method".to_string()];
    header.extend(setup.dataset.domains.iter().map(|d| d.name.clone()));
    let mut table = Table::new(header);
    for m in TSNE_METHODS {
        eprintln!("[fig6] {} ...", m.paper_name());
        let mut strategy = build_method(m, setup.cfg);
        let global = setup.run(strategy.as_mut()).final_global;
        let mut row = vec![m.paper_name().to_string()];
        for dom in &setup.dataset.domains {
            let take = &dom.test[..SAMPLES_PER_DOMAIN.min(dom.test.len())];
            let emb = strategy.cls_embeddings(&global, &batch(take));
            let labels: Vec<usize> = take.iter().map(|s| s.label).collect();
            let coords = tsne_2d(&emb);
            let mut csv = String::from("x,y,class\n");
            for (c, &l) in coords.iter().zip(&labels) {
                csv.push_str(&format!("{},{},{}\n", c[0], c[1], l));
            }
            save_raw(&format!("fig6_{}_{}.csv", file_label(m), dom.name), &csv);
            row.push(format!("{:.2}", separation_score(&coords, &labels)));
        }
        table.row(row);
    }
    emit_table(
        "fig6_tsne",
        "Figure 6 — Final-model per-domain t-SNE class-separation on Digits-Five",
        &table,
    );
}
