//! Tuning harnesses: all methods on one dataset (`tune`), and the
//! dataset-knob sweep that located the regime reproducing the paper's
//! method ordering (`sweep`).

use std::process::ExitCode;

use refil_bench::methods::{build_method, method_config, MethodChoice};
use refil_bench::{dataset_by_name, run_all_methods, DatasetChoice, ExperimentSpec, Scale};
use refil_continual::MethodConfig;
use refil_data::{DatasetSpec, DomainSpec};
use refil_eval::scores;
use refil_fed::FdilRunner;
use refil_telemetry::Telemetry;

use crate::Args;

/// Usage text of `refil-bench tune`.
pub(crate) const TUNE_USAGE: &str =
    "usage: refil-bench tune [digits|office|pacs|domainnet]   (default digits)";

fn final_accuracies(acc: &[f32]) -> String {
    acc.iter()
        .map(|a| format!("{a:5.1}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// All eight methods on one dataset (default Digits-Five) at the
/// environment's scale, seed 42.
pub(crate) fn tune(mut args: Args) -> ExitCode {
    let dataset = match args.next() {
        None => DatasetChoice::DigitsFive,
        Some(name) => {
            dataset_by_name(&name).unwrap_or_else(|| args.fail(format!("unknown dataset {name:?}")))
        }
    };
    if let Some(extra) = args.next() {
        args.fail(format!("unexpected argument {extra:?}"));
    }
    let results = run_all_methods(&ExperimentSpec::new(dataset));
    println!("\nMethod            Avg     Last    Forget  | final per-domain");
    for r in &results {
        println!(
            "{:<17} {:>6.2}  {:>6.2}  {:>6.2}  | {}",
            r.name,
            r.scores.avg,
            r.scores.last,
            r.scores.forgetting,
            final_accuracies(r.result.final_domain_accuracies())
        );
    }
    ExitCode::SUCCESS
}

struct Knobs {
    collision_spacing: f32,
    shift_max: f32,
    sig_scale: f32,
    stable_scale: f32,
    noise_mul: f32,
}

fn digits_like(k: &Knobs) -> DatasetSpec {
    let noises = [0.15f32, 0.40, 0.70, 0.95, 1.15];
    let names = ["MNIST", "MNIST-M", "USPS", "SVHN", "SYN"];
    let sizes = [825usize, 825, 112, 1099, 375];
    DatasetSpec {
        name: "digits-like".into(),
        classes: 10,
        feature_dim: 32,
        proto_scale: 2.0,
        within_std: 0.45,
        test_fraction: 0.2,
        signature_dim: 6,
        signature_scale: k.sig_scale,
        domains: (0..5)
            .map(|i| {
                let frac = i as f32 / 4.0;
                DomainSpec::new(
                    names[i],
                    sizes[i],
                    noises[i] * k.noise_mul,
                    frac * k.shift_max,
                )
                .with_collision(i as f32 * k.collision_spacing)
            })
            .collect(),
    }
}

/// Explores dataset/method knobs on a digits-like synthetic at bench scale.
pub(crate) fn sweep() {
    let status = Telemetry::stderr();
    let knob = |collision_spacing, shift_max, sig_scale, stable_scale| Knobs {
        collision_spacing,
        shift_max,
        sig_scale,
        stable_scale,
        noise_mul: 1.0,
    };
    let knob_sets = [
        knob(0.6, 0.65, 0.3, 0.2),
        knob(0.6, 1.2, 0.3, 0.2),
        knob(0.5, 0.65, 0.6, 0.1),
        knob(0.8, 0.4, 0.6, 0.2),
    ];
    let methods = [
        MethodChoice::Finetune,
        MethodChoice::FedLwf,
        MethodChoice::FedDualPromptPool,
        MethodChoice::RefFiL,
    ];
    let run_cfg = DatasetChoice::DigitsFive.run_config(&Scale::bench(), 42);
    let cfg = method_config(DatasetChoice::DigitsFive, 5, 42 ^ 7);
    for (ki, k) in knob_sets.iter().enumerate() {
        status.info(format!("sweeping knob set {ki}/{}", knob_sets.len()));
        println!(
            "\n=== knobs {ki}: coll {:.2} shift {:.2} sig {:.2} stable {:.2} ===",
            k.collision_spacing, k.shift_max, k.sig_scale, k.stable_scale
        );
        let ds = digits_like(k).generate(42);
        for m in methods {
            let cfg = MethodConfig {
                stable_backbone_scale: k.stable_scale,
                ..cfg
            };
            let res = FdilRunner::new(run_cfg).run(&ds, build_method(m, cfg).as_mut());
            let s = scores(&res.domain_acc);
            println!(
                "{:<17} Avg {:>6.2} Last {:>6.2} Fgt {:>6.2} | {}",
                m.paper_name(),
                s.avg,
                s.last,
                s.forgetting,
                final_accuracies(res.final_domain_accuracies())
            );
        }
    }
}
