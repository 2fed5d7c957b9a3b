//! `refil-bench`: one executable for every table, figure, ablation and tool
//! of the harness. The first argument names the subcommand:
//!
//! ```text
//! cargo run --release -p refil-bench -- table1
//! target/release/refil-bench run --dataset office --method reffil --seed 42
//! target/release/refil-bench bench_gate --check BENCH_kernels.json BENCH_net.json
//! target/release/refil-bench --help          # every subcommand, one line each
//! ```
//!
//! `REFIL_SCALE=smoke|bench|paper` selects the protocol scale and
//! `REFIL_LOG` the stderr verbosity. The experiments write their tables to
//! stdout and to `results/` (see the library's `report` module).

use std::process::ExitCode;
use std::str::FromStr;

use refil_bench::methods::method_config;
use refil_bench::report::emit;
use refil_bench::{DatasetChoice, Scale};
use refil_continual::MethodConfig;
use refil_data::{FdilDataset, Sample};
use refil_eval::{scores, Scores, Table};
use refil_fed::{FdilRunner, FdilStrategy, RunConfig, RunResult};
use refil_nn::Tensor;

mod cmd {
    pub(crate) mod ablation;
    pub(crate) mod bench_gate;
    pub(crate) mod bench_kernels;
    pub(crate) mod bench_net;
    pub(crate) mod extension;
    pub(crate) mod paper;
    pub(crate) mod run;
    pub(crate) mod tuning;
}

use cmd::{ablation, bench_gate, bench_kernels, bench_net, extension, paper, run, tuning};

/// How a subcommand is started.
enum Main {
    /// Takes no arguments: the experiment is fixed up to `REFIL_SCALE`.
    Fixed(fn()),
    /// Parses its own arguments; the string is its usage text.
    Args(fn(Args) -> ExitCode, &'static str),
}

/// One entry of the dispatch table.
struct Command {
    name: &'static str,
    about: &'static str,
    main: Main,
}

const fn fixed(name: &'static str, about: &'static str, main: fn()) -> Command {
    Command {
        name,
        about,
        main: Main::Fixed(main),
    }
}

const fn args(
    name: &'static str,
    about: &'static str,
    main: fn(Args) -> ExitCode,
    usage: &'static str,
) -> Command {
    Command {
        name,
        about,
        main: Main::Args(main, usage),
    }
}

/// Every subcommand, in the order `--help` lists them.
const COMMANDS: &[Command] = &[
    args(
        "run",
        "one method on one dataset: in-process, served (--listen) or joined (--connect)",
        run::main,
        run::USAGE,
    ),
    fixed(
        "table1",
        "Table 1: Avg/Last summary, canonical domain order",
        paper::table1,
    ),
    fixed(
        "table2",
        "Table 2: Avg/Last summary, new domain order",
        paper::table2,
    ),
    fixed(
        "table3",
        "Table 3: per-step accuracies, canonical order",
        paper::table3,
    ),
    fixed(
        "table4",
        "Table 4: per-step accuracies, new order",
        paper::table4,
    ),
    fixed(
        "table5",
        "Table 5: CDAP/GPL/DPCL ablation (OfficeCaltech10)",
        paper::table5,
    ),
    fixed(
        "fig1_transition",
        "Figure 1: cliff vs. gradual client groups",
        paper::fig1_transition,
    ),
    fixed(
        "fig3_stats",
        "Table 6 and Figure 3: FedDomainNet statistics",
        paper::fig3_stats,
    ),
    fixed(
        "fig4_boxplots",
        "Figure 4: per-domain accuracy distributions",
        paper::fig4_boxplots,
    ),
    fixed(
        "fig5_tsne",
        "Figure 5: t-SNE per task step",
        paper::fig5_tsne,
    ),
    fixed(
        "fig6_tsne",
        "Figure 6: t-SNE per domain, final model",
        paper::fig6_tsne,
    ),
    fixed(
        "ablation_clustering",
        "FINCH vs. k-means vs. plain average",
        ablation::clustering,
    ),
    fixed(
        "ablation_temperature",
        "Eq. 7 decay vs. fixed temperature",
        ablation::temperature,
    ),
    fixed(
        "ablation_prompt_weighting",
        "Eq. 2 balanced vs. data-size-weighted prompt sharing",
        ablation::prompt_weighting,
    ),
    fixed(
        "ablation_extractor",
        "residual-MLP vs. 1-D CNN backbone",
        ablation::extractor,
    ),
    fixed(
        "ablation_taskid",
        "task-ID-free inference extension",
        ablation::taskid,
    ),
    fixed(
        "variance",
        "3-seed robustness of the headline comparison",
        extension::variance,
    ),
    fixed(
        "confusion",
        "backward transfer and per-class confusion",
        extension::confusion,
    ),
    fixed(
        "extension_bounds",
        "RefFiL vs. FedProx and a rehearsal oracle",
        extension::bounds,
    ),
    fixed(
        "extension_class_incremental",
        "future work: new classes arrive with new domains",
        extension::class_incremental,
    ),
    args(
        "tune",
        "all eight methods on one dataset (REFIL_SCALE=smoke for a quick check)",
        tuning::tune,
        tuning::TUNE_USAGE,
    ),
    fixed(
        "sweep",
        "dataset-knob sweep on a Digits-Five-like synthetic",
        tuning::sweep,
    ),
    args(
        "bench_kernels",
        "time the GEMM, GELU and conv kernels into BENCH_kernels.json",
        bench_kernels::main,
        bench_kernels::USAGE,
    ),
    args(
        "bench_net",
        "time served runs at 4/64/256 pumped peers into BENCH_net.json",
        bench_net::main,
        bench_net::USAGE,
    ),
    args(
        "bench_gate",
        "validate BENCH_*.json reports or diff two of them",
        bench_gate::main,
        bench_gate::USAGE,
    ),
];

fn help() -> String {
    let mut text = String::from("usage: refil-bench <command> [args]\n\ncommands:\n");
    for c in COMMANDS {
        text.push_str(&format!("  {:<28} {}\n", c.name, c.about));
    }
    text.push_str(
        "\n`refil-bench <command> --help` prints a command's usage.\n\
         REFIL_SCALE=smoke|bench|paper selects the protocol scale; REFIL_LOG the stderr verbosity.\n",
    );
    text
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(name) = argv.next() else {
        eprint!("{}", help());
        return ExitCode::from(2);
    };
    if matches!(name.as_str(), "--help" | "-h" | "help") {
        print!("{}", help());
        return ExitCode::SUCCESS;
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        eprint!("unknown command {name:?}\n\n{}", help());
        return ExitCode::from(2);
    };
    let rest: Vec<String> = argv.collect();
    let usage = match cmd.main {
        Main::Fixed(_) => format!("usage: refil-bench {}", cmd.name),
        Main::Args(_, usage) => usage.to_string(),
    };
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        println!("{usage}\n\n{}", cmd.about);
        return ExitCode::SUCCESS;
    }
    match cmd.main {
        Main::Fixed(entry) => {
            if let Some(extra) = rest.first() {
                eprintln!("unexpected argument {extra:?}\n{usage}");
                return ExitCode::from(2);
            }
            entry();
            ExitCode::SUCCESS
        }
        Main::Args(entry, usage) => entry(Args {
            usage,
            rest: rest.into_iter(),
        }),
    }
}

/// A subcommand's arguments, with its usage text for error exits.
pub(crate) struct Args {
    usage: &'static str,
    rest: std::vec::IntoIter<String>,
}

impl Args {
    /// Prints the usage text and exits with status 2.
    pub(crate) fn usage(&self) -> ! {
        eprintln!("{}", self.usage);
        std::process::exit(2);
    }

    /// Prints `msg`, then exits as [`Args::usage`] does.
    pub(crate) fn fail(&self, msg: impl std::fmt::Display) -> ! {
        eprintln!("{msg}");
        self.usage()
    }

    /// The value after a flag; a missing value is a usage error.
    pub(crate) fn value(&mut self) -> String {
        self.rest.next().unwrap_or_else(|| self.usage())
    }

    /// The value after a flag, parsed; a missing or malformed value is a
    /// usage error.
    pub(crate) fn num<T: FromStr>(&mut self) -> T {
        let v = self.value();
        v.parse()
            .unwrap_or_else(|_| self.fail(format!("malformed value {v:?}")))
    }

    /// Parses an `--out PATH` flag, the only option of the report writers.
    pub(crate) fn out_path(mut self, default: &str) -> String {
        let mut out = default.to_string();
        while let Some(arg) = self.next() {
            match arg.as_str() {
                "--out" => out = self.value(),
                other => self.fail(format!("unknown argument {other:?}")),
            }
        }
        out
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.rest.next()
    }
}

/// The prologue the single-dataset experiments share: a dataset generated
/// at the environment's scale, its protocol, and the method config seeded
/// `seed ^ 7`, exactly as [`refil_bench::run_experiment`] builds them.
pub(crate) struct Setup {
    /// The generated dataset.
    pub dataset: FdilDataset,
    /// The shared method config.
    pub cfg: MethodConfig,
    /// The dataset's protocol at the environment's scale.
    run_cfg: RunConfig,
}

impl Setup {
    /// `choice` at seed 42, canonical domain order.
    pub(crate) fn new(choice: DatasetChoice) -> Self {
        Self::seeded(choice, 42)
    }

    /// `choice` at `seed`, canonical domain order.
    pub(crate) fn seeded(choice: DatasetChoice, seed: u64) -> Self {
        let dataset = choice.generate(&Scale::from_env(), seed, false);
        Self::with_dataset(choice, dataset, seed)
    }

    /// A custom `dataset` under `choice`'s protocol and model.
    pub(crate) fn with_dataset(choice: DatasetChoice, dataset: FdilDataset, seed: u64) -> Self {
        Self {
            run_cfg: choice.run_config(&Scale::from_env(), seed),
            cfg: method_config(choice, dataset.num_domains(), seed ^ 7),
            dataset,
        }
    }

    /// The method config with the backbone frozen after the first task,
    /// the regime the RefFiL ablations train in.
    pub(crate) fn prompt_cfg(&self) -> MethodConfig {
        MethodConfig {
            stable_after_first_task: true,
            ..self.cfg
        }
    }

    /// One federated run of `strategy` on the dataset.
    pub(crate) fn run(&self, strategy: &mut dyn FdilStrategy) -> RunResult {
        FdilRunner::new(self.run_cfg).run(&self.dataset, strategy)
    }

    /// The Avg, Last and forgetting scores of one run of `strategy`.
    pub(crate) fn score(&self, strategy: &mut dyn FdilStrategy) -> Scores {
        scores(&self.run(strategy).domain_acc)
    }
}

/// A table with the given column names.
pub(crate) fn table(header: &[&str]) -> Table {
    Table::new(header.iter().map(|h| h.to_string()).collect())
}

/// Prints `table` and saves it as `results/<name>.md` and `.csv`.
pub(crate) fn emit_table(name: &str, title: &str, table: &Table) {
    emit(name, title, &table.to_markdown(), Some(&table.to_csv()));
}

/// Stacks the samples' feature vectors into one `[n, dim]` batch.
pub(crate) fn batch<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> Tensor {
    let (mut data, mut n, mut dim) = (Vec::new(), 0, 0);
    for s in samples {
        dim = s.features.len();
        data.extend_from_slice(&s.features);
        n += 1;
    }
    Tensor::from_vec(data, &[n, dim])
}

/// The strategy's predictions for `samples` under task key `task`, taken
/// in 256-row batches.
pub(crate) fn predict(
    strategy: &mut dyn FdilStrategy,
    global: &[f32],
    samples: &[Sample],
    task: usize,
) -> Vec<usize> {
    samples
        .chunks(256)
        .flat_map(|chunk| strategy.predict_domain(global, &batch(chunk), task))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The documents that show `refil-bench` command lines.
    const DOCS: [&str; 5] = [
        "README.md",
        "EXPERIMENTS.md",
        "DESIGN.md",
        ".claude/skills/verify/SKILL.md",
        ".github/workflows/ci.yml",
    ];

    /// The words that follow each `marker` in `text`, skipping flags.
    fn words_after<'a>(text: &'a str, marker: &str) -> Vec<&'a str> {
        text.match_indices(marker)
            .map(|(i, _)| {
                let rest = &text[i + marker.len()..];
                let end = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
                    .unwrap_or(rest.len());
                &rest[..end]
            })
            .filter(|w| !w.is_empty() && !w.starts_with('-'))
            .collect()
    }

    /// The subcommands `text` names: `refil-bench <name>` and
    /// `-p refil-bench -- <name>`.
    fn named_commands(text: &str) -> Vec<&str> {
        let mut names = words_after(text, "refil-bench ");
        names.extend(words_after(text, "refil-bench -- "));
        names
    }

    /// The executables `text` names: `--bin <name>` and
    /// `target/release/<name>`.
    fn named_binaries(text: &str) -> Vec<&str> {
        let mut names = words_after(text, "--bin ");
        names.extend(words_after(text, "target/release/"));
        names
    }

    fn is_command(name: &str) -> bool {
        COMMANDS.iter().any(|c| c.name == name)
    }

    #[test]
    fn docs_name_only_dispatchable_commands() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for doc in DOCS {
            let text = std::fs::read_to_string(root.join(doc))
                .unwrap_or_else(|e| panic!("cannot read {doc}: {e}"));
            for name in named_commands(&text) {
                assert!(
                    is_command(name),
                    "{doc} names `refil-bench {name}`, which is not a subcommand"
                );
            }
            for bin in named_binaries(&text) {
                assert_eq!(
                    bin, "refil-bench",
                    "{doc} names a binary other than refil-bench"
                );
            }
        }
    }

    #[test]
    fn doc_scan_catches_deleted_binaries() {
        let text = "cargo run --release -p refil-bench -- table1\n\
                    target/release/refil-bench serve --listen tcp:x\n\
                    cargo run --release -p refil-bench --bin client\n\
                    cargo test -p refil-bench --test wire_compression";
        assert_eq!(named_commands(text), ["serve", "table1"]);
        assert!(is_command("table1") && !is_command("serve"));
        assert_eq!(named_binaries(text), ["client", "refil-bench"]);
    }

    /// The criterion ids `micro.rs` registers, each with whether it is a
    /// `format!` stem (the literal text before the first `{`).
    fn registered_bench_ids(src: &str) -> Vec<(&str, bool)> {
        src.match_indices("bench_function(")
            .filter_map(|(i, m)| {
                let rest = &src[i + m.len()..];
                let lit = &rest[rest.find('"')? + 1..];
                let end = lit.find(['"', '{'])?;
                Some((&lit[..end], lit.as_bytes()[end] == b'{'))
            })
            .collect()
    }

    /// The backticked criterion ids in the body of `text`'s
    /// `## Criterion micro-benches` section: words with a `/` that are not
    /// file paths (no `.`) or commands (no whitespace).
    fn documented_bench_ids(text: &str) -> Vec<&str> {
        let Some(start) = text.find("## Criterion micro-benches") else {
            return Vec::new();
        };
        let body = &text[start..];
        let body = &body[body.find('\n').unwrap_or(body.len())..];
        let body = &body[..body.find("\n#").unwrap_or(body.len())];
        body.split('`')
            .skip(1)
            .step_by(2)
            .filter(|w| w.contains('/') && !w.contains(|c: char| c == '.' || c.is_whitespace()))
            .collect()
    }

    /// Whether `id` is a prefix of a registered id, or extends a stem.
    fn is_registered(id: &str, registered: &[(&str, bool)]) -> bool {
        registered
            .iter()
            .any(|&(r, stem)| r.starts_with(id) || (stem && id.starts_with(r)))
    }

    #[test]
    fn experiments_names_only_registered_micro_benches() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let read = |p: &std::path::Path| {
            std::fs::read_to_string(p).unwrap_or_else(|e| panic!("cannot read {p:?}: {e}"))
        };
        let registered_src = read(&root.join("benches/micro.rs"));
        let registered = registered_bench_ids(&registered_src);
        let doc = read(&root.join("../../EXPERIMENTS.md"));
        let ids = documented_bench_ids(&doc);
        assert!(
            !ids.is_empty(),
            "EXPERIMENTS.md lists no criterion ids under `## Criterion micro-benches`"
        );
        for id in ids {
            assert!(
                is_registered(id, &registered),
                "EXPERIMENTS.md names criterion id `{id}`, which benches/micro.rs does not register"
            );
        }
    }

    #[test]
    fn bench_id_scan_catches_deleted_ids() {
        let src = "c.bench_function(&format!(\"nn/gemm/tiled_{label}\"), |b| b.iter(f));\n\
                   c.bench_function(\"fed/fedavg_10x50k\", |b| b.iter(f));";
        let registered = registered_bench_ids(src);
        assert_eq!(
            registered,
            [("nn/gemm/tiled_", true), ("fed/fedavg_10x50k", false)]
        );
        let doc = "## Criterion micro-benches (`cargo bench`)\n\n\
                   `tensor/matmul_128x128`, `fed/fedavg`, `nn/gemm/tiled_128x128x128`;\n\
                   run `cargo bench -p refil-bench --bench micro` (`benches/micro.rs`).\n\n\
                   ## Next\n\n`not/scanned`";
        let ids = documented_bench_ids(doc);
        assert_eq!(
            ids,
            [
                "tensor/matmul_128x128",
                "fed/fedavg",
                "nn/gemm/tiled_128x128x128"
            ]
        );
        assert!(!is_registered("tensor/matmul_128x128", &registered));
        assert!(!is_registered("fed/fedavg_10x50k_more", &registered));
        assert!(is_registered("fed/fedavg", &registered));
        assert!(is_registered("nn/gemm/tiled_128x128x128", &registered));
    }

    /// The `[dependencies]` and `[dev-dependencies]` entries of a manifest,
    /// as the crate names sources use (`refil-nn` → `refil_nn`).
    fn manifest_deps(manifest: &str) -> Vec<String> {
        let mut deps = Vec::new();
        let mut in_deps = false;
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                in_deps = line == "[dependencies]" || line == "[dev-dependencies]";
            } else if in_deps && !line.is_empty() && !line.starts_with('#') {
                let name = line.split(['.', '=', ' ']).next().unwrap_or(line);
                deps.push(name.replace('-', "_"));
            }
        }
        deps
    }

    /// `src` without its `//` comments (doc comments included). A `//` after
    /// an odd number of quotes on its line is inside a string and kept.
    fn strip_comments(src: &str) -> String {
        src.lines()
            .map(|line| {
                let cut = line
                    .match_indices("//")
                    .find(|&(i, _)| line[..i].matches('"').count() % 2 == 0)
                    .map_or(line.len(), |(i, _)| i);
                &line[..cut]
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Whether code names crate `dep`: as a path root (`dep::`) or in a
    /// `use dep` / `extern crate dep` item.
    fn names_crate(code: &str, dep: &str) -> bool {
        let ident = |c: char| c.is_alphanumeric() || c == '_';
        code.match_indices(dep).any(|(i, _)| {
            let before = &code[..i];
            let after = &code[i + dep.len()..];
            !before.ends_with(ident)
                && !after.starts_with(ident)
                && (after.starts_with("::")
                    || before.ends_with("use ")
                    || before.ends_with("extern crate "))
        })
    }

    /// Every `.rs` file under `dir`, recursively, skipping build outputs.
    fn rust_sources(dir: &std::path::Path, out: &mut String) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() && path.file_name().is_some_and(|n| n != "target") {
                rust_sources(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path).unwrap_or_default();
                out.push_str(&strip_comments(&src));
                out.push('\n');
            }
        }
    }

    #[test]
    fn every_manifest_dependency_is_named_in_its_crate() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        // The facade's sources are its own directories; every other
        // workspace crate owns its whole directory.
        let mut packages = vec![(root.clone(), vec!["src", "tests", "examples"])];
        for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
            packages.push((entry.expect("crates/ entry").path(), vec!["."]));
        }
        let mut unnamed = Vec::new();
        for (dir, source_dirs) in packages {
            let manifest = std::fs::read_to_string(dir.join("Cargo.toml"))
                .unwrap_or_else(|e| panic!("cannot read {dir:?}/Cargo.toml: {e}"));
            let mut code = String::new();
            for sub in source_dirs {
                rust_sources(&dir.join(sub), &mut code);
            }
            for dep in manifest_deps(&manifest) {
                if !names_crate(&code, &dep) {
                    unnamed.push(format!("{}: {dep}", dir.display()));
                }
            }
        }
        assert!(
            unnamed.is_empty(),
            "manifest entries no source names: {unnamed:?}"
        );
    }

    #[test]
    fn dependency_scan_ignores_comments_and_other_words() {
        let manifest = "[package]\nname = \"x\"\n\n[dependencies]\nrand.workspace = true\n\
                        refil-nn.workspace = true\ncrossbeam = { path = \"vendor/crossbeam\" }\n\n\
                        [dev-dependencies]\nproptest.workspace = true\n\n[[bench]]\nname = \"micro\"\n";
        assert_eq!(
            manifest_deps(manifest),
            ["rand", "refil_nn", "crossbeam", "proptest"]
        );
        let code = strip_comments(
            "//! The runner used to spawn a `crossbeam::scope`.\n\
             use rand::Rng; // proptest::prelude\n\
             let url = \"http://refil_nn::x\";\n\
             let operand::y = 1;\n",
        );
        assert!(names_crate(&code, "rand"));
        assert!(
            names_crate(&code, "refil_nn"),
            "a string's `//` is not a comment"
        );
        assert!(!names_crate(&code, "crossbeam"));
        assert!(!names_crate(&code, "proptest"));
        assert!(!names_crate("let operand::y = 1;", "rand"));
    }

    #[test]
    fn command_names_are_unique_and_all_in_help() {
        let help = help();
        for (i, c) in COMMANDS.iter().enumerate() {
            assert!(
                COMMANDS[..i].iter().all(|d| d.name != c.name),
                "{} is in the dispatch table twice",
                c.name
            );
            assert!(
                help.lines()
                    .any(|l| l.split_whitespace().next() == Some(c.name)),
                "--help does not list {}",
                c.name
            );
        }
        for gone in ["serve", "client", "smoke"] {
            assert!(!is_command(gone), "{gone} was folded into run and tune");
        }
    }
}
