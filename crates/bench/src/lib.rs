//! # refil-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper (see the `DESIGN.md` per-experiment index). Each table/figure is a
//! subcommand of the one `refil-bench` executable (`table1` … `fig6_tsne`)
//! that prints the same rows/series the paper reports, on the synthetic
//! dataset analogues.
//!
//! The harness scales the paper's protocol (R=30 rounds, E=20 local epochs,
//! full-size datasets) down to CPU-tractable settings via [`Scale`];
//! the reproduction target is the *shape* of the results (method ordering,
//! forgetting gaps), not absolute GPU-scale numbers.

#![warn(missing_docs)]

pub(crate) mod datasets;
pub(crate) mod experiments;
pub mod gate;
pub(crate) mod meta;
pub mod methods;
pub mod netcli;
pub mod report;
pub(crate) mod runner;

pub use datasets::{dataset_by_name, DatasetChoice, Scale};
pub use experiments::{full_results, per_step_tables, summary_table, CachedMethod, FullResults};
pub use meta::BenchMeta;
pub use methods::{build_method, MethodChoice};
pub use runner::{run_all_methods, run_experiment, ExperimentSpec, MethodResult};
