//! Round reports under telemetry.
//!
//! With collecting telemetry on, every strategy's run at threads 1 and 4
//! must hold its class's golden digest (`common::GOLDEN`), which covers
//! every semantic `RoundReport` field, while wall times and pool stats stay
//! free to differ. Chrome-trace nesting and the report's JSON field set are
//! pinned in `tests/contracts.rs`.

mod common;

use common::{cell, check_class, dataset, in_process, run_cfg, STRATEGIES};

#[test]
fn round_reports_are_semantically_identical_across_thread_counts() {
    let domains = dataset().num_domains();
    for seed in [13u64, 29] {
        for name in STRATEGIES {
            let class = format!("{name}/{seed}");
            let cfg = run_cfg(seed);
            let (t1, s1) = in_process(name, cfg, 1, true);
            let (t4, s4) = in_process(name, cfg, 4, true);
            for res in [&t1, &t4] {
                assert_eq!(
                    res.rounds.len() as u64,
                    res.traffic.rounds,
                    "{class}: report count != executed rounds"
                );
                // Every task boundary carries exactly one eval row.
                let evals = res.rounds.iter().filter(|r| r.eval_domain_acc.is_some());
                assert_eq!(
                    evals.count(),
                    domains,
                    "{class}: expected one eval per task"
                );
            }
            check_class(
                &class,
                &[
                    cell("t1+collecting", &t1, &s1),
                    cell("t4+collecting", &t4, &s4),
                ],
            );
        }
    }
}
