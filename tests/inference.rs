//! Tape-free inference equivalence for Finetune and RefFiL.
//!
//! Evaluation runs on the tape-free inference graph; `force_taped` routes
//! it through the training tape instead. Both must predict identically on
//! the final global model of a class whose cells hold its golden digest
//! (`common::GOLDEN`). The other strategies' checks run in their classes in
//! `tests/contracts.rs`.

mod common;

use common::{
    assert_taped_matches_tape_free, assert_task_free_taped_matches_tape_free, thread_class,
};

#[test]
fn finetune_taped_matches_tape_free() {
    for seed in [13u64, 29] {
        let (res, strat) = thread_class("finetune", seed);
        assert_taped_matches_tape_free(&format!("finetune/{seed}"), &strat, &res);
    }
}

#[test]
fn reffil_taped_matches_tape_free() {
    for seed in [13u64, 29] {
        let (res, strat) = thread_class("reffil", seed);
        assert_taped_matches_tape_free(&format!("reffil/{seed}"), &strat, &res);
    }
}

#[test]
fn reffil_task_free_inference_taped_matches_tape_free() {
    // The confidence-max sweep runs one forward per task key through the
    // same reused session; both paths must pick identical predictions.
    for seed in [13u64, 29] {
        let (res, strat) = thread_class("reffil", seed);
        assert_task_free_taped_matches_tape_free(&format!("reffil/{seed}"), &strat, &res);
    }
}
