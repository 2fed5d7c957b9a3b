//! Networked federation equivalence: a server driving real client
//! *processes* over TCP and Unix sockets must hold the same golden digest
//! (`common::GOLDEN`) as the same-seed in-process run.
//!
//! Client processes are spawned by re-executing this test binary: the
//! `net_client_child` test below is a no-op under a normal `cargo test`,
//! but becomes a federation client when `REFIL_NET_CHILD_ADDR` is set.
//! Net options do not change the in-process run, so the crash-and-rejoin
//! cell holds the plain `finetune/13` golden. The straggler and
//! slow-client cells are in `tests/contracts.rs`.

mod common;

use common::net::{client_child, serve_crash_and_rejoin, serve_run, tcp};
use common::{assert_codec_engaged, cell, check_class, lossy_wire, run_cfg};
#[cfg(unix)]
use refil::fed::Endpoint;

/// Child-mode entry point: a no-op test normally, a federation client when
/// re-executed by `common::net::spawn_client` with `REFIL_NET_CHILD_ADDR`
/// set.
#[test]
fn net_client_child() {
    client_child();
}

#[test]
fn reffil_over_tcp_matches_loopback_across_seeds() {
    for seed in [13u64, 29] {
        let (res, strat) = serve_run(&tcp(), "reffil", run_cfg(seed), 2, &[], true);
        assert!(
            res.rounds.iter().all(|r| r.clients_late == 0),
            "reffil/{seed}: healthy run reported late sessions"
        );
        check_class(&format!("reffil/{seed}"), &[cell("tcp", &res, &strat)]);
    }
}

#[test]
fn compressed_reffil_over_tcp_matches_loopback() {
    // Over TCP the wire spec is negotiated through `Hello`/`Welcome`, remote
    // clients compress against the broadcast they decoded and the server
    // reconstructs from its history: the run matches the in-process one.
    let mut cfg = run_cfg(13);
    cfg.wire = lossy_wire();
    let (res, strat) = serve_run(&tcp(), "reffil", cfg, 2, &[], true);
    assert_codec_engaged("tcp", &res);
    check_class("reffil+delta+int8+topk0.5/13", &[cell("tcp", &res, &strat)]);
}

#[cfg(unix)]
#[test]
fn finetune_over_unix_socket_matches_loopback_across_seeds() {
    for seed in [13u64, 29] {
        let sock = common::unique_tmp(&format!("{seed}.sock"));
        let (res, strat) = serve_run(
            &Endpoint::Unix(sock.clone()),
            "finetune",
            run_cfg(seed),
            2,
            &[],
            true,
        );
        std::fs::remove_file(&sock).ok();
        check_class(&format!("finetune/{seed}"), &[cell("unix", &res, &strat)]);
    }
}

#[test]
fn crashed_client_is_reassigned_and_a_rejoiner_catches_up() {
    // The crashed peer's sessions are reassigned (no late sessions) and
    // every child exits successfully; both are asserted while serving.
    let (res, strat) = serve_crash_and_rejoin(13);
    check_class("finetune/13", &[cell("tcp+crash+rejoin", &res, &strat)]);
}
