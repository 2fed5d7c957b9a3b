//! Reactor thread-shape regression tests.
//!
//! The served federation path is a single-threaded reactor: one poll loop
//! accepts peers, drives handshakes, distributes rounds, and collects
//! results without spawning a thread per connection. This file pins the two
//! properties that make that claim checkable from the outside:
//!
//! 1. **No stale threads.** A served run leaves the process thread count
//!    exactly where it found it — there are no per-peer collector threads
//!    to leak in the first place.
//! 2. **Flat peak.** The peak thread count during a run is independent of
//!    the peer count: serving 256 clients uses exactly as many threads as
//!    serving 4.
//!
//! Both runs fold into one `#[test]` so the harness contributes a constant
//! number of its own threads to every measurement. This file is its own
//! test binary for the same reason: no other test may start threads while
//! it counts them. Both runs are the `finetune/13` cell of the shared
//! contract matrix (`common`) and must hold its golden digest.

mod common;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{check_class, dataset, digest, run_cfg, Strategy};
use refil::fed::{
    client_handshake, connect, process_thread_count, run_clients_pumped, ClientOptions,
    ClientReport, Endpoint, FdilRunner, FdilStrategy, Link, NetListener, RunConfig, RunResult,
    Telemetry,
};

/// The `finetune/13` class's run on one worker thread.
fn cfg() -> RunConfig {
    RunConfig {
        threads: 1,
        ..run_cfg(13)
    }
}

fn build_strategy() -> Box<dyn FdilStrategy> {
    Strategy::build("finetune").into_boxed()
}

/// Serves one run with `n_clients` in-process clients all pumped from a
/// single thread, sampling the process thread count throughout. Returns the
/// run result, every client report, and the thread counts
/// `(before, peak, after)`.
fn served_thread_shape(n_clients: usize) -> (RunResult, Vec<ClientReport>, (usize, usize, usize)) {
    let before = process_thread_count().expect("/proc/self/task readable");
    let listener = NetListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
    let addr = listener.local_endpoint().to_string();

    // Sampler thread: tracks the peak thread count while the run is live.
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));
    let sampler = {
        let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if let Some(n) = process_thread_count() {
                    peak.fetch_max(n, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    // Pump thread: connects and handshakes every client, then drives all of
    // their replica loops from one reactor of its own.
    let pump = std::thread::spawn(move || {
        let ds = dataset();
        let cfg = cfg();
        let endpoint = Endpoint::parse(&addr).expect("pump address");
        let deadline = Instant::now() + Duration::from_secs(120);
        let mut links: Vec<Box<dyn Link>> = Vec::with_capacity(n_clients);
        let mut peer_ids = Vec::with_capacity(n_clients);
        for nonce in 0..n_clients {
            let link = connect(&endpoint, deadline).expect("pump connect");
            let (peer_id, _spec, _token, _compression) =
                client_handshake(&link, nonce as u64, None, deadline).expect("pump handshake");
            links.push(Box::new(link));
            peer_ids.push(peer_id);
        }
        let mut strategies: Vec<Box<dyn FdilStrategy>> =
            (0..n_clients).map(|_| build_strategy()).collect();
        run_clients_pumped(
            &links,
            &peer_ids,
            &mut strategies,
            &ds,
            &cfg,
            &ClientOptions::default(),
            &Telemetry::disabled(),
        )
        .into_iter()
        .map(|r| r.expect("client replica"))
        .collect::<Vec<ClientReport>>()
    });

    let ds = dataset();
    let mut cfg = cfg();
    cfg.net.min_peers = n_clients;
    let mut strat = build_strategy();
    let result =
        FdilRunner::new(cfg)
            .threads(1)
            .serve(&ds, strat.as_mut(), &listener, "reactor-test");
    let reports = pump.join().expect("pump thread");
    stop.store(true, Ordering::Relaxed);
    sampler.join().expect("sampler thread");
    // A just-joined thread can linger in /proc/self/task for a moment, so
    // give the count up to 2 s to settle; a thread that really stays alive
    // still fails the leak assertion.
    let settle_by = Instant::now() + Duration::from_secs(2);
    let mut after = process_thread_count().expect("/proc/self/task readable");
    while after > before && Instant::now() < settle_by {
        std::thread::sleep(Duration::from_millis(1));
        after = process_thread_count().expect("/proc/self/task readable");
    }
    (
        result,
        reports,
        (before, peak.load(Ordering::Relaxed), after),
    )
}

#[test]
fn reactor_thread_shape_is_flat_and_leak_free() {
    let (small, small_reports, (small_before, small_peak, small_after)) = served_thread_shape(4);
    let (big, big_reports, (big_before, big_peak, big_after)) = served_thread_shape(256);

    // No stale threads: a served run restores the thread count exactly —
    // the reactor never spawned per-peer collectors to begin with.
    assert_eq!(
        small_after, small_before,
        "4-client run leaked threads ({small_before} before, {small_after} after)"
    );
    assert_eq!(
        big_after, big_before,
        "256-client run leaked threads ({big_before} before, {big_after} after)"
    );

    // Flat peak: both runs add exactly the two threads this test spawned
    // (pump + sampler), regardless of peer count.
    let small_delta = small_peak - small_before;
    let big_delta = big_peak - big_before;
    assert_eq!(
        small_delta, big_delta,
        "peak thread count must be independent of peer count \
         (4 clients: +{small_delta}, 256 clients: +{big_delta})"
    );
    assert_eq!(small_delta, 2, "expected exactly pump + sampler threads");

    // Every client finished COMPLETE, and both served runs hold the
    // in-process run's golden digest.
    assert_eq!(small_reports.len(), 4);
    assert_eq!(big_reports.len(), 256);
    for report in small_reports.iter().chain(&big_reports) {
        assert_eq!(
            report.reason, 0,
            "client {} did not complete",
            report.peer_id
        );
    }
    check_class(
        "finetune/13",
        &[
            ("pumped4".to_string(), digest(&small, None)),
            ("pumped256".to_string(), digest(&big, None)),
        ],
    );
}
