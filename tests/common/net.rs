//! Networked cells: a server in the test process driving client
//! *processes* over TCP or Unix sockets.
//!
//! Client processes are spawned by re-executing the running test binary
//! with `net_client_child --exact`: every binary that serves must define a
//! `net_client_child` test that calls [`client_child`], a no-op under a
//! normal `cargo test` that becomes a federation client when
//! `REFIL_NET_CHILD_ADDR` is set.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use refil::fed::{
    client_handshake, connect, run_clients_pumped, ClientOptions, Endpoint, FdilRunner, Link,
    NetListener, RunConfig, RunResult, Telemetry,
};

use super::{dataset, run_cfg, Strategy};

/// Child-mode body of the `net_client_child` test: returns at once unless
/// re-executed by [`spawn_client`] with `REFIL_NET_CHILD_ADDR` set.
pub fn client_child() {
    let Ok(addr) = std::env::var("REFIL_NET_CHILD_ADDR") else {
        return;
    };
    let method = std::env::var("REFIL_NET_CHILD_METHOD").expect("child method");
    let seed: u64 = std::env::var("REFIL_NET_CHILD_SEED")
        .expect("child seed")
        .parse()
        .expect("child seed parses");
    let mut opts = ClientOptions::default();
    if let Ok(n) = std::env::var("REFIL_NET_CHILD_ABORT") {
        opts.abort_after_round_starts = Some(n.parse().expect("abort count"));
    }
    if let Ok(ms) = std::env::var("REFIL_NET_CHILD_DELAY") {
        opts.train_delay_ms = ms.parse().expect("delay ms");
    }
    let endpoint = Endpoint::parse(&addr).expect("child address");
    let deadline = Instant::now() + Duration::from_secs(60);
    let link = connect(&endpoint, deadline).expect("child connect");
    let (peer_id, _spec, _token, compression) =
        client_handshake(&link, seed, None, deadline).expect("child handshake");
    opts.compression = compression;
    let links: [Box<dyn Link>; 1] = [Box::new(link)];
    run_clients_pumped(
        &links,
        &[peer_id],
        &mut [Strategy::build(&method).into_boxed()],
        &dataset(),
        &run_cfg(seed),
        &opts,
        &Telemetry::disabled(),
    )
    .pop()
    .expect("one result per replica")
    .expect("child replica loop");
}

/// Spawns a client process by re-executing this test binary with the
/// child-mode environment set. `extra` adds straggler knobs.
pub fn spawn_client(addr: &str, method: &str, seed: u64, extra: &[(&str, String)]) -> Child {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = Command::new(exe);
    cmd.args(["net_client_child", "--exact"])
        .env("REFIL_NET_CHILD_ADDR", addr)
        .env("REFIL_NET_CHILD_METHOD", method)
        .env("REFIL_NET_CHILD_SEED", seed.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for (k, v) in extra {
        cmd.env(k, v);
    }
    cmd.spawn().expect("spawn client process")
}

/// Serves one full run on `endpoint` with `clients` freshly spawned client
/// processes, waits for them to exit, and returns the server's result.
pub fn serve_run(
    endpoint: &Endpoint,
    method: &str,
    mut cfg: RunConfig,
    clients: usize,
    extra: &[(&str, String)],
    require_client_success: bool,
) -> (RunResult, Strategy) {
    cfg.net.min_peers = clients;
    let listener = NetListener::bind(endpoint).expect("bind");
    let addr = listener.local_endpoint().to_string();
    let children: Vec<Child> = (0..clients)
        .map(|_| spawn_client(&addr, method, cfg.seed, extra))
        .collect();
    let mut strat = Strategy::build(method);
    let result = FdilRunner::new(cfg).serve(&dataset(), strat.get_mut(), &listener, "net-test");
    for mut child in children {
        let status = child.wait().expect("wait for client");
        if require_client_success {
            assert!(status.success(), "client process failed: {status}");
        }
    }
    (result, strat)
}

/// A loopback TCP endpoint on a free port.
pub fn tcp() -> Endpoint {
    Endpoint::Tcp("127.0.0.1:0".into())
}

/// One client crashes (drops its connection without notice) on its second
/// RoundStart. The reactor reassigns the stranded sessions to the surviving
/// peer, so nothing goes late. A replacement process then joins mid-run,
/// catches up from the server's full replay log, and finishes COMPLETE.
pub fn serve_crash_and_rejoin(seed: u64) -> (RunResult, Strategy) {
    let mut cfg = run_cfg(seed);
    cfg.net.min_peers = 2;
    cfg.net.round_deadline_ms = 4_000;
    let listener = NetListener::bind(&tcp()).expect("bind");
    let addr = listener.local_endpoint().to_string();
    let crash = [("REFIL_NET_CHILD_ABORT", "2".to_string())];
    // The stayer trains with a small delay so the run is still in flight
    // when the replacement process connects.
    let slow = [("REFIL_NET_CHILD_DELAY", "200".to_string())];
    let mut crasher = spawn_client(&addr, "finetune", seed, &crash);
    let mut stayer = spawn_client(&addr, "finetune", seed, &slow);
    let rejoin_addr = addr.clone();
    let rejoiner = std::thread::spawn(move || {
        let status = crasher.wait().expect("wait for crasher");
        assert!(status.success(), "crasher child failed: {status}");
        let mut child = spawn_client(&rejoin_addr, "finetune", seed, &[]);
        child.wait().expect("wait for rejoiner")
    });
    let mut strat = Strategy::build("finetune");
    let served = FdilRunner::new(cfg).serve(&dataset(), strat.get_mut(), &listener, "net-test");
    let rejoin_status = rejoiner.join().expect("rejoiner thread");
    assert!(rejoin_status.success(), "rejoiner child failed");
    let stayer_status = stayer.wait().expect("wait for stayer");
    assert!(stayer_status.success(), "stayer child failed");
    assert!(
        served.rounds.iter().all(|r| r.clients_late == 0),
        "crashed peer's sessions must be reassigned, not stranded"
    );
    (served, strat)
}
