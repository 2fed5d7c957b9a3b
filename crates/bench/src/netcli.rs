//! Shared plumbing for networked runs: `refil-bench run --listen` and
//! `run --connect` route through this module.
//!
//! A networked run is described by a [`NetSpec`] — dataset, method, scale,
//! seed, and domain order. The server serializes the spec into the
//! `Welcome` frame of the join handshake, so a client needs nothing but an
//! address: it reconstructs the identical dataset, strategy, and
//! [`RunConfig`](refil_fed::RunConfig) from the spec and is then driven
//! entirely by lifecycle frames. Because every input is derived from the
//! spec, a networked run's semantic outputs (accuracies, per-kind wire
//! bytes) are byte-identical to the same-seed in-process run.

use std::time::{Duration, Instant};

use refil_eval::scores;
use refil_fed::{
    client_handshake, connect, run_clients_pumped, ClientOptions, ClientReport, Endpoint,
    FdilRunner, Link, NetListener, Telemetry,
};
use serde::{Deserialize, Serialize};

use crate::datasets::{dataset_by_name, DatasetChoice, Scale};
use crate::methods::{build_method, method_by_name, method_config, MethodChoice};
use crate::runner::MethodResult;

/// How long a client keeps retrying the initial connect + handshake.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);

/// Everything a client needs to replicate the server's experiment: the
/// run-spec carried in the `Welcome` frame, as a JSON document.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetSpec {
    /// Dataset CLI name (accepted by [`dataset_by_name`]).
    pub dataset: String,
    /// Method CLI name (accepted by [`method_by_name`]).
    pub method: String,
    /// Protocol scale name: `smoke`, `bench`, or `paper`.
    pub scale: String,
    /// Master seed (data generation, protocol, model init).
    pub seed: u64,
    /// Use the Table 4 shuffled domain order.
    pub new_order: bool,
}

/// A [`NetSpec`] with its names resolved to harness types.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResolvedSpec {
    /// Which dataset.
    pub dataset: DatasetChoice,
    /// Which method.
    pub method: MethodChoice,
    /// Protocol scaling.
    pub scale: Scale,
}

impl NetSpec {
    /// Builds a spec from resolved choices, stamping the canonical CLI
    /// names so the spec round-trips through its JSON form.
    pub fn new(
        dataset: DatasetChoice,
        method: MethodChoice,
        scale_name: &str,
        seed: u64,
        new_order: bool,
    ) -> Self {
        Self {
            dataset: dataset.name().to_string(),
            method: method.cli_name().to_string(),
            scale: scale_name.to_string(),
            seed,
            new_order,
        }
    }

    /// Serializes the spec for the `Welcome` frame.
    pub(crate) fn to_json(&self) -> String {
        serde_json::to_string(self).expect("NetSpec serialization cannot fail")
    }

    /// Parses a spec received from a server.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or missing fields.
    pub(crate) fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("malformed run-spec: {e}"))
    }

    /// Resolves the spec's names to harness types.
    ///
    /// # Errors
    ///
    /// Fails if the dataset, method, or scale name is unknown.
    pub(crate) fn resolve(&self) -> Result<ResolvedSpec, String> {
        let dataset = dataset_by_name(&self.dataset)
            .ok_or_else(|| format!("run-spec names unknown dataset {:?}", self.dataset))?;
        let method = method_by_name(&self.method)
            .ok_or_else(|| format!("run-spec names unknown method {:?}", self.method))?;
        let scale = scale_by_name(&self.scale)
            .ok_or_else(|| format!("run-spec names unknown scale {:?}", self.scale))?;
        Ok(ResolvedSpec {
            dataset,
            method,
            scale,
        })
    }
}

/// Looks up a protocol scale by name (`smoke`, `bench`, `paper`).
pub(crate) fn scale_by_name(name: &str) -> Option<Scale> {
    match name {
        "smoke" => Some(Scale::smoke()),
        "bench" => Some(Scale::bench()),
        "paper" => Some(Scale::paper()),
        _ => None,
    }
}

/// The name of the environment-selected scale (`REFIL_SCALE`, default
/// `bench`) — the server stamps this into the spec it sends to clients.
pub fn scale_name_from_env() -> &'static str {
    match std::env::var("REFIL_SCALE").as_deref() {
        Ok("smoke") => "smoke",
        Ok("paper") => "paper",
        _ => "bench",
    }
}

/// CLI overrides for the server's [`NetConfig`](refil_fed::NetConfig);
/// `None` keeps the config default.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetOverrides {
    /// Peers to wait for before the first round (`--min-peers`).
    pub min_peers: Option<usize>,
    /// Per-round collection deadline (`--round-deadline-ms`).
    pub round_deadline_ms: Option<u64>,
    /// Re-join grace when the peer set empties (`--join-grace-ms`).
    pub join_grace_ms: Option<u64>,
    /// Per-round participation fraction (`--sample-fraction`).
    pub sample_fraction: Option<f32>,
    /// Sampling floor (`--min-sample`).
    pub min_sample: Option<usize>,
    /// Uplink compression (`--wire`, e.g. `delta+int8+topk0.25`).
    pub wire: Option<refil_fed::WireConfig>,
}

/// Parses a `--wire` argument: `none` (identity), or any `+`-joined
/// combination of `delta`, `f16`, `int8`, and `topk<fraction>` — the same
/// vocabulary [`CompressionSpec`](refil_fed::CompressionSpec) displays.
///
/// # Errors
///
/// Fails on unknown terms, conflicting quantizers, or an out-of-range
/// top-k fraction.
pub fn parse_wire_arg(arg: &str) -> Result<refil_fed::WireConfig, String> {
    let mut wire = refil_fed::WireConfig::default();
    if arg == "none" || arg == "identity" {
        return Ok(wire);
    }
    for term in arg.split('+') {
        if term == "delta" {
            wire.delta = true;
        } else if term == "f16" || term == "int8" {
            if wire.quant != refil_fed::WireQuant::None {
                return Err(format!("--wire {arg}: more than one quantizer"));
            }
            wire.quant = if term == "f16" {
                refil_fed::WireQuant::F16
            } else {
                refil_fed::WireQuant::Int8
            };
        } else if let Some(frac) = term.strip_prefix("topk") {
            wire.topk_fraction = frac
                .parse::<f32>()
                .map_err(|e| format!("--wire {arg}: bad top-k fraction {frac:?}: {e}"))?;
        } else {
            return Err(format!("--wire {arg}: unknown term {term:?}"));
        }
    }
    if !wire.spec().is_valid() {
        return Err(format!(
            "--wire {arg}: top-k fraction must be in (0, 1], got {}",
            wire.topk_fraction
        ));
    }
    Ok(wire)
}

/// Runs a federation server: binds `addr`, waits for clients, and drives
/// the full FDIL protocol over the socket. Returns the same
/// [`MethodResult`] an in-process run would.
///
/// # Errors
///
/// Fails on an unresolvable spec, a bad address, a bind failure, or
/// network options rejected by config validation.
pub fn serve(
    addr: &str,
    spec: &NetSpec,
    overrides: &NetOverrides,
    threads: Option<usize>,
    telemetry: &Telemetry,
) -> Result<MethodResult, String> {
    let resolved = spec.resolve()?;
    let dataset = resolved
        .dataset
        .generate(&resolved.scale, spec.seed, spec.new_order);
    let mcfg = method_config(resolved.dataset, dataset.num_domains(), spec.seed ^ 7);
    let mut strategy = build_method(resolved.method, mcfg);
    let mut run_cfg = resolved.dataset.run_config(&resolved.scale, spec.seed);
    if let Some(n) = overrides.min_peers {
        run_cfg.net.min_peers = n;
    }
    if let Some(ms) = overrides.round_deadline_ms {
        run_cfg.net.round_deadline_ms = ms;
    }
    if let Some(ms) = overrides.join_grace_ms {
        run_cfg.net.join_grace_ms = ms;
    }
    if let Some(f) = overrides.sample_fraction {
        run_cfg.net.sample_fraction = f;
    }
    if let Some(n) = overrides.min_sample {
        run_cfg.net.min_sample = n;
    }
    if let Some(w) = overrides.wire {
        run_cfg.wire = w;
    }
    run_cfg.validate().map_err(|e| e.to_string())?;

    let endpoint = Endpoint::parse(addr).map_err(|e| e.to_string())?;
    let listener = NetListener::bind(&endpoint).map_err(|e| e.to_string())?;
    telemetry.info(format!(
        "serving {} on {} at {} (waiting for {} peer{})",
        spec.method,
        spec.dataset,
        listener.local_endpoint(),
        run_cfg.net.min_peers,
        if run_cfg.net.min_peers == 1 { "" } else { "s" },
    ));
    let mut runner = FdilRunner::new(run_cfg).telemetry(telemetry);
    if let Some(n) = threads {
        runner = runner.threads(n);
    }
    let result = runner.serve(&dataset, strategy.as_mut(), &listener, &spec.to_json());
    let s = scores(&result.domain_acc);
    Ok(MethodResult {
        name: resolved.method.paper_name().to_string(),
        result,
        scores: s,
    })
}

/// Runs a federation client: connects to `addr`, receives the run-spec in
/// the join handshake, rebuilds the experiment locally, and trains until
/// the server ends the run. Returns the parsed spec and the client's
/// report.
///
/// # Errors
///
/// Fails on connect/handshake errors, an unresolvable spec, or a replica
/// loop failure (link error, idle timeout, protocol violation).
pub fn client(
    addr: &str,
    opts: &ClientOptions,
    idle_ms: Option<u64>,
    telemetry: &Telemetry,
) -> Result<(NetSpec, ClientReport), String> {
    let endpoint = Endpoint::parse(addr).map_err(|e| e.to_string())?;
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    let link = connect(&endpoint, deadline).map_err(|e| format!("connect {addr}: {e}"))?;
    let (peer_id, spec_json, _resume_token, compression) =
        client_handshake(&link, u64::from(std::process::id()), None, deadline)
            .map_err(|e| format!("handshake: {e}"))?;
    let mut opts = *opts;
    opts.compression = compression;
    let spec = NetSpec::from_json(&spec_json)?;
    let resolved = spec.resolve()?;
    telemetry.info(format!(
        "joined as peer {peer_id}: {} on {} (seed {})",
        spec.method, spec.dataset, spec.seed
    ));
    let dataset = resolved
        .dataset
        .generate(&resolved.scale, spec.seed, spec.new_order);
    let mcfg = method_config(resolved.dataset, dataset.num_domains(), spec.seed ^ 7);
    let mut strategies = [build_method(resolved.method, mcfg)];
    let mut cfg = resolved.dataset.run_config(&resolved.scale, spec.seed);
    if let Some(ms) = idle_ms {
        cfg.net.client_idle_ms = ms;
    }
    let links: [Box<dyn Link>; 1] = [Box::new(link)];
    let report = run_clients_pumped(
        &links,
        &[peer_id],
        &mut strategies,
        &dataset,
        &cfg,
        &opts,
        telemetry,
    )
    .pop()
    .expect("one result per replica")
    .map_err(|e| format!("client loop: {e}"))?;
    Ok((spec, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = NetSpec::new(
            DatasetChoice::Pacs,
            MethodChoice::FedL2pPool,
            "smoke",
            77,
            true,
        );
        let back = NetSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        let resolved = back.resolve().unwrap();
        assert_eq!(resolved.dataset, DatasetChoice::Pacs);
        assert_eq!(resolved.method, MethodChoice::FedL2pPool);
    }

    #[test]
    fn every_dataset_and_method_name_round_trips() {
        for d in DatasetChoice::all() {
            assert_eq!(dataset_by_name(d.name()), Some(d), "{:?}", d);
        }
        for m in MethodChoice::all() {
            assert_eq!(method_by_name(m.cli_name()), Some(m), "{:?}", m);
        }
    }

    #[test]
    fn wire_args_parse_to_specs() {
        assert_eq!(
            parse_wire_arg("none").unwrap(),
            refil_fed::WireConfig::default()
        );
        let w = parse_wire_arg("delta+int8+topk0.25").unwrap();
        assert_eq!(w.spec().to_string(), "delta+int8+topk0.25");
        let w = parse_wire_arg("f16").unwrap();
        assert_eq!(w.quant, refil_fed::WireQuant::F16);
        assert!(!w.delta);
        assert!(parse_wire_arg("f16+int8").is_err());
        assert!(parse_wire_arg("topk0").is_err());
        assert!(parse_wire_arg("zstd").is_err());
    }

    #[test]
    fn unknown_names_are_rejected() {
        let mut spec = NetSpec::new(DatasetChoice::Pacs, MethodChoice::RefFiL, "bench", 1, false);
        spec.scale = "huge".into();
        assert!(spec.resolve().is_err());
        assert!(NetSpec::from_json("not json").is_err());
    }

    #[test]
    fn served_smoke_run_matches_local_over_unix_socket() {
        let spec = NetSpec::new(
            DatasetChoice::OfficeCaltech10,
            MethodChoice::Finetune,
            "smoke",
            5,
            false,
        );
        let resolved = spec.resolve().unwrap();
        let local_spec = crate::runner::ExperimentSpec {
            dataset: resolved.dataset,
            scale: resolved.scale,
            new_order: false,
            seed: 5,
        };
        let local = crate::runner::run_experiment(
            &local_spec,
            resolved.method,
            &refil_telemetry::Telemetry::disabled(),
            None,
            None,
        );

        let dir = std::env::temp_dir().join(format!("refil-netcli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addr = format!("unix:{}", dir.join("serve.sock").display());
        let client_addr = addr.clone();
        let handle = std::thread::spawn(move || {
            client(
                &client_addr,
                &ClientOptions::default(),
                None,
                &Telemetry::disabled(),
            )
        });
        let served = serve(
            &addr,
            &spec,
            &NetOverrides::default(),
            None,
            &Telemetry::disabled(),
        )
        .unwrap();
        let (got_spec, report) = handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(got_spec, spec);
        assert_eq!(report.reason, 0);
        assert_eq!(local.result.final_global, served.result.final_global);
        assert_eq!(local.result.domain_acc, served.result.domain_acc);
        assert_eq!(local.result.traffic, served.result.traffic);
    }
}
