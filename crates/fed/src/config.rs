//! Run-level configuration: [`RunConfig`], its validation, and the typed
//! [`ConfigError`] it rejects with.
//!
//! An invalid configuration (a zero batch size, a dropout probability of
//! 1.7) would otherwise surface as a panic deep inside the round loop —
//! `minibatches` dividing by zero or a schedule with no rounds.
//! [`RunConfig::validate`] front-loads those checks and names the offending
//! field instead; the runner and every client replica call it before they
//! start.

use refil_wire::{CompressionSpec, QuantMode};
use serde::{Deserialize, Serialize};

use crate::increment::IncrementConfig;

/// Run-level configuration (protocol side).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Client increment protocol parameters.
    pub increment: IncrementConfig,
    /// Local epochs per selected client per round (paper: 20).
    pub local_epochs: usize,
    /// Local minibatch size.
    pub batch_size: usize,
    /// Log-normal sigma of the quantity-shift partition.
    pub quantity_sigma: f32,
    /// Unused by the runner: its evaluation walks each test split in fixed
    /// 64-row blocks whatever this holds, so the value never changes a
    /// result. Kept only because existing configs set it; standalone
    /// [`crate::evaluate_domain`] takes its batch size as an argument.
    pub eval_batch: usize,
    /// Probability that a selected client drops out of a round before
    /// reporting (straggler/failure simulation; the paper's setting has
    /// resource-constrained devices). `0.0` disables dropout.
    pub dropout_prob: f32,
    /// Master seed for the run.
    pub seed: u64,
    /// Worker threads for client fan-out and eval sweeps. `0` (the default,
    /// and what pre-existing serialized configs decode to) defers to the
    /// runner's `REFIL_THREADS` environment default; any other value is
    /// taken as an explicit request. Thread count never changes results,
    /// only wall time, so this field is inert for determinism.
    #[serde(default)]
    pub threads: usize,
    /// Networked-server options; inert on the in-process path, so adding
    /// (or changing) them cannot perturb a loopback run.
    #[serde(default)]
    pub net: NetConfig,
    /// Uplink payload-compression options (delta / quantization / top-k).
    /// The default is the identity spec, which routes through the plain
    /// uncompressed path — and is what serialized configs from before this
    /// knob decode to.
    #[serde(default)]
    pub wire: WireConfig,
}

/// Scalar quantization codec selection for [`WireConfig`] (the config-side
/// mirror of [`refil_wire::QuantMode`], kept separate so the wire crate
/// stays serde-free).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireQuant {
    /// Values ride as raw `f32` — bit-exact.
    #[default]
    None,
    /// IEEE binary16, round-to-nearest-even.
    F16,
    /// Asymmetric affine u8 over each update's value range.
    Int8,
}

/// Uplink compression options: what [`CompressionSpec`] the server assigns
/// to codec-capable clients (and the in-process runner applies locally).
/// The composition order is fixed: delta → top-k → quantization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WireConfig {
    /// Send `x − base` against the round's broadcast instead of `x`.
    pub delta: bool,
    /// Scalar codec for the values that survive top-k.
    pub quant: WireQuant,
    /// Fraction of coordinates kept by magnitude top-k; must be in
    /// `(0, 1]`, where `1.0` keeps everything.
    pub topk_fraction: f32,
}

impl Default for WireConfig {
    fn default() -> Self {
        Self {
            delta: false,
            quant: WireQuant::None,
            topk_fraction: 1.0,
        }
    }
}

impl WireConfig {
    /// The wire-level spec this config selects.
    pub fn spec(&self) -> CompressionSpec {
        CompressionSpec {
            delta: self.delta,
            quant: match self.quant {
                WireQuant::None => QuantMode::None,
                WireQuant::F16 => QuantMode::F16,
                WireQuant::Int8 => QuantMode::Int8,
            },
            topk_fraction: self.topk_fraction,
        }
    }
}

/// Options for the networked federation server ([`crate::FdilRunner::serve`]).
/// All durations are milliseconds so the struct stays `Copy` + serde-plain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetConfig {
    /// Per-round collection deadline: results not in by then leave their
    /// sessions late and the round completes with partial participation.
    pub round_deadline_ms: u64,
    /// Peers the server waits for before the first round starts.
    pub min_peers: usize,
    /// How long the server waits for a first (re)joiner once a round has
    /// opened with no peer connected, and for a peer to reappear while a
    /// round collects with the peer set empty; after that the round's
    /// sessions go late. It does not bound the startup wait: before round
    /// one the server waits for `min_peers` without a time limit, so a run
    /// never begins short of its quorum.
    pub join_grace_ms: u64,
    /// Client-side patience between server frames before a client gives
    /// up on an idle link.
    pub client_idle_ms: u64,
    /// Sampled participation: the fraction of each round's planned
    /// sessions that actually train, drawn seed-deterministically (from
    /// `seed`, task, and round — never from the main selection RNG, so
    /// enabling sampling perturbs nothing else, and loopback ≡ networked
    /// stays byte-identical). `0.0` — the default, and what serialized
    /// configs from before this knob decode to — disables sampling (full
    /// participation); a value in `(0, 1]` keeps `ceil(fraction · n)`
    /// sessions, floored by [`NetConfig::min_sample`].
    #[serde(default)]
    pub sample_fraction: f32,
    /// Floor on the sessions kept per round while sampling is active
    /// (values `< 1` behave as `1`). Ignored when sampling is disabled.
    #[serde(default)]
    pub min_sample: usize,
    /// Per-peer outbound-queue cap in bytes: when a peer's unsent backlog
    /// exceeds this, the reactor declares it too slow and disconnects it.
    /// `0` (the default) disables the policy.
    #[serde(default)]
    pub send_queue_max_bytes: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            round_deadline_ms: 30_000,
            min_peers: 1,
            join_grace_ms: 10_000,
            client_idle_ms: 120_000,
            sample_fraction: 0.0,
            min_sample: 0,
            send_queue_max_bytes: 0,
        }
    }
}

impl NetConfig {
    /// The sessions to keep out of `planned` under this config's sampling
    /// knobs; `None` when sampling is disabled or keeps everything.
    pub(crate) fn sample_size(&self, planned: usize) -> Option<usize> {
        if self.sample_fraction <= 0.0 || planned == 0 {
            return None;
        }
        let by_fraction = (self.sample_fraction as f64 * planned as f64).ceil() as usize;
        let kept = by_fraction.max(self.min_sample.max(1)).min(planned);
        (kept < planned).then_some(kept)
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            increment: IncrementConfig::default(),
            local_epochs: 2,
            batch_size: 32,
            quantity_sigma: 0.6,
            eval_batch: 256,
            dropout_prob: 0.0,
            seed: 0,
            threads: 0,
            net: NetConfig::default(),
            wire: WireConfig::default(),
        }
    }
}

impl RunConfig {
    /// Checks every invariant the round loop relies on, returning the first
    /// violation as a typed error.
    ///
    /// ```
    /// use refil_fed::{ConfigError, RunConfig};
    ///
    /// let cfg = RunConfig {
    ///     batch_size: 16,
    ///     dropout_prob: 0.1,
    ///     ..RunConfig::default()
    /// };
    /// assert_eq!(cfg.validate(), Ok(()));
    ///
    /// let zero = RunConfig {
    ///     batch_size: 0,
    ///     ..cfg
    /// };
    /// assert_eq!(zero.validate(), Err(ConfigError::ZeroBatchSize));
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.batch_size == 0 {
            return Err(ConfigError::ZeroBatchSize);
        }
        if !(0.0..=1.0).contains(&self.dropout_prob) || self.dropout_prob.is_nan() {
            return Err(ConfigError::DropoutOutOfRange(self.dropout_prob));
        }
        if self.increment.rounds_per_task == 0 {
            return Err(ConfigError::ZeroRoundsPerTask);
        }
        if self.increment.select_per_round == 0 {
            return Err(ConfigError::ZeroSelectPerRound);
        }
        if !(0.0..=1.0).contains(&self.increment.transition_fraction)
            || self.increment.transition_fraction.is_nan()
        {
            return Err(ConfigError::TransitionFractionOutOfRange(
                self.increment.transition_fraction,
            ));
        }
        if self.net.round_deadline_ms == 0 {
            return Err(ConfigError::ZeroRoundDeadline);
        }
        if self.net.min_peers == 0 {
            return Err(ConfigError::ZeroMinPeers);
        }
        if self.net.client_idle_ms == 0 {
            return Err(ConfigError::ZeroClientIdle);
        }
        if !(0.0..=1.0).contains(&self.net.sample_fraction) || self.net.sample_fraction.is_nan() {
            return Err(ConfigError::SampleFractionOutOfRange(
                self.net.sample_fraction,
            ));
        }
        if !self.wire.spec().is_valid() {
            return Err(ConfigError::TopkFractionOutOfRange(self.wire.topk_fraction));
        }
        Ok(())
    }
}

/// A [`RunConfig`] invariant violation, reported by [`RunConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `batch_size == 0` would make `minibatches` loop forever / divide by
    /// zero.
    ZeroBatchSize,
    /// `dropout_prob` must be a probability in `[0, 1]`.
    DropoutOutOfRange(f32),
    /// `increment.rounds_per_task == 0` yields tasks in which no training
    /// (and no group transition) ever happens.
    ZeroRoundsPerTask,
    /// `increment.select_per_round == 0` selects nobody, ever.
    ZeroSelectPerRound,
    /// `increment.transition_fraction` must be a fraction in `[0, 1]`.
    TransitionFractionOutOfRange(f32),
    /// `net.round_deadline_ms == 0` would expire every round before any
    /// client could report.
    ZeroRoundDeadline,
    /// `net.min_peers == 0` would let the server start with nobody to
    /// assign sessions to.
    ZeroMinPeers,
    /// `net.client_idle_ms == 0` would make clients give up immediately.
    ZeroClientIdle,
    /// `net.sample_fraction` must be `0.0` (sampling disabled) or a
    /// fraction in `(0, 1]`.
    SampleFractionOutOfRange(f32),
    /// `wire.topk_fraction` must be a fraction in `(0, 1]` — `0.0` would
    /// keep nothing and NaN would make top-k selection unstable.
    TopkFractionOutOfRange(f32),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroBatchSize => write!(f, "batch_size must be at least 1"),
            Self::DropoutOutOfRange(p) => {
                write!(f, "dropout_prob must be in [0, 1], got {p}")
            }
            Self::ZeroRoundsPerTask => write!(f, "increment.rounds_per_task must be at least 1"),
            Self::ZeroSelectPerRound => {
                write!(f, "increment.select_per_round must be at least 1")
            }
            Self::TransitionFractionOutOfRange(t) => {
                write!(
                    f,
                    "increment.transition_fraction must be in [0, 1], got {t}"
                )
            }
            Self::ZeroRoundDeadline => write!(f, "net.round_deadline_ms must be at least 1"),
            Self::ZeroMinPeers => write!(f, "net.min_peers must be at least 1"),
            Self::ZeroClientIdle => write!(f, "net.client_idle_ms must be at least 1"),
            Self::SampleFractionOutOfRange(s) => {
                write!(
                    f,
                    "net.sample_fraction must be 0 (disabled) or in (0, 1], got {s}"
                )
            }
            Self::TopkFractionOutOfRange(t) => {
                write!(f, "wire.topk_fraction must be in (0, 1], got {t}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// `RunConfig::default()` with `net` replaced.
    fn with_net(net: NetConfig) -> RunConfig {
        RunConfig {
            net,
            ..RunConfig::default()
        }
    }

    /// `RunConfig::default()` with `wire` replaced.
    fn with_wire(wire: WireConfig) -> RunConfig {
        RunConfig {
            wire,
            ..RunConfig::default()
        }
    }

    #[test]
    fn default_config_is_valid() {
        assert_eq!(RunConfig::default().validate(), Ok(()));
        // Unset threads stay 0: the runner then falls back to REFIL_THREADS.
        assert_eq!(RunConfig::default().threads, 0);
    }

    #[test]
    fn builder_sets_every_field() {
        let inc = IncrementConfig {
            initial_clients: 6,
            select_per_round: 2,
            increment_per_task: 1,
            transition_fraction: 0.5,
            rounds_per_task: 4,
        };
        let cfg = RunConfig {
            increment: inc,
            local_epochs: 3,
            batch_size: 8,
            quantity_sigma: 0.4,
            eval_batch: 32,
            dropout_prob: 0.25,
            seed: 99,
            threads: 3,
            ..RunConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn old_configs_without_threads_field_deserialize_to_env_default() {
        let json = serde_json::to_string(&RunConfig::default()).expect("serialize");
        let stripped = {
            let v = serde_json::parse_value(&json).unwrap();
            let serde_json::Value::Map(entries) = v else {
                panic!("config did not serialize to a map");
            };
            let without: Vec<_> = entries
                .into_iter()
                .filter(|(k, _)| k != "threads")
                .collect();
            serde_json::to_string(&serde_json::Value::Map(without)).unwrap()
        };
        let cfg: RunConfig = serde_json::from_str(&stripped).expect("deserialize sans threads");
        assert_eq!(cfg.threads, 0);
    }

    #[test]
    fn builder_rejects_zero_batch_size() {
        let cfg = RunConfig {
            batch_size: 0,
            ..RunConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroBatchSize));
    }

    #[test]
    fn builder_rejects_out_of_range_dropout() {
        let with_dropout = |dropout_prob| RunConfig {
            dropout_prob,
            ..RunConfig::default()
        };
        assert_eq!(
            with_dropout(1.5).validate(),
            Err(ConfigError::DropoutOutOfRange(1.5))
        );
        assert_eq!(
            with_dropout(-0.1).validate(),
            Err(ConfigError::DropoutOutOfRange(-0.1))
        );
        assert!(with_dropout(f32::NAN).validate().is_err());
    }

    #[test]
    fn builder_rejects_degenerate_increment() {
        let with_increment = |increment| RunConfig {
            increment,
            ..RunConfig::default()
        };
        let inc = IncrementConfig {
            rounds_per_task: 0,
            ..IncrementConfig::default()
        };
        assert_eq!(
            with_increment(inc).validate(),
            Err(ConfigError::ZeroRoundsPerTask)
        );
        let inc = IncrementConfig {
            select_per_round: 0,
            ..IncrementConfig::default()
        };
        assert_eq!(
            with_increment(inc).validate(),
            Err(ConfigError::ZeroSelectPerRound)
        );
        let inc = IncrementConfig {
            transition_fraction: 1.2,
            ..IncrementConfig::default()
        };
        assert_eq!(
            with_increment(inc).validate(),
            Err(ConfigError::TransitionFractionOutOfRange(1.2))
        );
    }

    #[test]
    fn errors_display_the_offending_value() {
        let msg = ConfigError::DropoutOutOfRange(2.0).to_string();
        assert!(msg.contains("dropout_prob") && msg.contains('2'), "{msg}");
    }

    #[test]
    fn builder_sets_and_validates_net_options() {
        let net = NetConfig {
            round_deadline_ms: 500,
            min_peers: 3,
            join_grace_ms: 250,
            client_idle_ms: 9000,
            ..NetConfig::default()
        };
        assert_eq!(with_net(net).validate(), Ok(()));
        let cases = [
            (
                NetConfig {
                    round_deadline_ms: 0,
                    ..net
                },
                ConfigError::ZeroRoundDeadline,
            ),
            (
                NetConfig {
                    min_peers: 0,
                    ..net
                },
                ConfigError::ZeroMinPeers,
            ),
            (
                NetConfig {
                    client_idle_ms: 0,
                    ..net
                },
                ConfigError::ZeroClientIdle,
            ),
        ];
        for (net, err) in cases {
            assert_eq!(with_net(net).validate(), Err(err));
        }
    }

    #[test]
    fn builder_sets_and_validates_sampling_options() {
        let sampled = |sample_fraction| {
            with_net(NetConfig {
                sample_fraction,
                min_sample: 2,
                send_queue_max_bytes: 1 << 20,
                ..NetConfig::default()
            })
        };
        assert_eq!(sampled(0.5).validate(), Ok(()));
        assert_eq!(
            sampled(1.5).validate(),
            Err(ConfigError::SampleFractionOutOfRange(1.5))
        );
        assert_eq!(
            sampled(-0.1).validate(),
            Err(ConfigError::SampleFractionOutOfRange(-0.1))
        );
        assert!(sampled(f32::NAN).validate().is_err());
        // 0.0 means "sampling disabled" and stays valid.
        assert_eq!(sampled(0.0).validate(), Ok(()));
    }

    #[test]
    fn sample_size_covers_the_edge_cases() {
        let disabled = NetConfig::default();
        assert_eq!(disabled.sample_size(10), None);

        let half = NetConfig {
            sample_fraction: 0.5,
            ..NetConfig::default()
        };
        assert_eq!(half.sample_size(10), Some(5));
        assert_eq!(half.sample_size(0), None);
        // ceil() keeps at least one session even for tiny fractions.
        let tiny = NetConfig {
            sample_fraction: 0.01,
            ..NetConfig::default()
        };
        assert_eq!(tiny.sample_size(10), Some(1));
        // A full fraction keeps everything, which means "no sampling".
        let full = NetConfig {
            sample_fraction: 1.0,
            ..NetConfig::default()
        };
        assert_eq!(full.sample_size(10), None);
        // min_sample floors the kept count, capped at the planned count.
        let floored = NetConfig {
            sample_fraction: 0.1,
            min_sample: 4,
            ..NetConfig::default()
        };
        assert_eq!(floored.sample_size(10), Some(4));
        assert_eq!(floored.sample_size(3), None);
    }

    #[test]
    fn net_configs_without_sampling_fields_deserialize_to_disabled() {
        let json = serde_json::to_string(&RunConfig::default()).expect("serialize");
        let stripped = {
            let v = serde_json::parse_value(&json).unwrap();
            let serde_json::Value::Map(entries) = v else {
                panic!("config did not serialize to a map");
            };
            let rewritten: Vec<_> = entries
                .into_iter()
                .map(|(k, v)| {
                    if k != "net" {
                        return (k, v);
                    }
                    let serde_json::Value::Map(net) = v else {
                        panic!("net did not serialize to a map");
                    };
                    let kept: Vec<_> = net
                        .into_iter()
                        .filter(|(nk, _)| {
                            nk != "sample_fraction"
                                && nk != "min_sample"
                                && nk != "send_queue_max_bytes"
                        })
                        .collect();
                    (k, serde_json::Value::Map(kept))
                })
                .collect();
            serde_json::to_string(&serde_json::Value::Map(rewritten)).unwrap()
        };
        let cfg: RunConfig =
            serde_json::from_str(&stripped).expect("deserialize sans sampling fields");
        assert!(cfg.net.sample_fraction == 0.0);
        assert_eq!(cfg.net.min_sample, 0);
        assert_eq!(cfg.net.send_queue_max_bytes, 0);
        assert_eq!(cfg.net.sample_size(100), None);
    }

    #[test]
    fn builder_sets_and_validates_wire_options() {
        let topk = |topk_fraction| {
            with_wire(WireConfig {
                delta: true,
                quant: WireQuant::Int8,
                topk_fraction,
            })
        };
        let cfg = topk(0.25);
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.wire.spec().to_string(), "delta+int8+topk0.25");
        assert!(cfg.wire.spec().is_active());
        assert!(!WireConfig::default().spec().is_active());
        assert_eq!(
            topk(0.0).validate(),
            Err(ConfigError::TopkFractionOutOfRange(0.0))
        );
        assert_eq!(
            topk(1.5).validate(),
            Err(ConfigError::TopkFractionOutOfRange(1.5))
        );
        assert!(topk(f32::NAN).validate().is_err());
        let msg = ConfigError::TopkFractionOutOfRange(1.5).to_string();
        assert!(
            msg.contains("topk_fraction") && msg.contains("1.5"),
            "{msg}"
        );
    }

    #[test]
    fn configs_without_wire_field_deserialize_to_identity() {
        let json = serde_json::to_string(&RunConfig::default()).expect("serialize");
        let stripped = {
            let v = serde_json::parse_value(&json).unwrap();
            let serde_json::Value::Map(entries) = v else {
                panic!("config did not serialize to a map");
            };
            let without: Vec<_> = entries.into_iter().filter(|(k, _)| k != "wire").collect();
            serde_json::to_string(&serde_json::Value::Map(without)).unwrap()
        };
        let cfg: RunConfig = serde_json::from_str(&stripped).expect("deserialize sans wire");
        assert_eq!(cfg.wire, WireConfig::default());
        assert!(!cfg.wire.spec().is_active());
        // And a config with the field round-trips it.
        let active = with_wire(WireConfig {
            delta: true,
            quant: WireQuant::F16,
            ..WireConfig::default()
        });
        assert_eq!(active.validate(), Ok(()));
        let json = serde_json::to_string(&active).expect("serialize");
        let back: RunConfig = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back.wire, active.wire);
    }

    #[test]
    fn old_serialized_configs_still_deserialize() {
        // A config serialized before the net options existed must load
        // with defaults (the field is #[serde(default)]).
        let json = serde_json::to_string(&RunConfig::default()).expect("serialize");
        let stripped = {
            let v = serde_json::parse_value(&json).unwrap();
            let serde_json::Value::Map(entries) = v else {
                panic!("config did not serialize to a map");
            };
            let without: Vec<_> = entries.into_iter().filter(|(k, _)| k != "net").collect();
            serde_json::to_string(&serde_json::Value::Map(without)).unwrap()
        };
        let cfg: RunConfig = serde_json::from_str(&stripped).expect("deserialize without net");
        assert_eq!(cfg.net, NetConfig::default());
    }
}
