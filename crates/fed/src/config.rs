//! Run-level configuration: [`RunConfig`], its validating builder, and the
//! typed errors the builder rejects with.
//!
//! Historically an invalid configuration (a zero batch size, a dropout
//! probability of 1.7) surfaced as a panic deep inside the round loop —
//! `minibatches` dividing by zero or a schedule with no rounds. The builder
//! front-loads those checks into [`RunConfigBuilder::build`], which returns a
//! [`ConfigError`] naming the offending field instead.

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
    /// Evaluation minibatch size.
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
    /// taken as an explicit request. [`RunConfigBuilder::threads`] resolves
    /// an explicit "auto" (`threads(0)`) to the machine's available
    /// parallelism at build time. Thread count never changes results, only
    /// wall time, so this field is inert for determinism.
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

    /// Whether this config changes any payload ([`CompressionSpec::is_active`]).
    pub fn is_active(&self) -> bool {
        self.spec().is_active()
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
    /// How long the server waits for `min_peers` at startup (and for a
    /// first peer when a round opens with none connected).
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
    pub fn sample_size(&self, planned: usize) -> Option<usize> {
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
    /// A validating builder starting from [`RunConfig::default`].
    pub fn builder() -> RunConfigBuilder {
        RunConfigBuilder::new()
    }

    /// Checks every invariant the round loop relies on, returning the first
    /// violation as a typed error.
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

/// A [`RunConfig`] invariant violation, caught at build time.
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

/// Validating builder for [`RunConfig`].
///
/// ```
/// use refil_fed::RunConfig;
///
/// let cfg = RunConfig::builder()
///     .batch_size(16)
///     .local_epochs(1)
///     .dropout_prob(0.1)
///     .seed(7)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(cfg.batch_size, 16);
///
/// assert!(RunConfig::builder().batch_size(0).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunConfigBuilder {
    cfg: RunConfig,
}

impl RunConfigBuilder {
    /// Starts from [`RunConfig::default`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the client-increment protocol parameters.
    pub fn increment(mut self, increment: IncrementConfig) -> Self {
        self.cfg.increment = increment;
        self
    }

    /// Sets the local epochs per selected client per round.
    pub fn local_epochs(mut self, local_epochs: usize) -> Self {
        self.cfg.local_epochs = local_epochs;
        self
    }

    /// Sets the local minibatch size.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.cfg.batch_size = batch_size;
        self
    }

    /// Sets the log-normal sigma of the quantity-shift partition.
    pub fn quantity_sigma(mut self, quantity_sigma: f32) -> Self {
        self.cfg.quantity_sigma = quantity_sigma;
        self
    }

    /// Sets the evaluation minibatch size.
    pub fn eval_batch(mut self, eval_batch: usize) -> Self {
        self.cfg.eval_batch = eval_batch;
        self
    }

    /// Sets the per-round client dropout probability.
    pub fn dropout_prob(mut self, dropout_prob: f32) -> Self {
        self.cfg.dropout_prob = dropout_prob;
        self
    }

    /// Sets the master seed for the run.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the worker-thread count. `0` means "auto": it resolves to the
    /// machine's available parallelism right here, so the built config
    /// carries a concrete count (the runner additionally clamps to
    /// available cores at dispatch time — oversubscription never helps).
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            threads
        };
        self
    }

    /// Sets all networked-server options at once.
    pub fn net(mut self, net: NetConfig) -> Self {
        self.cfg.net = net;
        self
    }

    /// Sets the per-round collection deadline (milliseconds).
    pub fn round_deadline_ms(mut self, ms: u64) -> Self {
        self.cfg.net.round_deadline_ms = ms;
        self
    }

    /// Sets how many peers the server waits for before starting.
    pub fn min_peers(mut self, peers: usize) -> Self {
        self.cfg.net.min_peers = peers;
        self
    }

    /// Sets the startup / empty-round join grace period (milliseconds).
    pub fn join_grace_ms(mut self, ms: u64) -> Self {
        self.cfg.net.join_grace_ms = ms;
        self
    }

    /// Sets the client-side idle patience (milliseconds).
    pub fn client_idle_ms(mut self, ms: u64) -> Self {
        self.cfg.net.client_idle_ms = ms;
        self
    }

    /// Sets the sampled-participation fraction (`0.0` disables sampling).
    pub fn sample_fraction(mut self, fraction: f32) -> Self {
        self.cfg.net.sample_fraction = fraction;
        self
    }

    /// Sets the floor on sessions kept per round while sampling.
    pub fn min_sample(mut self, min_sample: usize) -> Self {
        self.cfg.net.min_sample = min_sample;
        self
    }

    /// Sets the per-peer outbound-queue cap in bytes (`0` = unbounded).
    pub fn send_queue_max_bytes(mut self, bytes: usize) -> Self {
        self.cfg.net.send_queue_max_bytes = bytes;
        self
    }

    /// Sets all uplink-compression options at once.
    pub fn wire(mut self, wire: WireConfig) -> Self {
        self.cfg.wire = wire;
        self
    }

    /// Enables or disables delta encoding against the round broadcast.
    pub fn wire_delta(mut self, delta: bool) -> Self {
        self.cfg.wire.delta = delta;
        self
    }

    /// Sets the uplink scalar quantization codec.
    pub fn wire_quant(mut self, quant: WireQuant) -> Self {
        self.cfg.wire.quant = quant;
        self
    }

    /// Sets the top-k kept fraction (`1.0` keeps every coordinate).
    pub fn wire_topk_fraction(mut self, fraction: f32) -> Self {
        self.cfg.wire.topk_fraction = fraction;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<RunConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(RunConfig::default().validate(), Ok(()));
        assert!(RunConfig::builder().build().is_ok());
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
        let cfg = RunConfig::builder()
            .increment(inc)
            .local_epochs(3)
            .batch_size(8)
            .quantity_sigma(0.4)
            .eval_batch(32)
            .dropout_prob(0.25)
            .seed(99)
            .build()
            .expect("valid");
        assert_eq!(cfg.increment.initial_clients, 6);
        assert_eq!(cfg.local_epochs, 3);
        assert_eq!(cfg.batch_size, 8);
        assert!((cfg.quantity_sigma - 0.4).abs() < f32::EPSILON);
        assert_eq!(cfg.eval_batch, 32);
        assert!((cfg.dropout_prob - 0.25).abs() < f32::EPSILON);
        assert_eq!(cfg.seed, 99);
    }

    #[test]
    fn builder_resolves_auto_threads_to_available_parallelism() {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let auto = RunConfig::builder().threads(0).build().expect("valid");
        assert_eq!(auto.threads, cores, "threads(0) must mean all cores");
        let explicit = RunConfig::builder().threads(3).build().expect("valid");
        assert_eq!(explicit.threads, 3);
        // Unset stays 0: the runner then falls back to REFIL_THREADS.
        assert_eq!(RunConfig::default().threads, 0);
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
        assert_eq!(
            RunConfig::builder().batch_size(0).build(),
            Err(ConfigError::ZeroBatchSize)
        );
    }

    #[test]
    fn builder_rejects_out_of_range_dropout() {
        assert_eq!(
            RunConfig::builder().dropout_prob(1.5).build(),
            Err(ConfigError::DropoutOutOfRange(1.5))
        );
        assert_eq!(
            RunConfig::builder().dropout_prob(-0.1).build(),
            Err(ConfigError::DropoutOutOfRange(-0.1))
        );
        assert!(RunConfig::builder().dropout_prob(f32::NAN).build().is_err());
    }

    #[test]
    fn builder_rejects_degenerate_increment() {
        let inc = IncrementConfig {
            rounds_per_task: 0,
            ..IncrementConfig::default()
        };
        assert_eq!(
            RunConfig::builder().increment(inc).build(),
            Err(ConfigError::ZeroRoundsPerTask)
        );
        let inc = IncrementConfig {
            select_per_round: 0,
            ..IncrementConfig::default()
        };
        assert_eq!(
            RunConfig::builder().increment(inc).build(),
            Err(ConfigError::ZeroSelectPerRound)
        );
        let inc = IncrementConfig {
            transition_fraction: 1.2,
            ..IncrementConfig::default()
        };
        assert_eq!(
            RunConfig::builder().increment(inc).build(),
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
        let cfg = RunConfig::builder()
            .round_deadline_ms(500)
            .min_peers(3)
            .join_grace_ms(250)
            .client_idle_ms(9000)
            .build()
            .expect("valid net options");
        assert_eq!(cfg.net.round_deadline_ms, 500);
        assert_eq!(cfg.net.min_peers, 3);
        assert_eq!(cfg.net.join_grace_ms, 250);
        assert_eq!(cfg.net.client_idle_ms, 9000);
        assert_eq!(
            RunConfig::builder().round_deadline_ms(0).build(),
            Err(ConfigError::ZeroRoundDeadline)
        );
        assert_eq!(
            RunConfig::builder().min_peers(0).build(),
            Err(ConfigError::ZeroMinPeers)
        );
        assert_eq!(
            RunConfig::builder().client_idle_ms(0).build(),
            Err(ConfigError::ZeroClientIdle)
        );
    }

    #[test]
    fn builder_sets_and_validates_sampling_options() {
        let cfg = RunConfig::builder()
            .sample_fraction(0.5)
            .min_sample(2)
            .send_queue_max_bytes(1 << 20)
            .build()
            .expect("valid sampling options");
        assert!((cfg.net.sample_fraction - 0.5).abs() < f32::EPSILON);
        assert_eq!(cfg.net.min_sample, 2);
        assert_eq!(cfg.net.send_queue_max_bytes, 1 << 20);
        assert_eq!(
            RunConfig::builder().sample_fraction(1.5).build(),
            Err(ConfigError::SampleFractionOutOfRange(1.5))
        );
        assert_eq!(
            RunConfig::builder().sample_fraction(-0.1).build(),
            Err(ConfigError::SampleFractionOutOfRange(-0.1))
        );
        assert!(RunConfig::builder()
            .sample_fraction(f32::NAN)
            .build()
            .is_err());
        // 0.0 means "sampling disabled" and stays valid.
        assert!(RunConfig::builder().sample_fraction(0.0).build().is_ok());
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
        let cfg = RunConfig::builder()
            .wire_delta(true)
            .wire_quant(WireQuant::Int8)
            .wire_topk_fraction(0.25)
            .build()
            .expect("valid wire options");
        assert!(cfg.wire.delta);
        assert_eq!(cfg.wire.quant, WireQuant::Int8);
        assert!((cfg.wire.topk_fraction - 0.25).abs() < f32::EPSILON);
        assert_eq!(cfg.wire.spec().to_string(), "delta+int8+topk0.25");
        assert!(cfg.wire.is_active());
        assert!(!WireConfig::default().is_active());
        assert_eq!(
            RunConfig::builder().wire_topk_fraction(0.0).build(),
            Err(ConfigError::TopkFractionOutOfRange(0.0))
        );
        assert_eq!(
            RunConfig::builder().wire_topk_fraction(1.5).build(),
            Err(ConfigError::TopkFractionOutOfRange(1.5))
        );
        assert!(RunConfig::builder()
            .wire_topk_fraction(f32::NAN)
            .build()
            .is_err());
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
        assert!(!cfg.wire.is_active());
        // And a config with the field round-trips it.
        let active = RunConfig::builder()
            .wire_delta(true)
            .wire_quant(WireQuant::F16)
            .build()
            .expect("valid");
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
