//! # refil-fed
//!
//! Federated-learning substrate for the RefFiL reproduction: FedAvg
//! aggregation, the paper's client-increment protocol (`U_o`/`U_b`/`U_n`
//! groups with 80 % gradual transition and growing client counts), the
//! quantity-shift data assignment, communication accounting, and a generic
//! FDIL round driver that any [`FdilStrategy`] plugs into.
//!
//! # Examples
//!
//! ```
//! use refil_fed::{build_schedule, IncrementConfig};
//!
//! let cfg = IncrementConfig::default(); // 20 clients, +2 per task, 80 % transition
//! let schedule = build_schedule(&cfg, 5, 42);
//! assert_eq!(schedule[4].clients.len(), 28);
//! ```

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod aggregate;
mod config;
mod increment;
mod net;
mod pool;
mod runner;
mod traffic;

pub use aggregate::{fedavg, WeightedUpdate};
pub use config::{ConfigError, NetConfig, RunConfig, WireConfig, WireQuant};
pub use increment::{build_schedule, ClientGroup, ClientPlan, IncrementConfig, TaskSchedule};
pub use net::{
    client_handshake, process_thread_count, run_client_resumable, run_clients_pumped, ClientError,
    ClientOptions, ClientReport,
};
pub use runner::{
    evaluate_domain, ClientUpdate, DomainEvaluator, EvalContext, FdilRunner, FdilStrategy,
    RoundContext, RunResult, SessionOutput, TrainSetting,
};
pub use traffic::{TaskTraffic, TrafficStats};

// Re-exported so strategy implementors can name the telemetry and wire types
// that appear in the `FdilStrategy` trait without a separate dependency.
pub use refil_telemetry::{ArenaStats, PhaseNanos, RoundReport, Telemetry, TelemetrySummary};
pub use refil_wire::{
    connect, CompressedModelUpdate, CompressionSpec, ConnectError, Endpoint, GlobalPromptBroadcast,
    Link, Listener, Loopback, NetListener, PeerId, PromptGroup, PromptUpload, RecvError,
    RehearsalMemory, WireError, WireMessage, WireSample,
};
