//! The FDIL round driver: executes Algorithm 1's outer loop for any strategy.
//!
//! The driver owns everything protocol-side — task sequencing, client
//! increments and group membership, quantity-shift data partitioning, client
//! selection, FedAvg, traffic accounting, and per-task evaluation — while the
//! [`FdilStrategy`] implementations (Finetune, FedLwF, FedEWC, FedL2P,
//! FedDualPrompt, RefFiL) own the model and the local/server learning rules.
//!
//! # Concurrency model
//!
//! Client sessions within a round are independent by construction: each round
//! the strategy exposes a shared read-only [`RoundContext`] and every selected
//! client trains as a pure function of that context plus its own
//! [`TrainSetting`]. The driver pre-draws all per-round randomness (selection,
//! dropout, session seeds) *before* dispatching any session, runs sessions on
//! a scoped thread pool, and consumes the outputs in ascending client-id
//! order — so the result is byte-for-byte identical at any thread count.
//! Cross-client state (prompt ingest, rehearsal memory) mutates only through
//! [`FdilStrategy::merge_client`], applied in client-id order after FedAvg.
//!
//! # Wire layer
//!
//! Every client↔server exchange travels as a typed [`WireMessage`] encoded
//! through the `refil-wire` codec and moved over a peer-addressed
//! [`Link`]: the global model goes down as a `ModelBroadcast` frame (plus
//! any [`FdilStrategy::round_broadcast`] message, e.g. RefFiL's
//! `GlobalPromptBroadcast`), and each client's trained parameters come back
//! as a `ClientModelUpdate` frame alongside an optional strategy merge
//! message (`PromptUpload`, `RehearsalMemory`, ...). [`TrafficStats`] counts
//! the actual framed byte lengths. The driver performs all link and codec
//! work in client-id order on its own thread, so the wire layer does not
//! perturb the concurrency model above; because the codec is bit-exact for
//! `f32`, sessions train on exactly the values the server holds.
//!
//! [`FdilRunner::serve`] runs the same loop over real sockets: planned
//! sessions are assigned to connected peer processes, trained remotely, and
//! collected under a per-round deadline — see the `net` module. Because
//! remote results ride inside control frames as the *same* nested payload
//! frames, the per-client traffic accounting stays byte-identical to the
//! loopback run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use refil_data::{partition_quantity_shift, FdilDataset, QuantityShift, Sample};
use refil_nn::Tensor;
use refil_telemetry::{
    ArenaStats, Lane, PoolStats, RoundReport, SessionStat, Telemetry, TelemetrySummary,
};

use crate::pool::WorkerPool;
use refil_wire::{
    ClientModelUpdate as WireClientModelUpdate, CompressedModelUpdate, CompressionSpec, Link,
    Listener, Loopback, ModelBroadcast, SessionAssignment, WireMessage,
};

use crate::aggregate::{fedavg, WeightedUpdate};
use crate::config::RunConfig;
use crate::increment::{build_schedule, select_clients, ClientGroup, TaskSchedule};
use crate::net::{group_code, RemoteSession, RemoteUpdate, ServeState};
use crate::traffic::TrafficStats;

/// Everything a strategy needs to run one local training session.
#[derive(Debug)]
pub struct TrainSetting<'a> {
    /// Global client id.
    pub client_id: usize,
    /// Current task (0-based).
    pub task: usize,
    /// Current round within the task.
    pub round: usize,
    /// The client's group this round.
    pub group: ClientGroup,
    /// Effective local training data (old, new, or concatenated per group).
    pub samples: &'a [Sample],
    /// Local epochs to run.
    pub local_epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Deterministic seed for this (task, round, client) session.
    pub seed: u64,
}

/// A client's answer to one round: updated parameters plus FedAvg weight.
/// Byte accounting is no longer the session's job — the driver measures the
/// encoded `ClientModelUpdate` / merge frames it actually moves.
#[derive(Debug, Clone)]
pub struct ClientUpdate {
    /// Updated flat parameters.
    pub flat: Vec<f32>,
    /// FedAvg weight (normally the local sample count).
    pub weight: f32,
}

/// What one client session hands back to the driver.
#[derive(Debug)]
pub struct SessionOutput {
    /// The FedAvg contribution.
    pub update: ClientUpdate,
    /// Optional cross-client state as a typed wire message (e.g. a
    /// `PromptUpload` for RefFiL's server-side ingest, or `RehearsalMemory`
    /// for the rehearsal oracle), delivered to
    /// [`FdilStrategy::merge_client`] in client-id order after FedAvg. The
    /// driver encodes, transports, and decodes it like every other exchange.
    pub merge: Option<WireMessage>,
}

impl From<ClientUpdate> for SessionOutput {
    fn from(update: ClientUpdate) -> Self {
        Self {
            update,
            merge: None,
        }
    }
}

/// Shared read-only view of a strategy for one round.
///
/// Created once per round by [`FdilStrategy::round_ctx`] and shared by
/// reference across worker threads (hence the `Sync` bound); every client
/// session must be a pure function of the context and its [`TrainSetting`] —
/// no interior mutation — so sessions can run in any order on any number of
/// threads and still produce identical results.
pub trait RoundContext: Sync {
    /// Runs one client's local training session.
    ///
    /// `telemetry` is a per-worker scoped handle already parented under the
    /// surrounding `round:<r>` span; spans opened here land in the right
    /// place in the trace even when sessions run concurrently.
    fn train_client(&self, setting: &TrainSetting<'_>, telemetry: &Telemetry) -> SessionOutput;
}

/// Shared read-only view of a strategy for evaluation.
///
/// Created once per evaluation sweep by [`FdilStrategy::eval_ctx`] under a
/// fixed global parameter vector and shared by reference across worker
/// threads (hence the `Sync` bound). Each worker obtains its own mutable
/// [`DomainEvaluator`] through [`EvalContext::evaluator`], so per-worker
/// prediction state (a reusable tape-free inference session, scratch
/// buffers) never crosses threads.
pub trait EvalContext: Sync {
    /// A fresh per-worker evaluator borrowing this context's weights.
    fn evaluator(&self) -> Box<dyn DomainEvaluator + '_>;
}

/// One worker's mutable prediction handle during evaluation.
///
/// Implementations typically own a [`refil_nn::InferenceSession`] whose
/// forward plan (node and scratch buffers) is recycled across batches.
/// Predictions must be a pure function of the context's weights and the
/// inputs — no interior mutation that leaks across calls — so batches can be
/// evaluated in any order on any number of workers with identical results.
pub trait DomainEvaluator {
    /// Predicts class labels for a `[batch, dim]` feature tensor drawn from
    /// the given domain.
    fn predict_domain(&mut self, features: &Tensor, domain: usize) -> Vec<usize>;
}

/// A federated domain-incremental learning strategy.
///
/// Implementations own the model architecture and any persistent client or
/// server state; the driver only sees flat parameter vectors. During a round
/// the strategy is borrowed immutably through [`FdilStrategy::round_ctx`];
/// all mutation happens in the explicitly ordered hooks
/// ([`FdilStrategy::merge_client`], [`FdilStrategy::on_round_end`],
/// [`FdilStrategy::on_task_end`]).
pub trait FdilStrategy {
    /// Human-readable method name (e.g. `"RefFiL"`, `"FedEWC"`).
    fn name(&self) -> String;

    /// Hands the strategy a telemetry handle before the run starts, so its
    /// hot paths can open spans and record observations. Handles are cheap
    /// clones sharing one collector; the default implementation ignores it.
    fn attach_telemetry(&mut self, _telemetry: &Telemetry) {}

    /// Produces the initial global parameter vector.
    fn init_global(&mut self) -> Vec<f32>;

    /// Called once when task `task` begins, before any round.
    fn on_task_start(&mut self, _task: usize, _global: &[f32]) {}

    /// The strategy's extra server→client message for this round, if any
    /// (e.g. RefFiL's `GlobalPromptBroadcast`). The driver encodes it,
    /// transports it alongside the `ModelBroadcast`, and hands the decoded
    /// message back into [`FdilStrategy::round_ctx`].
    fn round_broadcast(&self, _task: usize, _round: usize) -> Option<WireMessage> {
        None
    }

    /// The subset of flat-parameter coordinates this strategy exchanges in
    /// client updates during `task`, as strictly ascending indices into the
    /// flat layout — or `None` (the default) to exchange every coordinate.
    ///
    /// A masked exchange sends only those coordinates over the wire
    /// (a `CompressedModelUpdate` sparse frame); the server keeps its
    /// broadcast values for the rest. The mask may vary by task: RefFiL's
    /// prompt-only mode exchanges the full model during task 0 (while the
    /// shared backbone is still being learned collaboratively) and only the
    /// prompt/head coordinates from task 1 on, once the backbone has entered
    /// its stabilized regime.
    fn exchange_mask(&self, task: u64) -> Option<Vec<u32>> {
        let _ = task;
        None
    }

    /// Returns the shared read-only context for round `round` of task `task`
    /// under the given global parameters and the decoded
    /// [`FdilStrategy::round_broadcast`] message (if one was sent). Sessions
    /// for every selected client run against this one context, possibly
    /// concurrently.
    fn round_ctx<'a>(
        &'a self,
        task: usize,
        round: usize,
        global: &'a [f32],
        broadcast: Option<&'a WireMessage>,
    ) -> Box<dyn RoundContext + 'a>;

    /// Applies one client's cross-client state (its decoded
    /// [`SessionOutput::merge`] message). The driver calls this after FedAvg,
    /// in ascending client-id order, before
    /// [`FdilStrategy::on_round_end`] — so ingestion is deterministic
    /// regardless of which worker thread finished first.
    fn merge_client(
        &mut self,
        _task: usize,
        _round: usize,
        _client_id: usize,
        _message: WireMessage,
    ) {
    }

    /// Convenience for tests and ad-hoc callers: runs one session through
    /// [`FdilStrategy::round_ctx`] (fed its own
    /// [`FdilStrategy::round_broadcast`]) and immediately applies its merge
    /// message, returning the update. Equivalent to what the driver does for
    /// a single client, minus the codec.
    fn train_once(&mut self, setting: &TrainSetting<'_>, global: &[f32]) -> ClientUpdate
    where
        Self: Sized,
    {
        let broadcast = self.round_broadcast(setting.task, setting.round);
        let out = self
            .round_ctx(setting.task, setting.round, global, broadcast.as_ref())
            .train_client(setting, &Telemetry::disabled());
        if let Some(message) = out.merge {
            self.merge_client(setting.task, setting.round, setting.client_id, message);
        }
        out.update
    }

    /// Called after FedAvg (and after all [`FdilStrategy::merge_client`]
    /// calls) each round with the new global parameters.
    fn on_round_end(&mut self, _task: usize, _round: usize, _global: &[f32]) {}

    /// Called when a task finishes, with each active client's current local
    /// data (used e.g. to estimate the EWC Fisher information).
    fn on_task_end(
        &mut self,
        _task: usize,
        _global: &[f32],
        _client_data: &[(usize, Vec<Sample>)],
    ) {
    }

    /// Predicts class labels for a `[batch, dim]` feature tensor under the
    /// given global parameters.
    fn predict(&mut self, global: &[f32], features: &Tensor) -> Vec<usize>;

    /// Returns the model's final `[CLS]` representation for each row of
    /// `features` — the embedding the paper's t-SNE figures visualize.
    /// Defaults to the raw input features (identity embedding).
    fn cls_embeddings(&mut self, _global: &[f32], features: &Tensor) -> Vec<Vec<f32>> {
        let d = features.shape()[1];
        features.data().chunks(d).map(<[f32]>::to_vec).collect()
    }

    /// Returns the shared read-only evaluation context for the given global
    /// parameters. The driver creates one context per evaluation sweep and
    /// fans `(domain, batch)` work items across its worker pool, each worker
    /// predicting through its own [`EvalContext::evaluator`] — so inference
    /// here must not depend on `&mut self` state. See [`evaluate_domain`] and
    /// [`FdilRunner::evaluate_task`].
    fn eval_ctx<'a>(&'a self, global: &'a [f32]) -> Box<dyn EvalContext + 'a>;

    /// Domain-aware prediction: like [`FdilStrategy::predict`], but told which
    /// task/domain the batch comes from. Routes through a one-shot
    /// [`FdilStrategy::eval_ctx`]; strategies whose prompts are conditioned on
    /// the local task ID (RefFiL — a dependence the paper's Limitations
    /// section makes explicit) consume the hint there.
    fn predict_domain(&mut self, global: &[f32], features: &Tensor, domain: usize) -> Vec<usize> {
        let ctx = self.eval_ctx(global);
        let mut evaluator = ctx.evaluator();
        evaluator.predict_domain(features, domain)
    }
}

/// Outcome of a full FDIL run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Method name.
    pub method: String,
    /// Dataset name.
    pub dataset: String,
    /// Domain names in task order.
    pub domain_names: Vec<String>,
    /// `acc[t][d]` = accuracy (%) on domain `d`'s test set after task `t`,
    /// for `d <= t`.
    pub domain_acc: Vec<Vec<f32>>,
    /// Communication accounting.
    pub traffic: TrafficStats,
    /// Group sizes `(M_o, M_b, M_n)` sampled at the start, middle, and end
    /// round of each task (for the Fig. 1 transition timeline).
    pub group_timeline: Vec<[(usize, usize, usize); 3]>,
    /// The final global parameter vector (for post-hoc analysis such as the
    /// t-SNE embeddings of Figures 5/6).
    pub final_global: Vec<f32>,
    /// Aggregated telemetry (span timings, counters, histograms); empty when
    /// the run used a disabled [`Telemetry`] handle.
    pub telemetry: TelemetrySummary,
    /// One [`RoundReport`] per executed round, in execution order: per-phase
    /// wall time, per-client session time, per-kind wire bytes, scratch-arena
    /// accounting, and (with telemetry enabled) per-worker pool stats. The
    /// round that closes a task additionally carries the eval phase and
    /// per-domain accuracies.
    pub rounds: Vec<RoundReport>,
}

impl RunResult {
    /// Step accuracy `A_t`: mean over all domains seen up to task `t`
    /// (the per-column values in the paper's Tables 3/4).
    pub fn step_accuracies(&self) -> Vec<f32> {
        self.domain_acc
            .iter()
            .map(|row| row.iter().sum::<f32>() / row.len() as f32)
            .collect()
    }

    /// `Avg` metric: mean of step accuracies across all learning steps
    /// (iCaRL's average incremental accuracy).
    pub fn avg_accuracy(&self) -> f32 {
        let steps = self.step_accuracies();
        steps.iter().sum::<f32>() / steps.len() as f32
    }

    /// `Last` metric: step accuracy after the final task.
    pub fn last_accuracy(&self) -> f32 {
        *self.step_accuracies().last().expect("at least one task")
    }

    /// Accuracy on each domain after the final task (for forgetting analysis).
    pub fn final_domain_accuracies(&self) -> &[f32] {
        self.domain_acc.last().expect("at least one task")
    }
}

/// Session outputs paired with their timing stats, indexed by session slot
/// (`None` until the slot's worker completes it).
type SessionSlots = Vec<Option<(SessionOutput, SessionStat)>>;

/// One round's session results, indexed by planned-session slot: trained
/// locally on the worker pool (with the echo uplink their frames travel
/// through), or collected from remote peers (`None` = the result missed the
/// round deadline).
enum RoundOutputs<'l> {
    Local {
        slots: SessionSlots,
        uplink: &'l dyn Link,
    },
    Remote(Vec<Option<RemoteSession>>),
}

/// How [`FdilRunner::run_inner`] moves a round's frames.
enum Exchange<'s, 'l> {
    /// The driver plays both ends: every frame goes out on an echo link and
    /// is decoded from what comes back (`down` server→client, `up`
    /// client→server).
    Echo {
        down: &'l dyn Link,
        up: &'l dyn Link,
    },
    /// Connected peer processes train the sessions; the reactor carries
    /// every frame.
    Serve(&'s mut ServeState<'l>),
}

/// The uplink compression a run negotiates, once, before its first task:
/// the configured spec when it is lossy (delta, quantization or top-k) or
/// when `strategy` exchanges only a subset of coordinates in some task;
/// `None` (plain dense updates all run long) otherwise. The server sends it
/// in every peer's `Welcome`.
pub(crate) fn negotiated_compression(
    spec: CompressionSpec,
    strategy: &dyn FdilStrategy,
    num_tasks: usize,
) -> Option<CompressionSpec> {
    let masks_any_task = (0..num_tasks).any(|t| strategy.exchange_mask(t as u64).is_some());
    (spec.is_active() || masks_any_task).then_some(spec)
}

/// The spec a task's client updates are compressed with, or `None` to send
/// plain dense updates: a negotiated spec applies only while it is lossy or
/// the task's exchange `mask` restricts the coordinates (prompt-only
/// RefFiL's mask is `None` for its warm-up task 0). The in-process driver
/// and remote clients both decide through this, which keeps loopback and
/// networked runs byte-identical.
pub(crate) fn task_compression(
    negotiated: Option<CompressionSpec>,
    mask: Option<&[u32]>,
) -> Option<CompressionSpec> {
    negotiated.filter(|s| s.is_active() || mask.is_some())
}

/// Converts the nn crate's thread-local scratch accounting into the
/// telemetry report type.
fn arena_stats(s: refil_nn::ScratchStats) -> ArenaStats {
    ArenaStats {
        reserved_bytes: s.reserved_bytes,
        reserved_count: s.reserved_count,
        reused_bytes: s.reused_bytes,
        reused_count: s.reused_count,
        peak_pool_bytes: s.peak_pool_bytes,
    }
}

fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

pub(crate) fn session_seed(master: u64, task: usize, round: usize, client: usize) -> u64 {
    // SplitMix64-style mixing for decorrelated per-session seeds.
    // `round` may be a `usize::MAX` sentinel, so the +1 must wrap too.
    let mut z = master
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul((task as u64).wrapping_add(1)))
        .wrapping_add(0xbf58_476d_1ce4_e5b9u64.wrapping_mul((round as u64).wrapping_add(1)))
        .wrapping_add(0x94d0_49bb_1331_11ebu64.wrapping_mul((client as u64).wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed for the sampled-participation RNG: its own stream (decorrelated
/// from selection/dropout and from session seeds via the sentinel client
/// id) so enabling sampling never perturbs the other draws.
pub(crate) fn sample_seed(master: u64, task: usize, round: usize) -> u64 {
    session_seed(master ^ 0x5a4d_9e00, task, round, usize::MAX - 1)
}

/// Per-client data holdings maintained by the driver.
///
/// `pub(crate)` because the networked client replica (`crate::net`) evolves
/// an identical copy from the same deterministic inputs.
#[derive(Debug, Default, Clone)]
pub(crate) struct Holdings {
    /// Data carried from previous tasks.
    pub(crate) old: Vec<Sample>,
    /// New-domain data received this task (empty for `U_o` clients).
    pub(crate) new: Vec<Sample>,
    /// Cached `old ++ new` for `U_b` rounds.
    pub(crate) both: Vec<Sample>,
}

impl Holdings {
    /// Rebuilds the cached `old ++ new` concatenation in place, reusing the
    /// existing buffer's capacity instead of re-cloning through an iterator
    /// chain and reallocating every task.
    fn rebuild_both(&mut self) {
        self.both.clear();
        self.both.reserve(self.old.len() + self.new.len());
        self.both.extend_from_slice(&self.old);
        self.both.extend_from_slice(&self.new);
    }

    /// The client's effective training data for `group`.
    pub(crate) fn for_group(&self, group: ClientGroup) -> &[Sample] {
        match group {
            ClientGroup::Old => &self.old,
            ClientGroup::New => &self.new,
            ClientGroup::Between => &self.both,
        }
    }
}

/// Distributes task `task`'s new-domain training data among the schedule's
/// recipients: the deterministic holdings evolution shared verbatim by the
/// in-process driver, the networked server, and every client replica (the
/// partition is seeded from `cfg.seed` alone, never from the round RNG).
pub(crate) fn distribute_task_data(
    holdings: &mut Vec<Holdings>,
    schedule: &TaskSchedule,
    dataset: &FdilDataset,
    cfg: &RunConfig,
    task: usize,
) {
    holdings.resize_with(schedule.clients.len(), Holdings::default);
    let recipients = schedule.new_data_recipients();
    if !recipients.is_empty() {
        let parts = partition_quantity_shift(
            dataset.domains[task].train.clone(),
            recipients.len(),
            QuantityShift::Lognormal(cfg.quantity_sigma),
            session_seed(cfg.seed, task, usize::MAX, 0),
        );
        for (cid, part) in recipients.iter().zip(parts) {
            holdings[*cid].new = part;
            holdings[*cid].rebuild_both();
        }
    }
}

/// Each client's effective data at the end of a task (for
/// [`FdilStrategy::on_task_end`]), in client-id order.
pub(crate) fn collect_client_data(
    holdings: &[Holdings],
    schedule: &TaskSchedule,
    rounds: usize,
) -> Vec<(usize, Vec<Sample>)> {
    schedule
        .clients
        .iter()
        .map(|plan| {
            let h = &holdings[plan.id];
            let data = h
                .for_group(plan.group_at(rounds.saturating_sub(1)))
                .to_vec();
            (plan.id, data)
        })
        .collect()
}

/// Task-boundary holdings transition: clients that saw the new domain carry
/// it forward as their old data.
pub(crate) fn carry_forward(holdings: &mut [Holdings], schedule: &TaskSchedule) {
    for plan in &schedule.clients {
        if plan.receives_new_data() {
            let h = &mut holdings[plan.id];
            h.old = std::mem::take(&mut h.new);
            h.both.clear();
        }
    }
}

/// One client session planned for dispatch: all inputs are resolved before
/// any worker starts, so execution order cannot affect the result.
struct PlannedSession<'a> {
    cid: usize,
    task: usize,
    round: usize,
    group: ClientGroup,
    samples: &'a [Sample],
    seed: u64,
}

/// Runs one planned session, recording the per-client span and throughput
/// observations, and returns the output plus the session's wall nanoseconds.
///
/// `t` is a handle already scoped under the round span — created once per
/// worker, not per session, so the hot path pays no parent-path rebuild.
fn run_session(
    ctx: &dyn RoundContext,
    session: &PlannedSession<'_>,
    cfg: &RunConfig,
    t: &Telemetry,
) -> (SessionOutput, u64) {
    let _client_span = t.span(&format!("client:{}", session.cid));
    let setting = TrainSetting {
        client_id: session.cid,
        task: session.task,
        round: session.round,
        group: session.group,
        samples: session.samples,
        local_epochs: cfg.local_epochs,
        batch_size: cfg.batch_size,
        seed: session.seed,
    };
    let session_start = std::time::Instant::now();
    let out = ctx.train_client(&setting, t);
    let elapsed = session_start.elapsed();
    let secs = elapsed.as_secs_f64();
    t.observe("client.duration_s", secs);
    if secs > 0.0 {
        let processed = (session.samples.len() * cfg.local_epochs.max(1)) as f64;
        t.observe("client.samples_per_sec", processed / secs);
    }
    (out, u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX))
}

/// Resolves a user-facing thread-count request: `0` means "all available
/// parallelism", anything else is taken literally.
fn resolve_threads(n: usize) -> usize {
    if n == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        n
    }
}

/// Default thread count: the `REFIL_THREADS` environment variable when set
/// and parseable (`0` = all cores), otherwise 1 (sequential).
fn threads_from_env() -> usize {
    match std::env::var("REFIL_THREADS") {
        Ok(raw) => raw
            .trim()
            .parse::<usize>()
            .map(resolve_threads)
            .unwrap_or(1),
        Err(_) => 1,
    }
}

/// Builder-style entry point for executing the full FDIL protocol of
/// Algorithm 1.
///
/// ```no_run
/// # use refil_fed::{FdilRunner, FdilStrategy, RunConfig, Telemetry};
/// # fn demo(dataset: &refil_data::FdilDataset, strategy: &mut dyn FdilStrategy) {
/// let telemetry = Telemetry::disabled();
/// let result = FdilRunner::new(RunConfig::default())
///     .telemetry(&telemetry)
///     .threads(4)
///     .run(dataset, strategy);
/// # let _ = result;
/// # }
/// ```
///
/// Client sessions within a round execute on `threads` scoped workers; the
/// result is byte-for-byte identical at any thread count (see the module
/// docs for why). Every exchange is encoded through the `refil-wire` codec:
/// [`FdilRunner::run`] moves frames over an in-memory [`Loopback`] link
/// pair, [`FdilRunner::run_with_links`] plugs in custom links, and
/// [`FdilRunner::serve`] drives the same protocol over real sockets.
#[derive(Debug)]
pub struct FdilRunner {
    cfg: RunConfig,
    telemetry: Telemetry,
    threads: usize,
    clamp: bool,
    /// Lazily-created persistent worker pool, sized to
    /// [`FdilRunner::effective_threads`] on the first dispatch that wants
    /// more than one worker and reused for every round and eval sweep after.
    pool: OnceLock<Arc<WorkerPool>>,
}

impl Clone for FdilRunner {
    /// Clones the configuration, not the pool: each clone lazily builds its
    /// own worker pool, so clones can run concurrently without serializing
    /// on shared workers.
    fn clone(&self) -> Self {
        Self {
            cfg: self.cfg,
            telemetry: self.telemetry.clone(),
            threads: self.threads,
            clamp: self.clamp,
            pool: OnceLock::new(),
        }
    }
}

impl FdilRunner {
    /// A runner for `cfg` with telemetry disabled and the thread count taken
    /// from [`RunConfig::threads`] when nonzero, otherwise from the
    /// `REFIL_THREADS` environment variable (default 1).
    pub fn new(cfg: RunConfig) -> Self {
        let threads = if cfg.threads == 0 {
            threads_from_env()
        } else {
            resolve_threads(cfg.threads)
        };
        Self {
            cfg,
            telemetry: Telemetry::disabled(),
            threads,
            clamp: true,
            pool: OnceLock::new(),
        }
    }

    /// Records spans, counters, and histograms into `telemetry` during the
    /// run. Handles are cheap clones sharing one collector.
    #[must_use]
    pub fn telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// Sets the number of worker threads for client sessions. `0` means all
    /// available parallelism; `1` runs sessions inline on the driver thread.
    /// Results are identical for every value.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = resolve_threads(threads);
        self.pool = OnceLock::new();
        self
    }

    /// Controls whether the worker count is clamped to the machine's
    /// available parallelism (default `true`). Oversubscribing threads past
    /// physical cores only adds spawn and contention cost — the clamp is
    /// what lets callers say `.threads(16)` portably. Disable it only to
    /// deliberately oversubscribe (e.g. pool-scheduling tests that need
    /// more workers than this machine has cores).
    #[must_use]
    pub fn clamp_threads(mut self, clamp: bool) -> Self {
        self.clamp = clamp;
        self.pool = OnceLock::new();
        self
    }

    /// The run configuration this runner was built with.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// The requested worker-thread count (`0` already resolved to all
    /// cores). See [`FdilRunner::effective_threads`] for the count actually
    /// dispatched.
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// The worker count dispatches actually use: the requested count clamped
    /// to available parallelism (unless [`FdilRunner::clamp_threads`]
    /// disabled the clamp).
    pub fn effective_threads(&self) -> usize {
        if self.clamp {
            self.threads.min(resolve_threads(0))
        } else {
            self.threads
        }
    }

    /// The persistent worker pool, created on first use at the effective
    /// worker count.
    fn pool(&self) -> &WorkerPool {
        self.pool
            .get_or_init(|| Arc::new(WorkerPool::new(self.effective_threads())))
    }

    /// Executes the full FDIL protocol for `strategy` on `dataset`.
    ///
    /// Every exchange is encoded and moved through a fresh in-memory
    /// [`Loopback`] pair (downlink + uplink).
    ///
    /// The span hierarchy is `run > task:<t> > round:<r> > client:<c>`, with
    /// sibling `fedavg` and `evaluate_domain` spans; client spans are emitted
    /// from worker threads but reparented under their round. The
    /// `traffic.up_bytes` / `traffic.down_bytes` counters mirror
    /// [`TrafficStats::record_client`] exactly, so their final totals in the
    /// trace equal the run's [`TrafficStats`]; sibling `wire.<kind>_bytes`
    /// counters break the same bytes down per message kind. Neither
    /// telemetry nor the thread count touches the run's RNG streams: results
    /// are identical whichever sink (or none) is installed and however many
    /// workers run.
    ///
    /// A client update is rejected — counted in
    /// [`RoundReport::clients_rejected`], with no bytes accounted and its
    /// merge message dropped — unless it has the global model's length, a
    /// finite positive weight that keeps the round's total weight finite, and
    /// only finite values.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`RunConfig::validate`] (construct configs via
    /// [`RunConfig::builder`] to catch this early as a typed
    /// [`crate::ConfigError`]), if the dataset has no domains, or if a
    /// domain has no test data.
    pub fn run(&self, dataset: &FdilDataset, strategy: &mut dyn FdilStrategy) -> RunResult {
        self.run_with_links(dataset, strategy, &Loopback::new(), &Loopback::new())
    }

    /// Like [`FdilRunner::run`], but moves every frame over caller-supplied
    /// links (`downlink` server→client, `uplink` client→server) instead of a
    /// private loopback pair — the hook for delayed, faulty, or compressed
    /// in-process links.
    ///
    /// Both links must be *echo* links in the [`Loopback`] sense: the driver
    /// plays both ends, so every frame it sends on a link must come back out
    /// of that same link's [`Link::recv_deadline`] (possibly transformed).
    /// For real peer-to-peer sockets use [`FdilRunner::serve`] instead.
    ///
    /// # Panics
    ///
    /// Panics like [`FdilRunner::run`], and additionally if a link errors,
    /// delivers no frame within 60 s, or delivers one that fails to decode.
    pub fn run_with_links(
        &self,
        dataset: &FdilDataset,
        strategy: &mut dyn FdilStrategy,
        downlink: &dyn Link,
        uplink: &dyn Link,
    ) -> RunResult {
        let exchange = Exchange::Echo {
            down: downlink,
            up: uplink,
        };
        let compression =
            negotiated_compression(self.cfg.wire.spec(), strategy, dataset.num_domains());
        self.run_inner(dataset, strategy, exchange, compression)
    }

    /// Runs the full FDIL protocol as a long-lived federation server: client
    /// processes connect through `listener`, planned sessions are assigned
    /// round-robin over the connected peers, trained remotely, and collected
    /// under the per-round deadline of [`RunConfig::net`]. Sessions whose
    /// results miss the deadline (stragglers, crashed peers) are counted as
    /// `clients_late` in that round's [`RoundReport`] and the round completes
    /// with partial participation.
    ///
    /// `spec` is an opaque run-description string handed to every joining
    /// peer in its `Welcome` frame (conventionally JSON naming the dataset,
    /// method, and seed so the peer can build its replica).
    ///
    /// The server blocks until at least [`crate::NetConfig::min_peers`] peers
    /// have joined, then admits further joiners at round boundaries; a peer
    /// joining mid-run is caught up from a replay log of task/round sync
    /// frames. When every peer stays connected and on time, the run's
    /// semantic outputs (accuracies, traffic, per-kind wire bytes) are
    /// byte-identical to [`FdilRunner::run`] with the same config.
    ///
    /// # Panics
    ///
    /// Panics like [`FdilRunner::run`]. Peer failures never panic — they
    /// surface as `clients_late`, `clients_rejected` and `net.peers_left`
    /// telemetry.
    pub fn serve(
        &self,
        dataset: &FdilDataset,
        strategy: &mut dyn FdilStrategy,
        listener: &dyn Listener,
        spec: &str,
    ) -> RunResult {
        let compression =
            negotiated_compression(self.cfg.wire.spec(), strategy, dataset.num_domains());
        let mut state = ServeState::new(
            listener,
            spec,
            self.cfg.net,
            compression,
            self.telemetry.clone(),
        );
        state.wait_for_peers();
        self.run_inner(dataset, strategy, Exchange::Serve(&mut state), compression)
    }

    /// The round driver behind [`FdilRunner::run_with_links`] and
    /// [`FdilRunner::serve`]; `compression` is the run's
    /// [`negotiated_compression`].
    fn run_inner(
        &self,
        dataset: &FdilDataset,
        strategy: &mut dyn FdilStrategy,
        mut exchange: Exchange<'_, '_>,
        compression: Option<CompressionSpec>,
    ) -> RunResult {
        let cfg = &self.cfg;
        let telemetry = &self.telemetry;
        if let Err(err) = cfg.validate() {
            panic!("invalid RunConfig: {err}");
        }
        assert!(dataset.num_domains() > 0, "dataset has no domains");
        let num_tasks = dataset.num_domains();
        let schedules = build_schedule(&cfg.increment, num_tasks, cfg.seed);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed);

        strategy.attach_telemetry(telemetry);
        let _run_span = telemetry.span("run");
        telemetry.info(format!(
            "run start: method={} dataset={} tasks={} seed={} threads={}",
            strategy.name(),
            dataset.name,
            num_tasks,
            cfg.seed,
            self.threads
        ));

        let mut global = strategy.init_global();
        // With compression negotiated, the server reconstructs compressed
        // updates against its own broadcast history, keyed by the
        // (task, round) tag clients echo back.
        let mut broadcast_history: std::collections::VecDeque<((u32, u32), Vec<f32>)> =
            std::collections::VecDeque::new();
        let mut holdings: Vec<Holdings> = Vec::new();
        let mut traffic = TrafficStats::default();
        let mut domain_acc: Vec<Vec<f32>> = Vec::with_capacity(num_tasks);
        let mut group_timeline = Vec::with_capacity(num_tasks);
        let mut rounds_reports: Vec<RoundReport> = Vec::new();

        for (task, schedule) in schedules.iter().enumerate() {
            let _task_span = telemetry.span(&format!("task:{task}"));
            traffic.start_task(task);
            strategy.on_task_start(task, &global);
            let exchange_mask = strategy.exchange_mask(task as u64);
            let uplink_spec = task_compression(compression, exchange_mask.as_deref());

            // Distribute the new domain's training data among recipients.
            distribute_task_data(&mut holdings, schedule, dataset, cfg, task);
            if let Exchange::Serve(srv) = &mut exchange {
                srv.begin_task(task, &global);
            }

            let rounds = cfg.increment.rounds_per_task;
            group_timeline.push([
                schedule.group_sizes(0),
                schedule.group_sizes(rounds / 2),
                schedule.group_sizes(rounds.saturating_sub(1)),
            ]);

            for round in 0..rounds {
                let _round_span = telemetry.span(&format!("round:{round}"));
                let round_start = std::time::Instant::now();
                let round_t0 = telemetry.now_ns();
                let mut report = RoundReport {
                    task: task as u64,
                    round: round as u64,
                    ..RoundReport::default()
                };

                // Pre-draw all per-round randomness before any session runs,
                // in the exact order the sequential driver consumed it:
                // selection first, then one dropout draw per selected client
                // (only when dropout is enabled, and before the empty-sample
                // check). The RNG stream is thus independent of thread count.
                let selected = select_clients(schedule, cfg.increment.select_per_round, &mut rng);
                let mut sessions: Vec<PlannedSession<'_>> = Vec::with_capacity(selected.len());
                for &cid in &selected {
                    if cfg.dropout_prob > 0.0 && rng.gen::<f32>() < cfg.dropout_prob {
                        telemetry.counter("clients.dropped", 1);
                        report.clients_dropped += 1;
                        continue; // straggler: selected but never reports
                    }
                    let plan = &schedule.clients[cid];
                    let group = plan.group_at(round);
                    let samples: &[Sample] = holdings[cid].for_group(group);
                    if samples.is_empty() {
                        continue;
                    }
                    sessions.push(PlannedSession {
                        cid,
                        task,
                        round,
                        group,
                        samples,
                        seed: session_seed(cfg.seed, task, round, cid),
                    });
                }

                // Sampled participation: keep a seed-deterministic subset of
                // the planned sessions. This runs on the shared path (before
                // the serve/local fork) with its own RNG stream, so enabling
                // it never perturbs selection or dropout draws, and loopback
                // and networked runs sample identically.
                if let Some(keep) = cfg.net.sample_size(sessions.len()) {
                    let removed = (sessions.len() - keep) as u64;
                    let mut sampler = StdRng::seed_from_u64(sample_seed(cfg.seed, task, round));
                    let mut order: Vec<usize> = (0..sessions.len()).collect();
                    for i in 0..keep {
                        // Partial Fisher–Yates: the first `keep` entries are
                        // a uniform draw without replacement.
                        let j = i + (sampler.gen::<u64>() as usize) % (order.len() - i);
                        order.swap(i, j);
                    }
                    let mut kept = vec![false; sessions.len()];
                    for &i in &order[..keep] {
                        kept[i] = true;
                    }
                    let mut slot = 0;
                    sessions.retain(|_| {
                        let keep_this = kept[slot];
                        slot += 1;
                        keep_this
                    });
                    telemetry.counter("clients.sampled_out", removed);
                    report.clients_sampled_out = removed;
                }

                // Server → clients: the round's global model (plus any
                // strategy broadcast) travels as encoded frames through the
                // downlink, and sessions train on the *decoded* copy. The
                // serve path nests the same encoded frames inside each peer's
                // `RoundStart`.
                let broadcast_start = std::time::Instant::now();
                let broadcast_t0 = telemetry.now_ns();
                let model_msg = WireMessage::ModelBroadcast(ModelBroadcast {
                    task: task as u32,
                    round: round as u32,
                    model: global.clone(),
                });
                let extra_msg = strategy.round_broadcast(task, round);
                let extra_kind = extra_msg.as_ref().map(WireMessage::kind);
                let (round_model, broadcast, model_bytes, extra_bytes) = match &mut exchange {
                    Exchange::Serve(srv) => {
                        let model_frame = model_msg.encode();
                        let model_bytes = model_frame.len() as u64;
                        let (extra_frame, extra_bytes) = match extra_msg {
                            Some(msg) => {
                                let frame = msg.encode();
                                let bytes = frame.len() as u64;
                                (Some(frame), bytes)
                            }
                            None => (None, 0),
                        };
                        let assignments: Vec<SessionAssignment> = sessions
                            .iter()
                            .map(|s| SessionAssignment {
                                client_id: s.cid as u64,
                                group: group_code(s.group),
                                seed: s.seed,
                            })
                            .collect();
                        srv.begin_round(task, round, &assignments, model_frame, extra_frame);
                        (Vec::new(), None, model_bytes, extra_bytes)
                    }
                    Exchange::Echo { down, .. } => {
                        let (model_out, model_bytes) = roundtrip(*down, model_msg);
                        let WireMessage::ModelBroadcast(model_out) = model_out else {
                            panic!("downlink delivered a non-ModelBroadcast frame");
                        };
                        let (broadcast, extra_bytes) = match extra_msg {
                            Some(msg) => {
                                let (decoded, bytes) = roundtrip(*down, msg);
                                (Some(decoded), bytes)
                            }
                            None => (None, 0),
                        };
                        (model_out.model, broadcast, model_bytes, extra_bytes)
                    }
                };
                if compression.is_some() {
                    // Remember what this round's broadcast said, so client
                    // updates delta-encoded against it can be reconstructed.
                    // The codec is bit-exact for f32, so the server-side
                    // `global` equals the decoded broadcast every client
                    // applied. A short history tolerates results that arrive
                    // tagged with an earlier round's base.
                    broadcast_history.push_back(((task as u32, round as u32), global.clone()));
                    while broadcast_history.len() > 8 {
                        broadcast_history.pop_front();
                    }
                }
                let down_bytes = model_bytes + extra_bytes;
                report.phases.broadcast = elapsed_ns(broadcast_start);
                telemetry.timeline_span(0, "broadcast", broadcast_t0, report.phases.broadcast);

                // Dispatch sessions against the shared read-only context;
                // outputs are indexed by session slot so completion order is
                // irrelevant. `select_clients` returns ids ascending, so slot
                // order == client-id order.
                //
                // Profiling rides along without touching scheduling: each
                // worker owns a preallocated timeline lane (ticks only, no
                // allocation per item) and harvests its thread's scratch
                // stats; lanes merge into per-worker busy/idle/steal
                // accounting after the join, off the hot path.
                let round_path = telemetry.current_path();
                let timeline = telemetry.timeline();
                let train_start = std::time::Instant::now();
                let train_t0 = telemetry.now_ns();
                let (mut outputs, train_pool, train_scratch): (
                    RoundOutputs<'_>,
                    Option<PoolStats>,
                    ArenaStats,
                ) = match &mut exchange {
                    Exchange::Serve(srv) => {
                        // Remote path: peers train their assigned sessions; the
                        // driver blocks (without spinning) until every result is
                        // in or the round deadline passes.
                        let deadline = std::time::Instant::now()
                            + std::time::Duration::from_millis(cfg.net.round_deadline_ms);
                        let slots = srv.collect(deadline);
                        (RoundOutputs::Remote(slots), None, ArenaStats::default())
                    }
                    Exchange::Echo { up, .. } => {
                        let uplink = *up;
                        let ctx = strategy.round_ctx(task, round, &round_model, broadcast.as_ref());
                        let workers = self.effective_threads().min(sessions.len());
                        if workers <= 1 {
                            let t = telemetry.scoped(&round_path);
                            let mut lane = timeline.lane(0);
                            let _ = refil_nn::take_scratch_stats();
                            let outputs: SessionSlots = sessions
                                .iter()
                                .map(|s| {
                                    let start = lane.tick();
                                    let (out, duration_ns) = run_session(&*ctx, s, cfg, &t);
                                    lane.record("client", Some(s.cid as u64), start);
                                    let stat = SessionStat {
                                        client_id: s.cid as u64,
                                        track: 1,
                                        duration_ns,
                                    };
                                    Some((out, stat))
                                })
                                .collect();
                            let scratch = arena_stats(refil_nn::take_scratch_stats());
                            let wall = timeline.tick().saturating_sub(train_t0);
                            (
                                RoundOutputs::Local {
                                    slots: outputs,
                                    uplink,
                                },
                                timeline.merge(&[&lane], wall),
                                scratch,
                            )
                        } else {
                            let pool = self.pool();
                            let _dispatch = pool.serialize();
                            let next = AtomicUsize::new(0);
                            let slots: Mutex<SessionSlots> =
                                Mutex::new(sessions.iter().map(|_| None).collect());
                            let worker_scratch: Mutex<Vec<ArenaStats>> =
                                Mutex::new(vec![ArenaStats::default(); workers]);
                            pool.run(workers, &|slot| {
                                let t = telemetry.scoped(&round_path);
                                let mut lane = pool.lane(slot);
                                timeline.rearm(&mut lane, slot);
                                let track = slot as u32 + 1;
                                let ctx = &*ctx;
                                let _ = refil_nn::take_scratch_stats();
                                loop {
                                    let i = next.fetch_add(1, Ordering::Relaxed);
                                    let Some(session) = sessions.get(i) else {
                                        break;
                                    };
                                    let start = lane.tick();
                                    let (out, duration_ns) = run_session(ctx, session, cfg, &t);
                                    lane.record("client", Some(session.cid as u64), start);
                                    let stat = SessionStat {
                                        client_id: session.cid as u64,
                                        track,
                                        duration_ns,
                                    };
                                    slots.lock().expect("session slots poisoned")[i] =
                                        Some((out, stat));
                                }
                                worker_scratch.lock().expect("scratch slots poisoned")[slot] =
                                    arena_stats(refil_nn::take_scratch_stats());
                            });
                            let mut scratch = ArenaStats::default();
                            for s in worker_scratch.into_inner().expect("scratch slots poisoned") {
                                scratch.merge(&s);
                            }
                            let wall = timeline.tick().saturating_sub(train_t0);
                            let guards: Vec<_> = (0..workers).map(|s| pool.lane(s)).collect();
                            let lanes: Vec<&Lane> = guards.iter().map(|g| &**g).collect();
                            let pool_stats = timeline.merge(&lanes, wall);
                            drop(lanes);
                            drop(guards);
                            (
                                RoundOutputs::Local {
                                    slots: slots.into_inner().expect("session slots poisoned"),
                                    uplink,
                                },
                                pool_stats,
                                scratch,
                            )
                        }
                    }
                };
                report.phases.train = elapsed_ns(train_start);
                telemetry.timeline_span(0, "train", train_t0, report.phases.train);
                report.train_pool = train_pool;
                report.scratch.merge(&train_scratch);

                // Clients → server: each update (and optional merge message)
                // is encoded, sent up the uplink, decoded, and consumed in
                // session (= client-id) order, so FedAvg inputs, traffic
                // accounting, and merges are deterministic.
                let aggregate_start = std::time::Instant::now();
                let aggregate_t0 = telemetry.now_ns();
                let mut updates = Vec::with_capacity(sessions.len());
                let mut total_weight = 0.0f32;
                let mut merges: Vec<(usize, WireMessage)> = Vec::new();
                for (i, session) in sessions.iter().enumerate() {
                    // Normalize both paths to the same shape: the decoded
                    // update, its frame bytes, the optional decoded merge
                    // with its frame bytes, and the session stat. `None`
                    // means the result never arrived (remote path only).
                    let collected = match &mut outputs {
                        RoundOutputs::Local { slots, uplink } => {
                            let (out, stat) = slots[i].take().expect("planned session never ran");
                            // On the in-process paths the driver plays both
                            // roles: it builds exactly the uplink frame a
                            // remote client would (compressed against the
                            // round's decoded broadcast when compression is
                            // on), moves it through the uplink, and consumes
                            // the decoded result below like a remote one.
                            let update_msg = if let Some(spec) = uplink_spec {
                                WireMessage::CompressedModelUpdate(CompressedModelUpdate::compress(
                                    &spec,
                                    exchange_mask.as_deref(),
                                    session.cid as u64,
                                    out.update.weight,
                                    &out.update.flat,
                                    &round_model,
                                    task as u32,
                                    round as u32,
                                ))
                            } else {
                                WireMessage::ClientModelUpdate(WireClientModelUpdate {
                                    client_id: session.cid as u64,
                                    weight: out.update.weight,
                                    model: out.update.flat,
                                })
                            };
                            let (update_out, update_bytes) = roundtrip(*uplink, update_msg);
                            let update_out = match update_out {
                                WireMessage::ClientModelUpdate(u) => RemoteUpdate::Plain(u),
                                WireMessage::CompressedModelUpdate(c) => {
                                    RemoteUpdate::Compressed(c)
                                }
                                _ => panic!("uplink delivered a non-model-update frame"),
                            };
                            let merge = out.merge.map(|msg| roundtrip(*uplink, msg));
                            Some((update_out, update_bytes, merge, stat))
                        }
                        RoundOutputs::Remote(slots) => slots[i]
                            .take()
                            .map(|r| (r.update, r.update_bytes, r.merge, r.stat)),
                    };
                    let Some((update_out, update_bytes, merge, stat)) = collected else {
                        // Straggler or dead peer: the round proceeds without
                        // this session and no bytes are accounted for it.
                        telemetry.counter("clients.late", 1);
                        report.clients_late += 1;
                        continue;
                    };
                    // The raw column is what the same update would have cost
                    // as a dense `ClientModelUpdate` frame; encoded is what
                    // actually moved. Equal unless compression is active.
                    let (update_kind, raw_bytes) = match &update_out {
                        RemoteUpdate::Plain(_) => ("client_model_update", update_bytes),
                        RemoteUpdate::Compressed(c) => {
                            ("compressed_model_update", c.uncompressed_frame_len() as u64)
                        }
                    };
                    // Reconstruct a compressed update against the broadcast
                    // it names before any bytes are accounted, so a session
                    // that cannot be applied counts as late, not trained.
                    let update = match update_out {
                        RemoteUpdate::Plain(u) => WeightedUpdate {
                            flat: u.model,
                            weight: u.weight,
                        },
                        RemoteUpdate::Compressed(c) => {
                            let flat = broadcast_history
                                .iter()
                                .rev()
                                .find(|(tag, _)| *tag == (c.base_task, c.base_round))
                                .and_then(|(_, base)| c.reconstruct(base).ok());
                            let Some(flat) = flat else {
                                telemetry.counter("clients.late", 1);
                                report.clients_late += 1;
                                continue;
                            };
                            WeightedUpdate {
                                flat,
                                weight: c.weight,
                            }
                        }
                    };
                    // A hostile or diverged update must neither crash FedAvg
                    // nor poison the global model. Like a failed
                    // reconstruction, a refused update accounts no bytes and
                    // its merge message is dropped.
                    if !admissible(&update, global.len(), total_weight) {
                        telemetry.counter("clients.rejected", 1);
                        report.clients_rejected += 1;
                        continue;
                    }
                    total_weight += update.weight;
                    report.sessions.push(stat);
                    let mut up_bytes = update_bytes;
                    telemetry.counter(&format!("wire.{update_kind}_bytes"), update_bytes);
                    bump_wire(&mut report.wire_bytes, update_kind, update_bytes);
                    report.uplink_raw_bytes += raw_bytes;
                    report.uplink_encoded_bytes += update_bytes;
                    if let Some((decoded, bytes)) = merge {
                        up_bytes += bytes;
                        let kind = decoded.kind().name();
                        telemetry.counter(&format!("wire.{kind}_bytes"), bytes);
                        bump_wire(&mut report.wire_bytes, kind, bytes);
                        merges.push((session.cid, decoded));
                    }
                    traffic.record_client(up_bytes, down_bytes);
                    // Mirror record_client exactly so trace totals match traffic.
                    telemetry.counter("traffic.up_bytes", up_bytes);
                    telemetry.counter("traffic.down_bytes", down_bytes);
                    telemetry.counter("wire.model_broadcast_bytes", model_bytes);
                    bump_wire(&mut report.wire_bytes, "model_broadcast", model_bytes);
                    if let Some(kind) = extra_kind {
                        telemetry.counter(&format!("wire.{}_bytes", kind.name()), extra_bytes);
                        bump_wire(&mut report.wire_bytes, kind.name(), extra_bytes);
                    }
                    telemetry.counter("clients.trained", 1);
                    report.clients_trained += 1;
                    updates.push(update);
                }
                if !updates.is_empty() {
                    let _fedavg_span = telemetry.span("fedavg");
                    global = fedavg(&updates);
                }
                if let Exchange::Serve(srv) = &mut exchange {
                    // Sync every peer (and the replay log) with the new
                    // global and the full ordered merge sequence, so each
                    // client replica ingests exactly what the server does.
                    srv.finish_round(task, round, &global, &merges);
                }
                traffic.record_round();
                telemetry.counter("rounds", 1);
                report.phases.aggregate = elapsed_ns(aggregate_start);
                telemetry.timeline_span(0, "aggregate", aggregate_t0, report.phases.aggregate);
                let merge_start = std::time::Instant::now();
                let merge_t0 = telemetry.now_ns();
                for (cid, message) in merges {
                    strategy.merge_client(task, round, cid, message);
                }
                strategy.on_round_end(task, round, &global);
                report.phases.merge = elapsed_ns(merge_start);
                telemetry.timeline_span(0, "merge", merge_t0, report.phases.merge);
                report.wall_ns = elapsed_ns(round_start);
                telemetry.timeline_span(0, "round", round_t0, report.wall_ns);
                rounds_reports.push(report);
            }

            // Task-end hook: expose each client's effective data (for Fisher etc.).
            let client_data = collect_client_data(&holdings, schedule, rounds);
            strategy.on_task_end(task, &global, &client_data);

            // Clients that saw the new domain carry it forward as their data.
            carry_forward(&mut holdings, schedule);
            if let Exchange::Serve(srv) = &mut exchange {
                srv.end_task(task, &global);
            }

            // Evaluate on every domain seen so far, fanning (domain, batch)
            // work items across the same worker pool the training rounds use.
            // The sweep's profile (pool stats, arena stats, wall time) is
            // attributed to the round that closed the task.
            let eval_start = std::time::Instant::now();
            let eval_t0 = telemetry.now_ns();
            let (row, eval_pool, eval_scratch) =
                self.evaluate_task_profiled(strategy, &global, dataset, task);
            let eval_ns = elapsed_ns(eval_start);
            telemetry.timeline_span(0, "eval", eval_t0, eval_ns);
            if let Some(last) = rounds_reports.last_mut() {
                last.phases.eval = eval_ns;
                last.wall_ns += eval_ns;
                last.eval_pool = eval_pool;
                last.eval_domain_acc = Some(row.clone());
                last.scratch.merge(&eval_scratch);
            }
            for &acc in &row {
                telemetry.observe("eval.domain_acc", f64::from(acc));
            }
            let step_acc = row.iter().sum::<f32>() / row.len() as f32;
            telemetry.info(format!("task {task} done: step accuracy {step_acc:.2}%"));
            domain_acc.push(row);
        }

        if let Exchange::Serve(srv) = exchange {
            srv.finish_run();
        }
        telemetry.info(format!(
            "run done: {} rounds, {} client updates, {} bytes total",
            traffic.rounds,
            traffic.client_updates,
            traffic.total_bytes()
        ));
        drop(_run_span);
        telemetry.flush();

        RunResult {
            method: strategy.name(),
            dataset: dataset.name.clone(),
            domain_names: dataset.domains.iter().map(|d| d.name.clone()).collect(),
            domain_acc,
            traffic,
            group_timeline,
            final_global: global,
            telemetry: telemetry.summary(),
            rounds: rounds_reports,
        }
    }

    /// Evaluates the global model on every domain seen up to `task`
    /// (inclusive), returning one accuracy (%) per domain.
    ///
    /// Work is chunked at *domain* granularity: each item walks one
    /// domain's test split in [`EVAL_BLOCK`]-row `[n, dim]` tensors, so the
    /// kernel layer sees wide multi-RHS GEMMs that stay cache-resident
    /// instead of dozens of thin per-batch ones (or one domain-wide forward
    /// whose activations spill L1). Because every forward op is
    /// row-independent (GEMM accumulates each output element in a fixed
    /// ascending-k chain regardless of how many rows are in flight;
    /// LayerNorm/softmax/attention are per-row), the predictions are
    /// bit-identical to the fine-grained batched sweep — pinned against
    /// [`evaluate_domain`] in the test suite.
    ///
    /// Items are fanned across the runner's persistent worker pool; each
    /// worker holds its own [`DomainEvaluator`] (and thus its own reusable
    /// tape-free inference session) over the one shared [`EvalContext`].
    /// Per-item correct counts land in slots indexed by plan order, so the
    /// result is byte-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if a domain in `0..=task` has no test data, or if a worker
    /// panics.
    pub fn evaluate_task(
        &self,
        strategy: &dyn FdilStrategy,
        global: &[f32],
        dataset: &FdilDataset,
        task: usize,
    ) -> Vec<f32> {
        self.evaluate_task_profiled(strategy, global, dataset, task)
            .0
    }

    /// Like [`FdilRunner::evaluate_task`], but also returns the sweep's
    /// per-worker [`PoolStats`] (None when telemetry is disabled — lanes
    /// record nothing) and the scratch-arena accounting harvested from the
    /// eval workers. This is the utilization report behind the parallel-eval
    /// diagnosis: busy/idle/steal per worker over the sweep's wall time.
    pub fn evaluate_task_profiled(
        &self,
        strategy: &dyn FdilStrategy,
        global: &[f32],
        dataset: &FdilDataset,
        task: usize,
    ) -> (Vec<f32>, Option<PoolStats>, ArenaStats) {
        let telemetry = &self.telemetry;
        let mut items: Vec<EvalItem<'_>> = Vec::with_capacity(task + 1);
        for domain in 0..=task {
            let test = &dataset.domains[domain].test;
            assert!(!test.is_empty(), "domain {domain} has no test data");
            items.push(EvalItem {
                domain,
                chunk: test,
            });
        }
        let eval_path = telemetry.current_path();
        let timeline = telemetry.timeline();
        let sweep_t0 = timeline.tick();
        let ctx = strategy.eval_ctx(global);
        let workers = self.effective_threads().min(items.len());
        let (counts, pool_stats, scratch): (Vec<usize>, Option<PoolStats>, ArenaStats) =
            if workers <= 1 {
                let t = telemetry.scoped(&eval_path);
                let mut lane = timeline.lane(0);
                let _ = refil_nn::take_scratch_stats();
                let mut evaluator = ctx.evaluator();
                let mut staging = Vec::new();
                let counts = items
                    .iter()
                    .enumerate()
                    .map(|(i, item)| {
                        let start = lane.tick();
                        let correct = eval_item(&mut *evaluator, item, &mut staging, &t);
                        lane.record("eval", Some(i as u64), start);
                        correct
                    })
                    .collect();
                let scratch = arena_stats(refil_nn::take_scratch_stats());
                let wall = timeline.tick().saturating_sub(sweep_t0);
                (counts, timeline.merge(&[&lane], wall), scratch)
            } else {
                let pool = self.pool();
                let _dispatch = pool.serialize();
                let next = AtomicUsize::new(0);
                let slots: Mutex<Vec<Option<usize>>> = Mutex::new(vec![None; items.len()]);
                let worker_scratch: Mutex<Vec<ArenaStats>> =
                    Mutex::new(vec![ArenaStats::default(); workers]);
                pool.run(workers, &|slot| {
                    let t = telemetry.scoped(&eval_path);
                    let mut lane = pool.lane(slot);
                    timeline.rearm(&mut lane, slot);
                    let ctx = &*ctx;
                    let _ = refil_nn::take_scratch_stats();
                    let mut evaluator = ctx.evaluator();
                    let mut staging = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break;
                        };
                        let start = lane.tick();
                        let correct = eval_item(&mut *evaluator, item, &mut staging, &t);
                        lane.record("eval", Some(i as u64), start);
                        slots.lock().expect("eval slots poisoned")[i] = Some(correct);
                    }
                    worker_scratch.lock().expect("scratch slots poisoned")[slot] =
                        arena_stats(refil_nn::take_scratch_stats());
                });
                let mut scratch = ArenaStats::default();
                for s in worker_scratch.into_inner().expect("scratch slots poisoned") {
                    scratch.merge(&s);
                }
                let wall = timeline.tick().saturating_sub(sweep_t0);
                let guards: Vec<_> = (0..workers).map(|s| pool.lane(s)).collect();
                let lanes: Vec<&Lane> = guards.iter().map(|g| &**g).collect();
                let pool_stats = timeline.merge(&lanes, wall);
                drop(lanes);
                drop(guards);
                let counts = slots
                    .into_inner()
                    .expect("eval slots poisoned")
                    .into_iter()
                    .map(|c| c.expect("planned eval item never ran"))
                    .collect();
                (counts, pool_stats, scratch)
            };
        let row = items
            .iter()
            .zip(&counts)
            .map(|(item, &correct)| 100.0 * correct as f32 / item.chunk.len() as f32)
            .collect();
        (row, pool_stats, scratch)
    }
}

/// Whether FedAvg may take `update` into a round whose admitted updates so
/// far weigh `total_weight`: it has the global model's `len` parameters, a
/// finite positive weight that keeps the total finite, and only finite
/// values.
fn admissible(update: &WeightedUpdate, len: usize, total_weight: f32) -> bool {
    update.flat.len() == len
        && update.weight.is_finite()
        && update.weight > 0.0
        && (total_weight + update.weight).is_finite()
        // No early exit, so the scan vectorizes.
        && update.flat.iter().fold(true, |ok, x| ok & x.is_finite())
}

/// Adds `bytes` to the per-round wire-bytes map under `kind`, allocating the
/// key only on first occurrence per round.
fn bump_wire(map: &mut std::collections::BTreeMap<String, u64>, kind: &str, bytes: u64) {
    match map.get_mut(kind) {
        Some(slot) => *slot += bytes,
        None => {
            map.insert(kind.to_string(), bytes);
        }
    }
}

/// One planned unit of evaluation work: a slice of one domain's test split.
/// The runner's sweep plans one item per domain (coarse scheduling; the
/// item itself forwards in [`EVAL_BLOCK`]-row blocks); [`evaluate_domain`]
/// plans one per `eval_batch` chunk.
struct EvalItem<'a> {
    domain: usize,
    chunk: &'a [Sample],
}

/// Samples staged per multi-RHS forward inside one eval item. Wider batches
/// amortize plan replay, but past ~64 rows the activation working set
/// spills L1 and data movement starts dominating the GEMMs (a whole-domain
/// forward measured slower than 64-row blocks despite fewer plan replays).
/// The block split is positional and constant
/// — independent of worker count — and per-row forward arithmetic doesn't
/// depend on batch width, so results stay byte-identical at any thread
/// count and any block size.
const EVAL_BLOCK: usize = 64;

/// Evaluates one planned item, returning its correct-prediction count. The
/// item's samples run through the evaluator in [`EVAL_BLOCK`]-row multi-RHS
/// forwards.
///
/// `staging` is the worker's reusable feature buffer: it is moved into the
/// batch tensor and reclaimed afterwards, so steady-state evaluation does no
/// per-batch feature allocation. `t` is a handle already scoped under the
/// eval sweep's span path — created once per worker, not per item — so each
/// item's `evaluate_domain` span and `eval.samples` / `eval.batches` /
/// `eval.forward_ns` counters land correctly even from worker threads.
fn eval_item(
    evaluator: &mut dyn DomainEvaluator,
    item: &EvalItem<'_>,
    staging: &mut Vec<f32>,
    t: &Telemetry,
) -> usize {
    let _span = t.span("evaluate_domain");
    let dim = item.chunk[0].features.len();
    let mut correct = 0usize;
    for block in item.chunk.chunks(EVAL_BLOCK) {
        let mut data = std::mem::take(staging);
        data.clear();
        data.reserve(block.len() * dim);
        for s in block {
            data.extend_from_slice(&s.features);
        }
        let features = Tensor::from_vec(data, &[block.len(), dim]);
        let start = std::time::Instant::now();
        let preds = evaluator.predict_domain(&features, item.domain);
        t.counter("eval.forward_ns", start.elapsed().as_nanos() as u64);
        t.counter("eval.batches", 1);
        *staging = features.into_vec();
        correct += preds
            .iter()
            .zip(block)
            .filter(|(p, s)| **p == s.label)
            .count();
    }
    t.counter("eval.samples", item.chunk.len() as u64);
    correct
}

/// Moves one message through an echo link — encode, send, receive, decode —
/// returning the decoded message and its frame length.
///
/// # Panics
///
/// Panics if the link errors, delivers no frame within 60 s (an echo link
/// has the frame queued already — any wait at all means the link is broken),
/// or delivers one that fails to decode — all fatal protocol violations for
/// the driver.
fn roundtrip(link: &dyn Link, msg: WireMessage) -> (WireMessage, u64) {
    let frame = msg.encode();
    let bytes = frame.len() as u64;
    link.send(&frame).expect("link send failed");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let received = link.recv_deadline(deadline).expect("link recv failed");
    let decoded = WireMessage::decode(&received).expect("received frame failed to decode");
    (decoded, bytes)
}

/// Accuracy (%) of the strategy's global model on one domain's test split.
///
/// Batches run serially through a single [`DomainEvaluator`] whose feature
/// staging buffer and inference session are reused across the whole split;
/// the parallel sweep inside [`FdilRunner::evaluate_task`] produces
/// bit-identical numbers.
///
/// # Panics
///
/// Panics if the domain has no test data.
pub fn evaluate_domain(
    strategy: &dyn FdilStrategy,
    global: &[f32],
    dataset: &FdilDataset,
    domain: usize,
    eval_batch: usize,
) -> f32 {
    let test = &dataset.domains[domain].test;
    assert!(!test.is_empty(), "domain {domain} has no test data");
    let ctx = strategy.eval_ctx(global);
    let mut evaluator = ctx.evaluator();
    let mut staging = Vec::new();
    let telemetry = Telemetry::disabled();
    let mut correct = 0usize;
    for chunk in test.chunks(eval_batch.max(1)) {
        let item = EvalItem { domain, chunk };
        correct += eval_item(&mut *evaluator, &item, &mut staging, &telemetry);
    }
    100.0 * correct as f32 / test.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::increment::IncrementConfig;
    use refil_data::{DatasetSpec, DomainSpec};
    use std::time::{Duration, Instant};

    use refil_wire::{PromptGroup, PromptUpload};

    /// A trivial strategy: nearest-class-mean in input space, "trained" by
    /// moving stored class means toward local data. Parameters = flat class
    /// means, so FedAvg is meaningful. Each session also emits a merge
    /// message (a `PromptUpload` whose single prompt's length encodes the
    /// sample count) so the driver's ordered-merge path is exercised.
    struct CentroidStrategy {
        classes: usize,
        dim: usize,
        merged: Vec<(usize, usize, usize)>, // (round, client, samples)
    }

    impl CentroidStrategy {
        fn new(classes: usize, dim: usize) -> Self {
            Self {
                classes,
                dim,
                merged: Vec::new(),
            }
        }
    }

    struct CentroidCtx<'a> {
        classes: usize,
        dim: usize,
        global: &'a [f32],
    }

    impl RoundContext for CentroidCtx<'_> {
        fn train_client(&self, s: &TrainSetting<'_>, _telemetry: &Telemetry) -> SessionOutput {
            let mut flat = self.global.to_vec();
            let mut counts = vec![0usize; self.classes];
            let mut sums = vec![0.0f32; self.classes * self.dim];
            for sample in s.samples {
                counts[sample.label] += 1;
                for (i, &f) in sample.features.iter().enumerate() {
                    sums[sample.label * self.dim + i] += f;
                }
            }
            for k in 0..self.classes {
                if counts[k] > 0 {
                    for i in 0..self.dim {
                        flat[k * self.dim + i] = sums[k * self.dim + i] / counts[k] as f32;
                    }
                }
            }
            SessionOutput {
                update: ClientUpdate {
                    flat,
                    weight: s.samples.len() as f32,
                },
                merge: Some(WireMessage::PromptUpload(PromptUpload {
                    client_id: s.client_id as u64,
                    groups: vec![PromptGroup {
                        client_id: s.client_id as u64,
                        prompts: vec![(0, vec![0.0; s.samples.len()])],
                    }],
                })),
            }
        }
    }

    impl FdilStrategy for CentroidStrategy {
        fn name(&self) -> String {
            "Centroid".into()
        }

        fn init_global(&mut self) -> Vec<f32> {
            vec![0.0; self.classes * self.dim]
        }

        fn round_ctx<'a>(
            &'a self,
            _task: usize,
            _round: usize,
            global: &'a [f32],
            _broadcast: Option<&'a WireMessage>,
        ) -> Box<dyn RoundContext + 'a> {
            Box::new(CentroidCtx {
                classes: self.classes,
                dim: self.dim,
                global,
            })
        }

        fn merge_client(
            &mut self,
            _task: usize,
            round: usize,
            client_id: usize,
            message: WireMessage,
        ) {
            let WireMessage::PromptUpload(upload) = message else {
                panic!("expected a PromptUpload merge message");
            };
            let samples = upload.groups[0].prompts[0].1.len();
            self.merged.push((round, client_id, samples));
        }

        fn predict(&mut self, global: &[f32], features: &Tensor) -> Vec<usize> {
            CentroidEval {
                classes: self.classes,
                dim: self.dim,
                global,
            }
            .predict_domain(features, 0)
        }

        fn eval_ctx<'a>(&'a self, global: &'a [f32]) -> Box<dyn EvalContext + 'a> {
            Box::new(CentroidEval {
                classes: self.classes,
                dim: self.dim,
                global,
            })
        }
    }

    /// Nearest-class-mean prediction is stateless, so one struct serves as
    /// both the shared context and the per-worker evaluator.
    #[derive(Clone, Copy)]
    struct CentroidEval<'a> {
        classes: usize,
        dim: usize,
        global: &'a [f32],
    }

    impl EvalContext for CentroidEval<'_> {
        fn evaluator(&self) -> Box<dyn DomainEvaluator + '_> {
            Box::new(*self)
        }
    }

    impl DomainEvaluator for CentroidEval<'_> {
        fn predict_domain(&mut self, features: &Tensor, _domain: usize) -> Vec<usize> {
            let n = features.shape()[0];
            (0..n)
                .map(|i| {
                    let x = &features.data()[i * self.dim..(i + 1) * self.dim];
                    (0..self.classes)
                        .min_by(|&a, &b| {
                            let da: f32 = x
                                .iter()
                                .zip(&self.global[a * self.dim..(a + 1) * self.dim])
                                .map(|(u, v)| (u - v) * (u - v))
                                .sum();
                            let db: f32 = x
                                .iter()
                                .zip(&self.global[b * self.dim..(b + 1) * self.dim])
                                .map(|(u, v)| (u - v) * (u - v))
                                .sum();
                            da.total_cmp(&db)
                        })
                        .unwrap_or(0)
                })
                .collect()
        }
    }

    fn tiny_dataset() -> FdilDataset {
        DatasetSpec {
            name: "tiny".into(),
            classes: 3,
            feature_dim: 6,
            proto_scale: 3.0,
            within_std: 0.3,
            test_fraction: 0.3,
            signature_dim: 2,
            signature_scale: 0.6,
            domains: vec![
                DomainSpec::new("d0", 120, 0.1, 0.0),
                DomainSpec::new("d1", 120, 0.1, 0.2),
            ],
        }
        .generate(11)
    }

    fn tiny_config() -> RunConfig {
        RunConfig {
            increment: IncrementConfig {
                initial_clients: 4,
                select_per_round: 3,
                increment_per_task: 1,
                transition_fraction: 0.8,
                rounds_per_task: 3,
            },
            local_epochs: 1,
            batch_size: 16,
            quantity_sigma: 0.5,
            eval_batch: 64,
            dropout_prob: 0.0,
            seed: 3,
            threads: 0,
            net: crate::NetConfig::default(),
            wire: crate::WireConfig::default(),
        }
    }

    #[test]
    fn runner_executes_full_protocol() {
        let ds = tiny_dataset();
        let mut strat = CentroidStrategy::new(3, 6);
        let res = FdilRunner::new(tiny_config()).run(&ds, &mut strat);
        assert_eq!(res.domain_acc.len(), 2);
        assert_eq!(res.domain_acc[0].len(), 1);
        assert_eq!(res.domain_acc[1].len(), 2);
        assert_eq!(res.traffic.rounds, 6);
        assert!(res.traffic.client_updates > 0);
        // Centroids on an easy first domain should beat chance (33 %).
        assert!(res.domain_acc[0][0] > 50.0, "acc {:?}", res.domain_acc);
        // Every trained client produced exactly one ordered merge.
        assert_eq!(strat.merged.len() as u64, res.traffic.client_updates);
    }

    #[test]
    fn run_is_deterministic() {
        let ds = tiny_dataset();
        let mut s1 = CentroidStrategy::new(3, 6);
        let mut s2 = CentroidStrategy::new(3, 6);
        let r1 = FdilRunner::new(tiny_config()).run(&ds, &mut s1);
        let r2 = FdilRunner::new(tiny_config()).run(&ds, &mut s2);
        assert_eq!(r1.domain_acc, r2.domain_acc);
    }

    #[test]
    fn parallel_run_matches_sequential_bytes() {
        let ds = tiny_dataset();
        for threads in [2usize, 4, 8] {
            let mut s1 = CentroidStrategy::new(3, 6);
            let mut s2 = CentroidStrategy::new(3, 6);
            let seq = FdilRunner::new(tiny_config()).threads(1).run(&ds, &mut s1);
            let par = FdilRunner::new(tiny_config())
                .threads(threads)
                .run(&ds, &mut s2);
            assert_eq!(seq.final_global, par.final_global, "threads={threads}");
            assert_eq!(seq.domain_acc, par.domain_acc, "threads={threads}");
            assert_eq!(seq.traffic, par.traffic, "threads={threads}");
            // Merge hooks fire in the same (round, client) order too.
            assert_eq!(s1.merged, s2.merged, "threads={threads}");
        }
    }

    #[test]
    fn parallel_run_matches_under_dropout() {
        let ds = tiny_dataset();
        let mut cfg = tiny_config();
        cfg.dropout_prob = 0.4;
        let mut s1 = CentroidStrategy::new(3, 6);
        let mut s2 = CentroidStrategy::new(3, 6);
        let seq = FdilRunner::new(cfg).threads(1).run(&ds, &mut s1);
        let par = FdilRunner::new(cfg).threads(4).run(&ds, &mut s2);
        assert_eq!(seq.final_global, par.final_global);
        assert_eq!(seq.traffic, par.traffic);
    }

    #[test]
    fn explicit_loopback_links_match_run() {
        let ds = tiny_dataset();
        let mut s1 = CentroidStrategy::new(3, 6);
        let mut s2 = CentroidStrategy::new(3, 6);
        let a = FdilRunner::new(tiny_config()).run(&ds, &mut s1);
        let downlink = refil_wire::Loopback::new();
        let uplink = refil_wire::Loopback::new();
        let b = FdilRunner::new(tiny_config()).run_with_links(&ds, &mut s2, &downlink, &uplink);
        assert_eq!(a.final_global, b.final_global);
        assert_eq!(a.traffic, b.traffic);
        // Every frame sent was also consumed, and no round reported lates
        // on the in-process path.
        assert_eq!(downlink.pending(), 0);
        assert_eq!(uplink.pending(), 0);
        assert!(b.rounds.iter().all(|r| r.clients_late == 0));
    }

    /// How [`HostileStrategy`] corrupts its victim client's update.
    #[derive(Clone, Copy, Debug)]
    enum Corruption {
        NanValue,
        WrongLength,
        ZeroWeight,
    }

    /// [`CentroidStrategy`] whose client 0 sends a corrupted update every
    /// time it is selected; every other client stays honest.
    struct HostileStrategy {
        inner: CentroidStrategy,
        corruption: Corruption,
        corrupted: AtomicUsize,
    }

    struct HostileCtx<'a> {
        inner: CentroidCtx<'a>,
        corruption: Corruption,
        corrupted: &'a AtomicUsize,
    }

    impl RoundContext for HostileCtx<'_> {
        fn train_client(&self, s: &TrainSetting<'_>, telemetry: &Telemetry) -> SessionOutput {
            let mut out = self.inner.train_client(s, telemetry);
            if s.client_id == 0 {
                self.corrupted.fetch_add(1, Ordering::Relaxed);
                match self.corruption {
                    Corruption::NanValue => out.update.flat[4] = f32::NAN,
                    Corruption::WrongLength => out.update.flat.truncate(5),
                    Corruption::ZeroWeight => out.update.weight = 0.0,
                }
            }
            out
        }
    }

    impl FdilStrategy for HostileStrategy {
        fn name(&self) -> String {
            "Hostile".into()
        }

        fn init_global(&mut self) -> Vec<f32> {
            self.inner.init_global()
        }

        fn round_ctx<'a>(
            &'a self,
            _task: usize,
            _round: usize,
            global: &'a [f32],
            _broadcast: Option<&'a WireMessage>,
        ) -> Box<dyn RoundContext + 'a> {
            Box::new(HostileCtx {
                inner: CentroidCtx {
                    classes: self.inner.classes,
                    dim: self.inner.dim,
                    global,
                },
                corruption: self.corruption,
                corrupted: &self.corrupted,
            })
        }

        fn merge_client(
            &mut self,
            task: usize,
            round: usize,
            client_id: usize,
            message: WireMessage,
        ) {
            self.inner.merge_client(task, round, client_id, message);
        }

        fn predict(&mut self, global: &[f32], features: &Tensor) -> Vec<usize> {
            self.inner.predict(global, features)
        }

        fn eval_ctx<'a>(&'a self, global: &'a [f32]) -> Box<dyn EvalContext + 'a> {
            self.inner.eval_ctx(global)
        }
    }

    #[test]
    fn corrupted_updates_are_rejected_not_aggregated() {
        let ds = tiny_dataset();
        for corruption in [
            Corruption::NanValue,
            Corruption::WrongLength,
            Corruption::ZeroWeight,
        ] {
            let mut strat = HostileStrategy {
                inner: CentroidStrategy::new(3, 6),
                corruption,
                corrupted: AtomicUsize::new(0),
            };
            let res = FdilRunner::new(tiny_config()).run(&ds, &mut strat);
            let corrupted = strat.corrupted.load(Ordering::Relaxed) as u64;
            assert!(corrupted > 0, "{corruption:?}: client 0 was never selected");
            let rejected: u64 = res.rounds.iter().map(|r| r.clients_rejected).sum();
            let trained: u64 = res.rounds.iter().map(|r| r.clients_trained).sum();
            assert_eq!(rejected, corrupted, "{corruption:?}");
            assert_eq!(trained, res.traffic.client_updates, "{corruption:?}");
            assert_eq!(res.final_global.len(), 18, "{corruption:?}");
            assert!(
                res.final_global.iter().all(|x| x.is_finite()),
                "{corruption:?}: the global model was poisoned"
            );
            // A rejected update's merge message is dropped with it.
            assert!(
                strat.inner.merged.iter().all(|&(_, cid, _)| cid != 0),
                "{corruption:?}"
            );
        }
    }

    #[test]
    fn admissible_requires_length_finite_values_and_a_finite_positive_total() {
        let update = |flat: Vec<f32>, weight| WeightedUpdate { flat, weight };
        assert!(admissible(&update(vec![1.0, 2.0], 3.0), 2, 0.0));
        assert!(!admissible(&update(vec![1.0], 3.0), 2, 0.0));
        assert!(!admissible(&update(vec![1.0, f32::INFINITY], 3.0), 2, 0.0));
        assert!(!admissible(&update(vec![1.0, 2.0], -1.0), 2, 0.0));
        assert!(!admissible(&update(vec![1.0, 2.0], f32::NAN), 2, 0.0));
        // Each weight is finite, but the round's total would overflow.
        assert!(!admissible(&update(vec![1.0, 2.0], f32::MAX), 2, f32::MAX));
    }

    #[test]
    fn traffic_counts_encoded_frame_bytes() {
        let ds = tiny_dataset();
        let mut strat = CentroidStrategy::new(3, 6);
        let res = FdilRunner::new(tiny_config()).run(&ds, &mut strat);
        // Every participating client moves at least one ModelBroadcast down
        // and one ClientModelUpdate up, each a full header + 3*6 f32 model.
        let model_frame = WireMessage::ModelBroadcast(ModelBroadcast {
            task: 0,
            round: 0,
            model: vec![0.0; 18],
        })
        .encoded_len() as u64;
        assert!(res.traffic.down_bytes >= res.traffic.client_updates * model_frame);
        assert!(res.traffic.up_bytes > res.traffic.client_updates * model_frame);
    }

    #[test]
    fn train_once_applies_merge() {
        let ds = tiny_dataset();
        let mut strat = CentroidStrategy::new(3, 6);
        let global = strat.init_global();
        let samples = &ds.domains[0].train[..10];
        let setting = TrainSetting {
            client_id: 7,
            task: 0,
            round: 0,
            group: ClientGroup::New,
            samples,
            local_epochs: 1,
            batch_size: 16,
            seed: 42,
        };
        let update = strat.train_once(&setting, &global);
        assert_eq!(update.flat.len(), global.len());
        assert_eq!(strat.merged, vec![(0, 7, 10)]);
    }

    #[test]
    fn dropout_reduces_client_updates() {
        let ds = tiny_dataset();
        let mut s1 = CentroidStrategy::new(3, 6);
        let r_full = FdilRunner::new(tiny_config()).run(&ds, &mut s1);
        let mut s2 = CentroidStrategy::new(3, 6);
        let mut cfg = tiny_config();
        cfg.dropout_prob = 0.6;
        let r_drop = FdilRunner::new(cfg).run(&ds, &mut s2);
        assert!(
            r_drop.traffic.client_updates < r_full.traffic.client_updates,
            "dropout had no effect: {} vs {}",
            r_drop.traffic.client_updates,
            r_full.traffic.client_updates
        );
        // The protocol must survive rounds where every client drops.
        assert_eq!(r_drop.domain_acc.len(), ds.num_domains());
    }

    #[test]
    #[should_panic(expected = "invalid RunConfig")]
    fn run_rejects_invalid_config() {
        let ds = tiny_dataset();
        let mut cfg = tiny_config();
        cfg.batch_size = 0;
        let mut strat = CentroidStrategy::new(3, 6);
        let _ = FdilRunner::new(cfg).run(&ds, &mut strat);
    }

    #[test]
    fn metrics_derive_from_domain_matrix() {
        let res = RunResult {
            method: "m".into(),
            dataset: "d".into(),
            domain_names: vec!["a".into(), "b".into()],
            domain_acc: vec![vec![90.0], vec![60.0, 80.0]],
            traffic: TrafficStats::default(),
            group_timeline: vec![],
            final_global: vec![],
            telemetry: TelemetrySummary::default(),
            rounds: vec![],
        };
        let steps = res.step_accuracies();
        assert_eq!(steps, vec![90.0, 70.0]);
        assert!((res.avg_accuracy() - 80.0).abs() < 1e-5);
        assert!((res.last_accuracy() - 70.0).abs() < 1e-5);
        assert_eq!(res.final_domain_accuracies(), &[60.0, 80.0]);
    }

    #[test]
    fn round_reports_cover_every_round_with_phases_and_wire_bytes() {
        let ds = tiny_dataset();
        let mut strat = CentroidStrategy::new(3, 6);
        let telemetry = Telemetry::collecting();
        let res = FdilRunner::new(tiny_config())
            .telemetry(&telemetry)
            .threads(2)
            .run(&ds, &mut strat);
        assert_eq!(res.rounds.len() as u64, res.traffic.rounds);
        let mut trained = 0u64;
        for report in &res.rounds {
            trained += report.clients_trained;
            assert_eq!(report.sessions.len() as u64, report.clients_trained);
            assert!(report.wall_ns > 0);
            assert!(report.phases.train > 0);
            if report.clients_trained > 0 {
                assert!(report.wire_bytes.contains_key("model_broadcast"));
                assert!(report.wire_bytes.contains_key("client_model_update"));
                assert!(report.wire_bytes.contains_key("prompt_upload"));
                // Telemetry was enabled, so pool accounting must be present.
                let pool = report.train_pool.as_ref().expect("train pool stats");
                assert_eq!(pool.total_items(), report.clients_trained);
                assert!(pool.wall_ns > 0);
                // Sessions arrive in client-id order (slot order).
                let ids: Vec<u64> = report.sessions.iter().map(|s| s.client_id).collect();
                let mut sorted = ids.clone();
                sorted.sort_unstable();
                assert_eq!(ids, sorted);
            }
        }
        assert_eq!(trained, res.traffic.client_updates);
        // Exactly the task-closing rounds carry eval results.
        let evals: Vec<&RoundReport> = res
            .rounds
            .iter()
            .filter(|r| r.eval_domain_acc.is_some())
            .collect();
        assert_eq!(evals.len(), ds.num_domains());
        for (t, report) in evals.iter().enumerate() {
            assert_eq!(report.eval_domain_acc.as_ref().unwrap().len(), t + 1);
            assert!(report.phases.eval > 0);
            assert!(report.eval_pool.is_some());
        }
        // Per-round wire bytes partition the run totals exactly.
        let per_round: u64 = res.rounds.iter().map(RoundReport::total_wire_bytes).sum();
        assert_eq!(per_round, res.traffic.total_bytes());
    }

    #[test]
    fn round_report_semantic_fields_match_across_thread_counts() {
        let ds = tiny_dataset();
        let mut s1 = CentroidStrategy::new(3, 6);
        let mut s4 = CentroidStrategy::new(3, 6);
        let r1 = FdilRunner::new(tiny_config()).threads(1).run(&ds, &mut s1);
        let r4 = FdilRunner::new(tiny_config()).threads(4).run(&ds, &mut s4);
        assert_eq!(r1.rounds.len(), r4.rounds.len());
        for (a, b) in r1.rounds.iter().zip(&r4.rounds) {
            assert_eq!(a.task, b.task);
            assert_eq!(a.round, b.round);
            assert_eq!(a.wire_bytes, b.wire_bytes);
            assert_eq!(a.clients_trained, b.clients_trained);
            assert_eq!(a.clients_dropped, b.clients_dropped);
            assert_eq!(a.eval_domain_acc, b.eval_domain_acc);
            let ids =
                |r: &RoundReport| -> Vec<u64> { r.sessions.iter().map(|s| s.client_id).collect() };
            assert_eq!(ids(a), ids(b));
        }
    }

    #[test]
    fn disabled_telemetry_still_reports_rounds_without_pools() {
        let ds = tiny_dataset();
        let mut strat = CentroidStrategy::new(3, 6);
        let res = FdilRunner::new(tiny_config()).run(&ds, &mut strat);
        assert!(!res.rounds.is_empty());
        for report in &res.rounds {
            assert!(report.train_pool.is_none());
            assert!(report.eval_pool.is_none());
        }
    }

    #[test]
    fn session_seeds_decorrelate() {
        let a = session_seed(1, 0, 0, 0);
        let b = session_seed(1, 0, 0, 1);
        let c = session_seed(1, 0, 1, 0);
        let d = session_seed(2, 0, 0, 0);
        assert!(a != b && a != c && a != d && b != c);
    }

    /// Spawns `n` in-process client threads that connect to `endpoint`,
    /// handshake, and run the replica loop to completion.
    fn spawn_clients(
        endpoint: &refil_wire::Endpoint,
        ds: &FdilDataset,
        cfg: RunConfig,
        n: usize,
        opts: crate::net::ClientOptions,
    ) -> Vec<std::thread::JoinHandle<crate::net::ClientReport>> {
        (0..n)
            .map(|i| {
                let ep = endpoint.clone();
                let ds = ds.clone();
                std::thread::spawn(move || {
                    let deadline = Instant::now() + Duration::from_secs(30);
                    let link = refil_wire::connect(&ep, deadline).expect("connect failed");
                    let (pid, _spec, _token, compression) =
                        crate::net::client_handshake(&link, i as u64, None, deadline)
                            .expect("handshake failed");
                    let mut opts = opts;
                    opts.compression = compression;
                    let mut strat = CentroidStrategy::new(3, 6);
                    crate::net::run_client(
                        &link,
                        pid,
                        &ds,
                        &mut strat,
                        &cfg,
                        &opts,
                        &Telemetry::disabled(),
                    )
                    .expect("client failed")
                })
            })
            .collect()
    }

    #[test]
    fn serve_over_tcp_matches_in_process_run() {
        let ds = tiny_dataset();
        let mut cfg = tiny_config();
        cfg.net.min_peers = 2;
        let mut s_local = CentroidStrategy::new(3, 6);
        let local = FdilRunner::new(cfg).run(&ds, &mut s_local);

        let listener =
            refil_wire::NetListener::bind(&refil_wire::Endpoint::Tcp("127.0.0.1:0".into()))
                .expect("bind failed");
        let endpoint = listener.local_endpoint();
        let clients = spawn_clients(&endpoint, &ds, cfg, 2, crate::net::ClientOptions::default());
        let mut s_srv = CentroidStrategy::new(3, 6);
        let served = FdilRunner::new(cfg).serve(&ds, &mut s_srv, &listener, "tiny-spec");
        for c in clients {
            let report = c.join().expect("client thread panicked");
            assert_eq!(report.reason, 0, "client should end with COMPLETE");
            assert!(report.rounds > 0);
        }

        assert_eq!(local.final_global, served.final_global);
        assert_eq!(local.domain_acc, served.domain_acc);
        assert_eq!(local.traffic, served.traffic);
        assert_eq!(s_local.merged, s_srv.merged);
        assert!(served.rounds.iter().all(|r| r.clients_late == 0));
    }

    #[test]
    fn serve_reassigns_aborted_peers_sessions_mid_run() {
        let ds = tiny_dataset();
        let mut cfg = tiny_config();
        cfg.net.min_peers = 2;
        cfg.net.round_deadline_ms = 4000;
        cfg.net.join_grace_ms = 100;
        let mut s_local = CentroidStrategy::new(3, 6);
        let local = FdilRunner::new(cfg).run(&ds, &mut s_local);

        let listener =
            refil_wire::NetListener::bind(&refil_wire::Endpoint::Tcp("127.0.0.1:0".into()))
                .expect("bind failed");
        let endpoint = listener.local_endpoint();
        // One client aborts (drops the connection) after its second
        // RoundStart; the other stays for the whole run. The reactor
        // reassigns the aborted peer's slots to the survivor, so the run
        // completes with nothing late and byte-identical to the local run.
        let quitter = spawn_clients(
            &endpoint,
            &ds,
            cfg,
            1,
            crate::net::ClientOptions {
                abort_after_round_starts: Some(2),
                ..Default::default()
            },
        );
        let stayer = spawn_clients(&endpoint, &ds, cfg, 1, crate::net::ClientOptions::default());
        let mut s_srv = CentroidStrategy::new(3, 6);
        let served = FdilRunner::new(cfg).serve(&ds, &mut s_srv, &listener, "tiny-spec");
        for c in quitter.into_iter().chain(stayer) {
            c.join().expect("client thread panicked");
        }

        assert_eq!(served.traffic.rounds, 6);
        assert_eq!(served.domain_acc.len(), 2);
        let late: u64 = served.rounds.iter().map(|r| r.clients_late).sum();
        assert_eq!(late, 0, "orphaned sessions should be reassigned, not late");
        assert_eq!(local.final_global, served.final_global);
        assert_eq!(local.domain_acc, served.domain_acc);
        assert_eq!(local.traffic, served.traffic);
        assert_eq!(s_local.merged, s_srv.merged);
    }

    #[test]
    fn served_run_resumes_after_link_blip() {
        let ds = tiny_dataset();
        let mut cfg = tiny_config();
        cfg.net.min_peers = 2;
        cfg.net.round_deadline_ms = 4000;
        let mut s_local = CentroidStrategy::new(3, 6);
        let local = FdilRunner::new(cfg).run(&ds, &mut s_local);

        let listener =
            refil_wire::NetListener::bind(&refil_wire::Endpoint::Tcp("127.0.0.1:0".into()))
                .expect("bind failed");
        let endpoint = listener.local_endpoint();
        // One client deliberately drops its link after the second
        // RoundStart, then reconnects with its resume token; its replica
        // state survives the blip, the server replays only the missed
        // suffix, and the stranded slots are covered by the other peer.
        let ep = endpoint.clone();
        let ds2 = ds.clone();
        let blipper = std::thread::spawn(move || {
            let mut connect = || {
                refil_wire::connect(&ep, Instant::now() + Duration::from_secs(30))
                    .map(|l| Box::new(l) as Box<dyn refil_wire::Link>)
            };
            let mut strat = CentroidStrategy::new(3, 6);
            crate::net::run_client_resumable(
                &mut connect,
                7,
                &ds2,
                &mut strat,
                &cfg,
                &crate::net::ClientOptions {
                    drop_link_after_round_starts: Some(2),
                    max_reconnects: 1,
                    ..Default::default()
                },
                &Telemetry::disabled(),
            )
            .expect("resumable client failed")
        });
        let stayer = spawn_clients(&endpoint, &ds, cfg, 1, crate::net::ClientOptions::default());
        let mut s_srv = CentroidStrategy::new(3, 6);
        let served = FdilRunner::new(cfg).serve(&ds, &mut s_srv, &listener, "tiny-spec");
        let blip_report = blipper.join().expect("blipper thread panicked");
        for c in stayer {
            c.join().expect("client thread panicked");
        }

        assert_eq!(
            blip_report.resumes, 1,
            "the blip should resume exactly once"
        );
        assert_eq!(blip_report.reason, 0, "resumed client should see COMPLETE");
        let late: u64 = served.rounds.iter().map(|r| r.clients_late).sum();
        assert_eq!(late, 0, "blipped slots should be reassigned, not late");
        assert_eq!(local.final_global, served.final_global);
        assert_eq!(local.domain_acc, served.domain_acc);
        assert_eq!(local.traffic, served.traffic);
        assert_eq!(s_local.merged, s_srv.merged);
    }

    #[test]
    fn served_wrong_length_update_is_rejected_without_crashing() {
        let ds = tiny_dataset();
        let mut cfg = tiny_config();
        cfg.net.min_peers = 2;
        let listener =
            refil_wire::NetListener::bind(&refil_wire::Endpoint::Tcp("127.0.0.1:0".into()))
                .expect("bind failed");
        let endpoint = listener.local_endpoint();
        let honest = spawn_clients(&endpoint, &ds, cfg, 1, crate::net::ClientOptions::default());
        // A raw peer that answers every assigned session with a dense
        // update five parameters long, where the model has eighteen.
        let ep = endpoint.clone();
        let hostile = std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(30);
            let link = refil_wire::connect(&ep, deadline).expect("connect failed");
            crate::net::client_handshake(&link, 99, None, deadline).expect("handshake failed");
            let mut sent = 0u64;
            while let Ok(frame) = link.recv_deadline(Instant::now() + Duration::from_secs(30)) {
                match WireMessage::decode(&frame).expect("server frame decodes") {
                    WireMessage::RoundStart(rs) => {
                        for a in &rs.sessions {
                            let update = WireMessage::ClientModelUpdate(WireClientModelUpdate {
                                client_id: a.client_id,
                                weight: 1.0,
                                model: vec![0.5; 5],
                            });
                            let result = WireMessage::SessionResult(refil_wire::SessionResult {
                                task: rs.task,
                                round: rs.round,
                                client_id: a.client_id,
                                wall_ns: 0,
                                update: update.encode(),
                                merge: None,
                            });
                            link.send(&result.encode()).expect("send failed");
                            sent += 1;
                        }
                    }
                    WireMessage::RunEnd(_) => break,
                    _ => {}
                }
            }
            sent
        });
        let mut strat = CentroidStrategy::new(3, 6);
        let served = FdilRunner::new(cfg).serve(&ds, &mut strat, &listener, "tiny-spec");
        let sent = hostile.join().expect("hostile peer panicked");
        for c in honest {
            let report = c.join().expect("client thread panicked");
            assert_eq!(report.reason, 0, "the honest client should see COMPLETE");
        }

        assert!(sent > 0, "the hostile peer was never dealt a session");
        let rejected: u64 = served.rounds.iter().map(|r| r.clients_rejected).sum();
        let late: u64 = served.rounds.iter().map(|r| r.clients_late).sum();
        assert_eq!(rejected, sent);
        assert_eq!(late, 0);
        assert_eq!(served.domain_acc.len(), 2);
        assert_eq!(served.final_global.len(), 18);
        assert!(served.final_global.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn holdings_rebuild_both_concatenates_in_order() {
        let ds = tiny_dataset();
        let mut h = Holdings {
            old: ds.domains[0].train[..3].to_vec(),
            new: ds.domains[1].train[..2].to_vec(),
            both: Vec::new(),
        };
        h.rebuild_both();
        assert_eq!(h.both.len(), 5);
        assert_eq!(h.both[0].label, h.old[0].label);
        assert_eq!(h.both[3].label, h.new[0].label);
        let cap = h.both.capacity();
        h.rebuild_both();
        assert_eq!(h.both.capacity(), cap, "rebuild must reuse the buffer");
    }
}
