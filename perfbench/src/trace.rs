//! Delegating wrappers that time calls into each layer's public API from
//! outside the program: the strategy hooks ([`FdilStrategy`],
//! [`RoundContext`], [`EvalContext`], [`DomainEvaluator`]) and the wire
//! transport ([`Link`], [`Listener`]). Every trait method is forwarded —
//! including the readiness methods with trait defaults — so the runner and
//! the reactor see exactly the behaviour of the wrapped object.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use refil_data::Sample;
use refil_fed::{
    ConnectError, DomainEvaluator, EvalContext, FdilStrategy, Link, Listener, PeerId, RecvError,
    RoundContext, SessionOutput, Telemetry, TrainSetting, WireError, WireMessage,
};
use refil_nn::Tensor;

/// Calls to one hook and the wall time spent inside them.
#[derive(Debug, Default, Clone, Copy)]
pub struct Busy {
    pub calls: u64,
    pub ns: u64,
}

impl Busy {
    fn add(&mut self, took: Duration) {
        self.calls += 1;
        self.ns += u64::try_from(took.as_nanos()).unwrap_or(u64::MAX);
    }

    pub fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }
}

/// What the strategy-side wrappers measured.
#[derive(Debug, Default)]
pub struct StrategyStats {
    pub train_client: Busy,
    /// Per-session wall times, ms.
    pub train_ms: Vec<f64>,
    /// Samples processed by training (`|samples| × local_epochs`).
    pub train_samples: u64,
    pub round_broadcast: Busy,
    pub round_ctx: Busy,
    pub merge_client: Busy,
    pub on_round_end: Busy,
    pub on_task_start: Busy,
    pub on_task_end: Busy,
    /// `eval_ctx` and per-worker `evaluator` construction.
    pub eval_setup: Busy,
    pub predict: Busy,
    pub predict_rows: u64,
}

impl StrategyStats {
    /// Time in every hook the runner calls between rounds' training
    /// (excludes training and evaluation).
    pub fn server_hooks_ns(&self) -> u64 {
        self.round_broadcast.ns
            + self.round_ctx.ns
            + self.merge_client.ns
            + self.on_round_end.ns
            + self.on_task_start.ns
            + self.on_task_end.ns
    }

    /// Evaluation time: context construction plus predictions.
    pub fn eval_ns(&self) -> u64 {
        self.eval_setup.ns + self.predict.ns
    }

    /// Client-replica state replay: the hooks a replica fires while
    /// applying `TaskBegin`/`RoundSync`/`TaskEnd` frames.
    pub fn replay_ns(&self) -> u64 {
        self.merge_client.ns + self.on_round_end.ns + self.on_task_start.ns + self.on_task_end.ns
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("trace stats lock poisoned by a panicking hook")
}

/// A strategy wrapper. Untraced (`stats: None`) it only forwards and
/// notes when the first task starts — the end of set-up; traced it also
/// times every hook.
pub struct Probe {
    inner: Box<dyn FdilStrategy>,
    stats: Option<Arc<Mutex<StrategyStats>>>,
    first_task_start: Option<Instant>,
    rss_at_first_task: Option<f64>,
}

impl Probe {
    pub fn new(inner: Box<dyn FdilStrategy>, stats: Option<Arc<Mutex<StrategyStats>>>) -> Self {
        Self {
            inner,
            stats,
            first_task_start: None,
            rss_at_first_task: None,
        }
    }

    /// When the runner first called `on_task_start` (the first round is
    /// about to open).
    pub fn first_task_start(&self) -> Option<Instant> {
        self.first_task_start
    }

    /// Resident set size when set-up ended (traced runs only).
    pub fn rss_at_first_task(&self) -> Option<f64> {
        self.rss_at_first_task
    }

    /// Starts timing a hook (traced runs only).
    fn start(&self) -> Option<Instant> {
        self.stats.as_ref().map(|_| Instant::now())
    }

    /// Adds the time since `start` to the hook `pick` selects.
    fn record(&self, start: Option<Instant>, pick: fn(&mut StrategyStats) -> &mut Busy) {
        if let (Some(stats), Some(start)) = (&self.stats, start) {
            pick(&mut lock(stats)).add(start.elapsed());
        }
    }
}

impl FdilStrategy for Probe {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.inner.attach_telemetry(telemetry);
    }

    fn init_global(&mut self) -> Vec<f32> {
        self.inner.init_global()
    }

    fn on_task_start(&mut self, task: usize, global: &[f32]) {
        if self.first_task_start.is_none() {
            self.first_task_start = Some(Instant::now());
            if self.stats.is_some() {
                self.rss_at_first_task = crate::sys::rss_mb();
            }
        }
        let start = self.start();
        self.inner.on_task_start(task, global);
        self.record(start, |s| &mut s.on_task_start);
    }

    fn round_broadcast(&self, task: usize, round: usize) -> Option<WireMessage> {
        let start = self.start();
        let out = self.inner.round_broadcast(task, round);
        self.record(start, |s| &mut s.round_broadcast);
        out
    }

    fn exchange_mask(&self, task: u64) -> Option<Vec<u32>> {
        self.inner.exchange_mask(task)
    }

    fn round_ctx<'a>(
        &'a self,
        task: usize,
        round: usize,
        global: &'a [f32],
        broadcast: Option<&'a WireMessage>,
    ) -> Box<dyn RoundContext + 'a> {
        let start = self.start();
        let ctx = self.inner.round_ctx(task, round, global, broadcast);
        self.record(start, |s| &mut s.round_ctx);
        match self.stats.as_deref() {
            None => ctx,
            Some(stats) => Box::new(TimedRound { inner: ctx, stats }),
        }
    }

    fn merge_client(&mut self, task: usize, round: usize, client_id: usize, message: WireMessage) {
        let start = self.start();
        self.inner.merge_client(task, round, client_id, message);
        self.record(start, |s| &mut s.merge_client);
    }

    fn on_round_end(&mut self, task: usize, round: usize, global: &[f32]) {
        let start = self.start();
        self.inner.on_round_end(task, round, global);
        self.record(start, |s| &mut s.on_round_end);
    }

    fn on_task_end(&mut self, task: usize, global: &[f32], client_data: &[(usize, Vec<Sample>)]) {
        let start = self.start();
        self.inner.on_task_end(task, global, client_data);
        self.record(start, |s| &mut s.on_task_end);
    }

    fn predict(&mut self, global: &[f32], features: &Tensor) -> Vec<usize> {
        self.inner.predict(global, features)
    }

    fn cls_embeddings(&mut self, global: &[f32], features: &Tensor) -> Vec<Vec<f32>> {
        self.inner.cls_embeddings(global, features)
    }

    fn eval_ctx<'a>(&'a self, global: &'a [f32]) -> Box<dyn EvalContext + 'a> {
        let start = self.start();
        let ctx = self.inner.eval_ctx(global);
        self.record(start, |s| &mut s.eval_setup);
        match self.stats.as_deref() {
            None => ctx,
            Some(stats) => Box::new(TimedEval { inner: ctx, stats }),
        }
    }

    fn predict_domain(&mut self, global: &[f32], features: &Tensor, domain: usize) -> Vec<usize> {
        self.inner.predict_domain(global, features, domain)
    }
}

/// Times each client session of one round.
struct TimedRound<'a> {
    inner: Box<dyn RoundContext + 'a>,
    stats: &'a Mutex<StrategyStats>,
}

impl RoundContext for TimedRound<'_> {
    fn train_client(&self, setting: &TrainSetting<'_>, telemetry: &Telemetry) -> SessionOutput {
        let start = Instant::now();
        let out = self.inner.train_client(setting, telemetry);
        let took = start.elapsed();
        let mut s = lock(self.stats);
        s.train_client.add(took);
        s.train_ms.push(took.as_secs_f64() * 1e3);
        s.train_samples += (setting.samples.len() * setting.local_epochs.max(1)) as u64;
        out
    }
}

/// Times evaluator construction for one evaluation sweep.
struct TimedEval<'a> {
    inner: Box<dyn EvalContext + 'a>,
    stats: &'a Mutex<StrategyStats>,
}

impl EvalContext for TimedEval<'_> {
    fn evaluator(&self) -> Box<dyn DomainEvaluator + '_> {
        let start = Instant::now();
        let inner = self.inner.evaluator();
        lock(self.stats).eval_setup.add(start.elapsed());
        Box::new(TimedEvaluator {
            inner,
            stats: self.stats,
        })
    }
}

/// Times each prediction batch.
struct TimedEvaluator<'a> {
    inner: Box<dyn DomainEvaluator + 'a>,
    stats: &'a Mutex<StrategyStats>,
}

impl DomainEvaluator for TimedEvaluator<'_> {
    fn predict_domain(&mut self, features: &Tensor, domain: usize) -> Vec<usize> {
        let start = Instant::now();
        let out = self.inner.predict_domain(features, domain);
        let mut s = lock(self.stats);
        s.predict.add(start.elapsed());
        s.predict_rows += features.shape()[0] as u64;
        out
    }
}

/// Largest number of frame bytes one run keeps for codec replay.
const CAPTURE_LIMIT_BYTES: usize = 48 << 20;

/// What the transport wrappers measured (summed over every wrapped link).
#[derive(Debug, Default)]
pub struct LinkStats {
    pub frames_tx: u64,
    pub frames_rx: u64,
    pub bytes_tx: u64,
    pub bytes_rx: u64,
    /// Wall time inside link and listener methods.
    pub busy: Busy,
    pub try_recv_calls: u64,
    pub try_recv_empty: u64,
    pub pending_tx_max: usize,
    /// Frames kept for codec replay, in send/receive order.
    pub captured_tx: Vec<Vec<u8>>,
    pub captured_rx: Vec<Vec<u8>>,
    captured_bytes: usize,
}

impl LinkStats {
    fn capture(&mut self, frame: &[u8], rx: bool) {
        if self.captured_bytes + frame.len() > CAPTURE_LIMIT_BYTES {
            return;
        }
        self.captured_bytes += frame.len();
        if rx {
            self.captured_rx.push(frame.to_vec());
        } else {
            self.captured_tx.push(frame.to_vec());
        }
    }

    fn sent(&mut self, frame: &[u8]) {
        self.frames_tx += 1;
        self.bytes_tx += frame.len() as u64;
        self.capture(frame, false);
    }

    fn received(&mut self, frame: &[u8], capture: bool) {
        self.frames_rx += 1;
        self.bytes_rx += frame.len() as u64;
        if capture {
            self.capture(frame, true);
        }
    }
}

/// A [`Link`] wrapper that counts and times every call.
pub struct TimedLink {
    inner: Box<dyn Link>,
    stats: Arc<Mutex<LinkStats>>,
    /// Keep received frames for replay. Off for in-memory echo links, whose
    /// received frames are the ones just sent.
    capture_rx: bool,
}

impl TimedLink {
    pub fn new(inner: Box<dyn Link>, stats: Arc<Mutex<LinkStats>>, capture_rx: bool) -> Self {
        Self {
            inner,
            stats,
            capture_rx,
        }
    }

    fn time<T>(&self, f: impl FnOnce() -> T, note: impl FnOnce(&mut LinkStats, &T)) -> T {
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        let mut s = lock(&self.stats);
        s.busy.add(took);
        note(&mut s, &out);
        out
    }
}

impl Link for TimedLink {
    fn peer_id(&self) -> PeerId {
        self.inner.peer_id()
    }

    fn send(&self, frame: &[u8]) -> Result<(), WireError> {
        self.time(
            || self.inner.send(frame),
            |s, r| {
                if r.is_ok() {
                    s.sent(frame);
                }
            },
        )
    }

    fn recv_deadline(&self, deadline: Instant) -> Result<Vec<u8>, RecvError> {
        let capture = self.capture_rx;
        self.time(
            || self.inner.recv_deadline(deadline),
            |s, r| {
                if let Ok(frame) = r {
                    s.received(frame, capture);
                }
            },
        )
    }

    fn set_nonblocking(&self, on: bool) -> Result<(), WireError> {
        self.time(|| self.inner.set_nonblocking(on), |_, _| {})
    }

    fn try_recv_frame(&self) -> Result<Option<Vec<u8>>, RecvError> {
        let capture = self.capture_rx;
        self.time(
            || self.inner.try_recv_frame(),
            |s, r| {
                s.try_recv_calls += 1;
                match r {
                    Ok(Some(frame)) => s.received(frame, capture),
                    Ok(None) => s.try_recv_empty += 1,
                    Err(_) => {}
                }
            },
        )
    }

    fn enqueue_frame(&self, frame: &[u8]) -> Result<usize, WireError> {
        self.time(
            || self.inner.enqueue_frame(frame),
            |s, r| {
                if let Ok(pending) = r {
                    s.sent(frame);
                    s.pending_tx_max = s.pending_tx_max.max(*pending);
                }
            },
        )
    }

    fn try_flush(&self) -> Result<usize, WireError> {
        self.time(
            || self.inner.try_flush(),
            |s, r| {
                if let Ok(pending) = r {
                    s.pending_tx_max = s.pending_tx_max.max(*pending);
                }
            },
        )
    }

    fn pending_tx(&self) -> usize {
        self.time(|| self.inner.pending_tx(), |_, _| {})
    }

    fn poll_fd(&self) -> Option<i32> {
        self.inner.poll_fd()
    }

    fn close(&self) {
        self.time(|| self.inner.close(), |_, _| {});
    }
}

/// A [`Listener`] wrapper whose accepted links are [`TimedLink`]s.
pub struct TimedListener {
    inner: Box<dyn Listener>,
    stats: Arc<Mutex<LinkStats>>,
}

impl TimedListener {
    pub fn new(inner: Box<dyn Listener>, stats: Arc<Mutex<LinkStats>>) -> Self {
        Self { inner, stats }
    }

    fn wrap(&self, link: Box<dyn Link>) -> Box<dyn Link> {
        Box::new(TimedLink::new(link, Arc::clone(&self.stats), true))
    }

    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        lock(&self.stats).busy.add(start.elapsed());
        out
    }
}

impl Listener for TimedListener {
    fn accept_deadline(&self, deadline: Instant) -> Result<Box<dyn Link>, ConnectError> {
        self.time(|| self.inner.accept_deadline(deadline))
            .map(|link| self.wrap(link))
    }

    fn try_accept_link(&self) -> Result<Option<Box<dyn Link>>, ConnectError> {
        self.time(|| self.inner.try_accept_link())
            .map(|link| link.map(|l| self.wrap(l)))
    }

    fn poll_fd(&self) -> Option<i32> {
        self.inner.poll_fd()
    }

    fn local_addr(&self) -> String {
        self.inner.local_addr()
    }
}
