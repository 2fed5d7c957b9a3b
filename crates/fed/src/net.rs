//! Networked federation: the socket-backed server reactor behind
//! [`FdilRunner::serve`](crate::FdilRunner::serve) and the client replicas
//! that peer processes run.
//!
//! # Three-layer split
//!
//! The round *protocol* (selection, FedAvg, ordered merges, evaluation)
//! lives in the runner and never changes between the in-process and
//! networked paths. This module adds the middle layer — a server-side
//! [`ServeState`] reactor that assigns planned sessions to connected peers
//! and collects their results under a deadline, plus the client-side
//! replica loops — on top of the bottom layer, `refil-wire`'s
//! peer-addressed [`Link`]/[`Listener`] transports.
//!
//! # The reactor
//!
//! One loop — [`ServeState::pump`] — owns every connection: it polls the
//! listener and all peer sockets through one [`PollSet`], accepts joins,
//! reads frames, drains outbound queues, and expires handshake deadlines.
//! No thread is ever spawned per peer; the thread count of a serving
//! process is independent of how many peers connect. Each peer moves
//! through an explicit lifecycle:
//!
//! ```text
//! accept ──► Joining ──Hello──► Idle ──assign──► Selected ──flushed──► Training
//!               │                ▲                                        │
//!               │ (timeout)      └──────────── all results in ◄───────────┤
//!               ▼                                                         │ (deadline)
//!          Disconnected ◄─── link error / RunEnd / backpressure          Late
//! ```
//!
//! Sends are enqueued onto the link's bounded outbound queue and flushed
//! opportunistically by the pump; a peer whose queue exceeds
//! `net.send_queue_max_bytes` (when set) is disconnected as too slow.
//!
//! # Session resumption
//!
//! The `Welcome` hands every peer an opaque resume token. A client whose
//! connection blips — but whose replica state survived — reconnects with
//! `Hello { resume: Some(Resume { token, cursor }) }`, where `cursor`
//! counts the lifecycle frames its replica already applied; the server
//! replays only the missed suffix of its replay log. A fresh process (no
//! surviving state) simply joins anew and receives the full log. Slots a
//! disconnected peer left pending are immediately reassigned to the
//! least-loaded live peer via a supplementary `RoundStart`, so a crash or
//! blip does not strand sessions: the run completes byte-identical to an
//! undisturbed one.
//!
//! # State replication
//!
//! Everything a client needs besides the round randomness is a
//! deterministic function of the run config and dataset: the schedule, the
//! quantity-shift partition, and the holdings evolution are all seeded from
//! `cfg.seed` alone. A client therefore rebuilds that state locally and
//! replays the server's lifecycle frames — `TaskBegin` (task setup),
//! `RoundStart` (train assigned sessions), `RoundSync` (ordered merges +
//! round-end hook), `TaskEnd` (task teardown), `RunEnd` — while the server
//! keeps exclusively what must be centralized: client selection, dropout
//! and sampling RNGs, FedAvg, and evaluation.
//!
//! Payload exchanges (`ModelBroadcast`, `ClientModelUpdate` or its
//! compressed form `CompressedModelUpdate`, merge
//! messages) ride *inside* control frames as nested encoded frames, so the
//! per-logical-client traffic accounting of a networked run is
//! byte-identical to the loopback run's. Replicas build the nested update
//! with the same `uplink_update` the in-process driver uses, and the server
//! decodes it into the same `RemoteSession` the driver's echo uplink
//! yields. Physical per-peer socket traffic is reported separately through
//! `net.*` telemetry counters.
//!
//! # Deadline semantics
//!
//! Each round the server pumps the reactor for at most
//! `cfg.net.round_deadline_ms`. A session whose result misses the deadline
//! is counted as `clients_late` in the round's report and simply omitted
//! from FedAvg — the round always completes. Results arriving later are
//! discarded by their task/round tag.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use refil_data::FdilDataset;
use refil_telemetry::SessionStat;
use refil_telemetry::Telemetry;
use refil_wire::{
    ClientModelUpdate as WireClientModelUpdate, CompressedModelUpdate, CompressionSpec,
    ConnectError, Hello, Interest, Link, Listener, PeerId, PollSet, RecvError, Resume, RoundStart,
    RoundSync, RunEnd, SessionAssignment, SessionResult, TaskBegin, TaskEnd, Welcome, WireError,
    WireMessage,
};

use crate::config::{NetConfig, RunConfig};
use crate::increment::{build_schedule, ClientGroup, TaskSchedule};
use crate::runner::{
    carry_forward, collect_client_data, distribute_task_data, ClientUpdate, FdilStrategy, Holdings,
    TrainSetting,
};

/// How long a joining peer gets to complete the `Hello`/`Welcome` handshake.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);
/// Longest single poll wait inside the reactor; bounds the latency of
/// deadline checks without spinning.
const PUMP_SLICE: Duration = Duration::from_millis(25);
/// Poll token reserved for the listener (peer ids never reach it).
const LISTENER_TOKEN: u64 = u64::MAX;

/// Number of live threads in this process, when the platform exposes it
/// (Linux: entries of `/proc/self/task`). Used by tests and benches to pin
/// the reactor's no-thread-per-peer property.
pub fn process_thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(|dir| dir.filter_map(Result::ok).count())
}

/// Wire group code for a [`ClientGroup`] (`SessionAssignment::group`).
pub(crate) fn group_code(group: ClientGroup) -> u8 {
    match group {
        ClientGroup::Old => 0,
        ClientGroup::Between => 1,
        ClientGroup::New => 2,
    }
}

/// Inverse of [`group_code`]; `None` for an unknown code.
fn group_from_code(code: u8) -> Option<ClientGroup> {
    match code {
        0 => Some(ClientGroup::Old),
        1 => Some(ClientGroup::Between),
        2 => Some(ClientGroup::New),
        _ => None,
    }
}

/// A decoded client uplink: either the plain dense update or the
/// compression-layer frame the server still has to reconstruct against its
/// broadcast history.
pub(crate) enum RemoteUpdate {
    /// Dense `ClientModelUpdate` (the run or this task does not compress).
    Plain(WireClientModelUpdate),
    /// `CompressedModelUpdate` awaiting reconstruction against the broadcast
    /// tagged `(base_task, base_round)`.
    Compressed(CompressedModelUpdate),
}

/// One remote session's collected result, already decoded into exactly what
/// the aggregate loop consumes on the in-process path.
pub(crate) struct RemoteSession {
    /// Decoded nested model update (plain or compressed).
    pub(crate) update: RemoteUpdate,
    /// Encoded length of the nested update frame (logical uplink bytes).
    pub(crate) update_bytes: u64,
    /// Decoded nested merge message with its frame length, if any.
    pub(crate) merge: Option<(WireMessage, u64)>,
    /// Session stat (track 0 — the session ran on a remote peer, not a
    /// local worker slot; the duration is the client's reported wall time).
    pub(crate) stat: SessionStat,
}

impl RemoteUpdate {
    /// The decoded uplink `msg` as a model update, or a `Malformed` error
    /// when it is any other kind.
    pub(crate) fn from_message(msg: WireMessage) -> Result<Self, WireError> {
        match msg {
            WireMessage::ClientModelUpdate(u) => Ok(Self::Plain(u)),
            WireMessage::CompressedModelUpdate(c) => Ok(Self::Compressed(c)),
            _ => Err(WireError::Malformed(
                "nested update is not a model update frame",
            )),
        }
    }
}

/// The uplink message for one trained session, built against the round's
/// decoded broadcast `base` (tagged `task`/`round`). It is a
/// `CompressedModelUpdate` while the `negotiated` spec is lossy or the
/// task's exchange `mask` restricts the coordinates, and a dense
/// `ClientModelUpdate` otherwise (prompt-only RefFiL's mask is `None` for
/// its warm-up task 0). The in-process driver and remote clients both build
/// their uplink here, which keeps loopback and networked runs
/// byte-identical.
pub(crate) fn uplink_update(
    negotiated: Option<CompressionSpec>,
    mask: Option<&[u32]>,
    client_id: u64,
    update: ClientUpdate,
    base: &[f32],
    task: u32,
    round: u32,
) -> WireMessage {
    match negotiated.filter(|s| s.is_active() || mask.is_some()) {
        Some(spec) => WireMessage::CompressedModelUpdate(CompressedModelUpdate::compress(
            &spec,
            mask,
            client_id,
            update.weight,
            &update.flat,
            base,
            task,
            round,
        )),
        None => WireMessage::ClientModelUpdate(WireClientModelUpdate {
            client_id,
            weight: update.weight,
            model: update.flat,
        }),
    }
}

/// Decodes a `SessionResult`'s nested frames into a [`RemoteSession`].
fn remote_session(sr: SessionResult) -> Result<RemoteSession, WireError> {
    let update_bytes = sr.update.len() as u64;
    let update = RemoteUpdate::from_message(WireMessage::decode(&sr.update)?)?;
    let merge = match sr.merge {
        Some(frame) => {
            let bytes = frame.len() as u64;
            Some((WireMessage::decode(&frame)?, bytes))
        }
        None => None,
    };
    Ok(RemoteSession {
        update,
        update_bytes,
        merge,
        stat: SessionStat {
            client_id: sr.client_id,
            track: 0,
            duration_ns: sr.wall_ns,
        },
    })
}

/// Where a peer is in its connection lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PeerState {
    /// Accepted; the `Hello` has until the handshake deadline to arrive.
    Joining,
    /// Handshaked, no work outstanding.
    Idle,
    /// Assigned slots this round; the `RoundStart` is still queued.
    Selected,
    /// `RoundStart` fully flushed; results expected.
    Training,
    /// Still connected but missed the round deadline.
    Late,
    /// Link closed or errored; pruned at the end of the pump pass.
    Disconnected,
}

/// One connected peer process, as the reactor sees it.
struct Peer {
    link: Box<dyn Link>,
    peer_id: PeerId,
    state: PeerState,
    /// Resume token minted at handshake (0 while still `Joining`).
    token: u64,
    /// Round slots awaiting this peer's results.
    pending_slots: Vec<usize>,
    /// `Hello` deadline while `Joining`.
    joined_by: Instant,
}

impl Peer {
    /// Queues a frame on the peer's link and accounts the physical bytes.
    /// Returns `false` when the link has failed.
    fn enqueue(&mut self, telemetry: &Telemetry, frame: &[u8]) -> bool {
        match self.link.enqueue_frame(frame) {
            Ok(_pending) => {
                if telemetry.is_enabled() {
                    telemetry.counter(
                        &format!("net.peer.{}.tx_bytes", self.peer_id),
                        frame.len() as u64,
                    );
                }
                true
            }
            Err(_) => false,
        }
    }

    fn handshaked(&self) -> bool {
        !matches!(self.state, PeerState::Joining | PeerState::Disconnected)
    }
}

/// Server-side reactor and round state for [`FdilRunner::serve`]
/// (crate-private: the runner drives it at fixed protocol points).
///
/// [`FdilRunner::serve`]: crate::FdilRunner::serve
pub(crate) struct ServeState<'a> {
    listener: &'a dyn Listener,
    spec: String,
    net: NetConfig,
    /// Compression spec sent in every peer's `Welcome` (`None` when the
    /// run exchanges plain dense updates).
    compression: Option<CompressionSpec>,
    telemetry: Telemetry,
    peers: Vec<Peer>,
    /// Resume tokens of disconnected-but-resumable sessions.
    resumable: HashSet<u64>,
    /// Next resume token to mint (opaque; uniqueness is all that matters).
    next_token: u64,
    /// Lifecycle frames (`TaskBegin`/`RoundSync`/`TaskEnd`) in emission
    /// order; replayed to joiners (fully) and resumers (from their cursor).
    replay: Vec<Vec<u8>>,
    /// Current round's tag, for matching incoming `SessionResult`s.
    round_task: u32,
    round_round: u32,
    /// Whether a round is open (between `begin_round` and `collect` return).
    round_open: bool,
    /// Planned-session client ids, ascending (slot order).
    expected_cids: Vec<u64>,
    /// The round's assignments, slot-indexed, for supplementary
    /// `RoundStart`s when slots are reassigned.
    assignments: Vec<SessionAssignment>,
    /// The round's broadcast frames, for supplementary `RoundStart`s.
    model_frame: Vec<u8>,
    extra_frame: Option<Vec<u8>>,
    /// Collected results, slot-indexed.
    slots: Vec<Option<RemoteSession>>,
    collected: usize,
    /// Slots with no live peer to run them (reassigned to the next joiner).
    orphan_slots: Vec<usize>,
    poll: PollSet,
    ready: Vec<u64>,
}

impl<'a> ServeState<'a> {
    pub(crate) fn new(
        listener: &'a dyn Listener,
        spec: &str,
        net: NetConfig,
        compression: Option<CompressionSpec>,
        telemetry: Telemetry,
    ) -> Self {
        Self {
            listener,
            spec: spec.to_string(),
            net,
            compression,
            telemetry,
            peers: Vec::new(),
            resumable: HashSet::new(),
            next_token: 1,
            replay: Vec::new(),
            round_task: 0,
            round_round: 0,
            round_open: false,
            expected_cids: Vec::new(),
            assignments: Vec::new(),
            model_frame: Vec::new(),
            extra_frame: None,
            slots: Vec::new(),
            collected: 0,
            orphan_slots: Vec::new(),
            poll: PollSet::new(),
            ready: Vec::new(),
        }
    }

    /// Count of peers past the handshake and not disconnected.
    fn handshaked(&self) -> usize {
        self.peers.iter().filter(|p| p.handshaked()).count()
    }

    /// One reactor pass: poll every source (bounded by `wait`), accept
    /// pending joins, flush and read every live peer, expire handshake
    /// deadlines, and prune disconnected peers.
    ///
    /// Readiness from the poll only bounds the wait — every peer is
    /// serviced each pass (non-blocking reads are cheap, and fd-less links
    /// have no readiness signal), so a missed edge can never wedge a peer.
    fn pump(&mut self, wait: Duration) {
        self.telemetry.counter("net.reactor.polls", 1);
        self.poll.clear();
        self.poll
            .register(LISTENER_TOKEN, self.listener.poll_fd(), Interest::Read);
        for peer in &self.peers {
            if peer.state == PeerState::Disconnected {
                continue;
            }
            let interest = if peer.link.pending_tx() > 0 {
                Interest::ReadWrite
            } else {
                Interest::Read
            };
            self.poll
                .register(peer.peer_id, peer.link.poll_fd(), interest);
        }
        let mut ready = std::mem::take(&mut self.ready);
        if self.poll.wait(wait, &mut ready) > 0 {
            self.telemetry.counter("net.reactor.wakeups", 1);
        }
        self.ready = ready;

        while let Ok(Some(link)) = self.listener.try_accept_link() {
            self.accept(link);
        }
        let now = Instant::now();
        for pi in 0..self.peers.len() {
            self.service(pi, now);
        }
        self.peers.retain(|p| p.state != PeerState::Disconnected);
    }

    /// Registers a fresh connection in the `Joining` state.
    fn accept(&mut self, link: Box<dyn Link>) {
        let _ = link.set_nonblocking(true);
        self.telemetry.counter("net.reactor.accepts", 1);
        self.peers.push(Peer {
            peer_id: link.peer_id(),
            link,
            state: PeerState::Joining,
            token: 0,
            pending_slots: Vec::new(),
            joined_by: Instant::now() + HANDSHAKE_TIMEOUT,
        });
    }

    /// Services one peer: flush its queue, apply the backpressure policy,
    /// promote `Selected` → `Training` once the `RoundStart` is out, expire
    /// a stale handshake, then read and dispatch every available frame.
    fn service(&mut self, pi: usize, now: Instant) {
        if self.peers[pi].state == PeerState::Disconnected {
            return;
        }
        if self.peers[pi].link.pending_tx() > 0 {
            match self.peers[pi].link.try_flush() {
                Ok(left) => {
                    if self.net.send_queue_max_bytes > 0 && left > self.net.send_queue_max_bytes {
                        self.telemetry.counter("net.reactor.slow_disconnects", 1);
                        self.disconnect(pi, true);
                        return;
                    }
                }
                Err(_) => {
                    self.disconnect(pi, true);
                    return;
                }
            }
        }
        if self.peers[pi].state == PeerState::Selected && self.peers[pi].link.pending_tx() == 0 {
            self.peers[pi].state = PeerState::Training;
        }
        if self.peers[pi].state == PeerState::Joining && now > self.peers[pi].joined_by {
            // Never completed the handshake: drop silently (no session to
            // resume, nothing assigned).
            self.peers[pi].link.close();
            self.peers[pi].state = PeerState::Disconnected;
            return;
        }
        loop {
            match self.peers[pi].link.try_recv_frame() {
                Ok(Some(frame)) => {
                    if !self.on_frame(pi, &frame) {
                        return;
                    }
                }
                Ok(None) => return,
                Err(_) => {
                    self.disconnect(pi, true);
                    return;
                }
            }
        }
    }

    /// Dispatches one inbound frame. Returns `false` when the peer was
    /// disconnected while handling it.
    fn on_frame(&mut self, pi: usize, frame: &[u8]) -> bool {
        if self.telemetry.is_enabled() {
            self.telemetry.counter(
                &format!("net.peer.{}.rx_bytes", self.peers[pi].peer_id),
                frame.len() as u64,
            );
        }
        let msg = match WireMessage::decode(frame) {
            Ok(msg) => msg,
            Err(_) => {
                self.disconnect(pi, true);
                return false;
            }
        };
        match (self.peers[pi].state, msg) {
            (PeerState::Joining, WireMessage::Hello(hello)) => self.handshake(pi, hello),
            (PeerState::Joining, _) => {
                // Anything but a Hello before the handshake is a protocol
                // violation; the connection carries no resumable session.
                self.disconnect(pi, false);
                false
            }
            (_, WireMessage::SessionResult(sr)) => self.on_result(pi, sr),
            (_, WireMessage::RunEnd(_)) => {
                // Voluntary leave or abort notice: deliberate, so the
                // session is not kept resumable.
                self.disconnect(pi, false);
                false
            }
            (_, _) => {
                self.telemetry.counter("net.stale_frames", 1);
                true
            }
        }
    }

    /// Completes the server side of the handshake: mints (or validates) the
    /// resume token, sends the `Welcome` plus the owed slice of the replay
    /// log, and hands any orphaned round slots to the newcomer.
    fn handshake(&mut self, pi: usize, hello: Hello) -> bool {
        let (token, replay_from) = match hello.resume {
            Some(resume) => {
                // A resumption claim must name a disconnected session and a
                // cursor within the log; anything else is a protocol
                // violation (honoring it would desynchronize the replica).
                if !self.resumable.remove(&resume.token)
                    || resume.cursor as usize > self.replay.len()
                {
                    self.disconnect(pi, false);
                    return false;
                }
                self.telemetry.counter("net.reactor.resumes", 1);
                (resume.token, resume.cursor as usize)
            }
            None => {
                let token = self.next_token;
                self.next_token += 1;
                (token, 0)
            }
        };
        let welcome = WireMessage::Welcome(Welcome {
            peer_id: self.peers[pi].peer_id,
            resume_token: token,
            spec: self.spec.clone(),
            compression: self.compression,
        })
        .encode();
        let ok = {
            let Self {
                ref mut peers,
                ref replay,
                ref telemetry,
                ..
            } = *self;
            let peer = &mut peers[pi];
            peer.enqueue(telemetry, &welcome)
                && replay[replay_from..]
                    .iter()
                    .all(|frame| peer.enqueue(telemetry, frame))
        };
        if !ok {
            self.disconnect(pi, true);
            return false;
        }
        let peer = &mut self.peers[pi];
        peer.token = token;
        peer.state = PeerState::Idle;
        self.telemetry.counter("net.peers_joined", 1);
        self.telemetry.counter("net.reactor.handshakes", 1);
        // Mid-round with stranded slots: put the newcomer straight to work.
        if self.round_open && !self.orphan_slots.is_empty() {
            let orphans = std::mem::take(&mut self.orphan_slots);
            self.telemetry
                .counter("net.reactor.reassigned_slots", orphans.len() as u64);
            self.assign_slots(pi, orphans);
        }
        true
    }

    /// Handles a `SessionResult` from a handshaked peer.
    fn on_result(&mut self, pi: usize, sr: SessionResult) -> bool {
        if !self.round_open || sr.task != self.round_task || sr.round != self.round_round {
            self.telemetry.counter("net.stale_frames", 1);
            return true;
        }
        let Ok(pos) = self.expected_cids.binary_search(&sr.client_id) else {
            self.telemetry.counter("net.stale_frames", 1);
            return true;
        };
        match remote_session(sr) {
            Ok(result) => {
                if self.slots[pos].is_none() {
                    self.slots[pos] = Some(result);
                    self.collected += 1;
                }
                self.orphan_slots.retain(|&slot| slot != pos);
                let peer = &mut self.peers[pi];
                peer.pending_slots.retain(|&slot| slot != pos);
                if peer.pending_slots.is_empty()
                    && matches!(peer.state, PeerState::Selected | PeerState::Training)
                {
                    peer.state = PeerState::Idle;
                }
                true
            }
            // Corrupt nested frame: protocol violation, drop the peer.
            Err(_) => {
                self.disconnect(pi, true);
                false
            }
        }
    }

    /// Closes a peer's link and takes it out of the round. When `resumable`
    /// the session token stays redeemable; either way any pending slots are
    /// immediately reassigned to a live peer (or parked for a joiner).
    fn disconnect(&mut self, pi: usize, resumable: bool) {
        let peer = &mut self.peers[pi];
        if peer.state == PeerState::Disconnected {
            return;
        }
        let had_handshaked = peer.handshaked();
        peer.link.close();
        peer.state = PeerState::Disconnected;
        let orphans = std::mem::take(&mut peer.pending_slots);
        if had_handshaked {
            self.telemetry.counter("net.peers_left", 1);
            if resumable && peer.token != 0 {
                self.resumable.insert(peer.token);
            }
        }
        if self.round_open {
            self.reassign(orphans);
        }
    }

    /// Routes stranded slots to the least-loaded live peer, or parks them
    /// in `orphan_slots` until one connects.
    fn reassign(&mut self, orphans: Vec<usize>) {
        let orphans: Vec<usize> = orphans
            .into_iter()
            .filter(|&slot| self.slots[slot].is_none())
            .collect();
        if orphans.is_empty() {
            return;
        }
        let target = self
            .peers
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                matches!(
                    p.state,
                    PeerState::Idle | PeerState::Selected | PeerState::Training
                )
            })
            .min_by_key(|(_, p)| p.pending_slots.len())
            .map(|(pi, _)| pi);
        match target {
            Some(pi) => {
                self.telemetry
                    .counter("net.reactor.reassigned_slots", orphans.len() as u64);
                self.assign_slots(pi, orphans);
            }
            None => self.orphan_slots.extend(orphans),
        }
    }

    /// Sends peer `pi` a `RoundStart` covering `slots` and marks them
    /// pending on it.
    fn assign_slots(&mut self, pi: usize, slots: Vec<usize>) {
        if slots.is_empty() {
            return;
        }
        if self.peers[pi].state == PeerState::Disconnected {
            self.reassign(slots);
            return;
        }
        let sessions: Vec<SessionAssignment> = slots
            .iter()
            .map(|&slot| self.assignments[slot].clone())
            .collect();
        let frame = WireMessage::RoundStart(RoundStart {
            task: self.round_task,
            round: self.round_round,
            model: self.model_frame.clone(),
            extra: self.extra_frame.clone(),
            sessions,
        })
        .encode();
        let ok = {
            let Self {
                ref mut peers,
                ref telemetry,
                ..
            } = *self;
            peers[pi].enqueue(telemetry, &frame)
        };
        if !ok {
            self.disconnect(pi, true);
            self.reassign(slots);
            return;
        }
        let peer = &mut self.peers[pi];
        peer.pending_slots.extend(slots);
        if matches!(peer.state, PeerState::Idle) {
            peer.state = PeerState::Selected;
        }
    }

    /// Queues `frame` to every handshaked peer (append to the replay log
    /// when `into_replay`) and gives the reactor a push to move it.
    fn broadcast(&mut self, frame: &[u8], into_replay: bool) {
        for pi in 0..self.peers.len() {
            if !self.peers[pi].handshaked() {
                continue;
            }
            let ok = {
                let Self {
                    ref mut peers,
                    ref telemetry,
                    ..
                } = *self;
                peers[pi].enqueue(telemetry, frame)
            };
            if !ok {
                self.disconnect(pi, true);
            }
        }
        if into_replay {
            self.replay.push(frame.to_vec());
        }
        self.pump(Duration::ZERO);
    }

    /// Pumps the reactor until at least `net.min_peers` peers have
    /// handshaked, with no time limit: `net.join_grace_ms` bounds only the
    /// waits after a round has opened.
    pub(crate) fn wait_for_peers(&mut self) {
        while self.handshaked() < self.net.min_peers {
            self.pump(PUMP_SLICE);
        }
    }

    /// Announces a task to all peers (and the replay log).
    pub(crate) fn begin_task(&mut self, task: usize, global: &[f32]) {
        let frame = WireMessage::TaskBegin(TaskBegin {
            task: task as u32,
            global: global.to_vec(),
        })
        .encode();
        self.broadcast(&frame, true);
    }

    /// Opens a round: one non-blocking reactor pass accepts every queued
    /// connection and handshakes any joiner whose `Hello` has already
    /// arrived, then the planned sessions are split round-robin over the
    /// eligible peers (in join order) and each is queued its `RoundStart`.
    /// Nothing waits on a fixed window here: joiners still mid-handshake
    /// pick up orphaned slots during the round or join the next one. With
    /// no eligible peer the slots are parked as orphans;
    /// [`ServeState::collect`] then waits up to the join-grace window for a
    /// (re)joiner before declaring them late.
    pub(crate) fn begin_round(
        &mut self,
        task: usize,
        round: usize,
        assignments: &[SessionAssignment],
        model_frame: Vec<u8>,
        extra_frame: Option<Vec<u8>>,
    ) {
        // No wait for joiners: results are slot-indexed, so which peer
        // trains a slot never changes the outputs.
        self.pump(Duration::ZERO);
        if self.handshaked() == 0 {
            let grace = Instant::now() + Duration::from_millis(self.net.join_grace_ms);
            while self.handshaked() == 0 && Instant::now() < grace {
                self.pump(PUMP_SLICE);
            }
        }
        self.round_task = task as u32;
        self.round_round = round as u32;
        self.expected_cids = assignments.iter().map(|a| a.client_id).collect();
        self.assignments = assignments.to_vec();
        self.model_frame = model_frame;
        self.extra_frame = extra_frame;
        self.slots = (0..assignments.len()).map(|_| None).collect();
        self.collected = 0;
        self.orphan_slots.clear();
        self.round_open = true;
        let eligible: Vec<usize> = self
            .peers
            .iter_mut()
            .enumerate()
            .filter_map(|(pi, peer)| {
                if matches!(peer.state, PeerState::Idle | PeerState::Late) {
                    peer.state = PeerState::Idle;
                    peer.pending_slots.clear();
                    Some(pi)
                } else {
                    None
                }
            })
            .collect();
        if eligible.is_empty() {
            self.orphan_slots = (0..assignments.len()).collect();
            return;
        }
        let mut per_peer: Vec<Vec<usize>> = vec![Vec::new(); eligible.len()];
        for slot in 0..assignments.len() {
            per_peer[slot % eligible.len()].push(slot);
        }
        for (k, slots) in per_peer.into_iter().enumerate() {
            self.assign_slots(eligible[k], slots);
        }
        self.pump(Duration::ZERO);
    }

    /// Pumps the reactor until every slot's result is in or `deadline`
    /// passes, then closes the round. Returns the slot-ordered results;
    /// `None` slots missed the deadline.
    pub(crate) fn collect(&mut self, deadline: Instant) -> Vec<Option<RemoteSession>> {
        let reactor_t0 = self.telemetry.now_ns();
        let mut no_peer_grace: Option<Instant> = None;
        while self.collected < self.expected_cids.len() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            // With nobody connected (not even joining), wait at most the
            // join-grace window for a (re)joiner before going all-late.
            if self.peers.is_empty() {
                let grace = *no_peer_grace
                    .get_or_insert(now + Duration::from_millis(self.net.join_grace_ms));
                if now >= grace {
                    break;
                }
            } else {
                no_peer_grace = None;
            }
            let wait = PUMP_SLICE.min(deadline.saturating_duration_since(now));
            self.pump(wait);
        }
        for peer in &mut self.peers {
            if !peer.pending_slots.is_empty() {
                peer.pending_slots.clear();
                if matches!(peer.state, PeerState::Selected | PeerState::Training) {
                    peer.state = PeerState::Late;
                }
            }
        }
        self.orphan_slots.clear();
        self.round_open = false;
        let dur = self.telemetry.now_ns().saturating_sub(reactor_t0);
        self.telemetry.timeline_span(0, "reactor", reactor_t0, dur);
        std::mem::take(&mut self.slots)
    }

    /// Closes a round: syncs every peer (and the replay log) with the new
    /// global model and the full ordered merge sequence.
    pub(crate) fn finish_round(
        &mut self,
        task: usize,
        round: usize,
        global: &[f32],
        merges: &[(usize, WireMessage)],
    ) {
        let frame = WireMessage::RoundSync(RoundSync {
            task: task as u32,
            round: round as u32,
            global: global.to_vec(),
            merges: merges
                .iter()
                .map(|(cid, msg)| (*cid as u64, msg.encode()))
                .collect(),
        })
        .encode();
        self.broadcast(&frame, true);
    }

    /// Announces a task boundary to all peers (and the replay log).
    pub(crate) fn end_task(&mut self, task: usize, global: &[f32]) {
        let frame = WireMessage::TaskEnd(TaskEnd {
            task: task as u32,
            global: global.to_vec(),
        })
        .encode();
        self.broadcast(&frame, true);
    }

    /// Ends the run: tells every peer the run completed, drains the
    /// outbound queues (bounded), and closes every link.
    pub(crate) fn finish_run(&mut self) {
        let frame = WireMessage::RunEnd(RunEnd {
            reason: RunEnd::COMPLETE,
        })
        .encode();
        self.broadcast(&frame, false);
        let drained_by = Instant::now() + Duration::from_secs(1);
        while Instant::now() < drained_by && self.peers.iter().any(|p| p.link.pending_tx() > 0) {
            self.pump(PUMP_SLICE);
        }
        for peer in &self.peers {
            peer.link.close();
        }
    }
}

/// Why a client replica stopped.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// The link failed or the server went silent past the idle patience.
    Recv(RecvError),
    /// A frame failed to encode/send or decode.
    Wire(WireError),
    /// The server sent something the protocol does not allow here.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Recv(e) => write!(f, "receive failed: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

fn proto<T>(msg: impl Into<String>) -> Result<T, ClientError> {
    Err(ClientError::Protocol(msg.into()))
}

/// Test- and experiment-facing knobs for a client replica's behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientOptions {
    /// Sleep this long after training a round's sessions, before sending the
    /// results — a controllable straggler.
    pub train_delay_ms: u64,
    /// After sending this many session results, announce a voluntary leave
    /// (`RunEnd::LEAVE`) and return.
    pub leave_after_sessions: Option<usize>,
    /// On receiving this many `RoundStart` frames, return immediately
    /// without training or notice — a simulated crash.
    pub abort_after_round_starts: Option<usize>,
    /// On receiving exactly this many `RoundStart` frames, close the link
    /// before training — a one-shot simulated connection blip. Under
    /// [`run_client_resumable`] the client then reconnects and resumes its
    /// session; under [`run_clients_pumped`] it behaves like an abort.
    pub drop_link_after_round_starts: Option<usize>,
    /// How many times [`run_client_resumable`] may reconnect after losing
    /// the link before giving up.
    pub max_reconnects: usize,
    /// Compression spec negotiated in the `Welcome` (set by the client
    /// front-ends after the handshake). `None` sends plain dense updates.
    pub compression: Option<CompressionSpec>,
}

/// What a client replica did before it stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientReport {
    /// The peer id the server assigned in its (latest) `Welcome`.
    pub peer_id: PeerId,
    /// Rounds synced (RoundSync frames applied).
    pub rounds: usize,
    /// Sessions trained and reported.
    pub sessions: usize,
    /// Successful session resumptions after a lost link.
    pub resumes: usize,
    /// Termination reason ([`RunEnd`] code).
    pub reason: u8,
}

/// Client side of the join handshake: sends `Hello` (optionally claiming a
/// resumable session), waits for the server's `Welcome`, and returns the
/// assigned peer id, the opaque run-spec string, the resume token to
/// present if this connection later blips, and the compression spec the
/// server negotiated (if any).
///
/// # Errors
///
/// Fails if the link errors, the deadline passes, or the server answers
/// with anything but a `Welcome`.
pub fn client_handshake(
    link: &dyn Link,
    nonce: u64,
    resume: Option<Resume>,
    deadline: Instant,
) -> Result<(PeerId, String, u64, Option<CompressionSpec>), ClientError> {
    link.send(&WireMessage::Hello(Hello { nonce, resume }).encode())
        .map_err(ClientError::Wire)?;
    let frame = link.recv_deadline(deadline).map_err(ClientError::Recv)?;
    match WireMessage::decode(&frame).map_err(ClientError::Wire)? {
        WireMessage::Welcome(w) => Ok((w.peer_id, w.spec, w.resume_token, w.compression)),
        other => proto(format!("expected Welcome, got {:?}", other.kind())),
    }
}

/// What [`ClientSession::handle`] tells the driving loop to do next.
enum Step {
    /// Keep receiving.
    Continue,
    /// The run is over (reason already recorded in the report).
    Done,
    /// Deliberately drop the link now (`drop_link_after_round_starts`).
    DropLink,
}

/// The replica state machine shared by both client drivers: the
/// reconnecting loop ([`run_client_resumable`]) and the multiplexed pump
/// ([`run_clients_pumped`]). One frame in, strategy hooks fired in exactly
/// the in-process order, results queued on the link.
struct ClientSession<'a> {
    dataset: &'a FdilDataset,
    strategy: &'a mut dyn FdilStrategy,
    cfg: &'a RunConfig,
    opts: ClientOptions,
    telemetry: &'a Telemetry,
    schedules: Vec<TaskSchedule>,
    holdings: Vec<Holdings>,
    report: ClientReport,
    round_starts: usize,
    /// Lifecycle (replay-log) frames applied; the resume cursor.
    cursor: u64,
}

impl<'a> ClientSession<'a> {
    /// Builds a replica. The caller must have validated `cfg` already.
    fn new(
        dataset: &'a FdilDataset,
        strategy: &'a mut dyn FdilStrategy,
        cfg: &'a RunConfig,
        opts: ClientOptions,
        telemetry: &'a Telemetry,
        peer_id: PeerId,
    ) -> Self {
        strategy.attach_telemetry(telemetry);
        let schedules = build_schedule(&cfg.increment, dataset.num_domains(), cfg.seed);
        Self {
            dataset,
            strategy,
            cfg,
            opts,
            telemetry,
            schedules,
            holdings: Vec::new(),
            report: ClientReport {
                peer_id,
                rounds: 0,
                sessions: 0,
                resumes: 0,
                reason: RunEnd::COMPLETE,
            },
            round_starts: 0,
            cursor: 0,
        }
    }

    /// Applies one server frame, queueing any results on `link`.
    fn handle(&mut self, frame: &[u8], link: &dyn Link) -> Result<Step, ClientError> {
        match WireMessage::decode(frame).map_err(ClientError::Wire)? {
            WireMessage::TaskBegin(tb) => {
                self.cursor += 1;
                let task = tb.task as usize;
                let Some(schedule) = self.schedules.get(task) else {
                    return proto(format!("TaskBegin for out-of-range task {task}"));
                };
                self.strategy.on_task_start(task, &tb.global);
                distribute_task_data(&mut self.holdings, schedule, self.dataset, self.cfg, task);
                Ok(Step::Continue)
            }
            WireMessage::RoundStart(rs) => self.on_round_start(rs, link),
            WireMessage::RoundSync(sync) => {
                self.cursor += 1;
                let (task, round) = (sync.task as usize, sync.round as usize);
                for (cid, frame) in &sync.merges {
                    let msg = WireMessage::decode(frame).map_err(ClientError::Wire)?;
                    self.strategy.merge_client(task, round, *cid as usize, msg);
                }
                self.strategy.on_round_end(task, round, &sync.global);
                self.report.rounds += 1;
                self.telemetry.counter("client.rounds", 1);
                Ok(Step::Continue)
            }
            WireMessage::TaskEnd(te) => {
                self.cursor += 1;
                let task = te.task as usize;
                let Some(schedule) = self.schedules.get(task) else {
                    return proto(format!("TaskEnd for out-of-range task {task}"));
                };
                let client_data = collect_client_data(
                    &self.holdings,
                    schedule,
                    self.cfg.increment.rounds_per_task,
                );
                self.strategy.on_task_end(task, &te.global, &client_data);
                carry_forward(&mut self.holdings, schedule);
                Ok(Step::Continue)
            }
            WireMessage::RunEnd(end) => {
                self.report.reason = end.reason;
                Ok(Step::Done)
            }
            other => proto(format!("unexpected {:?} frame", other.kind())),
        }
    }

    /// Trains a `RoundStart`'s assigned sessions and queues the results.
    fn on_round_start(&mut self, rs: RoundStart, link: &dyn Link) -> Result<Step, ClientError> {
        self.round_starts += 1;
        if self
            .opts
            .abort_after_round_starts
            .is_some_and(|n| self.round_starts >= n)
        {
            self.report.reason = RunEnd::ABORT;
            return Ok(Step::Done);
        }
        if self
            .opts
            .drop_link_after_round_starts
            .is_some_and(|n| self.round_starts == n)
        {
            return Ok(Step::DropLink);
        }
        let (task, round) = (rs.task as usize, rs.round as usize);
        let WireMessage::ModelBroadcast(model) =
            WireMessage::decode(&rs.model).map_err(ClientError::Wire)?
        else {
            return proto("RoundStart model is not a ModelBroadcast");
        };
        let broadcast = match &rs.extra {
            Some(frame) => Some(WireMessage::decode(frame).map_err(ClientError::Wire)?),
            None => None,
        };
        let mut results: Vec<Vec<u8>> = Vec::with_capacity(rs.sessions.len());
        let mask = self.strategy.exchange_mask(u64::from(rs.task));
        {
            let ctx = self
                .strategy
                .round_ctx(task, round, &model.model, broadcast.as_ref());
            for a in &rs.sessions {
                let cid = a.client_id as usize;
                let Some(group) = group_from_code(a.group) else {
                    return proto(format!("unknown group code {}", a.group));
                };
                let Some(h) = self.holdings.get(cid) else {
                    return proto(format!("assignment for unknown client {cid}"));
                };
                let setting = TrainSetting {
                    client_id: cid,
                    task,
                    round,
                    group,
                    samples: h.for_group(group),
                    local_epochs: self.cfg.local_epochs,
                    batch_size: self.cfg.batch_size,
                    seed: a.seed,
                };
                let start = Instant::now();
                let out = ctx.train_client(&setting, self.telemetry);
                let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let update = uplink_update(
                    self.opts.compression,
                    mask.as_deref(),
                    a.client_id,
                    out.update,
                    &model.model,
                    model.task,
                    model.round,
                )
                .encode();
                let merge = out.merge.map(|m| m.encode());
                results.push(
                    WireMessage::SessionResult(SessionResult {
                        task: rs.task,
                        round: rs.round,
                        client_id: a.client_id,
                        wall_ns,
                        update,
                        merge,
                    })
                    .encode(),
                );
            }
        }
        if self.opts.train_delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(self.opts.train_delay_ms));
        }
        for frame in results {
            link.enqueue_frame(&frame).map_err(ClientError::Wire)?;
            self.report.sessions += 1;
            self.telemetry.counter("client.sessions", 1);
            if self
                .opts
                .leave_after_sessions
                .is_some_and(|n| self.report.sessions >= n)
            {
                let bye = WireMessage::RunEnd(RunEnd {
                    reason: RunEnd::LEAVE,
                })
                .encode();
                // A blocking send: it writes the results still queued
                // ahead of the notice, which the pump's close after
                // `Step::Done` would otherwise cut off.
                let _ = link.send(&bye);
                self.report.reason = RunEnd::LEAVE;
                return Ok(Step::Done);
            }
        }
        Ok(Step::Continue)
    }
}

/// Runs one client replica over a connection it owns through a `connect`
/// factory, until the server ends the run (or an option-triggered
/// leave/abort fires). It survives link loss: on a lost (or deliberately
/// blipped) connection it reconnects, presents its resume token and replay
/// cursor, and picks the session back up — at most `opts.max_reconnects`
/// times. `dataset`, `strategy` and `cfg` must match the server's run, or
/// the replicated state (and therefore the training results) will diverge.
///
/// # Errors
///
/// Fails on link errors, undecodable frames, idle timeout
/// (`cfg.net.client_idle_ms` without a frame), or protocol violations
/// (unknown group codes, out-of-range ids, unexpected kinds), and with a
/// `Protocol` error when reconnection attempts are exhausted or the server
/// refuses the resumption claim.
pub fn run_client_resumable(
    connect: &mut dyn FnMut() -> Result<Box<dyn Link>, ConnectError>,
    nonce: u64,
    dataset: &FdilDataset,
    strategy: &mut dyn FdilStrategy,
    cfg: &RunConfig,
    opts: &ClientOptions,
    telemetry: &Telemetry,
) -> Result<ClientReport, ClientError> {
    if let Err(err) = cfg.validate() {
        return proto(format!("invalid RunConfig: {err}"));
    }
    let idle = Duration::from_millis(cfg.net.client_idle_ms);
    let mut link = connect().map_err(|e| ClientError::Protocol(format!("connect failed: {e}")))?;
    let (peer_id, _spec, token, compression) =
        client_handshake(&*link, nonce, None, Instant::now() + idle)?;
    let mut opts = *opts;
    opts.compression = compression;
    let mut session = ClientSession::new(dataset, strategy, cfg, opts, telemetry, peer_id);
    let mut reconnects = 0usize;
    loop {
        let step = match link.recv_deadline(Instant::now() + idle) {
            Ok(frame) => session.handle(&frame, &*link)?,
            Err(RecvError::DeadlineExceeded) => {
                return Err(ClientError::Recv(RecvError::DeadlineExceeded))
            }
            Err(_) if reconnects < opts.max_reconnects => Step::DropLink,
            Err(e) => return Err(ClientError::Recv(e)),
        };
        match step {
            Step::Continue => {}
            Step::Done => return Ok(session.report),
            Step::DropLink => {
                link.close();
                if reconnects >= opts.max_reconnects {
                    session.report.reason = RunEnd::ABORT;
                    return Ok(session.report);
                }
                reconnects += 1;
                let resume = Resume {
                    token,
                    cursor: session.cursor,
                };
                link = resume_link(connect, nonce, resume, idle, &mut session)?;
            }
        }
    }
}

/// Reconnects and re-handshakes with a resumption claim, retrying the
/// connect until the idle patience runs out.
fn resume_link(
    connect: &mut dyn FnMut() -> Result<Box<dyn Link>, ConnectError>,
    nonce: u64,
    resume: Resume,
    idle: Duration,
    session: &mut ClientSession<'_>,
) -> Result<Box<dyn Link>, ClientError> {
    let deadline = Instant::now() + idle;
    loop {
        match connect() {
            Ok(link) => {
                let (peer_id, _spec, _token, _compression) =
                    client_handshake(&*link, nonce, Some(resume), deadline)?;
                session.report.peer_id = peer_id;
                session.report.resumes += 1;
                session.telemetry.counter("client.resumes", 1);
                return Ok(link);
            }
            Err(e) => {
                if Instant::now() >= deadline {
                    return proto(format!("reconnect failed: {e}"));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Drives many client replicas over their own links from ONE thread: a
/// client-side reactor mirroring the server's. Each replica must already
/// have handshaked (`peer_ids[i]` from link `links[i]`); `strategies[i]` is
/// its private strategy instance. Links are switched to non-blocking mode
/// and multiplexed through one [`PollSet`].
///
/// Each replica waits at most `cfg.net.client_idle_ms` for a frame, counted
/// from the end of its last handled frame; past that it ends with
/// `ClientError::Recv(RecvError::DeadlineExceeded)`. All strategy hooks fire
/// in exactly the order the in-process driver fires them, so a strategy
/// cannot tell it is running remotely.
///
/// Returns one terminal result per replica, in input order. A joined client
/// process runs it over its one link; the `bench_net` harness and the
/// peer-scale tests run hundreds of simulated clients with it, without
/// hundreds of threads.
pub fn run_clients_pumped(
    links: &[Box<dyn Link>],
    peer_ids: &[PeerId],
    strategies: &mut [Box<dyn FdilStrategy>],
    dataset: &FdilDataset,
    cfg: &RunConfig,
    opts: &ClientOptions,
    telemetry: &Telemetry,
) -> Vec<Result<ClientReport, ClientError>> {
    assert_eq!(links.len(), peer_ids.len(), "one peer id per link");
    assert_eq!(links.len(), strategies.len(), "one strategy per link");
    let n = links.len();
    if let Err(err) = cfg.validate() {
        return (0..n)
            .map(|_| proto(format!("invalid RunConfig: {err}")))
            .collect();
    }
    for link in links {
        let _ = link.set_nonblocking(true);
    }
    let mut sessions: Vec<ClientSession<'_>> = peer_ids
        .iter()
        .zip(strategies.iter_mut())
        .map(|(&pid, strategy)| {
            ClientSession::new(dataset, &mut **strategy, cfg, *opts, telemetry, pid)
        })
        .collect();
    let mut done: Vec<Option<Result<ClientReport, ClientError>>> = (0..n).map(|_| None).collect();
    let idle = Duration::from_millis(cfg.net.client_idle_ms);
    let mut last_rx: Vec<Instant> = vec![Instant::now(); n];
    let mut poll = PollSet::new();
    let mut ready: Vec<u64> = Vec::new();
    while done.iter().any(Option::is_none) {
        poll.clear();
        for (i, link) in links.iter().enumerate() {
            if done[i].is_some() {
                continue;
            }
            let interest = if link.pending_tx() > 0 {
                Interest::ReadWrite
            } else {
                Interest::Read
            };
            poll.register(i as u64, link.poll_fd(), interest);
        }
        poll.wait(PUMP_SLICE, &mut ready);
        let now = Instant::now();
        for i in 0..n {
            if done[i].is_some() {
                continue;
            }
            let link = &links[i];
            if link.pending_tx() > 0 {
                if let Err(e) = link.try_flush() {
                    done[i] = Some(Err(ClientError::Wire(e)));
                    continue;
                }
            }
            loop {
                match link.try_recv_frame() {
                    Ok(Some(frame)) => {
                        let step = sessions[i].handle(&frame, &**link);
                        // Patience runs from the end of handling: training a
                        // round's sessions may take longer than it.
                        last_rx[i] = Instant::now();
                        match step {
                            Ok(Step::Continue) => {}
                            Ok(Step::Done) => {
                                done[i] = Some(Ok(sessions[i].report.clone()));
                                link.close();
                                break;
                            }
                            Ok(Step::DropLink) => {
                                link.close();
                                sessions[i].report.reason = RunEnd::ABORT;
                                done[i] = Some(Ok(sessions[i].report.clone()));
                                break;
                            }
                            Err(e) => {
                                done[i] = Some(Err(e));
                                link.close();
                                break;
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        done[i] = Some(Err(ClientError::Recv(e)));
                        break;
                    }
                }
            }
            if done[i].is_none() && now.duration_since(last_rx[i]) > idle {
                done[i] = Some(Err(ClientError::Recv(RecvError::DeadlineExceeded)));
            }
        }
    }
    done.into_iter()
        .map(|slot| slot.expect("every replica reached a terminal state"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_codes_round_trip() {
        for group in [ClientGroup::Old, ClientGroup::Between, ClientGroup::New] {
            assert_eq!(group_from_code(group_code(group)), Some(group));
        }
        assert_eq!(group_from_code(3), None);
    }

    #[test]
    fn remote_session_decodes_nested_frames() {
        let update = WireMessage::ClientModelUpdate(WireClientModelUpdate {
            client_id: 4,
            weight: 2.5,
            model: vec![1.0, -2.0],
        })
        .encode();
        let sr = SessionResult {
            task: 1,
            round: 2,
            client_id: 4,
            wall_ns: 99,
            update: update.clone(),
            merge: None,
        };
        let r = remote_session(sr).expect("decodes");
        let RemoteUpdate::Plain(update_msg) = r.update else {
            panic!("expected a plain update");
        };
        assert_eq!(update_msg.client_id, 4);
        assert_eq!(r.update_bytes, update.len() as u64);
        assert!(r.merge.is_none());
        assert_eq!(r.stat.client_id, 4);
        assert_eq!(r.stat.track, 0);
        assert_eq!(r.stat.duration_ns, 99);
    }

    #[test]
    fn remote_session_decodes_compressed_frames() {
        let spec = CompressionSpec {
            delta: true,
            quant: refil_wire::QuantMode::Int8,
            topk_fraction: 0.5,
        };
        let base = vec![0.5f32, -1.0, 2.0, 0.0];
        let flat = vec![0.75f32, -1.0, 1.0, 0.25];
        let compressed = CompressedModelUpdate::compress(&spec, None, 7, 1.5, &flat, &base, 2, 3);
        let frame = WireMessage::CompressedModelUpdate(compressed).encode();
        let sr = SessionResult {
            task: 2,
            round: 3,
            client_id: 7,
            wall_ns: 11,
            update: frame.clone(),
            merge: None,
        };
        let r = remote_session(sr).expect("decodes");
        let RemoteUpdate::Compressed(c) = r.update else {
            panic!("expected a compressed update");
        };
        assert_eq!(c.client_id, 7);
        assert_eq!((c.base_task, c.base_round), (2, 3));
        assert_eq!(r.update_bytes, frame.len() as u64);
    }

    #[test]
    fn remote_session_rejects_wrong_nested_kind() {
        let sr = SessionResult {
            task: 0,
            round: 0,
            client_id: 0,
            wall_ns: 0,
            update: WireMessage::RunEnd(RunEnd { reason: 0 }).encode(),
            merge: None,
        };
        assert!(remote_session(sr).is_err());
    }

    #[cfg(unix)]
    #[test]
    fn boundary_joiner_is_dealt_slots_in_the_same_round() {
        use refil_wire::{connect, Endpoint, ModelBroadcast, NetLink, NetListener};

        let dir = std::env::temp_dir().join(format!("refil-fed-boundary-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ep = Endpoint::Unix(dir.join("serve.sock"));
        let listener = NetListener::bind(&ep).expect("bind unix");
        let far = Instant::now() + Duration::from_secs(10);
        let hello = |nonce| {
            WireMessage::Hello(Hello {
                nonce,
                resume: None,
            })
            .encode()
        };
        let mut serve = ServeState::new(
            &listener,
            "spec",
            NetConfig::default(),
            None,
            Telemetry::disabled(),
        );
        let first = connect(&ep, far).expect("first connect");
        first.send(&hello(1)).unwrap();
        serve.wait_for_peers();
        // The second peer arrives at the round boundary: connected with its
        // Hello already sent, but not yet seen by the reactor.
        let second = connect(&ep, far).expect("second connect");
        second.send(&hello(2)).unwrap();
        let assignments: Vec<SessionAssignment> = (0..4)
            .map(|cid| SessionAssignment {
                client_id: cid,
                group: 0,
                seed: cid,
            })
            .collect();
        let model = WireMessage::ModelBroadcast(ModelBroadcast {
            task: 0,
            round: 0,
            model: vec![0.5; 3],
        })
        .encode();
        serve.begin_round(0, 0, &assignments, model, None);
        assert_eq!(serve.handshaked(), 2, "the boundary joiner is handshaked");
        let dealt: Vec<Vec<usize>> = serve
            .peers
            .iter()
            .map(|p| p.pending_slots.clone())
            .collect();
        assert_eq!(dealt, vec![vec![0, 2], vec![1, 3]]);
        // Each link carries its Welcome, then its share of the round.
        let sessions_of = |link: &NetLink| {
            let welcome = WireMessage::decode(&link.recv_deadline(far).unwrap()).unwrap();
            assert!(matches!(welcome, WireMessage::Welcome(_)));
            match WireMessage::decode(&link.recv_deadline(far).unwrap()).unwrap() {
                WireMessage::RoundStart(rs) => {
                    rs.sessions.iter().map(|a| a.client_id).collect::<Vec<_>>()
                }
                other => panic!("expected RoundStart, got {:?}", other.kind()),
            }
        };
        assert_eq!(sessions_of(&first), vec![0, 2]);
        assert_eq!(sessions_of(&second), vec![1, 3]);
        drop(serve);
        drop(listener);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn process_thread_count_reports_at_least_this_thread() {
        if let Some(count) = process_thread_count() {
            assert!(count >= 1, "a running process has at least one thread");
        }
    }
}
