//! Typed message envelopes and their payload codecs.
//!
//! Each struct mirrors one protocol exchange; [`WireMessage`] is the
//! decoded union. Payload layouts are little-endian and length-prefixed;
//! see the crate docs for the frame header wrapping every payload.

use crate::compress::{sparsify, CompressionSpec, QuantValues, SparseIndex};
use crate::frame::{
    bytes_len, open_frame, seal_frame, MessageKind, Reader, WireError, Writer, HEADER_LEN, MAGIC,
    SCHEMA_VERSION,
};

/// Server → client: the global model parameters opening a round.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelBroadcast {
    /// Task (0-based) the round belongs to.
    pub task: u32,
    /// Round within the task.
    pub round: u32,
    /// Flat global parameter vector.
    pub model: Vec<f32>,
}

/// Client → server: locally trained parameters plus the FedAvg weight.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientModelUpdate {
    /// Reporting client.
    pub client_id: u64,
    /// FedAvg weight (normally the local sample count).
    pub weight: f32,
    /// Flat updated parameter vector.
    pub model: Vec<f32>,
}

/// One client's class-wise prompt means for a round (RefFiL Eq. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct PromptGroup {
    /// Originating client.
    pub client_id: u64,
    /// `(class, flattened p*d prompt)` pairs for locally present classes.
    pub prompts: Vec<(u32, Vec<f32>)>,
}

/// Client → server: Local Prompt Groups uploaded alongside the model
/// (RefFiL Algorithm 1 line 29). Usually one group; the weighted-sharing
/// ablation uploads several copies.
#[derive(Debug, Clone, PartialEq)]
pub struct PromptUpload {
    /// Uploading client.
    pub client_id: u64,
    /// The uploaded groups.
    pub groups: Vec<PromptGroup>,
}

/// Server → client: the clustered global prompt state broadcast each round
/// (post-FINCH representatives, RefFiL Eq. 4–5, plus the generalized prompt
/// of Eq. 8 when available).
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalPromptBroadcast {
    /// Task the broadcast belongs to.
    pub task: u32,
    /// Round within the task.
    pub round: u32,
    /// `(class, flattened prompt)` DPCL candidate representatives.
    pub candidates: Vec<(u32, Vec<f32>)>,
    /// Generalized global prompt `P̄^g`, absent while the store is empty.
    pub generalized: Option<Vec<f32>>,
}

/// One raw sample in transit (rehearsal oracle only — the privacy
/// violation rehearsal-free methods exist to avoid).
#[derive(Debug, Clone, PartialEq)]
pub struct WireSample {
    /// Class label.
    pub label: u32,
    /// Input features.
    pub features: Vec<f32>,
}

/// Episodic-memory samples a session commits to its client's buffer,
/// routed through the server like every other exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct RehearsalMemory {
    /// Owning client.
    pub client_id: u64,
    /// Deterministic reservoir seed for the commit.
    pub seed: u64,
    /// Samples to remember.
    pub samples: Vec<WireSample>,
}

/// Client → server: a compressed model update. Carries delta/top-k/quantized
/// parameters relative to a [`ModelBroadcast`] the client applied; the server
/// reconstructs the full update from its own broadcast history, keyed by the
/// `(base_task, base_round)` tag. Built by [`CompressedModelUpdate::compress`]
/// under a negotiated [`CompressionSpec`]; self-describing, so reconstruction
/// needs only the base model, not the spec.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedModelUpdate {
    /// Reporting client.
    pub client_id: u64,
    /// FedAvg weight (never compressed).
    pub weight: f32,
    /// Task of the [`ModelBroadcast`] the values are relative to.
    pub base_task: u32,
    /// Round of that broadcast within its task.
    pub base_round: u32,
    /// When true, carried values are `x − base` and reconstruction adds the
    /// base back; when false they are absolute replacements.
    pub delta: bool,
    /// Full flat parameter count; coordinates the index leaves out keep
    /// their base (broadcast) value on reconstruction.
    pub total_len: u32,
    /// Which coordinates the update carries.
    pub index: SparseIndex,
    /// The carried values, ascending coordinate order, possibly quantized.
    pub values: QuantValues,
}

impl CompressedModelUpdate {
    /// Compresses a trained flat parameter vector against the broadcast it
    /// was trained from, in the fixed composition order delta → top-k →
    /// quant. `mask` restricts the exchanged coordinates (ascending, unique;
    /// a strategy's partial-exchange set) before top-k applies; `None`
    /// considers every coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `flat` and `base` lengths differ or a mask index is out of
    /// range — both are caller bugs, not wire conditions.
    #[allow(clippy::too_many_arguments)]
    pub fn compress(
        spec: &CompressionSpec,
        mask: Option<&[u32]>,
        client_id: u64,
        weight: f32,
        flat: &[f32],
        base: &[f32],
        base_task: u32,
        base_round: u32,
    ) -> Self {
        assert_eq!(flat.len(), base.len(), "flat/base length mismatch");
        let total_len = u32::try_from(flat.len()).expect("model exceeds u32 framing");
        let (index, values) = sparsify(spec, mask, flat, base);
        Self {
            client_id,
            weight,
            base_task,
            base_round,
            delta: spec.delta,
            total_len,
            index,
            values,
        }
    }

    /// Rebuilds the full flat update against `base` (the tagged broadcast):
    /// carried coordinates are dequantized (and added to the base under
    /// delta mode); everything else keeps its base value.
    ///
    /// An update whose index does not fit `base` (a list out of range or
    /// not ascending, a bitmap of the wrong length or with pad bits set) or
    /// whose value count disagrees with its index is [`WireError::Malformed`],
    /// whether it was decoded or built in memory.
    pub fn reconstruct(&self, base: &[f32]) -> Result<Vec<f32>, WireError> {
        if base.len() != self.total_len as usize {
            return Err(WireError::Malformed("base length mismatch"));
        }
        self.index.check(base.len())?;
        if self.values.len() != self.index.count(base.len()) {
            return Err(WireError::Malformed("value count mismatch"));
        }
        let mut out = base.to_vec();
        self.index.apply(&self.values, self.delta, &mut out);
        Ok(out)
    }

    /// Frame size of the equivalent *uncompressed* [`ClientModelUpdate`],
    /// for raw-vs-encoded byte accounting.
    pub fn uncompressed_frame_len(&self) -> usize {
        HEADER_LEN + 12 + 4 + 4 * self.total_len as usize
    }
}

/// Session-resumption claim inside a [`Hello`]: which earlier session the
/// reconnecting client is, and how far through the server's catch-up log
/// its replica already got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resume {
    /// Token from the previous [`Welcome`] on this server.
    pub token: u64,
    /// Count of catch-up (replay-log) frames the client's replica has
    /// already applied; the server resumes the replay from this index.
    pub cursor: u64,
}

/// Client → server: the first frame on a fresh connection. The nonce is
/// echoed nowhere; it exists so a handshake frame is never empty and can
/// carry a client-chosen tag in logs.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// Client-chosen tag (e.g. a PID), for server-side logs only.
    pub nonce: u64,
    /// Resumption claim when the client is reconnecting with its replica
    /// state intact. The server then replays only the control frames past
    /// the claimed cursor instead of the full catch-up log.
    pub resume: Option<Resume>,
}

/// Server → client: handshake reply. After this the client replays any
/// catch-up frames the server queued and then participates from the next
/// round boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Welcome {
    /// The peer id the listener assigned to this connection.
    pub peer_id: u64,
    /// Session token the client presents in [`Hello::resume`] if it
    /// reconnects, entitling it to an incremental replay.
    pub resume_token: u64,
    /// Opaque run-spec string (the server's serialized experiment spec) so
    /// a bare client process can reconstruct the replicated state.
    pub spec: String,
    /// Compression spec this peer must apply to its uplink updates, when
    /// the run compresses. `None` keeps the peer on plain
    /// [`ClientModelUpdate`] frames.
    pub compression: Option<CompressionSpec>,
}

/// One session assignment inside a [`RoundStart`]: which logical client a
/// peer trains this round, and with what seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionAssignment {
    /// Logical client to train.
    pub client_id: u64,
    /// Client group code (0 = old, 1 = between, 2 = new).
    pub group: u8,
    /// Per-session RNG seed drawn by the server.
    pub seed: u64,
}

/// Server → client: opens a round. The model broadcast (and the optional
/// strategy broadcast) travel as *nested encoded frames*, so the bytes a
/// logical client receives are identical to the loopback run's.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundStart {
    /// Task the round belongs to.
    pub task: u32,
    /// Round within the task.
    pub round: u32,
    /// Nested encoded [`ModelBroadcast`] frame.
    pub model: Vec<u8>,
    /// Nested encoded strategy broadcast frame, when the strategy emits one.
    pub extra: Option<Vec<u8>>,
    /// The sessions this peer trains this round (possibly empty).
    pub sessions: Vec<SessionAssignment>,
}

/// Client → server: one trained session's results. Tagged with task and
/// round so the server can discard results that arrive after the round's
/// deadline already passed.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResult {
    /// Task the session belonged to.
    pub task: u32,
    /// Round the session belonged to.
    pub round: u32,
    /// Logical client that was trained.
    pub client_id: u64,
    /// Wall-clock training time on the client, for session stats.
    pub wall_ns: u64,
    /// Nested encoded [`ClientModelUpdate`] frame.
    pub update: Vec<u8>,
    /// Nested encoded merge frame (e.g. a [`PromptUpload`]), if any.
    pub merge: Option<Vec<u8>>,
}

/// Server → client: closes a round. Replicas apply the ordered merge
/// frames, then run their round-end hooks against the new global model.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSync {
    /// Task the round belonged to.
    pub task: u32,
    /// Round within the task.
    pub round: u32,
    /// Post-aggregate global parameter vector.
    pub global: Vec<f32>,
    /// `(client_id, nested encoded merge frame)` in client-id order.
    pub merges: Vec<(u64, Vec<u8>)>,
}

/// Server → client: a task is starting; replicas run task setup (data
/// partition, strategy task-start hook) against this global model.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskBegin {
    /// Task (0-based) that is starting.
    pub task: u32,
    /// Global parameter vector entering the task.
    pub global: Vec<f32>,
}

/// Server → client: a task finished; replicas run task teardown (strategy
/// task-end hook, data carry-forward) against this global model.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskEnd {
    /// Task (0-based) that finished.
    pub task: u32,
    /// Global parameter vector leaving the task.
    pub global: Vec<f32>,
}

/// Either direction: participation is over. Server → client when the run
/// completes or aborts; client → server for a voluntary mid-run leave.
#[derive(Debug, Clone, PartialEq)]
pub struct RunEnd {
    /// 0 = run complete, 1 = voluntary leave, 2 = abort.
    pub reason: u8,
}

impl RunEnd {
    /// The run finished normally.
    pub const COMPLETE: u8 = 0;
    /// The sender is leaving mid-run.
    pub const LEAVE: u8 = 1;
    /// The run was aborted.
    pub const ABORT: u8 = 2;
}

/// A decoded wire message: the typed union of every protocol exchange.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// Server → client global model parameters.
    ModelBroadcast(ModelBroadcast),
    /// Client → server trained parameters + weight.
    ClientModelUpdate(ClientModelUpdate),
    /// Client → server Local Prompt Groups.
    PromptUpload(PromptUpload),
    /// Server → client clustered prompt state.
    GlobalPromptBroadcast(GlobalPromptBroadcast),
    /// Episodic memory in transit.
    RehearsalMemory(RehearsalMemory),
    /// Connection handshake, client side.
    Hello(Hello),
    /// Connection handshake, server side.
    Welcome(Welcome),
    /// Round opening with nested broadcasts + assignments.
    RoundStart(RoundStart),
    /// One session's nested results.
    SessionResult(SessionResult),
    /// Round closing with the new global + ordered merges.
    RoundSync(RoundSync),
    /// Task-start marker.
    TaskBegin(TaskBegin),
    /// Task-end marker.
    TaskEnd(TaskEnd),
    /// Run / participation termination.
    RunEnd(RunEnd),
    /// Client → server delta/top-k/quantized parameters.
    CompressedModelUpdate(CompressedModelUpdate),
}

fn f32s_len(v: &[f32]) -> usize {
    4 + 4 * v.len()
}

impl WireMessage {
    /// The message's wire kind.
    pub fn kind(&self) -> MessageKind {
        match self {
            Self::ModelBroadcast(_) => MessageKind::ModelBroadcast,
            Self::ClientModelUpdate(_) => MessageKind::ClientModelUpdate,
            Self::PromptUpload(_) => MessageKind::PromptUpload,
            Self::GlobalPromptBroadcast(_) => MessageKind::GlobalPromptBroadcast,
            Self::RehearsalMemory(_) => MessageKind::RehearsalMemory,
            Self::Hello(_) => MessageKind::Hello,
            Self::Welcome(_) => MessageKind::Welcome,
            Self::RoundStart(_) => MessageKind::RoundStart,
            Self::SessionResult(_) => MessageKind::SessionResult,
            Self::RoundSync(_) => MessageKind::RoundSync,
            Self::TaskBegin(_) => MessageKind::TaskBegin,
            Self::TaskEnd(_) => MessageKind::TaskEnd,
            Self::RunEnd(_) => MessageKind::RunEnd,
            Self::CompressedModelUpdate(_) => MessageKind::CompressedModelUpdate,
        }
    }

    /// Exact encoded frame size in bytes (header + payload), computed
    /// without encoding. `encode().len() == encoded_len()` always; traffic
    /// accounting relies on this when the codec is bypassed.
    pub fn encoded_len(&self) -> usize {
        let payload = match self {
            Self::ModelBroadcast(m) => 8 + f32s_len(&m.model),
            Self::ClientModelUpdate(m) => 12 + f32s_len(&m.model),
            Self::PromptUpload(m) => {
                12 + m
                    .groups
                    .iter()
                    .map(|g| {
                        12 + g
                            .prompts
                            .iter()
                            .map(|(_, v)| 4 + f32s_len(v))
                            .sum::<usize>()
                    })
                    .sum::<usize>()
            }
            Self::GlobalPromptBroadcast(m) => {
                13 + m
                    .candidates
                    .iter()
                    .map(|(_, v)| 4 + f32s_len(v))
                    .sum::<usize>()
                    + m.generalized.as_deref().map_or(0, f32s_len)
            }
            Self::RehearsalMemory(m) => {
                20 + m
                    .samples
                    .iter()
                    .map(|s| 4 + f32s_len(&s.features))
                    .sum::<usize>()
            }
            Self::Hello(m) => 9 + if m.resume.is_some() { 16 } else { 0 },
            Self::Welcome(m) => {
                16 + bytes_len(m.spec.as_bytes())
                    + 1
                    + if m.compression.is_some() {
                        CompressionSpec::WIRE_LEN
                    } else {
                        0
                    }
            }
            Self::RoundStart(m) => {
                8 + bytes_len(&m.model)
                    + 1
                    + m.extra.as_deref().map_or(0, bytes_len)
                    + 4
                    + 17 * m.sessions.len()
            }
            Self::SessionResult(m) => {
                24 + bytes_len(&m.update) + 1 + m.merge.as_deref().map_or(0, bytes_len)
            }
            Self::RoundSync(m) => {
                8 + f32s_len(&m.global)
                    + 4
                    + m.merges
                        .iter()
                        .map(|(_, frame)| 8 + bytes_len(frame))
                        .sum::<usize>()
            }
            Self::TaskBegin(m) => 4 + f32s_len(&m.global),
            Self::TaskEnd(m) => 4 + f32s_len(&m.global),
            Self::RunEnd(_) => 1,
            Self::CompressedModelUpdate(m) => 25 + m.index.encoded_len() + m.values.encoded_len(),
        };
        HEADER_LEN + payload
    }

    /// Encodes the message into one sealed frame (header + payload + CRC).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        buf.extend_from_slice(&(self.kind() as u16).to_le_bytes());
        buf.extend_from_slice(&[0u8; 8]); // length + checksum, sealed below
        let mut w = Writer(&mut buf);
        match self {
            Self::ModelBroadcast(m) => {
                w.u32(m.task);
                w.u32(m.round);
                w.f32s(&m.model);
            }
            Self::ClientModelUpdate(m) => {
                w.u64(m.client_id);
                w.f32(m.weight);
                w.f32s(&m.model);
            }
            Self::PromptUpload(m) => {
                w.u64(m.client_id);
                w.u32(u32::try_from(m.groups.len()).expect("group count"));
                for g in &m.groups {
                    w.u64(g.client_id);
                    w.u32(u32::try_from(g.prompts.len()).expect("prompt count"));
                    for (class, v) in &g.prompts {
                        w.u32(*class);
                        w.f32s(v);
                    }
                }
            }
            Self::GlobalPromptBroadcast(m) => {
                w.u32(m.task);
                w.u32(m.round);
                w.u32(u32::try_from(m.candidates.len()).expect("candidate count"));
                for (class, v) in &m.candidates {
                    w.u32(*class);
                    w.f32s(v);
                }
                match &m.generalized {
                    Some(v) => {
                        w.u8(1);
                        w.f32s(v);
                    }
                    None => w.u8(0),
                }
            }
            Self::RehearsalMemory(m) => {
                w.u64(m.client_id);
                w.u64(m.seed);
                w.u32(u32::try_from(m.samples.len()).expect("sample count"));
                for s in &m.samples {
                    w.u32(s.label);
                    w.f32s(&s.features);
                }
            }
            Self::Hello(m) => {
                w.u64(m.nonce);
                match m.resume {
                    Some(resume) => {
                        w.u8(1);
                        w.u64(resume.token);
                        w.u64(resume.cursor);
                    }
                    None => w.u8(0),
                }
            }
            Self::Welcome(m) => {
                w.u64(m.peer_id);
                w.u64(m.resume_token);
                w.str(&m.spec);
                match &m.compression {
                    Some(spec) => {
                        w.u8(1);
                        spec.write(&mut w);
                    }
                    None => w.u8(0),
                }
            }
            Self::RoundStart(m) => {
                w.u32(m.task);
                w.u32(m.round);
                w.bytes(&m.model);
                match &m.extra {
                    Some(frame) => {
                        w.u8(1);
                        w.bytes(frame);
                    }
                    None => w.u8(0),
                }
                w.u32(u32::try_from(m.sessions.len()).expect("session count"));
                for s in &m.sessions {
                    w.u64(s.client_id);
                    w.u8(s.group);
                    w.u64(s.seed);
                }
            }
            Self::SessionResult(m) => {
                w.u32(m.task);
                w.u32(m.round);
                w.u64(m.client_id);
                w.u64(m.wall_ns);
                w.bytes(&m.update);
                match &m.merge {
                    Some(frame) => {
                        w.u8(1);
                        w.bytes(frame);
                    }
                    None => w.u8(0),
                }
            }
            Self::RoundSync(m) => {
                w.u32(m.task);
                w.u32(m.round);
                w.f32s(&m.global);
                w.u32(u32::try_from(m.merges.len()).expect("merge count"));
                for (client_id, frame) in &m.merges {
                    w.u64(*client_id);
                    w.bytes(frame);
                }
            }
            Self::TaskBegin(m) => {
                w.u32(m.task);
                w.f32s(&m.global);
            }
            Self::TaskEnd(m) => {
                w.u32(m.task);
                w.f32s(&m.global);
            }
            Self::RunEnd(m) => w.u8(m.reason),
            Self::CompressedModelUpdate(m) => {
                w.u64(m.client_id);
                w.f32(m.weight);
                w.u32(m.base_task);
                w.u32(m.base_round);
                w.u8(u8::from(m.delta));
                w.u32(m.total_len);
                m.index.write(&mut w);
                m.values.write(&mut w);
            }
        }
        seal_frame(&mut buf);
        debug_assert_eq!(buf.len(), self.encoded_len());
        buf
    }

    /// Decodes one frame, validating magic, version, kind, length, and
    /// checksum before touching the payload. Never panics on foreign bytes.
    pub fn decode(frame: &[u8]) -> Result<Self, WireError> {
        let (kind, payload) = open_frame(frame)?;
        let mut r = Reader::new(payload);
        let msg = match kind {
            MessageKind::ModelBroadcast => Self::ModelBroadcast(ModelBroadcast {
                task: r.u32("task")?,
                round: r.u32("round")?,
                model: r.f32s("model")?,
            }),
            MessageKind::ClientModelUpdate => Self::ClientModelUpdate(ClientModelUpdate {
                client_id: r.u64("client_id")?,
                weight: r.f32("weight")?,
                model: r.f32s("model")?,
            }),
            MessageKind::PromptUpload => {
                let client_id = r.u64("client_id")?;
                let n_groups = r.count(12, "group count")?;
                let mut groups = Vec::with_capacity(n_groups);
                for _ in 0..n_groups {
                    let gid = r.u64("group client_id")?;
                    let n_prompts = r.count(8, "prompt count")?;
                    let mut prompts = Vec::with_capacity(n_prompts);
                    for _ in 0..n_prompts {
                        let class = r.u32("prompt class")?;
                        prompts.push((class, r.f32s("prompt values")?));
                    }
                    groups.push(PromptGroup {
                        client_id: gid,
                        prompts,
                    });
                }
                Self::PromptUpload(PromptUpload { client_id, groups })
            }
            MessageKind::GlobalPromptBroadcast => {
                let task = r.u32("task")?;
                let round = r.u32("round")?;
                let n_cands = r.count(8, "candidate count")?;
                let mut candidates = Vec::with_capacity(n_cands);
                for _ in 0..n_cands {
                    let class = r.u32("candidate class")?;
                    candidates.push((class, r.f32s("candidate values")?));
                }
                let generalized = match r.u8("generalized tag")? {
                    0 => None,
                    1 => Some(r.f32s("generalized prompt")?),
                    _ => return Err(WireError::Malformed("generalized tag")),
                };
                Self::GlobalPromptBroadcast(GlobalPromptBroadcast {
                    task,
                    round,
                    candidates,
                    generalized,
                })
            }
            MessageKind::RehearsalMemory => {
                let client_id = r.u64("client_id")?;
                let seed = r.u64("seed")?;
                let n_samples = r.count(8, "sample count")?;
                let mut samples = Vec::with_capacity(n_samples);
                for _ in 0..n_samples {
                    let label = r.u32("sample label")?;
                    samples.push(WireSample {
                        label,
                        features: r.f32s("sample features")?,
                    });
                }
                Self::RehearsalMemory(RehearsalMemory {
                    client_id,
                    seed,
                    samples,
                })
            }
            MessageKind::Hello => {
                let nonce = r.u64("nonce")?;
                let resume = match r.u8("resume tag")? {
                    0 => None,
                    1 => Some(Resume {
                        token: r.u64("resume token")?,
                        cursor: r.u64("resume cursor")?,
                    }),
                    _ => return Err(WireError::Malformed("resume tag")),
                };
                Self::Hello(Hello { nonce, resume })
            }
            MessageKind::Welcome => {
                let peer_id = r.u64("peer_id")?;
                let resume_token = r.u64("resume_token")?;
                let spec = r.str("spec")?;
                let compression = match r.u8("compression tag")? {
                    0 => None,
                    1 => Some(CompressionSpec::read(&mut r, "compression spec")?),
                    _ => return Err(WireError::Malformed("compression tag")),
                };
                Self::Welcome(Welcome {
                    peer_id,
                    resume_token,
                    spec,
                    compression,
                })
            }
            MessageKind::RoundStart => {
                let task = r.u32("task")?;
                let round = r.u32("round")?;
                let model = r.bytes("model frame")?;
                let extra = match r.u8("extra tag")? {
                    0 => None,
                    1 => Some(r.bytes("extra frame")?),
                    _ => return Err(WireError::Malformed("extra tag")),
                };
                let n_sessions = r.count(17, "session count")?;
                let mut sessions = Vec::with_capacity(n_sessions);
                for _ in 0..n_sessions {
                    sessions.push(SessionAssignment {
                        client_id: r.u64("session client_id")?,
                        group: r.u8("session group")?,
                        seed: r.u64("session seed")?,
                    });
                }
                Self::RoundStart(RoundStart {
                    task,
                    round,
                    model,
                    extra,
                    sessions,
                })
            }
            MessageKind::SessionResult => {
                let task = r.u32("task")?;
                let round = r.u32("round")?;
                let client_id = r.u64("client_id")?;
                let wall_ns = r.u64("wall_ns")?;
                let update = r.bytes("update frame")?;
                let merge = match r.u8("merge tag")? {
                    0 => None,
                    1 => Some(r.bytes("merge frame")?),
                    _ => return Err(WireError::Malformed("merge tag")),
                };
                Self::SessionResult(SessionResult {
                    task,
                    round,
                    client_id,
                    wall_ns,
                    update,
                    merge,
                })
            }
            MessageKind::RoundSync => {
                let task = r.u32("task")?;
                let round = r.u32("round")?;
                let global = r.f32s("global")?;
                let n_merges = r.count(12, "merge count")?;
                let mut merges = Vec::with_capacity(n_merges);
                for _ in 0..n_merges {
                    let client_id = r.u64("merge client_id")?;
                    merges.push((client_id, r.bytes("merge frame")?));
                }
                Self::RoundSync(RoundSync {
                    task,
                    round,
                    global,
                    merges,
                })
            }
            MessageKind::TaskBegin => Self::TaskBegin(TaskBegin {
                task: r.u32("task")?,
                global: r.f32s("global")?,
            }),
            MessageKind::TaskEnd => Self::TaskEnd(TaskEnd {
                task: r.u32("task")?,
                global: r.f32s("global")?,
            }),
            MessageKind::RunEnd => Self::RunEnd(RunEnd {
                reason: r.u8("reason")?,
            }),
            MessageKind::CompressedModelUpdate => {
                let client_id = r.u64("client_id")?;
                let weight = r.f32("weight")?;
                let base_task = r.u32("base_task")?;
                let base_round = r.u32("base_round")?;
                let delta = match r.u8("delta flag")? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("delta flag")),
                };
                let total_len = r.u32("total_len")?;
                let index = SparseIndex::read(&mut r, total_len as usize, "sparse index")?;
                let values = QuantValues::read(&mut r, "quant values")?;
                if values.len() != index.count(total_len as usize) {
                    return Err(WireError::Malformed("value count mismatch"));
                }
                Self::CompressedModelUpdate(CompressedModelUpdate {
                    client_id,
                    weight,
                    base_task,
                    base_round,
                    delta,
                    total_len,
                    index,
                    values,
                })
            }
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::QuantMode;

    pub(crate) fn exemplars() -> Vec<WireMessage> {
        vec![
            WireMessage::ModelBroadcast(ModelBroadcast {
                task: 1,
                round: 2,
                model: vec![0.5, -1.25, f32::MIN_POSITIVE, 3.0e8],
            }),
            WireMessage::ClientModelUpdate(ClientModelUpdate {
                client_id: 7,
                weight: 42.0,
                model: vec![1.0],
            }),
            WireMessage::PromptUpload(PromptUpload {
                client_id: 3,
                groups: vec![
                    PromptGroup {
                        client_id: 3,
                        prompts: vec![(0, vec![0.1, 0.2]), (2, vec![-0.3, 0.4])],
                    },
                    PromptGroup {
                        client_id: 3,
                        prompts: Vec::new(),
                    },
                ],
            }),
            WireMessage::GlobalPromptBroadcast(GlobalPromptBroadcast {
                task: 0,
                round: 0,
                candidates: Vec::new(),
                generalized: None,
            }),
            WireMessage::GlobalPromptBroadcast(GlobalPromptBroadcast {
                task: 4,
                round: 9,
                candidates: vec![(1, vec![1.5; 4])],
                generalized: Some(vec![0.25; 4]),
            }),
            WireMessage::RehearsalMemory(RehearsalMemory {
                client_id: 11,
                seed: 0xdead_beef,
                samples: vec![
                    WireSample {
                        label: 2,
                        features: vec![0.0, 1.0, 2.0],
                    },
                    WireSample {
                        label: 0,
                        features: Vec::new(),
                    },
                ],
            }),
            WireMessage::Hello(Hello {
                nonce: 0x1234,
                resume: None,
            }),
            WireMessage::Hello(Hello {
                nonce: 0x99,
                resume: Some(Resume {
                    token: u64::MAX,
                    cursor: 17,
                }),
            }),
            WireMessage::Welcome(Welcome {
                peer_id: 3,
                resume_token: 0xfeed_f00d,
                spec: "{\"dataset\":\"digits\",\"seed\":42}".to_string(),
                compression: None,
            }),
            WireMessage::Welcome(Welcome {
                peer_id: 1,
                resume_token: 0,
                spec: String::new(),
                compression: Some(CompressionSpec {
                    delta: true,
                    quant: QuantMode::Int8,
                    topk_fraction: 0.25,
                }),
            }),
            WireMessage::RoundStart(RoundStart {
                task: 1,
                round: 2,
                model: WireMessage::ModelBroadcast(ModelBroadcast {
                    task: 1,
                    round: 2,
                    model: vec![0.5, -1.0],
                })
                .encode(),
                extra: Some(vec![0xab; 5]),
                sessions: vec![
                    SessionAssignment {
                        client_id: 0,
                        group: 2,
                        seed: 77,
                    },
                    SessionAssignment {
                        client_id: 9,
                        group: 0,
                        seed: u64::MAX,
                    },
                ],
            }),
            WireMessage::RoundStart(RoundStart {
                task: 0,
                round: 0,
                model: Vec::new(),
                extra: None,
                sessions: Vec::new(),
            }),
            WireMessage::SessionResult(SessionResult {
                task: 3,
                round: 1,
                client_id: 4,
                wall_ns: 123_456,
                update: vec![1, 2, 3, 4],
                merge: Some(vec![5, 6]),
            }),
            WireMessage::SessionResult(SessionResult {
                task: 0,
                round: 0,
                client_id: 0,
                wall_ns: 0,
                update: Vec::new(),
                merge: None,
            }),
            WireMessage::RoundSync(RoundSync {
                task: 2,
                round: 4,
                global: vec![1.0, 2.0, -3.5],
                merges: vec![(1, vec![9]), (5, Vec::new())],
            }),
            WireMessage::TaskBegin(TaskBegin {
                task: 0,
                global: vec![0.25],
            }),
            WireMessage::TaskEnd(TaskEnd {
                task: 6,
                global: Vec::new(),
            }),
            WireMessage::RunEnd(RunEnd {
                reason: RunEnd::LEAVE,
            }),
            WireMessage::CompressedModelUpdate(CompressedModelUpdate {
                client_id: 5,
                weight: 12.0,
                base_task: 1,
                base_round: 2,
                delta: true,
                total_len: 6,
                index: SparseIndex::List(vec![0, 3, 5]),
                values: QuantValues::Int8 {
                    zero_point: -0.5,
                    scale: 0.01,
                    codes: vec![0, 130, 255],
                },
            }),
            WireMessage::CompressedModelUpdate(CompressedModelUpdate {
                client_id: 0,
                weight: 1.0,
                base_task: 0,
                base_round: 0,
                delta: false,
                total_len: 4,
                index: SparseIndex::Dense,
                values: QuantValues::F32(vec![1.0, -2.5, 0.0, f32::MIN_POSITIVE]),
            }),
            WireMessage::CompressedModelUpdate(CompressedModelUpdate {
                client_id: 9,
                weight: 3.0,
                base_task: 0,
                base_round: 1,
                delta: true,
                total_len: 40,
                index: SparseIndex::Bitmap({
                    let mut bits = vec![0u8; 5];
                    for p in [0usize, 9, 17, 31, 39] {
                        bits[p / 8] |= 1 << (p % 8);
                    }
                    bits
                }),
                values: QuantValues::F16(vec![0x3c00, 0x8000, 0x7bff, 0x0001, 0xc000]),
            }),
        ]
    }

    #[test]
    fn exemplars_cover_every_kind() {
        let mut kinds: Vec<MessageKind> = exemplars().iter().map(WireMessage::kind).collect();
        kinds.sort_by_key(|k| *k as u16);
        kinds.dedup();
        assert_eq!(kinds, MessageKind::ALL.to_vec());
    }

    #[test]
    fn nested_frames_decode_recursively() {
        // A RoundStart's model field is itself a sealed frame; decoding the
        // outer envelope must hand back bytes the codec accepts verbatim.
        let inner = WireMessage::ModelBroadcast(ModelBroadcast {
            task: 2,
            round: 7,
            model: vec![4.0, -0.125],
        });
        let outer = WireMessage::RoundStart(RoundStart {
            task: 2,
            round: 7,
            model: inner.encode(),
            extra: None,
            sessions: Vec::new(),
        });
        let WireMessage::RoundStart(back) = WireMessage::decode(&outer.encode()).unwrap() else {
            panic!("wrong kind");
        };
        assert_eq!(WireMessage::decode(&back.model).unwrap(), inner);
    }

    #[test]
    fn every_exemplar_round_trips_bit_exactly() {
        for msg in exemplars() {
            let frame = msg.encode();
            assert_eq!(frame.len(), msg.encoded_len(), "{:?}", msg.kind());
            let back = WireMessage::decode(&frame).expect("decode");
            assert_eq!(back, msg);
            assert_eq!(back.kind(), msg.kind());
        }
    }

    #[test]
    fn special_float_payloads_survive() {
        let msg = WireMessage::ModelBroadcast(ModelBroadcast {
            task: 0,
            round: 0,
            model: vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0],
        });
        let WireMessage::ModelBroadcast(back) = WireMessage::decode(&msg.encode()).unwrap() else {
            panic!("wrong kind");
        };
        // Bit-exact comparison (NaN payloads included).
        let WireMessage::ModelBroadcast(orig) = msg else {
            unreachable!()
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.model), bits(&orig.model));
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let mut frame = exemplars()[0].encode();
        frame[0] ^= 0xff;
        assert!(matches!(
            WireMessage::decode(&frame),
            Err(WireError::BadMagic { .. })
        ));
        let mut frame = exemplars()[0].encode();
        frame[4] = 0x7f;
        assert!(matches!(
            WireMessage::decode(&frame),
            Err(WireError::VersionMismatch { got: 0x7f, .. })
        ));
    }

    #[test]
    fn truncation_and_extension_are_detected() {
        let frame = exemplars()[0].encode();
        for cut in [0, 4, HEADER_LEN - 1, HEADER_LEN, frame.len() - 1] {
            let err = WireMessage::decode(&frame[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::Truncated { .. } | WireError::LengthMismatch { .. }
                ),
                "cut {cut}: {err}"
            );
        }
        let mut extended = frame.clone();
        extended.push(0);
        assert!(matches!(
            WireMessage::decode(&extended),
            Err(WireError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn payload_corruption_fails_checksum() {
        let mut frame = exemplars()[0].encode();
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert!(matches!(
            WireMessage::decode(&frame),
            Err(WireError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn kind_flips_between_identical_layouts_are_caught() {
        // TaskBegin and TaskEnd share a payload layout; only the
        // header-covering checksum tells them apart.
        let msg = WireMessage::TaskBegin(TaskBegin {
            task: 1,
            global: vec![3.0],
        });
        let mut frame = msg.encode();
        frame[6] = MessageKind::TaskEnd as u16 as u8;
        assert!(matches!(
            WireMessage::decode(&frame),
            Err(WireError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn a_sealed_frame_of_retired_kind_5_is_an_unknown_kind() {
        // Kind 5 once carried secure-aggregation masked updates with the
        // ClientModelUpdate layout. A well-formed, correctly sealed frame
        // of that kind must be refused by kind, not by checksum.
        let msg = WireMessage::ClientModelUpdate(ClientModelUpdate {
            client_id: 1,
            weight: 2.0,
            model: vec![3.0],
        });
        let mut frame = msg.encode();
        frame[6..8].copy_from_slice(&5u16.to_le_bytes());
        crate::frame::seal_frame(&mut frame);
        assert_eq!(WireMessage::decode(&frame), Err(WireError::UnknownKind(5)));
    }

    #[test]
    fn compress_without_quant_or_topk_is_lossless() {
        // Dense f32 (even with delta off) must reconstruct bit-exactly.
        let flat = vec![0.5f32, -1.25, 3.0e-7, 42.0];
        let base = vec![0.0f32; 4];
        let spec = CompressionSpec {
            delta: false,
            quant: QuantMode::None,
            topk_fraction: 1.0,
        };
        let msg = CompressedModelUpdate::compress(&spec, None, 7, 2.0, &flat, &base, 0, 1);
        assert_eq!(msg.index, SparseIndex::Dense);
        let back = msg.reconstruct(&base).expect("reconstruct");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&flat));
    }

    #[test]
    fn delta_topk_reconstruction_keeps_base_for_dropped_coords() {
        let base = vec![1.0f32, 2.0, 3.0, 4.0];
        // Largest deltas at coords 1 (|2.0|) and 3 (|−1.5|).
        let flat = vec![1.1f32, 4.0, 3.05, 2.5];
        let spec = CompressionSpec {
            delta: true,
            quant: QuantMode::None,
            topk_fraction: 0.5,
        };
        let msg = CompressedModelUpdate::compress(&spec, None, 1, 1.0, &flat, &base, 0, 0);
        assert_eq!(msg.index.positions(4), vec![1, 3]);
        let back = msg.reconstruct(&base).expect("reconstruct");
        assert_eq!(back, vec![1.0, 4.0, 3.0, 2.5]);
    }

    #[test]
    fn mask_restricts_exchanged_coordinates() {
        let base = vec![0.0f32; 5];
        let flat = vec![10.0f32, 20.0, 30.0, 40.0, 50.0];
        let spec = CompressionSpec::identity();
        let msg = CompressedModelUpdate::compress(&spec, Some(&[1, 4]), 2, 1.0, &flat, &base, 0, 0);
        assert_eq!(msg.index.positions(5), vec![1, 4]);
        let back = msg.reconstruct(&base).expect("reconstruct");
        // Unmasked coordinates reconstruct to the base (broadcast) values.
        assert_eq!(back, vec![0.0, 20.0, 0.0, 0.0, 50.0]);
    }

    #[test]
    fn reconstruct_rejects_wrong_base_length() {
        let spec = CompressionSpec::identity();
        let msg = CompressedModelUpdate::compress(&spec, None, 0, 1.0, &[1.0; 3], &[0.0; 3], 0, 0);
        assert!(matches!(
            msg.reconstruct(&[0.0; 4]),
            Err(WireError::Malformed(_))
        ));
    }

    /// A hand-built update over `total_len` coordinates carrying `index`
    /// with one raw f32 per index entry the index claims.
    fn hand_built(total_len: u32, index: SparseIndex, values: usize) -> CompressedModelUpdate {
        CompressedModelUpdate {
            client_id: 1,
            weight: 1.0,
            base_task: 0,
            base_round: 0,
            delta: true,
            total_len,
            index,
            values: QuantValues::F32(vec![1.0; values]),
        }
    }

    #[test]
    fn reconstruct_rejects_a_list_index_past_the_end() {
        let msg = hand_built(4, SparseIndex::List(vec![1, 4]), 2);
        assert!(matches!(
            msg.reconstruct(&[0.0; 4]),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn reconstruct_rejects_a_list_index_out_of_order() {
        let msg = hand_built(4, SparseIndex::List(vec![2, 1]), 2);
        assert!(matches!(
            msg.reconstruct(&[0.0; 4]),
            Err(WireError::Malformed(_))
        ));
        let msg = hand_built(4, SparseIndex::List(vec![1, 1]), 2);
        assert!(matches!(
            msg.reconstruct(&[0.0; 4]),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn reconstruct_rejects_a_bitmap_of_the_wrong_length() {
        // 9 coordinates need 2 bitmap bytes; one byte covers only 8.
        let msg = hand_built(9, SparseIndex::Bitmap(vec![0b1000_0001]), 2);
        assert!(matches!(
            msg.reconstruct(&[0.0; 9]),
            Err(WireError::Malformed(_))
        ));
        // Three bytes, with coordinate 16 set past the 9 that exist.
        let msg = hand_built(9, SparseIndex::Bitmap(vec![1, 0, 1]), 2);
        assert!(matches!(
            msg.reconstruct(&[0.0; 9]),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn reconstruct_rejects_a_bitmap_with_pad_bits_set() {
        // Coordinate 10 of 9: the second byte's bit 2 is padding.
        let msg = hand_built(9, SparseIndex::Bitmap(vec![1, 0b0000_0100]), 2);
        assert!(matches!(
            msg.reconstruct(&[0.0; 9]),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn corrupt_sparse_payloads_are_typed_errors() {
        // An index list that is not ascending must decode to Malformed,
        // not panic — rebuild the frame so the checksum is valid.
        let msg = CompressedModelUpdate {
            client_id: 1,
            weight: 1.0,
            base_task: 0,
            base_round: 0,
            delta: false,
            total_len: 4,
            index: SparseIndex::List(vec![2, 1]),
            values: QuantValues::F32(vec![0.0, 1.0]),
        };
        assert!(matches!(
            WireMessage::decode(&WireMessage::CompressedModelUpdate(msg).encode()),
            Err(WireError::Malformed(_))
        ));
        // A bitmap whose popcount disagrees with the value count.
        let msg = CompressedModelUpdate {
            client_id: 1,
            weight: 1.0,
            base_task: 0,
            base_round: 0,
            delta: false,
            total_len: 8,
            index: SparseIndex::Bitmap(vec![0b0000_0011]),
            values: QuantValues::F32(vec![0.0]),
        };
        assert!(matches!(
            WireMessage::decode(&WireMessage::CompressedModelUpdate(msg).encode()),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn uncompressed_frame_len_matches_plain_update() {
        let spec = CompressionSpec {
            delta: true,
            quant: QuantMode::Int8,
            topk_fraction: 0.25,
        };
        let flat = vec![0.5f32; 100];
        let base = vec![0.0f32; 100];
        let msg = CompressedModelUpdate::compress(&spec, None, 3, 2.0, &flat, &base, 0, 0);
        let plain = WireMessage::ClientModelUpdate(ClientModelUpdate {
            client_id: 3,
            weight: 2.0,
            model: flat,
        });
        assert_eq!(msg.uncompressed_frame_len(), plain.encoded_len());
        // And the compressed frame is genuinely smaller.
        let encoded = WireMessage::CompressedModelUpdate(msg).encode();
        assert!(encoded.len() * 4 < plain.encoded_len());
    }
}
