//! # refil-wire
//!
//! The typed wire layer: every client↔server exchange in the federation is
//! encoded through the versioned binary codec defined here and moved as a
//! framed byte buffer over a peer-addressed [`Link`]. This replaces the
//! simulation's former pass-by-clone plumbing (and its back-of-envelope
//! byte estimates) with a real, measured wire format, so communication
//! accounting reports exactly what an implementation would put on the
//! network — and, since the socket transports ([`NetListener`] /
//! [`connect`]) carry the very same frames, what a networked run *does*
//! put on it.
//!
//! ## Frame layout
//!
//! Every message is one frame: a 16-byte header followed by the payload,
//! all little-endian.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"RFWL"
//! 4       2     schema version (u16, currently 4)
//! 6       2     message kind (u16, see MessageKind)
//! 8       4     payload length (u32)
//! 12      4     CRC32 over header bytes 0..12 ++ payload
//! 16      n     payload (message-kind-specific, little-endian)
//! ```
//!
//! The checksum covers the header prefix as well as the payload, so a
//! single corrupted byte anywhere in a frame is always detected: either a
//! field-specific error (bad magic, version mismatch, unknown kind, length
//! mismatch) or a checksum failure. Decoding never panics — every failure
//! is a typed [`WireError`].
//!
//! ## Message catalog
//!
//! | kind | message | direction | carries |
//! |------|---------|-----------|---------|
//! | 1 | [`ModelBroadcast`] | server → client | global model parameters |
//! | 2 | [`ClientModelUpdate`] | client → server | locally trained parameters + FedAvg weight |
//! | 3 | [`PromptUpload`] | client → server | class-wise Local Prompt Groups (RefFiL Eq. 2–3) |
//! | 4 | [`GlobalPromptBroadcast`] | server → client | post-FINCH prompt representatives + generalized prompt |
//! | 6 | [`RehearsalMemory`] | client → client (via server) | episodic-memory samples (rehearsal oracle only) |
//! | 7 | [`Hello`] | client → server | connection handshake (client nonce, optional resume token) |
//! | 8 | [`Welcome`] | server → client | assigned peer id + resume token + run spec string |
//! | 9 | [`RoundStart`] | server → client | nested broadcast frames + session assignments |
//! | 10 | [`SessionResult`] | client → server | nested update/merge frames for one session |
//! | 11 | [`RoundSync`] | server → client | post-aggregate global model + ordered merge frames |
//! | 12 | [`TaskBegin`] | server → client | task-start marker + global model |
//! | 13 | [`TaskEnd`] | server → client | task-end marker + global model |
//! | 14 | [`RunEnd`] | either | run / participation termination |
//! | 15 | [`CompressedModelUpdate`] | client → server | delta/top-k/quantized parameters + FedAvg weight |
//!
//! Kind 5 is retired: it carried secure-aggregation masked updates, which
//! nothing sent, and it now decodes to [`WireError::UnknownKind`]. Kinds
//! 1–4, 6 and 15 are the *payload* exchanges whose sizes define the paper's
//! communication accounting; kinds 7–14 are the *control* protocol
//! the networked server speaks, and they carry payload exchanges as nested
//! encoded frames so accounting stays byte-identical to the loopback run.
//!
//! ## Compression
//!
//! [`CompressedModelUpdate`] is the communication-efficient replacement for
//! [`ClientModelUpdate`]: the client composes delta encoding (against the
//! last [`ModelBroadcast`] it applied), top-k sparsification, and f16/int8
//! quantization — in that order — according to the [`CompressionSpec`] the
//! server assigned in [`Welcome`]. The frame is self-describing: the server
//! reconstructs it with nothing but the matching broadcast from its own
//! history (keyed by the `base_task`/`base_round` tag the client echoes
//! back). A run without compression sends no spec, and its peers upload
//! plain [`ClientModelUpdate`] frames. See `compress`'s module docs
//! for the deterministic rounding rules and reconstruction-error contracts.
//!
//! `f32` values are encoded as their IEEE-754 little-endian bit patterns,
//! so an encode→decode round trip is bit-exact and a loopback-transported
//! run is byte-identical to an in-memory one.
//!
//! ## Versioning rules
//!
//! The schema version is bumped whenever a payload layout changes; decoders
//! accept exactly their own version and return
//! [`WireError::VersionMismatch`] otherwise. New message kinds may be added
//! without a version bump (old decoders report [`WireError::UnknownKind`]);
//! changing an existing payload requires one.
//!
//! # Examples
//!
//! ```
//! use refil_wire::{Link, Loopback, ModelBroadcast, WireMessage};
//! use std::time::{Duration, Instant};
//!
//! let msg = WireMessage::ModelBroadcast(ModelBroadcast {
//!     task: 0,
//!     round: 3,
//!     model: vec![1.0, -2.5, 3.25],
//! });
//! let frame = msg.encode();
//! assert_eq!(frame.len(), msg.encoded_len());
//!
//! let link = Loopback::new();
//! link.send(&frame).unwrap();
//! let deadline = Instant::now() + Duration::from_secs(1);
//! let received = link.recv_deadline(deadline).expect("frame queued");
//! assert_eq!(WireMessage::decode(&received).unwrap(), msg);
//! ```

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub(crate) mod compress;
mod frame;
mod link;
mod message;
mod net;
mod poll;

pub use compress::{CompressionSpec, QuantMode, QuantValues, SparseIndex};
pub use frame::{crc32, MessageKind, WireError};
pub use link::{ConnectError, Link, Listener, Loopback, PeerId, RecvError};
pub use message::{
    ClientModelUpdate, CompressedModelUpdate, GlobalPromptBroadcast, Hello, ModelBroadcast,
    PromptGroup, PromptUpload, RehearsalMemory, Resume, RoundStart, RoundSync, RunEnd,
    SessionAssignment, SessionResult, TaskBegin, TaskEnd, Welcome, WireMessage, WireSample,
};
pub use net::{connect, Endpoint, NetLink, NetListener};
pub use poll::{Interest, PollSet};

#[cfg(test)]
mod proptests;
