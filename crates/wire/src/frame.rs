//! Frame header, checksum, and the bounds-checked little-endian
//! reader/writer the payload codecs are built on.

use std::fmt;

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"RFWL";

/// Current schema version; decoders accept exactly this value. Bumped to 2
/// when the handshake payloads grew session-resumption fields
/// ([`crate::Hello::resume`], [`crate::Welcome::resume_token`]); bumped to 3
/// when the handshake grew compression negotiation (a codec-revision byte in
/// `Hello`, [`crate::Welcome::compression`]); bumped to 4 when `Hello`
/// dropped that byte: decoders accept only their own version, so every peer
/// that can connect speaks the one compression codec, and
/// [`crate::Welcome::compression`] is the whole negotiation. Kind 5
/// (secure-aggregation masked updates) was retired in the same revision and
/// now decodes to [`WireError::UnknownKind`].
pub const SCHEMA_VERSION: u16 = 4;

/// Fixed header size preceding every payload.
pub const HEADER_LEN: usize = 16;

/// Typed decode/transport failure. Decoding never panics: every malformed
/// frame maps to one of these.
///
/// Marked `#[non_exhaustive]`: future transports may add variants without a
/// semver break, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer is shorter than the bytes the frame declares.
    Truncated {
        /// Bytes the frame needs to decode.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic {
        /// The bytes found where the magic should be.
        got: [u8; 4],
    },
    /// The frame was encoded under a different schema version.
    VersionMismatch {
        /// Version found in the header.
        got: u16,
        /// Version this decoder understands.
        expected: u16,
    },
    /// The header names a message kind this decoder does not know.
    UnknownKind(u16),
    /// The header's payload length disagrees with the buffer length.
    LengthMismatch {
        /// Payload length declared in the header.
        declared: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// The CRC32 over the header prefix and payload does not match.
    ChecksumMismatch {
        /// Checksum computed over the received bytes.
        computed: u32,
        /// Checksum stored in the header.
        stored: u32,
    },
    /// The payload failed structural validation (overruns, bad tags,
    /// leftover bytes) even though the checksum passed.
    Malformed(&'static str),
    /// The transport can no longer move frames.
    TransportClosed,
    /// An I/O failure on a socket-backed transport (the message is the
    /// stringified OS error).
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, got {got}")
            }
            Self::BadMagic { got } => write!(f, "bad magic {got:02x?}, expected {MAGIC:02x?}"),
            Self::VersionMismatch { got, expected } => {
                write!(f, "schema version {got}, expected {expected}")
            }
            Self::UnknownKind(kind) => write!(f, "unknown message kind {kind}"),
            Self::LengthMismatch { declared, actual } => {
                write!(f, "payload length {declared} declared, {actual} present")
            }
            Self::ChecksumMismatch { computed, stored } => {
                write!(
                    f,
                    "checksum mismatch: computed {computed:08x}, stored {stored:08x}"
                )
            }
            Self::Malformed(what) => write!(f, "malformed payload: {what}"),
            Self::TransportClosed => write!(f, "transport closed"),
            Self::Io(msg) => write!(f, "transport i/o error: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Wire identifier of each message type (the header's kind field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum MessageKind {
    /// Server → client: global model parameters for the round.
    ModelBroadcast = 1,
    /// Client → server: locally trained parameters plus FedAvg weight.
    ClientModelUpdate = 2,
    /// Client → server: class-wise Local Prompt Groups (RefFiL).
    PromptUpload = 3,
    /// Server → client: clustered prompt representatives + generalized prompt.
    GlobalPromptBroadcast = 4,
    /// Client-owned episodic memory in transit (rehearsal oracle).
    RehearsalMemory = 6,
    /// Client → server: first frame on a fresh connection.
    Hello = 7,
    /// Server → client: handshake reply assigning a peer id.
    Welcome = 8,
    /// Server → client: opens a round with nested broadcast frames and the
    /// peer's session assignments.
    RoundStart = 9,
    /// Client → server: one trained session's nested update/merge frames.
    SessionResult = 10,
    /// Server → client: closes a round with the post-aggregate global model
    /// and the ordered merge frames.
    RoundSync = 11,
    /// Server → client: a task is starting (replicas run task setup).
    TaskBegin = 12,
    /// Server → client: a task finished (replicas run task teardown).
    TaskEnd = 13,
    /// Either direction: the run (or this peer's participation) is over.
    RunEnd = 14,
    /// Client → server: delta/top-k/quantized parameters, reconstructed by
    /// the server against its own broadcast history.
    CompressedModelUpdate = 15,
}

impl MessageKind {
    /// Every kind, in wire-id order (for exhaustive tests). Id 5 is retired.
    pub const ALL: [MessageKind; 14] = [
        MessageKind::ModelBroadcast,
        MessageKind::ClientModelUpdate,
        MessageKind::PromptUpload,
        MessageKind::GlobalPromptBroadcast,
        MessageKind::RehearsalMemory,
        MessageKind::Hello,
        MessageKind::Welcome,
        MessageKind::RoundStart,
        MessageKind::SessionResult,
        MessageKind::RoundSync,
        MessageKind::TaskBegin,
        MessageKind::TaskEnd,
        MessageKind::RunEnd,
        MessageKind::CompressedModelUpdate,
    ];

    /// Parses the header's kind field.
    pub fn from_wire(raw: u16) -> Result<Self, WireError> {
        match raw {
            1 => Ok(Self::ModelBroadcast),
            2 => Ok(Self::ClientModelUpdate),
            3 => Ok(Self::PromptUpload),
            4 => Ok(Self::GlobalPromptBroadcast),
            6 => Ok(Self::RehearsalMemory),
            7 => Ok(Self::Hello),
            8 => Ok(Self::Welcome),
            9 => Ok(Self::RoundStart),
            10 => Ok(Self::SessionResult),
            11 => Ok(Self::RoundSync),
            12 => Ok(Self::TaskBegin),
            13 => Ok(Self::TaskEnd),
            14 => Ok(Self::RunEnd),
            15 => Ok(Self::CompressedModelUpdate),
            other => Err(WireError::UnknownKind(other)),
        }
    }

    /// Stable snake_case name, used as the telemetry counter suffix
    /// (`wire.<name>_bytes`).
    pub fn name(self) -> &'static str {
        match self {
            Self::ModelBroadcast => "model_broadcast",
            Self::ClientModelUpdate => "client_model_update",
            Self::PromptUpload => "prompt_upload",
            Self::GlobalPromptBroadcast => "global_prompt_broadcast",
            Self::RehearsalMemory => "rehearsal_memory",
            Self::Hello => "hello",
            Self::Welcome => "welcome",
            Self::RoundStart => "round_start",
            Self::SessionResult => "session_result",
            Self::RoundSync => "round_sync",
            Self::TaskBegin => "task_begin",
            Self::TaskEnd => "task_end",
            Self::RunEnd => "run_end",
            Self::CompressedModelUpdate => "compressed_model_update",
        }
    }
}

/// Slice-by-16 tables for the reflected IEEE polynomial. `T[0]` is the
/// classic byte table; `T[k][i]` is the CRC state after feeding byte `i`
/// followed by `k` zero bytes, so one 16-byte block folds in as 16
/// independent lookups.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

/// Advances the (pre-inverted) CRC state over `data`: sixteen bytes per
/// step through the slice-by-16 tables, then one byte per step over the
/// tail.
fn crc32_update(state: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = state;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        let w = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(w & 0xff) as usize]
            ^ t[14][((w >> 8) & 0xff) as usize]
            ^ t[13][((w >> 16) & 0xff) as usize]
            ^ t[12][(w >> 24) as usize]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

/// The one-byte-per-step loop [`crc32_update`] replaced, kept as the
/// reference its slice-by-16 body is property-tested against.
#[cfg(test)]
fn crc32_update_bytewise(state: u32, data: &[u8]) -> u32 {
    let mut c = state;
    for &b in data {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

/// CRC32 (IEEE 802.3 polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xffff_ffff, data) ^ 0xffff_ffff
}

/// CRC32 of the concatenation `head ++ tail` without materializing it —
/// the frame checksum covers the header prefix plus the payload.
pub(crate) fn crc32_two(head: &[u8], tail: &[u8]) -> u32 {
    crc32_update(crc32_update(0xffff_ffff, head), tail) ^ 0xffff_ffff
}

/// Seals `buf` (header with placeholder length/checksum plus payload) in
/// place: patches the payload length and the CRC32 into the header.
pub(crate) fn seal_frame(buf: &mut [u8]) {
    debug_assert!(buf.len() >= HEADER_LEN);
    let payload_len = u32::try_from(buf.len() - HEADER_LEN).expect("payload exceeds u32 framing");
    buf[8..12].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32_two(&buf[..12], &buf[HEADER_LEN..]);
    buf[12..16].copy_from_slice(&crc.to_le_bytes());
}

/// Validates a frame's header and checksum, returning the kind and payload.
pub(crate) fn open_frame(buf: &[u8]) -> Result<(MessageKind, &[u8]), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            got: buf.len(),
        });
    }
    let magic: [u8; 4] = buf[0..4].try_into().expect("4-byte slice");
    if magic != MAGIC {
        return Err(WireError::BadMagic { got: magic });
    }
    let version = u16::from_le_bytes(buf[4..6].try_into().expect("2-byte slice"));
    if version != SCHEMA_VERSION {
        return Err(WireError::VersionMismatch {
            got: version,
            expected: SCHEMA_VERSION,
        });
    }
    let kind = MessageKind::from_wire(u16::from_le_bytes(buf[6..8].try_into().expect("2 bytes")))?;
    let declared = u32::from_le_bytes(buf[8..12].try_into().expect("4-byte slice")) as usize;
    let actual = buf.len() - HEADER_LEN;
    if declared != actual {
        return Err(WireError::LengthMismatch { declared, actual });
    }
    let stored = u32::from_le_bytes(buf[12..16].try_into().expect("4-byte slice"));
    let computed = crc32_two(&buf[..12], &buf[HEADER_LEN..]);
    if computed != stored {
        return Err(WireError::ChecksumMismatch { computed, stored });
    }
    Ok((kind, &buf[HEADER_LEN..]))
}

/// Append-only little-endian payload writer.
pub(crate) struct Writer<'a>(pub &'a mut Vec<u8>);

impl Writer<'_> {
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f32(&mut self, v: f32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed `f32` vector: `u32` count followed by raw LE floats.
    pub fn f32s(&mut self, v: &[f32]) {
        self.u32(u32::try_from(v.len()).expect("vector exceeds u32 framing"));
        for &x in v {
            self.f32(x);
        }
    }

    /// Length-prefixed `u16` vector: `u32` count followed by raw LE words
    /// (used for f16-quantized payloads).
    pub fn u16s(&mut self, v: &[u16]) {
        self.u32(u32::try_from(v.len()).expect("vector exceeds u32 framing"));
        for &x in v {
            self.u16(x);
        }
    }

    /// Length-prefixed `u32` vector: `u32` count followed by raw LE words
    /// (used for sparse index lists).
    pub fn u32s(&mut self, v: &[u32]) {
        self.u32(u32::try_from(v.len()).expect("vector exceeds u32 framing"));
        for &x in v {
            self.u32(x);
        }
    }

    /// Length-prefixed byte string: `u32` length followed by the raw bytes
    /// (used for nested frames and UTF-8 strings).
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).expect("byte string exceeds u32 framing"));
        self.0.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Encoded size of a length-prefixed byte string.
pub(crate) fn bytes_len(v: &[u8]) -> usize {
    4 + v.len()
}

/// Bounds-checked little-endian payload reader. Every overrun is a typed
/// [`WireError::Malformed`]; length prefixes are validated against the
/// remaining bytes before any allocation.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(WireError::Malformed("length overflow"))?;
        if end > self.buf.len() {
            return Err(WireError::Malformed(what));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4-byte slice"),
        ))
    }

    pub fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8-byte slice"),
        ))
    }

    pub fn f32(&mut self, what: &'static str) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4-byte slice"),
        ))
    }

    /// Length-prefixed `f32` vector; the count is validated against the
    /// remaining bytes before allocating.
    pub fn f32s(&mut self, what: &'static str) -> Result<Vec<f32>, WireError> {
        let n = self.u32(what)? as usize;
        let bytes = self.take(n.checked_mul(4).ok_or(WireError::Malformed(what))?, what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Length-prefixed `u16` vector; the count is validated against the
    /// remaining bytes before allocating.
    pub fn u16s(&mut self, what: &'static str) -> Result<Vec<u16>, WireError> {
        let n = self.u32(what)? as usize;
        let bytes = self.take(n.checked_mul(2).ok_or(WireError::Malformed(what))?, what)?;
        Ok(bytes
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes(c.try_into().expect("2-byte chunk")))
            .collect())
    }

    /// Length-prefixed `u32` vector; the count is validated against the
    /// remaining bytes before allocating.
    pub fn u32s(&mut self, what: &'static str) -> Result<Vec<u32>, WireError> {
        let n = self.u32(what)? as usize;
        let bytes = self.take(n.checked_mul(4).ok_or(WireError::Malformed(what))?, what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Length-prefixed byte string; the length is validated against the
    /// remaining bytes before allocating.
    pub fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, WireError> {
        let n = self.u32(what)? as usize;
        Ok(self.take(n, what)?.to_vec())
    }

    /// Length-prefixed UTF-8 string; invalid UTF-8 is a typed error.
    pub fn str(&mut self, what: &'static str) -> Result<String, WireError> {
        String::from_utf8(self.bytes(what)?).map_err(|_| WireError::Malformed(what))
    }

    /// A `u32` element count, validated against a minimum per-element byte
    /// cost so a corrupt count cannot trigger a huge allocation.
    pub fn count(&mut self, min_elem_bytes: usize, what: &'static str) -> Result<usize, WireError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_elem_bytes) > self.buf.len() - self.pos {
            return Err(WireError::Malformed(what));
        }
        Ok(n)
    }

    /// Fails unless the payload was consumed exactly.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing payload bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crc32_matches_known_vector() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        // Longer than one 16-byte block, with a tail.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
        let every_byte: Vec<u8> = (0..1024).map(|i| i as u8).collect();
        assert_eq!(crc32(&every_byte), 0xb70b_4c26);
    }

    #[test]
    fn crc32_two_concatenates() {
        assert_eq!(crc32_two(b"1234", b"56789"), crc32(b"123456789"));
        assert_eq!(crc32_two(b"", b"123456789"), crc32(b"123456789"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn slice_by_16_matches_bytewise_reference(
            data in prop::collection::vec(0u8..=u8::MAX, 0..=4099usize),
            state in 0u32..=u32::MAX,
            split in 0usize..=4099,
        ) {
            prop_assert_eq!(crc32_update(state, &data), crc32_update_bytewise(state, &data));
            let at = split % (data.len() + 1);
            let (head, tail) = data.split_at(at);
            let reference = crc32_update_bytewise(
                crc32_update_bytewise(0xffff_ffff, head), tail) ^ 0xffff_ffff;
            prop_assert_eq!(crc32_two(head, tail), reference);
        }
    }

    #[test]
    fn slice_by_16_matches_bytewise_at_every_length() {
        // Every length through 4099 — each residue mod 16, each block count
        // up to 256 — over one fixed pseudo-random buffer.
        let data: Vec<u8> = (0u32..4099)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 0..=data.len() {
            assert_eq!(
                crc32_update(0xffff_ffff, &data[..len]),
                crc32_update_bytewise(0xffff_ffff, &data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn kind_round_trips_through_wire_id() {
        for kind in MessageKind::ALL {
            assert_eq!(MessageKind::from_wire(kind as u16).unwrap(), kind);
        }
        assert_eq!(MessageKind::from_wire(0), Err(WireError::UnknownKind(0)));
        assert_eq!(MessageKind::from_wire(99), Err(WireError::UnknownKind(99)));
    }

    #[test]
    fn open_frame_rejects_short_buffers() {
        assert_eq!(
            open_frame(&[0u8; 3]),
            Err(WireError::Truncated { needed: 16, got: 3 })
        );
    }

    #[test]
    fn reader_rejects_overrun_and_leftovers() {
        let mut r = Reader::new(&[1, 0, 0, 0]);
        assert!(r.u64("needs eight").is_err());
        let mut r = Reader::new(&[1, 0, 0, 0, 9]);
        assert_eq!(r.u32("ok").unwrap(), 1);
        assert_eq!(
            r.finish(),
            Err(WireError::Malformed("trailing payload bytes"))
        );
    }

    #[test]
    fn reader_vec_guard_blocks_absurd_counts() {
        // Declares 2^31 floats with only 4 bytes of payload behind it.
        let mut buf = Vec::new();
        Writer(&mut buf).u32(0x8000_0000);
        buf.extend_from_slice(&[0; 4]);
        let mut r = Reader::new(&buf);
        assert!(matches!(r.f32s("floats"), Err(WireError::Malformed(_))));
    }
}
