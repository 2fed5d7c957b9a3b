//! Frame header, checksum, and the bounds-checked little-endian
//! reader/writer the payload codecs are built on.

use std::fmt;

/// First four bytes of every frame.
pub(crate) const MAGIC: [u8; 4] = *b"RFWL";

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
pub(crate) const SCHEMA_VERSION: u16 = 4;

/// Fixed header size preceding every payload.
pub(crate) const HEADER_LEN: usize = 16;

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
    /// The first four bytes are not `MAGIC`.
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
    #[cfg(test)]
    pub(crate) const ALL: [MessageKind; 14] = [
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
    pub(crate) fn from_wire(raw: u16) -> Result<Self, WireError> {
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

/// Advances the (pre-inverted) CRC state over `data`: through the
/// carry-less-multiply kernel ([`clmul::update`]) when the CPU reports
/// PCLMULQDQ and SSE4.1 at run time, otherwise through the slice-by-16
/// tables. Both compute the same state.
fn crc32_update(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if clmul::detected() {
        // SAFETY: `clmul::detected` has just reported PCLMULQDQ and SSE4.1
        // on this CPU, the only features `clmul::update` enables.
        return unsafe { clmul::update(state, data) };
    }
    crc32_update_table(state, data)
}

/// Advances the (pre-inverted) CRC state over `data`: sixteen bytes per
/// step through the slice-by-16 tables, then one byte per step over the
/// tail. The path for short inputs, non-x86 hosts and CPUs without
/// PCLMULQDQ, and the tail of the folded kernel.
fn crc32_update_table(state: u32, data: &[u8]) -> u32 {
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

/// CRC32 by folding with carry-less multiplies (Gopal et al., Intel, "Fast
/// CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction"), in the bit-reflected form the IEEE CRC uses.
///
/// The message is read as four 128-bit lanes, 64 bytes apart. Each step
/// multiplies a lane's two 64-bit halves by `x^(512±32) mod P` and XORs
/// the products into the lane 64 bytes on, which keeps the lane congruent
/// to the message so far modulo `P`. The four lanes are then folded into
/// one (`x^(128±32) mod P`), whole 16-byte blocks are folded into that,
/// the 128-bit remainder is narrowed to 64 bits and Barrett-reduced to the
/// 32-bit state, and the last `len % 16` bytes go through the tables.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Fold constants: `reflect32(x^n mod P) << 1` for the `n` named, as in
    /// the Linux and zlib kernels. `K1`/`K2` fold a lane 512 bits on, `K3`/
    /// `K4` 128 bits on, `K5` narrows 96 bits to 64.
    pub(super) const K1: i64 = 0x1_5444_2bd4; // n = 512 + 32
    pub(super) const K2: i64 = 0x1_c6e4_1596; // n = 512 − 32
    pub(super) const K3: i64 = 0x1_7519_97d0; // n = 128 + 32
    pub(super) const K4: i64 = 0x0_ccaa_009e; // n = 128 − 32
    pub(super) const K5: i64 = 0x1_63cd_6124; // n = 64
    /// The reflected polynomial with its `x^32` term, and Barrett's
    /// `μ = reflect33(x^64 div P)`.
    pub(super) const P_X: i64 = 0x1_db71_0641;
    pub(super) const MU: i64 = 0x1_f701_1641;

    /// Whether the CPU has what [`update`] enables (std caches the probe).
    pub(super) fn detected() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Bytes `0..16` of `b` as one little-endian 128-bit lane.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn lane(b: &[u8]) -> __m128i {
        let half = |at: usize| i64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
        _mm_set_epi64x(half(8), half(0))
    }

    /// `a · k` folded onto `b`: the low half of `a` times the low key plus
    /// the high half times the high key, XORed into `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn fold(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(a, keys);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// Advances the pre-inverted CRC state over `data`, exactly as
    /// [`super::crc32_update_table`] does. Inputs shorter than one 64-byte
    /// block cannot fill the four lanes and go to the tables whole, such
    /// as the 12-byte header prefix; at 64 bytes the kernel already takes
    /// about a quarter of the tables' time. Code built without these
    /// target features may call it only after [`detected`] returns true.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub(super) fn update(state: u32, data: &[u8]) -> u32 {
        let mut blocks = data.chunks_exact(64);
        let Some(first) = blocks.next() else {
            return super::crc32_update_table(state, data);
        };
        let mut x = [
            lane(&first[..16]),
            lane(&first[16..32]),
            lane(&first[32..48]),
            lane(&first[48..]),
        ];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        for b in &mut blocks {
            for (l, xl) in x.iter_mut().enumerate() {
                *xl = fold(*xl, lane(&b[16 * l..]), k1k2);
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
        let mut singles = blocks.remainder().chunks_exact(16);
        for b in &mut singles {
            acc = fold(acc, lane(b), k3k4);
        }

        // 128 → 96 bits: the low half times x^96, XORed onto the high half.
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(acc, k3k4),
            _mm_srli_si128::<8>(acc),
        );
        // 96 → 64 bits: the low word times x^64, XORed onto the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(acc),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and in the
        // reflected form the state is the upper word of R ⊕ T2.
        let pmu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        let folded = _mm_extract_epi32::<1>(_mm_xor_si128(acc, t2)) as u32;
        super::crc32_update_table(folded, singles.remainder())
    }
}

/// The one-byte-per-step loop the slice-by-16 tables replaced, kept as the
/// reference both the tables and the folded kernel are tested against.
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
    pub(crate) fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f32(&mut self, v: f32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed vector of `N`-byte words: `u32` count, then each
    /// word's little-endian bytes. One `resize` makes room for the whole
    /// vector and a chunked store fills it, which LLVM turns into wide
    /// moves; the bytes are those of one `le(x)` append per element.
    fn words<T: Copy, const N: usize>(&mut self, v: &[T], le: impl Fn(T) -> [u8; N]) {
        self.u32(u32::try_from(v.len()).expect("vector exceeds u32 framing"));
        let start = self.0.len();
        self.0.resize(start + N * v.len(), 0);
        for (dst, &x) in self.0[start..].chunks_exact_mut(N).zip(v) {
            dst.copy_from_slice(&le(x));
        }
    }

    /// Length-prefixed `f32` vector: `u32` count followed by raw LE floats.
    pub(crate) fn f32s(&mut self, v: &[f32]) {
        self.words(v, f32::to_le_bytes);
    }

    /// Length-prefixed `u16` vector: `u32` count followed by raw LE words
    /// (used for f16-quantized payloads).
    pub(crate) fn u16s(&mut self, v: &[u16]) {
        self.words(v, u16::to_le_bytes);
    }

    /// Length-prefixed `u32` vector: `u32` count followed by raw LE words
    /// (used for sparse index lists).
    pub(crate) fn u32s(&mut self, v: &[u32]) {
        self.words(v, u32::to_le_bytes);
    }

    /// Length-prefixed byte string: `u32` length followed by the raw bytes
    /// (used for nested frames and UTF-8 strings).
    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).expect("byte string exceeds u32 framing"));
        self.0.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self, v: &str) {
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
    pub(crate) fn new(buf: &'a [u8]) -> Self {
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

    pub(crate) fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4-byte slice"),
        ))
    }

    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8-byte slice"),
        ))
    }

    pub(crate) fn f32(&mut self, what: &'static str) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4-byte slice"),
        ))
    }

    /// Length-prefixed `f32` vector; the count is validated against the
    /// remaining bytes before allocating.
    pub(crate) fn f32s(&mut self, what: &'static str) -> Result<Vec<f32>, WireError> {
        let n = self.u32(what)? as usize;
        let bytes = self.take(n.checked_mul(4).ok_or(WireError::Malformed(what))?, what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Length-prefixed `u16` vector; the count is validated against the
    /// remaining bytes before allocating.
    pub(crate) fn u16s(&mut self, what: &'static str) -> Result<Vec<u16>, WireError> {
        let n = self.u32(what)? as usize;
        let bytes = self.take(n.checked_mul(2).ok_or(WireError::Malformed(what))?, what)?;
        Ok(bytes
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes(c.try_into().expect("2-byte chunk")))
            .collect())
    }

    /// Length-prefixed `u32` vector; the count is validated against the
    /// remaining bytes before allocating.
    pub(crate) fn u32s(&mut self, what: &'static str) -> Result<Vec<u32>, WireError> {
        let n = self.u32(what)? as usize;
        let bytes = self.take(n.checked_mul(4).ok_or(WireError::Malformed(what))?, what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Length-prefixed byte string; the length is validated against the
    /// remaining bytes before allocating.
    pub(crate) fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, WireError> {
        let n = self.u32(what)? as usize;
        Ok(self.take(n, what)?.to_vec())
    }

    /// Length-prefixed UTF-8 string; invalid UTF-8 is a typed error.
    pub(crate) fn str(&mut self, what: &'static str) -> Result<String, WireError> {
        String::from_utf8(self.bytes(what)?).map_err(|_| WireError::Malformed(what))
    }

    /// A `u32` element count, validated against a minimum per-element byte
    /// cost so a corrupt count cannot trigger a huge allocation.
    pub(crate) fn count(
        &mut self,
        min_elem_bytes: usize,
        what: &'static str,
    ) -> Result<usize, WireError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_elem_bytes) > self.buf.len() - self.pos {
            return Err(WireError::Malformed(what));
        }
        Ok(n)
    }

    /// Fails unless the payload was consumed exactly.
    pub(crate) fn finish(&self) -> Result<(), WireError> {
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

    /// The folded kernel called directly, or `None` on a CPU without it.
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    fn folded(state: u32, data: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        if clmul::detected() {
            // SAFETY: `clmul::detected` has just reported the features
            // `clmul::update` enables.
            return Some(unsafe { clmul::update(state, data) });
        }
        None
    }

    /// Checks the table arm, the folded kernel and the dispatched update
    /// against the bytewise reference on one input.
    fn assert_every_arm_matches(state: u32, data: &[u8]) {
        let reference = crc32_update_bytewise(state, data);
        let len = data.len();
        assert_eq!(
            crc32_update_table(state, data),
            reference,
            "table, len {len}"
        );
        if let Some(f) = folded(state, data) {
            assert_eq!(f, reference, "folded, len {len}, state {state:08x}");
        }
        assert_eq!(
            crc32_update(state, data),
            reference,
            "dispatched, len {len}"
        );
    }

    /// `len` pseudo-random bytes from `seed`.
    fn noise(len: usize, seed: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_add(seed).wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn slice_by_16_matches_bytewise_reference(
            data in prop::collection::vec(0u8..=u8::MAX, 0..=4099usize),
            state in 0u32..=u32::MAX,
            split in 0usize..=4099,
        ) {
            prop_assert_eq!(crc32_update_table(state, &data), crc32_update_bytewise(state, &data));
            let at = split % (data.len() + 1);
            let (head, tail) = data.split_at(at);
            let reference = crc32_update_bytewise(
                crc32_update_bytewise(0xffff_ffff, head), tail) ^ 0xffff_ffff;
            prop_assert_eq!(crc32_two(head, tail), reference);
        }

        #[test]
        fn folded_kernel_matches_bytewise_reference(
            data in prop::collection::vec(0u8..=u8::MAX, 0..=4099usize),
            state in 0u32..=u32::MAX,
            split in 0usize..=4099,
        ) {
            let reference = crc32_update_bytewise(state, &data);
            if let Some(f) = folded(state, &data) {
                prop_assert_eq!(f, reference);
            }
            prop_assert_eq!(crc32_update(state, &data), reference);
            // A frame seal's shape: a head, then the rest folded from the
            // head's state.
            let at = split % (data.len() + 1);
            let (head, tail) = data.split_at(at);
            let mid = crc32_update_bytewise(state, head);
            if let Some(f) = folded(mid, tail) {
                prop_assert_eq!(f, reference);
            }
        }
    }

    #[test]
    fn slice_by_16_matches_bytewise_at_every_length() {
        // Every length through 4099 — each residue mod 16, each block count
        // up to 256 — over one fixed pseudo-random buffer.
        let data = noise(4099, 0);
        for len in 0..=data.len() {
            assert_eq!(
                crc32_update_table(0xffff_ffff, &data[..len]),
                crc32_update_bytewise(0xffff_ffff, &data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn every_arm_matches_bytewise_at_every_length_and_offset() {
        // Lengths 0..=1024 cover every residue mod 64 and mod 16 on both
        // sides of the kernel's 64-byte minimum; start offsets 0..16 make
        // the 16-byte lane loads misaligned; the states include the frame's
        // initial all-ones state, zero and pseudo-random ones.
        let data = noise(1024 + 16, 7);
        for state in [0xffff_ffff, 0, 0x1234_5678, 0x9e37_79b9] {
            for offset in 0..16 {
                for len in 0..=1024 {
                    assert_every_arm_matches(state, &data[offset..offset + len]);
                }
            }
        }
    }

    #[test]
    fn every_arm_matches_bytewise_on_one_mebibyte() {
        let data = noise(1 << 20, 99);
        assert_every_arm_matches(0xffff_ffff, &data);
        assert_every_arm_matches(0xdead_beef, &data[3..]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_are_powers_of_x_modulo_the_polynomial() {
        // The IEEE polynomial in normal form, with its x^32 term.
        const P: u64 = 0x1_04c1_1db7;
        let x_pow_mod_p = |n: u32| -> u64 {
            let mut r = 1u64;
            for _ in 0..n {
                r <<= 1;
                if r >> 32 != 0 {
                    r ^= P;
                }
            }
            r
        };
        let key = |n: u32| i64::from((x_pow_mod_p(n) as u32).reverse_bits()) << 1;
        assert_eq!(clmul::K1, key(512 + 32));
        assert_eq!(clmul::K2, key(512 - 32));
        assert_eq!(clmul::K3, key(128 + 32));
        assert_eq!(clmul::K4, key(128 - 32));
        assert_eq!(clmul::K5, key(64));
        assert_eq!(clmul::P_X, (P.reverse_bits() >> 31) as i64);
        // μ = floor(x^64 / P) by long division, reflected over 33 bits.
        let (mut rem, mut mu) = (1u128 << 64, 0u64);
        for bit in (32..=64).rev() {
            if rem >> bit & 1 != 0 {
                mu |= 1 << (bit - 32);
                rem ^= u128::from(P) << (bit - 32);
            }
        }
        assert_eq!(clmul::MU, (mu.reverse_bits() >> 31) as i64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bulk writers against one append per element, after a prefix
        /// so the store starts unaligned. `f32` inputs come from raw bits,
        /// so NaN payloads, −0.0 and subnormals all occur.
        #[test]
        fn bulk_writers_match_per_element_appends(
            prefix in prop::collection::vec(0u8..=u8::MAX, 0..8usize),
            bits in prop::collection::vec(0u32..=u32::MAX, 0..300usize),
            halves in prop::collection::vec(0u16..=u16::MAX, 0..300usize),
        ) {
            let specials = [
                f32::NAN.to_bits() | 0x1234, // quiet NaN with a payload
                0x7f80_0001,                 // signalling NaN
                0xffc0_0000,                 // negative quiet NaN
                (-0.0f32).to_bits(),
                1,                           // smallest subnormal
                0x007f_ffff,                 // largest subnormal
                0x8000_0001,                 // negative subnormal
            ];
            let floats: Vec<f32> =
                bits.iter().chain(&specials).map(|&b| f32::from_bits(b)).collect();

            let mut bulk = prefix.clone();
            let mut w = Writer(&mut bulk);
            w.f32s(&floats);
            w.u16s(&halves);
            w.u32s(&bits);

            let mut each = prefix;
            each.extend_from_slice(&(floats.len() as u32).to_le_bytes());
            for x in &floats {
                each.extend_from_slice(&x.to_le_bytes());
            }
            each.extend_from_slice(&(halves.len() as u32).to_le_bytes());
            for x in &halves {
                each.extend_from_slice(&x.to_le_bytes());
            }
            each.extend_from_slice(&(bits.len() as u32).to_le_bytes());
            for x in &bits {
                each.extend_from_slice(&x.to_le_bytes());
            }
            prop_assert_eq!(bulk, each);
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
