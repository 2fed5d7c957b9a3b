//! Payload compression codecs for [`crate::CompressedModelUpdate`]: delta
//! encoding against a broadcast base, f16/int8 quantization, and top-k
//! sparsification, composed in the fixed order **delta → top-k → quant**.
//!
//! Every stage is deterministic: quantization rounds to nearest, ties to
//! even; top-k breaks magnitude ties by ascending index; the sparse index
//! representation is chosen by a pure size comparison. Two peers compressing
//! the same parameters against the same base therefore produce identical
//! frames, which is what lets the networked path stay byte-identical to the
//! loopback path under every [`CompressionSpec`].
//!
//! # Fused stages, no rank keys
//!
//! The stages run fused, writing into the frame's own buffers:
//!
//! - **Cut.** A radix select over the 31 magnitude bits of the (delta)
//!   values finds the rank cut: a magnitude `t`, and the position of the
//!   last value at exactly `t` that still makes the top k. No per-value
//!   rank key is built and nothing is sorted.
//! - **Scan.** The index form (dense, bitmap or list) is fixed up front
//!   from `(total_len, k)`. A branch-free pass marks the kept values in a
//!   bitmap (without a mask, that is the index bitmap itself), and one walk
//!   of its set bits writes the kept values and the index list or masked
//!   bitmap.
//! - **Quantize.** int8 codes round with `f64::round_ties_even` in one
//!   vectorizable loop.
//!
//! Reconstruction dequantizes straight into its one output while walking
//! the index, with no position or value list in between. The unfused
//! composition (full sort, index from a position list, hand-rolled
//! rounding) is kept as a test oracle that the encoded frames and the
//! reconstructions are property-tested against, byte for byte.
//!
//! # Reconstruction-error contracts
//!
//! Each lossy stage states an error bound, checked by proptests in
//! `crates/wire/src/proptests.rs`:
//!
//! ```text
//! f16:  |x − dec(enc(x))| ≤ max(|x| · 2⁻¹¹, 2⁻²⁵)     for |x| ≤ 65504
//!       (finite overflow saturates to ±65504)
//! int8: |x − dec(enc(x))| ≤ scale/2 + (|x| + scale) · 2⁻²⁰
//!       with scale = (max − min)/255, zero_point = min, over the values
//!       actually encoded together (one tensor = one affine grid); the
//!       (|x| + scale)·2⁻²⁰ term absorbs the final f64→f32 cast
//! ```
//!
//! `QuantMode::None` and a dense index are bit-exact: `f32` values ride the
//! wire verbatim.

use std::borrow::Cow;
use std::fmt;

use crate::frame::{bytes_len, Reader, WireError, Writer};

/// Scalar codec applied to the values that survive delta + top-k.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum QuantMode {
    /// Values ride as raw `f32` — bit-exact.
    #[default]
    None = 0,
    /// IEEE binary16 with round-to-nearest-even; finite overflow saturates
    /// to ±65504.
    F16 = 1,
    /// Asymmetric affine u8: `code = rne((x − zero_point)/scale)` with
    /// `zero_point = min`, `scale = (max − min)/255` over the encoded values.
    Int8 = 2,
}

impl QuantMode {
    fn from_wire(raw: u8) -> Result<Self, WireError> {
        match raw {
            0 => Ok(Self::None),
            1 => Ok(Self::F16),
            2 => Ok(Self::Int8),
            _ => Err(WireError::Malformed("unknown quant mode")),
        }
    }
}

/// One peer's negotiated compression configuration: what the client applies
/// to its uplink [`crate::CompressedModelUpdate`]s and the server undoes
/// against its broadcast history.
///
/// The identity spec `{delta: false, quant: None, topk_fraction: 1.0}` is
/// *inactive* ([`CompressionSpec::is_active`] is false): runs configured with
/// it take the plain [`crate::ClientModelUpdate`] path and are byte-identical
/// to an uncompressed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionSpec {
    /// Send `x − base` instead of `x`, against the round's broadcast.
    pub delta: bool,
    /// Scalar codec for the surviving values.
    pub quant: QuantMode,
    /// Fraction of candidate coordinates kept by top-k (by magnitude,
    /// ties broken by ascending index). Must be in `(0, 1]`; `1.0` keeps
    /// every coordinate.
    pub topk_fraction: f32,
}

impl Default for CompressionSpec {
    fn default() -> Self {
        Self::identity()
    }
}

impl CompressionSpec {
    /// Encoded size of a spec inside a frame payload.
    pub(crate) const WIRE_LEN: usize = 6;

    /// The inactive spec: no delta, no quantization, keep everything.
    pub(crate) fn identity() -> Self {
        Self {
            delta: false,
            quant: QuantMode::None,
            topk_fraction: 1.0,
        }
    }

    /// Whether this spec changes any payload. Inactive specs route through
    /// the plain uncompressed path.
    pub fn is_active(&self) -> bool {
        self.delta || self.quant != QuantMode::None || self.topk_fraction < 1.0
    }

    /// Structural validity: `topk_fraction` finite and in `(0, 1]`.
    pub fn is_valid(&self) -> bool {
        self.topk_fraction.is_finite() && self.topk_fraction > 0.0 && self.topk_fraction <= 1.0
    }

    pub(crate) fn write(&self, w: &mut Writer) {
        w.u8(u8::from(self.delta));
        w.u8(self.quant as u8);
        w.f32(self.topk_fraction);
    }

    pub(crate) fn read(r: &mut Reader, what: &'static str) -> Result<Self, WireError> {
        let delta = match r.u8(what)? {
            0 => false,
            1 => true,
            _ => return Err(WireError::Malformed("bad delta flag")),
        };
        let quant = QuantMode::from_wire(r.u8(what)?)?;
        let topk_fraction = r.f32(what)?;
        let spec = Self {
            delta,
            quant,
            topk_fraction,
        };
        if !spec.is_valid() {
            return Err(WireError::Malformed("topk fraction out of range"));
        }
        Ok(spec)
    }
}

impl fmt::Display for CompressionSpec {
    /// Compact human label, e.g. `delta+int8+topk0.25` or `identity`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_active() {
            return write!(f, "identity");
        }
        let mut sep = "";
        if self.delta {
            write!(f, "delta")?;
            sep = "+";
        }
        match self.quant {
            QuantMode::None => {}
            QuantMode::F16 => {
                write!(f, "{sep}f16")?;
                sep = "+";
            }
            QuantMode::Int8 => {
                write!(f, "{sep}int8")?;
                sep = "+";
            }
        }
        if self.topk_fraction < 1.0 {
            write!(f, "{sep}topk{}", self.topk_fraction)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// f16 codec
// ---------------------------------------------------------------------------

/// Drops the low `shift` bits of `m` with round-to-nearest, ties to even.
fn round_shift_rne(m: u32, shift: u32) -> u32 {
    debug_assert!((1..=24).contains(&shift));
    let keep = m >> shift;
    let rem = m & ((1u32 << shift) - 1);
    let half = 1u32 << (shift - 1);
    if rem > half || (rem == half && keep & 1 == 1) {
        keep + 1
    } else {
        keep
    }
}

/// `f32` → IEEE binary16 bits, round-to-nearest-even. Finite values whose
/// rounded magnitude would overflow f16 saturate to ±65504 (so a dequantized
/// model never contains infinities); NaN maps to the canonical quiet NaN.
pub(crate) fn f16_from_f32(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // Infinity saturates like finite overflow; NaN stays NaN.
        return if man != 0 {
            sign | 0x7e00
        } else {
            sign | 0x7bff
        };
    }
    let e = exp - 127 + 15; // f16-biased exponent
    if e >= 0x1f {
        return sign | 0x7bff;
    }
    if e <= 0 {
        if e < -10 {
            return sign; // underflows to ±0 even after rounding
        }
        // Subnormal result: shift the 24-bit significand (implicit bit set)
        // down into the 10-bit field. A round-up to 0x400 lands exactly on
        // the smallest normal encoding.
        let man24 = man | 0x0080_0000;
        return sign | round_shift_rne(man24, (14 - e) as u32) as u16;
    }
    // Normal result: mantissa rounds from 23 to 10 bits; a carry out of the
    // mantissa propagates into the exponent by construction.
    let half = ((e as u32) << 10) + round_shift_rne(man, 13);
    if half >= 0x7c00 {
        return sign | 0x7bff; // rounded up past the largest finite half
    }
    sign | half as u16
}

/// IEEE binary16 bits → `f32`. Exact: every f16 value is representable.
pub(crate) fn f16_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = u32::from(h >> 10) & 0x1f;
    let man = u32::from(h & 0x3ff);
    if exp == 0 {
        // ±0 and subnormals: magnitude is man · 2⁻²⁴, exactly representable.
        let mag = man as f32 / 16_777_216.0;
        return if sign != 0 { -mag } else { mag };
    }
    if exp == 0x1f {
        let bits = sign | 0x7f80_0000 | (man << 13);
        return f32::from_bits(bits);
    }
    f32::from_bits(sign | ((exp + 127 - 15) << 23) | (man << 13))
}

// ---------------------------------------------------------------------------
// int8 affine codec
// ---------------------------------------------------------------------------

/// Quantizes `values` onto a 256-point affine grid spanning their range.
/// Returns `(zero_point, scale, codes)` with `zero_point = min` and
/// `scale = (max − min)/255` (both stored as f32, so both ends decode the
/// same grid); codes round to nearest, ties to even, and NaN codes 0. A
/// constant input gets `scale = 0` and decodes exactly.
pub(crate) fn int8_quantize(values: &[f32]) -> (f32, f32, Vec<u8>) {
    if values.is_empty() {
        return (0.0, 0.0, Vec::new());
    }
    let mut lo = values[0];
    let mut hi = values[0];
    for &v in &values[1..] {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let scale = ((f64::from(hi) - f64::from(lo)) / 255.0) as f32;
    if scale == 0.0 {
        return (lo, scale, vec![0; values.len()]);
    }
    let (zero, step) = (f64::from(lo), f64::from(scale));
    // `max` maps NaN to 0, where `clamp` would keep it. Adding 2⁵² to an
    // integer in [0, 255] is exact and leaves it in the low mantissa bits,
    // a conversion that vectorizes where the saturating `as u8` does not.
    let codes = values
        .iter()
        .map(|&v| {
            #[allow(clippy::manual_clamp)]
            let code = ((f64::from(v) - zero) / step)
                .round_ties_even()
                .max(0.0)
                .min(255.0);
            (code + 4_503_599_627_370_496.0).to_bits() as u8
        })
        .collect();
    (lo, scale, codes)
}

/// Decodes one affine code: `zero_point + code · scale`, evaluated in f64
/// so both rounding steps are shared by every decoder.
pub(crate) fn int8_dequantize_one(zero_point: f32, scale: f32, code: u8) -> f32 {
    (f64::from(zero_point) + f64::from(code) * f64::from(scale)) as f32
}

// ---------------------------------------------------------------------------
// top-k selection
// ---------------------------------------------------------------------------

/// The rank cut of a top-k selection: keep every value whose magnitude bits
/// (`bits & 0x7fff_ffff`) exceed `t`, and every value whose magnitude bits
/// equal `t` at a position up to `last`.
///
/// On non-negative floats the order of the bits is `total_cmp`'s order, so
/// this keeps exactly the `k` values that rank first by `|x|` descending,
/// then position ascending — NaN above +Inf, ±0 last — the deterministic
/// tie-break that makes two identical uplinks identical. Whether a value
/// is kept depends only on its own bits and position.
#[derive(Clone, Copy)]
struct TopkCut {
    t: u32,
    last: usize,
}

impl TopkCut {
    /// Finds the cut for the `k` top-ranked of `values` with a radix select
    /// over the 31 magnitude bits, most significant digit first (11, 11,
    /// then 9 bits). The first digit histograms every value; the later two
    /// look only at the values inside the chosen top bucket. The select
    /// ends at `t` and the number of ties to keep; only when that is fewer
    /// than all of them does a scan look for the position of the last one.
    fn find(values: &[f32], k: usize) -> Self {
        if k >= values.len() {
            // Keeps everything: every magnitude is at least t = 0.
            return Self {
                t: 0,
                last: usize::MAX,
            };
        }
        if k == 0 {
            // Keeps nothing: no magnitude reaches u32::MAX.
            return Self {
                t: u32::MAX,
                last: 0,
            };
        }
        assert!(
            u32::try_from(values.len()).is_ok(),
            "top-k counts must fit u32"
        );
        // Four interleaved tables for the first digit, so that runs of equal
        // digits (exact zeros are common in deltas) do not serialize on one
        // counter.
        let mut tables = [[0u32; 2048]; 4];
        let mut quads = values.chunks_exact(4);
        for quad in &mut quads {
            for (table, &v) in tables.iter_mut().zip(quad) {
                table[(magnitude(v) >> 20) as usize] += 1;
            }
        }
        for &v in quads.remainder() {
            tables[0][(magnitude(v) >> 20) as usize] += 1;
        }
        let mut hist = [0u32; 2048];
        for (b, count) in hist.iter_mut().enumerate() {
            *count = tables.iter().map(|table| table[b]).sum();
        }
        let (hi, need) = pick(&hist, k);
        // The chosen bucket's magnitudes, compacted without a branch into a
        // buffer of exactly their count (plus the spare slot).
        let mut inner = vec![0u32; hist[hi as usize] as usize + 1];
        let mut w = 0;
        for &v in values {
            let m = magnitude(v);
            inner[w] = m;
            w += usize::from(m >> 20 == hi);
        }
        inner.truncate(w);
        hist.fill(0);
        for m in &inner {
            hist[((m >> 9) & 0x7ff) as usize] += 1;
        }
        let (mid, need) = pick(&hist, need);
        hist.fill(0);
        for m in inner.iter().filter(|&m| (m >> 9) & 0x7ff == mid) {
            hist[(m & 0x1ff) as usize] += 1;
        }
        let (lo, ties) = pick(&hist[..512], need);
        let t = (hi << 20) | (mid << 9) | lo;
        let last = if ties == hist[lo as usize] as usize {
            usize::MAX
        } else {
            let mut at = values
                .iter()
                .enumerate()
                .filter(|&(_, &v)| magnitude(v) == t);
            at.nth(ties - 1).expect("the select counted these ties").0
        };
        Self { t, last }
    }

    /// Whether the value `v` at position `j` is kept.
    fn keeps(self, j: usize, v: f32) -> bool {
        let mag = magnitude(v);
        (mag > self.t) | ((mag == self.t) & (j <= self.last))
    }

    /// The kept positions of `values` as an LSB-first bitmap, eight
    /// values to a byte without a branch.
    fn bitmap(self, values: &[f32]) -> Vec<u8> {
        let pack = |i: usize, octet: &[f32]| {
            octet.iter().enumerate().fold(0u8, |byte, (bit, &v)| {
                byte | u8::from(self.keeps(8 * i + bit, v)) << bit
            })
        };
        let mut bits = vec![0u8; values.len().div_ceil(8)];
        let mut octets = values.chunks_exact(8);
        for (i, (byte, octet)) in bits.iter_mut().zip(&mut octets).enumerate() {
            *byte = pack(i, octet);
        }
        if let Some(byte) = bits.get_mut(values.len() / 8) {
            *byte = pack(values.len() / 8, octets.remainder());
        }
        bits
    }
}

/// The bits of `|v|`: ordered like `|v|` under `total_cmp`.
fn magnitude(v: f32) -> u32 {
    v.to_bits() & 0x7fff_ffff
}

/// Walks `hist` from its largest bucket down to the one holding the
/// `need`-th largest entry; returns that bucket and the entry's rank in it.
fn pick(hist: &[u32], mut need: usize) -> (u32, usize) {
    for (bucket, &count) in hist.iter().enumerate().rev() {
        let count = count as usize;
        if need <= count {
            return (bucket as u32, need);
        }
        need -= count;
    }
    unreachable!("top-k rank beyond the histogram total")
}

/// The LSB-first bitmap `bits` as 64-bit words, the last one zero-padded.
/// Walking set bits a word at a time takes one unpredictable loop exit per
/// 64 coordinates instead of per 8.
fn bitmap_words(bits: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bits.chunks(8).map(|bytes| {
        let mut le = [0u8; 8];
        le[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(le)
    })
}

/// Calls `f(i)` for every set bit `i` of the LSB-first bitmap `bits`, in
/// ascending order.
fn for_each_set_bit(bits: &[u8], mut f: impl FnMut(usize)) {
    for (w, mut rest) in bitmap_words(bits).enumerate() {
        while rest != 0 {
            f(64 * w + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// Keeps the `k` top-ranked of `values` (see [`TopkCut`]) and indexes them
/// in a flat vector of `total_len` coordinates, where `values[j]` sits at
/// coordinate `mask[j]`, or at `j` without a mask. Returns the index and
/// the kept values in ascending coordinate order.
///
/// The index form is fixed up front from `(total_len, k)`: dense when every
/// coordinate is kept, else the bitmap when it is strictly smaller than the
/// `u32` list. A branch-free pass marks the kept values in a bitmap over
/// `values`; one walk of its set bits then fills the kept values and the
/// index. Without a mask that bitmap is the index bitmap itself.
fn select(
    values: &[f32],
    k: usize,
    total_len: usize,
    mask: Option<&[u32]>,
) -> (SparseIndex, Vec<f32>) {
    if k == total_len {
        return (SparseIndex::Dense, values.to_vec());
    }
    let keep = TopkCut::find(values, k).bitmap(values);
    let mut kept = Vec::with_capacity(k);
    let bitmap_bytes = total_len.div_ceil(8);
    let index = if bitmap_bytes >= k * 4 {
        let mut list = Vec::with_capacity(k);
        for_each_set_bit(&keep, |j| {
            kept.push(values[j]);
            list.push(mask.map_or(j as u32, |m| m[j]));
        });
        SparseIndex::List(list)
    } else if let Some(m) = mask {
        let mut bits = vec![0u8; bitmap_bytes];
        for_each_set_bit(&keep, |j| {
            kept.push(values[j]);
            let c = m[j] as usize;
            bits[c / 8] |= 1 << (c % 8);
        });
        SparseIndex::Bitmap(bits)
    } else {
        for_each_set_bit(&keep, |j| kept.push(values[j]));
        SparseIndex::Bitmap(keep)
    };
    debug_assert_eq!(kept.len(), k);
    (index, kept)
}

/// Delta → top-k → quant over a flat parameter vector: the payload of
/// [`crate::CompressedModelUpdate::compress`]. `mask` lists the candidate
/// coordinates (ascending, unique); `None` makes every coordinate one.
///
/// # Panics
///
/// Panics if a mask index is out of range for `flat` or `base`.
pub(crate) fn sparsify(
    spec: &CompressionSpec,
    mask: Option<&[u32]>,
    flat: &[f32],
    base: &[f32],
) -> (SparseIndex, QuantValues) {
    let values: Cow<'_, [f32]> = match (mask, spec.delta) {
        (None, false) => Cow::Borrowed(flat),
        (None, true) => Cow::Owned(flat.iter().zip(base).map(|(&x, &b)| x - b).collect()),
        (Some(m), false) => Cow::Owned(m.iter().map(|&i| flat[i as usize]).collect()),
        (Some(m), true) => Cow::Owned(
            m.iter()
                .map(|&i| flat[i as usize] - base[i as usize])
                .collect(),
        ),
    };
    let k = topk_count(spec.topk_fraction, values.len());
    let (index, kept) = select(&values, k, flat.len(), mask);
    (index, QuantValues::quantize(spec.quant, kept))
}

/// Positions (into `values`) of the `k` top-ranked entries, ascending: the
/// cut and scan of [`sparsify`] on their own, for the reference tests.
#[cfg(test)]
pub(crate) fn topk_positions(values: &[f32], k: usize) -> Vec<usize> {
    let k = k.min(values.len());
    select(values, k, values.len(), None)
        .0
        .positions(values.len())
}

/// `k = ceil(fraction · n)`, at least 1 for a non-empty input.
pub(crate) fn topk_count(fraction: f32, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let k = (f64::from(fraction) * n as f64).ceil() as usize;
    k.clamp(1, n)
}

// ---------------------------------------------------------------------------
// sparse index + values containers (the payload of CompressedModelUpdate)
// ---------------------------------------------------------------------------

/// Which coordinates of the flat parameter vector a compressed update
/// carries. The encoder picks [`SparseIndex::Bitmap`] or
/// [`SparseIndex::List`] by a pure size comparison (bitmap when strictly
/// smaller), so the choice is deterministic in `(total_len, k)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseIndex {
    /// Every coordinate `0..total_len`, ascending.
    Dense,
    /// One bit per coordinate, LSB-first within each byte; a set bit means
    /// the coordinate is present. Trailing pad bits must be zero.
    Bitmap(Vec<u8>),
    /// Strictly ascending coordinate list.
    List(Vec<u32>),
}

impl SparseIndex {
    /// Number of coordinates this index selects.
    pub(crate) fn count(&self, total_len: usize) -> usize {
        match self {
            Self::Dense => total_len,
            Self::Bitmap(bits) => bits.iter().map(|b| b.count_ones() as usize).sum(),
            Self::List(idx) => idx.len(),
        }
    }

    /// Ascending selected coordinates (the unfused test oracle's scatter).
    #[cfg(test)]
    pub(crate) fn positions(&self, total_len: usize) -> Vec<usize> {
        match self {
            Self::Dense => (0..total_len).collect(),
            Self::Bitmap(bits) => {
                let mut out = Vec::new();
                for (byte_i, &b) in bits.iter().enumerate() {
                    let mut rest = b;
                    while rest != 0 {
                        let bit = rest.trailing_zeros() as usize;
                        out.push(byte_i * 8 + bit);
                        rest &= rest - 1;
                    }
                }
                out
            }
            Self::List(idx) => idx.iter().map(|&i| i as usize).collect(),
        }
    }

    pub(crate) fn encoded_len(&self) -> usize {
        1 + match self {
            Self::Dense => 0,
            Self::Bitmap(bits) => bytes_len(bits),
            Self::List(idx) => 4 + idx.len() * 4,
        }
    }

    pub(crate) fn write(&self, w: &mut Writer) {
        match self {
            Self::Dense => w.u8(0),
            Self::Bitmap(bits) => {
                w.u8(1);
                w.bytes(bits);
            }
            Self::List(idx) => {
                w.u8(2);
                w.u32s(idx);
            }
        }
    }

    pub(crate) fn read(
        r: &mut Reader,
        total_len: usize,
        what: &'static str,
    ) -> Result<Self, WireError> {
        let index = match r.u8(what)? {
            0 => Self::Dense,
            1 => Self::Bitmap(r.bytes(what)?),
            2 => Self::List(r.u32s(what)?),
            _ => return Err(WireError::Malformed("unknown sparse index tag")),
        };
        index.check(total_len)?;
        Ok(index)
    }

    /// Checks that every selected coordinate is below `total_len`, once and
    /// in ascending order: a bitmap must be `ceil(total_len / 8)` bytes with
    /// zero pad bits (so equal selections have equal encodings), a list
    /// strictly ascending.
    pub(crate) fn check(&self, total_len: usize) -> Result<(), WireError> {
        match self {
            Self::Dense => Ok(()),
            Self::Bitmap(bits) => {
                if bits.len() != total_len.div_ceil(8) {
                    return Err(WireError::Malformed("bitmap length mismatch"));
                }
                let pad = bits.len() * 8 - total_len;
                if pad > 0 && bits.last().is_some_and(|&b| b >> (8 - pad) != 0) {
                    return Err(WireError::Malformed("bitmap pad bits set"));
                }
                Ok(())
            }
            Self::List(idx) => {
                let ascending = idx.windows(2).all(|w| w[0] < w[1]);
                if !ascending || idx.last().is_some_and(|&i| i as usize >= total_len) {
                    return Err(WireError::Malformed("index list not ascending in range"));
                }
                Ok(())
            }
        }
    }

    /// Applies `values` in order to the selected coordinates of `out`:
    /// `out[i] = apply(out[i], v)`. The index must have passed
    /// [`SparseIndex::check`] against `out.len()`; surplus values on either
    /// side are ignored.
    fn scatter(
        &self,
        out: &mut [f32],
        mut values: impl Iterator<Item = f32>,
        apply: impl Fn(f32, f32) -> f32,
    ) {
        match self {
            Self::Dense => {
                for (o, v) in out.iter_mut().zip(values) {
                    *o = apply(*o, v);
                }
            }
            Self::Bitmap(bits) => {
                // As `for_each_set_bit`, indexing within each word's 64
                // coordinates.
                for (chunk, mut rest) in out.chunks_mut(64).zip(bitmap_words(bits)) {
                    while rest != 0 {
                        let bit = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        let Some(v) = values.next() else { return };
                        chunk[bit] = apply(chunk[bit], v);
                    }
                }
            }
            Self::List(idx) => {
                for (&i, v) in idx.iter().zip(values) {
                    let o = &mut out[i as usize];
                    *o = apply(*o, v);
                }
            }
        }
    }

    /// Dequantizes `values` onto the selected coordinates of `out` (which
    /// holds the base): added to it when `delta`, replacing it otherwise.
    /// No intermediate position or value list is built.
    pub(crate) fn apply(&self, values: &QuantValues, delta: bool, out: &mut [f32]) {
        if delta {
            self.dequantize_with(values, out, |x, v| x + v);
        } else {
            self.dequantize_with(values, out, |_, v| v);
        }
    }

    fn dequantize_with(&self, values: &QuantValues, out: &mut [f32], op: impl Fn(f32, f32) -> f32) {
        match values {
            QuantValues::F32(v) => self.scatter(out, v.iter().copied(), op),
            QuantValues::F16(h) => self.scatter(out, h.iter().map(|&b| f16_to_f32(b)), op),
            QuantValues::Int8 {
                zero_point,
                scale,
                codes,
            } => self.scatter(
                out,
                codes
                    .iter()
                    .map(|&c| int8_dequantize_one(*zero_point, *scale, c)),
                op,
            ),
        }
    }
}

/// The quantized values of a compressed update, one entry per selected
/// coordinate in ascending coordinate order.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantValues {
    /// Raw f32 — bit-exact.
    F32(Vec<f32>),
    /// IEEE binary16 bit patterns.
    F16(Vec<u16>),
    /// Affine u8 codes with the shared grid parameters.
    Int8 {
        /// Grid origin (the minimum of the encoded values).
        zero_point: f32,
        /// Grid step, `(max − min)/255`; zero for a constant input.
        scale: f32,
        /// One code per value.
        codes: Vec<u8>,
    },
}

impl QuantValues {
    /// Encodes `values` under `mode`; raw f32 keeps the vector as it is.
    pub(crate) fn quantize(mode: QuantMode, values: Vec<f32>) -> Self {
        match mode {
            QuantMode::None => Self::F32(values),
            QuantMode::F16 => Self::F16(values.iter().map(|&v| f16_from_f32(v)).collect()),
            QuantMode::Int8 => {
                let (zero_point, scale, codes) = int8_quantize(&values);
                Self::Int8 {
                    zero_point,
                    scale,
                    codes,
                }
            }
        }
    }

    /// Decodes back to f32, one value per entry (the unfused test oracle's
    /// decode).
    #[cfg(test)]
    pub(crate) fn dequantize(&self) -> Vec<f32> {
        match self {
            Self::F32(v) => v.clone(),
            Self::F16(bits) => bits.iter().map(|&b| f16_to_f32(b)).collect(),
            Self::Int8 {
                zero_point,
                scale,
                codes,
            } => codes
                .iter()
                .map(|&c| int8_dequantize_one(*zero_point, *scale, c))
                .collect(),
        }
    }

    /// Number of values carried.
    pub(crate) fn len(&self) -> usize {
        match self {
            Self::F32(v) => v.len(),
            Self::F16(v) => v.len(),
            Self::Int8 { codes, .. } => codes.len(),
        }
    }

    pub(crate) fn encoded_len(&self) -> usize {
        1 + match self {
            Self::F32(v) => 4 + v.len() * 4,
            Self::F16(v) => 4 + v.len() * 2,
            Self::Int8 { codes, .. } => 8 + bytes_len(codes),
        }
    }

    pub(crate) fn write(&self, w: &mut Writer) {
        match self {
            Self::F32(v) => {
                w.u8(0);
                w.f32s(v);
            }
            Self::F16(v) => {
                w.u8(1);
                w.u16s(v);
            }
            Self::Int8 {
                zero_point,
                scale,
                codes,
            } => {
                w.u8(2);
                w.f32(*zero_point);
                w.f32(*scale);
                w.bytes(codes);
            }
        }
    }

    pub(crate) fn read(r: &mut Reader, what: &'static str) -> Result<Self, WireError> {
        match r.u8(what)? {
            0 => Ok(Self::F32(r.f32s(what)?)),
            1 => Ok(Self::F16(r.u16s(what)?)),
            2 => {
                let zero_point = r.f32(what)?;
                let scale = r.f32(what)?;
                let codes = r.bytes(what)?;
                Ok(Self::Int8 {
                    zero_point,
                    scale,
                    codes,
                })
            }
            _ => Err(WireError::Malformed("unknown quant values tag")),
        }
    }
}

/// The unfused composition [`sparsify`] and [`SparseIndex::apply`]
/// replaced: full-sort top-k → [`SparseIndex`] from a position list →
/// quantization with a hand-rolled round-half-even, and reconstruction
/// through a position list and a dequantized vector. Kept as the reference
/// the fused code is property-tested against byte for byte.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use crate::message::CompressedModelUpdate;

    /// Top-k by a full sort on `(|x| descending by total_cmp, position)`.
    pub(crate) fn topk_positions_by_sort(values: &[f32], k: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..values.len()).collect();
        order
            .sort_unstable_by(|&a, &b| values[b].abs().total_cmp(&values[a].abs()).then(a.cmp(&b)));
        order.truncate(k.min(values.len()));
        order.sort_unstable();
        order
    }

    /// Round-to-nearest-even in f64 by floor and a parity test.
    pub(crate) fn rne_f64(x: f64) -> f64 {
        let f = x.floor();
        let diff = x - f;
        let round_up = if diff == 0.5 {
            (f * 0.5).fract() != 0.0 // tie: round up only when the floor is odd
        } else {
            diff > 0.5
        };
        if round_up {
            f + 1.0
        } else {
            f
        }
    }

    /// [`int8_quantize`] with [`rne_f64`] and the scale test per value.
    fn int8_quantize_rne(values: &[f32]) -> (f32, f32, Vec<u8>) {
        if values.is_empty() {
            return (0.0, 0.0, Vec::new());
        }
        let mut lo = values[0];
        let mut hi = values[0];
        for &v in &values[1..] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let scale = ((f64::from(hi) - f64::from(lo)) / 255.0) as f32;
        let codes = values
            .iter()
            .map(|&v| {
                if scale == 0.0 {
                    return 0u8;
                }
                let t = (f64::from(v) - f64::from(lo)) / f64::from(scale);
                rne_f64(t).clamp(0.0, 255.0) as u8
            })
            .collect();
        (lo, scale, codes)
    }

    /// The smaller of bitmap/list for `positions` (ascending, unique, all
    /// `< total_len`); dense when every coordinate is present.
    pub(crate) fn for_positions(positions: &[usize], total_len: usize) -> SparseIndex {
        if positions.len() == total_len {
            return SparseIndex::Dense;
        }
        let bitmap_bytes = total_len.div_ceil(8);
        if bitmap_bytes < positions.len() * 4 {
            let mut bits = vec![0u8; bitmap_bytes];
            for &p in positions {
                bits[p / 8] |= 1 << (p % 8);
            }
            SparseIndex::Bitmap(bits)
        } else {
            SparseIndex::List(positions.iter().map(|&p| p as u32).collect())
        }
    }

    /// The unfused [`CompressedModelUpdate::compress`].
    pub(crate) fn compress(
        spec: &CompressionSpec,
        mask: Option<&[u32]>,
        flat: &[f32],
        base: &[f32],
    ) -> CompressedModelUpdate {
        let candidates: Vec<usize> = match mask {
            Some(m) => m.iter().map(|&i| i as usize).collect(),
            None => (0..flat.len()).collect(),
        };
        let vals: Vec<f32> = candidates
            .iter()
            .map(|&i| {
                if spec.delta {
                    flat[i] - base[i]
                } else {
                    flat[i]
                }
            })
            .collect();
        let k = topk_count(spec.topk_fraction, vals.len());
        let keep = topk_positions_by_sort(&vals, k);
        let positions: Vec<usize> = keep.iter().map(|&p| candidates[p]).collect();
        let kept: Vec<f32> = keep.iter().map(|&p| vals[p]).collect();
        let values = match spec.quant {
            QuantMode::None => QuantValues::F32(kept),
            QuantMode::F16 => QuantValues::F16(kept.iter().map(|&v| f16_from_f32(v)).collect()),
            QuantMode::Int8 => {
                let (zero_point, scale, codes) = int8_quantize_rne(&kept);
                QuantValues::Int8 {
                    zero_point,
                    scale,
                    codes,
                }
            }
        };
        CompressedModelUpdate {
            client_id: 0,
            weight: 1.0,
            base_task: 0,
            base_round: 0,
            delta: spec.delta,
            total_len: flat.len() as u32,
            index: for_positions(&positions, flat.len()),
            values,
        }
    }

    /// The unfused [`CompressedModelUpdate::reconstruct`] of a consistent
    /// update: positions → dequantized values → scatter.
    pub(crate) fn reconstruct(update: &CompressedModelUpdate, base: &[f32]) -> Vec<f32> {
        let positions = update.index.positions(base.len());
        let vals = update.values.dequantize();
        assert_eq!(positions.len(), vals.len(), "inconsistent update");
        let mut out = base.to_vec();
        for (&i, &v) in positions.iter().zip(&vals) {
            out[i] = if update.delta { base[i] + v } else { v };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_known_vectors() {
        for (x, bits) in [
            (0.0f32, 0x0000u16),
            (1.0, 0x3c00),
            (-2.0, 0xc000),
            (0.5, 0x3800),
            (65504.0, 0x7bff),
            (65536.0, 0x7bff),  // saturates
            (-1e30, 0xfbff),    // saturates negative
            (6.1e-5, 0x03ff),   // just below the smallest normal: largest subnormal
            (6.104e-5, 0x0400), // rounds up to the smallest normal
            (5.96e-8, 0x0001),  // smallest subnormal
            (1e-9, 0x0000),     // underflows to zero
        ] {
            assert_eq!(f16_from_f32(x), bits, "encoding {x}");
        }
        assert_eq!(f16_to_f32(0x3c00), 1.0);
        assert_eq!(f16_to_f32(0xc000), -2.0);
        assert_eq!(f16_to_f32(0x7bff), 65504.0);
        assert_eq!(f16_to_f32(0x0001), 2f32.powi(-24));
        assert!(f16_to_f32(f16_from_f32(f32::NAN)).is_nan());
        assert_eq!(f16_to_f32(f16_from_f32(f32::INFINITY)), 65504.0);
    }

    #[test]
    fn f16_round_trip_is_idempotent() {
        // Re-encoding a decoded value must reproduce the same bits: the
        // decoded grid is a fixed point of the codec.
        for bits in [0x0000u16, 0x0001, 0x03ff, 0x0400, 0x3c01, 0x7bff, 0x8001] {
            assert_eq!(f16_from_f32(f16_to_f32(bits)), bits, "bits {bits:#06x}");
        }
    }

    #[test]
    fn f16_ties_round_to_even() {
        // 1 + 2⁻¹¹ is exactly halfway between 1.0 (mantissa 0, even) and
        // the next half up (mantissa 1, odd): RNE keeps 1.0.
        let tie = 1.0 + 2f32.powi(-11);
        assert_eq!(f16_from_f32(tie), 0x3c00);
        // 1 + 3·2⁻¹¹ is halfway between mantissa 1 and 2: RNE picks 2.
        let tie2 = 1.0 + 3.0 * 2f32.powi(-11);
        assert_eq!(f16_from_f32(tie2), 0x3c02);
    }

    #[test]
    fn int8_constant_input_is_exact() {
        let (zp, scale, codes) = int8_quantize(&[0.75; 9]);
        assert_eq!(zp, 0.75);
        assert_eq!(scale, 0.0);
        assert!(codes.iter().all(|&c| c == 0));
        assert_eq!(int8_dequantize_one(zp, scale, 0), 0.75);
    }

    #[test]
    fn int8_endpoints_are_near_exact_and_ties_go_even() {
        let (zp, scale, codes) = int8_quantize(&[-1.0, 1.0]);
        assert_eq!(zp, -1.0);
        assert_eq!(codes, vec![0, 255]);
        let hi = int8_dequantize_one(zp, scale, 255);
        assert!((hi - 1.0).abs() <= 1e-5, "top of grid {hi}");
        // A value halfway between codes 0 and 1 goes to the even code 0; one
        // halfway between 1 and 2 to the even code 2. With the grid
        // [0, 255] over [0, 255], code = value.
        let mut grid: Vec<f32> = vec![0.0, 255.0, 0.5, 1.5, 2.5];
        grid.push(254.5);
        let (zp, scale, codes) = int8_quantize(&grid);
        assert_eq!((zp, scale), (0.0, 1.0));
        assert_eq!(codes, vec![0, 255, 0, 2, 2, 254]);
    }

    #[test]
    fn round_ties_even_agrees_with_the_hand_rolled_rounding() {
        // The std rounding that replaced `rne_f64` gives the same value on
        // ties, on values too large to have a fraction, and on ±Inf and
        // NaN. (On negative ties the two differ only in the sign of a zero
        // result, which the u8 cast erases; quantized inputs are ≥ 0.)
        for x in [
            0.5f64,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            254.5,
            0.49999999999999994,
            2f64.powi(51) + 0.5,
            2f64.powi(52) + 1.0,
            2f64.powi(53),
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(x.round_ties_even(), oracle::rne_f64(x), "x = {x:e}");
        }
        assert!(f64::NAN.round_ties_even().is_nan());
        assert!(oracle::rne_f64(f64::NAN).is_nan());
    }

    #[test]
    fn topk_breaks_magnitude_ties_by_ascending_index() {
        // Equal magnitudes everywhere: the kept set must be the lowest
        // indices, in order.
        let v = [0.5f32, -0.5, 0.5, -0.5, 0.5];
        assert_eq!(topk_positions(&v, 3), vec![0, 1, 2]);
        // Mixed: ties at |0.5| (indices 1, 3) resolve to index 1.
        let v = [0.1f32, 0.5, 0.9, -0.5];
        assert_eq!(topk_positions(&v, 2), vec![1, 2]);
    }

    #[test]
    fn topk_count_ceils_and_clamps() {
        assert_eq!(topk_count(0.25, 10), 3); // ceil(2.5)
        assert_eq!(topk_count(1.0, 10), 10);
        assert_eq!(topk_count(0.001, 10), 1);
        assert_eq!(topk_count(0.5, 0), 0);
    }

    #[test]
    fn sparse_index_picks_the_smaller_encoding() {
        let spikes = |at: &[usize]| {
            let mut v = vec![0.0f32; 64];
            for &i in at {
                v[i] = 1.0;
            }
            v
        };
        // 64 coords, 2 selected: list (8 bytes) equals bitmap (8 bytes) —
        // the list wins ties.
        let (idx, _) = select(&spikes(&[3, 40]), 2, 64, None);
        assert_eq!(idx, SparseIndex::List(vec![3, 40]));
        // 64 coords, 3 selected: bitmap (8 bytes) < list (12 bytes).
        let (idx, kept) = select(&spikes(&[3, 40, 63]), 3, 64, None);
        assert!(matches!(idx, SparseIndex::Bitmap(_)));
        assert_eq!(idx.positions(64), vec![3, 40, 63]);
        assert_eq!(idx.count(64), 3);
        assert_eq!(kept, vec![1.0; 3]);
        // Full selection is dense.
        let (idx, kept) = select(&[1.0, -2.0, 3.0, 0.0, 5.0], 5, 5, None);
        assert_eq!(idx, SparseIndex::Dense);
        assert_eq!(kept, vec![1.0, -2.0, 3.0, 0.0, 5.0]);
    }

    #[test]
    fn spec_display_and_activity() {
        assert!(!CompressionSpec::identity().is_active());
        assert_eq!(CompressionSpec::identity().to_string(), "identity");
        let spec = CompressionSpec {
            delta: true,
            quant: QuantMode::Int8,
            topk_fraction: 0.25,
        };
        assert!(spec.is_active());
        assert_eq!(spec.to_string(), "delta+int8+topk0.25");
        assert!(!CompressionSpec {
            topk_fraction: 0.0,
            ..CompressionSpec::identity()
        }
        .is_valid());
        assert!(!CompressionSpec {
            topk_fraction: f32::NAN,
            ..CompressionSpec::identity()
        }
        .is_valid());
    }
}
