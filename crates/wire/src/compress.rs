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

use std::fmt;

use crate::frame::{bytes_len, Reader, WireError, Writer};

/// Compression codec revision a client advertises in [`crate::Hello`].
/// Revision 0 is the legacy protocol (no [`crate::CompressedModelUpdate`]
/// support); revision 1 adds the delta/top-k/quant codecs in this module.
/// The server never assigns a spec to a peer that advertised revision 0.
pub const CODEC_REVISION: u8 = 1;

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
    pub fn identity() -> Self {
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
pub fn f16_from_f32(x: f32) -> u16 {
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
pub fn f16_to_f32(h: u16) -> f32 {
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

/// Round-to-nearest-even in f64 (bit-stable across platforms; `f64::round`
/// rounds ties away from zero, so it is not used here).
fn rne_f64(x: f64) -> f64 {
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

/// Quantizes `values` onto a 256-point affine grid spanning their range.
/// Returns `(zero_point, scale, codes)` with `zero_point = min` and
/// `scale = (max − min)/255` (both stored as f32, so both ends decode the
/// same grid). A constant input gets `scale = 0` and decodes exactly.
pub fn int8_quantize(values: &[f32]) -> (f32, f32, Vec<u8>) {
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

/// Decodes one affine code: `zero_point + code · scale`, evaluated in f64
/// so both rounding steps are shared by every decoder.
pub fn int8_dequantize_one(zero_point: f32, scale: f32, code: u8) -> f32 {
    (f64::from(zero_point) + f64::from(code) * f64::from(scale)) as f32
}

// ---------------------------------------------------------------------------
// top-k selection
// ---------------------------------------------------------------------------

/// Positions (into `values`) of the `k` largest-magnitude entries, returned
/// in ascending position order. Ties on magnitude keep the lower position —
/// the deterministic tie-break that makes two identical uplinks identical.
///
/// Each position gets a packed rank key, `!|x|bits` in the high half and
/// the position in the low half, so ascending keys are `|x|` descending by
/// `total_cmp` (on non-negative floats that is the order of their bits)
/// and then position ascending: a strict total order. O(n) selection finds
/// the k-th key, and one ascending scan keeps every position ranked at or
/// before it, so the positions come out sorted with no sort of the
/// survivors.
pub fn topk_positions(values: &[f32], k: usize) -> Vec<usize> {
    let n = values.len();
    let k = k.min(n);
    if k == 0 {
        return Vec::new();
    }
    if k == n {
        return (0..n).collect();
    }
    assert!(
        u32::try_from(n).is_ok(),
        "top-k positions must fit the u32 index list"
    );
    let rank = |i: usize, x: f32| (u64::from(!(x.to_bits() & 0x7fff_ffff)) << 32) | i as u64;
    let mut keys: Vec<u64> = values
        .iter()
        .enumerate()
        .map(|(i, &x)| rank(i, x))
        .collect();
    let kth = *keys.select_nth_unstable(k - 1).1;
    let mut out = Vec::with_capacity(k);
    out.extend(
        values
            .iter()
            .enumerate()
            .filter(|&(i, &x)| rank(i, x) <= kth)
            .map(|(i, _)| i),
    );
    debug_assert_eq!(out.len(), k);
    out
}

/// The full-sort top-k that [`topk_positions`] replaced, kept as the
/// reference its selection is property-tested against.
#[cfg(test)]
pub(crate) fn topk_positions_by_sort(values: &[f32], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_unstable_by(|&a, &b| values[b].abs().total_cmp(&values[a].abs()).then(a.cmp(&b)));
    order.truncate(k.min(values.len()));
    order.sort_unstable();
    order
}

/// `k = ceil(fraction · n)`, at least 1 for a non-empty input.
pub fn topk_count(fraction: f32, n: usize) -> usize {
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
    /// Builds the smaller of bitmap/list for `positions` (ascending, unique,
    /// all `< total_len`); dense when every coordinate is present.
    pub fn for_positions(positions: &[usize], total_len: usize) -> Self {
        if positions.len() == total_len {
            return Self::Dense;
        }
        let bitmap_bytes = total_len.div_ceil(8);
        if bitmap_bytes < positions.len() * 4 {
            let mut bits = vec![0u8; bitmap_bytes];
            for &p in positions {
                bits[p / 8] |= 1 << (p % 8);
            }
            Self::Bitmap(bits)
        } else {
            Self::List(positions.iter().map(|&p| p as u32).collect())
        }
    }

    /// Number of coordinates this index selects.
    pub fn count(&self, total_len: usize) -> usize {
        match self {
            Self::Dense => total_len,
            Self::Bitmap(bits) => bits.iter().map(|b| b.count_ones() as usize).sum(),
            Self::List(idx) => idx.len(),
        }
    }

    /// Ascending selected coordinates.
    pub fn positions(&self, total_len: usize) -> Vec<usize> {
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
        match r.u8(what)? {
            0 => Ok(Self::Dense),
            1 => {
                let bits = r.bytes(what)?;
                if bits.len() != total_len.div_ceil(8) {
                    return Err(WireError::Malformed("bitmap length mismatch"));
                }
                // Pad bits past total_len must be zero so equal selections
                // have equal encodings.
                let pad = bits.len() * 8 - total_len;
                if pad > 0 && bits.last().is_some_and(|&b| b >> (8 - pad) != 0) {
                    return Err(WireError::Malformed("bitmap pad bits set"));
                }
                Ok(Self::Bitmap(bits))
            }
            2 => {
                let idx = r.u32s(what)?;
                let ascending = idx.windows(2).all(|w| w[0] < w[1]);
                if !ascending || idx.last().is_some_and(|&i| i as usize >= total_len) {
                    return Err(WireError::Malformed("index list not ascending in range"));
                }
                Ok(Self::List(idx))
            }
            _ => Err(WireError::Malformed("unknown sparse index tag")),
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
    /// Encodes `values` under `mode`.
    pub fn quantize(mode: QuantMode, values: &[f32]) -> Self {
        match mode {
            QuantMode::None => Self::F32(values.to_vec()),
            QuantMode::F16 => Self::F16(values.iter().map(|&v| f16_from_f32(v)).collect()),
            QuantMode::Int8 => {
                let (zero_point, scale, codes) = int8_quantize(values);
                Self::Int8 {
                    zero_point,
                    scale,
                    codes,
                }
            }
        }
    }

    /// Decodes back to f32, one value per entry.
    pub fn dequantize(&self) -> Vec<f32> {
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
    pub fn len(&self) -> usize {
        match self {
            Self::F32(v) => v.len(),
            Self::F16(v) => v.len(),
            Self::Int8 { codes, .. } => codes.len(),
        }
    }

    /// True when no values are carried.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        // Halfway between codes 0 and 1 (both grids even/odd): ties to even.
        assert_eq!(rne_f64(0.5), 0.0);
        assert_eq!(rne_f64(1.5), 2.0);
        assert_eq!(rne_f64(2.5), 2.0);
        assert_eq!(rne_f64(-0.5), 0.0);
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
        // 64 coords, 2 selected: list (8 bytes) equals bitmap (8 bytes) —
        // the list wins ties.
        let idx = SparseIndex::for_positions(&[3, 40], 64);
        assert!(matches!(idx, SparseIndex::List(_)));
        // 64 coords, 3 selected: bitmap (8 bytes) < list (12 bytes).
        let idx = SparseIndex::for_positions(&[3, 40, 63], 64);
        assert!(matches!(idx, SparseIndex::Bitmap(_)));
        assert_eq!(idx.positions(64), vec![3, 40, 63]);
        assert_eq!(idx.count(64), 3);
        // Full selection is dense.
        let all: Vec<usize> = (0..5).collect();
        assert_eq!(SparseIndex::for_positions(&all, 5), SparseIndex::Dense);
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
