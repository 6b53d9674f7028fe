//! Gradient compressors for the AIACC data and timing planes.
//!
//! Multi-streamed concurrent communication (the source paper) shrinks
//! communication *time* by overlapping transfers; compression shrinks the
//! *bytes* themselves, and the two compose — RedSync (PAPERS.md) shows
//! top-k sparsification plus quantization cuts synchronization traffic with
//! bounded accuracy loss. This crate implements the compressors as real
//! `f32` math so accuracy loss is **measured** on the data plane, while the
//! timing plane charges the **exact** compressed wire size plus a
//! compress/decompress compute cost.
//!
//! Three schemes behind one [`Compressor`] trait:
//!
//! - **fp16** — round-to-nearest-even half precision (reusing
//!   `aiacc_dnn::f16`), 2 bytes/element on the wire;
//! - **int8** — linear symmetric quantization with one `f32` scale per
//!   [`INT8_CHUNK`]-element chunk, 1 byte/element + 4 bytes/chunk;
//! - **topk:K** — keep the largest-magnitude 1-in-K elements (RedSync
//!   style), 8 bytes per kept element (`u32` index + `f32` value), with
//!   [`ErrorFeedback`] residual accumulation so dropped mass is re-injected
//!   on later iterations instead of lost.
//!
//! Every scheme guarantees `compressed.wire_bytes() ==
//! scheme.wire_bytes(n)` exactly — the timing plane charges bytes from the
//! closed form, the data plane produces the payload, and a proptest pins
//! them together.

#![forbid(unsafe_code)]

use aiacc_dnn::f16;
use std::fmt;
use std::str::FromStr;

/// Elements per int8 quantization chunk (one `f32` scale each).
pub const INT8_CHUNK: usize = 256;

/// A gradient compression scheme, selectable per engine/session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scheme {
    /// No compression: `f32` on the wire.
    #[default]
    None,
    /// fp16 quantization (2 bytes/element).
    Fp16,
    /// int8 linear quantization with per-chunk scale.
    Int8,
    /// Top-k sparsification: keep the largest-magnitude `1/ratio` of
    /// elements (at least one). `topk:64` keeps 1 in 64.
    ///
    /// Elements rank by `|v|` descending, ties by index ascending. NaN
    /// magnitudes rank above ∞ (the order of `|v|`'s bit patterns), so a
    /// NaN is kept before any number and the selection stays deterministic.
    TopK {
        /// Sparsification ratio denominator (keep `ceil(n / ratio)`).
        ratio: u32,
    },
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scheme::None => write!(f, "none"),
            Scheme::Fp16 => write!(f, "fp16"),
            Scheme::Int8 => write!(f, "int8"),
            Scheme::TopK { ratio } => write!(f, "topk:{ratio}"),
        }
    }
}

/// Scheme parse failures (see [`Scheme::from_str`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchemeError(String);

impl fmt::Display for ParseSchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid compression scheme '{}' (expected none|topk:K|fp16|int8)", self.0)
    }
}

impl std::error::Error for ParseSchemeError {}

impl FromStr for Scheme {
    type Err = ParseSchemeError;

    /// Parses the CLI spelling: `none`, `fp16`, `int8`, or `topk:K` with
    /// `K ≥ 1` (e.g. `topk:64`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(Scheme::None),
            "fp16" => Ok(Scheme::Fp16),
            "int8" => Ok(Scheme::Int8),
            _ => match s.strip_prefix("topk:").and_then(|k| k.parse::<u32>().ok()) {
                Some(ratio) if ratio >= 1 => Ok(Scheme::TopK { ratio }),
                _ => Err(ParseSchemeError(s.to_string())),
            },
        }
    }
}

/// A compressed gradient payload, as it would travel on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Compressed {
    /// Uncompressed `f32` payload.
    Dense(Vec<f32>),
    /// fp16 payload (bit patterns).
    Half(Vec<u16>),
    /// int8 payload: one scale per [`INT8_CHUNK`]-element chunk.
    Int8 {
        /// Original element count (the last chunk may be short).
        len: usize,
        /// Per-chunk dequantization scales.
        scales: Vec<f32>,
        /// Quantized values in `[-127, 127]`.
        data: Vec<i8>,
    },
    /// Sparse top-k payload over a dense vector of `len` elements.
    Sparse {
        /// Original element count.
        len: usize,
        /// Kept element indices, ascending.
        idx: Vec<u32>,
        /// Kept element values, `vals[i]` at `idx[i]`.
        vals: Vec<f32>,
    },
}

impl Compressed {
    /// Exact bytes this payload occupies on the wire.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Compressed::Dense(v) => 4 * v.len() as u64,
            Compressed::Half(v) => 2 * v.len() as u64,
            Compressed::Int8 { scales, data, .. } => data.len() as u64 + 4 * scales.len() as u64,
            Compressed::Sparse { idx, vals, .. } => 4 * idx.len() as u64 + 4 * vals.len() as u64,
        }
    }

    /// Original (decompressed) element count.
    pub fn elems(&self) -> usize {
        match self {
            Compressed::Dense(v) => v.len(),
            Compressed::Half(v) => v.len(),
            Compressed::Int8 { len, .. } | Compressed::Sparse { len, .. } => *len,
        }
    }
}

/// A gradient compressor: a pure, deterministic `f32 → wire → f32` codec
/// with exact wire-size accounting.
pub trait Compressor {
    /// Compresses `values` into a wire payload.
    fn compress(&self, values: &[f32]) -> Compressed;

    /// Reconstructs the dense `f32` vector from a payload.
    fn decompress(&self, payload: &Compressed) -> Vec<f32>;

    /// Exact wire bytes for an `elems`-element payload — the closed form
    /// the timing plane charges. Must equal
    /// `self.compress(v).wire_bytes()` for any `v` of that length.
    fn wire_bytes(&self, elems: usize) -> u64;
}

impl Compressor for Scheme {
    fn compress(&self, values: &[f32]) -> Compressed {
        match *self {
            Scheme::None => Compressed::Dense(values.to_vec()),
            Scheme::Fp16 => Compressed::Half(f16::compress(values)),
            Scheme::Int8 => compress_int8(values),
            Scheme::TopK { ratio } => compress_topk(values, ratio),
        }
    }

    fn decompress(&self, payload: &Compressed) -> Vec<f32> {
        match payload {
            Compressed::Dense(v) => v.clone(),
            Compressed::Half(v) => f16::decompress(v),
            Compressed::Int8 { len, scales, data } => {
                let mut out = Vec::with_capacity(*len);
                for (ci, chunk) in data.chunks(INT8_CHUNK).enumerate() {
                    let scale = scales[ci];
                    out.extend(chunk.iter().map(|&q| q as f32 * scale));
                }
                debug_assert_eq!(out.len(), *len);
                out
            }
            Compressed::Sparse { len, idx, vals } => {
                let mut out = vec![0.0f32; *len];
                for (&i, &v) in idx.iter().zip(vals) {
                    out[i as usize] = v;
                }
                out
            }
        }
    }

    fn wire_bytes(&self, elems: usize) -> u64 {
        match *self {
            Scheme::None => 4 * elems as u64,
            Scheme::Fp16 => 2 * elems as u64,
            Scheme::Int8 => elems as u64 + 4 * elems.div_ceil(INT8_CHUNK) as u64,
            Scheme::TopK { ratio } => 8 * topk_keep(elems, ratio) as u64,
        }
    }
}

impl Scheme {
    /// `true` when the scheme actually changes the payload.
    pub fn is_lossy(&self) -> bool {
        *self != Scheme::None
    }

    /// Wire bytes as `f64` for an (possibly fractional) uncompressed byte
    /// count — the timing-plane convenience: `bytes` is an `f32` payload
    /// size, the result is what the wire carries.
    pub fn wire_bytes_for_f32_payload(&self, bytes: f64) -> f64 {
        let elems = (bytes / 4.0).ceil() as usize;
        self.wire_bytes(elems) as f64
    }

    /// Compress + decompress compute cost for an `elems`-element unit, in
    /// nanoseconds — charged on the compute side by the timing plane. Zero
    /// for [`Scheme::None`]; otherwise a fixed two-sided kernel-launch cost
    /// plus a per-element pass cost (top-k pays extra for selection).
    pub fn compute_cost_ns(&self, elems: usize) -> f64 {
        let (fixed_ns, per_elem_ns) = match *self {
            Scheme::None => return 0.0,
            Scheme::Fp16 => (8_000.0, 0.02),
            Scheme::Int8 => (8_000.0, 0.03),
            Scheme::TopK { .. } => (12_000.0, 0.12),
        };
        fixed_ns + per_elem_ns * elems as f64
    }

    /// Compression ratio (wire bytes / raw `f32` bytes) for a payload of
    /// `elems` elements. `1.0` for [`Scheme::None`].
    pub fn ratio(&self, elems: usize) -> f64 {
        if elems == 0 {
            return 1.0;
        }
        self.wire_bytes(elems) as f64 / (4.0 * elems as f64)
    }
}

/// Elements kept by `topk:ratio` over an `elems`-element payload.
fn topk_keep(elems: usize, ratio: u32) -> usize {
    if elems == 0 {
        0
    } else {
        elems.div_ceil(ratio.max(1) as usize).max(1)
    }
}

// The per-scheme kernels below are the only encoders: `Compressor` and the
// fused `ErrorFeedback::compress_step` both call them.

/// `f32::round` (ties away from zero) without the `roundf` libcall that
/// baseline x86_64 makes of it, and without float-to-int conversions, so
/// loops over it vectorize. Bit-identical to `f32::round` for |x| < 2^23:
/// adding and subtracting 2^23 rounds |x| to nearest-even, and a tie that
/// went down to even is bumped up. Larger magnitudes come back at least
/// 2^23 − 1 (or ±∞), which int8's clamp treats as `f32::round` would.
#[inline]
fn round_half_away(x: f32) -> f32 {
    const TWO_23: f32 = 8_388_608.0;
    let a = x.abs();
    let nearest = (a + TWO_23) - TWO_23;
    let bump = if a - nearest >= 0.5 { 1.0 } else { 0.0 };
    (nearest + bump).copysign(x)
}

/// Dequantization scale of an int8 chunk whose largest magnitude is
/// `max_abs`, or `None` when the chunk encodes as zeros (all zero, or
/// holding ±∞).
#[inline]
fn int8_scale(max_abs: f32) -> Option<f32> {
    (max_abs != 0.0 && max_abs.is_finite()).then(|| max_abs / 127.0)
}

/// The int8 encoder: `v`'s code under `scale`, held as an `f32`. It equals
/// `q as f32` for `q = (v / scale).round().clamp(-127.0, 127.0) as i8`: an
/// integer in [−127, 127], never −0.0, and 0 for NaN. Keeping the code in
/// `f32` spares the fused step a float-to-int round trip.
#[inline]
fn int8_code(v: f32, scale: f32) -> f32 {
    let q = round_half_away(v / scale).clamp(-127.0, 127.0);
    if q.is_nan() {
        0.0
    } else {
        q + 0.0 // −0.0 + 0.0 = +0.0
    }
}

/// An int8 code from [`int8_code`] as its `i8`. Adding 1.5 · 2^23 leaves
/// the integer, two's complement included, in the low mantissa byte; unlike
/// `as i8` this needs no saturating conversion, so the loop vectorizes.
#[inline]
fn int8_from_code(code: f32) -> i8 {
    (code + 12_582_912.0).to_bits() as u8 as i8
}

/// Largest `|v|` in `vals`, ignoring NaN as `f32::max` does. Eight
/// independent lanes let the loop vectorize; max is exact, so the split
/// cannot change the result.
fn max_abs(vals: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut blocks = vals.chunks_exact(8);
    for block in &mut blocks {
        for (l, &v) in lanes.iter_mut().zip(block) {
            *l = l.max(v.abs());
        }
    }
    blocks.remainder().iter().chain(&lanes).fold(0.0, |m, &v| m.max(v.abs()))
}

/// [`max_abs`] fused with error-feedback compensation: adds `res` into
/// `buf` and returns the largest `|buf[i]|` afterwards, in one pass.
fn compensate_max_abs(buf: &mut [f32], res: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut blocks = buf.chunks_exact_mut(8);
    let mut res_blocks = res.chunks_exact(8);
    for (block, r) in (&mut blocks).zip(&mut res_blocks) {
        for ((l, b), &r) in lanes.iter_mut().zip(block).zip(r) {
            *b += r;
            *l = l.max(b.abs());
        }
    }
    let tail = blocks.into_remainder();
    for (b, &r) in tail.iter_mut().zip(res_blocks.remainder()) {
        *b += r;
    }
    tail.iter().chain(&lanes).fold(0.0, |m, &v| m.max(v.abs()))
}

fn compress_int8(values: &[f32]) -> Compressed {
    let mut scales = Vec::with_capacity(values.len().div_ceil(INT8_CHUNK));
    let mut data = Vec::with_capacity(values.len());
    for chunk in values.chunks(INT8_CHUNK) {
        match int8_scale(max_abs(chunk)) {
            Some(scale) => {
                scales.push(scale);
                data.extend(chunk.iter().map(|&v| int8_from_code(int8_code(v, scale))));
            }
            None => {
                // Scale 0 decodes to zeros.
                scales.push(0.0);
                data.extend(std::iter::repeat_n(0i8, chunk.len()));
            }
        }
    }
    Compressed::Int8 { len: values.len(), scales, data }
}

/// Magnitude key of `v` for top-k: the bit pattern of `|v|`. For non-NaN
/// values the key order is the `|v|` order; NaN magnitudes rank above ∞.
#[inline]
fn topk_key(v: f32) -> u32 {
    v.to_bits() & 0x7FFF_FFFF
}

/// Which elements top-k keeps: every key above `threshold`, plus the first
/// `ties` keys equal to it in ascending index order. That is the order
/// (|v| descending, index ascending) without sorting any indices.
struct TopKRule {
    threshold: u32,
    ties: usize,
}

impl TopKRule {
    /// The rule keeping the `k` largest keys of `scratch`, a copy of the
    /// values that is reordered in the process.
    ///
    /// # Panics
    /// Panics unless `0 < k <= scratch.len()`.
    fn select(scratch: &mut [f32], k: usize) -> Self {
        let pos = scratch.len() - k;
        let (_, kth, above) = scratch.select_nth_unstable_by_key(pos, |&v| topk_key(v));
        let threshold = topk_key(*kth);
        let ties = k - above.iter().filter(|&&v| topk_key(v) > threshold).count();
        TopKRule { threshold, ties }
    }

    /// Whether the next element, in ascending index order, is kept.
    #[inline]
    fn keep(&mut self, v: f32) -> bool {
        let key = topk_key(v);
        let tie = key == self.threshold && self.ties > 0;
        self.ties -= tie as usize;
        key > self.threshold || tie
    }
}

fn compress_topk(values: &[f32], ratio: u32) -> Compressed {
    let n = values.len();
    let k = topk_keep(n, ratio);
    let (mut idx, mut vals) = (Vec::with_capacity(k), Vec::with_capacity(k));
    if k > 0 {
        let mut rule = TopKRule::select(&mut values.to_vec(), k);
        for (i, &v) in values.iter().enumerate() {
            if rule.keep(v) {
                idx.push(i as u32);
                vals.push(v);
            }
        }
    }
    Compressed::Sparse { len: n, idx, vals }
}

/// Per-worker error-feedback state (EF-SGD / RedSync): the part of the
/// gradient a lossy compressor drops this iteration is accumulated and
/// re-injected into the next one, so the *long-run* update is unbiased
/// even though each wire payload is lossy.
///
/// The residual is part of a training run's state: a checkpoint that drops
/// it does not resume the same run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ErrorFeedback {
    residual: Vec<f32>,
}

impl ErrorFeedback {
    /// Fresh state with an all-zero residual.
    pub fn new() -> Self {
        ErrorFeedback::default()
    }

    /// Compensated compression of one gradient vector, in place: adds the
    /// residual to `buf`, encodes, decodes, stores what the codec lost as
    /// the new residual, and leaves in `buf` exactly the values the wire
    /// delivers to the reduction. Returns the wire bytes. fp16 and int8
    /// take one pass over `buf`, top-k two and a select; nothing is
    /// allocated after the first call.
    ///
    /// The result equals `compress` then `decompress` of `buf + residual`,
    /// with the new residual `compensated − delivered`, bit for bit.
    ///
    /// The residual buffer sizes itself to the first lossy call; all calls
    /// must use the same length.
    ///
    /// # Panics
    /// Panics if `buf.len()` changes between lossy calls.
    pub fn compress_step(&mut self, scheme: Scheme, buf: &mut [f32]) -> u64 {
        let wire = scheme.wire_bytes(buf.len());
        if !scheme.is_lossy() {
            return wire;
        }
        if self.residual.is_empty() {
            self.residual = vec![0.0; buf.len()];
        }
        assert_eq!(self.residual.len(), buf.len(), "gradient length changed mid-session");
        let res = &mut self.residual[..];
        match scheme {
            Scheme::None => unreachable!("lossless schemes return early"),
            Scheme::Fp16 => {
                for (b, r) in buf.iter_mut().zip(res) {
                    let c = *b + *r;
                    let d = f16::f16_to_f32(f16::f32_to_f16(c));
                    *r = c - d;
                    *b = d;
                }
            }
            Scheme::Int8 => {
                for (b, r) in buf.chunks_mut(INT8_CHUNK).zip(res.chunks_mut(INT8_CHUNK)) {
                    let scale = int8_scale(compensate_max_abs(b, r));
                    for (b, r) in b.iter_mut().zip(r) {
                        let c = *b;
                        // A zero chunk decodes to code 0 times scale 0.
                        let d = scale.map_or(0.0, |s| int8_code(c, s) * s);
                        *r = c - d;
                        *b = d;
                    }
                }
            }
            Scheme::TopK { ratio } => {
                // The residual doubles as the selection scratch: it takes a
                // copy of the compensated values, the select reorders it,
                // and the final pass rewrites all of it.
                for (b, r) in buf.iter_mut().zip(res.iter_mut()) {
                    *b += *r;
                    *r = *b;
                }
                let k = topk_keep(buf.len(), ratio);
                if k == 0 {
                    return wire;
                }
                let mut rule = TopKRule::select(res, k);
                for (b, r) in buf.iter_mut().zip(res) {
                    let c = *b;
                    let d = if rule.keep(c) { c } else { 0.0 };
                    *r = c - d;
                    *b = d;
                }
            }
        }
        wire
    }

    /// L2 norm of the accumulated residual (for convergence diagnostics).
    pub fn residual_norm(&self) -> f64 {
        self.residual.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt()
    }

    /// The raw residual buffer (empty until the first lossy step).
    pub fn residual(&self) -> &[f32] {
        &self.residual
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 - n as f32 / 2.0) * 1e-3).collect()
    }

    #[test]
    fn parse_all_spellings() {
        assert_eq!("none".parse::<Scheme>().unwrap(), Scheme::None);
        assert_eq!("fp16".parse::<Scheme>().unwrap(), Scheme::Fp16);
        assert_eq!("int8".parse::<Scheme>().unwrap(), Scheme::Int8);
        assert_eq!("topk:64".parse::<Scheme>().unwrap(), Scheme::TopK { ratio: 64 });
        assert!("topk:0".parse::<Scheme>().is_err());
        assert!("topk:".parse::<Scheme>().is_err());
        assert!("gzip".parse::<Scheme>().is_err());
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for s in [Scheme::None, Scheme::Fp16, Scheme::Int8, Scheme::TopK { ratio: 32 }] {
            assert_eq!(s.to_string().parse::<Scheme>().unwrap(), s);
        }
    }

    #[test]
    fn none_is_identity() {
        let v = ramp(100);
        let c = Scheme::None.compress(&v);
        assert_eq!(Scheme::None.decompress(&c), v);
        assert_eq!(c.wire_bytes(), 400);
    }

    #[test]
    fn fp16_halves_wire_and_bounds_error() {
        let v = ramp(1000);
        let c = Scheme::Fp16.compress(&v);
        assert_eq!(c.wire_bytes(), 2000);
        let d = Scheme::Fp16.decompress(&c);
        for (a, b) in v.iter().zip(&d) {
            assert!((a - b).abs() <= a.abs() * 1e-3 + 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn int8_error_bounded_by_half_scale_per_chunk() {
        let v = ramp(1000);
        let c = Scheme::Int8.compress(&v);
        assert_eq!(c.wire_bytes(), 1000 + 4 * 4);
        let d = Scheme::Int8.decompress(&c);
        for (chunk_v, chunk_d) in v.chunks(INT8_CHUNK).zip(d.chunks(INT8_CHUNK)) {
            let max_abs = chunk_v.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let half_step = max_abs / 127.0 / 2.0 + 1e-9;
            for (a, b) in chunk_v.iter().zip(chunk_d) {
                assert!((a - b).abs() <= half_step * 1.001, "{a} vs {b} (step {half_step})");
            }
        }
    }

    #[test]
    fn int8_zero_chunk_stays_zero() {
        let v = vec![0.0f32; 300];
        let d = Scheme::Int8.decompress(&Scheme::Int8.compress(&v));
        assert_eq!(d, v);
    }

    #[test]
    fn topk_keeps_largest_magnitudes_exactly() {
        let v = vec![0.1, -5.0, 0.2, 3.0, -0.05, 0.0, 1.0, -1.5];
        let s = Scheme::TopK { ratio: 2 }; // keep 4 of 8
        let c = s.compress(&v);
        assert_eq!(c.wire_bytes(), 32);
        let d = s.decompress(&c);
        assert_eq!(d, vec![0.0, -5.0, 0.0, 3.0, 0.0, 0.0, 1.0, -1.5]);
    }

    #[test]
    fn topk_tie_break_is_deterministic() {
        let v = vec![1.0f32; 10];
        let s = Scheme::TopK { ratio: 5 };
        let c = s.compress(&v);
        match &c {
            Compressed::Sparse { idx, .. } => assert_eq!(idx, &[0, 1]),
            other => panic!("expected sparse payload, got {other:?}"),
        }
    }

    #[test]
    fn topk_ranks_nan_above_infinity_and_is_deterministic() {
        // 1366 NaNs outrank everything else, so top-k:4 keeps the 1024
        // lowest-index ones, in both the codec and the fused step.
        let v: Vec<f32> = (0..4096).map(|i| if i % 3 == 0 { f32::NAN } else { i as f32 }).collect();
        let s = Scheme::TopK { ratio: 4 };
        let kept = |c: Compressed| match c {
            Compressed::Sparse { idx, vals, .. } => {
                assert!(vals.iter().all(|v| v.is_nan()));
                idx
            }
            other => panic!("expected sparse payload, got {other:?}"),
        };
        let first = kept(s.compress(&v));
        assert_eq!(first.len(), 1024);
        assert!(first.windows(2).all(|p| p[0] < p[1]), "indices not ascending");
        assert_eq!(first, (0..1024).map(|j| 3 * j).collect::<Vec<u32>>());
        assert_eq!(kept(s.compress(&v)), first);

        let mut buf = v.clone();
        ErrorFeedback::new().compress_step(s, &mut buf);
        let fused: Vec<u32> = (0..4096).filter(|&i| buf[i as usize].is_nan()).collect();
        assert_eq!(fused, first);
    }

    #[test]
    fn round_half_away_matches_f32_round_below_2_pow_23() {
        let check = |x: f32| {
            for v in [x, -x] {
                assert_eq!(round_half_away(v).to_bits(), v.round().to_bits(), "{v:e}");
            }
        };
        // A stride through every magnitude below 2^23, ±0.0 included.
        for bits in (0..0x4B00_0000u32).step_by(997) {
            check(f32::from_bits(bits));
        }
        // Every halfway point k + 0.5 below 2^16 (sparser above, up to
        // 2^22) and the floats either side of it.
        for k in (0..1u32 << 16).chain(((1 << 16)..(1 << 22)).step_by(61)) {
            let h = (k as f32 + 0.5).to_bits();
            for b in [h - 1, h, h + 1] {
                check(f32::from_bits(b));
            }
        }
        check(0.499_999_97);
    }

    #[test]
    fn int8_codes_survive_any_magnitude() {
        // Beyond 2^23, at ±∞ and at NaN the rounding may differ from
        // `f32::round`, but the clamped code may not.
        for v in [8_388_608.0f32, 8_388_609.0, 3e9, -3e9, 1e38, f32::INFINITY, f32::NAN] {
            for v in [v, -v] {
                let want = v.round().clamp(-127.0, 127.0) as i8;
                assert_eq!(int8_code(v, 1.0) as i8, want, "{v:e}");
                assert_eq!(int8_code(v, 1.0), want as f32, "{v:e}");
            }
        }
        for q in -127i8..=127 {
            assert_eq!(int8_from_code(q as f32), q);
        }
    }

    #[test]
    fn int8_underflowing_scale_matches_the_codec() {
        // A chunk of the tiniest subnormals: max_abs / 127 underflows to 0,
        // every nonzero code saturates, and negative ones decode to -0.0.
        let v = [f32::from_bits(3), -f32::from_bits(1), 0.0, -f32::from_bits(2)];
        let want = Scheme::Int8.decompress(&Scheme::Int8.compress(&v));
        assert_eq!(want[1].to_bits(), (-0.0f32).to_bits());
        let mut buf = v;
        let mut ef = ErrorFeedback::new();
        ef.compress_step(Scheme::Int8, &mut buf);
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&buf), bits(&want));
        assert_eq!(bits(ef.residual()), bits(&v));
    }

    #[test]
    fn topk_keep_at_least_one() {
        let s = Scheme::TopK { ratio: 64 };
        let c = s.compress(&[3.0, 1.0]);
        assert_eq!(s.decompress(&c), vec![3.0, 0.0]);
        assert_eq!(s.wire_bytes(2), 8);
    }

    #[test]
    fn wire_bytes_closed_form_matches_payload() {
        for scheme in [Scheme::None, Scheme::Fp16, Scheme::Int8, Scheme::TopK { ratio: 64 }] {
            for n in [0usize, 1, 7, 255, 256, 257, 1000, 4096] {
                let v = ramp(n);
                assert_eq!(
                    scheme.compress(&v).wire_bytes(),
                    scheme.wire_bytes(n),
                    "{scheme} n={n}"
                );
            }
        }
    }

    #[test]
    fn error_feedback_reinjects_dropped_mass() {
        // A constant gradient under heavy top-k: each step delivers only the
        // top slice, but the residual grows until every coordinate
        // eventually crosses the selection threshold — the *sum* of
        // delivered updates tracks the sum of true gradients.
        let scheme = Scheme::TopK { ratio: 8 };
        let grad = vec![1.0f32; 64];
        let mut ef = ErrorFeedback::new();
        let mut delivered_sum = vec![0.0f32; 64];
        for _ in 0..32 {
            let mut d = grad.clone();
            ef.compress_step(scheme, &mut d);
            for (s, v) in delivered_sum.iter_mut().zip(&d) {
                *s += v;
            }
        }
        // EF invariant: delivered + residual == total injected, exactly
        // (small integers, so the float math is exact) — nothing is lost,
        // only deferred, and the deferral is bounded by one selection cycle.
        for (s, &r) in delivered_sum.iter().zip(ef.residual()) {
            assert_eq!(s + r, 32.0, "delivered {s} + residual {r} != 32");
        }
        assert!(ef.residual_norm() <= 8.0 * 8.0, "residual norm {}", ef.residual_norm());
    }

    #[test]
    fn error_feedback_none_is_passthrough() {
        let mut ef = ErrorFeedback::new();
        let mut d = vec![1.0, 2.0];
        let wire = ef.compress_step(Scheme::None, &mut d);
        assert_eq!(d, vec![1.0, 2.0]);
        assert_eq!(wire, 8);
        assert!(ef.residual().is_empty());
    }

    #[test]
    fn compute_cost_monotone_in_elems_and_zero_for_none() {
        assert_eq!(Scheme::None.compute_cost_ns(1 << 20), 0.0);
        for s in [Scheme::Fp16, Scheme::Int8, Scheme::TopK { ratio: 64 }] {
            assert!(s.compute_cost_ns(1000) > 0.0);
            assert!(s.compute_cost_ns(2000) > s.compute_cost_ns(1000));
        }
    }

    #[test]
    fn ratio_reflects_wire_savings() {
        assert_eq!(Scheme::None.ratio(1024), 1.0);
        assert_eq!(Scheme::Fp16.ratio(1024), 0.5);
        assert!(Scheme::Int8.ratio(1024) < 0.27);
        assert!(Scheme::TopK { ratio: 64 }.ratio(4096) < 0.04);
    }
}
