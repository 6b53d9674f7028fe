//! Property-based tests of the gradient compressors: bounded round-trip
//! error per scheme, exact wire-size accounting, bounded error-feedback
//! residuals, and the fused error-feedback step checked bit for bit against
//! compress → decompress.

use aiacc_compress::{Compressed, Compressor, ErrorFeedback, Scheme, INT8_CHUNK};
use proptest::prelude::*;

fn grad_strategy() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, 0..600)
}

fn scheme_strategy() -> impl Strategy<Value = Scheme> {
    (0u32..4, 1u32..16).prop_map(|(kind, ratio)| match kind {
        0 => Scheme::None,
        1 => Scheme::Fp16,
        2 => Scheme::Int8,
        _ => Scheme::TopK { ratio },
    })
}

proptest! {
    /// The closed-form wire size must equal the materialized compressed
    /// payload's size exactly — this is the number the timing plane charges,
    /// so any drift would mean the simulated network moves bytes the data
    /// plane never produced.
    #[test]
    fn wire_size_accounting_is_exact(g in grad_strategy(), scheme in scheme_strategy()) {
        let c = scheme.compress(&g);
        prop_assert_eq!(c.wire_bytes(), Compressor::wire_bytes(&scheme, g.len()));
        prop_assert_eq!(scheme.decompress(&c).len(), g.len());
    }

    /// fp16 round-trip error is bounded by half-precision resolution:
    /// 2⁻¹¹ relative for normal values, plus an absolute floor for the
    /// subnormal range.
    #[test]
    fn fp16_round_trip_error_is_bounded(g in grad_strategy()) {
        let back = Scheme::Fp16.decompress(&Scheme::Fp16.compress(&g));
        for (&x, &y) in g.iter().zip(&back) {
            prop_assert!(
                (x - y).abs() <= x.abs() * 1e-3 + 1e-4,
                "fp16 {} -> {}", x, y
            );
        }
    }

    /// int8 round-trip error is bounded by half a quantization step of the
    /// chunk it lives in (scale = chunk max-abs / 127).
    #[test]
    fn int8_round_trip_error_is_bounded(g in grad_strategy()) {
        let back = Scheme::Int8.decompress(&Scheme::Int8.compress(&g));
        for (ci, chunk) in g.chunks(INT8_CHUNK).enumerate() {
            let max = chunk.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let half_step = max / 127.0 * 0.5;
            for (i, &x) in chunk.iter().enumerate() {
                let y = back[ci * INT8_CHUNK + i];
                prop_assert!(
                    (x - y).abs() <= half_step * 1.001 + 1e-6,
                    "int8 {} -> {} (chunk max {})", x, y, max
                );
            }
        }
    }

    /// Top-k keeps the surviving coordinates bit-exact and zeroes the rest —
    /// and what survives is exactly the top `⌈n/ratio⌉` by magnitude.
    #[test]
    fn topk_keeps_exact_values_and_zeroes_the_rest(
        g in grad_strategy(),
        ratio in 1u32..16,
    ) {
        let scheme = Scheme::TopK { ratio };
        let back = scheme.decompress(&scheme.compress(&g));
        let mut kept = 0usize;
        let mut min_kept = f32::INFINITY;
        let mut max_dropped = 0.0f32;
        for (&x, &y) in g.iter().zip(&back) {
            if y == 0.0 && x != 0.0 {
                max_dropped = max_dropped.max(x.abs());
            } else {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "kept value changed");
                if y != 0.0 {
                    kept += 1;
                    min_kept = min_kept.min(x.abs());
                }
            }
        }
        if !g.is_empty() {
            let want = g.len().div_ceil(ratio.max(1) as usize).max(1);
            prop_assert!(kept <= want, "kept {} > budget {}", kept, want);
            if kept > 0 {
                prop_assert!(
                    min_kept >= max_dropped,
                    "kept {} but dropped {}", min_kept, max_dropped
                );
            }
        }
    }

    /// The error-feedback invariant: across any gradient stream, the sum of
    /// delivered values plus the final residual equals the sum of injected
    /// gradients (up to float accumulation error) — lossy compression delays
    /// mass, it never loses it.
    #[test]
    fn error_feedback_conserves_gradient_mass(
        scheme in scheme_strategy(),
        grads in prop::collection::vec(
            prop::collection::vec(-8.0f32..8.0, 24..=24), 1..30),
    ) {
        let mut ef = ErrorFeedback::default();
        let mut delivered = [0.0f64; 24];
        let mut injected = [0.0f64; 24];
        let steps = grads.len();
        for g in grads {
            let mut d = g.clone();
            ef.compress_step(scheme, &mut d);
            for i in 0..24 {
                delivered[i] += d[i] as f64;
                injected[i] += g[i] as f64;
            }
        }
        for i in 0..24 {
            // `Scheme::None` is a passthrough: no residual is ever allocated.
            let residual = ef.residual().get(i).copied().unwrap_or(0.0) as f64;
            let err = (delivered[i] + residual - injected[i]).abs();
            prop_assert!(
                err <= 1e-3 * steps as f64,
                "coord {}: delivered {} + residual {} != injected {}",
                i, delivered[i], residual, injected[i]
            );
        }
    }

    /// Error-feedback residuals stay bounded over long streams: with top-k
    /// at ratio r every coordinate is served at least every ~r steps, so the
    /// residual norm is O(r · max-gradient), independent of stream length.
    #[test]
    fn error_feedback_residual_stays_bounded(
        ratio in 1u32..9,
        seed in 0u64..1000,
    ) {
        let scheme = Scheme::TopK { ratio };
        let len = 64usize;
        let mut ef = ErrorFeedback::default();
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        for _ in 0..200 {
            let mut g: Vec<f32> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((state >> 40) as f64 / (1u64 << 24) as f64 * 2.0 - 1.0) as f32
                })
                .collect();
            ef.compress_step(scheme, &mut g);
        }
        // 200 steps of unit-bounded gradients: unbounded accumulation would
        // reach ~200; the EF bound is ~2·r·√len ≤ 128.
        let bound = 2.0 * ratio as f64 * (len as f64).sqrt();
        prop_assert!(
            ef.residual_norm() <= bound,
            "residual norm {} exceeds EF bound {}", ef.residual_norm(), bound
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fused in-place step equals its definition — compress the
    /// compensated gradient, decompress it, keep `compensated − delivered`
    /// as the residual — bit for bit in the delivered values, the residual
    /// and the wire bytes, over consecutive steps so the residual carries.
    #[test]
    fn fused_step_equals_compress_then_decompress(
        case in (any_scheme(), 0usize..LENS.len())
            .prop_flat_map(|(scheme, len)| (Just(scheme), steps_strategy(LENS[len])))
    ) {
        let (scheme, steps) = case;
        let mut ef = ErrorFeedback::new();
        let mut residual = Vec::new();
        for g in steps {
            let (want, want_wire) = reference_step(scheme, &mut residual, &g);
            let mut got = g.clone();
            let wire = ef.compress_step(scheme, &mut got);
            prop_assert_eq!(wire, want_wire, "wire bytes");
            prop_assert_eq!(bits(&got), bits(&want), "delivered");
            prop_assert_eq!(bits(ef.residual()), bits(&residual), "residual");
        }
    }

    /// Top-k keeps the elements first in (|v| descending, index ascending)
    /// order, the order a full comparison sort of the indices gives.
    #[test]
    fn topk_keeps_the_first_k_of_the_sorted_order(
        g in prop::collection::vec(edge_value(), 0..600),
        ratio in 1u32..16,
    ) {
        let scheme = Scheme::TopK { ratio };
        let k = Compressor::wire_bytes(&scheme, g.len()) as usize / 8;
        let mut order: Vec<u32> = (0..g.len() as u32).collect();
        order.sort_by(|&a, &b| {
            let (ma, mb) = (g[a as usize].abs(), g[b as usize].abs());
            mb.partial_cmp(&ma).expect("no NaN").then(a.cmp(&b))
        });
        let mut want = order[..k].to_vec();
        want.sort_unstable();
        match scheme.compress(&g) {
            Compressed::Sparse { idx, .. } => prop_assert_eq!(idx, want),
            other => prop_assert!(false, "expected a sparse payload, got {:?}", other),
        }
    }

    /// int8 codes equal `f32::round` of `v / scale`, clamped, with the scale
    /// from the chunk's largest magnitude (NaN ignored, ∞ zeroes the chunk).
    #[test]
    fn int8_codes_match_f32_round(g in (0usize..600).prop_flat_map(gradient)) {
        let Compressed::Int8 { scales, data, .. } = Scheme::Int8.compress(&g) else {
            panic!("expected an int8 payload");
        };
        for (ci, chunk) in g.chunks(INT8_CHUNK).enumerate() {
            let max_abs = chunk.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let zero = max_abs == 0.0 || !max_abs.is_finite();
            let scale = if zero { 0.0 } else { max_abs / 127.0 };
            prop_assert_eq!(scales[ci].to_bits(), scale.to_bits());
            for (i, &v) in chunk.iter().enumerate() {
                let want = if zero { 0 } else { (v / scale).round().clamp(-127.0, 127.0) as i8 };
                prop_assert_eq!(data[ci * INT8_CHUNK + i], want, "element {}", v);
            }
        }
    }
}

fn any_scheme() -> impl Strategy<Value = Scheme> {
    (0u32..5, 1u32..=16).prop_map(|(kind, ratio)| match kind {
        0 => Scheme::None,
        1 => Scheme::Fp16,
        2 => Scheme::Int8,
        3 => Scheme::TopK { ratio },
        _ => Scheme::TopK { ratio: 64 },
    })
}

/// Unit lengths around the int8 chunk size, and one spanning many chunks.
const LENS: [usize; 6] = [0, 1, 255, 256, 257, 4097];

/// Finite values at the codecs' edges: ±0.0, f32 subnormals, the
/// half-subnormal range, the fp16 overflow boundary 65504/65520, and a
/// magnitude that zeroes every other code of its int8 chunk.
const SPECIALS: [f32; 13] = [
    0.0,
    -0.0,
    f32::from_bits(1),
    -f32::from_bits(0x007F_FFFF),
    f32::MIN_POSITIVE,
    5.960_464_5e-8,  // 2^-24, the smallest half subnormal
    -2.980_232_2e-8, // 2^-25, the tie below it
    6.097_555e-5,    // the largest half subnormal
    65504.0,
    65520.0,
    -65520.0,
    65519.996,
    1.0e30,
];

/// Mostly ordinary gradients, with exact ties, the half-subnormal range,
/// random f32 subnormals and, rarely, [`SPECIALS`]. Always finite.
fn edge_value() -> impl Strategy<Value = f32> {
    (0u32..64, any::<u32>(), -100.0f32..100.0).prop_map(|(kind, raw, x)| match kind {
        0..=7 => [1.0, -1.0, 0.5, -0.5, 2.0][raw as usize % 5],
        8..=11 => x * 1e-6,
        12..=14 => f32::from_bits(raw & 0x807F_FFFF),
        15 => SPECIALS[raw as usize % SPECIALS.len()],
        _ => x,
    })
}

/// An `n`-element gradient of [`edge_value`]s; depending on `mode`, one
/// element each is +∞, −∞ or NaN.
fn gradient(n: usize) -> impl Strategy<Value = Vec<f32>> {
    (prop::collection::vec(edge_value(), n..=n), any::<usize>(), 0u8..8).prop_map(
        move |(mut g, pick, mode)| {
            for (bit, v) in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN].into_iter().enumerate() {
                if n > 0 && mode >> bit & 1 == 1 {
                    g[pick / (bit + 1) % n] = v;
                }
            }
            g
        },
    )
}

/// Three consecutive `n`-element gradients; in half the cases one int8
/// chunk is all zero in every step.
fn steps_strategy(n: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    (prop::collection::vec(gradient(n), 3..=3), any::<usize>(), any::<bool>()).prop_map(
        move |(mut steps, pick, zero)| {
            if zero && n > 0 {
                let c = pick % n.div_ceil(INT8_CHUNK) * INT8_CHUNK;
                for g in &mut steps {
                    g[c..(c + INT8_CHUNK).min(n)].fill(0.0);
                }
            }
            steps
        },
    )
}

/// The error-feedback step by its definition, on the `Compressor` API.
fn reference_step(scheme: Scheme, residual: &mut Vec<f32>, grad: &[f32]) -> (Vec<f32>, u64) {
    if !scheme.is_lossy() {
        return (grad.to_vec(), Compressor::wire_bytes(&scheme, grad.len()));
    }
    if residual.is_empty() {
        *residual = vec![0.0; grad.len()];
    }
    let compensated: Vec<f32> = grad.iter().zip(residual.iter()).map(|(&g, &r)| g + r).collect();
    let payload = scheme.compress(&compensated);
    let delivered = scheme.decompress(&payload);
    for ((r, &c), &d) in residual.iter_mut().zip(&compensated).zip(&delivered) {
        *r = c - d;
    }
    (delivered, payload.wire_bytes())
}

/// Bit patterns, with every NaN as one pattern: Rust leaves the sign and
/// payload of a NaN that arithmetic produces unspecified (the compiler may
/// swap the operands of `+`), so only NaN-ness is comparable.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}
