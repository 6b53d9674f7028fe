//! IEEE-754 binary16 (half precision) conversion.
//!
//! AIACC-Training compresses gradients to half precision on the wire (§X).
//! Rust has no stable `f16` primitive, so this module implements bit-exact
//! conversions: `f32 → f16` with round-to-nearest-even, and the exact
//! `f16 → f32` widening.
//!
//! # Example
//! ```
//! use aiacc_dnn::f16::{f16_to_f32, f32_to_f16};
//! let h = f32_to_f16(1.0);
//! assert_eq!(h, 0x3C00);
//! assert_eq!(f16_to_f32(h), 1.0);
//! ```

/// Converts an `f32` to half-precision bits with round-to-nearest-even.
///
/// Values above the half range become ±infinity; tiny magnitudes become
/// subnormal halves or ±0; NaN payloads collapse to a quiet NaN.
///
/// Branch-light: all three candidate encodings are computed and one is
/// selected, so slice loops over it vectorize. Normal halves rebias the
/// exponent with one integer add that also carries the round-to-nearest-even
/// increment into the exponent. Half subnormals (and zero) come from a
/// float add of 0.5, whose ulp is exactly the half-subnormal step 2^-24, so
/// the FPU performs the round-to-nearest-even.
#[inline]
pub fn f32_to_f16(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = (bits >> 16) & 0x8000;
    let abs = bits & 0x7FFF_FFFF;
    // Rebias 127 → 15 (adding −112 << 23 wraps), plus 0xFFF and the kept
    // mantissa's low bit: ties round to even, and a mantissa carry bumps
    // the exponent, up to infinity from 65520 on.
    let normal = abs.wrapping_add(0xC800_0FFF + ((abs >> 13) & 1)) >> 13;
    let subnormal = (f32::from_bits(abs) + 0.5).to_bits().wrapping_sub(0x3F00_0000);
    let special = if abs > 0x7F80_0000 { 0x7E00 } else { 0x7C00 };
    let half = if abs >= 0x4780_0000 {
        special // |value| ≥ 65536, ∞ or NaN
    } else if abs < 0x3880_0000 {
        subnormal // |value| < 2^-14, the smallest normal half
    } else {
        normal
    };
    (sign | half) as u16
}

/// Widens half-precision bits to an `f32` (exact).
///
/// Branch-light like [`f32_to_f16`]: the exponent/mantissa field shifted
/// into place is rebiased for normal halves and ∞/NaN, and a subnormal is
/// rebuilt as the normal `2^-14 · 1.m` minus `2^-14`, which is exact.
#[inline]
pub fn f16_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let shifted = ((bits & 0x7FFF) as u32) << 13;
    let exp = shifted & 0x0F80_0000;
    let normal = shifted + 0x3800_0000; // rebias 15 → 127
    let special = shifted + 0x7000_0000; // exponent 31 → 255
    let subnormal = (f32::from_bits(shifted + 0x3880_0000) - f32::from_bits(0x3880_0000)).to_bits();
    let out = if exp == 0x0F80_0000 {
        special
    } else if exp == 0 {
        subnormal
    } else {
        normal
    };
    f32::from_bits(sign | out)
}

/// Compresses a slice to half-precision bits.
pub fn compress(values: &[f32]) -> Vec<u16> {
    values.iter().map(|&v| f32_to_f16(v)).collect()
}

/// Decompresses half-precision bits back to `f32`.
pub fn decompress(bits: &[u16]) -> Vec<f32> {
    bits.iter().map(|&b| f16_to_f32(b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original scalar conversions, kept as the oracle the branch-light
    /// ones are checked against bit for bit.
    mod reference {
        pub fn f32_to_f16(value: f32) -> u16 {
            let bits = value.to_bits();
            let sign = ((bits >> 16) & 0x8000) as u16;
            let exp = ((bits >> 23) & 0xFF) as i32;
            let mant = bits & 0x007F_FFFF;

            if exp == 0xFF {
                // Inf or NaN.
                return if mant == 0 { sign | 0x7C00 } else { sign | 0x7E00 };
            }
            if exp == 0 {
                // f32 subnormals are far below the half subnormal range.
                return sign;
            }

            // Rebias from 127 to 15.
            let half_exp = exp - 127 + 15;

            if half_exp >= 0x1F {
                return sign | 0x7C00; // overflow to infinity
            }

            if half_exp <= 0 {
                // Result is a half subnormal (or rounds to zero).
                if half_exp < -10 {
                    return sign; // far below the subnormal range
                }
                let m = mant | 0x0080_0000; // restore the implicit leading 1
                let total_shift = (13 + (1 - half_exp)) as u32;
                let half_mant = m >> total_shift;
                let rem = m & ((1u32 << total_shift) - 1);
                let halfway = 1u32 << (total_shift - 1);
                let mut h = half_mant as u16;
                if rem > halfway || (rem == halfway && (h & 1) == 1) {
                    h += 1; // may carry into the smallest normal — that is correct
                }
                return sign | h;
            }

            // Normal result: keep the top 10 mantissa bits,
            // round-to-nearest-even on the 13 dropped bits. A mantissa carry
            // bumps the exponent and can overflow to infinity.
            let mut half = sign | ((half_exp as u16) << 10) | ((mant >> 13) as u16);
            let round_bits = mant & 0x1FFF;
            if round_bits > 0x1000 || (round_bits == 0x1000 && (half & 1) == 1) {
                half += 1;
            }
            half
        }

        pub fn f16_to_f32(bits: u16) -> f32 {
            let sign = ((bits & 0x8000) as u32) << 16;
            let exp = ((bits >> 10) & 0x1F) as u32;
            let mant = (bits & 0x03FF) as u32;

            let out = if exp == 0 {
                if mant == 0 {
                    sign // signed zero
                } else {
                    // Subnormal half: normalize into an f32 normal.
                    let mut m = mant;
                    let mut e: i32 = 0;
                    while m & 0x0400 == 0 {
                        m <<= 1;
                        e -= 1;
                    }
                    m &= 0x03FF;
                    let f32_exp = (127 - 15 + 1 + e) as u32;
                    sign | (f32_exp << 23) | (m << 13)
                }
            } else if exp == 0x1F {
                sign | 0x7F80_0000 | (mant << 13) // Inf / NaN
            } else {
                sign | ((exp + 127 - 15) << 23) | (mant << 13)
            };
            f32::from_bits(out)
        }
    }

    #[test]
    fn widening_matches_reference_on_every_half() {
        for bits in 0u16..=0xFFFF {
            let (got, want) = (f16_to_f32(bits), reference::f16_to_f32(bits));
            assert_eq!(got.to_bits(), want.to_bits(), "half {bits:#06x}");
        }
    }

    #[test]
    fn narrowing_matches_reference_on_every_half_and_its_neighbours() {
        // Every half value, the f32 just either side of it, and the exact
        // midpoint to the next half: the rounding boundaries of the
        // narrowing conversion.
        for bits in 0u16..=0xFFFF {
            let f = reference::f16_to_f32(bits).to_bits();
            let next = reference::f16_to_f32(bits.wrapping_add(1)).to_bits();
            let mid = if f & 0x7FFF_FFFF < 0x7F80_0000 && next & 0x8000_0000 == f & 0x8000_0000 {
                f / 2 + next / 2 + (f & next & 1)
            } else {
                f
            };
            for x in [f.wrapping_sub(1), f, f.wrapping_add(1), mid, mid + 1, mid.wrapping_sub(1)] {
                let v = f32::from_bits(x);
                assert_eq!(f32_to_f16(v), reference::f32_to_f16(v), "f32 {x:#010x}");
            }
        }
    }

    /// All 2^32 `f32` bit patterns. About 20 s in release mode; run with
    /// `cargo test --release -p aiacc-dnn -- --ignored`.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release mode"]
    fn narrowing_matches_reference_on_every_f32() {
        let mismatch = (0..=u32::MAX).find(|&x| {
            let v = f32::from_bits(x);
            f32_to_f16(v) != reference::f32_to_f16(v)
        });
        assert_eq!(mismatch, None, "first mismatching f32 bit pattern");
    }

    #[test]
    fn known_constants() {
        assert_eq!(f32_to_f16(0.0), 0x0000);
        assert_eq!(f32_to_f16(-0.0), 0x8000);
        assert_eq!(f32_to_f16(1.0), 0x3C00);
        assert_eq!(f32_to_f16(-2.0), 0xC000);
        assert_eq!(f32_to_f16(65504.0), 0x7BFF); // max finite half
        assert_eq!(f32_to_f16(f32::INFINITY), 0x7C00);
        assert_eq!(f32_to_f16(f32::NEG_INFINITY), 0xFC00);
    }

    #[test]
    fn overflow_to_infinity() {
        assert_eq!(f32_to_f16(70000.0), 0x7C00);
        assert_eq!(f32_to_f16(-1e10), 0xFC00);
        // 65520 is exactly halfway between 65504 and the (unrepresentable)
        // next value: ties to even rounds UP to infinity per IEEE.
        assert_eq!(f32_to_f16(65520.0), 0x7C00);
    }

    #[test]
    fn nan_collapses_to_quiet_nan() {
        let h = f32_to_f16(f32::NAN);
        assert_eq!(h & 0x7C00, 0x7C00);
        assert_ne!(h & 0x03FF, 0);
        assert!(f16_to_f32(h).is_nan());
    }

    #[test]
    fn subnormal_range() {
        // Smallest half subnormal = 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(f32_to_f16(tiny), 0x0001);
        assert_eq!(f16_to_f32(0x0001), tiny);
        // Largest subnormal.
        let max_sub = f16_to_f32(0x03FF);
        assert_eq!(f32_to_f16(max_sub), 0x03FF);
        // Below half the smallest subnormal rounds to zero.
        assert_eq!(f32_to_f16(2.0f32.powi(-26)), 0x0000);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1.0 + 2^-11 is exactly halfway between 0x3C00 and 0x3C01 → even.
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(f32_to_f16(halfway), 0x3C00);
        // 1.0 + 3*2^-11 is halfway between 0x3C01 and 0x3C02 → even (0x3C02).
        let halfway2 = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(f32_to_f16(halfway2), 0x3C02);
        // Just above halfway rounds up.
        assert_eq!(f32_to_f16(halfway + 2.0f32.powi(-20)), 0x3C01);
    }

    #[test]
    fn roundtrip_is_exact_for_all_finite_halves() {
        for bits in 0u16..=0xFFFF {
            let exp = (bits >> 10) & 0x1F;
            if exp == 0x1F {
                continue; // Inf/NaN handled elsewhere
            }
            let f = f16_to_f32(bits);
            let back = f32_to_f16(f);
            assert_eq!(back, bits, "roundtrip failed for {bits:#06x} (value {f})");
        }
    }

    #[test]
    fn compress_decompress_slice() {
        let vals = vec![0.5, -1.25, 1e-4, 3000.0];
        let rt = decompress(&compress(&vals));
        for (a, b) in vals.iter().zip(&rt) {
            let rel = ((a - b) / a).abs();
            assert!(rel < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn relative_error_bounded_for_normals() {
        // Half has 11 significand bits → relative error ≤ 2^-11 for values in
        // the normal range.
        let mut v = 6.1e-5f32; // just above the smallest normal half
        while v < 6.0e4 {
            let rt = f16_to_f32(f32_to_f16(v));
            let rel = ((v - rt) / v).abs();
            assert!(rel <= 2.0f32.powi(-11), "value {v} error {rel}");
            v *= 1.37;
        }
    }
}
