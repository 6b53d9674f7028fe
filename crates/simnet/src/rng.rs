//! The one seeded generator: SplitMix64 (Steele, Lea and Flood, 2014).
//!
//! Every seeded draw in the workspace comes from [`SplitMix64`]: tuner
//! searches, workload and arrival streams, chaos fault plans, synthetic
//! datasets and weight initialisation. Compute jitter hashes its keys
//! through the same [`mix64`] finalizer. Each stream is therefore defined in
//! exactly one place, which is what bit-identical replay rests on.

/// The golden-ratio increment SplitMix64 adds to its state per draw.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output finalizer: a bijective avalanche mix of `z`.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 stream. The field is the raw state, so a snapshot saves and
/// restores a stream exactly.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// A stream seeded from `seed`: the raw state `seed + GOLDEN`.
    #[inline]
    pub fn seeded(seed: u64) -> Self {
        SplitMix64(seed.wrapping_add(GOLDEN))
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)` with 53-bit resolution.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, 1)` with 24-bit resolution.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }

    /// `next_u64() % n`: an index into a collection of `n` items.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `lo + u·(hi − lo)` for a uniform `u` in `[0, 1)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// `lo + u·(hi − lo)` for a uniform `u` in `[0, 1)`, in `f32`.
    #[inline]
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + self.next_f32() * (hi - lo)
    }

    /// Exponential with the given mean (inverse CDF).
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(mut rng: SplitMix64) -> [u64; 3] {
        [rng.next_u64(), rng.next_u64(), rng.next_u64()]
    }

    /// Values recorded from the generators this type replaced (the seeded
    /// generator of the former `rand` stub and the scheduler's raw-state
    /// stream); a change here moves every seeded output in the workspace.
    #[test]
    fn streams_match_golden_values() {
        assert_eq!(
            draws(SplitMix64::seeded(0)),
            [0x6E78_9E6A_A1B9_65F4, 0x06C4_5D18_8009_454F, 0xF88B_B8A8_724C_81EC]
        );
        assert_eq!(
            draws(SplitMix64::seeded(42)),
            [0x28EF_E333_B266_F103, 0x4752_6757_130F_9F52, 0x581C_E1FF_0E4A_E394]
        );
        assert_eq!(
            draws(SplitMix64(0)),
            [0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4, 0x06C4_5D18_8009_454F]
        );
        assert_eq!(
            draws(SplitMix64(0xA1AC_C5C4_ED00_0001)),
            [0x8E35_F871_46C6_A386, 0xF7BC_A443_92D7_93B4, 0x5250_83C6_6DBF_DE74]
        );
        let mut rng = SplitMix64::seeded(7);
        assert_eq!([0; 4].map(|_| rng.below(10)), [4, 6, 3, 4]);
        let f = [0; 3].map(|_| rng.range_f32(-1.0, 1.0).to_bits());
        assert_eq!(f, [0xBF00_4A84, 0xBD83_43C0, 0xBEB0_0CA8]);
        let d = [0; 2].map(|_| rng.next_f64().to_bits());
        assert_eq!(d, [0x3FC1_2F60_3D4C_A830, 0x3FDA_70E8_9DA2_1E54]);
    }
}
