//! The communication-parameter search space (§VI), extended with the
//! gradient-compression axis (RedSync): the bandit co-tunes stream count,
//! granularity, algorithm, and compression scheme together, because
//! compression shrinks units and shifts the stream/granularity optimum.

use aiacc_compress::Scheme;
use std::fmt;

/// All-reduce algorithm choice, mirrored from the collectives layer (kept
/// local so the tuner stays engine-agnostic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TuneAlgo {
    /// Flat ring all-reduce.
    #[default]
    Ring,
    /// Hierarchical (intra-node, then across nodes).
    Tree,
}

impl fmt::Display for TuneAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneAlgo::Ring => write!(f, "ring"),
            TuneAlgo::Tree => write!(f, "tree"),
        }
    }
}

/// One point in the search space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningConfig {
    /// Concurrent communication streams.
    pub streams: usize,
    /// All-reduce unit granularity in bytes.
    pub granularity: f64,
    /// All-reduce algorithm.
    pub algo: TuneAlgo,
    /// Gradient compression scheme.
    pub compress: Scheme,
}

impl fmt::Display for TuningConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} streams / {:.0} MiB / {} / {}",
            self.streams,
            self.granularity / (1024.0 * 1024.0),
            self.algo,
            self.compress
        )
    }
}

/// The discrete lattice the searchers explore.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningSpace {
    /// Stream-count axis.
    pub streams: Vec<usize>,
    /// Granularity axis (bytes).
    pub granularities: Vec<f64>,
    /// Algorithm axis.
    pub algos: Vec<TuneAlgo>,
    /// Compression-scheme axis. Defaults to `[Scheme::None]` (compression
    /// changes accuracy, so lossy schemes only enter the search when the
    /// caller opts in via [`TuningSpace::with_compression`]).
    pub compress: Vec<Scheme>,
}

fn default_compress_axis() -> Vec<Scheme> {
    vec![Scheme::None]
}

impl Default for TuningSpace {
    /// The space observed in production (§VIII-D: streams between 2 and 24,
    /// granularity varying per model): streams 1–32, granularity 2–256 MiB,
    /// ring and tree.
    fn default() -> Self {
        const MIB: f64 = 1024.0 * 1024.0;
        TuningSpace {
            streams: vec![1, 2, 4, 6, 8, 12, 16, 24, 32],
            granularities: vec![
                2.0 * MIB,
                4.0 * MIB,
                8.0 * MIB,
                16.0 * MIB,
                32.0 * MIB,
                64.0 * MIB,
                128.0 * MIB,
                256.0 * MIB,
            ],
            algos: vec![TuneAlgo::Ring, TuneAlgo::Tree],
            compress: default_compress_axis(),
        }
    }
}

impl TuningSpace {
    /// Adds the lossy compression schemes to the search (fourth axis):
    /// fp16, int8, and RedSync-style `topk:64`, alongside uncompressed.
    pub fn with_compression(mut self) -> Self {
        self.compress = vec![Scheme::None, Scheme::Fp16, Scheme::Int8, Scheme::TopK { ratio: 64 }];
        self
    }

    /// Number of lattice points.
    pub fn len(&self) -> usize {
        self.streams.len() * self.granularities.len() * self.algos.len() * self.compress.len()
    }

    /// `true` if the space is degenerate.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th lattice point (row-major: compression, then algo, then
    /// granularity, then streams).
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn index(&self, i: usize) -> TuningConfig {
        assert!(i < self.len(), "index {i} out of range");
        let s = self.streams.len();
        let g = self.granularities.len();
        let a = self.algos.len();
        TuningConfig {
            streams: self.streams[i % s],
            granularity: self.granularities[(i / s) % g],
            algo: self.algos[(i / (s * g)) % a],
            compress: self.compress[i / (s * g * a)],
        }
    }

    /// All lattice points.
    pub fn enumerate(&self) -> Vec<TuningConfig> {
        (0..self.len()).map(|i| self.index(i)).collect()
    }

    /// Maps a config to normalized `[0, 1]⁴` coordinates (for the GP).
    pub fn normalize(&self, cfg: &TuningConfig) -> [f64; 4] {
        let si = self.streams.iter().position(|&s| s == cfg.streams).unwrap_or(0);
        let gi =
            self.granularities.iter().position(|&g| (g - cfg.granularity).abs() < 1.0).unwrap_or(0);
        let ai = self.algos.iter().position(|&a| a == cfg.algo).unwrap_or(0);
        let ci = self.compress.iter().position(|&c| c == cfg.compress).unwrap_or(0);
        let norm = |i: usize, n: usize| {
            if n <= 1 {
                0.0
            } else {
                i as f64 / (n - 1) as f64
            }
        };
        [
            norm(si, self.streams.len()),
            norm(gi, self.granularities.len()),
            norm(ai, self.algos.len()),
            norm(ci, self.compress.len()),
        ]
    }

    /// The nearest lattice neighbours of `cfg` (for PBT perturbation):
    /// one step along each axis.
    pub fn neighbours(&self, cfg: &TuningConfig) -> Vec<TuningConfig> {
        let mut out = Vec::new();
        if let Some(si) = self.streams.iter().position(|&s| s == cfg.streams) {
            if si > 0 {
                out.push(TuningConfig { streams: self.streams[si - 1], ..*cfg });
            }
            if si + 1 < self.streams.len() {
                out.push(TuningConfig { streams: self.streams[si + 1], ..*cfg });
            }
        }
        if let Some(gi) = self.granularities.iter().position(|&g| (g - cfg.granularity).abs() < 1.0)
        {
            if gi > 0 {
                out.push(TuningConfig { granularity: self.granularities[gi - 1], ..*cfg });
            }
            if gi + 1 < self.granularities.len() {
                out.push(TuningConfig { granularity: self.granularities[gi + 1], ..*cfg });
            }
        }
        for &a in &self.algos {
            if a != cfg.algo {
                out.push(TuningConfig { algo: a, ..*cfg });
            }
        }
        if let Some(ci) = self.compress.iter().position(|&c| c == cfg.compress) {
            if ci > 0 {
                out.push(TuningConfig { compress: self.compress[ci - 1], ..*cfg });
            }
            if ci + 1 < self.compress.len() {
                out.push(TuningConfig { compress: self.compress[ci + 1], ..*cfg });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_space_size() {
        let s = TuningSpace::default();
        assert_eq!(s.len(), 9 * 8 * 2);
        assert_eq!(s.enumerate().len(), s.len());
    }

    #[test]
    fn compression_axis_quadruples_the_space() {
        let s = TuningSpace::default().with_compression();
        assert_eq!(s.len(), 9 * 8 * 2 * 4);
        assert!(s.enumerate().iter().any(|c| c.compress == Scheme::TopK { ratio: 64 }));
    }

    #[test]
    fn index_roundtrip_covers_all_combinations() {
        let s = TuningSpace::default().with_compression();
        let mut seen = std::collections::HashSet::new();
        for i in 0..s.len() {
            let c = s.index(i);
            seen.insert((
                c.streams,
                c.granularity as u64,
                c.algo == TuneAlgo::Tree,
                c.compress.to_string(),
            ));
        }
        assert_eq!(seen.len(), s.len());
    }

    #[test]
    fn normalize_maps_to_unit_cube() {
        let s = TuningSpace::default();
        for c in s.enumerate() {
            let x = s.normalize(&c);
            for v in x {
                assert!((0.0..=1.0).contains(&v));
            }
        }
        // Extremes hit the corners.
        let lo = s.index(0);
        assert_eq!(s.normalize(&lo), [0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn neighbours_stay_on_lattice() {
        let s = TuningSpace::default().with_compression();
        let c = s.index(10);
        let ns = s.neighbours(&c);
        assert!(!ns.is_empty());
        let all = s.enumerate();
        for n in ns {
            assert!(all.iter().any(|a| a == &n), "off-lattice neighbour {n}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_index_panics() {
        let s = TuningSpace::default();
        let _ = s.index(s.len());
    }
}
