//! Graph generators.
//!
//! * [`mod@rmat`] — the R-MAT recursive matrix model (Chakrabarti et al., SDM'04)
//!   with the Graph 500 parameters used throughout the paper's evaluation
//!   (a=0.57 after correcting the paper's printed 0.59, which does not sum
//!   to one; b=c=0.19, d=0.05, edge factor 16 by default — §6).
//! * [`mod@erdos_renyi`] — uniform random graphs (G(n, m) model) used for
//!   "uniform degree distribution" analyses (§5.1).
//! * [`regular`] — paths, rings, complete binary trees, 2D/3D grids and tori;
//!   deterministic high-diameter instances for correctness tests.
//! * [`social`] — Barabási–Albert preferential attachment and
//!   Watts–Strogatz small-world models (§1's social/communication data).
//! * [`mod@webcrawl`] — synthetic stand-in for the `uk-union` web crawl: a chain
//!   of skewed-degree communities with diameter ≈ 140 (Fig. 11's regime of
//!   many level-synchronous iterations with small frontiers).

pub mod erdos_renyi;
pub mod regular;
pub mod rmat;
pub mod social;
pub mod webcrawl;

pub use erdos_renyi::erdos_renyi;
pub use regular::{binary_tree, grid2d, grid3d, path, ring, torus2d};
pub use rmat::{rmat, RmatConfig};
pub use social::{preferential_attachment, small_world};
pub use webcrawl::{webcrawl, WebCrawlConfig};

use rand::SeedableRng;
use rand_xoshiro::Xoshiro256PlusPlus;

/// Derives a per-stream RNG from a master seed and a stream index.
///
/// Generators parallelize by slicing the output range into chunks and giving
/// each chunk an independent, deterministic stream, so results are identical
/// regardless of thread count (counter-based seeding, not `jump()`, so chunk
/// boundaries can move without changing the stream for a given index).
pub(crate) fn stream_rng(seed: u64, stream: u64) -> Xoshiro256PlusPlus {
    // SplitMix64 over (seed, stream) gives well-separated 256-bit states.
    let mut state = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut key = [0u8; 32];
    for chunk in key.chunks_exact_mut(8) {
        chunk.copy_from_slice(&next().to_le_bytes());
    }
    Xoshiro256PlusPlus::from_seed(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn stream_rng_is_deterministic() {
        let mut a = stream_rng(42, 7);
        let mut b = stream_rng(42, 7);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn stream_rng_streams_differ() {
        let mut a = stream_rng(42, 7);
        let mut b = stream_rng(42, 8);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn stream_rng_seeds_differ() {
        let mut a = stream_rng(1, 0);
        let mut b = stream_rng(2, 0);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
