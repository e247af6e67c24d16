//! The kernels this process runs, picked once from the CPU's features.
//!
//! The crate is safe Rust but for two modules of `#[target_feature]` code
//! over `std::arch`: `sha256::sha_ext` (the SHA-256 compression on the
//! SHA extensions, and [`LANES`] one-block compressions word-sliced on
//! AVX-512) and `curve::ifma` (the batch-affine reducer's rounds eight
//! pairs at a time on AVX-512 IFMA). Both exist only where `vector!`
//! builds them — x86-64, unless the `portable` feature compiles them
//! out — and both are reached only through the record `kernels()`
//! returns, which one probe fills after it has found their features.
//! Every other build and CPU runs the portable paths, which stay live as
//! the kernels' oracles. Every path gives the same bytes, so every
//! digest, board and election is the same on any.

use crate::curve::HalveRound;
use crate::sha256::LANES;

/// Compiles its items only where the vector kernels are built: on
/// x86-64, unless the `portable` feature is on (the build every other
/// target gets). With `else`, only where they are not. The crate's one
/// architecture gate.
macro_rules! vector {
    (else $($item:item)*) => {$(
        #[cfg(not(all(target_arch = "x86_64", not(feature = "portable"))))]
        $item
    )*};
    ($($item:item)*) => {$(
        #[cfg(all(target_arch = "x86_64", not(feature = "portable")))]
        $item
    )*};
}
pub(crate) use vector;

/// The dispatched kernels: the batch-affine reducer's field arithmetic
/// and the SHA-256 compression's two shapes.
pub(crate) struct Kernels {
    /// [`backend`].
    name: &'static str,
    /// The batch-affine reducer's pair additions.
    pub(crate) halve_round: HalveRound,
    /// Field multiplications one of its pair additions costs, its share
    /// of the round's inversion included: 2M + 1S + 3M on
    /// [`Fp`](crate::field::Fp); eight
    /// lanes at a time about a quarter of that, where 2 is the price
    /// under which the MSM's window is within 3 % of the fastest at every
    /// size measured (DESIGN.md §12.1).
    pub(crate) cost_affine: usize,
    /// A run of whole blocks into one chaining value.
    pub(crate) compress: fn(&mut [u32; 8], &[[u8; 64]]),
    /// One block into each of [`LANES`] chaining values.
    pub(crate) compress_lanes: fn(&mut [[u32; 8]; LANES], &[[u8; 64]; LANES]),
    /// Whether `compress_lanes` is one vector pass rather than the lanes
    /// one by one.
    pub(crate) vector_lanes: bool,
}

/// The portable kernels: every build's and every CPU's fallback, and the
/// vector kernels' oracles.
const PORTABLE: Kernels = Kernels {
    name: "portable",
    halve_round: crate::curve::add_pairs,
    cost_affine: 6,
    compress: crate::sha256::compress_portable,
    compress_lanes: crate::sha256::compress_lanes_each,
    vector_lanes: false,
};

/// The kernels this process runs, probed on its first call.
pub(crate) fn kernels() -> &'static Kernels {
    static KERNELS: std::sync::OnceLock<Kernels> = std::sync::OnceLock::new();
    KERNELS.get_or_init(probe)
}

/// The vector kernels this process runs, `+`-separated — `sha-ni` (the
/// compression on the SHA extensions), `avx512bw` (the lanes on AVX-512),
/// `avx512ifma` (the reducer on AVX-512 IFMA) — or `portable` where it
/// runs none. Every result is the same on each; timings taken on one
/// are not comparable with another's, so bench rows carry it as a tag.
pub fn backend() -> &'static str {
    kernels().name
}

/// Whether `kernel` (one of [`backend`]'s names) is among the kernels
/// this process runs.
pub fn runs(kernel: &str) -> bool {
    backend().split('+').any(|k| k == kernel)
}

vector! {
    /// The one feature probe: each vector kernel replaces its portable
    /// path where the CPU has every feature it is built with.
    fn probe() -> Kernels {
        use crate::{curve::ifma, sha256::sha_ext};
        let mut kernels = PORTABLE;
        let mut names = Vec::new();
        if is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: the probe found `sha`, `ssse3` and `sse4.1` on this
            // CPU, and `sse2` is in every x86-64 baseline, so every
            // instruction `compress_blocks` is compiled with exists here.
            // It reads and writes memory only through the references it
            // is given.
            kernels.compress = |state, blocks| unsafe { sha_ext::compress_blocks(state, blocks) };
            names.push("sha-ni");
        }
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw") {
            // SAFETY: the probe found `avx512f` and `avx512bw` on this
            // CPU. `lanes_block` reads and writes memory only inside
            // `states` and `blocks`: every gather and scatter offset is a
            // word of lane `l < 16` at word `j < 8` of its state or
            // `i < 16` of its block.
            kernels.compress_lanes =
                |states, blocks| unsafe { sha_ext::lanes_block(states, blocks) };
            kernels.vector_lanes = true;
            names.push("avx512bw");
        }
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma") {
            // SAFETY: the probe found `avx512f` and `avx512ifma` on this
            // CPU, so every instruction `halve_round` is compiled with
            // exists here. It touches memory only inside the slices it is
            // given.
            kernels.halve_round = |points, starts, lens, denominators, suffix| unsafe {
                ifma::halve_round(points, starts, lens, denominators, suffix)
            };
            kernels.cost_affine = 2;
            names.push("avx512ifma");
        }
        if !names.is_empty() {
            kernels.name = names.join("+").leak();
        }
        kernels
    }
}

vector! {
    else
    fn probe() -> Kernels {
        PORTABLE
    }
}
