//! Seeded random inputs for the crate's differential tests.

use gf2::BitMat;

/// One SplitMix64 step.
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded `k × outputs` parity system with every bit set at even odds
/// and at least two terms per output, so every output starts dense.
pub(crate) fn random_parity_system(seed: u64, k: usize, outputs: usize) -> BitMat {
    let mut state = seed;
    let mut g = BitMat::zeros(k, outputs);
    for j in 0..outputs {
        while (0..k).filter(|&i| g.get(i, j)).count() < 2 {
            for i in 0..k {
                g.set(i, j, splitmix(&mut state) & 1 == 1);
            }
        }
    }
    g
}
