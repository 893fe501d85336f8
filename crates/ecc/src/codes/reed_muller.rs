//! Reed–Muller codes.
//!
//! The paper uses the first-order RM(1,3) code: length 8, dimension 4,
//! minimum distance 4 — the same parameters as the extended Hamming(8,4)
//! code, but with a recursive (Plotkin) structure and a decoder based on the
//! fast Hadamard transform that can additionally correct certain 2-bit error
//! patterns (the "best case" column of Table I).
//!
//! [`ReedMuller`] implements the general RM(r,m) family through the monomial
//! (Boolean polynomial) construction, for encoding only; [`Rm13`] is the
//! concrete instance used by the paper's encoder, and the only one with a
//! decoder (FHT).

use crate::decoder::Decoded;
use crate::{validate_code_matrices, BlockCode, HardDecoder};
use gf2::{BitMat, BitVec};

/// A binary Reed–Muller code RM(r,m) of length `2^m`.
///
/// The generator matrix rows are the truth tables of all monomials of degree
/// at most `r` in the `m` Boolean variables, ordered by degree and then
/// lexicographically. For `r = 1` the rows are the all-ones vector followed by
/// the coordinate functions `x_1, …, x_m`, which is the layout used by the
/// paper's RM(1,3) encoder circuit (Fig. 4).
#[derive(Debug, Clone)]
pub struct ReedMuller {
    r: usize,
    m: usize,
    g: BitMat,
    h: BitMat,
    name: String,
}

impl ReedMuller {
    /// Constructs RM(r,m).
    ///
    /// # Panics
    /// Panics if `r > m` or `m` is 0 or larger than 16.
    #[must_use]
    pub fn new(r: usize, m: usize) -> Self {
        assert!((1..=16).contains(&m), "m must be in 1..=16");
        assert!(r <= m, "order r must not exceed m");
        let n = 1usize << m;
        let monomials = Self::monomials_up_to_degree(r, m);
        let rows: Vec<BitVec> = monomials
            .iter()
            .map(|vars| {
                (0..n)
                    .map(|point| vars.iter().all(|&v| (point >> v) & 1 == 1))
                    .collect::<BitVec>()
            })
            .collect();
        let g = BitMat::from_rows(rows);
        let h = g.null_space();
        if h.rows() > 0 {
            validate_code_matrices(&g, &h);
        }
        let name = format!("RM({r},{m})");
        ReedMuller { r, m, g, h, name }
    }

    fn monomials_up_to_degree(r: usize, m: usize) -> Vec<Vec<usize>> {
        // All subsets of {0..m-1} of size <= r, ordered by size then lexicographically.
        let mut out: Vec<Vec<usize>> = Vec::new();
        for degree in 0..=r {
            let mut subset: Vec<usize> = (0..degree).collect();
            loop {
                out.push(subset.clone());
                if degree == 0 {
                    break;
                }
                // Next combination of `degree` elements from 0..m.
                let mut i = degree;
                loop {
                    if i == 0 {
                        subset.clear();
                        break;
                    }
                    i -= 1;
                    if subset[i] < m - (degree - i) {
                        subset[i] += 1;
                        for j in i + 1..degree {
                            subset[j] = subset[j - 1] + 1;
                        }
                        break;
                    }
                }
                if subset.is_empty() {
                    break;
                }
            }
        }
        out
    }

    /// The designed minimum distance `2^(m-r)`.
    #[must_use]
    pub fn designed_distance(&self) -> usize {
        1 << (self.m - self.r)
    }
}

impl BlockCode for ReedMuller {
    fn name(&self) -> &str {
        &self.name
    }
    fn n(&self) -> usize {
        1 << self.m
    }
    fn k(&self) -> usize {
        self.g.rows()
    }
    fn generator(&self) -> &BitMat {
        &self.g
    }
    fn parity_check(&self) -> &BitMat {
        &self.h
    }
}

/// Computes the fast (Walsh–)Hadamard transform of `values` in place.
///
/// The length of `values` must be a power of two. This is the "Green machine"
/// decoder kernel for first-order Reed–Muller codes (Be'ery & Snyders,
/// reference \[34\] of the paper).
pub fn fast_hadamard_transform(values: &mut [f64]) {
    let n = values.len();
    assert!(n.is_power_of_two(), "FHT length must be a power of two");
    let mut h = 1;
    while h < n {
        for block in (0..n).step_by(2 * h) {
            for i in block..block + h {
                let a = values[i];
                let b = values[i + h];
                values[i] = a + b;
                values[i + h] = a - b;
            }
        }
        h *= 2;
    }
}

/// The RM(1,3) code used by the paper's third encoder: length 8, dimension 4,
/// minimum distance 4, decoded with the fast Hadamard transform.
#[derive(Debug, Clone)]
pub struct Rm13 {
    inner: ReedMuller,
}

impl Rm13 {
    /// Constructs RM(1,3).
    #[must_use]
    pub fn new() -> Self {
        Rm13 {
            inner: ReedMuller::new(1, 3),
        }
    }

    /// Returns the boolean expression of codeword bit `j` (0-indexed) as the
    /// list of message-bit indices (0-indexed) that are XORed together, i.e.
    /// `c_{j+1} = ⊕_{i ∈ terms} m_{i+1}`. This is the netlist specification
    /// used by the `encoders` crate to build the Fig. 4 circuit.
    #[must_use]
    pub fn output_terms(j: usize) -> Vec<usize> {
        assert!(j < 8, "RM(1,3) has 8 codeword bits");
        let mut terms = vec![0]; // m1 (all-ones row) always participates.
        for var in 0..3 {
            if (j >> var) & 1 == 1 {
                terms.push(1 + var);
            }
        }
        terms
    }

    /// First-order Reed–Muller decoding shared by both hard decoders.
    ///
    /// Returns `(message, codeword, unique)` where `unique` is false when
    /// the Hadamard spectrum of the received word (bit `i` mapped to `±1`)
    /// has a tie for the maximum magnitude (ambiguous decoding). Ties are
    /// always *resolved* toward the lowest spectral index so that callers may
    /// either use the returned estimate (best-effort mode) or report
    /// detection.
    fn fht_decode(&self, received: &BitVec) -> (BitVec, BitVec, bool) {
        assert_eq!(received.len(), self.n(), "received word length mismatch");
        let mut spectrum: Vec<f64> = received
            .iter()
            .map(|bit| if bit { -1.0 } else { 1.0 })
            .collect();
        fast_hadamard_transform(&mut spectrum);
        // Find the index with the largest |spectrum| value and detect ties.
        let mut best_idx = 0usize;
        let mut best_mag = f64::NEG_INFINITY;
        let mut unique = true;
        for (idx, &val) in spectrum.iter().enumerate() {
            let mag = val.abs();
            if mag > best_mag + 1e-9 {
                best_mag = mag;
                best_idx = idx;
                unique = true;
            } else if (mag - best_mag).abs() <= 1e-9 && idx != best_idx {
                unique = false;
            }
        }
        // Message layout: bit 0 is the constant (all-ones row) coefficient,
        // bit 1 + j is the coefficient of variable x_j. The Hadamard index
        // `best_idx` has bit j set exactly when x_j participates in the
        // affine function.
        let mut message = BitVec::zeros(4);
        message.set(0, spectrum[best_idx] < 0.0);
        for j in 0..3 {
            message.set(1 + j, (best_idx >> j) & 1 == 1);
        }
        let codeword = self.encode(&message);
        (message, codeword, unique)
    }

    /// The outcome of settling on `codeword`: clean when it is the received
    /// word, corrected otherwise.
    fn decoded(received: &BitVec, codeword: BitVec, message: BitVec) -> Decoded {
        match codeword.hamming_distance(received) {
            0 => Decoded::clean(codeword, message),
            flips => Decoded::corrected(codeword, message, flips),
        }
    }
}

impl Default for Rm13 {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockCode for Rm13 {
    fn name(&self) -> &str {
        "RM(1,3)"
    }
    fn n(&self) -> usize {
        8
    }
    fn k(&self) -> usize {
        4
    }
    fn generator(&self) -> &BitMat {
        self.inner.generator()
    }
    fn parity_check(&self) -> &BitMat {
        self.inner.parity_check()
    }
}

impl HardDecoder for Rm13 {
    /// FHT (Green machine) decoding.
    ///
    /// A unique spectral maximum yields a maximum-likelihood codeword; a tie
    /// is reported as [`crate::DecodeOutcome::DetectedUncorrectable`], which
    /// is how the decoder detects 2-bit (and most 3-bit) error patterns.
    fn decode(&self, received: &BitVec) -> Decoded {
        let (message, codeword, unique) = self.fht_decode(received);
        if !unique {
            return Decoded::detected();
        }
        Self::decoded(received, codeword, message)
    }

    /// Best-effort FHT decoding: Hadamard-spectrum ties are resolved toward
    /// the lowest index instead of raising the error flag. In this mode the
    /// decoder corrects some 2-bit error patterns, the property Table I of the
    /// paper attributes to RM(1,3).
    fn decode_best_effort(&self, received: &BitVec) -> Decoded {
        let (message, codeword, _unique) = self.fht_decode(received);
        Self::decoded(received, codeword, message)
    }

    /// The tie-*detecting* FHT decoder of the (8,4) instance is column
    /// matching in disguise: the 16 cosets split into the zero coset, the 8
    /// single-error cosets (unique spectral maximum → flip that position),
    /// and 7 weight-2 cosets whose spectra always tie → detected. This does
    /// **not** hold for wider RM(1,m) codes (their ML decoders correct
    /// multi-bit errors), which is why the generic [`ReedMuller`] has no
    /// decoder at all.
    fn syndrome_class(&self) -> crate::SyndromeClass {
        crate::SyndromeClass::ColumnFlip
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2::WeightPatterns;

    #[test]
    fn rm13_parameters() {
        let code = Rm13::new();
        assert_eq!(code.n(), 8);
        assert_eq!(code.k(), 4);
        assert_eq!(code.min_distance(), 4);
    }

    #[test]
    fn rm_family_dimensions() {
        // k(RM(r,m)) = sum_{i<=r} C(m,i).
        let cases = [
            (0, 3, 1),
            (1, 3, 4),
            (2, 3, 7),
            (3, 3, 8),
            (1, 4, 5),
            (2, 4, 11),
            (1, 5, 6),
        ];
        for (r, m, k) in cases {
            let code = ReedMuller::new(r, m);
            assert_eq!(code.k(), k, "RM({r},{m})");
            assert_eq!(code.n(), 1 << m);
        }
    }

    #[test]
    fn rm_min_distance_matches_designed() {
        for (r, m) in [(1, 3), (1, 4), (2, 4), (2, 3)] {
            let code = ReedMuller::new(r, m);
            assert_eq!(code.min_distance(), code.designed_distance(), "RM({r},{m})");
        }
    }

    #[test]
    fn rm13_generator_rows_are_constant_and_coordinates() {
        let code = Rm13::new();
        let g = code.generator();
        assert_eq!(g.row(0).to_string01(), "11111111");
        assert_eq!(g.row(1).to_string01(), "01010101");
        assert_eq!(g.row(2).to_string01(), "00110011");
        assert_eq!(g.row(3).to_string01(), "00001111");
    }

    #[test]
    fn output_terms_match_generator_columns() {
        let code = Rm13::new();
        let g = code.generator();
        for j in 0..8 {
            let terms = Rm13::output_terms(j);
            for i in 0..4 {
                assert_eq!(g.get(i, j), terms.contains(&i), "column {j} bit {i}");
            }
        }
    }

    #[test]
    fn fht_of_constant_sequence() {
        let mut v = vec![1.0; 8];
        fast_hadamard_transform(&mut v);
        assert_eq!(v[0], 8.0);
        assert!(v[1..].iter().all(|&x| x.abs() < 1e-12));
    }

    #[test]
    fn rm13_corrects_every_single_error() {
        let code = Rm13::new();
        for m in 0u64..16 {
            let msg = BitVec::from_u64(4, m);
            let cw = code.encode(&msg);
            for pos in 0..8 {
                let mut r = cw.clone();
                r.flip(pos);
                let d = code.decode(&r);
                assert!(d.message_is(&msg), "msg {m:04b} pos {pos}");
            }
        }
    }

    #[test]
    fn rm13_double_errors_are_detected_or_corrected_never_silently_wrong() {
        // The FHT decoder either corrects a 2-bit pattern (best case of Table I)
        // or reports it as uncorrectable; it never returns the wrong message.
        let code = Rm13::new();
        let mut corrected_any = false;
        for m in 0u64..16 {
            let msg = BitVec::from_u64(4, m);
            let cw = code.encode(&msg);
            for pattern in WeightPatterns::new(8, 2) {
                let mut r = cw.clone();
                for pos in 0..8 {
                    if (pattern >> pos) & 1 == 1 {
                        r.flip(pos);
                    }
                }
                let d = code.decode(&r);
                match d.message {
                    Some(decoded) => {
                        assert_eq!(decoded, msg, "2-bit miscorrection at {pattern:08b}");
                        corrected_any = true;
                    }
                    None => assert!(d.outcome.error_flag()),
                }
            }
        }
        assert!(
            !corrected_any,
            "for RM(1,3) all weight-2 cosets are tied in the Hadamard spectrum"
        );
    }

    #[test]
    fn rm13_and_hamming84_are_distinct_but_equivalent_weight_distributions() {
        use crate::ColumnCode;
        let rm = Rm13::new();
        let h84 = ColumnCode::hamming84();
        let weight_hist = |code: &dyn BlockCode| {
            let mut hist = [0usize; 9];
            for (_, cw) in code.codebook() {
                hist[cw.weight()] += 1;
            }
            hist
        };
        assert_eq!(weight_hist(&rm), weight_hist(&h84));
        // But the generator matrices are not identical (different circuits).
        assert_ne!(rm.generator(), h84.generator());
    }
}
