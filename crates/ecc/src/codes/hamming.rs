//! Hamming codes: the (7,4) code, the extended (8,4) code exactly as given in
//! Eq. (1) of the paper, the general (2^r − 1, 2^r − 1 − r) family, and the
//! shortened (38,32) code used by the prior-art SFQ encoder of Peng et al.
//! (reference \[14\] of the paper).

use crate::decoder::{Decoded, SyndromeClass};
use crate::{validate_code_matrices, BlockCode, HardDecoder};
use gf2::{BitMat, BitVec};
use std::collections::HashMap;

/// The generator matrix of the extended Hamming(8,4) code, exactly Eq. (1) of
/// the paper (rows are messages bits m1..m4, columns are codeword bits c1..c8).
pub const G_HAMMING84_ROWS: [&str; 4] = ["11100001", "10011001", "01010101", "11010010"];

/// Returns the paper's Hamming(8,4) generator matrix as a [`BitMat`].
#[must_use]
pub fn hamming84_generator() -> BitMat {
    BitMat::from_str_rows(&G_HAMMING84_ROWS)
}

/// Returns the paper's Hamming(7,4) generator matrix: the Hamming(8,4) matrix
/// of Eq. (1) with the final (overall-parity) column `c8` removed.
#[must_use]
pub fn hamming74_generator() -> BitMat {
    let g84 = hamming84_generator();
    g84.select_cols(&[0, 1, 2, 3, 4, 5, 6])
}

fn parity_check_from_generator(g: &BitMat) -> BitMat {
    g.null_space()
}

/// The Hamming(7,4) single-error-correcting code, `d_min = 3`.
///
/// The encoder uses the boolean equations of Eq. (3) in the paper without the
/// overall parity bit `c8`:
/// `c1 = m1⊕m2⊕m4`, `c2 = m1⊕m3⊕m4`, `c3 = m1`, `c4 = m2⊕m3⊕m4`,
/// `c5 = m2`, `c6 = m3`, `c7 = m4`.
#[derive(Debug, Clone)]
pub struct Hamming74 {
    g: BitMat,
    h: BitMat,
    /// Syndrome (as integer) → error position, for single-error correction.
    syndrome_table: Vec<Option<usize>>,
}

impl Hamming74 {
    /// Constructs the code and its syndrome-decoding table.
    #[must_use]
    pub fn new() -> Self {
        let g = hamming74_generator();
        let h = parity_check_from_generator(&g);
        validate_code_matrices(&g, &h);
        let mut syndrome_table = vec![None; 1 << h.rows()];
        for pos in 0..7 {
            let mut e = BitVec::zeros(7);
            e.set(pos, true);
            let s = h.mul_vec(&e).to_u64() as usize;
            debug_assert!(syndrome_table[s].is_none(), "duplicate syndrome");
            syndrome_table[s] = Some(pos);
        }
        Hamming74 {
            g,
            h,
            syndrome_table,
        }
    }

    /// Extracts the message from a codeword using the systematic positions
    /// `c3, c5, c6, c7` (0-indexed columns 2, 4, 5, 6).
    #[must_use]
    pub fn extract_message(codeword: &BitVec) -> BitVec {
        BitVec::from_bits(&[
            codeword.get(2),
            codeword.get(4),
            codeword.get(5),
            codeword.get(6),
        ])
    }
}

impl Default for Hamming74 {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockCode for Hamming74 {
    fn name(&self) -> &str {
        "Hamming(7,4)"
    }
    fn n(&self) -> usize {
        7
    }
    fn k(&self) -> usize {
        4
    }
    fn generator(&self) -> &BitMat {
        &self.g
    }
    fn parity_check(&self) -> &BitMat {
        &self.h
    }
    fn message_of(&self, codeword: &BitVec) -> Option<BitVec> {
        if self.is_codeword(codeword) {
            Some(Self::extract_message(codeword))
        } else {
            None
        }
    }
}

impl HardDecoder for Hamming74 {
    /// Classic syndrome decoding: every nonzero syndrome is interpreted as a
    /// single-bit error and corrected. This is the "worst case" policy of
    /// Table I — 2- and 3-bit errors are miscorrected or pass undetected.
    fn decode(&self, received: &BitVec) -> Decoded {
        assert_eq!(received.len(), 7, "received word must be 7 bits");
        let syndrome = self.syndrome(received).to_u64() as usize;
        if syndrome == 0 {
            let msg = Self::extract_message(received);
            return Decoded::clean(received.clone(), msg);
        }
        match self.syndrome_table[syndrome] {
            Some(pos) => {
                let mut corrected = received.clone();
                corrected.flip(pos);
                let msg = Self::extract_message(&corrected);
                Decoded::corrected(corrected, msg, 1)
            }
            // For the perfect (7,4) code every syndrome maps to a position, so
            // this branch is unreachable; kept for robustness.
            None => Decoded::detected(),
        }
    }

    fn syndrome_class(&self) -> SyndromeClass {
        SyndromeClass::ColumnFlip
    }
}

/// The extended Hamming(8,4) code of Eq. (1), `d_min = 4` — the paper's
/// best-performing encoder under process parameter variations.
#[derive(Debug, Clone)]
pub struct Hamming84 {
    g: BitMat,
    h: BitMat,
    inner: Hamming74,
}

impl Hamming84 {
    /// Constructs the code from the paper's generator matrix.
    #[must_use]
    pub fn new() -> Self {
        let g = hamming84_generator();
        let h = parity_check_from_generator(&g);
        validate_code_matrices(&g, &h);
        Hamming84 {
            g,
            h,
            inner: Hamming74::new(),
        }
    }

    /// Extracts the message from a codeword using the systematic positions
    /// `c3, c5, c6, c7` (0-indexed columns 2, 4, 5, 6).
    #[must_use]
    pub fn extract_message(codeword: &BitVec) -> BitVec {
        BitVec::from_bits(&[
            codeword.get(2),
            codeword.get(4),
            codeword.get(5),
            codeword.get(6),
        ])
    }

    /// Overall parity of the 8-bit word (true = odd number of ones).
    #[must_use]
    pub fn overall_parity(word: &BitVec) -> bool {
        word.weight() % 2 == 1
    }
}

impl Default for Hamming84 {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockCode for Hamming84 {
    fn name(&self) -> &str {
        "Hamming(8,4)"
    }
    fn n(&self) -> usize {
        8
    }
    fn k(&self) -> usize {
        4
    }
    fn generator(&self) -> &BitMat {
        &self.g
    }
    fn parity_check(&self) -> &BitMat {
        &self.h
    }
    fn message_of(&self, codeword: &BitVec) -> Option<BitVec> {
        if self.is_codeword(codeword) {
            Some(Self::extract_message(codeword))
        } else {
            None
        }
    }
}

impl HardDecoder for Hamming84 {
    /// Standard extended-Hamming decoding:
    ///
    /// * zero syndrome on the (7,4) part and even overall parity → accept;
    /// * odd overall parity → assume a single error, correct it via the (7,4)
    ///   syndrome (or flip the parity bit itself);
    /// * even overall parity with nonzero (7,4) syndrome → a double error:
    ///   detected but not correctable (raises the error flag of Fig. 1).
    fn decode(&self, received: &BitVec) -> Decoded {
        assert_eq!(received.len(), 8, "received word must be 8 bits");
        let inner_word = received.slice(0..7);
        let inner_syndrome = self.inner.syndrome(&inner_word).to_u64() as usize;
        let parity_odd = Self::overall_parity(received);

        if inner_syndrome == 0 && !parity_odd {
            let msg = Self::extract_message(received);
            return Decoded::clean(received.clone(), msg);
        }
        if parity_odd {
            // Odd number of errors assumed to be exactly one.
            let mut corrected = received.clone();
            if inner_syndrome == 0 {
                // The error is in the overall parity bit c8 itself.
                corrected.flip(7);
            } else if let Some(pos) = self.inner.syndrome_table[inner_syndrome] {
                corrected.flip(pos);
            } else {
                return Decoded::detected();
            }
            let msg = Self::extract_message(&corrected);
            return Decoded::corrected(corrected, msg, 1);
        }
        // Even parity, nonzero syndrome: an even (≥2) number of errors.
        Decoded::detected()
    }

    /// Extended-Hamming decoding is exactly column matching against `H`:
    /// single errors reproduce their column, doubles land on even-overall
    /// syndromes that match no column and are detected.
    fn syndrome_class(&self) -> SyndromeClass {
        SyndromeClass::ColumnFlip
    }
}

/// A general binary Hamming code of redundancy `r`: parameters
/// `(2^r − 1, 2^r − 1 − r, 3)`.
///
/// The parity-check matrix has as columns the binary representations of
/// 1..2^r − 1, giving the textbook construction; the generator matrix is
/// derived from its null space. Used by the scaling study in the ablation
/// benches and to validate the (7,4) member against the paper's matrix.
#[derive(Debug, Clone)]
pub struct HammingCode {
    r: usize,
    g: BitMat,
    h: BitMat,
    name: String,
    /// Cached `(pivots, transform)` of [`crate::generator_right_inverse`]:
    /// the decoder calls `message_of` per received word, so the Gaussian
    /// elimination is done once at construction.
    extractor: (Vec<usize>, BitMat),
}

impl HammingCode {
    /// Constructs the Hamming code with `r` parity bits (`r ≥ 2`).
    ///
    /// # Panics
    /// Panics if `r < 2` or `r > 10`.
    #[must_use]
    pub fn new(r: usize) -> Self {
        assert!(
            (2..=10).contains(&r),
            "Hamming code redundancy must be in 2..=10"
        );
        let n = (1usize << r) - 1;
        // H columns are the numbers 1..=n in binary.
        let mut h = BitMat::zeros(r, n);
        for col in 0..n {
            let value = col + 1;
            for row in 0..r {
                if (value >> row) & 1 == 1 {
                    h.set(row, col, true);
                }
            }
        }
        let g = h.null_space();
        validate_code_matrices(&g, &h);
        let k = n - r;
        let extractor = crate::generator_right_inverse(&g);
        HammingCode {
            r,
            g,
            h,
            name: format!("Hamming({n},{k})"),
            extractor,
        }
    }

    /// Number of parity bits.
    #[must_use]
    pub fn redundancy(&self) -> usize {
        self.r
    }
}

impl BlockCode for HammingCode {
    fn name(&self) -> &str {
        &self.name
    }
    fn n(&self) -> usize {
        (1 << self.r) - 1
    }
    fn k(&self) -> usize {
        self.n() - self.r
    }
    fn generator(&self) -> &BitMat {
        &self.g
    }
    fn parity_check(&self) -> &BitMat {
        &self.h
    }
    fn message_of(&self, codeword: &BitVec) -> Option<BitVec> {
        if !self.is_codeword(codeword) {
            return None;
        }
        let (pivots, transform) = &self.extractor;
        let mut message = BitVec::zeros(self.k());
        for (i, &p) in pivots.iter().enumerate() {
            if codeword.get(p) {
                message.xor_assign(transform.row(i));
            }
        }
        Some(message)
    }
}

impl HardDecoder for HammingCode {
    fn decode(&self, received: &BitVec) -> Decoded {
        assert_eq!(received.len(), self.n(), "received word length mismatch");
        let syndrome = self.syndrome(received).to_u64() as usize;
        if syndrome == 0 {
            let msg = self
                .message_of(received)
                .expect("zero syndrome implies codeword");
            return Decoded::clean(received.clone(), msg);
        }
        // For the textbook construction the syndrome value is the 1-based
        // index of the erroneous position.
        let pos = syndrome - 1;
        let mut corrected = received.clone();
        corrected.flip(pos);
        match self.message_of(&corrected) {
            Some(msg) => Decoded::corrected(corrected, msg, 1),
            None => Decoded::detected(),
        }
    }

    fn syndrome_class(&self) -> SyndromeClass {
        SyndromeClass::ColumnFlip
    }
}

/// The (38,32) linear block code of the prior-art SFQ error-correction encoder
/// (Peng et al., reference \[14\] of the paper): a Hamming(63,57) code shortened
/// to a 32-bit message with six parity bits, detecting 2-bit and correcting
/// 1-bit errors.
#[derive(Debug, Clone)]
pub struct ShortenedHamming3832 {
    g: BitMat,
    h: BitMat,
}

impl ShortenedHamming3832 {
    /// Constructs the shortened code by expurgating message positions of the
    /// Hamming(63,57) parent until 32 information bits remain.
    #[must_use]
    pub fn new() -> Self {
        let parent = HammingCode::new(6);
        // Systematic form of the parent: [I_57 | P]; shortening keeps the
        // first 32 information positions and all 6 parity positions.
        let (sys, _) = parent.generator().to_systematic();
        let keep_rows: Vec<usize> = (0..32).collect();
        let keep_cols: Vec<usize> = (0..32).chain(57..63).collect();
        let rows: Vec<BitVec> = keep_rows
            .iter()
            .map(|&r| keep_cols.iter().map(|&c| sys.get(r, c)).collect::<BitVec>())
            .collect();
        let g = BitMat::from_rows(rows);
        let h = g.null_space();
        validate_code_matrices(&g, &h);
        ShortenedHamming3832 { g, h }
    }
}

impl Default for ShortenedHamming3832 {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockCode for ShortenedHamming3832 {
    fn name(&self) -> &str {
        "Shortened Hamming(38,32)"
    }
    fn n(&self) -> usize {
        38
    }
    fn k(&self) -> usize {
        32
    }
    fn generator(&self) -> &BitMat {
        &self.g
    }
    fn parity_check(&self) -> &BitMat {
        &self.h
    }
    fn min_distance(&self) -> usize {
        // 2^32 codewords are too many to enumerate; the shortened Hamming code
        // inherits d_min = 3 from its parent. Verified structurally in tests
        // by exhibiting a weight-3 codeword and checking no weight-1/2 ones.
        3
    }
    fn message_of(&self, codeword: &BitVec) -> Option<BitVec> {
        if self.is_codeword(codeword) {
            // Systematic: the first 32 positions are the message.
            Some(codeword.slice(0..32))
        } else {
            None
        }
    }
}

impl HardDecoder for ShortenedHamming3832 {
    fn decode(&self, received: &BitVec) -> Decoded {
        assert_eq!(received.len(), 38, "received word must be 38 bits");
        let syndrome = self.syndrome(received);
        if syndrome.is_zero() {
            let msg = received.slice(0..32);
            return Decoded::clean(received.clone(), msg);
        }
        // Single-error correction: find the column of H equal to the syndrome.
        for pos in 0..38 {
            if self.h.col(pos) == syndrome {
                let mut corrected = received.clone();
                corrected.flip(pos);
                let msg = corrected.slice(0..32);
                return Decoded::corrected(corrected, msg, 1);
            }
        }
        Decoded::detected()
    }

    fn syndrome_class(&self) -> SyndromeClass {
        SyndromeClass::ColumnFlip
    }
}

/// A parameterized shortened Hamming code with (optionally) replicated
/// parity: `k` data bits protected by `r = base_r × copies` check bits
/// (`n = k + r`, `d_min = 3`), single-error-correcting with detection of any
/// other nonzero syndrome.
///
/// The construction generalizes [`ShortenedHamming3832`]: data position `i`
/// is assigned the `i`-th non-power-of-two column code `c_i ∈ {3, 5, 6, 7,
/// 9, …}` of the base Hamming code with `base_r` parity bits, replicated
/// `copies` times across independent `base_r`-bit parity fields
/// (`v_i = c_i | c_i << base_r | …`), and the layout is systematic:
///
/// ```text
/// [ d_0 … d_{k-1} | p_0 … p_{r-1} ]      p_t = ⊕ { d_i : bit t of v_i is 1 }
/// ```
///
/// All columns of `H` are distinct and nonzero (replicated data codes have
/// weight ≥ 2·copies, parity columns are unit vectors), so `d_min = 3`
/// regardless of the replication factor. The redundancy is therefore a free
/// parameter, deliberately *not* tied to the information-theoretic minimum:
/// [`ShortenedHamming::wide_85_64`] spends `r = 3 × 7 = 21` check bits on a
/// 64-bit word — far beyond the 8 a (72,64) SEC-DED code needs — which makes
/// it the workspace's demonstration that the batch engine handles
/// redundancies `n − k > 20`, where a `2^(n-k)`-entry syndrome table could
/// never be built. Its decoder is pure column matching
/// ([`SyndromeClass::ColumnFlip`]): a `HashMap` from column value to
/// position replaces any table indexed by syndrome value.
#[derive(Debug, Clone)]
pub struct ShortenedHamming {
    k: usize,
    r: usize,
    g: BitMat,
    h: BitMat,
    name: String,
    /// Column value (syndrome as integer) → codeword position.
    column_of: HashMap<u64, usize>,
}

impl ShortenedHamming {
    /// Constructs the shortened Hamming code with `k` data bits and
    /// `base_r × copies` check bits.
    ///
    /// # Panics
    /// Panics if the parameters are out of range (`base_r < 2`, `copies <
    /// 1`, `base_r × copies > 63`, `k = 0`), the base code is too short
    /// (`k > 2^base_r − base_r − 1`), or `k` is too small to give every base
    /// check bit a data source (which would leave constant-zero parity bits
    /// — not an error-correction code worth building circuits for).
    #[must_use]
    pub fn new(k: usize, base_r: usize, copies: usize) -> Self {
        assert!(base_r >= 2, "base check-bit count must be at least 2");
        assert!(copies >= 1, "at least one parity copy");
        let r = base_r * copies;
        assert!(r <= 63, "total check-bit count must be at most 63");
        assert!(k >= 1, "at least one data bit");
        let n = k + r;

        // Base column codes of the data positions: the first k
        // non-power-of-two values (the parity positions take the powers of
        // two).
        let base_codes: Vec<u64> = (3..(1u64 << base_r))
            .filter(|v| !v.is_power_of_two())
            .take(k)
            .collect();
        assert_eq!(
            base_codes.len(),
            k,
            "base Hamming({}, {}) too short for k={k}",
            (1u64 << base_r) - 1,
            (1u64 << base_r) - 1 - base_r as u64,
        );
        for t in 0..base_r {
            assert!(
                base_codes.iter().any(|c| (c >> t) & 1 == 1),
                "column codes leave base check bit {t} unused (k={k} too small \
                 for base_r={base_r})"
            );
        }
        // Replicate each base code across the `copies` parity fields.
        let codes: Vec<u64> = base_codes
            .iter()
            .map(|&c| (0..copies).fold(0u64, |v, j| v | (c << (j * base_r))))
            .collect();

        // Systematic generator [ I_k | P ] and parity check [ Pᵀ | I_r ].
        let mut g = BitMat::zeros(k, n);
        let mut h = BitMat::zeros(r, n);
        for (i, &v) in codes.iter().enumerate() {
            g.set(i, i, true);
            for t in 0..r {
                if (v >> t) & 1 == 1 {
                    g.set(i, k + t, true);
                    h.set(t, i, true);
                }
            }
        }
        for t in 0..r {
            h.set(t, k + t, true);
        }
        validate_code_matrices(&g, &h);

        let column_of = (0..n)
            .map(|pos| {
                let value = if pos < k {
                    codes[pos]
                } else {
                    1u64 << (pos - k)
                };
                (value, pos)
            })
            .collect();

        ShortenedHamming {
            k,
            r,
            g,
            h,
            name: format!("Shortened Hamming({n},{k})"),
            column_of,
        }
    }

    /// The wide demonstration member: 64 data bits, 3 × 7 = 21 check bits —
    /// the first catalog code whose redundancy exceeds the old batch-engine
    /// action-table limit of 20.
    #[must_use]
    pub fn wide_85_64() -> Self {
        Self::new(64, 7, 3)
    }

    /// Number of check bits `r = n − k`.
    #[must_use]
    pub fn check_bits(&self) -> usize {
        self.r
    }

    /// Extracts the message from a codeword: the code is systematic, so the
    /// message is the first `k` positions.
    #[must_use]
    pub fn extract_message(&self, codeword: &BitVec) -> BitVec {
        codeword.slice(0..self.k)
    }
}

impl BlockCode for ShortenedHamming {
    fn name(&self) -> &str {
        &self.name
    }
    fn n(&self) -> usize {
        self.k + self.r
    }
    fn k(&self) -> usize {
        self.k
    }
    fn generator(&self) -> &BitMat {
        &self.g
    }
    fn parity_check(&self) -> &BitMat {
        &self.h
    }
    fn min_distance(&self) -> usize {
        // Structural lower bound: all columns of H are nonzero and pairwise
        // distinct (distinct integers by construction), so no codeword of
        // weight ≤ 2 exists. For k ≥ 3 the bound is met: data codes 3 and 5
        // XOR to 6, the column code of the third data position, giving a
        // weight-3 codeword. With fewer data bits no such triple exists and
        // replicated parity pushes the distance higher; those codebooks
        // have at most 3 nonzero words, so enumerate them. Verified in
        // tests.
        if self.k >= 3 {
            3
        } else {
            (1u64..(1 << self.k))
                .map(|m| self.encode(&BitVec::from_u64(self.k, m)).weight())
                .min()
                .expect("at least one nonzero codeword")
        }
    }
    fn message_of(&self, codeword: &BitVec) -> Option<BitVec> {
        if self.is_codeword(codeword) {
            Some(self.extract_message(codeword))
        } else {
            None
        }
    }
}

impl HardDecoder for ShortenedHamming {
    /// Column-matching syndrome decoding: zero syndrome → accept; syndrome
    /// equal to a column of `H` → flip that position; anything else →
    /// detected but uncorrectable.
    fn decode(&self, received: &BitVec) -> Decoded {
        assert_eq!(received.len(), self.n(), "received word length mismatch");
        let syndrome = self.syndrome(received).to_u64();
        if syndrome == 0 {
            let msg = self.extract_message(received);
            return Decoded::clean(received.clone(), msg);
        }
        match self.column_of.get(&syndrome) {
            Some(&pos) => {
                let mut corrected = received.clone();
                corrected.flip(pos);
                let msg = self.extract_message(&corrected);
                Decoded::corrected(corrected, msg, 1)
            }
            None => Decoded::detected(),
        }
    }

    fn syndrome_class(&self) -> SyndromeClass {
        SyndromeClass::ColumnFlip
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2::WeightPatterns;

    #[test]
    fn hamming84_matches_paper_equations() {
        let code = Hamming84::new();
        for m in 0u64..16 {
            let msg = BitVec::from_u64(4, m);
            let cw = code.encode(&msg);
            let (m1, m2, m3, m4) = (msg.get(0), msg.get(1), msg.get(2), msg.get(3));
            // Eq. (3) of the paper.
            assert_eq!(cw.get(0), m1 ^ m2 ^ m4, "c1 mismatch for m={m:04b}");
            assert_eq!(cw.get(1), m1 ^ m3 ^ m4, "c2 mismatch");
            assert_eq!(cw.get(2), m1, "c3 mismatch");
            assert_eq!(cw.get(3), m2 ^ m3 ^ m4, "c4 mismatch");
            assert_eq!(cw.get(4), m2, "c5 mismatch");
            assert_eq!(cw.get(5), m3, "c6 mismatch");
            assert_eq!(cw.get(6), m4, "c7 mismatch");
            assert_eq!(cw.get(7), m1 ^ m2 ^ m3, "c8 mismatch");
        }
    }

    #[test]
    fn fig3_stimulus_message_1011_gives_01100110() {
        let code = Hamming84::new();
        let cw = code.encode(&BitVec::from_str01("1011"));
        assert_eq!(cw.to_string01(), "01100110");
    }

    #[test]
    fn hamming74_is_hamming84_without_c8() {
        let h74 = Hamming74::new();
        let h84 = Hamming84::new();
        for m in 0u64..16 {
            let msg = BitVec::from_u64(4, m);
            let c74 = h74.encode(&msg);
            let c84 = h84.encode(&msg);
            assert_eq!(c74, c84.slice(0..7));
        }
    }

    #[test]
    fn minimum_distances() {
        assert_eq!(Hamming74::new().min_distance(), 3);
        assert_eq!(Hamming84::new().min_distance(), 4);
    }

    #[test]
    fn hamming74_corrects_every_single_error() {
        let code = Hamming74::new();
        for m in 0u64..16 {
            let msg = BitVec::from_u64(4, m);
            let cw = code.encode(&msg);
            for pos in 0..7 {
                let mut r = cw.clone();
                r.flip(pos);
                let d = code.decode(&r);
                assert!(d.message_is(&msg), "failed at msg {m:04b} pos {pos}");
                assert!(d.outcome.corrected());
            }
        }
    }

    #[test]
    fn hamming84_corrects_every_single_error() {
        let code = Hamming84::new();
        for m in 0u64..16 {
            let msg = BitVec::from_u64(4, m);
            let cw = code.encode(&msg);
            for pos in 0..8 {
                let mut r = cw.clone();
                r.flip(pos);
                let d = code.decode(&r);
                assert!(d.message_is(&msg), "failed at msg {m:04b} pos {pos}");
            }
        }
    }

    #[test]
    fn hamming84_detects_every_double_error() {
        let code = Hamming84::new();
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
                assert_eq!(
                    d.outcome,
                    crate::DecodeOutcome::DetectedUncorrectable,
                    "double error not detected for msg {m:04b} pattern {pattern:08b}"
                );
            }
        }
    }

    #[test]
    fn hamming74_miscorrects_some_double_errors() {
        // The perfect (7,4) code cannot distinguish double errors from single
        // errors; verify the decoder indeed miscorrects at least one pattern
        // (the "worst case" column of Table I).
        let code = Hamming74::new();
        let msg = BitVec::from_str01("1011");
        let cw = code.encode(&msg);
        let mut r = cw.clone();
        r.flip(0);
        r.flip(1);
        let d = code.decode(&r);
        assert!(d.message.is_some());
        assert!(!d.message_is(&msg), "expected a miscorrection");
    }

    #[test]
    fn hamming84_weight_distribution_is_self_dual() {
        // Extended Hamming(8,4): 1 word of weight 0, 14 of weight 4, 1 of weight 8.
        let code = Hamming84::new();
        let mut hist = [0usize; 9];
        for (_, cw) in code.codebook() {
            hist[cw.weight()] += 1;
        }
        assert_eq!(hist[0], 1);
        assert_eq!(hist[4], 14);
        assert_eq!(hist[8], 1);
        assert_eq!(hist.iter().sum::<usize>(), 16);
    }

    #[test]
    fn hamming74_weight_distribution() {
        // (7,4): weights 0,3,4,7 with multiplicities 1,7,7,1.
        let code = Hamming74::new();
        let mut hist = [0usize; 8];
        for (_, cw) in code.codebook() {
            hist[cw.weight()] += 1;
        }
        assert_eq!(hist, [1, 0, 0, 7, 7, 0, 0, 1]);
    }

    #[test]
    fn general_hamming_family_parameters() {
        for r in 2..=5 {
            let code = HammingCode::new(r);
            assert_eq!(code.n(), (1 << r) - 1);
            assert_eq!(code.k(), code.n() - r);
            if code.k() <= 12 {
                assert_eq!(code.min_distance(), 3, "r={r}");
            }
            assert_eq!(code.redundancy(), r);
        }
    }

    #[test]
    fn general_hamming_corrects_single_errors() {
        let code = HammingCode::new(4); // (15,11)
        let msg = BitVec::from_u64(11, 0b101_0110_1001);
        let cw = code.encode(&msg);
        for pos in 0..15 {
            let mut r = cw.clone();
            r.flip(pos);
            let d = code.decode(&r);
            assert!(d.message_is(&msg), "failed at pos {pos}");
        }
    }

    #[test]
    fn shortened_3832_parameters_match_reference_14() {
        let code = ShortenedHamming3832::new();
        assert_eq!(code.n(), 38);
        assert_eq!(code.k(), 32);
        assert_eq!(code.generator().rows(), 32);
        assert_eq!(code.generator().cols(), 38);
        assert_eq!(code.parity_check().rows(), 6);
    }

    #[test]
    fn shortened_3832_corrects_single_errors() {
        let code = ShortenedHamming3832::new();
        let msg = BitVec::from_u64(32, 0xDEAD_BEEF);
        let cw = code.encode(&msg);
        assert_eq!(cw.slice(0..32), msg, "code must be systematic");
        for pos in [0, 7, 15, 31, 32, 37] {
            let mut r = cw.clone();
            r.flip(pos);
            let d = code.decode(&r);
            assert!(d.message_is(&msg), "failed at pos {pos}");
        }
    }

    #[test]
    fn shortened_family_parameters_and_roundtrip() {
        for (k, base_r, copies) in [(4usize, 3usize, 1usize), (8, 4, 1), (32, 6, 2), (64, 7, 3)] {
            let r = base_r * copies;
            let code = ShortenedHamming::new(k, base_r, copies);
            assert_eq!((code.n(), code.k()), (k + r, k));
            assert_eq!(code.check_bits(), r);
            assert_eq!(code.name(), format!("Shortened Hamming({},{k})", k + r));
            assert_eq!(code.syndrome_class(), SyndromeClass::ColumnFlip);
            let msg: BitVec = (0..k).map(|i| i % 3 == 0).collect();
            let cw = code.encode(&msg);
            assert_eq!(cw.slice(0..k), msg, "systematic");
            assert_eq!(code.message_of(&cw), Some(msg));
        }
    }

    #[test]
    fn wide_85_64_corrects_singles_and_flags_non_column_syndromes() {
        let code = ShortenedHamming::wide_85_64();
        assert_eq!((code.n(), code.k(), code.check_bits()), (85, 64, 21));
        let msg = BitVec::from_u64(64, 0xDEAD_BEEF_0123_4567);
        let cw = code.encode(&msg);
        for pos in [0usize, 17, 63, 64, 84] {
            let mut r = cw.clone();
            r.flip(pos);
            let d = code.decode(&r);
            assert!(d.message_is(&msg), "pos {pos}");
            assert_eq!(d.codeword, Some(cw.clone()));
        }
        // Two flipped parity bits XOR to a two-bit syndrome confined to one
        // parity field; every data column repeats its base code across all
        // three fields, so the syndrome matches no column of H — detected.
        let mut r = cw.clone();
        r.flip(64 + 20);
        r.flip(64 + 19);
        assert_eq!(
            code.decode(&r).outcome,
            crate::DecodeOutcome::DetectedUncorrectable
        );
    }

    #[test]
    fn wide_85_64_has_distinct_nonzero_columns() {
        let code = ShortenedHamming::wide_85_64();
        let h = code.parity_check();
        let mut cols: Vec<u64> = (0..code.n()).map(|c| h.col(c).to_u64()).collect();
        cols.sort_unstable();
        assert!(cols[0] != 0, "no zero column");
        cols.dedup();
        assert_eq!(cols.len(), 85, "columns pairwise distinct (d_min = 3)");
        assert_eq!(code.min_distance(), 3);
        // The structural weight-3 codeword: data codes 3 ^ 5 = 6.
        let mut msg = BitVec::zeros(64);
        msg.set(0, true);
        msg.set(1, true);
        msg.set(2, true);
        assert_eq!(code.encode(&msg).weight(), 3);
    }

    #[test]
    fn shortened_family_min_distance_is_exact_below_three_data_bits() {
        // k ≥ 3: the structural weight-3 codeword exists regardless of the
        // replication factor.
        assert_eq!(ShortenedHamming::new(3, 3, 2).min_distance(), 3);
        // k = 2, doubled parity: rows have weight 1 + 2·2 = 5 and the pair
        // sums to weight 2 + 2·2 = 6, so d_min is 5, not the generic 3.
        assert_eq!(ShortenedHamming::new(2, 3, 2).min_distance(), 5);
        assert_eq!(ShortenedHamming::new(2, 3, 1).min_distance(), 3);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn shortened_family_rejects_overlong_k() {
        let _ = ShortenedHamming::new(5, 3, 1); // (7,4) base has only 4 data columns
    }

    #[test]
    #[should_panic(expected = "unused")]
    fn shortened_family_rejects_unused_check_bits() {
        // k = 1 uses only column code 3 = 0b011, leaving base check bit 2
        // with no data source — a constant-zero parity bit.
        let _ = ShortenedHamming::new(1, 3, 1);
    }

    #[test]
    fn shortened_3832_has_no_low_weight_codewords() {
        // d_min = 3: no nonzero codeword of weight 1 or 2 exists. Check by
        // confirming no column of H is zero and no two columns are equal.
        let code = ShortenedHamming3832::new();
        let h = code.parity_check();
        let cols: Vec<u64> = (0..38).map(|c| h.col(c).to_u64()).collect();
        for (i, &ci) in cols.iter().enumerate() {
            assert_ne!(ci, 0, "column {i} of H is zero");
            for (j, &cj) in cols.iter().enumerate().skip(i + 1) {
                assert_ne!(ci, cj, "columns {i} and {j} of H coincide");
            }
        }
    }
}
