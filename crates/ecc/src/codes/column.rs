//! [`ColumnCode`]: one type and one decoder for every single-error
//! correcting code in the workspace, and for the uncoded baseline.
//!
//! The paper's Hamming(7,4) and Hamming(8,4) codes (Eq. 1), the general
//! Hamming family, the (38,32) code of the prior-art SFQ encoder (Peng et
//! al., reference \[14\] of the paper), the shortened Hamming family with
//! replicated parity and the SEC-DED family up to (72,64) differ only in
//! their matrices. They all decode by the textbook single-error syndrome
//! rule with detection fallback, which is the correction-oriented ("worst
//! case") policy of Table I:
//!
//! * zero syndrome → accept the word;
//! * syndrome equal to column `j` of `H` → flip position `j`;
//! * any other syndrome → [`DecodeOutcome::DetectedUncorrectable`], the
//!   error flag of Fig. 1.
//!
//! For a perfect (Hamming) code the last arm is unreachable; for the
//! extended-Hamming and SEC-DED codes it is how every double error is
//! detected. The uncoded baseline is the member with no check bits: every
//! word has the zero syndrome and is accepted.
//!
//! The constructors live with their construction notes:
//! [`crate::codes::hamming`] (Hamming(7,4), Hamming(8,4), Hamming(r), the
//! (38,32) code and the shortened family), [`crate::codes::sec_ded`] and
//! [`crate::codes::uncoded`].
//!
//! [`DecodeOutcome::DetectedUncorrectable`]: crate::DecodeOutcome

use crate::decoder::{Decoded, SyndromeClass};
use crate::{generator_right_inverse, validate_code_matrices, BlockCode, HardDecoder};
use gf2::{BitMat, BitVec};

/// A binary linear code decoded by matching its syndrome against the
/// columns of its parity-check matrix (see the [module docs](self)).
///
/// Built by one of [`ColumnCode::hamming74`], [`ColumnCode::hamming84`],
/// [`ColumnCode::hamming`], [`ColumnCode::shortened_hamming_38_32`],
/// [`ColumnCode::shortened_hamming`], [`ColumnCode::wide_85_64`],
/// [`ColumnCode::sec_ded`] and [`ColumnCode::uncoded`].
#[derive(Debug, Clone)]
pub struct ColumnCode {
    name: String,
    g: BitMat,
    h: BitMat,
    /// The minimum distance, from each constructor's structural argument.
    d_min: usize,
    /// Every column of `H` as an integer (bit `t` = row `t`) with its
    /// position, sorted by value: a syndrome finds its column by binary
    /// search at any redundancy.
    columns: Vec<(u128, usize)>,
    /// `(pivots, transform)` of [`generator_right_inverse`], computed once:
    /// every decoded word needs its message.
    extractor: (Vec<usize>, BitMat),
}

impl ColumnCode {
    /// Wraps a consistent `G`/`H` pair with its name and minimum distance.
    ///
    /// # Panics
    /// Panics if the matrices do not describe the same code, or if `H` has
    /// check rows but a zero or repeated column (single errors would not be
    /// distinguishable).
    pub(crate) fn from_matrices(name: String, g: BitMat, h: BitMat, d_min: usize) -> Self {
        validate_code_matrices(&g, &h);
        let mut columns: Vec<(u128, usize)> =
            (0..h.cols()).map(|j| (h.col(j).to_u128(), j)).collect();
        columns.sort_unstable();
        assert!(
            h.rows() == 0
                || (columns[0].0 != 0 && columns.windows(2).all(|pair| pair[0].0 != pair[1].0)),
            "{name}: the columns of H must be nonzero and distinct"
        );
        let extractor = generator_right_inverse(&g);
        ColumnCode {
            name,
            g,
            h,
            d_min,
            columns,
            extractor,
        }
    }

    /// The message of a codeword, through the generator's right inverse.
    fn extract(&self, codeword: &BitVec) -> BitVec {
        let (pivots, transform) = &self.extractor;
        let mut message = BitVec::zeros(self.k());
        for (i, &p) in pivots.iter().enumerate() {
            if codeword.get(p) {
                message.xor_assign(transform.row(i));
            }
        }
        message
    }
}

impl BlockCode for ColumnCode {
    fn name(&self) -> &str {
        &self.name
    }
    fn n(&self) -> usize {
        self.g.cols()
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
    fn min_distance(&self) -> usize {
        self.d_min
    }
    fn message_of(&self, codeword: &BitVec) -> Option<BitVec> {
        self.is_codeword(codeword).then(|| self.extract(codeword))
    }
}

impl HardDecoder for ColumnCode {
    /// The column rule of the [module docs](self): accept, flip the one
    /// position whose column equals the syndrome, or flag.
    fn decode(&self, received: &BitVec) -> Decoded {
        let syndrome = self.syndrome(received).to_u128();
        if syndrome == 0 {
            return Decoded::clean(received.clone(), self.extract(received));
        }
        match self
            .columns
            .binary_search_by_key(&syndrome, |&(value, _)| value)
        {
            Ok(i) => {
                let mut corrected = received.clone();
                corrected.flip(self.columns[i].1);
                let message = self.extract(&corrected);
                Decoded::corrected(corrected, message, 1)
            }
            Err(_) => Decoded::detected(),
        }
    }

    fn syndrome_class(&self) -> SyndromeClass {
        SyndromeClass::ColumnFlip
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DecodeOutcome, Rm13};

    /// Every constructor at sizes whose codebooks enumerate quickly.
    fn short_codes() -> Vec<ColumnCode> {
        let mut codes = vec![ColumnCode::hamming74(), ColumnCode::hamming84()];
        codes.extend((2..=4).map(ColumnCode::hamming));
        for (k, base_r, copies) in [(4, 3, 1), (2, 3, 2), (3, 3, 2), (4, 3, 3)] {
            codes.push(ColumnCode::shortened_hamming(k, base_r, copies));
        }
        codes.extend((2..=4).map(ColumnCode::sec_ded));
        codes.push(ColumnCode::uncoded(4));
        codes
    }

    #[test]
    fn min_distance_matches_the_enumerated_codebook() {
        for code in short_codes() {
            let enumerated = code
                .codebook()
                .iter()
                .skip(1)
                .map(|(_, c)| c.weight())
                .min();
            assert_eq!(Some(code.min_distance()), enumerated, "{}", code.name());
        }
    }

    /// An oracle independent of `H`: with `d_min ≥ 3`, the column rule
    /// accepts exactly the codewords and corrects exactly the words at
    /// distance one from a codeword, to that codeword.
    #[test]
    fn decode_corrects_exactly_the_words_next_to_a_codeword() {
        let short = |c: &ColumnCode| c.min_distance() >= 3 && c.n() <= 13;
        for code in short_codes().into_iter().filter(short) {
            let codebook = code.codebook();
            for w in 0u64..(1 << code.n()) {
                let word = BitVec::from_u64(code.n(), w);
                let nearest = codebook
                    .iter()
                    .find(|(_, c)| c.hamming_distance(&word) <= 1);
                let decoded = code.decode(&word);
                let label = format!("{} word {w:b}", code.name());
                match nearest {
                    Some((message, codeword)) => {
                        let flips = codeword.hamming_distance(&word);
                        assert_eq!(decoded.codeword.as_ref(), Some(codeword), "{label}");
                        assert_eq!(decoded.message.as_ref(), Some(message), "{label}");
                        let corrected =
                            decoded.outcome == DecodeOutcome::Corrected { bits_flipped: 1 };
                        assert_eq!(corrected, flips == 1, "{label}");
                    }
                    None => assert!(decoded.outcome.error_flag(), "{label}"),
                }
            }
        }
    }

    /// The tie-detecting FHT decoder of RM(1,3) is the column rule on its
    /// own matrices, on every one of the 256 words.
    #[test]
    fn rm13_tie_detecting_decode_is_the_column_rule() {
        let rm = Rm13::new();
        let column = ColumnCode::from_matrices(
            "RM(1,3)".into(),
            rm.generator().clone(),
            rm.parity_check().clone(),
            4,
        );
        for w in 0u64..256 {
            let word = BitVec::from_u64(8, w);
            assert_eq!(rm.decode(&word), column.decode(&word), "word {w:08b}");
        }
    }

    #[test]
    #[should_panic(expected = "nonzero and distinct")]
    fn repeated_columns_are_rejected() {
        // The (4,2) code with two copies of each bit: H repeats a column.
        let g = BitMat::from_str_rows(&["1100", "0011"]);
        let h = g.null_space();
        let _ = ColumnCode::from_matrices("duplicated".into(), g, h, 2);
    }
}
