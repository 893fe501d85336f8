//! The "no encoder" baseline of Fig. 5 as a [`ColumnCode`]: the 4-bit
//! message is sent directly over 4 of the 8 output channels with no
//! redundancy.

use crate::ColumnCode;
use gf2::BitMat;

impl ColumnCode {
    /// The identity (uncoded) transmission of `k` bits: `n = k`, no check
    /// bits, no detection or correction capability — every word has the zero
    /// syndrome and is accepted as sent. `d_min` is reported as 1 by
    /// convention (any single bit flip produces another valid "codeword").
    ///
    /// # Panics
    /// Panics if `k == 0` or `k > 64`.
    #[must_use]
    pub fn uncoded(k: usize) -> Self {
        assert!(k > 0 && k <= 64, "k must be in 1..=64");
        let name = format!("No encoder ({k}-bit)");
        Self::from_matrices(name, BitMat::identity(k), BitMat::zeros(0, k), 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockCode, HardDecoder};
    use gf2::BitVec;

    #[test]
    fn uncoded_passes_bits_through() {
        let code = ColumnCode::uncoded(4);
        let msg = BitVec::from_str01("1011");
        assert_eq!(code.encode(&msg), msg);
        assert_eq!(code.decode(&msg).message.unwrap(), msg);
        assert_eq!(code.n(), 4);
        assert_eq!(code.k(), 4);
        assert_eq!(code.min_distance(), 1);
    }

    #[test]
    fn uncoded_never_detects_errors() {
        let code = ColumnCode::uncoded(4);
        let msg = BitVec::from_str01("0000");
        let mut r = code.encode(&msg);
        r.flip(2);
        let d = code.decode(&r);
        assert!(!d.outcome.error_flag());
        assert!(!d.message_is(&msg), "error goes through silently");
    }

    #[test]
    fn every_word_is_a_codeword() {
        let code = ColumnCode::uncoded(4);
        for w in 0u64..16 {
            assert!(code.is_codeword(&BitVec::from_u64(4, w)));
        }
    }
}
