//! Binary primitive BCH codes: the workspace's first multi-error-correcting
//! (`t ≥ 2`) family.
//!
//! [`Bch::new(m, t)`] constructs the primitive binary BCH code of length
//! `n = 2^m − 1` with designed distance `2t + 1`: the generator polynomial is
//! the least common multiple of the minimal polynomials of `α, α², …, α^{2t}`
//! over GF(2), where `α` generates GF(2^m) (the [`gf2::field::Gf2m`]
//! log/antilog machinery built for this module). The code is systematic —
//! `[ d_0 … d_{k−1} | p_0 … p_{r−1} ]` with bit `i` holding the coefficient
//! of `x^{n−1−i}` — so message extraction is a prefix slice.
//!
//! The flagship catalog member is **BCH(31,16)** ([`Bch::bch_31_16`]):
//! `m = 5`, generator `m₁(x)·m₃(x)·m₅(x)` of degree 15, true minimum
//! distance 7, shipped with a *bounded-distance* decoder of radius `t = 2`.
//! Capping the radius below the designed `t = 3` is deliberate: every
//! 1- and 2-bit error is corrected, while every 3-bit error is **detected**
//! (`d_min = 7` leaves no codeword within distance 2 of a weight-3
//! corruption), which gives the link an error flag where SEC-DED would
//! already miscorrect — and it halves the syndrome work per dirty lane.
//!
//! # Decoding
//!
//! Hard decoding is the textbook algebraic chain, entirely over GF(2^m):
//!
//! 1. **Syndromes** `S_i = r(α^i)` for `i = 1 … 2t` (all zero → accept);
//! 2. **Berlekamp–Massey** builds the error-locator polynomial `σ(x)` (at
//!    the shipped `t = 2` this collapses to Peterson's direct solution, but
//!    the general iteration costs the same here and covers any radius);
//! 3. **Chien search** evaluates `σ` at `α^{−e}` for every position; the
//!    roots name the error locations. A locator degree above `t`, a root
//!    count below the degree, or a post-correction syndrome check failure
//!    all raise [`DecodeOutcome::DetectedUncorrectable`](crate::DecodeOutcome).
//!
//! The decision depends only on the syndrome (the error pattern), so the
//! decoder is coset-invariant like every other code in this crate. Its
//! [`SyndromeClass::Algebraic`] carries what batch engines need to
//! bit-slice the syndrome accumulation ([`Bch::sliced_syndrome_plan`]) and
//! run the syndrome-only mirror of this decoder ([`Bch::decode_action`]) on
//! dirty lanes only.

use crate::algebraic::{AlgebraicAction, SlicedSyndromePlan};
use crate::decoder::{Decoded, SyndromeClass};
use crate::{validate_code_matrices, BlockCode, HardDecoder};
use gf2::field::{poly_degree, poly_rem, Gf2m};
use gf2::{BitMat, BitVec};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A config-driven description of one binary primitive BCH family member:
/// codes are *data*, not code. A spec names the field extension degree `m`
/// (blocklength `2^m − 1`), the designed correction capability `t` (the
/// generator has roots `α … α^{2t}`), and the bounded decoding radius
/// (`≤ t`; capping below `t` trades correction for detection margin, see
/// [`Bch::bch_31_16`]).
///
/// [`BchSpec::REGISTRY`] lists the members the workspace ships end-to-end
/// (catalog, synthesis, batch engine, Monte-Carlo curves); any other valid
/// spec still constructs through [`Bch::from_spec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BchSpec {
    /// Field extension degree: the code lives in GF(2^m), `n = 2^m − 1`.
    pub m: u8,
    /// Designed correction capability (designed distance `2t + 1`).
    pub t: u8,
    /// Decoder radius: error patterns of weight ≤ `decode_radius` are
    /// corrected; heavier patterns inside the design margin are detected.
    pub decode_radius: u8,
}

impl BchSpec {
    /// The flagship BCH(31,16): designed distance 7, decoded at radius 2 so
    /// every double error corrects and every triple error is *detected*.
    pub const BCH_31_16: BchSpec = BchSpec {
        m: 5,
        t: 3,
        decode_radius: 2,
    };

    /// BCH(63,51): the high-rate `t = 2` member over GF(64).
    pub const BCH_63_51: BchSpec = BchSpec {
        m: 6,
        t: 2,
        decode_radius: 2,
    };

    /// BCH(63,45): the strongest shipped member — `t = 3` decoded at full
    /// radius, correcting every ≤ 3-bit error pattern.
    pub const BCH_63_45: BchSpec = BchSpec {
        m: 6,
        t: 3,
        decode_radius: 3,
    };

    /// Every BCH member the workspace ships through all layers.
    pub const REGISTRY: [BchSpec; 3] = [Self::BCH_31_16, Self::BCH_63_51, Self::BCH_63_45];

    /// The `(n, k)` parameters this spec produces, computed from the
    /// generator degree without building the full code matrices.
    ///
    /// # Panics
    /// Panics on the same invalid specs as [`Bch::from_spec`].
    #[must_use]
    pub fn dimensions(&self) -> (usize, usize) {
        let field = Gf2m::new(usize::from(self.m));
        let n = field.order();
        let r = poly_degree(field.bch_generator(usize::from(self.t)));
        assert!(r < n, "generator degree {r} leaves no information bits");
        (n, n - r)
    }

    /// Display name in the literature's `BCH(n,k)` convention.
    #[must_use]
    pub fn name(&self) -> String {
        let (n, k) = self.dimensions();
        format!("BCH({n},{k})")
    }
}

/// A binary primitive BCH code over GF(2^m) with a bounded-distance decoder.
#[derive(Debug, Clone)]
pub struct Bch {
    spec: BchSpec,
    field: Gf2m,
    n: usize,
    k: usize,
    /// Designed correction capability: the generator has `α … α^{2t}` roots.
    design_t: usize,
    /// Decoder radius: patterns of weight ≤ `decode_t` are corrected.
    decode_t: usize,
    g: BitMat,
    h: BitMat,
    /// Column `j` of `H` as a syndrome bitmask (bit `u` = row `u`): flipping
    /// position `j` toggles exactly this in the full syndrome. Lets the
    /// syndrome-only decode path verify a candidate correction without
    /// reconstructing the word.
    col_syndromes: Vec<u128>,
    name: String,
}

impl Bch {
    /// Constructs the primitive BCH code of length `2^m − 1` with designed
    /// distance `2t + 1`, decoding up to `t` errors.
    ///
    /// # Panics
    /// Panics if `m` is outside `2..=8`, `t = 0`, or the designed distance
    /// exceeds the blocklength (no information bits would remain).
    #[must_use]
    pub fn new(m: usize, t: usize) -> Self {
        Bch::with_decode_radius(m, t, t)
    }

    /// Constructs the designed-distance-`2·design_t + 1` code but decodes
    /// only up to `decode_t ≤ design_t` errors (bounded-distance decoding
    /// with a wider detection margin; see [`Bch::bch_31_16`]).
    ///
    /// # Panics
    /// Panics on out-of-range `m`, `decode_t = 0`, `decode_t > design_t`, or
    /// a generator that swallows the whole blocklength.
    #[must_use]
    pub fn with_decode_radius(m: usize, design_t: usize, decode_t: usize) -> Self {
        assert!(decode_t >= 1, "decoder radius must be at least 1");
        assert!(
            decode_t <= design_t,
            "decoder radius cannot exceed design t"
        );
        let field = Gf2m::new(m);
        let n = field.order();
        let gen = field.bch_generator(design_t);
        let r = poly_degree(gen);
        assert!(r < n, "generator degree {r} leaves no information bits");
        let k = n - r;

        // Systematic generator row i: x^{n-1-i} + (x^{n-1-i} mod gen), with
        // bit j of the row holding the coefficient of x^{n-1-j}.
        let mut g = BitMat::zeros(k, n);
        for i in 0..k {
            g.set(i, i, true);
            let rem = poly_rem(1u128 << (n - 1 - i), gen);
            for d in 0..r {
                if rem & (1u128 << d) != 0 {
                    g.set(i, n - 1 - d, true);
                }
            }
        }

        // Parity check row u, column j: coefficient of x^{r-1-u} in
        // (x^{n-1-j} mod gen) — the syndrome H·rᵀ is r(x) mod gen.
        let mut h = BitMat::zeros(r, n);
        for j in 0..n {
            let rem = poly_rem(1u128 << (n - 1 - j), gen);
            for u in 0..r {
                if rem & (1u128 << (r - 1 - u)) != 0 {
                    h.set(u, j, true);
                }
            }
        }
        validate_code_matrices(&g, &h);
        let col_syndromes = (0..n)
            .map(|j| {
                (0..r)
                    .filter(|&u| h.get(u, j))
                    .fold(0u128, |acc, u| acc | (1u128 << u))
            })
            .collect();

        Bch {
            spec: BchSpec {
                m: m as u8,
                t: design_t as u8,
                decode_radius: decode_t as u8,
            },
            field,
            n,
            k,
            design_t,
            decode_t,
            g,
            h,
            col_syndromes,
            name: format!("BCH({n},{k})"),
        }
    }

    /// Constructs the family member a [`BchSpec`] describes — the
    /// config-driven entry point behind the encoder catalog and the batch
    /// codec registry.
    ///
    /// # Panics
    /// Panics under the same conditions as [`Bch::with_decode_radius`].
    #[must_use]
    pub fn from_spec(spec: BchSpec) -> Self {
        Bch::with_decode_radius(
            usize::from(spec.m),
            usize::from(spec.t),
            usize::from(spec.decode_radius),
        )
    }

    /// The spec this code was built from (round-trips through
    /// [`Bch::from_spec`]).
    #[must_use]
    pub fn spec(&self) -> BchSpec {
        self.spec
    }

    /// The flagship catalog member: BCH(31,16), designed distance 7
    /// (`g = m₁·m₃·m₅` over GF(32)), decoded with radius `t = 2` so every
    /// double error is corrected and every triple error is detected.
    #[must_use]
    pub fn bch_31_16() -> Self {
        Bch::from_spec(BchSpec::BCH_31_16)
    }

    /// The high-rate BCH(63,51) member (`t = 2` over GF(64)).
    #[must_use]
    pub fn bch_63_51() -> Self {
        Bch::from_spec(BchSpec::BCH_63_51)
    }

    /// The strongest shipped member: BCH(63,45), `t = 3` at full radius.
    #[must_use]
    pub fn bch_63_45() -> Self {
        Bch::from_spec(BchSpec::BCH_63_45)
    }

    /// The extension degree `m` of the underlying field GF(2^m).
    #[must_use]
    pub fn field_degree(&self) -> usize {
        self.field.degree()
    }

    /// The decoder's correction radius `t` (errors of weight ≤ `t` correct).
    #[must_use]
    pub fn correction_radius(&self) -> usize {
        self.decode_t
    }

    /// The designed distance `2t + 1` of the generator construction.
    #[must_use]
    pub fn designed_distance(&self) -> usize {
        2 * self.design_t + 1
    }

    /// Extracts the message from a codeword: the code is systematic, so the
    /// message is the first `k` positions.
    #[must_use]
    pub fn extract_message(&self, codeword: &BitVec) -> BitVec {
        codeword.slice(0..self.k)
    }

    /// Power-sum syndromes `S_1 … S_{2t}` of a received word over GF(2^m).
    fn power_syndromes(&self, received: &BitVec) -> Vec<u16> {
        let f = &self.field;
        (1..=2 * self.decode_t)
            .map(|i| {
                let mut acc = 0u16;
                for j in 0..self.n {
                    if received.get(j) {
                        acc ^= f.alpha_pow(i * (self.n - 1 - j));
                    }
                }
                acc
            })
            .collect()
    }

    /// Berlekamp–Massey: the minimal LFSR `σ(x)` generating the syndrome
    /// sequence. Returns the locator coefficients (`σ[0] = 1`) and degree.
    fn error_locator(&self, syndromes: &[u16]) -> (Vec<u16>, usize) {
        let f = &self.field;
        let mut sigma: Vec<u16> = vec![1];
        let mut prev: Vec<u16> = vec![1];
        let mut l = 0usize;
        let mut shift = 1usize;
        let mut prev_disc = 1u16;
        for nth in 0..syndromes.len() {
            let mut disc = syndromes[nth];
            for i in 1..=l.min(sigma.len() - 1) {
                disc ^= f.mul(sigma[i], syndromes[nth - i]);
            }
            if disc == 0 {
                shift += 1;
                continue;
            }
            let coef = f.div(disc, prev_disc);
            let update = |target: &mut Vec<u16>, basis: &[u16]| {
                if target.len() < basis.len() + shift {
                    target.resize(basis.len() + shift, 0);
                }
                for (i, &b) in basis.iter().enumerate() {
                    target[i + shift] ^= f.mul(coef, b);
                }
            };
            if 2 * l <= nth {
                let keep = sigma.clone();
                update(&mut sigma, &prev);
                l = nth + 1 - l;
                prev = keep;
                prev_disc = disc;
                shift = 1;
            } else {
                update(&mut sigma, &prev.clone());
                shift += 1;
            }
        }
        (sigma, l)
    }

    /// Chien search: positions `j` where `σ(α^{−(n−1−j)}) = 0`.
    fn chien_positions(&self, sigma: &[u16], degree: usize) -> Vec<usize> {
        let f = &self.field;
        let mut positions = Vec::with_capacity(degree);
        for e in 0..self.n {
            let x = f.alpha_pow(self.n - e % self.n);
            let mut acc = 0u16;
            let mut xp = 1u16;
            for &c in sigma.iter() {
                acc ^= f.mul(c, xp);
                xp = f.mul(xp, x);
            }
            if acc == 0 {
                // Root α^{-e} ⇒ locator X = α^e ⇒ position n−1−e.
                positions.push(self.n - 1 - e);
            }
        }
        positions
    }

    /// Roots of a locator of degree ≤ 2 in closed form: returns the flip
    /// mask (bit `j` = position `j`) and the number of distinct roots a
    /// Chien search over the full multiplicative group would find.
    ///
    /// Degree 1 always has the single root `x = 1/σ₁`. Degree 2 reduces to
    /// `z² + z = σ₂/σ₁²` by the substitution `x = (σ₁/σ₂)·z`, solved O(1)
    /// via [`Gf2m::solve_quadratic`]; trace 1 means both roots live in the
    /// extension field only (count 0), and `σ₁ = 0` collapses the quadratic
    /// to `x² = 1/σ₂`, whose lone (Frobenius-repeated) root makes the count
    /// 1 ≠ 2 so the caller detects, matching the Chien sweep exactly.
    fn direct_locator_mask(&self, sigma: &[u16], degree: usize) -> (u128, usize) {
        let f = &self.field;
        let position = |x: u16| -> usize {
            // Root x of σ ⇒ locator X = 1/x ⇒ position n−1−log(X).
            self.n - 1 - f.log(f.inv(x))
        };
        match degree {
            1 => {
                let x = f.inv(sigma[1]);
                (1u128 << position(x), 1)
            }
            _ => {
                let (s1, s2) = (sigma[1], sigma[2]);
                if s1 == 0 {
                    // x² = 1/σ₂: squaring is bijective, one root exactly.
                    return (0, 1);
                }
                let c = f.div(s2, f.square(s1));
                match f.solve_quadratic(c) {
                    None => (0, 0),
                    Some(z) => {
                        let a = f.div(s1, s2);
                        let x1 = f.mul(a, z);
                        let x2 = f.mul(a, z ^ 1);
                        ((1u128 << position(x1)) | (1u128 << position(x2)), 2)
                    }
                }
            }
        }
    }
}

impl BlockCode for Bch {
    fn name(&self) -> &str {
        &self.name
    }
    fn n(&self) -> usize {
        self.n
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
    fn message_of(&self, codeword: &BitVec) -> Option<BitVec> {
        if self.is_codeword(codeword) {
            Some(self.extract_message(codeword))
        } else {
            None
        }
    }
}

impl HardDecoder for Bch {
    /// Syndrome → Berlekamp–Massey → Chien search, bounded at radius `t`.
    fn decode(&self, received: &BitVec) -> Decoded {
        assert_eq!(received.len(), self.n, "received word length mismatch");
        // Membership is checked against the full generator (H), not just the
        // 2t power syndromes: at a capped radius (decode_t < design_t) the
        // power syndromes only span the designed-distance-(2·decode_t + 1)
        // supercode, and a word clean there can still miss this code.
        if self.is_codeword(received) {
            let msg = self.extract_message(received);
            return Decoded::clean(received.clone(), msg);
        }
        let syndromes = self.power_syndromes(received);
        if syndromes.iter().all(|&s| s == 0) {
            // Non-codeword invisible to the decoding syndromes: detected by
            // the supercode gap alone.
            return Decoded::detected();
        }
        let (sigma, degree) = self.error_locator(&syndromes);
        if degree == 0 || degree > self.decode_t || sigma.len() <= degree || sigma[degree] == 0 {
            return Decoded::detected();
        }
        let positions = self.chien_positions(&sigma, degree);
        if positions.len() != degree {
            return Decoded::detected();
        }
        let mut corrected = received.clone();
        for &p in &positions {
            corrected.flip(p);
        }
        if !self.is_codeword(&corrected) {
            return Decoded::detected();
        }
        let msg = self.extract_message(&corrected);
        Decoded::corrected(corrected, msg, degree)
    }

    /// Multi-error algebraic decoding: batch engines bit-slice the power
    /// syndrome accumulation ([`Bch::sliced_syndrome_plan`]) and run
    /// [`Bch::decode_action`] on the residual lanes only.
    fn syndrome_class(&self) -> SyndromeClass {
        let code = self.clone();
        SyndromeClass::Algebraic {
            plan: self.sliced_syndrome_plan(),
            action: Arc::new(move |synd: &[u16], full: u128| code.decode_action(synd, full)),
        }
    }
}

impl Bch {
    /// The constant accumulation plan for this code's power syndromes.
    #[must_use]
    pub fn sliced_syndrome_plan(&self) -> SlicedSyndromePlan {
        let f = &self.field;
        let m = f.degree();
        // Bit b of S_i is the parity of received bits j with bit b of
        // α^{i·(n−1−j)} set — the bit-sliced form of `power_syndromes`.
        let odd_supports = (0..self.decode_t)
            .map(|h| {
                let i = 2 * h + 1;
                (0..m)
                    .map(|b| {
                        (0..self.n)
                            .filter(|&j| (f.alpha_pow(i * (self.n - 1 - j)) >> b) & 1 == 1)
                            .fold(0u128, |acc, j| acc | (1u128 << j))
                    })
                    .collect()
            })
            .collect();
        SlicedSyndromePlan {
            field_bits: m,
            syndrome_count: 2 * self.decode_t,
            odd_supports,
            square: (0..f.size() as u16).map(|a| f.square(a)).collect(),
        }
    }

    /// The syndrome-only mirror of [`HardDecoder::decode`]: same
    /// Berlekamp–Massey chain and the same detection gates, but degree ≤ 2
    /// locators are solved in closed form instead of Chien-swept, and the
    /// post-correction codeword check becomes `full_syndrome == Σ H columns
    /// at the flips` (equivalent because `H·(r + e)ᵀ = H·rᵀ + H·eᵀ`).
    ///
    /// `power_syndromes` holds `S_1 … S_{2t}` (see
    /// [`Bch::sliced_syndrome_plan`]); `full_syndrome` is `H·rᵀ` with bit
    /// `u` = syndrome row `u`, nonzero.
    #[must_use]
    pub fn decode_action(&self, power_syndromes: &[u16], full_syndrome: u128) -> AlgebraicAction {
        debug_assert_eq!(power_syndromes.len(), 2 * self.decode_t);
        debug_assert_ne!(
            full_syndrome, 0,
            "clean lanes never reach the residual stage"
        );
        if power_syndromes.iter().all(|&s| s == 0) {
            return AlgebraicAction::Detected;
        }
        let (sigma, degree) = self.error_locator(power_syndromes);
        if degree == 0 || degree > self.decode_t || sigma.len() <= degree || sigma[degree] == 0 {
            return AlgebraicAction::Detected;
        }
        let (mask, roots) = if degree <= 2 {
            self.direct_locator_mask(&sigma, degree)
        } else {
            let positions = self.chien_positions(&sigma, degree);
            (
                positions.iter().fold(0u128, |acc, &p| acc | (1u128 << p)),
                positions.len(),
            )
        };
        if roots != degree {
            return AlgebraicAction::Detected;
        }
        let mut expected = 0u128;
        let mut rest = mask;
        while rest != 0 {
            let p = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            expected ^= self.col_syndromes[p];
        }
        if expected == full_syndrome {
            AlgebraicAction::Flip(mask)
        } else {
            AlgebraicAction::Detected
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DecodeOutcome;

    fn sample_messages(k: usize, count: usize) -> Vec<BitVec> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xBC11_0031);
        (0..count)
            .map(|_| (0..k).map(|_| rng.random::<u64>() & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn family_parameters_match_the_textbook() {
        // (n, k) of primitive BCH codes, Lin & Costello Table 6.1.
        let expected = [
            (3, 1, (7, 4)),
            (4, 1, (15, 11)),
            (4, 2, (15, 7)),
            (4, 3, (15, 5)),
            (5, 1, (31, 26)),
            (5, 2, (31, 21)),
            (5, 3, (31, 16)),
            (6, 2, (63, 51)),
            (6, 3, (63, 45)),
        ];
        for (m, t, (n, k)) in expected {
            let code = Bch::new(m, t);
            assert_eq!((code.n(), code.k()), (n, k), "m={m} t={t}");
            assert_eq!(code.name(), format!("BCH({n},{k})"));
        }
    }

    #[test]
    fn flagship_member_is_31_16_with_true_distance_7() {
        let code = Bch::bch_31_16();
        assert_eq!((code.n(), code.k()), (31, 16));
        assert_eq!(code.correction_radius(), 2);
        assert_eq!(code.designed_distance(), 7);
        assert_eq!(code.field_degree(), 5);
        // Exhaustive: the designed distance is met with equality.
        assert_eq!(code.min_distance(), 7);
    }

    #[test]
    fn code_is_systematic() {
        for code in [Bch::new(4, 2), Bch::bch_31_16()] {
            for msg in sample_messages(code.k(), 8) {
                let cw = code.encode(&msg);
                assert_eq!(cw.slice(0..code.k()), msg);
                assert_eq!(code.message_of(&cw), Some(msg));
            }
        }
    }

    #[test]
    fn every_single_and_double_error_is_corrected() {
        let code = Bch::bch_31_16();
        for msg in sample_messages(code.k(), 2) {
            let cw = code.encode(&msg);
            for a in 0..code.n() {
                let mut r1 = cw.clone();
                r1.flip(a);
                let d = code.decode(&r1);
                assert_eq!(d.outcome, DecodeOutcome::Corrected { bits_flipped: 1 });
                assert!(d.message_is(&msg), "single at {a}");
                for b in (a + 1)..code.n() {
                    let mut r2 = r1.clone();
                    r2.flip(b);
                    let d = code.decode(&r2);
                    assert_eq!(
                        d.outcome,
                        DecodeOutcome::Corrected { bits_flipped: 2 },
                        "double ({a},{b})"
                    );
                    assert!(d.message_is(&msg), "double ({a},{b})");
                    assert_eq!(d.codeword, Some(cw.clone()));
                }
            }
        }
    }

    #[test]
    fn every_triple_error_is_detected_at_radius_two() {
        // d_min = 7 with a radius-2 decoder: a weight-3 corruption can never
        // be within distance 2 of any codeword, so detection is certain.
        let code = Bch::bch_31_16();
        let msg = sample_messages(code.k(), 1).pop().unwrap();
        let cw = code.encode(&msg);
        for a in 0..8 {
            for b in (a + 1)..code.n() {
                for c in (b + 1)..code.n() {
                    let mut r = cw.clone();
                    r.flip(a);
                    r.flip(b);
                    r.flip(c);
                    assert_eq!(
                        code.decode(&r).outcome,
                        DecodeOutcome::DetectedUncorrectable,
                        "triple ({a},{b},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn full_radius_decoder_corrects_triples() {
        let code = Bch::new(5, 3);
        let msg = sample_messages(code.k(), 1).pop().unwrap();
        let cw = code.encode(&msg);
        let mut r = cw.clone();
        for p in [2usize, 11, 29] {
            r.flip(p);
        }
        let d = code.decode(&r);
        assert_eq!(d.outcome, DecodeOutcome::Corrected { bits_flipped: 3 });
        assert!(d.message_is(&msg));
    }

    #[test]
    fn hamming_is_the_t1_member() {
        // BCH(7,4) at t=1 is Hamming(7,4): same parameters and distance.
        let code = Bch::new(3, 1);
        assert_eq!((code.n(), code.k(), code.min_distance()), (7, 4, 3));
        let msg = BitVec::from_str01("1011");
        let cw = code.encode(&msg);
        for pos in 0..7 {
            let mut r = cw.clone();
            r.flip(pos);
            assert!(code.decode(&r).message_is(&msg));
        }
    }

    #[test]
    fn decoding_is_syndrome_only() {
        // The same error pattern on two different codewords produces the
        // same outcome and the same flipped positions (coset invariance).
        let code = Bch::bch_31_16();
        let msgs = sample_messages(code.k(), 2);
        let (cw0, cw1) = (code.encode(&msgs[0]), code.encode(&msgs[1]));
        for pattern in [[1usize, 17], [0, 30], [5, 6]] {
            let mut r0 = cw0.clone();
            let mut r1 = cw1.clone();
            for &p in &pattern {
                r0.flip(p);
                r1.flip(p);
            }
            let (d0, d1) = (code.decode(&r0), code.decode(&r1));
            assert_eq!(d0.outcome, d1.outcome);
            assert_eq!(d0.codeword, Some(cw0.clone()));
            assert_eq!(d1.codeword, Some(cw1.clone()));
        }
    }

    #[test]
    fn syndrome_class_is_algebraic() {
        assert!(matches!(
            Bch::bch_31_16().syndrome_class(),
            SyndromeClass::Algebraic { .. }
        ));
    }

    /// Full syndrome of a received word as a bitmask (bit `u` = row `u`).
    fn full_syndrome_mask(code: &Bch, received: &BitVec) -> u128 {
        let s = code.syndrome(received);
        (0..s.len())
            .filter(|&u| s.get(u))
            .fold(0u128, |acc, u| acc | (1u128 << u))
    }

    #[test]
    fn sliced_syndrome_plan_reproduces_power_syndromes() {
        for code in [Bch::new(4, 2), Bch::bch_31_16(), Bch::new(5, 3)] {
            let plan = code.sliced_syndrome_plan();
            assert_eq!(plan.field_bits, code.field_degree());
            assert_eq!(plan.syndrome_count, 2 * code.correction_radius());
            for msg in sample_messages(code.k(), 3) {
                let mut received = code.encode(&msg);
                received.flip(1);
                received.flip(code.n() - 2);
                let reference = code.power_syndromes(&received);
                let word: u128 = (0..code.n())
                    .filter(|&j| received.get(j))
                    .fold(0u128, |acc, j| acc | (1u128 << j));
                let mut syndromes = vec![0u16; plan.syndrome_count];
                for (h, supports) in plan.odd_supports.iter().enumerate() {
                    let mut s = 0u16;
                    for (b, &mask) in supports.iter().enumerate() {
                        s |= u16::from((word & mask).count_ones() & 1 == 1) << b;
                    }
                    syndromes[2 * h] = s;
                }
                plan.fill_even_syndromes(&mut syndromes);
                assert_eq!(syndromes, reference, "{}", code.name());
            }
        }
    }

    /// The decision of a BCH decode depends only on the syndrome, and every
    /// syndrome value is realized by a word supported on the parity tail
    /// (where `r(x) = s(x)` directly). Sweeping all `2^r` syndromes
    /// therefore covers every coset — `decode_action` is proven equivalent
    /// to the scalar `decode` on *all* received words, not a sample.
    #[test]
    fn decode_action_matches_scalar_decode_over_the_whole_syndrome_space() {
        let code = Bch::bch_31_16();
        let r_bits = code.n() - code.k();
        for s in 0u32..(1 << r_bits) {
            let mut received = BitVec::zeros(code.n());
            for d in 0..r_bits {
                if (s >> d) & 1 == 1 {
                    received.set(code.n() - 1 - d, true);
                }
            }
            let scalar = code.decode(&received);
            if s == 0 {
                assert_eq!(scalar.outcome, DecodeOutcome::NoErrorDetected);
                continue;
            }
            let power = code.power_syndromes(&received);
            let full = full_syndrome_mask(&code, &received);
            assert_ne!(full, 0, "nonzero parity tail ⇒ nonzero syndrome");
            let action = code.decode_action(&power, full);
            match (scalar.outcome, action) {
                (DecodeOutcome::DetectedUncorrectable, AlgebraicAction::Detected) => {}
                (DecodeOutcome::Corrected { bits_flipped }, AlgebraicAction::Flip(mask)) => {
                    assert_eq!(mask.count_ones() as usize, bits_flipped, "syndrome {s:#x}");
                    let mut fixed = received.clone();
                    let mut rest = mask;
                    while rest != 0 {
                        let p = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        fixed.flip(p);
                    }
                    assert_eq!(Some(fixed), scalar.codeword, "syndrome {s:#x}");
                }
                (outcome, action) => {
                    panic!("syndrome {s:#x}: scalar {outcome:?} vs action {action:?}")
                }
            }
        }
    }

    #[test]
    fn decode_action_matches_scalar_at_full_radius_chien_path() {
        // Radius 3 exercises the degree-3 Chien branch of decode_action.
        let code = Bch::new(5, 3);
        let msg = sample_messages(code.k(), 1).pop().unwrap();
        let cw = code.encode(&msg);
        for pattern in [
            vec![4usize],
            vec![0, 30],
            vec![2, 11, 29],
            vec![1, 2, 3, 4], // weight 4: must detect
        ] {
            let mut received = cw.clone();
            for &p in &pattern {
                received.flip(p);
            }
            if code.is_codeword(&received) {
                continue;
            }
            let scalar = code.decode(&received);
            let action = code.decode_action(
                &code.power_syndromes(&received),
                full_syndrome_mask(&code, &received),
            );
            match (scalar.outcome, action) {
                (DecodeOutcome::DetectedUncorrectable, AlgebraicAction::Detected) => {}
                (DecodeOutcome::Corrected { bits_flipped }, AlgebraicAction::Flip(mask)) => {
                    assert_eq!(mask.count_ones() as usize, bits_flipped);
                }
                (outcome, action) => panic!("{pattern:?}: {outcome:?} vs {action:?}"),
            }
        }
    }

    #[test]
    fn registry_specs_round_trip_and_name_their_members() {
        let expected = [
            (BchSpec::BCH_31_16, (31, 16), 2),
            (BchSpec::BCH_63_51, (63, 51), 2),
            (BchSpec::BCH_63_45, (63, 45), 3),
        ];
        assert_eq!(BchSpec::REGISTRY.len(), expected.len());
        for (spec, (n, k), radius) in expected {
            assert!(BchSpec::REGISTRY.contains(&spec));
            assert_eq!(spec.dimensions(), (n, k));
            assert_eq!(spec.name(), format!("BCH({n},{k})"));
            let code = Bch::from_spec(spec);
            assert_eq!((code.n(), code.k()), (n, k));
            assert_eq!(code.correction_radius(), radius);
            assert_eq!(code.spec(), spec);
        }
        assert_eq!(Bch::bch_63_51().spec(), BchSpec::BCH_63_51);
        assert_eq!(Bch::bch_63_45().spec(), BchSpec::BCH_63_45);
    }

    #[test]
    fn bch_63_45_corrects_triples_and_detects_sampled_quadruples() {
        let code = Bch::bch_63_45();
        let msg = sample_messages(code.k(), 1).pop().unwrap();
        let cw = code.encode(&msg);
        for pattern in [[0usize, 31, 62], [5, 6, 7], [10, 30, 50]] {
            let mut r = cw.clone();
            for &p in &pattern {
                r.flip(p);
            }
            let d = code.decode(&r);
            assert_eq!(d.outcome, DecodeOutcome::Corrected { bits_flipped: 3 });
            assert!(d.message_is(&msg), "{pattern:?}");
        }
        // Weight-4 patterns sit past the packing radius; a pattern inside
        // another codeword's radius-3 sphere would miscorrect (d_min = 7
        // admits weight-7 codewords), so these samples are ones checked to
        // lie outside every sphere — the decoder must flag them.
        for pattern in [[0usize, 1, 2, 3], [7, 19, 33, 60], [2, 20, 40, 62]] {
            let mut r = cw.clone();
            for &p in &pattern {
                r.flip(p);
            }
            assert_eq!(
                code.decode(&r).outcome,
                DecodeOutcome::DetectedUncorrectable,
                "{pattern:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "radius cannot exceed")]
    fn rejects_radius_above_design() {
        let _ = Bch::with_decode_radius(5, 2, 3);
    }

    #[test]
    #[should_panic(expected = "designed distance exceeds")]
    fn rejects_degenerate_design() {
        let _ = Bch::new(3, 4);
    }
}
