//! Arithmetic in the binary extension fields GF(2^m).
//!
//! This module is the algebraic substrate for multi-error-correcting codes
//! (BCH in the `ecc` crate): log/antilog tables over a fixed primitive
//! polynomial, minimal polynomials of the powers of the primitive element
//! `α`, and the least-common-multiple construction of the binary BCH
//! generator polynomial.
//!
//! Field elements are represented as polynomial bitmasks over GF(2): the
//! `u16` value `0b101` is `x^2 + 1`. Multiplication and inversion go through
//! the log/antilog tables, so both are O(1) after construction.
//!
//! Polynomials **over** GF(2) (minimal polynomials, the BCH generator) are
//! represented as `u128` bitmasks — bit `i` is the coefficient of `x^i` —
//! which caps supported degrees at 127, far above what any `m ≤ 8` BCH
//! generator needs.

/// Primitive polynomials over GF(2), indexed by degree `m` (2 ..= 8).
///
/// Bit `i` is the coefficient of `x^i`; e.g. `m = 5` maps to
/// `x^5 + x^2 + 1 = 0b100101`.
const PRIMITIVE_POLY: [u32; 9] = [
    0,             // m = 0 (unused)
    0,             // m = 1 (unused)
    0b111,         // m = 2: x^2 + x + 1
    0b1011,        // m = 3: x^3 + x + 1
    0b1_0011,      // m = 4: x^4 + x + 1
    0b10_0101,     // m = 5: x^5 + x^2 + 1
    0b100_0011,    // m = 6: x^6 + x + 1
    0b1000_1001,   // m = 7: x^7 + x^3 + 1
    0b1_0001_1101, // m = 8: x^8 + x^4 + x^3 + x^2 + 1
];

/// The finite field GF(2^m), built over a fixed primitive polynomial.
///
/// Supports `2 ≤ m ≤ 8`. Elements are `u16` polynomial bitmasks in
/// `0 .. 2^m`; `0` is the additive identity and `1` the multiplicative one.
///
/// # Example
///
/// ```
/// use gf2::field::Gf2m;
///
/// let f = Gf2m::new(4);
/// let a = f.alpha_pow(3);
/// assert_eq!(f.mul(a, f.inv(a)), 1);
/// assert_eq!(f.pow(f.alpha_pow(1), f.order()), 1); // α has order 2^m - 1
/// ```
#[derive(Debug, Clone)]
pub struct Gf2m {
    m: usize,
    /// antilog table: `exp[i] = α^i`, doubled so `mul` needs no modular fold.
    exp: Vec<u16>,
    /// log table: `log[a] = i` with `α^i = a`; `log[0]` is unused.
    log: Vec<u16>,
    /// quadratic-root table: `qroot[c]` is a solution `z` of `z² + z = c`,
    /// or `u16::MAX` when `c` has absolute trace 1 (no solution).
    qroot: Vec<u16>,
}

impl Gf2m {
    /// Constructs GF(2^m) over the canonical primitive polynomial.
    ///
    /// # Panics
    /// Panics unless `2 ≤ m ≤ 8`.
    #[must_use]
    pub fn new(m: usize) -> Self {
        assert!((2..=8).contains(&m), "Gf2m supports 2 <= m <= 8, got {m}");
        let poly = PRIMITIVE_POLY[m];
        let order = (1usize << m) - 1;
        let mut exp = vec![0u16; 2 * order];
        let mut log = vec![0u16; 1 << m];
        let mut acc: u32 = 1;
        for i in 0..order {
            exp[i] = acc as u16;
            exp[i + order] = acc as u16;
            log[acc as usize] = i as u16;
            acc <<= 1;
            if acc & (1 << m) != 0 {
                acc ^= poly;
            }
        }
        debug_assert_eq!(acc, 1, "polynomial for m={m} is not primitive");
        // z ↦ z² + z is 2-to-1 onto the trace-zero subfield half; record one
        // preimage per image so quadratics solve in O(1) (the batch BCH
        // kernels use this in place of a Chien search for degree-2 locators).
        let mut qroot = vec![u16::MAX; 1 << m];
        let mut field = Gf2m {
            m,
            exp,
            log,
            qroot: Vec::new(),
        };
        for z in 0..(1u16 << m) {
            let c = field.mul(z, z) ^ z;
            if qroot[c as usize] == u16::MAX {
                qroot[c as usize] = z;
            }
        }
        field.qroot = qroot;
        field
    }

    /// The extension degree `m`.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.m
    }

    /// The multiplicative order `2^m - 1` (also the BCH blocklength `n`).
    #[must_use]
    pub fn order(&self) -> usize {
        (1 << self.m) - 1
    }

    /// The number of field elements, `2^m`.
    #[must_use]
    pub fn size(&self) -> usize {
        1 << self.m
    }

    /// Addition (and subtraction): carryless XOR.
    #[inline]
    #[must_use]
    pub fn add(&self, a: u16, b: u16) -> u16 {
        a ^ b
    }

    /// `α^e` for any exponent (reduced mod `2^m - 1`).
    #[inline]
    #[must_use]
    pub fn alpha_pow(&self, e: usize) -> u16 {
        self.exp[e % self.order()]
    }

    /// The discrete logarithm of a non-zero element: `log(α^i) = i`.
    ///
    /// # Panics
    /// Panics on `a = 0`, which has no logarithm.
    #[inline]
    #[must_use]
    pub fn log(&self, a: u16) -> usize {
        assert!(a != 0, "log of zero");
        self.log[a as usize] as usize
    }

    /// Multiplication through the log/antilog tables.
    #[inline]
    #[must_use]
    pub fn mul(&self, a: u16, b: u16) -> u16 {
        if a == 0 || b == 0 {
            0
        } else {
            self.exp[self.log[a as usize] as usize + self.log[b as usize] as usize]
        }
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    /// Panics on `a = 0`.
    #[inline]
    #[must_use]
    pub fn inv(&self, a: u16) -> u16 {
        assert!(a != 0, "inverse of zero");
        let order = self.order();
        self.exp[(order - self.log[a as usize] as usize) % order]
    }

    /// Division `a / b`.
    ///
    /// # Panics
    /// Panics on `b = 0`.
    #[inline]
    #[must_use]
    pub fn div(&self, a: u16, b: u16) -> u16 {
        self.mul(a, self.inv(b))
    }

    /// Exponentiation `a^e` (with `0^0 = 1`).
    #[must_use]
    pub fn pow(&self, a: u16, e: usize) -> u16 {
        if a == 0 {
            return u16::from(e == 0);
        }
        let order = self.order();
        self.exp[(self.log[a as usize] as usize * (e % order)) % order]
    }

    /// Squaring (the Frobenius automorphism `a ↦ a²`).
    ///
    /// Because squaring is GF(2)-linear and field-automorphic, the even power
    /// syndromes of a BCH code satisfy `S_{2i} = S_i²` — the identity the
    /// bit-sliced batch syndrome kernel relies on to accumulate only the odd
    /// powers.
    #[inline]
    #[must_use]
    pub fn square(&self, a: u16) -> u16 {
        self.mul(a, a)
    }

    /// Solves `z² + z = c`, returning one root (the other is `z ^ 1`), or
    /// `None` when `c` has absolute trace 1 and the quadratic has no root in
    /// the field. O(1) via a table built at construction.
    ///
    /// # Example
    ///
    /// ```
    /// use gf2::field::Gf2m;
    ///
    /// let f = Gf2m::new(5);
    /// let c = f.alpha_pow(7);
    /// if let Some(z) = f.solve_quadratic(c) {
    ///     assert_eq!(f.add(f.square(z), z), c);
    ///     assert_eq!(f.add(f.square(z ^ 1), z ^ 1), c);
    /// }
    /// ```
    #[inline]
    #[must_use]
    pub fn solve_quadratic(&self, c: u16) -> Option<u16> {
        let z = self.qroot[c as usize];
        (z != u16::MAX).then_some(z)
    }

    /// The cyclotomic coset of `i` modulo `2^m - 1`: `{i, 2i, 4i, ...}`.
    ///
    /// The coset lists the exponents of the conjugates `α^i, α^{2i}, ...`
    /// that share a minimal polynomial over GF(2).
    #[must_use]
    pub fn cyclotomic_coset(&self, i: usize) -> Vec<usize> {
        let order = self.order();
        let start = i % order;
        let mut coset = vec![start];
        let mut next = (start * 2) % order;
        while next != start {
            coset.push(next);
            next = (next * 2) % order;
        }
        coset
    }

    /// The minimal polynomial of `α^i` over GF(2), as a `u128` bitmask
    /// (bit `d` = coefficient of `x^d`).
    ///
    /// Computed as `Π (x - α^j)` over the cyclotomic coset of `i`; the
    /// product of conjugates always collapses to GF(2) coefficients.
    #[must_use]
    pub fn minimal_polynomial(&self, i: usize) -> u128 {
        // Coefficients live in GF(2^m) during the product; each is a u16.
        let coset = self.cyclotomic_coset(i);
        let mut coeffs: Vec<u16> = vec![1]; // the constant polynomial 1
        for &j in &coset {
            let root = self.alpha_pow(j);
            // poly *= (x + root)
            let mut next = vec![0u16; coeffs.len() + 1];
            for (d, &c) in coeffs.iter().enumerate() {
                next[d + 1] ^= c; // c * x
                next[d] ^= self.mul(c, root); // c * root
            }
            coeffs = next;
        }
        let mut mask: u128 = 0;
        for (d, &c) in coeffs.iter().enumerate() {
            debug_assert!(c <= 1, "minimal polynomial has non-binary coefficient");
            if c == 1 {
                mask |= 1u128 << d;
            }
        }
        mask
    }

    /// The generator polynomial of the primitive binary BCH code with
    /// designed distance `2t + 1`: `lcm` of the minimal polynomials of
    /// `α, α^2, ..., α^{2t}`.
    ///
    /// Returns the polynomial as a `u128` bitmask; its degree is the
    /// redundancy `n - k` of the code.
    ///
    /// # Panics
    /// Panics if `t = 0` or if the designed distance exceeds the
    /// blocklength (`2t ≥ 2^m - 1`).
    #[must_use]
    pub fn bch_generator(&self, t: usize) -> u128 {
        assert!(t >= 1, "BCH needs t >= 1");
        assert!(
            2 * t < self.order(),
            "designed distance exceeds blocklength"
        );
        let mut g: u128 = 1;
        let mut covered = vec![false; self.order()];
        for i in 1..=2 * t {
            if covered[i] {
                continue;
            }
            for j in self.cyclotomic_coset(i) {
                covered[j] = true;
            }
            g = poly_mul(g, self.minimal_polynomial(i));
        }
        g
    }
}

/// Degree of a non-zero GF(2) polynomial bitmask.
///
/// # Panics
/// Panics on the zero polynomial.
#[must_use]
pub fn poly_degree(p: u128) -> usize {
    assert!(p != 0, "degree of the zero polynomial");
    127 - p.leading_zeros() as usize
}

/// Carryless product of two GF(2) polynomial bitmasks.
///
/// # Panics
/// Panics if the product degree would exceed 127.
#[must_use]
pub fn poly_mul(a: u128, b: u128) -> u128 {
    if a == 0 || b == 0 {
        return 0;
    }
    assert!(
        poly_degree(a) + poly_degree(b) < 128,
        "poly_mul overflow beyond degree 127"
    );
    let mut acc: u128 = 0;
    let mut a = a;
    let mut shift = 0;
    while a != 0 {
        if a & 1 != 0 {
            acc ^= b << shift;
        }
        a >>= 1;
        shift += 1;
    }
    acc
}

/// Remainder of `a` modulo `b` over GF(2).
///
/// # Panics
/// Panics if `b` is zero.
#[must_use]
pub fn poly_rem(a: u128, b: u128) -> u128 {
    assert!(b != 0, "division by the zero polynomial");
    let db = poly_degree(b);
    let mut r = a;
    while r != 0 {
        let dr = poly_degree(r);
        if dr < db {
            break;
        }
        r ^= b << (dr - db);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_consistent_for_all_supported_m() {
        for m in 2..=8 {
            let f = Gf2m::new(m);
            // α^i runs over every non-zero element exactly once.
            let mut seen = vec![false; f.size()];
            for i in 0..f.order() {
                let a = f.alpha_pow(i);
                assert!(a != 0 && (a as usize) < f.size());
                assert!(!seen[a as usize], "α^{i} repeats in GF(2^{m})");
                seen[a as usize] = true;
                assert_eq!(f.log(a), i);
            }
        }
    }

    #[test]
    fn field_axioms_hold_exhaustively_in_gf16() {
        let f = Gf2m::new(4);
        for a in 0..16u16 {
            for b in 0..16u16 {
                assert_eq!(f.mul(a, b), f.mul(b, a));
                for c in 0..16u16 {
                    assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
                    assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
                }
            }
            if a != 0 {
                assert_eq!(f.mul(a, f.inv(a)), 1);
                assert_eq!(f.div(a, a), 1);
            }
        }
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let f = Gf2m::new(5);
        for a in 1..32u16 {
            let mut acc = 1u16;
            for e in 0..40 {
                assert_eq!(f.pow(a, e), acc, "a={a} e={e}");
                acc = f.mul(acc, a);
            }
        }
        assert_eq!(f.pow(0, 0), 1);
        assert_eq!(f.pow(0, 3), 0);
    }

    #[test]
    fn gf32_minimal_polynomials_match_the_textbook() {
        // Lin & Costello, Appendix B: GF(32) over x^5 + x^2 + 1.
        let f = Gf2m::new(5);
        assert_eq!(f.minimal_polynomial(1), 0b100101);
        assert_eq!(f.minimal_polynomial(3), 0b111101);
        assert_eq!(f.minimal_polynomial(5), 0b110111);
    }

    #[test]
    fn minimal_polynomial_annihilates_its_conjugates() {
        for m in 2..=6 {
            let f = Gf2m::new(m);
            for i in 1..f.order() {
                let p = f.minimal_polynomial(i);
                for j in f.cyclotomic_coset(i) {
                    // Evaluate p at α^j over GF(2^m).
                    let x = f.alpha_pow(j);
                    let mut acc = 0u16;
                    for d in 0..=poly_degree(p) {
                        if p & (1u128 << d) != 0 {
                            acc ^= f.pow(x, d);
                        }
                    }
                    assert_eq!(acc, 0, "m={m} i={i} j={j}");
                }
            }
        }
    }

    #[test]
    fn bch_generator_for_gf32_t2_and_t3() {
        let f = Gf2m::new(5);
        // t = 2: g = m1 * m3, degree 10 → BCH(31,21).
        let g2 = f.bch_generator(2);
        assert_eq!(poly_degree(g2), 10);
        assert_eq!(g2, poly_mul(0b100101, 0b111101));
        // t = 3: g = m1 * m3 * m5, degree 15 → BCH(31,16), d_min = 7.
        let g3 = f.bch_generator(3);
        assert_eq!(poly_degree(g3), 15);
        assert_eq!(g3, poly_mul(poly_mul(0b100101, 0b111101), 0b110111));
    }

    #[test]
    fn bch_generator_roots_cover_the_designed_powers() {
        let f = Gf2m::new(5);
        let g = f.bch_generator(3);
        for i in 1..=6 {
            let x = f.alpha_pow(i);
            let mut acc = 0u16;
            for d in 0..=poly_degree(g) {
                if g & (1u128 << d) != 0 {
                    acc ^= f.pow(x, d);
                }
            }
            assert_eq!(acc, 0, "α^{i} must be a root of g");
        }
    }

    #[test]
    fn hamming_is_the_t1_special_case() {
        // t = 1 BCH over GF(8) is Hamming(7,4): g = x^3 + x + 1.
        let f = Gf2m::new(3);
        assert_eq!(f.bch_generator(1), 0b1011);
    }

    #[test]
    fn poly_helpers_roundtrip() {
        let a = 0b1101u128;
        let b = 0b111u128;
        let prod = poly_mul(a, b);
        assert_eq!(poly_rem(prod, a), 0);
        assert_eq!(poly_rem(prod, b), 0);
        assert_eq!(poly_rem(prod ^ 0b10, b), poly_rem(0b10, b));
    }

    #[test]
    fn square_is_frobenius() {
        for m in 2..=8 {
            let f = Gf2m::new(m);
            for a in 0..(1u16 << m) {
                for b in 0..(1u16 << m) {
                    assert_eq!(f.square(a ^ b), f.square(a) ^ f.square(b));
                }
                assert_eq!(f.square(a), f.pow(a, 2));
            }
        }
    }

    #[test]
    fn solve_quadratic_finds_exactly_the_trace_zero_half() {
        for m in 2..=8 {
            let f = Gf2m::new(m);
            let mut solvable = 0usize;
            for c in 0..(1u16 << m) {
                match f.solve_quadratic(c) {
                    Some(z) => {
                        solvable += 1;
                        assert_eq!(f.square(z) ^ z, c, "m={m} c={c}");
                        assert_eq!(f.square(z ^ 1) ^ (z ^ 1), c, "m={m} c={c} twin");
                        // Exactly two roots: any other element misses.
                        for w in 0..(1u16 << m) {
                            if w != z && w != (z ^ 1) {
                                assert_ne!(f.square(w) ^ w, c);
                            }
                        }
                    }
                    None => {
                        for w in 0..(1u16 << m) {
                            assert_ne!(f.square(w) ^ w, c, "m={m} c={c} claimed no root");
                        }
                    }
                }
            }
            assert_eq!(solvable, 1 << (m - 1), "half the field is trace-zero");
        }
    }

    #[test]
    #[should_panic(expected = "supports 2 <= m <= 8")]
    fn rejects_unsupported_degree() {
        let _ = Gf2m::new(9);
    }
}
