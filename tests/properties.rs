//! Property-based tests (proptest) over the core data structures and
//! invariants of the workspace.

use proptest::prelude::*;
use sfq_ecc::ecc::{
    generator_right_inverse, Bch, BchSpec, BlockCode, ColumnCode, DecodeOutcome, HardDecoder, Ldpc,
    ReedMuller, Rm13,
};
use sfq_ecc::encoders::{EncoderDesign, EncoderKind};
use sfq_ecc::gf2::{BitMat, BitSlice64, BitVec, Gf2m};
use sfq_ecc::netlist::synth;

fn bitvec_strategy(len: usize) -> impl Strategy<Value = BitVec> {
    prop::collection::vec(any::<bool>(), len).prop_map(|bits| BitVec::from_bits(&bits))
}

/// Every scalar code behind the `EncoderKind::catalog()` registry, boxed for
/// uniform property checks: each kind's `EncoderKind::reference_code()`, so a
/// newly added catalog code is covered as soon as it has one.
fn catalog_codes() -> Vec<Box<dyn HardDecoder + Send + Sync>> {
    EncoderKind::catalog()
        .iter()
        .map(EncoderKind::reference_code)
        .collect()
}

/// Deterministic pseudo-random message for a given code width and seed.
fn seeded_message(k: usize, seed: u64) -> BitVec {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..k).map(|_| rng.random::<u64>() & 1 == 1).collect()
}

proptest! {
    /// XOR on BitVec is associative, commutative, and self-inverse.
    #[test]
    fn bitvec_xor_group_laws(a in bitvec_strategy(16), b in bitvec_strategy(16), c in bitvec_strategy(16)) {
        prop_assert_eq!(&(&a ^ &b) ^ &c, &a ^ &(&b ^ &c));
        prop_assert_eq!(&a ^ &b, &b ^ &a);
        prop_assert!((&a ^ &a).is_zero());
    }

    /// Hamming distance is a metric (identity, symmetry, triangle inequality)
    /// and equals the weight of the XOR.
    #[test]
    fn hamming_distance_is_a_metric(a in bitvec_strategy(12), b in bitvec_strategy(12), c in bitvec_strategy(12)) {
        prop_assert_eq!(a.hamming_distance(&a), 0);
        prop_assert_eq!(a.hamming_distance(&b), b.hamming_distance(&a));
        prop_assert_eq!(a.hamming_distance(&b), (&a ^ &b).weight());
        prop_assert!(a.hamming_distance(&c) <= a.hamming_distance(&b) + b.hamming_distance(&c));
    }

    /// Round trip between u64 and BitVec representations.
    #[test]
    fn bitvec_u64_roundtrip(value in 0u64..=u64::MAX, len in 1usize..=64) {
        let masked = if len == 64 { value } else { value & ((1u64 << len) - 1) };
        let v = BitVec::from_u64(len, masked);
        prop_assert_eq!(v.to_u64(), masked);
        prop_assert_eq!(v.len(), len);
    }

    /// RREF of any small random matrix is idempotent and preserves the rank.
    #[test]
    fn rref_is_idempotent(rows in 1usize..6, cols in 1usize..8, seed in any::<u64>()) {
        let mut bits = Vec::new();
        let mut state = seed;
        for _ in 0..rows {
            let mut row = Vec::new();
            for _ in 0..cols {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                row.push(state >> 63 == 1);
            }
            bits.push(BitVec::from_bits(&row));
        }
        let m = BitMat::from_rows(bits);
        let (r1, pivots) = m.rref();
        let (r2, pivots2) = r1.rref();
        prop_assert_eq!(&r1, &r2);
        prop_assert_eq!(pivots.len(), m.rank());
        prop_assert_eq!(pivots, pivots2);
    }

    /// Encoding is linear: E(a ⊕ b) = E(a) ⊕ E(b) for every code in the paper.
    #[test]
    fn encoding_is_linear(a in 0u64..16, b in 0u64..16) {
        let va = BitVec::from_u64(4, a);
        let vb = BitVec::from_u64(4, b);
        let sum = &va ^ &vb;
        let h74 = ColumnCode::hamming74();
        let h84 = ColumnCode::hamming84();
        let rm = Rm13::new();
        prop_assert_eq!(h74.encode(&sum), &h74.encode(&va) ^ &h74.encode(&vb));
        prop_assert_eq!(h84.encode(&sum), &h84.encode(&va) ^ &h84.encode(&vb));
        prop_assert_eq!(rm.encode(&sum), &rm.encode(&va) ^ &rm.encode(&vb));
    }

    /// Every codeword of every paper code has zero syndrome, and every
    /// single-bit corruption is corrected back to the transmitted message.
    #[test]
    fn single_error_correction_property(message in 0u64..16, position in 0usize..8) {
        let msg = BitVec::from_u64(4, message);
        let h84 = ColumnCode::hamming84();
        let cw = h84.encode(&msg);
        prop_assert!(h84.is_codeword(&cw));
        let mut corrupted = cw.clone();
        corrupted.flip(position % 8);
        let decoded = h84.decode(&corrupted);
        prop_assert!(decoded.message_is(&msg));

        let h74 = ColumnCode::hamming74();
        let cw = h74.encode(&msg);
        let mut corrupted = cw.clone();
        corrupted.flip(position % 7);
        prop_assert!(h74.decode(&corrupted).message_is(&msg));

        let rm = Rm13::new();
        let cw = rm.encode(&msg);
        let mut corrupted = cw.clone();
        corrupted.flip(position % 8);
        prop_assert!(rm.decode(&corrupted).message_is(&msg));
    }

    /// The gate-level circuits agree with the reference encoders on random
    /// messages (beyond the exhaustive 4-bit check, this guards the
    /// stimulus/trace plumbing).
    #[test]
    fn gate_level_encoding_matches_reference(message in 0u64..16) {
        let msg = BitVec::from_u64(4, message);
        for kind in [EncoderKind::Hamming74, EncoderKind::Hamming84, EncoderKind::Rm13, EncoderKind::None] {
            let design = EncoderDesign::build(kind);
            prop_assert_eq!(design.encode_gate_level(&msg), design.encode_reference(&msg));
        }
    }

    /// Generic synthesis of any first-order Reed-Muller code yields a DRC-clean
    /// netlist whose gate-level behaviour matches the generator matrix.
    #[test]
    fn generic_synthesis_is_correct_for_rm1m(m in 2usize..=4, message in any::<u64>()) {
        let code = ReedMuller::new(1, m);
        let netlist = synth::synthesize_linear_encoder(
            "rm_generic",
            code.generator(),
        );
        prop_assert!(sfq_ecc::netlist::drc::is_clean(&netlist));
        let sim = sfq_ecc::sim::GateLevelSim::new(&netlist);
        let latency = netlist.logic_depth();
        let msg = BitVec::from_u64(code.k(), message & ((1 << code.k()) - 1));
        let mut stim = sfq_ecc::sim::Stimulus::new(&netlist);
        stim.apply_word(&msg, 0);
        let word = sim.run(&stim, latency + 1).dc_word_at(latency);
        prop_assert_eq!(word, code.encode(&msg));
    }

    /// Batch pack/unpack round-trips at arbitrary lane counts and across
    /// limb boundaries: any vector length (including the wide SEC-DED words)
    /// and any batch size (including 0, exact multiples of 64, and ragged
    /// tails) survives the transpose unchanged, element for element.
    #[test]
    fn bitslice_pack_unpack_roundtrip(bits in 1usize..=96, batch in 0usize..=200, seed in any::<u64>()) {
        let vectors: Vec<BitVec> = (0..batch)
            .map(|i| seeded_message(bits, seed ^ (i as u64).wrapping_mul(0x9E37_79B9)))
            .collect();
        let sliced = BitSlice64::pack(&vectors);
        prop_assert_eq!(sliced.batch(), batch);
        prop_assert_eq!(sliced.words(), batch.div_ceil(64));
        prop_assert_eq!(sliced.unpack(), vectors.clone());
        for (i, v) in vectors.iter().enumerate() {
            prop_assert_eq!(sliced.extract(i), v.clone());
            for b in (0..bits).step_by(7) {
                prop_assert_eq!(sliced.get(i, b), v.get(b));
            }
        }
    }

    /// `generator_right_inverse` is a left identity on the encoding map for
    /// every catalog code: recombining a codeword's pivot bits through the
    /// transform recovers the original message exactly.
    #[test]
    fn generator_right_inverse_left_identity_for_catalog_codes(seed in any::<u64>()) {
        for code in catalog_codes() {
            let (pivots, transform) = generator_right_inverse(code.generator());
            prop_assert_eq!(pivots.len(), code.k());
            let msg = seeded_message(code.k(), seed);
            let cw = code.encode(&msg);
            let mut recovered = BitVec::zeros(code.k());
            for (i, &p) in pivots.iter().enumerate() {
                if cw.get(p) {
                    recovered.xor_assign(transform.row(i));
                }
            }
            prop_assert_eq!(recovered, msg, "{}", code.name());
        }
    }

    /// Decode idempotence for every catalog code: re-encoding a decoded
    /// message and decoding again is a no-op — the second pass sees a clean
    /// codeword, corrects nothing, and returns the same message.
    #[test]
    fn decoding_is_idempotent_for_catalog_codes(seed in any::<u64>(), weight in 0usize..=2) {
        for code in catalog_codes() {
            let msg = seeded_message(code.k(), seed);
            let mut received = code.encode(&msg);
            // Corrupt `weight` distinct deterministic positions.
            let n = code.n();
            let first = (seed as usize) % n;
            let second = (first + 1 + (seed >> 32) as usize % (n - 1)) % n;
            if weight >= 1 { received.flip(first); }
            if weight >= 2 && second != first { received.flip(second); }

            let once = code.decode(&received);
            if let Some(decoded_msg) = &once.message {
                let reencoded = code.encode(decoded_msg);
                prop_assert_eq!(
                    Some(&reencoded), once.codeword.as_ref(),
                    "{}: decoded message must re-encode to the decoded codeword", code.name()
                );
                let twice = code.decode(&reencoded);
                prop_assert_eq!(twice.outcome, DecodeOutcome::NoErrorDetected, "{}", code.name());
                prop_assert_eq!(twice.message.as_ref(), Some(decoded_msg), "{}", code.name());
                prop_assert_eq!(twice.codeword, Some(reencoded), "{}", code.name());
            }
        }
    }

    /// GF(2^m) field axioms for every extension degree the field layer
    /// supports beyond the toy sizes (m ∈ 4..=8, covering both registry
    /// fields GF(2^5) and GF(2^6) and the headroom degrees): addition and
    /// multiplication are associative and commutative, multiplication
    /// distributes over addition, 1 is the multiplicative identity, and
    /// every non-zero element's inverse round-trips through `inv` and `div`.
    #[test]
    fn gf2m_field_axioms(m in 4usize..=8, ra in any::<u16>(), rb in any::<u16>(), rc in any::<u16>()) {
        let field = Gf2m::new(m);
        let mask = (field.size() - 1) as u16;
        let (a, b, c) = (ra & mask, rb & mask, rc & mask);

        // Additive group (characteristic 2): commutative, associative,
        // self-inverse.
        prop_assert_eq!(field.add(a, b), field.add(b, a));
        prop_assert_eq!(field.add(field.add(a, b), c), field.add(a, field.add(b, c)));
        prop_assert_eq!(field.add(a, a), 0);

        // Multiplicative monoid: commutative, associative, identity 1,
        // absorbing 0.
        prop_assert_eq!(field.mul(a, b), field.mul(b, a));
        prop_assert_eq!(field.mul(field.mul(a, b), c), field.mul(a, field.mul(b, c)));
        prop_assert_eq!(field.mul(a, 1), a);
        prop_assert_eq!(field.mul(a, 0), 0);

        // Distributivity ties the two together.
        prop_assert_eq!(
            field.mul(a, field.add(b, c)),
            field.add(field.mul(a, b), field.mul(a, c))
        );

        // Inverses: a · a⁻¹ = 1 and division round-trips, for a, b ≠ 0.
        if a != 0 {
            prop_assert_eq!(field.mul(a, field.inv(a)), 1);
            prop_assert_eq!(field.pow(a, field.order()), 1, "Fermat: a^(2^m - 1) = 1");
            prop_assert_eq!(field.alpha_pow(field.log(a)), a, "log/alpha_pow round trip");
        }
        if b != 0 {
            prop_assert_eq!(field.mul(field.div(a, b), b), a);
        }
    }

    /// BCH(31,16) encode ∘ decode is the identity under any error pattern of
    /// weight ≤ t = 2: the decoder returns exactly the transmitted message
    /// and codeword, with the outcome matching the number of flips.
    #[test]
    fn bch_decode_inverts_encode_under_radius_two_errors(
        message in any::<u64>(),
        first in 0usize..31,
        offset in 0usize..30,
        weight in 0usize..=2,
    ) {
        let code = Bch::bch_31_16();
        let msg = BitVec::from_u64(code.k(), message & 0xFFFF);
        let cw = code.encode(&msg);
        prop_assert!(code.is_codeword(&cw));

        let mut received = cw.clone();
        let second = (first + 1 + offset) % code.n();
        if weight >= 1 { received.flip(first); }
        if weight >= 2 { received.flip(second); }
        let flips = received.hamming_distance(&cw);

        let decoded = code.decode(&received);
        prop_assert!(decoded.message_is(&msg), "weight-{flips} pattern must correct");
        prop_assert_eq!(decoded.codeword, Some(cw));
        let expected = if flips == 0 {
            DecodeOutcome::NoErrorDetected
        } else {
            DecodeOutcome::Corrected { bits_flipped: flips }
        };
        prop_assert_eq!(decoded.outcome, expected);
    }

    /// Every BCH registry member's encode ∘ decode is the identity under any
    /// error pattern whose weight is within the member's decode radius: the
    /// decoder returns exactly the transmitted message and codeword, with
    /// the outcome matching the number of flips. Randomizing over the spec
    /// itself keeps the property honest for whatever the registry grows to
    /// hold — a member whose radius its decoder cannot actually deliver
    /// fails here.
    #[test]
    fn bch_registry_decode_inverts_encode_within_radius(
        spec_index in 0usize..BchSpec::REGISTRY.len(),
        seed in any::<u64>(),
        weight_seed in any::<u32>(),
    ) {
        let spec = BchSpec::REGISTRY[spec_index];
        let code = Bch::from_spec(spec);
        let radius = usize::from(spec.decode_radius);
        let weight = weight_seed as usize % (radius + 1);
        let msg = seeded_message(code.k(), seed);
        let cw = code.encode(&msg);
        prop_assert!(code.is_codeword(&cw));

        let mut received = cw.clone();
        let mut positions = std::collections::BTreeSet::new();
        let mut state = seed | 1;
        while positions.len() < weight {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            positions.insert((state >> 32) as usize % code.n());
        }
        for &p in &positions {
            received.flip(p);
        }

        let decoded = code.decode(&received);
        prop_assert!(
            decoded.message_is(&msg),
            "{}: weight-{} pattern {:?} must correct", code.name(), weight, positions
        );
        prop_assert_eq!(decoded.codeword, Some(cw));
        let expected = if weight == 0 {
            DecodeOutcome::NoErrorDetected
        } else {
            DecodeOutcome::Corrected { bits_flipped: weight }
        };
        prop_assert_eq!(decoded.outcome, expected);
    }

    /// LDPC(60,32) bit-flip decoding always terminates within its iteration
    /// cap and classifies honestly: single errors converge (in one round)
    /// back to the transmitted message, and any heavier pattern either
    /// converges to a *valid* codeword or reports its non-convergence as
    /// `DetectedUncorrectable` — a stalled or oscillating pattern is never
    /// delivered silently as data.
    #[test]
    fn ldpc_bit_flip_converges_or_flags(
        seed in any::<u64>(),
        single in 0usize..60,
        weight in 0usize..=5,
    ) {
        let code = Ldpc::gallager_60_32();
        let msg = seeded_message(code.k(), seed);
        let cw = code.encode(&msg);
        prop_assert!(code.is_codeword(&cw));

        let one = {
            let mut r = cw.clone();
            r.flip(single);
            r
        };
        let decoded = code.decode(&one);
        prop_assert!(decoded.message_is(&msg), "single error at {} must correct", single);
        prop_assert_eq!(decoded.outcome, DecodeOutcome::Corrected { bits_flipped: 1 });

        let mut received = cw.clone();
        let mut state = seed | 1;
        for _ in 0..weight {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            received.flip((state >> 32) as usize % code.n());
        }
        let decoded = code.decode(&received);
        match decoded.outcome {
            DecodeOutcome::DetectedUncorrectable => {
                // Explicit non-convergence: no message is delivered.
                prop_assert!(decoded.message.is_none());
            }
            _ => {
                let corrected = decoded.codeword.as_ref().expect("converged codeword");
                prop_assert!(code.is_codeword(corrected), "converged word must satisfy every check");
            }
        }
    }

    /// Lane interleaving restores single-error correctability under
    /// correlated bursts: a burst flipping `w ≤ d` adjacent physical lanes of
    /// a depth-`d` interleaved frame lands on at most one lane of each
    /// codeword block, so a SEC-DED decode of every de-interleaved block
    /// corrects cleanly back to the transmitted messages — no flags, no
    /// residual errors — for every burst width up to the interleave depth.
    #[test]
    fn interleaving_restores_burst_correctability(
        depth in 1usize..=5,
        width_offset in 0usize..5,
        batch in 1usize..=150,
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use sfq_ecc::batch::BatchCodec;
        use sfq_ecc::ecc::{BatchDecode, BatchEncode};
        use sfq_ecc::link::burst::{BurstSource, Interleaver};

        let width = 1 + width_offset % depth;
        let codec = BatchCodec::new(&ColumnCode::sec_ded(3)); // SEC-DED(13,8)
        let interleaver = Interleaver::new(depth);

        let blocks: Vec<(Vec<BitVec>, BitSlice64)> = (0..depth)
            .map(|b| {
                let messages: Vec<BitVec> = (0..batch)
                    .map(|i| seeded_message(8, seed ^ ((b * batch + i) as u64)))
                    .collect();
                let encoded = codec.encode_batch(&BitSlice64::pack(&messages));
                (messages, encoded)
            })
            .collect();

        let mut frame = interleaver.interleave(
            &blocks.iter().map(|(_, e)| e.clone()).collect::<Vec<_>>(),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        BurstSource::new(width, 1.0).strike(&mut rng, &mut frame);

        for (block, (messages, _)) in interleaver.deinterleave(&frame).iter().zip(&blocks) {
            let decoded = codec.decode_batch(block);
            prop_assert_eq!(
                decoded.flagged_count(), 0,
                "depth {} width {}: every block must correct", depth, width
            );
            prop_assert_eq!(&decoded.messages.unpack(), messages);
        }
    }

    /// The splitter-insertion pass always produces exactly `loads` usable
    /// ports and `loads - 1` splitters.
    #[test]
    fn fanout_invariants(loads in 1usize..12) {
        let mut nl = sfq_ecc::netlist::Netlist::new("fanout_prop");
        let input = nl.add_input("x");
        let ports = synth::fanout(&mut nl, sfq_ecc::netlist::PortRef::of(input), loads, "x");
        prop_assert_eq!(ports.len(), loads);
        prop_assert_eq!(nl.count_cells(sfq_ecc::cells::CellKind::Splitter), loads - 1);
        // All ports are distinct.
        let mut unique = ports.clone();
        unique.sort_by_key(|p| (p.node.0, p.port));
        unique.dedup();
        prop_assert_eq!(unique.len(), loads);
    }
}
