//! Telemetry never influences results: the same committed output
//! fingerprints must hold with recording on (the default), with recording
//! switched off at runtime, and at any worker-thread count. Metrics are
//! write-only from the instrumented code's point of view and no RNG stream
//! passes through the telemetry crate, so every assertion here holds by
//! construction — these tests exist to catch anyone accidentally breaking
//! that contract.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfq_ecc::batch::BatchCodec;
use sfq_ecc::cells::CellLibrary;
use sfq_ecc::ecc::{
    BatchDecode, BatchEncode, Bch, BchSpec, ColumnCode, DecodeOutcome, HardDecoder, Ldpc, Rm13,
};
use sfq_ecc::encoders::{EncoderDesign, EncoderKind};
use sfq_ecc::gf2::{BitSlice64, BitVec};
use sfq_ecc::link::Fig5Experiment;
use sfq_ecc::stream::{FaultScript, ScrubService, StreamConfig};

/// FNV-1a over a stream of `u64` words, used to pin outputs as committed
/// constants that hold with recording on and off.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The reduced Fig. 5 configuration every test in this file runs.
fn experiment(threads: usize) -> Fig5Experiment {
    Fig5Experiment {
        chips: 40,
        messages_per_chip: 50,
        threads,
        ..Fig5Experiment::paper_setup()
    }
}

fn fig5_error_fingerprint(threads: usize) -> u64 {
    let library = CellLibrary::coldflux();
    let design = EncoderDesign::build(EncoderKind::Hamming84);
    let curve = experiment(threads).run_design_batched(&design, &library);
    assert_eq!(curve.errors_per_chip.len(), 40);
    fnv1a(curve.errors_per_chip.iter().map(|&e| e as u64))
}

/// Committed fingerprint of the Fig. 5 per-chip error counts above. The
/// same value must come out with recording on and off; update it only when
/// the simulation itself (not telemetry) intentionally changes.
const FIG5_ERRORS_FNV: u64 = 0xf05e_74aa_1eda_9c25;

/// Committed fingerprint of the per-chip error counts of all four paper
/// designs (`EncoderKind::ALL`) through both Fig. 5 engines, the batched
/// link and the pulse-level oracle. Chip sampling feeds both, so this pins
/// every sampled fault map that reaches a counted message.
const FIG5_PAPER_FNV: u64 = 0xc35d_d8b8_8d3b_1464;

fn fig5_paper_fingerprint() -> u64 {
    let library = CellLibrary::coldflux();
    let experiment = experiment(2);
    let mut counts = Vec::new();
    for kind in EncoderKind::ALL {
        let design = EncoderDesign::build(kind);
        for curve in [
            experiment.run_design_batched(&design, &library),
            experiment.run_design(&design, &library),
        ] {
            assert_eq!(curve.errors_per_chip.len(), 40);
            counts.extend(curve.errors_per_chip.iter().map(|&e| e as u64));
        }
    }
    fnv1a(counts)
}

/// Committed fingerprint of the SEC-DED(72,64) batch-decode output below.
const SECDED_DECODE_FNV: u64 = 0x1cbf_80f6_f8ae_c63b;

fn secded_decode_fingerprint() -> u64 {
    let codec = BatchCodec::new(&ColumnCode::sec_ded(6));
    let mut rng = StdRng::seed_from_u64(0x00DE_7E81);
    let messages: Vec<BitVec> = (0..256)
        .map(|_| BitVec::from_u64(64, rng.random::<u64>()))
        .collect();
    let mut received = codec.encode_batch(&BitSlice64::pack(&messages));
    // A mix of clean lanes, single errors (correctable), and double errors
    // (detected), so the hash covers every decoder outcome path.
    for i in 0..256 {
        for flip in 0..(i % 3) {
            let pos = (i * 7 + flip * 31) % 72;
            received.set(i, pos, !received.get(i, pos));
        }
    }
    let decoded = codec.decode_batch(&received);
    let mut words: Vec<u64> = Vec::new();
    for j in 0..codec.k() {
        words.extend_from_slice(decoded.messages.lane(j));
    }
    words.extend_from_slice(&decoded.flagged);
    words.extend_from_slice(&decoded.corrected);
    fnv1a(words)
}

/// Committed fingerprint of the scalar single-error decoders and RM(1,3):
/// each code's name, `G` and `H` (and `min_distance()` where it is pinned),
/// then the `Decoded` of both `decode` and `decode_best_effort` on every
/// word for `n ≤ 16`, and otherwise on every ≤ 2-bit error pattern of four
/// seeded codewords plus 1,000 seeded words.
const SCALAR_DECODE_FNV: u64 = 0x952c_4096_9532_7938;

/// The codes [`SCALAR_DECODE_FNV`] covers, each with whether its
/// `min_distance()` is pinned (not for the Hamming codes with `r ≥ 5`,
/// whose `k > 24` once put them beyond exhaustive enumeration).
fn scalar_codes() -> Vec<(Box<dyn HardDecoder>, bool)> {
    let mut codes: Vec<(Box<dyn HardDecoder>, bool)> = vec![
        (Box::new(ColumnCode::hamming74()), true),
        (Box::new(ColumnCode::hamming84()), true),
    ];
    for r in 2..=6 {
        codes.push((Box::new(ColumnCode::hamming(r)), r < 5));
    }
    codes.push((Box::new(ColumnCode::shortened_hamming_38_32()), true));
    for (k, base_r, copies) in [(4, 3, 1), (2, 3, 2), (3, 3, 2)] {
        codes.push((
            Box::new(ColumnCode::shortened_hamming(k, base_r, copies)),
            true,
        ));
    }
    codes.push((Box::new(ColumnCode::wide_85_64()), true));
    for m in 2..=6 {
        codes.push((Box::new(ColumnCode::sec_ded(m)), true));
    }
    codes.push((Box::new(ColumnCode::uncoded(4)), true));
    codes.push((Box::new(ColumnCode::uncoded(64)), true));
    codes.push((Box::new(Rm13::new()), true));
    codes
}

fn scalar_decode_fingerprint() -> u64 {
    fn push_bits(words: &mut Vec<u64>, bits: Option<&BitVec>) {
        match bits {
            None => words.push(u64::MAX),
            Some(bits) => {
                let value = bits.to_u128();
                words.extend([bits.len() as u64, value as u64, (value >> 64) as u64]);
            }
        }
    }
    let mut words: Vec<u64> = Vec::new();
    let mut rng = StdRng::seed_from_u64(0x5CA1_A7DE);
    for (code, pin_distance) in scalar_codes() {
        let (n, k) = (code.n(), code.k());
        words.extend(code.name().bytes().map(u64::from));
        words.extend([n as u64, k as u64]);
        for matrix in [code.generator(), code.parity_check()] {
            for row in 0..matrix.rows() {
                push_bits(&mut words, Some(matrix.row(row)));
            }
        }
        if pin_distance {
            words.push(code.min_distance() as u64);
        }
        let received: Vec<BitVec> = if n <= 16 {
            (0..1u64 << n).map(|w| BitVec::from_u64(n, w)).collect()
        } else {
            let mut set = Vec::new();
            for _ in 0..4 {
                let message: BitVec = (0..k).map(|_| rng.random::<bool>()).collect();
                let codeword = code.encode(&message);
                set.push(codeword.clone());
                for a in 0..n {
                    let mut single = codeword.clone();
                    single.flip(a);
                    for b in a + 1..n {
                        let mut double = single.clone();
                        double.flip(b);
                        set.push(double);
                    }
                    set.push(single);
                }
            }
            set.extend((0..1000).map(|_| (0..n).map(|_| rng.random::<bool>()).collect()));
            set
        };
        for word in &received {
            for decoded in [code.decode(word), code.decode_best_effort(word)] {
                words.push(match decoded.outcome {
                    DecodeOutcome::NoErrorDetected => 0,
                    DecodeOutcome::Corrected { bits_flipped } => bits_flipped as u64,
                    DecodeOutcome::DetectedUncorrectable => u64::MAX,
                });
                push_bits(&mut words, decoded.codeword.as_ref());
                push_bits(&mut words, decoded.message.as_ref());
            }
        }
    }
    fnv1a(words)
}

/// Committed fingerprint of the multi-error registry batch-decode output
/// below: all three BCH registry members plus LDPC(60,32), each decoding a
/// seeded corpus that mixes clean lanes with error weights 0–4 (covering
/// the correct, flag, and — for the radius-2 members at weight 4 —
/// miscorrect paths).
const REGISTRY_DECODE_FNV: u64 = 0x659d_be88_a366_4393;

fn registry_decode_fingerprint() -> u64 {
    let mut words: Vec<u64> = Vec::new();
    let mut rng = StdRng::seed_from_u64(0xBC4_1D9C);
    let codes: [Box<dyn HardDecoder>; 4] = [
        Box::new(Bch::bch_31_16()),
        Box::new(Bch::bch_63_51()),
        Box::new(Bch::bch_63_45()),
        Box::new(Ldpc::gallager_60_32()),
    ];
    for code in codes {
        let codec = BatchCodec::new(&*code);
        let (n, k) = (codec.n(), codec.k());
        let messages: Vec<BitVec> = (0..192)
            .map(|_| (0..k).map(|_| rng.random::<u64>() & 1 == 1).collect())
            .collect();
        let mut received = codec.encode_batch(&BitSlice64::pack(&messages));
        for i in 0..192 {
            for flip in 0..(i % 5) {
                let pos = (i * 11 + flip * 17) % n;
                received.set(i, pos, !received.get(i, pos));
            }
        }
        let decoded = codec.decode_batch(&received);
        for j in 0..k {
            words.extend_from_slice(decoded.messages.lane(j));
        }
        words.extend_from_slice(&decoded.flagged);
        words.extend_from_slice(&decoded.corrected);
    }
    fnv1a(words)
}

/// Committed fingerprint of everything synthesis emits for the catalog:
/// each design's netlist text, its pass reports, its schedule plan (the
/// chosen schedule and every priced candidate) and its `depth_slack` 0–2
/// Pareto sweep, which starts from that plan (`EncoderDesign::pareto_sweep`;
/// `tests/golden/pareto_front.txt` pins `EncoderKind::pareto_sweep`). The
/// golden cost files pin cell counts only; this pins the wiring, so a
/// netlist rewired at equal cost fails here.
const CATALOG_SYNTH_FNV: u64 = 0x6575_6ad6_91fb_2a92;

fn catalog_synth_fingerprint() -> u64 {
    let library = CellLibrary::coldflux();
    let mut text = String::new();
    for design in EncoderDesign::build_catalog() {
        text.push_str(&design.netlist().to_text());
        text.push_str(&format!("{:?}\n", design.synthesis_report()));
        text.push_str(&format!("{:?}\n", design.schedule_plan()));
        for point in design.pareto_sweep(&library, 2) {
            text.push_str(&format!("{point:?}\n"));
        }
    }
    fnv1a(text.bytes().map(u64::from))
}

/// Committed fingerprint of the scrub service's deterministic reports:
/// `FaultScript::soak_mix` runs at 1.0× and 1.5× the nominal arrival rate,
/// at `tests/stream_service.rs`'s 512-message scale. It pins every batch
/// count, latency quantile, ladder transition and per-message outcome, so
/// a scheduler change that moves which thread decodes a job must leave it
/// alone.
const SCRUB_REPORT_FNV: u64 = 0x093b_4201_a46c_60a7;

fn scrub_report_fingerprint(threads: usize) -> u64 {
    let mut text = String::new();
    for factor_milli in [1000, 1500] {
        let config = StreamConfig {
            batch_messages: 512,
            total_cycles: 1 << 14,
            drain_limit: 1 << 15,
            threads,
            ..StreamConfig::nominal()
        }
        .with_rate_factor(factor_milli);
        let script = FaultScript::soak_mix(config.total_cycles, config.shards, 2);
        let report = ScrubService::run(&config, &script);
        report.validate().expect("soak invariants hold");
        text.push_str(&report.deterministic_digest());
        text.push('\n');
    }
    fnv1a(text.bytes().map(u64::from))
}

#[test]
fn scrub_reports_match_the_committed_fingerprint_at_every_worker_count() {
    for threads in [1, 2, 4] {
        assert_eq!(
            scrub_report_fingerprint(threads),
            SCRUB_REPORT_FNV,
            "{threads}-worker scrub reports changed; if the service's \
             simulation or decode outcomes change on purpose, update \
             SCRUB_REPORT_FNV (and never because of telemetry or the thread \
             that ran a job)"
        );
    }
}

#[test]
fn catalog_synthesis_matches_the_committed_fingerprint() {
    assert_eq!(
        catalog_synth_fingerprint(),
        CATALOG_SYNTH_FNV,
        "synthesized catalog netlists, schedule plans or Pareto points \
         changed; if the synthesis change is intentional, update \
         CATALOG_SYNTH_FNV (and never because of telemetry)"
    );
}

#[test]
fn registry_batch_decode_matches_the_committed_fingerprint() {
    assert_eq!(
        registry_decode_fingerprint(),
        REGISTRY_DECODE_FNV,
        "BCH registry / LDPC batch-decode output changed; if the decoder \
         change is intentional, update REGISTRY_DECODE_FNV (and never \
         because of telemetry)"
    );
}

/// The per-chip seeding contract extends to the multi-error members: the
/// batched Fig. 5 curves of the strongest BCH member and the iterative
/// LDPC member are bit-identical at every worker count.
#[test]
fn multi_error_fig5_outputs_are_identical_across_worker_counts() {
    let library = CellLibrary::coldflux();
    for kind in [EncoderKind::Bch(BchSpec::BCH_63_45), EncoderKind::Ldpc] {
        let design = EncoderDesign::build(kind);
        let fingerprint = |threads: usize| {
            let curve = Fig5Experiment {
                chips: 24,
                messages_per_chip: 30,
                threads,
                ..Fig5Experiment::multi_error_setup()
            }
            .run_design_batched(&design, &library);
            fnv1a(curve.errors_per_chip.iter().map(|&e| e as u64))
        };
        let serial = fingerprint(1);
        for threads in [2, 8] {
            assert_eq!(
                fingerprint(threads),
                serial,
                "{}: {threads}-worker run diverged from the serial run",
                design.name()
            );
        }
    }
}

#[test]
fn fig5_outputs_match_the_committed_fingerprint() {
    assert_eq!(
        fig5_error_fingerprint(1),
        FIG5_ERRORS_FNV,
        "Fig. 5 per-chip error counts changed; if the simulation change is \
         intentional, update FIG5_ERRORS_FNV (and never because of telemetry)"
    );
}

#[test]
fn fig5_paper_designs_match_the_committed_fingerprint_in_both_engines() {
    assert_eq!(
        fig5_paper_fingerprint(),
        FIG5_PAPER_FNV,
        "Fig. 5 per-chip error counts of the paper designs changed; if the \
         simulation change is intentional, update FIG5_PAPER_FNV (and never \
         because of telemetry)"
    );
}

#[test]
fn fig5_outputs_are_identical_across_worker_counts() {
    let serial = fig5_error_fingerprint(1);
    for threads in [2, 8] {
        assert_eq!(
            fig5_error_fingerprint(threads),
            serial,
            "{threads}-worker run diverged from the serial run"
        );
    }
}

#[test]
fn scalar_decode_matches_the_committed_fingerprint() {
    assert_eq!(
        scalar_decode_fingerprint(),
        SCALAR_DECODE_FNV,
        "scalar single-error or RM(1,3) decode output changed; if the \
         decoder change is intentional, update SCALAR_DECODE_FNV"
    );
}

#[test]
fn batch_decode_matches_the_committed_fingerprint() {
    assert_eq!(
        secded_decode_fingerprint(),
        SECDED_DECODE_FNV,
        "SEC-DED(72,64) batch-decode output changed; if the decoder change \
         is intentional, update SECDED_DECODE_FNV"
    );
}

/// With recording switched off, every instrumented path takes its
/// early-out branch, and all seven committed fingerprints must still hold
/// (the scrub reports at one worker). The catalog build here runs every
/// cancellation search with recording off.
#[test]
fn runtime_recording_toggle_never_changes_outputs() {
    sfq_ecc::telemetry::set_recording(false);
    let fingerprints = [
        (
            "FIG5_ERRORS_FNV",
            fig5_error_fingerprint(1),
            FIG5_ERRORS_FNV,
        ),
        ("FIG5_PAPER_FNV", fig5_paper_fingerprint(), FIG5_PAPER_FNV),
        (
            "SCALAR_DECODE_FNV",
            scalar_decode_fingerprint(),
            SCALAR_DECODE_FNV,
        ),
        (
            "SECDED_DECODE_FNV",
            secded_decode_fingerprint(),
            SECDED_DECODE_FNV,
        ),
        (
            "REGISTRY_DECODE_FNV",
            registry_decode_fingerprint(),
            REGISTRY_DECODE_FNV,
        ),
        (
            "CATALOG_SYNTH_FNV",
            catalog_synth_fingerprint(),
            CATALOG_SYNTH_FNV,
        ),
        (
            "SCRUB_REPORT_FNV",
            scrub_report_fingerprint(1),
            SCRUB_REPORT_FNV,
        ),
    ];
    sfq_ecc::telemetry::set_recording(true);
    for (name, actual, committed) in fingerprints {
        assert_eq!(actual, committed, "{name} changed with recording off");
    }
}

#[test]
fn parallelism_report_reflects_the_worker_layout_without_affecting_results() {
    let library = CellLibrary::coldflux();
    let design = EncoderDesign::build(EncoderKind::Hamming84);
    let curve = experiment(4).run_design_batched(&design, &library);
    // 40 chips over 4 workers: ceil(40/4) = 10 chips each.
    assert_eq!(curve.parallelism.threads, 4);
    assert_eq!(curve.parallelism.chips_per_worker, vec![10, 10, 10, 10]);
    assert_eq!(
        fnv1a(curve.errors_per_chip.iter().map(|&e| e as u64)),
        FIG5_ERRORS_FNV,
        "the layout report must never perturb the simulation"
    );
}
